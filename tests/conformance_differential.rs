//! Differential conformance: the optimized ASIC (`tpp-asic`, flow cache
//! on *and* off) against the reference semantics (`tpp-spec`),
//! driven by the shared harness in `tpp_bench::conformance`.
//!
//! The debug-profile test here runs a few hundred seeded cases; the CI
//! conformance lane runs the `conformance` bin in release mode over
//! ≥10 000 cases plus the full committed corpus.

use proptest::test_runner::TestRng;
use tpp::isa::{Instruction, Opcode};
use tpp_bench::conformance::{directed_cases, fuzz, gen_blob, parse_agreement};
use tpp_bench::testgen::{asic_pair, regs_match, step_both, tpp_frame};

#[test]
fn seeded_fuzz_has_no_divergences() {
    let n = 300;
    let stats = fuzz(0, n).unwrap_or_else(|d| {
        panic!(
            "case {} diverged:\n{}\nminimized witness:\n{}",
            d.case.name,
            d.error,
            d.minimized.to_json().pretty()
        )
    });
    assert_eq!(stats.cases, n);
    assert!(stats.executed_rounds > 0, "no TPP ever executed");
    assert!(stats.dropped_cases > 0, "queue-full path never exercised");
}

#[test]
fn spec_and_wire_parsers_agree_on_arbitrary_blobs() {
    let mut rng = TestRng::deterministic("tpp-parse-agreement");
    for i in 0..2000 {
        let blob = gen_blob(&mut rng);
        if let Err(e) = parse_agreement(&blob) {
            panic!("blob {i}: {e}\nbytes: {blob:02x?}");
        }
    }
}

#[test]
fn directed_corpus_covers_every_opcode() {
    let mut seen: Vec<u8> = directed_cases()
        .iter()
        .flat_map(|case| case.insns.iter())
        .filter_map(|&w| Instruction::decode(w).ok())
        .map(|insn| insn.opcode() as u8)
        .collect();
    seen.sort();
    seen.dedup();
    for &op in Opcode::ALL {
        assert!(
            seen.contains(&(op as u8)),
            "opcode {op:?} not covered by the directed corpus"
        );
    }
}

/// FNV-1a offset basis and prime, used to construct two programs with
/// equal hashes: program reuse must key on exact bytes, never on a hash.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Chunked FNV-1a over raw instruction bytes (8-byte little-endian
/// chunks; the test programs are whole chunks).
fn program_hash(bytes: &[u8]) -> u64 {
    bytes.chunks_exact(8).fold(FNV_OFFSET, |h, chunk| {
        (h ^ u64::from_le_bytes(chunk.try_into().unwrap())).wrapping_mul(FNV_PRIME)
    })
}

/// Regression: two *different* programs engineered to share a
/// chunked-FNV-1a hash. Program reuse is keyed by exact bytes, so the
/// second program must be a pin miss (not replay the first one's decode)
/// and the ASIC pair must stay bit-identical.
#[test]
fn decode_cache_rejects_constructed_hash_collision() {
    // Program A: two 8-byte chunks (PUSHI 1, NOP, PUSHI 2, NOP on the
    // wire), hashed over the raw big-endian instruction bytes.
    let a_words = [0x6000_0001u32, 0x0000_0000, 0x6000_0002, 0x0000_0000];
    let a: Vec<u8> = a_words.iter().flat_map(|w| w.to_be_bytes()).collect();
    let a1 = u64::from_le_bytes(a[0..8].try_into().unwrap());
    let a2 = u64::from_le_bytes(a[8..16].try_into().unwrap());
    // Program B: flip one bit in the first chunk, solve the second so
    // the folded hash is identical (hash = ((OFF ^ c1)·P ^ c2)·P).
    let b1 = a1 ^ (1 << 17);
    let b2 =
        (FNV_OFFSET ^ a1).wrapping_mul(FNV_PRIME) ^ a2 ^ (FNV_OFFSET ^ b1).wrapping_mul(FNV_PRIME);
    let mut b = Vec::with_capacity(16);
    b.extend_from_slice(&b1.to_le_bytes());
    b.extend_from_slice(&b2.to_le_bytes());
    assert_ne!(a, b, "programs must differ byte-wise");
    assert_eq!(program_hash(&a), program_hash(&b), "constructed collision");
    let b_words: Vec<u32> = b
        .chunks(4)
        .map(|c| u32::from_be_bytes(c.try_into().unwrap()))
        .collect();

    let (mut cached, mut uncached) = asic_pair();
    let frame_a = tpp_frame(1, 9, &a_words, &[0; 8]);
    let frame_b = tpp_frame(1, 9, &b_words, &[0; 8]);
    // Pin program A (the second and third rounds are pin hits).
    for round in 0..3 {
        step_both(&mut cached, &mut uncached, &frame_a, round);
    }
    let (hits_seeded, misses_seeded) = cached.decode_cache_stats();
    assert!(hits_seeded >= 2, "A's repeats should hit the pin");
    // Program B has A's hash. The byte compare must reject it: B decodes
    // fresh and behaves exactly like the other ASIC.
    step_both(&mut cached, &mut uncached, &frame_b, 10);
    regs_match(&cached, &uncached);
    let (_, misses_after) = cached.decode_cache_stats();
    assert!(
        misses_after > misses_seeded,
        "colliding program must be a verified miss, not a false hit"
    );
}
