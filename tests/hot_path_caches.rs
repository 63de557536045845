//! The hot-path caches must be semantically invisible.
//!
//! Decoded-program reuse (each TCPU pins the program it ran last over
//! the program interner) is checked against the `tpp-spec` reference,
//! which decodes every packet fresh, so a stale pin would show as a
//! divergence. Programs include undecodable words so the replayed
//! `BadInstruction` halt position is exercised too.
//!
//! The exact-match flow cache is checked against an ASIC with it off
//! (`AsicConfig::without_flow_cache()`): same outcomes, same forwarded
//! bytes, same TPP-readable registers.
//!
//! The shared ASIC-pair/frame builders live in `tpp_bench::testgen`,
//! reused by the robustness tests and the conformance fuzz loop.

use proptest::prelude::*;
use tpp_asic::Outcome;
use tpp_bench::conformance::{
    compare_exec, compare_final, spec_round, ConformanceCase, EGRESS_PORT, INGRESS_PORT,
};
use tpp_bench::testgen::{asic_pair, regs_match, step_both};
use tpp_wire::ethernet::{build_frame, EtherType};
use tpp_wire::EthernetAddress;

/// Drives one ASIC with the programs `words_a`/`words_b` (picked per
/// frame by `pattern`) against the `tpp-spec` reference, which decodes
/// every packet fresh. Compares each frame's execution report and
/// forwarded bytes, then every register and SRAM word, and checks that
/// every frame repeating its predecessor's program was a pin hit.
fn check_against_spec(
    words_a: Vec<u32>,
    words_b: Vec<u32>,
    mem: Vec<u32>,
    pattern: &[bool],
) -> Result<(), TestCaseError> {
    let case_a = ConformanceCase {
        insns: words_a,
        memory: mem,
        ..ConformanceCase::default()
    };
    let case_b = ConformanceCase {
        insns: words_b,
        ..case_a.clone()
    };
    let (frame_a, frame_b) = (case_a.frame(), case_b.frame());
    let mut asic = case_a.harness_asic(case_a.asic_config());
    let mut spec = case_a.initial_spec_state();
    for (round, &pick_a) in pattern.iter().enumerate() {
        let frame = if pick_a { &frame_a } else { &frame_b };
        let now = 1_000 * (round as u64 + 1);
        let Outcome::Enqueued { exec, .. } = asic.handle_frame(frame.clone(), INGRESS_PORT, now)
        else {
            panic!("round {round}: harness frame not enqueued");
        };
        let (spec_frame, spec_report) = spec_round(&mut spec, frame, now, case_a.budget);
        compare_exec(round as u32, exec.as_ref(), spec_report.as_ref())
            .map_err(TestCaseError::fail)?;
        prop_assert_eq!(asic.dequeue(EGRESS_PORT), spec_frame);
    }
    compare_final(&asic.snapshot(), &spec).map_err(TestCaseError::fail)?;
    let repeats = pattern.windows(2).filter(|w| w[0] == w[1]).count() as u64;
    let (hits, misses) = asic.decode_cache_stats();
    prop_assert!(hits >= repeats, "pin served {hits} of {repeats} repeats");
    prop_assert_eq!(hits + misses, pattern.len() as u64);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// A random mix of flows — L2-routed, L3-routed, and unroutable —
    /// fed repeatedly forwards identically with the flow cache on and
    /// off, and the flow cache serves repeats from cache.
    #[test]
    fn flow_cache_matches_table_walk(
        flows in proptest::collection::vec((0u32..5, any::<bool>()), 1..12),
        payload_len in 20usize..64,
    ) {
        let (mut cached, mut uncached) = asic_pair();
        let frames: Vec<Vec<u8>> = flows
            .iter()
            .map(|&(dst, ipv4)| {
                build_frame(
                    EthernetAddress::from_host_id(dst),
                    EthernetAddress::from_host_id(9),
                    EtherType(if ipv4 { 0x0800 } else { 0x0802 }),
                    &vec![0xabu8; payload_len],
                )
            })
            .collect();
        for (i, frame) in frames.iter().chain(frames.iter()).enumerate() {
            step_both(&mut cached, &mut uncached, frame, i as u64);
        }
        regs_match(&cached, &uncached);
        let (hits, misses) = cached.flow_cache_stats();
        prop_assert!(hits >= frames.len() as u64, "second pass should hit");
        prop_assert!(misses <= frames.len() as u64);
    }

    /// One arbitrary program (valid or not) fed `repeats` times: every
    /// round after the first is served by the TCPU's pin and must match
    /// the reference's fresh decode of the same bytes.
    #[test]
    fn decode_cache_matches_fresh_decode(
        words in proptest::collection::vec(any::<u32>(), 0..12),
        mem in proptest::collection::vec(any::<u32>(), 0..16),
        repeats in 2usize..5,
    ) {
        check_against_spec(words, Vec::new(), mem, &vec![true; repeats])?;
    }

    /// Two arbitrary programs interleaved by `pattern`: runs of one
    /// program (what batched dispatch used to run as one window) are
    /// served by the pin, switches between them re-pin through the
    /// interner. Every frame must match the reference's per-frame
    /// fresh decode.
    #[test]
    fn batched_dispatch_matches_per_frame(
        words_a in proptest::collection::vec(any::<u32>(), 0..12),
        words_b in proptest::collection::vec(any::<u32>(), 0..12),
        mem in proptest::collection::vec(any::<u32>(), 0..16),
        pattern in proptest::collection::vec(any::<bool>(), 4..24),
    ) {
        check_against_spec(words_a, words_b, mem, &pattern)?;
    }
}
