//! Fleet-wide decoded-program interner: the decode-once/execute-many
//! half of the hot path.
//!
//! The paper's applications (RCP\*, microburst detection, the ndb probes)
//! stamp the *identical* instruction program on every packet of a flow,
//! yet a naive TCPU re-decodes every word of every packet at every hop.
//! The interner keys a decoded program on its exact raw instruction
//! bytes, so `Instruction::decode` runs once per distinct program per
//! fleet; each [`Tcpu`](crate::Tcpu) pins the program it ran last and
//! asks the interner only when the next packet's bytes differ.
//!
//! Correctness: a [`DecodedProgram`] stores the decoded prefix *and* the
//! index of the first undecodable word (`bad_at`), which together
//! reproduce exactly what per-packet decoding would observe at each pc —
//! including the `BadInstruction` halt. Keys are compared byte for byte,
//! so no two programs ever share a decode.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use tpp_isa::{decode_program, Instruction};

/// One decoded program: the raw bytes it was decoded from (for the
/// TCPU's pin compare) and the decode result.
#[derive(Debug)]
pub struct DecodedProgram {
    bytes: Box<[u8]>,
    /// Instructions that decoded cleanly, front to back.
    pub insns: Vec<Instruction>,
    /// Index of the first word that failed to decode, if any. Execution
    /// must halt with `BadInstruction` there, exactly as a fresh
    /// per-packet decode would.
    pub bad_at: Option<usize>,
}

impl DecodedProgram {
    /// Decode `bytes` (big-endian instruction words) into a program. Pure
    /// function of the bytes, so two decodes of the same bytes — on any
    /// switch — are interchangeable; that is what lets the interner share
    /// one `Arc`'d copy fleet-wide.
    fn decode(bytes: &[u8]) -> Self {
        let words = bytes
            .chunks_exact(4)
            .map(|c| u32::from_be_bytes([c[0], c[1], c[2], c[3]]));
        let (insns, bad_at) = decode_program(words);
        DecodedProgram {
            bytes: bytes.into(),
            insns,
            bad_at,
        }
    }

    /// The raw instruction bytes this program was decoded from.
    pub fn bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Approximate resident bytes of this decoded program.
    pub fn approx_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self.bytes.len()
            + self.insns.capacity() * std::mem::size_of::<Instruction>()
    }
}

/// A pool of decoded TPP programs keyed by their exact bytes. A
/// standalone TCPU owns one; under the simulator every switch shares the
/// fleet's, so a program crossing a k=8 fat tree is decoded (and
/// resident) once instead of up to 80 times.
///
/// Sharing is semantically invisible: decoding is a pure function of the
/// program bytes. The interner is `Clone` (a handle to shared state) and
/// thread-safe, so the sharded simulator can hand one handle to switches
/// on different worker threads.
#[derive(Debug, Clone, Default)]
pub struct ProgramInterner {
    inner: Arc<Mutex<Interned>>,
}

#[derive(Debug, Default)]
struct Interned {
    programs: HashMap<Box<[u8]>, Arc<DecodedProgram>>,
    /// Lookups served by an existing decode.
    shared: u64,
}

impl ProgramInterner {
    /// An empty interner.
    pub fn new() -> Self {
        Self::default()
    }

    /// The one shared decode of `bytes`: returns the existing `Arc` when
    /// these exact bytes were interned before, otherwise decodes once and
    /// registers the result.
    pub(crate) fn intern(&self, bytes: &[u8]) -> Arc<DecodedProgram> {
        let mut inner = self.inner.lock().expect("interner lock");
        if let Some(hit) = inner.programs.get(bytes).cloned() {
            inner.shared += 1;
            return hit;
        }
        let program = Arc::new(DecodedProgram::decode(bytes));
        inner.programs.insert(bytes.into(), program.clone());
        program
    }

    /// `(shared, decoded)`: lookups served by an existing decode vs.
    /// programs that genuinely had to be decoded.
    pub fn stats(&self) -> (u64, u64) {
        let inner = self.inner.lock().expect("interner lock");
        (inner.shared, inner.programs.len() as u64)
    }

    /// Distinct programs currently interned.
    pub fn distinct_programs(&self) -> usize {
        self.inner.lock().expect("interner lock").programs.len()
    }

    /// Approximate resident bytes of the interned programs (the
    /// fleet-shared state that per-switch accounting must not double
    /// count).
    pub fn approx_bytes(&self) -> usize {
        let inner = self.inner.lock().expect("interner lock");
        inner
            .programs
            .iter()
            .map(|(key, p)| key.len() + p.approx_bytes())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn words_to_bytes(words: &[u32]) -> Vec<u8> {
        words.iter().flat_map(|w| w.to_be_bytes()).collect()
    }

    #[test]
    fn second_intern_shares_the_first_decode() {
        let interner = ProgramInterner::new();
        let bytes = words_to_bytes(&[0x0000_0000, 0x6000_0007]); // NOP, PUSHI 7
        let a = interner.intern(&bytes);
        assert_eq!((a.insns.len(), a.bad_at), (2, None));
        let b = interner.clone().intern(&bytes);
        assert!(Arc::ptr_eq(&a, &b), "one decode per distinct program");
        assert_eq!(interner.stats(), (1, 1));
        assert_eq!(interner.distinct_programs(), 1);
        assert!(interner.approx_bytes() > 0);
    }

    #[test]
    fn bad_word_position_is_recorded() {
        // NOP, then an undefined opcode (0x1f << 27), then a NOP that a
        // fresh decode would never reach.
        let bytes = words_to_bytes(&[0x0000_0000, 0xf800_0000, 0x0000_0000]);
        let p = ProgramInterner::new().intern(&bytes);
        assert_eq!(p.insns.len(), 1);
        assert_eq!(p.bad_at, Some(1));
    }

    #[test]
    fn distinct_bytes_get_distinct_decodes() {
        let interner = ProgramInterner::new();
        let a = words_to_bytes(&[0x6000_0001]); // PUSHI 1
        let b = words_to_bytes(&[0x6000_0002]); // PUSHI 2
        assert_eq!(interner.intern(&a).bytes(), &a[..]);
        assert_eq!(interner.intern(&b).bytes(), &b[..]);
        assert_eq!(interner.stats(), (0, 2), "both were genuine decodes");
    }
}
