//! Decoding fully-executed TPPs into per-hop telemetry.
//!
//! §2.1: "the end-host knows exactly how to interpret values in the
//! packet to obtain a detailed breakdown" — the interpretation key is the
//! program itself: a stack-mode program that pushes `k` words per hop
//! turns the stack into `hop` consecutive `k`-word records.

use tpp_telemetry::{TraceEvent, TraceEventKind, TraceSink};
use tpp_wire::tpp::{TppPacket, WORD_SIZE};
use tpp_wire::EthernetAddress;

/// Allocation-free view of an executed stack-mode TPP as per-hop
/// records of `words_per_hop` words, read straight from packet memory.
///
/// [`HopWords::new`] holds the one validation rule every decoder
/// shares. Per-packet decoders (the end-host apps) read hops in place
/// through [`HopWords::records`]; [`split_hops`] copies the view into an
/// owned [`PathSample`] for tests, examples and wide queries.
#[derive(Debug, Clone, Copy)]
pub struct HopWords<'a> {
    stack: &'a [u8],
    words_per_hop: usize,
}

impl<'a> HopWords<'a> {
    /// View `tpp`'s stack as hop records.
    ///
    /// Returns `None` when `words_per_hop` is 0, or the stack length is
    /// not an exact multiple of `words_per_hop`, or disagrees with the
    /// hop counter — which means the packet was corrupted, the program
    /// faulted mid-hop, or the caller's `words_per_hop` is wrong.
    /// Callers treat `None` as a lost sample.
    pub fn new<T: AsRef<[u8]>>(tpp: &'a TppPacket<T>, words_per_hop: usize) -> Option<Self> {
        if words_per_hop == 0 {
            return None;
        }
        // `sp` is clamped to packet memory, as in `stack_words`: a
        // corrupted stack pointer degrades to a short read.
        let memory = tpp.memory();
        let words = tpp.sp().min(memory.len()) / WORD_SIZE;
        if !words.is_multiple_of(words_per_hop) || words / words_per_hop != tpp.hop() as usize {
            return None;
        }
        Some(HopWords {
            stack: &memory[..words * WORD_SIZE],
            words_per_hop,
        })
    }

    /// Hops recorded.
    pub fn hop_count(&self) -> usize {
        self.stack.len() / (self.words_per_hop * WORD_SIZE)
    }

    /// Word `i` of hop `hop`, in program push order. Panics when `hop`
    /// or `i` is out of range.
    pub fn word(&self, hop: usize, i: usize) -> u32 {
        assert!(i < self.words_per_hop, "word {i} past the hop record");
        let at = (hop * self.words_per_hop + i) * WORD_SIZE;
        u32::from_be_bytes(self.stack[at..at + WORD_SIZE].try_into().expect("one word"))
    }

    /// Every hop's record as an `N`-word array, in path order. Panics
    /// unless `N` is the view's words per hop.
    pub fn records<const N: usize>(self) -> impl Iterator<Item = [u32; N]> + 'a {
        assert_eq!(N, self.words_per_hop, "record width");
        (0..self.hop_count()).map(move |hop| std::array::from_fn(|i| self.word(hop, i)))
    }
}

/// One hop's worth of words, in program push order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HopView {
    /// 0-based hop index along the path.
    pub hop: usize,
    /// The words the program recorded at this hop.
    pub words: Vec<u32>,
}

/// A decoded path sample: every hop's record, plus echo metadata.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PathSample {
    /// Per-hop records in path order.
    pub hops: Vec<HopView>,
    /// Total hops the TPP executed on.
    pub hop_count: usize,
}

impl PathSample {
    /// Convenience: the `i`-th word of every hop (e.g. all queue sizes
    /// when the program pushes the queue size `i`-th).
    pub fn column(&self, i: usize) -> Vec<u32> {
        self.hops.iter().map(|h| h.words[i]).collect()
    }

    /// The hop with the maximum value in column `i`, if any hops exist.
    pub fn argmax_column(&self, i: usize) -> Option<&HopView> {
        self.hops.iter().max_by_key(|h| h.words[i])
    }

    /// The hop with the minimum value in column `i`.
    pub fn argmin_column(&self, i: usize) -> Option<&HopView> {
        self.hops.iter().min_by_key(|h| h.words[i])
    }

    /// Re-emit this sample into a trace sink as one
    /// [`TraceEventKind::HostHopRecord`] per hop, so host-decoded
    /// telemetry lands in the same stream as the switches' pipeline
    /// events (the way ndb consumes both). `t_ns` is the decode time and
    /// `seq` a caller-chosen sample number; `switch_id` is 0 — host
    /// events are not attributed to a switch.
    pub fn emit_trace(&self, sink: &mut dyn TraceSink, t_ns: u64, seq: u64) {
        for h in &self.hops {
            sink.record(TraceEvent {
                t_ns,
                switch_id: 0,
                seq,
                kind: TraceEventKind::HostHopRecord {
                    hop: h.hop as u32,
                    words: h.words.clone(),
                },
            });
        }
    }
}

/// Split an executed stack-mode TPP into per-hop records of
/// `words_per_hop` words — an owned copy of [`HopWords`], and `None`
/// exactly when [`HopWords::new`] rejects the packet.
pub fn split_hops<T: AsRef<[u8]>>(tpp: &TppPacket<T>, words_per_hop: usize) -> Option<PathSample> {
    let view = HopWords::new(tpp, words_per_hop)?;
    let hop_count = view.hop_count();
    let hops = (0..hop_count)
        .map(|hop| HopView {
            hop,
            words: (0..words_per_hop).map(|i| view.word(hop, i)).collect(),
        })
        .collect();
    Some(PathSample { hops, hop_count })
}

/// One-call receive path: if `frame` is an echoed TPP for `my_mac`,
/// decode it into per-hop records of `words_per_hop` words.
///
/// This is what a telemetry/rate-controller app calls in its
/// `on_frame`; anything that is not a well-formed echo of the expected
/// shape comes back as `None` and is simply not a sample.
pub fn decode_echo(
    frame: &[u8],
    my_mac: EthernetAddress,
    words_per_hop: usize,
) -> Option<PathSample> {
    let tpp = crate::probe::parse_echo(frame, my_mac)?;
    split_hops(&tpp, words_per_hop)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpp_wire::tpp::{AddressingMode, TppBuilder};

    fn executed_tpp(stack: &[u32], hop: u8, capacity_words: usize) -> Vec<u8> {
        let mut bytes = TppBuilder::new(AddressingMode::Stack)
            .instructions(&[0])
            .memory_words(capacity_words)
            .build();
        let mut tpp = TppPacket::new_checked(&mut bytes[..]).unwrap();
        for w in stack {
            tpp.push_word(*w).unwrap();
        }
        tpp.set_hop(hop);
        bytes
    }

    #[test]
    fn splits_into_hop_records() {
        // 2 words/hop over 3 hops: (id, queue) pairs.
        let bytes = executed_tpp(&[1, 10, 2, 20, 3, 30], 3, 8);
        let tpp = TppPacket::new_checked(&bytes[..]).unwrap();
        let sample = split_hops(&tpp, 2).unwrap();
        assert_eq!(sample.hop_count, 3);
        assert_eq!(
            sample.hops[1],
            HopView {
                hop: 1,
                words: vec![2, 20]
            }
        );
        assert_eq!(sample.column(1), vec![10, 20, 30]);
        assert_eq!(sample.argmax_column(1).unwrap().hop, 2);
        assert_eq!(sample.argmin_column(1).unwrap().words, vec![1, 10]);
    }

    #[test]
    fn hop_words_view_reads_what_split_hops_copies() {
        let bytes = executed_tpp(&[1, 10, 2, 20, 3, 30], 3, 8);
        let tpp = TppPacket::new_checked(&bytes[..]).unwrap();
        let view = HopWords::new(&tpp, 2).unwrap();
        let sample = split_hops(&tpp, 2).unwrap();
        assert_eq!(view.hop_count(), sample.hop_count);
        for h in &sample.hops {
            assert_eq!(h.words, [view.word(h.hop, 0), view.word(h.hop, 1)]);
        }
        // One validation rule: the view rejects what split_hops rejects.
        let partial = executed_tpp(&[1, 10, 2], 2, 8);
        let tpp = TppPacket::new_checked(&partial[..]).unwrap();
        assert!(HopWords::new(&tpp, 2).is_none());
        assert!(HopWords::new(&tpp, 0).is_none());
    }

    #[test]
    fn rejects_partial_hops() {
        let bytes = executed_tpp(&[1, 10, 2], 2, 8);
        let tpp = TppPacket::new_checked(&bytes[..]).unwrap();
        assert!(split_hops(&tpp, 2).is_none(), "stack not a multiple");
    }

    #[test]
    fn rejects_hop_counter_mismatch() {
        // 4 words at 2/hop = 2 hops, but counter says 3 (a fault skipped
        // pushes on some hop).
        let bytes = executed_tpp(&[1, 10, 2, 20], 3, 8);
        let tpp = TppPacket::new_checked(&bytes[..]).unwrap();
        assert!(split_hops(&tpp, 2).is_none());
    }

    #[test]
    fn rejects_zero_words_per_hop() {
        let bytes = executed_tpp(&[], 0, 4);
        let tpp = TppPacket::new_checked(&bytes[..]).unwrap();
        assert!(split_hops(&tpp, 0).is_none());
    }

    #[test]
    fn emits_one_host_event_per_hop() {
        use tpp_telemetry::VecSink;

        let bytes = executed_tpp(&[1, 10, 2, 20, 3, 30], 3, 8);
        let tpp = TppPacket::new_checked(&bytes[..]).unwrap();
        let sample = split_hops(&tpp, 2).unwrap();
        let mut sink = VecSink::default();
        sample.emit_trace(&mut sink, 5_000, 42);
        assert_eq!(sink.events.len(), 3);
        assert!(sink
            .events
            .iter()
            .all(|e| e.t_ns == 5_000 && e.seq == 42 && e.switch_id == 0));
        assert_eq!(
            sink.events[2].kind,
            TraceEventKind::HostHopRecord {
                hop: 2,
                words: vec![3, 30]
            }
        );
    }

    #[test]
    fn empty_path_is_valid() {
        let bytes = executed_tpp(&[], 0, 4);
        let tpp = TppPacket::new_checked(&bytes[..]).unwrap();
        let sample = split_hops(&tpp, 2).unwrap();
        assert_eq!(sample.hop_count, 0);
        assert!(sample.hops.is_empty());
        assert!(sample.argmax_column(0).is_none());
    }
}
