//! # tpp-telemetry — structured tracing and metrics for the TPP pipeline
//!
//! The paper's premise is that dataplane visibility should be cheap and
//! programmable; the follow-up ("Millions of Little Minions", SIGCOMM
//! 2014) turns exactly this into a production visibility system. This
//! crate is the reproduction's own visibility layer: a zero-cost-when-
//! disabled event stream emitted by every stage of the `tpp-asic`
//! pipeline (parse → table lookup → TCPU → enqueue/drop → dequeue) and a
//! metrics registry `tpp-netsim` aggregates across switches on every
//! stats tick.
//!
//! Design:
//!
//! * [`TraceEvent`] — one typed record per pipeline stage transition,
//!   carrying switch id, packet sequence number, timestamps, queue depth
//!   and TCPU cycle accounting. The schema is documented field by field
//!   in DESIGN.md ("Observability").
//! * [`TraceSink`] — where events go. The dataplane calls
//!   [`TraceSink::record`] only when a sink is attached, so an untraced
//!   ASIC pays a single null-check per stage.
//! * [`RingBufferSink`] — the bounded default sink: keeps the most
//!   recent `capacity` events, counts what it sheds.
//! * [`SharedSink`] — a cheaply clonable handle letting one buffer
//!   collect events from many switches (shards record from worker
//!   threads, so this is an `Arc<Mutex<…>>`, and reads come back in a
//!   canonical `(t_ns, switch_id)` order).
//! * JSON-lines and CSV exporters ([`write_jsonl`], [`write_csv`]) —
//!   the formats `tpp-bench`'s `--trace out.jsonl` flags produce.
//! * [`MetricsRegistry`] — named counters and log₂-bucket histograms,
//!   merged across switches by `tpp-netsim::Simulator` on `tick`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod event;
pub mod metrics;
pub mod sink;

pub use event::{
    write_csv, write_jsonl, DropKind, LookupKind, Stage, TcpuOutcome, TraceEvent, TraceEventKind,
};
pub use metrics::{Histogram, MetricsRegistry, MetricsSnapshot};
pub use sink::{RingBufferSink, SharedSink, TraceSink, VecSink};

/// splitmix64 — the tiny, seedable, statistically solid 64-bit mixer
/// behind every deterministic draw in the workspace (traffic generation,
/// probe nonces, retransmit jitter); no external RNG dependency.
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    #[test]
    fn splitmix64_matches_the_reference_outputs() {
        // The reference splitmix64 (Steele, Lea & Flood 2014) at 0 and 1.
        assert_eq!(super::splitmix64(0), 0xe220_a839_7b1d_cdaf);
        assert_eq!(super::splitmix64(1), 0x910a_2dec_8902_5cc1);
    }
}
