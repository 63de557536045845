//! # tpp-spec — executable reference semantics for Tiny Packet Programs
//!
//! This crate is the *specification* half of the differential conformance
//! layer: a deliberately simple, allocation-happy, straight-line
//! interpreter for the full TPP ISA (every `tpp-isa` instruction), the
//! §3 unified memory map (statistics registers, boot-epoch, scratch
//! SRAM), the per-hop cycle budget, and the halt semantics.
//!
//! What it intentionally does **not** model:
//!
//! * the forwarding pipeline (parsing, lookup, queueing) — the harness
//!   feeds it the post-lookup state a TPP would observe;
//! * the hot-path caches of `tpp-asic` (program pin and interner, flow
//!   cache) — those are required to be semantically invisible, which is
//!   exactly what differential execution against this crate checks;
//! * cycle accounting beyond the §3.3 budget counter
//!   (`4 + instructions_executed`, one cycle per instruction on top of
//!   the 4-cycle pipeline latency).
//!
//! The design follows the golden-model methodology of Packet
//! Transactions and PsPIN: a small, obviously-correct executable
//! definition that the optimized engine (`tpp-asic`'s `Tcpu`) is tested
//! against bit-for-bit. Everything here favors clarity over speed —
//! owned `Vec`s instead of zero-copy views, fresh decoding of every
//! instruction word at every pc, one straight-line loop.
//!
//! The only dependency is `tpp-isa`: the instruction encoding and the
//! virtual address map are the shared contract; the packet layout and
//! the behavior of every register are restated here independently of
//! `tpp-wire` and `tpp-asic` so that a bug in either shows up as a
//! divergence instead of being replicated.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod exec;
pub mod packet;
pub mod state;

pub use exec::{execute, SpecHalt, SpecReport, SPEC_PIPELINE_LATENCY_CYCLES};
pub use packet::{SpecPacket, SpecParseError};
pub use state::{LinkBank, MetaBank, QueueBank, SpecFault, SpecState, SwitchBank};
