//! # tpp-asic — a model of the TPP-capable switch ASIC of §3
//!
//! This crate reproduces the dataplane pipeline of Figure 3 and the TCPU of
//! Figure 5 in software:
//!
//! ```text
//!            +--------+   +----------------+   +------+   +---------------+
//! RX PHY --> | Header |-->| L2 / L3 / TCAM |-->| TCPU |-->| Egress queues |--> TX PHY
//!            | Parser |   |   forwarding   |   |      |   |  + scheduler  |
//!            +--------+   +----------------+   +------+   +---------------+
//!                                                  |
//!                                      unified memory-mapped IO
//!                                (stats registers + SRAM, §3.2.1)
//! ```
//!
//! Faithfulness notes (per DESIGN.md's substitution table — the paper
//! prototyped on a Linux router, we model the ASIC it argues for):
//!
//! * the TCPU sits "just after the L2/L3/TCAM tables" (§3.3), so a TPP sees
//!   the forwarding decision (egress port/queue, matched entry) *and* the
//!   queue state of its own egress port at the instant it traverses the
//!   switch — exactly the per-packet visibility §2.1 relies on;
//! * the TCPU is a 5-stage RISC pipeline with a throughput of 1
//!   instruction/cycle and a latency of 4 cycles (§3.3); we account cycles
//!   per packet and enforce a configurable budget (default 300 cycles ≙
//!   the 300 ns cut-through latency of a 1 GHz ASIC);
//! * "Non-TPP packets are ignored by the TCPU", and TPPs "are forwarded
//!   just like other packets; TPPs are therefore subject to congestion";
//! * all packet modifications happen in local buffers and are committed
//!   before the packet is copied to switch memory — in the model, the TCPU
//!   mutates the frame bytes before the frame enters the egress queue;
//! * a faulting TPP (bad address, exhausted packet memory, cycle budget)
//!   stops executing but the packet is still forwarded — a corrupted
//!   program must never disrupt the traffic carrying it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod asic;
pub mod config;
pub mod interner;
pub mod memmap;
pub mod profile;
pub mod queue;
pub mod sram;
pub mod state;
pub mod stats;
pub mod tables;
pub mod tcpu;

pub use asic::{Asic, DropReason, Outcome, PacketMeta, PortId, QueueId};
pub use config::{AsicConfig, PortConfig, StripAction};
pub use interner::{DecodedProgram, ProgramInterner};
pub use memmap::{Mmu, MmuFault};
pub use profile::{PipelineProfile, ProfStage, ProfileConfig, Reservoir, Span, StageStat};
pub use queue::DropTailQueue;
pub use sram::{SramError, SramView, SramViewMut};
pub use state::{AsicState, PortState, QueueState};
pub use stats::{PortStats, QueueStats, SwitchRegs};
pub use tables::{FlowAction, FlowEntry, FlowKey, FlowMatch, L2Table, LpmTable, Tcam};
pub use tcpu::{ExecReport, HaltReason, Tcpu};
