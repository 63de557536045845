//! The TCPU of §3.3: "a Reduced Instruction Set Computer (RISC) processor
//! that executes instructions in a five stage pipeline: (a) instruction
//! fetch, (b) instruction decode, (c) execute, (d) memory read and
//! (e) memory write."
//!
//! Cycle model: "With read/write/simple arithmetic instructions, each
//! stage takes only 1 cycle. Since instructions are pipelined, this RISC
//! processor runs at a throughput of 1 instruction per clock cycle, with a
//! latency of 4 cycles." A program of *n* instructions therefore occupies
//! the TCPU for `PIPELINE_LATENCY_CYCLES + n` cycles; [`Tcpu::execute`]
//! accounts these per packet and enforces the configured budget.
//!
//! Robustness: a TPP that faults (bad address, exhausted packet memory,
//! blown budget) stops executing *at that instruction*, but the packet is
//! still forwarded, its partial results intact — the dataplane must never
//! let a buggy program disturb the traffic carrying it. The fault is
//! reported in the [`ExecReport`] so end-hosts (and tests) can see it.

use std::sync::Arc;

use crate::interner::{DecodedProgram, ProgramInterner};
use crate::memmap::{Mmu, MmuFault};
use tpp_isa::{Instruction, PacketOperand};
use tpp_wire::tpp::{TppPacket, FLAG_EXECUTED, WORD_SIZE};
use tpp_wire::WireError;

/// Fill/drain latency of the 5-stage pipeline (4 pipeline registers
/// between the 5 stages; the paper quotes "a latency of 4 cycles").
pub const PIPELINE_LATENCY_CYCLES: u32 = 4;

/// Why execution stopped before the end of the program.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HaltReason {
    /// A `CEXEC` predicate failed: "all instructions that follow a failed
    /// CEXEC check will not be executed" (§3.2.3). This is normal control
    /// flow, not an error.
    CexecFailed {
        /// Index of the failing CEXEC.
        pc: usize,
    },
    /// The MMU rejected an access.
    Mmu {
        /// Index of the faulting instruction.
        pc: usize,
        /// The fault.
        fault: MmuFault,
    },
    /// A packet-memory access fell outside the preallocated region, or
    /// the stack under/overflowed.
    PacketMemory {
        /// Index of the faulting instruction.
        pc: usize,
    },
    /// An instruction word failed to decode.
    BadInstruction {
        /// Index of the undecodable word.
        pc: usize,
    },
    /// The per-packet cycle budget was exhausted (§3.3's line-rate
    /// argument: programs must fit the cut-through time budget).
    BudgetExceeded {
        /// Index of the first instruction that did not run.
        pc: usize,
    },
}

impl HaltReason {
    /// A stable short label for trace events and log lines.
    pub fn name(&self) -> &'static str {
        match self {
            HaltReason::CexecFailed { .. } => "cexec_failed",
            HaltReason::Mmu { .. } => "mmu_fault",
            HaltReason::PacketMemory { .. } => "packet_memory",
            HaltReason::BadInstruction { .. } => "bad_instruction",
            HaltReason::BudgetExceeded { .. } => "budget_exceeded",
        }
    }
}

/// The outcome of executing one TPP at one switch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecReport {
    /// Instructions that completed.
    pub instructions_executed: u32,
    /// Cycles consumed: pipeline latency + one per completed instruction.
    pub cycles: u32,
    /// Why execution stopped early, if it did.
    pub halt: Option<HaltReason>,
    /// True if any completed instruction wrote switch SRAM.
    pub wrote_switch: bool,
}

impl ExecReport {
    /// True when the whole program ran to completion.
    pub fn completed(&self) -> bool {
        self.halt.is_none()
    }
}

/// The TCPU execution engine. All per-packet state lives in the packet
/// and the [`Mmu`]; the engine itself carries only its configuration,
/// the interner it decodes through, and the (semantically invisible) pin
/// of the program it ran last.
#[derive(Debug, Clone)]
pub struct Tcpu {
    cycle_budget: u32,
    interner: ProgramInterner,
    /// The program that served the previous packet. A flow stamps the
    /// same bytes on every packet, so one byte compare against the pin
    /// usually replaces the interner lookup.
    pinned: Option<Arc<DecodedProgram>>,
    pin_hits: u64,
    pin_misses: u64,
}

impl Tcpu {
    /// A TCPU with the given per-packet cycle budget and an interner of
    /// its own.
    pub fn new(cycle_budget: u32) -> Self {
        Tcpu {
            cycle_budget,
            interner: ProgramInterner::new(),
            pinned: None,
            pin_hits: 0,
            pin_misses: 0,
        }
    }

    /// Decode through a shared (fleet-wide) program interner instead of
    /// this TCPU's own.
    pub fn set_interner(&mut self, interner: ProgramInterner) {
        self.interner = interner;
    }

    /// Forget the pin and zero the pin counters, as a reboot does. The
    /// interner stays: its decodes are a pure function of program bytes.
    pub fn reset(&mut self) {
        self.pinned = None;
        self.pin_hits = 0;
        self.pin_misses = 0;
    }

    /// The configured budget.
    pub fn cycle_budget(&self) -> u32 {
        self.cycle_budget
    }

    /// Approximate resident bytes of the TCPU's per-switch state
    /// (interned program bodies are accounted at the interner).
    pub fn approx_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
    }

    /// Pin `(hits, misses)`: packets whose program matched the previous
    /// packet's bytes vs. packets that went to the interner.
    pub fn pin_stats(&self) -> (u64, u64) {
        (self.pin_hits, self.pin_misses)
    }

    /// Execute a TPP in place: take its decoded program from the pin (or
    /// the interner), run it against the packet memory and the switch
    /// [`Mmu`], then advance the hop counter and set [`FLAG_EXECUTED`].
    ///
    /// The hop counter advances even after a fault or failed CEXEC, so
    /// hop-addressed slots keep lining up with the path ("a TPP executes
    /// at all TCPU-enabled ASICs it traverses", §3.2 — traversal, not
    /// success, advances the hop).
    pub fn execute(&mut self, tpp: &mut TppPacket<&mut [u8]>, mmu: &mut Mmu<'_>) -> ExecReport {
        let budget = self.cycle_budget;
        let mut report = ExecReport {
            instructions_executed: 0,
            cycles: PIPELINE_LATENCY_CYCLES,
            halt: None,
            wrote_switch: false,
        };

        let bytes = tpp.instruction_bytes();
        if matches!(&self.pinned, Some(p) if p.bytes() == bytes) {
            self.pin_hits += 1;
        } else {
            self.pin_misses += 1;
            self.pinned = Some(self.interner.intern(bytes));
        }
        let program = self.pinned.as_deref().expect("pinned above");
        // Per-packet decoding visits word positions 0..n, stopping at the
        // first undecodable word; replay exactly those positions, with the
        // budget check first at each pc, so halt interleaving is
        // bit-identical.
        let n = match program.bad_at {
            Some(bad) => bad + 1,
            None => program.insns.len(),
        };
        for pc in 0..n {
            if report.cycles + 1 > budget {
                report.halt = Some(HaltReason::BudgetExceeded { pc });
                break;
            }
            if program.bad_at == Some(pc) {
                report.halt = Some(HaltReason::BadInstruction { pc });
                break;
            }
            if !Self::run_insn(program.insns[pc], pc, tpp, mmu, &mut report) {
                break;
            }
        }

        tpp.advance_hop();
        let flags = tpp.flags();
        tpp.set_flags(flags | FLAG_EXECUTED);
        report
    }

    /// Step one decoded instruction and fold the result into `report`.
    /// Returns `false` when execution must stop.
    fn run_insn(
        insn: Instruction,
        pc: usize,
        tpp: &mut TppPacket<&mut [u8]>,
        mmu: &mut Mmu<'_>,
        report: &mut ExecReport,
    ) -> bool {
        match Self::step(insn, tpp, mmu) {
            Ok(wrote) => {
                report.instructions_executed += 1;
                report.cycles += 1;
                report.wrote_switch |= wrote;
                true
            }
            Err(StepHalt::Cexec) => {
                // The CEXEC itself counts as executed.
                report.instructions_executed += 1;
                report.cycles += 1;
                report.halt = Some(HaltReason::CexecFailed { pc });
                false
            }
            Err(StepHalt::Mmu(fault)) => {
                report.halt = Some(HaltReason::Mmu { pc, fault });
                false
            }
            Err(StepHalt::PacketMemory) => {
                report.halt = Some(HaltReason::PacketMemory { pc });
                false
            }
        }
    }

    /// Resolve a packet operand to a byte offset in packet memory.
    fn operand_offset(op: PacketOperand, tpp: &TppPacket<&mut [u8]>) -> usize {
        match op {
            PacketOperand::Sp => tpp.sp(),
            PacketOperand::Hop(words) => tpp.hop_base() + words as usize * WORD_SIZE,
            PacketOperand::Abs(words) => words as usize * WORD_SIZE,
        }
    }

    fn step(
        insn: Instruction,
        tpp: &mut TppPacket<&mut [u8]>,
        mmu: &mut Mmu<'_>,
    ) -> Result<bool, StepHalt> {
        match insn {
            Instruction::Nop => Ok(false),
            Instruction::Push { addr } => {
                let value = mmu.read(addr)?;
                tpp.push_word(value)?;
                Ok(false)
            }
            Instruction::PushImm(imm) => {
                tpp.push_word(imm as u32)?;
                Ok(false)
            }
            Instruction::Pop { addr } => {
                let value = tpp.pop_word()?;
                mmu.write(addr, value)?;
                Ok(true)
            }
            Instruction::Load { addr, dst } => {
                let value = mmu.read(addr)?;
                let off = Self::operand_offset(dst, tpp);
                tpp.write_word(off, value)?;
                Ok(false)
            }
            Instruction::Store { addr, src } => {
                let off = Self::operand_offset(src, tpp);
                let value = tpp.read_word(off)?;
                mmu.write(addr, value)?;
                Ok(true)
            }
            Instruction::Cstore { addr, mem } => {
                // CSTORE dst, cond, src: "stores src into dst only if
                // dst == cond" (§2.2); linearizable because the model
                // executes one packet at a time per switch, exactly like
                // the serialized dataplane pipeline.
                let base = Self::operand_offset(mem, tpp);
                let cond = tpp.read_word(base)?;
                let src = tpp.read_word(base + WORD_SIZE)?;
                let old = mmu.read(addr)?;
                if old == cond {
                    mmu.write(addr, src)?;
                }
                // Write the old value back so the end-host can tell
                // whether its update won.
                tpp.write_word(base + 2 * WORD_SIZE, old)?;
                Ok(old == cond)
            }
            Instruction::Cexec { addr, mem } => {
                // CEXEC reg, mask, value: "ensures the TPP executes on a
                // switch only if (reg & mask) == value" (§2.2).
                let base = Self::operand_offset(mem, tpp);
                let mask = tpp.read_word(base)?;
                let value = tpp.read_word(base + WORD_SIZE)?;
                let reg = mmu.read(addr)?;
                if reg & mask != value {
                    return Err(StepHalt::Cexec);
                }
                Ok(false)
            }
            Instruction::Add => Self::binop(tpp, u32::wrapping_add),
            Instruction::Sub => Self::binop(tpp, u32::wrapping_sub),
            Instruction::And => Self::binop(tpp, |a, b| a & b),
            Instruction::Or => Self::binop(tpp, |a, b| a | b),
        }
    }

    fn binop(tpp: &mut TppPacket<&mut [u8]>, f: fn(u32, u32) -> u32) -> Result<bool, StepHalt> {
        let b = tpp.pop_word()?;
        let a = tpp.pop_word()?;
        tpp.push_word(f(a, b))?;
        Ok(false)
    }
}

/// Internal step outcome.
enum StepHalt {
    Cexec,
    Mmu(MmuFault),
    PacketMemory,
}

impl From<MmuFault> for StepHalt {
    fn from(fault: MmuFault) -> Self {
        StepHalt::Mmu(fault)
    }
}

impl From<WireError> for StepHalt {
    fn from(_: WireError) -> Self {
        StepHalt::PacketMemory
    }
}

/// Convenience used by tests and benches: the cycles a program of `n`
/// instructions costs on the TCPU.
pub fn cycles_for(n: u32) -> u32 {
    PIPELINE_LATENCY_CYCLES + n
}

#[cfg(test)]
#[allow(clippy::drop_non_drop, clippy::field_reassign_with_default)] // drop() ends Mmu borrows between executions
mod tests {
    use super::*;
    use crate::memmap::PacketMeta;
    use crate::stats::{PortStats, QueueStats, SwitchRegs};
    use tpp_isa::assemble;
    use tpp_wire::tpp::{AddressingMode, TppBuilder};

    struct Banks {
        switch: SwitchRegs,
        port: PortStats,
        queue: QueueStats,
        meta: PacketMeta,
        link_sram: Vec<u32>,
        global_sram: Vec<u32>,
    }

    fn banks(switch_id: u32) -> Banks {
        let mut queue = QueueStats::default();
        queue.queue_size_bytes = 0xa0;
        Banks {
            switch: SwitchRegs::new(switch_id),
            port: PortStats::default(),
            queue,
            meta: PacketMeta {
                input_port: 1,
                output_port: 2,
                matched_entry_id: 0,
                matched_entry_version: 0,
                queue_id: 0,
                packet_length: 100,
                arrival_time_ns: 0,
                alternate_routes: 1,
            },
            link_sram: vec![0; 64],
            global_sram: vec![0; 64],
        }
    }

    fn mmu(b: &mut Banks) -> Mmu<'_> {
        Mmu {
            switch: &b.switch,
            port: &b.port,
            port_capacity_kbps: 10_000,
            queue: &b.queue,
            queue_limit_bytes: 64_000,
            meta: &b.meta,
            link_sram: &mut b.link_sram,
            global_sram: &mut b.global_sram,
        }
    }

    fn run(src: &str, mem_words: usize, b: &mut Banks) -> (Vec<u32>, ExecReport) {
        run_init(src, &vec![0; mem_words], b)
    }

    fn run_init(src: &str, mem: &[u32], b: &mut Banks) -> (Vec<u32>, ExecReport) {
        let program = assemble(src).unwrap();
        let mut bytes = TppBuilder::new(AddressingMode::Stack)
            .instructions(&program.encode_words().unwrap())
            .memory_init(mem)
            .build();
        let mut tpp = TppPacket::new_checked(&mut bytes[..]).unwrap();
        let mut tcpu = Tcpu::new(300);
        let mut m = mmu(b);
        let report = tcpu.execute(&mut tpp, &mut m);
        (tpp.memory_words(), report)
    }

    #[test]
    fn push_reads_queue_size() {
        // §2.1: "PUSH [Queue:QueueSize] copies the queue register onto
        // packet memory".
        let mut b = banks(1);
        let (mem, report) = run("PUSH [Queue:QueueSize]", 2, &mut b);
        assert_eq!(mem[0], 0xa0);
        assert!(report.completed());
        assert_eq!(report.instructions_executed, 1);
        assert_eq!(report.cycles, cycles_for(1));
        assert!(!report.wrote_switch);
    }

    #[test]
    fn load_hop_addressing() {
        let mut b = banks(0x77);
        let program = assemble("LOAD [Switch:SwitchID], [Packet:Hop[1]]").unwrap();
        let mut bytes = TppBuilder::new(AddressingMode::Hop)
            .instructions(&program.encode_words().unwrap())
            .memory_words(8)
            .per_hop_words(2)
            .build();
        let mut tpp = TppPacket::new_checked(&mut bytes[..]).unwrap();
        let mut tcpu = Tcpu::new(300);
        // First hop writes slot 1 of hop 0; simulate second execution too.
        let mut m = mmu(&mut b);
        tcpu.execute(&mut tpp, &mut m);
        drop(m);
        let mut b2 = banks(0x88);
        let mut m2 = mmu(&mut b2);
        tcpu.execute(&mut tpp, &mut m2);
        drop(m2);
        let mem = tpp.memory_words();
        assert_eq!(mem[1], 0x77, "hop 0, offset 1");
        assert_eq!(mem[3], 0x88, "hop 1, offset 1");
        assert_eq!(tpp.hop(), 2);
    }

    #[test]
    fn store_and_pop_write_sram() {
        let mut b = banks(1);
        let (_, report) = run_init(
            "STORE [Switch:Scratch[5]], [Packet:0]",
            &[0xfeed_f00d],
            &mut b,
        );
        assert!(report.completed());
        assert!(report.wrote_switch);
        assert_eq!(b.global_sram[5], 0xfeed_f00d);

        let mut b = banks(1);
        let (_, report) = run_init("POP [Link:Scratch[3]]", &[77], &mut b);
        // POP with sp=0 underflows; first push something.
        assert!(!report.completed());
        let mut b = banks(1);
        let (_, report) = run_init("PUSHI 99\nPOP [Link:Scratch[3]]", &[0, 0], &mut b);
        assert!(report.completed());
        assert_eq!(b.link_sram[3], 99);
    }

    #[test]
    fn cstore_success_and_failure() {
        // CSTORE dst, cond, src with [cond, src, old] at Packet:0.
        let mut b = banks(1);
        b.global_sram[0] = 10;
        // cond = 10 matches -> store 55, old (10) written to mem[2].
        let (mem, report) = run_init(
            "CSTORE [Switch:Scratch[0]], [Packet:0]",
            &[10, 55, 0],
            &mut b,
        );
        assert!(report.completed());
        assert!(report.wrote_switch);
        assert_eq!(b.global_sram[0], 55);
        assert_eq!(mem[2], 10);

        // cond = 10 no longer matches -> no store, old (55) reported.
        let (mem, report) = run_init(
            "CSTORE [Switch:Scratch[0]], [Packet:0]",
            &[10, 77, 0],
            &mut b,
        );
        assert!(report.completed());
        assert!(!report.wrote_switch, "failed CSTORE writes nothing");
        assert_eq!(b.global_sram[0], 55, "value unchanged");
        assert_eq!(mem[2], 55, "old value reported for retry");
    }

    #[test]
    fn cexec_gates_following_instructions() {
        // §2.2 Phase 3: execute only on the switch whose ID matches.
        let mut b = banks(0xb0b);
        // mask = 0xffffffff, value = 0xb0b -> matches, STORE runs.
        let (_, report) = run_init(
            "CEXEC [Switch:SwitchID], [Packet:0]\nSTORE [Switch:Scratch[1]], [Packet:2]",
            &[0xffff_ffff, 0xb0b, 1234],
            &mut b,
        );
        assert!(report.completed());
        assert_eq!(b.global_sram[1], 1234);

        // Different target switch -> STORE must not run.
        let mut b = banks(0xec0);
        let (_, report) = run_init(
            "CEXEC [Switch:SwitchID], [Packet:0]\nSTORE [Switch:Scratch[1]], [Packet:2]",
            &[0xffff_ffff, 0xb0b, 1234],
            &mut b,
        );
        assert_eq!(report.halt, Some(HaltReason::CexecFailed { pc: 0 }));
        assert_eq!(report.instructions_executed, 1, "the CEXEC itself ran");
        assert_eq!(b.global_sram[1], 0, "gated store did not run");
    }

    #[test]
    fn cexec_mask_selects_switch_subsets() {
        // Execute on "all switches whose low nibble is 2" — the §3.2.3
        // use case of targeting a subset (e.g. all ToR switches).
        for (id, should_run) in [(0x12, true), (0x22, true), (0x13, false)] {
            let mut b = banks(id);
            let (_, report) = run_init(
                "CEXEC [Switch:SwitchID], [Packet:0]\nSTORE [Switch:Scratch[0]], [Packet:2]",
                &[0xf, 0x2, 7],
                &mut b,
            );
            assert_eq!(
                b.global_sram[0] == 7,
                should_run,
                "switch {id:#x} gating wrong"
            );
            assert_eq!(report.completed(), should_run);
        }
    }

    #[test]
    fn arithmetic_on_stack() {
        let mut b = banks(1);
        let (mem, report) = run("PUSHI 7\nPUSHI 5\nSUB", 4, &mut b);
        assert!(report.completed());
        assert_eq!(mem[0], 2, "7 - 5");
        let (mem, _) = run("PUSHI 6\nPUSHI 3\nADD", 4, &mut b);
        assert_eq!(mem[0], 9);
        let (mem, _) = run("PUSHI 12\nPUSHI 10\nAND", 4, &mut b);
        assert_eq!(mem[0], 8);
        let (mem, _) = run("PUSHI 12\nPUSHI 3\nOR", 4, &mut b);
        assert_eq!(mem[0], 15);
    }

    #[test]
    fn faults_stop_but_do_not_destroy() {
        // Writing a read-only stat faults at pc 1; the first push stays.
        let mut b = banks(1);
        let (mem, report) = run("PUSHI 42\nPOP [Queue:QueueSize]\nPUSHI 7", 4, &mut b);
        match report.halt {
            Some(HaltReason::Mmu {
                pc: 1,
                fault: MmuFault::ReadOnly(_),
            }) => {}
            other => panic!("unexpected halt {other:?}"),
        }
        assert_eq!(report.instructions_executed, 1);
        assert_eq!(mem[0], 42, "partial results preserved");
    }

    #[test]
    fn packet_memory_exhaustion_faults() {
        let mut b = banks(1);
        let (_, report) = run("PUSHI 1\nPUSHI 2\nPUSHI 3", 2, &mut b);
        assert_eq!(report.halt, Some(HaltReason::PacketMemory { pc: 2 }));
        assert_eq!(report.instructions_executed, 2);
    }

    #[test]
    fn budget_exceeded_halts() {
        let mut b = banks(1);
        let program = assemble(&"NOP\n".repeat(10)).unwrap();
        let mut bytes = TppBuilder::new(AddressingMode::Stack)
            .instructions(&program.encode_words().unwrap())
            .memory_words(0)
            .build();
        let mut tpp = TppPacket::new_checked(&mut bytes[..]).unwrap();
        // Budget of 7 cycles = 4 latency + 3 instructions.
        let mut tcpu = Tcpu::new(7);
        let mut m = mmu(&mut b);
        let report = tcpu.execute(&mut tpp, &mut m);
        assert_eq!(report.instructions_executed, 3);
        assert_eq!(report.halt, Some(HaltReason::BudgetExceeded { pc: 3 }));
    }

    #[test]
    fn five_instruction_program_fits_default_budget() {
        // §3.3: a 5-instruction TPP costs 9 cycles, well within the 300
        // cycle cut-through budget of a 1 GHz ASIC.
        assert!(cycles_for(5) <= 300);
        assert_eq!(cycles_for(5), 9);
    }

    #[test]
    fn hop_advances_even_on_fault() {
        let mut b = banks(1);
        let program = assemble("POP [Switch:Scratch[0]]").unwrap(); // underflow
        let mut bytes = TppBuilder::new(AddressingMode::Stack)
            .instructions(&program.encode_words().unwrap())
            .memory_words(1)
            .build();
        let mut tpp = TppPacket::new_checked(&mut bytes[..]).unwrap();
        let mut tcpu = Tcpu::new(300);
        let mut m = mmu(&mut b);
        let report = tcpu.execute(&mut tpp, &mut m);
        assert!(!report.completed());
        assert_eq!(tpp.hop(), 1, "hop advances on traversal, not success");
        assert_ne!(tpp.flags() & FLAG_EXECUTED, 0);
    }

    /// Execute raw instruction words (decodable or not) on `tcpu`.
    fn exec_words(tcpu: &mut Tcpu, words: &[u32], b: &mut Banks) -> ExecReport {
        let mut bytes = TppBuilder::new(AddressingMode::Stack)
            .instructions(words)
            .memory_words(4)
            .build();
        let mut tpp = TppPacket::new_checked(&mut bytes[..]).unwrap();
        let mut m = mmu(b);
        tcpu.execute(&mut tpp, &mut m)
    }

    #[test]
    fn pin_counts_runs_of_the_same_program() {
        let mut b = banks(1);
        let mut tcpu = Tcpu::new(300);
        let a = [0x6000_0001]; // PUSHI 1
        let other = [0x6000_0002]; // PUSHI 2
        for words in [&a, &a, &other, &a] {
            assert!(exec_words(&mut tcpu, words, &mut b).completed());
        }
        assert_eq!(tcpu.pin_stats(), (1, 3), "A, A, B, A: one hit");
        assert_eq!(tcpu.interner.stats(), (1, 2), "A's return is shared");
    }

    #[test]
    fn pinned_bad_word_halts_at_the_same_pc() {
        let mut b = banks(1);
        let mut tcpu = Tcpu::new(300);
        // NOP, an undefined opcode, then a NOP that must never run.
        let words = [0x0000_0000, 0xf800_0000, 0x0000_0000];
        let fresh = exec_words(&mut tcpu, &words, &mut b);
        let pinned = exec_words(&mut tcpu, &words, &mut b);
        assert_eq!(tcpu.pin_stats(), (1, 1));
        assert_eq!(fresh.halt, Some(HaltReason::BadInstruction { pc: 1 }));
        assert_eq!(pinned, fresh);
        assert_eq!(pinned.instructions_executed, 1);
    }

    #[test]
    fn tcpus_sharing_an_interner_share_one_decode() {
        let interner = ProgramInterner::new();
        let (mut x, mut y) = (Tcpu::new(300), Tcpu::new(300));
        x.set_interner(interner.clone());
        y.set_interner(interner.clone());
        let words = [0x0000_0000, 0x6000_0007]; // NOP, PUSHI 7
        exec_words(&mut x, &words, &mut banks(1));
        exec_words(&mut y, &words, &mut banks(2));
        let (px, py) = (x.pinned.as_ref().unwrap(), y.pinned.as_ref().unwrap());
        assert!(Arc::ptr_eq(px, py), "both switches run one decode");
        assert_eq!(interner.stats(), (1, 1));
        assert_eq!((x.pin_stats(), y.pin_stats()), ((0, 1), (0, 1)));
    }
}
