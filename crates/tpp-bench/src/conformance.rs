//! Differential conformance harness: `tpp-asic` vs `tpp-spec`.
//!
//! One [`ConformanceCase`] describes everything about a run — the TPP
//! section (possibly deliberately corrupted), the ASIC provisioning, and
//! adversarial initial register/SRAM state. [`run_case`] then executes
//! the case three ways in lock step:
//!
//! 1. the optimized ASIC with the flow cache **on**,
//! 2. the same ASIC with the flow cache **off**
//!    ([`AsicConfig::without_flow_cache`]),
//! 3. the allocation-happy reference semantics in `tpp-spec`,
//!
//! and demands bit-identical observable behavior: outcome, forwarded
//! packet bytes at every hop, execution report (instructions, cycles,
//! halt reason and pc, fault), and the complete final register/SRAM
//! state. Any mismatch is a *divergence* — a conformance bug in one of
//! the three implementations.
//!
//! [`gen_case`] draws arbitrary-but-encodable cases from a deterministic
//! stream, [`minimize`] greedily shrinks a diverging case to a small
//! replayable witness, and the JSON helpers serialize cases to
//! `tests/corpus/` where they are replayed forever as golden regression
//! tests (see `tests/conformance_corpus.rs` and the `conformance` bin).

use tpp_asic::{
    Asic, AsicConfig, AsicState, DropReason, ExecReport, HaltReason, Outcome, PortState, PortStats,
    QueueState, QueueStats, SwitchRegs,
};
use tpp_isa::{Instruction, Opcode, PacketOperand, Stat, VirtAddr};
use tpp_spec::{
    execute, LinkBank, MetaBank, QueueBank, SpecPacket, SpecReport, SpecState, SwitchBank,
};
use tpp_wire::ethernet::{build_frame, EtherType, ETHERNET_HEADER_LEN};
use tpp_wire::tpp::{TppPacket, FLAG_ECHOED};
use tpp_wire::EthernetAddress;

use proptest::test_runner::TestRng;

/// Ingress port every case injects on.
pub const INGRESS_PORT: u16 = 0;
/// Egress port the single L2 route points at.
pub const EGRESS_PORT: u16 = 1;
/// Ports provisioned on the harness ASICs.
pub const NUM_PORTS: usize = 4;
/// Default egress-queue byte limit (matches `AsicConfig::with_ports`).
pub const DEFAULT_QUEUE_LIMIT: u32 = 512 * 1024;
/// Link capacity the spec mirrors from the default port config.
pub const CAPACITY_KBPS: u32 = 10_000_000;

// ---------------------------------------------------------------------------
// Case description
// ---------------------------------------------------------------------------

/// Adversarial initial values for the global switch registers.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SwitchSeed {
    /// `Switch:FlowTableVersion`.
    pub flow_table_version: u32,
    /// `Switch:L2TableHits`.
    pub l2_hits: u64,
    /// `Switch:L3TableHits`.
    pub l3_hits: u64,
    /// `Switch:TCAMHits`.
    pub tcam_hits: u64,
    /// `Switch:PacketsProcessed` (may exceed 32 bits to exercise the
    /// wrapping low-32 read).
    pub packets_processed: u64,
    /// `Switch:TPPsExecuted`.
    pub tpps_executed: u64,
    /// `Switch:BootEpoch`.
    pub boot_epoch: u32,
}

/// Adversarial initial values for the egress port's link registers.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LinkSeed {
    /// `Link:RX-Bytes`.
    pub rx_bytes: u64,
    /// `Link:TX-Bytes`.
    pub tx_bytes: u64,
    /// `Link:RX-Packets`.
    pub rx_packets: u64,
    /// `Link:TX-Packets`.
    pub tx_packets: u64,
    /// `Link:BytesDropped`.
    pub bytes_dropped: u64,
    /// `Link:BytesEnqueued`.
    pub bytes_enqueued: u64,
    /// `Link:EcnMarked`.
    pub ecn_marked: u64,
    /// `Link:SnrDeciBel`.
    pub snr_decidb: u32,
    /// `Link:RX-Utilization` (permille).
    pub rx_utilization_permille: u32,
    /// `Link:TX-Utilization` (permille).
    pub tx_utilization_permille: u32,
}

/// Adversarial initial values for the egress queue's registers.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct QueueSeed {
    /// `Queue:QueueSize` — pre-existing occupancy the drop-tail check
    /// sees (the harness models it as registers only, no resident
    /// frames, so the net occupancy change across one hop is zero).
    pub queue_size_bytes: u64,
    /// `Queue:BytesEnqueued`.
    pub bytes_enqueued: u64,
    /// `Queue:BytesDropped`.
    pub bytes_dropped: u64,
    /// `Queue:PacketsEnqueued`.
    pub packets_enqueued: u64,
    /// `Queue:PacketsDropped`.
    pub packets_dropped: u64,
    /// `Queue:HighWatermark`.
    pub high_watermark_bytes: u64,
}

/// One self-contained conformance scenario: TPP bytes + provisioning +
/// initial state + number of hops to simulate. Serializable to JSON so a
/// diverging case becomes a committed regression witness.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConformanceCase {
    /// Human-readable case name (directed cases) or `seed-N` (fuzz).
    pub name: String,
    /// `Switch:SwitchID` of the harness switch.
    pub switch_id: u32,
    /// TCPU cycle budget.
    pub budget: u32,
    /// How many times the frame is re-injected (hops simulated).
    pub rounds: u32,
    /// Egress queue byte limit.
    pub queue_limit_bytes: u32,
    /// Wall-clock time of the first round; advances 1 µs per round.
    pub now0_ns: u64,
    /// TPP addressing-mode byte (0 stack, 1 hop; other values must be
    /// rejected identically by both parsers).
    pub mode: u8,
    /// Initial hop counter.
    pub hop0: u8,
    /// Initial stack pointer (byte offset into packet memory).
    pub sp0: u16,
    /// Initial TPP flag byte (e.g. [`FLAG_ECHOED`] for inert packets).
    pub flags0: u8,
    /// Per-hop slice length in words (hop addressing).
    pub per_hop_words: u16,
    /// Raw instruction words (not necessarily decodable — that is the
    /// point).
    pub insns: Vec<u32>,
    /// Initial packet-memory words.
    pub memory: Vec<u32>,
    /// Initial per-port link SRAM image (defines the provisioned size).
    pub link_sram: Vec<u32>,
    /// Initial global SRAM image (defines the provisioned size).
    pub global_sram: Vec<u32>,
    /// Initial switch registers.
    pub switch_seed: SwitchSeed,
    /// Initial egress-link registers.
    pub link_seed: LinkSeed,
    /// Initial egress-queue registers.
    pub queue_seed: QueueSeed,
    /// Optional byte-level corruption of the emitted TPP section:
    /// `(index mod section length, xor mask)`.
    pub corrupt: Option<(usize, u8)>,
}

impl Default for ConformanceCase {
    fn default() -> Self {
        ConformanceCase {
            name: "default".to_string(),
            switch_id: 7,
            budget: 300,
            rounds: 1,
            queue_limit_bytes: DEFAULT_QUEUE_LIMIT,
            now0_ns: 1_000,
            mode: 0,
            hop0: 0,
            sp0: 0,
            flags0: 0,
            per_hop_words: 0,
            insns: Vec::new(),
            memory: Vec::new(),
            link_sram: vec![0; 8],
            global_sram: vec![0; 8],
            switch_seed: SwitchSeed::default(),
            link_seed: LinkSeed::default(),
            queue_seed: QueueSeed::default(),
            corrupt: None,
        }
    }
}

impl ConformanceCase {
    /// The TPP section bytes this case injects (header + instructions +
    /// memory, with the optional corruption applied).
    pub fn tpp_section(&self) -> Vec<u8> {
        let pkt = SpecPacket {
            version: 1,
            flags: self.flags0,
            mode: self.mode,
            hop: self.hop0,
            sp: self.sp0,
            per_hop_len: self.per_hop_words.wrapping_mul(4),
            inner_ethertype: 0,
            insns: self.insns.clone(),
            memory: self.memory.clone(),
            payload: Vec::new(),
        };
        let mut bytes = pkt.emit();
        if let Some((idx, xor)) = self.corrupt {
            let n = bytes.len();
            bytes[idx % n] ^= xor;
        }
        bytes
    }

    /// The full Ethernet frame (routed to [`EGRESS_PORT`] via L2).
    pub fn frame(&self) -> Vec<u8> {
        build_frame(
            EthernetAddress::from_host_id(1),
            EthernetAddress::from_host_id(9),
            EtherType::TPP,
            &self.tpp_section(),
        )
    }

    /// The harness switch's configuration: budget and SRAM sizes from
    /// the case, [`NUM_PORTS`] ports at the case's queue limit.
    pub fn asic_config(&self) -> AsicConfig {
        let mut cfg = AsicConfig::with_ports(self.switch_id, NUM_PORTS);
        cfg.tcpu_cycle_budget = self.budget;
        cfg.global_sram_words = self.global_sram.len();
        cfg.link_sram_words = self.link_sram.len();
        cfg.queue_limit_bytes(self.queue_limit_bytes)
    }

    /// An ASIC built from `config`, routed (host 1 → [`EGRESS_PORT`]) and
    /// restored to the case's initial state.
    pub fn harness_asic(&self, config: AsicConfig) -> Asic {
        let mut asic = Asic::new(config);
        asic.l2_mut()
            .insert(EthernetAddress::from_host_id(1), EGRESS_PORT);
        asic.restore(&self.initial_asic_state());
        asic
    }

    /// The initial ASIC-side state image restored into both engines.
    #[allow(clippy::field_reassign_with_default)]
    fn initial_asic_state(&self) -> AsicState {
        let mut regs = SwitchRegs::new(self.switch_id);
        regs.flow_table_version = self.switch_seed.flow_table_version;
        regs.l2_hits = self.switch_seed.l2_hits;
        regs.l3_hits = self.switch_seed.l3_hits;
        regs.tcam_hits = self.switch_seed.tcam_hits;
        regs.packets_processed = self.switch_seed.packets_processed;
        regs.tpps_executed = self.switch_seed.tpps_executed;
        regs.boot_epoch = self.switch_seed.boot_epoch;

        let blank_queue = || QueueState {
            stats: QueueStats::default(),
            frames: Vec::new(),
            limit_bytes: self.queue_limit_bytes,
        };
        let mut ports: Vec<PortState> = (0..NUM_PORTS)
            .map(|_| PortState {
                stats: PortStats::default(),
                link_sram: vec![0; self.link_sram.len()],
                queues: vec![blank_queue()],
            })
            .collect();

        let egress = &mut ports[EGRESS_PORT as usize];
        let mut stats = PortStats::default();
        stats.rx_bytes = self.link_seed.rx_bytes;
        stats.tx_bytes = self.link_seed.tx_bytes;
        stats.rx_packets = self.link_seed.rx_packets;
        stats.tx_packets = self.link_seed.tx_packets;
        stats.bytes_dropped = self.link_seed.bytes_dropped;
        stats.bytes_enqueued = self.link_seed.bytes_enqueued;
        stats.ecn_marked = self.link_seed.ecn_marked;
        stats.snr_decidb = self.link_seed.snr_decidb;
        stats.rx_utilization_permille = self.link_seed.rx_utilization_permille;
        stats.tx_utilization_permille = self.link_seed.tx_utilization_permille;
        egress.stats = stats;
        egress.link_sram = self.link_sram.clone();
        let q = &mut egress.queues[0];
        q.stats.queue_size_bytes = self.queue_seed.queue_size_bytes;
        q.stats.bytes_enqueued = self.queue_seed.bytes_enqueued;
        q.stats.bytes_dropped = self.queue_seed.bytes_dropped;
        q.stats.packets_enqueued = self.queue_seed.packets_enqueued;
        q.stats.packets_dropped = self.queue_seed.packets_dropped;
        q.stats.high_watermark_bytes = self.queue_seed.high_watermark_bytes;

        AsicState {
            regs,
            global_sram: self.global_sram.clone(),
            ports,
        }
    }

    /// The equivalent initial state for the reference interpreter.
    pub fn initial_spec_state(&self) -> SpecState {
        SpecState {
            switch: SwitchBank {
                switch_id: self.switch_id,
                flow_table_version: self.switch_seed.flow_table_version,
                l2_hits: self.switch_seed.l2_hits,
                l3_hits: self.switch_seed.l3_hits,
                tcam_hits: self.switch_seed.tcam_hits,
                packets_processed: self.switch_seed.packets_processed,
                tpps_executed: self.switch_seed.tpps_executed,
                wall_clock_ns: 0,
                boot_epoch: self.switch_seed.boot_epoch,
            },
            link: LinkBank {
                rx_bytes: self.link_seed.rx_bytes,
                tx_bytes: self.link_seed.tx_bytes,
                rx_utilization_permille: self.link_seed.rx_utilization_permille,
                tx_utilization_permille: self.link_seed.tx_utilization_permille,
                bytes_dropped: self.link_seed.bytes_dropped,
                bytes_enqueued: self.link_seed.bytes_enqueued,
                rx_packets: self.link_seed.rx_packets,
                tx_packets: self.link_seed.tx_packets,
                capacity_kbps: CAPACITY_KBPS,
                ecn_marked: self.link_seed.ecn_marked,
                snr_decidb: self.link_seed.snr_decidb,
            },
            queue: QueueBank {
                queue_size_bytes: self.queue_seed.queue_size_bytes,
                bytes_enqueued: self.queue_seed.bytes_enqueued,
                bytes_dropped: self.queue_seed.bytes_dropped,
                packets_enqueued: self.queue_seed.packets_enqueued,
                packets_dropped: self.queue_seed.packets_dropped,
                high_watermark_bytes: self.queue_seed.high_watermark_bytes,
                limit_bytes: self.queue_limit_bytes,
            },
            meta: MetaBank::default(),
            link_sram: self.link_sram.clone(),
            global_sram: self.global_sram.clone(),
        }
    }
}

// ---------------------------------------------------------------------------
// Differential engine
// ---------------------------------------------------------------------------

/// What a conforming run looked like (for reporting/statistics).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CaseSummary {
    /// Rounds actually simulated (≤ `case.rounds`; a queue-full drop
    /// ends the walk early).
    pub rounds_run: u32,
    /// Rounds in which the TCPU actually executed the TPP.
    pub tpp_executed_rounds: u32,
    /// True when the walk ended in a queue-full drop.
    pub dropped: bool,
}

/// Run one case through both ASIC configurations and the reference
/// semantics. `Ok` means full agreement; `Err` carries a human-readable
/// description of the first divergence.
pub fn run_case(case: &ConformanceCase) -> Result<CaseSummary, String> {
    let mut cached = case.harness_asic(case.asic_config());
    let mut uncached = case.harness_asic(case.asic_config().without_flow_cache());
    let mut spec = case.initial_spec_state();

    let mut frame = case.frame();
    let mut summary = CaseSummary::default();
    for round in 0..case.rounds {
        let now = case.now0_ns + round as u64 * 1_000;
        let out_a = cached.handle_frame(frame.clone(), INGRESS_PORT, now);
        let out_b = uncached.handle_frame(frame.clone(), INGRESS_PORT, now);
        if out_a != out_b {
            return Err(format!(
                "round {round}: cached/uncached outcome diverged:\n  \
                 cached:   {out_a:?}\n  uncached: {out_b:?}"
            ));
        }
        let (spec_frame, spec_report) = spec_round(&mut spec, &frame, now, case.budget);
        summary.rounds_run += 1;
        match out_a {
            Outcome::Enqueued { port, queue, exec } => {
                if (port, queue) != (EGRESS_PORT, 0) {
                    return Err(format!(
                        "round {round}: frame routed to port {port} queue {queue}, \
                         expected ({EGRESS_PORT}, 0)"
                    ));
                }
                let expect = spec_frame.ok_or_else(|| {
                    format!("round {round}: spec predicted queue-full drop, ASIC enqueued")
                })?;
                compare_exec(round, exec.as_ref(), spec_report.as_ref())?;
                if exec.is_some() {
                    summary.tpp_executed_rounds += 1;
                }
                let fa = cached
                    .dequeue(EGRESS_PORT)
                    .ok_or_else(|| format!("round {round}: cached enqueued but dequeue empty"))?;
                let fb = uncached
                    .dequeue(EGRESS_PORT)
                    .ok_or_else(|| format!("round {round}: uncached enqueued but dequeue empty"))?;
                if fa != fb {
                    return Err(format!(
                        "round {round}: forwarded bytes diverged cached vs uncached:\n{}",
                        diff_bytes(&fa, &fb)
                    ));
                }
                if fa != expect {
                    return Err(format!(
                        "round {round}: forwarded bytes diverged asic vs spec:\n{}",
                        diff_bytes(&fa, &expect)
                    ));
                }
                frame = fa;
            }
            Outcome::Dropped {
                reason: DropReason::QueueFull { .. },
            } => {
                if spec_frame.is_some() {
                    return Err(format!(
                        "round {round}: ASIC dropped (queue full), spec predicted enqueue"
                    ));
                }
                if spec_report.is_some() {
                    summary.tpp_executed_rounds += 1;
                }
                summary.dropped = true;
                break;
            }
            other => {
                return Err(format!("round {round}: unexpected outcome {other:?}"));
            }
        }
    }

    let snap_a = cached.snapshot();
    let snap_b = uncached.snapshot();
    if snap_a != snap_b {
        return Err(format!(
            "final state diverged cached vs uncached:\n  cached:   {snap_a:?}\n  \
             uncached: {snap_b:?}"
        ));
    }
    compare_final(&snap_a, &spec)?;
    Ok(summary)
}

/// The reference semantics of one switch traversal: the §3 pipeline as
/// restated bookkeeping (lookup registers, metadata, enqueue/dequeue
/// accounting) around the `tpp-spec` interpreter. Returns the forwarded
/// frame (`None` on a queue-full drop) and the execution report (`None`
/// when the TCPU did not run: echoed or malformed TPP).
pub fn spec_round(
    spec: &mut SpecState,
    frame: &[u8],
    now_ns: u64,
    budget: u32,
) -> (Option<Vec<u8>>, Option<SpecReport>) {
    spec.switch.wall_clock_ns = now_ns;
    spec.switch.packets_processed += 1;
    spec.switch.l2_hits += 1;
    spec.meta = MetaBank {
        input_port: INGRESS_PORT as u32,
        output_port: EGRESS_PORT as u32,
        matched_entry_id: 0,
        matched_entry_version: 0,
        queue_id: 0,
        packet_length: frame.len() as u32,
        arrival_time_ns: now_ns,
        alternate_routes: 1,
    };
    let mut out = frame.to_vec();
    let mut report = None;
    match SpecPacket::parse(&frame[ETHERNET_HEADER_LEN..]) {
        // An echoed TPP is inert: forwarded unchanged, not executed,
        // not counted.
        Ok(pkt) if pkt.flags & FLAG_ECHOED != 0 => {}
        Ok(mut pkt) => {
            let r = execute(&mut pkt, spec, budget);
            spec.switch.tpps_executed += 1;
            out[ETHERNET_HEADER_LEN..].copy_from_slice(&pkt.emit());
            report = Some(r);
        }
        // A malformed TPP section is forwarded untouched.
        Err(_) => {}
    }
    let len = out.len() as u64;
    spec.link.rx_bytes += len;
    spec.link.rx_packets += 1;
    let accepted = spec.queue.queue_size_bytes + len <= spec.queue.limit_bytes as u64;
    if accepted {
        spec.queue.queue_size_bytes += len;
        spec.queue.bytes_enqueued += len;
        spec.queue.packets_enqueued += 1;
        spec.queue.high_watermark_bytes = spec
            .queue
            .high_watermark_bytes
            .max(spec.queue.queue_size_bytes);
        spec.link.bytes_enqueued += len;
        // The harness drains the queue immediately (one frame in flight).
        spec.queue.queue_size_bytes -= len;
        spec.link.tx_bytes += len;
        spec.link.tx_packets += 1;
        (Some(out), report)
    } else {
        spec.queue.bytes_dropped += len;
        spec.queue.packets_dropped += 1;
        spec.link.bytes_dropped += len;
        (None, report)
    }
}

/// Canonical comparable form of a halt: (label, pc, fault debug string).
fn halt_key_asic(h: &HaltReason) -> (&'static str, usize, String) {
    match h {
        HaltReason::CexecFailed { pc } => ("cexec_failed", *pc, String::new()),
        HaltReason::Mmu { pc, fault } => ("mmu_fault", *pc, format!("{fault:?}")),
        HaltReason::PacketMemory { pc } => ("packet_memory", *pc, String::new()),
        HaltReason::BadInstruction { pc } => ("bad_instruction", *pc, String::new()),
        HaltReason::BudgetExceeded { pc } => ("budget_exceeded", *pc, String::new()),
    }
}

fn halt_key_spec(h: &tpp_spec::SpecHalt) -> (&'static str, usize, String) {
    use tpp_spec::SpecHalt;
    let fault = match h {
        SpecHalt::Fault { fault, .. } => format!("{fault:?}"),
        _ => String::new(),
    };
    (h.name(), h.pc(), fault)
}

/// Compare one round's ASIC execution report against the reference's
/// (instructions, cycles, SRAM-write flag, halt reason, pc and fault);
/// `Err` names every mismatching field.
pub fn compare_exec(
    round: u32,
    asic: Option<&ExecReport>,
    spec: Option<&SpecReport>,
) -> Result<(), String> {
    match (asic, spec) {
        (None, None) => Ok(()),
        (Some(a), Some(s)) => {
            let mut errs = Vec::new();
            if a.instructions_executed != s.instructions_executed {
                errs.push(format!(
                    "instructions: asic={} spec={}",
                    a.instructions_executed, s.instructions_executed
                ));
            }
            if a.cycles != s.cycles {
                errs.push(format!("cycles: asic={} spec={}", a.cycles, s.cycles));
            }
            if a.wrote_switch != s.wrote_switch {
                errs.push(format!(
                    "wrote_switch: asic={} spec={}",
                    a.wrote_switch, s.wrote_switch
                ));
            }
            let ka = a.halt.as_ref().map(halt_key_asic);
            let ks = s.halt.as_ref().map(halt_key_spec);
            if ka != ks {
                errs.push(format!("halt: asic={ka:?} spec={ks:?}"));
            }
            if errs.is_empty() {
                Ok(())
            } else {
                Err(format!(
                    "round {round}: execution report diverged: {}",
                    errs.join("; ")
                ))
            }
        }
        (a, s) => Err(format!(
            "round {round}: TCPU ran in one engine only: asic={:?} spec={:?}",
            a.is_some(),
            s.is_some()
        )),
    }
}

fn diff_bytes(a: &[u8], b: &[u8]) -> String {
    if a.len() != b.len() {
        return format!("  lengths differ: {} vs {}", a.len(), b.len());
    }
    let mut out = String::new();
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        if x != y {
            out.push_str(&format!("  byte {i}: {x:#04x} vs {y:#04x}\n"));
        }
    }
    out
}

/// Field-by-field comparison of the final ASIC snapshot against the
/// reference state. Every TPP-visible register and SRAM word is listed
/// explicitly so a divergence names the exact register.
pub fn compare_final(snap: &AsicState, spec: &SpecState) -> Result<(), String> {
    let mut errs: Vec<String> = Vec::new();
    fn chk<T: PartialEq + std::fmt::Debug>(errs: &mut Vec<String>, label: &str, asic: T, spec: T) {
        if asic != spec {
            errs.push(format!("  {label}: asic={asic:?} spec={spec:?}"));
        }
    }
    let r = &snap.regs;
    let s = &spec.switch;
    chk(&mut errs, "Switch:SwitchID", r.switch_id, s.switch_id);
    chk(
        &mut errs,
        "Switch:FlowTableVersion",
        r.flow_table_version,
        s.flow_table_version,
    );
    chk(&mut errs, "Switch:L2TableHits", r.l2_hits, s.l2_hits);
    chk(&mut errs, "Switch:L3TableHits", r.l3_hits, s.l3_hits);
    chk(&mut errs, "Switch:TCAMHits", r.tcam_hits, s.tcam_hits);
    chk(
        &mut errs,
        "Switch:PacketsProcessed",
        r.packets_processed,
        s.packets_processed,
    );
    chk(
        &mut errs,
        "Switch:TPPsExecuted",
        r.tpps_executed,
        s.tpps_executed,
    );
    chk(
        &mut errs,
        "Switch:WallClock",
        r.wall_clock_ns,
        s.wall_clock_ns,
    );
    chk(&mut errs, "Switch:BootEpoch", r.boot_epoch, s.boot_epoch);

    let p = &snap.ports[EGRESS_PORT as usize];
    let l = &spec.link;
    chk(&mut errs, "Link:RX-Bytes", p.stats.rx_bytes, l.rx_bytes);
    chk(&mut errs, "Link:TX-Bytes", p.stats.tx_bytes, l.tx_bytes);
    chk(
        &mut errs,
        "Link:RX-Packets",
        p.stats.rx_packets,
        l.rx_packets,
    );
    chk(
        &mut errs,
        "Link:TX-Packets",
        p.stats.tx_packets,
        l.tx_packets,
    );
    chk(
        &mut errs,
        "Link:BytesDropped",
        p.stats.bytes_dropped,
        l.bytes_dropped,
    );
    chk(
        &mut errs,
        "Link:BytesEnqueued",
        p.stats.bytes_enqueued,
        l.bytes_enqueued,
    );
    chk(
        &mut errs,
        "Link:EcnMarked",
        p.stats.ecn_marked,
        l.ecn_marked,
    );
    chk(
        &mut errs,
        "Link:SnrDeciBel",
        p.stats.snr_decidb,
        l.snr_decidb,
    );
    chk(
        &mut errs,
        "Link:RX-Utilization",
        p.stats.rx_utilization_permille,
        l.rx_utilization_permille,
    );
    chk(
        &mut errs,
        "Link:TX-Utilization",
        p.stats.tx_utilization_permille,
        l.tx_utilization_permille,
    );

    let qa = &p.queues[0];
    let q = &spec.queue;
    chk(
        &mut errs,
        "Queue:QueueSize",
        qa.stats.queue_size_bytes,
        q.queue_size_bytes,
    );
    chk(
        &mut errs,
        "Queue:BytesEnqueued",
        qa.stats.bytes_enqueued,
        q.bytes_enqueued,
    );
    chk(
        &mut errs,
        "Queue:BytesDropped",
        qa.stats.bytes_dropped,
        q.bytes_dropped,
    );
    chk(
        &mut errs,
        "Queue:PacketsEnqueued",
        qa.stats.packets_enqueued,
        q.packets_enqueued,
    );
    chk(
        &mut errs,
        "Queue:PacketsDropped",
        qa.stats.packets_dropped,
        q.packets_dropped,
    );
    chk(
        &mut errs,
        "Queue:HighWatermark",
        qa.stats.high_watermark_bytes,
        q.high_watermark_bytes,
    );
    chk(&mut errs, "Queue:Limit", qa.limit_bytes, q.limit_bytes);

    chk(&mut errs, "link SRAM", &p.link_sram, &spec.link_sram);
    chk(
        &mut errs,
        "global SRAM",
        &snap.global_sram,
        &spec.global_sram,
    );

    if errs.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "final state diverged asic vs spec:\n{}",
            errs.join("\n")
        ))
    }
}

// ---------------------------------------------------------------------------
// Case generation
// ---------------------------------------------------------------------------

/// A virtual address worth probing: real statistics, SRAM cells (in and
/// out of range), reserved holes, and fully random values.
fn gen_addr(rng: &mut TestRng) -> u16 {
    match rng.usize_in(0..12) {
        0..=4 => {
            let stats = Stat::ALL;
            stats[rng.usize_in(0..stats.len())].addr().0
        }
        5 | 6 => 0x4000 + 4 * rng.usize_in(0..24) as u16,
        7 | 8 => 0x8000 + 4 * rng.usize_in(0..24) as u16,
        9 | 10 => [0x0ffc, 0x1ffc, 0x2ffc, 0x3ffc, 0x5000, 0x7abc][rng.usize_in(0..6)],
        _ => rng.next_u64() as u16,
    }
}

/// An instruction word: usually well-formed, sometimes raw noise,
/// sometimes near-valid (bad operand mode / unassigned opcode).
fn gen_word(rng: &mut TestRng) -> u32 {
    let poffs: [u32; 6] = [0, 1, 2, 3, 8, 511];
    match rng.usize_in(0..100) {
        0..=69 => {
            let op = Opcode::ALL[rng.usize_in(0..Opcode::ALL.len())] as u32;
            let mode = rng.usize_in(0..3) as u32;
            let poff = poffs[rng.usize_in(0..poffs.len())];
            (op << 27) | (mode << 25) | (poff << 16) | gen_addr(rng) as u32
        }
        70..=84 => rng.next_u64() as u32,
        _ => {
            let op = rng.usize_in(0..32) as u32;
            let mode = 3u32;
            let poff = poffs[rng.usize_in(0..poffs.len())];
            (op << 27) | (mode << 25) | (poff << 16) | gen_addr(rng) as u32
        }
    }
}

fn gen_counter(rng: &mut TestRng) -> u64 {
    match rng.usize_in(0..3) {
        0 => 0,
        1 => rng.usize_in(0..100_000) as u64,
        _ => (1u64 << 32) + rng.usize_in(0..100_000) as u64,
    }
}

/// Deterministically generate the `seed`-th fuzz case. Same seed, same
/// case — forever — so a CI failure log line is already a reproducer.
pub fn gen_case(seed: u64) -> ConformanceCase {
    let mut rng = TestRng::deterministic(&format!("tpp-conformance-{seed}"));
    let insns: Vec<u32> = (0..rng.usize_in(0..11))
        .map(|_| gen_word(&mut rng))
        .collect();
    let memory: Vec<u32> = (0..rng.usize_in(0..13))
        .map(|_| match rng.usize_in(0..4) {
            0 => rng.next_u64() as u32,
            _ => rng.usize_in(0..16) as u32,
        })
        .collect();
    let link_sram: Vec<u32> = (0..rng.usize_in(4..17))
        .map(|_| rng.usize_in(0..64) as u32)
        .collect();
    let global_sram: Vec<u32> = (0..rng.usize_in(4..17))
        .map(|_| rng.usize_in(0..64) as u32)
        .collect();
    let sp0 = if rng.usize_in(0..5) < 4 {
        (4 * rng.usize_in(0..memory.len() + 1)) as u16
    } else {
        rng.next_u64() as u16
    };
    let flags0 = match rng.usize_in(0..10) {
        0..=7 => 0,
        8 => FLAG_ECHOED,
        _ => (rng.next_u64() & 0x07) as u8,
    };
    let hop0 = if rng.usize_in(0..10) < 9 {
        rng.usize_in(0..4) as u8
    } else {
        rng.next_u64() as u8
    };
    let mode = if rng.usize_in(0..10) < 8 { 0 } else { 1 };
    let per_hop_words = if mode == 1 {
        rng.usize_in(0..4) as u16
    } else {
        rng.usize_in(0..2) as u16
    };
    let budget = match rng.usize_in(0..4) {
        0 | 1 => 300,
        2 => (4 + rng.usize_in(0..12)) as u32,
        _ => rng.usize_in(0..6) as u32,
    };
    let (queue_limit_bytes, queue_size) = if rng.usize_in(0..4) < 3 {
        (DEFAULT_QUEUE_LIMIT, rng.usize_in(0..2048) as u64)
    } else {
        let limit = rng.usize_in(20..600) as u32;
        (limit, rng.usize_in(0..limit as usize + 64) as u64)
    };
    let switch_seed = SwitchSeed {
        flow_table_version: rng.usize_in(0..16) as u32,
        l2_hits: gen_counter(&mut rng),
        l3_hits: gen_counter(&mut rng),
        tcam_hits: gen_counter(&mut rng),
        packets_processed: gen_counter(&mut rng),
        tpps_executed: gen_counter(&mut rng),
        boot_epoch: rng.usize_in(0..8) as u32,
    };
    let link_seed = LinkSeed {
        rx_bytes: gen_counter(&mut rng),
        tx_bytes: gen_counter(&mut rng),
        rx_packets: gen_counter(&mut rng),
        tx_packets: gen_counter(&mut rng),
        bytes_dropped: gen_counter(&mut rng),
        bytes_enqueued: gen_counter(&mut rng),
        ecn_marked: gen_counter(&mut rng),
        snr_decidb: rng.usize_in(0..400) as u32,
        rx_utilization_permille: rng.usize_in(0..1001) as u32,
        tx_utilization_permille: rng.usize_in(0..1001) as u32,
    };
    let queue_seed = QueueSeed {
        queue_size_bytes: queue_size,
        bytes_enqueued: gen_counter(&mut rng),
        bytes_dropped: gen_counter(&mut rng),
        packets_enqueued: gen_counter(&mut rng),
        packets_dropped: gen_counter(&mut rng),
        high_watermark_bytes: queue_size.max(gen_counter(&mut rng)),
    };
    let corrupt = if rng.usize_in(0..8) == 0 {
        Some((rng.usize_in(0..64), (rng.next_u64() as u8) | 1))
    } else {
        None
    };
    let switch_id = if rng.usize_in(0..4) == 0 {
        rng.next_u64() as u32
    } else {
        7
    };
    let now0_ns = match rng.usize_in(0..3) {
        0 => 1_000,
        1 => rng.usize_in(0..1_000_000) as u64,
        _ => (1u64 << 34) + rng.usize_in(0..1_000_000) as u64,
    };
    ConformanceCase {
        name: format!("seed-{seed}"),
        switch_id,
        budget,
        rounds: rng.usize_in(1..4) as u32,
        queue_limit_bytes,
        now0_ns,
        mode,
        hop0,
        sp0,
        flags0,
        per_hop_words,
        insns,
        memory,
        link_sram,
        global_sram,
        switch_seed,
        link_seed,
        queue_seed,
        corrupt,
    }
}

/// Random byte blobs for the parse-agreement check: valid sections,
/// mutated valid sections, and pure noise.
pub fn gen_blob(rng: &mut TestRng) -> Vec<u8> {
    match rng.usize_in(0..3) {
        0 => gen_case(rng.next_u64()).tpp_section(),
        1 => {
            let mut bytes = gen_case(rng.next_u64()).tpp_section();
            let n = bytes.len();
            let idx = rng.usize_in(0..n);
            bytes[idx] ^= (rng.next_u64() as u8) | 1;
            bytes
        }
        _ => (0..rng.usize_in(0..80))
            .map(|_| rng.next_u64() as u8)
            .collect(),
    }
}

/// Require `tpp-spec` and `tpp-wire` to agree on whether `blob` is a
/// valid TPP section, and (when valid) that the spec's re-serialization
/// is the identity.
pub fn parse_agreement(blob: &[u8]) -> Result<(), String> {
    let spec = SpecPacket::parse(blob);
    let wire = TppPacket::new_checked(blob);
    match (&spec, &wire) {
        (Ok(pkt), Ok(_)) => {
            if pkt.emit() == blob {
                Ok(())
            } else {
                Err("emit(parse(blob)) != blob".to_string())
            }
        }
        (Err(_), Err(_)) => Ok(()),
        (Ok(_), Err(e)) => Err(format!("spec accepts, wire rejects ({e:?})")),
        (Err(e), Ok(_)) => Err(format!("wire accepts, spec rejects ({e:?})")),
    }
}

// ---------------------------------------------------------------------------
// Minimization
// ---------------------------------------------------------------------------

/// Greedily shrink a diverging case: try one simplification at a time
/// (fewer rounds, fewer/zeroed instructions, default seeds, smaller
/// memory/SRAM, default provisioning), keep any candidate that still
/// diverges, repeat to a fixpoint.
pub fn minimize(case: &ConformanceCase) -> ConformanceCase {
    let mut best = case.clone();
    if run_case(&best).is_ok() {
        return best;
    }
    for _ in 0..400 {
        let mut improved = false;
        for cand in candidates(&best) {
            if cand == best {
                continue;
            }
            if run_case(&cand).is_err() {
                best = cand;
                improved = true;
                break;
            }
        }
        if !improved {
            break;
        }
    }
    best
}

fn candidates(c: &ConformanceCase) -> Vec<ConformanceCase> {
    let mut out = Vec::new();
    let mut push = |f: &dyn Fn(&mut ConformanceCase)| {
        let mut d = c.clone();
        f(&mut d);
        d.name = format!("{}-min", c.name.trim_end_matches("-min"));
        out.push(d);
    };
    if c.rounds > 1 {
        push(&|d| d.rounds = 1);
    }
    for i in 0..c.insns.len() {
        push(&move |d| {
            d.insns.remove(i);
        });
    }
    for i in 0..c.insns.len() {
        if c.insns[i] != 0 {
            push(&move |d| d.insns[i] = 0);
        }
    }
    if c.corrupt.is_some() {
        push(&|d| d.corrupt = None);
    }
    if !c.memory.is_empty() {
        push(&|d| {
            d.memory.pop();
            d.sp0 = d.sp0.min((d.memory.len() * 4) as u16);
        });
    }
    for i in 0..c.memory.len() {
        if c.memory[i] != 0 {
            push(&move |d| d.memory[i] = 0);
        }
    }
    if c.link_sram.len() > 4 {
        push(&|d| d.link_sram.truncate(d.link_sram.len() / 2));
    }
    if c.global_sram.len() > 4 {
        push(&|d| d.global_sram.truncate(d.global_sram.len() / 2));
    }
    if c.link_sram.iter().any(|&w| w != 0) {
        push(&|d| d.link_sram.iter_mut().for_each(|w| *w = 0));
    }
    if c.global_sram.iter().any(|&w| w != 0) {
        push(&|d| d.global_sram.iter_mut().for_each(|w| *w = 0));
    }
    if c.switch_seed != SwitchSeed::default() {
        push(&|d| d.switch_seed = SwitchSeed::default());
    }
    if c.link_seed != LinkSeed::default() {
        push(&|d| d.link_seed = LinkSeed::default());
    }
    if c.queue_seed != QueueSeed::default() {
        push(&|d| d.queue_seed = QueueSeed::default());
    }
    if c.flags0 != 0 {
        push(&|d| d.flags0 = 0);
    }
    if c.hop0 != 0 {
        push(&|d| d.hop0 = 0);
    }
    if c.sp0 != 0 {
        push(&|d| d.sp0 = 0);
    }
    if c.mode != 0 {
        push(&|d| d.mode = 0);
    }
    if c.per_hop_words != 0 {
        push(&|d| d.per_hop_words = 0);
    }
    if c.queue_limit_bytes != DEFAULT_QUEUE_LIMIT {
        push(&|d| d.queue_limit_bytes = DEFAULT_QUEUE_LIMIT);
    }
    if c.budget != 300 {
        push(&|d| d.budget = 300);
    }
    if c.switch_id != 7 {
        push(&|d| d.switch_id = 7);
    }
    if c.now0_ns != 1_000 {
        push(&|d| d.now0_ns = 1_000);
    }
    out
}

// ---------------------------------------------------------------------------
// Directed cases (the committed corpus seed)
// ---------------------------------------------------------------------------

fn enc(i: Instruction) -> u32 {
    i.encode().expect("directed instruction encodes")
}

/// Hand-written cases covering every halt reason, every opcode, both
/// addressing modes, the echoed/malformed fast paths, queue-full drops
/// and wide-counter narrowing. These are the initial committed corpus:
/// each must run divergence-free forever.
// One push per named case keeps each block independently movable;
// clippy would fold them into one 170-line `vec![]` literal.
#[allow(clippy::vec_init_then_push)]
pub fn directed_cases() -> Vec<ConformanceCase> {
    let sram0 = VirtAddr(0x8000);
    let mut cases = Vec::new();

    cases.push(ConformanceCase {
        name: "cexec-halt".into(),
        insns: vec![
            enc(Instruction::Cexec {
                addr: Stat::SwitchId.addr(),
                mem: PacketOperand::Abs(0),
            }),
            enc(Instruction::Nop),
        ],
        memory: vec![0xffff_ffff, 5, 0],
        ..ConformanceCase::default()
    });

    cases.push(ConformanceCase {
        name: "pop-readonly-fault".into(),
        insns: vec![enc(Instruction::Pop {
            addr: Stat::QueueSize.addr(),
        })],
        memory: vec![42],
        sp0: 4,
        ..ConformanceCase::default()
    });

    cases.push(ConformanceCase {
        name: "sram-out-of-range".into(),
        insns: vec![enc(Instruction::Store {
            addr: VirtAddr(0x4000 + 4 * 8),
            src: PacketOperand::Abs(0),
        })],
        memory: vec![1],
        link_sram: vec![0; 8],
        ..ConformanceCase::default()
    });

    cases.push(ConformanceCase {
        name: "bad-instruction".into(),
        insns: vec![enc(Instruction::Nop), 0xf800_0000, enc(Instruction::Nop)],
        ..ConformanceCase::default()
    });

    cases.push(ConformanceCase {
        name: "budget-exhaustion".into(),
        insns: vec![enc(Instruction::Nop); 10],
        budget: 7,
        ..ConformanceCase::default()
    });

    cases.push(ConformanceCase {
        name: "budget-zero".into(),
        insns: vec![enc(Instruction::Nop)],
        budget: 0,
        ..ConformanceCase::default()
    });

    cases.push(ConformanceCase {
        name: "cstore-success-then-miss".into(),
        rounds: 2,
        insns: vec![enc(Instruction::Cstore {
            addr: sram0,
            mem: PacketOperand::Abs(0),
        })],
        memory: vec![0, 5, 0],
        ..ConformanceCase::default()
    });

    cases.push(ConformanceCase {
        name: "hop-mode-walk".into(),
        mode: 1,
        per_hop_words: 2,
        rounds: 3,
        insns: vec![
            enc(Instruction::Load {
                addr: Stat::WallClock.addr(),
                dst: PacketOperand::Hop(0),
            }),
            enc(Instruction::Load {
                addr: Stat::QueueSize.addr(),
                dst: PacketOperand::Hop(1),
            }),
        ],
        memory: vec![0; 8],
        ..ConformanceCase::default()
    });

    cases.push(ConformanceCase {
        name: "echoed-inert".into(),
        flags0: FLAG_ECHOED,
        insns: vec![enc(Instruction::Push {
            addr: Stat::SwitchId.addr(),
        })],
        memory: vec![0],
        ..ConformanceCase::default()
    });

    cases.push(ConformanceCase {
        name: "queue-full-drop".into(),
        queue_limit_bytes: 20,
        insns: vec![enc(Instruction::Push {
            addr: Stat::QueuePacketsDropped.addr(),
        })],
        memory: vec![0],
        ..ConformanceCase::default()
    });

    cases.push(ConformanceCase {
        name: "parse-reject-corrupt-version".into(),
        insns: vec![enc(Instruction::Nop)],
        corrupt: Some((0, 0xff)),
        ..ConformanceCase::default()
    });

    cases.push(ConformanceCase {
        name: "wide-counter-narrow".into(),
        switch_seed: SwitchSeed {
            packets_processed: 0x1_0000_0005,
            ..SwitchSeed::default()
        },
        insns: vec![enc(Instruction::Push {
            addr: Stat::PacketsProcessed.addr(),
        })],
        memory: vec![0],
        ..ConformanceCase::default()
    });

    // One program exercising all twelve opcodes in a single traversal.
    cases.push(ConformanceCase {
        name: "all-opcodes".into(),
        insns: vec![
            enc(Instruction::Nop),
            enc(Instruction::PushImm(1)),
            enc(Instruction::PushImm(2)),
            enc(Instruction::Add),
            enc(Instruction::PushImm(1)),
            enc(Instruction::Sub),
            enc(Instruction::PushImm(3)),
            enc(Instruction::And),
            enc(Instruction::PushImm(4)),
            enc(Instruction::Or),
            enc(Instruction::Push {
                addr: Stat::SwitchId.addr(),
            }),
            enc(Instruction::Pop { addr: sram0 }),
            enc(Instruction::Store {
                addr: VirtAddr(0x8004),
                src: PacketOperand::Abs(0),
            }),
            enc(Instruction::Cstore {
                addr: VirtAddr(0x8008),
                mem: PacketOperand::Abs(1),
            }),
            enc(Instruction::Cexec {
                addr: Stat::SwitchId.addr(),
                mem: PacketOperand::Abs(4),
            }),
            enc(Instruction::Load {
                addr: Stat::BootEpoch.addr(),
                dst: PacketOperand::Abs(6),
            }),
        ],
        memory: vec![0, 0, 0xbeef, 0, 0, 0, 0, 0, 0, 0, 0, 0],
        ..ConformanceCase::default()
    });

    cases
}

// ---------------------------------------------------------------------------
// Minimal JSON (the corpus file format; no external dependencies)
// ---------------------------------------------------------------------------

/// A minimal JSON value: unsigned integers, strings, arrays, objects —
/// exactly what the corpus format needs, hand-rolled because the build
/// environment has no serde.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// An unsigned integer.
    Num(u64),
    /// A string (simple escapes only: `\"` and `\\`).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object with insertion-ordered keys.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Pretty-print with two-space indentation and a trailing newline.
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: usize) {
        let pad = "  ".repeat(indent);
        match self {
            Json::Num(n) => out.push_str(&n.to_string()),
            Json::Str(s) => {
                out.push('"');
                for ch in s.chars() {
                    match ch {
                        '"' => out.push_str("\\\""),
                        '\\' => out.push_str("\\\\"),
                        _ => out.push(ch),
                    }
                }
                out.push('"');
            }
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                // Number-only arrays stay on one line (SRAM images).
                if items.iter().all(|i| matches!(i, Json::Num(_))) {
                    out.push('[');
                    for (i, item) in items.iter().enumerate() {
                        if i > 0 {
                            out.push_str(", ");
                        }
                        item.write(out, 0);
                    }
                    out.push(']');
                    return;
                }
                out.push_str("[\n");
                for (i, item) in items.iter().enumerate() {
                    out.push_str(&pad);
                    out.push_str("  ");
                    item.write(out, indent + 1);
                    if i + 1 < items.len() {
                        out.push(',');
                    }
                    out.push('\n');
                }
                out.push_str(&pad);
                out.push(']');
            }
            Json::Obj(fields) => {
                if fields.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push_str("{\n");
                for (i, (key, value)) in fields.iter().enumerate() {
                    out.push_str(&pad);
                    out.push_str("  ");
                    Json::Str(key.clone()).write(out, 0);
                    out.push_str(": ");
                    value.write(out, indent + 1);
                    if i + 1 < fields.len() {
                        out.push(',');
                    }
                    out.push('\n');
                }
                out.push_str(&pad);
                out.push('}');
            }
        }
    }

    /// Parse a JSON document (the subset [`Json`] can represent).
    pub fn parse(text: &str) -> Result<Json, String> {
        let bytes = text.as_bytes();
        let mut pos = 0usize;
        let value = parse_value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing bytes at offset {pos}"));
        }
        Ok(value)
    }

    /// Look up a key in an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// A required integer field of an object.
    pub fn u64_field(&self, key: &str) -> Result<u64, String> {
        match self.get(key) {
            Some(Json::Num(n)) => Ok(*n),
            Some(other) => Err(format!("field {key}: expected number, got {other:?}")),
            None => Err(format!("missing field {key}")),
        }
    }

    /// A required array-of-integers field of an object.
    pub fn u32_list(&self, key: &str) -> Result<Vec<u32>, String> {
        match self.get(key) {
            Some(Json::Arr(items)) => items
                .iter()
                .map(|i| match i {
                    Json::Num(n) => Ok(*n as u32),
                    other => Err(format!("field {key}: expected number, got {other:?}")),
                })
                .collect(),
            Some(other) => Err(format!("field {key}: expected array, got {other:?}")),
            None => Err(format!("missing field {key}")),
        }
    }
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && bytes[*pos].is_ascii_whitespace() {
        *pos += 1;
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        Some(b'{') => {
            *pos += 1;
            let mut fields = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(fields));
            }
            loop {
                skip_ws(bytes, pos);
                let key = match parse_value(bytes, pos)? {
                    Json::Str(s) => s,
                    other => return Err(format!("object key must be a string, got {other:?}")),
                };
                skip_ws(bytes, pos);
                if bytes.get(*pos) != Some(&b':') {
                    return Err(format!("expected ':' at offset {pos}"));
                }
                *pos += 1;
                fields.push((key, parse_value(bytes, pos)?));
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(fields));
                    }
                    _ => return Err(format!("expected ',' or '}}' at offset {pos}")),
                }
            }
        }
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(bytes, pos)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(format!("expected ',' or ']' at offset {pos}")),
                }
            }
        }
        Some(b'"') => {
            *pos += 1;
            let mut s = String::new();
            loop {
                match bytes.get(*pos) {
                    Some(b'"') => {
                        *pos += 1;
                        return Ok(Json::Str(s));
                    }
                    Some(b'\\') => {
                        *pos += 1;
                        match bytes.get(*pos) {
                            Some(b'"') => s.push('"'),
                            Some(b'\\') => s.push('\\'),
                            other => return Err(format!("unsupported escape {other:?}")),
                        }
                        *pos += 1;
                    }
                    Some(&b) => {
                        s.push(b as char);
                        *pos += 1;
                    }
                    None => return Err("unterminated string".to_string()),
                }
            }
        }
        Some(b) if b.is_ascii_digit() => {
            let start = *pos;
            while bytes.get(*pos).is_some_and(|b| b.is_ascii_digit()) {
                *pos += 1;
            }
            std::str::from_utf8(&bytes[start..*pos])
                .ok()
                .and_then(|s| s.parse::<u64>().ok())
                .map(Json::Num)
                .ok_or_else(|| format!("bad number at offset {start}"))
        }
        other => Err(format!("unexpected {other:?} at offset {pos}")),
    }
}

// ---------------------------------------------------------------------------
// Case <-> JSON
// ---------------------------------------------------------------------------

fn num_list(words: &[u32]) -> Json {
    Json::Arr(words.iter().map(|&w| Json::Num(w as u64)).collect())
}

impl ConformanceCase {
    /// Serialize to the corpus JSON format.
    pub fn to_json(&self) -> Json {
        let mut fields = vec![
            ("name".to_string(), Json::Str(self.name.clone())),
            ("switch_id".to_string(), Json::Num(self.switch_id as u64)),
            ("budget".to_string(), Json::Num(self.budget as u64)),
            ("rounds".to_string(), Json::Num(self.rounds as u64)),
            (
                "queue_limit_bytes".to_string(),
                Json::Num(self.queue_limit_bytes as u64),
            ),
            ("now0_ns".to_string(), Json::Num(self.now0_ns)),
            ("mode".to_string(), Json::Num(self.mode as u64)),
            ("hop0".to_string(), Json::Num(self.hop0 as u64)),
            ("sp0".to_string(), Json::Num(self.sp0 as u64)),
            ("flags0".to_string(), Json::Num(self.flags0 as u64)),
            (
                "per_hop_words".to_string(),
                Json::Num(self.per_hop_words as u64),
            ),
            ("insns".to_string(), num_list(&self.insns)),
            ("memory".to_string(), num_list(&self.memory)),
            ("link_sram".to_string(), num_list(&self.link_sram)),
            ("global_sram".to_string(), num_list(&self.global_sram)),
            (
                "switch_seed".to_string(),
                Json::Obj(vec![
                    (
                        "flow_table_version".to_string(),
                        Json::Num(self.switch_seed.flow_table_version as u64),
                    ),
                    ("l2_hits".to_string(), Json::Num(self.switch_seed.l2_hits)),
                    ("l3_hits".to_string(), Json::Num(self.switch_seed.l3_hits)),
                    (
                        "tcam_hits".to_string(),
                        Json::Num(self.switch_seed.tcam_hits),
                    ),
                    (
                        "packets_processed".to_string(),
                        Json::Num(self.switch_seed.packets_processed),
                    ),
                    (
                        "tpps_executed".to_string(),
                        Json::Num(self.switch_seed.tpps_executed),
                    ),
                    (
                        "boot_epoch".to_string(),
                        Json::Num(self.switch_seed.boot_epoch as u64),
                    ),
                ]),
            ),
            (
                "link_seed".to_string(),
                Json::Obj(vec![
                    ("rx_bytes".to_string(), Json::Num(self.link_seed.rx_bytes)),
                    ("tx_bytes".to_string(), Json::Num(self.link_seed.tx_bytes)),
                    (
                        "rx_packets".to_string(),
                        Json::Num(self.link_seed.rx_packets),
                    ),
                    (
                        "tx_packets".to_string(),
                        Json::Num(self.link_seed.tx_packets),
                    ),
                    (
                        "bytes_dropped".to_string(),
                        Json::Num(self.link_seed.bytes_dropped),
                    ),
                    (
                        "bytes_enqueued".to_string(),
                        Json::Num(self.link_seed.bytes_enqueued),
                    ),
                    (
                        "ecn_marked".to_string(),
                        Json::Num(self.link_seed.ecn_marked),
                    ),
                    (
                        "snr_decidb".to_string(),
                        Json::Num(self.link_seed.snr_decidb as u64),
                    ),
                    (
                        "rx_utilization_permille".to_string(),
                        Json::Num(self.link_seed.rx_utilization_permille as u64),
                    ),
                    (
                        "tx_utilization_permille".to_string(),
                        Json::Num(self.link_seed.tx_utilization_permille as u64),
                    ),
                ]),
            ),
            (
                "queue_seed".to_string(),
                Json::Obj(vec![
                    (
                        "queue_size_bytes".to_string(),
                        Json::Num(self.queue_seed.queue_size_bytes),
                    ),
                    (
                        "bytes_enqueued".to_string(),
                        Json::Num(self.queue_seed.bytes_enqueued),
                    ),
                    (
                        "bytes_dropped".to_string(),
                        Json::Num(self.queue_seed.bytes_dropped),
                    ),
                    (
                        "packets_enqueued".to_string(),
                        Json::Num(self.queue_seed.packets_enqueued),
                    ),
                    (
                        "packets_dropped".to_string(),
                        Json::Num(self.queue_seed.packets_dropped),
                    ),
                    (
                        "high_watermark_bytes".to_string(),
                        Json::Num(self.queue_seed.high_watermark_bytes),
                    ),
                ]),
            ),
        ];
        if let Some((idx, xor)) = self.corrupt {
            fields.push((
                "corrupt".to_string(),
                Json::Arr(vec![Json::Num(idx as u64), Json::Num(xor as u64)]),
            ));
        }
        Json::Obj(fields)
    }

    /// Deserialize from the corpus JSON format.
    pub fn from_json(json: &Json) -> Result<ConformanceCase, String> {
        let name = match json.get("name") {
            Some(Json::Str(s)) => s.clone(),
            _ => return Err("missing string field name".to_string()),
        };
        let sw = json.get("switch_seed").ok_or("missing switch_seed")?;
        let li = json.get("link_seed").ok_or("missing link_seed")?;
        let qu = json.get("queue_seed").ok_or("missing queue_seed")?;
        let corrupt = match json.get("corrupt") {
            None => None,
            Some(Json::Arr(items)) if items.len() == 2 => match (&items[0], &items[1]) {
                (Json::Num(idx), Json::Num(xor)) => Some((*idx as usize, *xor as u8)),
                _ => return Err("corrupt must be [index, xor]".to_string()),
            },
            Some(other) => return Err(format!("corrupt must be [index, xor], got {other:?}")),
        };
        Ok(ConformanceCase {
            name,
            switch_id: json.u64_field("switch_id")? as u32,
            budget: json.u64_field("budget")? as u32,
            rounds: json.u64_field("rounds")? as u32,
            queue_limit_bytes: json.u64_field("queue_limit_bytes")? as u32,
            now0_ns: json.u64_field("now0_ns")?,
            mode: json.u64_field("mode")? as u8,
            hop0: json.u64_field("hop0")? as u8,
            sp0: json.u64_field("sp0")? as u16,
            flags0: json.u64_field("flags0")? as u8,
            per_hop_words: json.u64_field("per_hop_words")? as u16,
            insns: json.u32_list("insns")?,
            memory: json.u32_list("memory")?,
            link_sram: json.u32_list("link_sram")?,
            global_sram: json.u32_list("global_sram")?,
            switch_seed: SwitchSeed {
                flow_table_version: sw.u64_field("flow_table_version")? as u32,
                l2_hits: sw.u64_field("l2_hits")?,
                l3_hits: sw.u64_field("l3_hits")?,
                tcam_hits: sw.u64_field("tcam_hits")?,
                packets_processed: sw.u64_field("packets_processed")?,
                tpps_executed: sw.u64_field("tpps_executed")?,
                boot_epoch: sw.u64_field("boot_epoch")? as u32,
            },
            link_seed: LinkSeed {
                rx_bytes: li.u64_field("rx_bytes")?,
                tx_bytes: li.u64_field("tx_bytes")?,
                rx_packets: li.u64_field("rx_packets")?,
                tx_packets: li.u64_field("tx_packets")?,
                bytes_dropped: li.u64_field("bytes_dropped")?,
                bytes_enqueued: li.u64_field("bytes_enqueued")?,
                ecn_marked: li.u64_field("ecn_marked")?,
                snr_decidb: li.u64_field("snr_decidb")? as u32,
                rx_utilization_permille: li.u64_field("rx_utilization_permille")? as u32,
                tx_utilization_permille: li.u64_field("tx_utilization_permille")? as u32,
            },
            queue_seed: QueueSeed {
                queue_size_bytes: qu.u64_field("queue_size_bytes")?,
                bytes_enqueued: qu.u64_field("bytes_enqueued")?,
                bytes_dropped: qu.u64_field("bytes_dropped")?,
                packets_enqueued: qu.u64_field("packets_enqueued")?,
                packets_dropped: qu.u64_field("packets_dropped")?,
                high_watermark_bytes: qu.u64_field("high_watermark_bytes")?,
            },
            corrupt,
        })
    }
}

// ---------------------------------------------------------------------------
// Corpus on disk
// ---------------------------------------------------------------------------

/// The committed corpus directory (`tests/corpus` at the workspace
/// root), resolved at compile time so tests and the bin agree.
pub fn default_corpus_dir() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/corpus")
}

/// Load every `*.json` case from a corpus directory, sorted by file name
/// for deterministic replay order.
pub fn load_corpus(dir: &std::path::Path) -> Result<Vec<(String, ConformanceCase)>, String> {
    let mut paths: Vec<std::path::PathBuf> = std::fs::read_dir(dir)
        .map_err(|e| format!("read corpus dir {}: {e}", dir.display()))?
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|ext| ext == "json"))
        .collect();
    paths.sort();
    let mut cases = Vec::new();
    for path in paths {
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("read {}: {e}", path.display()))?;
        let json = Json::parse(&text).map_err(|e| format!("parse {}: {e}", path.display()))?;
        let case = ConformanceCase::from_json(&json)
            .map_err(|e| format!("decode {}: {e}", path.display()))?;
        let label = path
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_default();
        cases.push((label, case));
    }
    Ok(cases)
}

/// Write one case as a pretty-printed JSON corpus file.
pub fn write_case(path: &std::path::Path, case: &ConformanceCase) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    }
    std::fs::write(path, case.to_json().pretty())
        .map_err(|e| format!("write {}: {e}", path.display()))
}

// ---------------------------------------------------------------------------
// Fuzz driver (shared by the bin and the tests)
// ---------------------------------------------------------------------------

/// A divergence found by [`fuzz`]: the original case and its greedily
/// minimized form, with the divergence message from the minimized run.
#[derive(Debug, Clone)]
pub struct Divergence {
    /// The case as generated.
    pub case: ConformanceCase,
    /// The minimized still-diverging case.
    pub minimized: ConformanceCase,
    /// The divergence description from the minimized case.
    pub error: String,
}

/// Aggregate statistics of a clean fuzz run.
#[derive(Debug, Clone, Copy, Default)]
pub struct FuzzStats {
    /// Cases run.
    pub cases: u64,
    /// Rounds simulated across all cases.
    pub rounds: u64,
    /// Rounds in which the TCPU executed the TPP.
    pub executed_rounds: u64,
    /// Cases that ended in a queue-full drop.
    pub dropped_cases: u64,
}

/// Run `n` generated cases starting at `seed0`. Returns statistics on
/// full agreement or the first (minimized) divergence.
pub fn fuzz(seed0: u64, n: u64) -> Result<FuzzStats, Box<Divergence>> {
    let mut stats = FuzzStats::default();
    for seed in seed0..seed0 + n {
        let case = gen_case(seed);
        match run_case(&case) {
            Ok(summary) => {
                stats.cases += 1;
                stats.rounds += summary.rounds_run as u64;
                stats.executed_rounds += summary.tpp_executed_rounds as u64;
                stats.dropped_cases += summary.dropped as u64;
            }
            Err(_) => {
                let minimized = minimize(&case);
                let error = run_case(&minimized)
                    .err()
                    .unwrap_or_else(|| "minimized case no longer diverges".to_string());
                return Err(Box::new(Divergence {
                    case,
                    minimized,
                    error,
                }));
            }
        }
    }
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn directed_cases_agree() {
        for case in directed_cases() {
            if let Err(e) = run_case(&case) {
                panic!("directed case {} diverged:\n{e}", case.name);
            }
        }
    }

    #[test]
    fn directed_case_names_are_unique() {
        let mut names: Vec<String> = directed_cases().into_iter().map(|c| c.name).collect();
        let n = names.len();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), n);
    }

    #[test]
    fn json_roundtrip_every_directed_case() {
        for case in directed_cases() {
            let text = case.to_json().pretty();
            let back = ConformanceCase::from_json(&Json::parse(&text).unwrap()).unwrap();
            assert_eq!(back, case, "roundtrip of {}", case.name);
        }
    }

    #[test]
    fn json_roundtrip_generated_cases() {
        for seed in 0..50 {
            let case = gen_case(seed);
            let text = case.to_json().pretty();
            let back = ConformanceCase::from_json(&Json::parse(&text).unwrap()).unwrap();
            assert_eq!(back, case, "roundtrip of seed {seed}");
        }
    }

    #[test]
    fn json_parser_rejects_malformed() {
        for bad in ["", "{", "[1,", "{\"a\" 1}", "{\"a\":1} x", "\"unterminated"] {
            assert!(Json::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn minimizer_is_stable_on_agreeing_cases() {
        // A conforming case minimizes to itself (nothing to shrink).
        let case = gen_case(1);
        assert_eq!(minimize(&case), case);
    }

    #[test]
    fn queue_full_case_really_drops() {
        let case = directed_cases()
            .into_iter()
            .find(|c| c.name == "queue-full-drop")
            .unwrap();
        let summary = run_case(&case).unwrap();
        assert!(summary.dropped);
    }

    #[test]
    fn generated_cases_are_deterministic() {
        assert_eq!(gen_case(42), gen_case(42));
        assert_ne!(gen_case(42), gen_case(43));
    }
}
