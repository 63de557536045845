//! The three seeded workloads, each built through the crates' public API
//! and run once per call of [`run`].
//!
//! Every workload draws all of its inputs from the one `--seed`: it feeds
//! `TrafficConfig::seed`, `SimConfig::seed` and the transport's jitter
//! seed (fabric workloads) or the probe pairing, phases and cable
//! lengths (`probe_storm`). The simulator only ever sees the generated
//! inputs.

use std::time::Instant;

use tpp_apps::microburst::MicroburstMonitor;
use tpp_apps::ndb::{NdbProbeSender, TraceCollector};
use tpp_apps::rcpstar::{init_rate_registers, RcpStarConfig, RcpStarSender};
use tpp_apps::{CounterTask, CounterWriteMode};
use tpp_asic::PortId;
use tpp_bench::traffic::{
    completions_fingerprint, generate_schedule, splitmix64, ClosedFlowGenApp, ClosedLoopConfig,
    Completion, Flow, FlowGenApp, FlowSizeDist, Rng64, TrafficConfig,
};
use tpp_host::transport::TransportConfig;
use tpp_host::{EchoReceiver, TransportStats};
use tpp_netsim::{
    fat_tree_with, leaf_spine_with, time, Endpoint, FatTreeParams, HostApp, HostId,
    LeafSpineParams, LinkProfile, LinkState, RunLimit, SimConfig, Simulator, SwitchId,
};
use tpp_wire::EthernetAddress;

use crate::trace::{self, app, Layer, Timed};

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Oversubscribed k=8 fat-tree, 1,024 hosts, open-loop flows plus
    /// microburst, RCP\* and ndb apps.
    FabricOpen,
    /// Textbook k=8 fat-tree, 128 hosts, ECMP, 5 permille loss on every
    /// inter-switch link, every flow through the closed-loop transport.
    FabricClosedLossy,
    /// Leaf-spine fabric where every sending host runs TPP monitoring:
    /// stats read probes, ndb traces and CSTORE counter writers.
    ProbeStorm,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 3] = [
        Workload::FabricOpen,
        Workload::FabricClosedLossy,
        Workload::ProbeStorm,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::FabricOpen => "fabric_open",
            Workload::FabricClosedLossy => "fabric_closed_lossy",
            Workload::ProbeStorm => "probe_storm",
        }
    }

    /// Parse a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The fingerprint recorded for [`crate::DEFAULT_SEED`].
    pub fn recorded_fingerprint(self) -> u64 {
        match self {
            Workload::FabricOpen => 0x3046_ce1e_d117_cff2,
            Workload::FabricClosedLossy => 0x6a2a_93be_8f53_f9eb,
            Workload::ProbeStorm => 0xd29f_b776_3bf4_d554,
        }
    }
}

/// How one run of a workload differs from the plain measured run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Variant {
    /// Wrap every host app in a [`Timed`] wrapper.
    pub traced: bool,
    /// Shard count; 1 runs sequentially, more run threaded.
    pub shards: usize,
    /// Flip the workload's series setting (on for `probe_storm`, off for
    /// the fabric workloads).
    pub flip_series: bool,
}

impl Variant {
    /// The untraced, single-shard run that gives the end-to-end metrics.
    pub const PLAIN: Variant = Variant {
        traced: false,
        shards: 1,
        flip_series: false,
    };
}

/// Host seconds of each set-up phase.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    /// Input generation (`generate_schedule`, probe pairings).
    pub schedule_s: f64,
    /// Topology build (`fat_tree_with` / `leaf_spine_with`).
    pub build_s: f64,
    /// Register, loss and table initialisation after the build.
    pub init_s: f64,
}

impl SetupTimes {
    /// Total set-up time.
    pub fn total(&self) -> f64 {
        self.schedule_s + self.build_s + self.init_s
    }
}

/// Counters read from the simulator after a run.
#[derive(Debug, Clone, Copy, Default)]
pub struct Fleet {
    /// Events the simulator dispatched.
    pub events: u64,
    /// Frames every switch's pipeline handled.
    pub frames: u64,
    /// TPPs the TCPUs executed.
    pub tpps_executed: u64,
    /// Decode-cache hits and misses, summed over switches.
    pub decode: (u64, u64),
    /// Flow-cache hits and misses, summed over switches.
    pub flow_cache: (u64, u64),
    /// Programs the fleet-wide interner decoded.
    pub interner_decodes: u64,
    /// Packets dropped by switch egress queues.
    pub queue_drops: u64,
    /// Frames lost in flight on links.
    pub link_losses: u64,
    /// Frame-pool `(reused, fresh)` counters.
    pub pool: (u64, u64),
}

/// Host-callback time per layer, from the [`Timed`] wrappers.
#[derive(Debug, Clone, Copy, Default)]
pub struct HostLayers {
    /// `(ns, calls)` per layer: transport, flow generator, apps.
    pub transport: (u64, u64),
    /// See `transport`.
    pub flowgen: (u64, u64),
    /// See `transport`.
    pub apps: (u64, u64),
    /// Time the wrappers spent classifying frames, ns.
    pub capture_ns: u64,
}

/// Everything one run of a workload produced.
pub struct Outcome {
    /// Set-up phases.
    pub setup: SetupTimes,
    /// Host seconds inside `Simulator::run`.
    pub run_s: f64,
    /// Simulated seconds covered by the run.
    pub sim_s: f64,
    /// Heap allocations during `Simulator::run`.
    pub allocs: u64,
    /// Operations attempted (flows or probes) and those that failed.
    pub ops_attempted: u64,
    /// See `ops_attempted`.
    pub ops_failed: u64,
    /// Simulated completion time of every finished operation, ms,
    /// ascending.
    pub op_ms: Vec<f64>,
    /// Fold of the run's simulated results.
    pub fingerprint: u64,
    /// Broken invariants of this run (empty when correct).
    pub errors: Vec<String>,
    /// Simulator counters.
    pub fleet: Fleet,
    /// Transport counters (zero unless the workload runs the transport).
    pub transport: TransportStats,
    /// Host-callback time, when traced.
    pub layers: HostLayers,
    /// Frame mix delivered to hosts, when traced: `(frame, count)`
    /// in kind order.
    pub mix: Vec<(Vec<u8>, u64)>,
}

/// Build, run and harvest one workload.
pub fn run(w: Workload, seed: u64, v: Variant) -> Outcome {
    match w {
        Workload::FabricOpen => fabric_open(seed, v),
        Workload::FabricClosedLossy => fabric_closed_lossy(seed, v),
        Workload::ProbeStorm => probe_storm(seed, v),
    }
}

fn sim_config(seed: u64, v: Variant, series_on: bool) -> SimConfig {
    let mut config = SimConfig::new()
        .shards(v.shards)
        .parallel(v.shards > 1)
        .seed(splitmix64(seed ^ 0x5111))
        .frame_pool_buffers(16 * 1024);
    if series_on != v.flip_series {
        config = config.series_capacity(1024);
    }
    config
}

fn wrap(v: Variant, app: Box<dyn HostApp>, layer: Layer) -> Box<dyn HostApp> {
    if v.traced {
        Box::new(Timed::new(app, layer))
    } else {
        app
    }
}

/// Run the simulator to `run_ns`, returning host seconds and heap
/// allocations inside `run`.
fn timed_run(sim: &mut Simulator, run_ns: u64) -> (f64, u64) {
    let allocs = trace::allocations();
    let t = Instant::now();
    sim.run(RunLimit::Until(run_ns));
    let run_s = t.elapsed().as_secs_f64();
    (run_s, trace::allocations() - allocs)
}

fn fleet(sim: &Simulator) -> Fleet {
    let mut f = Fleet {
        events: sim.events_processed(),
        interner_decodes: sim.program_interner().stats().1,
        ..Fleet::default()
    };
    let (reused, fresh, _) = sim.frame_pool_stats();
    f.pool = (reused, fresh);
    for s in 0..sim.num_switches() {
        let asic = sim.switch(SwitchId(s));
        f.frames += asic.regs().packets_processed;
        f.tpps_executed += asic.regs().tpps_executed;
        let (h, m) = asic.decode_cache_stats();
        f.decode = (f.decode.0 + h, f.decode.1 + m);
        let (h, m) = asic.flow_cache_stats();
        f.flow_cache = (f.flow_cache.0 + h, f.flow_cache.1 + m);
        for p in 0..asic.num_ports() as PortId {
            for q in 0..asic.num_queues(p) {
                f.queue_drops += asic.queue_stats(p, q as _).packets_dropped;
            }
            f.link_losses += sim.link_losses(Endpoint::switch(SwitchId(s), p));
        }
    }
    for h in 0..sim.num_hosts() {
        for p in 0..sim.host_ports(HostId(h)) {
            f.link_losses += sim.link_losses(Endpoint::host_port(HostId(h), p as PortId));
        }
    }
    f
}

/// Sum the [`Timed`] wrappers' counters and frame mixes.
fn host_layers(sim: &Simulator) -> (HostLayers, Vec<(Vec<u8>, u64)>) {
    let mut l = HostLayers::default();
    let mut mix: std::collections::BTreeMap<u64, (Vec<u8>, u64)> = Default::default();
    for h in 0..sim.num_hosts() {
        let t = sim.host_app::<Timed>(HostId(h));
        let slot = match t.layer() {
            Layer::Transport => &mut l.transport,
            Layer::FlowGen => &mut l.flowgen,
            Layer::Apps => &mut l.apps,
        };
        slot.0 += t.ns;
        slot.1 += t.calls;
        l.capture_ns += t.capture_ns;
        for (key, kind) in &t.kinds {
            mix.entry(*key).or_insert_with(|| (kind.frame.clone(), 0)).1 += kind.count;
        }
    }
    (l, mix.into_values().collect())
}

/// Fold `x` into a running fingerprint.
fn fold(fp: u64, x: u64) -> u64 {
    splitmix64(fp ^ x).rotate_left(1) ^ x
}

fn fct_ms(completions: &[Completion]) -> Vec<f64> {
    completions.iter().map(|c| c.fct_ns as f64 / 1e6).collect()
}

/// Check that no flow completed twice (more completions than flows is
/// caught by [`finish`]).
fn check_completions(completions: &[Completion], errors: &mut Vec<String>) {
    let mut keys: Vec<u64> = completions.iter().map(|c| c.key).collect();
    keys.sort_unstable();
    if keys.windows(2).any(|w| w[0] == w[1]) {
        errors.push("a flow completed twice".into());
    }
}

const FAT_TREE_LINK_KBPS: u32 = 40_000_000;
const HOST_NIC_KBPS: u32 = 10_000_000;

/// Each host's open-loop Poisson flow arrivals over a fixed horizon of
/// `flows_per_host` mean gaps, alternating the web-search and
/// data-mining size CDFs by host. The schedules are drawn twice as long
/// and cut at the horizon, so every seed simulates the same span and
/// only the flow count varies. Returns the schedules and the horizon.
fn poisson_schedules(traffic: &TrafficConfig, macs: &[EthernetAddress]) -> (Vec<Vec<Flow>>, u64) {
    let horizon_ns = traffic.flows_per_host as u64 * traffic.mean_gap_ns;
    let long = TrafficConfig {
        flows_per_host: 2 * traffic.flows_per_host,
        ..traffic.clone()
    };
    let schedules = (0..macs.len())
        .map(|i| {
            let dist = if i % 2 == 0 {
                FlowSizeDist::WebSearch
            } else {
                FlowSizeDist::DataMining
            };
            let mut sched = generate_schedule(&long, i as u32, macs, dist);
            sched.retain(|f| f.start_ns < horizon_ns);
            sched
        })
        .collect();
    (schedules, horizon_ns)
}

/// The `BENCH_fct` full shape with fewer flows per host.
fn fabric_open(seed: u64, v: Variant) -> Outcome {
    const MON: usize = 8;
    const RCP: usize = 8;
    const NDB: usize = 4;
    const SPECIAL: usize = MON + RCP + NDB;
    let params = FatTreeParams {
        k: 8,
        hosts_per_edge: 32,
        link_kbps: FAT_TREE_LINK_KBPS,
        queue_limit_bytes: 16 * 1024 * 1024,
        delay_ns: time::micros(1),
        host_nic_kbps: HOST_NIC_KBPS,
    };
    let traffic = TrafficConfig {
        seed: splitmix64(seed ^ 0x7AFF),
        flows_per_host: 40,
        mean_gap_ns: 330_000,
        ..Default::default()
    };
    let drain_ns = time::millis(20);

    let t0 = Instant::now();
    let n_hosts = params.n_hosts();
    let mac = |i: usize| EthernetAddress::from_host_id(i as u32);
    let fg_range = SPECIAL..n_hosts - SPECIAL;
    let fg_macs: Vec<EthernetAddress> = fg_range.clone().map(mac).collect();
    let (schedules, horizon_ns) = poisson_schedules(&traffic, &fg_macs);
    let flows_total: usize = schedules.iter().map(Vec::len).sum();
    let run_ns = horizon_ns + drain_ns;
    let t1 = Instant::now();

    let mut schedules = schedules.into_iter();
    let apps: Vec<Box<dyn HostApp>> = (0..n_hosts)
        .map(|i| {
            let peer = n_hosts - 1 - i;
            if i < MON {
                let m = MicroburstMonitor::new(mac(peer), 6, 25_000, 0, run_ns);
                wrap(v, Box::new(m), Layer::Apps)
            } else if i < MON + RCP {
                let cfg = RcpStarConfig {
                    period_ns: time::millis(2),
                    initial_rtt_ns: 100_000,
                    init_rate_bps: 50_000_000,
                    expected_hops: 6,
                    stop_after_bytes: Some(100_000),
                    ..Default::default()
                };
                wrap(v, Box::new(RcpStarSender::new(mac(peer), cfg)), Layer::Apps)
            } else if i < SPECIAL {
                let count = (run_ns / 200_000).min(500) as u32;
                let s = NdbProbeSender::new(mac(peer), 6, 200_000, count);
                wrap(v, Box::new(s), Layer::Apps)
            } else if i < n_hosts - SPECIAL {
                let sched = schedules.next().expect("one schedule per flow host");
                wrap(v, Box::new(FlowGenApp::new(sched)), Layer::FlowGen)
            } else if peer >= MON + RCP {
                wrap(v, Box::new(TraceCollector::default()), Layer::Apps)
            } else {
                wrap(v, Box::new(EchoReceiver::default()), Layer::Apps)
            }
        })
        .collect();
    let config = sim_config(seed, v, false).tick_interval_ns(time::millis(1));
    let (mut sim, _) = fat_tree_with(config, params, apps);
    let t2 = Instant::now();
    for sw in 0..sim.num_switches() {
        init_rate_registers(sim.switch_mut(SwitchId(sw)));
    }
    let setup = SetupTimes {
        schedule_s: (t1 - t0).as_secs_f64(),
        build_s: (t2 - t1).as_secs_f64(),
        init_s: t2.elapsed().as_secs_f64(),
    };

    let (run_s, allocs) = timed_run(&mut sim, run_ns);

    let tr = v.traced;
    let mut completions = Vec::with_capacity(flows_total);
    let mut fp = 0;
    for i in fg_range {
        let a = app::<FlowGenApp>(&sim, HostId(i), tr);
        completions.extend_from_slice(&a.completions);
        fp = fold(fp, a.frames_sent);
    }
    let mut errors = Vec::new();
    check_completions(&completions, &mut errors);
    fp = fold(fp, completions_fingerprint(completions.iter().copied()));
    for i in 0..MON {
        let m = app::<MicroburstMonitor>(&sim, HostId(i), tr);
        fp = fold(fp, m.probes_sent ^ (m.samples.len() as u64) << 32);
    }
    for i in MON + RCP..SPECIAL {
        let c = app::<TraceCollector>(&sim, HostId(n_hosts - 1 - i), tr);
        fp = fold(fp, c.traces.len() as u64);
    }
    let ops = Ops {
        attempted: flows_total as u64,
        ok: completions.len() as u64,
        ms: fct_ms(&completions),
    };
    let timing = Timing {
        setup,
        run_s,
        run_ns,
        allocs,
    };
    finish(sim, v, timing, ops, fp, errors, TransportStats::default())
}

/// Lossy closed-loop fabric: every flow runs the `tpp-host` transport.
fn fabric_closed_lossy(seed: u64, v: Variant) -> Outcome {
    const LOSS_PERMILLE: u16 = 5;
    let params = FatTreeParams {
        k: 8,
        hosts_per_edge: 0,
        link_kbps: FAT_TREE_LINK_KBPS,
        queue_limit_bytes: 4 * 1024 * 1024,
        delay_ns: time::micros(1),
        host_nic_kbps: HOST_NIC_KBPS,
    };
    let traffic = TrafficConfig {
        seed: splitmix64(seed ^ 0xC105),
        flows_per_host: 150,
        mean_gap_ns: 250_000,
        // Below 512 B most data-mining flows would share one size and so
        // one FCT, pinning `op_p50_ms` to the same value for every seed.
        min_bytes: 64,
        ..Default::default()
    };
    let closed = ClosedLoopConfig {
        transport: TransportConfig {
            seed: splitmix64(seed ^ 0x7C9),
            ..Default::default()
        },
        ..Default::default()
    };
    let drain_ns = time::millis(60);

    let t0 = Instant::now();
    let n_hosts = params.n_hosts();
    let macs: Vec<EthernetAddress> = (0..n_hosts)
        .map(|i| EthernetAddress::from_host_id(i as u32))
        .collect();
    let (schedules, horizon_ns) = poisson_schedules(&traffic, &macs);
    let flows_total: usize = schedules.iter().map(Vec::len).sum();
    let run_ns = horizon_ns + drain_ns;
    let t1 = Instant::now();

    let apps: Vec<Box<dyn HostApp>> = schedules
        .into_iter()
        .map(|sched| {
            let a = ClosedFlowGenApp::new(sched, closed.clone());
            wrap(v, Box::new(a), Layer::Transport)
        })
        .collect();
    let config = sim_config(seed, v, false)
        .ecmp(true)
        .tick_interval_ns(time::millis(1));
    let (mut sim, tree) = fat_tree_with(config, params.clone(), apps);
    let t2 = Instant::now();
    for sw in 0..sim.num_switches() {
        init_rate_registers(sim.switch_mut(SwitchId(sw)));
    }
    // Loss on every inter-switch link direction; host links stay clean,
    // so recovery is the transport's job.
    let hpe = params.effective_hosts_per_edge();
    let half = params.k / 2;
    for edge in tree.edges.iter().flatten() {
        for a in 0..half {
            let up = Endpoint::switch(*edge, (hpe + a) as PortId);
            sim.set_link_loss(up, LOSS_PERMILLE);
        }
    }
    for sw in tree.aggs.iter().flatten().chain(tree.cores.iter()) {
        for p in 0..params.k {
            sim.set_link_loss(Endpoint::switch(*sw, p as PortId), LOSS_PERMILLE);
        }
    }
    let setup = SetupTimes {
        schedule_s: (t1 - t0).as_secs_f64(),
        build_s: (t2 - t1).as_secs_f64(),
        init_s: t2.elapsed().as_secs_f64(),
    };

    let (run_s, allocs) = timed_run(&mut sim, run_ns);

    let tr = v.traced;
    let mut completions = Vec::with_capacity(flows_total);
    let mut stats = TransportStats::default();
    for i in 0..n_hosts {
        let a = app::<ClosedFlowGenApp>(&sim, HostId(i), tr);
        completions.extend_from_slice(&a.completions);
        stats.merge(&a.stats_snapshot());
    }
    let mut errors = Vec::new();
    check_completions(&completions, &mut errors);
    if stats.flows_started != flows_total as u64 {
        errors.push(format!(
            "{} of {flows_total} flows started",
            stats.flows_started
        ));
    }
    if stats.flows_completed > completions.len() as u64 {
        errors.push("a sender saw its flow acknowledged but no receiver completed it".into());
    }
    let mut fp = completions_fingerprint(completions.iter().copied());
    for x in [
        stats.segments_sent,
        stats.retransmits,
        stats.rto_fires,
        stats.fast_retransmits,
        stats.flows_given_up,
        stats.acks_sent,
        stats.probes_sent,
    ] {
        fp = fold(fp, x);
    }
    let ops = Ops {
        attempted: flows_total as u64,
        ok: completions.len() as u64,
        ms: fct_ms(&completions),
    };
    let timing = Timing {
        setup,
        run_s,
        run_ns,
        allocs,
    };
    finish(sim, v, timing, ops, fp, errors, stats)
}

/// Role of a sending host in `probe_storm`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Role {
    Monitor,
    Ndb,
    Writer,
}

/// Leaf-spine fabric; hosts on the first half of the leaves send TPPs
/// to a seeded partner on the second half, which reflects or collects
/// them.
fn probe_storm(seed: u64, v: Variant) -> Outcome {
    const LEAVES: usize = 8;
    const HOSTS_PER_LEAF: usize = 16;
    const PROBE_GAP_NS: u64 = 4_000;
    const ACTIVE_NS: u64 = 20_000_000;
    const DRAIN_NS: u64 = 2_000_000;
    const WRITER_GOAL: u32 = 60;
    /// Switch scratch word of the counter every writer under one leaf
    /// increments (per-writer guard cells sit above it).
    const COUNTER_WORD: usize = 0;
    /// `leaf_spine_with` numbers leaf `l` `0x10 + l`; writers gate on
    /// their own leaf, the first switch every one of their probes
    /// crosses. Checked after the build.
    const LEAF_ID_BASE: u32 = 0x10;
    let params = LeafSpineParams {
        n_leaves: LEAVES,
        n_spines: 4,
        hosts_per_leaf: HOSTS_PER_LEAF,
        queue_limit_bytes: 1024 * 1024,
        ..Default::default()
    };
    let n_hosts = LEAVES * HOSTS_PER_LEAF;
    let senders = n_hosts / 2;
    let run_ns = ACTIVE_NS + DRAIN_NS;
    let mac = |i: usize| EthernetAddress::from_host_id(i as u32);

    let t0 = Instant::now();
    // Seeded partner permutation, probe phases and cable lengths.
    let mut rng = Rng64::new(splitmix64(seed ^ 0x9B0B));
    let mut partner: Vec<usize> = (senders..n_hosts).collect();
    for i in (1..partner.len()).rev() {
        partner.swap(i, rng.next_below(i as u64 + 1) as usize);
    }
    let phase: Vec<u64> = (0..senders).map(|_| rng.next_below(PROBE_GAP_NS)).collect();
    // Seeded host cable lengths, 0 to 80 m of fibre: without them every
    // probe of a run, and of every seed, would take the same time.
    let cable_ns: Vec<u64> = (0..senders).map(|_| rng.next_below(400)).collect();
    let role = |i: usize| match i % 8 {
        0 | 1 => Role::Monitor,
        2 => Role::Ndb,
        _ => Role::Writer,
    };
    let mut collects = vec![false; n_hosts];
    for i in (0..senders).filter(|&i| role(i) == Role::Ndb) {
        collects[partner[i]] = true;
    }
    let t1 = Instant::now();

    let apps: Vec<Box<dyn HostApp>> = (0..n_hosts)
        .map(|i| {
            let a: Box<dyn HostApp> = if i < senders {
                let dst = mac(partner[i]);
                match role(i) {
                    Role::Monitor => Box::new(MicroburstMonitor::new(
                        dst,
                        3,
                        PROBE_GAP_NS,
                        phase[i],
                        ACTIVE_NS,
                    )),
                    Role::Ndb => Box::new(NdbProbeSender::new(
                        dst,
                        3,
                        PROBE_GAP_NS,
                        (ACTIVE_NS / PROBE_GAP_NS) as u32,
                    )),
                    Role::Writer => Box::new(CounterTask::new(
                        dst,
                        LEAF_ID_BASE + (i / HOSTS_PER_LEAF) as u32,
                        COUNTER_WORD,
                        WRITER_GOAL,
                        CounterWriteMode::Linearizable,
                    )),
                }
            } else if collects[i] {
                Box::new(TraceCollector::default())
            } else {
                Box::new(EchoReceiver::default())
            };
            wrap(v, a, Layer::Apps)
        })
        .collect();
    let config = sim_config(seed, v, true).tick_interval_ns(time::micros(20));
    let (mut sim, ls) = leaf_spine_with(config, params, apps);
    let t2 = Instant::now();
    for (h, extra_delay_ns) in cable_ns.iter().enumerate() {
        let cable = LinkState {
            extra_delay_ns: *extra_delay_ns,
            ..LinkState::nominal()
        };
        let profile = LinkProfile::step().at(0, cable);
        sim.set_link_profile(Endpoint::host(HostId(h)), Some(profile));
    }
    let setup = SetupTimes {
        schedule_s: (t1 - t0).as_secs_f64(),
        build_s: (t2 - t1).as_secs_f64(),
        init_s: t2.elapsed().as_secs_f64(),
    };

    let (run_s, allocs) = timed_run(&mut sim, run_ns);

    let tr = v.traced;
    let mut errors = Vec::new();
    let mut attempted = 0u64;
    let mut delivered = 0u64;
    let mut op_ms = Vec::new();
    let mut fp = 0u64;
    let mut leaf_increments = [0u64; LEAVES];
    for i in 0..senders {
        match role(i) {
            Role::Monitor => {
                let m = app::<MicroburstMonitor>(&sim, HostId(i), tr);
                attempted += m.probes_sent;
                delivered += m.echoes_received;
                for (sent, rtt) in &m.rtts {
                    op_ms.push(*rtt as f64 / 1e6);
                    fp = fold(fp, sent ^ rtt << 40);
                }
                for s in &m.samples {
                    fp = fold(
                        fp,
                        s.t_ns ^ (s.switch_id as u64) << 40 ^ s.queue_bytes as u64,
                    );
                }
            }
            Role::Ndb => {
                let s = app::<NdbProbeSender>(&sim, HostId(i), tr);
                let c = app::<TraceCollector>(&sim, HostId(partner[i]), tr);
                attempted += s.sent_ids.len() as u64;
                delivered += c.traces.len() as u64;
                for t in &c.traces {
                    // Sends fire at 1 ns and then every probe gap.
                    let sent = 1 + t.packet_id as u64 * PROBE_GAP_NS;
                    op_ms.push(t.t_ns.saturating_sub(sent) as f64 / 1e6);
                    fp = fold(fp, t.t_ns ^ (t.packet_id as u64) << 40);
                    for h in &t.hops {
                        fp = fold(fp, (h.switch_id as u64) << 32 ^ h.input_port as u64);
                    }
                }
                if c.undecodable > 0 {
                    errors.push(format!("{} undecodable ndb traces", c.undecodable));
                }
            }
            Role::Writer => {
                let w = app::<CounterTask>(&sim, HostId(i), tr);
                attempted += WRITER_GOAL as u64;
                delivered += w.completed as u64;
                leaf_increments[i / HOSTS_PER_LEAF] += w.completed as u64;
                fp = fold(fp, w.conflicts ^ w.round_trips << 32);
            }
        }
    }
    // SRAM readback: each leaf's shared counter holds exactly the
    // increments its writers saw applied (CSTORE loses none).
    for (l, leaf) in ls.leaves.iter().enumerate() {
        if sim.switch(*leaf).switch_id() != LEAF_ID_BASE + l as u32 {
            errors.push(format!(
                "leaf {l} is not switch id {}",
                LEAF_ID_BASE + l as u32
            ));
        }
        let word = sim
            .switch(*leaf)
            .global_sram()
            .word(COUNTER_WORD)
            .expect("counter word in scratch SRAM") as u64;
        fp = fold(fp, word);
        if word != leaf_increments[l] {
            errors.push(format!(
                "leaf {l}: SRAM counter {word} != {} increments applied",
                leaf_increments[l]
            ));
        }
    }
    let ops = Ops {
        attempted,
        ok: delivered,
        ms: op_ms,
    };
    let timing = Timing {
        setup,
        run_s,
        run_ns,
        allocs,
    };
    finish(sim, v, timing, ops, fp, errors, TransportStats::default())
}

/// A workload's operations: how many were attempted, how many
/// succeeded, and the simulated completion times (ms, any order).
struct Ops {
    attempted: u64,
    ok: u64,
    ms: Vec<f64>,
}

/// What the simulator was asked to do and how long it took.
struct Timing {
    setup: SetupTimes,
    run_s: f64,
    run_ns: u64,
    allocs: u64,
}

/// Fold the fleet counters into the fingerprint and assemble the outcome.
fn finish(
    sim: Simulator,
    v: Variant,
    timing: Timing,
    mut ops: Ops,
    fp: u64,
    mut errors: Vec<String>,
    transport: TransportStats,
) -> Outcome {
    let fleet = fleet(&sim);
    let fingerprint = fold(fold(fp, fleet.tpps_executed), fleet.link_losses);
    let (layers, mix) = if v.traced {
        host_layers(&sim)
    } else {
        Default::default()
    };
    if ops.ok > ops.attempted {
        errors.push(format!(
            "{} of {} operations succeeded",
            ops.ok, ops.attempted
        ));
    }
    ops.ms.sort_by(f64::total_cmp);
    Outcome {
        setup: timing.setup,
        run_s: timing.run_s,
        sim_s: timing.run_ns as f64 / 1e9,
        allocs: timing.allocs,
        ops_attempted: ops.attempted,
        ops_failed: ops.attempted.saturating_sub(ops.ok),
        op_ms: ops.ms,
        fingerprint,
        errors,
        fleet,
        transport,
        layers,
        mix,
    }
}
