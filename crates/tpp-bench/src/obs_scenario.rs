//! The seeded microburst scenario behind `tpp-top` and the obs goldens.
//!
//! A 2-leaf × 2-spine fabric; host 0 runs the §2.1 [`MicroburstMonitor`]
//! probing the victim host across the fabric while two bursters incast
//! it, building a queue at the victim leaf's egress port. Every switch
//! runs the dataplane profiler (sample-every-packet) and the simulator
//! records ring series, so one run exercises the whole observability
//! plane: stage latencies, budget violations under queueing, series
//! peaks, and the collector's divergence check — which must come out
//! exact, because the run is lossless and fully drained.
//!
//! Everything is deterministic (seeded reservoirs, discrete-event time,
//! no wall clock), so the scenario's Prometheus snapshot, series dump
//! and dashboard frames can be pinned as golden files in CI. The
//! dashboard drives it as [`DashFeed::obs`]; [`run_obs_scenario`] runs
//! that feed to the end and checks the scenario's invariants.
//!
//! [`DashFeed::obs`]: crate::dash_scenario::DashFeed::obs

use tpp_apps::{detect_bursts, MicroburstMonitor};
use tpp_asic::ProfileConfig;
use tpp_host::EchoReceiver;
use tpp_netsim::{
    leaf_spine, time, HostApp, HostCtx, HostId, LeafSpine, LeafSpineParams, Simulator, SwitchId,
};
use tpp_wire::ethernet::{build_frame, EtherType};
use tpp_wire::EthernetAddress;

use crate::dash_scenario::DashFeed;

/// Probe interval (one probe per ~RTT).
pub const PROBE_INTERVAL_NS: u64 = 10_000;
/// The burst window start.
pub const BURST_START_NS: u64 = 200_000;
/// The burst window end.
pub const BURST_END_NS: u64 = 600_000;
/// Monitor keeps probing well past the burst so the final samples see
/// drained queues (the ~50 KB backlog takes ~400 µs to drain at
/// 1 Gb/s, emptying around t=1.05 ms).
pub const PROBE_STOP_NS: u64 = 1_300_000;
/// Upper bound for the run (the scenario quiesces much earlier).
pub const SCENARIO_END_NS: u64 = 3_000_000;

/// A host incasting fixed-size data frames at a victim during
/// `[start_ns, stop_ns)`.
struct Burster {
    target: EthernetAddress,
    start_ns: u64,
    stop_ns: u64,
    period_ns: u64,
    payload_len: usize,
    sent: u64,
}

impl HostApp for Burster {
    fn on_start(&mut self, ctx: &mut HostCtx<'_>) {
        ctx.set_timer(self.start_ns, 0);
    }

    fn on_timer(&mut self, _token: u64, ctx: &mut HostCtx<'_>) {
        if ctx.now() >= self.stop_ns {
            return;
        }
        let frame = build_frame(
            self.target,
            ctx.mac(),
            EtherType(0x0800),
            &vec![0u8; self.payload_len],
        );
        ctx.send(frame);
        self.sent += 1;
        ctx.set_timer(self.period_ns, 0);
    }
}

/// The built scenario at t=0: the simulator plus its topology handles.
/// Turn it into a [`DashFeed`] to step, snapshot and export it.
pub struct ObsScenario {
    /// The simulator (profiling and series enabled on every switch).
    pub sim: Simulator,
    /// Topology handles.
    pub fabric: LeafSpine,
    /// The host running the [`MicroburstMonitor`].
    pub monitor_host: HostId,
}

impl ObsScenario {
    /// Build the scenario at t=0: monitor on host 0 (leaf 0), echoing
    /// victim on host 2 (leaf 1), bursters on hosts 1 and 3.
    pub fn new() -> Self {
        let params = LeafSpineParams {
            n_leaves: 2,
            n_spines: 2,
            hosts_per_leaf: 2,
            host_link_kbps: 1_000_000, // 1 Gb/s: 8 ns of drain per queued byte
            fabric_link_kbps: 1_000_000,
            queue_limit_bytes: 256 * 1024, // lossless: the burst peaks far below
            delay_ns: time::micros(1),
            host_nic_kbps: 1_000_000,
        };
        let victim = EthernetAddress::from_host_id(2);
        let burster = |start_extra: u64| -> Box<dyn HostApp> {
            Box::new(Burster {
                target: victim,
                start_ns: BURST_START_NS + start_extra,
                stop_ns: BURST_END_NS,
                period_ns: 12_000, // ~1400 B / 12 µs ≈ line rate per burster
                payload_len: 1400,
                sent: 0,
            })
        };
        let apps: Vec<Box<dyn HostApp>> = vec![
            Box::new(MicroburstMonitor::new(
                victim,
                6, // leaf-spine-leaf out and back
                PROBE_INTERVAL_NS,
                50_000,
                PROBE_STOP_NS,
            )),
            burster(0),
            Box::new(EchoReceiver::default()),
            burster(3_000), // offset so the two bursts interleave
        ];
        let (mut sim, fabric) = leaf_spine(params, apps);
        // 20 µs ticks: fine-grained series without drowning the run.
        sim.observe().tick_interval_ns(time::micros(20));
        for &s in fabric.leaves.iter().chain(fabric.spines.iter()) {
            sim.switch_mut(s).enable_profiling(ProfileConfig::default());
        }
        sim.observe().series(128);
        let monitor_host = fabric.hosts[0][0];
        ObsScenario {
            sim,
            fabric,
            monitor_host,
        }
    }
}

impl Default for ObsScenario {
    fn default() -> Self {
        ObsScenario::new()
    }
}

/// The finished scenario's exports and invariants.
pub struct ObsRun {
    /// Prometheus text-format snapshot of the fleet + collector.
    pub prom: String,
    /// JSONL dump of the ring series.
    pub series: String,
    /// Budget violations across all switches (must be > 0: the incast
    /// queues probes behind multiple 300 ns drains).
    pub budget_violations: u64,
    /// Worst collector-vs-ground-truth divergence (must be 0: the run
    /// is lossless and drained).
    pub divergence_max_bytes: u64,
    /// Probes the monitor sent / echoes it got back.
    pub probes_sent: u64,
    /// Echoes received.
    pub echoes_received: u64,
    /// High watermark of the victim leaf's queues, bytes.
    pub peak_queue_bytes: u64,
    /// Micro-bursts the §2.1 detector finds in the victim-leaf series.
    pub bursts_detected: usize,
}

/// Drive the scenario's dashboard feed to quiescence, read its exports,
/// and measure the scenario's invariants.
pub fn run_obs_scenario() -> ObsRun {
    let sc = ObsScenario::new();
    let victim_leaf = sc.fabric.leaves[1];
    let monitor_host = sc.monitor_host;
    let mut feed = DashFeed::from(sc);
    feed.run_to_end();
    let sim = feed.sim();

    let victim_leaf_id = sim.switch(victim_leaf).switch_id();
    let monitor = sim.host_app::<MicroburstMonitor>(monitor_host);
    let bursts = detect_bursts(
        &monitor.series_for(victim_leaf_id),
        5_000,
        5 * PROBE_INTERVAL_NS,
    );
    let budget_violations = (0..sim.num_switches())
        .map(|i| {
            sim.switch(SwitchId(i))
                .profile()
                .map_or(0, |p| p.budget_violations())
        })
        .sum();

    ObsRun {
        prom: feed.prom(),
        series: feed.series_dump(),
        budget_violations,
        divergence_max_bytes: feed.collector().divergence_vs_sim(sim).max_abs_bytes,
        probes_sent: monitor.probes_sent,
        echoes_received: monitor.echoes_received,
        peak_queue_bytes: sim.switch(victim_leaf).hottest_queue().2,
        bursts_detected: bursts.len(),
    }
}
