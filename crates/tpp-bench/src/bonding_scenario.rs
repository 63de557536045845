//! The seeded bonding-failover scenario behind `bonding_demo` and the
//! bonding chaos tests.
//!
//! A two-path bonded diamond (two switches per path) carries a
//! sequenced data flow while `bonding_collect()` probes feed the
//! sender's [`tpp_host::BondScheduler`]. Path 0 then has a very bad
//! day, in three acts:
//!
//! 1. **t=4–12 ms** — a cellular-style degradation ramp on the sender's
//!    path-0 NIC link: loss climbs to 30%, latency inflates by 200 µs,
//!    and the link slows to a fifth of its rate, then all three ramp
//!    back down ([`tpp_netsim::LinkProfile::cellular_degradation`]).
//! 2. **t=15–18 ms** — the path-0 fabric link flaps hard down/up (a
//!    seeded [`FaultPlan`]).
//! 3. **t=20 ms** — the second path-0 switch reboots, bumping its
//!    `Switch:BootEpoch`.
//!
//! The scheduler must ride through all of it on probe telemetry alone:
//! shift weight off the degrading path, fail over within a bounded
//! number of probe intervals when the flap kills probes outright, and
//! fail over *immediately* when an echo reveals the epoch bump — while
//! the retransmission + receiver-dedup layers keep delivery exactly
//! once. Everything is seeded and discrete-event, so
//! [`BondingRun::fingerprint`] must be bit-identical at any shard
//! count.

use tpp_apps::bonding::{BondReceiver, BondSender, BondSenderConfig};
use tpp_host::bonding::{BondConfig, HealthEvent, PathHealth};
use tpp_netsim::{
    bonded_diamond_with, time, BondedDiamond, BondedDiamondParams, Endpoint, FaultPlan,
    LinkProfile, LinkState, RunLimit, SimConfig, Simulator,
};
use tpp_telemetry::percentile_index;
use tpp_wire::EthernetAddress;

/// Probe cadence per path.
pub const PROBE_INTERVAL_NS: u64 = time::micros(50);
/// A probe unanswered this long is a miss.
pub const PROBE_TIMEOUT_NS: u64 = time::micros(300);
/// Probing runs past every fault so failback is visible.
pub const PROBE_STOP_NS: u64 = time::millis(30);
/// Data-frame cadence.
pub const DATA_INTERVAL_NS: u64 = time::micros(20);
/// The data flow's window.
pub const DATA_START_NS: u64 = time::micros(500);
/// End of the data window.
pub const DATA_STOP_NS: u64 = time::millis(25);
/// The degradation ramp begins here…
pub const DEGRADE_START_NS: u64 = time::millis(4);
/// …and the fabric flap window is `[FLAP_DOWN_NS, FLAP_UP_NS)`.
pub const FLAP_DOWN_NS: u64 = time::millis(15);
/// The flapped link comes back here.
pub const FLAP_UP_NS: u64 = time::millis(18);
/// The second path-0 switch reboots here.
pub const REBOOT_NS: u64 = time::millis(20);
/// Hard stop for the run (it quiesces much earlier).
pub const SCENARIO_END_NS: u64 = time::millis(40);
/// Seed for the fault plan's RNG streams.
pub const PLAN_SEED: u64 = 0x0b0d_0b0d;

/// The sender-side app configuration the scenario uses.
pub fn sender_config() -> BondSenderConfig {
    BondSenderConfig {
        dst: EthernetAddress::from_host_id(1),
        expected_hops: 4, // 2 switches out + 2 back
        probe_interval_ns: PROBE_INTERVAL_NS,
        probe_timeout_ns: PROBE_TIMEOUT_NS,
        probe_stop_ns: PROBE_STOP_NS,
        data_interval_ns: DATA_INTERVAL_NS,
        data_start_ns: DATA_START_NS,
        data_stop_ns: DATA_STOP_NS,
        payload_bytes: 1000,
        rto_ns: time::micros(800),
        bond: BondConfig::default(),
    }
}

/// Build the scenario under `config`: bonded diamond, degradation
/// profile on the path-0 NIC link, flap + reboot fault plan installed.
pub fn build(config: SimConfig) -> (Simulator, BondedDiamond) {
    let (mut sim, diamond) = bonded_diamond_with(
        config,
        BondedDiamondParams::default(),
        Box::new(BondSender::new(sender_config())),
        Box::new(BondReceiver::default()),
    );
    // Act 1: the cellular-style ramp on the sender's path-0 NIC link.
    let ramp = time::millis(2);
    let hold = time::millis(4);
    let worst = LinkState {
        loss_permille: 300,
        extra_delay_ns: time::micros(200),
        rate_permille: 200,
    };
    sim.set_link_profile(
        diamond.sender_nic(0),
        Some(LinkProfile::cellular_degradation(
            DEGRADE_START_NS,
            ramp,
            hold,
            worst,
        )),
    );
    // Acts 2 and 3: fabric flap, then a reboot further down the path.
    let fabric0 = Endpoint::switch(diamond.paths[0][0], 1);
    let mut plan = FaultPlan::new(PLAN_SEED);
    plan.link_flap(FLAP_DOWN_NS, FLAP_UP_NS, fabric0)
        .switch_reboot(REBOOT_NS, diamond.paths[0][1]);
    sim.install_faults(&plan);
    (sim, diamond)
}

/// Everything the demo prints and the chaos tests assert on, all of it
/// derived from simulation state only (no wall clock) so it is
/// shard-invariant and CI can byte-diff the JSON.
#[derive(Debug, Clone)]
pub struct BondingRun {
    /// Data sequences the sender issued.
    pub sequences_sent: u64,
    /// Sequences the receiver's application layer saw (exactly once
    /// each when `duplicate_deliveries == 0`).
    pub delivered: u64,
    /// Sequences delivered more than once to the app (must be 0).
    pub duplicate_deliveries: u64,
    /// Redundant copies the receiver suppressed before the app.
    pub duplicates_suppressed: u64,
    /// Sender retransmissions (RTO-driven).
    pub retransmits: u64,
    /// Proactive duplicate copies the scheduler requested.
    pub duplicates_sent: u64,
    /// Sequences still unacked at the end (must be 0).
    pub unacked: u64,
    /// Probes sent / echoes decoded / losses charged, per path.
    pub path_probes: Vec<(u64, u64, u64)>,
    /// First data copies scheduled per path.
    pub path_data_sent: Vec<u64>,
    /// Frames each sender NIC actually put on the wire.
    pub path_tx_frames: Vec<u64>,
    /// The scheduler's health-transition log.
    pub health_events: Vec<HealthEvent>,
    /// ns from the fabric flap to the scheduler marking path 0 `Down`.
    pub failover_detect_ns: Option<u64>,
    /// Boot-epoch changes the probes surfaced.
    pub epoch_changes: u64,
    /// Ack-latency percentiles `(p50, p99, max)`, ns.
    pub ack_latency_ns: (u64, u64, u64),
    /// Application goodput over the data window, Mbit/s.
    pub goodput_mbps: f64,
    /// Simulation time when the run went quiescent.
    pub quiesced_at_ns: u64,
}

impl BondingRun {
    /// A deterministic digest of everything observable: identical
    /// configs must produce identical fingerprints at 1, 2, or 4
    /// shards.
    pub fn fingerprint(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut mix = |v: u64| {
            h ^= v;
            h = h.wrapping_mul(0x100_0000_01b3);
        };
        mix(self.sequences_sent);
        mix(self.delivered);
        mix(self.duplicate_deliveries);
        mix(self.duplicates_suppressed);
        mix(self.retransmits);
        mix(self.duplicates_sent);
        mix(self.unacked);
        for &(s, e, l) in &self.path_probes {
            mix(s);
            mix(e);
            mix(l);
        }
        for &d in &self.path_data_sent {
            mix(d);
        }
        for &t in &self.path_tx_frames {
            mix(t);
        }
        for ev in &self.health_events {
            mix(ev.t_ns);
            mix(ev.path as u64);
            mix(health_code(ev.from));
            mix(health_code(ev.to));
        }
        mix(self.failover_detect_ns.unwrap_or(u64::MAX));
        mix(self.epoch_changes);
        mix(self.ack_latency_ns.0);
        mix(self.ack_latency_ns.1);
        mix(self.ack_latency_ns.2);
        mix(self.quiesced_at_ns);
        h
    }

    /// Render as the JSON document committed at `BENCH_bonding.json`.
    pub fn to_json(&self) -> String {
        let events: Vec<String> = self
            .health_events
            .iter()
            .map(|e| {
                format!(
                    "    {{\"t_us\": {}, \"path\": {}, \"from\": \"{:?}\", \"to\": \"{:?}\"}}",
                    e.t_ns / 1000,
                    e.path,
                    e.from,
                    e.to
                )
            })
            .collect();
        let paths: Vec<String> = self
            .path_probes
            .iter()
            .enumerate()
            .map(|(i, &(sent, echoes, lost))| {
                format!(
                    "    {{\"path\": {i}, \"probes_sent\": {sent}, \"echoes\": {echoes}, \
                     \"probes_lost\": {lost}, \"data_sent\": {}, \"tx_frames\": {}}}",
                    self.path_data_sent[i], self.path_tx_frames[i]
                )
            })
            .collect();
        format!(
            "{{\n  \"bench\": \"bonding_failover\",\n  \"sequences_sent\": {},\n  \
             \"delivered\": {},\n  \"duplicate_deliveries\": {},\n  \
             \"duplicates_suppressed\": {},\n  \"retransmits\": {},\n  \
             \"duplicates_sent\": {},\n  \"epoch_changes\": {},\n  \
             \"failover_detect_us\": {},\n  \
             \"ack_latency_us\": {{\"p50\": {}, \"p99\": {}, \"max\": {}}},\n  \
             \"goodput_mbps\": {:.2},\n  \"quiesced_at_us\": {},\n  \
             \"fingerprint\": \"{:#018x}\",\n  \"paths\": [\n{}\n  ],\n  \
             \"health_events\": [\n{}\n  ]\n}}\n",
            self.sequences_sent,
            self.delivered,
            self.duplicate_deliveries,
            self.duplicates_suppressed,
            self.retransmits,
            self.duplicates_sent,
            self.epoch_changes,
            self.failover_detect_ns
                .map_or("null".to_string(), |n| (n / 1000).to_string()),
            self.ack_latency_ns.0 / 1000,
            self.ack_latency_ns.1 / 1000,
            self.ack_latency_ns.2 / 1000,
            self.goodput_mbps,
            self.quiesced_at_ns / 1000,
            self.fingerprint(),
            paths.join(",\n"),
            events.join(",\n"),
        )
    }
}

fn health_code(h: PathHealth) -> u64 {
    match h {
        PathHealth::Good => 0,
        PathHealth::Degraded => 1,
        PathHealth::Down => 2,
    }
}

/// Drive the scenario to quiescence under `config` and fold the result.
pub fn run_bonding_scenario(config: SimConfig) -> BondingRun {
    let (mut sim, diamond) = build(config);
    sim.run(RunLimit::Quiescent {
        limit_ns: SCENARIO_END_NS,
    });
    let quiesced_at_ns = sim.now();

    let path_tx_frames: Vec<u64> = (0..2)
        .map(|p| sim.link_tx_frames(diamond.sender_nic(p)))
        .collect();
    let rx = sim.host_app::<BondReceiver>(diamond.receiver);
    let delivered = rx.delivered.len() as u64;
    let mut sorted_delivered = rx.delivered.clone();
    sorted_delivered.sort_unstable();
    sorted_delivered.dedup();
    let duplicate_deliveries = delivered - sorted_delivered.len() as u64;
    let duplicates_suppressed = rx.duplicates_suppressed;

    let tx = sim.host_app::<BondSender>(diamond.sender);
    let path_probes: Vec<(u64, u64, u64)> = (0..tx.bond.num_paths())
        .map(|p| (tx.probes_sent[p], tx.echoes_received[p], tx.bond.losses(p)))
        .collect();
    let mut latencies: Vec<u64> = tx.ack_latencies.iter().map(|&(_, l)| l).collect();
    latencies.sort_unstable();
    let latency = |p| percentile_index(latencies.len(), p).map_or(0, |i| latencies[i]);
    let failover_detect_ns = tx
        .bond
        .events()
        .iter()
        .find(|e| e.path == 0 && e.to == PathHealth::Down && e.t_ns >= FLAP_DOWN_NS)
        .map(|e| e.t_ns - FLAP_DOWN_NS);
    let payload_bits = (delivered * sender_config().payload_bytes as u64 * 8) as f64;
    let window_s = (DATA_STOP_NS - DATA_START_NS) as f64 / 1e9;
    BondingRun {
        sequences_sent: tx.sequences_sent(),
        delivered,
        duplicate_deliveries,
        duplicates_suppressed,
        retransmits: tx.retransmits,
        duplicates_sent: tx.duplicates_sent,
        unacked: tx.unacked_len() as u64,
        path_probes,
        path_data_sent: tx.data_sent.clone(),
        path_tx_frames,
        health_events: tx.bond.events().to_vec(),
        failover_detect_ns,
        epoch_changes: tx.epoch_changes,
        ack_latency_ns: (latency(0.50), latency(0.99), latency(1.0)),
        goodput_mbps: payload_bits / window_s / 1e6,
        quiesced_at_ns,
    }
}
