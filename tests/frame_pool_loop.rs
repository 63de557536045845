//! The host frame-buffer loop is closed: host stacks build their frames
//! in buffers drawn from the simulator's frame pool and hand consumed
//! frames back, so a steady-state run reuses buffers instead of
//! allocating one per packet.
//!
//! An app that recycles frames without ever drawing from the pool fills
//! it to its bound and pins that memory for the whole run while every
//! send still allocates; these runs catch such an app through
//! `frame_pool_stats()`.

use tpp::apps::microburst::MicroburstMonitor;
use tpp::apps::rcpstar::init_rate_registers;
use tpp::host::EchoReceiver;
use tpp::netsim::{
    fat_tree_with, leaf_spine, time, Endpoint, FatTreeParams, HostApp, HostId, LeafSpineParams,
    RunLimit, SimConfig,
};
use tpp::wire::EthernetAddress;
use tpp_bench::traffic::{
    generate_schedule, ClosedFlowGenApp, ClosedLoopConfig, FlowSizeDist, TrafficConfig,
};

/// `reused / (reused + fresh)` of a run's pool counters.
fn reuse_ratio((reused, fresh, _recycled): (u64, u64, u64)) -> f64 {
    reused as f64 / (reused + fresh).max(1) as f64
}

#[test]
fn closed_loop_lossy_fat_tree_reuses_pooled_frames() {
    let params = FatTreeParams::default(); // k=4: 16 hosts, 20 switches
    let half = params.k / 2;
    let hpe = params.effective_hosts_per_edge();
    let n_hosts = params.n_hosts();
    let macs: Vec<EthernetAddress> = (0..n_hosts)
        .map(|i| EthernetAddress::from_host_id(i as u32))
        .collect();
    let traffic = TrafficConfig {
        seed: 12,
        flows_per_host: 15,
        mean_gap_ns: 200_000,
        ..Default::default()
    };
    let mut last_start = 0;
    let apps: Vec<Box<dyn HostApp>> = (0..n_hosts)
        .map(|i| {
            let dist = if i % 2 == 0 {
                FlowSizeDist::WebSearch
            } else {
                FlowSizeDist::DataMining
            };
            let sched = generate_schedule(&traffic, i as u32, &macs, dist);
            last_start = sched
                .last()
                .map_or(last_start, |f| f.start_ns.max(last_start));
            Box::new(ClosedFlowGenApp::new(sched, ClosedLoopConfig::default())) as _
        })
        .collect();
    let config = SimConfig::new().ecmp(true).sequential();
    let (mut sim, tree) = fat_tree_with(config, params, apps);
    for sw in tree
        .edges
        .iter()
        .chain(tree.aggs.iter())
        .flatten()
        .chain(tree.cores.iter())
    {
        init_rate_registers(sim.switch_mut(*sw));
    }
    // 5 permille loss on every inter-switch link, both directions.
    for edge in tree.edges.iter().flatten() {
        for a in 0..half {
            sim.set_link_loss(Endpoint::switch(*edge, (hpe + a) as u16), 5);
        }
    }
    for sw in tree.aggs.iter().flatten().chain(tree.cores.iter()) {
        for p in 0..2 * half {
            sim.set_link_loss(Endpoint::switch(*sw, p as u16), 5);
        }
    }
    sim.run(RunLimit::Until(last_start + time::millis(40)));

    let (completed, retransmits) = (0..n_hosts).fold((0, 0), |(c, r), i| {
        let s = sim.host_app::<ClosedFlowGenApp>(HostId(i)).stats_snapshot();
        (c + s.flows_completed, r + s.retransmits)
    });
    assert!(completed > 0, "the workload ran");
    assert!(retransmits > 0, "seeded loss forced recovery");
    let stats = sim.frame_pool_stats();
    let (reused, fresh, recycled) = stats;
    let ratio = reuse_ratio(stats);
    assert!(
        ratio >= 0.9,
        "closed-loop hosts must draw their frames from the pool: \
         (reused, fresh, recycled) = {stats:?}, reuse ratio {ratio:.3}"
    );
    // Every frame of this run is drawn from the pool, so the pool can
    // never hold more idle buffers than it ever allocated. A frame built
    // outside the pool and recycled into it breaks this.
    assert!(
        recycled - reused <= fresh,
        "idle buffers the pool never allocated: (reused, fresh, recycled) = {stats:?}"
    );
}

#[test]
fn leaf_spine_probes_and_echoes_reuse_pooled_frames() {
    let params = LeafSpineParams::default(); // 4 leaves x 4 hosts
    let n_hosts = params.n_leaves * params.hosts_per_leaf;
    let apps: Vec<Box<dyn HostApp>> = (0..n_hosts)
        .map(|i| {
            if i == 0 {
                let peer = EthernetAddress::from_host_id(n_hosts as u32 - 1);
                Box::new(MicroburstMonitor::new(
                    peer,
                    4,
                    time::micros(20),
                    0,
                    time::millis(2),
                )) as Box<dyn HostApp>
            } else {
                Box::new(EchoReceiver::default())
            }
        })
        .collect();
    let (mut sim, _fabric) = leaf_spine(params, apps);
    sim.run(RunLimit::Until(time::millis(3)));

    let monitor = sim.host_app::<MicroburstMonitor>(HostId(0));
    assert!(monitor.echoes_received > 0, "probes were echoed");
    let echoer = sim.host_app::<EchoReceiver>(HostId(n_hosts - 1));
    assert_eq!(echoer.tpps_echoed, monitor.probes_sent);
    let stats = sim.frame_pool_stats();
    assert!(
        stats.0 > 0,
        "probes must be built in recycled echo buffers: (reused, fresh, recycled) = {stats:?}"
    );
}
