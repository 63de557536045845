//! Seeded benchmark of the TPP fabric simulator.
//!
//! ```console
//! $ cargo run --release --manifest-path fabricbench/Cargo.toml -- \
//!       --workload fabric_open --seed 1 --seconds 10 --trace 0
//! ```
//!
//! With `--trace 0` the workload is built and run repeatedly, untraced,
//! for `--seconds` host seconds, and the end-to-end metrics are the
//! medians over those runs. With `--trace 1` rounds of untraced,
//! traced, 2-shard threaded and series-flipped runs, then a standalone
//! ASIC replay of the traced frame mix, give the per-layer metrics. Every run's simulated results are folded into a
//! fingerprint that must agree across runs, tracing, shard counts and
//! (for the default seed) with the recorded value. The last line of
//! standard output is the JSON result.

mod replay;
mod trace;
mod workloads;

use std::hint::black_box;
use std::process::ExitCode;
use std::time::Instant;

use tpp_bench::traffic::{percentile, splitmix64};

use trace::CountingAllocator;
use workloads::{Outcome, Variant, Workload};

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

/// The seed whose fingerprints are recorded in
/// [`Workload::recorded_fingerprint`].
pub const DEFAULT_SEED: u64 = 1;

/// A seed kept out of all tuning, for re-checking a claimed gain.
pub const HELD_OUT_SEED: u64 = 977;

/// Fewest measured runs in one invocation, however short `--seconds`.
const MIN_RUNS: usize = 3;

/// Host seconds the ASIC replay measures for.
const REPLAY_S: f64 = 0.5;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(DEFAULT_SEED),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// Collects the result: metrics in order, correctness and op counts.
struct Report {
    metrics: Vec<(&'static str, f64, &'static str)>,
    errors: Vec<String>,
    attempted: u64,
    failed: u64,
}

impl Report {
    fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        if !value.is_finite() {
            self.errors.push(format!("{name} is not a finite number"));
        }
        self.metrics.push((name, value, unit));
    }

    /// Check one run and count its operations. A run that breaks an
    /// invariant or disagrees with `reference` counts all its
    /// operations as failed.
    fn account(&mut self, label: &str, o: &Outcome, reference: u64) {
        self.attempted += o.ops_attempted;
        let mut bad = false;
        for e in &o.errors {
            self.errors.push(format!("{label}: {e}"));
            bad = true;
        }
        if o.fingerprint != reference {
            self.errors.push(format!(
                "{label}: fingerprint {:#018x} != {reference:#018x}",
                o.fingerprint
            ));
            bad = true;
        }
        self.failed += if bad { o.ops_attempted } else { o.ops_failed };
    }

    fn print(&self) {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                let value = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.errors.is_empty(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        );
    }
}

/// Median of `f` over `runs`.
fn median(runs: &[Outcome], f: impl Fn(&Outcome) -> f64) -> f64 {
    let mut v: Vec<f64> = runs.iter().map(f).collect();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// A fixed CPU-bound loop, timed, so figures from two machines can be
/// put side by side. Reported, never gated on.
fn calibrate() -> f64 {
    let t = Instant::now();
    let mut x = 0u64;
    for i in 0..20_000_000u64 {
        x = splitmix64(black_box(x ^ i));
    }
    black_box(x);
    t.elapsed().as_secs_f64()
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|l| l.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".into())
        .replace('"', "'")
}

/// Peak resident set of this process, MiB.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

fn log_run(label: &str, o: &Outcome) {
    eprintln!(
        "{label}: setup {:.3} s, run {:.3} s for {:.1} sim ms, {} events, \
         {}/{} ops ok, fingerprint {:#018x}",
        o.setup.total(),
        o.run_s,
        o.sim_s * 1e3,
        o.fleet.events,
        o.ops_attempted - o.ops_failed,
        o.ops_attempted,
        o.fingerprint
    );
}

/// The reference fingerprint: the recorded one for the default seed,
/// otherwise the first run's (the checks then reduce to invariance).
fn reference(args: &Args, first: &Outcome) -> u64 {
    if args.seed == DEFAULT_SEED {
        args.workload.recorded_fingerprint()
    } else {
        first.fingerprint
    }
}

/// `--trace 0`: repeated untraced runs, medians of the end-to-end
/// metrics.
fn measure(args: &Args, report: &mut Report) {
    let start = Instant::now();
    let mut runs: Vec<Outcome> = Vec::new();
    while runs.len() < MIN_RUNS || start.elapsed().as_secs_f64() < args.seconds {
        let o = workloads::run(args.workload, args.seed, Variant::PLAIN);
        log_run("run", &o);
        runs.push(o);
    }
    let reference = reference(args, &runs[0]);
    for (i, o) in runs.iter().enumerate() {
        report.account(&format!("run {i}"), o, reference);
    }
    let first = &runs[0];
    report.metric(
        "sim_wall_ratio",
        median(&runs, |o| o.sim_s / o.run_s),
        "s/s",
    );
    report.metric("setup_s", median(&runs, |o| o.setup.total()), "s");
    match peak_rss_mb() {
        Some(mb) => report.metric("peak_rss_mb", mb, "MiB"),
        None => report.errors.push("peak RSS unavailable".into()),
    }
    report.metric("allocations", median(&runs, |o| o.allocs as f64), "count");
    report.metric(
        "ops_ok_frac",
        1.0 - ratio(first.ops_failed, first.ops_attempted),
        "ratio",
    );
    report.metric("op_p50_ms", percentile(&first.op_ms, 0.5), "ms");
    report.metric("op_p99_ms", percentile(&first.op_ms, 0.99), "ms");
    eprintln!(
        "{} runs in {:.1} s",
        runs.len(),
        start.elapsed().as_secs_f64()
    );
}

/// The four runs a `--trace 1` round makes, in its first order.
const ROUND: [(&str, Variant); 4] = [
    ("plain", Variant::PLAIN),
    (
        "traced",
        Variant {
            traced: true,
            ..Variant::PLAIN
        },
    ),
    (
        "2-shard threaded",
        Variant {
            shards: 2,
            ..Variant::PLAIN
        },
    ),
    (
        "series flipped",
        Variant {
            flip_series: true,
            ..Variant::PLAIN
        },
    ),
];

/// `--trace 1`: rounds of plain, traced, 2-shard threaded and
/// series-flipped runs, then the ASIC replay of the traced frame mix.
fn trace_layers(args: &Args, report: &mut Report) {
    let start = Instant::now();
    let mut runs: [Vec<Outcome>; 4] = Default::default();
    let mut round = 0;
    // Rotate the order each round so drift hits every variant alike.
    while round < 3 || start.elapsed().as_secs_f64() < args.seconds {
        for k in 0..ROUND.len() {
            let (label, variant) = ROUND[(k + round) % ROUND.len()];
            let o = workloads::run(args.workload, args.seed, variant);
            log_run(label, &o);
            runs[(k + round) % ROUND.len()].push(o);
        }
        round += 1;
    }
    let reference = reference(args, &runs[0][0]);
    for ((label, _), outcomes) in ROUND.iter().zip(&runs) {
        for (i, o) in outcomes.iter().enumerate() {
            report.account(&format!("{label} {i}"), o, reference);
        }
    }
    let wall = |k: usize| median(&runs[k], |o| o.run_s);
    let [plain, traced_runs, _, _] = &runs;
    let (plain_wall, traced_wall, threaded_wall, flipped_wall) =
        (wall(0), wall(1), wall(2), wall(3));

    let t = traced_runs.last().expect("at least three rounds");
    let replay = replay::replay(&t.mix, args.seed, REPLAY_S);
    let f = t.fleet;
    let asic_est_s = replay.ns_per_frame * f.frames as f64 / 1e9;
    let secs = |ns: u64| ns as f64 / 1e9;
    let host_s = |o: &Outcome| {
        let l = o.layers;
        secs(l.transport.0 + l.flowgen.0 + l.apps.0 + l.capture_ns)
    };
    let series_on_wall = if args.workload == Workload::ProbeStorm {
        (plain_wall, flipped_wall)
    } else {
        (flipped_wall, plain_wall)
    };
    let tr = t.transport;
    let layers = t.layers;

    report.metric("netsim.events", f.events as f64, "count");
    report.metric("netsim.events_per_s", f.events as f64 / plain_wall, "1/s");
    report.metric(
        "netsim.self_s",
        median(traced_runs, |o| o.run_s - host_s(o)) - asic_est_s,
        "s",
    );
    report.metric(
        "netsim.pool_reuse_ratio",
        ratio(f.pool.0, f.pool.0 + f.pool.1),
        "ratio",
    );
    report.metric("netsim.link_losses", f.link_losses as f64, "count");
    report.metric(
        "netsim.threaded2_over_seq1",
        threaded_wall / plain_wall,
        "ratio",
    );
    report.metric("asic.ns_per_frame", replay.ns_per_frame, "ns");
    report.metric("asic.est_s", asic_est_s, "s");
    report.metric("asic.tpps_executed", f.tpps_executed as f64, "count");
    report.metric(
        "asic.decode_hit_ratio",
        ratio(f.decode.0, f.decode.0 + f.decode.1),
        "ratio",
    );
    report.metric(
        "asic.flow_cache_hit_ratio",
        ratio(f.flow_cache.0, f.flow_cache.0 + f.flow_cache.1),
        "ratio",
    );
    report.metric("asic.interner_decodes", f.interner_decodes as f64, "count");
    report.metric("asic.queue_drops", f.queue_drops as f64, "count");
    report.metric(
        "asic.replay_allocs_per_frame",
        replay.allocs_per_frame,
        "allocs/frame",
    );
    report.metric(
        "host.transport_s",
        median(traced_runs, |o| secs(o.layers.transport.0)),
        "s",
    );
    report.metric("host.transport_calls", layers.transport.1 as f64, "count");
    report.metric(
        "host.ns_per_call",
        median(traced_runs, |o| {
            ratio(o.layers.transport.0, o.layers.transport.1)
        }),
        "ns",
    );
    report.metric("host.retransmits", tr.retransmits as f64, "count");
    report.metric("host.rto_fires", tr.rto_fires as f64, "count");
    report.metric(
        "host.useful_seg_ratio",
        1.0 - ratio(tr.retransmits, tr.segments_sent),
        "ratio",
    );
    report.metric(
        "apps.cb_s",
        median(traced_runs, |o| secs(o.layers.apps.0)),
        "s",
    );
    report.metric("apps.calls", layers.apps.1 as f64, "count");
    report.metric(
        "flowgen.cb_s",
        median(traced_runs, |o| secs(o.layers.flowgen.0)),
        "s",
    );
    report.metric(
        "setup.schedule_s",
        median(plain, |o| o.setup.schedule_s),
        "s",
    );
    report.metric("setup.build_s", median(plain, |o| o.setup.build_s), "s");
    report.metric("setup.init_s", median(plain, |o| o.setup.init_s), "s");
    report.metric(
        "obs.series_overhead_ratio",
        series_on_wall.0 / series_on_wall.1,
        "ratio",
    );
    report.metric(
        "trace.overhead_frac",
        traced_wall / plain_wall - 1.0,
        "ratio",
    );
    eprintln!(
        "{round} rounds, replay of {} frame kinds, {:.1} s",
        t.mix.len(),
        start.elapsed().as_secs_f64()
    );
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: fabricbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                Workload::ALL.map(Workload::name).join("|")
            );
            return ExitCode::from(2);
        }
    };
    let calibration_s = calibrate();
    println!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"held_out_seed\": {HELD_OUT_SEED}, \
         \"machine\": {{\"nproc\": {}, \"cpu_model\": \"{}\"}}, \"calibration_s\": {calibration_s:?}}}",
        args.workload.name(),
        args.seed,
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        cpu_model(),
    );
    let mut report = Report {
        metrics: Vec::new(),
        errors: Vec::new(),
        attempted: 0,
        failed: 0,
    };
    if args.trace {
        trace_layers(&args, &mut report);
    } else {
        measure(&args, &mut report);
    }
    for e in &report.errors {
        eprintln!("check failed: {e}");
    }
    report.print();
    ExitCode::SUCCESS
}
