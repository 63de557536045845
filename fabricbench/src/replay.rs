//! Standalone ASIC replay: the per-frame host cost of one switch's
//! pipeline (`Asic::handle_frame` + `dequeue`) on a workload's own frame
//! mix.
//!
//! The mix is every kind of frame the traced run delivered to its hosts
//! (data, transport segments and ACKs, each distinct TPP program and the
//! echoes), weighted by how many of each were delivered. Buffers are
//! recycled from `dequeue` back into the next `handle_frame`, the way the
//! simulator's frame pool recycles them, so the allocation count is the
//! switch's and not the harness's.

use std::hint::black_box;
use std::time::Instant;

use tpp_apps::rcpstar::init_rate_registers;
use tpp_asic::{Asic, AsicConfig};
use tpp_bench::traffic::Rng64;
use tpp_wire::ethernet::Frame;

use crate::trace;

/// Distinct slots in one pass over the mix; kinds are given slots in
/// proportion to their counts (at least one each).
const CYCLE: usize = 4096;

/// Result of a replay.
#[derive(Debug, Clone, Copy)]
pub struct Replay {
    /// Host ns per frame, net of refilling the buffer.
    pub ns_per_frame: f64,
    /// Heap allocations per frame.
    pub allocs_per_frame: f64,
}

/// Replay `mix` (`(frame, count)` pairs) through one ASIC for about
/// `budget_s` host seconds.
pub fn replay(mix: &[(Vec<u8>, u64)], seed: u64, budget_s: f64) -> Replay {
    let total: u64 = mix.iter().map(|(_, n)| n).sum();
    if total == 0 {
        return Replay {
            ns_per_frame: 0.0,
            allocs_per_frame: 0.0,
        };
    }
    let mut cycle: Vec<usize> = Vec::with_capacity(CYCLE + mix.len());
    for (k, (_, n)) in mix.iter().enumerate() {
        let slots = ((*n as u128 * CYCLE as u128) / total as u128).max(1) as usize;
        cycle.extend(std::iter::repeat_n(k, slots));
    }
    let mut rng = Rng64::new(seed);
    for i in (1..cycle.len()).rev() {
        cycle.swap(i, rng.next_below(i as u64 + 1) as usize);
    }

    let mut asic = Asic::new(AsicConfig::with_ports(0x77, 2).capacity_kbps(40_000_000));
    init_rate_registers(&mut asic);
    for (frame, _) in mix {
        if let Ok(eth) = Frame::new_checked(&frame[..]) {
            asic.l2_mut().insert(eth.dst_addr(), 1);
        }
    }

    let mut buf: Vec<u8> = Vec::with_capacity(2048);
    let mut now = 0u64;
    let pass = |asic: &mut Asic, buf: &mut Vec<u8>, now: &mut u64| {
        for &k in &cycle {
            let mut b = std::mem::take(buf);
            b.clear();
            b.extend_from_slice(&mix[k].0);
            *now += 1_000;
            black_box(asic.handle_frame(b, 0, *now));
            *buf = asic.dequeue(1).unwrap_or_default();
        }
    };
    // Warm the decode and flow caches before timing.
    pass(&mut asic, &mut buf, &mut now);

    let allocs = trace::allocations();
    let t = Instant::now();
    let mut passes = 0u64;
    while passes == 0 || t.elapsed().as_secs_f64() < budget_s {
        pass(&mut asic, &mut buf, &mut now);
        passes += 1;
    }
    let pipeline_s = t.elapsed().as_secs_f64();
    let frames = passes * cycle.len() as u64;
    let allocs = trace::allocations() - allocs;

    // The same buffer refills without the switch, to take the harness's
    // copy cost out of the per-frame figure.
    let t = Instant::now();
    for _ in 0..passes {
        for &k in &cycle {
            buf.clear();
            buf.extend_from_slice(&mix[k].0);
            black_box(&mut buf);
        }
    }
    let refill_s = t.elapsed().as_secs_f64();

    Replay {
        ns_per_frame: ((pipeline_s - refill_s).max(0.0) * 1e9) / frames as f64,
        allocs_per_frame: allocs as f64 / frames as f64,
    }
}
