//! The echo decoders of the apps read hop records in place through
//! `HopWords`. These properties check each one against the owned
//! `split_hops` decode on arbitrary stacks.
//!
//! A rewriting host takes the place of the receiver. It overwrites each
//! probe's packet memory with a generated stack, then sends the probe on
//! as an echo, which switches leave alone. Most stacks are well formed.
//! The rest have a length that is not a multiple of the words per hop, a
//! hop counter that disagrees, a stack pointer past the end of memory, or
//! (for ndb) an inner payload too short to carry the packet id. Each
//! app's public results must equal what `decode_echo`/`split_hops` make
//! of the exact frames it was sent.

use std::collections::BTreeMap;

use proptest::collection::vec;
use proptest::prelude::*;
use tpp_apps::bonding::{BondSender, BondSenderConfig};
use tpp_apps::microburst::{MicroburstMonitor, QueueSample};
use tpp_apps::ndb::{NdbHop, NdbProbeSender, TraceCollector};
use tpp_apps::rcpstar::{RcpStarConfig, RcpStarSender, COLLECT_WORDS_PER_HOP};
use tpp_asic::AsicConfig;
use tpp_host::{decode_echo, parse_echo, split_hops, BondConfig, PathSample};
use tpp_isa::programs;
use tpp_netsim::{time, Endpoint, HostApp, HostCtx, HostId, NetworkBuilder, RunLimit, Simulator};
use tpp_wire::ethernet::Frame;
use tpp_wire::tpp::{TppPacket, FLAG_ECHOED, FLAG_EXECUTED, WORD_SIZE};
use tpp_wire::{EthernetAddress, ETHERNET_HEADER_LEN};

/// Probe period of every app under test.
const GAP_NS: u64 = 100_000;

/// What the rewriter does to one probe.
#[derive(Debug, Clone)]
struct Case {
    /// Stack words, written from packet-memory word 0 (cut to memory).
    words: Vec<u32>,
    hop: u8,
    /// Stack pointer in bytes; `None` points it just past `words`.
    sp: Option<u16>,
    /// Inner-payload bytes to keep (forwarded probes only).
    inner: Option<usize>,
}

/// Cases for `words_per_hop`-word records in `mem_words` of memory.
fn cases(words_per_hop: usize, mem_words: usize) -> impl Strategy<Value = Vec<Case>> {
    // Small values make switch ids and epochs repeat across hops and
    // echoes; large ones exercise full-width reads.
    let word = prop_oneof![0u32..4, any::<u32>()];
    let case = (
        (vec(word, 0..mem_words + 1), 0u8..5),
        0u8..8,
        any::<u16>(),
        0usize..4,
    )
        .prop_map(move |((mut words, hop), shape, sp, inner)| {
            let mut case = Case {
                hop,
                sp: None,
                inner: None,
                words: Vec::new(),
            };
            match shape {
                // Mismatched hop counter or partial record, as drawn.
                0 => {}
                // Stack pointer anywhere, even past memory.
                1 => case.sp = Some(sp),
                // A well-formed stack, sometimes with a short payload.
                _ => {
                    words.truncate(words.len() / words_per_hop * words_per_hop);
                    case.hop = (words.len() / words_per_hop) as u8;
                    case.inner = (shape == 2).then_some(inner);
                }
            }
            case.words = words;
            case
        });
    vec(case, 1..10)
}

/// Rewrites each executed probe by the next case and sends it, marked
/// echoed, back to its sender or on to `forward_to`; keeps what it sent.
struct Rewriter {
    cases: Vec<Case>,
    forward_to: Option<EthernetAddress>,
    sent: Vec<Vec<u8>>,
}

impl HostApp for Rewriter {
    fn on_frame(&mut self, mut frame: Vec<u8>, ctx: &mut HostCtx<'_>) {
        let executed = Frame::new_checked(&frame[..]).is_ok_and(|f| {
            f.is_tpp()
                && TppPacket::new_checked(f.payload())
                    .is_ok_and(|t| t.flags() & (FLAG_EXECUTED | FLAG_ECHOED) == FLAG_EXECUTED)
        });
        if !executed || self.sent.len() == self.cases.len() {
            ctx.recycle_frame(frame);
            return;
        }
        let case = &self.cases[self.sent.len()];
        let mut tpp = TppPacket::new_unchecked(&mut frame[ETHERNET_HEADER_LEN..]);
        let mem_words = tpp.mem_len() / WORD_SIZE;
        let words = &case.words[..case.words.len().min(mem_words)];
        for (i, w) in words.iter().enumerate() {
            tpp.write_word(i * WORD_SIZE, *w).expect("inside memory");
        }
        tpp.set_sp(case.sp.map_or(words.len() * WORD_SIZE, usize::from));
        tpp.set_hop(case.hop);
        tpp.set_flags(tpp.flags() | FLAG_ECHOED);
        let tpp_end = ETHERNET_HEADER_LEN + tpp.tpp_len();
        // A tracked probe's nonce ends the frame: only forwarded, untracked
        // probes lose payload bytes.
        if let (Some(keep), Some(_)) = (case.inner, self.forward_to) {
            frame.truncate(tpp_end + keep);
        }
        // Echo by hand: `echo_reply` rightly refuses a stack pointer
        // past memory, and such frames are among the cases.
        let mut eth = Frame::new_unchecked(&mut frame[..]);
        eth.set_dst_addr(self.forward_to.unwrap_or(eth.src_addr()));
        eth.set_src_addr(ctx.mac());
        self.sent.push(frame.clone());
        ctx.send(frame);
    }
}

fn mac(host: usize) -> EthernetAddress {
    EthernetAddress::from_host_id(host as u32)
}

/// Host 0 runs `app` towards the rewriter, host 1, over one switch; a
/// forwarding rewriter sends on to `collector`, host 2.
fn run(app: Box<dyn HostApp>, cases: Vec<Case>, collector: Option<TraceCollector>) -> Simulator {
    let n_cases = cases.len() as u64;
    let mut net = NetworkBuilder::new();
    let switch = net.add_switch(AsicConfig::with_ports(1, 3));
    let rewriter = Rewriter {
        cases,
        forward_to: collector.is_some().then(|| mac(2)),
        sent: Vec::new(),
    };
    let mut hosts = vec![net.add_host(app, 1_000_000)];
    hosts.push(net.add_host(Box::new(rewriter), 1_000_000));
    if let Some(c) = collector {
        hosts.push(net.add_host(Box::new(c), 1_000_000));
    }
    for (port, h) in hosts.into_iter().enumerate() {
        net.connect(
            Endpoint::host(h),
            Endpoint::switch(switch, port as u16),
            time::micros(1),
        );
    }
    let mut sim = net.build();
    sim.populate_l2();
    sim.run(RunLimit::Until((n_cases + 2) * GAP_NS));
    sim
}

/// The echoes the rewriter sent, decoded the owned way.
fn owned(sim: &Simulator, words_per_hop: usize) -> Vec<(PathSample, Vec<u8>)> {
    let sent = &sim.host_app::<Rewriter>(HostId(1)).sent;
    sent.iter()
        .filter_map(|f| Some((decode_echo(f, mac(0), words_per_hop)?, f.clone())))
        .collect()
}

fn stamp(frame: &[u8]) -> u64 {
    let tpp = parse_echo(frame, mac(0)).expect("an echo");
    u64::from_be_bytes(tpp.inner_payload()[..8].try_into().expect("8 bytes"))
}

/// Path minimum of the fair-share register (capacity when it reads 0),
/// over hops that report a capacity, bits/s.
fn owned_path_rate(sample: &PathSample) -> Option<u64> {
    sample
        .hops
        .iter()
        .filter_map(|h| {
            let (cap, reg) = (u64::from(h.words[3]) * 1_000, u64::from(h.words[4]) * 1_000);
            (cap > 0).then_some(if reg == 0 { cap } else { reg })
        })
        .min()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn microburst_samples_match_split_hops(
        cases in cases(programs::MICROBURST_WORDS_PER_HOP, 2 * programs::MICROBURST_WORDS_PER_HOP),
    ) {
        let monitor = MicroburstMonitor::new(mac(1), 2, GAP_NS, 0, u64::MAX);
        let sim = run(Box::new(monitor), cases, None);
        let mut expected = Vec::new();
        let echoes = owned(&sim, programs::MICROBURST_WORDS_PER_HOP);
        for (sample, frame) in &echoes {
            let t_ns = stamp(frame);
            expected.extend(sample.hops.iter().map(|h| QueueSample {
                t_ns,
                switch_id: h.words[0],
                queue_bytes: h.words[1],
            }));
        }
        let m = sim.host_app::<MicroburstMonitor>(HostId(0));
        prop_assert_eq!(m.echoes_received, echoes.len() as u64);
        prop_assert_eq!(&m.samples, &expected);
    }

    #[test]
    fn ndb_traces_match_split_hops(
        cases in cases(programs::NDB_WORDS_PER_HOP, 3 * programs::NDB_WORDS_PER_HOP),
    ) {
        let sender = NdbProbeSender::new(mac(1), 3, GAP_NS, u32::MAX);
        let sim = run(Box::new(sender), cases, Some(TraceCollector::default()));
        let (mut expected, mut undecodable) = (Vec::new(), 0);
        for frame in &sim.host_app::<Rewriter>(HostId(1)).sent {
            let tpp = TppPacket::new_checked(&frame[ETHERNET_HEADER_LEN..]);
            let decoded = tpp.ok().and_then(|tpp| {
                let sample = split_hops(&tpp, programs::NDB_WORDS_PER_HOP)?;
                let id = tpp.inner_payload().get(..4)?;
                let hops: Vec<NdbHop> = sample
                    .hops
                    .iter()
                    .map(|h| NdbHop {
                        switch_id: h.words[0],
                        entry_id: h.words[1],
                        entry_version: h.words[2],
                        input_port: h.words[3],
                    })
                    .collect();
                Some((u32::from_be_bytes(id.try_into().expect("4 bytes")), hops))
            });
            match decoded {
                Some(trace) => expected.push(trace),
                None => undecodable += 1,
            }
        }
        let c = sim.host_app::<TraceCollector>(HostId(2));
        let got: Vec<(u32, Vec<NdbHop>)> =
            c.traces.iter().map(|t| (t.packet_id, t.hops.clone())).collect();
        prop_assert_eq!(got, expected);
        prop_assert_eq!(c.undecodable, undecodable);
    }

    #[test]
    fn rcpstar_feedback_matches_split_hops(
        cases in cases(COLLECT_WORDS_PER_HOP, 2 * COLLECT_WORDS_PER_HOP),
    ) {
        // Native mode paces at the path minimum of the echoed registers,
        // so its rate trace shows every hop's capacity and register word.
        let config = RcpStarConfig {
            period_ns: GAP_NS,
            expected_hops: 2,
            compute_updates: false,
            ..Default::default()
        };
        let sim = run(Box::new(RcpStarSender::new(mac(1), config)), cases, None);
        let echoes: Vec<PathSample> = owned(&sim, COLLECT_WORDS_PER_HOP)
            .into_iter()
            .map(|(sample, _)| sample)
            .filter(|s| !s.hops.is_empty())
            .collect();
        let s = sim.host_app::<RcpStarSender>(HostId(0));
        let rates: Vec<u64> = s.rate_trace.iter().map(|&(_, r)| r).collect();
        prop_assert_eq!(s.feedback_count, echoes.len() as u64);
        prop_assert_eq!(rates, echoes.iter().filter_map(owned_path_rate).collect::<Vec<_>>());
    }

    #[test]
    fn bonding_worst_queue_and_util_match_split_hops(
        cases in cases(programs::BONDING_WORDS_PER_HOP, 2 * programs::BONDING_WORDS_PER_HOP),
    ) {
        // One path, no EWMA smoothing: the scheduler's series record each
        // echo's worst queue and utilization exactly.
        let config = BondSenderConfig {
            dst: mac(1),
            expected_hops: 2,
            probe_interval_ns: GAP_NS,
            probe_timeout_ns: 4 * GAP_NS,
            probe_stop_ns: u64::MAX,
            data_interval_ns: GAP_NS,
            data_start_ns: 0,
            data_stop_ns: 0,
            payload_bytes: 64,
            rto_ns: GAP_NS,
            bond: BondConfig {
                paths: 1,
                ewma_shift: 0,
                series_capacity: 64,
                ..Default::default()
            },
        };
        let sim = run(Box::new(BondSender::new(config)), cases, None);
        let echoes = owned(&sim, programs::BONDING_WORDS_PER_HOP);
        let mut epochs = BTreeMap::new();
        let (mut changes, mut queues, mut utils) = (0, Vec::new(), Vec::new());
        for (sample, _) in &echoes {
            let mut changed = false;
            for h in &sample.hops {
                changed |= epochs.insert(h.words[0], h.words[1]).is_some_and(|e| e != h.words[1]);
            }
            if changed {
                changes += 1;
            } else {
                queues.push(sample.hops.iter().map(|h| u64::from(h.words[2])).max().unwrap_or(0));
                utils.push(sample.hops.iter().map(|h| u64::from(h.words[3])).max().unwrap_or(0));
            }
        }
        let s = sim.host_app::<BondSender>(HostId(0));
        let series = |points: &[(u64, u64)]| points.iter().map(|&(_, v)| v).collect::<Vec<_>>();
        prop_assert_eq!(s.echoes_received[0], echoes.len() as u64);
        prop_assert_eq!(s.epoch_changes, changes);
        prop_assert_eq!(series(s.bond.queue_series(0).points()), queues);
        prop_assert_eq!(series(s.bond.util_series(0).points()), utils);
    }
}
