//! The observability plane must be exact and invisible.
//!
//! Two families of invariants:
//!
//! 1. **Attribution is exact.** The per-stage cycle charges the profiler
//!    records (parser, tables, TCPU, MMU) sum to precisely the span
//!    total it reports, for arbitrary TPP frames — and the attribution
//!    is identical with the flow cache on and off, since a cached
//!    lookup must *charge* what the table walk would have cost, not
//!    what the cache shortcut cost.
//! 2. **Sampling is invisible.** Enabling the profiler (sample every
//!    packet) must not change a single forwarded byte, register, or
//!    conformance verdict: the observability plane reads the pipeline,
//!    never steers it.

use proptest::prelude::*;
use tpp_asic::{ProfStage, ProfileConfig};
use tpp_bench::conformance::{default_corpus_dir, load_corpus, run_case};
use tpp_bench::testgen::{asic_pair, regs_match, tpp_frame};

/// Sum of the four ingress-stage histogram totals (the scheduler stage
/// is charged on dequeue and excluded from the span total).
fn ingress_stage_sum(p: &tpp_asic::PipelineProfile) -> u64 {
    [
        ProfStage::Parser,
        ProfStage::Tables,
        ProfStage::Tcpu,
        ProfStage::Mmu,
    ]
    .iter()
    .map(|&s| p.stage(s).hist().sum())
    .sum()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Per-stage charges sum exactly to the profiled total, frame by
    /// frame and in aggregate, with the flow cache on and off.
    #[test]
    fn stage_attribution_sums_to_total(
        words in proptest::collection::vec(any::<u32>(), 0..12),
        mem in proptest::collection::vec(any::<u32>(), 0..16),
        repeats in 1usize..4,
    ) {
        let (mut cached, mut uncached) = asic_pair();
        cached.enable_profiling(ProfileConfig::default());
        uncached.enable_profiling(ProfileConfig::default());
        let frame = tpp_frame(1, 9, &words, &mem);
        for round in 0..repeats {
            for asic in [&mut cached, &mut uncached] {
                asic.handle_frame(frame.clone(), 0, round as u64);
                let span = asic.profile().expect("profiled").last_span();
                prop_assert_eq!(
                    span.parser_cycles + span.tables_cycles
                        + span.tcpu_cycles + span.mmu_cycles,
                    span.total_cycles(),
                    "span stages must sum to span total"
                );
                asic.dequeue(1);
            }
        }
        for asic in [&cached, &uncached] {
            let p = asic.profile().expect("profiled");
            // sample_every=1: every packet lands in the stage
            // histograms, so aggregate totals must reconcile too.
            prop_assert_eq!(ingress_stage_sum(p), p.total_cycles());
            prop_assert_eq!(p.packets(), p.sampled());
        }
        // Cached and uncached pipelines charge identical cycles: the
        // attribution models the table walk, not the shortcut.
        let (pc, pu) = (
            cached.profile().expect("profiled"),
            uncached.profile().expect("profiled"),
        );
        prop_assert_eq!(pc.total_cycles(), pu.total_cycles());
        for stage in ProfStage::ALL {
            prop_assert_eq!(
                pc.stage(stage).hist().sum(),
                pu.stage(stage).hist().sum(),
                "stage {} diverged between caches on/off", stage.name()
            );
        }
        prop_assert_eq!(pc.opcode_breakdown(), pu.opcode_breakdown());
    }

    /// A profiled ASIC forwards bit-identically to an unprofiled one:
    /// same outcomes, same egress bytes, same TPP-visible registers.
    #[test]
    fn profiling_never_changes_forwarding(
        words in proptest::collection::vec(any::<u32>(), 0..12),
        mem in proptest::collection::vec(any::<u32>(), 0..16),
        dsts in proptest::collection::vec(0u32..4, 1..6),
    ) {
        let (mut profiled, _) = asic_pair();
        let (mut plain, _) = asic_pair();
        profiled.enable_profiling(ProfileConfig::default());
        for (i, &dst) in dsts.iter().enumerate() {
            let frame = tpp_frame(dst, 9, &words, &mem);
            let out_a = profiled.handle_frame(frame.clone(), 0, i as u64);
            let out_b = plain.handle_frame(frame, 0, i as u64);
            prop_assert_eq!(out_a, out_b, "outcome diverged under profiling");
            for port in 0..profiled.num_ports() as u16 {
                prop_assert_eq!(
                    profiled.dequeue(port),
                    plain.dequeue(port),
                    "egress bytes diverged on port {}", port
                );
            }
        }
        regs_match(&profiled, &plain);
    }
}

/// Replaying the committed conformance corpus is unaffected by the
/// profiler: `run_case` (which runs its own unprofiled three-way
/// comparison) must keep passing while a profiled replay of the same
/// frames forwards byte-identically to an unprofiled one.
#[test]
fn corpus_replay_identical_with_profiling() {
    let corpus = load_corpus(&default_corpus_dir()).expect("committed corpus loads");
    assert!(!corpus.is_empty(), "corpus must not be empty");
    for (name, case) in corpus {
        run_case(&case).unwrap_or_else(|e| panic!("corpus case {name} failed: {e}"));
        let (mut profiled, _) = asic_pair();
        let (mut plain, _) = asic_pair();
        profiled.enable_profiling(ProfileConfig::default());
        let frame = case.frame();
        let out_a = profiled.handle_frame(frame.clone(), 0, 0);
        let out_b = plain.handle_frame(frame, 0, 0);
        assert_eq!(out_a, out_b, "corpus case {name}: outcome diverged");
        for port in 0..profiled.num_ports() as u16 {
            assert_eq!(
                profiled.dequeue(port),
                plain.dequeue(port),
                "corpus case {name}: egress bytes diverged on port {port}"
            );
        }
        regs_match(&profiled, &plain);
    }
}
