//! Bound-and-skip merge planning against the unbounded partner search.
//!
//! `merge::plan_candidate_set` skips every partner whose saving provably cannot
//! beat the best so far or reach `θ(t)`.  This suite holds it to
//! `testsupport::reference_plan_candidate_set`, which evaluates every pair in
//! full: on the real candidate sets of a full T = 20 schedule (θ from 1/2 down
//! to 0), for every height bound, planned both on copy-on-write overlays over a
//! frozen engine and in place on the engine, the two must emit identical plans
//! and agree on `merged` and `evaluated` — while the bound skips a real share
//! of the pairs.

use slugger_core::candidates::{candidate_sets, CandidateConfig};
use slugger_core::engine::apply::{apply_plans, PlannedMerge, SetPlan};
use slugger_core::engine::plan::{PlanScratch, PlanningEngine};
use slugger_core::engine::{MergeCtx, MergeEngine};
use slugger_core::merge::{merging_threshold, plan_candidate_set, MergeOptions, MergeStats};
use slugger_core::model::SupernodeId;
use slugger_core::pipeline::set_rng;
use slugger_core::testsupport::{canonical, reference_plan_candidate_set};
use slugger_datasets::{dataset, DatasetKey};
use slugger_graph::gen::{caveman, rmat, CavemanConfig, RmatConfig};
use slugger_graph::Graph;

const ITERATIONS: usize = 20;
const SEED: u64 = 11;

/// The candidate sets of iteration `t` over the engine's current roots.
fn sets_of(engine: &MergeEngine, graph: &Graph, t: usize) -> Vec<Vec<SupernodeId>> {
    let roots = engine.roots();
    candidate_sets(
        engine.summary(),
        graph,
        &roots,
        SEED.wrapping_add(t as u64),
        &CandidateConfig {
            max_group_size: 64,
            max_shingle_splits: 10,
        },
    )
}

/// Compares one set's bounded plan with the oracle's, returning the former.
fn assert_same_plan(
    context: &str,
    bounded: (Vec<PlannedMerge>, MergeStats),
    reference: (Vec<PlannedMerge>, MergeStats),
) -> (Vec<PlannedMerge>, MergeStats) {
    assert_eq!(bounded.0, reference.0, "{context}: plans differ");
    assert_eq!(
        (bounded.1.merged, bounded.1.evaluated),
        (reference.1.merged, reference.1.evaluated),
        "{context}: merged/evaluated differ"
    );
    bounded
}

/// Plans every set of every iteration on overlays over the frozen engine, with
/// both loops, applying the bounded plans between iterations as the pipeline
/// does.  Returns the summed bounded statistics.
fn overlay_schedule(graph: &Graph, height_bound: Option<usize>, context: &str) -> MergeStats {
    let mut engine = MergeEngine::new(graph);
    let (mut ctx, mut ref_ctx, mut apply_ctx) = (MergeCtx::new(), MergeCtx::new(), MergeCtx::new());
    let mut scratch = PlanScratch::new();
    let mut total = MergeStats::default();
    for t in 1..=ITERATIONS {
        let options = MergeOptions {
            threshold: merging_threshold(t, ITERATIONS),
            height_bound,
        };
        let mut plans = Vec::new();
        for (i, set) in sets_of(&engine, graph, t).iter().enumerate() {
            let bounded = {
                let mut overlay = PlanningEngine::new(&engine, set, &mut scratch);
                plan_candidate_set(
                    &mut overlay,
                    &mut ctx,
                    set,
                    &options,
                    &mut set_rng(SEED, t, i),
                )
            };
            let reference = {
                let mut overlay = PlanningEngine::new(&engine, set, &mut scratch);
                reference_plan_candidate_set(
                    &mut overlay,
                    &mut ref_ctx,
                    set,
                    &options,
                    &mut set_rng(SEED, t, i),
                )
            };
            let (merges, stats) = assert_same_plan(
                &format!("{context} overlay t={t} set {i}"),
                bounded,
                reference,
            );
            total.absorb(stats);
            plans.push(SetPlan {
                set_index: i,
                merges,
                stats,
            });
        }
        apply_plans(&mut engine, &mut apply_ctx, &plans);
    }
    engine.summary().validate().unwrap();
    total
}

/// Plans every set of every iteration in place, the bounded loop on one engine
/// and the oracle on a twin; the twins must stay identical throughout.
fn in_place_schedule(graph: &Graph, height_bound: Option<usize>, context: &str) -> MergeStats {
    let mut engine = MergeEngine::new(graph);
    let mut twin = MergeEngine::new(graph);
    let (mut ctx, mut ref_ctx) = (MergeCtx::new(), MergeCtx::new());
    let mut total = MergeStats::default();
    for t in 1..=ITERATIONS {
        let options = MergeOptions {
            threshold: merging_threshold(t, ITERATIONS),
            height_bound,
        };
        for (i, set) in sets_of(&engine, graph, t).iter().enumerate() {
            let bounded = plan_candidate_set(
                &mut engine,
                &mut ctx,
                set,
                &options,
                &mut set_rng(SEED, t, i),
            );
            let reference = reference_plan_candidate_set(
                &mut twin,
                &mut ref_ctx,
                set,
                &options,
                &mut set_rng(SEED, t, i),
            );
            let (_, stats) = assert_same_plan(
                &format!("{context} in place t={t} set {i}"),
                bounded,
                reference,
            );
            total.absorb(stats);
        }
        assert_eq!(
            canonical(engine.summary()),
            canonical(twin.summary()),
            "{context} in place: engines diverged after iteration {t}"
        );
    }
    total
}

/// Both backings under every height bound, through the whole schedule.
fn assert_bounded_planning_is_exact(name: &str, graph: &Graph) {
    for height_bound in [None, Some(1), Some(2)] {
        let context = format!("{name} height_bound={height_bound:?}");
        for (backing, stats) in [
            ("overlay", overlay_schedule(graph, height_bound, &context)),
            ("in place", in_place_schedule(graph, height_bound, &context)),
        ] {
            assert!(stats.merged > 0, "{context} {backing}: nothing merged");
            // The bound must actually fire, or the suite proves nothing.
            assert!(
                stats.bounded_out > 0,
                "{context} {backing}: no pair bounded out of {}",
                stats.evaluated
            );
        }
    }
}

#[test]
fn caveman_bounded_plans_equal_the_unbounded_ones() {
    let graph = caveman(&CavemanConfig {
        num_nodes: 400,
        num_cliques: 50,
        ..CavemanConfig::default()
    });
    assert_bounded_planning_is_exact("caveman", &graph);
}

#[test]
fn rmat_bounded_plans_equal_the_unbounded_ones() {
    let graph = rmat(&RmatConfig {
        scale: 9,
        num_edges: 2_000,
        ..RmatConfig::default()
    });
    assert_bounded_planning_is_exact("rmat", &graph);
}

#[test]
fn lj_stand_in_bounded_plans_equal_the_unbounded_ones() {
    let graph = dataset(DatasetKey::LJ).generate(0.2);
    assert_eq!((graph.num_nodes(), graph.num_edges()), (3_000, 5_432));
    assert_bounded_planning_is_exact("lj", &graph);
}
