//! Property tests on the two representation models themselves (independent of any
//! particular summarization algorithm): the hierarchical model's structural invariants
//! under merging/pruning, and the flat model's optimal-encoding correctness.

use proptest::prelude::*;
use slugger::baselines::{FlatSummary, Grouping};
use slugger::core::decode::{decode_full, verify_lossless};
use slugger::core::engine::MergeEngine;
use slugger::core::prune::{prune_step1, prune_step2, prune_step3};
use slugger::core::{EdgeSign, HierarchicalSummary};
use slugger::prelude::*;

/// Strategy: a random graph together with a random *valid* merge sequence and a random
/// assignment of p/n edges that encodes it exactly by construction (start from the
/// identity encoding, then randomly merge roots — the identity p-edges stay attached to
/// leaves, so the encoding remains exact regardless of the merges).
fn graph_and_merges() -> impl Strategy<Value = (Graph, Vec<(u32, u32)>)> {
    (4usize..28).prop_flat_map(|n| {
        let edges = proptest::collection::vec((0..n as u32, 0..n as u32), 0..60)
            .prop_map(move |e| Graph::from_edges(n, e));
        let merges = proptest::collection::vec((0..n as u32, 0..n as u32), 0..n / 2);
        (edges, merges)
    })
}

/// Builds the identity summary of `graph` and applies the requested merges (skipping
/// the ones that are no longer valid because an endpoint stopped being a root).
fn build_summary(graph: &Graph, merges: &[(u32, u32)]) -> HierarchicalSummary {
    let mut summary = HierarchicalSummary::identity(graph.num_nodes());
    for (u, v) in graph.edges() {
        summary.set_edge(u, v, EdgeSign::Positive);
    }
    for &(a, b) in merges {
        let ra = summary.root_of(a.min(graph.num_nodes() as u32 - 1));
        let rb = summary.root_of(b.min(graph.num_nodes() as u32 - 1));
        if ra != rb && summary.is_root(ra) && summary.is_root(rb) {
            summary.merge_roots(ra, rb);
        }
    }
    summary
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn leaf_level_encoding_survives_arbitrary_merges((graph, merges) in graph_and_merges()) {
        let summary = build_summary(&graph, &merges);
        prop_assert!(summary.validate().is_ok());
        prop_assert!(verify_lossless(&summary, &graph).is_ok());
    }

    #[test]
    fn pruning_substeps_never_change_the_decoded_graph((graph, merges) in graph_and_merges()) {
        let mut engine = MergeEngine::from_summary(build_summary(&graph, &merges));
        let before = decode_full(engine.summary()).edge_set();
        prune_step1(&mut engine);
        prop_assert!(engine.validate().is_ok());
        prop_assert_eq!(decode_full(engine.summary()).edge_set(), before.clone());
        prune_step2(&mut engine);
        prop_assert!(engine.validate().is_ok());
        prop_assert_eq!(decode_full(engine.summary()).edge_set(), before.clone());
        prune_step3(&mut engine, &graph);
        prop_assert!(engine.validate().is_ok());
        prop_assert_eq!(decode_full(engine.summary()).edge_set(), before);
    }

    #[test]
    fn pruning_substeps_never_increase_the_cost((graph, merges) in graph_and_merges()) {
        let mut engine = MergeEngine::from_summary(build_summary(&graph, &merges));
        let c0 = engine.summary().encoding_cost();
        prune_step1(&mut engine);
        prop_assert!(engine.validate().is_ok());
        let c1 = engine.summary().encoding_cost();
        prune_step2(&mut engine);
        prop_assert!(engine.validate().is_ok());
        let c2 = engine.summary().encoding_cost();
        prune_step3(&mut engine, &graph);
        prop_assert!(engine.validate().is_ok());
        let c3 = engine.summary().encoding_cost();
        prop_assert!(c1 <= c0 && c2 <= c1 && c3 <= c2, "costs {c0} -> {c1} -> {c2} -> {c3}");
    }

    #[test]
    fn flat_optimal_encoding_is_lossless_for_any_grouping(
        n in 3usize..30,
        edges in proptest::collection::vec((0u32..30, 0u32..30), 0..80),
        groups in proptest::collection::vec(0u32..6, 30),
    ) {
        let edges: Vec<(u32, u32)> = edges
            .into_iter()
            .map(|(u, v)| (u % n as u32, v % n as u32))
            .collect();
        let graph = Graph::from_edges(n, edges);
        let assignment: Vec<u32> = (0..n).map(|u| groups[u] % n as u32).collect();
        let grouping = Grouping::from_assignment(assignment);
        grouping.validate().unwrap();
        let summary = FlatSummary::build(&graph, grouping);
        prop_assert!(summary.verify_lossless(&graph).is_ok());
        // The optimal encoding can never cost more than listing every edge.
        prop_assert!(summary.encoding.edge_cost() <= graph.num_edges());
    }
}

#[test]
fn hierarchical_model_expresses_flat_model_outputs() {
    // Sect. II-B: the flat model is a special case of the hierarchical one.  Encode a
    // graph flat, then transcribe the encoding into a HierarchicalSummary and check it
    // represents the same graph with the same number of p/n edges.
    let graph = Graph::from_edges(6, vec![(0, 2), (0, 3), (1, 2), (1, 3), (4, 5), (0, 1)]);
    let grouping = Grouping::from_assignment(vec![0, 0, 2, 2, 4, 5]);
    let flat = FlatSummary::build(&graph, grouping);

    let mut hier = HierarchicalSummary::identity(6);
    // Supernodes {0,1} and {2,3} become internal supernodes; 4 and 5 stay singletons.
    let s01 = hier.merge_roots(0, 1);
    let s23 = hier.merge_roots(2, 3);
    let map_group = |g: u32| match g {
        0 => s01,
        2 => s23,
        other => other,
    };
    for &(a, b) in &flat.encoding.p {
        hier.set_edge(map_group(a), map_group(b), EdgeSign::Positive);
    }
    for &(u, v) in &flat.encoding.c_plus {
        hier.set_edge(u, v, EdgeSign::Positive);
    }
    for &(u, v) in &flat.encoding.c_minus {
        hier.set_edge(u, v, EdgeSign::Negative);
    }
    verify_lossless(&hier, &graph).unwrap();
    assert_eq!(
        hier.num_p_edges() + hier.num_n_edges(),
        flat.encoding.edge_cost()
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn storage_roundtrip_preserves_summary_and_graph((graph, merges) in graph_and_merges()) {
        use slugger::core::storage::{decode_summary, encode_summary};
        let summary = build_summary(&graph, &merges);
        let bytes = encode_summary(&summary);
        let restored = decode_summary(&bytes).expect("decode");
        prop_assert!(restored.validate().is_ok());
        prop_assert_eq!(restored.num_p_edges(), summary.num_p_edges());
        prop_assert_eq!(restored.num_n_edges(), summary.num_n_edges());
        prop_assert_eq!(restored.num_h_edges(), summary.num_h_edges());
        prop_assert_eq!(decode_full(&restored).edge_set(), decode_full(&summary).edge_set());
    }

    #[test]
    fn edge_list_io_roundtrip(edges in proptest::collection::vec((0u32..50, 0u32..50), 0..150)) {
        use slugger::graph::io::{read_edge_list, write_edge_list};
        let graph = Graph::from_edges(50, edges);
        let mut buffer = Vec::new();
        write_edge_list(&graph, &mut buffer).unwrap();
        let restored = read_edge_list(buffer.as_slice()).unwrap();
        prop_assert_eq!(restored.edge_set(), graph.edge_set());
    }
}
