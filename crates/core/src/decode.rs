//! Decompression of a [`HierarchicalSummary`]: full reconstruction of the input graph,
//! on-the-fly neighbor retrieval (Algorithm 4 of the paper), and losslessness
//! verification used throughout the test-suite.

use crate::model::HierarchicalSummary;
use slugger_graph::graph::{Graph, NeighborAccess, NodeId};
use slugger_graph::hash::FxHashMap;
use slugger_graph::GraphBuilder;
use std::collections::{BTreeMap, BTreeSet};

/// Fully reconstructs the summarized graph.
///
/// Cost is proportional to the total number of subnode pairs covered by p/n-edges,
/// which for a well-compressed summary is close to `|E|`.
pub fn decode_full(summary: &HierarchicalSummary) -> Graph {
    let n = summary.num_subnodes();
    let mut weights: FxHashMap<(NodeId, NodeId), i32> = FxHashMap::default();
    for ((a, b), sign) in summary.pn_edges() {
        let w = sign.weight();
        let members_a = summary.members(a);
        let members_b = summary.members(b);
        if a == b {
            for (i, &u) in members_a.iter().enumerate() {
                for &v in &members_a[i + 1..] {
                    *weights.entry(key(u, v)).or_insert(0) += w;
                }
            }
        } else {
            for &u in members_a {
                for &v in members_b {
                    if u != v {
                        *weights.entry(key(u, v)).or_insert(0) += w;
                    }
                }
            }
        }
    }
    let mut builder = GraphBuilder::new(n);
    for ((u, v), w) in weights {
        if w > 0 {
            builder.add_edge(u, v);
        }
    }
    builder.build()
}

#[inline]
fn key(u: NodeId, v: NodeId) -> (NodeId, NodeId) {
    if u <= v {
        (u, v)
    } else {
        (v, u)
    }
}

/// Why a query-path decode could not be answered.  The read path is the one
/// place ids arrive from outside the process, so callers get a typed error to
/// match on rather than a panic.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DecodeError {
    /// The queried id is not a subnode of this summary: it is at or above
    /// `num_subnodes`, i.e. it names an interior (possibly dead) arena slot or
    /// falls outside the arena entirely.
    NodeOutOfRange {
        /// The offending query id.
        node: NodeId,
        /// `num_subnodes` of the summary, for the error message.
        num_subnodes: usize,
    },
    /// The summary's own invariants are broken: a supernode's incidence set
    /// names a neighbor with no corresponding p/n-edge.  This indicates
    /// corruption, never a bad query.
    Inconsistent {
        /// Supernode whose incidence set is stale.
        supernode: NodeId,
        /// The incident id with no backing edge.
        other: NodeId,
    },
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::NodeOutOfRange { node, num_subnodes } => {
                write!(
                    f,
                    "node {node} out of range (summary has {num_subnodes} subnodes)"
                )
            }
            DecodeError::Inconsistent { supernode, other } => write!(
                f,
                "summary inconsistent: incidence of {supernode} names {other} but no edge exists"
            ),
        }
    }
}

impl std::error::Error for DecodeError {}

/// Retrieves the neighbors of a single subnode by partial decompression
/// (Algorithm 4): walk the ancestor chain of `v`, accumulate ±1 per member of the
/// other endpoint of every incident p/n-edge, and keep subnodes with positive net.
///
/// Panics when `v` is not a subnode of the summary — use [`try_neighbors_of`]
/// for ids that come from outside the process.
pub fn neighbors_of(summary: &HierarchicalSummary, v: NodeId) -> Vec<NodeId> {
    try_neighbors_of(summary, v).unwrap_or_else(|e| panic!("neighbors_of({v}): {e}"))
}

/// Fallible [`neighbors_of`]: the same Algorithm 4 walk, but out-of-range ids
/// and broken summary invariants surface as a typed [`DecodeError`] instead of
/// a panic.  Never panics, for arbitrary `v`.
pub fn try_neighbors_of(
    summary: &HierarchicalSummary,
    v: NodeId,
) -> Result<Vec<NodeId>, DecodeError> {
    let leaf = summary.try_leaf_of(v).ok_or(DecodeError::NodeOutOfRange {
        node: v,
        num_subnodes: summary.num_subnodes(),
    })?;
    let mut count: FxHashMap<NodeId, i32> = FxHashMap::default();
    for ancestor in summary.ancestors_inclusive(leaf) {
        for other in summary.incident(ancestor) {
            let sign = summary
                .edge_sign(ancestor, other)
                .ok_or(DecodeError::Inconsistent {
                    supernode: ancestor,
                    other,
                })?;
            let w = sign.weight();
            for &u in summary.members(other) {
                *count.entry(u).or_insert(0) += w;
            }
            // A self-loop at `ancestor` covers pairs within it, which the loop above
            // already accounts for because `other == ancestor` in that case.
        }
    }
    let mut out: Vec<NodeId> = count
        .into_iter()
        .filter(|&(u, c)| u != v && c > 0)
        .map(|(u, _)| u)
        .collect();
    out.sort_unstable();
    Ok(out)
}

/// Verifies that a summary represents exactly the given graph.  Returns a description
/// of the first discrepancy found, if any.
pub fn verify_lossless(summary: &HierarchicalSummary, graph: &Graph) -> Result<(), String> {
    if summary.num_subnodes() != graph.num_nodes() {
        return Err(format!(
            "node count mismatch: summary {} vs graph {}",
            summary.num_subnodes(),
            graph.num_nodes()
        ));
    }
    let decoded = decode_full(summary);
    if decoded.num_edges() != graph.num_edges() {
        return Err(format!(
            "edge count mismatch: decoded {} vs graph {}",
            decoded.num_edges(),
            graph.num_edges()
        ));
    }
    for (u, v) in graph.edges() {
        if !decoded.has_edge(u, v) {
            return Err(format!("edge ({u}, {v}) missing from the decoded graph"));
        }
    }
    Ok(())
}

/// A view of a summary that implements [`NeighborAccess`], so the graph algorithms of
/// `slugger-algos` (BFS, PageRank, Dijkstra, …) can run directly on the compressed
/// representation through on-the-fly partial decompression (Sect. VIII-C).
///
/// The view is panic-free on arbitrary ids: an out-of-range `u` simply has no
/// neighbors (mirroring how a CSR [`Graph`] treats isolated trailing nodes),
/// routed through [`try_neighbors_of`].
pub struct SummaryNeighborView<'a> {
    summary: &'a HierarchicalSummary,
}

impl<'a> SummaryNeighborView<'a> {
    /// Wraps a summary.
    pub fn new(summary: &'a HierarchicalSummary) -> Self {
        SummaryNeighborView { summary }
    }

    /// The wrapped summary.
    pub fn summary(&self) -> &HierarchicalSummary {
        self.summary
    }
}

impl NeighborAccess for SummaryNeighborView<'_> {
    fn num_nodes(&self) -> usize {
        self.summary.num_subnodes()
    }

    fn for_each_neighbor(&self, u: NodeId, f: &mut dyn FnMut(NodeId)) {
        for v in self.neighbors_vec(u) {
            f(v);
        }
    }

    fn neighbors_vec(&self, u: NodeId) -> Vec<NodeId> {
        match try_neighbors_of(self.summary, u) {
            Ok(v) => v,
            // Out of range: no neighbors, mirroring a CSR graph's treatment of
            // ids beyond the adjacency it holds.
            Err(DecodeError::NodeOutOfRange { .. }) => Vec::new(),
            // Corruption is a programming error, not a query error — loud in
            // debug builds, empty (not a crash) when serving.
            Err(e @ DecodeError::Inconsistent { .. }) => {
                debug_assert!(false, "{e}");
                Vec::new()
            }
        }
    }
}

/// The **id-free canonical form** of a summary: alive supernodes keyed by their
/// member sets (unique — members strictly grow up the hierarchy and partition the
/// subnodes across trees), each mapped to its parent's member set, plus the
/// p/n-edges keyed by both endpoints' member sets.
///
/// Arena ids are scheduling artifacts: compaction, a storage round-trip, and
/// crash recovery all renumber them without changing the summary *as a model*.
/// Two summaries are interchangeable for every downstream consumer exactly when
/// their canonical forms are equal — this is the equality the invariance test
/// lattice pins across `parallelism` settings, and the identity
/// [`crate::storage::durable`] recovery guarantees against an uninterrupted run.
pub type CanonicalForm = (
    usize,
    BTreeMap<Vec<NodeId>, Option<Vec<NodeId>>>,
    BTreeSet<(Vec<NodeId>, Vec<NodeId>, i32)>,
);

/// Computes the [`CanonicalForm`] of a summary.  `O(total members + edges)` with
/// sorting overhead — verification and test code, not a hot path.
pub fn canonical_form(summary: &HierarchicalSummary) -> CanonicalForm {
    let mut nodes: BTreeMap<Vec<NodeId>, Option<Vec<NodeId>>> = BTreeMap::new();
    for id in 0..summary.arena_len() as u32 {
        if !summary.is_alive(id) {
            continue;
        }
        let members = summary.members(id).to_vec();
        let parent = summary.parent(id).map(|p| summary.members(p).to_vec());
        let unique = nodes.insert(members, parent).is_none();
        debug_assert!(unique, "alive member sets must be unique");
    }
    let mut edges: BTreeSet<(Vec<NodeId>, Vec<NodeId>, i32)> = BTreeSet::new();
    for ((a, b), sign) in summary.pn_edges() {
        let ma = summary.members(a).to_vec();
        let mb = summary.members(b).to_vec();
        let (x, y) = if ma <= mb { (ma, mb) } else { (mb, ma) };
        edges.insert((x, y, sign.weight()));
    }
    (summary.num_subnodes(), nodes, edges)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::EdgeSign;

    /// Builds the running example of Fig. 2: input graph on 7 nodes where {0,1,2,3}
    /// all connect to 4 and 5 except that (2,5) and (3,5) are absent, plus edge (5,6)
    /// and a clique-ish core.  We hand-craft a hierarchical summary and check decoding.
    fn handcrafted_summary() -> (HierarchicalSummary, Vec<(NodeId, NodeId)>) {
        let mut s = HierarchicalSummary::identity(7);
        // Hierarchy: {0,1} and {2,3} merge, then the two merge into {0,1,2,3}.
        let m01 = s.merge_roots(0, 1);
        let m23 = s.merge_roots(2, 3);
        let m0123 = s.merge_roots(m01, m23);
        // Edges of the represented graph:
        //   all of {0,1,2,3} pairwise connected            -> p self-loop at m0123
        //   all of {0,1,2,3} connected to 4                 -> p-edge (m0123, 4)
        //   {0,1} connected to 5, {2,3} not                 -> p-edge (m01, 5)
        //   5 connected to 6                                -> p-edge (5, 6)
        s.set_edge(m0123, m0123, EdgeSign::Positive);
        s.set_edge(m0123, 4, EdgeSign::Positive);
        s.set_edge(m01, 5, EdgeSign::Positive);
        s.set_edge(5, 6, EdgeSign::Positive);
        let mut expected = vec![(5u32, 6u32), (0, 5), (1, 5)];
        for u in 0..4u32 {
            expected.push((u, 4));
            for v in (u + 1)..4u32 {
                expected.push((u, v));
            }
        }
        (s, expected)
    }

    #[test]
    fn decode_full_reproduces_handcrafted_graph() {
        let (s, expected) = handcrafted_summary();
        s.validate().unwrap();
        let decoded = decode_full(&s);
        let expected_graph = Graph::from_edges(7, expected);
        assert_eq!(decoded.edge_set(), expected_graph.edge_set());
        verify_lossless(&s, &expected_graph).unwrap();
    }

    #[test]
    fn negative_edges_subtract() {
        // p self-loop over {0,1,2} minus n-edge (0,1) => only (0,2) and (1,2) remain.
        let mut s = HierarchicalSummary::identity(3);
        let m01 = s.merge_roots(0, 1);
        let m = s.merge_roots(m01, 2);
        s.set_edge(m, m, EdgeSign::Positive);
        s.set_edge(0, 1, EdgeSign::Negative);
        let decoded = decode_full(&s);
        assert_eq!(decoded.num_edges(), 2);
        assert!(decoded.has_edge(0, 2));
        assert!(decoded.has_edge(1, 2));
        assert!(!decoded.has_edge(0, 1));
    }

    #[test]
    fn neighbors_of_matches_full_decode() {
        let (s, _) = handcrafted_summary();
        let decoded = decode_full(&s);
        for v in 0..7u32 {
            let from_partial = neighbors_of(&s, v);
            let from_full: Vec<NodeId> = decoded.neighbors(v).to_vec();
            assert_eq!(from_partial, from_full, "node {v}");
        }
    }

    #[test]
    fn neighbor_view_implements_neighbor_access() {
        let (s, _) = handcrafted_summary();
        let view = SummaryNeighborView::new(&s);
        assert_eq!(view.num_nodes(), 7);
        assert_eq!(view.degree_of(4), 4);
        let mut seen = Vec::new();
        view.for_each_neighbor(5, &mut |x| seen.push(x));
        seen.sort_unstable();
        assert_eq!(seen, vec![0, 1, 6]);
        assert_eq!(view.summary().num_subnodes(), 7);
    }

    #[test]
    fn verify_lossless_detects_mismatch() {
        let (s, expected) = handcrafted_summary();
        let mut wrong = expected.clone();
        wrong.push((4, 6));
        let wrong_graph = Graph::from_edges(7, wrong);
        assert!(verify_lossless(&s, &wrong_graph).is_err());
    }

    #[test]
    fn empty_summary_decodes_to_empty_graph() {
        let s = HierarchicalSummary::identity(5);
        let decoded = decode_full(&s);
        assert_eq!(decoded.num_nodes(), 5);
        assert_eq!(decoded.num_edges(), 0);
        assert!(neighbors_of(&s, 0).is_empty());
    }
}
