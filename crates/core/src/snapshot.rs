//! Epoch snapshots of the maintained summary, and the query front-end over
//! them — the read/write split behind summary-native query serving.
//!
//! # Lifecycle: publish → pin → retire
//!
//! The write side ([`crate::incremental::IncrementalSummarizer`]) owns the
//! mutable summary and, when a [`SnapshotSlot`] is attached, **publishes** a
//! fresh [`SummarySnapshot`] at the end of every batch: a validated clone of
//! the summary tagged with the batch epoch.  Readers **pin** the latest
//! snapshot by cloning its `Arc` out of the slot — from then on they hold a
//! self-contained, immutable view that no later batch, prune, compaction or
//! recovery can mutate.  A snapshot **retires** when the slot moves on to a
//! newer epoch and the last reader drops its `Arc` — plain reference-counted
//! reclamation, no epoch bookkeeping on the write side.
//!
//! Publication cost is one `clone` + [`HierarchicalSummary::validate`] of the
//! live summary — `O(summary)`, not `O(graph)` — and a pointer swap under a
//! momentary mutex.  Readers never hold that mutex across a query, so the
//! batch loop is never blocked by a slow reader and vice versa.
//!
//! # Compaction and recovery
//!
//! Arena compaction ([`HierarchicalSummary::compact`]) renumbers supernode
//! slots of the **live** summary; a pinned snapshot owns its clone, so its
//! internal ids — and therefore its answers — are untouched.  Leaf ids (the
//! only ids queries speak) are never renumbered by compaction in the first
//! place, so answers agree across the compaction boundary wherever both
//! epochs represent the same graph.  Durable recovery rebuilds the summarizer
//! to canonical identity; the first snapshot published after recovery answers
//! exactly like the corresponding uninterrupted epoch
//! (`crates/core/tests/query_snapshot.rs` pins all of this).
//!
//! # Query engine
//!
//! [`QueryEngine`] answers neighbor / degree / BFS / PageRank queries against
//! one pinned snapshot through a fallible, panic-free API ([`DecodeError`] —
//! arbitrary ids are a query error, never a crash).  It carries a small
//! bounded cache of decoded neighbor lists for hot subnodes (partial
//! decompression re-walks an ancestor chain per lookup; the cache makes
//! repeated hits on hot supernodes' members cheap).  The cache is invalidated
//! wholesale whenever the engine re-pins onto a different snapshot, so a
//! cached answer can never leak across epochs; hit/miss counters expose the
//! hit rate.
//!
//! Point queries (`neighbors`, `degree`, `bfs_within`) decode one node at a
//! time by Algorithm 4.  Whole-graph sweeps (`pagerank`, `bfs_distances`)
//! touch every node, and PageRank touches every node once per iteration, so
//! they run on [`SummarySnapshot::adjacency`] instead: the snapshot's graph
//! decoded once by [`decode_full`] on the first sweep and shared by every
//! reader pinning that `Arc`.  Its rows are sorted exactly like
//! Algorithm 4's answers, so the sweeps return bit-identical results either
//! way.  Publication never decodes; the CSR costs ≈ `(|V|+1)·8 + 2|E|·4`
//! bytes, only for epochs that ran a sweep, and is freed when the snapshot
//! retires.

use crate::decode::{decode_full, try_neighbors_of, DecodeError};
use crate::model::HierarchicalSummary;
use slugger_algos::PageRankConfig;
use slugger_graph::graph::{Graph, NeighborAccess, NodeId};
use slugger_graph::hash::{FxHashMap, FxHashSet};
use std::collections::VecDeque;
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

/// An immutable, validated view of the summary pinned to a batch epoch.
///
/// Snapshots are self-contained (they own a clone of the summary), `Send +
/// Sync`, and shared by `Arc` — see the module docs for the lifecycle.
/// Queries go through [`QueryEngine`] or the [`NeighborAccess`] impl.
///
/// A snapshot may also hold its fully decoded graph ([`Self::adjacency`]),
/// built on the first whole-graph sweep rather than at publication, so
/// publishing costs the same whether or not anyone runs a sweep.
#[derive(Clone, Debug)]
pub struct SummarySnapshot {
    summary: HierarchicalSummary,
    epoch: usize,
    batch: usize,
    adjacency: OnceLock<Graph>,
}

impl SummarySnapshot {
    /// Validates `summary` and freezes it as the snapshot of `(epoch, batch)`.
    /// Fails (with the validation report) instead of publishing a corrupt
    /// view — a snapshot that exists is always internally consistent.
    pub fn new(summary: HierarchicalSummary, epoch: usize, batch: usize) -> Result<Self, String> {
        summary.validate()?;
        Ok(SummarySnapshot {
            summary,
            epoch,
            batch,
            adjacency: OnceLock::new(),
        })
    }

    /// The frozen summary itself (e.g. for `decode_full` oracles).
    pub fn summary(&self) -> &HierarchicalSummary {
        &self.summary
    }

    /// Pipeline-pass epoch of the summarizer at publication time.
    pub fn epoch(&self) -> usize {
        self.epoch
    }

    /// Number of batches ingested when this snapshot was published.
    pub fn batch(&self) -> usize {
        self.batch
    }

    /// Number of subnodes — valid query ids are `0..num_subnodes()`.
    pub fn num_subnodes(&self) -> usize {
        self.summary.num_subnodes()
    }

    /// Sorted neighbors of `v` by partial decompression (Algorithm 4), or a
    /// typed error for ids that are not subnodes of this snapshot.
    pub fn try_neighbors(&self, v: NodeId) -> Result<Vec<NodeId>, DecodeError> {
        try_neighbors_of(&self.summary, v)
    }

    /// Degree of `v`, or a typed error for out-of-range ids.
    pub fn try_degree(&self, v: NodeId) -> Result<usize, DecodeError> {
        self.try_neighbors(v).map(|n| n.len())
    }

    /// The snapshot's whole graph as a CSR, decoded by [`decode_full`] on the
    /// first call and shared by every later caller on any thread.  It costs
    /// ≈ `(|V|+1)·8 + 2|E|·4` bytes for as long as the snapshot lives; point
    /// queries never build it.
    pub fn adjacency(&self) -> &Graph {
        self.adjacency.get_or_init(|| decode_full(&self.summary))
    }
}

impl NeighborAccess for SummarySnapshot {
    fn num_nodes(&self) -> usize {
        self.summary.num_subnodes()
    }

    fn for_each_neighbor(&self, u: NodeId, f: &mut dyn FnMut(NodeId)) {
        for v in self.neighbors_vec(u) {
            f(v);
        }
    }

    fn neighbors_vec(&self, u: NodeId) -> Vec<NodeId> {
        // Same panic-free contract as `decode::SummaryNeighborView`: ids the
        // snapshot does not cover have no neighbors.
        self.try_neighbors(u).unwrap_or_default()
    }
}

/// The publication point between one writer and any number of readers: a
/// shared, cloneable slot holding the latest [`SummarySnapshot`].
///
/// The writer calls [`SnapshotSlot::publish`]; readers call
/// [`SnapshotSlot::latest`] to pin.  Both are a pointer swap / clone under a
/// momentary mutex — neither side ever holds the lock while decoding or
/// summarizing, so readers never block the batch loop.
#[derive(Clone, Debug, Default)]
pub struct SnapshotSlot {
    inner: Arc<Mutex<Option<Arc<SummarySnapshot>>>>,
}

impl SnapshotSlot {
    /// An empty slot (no snapshot published yet).
    pub fn new() -> Self {
        SnapshotSlot::default()
    }

    /// Publishes `snapshot`, replacing the previous one (which retires once
    /// its last pinned reader drops it).  Returns the published `Arc` so the
    /// writer can keep a pin of its own.
    pub fn publish(&self, snapshot: SummarySnapshot) -> Arc<SummarySnapshot> {
        let snapshot = Arc::new(snapshot);
        *self.lock() = Some(Arc::clone(&snapshot));
        snapshot
    }

    /// Pins the latest published snapshot, or `None` when nothing has been
    /// published yet.
    pub fn latest(&self) -> Option<Arc<SummarySnapshot>> {
        self.lock().clone()
    }

    /// `(epoch, batch)` of the latest published snapshot, without pinning it.
    pub fn latest_epoch(&self) -> Option<(usize, usize)> {
        self.lock().as_ref().map(|s| (s.epoch, s.batch))
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Option<Arc<SummarySnapshot>>> {
        // A poisoned slot only means some other reader panicked mid-swap of a
        // pointer — the Option is always structurally valid, so recover it
        // rather than propagating the panic into every reader.
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// Default capacity of the [`QueryEngine`] neighbor-list cache.
pub const DEFAULT_CACHE_CAPACITY: usize = 1024;

/// Per-reader query front-end over one pinned [`SummarySnapshot`].
///
/// Not shared between threads: each query worker owns its engine (and its
/// cache) and re-pins via [`QueryEngine::pin_latest`] at whatever cadence its
/// freshness requirement dictates.  All entry points are panic-free for
/// arbitrary input ids — errors surface as [`DecodeError`].
#[derive(Debug)]
pub struct QueryEngine {
    snapshot: Arc<SummarySnapshot>,
    cache: FxHashMap<NodeId, Vec<NodeId>>,
    order: VecDeque<NodeId>,
    capacity: usize,
    hits: u64,
    misses: u64,
}

impl QueryEngine {
    /// An engine pinned to `snapshot` with the default cache capacity.
    pub fn new(snapshot: Arc<SummarySnapshot>) -> Self {
        QueryEngine::with_cache_capacity(snapshot, DEFAULT_CACHE_CAPACITY)
    }

    /// An engine pinned to `snapshot` caching at most `capacity` decoded
    /// neighbor lists (FIFO eviction; a minimum of 1 is enforced).
    pub fn with_cache_capacity(snapshot: Arc<SummarySnapshot>, capacity: usize) -> Self {
        QueryEngine {
            snapshot,
            cache: FxHashMap::default(),
            order: VecDeque::new(),
            capacity: capacity.max(1),
            hits: 0,
            misses: 0,
        }
    }

    /// The pinned snapshot.
    pub fn snapshot(&self) -> &Arc<SummarySnapshot> {
        &self.snapshot
    }

    /// `(epoch, batch)` of the pinned snapshot.
    pub fn epoch(&self) -> (usize, usize) {
        (self.snapshot.epoch, self.snapshot.batch)
    }

    /// Re-pins the engine onto `snapshot`.  Pinning a different snapshot
    /// clears the cache (epoch invalidation — a cached answer never outlives
    /// the view it was decoded from); re-pinning the same snapshot keeps it.
    pub fn pin(&mut self, snapshot: Arc<SummarySnapshot>) {
        if !Arc::ptr_eq(&self.snapshot, &snapshot) {
            self.cache.clear();
            self.order.clear();
            self.snapshot = snapshot;
        }
    }

    /// Pins the latest snapshot from `slot`, if one is published.  Returns
    /// `true` when the engine is now on the slot's latest snapshot, `false`
    /// when the slot was empty (the current pin is kept).
    pub fn pin_latest(&mut self, slot: &SnapshotSlot) -> bool {
        match slot.latest() {
            Some(snapshot) => {
                self.pin(snapshot);
                true
            }
            None => false,
        }
    }

    /// Sorted neighbors of `v`, cached.  The returned slice borrows the
    /// engine's cache and is valid until the next `&mut self` call.
    pub fn neighbors(&mut self, v: NodeId) -> Result<&[NodeId], DecodeError> {
        if self.cache.contains_key(&v) {
            self.hits += 1;
        } else {
            let list = self.snapshot.try_neighbors(v)?;
            if self.cache.len() >= self.capacity {
                if let Some(evicted) = self.order.pop_front() {
                    self.cache.remove(&evicted);
                }
            }
            self.cache.insert(v, list);
            self.order.push_back(v);
            self.misses += 1;
        }
        Ok(self.cache[&v].as_slice())
    }

    /// Degree of `v`, through the same cache as [`QueryEngine::neighbors`].
    pub fn degree(&mut self, v: NodeId) -> Result<usize, DecodeError> {
        self.neighbors(v).map(|n| n.len())
    }

    /// Depth-bounded BFS from `source`: the sorted set of nodes within
    /// `max_depth` hops (including `source`).  Frontier expansion goes through
    /// the neighbor cache, so hub-heavy workloads re-use hot decodes.
    pub fn bfs_within(
        &mut self,
        source: NodeId,
        max_depth: usize,
    ) -> Result<Vec<NodeId>, DecodeError> {
        self.check_in_range(source)?;
        let mut reached: Vec<NodeId> = vec![source];
        let mut seen: FxHashSet<NodeId> = FxHashSet::default();
        seen.insert(source);
        let mut frontier: VecDeque<(NodeId, usize)> = VecDeque::new();
        frontier.push_back((source, 0));
        while let Some((u, depth)) = frontier.pop_front() {
            if depth == max_depth {
                continue;
            }
            let next = self.neighbors(u)?.to_vec();
            for v in next {
                if seen.insert(v) {
                    reached.push(v);
                    frontier.push_back((v, depth + 1));
                }
            }
        }
        reached.sort_unstable();
        Ok(reached)
    }

    /// Full single-source BFS over the snapshot's decoded graph
    /// ([`SummarySnapshot::adjacency`], built by the first sweep on this
    /// snapshot).  Bypasses the neighbor cache: every node is visited at most
    /// once, so caching would only churn the hot set.
    pub fn bfs_distances(&mut self, source: NodeId) -> Result<Vec<Option<usize>>, DecodeError> {
        self.check_in_range(source)?;
        Ok(slugger_algos::bfs_distances(
            self.snapshot.adjacency(),
            source,
        ))
    }

    /// PageRank over the snapshot's decoded graph
    /// ([`SummarySnapshot::adjacency`], built by the first sweep on this
    /// snapshot), bit-identical to running it on Algorithm 4.  Infallible:
    /// the computation has no per-query id input.
    pub fn pagerank(&self, config: &PageRankConfig) -> Vec<f64> {
        slugger_algos::pagerank(self.snapshot.adjacency(), config)
    }

    /// Cumulative cache hits over the engine's lifetime.  Counters survive
    /// re-pins (only the cached entries are invalidated), so a serving loop
    /// can report a meaningful long-run hit rate.
    pub fn cache_hits(&self) -> u64 {
        self.hits
    }

    /// Cumulative cache misses (each miss is one Algorithm 4 decode).
    pub fn cache_misses(&self) -> u64 {
        self.misses
    }

    /// `hits / (hits + misses)`, or 0 before the first lookup.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Entries currently cached.
    pub fn cache_len(&self) -> usize {
        self.cache.len()
    }

    /// Configured cache capacity.
    pub fn cache_capacity(&self) -> usize {
        self.capacity
    }

    fn check_in_range(&self, v: NodeId) -> Result<(), DecodeError> {
        if (v as usize) < self.snapshot.num_subnodes() {
            Ok(())
        } else {
            Err(DecodeError::NodeOutOfRange {
                node: v,
                num_subnodes: self.snapshot.num_subnodes(),
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decode::decode_full;
    use crate::model::EdgeSign;

    fn sample_summary() -> HierarchicalSummary {
        let mut s = HierarchicalSummary::identity(6);
        let m01 = s.merge_roots(0, 1);
        s.set_edge(m01, m01, EdgeSign::Positive);
        s.set_edge(m01, 2, EdgeSign::Positive);
        s.set_edge(2, 3, EdgeSign::Positive);
        s.set_edge(4, 5, EdgeSign::Positive);
        s
    }

    #[test]
    fn snapshot_answers_match_decode_full() {
        let snap = SummarySnapshot::new(sample_summary(), 3, 1).unwrap();
        assert_eq!(snap.epoch(), 3);
        assert_eq!(snap.batch(), 1);
        let oracle = decode_full(snap.summary());
        let mut engine = QueryEngine::new(Arc::new(snap));
        for v in 0..6u32 {
            assert_eq!(
                engine.neighbors(v).unwrap(),
                oracle.neighbors(v),
                "node {v}"
            );
            assert_eq!(engine.degree(v).unwrap(), oracle.neighbors(v).len());
        }
        // Second sweep hits the cache only.
        let misses = engine.cache_misses();
        for v in 0..6u32 {
            engine.neighbors(v).unwrap();
        }
        assert_eq!(engine.cache_misses(), misses);
        assert!(engine.hit_rate() > 0.0);
    }

    #[test]
    fn out_of_range_ids_error_everywhere() {
        let snap = Arc::new(SummarySnapshot::new(sample_summary(), 0, 0).unwrap());
        let mut engine = QueryEngine::new(Arc::clone(&snap));
        for v in [6u32, 7, 1 << 20, u32::MAX] {
            assert!(matches!(
                engine.neighbors(v),
                Err(DecodeError::NodeOutOfRange { .. })
            ));
            assert!(engine.degree(v).is_err());
            assert!(engine.bfs_distances(v).is_err());
            assert!(engine.bfs_within(v, 2).is_err());
            // The NeighborAccess view maps the same ids to "no neighbors".
            assert!(snap.neighbors_vec(v).is_empty());
        }
        // Once a sweep has built the decoded adjacency, the range check still
        // guards full BFS (the CSR would panic on an id past its rows).
        engine.pagerank(&PageRankConfig::default());
        assert_eq!(snap.adjacency(), &decode_full(snap.summary()));
        for v in [6u32, 7, 1 << 20, u32::MAX] {
            assert_eq!(
                engine.bfs_distances(v),
                Err(DecodeError::NodeOutOfRange {
                    node: v,
                    num_subnodes: 6
                })
            );
        }
    }

    #[test]
    fn slot_publish_pin_retire() {
        let slot = SnapshotSlot::new();
        assert!(slot.latest().is_none());
        let first = slot.publish(SummarySnapshot::new(sample_summary(), 1, 1).unwrap());
        assert_eq!(slot.latest_epoch(), Some((1, 1)));
        let pinned = slot.latest().unwrap();
        assert!(Arc::ptr_eq(&first, &pinned));
        // Publishing a new epoch retires the old one for new readers, but the
        // existing pin keeps answering from its own view.
        let mut engine = QueryEngine::new(pinned);
        let before = engine.neighbors(0).unwrap().to_vec();
        slot.publish(SummarySnapshot::new(HierarchicalSummary::identity(6), 2, 2).unwrap());
        assert_eq!(engine.neighbors(0).unwrap(), before.as_slice());
        // Re-pinning moves to the new epoch and invalidates the cache.
        assert!(engine.pin_latest(&slot));
        assert_eq!(engine.epoch(), (2, 2));
        assert_eq!(engine.cache_len(), 0);
        assert!(engine.neighbors(0).unwrap().is_empty());
    }

    #[test]
    fn cache_eviction_is_bounded() {
        let snap = Arc::new(SummarySnapshot::new(sample_summary(), 0, 0).unwrap());
        let mut engine = QueryEngine::with_cache_capacity(snap, 2);
        for v in 0..6u32 {
            engine.neighbors(v).unwrap();
        }
        assert_eq!(engine.cache_len(), 2);
        assert_eq!(engine.cache_capacity(), 2);
    }

    #[test]
    fn bfs_within_matches_oracle_reachability() {
        let snap = Arc::new(SummarySnapshot::new(sample_summary(), 0, 0).unwrap());
        let mut engine = QueryEngine::new(Arc::clone(&snap));
        // 0 -1- {1,2} -2- 3; {4,5} unreachable.
        assert_eq!(engine.bfs_within(0, 0).unwrap(), vec![0]);
        assert_eq!(engine.bfs_within(0, 1).unwrap(), vec![0, 1, 2]);
        assert_eq!(engine.bfs_within(0, 2).unwrap(), vec![0, 1, 2, 3]);
        assert_eq!(engine.bfs_within(0, 9).unwrap(), vec![0, 1, 2, 3]);
        let dist = engine.bfs_distances(0).unwrap();
        assert_eq!(dist[3], Some(2));
        assert_eq!(dist[4], None);
        let pr = engine.pagerank(&PageRankConfig::default());
        assert_eq!(pr.len(), 6);
    }

    #[test]
    fn corrupt_summaries_are_refused_at_publish() {
        let mut s = sample_summary();
        // Kill a slot that still carries an edge: validate must reject it.
        s.kill_slot_for_tests(3);
        assert!(SummarySnapshot::new(s, 0, 0).is_err());
    }
}
