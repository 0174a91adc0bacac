//! The hierarchical graph summarization model `G = (S, P+, P−, H)` (Sect. II-B).
//!
//! A [`HierarchicalSummary`] stores
//!
//! * a forest of **supernodes** (`S` and the h-edges `H` as parent/children links) in
//!   an arena indexed by [`SupernodeId`]; the first `|V|` entries are the singleton
//!   leaf supernodes `{0}, {1}, …`;
//! * **p-edges** (`P+`) and **n-edges** (`P−`) between supernodes, stored once per
//!   unordered pair in a hash map plus per-supernode incidence sets.
//!
//! The represented graph has an edge `(u, v)` iff the number of p-edges between
//! supernodes containing `u` and `v` respectively exceeds the number of such n-edges
//! (the paper's interpretation rule).  [`crate::decode`] implements full and partial
//! decompression on top of this structure.

use serde::{Deserialize, Serialize};
use slugger_graph::hash::{FxHashMap, FxHashSet};
use slugger_graph::NodeId;

/// Identifier of a supernode within a [`HierarchicalSummary`] arena.
pub type SupernodeId = u32;

/// Sign of a correction/superedge: `+1` for a p-edge, `-1` for an n-edge.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum EdgeSign {
    /// Positive edge: "all pairs of subnodes between the two supernodes are adjacent".
    Positive,
    /// Negative edge: "no pair of subnodes between the two supernodes is adjacent".
    Negative,
}

impl EdgeSign {
    /// Numeric weight used by the interpretation rule.
    #[inline]
    pub fn weight(self) -> i32 {
        match self {
            EdgeSign::Positive => 1,
            EdgeSign::Negative => -1,
        }
    }

    /// Builds a sign from a non-zero weight.
    #[inline]
    pub fn from_weight(w: i32) -> Option<EdgeSign> {
        match w {
            1 => Some(EdgeSign::Positive),
            -1 => Some(EdgeSign::Negative),
            _ => None,
        }
    }
}

/// One supernode of the hierarchy forest.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Supernode {
    /// Parent in the hierarchy forest (`None` for roots).
    pub parent: Option<SupernodeId>,
    /// Direct children (empty for leaves), in ascending id order. During the
    /// merging phase every internal supernode has exactly two children; pruning
    /// may later rewire to higher arity.
    pub children: Vec<SupernodeId>,
    /// Subnodes contained in this supernode, sorted ascending.
    pub members: Vec<NodeId>,
    /// Whether the supernode is still part of the model (pruning clears this).
    pub alive: bool,
}

impl Supernode {
    /// Whether this supernode is a singleton leaf.
    pub fn is_leaf(&self) -> bool {
        self.children.is_empty()
    }

    /// Number of subnodes contained.
    pub fn size(&self) -> usize {
        self.members.len()
    }
}

/// Canonical unordered key of a supernode pair (allows self-loops).
#[inline]
pub fn edge_key(a: SupernodeId, b: SupernodeId) -> (SupernodeId, SupernodeId) {
    if a <= b {
        (a, b)
    } else {
        (b, a)
    }
}

/// The hierarchical graph summarization model.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct HierarchicalSummary {
    /// Number of subnodes `|V|` of the summarized graph.
    num_subnodes: usize,
    /// Supernode arena. Indices `0..num_subnodes` are the singleton leaves.
    supernodes: Vec<Supernode>,
    /// p/n-edges keyed by canonical unordered supernode pair.
    edges: FxHashMap<(SupernodeId, SupernodeId), EdgeSign>,
    /// For each supernode, the set of supernodes it shares a p/n-edge with
    /// (includes itself when a self-loop exists).
    incidence: Vec<FxHashSet<SupernodeId>>,
    /// Number of p-edges currently stored.
    num_p_edges: usize,
    /// Number of n-edges currently stored.
    num_n_edges: usize,
}

impl HierarchicalSummary {
    /// Creates the identity summary of a graph with `num_subnodes` nodes: one singleton
    /// supernode per subnode and no edges.  `slugger-core`'s driver then adds one
    /// p-edge per subedge (Algorithm 1, lines 1–4).
    pub fn identity(num_subnodes: usize) -> Self {
        let supernodes = (0..num_subnodes)
            .map(|u| Supernode {
                parent: None,
                children: Vec::new(),
                members: vec![u as NodeId],
                alive: true,
            })
            .collect();
        HierarchicalSummary {
            num_subnodes,
            supernodes,
            edges: FxHashMap::default(),
            incidence: vec![FxHashSet::default(); num_subnodes],
            num_p_edges: 0,
            num_n_edges: 0,
        }
    }

    /// Number of subnodes of the summarized graph.
    pub fn num_subnodes(&self) -> usize {
        self.num_subnodes
    }

    /// Number of supernodes ever allocated (including pruned ones).
    pub fn arena_len(&self) -> usize {
        self.supernodes.len()
    }

    /// Number of supernodes currently alive.
    pub fn num_supernodes(&self) -> usize {
        self.supernodes.iter().filter(|s| s.alive).count()
    }

    /// Access to a supernode by id.
    #[inline]
    pub fn supernode(&self, id: SupernodeId) -> &Supernode {
        &self.supernodes[id as usize]
    }

    /// The leaf supernode of a subnode (by construction, ids coincide).
    ///
    /// `subnode` must be a valid subnode id (`< num_subnodes`); use
    /// [`HierarchicalSummary::try_leaf_of`] when the id comes from outside the
    /// process.  In release builds an out-of-range id flows through unchecked
    /// and panics later as an arena index error.
    #[inline]
    pub fn leaf_of(&self, subnode: NodeId) -> SupernodeId {
        debug_assert!((subnode as usize) < self.num_subnodes);
        subnode as SupernodeId
    }

    /// Fallible [`HierarchicalSummary::leaf_of`]: `None` when `subnode` is not
    /// a subnode of this summary.  Leaf slots (`0..num_subnodes`) are alive in
    /// every valid summary, so a `Some` id is always safe to walk — ids at or
    /// above `num_subnodes` would name interior (possibly dead) arena slots or
    /// fall outside the arena entirely.
    #[inline]
    pub fn try_leaf_of(&self, subnode: NodeId) -> Option<SupernodeId> {
        ((subnode as usize) < self.num_subnodes).then_some(subnode as SupernodeId)
    }

    /// Parent of a supernode, if any.
    #[inline]
    pub fn parent(&self, id: SupernodeId) -> Option<SupernodeId> {
        self.supernodes[id as usize].parent
    }

    /// Direct children of a supernode.
    #[inline]
    pub fn children(&self, id: SupernodeId) -> &[SupernodeId] {
        &self.supernodes[id as usize].children
    }

    /// Sorted member subnodes of a supernode.
    #[inline]
    pub fn members(&self, id: SupernodeId) -> &[NodeId] {
        &self.supernodes[id as usize].members
    }

    /// Whether the supernode is alive (not pruned).
    #[inline]
    pub fn is_alive(&self, id: SupernodeId) -> bool {
        self.supernodes[id as usize].alive
    }

    /// Whether the supernode is a root (alive and parentless).
    #[inline]
    pub fn is_root(&self, id: SupernodeId) -> bool {
        let s = &self.supernodes[id as usize];
        s.alive && s.parent.is_none()
    }

    /// Iterator over all alive root supernodes.
    pub fn roots(&self) -> impl Iterator<Item = SupernodeId> + '_ {
        self.supernodes
            .iter()
            .enumerate()
            .filter(|(_, s)| s.alive && s.parent.is_none())
            .map(|(i, _)| i as SupernodeId)
    }

    /// The root of the hierarchy tree containing `id` (climbs parent pointers).
    pub fn root_of(&self, id: SupernodeId) -> SupernodeId {
        let mut cur = id;
        while let Some(p) = self.supernodes[cur as usize].parent {
            cur = p;
        }
        cur
    }

    /// Ancestor chain of a supernode, starting at the supernode itself and ending at
    /// its root.
    pub fn ancestors_inclusive(&self, id: SupernodeId) -> Vec<SupernodeId> {
        let mut out = vec![id];
        let mut cur = id;
        while let Some(p) = self.supernodes[cur as usize].parent {
            out.push(p);
            cur = p;
        }
        out
    }

    /// All supernodes in the tree rooted at `root` (preorder).
    pub fn tree_supernodes(&self, root: SupernodeId) -> Vec<SupernodeId> {
        let mut out = Vec::new();
        let mut stack = vec![root];
        while let Some(x) = stack.pop() {
            out.push(x);
            stack.extend_from_slice(&self.supernodes[x as usize].children);
        }
        out
    }

    /// Appends a fresh internal supernode (the next arena slot) with the given
    /// children, whose members are the union of the children's members.  The
    /// children must currently be roots.  Returns the new supernode's id.
    pub fn merge_roots(&mut self, a: SupernodeId, b: SupernodeId) -> SupernodeId {
        assert!(
            self.is_root(a) && self.is_root(b),
            "merge_roots requires two roots"
        );
        assert_ne!(a, b, "cannot merge a root with itself");
        let id = self.supernodes.len() as SupernodeId;
        let members = merge_sorted(
            &self.supernodes[a as usize].members,
            &self.supernodes[b as usize].members,
        );
        self.supernodes.push(Supernode {
            parent: None,
            children: vec![a.min(b), a.max(b)],
            members,
            alive: true,
        });
        self.incidence.push(FxHashSet::default());
        self.supernodes[a as usize].parent = Some(id);
        self.supernodes[b as usize].parent = Some(id);
        id
    }

    /// Allocates a fresh internal supernode adopting an arbitrary number of current
    /// roots as its children (the general-arity counterpart of
    /// [`HierarchicalSummary::merge_roots`], used when reconstructing a pruned
    /// hierarchy from storage).  Returns the new supernode's id.
    pub fn create_supernode_with_children(&mut self, children: &[SupernodeId]) -> SupernodeId {
        assert!(
            children.len() >= 2,
            "a supernode needs at least two children"
        );
        for &c in children {
            assert!(self.is_root(c), "child {c} must currently be a root");
        }
        let id = self.supernodes.len() as SupernodeId;
        let mut members: Vec<NodeId> = Vec::new();
        for &c in children {
            members.extend_from_slice(&self.supernodes[c as usize].members);
        }
        members.sort_unstable();
        for &c in children {
            self.supernodes[c as usize].parent = Some(id);
        }
        let mut children = children.to_vec();
        children.sort_unstable();
        self.supernodes.push(Supernode {
            parent: None,
            children,
            members,
            alive: true,
        });
        self.incidence.push(FxHashSet::default());
        id
    }

    /// Number of p-edges `|P+|`.
    pub fn num_p_edges(&self) -> usize {
        self.num_p_edges
    }

    /// Number of n-edges `|P−|`.
    pub fn num_n_edges(&self) -> usize {
        self.num_n_edges
    }

    /// Number of h-edges `|H|`: every alive non-root supernode contributes exactly one
    /// (the edge from its parent).
    pub fn num_h_edges(&self) -> usize {
        self.supernodes
            .iter()
            .filter(|s| s.alive && s.parent.is_some())
            .count()
    }

    /// The encoding cost `Cost(G) = |P+| + |P−| + |H|` (Eq. 1).
    pub fn encoding_cost(&self) -> usize {
        self.num_p_edges + self.num_n_edges + self.num_h_edges()
    }

    /// Sign of the p/n-edge between two supernodes, if present.
    #[inline]
    pub fn edge_sign(&self, a: SupernodeId, b: SupernodeId) -> Option<EdgeSign> {
        self.edges.get(&edge_key(a, b)).copied()
    }

    /// Signed weight (+1 p-edge, −1 n-edge, 0 none) between two supernodes.
    #[inline]
    pub fn edge_weight(&self, a: SupernodeId, b: SupernodeId) -> i32 {
        self.edge_sign(a, b).map_or(0, EdgeSign::weight)
    }

    /// Supernodes incident to `id` through a p/n-edge (including `id` itself when a
    /// self-loop exists).
    pub fn incident(&self, id: SupernodeId) -> impl Iterator<Item = SupernodeId> + '_ {
        self.incidence[id as usize].iter().copied()
    }

    /// Number of p/n-edges incident to `id` (self-loop counts once).
    pub fn incident_count(&self, id: SupernodeId) -> usize {
        self.incidence[id as usize].len()
    }

    /// Iterator over all p/n-edges as `((a, b), sign)` with `a <= b`.
    pub fn pn_edges(&self) -> impl Iterator<Item = ((SupernodeId, SupernodeId), EdgeSign)> + '_ {
        self.edges.iter().map(|(&k, &s)| (k, s))
    }

    /// Inserts or replaces the p/n-edge between `a` and `b`.  Returns the previous sign.
    pub fn set_edge(&mut self, a: SupernodeId, b: SupernodeId, sign: EdgeSign) -> Option<EdgeSign> {
        debug_assert!(self.supernodes[a as usize].alive && self.supernodes[b as usize].alive);
        let key = edge_key(a, b);
        let prev = self.edges.insert(key, sign);
        match prev {
            Some(EdgeSign::Positive) => self.num_p_edges -= 1,
            Some(EdgeSign::Negative) => self.num_n_edges -= 1,
            None => {
                self.incidence[a as usize].insert(b);
                self.incidence[b as usize].insert(a);
            }
        }
        match sign {
            EdgeSign::Positive => self.num_p_edges += 1,
            EdgeSign::Negative => self.num_n_edges += 1,
        }
        prev
    }

    /// Removes the p/n-edge between `a` and `b`, if present. Returns the removed sign.
    pub fn remove_edge(&mut self, a: SupernodeId, b: SupernodeId) -> Option<EdgeSign> {
        let key = edge_key(a, b);
        let prev = self.edges.remove(&key);
        if let Some(sign) = prev {
            match sign {
                EdgeSign::Positive => self.num_p_edges -= 1,
                EdgeSign::Negative => self.num_n_edges -= 1,
            }
            self.incidence[a as usize].remove(&b);
            self.incidence[b as usize].remove(&a);
        }
        prev
    }

    /// Removes a supernode from the model: detaches it from its parent, re-parents its
    /// children to the removed node's parent (keeping the parent's children
    /// ascending) or makes them roots, and drops all incident p/n-edges.  Callers
    /// (the pruning step) are responsible for having re-encoded those edges first
    /// so that the represented graph does not change.
    ///
    /// Leaves (singleton supernodes) cannot be pruned — they carry the identity of the
    /// subnodes.
    pub fn prune_supernode(&mut self, id: SupernodeId) {
        assert!(
            !self.supernodes[id as usize].is_leaf(),
            "singleton leaf supernodes cannot be pruned"
        );
        assert!(
            self.supernodes[id as usize].alive,
            "supernode already pruned"
        );
        // Drop incident p/n-edges.
        let incident: Vec<SupernodeId> = self.incidence[id as usize].iter().copied().collect();
        for other in incident {
            self.remove_edge(id, other);
        }
        let parent = self.supernodes[id as usize].parent;
        let children = std::mem::take(&mut self.supernodes[id as usize].children);
        for &c in &children {
            self.supernodes[c as usize].parent = parent;
        }
        if let Some(p) = parent {
            let plist = &mut self.supernodes[p as usize].children;
            plist.retain(|&x| x != id);
            plist.extend_from_slice(&children);
            plist.sort_unstable();
        }
        self.supernodes[id as usize].alive = false;
        self.supernodes[id as usize].parent = None;
        self.supernodes[id as usize].members.clear();
        self.supernodes[id as usize].members.shrink_to_fit();
    }

    /// Structurally splits the tree rooted at `root` along an upward-closed
    /// `kill` set of its **internal** supernodes: every kill node is killed
    /// (children/members cleared, marked dead) and every alive child of a kill
    /// node that is not itself killed becomes a parentless root.  Returns the
    /// promoted roots in ascending id order.
    ///
    /// Killing every internal node dissolves the whole tree back into
    /// singleton-leaf roots; a delta that touches a few leaves only needs their
    /// ancestor *spine* killed, and every intact sibling subtree survives as its
    /// own root; killing just `root` splits the tree into one tree per child.
    /// `kill` must be sorted ascending, contain `root`, and be upward-closed
    /// within the tree (the parent of every non-root kill node is itself killed)
    /// — otherwise a killed node would keep an alive parent, corrupting the
    /// forest.
    ///
    /// The caller must have removed every p/n-edge incident to the killed nodes
    /// first (the incremental engine routes those removals — and the exact
    /// re-attachment of the surviving structure's edges — through its
    /// bookkeeping sink in its one split commit, `MergeEngine::split`).
    pub fn detach_and_kill(&mut self, root: SupernodeId, kill: &[SupernodeId]) -> Vec<SupernodeId> {
        assert!(self.is_root(root), "only a root tree can be split");
        debug_assert!(kill.windows(2).all(|w| w[0] < w[1]), "kill must be sorted");
        debug_assert!(
            kill.binary_search(&root).is_ok(),
            "the kill set must contain the root"
        );
        let mut promoted: Vec<SupernodeId> = Vec::new();
        for &d in kill {
            debug_assert!(
                !self.supernodes[d as usize].is_leaf(),
                "kill set may only contain internal nodes"
            );
            debug_assert!(
                self.supernodes[d as usize]
                    .parent
                    .is_none_or(|p| kill.binary_search(&p).is_ok()),
                "kill set must be upward-closed"
            );
            let children = std::mem::take(&mut self.supernodes[d as usize].children);
            for &c in &children {
                if kill.binary_search(&c).is_err() {
                    self.supernodes[c as usize].parent = None;
                    promoted.push(c);
                }
            }
            debug_assert!(
                self.incidence[d as usize].is_empty(),
                "supernode {d} still carries p/n-edges; remove them before splitting"
            );
            let s = &mut self.supernodes[d as usize];
            s.parent = None;
            s.members.clear();
            s.members.shrink_to_fit();
            s.alive = false;
        }
        promoted.sort_unstable();
        promoted
    }

    /// Number of dead arena slots (pruned or dissolved supernodes whose ids are
    /// still allocated).  Long delta streams accumulate these; compare against
    /// [`HierarchicalSummary::arena_len`] to decide when to
    /// [`HierarchicalSummary::compact`].
    pub fn num_dead_slots(&self) -> usize {
        self.supernodes.iter().filter(|s| !s.alive).count()
    }

    /// Compacts the arena: drops every dead slot and renumbers the surviving
    /// supernodes **order-preservingly** (alive ids keep their relative order;
    /// leaves `0..num_subnodes` are always alive and therefore keep their exact
    /// ids).  Edges, incidence sets and parent/child links are rewritten to the
    /// new ids; the id-free canonical form of the model is untouched.
    ///
    /// Because the remap preserves id order, every downstream consumer that only
    /// depends on the *relative* order of supernode ids (candidate bucketing,
    /// pivot selection, root iteration, storage's children-before-parents
    /// invariant) behaves identically on the compacted summary — which is what
    /// lets the incremental engine compact mid-stream without changing subsequent
    /// outputs.
    ///
    /// Returns the old-id → new-id [`CompactionMap`].
    pub fn compact(&mut self) -> CompactionMap {
        let arena = self.supernodes.len();
        let mut mapping: Vec<Option<SupernodeId>> = vec![None; arena];
        let mut next = 0u32;
        for (id, s) in self.supernodes.iter().enumerate() {
            if s.alive {
                mapping[id] = Some(next);
                next += 1;
            }
        }
        let live = next as usize;
        if live == arena {
            return CompactionMap {
                mapping,
                reclaimed: 0,
            };
        }
        let remap = |id: SupernodeId| -> SupernodeId {
            mapping[id as usize].expect("live supernode references a dead slot")
        };
        let old_nodes = std::mem::take(&mut self.supernodes);
        self.supernodes = Vec::with_capacity(live);
        for s in old_nodes.into_iter() {
            if !s.alive {
                continue;
            }
            self.supernodes.push(Supernode {
                parent: s.parent.map(remap),
                children: s.children.iter().map(|&c| remap(c)).collect(),
                members: s.members,
                alive: true,
            });
        }
        let old_edges = std::mem::take(&mut self.edges);
        self.incidence = vec![FxHashSet::default(); live];
        for ((a, b), sign) in old_edges {
            let (na, nb) = (remap(a), remap(b));
            self.edges.insert(edge_key(na, nb), sign);
            self.incidence[na as usize].insert(nb);
            self.incidence[nb as usize].insert(na);
        }
        CompactionMap {
            mapping,
            reclaimed: arena - live,
        }
    }

    /// Height of the hierarchy tree rooted at `root` (a lone leaf has height 0).
    pub fn tree_height(&self, root: SupernodeId) -> usize {
        let mut max_h = 0usize;
        let mut stack = vec![(root, 0usize)];
        while let Some((x, h)) = stack.pop() {
            max_h = max_h.max(h);
            for &c in &self.supernodes[x as usize].children {
                stack.push((c, h + 1));
            }
        }
        max_h
    }

    /// Depth of every leaf supernode (indexed by subnode id): the number of h-edges on
    /// the path from the leaf to its root.
    pub fn leaf_depths(&self) -> Vec<usize> {
        let mut depths = vec![0usize; self.num_subnodes];
        for (u, depth) in depths.iter_mut().enumerate() {
            let mut d = 0usize;
            let mut cur = u as SupernodeId;
            while let Some(p) = self.supernodes[cur as usize].parent {
                d += 1;
                cur = p;
            }
            *depth = d;
        }
        depths
    }

    /// Internal consistency check used by tests: parent/child symmetry, ascending
    /// child order, member unions, incidence/edge agreement, edge counters.
    pub fn validate(&self) -> Result<(), String> {
        let mut p = 0usize;
        let mut n = 0usize;
        for (&(a, b), &sign) in &self.edges {
            if !self.supernodes[a as usize].alive || !self.supernodes[b as usize].alive {
                return Err(format!("edge ({a},{b}) touches a pruned supernode"));
            }
            if !self.incidence[a as usize].contains(&b) || !self.incidence[b as usize].contains(&a)
            {
                return Err(format!("edge ({a},{b}) missing from incidence sets"));
            }
            match sign {
                EdgeSign::Positive => p += 1,
                EdgeSign::Negative => n += 1,
            }
        }
        if p != self.num_p_edges || n != self.num_n_edges {
            return Err("edge counters out of sync".into());
        }
        for (i, s) in self.supernodes.iter().enumerate() {
            if !s.alive {
                continue;
            }
            let id = i as SupernodeId;
            if let Some(par) = s.parent {
                if !self.supernodes[par as usize].children.contains(&id) {
                    return Err(format!("supernode {id} not listed among parent's children"));
                }
                if !self.supernodes[par as usize].alive {
                    return Err(format!("supernode {id} has pruned parent"));
                }
            }
            if s.children.windows(2).any(|w| w[0] >= w[1]) {
                return Err(format!("children of {id} are not in ascending order"));
            }
            for &c in &s.children {
                if self.supernodes[c as usize].parent != Some(id) {
                    return Err(format!("child {c} of {id} has wrong parent pointer"));
                }
            }
            if !s.children.is_empty() {
                let mut union: Vec<NodeId> = Vec::new();
                for &c in &s.children {
                    union.extend_from_slice(&self.supernodes[c as usize].members);
                }
                union.sort_unstable();
                if union != s.members {
                    return Err(format!("members of {id} are not the union of its children"));
                }
            }
            for &other in &self.incidence[i] {
                if !self.edges.contains_key(&edge_key(id, other)) {
                    return Err(format!(
                        "incidence of {id} references missing edge to {other}"
                    ));
                }
            }
        }
        // Every subnode must belong to exactly one root's member set.
        let mut covered = vec![0usize; self.num_subnodes];
        for r in self.roots() {
            for &u in &self.supernodes[r as usize].members {
                covered[u as usize] += 1;
            }
        }
        if covered.iter().any(|&c| c != 1) {
            return Err("subnodes are not partitioned by the roots".into());
        }
        Ok(())
    }

    /// Test-only invariant breaker: marks a slot dead without detaching its
    /// edges, so tests can exercise the `validate()`-rejection paths that no
    /// public mutator can reach.
    #[cfg(test)]
    pub(crate) fn kill_slot_for_tests(&mut self, id: SupernodeId) {
        self.supernodes[id as usize].alive = false;
    }
}

/// The old-id → new-id mapping produced by [`HierarchicalSummary::compact`].
///
/// Holders of pre-compaction supernode ids (the merge engine's union-find, a
/// caller's root list) translate them through [`CompactionMap::remap`]; dead
/// slots map to `None`.
#[derive(Clone, Debug)]
pub struct CompactionMap {
    mapping: Vec<Option<SupernodeId>>,
    reclaimed: usize,
}

impl CompactionMap {
    /// New id of an old supernode id, or `None` if the slot was dead (reclaimed).
    pub fn remap(&self, old: SupernodeId) -> Option<SupernodeId> {
        self.mapping.get(old as usize).copied().flatten()
    }

    /// Number of dead arena slots reclaimed (0 means the arena was already dense
    /// and nothing moved).
    pub fn reclaimed(&self) -> usize {
        self.reclaimed
    }
}

/// Merges two sorted, disjoint member lists.
fn merge_sorted(a: &[NodeId], b: &[NodeId]) -> Vec<NodeId> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0usize, 0usize);
    while i < a.len() && j < b.len() {
        if a[i] < b[j] {
            out.push(a[i]);
            i += 1;
        } else {
            out.push(b[j]);
            j += 1;
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_summary_has_singletons() {
        let s = HierarchicalSummary::identity(4);
        assert_eq!(s.num_subnodes(), 4);
        assert_eq!(s.num_supernodes(), 4);
        assert_eq!(s.num_h_edges(), 0);
        assert_eq!(s.encoding_cost(), 0);
        for u in 0..4u32 {
            assert!(s.is_root(u));
            assert_eq!(s.members(u), &[u]);
            assert!(s.supernode(u).is_leaf());
        }
        s.validate().unwrap();
    }

    #[test]
    fn set_and_remove_edges_maintain_counts() {
        let mut s = HierarchicalSummary::identity(3);
        assert_eq!(s.set_edge(0, 1, EdgeSign::Positive), None);
        assert_eq!(s.set_edge(1, 2, EdgeSign::Negative), None);
        assert_eq!(s.set_edge(0, 0, EdgeSign::Positive), None); // self-loop
        assert_eq!(s.num_p_edges(), 2);
        assert_eq!(s.num_n_edges(), 1);
        assert_eq!(s.encoding_cost(), 3);
        // Replacing flips the counters.
        assert_eq!(
            s.set_edge(1, 0, EdgeSign::Negative),
            Some(EdgeSign::Positive)
        );
        assert_eq!(s.num_p_edges(), 1);
        assert_eq!(s.num_n_edges(), 2);
        assert_eq!(s.remove_edge(0, 1), Some(EdgeSign::Negative));
        assert_eq!(s.remove_edge(0, 1), None);
        assert_eq!(s.num_n_edges(), 1);
        s.validate().unwrap();
    }

    #[test]
    fn merge_roots_builds_hierarchy() {
        let mut s = HierarchicalSummary::identity(4);
        let m = s.merge_roots(0, 1);
        assert_eq!(s.members(m), &[0, 1]);
        assert_eq!(s.parent(0), Some(m));
        assert_eq!(s.parent(1), Some(m));
        assert!(s.is_root(m));
        assert!(!s.is_root(0));
        assert_eq!(s.num_h_edges(), 2);
        let m2 = s.merge_roots(m, 2);
        assert_eq!(s.members(m2), &[0, 1, 2]);
        assert_eq!(s.tree_height(m2), 2);
        assert_eq!(s.root_of(0), m2);
        assert_eq!(s.root_of(3), 3);
        assert_eq!(s.leaf_depths(), vec![2, 2, 1, 0]);
        s.validate().unwrap();
    }

    #[test]
    #[should_panic(expected = "two roots")]
    fn merge_requires_roots() {
        let mut s = HierarchicalSummary::identity(3);
        let _m = s.merge_roots(0, 1);
        let _ = s.merge_roots(0, 2); // 0 is no longer a root
    }

    #[test]
    fn prune_reparents_children() {
        let mut s = HierarchicalSummary::identity(4);
        let m = s.merge_roots(0, 1);
        let m2 = s.merge_roots(m, 2);
        s.set_edge(m, 3, EdgeSign::Positive);
        // Prune the middle supernode m: its children (0, 1) move up under m2, and the
        // incident edge disappears.
        s.prune_supernode(m);
        assert!(!s.is_alive(m));
        assert_eq!(s.parent(0), Some(m2));
        assert_eq!(s.parent(1), Some(m2));
        assert_eq!(s.num_p_edges(), 0);
        assert_eq!(s.children(m2), &[0, 1, 2]);
        assert_eq!(s.num_h_edges(), 3);
        s.validate().unwrap();
    }

    #[test]
    fn prune_root_promotes_children_to_roots() {
        let mut s = HierarchicalSummary::identity(2);
        let m = s.merge_roots(0, 1);
        s.prune_supernode(m);
        assert!(s.is_root(0));
        assert!(s.is_root(1));
        assert_eq!(s.num_h_edges(), 0);
        s.validate().unwrap();
    }

    #[test]
    #[should_panic(expected = "singleton leaf")]
    fn cannot_prune_leaf() {
        let mut s = HierarchicalSummary::identity(2);
        s.prune_supernode(0);
    }

    #[test]
    fn ancestors_and_tree_listing() {
        let mut s = HierarchicalSummary::identity(4);
        let m = s.merge_roots(0, 1);
        let m2 = s.merge_roots(m, 2);
        assert_eq!(s.ancestors_inclusive(0), vec![0, m, m2]);
        let mut tree = s.tree_supernodes(m2);
        tree.sort_unstable();
        assert_eq!(tree, vec![0, 1, 2, m, m2]);
    }

    #[test]
    fn create_supernode_with_many_children() {
        let mut s = HierarchicalSummary::identity(4);
        let m = s.create_supernode_with_children(&[2, 0, 1]);
        assert_eq!(s.members(m), &[0, 1, 2]);
        assert_eq!(s.children(m), &[0, 1, 2]);
        assert_eq!(s.num_h_edges(), 3);
        assert!(s.is_root(m));
        assert!(s.is_root(3));
        s.validate().unwrap();
    }

    #[test]
    fn children_stay_ascending_and_validate_rejects_any_other_order() {
        let mut s = HierarchicalSummary::identity(4);
        let m = s.merge_roots(3, 1);
        assert_eq!(s.children(m), &[1, 3]);
        let top = s.merge_roots(m, 0);
        assert_eq!(s.children(top), &[0, m]);
        // Pruning `m` hands its children to `top`, which keeps them ascending.
        s.prune_supernode(m);
        assert_eq!(s.children(top), &[0, 1, 3]);
        s.validate().unwrap();
        s.supernodes[top as usize].children.swap(0, 2);
        let err = s.validate().unwrap_err();
        assert!(err.contains("ascending"), "{err}");
    }

    #[test]
    #[should_panic(expected = "at least two children")]
    fn create_supernode_rejects_single_child() {
        let mut s = HierarchicalSummary::identity(2);
        let _ = s.create_supernode_with_children(&[0]);
    }

    #[test]
    fn detach_and_kill_splits_the_spine_only() {
        // ((0,1),(2,3)) under a top root; killing the top + left spine promotes
        // leaves 0, 1 and the intact right subtree {2,3}.
        let mut s = HierarchicalSummary::identity(4);
        let left = s.merge_roots(0, 1);
        let right = s.merge_roots(2, 3);
        let top = s.merge_roots(left, right);
        let mut kill = vec![top, left];
        kill.sort_unstable();
        let promoted = s.detach_and_kill(top, &kill);
        assert_eq!(promoted, vec![0, 1, right]);
        for r in [0u32, 1, right] {
            assert!(s.is_root(r), "{r} must be a root");
        }
        assert!(!s.is_alive(top) && !s.is_alive(left));
        // The intact subtree keeps its structure.
        assert_eq!(s.children(right), &[2, 3]);
        assert_eq!(s.members(right), &[2, 3]);
        assert_eq!(s.parent(2), Some(right));
        s.validate().unwrap();
    }

    #[test]
    fn detach_and_kill_of_every_internal_node_matches_dissolve() {
        let mut s = HierarchicalSummary::identity(3);
        let m01 = s.merge_roots(0, 1);
        let m = s.merge_roots(m01, 2);
        let mut kill = vec![m, m01];
        kill.sort_unstable();
        let promoted = s.detach_and_kill(m, &kill);
        assert_eq!(promoted, vec![0, 1, 2]);
        assert_eq!(s.num_h_edges(), 0);
        s.validate().unwrap();
    }

    #[test]
    fn dissolve_tree_restores_singleton_roots() {
        // Killing every internal node dissolves the tree back into singleton
        // roots and leaves the rest of the summary alone.
        let mut s = HierarchicalSummary::identity(5);
        let m01 = s.merge_roots(0, 1);
        let m = s.merge_roots(m01, 2);
        s.set_edge(3, 4, EdgeSign::Positive);
        let mut kill = vec![m, m01];
        kill.sort_unstable();
        let promoted = s.detach_and_kill(m, &kill);
        assert_eq!(promoted, vec![0, 1, 2]);
        for leaf in 0..3u32 {
            assert!(s.is_root(leaf), "leaf {leaf} must be a root again");
            assert_eq!(s.members(leaf), &[leaf]);
        }
        assert!(!s.is_alive(m01) && !s.is_alive(m));
        assert_eq!(s.num_h_edges(), 0);
        assert_eq!(s.edge_sign(3, 4), Some(EdgeSign::Positive));
        s.validate().unwrap();
    }

    #[test]
    #[should_panic(expected = "only a root")]
    fn detach_and_kill_rejects_non_roots() {
        let mut s = HierarchicalSummary::identity(3);
        let m = s.merge_roots(0, 1);
        let top = s.merge_roots(m, 2);
        let _ = s.detach_and_kill(m, &[m, top]);
    }

    #[test]
    #[should_panic(expected = "only a root")]
    fn dissolve_tree_rejects_non_roots() {
        let mut s = HierarchicalSummary::identity(2);
        let _m = s.merge_roots(0, 1);
        let _ = s.detach_and_kill(0, &[]);
    }

    #[test]
    fn compact_reclaims_dead_slots_order_preservingly() {
        let mut s = HierarchicalSummary::identity(6);
        let m01 = s.merge_roots(0, 1); // id 6
        let m23 = s.merge_roots(2, 3); // id 7
        let top = s.merge_roots(m01, m23); // id 8
        s.set_edge(top, 4, EdgeSign::Positive);
        s.set_edge(0, 5, EdgeSign::Negative);
        s.set_edge(m23, m23, EdgeSign::Positive);
        // Kill m01 (edge-free internal node): one dead slot.
        s.prune_supernode(m01);
        assert_eq!(s.num_dead_slots(), 1);
        let cost_before = s.encoding_cost();
        let map = s.compact();
        assert_eq!(map.reclaimed(), 1);
        assert_eq!(map.remap(m01), None);
        // Survivors keep their relative order: m23 slides into m01's slot.
        assert_eq!(map.remap(m23), Some(6));
        assert_eq!(map.remap(top), Some(7));
        for leaf in 0..6u32 {
            assert_eq!(map.remap(leaf), Some(leaf), "leaves never move");
        }
        assert_eq!(s.arena_len(), 8);
        assert_eq!(s.num_dead_slots(), 0);
        assert_eq!(s.encoding_cost(), cost_before);
        assert_eq!(s.edge_sign(7, 4), Some(EdgeSign::Positive));
        assert_eq!(s.edge_sign(6, 6), Some(EdgeSign::Positive));
        assert_eq!(s.edge_sign(0, 5), Some(EdgeSign::Negative));
        assert_eq!(s.parent(6), Some(7));
        let mut kids = s.children(7).to_vec();
        kids.sort_unstable();
        assert_eq!(kids, vec![0, 1, 6]);
        s.validate().unwrap();
    }

    #[test]
    fn compact_on_dense_arena_is_a_no_op() {
        let mut s = HierarchicalSummary::identity(4);
        let m = s.merge_roots(0, 1);
        s.set_edge(m, 2, EdgeSign::Positive);
        let map = s.compact();
        assert_eq!(map.reclaimed(), 0);
        assert_eq!(map.remap(m), Some(m));
        assert_eq!(s.arena_len(), 5);
        s.validate().unwrap();
    }

    #[test]
    fn edge_weight_and_sign_roundtrip() {
        assert_eq!(EdgeSign::from_weight(1), Some(EdgeSign::Positive));
        assert_eq!(EdgeSign::from_weight(-1), Some(EdgeSign::Negative));
        assert_eq!(EdgeSign::from_weight(0), None);
        assert_eq!(EdgeSign::Positive.weight(), 1);
        assert_eq!(EdgeSign::Negative.weight(), -1);
    }

    #[test]
    fn merge_sorted_members() {
        assert_eq!(
            merge_sorted(&[1, 4, 9], &[2, 3, 10]),
            vec![1, 2, 3, 4, 9, 10]
        );
        assert_eq!(merge_sorted(&[], &[5]), vec![5]);
    }
}
