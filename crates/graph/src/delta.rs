//! Mutable graphs as **base snapshot + sorted delta overlay**.
//!
//! A [`DeltaGraph`] wraps a frozen [`GraphDb`] and a [`GraphDelta`] — four
//! per-node sorted overlays (inserted / tombstoned edges, in each
//! direction). Reads go through [`GraphView`]: each per-label or node-major
//! query merges the base row with the matching overlay sub-range in a
//! single two-pointer walk, so a read costs `O(base slice + overlay
//! sub-range)` and a node untouched by the delta reads at exactly base
//! speed.
//!
//! # Overlay invariants
//!
//! The mutation API maintains two invariants that keep the merge trivial:
//!
//! 1. **adds ∩ base = ∅** — an insert of an edge already in the base is a
//!    no-op (unless it revives a tombstone, which just removes the
//!    tombstone). The merge iterator therefore never sees equal heads.
//! 2. **dels ⊆ base** — tombstones only ever name base edges (deleting an
//!    overlay insert removes it from `adds` directly). Since both the base
//!    slice and the tombstone sub-range are ascending, tombstones are
//!    consumed in lockstep with the base heads they cancel.
//!
//! Together these make every degree an exact `base − dels + adds` count and
//! keep [`DeltaGraph::num_edges`] maintainable in O(1) per mutation.
//!
//! # Compaction
//!
//! The overlay is a read-amplification tax: every query pays a sub-range
//! binary search per touched node. Past a configurable mutation budget
//! ([`DeltaGraph::should_compact`]) the owner calls
//! [`DeltaGraph::compact`] to rebuild a frozen [`GraphDb`] (full adjacency
//! build, `O(V + E)`) and start a fresh, empty delta on top of it.
//!
//! Cache interplay: the relation catalog in `crpq-core` keys invalidation
//! by **label footprint** — after mutating label `ℓ`, only cached
//! relations whose NFA alphabet mentions `ℓ` need eviction. The mutation
//! methods here return enough information (`true` = graph changed) for
//! the caller to drive that invalidation.

use crate::db::{EdgeRow, GraphBuilder, GraphDb, NodeId, NodeNames};
use crate::view::GraphView;
use crpq_util::{FxHashMap, Interner, Symbol};

/// Sorted edge-overlay of a [`DeltaGraph`]: inserted and tombstoned edges,
/// indexed per node in both directions. Each `Vec` is kept sorted by
/// `(label, node)`, so the per-label sub-range is found by two
/// `partition_point` probes and merges against the base row slice without
/// any further comparisons on label.
#[derive(Clone, Debug, Default)]
pub struct GraphDelta {
    /// `adds_out[u]` = inserted `(label, target)` pairs, sorted.
    adds_out: FxHashMap<u32, Vec<(Symbol, NodeId)>>,
    /// `dels_out[u]` = tombstoned base `(label, target)` pairs, sorted.
    dels_out: FxHashMap<u32, Vec<(Symbol, NodeId)>>,
    /// Reverse orientation of `adds_out`: `adds_in[v]` = `(label, source)`.
    adds_in: FxHashMap<u32, Vec<(Symbol, NodeId)>>,
    /// Reverse orientation of `dels_out`.
    dels_in: FxHashMap<u32, Vec<(Symbol, NodeId)>>,
    /// Live inserted edges (adds minus later deletes of those adds).
    inserted: usize,
    /// Live tombstones over base edges.
    deleted: usize,
}

const EMPTY_OVERLAY: &[(Symbol, NodeId)] = &[];

impl GraphDelta {
    fn out_adds(&self, v: NodeId) -> &[(Symbol, NodeId)] {
        self.adds_out.get(&v.0).map_or(EMPTY_OVERLAY, |l| l)
    }

    fn out_dels(&self, v: NodeId) -> &[(Symbol, NodeId)] {
        self.dels_out.get(&v.0).map_or(EMPTY_OVERLAY, |l| l)
    }

    fn in_adds(&self, v: NodeId) -> &[(Symbol, NodeId)] {
        self.adds_in.get(&v.0).map_or(EMPTY_OVERLAY, |l| l)
    }

    fn in_dels(&self, v: NodeId) -> &[(Symbol, NodeId)] {
        self.dels_in.get(&v.0).map_or(EMPTY_OVERLAY, |l| l)
    }

    /// Live inserted edges in the overlay.
    pub fn inserted(&self) -> usize {
        self.inserted
    }

    /// Live tombstones over base edges.
    pub fn deleted(&self) -> usize {
        self.deleted
    }

    /// Overlay size — the compaction pressure metric.
    pub fn len(&self) -> usize {
        self.inserted + self.deleted
    }

    /// Whether the overlay is empty (reads are pure base reads).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The per-label sub-range of a sorted `(label, node)` overlay list.
fn label_range(list: &[(Symbol, NodeId)], label: Symbol) -> &[(Symbol, NodeId)] {
    let lo = list.partition_point(|&(l, _)| l < label);
    let hi = lo + list[lo..].partition_point(|&(l, _)| l <= label);
    &list[lo..hi]
}

/// Insert `entry` into a sorted overlay list; `false` if already present.
fn sorted_insert(list: &mut Vec<(Symbol, NodeId)>, entry: (Symbol, NodeId)) -> bool {
    match list.binary_search(&entry) {
        Ok(_) => false,
        Err(pos) => {
            list.insert(pos, entry);
            true
        }
    }
}

/// Remove `entry` from a sorted overlay list; `false` if absent.
fn sorted_remove(list: &mut Vec<(Symbol, NodeId)>, entry: (Symbol, NodeId)) -> bool {
    match list.binary_search(&entry) {
        Ok(pos) => {
            list.remove(pos);
            true
        }
        Err(_) => false,
    }
}

fn overlay_contains(list: &[(Symbol, NodeId)], entry: (Symbol, NodeId)) -> bool {
    list.binary_search(&entry).is_ok()
}

/// Default mutation budget before [`DeltaGraph::should_compact`] reports
/// true: large enough that churny workloads amortise the `O(V + E)`
/// rebuild, small enough that the overlay's per-read merge tax stays a
/// small fraction of base slice length on 10⁵-node graphs.
pub const DEFAULT_COMPACT_THRESHOLD: usize = 1 << 14;

/// A frozen [`GraphDb`] base plus a mutable sorted overlay, readable
/// through [`GraphView`]. See the [module docs](self) for the overlay
/// invariants and compaction policy.
#[derive(Clone, Debug)]
pub struct DeltaGraph {
    base: GraphDb,
    delta: GraphDelta,
    /// Nodes appended past `base.num_nodes()` by [`Self::add_node`].
    added_nodes: usize,
    /// Maintained incrementally: `base.num_edges() − deleted + inserted`.
    num_edges: usize,
    compact_threshold: usize,
}

impl DeltaGraph {
    /// Wrap a frozen snapshot with an empty overlay and the
    /// [default](DEFAULT_COMPACT_THRESHOLD) compaction budget.
    pub fn new(base: GraphDb) -> Self {
        Self::with_compact_threshold(base, DEFAULT_COMPACT_THRESHOLD)
    }

    /// [`Self::new`] with an explicit compaction budget (mutations applied
    /// before [`Self::should_compact`] reports true).
    pub fn with_compact_threshold(base: GraphDb, compact_threshold: usize) -> Self {
        let num_edges = base.num_edges();
        DeltaGraph {
            base,
            delta: GraphDelta::default(),
            added_nodes: 0,
            num_edges,
            compact_threshold,
        }
    }

    /// The frozen base snapshot under the overlay.
    pub fn base(&self) -> &GraphDb {
        &self.base
    }

    /// The current overlay.
    pub fn delta(&self) -> &GraphDelta {
        &self.delta
    }

    /// Intern an edge label (existing labels keep their id; labels new to
    /// the base alphabet get fresh ids whose base rows carry no edges —
    /// their edges live purely in the overlay until compaction).
    pub fn label(&mut self, name: &str) -> Symbol {
        self.base.alphabet_mut().intern(name)
    }

    /// Append a fresh node (dense id `num_nodes()` before the call).
    /// Overlay-added nodes are anonymous; compaction assigns `_d{id}`
    /// names on named bases.
    pub fn add_node(&mut self) -> NodeId {
        let id = NodeId(self.num_nodes() as u32);
        self.added_nodes += 1;
        id
    }

    /// Insert the edge `u --label--> v`. Returns `true` iff the graph
    /// changed (`false` when the edge already exists). Inserting an edge
    /// tombstoned by an earlier delete revives the base edge by removing
    /// the tombstone, preserving the *adds ∩ base = ∅* invariant.
    ///
    /// # Panics
    /// If `u` or `v` is out of range.
    pub fn insert_edge(&mut self, u: NodeId, label: Symbol, v: NodeId) -> bool {
        let n = self.num_nodes();
        assert!(
            u.index() < n && v.index() < n,
            "insert_edge({u:?}, {v:?}) out of range for {n} nodes"
        );
        // Revive a tombstoned base edge: drop the tombstone.
        if let Some(dels) = self.delta.dels_out.get_mut(&u.0) {
            if sorted_remove(dels, (label, v)) {
                let dels_in = self.delta.dels_in.get_mut(&v.0).expect("tombstone pair"); // invariant: adds/dels maps are kept pairwise consistent
                let removed = sorted_remove(dels_in, (label, u));
                debug_assert!(removed, "tombstone missing reverse orientation");
                self.delta.deleted -= 1;
                self.num_edges += 1;
                return true;
            }
        }
        if self.base.has_edge(u, label, v) || overlay_contains(self.delta.out_adds(u), (label, v)) {
            return false;
        }
        sorted_insert(self.delta.adds_out.entry(u.0).or_default(), (label, v));
        sorted_insert(self.delta.adds_in.entry(v.0).or_default(), (label, u));
        self.delta.inserted += 1;
        self.num_edges += 1;
        true
    }

    /// Delete the edge `u --label--> v`. Returns `true` iff the graph
    /// changed (`false` when no such edge exists). Deleting an overlay
    /// insert removes it from `adds`; deleting a base edge records a
    /// tombstone (the *dels ⊆ base* invariant).
    pub fn delete_edge(&mut self, u: NodeId, label: Symbol, v: NodeId) -> bool {
        if let Some(adds) = self.delta.adds_out.get_mut(&u.0) {
            if sorted_remove(adds, (label, v)) {
                let adds_in = self.delta.adds_in.get_mut(&v.0).expect("insert pair"); // invariant: adds/dels maps are kept pairwise consistent
                let removed = sorted_remove(adds_in, (label, u));
                debug_assert!(removed, "insert missing reverse orientation");
                self.delta.inserted -= 1;
                self.num_edges -= 1;
                return true;
            }
        }
        if !self.base.has_edge(u, label, v) || overlay_contains(self.delta.out_dels(u), (label, v))
        {
            return false;
        }
        sorted_insert(self.delta.dels_out.entry(u.0).or_default(), (label, v));
        sorted_insert(self.delta.dels_in.entry(v.0).or_default(), (label, u));
        self.delta.deleted += 1;
        self.num_edges -= 1;
        true
    }

    /// Whether the overlay has outgrown its mutation budget and the owner
    /// should [`compact`](Self::compact).
    pub fn should_compact(&self) -> bool {
        self.delta.len() + self.added_nodes >= self.compact_threshold
    }

    /// The configured mutation budget.
    pub fn compact_threshold(&self) -> usize {
        self.compact_threshold
    }

    /// Reconfigure the mutation budget (takes effect on the next
    /// [`Self::should_compact`] check).
    pub fn set_compact_threshold(&mut self, compact_threshold: usize) {
        self.compact_threshold = compact_threshold;
    }

    /// Rebuild a frozen [`GraphDb`] equivalent to this view (full
    /// counting-sort adjacency build, `O(V + E)`); the overlay is consumed.
    /// Overlay-added nodes on a named base are assigned fresh `_d{id}`
    /// names (salted on the off-chance the base already used one).
    pub fn compact(self) -> GraphDb {
        let n_total = self.num_nodes();
        let base_n = self.base.num_nodes();
        let alphabet: Interner = self.base.alphabet().clone();
        let mut b = match self.base.names() {
            NodeNames::Anonymous => GraphBuilder::anonymous_with_alphabet(n_total, alphabet),
            NodeNames::Named(_) => {
                let mut b = GraphBuilder::with_alphabet(alphabet);
                for i in 0..base_n {
                    b.node(self.base.node_name(NodeId(i as u32)));
                }
                for i in base_n..n_total {
                    let mut salt = 0usize;
                    loop {
                        let name = if salt == 0 {
                            format!("_d{i}")
                        } else {
                            format!("_d{i}_{salt}")
                        };
                        let before = b.num_nodes();
                        let id = b.node(&name);
                        if b.num_nodes() > before {
                            debug_assert_eq!(id.index(), i);
                            break;
                        }
                        salt += 1;
                    }
                }
                b
            }
        };
        for v in 0..n_total {
            let v = NodeId(v as u32);
            for (l, t) in self.out_edges_iter(v) {
                b.edge_ids(v, l, t);
            }
        }
        let compacted = b.finish();
        debug_assert_eq!(compacted.num_edges(), self.num_edges);
        compacted
    }

    /// In-place [`compact`](Self::compact): folds the overlay into a fresh
    /// frozen base and leaves `self` holding it with an empty delta, the
    /// configured threshold preserved. Spares callers the
    /// `mem::replace` dance the by-value `compact` forces on `&mut`
    /// holders.
    pub fn compact_in_place(&mut self) {
        if self.delta.is_empty() && self.added_nodes == 0 {
            return;
        }
        let threshold = self.compact_threshold;
        let placeholder =
            DeltaGraph::with_compact_threshold(GraphBuilder::anonymous(0).finish(), threshold);
        let owned = std::mem::replace(self, placeholder);
        *self = DeltaGraph::with_compact_threshold(owned.compact(), threshold);
    }
}

/// Merged per-label neighbour iterator: base row slice minus tombstones,
/// interleaved with overlay inserts, in ascending node-id order. The
/// overlay invariants guarantee no equal heads (adds ∩ base = ∅) and that
/// tombstones cancel base heads in lockstep (dels ⊆ base, both sorted).
pub struct DeltaNeighbors<'a> {
    base: &'a [NodeId],
    adds: &'a [(Symbol, NodeId)],
    dels: &'a [(Symbol, NodeId)],
}

impl<'a> Iterator for DeltaNeighbors<'a> {
    type Item = NodeId;

    fn next(&mut self) -> Option<NodeId> {
        loop {
            if let Some(&bv) = self.base.first() {
                if let Some(&(_, dv)) = self.dels.first() {
                    if dv == bv {
                        self.base = &self.base[1..];
                        self.dels = &self.dels[1..];
                        continue;
                    }
                }
                match self.adds.first() {
                    Some(&(_, av)) if av < bv => {
                        self.adds = &self.adds[1..];
                        return Some(av);
                    }
                    _ => {
                        self.base = &self.base[1..];
                        return Some(bv);
                    }
                }
            }
            let &(_, av) = self.adds.first()?;
            self.adds = &self.adds[1..];
            return Some(av);
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.base.len() + self.adds.len() - self.dels.len();
        (n, Some(n))
    }
}

/// Merged node-major edge iterator over `(label, node)` pairs, ordered by
/// `(label, node)`; same merge discipline as [`DeltaNeighbors`].
pub struct DeltaEdges<'a> {
    base: EdgeRow<'a>,
    /// Index of the next unread base pair.
    at: usize,
    adds: &'a [(Symbol, NodeId)],
    dels: &'a [(Symbol, NodeId)],
}

impl<'a> Iterator for DeltaEdges<'a> {
    type Item = (Symbol, NodeId);

    fn next(&mut self) -> Option<(Symbol, NodeId)> {
        loop {
            if let Some(b) = self.base.get(self.at) {
                if self.dels.first() == Some(&b) {
                    self.at += 1;
                    self.dels = &self.dels[1..];
                    continue;
                }
                match self.adds.first() {
                    Some(&a) if a < b => {
                        self.adds = &self.adds[1..];
                        return Some(a);
                    }
                    _ => {
                        self.at += 1;
                        return Some(b);
                    }
                }
            }
            let &a = self.adds.first()?;
            self.adds = &self.adds[1..];
            return Some(a);
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.base.len() - self.at + self.adds.len() - self.dels.len();
        (n, Some(n))
    }
}

impl GraphView for DeltaGraph {
    type Neighbors<'a> = DeltaNeighbors<'a>;
    type NodeEdges<'a> = DeltaEdges<'a>;

    fn num_nodes(&self) -> usize {
        self.base.num_nodes() + self.added_nodes
    }

    fn num_edges(&self) -> usize {
        self.num_edges
    }

    fn alphabet(&self) -> &Interner {
        self.base.alphabet()
    }

    fn successors(&self, v: NodeId, label: Symbol) -> DeltaNeighbors<'_> {
        DeltaNeighbors {
            base: self.base.successors_slice(v, label),
            adds: label_range(self.delta.out_adds(v), label),
            dels: label_range(self.delta.out_dels(v), label),
        }
    }

    fn predecessors(&self, v: NodeId, label: Symbol) -> DeltaNeighbors<'_> {
        DeltaNeighbors {
            base: self.base.predecessors_slice(v, label),
            adds: label_range(self.delta.in_adds(v), label),
            dels: label_range(self.delta.in_dels(v), label),
        }
    }

    fn out_degree(&self, v: NodeId, label: Symbol) -> usize {
        self.base.successors_slice(v, label).len()
            + label_range(self.delta.out_adds(v), label).len()
            - label_range(self.delta.out_dels(v), label).len()
    }

    fn in_degree(&self, v: NodeId, label: Symbol) -> usize {
        self.base.predecessors_slice(v, label).len()
            + label_range(self.delta.in_adds(v), label).len()
            - label_range(self.delta.in_dels(v), label).len()
    }

    fn out_edges_iter(&self, v: NodeId) -> DeltaEdges<'_> {
        DeltaEdges {
            base: self.base.out_edges(v),
            at: 0,
            adds: self.delta.out_adds(v),
            dels: self.delta.out_dels(v),
        }
    }

    fn in_edges_iter(&self, v: NodeId) -> DeltaEdges<'_> {
        DeltaEdges {
            base: self.base.in_edges(v),
            at: 0,
            adds: self.delta.in_adds(v),
            dels: self.delta.in_dels(v),
        }
    }

    fn has_edge(&self, u: NodeId, label: Symbol, v: NodeId) -> bool {
        if overlay_contains(self.delta.out_adds(u), (label, v)) {
            return true;
        }
        self.base.has_edge(u, label, v) && !overlay_contains(self.delta.out_dels(u), (label, v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base() -> GraphDb {
        let mut b = GraphBuilder::new();
        let a = b.label("a");
        let c = b.label("b");
        let (x, y, z) = (b.node("x"), b.node("y"), b.node("z"));
        b.edge_ids(x, a, y);
        b.edge_ids(x, a, z);
        b.edge_ids(y, c, z);
        b.edge_ids(z, a, x);
        b.finish()
    }

    fn succ(g: &DeltaGraph, v: NodeId, l: Symbol) -> Vec<u32> {
        g.successors(v, l).map(|n| n.0).collect()
    }

    fn pred(g: &DeltaGraph, v: NodeId, l: Symbol) -> Vec<u32> {
        g.predecessors(v, l).map(|n| n.0).collect()
    }

    #[test]
    fn empty_overlay_reads_like_base() {
        let b = base();
        let a = b.alphabet().get("a").unwrap();
        let expect: Vec<u32> = b.successors(NodeId(0), a).map(|n| n.0).collect();
        let g = DeltaGraph::new(b);
        assert_eq!(succ(&g, NodeId(0), a), expect);
        assert_eq!(g.num_edges, 4);
        assert_eq!(GraphView::num_nodes(&g), 3);
    }

    #[test]
    fn insert_merges_in_sorted_position() {
        let mut g = DeltaGraph::new(base());
        let a = g.label("a");
        // base a-successors of x (=0) are {1, 2}; add self-loop 0.
        assert!(g.insert_edge(NodeId(0), a, NodeId(0)));
        assert!(!g.insert_edge(NodeId(0), a, NodeId(0)), "duplicate insert");
        assert!(!g.insert_edge(NodeId(0), a, NodeId(1)), "already in base");
        assert_eq!(succ(&g, NodeId(0), a), vec![0, 1, 2]);
        assert_eq!(pred(&g, NodeId(0), a), vec![0, 2]);
        assert_eq!(g.out_degree(NodeId(0), a), 3);
        assert_eq!(GraphView::num_edges(&g), 5);
        assert!(g.has_edge(NodeId(0), a, NodeId(0)));
    }

    #[test]
    fn delete_tombstones_base_and_revives() {
        let mut g = DeltaGraph::new(base());
        let a = g.label("a");
        assert!(g.delete_edge(NodeId(0), a, NodeId(1)));
        assert!(!g.delete_edge(NodeId(0), a, NodeId(1)), "double delete");
        assert_eq!(succ(&g, NodeId(0), a), vec![2]);
        assert_eq!(pred(&g, NodeId(1), a), Vec::<u32>::new());
        assert!(!g.has_edge(NodeId(0), a, NodeId(1)));
        assert_eq!(GraphView::num_edges(&g), 3);
        assert_eq!(g.out_degree(NodeId(0), a), 1);
        // Revive: the tombstone disappears, adds stay empty.
        assert!(g.insert_edge(NodeId(0), a, NodeId(1)));
        assert!(g.delta().is_empty());
        assert_eq!(succ(&g, NodeId(0), a), vec![1, 2]);
        assert_eq!(GraphView::num_edges(&g), 4);
    }

    #[test]
    fn delete_overlay_insert_removes_it() {
        let mut g = DeltaGraph::new(base());
        let a = g.label("a");
        assert!(g.insert_edge(NodeId(1), a, NodeId(0)));
        assert!(g.delete_edge(NodeId(1), a, NodeId(0)));
        assert!(g.delta().is_empty());
        assert_eq!(GraphView::num_edges(&g), 4);
        assert!(!g.delete_edge(NodeId(1), a, NodeId(0)), "nothing left");
    }

    #[test]
    fn added_nodes_and_new_labels_work_through_the_view() {
        let mut g = DeltaGraph::new(base());
        let fresh = g.label("fresh"); // not in the base adjacency
        let w = g.add_node();
        assert_eq!(w, NodeId(3));
        assert_eq!(GraphView::num_nodes(&g), 4);
        assert!(g.insert_edge(NodeId(0), fresh, w));
        assert_eq!(succ(&g, NodeId(0), fresh), vec![3]);
        assert_eq!(pred(&g, w, fresh), vec![0]);
        assert_eq!(g.in_degree(w, fresh), 1);
        let out: Vec<_> = g.out_edges_iter(w).collect();
        assert!(out.is_empty());
        let inc: Vec<_> = g.in_edges_iter(w).collect();
        assert_eq!(inc, vec![(fresh, NodeId(0))]);
    }

    #[test]
    fn node_major_merge_is_label_sorted() {
        let mut g = DeltaGraph::new(base());
        let a = g.label("a");
        let c = g.label("b");
        g.delete_edge(NodeId(0), a, NodeId(2));
        g.insert_edge(NodeId(0), c, NodeId(0));
        let out: Vec<_> = g.out_edges_iter(NodeId(0)).collect();
        assert_eq!(out, vec![(a, NodeId(1)), (c, NodeId(0))]);
    }

    #[test]
    fn compact_roundtrips_named_base() {
        let mut g = DeltaGraph::new(base());
        let a = g.label("a");
        let fresh = g.label("fresh");
        let w = g.add_node();
        g.delete_edge(NodeId(0), a, NodeId(1));
        g.insert_edge(NodeId(1), a, NodeId(1));
        g.insert_edge(NodeId(2), fresh, w);
        let expect: Vec<Vec<(Symbol, NodeId)>> = (0..4)
            .map(|v| g.out_edges_iter(NodeId(v)).collect())
            .collect();
        let frozen = g.compact();
        assert_eq!(frozen.num_nodes(), 4);
        assert_eq!(frozen.num_edges(), 5);
        assert_eq!(frozen.node_name(NodeId(0)), "x");
        assert_eq!(frozen.node_name(NodeId(3)), "_d3");
        for v in 0..4 {
            let row: Vec<_> = frozen.out_edges(NodeId(v)).iter().collect();
            assert_eq!(row, expect[v as usize]);
        }
        // Per-label slices agree too, including the post-base label.
        assert_eq!(frozen.successors_slice(NodeId(2), fresh), &[NodeId(3)]);
        assert!(!frozen.successors_slice(NodeId(0), a).is_empty());
    }

    #[test]
    fn compact_roundtrips_anonymous_base() {
        let mut b = GraphBuilder::anonymous(3);
        let a = b.label("a");
        b.edge_ids(NodeId(0), a, NodeId(1));
        b.edge_ids(NodeId(1), a, NodeId(2));
        let mut g = DeltaGraph::new(b.finish());
        let w = g.add_node();
        g.insert_edge(NodeId(2), a, w);
        g.delete_edge(NodeId(0), a, NodeId(1));
        let frozen = g.compact();
        assert_eq!(frozen.num_nodes(), 4);
        assert_eq!(frozen.num_edges(), 2);
        assert!(!frozen.is_named());
        assert_eq!(frozen.successors_slice(NodeId(2), a), &[NodeId(3)]);
        assert!(frozen.successors_slice(NodeId(0), a).is_empty());
    }

    #[test]
    fn compact_name_salting_survives_collision() {
        // A base that already uses the `_d{id}` name an added node would get.
        let mut b = GraphBuilder::new();
        let a = b.label("a");
        let x = b.node("x");
        let d = b.node("_d2");
        b.edge_ids(x, a, d);
        let mut g = DeltaGraph::new(b.finish());
        let w = g.add_node(); // id 2 → wants name "_d2", taken
        g.insert_edge(NodeId(0), a, w);
        let frozen = g.compact();
        assert_eq!(frozen.num_nodes(), 3);
        assert_eq!(frozen.node_name(NodeId(2)), "_d2_1");
        assert_eq!(
            frozen.successors_slice(NodeId(0), a),
            &[NodeId(1), NodeId(2)]
        );
    }

    #[test]
    fn should_compact_follows_budget() {
        let mut g = DeltaGraph::with_compact_threshold(base(), 2);
        let a = g.label("a");
        assert!(!g.should_compact());
        g.insert_edge(NodeId(0), a, NodeId(0));
        assert!(!g.should_compact());
        let bl = g.label("b");
        g.delete_edge(NodeId(1), bl, NodeId(2));
        assert!(g.should_compact());
    }
}
