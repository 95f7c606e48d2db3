//! The read-path abstraction over frozen and mutated graphs.
//!
//! Every algorithm in this workspace — the RPQ sweeps, the relation
//! materialisers and the join search — reads a graph through exactly the
//! operations collected here as [`GraphView`]: per-label
//! successor/predecessor enumeration, node-major edge enumeration,
//! degrees, membership, and the alphabet.
//!
//! Two implementors exist:
//!
//! * [`GraphDb`] — the frozen base snapshot. Its associated iterator types
//!   are `Copied<slice::Iter>` over its adjacency rows (zipped label and
//!   neighbour slices for the node-major ones), so a function generic
//!   over `G: GraphView` monomorphised at `GraphDb` compiles to **exactly**
//!   the same loops as the old concrete `&GraphDb` code (a copied-slice
//!   iterator is the canonical zero-cost iterator); the static-path perf
//!   gates in CI are unaffected by the generalisation.
//! * [`DeltaGraph`](crate::delta::DeltaGraph) — a base snapshot plus a
//!   sorted overlay of inserted/deleted edges. Its iterators merge the
//!   base row slice with the overlay sub-range at read time; see
//!   [`crate::delta`] for the overlay invariants that make the merge a
//!   straight two-pointer walk.
//!
//! # Contract
//!
//! For a fixed view value (no interleaved mutation), the trait must behave
//! like an immutable edge-labelled graph:
//!
//! * [`successors`](GraphView::successors)`(v, a)` yields the `a`-targets
//!   of `v` in **strictly ascending** node-id order, without duplicates;
//!   [`predecessors`](GraphView::predecessors) likewise for sources.
//! * [`out_edges_iter`](GraphView::out_edges_iter)`(v)` yields `v`'s
//!   `(label, target)` pairs sorted by `(label, target)`;
//!   [`in_edges_iter`](GraphView::in_edges_iter) the `(label, source)`
//!   pairs. Both agree with the per-label iterators.
//! * [`out_degree`](GraphView::out_degree) / [`in_degree`](GraphView::in_degree)
//!   equal the respective iterator lengths, and
//!   [`num_edges`](GraphView::num_edges) is the total over all `(v, a)`.
//! * A label outside the view's alphabet, or one interned **after** the
//!   underlying adjacency was built, has no edges: the iterators are empty and
//!   degrees zero (never a panic). This is what lets queries mention
//!   labels the data does not use.
//! * Node ids are dense in `0..num_nodes()`; iterating edges of an
//!   out-of-range id is a logic error but must not be UB (implementations
//!   may panic or return empty).
//!
//! Mutation is *not* part of the trait — it lives on
//! [`DeltaGraph`](crate::delta::DeltaGraph) directly. An evaluation holds
//! `&G` for its whole run, so Rust's borrow rules already guarantee the
//! snapshot-consistent reads Figueira's per-snapshot semantics need.

use crate::db::{EdgeRowIter, GraphDb, NodeId};
use crpq_util::{BitSet, Interner, Symbol};

/// Read-only view of an edge-labelled graph: the complete set of
/// operations the query engine needs. See the [module docs](self) for the
/// behavioural contract and the zero-cost monomorphisation argument.
///
/// `Sync` is a supertrait because the parallel materialiser shares `&G`
/// across its scoped sweep threads.
pub trait GraphView: Sync {
    /// Per-label neighbour iterator ([`successors`](Self::successors) /
    /// [`predecessors`](Self::predecessors)); strictly ascending node ids.
    type Neighbors<'a>: Iterator<Item = NodeId> + 'a
    where
        Self: 'a;

    /// Node-major edge iterator ([`out_edges_iter`](Self::out_edges_iter) /
    /// [`in_edges_iter`](Self::in_edges_iter)); `(label, node)` pairs in
    /// ascending `(label, node)` order.
    type NodeEdges<'a>: Iterator<Item = (Symbol, NodeId)> + 'a
    where
        Self: 'a;

    /// Number of nodes (ids are dense in `0..num_nodes()`).
    fn num_nodes(&self) -> usize;

    /// Total number of labelled edges.
    fn num_edges(&self) -> usize;

    /// The edge-label alphabet.
    fn alphabet(&self) -> &Interner;

    /// Targets of `v`'s outgoing `label`-edges, ascending.
    fn successors(&self, v: NodeId, label: Symbol) -> Self::Neighbors<'_>;

    /// Sources of `v`'s incoming `label`-edges, ascending.
    fn predecessors(&self, v: NodeId, label: Symbol) -> Self::Neighbors<'_>;

    /// Number of outgoing `label`-edges of `v`.
    fn out_degree(&self, v: NodeId, label: Symbol) -> usize;

    /// Number of incoming `label`-edges of `v`.
    fn in_degree(&self, v: NodeId, label: Symbol) -> usize;

    /// All `(label, target)` pairs of `v`, sorted by `(label, target)`.
    fn out_edges_iter(&self, v: NodeId) -> Self::NodeEdges<'_>;

    /// All `(label, source)` pairs of `v`, sorted by `(label, source)`.
    fn in_edges_iter(&self, v: NodeId) -> Self::NodeEdges<'_>;

    /// Whether the edge `u --label--> v` exists.
    fn has_edge(&self, u: NodeId, label: Symbol, v: NodeId) -> bool;

    /// An empty bitset sized for this view's node universe.
    fn node_set(&self) -> BitSet {
        BitSet::new(self.num_nodes())
    }
}

impl GraphView for GraphDb {
    type Neighbors<'a> = std::iter::Copied<std::slice::Iter<'a, NodeId>>;
    type NodeEdges<'a> = EdgeRowIter<'a>;

    #[inline]
    fn num_nodes(&self) -> usize {
        GraphDb::num_nodes(self)
    }

    #[inline]
    fn num_edges(&self) -> usize {
        GraphDb::num_edges(self)
    }

    #[inline]
    fn alphabet(&self) -> &Interner {
        GraphDb::alphabet(self)
    }

    #[inline]
    fn successors(&self, v: NodeId, label: Symbol) -> Self::Neighbors<'_> {
        self.successors_slice(v, label).iter().copied()
    }

    #[inline]
    fn predecessors(&self, v: NodeId, label: Symbol) -> Self::Neighbors<'_> {
        self.predecessors_slice(v, label).iter().copied()
    }

    #[inline]
    fn out_degree(&self, v: NodeId, label: Symbol) -> usize {
        self.successors_slice(v, label).len()
    }

    #[inline]
    fn in_degree(&self, v: NodeId, label: Symbol) -> usize {
        self.predecessors_slice(v, label).len()
    }

    #[inline]
    fn out_edges_iter(&self, v: NodeId) -> Self::NodeEdges<'_> {
        self.out_edges(v).iter()
    }

    #[inline]
    fn in_edges_iter(&self, v: NodeId) -> Self::NodeEdges<'_> {
        self.in_edges(v).iter()
    }

    #[inline]
    fn has_edge(&self, u: NodeId, label: Symbol, v: NodeId) -> bool {
        GraphDb::has_edge(self, u, label, v)
    }

    #[inline]
    fn node_set(&self) -> BitSet {
        GraphDb::node_set(self)
    }
}

/// Delegating impl so `Arc`-shared graphs (the ones `Eval::stream` takes)
/// are views themselves — deref coercion does not apply through generic
/// bounds, so the wrapper needs its own impl.
impl<G: GraphView + Send> GraphView for std::sync::Arc<G> {
    type Neighbors<'a>
        = G::Neighbors<'a>
    where
        Self: 'a;
    type NodeEdges<'a>
        = G::NodeEdges<'a>
    where
        Self: 'a;

    #[inline]
    fn num_nodes(&self) -> usize {
        (**self).num_nodes()
    }

    #[inline]
    fn num_edges(&self) -> usize {
        (**self).num_edges()
    }

    #[inline]
    fn alphabet(&self) -> &Interner {
        (**self).alphabet()
    }

    #[inline]
    fn successors(&self, v: NodeId, label: Symbol) -> Self::Neighbors<'_> {
        (**self).successors(v, label)
    }

    #[inline]
    fn predecessors(&self, v: NodeId, label: Symbol) -> Self::Neighbors<'_> {
        (**self).predecessors(v, label)
    }

    #[inline]
    fn out_degree(&self, v: NodeId, label: Symbol) -> usize {
        (**self).out_degree(v, label)
    }

    #[inline]
    fn in_degree(&self, v: NodeId, label: Symbol) -> usize {
        (**self).in_degree(v, label)
    }

    #[inline]
    fn out_edges_iter(&self, v: NodeId) -> Self::NodeEdges<'_> {
        (**self).out_edges_iter(v)
    }

    #[inline]
    fn in_edges_iter(&self, v: NodeId) -> Self::NodeEdges<'_> {
        (**self).in_edges_iter(v)
    }

    #[inline]
    fn has_edge(&self, u: NodeId, label: Symbol, v: NodeId) -> bool {
        (**self).has_edge(u, label, v)
    }

    #[inline]
    fn node_set(&self) -> BitSet {
        (**self).node_set()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::db::GraphBuilder;

    fn sample() -> GraphDb {
        let mut b = GraphBuilder::new();
        let a = b.label("a");
        let c = b.label("b");
        let (x, y, z) = (b.node("x"), b.node("y"), b.node("z"));
        b.edge_ids(x, a, y);
        b.edge_ids(x, a, z);
        b.edge_ids(y, c, z);
        b.finish()
    }

    /// Generic code sees exactly what the inherent slice API sees.
    fn collect_via_view<G: GraphView>(g: &G, v: NodeId, l: Symbol) -> Vec<NodeId> {
        g.successors(v, l).collect()
    }

    #[test]
    fn graphdb_view_matches_inherent_api() {
        let g = sample();
        let a = g.alphabet().get("a").unwrap();
        let b = g.alphabet().get("b").unwrap();
        let x = g.node_by_name("x").unwrap();
        let y = g.node_by_name("y").unwrap();
        let z = g.node_by_name("z").unwrap();

        assert_eq!(collect_via_view(&g, x, a), g.successors_slice(x, a));
        assert_eq!(GraphView::out_degree(&g, x, a), 2);
        assert_eq!(GraphView::in_degree(&g, z, a), 1);
        let out: Vec<_> = GraphView::out_edges_iter(&g, x).collect();
        assert_eq!(out, g.out_edges(x).iter().collect::<Vec<_>>());
        let inc: Vec<_> = GraphView::in_edges_iter(&g, z).collect();
        assert_eq!(inc, g.in_edges(z).iter().collect::<Vec<_>>());
        assert!(GraphView::has_edge(&g, y, b, z));
        assert!(!GraphView::has_edge(&g, y, a, z));
        assert_eq!(GraphView::node_set(&g).capacity(), 3);
    }
}
