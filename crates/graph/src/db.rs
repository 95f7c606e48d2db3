//! The graph database store.
//!
//! A graph database over a finite alphabet `A` is a finite edge-labelled
//! directed graph `G = (V, E)` with `E ⊆ V × A × V` (paper §2). Nodes are
//! dense `u32` ids; labels are interned [`Symbol`]s shared with the query
//! layer through the same [`Interner`].
//!
//! Internally the store keeps **one** immutable index per direction,
//! built once in [`GraphBuilder::finish`]: a node-major, struct-of-arrays
//! adjacency (`Adjacency`). `offsets` (`|V| + 1` entries) delimits each
//! node's row inside two parallel arrays, `labels` and `nbrs` (`|E|`
//! entries each), and every row is sorted by `(label, neighbour)`:
//!
//! ```text
//! offsets: [ 0, 3, 3, 5, … , |E| ]
//! labels:  [ a  a  b ┃ ┃ a  c ┃ … ]     row of v0 ┃ v1 (empty) ┃ v2 ┃ …
//! nbrs:    [ 4  7  2 ┃ ┃ 0  0 ┃ … ]
//! ```
//!
//! The `a`-neighbours of `v` ([`GraphDb::successors_slice`] /
//! [`GraphDb::predecessors_slice`]) are one contiguous sub-slice of `nbrs`,
//! found by a `partition_point` over `v`'s own label run — `O(log deg(v))`
//! inside one or two cache lines on typical rows. The same rows serve the
//! node-major [`GraphDb::out_edges`] / [`GraphDb::in_edges`] views and
//! [`GraphDb::edges`]. The whole index is `2·(4·(|V|+1) + 8·|E|)` bytes
//! ([`GraphDb::index_bytes`]).
//!
//! A frozen [`GraphDb`] is the canonical implementor of
//! [`GraphView`](crate::view::GraphView), the read-path trait every query
//! algorithm is generic over: its trait iterators are `Copied` slice
//! iterators over the rows above, so generic code monomorphised
//! here is the concrete slice code. Mutation never touches a built
//! [`GraphDb`] — dynamic workloads wrap it in a
//! [`DeltaGraph`](crate::delta::DeltaGraph) overlay and periodically
//! compact back to a frozen snapshot. The one mutable entry point,
//! [`GraphDb::alphabet_mut`], only *interns labels*; labels interned after
//! the build read as empty (see the post-build guard on that method).
//!
//! # Node-name storage and the O(touched) memory contract
//!
//! Node names are workload metadata, not query-path structures, and at
//! `|V| = 10⁶`+ they are a first-order memory term of their own. The store
//! therefore keeps them in one of two [`NodeNames`] modes:
//!
//! * **Named** — a single [`NameArena`]: one shared byte buffer plus `u32`
//!   span offsets and a hash index keyed by span. Each name's bytes are
//!   stored exactly once (≈ `Σ len(name) + 8` bytes per node), against the
//!   ≥ 48 bytes/node of the former `Vec<String>` + `HashMap<String, _>`
//!   pair — no per-name heap allocation, no second copy in the index.
//! * **Anonymous** — no names at all ([`GraphBuilder::anonymous`]): nodes
//!   are pure dense ids. This is the mode for *generated* workloads
//!   (benchmarks, scale smoke graphs), where `v123`-style names carry no
//!   information the id doesn't; name storage is exactly 0 bytes.
//!
//! [`GraphDb::node_name`] panics on anonymous graphs (it cannot borrow a
//! name that does not exist); display paths use [`GraphDb::display_name`],
//! which falls back to the canonical `#id` rendering. The scale benchmarks
//! assert the arena contract through [`GraphDb::name_bytes`].

use crpq_util::{BitSet, Interner, NameArena, Symbol};
use serde::{Deserialize, Serialize};
use std::borrow::Cow;
use std::fmt;

/// Dense node identifier.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The dense index of this node.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Node-name storage mode: an arena of interned names, or none at all.
/// See the module docs for the memory contract.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub enum NodeNames {
    /// Every node has a name, stored once in a shared [`NameArena`];
    /// node id `i` is arena id `i` (the builder interns in id order).
    Named(NameArena),
    /// Nodes are pure dense ids — generated workloads at scale.
    Anonymous,
}

impl NodeNames {
    /// Heap bytes of the name storage (0 for anonymous graphs).
    pub fn heap_bytes(&self) -> usize {
        match self {
            NodeNames::Named(arena) => arena.heap_bytes(),
            NodeNames::Anonymous => 0,
        }
    }
}

/// One direction of a graph's adjacency, node-major and struct-of-arrays:
/// row `v` is `labels[offsets[v]..offsets[v+1]]` zipped with the same range
/// of `nbrs`, sorted by `(label, neighbour)`. See the [module docs](self).
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
struct Adjacency {
    /// `|V| + 1` row bounds; `offsets[|V|] = |E|`.
    offsets: Vec<u32>,
    /// Edge labels, row by row.
    labels: Vec<Symbol>,
    /// Neighbour ids, parallel to `labels`.
    nbrs: Vec<NodeId>,
}

impl Adjacency {
    /// Row `v`; empty for an id past the graph (a [`DeltaGraph`] probes its
    /// base with the ids of nodes it added).
    ///
    /// [`DeltaGraph`]: crate::delta::DeltaGraph
    #[inline]
    fn row(&self, v: NodeId) -> EdgeRow<'_> {
        match self.offsets.get(v.index()..v.index() + 2) {
            Some(&[lo, hi]) => {
                let (lo, hi) = (lo as usize, hi as usize);
                EdgeRow {
                    labels: &self.labels[lo..hi],
                    nbrs: &self.nbrs[lo..hi],
                }
            }
            _ => EdgeRow::EMPTY,
        }
    }

    fn heap_bytes(&self) -> usize {
        self.offsets.len() * std::mem::size_of::<u32>()
            + self.labels.len() * std::mem::size_of::<Symbol>()
            + self.nbrs.len() * std::mem::size_of::<NodeId>()
    }

    /// Counting sort of `(row, label, nbr)` edges into `n` rows, unsorted
    /// within each row. `edges` is walked twice — once to size the rows,
    /// once to fill them — and must yield the same edges both times.
    fn scatter<I: Iterator<Item = (NodeId, Symbol, NodeId)>>(
        n: usize,
        edges: impl Fn() -> I,
    ) -> Adjacency {
        let mut offsets = vec![0u32; n + 1];
        for (row, _, _) in edges() {
            offsets[row.index() + 1] += 1;
        }
        for i in 1..=n {
            offsets[i] += offsets[i - 1];
        }
        // `offsets[v]` serves as `v`'s fill cursor; after the fill it holds
        // the row's end, i.e. `v + 1`'s start, so one shift restores it.
        let m = offsets[n] as usize;
        let mut labels = vec![Symbol(0); m];
        let mut nbrs = vec![NodeId(0); m];
        for (row, l, nbr) in edges() {
            let at = &mut offsets[row.index()];
            labels[*at as usize] = l;
            nbrs[*at as usize] = nbr;
            *at += 1;
        }
        offsets.copy_within(0..n, 1);
        offsets[0] = 0;
        Adjacency {
            offsets,
            labels,
            nbrs,
        }
    }

    /// Sorts every row by `(label, neighbour)`; with `dedup`, drops repeated
    /// pairs and compacts the rows in place.
    fn sort_rows(&mut self, dedup: bool) {
        let mut row: Vec<(Symbol, NodeId)> = Vec::new();
        let mut write = 0usize;
        let mut lo = 0usize;
        for v in 0..self.offsets.len() - 1 {
            let hi = self.offsets[v + 1] as usize;
            row.clear();
            row.extend(
                self.labels[lo..hi]
                    .iter()
                    .copied()
                    .zip(self.nbrs[lo..hi].iter().copied()),
            );
            if !row.is_sorted() {
                row.sort_unstable();
            }
            if dedup {
                row.dedup();
            }
            for (i, &(l, w)) in row.iter().enumerate() {
                self.labels[write + i] = l;
                self.nbrs[write + i] = w;
            }
            write += row.len();
            lo = hi;
            self.offsets[v + 1] = write as u32;
        }
        self.labels.truncate(write);
        self.nbrs.truncate(write);
        self.labels.shrink_to_fit();
        self.nbrs.shrink_to_fit();
    }
}

/// Iterator over the `(label, neighbour)` pairs of an [`EdgeRow`].
pub type EdgeRowIter<'a> = std::iter::Zip<
    std::iter::Copied<std::slice::Iter<'a, Symbol>>,
    std::iter::Copied<std::slice::Iter<'a, NodeId>>,
>;

/// One node's adjacency row ([`GraphDb::out_edges`] / [`GraphDb::in_edges`]):
/// parallel label and neighbour slices, sorted by `(label, neighbour)`.
#[derive(Clone, Copy, Debug)]
pub struct EdgeRow<'a> {
    labels: &'a [Symbol],
    nbrs: &'a [NodeId],
}

impl<'a> EdgeRow<'a> {
    /// The row with no edges.
    pub(crate) const EMPTY: EdgeRow<'static> = EdgeRow {
        labels: &[],
        nbrs: &[],
    };

    /// Number of edges in the row.
    #[inline]
    pub fn len(&self) -> usize {
        self.nbrs.len()
    }

    /// Whether the row has no edges.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.nbrs.is_empty()
    }

    /// The `i`-th `(label, neighbour)` pair, if any.
    #[inline]
    pub(crate) fn get(&self, i: usize) -> Option<(Symbol, NodeId)> {
        Some((*self.labels.get(i)?, self.nbrs[i]))
    }

    /// The row's `(label, neighbour)` pairs in `(label, neighbour)` order.
    #[inline]
    pub fn iter(&self) -> EdgeRowIter<'a> {
        self.labels.iter().copied().zip(self.nbrs.iter().copied())
    }

    /// The neighbours reached by a `label`-edge: the sorted sub-slice of
    /// the row's neighbours under its `label` run, found by two
    /// `partition_point` probes over the row's labels. A label the row
    /// does not carry (or one interned after the build) yields `&[]`.
    #[inline]
    pub(crate) fn with_label(&self, label: Symbol) -> &'a [NodeId] {
        let lo = self.labels.partition_point(|&l| l < label);
        let len = self.labels[lo..].partition_point(|&l| l == label);
        &self.nbrs[lo..lo + len]
    }
}

impl<'a> IntoIterator for EdgeRow<'a> {
    type Item = (Symbol, NodeId);
    type IntoIter = EdgeRowIter<'a>;

    #[inline]
    fn into_iter(self) -> EdgeRowIter<'a> {
        self.iter()
    }
}

/// An immutable edge-labelled directed graph with one node-major adjacency
/// per direction.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct GraphDb {
    labels: Interner,
    num_nodes: usize,
    /// Arena-interned node names, or nothing (anonymous graphs).
    names: NodeNames,
    /// Row `v` = `v`'s outgoing `(label, target)` pairs.
    out: Adjacency,
    /// Row `v` = `v`'s incoming `(label, source)` pairs.
    inc: Adjacency,
}

impl GraphDb {
    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Number of labelled edges.
    pub fn num_edges(&self) -> usize {
        self.out.nbrs.len()
    }

    /// The edge-label alphabet.
    pub fn alphabet(&self) -> &Interner {
        &self.labels
    }

    /// Mutable access to the alphabet (append-only; existing ids are stable).
    /// Useful to parse queries mentioning labels the graph does not use —
    /// the adjacency treats such labels as having no edges.
    ///
    /// **Post-build guard**: a symbol interned here *after* the build
    /// labels no edge in any row, so every adjacency accessor
    /// ([`Self::successors_slice`], [`Self::predecessors_slice`],
    /// [`Self::has_edge`] and the [`crate::view::GraphView`] surface) finds
    /// an empty label run and answers with an **empty slice / `false`**,
    /// never a panic or a stale row — the contract
    /// `labels_interned_after_finish_have_empty_slices` pins. This is also
    /// what [`crate::delta::DeltaGraph::label`] relies on: fresh labels
    /// live purely in the overlay until compaction.
    pub fn alphabet_mut(&mut self) -> &mut Interner {
        &mut self.labels
    }

    /// All alphabet symbols in id order.
    pub fn symbols(&self) -> Vec<Symbol> {
        self.labels.iter().map(|(s, _)| s).collect()
    }

    /// How node names are stored (arena vs. anonymous).
    pub fn names(&self) -> &NodeNames {
        &self.names
    }

    /// Whether this graph stores node names at all.
    pub fn is_named(&self) -> bool {
        matches!(self.names, NodeNames::Named(_))
    }

    /// The name of `node`. Panics on anonymous graphs — display paths that
    /// must handle both modes use [`Self::display_name`].
    pub fn node_name(&self, node: NodeId) -> &str {
        match &self.names {
            NodeNames::Named(arena) => arena.resolve(node.0),
            NodeNames::Anonymous => {
                panic!("node_name({node:?}) on an anonymous graph — use display_name")
            }
        }
    }

    /// The name of `node` if the graph is named.
    pub fn try_node_name(&self, node: NodeId) -> Option<&str> {
        match &self.names {
            NodeNames::Named(arena) => Some(arena.resolve(node.0)),
            NodeNames::Anonymous => None,
        }
    }

    /// A printable name for `node` in either mode: the stored name, or the
    /// canonical `#id` rendering for anonymous graphs.
    pub fn display_name(&self, node: NodeId) -> Cow<'_, str> {
        match self.try_node_name(node) {
            Some(name) => Cow::Borrowed(name),
            None => Cow::Owned(format!("#{}", node.0)),
        }
    }

    /// Looks up a node by name — O(1) via the arena's hash index. Always
    /// `None` on anonymous graphs.
    pub fn node_by_name(&self, name: &str) -> Option<NodeId> {
        match &self.names {
            NodeNames::Named(arena) => arena.get(name).map(NodeId),
            NodeNames::Anonymous => None,
        }
    }

    /// Heap bytes of the node-name storage: the arena's single byte buffer
    /// plus offsets/index for named graphs, exactly 0 for anonymous ones.
    /// Together with [`Self::index_bytes`] this is the build-side memory
    /// term the scale benchmarks assert on.
    pub fn name_bytes(&self) -> usize {
        self.names.heap_bytes()
    }

    /// Iterator over all node ids.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> {
        (0..self.num_nodes() as u32).map(NodeId)
    }

    /// Outgoing `(label, target)` pairs of `v`, sorted by label then target.
    #[inline]
    pub fn out_edges(&self, v: NodeId) -> EdgeRow<'_> {
        self.out.row(v)
    }

    /// Incoming `(label, source)` pairs of `v`, sorted by label then source.
    #[inline]
    pub fn in_edges(&self, v: NodeId) -> EdgeRow<'_> {
        self.inc.row(v)
    }

    /// Targets of `v`'s outgoing `label`-edges as a sorted slice — a
    /// `partition_point` over `v`'s own label run.
    #[inline]
    pub fn successors_slice(&self, v: NodeId, label: Symbol) -> &[NodeId] {
        self.out.row(v).with_label(label)
    }

    /// Sources of `v`'s incoming `label`-edges as a sorted slice — a
    /// `partition_point` over `v`'s own label run.
    #[inline]
    pub fn predecessors_slice(&self, v: NodeId, label: Symbol) -> &[NodeId] {
        self.inc.row(v).with_label(label)
    }

    /// Targets of `v`'s outgoing `label`-edges.
    pub fn successors(&self, v: NodeId, label: Symbol) -> impl Iterator<Item = NodeId> + '_ {
        self.successors_slice(v, label).iter().copied()
    }

    /// Sources of `v`'s incoming `label`-edges.
    pub fn predecessors(&self, v: NodeId, label: Symbol) -> impl Iterator<Item = NodeId> + '_ {
        self.predecessors_slice(v, label).iter().copied()
    }

    /// Heap bytes of the adjacency index, `2·(4·(|V|+1) + 8·|E|)`: both
    /// directions' offsets, labels and neighbours — the peak-RSS proxy the
    /// scale benchmarks record. Excludes node names and the name index,
    /// which are workload metadata rather than query-path structures.
    pub fn index_bytes(&self) -> usize {
        self.out.heap_bytes() + self.inc.heap_bytes()
    }

    /// Whether the edge `u -label-> v` exists (binary search inside `u`'s
    /// `label` run).
    pub fn has_edge(&self, u: NodeId, label: Symbol, v: NodeId) -> bool {
        self.successors_slice(u, label).binary_search(&v).is_ok()
    }

    /// All edges as `(source, label, target)` triples, in source order.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, Symbol, NodeId)> + '_ {
        self.nodes()
            .flat_map(|u| self.out_edges(u).iter().map(move |(s, v)| (u, s, v)))
    }

    /// A fresh bitset sized for this graph's nodes.
    pub fn node_set(&self) -> BitSet {
        BitSet::new(self.num_nodes())
    }

    /// The reversed graph: every edge `u -l-> v` becomes `v -l-> u`.
    ///
    /// Combined with [`crpq_automata::Nfa::reverse`], this supports backward
    /// RPQ reachability (`{src : dst reachable from src}`) without a
    /// dedicated backward search. O(1) beyond cloning: the two adjacency
    /// directions swap roles.
    pub fn reversed(&self) -> GraphDb {
        GraphDb {
            labels: self.labels.clone(),
            num_nodes: self.num_nodes,
            names: self.names.clone(),
            out: self.inc.clone(),
            inc: self.out.clone(),
        }
    }

    /// Converts back into a builder (e.g. to extend a generated graph).
    /// Node ids, names (or anonymity) and the alphabet carry over.
    pub fn into_builder(self) -> GraphBuilder {
        let edges: Vec<(NodeId, Symbol, NodeId)> = self.edges().collect();
        GraphBuilder {
            labels: self.labels,
            names: self.names,
            num_nodes: self.num_nodes,
            edges,
        }
    }
}

/// Mutable builder for [`GraphDb`].
#[derive(Clone, Debug)]
pub struct GraphBuilder {
    labels: Interner,
    names: NodeNames,
    num_nodes: usize,
    edges: Vec<(NodeId, Symbol, NodeId)>,
}

impl Default for GraphBuilder {
    fn default() -> Self {
        GraphBuilder {
            labels: Interner::new(),
            names: NodeNames::Named(NameArena::new()),
            num_nodes: 0,
            edges: Vec::new(),
        }
    }
}

impl GraphBuilder {
    /// A builder with an empty alphabet.
    pub fn new() -> Self {
        Self::default()
    }

    /// A builder reusing an existing alphabet (so symbol ids line up with
    /// already-parsed queries).
    pub fn with_alphabet(labels: Interner) -> Self {
        Self {
            labels,
            ..Self::default()
        }
    }

    /// An **anonymous** builder pre-populated with `n` nameless nodes
    /// `0..n` — the mode for generated workloads at scale, where names
    /// would only duplicate the dense ids (and at `|V| = 10⁶` cost tens of
    /// MB plus millions of interner probes during construction). Edges are
    /// added by id ([`Self::edge_ids`]); the name-based [`Self::node`] /
    /// [`Self::edge`] APIs panic in this mode.
    pub fn anonymous(n: usize) -> Self {
        assert!(n <= u32::MAX as usize, "node ids are u32");
        GraphBuilder {
            names: NodeNames::Anonymous,
            num_nodes: n,
            ..Self::default()
        }
    }

    /// Like [`Self::anonymous`], reusing an existing alphabet.
    pub fn anonymous_with_alphabet(n: usize, labels: Interner) -> Self {
        GraphBuilder {
            labels,
            ..Self::anonymous(n)
        }
    }

    /// The alphabet under construction.
    pub fn alphabet(&self) -> &Interner {
        &self.labels
    }

    /// Mutable alphabet access.
    pub fn alphabet_mut(&mut self) -> &mut Interner {
        &mut self.labels
    }

    /// Interns a label.
    pub fn label(&mut self, name: &str) -> Symbol {
        self.labels.intern(name)
    }

    /// Returns the node named `name`, creating it if needed. Panics on an
    /// [`Self::anonymous`] builder (names would silently diverge from the
    /// id space); use [`Self::fresh_node`] / [`Self::edge_ids`] there.
    pub fn node(&mut self, name: &str) -> NodeId {
        match &mut self.names {
            NodeNames::Named(arena) => {
                let id = arena.intern(name);
                debug_assert!((id as usize) <= self.num_nodes, "arena/id drift");
                self.num_nodes = self.num_nodes.max(id as usize + 1);
                NodeId(id)
            }
            NodeNames::Anonymous => {
                panic!("named node `{name}` on an anonymous GraphBuilder")
            }
        }
    }

    /// Creates a fresh node: a nameless id on anonymous builders, a
    /// `_n{id}`-named node otherwise.
    pub fn fresh_node(&mut self) -> NodeId {
        match self.names {
            NodeNames::Named(_) => {
                let name = format!("_n{}", self.num_nodes);
                self.node(&name)
            }
            NodeNames::Anonymous => {
                assert!(self.num_nodes < u32::MAX as usize, "node ids are u32");
                self.num_nodes += 1;
                NodeId(self.num_nodes as u32 - 1)
            }
        }
    }

    /// Number of nodes so far.
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Adds the edge `u -label-> v` by names, creating nodes/labels as needed.
    pub fn edge(&mut self, u: &str, label: &str, v: &str) -> &mut Self {
        let (u, v) = (self.node(u), self.node(v));
        let l = self.labels.intern(label);
        self.edges.push((u, l, v));
        self
    }

    /// Adds the edge by pre-interned ids.
    pub fn edge_ids(&mut self, u: NodeId, label: Symbol, v: NodeId) -> &mut Self {
        debug_assert!(u.index() < self.num_nodes && v.index() < self.num_nodes);
        self.edges.push((u, label, v));
        self
    }

    /// Finalises into an immutable, fully indexed [`GraphDb`].
    /// Duplicate edges are deduplicated.
    ///
    /// Both directions are filled by a counting sort straight into their
    /// struct-of-arrays rows; each row is then sorted (and, outgoing,
    /// deduplicated) on its own. The builder's edge list is released
    /// before the incoming rows are built from the outgoing ones, so the
    /// peak is one edge list plus one direction.
    ///
    /// Panics if the edge list exceeds `u32::MAX` entries: row offsets
    /// are `u32`.
    pub fn finish(self) -> GraphDb {
        let GraphBuilder {
            labels,
            names,
            num_nodes: n,
            edges,
        } = self;
        assert!(
            edges.len() <= u32::MAX as usize,
            "edge count exceeds u32 row offsets — shard the graph"
        );
        let mut out = Adjacency::scatter(n, || edges.iter().copied());
        drop(edges);
        out.sort_rows(true);
        let mut inc = Adjacency::scatter(n, || {
            (0..n as u32).flat_map(|u| {
                out.row(NodeId(u))
                    .iter()
                    .map(move |(l, v)| (v, l, NodeId(u)))
            })
        });
        inc.sort_rows(false);
        GraphDb {
            labels,
            num_nodes: n,
            names,
            out,
            inc,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> GraphDb {
        // u -a-> v -b-> w, u -b-> x -a-> w
        let mut b = GraphBuilder::new();
        b.edge("u", "a", "v");
        b.edge("v", "b", "w");
        b.edge("u", "b", "x");
        b.edge("x", "a", "w");
        b.finish()
    }

    #[test]
    fn build_and_query_adjacency() {
        let g = diamond();
        assert_eq!(g.num_nodes(), 4);
        assert_eq!(g.num_edges(), 4);
        let (u, v, w) = (
            g.node_by_name("u").unwrap(),
            g.node_by_name("v").unwrap(),
            g.node_by_name("w").unwrap(),
        );
        let a = g.alphabet().get("a").unwrap();
        let b = g.alphabet().get("b").unwrap();
        assert!(g.has_edge(u, a, v));
        assert!(!g.has_edge(u, a, w));
        assert_eq!(g.successors(u, a).collect::<Vec<_>>(), vec![v]);
        assert_eq!(g.predecessors(w, b).collect::<Vec<_>>(), vec![v]);
        assert_eq!(g.node_name(u), "u");
        assert_eq!(g.node_by_name("nope"), None);
    }

    #[test]
    fn duplicate_edges_are_dedup() {
        let mut b = GraphBuilder::new();
        b.edge("u", "a", "v");
        b.edge("u", "a", "v");
        let g = b.finish();
        assert_eq!(g.num_edges(), 1);
    }

    #[test]
    fn parallel_labels_coexist() {
        let mut b = GraphBuilder::new();
        b.edge("u", "a", "v");
        b.edge("u", "b", "v");
        let g = b.finish();
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.out_edges(g.node_by_name("u").unwrap()).len(), 2);
    }

    #[test]
    fn edges_iterator_roundtrip() {
        let g = diamond();
        let edges: Vec<_> = g.edges().collect();
        assert_eq!(edges.len(), 4);
        let rebuilt = g.clone().into_builder().finish();
        assert_eq!(rebuilt.num_edges(), g.num_edges());
        assert_eq!(rebuilt.num_nodes(), g.num_nodes());
        for (u, s, v) in g.edges() {
            assert!(rebuilt.has_edge(u, s, v));
        }
    }

    #[test]
    fn fresh_nodes_are_distinct() {
        let mut b = GraphBuilder::new();
        let n1 = b.fresh_node();
        let n2 = b.fresh_node();
        assert_ne!(n1, n2);
        let named = b.node("hello");
        assert_ne!(named, n1);
        assert_eq!(b.num_nodes(), 3);
    }

    #[test]
    fn anonymous_graphs_have_ids_but_no_names() {
        let mut b = GraphBuilder::anonymous(4);
        let a = b.label("a");
        b.edge_ids(NodeId(0), a, NodeId(1));
        b.edge_ids(NodeId(1), a, NodeId(3));
        let extra = b.fresh_node();
        assert_eq!(extra, NodeId(4));
        let g = b.finish();
        assert_eq!(g.num_nodes(), 5);
        assert_eq!(g.num_edges(), 2);
        assert!(!g.is_named());
        assert_eq!(g.name_bytes(), 0, "anonymous mode stores zero name bytes");
        assert_eq!(g.node_by_name("v0"), None);
        assert_eq!(g.try_node_name(NodeId(0)), None);
        assert_eq!(g.display_name(NodeId(3)), "#3");
        assert!(g.has_edge(NodeId(0), a, NodeId(1)));
        // Reversal and the builder round-trip preserve anonymity.
        let r = g.reversed();
        assert!(r.has_edge(NodeId(1), a, NodeId(0)) && !r.is_named());
        let back = g.clone().into_builder().finish();
        assert!(!back.is_named());
        assert_eq!(back.num_nodes(), 5);
        assert!(back.has_edge(NodeId(1), a, NodeId(3)));
    }

    #[test]
    #[should_panic(expected = "anonymous GraphBuilder")]
    fn anonymous_builder_rejects_named_nodes() {
        GraphBuilder::anonymous(2).node("u");
    }

    #[test]
    fn named_graphs_store_names_in_one_arena() {
        let g = diamond();
        assert!(g.is_named());
        assert_eq!(g.display_name(g.node_by_name("u").unwrap()), "u");
        assert_eq!(g.try_node_name(g.node_by_name("v").unwrap()), Some("v"));
        // 4 single-byte names: the arena term is offsets + hash table +
        // 4 bytes of payload — far under a per-name String layout, and
        // strictly positive (the contract is "one arena", not "free").
        let bytes = g.name_bytes();
        assert!(bytes > 0 && bytes < 4 * 64, "arena bytes: {bytes}");
    }

    #[test]
    fn reversed_swaps_directions() {
        let g = diamond();
        let r = g.reversed();
        assert_eq!(r.num_edges(), g.num_edges());
        for (u, s, v) in g.edges() {
            assert!(r.has_edge(v, s, u));
        }
        let a = g.alphabet().get("a").unwrap();
        let (u, v) = (g.node_by_name("u").unwrap(), g.node_by_name("v").unwrap());
        assert_eq!(r.successors(v, a).collect::<Vec<_>>(), vec![u]);
    }

    #[test]
    fn labels_interned_after_finish_have_empty_slices() {
        use crate::view::GraphView;
        let mut g = diamond();
        let zz = g.alphabet_mut().intern("zz");
        for v in 0..g.num_nodes() {
            let v = NodeId(v as u32);
            // Inherent slice API: explicit empty slices, no panic.
            assert_eq!(g.successors_slice(v, zz), &[] as &[NodeId]);
            assert_eq!(g.predecessors_slice(v, zz), &[] as &[NodeId]);
            assert!(!g.has_edge(v, zz, v));
            // GraphView surface must agree: empty iterators, zero degrees.
            assert_eq!(GraphView::successors(&g, v, zz).count(), 0);
            assert_eq!(GraphView::predecessors(&g, v, zz).count(), 0);
            assert_eq!(GraphView::out_degree(&g, v, zz), 0);
            assert_eq!(GraphView::in_degree(&g, v, zz), 0);
            // Node-major enumeration never mentions the fresh label.
            assert!(GraphView::out_edges_iter(&g, v).all(|(s, _)| s != zz));
        }
    }
}
