//! Regular path query (RPQ) matching primitives.
//!
//! Three path notions from the paper (§1–2):
//!
//! * **arbitrary paths** — standard semantics; decided by BFS over the
//!   product of the graph with the NFA, `O(|V|·|Q| + |E|·|Q|²)` per source:
//!   this is the NL-style algorithm behind the polynomial data complexity of
//!   standard CRPQ evaluation;
//! * **simple paths** (no repeated node) and **simple cycles** — the
//!   building blocks of both injective semantics; NP-complete in data
//!   complexity even for fixed small languages [Mendelzon & Wood 1995],
//!   implemented as backtracking DFS over `(node, NFA state-set)` with a
//!   visited set;
//! * **trails** (no repeated edge) — the edge-injective variant discussed in
//!   the paper's outlook (§7), provided as an extension.
//!
//! All searches take a `blocked` set: blocked nodes may not occur as
//! *internal* nodes of the path (endpoints are exempt). This is exactly the
//! hook the query-injective evaluator needs to keep paths of different atoms
//! internally disjoint.
//!
//! # Graphs are read through [`GraphView`](crate::view::GraphView)
//!
//! Every sweep and materialiser here is generic over
//! `G: `[`GraphView`](crate::view::GraphView) rather than taking a concrete
//! `&GraphDb`: the only operations used are the trait's per-label
//! successor/predecessor iterators (strictly ascending node ids), degrees,
//! and the node-major edge iterators — see the contract in
//! [`crate::view`]. Monomorphised at [`GraphDb`](crate::db::GraphDb) the
//! iterators are `Copied<slice::Iter>` over the CSR slices, i.e. exactly
//! the pre-generalisation loops; monomorphised at
//! [`DeltaGraph`](crate::delta::DeltaGraph) the same algorithms read the
//! base+overlay merge, which is how mutated graphs are queried without a
//! rebuild. Nothing here mutates a graph or caches across view values:
//! each call sees one consistent snapshot for its whole run.
//!
//! # The O(touched) memory contract at `|V| = 10⁷`
//!
//! Everything on the standard-semantics materialisation path is sized by
//! what a sweep or relation actually **touches**, never by `|V|` alone:
//!
//! * [`ReachScratch`] visited sets are density-adaptive — a sparse
//!   epoch-stamped map until a sweep has visited `universe / 8` states,
//!   the classic dense stamp array after (allocated at most once, shrunk
//!   back by [`ReachScratch::shrink_to`]). A low-output sweep over a
//!   `10⁷ · |Q|` product costs bytes proportional to its visit count, per
//!   worker thread.
//! * A [`Relation`]'s per-node row index is **lazy**: sparse relations
//!   keep a sorted `(touched id, row kind)` table over the touched-id
//!   remap and answer [`Relation::forward`] / [`Relation::backward`] by
//!   binary search; an untouched node costs nothing. The direct `O(|V|)`
//!   row-kind table is only built past the same `k·32 ≥ |V|` parity point
//!   that governs dense rows, so [`Relation::empty`] is O(1) — no
//!   allocation at any |V| — and [`Relation::heap_bytes`] reports the
//!   actual lazy layout.
//! * Row payloads live in **sharded** span storage: each shard holds at
//!   most `u32::MAX` adjacency slots, so a `4·10⁷`-edge closure packs
//!   without overflowing the u32 flat offsets that index within a shard.
//! * [`Relation::finish_reverse`] assembles the backward index in
//!   `O(E_rel + touched)`: the forward-row installers record touched
//!   source/target ids, and the degree, layout and fill passes run over
//!   the compact touched-id remap instead of scanning `0..|V|` three times
//!   ([`Relation::assembly_ops`] is the pinned observable).
//! * All materialiser entry points ([`rpq_reach_all`],
//!   [`rpq_reach_all_parallel`], [`rpq_relation_auto`], the blocked
//!   closure) share those mechanisms, so no executor path regresses to
//!   per-relation `O(|V|)` scans; [`rpq_relation_auto_with_stats`] reports
//!   the per-materialisation [`MaterialiseStats`] the scale benchmarks
//!   persist.
//!
//! Node-name storage (the third `O(|V|)` wall at this scale) is handled in
//! [`crate::db`]: arena-interned names or the fully name-free `Anonymous`
//! mode for generated workloads.

use crate::db::NodeId;
use crate::view::GraphView;
use crpq_automata::{Nfa, StateId};
use crpq_util::{BitSet, FxHashMap, FxHashSet, Symbol};
use std::collections::VecDeque;
use std::ops::ControlFlow;

/// A sweep upgrades from the sparse visited map to the dense stamp array
/// once it has visited more than `universe / SPARSE_VISIT_FACTOR` states:
/// a map entry costs ~8–16 bytes against the stamp's 4, so past this point
/// the dense array is both smaller *and* faster, and once allocated it is
/// reused (epoch reset is O(1)) by every later sweep of at least… any size
/// it covers.
const SPARSE_VISIT_FACTOR: usize = 8;

/// Default stamp-array retention budget of [`ReachScratch::shrink_to`]
/// callers (the relation catalog applies it after every materialisation):
/// up to 2²⁰ stamps (4 MB per array) stay allocated for reuse; anything a
/// one-off huger graph forced beyond that is released instead of pinning
/// worker memory for the rest of the process.
pub const SCRATCH_RETAIN_STATES: usize = 1 << 20;

/// Reusable scratch buffers for the product-automaton BFS.
///
/// A single reachability sweep needs a `|V| × |Q|` visited set and a work
/// queue; materialising a full RPQ relation runs one sweep per source node.
/// Allocating (and zeroing) those buffers per call dominates small-sweep
/// cost, so `ReachScratch` keeps them alive across calls and resets the
/// visited set in O(1) with an epoch counter: a product state is *visited*
/// iff its stamp equals the current epoch, and bumping the epoch invalidates
/// every stamp at once.
///
/// # Density-adaptive visited set — the O(touched) sweep contract
///
/// The visited set is **density-adaptive**, like [`NodeSet`] and relation
/// rows: a sweep starts on a sparse epoch-stamped hash map (`state →
/// epoch`) and only migrates to the dense `|V|·|Q|` stamp array once it
/// has visited more than a [`1/8`](SPARSE_VISIT_FACTOR) fraction of the
/// product. A low-output sweep on a `10⁶ · |Q|` product therefore costs
/// memory proportional to the states it actually touches — it never pays
/// the multi-MB stamp allocation, which in the pre-adaptive layout was
/// charged *per worker thread* of the parallel materialiser. The dense
/// array is allocated at most once per scratch (first overflow) and
/// afterwards serves any sweep it covers at the old O(1)-reset cost;
/// [`Self::shrink_to`] releases it when a one-off huge graph would
/// otherwise pin the high-water mark forever.
///
/// Epoch wraparound (every 2³² sweeps) invalidates, not zeroes: the dense
/// arrays are re-trusted lazily, clearing only the prefix the next sweep
/// actually reads (`trusted_*` tracks the clean prefix) instead of the
/// full high-water capacity.
#[derive(Clone, Debug, Default)]
pub struct ReachScratch {
    stamps: Vec<u32>,
    /// Per-graph-node stamps for O(1) "already in the output?" checks
    /// during collecting sweeps ([`rpq_reach_collect`]).
    node_stamps: Vec<u32>,
    /// Prefix of `stamps` / `node_stamps` holding no pre-wrap garbage
    /// (entries are 0 or carry post-wrap epochs). Reset to 0 at wrap,
    /// re-extended lazily to exactly the prefix a sweep reads.
    trusted_states: usize,
    trusted_nodes: usize,
    /// Sparse visited maps (`id → epoch`) for sweeps below the dense
    /// threshold. Entries persist across sweeps (stale epochs read as
    /// unvisited) and are purged once they dominate the live ones, so a
    /// long run of small sweeps keeps the maps at O(per-sweep visits) —
    /// the maps are dropped entirely on migration and at wrap.
    sparse_states: FxHashMap<u32, u32>,
    sparse_nodes: FxHashMap<u32, u32>,
    /// States/nodes visited by the **current** sweep (the densification
    /// trigger — stale map entries must not count toward it, or a long
    /// run of tiny sweeps would eventually migrate to dense arrays it
    /// never needed).
    live_states: usize,
    live_nodes: usize,
    /// Universe sizes of the current sweep (set by `begin`).
    state_universe: usize,
    node_universe: usize,
    /// Whether the current sweep reads the dense arrays.
    dense_states: bool,
    dense_nodes: bool,
    epoch: u32,
    queue: VecDeque<(NodeId, StateId)>,
}

impl ReachScratch {
    /// A fresh, empty scratch pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// Prepares for a sweep over `size` product states (and up to `nodes`
    /// graph nodes): invalidates all previous stamps and picks the visited
    /// representation (dense if the stamp arrays already cover the sweep —
    /// their reset is O(1) — sparse otherwise).
    fn begin(&mut self, size: usize, nodes: usize) {
        self.state_universe = size;
        self.node_universe = nodes;
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            // Wrapped: stamps from 2³² sweeps ago could alias the fresh
            // epoch. Invalidate the dense arrays lazily (only the prefix
            // the next sweeps read is cleared, in `retrust_*`) and drop
            // the sparse entries outright.
            self.trusted_states = 0;
            self.trusted_nodes = 0;
            self.sparse_states.clear();
            self.sparse_nodes.clear();
            self.epoch = 1;
        }
        self.dense_states = self.stamps.len() >= size;
        if self.dense_states {
            self.retrust_states(size);
        } else {
            assert!(
                size <= u32::MAX as usize,
                "product exceeds u32 sweep state ids — shard the graph"
            );
        }
        self.dense_nodes = self.node_stamps.len() >= nodes;
        if self.dense_nodes {
            self.retrust_nodes(nodes);
        }
        self.live_states = 0;
        self.live_nodes = 0;
        self.queue.clear();
    }

    /// Zeroes the (post-wrap) untrusted gap of `stamps` up to `upto`.
    fn retrust_states(&mut self, upto: usize) {
        if self.trusted_states < upto {
            self.stamps[self.trusted_states..upto].fill(0);
            self.trusted_states = upto;
        }
    }

    /// Zeroes the (post-wrap) untrusted gap of `node_stamps` up to `upto`.
    fn retrust_nodes(&mut self, upto: usize) {
        if self.trusted_nodes < upto {
            self.node_stamps[self.trusted_nodes..upto].fill(0);
            self.trusted_nodes = upto;
        }
    }

    /// Marks `state` visited; returns `true` if it was not visited yet.
    #[inline]
    fn visit(&mut self, state: usize) -> bool {
        if self.dense_states {
            let fresh = self.stamps[state] != self.epoch;
            self.stamps[state] = self.epoch;
            return fresh;
        }
        match self.sparse_states.insert(state as u32, self.epoch) {
            Some(e) if e == self.epoch => false,
            _ => {
                self.live_states += 1;
                if self.live_states * SPARSE_VISIT_FACTOR >= self.state_universe {
                    self.densify_states();
                } else if self.sparse_states.len() > 4 * self.live_states + 1024 {
                    // Mostly stale entries from earlier sweeps: purge them
                    // (amortised against the inserts that built them) so
                    // the map tracks per-sweep visits, not their union.
                    let epoch = self.epoch;
                    self.sparse_states.retain(|_, e| *e == epoch);
                }
                true
            }
        }
    }

    /// Marks graph node `v` emitted; returns `true` on first emission.
    #[inline]
    fn visit_node(&mut self, v: usize) -> bool {
        if self.dense_nodes {
            let fresh = self.node_stamps[v] != self.epoch;
            self.node_stamps[v] = self.epoch;
            return fresh;
        }
        match self.sparse_nodes.insert(v as u32, self.epoch) {
            Some(e) if e == self.epoch => false,
            _ => {
                self.live_nodes += 1;
                if self.live_nodes * SPARSE_VISIT_FACTOR >= self.node_universe {
                    self.densify_nodes();
                } else if self.sparse_nodes.len() > 4 * self.live_nodes + 1024 {
                    let epoch = self.epoch;
                    self.sparse_nodes.retain(|_, e| *e == epoch);
                }
                true
            }
        }
    }

    /// Migrates the current sweep's visited states into the dense stamp
    /// array (growing it to the sweep's universe) and drops the map. Runs
    /// at most once per universe size; later sweeps go dense from `begin`.
    #[cold]
    fn densify_states(&mut self) {
        let size = self.state_universe;
        if self.stamps.len() < size {
            self.stamps.resize(size, 0);
            // The freshly appended entries are zero; only a post-wrap gap
            // below the old length can be untrusted.
        }
        self.retrust_states(size);
        let epoch = self.epoch;
        for (&s, &e) in &self.sparse_states {
            // Stale entries (older epochs, possibly from larger universes)
            // are dead weight — migrate only this sweep's visits.
            if e == epoch {
                self.stamps[s as usize] = epoch;
            }
        }
        self.sparse_states = FxHashMap::default();
        self.dense_states = true;
    }

    /// Node-stamp counterpart of [`Self::densify_states`].
    #[cold]
    fn densify_nodes(&mut self) {
        let size = self.node_universe;
        if self.node_stamps.len() < size {
            self.node_stamps.resize(size, 0);
        }
        self.retrust_nodes(size);
        let epoch = self.epoch;
        for (&v, &e) in &self.sparse_nodes {
            if e == epoch {
                self.node_stamps[v as usize] = epoch;
            }
        }
        self.sparse_nodes = FxHashMap::default();
        self.dense_nodes = true;
    }

    /// Approximate heap bytes currently held (stamp arrays, sparse visited
    /// maps, work queue) — the per-worker term the scale benchmarks record
    /// as `scratch_bytes`.
    pub fn heap_bytes(&self) -> usize {
        let map = |m: &FxHashMap<u32, u32>| m.capacity() * (std::mem::size_of::<(u32, u32)>() + 1);
        4 * (self.stamps.capacity() + self.node_stamps.capacity())
            + map(&self.sparse_states)
            + map(&self.sparse_nodes)
            + self.queue.capacity() * std::mem::size_of::<(NodeId, StateId)>()
    }

    /// Releases memory beyond `max_states` entries per buffer (stamp
    /// arrays, sparse visited maps, work queue): the retention policy
    /// that keeps a one-off huge graph from pinning worker memory
    /// forever. Buffers **within** budget are left untouched — this is
    /// called after every catalog materialisation, and trimming a warm
    /// in-budget buffer would just re-pay its growth on the next atom.
    /// The scratch stays fully usable either way; an over-budget sweep
    /// simply re-grows (or stays on the sparse path, if it touches
    /// little). [`SCRATCH_RETAIN_STATES`] is the workspace default budget.
    pub fn shrink_to(&mut self, max_states: usize) {
        if self.stamps.len() > max_states {
            self.stamps.truncate(max_states);
            self.stamps.shrink_to_fit();
            self.trusted_states = self.trusted_states.min(max_states);
        }
        if self.node_stamps.len() > max_states {
            self.node_stamps.truncate(max_states);
            self.node_stamps.shrink_to_fit();
            self.trusted_nodes = self.trusted_nodes.min(max_states);
        }
        if self.sparse_states.capacity() > max_states {
            self.sparse_states = FxHashMap::default();
        }
        if self.sparse_nodes.capacity() > max_states {
            self.sparse_nodes = FxHashMap::default();
        }
        if self.queue.capacity() > max_states {
            self.queue = VecDeque::new();
        }
    }

    /// Test-only: forces the epoch counter, so wraparound (2³² sweeps)
    /// can be exercised without running 2³² sweeps.
    #[cfg(test)]
    pub(crate) fn set_epoch_for_test(&mut self, epoch: u32) {
        self.epoch = epoch;
    }
}

/// Nodes reachable from `src` by a path whose label is in `L(nfa)`.
pub fn rpq_reach<G: GraphView>(g: &G, nfa: &Nfa, src: NodeId) -> BitSet {
    let mut result = g.node_set();
    rpq_reach_with(g, nfa, src, &mut ReachScratch::new(), &mut result);
    result
}

/// [`rpq_reach`] with caller-provided buffers: reachable nodes are inserted
/// into `result` (which is cleared first), and `scratch` is reused across
/// calls without reallocation.
///
/// The BFS iterates NFA transitions first and graph edges second: for each
/// frontier state `(v, q)` and each transition `q -a-> q'`, the `a`-targets
/// of `v` come from the label-partitioned CSR as one contiguous slice
/// ([`GraphDb::successors_slice`]), so nodes with large mixed-label edge
/// lists are never scanned label-by-label.
pub fn rpq_reach_with<G: GraphView>(
    g: &G,
    nfa: &Nfa,
    src: NodeId,
    scratch: &mut ReachScratch,
    result: &mut BitSet,
) {
    let ns = nfa.num_states();
    result.clear();
    scratch.begin(g.num_nodes() * ns, 0);
    for q in nfa.initials().iter() {
        if scratch.visit(src.index() * ns + q) {
            scratch.queue.push_back((src, q as StateId));
        }
        if nfa.is_final(q as StateId) {
            result.insert(src.index());
        }
    }
    while let Some((v, q)) = scratch.queue.pop_front() {
        for &(sym, q2) in nfa.transitions_from(q) {
            for to in g.successors(v, sym) {
                if scratch.visit(to.index() * ns + q2 as usize) {
                    if nfa.is_final(q2) {
                        result.insert(to.index());
                    }
                    scratch.queue.push_back((to, q2));
                }
            }
        }
    }
}

/// [`rpq_reach_with`] variant for bulk materialisation: reached nodes are
/// collected (sorted, deduplicated) into `out` instead of a bitset, using
/// per-node stamps for the dedup — so a sweep whose output is small never
/// touches `O(|V|/64)` words of clear/scan. Returns the number of
/// graph-edge scans the sweep performed, which the adaptive materialiser
/// ([`rpq_relation_auto`]) uses as its observed per-source cost.
pub fn rpq_reach_collect<G: GraphView>(
    g: &G,
    nfa: &Nfa,
    src: NodeId,
    scratch: &mut ReachScratch,
    out: &mut Vec<u32>,
) -> usize {
    let ns = nfa.num_states();
    out.clear();
    scratch.begin(g.num_nodes() * ns, g.num_nodes());
    let mut edge_scans = 0;
    for q in nfa.initials().iter() {
        if scratch.visit(src.index() * ns + q) {
            scratch.queue.push_back((src, q as StateId));
        }
        if nfa.is_final(q as StateId) && scratch.visit_node(src.index()) {
            out.push(src.0);
        }
    }
    while let Some((v, q)) = scratch.queue.pop_front() {
        for &(sym, q2) in nfa.transitions_from(q) {
            edge_scans += g.out_degree(v, sym);
            for to in g.successors(v, sym) {
                if scratch.visit(to.index() * ns + q2 as usize) {
                    if nfa.is_final(q2) && scratch.visit_node(to.index()) {
                        out.push(to.0);
                    }
                    scratch.queue.push_back((to, q2));
                }
            }
        }
    }
    out.sort_unstable();
    edge_scans
}

/// Backward reachability without materialising a reversed graph: the nodes
/// `u` such that some `u → dst` path has its label in `L(nfa)`, where
/// `nfa_rev` recognises the *mirror* language ([`Nfa::reverse`]).
///
/// Equivalent to `rpq_reach(&g.reversed(), nfa_rev, dst)` but walks the
/// reverse label-partitioned CSR the graph already carries
/// ([`GraphDb::predecessors_slice`]), so callers needing both directions
/// (e.g. bidirectional candidate pruning) avoid a full graph clone.
pub fn rpq_reach_back<G: GraphView>(g: &G, nfa_rev: &Nfa, dst: NodeId) -> BitSet {
    let mut result = g.node_set();
    rpq_reach_back_with(g, nfa_rev, dst, &mut ReachScratch::new(), &mut result);
    result
}

/// [`rpq_reach_back`] with caller-provided buffers (see [`rpq_reach_with`]).
pub fn rpq_reach_back_with<G: GraphView>(
    g: &G,
    nfa_rev: &Nfa,
    dst: NodeId,
    scratch: &mut ReachScratch,
    result: &mut BitSet,
) {
    let ns = nfa_rev.num_states();
    result.clear();
    scratch.begin(g.num_nodes() * ns, 0);
    for q in nfa_rev.initials().iter() {
        if scratch.visit(dst.index() * ns + q) {
            scratch.queue.push_back((dst, q as StateId));
        }
        if nfa_rev.is_final(q as StateId) {
            result.insert(dst.index());
        }
    }
    while let Some((v, q)) = scratch.queue.pop_front() {
        for &(sym, q2) in nfa_rev.transitions_from(q) {
            for from in g.predecessors(v, sym) {
                if scratch.visit(from.index() * ns + q2 as usize) {
                    if nfa_rev.is_final(q2) {
                        result.insert(from.index());
                    }
                    scratch.queue.push_back((from, q2));
                }
            }
        }
    }
}

/// Borrowed view of one row of a materialised [`Relation`]: the successor
/// (or predecessor) set of a node, stored **adaptively** — a contiguous
/// sorted-`u32` slice of the relation's flat CSR buffer while the row is
/// sparse, a dense bitset once it crosses the density threshold. A dense
/// row costs `n` bits, a sparse one `32·k` bits, so the switch point is
/// `k·32 ≥ n`; on label-sparse graphs most rows stay far below it, which
/// is what keeps full relation materialisation affordable past
/// `|V| = 10⁴` (dense rows alone are `O(|V|²/64)` words per relation, and
/// per-row heap allocations would dominate sparse materialisation).
#[derive(Clone, Copy, Debug)]
pub enum RelationRow<'a> {
    /// Sorted node ids (strictly ascending), borrowed from the flat store.
    Sparse(&'a [u32]),
    /// Bitset over all `n` nodes.
    Dense(&'a BitSet),
}

impl<'a> RelationRow<'a> {
    /// Number of ids in the row.
    pub fn len(&self) -> usize {
        match self {
            RelationRow::Sparse(ids) => ids.len(),
            RelationRow::Dense(b) => b.len(),
        }
    }

    /// Whether the row is empty.
    pub fn is_empty(&self) -> bool {
        match self {
            RelationRow::Sparse(ids) => ids.is_empty(),
            RelationRow::Dense(b) => b.is_empty(),
        }
    }

    /// Whether the row uses the dense representation.
    pub fn is_dense(&self) -> bool {
        matches!(self, RelationRow::Dense(_))
    }

    /// Membership test — O(1) dense, O(log k) sparse.
    #[inline]
    pub fn contains(&self, v: usize) -> bool {
        match self {
            RelationRow::Sparse(ids) => ids.binary_search(&(v as u32)).is_ok(),
            RelationRow::Dense(b) => b.contains(v),
        }
    }

    /// Iterates the ids in ascending order.
    pub fn iter(&self) -> RelationRowIter<'a> {
        match self {
            RelationRow::Sparse(ids) => RelationRowIter::Sparse(ids.iter()),
            RelationRow::Dense(b) => RelationRowIter::Dense(b.iter()),
        }
    }

    /// `acc ∩= self`, without allocating.
    pub fn intersect_into(&self, acc: &mut BitSet) {
        match self {
            RelationRow::Sparse(ids) => acc.intersect_with_sorted(ids),
            RelationRow::Dense(b) => acc.intersect_with(b),
        }
    }

    /// Whether the row shares an id with `other`.
    pub fn intersects(&self, other: &BitSet) -> bool {
        match self {
            RelationRow::Sparse(ids) => ids.iter().any(|&v| other.contains(v as usize)),
            RelationRow::Dense(b) => b.intersects(other),
        }
    }

    /// The smallest id `≥ from`, if any — the sorted-view seek primitive
    /// of the leapfrog intersection in the worst-case-optimal join
    /// (`crpq-core`'s `wcoj` module). `O(log k)` on sparse rows (binary
    /// search), `O(words to the hit)` on dense rows (word scan).
    #[inline]
    pub fn first_at_or_after(&self, from: usize) -> Option<usize> {
        match self {
            RelationRow::Sparse(ids) => {
                let i = ids.partition_point(|&v| (v as usize) < from);
                ids.get(i).map(|&v| v as usize)
            }
            RelationRow::Dense(b) => b.first_at_or_after(from),
        }
    }
}

/// Iterator over the ids of a [`RelationRow`].
pub enum RelationRowIter<'a> {
    /// Sparse side.
    Sparse(std::slice::Iter<'a, u32>),
    /// Dense side.
    Dense(crpq_util::bitset::BitSetIter<'a>),
}

impl Iterator for RelationRowIter<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        match self {
            RelationRowIter::Sparse(it) => it.next().map(|&v| v as usize),
            RelationRowIter::Dense(it) => it.next(),
        }
    }
}

/// Whether a row with `k` of `n` possible ids should be stored dense
/// (`32·k ≥ n`, the memory parity point between a `u32` id list and an
/// `n`-bit bitset).
#[inline]
fn dense_row(k: usize, n: usize) -> bool {
    k * 32 >= n
}

/// An **owned**, density-adaptive set of node ids over a fixed universe
/// `0..n`: a sorted `u32` list while sparse, a dense [`BitSet`] once
/// `k·32 ≥ n` (the same memory-parity point as [`RelationRow`], see
/// [`dense_row`] — a `u32` id costs 32 bits, a bitset slot one).
///
/// This is the semi-join **domain** representation of the join engine: a
/// per-variable candidate set starts at `V`, is cut down by atom
/// source/target sets and relation rows, and is then cloned and
/// intersected per backtracking step. With dense `|V|`-bit sets every one
/// of those steps costs `O(|V|/64)` regardless of how few candidates
/// survive; adaptively sparse sets make domain storage and per-step work
/// `O(candidates)`, which is what keeps the join affordable at
/// `|V| = 10⁵` where domains are almost always tiny after pruning.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum NodeSet {
    /// Sorted node ids (strictly ascending) over universe `0..universe`.
    Sparse { ids: Vec<u32>, universe: usize },
    /// Bitset over the whole universe.
    Dense(BitSet),
}

impl NodeSet {
    /// The full set `0..n` (dense).
    pub fn full(n: usize) -> Self {
        NodeSet::Dense(BitSet::full(n))
    }

    /// The empty set over universe `0..n`.
    pub fn empty(n: usize) -> Self {
        NodeSet::Sparse {
            ids: Vec::new(),
            universe: n,
        }
    }

    /// Builds from a sorted, deduplicated id list, choosing the cheaper
    /// representation.
    pub fn from_sorted_ids(ids: Vec<u32>, n: usize) -> Self {
        debug_assert!(ids.windows(2).all(|w| w[0] < w[1]), "ids must be sorted");
        let mut s = NodeSet::Sparse { ids, universe: n };
        s.normalize();
        s
    }

    /// One past the largest storable id.
    pub fn universe(&self) -> usize {
        match self {
            NodeSet::Sparse { universe, .. } => *universe,
            NodeSet::Dense(b) => b.capacity(),
        }
    }

    /// Number of ids in the set.
    pub fn len(&self) -> usize {
        match self {
            NodeSet::Sparse { ids, .. } => ids.len(),
            NodeSet::Dense(b) => b.len(),
        }
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        match self {
            NodeSet::Sparse { ids, .. } => ids.is_empty(),
            NodeSet::Dense(b) => b.is_empty(),
        }
    }

    /// Whether the set currently uses the dense representation.
    pub fn is_dense(&self) -> bool {
        matches!(self, NodeSet::Dense(_))
    }

    /// Membership test — O(log k) sparse, O(1) dense.
    pub fn contains(&self, v: usize) -> bool {
        match self {
            NodeSet::Sparse { ids, .. } => ids.binary_search(&(v as u32)).is_ok(),
            NodeSet::Dense(b) => b.contains(v),
        }
    }

    /// Removes `v` if present; returns whether it was. Sparse removal is
    /// `O(k)` — callers remove a handful of μ-images, not whole domains.
    pub fn remove(&mut self, v: usize) -> bool {
        match self {
            NodeSet::Sparse { ids, .. } => match ids.binary_search(&(v as u32)) {
                Ok(p) => {
                    ids.remove(p);
                    true
                }
                Err(_) => false,
            },
            NodeSet::Dense(b) => b.remove(v),
        }
    }

    /// Iterates the ids in ascending order.
    pub fn iter(&self) -> NodeSetIter<'_> {
        match self {
            NodeSet::Sparse { ids, .. } => NodeSetIter::Sparse(ids.iter()),
            NodeSet::Dense(b) => NodeSetIter::Dense(b.iter()),
        }
    }

    /// `self ∩= other` for a dense bitset operand (e.g. a cached relation
    /// source/target set), then re-picks the representation.
    pub fn intersect_with_bitset(&mut self, other: &BitSet) {
        match self {
            NodeSet::Sparse { ids, .. } => ids.retain(|&v| other.contains(v as usize)),
            NodeSet::Dense(b) => b.intersect_with(other),
        }
        self.normalize();
    }

    /// `self ∩= sorted` for a sorted id-list operand, then re-picks the
    /// representation.
    pub fn intersect_with_sorted(&mut self, sorted: &[u32]) {
        match self {
            NodeSet::Sparse { ids, .. } => {
                let mut j = 0;
                ids.retain(|&v| {
                    while j < sorted.len() && sorted[j] < v {
                        j += 1;
                    }
                    j < sorted.len() && sorted[j] == v
                });
            }
            NodeSet::Dense(b) => b.intersect_with_sorted(sorted),
        }
        self.normalize();
    }

    /// `self ∩= other` for another [`NodeSet`] operand (e.g. a cached
    /// relation source/target set, density-adaptive since the lazy
    /// relation layout), dispatching on the operand's representation.
    pub fn intersect_with_set(&mut self, other: &NodeSet) {
        match other {
            NodeSet::Sparse { ids, .. } => self.intersect_with_sorted(ids),
            NodeSet::Dense(b) => self.intersect_with_bitset(b),
        }
    }

    /// `self ∩= row` for a borrowed relation row, then re-picks the
    /// representation — the candidate-generation step of the join.
    pub fn intersect_with_row(&mut self, row: &RelationRow<'_>) {
        if let (NodeSet::Sparse { .. }, RelationRow::Sparse(row_ids)) = (&*self, row) {
            // Same sorted-id merge as a plain sorted-slice operand.
            let row_ids = *row_ids;
            self.intersect_with_sorted(row_ids);
            return;
        }
        match (&mut *self, row) {
            (NodeSet::Sparse { ids, .. }, RelationRow::Dense(b)) => {
                ids.retain(|&v| b.contains(v as usize));
            }
            (NodeSet::Dense(bits), row) => row.intersect_into(bits),
            (NodeSet::Sparse { .. }, RelationRow::Sparse(_)) => unreachable!("handled above"),
        }
        self.normalize();
    }

    /// The smallest id `≥ from`, if any — the same sorted-view seek as
    /// [`RelationRow::first_at_or_after`], so a pruned domain can join the
    /// leapfrog intersection alongside relation rows.
    #[inline]
    pub fn first_at_or_after(&self, from: usize) -> Option<usize> {
        match self {
            NodeSet::Sparse { ids, .. } => {
                let i = ids.partition_point(|&v| (v as usize) < from);
                ids.get(i).map(|&v| v as usize)
            }
            NodeSet::Dense(b) => b.first_at_or_after(from),
        }
    }

    /// Whether the set shares an id with `row` — the semi-join fixpoint
    /// test. `O(min(k_self, k_row))`-ish on sparse pairs, no allocation.
    pub fn intersects_row(&self, row: &RelationRow<'_>) -> bool {
        match (self, row) {
            (NodeSet::Sparse { ids, .. }, RelationRow::Sparse(row_ids)) => {
                // Walk the smaller list, binary-search the larger.
                let (probe, table): (&[u32], &[u32]) = if ids.len() <= row_ids.len() {
                    (ids, row_ids)
                } else {
                    (row_ids, ids)
                };
                probe.iter().any(|v| table.binary_search(v).is_ok())
            }
            (NodeSet::Sparse { ids, .. }, RelationRow::Dense(b)) => {
                ids.iter().any(|&v| b.contains(v as usize))
            }
            (NodeSet::Dense(bits), row) => row.intersects(bits),
        }
    }

    /// Re-picks the representation at the `k·32 ≥ n` parity point.
    fn normalize(&mut self) {
        match self {
            NodeSet::Sparse { ids, universe } => {
                if dense_row(ids.len(), *universe) {
                    let mut b = BitSet::new(*universe);
                    for &v in ids.iter() {
                        b.insert(v as usize);
                    }
                    *self = NodeSet::Dense(b);
                }
            }
            NodeSet::Dense(b) => {
                let (k, n) = (b.len(), b.capacity());
                if !dense_row(k, n) {
                    let ids = b.iter().map(|v| v as u32).collect();
                    *self = NodeSet::Sparse { ids, universe: n };
                }
            }
        }
    }
}

/// Iterator over the ids of a [`NodeSet`].
pub enum NodeSetIter<'a> {
    /// Sparse side.
    Sparse(std::slice::Iter<'a, u32>),
    /// Dense side.
    Dense(crpq_util::bitset::BitSetIter<'a>),
}

impl Iterator for NodeSetIter<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        match self {
            NodeSetIter::Sparse(it) => it.next().map(|&v| v as usize),
            NodeSetIter::Dense(it) => it.next(),
        }
    }
}

/// Maximum ids per sparse-row shard of a [`RowStore`]: the `u32` offset
/// space of one [`RowKind::Sparse`] span. Rows never cross a shard
/// boundary, so a relation whose flat id buffer outgrows one shard
/// (2³² ids ≈ 16 GiB) simply opens the next one — the old single-buffer
/// layout panicked here and demanded manual sharding.
const SHARD_CAP: usize = u32::MAX as usize;

/// One direction of a [`Relation`]: adaptive rows for the **touched**
/// nodes only, backed by a 2-level sharded CSR id buffer (sparse rows)
/// plus a bitset pool (dense rows).
///
/// The row table is itself density-adaptive ([`RowIndex`]): a sorted
/// `(node id, row kind)` pair list while few rows are touched — so an
/// empty store is O(1) and a k-row store O(k), never O(|V|) — promoted to
/// a direct per-node table past the usual `k·32 ≥ |V|` parity point,
/// where the relation is Ω(|V|) regardless and O(1) row lookup beats the
/// binary search.
#[derive(Clone, Debug)]
struct RowStore {
    /// Number of nodes the store ranges over (`row(i)` is defined for
    /// `i < n`, untouched rows read as empty).
    n: usize,
    index: RowIndex,
    /// Sharded flat id buffer of the sparse rows: each shard holds at
    /// most `shard_cap` ids and no row crosses a shard boundary, so a
    /// `(shard, start, end)` triple of `u32`s addresses any row at any
    /// total size.
    shards: Vec<Vec<u32>>,
    dense: Vec<BitSet>,
    /// Per-shard id capacity — [`SHARD_CAP`] in production, settable
    /// small in tests so the multi-shard paths are exercised without
    /// 16 GiB allocations.
    shard_cap: usize,
}

/// The row table of a [`RowStore`] — lazy (touched rows only) or direct.
#[derive(Clone, Debug)]
enum RowIndex {
    /// `(ids[i], kinds[i])` pair list of the touched rows, in install
    /// order until [`RowStore::seal`] sorts it by node id.
    Lazy { ids: Vec<u32>, kinds: Vec<RowKind> },
    /// Direct per-node table; untouched entries hold the empty row kind.
    Direct(Vec<RowKind>),
}

#[derive(Clone, Copy, Debug)]
enum RowKind {
    Sparse { shard: u32, start: u32, end: u32 },
    Dense { idx: u32 },
}

const EMPTY_ROW: RowKind = RowKind::Sparse {
    shard: 0,
    start: 0,
    end: 0,
};

impl RowStore {
    /// An empty store over `n` nodes — **O(1)**: no per-node table is
    /// allocated until enough rows are installed to justify one.
    fn empty(n: usize) -> Self {
        Self::with_shard_cap(n, SHARD_CAP)
    }

    fn with_shard_cap(n: usize, shard_cap: usize) -> Self {
        RowStore {
            n,
            index: RowIndex::Lazy {
                ids: Vec::new(),
                kinds: Vec::new(),
            },
            shards: Vec::new(),
            dense: Vec::new(),
            shard_cap,
        }
    }

    #[inline]
    fn resolve(&self, kind: RowKind) -> RelationRow<'_> {
        match kind {
            RowKind::Sparse { start, end, .. } if start == end => RelationRow::Sparse(&[]),
            RowKind::Sparse { shard, start, end } => {
                RelationRow::Sparse(&self.shards[shard as usize][start as usize..end as usize])
            }
            RowKind::Dense { idx } => RelationRow::Dense(&self.dense[idx as usize]),
        }
    }

    /// The row of node `i` — O(1) on a direct index, O(log touched) on a
    /// lazy one (binary search; only valid once the index is sorted, i.e.
    /// after [`Self::seal`]).
    #[inline]
    fn row(&self, i: usize) -> RelationRow<'_> {
        let kind = match &self.index {
            RowIndex::Lazy { ids, kinds } => match ids.binary_search(&(i as u32)) {
                Ok(p) => kinds[p],
                Err(_) => return RelationRow::Sparse(&[]),
            },
            RowIndex::Direct(table) => table[i],
        };
        self.resolve(kind)
    }

    /// Iterates the touched rows as `(node id, row)` in ascending node
    /// order — O(touched) on a lazy (sealed) index; on a direct one the
    /// O(n) scan is within a 32× factor of touched by the promotion
    /// parity. The assembly passes of [`Relation::finish_reverse`] run on
    /// this instead of `0..n`.
    fn touched_rows(&self) -> impl Iterator<Item = (u32, RelationRow<'_>)> + '_ {
        let lazy = match &self.index {
            RowIndex::Lazy { ids, kinds } => Some(
                ids.iter()
                    .zip(kinds)
                    .map(move |(&id, &kind)| (id, self.resolve(kind))),
            ),
            RowIndex::Direct(_) => None,
        };
        let direct = match &self.index {
            RowIndex::Direct(table) => Some(
                table
                    .iter()
                    .enumerate()
                    .filter(
                        |(_, k)| !matches!(k, RowKind::Sparse { start, end, .. } if start == end),
                    )
                    .map(move |(i, &kind)| (i as u32, self.resolve(kind))),
            ),
            RowIndex::Lazy { .. } => None,
        };
        lazy.into_iter()
            .flatten()
            .chain(direct.into_iter().flatten())
    }

    /// Reserves the `[start, end)` span of the next sparse row of `deg`
    /// ids, opening a fresh shard when the current one cannot hold it —
    /// rows never cross a shard boundary, so `u32` offsets address any
    /// total buffer size.
    fn reserve_span(&mut self, deg: usize) -> RowKind {
        assert!(
            deg <= self.shard_cap,
            "a single relation row of {deg} ids exceeds the shard capacity {}",
            self.shard_cap
        );
        if self
            .shards
            .last()
            .is_none_or(|s| s.len() + deg > self.shard_cap)
        {
            self.shards.push(Vec::new());
        }
        let shard = self.shards.len() - 1;
        let start = self.shards[shard].len();
        RowKind::Sparse {
            shard: shard as u32,
            start: start as u32,
            end: (start + deg) as u32,
        }
    }

    /// Appends a sparse row for node `i` (ids strictly ascending,
    /// non-empty).
    fn push_sparse(&mut self, i: usize, ids: &[u32]) {
        debug_assert!(ids.windows(2).all(|w| w[0] < w[1]), "ids must be sorted");
        let kind = self.reserve_span(ids.len());
        self.shards.last_mut().unwrap().extend_from_slice(ids); // invariant: shards is never empty
        self.push_kind(i, kind);
    }

    /// Installs a dense row for node `i`.
    fn push_dense(&mut self, i: usize, bits: BitSet) {
        let kind = RowKind::Dense {
            idx: self.dense.len() as u32,
        };
        self.dense.push(bits);
        self.push_kind(i, kind);
    }

    fn push_kind(&mut self, i: usize, kind: RowKind) {
        match &mut self.index {
            RowIndex::Lazy { ids, kinds } => {
                ids.push(i as u32);
                kinds.push(kind);
            }
            RowIndex::Direct(table) => table[i] = kind,
        }
    }

    /// Finalises the index for reads: sorts the lazy pair list by node id
    /// (installers run in arbitrary order — parallel workers, sampled
    /// probes) and promotes it to a direct table past the `k·32 ≥ n`
    /// parity point. Returns the sorted touched ids (the relation's
    /// source/target set, for free). Idempotent on a direct index.
    fn seal(&mut self) -> Vec<u32> {
        match &mut self.index {
            RowIndex::Lazy { ids, kinds } => {
                if !ids.windows(2).all(|w| w[0] < w[1]) {
                    let mut pairs: Vec<(u32, RowKind)> =
                        ids.iter().copied().zip(kinds.iter().copied()).collect();
                    pairs.sort_unstable_by_key(|&(id, _)| id);
                    debug_assert!(
                        pairs.windows(2).all(|w| w[0].0 < w[1].0),
                        "row installed twice"
                    );
                    *ids = pairs.iter().map(|&(id, _)| id).collect();
                    *kinds = pairs.into_iter().map(|(_, kind)| kind).collect();
                }
                if dense_row(ids.len(), self.n) {
                    let mut table = vec![EMPTY_ROW; self.n];
                    for (&id, &kind) in ids.iter().zip(kinds.iter()) {
                        table[id as usize] = kind;
                    }
                    let ids = std::mem::take(ids);
                    self.index = RowIndex::Direct(table);
                    ids
                } else {
                    ids.clone()
                }
            }
            RowIndex::Direct(_) => self.touched_rows().map(|(id, _)| id).collect(),
        }
    }

    /// Heap bytes of the index, shards and dense pool — O(touched) by
    /// construction on lazy stores (no phantom per-node table).
    fn heap_bytes(&self) -> usize {
        let index = match &self.index {
            RowIndex::Lazy { ids, kinds } => {
                ids.len() * 4 + kinds.len() * std::mem::size_of::<RowKind>()
            }
            RowIndex::Direct(table) => table.len() * std::mem::size_of::<RowKind>(),
        };
        index
            + self.shards.iter().map(|s| s.len() * 4).sum::<usize>()
            + self.dense.iter().map(BitSet::heap_bytes).sum::<usize>()
    }
}

/// A fully materialised binary relation over the nodes of a graph — the
/// result set of an RPQ atom under standard semantics, indexed both ways:
/// `forward(u)` is the row of `v` with `(u, v)` in the relation, and
/// `backward(v)` the row of `u`. Both directions are what the join-based
/// CRPQ evaluator intersects during semi-join pruning and candidate
/// generation. Rows are density-adaptive and CSR-backed
/// ([`RelationRow`]), and the source / target sets are maintained
/// incrementally during materialisation, so [`Relation::source_set`] /
/// [`Relation::target_set`] are O(1) lookups of cached bitsets rather
/// than full scans.
#[derive(Clone, Debug)]
pub struct Relation {
    fwd: RowStore,
    rev: RowStore,
    len: usize,
    /// Cached source/target sets, finalised by [`Self::finish_reverse`]
    /// from the touched-id lists (density-adaptive — O(touched) while
    /// sparse, never a phantom `|V|`-bit allocation for a tiny relation).
    sources: NodeSet,
    targets: NodeSet,
    /// Install-time target deduplication behind [`Self::touch_target`] —
    /// hash-set sparse, promoted to a bitset past the `k·32 ≥ |V|` parity
    /// point (where the relation is Ω(|V|) anyway). Drained by
    /// `finish_reverse`. Touched *sources* need no twin: the forward
    /// row index records them as it fills.
    target_touch: TouchSet,
    /// Distinct targets, in first-touch order (deduplicated against
    /// `target_touch` on insert). Also drained by `finish_reverse`.
    touched_targets: Vec<u32>,
    /// Loop iterations of the last `finish_reverse` — the observable the
    /// O(E_rel + touched) assembly contract is pinned by (regression
    /// tests assert it stays ≪ |V| on sparse relations over huge graphs).
    assembly_ops: usize,
}

/// Install-time membership set sized by what it holds: a hash set while
/// sparse, a dense bitset once `k·32 ≥ n` (at which point the `n/8`-byte
/// allocation is no larger than the hash set it replaces).
#[derive(Clone, Debug)]
enum TouchSet {
    Sparse(FxHashSet<u32>),
    Dense(BitSet),
}

impl TouchSet {
    fn new() -> Self {
        TouchSet::Sparse(FxHashSet::default())
    }

    /// Inserts `v`; returns `true` if newly inserted. `n` is the universe
    /// size (the dense-promotion parity point).
    #[inline]
    fn insert(&mut self, v: usize, n: usize) -> bool {
        match self {
            TouchSet::Sparse(set) => {
                let newly = set.insert(v as u32);
                if newly && dense_row(set.len(), n) {
                    let mut bits = BitSet::new(n);
                    for &id in set.iter() {
                        bits.insert(id as usize);
                    }
                    *self = TouchSet::Dense(bits);
                }
                newly
            }
            TouchSet::Dense(bits) => bits.insert(v),
        }
    }
}

/// Equality is **semantic** — same pair set, regardless of row
/// representation (sparse vs. dense) or installation order — so relations
/// from different materialisers compare equal exactly when they denote
/// the same RPQ result.
impl PartialEq for Relation {
    fn eq(&self, other: &Self) -> bool {
        if self.num_nodes() != other.num_nodes() || self.len != other.len {
            return false;
        }
        // Compare the non-empty forward rows in ascending source order —
        // O(touched), so equality checks on sparse relations over huge
        // graphs never scan `0..n`. (Empty rows are filtered because a
        // dense row may be stored explicitly and still be empty.)
        let mut a = self.fwd.touched_rows().filter(|(_, r)| !r.is_empty());
        let mut b = other.fwd.touched_rows().filter(|(_, r)| !r.is_empty());
        loop {
            match (a.next(), b.next()) {
                (None, None) => return true,
                (Some((ua, ra)), Some((ub, rb))) => {
                    if ua != ub || !ra.iter().eq(rb.iter()) {
                        return false;
                    }
                }
                _ => return false,
            }
        }
    }
}

impl Eq for Relation {}

impl Relation {
    /// The empty relation over `n` nodes — **O(1)**: row tables, flat
    /// buffers and the source/target sets all materialise lazily over the
    /// touched ids, so creating (and discarding) a relation on a 10⁷-node
    /// graph costs nothing until rows are installed.
    pub fn empty(n: usize) -> Self {
        Relation {
            fwd: RowStore::empty(n),
            rev: RowStore::empty(n),
            len: 0,
            sources: NodeSet::empty(n),
            targets: NodeSet::empty(n),
            target_touch: TouchSet::new(),
            touched_targets: Vec::new(),
            assembly_ops: 0,
        }
    }

    /// Number of nodes the relation ranges over.
    pub fn num_nodes(&self) -> usize {
        self.fwd.n
    }

    /// Number of pairs in the relation.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the relation holds no pairs.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Membership test for `(u, v)`.
    #[inline]
    pub fn contains(&self, u: NodeId, v: NodeId) -> bool {
        self.fwd.row(u.index()).contains(v.index())
    }

    /// All `v` with `(u, v)` in the relation.
    #[inline]
    pub fn forward(&self, u: NodeId) -> RelationRow<'_> {
        self.fwd.row(u.index())
    }

    /// All `u` with `(u, v)` in the relation.
    #[inline]
    pub fn backward(&self, v: NodeId) -> RelationRow<'_> {
        self.rev.row(v.index())
    }

    /// The cached set of sources (`u` with at least one pair) — O(1),
    /// density-adaptive (finalised by `finish_reverse`).
    pub fn source_set(&self) -> &NodeSet {
        &self.sources
    }

    /// The cached set of targets (`v` with at least one pair) — O(1),
    /// density-adaptive (finalised by `finish_reverse`).
    pub fn target_set(&self) -> &NodeSet {
        &self.targets
    }

    /// Fraction of forward rows stored dense (bench observability).
    pub fn dense_row_fraction(&self) -> f64 {
        if self.fwd.n == 0 {
            return 0.0;
        }
        let dense = self.fwd.dense.len();
        dense as f64 / self.fwd.n as f64
    }

    /// Iterates all pairs in `(source, target)` order — O(touched + len),
    /// never a `0..|V|` scan.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        self.fwd
            .touched_rows()
            .flat_map(move |(u, row)| row.iter().map(move |v| (NodeId(u), NodeId(v as u32))))
    }

    /// Folds `v` into the touched-target list (deduplicated) — the
    /// bookkeeping every forward-row installer shares so `finish_reverse`
    /// needs no `0..n` scan.
    #[inline]
    fn touch_target(&mut self, v: usize) {
        if self.target_touch.insert(v, self.fwd.n) {
            self.touched_targets.push(v as u32);
        }
    }

    /// Installs the forward row of `src` directly from backing words (bit
    /// `i` of word `w` = node `w·64 + i`), as produced by the closure
    /// materialiser's flat reachability matrix.
    fn set_forward_row_words(&mut self, src: NodeId, words: &[u64], buf: &mut Vec<u32>) {
        let n = self.num_nodes();
        let k: usize = words.iter().map(|w| w.count_ones() as usize).sum();
        self.len += k;
        if k == 0 {
            return;
        }
        if dense_row(k, n) {
            for (wi, &w) in words.iter().enumerate() {
                let mut w = w;
                while w != 0 {
                    self.touch_target(wi * 64 + w.trailing_zeros() as usize);
                    w &= w - 1;
                }
            }
            self.fwd
                .push_dense(src.index(), BitSet::from_words(words.to_vec(), n));
        } else {
            // One bit-extraction walk serves both the sparse row and the
            // touched-target bookkeeping.
            buf.clear();
            for (wi, &w) in words.iter().enumerate() {
                let mut w = w;
                while w != 0 {
                    buf.push((wi * 64) as u32 + w.trailing_zeros());
                    w &= w - 1;
                }
            }
            for &v in buf.iter() {
                self.touch_target(v as usize);
            }
            self.fwd.push_sparse(src.index(), buf);
        }
    }

    /// Installs the forward row of `src` from an owned sorted id list (the
    /// hand-off format of the parallel materialiser's worker threads).
    fn set_forward_row_ids(&mut self, src: NodeId, ids: &[u32]) {
        let n = self.num_nodes();
        let k = ids.len();
        self.len += k;
        if k == 0 {
            return;
        }
        for &v in ids {
            self.touch_target(v as usize);
        }
        if dense_row(k, n) {
            let mut bits = BitSet::new(n);
            for &v in ids {
                bits.insert(v as usize);
            }
            self.fwd.push_dense(src.index(), bits);
        } else {
            self.fwd.push_sparse(src.index(), ids);
        }
    }

    /// Installs the forward row of `src` from an already-dense bitset (the
    /// hand-off format of the blocked closure's per-source accumulators).
    fn set_forward_row_bits(&mut self, src: NodeId, bits: BitSet) {
        let k = bits.len();
        self.len += k;
        if k == 0 {
            return;
        }
        for v in bits.iter() {
            self.touch_target(v);
        }
        self.fwd.push_dense(src.index(), bits);
    }

    /// Approximate heap bytes held by the relation's row stores and cached
    /// node sets — the peak-RSS proxy the scale benchmarks record. With
    /// the lazy layout this is **truthful O(touched)** accounting: an
    /// empty relation reports 0 bytes and a sparse one only what its
    /// touched rows, ids and node sets actually allocated — no phantom
    /// `O(|V|)` term for untouched rows.
    pub fn heap_bytes(&self) -> usize {
        let set = |s: &NodeSet| match s {
            NodeSet::Sparse { ids, .. } => ids.len() * 4,
            NodeSet::Dense(b) => b.heap_bytes(),
        };
        self.fwd.heap_bytes() + self.rev.heap_bytes() + set(&self.sources) + set(&self.targets)
    }

    /// Loop iterations of the last backward-index assembly
    /// ([`Self::finish_reverse`]): `O(E_rel + touched sources + touched
    /// targets)` by construction, with **no** term scaling in `|V|`. The
    /// scale regression tests pin this on a 10⁶-node graph whose relation
    /// touches ~10² nodes.
    pub fn assembly_ops(&self) -> usize {
        self.assembly_ops
    }

    /// Builds the backward index from the installed forward rows, in
    /// `O(E_rel + touched)`: the forward row index recorded the touched
    /// sources and the installers the touched targets, so the degree
    /// pass, the column layout pass and the fill pass all run over the
    /// touched sets — never `0..n`. The `deg` / `cursor` arrays and the
    /// backward row index itself are sized over a compact touched-target
    /// remap (direct-indexed only when the relation is dense enough to be
    /// Ω(|V|) anyway), so a relation touching k of 10⁷ nodes assembles
    /// its backward index in O(k·d̄), not O(10⁷). Also finalises the
    /// cached source/target [`NodeSet`]s from the touched ids.
    fn finish_reverse(&mut self) {
        let n = self.num_nodes();
        let mut ops = 0usize;
        // Install order is arbitrary (parallel workers, sampled probes);
        // sealing sorts the forward index — ascending source order is
        // what keeps every backward column sorted below.
        let src_ids = self.fwd.seal();
        let mut tgt = std::mem::take(&mut self.touched_targets);
        tgt.sort_unstable();
        let t = tgt.len();

        // Compact remap target id → index into `tgt`. Past the usual
        // k·32 ≥ n parity point a direct-indexed table is cheaper than
        // per-edge binary searches (and the relation is Ω(|V|) there
        // regardless); below it the remap costs O(t) memory and
        // O(log t) per edge.
        let direct: Option<Vec<u32>> = if dense_row(t, n) {
            let mut m = vec![0u32; n];
            for (i, &v) in tgt.iter().enumerate() {
                m[v as usize] = i as u32;
            }
            Some(m)
        } else {
            None
        };
        let remap = |v: usize| -> usize {
            match &direct {
                Some(m) => m[v] as usize,
                None => tgt
                    .binary_search(&(v as u32))
                    .expect("target missing from touched set"), // invariant: the BFS inserted every reached target
            }
        };

        // Degree pass over the touched sources' rows only.
        let mut deg = vec![0u32; t];
        for (_, row) in self.fwd.touched_rows() {
            for v in row.iter() {
                deg[remap(v)] += 1;
                ops += 1;
            }
        }

        // Column layout: representation choice + cursor per touched
        // target. Backward kinds are built compactly alongside `tgt`;
        // untouched targets never get an entry.
        let mut rev = RowStore::with_shard_cap(n, self.rev.shard_cap);
        let mut rev_kinds: Vec<RowKind> = Vec::with_capacity(t);
        let mut cursor = vec![0u32; t];
        for (i, _) in tgt.iter().enumerate() {
            ops += 1;
            let d = deg[i] as usize;
            debug_assert!(d > 0, "touched target with zero degree");
            if dense_row(d, n) {
                let kind = RowKind::Dense {
                    idx: rev.dense.len() as u32,
                };
                rev.dense.push(BitSet::new(n));
                rev_kinds.push(kind);
            } else {
                let kind = rev.reserve_span(d);
                let RowKind::Sparse { shard, start, .. } = kind else {
                    unreachable!()
                };
                let shard = shard as usize;
                let new_len = start as usize + d;
                if rev.shards[shard].len() < new_len {
                    rev.shards[shard].resize(new_len, 0);
                }
                cursor[i] = start;
                rev_kinds.push(kind);
            }
        }

        // Fill pass, ascending source order keeps every column sorted.
        for (u, row) in self.fwd.touched_rows() {
            for v in row.iter() {
                ops += 1;
                let i = remap(v);
                match rev_kinds[i] {
                    RowKind::Sparse { shard, .. } => {
                        rev.shards[shard as usize][cursor[i] as usize] = u;
                        cursor[i] += 1;
                    }
                    RowKind::Dense { idx } => {
                        rev.dense[idx as usize].insert(u as usize);
                    }
                }
            }
        }

        // Install the backward index over the touched-target remap —
        // direct past the parity point (mirroring `RowStore::seal`), a
        // sorted pair list below it.
        rev.index = if dense_row(t, n) {
            let mut table = vec![EMPTY_ROW; n];
            for (&v, &kind) in tgt.iter().zip(rev_kinds.iter()) {
                table[v as usize] = kind;
            }
            RowIndex::Direct(table)
        } else {
            RowIndex::Lazy {
                ids: tgt.clone(),
                kinds: rev_kinds,
            }
        };
        self.rev = rev;
        self.assembly_ops = ops;
        // Finalise the cached node sets and release the assembly
        // scaffolding so a long-lived catalog relation doesn't carry it.
        self.sources = NodeSet::from_sorted_ids(src_ids, n);
        self.targets = NodeSet::from_sorted_ids(tgt, n);
        self.target_touch = TouchSet::new();
    }
}

/// Materialises the full RPQ relation `{(u, v) : some u→v path has its
/// label in L(nfa)}` by a product BFS from every source in `sources`,
/// reusing `scratch` across sweeps (no per-source reallocation beyond the
/// output rows themselves).
pub fn rpq_reach_all<G: GraphView>(
    g: &G,
    nfa: &Nfa,
    sources: impl IntoIterator<Item = NodeId>,
    scratch: &mut ReachScratch,
) -> Relation {
    let n = g.num_nodes();
    let mut rel = Relation::empty(n);
    let mut buf: Vec<u32> = Vec::new();
    for src in sources {
        rpq_reach_collect(g, nfa, src, scratch, &mut buf);
        rel.set_forward_row_ids(src, &buf);
    }
    rel.finish_reverse();
    rel
}

/// [`rpq_reach_all`] partitioned across `threads` std scoped threads, each
/// with its own [`ReachScratch`]: per-source product BFS is embarrassingly
/// parallel, so the sources are split into contiguous chunks and the
/// backward index is assembled once at the end. `threads = 0` means one
/// thread per available CPU (capped at 16); `threads ≤ 1` degenerates to
/// the sequential [`rpq_reach_all`].
pub fn rpq_reach_all_parallel<G: GraphView>(
    g: &G,
    nfa: &Nfa,
    sources: &[NodeId],
    threads: usize,
) -> Relation {
    // Resolve the knob exactly once at the public entry point; everything
    // below takes the resolved count (`parallel_rows` must not re-apply
    // `effective_threads`, or a `0` knob would be re-interpreted and the
    // error fallback re-decided per layer).
    let threads = effective_threads(threads).min(sources.len().max(1));
    if threads <= 1 {
        return rpq_reach_all(g, nfa, sources.iter().copied(), &mut ReachScratch::new());
    }
    let mut rel = Relation::empty(g.num_nodes());
    let (rows, _scratch_bytes) = parallel_rows(g, nfa, sources, threads);
    for (src, ids) in rows {
        rel.set_forward_row_ids(src, &ids);
    }
    rel.finish_reverse();
    rel
}

/// Observability record of one relation materialisation — what the scale
/// benchmarks persist next to wall clock and relation bytes so scratch
/// regressions (a sweep path silently re-growing dense stamp arrays per
/// worker) show up in the baselines.
#[derive(Clone, Copy, Debug, Default)]
pub struct MaterialiseStats {
    /// Peak heap bytes of the per-sweep scratch (stamp arrays, sparse
    /// visited maps, queues), summed across the calling thread and every
    /// worker that contributed to the materialisation.
    pub scratch_bytes: usize,
    /// Backward-assembly loop iterations ([`Relation::assembly_ops`]).
    pub assembly_ops: usize,
}

/// One materialised forward row: `(source, sorted target ids)` — the
/// hand-off format of the parallel materialiser's worker threads.
type SourceRow = (NodeId, Vec<u32>);

/// Runs the per-source sweeps for `sources` across scoped worker threads
/// (one [`ReachScratch`] each) and returns the rows in source order, plus
/// the summed final scratch heap bytes across the workers.
///
/// `threads` must be an **already-resolved** worker count (`≥ 1`, from
/// [`effective_threads`] at the public entry point) — this helper only
/// clamps it to the source count and never re-interprets the `0` knob.
fn parallel_rows<G: GraphView>(
    g: &G,
    nfa: &Nfa,
    sources: &[NodeId],
    threads: usize,
) -> (Vec<SourceRow>, usize) {
    debug_assert!(threads >= 1, "threads must be resolved by the caller");
    let threads = threads.min(sources.len().max(1));
    let chunk = sources.len().div_ceil(threads);
    let chunks: Vec<&[NodeId]> = sources.chunks(chunk.max(1)).collect();
    let per_chunk: Vec<(Vec<SourceRow>, usize)> = crpq_util::sync::thread::scope(|scope| {
        let handles: Vec<_> = chunks
            .into_iter()
            .map(|chunk| {
                scope.spawn(move || {
                    let mut scratch = ReachScratch::new();
                    let mut buf: Vec<u32> = Vec::new();
                    let rows = chunk
                        .iter()
                        .map(|&src| {
                            rpq_reach_collect(g, nfa, src, &mut scratch, &mut buf);
                            (src, buf.clone())
                        })
                        .collect();
                    (rows, scratch.heap_bytes())
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect() // invariant: worker panics propagate to the caller by design
    });
    let scratch_bytes = per_chunk.iter().map(|(_, b)| b).sum();
    (
        per_chunk.into_iter().flat_map(|(rows, _)| rows).collect(),
        scratch_bytes,
    )
}

/// Resolves a thread-count knob into a concrete worker count (`≥ 1`):
/// `0` = one per available CPU, capped at 16; any other value is taken
/// verbatim.
///
/// When `available_parallelism` itself errors (it can on exotic platforms,
/// restricted sandboxes, or when cgroup limits are unreadable) the `0` knob
/// falls back to **4 workers** — a deliberate middle ground: parallel
/// enough to matter on typical hardware, small enough not to oversubscribe
/// a container that hid its CPU count. Callers resolve the knob **once** at
/// the public entry point and pass the resolved count down; internal
/// helpers (e.g. `parallel_rows`) never re-apply this function, so the
/// fallback decision is made in exactly one place.
pub fn effective_threads(threads: usize) -> usize {
    if threads == 0 {
        crpq_util::sync::thread::available_parallelism().map_or(4, |n| n.get().min(16))
    } else {
        threads
    }
}

/// [`rpq_reach_all`] from every node of the graph: the atom's complete
/// standard-semantics relation.
pub fn rpq_relation<G: GraphView>(g: &G, nfa: &Nfa, scratch: &mut ReachScratch) -> Relation {
    let sources = (0..g.num_nodes()).map(|v| NodeId(v as u32));
    rpq_reach_all(g, nfa, sources, scratch)
}

/// [`rpq_relation`] with the per-source sweeps partitioned across scoped
/// threads ([`rpq_reach_all_parallel`]).
pub fn rpq_relation_parallel<G: GraphView>(g: &G, nfa: &Nfa, threads: usize) -> Relation {
    let sources: Vec<NodeId> = (0..g.num_nodes()).map(|v| NodeId(v as u32)).collect();
    rpq_reach_all_parallel(g, nfa, &sources, threads)
}

/// Per-block budget for the blocked closure's reach matrix: 2³⁰ bits
/// (128 MiB). This used to be a *hard cap* past which the closure refused
/// to run; it is now only the working-set ceiling of one column block
/// ([`rpq_relation_closure_blocked`]).
pub const CLOSURE_BLOCK_BUDGET_BITS: usize = 1 << 30;

/// Whether the closure materialiser's worst-case reach matrix — one
/// `|V|`-bit row per product-graph SCC, `O(|V|²·|Q|)` bits — fits in a
/// **single** column block of the default budget
/// ([`CLOSURE_BLOCK_BUDGET_BITS`]). Kept for observability and tests:
/// [`rpq_relation_closure`] no longer gates on it — past this point it
/// processes the SCC condensation in column blocks instead of being
/// unusable, so dense products degrade gracefully rather than falling
/// back to quadratic per-source sweeps.
pub fn closure_fits<G: GraphView>(g: &G, nfa: &Nfa) -> bool {
    let n = g.num_nodes() as u128;
    let pn = n * nfa.num_states() as u128;
    pn > 0 && pn * n <= CLOSURE_BLOCK_BUDGET_BITS as u128
}

/// **Cost-adaptive** full-relation materialiser: starts with per-source
/// sweeps, observes their cost on a sample of sources, and switches to the
/// condensation bitset closure when the product graph is dense enough that
/// per-source exploration would be quadratically wasteful.
///
/// Per-source total cost scales with `Σ_v (edges scanned from v's product
/// cone)` — on sparse relations that is near the output size and beats
/// everything, but on dense ones (e.g. `a*` over one big SCC) every source
/// re-scans the whole product, `O(|V|·|E_Π|)`. The closure pays
/// `O(|E_Π|)` traversal + `O(|E_Π|·|V|/64)` word-ORs once, regardless.
/// The sample's observed edge scans project the per-source total; when the
/// projection exceeds a small multiple of the closure's traversal bound,
/// the sampled rows are discarded and the (column-blocked, so
/// memory-bounded at any scale) closure runs instead. `threads > 1`
/// additionally partitions the remaining per-source sweeps across scoped
/// threads.
pub fn rpq_relation_auto<G: GraphView>(
    g: &G,
    nfa: &Nfa,
    scratch: &mut ReachScratch,
    threads: usize,
) -> Relation {
    rpq_relation_auto_with_stats(g, nfa, scratch, threads).0
}

/// [`rpq_relation_auto`] that additionally reports [`MaterialiseStats`]
/// (peak sweep-scratch bytes across workers, backward-assembly ops) — the
/// instrumented entry point of the relation catalog.
pub fn rpq_relation_auto_with_stats<G: GraphView>(
    g: &G,
    nfa: &Nfa,
    scratch: &mut ReachScratch,
    threads: usize,
) -> (Relation, MaterialiseStats) {
    let mut stats = MaterialiseStats::default();
    let n = g.num_nodes();
    const SAMPLE: usize = 64;
    let sample = SAMPLE.min(n);
    // Resolve the thread knob once up front (see `effective_threads`);
    // `parallel_rows` below receives the resolved count.
    let threads = effective_threads(threads);
    let mut rel = Relation::empty(n);
    let mut buf: Vec<u32> = Vec::new();
    // Spread the sample evenly across the whole id range — graphs often
    // correlate structure with id order (generators emit hubs first,
    // loaders cluster by source), and a prefix sample would project that
    // bias onto the whole graph. `i·n/sample` covers the full range for
    // every n (a fixed stride would degenerate to a prefix for n just
    // above the sample size). The division is guarded and the indices
    // deduplicated, so a tiny or empty graph can neither divide by zero
    // when projecting the cost nor probe (and double-install) the same
    // source twice; the projection divides by the number of sources
    // actually probed, not the requested sample size.
    let mut sampled: Vec<usize> = (0..sample).map(|i| i * n / sample.max(1)).collect();
    sampled.dedup();
    let mut sampled_scans = 0usize;
    for &v in &sampled {
        sampled_scans += rpq_reach_collect(g, nfa, NodeId(v as u32), scratch, &mut buf);
        rel.set_forward_row_ids(NodeId(v as u32), &buf);
    }
    if !sampled.is_empty() && sampled.len() < n {
        let projected = sampled_scans.saturating_mul(n) / sampled.len();
        let closure_bound = (n + g.num_edges()) * nfa.num_states();
        if projected > 4 * closure_bound {
            // The blocked closure degrades gracefully on any product size
            // (column blocks bound its matrix), so no memory gate here.
            let rel = rpq_relation_closure(g, nfa);
            stats.scratch_bytes = scratch.heap_bytes();
            stats.assembly_ops = rel.assembly_ops();
            return (rel, stats);
        }
    }
    // Remaining sources: everything not in the (sorted) sample.
    let mut next_sampled = sampled.iter().copied().peekable();
    let rest: Vec<NodeId> = (0..n)
        .filter(|&v| {
            if next_sampled.peek() == Some(&v) {
                next_sampled.next();
                false
            } else {
                true
            }
        })
        .map(|v| NodeId(v as u32))
        .collect();
    if threads > 1 && rest.len() > SAMPLE {
        let (chunk_rows, worker_scratch_bytes) = parallel_rows(g, nfa, &rest, threads);
        stats.scratch_bytes += worker_scratch_bytes;
        for (src, ids) in chunk_rows {
            rel.set_forward_row_ids(src, &ids);
        }
    } else {
        for src in rest {
            rpq_reach_collect(g, nfa, src, scratch, &mut buf);
            rel.set_forward_row_ids(src, &buf);
        }
    }
    rel.finish_reverse();
    stats.scratch_bytes += scratch.heap_bytes();
    stats.assembly_ops = rel.assembly_ops();
    (rel, stats)
}

/// Materialises the full RPQ relation by **bitset closure over the
/// product-graph condensation** instead of one BFS per source, with the
/// reach matrix capped per column block ([`CLOSURE_BLOCK_BUDGET_BITS`]).
/// See [`rpq_relation_closure_blocked`] for the mechanics.
pub fn rpq_relation_closure<G: GraphView>(g: &G, nfa: &Nfa) -> Relation {
    rpq_relation_closure_blocked(g, nfa, CLOSURE_BLOCK_BUDGET_BITS)
}

/// The **column-blocked** closure materialiser.
///
/// The product graph `G × A` has a node `(v, q)` per graph node and
/// automaton state and an edge `(v, q) → (w, q′)` per graph edge
/// `v -a-> w` with `q -a-> q′`. `row(v)` is exactly the set of graph nodes
/// `w` such that some `(v, q₀)` with `q₀` initial reaches a `(w, q_f)`
/// with `q_f` final.
///
/// **Phase 1** runs Tarjan's algorithm once over the product graph, which
/// emits SCCs in reverse topological order. Instead of accumulating reach
/// rows on the spot, each SCC either *shares* the row of its single
/// distinct successor (a pass-through: no final-state members of its own —
/// on sparse products most SCCs are such), or *claims* a row and records a
/// **recipe**: the distinct successor rows to OR together plus the graph
/// nodes of its final-state members. Successor rows are always claimed
/// before the rows referencing them, so ascending row order is a valid
/// evaluation schedule.
///
/// **Phase 2** replays the recipes over **column blocks**: the `|V|`
/// target-node columns are split into blocks sized so the live reach
/// matrix (`rows × block` bits) stays under `block_budget_bits`, and each
/// block's row slices are ORed up in one pass — `O(|E_c| · |V| / 64)` word
/// operations across all blocks, where `|E_c|` is the condensation edge
/// count. When everything fits one block this is exactly the old
/// un-blocked materialiser (rows install straight from the matrix);
/// otherwise per-source accumulators assemble rows across blocks,
/// upgrading from sorted ids to dense bits at the usual `k·32 ≥ n` parity
/// point, so accumulation memory tracks the final relation's instead of
/// the worst-case `SCCs × |V|` bits. Dense products therefore degrade
/// gracefully instead of hitting a hard cap and falling back to
/// `O(|V| · |E_Π|)` per-source sweeps.
pub fn rpq_relation_closure_blocked<G: GraphView>(
    g: &G,
    nfa: &Nfa,
    block_budget_bits: usize,
) -> Relation {
    let n = g.num_nodes();
    let ns = nfa.num_states();
    let pn = n * ns;
    let mut rel = Relation::empty(n);
    if pn == 0 {
        return rel;
    }
    assert!(
        pn <= u32::MAX as usize,
        "product graph exceeds u32 node ids — shard the graph"
    );

    // Product-graph CSR, laid out as product node `v·ns + q`.
    let mut off = vec![0usize; pn + 1];
    for v in 0..n {
        for q in 0..ns {
            let mut deg = 0;
            for &(sym, _) in nfa.transitions_from(q as StateId) {
                deg += g.out_degree(NodeId(v as u32), sym);
            }
            off[v * ns + q + 1] = deg;
        }
    }
    for i in 0..pn {
        off[i + 1] += off[i];
    }
    let mut adj = vec![0u32; off[pn]];
    let mut cursor = off.clone();
    for v in 0..n {
        for q in 0..ns {
            let p = v * ns + q;
            for &(sym, q2) in nfa.transitions_from(q as StateId) {
                for w in g.successors(NodeId(v as u32), sym) {
                    adj[cursor[p]] = (w.index() * ns) as u32 + q2;
                    cursor[p] += 1;
                }
            }
        }
    }

    // Phase 1 — iterative Tarjan. `scc_row[id]` is the SCC's row id —
    // shared with its single successor when the SCC contributes nothing of
    // its own. Claimed rows record their recipe in flat CSR form
    // (`row_succs` / `row_bases`). A product node is *on the Tarjan stack*
    // iff it has an index but no SCC yet, so no separate on-stack set is
    // needed.
    const UNSET: u32 = u32::MAX;
    let mut zero_row: Option<u32> = None;
    let mut scc_row: Vec<u32> = Vec::new();
    let mut row_succ_off: Vec<u32> = vec![0];
    let mut row_succs: Vec<u32> = Vec::new();
    let mut row_base_off: Vec<u32> = vec![0];
    let mut row_bases: Vec<u32> = Vec::new();
    let mut index = vec![UNSET; pn];
    let mut lowlink = vec![0u32; pn];
    let mut scc_id = vec![UNSET; pn];
    let mut stack: Vec<u32> = Vec::new();
    let mut call: Vec<(u32, usize)> = Vec::new();
    let mut next_index = 0u32;
    let mut members: Vec<u32> = Vec::new();
    let mut succ_rows: Vec<u32> = Vec::new();

    for start in 0..pn as u32 {
        if index[start as usize] != UNSET {
            continue;
        }
        index[start as usize] = next_index;
        lowlink[start as usize] = next_index;
        next_index += 1;
        stack.push(start);
        call.push((start, off[start as usize]));
        'dfs: while let Some(&mut (v, ref mut ei_slot)) = call.last_mut() {
            let v = v as usize;
            // Drain v's edges with locally cached cursor and lowlink.
            let mut ei = *ei_slot;
            let end = off[v + 1];
            let mut low = lowlink[v];
            while ei < end {
                let w = adj[ei] as usize;
                ei += 1;
                if index[w] == UNSET {
                    // Recurse into w.
                    *ei_slot = ei;
                    lowlink[v] = low;
                    index[w] = next_index;
                    lowlink[w] = next_index;
                    next_index += 1;
                    stack.push(w as u32);
                    call.push((w as u32, off[w]));
                    continue 'dfs;
                }
                if scc_id[w] == UNSET && index[w] < low {
                    low = index[w]; // w is on the stack: lowlink update
                }
            }
            lowlink[v] = low;
            call.pop();
            if let Some(&mut (p, _)) = call.last_mut() {
                let p = p as usize;
                lowlink[p] = lowlink[p].min(low);
            }
            if low != index[v] {
                continue;
            }
            // `v` roots an SCC: pop it, gather its distinct successor rows
            // and base points, then either share the single successor row
            // or claim a fresh one with the merge recipe.
            let id = scc_row.len() as u32;
            members.clear();
            loop {
                let w = stack.pop().unwrap(); // invariant: the loop guard keeps the stack non-empty
                scc_id[w as usize] = id;
                members.push(w);
                if w as usize == v {
                    break;
                }
            }
            succ_rows.clear();
            let mut has_base = false;
            for &m in &members {
                let m = m as usize;
                has_base |= nfa.is_final((m % ns) as StateId);
                for e in off[m]..off[m + 1] {
                    let tid = scc_id[adj[e] as usize];
                    debug_assert_ne!(tid, UNSET, "successor SCC must be popped first");
                    if tid != id {
                        let row = scc_row[tid as usize];
                        if !succ_rows.contains(&row) {
                            succ_rows.push(row);
                        }
                    }
                }
            }
            let row = if !has_base && succ_rows.len() == 1 {
                succ_rows[0]
            } else if !has_base && succ_rows.is_empty() {
                match zero_row {
                    Some(r) => r,
                    None => {
                        // Claim one shared empty-recipe row for "reaches
                        // nothing".
                        let r = (row_succ_off.len() - 1) as u32;
                        row_succ_off.push(row_succs.len() as u32);
                        row_base_off.push(row_bases.len() as u32);
                        zero_row = Some(r);
                        r
                    }
                }
            } else {
                let r = (row_succ_off.len() - 1) as u32;
                row_succs.extend_from_slice(&succ_rows);
                row_succ_off.push(row_succs.len() as u32);
                for &m in &members {
                    let m = m as usize;
                    if nfa.is_final((m % ns) as StateId) {
                        row_bases.push((m / ns) as u32);
                    }
                }
                row_base_off.push(row_bases.len() as u32);
                r
            };
            scc_row.push(row);
        }
    }

    // Phase 2 — replay the recipes per column block.
    let rows = row_succ_off.len() - 1;
    let words_total = n.div_ceil(64);
    let budget_words = (block_budget_bits / 64).max(1);
    let block_words = (budget_words / rows.max(1)).clamp(1, words_total.max(1));
    let single_block = block_words >= words_total;
    let initials: Vec<usize> = nfa.initials().iter().collect();

    /// Per-source row accumulator for the multi-block path.
    enum Accum {
        Ids(Vec<u32>),
        Bits(BitSet),
    }
    let mut acc: Vec<Accum> = if single_block {
        Vec::new()
    } else {
        (0..n).map(|_| Accum::Ids(Vec::new())).collect()
    };
    let mut matrix = vec![0u64; rows * block_words];
    // Sized whenever the single-initial fast path does not apply — that
    // includes zero initial states (empty language), where the all-zero
    // buffer is exactly the right row.
    let mut union_buf = vec![0u64; if initials.len() == 1 { 0 } else { block_words }];
    let mut idbuf: Vec<u32> = Vec::new();
    let mut wlo = 0usize;
    while wlo < words_total {
        let bw = block_words.min(words_total - wlo);
        let (col_lo, col_hi) = (wlo * 64, ((wlo + bw) * 64).min(n));
        matrix[..rows * bw].iter_mut().for_each(|w| *w = 0);
        for r in 0..rows {
            let (head, tail) = matrix.split_at_mut(r * bw);
            let dst = &mut tail[..bw];
            for &s in &row_succs[row_succ_off[r] as usize..row_succ_off[r + 1] as usize] {
                let src = &head[s as usize * bw..(s as usize + 1) * bw];
                for (d, &w) in dst.iter_mut().zip(src) {
                    *d |= w;
                }
            }
            for &b in &row_bases[row_base_off[r] as usize..row_base_off[r + 1] as usize] {
                let b = b as usize;
                if (col_lo..col_hi).contains(&b) {
                    let bit = b - col_lo;
                    dst[bit / 64] |= 1u64 << (bit % 64);
                }
            }
        }
        for v in 0..n {
            let words: &[u64] = if let [q0] = initials[..] {
                let r = scc_row[scc_id[v * ns + q0] as usize] as usize;
                &matrix[r * bw..(r + 1) * bw]
            } else {
                union_buf[..bw].iter_mut().for_each(|w| *w = 0);
                for &q0 in &initials {
                    let r = scc_row[scc_id[v * ns + q0] as usize] as usize;
                    for (d, &w) in union_buf[..bw]
                        .iter_mut()
                        .zip(&matrix[r * bw..(r + 1) * bw])
                    {
                        *d |= w;
                    }
                }
                &union_buf[..bw]
            };
            if single_block {
                rel.set_forward_row_words(NodeId(v as u32), words, &mut idbuf);
                continue;
            }
            let add: usize = words.iter().map(|w| w.count_ones() as usize).sum();
            if add == 0 {
                continue;
            }
            let a = &mut acc[v];
            if let Accum::Ids(ids) = a {
                if dense_row(ids.len() + add, n) {
                    let mut bits = BitSet::new(n);
                    for &id in ids.iter() {
                        bits.insert(id as usize);
                    }
                    *a = Accum::Bits(bits);
                }
            }
            match a {
                Accum::Ids(ids) => {
                    for (wi, &w) in words.iter().enumerate() {
                        let mut w = w;
                        while w != 0 {
                            ids.push(((wlo + wi) * 64) as u32 + w.trailing_zeros());
                            w &= w - 1;
                        }
                    }
                }
                Accum::Bits(bits) => bits.or_words_at(wlo, words),
            }
        }
        wlo += bw;
    }
    if !single_block {
        for (v, a) in acc.into_iter().enumerate() {
            match a {
                Accum::Ids(ids) => rel.set_forward_row_ids(NodeId(v as u32), &ids),
                Accum::Bits(bits) => rel.set_forward_row_bits(NodeId(v as u32), bits),
            }
        }
    }
    rel.finish_reverse();
    rel
}

/// Whether some (arbitrary) path from `src` to `dst` has its label in
/// `L(nfa)` — standard-semantics RPQ matching.
pub fn rpq_exists<G: GraphView>(g: &G, nfa: &Nfa, src: NodeId, dst: NodeId) -> bool {
    rpq_reach(g, nfa, src).contains(dst.index())
}

/// A **shortest** (arbitrary, possibly node-repeating) path from `src` to
/// `dst` whose label is in `L(nfa)`, as its node sequence, or `None` when no
/// such path exists. The empty path `[src]` is returned when `src == dst`
/// and `ε ∈ L(nfa)`.
///
/// BFS over the product of the graph with the NFA, with parent pointers —
/// the constructive counterpart of [`rpq_exists`] used for standard-semantics
/// witness extraction.
pub fn shortest_path<G: GraphView>(
    g: &G,
    nfa: &Nfa,
    src: NodeId,
    dst: NodeId,
) -> Option<Vec<NodeId>> {
    if src == dst && nfa.accepts_epsilon() {
        return Some(vec![src]);
    }
    let ns = nfa.num_states();
    let flat = |v: NodeId, q: u32| v.index() * ns + q as usize;
    let mut parent: Vec<Option<(NodeId, u32)>> = vec![None; g.num_nodes() * ns];
    let mut visited = BitSet::new(g.num_nodes() * ns);
    let mut queue: VecDeque<(NodeId, u32)> = VecDeque::new();
    for q in nfa.initials().iter() {
        if visited.insert(flat(src, q as u32)) {
            queue.push_back((src, q as u32));
        }
    }
    while let Some((v, q)) = queue.pop_front() {
        for &(sym, q2) in nfa.transitions_from(q) {
            for to in g.successors(v, sym) {
                if visited.insert(flat(to, q2)) {
                    parent[flat(to, q2)] = Some((v, q));
                    if to == dst && nfa.is_final(q2) {
                        // Reconstruct the node sequence.
                        let mut path = vec![to];
                        let mut cur = (to, q2);
                        while let Some(prev) = parent[flat(cur.0, cur.1)] {
                            path.push(prev.0);
                            cur = prev;
                        }
                        path.reverse();
                        return Some(path);
                    }
                    queue.push_back((to, q2));
                }
            }
        }
    }
    None
}

/// All pairs `(u, v)` related by the RPQ under standard semantics.
pub fn rpq_pairs<G: GraphView>(g: &G, nfa: &Nfa) -> Vec<(NodeId, NodeId)> {
    rpq_relation(g, nfa, &mut ReachScratch::new())
        .iter()
        .collect()
}

/// Whether a **simple path** from `src` to `dst` (all nodes pairwise
/// distinct) has its label in `L(nfa)`, with no internal node in `blocked`.
///
/// When `src == dst` the only simple path is the empty one, so the answer is
/// `ε ∈ L(nfa)`.
pub fn simple_path_exists<G: GraphView>(
    g: &G,
    nfa: &Nfa,
    src: NodeId,
    dst: NodeId,
    blocked: &BitSet,
) -> bool {
    let mut found = false;
    for_each_simple_path(g, nfa, src, dst, blocked, |_| {
        found = true;
        ControlFlow::Break(())
    });
    found
}

/// Enumerates simple paths from `src` to `dst` with label in `L(nfa)` whose
/// internal nodes avoid `blocked`, invoking `visit` with the node sequence
/// (including both endpoints; the empty path yields `[src]`).
///
/// The same node sequence may be visited more than once if parallel edges
/// with different labels both complete an accepting run. Returns `true` if
/// enumeration ran to completion (no early break).
pub fn for_each_simple_path<G, F>(
    g: &G,
    nfa: &Nfa,
    src: NodeId,
    dst: NodeId,
    blocked: &BitSet,
    mut visit: F,
) -> bool
where
    G: GraphView,
    F: FnMut(&[NodeId]) -> ControlFlow<()>,
{
    if src == dst {
        // The empty path is the only simple path from a node to itself.
        if nfa.accepts_epsilon() {
            return visit(&[src]).is_continue();
        }
        return true;
    }
    let useful = nfa.useful_states();
    let mut initial = nfa.initials().clone();
    initial.intersect_with(&useful);
    if initial.is_empty() {
        return true;
    }
    let mut visited = g.node_set();
    visited.insert(src.index());
    let mut path = vec![src];
    dfs_simple(
        g,
        nfa,
        dst,
        blocked,
        &useful,
        &mut visited,
        &mut path,
        initial,
        &mut visit,
    )
    .is_continue()
}

fn dfs_simple<G, F>(
    g: &G,
    nfa: &Nfa,
    dst: NodeId,
    blocked: &BitSet,
    useful: &BitSet,
    visited: &mut BitSet,
    path: &mut Vec<NodeId>,
    states: BitSet,
    visit: &mut F,
) -> ControlFlow<()>
where
    G: GraphView,
    F: FnMut(&[NodeId]) -> ControlFlow<()>,
{
    let here = *path.last().unwrap(); // invariant: path starts seeded with the source
    for (sym, to) in g.out_edges_iter(here) {
        if to == dst {
            let image = nfa.delta_set(&states, sym);
            if image.intersects(nfa.finals()) {
                path.push(to);
                let flow = visit(path);
                path.pop();
                flow?;
            }
            continue;
        }
        if visited.contains(to.index()) || blocked.contains(to.index()) {
            continue;
        }
        let mut image = nfa.delta_set(&states, sym);
        image.intersect_with(useful);
        if image.is_empty() {
            continue;
        }
        visited.insert(to.index());
        path.push(to);
        let flow = dfs_simple(g, nfa, dst, blocked, useful, visited, path, image, visit);
        path.pop();
        visited.remove(to.index());
        flow?;
    }
    ControlFlow::Continue(())
}

/// Whether a **simple cycle** at `at` (internal nodes pairwise distinct and
/// different from `at`) has its label in `L(nfa)`, with no internal node in
/// `blocked`. The empty cycle counts iff `ε ∈ L(nfa)`.
pub fn simple_cycle_exists<G: GraphView>(g: &G, nfa: &Nfa, at: NodeId, blocked: &BitSet) -> bool {
    let mut found = false;
    for_each_simple_cycle(g, nfa, at, blocked, |_| {
        found = true;
        ControlFlow::Break(())
    });
    found
}

/// Enumerates simple cycles at `at` with label in `L(nfa)`, visiting the node
/// sequence `[at, …, at]` (the empty cycle yields `[at]`).
/// Returns `true` if enumeration completed.
pub fn for_each_simple_cycle<G, F>(
    g: &G,
    nfa: &Nfa,
    at: NodeId,
    blocked: &BitSet,
    mut visit: F,
) -> bool
where
    G: GraphView,
    F: FnMut(&[NodeId]) -> ControlFlow<()>,
{
    if nfa.accepts_epsilon() && visit(&[at]).is_break() {
        return false;
    }
    let useful = nfa.useful_states();
    let mut initial = nfa.initials().clone();
    initial.intersect_with(&useful);
    if initial.is_empty() {
        return true;
    }
    let mut visited = g.node_set();
    visited.insert(at.index());
    let mut path = vec![at];
    dfs_cycle(
        g,
        nfa,
        at,
        blocked,
        &useful,
        &mut visited,
        &mut path,
        initial,
        &mut visit,
    )
    .is_continue()
}

fn dfs_cycle<G, F>(
    g: &G,
    nfa: &Nfa,
    at: NodeId,
    blocked: &BitSet,
    useful: &BitSet,
    visited: &mut BitSet,
    path: &mut Vec<NodeId>,
    states: BitSet,
    visit: &mut F,
) -> ControlFlow<()>
where
    G: GraphView,
    F: FnMut(&[NodeId]) -> ControlFlow<()>,
{
    let here = *path.last().unwrap(); // invariant: path starts seeded with the source
    for (sym, to) in g.out_edges_iter(here) {
        if to == at {
            let image = nfa.delta_set(&states, sym);
            if image.intersects(nfa.finals()) {
                path.push(to);
                let flow = visit(path);
                path.pop();
                flow?;
            }
            continue;
        }
        if visited.contains(to.index()) || blocked.contains(to.index()) {
            continue;
        }
        let mut image = nfa.delta_set(&states, sym);
        image.intersect_with(useful);
        if image.is_empty() {
            continue;
        }
        visited.insert(to.index());
        path.push(to);
        let flow = dfs_cycle(g, nfa, at, blocked, useful, visited, path, image, visit);
        path.pop();
        visited.remove(to.index());
        flow?;
    }
    ControlFlow::Continue(())
}

/// A labelled edge occurrence, the unit of trail (edge-injective) search.
pub type Edge = (NodeId, Symbol, NodeId);

/// Whether a **trail** (no repeated edge) from `src` to `dst` has its label
/// in `L(nfa)`. Edge-injective analogue of [`simple_path_exists`]
/// (paper §7 outlook).
pub fn trail_exists<G: GraphView>(g: &G, nfa: &Nfa, src: NodeId, dst: NodeId) -> bool {
    let mut found = false;
    for_each_trail(g, nfa, src, dst, &FxHashSet::default(), |_| {
        found = true;
        ControlFlow::Break(())
    });
    found
}

/// Enumerates trails from `src` to `dst` with label in `L(nfa)`, avoiding
/// the edges in `blocked`. `visit` receives the edge sequence (the empty
/// trail — when `src == dst` and `ε ∈ L` — yields `[]`). A trail from a
/// node to itself with `src == dst` is a *closed trail*. Returns `true`
/// if enumeration ran to completion.
///
/// The same edge sequence is visited at most once; unlike simple paths,
/// trails may revisit nodes, so the search space is bounded by `|E|!` in
/// the worst case — callers should bound `g` accordingly.
pub fn for_each_trail<G, F>(
    g: &G,
    nfa: &Nfa,
    src: NodeId,
    dst: NodeId,
    blocked: &FxHashSet<Edge>,
    mut visit: F,
) -> bool
where
    G: GraphView,
    F: FnMut(&[Edge]) -> ControlFlow<()>,
{
    if src == dst && nfa.accepts_epsilon() && visit(&[]).is_break() {
        return false;
    }
    let useful = nfa.useful_states();
    let mut initial = nfa.initials().clone();
    initial.intersect_with(&useful);
    if initial.is_empty() {
        return true;
    }
    let mut used: FxHashSet<Edge> = FxHashSet::default();
    let mut path: Vec<Edge> = Vec::new();
    dfs_trail(
        g, nfa, src, dst, &useful, blocked, &mut used, &mut path, initial, &mut visit,
    )
    .is_continue()
}

fn dfs_trail<G, F>(
    g: &G,
    nfa: &Nfa,
    here: NodeId,
    dst: NodeId,
    useful: &BitSet,
    blocked: &FxHashSet<Edge>,
    used: &mut FxHashSet<Edge>,
    path: &mut Vec<Edge>,
    states: BitSet,
    visit: &mut F,
) -> ControlFlow<()>
where
    G: GraphView,
    F: FnMut(&[Edge]) -> ControlFlow<()>,
{
    for (sym, to) in g.out_edges_iter(here) {
        let edge = (here, sym, to);
        if used.contains(&edge) || blocked.contains(&edge) {
            continue;
        }
        let mut image = nfa.delta_set(&states, sym);
        image.intersect_with(useful);
        if image.is_empty() {
            continue;
        }
        if to == dst && image.intersects(nfa.finals()) {
            path.push(edge);
            let flow = visit(path);
            path.pop();
            flow?;
        }
        used.insert(edge);
        path.push(edge);
        let flow = dfs_trail(g, nfa, to, dst, useful, blocked, used, path, image, visit);
        path.pop();
        used.remove(&edge);
        flow?;
    }
    ControlFlow::Continue(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::db::{GraphBuilder, GraphDb};
    use crpq_automata::parse_regex;

    /// Builds the graph and an NFA over its alphabet.
    fn setup(edges: &[(&str, &str, &str)], expr: &str) -> (GraphDb, Nfa) {
        let mut b = GraphBuilder::new();
        for &(u, l, v) in edges {
            b.edge(u, l, v);
        }
        let mut g = b.finish();
        let regex = parse_regex(expr, g.alphabet_mut()).unwrap();
        let nfa = Nfa::from_regex(&regex);
        (g, nfa)
    }

    fn n(g: &GraphDb, name: &str) -> NodeId {
        g.node_by_name(name).unwrap()
    }

    #[test]
    fn standard_rpq_on_chain() {
        let (g, nfa) = setup(&[("u", "a", "v"), ("v", "a", "w")], "a a*");
        assert!(rpq_exists(&g, &nfa, n(&g, "u"), n(&g, "v")));
        assert!(rpq_exists(&g, &nfa, n(&g, "u"), n(&g, "w")));
        assert!(!rpq_exists(&g, &nfa, n(&g, "w"), n(&g, "u")));
        assert!(
            !rpq_exists(&g, &nfa, n(&g, "u"), n(&g, "u")),
            "a+ needs 1+ edges"
        );
    }

    #[test]
    fn standard_rpq_epsilon() {
        let (g, nfa) = setup(&[("u", "a", "v")], "a*");
        assert!(rpq_exists(&g, &nfa, n(&g, "u"), n(&g, "u")), "ε path");
        let pairs = rpq_pairs(&g, &nfa);
        assert_eq!(pairs.len(), 3); // (u,u), (u,v), (v,v)
    }

    #[test]
    fn standard_rpq_uses_non_simple_paths() {
        // u -a-> m -b-> u (cycle), m -b-> v requires repeating m for abab…
        // Language (a b)(a b): u→m→u→?: needs path of label abab from u to v:
        // u a m b u a m b v? v edge: u -a-> m, m -b-> u, m -b-> v won't need repeat…
        // Make it explicit: only walk u a m b u a m b v exists for (ab)^2 if
        // m -b-> v and we must go around once.
        let (g, nfa) = setup(
            &[("u", "a", "m"), ("m", "b", "u"), ("m", "b", "v")],
            "(a b)(a b)",
        );
        // abab from u to v: u a m b u a m b v — repeats u and m.
        assert!(rpq_exists(&g, &nfa, n(&g, "u"), n(&g, "v")));
        // No simple path with that label:
        assert!(!simple_path_exists(
            &g,
            &nfa,
            n(&g, "u"),
            n(&g, "v"),
            &g.node_set()
        ));
    }

    #[test]
    fn simple_path_basic() {
        let (g, nfa) = setup(&[("u", "a", "v"), ("v", "b", "w")], "a b");
        assert!(simple_path_exists(
            &g,
            &nfa,
            n(&g, "u"),
            n(&g, "w"),
            &g.node_set()
        ));
        assert!(!simple_path_exists(
            &g,
            &nfa,
            n(&g, "u"),
            n(&g, "v"),
            &g.node_set()
        ));
    }

    #[test]
    fn simple_path_respects_blocked() {
        let (g, nfa) = setup(
            &[
                ("u", "a", "v"),
                ("v", "a", "w"),
                ("u", "a", "x"),
                ("x", "a", "w"),
            ],
            "a a",
        );
        let mut blocked = g.node_set();
        assert!(simple_path_exists(
            &g,
            &nfa,
            n(&g, "u"),
            n(&g, "w"),
            &blocked
        ));
        blocked.insert(n(&g, "v").index());
        assert!(
            simple_path_exists(&g, &nfa, n(&g, "u"), n(&g, "w"), &blocked),
            "x route"
        );
        blocked.insert(n(&g, "x").index());
        assert!(!simple_path_exists(
            &g,
            &nfa,
            n(&g, "u"),
            n(&g, "w"),
            &blocked
        ));
    }

    #[test]
    fn simple_path_same_endpoints_needs_epsilon() {
        let (g, nfa) = setup(&[("u", "a", "v"), ("v", "a", "u")], "a a");
        // Nonempty simple path u→u impossible (u would repeat).
        assert!(!simple_path_exists(
            &g,
            &nfa,
            n(&g, "u"),
            n(&g, "u"),
            &g.node_set()
        ));
        let (g2, star) = setup(&[("u", "a", "v")], "a*");
        assert!(simple_path_exists(
            &g2,
            &star,
            n(&g2, "u"),
            n(&g2, "u"),
            &g2.node_set()
        ));
    }

    #[test]
    fn simple_cycle_detection() {
        let (g, nfa) = setup(&[("u", "a", "v"), ("v", "a", "u")], "a a");
        assert!(simple_cycle_exists(&g, &nfa, n(&g, "u"), &g.node_set()));
        // Blocking the only intermediate kills the cycle.
        let mut blocked = g.node_set();
        blocked.insert(n(&g, "v").index());
        assert!(!simple_cycle_exists(&g, &nfa, n(&g, "u"), &blocked));
    }

    #[test]
    fn simple_cycle_self_loop_and_epsilon() {
        let (g, nfa) = setup(&[("u", "a", "u")], "a");
        assert!(simple_cycle_exists(&g, &nfa, n(&g, "u"), &g.node_set()));
        let (g2, star) = setup(&[("u", "a", "v")], "b*");
        // ε-cycle counts:
        assert!(simple_cycle_exists(&g2, &star, n(&g2, "u"), &g2.node_set()));
        let (g3, plus) = setup(&[("u", "a", "v")], "b b*");
        assert!(!simple_cycle_exists(
            &g3,
            &plus,
            n(&g3, "u"),
            &g3.node_set()
        ));
    }

    #[test]
    fn cycle_does_not_reuse_internal_node() {
        // u -a-> v -a-> u and v -a-> w -a-> v: cycle of length 4 through v twice
        // is not simple; aaaa should not be found, but aa should.
        let (g, four) = setup(
            &[
                ("u", "a", "v"),
                ("v", "a", "u"),
                ("v", "a", "w"),
                ("w", "a", "v"),
            ],
            "a a a a",
        );
        assert!(!simple_cycle_exists(&g, &four, n(&g, "u"), &g.node_set()));
        let mut it = crpq_util::Interner::new();
        it.intern("a");
        let two = Nfa::from_regex(&parse_regex("a a", &mut it).unwrap());
        assert!(simple_cycle_exists(&g, &two, n(&g, "u"), &g.node_set()));
    }

    #[test]
    fn path_enumeration_collects_sequences() {
        let (g, nfa) = setup(
            &[
                ("u", "a", "v"),
                ("v", "a", "w"),
                ("u", "a", "x"),
                ("x", "a", "w"),
            ],
            "a a",
        );
        let mut paths = Vec::new();
        for_each_simple_path(&g, &nfa, n(&g, "u"), n(&g, "w"), &g.node_set(), |p| {
            paths.push(p.to_vec());
            ControlFlow::Continue(())
        });
        assert_eq!(paths.len(), 2);
        for p in &paths {
            assert_eq!(p.len(), 3);
            assert_eq!(p[0], n(&g, "u"));
            assert_eq!(p[2], n(&g, "w"));
        }
    }

    #[test]
    fn trails_allow_repeated_nodes_not_edges() {
        // Figure-of-eight at m: u a m, m b m', m' c m, m d v — trail abcd
        // revisits m but no edge.
        let (g, nfa) = setup(
            &[
                ("u", "a", "m"),
                ("m", "b", "m2"),
                ("m2", "c", "m"),
                ("m", "d", "v"),
            ],
            "a b c d",
        );
        assert!(trail_exists(&g, &nfa, n(&g, "u"), n(&g, "v")));
        assert!(!simple_path_exists(
            &g,
            &nfa,
            n(&g, "u"),
            n(&g, "v"),
            &g.node_set()
        ));
        // aa over a single a-edge would repeat the edge:
        let (g2, aa) = setup(&[("u", "a", "v"), ("v", "a", "u")], "a a a");
        assert!(!trail_exists(&g2, &aa, n(&g2, "u"), n(&g2, "v")));
    }

    #[test]
    fn empty_language_matches_nothing() {
        let (g, nfa) = setup(&[("u", "a", "v")], "∅");
        assert!(!rpq_exists(&g, &nfa, n(&g, "u"), n(&g, "v")));
        assert!(!simple_path_exists(
            &g,
            &nfa,
            n(&g, "u"),
            n(&g, "v"),
            &g.node_set()
        ));
        assert!(!trail_exists(&g, &nfa, n(&g, "u"), n(&g, "v")));
    }

    #[test]
    fn shortest_path_on_chain_is_shortest() {
        // Two routes u→w: direct (a) and via v (a a); `a a* ` shortest is 1.
        let (g, nfa) = setup(&[("u", "a", "v"), ("v", "a", "w"), ("u", "a", "w")], "a a*");
        let p = shortest_path(&g, &nfa, n(&g, "u"), n(&g, "w")).unwrap();
        assert_eq!(p, vec![n(&g, "u"), n(&g, "w")]);
    }

    #[test]
    fn shortest_path_respects_language() {
        // Language forces exactly two a's, so the direct edge is not usable.
        let (g, nfa) = setup(&[("u", "a", "v"), ("v", "a", "w"), ("u", "a", "w")], "a a");
        let p = shortest_path(&g, &nfa, n(&g, "u"), n(&g, "w")).unwrap();
        assert_eq!(p, vec![n(&g, "u"), n(&g, "v"), n(&g, "w")]);
        assert!(shortest_path(&g, &nfa, n(&g, "w"), n(&g, "u")).is_none());
    }

    #[test]
    fn shortest_path_epsilon_and_cycles() {
        let (g, nfa) = setup(&[("u", "a", "v"), ("v", "a", "u")], "a*");
        // ε: the empty path.
        assert_eq!(
            shortest_path(&g, &nfa, n(&g, "u"), n(&g, "u")).unwrap(),
            vec![n(&g, "u")]
        );
        // Non-ε cycle: a a back to u.
        let (g2, plus) = setup(&[("u", "a", "v"), ("v", "a", "u")], "a a* a");
        let p = shortest_path(&g2, &plus, n(&g2, "u"), n(&g2, "u")).unwrap();
        assert_eq!(p, vec![n(&g2, "u"), n(&g2, "v"), n(&g2, "u")]);
    }

    #[test]
    fn relation_matches_per_source_reach() {
        let (g, nfa) = setup(
            &[
                ("u", "a", "v"),
                ("v", "b", "w"),
                ("w", "a", "u"),
                ("v", "a", "v"),
            ],
            "(a+b)(a+b)*",
        );
        let mut scratch = ReachScratch::new();
        let rel = rpq_relation(&g, &nfa, &mut scratch);
        for src in g.nodes() {
            let direct = rpq_reach(&g, &nfa, src);
            for dst in g.nodes() {
                assert_eq!(
                    rel.contains(src, dst),
                    direct.contains(dst.index()),
                    "{src:?}→{dst:?}"
                );
                assert_eq!(
                    rel.contains(src, dst),
                    rel.backward(dst).contains(src.index())
                );
            }
        }
        assert_eq!(rel.len(), rel.iter().count());
    }

    #[test]
    fn scratch_reuse_is_clean_across_automata() {
        // Reusing one scratch across different NFAs / sweeps must not leak
        // visited state between calls.
        let (g, ab) = setup(&[("u", "a", "v"), ("v", "b", "w")], "a b");
        let mut it = crpq_util::Interner::new();
        it.intern("a");
        it.intern("b");
        let just_a = Nfa::from_regex(&crpq_automata::parse_regex("a", &mut it).unwrap());
        let mut scratch = ReachScratch::new();
        let mut out = g.node_set();
        for _ in 0..3 {
            rpq_reach_with(&g, &ab, n(&g, "u"), &mut scratch, &mut out);
            assert_eq!(out.iter().collect::<Vec<_>>(), vec![n(&g, "w").index()]);
            rpq_reach_with(&g, &just_a, n(&g, "u"), &mut scratch, &mut out);
            assert_eq!(out.iter().collect::<Vec<_>>(), vec![n(&g, "v").index()]);
        }
    }

    #[test]
    fn backward_reach_matches_reversed_graph() {
        let (g, nfa) = setup(
            &[
                ("u", "a", "v"),
                ("v", "b", "w"),
                ("w", "a", "u"),
                ("v", "a", "v"),
            ],
            "a (a+b)*",
        );
        let g_rev = g.reversed();
        let nfa_rev = nfa.reverse();
        for dst in g.nodes() {
            assert_eq!(
                rpq_reach_back(&g, &nfa_rev, dst),
                rpq_reach(&g_rev, &nfa_rev, dst),
                "backward reach mismatch at {dst:?}"
            );
        }
    }

    #[test]
    fn relation_source_and_target_sets() {
        let (g, nfa) = setup(&[("u", "a", "v"), ("w", "a", "v")], "a");
        let rel = rpq_relation(&g, &nfa, &mut ReachScratch::new());
        let (u, v, w) = (n(&g, "u"), n(&g, "v"), n(&g, "w"));
        assert_eq!(
            rel.source_set().iter().collect::<Vec<_>>(),
            vec![u.index(), w.index()]
        );
        assert_eq!(rel.target_set().iter().collect::<Vec<_>>(), vec![v.index()]);
        assert_eq!(rel.len(), 2);
        assert!(!rel.is_empty());
    }

    #[test]
    fn adaptive_rows_switch_representation() {
        // 40-node a-path: every forward row of the single-step relation has
        // ≤ 1 entry, far below the n/32 density threshold → sparse.
        let mut g = crate::generators::labelled_path(40, &["a"]);
        let regex = crpq_automata::parse_regex("a", g.alphabet_mut()).unwrap();
        let nfa = Nfa::from_regex(&regex);
        let rel = rpq_relation(&g, &nfa, &mut ReachScratch::new());
        assert!(rel.forward(NodeId(0)).iter().eq([1usize]));
        assert!(!rel.forward(NodeId(0)).is_dense());
        assert!((rel.dense_row_fraction() - 0.0).abs() < 1e-9);
        // a* on the same path: row of node 0 holds all 40 nodes → dense.
        let star = crpq_automata::parse_regex("a*", g.alphabet_mut()).unwrap();
        let rel = rpq_relation(&g, &Nfa::from_regex(&star), &mut ReachScratch::new());
        assert!(rel.forward(NodeId(0)).is_dense());
        assert_eq!(rel.forward(NodeId(0)).len(), 40);
        assert!(rel.contains(NodeId(0), NodeId(39)));
        assert!(!rel.contains(NodeId(39), NodeId(0)));
    }

    #[test]
    fn parallel_relation_matches_sequential() {
        let mut g = crate::generators::random_graph(37, 120, &["a", "b"], 5);
        let regex = crpq_automata::parse_regex("a (a+b)*", g.alphabet_mut()).unwrap();
        let nfa = Nfa::from_regex(&regex);
        let seq = rpq_relation(&g, &nfa, &mut ReachScratch::new());
        for threads in [1, 3, 8] {
            let par = rpq_relation_parallel(&g, &nfa, threads);
            assert_eq!(seq, par, "threads = {threads}");
        }
        assert_eq!(
            seq.source_set(),
            rpq_relation_parallel(&g, &nfa, 0).source_set()
        );
    }

    #[test]
    fn closure_relation_matches_per_source() {
        for (seed, expr) in [
            (3u64, "a (a+b)*"),
            (9, "(a b)*"),
            (11, "b* a"),
            (17, "(a+b)(a+b)"),
            (23, "∅"),
            (29, "a*"),
        ] {
            let mut g = crate::generators::random_graph(23, 70, &["a", "b"], seed);
            let regex = crpq_automata::parse_regex(expr, g.alphabet_mut()).unwrap();
            let nfa = Nfa::from_regex(&regex);
            assert!(closure_fits(&g, &nfa));
            let closure = rpq_relation_closure(&g, &nfa);
            let per_source = rpq_relation(&g, &nfa, &mut ReachScratch::new());
            assert_eq!(closure, per_source, "seed {seed} expr {expr}");
            let auto = rpq_relation_auto(&g, &nfa, &mut ReachScratch::new(), 1);
            assert_eq!(auto, per_source, "seed {seed} expr {expr}");
        }
    }

    #[test]
    fn reverse_assembly_is_touched_bounded_on_million_node_graph() {
        // The O(E_rel + touched) contract of `finish_reverse`: a relation
        // over a 10⁶-node graph that touches ~10² nodes must assemble its
        // backward index in ~10² operations — no pass may scan 0..|V|.
        let n = 1_000_000;
        let mut b = crate::db::GraphBuilder::anonymous(n);
        let a = b.label("a");
        // A 128-node `a`-chain buried in the big id space (offset so the
        // touched ids are nowhere near a prefix), plus a far-away edge.
        let base = 700_000u32;
        for i in 0..128u32 {
            b.edge_ids(NodeId(base + i), a, NodeId(base + i + 1));
        }
        b.edge_ids(NodeId(12), a, NodeId(999_999));
        let g = b.finish();
        let mut it = crpq_util::Interner::new();
        it.intern("a");
        let nfa = Nfa::from_regex(&crpq_automata::parse_regex("a a*", &mut it).unwrap());

        // Sweep only the touched region (plus untouched sources, which
        // must cost nothing): ~200 sources of 10⁶ nodes.
        let sources: Vec<NodeId> = (0..64)
            .map(NodeId)
            .chain((base..base + 129).map(NodeId))
            .collect();
        let mut scratch = ReachScratch::new();
        let rel = rpq_reach_all(&g, &nfa, sources.iter().copied(), &mut scratch);
        // Chain closure: (129·128)/2 pairs + the stray edge.
        assert_eq!(rel.len(), 129 * 128 / 2 + 1);
        let ops = rel.assembly_ops();
        assert!(
            ops <= 4 * (rel.len() + 2 * 129),
            "assembly ops {ops} not O(E_rel + touched) for E_rel = {}",
            rel.len()
        );
        assert!(
            ops < 100_000,
            "assembly ops {ops} scale with |V|, not touched"
        );
        // The sweeps never visited more than the chain: the scratch must
        // have stayed on its sparse path instead of allocating a
        // |V|·|Q|-stamp dense array per worker.
        assert!(
            scratch.heap_bytes() < 1_000_000,
            "scratch grew O(|V|): {} bytes",
            scratch.heap_bytes()
        );
        // Backward rows are correct and sorted despite the compact remap.
        assert_eq!(
            rel.backward(NodeId(999_999)).iter().collect::<Vec<_>>(),
            vec![12]
        );
        let mid = rel.backward(NodeId(base + 64));
        assert_eq!(mid.len(), 64, "64 chain predecessors reach the midpoint");
        let ids: Vec<usize> = mid.iter().collect();
        assert!(ids.windows(2).all(|w| w[0] < w[1]), "column not sorted");
    }

    #[test]
    fn empty_and_lazy_rows_are_touched_bounded_at_ten_million_nodes() {
        // The PR-6 contract at 10⁷ nodes: `Relation::empty` allocates
        // nothing (no O(|V|) row table), and a relation touching ~10²
        // nodes materialises its row index lazily over the touched-id
        // remap — heap bytes and assembly ops stay O(touched), three
        // orders of magnitude below |V|.
        let n = 10_000_000;
        let empty = Relation::empty(n);
        assert_eq!(empty.len(), 0);
        assert_eq!(
            empty.heap_bytes(),
            0,
            "empty relation over 10⁷ nodes must not allocate row tables"
        );

        let mut b = crate::db::GraphBuilder::anonymous(n);
        let a = b.label("a");
        let base = 9_000_000u32;
        for i in 0..128u32 {
            b.edge_ids(NodeId(base + i), a, NodeId(base + i + 1));
        }
        b.edge_ids(NodeId(12), a, NodeId(n as u32 - 1));
        let g = b.finish();
        let mut it = crpq_util::Interner::new();
        it.intern("a");
        let nfa = Nfa::from_regex(&crpq_automata::parse_regex("a a*", &mut it).unwrap());
        let sources: Vec<NodeId> = (0..64)
            .map(NodeId)
            .chain((base..base + 129).map(NodeId))
            .collect();
        let mut scratch = ReachScratch::new();
        let rel = rpq_reach_all(&g, &nfa, sources.iter().copied(), &mut scratch);
        assert_eq!(rel.len(), 129 * 128 / 2 + 1);
        let ops = rel.assembly_ops();
        assert!(
            ops <= 4 * (rel.len() + 2 * 129),
            "assembly ops {ops} not O(E_rel + touched) for E_rel = {}",
            rel.len()
        );
        assert!(ops < 100_000, "assembly ops {ops} scale with |V|");
        // The whole relation — both directions, row index included —
        // stays within a couple hundred KB: a single O(|V|) `RowKind`
        // table alone would be 10⁷ entries.
        assert!(
            rel.heap_bytes() < 1_000_000,
            "relation heap {} B scales with |V|, not touched",
            rel.heap_bytes()
        );
        assert!(
            scratch.heap_bytes() < 1_000_000,
            "scratch grew O(|V|): {} bytes",
            scratch.heap_bytes()
        );
        // Lazy binary-search row lookup agrees with the data, touched and
        // untouched alike.
        assert_eq!(
            rel.backward(NodeId(n as u32 - 1))
                .iter()
                .collect::<Vec<_>>(),
            vec![12]
        );
        assert_eq!(rel.forward(NodeId(500_000)).len(), 0);
        assert_eq!(rel.forward(NodeId(base)).len(), 128);
    }

    #[test]
    fn many_small_sweeps_never_densify_the_scratch() {
        // 2·10⁴ sweeps over a 10⁶·|Q| product, each touching ~3 states:
        // the *union* of visits is far past the densify threshold but no
        // single sweep is. Stale map entries must be purged, not counted —
        // otherwise a long materialisation run would migrate every worker
        // to a multi-MB stamp array it never needed.
        let n = 1_000_000;
        let mut b = crate::db::GraphBuilder::anonymous(n);
        let a = b.label("a");
        for i in 0..20_000u32 {
            b.edge_ids(NodeId(i * 37), a, NodeId(i * 37 + 1));
        }
        let g = b.finish();
        let mut it = crpq_util::Interner::new();
        it.intern("a");
        let nfa = Nfa::from_regex(&crpq_automata::parse_regex("a a*", &mut it).unwrap());
        let mut scratch = ReachScratch::new();
        let mut out = Vec::new();
        for i in 0..20_000u32 {
            rpq_reach_collect(&g, &nfa, NodeId(i * 37), &mut scratch, &mut out);
            assert_eq!(out, vec![i * 37 + 1], "sweep {i}");
        }
        assert!(
            scratch.heap_bytes() < 256 * 1024,
            "scratch accumulated {} bytes over tiny sweeps",
            scratch.heap_bytes()
        );
    }

    #[test]
    fn adaptive_scratch_matches_dense_across_densities() {
        // The sparse→dense visited migration must be invisible in results:
        // run sweeps whose visit counts straddle the 1/8 threshold and
        // compare against a scratch pre-forced onto the dense path.
        for (seed, expr) in [(3u64, "a (a+b)*"), (9, "(a b)*"), (29, "a*")] {
            let mut g = crate::generators::random_graph(500, 2000, &["a", "b"], seed);
            let regex = crpq_automata::parse_regex(expr, g.alphabet_mut()).unwrap();
            let nfa = Nfa::from_regex(&regex);
            let mut fresh = ReachScratch::new(); // starts sparse
            let mut out = Vec::new();
            let mut expected = Vec::new();
            for src in g.nodes() {
                rpq_reach_collect(&g, &nfa, src, &mut fresh, &mut out);
                // A brand-new scratch per sweep can also migrate, but at a
                // different point in its lifetime; both must agree.
                rpq_reach_collect(&g, &nfa, src, &mut ReachScratch::new(), &mut expected);
                assert_eq!(out, expected, "seed {seed} expr {expr} src {src:?}");
            }
        }
    }

    #[test]
    fn scratch_shrink_to_releases_and_stays_usable() {
        let mut g = crate::generators::labelled_cycle(2048, &["a"]);
        let star = crpq_automata::parse_regex("a*", g.alphabet_mut()).unwrap();
        let nfa = Nfa::from_regex(&star);
        let mut scratch = ReachScratch::new();
        let mut out = Vec::new();
        rpq_reach_collect(&g, &nfa, NodeId(0), &mut scratch, &mut out);
        assert_eq!(out.len(), 2048);
        let grown = scratch.heap_bytes();
        assert!(grown >= 2048 * 4, "cycle sweep should have gone dense");
        scratch.shrink_to(64);
        assert!(
            scratch.heap_bytes() < grown / 4,
            "shrink_to kept {} of {} bytes",
            scratch.heap_bytes(),
            grown
        );
        // Still correct after shrinking (re-grows or stays sparse).
        rpq_reach_collect(&g, &nfa, NodeId(5), &mut scratch, &mut out);
        assert_eq!(out.len(), 2048);
        let small = crate::generators::labelled_path(10, &["a"]);
        rpq_reach_collect(&small, &nfa, NodeId(0), &mut scratch, &mut out);
        assert_eq!(out.len(), 10);
    }

    #[test]
    fn scratch_epoch_wrap_partial_clear_is_safe_across_sizes() {
        // The wrap reset clears only the prefix the next sweep reads; a
        // *larger* sweep afterwards (same post-wrap era) must extend the
        // cleared prefix, not trust stale stamps beyond it.
        let mut small = crate::generators::labelled_cycle(64, &["a"]);
        let star_small = crpq_automata::parse_regex("a*", small.alphabet_mut()).unwrap();
        let nfa_small = Nfa::from_regex(&star_small);
        let mut big = crate::generators::labelled_cycle(1024, &["a"]);
        let star_big = crpq_automata::parse_regex("a*", big.alphabet_mut()).unwrap();
        let nfa_big = Nfa::from_regex(&star_big);
        let mut scratch = ReachScratch::new();
        let mut out = Vec::new();
        // Grow dense stamps to the big size with real (pre-wrap) epochs.
        rpq_reach_collect(&big, &nfa_big, NodeId(0), &mut scratch, &mut out);
        assert_eq!(out.len(), 1024);
        // Wrap: the next `begin` resets to epoch 1 having cleared only the
        // small sweep's prefix.
        scratch.set_epoch_for_test(u32::MAX);
        rpq_reach_collect(&small, &nfa_small, NodeId(0), &mut scratch, &mut out);
        assert_eq!(out.len(), 64, "post-wrap small sweep");
        // The big sweep now reads beyond the cleared prefix — stale
        // stamps from the pre-wrap era must not read as visited.
        rpq_reach_collect(&big, &nfa_big, NodeId(0), &mut scratch, &mut out);
        assert_eq!(
            out.len(),
            1024,
            "post-wrap big sweep truncated by stale stamps"
        );
    }

    #[test]
    fn scratch_epoch_wraparound_has_no_stale_visits() {
        // After 2³² sweeps the epoch counter wraps; `begin` must hard-reset
        // the stamp arrays so stamps from 2³² sweeps ago cannot alias the
        // fresh epoch as "already visited" (which would silently truncate
        // sweeps). Force the wrap with the test-only setter.
        let mut g = crate::generators::random_graph(31, 90, &["a", "b"], 13);
        let regex = crpq_automata::parse_regex("a (a+b)*", g.alphabet_mut()).unwrap();
        let nfa = Nfa::from_regex(&regex);
        let mut scratch = ReachScratch::new();
        let mut out = Vec::new();
        let mut expected = Vec::new();
        for src in g.nodes() {
            // Populate stamps at a normal epoch, then force the counter to
            // the wrap point: the next `begin` wraps to 0 and must reset.
            rpq_reach_collect(&g, &nfa, src, &mut scratch, &mut out);
            rpq_reach_collect(&g, &nfa, src, &mut ReachScratch::new(), &mut expected);
            assert_eq!(out, expected, "pre-wrap sweep from {src:?}");
            scratch.set_epoch_for_test(u32::MAX);
            rpq_reach_collect(&g, &nfa, src, &mut scratch, &mut out);
            assert_eq!(out, expected, "post-wrap sweep from {src:?}");
            // One more normal sweep on the reset scratch.
            rpq_reach_collect(&g, &nfa, src, &mut scratch, &mut out);
            assert_eq!(out, expected, "sweep after reset from {src:?}");
        }
    }

    #[test]
    fn blocked_closure_matches_per_source_at_any_block_size() {
        // Budgets small enough to force many column blocks (down to one
        // word per row) must not change the result.
        for (seed, expr) in [(3u64, "a (a+b)*"), (9, "(a b)*"), (29, "a*"), (23, "∅")] {
            let mut g = crate::generators::random_graph(150, 400, &["a", "b"], seed);
            let regex = crpq_automata::parse_regex(expr, g.alphabet_mut()).unwrap();
            let nfa = Nfa::from_regex(&regex);
            let per_source = rpq_relation(&g, &nfa, &mut ReachScratch::new());
            for budget_bits in [64, 4096, 1 << 20, usize::MAX] {
                let blocked = rpq_relation_closure_blocked(&g, &nfa, budget_bits);
                assert_eq!(
                    blocked, per_source,
                    "seed {seed} expr {expr} budget {budget_bits}"
                );
            }
        }
    }

    #[test]
    fn sparse_dense_switch_boundary() {
        // The ROADMAP documents the switch as "k·32 ≥ |V|": a sparse row of
        // k u32 ids costs 32·k bits against the dense row's |V| bits, so
        // the parity point k = |V|/32 must go dense and k = |V|/32 − 1 must
        // stay sparse. Pin the representation on both sides of the
        // boundary, for both row-install paths.
        let n = 640; // n/32 = 20
        for (k, expect_dense) in [(19usize, false), (20, true), (21, true)] {
            let ids: Vec<u32> = (0..k as u32).collect();
            let mut rel = Relation::empty(n);
            rel.set_forward_row_ids(NodeId(0), &ids);
            rel.finish_reverse();
            assert_eq!(
                rel.forward(NodeId(0)).is_dense(),
                expect_dense,
                "ids path, k = {k}"
            );
            let mut words = vec![0u64; n.div_ceil(64)];
            for &v in &ids {
                words[v as usize / 64] |= 1 << (v % 64);
            }
            let mut rel = Relation::empty(n);
            let mut buf = Vec::new();
            rel.set_forward_row_words(NodeId(0), &words, &mut buf);
            rel.finish_reverse();
            assert_eq!(
                rel.forward(NodeId(0)).is_dense(),
                expect_dense,
                "words path, k = {k}"
            );
        }
        // The NodeSet domain representation switches at the same point.
        for (k, expect_dense) in [(19usize, false), (20, true)] {
            let s = NodeSet::from_sorted_ids((0..k as u32).collect(), n);
            assert_eq!(s.is_dense(), expect_dense, "NodeSet k = {k}");
        }
    }

    #[test]
    fn auto_materialiser_handles_tiny_and_empty_graphs() {
        // The cost probe must not divide by zero or double-install sampled
        // rows on graphs smaller than the sample size.
        let empty = crate::db::GraphBuilder::new().finish();
        let mut it = crpq_util::Interner::new();
        it.intern("a");
        let nfa = Nfa::from_regex(&crpq_automata::parse_regex("a*", &mut it).unwrap());
        let rel = rpq_relation_auto(&empty, &nfa, &mut ReachScratch::new(), 1);
        assert!(rel.is_empty());
        for n in [1usize, 2, 3, 65] {
            let mut g = crate::generators::labelled_cycle(n, &["a"]);
            let star = crpq_automata::parse_regex("a*", g.alphabet_mut()).unwrap();
            let nfa = Nfa::from_regex(&star);
            let auto = rpq_relation_auto(&g, &nfa, &mut ReachScratch::new(), 1);
            let reference = rpq_relation(&g, &nfa, &mut ReachScratch::new());
            assert_eq!(auto, reference, "n = {n}");
            assert_eq!(auto.len(), n * n, "cycle closure is complete, n = {n}");
        }
    }

    #[test]
    fn node_set_operations() {
        let n = 256;
        let mut s = NodeSet::full(n);
        assert!(s.is_dense() && s.len() == n);
        let keep: BitSet = [3usize, 70, 200].iter().copied().collect::<BitSet>();
        let mut keep_sized = BitSet::new(n);
        for v in keep.iter() {
            keep_sized.insert(v);
        }
        s.intersect_with_bitset(&keep_sized);
        assert!(!s.is_dense(), "3 of 256 ids must go sparse");
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![3, 70, 200]);
        assert!(s.contains(70) && !s.contains(71));

        // Sparse ∩ sparse row.
        let row_ids = [70u32, 199, 200];
        let mut t = s.clone();
        t.intersect_with_row(&RelationRow::Sparse(&row_ids));
        assert_eq!(t.iter().collect::<Vec<_>>(), vec![70, 200]);
        assert!(s.intersects_row(&RelationRow::Sparse(&row_ids)));
        assert!(!s.intersects_row(&RelationRow::Sparse(&[4u32, 71])));

        // Sparse ∩ dense row, and dense ∩ sparse row.
        let mut dense_bits = BitSet::new(n);
        (0..n).step_by(2).for_each(|v| {
            dense_bits.insert(v);
        });
        let mut t = s.clone();
        t.intersect_with_row(&RelationRow::Dense(&dense_bits));
        assert_eq!(t.iter().collect::<Vec<_>>(), vec![70, 200]);
        let mut d = NodeSet::Dense(dense_bits.clone());
        d.intersect_with_row(&RelationRow::Sparse(&row_ids));
        assert_eq!(d.iter().collect::<Vec<_>>(), vec![70, 200]);
        assert!(!d.is_dense(), "intersection result re-picks representation");

        // Removal and sorted intersection.
        assert!(d.remove(70) && !d.remove(70));
        assert_eq!(d.len(), 1);
        let mut u = NodeSet::from_sorted_ids(vec![1, 5, 9, 200], n);
        u.intersect_with_sorted(&[5, 200, 201]);
        assert_eq!(u.iter().collect::<Vec<_>>(), vec![5, 200]);
        assert_eq!(NodeSet::empty(n).len(), 0);
    }

    #[test]
    fn row_intersection_helpers() {
        let ids = [1u32, 5, 70];
        let sparse = RelationRow::Sparse(&ids);
        assert!(!sparse.is_dense());
        let mut acc = BitSet::full(4096);
        sparse.intersect_into(&mut acc);
        assert_eq!(acc.iter().collect::<Vec<_>>(), vec![1, 5, 70]);
        let mut probe = BitSet::new(4096);
        probe.insert(5);
        assert!(sparse.intersects(&probe));
        probe.remove(5);
        probe.insert(6);
        assert!(!sparse.intersects(&probe));
        assert!(sparse.contains(70) && !sparse.contains(71));

        let evens: BitSet = {
            let mut b = BitSet::new(256);
            (0..200usize).step_by(2).for_each(|v| {
                b.insert(v);
            });
            b
        };
        let dense = RelationRow::Dense(&evens);
        assert!(dense.is_dense());
        assert_eq!(dense.len(), 100);
        let mut acc = BitSet::new(256);
        (0..256usize).filter(|v| v % 3 == 0).for_each(|v| {
            acc.insert(v);
        });
        dense.intersect_into(&mut acc);
        assert!(!acc.is_empty());
        assert!(acc.iter().all(|v| v % 6 == 0 && v < 200));
    }

    #[test]
    fn relation_row_install_paths_agree() {
        // The two row-install paths (raw words, owned ids) must produce
        // identical relations.
        let mut buf = Vec::new();
        let mut words = vec![0u64; 2];
        for v in [3usize, 40, 64, 77] {
            words[v / 64] |= 1 << (v % 64);
        }
        let mut via_words = Relation::empty(100);
        via_words.set_forward_row_words(NodeId(2), &words, &mut buf);
        via_words.finish_reverse();

        let mut via_ids = Relation::empty(100);
        via_ids.set_forward_row_ids(NodeId(2), &[3, 40, 64, 77]);
        via_ids.finish_reverse();

        assert_eq!(via_words, via_ids);
        assert_eq!(via_words.len(), 4);
        assert!(via_words.contains(NodeId(2), NodeId(64)));
        assert_eq!(
            via_words.backward(NodeId(40)).iter().collect::<Vec<_>>(),
            [2]
        );
        assert_eq!(via_words.source_set().iter().collect::<Vec<_>>(), [2]);
        assert_eq!(
            via_words.target_set().iter().collect::<Vec<_>>(),
            [3, 40, 64, 77]
        );
    }

    #[test]
    fn sparse_rows_shard_past_the_offset_space() {
        // The 2-level sharded CSR behind `RowKind::Sparse`: a flat id
        // buffer crossing one shard's offset space opens the next shard
        // instead of panicking (the pre-shard layout refused relations
        // past 2³² ids with a "shard the relation" panic). Exercised with
        // a tiny test capacity so no 16 GiB allocation is needed —
        // production uses the full u32 offset space per shard.
        let n = 64usize;
        let mut store = RowStore::with_shard_cap(n, 7);
        // Rows of 3, 3, 3 ids: the third cannot fit shard 0 (3+3+3 > 7)
        // and must start shard 1 — rows never cross a shard boundary.
        for (i, base) in [(0usize, 0u32), (1, 8), (2, 16), (3, 24)] {
            store.push_sparse(i, &[base, base + 1, base + 2]);
        }
        assert_eq!(store.shards.len(), 2, "third row opens a second shard");
        assert!(store.shards.iter().all(|s| s.len() <= 7));
        store.seal();
        for (i, base) in [(0usize, 0u32), (1, 8), (2, 16), (3, 24)] {
            assert_eq!(
                store.row(i).iter().collect::<Vec<_>>(),
                vec![base as usize, base as usize + 1, base as usize + 2],
                "row {i} readable across the shard boundary"
            );
        }
        assert!(store.row(5).is_empty(), "untouched row reads empty");

        // A single row larger than the shard capacity cannot be split —
        // it must fail loudly instead of corrupting offsets.
        let err = std::panic::catch_unwind(|| {
            let mut s = RowStore::with_shard_cap(64, 4);
            s.push_sparse(0, &[1, 2, 3, 4, 5]);
        })
        .expect_err("oversized row must panic");
        let msg = err
            .downcast_ref::<String>()
            .expect("panic message is a String");
        assert!(
            msg.contains("shard capacity"),
            "panic must name the shard capacity, got: {msg}"
        );

        // End-to-end: a Relation whose stores run at a tiny shard cap
        // still assembles a correct (sorted) backward index across
        // shards. Universe 640 keeps 3- and 6-id rows below the dense
        // parity point, so the sparse (sharded) path is what runs.
        let big = 640usize;
        let mut rel = Relation::empty(big);
        rel.fwd = RowStore::with_shard_cap(big, 7);
        rel.rev = RowStore::with_shard_cap(big, 7);
        for src in 0..6u32 {
            rel.set_forward_row_ids(NodeId(src), &[10, 20, 30]);
        }
        rel.finish_reverse();
        assert!(rel.fwd.shards.len() > 1, "forward rows sharded");
        assert!(rel.rev.shards.len() > 1, "backward rows sharded");
        for v in [10u32, 20, 30] {
            assert_eq!(
                rel.backward(NodeId(v)).iter().collect::<Vec<_>>(),
                vec![0, 1, 2, 3, 4, 5],
                "backward column of {v} sorted across shards"
            );
        }
    }

    #[test]
    fn sorted_view_seek_agrees_across_representations() {
        // RelationRow/NodeSet `first_at_or_after` (the WCOJ leapfrog seek)
        // must agree between sparse and dense representations.
        let ids: Vec<u32> = vec![1, 5, 64, 200];
        let universe = 256;
        let sparse_row = RelationRow::Sparse(&ids);
        let bits = BitSet::from_words(
            {
                let mut w = vec![0u64; universe / 64];
                for v in &ids {
                    w[*v as usize / 64] |= 1 << (*v % 64);
                }
                w
            },
            universe,
        );
        let dense_row = RelationRow::Dense(&bits);
        let sparse_set = NodeSet::from_sorted_ids(ids.clone(), universe);
        let dense_set = NodeSet::Dense(bits.clone());
        for from in 0..universe + 2 {
            let expect = ids.iter().map(|&v| v as usize).find(|&v| v >= from);
            assert_eq!(
                sparse_row.first_at_or_after(from),
                expect,
                "sparse row @{from}"
            );
            assert_eq!(
                dense_row.first_at_or_after(from),
                expect,
                "dense row @{from}"
            );
            assert_eq!(
                sparse_set.first_at_or_after(from),
                expect,
                "sparse set @{from}"
            );
            assert_eq!(
                dense_set.first_at_or_after(from),
                expect,
                "dense set @{from}"
            );
        }
    }

    #[test]
    fn shortest_path_walks_may_repeat_nodes() {
        // (a b)(a b)(a b) on a 2-cycle: the walk revisits nodes — allowed
        // under standard semantics.
        let (g, nfa) = setup(&[("u", "a", "v"), ("v", "b", "u")], "a b a b a b");
        let p = shortest_path(&g, &nfa, n(&g, "u"), n(&g, "u")).unwrap();
        assert_eq!(p.len(), 7);
        assert_eq!(p[0], n(&g, "u"));
        assert_eq!(p[6], n(&g, "u"));
    }
}
