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
//! iterators are `Copied<slice::Iter>` over its adjacency rows, i.e. exactly
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
//!   binary search; an untouched node costs nothing. The direct index —
//!   a 4-byte slot per node into the `k` touched row kinds, `4·|V| + 16·k`
//!   bytes — is only built past the same `k·32 ≥ |V|` parity point that
//!   governs dense rows, so [`Relation::empty`] is O(1) — no allocation
//!   at any |V| — and [`Relation::heap_bytes`] reports the actual layout.
//! * Row payloads live in **sharded** span storage: each shard holds at
//!   most `u32::MAX` adjacency slots, so a `4·10⁷`-edge closure packs
//!   without overflowing the u32 flat offsets that index within a shard.
//! * Every materialiser installs its forward rows through one
//!   `RelationBuilder`, whose `finish` builds the backward index by one
//!   counting sort over the forward pairs: below the `t·32 ≥ |V|` parity
//!   point (`t` = distinct targets) its buckets are the sorted distinct
//!   targets, so a relation touching t of 10⁷ nodes never scans `0..|V|`;
//!   past it they are node-indexed ([`Relation::assembly_ops`] is the
//!   pinned observable, [`MaterialiseStats::assembly_bytes`] the
//!   transient).
//! * The sweep materialiser's workers claim fixed-size blocks of source
//!   ids, each swept into one flat buffer; blocks are installed in block
//!   order, so forward rows arrive sorted by source.
//!   [`rpq_relation_auto_with_stats`] reports the per-materialisation
//!   [`MaterialiseStats`] the scale benchmarks persist.
//!
//! Node-name storage (the third `O(|V|)` wall at this scale) is handled in
//! [`crate::db`]: arena-interned names or the fully name-free `Anonymous`
//! mode for generated workloads.

use crate::db::NodeId;
use crate::view::GraphView;
use crpq_automata::{Nfa, StateId};
use crpq_util::sync::atomic::{AtomicUsize, Ordering};
use crpq_util::sync::thread;
use crpq_util::{BitSet, FxHashMap, FxHashSet, Symbol};
use std::collections::VecDeque;
use std::ops::ControlFlow;
use std::time::Instant;

/// A sweep upgrades from the sparse visited map to the dense stamp array
/// once it has visited more than `universe / SPARSE_VISIT_FACTOR` states:
/// a map entry costs ~8–16 bytes against the stamp's 4, so past this point
/// the dense array is both smaller *and* faster, and once allocated it
/// serves every later sweep it covers.
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
/// A sweep starts on a sparse epoch-stamped hash map (`state → epoch`) and
/// migrates to the dense `|V|·|Q|` stamp array only once it has visited
/// more than a [`1/8`](SPARSE_VISIT_FACTOR) fraction of the product, so a
/// low-output sweep costs memory proportional to the states it touches,
/// on every worker. The dense array is allocated at most once per scratch
/// and then serves any sweep it covers; [`Self::shrink_to`] releases it
/// after a one-off huge graph.
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
/// of `v` come from `v`'s adjacency row as one contiguous slice
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
    out.clear();
    sweep_append::<G, true>(g, nfa, src, scratch, out)
}

/// The collecting sweep behind [`rpq_reach_collect`]: appends the nodes
/// reached from `src` to `out` (sorted and deduplicated among themselves)
/// and returns the graph-edge scans when `COUNT`, 0 otherwise — only the
/// cost probe reads the count, so the bulk sweeps skip it.
fn sweep_append<G: GraphView, const COUNT: bool>(
    g: &G,
    nfa: &Nfa,
    src: NodeId,
    scratch: &mut ReachScratch,
    out: &mut Vec<u32>,
) -> usize {
    let ns = nfa.num_states();
    let start = out.len();
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
            for to in g.successors(v, sym) {
                if COUNT {
                    edge_scans += 1;
                }
                if scratch.visit(to.index() * ns + q2 as usize) {
                    if nfa.is_final(q2) && scratch.visit_node(to.index()) {
                        out.push(to.0);
                    }
                    scratch.queue.push_back((to, q2));
                }
            }
        }
    }
    out[start..].sort_unstable();
    edge_scans
}

/// Backward reachability without materialising a reversed graph: the nodes
/// `u` such that some `u → dst` path has its label in `L(nfa)`, where
/// `nfa_rev` recognises the *mirror* language ([`Nfa::reverse`]).
///
/// Equivalent to `rpq_reach(&g.reversed(), nfa_rev, dst)` but walks the
/// incoming adjacency the graph already carries
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

    /// Number of ids in the set — `O(1)` sparse, but `O(|V|/64)` dense
    /// ([`BitSet::len`] popcounts the whole universe), so hot loops
    /// should record it once.
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
/// (2³² ids ≈ 16 GiB) simply opens the next one.
const SHARD_CAP: usize = u32::MAX as usize;

/// One direction of a [`Relation`]: adaptive rows for the **touched**
/// nodes only, backed by a 2-level sharded CSR id buffer (sparse rows)
/// plus a bitset pool (dense rows).
///
/// The row table is itself density-adaptive ([`RowIndex`]): a sorted
/// `(node id, row kind)` pair list while few rows are touched — so an
/// empty store is O(1) and a k-row store O(k), never O(|V|) — promoted to
/// a direct per-node slot table past the usual `k·32 ≥ |V|` parity point,
/// where the relation is Ω(|V|) regardless and O(1) row lookup beats the
/// binary search. A promoted index costs `4·|V| + 16·k` bytes: one `u32`
/// slot per node into the `k` touched row kinds.
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
    /// Direct per-node slot table: `kinds[slot[i]]` is the row kind of
    /// node `i`, and [`NO_ROW`] marks an untouched node.
    Direct { slot: Vec<u32>, kinds: Vec<RowKind> },
}

/// The slot of an untouched node in a [`RowIndex::Direct`] table.
const NO_ROW: u32 = u32::MAX;

#[derive(Clone, Copy, Debug)]
enum RowKind {
    Sparse { shard: u32, start: u32, end: u32 },
    Dense { idx: u32 },
}

/// Sorts a lazy `(ids[i], kinds[i])` pair list by node id; a no-op when
/// the rows were installed in order.
fn sort_by_node(ids: &mut Vec<u32>, kinds: &mut Vec<RowKind>) {
    if ids.windows(2).all(|w| w[0] < w[1]) {
        return;
    }
    let mut pairs: Vec<(u32, RowKind)> = ids.iter().copied().zip(kinds.iter().copied()).collect();
    pairs.sort_unstable_by_key(|&(id, _)| id);
    debug_assert!(
        pairs.windows(2).all(|w| w[0].0 < w[1].0),
        "row installed twice"
    );
    *ids = pairs.iter().map(|&(id, _)| id).collect();
    *kinds = pairs.into_iter().map(|(_, kind)| kind).collect();
}

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
            RowIndex::Direct { slot, kinds } => match slot[i] {
                NO_ROW => return RelationRow::Sparse(&[]),
                s => kinds[s as usize],
            },
        };
        self.resolve(kind)
    }

    /// Iterates the touched rows as `(node id, row)` in ascending node
    /// order — O(touched) on a lazy (sealed) index; on a direct one the
    /// O(n) scan is within a 32× factor of touched by the promotion
    /// parity. Equality and pair iteration run on this instead of `0..n`.
    fn touched_rows(&self) -> impl Iterator<Item = (u32, RelationRow<'_>)> + '_ {
        let lazy = match &self.index {
            RowIndex::Lazy { ids, kinds } => Some(
                ids.iter()
                    .zip(kinds)
                    .map(move |(&id, &kind)| (id, self.resolve(kind))),
            ),
            RowIndex::Direct { .. } => None,
        };
        let direct = match &self.index {
            RowIndex::Direct { slot, kinds } => Some(
                slot.iter()
                    .enumerate()
                    .filter(|&(_, &s)| s != NO_ROW)
                    .map(move |(i, &s)| (i as u32, self.resolve(kinds[s as usize]))),
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
            RowIndex::Direct { slot, kinds } => match slot[i] {
                NO_ROW => {
                    slot[i] = kinds.len() as u32;
                    kinds.push(kind);
                }
                s => kinds[s as usize] = kind,
            },
        }
    }

    /// Finalises the index for reads: sorts the lazy pair list by node id
    /// (a no-op for the sweeps, which install in source order;
    /// [`rpq_reach_all`] takes sources in any order) and promotes it to a direct table past the `k·32 ≥ n`
    /// parity point. Returns the sorted touched ids (the relation's
    /// source/target set, for free). Idempotent on a direct index.
    fn seal(&mut self) -> Vec<u32> {
        match &mut self.index {
            RowIndex::Lazy { ids, kinds } => {
                sort_by_node(ids, kinds);
                if dense_row(ids.len(), self.n) {
                    let mut slot = vec![NO_ROW; self.n];
                    for (s, &id) in ids.iter().enumerate() {
                        slot[id as usize] = s as u32;
                    }
                    let ids = std::mem::take(ids);
                    let kinds = std::mem::take(kinds);
                    self.index = RowIndex::Direct { slot, kinds };
                    ids
                } else {
                    ids.clone()
                }
            }
            RowIndex::Direct { .. } => self.touched_rows().map(|(id, _)| id).collect(),
        }
    }

    /// Heap bytes of the index, shards and dense pool — O(touched) by
    /// construction on lazy stores (no phantom per-node table); a direct
    /// index pays 4 bytes per node for its slot table.
    fn heap_bytes(&self) -> usize {
        let index = match &self.index {
            RowIndex::Lazy { ids: nodes, kinds } | RowIndex::Direct { slot: nodes, kinds } => {
                nodes.len() * 4 + kinds.len() * std::mem::size_of::<RowKind>()
            }
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
/// ([`RelationRow`]), and the source / target sets are cached when the
/// relation is built, so [`Relation::source_set`] /
/// [`Relation::target_set`] are O(1) lookups rather than full scans.
#[derive(Clone, Debug)]
pub struct Relation {
    fwd: RowStore,
    rev: RowStore,
    len: usize,
    /// Cached source/target sets, built by [`RelationBuilder::finish`]
    /// from the touched ids (density-adaptive — O(touched) while
    /// sparse, never a phantom `|V|`-bit allocation for a tiny relation).
    sources: NodeSet,
    targets: NodeSet,
    /// Loop iterations of the backward-index assembly — the observable
    /// the O(E_rel + touched) assembly contract is pinned by (regression
    /// tests assert it stays ≪ |V| on sparse relations over huge graphs).
    assembly_ops: usize,
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
    /// density-adaptive (finalised by `RelationBuilder::finish`).
    pub fn source_set(&self) -> &NodeSet {
        &self.sources
    }

    /// The cached set of targets (`v` with at least one pair) — O(1),
    /// density-adaptive (finalised by `RelationBuilder::finish`).
    pub fn target_set(&self) -> &NodeSet {
        &self.targets
    }

    /// Iterates all pairs in `(source, target)` order — O(touched + len),
    /// never a `0..|V|` scan.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        self.fwd
            .touched_rows()
            .flat_map(move |(u, row)| row.iter().map(move |v| (NodeId(u), NodeId(v as u32))))
    }

    /// Approximate heap bytes held by the relation's row stores and cached
    /// node sets — the peak-RSS proxy the scale benchmarks record: O(1)
    /// for an empty relation, O(touched) for a sparse one.
    pub fn heap_bytes(&self) -> usize {
        let set = |s: &NodeSet| match s {
            NodeSet::Sparse { ids, .. } => ids.len() * 4,
            NodeSet::Dense(b) => b.heap_bytes(),
        };
        self.fwd.heap_bytes() + self.rev.heap_bytes() + set(&self.sources) + set(&self.targets)
    }

    /// Loop iterations of the backward-index assembly
    /// (`RelationBuilder::finish`): `O(E_rel + touched targets)`. Below
    /// the `k·32 ≥ |V|` parity point nothing scales with `|V|`; the scale
    /// regression tests pin this on a 10⁶-node graph whose relation
    /// touches ~10² nodes.
    pub fn assembly_ops(&self) -> usize {
        self.assembly_ops
    }
}

/// Calls `f(u, v)` for every pair of the forward rows of a store just
/// sealed, whose touched ids `seal` returned as `src_ids` — the row kinds
/// are then in the same order, so no pass scans `0..n`.
fn each_pair(fwd: &RowStore, src_ids: &[u32], mut f: impl FnMut(u32, usize)) {
    let (RowIndex::Lazy { kinds, .. } | RowIndex::Direct { kinds, .. }) = &fwd.index;
    debug_assert_eq!(kinds.len(), src_ids.len());
    for (&u, &kind) in src_ids.iter().zip(kinds) {
        match fwd.resolve(kind) {
            RelationRow::Sparse(ids) => ids.iter().for_each(|&v| f(u, v as usize)),
            RelationRow::Dense(bits) => bits.iter().for_each(|v| f(u, v)),
        }
    }
}

/// Assembles a [`Relation`] from its forward rows — the one install path
/// of every materialiser. Rows may arrive in any source order, at most one
/// per source; the sweeps deliver them in ascending order, so sealing the
/// forward index sorts nothing. [`Self::finish`] builds the backward index
/// and the cached source/target sets.
struct RelationBuilder {
    fwd: RowStore,
    len: usize,
}

/// Fill-cursor tag of a dense backward column: the shard half of a
/// sparse column's `(shard, offset)` cursor never reaches `u32::MAX`.
const DENSE_COLUMN: u64 = (u32::MAX as u64) << 32;

impl RelationBuilder {
    fn new(n: usize) -> Self {
        Self::with_shard_cap(n, SHARD_CAP)
    }

    /// A builder whose forward and backward stores open a new shard every
    /// `shard_cap` ids — [`SHARD_CAP`] in production, small in tests.
    fn with_shard_cap(n: usize, shard_cap: usize) -> Self {
        RelationBuilder {
            fwd: RowStore::with_shard_cap(n, shard_cap),
            len: 0,
        }
    }

    /// Installs the forward row of `src` from strictly ascending ids,
    /// stored dense past the `k·32 ≥ n` parity point. An empty row
    /// installs nothing.
    fn push_ids(&mut self, src: u32, ids: &[u32]) {
        let n = self.fwd.n;
        if ids.is_empty() {
            return;
        }
        self.len += ids.len();
        if dense_row(ids.len(), n) {
            let mut bits = BitSet::new(n);
            for &v in ids {
                bits.insert(v as usize);
            }
            self.fwd.push_dense(src as usize, bits);
        } else {
            self.fwd.push_sparse(src as usize, ids);
        }
    }

    /// Installs the forward row of `src` from backing words (bit `i` of
    /// word `w` = node `w·64 + i`), as the closure's reach matrix holds
    /// it; `buf` carries the ids of a sparse row.
    fn push_words(&mut self, src: u32, words: &[u64], buf: &mut Vec<u32>) {
        let n = self.fwd.n;
        let k: usize = words.iter().map(|w| w.count_ones() as usize).sum();
        if k > 0 && dense_row(k, n) {
            self.push_bits(src, BitSet::from_words(words.to_vec(), n));
            return;
        }
        buf.clear();
        for (wi, &w) in words.iter().enumerate() {
            let mut w = w;
            while w != 0 {
                buf.push((wi * 64) as u32 + w.trailing_zeros());
                w &= w - 1;
            }
        }
        self.push_ids(src, buf);
    }

    /// Installs the forward row of `src` as the given bitset (the closure's
    /// per-source accumulators turn dense only past the parity point).
    fn push_bits(&mut self, src: u32, bits: BitSet) {
        let k = bits.len();
        if k > 0 {
            self.len += k;
            self.fwd.push_dense(src as usize, bits);
        }
    }

    /// Installs the rows of one swept block, in its ascending source order.
    fn push_block(&mut self, block: &SweptBlock) {
        let mut start = 0;
        for &(src, end) in &block.rows {
            self.push_ids(src, &block.targets[start..end]);
            start = end;
        }
    }

    /// Seals the forward index and builds the backward one by one counting
    /// sort of the forward pairs, with one bucket per distinct target: a
    /// degree pass sizes every column, a layout pass makes each column
    /// dense or a zero-filled sparse span (in ascending target order, the
    /// layout a per-target install would give), and a fill pass in
    /// ascending source order appends every source to its column, which
    /// keeps columns sorted.
    ///
    /// Past the `t·32 ≥ n` parity point, with `t` the number of distinct
    /// targets, the buckets are node-indexed (`8n ≤ 256·t` bytes). Below
    /// it a bucket is the target's rank among the sorted distinct targets,
    /// so a relation touching `k` of 10⁷ nodes assembles in `O(k log k)`
    /// with nothing sized by `n`. `stats` receives the loop iterations and
    /// the transient bytes.
    fn finish(self, stats: &mut MaterialiseStats) -> Relation {
        let RelationBuilder { mut fwd, len } = self;
        let n = fwd.n;
        let src_ids = fwd.seal();
        // The distinct targets `tgt`, ascending: from a bitset of them when
        // it costs at most `n/8 ≤ 4·len` bytes, else by sorting.
        let mut seen_bytes = 0;
        let tgt: Vec<u32> = if dense_row(len, n) {
            let mut seen = BitSet::new(n);
            each_pair(&fwd, &src_ids, |_, v| {
                seen.insert(v);
            });
            seen_bytes = seen.heap_bytes();
            let mut t = Vec::with_capacity(seen.len());
            t.extend(seen.iter().map(|v| v as u32));
            t
        } else {
            let mut t = Vec::with_capacity(len);
            each_pair(&fwd, &src_ids, |_, v| t.push(v as u32));
            t.sort_unstable();
            t.dedup();
            t
        };
        let node_indexed = dense_row(tgt.len(), n);
        let bucket = |v: usize| {
            if node_indexed {
                v
            } else {
                tgt.binary_search(&(v as u32))
                    .expect("target missing from the distinct targets") // invariant: `tgt` holds every target of these rows
            }
        };
        // Column degrees, by bucket.
        let mut cursor = vec![0u64; if node_indexed { n } else { tgt.len() }];
        each_pair(&fwd, &src_ids, |_, v| cursor[bucket(v)] += 1);
        stats.assembly_bytes = seen_bytes + 4 * tgt.capacity() + 8 * cursor.len();

        // Layout pass, in ascending target order: each column becomes a
        // dense bitset or a sparse span, and its cursor the column's fill
        // position.
        let mut rev = RowStore::with_shard_cap(n, fwd.shard_cap);
        if let RowIndex::Lazy { ids, kinds } = &mut rev.index {
            ids.reserve_exact(tgt.len());
            kinds.reserve_exact(tgt.len());
        }
        for (i, &v) in tgt.iter().enumerate() {
            let at = &mut cursor[if node_indexed { v as usize } else { i }];
            let d = *at as usize;
            let kind = if dense_row(d, n) {
                rev.dense.push(BitSet::new(n));
                RowKind::Dense {
                    idx: rev.dense.len() as u32 - 1,
                }
            } else {
                rev.reserve_span(d)
            };
            *at = match kind {
                RowKind::Dense { idx } => DENSE_COLUMN | u64::from(idx),
                RowKind::Sparse { shard, start, end } => {
                    rev.shards[shard as usize].resize(end as usize, 0);
                    (u64::from(shard) << 32) | u64::from(start)
                }
            };
            rev.push_kind(v as usize, kind);
        }

        // Fill pass.
        each_pair(&fwd, &src_ids, |u, v| {
            let c = bucket(v);
            let at = cursor[c];
            if at & DENSE_COLUMN == DENSE_COLUMN {
                rev.dense[at as u32 as usize].insert(u as usize);
            } else {
                rev.shards[(at >> 32) as usize][at as u32 as usize] = u;
                cursor[c] = at + 1;
            }
        });
        let ops = 3 * len + tgt.len();
        stats.assembly_ops = ops;
        let targets = NodeSet::from_sorted_ids(rev.seal(), n);
        Relation {
            fwd,
            rev,
            len,
            sources: NodeSet::from_sorted_ids(src_ids, n),
            targets,
            assembly_ops: ops,
        }
    }
}

/// Which sources can start a path: those with an edge on some symbol
/// leaving an initial state — or every source, when an initial state is
/// final (the empty path matches). Any other source's row is empty, so
/// the materialisers skip it without a sweep.
struct PathStarts {
    any: bool,
    symbols: Vec<Symbol>,
}

impl PathStarts {
    fn new(nfa: &Nfa) -> Self {
        let mut symbols: Vec<Symbol> = nfa
            .initials()
            .iter()
            .flat_map(|q| nfa.transitions_from(q as StateId).iter().map(|&(a, _)| a))
            .collect();
        symbols.sort_unstable();
        symbols.dedup();
        PathStarts {
            any: nfa.initials().iter().any(|q| nfa.is_final(q as StateId)),
            symbols,
        }
    }

    #[inline]
    fn admits<G: GraphView>(&self, g: &G, v: NodeId) -> bool {
        self.any || self.symbols.iter().any(|&a| g.out_degree(v, a) > 0)
    }
}

/// Materialises the full RPQ relation `{(u, v) : some u→v path has its
/// label in L(nfa)}` by a product BFS from every source in `sources` that
/// can start a path, reusing `scratch` across sweeps (no per-source
/// reallocation beyond the output rows themselves). Sources may come in
/// any order, each at most once.
pub fn rpq_reach_all<G: GraphView>(
    g: &G,
    nfa: &Nfa,
    sources: impl IntoIterator<Item = NodeId>,
    scratch: &mut ReachScratch,
) -> Relation {
    let starts = PathStarts::new(nfa);
    let mut builder = RelationBuilder::new(g.num_nodes());
    let mut buf: Vec<u32> = Vec::new();
    for src in sources.into_iter().filter(|&v| starts.admits(g, v)) {
        buf.clear();
        sweep_append::<G, false>(g, nfa, src, scratch, &mut buf);
        builder.push_ids(src.0, &buf);
    }
    builder.finish(&mut MaterialiseStats::default())
}

/// Source ids per block of the sweep materialiser, the unit a worker
/// claims: one atomic add and one buffer per 8 192 sweeps, yet small
/// enough that a skewed block idles the other workers only briefly.
const SWEEP_BLOCK: usize = 8192;

/// The rows one worker swept from one block of source ids: the targets of
/// every row in one flat buffer, and per non-empty row its source and the
/// end of its targets in that buffer.
#[derive(Default)]
struct SweptBlock {
    targets: Vec<u32>,
    rows: Vec<(u32, usize)>,
    /// Sources of the block that can start a path, all swept.
    swept: usize,
}

/// Claims blocks of `block` source ids from `next` until none is left and
/// sweeps the sources of each that can start a path on `scratch`; returns
/// the swept blocks with their block numbers.
fn sweep_blocks<G: GraphView>(
    g: &G,
    nfa: &Nfa,
    starts: &PathStarts,
    block: usize,
    next: &AtomicUsize,
    scratch: &mut ReachScratch,
) -> Vec<(usize, SweptBlock)> {
    let n = g.num_nodes();
    let mut done = Vec::new();
    loop {
        // Relaxed: the counter only hands out block numbers; the rows
        // reach the caller through the thread join.
        let b = next.fetch_add(1, Ordering::Relaxed);
        let lo = b.saturating_mul(block);
        if lo >= n {
            return done;
        }
        let mut out = SweptBlock::default();
        for v in lo..(lo + block).min(n) {
            let src = NodeId(v as u32);
            if !starts.admits(g, src) {
                continue;
            }
            out.swept += 1;
            sweep_append::<G, false>(g, nfa, src, scratch, &mut out.targets);
            if out.targets.len() > out.rows.last().map_or(0, |&(_, end)| end) {
                out.rows.push((src.0, out.targets.len()));
            }
        }
        done.push((b, out));
    }
}

/// The sweep materialiser: the calling thread on the pooled `scratch`,
/// plus up to `threads − 1` (resolved) scoped threads with a scratch each,
/// claim blocks of `block` source ids; the swept blocks are installed into
/// `builder` in block order. A graph of one block spawns no thread.
fn sweep_relation<G: GraphView>(
    g: &G,
    nfa: &Nfa,
    scratch: &mut ReachScratch,
    threads: usize,
    block: usize,
    mut builder: RelationBuilder,
    stats: &mut MaterialiseStats,
) -> Relation {
    let t0 = Instant::now();
    let starts = PathStarts::new(nfa);
    let next = AtomicUsize::new(0);
    let workers = threads.min(g.num_nodes().div_ceil(block));
    let mut blocks = thread::scope(|scope| {
        let handles: Vec<_> = (1..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut own = ReachScratch::new();
                    let blocks = sweep_blocks(g, nfa, &starts, block, &next, &mut own);
                    (blocks, own.heap_bytes())
                })
            })
            .collect();
        let mut blocks = sweep_blocks(g, nfa, &starts, block, &next, scratch);
        for h in handles {
            let (more, bytes) = h.join().unwrap_or_else(|p| std::panic::resume_unwind(p));
            blocks.extend(more);
            stats.scratch_bytes += bytes;
        }
        blocks
    });
    blocks.sort_unstable_by_key(|&(b, _)| b);
    stats.sweep_ms += elapsed_ms(t0);
    let t1 = Instant::now();
    for (_, block) in &blocks {
        stats.sources_swept += block.swept;
        builder.push_block(block);
    }
    drop(blocks);
    let rel = builder.finish(stats);
    stats.assembly_ms += elapsed_ms(t1);
    rel
}

fn elapsed_ms(since: Instant) -> f64 {
    since.elapsed().as_secs_f64() * 1e3
}

/// The materialiser a relation was built by.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum MaterialisePath {
    /// Per-source product BFS sweeps over blocks of source ids.
    #[default]
    Sweeps,
    /// The column-blocked condensation closure
    /// ([`rpq_relation_closure_blocked`]).
    Closure,
}

/// Observability record of one relation materialisation, which the scale
/// benchmarks persist next to wall clock and relation bytes.
#[derive(Clone, Copy, Debug, Default)]
pub struct MaterialiseStats {
    /// The materialiser the cost probe picked.
    pub path: MaterialisePath,
    /// Edge scans the 64-source cost probe projects for sweeping every
    /// source (0 on graphs of at most 64 nodes, which skip the probe).
    pub projected_scans: usize,
    /// The closure's traversal bound `(|V| + |E|)·|Q|`: the closure runs
    /// when the projection exceeds 4× of it.
    pub closure_bound: usize,
    /// Sources swept on the sweep path, probe sweeps not counted.
    pub sources_swept: usize,
    /// Milliseconds producing forward rows: the probe plus the sweeps, or
    /// plus the closure's condensation and replay.
    pub sweep_ms: f64,
    /// Milliseconds installing swept blocks and building both indexes.
    pub assembly_ms: f64,
    /// Peak working-set bytes: the pooled sweep scratch, plus every
    /// worker's on the sweep path, or the product graph, Tarjan arrays
    /// and reach matrix on the closure path.
    pub scratch_bytes: usize,
    /// Backward-assembly loop iterations ([`Relation::assembly_ops`]).
    pub assembly_ops: usize,
    /// Transient bytes of the backward-index assembly: the distinct
    /// targets, their bitset when pairs pass the `k·32 ≥ |V|` parity point,
    /// and the column cursors — node-indexed only when the distinct
    /// targets pass it too. Released before the relation is returned, and
    /// not part of `scratch_bytes`.
    pub assembly_bytes: usize,
}

/// Resolves a thread-count knob into a concrete worker count (`≥ 1`):
/// `0` = one per available CPU, capped at 16; any other value is taken
/// verbatim. When `available_parallelism` itself errors (restricted
/// sandboxes, unreadable cgroup limits) the `0` knob falls back to **4
/// workers**. Callers resolve the knob once at the public entry point and
/// pass the resolved count down.
pub fn effective_threads(threads: usize) -> usize {
    if threads == 0 {
        crpq_util::sync::thread::available_parallelism().map_or(4, |n| n.get().min(16))
    } else {
        threads
    }
}

/// The atom's complete standard-semantics relation, swept from every node
/// on the calling thread — the one-thread call of the sweep materialiser
/// behind [`rpq_relation_auto`].
pub fn rpq_relation<G: GraphView>(g: &G, nfa: &Nfa, scratch: &mut ReachScratch) -> Relation {
    let builder = RelationBuilder::new(g.num_nodes());
    let stats = &mut MaterialiseStats::default();
    sweep_relation(g, nfa, scratch, 1, SWEEP_BLOCK, builder, stats)
}

/// Per-block budget for the blocked closure's reach matrix: 2³⁰ bits
/// (128 MiB) — the working-set ceiling of one column block
/// ([`rpq_relation_closure_blocked`]), not a cap on the product size.
pub const CLOSURE_BLOCK_BUDGET_BITS: usize = 1 << 30;

/// **Cost-adaptive** full-relation materialiser: probes the sweep cost on
/// a sample of sources, then either sweeps every source or switches to
/// the condensation bitset closure when the product graph is dense enough
/// that per-source exploration would be quadratically wasteful.
///
/// Per-source total cost scales with `Σ_v (edges scanned from v's product
/// cone)` — on sparse relations that is near the output size and beats
/// everything, but on dense ones (e.g. `a*` over one big SCC) every source
/// re-scans the whole product, `O(|V|·|E_Π|)`. The closure pays
/// `O(|E_Π|)` traversal + `O(|E_Π|·|V|/64)` word-ORs once, regardless.
/// The sample's observed edge scans project the per-source total; when the
/// projection exceeds a small multiple of the closure's traversal bound,
/// the (column-blocked, so memory-bounded at any scale) closure runs.
/// Otherwise the sweeps run over blocks of source ids, on `threads`
/// workers when `threads > 1` (`0` = one per CPU, capped at 16).
pub fn rpq_relation_auto<G: GraphView>(
    g: &G,
    nfa: &Nfa,
    scratch: &mut ReachScratch,
    threads: usize,
) -> Relation {
    rpq_relation_auto_with_stats(g, nfa, scratch, threads).0
}

/// [`rpq_relation_auto`] that additionally reports [`MaterialiseStats`]
/// — the instrumented entry point of the relation catalog.
pub fn rpq_relation_auto_with_stats<G: GraphView>(
    g: &G,
    nfa: &Nfa,
    scratch: &mut ReachScratch,
    threads: usize,
) -> (Relation, MaterialiseStats) {
    const SAMPLE: usize = 64;
    let mut stats = MaterialiseStats::default();
    let n = g.num_nodes();
    let t0 = Instant::now();
    // The probe sweeps `SAMPLE` sources spread evenly across the id range
    // — graphs often correlate structure with id order (generators emit
    // hubs first, loaders cluster by source), and a prefix would project
    // that bias onto the whole graph. A sampled source that cannot start
    // a path counts at zero cost. Its rows are only measured: the sweeps
    // redo them inside their blocks.
    if n > SAMPLE {
        let starts = PathStarts::new(nfa);
        let mut buf: Vec<u32> = Vec::new();
        let mut scans = 0usize;
        for i in 0..SAMPLE {
            let v = NodeId((i * n / SAMPLE) as u32);
            if starts.admits(g, v) {
                buf.clear();
                scans += sweep_append::<G, true>(g, nfa, v, scratch, &mut buf);
            }
        }
        stats.projected_scans = scans.saturating_mul(n) / SAMPLE;
        stats.closure_bound = (n + g.num_edges()) * nfa.num_states();
        if stats.projected_scans > 4 * stats.closure_bound {
            stats.path = MaterialisePath::Closure;
        }
    }
    stats.sweep_ms = elapsed_ms(t0);
    let rel = match stats.path {
        // The blocked closure degrades gracefully on any product size
        // (column blocks bound its matrix), so no memory gate here.
        MaterialisePath::Closure => closure_relation(g, nfa, CLOSURE_BLOCK_BUDGET_BITS, &mut stats),
        MaterialisePath::Sweeps => {
            let (threads, builder) = (effective_threads(threads), RelationBuilder::new(n));
            sweep_relation(g, nfa, scratch, threads, SWEEP_BLOCK, builder, &mut stats)
        }
    };
    stats.scratch_bytes += scratch.heap_bytes();
    (rel, stats)
}

/// Materialises the full RPQ relation by **bitset closure over the
/// product-graph condensation** instead of one BFS per source, with the
/// reach matrix capped per column block at `block_budget_bits`
/// ([`CLOSURE_BLOCK_BUDGET_BITS`] from [`rpq_relation_auto`]).
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
/// count. When everything fits one block, rows install straight from the
/// matrix; otherwise per-source accumulators assemble rows across blocks,
/// upgrading from sorted ids to dense bits at the usual `k·32 ≥ n` parity
/// point, so accumulation memory tracks the final relation's instead of
/// the worst-case `SCCs × |V|` bits.
pub fn rpq_relation_closure_blocked<G: GraphView>(
    g: &G,
    nfa: &Nfa,
    block_budget_bits: usize,
) -> Relation {
    closure_relation(g, nfa, block_budget_bits, &mut MaterialiseStats::default())
}

/// [`rpq_relation_closure_blocked`], adding its timings and working-set
/// bytes to `stats`.
fn closure_relation<G: GraphView>(
    g: &G,
    nfa: &Nfa,
    block_budget_bits: usize,
    stats: &mut MaterialiseStats,
) -> Relation {
    let t0 = Instant::now();
    let n = g.num_nodes();
    let mut builder = RelationBuilder::new(n);
    let ns = nfa.num_states();
    let pn = n * ns;
    if pn == 0 {
        return builder.finish(stats);
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
    drop(cursor);

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
    // Phase 2 reads only the SCC ids and the recipes: release the product
    // graph and the Tarjan arrays first.
    let tarjan_bytes = 8 * off.len() + 4 * (adj.len() + index.len() + lowlink.len() + pn);
    drop((off, adj, index, lowlink, stack, call));

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
    stats.scratch_bytes += tarjan_bytes.max(4 * pn + 8 * matrix.len());
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
                builder.push_words(v as u32, words, &mut idbuf);
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
                Accum::Ids(ids) => builder.push_ids(v as u32, &ids),
                Accum::Bits(bits) => builder.push_bits(v as u32, bits),
            }
        }
    }
    drop((scc_id, matrix));
    stats.sweep_ms += elapsed_ms(t0);
    let t1 = Instant::now();
    let rel = builder.finish(stats);
    stats.assembly_ms += elapsed_ms(t1);
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
        let rel = rpq_relation(&g, &nfa, &mut ReachScratch::new());
        assert_eq!(rel.iter().count(), 3); // (u,u), (u,v), (v,v)
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
        assert!((0..40).all(|u| !rel.forward(NodeId(u)).is_dense()));
        // a* on the same path: row of node 0 holds all 40 nodes → dense.
        let star = crpq_automata::parse_regex("a*", g.alphabet_mut()).unwrap();
        let rel = rpq_relation(&g, &Nfa::from_regex(&star), &mut ReachScratch::new());
        assert!(rel.forward(NodeId(0)).is_dense());
        assert_eq!(rel.forward(NodeId(0)).len(), 40);
        assert!(rel.contains(NodeId(0), NodeId(39)));
        assert!(!rel.contains(NodeId(39), NodeId(0)));
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
            let closure = rpq_relation_closure_blocked(&g, &nfa, CLOSURE_BLOCK_BUDGET_BITS);
            let per_source = rpq_relation(&g, &nfa, &mut ReachScratch::new());
            assert_eq!(closure, per_source, "seed {seed} expr {expr}");
            let auto = rpq_relation_auto(&g, &nfa, &mut ReachScratch::new(), 1);
            assert_eq!(auto, per_source, "seed {seed} expr {expr}");
        }
    }

    #[test]
    fn stats_record_the_path_and_its_working_set() {
        // `a*` around a 200-cycle sweeps the whole cycle from every source:
        // the probe projects far past the closure bound, and the closure's
        // scratch includes its product graph and Tarjan arrays.
        let mut g = crate::generators::labelled_cycle(200, &["a"]);
        let star = Nfa::from_regex(&parse_regex("a*", g.alphabet_mut()).unwrap());
        let mut scratch = ReachScratch::new();
        let (rel, stats) = rpq_relation_auto_with_stats(&g, &star, &mut scratch, 1);
        assert_eq!(rel.len(), 200 * 200);
        assert_eq!(stats.path, MaterialisePath::Closure);
        assert!(stats.projected_scans > 4 * stats.closure_bound);
        assert_eq!(stats.sources_swept, 0);
        let pn = 200 * star.num_states();
        assert!(
            stats.scratch_bytes >= scratch.heap_bytes() + 8 * (pn + 1) + 12 * pn,
            "closure scratch {} B omits the Tarjan working set",
            stats.scratch_bytes
        );
        // One step per source stays on the sweeps, one per node.
        let step = Nfa::from_regex(&parse_regex("a", g.alphabet_mut()).unwrap());
        let (rel, stats) = rpq_relation_auto_with_stats(&g, &step, &mut scratch, 2);
        assert_eq!(rel.len(), 200);
        assert_eq!(stats.path, MaterialisePath::Sweeps);
        assert!(stats.projected_scans <= 4 * stats.closure_bound);
        assert_eq!(stats.sources_swept, 200);
        assert_eq!(stats.assembly_ops, rel.assembly_ops());
    }

    #[test]
    fn node_indexed_cursors_wait_for_the_distinct_targets() {
        // A hub with an `a`-edge out to every node and a `b`-edge in from
        // every node: both relations hold n − 1 pairs, past the parity
        // point. `a` has n − 1 distinct targets and takes a cursor per
        // node; `b` has one and must not.
        let n = 10_000;
        let mut b = crate::db::GraphBuilder::anonymous(n);
        let (a, bl) = (b.label("a"), b.label("b"));
        for v in 1..n as u32 {
            b.edge_ids(NodeId(0), a, NodeId(v));
            b.edge_ids(NodeId(v), bl, NodeId(0));
        }
        let mut g = b.finish();
        let mut assemble = |expr: &str| {
            let nfa = Nfa::from_regex(&parse_regex(expr, g.alphabet_mut()).unwrap());
            let (rel, stats) = rpq_relation_auto_with_stats(&g, &nfa, &mut ReachScratch::new(), 2);
            assert_eq!(rel.len(), n - 1, "{expr}");
            (rel, stats.assembly_bytes)
        };
        let (fan_out, bytes) = assemble("a");
        assert!(bytes >= 8 * n, "{bytes} B: no cursor per node");
        assert_eq!(fan_out.backward(NodeId(7)).iter().collect::<Vec<_>>(), [0]);
        let (fan_in, bytes) = assemble("b");
        assert!(bytes <= 16 * (n - 1) + 8, "{bytes} B for one target");
        assert!(bytes < 8 * n, "{bytes} B: a cursor per node for one target");
        let col: Vec<usize> = fan_in.backward(NodeId(0)).iter().collect();
        assert_eq!(col, (1..n).collect::<Vec<_>>());
    }

    #[test]
    fn sources_that_cannot_start_a_path_are_skipped_exactly() {
        // 200 nodes, edges only among the first 20: most sources have no
        // edge at all, and `b`-edges leave only a few of them. A nullable
        // language keeps every source (the empty path); an anchored one
        // keeps only sources with an initial-symbol edge. Every entry path
        // must agree with the closure, which sweeps nothing per source.
        let mut b = crate::db::GraphBuilder::anonymous(200);
        let (a, bl) = (b.label("a"), b.label("b"));
        for i in 0..20u32 {
            b.edge_ids(NodeId(i), a, NodeId((i + 1) % 20));
            if i % 7 == 0 {
                b.edge_ids(NodeId(i), bl, NodeId(i + 3));
            }
        }
        let mut g = b.finish();
        for expr in ["a*", "b a*", "(b + a) a", "c a"] {
            let regex = crpq_automata::parse_regex(expr, g.alphabet_mut()).unwrap();
            let nfa = Nfa::from_regex(&regex);
            let closure = rpq_relation_closure_blocked(&g, &nfa, CLOSURE_BLOCK_BUDGET_BITS);
            assert_eq!(
                rpq_relation(&g, &nfa, &mut ReachScratch::new()),
                closure,
                "{expr}"
            );
            let swept = sweep_relation(
                &g,
                &nfa,
                &mut ReachScratch::new(),
                3,
                16,
                RelationBuilder::new(g.num_nodes()),
                &mut MaterialiseStats::default(),
            );
            assert_eq!(swept, closure, "{expr}");
            for threads in [1, 2] {
                let auto = rpq_relation_auto(&g, &nfa, &mut ReachScratch::new(), threads);
                assert_eq!(auto, closure, "{expr} threads {threads}");
            }
        }
        let nfa = Nfa::from_regex(&crpq_automata::parse_regex("a*", g.alphabet_mut()).unwrap());
        let rel = rpq_relation(&g, &nfa, &mut ReachScratch::new());
        assert!(
            rel.contains(NodeId(150), NodeId(150)),
            "ε keeps edgeless sources"
        );
    }

    #[test]
    fn reverse_assembly_is_touched_bounded_on_million_node_graph() {
        // The O(E_rel + touched) contract of `RelationBuilder::finish`: a relation
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
        // stays within a couple hundred KB: a single O(|V|) slot table
        // alone would be 4·10⁷ bytes.
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
            let mut builder = RelationBuilder::new(n);
            builder.push_ids(0, &ids);
            let rel = builder.finish(&mut MaterialiseStats::default());
            assert_eq!(
                rel.forward(NodeId(0)).is_dense(),
                expect_dense,
                "ids path, k = {k}"
            );
            let mut words = vec![0u64; n.div_ceil(64)];
            for &v in &ids {
                words[v as usize / 64] |= 1 << (v % 64);
            }
            let mut builder = RelationBuilder::new(n);
            builder.push_words(0, &words, &mut Vec::new());
            let rel = builder.finish(&mut MaterialiseStats::default());
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

    /// Sorts a lazy store's pair list by node id without promoting it —
    /// the reference layout a promoted store must read like.
    fn sort_lazy(store: &mut RowStore) {
        let RowIndex::Lazy { ids, kinds } = &mut store.index else {
            panic!("reference store must stay lazy");
        };
        sort_by_node(ids, kinds);
    }

    fn row_contents(row: RelationRow<'_>) -> (bool, Vec<usize>) {
        (row.is_dense(), row.iter().collect())
    }

    /// Asserts that `store` reads exactly like the sorted lazy `lazy`:
    /// every row, the touched-row order, and heap bytes that differ only
    /// by the slot table replacing the id list.
    fn assert_reads_like(store: &RowStore, lazy: &RowStore) {
        let n = store.n;
        for i in 0..n {
            assert_eq!(
                row_contents(store.row(i)),
                row_contents(lazy.row(i)),
                "row {i}"
            );
        }
        let touched = |s: &RowStore| -> Vec<(u32, (bool, Vec<usize>))> {
            s.touched_rows()
                .map(|(id, row)| (id, row_contents(row)))
                .collect()
        };
        assert_eq!(touched(store), touched(lazy), "touched_rows order");
        let k = lazy.touched_rows().count();
        let expect = match store.index {
            RowIndex::Direct { .. } => lazy.heap_bytes() - 4 * k + 4 * n,
            RowIndex::Lazy { .. } => lazy.heap_bytes(),
        };
        assert_eq!(store.heap_bytes(), expect, "heap bytes");
    }

    #[test]
    fn promoted_row_index_reads_like_the_lazy_one() {
        // Around the k·32 ≥ n promotion point: the promoted slot table
        // must answer every row, the touched order and the byte count
        // exactly like the sorted pair list it replaces — dense rows,
        // explicitly empty rows and rows pushed after promotion included.
        let n = 640usize;
        for k in [n / 32 - 1, n / 32, n / 32 + 1] {
            let mut store = RowStore::empty(n);
            // Install order is scrambled, as parallel workers leave it.
            for j in 0..k {
                let i = (j * 37 + 11) % n;
                match j % 3 {
                    0 => {
                        let mut bits = BitSet::new(n);
                        for v in [j, j + 1, 600] {
                            bits.insert(v);
                        }
                        store.push_dense(i, bits);
                    }
                    1 => store.push_sparse(i, &[]),
                    _ => store.push_sparse(i, &[1, j as u32 + 2, 639]),
                }
            }
            let mut lazy = store.clone();
            sort_lazy(&mut lazy);
            let sealed = store.seal();
            assert_eq!(
                matches!(store.index, RowIndex::Direct { .. }),
                k * 32 >= n,
                "promotion exactly at the parity point (k = {k})"
            );
            let lazy_ids: Vec<u32> = lazy.touched_rows().map(|(id, _)| id).collect();
            assert_eq!(sealed, lazy_ids, "seal returns the sorted touched ids");
            assert_eq!(store.seal(), lazy_ids, "sealing again is idempotent");
            assert_reads_like(&store, &lazy);

            // Rows installed after promotion land in fresh slots; a store
            // still lazy is resealed (and crosses the parity point).
            for target in [&mut store, &mut lazy] {
                target.push_sparse(5, &[7, 8]);
                let mut bits = BitSet::new(n);
                bits.insert(3);
                target.push_dense(n - 1, bits);
            }
            if matches!(store.index, RowIndex::Lazy { .. }) {
                store.seal();
            }
            sort_lazy(&mut lazy);
            assert_reads_like(&store, &lazy);
        }
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
        let mut builder = RelationBuilder::with_shard_cap(big, 7);
        for src in 0..6u32 {
            builder.push_ids(src, &[10, 20, 30]);
        }
        let rel = builder.finish(&mut MaterialiseStats::default());
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

    /// A graph of exactly `n` nodes over labels `a` and `b`: `m` seeded
    /// random edges and, with `hub`, node 0 linked both ways to every
    /// node — which gives dense rows and dense columns.
    fn builder_graph(n: usize, m: usize, hub: bool, seed: u64) -> GraphDb {
        let mut b = GraphBuilder::anonymous(n);
        let (a, bl) = (b.label("a"), b.label("b"));
        let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut next = |k: usize| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x % k as u64) as u32
        };
        if n > 0 {
            for _ in 0..m {
                let (u, l, v) = (next(n), if next(3) == 0 { bl } else { a }, next(n));
                b.edge_ids(NodeId(u), l, NodeId(v));
            }
        }
        if hub {
            for v in 1..n as u32 {
                b.edge_ids(NodeId(0), a, NodeId(v));
                b.edge_ids(NodeId(v), bl, NodeId(0));
            }
        }
        b.finish()
    }

    /// The heap bytes the row layout must give a relation whose forward
    /// rows are `rows`: per direction a pair list (or, past the parity
    /// point, a slot per node) with a row kind per touched row, `4·k`
    /// bytes per sparse row and `n` bits per dense one, plus the cached
    /// source and target sets.
    fn expected_heap_bytes(n: usize, rows: &[Vec<usize>]) -> usize {
        let mut cols = vec![0usize; n];
        for v in rows.iter().flatten() {
            cols[*v] += 1;
        }
        let side = |degrees: &mut dyn Iterator<Item = usize>| {
            let (mut touched, mut payload) = (0, 0);
            for k in degrees.filter(|&k| k > 0) {
                touched += 1;
                payload += if dense_row(k, n) {
                    8 * n.div_ceil(64)
                } else {
                    4 * k
                };
            }
            let (index, set) = if dense_row(touched, n) {
                (4 * n, 8 * n.div_ceil(64))
            } else {
                (4 * touched, 4 * touched)
            };
            index + std::mem::size_of::<RowKind>() * touched + payload + set
        };
        side(&mut rows.iter().map(Vec::len)) + side(&mut cols.into_iter())
    }

    /// Checks `rel` against per-source oracle rows: every forward row, the
    /// transpose of the backward rows, source and target sets, `len` and
    /// the layout's heap bytes.
    fn check_against_oracle(rel: &Relation, oracle: &[Vec<usize>]) -> Result<(), String> {
        let n = oracle.len();
        let mut columns = vec![Vec::new(); n];
        for (u, row) in oracle.iter().enumerate() {
            let got: Vec<usize> = rel.forward(NodeId(u as u32)).iter().collect();
            proptest::prop_assert_eq!(&got, row, "forward row {}", u);
            for &v in row {
                columns[v].push(u);
            }
        }
        for (v, col) in columns.iter().enumerate() {
            let got: Vec<usize> = rel.backward(NodeId(v as u32)).iter().collect();
            proptest::prop_assert_eq!(&got, col, "backward row {}", v);
        }
        let non_empty = |rows: &[Vec<usize>]| -> Vec<usize> {
            (0..n).filter(|&i| !rows[i].is_empty()).collect()
        };
        proptest::prop_assert_eq!(
            rel.source_set().iter().collect::<Vec<_>>(),
            non_empty(oracle)
        );
        proptest::prop_assert_eq!(
            rel.target_set().iter().collect::<Vec<_>>(),
            non_empty(&columns)
        );
        proptest::prop_assert_eq!(rel.len(), oracle.iter().map(Vec::len).sum::<usize>());
        proptest::prop_assert_eq!(rel.heap_bytes(), expected_heap_bytes(n, oracle));
        Ok(())
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(48))]

        /// Every way a relation is built — the block sweeps at a small
        /// test block size on 1, 2 and 3 workers with a small shard
        /// capacity, the one-thread `rpq_relation`, `rpq_reach_all` over
        /// the sources in descending order, and the cost-adaptive entry
        /// point — equals the per-source `rpq_reach` oracle row for row in
        /// both directions, with the same sets, length and heap bytes.
        #[test]
        fn relation_builder_matches_per_source_oracle(seed in 0u64..1_000_000, shape in 0usize..12) {
            const BLOCK: usize = 16;
            // The last two shapes have few random edges: without the hub
            // the pairs stay below n/32, and with it `a* b` has many pairs
            // but few distinct targets
            // (`node_indexed_cursors_wait_for_the_distinct_targets` pins
            // that case).
            let (n, m, hub) = [
                (0, 0, false),
                (5, 15, true),
                (BLOCK - 1, 3 * BLOCK - 3, false),
                (BLOCK, 3 * BLOCK, true),
                (BLOCK + 1, 3 * BLOCK + 3, false),
                (3 * BLOCK - 1, 9 * BLOCK - 3, true),
                (3 * BLOCK, 9 * BLOCK, false),
                (3 * BLOCK + 1, 9 * BLOCK + 3, true),
                (200, 600, false),
                (200, 600, true),
                (2000, 12, false),
                (640, 6, true),
            ][shape];
            let mut g = builder_graph(n, m, hub, seed);
            // `a* b` on a hub graph: many pairs, few distinct targets.
            let exprs = ["a (a+b)*", "(a b)*", "a*", "b a", "b* a", "a* b", "c a", "∅"];
            let expr = exprs[seed as usize % exprs.len()];
            let nfa = Nfa::from_regex(&parse_regex(expr, g.alphabet_mut()).unwrap());
            let oracle: Vec<Vec<usize>> =
                g.nodes().map(|u| rpq_reach(&g, &nfa, u).iter().collect()).collect();

            // Sparse rows hold fewer than n/32 ids, so the small capacity
            // fits any row and still splits both directions into shards.
            let admitted = g.nodes().filter(|&v| PathStarts::new(&nfa).admits(&g, v)).count();
            for (threads, cap) in [1, 2, 3].into_iter().flat_map(|t| [(t, n / 32 + 1), (t, SHARD_CAP)]) {
                let mut stats = MaterialiseStats::default();
                let rel = sweep_relation(
                    &g,
                    &nfa,
                    &mut ReachScratch::new(),
                    threads,
                    BLOCK,
                    RelationBuilder::with_shard_cap(n, cap),
                    &mut stats,
                );
                check_against_oracle(&rel, &oracle)
                    .map_err(|e| format!("{expr}, n {n}, threads {threads}, cap {cap}: {e}"))?;
                for store in [&rel.fwd, &rel.rev] {
                    let ids: usize = store.shards.iter().map(Vec::len).sum();
                    proptest::prop_assert!(store.shards.iter().all(|s| s.len() <= cap));
                    proptest::prop_assert!(ids <= cap || store.shards.len() > 1);
                }
                proptest::prop_assert_eq!(stats.sources_swept, admitted);
                // Assembly transients are O(pairs), plus a cursor per
                // node only once the distinct targets pass the parity point.
                let t = rel.target_set().len();
                let cursors = if dense_row(t, n) { 8 * n } else { 0 };
                proptest::prop_assert!(stats.assembly_bytes <= 16 * rel.len() + 8 + cursors);
            }
            let descending = (0..n as u32).rev().map(NodeId);
            let relations = [
                rpq_relation(&g, &nfa, &mut ReachScratch::new()),
                rpq_reach_all(&g, &nfa, descending, &mut ReachScratch::new()),
                rpq_relation_auto(&g, &nfa, &mut ReachScratch::new(), 1),
                rpq_relation_auto(&g, &nfa, &mut ReachScratch::new(), 3),
            ];
            for rel in &relations {
                check_against_oracle(rel, &oracle).map_err(|e| format!("{expr}, n {n}: {e}"))?;
            }
        }
    }
}
