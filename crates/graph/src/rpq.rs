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
//!   implemented as one backtracking DFS over `(node, NFA state-set)`,
//!   [`search_simple`], with a visited set. What depends only on the
//!   automaton ([`LiveStates`]) is computed once per automaton and the
//!   buffers ([`SimplePathScratch`]) are pooled by the caller, so a search
//!   costs what it scans; the path and cycle functions are one-off
//!   wrappers over it;
//! * **trails** (no repeated edge) — the edge-injective variant discussed in
//!   the paper's outlook (§7), provided as an extension: one DFS,
//!   [`for_each_trail`], that reads the same [`LiveStates`] and pools its
//!   buffers in a caller's [`TrailScratch`].
//!
//! Each search keeps one visited set, and the caller owns it:
//! [`search_simple`] takes the set of nodes no path may pass through
//! (endpoints are exempt) and [`for_each_trail`] the set of edges no trail
//! may use. The search adds its path to the set while extending it, hands
//! the set to `visit`, and restores it exactly before returning. A search
//! run from inside `visit` on the same set therefore keeps off the outer
//! path, which is all the query-injective (and query-trail) placement
//! needs to keep the paths of different atoms internally node- (edge-)
//! disjoint. The one-off path and cycle wrappers take a read-only
//! `blocked` set and copy it once.
//!
//! # Graphs are read through [`GraphView`]
//!
//! Every sweep and materialiser here is generic over
//! `G: `[`GraphView`] rather than taking a concrete
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
//! * The [`ReachScratch`] visited set is density-adaptive — a sparse
//!   epoch-stamped map until a sweep has visited `universe / 8` states,
//!   the classic dense stamp array after (allocated at most once, shrunk
//!   back by [`ReachScratch::shrink_to`]). A low-output sweep over a
//!   `10⁷ · |Q|` product costs bytes proportional to its visit count, per
//!   worker thread.
//! * Each direction of a [`Relation`] is one CSR over its **touched**
//!   rows: the touched ids (the source or target set), one offset per
//!   touched row, the sparse rows' ids and the dense rows' bitsets. A row
//!   is found by binary search over the touched ids, or by a per-word rank
//!   table once they pass the `k·32 ≥ |V|` parity point that also governs
//!   dense rows; an untouched node costs nothing, so [`Relation::empty`]
//!   allocates nothing at any |V| and [`Relation::heap_bytes`] reports
//!   exactly what the layout allocates.
//! * The materialiser installs its forward rows, in ascending source
//!   order, through one `RelationBuilder`, whose `finish` builds the
//!   backward CSR by one counting sort over the forward pairs,
//!   bucketed by each target's rank in the target set, so a relation
//!   touching t of 10⁷ nodes never scans `0..|V|`
//!   ([`Relation::assembly_ops`] is the pinned observable,
//!   [`MaterialiseStats::assembly_bytes`] the transient).
//! * [`rpq_relation`] is the one materialiser: per-source sweeps, whose
//!   workers claim fixed-size blocks of source ids, each swept into one
//!   flat buffer and installed in block order so forward rows arrive
//!   sorted by source. It reports the per-materialisation
//!   [`MaterialiseStats`] the scale benchmarks persist.
//!
//! Node-name storage (the third `O(|V|)` wall at this scale) is handled in
//! [`crate::db`]: arena-interned names or the fully name-free `Anonymous`
//! mode for generated workloads.
//!
//! # One view of every id set
//!
//! A set of node ids is stored sorted-`u32` while sparse and as a bitset
//! once `k·32 ≥ |V|`, and every such set is read through one borrowed
//! view, [`RelationRow`]: relation rows, a relation's source and target
//! sets, and the owned [`NodeSet`] (the join's semi-join domains, the
//! CSRs' touched ids) through [`NodeSet::row`]. `NodeSet` itself only
//! builds and intersects.

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
/// every stamp at once. The product states are the scratch's only visited
/// set: a collecting sweep ([`rpq_reach_collect`]) pushes a node on every
/// fresh final-state visit and dedupes its sorted output in place, so it
/// keeps no per-node stamps.
///
/// # Density-adaptive visited set — the O(touched) sweep contract
///
/// A sweep starts on a sparse epoch-stamped hash map (`state → epoch`) and
/// migrates to the dense `|V|·|Q|` stamp array only once it has visited
/// more than 1/8 of the product (`SPARSE_VISIT_FACTOR`), so a
/// low-output sweep costs memory proportional to the states it touches,
/// on every worker. The dense array is allocated at most once per scratch
/// and then serves any sweep it covers; [`Self::shrink_to`] releases it
/// after a one-off huge graph.
///
/// At epoch wraparound (every 2³² sweeps) the stamp array is zeroed and
/// the sparse map dropped, so no stamp from 2³² sweeps ago can alias the
/// fresh epoch.
#[derive(Clone, Debug, Default)]
pub struct ReachScratch {
    stamps: Vec<u32>,
    /// Sparse visited map (`state → epoch`) for sweeps below the dense
    /// threshold. Entries persist across sweeps (stale epochs read as
    /// unvisited) and are purged once they dominate the live ones, so a
    /// long run of small sweeps keeps the map at O(per-sweep visits) — the
    /// map is dropped entirely on migration and at wrap.
    sparse_states: FxHashMap<u32, u32>,
    /// States visited by the **current** sweep (the densification trigger
    /// — stale map entries must not count toward it, or a long run of tiny
    /// sweeps would eventually migrate to a dense array it never needed).
    live_states: usize,
    /// Universe size of the current sweep (set by `begin`).
    state_universe: usize,
    /// Whether the current sweep reads the dense array.
    dense_states: bool,
    epoch: u32,
    queue: VecDeque<(NodeId, StateId)>,
}

impl ReachScratch {
    /// A fresh, empty scratch pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// Prepares for a sweep over `size` product states: invalidates all
    /// previous stamps and picks the visited representation (dense if the
    /// stamp array already covers the sweep — its reset is O(1) — sparse
    /// otherwise).
    fn begin(&mut self, size: usize) {
        self.state_universe = size;
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            // Wrapped: stamps from 2³² sweeps ago could alias the fresh
            // epoch.
            self.stamps.fill(0);
            self.sparse_states.clear();
            self.epoch = 1;
        }
        self.dense_states = self.stamps.len() >= size;
        assert!(
            self.dense_states || size <= u32::MAX as usize,
            "product exceeds u32 sweep state ids — shard the graph"
        );
        self.live_states = 0;
        self.queue.clear();
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

    /// Migrates the current sweep's visited states into the dense stamp
    /// array (growing it to the sweep's universe) and drops the map. Runs
    /// at most once per universe size; later sweeps go dense from `begin`.
    #[cold]
    fn densify_states(&mut self) {
        let size = self.state_universe;
        if self.stamps.len() < size {
            self.stamps.resize(size, 0);
        }
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

    /// Approximate heap bytes currently held (stamp array, sparse visited
    /// map, work queue) — the per-worker term the scale benchmarks record
    /// as `scratch_bytes`.
    pub fn heap_bytes(&self) -> usize {
        4 * self.stamps.capacity()
            + self.sparse_states.capacity() * (std::mem::size_of::<(u32, u32)>() + 1)
            + self.queue.capacity() * std::mem::size_of::<(NodeId, StateId)>()
    }

    /// Releases memory beyond `max_states` entries per buffer (stamp
    /// array, sparse visited map, work queue): the retention policy
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
        }
        if self.sparse_states.capacity() > max_states {
            self.sparse_states = FxHashMap::default();
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
///
/// The BFS iterates NFA transitions first and graph edges second: for each
/// frontier state `(v, q)` and each transition `q -a-> q'`, the `a`-targets
/// of `v` come from `v`'s adjacency row as one contiguous slice
/// ([`GraphDb::successors_slice`](crate::db::GraphDb::successors_slice)),
/// so nodes with large mixed-label edge lists are never scanned
/// label-by-label.
pub fn rpq_reach<G: GraphView>(g: &G, nfa: &Nfa, src: NodeId) -> BitSet {
    let ns = nfa.num_states();
    let mut result = g.node_set();
    let mut scratch = ReachScratch::new();
    scratch.begin(g.num_nodes() * ns);
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
    result
}

/// [`rpq_reach`] variant for bulk materialisation with a caller-provided,
/// reusable `scratch`: reached nodes are collected (sorted, deduplicated)
/// into `out` instead of a bitset — a node is pushed once per final state
/// it is reached in, then the sorted run is deduped in place — so a sweep
/// whose output is small never touches `O(|V|/64)` words of clear/scan.
/// Returns the number of graph-edge scans the sweep performed.
pub fn rpq_reach_collect<G: GraphView>(
    g: &G,
    nfa: &Nfa,
    src: NodeId,
    scratch: &mut ReachScratch,
    out: &mut Vec<u32>,
) -> usize {
    out.clear();
    sweep_append::<G, true, false>(g, nfa, src, scratch, out)
}

/// The backward twin of [`rpq_reach_collect`]: collects into `out`
/// (sorted, deduplicated) the nodes `u` such that some `u → dst` path has
/// its label in `L(nfa)`, where `nfa_rev` recognises the *mirror*
/// language ([`Nfa::reverse`]), and returns the graph-edge scans.
///
/// Equivalent to collecting `rpq_reach(&g.reversed(), nfa_rev, dst)`, but
/// it walks the incoming adjacency the graph already carries
/// ([`GraphView::predecessors`]), so no reversed graph is built and
/// nothing is sized by `|V|` below the sweep's dense threshold.
pub fn rpq_reach_collect_back<G: GraphView>(
    g: &G,
    nfa_rev: &Nfa,
    dst: NodeId,
    scratch: &mut ReachScratch,
    out: &mut Vec<u32>,
) -> usize {
    out.clear();
    sweep_append::<G, true, true>(g, nfa_rev, dst, scratch, out)
}

/// The collecting sweep behind [`rpq_reach_collect`] and
/// [`rpq_reach_collect_back`]: appends the nodes reached from `src` — over
/// out-edges, or over in-edges when `BACK` — to `out` (sorted and
/// deduplicated among themselves) and returns the graph-edge scans when
/// `COUNT`, 0 otherwise; the bulk sweeps skip the count.
fn sweep_append<G: GraphView, const COUNT: bool, const BACK: bool>(
    g: &G,
    nfa: &Nfa,
    src: NodeId,
    scratch: &mut ReachScratch,
    out: &mut Vec<u32>,
) -> usize {
    let ns = nfa.num_states();
    let start = out.len();
    scratch.begin(g.num_nodes() * ns);
    let mut edge_scans = 0;
    for q in nfa.initials().iter() {
        if scratch.visit(src.index() * ns + q) {
            scratch.queue.push_back((src, q as StateId));
            if nfa.is_final(q as StateId) {
                out.push(src.0);
            }
        }
    }
    while let Some((v, q)) = scratch.queue.pop_front() {
        for &(sym, q2) in nfa.transitions_from(q) {
            let next = if BACK {
                g.predecessors(v, sym)
            } else {
                g.successors(v, sym)
            };
            for to in next {
                if COUNT {
                    edge_scans += 1;
                }
                if scratch.visit(to.index() * ns + q2 as usize) {
                    if nfa.is_final(q2) {
                        out.push(to.0);
                    }
                    scratch.queue.push_back((to, q2));
                }
            }
        }
    }
    // A node reached in several final states was pushed once per state.
    out[start..].sort_unstable();
    let mut kept = start;
    for read in start..out.len() {
        if kept == start || out[read] != out[kept - 1] {
            out[kept] = out[read];
            kept += 1;
        }
    }
    out.truncate(kept);
    edge_scans
}

/// Borrowed, read-only view of one set of node ids, stored
/// **adaptively** — a sorted-`u32` slice while sparse, a bitset over the
/// whole universe once dense — and the one type every id set is read
/// through: a row of a materialised [`Relation`] (`forward(u)` /
/// `backward(v)`, a span of its flat CSR buffer or one of its dense
/// rows), a relation's source and target sets, and a [`NodeSet`] domain
/// ([`NodeSet::row`]). A dense set costs `n` bits, a sparse one `32·k`
/// bits, so the switch point is `k·32 ≥ n`; on label-sparse graphs most
/// rows stay far below it, which is what keeps full relation
/// materialisation affordable past `|V| = 10⁴` (dense rows alone are
/// `O(|V|²/64)` words per relation, and per-row heap allocations would
/// dominate sparse materialisation).
#[derive(Clone, Copy, Debug)]
pub enum RelationRow<'a> {
    /// Sorted node ids (strictly ascending).
    Sparse(&'a [u32]),
    /// Bitset over all `n` nodes.
    Dense(&'a BitSet),
}

impl<'a> RelationRow<'a> {
    /// Number of ids — `O(1)` sparse, but `O(|V|/64)` dense
    /// ([`BitSet::len`] popcounts the whole universe), so hot loops
    /// should record it once.
    pub fn len(&self) -> usize {
        match self {
            RelationRow::Sparse(ids) => ids.len(),
            RelationRow::Dense(b) => b.len(),
        }
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        match self {
            RelationRow::Sparse(ids) => ids.is_empty(),
            RelationRow::Dense(b) => b.is_empty(),
        }
    }

    /// Whether the set uses the dense representation.
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

    /// Whether the two sets share an id — the semi-join fixpoint test.
    /// Two sparse sets walk the smaller and binary-search the larger, a
    /// sparse set probes a dense one id by id, and two dense sets AND
    /// their words; nothing allocates.
    pub fn intersects(&self, other: &RelationRow<'_>) -> bool {
        match (*self, *other) {
            (RelationRow::Sparse(a), RelationRow::Sparse(b)) => {
                let (probe, table) = if a.len() <= b.len() { (a, b) } else { (b, a) };
                probe.iter().any(|v| table.binary_search(v).is_ok())
            }
            (RelationRow::Sparse(ids), RelationRow::Dense(bits))
            | (RelationRow::Dense(bits), RelationRow::Sparse(ids)) => {
                ids.iter().any(|&v| bits.contains(v as usize))
            }
            (RelationRow::Dense(a), RelationRow::Dense(b)) => a.intersects(b),
        }
    }

    /// The smallest id `≥ from`, if any: `O(log k)` on sparse sets (binary
    /// search from the start), `O(words to the hit)` on dense ones (word
    /// scan). The reference [`Self::seek`] is checked against.
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

    /// The smallest id `≥ target`, if any, resuming from `*pos` — the one
    /// seek of the leapfrog intersection in `crpq-core`'s join search (the
    /// `wcoj` module, the engine's one join executor), whose operands are
    /// all views, each with its own position.
    ///
    /// A sparse set gallops forward from `*pos` (probes at `pos + 1`,
    /// `+ 2`, `+ 4`, … until one reaches `target`, then a binary search of
    /// the last gap) and leaves `*pos` at the index of the answer
    /// (`k` when there is none). A run of non-decreasing targets through
    /// one position therefore costs `O(log gap)` per seek rather than
    /// `O(log k)`. A dense set word-scans from `target` and leaves `*pos`
    /// alone.
    ///
    /// `*pos` must not be past the answer: start it at 0 and seek a row
    /// through one position with non-decreasing targets only.
    #[inline]
    pub fn seek(&self, pos: &mut usize, target: usize) -> Option<usize> {
        match self {
            RelationRow::Sparse(ids) => {
                let below = |i: usize| (ids[i] as usize) < target;
                let mut at = *pos;
                debug_assert!(at == 0 || below(at - 1), "sparse seek past its answer");
                if at < ids.len() && below(at) {
                    // `ids[at] < target`: double the step until a probe
                    // reaches `target` or the end, then search the gap.
                    let mut step = 1;
                    let mut probe = at + 1;
                    while probe < ids.len() && below(probe) {
                        at = probe;
                        step *= 2;
                        probe = at + step;
                    }
                    let gap = &ids[at + 1..probe.min(ids.len())];
                    at += 1 + gap.partition_point(|&v| (v as usize) < target);
                }
                *pos = at;
                ids.get(at).map(|&v| v as usize)
            }
            RelationRow::Dense(b) => b.first_at_or_after(target),
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
/// `k·32 ≥ n` (the parity point of [`RelationRow`] — a `u32` id costs 32
/// bits, a bitset slot one). It is read only through [`NodeSet::row`].
///
/// This is the semi-join **domain** representation of the join engine: a
/// per-variable candidate set starts at `V`, is cut down by atom
/// source/target sets and relation rows, and then joins the leapfrog
/// intersection as one more view. It is also the touched-id set of each
/// [`Relation`] direction.
/// With dense `|V|`-bit sets every rebuild costs `O(|V|/64)` regardless
/// of how few candidates survive; adaptively sparse sets make domain
/// storage and pruning work `O(candidates)`, which is what keeps the join
/// affordable at `|V| = 10⁵` where domains are almost always tiny after
/// pruning.
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

    /// The set's read view.
    #[inline]
    pub fn row(&self) -> RelationRow<'_> {
        match self {
            NodeSet::Sparse { ids, .. } => RelationRow::Sparse(ids),
            NodeSet::Dense(b) => RelationRow::Dense(b),
        }
    }

    /// `self ∩= other` over the same universe, then re-picks the
    /// representation: a sparse set keeps the ids `other` contains (a
    /// merge walk against a sparse operand), a dense one masks its words.
    pub fn intersect_with(&mut self, other: RelationRow<'_>) {
        match (&mut *self, other) {
            (NodeSet::Sparse { ids, .. }, RelationRow::Sparse(sorted)) => {
                let mut j = 0;
                ids.retain(|&v| {
                    while j < sorted.len() && sorted[j] < v {
                        j += 1;
                    }
                    j < sorted.len() && sorted[j] == v
                });
            }
            (NodeSet::Sparse { ids, .. }, RelationRow::Dense(bits)) => {
                ids.retain(|&v| bits.contains(v as usize));
            }
            (NodeSet::Dense(b), RelationRow::Sparse(sorted)) => b.intersect_with_sorted(sorted),
            (NodeSet::Dense(b), RelationRow::Dense(bits)) => b.intersect_with(bits),
        }
        self.normalize();
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
                    let mut ids = Vec::with_capacity(k);
                    ids.extend(b.iter().map(|v| v as u32));
                    *self = NodeSet::Sparse { ids, universe: n };
                }
            }
        }
    }

    /// Heap bytes of the ids or the bitset.
    fn heap_bytes(&self) -> usize {
        match self {
            NodeSet::Sparse { ids, .. } => 4 * ids.capacity(),
            NodeSet::Dense(bits) => bits.heap_bytes(),
        }
    }
}

/// One direction of a [`Relation`] in compressed sparse row form over the
/// **touched** rows only, so an untouched node costs nothing and nothing
/// is sized by `|V|` below the `k·32 ≥ |V|` parity point.
///
/// `rows` holds the touched ids, which are exactly the relation's source
/// (or target) set; a row is addressed by its **rank** among them. While
/// `rows` is sparse the rank is a binary search over the sorted ids; once
/// it is dense, `ranks` holds per-word prefix popcounts and a rank is one
/// word lookup and one popcount. The row of rank `r` spans
/// `ids[offsets[r]..offsets[r + 1]]`, except that a dense row keeps its
/// bitset in `dense`, keyed by rank, and an empty span: a touched row is
/// never empty, so an empty span marks a dense row.
#[derive(Clone, Debug)]
struct Csr {
    rows: NodeSet,
    /// `ranks[w]` = touched ids below `64·w`; empty while `rows` is sparse.
    ranks: Vec<u32>,
    /// One offset per touched row plus one; empty when nothing is touched.
    offsets: Vec<usize>,
    ids: Vec<u32>,
    /// Dense rows by ascending touched rank.
    dense: Vec<(u32, BitSet)>,
}

impl Csr {
    /// A CSR over the touched `rows`, with no row installed yet: the
    /// rank table is computed when `rows` is dense, and a sparse id list
    /// is trimmed to its length.
    fn new(mut rows: NodeSet) -> Self {
        let ranks = match &mut rows {
            NodeSet::Sparse { ids, .. } => {
                ids.shrink_to_fit();
                Vec::new()
            }
            NodeSet::Dense(bits) => {
                let mut below = 0;
                let prefix = |w: &u64| {
                    let rank = below;
                    below += w.count_ones();
                    rank
                };
                bits.words().iter().map(prefix).collect()
            }
        };
        Csr {
            rows,
            ranks,
            offsets: Vec::new(),
            ids: Vec::new(),
            dense: Vec::new(),
        }
    }

    /// The rank of `v` among the touched ids, if it is touched.
    #[inline]
    fn rank(&self, v: usize) -> Option<usize> {
        match &self.rows {
            NodeSet::Sparse { ids, .. } => ids.binary_search(&(v as u32)).ok(),
            NodeSet::Dense(bits) => bits.contains(v).then(|| {
                let below = bits.words()[v / 64] & ((1u64 << (v % 64)) - 1);
                self.ranks[v / 64] as usize + below.count_ones() as usize
            }),
        }
    }

    /// The row of rank `r`.
    #[inline]
    fn row_at(&self, r: usize) -> RelationRow<'_> {
        let (lo, hi) = (self.offsets[r], self.offsets[r + 1]);
        if lo < hi {
            return RelationRow::Sparse(&self.ids[lo..hi]);
        }
        let d = self.dense.partition_point(|&(k, _)| (k as usize) < r);
        RelationRow::Dense(&self.dense[d].1)
    }

    /// The row of node `v` — empty when `v` is untouched.
    #[inline]
    fn row(&self, v: usize) -> RelationRow<'_> {
        self.rank(v)
            .map_or(RelationRow::Sparse(&[]), |r| self.row_at(r))
    }

    /// Iterates the touched rows as `(node id, row)` in ascending node
    /// order — O(touched), never a `0..n` scan.
    fn touched_rows(&self) -> impl Iterator<Item = (u32, RelationRow<'_>)> + '_ {
        self.rows
            .row()
            .iter()
            .enumerate()
            .map(|(r, v)| (v as u32, self.row_at(r)))
    }

    /// Calls `f(u, v)` for every pair, rows in ascending order.
    fn each_pair(&self, mut f: impl FnMut(u32, usize)) {
        for (u, row) in self.touched_rows() {
            match row {
                RelationRow::Sparse(ids) => ids.iter().for_each(|&v| f(u, v as usize)),
                RelationRow::Dense(bits) => bits.iter().for_each(|v| f(u, v)),
            }
        }
    }

    /// Heap bytes allocated by the touched set, its rank table, the
    /// offsets, the ids and the dense rows.
    fn heap_bytes(&self) -> usize {
        let rows = self.rows.heap_bytes();
        let dense: usize = self.dense.iter().map(|(_, b)| b.heap_bytes()).sum();
        rows + dense
            + 4 * self.ranks.capacity()
            + std::mem::size_of::<usize>() * self.offsets.capacity()
            + 4 * self.ids.capacity()
            + std::mem::size_of::<(u32, BitSet)>() * self.dense.capacity()
    }
}

/// A fully materialised binary relation over the nodes of a graph — the
/// result set of an RPQ atom under standard semantics, indexed both ways:
/// `forward(u)` is the row of `v` with `(u, v)` in the relation, and
/// `backward(v)` the row of `u`. Both directions are what the join-based
/// CRPQ evaluator intersects during semi-join pruning and the leapfrog
/// candidate enumeration. Each direction is one CSR over its touched rows
/// with density-adaptive rows ([`RelationRow`]); its touched ids are the
/// source (or target) set, so [`Relation::source_set`] /
/// [`Relation::target_set`] are O(1) lookups rather than full scans.
#[derive(Clone, Debug)]
pub struct Relation {
    /// Number of nodes the relation ranges over.
    n: usize,
    fwd: Csr,
    rev: Csr,
    len: usize,
    /// Loop iterations of the backward-index assembly — the observable
    /// the O(E_rel + touched) assembly contract is pinned by (regression
    /// tests assert it stays ≪ |V| on sparse relations over huge graphs).
    assembly_ops: usize,
}

/// Equality is **semantic** — same pair set, regardless of row
/// representation (sparse vs. dense) — so relations from different
/// materialisers compare equal exactly when they denote the same RPQ
/// result.
impl PartialEq for Relation {
    fn eq(&self, other: &Self) -> bool {
        // Pairs in `(source, target)` order — O(touched + len), so
        // equality checks on sparse relations over huge graphs never scan
        // `0..n`.
        self.n == other.n && self.len == other.len && self.iter().eq(other.iter())
    }
}

impl Eq for Relation {}

impl Relation {
    /// The empty relation over `n` nodes — **O(1)**: both CSRs are sized
    /// by their touched rows, so creating (and discarding) a relation on a
    /// 10⁷-node graph allocates nothing.
    pub fn empty(n: usize) -> Self {
        Relation {
            n,
            fwd: Csr::new(NodeSet::empty(n)),
            rev: Csr::new(NodeSet::empty(n)),
            len: 0,
            assembly_ops: 0,
        }
    }

    /// Number of nodes the relation ranges over.
    pub fn num_nodes(&self) -> usize {
        self.n
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

    /// The set of sources (`u` with at least one pair) — O(1): the
    /// touched rows of the forward CSR, density-adaptive.
    pub fn source_set(&self) -> RelationRow<'_> {
        self.fwd.rows.row()
    }

    /// The set of targets (`v` with at least one pair) — O(1): the
    /// touched rows of the backward CSR, density-adaptive.
    pub fn target_set(&self) -> RelationRow<'_> {
        self.rev.rows.row()
    }

    /// Iterates all pairs in `(source, target)` order — O(touched + len),
    /// never a `0..|V|` scan.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        self.fwd
            .touched_rows()
            .flat_map(move |(u, row)| row.iter().map(move |v| (NodeId(u), NodeId(v as u32))))
    }

    /// Heap bytes allocated by both CSRs — the peak-RSS proxy the scale
    /// benchmarks record: 0 for an empty relation, O(touched + pairs) for
    /// a sparse one. Every buffer is sized exactly, so this is also what
    /// the allocator holds.
    pub fn heap_bytes(&self) -> usize {
        self.fwd.heap_bytes() + self.rev.heap_bytes()
    }

    /// Loop iterations of the backward-index assembly
    /// (`RelationBuilder::finish`): `O(E_rel + touched targets)`, nothing
    /// scaling with `|V|`; the scale regression tests pin this on 10⁶- and
    /// 10⁷-node graphs whose relation touches ~10² nodes.
    pub fn assembly_ops(&self) -> usize {
        self.assembly_ops
    }
}

/// Assembles a [`Relation`] from its forward rows. Rows arrive in
/// strictly ascending source order, at most one per source: the sweeps
/// install their blocks in block order. [`Self::finish`] builds the
/// backward CSR.
#[derive(Default)]
struct RelationBuilder {
    n: usize,
    /// The forward CSR's parts: touched sources, offsets, sparse ids and
    /// dense rows by rank.
    sources: Vec<u32>,
    offsets: Vec<usize>,
    ids: Vec<u32>,
    dense: Vec<(u32, BitSet)>,
    len: usize,
}

impl RelationBuilder {
    fn new(n: usize) -> Self {
        RelationBuilder {
            n,
            ..Self::default()
        }
    }

    /// Sizes the buffers of a fresh builder for `rows` rows holding at
    /// most `ids` ids; [`Self::finish`] trims what dense rows leave unused.
    fn reserve_exact(&mut self, rows: usize, ids: usize) {
        self.sources.reserve_exact(rows);
        self.offsets.reserve_exact(rows + 1);
        self.ids.reserve_exact(ids);
    }

    /// Installs the forward row of `src`, which must come after every row
    /// so far, from strictly ascending ids, stored dense past the
    /// `k·32 ≥ n` parity point. An empty row installs nothing.
    fn push_ids(&mut self, src: u32, ids: &[u32]) {
        debug_assert!(ids.windows(2).all(|w| w[0] < w[1]), "ids must be sorted");
        if ids.is_empty() {
            return;
        }
        assert!(
            self.sources.last().is_none_or(|&last| last < src),
            "relation rows must arrive in strictly ascending source order"
        );
        if self.offsets.is_empty() {
            self.offsets.push(0);
        }
        self.sources.push(src);
        if dense_row(ids.len(), self.n) {
            let mut bits = BitSet::new(self.n);
            for &v in ids {
                bits.insert(v as usize);
            }
            self.dense.push((self.sources.len() as u32 - 1, bits));
        } else {
            self.ids.extend_from_slice(ids);
        }
        self.offsets.push(self.ids.len());
        self.len += ids.len();
    }

    /// Seals the forward CSR and builds the backward one by one counting
    /// sort of the forward pairs, bucketed by each target's rank in the
    /// target set: a degree pass sizes every column, a layout pass makes
    /// each column dense or a span of exactly its degree (in ascending
    /// target order), and a fill pass in ascending source order appends
    /// every source to its column, which keeps columns sorted.
    ///
    /// The distinct targets come from a bitset once the pairs pass the
    /// `k·32 ≥ n` parity point (so it costs at most `4·len` bytes), and
    /// from sorting below it, so a relation touching `k` of 10⁷ nodes
    /// assembles in `O(k log k)`. The column cursors live in the backward
    /// offsets. `stats` receives the loop iterations and transient bytes.
    fn finish(self, stats: &mut MaterialiseStats) -> Relation {
        let RelationBuilder {
            n, sources, len, ..
        } = self;
        let mut transient = 0;
        if dense_row(sources.len(), n) {
            transient += 4 * sources.capacity();
        }
        let mut fwd = Csr::new(NodeSet::from_sorted_ids(sources, n));
        (fwd.offsets, fwd.ids, fwd.dense) = (self.offsets, self.ids, self.dense);
        fwd.offsets.shrink_to_fit();
        fwd.ids.shrink_to_fit();
        fwd.dense.shrink_to_fit();

        // The target set.
        let targets = if dense_row(len, n) {
            let mut seen = BitSet::new(n);
            fwd.each_pair(|_, v| {
                seen.insert(v);
            });
            let bytes = seen.heap_bytes();
            let mut set = NodeSet::Dense(seen);
            set.normalize();
            if !set.row().is_dense() {
                transient += bytes;
            }
            set
        } else {
            let mut t = Vec::with_capacity(len);
            fwd.each_pair(|_, v| t.push(v as u32));
            transient += 4 * t.capacity();
            t.sort_unstable();
            t.dedup();
            NodeSet::from_sorted_ids(t, n)
        };
        let mut rev = Csr::new(targets);
        let t = rev.rows.row().len();
        if t > 0 {
            // Degree pass: bucket `r + 1` counts the column of rank `r`.
            // invariant: the target set holds every target of the pairs.
            let bucket = |v| rev.rank(v).expect("target outside the target set") + 1;
            let mut offsets = vec![0usize; t + 1];
            fwd.each_pair(|_, v| offsets[bucket(v)] += 1);
            // Layout pass: `offsets[r + 1]` becomes the fill cursor of
            // column `r` — its start while sparse, and `sparse + i` for the
            // `i`-th dense column, past every sparse position.
            let sparse: usize = offsets[1..].iter().filter(|&&d| !dense_row(d, n)).sum();
            let dense_cols = offsets[1..].iter().filter(|&&d| dense_row(d, n)).count();
            let mut dense = Vec::with_capacity(dense_cols);
            let mut start = 0;
            for r in 0..t {
                let d = offsets[r + 1];
                offsets[r + 1] = if dense_row(d, n) {
                    dense.push((r as u32, BitSet::new(n)));
                    sparse + dense.len() - 1
                } else {
                    start += d;
                    start - d
                };
            }
            // Fill pass: a sparse cursor ends at the next column's start;
            // a dense column's span then collapses to empty.
            let mut ids = vec![0u32; sparse];
            fwd.each_pair(|u, v| {
                let c = bucket(v);
                let at = offsets[c];
                if at < sparse {
                    ids[at] = u;
                    offsets[c] = at + 1;
                } else {
                    dense[at - sparse].1.insert(u as usize);
                }
            });
            for &(r, _) in &dense {
                offsets[r as usize + 1] = offsets[r as usize];
            }
            (rev.offsets, rev.ids, rev.dense) = (offsets, ids, dense);
        }
        let ops = 3 * len + t;
        stats.assembly_ops = ops;
        stats.assembly_bytes = transient;
        Relation {
            n,
            fwd,
            rev,
            len,
            assembly_ops: ops,
        }
    }
}

/// Which sources can start a path: those with an edge on some symbol
/// leaving an initial state — or every source, when an initial state is
/// final (the empty path matches). Any other source's row is empty, so
/// the sweeps skip it.
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
            sweep_append::<G, false, false>(g, nfa, src, scratch, &mut out.targets);
            if out.targets.len() > out.rows.last().map_or(0, |&(_, end)| end) {
                out.rows.push((src.0, out.targets.len()));
            }
        }
        done.push((b, out));
    }
}

/// The sweep materialiser: the calling thread on the pooled `scratch`,
/// plus up to `threads − 1` (resolved) scoped threads with a scratch each,
/// claim blocks of `block` source ids; the swept blocks are installed in
/// block order. A graph of one block spawns no thread.
fn sweep_relation<G: GraphView>(
    g: &G,
    nfa: &Nfa,
    scratch: &mut ReachScratch,
    threads: usize,
    block: usize,
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
    let mut builder = RelationBuilder::new(g.num_nodes());
    let rows = blocks.iter().map(|(_, b)| b.rows.len()).sum();
    builder.reserve_exact(rows, blocks.iter().map(|(_, b)| b.targets.len()).sum());
    for (_, block) in &blocks {
        stats.sources_swept += block.swept;
        let mut start = 0;
        for &(src, end) in &block.rows {
            builder.push_ids(src, &block.targets[start..end]);
            start = end;
        }
    }
    drop(blocks);
    let rel = builder.finish(stats);
    stats.assembly_ms += elapsed_ms(t1);
    rel
}

fn elapsed_ms(since: Instant) -> f64 {
    since.elapsed().as_secs_f64() * 1e3
}

/// Observability record of one relation materialisation, which the scale
/// benchmarks persist next to wall clock and relation bytes.
#[derive(Clone, Copy, Debug, Default)]
pub struct MaterialiseStats {
    /// Sources swept: those that can start a path.
    pub sources_swept: usize,
    /// Milliseconds sweeping sources into forward rows.
    pub sweep_ms: f64,
    /// Milliseconds installing swept blocks and building both indexes.
    pub assembly_ms: f64,
    /// Peak working-set bytes: the pooled sweep scratch plus every other
    /// worker's.
    pub scratch_bytes: usize,
    /// Backward-assembly loop iterations ([`Relation::assembly_ops`]).
    pub assembly_ops: usize,
    /// Transient bytes of the relation assembly, none sized per node: the
    /// source ids once the source set turns dense, and the targets sorted
    /// to find the distinct ones, or their bitset once the pairs pass the
    /// `k·32 ≥ |V|` parity point and the target set stays sparse. Not part
    /// of `scratch_bytes`.
    pub assembly_bytes: usize,
}

/// The most workers any thread-count knob resolves to. Every worker is an
/// OS thread with its own stack and guard page, so an unbounded count can
/// exhaust the process's memory mappings and abort it.
pub const MAX_THREADS: usize = 256;

/// Resolves a thread-count knob into a concrete worker count in
/// `1..=`[`MAX_THREADS`]: `0` = one per available CPU, capped at 16; any
/// other value is taken verbatim up to [`MAX_THREADS`]. When
/// `available_parallelism` itself errors (restricted sandboxes, unreadable
/// cgroup limits) the `0` knob falls back to **4 workers**. Callers resolve
/// the knob once at the public entry point and pass the resolved count
/// down.
pub fn effective_threads(threads: usize) -> usize {
    if threads == 0 {
        crpq_util::sync::thread::available_parallelism().map_or(4, |n| n.get().min(16))
    } else {
        threads.min(MAX_THREADS)
    }
}

/// The atom's complete standard-semantics relation `{(u, v) : some u→v
/// path has its label in L(nfa)}` — the one relation materialiser, with
/// the [`MaterialiseStats`] of its run: one product BFS per source that
/// can start a path, over blocks of source ids on the pooled `scratch`,
/// on `threads` workers when `threads > 1` (`0` = one per CPU, capped at
/// 16). A source that cannot start a path costs one degree check.
pub fn rpq_relation<G: GraphView>(
    g: &G,
    nfa: &Nfa,
    scratch: &mut ReachScratch,
    threads: usize,
) -> (Relation, MaterialiseStats) {
    let mut stats = MaterialiseStats::default();
    let threads = effective_threads(threads);
    let rel = sweep_relation(g, nfa, scratch, threads, SWEEP_BLOCK, &mut stats);
    stats.scratch_bytes += scratch.heap_bytes();
    (rel, stats)
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
/// enumeration ran to completion (no early break). A one-off call: it
/// computes the automaton's [`LiveStates`], a visited set holding
/// `blocked` and fresh buffers, then runs [`search_simple`].
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
    let live = LiveStates::new(nfa);
    let mut visited = BitSet::from_words(blocked.words().to_vec(), g.num_nodes());
    let mut scratch = SimplePathScratch::default();
    let visit = move |path: &[NodeId], _: &mut BitSet| visit(path);
    search_simple(g, nfa, &live, src, dst, &mut visited, &mut scratch, visit)
}

/// The per-automaton data of the simple-path search, computed once per
/// automaton ([`Self::new`]) and read by every [`search_simple`] call over
/// it.
///
/// A state is *live* when it is useful and has a transition into a useful
/// state: from a live state some further step can still reach a final
/// state. A path continues through a node other than its target only in a
/// live state, so after the last letter of `a`, `c + d` or `d (a + b)` the
/// search stops instead of scanning every neighbour's out-row; the check
/// at the target reads the full image, so no accepted path is lost.
#[derive(Clone, Debug)]
pub struct LiveStates {
    /// The live states.
    live: BitSet,
    /// The live initial states: a search with none finds nothing.
    initial: BitSet,
    /// The symbols on the live states' transitions, by id: a search step
    /// skips every out-edge with another label without a state image.
    reads: BitSet,
}

impl LiveStates {
    /// The live states of `nfa`, its live initial states and the labels
    /// they read.
    pub fn new(nfa: &Nfa) -> Self {
        let useful = nfa.useful_states();
        let mut live = BitSet::new(nfa.num_states());
        for q in useful.iter() {
            let row = nfa.transitions_from(q as StateId);
            if row.iter().any(|&(_, t)| useful.contains(t as usize)) {
                live.insert(q);
            }
        }
        let mut initial = nfa.initials().clone();
        initial.intersect_with(&live);
        let symbols = || {
            live.iter()
                .flat_map(|q| nfa.transitions_from(q as StateId))
                .map(|&(sym, _)| sym.index())
        };
        let mut reads = BitSet::new(symbols().max().map_or(0, |s| s + 1));
        for sym in symbols() {
            reads.insert(sym);
        }
        LiveStates {
            live,
            initial,
            reads,
        }
    }
}

/// The reusable buffers of [`search_simple`]: the path and one state-set
/// image per DFS depth. One scratch serves any sequence of searches over
/// any graphs and automata; the image buffers resize when the state count
/// changes. Searches that nest (one run from inside another's `visit`)
/// share the caller's visited set but each need their own scratch.
#[derive(Debug, Default)]
pub struct SimplePathScratch {
    /// The node sequence of the path being extended.
    path: Vec<NodeId>,
    /// `images[k]`: the live state set after the path's `k`-th edge.
    images: Vec<BitSet>,
}

/// The simple-path search every other one wraps: enumerates the non-empty
/// simple paths from `src` to `dst` (simple cycles when `src == dst`) with
/// label in `L(nfa)` whose internal nodes avoid `visited`, invoking `visit`
/// with each node sequence and the set. Returns `true` if enumeration ran
/// to completion.
///
/// `visited` is the search's one visited set, of capacity at least `|V|`:
/// on entry, the nodes no internal node of a path may be (endpoints are
/// exempt). The search adds each node to it as it extends the path — `src`
/// first, unless already there — and removes exactly what it added before
/// it returns, a break included. So while `visit` runs, the set holds its
/// entry contents plus every node of the path, and a search nested in
/// `visit` on the same set keeps its internal nodes off this path; `visit`
/// must leave the set as it found it.
///
/// `live` must be [`LiveStates::new`]`(nfa)`; callers that search the same
/// automaton repeatedly compute it once. The search allocates nothing once
/// `scratch` has served a search as deep, so a call costs what its DFS
/// scans: per path node, one pass over the node's `(label, node)`
/// out-edges, with one state image per run of edges whose label the live
/// states read, written into the depth's pooled buffer. Paths are visited
/// in that edge order.
///
/// # Panics
///
/// If `visited` holds fewer than `|V|` nodes.
pub fn search_simple<G, F>(
    g: &G,
    nfa: &Nfa,
    live: &LiveStates,
    src: NodeId,
    dst: NodeId,
    visited: &mut BitSet,
    scratch: &mut SimplePathScratch,
    mut visit: F,
) -> bool
where
    G: GraphView,
    F: FnMut(&[NodeId], &mut BitSet) -> ControlFlow<()>,
{
    debug_assert_eq!(
        live.live.capacity(),
        nfa.num_states(),
        "live states of another automaton"
    );
    assert!(
        visited.capacity() >= g.num_nodes(),
        "visited set smaller than the graph"
    );
    if live.initial.is_empty() {
        return true;
    }
    let SimplePathScratch { path, images } = scratch;
    if images.is_empty() {
        images.push(BitSet::new(0));
    }
    images[0].copy_from(&live.initial);
    path.clear();
    path.push(src);
    let added = visited.insert(src.index());
    let flow = dfs_simple(g, nfa, live, dst, visited, path, images, &mut visit);
    if added {
        visited.remove(src.index());
    }
    flow.is_continue()
}

/// Extends `path` (its last node at depth `path.len() - 1`, in the states
/// `images[depth]`) by each out-edge, recursing through nodes not in
/// `visited` in a live state. Restores `visited` and `path` before it
/// returns, a break included.
fn dfs_simple<G, F>(
    g: &G,
    nfa: &Nfa,
    live: &LiveStates,
    dst: NodeId,
    visited: &mut BitSet,
    path: &mut Vec<NodeId>,
    images: &mut Vec<BitSet>,
    visit: &mut F,
) -> ControlFlow<()>
where
    G: GraphView,
    F: FnMut(&[NodeId], &mut BitSet) -> ControlFlow<()>,
{
    let depth = path.len() - 1;
    let here = path[depth];
    if images.len() == depth + 1 {
        images.push(BitSet::new(0));
    }
    // The label of the current run of out-edges, whether its image has a
    // final state and whether it has a live one.
    let (mut run, mut accepts, mut go_on) = (None, false, false);
    for (sym, to) in g.out_edges_iter(here) {
        if run != Some(sym) {
            run = Some(sym);
            (accepts, go_on) = (false, false);
            if live.reads.contains(sym.index()) {
                let (states, next) = images.split_at_mut(depth + 1);
                let image = &mut next[0];
                nfa.delta_into(&states[depth], sym, image);
                accepts = image.intersects(nfa.finals());
                image.intersect_with(&live.live);
                go_on = !image.is_empty();
            }
        }
        if to == dst {
            if accepts {
                path.push(to);
                let added = visited.insert(to.index());
                let flow = visit(path, visited);
                if added {
                    visited.remove(to.index());
                }
                path.pop();
                flow?;
            }
            continue;
        }
        if !go_on || !visited.insert(to.index()) {
            continue;
        }
        path.push(to);
        // The child writes `images[depth + 2..]` only, so this run's image
        // survives for the next edge.
        let flow = dfs_simple(g, nfa, live, dst, visited, path, images, visit);
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
/// Returns `true` if enumeration completed. A one-off call, like
/// [`for_each_simple_path`].
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
    let live = LiveStates::new(nfa);
    let mut visited = BitSet::from_words(blocked.words().to_vec(), g.num_nodes());
    let mut scratch = SimplePathScratch::default();
    let visit = move |path: &[NodeId], _: &mut BitSet| visit(path);
    search_simple(g, nfa, &live, at, at, &mut visited, &mut scratch, visit)
}

/// A labelled edge occurrence, the unit of trail (edge-injective) search.
pub type Edge = (NodeId, Symbol, NodeId);

/// Whether a **trail** (no repeated edge) from `src` to `dst` has its label
/// in `L(nfa)`. Edge-injective analogue of [`simple_path_exists`]
/// (paper §7 outlook). A one-off call: it computes the automaton's live
/// states and allocates its buffers.
pub fn trail_exists<G: GraphView>(g: &G, nfa: &Nfa, src: NodeId, dst: NodeId) -> bool {
    let live = LiveStates::new(nfa);
    let (mut used, mut scratch) = (FxHashSet::default(), TrailScratch::default());
    !for_each_trail(g, nfa, &live, src, dst, &mut used, &mut scratch, |_, _| {
        ControlFlow::Break(())
    })
}

/// The reusable buffers of [`for_each_trail`]: the trail and one state-set
/// image per trail length. One scratch serves any sequence of searches
/// over any graphs and automata; searches that nest (one run from inside
/// another's `visit`) share the caller's edge set but each need their own
/// scratch.
#[derive(Debug, Default)]
pub struct TrailScratch {
    /// The edge sequence of the trail being extended.
    path: Vec<Edge>,
    /// `images[k]`: the live state set after the trail's `k`-th edge.
    images: Vec<BitSet>,
}

/// Enumerates trails from `src` to `dst` with label in `L(nfa)` that avoid
/// the edges in `used`. `visit` receives the edge sequence (the empty
/// trail — when `src == dst` and `ε ∈ L` — yields `[]`) and `used`. A trail
/// from a node to itself with `src == dst` is a *closed trail*. Returns
/// `true` if enumeration ran to completion.
///
/// `used` is the search's one visited set: the search adds each edge as it
/// extends the trail and removes it again before it returns, a break
/// included. So while `visit` runs, `used` also holds the trail's edges,
/// and a search nested in `visit` on the same set keeps off them; `visit`
/// must leave the set as it found it.
///
/// `live` must be [`LiveStates::new`]`(nfa)`, computed once per automaton
/// as for [`search_simple`], and the search writes its state images into
/// `scratch`'s per-length buffers (one image per run of same-label
/// out-edges), so once `scratch` has served a trail as long a call
/// allocates only what `used` grows by. A trail continues past an edge only
/// in a live state. The same edge sequence is visited at most once; unlike
/// simple paths, trails may revisit nodes, so the search space is bounded
/// by `|E|!` in the worst case — callers should bound `g` accordingly.
pub fn for_each_trail<G, F>(
    g: &G,
    nfa: &Nfa,
    live: &LiveStates,
    src: NodeId,
    dst: NodeId,
    used: &mut FxHashSet<Edge>,
    scratch: &mut TrailScratch,
    mut visit: F,
) -> bool
where
    G: GraphView,
    F: FnMut(&[Edge], &mut FxHashSet<Edge>) -> ControlFlow<()>,
{
    debug_assert_eq!(
        live.live.capacity(),
        nfa.num_states(),
        "live states of another automaton"
    );
    if src == dst && nfa.accepts_epsilon() && visit(&[], used).is_break() {
        return false;
    }
    if live.initial.is_empty() {
        return true;
    }
    let TrailScratch { path, images } = scratch;
    if images.is_empty() {
        images.push(BitSet::new(0));
    }
    images[0].copy_from(&live.initial);
    path.clear();
    dfs_trail(g, nfa, live, src, dst, used, path, images, &mut visit).is_continue()
}

/// Extends the trail `path` (ending at `here`, in the states
/// `images[path.len()]`) by each unused out-edge: visits it when it ends
/// at `dst` in a final state, and recurses through it in a live state.
/// Restores `used` and `path` before it returns, a break included.
fn dfs_trail<G, F>(
    g: &G,
    nfa: &Nfa,
    live: &LiveStates,
    here: NodeId,
    dst: NodeId,
    used: &mut FxHashSet<Edge>,
    path: &mut Vec<Edge>,
    images: &mut Vec<BitSet>,
    visit: &mut F,
) -> ControlFlow<()>
where
    G: GraphView,
    F: FnMut(&[Edge], &mut FxHashSet<Edge>) -> ControlFlow<()>,
{
    let depth = path.len();
    if images.len() == depth + 1 {
        images.push(BitSet::new(0));
    }
    // The label of the current run of out-edges, whether its image has a
    // final state and whether it has a live one.
    let (mut run, mut accepts, mut go_on) = (None, false, false);
    for (sym, to) in g.out_edges_iter(here) {
        if run != Some(sym) {
            run = Some(sym);
            (accepts, go_on) = (false, false);
            if live.reads.contains(sym.index()) {
                let (states, next) = images.split_at_mut(depth + 1);
                let image = &mut next[0];
                nfa.delta_into(&states[depth], sym, image);
                accepts = image.intersects(nfa.finals());
                image.intersect_with(&live.live);
                go_on = !image.is_empty();
            }
        }
        let ends = accepts && to == dst;
        let edge = (here, sym, to);
        if !(ends || go_on) || !used.insert(edge) {
            continue;
        }
        path.push(edge);
        let mut flow = ControlFlow::Continue(());
        if ends {
            flow = visit(path, used);
        }
        if go_on && flow.is_continue() {
            // The child writes `images[depth + 2..]` only, so this run's
            // image survives for the next edge.
            flow = dfs_trail(g, nfa, live, to, dst, used, path, images, visit);
        }
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
    use std::collections::BTreeSet;

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

    /// The materialiser on the calling thread.
    fn sweeps<G: GraphView>(g: &G, nfa: &Nfa) -> Relation {
        rpq_relation(g, nfa, &mut ReachScratch::new(), 1).0
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
        let rel = sweeps(&g, &nfa);
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
        let rel = sweeps(&g, &nfa);
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
        let mut out = Vec::new();
        for _ in 0..3 {
            rpq_reach_collect(&g, &ab, n(&g, "u"), &mut scratch, &mut out);
            assert_eq!(out, vec![n(&g, "w").0]);
            rpq_reach_collect(&g, &just_a, n(&g, "u"), &mut scratch, &mut out);
            assert_eq!(out, vec![n(&g, "v").0]);
        }
    }

    /// The backward collecting sweep equals the forward reference
    /// `rpq_reach` run on the reversed graph with the mirror automaton,
    /// on a cyclic graph and on an automaton with two initial states: its
    /// mirror has two final states, and a node reached backward in both is
    /// still collected once.
    #[test]
    fn backward_reach_matches_reversed_graph() {
        let (mut g, nfa) = setup(
            &[
                ("u", "a", "v"),
                ("v", "b", "w"),
                ("w", "a", "u"),
                ("v", "a", "v"),
            ],
            "a (a+b)*",
        );
        // Two initial states reading `a` into one final state: every
        // `a`-predecessor of a node is reached backward in both.
        let a = g.alphabet_mut().intern("a");
        let two_initials = Nfa::from_parts(vec![vec![(a, 2)], vec![(a, 2)], vec![]], [0, 1], [2]);
        let g_rev = g.reversed();
        let mut scratch = ReachScratch::new();
        let mut out = Vec::new();
        for nfa in [nfa, two_initials] {
            let nfa_rev = nfa.reverse();
            for dst in g.nodes() {
                rpq_reach_collect_back(&g, &nfa_rev, dst, &mut scratch, &mut out);
                let expected: Vec<u32> = rpq_reach(&g_rev, &nfa_rev, dst)
                    .iter()
                    .map(|v| v as u32)
                    .collect();
                assert_eq!(out, expected, "backward reach mismatch at {dst:?}");
            }
        }
        let (u, v) = (n(&g, "u"), n(&g, "v"));
        let nfa_rev =
            Nfa::from_parts(vec![vec![(a, 2)], vec![(a, 2)], vec![]], [0, 1], [2]).reverse();
        assert_eq!(nfa_rev.finals().len(), 2);
        rpq_reach_collect_back(&g, &nfa_rev, v, &mut scratch, &mut out);
        assert_eq!(out, vec![u.0.min(v.0), u.0.max(v.0)], "u and v once each");
    }

    #[test]
    fn relation_source_and_target_sets() {
        let (g, nfa) = setup(&[("u", "a", "v"), ("w", "a", "v")], "a");
        let rel = sweeps(&g, &nfa);
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
        let rel = sweeps(&g, &nfa);
        assert!(rel.forward(NodeId(0)).iter().eq([1usize]));
        assert!((0..40).all(|u| !rel.forward(NodeId(u)).is_dense()));
        // a* on the same path: row of node 0 holds all 40 nodes → dense.
        let star = crpq_automata::parse_regex("a*", g.alphabet_mut()).unwrap();
        let rel = sweeps(&g, &Nfa::from_regex(&star));
        assert!(rel.forward(NodeId(0)).is_dense());
        assert_eq!(rel.forward(NodeId(0)).len(), 40);
        assert!(rel.contains(NodeId(0), NodeId(39)));
        assert!(!rel.contains(NodeId(39), NodeId(0)));
    }

    #[test]
    fn materialisers_match_per_source_oracle_on_random_graphs() {
        let mut cases = Vec::new();
        for (seed, expr) in [
            (3u64, "a (a+b)*"),
            (9, "(a b)*"),
            (11, "b* a"),
            (17, "(a+b)(a+b)"),
            (23, "∅"),
            (29, "a*"),
        ] {
            let g = crate::generators::random_graph(23, 70, &["a", "b"], seed);
            cases.push((format!("random_graph(23, 70) seed {seed}"), g, expr));
        }
        for (seed, expr) in [(3u64, "a (a+b)*"), (9, "(a b)*"), (29, "a*"), (23, "∅")] {
            let g = crate::generators::random_graph(150, 400, &["a", "b"], seed);
            cases.push((format!("random_graph(150, 400) seed {seed}"), g, expr));
        }
        for (graph, mut g, expr) in cases {
            let nfa = Nfa::from_regex(&parse_regex(expr, g.alphabet_mut()).unwrap());
            check_every_materialiser(&g, &nfa).unwrap_or_else(|e| panic!("{graph}, {expr}: {e}"));
        }
    }

    #[test]
    fn stats_record_the_sweeps_and_their_working_set() {
        // `a*` around a 200-cycle sweeps the whole cycle from every
        // source; one step per source is one pair per node.
        let mut g = crate::generators::labelled_cycle(200, &["a"]);
        let mut scratch = ReachScratch::new();
        for (expr, pairs, threads) in [("a*", 200 * 200, 1), ("a", 200, 2)] {
            let nfa = Nfa::from_regex(&parse_regex(expr, g.alphabet_mut()).unwrap());
            let (rel, stats) = rpq_relation(&g, &nfa, &mut scratch, threads);
            assert_eq!(rel.len(), pairs, "{expr}");
            assert_eq!(stats.sources_swept, 200, "{expr}");
            assert!(stats.scratch_bytes >= scratch.heap_bytes(), "{expr}");
            assert_eq!(stats.assembly_ops, rel.assembly_ops(), "{expr}");
        }
    }

    #[test]
    fn hub_assembly_allocates_no_cursor_per_node() {
        // A hub with an `a`-edge out to every node and a `b`-edge in from
        // every node: both relations hold n − 1 pairs, past the parity
        // point. `a` has n − 1 distinct targets, `b` one; neither may
        // allocate a cursor per node — the column cursors live in the
        // backward offsets, one per distinct target.
        let n = 10_000;
        let mut b = crate::db::GraphBuilder::anonymous(n);
        let (a, bl) = (b.label("a"), b.label("b"));
        for v in 1..n as u32 {
            b.edge_ids(NodeId(0), a, NodeId(v));
            b.edge_ids(NodeId(v), bl, NodeId(0));
        }
        let mut g = b.finish();
        let mut assemble = |expr: &str, swept: usize| {
            let nfa = Nfa::from_regex(&parse_regex(expr, g.alphabet_mut()).unwrap());
            let (rel, stats) = rpq_relation(&g, &nfa, &mut ReachScratch::new(), 2);
            assert_eq!(rel.len(), n - 1, "{expr}");
            assert_eq!(stats.sources_swept, swept, "{expr}");
            let bytes = stats.assembly_bytes;
            assert!(bytes <= 16 * (n - 1) + 8 + n / 8, "{expr}: {bytes} B");
            assert!(bytes < 8 * n, "{expr}: {bytes} B, a cursor per node");
            rel
        };
        let fan_out = assemble("a", 1);
        assert_eq!(fan_out.backward(NodeId(7)).iter().collect::<Vec<_>>(), [0]);
        assert!(fan_out.target_set().is_dense());
        let fan_in = assemble("b", n - 1);
        let col: Vec<usize> = fan_in.backward(NodeId(0)).iter().collect();
        assert_eq!(col, (1..n).collect::<Vec<_>>());
        assert!(fan_in.backward(NodeId(0)).is_dense());
    }

    #[test]
    fn sources_that_cannot_start_a_path_are_skipped_exactly() {
        // 200 nodes, edges only among the first 20: most sources have no
        // edge at all, and `b`-edges leave only a few of them. A nullable
        // language keeps every source (the empty path); an anchored one
        // keeps only sources with an initial-symbol edge. Every entry path
        // must agree with the per-source oracle, which skips no source.
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
            check_every_materialiser(&g, &nfa).unwrap_or_else(|e| panic!("{expr}: {e}"));
        }
        let nfa = Nfa::from_regex(&crpq_automata::parse_regex("a*", g.alphabet_mut()).unwrap());
        let rel = sweeps(&g, &nfa);
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

        // Sweep every source: the ~200 that can start a path, while each
        // of the other 10⁶ costs one degree check.
        let mut scratch = ReachScratch::new();
        let stats = &mut MaterialiseStats::default();
        let rel = sweep_relation(&g, &nfa, &mut scratch, 1, SWEEP_BLOCK, stats);
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
        let mut scratch = ReachScratch::new();
        let stats = &mut MaterialiseStats::default();
        let rel = sweep_relation(&g, &nfa, &mut scratch, 1, SWEEP_BLOCK, stats);
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

    /// A collecting sweep pushes a node once per final state it reaches
    /// the node in, then dedupes the sorted run. `a (a+b)*` reaches nodes
    /// in two final states (`a a` and `a b` end in different ones): on
    /// the hub graph in sweeps past the sparse→dense threshold, and on
    /// `0 -a-> 1 -a,b-> 2` among 1 000 nodes in sweeps that stay on the
    /// sparse visited map. Every output must equal `rpq_reach`'s.
    #[test]
    fn collecting_sweep_dedupes_nodes_reached_in_two_final_states() {
        let mut b = GraphBuilder::anonymous(1000);
        let (a, bl) = (b.label("a"), b.label("b"));
        b.edge_ids(NodeId(0), a, NodeId(1));
        b.edge_ids(NodeId(1), a, NodeId(2));
        b.edge_ids(NodeId(1), bl, NodeId(2));
        let (mut sparse, mut dense) = (0, 0);
        for mut g in [builder_graph(200, 600, true, 7), b.finish()] {
            let nfa = Nfa::from_regex(&parse_regex("a (a+b)*", g.alphabet_mut()).unwrap());
            let (n, ns) = (g.num_nodes(), nfa.num_states());
            let mut out = Vec::new();
            for src in g.nodes() {
                // The product states reached from `src`, by a plain search.
                let mut seen = BitSet::new(n * ns);
                let mut stack: Vec<(NodeId, StateId)> = Vec::new();
                for q in nfa.initials().iter() {
                    seen.insert(src.index() * ns + q);
                    stack.push((src, q as StateId));
                }
                while let Some((v, q)) = stack.pop() {
                    for &(sym, q2) in nfa.transitions_from(q) {
                        for to in g.successors(v, sym) {
                            if seen.insert(to.index() * ns + q2 as usize) {
                                stack.push((to, q2));
                            }
                        }
                    }
                }
                let finals_at = |v: usize| {
                    nfa.finals()
                        .iter()
                        .filter(|&q| seen.contains(v * ns + q))
                        .count()
                };
                let mut scratch = ReachScratch::new();
                rpq_reach_collect(&g, &nfa, src, &mut scratch, &mut out);
                let expected: Vec<u32> =
                    rpq_reach(&g, &nfa, src).iter().map(|v| v as u32).collect();
                assert_eq!(out, expected, "{n} nodes, source {src:?}");
                match ((0..n).any(|v| finals_at(v) >= 2), scratch.dense_states) {
                    (true, true) => dense += 1,
                    (true, false) => sparse += 1,
                    (false, _) => {}
                }
            }
        }
        assert!(
            sparse > 0 && dense > 0,
            "{sparse} sparse and {dense} dense sweeps reach a node twice"
        );
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
        // A wrap during a small sweep must leave no stale stamp for a
        // *larger* sweep afterwards (same post-wrap era) to trust beyond
        // the small sweep's prefix.
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
        // Wrap: the next `begin`, a small sweep's, resets to epoch 1.
        scratch.set_epoch_for_test(u32::MAX);
        rpq_reach_collect(&small, &nfa_small, NodeId(0), &mut scratch, &mut out);
        assert_eq!(out.len(), 64, "post-wrap small sweep");
        // The big sweep now reads beyond the small sweep's prefix —
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
    fn sparse_dense_switch_boundary() {
        // The ROADMAP documents the switch as "k·32 ≥ |V|": a sparse row of
        // k u32 ids costs 32·k bits against the dense row's |V| bits, so
        // the parity point k = |V|/32 must go dense and k = |V|/32 − 1 must
        // stay sparse. Pin the representation on both sides of the
        // boundary.
        let n = 640; // n/32 = 20
        for (k, expect_dense) in [(19usize, false), (20, true), (21, true)] {
            let ids: Vec<u32> = (0..k as u32).collect();
            let mut builder = RelationBuilder::new(n);
            builder.push_ids(0, &ids);
            let rel = builder.finish(&mut MaterialiseStats::default());
            assert_eq!(rel.forward(NodeId(0)).is_dense(), expect_dense, "k = {k}");
        }
        // The NodeSet domain representation switches at the same point.
        for (k, expect_dense) in [(19usize, false), (20, true)] {
            let s = NodeSet::from_sorted_ids((0..k as u32).collect(), n);
            assert_eq!(s.row().is_dense(), expect_dense, "NodeSet k = {k}");
        }
    }

    #[test]
    fn auto_materialiser_handles_tiny_and_empty_graphs() {
        // The empty graph and cycles smaller and larger than one word.
        let empty = crate::db::GraphBuilder::new().finish();
        let mut it = crpq_util::Interner::new();
        it.intern("a");
        let nfa = Nfa::from_regex(&crpq_automata::parse_regex("a*", &mut it).unwrap());
        let rel = rpq_relation(&empty, &nfa, &mut ReachScratch::new(), 1).0;
        assert!(rel.is_empty());
        for n in [1usize, 2, 3, 65] {
            let mut g = crate::generators::labelled_cycle(n, &["a"]);
            let star = crpq_automata::parse_regex("a*", g.alphabet_mut()).unwrap();
            let nfa = Nfa::from_regex(&star);
            let auto = rpq_relation(&g, &nfa, &mut ReachScratch::new(), 1).0;
            let reference = sweeps(&g, &nfa);
            assert_eq!(auto, reference, "n = {n}");
            assert_eq!(auto.len(), n * n, "cycle closure is complete, n = {n}");
        }
    }

    /// The id-set view against a `BTreeSet` model, over seeded random
    /// sets whose sizes fall on both sides of the `k·32 ≥ n` parity point
    /// and whose universes do and do not fill their last word. Each set
    /// is built both sparse and dense, and every pair of representations
    /// is checked: every `RelationRow` read, `intersects`, a run of
    /// non-decreasing targets through one `RelationRow::seek` position
    /// against `first_at_or_after` (and, sparse, the position against the
    /// answer's index), and `NodeSet::intersect_with` with its result's
    /// representation.
    #[test]
    fn id_set_view_matches_btreeset_model() {
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        let mut next = |k: usize| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x % k.max(1) as u64) as usize
        };
        // Ids of a random subset of `0..n`, sized around the parity point.
        let draw = |n: usize, next: &mut dyn FnMut(usize) -> usize| {
            let p = n.div_ceil(32);
            let k = [0, 1, p.saturating_sub(1), p, p + 1, 3 * p, n / 2, n][next(8)].min(n);
            let mut model = BTreeSet::new();
            while model.len() < k {
                model.insert(next(n));
            }
            model
        };
        let both = |model: &BTreeSet<usize>, n: usize| {
            let ids: Vec<u32> = model.iter().map(|&v| v as u32).collect();
            let mut bits = BitSet::new(n);
            model.iter().for_each(|&v| {
                bits.insert(v);
            });
            [NodeSet::Sparse { ids, universe: n }, NodeSet::Dense(bits)]
        };
        let (mut went_dense, mut went_sparse) = (0, 0);
        for _ in 0..400 {
            let n = [1, 31, 64, 100, 640, 1000, 2049][next(7)];
            let (ma, mb) = (draw(n, &mut next), draw(n, &mut next));
            let (sa, sb) = (both(&ma, n), both(&mb, n));
            let sets = sa
                .iter()
                .map(|s| (s, &ma))
                .chain(sb.iter().map(|s| (s, &mb)));
            for (set, model) in sets {
                let row = set.row();
                assert_eq!(row.len(), model.len());
                assert_eq!(row.is_empty(), model.is_empty());
                assert_eq!(row.is_dense(), matches!(set, NodeSet::Dense(_)));
                assert!(row.iter().eq(model.iter().copied()), "{set:?}");
                for v in 0..=n + 1 {
                    assert_eq!(row.contains(v), model.contains(&v), "{v} in {set:?}");
                    let seek = model.range(v..).next().copied();
                    assert_eq!(row.first_at_or_after(v), seek, "seek {v} in {set:?}");
                }
                // A non-decreasing run of targets (repeats, short and long
                // strides, past the end) through one position.
                let (mut pos, mut target) = (0, next(4));
                while target <= n + 2 {
                    let before = pos;
                    let got = row.seek(&mut pos, target);
                    assert_eq!(
                        got,
                        row.first_at_or_after(target),
                        "seek {target} in {set:?}"
                    );
                    let expect = match set {
                        NodeSet::Sparse { ids, .. } => {
                            ids.partition_point(|&v| (v as usize) < target)
                        }
                        NodeSet::Dense(_) => before,
                    };
                    assert_eq!(pos, expect, "position after seek {target} in {set:?}");
                    target += [0, 1, 1, 2, 3, 5, 17, 64, n / 8 + 1][next(9)];
                }
            }
            let meet: BTreeSet<usize> = ma.intersection(&mb).copied().collect();
            for a in &sa {
                for b in &sb {
                    let expect = !meet.is_empty();
                    assert_eq!(a.row().intersects(&b.row()), expect, "{a:?} ∩ {b:?}");
                    assert_eq!(b.row().intersects(&a.row()), expect, "{b:?} ∩ {a:?}");
                    let mut cut = a.clone();
                    cut.intersect_with(b.row());
                    assert!(cut.row().iter().eq(meet.iter().copied()), "{a:?} ∩= {b:?}");
                    let dense = dense_row(meet.len(), n);
                    assert_eq!(cut.row().is_dense(), dense, "{a:?} ∩= {b:?}");
                    if dense {
                        went_dense += 1;
                    } else {
                        went_sparse += 1;
                    }
                }
            }
        }
        assert!(went_dense > 0 && went_sparse > 0);
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

    /// The heap bytes the CSR layout must give a relation whose forward
    /// rows are `rows`. Per direction, with `t` touched rows: the touched
    /// set (`4·t` while sparse, a bitset plus a `u32` rank per word once
    /// dense), `t + 1` offsets (none when `t = 0`), `4·k` bytes per sparse
    /// row and `n` bits plus its `(rank, bitset)` entry per dense one.
    fn expected_heap_bytes(n: usize, rows: &[Vec<usize>]) -> usize {
        let mut cols = vec![0usize; n];
        for v in rows.iter().flatten() {
            cols[*v] += 1;
        }
        let words = n.div_ceil(64);
        let side = |degrees: &mut dyn Iterator<Item = usize>| {
            let (mut touched, mut payload) = (0, 0);
            for k in degrees.filter(|&k| k > 0) {
                touched += 1;
                payload += if dense_row(k, n) {
                    8 * words + std::mem::size_of::<(u32, BitSet)>()
                } else {
                    4 * k
                };
            }
            if touched == 0 {
                return 0;
            }
            let set = if dense_row(touched, n) {
                12 * words
            } else {
                4 * touched
            };
            set + 8 * (touched + 1) + payload
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

    /// Source ids per block of the sweeps in the oracle comparisons, so
    /// that a few dozen nodes span several blocks.
    const TEST_BLOCK: usize = 16;

    /// Every way a relation is built — the block sweeps at the small test
    /// block size on 1, 2 and 3 workers, and the materialiser
    /// `rpq_relation` on 1 and 3 — equals the per-source `rpq_reach`
    /// oracle row for row in both directions, with the same sets, length
    /// and heap bytes; the sweeps visit exactly the sources that can start
    /// a path, and their assembly transients are O(pairs), plus one n-bit
    /// set once the pairs pass the parity point — never a cursor per node.
    fn check_every_materialiser(g: &GraphDb, nfa: &Nfa) -> Result<(), String> {
        let n = g.num_nodes();
        let oracle: Vec<Vec<usize>> = g
            .nodes()
            .map(|u| rpq_reach(g, nfa, u).iter().collect())
            .collect();
        let admitted = g
            .nodes()
            .filter(|&v| PathStarts::new(nfa).admits(g, v))
            .count();
        for threads in [1, 2, 3] {
            let mut stats = MaterialiseStats::default();
            let rel = sweep_relation(
                g,
                nfa,
                &mut ReachScratch::new(),
                threads,
                TEST_BLOCK,
                &mut stats,
            );
            check_against_oracle(&rel, &oracle).map_err(|e| format!("threads {threads}: {e}"))?;
            proptest::prop_assert_eq!(stats.sources_swept, admitted);
            let seen = if dense_row(rel.len(), n) {
                8 * n.div_ceil(64)
            } else {
                0
            };
            proptest::prop_assert!(stats.assembly_bytes <= 16 * rel.len() + 8 + seen);
        }
        for threads in [1, 3] {
            let rel = rpq_relation(g, nfa, &mut ReachScratch::new(), threads).0;
            check_against_oracle(&rel, &oracle)
                .map_err(|e| format!("rpq_relation, threads {threads}: {e}"))?;
        }
        Ok(())
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(48))]

        /// `check_every_materialiser` on seeded graphs around the test
        /// block size, with and without a hub. `a (a+b)*`, `(a b)*` and
        /// `a*` each reach nodes in two final states, so a sweep that kept
        /// a node once per final state would fail here (the builder
        /// rejects a repeated id).
        #[test]
        fn relation_builder_matches_per_source_oracle(seed in 0u64..1_000_000, shape in 0usize..12) {
            // The last two shapes have few random edges: without the hub
            // the pairs stay below n/32, and with it `a* b` has many pairs
            // but few distinct targets
            // (`hub_assembly_allocates_no_cursor_per_node` pins that case).
            let (n, m, hub) = [
                (0, 0, false),
                (5, 15, true),
                (TEST_BLOCK - 1, 3 * TEST_BLOCK - 3, false),
                (TEST_BLOCK, 3 * TEST_BLOCK, true),
                (TEST_BLOCK + 1, 3 * TEST_BLOCK + 3, false),
                (3 * TEST_BLOCK - 1, 9 * TEST_BLOCK - 3, true),
                (3 * TEST_BLOCK, 9 * TEST_BLOCK, false),
                (3 * TEST_BLOCK + 1, 9 * TEST_BLOCK + 3, true),
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
            check_every_materialiser(&g, &nfa).map_err(|e| format!("{expr}, n {n}: {e}"))?;
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(24))]

        /// `check_every_materialiser` on label-rich Zipf graphs.
        #[test]
        fn materialisers_match_per_source_oracle_on_zipf_graphs(seed in 0u64..100_000) {
            let mut g = crate::generators::zipf_label_graph(60, 220, 8, 1.0, seed);
            let nfa = Nfa::from_regex(&parse_regex("l0 (l1+l2)*", g.alphabet_mut()).unwrap());
            check_every_materialiser(&g, &nfa).map_err(|e| format!("seed {seed}: {e}"))?;
        }
    }

    /// The labels of the edges `u → v`, parallel edges included.
    fn labels_between(g: &GraphDb, u: NodeId, v: NodeId) -> Vec<Symbol> {
        g.out_edges_iter(u)
            .filter(|&(_, to)| to == v)
            .map(|(sym, _)| sym)
            .collect()
    }

    /// Whether some label word along the node sequence `seq` is in
    /// `L(nfa)`, by running the NFA over every label choice at once.
    fn some_word_accepted(g: &GraphDb, nfa: &Nfa, seq: &[NodeId]) -> bool {
        let mut states = nfa.initials().clone();
        for step in seq.windows(2) {
            let mut next = BitSet::new(nfa.num_states());
            for sym in labels_between(g, step[0], step[1]) {
                next.union_with(&nfa.delta_set(&states, sym));
            }
            states = next;
        }
        states.intersects(nfa.finals())
    }

    /// Brute force, blind to the language: every extension of `seq` by
    /// distinct unblocked nodes that ends at an edge into `dst`. With
    /// `seq = [src]` these are the non-empty simple paths to `dst`, or the
    /// non-empty simple cycles when `src == dst`.
    fn naive_extensions(
        g: &GraphDb,
        seq: &mut Vec<NodeId>,
        dst: NodeId,
        blocked: &BitSet,
        out: &mut BTreeSet<Vec<NodeId>>,
    ) {
        let here = *seq.last().unwrap();
        for v in (0..g.num_nodes()).map(|v| NodeId(v as u32)) {
            if labels_between(g, here, v).is_empty() {
                continue;
            }
            seq.push(v);
            if v == dst {
                out.insert(seq.clone());
            } else if !seq[..seq.len() - 1].contains(&v) && !blocked.contains(v.index()) {
                naive_extensions(g, seq, dst, blocked, out);
            }
            seq.pop();
        }
    }

    /// The languages of the simple-path brute-force tests: finite, star
    /// and NP-hard ones.
    const SIMPLE_EXPRS: [&str; 7] = [
        "a",
        "a + b",
        "d (a + b)",
        "a b + b",
        "a*",
        "(a a)*",
        "a* b a*",
    ];

    /// A random graph of 1–7 nodes over two or three of the labels `a`,
    /// `b`, `d`, with parallel edges and self-loops, and a random blocked
    /// set.
    fn small_random_graph(seed: u64) -> (GraphDb, BitSet) {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let n = rng.gen_range(1..=7usize);
        let labels = &["a", "b", "d"][..rng.gen_range(2..=3usize)];
        let mut b = GraphBuilder::new();
        let names: Vec<String> = (0..n).map(|v| format!("v{v}")).collect();
        for name in &names {
            b.node(name);
        }
        for _ in 0..rng.gen_range(0..=3 * n) {
            let (u, v) = (rng.gen_range(0..n), rng.gen_range(0..n));
            b.edge(&names[u], labels[rng.gen_range(0..labels.len())], &names[v]);
            if rng.gen_bool(0.3) {
                // A parallel edge, possibly under the same label.
                b.edge(&names[u], labels[rng.gen_range(0..labels.len())], &names[v]);
            }
        }
        let g = b.finish();
        let mut blocked = g.node_set();
        for v in 0..n {
            if rng.gen_bool(0.2) {
                blocked.insert(v);
            }
        }
        (g, blocked)
    }

    /// The accepted non-empty simple paths from `s` to `d` (cycles when
    /// `s == d`) whose internal nodes avoid `blocked`, by brute force.
    fn brute_paths(
        g: &GraphDb,
        nfa: &Nfa,
        s: NodeId,
        d: NodeId,
        blocked: &BitSet,
    ) -> BTreeSet<Vec<NodeId>> {
        let mut paths = BTreeSet::new();
        naive_extensions(g, &mut vec![s], d, blocked, &mut paths);
        paths.retain(|seq| some_word_accepted(g, nfa, seq));
        paths
    }

    /// The simple-path DFS (with its live-state cut) and the simple-cycle
    /// search visit exactly the node sequences that a brute-force
    /// enumeration finds: random graphs with parallel edges, self-loops
    /// and a random blocked set, over finite, star and NP-hard languages.
    /// Besides the one-off wrappers, every (graph, NFA, s, d) runs through
    /// one pooled [`SimplePathScratch`] shared by all seeds (1–7 nodes)
    /// and languages (different state counts): an early-break existence
    /// check, then a full enumeration, so an image buffer sized for
    /// another automaton shows. The visited set holds every path node
    /// while `visit` runs and equals the blocked set again after every
    /// search, a break included.
    #[test]
    fn simple_paths_and_cycles_match_brute_force() {
        let mut found = [0usize; SIMPLE_EXPRS.len()];
        let mut scratch = SimplePathScratch::default();
        // The pooled search's non-empty paths from `s` to `d` (cycles when
        // `s == d`), after an early-break existence check on the same
        // scratch that must agree with them.
        let mut pooled = |g: &GraphDb, nfa: &Nfa, live: &LiveStates, s, d, blocked: &BitSet| {
            let mut visited = blocked.clone();
            let exists = !search_simple(g, nfa, live, s, d, &mut visited, &mut scratch, |_, _| {
                ControlFlow::Break(())
            });
            assert_eq!(
                &visited, blocked,
                "{s:?} -> {d:?}: a break left the set changed"
            );
            let mut got = BTreeSet::new();
            let complete = search_simple(
                g,
                nfa,
                live,
                s,
                d,
                &mut visited,
                &mut scratch,
                |seq, set| {
                    assert!(
                        seq.iter().all(|v| set.contains(v.index())),
                        "path hidden from visit"
                    );
                    got.insert(seq.to_vec());
                    ControlFlow::Continue(())
                },
            );
            assert!(complete);
            assert_eq!(
                &visited, blocked,
                "{s:?} -> {d:?}: the search left the set changed"
            );
            assert_eq!(
                exists,
                !got.is_empty(),
                "{s:?} -> {d:?}: break and enumeration disagree"
            );
            got
        };
        for seed in 0..40u64 {
            let (mut g, blocked) = small_random_graph(seed);
            let n = g.num_nodes();
            for (e, expr) in SIMPLE_EXPRS.into_iter().enumerate() {
                let nfa = Nfa::from_regex(&parse_regex(expr, g.alphabet_mut()).unwrap());
                let live = LiveStates::new(&nfa);
                let epsilon = nfa.accepts_epsilon();
                for s in (0..n).map(|v| NodeId(v as u32)) {
                    let mut cycles = brute_paths(&g, &nfa, s, s, &blocked);
                    let got = pooled(&g, &nfa, &live, s, s, &blocked);
                    assert_eq!(got, cycles, "pooled cycles at {s:?}, {expr}, seed {seed}");
                    if epsilon {
                        cycles.insert(vec![s]);
                    }
                    let mut got = BTreeSet::new();
                    for_each_simple_cycle(&g, &nfa, s, &blocked, |seq| {
                        got.insert(seq.to_vec());
                        ControlFlow::Continue(())
                    });
                    assert_eq!(got, cycles, "cycles at {s:?}, {expr}, seed {seed}");
                    found[e] += got.len();
                    for d in (0..n).map(|v| NodeId(v as u32)) {
                        let mut paths = BTreeSet::new();
                        if s == d {
                            if epsilon {
                                paths.insert(vec![s]);
                            }
                        } else {
                            paths = brute_paths(&g, &nfa, s, d, &blocked);
                            let got = pooled(&g, &nfa, &live, s, d, &blocked);
                            assert_eq!(got, paths, "pooled {s:?} -> {d:?}, {expr}, seed {seed}");
                        }
                        let mut got = BTreeSet::new();
                        for_each_simple_path(&g, &nfa, s, d, &blocked, |seq| {
                            got.insert(seq.to_vec());
                            ControlFlow::Continue(())
                        });
                        assert_eq!(got, paths, "paths {s:?} -> {d:?}, {expr}, seed {seed}");
                        found[e] += got.len();
                    }
                }
            }
        }
        assert!(
            found.iter().all(|&k| k > 0),
            "every language has paths or cycles somewhere: {found:?}"
        );
    }

    /// Every trail from `here` extending `trail` by edges outside `used`
    /// that ends at `dst` with its word in `L(nfa)`, by brute force over
    /// edge sequences, blind to the language until the end.
    fn brute_trails(
        g: &GraphDb,
        nfa: &Nfa,
        here: NodeId,
        dst: NodeId,
        used: &mut FxHashSet<Edge>,
        trail: &mut Vec<Edge>,
        out: &mut Vec<Vec<Edge>>,
    ) {
        for (sym, to) in g.out_edges_iter(here) {
            let edge = (here, sym, to);
            if !used.insert(edge) {
                continue;
            }
            trail.push(edge);
            if to == dst {
                let mut states = nfa.initials().clone();
                for &(_, sym, _) in trail.iter() {
                    states = nfa.delta_set(&states, sym);
                }
                if states.intersects(nfa.finals()) {
                    out.push(trail.clone());
                }
            }
            brute_trails(g, nfa, to, dst, used, trail, out);
            trail.pop();
            used.remove(&edge);
        }
    }

    /// The trail search visits exactly the trails a brute-force
    /// enumeration finds, in the same order, on the small random graphs of
    /// at most 12 edges with a random set of used edges, over the
    /// simple-path languages. Every (graph, NFA, s, d) runs through one
    /// [`TrailScratch`] shared by all seeds and languages (different state
    /// counts): an early-break existence check, then a full enumeration
    /// that must equal a fresh scratch's, so an image buffer left sized or
    /// filled by another search shows. `used` holds the trail while
    /// `visit` runs and is restored after every search, a break included.
    #[test]
    fn trails_match_brute_force_with_one_shared_scratch() {
        let mut shared = TrailScratch::default();
        let (mut graphs, mut found) = (0, [0usize; SIMPLE_EXPRS.len()]);
        for seed in 0..60u64 {
            let (mut g, _) = small_random_graph(seed);
            let edges: Vec<Edge> = g
                .nodes()
                .flat_map(|u| g.out_edges_iter(u).map(move |(sym, v)| (u, sym, v)))
                .collect();
            if edges.len() > 12 {
                continue;
            }
            graphs += 1;
            let blocked: FxHashSet<Edge> = edges.iter().copied().step_by(5).collect();
            let n = g.num_nodes();
            for (e, expr) in SIMPLE_EXPRS.into_iter().enumerate() {
                let nfa = Nfa::from_regex(&parse_regex(expr, g.alphabet_mut()).unwrap());
                let live = LiveStates::new(&nfa);
                for (s, d) in (0..n * n).map(|i| (NodeId((i / n) as u32), NodeId((i % n) as u32))) {
                    let ctx = format!("{s:?} -> {d:?}, {expr}, seed {seed}");
                    let mut expected = Vec::new();
                    if s == d && nfa.accepts_epsilon() {
                        expected.push(Vec::new());
                    }
                    let mut used = blocked.clone();
                    brute_trails(&g, &nfa, s, d, &mut used, &mut Vec::new(), &mut expected);
                    let search = |scratch: &mut TrailScratch, used: &mut FxHashSet<Edge>| {
                        let mut got = Vec::new();
                        let complete =
                            for_each_trail(&g, &nfa, &live, s, d, used, scratch, |t, set| {
                                assert!(t.iter().all(|e| set.contains(e)), "trail hidden: {ctx}");
                                got.push(t.to_vec());
                                ControlFlow::Continue(())
                            });
                        assert!(complete, "{ctx}");
                        assert_eq!(*used, blocked, "the search left the set changed: {ctx}");
                        got
                    };
                    let exists =
                        !for_each_trail(&g, &nfa, &live, s, d, &mut used, &mut shared, |_, _| {
                            ControlFlow::Break(())
                        });
                    assert_eq!(used, blocked, "a break left the set changed: {ctx}");
                    assert_eq!(exists, !expected.is_empty(), "{ctx}");
                    assert_eq!(
                        search(&mut shared, &mut used),
                        expected,
                        "shared scratch: {ctx}"
                    );
                    let fresh = &mut TrailScratch::default();
                    assert_eq!(search(fresh, &mut used), expected, "fresh scratch: {ctx}");
                    found[e] += expected.len();
                }
            }
        }
        assert!(graphs >= 20, "only {graphs} graphs small enough");
        assert!(
            found.iter().all(|&k| k > 0),
            "every language has trails: {found:?}"
        );
    }

    /// A search run from inside another's `visit` on the same visited set
    /// keeps its internal nodes off the outer path: with the set seeded
    /// with the random blocked nodes and both pairs' endpoints, the
    /// (outer, inner) path pairs are exactly the brute-force pairs whose
    /// internal nodes avoid the seed and each other. Inside every outer
    /// `visit`, an inner search that breaks at its first path runs before
    /// the full one, and the set must equal what it was before each
    /// search once the search returns: a search that drops a pre-seeded
    /// `src`, leaks its path after returning or hides its path from
    /// `visit` fails this.
    #[test]
    fn nested_searches_keep_off_the_outer_path() {
        let (mut outer_scratch, mut inner_scratch) = Default::default();
        let (mut pairs, mut breaks) = (0usize, 0usize);
        for seed in 0..40u64 {
            let (mut g, blocked) = small_random_graph(seed);
            let n = g.num_nodes();
            let k = SIMPLE_EXPRS.len();
            let (e1, e2) = (
                seed as usize % k,
                (3 * seed as usize + seed as usize / k) % k,
            );
            let nfa1 = Nfa::from_regex(&parse_regex(SIMPLE_EXPRS[e1], g.alphabet_mut()).unwrap());
            let nfa2 = Nfa::from_regex(&parse_regex(SIMPLE_EXPRS[e2], g.alphabet_mut()).unwrap());
            let (live1, live2) = (LiveStates::new(&nfa1), LiveStates::new(&nfa2));
            // Every accepted simple path or cycle per pair, blocking nothing.
            let none = g.node_set();
            let table = |nfa: &Nfa| -> Vec<Vec<BTreeSet<Vec<NodeId>>>> {
                let nodes = || (0..n).map(|v| NodeId(v as u32));
                nodes()
                    .map(|s| nodes().map(|d| brute_paths(&g, nfa, s, d, &none)).collect())
                    .collect()
            };
            let (all1, all2) = (table(&nfa1), table(&nfa2));
            let internal = |path: &[NodeId], set: &BitSet| {
                path[1..path.len() - 1]
                    .iter()
                    .any(|v| set.contains(v.index()))
            };
            for q in 0..n.pow(4) {
                let [s1, d1, s2, d2] =
                    [q % n, q / n % n, q / n / n % n, q / n.pow(3)].map(|v| NodeId(v as u32));
                let mut seed_set = blocked.clone();
                for v in [s1, d1, s2, d2] {
                    seed_set.insert(v.index());
                }
                let mut expected = BTreeSet::new();
                for outer in &all1[s1.index()][d1.index()] {
                    if internal(outer, &seed_set) {
                        continue;
                    }
                    let mut taken = seed_set.clone();
                    for v in outer {
                        taken.insert(v.index());
                    }
                    for inner in &all2[s2.index()][d2.index()] {
                        if !internal(inner, &taken) {
                            expected.insert((outer.clone(), inner.clone()));
                        }
                    }
                }
                let mut got = BTreeSet::new();
                let mut visited = seed_set.clone();
                let complete = search_simple(
                    &g,
                    &nfa1,
                    &live1,
                    s1,
                    d1,
                    &mut visited,
                    &mut outer_scratch,
                    |outer, set| {
                        assert!(
                            outer.iter().all(|v| set.contains(v.index())),
                            "outer path hidden from visit"
                        );
                        let before = set.clone();
                        let exists = !search_simple(
                            &g,
                            &nfa2,
                            &live2,
                            s2,
                            d2,
                            set,
                            &mut inner_scratch,
                            |_, _| ControlFlow::Break(()),
                        );
                        assert_eq!(*set, before, "an inner break left the set changed");
                        let mut inner_paths = 0;
                        search_simple(
                            &g,
                            &nfa2,
                            &live2,
                            s2,
                            d2,
                            set,
                            &mut inner_scratch,
                            |inner, _| {
                                got.insert((outer.to_vec(), inner.to_vec()));
                                inner_paths += 1;
                                ControlFlow::Continue(())
                            },
                        );
                        assert_eq!(*set, before, "an inner search left the set changed");
                        assert_eq!(
                            exists,
                            inner_paths > 0,
                            "inner break and enumeration disagree"
                        );
                        breaks += usize::from(exists);
                        ControlFlow::Continue(())
                    },
                );
                assert!(complete);
                assert_eq!(visited, seed_set, "the outer search left the set changed");
                assert_eq!(
                    got, expected,
                    "{s1:?} -> {d1:?} around {s2:?} -> {d2:?}, {} / {}, seed {seed}",
                    SIMPLE_EXPRS[e1], SIMPLE_EXPRS[e2]
                );
                pairs += got.len();
            }
        }
        assert!(
            pairs > 0 && breaks > 0,
            "{pairs} pairs, {breaks} inner breaks"
        );
    }
}
