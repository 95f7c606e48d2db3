//! The PSpace abstraction algorithm for query-injective CRPQ/CRPQ
//! containment (Theorem 5.1, Appendix C).
//!
//! Overview of the construction, following the paper:
//!
//! 1. **Global automaton.** `A_Q2` is the disjoint union of the per-atom
//!    NFAs of `Q2`, each made *complete and co-complete* over the joint
//!    alphabet. Runs never cross atom components.
//! 2. **Abstractions.** For every atom `A` of `Q1` and every expansion word
//!    `w ∈ L(A)`, the *fact set* of `w` records, over global states `q, q'`:
//!    * `⟨q-q'⟩` — a run `q →w q'` (run matrix `R`);
//!    * `⟨q-|-q'⟩` — a split `w = u·v` (`u, v ≠ ε`) with `q →u final` and
//!      `initial →v q'` (split matrix `D`);
//!    * `⟨q-|··|-q'⟩` — `w = u·s·v` (all ≠ ε) with `q →u final` and
//!      `initial →v q'` (gap matrix `Gp`);
//!    * `⟨··q-q'··⟩` — `w = u·s·v` (all ≠ ε) with `q →s q'` (infix matrix `I`).
//!      The achievable fact sets per atom are enumerated by a breadth-first
//!      *profile simulation* over `(NFA state set, profile)` pairs; an
//!      abstraction `α` of `Q1` picks one achievable fact set per atom.
//! 3. **Morphism types.** `G` is the 3-subdivision of `Q1` (each atom a path
//!    of length 3). A morphism type `(H, h)` replaces each `Q2` atom with a
//!    path and maps it injectively into `G` (free variables pinned
//!    positionally). Enumeration is a joint internally-disjoint path
//!    placement — structurally the same search as query-injective
//!    evaluation, on the label-free graph `G`.
//! 4. **Compatibility.** A morphism type is compatible with `α` if a state
//!    labelling `λ` of the internal `H` nodes satisfies, for every `Q1`
//!    atom, the constraints induced by how `Q2`-paths overlay its 3-path —
//!    the 17 cases of Figure 9, realised here as five constraint shapes
//!    (full run / meeting split / gap / dangling prefix / dangling suffix /
//!    enclosed infix).
//! 5. **Verdict** (Claim C.4): `Q1 ⊆q-inj Q2` iff every achievable
//!    abstraction admits a compatible morphism type.
//!
//! Preconditions (paper's normal form): ε-free languages, connected queries,
//! and no two parallel atoms sharing a single-letter word (Remark C.2);
//! `Q2` is normalised per Remark C.1 (non-free degree-(1,1) variables are
//! eliminated by concatenating languages). Instances outside the supported
//! fragment yield `None` and fall back to the bounded engine.

use crpq_automata::{Nfa, Regex};
use crpq_query::{Crpq, CrpqAtom, Var};
use crpq_util::{BitSet, BoolMatrix, FxHashMap, FxHashSet, Symbol};
use std::collections::VecDeque;
use std::ops::ControlFlow;

/// Resource caps for the abstraction engine.
#[derive(Clone, Copy, Debug)]
pub struct AbstractionConfig {
    /// Cap on `(state-set, profile)` pairs explored per `Q1` atom.
    pub max_profile_states: usize,
    /// Cap on morphism types enumerated.
    pub max_morphism_types: usize,
    /// Cap on abstractions checked (product over atoms of fact sets).
    pub max_abstractions: usize,
}

impl Default for AbstractionConfig {
    fn default() -> Self {
        Self {
            max_profile_states: 200_000,
            max_morphism_types: 200_000,
            max_abstractions: 1_000_000,
        }
    }
}

/// Decides `Q1 ⊆q-inj Q2` with the abstraction algorithm, if the instance
/// is in the supported fragment and within default resource caps.
///
/// ```
/// use crpq_containment::abstraction::try_contain_qinj;
/// use crpq_query::parse_crpq;
/// use crpq_util::Interner;
///
/// // Example 4.7: Q1 ⊆q-inj Q2 with an infinite-free instance the
/// // abstraction engine decides without enumerating expansions.
/// let mut sigma = Interner::new();
/// let q1 = parse_crpq("x -[a]-> y, y -[b]-> z", &mut sigma).unwrap();
/// let q2 = parse_crpq("x -[a b]-> y", &mut sigma).unwrap();
/// assert_eq!(try_contain_qinj(&q1, &q2), Some(true));
///
/// // With stars on the left the naive engine can only be inconclusive on
/// // the positive side; the abstraction engine certifies it.
/// let q1 = parse_crpq("x -[a a*]-> y", &mut sigma).unwrap();
/// let q2 = parse_crpq("x -[a a*]-> y", &mut sigma).unwrap();
/// assert_eq!(try_contain_qinj(&q1, &q2), Some(true));
/// ```
pub fn try_contain_qinj(q1: &Crpq, q2: &Crpq) -> Option<bool> {
    try_contain_qinj_with(q1, q2, AbstractionConfig::default())
}

/// [`try_contain_qinj`] with explicit resource caps.
pub fn try_contain_qinj_with(q1: &Crpq, q2: &Crpq, config: AbstractionConfig) -> Option<bool> {
    if q1.free.len() != q2.free.len() {
        return Some(false); // mismatched arity is never contained
    }
    // Q2 must be ε-free (right-hand unions are out of scope) and in the
    // Remark C.1 normal form.
    if q2.has_epsilon_atoms() {
        return None;
    }
    let q2 = normalize_q2(q2)?;
    if !q2.is_connected() || !no_shared_single_letter(&q2) {
        return None;
    }
    // Q1 = union of ε-free variants; containment must hold for each.
    for variant in q1.epsilon_free_union() {
        if !variant.is_connected() || !no_shared_single_letter(&variant) {
            return None;
        }
        match contain_variant(&variant, &q2, config) {
            Some(true) => continue,
            other => return other,
        }
    }
    Some(true)
}

// ---------------------------------------------------------------------------
// Normalisation (Remark C.1 / C.2)
// ---------------------------------------------------------------------------

/// Eliminates non-free existential variables of in-degree 1 and out-degree 1
/// by concatenating the two atom languages (`x -L-> y ∧ y -L'-> z` becomes
/// `x -L·L'-> z`), repeated to fixpoint. Self-loop configurations are left
/// untouched. Returns `None` only on structural surprises.
fn normalize_q2(q2: &Crpq) -> Option<Crpq> {
    let mut q = q2.clone();
    loop {
        let mut indeg = vec![0usize; q.num_vars];
        let mut outdeg = vec![0usize; q.num_vars];
        for atom in &q.atoms {
            outdeg[atom.src.index()] += 1;
            indeg[atom.dst.index()] += 1;
        }
        let free: FxHashSet<Var> = q.free.iter().copied().collect();
        let mut target: Option<usize> = None;
        for v in 0..q.num_vars {
            let var = Var(v as u32);
            if free.contains(&var) || indeg[v] != 1 || outdeg[v] != 1 {
                continue;
            }
            let into = q.atoms.iter().position(|a| a.dst == var)?;
            let out = q.atoms.iter().position(|a| a.src == var)?;
            if into == out {
                continue; // self-loop at v: not eliminable
            }
            let (x, xp) = (q.atoms[into].src, q.atoms[out].dst);
            if x == var || xp == var {
                continue; // y ∈ {x, x'}: not eliminable (Remark C.1)
            }
            target = Some(v);
            let merged = CrpqAtom {
                src: x,
                dst: xp,
                regex: Regex::concat(vec![
                    q.atoms[into].regex.clone(),
                    q.atoms[out].regex.clone(),
                ]),
            };
            let (hi, lo) = (into.max(out), into.min(out));
            q.atoms.remove(hi);
            q.atoms.remove(lo);
            q.atoms.push(merged);
            break;
        }
        match target {
            Some(v) => {
                // Re-index variables densely, dropping v.
                let renaming: Vec<usize> = (0..q.num_vars)
                    .map(|u| if u > v { u - 1 } else { u })
                    .collect();
                for atom in &mut q.atoms {
                    atom.src = Var(renaming[atom.src.index()] as u32);
                    atom.dst = Var(renaming[atom.dst.index()] as u32);
                }
                for f in &mut q.free {
                    *f = Var(renaming[f.index()] as u32);
                }
                q.num_vars -= 1;
            }
            None => return Some(q),
        }
    }
}

/// Remark C.2 check: no two distinct parallel atoms (same source and target)
/// may share a single-letter word.
fn no_shared_single_letter(q: &Crpq) -> bool {
    for i in 0..q.atoms.len() {
        for j in i + 1..q.atoms.len() {
            let (a, b) = (&q.atoms[i], &q.atoms[j]);
            if a.src == b.src && a.dst == b.dst {
                let la: FxHashSet<Vec<Symbol>> =
                    a.nfa().words_up_to(1, usize::MAX).into_iter().collect();
                let lb: FxHashSet<Vec<Symbol>> =
                    b.nfa().words_up_to(1, usize::MAX).into_iter().collect();
                if la.intersection(&lb).next().is_some() {
                    return false;
                }
            }
        }
    }
    true
}

// ---------------------------------------------------------------------------
// Global automaton A_Q2
// ---------------------------------------------------------------------------

struct GlobalAutomaton {
    /// Per-symbol transition matrices over global states.
    delta: FxHashMap<Symbol, BoolMatrix>,
    /// Global state count.
    num_states: usize,
    /// Initial / final state sets (global).
    initials: BitSet,
    finals: BitSet,
    /// Per Q2 atom: its global state range `(offset, len)`.
    ranges: Vec<(usize, usize)>,
    /// Per Q2 atom: initial / final global state lists.
    atom_initials: Vec<Vec<usize>>,
    atom_finals: Vec<Vec<usize>>,
}

impl GlobalAutomaton {
    fn build(q2: &Crpq, alphabet: &[Symbol]) -> GlobalAutomaton {
        let completed: Vec<Nfa> = q2
            .atoms
            .iter()
            .map(|a| a.nfa().completed(alphabet).co_completed(alphabet))
            .collect();
        let total: usize = completed.iter().map(Nfa::num_states).sum();
        let mut delta: FxHashMap<Symbol, BoolMatrix> = alphabet
            .iter()
            .map(|&s| (s, BoolMatrix::zero(total)))
            .collect();
        let mut initials = BitSet::new(total);
        let mut finals = BitSet::new(total);
        let mut ranges = Vec::with_capacity(completed.len());
        let mut atom_initials = Vec::with_capacity(completed.len());
        let mut atom_finals = Vec::with_capacity(completed.len());
        let mut offset = 0usize;
        for nfa in &completed {
            ranges.push((offset, nfa.num_states()));
            let mut ai = Vec::new();
            let mut af = Vec::new();
            for q in 0..nfa.num_states() as u32 {
                for &(sym, t) in nfa.transitions_from(q) {
                    delta
                        .get_mut(&sym)
                        .unwrap() // invariant: delta is pre-seeded with every alphabet symbol
                        .set(offset + q as usize, offset + t as usize);
                }
                if nfa.is_initial(q) {
                    initials.insert(offset + q as usize);
                    ai.push(offset + q as usize);
                }
                if nfa.is_final(q) {
                    finals.insert(offset + q as usize);
                    af.push(offset + q as usize);
                }
            }
            atom_initials.push(ai);
            atom_finals.push(af);
            offset += nfa.num_states();
        }
        GlobalAutomaton {
            delta,
            num_states: total,
            initials,
            finals,
            ranges,
            atom_initials,
            atom_finals,
        }
    }
}

// ---------------------------------------------------------------------------
// Profiles & achievable fact sets
// ---------------------------------------------------------------------------

/// The fact set of an expansion word (the four Appendix-C fact matrices).
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
struct FactSet {
    run: BoolMatrix,
    split: BoolMatrix,
    gap: BoolMatrix,
    infix: BoolMatrix,
}

/// Left-to-right simulation state while reading a word.
#[derive(Clone, PartialEq, Eq, Hash)]
struct Profile {
    /// Run matrix of the prefix read so far.
    run: BoolMatrix,
    /// `{q : some non-empty prefix has a run q → final}` (current position).
    final_pref: BitSet,
    /// Same, at the previous position (for gap bookkeeping).
    final_pref_prev: BitSet,
    split: BoolMatrix,
    gap: BoolMatrix,
    /// Pending infix runs (start > 0, not yet right-bounded).
    pending_infix: BoolMatrix,
    infix: BoolMatrix,
    /// Number of symbols read, saturating at 2 (guards `u ≠ ε` conditions).
    steps: u8,
}

impl Profile {
    fn initial(n: usize) -> Profile {
        Profile {
            run: BoolMatrix::identity(n),
            final_pref: BitSet::new(n),
            final_pref_prev: BitSet::new(n),
            split: BoolMatrix::zero(n),
            gap: BoolMatrix::zero(n),
            pending_infix: BoolMatrix::zero(n),
            infix: BoolMatrix::zero(n),
            steps: 0,
        }
    }

    /// Reads one symbol.
    fn step(&self, ga: &GlobalAutomaton, sym: Symbol) -> Profile {
        let n = ga.num_states;
        let da = &ga.delta[&sym];
        let new_run = self.run.compose(da);

        // Splits: existing v-runs advance; new splits open at the current
        // position (u = prefix read so far, non-empty ⇒ steps ≥ 1).
        let mut split = self.split.compose(da);
        if self.steps >= 1 {
            let init_img = image_of(da, &ga.initials, n);
            for q in 0..n {
                if row_hits(&self.run, q, &ga.finals) {
                    or_row(&mut split, q, &init_img);
                }
            }
        }

        // Gaps: v-runs advance; new v-runs open for u-splits that ended at
        // least one position ago (s non-empty).
        let mut gap = self.gap.compose(da);
        {
            let init_img = image_of(da, &ga.initials, n);
            for q in self.final_pref_prev.iter() {
                or_row(&mut gap, q, &init_img);
            }
        }

        // Pending infix runs: advance, plus fresh runs starting here (u ≠ ε
        // ⇒ steps ≥ 1).
        let mut pending = self.pending_infix.compose(da);
        if self.steps >= 1 {
            pending.union_with(da);
        }

        // Commit: every pending infix run is right-bounded by this symbol.
        let mut infix = self.infix.clone();
        infix.union_with(&self.pending_infix);

        // Final-prefix set update.
        let mut final_pref = self.final_pref.clone();
        for q in 0..n {
            if row_hits(&new_run, q, &ga.finals) {
                final_pref.insert(q);
            }
        }

        Profile {
            run: new_run,
            final_pref_prev: self.final_pref.clone(),
            final_pref,
            split,
            gap,
            pending_infix: pending,
            infix,
            steps: self.steps.saturating_add(1).min(2),
        }
    }

    fn facts(&self) -> FactSet {
        FactSet {
            run: self.run.clone(),
            split: self.split.clone(),
            gap: self.gap.clone(),
            infix: self.infix.clone(),
        }
    }
}

fn image_of(da: &BoolMatrix, set: &BitSet, n: usize) -> BitSet {
    let mut out = BitSet::new(n);
    for q in set.iter() {
        out.union_with(da.row(q));
    }
    out
}

fn row_hits(m: &BoolMatrix, row: usize, set: &BitSet) -> bool {
    m.row(row).intersects(set)
}

fn or_row(m: &mut BoolMatrix, row: usize, set: &BitSet) {
    for j in set.iter() {
        m.set(row, j);
    }
}

/// Enumerates the achievable fact sets of a `Q1` atom language by BFS over
/// `(L1 state set, profile)` pairs. Returns `None` if the cap is hit.
fn achievable_fact_sets(
    atom_nfa: &Nfa,
    ga: &GlobalAutomaton,
    alphabet: &[Symbol],
    cap: usize,
) -> Option<Vec<FactSet>> {
    let trimmed = atom_nfa.trimmed();
    if trimmed.is_empty_language() {
        return Some(Vec::new());
    }
    let useful = trimmed.useful_states();
    let mut start = trimmed.initials().clone();
    start.intersect_with(&useful);

    let mut seen: FxHashSet<(BitSet, Box<Profile>)> = FxHashSet::default();
    let mut queue: VecDeque<(BitSet, Box<Profile>)> = VecDeque::new();
    let init = (start, Box::new(Profile::initial(ga.num_states)));
    seen.insert(init.clone());
    queue.push_back(init);

    let mut out: FxHashSet<FactSet> = FxHashSet::default();
    while let Some((states, profile)) = queue.pop_front() {
        if seen.len() > cap {
            return None;
        }
        for &sym in alphabet {
            let mut image = trimmed.delta_set(&states, sym);
            image.intersect_with(&useful);
            if image.is_empty() {
                continue;
            }
            let next = Box::new(profile.step(ga, sym));
            if image.intersects(trimmed.finals()) {
                out.insert(next.facts());
            }
            let key = (image, next);
            if !seen.contains(&key) {
                seen.insert(key.clone());
                queue.push_back(key);
            }
        }
    }
    Some(out.into_iter().collect())
}

// ---------------------------------------------------------------------------
// The 3-subdivision G of Q1 and morphism types
// ---------------------------------------------------------------------------

/// The 3-subdivision: `Q1` variables are nodes `0..n1`; atom `i` contributes
/// internal nodes `n1 + 2i` (`u_{i,1}`) and `n1 + 2i + 1` (`u_{i,2}`).
struct Subdivision {
    num_nodes: usize,
    /// Out-adjacency: `(target, atom, position 0..2)`.
    out: Vec<Vec<(usize, usize, u8)>>,
}

impl Subdivision {
    fn build(q1: &Crpq) -> Subdivision {
        let n1 = q1.num_vars;
        let num_nodes = n1 + 2 * q1.atoms.len();
        let mut out: Vec<Vec<(usize, usize, u8)>> = vec![Vec::new(); num_nodes];
        for (i, atom) in q1.atoms.iter().enumerate() {
            let (u1, u2) = (n1 + 2 * i, n1 + 2 * i + 1);
            out[atom.src.index()].push((u1, i, 0));
            out[u1].push((u2, i, 1));
            out[u2].push((atom.dst.index(), i, 2));
        }
        Subdivision { num_nodes, out }
    }
}

/// One maximal piece of a `Q2`-atom path inside a single `Q1` atom 3-path.
#[derive(Clone, Debug)]
struct Segment {
    q1_atom: usize,
    /// First and last covered position (0..=2).
    sp: u8,
    ep: u8,
    /// Boundary state expressions at segment start/end.
    start: StateExpr,
    end: StateExpr,
}

/// A boundary state: a λ variable (internal `H` node) or an initial/final
/// state of a `Q2` atom automaton (path start/end).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum StateExpr {
    Lam(usize),
    Init(usize),
    Fin(usize),
}

/// A compiled compatibility constraint on one `Q1` atom.
#[derive(Clone, Debug)]
enum Constraint {
    /// Full crossing: `run(s, e)`.
    Run {
        q1_atom: usize,
        s: StateExpr,
        e: StateExpr,
    },
    /// Prefix piece meeting suffix piece at the same internal node:
    /// `split(s, e)`.
    Split {
        q1_atom: usize,
        s: StateExpr,
        e: StateExpr,
    },
    /// Prefix piece + suffix piece with a gap: `gap(s, e)`.
    Gap {
        q1_atom: usize,
        s: StateExpr,
        e: StateExpr,
    },
    /// Dangling prefix piece: `∃q'. split(s, q')`.
    PrefixOnly { q1_atom: usize, s: StateExpr },
    /// Dangling suffix piece: `∃q. split(q, e)`.
    SuffixOnly { q1_atom: usize, e: StateExpr },
    /// Whole `Q2` path enclosed in the word: `∃q0∈init, f∈fin. infix(q0, f)`.
    Enclosed { q1_atom: usize, q2_atom: usize },
}

/// A morphism type compiled to its constraint system.
struct MorphismType {
    constraints: Vec<Constraint>,
    /// λ variable domains: `lambda_atoms[v]` = the `Q2` atom whose states
    /// the λ variable ranges over.
    lambda_atoms: Vec<usize>,
}

/// Enumerates morphism types `(H, h)`: injective variable placements plus
/// jointly node-disjoint path placements in `G`, with free tuples pinned.
/// Returns `None` on cap overflow or unsupported configurations.
fn enumerate_morphism_types(
    q1: &Crpq,
    q2: &Crpq,
    sub: &Subdivision,
    cap: usize,
) -> Option<Vec<MorphismType>> {
    // Pin free variables of Q2 to the (variable nodes of the) free tuple of Q1.
    let mut pinned: Vec<Option<usize>> = vec![None; q2.num_vars];
    for (v2, v1) in q2.free.iter().zip(&q1.free) {
        match pinned[v2.index()] {
            Some(prev) if prev != v1.index() => return Some(Vec::new()),
            _ => pinned[v2.index()] = Some(v1.index()),
        }
    }
    // Distinct pinned vars must have distinct targets (h injective).
    {
        let mut seen: FxHashMap<usize, usize> = FxHashMap::default();
        for (v, p) in pinned.iter().enumerate() {
            if let Some(node) = p {
                if let Some(&other) = seen.get(node) {
                    if other != v {
                        return Some(Vec::new());
                    }
                }
                seen.insert(*node, v);
            }
        }
    }

    let mut result = Vec::new();
    let mut assignment: Vec<Option<usize>> = pinned;
    let mut used = BitSet::new(sub.num_nodes);
    for a in assignment.iter().flatten() {
        used.insert(*a);
    }
    let mut paths: Vec<Vec<(usize, usize, u8)>> = vec![Vec::new(); q2.atoms.len()];
    let mut node_seqs: Vec<Vec<usize>> = vec![Vec::new(); q2.atoms.len()];
    // If any placement compiles to a configuration outside the supported
    // constraint vocabulary, the whole engine must abstain: dropping it
    // could turn a matchable expansion into a spurious counter-example.
    let mut unsupported = false;
    let overflow = place_q2_atom(
        q2,
        sub,
        0,
        &mut assignment,
        &mut used,
        &mut paths,
        &mut node_seqs,
        &mut |paths, node_seqs| {
            if result.len() >= cap {
                return ControlFlow::Break(());
            }
            match compile_morphism_type(q2, sub, paths, node_seqs) {
                Some(mt) => {
                    result.push(mt);
                    ControlFlow::Continue(())
                }
                None => {
                    unsupported = true;
                    ControlFlow::Break(())
                }
            }
        },
    )
    .is_break();
    if unsupported || (overflow && result.len() >= cap) {
        return None;
    }
    Some(result)
}

/// Receives candidate morphism-type placements: per-atom edge sequences
/// `(atom-of-Q1, offset, kind)` and per-atom node sequences in `G`.
type EmitFn<'a> = dyn FnMut(&[Vec<(usize, usize, u8)>], &[Vec<usize>]) -> ControlFlow<()> + 'a;

/// Places the path of `Q2` atom `i` (and recursively the rest), assigning
/// variable images on demand.
fn place_q2_atom(
    q2: &Crpq,
    sub: &Subdivision,
    i: usize,
    assignment: &mut Vec<Option<usize>>,
    used: &mut BitSet,
    paths: &mut Vec<Vec<(usize, usize, u8)>>,
    node_seqs: &mut Vec<Vec<usize>>,
    emit: &mut EmitFn<'_>,
) -> ControlFlow<()> {
    if i == q2.atoms.len() {
        // Unassigned (isolated) variables: place injectively anywhere.
        if let Some(v) = (0..assignment.len()).find(|&v| assignment[v].is_none()) {
            for node in 0..sub.num_nodes {
                if used.contains(node) {
                    continue;
                }
                assignment[v] = Some(node);
                used.insert(node);
                place_q2_atom(q2, sub, i, assignment, used, paths, node_seqs, emit)?;
                used.remove(node);
                assignment[v] = None;
            }
            return ControlFlow::Continue(());
        }
        return emit(paths, node_seqs);
    }
    let (src, dst) = (q2.atoms[i].src.index(), q2.atoms[i].dst.index());
    // Ensure src assigned.
    if assignment[src].is_none() {
        for node in 0..sub.num_nodes {
            if used.contains(node) {
                continue;
            }
            assignment[src] = Some(node);
            used.insert(node);
            place_q2_atom(q2, sub, i, assignment, used, paths, node_seqs, emit)?;
            used.remove(node);
            assignment[src] = None;
        }
        return ControlFlow::Continue(());
    }
    let start = assignment[src].unwrap(); // invariant: src is assigned before the walk starts
                                          // DFS for (simple) paths from start to the image of dst; dst may be
                                          // unassigned (then any reachable fresh node, or `start` for self-loops).
    let mut seq = vec![start];
    let mut edges: Vec<(usize, usize, u8)> = Vec::new();
    dfs_place(
        q2, sub, i, src, dst, assignment, used, paths, node_seqs, &mut seq, &mut edges, emit,
    )
}

fn dfs_place(
    q2: &Crpq,
    sub: &Subdivision,
    i: usize,
    src: usize,
    dst: usize,
    assignment: &mut Vec<Option<usize>>,
    used: &mut BitSet,
    paths: &mut Vec<Vec<(usize, usize, u8)>>,
    node_seqs: &mut Vec<Vec<usize>>,
    seq: &mut Vec<usize>,
    edges: &mut Vec<(usize, usize, u8)>,
    emit: &mut EmitFn<'_>,
) -> ControlFlow<()> {
    let here = *seq.last().unwrap(); // invariant: seq starts non-empty
    for &(to, atom, pos) in &sub.out[here] {
        // Case 1: `to` completes the path (it is, or becomes, the image of
        // `dst`). For unassigned `dst` the node must be fresh and distinct
        // from the source image (h is injective).
        if match assignment[dst] {
            Some(node) => to == node,
            None => !used.contains(to) && to != *seq.first().unwrap(), // invariant: seq starts non-empty
        } {
            let had = assignment[dst].is_some();
            if !had {
                assignment[dst] = Some(to);
                used.insert(to);
            }
            seq.push(to);
            edges.push((to, atom, pos));
            paths[i] = edges.clone();
            node_seqs[i] = seq.clone();
            let flow = place_q2_atom(q2, sub, i + 1, assignment, used, paths, node_seqs, emit);
            paths[i].clear();
            node_seqs[i].clear();
            edges.pop();
            seq.pop();
            if !had {
                used.remove(to);
                assignment[dst] = None;
            }
            flow?;
            // fall through: `to` may also serve as an intermediate node
            // (only when it is not a used/assigned node).
        }
        // Case 2: extend through `to` as a path-internal node.
        if !used.contains(to) && !seq.contains(&to) {
            seq.push(to);
            edges.push((to, atom, pos));
            used.insert(to);
            let flow = dfs_place(
                q2, sub, i, src, dst, assignment, used, paths, node_seqs, seq, edges, emit,
            );
            used.remove(to);
            edges.pop();
            seq.pop();
            flow?;
        }
    }
    ControlFlow::Continue(())
}

/// Compiles a concrete joint placement into constraint form; `None` when the
/// configuration is outside the supported fragment.
fn compile_morphism_type(
    _q2: &Crpq,
    _sub: &Subdivision,
    paths: &[Vec<(usize, usize, u8)>],
    node_seqs: &[Vec<usize>],
) -> Option<MorphismType> {
    // λ variables: internal nodes of each H path, keyed by (atom, position).
    let mut lambda_ids: FxHashMap<(usize, usize), usize> = FxHashMap::default();
    let mut lambda_atoms: Vec<usize> = Vec::new();
    for (j, seq) in node_seqs.iter().enumerate() {
        for pos in 1..seq.len().saturating_sub(1) {
            lambda_ids.insert((j, pos), lambda_atoms.len());
            lambda_atoms.push(j);
        }
    }

    let mut segments: Vec<Segment> = Vec::new();
    for (j, edges) in paths.iter().enumerate() {
        let len = edges.len();
        let mut k = 0usize;
        while k < len {
            let (_, atom, sp) = edges[k];
            let mut end = k;
            while end + 1 < len && edges[end + 1].1 == atom {
                end += 1;
            }
            let ep = edges[end].2;
            let start_expr = if k == 0 {
                StateExpr::Init(j)
            } else {
                StateExpr::Lam(lambda_ids[&(j, k)])
            };
            let end_expr = if end + 1 == len {
                StateExpr::Fin(j)
            } else {
                StateExpr::Lam(lambda_ids[&(j, end + 1)])
            };
            segments.push(Segment {
                q1_atom: atom,
                sp,
                ep,
                start: start_expr,
                end: end_expr,
            });
            k = end + 1;
        }
    }

    // Group segments per Q1 atom and derive constraints.
    let mut per_atom: FxHashMap<usize, Vec<Segment>> = FxHashMap::default();
    for seg in segments {
        per_atom.entry(seg.q1_atom).or_default().push(seg);
    }
    let mut constraints = Vec::new();
    for (q1_atom, segs) in per_atom {
        let mut fulls = Vec::new();
        let mut prefixes = Vec::new(); // end inside
        let mut suffixes = Vec::new(); // start inside
        let mut enclosed = Vec::new();
        for seg in &segs {
            match (seg.sp, seg.ep) {
                (0, 2) => fulls.push(seg),
                (0, _) => prefixes.push(seg),
                (_, 2) => suffixes.push(seg),
                (1, 1) => enclosed.push(seg),
                _ => return None,
            }
        }
        if fulls.len() > 1 || prefixes.len() > 1 || suffixes.len() > 1 || enclosed.len() > 1 {
            return None; // outside the supported fragment
        }
        if !fulls.is_empty()
            && (!prefixes.is_empty() || !suffixes.is_empty() || !enclosed.is_empty())
        {
            return None;
        }
        if !enclosed.is_empty() && (!prefixes.is_empty() || !suffixes.is_empty()) {
            return None;
        }
        if let Some(seg) = fulls.first() {
            constraints.push(Constraint::Run {
                q1_atom,
                s: seg.start,
                e: seg.end,
            });
        }
        if let Some(seg) = enclosed.first() {
            // A (1,1) segment is a whole H path inside the word.
            if !(matches!(seg.start, StateExpr::Init(_)) && matches!(seg.end, StateExpr::Fin(_))) {
                return None;
            }
            let StateExpr::Init(j) = seg.start else {
                return None;
            };
            constraints.push(Constraint::Enclosed {
                q1_atom,
                q2_atom: j,
            });
        }
        match (prefixes.first(), suffixes.first()) {
            (Some(p), Some(s)) => {
                // p ends at internal index ep+1 ∈ {1,2}; s starts at sp ∈ {1,2}.
                let end_idx = p.ep + 1;
                let start_idx = s.sp;
                match end_idx.cmp(&start_idx) {
                    std::cmp::Ordering::Equal => constraints.push(Constraint::Split {
                        q1_atom,
                        s: p.start,
                        e: s.end,
                    }),
                    std::cmp::Ordering::Less => constraints.push(Constraint::Gap {
                        q1_atom,
                        s: p.start,
                        e: s.end,
                    }),
                    std::cmp::Ordering::Greater => return None,
                }
            }
            (Some(p), None) => constraints.push(Constraint::PrefixOnly {
                q1_atom,
                s: p.start,
            }),
            (None, Some(s)) => constraints.push(Constraint::SuffixOnly { q1_atom, e: s.end }),
            (None, None) => {}
        }
    }
    Some(MorphismType {
        constraints,
        lambda_atoms,
    })
}

// ---------------------------------------------------------------------------
// Compatibility
// ---------------------------------------------------------------------------

/// Tests whether a morphism type is compatible with the abstraction
/// `alpha` (one fact set per `Q1` atom; atoms without coverage need no
/// facts). Searches for a λ assignment by backtracking.
fn compatible(mt: &MorphismType, alpha: &[&FactSet], ga: &GlobalAutomaton) -> bool {
    let mut lambda: Vec<Option<usize>> = vec![None; mt.lambda_atoms.len()];
    search_lambda(mt, alpha, ga, &mut lambda, 0)
}

fn search_lambda(
    mt: &MorphismType,
    alpha: &[&FactSet],
    ga: &GlobalAutomaton,
    lambda: &mut Vec<Option<usize>>,
    next: usize,
) -> bool {
    // Check all constraints whose λ variables are fully assigned among the
    // first `next` variables (cheap incremental filter).
    for c in &mt.constraints {
        if !constraint_ready(c, next) {
            continue;
        }
        if !eval_constraint(c, alpha, ga, lambda) {
            return false;
        }
    }
    if next == lambda.len() {
        return true;
    }
    let (off, len) = ga.ranges[mt.lambda_atoms[next]];
    for state in off..off + len {
        lambda[next] = Some(state);
        if search_lambda(mt, alpha, ga, lambda, next + 1) {
            return true;
        }
        lambda[next] = None;
    }
    false
}

fn constraint_ready(c: &Constraint, assigned: usize) -> bool {
    let ready = |e: &StateExpr| match e {
        StateExpr::Lam(v) => *v < assigned,
        _ => true,
    };
    match c {
        Constraint::Run { s, e, .. }
        | Constraint::Split { s, e, .. }
        | Constraint::Gap { s, e, .. } => ready(s) && ready(e),
        Constraint::PrefixOnly { s, .. } => ready(s),
        Constraint::SuffixOnly { e, .. } => ready(e),
        Constraint::Enclosed { .. } => true,
    }
}

fn expr_states(e: &StateExpr, ga: &GlobalAutomaton, lambda: &[Option<usize>]) -> Vec<usize> {
    match e {
        StateExpr::Lam(v) => lambda[*v].into_iter().collect(),
        StateExpr::Init(j) => ga.atom_initials[*j].clone(),
        StateExpr::Fin(j) => ga.atom_finals[*j].clone(),
    }
}

fn eval_constraint(
    c: &Constraint,
    alpha: &[&FactSet],
    ga: &GlobalAutomaton,
    lambda: &[Option<usize>],
) -> bool {
    let matrix_check =
        |q1_atom: usize, s: &StateExpr, e: &StateExpr, pick: fn(&FactSet) -> &BoolMatrix| {
            let facts = alpha[q1_atom];
            let m = pick(facts);
            expr_states(s, ga, lambda)
                .iter()
                .any(|&qs| expr_states(e, ga, lambda).iter().any(|&qe| m.get(qs, qe)))
        };
    match c {
        Constraint::Run { q1_atom, s, e } => matrix_check(*q1_atom, s, e, |f| &f.run),
        Constraint::Split { q1_atom, s, e } => matrix_check(*q1_atom, s, e, |f| &f.split),
        Constraint::Gap { q1_atom, s, e } => matrix_check(*q1_atom, s, e, |f| &f.gap),
        Constraint::PrefixOnly { q1_atom, s } => expr_states(s, ga, lambda)
            .iter()
            .any(|&qs| !alpha[*q1_atom].split.row(qs).is_empty()),
        Constraint::SuffixOnly { q1_atom, e } => {
            let targets = expr_states(e, ga, lambda);
            (0..ga.num_states).any(|q| targets.iter().any(|&qe| alpha[*q1_atom].split.get(q, qe)))
        }
        Constraint::Enclosed { q1_atom, q2_atom } => ga.atom_initials[*q2_atom].iter().any(|&q0| {
            ga.atom_finals[*q2_atom]
                .iter()
                .any(|&f| alpha[*q1_atom].infix.get(q0, f))
        }),
    }
}

// ---------------------------------------------------------------------------
// Main per-variant decision
// ---------------------------------------------------------------------------

fn contain_variant(q1: &Crpq, q2: &Crpq, config: AbstractionConfig) -> Option<bool> {
    if q1.atoms.is_empty() || q2.atoms.is_empty() {
        return None; // degenerate; the naive engine decides these exactly
    }
    // Joint alphabet.
    let mut symbols: Vec<Symbol> = q1
        .atoms
        .iter()
        .chain(&q2.atoms)
        .flat_map(|a| a.regex.symbols())
        .collect();
    symbols.sort_unstable();
    symbols.dedup();
    if symbols.is_empty() {
        return None;
    }

    let ga = GlobalAutomaton::build(q2, &symbols);

    // Per-atom achievable fact sets.
    let mut per_atom: Vec<Vec<FactSet>> = Vec::with_capacity(q1.atoms.len());
    for atom in &q1.atoms {
        let sets = achievable_fact_sets(&atom.nfa(), &ga, &symbols, config.max_profile_states)?;
        if sets.is_empty() {
            // Empty atom language: Q1 is unsatisfiable, vacuously contained.
            return Some(true);
        }
        per_atom.push(sets);
    }

    let sub = Subdivision::build(q1);
    let morphism_types = enumerate_morphism_types(q1, q2, &sub, config.max_morphism_types)?;

    // Enumerate abstractions (product over atoms).
    let mut counter = vec![0usize; per_atom.len()];
    let mut checked = 0usize;
    loop {
        checked += 1;
        if checked > config.max_abstractions {
            return None;
        }
        let alpha: Vec<&FactSet> = counter
            .iter()
            .enumerate()
            .map(|(i, &c)| &per_atom[i][c])
            .collect();
        if !morphism_types.iter().any(|mt| compatible(mt, &alpha, &ga)) {
            return Some(false);
        }
        // advance
        let mut i = counter.len();
        loop {
            if i == 0 {
                return Some(true);
            }
            i -= 1;
            counter[i] += 1;
            if counter[i] < per_atom[i].len() {
                break;
            }
            counter[i] = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive::contain_with;
    use crpq_core::Semantics;
    use crpq_query::expansion::ExpansionLimits;
    use crpq_query::parse_crpq;
    use crpq_util::Interner;

    fn q(text: &str, it: &mut Interner) -> Crpq {
        parse_crpq(text, it).unwrap()
    }

    /// Single-atom queries: q-inj containment coincides with language
    /// inclusion restricted to identical words (paths embed only as
    /// themselves), i.e. L1 ⊆ L2.
    #[test]
    fn single_atom_language_containment() {
        let mut it = Interner::new();
        let q1 = q("(x, y) <- x -[(a b)(a b)*]-> y", &mut it);
        let q2 = q("(x, y) <- x -[(a b)(a b)* + c]-> y", &mut it);
        assert_eq!(try_contain_qinj(&q1, &q2), Some(true));
        let q3 = q("(x, y) <- x -[(a b)(a b)(a b)*]-> y", &mut it);
        assert_eq!(
            try_contain_qinj(&q1, &q3),
            Some(false),
            "ab is a counterexample"
        );
        assert_eq!(try_contain_qinj(&q3, &q1), Some(true));
    }

    #[test]
    fn chain_into_single_atom() {
        // Q1 = x -[a^+]-> y ∧ y -[b^+]-> z  ⊆q-inj  Q2 = x -[a (a+b)* b]-> z
        // with pinned endpoints: every a^m b^k chain embeds identically.
        let mut it = Interner::new();
        let q1 = q("(x, z) <- x -[a a*]-> y, y -[b b*]-> z", &mut it);
        let q2 = q("(x, z) <- x -[a (a+b)* b]-> z", &mut it);
        assert_eq!(try_contain_qinj(&q1, &q2), Some(true));
        // Converse fails: the abab-expansion has no a^+·b^+ split between
        // the pinned endpoints.
        assert_eq!(try_contain_qinj(&q2, &q1), Some(false));
    }

    #[test]
    fn boolean_chain_into_single_atom_contained_both_ways() {
        // Without pinning, every a(a+b)*b word contains an "ab" factor, so
        // even the converse holds for the Boolean versions.
        let mut it = Interner::new();
        let q1 = q("x -[a a*]-> y, y -[b b*]-> z", &mut it);
        let q2 = q("x -[a (a+b)* b]-> z", &mut it);
        assert_eq!(try_contain_qinj(&q1, &q2), Some(true));
        assert_eq!(try_contain_qinj(&q2, &q1), Some(true));
    }

    #[test]
    fn agrees_with_naive_on_finite_instances() {
        let mut it = Interner::new();
        let pairs = [
            ("x -[a b]-> y", "x -[a b + b a]-> y"),
            ("x -[a]-> y, y -[b]-> z", "x -[a b]-> z"),
            ("x -[a b]-> y", "x -[a]-> z, z -[b]-> y"),
            ("x -[a + b]-> y", "x -[a]-> y"),
            ("x -[a a]-> y", "x -[a a + a]-> y"),
            ("x -[a]-> y, y -[b]-> z, z -[c]-> w", "x -[a b c]-> w"),
        ];
        for (t1, t2) in pairs {
            let q1 = q(t1, &mut it);
            let q2 = q(t2, &mut it);
            let naive = contain_with(
                &q1,
                &q2,
                Semantics::QueryInjective,
                ExpansionLimits {
                    max_word_len: 8,
                    max_expansions: usize::MAX,
                },
            );
            if let Some(abs) = try_contain_qinj(&q1, &q2) {
                assert_eq!(
                    Some(abs),
                    naive.as_bool(),
                    "abstraction vs naive disagree on {t1} ⊆ {t2}"
                );
            }
        }
    }

    #[test]
    fn infinite_left_side_decided() {
        // The bounded naive engine is inconclusive here; the abstraction
        // engine decides.
        let mut it = Interner::new();
        let q1 = q("x -[a a*]-> y", &mut it);
        let q2 = q("x -[a* a]-> y", &mut it);
        assert_eq!(try_contain_qinj(&q1, &q2), Some(true));
        assert_eq!(try_contain_qinj(&q2, &q1), Some(true));
        let q3 = q("x -[a a a*]-> y", &mut it);
        assert_eq!(try_contain_qinj(&q1, &q3), Some(false));
        assert_eq!(try_contain_qinj(&q3, &q1), Some(true));
    }

    #[test]
    fn normalization_eliminates_middle_vars() {
        let mut it = Interner::new();
        let q2 = q("x -[a]-> m, m -[b]-> y", &mut it);
        let n = normalize_q2(&q2).unwrap();
        assert_eq!(n.atoms.len(), 1);
        assert_eq!(n.num_vars, 2);
        // language is ab
        let nfa = n.atoms[0].nfa();
        assert!(nfa.accepts(&[Symbol(0), Symbol(1)]));
        assert!(!nfa.accepts(&[Symbol(0)]));
    }

    #[test]
    fn normalization_keeps_free_vars() {
        let mut it = Interner::new();
        let q2 = q("(m) <- x -[a]-> m, m -[b]-> y", &mut it);
        let n = normalize_q2(&q2).unwrap();
        assert_eq!(n.atoms.len(), 2, "free middle variable must survive");
    }

    #[test]
    fn unsupported_instances_fall_back() {
        let mut it = Interner::new();
        // ε on the right: unsupported.
        let q1 = q("x -[a]-> y", &mut it);
        let q2 = q("x -[a?]-> y", &mut it);
        assert_eq!(try_contain_qinj(&q1, &q2), None);
        // Disconnected right-hand query: unsupported.
        let q3 = q("x -[a]-> y, u -[b]-> v", &mut it);
        assert_eq!(try_contain_qinj(&q1, &q3), None);
        // Shared single-letter word between parallel atoms: unsupported.
        let q4 = q("x -[a + b]-> y, x -[a + c]-> y", &mut it);
        assert_eq!(try_contain_qinj(&q4, &q1), None);
    }

    #[test]
    fn free_variable_pinning() {
        let mut it = Interner::new();
        let q1 = q("(x, y) <- x -[a a*]-> y", &mut it);
        let q2 = q("(y, x) <- x -[a a*]-> y", &mut it);
        // Reversed tuple: not contained (the asymmetric single edge is a
        // counterexample).
        assert_eq!(try_contain_qinj(&q1, &q2), Some(false));
    }

    /// Brute-force computation of the four fact matrices of a word,
    /// straight from their definitions — the oracle for the left-to-right
    /// profile simulation.
    fn brute_force_facts(ga: &GlobalAutomaton, word: &[Symbol]) -> FactSet {
        let n = ga.num_states;
        // run(q, w[i..j]) via stepwise image computation
        let run_over = |from: usize, lo: usize, hi: usize| -> BitSet {
            let mut cur = BitSet::new(n);
            cur.insert(from);
            for sym in &word[lo..hi] {
                let da = &ga.delta[sym];
                let mut next = BitSet::new(n);
                for q in cur.iter() {
                    next.union_with(da.row(q));
                }
                cur = next;
            }
            cur
        };
        let len = word.len();
        let mut run = BoolMatrix::zero(n);
        let mut split = BoolMatrix::zero(n);
        let mut gap = BoolMatrix::zero(n);
        let mut infix = BoolMatrix::zero(n);
        for q in 0..n {
            for t in run_over(q, 0, len).iter() {
                run.set(q, t);
            }
        }
        // ⟨q-|-q'⟩: ∃ 0 < i < len: q →w[..i] final ∧ init →w[i..] q'
        for i in 1..len {
            let mut finals_hit = BitSet::new(n);
            for q in 0..n {
                if run_over(q, 0, i).intersects(&ga.finals) {
                    finals_hit.insert(q);
                }
            }
            let mut suffix_reach = BitSet::new(n);
            for q0 in ga.initials.iter() {
                suffix_reach.union_with(&run_over(q0, i, len));
            }
            for q in finals_hit.iter() {
                for qp in suffix_reach.iter() {
                    split.set(q, qp);
                }
            }
        }
        // ⟨q-|··|-q'⟩: ∃ 0 < i < j < len: q →w[..i] final ∧ init →w[j..] q'
        for i in 1..len {
            for j in i + 1..len {
                let mut finals_hit = BitSet::new(n);
                for q in 0..n {
                    if run_over(q, 0, i).intersects(&ga.finals) {
                        finals_hit.insert(q);
                    }
                }
                let mut suffix_reach = BitSet::new(n);
                for q0 in ga.initials.iter() {
                    suffix_reach.union_with(&run_over(q0, j, len));
                }
                for q in finals_hit.iter() {
                    for qp in suffix_reach.iter() {
                        gap.set(q, qp);
                    }
                }
            }
        }
        // ⟨··q-q'··⟩: ∃ 0 < i < j < len: run q →w[i..j] q'
        for i in 1..len {
            for j in i + 1..len {
                for q in 0..n {
                    for t in run_over(q, i, j).iter() {
                        infix.set(q, t);
                    }
                }
            }
        }
        FactSet {
            run,
            split,
            gap,
            infix,
        }
    }

    #[test]
    fn profile_simulation_matches_brute_force_facts() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(517);
        let mut it = Interner::new();
        // A Q2 with two atoms of different shapes (languages {ab, b} and
        // {a}): the global automaton mixes several components.
        let q2 = q("x -[a b + b]-> y, y -[a]-> z", &mut it);
        let symbols: Vec<Symbol> = vec![Symbol(0), Symbol(1)];
        let ga = GlobalAutomaton::build(&q2, &symbols);
        for trial in 0..40 {
            let len = rng.gen_range(1..=5);
            let word: Vec<Symbol> = (0..len).map(|_| symbols[rng.gen_range(0..2)]).collect();
            let mut profile = Profile::initial(ga.num_states);
            for &sym in &word {
                profile = profile.step(&ga, sym);
            }
            let simulated = profile.facts();
            let brute = brute_force_facts(&ga, &word);
            assert_eq!(
                simulated.run, brute.run,
                "run matrix mismatch, trial {trial}, word {word:?}"
            );
            assert_eq!(
                simulated.split, brute.split,
                "split matrix mismatch, trial {trial}, word {word:?}"
            );
            assert_eq!(
                simulated.gap, brute.gap,
                "gap matrix mismatch, trial {trial}, word {word:?}"
            );
            assert_eq!(
                simulated.infix, brute.infix,
                "infix matrix mismatch, trial {trial}, word {word:?}"
            );
        }
    }

    #[test]
    fn self_loop_left_query() {
        // Q1 = x -[(a a)^+]-> x (cycle expansions), Q2 = x -[a a]-> x:
        // the 4-cycle expansion has no injective aa-cycle image.
        let mut it = Interner::new();
        let q1 = q("(x) <- x -[(a a)(a a)*]-> x", &mut it);
        let q2 = q("(x) <- x -[a a]-> x", &mut it);
        assert_eq!(try_contain_qinj(&q1, &q2), Some(false));
        // Converse holds: aa ∈ (aa)^+.
        assert_eq!(try_contain_qinj(&q2, &q1), Some(true));
    }

    #[test]
    fn self_loop_right_query_needs_cycles() {
        // Q2 is a self-loop atom but Q1's expansions are paths: the
        // 3-subdivision of Q1 is acyclic, so no morphism type exists and
        // every expansion is a counter-example.
        let mut it = Interner::new();
        let q1 = q("x -[a a*]-> y", &mut it);
        let q2 = q("z -[a a]-> z", &mut it);
        assert_eq!(try_contain_qinj(&q1, &q2), Some(false));
    }

    #[test]
    fn cyclic_left_with_self_loop_right() {
        // Q1 = x -[a⁺]-> y ∧ y -[b⁺]-> x: expansions are a^m b^k cycles.
        // Q2 = ẑ -[(a+b)⁺]-> ẑ matches every such cycle (any rotation is a
        // non-empty (a+b)-word) — exercises the meeting/split machinery for
        // self-loop morphism types.
        let mut it = Interner::new();
        let q1 = q("x -[a a*]-> y, y -[b b*]-> x", &mut it);
        let q2 = q("z -[(a+b)(a+b)*]-> z", &mut it);
        assert_eq!(try_contain_qinj(&q1, &q2), Some(true));
        // Q2' = ẑ -[a⁺ b⁺]-> ẑ also matches (start the cycle at x).
        let q2b = q("z -[a a* b b*]-> z", &mut it);
        assert_eq!(try_contain_qinj(&q1, &q2b), Some(true));
        // Q2'' = ẑ -[b⁺ a⁺ ... wait b-first also matches starting at y.
        let q2c = q("z -[b b* a a*]-> z", &mut it);
        assert_eq!(try_contain_qinj(&q1, &q2c), Some(true));
        // But a fixed-length cycle does not absorb longer expansions.
        let q2d = q("z -[a b]-> z", &mut it);
        assert_eq!(try_contain_qinj(&q1, &q2d), Some(false));
    }

    #[test]
    fn two_sided_star_join() {
        // Q1 = x -[a^+]-> y ∧ x -[b^+]-> z (diverging), Q2 = x -[a^+]-> y:
        // dropping an atom relaxes the query.
        let mut it = Interner::new();
        let q1 = q("x -[a a*]-> y, x -[b b*]-> z", &mut it);
        let q2 = q("x -[a a*]-> y", &mut it);
        assert_eq!(try_contain_qinj(&q1, &q2), Some(true));
        assert_eq!(try_contain_qinj(&q2, &q1), Some(false));
    }
}
