//! Non-deterministic finite automata (ε-free after construction).
//!
//! NFAs are the workhorse representation for CRPQ atom languages: evaluation
//! runs product searches of graph × NFA, expansions enumerate accepted words
//! in shortlex order, and the Appendix-C containment machinery simulates
//! profile relations over per-atom NFAs made complete and co-complete.

use crate::regex::Regex;
use crpq_util::{BitSet, FxHashMap, Symbol};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// Dense automaton state id.
pub type StateId = u32;

/// An ε-free NFA over interned symbols.
///
/// Multiple initial states are allowed (convenient after ε-elimination and
/// for reversed automata).
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Nfa {
    /// `transitions[q]` = sorted list of `(symbol, successor)` pairs.
    transitions: Vec<Vec<(Symbol, StateId)>>,
    initials: BitSet,
    finals: BitSet,
}

impl Nfa {
    // ----------------------------------------------------------- construction

    /// The automaton of the empty language.
    pub fn empty() -> Nfa {
        Nfa {
            transitions: vec![Vec::new()],
            initials: single(0, 1),
            finals: BitSet::new(1),
        }
    }

    /// The automaton of `{ε}`.
    pub fn epsilon() -> Nfa {
        let mut finals = BitSet::new(1);
        finals.insert(0);
        Nfa {
            transitions: vec![Vec::new()],
            initials: single(0, 1),
            finals,
        }
    }

    /// The automaton of a single word.
    pub fn word(word: &[Symbol]) -> Nfa {
        let n = word.len() + 1;
        let mut transitions = vec![Vec::new(); n];
        for (i, &sym) in word.iter().enumerate() {
            transitions[i].push((sym, (i + 1) as StateId));
        }
        let mut finals = BitSet::new(n);
        finals.insert(n - 1);
        Nfa {
            transitions,
            initials: single(0, n),
            finals,
        }
    }

    /// Thompson construction followed by ε-elimination.
    pub fn from_regex(regex: &Regex) -> Nfa {
        let mut builder = ThompsonBuilder::default();
        let frag = builder.build(regex);
        builder.into_nfa(frag)
    }

    /// Builds an NFA from explicit parts. `transitions[q]` need not be sorted.
    pub fn from_parts(
        mut transitions: Vec<Vec<(Symbol, StateId)>>,
        initials: impl IntoIterator<Item = StateId>,
        finals: impl IntoIterator<Item = StateId>,
    ) -> Nfa {
        let n = transitions.len().max(1);
        transitions.resize(n, Vec::new());
        for row in &mut transitions {
            row.sort_unstable();
            row.dedup();
        }
        let mut init = BitSet::new(n);
        for q in initials {
            init.insert(q as usize);
        }
        let mut fin = BitSet::new(n);
        for q in finals {
            fin.insert(q as usize);
        }
        Nfa {
            transitions,
            initials: init,
            finals: fin,
        }
    }

    // ------------------------------------------------------------- accessors

    /// Number of states.
    pub fn num_states(&self) -> usize {
        self.transitions.len()
    }

    /// Initial states.
    pub fn initials(&self) -> &BitSet {
        &self.initials
    }

    /// Final states.
    pub fn finals(&self) -> &BitSet {
        &self.finals
    }

    /// Whether `q` is final.
    #[inline]
    pub fn is_final(&self, q: StateId) -> bool {
        self.finals.contains(q as usize)
    }

    /// Whether `q` is initial.
    #[inline]
    pub fn is_initial(&self, q: StateId) -> bool {
        self.initials.contains(q as usize)
    }

    /// All outgoing `(symbol, successor)` pairs of `q`.
    #[inline]
    pub fn transitions_from(&self, q: StateId) -> &[(Symbol, StateId)] {
        &self.transitions[q as usize]
    }

    /// Successors of `q` on `sym`.
    pub fn successors(&self, q: StateId, sym: Symbol) -> impl Iterator<Item = StateId> + '_ {
        let row = &self.transitions[q as usize];
        let start = row.partition_point(|&(s, _)| s < sym);
        row[start..]
            .iter()
            .take_while(move |&&(s, _)| s == sym)
            .map(|&(_, t)| t)
    }

    /// Image of a state set under `sym`.
    pub fn delta_set(&self, states: &BitSet, sym: Symbol) -> BitSet {
        let mut out = BitSet::new(self.num_states());
        self.delta_into(states, sym, &mut out);
        out
    }

    /// [`Self::delta_set`] written into `out`, which is emptied and sized
    /// to the state count first; reuses `out`'s buffer.
    pub fn delta_into(&self, states: &BitSet, sym: Symbol, out: &mut BitSet) {
        out.reset(self.num_states());
        for q in states.iter() {
            for t in self.successors(q as StateId, sym) {
                out.insert(t as usize);
            }
        }
    }

    /// The set of symbols appearing on any transition, in id order.
    pub fn symbols(&self) -> Vec<Symbol> {
        let mut syms: Vec<Symbol> = self.transitions.iter().flatten().map(|&(s, _)| s).collect();
        syms.sort_unstable();
        syms.dedup();
        syms
    }

    // ----------------------------------------------------------- recognition

    /// Whether the automaton accepts `word`.
    pub fn accepts(&self, word: &[Symbol]) -> bool {
        let mut current = self.initials.clone();
        for &sym in word {
            current = self.delta_set(&current, sym);
            if current.is_empty() {
                return false;
            }
        }
        current.intersects(&self.finals)
    }

    /// Whether `ε` is in the language.
    pub fn accepts_epsilon(&self) -> bool {
        self.initials.intersects(&self.finals)
    }

    /// Whether the language is empty.
    pub fn is_empty_language(&self) -> bool {
        self.reachable_from_initials()
            .intersects(&self.finals)
            .then_some(())
            .is_none()
    }

    fn reachable_from_initials(&self) -> BitSet {
        let mut seen = self.initials.clone();
        let mut queue: VecDeque<usize> = self.initials.iter().collect();
        while let Some(q) = queue.pop_front() {
            for &(_, t) in &self.transitions[q] {
                if seen.insert(t as usize) {
                    queue.push_back(t as usize);
                }
            }
        }
        seen
    }

    fn coreachable_to_finals(&self) -> BitSet {
        let rev = self.reverse();
        let mut seen = self.finals.clone();
        let mut queue: VecDeque<usize> = self.finals.iter().collect();
        while let Some(q) = queue.pop_front() {
            for &(_, t) in &rev.transitions[q] {
                if seen.insert(t as usize) {
                    queue.push_back(t as usize);
                }
            }
        }
        seen
    }

    /// States that lie on some accepting path (reachable ∧ co-reachable).
    pub fn useful_states(&self) -> BitSet {
        let mut useful = self.reachable_from_initials();
        useful.intersect_with(&self.coreachable_to_finals());
        useful
    }

    // -------------------------------------------------------- transformations

    /// Removes useless states, re-indexing densely. The language is preserved.
    pub fn trimmed(&self) -> Nfa {
        let useful = self.useful_states();
        if useful.is_empty() {
            return Nfa::empty();
        }
        let mut renumber = vec![u32::MAX; self.num_states()];
        for (new, old) in useful.iter().enumerate() {
            renumber[old] = new as u32;
        }
        let n = useful.len();
        let mut transitions = vec![Vec::new(); n];
        for old in useful.iter() {
            for &(sym, t) in &self.transitions[old] {
                if renumber[t as usize] != u32::MAX {
                    transitions[renumber[old] as usize].push((sym, renumber[t as usize]));
                }
            }
        }
        let initials = useful
            .iter()
            .filter(|&q| self.initials.contains(q))
            .map(|q| renumber[q]);
        let finals = useful
            .iter()
            .filter(|&q| self.finals.contains(q))
            .map(|q| renumber[q]);
        Nfa::from_parts(transitions, initials, finals)
    }

    /// The reversed automaton (recognising the mirror language).
    pub fn reverse(&self) -> Nfa {
        let n = self.num_states();
        let mut transitions = vec![Vec::new(); n];
        for (q, row) in self.transitions.iter().enumerate() {
            for &(sym, t) in row {
                transitions[t as usize].push((sym, q as StateId));
            }
        }
        Nfa::from_parts(
            transitions,
            self.finals.iter().map(|q| q as u32),
            self.initials.iter().map(|q| q as u32),
        )
    }

    /// The same language minus `ε`.
    ///
    /// Initial states that are final get non-final fresh duplicates, so words
    /// that *return* to an initial state are preserved.
    pub fn without_epsilon(&self) -> Nfa {
        if !self.accepts_epsilon() {
            return self.clone();
        }
        let n = self.num_states();
        // Fresh initial state n copying all initial out-transitions, not final.
        let mut transitions = self.transitions.clone();
        let mut fresh: Vec<(Symbol, StateId)> = Vec::new();
        for q in self.initials.iter() {
            fresh.extend(self.transitions[q].iter().copied());
        }
        transitions.push(fresh);
        let finals: Vec<StateId> = self.finals.iter().map(|q| q as u32).collect();
        Nfa::from_parts(transitions, [n as StateId], finals)
    }

    /// The same language plus `ε`.
    pub fn with_epsilon(&self) -> Nfa {
        if self.accepts_epsilon() {
            return self.clone();
        }
        let n = self.num_states();
        let mut transitions = self.transitions.clone();
        let mut fresh: Vec<(Symbol, StateId)> = Vec::new();
        for q in self.initials.iter() {
            fresh.extend(self.transitions[q].iter().copied());
        }
        transitions.push(fresh);
        let mut finals: Vec<StateId> = self.finals.iter().map(|q| q as u32).collect();
        finals.push(n as StateId);
        let mut initials: Vec<StateId> = self.initials.iter().map(|q| q as u32).collect();
        initials.push(n as StateId);
        Nfa::from_parts(transitions, initials, finals)
    }

    /// A complete version: every state has an outgoing transition for every
    /// symbol of `alphabet` (adding a non-final sink if needed). Language
    /// preserved.
    pub fn completed(&self, alphabet: &[Symbol]) -> Nfa {
        let n = self.num_states();
        let mut transitions = self.transitions.clone();
        let sink = n as StateId;
        let mut need_sink = false;
        for (q, row) in transitions.iter_mut().enumerate() {
            for &sym in alphabet {
                if self.successors(q as StateId, sym).next().is_none() {
                    row.push((sym, sink));
                    need_sink = true;
                }
            }
        }
        if need_sink {
            transitions.push(alphabet.iter().map(|&s| (s, sink)).collect());
        }
        Nfa::from_parts(
            transitions,
            self.initials.iter().map(|q| q as u32),
            self.finals.iter().map(|q| q as u32),
        )
    }

    /// A co-complete version: every state has an *incoming* transition for
    /// every symbol (adding a non-initial, non-final source if needed).
    /// Language preserved: the source is unreachable from initial states.
    pub fn co_completed(&self, alphabet: &[Symbol]) -> Nfa {
        let n = self.num_states();
        let mut has_incoming: FxHashMap<(Symbol, StateId), bool> = FxHashMap::default();
        for row in &self.transitions {
            for &(sym, t) in row {
                has_incoming.insert((sym, t), true);
            }
        }
        let source = n as StateId;
        let mut source_row: Vec<(Symbol, StateId)> = Vec::new();
        for q in 0..=n as StateId {
            for &sym in alphabet {
                if q == source || !has_incoming.contains_key(&(sym, q)) {
                    source_row.push((sym, q));
                }
            }
        }
        if source_row.len() == alphabet.len() {
            // Only the source itself would need incoming edges; check whether
            // every existing state was already co-complete.
            let complete = (0..n as StateId)
                .all(|q| alphabet.iter().all(|&s| has_incoming.contains_key(&(s, q))));
            if complete && n > 0 {
                return self.clone();
            }
        }
        let mut transitions = self.transitions.clone();
        transitions.push(source_row);
        Nfa::from_parts(
            transitions,
            self.initials.iter().map(|q| q as u32),
            self.finals.iter().map(|q| q as u32),
        )
    }

    /// Disjoint union of automata, returning the combined NFA and the state
    /// offset of each input automaton. The union's language is the union of
    /// languages.
    pub fn disjoint_union(parts: &[&Nfa]) -> (Nfa, Vec<StateId>) {
        let mut offsets = Vec::with_capacity(parts.len());
        let mut transitions = Vec::new();
        let mut initials = Vec::new();
        let mut finals = Vec::new();
        for nfa in parts {
            let off = transitions.len() as StateId;
            offsets.push(off);
            for row in &nfa.transitions {
                transitions.push(row.iter().map(|&(s, t)| (s, t + off)).collect());
            }
            initials.extend(nfa.initials.iter().map(|q| q as StateId + off));
            finals.extend(nfa.finals.iter().map(|q| q as StateId + off));
        }
        (Nfa::from_parts(transitions, initials, finals), offsets)
    }

    /// Product automaton recognising the intersection of languages.
    pub fn product(&self, other: &Nfa) -> Nfa {
        let mut index: FxHashMap<(StateId, StateId), StateId> = FxHashMap::default();
        let mut transitions: Vec<Vec<(Symbol, StateId)>> = Vec::new();
        let mut initials = Vec::new();
        let mut finals = Vec::new();
        let mut queue = VecDeque::new();
        for a in self.initials.iter() {
            for b in other.initials.iter() {
                let key = (a as StateId, b as StateId);
                let id = transitions.len() as StateId;
                index.insert(key, id);
                transitions.push(Vec::new());
                initials.push(id);
                queue.push_back(key);
            }
        }
        while let Some((a, b)) = queue.pop_front() {
            let id = index[&(a, b)];
            if self.is_final(a) && other.is_final(b) {
                finals.push(id);
            }
            for &(sym, ta) in self.transitions_from(a) {
                for tb in other.successors(b, sym) {
                    let key = (ta, tb);
                    let next = *index.entry(key).or_insert_with(|| {
                        transitions.push(Vec::new());
                        queue.push_back(key);
                        (transitions.len() - 1) as StateId
                    });
                    transitions[id as usize].push((sym, next));
                }
            }
        }
        Nfa::from_parts(transitions, initials, finals)
    }

    // ------------------------------------------------------ finiteness & words

    /// Whether the language is finite (trimmed automaton is acyclic).
    pub fn is_finite(&self) -> bool {
        let t = self.trimmed();
        t.topological_order().is_some()
    }

    /// Length of the longest accepted word; `None` for infinite languages,
    /// `Some(None)` is never produced — empty language yields `Some(0)`-like
    /// semantics via `None` words. Returns `None` if infinite.
    pub fn max_word_len(&self) -> Option<usize> {
        let t = self.trimmed();
        let order = t.topological_order()?;
        if t.is_empty_language() {
            return Some(0);
        }
        // longest path from an initial state to a final state
        let mut dist = vec![isize::MIN; t.num_states()];
        for q in t.initials.iter() {
            dist[q] = 0;
        }
        for &q in &order {
            if dist[q as usize] == isize::MIN {
                continue;
            }
            for &(_, to) in t.transitions_from(q) {
                dist[to as usize] = dist[to as usize].max(dist[q as usize] + 1);
            }
        }
        let best = t
            .finals
            .iter()
            .map(|q| dist[q])
            .filter(|&d| d != isize::MIN)
            .max()
            .unwrap_or(0);
        Some(best.max(0) as usize)
    }

    fn topological_order(&self) -> Option<Vec<StateId>> {
        let n = self.num_states();
        let mut indegree = vec![0usize; n];
        for row in &self.transitions {
            for &(_, t) in row {
                indegree[t as usize] += 1;
            }
        }
        let mut queue: VecDeque<usize> = (0..n).filter(|&q| indegree[q] == 0).collect();
        let mut order = Vec::with_capacity(n);
        while let Some(q) = queue.pop_front() {
            order.push(q as StateId);
            for &(_, t) in &self.transitions[q] {
                indegree[t as usize] -= 1;
                if indegree[t as usize] == 0 {
                    queue.push_back(t as usize);
                }
            }
        }
        (order.len() == n).then_some(order)
    }

    /// Enumerates accepted words in shortlex order (length, then symbol id),
    /// up to length `max_len` and at most `max_count` words.
    pub fn words_up_to(&self, max_len: usize, max_count: usize) -> Vec<Vec<Symbol>> {
        let mut out = Vec::new();
        if max_count == 0 {
            return out;
        }
        let trimmed = self.trimmed();
        if trimmed.is_empty_language() {
            return out;
        }
        let coreach = trimmed.useful_states();
        let syms = trimmed.symbols();
        // BFS frontier of (word, state-set) pairs, expanded level by level.
        let mut frontier: Vec<(Vec<Symbol>, BitSet)> = vec![(Vec::new(), trimmed.initials.clone())];
        if trimmed.accepts_epsilon() {
            out.push(Vec::new());
            if out.len() >= max_count {
                return out;
            }
        }
        for _len in 0..max_len {
            let mut next: Vec<(Vec<Symbol>, BitSet)> = Vec::new();
            for (word, states) in &frontier {
                for &sym in &syms {
                    let mut image = trimmed.delta_set(states, sym);
                    image.intersect_with(&coreach);
                    if image.is_empty() {
                        continue;
                    }
                    let mut w = word.clone();
                    w.push(sym);
                    if image.intersects(&trimmed.finals) {
                        out.push(w.clone());
                        if out.len() >= max_count {
                            return out;
                        }
                    }
                    next.push((w, image));
                }
            }
            if next.is_empty() {
                break;
            }
            frontier = next;
        }
        out
    }

    /// All accepted words, provided the language is finite.
    pub fn all_words(&self) -> Option<Vec<Vec<Symbol>>> {
        let max = self.max_word_len()?;
        Some(self.words_up_to(max, usize::MAX))
    }

    /// A shortest accepted word, if the language is non-empty.
    pub fn shortest_word(&self) -> Option<Vec<Symbol>> {
        self.words_up_to(self.num_states(), 1).into_iter().next()
    }

    // ---------------------------------------------------------- canonical key

    /// The canonical structural key of this automaton: a hashable normal
    /// form that drops unreachable garbage states and renumbers the rest
    /// by BFS discovery order from the initial states (initials in
    /// ascending id order, successor rows in their sorted
    /// `(symbol, target)` order).
    ///
    /// **Soundness** (the correctness contract): equal keys imply equal
    /// languages, which is what lets a relation catalog reuse one
    /// materialised RPQ relation for every atom whose compiled NFA
    /// normalises identically. **Unification** is best-effort: automata
    /// produced by the same deterministic pipeline (e.g. `Nfa::from_regex`
    /// on equal regexes, the planner's case) always coincide, and many
    /// renumberings normalise away — but a permutation that reorders
    /// same-symbol branches of one state can still change BFS discovery
    /// order and yield distinct keys for isomorphic automata. That only
    /// costs a duplicate materialisation, never a wrong reuse.
    pub fn canonical_key(&self) -> NfaKey {
        let mut renumber = vec![u32::MAX; self.num_states()];
        let mut order: Vec<StateId> = Vec::new();
        let mut queue: VecDeque<StateId> = VecDeque::new();
        for q in self.initials.iter() {
            if renumber[q] == u32::MAX {
                renumber[q] = order.len() as u32;
                order.push(q as StateId);
                queue.push_back(q as StateId);
            }
        }
        while let Some(q) = queue.pop_front() {
            for &(_, t) in self.transitions_from(q) {
                if renumber[t as usize] == u32::MAX {
                    renumber[t as usize] = order.len() as u32;
                    order.push(t);
                    queue.push_back(t);
                }
            }
        }
        let mut transitions = Vec::new();
        let mut finals = Vec::new();
        for &old in &order {
            let new = renumber[old as usize];
            if self.finals.contains(old as usize) {
                finals.push(new);
            }
            for &(sym, t) in self.transitions_from(old) {
                transitions.push((new, sym, renumber[t as usize]));
            }
        }
        transitions.sort_unstable();
        transitions.dedup();
        NfaKey {
            num_states: order.len() as u32,
            num_initials: self.initials.len() as u32,
            transitions,
            finals,
        }
    }
}

/// Canonical structural normal form of an [`Nfa`], produced by
/// [`Nfa::canonical_key`]. Hashable and totally ordered, so it can key
/// hash maps (relation catalogs, memo tables) and appear in sorted
/// diagnostics. Equal keys guarantee equal languages.
#[derive(Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NfaKey {
    num_states: u32,
    /// Initial states are exactly `0..num_initials` after BFS renumbering.
    num_initials: u32,
    transitions: Vec<(StateId, Symbol, StateId)>,
    finals: Vec<StateId>,
}

impl NfaKey {
    /// A short content fingerprint for logs and bench output (not
    /// collision-free — use the full key for correctness).
    pub fn fingerprint(&self) -> u64 {
        use std::hash::BuildHasher;
        crpq_util::FxBuildHasher::default().hash_one(self)
    }
}

fn single(q: usize, cap: usize) -> BitSet {
    let mut s = BitSet::new(cap);
    s.insert(q);
    s
}

// --------------------------------------------------------------------------
// Thompson construction with ε edges, then ε-elimination.
// --------------------------------------------------------------------------

#[derive(Default)]
struct ThompsonBuilder {
    /// labelled transitions
    trans: Vec<Vec<(Symbol, StateId)>>,
    /// ε transitions
    eps: Vec<Vec<StateId>>,
}

#[derive(Clone, Copy)]
struct Fragment {
    start: StateId,
    end: StateId,
}

impl ThompsonBuilder {
    fn fresh(&mut self) -> StateId {
        self.trans.push(Vec::new());
        self.eps.push(Vec::new());
        (self.trans.len() - 1) as StateId
    }

    fn build(&mut self, regex: &Regex) -> Fragment {
        match regex {
            Regex::Empty => {
                let s = self.fresh();
                let e = self.fresh();
                Fragment { start: s, end: e }
            }
            Regex::Epsilon => {
                let s = self.fresh();
                let e = self.fresh();
                self.eps[s as usize].push(e);
                Fragment { start: s, end: e }
            }
            Regex::Literal(sym) => {
                let s = self.fresh();
                let e = self.fresh();
                self.trans[s as usize].push((*sym, e));
                Fragment { start: s, end: e }
            }
            Regex::Concat(parts) => {
                let frags: Vec<Fragment> = parts.iter().map(|p| self.build(p)).collect();
                for pair in frags.windows(2) {
                    self.eps[pair[0].end as usize].push(pair[1].start);
                }
                Fragment {
                    start: frags[0].start,
                    end: frags[frags.len() - 1].end,
                }
            }
            Regex::Alt(parts) => {
                let s = self.fresh();
                let e = self.fresh();
                for p in parts {
                    let f = self.build(p);
                    self.eps[s as usize].push(f.start);
                    self.eps[f.end as usize].push(e);
                }
                Fragment { start: s, end: e }
            }
            Regex::Star(inner) => {
                let s = self.fresh();
                let e = self.fresh();
                let f = self.build(inner);
                self.eps[s as usize].push(f.start);
                self.eps[s as usize].push(e);
                self.eps[f.end as usize].push(f.start);
                self.eps[f.end as usize].push(e);
                Fragment { start: s, end: e }
            }
            Regex::Plus(inner) => {
                let s = self.fresh();
                let e = self.fresh();
                let f = self.build(inner);
                self.eps[s as usize].push(f.start);
                self.eps[f.end as usize].push(f.start);
                self.eps[f.end as usize].push(e);
                Fragment { start: s, end: e }
            }
            Regex::Optional(inner) => {
                let s = self.fresh();
                let e = self.fresh();
                let f = self.build(inner);
                self.eps[s as usize].push(f.start);
                self.eps[s as usize].push(e);
                self.eps[f.end as usize].push(e);
                Fragment { start: s, end: e }
            }
        }
    }

    /// ε-closure of a single state.
    fn closure(&self, q: StateId) -> BitSet {
        let mut seen = BitSet::new(self.trans.len());
        seen.insert(q as usize);
        let mut stack = vec![q];
        while let Some(s) = stack.pop() {
            for &t in &self.eps[s as usize] {
                if seen.insert(t as usize) {
                    stack.push(t);
                }
            }
        }
        seen
    }

    fn into_nfa(self, frag: Fragment) -> Nfa {
        let n = self.trans.len();
        let mut transitions: Vec<Vec<(Symbol, StateId)>> = vec![Vec::new(); n];
        let mut finals = Vec::new();
        for q in 0..n as StateId {
            let cl = self.closure(q);
            if cl.contains(frag.end as usize) {
                finals.push(q);
            }
            for p in cl.iter() {
                for &(sym, t) in &self.trans[p] {
                    transitions[q as usize].push((sym, t));
                }
            }
        }
        Nfa::from_parts(transitions, [frag.start], finals).trimmed()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_regex;
    use crpq_util::Interner;

    fn nfa(expr: &str) -> (Nfa, Interner) {
        let mut it = Interner::new();
        let r = parse_regex(expr, &mut it).unwrap();
        (Nfa::from_regex(&r), it)
    }

    fn w(ids: &[u32]) -> Vec<Symbol> {
        ids.iter().map(|&i| Symbol(i)).collect()
    }

    #[test]
    fn literal_and_word() {
        let (n, _) = nfa("a");
        assert!(n.accepts(&w(&[0])));
        assert!(!n.accepts(&w(&[0, 0])));
        assert!(!n.accepts(&[]));

        let m = Nfa::word(&w(&[0, 1, 0]));
        assert!(m.accepts(&w(&[0, 1, 0])));
        assert!(!m.accepts(&w(&[0, 1])));
    }

    #[test]
    fn union_concat_star() {
        let (n, _) = nfa("(a b)*");
        assert!(n.accepts(&[]));
        assert!(n.accepts(&w(&[0, 1])));
        assert!(n.accepts(&w(&[0, 1, 0, 1])));
        assert!(!n.accepts(&w(&[0])));
        assert!(!n.accepts(&w(&[1, 0])));

        let (n, _) = nfa("(a+b)(a+b)*");
        assert!(!n.accepts(&[]));
        assert!(n.accepts(&w(&[0])));
        assert!(n.accepts(&w(&[1, 0, 1])));

        let (n, _) = nfa("(a+b)^+");
        assert!(!n.accepts(&[]));
        assert!(n.accepts(&w(&[1, 1, 0])));
    }

    #[test]
    fn epsilon_handling() {
        let (n, _) = nfa("a*");
        assert!(n.accepts_epsilon());
        let no_eps = n.without_epsilon();
        assert!(!no_eps.accepts_epsilon());
        assert!(no_eps.accepts(&w(&[0])));
        assert!(no_eps.accepts(&w(&[0, 0, 0])));

        let back = no_eps.with_epsilon();
        assert!(back.accepts_epsilon());
        assert!(back.accepts(&w(&[0, 0])));
    }

    #[test]
    fn without_epsilon_preserves_returning_words() {
        // L = (aa)*: removing ε must keep aa, aaaa, …
        let (n, _) = nfa("(a a)*");
        let no_eps = n.without_epsilon();
        assert!(!no_eps.accepts(&[]));
        assert!(no_eps.accepts(&w(&[0, 0])));
        assert!(no_eps.accepts(&w(&[0, 0, 0, 0])));
        assert!(!no_eps.accepts(&w(&[0])));
    }

    #[test]
    fn emptiness() {
        let (n, _) = nfa("∅");
        assert!(n.is_empty_language());
        let (n, _) = nfa("a ∅ + ∅");
        assert!(n.is_empty_language());
        let (n, _) = nfa("a");
        assert!(!n.is_empty_language());
    }

    #[test]
    fn finiteness_and_max_len() {
        let (n, _) = nfa("(a+b)(c+ε)");
        assert!(n.is_finite());
        assert_eq!(n.max_word_len(), Some(2));

        let (n, _) = nfa("a*");
        assert!(!n.is_finite());
        assert_eq!(n.max_word_len(), None);

        let (n, _) = nfa("a b c");
        assert_eq!(n.max_word_len(), Some(3));
    }

    #[test]
    fn shortlex_enumeration() {
        let (n, _) = nfa("(a+b)(a+b)*");
        let words = n.words_up_to(2, usize::MAX);
        assert_eq!(
            words,
            vec![
                w(&[0]),
                w(&[1]),
                w(&[0, 0]),
                w(&[0, 1]),
                w(&[1, 0]),
                w(&[1, 1])
            ]
        );
        assert_eq!(n.shortest_word(), Some(w(&[0])));

        let (n, _) = nfa("(a b)*");
        let words = n.words_up_to(4, usize::MAX);
        assert_eq!(words, vec![vec![], w(&[0, 1]), w(&[0, 1, 0, 1])]);
    }

    #[test]
    fn all_words_of_finite_language() {
        let (n, _) = nfa("(a+b)(c?)");
        let mut words = n.all_words().unwrap();
        words.sort();
        assert_eq!(words.len(), 4); // a, b, ac, bc
        let (n, _) = nfa("a*");
        assert!(n.all_words().is_none());
    }

    #[test]
    fn product_intersection() {
        let (n1, mut it) = {
            let mut it = Interner::new();
            let r = parse_regex("(a+b)*", &mut it).unwrap();
            (Nfa::from_regex(&r), it)
        };
        let r2 = parse_regex("a (a+b)*", &mut it).unwrap();
        let n2 = Nfa::from_regex(&r2);
        let p = n1.product(&n2);
        assert!(p.accepts(&w(&[0])));
        assert!(p.accepts(&w(&[0, 1])));
        assert!(!p.accepts(&w(&[1, 0])));
        assert!(!p.accepts(&[]));
    }

    #[test]
    fn disjoint_union_language() {
        let (n1, mut it) = {
            let mut it = Interner::new();
            let r = parse_regex("a a", &mut it).unwrap();
            (Nfa::from_regex(&r), it)
        };
        let r2 = parse_regex("b", &mut it).unwrap();
        let n2 = Nfa::from_regex(&r2);
        let (u, offsets) = Nfa::disjoint_union(&[&n1, &n2]);
        assert_eq!(offsets.len(), 2);
        assert!(u.accepts(&w(&[0, 0])));
        assert!(u.accepts(&w(&[1])));
        assert!(!u.accepts(&w(&[0])));
    }

    #[test]
    fn reverse_language() {
        let (n, _) = nfa("a b c");
        let r = n.reverse();
        assert!(r.accepts(&w(&[2, 1, 0])));
        assert!(!r.accepts(&w(&[0, 1, 2])));
    }

    #[test]
    fn completion_preserves_language() {
        let (n, _) = nfa("a b");
        let alphabet = [Symbol(0), Symbol(1)];
        let c = n.completed(&alphabet);
        assert!(c.accepts(&w(&[0, 1])));
        assert!(!c.accepts(&w(&[1, 0])));
        // complete: every state has successors on both symbols
        for q in 0..c.num_states() as StateId {
            for &s in &alphabet {
                assert!(
                    c.successors(q, s).next().is_some(),
                    "state {q} missing {s:?}"
                );
            }
        }
    }

    #[test]
    fn co_completion_preserves_language() {
        let (n, _) = nfa("a b");
        let alphabet = [Symbol(0), Symbol(1)];
        let c = n.co_completed(&alphabet);
        assert!(c.accepts(&w(&[0, 1])));
        assert!(!c.accepts(&w(&[1, 1])));
        assert!(!c.accepts(&w(&[0, 1, 0])));
        // co-complete: every state has a predecessor on both symbols
        let rev = c.reverse();
        for q in 0..rev.num_states() as StateId {
            for &s in &alphabet {
                assert!(
                    rev.successors(q, s).next().is_some(),
                    "state {q} missing incoming {s:?}"
                );
            }
        }
    }

    #[test]
    fn trimmed_keeps_language() {
        let mut transitions = vec![vec![(Symbol(0), 1)], vec![], vec![(Symbol(1), 1)]];
        transitions.push(Vec::new()); // unreachable garbage state
        let n = Nfa::from_parts(transitions, [0], [1]);
        let t = n.trimmed();
        assert_eq!(t.num_states(), 2);
        assert!(t.accepts(&w(&[0])));
        assert!(!t.accepts(&w(&[1])));
    }

    #[test]
    fn canonical_key_invariant_under_renumbering() {
        // a·b as states 0→1→2 versus the same automaton with ids permuted
        // (2→0→1) and an unreachable garbage state appended.
        let direct = Nfa::from_parts(
            vec![vec![(Symbol(0), 1)], vec![(Symbol(1), 2)], vec![]],
            [0],
            [2],
        );
        let permuted = Nfa::from_parts(
            vec![
                vec![(Symbol(1), 1)],
                vec![],
                vec![(Symbol(0), 0)],
                vec![(Symbol(0), 3)], // unreachable
            ],
            [2],
            [1],
        );
        assert_eq!(direct.canonical_key(), permuted.canonical_key());
        // Same shape, different finals: keys must differ.
        let other_final = Nfa::from_parts(
            vec![vec![(Symbol(0), 1)], vec![(Symbol(1), 2)], vec![]],
            [0],
            [1],
        );
        assert_ne!(direct.canonical_key(), other_final.canonical_key());
    }

    #[test]
    fn canonical_key_same_regex_same_key() {
        let (n1, _) = nfa("(a b)* c");
        let (n2, _) = nfa("(a b)* c");
        assert_eq!(n1.canonical_key(), n2.canonical_key());
        assert_eq!(
            n1.canonical_key().fingerprint(),
            n2.canonical_key().fingerprint()
        );
        let (n3, _) = nfa("(a b)* c c");
        assert_ne!(n1.canonical_key(), n3.canonical_key());
    }

    #[test]
    fn useful_states_empty_language() {
        let n = Nfa::empty();
        assert!(n.useful_states().is_empty());
        assert_eq!(n.shortest_word(), None);
        assert_eq!(n.words_up_to(5, usize::MAX), Vec::<Vec<Symbol>>::new());
    }
}
