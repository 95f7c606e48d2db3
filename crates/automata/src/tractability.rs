//! Simple-path evaluation **tractability analysis** of regular languages.
//!
//! The paper's §3 recalls that RPQ evaluation under simple-path semantics is
//! NP-complete in data complexity even for very simple languages
//! (Mendelzon & Wood, `(aa)*`), and that the tractable languages have been
//! characterised by a trichotomy [Bagan, Bonifati, Groz; JCSS 2020 — the
//! paper's reference \[3\]]: evaluation is either AC⁰ (finite languages),
//! NL-complete, or NP-complete. This module implements two *decidable,
//! sound* criteria in the spirit of that trichotomy — it is a conservative
//! classifier, not a reproduction of the exact `C_tract` frontier:
//!
//! * [`deletion_closed`] — `L` is **factor-deletion closed** when
//!   `u·w·v ∈ L ⟹ u·v ∈ L` for every non-empty `w` with `u·v ≠ ε` (the
//!   guard matches walks between distinct endpoints, which never prune to
//!   the empty word). For such languages a walk witness can be
//!   *loop-pruned* to a simple path whose label stays in `L`, so
//!   simple-path evaluation coincides with arbitrary-path reachability and
//!   is solvable in NL (e.g. `a*`, `a⁺`, `A*` over a sub-alphabet,
//!   `a*c*`). This is a sufficient tractability condition and
//!   yields an actual fast path for atom-injective evaluation
//!   (see `crpq-core`).
//! * [`insertion_closed`] — `L` is **loop-insertion closed** when some `k`
//!   satisfies `u·wᵏ·v ∈ L ⟹ u·wᵏ⁺¹·v ∈ L` for all `u, w, v`. Failure of
//!   this condition is the parity/counting obstruction behind the classical
//!   NP-hardness proofs (`(aa)*`-style gadgets force witnesses to thread
//!   simple paths of constrained length). On the minimal DFA the condition
//!   is *equivalent to aperiodicity of the transition monoid* (inclusions
//!   around a cycle of residual languages compose to equality, and equal
//!   residuals collapse in the minimal DFA), which is how we decide it.
//!
//! Neither condition is the exact frontier: `a*·b·a*` is insertion-closed
//! (aperiodic) yet NP-hard — a simple path labelled `a*ba*` threads two
//! internally disjoint `a`-paths through a `b`-edge, which encodes the
//! directed two-disjoint-paths problem. Such languages are reported as
//! [`SimplePathClass::Frontier`].
//!
//! ```
//! use crpq_automata::{parse_regex, Nfa};
//! use crpq_automata::tractability::{classify, SimplePathClass, AnalysisLimits};
//! use crpq_util::Interner;
//!
//! let mut sigma = Interner::new();
//! let nfa = |s: &str, sigma: &mut Interner| Nfa::from_regex(&parse_regex(s, sigma).unwrap());
//! let alphabet: Vec<_> = ["a", "b"].iter().map(|s| sigma.intern(s)).collect();
//! let mut cls = |s: &str, sigma: &mut Interner| {
//!     classify(&nfa(s, sigma), &alphabet, AnalysisLimits::default()).unwrap()
//! };
//! assert_eq!(cls("a*", &mut sigma), SimplePathClass::DeletionClosed);
//! assert_eq!(cls("(a a)*", &mut sigma), SimplePathClass::ParityHard);
//! assert_eq!(cls("a* b a*", &mut sigma), SimplePathClass::Frontier);
//! assert_eq!(cls("a b + b", &mut sigma), SimplePathClass::Finite { max_len: 2 });
//! ```

use crate::dfa::{nfa_subset, Dfa};
use crate::nfa::Nfa;
use crpq_util::{FxHashSet, Symbol};
use std::collections::VecDeque;

/// Conservative classification of simple-path RPQ evaluation for a regular
/// language, in the spirit of the trichotomy of \[3\].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SimplePathClass {
    /// Finite language: witnesses have bounded length, evaluation is
    /// AC⁰-style in data complexity.
    Finite {
        /// Length of the longest word.
        max_len: usize,
    },
    /// Factor-deletion closed: simple-path evaluation reduces to
    /// arbitrary-path reachability (NL-style) by loop pruning.
    DeletionClosed,
    /// Not loop-insertion closed: the parity/counting obstruction of the
    /// classical NP-hardness constructions applies.
    ParityHard,
    /// Insertion-closed but not deletion-closed: outside both sound
    /// criteria; may be tractable or NP-hard (e.g. `a*ba*`).
    Frontier,
}

impl SimplePathClass {
    /// Whether the class comes with a polynomial-time evaluation guarantee.
    pub fn is_tractable(self) -> bool {
        matches!(
            self,
            SimplePathClass::Finite { .. } | SimplePathClass::DeletionClosed
        )
    }
}

/// Resource caps for the analysis (the transition monoid can have up to
/// `|Q|^|Q|` elements).
#[derive(Clone, Copy, Debug)]
pub struct AnalysisLimits {
    /// Maximum number of monoid elements to enumerate.
    pub max_monoid: usize,
}

impl Default for AnalysisLimits {
    fn default() -> Self {
        AnalysisLimits {
            max_monoid: 100_000,
        }
    }
}

/// Classifies a language; `None` when the monoid enumeration exceeds the
/// configured cap (inconclusive).
pub fn classify(nfa: &Nfa, alphabet: &[Symbol], limits: AnalysisLimits) -> Option<SimplePathClass> {
    if nfa.is_finite() {
        return Some(SimplePathClass::Finite {
            max_len: nfa.max_word_len().unwrap_or(0),
        });
    }
    if deletion_closed(nfa, alphabet) {
        return Some(SimplePathClass::DeletionClosed);
    }
    match insertion_closed(nfa, alphabet, limits.max_monoid) {
        Some(true) => Some(SimplePathClass::Frontier),
        Some(false) => Some(SimplePathClass::ParityHard),
        None => None,
    }
}

/// Whether `L` is factor-deletion closed: `u·w·v ∈ L ⟹ u·v ∈ L` for all
/// non-empty `w` with `u·v ≠ ε`. Decided as the regular inclusion
/// `{u·v : ∃w≠ε, u·w·v ∈ L} ∖ {ε} ⊆ L`.
///
/// The `u·v ≠ ε` guard matches the loop-pruning use case exactly: pruning a
/// cycle out of a walk between **distinct** endpoints never empties the
/// word, so `a·a*` (= `a⁺`) rightly qualifies even though deleting a whole
/// word would leave `ε ∉ a⁺`.
pub fn deletion_closed(nfa: &Nfa, alphabet: &[Symbol]) -> bool {
    nfa_subset(&delete_one_factor(nfa).without_epsilon(), nfa, alphabet)
}

/// The language `{u·v : ∃w ≠ ε, u·w·v ∈ L(nfa)}` (one non-empty factor
/// deleted). Closure under a single deletion implies closure under any
/// number, so this suffices for [`deletion_closed`].
pub fn delete_one_factor(nfa: &Nfa) -> Nfa {
    let ns = nfa.num_states();
    // Two copies: read `u` in copy 1, jump over a non-empty factor, read `v`
    // in copy 2. Jumps are folded into the following letter (or into
    // finality when `v = ε`).
    let reach_plus: Vec<FxHashSet<u32>> = (0..ns as u32).map(|q| reach_plus(nfa, q)).collect();
    let mut transitions: Vec<Vec<(Symbol, u32)>> = vec![Vec::new(); 2 * ns];
    for q in 0..ns as u32 {
        for &(sym, to) in nfa.transitions_from(q) {
            transitions[q as usize].push((sym, to)); // copy 1
            transitions[ns + q as usize].push((sym, ns as u32 + to)); // copy 2
        }
    }
    let mut finals: Vec<u32> = nfa.finals().iter().map(|q| (ns + q) as u32).collect();
    for q in 0..ns as u32 {
        for &p in &reach_plus[q as usize] {
            // Jump q ⇝ p, then read the first letter of `v` in copy 2 …
            for &(sym, to) in nfa.transitions_from(p) {
                transitions[q as usize].push((sym, ns as u32 + to));
            }
            // … or end immediately (`v = ε`).
            if nfa.is_final(p) {
                finals.push(q);
            }
        }
    }
    Nfa::from_parts(transitions, nfa.initials().iter().map(|q| q as u32), finals)
}

/// States reachable from `q` by at least one transition.
fn reach_plus(nfa: &Nfa, q: u32) -> FxHashSet<u32> {
    let mut seen = FxHashSet::default();
    let mut queue: VecDeque<u32> = nfa.transitions_from(q).iter().map(|&(_, t)| t).collect();
    for &t in &queue {
        seen.insert(t);
    }
    while let Some(p) = queue.pop_front() {
        for &(_, t) in nfa.transitions_from(p) {
            if seen.insert(t) {
                queue.push_back(t);
            }
        }
    }
    seen
}

/// Whether `L` is loop-insertion closed (`∃k ∀u,w,v: u·wᵏ·v ∈ L ⟹
/// u·wᵏ⁺¹·v ∈ L`), decided as aperiodicity of the transition monoid of the
/// minimal DFA. Returns `None` when the monoid exceeds `max_monoid`.
pub fn insertion_closed(nfa: &Nfa, alphabet: &[Symbol], max_monoid: usize) -> Option<bool> {
    let dfa = Dfa::from_nfa(nfa, alphabet).minimized();
    let n = dfa.num_states();
    let generators: Vec<Vec<u32>> = (0..dfa.alphabet().len())
        .map(|i| dfa.letter_function(i))
        .collect();
    // BFS closure of the generators under composition with generators.
    let mut seen: FxHashSet<Vec<u32>> = FxHashSet::default();
    let mut queue: VecDeque<Vec<u32>> = VecDeque::new();
    for g in &generators {
        if seen.insert(g.clone()) {
            queue.push_back(g.clone());
        }
    }
    while let Some(f) = queue.pop_front() {
        if !aperiodic_element(&f, n) {
            return Some(false);
        }
        if seen.len() > max_monoid {
            return None;
        }
        for g in &generators {
            // h = g ∘ f (read f's word, then g's letter).
            let h: Vec<u32> = f.iter().map(|&q| g[q as usize]).collect();
            if seen.insert(h.clone()) {
                queue.push_back(h);
            }
        }
    }
    Some(true)
}

/// Whether the functional graph of `f` on `n` states has only trivial
/// cycles (`f^n(p)` is a fixed point of `f` for every `p`).
fn aperiodic_element(f: &[u32], n: usize) -> bool {
    (0..n).all(|p| {
        let mut x = p as u32;
        for _ in 0..n {
            x = f[x as usize];
        }
        f[x as usize] == x
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_regex;
    use crpq_util::Interner;

    fn setup(exprs: &[&str]) -> (Vec<Nfa>, Vec<Symbol>, Interner) {
        let mut sigma = Interner::new();
        let nfas: Vec<Nfa> = exprs
            .iter()
            .map(|e| Nfa::from_regex(&parse_regex(e, &mut sigma).unwrap()))
            .collect();
        let alphabet: Vec<Symbol> = (0..sigma.len() as u32).map(Symbol).collect();
        (nfas, alphabet, sigma)
    }

    fn cls(expr: &str) -> SimplePathClass {
        let (nfas, mut alphabet, mut sigma) = setup(&[expr]);
        // Ensure at least two symbols so complements are meaningful.
        if alphabet.len() < 2 {
            alphabet.push(Symbol(sigma.intern("zz").0));
        }
        classify(&nfas[0], &alphabet, AnalysisLimits::default()).unwrap()
    }

    #[test]
    fn kleene_star_languages_are_deletion_closed() {
        assert_eq!(cls("a*"), SimplePathClass::DeletionClosed);
        assert_eq!(cls("(a + b)*"), SimplePathClass::DeletionClosed);
        assert_eq!(cls("a* b*"), SimplePathClass::DeletionClosed);
        // The ε-guard: a⁺ prunes to a⁺ between distinct endpoints.
        assert_eq!(cls("a a*"), SimplePathClass::DeletionClosed);
        assert_eq!(cls("(a + b)(a + b)*"), SimplePathClass::DeletionClosed);
    }

    #[test]
    fn parity_languages_are_hard() {
        assert_eq!(cls("(a a)*"), SimplePathClass::ParityHard);
        assert_eq!(cls("a (a a)*"), SimplePathClass::ParityHard);
        assert_eq!(cls("(a a a)*"), SimplePathClass::ParityHard);
    }

    #[test]
    fn finite_languages_are_bounded() {
        assert_eq!(cls("a b + b a"), SimplePathClass::Finite { max_len: 2 });
        assert_eq!(cls("∅"), SimplePathClass::Finite { max_len: 0 });
        assert_eq!(cls("ε"), SimplePathClass::Finite { max_len: 0 });
    }

    #[test]
    fn frontier_languages_detected() {
        // a*ba*: aperiodic (insertion-closed) but not deletion-closed —
        // NP-hard via two-disjoint-paths, outside both sound criteria.
        assert_eq!(cls("a* b a*"), SimplePathClass::Frontier);
        // (ab)*: star-free, deleting "a" from "ab" leaves "b" ∉ L.
        assert_eq!(cls("(a b)*"), SimplePathClass::Frontier);
    }

    #[test]
    fn deletion_closure_decision_is_exact() {
        let (nfas, alphabet, _) = setup(&["a* b a*", "(a + b)*", "(a a)*"]);
        assert!(!deletion_closed(&nfas[0], &alphabet));
        assert!(deletion_closed(&nfas[1], &alphabet));
        assert!(!deletion_closed(&nfas[2], &alphabet));
    }

    #[test]
    fn delete_one_factor_language() {
        let (nfas, _, _) = setup(&["a b c"]);
        let del = delete_one_factor(&nfas[0]);
        // Deleting one non-empty factor of "abc":
        let words = del.words_up_to(3, 100);
        let as_sets: std::collections::HashSet<Vec<Symbol>> = words.into_iter().collect();
        // ε (delete abc), a (delete bc), c (delete ab), ab, bc, ac (delete b).
        assert!(as_sets.contains(&vec![]));
        assert!(as_sets.contains(&vec![Symbol(0)]));
        assert!(as_sets.contains(&vec![Symbol(0), Symbol(1)]));
        assert!(as_sets.contains(&vec![Symbol(0), Symbol(2)]));
        assert!(as_sets.contains(&vec![Symbol(1), Symbol(2)]));
        assert!(as_sets.contains(&vec![Symbol(2)]));
        assert!(
            !as_sets.contains(&vec![Symbol(0), Symbol(1), Symbol(2)]),
            "no deletion is not allowed"
        );
        assert!(!as_sets.contains(&vec![Symbol(1)]), "b needs two deletions");
    }

    #[test]
    fn insertion_closure_matches_word_level_sampling() {
        // Cross-check aperiodicity against the defining property with k = n
        // on small words.
        for expr in ["a*", "(a a)*", "(a b)*", "a* b a*", "a b a"] {
            let (nfas, alphabet, _) = setup(&[expr]);
            let nfa = &nfas[0];
            let closed = insertion_closed(nfa, &alphabet, 100_000).unwrap();
            let k = 6; // ≥ number of DFA states for these tiny languages
            let mut violated = false;
            let words = |len: usize| -> Vec<Vec<Symbol>> {
                let mut out: Vec<Vec<Symbol>> = vec![Vec::new()];
                for _ in 0..len {
                    out = out
                        .into_iter()
                        .flat_map(|w| {
                            alphabet.iter().map(move |&s| {
                                let mut w2 = w.clone();
                                w2.push(s);
                                w2
                            })
                        })
                        .collect();
                }
                out
            };
            for u in [vec![], vec![Symbol(0)]] {
                for w in words(1).into_iter().chain(words(2)) {
                    for v in [vec![], vec![Symbol(0)], vec![Symbol(1)]] {
                        let mut base = u.clone();
                        for _ in 0..k {
                            base.extend(&w);
                        }
                        base.extend(&v);
                        let mut more = u.clone();
                        for _ in 0..k + 1 {
                            more.extend(&w);
                        }
                        more.extend(&v);
                        if nfa.accepts(&base) && !nfa.accepts(&more) {
                            violated = true;
                        }
                    }
                }
            }
            if violated {
                assert!(
                    !closed,
                    "{expr}: word-level violation but classified closed"
                );
            }
        }
    }
}
