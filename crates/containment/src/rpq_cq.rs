//! Complete decision procedure for **single-atom CRPQ ⊆ CQ** containment
//! under standard semantics — the `CRPQ/CQ` column of Figure 1 for
//! one-atom left-hand queries, exact even with infinite languages.
//!
//! For `Q₁(x̄) = x -[L]-> y` (with `x ≠ y`), the expansions of `Q₁` are
//! labelled paths `path(w)`, `w ∈ L`. By Prop 4.2, `Q₁ ⊆st Q₂` iff every
//! `w ∈ L` admits a homomorphism `Q₂ → (path(w), pinned free tuple)`.
//!
//! The key observation making this decidable: the set
//! `W = { w : Q₂ → (path(w), pins) }` is **regular**. A homomorphism of a
//! CQ into a path assigns each variable a position; each atom `u -a-> v`
//! forces `pos(v) = pos(u) + 1` and the label `a` at `pos(u)`. Hence each
//! connected component of `Q₂` has rigid relative offsets (or is
//! unsatisfiable), i.e. it is a *pattern*: a window of consecutive edge
//! labels, some wildcarded. Components are placed independently:
//!
//! * unanchored components must occur as a **factor** (`Σ* P Σ*`);
//! * components with a variable pinned to the path start are **prefixes**
//!   (`P Σ*`), to the path end **suffixes** (`Σ* P`), to both —
//!   **exact-length** words.
//!
//! `W` is the intersection of these regular languages, and
//! `Q₁ ⊆st Q₂ ⟺ L ⊆ W` — a language-inclusion check on our DFA toolkit.

use crpq_automata::dfa::nfa_subset;
use crpq_automata::Nfa;
use crpq_core::Eval;
use crpq_graph::NodeId;
use crpq_query::{Cq, Crpq, Var};
use crpq_util::{FxHashMap, Symbol, UnionFind};

/// Where a `Q₂` variable is pinned on the path.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
enum Anchor {
    Start,
    End,
}

/// Decides `Q₁ ⊆st Q₂` exactly when `Q₁` has a single non-loop atom and
/// `Q₂` is a CQ; `None` when the instance is outside this fragment.
pub fn try_contain_rpq_cq_st(q1: &Crpq, q2: &Crpq) -> Option<bool> {
    if q1.free.len() != q2.free.len() {
        return Some(false);
    }
    let q2cq = q2.as_cq()?;
    for variant in q1.epsilon_free_union() {
        let verdict = match variant.atoms.len() {
            0 => collapsed_variant_contained(&variant, q2),
            1 => {
                let atom = &variant.atoms[0];
                if atom.src == atom.dst {
                    return None; // cycle expansions: different shape
                }
                single_atom_variant_contained(&variant, &q2cq)?
            }
            _ => return None,
        };
        if !verdict {
            return Some(false);
        }
    }
    Some(true)
}

/// The ε-collapsed variant: the expansion is a single isolated node.
fn collapsed_variant_contained(variant: &Crpq, q2: &Crpq) -> bool {
    // Build the 1-node-per-variable graph of the (atomless) variant and
    // evaluate Q2 on it with the pinned tuple — both are tiny.
    let cq = variant.as_cq().expect("atomless variant is a CQ"); // invariant: the caller only passes atomless variants
    let g = cq.to_graph_anon(1);
    let tuple: Vec<NodeId> = cq.free.iter().map(|v| NodeId(v.0)).collect();
    Eval::new(q2, &g).contains(&tuple)
}

fn single_atom_variant_contained(variant: &Crpq, q2: &Cq) -> Option<bool> {
    let atom = &variant.atoms[0];
    let lang = atom.nfa();

    // Anchor map: Q1's free tuple positions name path-start (src) or
    // path-end (dst); Q2 vars outside any atom stay anchorable too.
    let mut anchors: FxHashMap<Var, Vec<Anchor>> = FxHashMap::default();
    for (q1v, q2v) in variant.free.iter().zip(&q2.free) {
        let anchor = if *q1v == atom.src {
            Anchor::Start
        } else if *q1v == atom.dst {
            Anchor::End
        } else {
            return None; // Q1 free var outside the atom: unsupported shape
        };
        anchors.entry(*q2v).or_default().push(anchor);
    }

    // Alphabet of discourse.
    let mut alphabet: Vec<Symbol> = lang.symbols();
    alphabet.extend(q2.atoms.iter().map(|a| a.label));
    alphabet.sort_unstable();
    alphabet.dedup();
    if alphabet.is_empty() {
        // Empty language on the left: vacuously contained.
        return Some(lang.is_empty_language());
    }

    // Connected components of Q2 over its constraint graph.
    let mut uf = UnionFind::new(q2.num_vars);
    for a in &q2.atoms {
        uf.union(a.src.index(), a.dst.index());
    }
    let (comp_of, num_comps) = uf.dense_classes();

    let mut component_nfas: Vec<Nfa> = Vec::new();
    for comp in 0..num_comps {
        let vars: Vec<usize> = (0..q2.num_vars).filter(|&v| comp_of[v] == comp).collect();
        let atoms: Vec<_> = q2
            .atoms
            .iter()
            .filter(|a| comp_of[a.src.index()] == comp)
            .collect();
        match component_language(&vars, &atoms, &anchors, &alphabet) {
            ComponentLang::Unsat => {
                // No placement of this component into any path: contained
                // iff the left language is empty.
                return Some(lang.is_empty_language());
            }
            ComponentLang::Trivial => {}
            ComponentLang::Nfa(nfa) => component_nfas.push(nfa),
        }
    }

    // W = ⋂ components; Q1 ⊆ Q2 iff L ⊆ W.
    let contained = match component_nfas.len() {
        0 => true, // W = Σ*: every expansion admits a hom
        _ => {
            let mut w = component_nfas.pop().unwrap(); // invariant: every component contributes an NFA
            for other in &component_nfas {
                w = w.product(other);
            }
            nfa_subset(&lang, &w, &alphabet)
        }
    };
    Some(contained)
}

enum ComponentLang {
    /// The component can never be placed: `W = ∅`.
    Unsat,
    /// The component is always placeable: contributes `Σ*`.
    Trivial,
    /// A proper regular constraint.
    Nfa(Nfa),
}

/// Computes the placement language of one component.
fn component_language(
    vars: &[usize],
    atoms: &[&crpq_query::CqAtom],
    anchors: &FxHashMap<Var, Vec<Anchor>>,
    alphabet: &[Symbol],
) -> ComponentLang {
    // Rigid offsets by BFS from the first variable.
    let mut offset: FxHashMap<usize, i64> = FxHashMap::default();
    offset.insert(vars[0], 0);
    let mut changed = true;
    while changed {
        changed = false;
        for a in atoms {
            let (s, d) = (a.src.index(), a.dst.index());
            match (offset.get(&s).copied(), offset.get(&d).copied()) {
                (Some(os), None) => {
                    offset.insert(d, os + 1);
                    changed = true;
                }
                (None, Some(od)) => {
                    offset.insert(s, od - 1);
                    changed = true;
                }
                (Some(os), Some(od)) => {
                    if od != os + 1 {
                        return ComponentLang::Unsat; // cycle of wrong length
                    }
                }
                (None, None) => {}
            }
        }
    }
    debug_assert!(
        vars.iter().all(|v| offset.contains_key(v)),
        "component connected"
    );

    let min = offset.values().copied().min().unwrap_or(0);
    let max = offset.values().copied().max().unwrap_or(0);
    let span = (max - min) as usize;

    // Edge-label pattern over relative edges `0..span`.
    let mut pattern: Vec<Option<Symbol>> = vec![None; span];
    for a in atoms {
        let pos = (offset[&a.src.index()] - min) as usize;
        match pattern[pos] {
            Some(existing) if existing != a.label => return ComponentLang::Unsat,
            _ => pattern[pos] = Some(a.label),
        }
    }

    // Anchor classification.
    let mut start_anchored = false;
    let mut end_positions: Vec<usize> = Vec::new();
    for &v in vars {
        if let Some(list) = anchors.get(&Var(v as u32)) {
            let norm = (offset[&v] - min) as usize;
            for anchor in list {
                match anchor {
                    Anchor::Start => {
                        if norm != 0 {
                            return ComponentLang::Unsat; // var left of the start
                        }
                        start_anchored = true;
                    }
                    Anchor::End => end_positions.push(norm),
                }
            }
        }
    }
    let end_anchored = !end_positions.is_empty();
    if end_anchored {
        // All end-pinned vars must sit at a common position, which must be
        // the right edge of the window (else a var overruns the path).
        if end_positions.iter().any(|&p| p != span) {
            return ComponentLang::Unsat;
        }
    }
    if start_anchored && end_anchored && span == 0 {
        // |w| = 0 forced: impossible for ε-free expansions.
        return ComponentLang::Unsat;
    }
    if span == 0 && pattern.is_empty() {
        // Isolated variable(s): placeable in any non-empty path.
        return ComponentLang::Trivial;
    }

    ComponentLang::Nfa(pattern_nfa(
        &pattern,
        start_anchored,
        end_anchored,
        alphabet,
    ))
}

/// Builds the NFA of `[Σ*] pattern [Σ*]` with the requested anchoring.
fn pattern_nfa(
    pattern: &[Option<Symbol>],
    start_anchored: bool,
    end_anchored: bool,
    alphabet: &[Symbol],
) -> Nfa {
    let span = pattern.len();
    // States: 0 = pre (if unanchored at start), 1..=span chain, post loop.
    let mut transitions: Vec<Vec<(Symbol, u32)>> = Vec::new();
    let pre = 0u32;
    transitions.push(Vec::new());
    let chain_start = pre; // pattern starts at state `pre`
    for _ in 0..span {
        transitions.push(Vec::new());
    }
    let chain_end = span as u32;
    if !start_anchored {
        for &s in alphabet {
            transitions[pre as usize].push((s, pre));
        }
    }
    for (i, slot) in pattern.iter().enumerate() {
        let (from, to) = (chain_start + i as u32, chain_start + i as u32 + 1);
        match slot {
            Some(sym) => transitions[from as usize].push((*sym, to)),
            None => {
                for &s in alphabet {
                    transitions[from as usize].push((s, to));
                }
            }
        }
    }
    if !end_anchored {
        for &s in alphabet {
            transitions[chain_end as usize].push((s, chain_end));
        }
    }
    Nfa::from_parts(transitions, [chain_start], [chain_end])
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

    #[test]
    fn boolean_rpq_into_edge() {
        let mut it = Interner::new();
        // Every non-empty a-path has an a-edge.
        let q1 = q("x -[a a*]-> y", &mut it);
        let q2 = q("u -[a]-> v", &mut it);
        assert_eq!(try_contain_rpq_cq_st(&q1, &q2), Some(true));
        // …but not necessarily a b-edge.
        let q3 = q("u -[b]-> v", &mut it);
        assert_eq!(try_contain_rpq_cq_st(&q1, &q3), Some(false));
    }

    #[test]
    fn factor_patterns() {
        let mut it = Interner::new();
        // Does every word of (ab)^+ contain the factor "ab"? Yes.
        let q1 = q("x -[(a b)(a b)*]-> y", &mut it);
        let q2 = q("u -[a]-> v, v -[b]-> w", &mut it);
        assert_eq!(try_contain_rpq_cq_st(&q1, &q2), Some(true));
        // Factor "ba" requires length ≥ 4: fails on "ab".
        let q3 = q("u -[b]-> v, v -[a]-> w", &mut it);
        assert_eq!(try_contain_rpq_cq_st(&q1, &q3), Some(false));
        // But (ab)(ab)^+ (length ≥ 4) does contain "ba".
        let q1b = q("x -[(a b)(a b)(a b)*]-> y", &mut it);
        assert_eq!(try_contain_rpq_cq_st(&q1b, &q3), Some(true));
    }

    #[test]
    fn anchored_patterns() {
        let mut it = Interner::new();
        // Pinned endpoints: Q2 = exactly two a-steps from x to y.
        let q1 = q("(x, y) <- x -[a a]-> y", &mut it);
        let q2 = q("(u, w) <- u -[a]-> v, v -[a]-> w", &mut it);
        assert_eq!(try_contain_rpq_cq_st(&q1, &q2), Some(true));
        // a^+ is not always exactly two steps.
        let q1b = q("(x, y) <- x -[a a*]-> y", &mut it);
        assert_eq!(try_contain_rpq_cq_st(&q1b, &q2), Some(false));
        // Prefix anchoring: does every a^≥2 word start with a? Trivially.
        let q1c = q("(x) <- x -[a a a*]-> y", &mut it);
        let q2c = q("(u) <- u -[a]-> v", &mut it);
        assert_eq!(try_contain_rpq_cq_st(&q1c, &q2c), Some(true));
        // Start with a then b: fails (second letter is a).
        let q2d = q("(u) <- u -[a]-> v, v -[b]-> w", &mut it);
        assert_eq!(try_contain_rpq_cq_st(&q1c, &q2d), Some(false));
    }

    #[test]
    fn reversed_free_tuple_anchors_to_end() {
        let mut it = Interner::new();
        // Q1(y, x): first tuple position is the path END.
        let q1 = q("(y, x) <- x -[a b]-> y", &mut it);
        // Q2(u, w): u pinned to END, w to START: u must be reached by b.
        let q2 = q("(u, w) <- v -[b]-> u", &mut it);
        assert_eq!(try_contain_rpq_cq_st(&q1, &q2), Some(true));
        let q3 = q("(u, w) <- v -[a]-> u", &mut it);
        assert_eq!(try_contain_rpq_cq_st(&q1, &q3), Some(false));
    }

    #[test]
    fn unsatisfiable_component_shapes() {
        let mut it = Interner::new();
        let q1 = q("x -[a a*]-> y", &mut it);
        // Q2 has a 1-cycle: u -a-> v, v -a-> u forces offset conflict.
        let q2 = q("u -[a]-> v, v -[a]-> u", &mut it);
        assert_eq!(try_contain_rpq_cq_st(&q1, &q2), Some(false));
        // Conflicting labels at the same offset.
        let q3 = q("u -[a]-> v, u -[b]-> v", &mut it);
        assert_eq!(try_contain_rpq_cq_st(&q1, &q3), Some(false));
        // And the empty left language is contained in anything.
        let q4 = q("x -[∅]-> y", &mut it);
        assert_eq!(try_contain_rpq_cq_st(&q4, &q2), Some(true));
    }

    #[test]
    fn epsilon_variants_handled() {
        let mut it = Interner::new();
        // a*: the ε-variant collapses x=y to one node with no edges;
        // Q2 = single edge fails there.
        let q1 = q("(x, y) <- x -[a*]-> y", &mut it);
        let q2 = q("(u, v) <- u -[a]-> v", &mut it);
        assert_eq!(try_contain_rpq_cq_st(&q1, &q2), Some(false));
        // Q2 with no atoms and matching pinning succeeds on both variants.
        let q3 = q("(u, v) <- true", &mut it);
        assert_eq!(try_contain_rpq_cq_st(&q1, &q3), Some(true));
    }

    #[test]
    fn agrees_with_naive_on_finite_languages() {
        let mut it = Interner::new();
        let pairs = [
            (
                "(x, y) <- x -[a b + b a]-> y",
                "(u, w) <- u -[a]-> v, v -[b]-> w",
            ),
            ("x -[a b + b a]-> y", "u -[a]-> v, v -[b]-> w"),
            ("(x, y) <- x -[a a + a]-> y", "(u, w) <- u -[a]-> w"),
            ("x -[a b a]-> y", "u -[b]-> v"),
            ("x -[a b a]-> y", "u -[b]-> v, w -[a]-> z"),
        ];
        for (t1, t2) in pairs {
            let q1 = q(t1, &mut it);
            let q2 = q(t2, &mut it);
            let exact = try_contain_rpq_cq_st(&q1, &q2);
            let naive = contain_with(
                &q1,
                &q2,
                Semantics::Standard,
                ExpansionLimits {
                    max_word_len: 8,
                    max_expansions: usize::MAX,
                },
            );
            assert_eq!(exact, naive.as_bool(), "mismatch on {t1} ⊆ {t2}");
        }
    }

    #[test]
    fn out_of_fragment_instances_bail() {
        let mut it = Interner::new();
        let q1 = q("x -[a]-> y, y -[b]-> z", &mut it); // two atoms
        let q2 = q("u -[a]-> v", &mut it);
        assert_eq!(try_contain_rpq_cq_st(&q1, &q2), None);
        let loopy = q("x -[a a]-> x", &mut it); // self-loop atom
        assert_eq!(try_contain_rpq_cq_st(&loopy, &q2), None);
        let crpq_right = q("u -[a a*]-> v", &mut it); // right side not CQ
        assert_eq!(try_contain_rpq_cq_st(&q1, &crpq_right), None);
    }
}
