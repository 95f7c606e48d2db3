//! Constructive evaluation: **witness extraction and verification**.
//!
//! [`eval_witness`] strengthens [`Eval::contains`](crate::Eval::contains) from
//! a boolean to a fully materialised certificate: the ε-free variant used,
//! the node image of every variable, and one concrete node path per atom.
//! [`verify_witness`] checks such a certificate *independently* of the
//! search (NFA state-set simulation over the path's edge labels plus the
//! simplicity/disjointness conditions of §2.1), so the pair serves both as
//! a user-facing explain feature and as a self-check of the evaluator: an
//! extracted witness must always verify, and membership must hold exactly
//! when a witness exists.
//!
//! ```
//! use crpq_core::{eval_witness, verify_witness, Semantics};
//! use crpq_graph::GraphBuilder;
//! use crpq_query::parse_crpq;
//!
//! let mut b = GraphBuilder::new();
//! b.edge("ada", "knows", "carl").edge("carl", "knows", "emmy");
//! let mut g = b.finish();
//! let q = parse_crpq("(x, y) <- x -[knows knows*]-> y", g.alphabet_mut()).unwrap();
//! let (src, dst) = (g.node_by_name("ada").unwrap(), g.node_by_name("emmy").unwrap());
//!
//! let w = eval_witness(&q, &g, &[src, dst], Semantics::QueryInjective).unwrap();
//! assert_eq!(w.atom_paths.len(), 1);
//! assert_eq!(w.atom_paths[0].len(), 3); // ada → carl → emmy
//! assert!(verify_witness(&q, &g, &[src, dst], Semantics::QueryInjective, &w).is_ok());
//! ```

use crate::eval::{Semantics, VariantEval};
use crpq_automata::Nfa;
use crpq_graph::{GraphDb, NodeId};
use crpq_query::Crpq;
use crpq_util::{BitSet, FxHashSet};

/// A materialised certificate for `tuple ∈ Q(G)★`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Witness {
    /// Index of the ε-free variant (within
    /// [`Crpq::epsilon_free_union`]) the witness instantiates.
    pub variant_index: usize,
    /// Node image `μ(v)` of every variable of that variant, indexed by
    /// variable.
    pub assignment: Vec<NodeId>,
    /// One node path per atom of the variant; `path[0] = μ(src)` and
    /// `path.last() = μ(dst)`. A length-1 path is the empty path.
    pub atom_paths: Vec<Vec<NodeId>>,
}

/// Why a candidate [`Witness`] fails verification.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WitnessError {
    /// `variant_index` does not name an ε-free variant of the query.
    VariantOutOfRange,
    /// The assignment does not cover exactly the variant's variables.
    AssignmentArity,
    /// A free variable is not mapped to the corresponding tuple node.
    FreeTupleMismatch,
    /// An atom path does not start/end at the images of its variables.
    EndpointMismatch {
        /// Offending atom index.
        atom: usize,
    },
    /// An atom path is not realisable with a label word in the atom's
    /// language (missing edge or no accepting labelling).
    LabelNotAccepted {
        /// Offending atom index.
        atom: usize,
    },
    /// Under an injective semantics, an atom path repeats a node (or a
    /// self-loop atom is not a simple cycle).
    NotSimple {
        /// Offending atom index.
        atom: usize,
    },
    /// Under query-injective semantics, two distinct variables share an
    /// image.
    NotInjectiveAssignment,
    /// Under query-injective semantics, an internal path node is shared
    /// with another path or with a variable image.
    SharedInternalNode {
        /// The shared node.
        node: NodeId,
    },
}

impl std::fmt::Display for WitnessError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WitnessError::VariantOutOfRange => write!(f, "variant index out of range"),
            WitnessError::AssignmentArity => write!(f, "assignment arity mismatch"),
            WitnessError::FreeTupleMismatch => write!(f, "free variables not mapped to the tuple"),
            WitnessError::EndpointMismatch { atom } => {
                write!(
                    f,
                    "atom {atom}: path endpoints differ from the variable images"
                )
            }
            WitnessError::LabelNotAccepted { atom } => {
                write!(
                    f,
                    "atom {atom}: no labelling of the path lies in the atom language"
                )
            }
            WitnessError::NotSimple { atom } => {
                write!(f, "atom {atom}: path is not simple (or not a simple cycle)")
            }
            WitnessError::NotInjectiveAssignment => {
                write!(f, "assignment is not injective")
            }
            WitnessError::SharedInternalNode { node } => {
                write!(
                    f,
                    "internal node {node:?} shared across paths or with a variable image"
                )
            }
        }
    }
}

impl std::error::Error for WitnessError {}

/// Searches for a witness of `tuple ∈ Q(G)★`.
///
/// Returns `Some` exactly when
/// [`Eval::contains`](crate::Eval::contains) returns `true`; the returned
/// witness always passes [`verify_witness`].
pub fn eval_witness(q: &Crpq, g: &GraphDb, tuple: &[NodeId], sem: Semantics) -> Option<Witness> {
    assert_eq!(
        q.free.len(),
        tuple.len(),
        "tuple arity must match free tuple"
    );
    for (variant_index, variant) in q.epsilon_free_union().iter().enumerate() {
        if let Some((assignment, atom_paths)) =
            VariantEval::build(variant, g, sem, false).contains_witness(tuple)
        {
            return Some(Witness {
                variant_index,
                assignment,
                atom_paths,
            });
        }
    }
    None
}

/// Checks a [`Witness`] against the query, graph, tuple and semantics,
/// independently of how it was produced.
pub fn verify_witness(
    q: &Crpq,
    g: &GraphDb,
    tuple: &[NodeId],
    sem: Semantics,
    w: &Witness,
) -> Result<(), WitnessError> {
    let variants = q.epsilon_free_union();
    let variant = variants
        .get(w.variant_index)
        .ok_or(WitnessError::VariantOutOfRange)?;
    if w.assignment.len() != variant.num_vars || w.atom_paths.len() != variant.atoms.len() {
        return Err(WitnessError::AssignmentArity);
    }
    if variant
        .free
        .iter()
        .zip(tuple)
        .any(|(&v, &n)| w.assignment[v.index()] != n)
    {
        return Err(WitnessError::FreeTupleMismatch);
    }

    for (i, (atom, path)) in variant.atoms.iter().zip(&w.atom_paths).enumerate() {
        let (s, d) = (
            w.assignment[atom.src.index()],
            w.assignment[atom.dst.index()],
        );
        if path.first() != Some(&s) || path.last() != Some(&d) {
            return Err(WitnessError::EndpointMismatch { atom: i });
        }
        if !path_matches_language(g, &atom.nfa(), path) {
            return Err(WitnessError::LabelNotAccepted { atom: i });
        }
        if sem != Semantics::Standard && !is_simple(atom.src == atom.dst, path) {
            return Err(WitnessError::NotSimple { atom: i });
        }
    }

    if sem == Semantics::QueryInjective {
        let distinct: FxHashSet<NodeId> = w.assignment.iter().copied().collect();
        if distinct.len() != w.assignment.len() {
            return Err(WitnessError::NotInjectiveAssignment);
        }
        // Internal nodes must be globally fresh: not a variable image, and
        // not internal to any other path.
        let mut used: FxHashSet<NodeId> = w.assignment.iter().copied().collect();
        for path in &w.atom_paths {
            for &n in path.iter().take(path.len().saturating_sub(1)).skip(1) {
                if !used.insert(n) {
                    return Err(WitnessError::SharedInternalNode { node: n });
                }
            }
        }
    }
    Ok(())
}

/// Whether some labelling of the node path is accepted by the NFA —
/// state-set simulation where each step may use any parallel edge label.
fn path_matches_language(g: &GraphDb, nfa: &Nfa, path: &[NodeId]) -> bool {
    let mut states = nfa.initials().clone();
    for win in path.windows(2) {
        let (u, v) = (win[0], win[1]);
        let mut next = BitSet::new(nfa.num_states());
        for &(sym, to) in g.out_edges(u) {
            if to == v {
                next.union_with(&nfa.delta_set(&states, sym));
            }
        }
        states = next;
        if states.is_empty() {
            return false;
        }
    }
    states.iter().any(|q| nfa.is_final(q as u32))
}

/// Simple-path / simple-cycle check per §2: all nodes pairwise distinct, or
/// (for self-loop atoms) first = last with internal nodes pairwise distinct
/// and at least one edge.
fn is_simple(cycle: bool, path: &[NodeId]) -> bool {
    if cycle {
        if path.len() < 2 || path.first() != path.last() {
            return false;
        }
        let mut seen = FxHashSet::default();
        path[..path.len() - 1].iter().all(|&n| seen.insert(n))
    } else {
        let mut seen = FxHashSet::default();
        path.iter().all(|&n| seen.insert(n))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::Eval;
    use crpq_graph::GraphBuilder;
    use crpq_query::parse_crpq;

    fn graph(edges: &[(&str, &str, &str)]) -> GraphDb {
        let mut b = GraphBuilder::new();
        for &(u, l, v) in edges {
            b.edge(u, l, v);
        }
        b.finish()
    }

    fn example21_g() -> GraphDb {
        graph(&[
            ("u", "a", "v"),
            ("v", "b", "w"),
            ("w", "c", "v"),
            ("v", "c", "u"),
        ])
    }

    fn n(g: &GraphDb, s: &str) -> NodeId {
        g.node_by_name(s).unwrap()
    }

    #[test]
    fn witness_exists_iff_member_and_verifies() {
        let mut g = example21_g();
        let q = parse_crpq("(x, y) <- x -[(a b)*]-> y, y -[c*]-> x", g.alphabet_mut()).unwrap();
        for sem in Semantics::ALL {
            for a in g.nodes() {
                for b in g.nodes() {
                    let member = Eval::new(&q, &g).semantics(sem).contains(&[a, b]);
                    let witness = eval_witness(&q, &g, &[a, b], sem);
                    assert_eq!(member, witness.is_some(), "({a:?},{b:?}) {sem}");
                    if let Some(w) = witness {
                        verify_witness(&q, &g, &[a, b], sem, &w)
                            .unwrap_or_else(|e| panic!("({a:?},{b:?}) {sem}: {e}"));
                    }
                }
            }
        }
    }

    #[test]
    fn standard_witness_is_shortest_per_atom() {
        let mut g = graph(&[("u", "a", "v"), ("v", "a", "w"), ("u", "a", "w")]);
        let q = parse_crpq("(x, y) <- x -[a a*]-> y", g.alphabet_mut()).unwrap();
        let w = eval_witness(&q, &g, &[n(&g, "u"), n(&g, "w")], Semantics::Standard).unwrap();
        assert_eq!(w.atom_paths[0].len(), 2, "direct edge is shortest");
    }

    #[test]
    fn qinj_witness_paths_are_disjoint() {
        let mut g = graph(&[
            ("r", "b", "p1"),
            ("p1", "b", "p2"),
            ("r", "c", "q1"),
            ("q1", "c", "q2"),
        ]);
        let q = parse_crpq("x -[b b]-> y, x -[c c]-> z", g.alphabet_mut()).unwrap();
        let w = eval_witness(&q, &g, &[], Semantics::QueryInjective).unwrap();
        verify_witness(&q, &g, &[], Semantics::QueryInjective, &w).unwrap();
        // Tamper: make both paths the b-branch — must now fail.
        let mut bad = w.clone();
        bad.atom_paths[1] = bad.atom_paths[0].clone();
        assert!(verify_witness(&q, &g, &[], Semantics::QueryInjective, &bad).is_err());
    }

    #[test]
    fn tampered_witnesses_are_rejected() {
        let mut g = example21_g();
        let q = parse_crpq("(x, y) <- x -[(a b)*]-> y, y -[c*]-> x", g.alphabet_mut()).unwrap();
        let (u, w_node) = (n(&g, "u"), n(&g, "w"));
        let w = eval_witness(&q, &g, &[u, w_node], Semantics::AtomInjective).unwrap();
        // Wrong variant index.
        let mut bad = w.clone();
        bad.variant_index = 99;
        assert_eq!(
            verify_witness(&q, &g, &[u, w_node], Semantics::AtomInjective, &bad),
            Err(WitnessError::VariantOutOfRange)
        );
        // Truncated path breaks the endpoint condition.
        let mut bad = w.clone();
        if bad.atom_paths[0].len() > 1 {
            bad.atom_paths[0].pop();
            assert!(verify_witness(&q, &g, &[u, w_node], Semantics::AtomInjective, &bad).is_err());
        }
        // Wrong tuple.
        assert!(verify_witness(&q, &g, &[w_node, u], Semantics::AtomInjective, &w).is_err());
    }

    #[test]
    fn self_loop_atom_witness_is_simple_cycle() {
        let mut g = graph(&[("u", "a", "v"), ("v", "a", "u")]);
        let q = parse_crpq("x -[a a]-> x", g.alphabet_mut()).unwrap();
        for sem in [Semantics::AtomInjective, Semantics::QueryInjective] {
            let w = eval_witness(&q, &g, &[], sem).unwrap();
            assert_eq!(w.atom_paths[0].len(), 3);
            assert_eq!(w.atom_paths[0][0], w.atom_paths[0][2]);
            verify_witness(&q, &g, &[], sem, &w).unwrap();
        }
    }

    #[test]
    fn nonsimple_path_rejected_under_injective() {
        // G′-style walk witness is fine for st but not a-inj.
        let mut g = graph(&[
            ("u", "a", "w"),
            ("w", "b", "t"),
            ("t", "a", "u"),
            ("u", "b", "v"),
        ]);
        let q = parse_crpq("(x, y) <- x -[(a b)*]-> y", g.alphabet_mut()).unwrap();
        let (u, v) = (n(&g, "u"), n(&g, "v"));
        let w = eval_witness(&q, &g, &[u, v], Semantics::Standard).unwrap();
        assert!(verify_witness(&q, &g, &[u, v], Semantics::Standard, &w).is_ok());
        // The only (ab)*-walk u→v revisits u: reject under a-inj.
        assert!(matches!(
            verify_witness(&q, &g, &[u, v], Semantics::AtomInjective, &w),
            Err(WitnessError::NotSimple { .. })
        ));
        assert!(eval_witness(&q, &g, &[u, v], Semantics::AtomInjective).is_none());
    }
}
