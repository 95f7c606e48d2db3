//! Trail (edge-injective) semantics — the paper's §7 outlook, implemented.
//!
//! The paper closes by proposing the edge-injective analogues of its two
//! semantics: **atom-edge-injective** (`a-trail`: each atom witnessed by a
//! trail — no repeated edge; closed trail for `x -L-> x` atoms) and
//! **query-edge-injective** (`q-trail`: additionally, witness trails of
//! distinct atoms are pairwise edge-disjoint). Unlike query-injective
//! semantics there is *no* injectivity requirement on the variable
//! assignment — only edges are consumed.
//!
//! The hierarchy (mirroring Remark 2.1, plus a cross-link to the
//! node-injective semantics) is:
//!
//! ```text
//! q-trail ⊆ a-trail ⊆ st        a-inj ⊆ a-trail
//! ```
//!
//! (simple paths are trails). Note that `q-inj ⊆ q-trail` does **not**
//! hold under this operational definition: two atoms may pick *identical*
//! witness paths under q-inj (their expansion atoms coincide after
//! deduplication, so a node-injective homomorphism exists), while q-trail
//! demands pairwise edge-disjoint trails. On instances whose witnesses
//! never duplicate a whole path the inclusion holds — see the tests. The
//! paper's §7 outlook leaves this definitional choice open; we take the
//! disjoint-trails reading (the natural "edge-consuming" semantics).

use crpq_automata::Nfa;
use crpq_graph::rpq::{self, Edge};
use crpq_graph::{GraphDb, NodeId};
use crpq_query::{Crpq, Var};
use crpq_util::{BitSet, FxHashMap, FxHashSet};
use std::collections::BTreeSet;
use std::ops::ControlFlow;

/// The two edge-injective semantics of §7.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum TrailSemantics {
    /// Each atom witnessed by a trail; trails may share edges across atoms.
    AtomTrail,
    /// Witness trails of distinct atoms are pairwise edge-disjoint.
    QueryTrail,
}

impl TrailSemantics {
    /// Both variants.
    pub const ALL: [TrailSemantics; 2] = [TrailSemantics::AtomTrail, TrailSemantics::QueryTrail];

    /// Short display name.
    pub fn short_name(self) -> &'static str {
        match self {
            TrailSemantics::AtomTrail => "a-trail",
            TrailSemantics::QueryTrail => "q-trail",
        }
    }
}

impl std::fmt::Display for TrailSemantics {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.short_name())
    }
}

/// Whether `tuple ∈ Q(G)_sem` under a trail semantics.
///
/// ```
/// use crpq_core::{eval_boolean_trail, TrailSemantics};
/// use crpq_graph::GraphBuilder;
/// use crpq_query::parse_crpq;
///
/// // Figure-of-eight: the trail a·b·c·d revisits m but repeats no edge.
/// let mut b = GraphBuilder::new();
/// b.edge("u", "a", "m").edge("m", "b", "n").edge("n", "c", "m").edge("m", "d", "v");
/// let mut g = b.finish();
/// let q = parse_crpq("x -[a b c d]-> y", g.alphabet_mut()).unwrap();
/// assert!(eval_boolean_trail(&q, &g, TrailSemantics::AtomTrail));
/// // No *simple path* spells abcd (m repeats):
/// use crpq_core::{Eval, Semantics};
/// assert!(!Eval::new(&q, &g).semantics(Semantics::AtomInjective).contains(&[]));
/// ```
pub fn eval_contains_trail(q: &Crpq, g: &GraphDb, tuple: &[NodeId], sem: TrailSemantics) -> bool {
    assert_eq!(
        q.free.len(),
        tuple.len(),
        "tuple arity must match free tuple"
    );
    q.epsilon_free_union()
        .iter()
        .any(|variant| TrailEval::new(variant, g, sem).contains(tuple))
}

/// Whether the Boolean query holds under a trail semantics.
pub fn eval_boolean_trail(q: &Crpq, g: &GraphDb, sem: TrailSemantics) -> bool {
    assert!(
        q.is_boolean(),
        "eval_boolean_trail requires a Boolean query"
    );
    eval_contains_trail(q, g, &[], sem)
}

/// The full result set under a trail semantics (sorted, deduplicated).
pub fn eval_tuples_trail(q: &Crpq, g: &GraphDb, sem: TrailSemantics) -> Vec<Vec<NodeId>> {
    let mut out = BTreeSet::new();
    let variants = q.epsilon_free_union();
    let arity = q.free.len();
    let mut tuple = vec![NodeId(0); arity];
    fn rec(
        g: &GraphDb,
        variants: &[Crpq],
        sem: TrailSemantics,
        tuple: &mut Vec<NodeId>,
        pos: usize,
        out: &mut BTreeSet<Vec<NodeId>>,
    ) {
        if pos == tuple.len() {
            if variants
                .iter()
                .any(|v| TrailEval::new(v, g, sem).contains(tuple))
            {
                out.insert(tuple.clone());
            }
            return;
        }
        for v in g.nodes() {
            tuple[pos] = v;
            rec(g, variants, sem, tuple, pos + 1, out);
        }
    }
    rec(g, &variants, sem, &mut tuple, 0, &mut out);
    out.into_iter().collect()
}

struct TrailAtom {
    src: Var,
    dst: Var,
    nfa: Nfa,
    nfa_rev: Nfa,
}

struct TrailEval<'a> {
    g: &'a GraphDb,
    q: &'a Crpq,
    atoms: Vec<TrailAtom>,
    sem: TrailSemantics,
    reach_fwd: FxHashMap<(usize, NodeId), BitSet>,
    reach_back: FxHashMap<(usize, NodeId), BitSet>,
}

impl<'a> TrailEval<'a> {
    fn new(variant: &'a Crpq, g: &'a GraphDb, sem: TrailSemantics) -> Self {
        let atoms = variant
            .atoms
            .iter()
            .map(|a| {
                let nfa = a.nfa();
                debug_assert!(!nfa.accepts_epsilon(), "variants must be ε-free");
                TrailAtom {
                    src: a.src,
                    dst: a.dst,
                    nfa_rev: nfa.reverse(),
                    nfa,
                }
            })
            .collect();
        TrailEval {
            g,
            q: variant,
            atoms,
            sem,
            reach_fwd: FxHashMap::default(),
            reach_back: FxHashMap::default(),
        }
    }

    fn contains(&mut self, tuple: &[NodeId]) -> bool {
        let mut assignment: Vec<Option<NodeId>> = vec![None; self.q.num_vars];
        for (&v, &n) in self.q.free.iter().zip(tuple) {
            match assignment[v.index()] {
                Some(prev) if prev != n => return false,
                _ => assignment[v.index()] = Some(n),
            }
        }
        // NOTE: no injectivity requirement on μ under trail semantics.
        let mut found = false;
        let _ = self.search(&mut assignment, &mut |this, full| {
            if this.verify(full) {
                found = true;
                return ControlFlow::Break(());
            }
            ControlFlow::Continue(())
        });
        found
    }

    fn search(
        &mut self,
        assignment: &mut Vec<Option<NodeId>>,
        visit: &mut dyn FnMut(&mut Self, &[NodeId]) -> ControlFlow<()>,
    ) -> ControlFlow<()> {
        let mut best: Option<(Var, Vec<NodeId>)> = None;
        for v in 0..assignment.len() {
            if assignment[v].is_some() {
                continue;
            }
            let cands = self.candidates(Var(v as u32), assignment);
            if cands.is_empty() {
                return ControlFlow::Continue(());
            }
            let better = best.as_ref().is_none_or(|(_, c)| cands.len() < c.len());
            if better {
                let single = cands.len() == 1;
                best = Some((Var(v as u32), cands));
                if single {
                    break;
                }
            }
        }
        let Some((var, cands)) = best else {
            let full: Vec<NodeId> = assignment.iter().map(|a| a.unwrap()).collect(); // invariant: every variable is bound at a leaf
            return visit(self, &full);
        };
        for node in cands {
            assignment[var.index()] = Some(node);
            self.search(assignment, visit)?;
            assignment[var.index()] = None;
        }
        ControlFlow::Continue(())
    }

    fn reach_fwd(&mut self, atom: usize, from: NodeId) -> &BitSet {
        if !self.reach_fwd.contains_key(&(atom, from)) {
            let set = rpq::rpq_reach(self.g, &self.atoms[atom].nfa, from);
            self.reach_fwd.insert((atom, from), set);
        }
        &self.reach_fwd[&(atom, from)]
    }

    fn reach_back(&mut self, atom: usize, to: NodeId) -> &BitSet {
        if !self.reach_back.contains_key(&(atom, to)) {
            let set = rpq::rpq_reach_back(self.g, &self.atoms[atom].nfa_rev, to);
            self.reach_back.insert((atom, to), set);
        }
        &self.reach_back[&(atom, to)]
    }

    fn candidates(&mut self, var: Var, assignment: &[Option<NodeId>]) -> Vec<NodeId> {
        let mut domain: Option<BitSet> = None;
        let restrict = |domain: &mut Option<BitSet>, set: &BitSet| match domain {
            None => *domain = Some(set.clone()),
            Some(d) => d.intersect_with(set),
        };
        for i in 0..self.atoms.len() {
            let (src, dst) = (self.atoms[i].src, self.atoms[i].dst);
            if src == var && dst == var {
                continue;
            }
            if src == var {
                if let Some(dst_node) = assignment[dst.index()] {
                    let set = self.reach_back(i, dst_node).clone();
                    restrict(&mut domain, &set);
                }
            }
            if dst == var {
                if let Some(src_node) = assignment[src.index()] {
                    let set = self.reach_fwd(i, src_node).clone();
                    restrict(&mut domain, &set);
                }
            }
        }
        let mut cands: Vec<NodeId> = match domain {
            Some(d) => d.iter().map(|i| NodeId(i as u32)).collect(),
            None => self.g.nodes().collect(),
        };
        let loop_atoms: Vec<usize> = (0..self.atoms.len())
            .filter(|&i| self.atoms[i].src == var && self.atoms[i].dst == var)
            .collect();
        for i in loop_atoms {
            cands.retain(|&n| rpq::rpq_reach(self.g, &self.atoms[i].nfa, n).contains(n.index()));
        }
        cands
    }

    fn verify(&mut self, mu: &[NodeId]) -> bool {
        match self.sem {
            TrailSemantics::AtomTrail => (0..self.atoms.len()).all(|i| {
                let atom = &self.atoms[i];
                let (s, d) = (mu[atom.src.index()], mu[atom.dst.index()]);
                rpq::trail_exists(self.g, &atom.nfa, s, d)
            }),
            TrailSemantics::QueryTrail => {
                let mut used: FxHashSet<Edge> = FxHashSet::default();
                place_trails(self.g, &self.atoms, mu, 0, &mut used)
            }
        }
    }
}

/// Joint edge-disjoint placement for query-trail semantics.
fn place_trails(
    g: &GraphDb,
    atoms: &[TrailAtom],
    mu: &[NodeId],
    i: usize,
    used: &mut FxHashSet<Edge>,
) -> bool {
    if i == atoms.len() {
        return true;
    }
    let atom = &atoms[i];
    let (s, d) = (mu[atom.src.index()], mu[atom.dst.index()]);
    let mut placed = false;
    let blocked = used.clone();
    rpq::for_each_trail(g, &atom.nfa, s, d, &blocked, |edges| {
        for e in edges {
            used.insert(*e);
        }
        let ok = place_trails(g, atoms, mu, i + 1, used);
        for e in edges {
            used.remove(e);
        }
        if ok {
            placed = true;
            ControlFlow::Break(())
        } else {
            ControlFlow::Continue(())
        }
    });
    placed
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::{Eval, Semantics};
    use crpq_graph::GraphBuilder;
    use crpq_query::parse_crpq;

    fn graph(edges: &[(&str, &str, &str)]) -> GraphDb {
        let mut b = GraphBuilder::new();
        for &(u, l, v) in edges {
            b.edge(u, l, v);
        }
        b.finish()
    }

    #[test]
    fn figure_of_eight_separates_trails_from_simple_paths() {
        // u -a-> m -b-> m2 -c-> m -d-> v: the abcd walk repeats node m but
        // no edge: a trail, not a simple path.
        let mut g = graph(&[
            ("u", "a", "m"),
            ("m", "b", "m2"),
            ("m2", "c", "m"),
            ("m", "d", "v"),
        ]);
        let q = parse_crpq("(x, y) <- x -[a b c d]-> y", g.alphabet_mut()).unwrap();
        let (u, v) = (g.node_by_name("u").unwrap(), g.node_by_name("v").unwrap());
        assert!(eval_contains_trail(
            &q,
            &g,
            &[u, v],
            TrailSemantics::AtomTrail
        ));
        assert!(eval_contains_trail(
            &q,
            &g,
            &[u, v],
            TrailSemantics::QueryTrail
        ));
        assert!(!Eval::new(&q, &g)
            .semantics(Semantics::AtomInjective)
            .contains(&[u, v]));
    }

    #[test]
    fn edge_disjointness_vs_sharing() {
        // Two atoms both needing the single a-edge: a-trail allows sharing,
        // q-trail does not.
        let mut g = graph(&[("u", "a", "v")]);
        let q = parse_crpq("x -[a]-> y, x -[a]-> z", g.alphabet_mut()).unwrap();
        assert!(eval_boolean_trail(&q, &g, TrailSemantics::AtomTrail));
        assert!(!eval_boolean_trail(&q, &g, TrailSemantics::QueryTrail));
        // With two parallel a-edges via an extra node, q-trail succeeds.
        let mut g2 = graph(&[("u", "a", "v"), ("u", "a", "w")]);
        let q2 = parse_crpq("x -[a]-> y, x -[a]-> z", g2.alphabet_mut()).unwrap();
        assert!(eval_boolean_trail(&q2, &g2, TrailSemantics::QueryTrail));
    }

    #[test]
    fn trail_semantics_do_not_require_injective_assignment() {
        // Q(x,y) = x -a-> y with tuple (u,u) on an a-loop: q-trail accepts
        // (no variable injectivity), q-inj rejects.
        let mut g = graph(&[("u", "a", "u")]);
        let q = parse_crpq("(x, y) <- x -[a]-> y", g.alphabet_mut()).unwrap();
        let u = g.node_by_name("u").unwrap();
        assert!(eval_contains_trail(
            &q,
            &g,
            &[u, u],
            TrailSemantics::QueryTrail
        ));
        assert!(!Eval::new(&q, &g)
            .semantics(Semantics::QueryInjective)
            .contains(&[u, u]));
        // And even a-inj rejects (simple path u→u must be empty):
        assert!(!Eval::new(&q, &g)
            .semantics(Semantics::AtomInjective)
            .contains(&[u, u]));
    }

    #[test]
    fn closed_trails_for_self_loop_atoms() {
        // x -[a a]-> x: closed trail of length 2 via u→v→u.
        let mut g = graph(&[("u", "a", "v"), ("v", "a", "u")]);
        let q = parse_crpq("x -[a a]-> x", g.alphabet_mut()).unwrap();
        for sem in TrailSemantics::ALL {
            assert!(eval_boolean_trail(&q, &g, sem), "under {sem}");
        }
        // A single self-loop cannot spell aa as a trail (edge repeats).
        let mut g2 = graph(&[("u", "a", "u")]);
        let q2 = parse_crpq("x -[a a]-> x", g2.alphabet_mut()).unwrap();
        assert!(!eval_boolean_trail(&q2, &g2, TrailSemantics::AtomTrail));
    }

    #[test]
    fn hierarchy_with_node_injective_semantics() {
        // q-trail ⊆ a-trail ⊆ st, a-inj ⊆ a-trail, q-inj ⊆ q-trail on the
        // paper's example instances and a random instance.
        for (edges, qtext) in [
            (
                vec![
                    ("u", "a", "v"),
                    ("v", "b", "w"),
                    ("w", "c", "v"),
                    ("v", "c", "u"),
                ],
                "(x, y) <- x -[(a b)*]-> y, y -[c*]-> x",
            ),
            (
                vec![
                    ("u", "a", "w"),
                    ("w", "b", "t"),
                    ("t", "a", "u"),
                    ("u", "b", "v"),
                    ("v", "c", "u"),
                ],
                "(x, y) <- x -[(a b)*]-> y, y -[c*]-> x",
            ),
        ] {
            let mut g = graph(&edges);
            let q = parse_crpq(qtext, g.alphabet_mut()).unwrap();
            let st = Eval::new(&q, &g).tuples();
            let a_inj = Eval::new(&q, &g)
                .semantics(Semantics::AtomInjective)
                .tuples();
            let q_inj = Eval::new(&q, &g)
                .semantics(Semantics::QueryInjective)
                .tuples();
            let a_trail = eval_tuples_trail(&q, &g, TrailSemantics::AtomTrail);
            let q_trail = eval_tuples_trail(&q, &g, TrailSemantics::QueryTrail);
            for t in &q_trail {
                assert!(a_trail.contains(t), "q-trail ⊆ a-trail");
            }
            for t in &a_trail {
                assert!(st.contains(t), "a-trail ⊆ st");
            }
            for t in &a_inj {
                assert!(a_trail.contains(t), "a-inj ⊆ a-trail");
            }
            // On these instances no q-inj witness duplicates a whole
            // path, so the q-inj ⊆ q-trail cross-link holds here (it is
            // not an inclusion in general — see the module docs).
            for t in &q_inj {
                assert!(q_trail.contains(t), "q-inj ⊆ q-trail on this instance");
            }
        }
    }

    #[test]
    fn example21_under_trail_semantics() {
        // On the Example 2.1 graph G, the cc-path and ab-path share node v
        // but no edge: (u,w) holds under q-trail although not under q-inj.
        let mut g = graph(&[
            ("u", "a", "v"),
            ("v", "b", "w"),
            ("w", "c", "v"),
            ("v", "c", "u"),
        ]);
        let q = parse_crpq("(x, y) <- x -[(a b)*]-> y, y -[c*]-> x", g.alphabet_mut()).unwrap();
        let (u, w) = (g.node_by_name("u").unwrap(), g.node_by_name("w").unwrap());
        assert!(eval_contains_trail(
            &q,
            &g,
            &[u, w],
            TrailSemantics::QueryTrail
        ));
        assert!(!Eval::new(&q, &g)
            .semantics(Semantics::QueryInjective)
            .contains(&[u, w]));
    }
}
