//! Remark 2.1: the semantics hierarchy
//! `Q(G)_q-inj ⊆ Q(G)_a-inj ⊆ Q(G)_st`.
//!
//! [`check_hierarchy`] verifies both inclusions on a concrete `(Q, G)` pair
//! and reports the result-set sizes — the basis of experiment E3 (hierarchy
//! & selectivity).

use crate::eval::{Eval, Semantics};
use crpq_graph::{GraphDb, NodeId};
use crpq_query::Crpq;

/// Result-set sizes per semantics plus inclusion verdicts.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HierarchyReport {
    /// `|Q(G)_st|`.
    pub standard: usize,
    /// `|Q(G)_a-inj|`.
    pub atom_injective: usize,
    /// `|Q(G)_q-inj|`.
    pub query_injective: usize,
    /// Tuples violating `q-inj ⊆ a-inj` (must be empty).
    pub qinj_not_ainj: Vec<Vec<NodeId>>,
    /// Tuples violating `a-inj ⊆ st` (must be empty).
    pub ainj_not_st: Vec<Vec<NodeId>>,
}

impl HierarchyReport {
    /// Whether Remark 2.1 holds on this instance.
    pub fn holds(&self) -> bool {
        self.qinj_not_ainj.is_empty() && self.ainj_not_st.is_empty()
    }

    /// Whether the three semantics are *separated* on this instance
    /// (all three result sets pairwise different).
    pub fn fully_separated(&self) -> bool {
        self.query_injective < self.atom_injective && self.atom_injective < self.standard
    }
}

/// Evaluates `Q` on `G` under all three semantics and checks Remark 2.1.
pub fn check_hierarchy(q: &Crpq, g: &GraphDb) -> HierarchyReport {
    let st = Eval::new(q, g).tuples();
    let ai = Eval::new(q, g).semantics(Semantics::AtomInjective).tuples();
    let qi = Eval::new(q, g)
        .semantics(Semantics::QueryInjective)
        .tuples();
    let qinj_not_ainj = qi.iter().filter(|t| !ai.contains(t)).cloned().collect();
    let ainj_not_st = ai.iter().filter(|t| !st.contains(t)).cloned().collect();
    HierarchyReport {
        standard: st.len(),
        atom_injective: ai.len(),
        query_injective: qi.len(),
        qinj_not_ainj,
        ainj_not_st,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crpq_graph::generators;
    use crpq_query::parse_crpq;

    #[test]
    fn hierarchy_on_random_graphs() {
        for seed in 0..5 {
            let mut g = generators::random_graph(8, 20, &["a", "b", "c"], seed);
            let q = parse_crpq("(x, y) <- x -[(a b)*]-> y, y -[c*]-> x", g.alphabet_mut()).unwrap();
            let report = check_hierarchy(&q, &g);
            assert!(
                report.holds(),
                "hierarchy violated on seed {seed}: {report:?}"
            );
        }
    }

    #[test]
    fn separation_instance() {
        // A graph separating all three semantics for the Example 2.1 query:
        // combine the a-inj/q-inj separator with the st/a-inj separator.
        let mut b = crpq_graph::GraphBuilder::new();
        // gadget 1 (a-inj ≠ q-inj): u a v b w, w c v, v c u
        b.edge("u", "a", "v");
        b.edge("v", "b", "w");
        b.edge("w", "c", "v");
        b.edge("v", "c", "u");
        // gadget 2 (st ≠ a-inj): u' a w', w' b t', t' a u', u' b v', v' c u'
        b.edge("u2", "a", "w2");
        b.edge("w2", "b", "t2");
        b.edge("t2", "a", "u2");
        b.edge("u2", "b", "v2");
        b.edge("v2", "c", "u2");
        let mut g = b.finish();
        let q = parse_crpq("(x, y) <- x -[(a b)*]-> y, y -[c*]-> x", g.alphabet_mut()).unwrap();
        let report = check_hierarchy(&q, &g);
        assert!(report.holds());
        assert!(report.fully_separated(), "{report:?}");
    }
}
