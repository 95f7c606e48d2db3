//! The **boundedness problem** (paper §7, outlook; decidable for standard
//! semantics by Barceló–Figueira–Romero, ICALP 2019 — the paper's
//! reference \[5\]).
//!
//! A CRPQ `Q` is *bounded* when it is equivalent, under standard semantics,
//! to a finite union of CQs. The executable characterisation used here:
//! `Q` is bounded at level `k` iff `Q ⊆st Q^{≤k}`, where the *truncation*
//! `Q^{≤k}` is the union of the expansions of `Q` whose words all have
//! length ≤ `k` (each expansion is a CQ). The reverse inclusion
//! `Q^{≤k} ⊆st Q` always holds, so equivalence reduces to one containment,
//! which the counter-example engine decides within its budget.
//!
//! The verdict is three-valued, mirroring the engine:
//!
//! * [`Boundedness::Bounded`] — certified: the containment search was
//!   exhaustive (always the case for `CRPQ_fin`, whose queries are
//!   trivially bounded);
//! * [`Boundedness::BoundedUpTo`] — `Q ≡st Q^{≤k}` held against every
//!   candidate within the budget, but the language is infinite so the
//!   search was not exhaustive (the \[5\] decision procedure is a full
//!   research result of its own and is not reproduced here);
//! * [`Boundedness::Refuted`] — every level up to the cap was refuted by an
//!   explicit counter-example expansion (strong evidence of unboundedness,
//!   e.g. a growing family of chains none of which folds onto a shorter
//!   one).
//!
//! ```
//! use crpq_containment::boundedness::{check_boundedness, Boundedness, BoundednessConfig};
//! use crpq_query::parse_crpq;
//! use crpq_util::Interner;
//!
//! let mut sigma = Interner::new();
//! // A redundant star: the `a`-edge atom already implies an `a a*` path.
//! let q = parse_crpq("(x, y) <- x -[a]-> y, x -[a a*]-> y", &mut sigma).unwrap();
//! let verdict = check_boundedness(&q, BoundednessConfig::default());
//! assert!(matches!(verdict, Boundedness::BoundedUpTo { level: 1, .. }));
//!
//! // A genuine reachability query is unbounded: a^{k+1} never folds onto
//! // a shorter chain.
//! let q = parse_crpq("(x, y) <- x -[a a*]-> y", &mut sigma).unwrap();
//! let verdict = check_boundedness(&q, BoundednessConfig::default());
//! assert!(matches!(verdict, Boundedness::Refuted { .. }));
//! ```

use crate::naive::{contain_union_with, CounterExample, Outcome};
use crpq_core::Semantics;
use crpq_query::expansion::{enumerate_expansions, ExpansionLimits};
use crpq_query::{Cq, Crpq, UnionCrpq};

/// Configuration for the boundedness search.
#[derive(Clone, Copy, Debug)]
pub struct BoundednessConfig {
    /// Highest truncation level `k` to try.
    pub max_level: usize,
    /// Budget for each per-level containment check; the word-length budget
    /// is raised to at least `level + 2` so each level can be refuted.
    pub per_level: ExpansionLimits,
}

impl Default for BoundednessConfig {
    fn default() -> Self {
        BoundednessConfig {
            max_level: 3,
            per_level: ExpansionLimits::default(),
        }
    }
}

/// Verdict of [`check_boundedness`].
#[derive(Clone, Debug)]
pub enum Boundedness {
    /// `Q ≡st Q^{≤level}`, certified by exhaustive search.
    Bounded {
        /// The certified truncation level.
        level: usize,
        /// The equivalent union of CQs.
        union: Vec<Cq>,
    },
    /// `Q ≡st Q^{≤level}` within the budget (infinite languages: not
    /// exhaustive).
    BoundedUpTo {
        /// The first level with no counter-example in budget.
        level: usize,
        /// The budget that was exhausted.
        limits: ExpansionLimits,
    },
    /// Every level `k ≤ max_level` admits a counter-example expansion.
    Refuted {
        /// The highest refuted level.
        level: usize,
        /// The counter-example at that level.
        witness: Box<CounterExample>,
    },
}

/// The truncation `Q^{≤k}`: all expansions of `Q` with words of length
/// ≤ `k`, as CQ branches (exact: the enumeration at finite word length is
/// always exhaustive).
pub fn truncation(q: &Crpq, k: usize, max_branches: usize) -> Vec<Cq> {
    let mut branches: Vec<Cq> = Vec::new();
    let limits = ExpansionLimits {
        max_word_len: k,
        max_expansions: max_branches,
    };
    enumerate_expansions(q, limits, |exp| {
        if !branches.contains(&exp.cq) {
            branches.push(exp.cq.clone());
        }
        std::ops::ControlFlow::Continue(())
    });
    branches
}

/// Decides boundedness of `Q` under standard semantics, level by level.
pub fn check_boundedness(q: &Crpq, config: BoundednessConfig) -> Boundedness {
    let mut last_refutation: Option<(usize, CounterExample)> = None;
    for level in 0..=config.max_level {
        let branches = truncation(q, level, config.per_level.max_expansions);
        if branches.is_empty() {
            // Q^{≤level} is empty; Q ⊆ ∅ only if Q itself has no expansion,
            // which level max_word_len-budget search below would certify —
            // treat as refuted unless Q is the empty union too.
            continue;
        }
        let union2 = UnionCrpq::new(branches.iter().map(Crpq::from_cq).collect::<Vec<_>>());
        let mut per_level = config.per_level;
        per_level.max_word_len = per_level.max_word_len.max(level + 2);
        let outcome = contain_union_with(
            &UnionCrpq::single(q.clone()),
            &union2,
            Semantics::Standard,
            per_level,
        );
        match outcome {
            Outcome::Contained => {
                return Boundedness::Bounded {
                    level,
                    union: branches,
                }
            }
            Outcome::Inconclusive { limits } => return Boundedness::BoundedUpTo { level, limits },
            Outcome::NotContained(counter) => {
                last_refutation = Some((level, counter));
            }
        }
    }
    match last_refutation {
        Some((level, witness)) => Boundedness::Refuted {
            level,
            witness: Box::new(witness),
        },
        // No truncation level had any branch: Q has no expansions at all
        // (empty languages) — it is equivalent to the empty union.
        None => Boundedness::Bounded {
            level: 0,
            union: Vec::new(),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crpq_query::parse_crpq;
    use crpq_util::Interner;

    fn q(text: &str) -> Crpq {
        let mut sigma = Interner::new();
        parse_crpq(text, &mut sigma).unwrap()
    }

    #[test]
    fn finite_queries_are_certified_bounded() {
        let verdict = check_boundedness(&q("(x, y) <- x -[a b + c]-> y"), Default::default());
        match verdict {
            Boundedness::Bounded { level, union } => {
                assert!(level <= 2);
                assert_eq!(union.len(), 2, "two expansions: ab and c");
            }
            other => panic!("expected certified boundedness, got {other:?}"),
        }
    }

    #[test]
    fn reachability_is_refuted_at_every_level() {
        let verdict = check_boundedness(&q("(x, y) <- x -[a a*]-> y"), Default::default());
        match verdict {
            Boundedness::Refuted { level, witness } => {
                assert_eq!(level, 3, "refuted at the cap");
                // The witness is a chain longer than the level.
                assert!(witness.profile[0].len() > level);
            }
            other => panic!("expected refutation, got {other:?}"),
        }
    }

    #[test]
    fn redundant_star_is_bounded_up_to_budget() {
        let verdict = check_boundedness(
            &q("(x, y) <- x -[a]-> y, x -[a a*]-> y"),
            Default::default(),
        );
        assert!(
            matches!(verdict, Boundedness::BoundedUpTo { level: 1, .. }),
            "got {verdict:?}"
        );
    }

    #[test]
    fn boolean_star_collapses_to_level_zero() {
        // ∃x,y x -[a*]-> y is equivalent to "some node exists": the ε-variant
        // expansion is the empty CQ, which folds onto everything.
        let verdict = check_boundedness(&q("x -[a*]-> y"), Default::default());
        assert!(
            matches!(
                verdict,
                Boundedness::BoundedUpTo { level: 0, .. } | Boundedness::Bounded { level: 0, .. }
            ),
            "got {verdict:?}"
        );
    }

    #[test]
    fn truncation_enumerates_small_expansions() {
        let branches = truncation(&q("(x, y) <- x -[a a*]-> y"), 2, 1000);
        assert_eq!(branches.len(), 2, "chains a and aa");
        let branches = truncation(&q("(x, y) <- x -[a a*]-> y"), 0, 1000);
        assert!(branches.is_empty(), "no word of a·a* has length 0");
    }

    #[test]
    fn empty_language_query_is_the_empty_union() {
        let verdict = check_boundedness(&q("(x, y) <- x -[∅]-> y"), Default::default());
        assert!(
            matches!(verdict, Boundedness::Bounded { level: 0, ref union } if union.is_empty()),
            "got {verdict:?}"
        );
    }
}
