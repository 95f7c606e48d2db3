//! Answer checks. A failed check counts the request as failed; it never
//! aborts the run.

use crate::engine::{self, Crpq, GraphView, Semantics, Tuple};
use crate::harness::{digest, Tally};
use std::collections::HashMap;

/// `a ⊆ b` for sorted, deduplicated answer lists.
pub fn is_subset(a: &[Tuple], b: &[Tuple]) -> bool {
    a.iter().all(|t| b.binary_search(t).is_ok())
}

/// The `LIMIT 1` answer must come from the full answer set, and be
/// missing only when that set is empty.
pub fn first_within(first: &[Tuple], all: &[Tuple]) -> Option<String> {
    match (first, all.is_empty()) {
        ([], true) => None,
        ([t], false) if all.binary_search(t).is_ok() => None,
        _ => Some(format!(
            "first answer {first:?} is not one of {} answers",
            all.len()
        )),
    }
}

/// Sorted and distinct: the order-insensitive checks need both.
pub fn sorted_distinct(all: &[Tuple]) -> Option<String> {
    if all.windows(2).all(|w| w[0] < w[1]) {
        None
    } else {
        Some("answers are not sorted and distinct".to_string())
    }
}

/// Repeats of one request must give one answer-set digest.
#[derive(Default)]
pub struct RepeatCheck(HashMap<String, u64>);

impl RepeatCheck {
    pub fn check(&mut self, key: &str, answer_digest: u64) -> Option<String> {
        match self.0.get(key) {
            Some(&d) if d != answer_digest => Some(format!(
                "request {key}: digest {answer_digest:x} differs from {d:x}"
            )),
            Some(_) => None,
            None => {
                self.0.insert(key.to_string(), answer_digest);
                None
            }
        }
    }
}

/// Compares the catalog-backed engine with the tuple-enumeration oracle on
/// a small instance, under every semantics. One attempt per comparison.
pub fn against_oracle<G: GraphView>(tally: &mut Tally, name: &str, q: &Crpq, g: &G) {
    for sem in Semantics::ALL {
        let mut cat = engine::new_catalog(g);
        let got = engine::all_answers(q, g, sem, &mut cat);
        let want = engine::oracle_answers(q, g, sem);
        tally.record((digest(&got) != digest(&want)).then(|| {
            format!(
                "{name} under {sem} on the small instance: {} answers, oracle {}",
                got.len(),
                want.len()
            )
        }));
    }
}

/// Remark 2.1: `q-inj ⊆ a-inj ⊆ st`, checked per query as each cycle of
/// the three semantics completes.
#[derive(Default)]
pub struct Hierarchy(HashMap<usize, [Option<Vec<Tuple>>; 3]>);

impl Hierarchy {
    pub fn check(&mut self, query: usize, sem: Semantics, answers: &[Tuple]) -> Option<String> {
        let slot = self.0.entry(query).or_default();
        let level = Semantics::ALL
            .iter()
            .position(|&s| s == sem)
            .expect("semantics is one of ALL");
        slot[level] = Some(answers.to_vec());
        let looser = level.checked_sub(1).and_then(|l| slot[l].as_ref())?;
        (!is_subset(answers, looser)).then(|| {
            format!(
                "query {query}: {sem} answers are not a subset of {}",
                Semantics::ALL[level - 1]
            )
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::NodeId;

    fn t(a: u32) -> Tuple {
        vec![NodeId(a)]
    }

    #[test]
    fn first_must_come_from_all() {
        assert_eq!(first_within(&[], &[]), None);
        assert_eq!(first_within(&[t(2)], &[t(1), t(2)]), None);
        assert!(first_within(&[t(3)], &[t(1), t(2)]).is_some());
        assert!(first_within(&[], &[t(1)]).is_some());
    }

    #[test]
    fn repeats_must_agree() {
        let mut r = RepeatCheck::default();
        assert_eq!(r.check("q", 7), None);
        assert_eq!(r.check("q", 7), None);
        assert!(r.check("q", 8).is_some());
    }

    #[test]
    fn hierarchy_flags_a_looser_semantics_missing_answers() {
        let mut h = Hierarchy::default();
        assert_eq!(h.check(0, Semantics::Standard, &[t(1), t(2)]), None);
        assert_eq!(h.check(0, Semantics::AtomInjective, &[t(2)]), None);
        assert!(h.check(0, Semantics::QueryInjective, &[t(1)]).is_some());
    }
}
