//! Pull-based answer enumeration.
//!
//! [`Eval::stream`] returns a [`TupleStream`] — an iterator over distinct
//! answer tuples that yields each one as the join search finds it,
//! instead of waiting for the full materialised set. The stream owns the
//! graph (`Arc`), its catalog and the query, and every `next()` runs one
//! step on the calling thread. Nothing runs between calls, so a stream
//! that is dropped early simply stops; there is no thread, channel or
//! buffered answer behind it.
//!
//! **The first tuple comes before planning.** `stream()` plans nothing:
//! the first `next()` runs the witness phase (see the `eval` module docs),
//! which sweeps only the rows its search touches and returns the first
//! verified answer it finds. The next `next()` plans, materialising every
//! relation on the request's `threads` workers, so the materialisation
//! lands in the gap after the first tuple; from then on the stream *is*
//! the join cursor of the `wcoj` module over the plans (which name
//! relations by catalog index; the catalog's memo holds the same `Arc`),
//! and the cursor skips the answer already yielded. A witness phase that
//! hits its budget plans at once, and one whose search is exhausted ends
//! the stream without materialising anything.
//!
//! Streams yield **distinct** tuples in search order, the same order
//! [`Eval::limit`] takes its first `k` from; collecting and sorting a
//! stream equals [`Eval::tuples`] under every semantics and thread count
//! (pinned by the contract table in `tests/join_equivalence.rs` and the
//! differential tests in `tests/stream_equivalence.rs`). Distinctness is
//! the cursor's: a single plan that binds its free variables first reaches
//! each projection once, and the stream then keeps no row after handing
//! it out; otherwise the cursor keeps every returned row, flat, under a
//! seen index, and skips every subtree whose projection it holds.

use crate::eval::{witness_phase, Eval, JoinPlan, RelationCatalog, Semantics, Witnessed};
use crate::wcoj::{Cursor, Views};
use crpq_graph::{GraphDb, GraphView, NodeId};
use crpq_query::Crpq;
use std::sync::Arc;

/// A pull-based iterator over distinct answer tuples (see the module
/// docs). Obtained from [`Eval::stream`].
pub struct TupleStream<G: GraphView = GraphDb> {
    g: Arc<G>,
    q: Crpq,
    sem: Semantics,
    catalog: RelationCatalog,
    state: State,
}

/// Where a stream is.
enum State {
    /// Nothing searched yet: the next step runs the witness phase.
    Fresh,
    /// The witness phase yielded this answer: the next step plans.
    Witnessed(Vec<NodeId>),
    /// Planned: one cursor step per `next()`.
    Planned {
        plans: Arc<[JoinPlan]>,
        cursor: Box<Cursor>,
    },
    /// The witness phase's search was exhausted: there is no answer.
    Empty,
}

impl<G: GraphView> TupleStream<G> {
    /// Plans against the stream's catalog; the cursor skips `witness`,
    /// the answer already yielded.
    fn plan(&mut self, witness: Option<&[NodeId]>) {
        let plans = self.catalog.plans(&self.q, &*self.g);
        let mut cursor = Cursor::new(self.sem, &plans);
        if let Some(row) = witness {
            cursor.returned_before(row);
        }
        self.state = State::Planned {
            plans,
            cursor: Box::new(cursor),
        };
    }
}

impl<G: GraphView> Iterator for TupleStream<G> {
    type Item = Vec<NodeId>;

    fn next(&mut self) -> Option<Vec<NodeId>> {
        loop {
            match &mut self.state {
                State::Fresh => match witness_phase(&self.q, &*self.g, self.sem, &self.catalog) {
                    Witnessed::Answer(row) => {
                        self.state = State::Witnessed(row.clone());
                        return Some(row);
                    }
                    Witnessed::NoAnswer => {
                        self.state = State::Empty;
                        return None;
                    }
                    Witnessed::Fallback => self.plan(None),
                },
                State::Witnessed(row) => {
                    let row = std::mem::take(row);
                    self.plan(Some(&row));
                }
                State::Planned { plans, cursor } => {
                    let tuple = cursor
                        .advance(&*self.g, &mut &self.catalog, plans, &mut Views::default())
                        .map(<[NodeId]>::to_vec);
                    cursor.release_rows();
                    return tuple;
                }
                State::Empty => return None,
            }
        }
    }
}

impl<G: GraphView + Send> Eval<'_, Arc<G>> {
    /// Streaming [`Eval::tuples`]: yields distinct answer tuples as the
    /// join search finds them. The stream shares the graph via `Arc` and
    /// owns a fresh [`RelationCatalog::with_threads`]`(g, threads)`; it
    /// plans nothing before it returns. The first `next()` runs the
    /// witness phase, the second plans against the catalog, and each
    /// later one is one cursor step.
    ///
    /// # Panics
    ///
    /// If the request carries a caller catalog: the stream outlives the
    /// borrow, so a stream always owns its catalog.
    pub fn stream(self) -> TupleStream<G> {
        assert!(
            self.catalog.is_none(),
            "a stream plans against its own catalog; drop `.catalog(..)`"
        );
        let g = Arc::clone(self.g);
        let catalog = RelationCatalog::with_threads(&*g, self.threads);
        TupleStream {
            g,
            q: self.q.clone(),
            sem: self.sem,
            catalog,
            state: State::Fresh,
        }
    }
}

// A stream can move to another thread, as the channel-backed stream it
// replaced could.
const _: fn() = || {
    fn assert_send<T: Send>() {}
    assert_send::<TupleStream<GraphDb>>();
};
