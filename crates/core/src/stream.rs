//! Pull-based answer enumeration.
//!
//! [`Eval::stream`] returns a [`TupleStream`] — an iterator over distinct
//! answer tuples that yields each one as the join search finds it,
//! instead of waiting for the full materialised set. The stream *is* the
//! join cursor of the `wcoj` module: it owns the graph (`Arc`), its catalog,
//! the plans (which name relations by catalog index; the catalog's memo
//! holds the same `Arc`) and the cursor (with the semantics and its
//! verification scratch), and every `next()` re-borrows them for one
//! cursor step on the calling thread. Nothing runs between calls, so a
//! stream that is dropped early simply stops; there is no thread, channel
//! or buffered answer behind it.
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

use crate::eval::{Eval, JoinPlan, RelationCatalog};
use crate::wcoj::{Cursor, Views};
use crpq_graph::{GraphDb, GraphView, NodeId};
use std::sync::Arc;

/// A pull-based iterator over distinct answer tuples (see the module
/// docs). Obtained from [`Eval::stream`].
pub struct TupleStream<G: GraphView = GraphDb> {
    g: Arc<G>,
    catalog: RelationCatalog,
    plans: Arc<[JoinPlan]>,
    cursor: Cursor,
}

impl<G: GraphView> Iterator for TupleStream<G> {
    type Item = Vec<NodeId>;

    fn next(&mut self) -> Option<Vec<NodeId>> {
        let tuple = self
            .cursor
            .advance(&*self.g, &self.catalog, &self.plans, &mut Views::default())
            .map(<[NodeId]>::to_vec);
        self.cursor.release_rows();
        tuple
    }
}

impl<G: GraphView + Send> Eval<'_, Arc<G>> {
    /// Streaming [`Eval::tuples`]: yields distinct answer tuples as the
    /// join search finds them. The stream shares the graph via `Arc`,
    /// plans against a fresh
    /// [`RelationCatalog::with_threads`]`(g, threads)` before it returns,
    /// and then searches one cursor step per `next()`.
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
        let mut catalog = RelationCatalog::with_threads(&*g, self.threads);
        let plans = catalog.plans(self.q, &*g);
        let cursor = Cursor::new(self.sem, &plans);
        TupleStream {
            g,
            catalog,
            plans,
            cursor,
        }
    }
}

// A stream can move to another thread, as the channel-backed stream it
// replaced could.
const _: fn() = || {
    fn assert_send<T: Send>() {}
    assert_send::<TupleStream<GraphDb>>();
};
