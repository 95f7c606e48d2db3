//! Pull-based answer enumeration.
//!
//! [`Eval::stream`] returns a [`TupleStream`] — an iterator over distinct
//! answer tuples that starts yielding while the join search is still
//! running, instead of waiting for the full materialised set. A producer
//! thread runs the request through the same join driver as every other
//! terminal (sequential, or work-stealing under
//! [`Eval::threads`]) into a channel-backed [`StreamSink`]; the bounded
//! channel ([`STREAM_CHANNEL_CAPACITY`]) gives backpressure, so a slow
//! consumer throttles the search rather than buffering the whole answer
//! set.
//!
//! Dropping the stream early is the cancellation path: the receiver
//! closes, the producer's next send fails, the sink flips to `closed` and
//! answers [`SinkStatus::Stop`] / `should_stop`, and the search unwinds —
//! the same early-exit contract `LIMIT k` uses (see the module docs of
//! [`crate::eval`]). `Drop` then joins the producer, so no detached
//! thread outlives the stream; a panic on the producer is re-raised to
//! the consumer at end-of-stream or on drop.
//!
//! Streams yield **distinct** tuples in discovery order; collecting and
//! sorting a stream equals [`Eval::tuples`] under every semantics,
//! executor and thread count (pinned by the contract table in
//! `tests/join_equivalence.rs` and the differential tests in
//! `tests/stream_equivalence.rs`).

use crate::eval::{Eval, SinkStatus, TupleSink};
use crpq_graph::{GraphView, NodeId};
use crpq_util::sync::mpsc::{sync_channel, Receiver, SyncSender};
use crpq_util::sync::thread::{self, JoinHandle};
use crpq_util::FxHashSet;
use std::sync::Arc;

/// Bound of the producer→consumer channel: deep enough that the search is
/// not lock-stepped with the consumer, shallow enough that an abandoned
/// stream holds O(1) tuples, not the answer set.
pub const STREAM_CHANNEL_CAPACITY: usize = 64;

/// The producer-side sink: dedupes (so the stream yields distinct tuples
/// and the duplicate-projection prune keeps working) and forwards each
/// fresh tuple into the channel. A failed send means the consumer is gone
/// — the sink closes and stops the search.
struct StreamSink {
    seen: FxHashSet<Vec<NodeId>>,
    tx: SyncSender<Vec<NodeId>>,
    closed: bool,
}

impl TupleSink for StreamSink {
    fn contains_tuple(&self, t: &[NodeId]) -> bool {
        self.seen.contains(t)
    }

    fn insert_tuple(&mut self, t: Vec<NodeId>) -> SinkStatus {
        if self.closed {
            return SinkStatus::Stop;
        }
        if !self.seen.insert(t.clone()) {
            return SinkStatus::Continue;
        }
        if self.tx.send(t).is_err() {
            self.closed = true;
            return SinkStatus::Stop;
        }
        SinkStatus::Continue
    }

    fn should_stop(&self) -> bool {
        self.closed
    }
}

/// A pull-based iterator over distinct answer tuples, backed by a producer
/// thread (see the module docs). Obtained from [`Eval::stream`].
pub struct TupleStream {
    rx: Option<Receiver<Vec<NodeId>>>,
    handle: Option<JoinHandle<()>>,
}

impl TupleStream {
    fn spawn(producer: impl FnOnce(SyncSender<Vec<NodeId>>) + Send + 'static) -> Self {
        let (tx, rx) = sync_channel(STREAM_CHANNEL_CAPACITY);
        let handle = thread::spawn(move || producer(tx));
        TupleStream {
            rx: Some(rx),
            handle: Some(handle),
        }
    }

    /// Joins the finished producer, re-raising its panic (if any) on the
    /// consumer thread — unless the consumer is already unwinding, where a
    /// double panic would abort.
    fn join_producer(&mut self) {
        if let Some(handle) = self.handle.take() {
            if let Err(payload) = handle.join() {
                if !thread::panicking() {
                    std::panic::resume_unwind(payload);
                }
            }
        }
    }
}

impl Iterator for TupleStream {
    type Item = Vec<NodeId>;

    fn next(&mut self) -> Option<Vec<NodeId>> {
        match self.rx.as_ref()?.recv() {
            Ok(t) => Some(t),
            Err(_) => {
                // Producer finished (or died): surface its panic now
                // rather than at drop, so `for t in stream` can't silently
                // observe a truncated answer set.
                self.rx = None;
                self.join_producer();
                None
            }
        }
    }
}

impl Drop for TupleStream {
    fn drop(&mut self) {
        // Close the channel first: the producer's next send fails, its
        // sink stops the search, and the join below cannot deadlock.
        self.rx = None;
        self.join_producer();
    }
}

impl<G: GraphView + Send + Sync + 'static> Eval<'_, Arc<G>> {
    /// Streaming [`Eval::tuples`]: yields distinct answer tuples as the
    /// join search finds them. The graph is shared with the producer
    /// thread via `Arc`, the query is cloned, and the search plans against
    /// a fresh [`crate::RelationCatalog::with_threads`]`(g, threads)`.
    /// With several threads, tuple arrival order is scheduling-dependent
    /// (the collected set is not), and dropping the stream cancels the
    /// whole work-stealing fleet.
    ///
    /// # Panics
    ///
    /// If the request carries a caller catalog: the producer outlives the
    /// borrow, so a stream always owns its catalog.
    pub fn stream(self) -> TupleStream {
        assert!(
            self.catalog.is_none(),
            "a stream plans against its own catalog; drop `.catalog(..)`"
        );
        let q = self.q.clone();
        let g = Arc::clone(self.g);
        let (sem, threads, strategy, analyze) =
            (self.sem, self.threads, self.strategy, self.analyze);
        TupleStream::spawn(move |tx| {
            let request = Eval {
                q: &q,
                g: &*g,
                sem,
                threads,
                catalog: None,
                strategy,
                analyze,
            };
            request.run(StreamSink {
                seen: FxHashSet::default(),
                tx,
                closed: false,
            });
        })
    }
}

#[cfg(all(test, crpq_model_check))]
mod model_tests {
    //! Model-checked protocol tests for the stream producer/consumer
    //! contract (invariant I5 of `CONCURRENCY.md`). Run with:
    //!
    //! ```text
    //! RUSTFLAGS="--cfg crpq_model_check" cargo test -p crpq-core --lib model_
    //! ```

    use super::*;
    use crpq_check::{explore, try_explore, Config, Failure};
    use crpq_graph::generators;
    use crpq_query::parse_crpq;

    /// I5 — dropping a stream never deadlocks the producer: on every
    /// explored interleaving of consumer drop vs. producer send, `Drop`
    /// closes the channel first, the producer's pending/next send fails,
    /// the sink stops the search, and the join returns.
    #[test]
    fn model_stream_drop_never_deadlocks_producer() {
        let mut g = generators::labelled_path(4, &["a"]);
        let q = parse_crpq("(x, y) <- x -[a a*]-> y", g.alphabet_mut()).unwrap();
        let g = Arc::new(g);
        let run = || {
            let mut stream = Eval::new(&q, &g).stream();
            assert!(stream.next().is_some(), "path graph has answers");
            drop(stream);
        };
        let report = explore(&Config::exhaustive(1_000), run);
        assert_eq!(report.truncated, 0, "runs must fit the step budget");
        // Seeded-random pass for deep interleavings of the mid-search
        // drop (the DFS frontier only deviates early in the run).
        let deep = explore(&Config::random(0x51EA_D12, 200), run);
        assert_eq!(deep.schedules, 200);
    }

    /// I5, parallel flavour: dropping the parallel stream cancels the
    /// whole work-stealing fleet through the one shared sink — producer
    /// and both workers exit on every schedule.
    #[test]
    fn model_stream_parallel_drop_cancels_fleet() {
        let mut g = generators::labelled_path(4, &["a"]);
        let q = parse_crpq("(x, y) <- x -[a a*]-> y", g.alphabet_mut()).unwrap();
        let g = Arc::new(g);
        let run = || {
            let mut stream = Eval::new(&q, &g).threads(2).stream();
            assert!(stream.next().is_some(), "path graph has answers");
            drop(stream);
        };
        let report = explore(&Config::exhaustive(1_000), run);
        assert_eq!(report.truncated, 0, "runs must fit the step budget");
        let deep = explore(&Config::random(0xF1EE7, 200), run);
        assert_eq!(deep.schedules, 200);
    }

    /// Backpressure protocol, driven directly: a producer pushing through
    /// a capacity-1 `StreamSink` channel blocks once the buffer is full;
    /// the consumer taking one tuple and hanging up must — on every
    /// interleaving — fail the producer's next send, flip the sink to
    /// `closed`, and let it exit.
    #[test]
    fn model_backpressure_hangup_unblocks_producer() {
        let report = explore(&Config::exhaustive(5_000), || {
            let (tx, rx) = sync_channel::<Vec<NodeId>>(1);
            let producer = thread::spawn(move || {
                let mut sink = StreamSink {
                    seen: FxHashSet::default(),
                    tx,
                    closed: false,
                };
                for i in 0..4u32 {
                    if sink.insert_tuple(vec![NodeId(i)]) == SinkStatus::Stop {
                        break;
                    }
                }
                assert!(sink.closed, "hangup must close the sink");
                assert!(sink.should_stop(), "closed sink must stop the search");
            });
            assert_eq!(rx.recv().unwrap(), vec![NodeId(0)], "FIFO order");
            drop(rx);
            producer.join().unwrap();
        });
        assert!(report.exhausted, "direct protocol must be fully explored");
    }

    /// Mutant: joining the producer while the receiver is still open.
    /// With the channel full the producer is parked in `send` and the
    /// consumer in `join` — the checker must report the deadlock. This
    /// pins the ordering contract of `TupleStream::drop` (`rx = None`
    /// BEFORE `join_producer`).
    #[test]
    fn model_mutant_join_before_close_is_caught() {
        let failure = try_explore(&Config::exhaustive(2_000), || {
            let (tx, rx) = sync_channel::<Vec<NodeId>>(1);
            let producer = thread::spawn(move || {
                for i in 0..3u32 {
                    if tx.send(vec![NodeId(i)]).is_err() {
                        return;
                    }
                }
            });
            // MUTANT ordering: join first, hang up after.
            producer.join().unwrap();
            drop(rx);
        })
        .expect_err("join-before-close must strand the producer");
        assert!(
            matches!(failure, Failure::Deadlock { .. }),
            "wrong failure class: {failure}"
        );
    }
}
