//! Parallel join search.
//!
//! Two layers of the planner/executor pipeline parallelise independently:
//!
//! * **Materialisation** — a request without a caller catalog plans
//!   against [`RelationCatalog::with_threads`], so each distinct atom
//!   relation's per-source BFS sweeps run on the calling thread plus
//!   scoped workers, each claiming blocks of source ids
//!   ([`crpq_graph::rpq::rpq_relation_auto`]); the catalog also means
//!   a relation shared by several ε-free variants is materialised once.
//! * **Join search** — after semi-join pruning, the pruned domain of the
//!   elimination order's first variable seeds a shared chunk queue, and
//!   workers run the immutable [`JoinPlan`] with a per-worker
//!   verification scratch, all feeding the request's one sink.
//!
//! # Work stealing
//!
//! A static split of the top-level candidate range starves on skewed
//! domains: under a Zipf label distribution one candidate's subtree can
//! hold almost all of the search space, leaving every other worker idle
//! while one crawls it. [`search_work_stealing`] therefore schedules by
//! **work stealing over subtree ranges**:
//!
//! * A [`Chunk`] is a contiguous range of one level's candidates plus the
//!   partial assignment above it. The queue is seeded with one top-level
//!   range per worker; drained workers block on a condvar until a chunk
//!   is donated or every worker is idle (global quiescence).
//! * Workers enumerate the first [`STEAL_DEPTH`] levels of the
//!   elimination order **explicitly** (via [`wcoj::level_candidates`],
//!   which enumerates exactly what the sequential search would, so a
//!   stolen subtree branches like it), and hand deeper subtrees to the
//!   sequential search ([`wcoj::search_from_level`]).
//! * **Split invariant**: every explicitly enumerated level re-checks for
//!   starving siblings before each candidate, and donates the upper half
//!   of *its own* remaining range. Because the innermost level iterates
//!   most often, the *deepest large* remaining domain is what a starving
//!   worker receives — not merely a slice of the top-level split — so
//!   skewed subtrees keep splitting until all cores are busy.
//!
//! The intact panic-propagation contract of [`collect_worker_results`] is
//! preserved: a panicking worker's [`ActiveGuard`] releases the
//! quiescence count on unwind, so starving siblings wake and exit instead
//! of deadlocking on the condvar, and the original payload reaches the
//! caller.
//!
//! # One shared sink, and cancellation
//!
//! Every terminal of [`crate::Eval`] — the full-result set, `ASK`,
//! `LIMIT k` and the stream of [`crate::stream`] — hands the scheduler
//! its **one sink**, shared behind a mutex; each worker wraps it in a
//! [`WorkerSink`] that filters through a local seen-set first (so the
//! duplicate-projection prune stays lock-free) and forwards fresh tuples
//! under the lock. The moment the sink answers [`SinkStatus::Stop`], the
//! worker raises the [`StealCtx`] **cancel flag**; every other worker
//! observes it through `should_stop` — checked at search-node entry by the
//! sequential search and per candidate by [`enumerate_range`] — and
//! [`next_chunk`] drains the queue, so the run reaches quiescence
//! promptly. Overshoot is bounded: past the flag, a worker can at most
//! finish the candidate it was already verifying (one late insert each),
//! and the global [`crate::eval::LimitSink`] refuses inserts beyond its
//! limit, so the answer set never exceeds `k`. The full-result set never
//! answers `Stop`, so a full-result run never cancels, and its workers
//! batch: each keeps its finds in the local set and hands them over under
//! one lock acquisition when it runs out of chunks.

use crate::eval::{JoinPlan, SinkStatus, TupleSink, VerifyScratch};
use crate::wcoj;
use crpq_graph::{GraphView, NodeId};
use crpq_query::Var;
use crpq_util::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use crpq_util::sync::{thread, Condvar, Mutex, MutexGuard};
use crpq_util::FxHashSet;
use std::sync::Arc;

/// Number of join levels workers enumerate explicitly (and can therefore
/// donate from) before handing the subtree to the sequential executors.
/// Deep enough that a skewed top candidate's subtree still splits into
/// many stealable ranges, shallow enough that the per-level candidate
/// materialisation stays negligible against the subtree work below it.
const STEAL_DEPTH: usize = 3;

/// The work-stealing scheduler (see the module docs): seeds one top-level
/// range of `order[0]`'s candidates (its pruned domain) per worker, then
/// lets drained workers receive donated subtree ranges until global
/// quiescence. Every worker feeds `out` through a [`WorkerSink`], so an
/// early-exit sink stops the whole fleet via the [`StealCtx`] cancel
/// flag. Returns [`SinkStatus::Stop`] iff `out` wants no further tuples.
pub(crate) fn search_work_stealing<G: GraphView, S: TupleSink + Send>(
    plan: &JoinPlan<'_, G>,
    order: &[Var],
    threads: usize,
    out: &mut S,
) -> SinkStatus {
    let var = order[0];
    let cands: Arc<Vec<NodeId>> = Arc::new(
        plan.domains[var.index()]
            .iter()
            .map(|n| NodeId(n as u32))
            .collect(),
    );
    let ctx = StealCtx::new();
    seed_chunks(&ctx, plan, var, &cands, threads);
    let batch = out.never_stops();
    let global = Mutex::new(out);
    collect_worker_results(threads, || {
        let mut sink = WorkerSink {
            local: FxHashSet::default(),
            global: &global,
            ctx: &ctx,
            post_cancel: 0,
            batch,
        };
        let mut scratch = VerifyScratch::new();
        drain_chunks(&ctx, plan, order, &mut scratch, &mut sink);
        sink.flush();
    });
    let out = global
        .into_inner()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    if out.should_stop() {
        SinkStatus::Stop
    } else {
        SinkStatus::Continue
    }
}

/// Seeds the queue with one contiguous top-level range per worker. Uneven
/// subtree weights below these ranges are what donation redistributes.
fn seed_chunks<G: GraphView>(
    ctx: &StealCtx,
    plan: &JoinPlan<'_, G>,
    var: Var,
    cands: &Arc<Vec<NodeId>>,
    threads: usize,
) {
    let mut st = ctx.lock();
    let pieces = threads.min(cands.len()).max(1);
    let per = cands.len().div_ceil(pieces);
    let mut lo = 0;
    while lo < cands.len() {
        let hi = (lo + per).min(cands.len());
        st.queue.push(Chunk {
            assignment: vec![None; plan.q.num_vars],
            var,
            cands: Arc::clone(cands),
            lo,
            hi,
            depth: 0,
        });
        lo = hi;
    }
}

/// One worker's drain loop: claim chunks until global quiescence. If a
/// chunk's enumeration reports [`SinkStatus::Stop`], raises the cancel
/// flag so every sibling — including ones deep in the sequential search,
/// which poll `should_stop` at search-node entry — winds down too.
fn drain_chunks<G: GraphView>(
    ctx: &StealCtx,
    plan: &JoinPlan<'_, G>,
    order: &[Var],
    scratch: &mut VerifyScratch,
    out: &mut dyn TupleSink,
) {
    while let Some(chunk) = next_chunk(ctx) {
        // `next_chunk` marked this worker active under the queue lock;
        // the guard releases it even on unwind, so a panicking worker
        // cannot leave starving siblings blocked on the condvar.
        let _guard = ActiveGuard(ctx);
        let Chunk {
            mut assignment,
            var,
            cands,
            lo,
            hi,
            depth,
        } = chunk;
        let status = enumerate_range(
            ctx,
            plan,
            order,
            var,
            &cands,
            lo,
            hi,
            depth,
            &mut assignment,
            scratch,
            out,
        );
        if status == SinkStatus::Stop {
            ctx.cancel();
        }
    }
}

/// One stealable unit of join search: the candidates `cands[lo..hi]` of
/// `var` at explicit level `depth`, under the partial `assignment` bound
/// above it.
struct Chunk {
    assignment: Vec<Option<NodeId>>,
    var: Var,
    cands: Arc<Vec<NodeId>>,
    lo: usize,
    hi: usize,
    depth: usize,
}

/// The shared scheduler state of one plan's work-stealing run.
struct StealState {
    queue: Vec<Chunk>,
    /// Workers currently processing a chunk. Quiescence — and thus worker
    /// shutdown — is `queue.is_empty() && active == 0`: an active worker
    /// may still donate, so an empty queue alone proves nothing.
    active: usize,
}

struct StealCtx {
    state: Mutex<StealState>,
    cv: Condvar,
    /// Workers blocked in [`next_chunk`] waiting for a donation. Read
    /// (relaxed) by busy workers once per enumerated candidate — the
    /// donation trigger must be cheaper than the work it redistributes.
    starving: AtomicUsize,
    /// Raised when a shared early-exit sink answers [`SinkStatus::Stop`]:
    /// [`next_chunk`] drains the queue and [`WorkerSink::should_stop`]
    /// makes the sequential search unwind, so the run reaches quiescence
    /// without finishing the search. Never set by full-materialisation
    /// runs (their sinks always continue).
    cancel: AtomicBool,
}

impl StealCtx {
    fn new() -> Self {
        Self {
            state: Mutex::new(StealState {
                queue: Vec::new(),
                active: 0,
            }),
            cv: Condvar::new(),
            starving: AtomicUsize::new(0),
            cancel: AtomicBool::new(false),
        }
    }

    #[inline]
    fn cancelled(&self) -> bool {
        self.cancel.load(Ordering::Relaxed)
    }

    fn cancel(&self) {
        self.cancel.store(true, Ordering::Relaxed);
        // Wake starving workers so they re-check promptly; the drained
        // queue plus falling `active` count then reads as quiescence.
        //
        // The notify must happen under the state lock (defect found by the
        // model checker, see CONCURRENCY.md invariant I2): a starving
        // worker that has already read `cancelled() == false` holds the
        // lock until `cv.wait` parks it and releases. Notifying without
        // the lock can land in that window — before the park — and the
        // wakeup is lost; the worker then sleeps until global quiescence
        // instead of observing the cancel promptly.
        let _st = self.lock();
        self.cv.notify_all();
    }

    /// Locks the scheduler state. Poisoning is survivable here — the
    /// critical sections below only move plain data, so a poisoned lock
    /// (sibling panicked while unwinding through a guard) is still
    /// consistent; `into_inner` keeps the shutdown path panic-free.
    fn lock(&self) -> MutexGuard<'_, StealState> {
        self.state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    fn donate(&self, chunk: Chunk) {
        self.lock().queue.push(chunk);
        self.cv.notify_one();
    }

    #[inline]
    fn has_starving(&self) -> bool {
        self.starving.load(Ordering::Relaxed) > 0
    }
}

/// Decrements the active-worker count when dropped — **including on
/// unwind**. Without this, a panicking worker would freeze `active` above
/// zero and its starving siblings would wait on the condvar forever; the
/// panic would then never reach [`collect_worker_results`]' join, whose
/// contract is to re-raise the original payload.
struct ActiveGuard<'a>(&'a StealCtx);

impl Drop for ActiveGuard<'_> {
    fn drop(&mut self) {
        let mut st = self.0.lock();
        st.active -= 1;
        let idle = st.queue.is_empty() && st.active == 0;
        drop(st);
        if idle {
            // Global quiescence: wake every waiter so they observe it and
            // exit.
            self.0.cv.notify_all();
        }
    }
}

/// Pops the next chunk, blocking while other workers are active (they may
/// still donate). Returns `None` at global quiescence. The pop and the
/// `active` increment happen under one lock acquisition, so no sibling
/// can observe "queue empty, nobody active" while a chunk is in flight;
/// the caller must pair a `Some` result with an [`ActiveGuard`].
fn next_chunk(ctx: &StealCtx) -> Option<Chunk> {
    let mut st = ctx.lock();
    loop {
        if ctx.cancelled() {
            // Cancelled runs want quiescence, not answers: dropping all
            // queued subtrees is what lets the fleet wind down without
            // searching them.
            st.queue.clear();
        }
        if let Some(chunk) = st.queue.pop() {
            st.active += 1;
            return Some(chunk);
        }
        if st.active == 0 {
            return None;
        }
        ctx.starving.fetch_add(1, Ordering::Relaxed);
        st = ctx
            .cv
            .wait(st)
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        ctx.starving.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Enumerates `cands[lo..hi]` of `var` at explicit level `depth`,
/// descending below each candidate. Before each candidate, donates the
/// upper half of the remaining range if a sibling is starving — this
/// check runs at *every* explicit level, and the innermost level iterates
/// most often, so the deepest large domain donates first (the split
/// invariant of the module docs). Candidates that already violate
/// injectivity under the partial assignment are pruned via
/// [`JoinPlan::bind_allowed`] before their subtree is descended, mirroring
/// the sequential search; the sink's stop signal is polled once per
/// candidate, which bounds a worker's overshoot to the subtree it had
/// already entered.
fn enumerate_range<G: GraphView>(
    ctx: &StealCtx,
    plan: &JoinPlan<'_, G>,
    order: &[Var],
    var: Var,
    cands: &Arc<Vec<NodeId>>,
    mut lo: usize,
    mut hi: usize,
    depth: usize,
    assignment: &mut Vec<Option<NodeId>>,
    scratch: &mut VerifyScratch,
    out: &mut dyn TupleSink,
) -> SinkStatus {
    while lo < hi {
        if out.should_stop() {
            return SinkStatus::Stop;
        }
        if hi - lo >= 2 && ctx.has_starving() {
            // Keep [lo, mid), donate [mid, hi) — both halves non-empty.
            let mid = (lo + hi).div_ceil(2);
            ctx.donate(Chunk {
                assignment: assignment.clone(),
                var,
                cands: Arc::clone(cands),
                lo: mid,
                hi,
                depth,
            });
            hi = mid;
        }
        let node = cands[lo];
        lo += 1;
        if !plan.bind_allowed(var, node, assignment, scratch) {
            continue;
        }
        assignment[var.index()] = Some(node);
        let status = descend(ctx, plan, order, depth + 1, assignment, scratch, out);
        assignment[var.index()] = None;
        if status == SinkStatus::Stop {
            return SinkStatus::Stop;
        }
    }
    SinkStatus::Continue
}

/// One explicit join level of the work-stealing search: enumerates the
/// candidates of `order[depth]` as a stealable range, and past
/// [`STEAL_DEPTH`] (or on a complete assignment) hands the subtree to the
/// sequential search. `depth` doubles as the elimination-order level: the
/// seed chunks enumerate `order[0]`. The sequential entry point re-runs
/// the duplicate-projection prune; the explicit levels skip it, which
/// only costs re-exploration — `out` is a set, so results are
/// unaffected.
fn descend<G: GraphView>(
    ctx: &StealCtx,
    plan: &JoinPlan<'_, G>,
    order: &[Var],
    depth: usize,
    assignment: &mut Vec<Option<NodeId>>,
    scratch: &mut VerifyScratch,
    out: &mut dyn TupleSink,
) -> SinkStatus {
    if depth >= STEAL_DEPTH || depth >= order.len() {
        return wcoj::search_from_level(plan, order, depth, assignment, scratch, out);
    }
    let next = wcoj::level_candidates(plan, order, depth, assignment);
    if next.is_empty() {
        return SinkStatus::Continue;
    }
    let (var, hi, next) = (order[depth], next.len(), Arc::new(next));
    enumerate_range(
        ctx, plan, order, var, &next, 0, hi, depth, assignment, scratch, out,
    )
}

/// One worker's view of the request's shared sink: duplicates are filtered
/// through a lock-free local seen-set (one worker never re-offers a tuple
/// it already forwarded), fresh tuples go to the `global` sink under its
/// mutex, and the scheduler's cancel flag doubles as `should_stop` so the
/// sequential search unwind without finishing their subtree.
///
/// `contains_tuple` consults only the local set — a subtree whose
/// projection another worker already found is re-explored; the global
/// sink dedupes on insert, so results are unaffected.
///
/// A sink that never stops (the full-result set) gains nothing from
/// seeing a tuple early, so its workers **batch**: fresh tuples stay in
/// the local set and move to the global sink under one lock acquisition
/// when the worker runs out of chunks ([`Self::flush`]), instead of one
/// acquisition (and one clone) per tuple.
struct WorkerSink<'a, S: TupleSink> {
    local: FxHashSet<Vec<NodeId>>,
    global: &'a Mutex<S>,
    ctx: &'a StealCtx,
    /// Inserts this worker abandoned because a sibling raised cancel while
    /// it was blocked on the sink mutex. Protocol invariant (pinned by the
    /// model checker, CONCURRENCY.md I3): at most one per worker, because
    /// the resulting `Stop` unwinds the worker out of its subtree.
    post_cancel: usize,
    /// The global sink never stops: hold tuples locally until [`Self::flush`].
    batch: bool,
}

impl<S: TupleSink> WorkerSink<'_, S> {
    /// Hands a batching worker's tuples to the global sink in one lock
    /// acquisition; a no-op for forwarding workers.
    fn flush(self) {
        if self.batch {
            let mut global = lock_sink(self.global);
            for t in self.local {
                global.insert_tuple(t);
            }
        }
    }
}

impl<S: TupleSink> TupleSink for WorkerSink<'_, S> {
    fn contains_tuple(&self, t: &[NodeId]) -> bool {
        self.local.contains(t)
    }

    fn insert_tuple(&mut self, t: Vec<NodeId>) -> SinkStatus {
        if self.batch {
            self.local.insert(t);
            return SinkStatus::Continue;
        }
        if self.ctx.cancelled() {
            return SinkStatus::Stop;
        }
        if !self.local.insert(t.clone()) {
            return SinkStatus::Continue;
        }
        let mut global = lock_sink(self.global);
        if self.ctx.cancelled() {
            // Lost the stop race: cancel was raised while this worker was
            // blocked on the sink mutex. Suppress the insert — the sink
            // already said "enough" — so the global sink never sees a
            // post-stop tuple at all (the old code forwarded it and leaned
            // on the sink's own exact-k logic to drop it).
            self.post_cancel += 1;
            debug_assert!(
                self.post_cancel <= 1,
                "a worker lost the stop race twice: Stop must unwind the subtree"
            );
            return SinkStatus::Stop;
        }
        let status = global.insert_tuple(t);
        if status == SinkStatus::Stop {
            // Raise the flag here, not just when the Stop unwinds out of
            // the chunk: siblings deep in a sequential subtree poll
            // `should_stop` and wind down immediately. Raised while still
            // holding the sink mutex: the next worker to acquire it then
            // re-checks `cancelled` above and suppresses its insert, so
            // the global sink never observes a post-stop tuple (releasing
            // first would open a window where a sibling's insert lands
            // between the unlock and the flag store). `cancel` takes the
            // scheduler state lock; sink→state is the one cross-lock edge
            // in this module — never the reverse, so no cycle.
            self.ctx.cancel();
        }
        drop(global);
        status
    }

    fn should_stop(&self) -> bool {
        self.ctx.cancelled()
    }
}

/// Locks a shared sink, surviving poisoning for the same reason as
/// [`StealCtx::lock`]: sink state is plain data, and the panic itself is
/// re-raised by [`collect_worker_results`].
fn lock_sink<S: TupleSink>(m: &Mutex<S>) -> MutexGuard<'_, S> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Runs `worker` on `threads` scoped threads and returns every worker's
/// result, in spawn order.
///
/// The per-worker results come back **through the join handles** — there
/// is deliberately no shared accumulator: the old `Mutex`-merged variant
/// meant a panicking worker poisoned the mutex, so its siblings died on a
/// confusing `PoisonError` and the *original* panic message was lost. Here
/// every handle is joined and the first panic payload is re-raised intact
/// via [`std::panic::resume_unwind`] (after all workers have finished —
/// scoped threads cannot outlive this call).
fn collect_worker_results<R: Send>(threads: usize, worker: impl Fn() -> R + Sync) -> Vec<R> {
    thread::scope(|scope| {
        let handles: Vec<_> = (0..threads.max(1)).map(|_| scope.spawn(&worker)).collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|payload| std::panic::resume_unwind(payload))
            })
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::{Eval, Semantics};
    use crpq_graph::generators;
    use crpq_query::parse_crpq;

    #[test]
    fn parallel_matches_sequential() {
        let mut g = generators::random_graph(7, 18, &["a", "b", "c"], 11);
        let q = parse_crpq(
            "(x, y) <- x -[(a+b)(a+b)*]-> y, y -[c*]-> x",
            g.alphabet_mut(),
        )
        .unwrap();
        for sem in Semantics::ALL {
            let seq = Eval::new(&q, &g).semantics(sem).tuples();
            let par = Eval::new(&q, &g).semantics(sem).threads(4).tuples();
            assert_eq!(seq, par, "mismatch under {sem}");
        }
    }

    #[test]
    fn parallel_matches_sequential_with_existentials() {
        let mut g = generators::random_graph(9, 26, &["a", "b"], 3);
        let q = parse_crpq("(y) <- x -[a a*]-> y, y -[b]-> z", g.alphabet_mut()).unwrap();
        for sem in Semantics::ALL {
            let seq = Eval::new(&q, &g).semantics(sem).tuples();
            let par = Eval::new(&q, &g).semantics(sem).threads(3).tuples();
            assert_eq!(seq, par, "mismatch under {sem}");
        }
    }

    #[test]
    fn boolean_parallel() {
        let mut g = generators::labelled_path(4, &["a"]);
        let q = parse_crpq("x -[a a]-> y", g.alphabet_mut()).unwrap();
        let res = Eval::new(&q, &g).threads(2).tuples();
        assert_eq!(res, vec![Vec::new()]);
    }

    #[test]
    fn worker_panic_propagates_original_payload() {
        // Regression: a panicking worker used to poison the shared merge
        // mutex, so sibling workers (and the caller) surfaced a
        // `PoisonError` instead of the injected panic. The join-handle
        // merge must re-raise the original payload intact.
        let cursor = AtomicUsize::new(0);
        let result = std::panic::catch_unwind(|| {
            collect_worker_results(4, || {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i == 2 {
                    panic!("injected worker panic {i}");
                }
                i
            })
        });
        let payload = result.expect_err("worker panic must propagate");
        let message = payload
            .downcast_ref::<String>()
            .expect("payload must be the original panic message");
        assert_eq!(message, "injected worker panic 2");
    }

    #[test]
    fn every_worker_result_is_collected() {
        // One result per worker, none lost or duplicated. (Which worker
        // drew which cursor value is scheduling-dependent, so spawn order
        // itself is unobservable from identical closures — this pins
        // completeness, not ordering.)
        let cursor = AtomicUsize::new(0);
        let mut results = collect_worker_results(3, || cursor.fetch_add(1, Ordering::Relaxed));
        results.sort_unstable();
        assert_eq!(results, vec![0, 1, 2]);
    }

    #[test]
    fn parallel_matches_sequential_on_cyclic_shape() {
        // Cyclic (triangle) variants: the partitioned result must still
        // match the sequential search under every semantics.
        let mut g = generators::random_graph(10, 40, &["a", "b", "c"], 23);
        let q = parse_crpq(
            "(x, y, z) <- x -[a]-> y, y -[b]-> z, z -[c]-> x",
            g.alphabet_mut(),
        )
        .unwrap();
        for sem in Semantics::ALL {
            let seq = Eval::new(&q, &g).semantics(sem).tuples();
            let par = Eval::new(&q, &g).semantics(sem).threads(4).tuples();
            assert_eq!(seq, par, "mismatch under {sem}");
        }
    }

    #[test]
    fn single_thread_degenerates_to_sequential() {
        let mut g = generators::labelled_cycle(5, &["a", "b"]);
        let q = parse_crpq("(x, y) <- x -[(a+b)(a+b)*]-> y", g.alphabet_mut()).unwrap();
        for sem in Semantics::ALL {
            assert_eq!(
                Eval::new(&q, &g).semantics(sem).tuples(),
                Eval::new(&q, &g).semantics(sem).threads(1).tuples(),
                "mismatch under {sem}"
            );
        }
    }

    #[test]
    fn work_stealing_matches_sequential_on_skewed_zipf_graph() {
        // The workload the scheduler exists for: Zipf-skewed labels give a
        // few candidates subtrees holding most of the search space. The
        // work-stealing result must match the sequential engine under
        // every semantics.
        let mut g = generators::zipf_label_graph(36, 150, 20, 1.2, 97);
        let q = parse_crpq(
            "(x, y) <- x -[l0 (l1+l2)*]-> y, y -[l2 (l3+l4)*]-> z",
            g.alphabet_mut(),
        )
        .unwrap();
        for sem in Semantics::ALL {
            let seq = Eval::new(&q, &g).semantics(sem).tuples();
            let ws = Eval::new(&q, &g).semantics(sem).threads(4).tuples();
            assert_eq!(seq, ws, "work-stealing mismatch under {sem}");
        }
    }

    #[test]
    fn work_stealing_matches_on_cyclic_shape() {
        // The explicit levels go through `wcoj::level_candidates`, which
        // must enumerate exactly what `bind_level` would.
        let mut g = generators::random_graph(12, 60, &["a", "b", "c"], 41);
        let q = parse_crpq(
            "(x, z) <- x -[a+b]-> y, y -[b+c]-> z, z -[c a*]-> x",
            g.alphabet_mut(),
        )
        .unwrap();
        for sem in Semantics::ALL {
            let seq = Eval::new(&q, &g).semantics(sem).tuples();
            let ws = Eval::new(&q, &g).semantics(sem).threads(4).tuples();
            assert_eq!(seq, ws, "mismatch under {sem}");
        }
    }

    #[test]
    fn stealing_worker_panic_releases_starving_siblings() {
        // One chunk, three workers: the worker that claims it panics while
        // active. Its ActiveGuard must release the quiescence count during
        // unwind so the two starving siblings wake, observe quiescence and
        // exit — otherwise this test deadlocks on the condvar and the
        // panic never reaches the join handles.
        let ctx = StealCtx::new();
        ctx.donate(Chunk {
            assignment: vec![None; 2],
            var: Var(0),
            cands: Arc::new(vec![NodeId(0)]),
            lo: 0,
            hi: 1,
            depth: 0,
        });
        let result = std::panic::catch_unwind(|| {
            collect_worker_results(3, || {
                if let Some(_chunk) = next_chunk(&ctx) {
                    let _guard = ActiveGuard(&ctx);
                    panic!("injected steal panic");
                }
            })
        });
        let payload = result.expect_err("steal-worker panic must propagate");
        let message = payload
            .downcast_ref::<&str>()
            .expect("payload must be the original panic message");
        assert_eq!(*message, "injected steal panic");
    }

    /// A sink that answers `Stop` on its first insert — after a short
    /// sleep so sibling workers pile up on the global mutex, maximising
    /// the overshoot window — and counts every insert arriving after the
    /// stop.
    struct SlowStopSink {
        first: Option<Vec<NodeId>>,
        stopped: bool,
        after_stop: usize,
    }

    impl TupleSink for SlowStopSink {
        fn contains_tuple(&self, _t: &[NodeId]) -> bool {
            false
        }

        fn insert_tuple(&mut self, t: Vec<NodeId>) -> SinkStatus {
            if self.stopped {
                self.after_stop += 1;
                return SinkStatus::Stop;
            }
            // Widen the race: siblings that found a tuple concurrently are
            // now blocked on the sink mutex and will land post-stop.
            thread::sleep(std::time::Duration::from_millis(2));
            self.first = Some(t);
            self.stopped = true;
            SinkStatus::Stop
        }

        fn should_stop(&self) -> bool {
            self.stopped
        }
    }

    #[test]
    fn cancellation_overshoot_is_bounded_by_worker_count() {
        // Satellite: every work-stealing worker must observe `Stop`. The
        // only inserts that can land after the stop are from workers that
        // were already blocked on the sink mutex when the flag went up —
        // at most one per sibling worker; everything else (queued chunks,
        // deep sequential subtrees) must be abandoned via the cancel flag.
        let threads = 4;
        let mut g = generators::zipf_label_graph(64, 400, 6, 1.1, 7);
        let q = parse_crpq("(x, y) <- x -[(l0+l1)(l0+l1+l2)*]-> y", g.alphabet_mut()).unwrap();
        let full = Eval::new(&q, &g).tuples().len();
        assert!(full > 100, "need a big answer set, got {full}");
        let sink = Eval::new(&q, &g).threads(threads).run(SlowStopSink {
            first: None,
            stopped: false,
            after_stop: 0,
        });
        assert!(sink.stopped, "the run must reach the sink at least once");
        assert!(sink.first.is_some());
        assert!(
            sink.after_stop < threads,
            "overshoot {} not bounded by worker count {}",
            sink.after_stop,
            threads
        );
    }

    /// A sink whose first insert panics — the mid-stream analogue of the
    /// panicking-worker tests: the panic unwinds through the sink mutex
    /// and a worker thread, and must still reach the caller intact.
    #[derive(Debug)]
    struct PanickingSink;

    impl TupleSink for PanickingSink {
        fn contains_tuple(&self, _t: &[NodeId]) -> bool {
            false
        }

        fn insert_tuple(&mut self, _t: Vec<NodeId>) -> SinkStatus {
            panic!("injected mid-stream sink panic");
        }
    }

    #[test]
    fn sink_panic_mid_stream_propagates_original_payload() {
        let mut g = generators::zipf_label_graph(32, 160, 4, 1.1, 13);
        let q = parse_crpq("(x, y) <- x -[(l0+l1)(l0+l1)*]-> y", g.alphabet_mut()).unwrap();
        assert!(!Eval::new(&q, &g).tuples().is_empty());
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            Eval::new(&q, &g).threads(4).run(PanickingSink)
        }));
        let payload = result.expect_err("sink panic must propagate");
        let message = payload
            .downcast_ref::<&str>()
            .expect("payload must be the original panic message");
        assert_eq!(*message, "injected mid-stream sink panic");
    }

    #[test]
    fn ask_parallel_matches_materialised_existence() {
        let mut g = generators::random_graph(10, 30, &["a", "b"], 5);
        let q = parse_crpq("(x, y) <- x -[a b*]-> y, y -[b]-> z", g.alphabet_mut()).unwrap();
        for sem in Semantics::ALL {
            let full = Eval::new(&q, &g).semantics(sem).tuples();
            assert_eq!(
                Eval::new(&q, &g).semantics(sem).threads(4).ask(),
                !full.is_empty(),
                "ask mismatch under {sem}"
            );
        }
        // And a query with no answers at all.
        let q2 = parse_crpq("(x) <- x -[a a a a a a a a a a a a]-> x", g.alphabet_mut()).unwrap();
        for sem in Semantics::ALL {
            assert_eq!(
                Eval::new(&q2, &g).semantics(sem).threads(4).ask(),
                !Eval::new(&q2, &g).semantics(sem).tuples().is_empty(),
                "empty-ask mismatch under {sem}"
            );
        }
    }

    #[test]
    fn limit_parallel_returns_subset_of_exact_size() {
        let mut g = generators::zipf_label_graph(40, 180, 5, 1.2, 31);
        let q = parse_crpq("(x, y) <- x -[(l0+l1)(l1+l2)*]-> y", g.alphabet_mut()).unwrap();
        for sem in Semantics::ALL {
            let full: FxHashSet<Vec<NodeId>> = Eval::new(&q, &g)
                .semantics(sem)
                .tuples()
                .into_iter()
                .collect();
            for k in [0usize, 1, 3, full.len(), full.len() + 10] {
                let limited = Eval::new(&q, &g).semantics(sem).threads(4).limit(k);
                assert_eq!(
                    limited.len(),
                    k.min(full.len()),
                    "limit size mismatch under {sem}, k={k}"
                );
                assert!(
                    limited.iter().all(|t| full.contains(t)),
                    "limit produced a non-answer under {sem}, k={k}"
                );
                let mut sorted = limited.clone();
                sorted.sort();
                assert_eq!(limited, sorted, "limit output must be sorted");
            }
        }
    }

    #[test]
    fn donated_chunks_are_drained_after_quiescence_race() {
        // A worker that donates while siblings are between wake-up and
        // re-check must not strand the chunk: pop/active bookkeeping share
        // one lock, so either a sibling claims it or the donor's own loop
        // does. Exercised by funnelling many single-candidate chunks
        // through fewer workers.
        let ctx = StealCtx::new();
        for i in 0u32..32 {
            ctx.donate(Chunk {
                assignment: vec![None; 1],
                var: Var(0),
                cands: Arc::new(vec![NodeId(i)]),
                lo: 0,
                hi: 1,
                depth: 0,
            });
        }
        let seen = AtomicUsize::new(0);
        collect_worker_results(4, || {
            while let Some(chunk) = next_chunk(&ctx) {
                let _guard = ActiveGuard(&ctx);
                seen.fetch_add(chunk.hi - chunk.lo, Ordering::Relaxed);
            }
        });
        assert_eq!(seen.load(Ordering::Relaxed), 32, "every chunk processed");
    }
}

#[cfg(all(test, crpq_model_check))]
mod model_tests {
    //! Model-checked protocol invariants (CONCURRENCY.md I1–I4 and I6), plus the
    //! mutation-validation tests proving the checker catches this
    //! protocol's known failure modes. Compiled and run only under the
    //! model-check cfg:
    //!
    //! ```text
    //! RUSTFLAGS="--cfg crpq_model_check" cargo test -p crpq-core --lib model_
    //! ```
    //!
    //! (or `cargo xtask model-check`, which wraps exactly that).

    use super::*;
    use crate::eval::{Eval, Semantics};
    use crpq_check::{explore, try_explore, Config, Failure};
    use crpq_graph::generators;
    use crpq_query::parse_crpq;
    use std::panic::AssertUnwindSafe;

    fn tiny_chunk() -> Chunk {
        Chunk {
            assignment: vec![None],
            var: Var(0),
            cands: Arc::new(vec![NodeId(0)]),
            lo: 0,
            hi: 1,
            depth: 0,
        }
    }

    // ---- invariants ---------------------------------------------------

    /// I1 — quiescence termination: under every explored interleaving of
    /// the full work-stealing pipeline (seed → steal → donate → drain),
    /// every worker exits and the answer set matches the sequential
    /// engine.
    #[test]
    fn model_quiescence_terminates_with_correct_answers() {
        let mut g = generators::labelled_path(3, &["a"]);
        let q = parse_crpq("(x, y) <- x -[a a*]-> y", g.alphabet_mut()).unwrap();
        let expected = Eval::new(&q, &g).tuples();
        assert!(!expected.is_empty());
        let run = || {
            let got = Eval::new(&q, &g).threads(2).tuples();
            assert_eq!(got, expected);
        };
        let report = explore(&Config::exhaustive(1_000), run);
        assert!(report.schedules >= 1_000 || report.exhausted);
        assert_eq!(report.truncated, 0, "runs must fit the step budget");
        // The DFS frontier only deviates early in the run; a seeded
        // random pass reaches deep interleavings of the drain/donate
        // phase too.
        let deep = explore(&Config::random(0xC0FFEE, 200), run);
        assert_eq!(deep.schedules, 200);
    }

    /// I3 — post-stop suppression: once the shared sink answers `Stop`,
    /// no later insert reaches it on ANY schedule (the worker that loses
    /// the stop race re-checks the cancel flag under the sink mutex).
    ///
    /// Drives the `WorkerSink`/cancel protocol directly rather than
    /// through a full evaluation: the stop race sits so deep in a real
    /// run's schedule that a bounded DFS spends its whole budget on
    /// planning-phase deviations and never branches there (verified by
    /// mutating the re-check away — the full-eval form does NOT catch
    /// it; this form does). This pins the fix the checker surfaced: the
    /// pre-fix code forwarded the racing insert and relied on the global
    /// sink to ignore it.
    #[test]
    fn model_cancel_overshoot_is_suppressed() {
        struct StopAfterFirst {
            first: Option<Vec<NodeId>>,
            post_stop: usize,
        }
        impl TupleSink for StopAfterFirst {
            fn contains_tuple(&self, _t: &[NodeId]) -> bool {
                false
            }
            fn insert_tuple(&mut self, t: Vec<NodeId>) -> SinkStatus {
                if self.first.is_some() {
                    self.post_stop += 1;
                    return SinkStatus::Stop;
                }
                self.first = Some(t);
                SinkStatus::Stop
            }
            fn should_stop(&self) -> bool {
                self.first.is_some()
            }
        }
        let report = explore(&Config::exhaustive(10_000), || {
            let ctx = StealCtx::new();
            let global = Mutex::new(StopAfterFirst {
                first: None,
                post_stop: 0,
            });
            thread::scope(|s| {
                for w in 0..2u32 {
                    let (ctx, global) = (&ctx, &global);
                    s.spawn(move || {
                        let mut sink = WorkerSink {
                            local: FxHashSet::default(),
                            global,
                            ctx,
                            post_cancel: 0,
                            batch: false,
                        };
                        // Each worker offers one distinct fresh tuple —
                        // the two offers race on the sink mutex.
                        let _ = sink.insert_tuple(vec![NodeId(w)]);
                        assert!(sink.post_cancel <= 1, "overshoot bound");
                    });
                }
            });
            let final_state = global.into_inner().unwrap_or_else(|e| e.into_inner());
            assert!(final_state.first.is_some(), "some answer must land");
            assert_eq!(
                final_state.post_stop, 0,
                "an insert reached the sink post-stop"
            );
        });
        assert!(report.schedules >= 1_000, "coverage floor");
    }

    /// I6 — worker panic propagation: a panicking worker's payload
    /// reaches the caller intact under every schedule, and its siblings
    /// wind down instead of deadlocking (the `ActiveGuard` drop runs on
    /// unwind).
    #[test]
    fn model_worker_panic_propagates() {
        let report = explore(&Config::exhaustive(1_000), || {
            let turn = AtomicUsize::new(0);
            let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
                collect_worker_results(2, || {
                    if turn.fetch_add(1, Ordering::Relaxed) == 0 {
                        panic!("injected worker panic");
                    }
                });
            }));
            let payload = caught.expect_err("worker panic must reach the caller");
            let msg = payload
                .downcast_ref::<&str>()
                .expect("payload must survive intact");
            assert_eq!(*msg, "injected worker panic");
        });
        assert!(report.schedules > 1, "exploration must branch");
    }

    /// I4 — exact-k under races: `LIMIT k` returns exactly `k` distinct
    /// real answers no matter how workers interleave on the shared
    /// `LimitSink`.
    #[test]
    fn model_limit_sink_exact_k_under_races() {
        let mut g = generators::labelled_path(4, &["a"]);
        let q = parse_crpq("(x, y) <- x -[a a*]-> y", g.alphabet_mut()).unwrap();
        let all = Eval::new(&q, &g).tuples();
        assert!(all.len() > 2, "need more answers than the limit");
        let run = || {
            let got = Eval::new(&q, &g).threads(2).limit(2);
            assert_eq!(got.len(), 2, "LIMIT k must be exact, got {got:?}");
            for t in &got {
                assert!(all.contains(t), "emitted a non-answer: {t:?}");
            }
        };
        let report = explore(&Config::exhaustive(1_000), run);
        assert!(report.schedules >= 1_000 || report.exhausted);
        // Deep-schedule pass — the cancel/limit races live late in the
        // run, past the bounded DFS frontier.
        let deep = explore(&Config::random(0xBEEF, 200), run);
        assert_eq!(deep.schedules, 200);
    }

    // ---- mutation validation ------------------------------------------
    //
    // Each test re-creates one protocol mutant against the REAL scheduler
    // pieces and asserts the checker reports the failure class the mutant
    // causes. If a refactor ever makes one of these pass cleanly, the
    // checker lost its teeth — treat that as a CI failure.

    /// Mutant: the `ActiveGuard` release is dropped. A sibling parked in
    /// `next_chunk` waits for `active` to fall and must be reported as a
    /// lost wakeup / deadlock.
    #[test]
    fn model_mutant_leaked_active_guard_is_caught() {
        let failure = try_explore(&Config::exhaustive(2_000), || {
            let ctx = StealCtx::new();
            ctx.lock().queue.push(tiny_chunk());
            thread::scope(|s| {
                s.spawn(|| {
                    if next_chunk(&ctx).is_some() {
                        // MUTANT: `active` is never released.
                        std::mem::forget(ActiveGuard(&ctx));
                    }
                });
                s.spawn(|| {
                    while next_chunk(&ctx).is_some() {
                        drop(ActiveGuard(&ctx));
                    }
                });
            });
        })
        .expect_err("a leaked ActiveGuard must strand a sibling");
        assert!(
            matches!(
                failure,
                Failure::LostWakeup { .. } | Failure::Deadlock { .. }
            ),
            "wrong failure class: {failure}"
        );
    }

    /// Mutant: `donate` without its notify. The starving sibling never
    /// learns about the queued chunk: lost wakeup.
    #[test]
    fn model_mutant_unnotified_donation_is_caught() {
        let failure = try_explore(&Config::exhaustive(2_000), || {
            let ctx = StealCtx::new();
            ctx.lock().queue.push(tiny_chunk());
            thread::scope(|s| {
                s.spawn(|| {
                    if next_chunk(&ctx).is_some() {
                        let guard = ActiveGuard(&ctx);
                        // MUTANT: `donate()` minus `cv.notify_one()`.
                        ctx.lock().queue.push(tiny_chunk());
                        drop(guard);
                    }
                });
                s.spawn(|| {
                    while next_chunk(&ctx).is_some() {
                        drop(ActiveGuard(&ctx));
                    }
                });
            });
        })
        .expect_err("a silent donation must strand a starving sibling");
        assert!(
            matches!(failure, Failure::LostWakeup { .. }),
            "wrong failure class: {failure}"
        );
    }

    /// Mutant: `LimitSink`'s count-then-insert runs without the sink
    /// mutex (modelled as a non-atomic read-check-write). Two workers can
    /// both pass the `< k` check and the limit overshoots — the checker
    /// must find that interleaving.
    #[test]
    fn model_mutant_racy_limit_increment_is_caught() {
        let failure = try_explore(&Config::exhaustive(2_000), || {
            let k = 1usize;
            // MUTANT: the guarded `count += 1; insert` critical section,
            // with the guard removed.
            let count = AtomicUsize::new(0);
            // Correctly-atomic bookkeeping of how many inserts happened.
            let emitted = AtomicUsize::new(0);
            thread::scope(|s| {
                for _ in 0..2 {
                    s.spawn(|| {
                        let seen = count.load(Ordering::Relaxed);
                        if seen < k {
                            count.store(seen + 1, Ordering::Relaxed);
                            emitted.fetch_add(1, Ordering::Relaxed);
                        }
                    });
                }
            });
            assert!(
                emitted.load(Ordering::Relaxed) <= k,
                "limit overshot: {} inserts past k={k}",
                emitted.load(Ordering::Relaxed)
            );
        })
        .expect_err("the unguarded limit increment must be caught");
        assert!(
            matches!(failure, Failure::Panic { .. }),
            "wrong failure class: {failure}"
        );
    }
}
