//! Crash-matrix tests for the durability layer (`crpq_graph::wal`).
//!
//! The harness runs a ≥100-mutation schedule through a [`DurableGraph`]
//! over deterministic [`FaultyStorage`], records the graph state after
//! every logged record, then simulates a crash at **every record
//! boundary**, at **sampled mid-record offsets**, and with **bit-flipped
//! tails** — and asserts recovery lands on exactly the legal mutation
//! prefix the surviving bytes encode (differentially checked against a
//! from-scratch rebuild under all three semantics). Corruption *behind*
//! durable records must instead be a hard error naming the byte offset.
//!
//! It also proptests the sync-policy loss bounds (`Always` loses at most
//! the in-flight record, `EveryN` at most the last un-synced group),
//! validates the harness's own teeth against seeded durability mutants
//! (skip the fsync, skip the rename, skip the tail-CRC check — each must
//! fail the matrix), and checks catalog rehydration after recovery.
//! The invariants live in `DURABILITY.md` (D1–D6).

use crpq::core::{Eval, RelationCatalog, Semantics};
use crpq::graph::wal::{
    frame_boundaries, DurabilityMutants, DurableGraph, EdgeMutation, SyncPolicy,
};
use crpq::prelude::*;
use crpq::util::storage::{FaultPlan, FaultyStorage, Storage};
use proptest::prelude::*;

const SNAP: &str = "snap";
const WAL: &str = "wal";
/// Matrix sync policy: non-trivial group commit (see the loss-bound
/// proptests for `Always`/`Never`).
const POLICY: SyncPolicy = SyncPolicy::EveryN(8);

/// Deterministic splitmix64 — crash schedules must be reproducible from
/// the seed alone (no ambient entropy).
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

fn base_graph(seed: u64) -> (Crpq, GraphDb, Vec<Symbol>) {
    let mut base = generators::random_graph(12, 36, &["a", "b", "c"], seed);
    let q = parse_crpq(
        "(x, y) <- x -[(a+b)b*]-> y, y -[c]-> z",
        base.alphabet_mut(),
    )
    .unwrap();
    let syms: Vec<Symbol> = ["a", "b", "c"]
        .iter()
        .map(|l| base.alphabet_mut().intern(l))
        .collect();
    (q, base, syms)
}

fn edge_set(g: &DeltaGraph) -> Vec<(u32, u32, u32)> {
    let mut out = Vec::new();
    for v in 0..GraphView::num_nodes(g) {
        let v = NodeId(v as u32);
        for (l, t) in g.out_edges_iter(v) {
            out.push((v.0, l.0, t.0));
        }
    }
    out.sort_unstable();
    out
}

/// Rebuild a frozen snapshot from the view (dense ids preserved), so the
/// recovered overlay can be differentially evaluated against plain CSR.
fn rebuild(g: &DeltaGraph) -> GraphDb {
    let mut b = GraphBuilder::anonymous_with_alphabet(
        GraphView::num_nodes(g),
        GraphView::alphabet(g).clone(),
    );
    for v in 0..GraphView::num_nodes(g) {
        let v = NodeId(v as u32);
        for (l, t) in g.out_edges_iter(v) {
            b.edge_ids(v, l, t);
        }
    }
    b.finish()
}

/// The golden run: checkpoint bytes, the full WAL image, and the graph
/// state after each of the `states.len() - 1` logged records.
struct Golden {
    snap: Vec<u8>,
    wal: Vec<u8>,
    states: Vec<Vec<(u32, u32, u32)>>,
}

/// Drive `ops` seeded mutations through a fresh durable graph, recording
/// the state after every *logged* record (no-op mutations log nothing).
fn golden_run(seed: u64, ops: usize, policy: SyncPolicy) -> Golden {
    let (_, base, syms) = base_graph(seed);
    let mut d = DurableGraph::create_with(FaultyStorage::new(), SNAP, WAL, base, policy).unwrap();
    let snap = d.storage_mut().read(SNAP).unwrap();
    let n = GraphView::num_nodes(d.graph());
    let mut states = vec![edge_set(d.graph())];
    let mut rng = Rng(seed ^ 0x5EED);
    for _ in 0..ops {
        let u = NodeId(rng.below(n) as u32);
        let v = NodeId(rng.below(n) as u32);
        let l = syms[rng.below(syms.len())];
        let before = d.records_since_checkpoint();
        if rng.below(10) < 6 {
            d.insert_edge(u, l, v).unwrap();
        } else {
            d.delete_edge(u, l, v).unwrap();
        }
        if d.records_since_checkpoint() > before {
            states.push(edge_set(d.graph()));
        }
    }
    d.sync_wal().unwrap();
    let mut storage = d.into_storage();
    let wal = storage.read(WAL).unwrap();
    Golden { snap, wal, states }
}

/// The matrix check: install `wal_image` next to the golden checkpoint,
/// recover, and verify prefix-consistency — the recovered graph must
/// equal the state after exactly `report.replayed` logged records, with
/// `replayed` matching `expect_exact` (when pinned) and at least
/// `min_records` (the sync-watermark loss bound). With `differential`,
/// the recovered overlay is also evaluated under all three semantics
/// against a from-scratch rebuild of the same prefix. Returns the number
/// of replayed records; any violation (including an unexpected hard
/// recovery error) is an `Err`, which the mutant tests assert on.
fn recover_and_check(
    golden: &Golden,
    q: &Crpq,
    wal_image: &[u8],
    expect_exact: Option<usize>,
    min_records: usize,
    differential: bool,
    mutants: DurabilityMutants,
) -> Result<usize, String> {
    let mut storage = FaultyStorage::new();
    storage.install(SNAP, &golden.snap);
    storage.install(WAL, wal_image);
    let (d, report) = DurableGraph::open_with_mutants(storage, SNAP, WAL, POLICY, mutants)
        .map_err(|e| format!("unexpected hard recovery error: {e}"))?;
    let p = report.replayed;
    if p >= golden.states.len() {
        return Err(format!(
            "recovered {p} records but the schedule logged {}",
            golden.states.len() - 1
        ));
    }
    let got = edge_set(d.graph());
    if got != golden.states[p] {
        return Err(format!(
            "recovered state does not equal the {p}-record mutation prefix"
        ));
    }
    if let Some(exact) = expect_exact {
        if p != exact {
            return Err(format!("recovered {p} records, expected exactly {exact}"));
        }
    }
    if p < min_records {
        return Err(format!(
            "durable records lost: recovered {p} < sync watermark {min_records}"
        ));
    }
    if differential {
        let frozen = rebuild(d.graph());
        for sem in Semantics::ALL {
            let got = Eval::new(q, d.graph()).semantics(sem).tuples();
            let want = Eval::new(q, &frozen).semantics(sem).tuples();
            if got != want {
                return Err(format!(
                    "recovered overlay diverges from the prefix rebuild under {sem}"
                ));
            }
        }
    }
    Ok(p)
}

/// D1 + D3: crash at every record boundary, at sampled mid-record
/// offsets, and with bit-flipped tails — recovery always lands on the
/// legal prefix the surviving bytes encode and never panics or
/// hard-errors; mid-log bit flips (durable data damaged) are hard errors
/// naming the byte offset.
#[test]
fn crash_matrix_boundaries_midpoints_and_flipped_tails() {
    let seed = 0x00D0_0DAD;
    let golden = golden_run(seed, 240, POLICY);
    let (q, _, _) = base_graph(seed);
    let records = golden.states.len() - 1;
    assert!(
        records >= 100,
        "need a ≥100-mutation schedule, got {records}"
    );
    let frames = frame_boundaries(&golden.wal);
    // frames = [0, header_end, record_1_end, ..., record_R_end]
    assert_eq!(frames.len(), records + 2, "frame walk must cover the log");
    assert_eq!(*frames.last().unwrap(), golden.wal.len());

    // (a) Every record boundary: the prefix recovers exactly, cleanly.
    for (i, &b) in frames.iter().enumerate() {
        let expected = i.saturating_sub(1);
        recover_and_check(
            &golden,
            &q,
            &golden.wal[..b],
            Some(expected),
            0,
            i % 5 == 0,
            DurabilityMutants::default(),
        )
        .unwrap_or_else(|e| panic!("boundary {i} (byte {b}): {e}"));
    }

    // (b) Sampled mid-record offsets: the torn tail is dropped and only
    // complete records replay.
    let mut rng = Rng(seed ^ 0x7EA4);
    for t in 0..60 {
        let cut = 1 + rng.below(golden.wal.len() - 1);
        let expected = frames[2..].iter().filter(|&&e| e <= cut).count();
        recover_and_check(
            &golden,
            &q,
            &golden.wal[..cut],
            Some(expected),
            0,
            t % 5 == 0,
            DurabilityMutants::default(),
        )
        .unwrap_or_else(|e| panic!("mid-record cut at byte {cut}: {e}"));
    }

    // (c) Bit-flipped tails: flip any bit anywhere in the final record
    // (length prefix, payload, or checksum) — the record is dropped, the
    // prefix before it recovers.
    for t in 0..40 {
        let k = 2 + rng.below(frames.len() - 2);
        let (start, end) = (frames[k - 1], frames[k]);
        let mut img = golden.wal[..end].to_vec();
        let byte = start + rng.below(end - start);
        img[byte] ^= 1 << (rng.below(8) as u32);
        recover_and_check(
            &golden,
            &q,
            &img,
            Some(k - 2),
            0,
            t % 5 == 0,
            DurabilityMutants::default(),
        )
        .unwrap_or_else(|e| panic!("tail flip at byte {byte} of {end}: {e}"));
    }

    // (d) Mid-log bit flips — durable records damaged behind later valid
    // ones: a hard, reported error naming the byte offset, never a panic
    // and never a silent truncation.
    for _ in 0..40 {
        let k = 2 + rng.below(frames.len() - 3); // never the final record
        let (start, end) = (frames[k - 1], frames[k]);
        let byte = start + rng.below(end - start);
        let mut storage = FaultyStorage::new();
        storage.install(SNAP, &golden.snap);
        storage.install(WAL, &golden.wal);
        storage.flip_bit(WAL, byte, (byte % 8) as u32);
        match DurableGraph::open_with_mutants(
            storage,
            SNAP,
            WAL,
            POLICY,
            DurabilityMutants::default(),
        ) {
            Err(e) => {
                assert!(e.offset.is_some(), "positional error expected: {e}");
                assert!(e.to_string().contains("byte offset"), "{e}");
            }
            Ok((_, report)) => panic!(
                "mid-log flip at byte {byte} (record {}) silently recovered: {report:?}",
                k - 1
            ),
        }
    }
}

/// D2 (drop-unsynced matrix): crash after every op count with all
/// un-synced bytes lost — recovery must land exactly on the sync
/// watermark, under the policy's loss bound. Exercises the same schedule
/// as the boundary matrix, live.
#[test]
fn crash_matrix_drop_unsynced_lands_on_sync_watermark() {
    let seed = 0x0BAD_5EED;
    let n_policy = 8usize;
    for crash_after in (0..=120).step_by(7) {
        let (_, base, syms) = base_graph(seed);
        let mut d = DurableGraph::create_with(
            FaultyStorage::new(),
            SNAP,
            WAL,
            base,
            SyncPolicy::EveryN(n_policy),
        )
        .unwrap();
        let n = GraphView::num_nodes(d.graph());
        let mut rng = Rng(seed ^ 0x5EED);
        let mut states = vec![edge_set(d.graph())];
        for _ in 0..crash_after {
            let u = NodeId(rng.below(n) as u32);
            let v = NodeId(rng.below(n) as u32);
            let l = syms[rng.below(syms.len())];
            let logged = d.records_since_checkpoint();
            if rng.below(10) < 6 {
                d.insert_edge(u, l, v).unwrap();
            } else {
                d.delete_edge(u, l, v).unwrap();
            }
            if d.records_since_checkpoint() > logged {
                states.push(edge_set(d.graph()));
            }
        }
        let logged = d.records_since_checkpoint();
        let watermark = logged - logged % n_policy;
        let mut storage = d.into_storage();
        storage.crash_drop_unsynced();
        let (d2, report) =
            DurableGraph::open_with(storage, SNAP, WAL, SyncPolicy::EveryN(n_policy)).unwrap();
        assert_eq!(
            report.replayed, watermark,
            "crash after {crash_after} ops: recovery must land on the sync watermark"
        );
        assert_eq!(
            edge_set(d2.graph()),
            states[watermark],
            "crash after {crash_after} ops: wrong prefix state"
        );
    }
}

/// D4: compaction is crash-safe at every storage-op window. Injecting a
/// crash at each op index through a mutate → compact → mutate schedule,
/// then recovering, must always land on a legal prefix — and with
/// `SyncPolicy::Always`, on a state at least as new as every completed
/// mutation (the checkpoint swap loses nothing).
#[test]
fn crash_matrix_compaction_windows() {
    let seed = 0xC0_3BA2;
    // Dry run: count storage ops for the full schedule.
    let total_ops = {
        let mut d = run_compaction_schedule(seed, None).expect("dry run cannot crash");
        d.storage_mut().ops()
    };
    assert!(total_ops > 20, "schedule too small to matter: {total_ops}");
    for crash_at in 0..total_ops {
        // The run crashes at storage-op `crash_at`; completed mutations
        // before the crash are tracked by the schedule driver. `allowance`
        // is 1 when the crash tore a mutation in flight (its append may or
        // may not have landed — both outcomes are legal), 0 otherwise.
        let (mut storage, completed_states, allowance) =
            match run_compaction_schedule(seed, Some(crash_at)) {
                Ok(mut d) => {
                    let states = d.take_states();
                    (d.into_storage(), states, 0)
                }
                Err((storage, states, allowance)) => (storage, states, allowance),
            };
        storage.crash_keep_written();
        let (d2, _report) = DurableGraph::open_with(storage, SNAP, WAL, SyncPolicy::Always)
            .unwrap_or_else(|e| panic!("crash at storage op {crash_at}: recovery failed: {e}"));
        let got = edge_set(d2.graph());
        // Prefix-consistency: the recovered state is one of the completed
        // states…
        let pos = completed_states.iter().position(|s| s == &got);
        let pos = pos.unwrap_or_else(|| {
            panic!("crash at storage op {crash_at}: recovered state is not a legal prefix")
        });
        // …and under Always with keep-written semantics, nothing completed
        // is lost: only the op in flight at the crash may be missing.
        assert!(
            pos + 1 + allowance >= completed_states.len(),
            "crash at storage op {crash_at}: durable mutations lost \
             (recovered prefix {pos} of {}, allowance {allowance})",
            completed_states.len() - 1
        );
    }
}

/// Driver for [`crash_matrix_compaction_windows`]: mutate, compact
/// mid-way, mutate again, under `SyncPolicy::Always`. Returns the live
/// graph (no crash) or the storage + completed-state log at the injected
/// crash.
struct ScheduleRun {
    d: DurableGraph<FaultyStorage>,
    states: Vec<Vec<(u32, u32, u32)>>,
}

impl ScheduleRun {
    fn storage_mut(&mut self) -> &mut FaultyStorage {
        self.d.storage_mut()
    }
    fn into_storage(self) -> FaultyStorage {
        self.d.into_storage()
    }
    fn take_states(&mut self) -> Vec<Vec<(u32, u32, u32)>> {
        std::mem::take(&mut self.states)
    }
}

#[allow(clippy::type_complexity, clippy::result_large_err)]
fn run_compaction_schedule(
    seed: u64,
    crash_at: Option<u64>,
) -> Result<ScheduleRun, (FaultyStorage, Vec<Vec<(u32, u32, u32)>>, usize)> {
    let (_, base, syms) = base_graph(seed);
    let storage = match crash_at {
        Some(n) => FaultyStorage::with_plan(FaultPlan {
            crash_after_ops: Some(n),
            ..FaultPlan::default()
        }),
        None => FaultyStorage::new(),
    };
    // `create` itself performs storage ops and can crash under the plan.
    let mut d =
        match DurableGraph::create_with(storage, SNAP, WAL, base.clone(), SyncPolicy::Always) {
            Ok(d) => d,
            Err(_) => {
                // Crashed during initialisation: re-run creation honestly to
                // get a baseline disk, then replay the crash onto it. An
                // init-window crash is equivalent to an op-0 crash on an
                // initialised store for prefix purposes, so just report the
                // base state as the only legal prefix over an honest disk.
                let honest = DurableGraph::create_with(
                    FaultyStorage::new(),
                    SNAP,
                    WAL,
                    base,
                    SyncPolicy::Always,
                )
                .unwrap();
                let state = edge_set(honest.graph());
                return Err((honest.into_storage(), vec![state], 0));
            }
        };
    let n = GraphView::num_nodes(d.graph());
    let mut states = vec![edge_set(d.graph())];
    let mut rng = Rng(seed ^ 0xFACE);
    for step in 0..30 {
        let u = NodeId(rng.below(n) as u32);
        let v = NodeId(rng.below(n) as u32);
        let l = syms[rng.below(syms.len())];
        let res = if rng.below(10) < 6 {
            d.insert_edge(u, l, v)
        } else {
            d.delete_edge(u, l, v)
        };
        match res {
            Ok(true) => states.push(edge_set(d.graph())),
            Ok(false) => {}
            Err(_) => {
                // The crash tore this mutation between graph-apply and
                // WAL durability: the in-memory (post-op) state is legal
                // iff its append landed, the prior state iff it didn't.
                states.push(edge_set(d.graph()));
                return Err((d.into_storage(), states, 1));
            }
        }
        if step == 14 || step == 24 {
            if let Err(_e) = d.compact() {
                return Err((d.into_storage(), states, 0));
            }
        }
    }
    Ok(ScheduleRun { d, states })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// D2 (`Always`): after any completed mutation, a crash that drops all
    /// un-synced bytes loses nothing — every completed record was synced —
    /// and a crash tearing the in-flight append loses at most that one
    /// record.
    #[test]
    fn sync_always_loses_at_most_the_in_flight_record(seed in 0u64..100_000) {
        let ops = 20 + (seed as usize % 40);
        let golden = golden_run(seed, ops, SyncPolicy::Always);
        let (q, _, _) = base_graph(seed);
        let records = golden.states.len() - 1;
        // Completed mutations are all durable.
        recover_and_check(
            &golden, &q, &golden.wal, Some(records), records, true,
            DurabilityMutants::default(),
        ).unwrap();

        // Tear the in-flight (last) record at a seeded byte: at most that
        // record is lost.
        let frames = frame_boundaries(&golden.wal);
        let (start, end) = (frames[frames.len() - 2], frames[frames.len() - 1]);
        let cut = start + 1 + (seed as usize % (end - start - 1));
        recover_and_check(
            &golden, &q, &golden.wal[..cut], Some(records - 1), records - 1, true,
            DurabilityMutants::default(),
        ).unwrap();
    }

    /// D2 (`EveryN`): a drop-unsynced crash loses at most the last
    /// un-synced group — recovery lands exactly on the last sync
    /// watermark.
    #[test]
    fn sync_every_n_loses_at_most_the_last_group(seed in 0u64..100_000) {
        let n_policy = 2 + (seed as usize % 7);
        let ops = 25 + (seed as usize % 35);
        let (_, base, syms) = base_graph(seed);
        let mut d = DurableGraph::create_with(
            FaultyStorage::new(), SNAP, WAL, base, SyncPolicy::EveryN(n_policy),
        ).unwrap();
        let n = GraphView::num_nodes(d.graph());
        let mut rng = Rng(seed ^ 0x5EED);
        let mut states = vec![edge_set(d.graph())];
        for _ in 0..ops {
            let u = NodeId(rng.below(n) as u32);
            let v = NodeId(rng.below(n) as u32);
            let l = syms[rng.below(syms.len())];
            let logged = d.records_since_checkpoint();
            if rng.below(10) < 6 {
                d.insert_edge(u, l, v).unwrap();
            } else {
                d.delete_edge(u, l, v).unwrap();
            }
            if d.records_since_checkpoint() > logged {
                states.push(edge_set(d.graph()));
            }
        }
        let logged = d.records_since_checkpoint();
        let watermark = logged - logged % n_policy;
        let mut storage = d.into_storage();
        storage.crash_drop_unsynced();
        let (d2, report) = DurableGraph::open_with(
            storage, SNAP, WAL, SyncPolicy::EveryN(n_policy),
        ).unwrap();
        prop_assert_eq!(report.replayed, watermark);
        prop_assert!(logged - report.replayed < n_policy, "lost a full group");
        prop_assert_eq!(&edge_set(d2.graph()), &states[watermark]);
    }
}

// ---- D5: the harness's own teeth. Each seeded durability mutant below
// re-creates a classic WAL implementation bug; the crash matrix must
// fail (return Err / recover a wrong state), proving the harness would
// catch the bug in CI. Mirrors the PR 9 `model_mutant_*` pattern. ----

/// Shared scenario for the fsync/rename mutants: mutate, compact, mutate
/// again under `SyncPolicy::Always` on a storage with `plan`, crash with
/// all un-synced bytes dropped, recover, and check the final state
/// survived. Honest storage passes; each mutant must fail.
fn post_crash_state_is_complete(plan: FaultPlan) -> Result<(), String> {
    let seed = 0x3141_5926;
    let (_, base, syms) = base_graph(seed);
    let mut d =
        DurableGraph::create_with(FaultyStorage::new(), SNAP, WAL, base, SyncPolicy::Always)
            .map_err(|e| e.to_string())?;
    // The mutant plan arms *after* an honest init so the scenario tests
    // steady-state durability, not store creation.
    d.storage_mut().set_plan(plan);
    let n = GraphView::num_nodes(d.graph());
    let mut rng = Rng(seed ^ 0xABBA);
    for step in 0..24 {
        let u = NodeId(rng.below(n) as u32);
        let v = NodeId(rng.below(n) as u32);
        let l = syms[rng.below(syms.len())];
        if rng.below(10) < 6 {
            d.insert_edge(u, l, v).map_err(|e| e.to_string())?;
        } else {
            d.delete_edge(u, l, v).map_err(|e| e.to_string())?;
        }
        if step == 11 {
            d.compact().map_err(|e| e.to_string())?;
        }
    }
    let want = edge_set(d.graph());
    let mut storage = d.into_storage();
    storage.crash_drop_unsynced();
    let (d2, _) = DurableGraph::open_with(storage, SNAP, WAL, SyncPolicy::Always)
        .map_err(|e| format!("recovery failed: {e}"))?;
    if edge_set(d2.graph()) != want {
        return Err("completed, fsynced mutations did not survive the crash".to_string());
    }
    Ok(())
}

/// Sanity: the scenario passes on honest storage — so a mutant failing it
/// is the mutant's fault, not the scenario's.
#[test]
fn mutant_scenario_passes_on_honest_storage() {
    post_crash_state_is_complete(FaultPlan::default()).unwrap();
}

/// Skip-the-fsync mutant: `sync` reports success without making bytes
/// durable. The drop-unsynced crash then loses fsynced-and-acknowledged
/// records — the matrix must notice.
#[test]
fn mutant_skip_fsync_is_caught() {
    let err = post_crash_state_is_complete(FaultPlan {
        skip_sync: true,
        ..FaultPlan::default()
    })
    .expect_err("the skip-fsync mutant must fail the crash matrix");
    assert!(err.contains("did not survive"), "{err}");
}

/// Skip-the-rename mutant: the checkpoint's atomic publish rename is
/// silently dropped, so after compaction the snapshot on disk is stale
/// while the WAL was already truncated — recovery silently rolls back to
/// the old checkpoint. The matrix must notice the lost mutations.
#[test]
fn mutant_skip_rename_is_caught() {
    let err = post_crash_state_is_complete(FaultPlan {
        skip_renames_to: Some(SNAP.to_string()),
        ..FaultPlan::default()
    })
    .expect_err("the skip-rename mutant must fail the crash matrix");
    assert!(err.contains("did not survive"), "{err}");
}

/// Skip-the-tail-CRC mutant: recovery accepts the final record without
/// verifying its checksum, so a bit-flipped tail is *applied* instead of
/// dropped — the recovered graph is not a legal prefix. At least one
/// seeded tail flip must be caught by the matrix check.
#[test]
fn mutant_skip_tail_crc_is_caught() {
    let seed = 0x7A1_1C2C;
    let golden = golden_run(seed, 120, POLICY);
    let (q, _, _) = base_graph(seed);
    let frames = frame_boundaries(&golden.wal);
    let (start, end) = (frames[frames.len() - 2], frames[frames.len() - 1]);
    let mutants = DurabilityMutants {
        skip_tail_crc: true,
    };
    let mut caught = 0usize;
    let mut tried = 0usize;
    // Flip every payload bit of the final record in turn; under the
    // mutant the corrupt record is applied and the matrix check (which
    // expects the flip to be dropped) must fail for at least one flip.
    for byte in (start + 4)..(end - 4) {
        for bit in 0..8 {
            let mut img = golden.wal[..end].to_vec();
            img[byte] ^= 1 << bit;
            tried += 1;
            let expected = frames.len() - 3; // tail dropped under honest recovery
            if recover_and_check(&golden, &q, &img, Some(expected), 0, false, mutants).is_err() {
                caught += 1;
            }
        }
    }
    assert!(tried >= 100, "tail record too small to exercise: {tried}");
    assert!(
        caught > tried / 2,
        "the skip-tail-crc mutant evaded the matrix on {caught}/{tried} flips"
    );
    // Control: with honest recovery every one of those flips is tolerated
    // (dropped tail), so the failures above are the mutant's doing.
    for byte in (start + 4)..(end - 4) {
        let mut img = golden.wal[..end].to_vec();
        img[byte] ^= 1;
        recover_and_check(
            &golden,
            &q,
            &img,
            Some(frames.len() - 3),
            0,
            false,
            DurabilityMutants::default(),
        )
        .unwrap_or_else(|e| panic!("honest recovery must tolerate the flipped tail: {e}"));
    }
}

/// D6: catalog rehydration after recovery — a recovered process replays
/// the WAL's label footprint into a warm catalog, evicting exactly the
/// footprint-matching entries, and then answers exactly like a cold
/// catalog.
#[test]
fn recovered_catalog_rebuilds_footprint_correct_state() {
    let mut base = generators::random_graph(10, 30, &["a", "b", "c"], 7);
    let q_ab = parse_crpq("(x, y) <- x -[a b*]-> y", base.alphabet_mut()).unwrap();
    let q_c = parse_crpq("(x, y) <- x -[c c*]-> y", base.alphabet_mut()).unwrap();
    let a = base.alphabet_mut().intern("a");
    let b = base.alphabet_mut().intern("b");

    let mut d =
        DurableGraph::create_with(FaultyStorage::new(), SNAP, WAL, base, SyncPolicy::Always)
            .unwrap();
    // Warm the catalog against the pre-crash state (as a long-lived server
    // would), then churn label `a` through the durable layer and crash.
    let mut catalog = RelationCatalog::new(d.graph());
    Eval::new(&q_ab, d.graph()).catalog(&mut catalog).tuples();
    Eval::new(&q_c, d.graph()).catalog(&mut catalog).tuples();
    let populated = catalog.cached_entries();
    assert!(populated >= 2);

    d.insert_edge(NodeId(0), a, NodeId(9)).unwrap();
    d.insert_edge(NodeId(3), a, NodeId(7)).unwrap();
    d.delete_edge(NodeId(0), a, NodeId(9)).unwrap();
    let mut storage = d.into_storage();
    storage.crash_drop_unsynced();

    let (d2, report) = DurableGraph::open_with(storage, SNAP, WAL, SyncPolicy::Always).unwrap();
    assert_eq!(report.replayed, 3);
    assert_eq!(report.mutated_labels, vec![a], "only `a` was churned");
    assert!(!report.mutated_labels.contains(&b));

    // Rehydrate: exactly the `a`-footprint entry is evicted…
    let evicted = catalog.rehydrate_after_recovery(d2.graph(), &report);
    assert_eq!(evicted, 1, "only the footprint-matching entry goes");
    assert_eq!(catalog.cached_entries(), populated - 1);
    // …the disjoint-footprint entry keeps serving…
    let before = catalog.cached_entries();
    let got_c = Eval::new(&q_c, d2.graph()).catalog(&mut catalog).tuples();
    assert_eq!(catalog.cached_entries(), before, "c-entry must stay warm");
    // …and every answer matches a cold catalog over the recovered graph.
    let mut cold = RelationCatalog::new(d2.graph());
    let got_ab = Eval::new(&q_ab, d2.graph()).catalog(&mut catalog).tuples();
    assert_eq!(
        got_c,
        Eval::new(&q_c, d2.graph()).catalog(&mut cold).tuples()
    );
    assert_eq!(
        got_ab,
        Eval::new(&q_ab, d2.graph()).catalog(&mut cold).tuples()
    );

    // A recovered WAL that grew the node universe forces a full rebind.
    let mut d3 = DurableGraph::create_with(
        FaultyStorage::new(),
        SNAP,
        WAL,
        generators::random_graph(10, 30, &["a", "b", "c"], 7),
        SyncPolicy::Always,
    )
    .unwrap();
    let mut catalog = RelationCatalog::new(d3.graph());
    Eval::new(&q_c, d3.graph()).catalog(&mut catalog).tuples();
    assert!(catalog.cached_entries() >= 1);
    d3.add_node().unwrap();
    let storage = d3.into_storage();
    let (d4, report) = DurableGraph::open_with(storage, SNAP, WAL, SyncPolicy::Always).unwrap();
    assert_eq!(GraphView::num_nodes(d4.graph()), 11);
    catalog.rehydrate_after_recovery(d4.graph(), &report);
    assert_eq!(
        catalog.cached_entries(),
        0,
        "node-universe change must rebind (evict everything)"
    );
    let fresh = Eval::new(&q_c, d4.graph()).catalog(&mut catalog).tuples();
    let mut cold = RelationCatalog::new(d4.graph());
    assert_eq!(
        fresh,
        Eval::new(&q_c, d4.graph()).catalog(&mut cold).tuples()
    );
}

/// Group commit composes with recovery: a batch is one append + one sync,
/// and recovers atomically with the same prefix guarantees.
#[test]
fn group_commit_batches_recover_whole() {
    let seed = 0xBA7C;
    let (_, base, syms) = base_graph(seed);
    let mut d =
        DurableGraph::create_with(FaultyStorage::new(), SNAP, WAL, base, SyncPolicy::Always)
            .unwrap();
    let n = GraphView::num_nodes(d.graph());
    let mut rng = Rng(seed);
    for _ in 0..6 {
        let batch: Vec<EdgeMutation> = (0..8)
            .map(|_| {
                let u = NodeId(rng.below(n) as u32);
                let v = NodeId(rng.below(n) as u32);
                let label = syms[rng.below(syms.len())];
                if rng.below(10) < 6 {
                    EdgeMutation::Insert { u, label, v }
                } else {
                    EdgeMutation::Delete { u, label, v }
                }
            })
            .collect();
        d.apply_batch(&batch).unwrap();
    }
    let want = edge_set(d.graph());
    let logged = d.records_since_checkpoint();
    let mut storage = d.into_storage();
    storage.crash_drop_unsynced();
    let (d2, report) = DurableGraph::open_with(storage, SNAP, WAL, SyncPolicy::Always).unwrap();
    assert_eq!(report.replayed, logged, "whole batches are durable");
    assert_eq!(edge_set(d2.graph()), want);
}
