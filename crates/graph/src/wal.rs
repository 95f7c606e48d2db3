//! Write-ahead log: durability for [`DeltaGraph`] mutations.
//!
//! A [`DurableGraph`] pairs an in-memory [`DeltaGraph`] with two on-disk
//! artifacts behind a [`Storage`] façade:
//!
//! * a **checkpoint** — a binary snapshot v2 ([`crate::format::to_binary`])
//!   of the frozen base, always replaced atomically
//!   (write-temp → fsync → rename);
//! * a **write-ahead log** — an append-only sequence of length-prefixed,
//!   CRC32-checksummed records, one per effective mutation, headed by a
//!   checkpoint marker that binds the log to its snapshot by `(len, crc)`.
//!
//! Every frame on disk is `[payload_len: u32 LE][payload][crc32(payload):
//! u32 LE]`. The CRC reuses the snapshot-v2 checksum
//! (`crate::format::crc32`). Compaction folds the overlay into a new
//! base ([`DeltaGraph::compact_in_place`]), writes the new checkpoint
//! atomically, and truncates the WAL back to a fresh header — the
//! header *is* the compaction marker: a log whose header names a
//! different snapshot generation is a leftover from an interrupted
//! compaction and is discarded on recovery.
//!
//! # Recovery contract
//!
//! [`DurableGraph::open`] loads the checkpoint and replays the log:
//!
//! * **prefix-consistency** — the recovered graph equals the state after
//!   some prefix of the logged mutations, never a subset mix;
//! * **torn-tail tolerance** — a final record that is truncated or fails
//!   its CRC is dropped (a crash mid-append is expected), reported in the
//!   [`RecoveryReport`], and the log is truncated back to the good
//!   prefix. Corruption *before* the final record is a hard
//!   [`WalError`] naming the byte offset — that data was durable, so a
//!   damaged middle means real corruption, not a crash artifact;
//! * **loss bounds by sync policy** — [`SyncPolicy::Always`] loses at
//!   most the in-flight record; [`SyncPolicy::EveryN`] at most the last
//!   un-synced group; [`SyncPolicy::Never`] syncs only at checkpoints.
//!
//! The crash-matrix tests in `tests/durability.rs` enforce all of the
//! above by simulated crashes at every record boundary and sampled
//! mid-record offsets (see `DURABILITY.md`).

use crate::db::{GraphDb, NodeId};
use crate::delta::DeltaGraph;
use crate::format::{crc32, from_binary, to_binary};
use crate::view::GraphView;
use bytes::Bytes;
use crpq_util::storage::{StdStorage, Storage};
use crpq_util::Symbol;
use std::fmt;

/// When the WAL is fsynced relative to mutation appends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyncPolicy {
    /// Sync after every logged record (or batch — group commit makes one
    /// sync cover a whole [`DurableGraph::apply_batch`]).
    Always,
    /// Sync once every `n` logged records.
    EveryN(usize),
    /// Never sync on the mutation path; only checkpoints sync.
    Never,
}

impl fmt::Display for SyncPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SyncPolicy::Always => write!(f, "always"),
            SyncPolicy::EveryN(n) => write!(f, "every:{n}"),
            SyncPolicy::Never => write!(f, "never"),
        }
    }
}

impl SyncPolicy {
    /// Parse the CLI spelling: `always`, `never`, or `every:N`.
    pub fn parse(s: &str) -> Result<SyncPolicy, String> {
        match s {
            "always" => Ok(SyncPolicy::Always),
            "never" => Ok(SyncPolicy::Never),
            _ => {
                let n = s
                    .strip_prefix("every:")
                    .and_then(|n| n.parse::<usize>().ok())
                    .filter(|&n| n > 0)
                    .ok_or_else(|| {
                        format!("bad sync policy `{s}` (expected always | never | every:N)")
                    })?;
                Ok(SyncPolicy::EveryN(n))
            }
        }
    }
}

/// Error from the durability layer. `offset` is the absolute byte offset
/// into the WAL file when the failure is positional (framing/corruption);
/// storage and snapshot errors carry their own context in `message`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalError {
    pub message: String,
    pub offset: Option<usize>,
}

impl fmt::Display for WalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.offset {
            Some(off) => write!(f, "wal error at byte offset {off}: {}", self.message),
            None => write!(f, "durability error: {}", self.message),
        }
    }
}

impl std::error::Error for WalError {}

impl WalError {
    fn io(context: &str, e: &std::io::Error) -> Self {
        WalError {
            message: format!("{context}: {e}"),
            offset: None,
        }
    }

    fn at(offset: usize, message: String) -> Self {
        WalError {
            message,
            offset: Some(offset),
        }
    }
}

/// One logged mutation (or the header marker). The on-disk payload is a
/// tag byte followed by little-endian fields.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalRecord {
    /// Header/compaction marker: binds this log to the snapshot whose
    /// whole-file length and CRC32 are given. Always the first record;
    /// never legal elsewhere.
    Checkpoint {
        snap_len: u64,
        snap_crc: u32,
    },
    InsertEdge {
        u: NodeId,
        label: Symbol,
        v: NodeId,
    },
    DeleteEdge {
        u: NodeId,
        label: Symbol,
        v: NodeId,
    },
    AddNode,
    /// A label newly interned after the checkpoint; `sym` is the id the
    /// replay must reproduce.
    InternLabel {
        sym: Symbol,
        name: String,
    },
}

const TAG_CHECKPOINT: u8 = 0;
const TAG_INSERT: u8 = 1;
const TAG_DELETE: u8 = 2;
const TAG_ADD_NODE: u8 = 3;
const TAG_INTERN_LABEL: u8 = 4;

/// Upper bound on a record payload. Real records are tens of bytes (label
/// names bounded by the interner); a length field beyond this inside a
/// complete frame is corruption, not data.
const MAX_RECORD_LEN: usize = 1 << 20;

fn encode_record_into(buf: &mut Vec<u8>, rec: &WalRecord) {
    let mut payload = Vec::with_capacity(16);
    match rec {
        WalRecord::Checkpoint { snap_len, snap_crc } => {
            payload.push(TAG_CHECKPOINT);
            payload.extend_from_slice(&snap_len.to_le_bytes());
            payload.extend_from_slice(&snap_crc.to_le_bytes());
        }
        WalRecord::InsertEdge { u, label, v } => {
            payload.push(TAG_INSERT);
            payload.extend_from_slice(&u.0.to_le_bytes());
            payload.extend_from_slice(&label.0.to_le_bytes());
            payload.extend_from_slice(&v.0.to_le_bytes());
        }
        WalRecord::DeleteEdge { u, label, v } => {
            payload.push(TAG_DELETE);
            payload.extend_from_slice(&u.0.to_le_bytes());
            payload.extend_from_slice(&label.0.to_le_bytes());
            payload.extend_from_slice(&v.0.to_le_bytes());
        }
        WalRecord::AddNode => payload.push(TAG_ADD_NODE),
        WalRecord::InternLabel { sym, name } => {
            payload.push(TAG_INTERN_LABEL);
            payload.extend_from_slice(&sym.0.to_le_bytes());
            payload.extend_from_slice(name.as_bytes());
        }
    }
    buf.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    let checksum = crc32(&payload);
    buf.extend_from_slice(&payload);
    buf.extend_from_slice(&checksum.to_le_bytes());
}

fn read_u32(b: &[u8]) -> u32 {
    u32::from_le_bytes([b[0], b[1], b[2], b[3]])
}

fn read_u64(b: &[u8]) -> u64 {
    let mut a = [0u8; 8];
    a.copy_from_slice(&b[..8]);
    u64::from_le_bytes(a)
}

fn decode_record(payload: &[u8]) -> Result<WalRecord, String> {
    match payload.first() {
        Some(&TAG_CHECKPOINT) if payload.len() == 13 => Ok(WalRecord::Checkpoint {
            snap_len: read_u64(&payload[1..]),
            snap_crc: read_u32(&payload[9..]),
        }),
        Some(&TAG_INSERT) if payload.len() == 13 => Ok(WalRecord::InsertEdge {
            u: NodeId(read_u32(&payload[1..])),
            label: Symbol(read_u32(&payload[5..])),
            v: NodeId(read_u32(&payload[9..])),
        }),
        Some(&TAG_DELETE) if payload.len() == 13 => Ok(WalRecord::DeleteEdge {
            u: NodeId(read_u32(&payload[1..])),
            label: Symbol(read_u32(&payload[5..])),
            v: NodeId(read_u32(&payload[9..])),
        }),
        Some(&TAG_ADD_NODE) if payload.len() == 1 => Ok(WalRecord::AddNode),
        Some(&TAG_INTERN_LABEL) if payload.len() >= 5 => {
            let name = std::str::from_utf8(&payload[5..])
                .map_err(|_| "label name is not utf-8".to_string())?;
            Ok(WalRecord::InternLabel {
                sym: Symbol(read_u32(&payload[1..])),
                name: name.to_string(),
            })
        }
        Some(&tag) => Err(format!(
            "malformed record (tag {tag}, payload {} bytes)",
            payload.len()
        )),
        None => Err("empty record payload".to_string()),
    }
}

/// Outcome of decoding one frame at a given offset.
enum Frame {
    /// A valid record and the offset one past its frame.
    Record(WalRecord, usize),
    /// The bytes end mid-frame, or the final frame fails its CRC: the
    /// torn-tail case recovery tolerates by dropping it.
    Torn(String),
    /// A complete, durable frame is damaged: a hard error.
    Corrupt(String),
}

/// Does a valid frame chain (structural + CRC) run from `off` exactly to
/// the end of `buf`, with at least one frame?
fn chain_parses(buf: &[u8], mut off: usize) -> bool {
    let mut frames = 0usize;
    while off < buf.len() {
        if buf.len() - off < 8 {
            return false;
        }
        let len = read_u32(&buf[off..]) as usize;
        if len > MAX_RECORD_LEN {
            return false;
        }
        let frame_end = off + 4 + len + 4;
        if frame_end > buf.len() {
            return false;
        }
        let payload = &buf[off + 4..off + 4 + len];
        if read_u32(&buf[off + 4 + len..]) != crc32(payload) || decode_record(payload).is_err() {
            return false;
        }
        frames += 1;
        off = frame_end;
    }
    frames > 0
}

/// How far past a damaged frame to look for a resynchronising frame chain
/// before concluding the damage is the torn tail.
const RESYNC_WINDOW: usize = 1 << 16;

/// Tell torn tail from mid-log corruption at a damaged frame: if any
/// offset shortly after `from` starts a valid frame chain running to the
/// exact end of the log, durable records follow the damage — it is real
/// corruption, not a crash artifact. (CRC32 makes a garbage chain
/// validating by accident a ~2⁻³² event per candidate.)
fn resyncs_after(buf: &[u8], from: usize) -> bool {
    let end = buf.len().min(from + RESYNC_WINDOW);
    (from..end).any(|cand| chain_parses(buf, cand))
}

fn decode_frame(buf: &[u8], off: usize, verify_tail_crc: bool) -> Frame {
    let remaining = buf.len() - off;
    if remaining < 4 {
        return Frame::Torn(format!("truncated length prefix ({remaining} bytes)"));
    }
    let len = read_u32(&buf[off..]) as usize;
    let frame_end = off + 4 + len + 4;
    if frame_end > buf.len() || len > MAX_RECORD_LEN {
        // The claimed extent overruns the log (or is absurd). Either the
        // length field itself was torn mid-write, or a durable length
        // field was corrupted — valid records further on distinguish the
        // two.
        if resyncs_after(buf, off + 1) {
            return Frame::Corrupt(format!(
                "record claims {len}-byte payload but later records parse — corrupted length field"
            ));
        }
        return Frame::Torn(format!(
            "truncated record (claimed {len}-byte payload, {} bytes on disk)",
            buf.len() - off
        ));
    }
    let payload = &buf[off + 4..off + 4 + len];
    let stored = read_u32(&buf[off + 4 + len..]);
    let actual = crc32(payload);
    if stored != actual {
        if resyncs_after(buf, off + 1) {
            return Frame::Corrupt(format!(
                "record checksum mismatch ({actual:#010x} vs stored {stored:#010x})"
            ));
        }
        // No durable record follows: this frame is the (bit-flipped or
        // torn) tail.
        if verify_tail_crc {
            return Frame::Torn(format!(
                "final record checksum mismatch ({actual:#010x} vs stored {stored:#010x})"
            ));
        }
        // Seeded durability mutant (tests only): accept the tail frame
        // without its checksum. The crash matrix must catch this.
    }
    match decode_record(payload) {
        Ok(rec) => Frame::Record(rec, frame_end),
        Err(m) => Frame::Corrupt(m),
    }
}

/// Frame-start offsets of every complete, checksum-valid record in
/// `wal_bytes`, plus the end offset of the good prefix as a final entry.
/// Test-harness surface for crash-point enumeration.
pub fn frame_boundaries(wal_bytes: &[u8]) -> Vec<usize> {
    let mut offs = vec![0];
    let mut off = 0;
    while off < wal_bytes.len() {
        match decode_frame(wal_bytes, off, true) {
            Frame::Record(_, next) => {
                offs.push(next);
                off = next;
            }
            _ => break,
        }
    }
    offs
}

/// What recovery found and did. Returned by [`DurableGraph::open`].
#[derive(Debug, Clone, Default)]
pub struct RecoveryReport {
    /// Mutation records replayed onto the checkpoint.
    pub replayed: usize,
    /// A torn final record that was dropped (offset + reason), if any.
    pub dropped_tail: Option<DroppedTail>,
    /// The WAL header named a different snapshot generation (interrupted
    /// compaction); the log was discarded as superseded.
    pub stale_wal: bool,
    /// No WAL existed; a fresh one was written.
    pub fresh_wal: bool,
    /// Labels whose relations were touched by replayed mutations —
    /// the catalog-invalidation set a recovered process must apply
    /// (sorted, deduped).
    pub mutated_labels: Vec<Symbol>,
    /// Length of the good WAL prefix in bytes after recovery.
    pub good_wal_bytes: usize,
}

/// A dropped torn tail: where the good prefix ends and why the rest was
/// discarded.
#[derive(Debug, Clone)]
pub struct DroppedTail {
    pub offset: usize,
    pub reason: String,
}

/// Seeded recovery mutants for the crash-matrix harness (tests only):
/// each deliberately weakens recovery, and `tests/durability.rs` asserts
/// the matrix catches it.
#[doc(hidden)]
#[derive(Debug, Clone, Copy, Default)]
pub struct DurabilityMutants {
    /// Skip the CRC check on the final WAL record.
    pub skip_tail_crc: bool,
}

/// An edge mutation for [`DurableGraph::apply_batch`] group commit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EdgeMutation {
    Insert { u: NodeId, label: Symbol, v: NodeId },
    Delete { u: NodeId, label: Symbol, v: NodeId },
}

/// A [`DeltaGraph`] whose mutations survive crashes: every effective
/// mutation is logged to a checksummed WAL before the call returns, and
/// [`open`](Self::open) rebuilds the exact pre-crash state (minus at most
/// the sync-policy loss bound) from checkpoint + log.
pub struct DurableGraph<S: Storage> {
    graph: DeltaGraph,
    storage: S,
    snapshot_path: String,
    wal_path: String,
    policy: SyncPolicy,
    /// Records appended since the last WAL sync.
    unsynced: usize,
    /// Mutation records in the log since the last checkpoint.
    records: usize,
}

impl DurableGraph<StdStorage> {
    /// [`Self::create_with`] over the real filesystem.
    pub fn create(
        snapshot_path: &str,
        wal_path: &str,
        base: GraphDb,
        policy: SyncPolicy,
    ) -> Result<Self, WalError> {
        Self::create_with(StdStorage::new(), snapshot_path, wal_path, base, policy)
    }

    /// [`Self::open_with`] over the real filesystem.
    pub fn open(
        snapshot_path: &str,
        wal_path: &str,
        policy: SyncPolicy,
    ) -> Result<(Self, RecoveryReport), WalError> {
        Self::open_with(StdStorage::new(), snapshot_path, wal_path, policy)
    }
}

impl<S: Storage> DurableGraph<S> {
    /// Initialise a durable store: writes the checkpoint snapshot of
    /// `base` (atomically) and a fresh WAL headed by its marker.
    pub fn create_with(
        storage: S,
        snapshot_path: &str,
        wal_path: &str,
        base: GraphDb,
        policy: SyncPolicy,
    ) -> Result<Self, WalError> {
        let mut s = DurableGraph {
            graph: DeltaGraph::new(base),
            storage,
            snapshot_path: snapshot_path.to_string(),
            wal_path: wal_path.to_string(),
            policy,
            unsynced: 0,
            records: 0,
        };
        s.write_checkpoint()?;
        Ok(s)
    }

    /// Load the checkpoint and replay the WAL (see the module docs for
    /// the recovery contract). Side effects on disk: a torn tail is
    /// truncated away; a stale or missing WAL is replaced by a fresh one.
    pub fn open_with(
        storage: S,
        snapshot_path: &str,
        wal_path: &str,
        policy: SyncPolicy,
    ) -> Result<(Self, RecoveryReport), WalError> {
        Self::open_with_mutants(
            storage,
            snapshot_path,
            wal_path,
            policy,
            DurabilityMutants::default(),
        )
    }

    /// [`Self::open_with`] with seeded recovery mutants — test harness
    /// only; see [`DurabilityMutants`].
    #[doc(hidden)]
    pub fn open_with_mutants(
        mut storage: S,
        snapshot_path: &str,
        wal_path: &str,
        policy: SyncPolicy,
        mutants: DurabilityMutants,
    ) -> Result<(Self, RecoveryReport), WalError> {
        let snap_bytes = storage
            .read(snapshot_path)
            .map_err(|e| WalError::io(&format!("cannot read snapshot `{snapshot_path}`"), &e))?;
        let base = from_binary(Bytes::from(snap_bytes.clone())).map_err(|e| WalError {
            message: format!("snapshot `{snapshot_path}`: {e}"),
            offset: None,
        })?;
        let snap_len = snap_bytes.len() as u64;
        let snap_crc = crc32(&snap_bytes);
        let mut s = DurableGraph {
            graph: DeltaGraph::new(base),
            storage,
            snapshot_path: snapshot_path.to_string(),
            wal_path: wal_path.to_string(),
            policy,
            unsynced: 0,
            records: 0,
        };
        let mut report = RecoveryReport::default();

        if !s.storage.exists(&s.wal_path) {
            s.reset_wal(snap_len, snap_crc)?;
            report.fresh_wal = true;
            report.good_wal_bytes = s.wal_header_len();
            return Ok((s, report));
        }
        let wal_bytes = s
            .storage
            .read(&s.wal_path)
            .map_err(|e| WalError::io(&format!("cannot read wal `{}`", s.wal_path), &e))?;

        // Header: the checkpoint marker binding the log to the snapshot.
        let mut off = match decode_frame(&wal_bytes, 0, !mutants.skip_tail_crc) {
            Frame::Record(
                WalRecord::Checkpoint {
                    snap_len: l,
                    snap_crc: c,
                },
                next,
            ) => {
                if l != snap_len || c != snap_crc {
                    // Interrupted compaction: the snapshot moved on but the
                    // WAL reset never landed. Everything in this log is
                    // already folded into the newer snapshot.
                    s.reset_wal(snap_len, snap_crc)?;
                    report.stale_wal = true;
                    report.good_wal_bytes = s.wal_header_len();
                    return Ok((s, report));
                }
                next
            }
            Frame::Record(_, _) => {
                return Err(WalError::at(
                    0,
                    "first WAL record is not a checkpoint header".to_string(),
                ));
            }
            Frame::Torn(reason) => {
                // Crash during the initial WAL reset: no mutation can have
                // been logged against this header. Start fresh.
                s.reset_wal(snap_len, snap_crc)?;
                report.dropped_tail = Some(DroppedTail { offset: 0, reason });
                report.good_wal_bytes = s.wal_header_len();
                return Ok((s, report));
            }
            Frame::Corrupt(reason) => return Err(WalError::at(0, reason)),
        };

        // Replay, tolerating only a torn tail.
        while off < wal_bytes.len() {
            match decode_frame(&wal_bytes, off, !mutants.skip_tail_crc) {
                Frame::Record(rec, next) => {
                    s.replay(rec, off, &mut report)?;
                    off = next;
                }
                Frame::Torn(reason) => {
                    s.storage
                        .truncate(&s.wal_path, off as u64)
                        .map_err(|e| WalError::io("cannot truncate torn wal tail", &e))?;
                    s.storage
                        .sync(&s.wal_path)
                        .map_err(|e| WalError::io("cannot sync truncated wal", &e))?;
                    report.dropped_tail = Some(DroppedTail {
                        offset: off,
                        reason,
                    });
                    break;
                }
                Frame::Corrupt(reason) => return Err(WalError::at(off, reason)),
            }
        }
        report.good_wal_bytes = off;
        report.mutated_labels.sort_unstable_by_key(|s| s.0);
        report.mutated_labels.dedup();
        s.records = report.replayed;
        Ok((s, report))
    }

    /// Apply one replayed record, validating ids against the current state
    /// so corrupt-but-checksum-valid data surfaces as an error, never a
    /// panic.
    fn replay(
        &mut self,
        rec: WalRecord,
        off: usize,
        report: &mut RecoveryReport,
    ) -> Result<(), WalError> {
        let n = self.graph.num_nodes();
        let n_labels = self.graph.base().alphabet().len();
        let check_edge = |u: NodeId, label: Symbol, v: NodeId| -> Result<(), WalError> {
            if u.index() >= n || v.index() >= n {
                return Err(WalError::at(
                    off,
                    format!("edge endpoint out of range ({u:?}, {v:?} vs {n} nodes)"),
                ));
            }
            if label.0 as usize >= n_labels {
                return Err(WalError::at(
                    off,
                    format!("edge label {} out of range ({n_labels} labels)", label.0),
                ));
            }
            Ok(())
        };
        match rec {
            WalRecord::InsertEdge { u, label, v } => {
                check_edge(u, label, v)?;
                self.graph.insert_edge(u, label, v);
                report.mutated_labels.push(label);
                report.replayed += 1;
            }
            WalRecord::DeleteEdge { u, label, v } => {
                check_edge(u, label, v)?;
                self.graph.delete_edge(u, label, v);
                report.mutated_labels.push(label);
                report.replayed += 1;
            }
            WalRecord::AddNode => {
                self.graph.add_node();
                report.replayed += 1;
            }
            WalRecord::InternLabel { sym, name } => {
                let len = self.graph.base().alphabet().len();
                if sym.0 as usize == len {
                    let got = self.graph.label(&name);
                    debug_assert_eq!(got, sym);
                } else if (sym.0 as usize) < len
                    && self.graph.base().alphabet().resolve(sym) == name
                {
                    // Already present (same id): replay is a no-op.
                } else {
                    return Err(WalError::at(
                        off,
                        format!("label record `{name}` maps to id {} out of order", sym.0),
                    ));
                }
                report.replayed += 1;
            }
            WalRecord::Checkpoint { .. } => {
                return Err(WalError::at(
                    off,
                    "checkpoint marker in the middle of the log".to_string(),
                ));
            }
        }
        Ok(())
    }

    /// The live graph (read-only: all mutations go through `self` so they
    /// are logged).
    pub fn graph(&self) -> &DeltaGraph {
        &self.graph
    }

    pub fn policy(&self) -> SyncPolicy {
        self.policy
    }

    pub fn set_policy(&mut self, policy: SyncPolicy) {
        self.policy = policy;
    }

    /// Mutation records logged since the last checkpoint.
    pub fn records_since_checkpoint(&self) -> usize {
        self.records
    }

    /// Reconfigure the in-memory overlay's compaction budget.
    pub fn set_compact_threshold(&mut self, threshold: usize) {
        self.graph.set_compact_threshold(threshold);
    }

    /// Fault-injection seam: the harness reaches through to the storage to
    /// schedule crashes and inspect durable bytes.
    pub fn storage_mut(&mut self) -> &mut S {
        &mut self.storage
    }

    /// Consume `self`, handing the storage back (a "crashed process"
    /// leaves only its disk behind; reopen with [`Self::open_with`]).
    pub fn into_storage(self) -> S {
        self.storage
    }

    /// Validate ids so a bad call surfaces as an error, not the
    /// `DeltaGraph` panic.
    fn check_ids(&self, u: NodeId, v: NodeId, label: Symbol) -> Result<(), WalError> {
        let n = self.graph.num_nodes();
        if u.index() >= n || v.index() >= n {
            return Err(WalError {
                message: format!("edge endpoint out of range ({u:?}, {v:?} vs {n} nodes)"),
                offset: None,
            });
        }
        if label.0 as usize >= self.graph.base().alphabet().len() {
            return Err(WalError {
                message: format!("unknown label id {}", label.0),
                offset: None,
            });
        }
        Ok(())
    }

    /// Insert an edge; logs iff the graph changed. Returns the change flag.
    pub fn insert_edge(&mut self, u: NodeId, label: Symbol, v: NodeId) -> Result<bool, WalError> {
        self.check_ids(u, v, label)?;
        if !self.graph.insert_edge(u, label, v) {
            return Ok(false);
        }
        self.log_one(&WalRecord::InsertEdge { u, label, v })?;
        Ok(true)
    }

    /// Delete an edge; logs iff the graph changed. Returns the change flag.
    pub fn delete_edge(&mut self, u: NodeId, label: Symbol, v: NodeId) -> Result<bool, WalError> {
        self.check_ids(u, v, label)?;
        if !self.graph.delete_edge(u, label, v) {
            return Ok(false);
        }
        self.log_one(&WalRecord::DeleteEdge { u, label, v })?;
        Ok(true)
    }

    /// Append a fresh node.
    pub fn add_node(&mut self) -> Result<NodeId, WalError> {
        let id = self.graph.add_node();
        self.log_one(&WalRecord::AddNode)?;
        Ok(id)
    }

    /// Intern a label; logs only when the label is new.
    pub fn label(&mut self, name: &str) -> Result<Symbol, WalError> {
        if let Some(sym) = self.graph.base().alphabet().get(name) {
            return Ok(sym);
        }
        let sym = self.graph.label(name);
        self.log_one(&WalRecord::InternLabel {
            sym,
            name: name.to_string(),
        })?;
        Ok(sym)
    }

    /// Group commit: apply a batch of edge mutations, append all their
    /// records as one write, and sync (per policy) once for the whole
    /// batch. Returns how many mutations changed the graph.
    pub fn apply_batch(&mut self, batch: &[EdgeMutation]) -> Result<usize, WalError> {
        let mut buf = Vec::with_capacity(batch.len() * 21);
        let mut changed = 0usize;
        for m in batch {
            match *m {
                EdgeMutation::Insert { u, label, v } => {
                    self.check_ids(u, v, label)?;
                    if self.graph.insert_edge(u, label, v) {
                        encode_record_into(&mut buf, &WalRecord::InsertEdge { u, label, v });
                        changed += 1;
                    }
                }
                EdgeMutation::Delete { u, label, v } => {
                    self.check_ids(u, v, label)?;
                    if self.graph.delete_edge(u, label, v) {
                        encode_record_into(&mut buf, &WalRecord::DeleteEdge { u, label, v });
                        changed += 1;
                    }
                }
            }
        }
        if changed > 0 {
            self.storage
                .append(&self.wal_path, &buf)
                .map_err(|e| WalError::io("wal append failed", &e))?;
            self.records += changed;
            self.unsynced += changed;
            self.policy_sync()?;
        }
        Ok(changed)
    }

    fn log_one(&mut self, rec: &WalRecord) -> Result<(), WalError> {
        let mut buf = Vec::with_capacity(32);
        encode_record_into(&mut buf, rec);
        self.storage
            .append(&self.wal_path, &buf)
            .map_err(|e| WalError::io("wal append failed", &e))?;
        self.records += 1;
        self.unsynced += 1;
        self.policy_sync()
    }

    fn policy_sync(&mut self) -> Result<(), WalError> {
        let due = match self.policy {
            SyncPolicy::Always => self.unsynced > 0,
            SyncPolicy::EveryN(n) => self.unsynced >= n,
            SyncPolicy::Never => false,
        };
        if due {
            self.sync_wal()?;
        }
        Ok(())
    }

    /// Force the log durable regardless of policy.
    pub fn sync_wal(&mut self) -> Result<(), WalError> {
        self.storage
            .sync(&self.wal_path)
            .map_err(|e| WalError::io("wal sync failed", &e))?;
        self.unsynced = 0;
        Ok(())
    }

    /// Fold the overlay into a new checkpoint and truncate the WAL.
    /// Crash-safe at every step: the snapshot is replaced atomically, and
    /// until the WAL reset lands the old log stays replayable (a new
    /// snapshot with the old log is detected as stale by the header
    /// marker and discarded — its mutations are all inside the new
    /// snapshot).
    pub fn compact(&mut self) -> Result<(), WalError> {
        self.graph.compact_in_place();
        self.write_checkpoint()
    }

    /// [`Self::compact`] iff the overlay passed its mutation budget.
    pub fn maybe_compact(&mut self) -> Result<bool, WalError> {
        if self.graph.should_compact() {
            self.compact()?;
            return Ok(true);
        }
        Ok(false)
    }

    fn write_checkpoint(&mut self) -> Result<(), WalError> {
        debug_assert!(
            self.graph.delta().is_empty(),
            "checkpoint with a non-empty overlay"
        );
        let bytes = to_binary(self.graph.base());
        let tmp = format!("{}.tmp", self.snapshot_path);
        self.storage
            .write(&tmp, &bytes)
            .map_err(|e| WalError::io("cannot write checkpoint temp", &e))?;
        self.storage
            .sync(&tmp)
            .map_err(|e| WalError::io("cannot sync checkpoint temp", &e))?;
        self.storage
            .rename(&tmp, &self.snapshot_path)
            .map_err(|e| WalError::io("cannot publish checkpoint", &e))?;
        self.reset_wal(bytes.len() as u64, crc32(&bytes))
    }

    /// Replace the WAL with a fresh one holding only the checkpoint
    /// marker for the given snapshot generation — atomically, so a crash
    /// leaves either the old log (still replayable or stale-detected) or
    /// the new one.
    fn reset_wal(&mut self, snap_len: u64, snap_crc: u32) -> Result<(), WalError> {
        let mut buf = Vec::with_capacity(32);
        encode_record_into(&mut buf, &WalRecord::Checkpoint { snap_len, snap_crc });
        let tmp = format!("{}.tmp", self.wal_path);
        self.storage
            .write(&tmp, &buf)
            .map_err(|e| WalError::io("cannot write wal temp", &e))?;
        self.storage
            .sync(&tmp)
            .map_err(|e| WalError::io("cannot sync wal temp", &e))?;
        self.storage
            .rename(&tmp, &self.wal_path)
            .map_err(|e| WalError::io("cannot publish wal", &e))?;
        self.unsynced = 0;
        self.records = 0;
        Ok(())
    }

    /// Byte length of a bare header frame (4 len + 13 payload + 4 crc).
    fn wal_header_len(&self) -> usize {
        21
    }
}

impl DeltaGraph {
    /// Open a durable dynamic graph on the real filesystem: load the
    /// checkpoint at `snapshot_path`, replay `wal_path` (see the
    /// [`crate::wal`] module docs for the recovery contract), and return
    /// the [`DurableGraph`] handle plus what recovery found.
    pub fn open(
        snapshot_path: &str,
        wal_path: &str,
        policy: SyncPolicy,
    ) -> Result<(DurableGraph<StdStorage>, RecoveryReport), WalError> {
        DurableGraph::open(snapshot_path, wal_path, policy)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::db::GraphBuilder;
    use crpq_util::storage::FaultyStorage;

    fn small_base() -> GraphDb {
        let mut b = GraphBuilder::anonymous(4);
        let a = b.label("a");
        b.edge_ids(NodeId(0), a, NodeId(1));
        b.edge_ids(NodeId(1), a, NodeId(2));
        b.finish()
    }

    fn edge_set(g: &DeltaGraph) -> Vec<(u32, u32, u32)> {
        let mut out = Vec::new();
        for v in 0..g.num_nodes() {
            let v = NodeId(v as u32);
            for (l, t) in g.out_edges_iter(v) {
                out.push((v.0, l.0, t.0));
            }
        }
        out.sort_unstable();
        out
    }

    #[test]
    fn record_round_trip() {
        let records = vec![
            WalRecord::Checkpoint {
                snap_len: 123,
                snap_crc: 0xDEAD_BEEF,
            },
            WalRecord::InsertEdge {
                u: NodeId(7),
                label: Symbol(1),
                v: NodeId(9),
            },
            WalRecord::DeleteEdge {
                u: NodeId(0),
                label: Symbol(0),
                v: NodeId(1),
            },
            WalRecord::AddNode,
            WalRecord::InternLabel {
                sym: Symbol(3),
                name: "höp".to_string(),
            },
        ];
        let mut buf = Vec::new();
        for r in &records {
            encode_record_into(&mut buf, r);
        }
        let mut off = 0;
        for expected in &records {
            match decode_frame(&buf, off, true) {
                Frame::Record(rec, next) => {
                    assert_eq!(&rec, expected);
                    off = next;
                }
                _ => panic!("frame at {off} failed to decode"),
            }
        }
        assert_eq!(off, buf.len());
        assert_eq!(frame_boundaries(&buf).len(), records.len() + 1);
    }

    #[test]
    fn create_mutate_reopen_round_trip() {
        let mut d = DurableGraph::create_with(
            FaultyStorage::new(),
            "snap",
            "wal",
            small_base(),
            SyncPolicy::Always,
        )
        .unwrap();
        let a = d.label("a").unwrap();
        let b = d.label("b").unwrap();
        assert!(d.insert_edge(NodeId(2), a, NodeId(3)).unwrap());
        assert!(!d.insert_edge(NodeId(2), a, NodeId(3)).unwrap(), "no-op");
        assert!(d.delete_edge(NodeId(0), a, NodeId(1)).unwrap());
        let n = d.add_node().unwrap();
        assert!(d.insert_edge(n, b, NodeId(0)).unwrap());
        let want = edge_set(d.graph());
        assert_eq!(d.records_since_checkpoint(), 5); // b + 2 ins + 1 del + node
        let storage = d.into_storage();
        let (d2, report) =
            DurableGraph::open_with(storage, "snap", "wal", SyncPolicy::Always).unwrap();
        assert_eq!(edge_set(d2.graph()), want);
        assert_eq!(report.replayed, 5);
        assert!(report.dropped_tail.is_none());
        assert!(!report.stale_wal);
        assert_eq!(report.mutated_labels.len(), 2, "a and b were churned");
    }

    #[test]
    fn unsynced_tail_is_lost_and_torn_tail_dropped() {
        let mut d = DurableGraph::create_with(
            FaultyStorage::new(),
            "snap",
            "wal",
            small_base(),
            SyncPolicy::Never,
        )
        .unwrap();
        let a = d.graph().base().alphabet().get("a").unwrap();
        d.insert_edge(NodeId(0), a, NodeId(2)).unwrap();
        d.insert_edge(NodeId(0), a, NodeId(3)).unwrap();
        let mut storage = d.into_storage();
        // Nothing synced since the header: a drop-unsynced crash loses both.
        storage.crash_drop_unsynced();
        let (d2, report) =
            DurableGraph::open_with(storage, "snap", "wal", SyncPolicy::Never).unwrap();
        assert_eq!(report.replayed, 0);
        assert_eq!(edge_set(d2.graph()).len(), 2, "base edges only");

        // Torn write: half a record survives; recovery drops it and reports
        // the offset.
        let mut d = DurableGraph::create_with(
            FaultyStorage::new(),
            "snap",
            "wal",
            small_base(),
            SyncPolicy::Always,
        )
        .unwrap();
        d.insert_edge(NodeId(0), a, NodeId(2)).unwrap();
        let mut storage = d.into_storage();
        let wal_len = storage.written_len("wal");
        storage.truncate_to("wal", wal_len - 3);
        let (d2, report) =
            DurableGraph::open_with(storage, "snap", "wal", SyncPolicy::Always).unwrap();
        assert_eq!(report.replayed, 0);
        let tail = report.dropped_tail.expect("torn tail reported");
        assert_eq!(tail.offset, 21, "tail starts right after the header");
        assert_eq!(edge_set(d2.graph()).len(), 2);
        // The torn bytes were truncated away on disk.
        let mut storage = d2.into_storage();
        assert_eq!(storage.read("wal").unwrap().len(), 21);
    }

    #[test]
    fn mid_log_corruption_is_a_hard_error_with_offset() {
        let mut d = DurableGraph::create_with(
            FaultyStorage::new(),
            "snap",
            "wal",
            small_base(),
            SyncPolicy::Always,
        )
        .unwrap();
        let a = d.graph().base().alphabet().get("a").unwrap();
        d.insert_edge(NodeId(0), a, NodeId(2)).unwrap();
        d.insert_edge(NodeId(0), a, NodeId(3)).unwrap();
        let mut storage = d.into_storage();
        // Flip a payload bit of the FIRST mutation record (offset 21's
        // payload starts at 25) — not the tail, so this is durable data
        // gone bad.
        storage.flip_bit("wal", 26, 0);
        let err = match DurableGraph::open_with(storage, "snap", "wal", SyncPolicy::Always) {
            Err(e) => e,
            Ok(_) => panic!("mid-log corruption must be a hard error"),
        };
        assert_eq!(err.offset, Some(21));
        assert!(err.to_string().contains("byte offset 21"), "{err}");
        assert!(err.message.contains("checksum"), "{err}");
    }

    #[test]
    fn compaction_truncates_wal_and_survives_reopen() {
        let mut d = DurableGraph::create_with(
            FaultyStorage::new(),
            "snap",
            "wal",
            small_base(),
            SyncPolicy::Always,
        )
        .unwrap();
        let a = d.graph().base().alphabet().get("a").unwrap();
        d.insert_edge(NodeId(0), a, NodeId(2)).unwrap();
        d.insert_edge(NodeId(2), a, NodeId(3)).unwrap();
        d.delete_edge(NodeId(0), a, NodeId(1)).unwrap();
        let want = edge_set(d.graph());
        d.compact().unwrap();
        assert_eq!(d.records_since_checkpoint(), 0);
        assert!(d.graph().delta().is_empty());
        let mut storage = d.into_storage();
        assert_eq!(storage.read("wal").unwrap().len(), 21, "bare header");
        let (d2, report) =
            DurableGraph::open_with(storage, "snap", "wal", SyncPolicy::Always).unwrap();
        assert_eq!(report.replayed, 0);
        assert!(!report.stale_wal);
        assert_eq!(edge_set(d2.graph()), want);
    }

    #[test]
    fn stale_wal_from_interrupted_compaction_is_discarded() {
        // Simulate: snapshot advanced, WAL reset never landed. The old WAL
        // must be detected stale (its mutations live inside the new
        // snapshot) and discarded, not replayed on top.
        let mut d = DurableGraph::create_with(
            FaultyStorage::new(),
            "snap",
            "wal",
            small_base(),
            SyncPolicy::Always,
        )
        .unwrap();
        let a = d.graph().base().alphabet().get("a").unwrap();
        d.insert_edge(NodeId(0), a, NodeId(2)).unwrap();
        let want = edge_set(d.graph());
        let old_wal = d.storage_mut().read("wal").unwrap();
        d.compact().unwrap();
        let mut storage = d.into_storage();
        // Put the pre-compaction WAL back: exactly the interrupted state.
        storage.install("wal", &old_wal);
        let (d2, report) =
            DurableGraph::open_with(storage, "snap", "wal", SyncPolicy::Always).unwrap();
        assert!(report.stale_wal);
        assert_eq!(report.replayed, 0);
        assert_eq!(edge_set(d2.graph()), want);
    }

    #[test]
    fn group_commit_batch_is_one_sync() {
        let mut d = DurableGraph::create_with(
            FaultyStorage::new(),
            "snap",
            "wal",
            small_base(),
            SyncPolicy::Always,
        )
        .unwrap();
        let a = d.graph().base().alphabet().get("a").unwrap();
        let ops_before = d.storage_mut().ops();
        let batch = vec![
            EdgeMutation::Insert {
                u: NodeId(0),
                label: a,
                v: NodeId(2),
            },
            EdgeMutation::Insert {
                u: NodeId(0),
                label: a,
                v: NodeId(3),
            },
            EdgeMutation::Insert {
                u: NodeId(0),
                label: a,
                v: NodeId(1),
            }, // no-op: exists in base
            EdgeMutation::Delete {
                u: NodeId(1),
                label: a,
                v: NodeId(2),
            },
        ];
        let changed = d.apply_batch(&batch).unwrap();
        assert_eq!(changed, 3);
        // One append + one sync for the whole batch.
        assert_eq!(d.storage_mut().ops() - ops_before, 2);
        let storage = d.into_storage();
        let (_, report) =
            DurableGraph::open_with(storage, "snap", "wal", SyncPolicy::Always).unwrap();
        assert_eq!(report.replayed, 3);
    }

    #[test]
    fn out_of_range_ids_error_instead_of_panicking() {
        let mut d = DurableGraph::create_with(
            FaultyStorage::new(),
            "snap",
            "wal",
            small_base(),
            SyncPolicy::Always,
        )
        .unwrap();
        let a = d.graph().base().alphabet().get("a").unwrap();
        assert!(d.insert_edge(NodeId(99), a, NodeId(0)).is_err());
        assert!(d.delete_edge(NodeId(0), Symbol(42), NodeId(1)).is_err());
    }

    #[test]
    fn sync_policy_parses() {
        assert_eq!(SyncPolicy::parse("always").unwrap(), SyncPolicy::Always);
        assert_eq!(SyncPolicy::parse("never").unwrap(), SyncPolicy::Never);
        assert_eq!(
            SyncPolicy::parse("every:64").unwrap(),
            SyncPolicy::EveryN(64)
        );
        assert!(SyncPolicy::parse("every:0").is_err());
        assert!(SyncPolicy::parse("sometimes").is_err());
    }
}
