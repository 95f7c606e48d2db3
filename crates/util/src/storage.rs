//! Storage façade: the only door to the filesystem for durable state.
//!
//! Library code that persists anything (snapshots, write-ahead logs) goes
//! through the [`Storage`] trait instead of `std::fs`, so the exact same
//! code path can run against [`StdStorage`] in production and against
//! [`FaultyStorage`] — a deterministic in-memory shadow that models
//! crashes at byte/record granularity, drops un-synced writes, flips
//! bits, and skips fsyncs/renames on demand — in the crash-matrix tests.
//! `cargo xtask lint` enforces the façade (no direct `std::fs` in library
//! code outside this module and the shims).
//!
//! The durability model `FaultyStorage` implements is the conventional
//! POSIX one:
//!
//! - `append`/`write` data is *volatile* until a `sync` on that path
//!   returns; a crash may retain any prefix of the un-synced suffix
//!   (torn write) or none of it.
//! - `sync` makes all bytes currently written to the path durable.
//! - `rename` is atomic (readers see the old file or the new file, never
//!   a mix) and, in this model, immediately durable.
//!
//! All fault schedules are seeded/explicit — no ambient entropy — so
//! every failure reproduces from its seed.

use std::collections::BTreeMap;
use std::io;

/// Minimal filesystem surface needed by the durability layer.
///
/// Paths are plain strings (the callers own their layout conventions).
/// Methods take `&mut self` so fault-injecting implementations can keep
/// per-call state without interior mutability.
pub trait Storage {
    /// Read the entire contents of `path`.
    fn read(&mut self, path: &str) -> io::Result<Vec<u8>>;
    /// Does `path` currently exist?
    fn exists(&mut self, path: &str) -> bool;
    /// Create-or-truncate `path` with `data` (not yet durable — see `sync`).
    fn write(&mut self, path: &str, data: &[u8]) -> io::Result<()>;
    /// Append `data` to `path`, creating it if absent (not yet durable).
    fn append(&mut self, path: &str, data: &[u8]) -> io::Result<()>;
    /// Make all bytes written so far to `path` durable.
    fn sync(&mut self, path: &str) -> io::Result<()>;
    /// Atomically replace `to` with `from`.
    fn rename(&mut self, from: &str, to: &str) -> io::Result<()>;
    /// Truncate `path` to `len` bytes.
    fn truncate(&mut self, path: &str, len: u64) -> io::Result<()>;
    /// Remove `path` (ok if absent).
    fn remove(&mut self, path: &str) -> io::Result<()>;
}

/// Real-filesystem implementation of [`Storage`].
///
/// Keeps an append handle open per path so a WAL append is one `write(2)`
/// rather than open+write+close; any non-append operation on a path drops
/// its cached handle first so the handle never aliases a renamed or
/// truncated file.
#[derive(Default)]
pub struct StdStorage {
    append_handles: BTreeMap<String, std::fs::File>,
}

impl StdStorage {
    pub fn new() -> Self {
        Self::default()
    }

    fn drop_handle(&mut self, path: &str) {
        self.append_handles.remove(path);
    }
}

impl Storage for StdStorage {
    fn read(&mut self, path: &str) -> io::Result<Vec<u8>> {
        std::fs::read(path)
    }

    fn exists(&mut self, path: &str) -> bool {
        std::path::Path::new(path).exists()
    }

    fn write(&mut self, path: &str, data: &[u8]) -> io::Result<()> {
        self.drop_handle(path);
        std::fs::write(path, data)
    }

    fn append(&mut self, path: &str, data: &[u8]) -> io::Result<()> {
        use std::io::Write;
        if !self.append_handles.contains_key(path) {
            let file = std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(path)?;
            self.append_handles.insert(path.to_string(), file);
        }
        let file = self
            .append_handles
            .get_mut(path)
            .expect("append handle just inserted"); // invariant: inserted above
        file.write_all(data)
    }

    fn sync(&mut self, path: &str) -> io::Result<()> {
        if let Some(file) = self.append_handles.get_mut(path) {
            return file.sync_data();
        }
        // No cached handle: open read-only just to fsync (e.g. after a
        // fresh `write` + `rename` sequence).
        match std::fs::File::open(path) {
            Ok(f) => f.sync_data(),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(e),
        }
    }

    fn rename(&mut self, from: &str, to: &str) -> io::Result<()> {
        self.drop_handle(from);
        self.drop_handle(to);
        std::fs::rename(from, to)
    }

    fn truncate(&mut self, path: &str, len: u64) -> io::Result<()> {
        self.drop_handle(path);
        let file = std::fs::OpenOptions::new().write(true).open(path)?;
        file.set_len(len)
    }

    fn remove(&mut self, path: &str) -> io::Result<()> {
        self.drop_handle(path);
        match std::fs::remove_file(path) {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(e),
        }
    }
}

/// One in-memory file: full written image plus the durable watermark.
#[derive(Clone, Debug, Default)]
struct FaultFile {
    data: Vec<u8>,
    /// Bytes guaranteed to survive a crash (`data[..synced]`).
    synced: usize,
}

/// Deterministic fault plan for [`FaultyStorage`].
///
/// All fields default to "no fault". The `skip_*` knobs exist to *seed
/// durability mutants* — deliberately broken storage whose corruption the
/// crash-matrix harness must catch (see `tests/durability.rs`).
#[derive(Clone, Debug, Default)]
pub struct FaultPlan {
    /// Inject a crash once this many mutating storage ops have completed.
    /// The op that trips the budget fails with [`INJECTED_CRASH`]; every
    /// later mutating op fails too until [`FaultyStorage::restart`].
    pub crash_after_ops: Option<u64>,
    /// Inject a crash once this many bytes have been appended across all
    /// paths. The append that trips the budget writes only the allowed
    /// prefix (a torn write) and fails.
    pub crash_after_append_bytes: Option<u64>,
    /// Durability mutant: report `sync` success without advancing the
    /// durable watermark (models a skipped/ignored fsync).
    pub skip_sync: bool,
    /// Durability mutant: silently skip renames whose destination equals
    /// this path (models a skipped atomic-replace rename).
    pub skip_renames_to: Option<String>,
}

/// Error message used for injected crashes; tests match on it to tell
/// planned faults from real bugs.
pub const INJECTED_CRASH: &str = "injected crash";

/// In-memory [`Storage`] with deterministic crash-fault injection.
///
/// The crash model: a "crash" stops the writing process. What survives is
/// decided by the harness — [`crash_drop_unsynced`](Self::crash_drop_unsynced)
/// keeps only durable bytes (every un-synced write vanishes), while
/// [`crash_keep_written`](Self::crash_keep_written) keeps everything
/// written so far (the friendliest legal outcome). Arbitrary prefixes in
/// between are modelled by the byte-granular crash budget plus explicit
/// [`truncate_to`](Self::truncate_to) / [`flip_bit`](Self::flip_bit)
/// harness edits.
#[derive(Clone, Debug, Default)]
pub struct FaultyStorage {
    files: BTreeMap<String, FaultFile>,
    plan: FaultPlan,
    ops: u64,
    appended_bytes: u64,
    crashed: bool,
}

impl FaultyStorage {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn with_plan(plan: FaultPlan) -> Self {
        Self {
            plan,
            ..Self::default()
        }
    }

    pub fn set_plan(&mut self, plan: FaultPlan) {
        self.plan = plan;
    }

    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Mutating storage ops completed so far (crash-point enumeration).
    pub fn ops(&self) -> u64 {
        self.ops
    }

    /// Has an injected crash fired?
    pub fn crashed(&self) -> bool {
        self.crashed
    }

    fn injected(&self) -> io::Error {
        io::Error::other(INJECTED_CRASH)
    }

    /// Gate + count one mutating op. Returns an error if the process is
    /// already down or this op trips the crash budget.
    fn mutating_op(&mut self) -> io::Result<()> {
        if self.crashed {
            return Err(self.injected());
        }
        if let Some(budget) = self.plan.crash_after_ops {
            if self.ops >= budget {
                self.crashed = true;
                return Err(self.injected());
            }
        }
        self.ops += 1;
        Ok(())
    }

    fn file_mut(&mut self, path: &str) -> &mut FaultFile {
        self.files.entry(path.to_string()).or_default()
    }

    // ---- harness surface (not part of the Storage trait) ----

    /// Simulate a crash where every un-synced byte is lost, then restart:
    /// each file is truncated to its durable watermark and the storage
    /// accepts ops again (fresh process, same disk).
    pub fn crash_drop_unsynced(&mut self) {
        for file in self.files.values_mut() {
            file.data.truncate(file.synced);
        }
        self.restart();
    }

    /// Simulate a crash where everything written made it to disk (the
    /// most favourable legal outcome), then restart.
    pub fn crash_keep_written(&mut self) {
        for file in self.files.values_mut() {
            file.synced = file.data.len();
        }
        self.restart();
    }

    /// Clear the crashed flag and the crash budgets: the modelled process
    /// has restarted against whatever the disk now holds.
    pub fn restart(&mut self) {
        self.crashed = false;
        self.plan.crash_after_ops = None;
        self.plan.crash_after_append_bytes = None;
        self.ops = 0;
        self.appended_bytes = 0;
        for file in self.files.values_mut() {
            file.synced = file.data.len();
        }
    }

    /// Harness edit: install `data` as the full durable contents of `path`.
    pub fn install(&mut self, path: &str, data: &[u8]) {
        let file = self.file_mut(path);
        file.data = data.to_vec();
        file.synced = data.len();
    }

    /// Harness edit: truncate `path` to `len` bytes (simulated torn tail).
    pub fn truncate_to(&mut self, path: &str, len: usize) {
        let file = self.file_mut(path);
        file.data.truncate(len);
        file.synced = file.synced.min(len);
    }

    /// Harness edit: flip bit `bit` (0..8) of byte `byte` of `path`.
    /// No-op when the byte is out of range.
    pub fn flip_bit(&mut self, path: &str, byte: usize, bit: u32) {
        let file = self.file_mut(path);
        if let Some(b) = file.data.get_mut(byte) {
            *b ^= 1u8 << (bit % 8);
        }
    }

    /// Full written image of `path` (including un-synced bytes).
    pub fn contents(&self, path: &str) -> Option<&[u8]> {
        self.files.get(path).map(|f| f.data.as_slice())
    }

    /// Durable watermark of `path`.
    pub fn synced_len(&self, path: &str) -> usize {
        self.files.get(path).map_or(0, |f| f.synced)
    }

    /// Written length of `path` (including un-synced bytes).
    pub fn written_len(&self, path: &str) -> usize {
        self.files.get(path).map_or(0, |f| f.data.len())
    }
}

impl Storage for FaultyStorage {
    fn read(&mut self, path: &str) -> io::Result<Vec<u8>> {
        // Reads model a restarted process inspecting the disk: they work
        // even after a crash.
        match self.files.get(path) {
            Some(f) => Ok(f.data.clone()),
            None => Err(io::Error::new(
                io::ErrorKind::NotFound,
                format!("no such faulty file: {path}"),
            )),
        }
    }

    fn exists(&mut self, path: &str) -> bool {
        self.files.contains_key(path)
    }

    fn write(&mut self, path: &str, data: &[u8]) -> io::Result<()> {
        self.mutating_op()?;
        let file = self.file_mut(path);
        file.data = data.to_vec();
        // A create/truncate write is entirely volatile until synced.
        file.synced = 0;
        Ok(())
    }

    fn append(&mut self, path: &str, data: &[u8]) -> io::Result<()> {
        self.mutating_op()?;
        let mut allowed = data.len();
        if let Some(budget) = self.plan.crash_after_append_bytes {
            let remaining = budget.saturating_sub(self.appended_bytes);
            if (data.len() as u64) > remaining {
                // Torn write: persist only the prefix the budget allows,
                // then crash.
                allowed = remaining as usize;
                self.crashed = true;
            }
        }
        self.appended_bytes += allowed as u64;
        self.file_mut(path).data.extend_from_slice(&data[..allowed]);
        if self.crashed {
            return Err(self.injected());
        }
        Ok(())
    }

    fn sync(&mut self, path: &str) -> io::Result<()> {
        self.mutating_op()?;
        if self.plan.skip_sync {
            return Ok(()); // mutant: claims durability it never provided
        }
        let file = self.file_mut(path);
        file.synced = file.data.len();
        Ok(())
    }

    fn rename(&mut self, from: &str, to: &str) -> io::Result<()> {
        self.mutating_op()?;
        if self.plan.skip_renames_to.as_deref() == Some(to) {
            return Ok(()); // mutant: atomic replace silently dropped
        }
        match self.files.remove(from) {
            Some(mut f) => {
                // Rename is modelled atomic + durable: the bytes that land
                // under the new name are the written image.
                f.synced = f.data.len();
                self.files.insert(to.to_string(), f);
                Ok(())
            }
            None => Err(io::Error::new(
                io::ErrorKind::NotFound,
                format!("rename source missing: {from}"),
            )),
        }
    }

    fn truncate(&mut self, path: &str, len: u64) -> io::Result<()> {
        self.mutating_op()?;
        let file = self.file_mut(path);
        file.data.truncate(len as usize);
        file.synced = file.synced.min(len as usize);
        Ok(())
    }

    fn remove(&mut self, path: &str) -> io::Result<()> {
        self.mutating_op()?;
        self.files.remove(path);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn std_storage_round_trip() {
        let dir = std::env::temp_dir().join(format!("crpq_storage_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("f.bin").to_str().unwrap().to_string();
        let tmp = dir.join("f.tmp").to_str().unwrap().to_string();
        let mut s = StdStorage::new();
        s.write(&tmp, b"he").unwrap();
        s.append(&tmp, b"llo").unwrap();
        s.sync(&tmp).unwrap();
        s.rename(&tmp, &path).unwrap();
        assert_eq!(s.read(&path).unwrap(), b"hello");
        assert!(s.exists(&path));
        s.truncate(&path, 2).unwrap();
        assert_eq!(s.read(&path).unwrap(), b"he");
        s.remove(&path).unwrap();
        assert!(!s.exists(&path));
        s.remove(&path).unwrap(); // idempotent
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn faulty_storage_drop_unsynced_keeps_durable_prefix() {
        let mut s = FaultyStorage::new();
        s.append("wal", b"aaaa").unwrap();
        s.sync("wal").unwrap();
        s.append("wal", b"bbbb").unwrap();
        assert_eq!(s.synced_len("wal"), 4);
        assert_eq!(s.written_len("wal"), 8);
        s.crash_drop_unsynced();
        assert_eq!(s.read("wal").unwrap(), b"aaaa");
    }

    #[test]
    fn faulty_storage_byte_budget_tears_the_write() {
        let mut s = FaultyStorage::with_plan(FaultPlan {
            crash_after_append_bytes: Some(6),
            ..FaultPlan::default()
        });
        s.append("wal", b"aaaa").unwrap();
        let err = s.append("wal", b"bbbb").unwrap_err();
        assert!(err.to_string().contains(INJECTED_CRASH));
        // Torn write: 2 of the 4 bytes landed.
        assert_eq!(s.contents("wal").unwrap(), b"aaaabb");
        // Process is down until restart.
        assert!(s.append("wal", b"x").is_err());
        s.crash_keep_written();
        s.append("wal", b"cc").unwrap();
        assert_eq!(s.contents("wal").unwrap(), b"aaaabbcc");
    }

    #[test]
    fn faulty_storage_op_budget_counts_mutations() {
        let mut s = FaultyStorage::with_plan(FaultPlan {
            crash_after_ops: Some(2),
            ..FaultPlan::default()
        });
        s.append("a", b"x").unwrap();
        s.sync("a").unwrap();
        assert!(s.append("a", b"y").is_err());
        assert!(s.crashed());
        // Reads still work after the crash (restarted-process model).
        assert_eq!(s.read("a").unwrap(), b"x");
    }

    #[test]
    fn faulty_storage_skip_sync_mutant_leaves_bytes_volatile() {
        let mut s = FaultyStorage::with_plan(FaultPlan {
            skip_sync: true,
            ..FaultPlan::default()
        });
        s.append("wal", b"aaaa").unwrap();
        s.sync("wal").unwrap();
        s.crash_drop_unsynced();
        assert_eq!(s.read("wal").unwrap(), b"");
    }

    #[test]
    fn faulty_storage_skip_rename_mutant_drops_the_replace() {
        let mut s = FaultyStorage::with_plan(FaultPlan {
            skip_renames_to: Some("snap".to_string()),
            ..FaultPlan::default()
        });
        s.install("snap", b"old");
        s.write("snap.tmp", b"new").unwrap();
        s.sync("snap.tmp").unwrap();
        s.rename("snap.tmp", "snap").unwrap();
        assert_eq!(s.read("snap").unwrap(), b"old");
        // An honest rename replaces the destination.
        let mut honest = FaultyStorage::new();
        honest.install("snap", b"old");
        honest.write("snap.tmp", b"new").unwrap();
        honest.sync("snap.tmp").unwrap();
        honest.rename("snap.tmp", "snap").unwrap();
        assert_eq!(honest.read("snap").unwrap(), b"new");
    }

    #[test]
    fn faulty_storage_bit_flip_and_truncate_edits() {
        let mut s = FaultyStorage::new();
        s.install("f", &[0b0000_0000, 0xff]);
        s.flip_bit("f", 0, 3);
        assert_eq!(s.read("f").unwrap(), [0b0000_1000, 0xff]);
        s.truncate_to("f", 1);
        assert_eq!(s.read("f").unwrap(), [0b0000_1000]);
        s.flip_bit("f", 9, 0); // out of range: no-op
        assert_eq!(s.written_len("f"), 1);
    }
}
