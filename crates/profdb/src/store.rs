//! The on-disk store: one text file per `(workload, module hash)` key
//! under a root directory, with atomic replace on write, a write-ahead
//! log in front of every merge, and checksum trailers on entry files.
//!
//! Durability contract: [`ProfileDb::merge_store_logged`] appends the
//! post-merge state to the WAL and fsyncs it *before* rewriting the
//! entry file — the commit point is the fsync. A crash anywhere after it
//! is repaired by [`crate::recovery::recover`] at the next open; a crash
//! before it loses only an unacknowledged merge. Idempotency keys
//! (nonzero request ids) are recorded in the WAL and deduplicated both
//! live and at replay, so a retried merge can never double-count.

use crate::entry::{DbError, ProfileEntry};
use crate::hash::fnv1a64;
use crate::recovery::{recover, RecoveryReport};
use crate::repl::DeltaRecord;
use crate::wal::{
    scan_chain, write_atomic, DiskFaults, RecordKind, ScanItem, SegmentConfig, Wal, WalRecord,
};
use std::collections::{HashMap, HashSet, VecDeque};
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, PoisonError};

/// One key in the database, as listed without parsing whole entries.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct DbRecord {
    /// Workload name.
    pub workload: String,
    /// Module content hash.
    pub module_hash: u64,
    /// Runs merged into the entry.
    pub runs: u64,
}

/// One line of the anti-entropy digest table: a key plus the fnv1a64 of
/// its entry file's bytes. Two replicas that applied the same delta set
/// have byte-identical entry files (the CRDT merge is canonical), so
/// equal tables mean converged stores.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct DigestEntry {
    /// Workload name.
    pub workload: String,
    /// Module content hash.
    pub module_hash: u64,
    /// fnv1a64 over the entry file's bytes.
    pub digest: u64,
}

/// Most-recent idempotency keys remembered for live dedup (and carried
/// across checkpoints). Old ids age out FIFO.
const APPLIED_IDS_CAP: usize = 4096;

/// Subdirectory holding the pre-merge delta retention chain.
const RETAIN_DIR: &str = "retain";

#[derive(Debug)]
struct DbState {
    wal: Wal,
    applied: HashSet<u64>,
    applied_order: VecDeque<u64>,
    /// Pre-merge replication deltas kept for anti-entropy re-send. The
    /// WAL proper logs *post-merge* redo states — absolute snapshots
    /// that would double-count if merged into a diverged sibling — so
    /// the exact incoming deltas are retained separately, in their own
    /// segmented chain under [`RETAIN_DIR`]. The window is cleared by
    /// [`ProfileDb::checkpoint`]; repair can only re-send deltas applied
    /// since then (hinted handoff, not anti-entropy, is the primary
    /// loss-prevention path).
    retain_wal: Wal,
    retained: Vec<DeltaRecord>,
    /// Decoded entries already read through this handle, by key. Every
    /// write through the handle drops its key first, so a hit equals
    /// what a fresh read of the file would return — as long as nothing
    /// else edits the store (see [`ProfileDb`]).
    entries: HashMap<(String, u64), Arc<ProfileEntry>>,
}

impl DbState {
    /// Drops a key's decoded entry ahead of a write to its file.
    fn forget(&mut self, workload: &str, module_hash: u64) {
        self.entries.remove(&(workload.to_string(), module_hash));
    }

    fn remember(&mut self, id: u64) {
        if id == 0 || !self.applied.insert(id) {
            return;
        }
        self.applied_order.push_back(id);
        while self.applied_order.len() > APPLIED_IDS_CAP {
            if let Some(old) = self.applied_order.pop_front() {
                self.applied.remove(&old);
            }
        }
    }
}

/// A profile database rooted at a directory.
///
/// Concurrency: entry writes are atomic (temp file + fsync + rename) and
/// the read-merge-write sequence of [`ProfileDb::merge_store_logged`] is
/// serialized on an internal lock, so concurrent merges from the daemon's
/// worker pool never interleave mid-merge.
///
/// Ownership: [`ProfileDb::load`] keeps each entry it decodes and serves
/// later loads of that key from memory until a write through this handle
/// replaces or removes it. A handle therefore does not see outside edits
/// to an entry file it has already read; reopen the store to pick them up.
#[derive(Debug)]
pub struct ProfileDb {
    root: PathBuf,
    state: Mutex<DbState>,
    recovered: bool,
    recovery: Option<RecoveryReport>,
    segments: SegmentConfig,
}

const SUFFIX: &str = ".profdb";
const CHECKSUM_PREFIX: &str = "# checksum ";

fn io_err(path: &Path, e: std::io::Error) -> DbError {
    DbError::Io(format!("{}: {e}", path.display()))
}

/// Workload names become file-name stems, so keep them to a safe charset.
fn check_workload_name(name: &str) -> Result<(), DbError> {
    let ok = !name.is_empty()
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '-' || c == '.');
    if ok {
        Ok(())
    } else {
        Err(DbError::KeyMismatch(format!(
            "workload name `{name}` not storable (allowed: alphanumerics, `_`, `-`, `.`)"
        )))
    }
}

fn entry_path(root: &Path, workload: &str, module_hash: u64) -> PathBuf {
    root.join(format!("{workload}@{module_hash:016x}{SUFFIX}"))
}

/// Entry text plus its checksum trailer line.
fn entry_text_checksummed(entry: &ProfileEntry) -> String {
    let text = entry.to_text();
    format!("{text}{CHECKSUM_PREFIX}{:016x}\n", fnv1a64(text.as_bytes()))
}

/// Verifies an entry file's checksum trailer when one is present.
/// Trailer-less files (pre-durability format) pass unverified.
fn verify_entry_text(text: &str) -> Result<(), String> {
    let Some(start) = text.rfind(CHECKSUM_PREFIX) else {
        return Ok(());
    };
    // The trailer must be the final line.
    let line = text[start..].trim_end();
    if text[start + line.len()..].trim() != "" {
        return Ok(()); // a checksum-looking line mid-file is just a comment
    }
    let hex = line[CHECKSUM_PREFIX.len()..].trim();
    let Ok(want) = u64::from_str_radix(hex, 16) else {
        return Err(format!("unparsable checksum trailer `{line}`"));
    };
    let got = fnv1a64(&text.as_bytes()[..start]);
    if got != want {
        return Err(format!(
            "entry checksum mismatch: file says {want:016x}, content hashes to {got:016x}"
        ));
    }
    Ok(())
}

/// Atomically (and durably) writes `entry` under `root`. Shared with
/// recovery's replay path.
pub(crate) fn write_entry_file(root: &Path, entry: &ProfileEntry) -> Result<(), DbError> {
    let path = entry_path(root, &entry.workload, entry.module_hash);
    write_atomic(&path, entry_text_checksummed(entry).as_bytes())
}

/// Opens (creating if needed) the retention chain under `root/retain`,
/// replaying it into the in-memory window. A torn active-log tail is
/// truncated (the merge it retained was never acknowledged as retained);
/// checksum-corrupt records are skipped — a hole in the window only
/// narrows what anti-entropy can re-send.
fn open_retention(root: &Path) -> Result<(Wal, Vec<DeltaRecord>), DbError> {
    let dir = root.join(RETAIN_DIR);
    fs::create_dir_all(&dir).map_err(|e| io_err(&dir, e))?;
    let chain = scan_chain(&dir, &DiskFaults::default())?;
    let mut retained = Vec::new();
    for seg in &chain {
        for item in &seg.scan.items {
            match item {
                ScanItem::Record { record, .. } => {
                    if record.kind == RecordKind::Entry {
                        retained.push(DeltaRecord {
                            req_id: record.req_id,
                            entry_text: String::from_utf8_lossy(&record.payload).into_owned(),
                        });
                    }
                }
                ScanItem::Corrupt { .. } => {}
                ScanItem::TornTail { offset } => {
                    if seg.is_active() {
                        Wal::truncate_to(&dir.join(&seg.name), *offset)?;
                    }
                }
            }
        }
    }
    let wal = Wal::open_append(&dir, retained.len() as u64, DiskFaults::default())?;
    Ok((wal, retained))
}

/// Raw text of the entry file under a key (`Ok(None)` when absent). No
/// checksum verification — recovery wants the raw bytes to judge.
pub(crate) fn entry_file_text(
    root: &Path,
    workload: &str,
    module_hash: u64,
) -> Result<Option<String>, DbError> {
    let path = entry_path(root, workload, module_hash);
    match fs::read_to_string(&path) {
        Ok(t) => Ok(Some(t)),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
        Err(e) => Err(io_err(&path, e)),
    }
}

impl ProfileDb {
    /// Opens (creating if needed) a database rooted at `root`, running
    /// crash recovery first: complete WAL records are replayed, torn
    /// tails truncated, and checksum-failed records quarantined.
    ///
    /// # Errors
    ///
    /// Returns [`DbError::Io`] when the directory cannot be created or
    /// repair writes fail. Corrupt content never fails the open.
    pub fn open(root: impl Into<PathBuf>) -> Result<Self, DbError> {
        Self::open_with(root, DiskFaults::default())
    }

    /// [`ProfileDb::open`] with injected disk faults (chaos testing).
    ///
    /// # Errors
    ///
    /// As [`ProfileDb::open`].
    pub fn open_with(root: impl Into<PathBuf>, faults: DiskFaults) -> Result<Self, DbError> {
        let root = root.into();
        fs::create_dir_all(&root).map_err(|e| io_err(&root, e))?;
        let report = recover(&root, &faults)?;
        let pending = (report.replayed + report.already_applied) as u64;
        let wal = Wal::open_append(&root, pending, faults)?;
        let (retain_wal, retained) = open_retention(&root)?;
        let mut state = DbState {
            wal,
            applied: HashSet::new(),
            applied_order: VecDeque::new(),
            retain_wal,
            retained,
            entries: HashMap::new(),
        };
        for id in &report.applied_ids {
            state.remember(*id);
        }
        Ok(ProfileDb {
            root,
            state: Mutex::new(state),
            recovered: true,
            recovery: Some(report),
            segments: SegmentConfig::default(),
        })
    }

    /// Opens without running recovery — for inspection tools. A store
    /// opened this way refuses to [`ProfileDb::gc`] while the WAL holds
    /// a pending tail, since removal decisions made on unreplayed state
    /// would be wrong.
    ///
    /// # Errors
    ///
    /// Returns [`DbError::Io`] on directory or WAL trouble.
    pub fn open_unrecovered(root: impl Into<PathBuf>) -> Result<Self, DbError> {
        let root = root.into();
        fs::create_dir_all(&root).map_err(|e| io_err(&root, e))?;
        let chain = scan_chain(&root, &DiskFaults::default())?;
        let pending: usize = chain.iter().map(|s| s.scan.pending_entries()).sum();
        let known: Vec<u64> = chain.iter().flat_map(|s| s.scan.known_ids()).collect();
        let wal = Wal::open_append(&root, pending as u64, DiskFaults::default())?;
        let (retain_wal, retained) = open_retention(&root)?;
        let mut state = DbState {
            wal,
            applied: HashSet::new(),
            applied_order: VecDeque::new(),
            retain_wal,
            retained,
            entries: HashMap::new(),
        };
        for id in known {
            state.remember(id);
        }
        Ok(ProfileDb {
            root,
            state: Mutex::new(state),
            recovered: false,
            recovery: None,
            segments: SegmentConfig::default(),
        })
    }

    /// Adjusts the WAL segmentation policy: when the active log seals
    /// into a numbered segment and when the chain compacts. Call before
    /// sharing the handle (tests shrink the thresholds to force churn;
    /// capacity tuning raises them).
    pub fn configure_segments(&mut self, config: SegmentConfig) {
        self.segments = SegmentConfig {
            seal_bytes: config.seal_bytes.max(1),
            max_live_segments: config.max_live_segments.max(1),
        };
    }

    /// The active segmentation policy.
    pub fn segment_config(&self) -> SegmentConfig {
        self.segments
    }

    /// The database's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// What recovery found at open (absent for
    /// [`ProfileDb::open_unrecovered`]).
    pub fn recovery_report(&self) -> Option<&RecoveryReport> {
        self.recovery.as_ref()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, DbState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Entry records in the WAL not yet folded away by a checkpoint.
    pub fn wal_pending(&self) -> bool {
        self.lock().wal.has_pending()
    }

    /// WAL observability counters (appends/syncs/checkpoints since open).
    pub fn wal_stats(&self) -> crate::wal::WalStats {
        self.lock().wal.stats()
    }

    fn path_for(&self, workload: &str, module_hash: u64) -> PathBuf {
        entry_path(&self.root, workload, module_hash)
    }

    /// Writes `entry`, replacing any previous entry under its key. This
    /// is a raw write (no WAL record); use
    /// [`ProfileDb::merge_store_logged`] for crash-safe accumulation.
    ///
    /// # Errors
    ///
    /// Returns [`DbError::Io`] on filesystem trouble and
    /// [`DbError::KeyMismatch`] for unstorable workload names.
    pub fn store(&self, entry: &ProfileEntry) -> Result<(), DbError> {
        check_workload_name(&entry.workload)?;
        let mut st = self.lock();
        st.forget(&entry.workload, entry.module_hash);
        write_entry_file(&self.root, entry)
    }

    /// Loads the entry under `(workload, module_hash)`, verifying its
    /// checksum trailer when present. Served from memory when this handle
    /// has read the key before and not written it since.
    ///
    /// # Errors
    ///
    /// Returns [`DbError::NotFound`] when absent, [`DbError::Parse`] for
    /// a corrupt file (bad checksum included), [`DbError::Io`] otherwise.
    pub fn load(&self, workload: &str, module_hash: u64) -> Result<ProfileEntry, DbError> {
        self.load_shared(workload, module_hash)
            .map(Arc::unwrap_or_clone)
    }

    /// [`ProfileDb::load`] without copying the entry out of memory.
    ///
    /// # Errors
    ///
    /// As [`ProfileDb::load`].
    pub fn load_shared(
        &self,
        workload: &str,
        module_hash: u64,
    ) -> Result<Arc<ProfileEntry>, DbError> {
        self.load_locked(&mut self.lock(), workload, module_hash)
    }

    /// The read-through step of [`ProfileDb::load`], under the state lock
    /// the caller already holds.
    fn load_locked(
        &self,
        st: &mut DbState,
        workload: &str,
        module_hash: u64,
    ) -> Result<Arc<ProfileEntry>, DbError> {
        let key = (workload.to_string(), module_hash);
        if let Some(entry) = st.entries.get(&key) {
            return Ok(Arc::clone(entry));
        }
        let entry = Arc::new(self.read_entry(workload, module_hash)?);
        st.entries.insert(key, Arc::clone(&entry));
        Ok(entry)
    }

    /// Reads and decodes the entry file under a key, verifying its
    /// checksum trailer and that it holds the key's entry.
    fn read_entry(&self, workload: &str, module_hash: u64) -> Result<ProfileEntry, DbError> {
        check_workload_name(workload)?;
        let path = self.path_for(workload, module_hash);
        let text = match entry_file_text(&self.root, workload, module_hash)? {
            Some(t) => t,
            None => {
                return Err(DbError::NotFound {
                    workload: workload.to_string(),
                    module_hash,
                })
            }
        };
        if let Err(msg) = verify_entry_text(&text) {
            return Err(DbError::Parse(stride_profiling::ProfileParseError {
                line: 1,
                col: 1,
                message: format!("{}: {msg}", path.display()),
            }));
        }
        let entry = ProfileEntry::from_text(&text)?;
        if entry.workload != workload || entry.module_hash != module_hash {
            return Err(DbError::KeyMismatch(format!(
                "file {} holds entry for {} @ {:016x}",
                path.display(),
                entry.workload,
                entry.module_hash
            )));
        }
        Ok(entry)
    }

    /// Merges `entry` into the stored entry under the same key (or
    /// inserts it) and returns the accumulated entry. Crash-safe: see
    /// [`ProfileDb::merge_store_logged`], which this calls with no
    /// idempotency key.
    ///
    /// # Errors
    ///
    /// Propagates load/store failures and merge key mismatches.
    pub fn merge_store(&self, entry: &ProfileEntry) -> Result<ProfileEntry, DbError> {
        self.merge_store_logged(entry, 0).map(|(e, _)| e)
    }

    /// The crash-safe merge: WAL-append the post-merge state, fsync,
    /// then apply to the entry file. Returns the accumulated entry and
    /// whether the request id was a duplicate (in which case nothing was
    /// merged and the stored entry is returned as-is).
    ///
    /// An acknowledgement sent after this returns `Ok` is durable: the
    /// fsynced redo record reconstructs the entry file even if the
    /// process dies before (or during) the apply.
    ///
    /// # Errors
    ///
    /// Propagates load/parse/merge failures, and [`DbError::Io`] when
    /// the WAL append or fsync fails — in which case the merge must be
    /// treated as *not applied* and retried.
    pub fn merge_store_logged(
        &self,
        entry: &ProfileEntry,
        req_id: u64,
    ) -> Result<(ProfileEntry, bool), DbError> {
        check_workload_name(&entry.workload)?;
        let mut st = self.lock();
        if req_id != 0 && st.applied.contains(&req_id) {
            let stored = self.load_locked(&mut st, &entry.workload, entry.module_hash)?;
            return Ok((Arc::unwrap_or_clone(stored), true));
        }
        // The key's file is about to be rewritten, so its decoded entry
        // leaves the cache here: moved out rather than copied.
        let key = (entry.workload.clone(), entry.module_hash);
        let existing = match st.entries.remove(&key) {
            Some(cached) => Ok(Arc::unwrap_or_clone(cached)),
            None => self.read_entry(&entry.workload, entry.module_hash),
        };
        let merged = match existing {
            Ok(mut existing) => {
                existing.merge(entry)?;
                existing
            }
            Err(DbError::NotFound { .. }) => entry.clone(),
            Err(e) => return Err(e),
        };
        st.wal
            .append(&WalRecord::entry(req_id, &merged.to_text()))?;
        st.wal.sync()?;
        write_entry_file(&self.root, &merged)?;
        st.remember(req_id);
        // Segment policy, applied inside the same critical section so
        // the live-segment bound holds between any two merges: roll the
        // active log once it outgrows its cap, and compact the chain
        // once the roll would leave too many live segments.
        if st.wal.len() > self.segments.seal_bytes {
            st.wal.seal()?;
        }
        if st.wal.live_segments() > self.segments.max_live_segments {
            let ids: Vec<u64> = st.applied_order.iter().copied().collect();
            st.wal.checkpoint(&ids)?;
        }
        Ok((merged, false))
    }

    /// Folds the whole WAL chain away (compaction): all redo state is
    /// already applied, so the active log is atomically replaced by a
    /// fresh one carrying only the idempotency-id set and a clean
    /// footer, and sealed segments are deleted. Called on graceful
    /// daemon shutdown and automatically when the chain outgrows
    /// [`SegmentConfig::max_live_segments`].
    ///
    /// # Errors
    ///
    /// Returns [`DbError::Io`] on filesystem trouble (the old log stays).
    pub fn checkpoint(&self) -> Result<(), DbError> {
        let mut st = self.lock();
        let ids: Vec<u64> = st.applied_order.iter().copied().collect();
        st.wal.checkpoint(&ids)?;
        // The retention window rides the checkpoint: everything before
        // it is assumed replicated (graceful shutdown), so anti-entropy
        // only ever needs the deltas applied since.
        st.retained.clear();
        st.retain_wal.checkpoint(&[])
    }

    /// Lists all keys, sorted by `(workload, module_hash)`.
    ///
    /// # Errors
    ///
    /// Returns [`DbError::Io`] on directory trouble; unreadable or
    /// foreign files are skipped.
    pub fn list(&self) -> Result<Vec<DbRecord>, DbError> {
        self.list_verified().map(|(records, _)| records)
    }

    /// Like [`ProfileDb::list`], additionally counting entry files that
    /// failed to load or verify (integrity checking).
    ///
    /// # Errors
    ///
    /// Returns [`DbError::Io`] on directory trouble.
    pub fn list_verified(&self) -> Result<(Vec<DbRecord>, usize), DbError> {
        let mut out = Vec::new();
        let mut bad = 0usize;
        let dir = fs::read_dir(&self.root).map_err(|e| io_err(&self.root, e))?;
        for item in dir {
            let item = item.map_err(|e| io_err(&self.root, e))?;
            let name = item.file_name();
            let Some(stem) = name.to_str().and_then(|n| n.strip_suffix(SUFFIX)) else {
                continue;
            };
            let Some((workload, hash_s)) = stem.rsplit_once('@') else {
                continue;
            };
            let Ok(module_hash) = u64::from_str_radix(hash_s, 16) else {
                continue;
            };
            let Ok(entry) = self.read_entry(workload, module_hash) else {
                bad += 1;
                continue;
            };
            out.push(DbRecord {
                workload: workload.to_string(),
                module_hash,
                runs: entry.runs,
            });
        }
        out.sort();
        Ok((out, bad))
    }

    /// Durably appends one pre-merge replication delta to the retention
    /// window (append + fsync, torn tails cut at reopen). Called by
    /// [`ProfileDb::apply_deltas`] after a non-duplicate apply so
    /// anti-entropy can re-send the exact delta later.
    ///
    /// # Errors
    ///
    /// Returns [`DbError::Io`] on disk trouble; the merge itself is
    /// already durable, so the caller may treat this as best-effort.
    pub(crate) fn retain_delta(&self, req_id: u64, entry_text: &str) -> Result<(), DbError> {
        let mut st = self.lock();
        st.retain_wal
            .append(&WalRecord::entry(req_id, entry_text))?;
        st.retain_wal.sync()?;
        st.retained.push(DeltaRecord {
            req_id,
            entry_text: entry_text.to_string(),
        });
        if st.retain_wal.len() > self.segments.seal_bytes {
            st.retain_wal.seal()?;
        }
        Ok(())
    }

    /// Snapshot of the retained pre-merge delta window, in apply order —
    /// what anti-entropy re-sends to a diverged sibling. Empty after a
    /// checkpoint (the documented repair-window bound).
    pub fn retained_deltas(&self) -> Vec<DeltaRecord> {
        self.lock().retained.clone()
    }

    /// Per-key digest table: the fnv1a64 of every entry file's bytes,
    /// sorted by `(workload, module_hash)`. Cheap to diff across the
    /// replicas of a shard — any differing or missing line localizes
    /// divergence to one key.
    ///
    /// # Errors
    ///
    /// Returns [`DbError::Io`] on directory or file read trouble.
    pub fn digest_table(&self) -> Result<Vec<DigestEntry>, DbError> {
        let mut out = Vec::new();
        let dir = fs::read_dir(&self.root).map_err(|e| io_err(&self.root, e))?;
        for item in dir {
            let item = item.map_err(|e| io_err(&self.root, e))?;
            let name = item.file_name();
            let Some(stem) = name.to_str().and_then(|n| n.strip_suffix(SUFFIX)) else {
                continue;
            };
            let Some((workload, hash_s)) = stem.rsplit_once('@') else {
                continue;
            };
            let Ok(module_hash) = u64::from_str_radix(hash_s, 16) else {
                continue;
            };
            let path = item.path();
            let bytes = fs::read(&path).map_err(|e| io_err(&path, e))?;
            out.push(DigestEntry {
                workload: workload.to_string(),
                module_hash,
                digest: fnv1a64(&bytes),
            });
        }
        out.sort();
        Ok(out)
    }

    /// Order-independent fingerprint of the store's *profile content*:
    /// fnv1a64 over every entry file's name and bytes in sorted name
    /// order. WAL/quarantine state is deliberately excluded — two
    /// replicas that applied the same set of merge deltas must compare
    /// equal even when their logs sealed and compacted differently.
    ///
    /// # Errors
    ///
    /// Returns [`DbError::Io`] on directory or file read trouble.
    pub fn content_digest(&self) -> Result<u64, DbError> {
        let mut names: Vec<String> = Vec::new();
        let dir = fs::read_dir(&self.root).map_err(|e| io_err(&self.root, e))?;
        for item in dir {
            let item = item.map_err(|e| io_err(&self.root, e))?;
            if let Some(name) = item.file_name().to_str() {
                if name.ends_with(SUFFIX) {
                    names.push(name.to_string());
                }
            }
        }
        names.sort();
        let mut buf = Vec::new();
        for name in &names {
            buf.extend_from_slice(name.as_bytes());
            buf.push(0);
            let path = self.root.join(name);
            let bytes = fs::read(&path).map_err(|e| io_err(&path, e))?;
            buf.extend_from_slice(&(bytes.len() as u64).to_be_bytes());
            buf.extend_from_slice(&bytes);
        }
        Ok(fnv1a64(&buf))
    }

    /// Deletes the entry under a key (no-op when absent).
    ///
    /// # Errors
    ///
    /// Returns [`DbError::Io`] when removal fails for another reason.
    pub fn remove(&self, workload: &str, module_hash: u64) -> Result<(), DbError> {
        let mut st = self.lock();
        st.forget(workload, module_hash);
        let path = self.path_for(workload, module_hash);
        match fs::remove_file(&path) {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(io_err(&path, e)),
        }
    }

    fn ensure_gc_safe(&self) -> Result<(), DbError> {
        if !self.recovered && self.wal_pending() {
            return Err(DbError::PendingWal {
                detail: "store has an unrecovered WAL tail; open with recovery (or run \
                         `profdb recover`) before gc"
                    .to_string(),
            });
        }
        Ok(())
    }

    /// What [`ProfileDb::gc`] would remove, without removing anything
    /// (the `--dry-run` listing).
    ///
    /// # Errors
    ///
    /// Returns [`DbError::PendingWal`] on an unrecovered WAL tail, and
    /// propagates listing failures.
    pub fn gc_plan(
        &self,
        mut live: impl FnMut(&str, u64) -> bool,
    ) -> Result<Vec<DbRecord>, DbError> {
        self.ensure_gc_safe()?;
        Ok(self
            .list()?
            .into_iter()
            .filter(|rec| !live(&rec.workload, rec.module_hash))
            .collect())
    }

    /// Garbage-collects entries `live` rejects (stale module hashes,
    /// retired workloads). Returns the removed keys.
    ///
    /// The WAL is checkpointed first: redo records for a removed key
    /// would otherwise resurrect it at the next open's replay.
    ///
    /// # Errors
    ///
    /// Returns [`DbError::PendingWal`] on an unrecovered WAL tail, and
    /// propagates listing and removal failures.
    pub fn gc(&self, mut live: impl FnMut(&str, u64) -> bool) -> Result<Vec<DbRecord>, DbError> {
        self.ensure_gc_safe()?;
        self.checkpoint()?;
        let mut removed = Vec::new();
        for rec in self.list()? {
            if !live(&rec.workload, rec.module_hash) {
                self.remove(&rec.workload, rec.module_hash)?;
                removed.push(rec);
            }
        }
        Ok(removed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stride_ir::{FuncId, InstrId};
    use stride_profiling::{LoadStrideProfile, StrideProfile};

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("profdb-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        d
    }

    fn entry(workload: &str, hash: u64, total: u64) -> ProfileEntry {
        let mut stride = StrideProfile::new();
        stride.insert(
            FuncId::new(0),
            InstrId::new(1),
            LoadStrideProfile {
                top: vec![(48, total)],
                total_freq: total,
                num_zero_stride: 0,
                num_zero_diff: total,
                total_diffs: total,
            },
        );
        ProfileEntry {
            workload: workload.into(),
            module_hash: hash,
            runs: 1,
            edge_tables: vec![vec![total, 0, 3]],
            stride,
        }
    }

    #[test]
    fn store_load_round_trip() {
        let db = ProfileDb::open(tmpdir("roundtrip")).unwrap();
        let e = entry("mcf", 0x1234, 10);
        db.store(&e).unwrap();
        assert_eq!(db.load("mcf", 0x1234).unwrap(), e);
        let _ = fs::remove_dir_all(db.root());
    }

    #[test]
    fn missing_entries_are_not_found() {
        let db = ProfileDb::open(tmpdir("missing")).unwrap();
        assert!(matches!(db.load("mcf", 1), Err(DbError::NotFound { .. })));
        let _ = fs::remove_dir_all(db.root());
    }

    #[test]
    fn merge_store_accumulates() {
        let db = ProfileDb::open(tmpdir("merge")).unwrap();
        let first = db.merge_store(&entry("gap", 7, 10)).unwrap();
        assert_eq!(first.runs, 1);
        let second = db.merge_store(&entry("gap", 7, 5)).unwrap();
        assert_eq!(second.runs, 2);
        assert_eq!(second.edge_tables[0][0], 15);
        assert_eq!(
            db.load("gap", 7)
                .unwrap()
                .stride
                .get(FuncId::new(0), InstrId::new(1))
                .unwrap()
                .total_freq,
            15
        );
        let _ = fs::remove_dir_all(db.root());
    }

    #[test]
    fn list_and_gc() {
        let db = ProfileDb::open(tmpdir("gc")).unwrap();
        db.store(&entry("mcf", 1, 1)).unwrap();
        db.store(&entry("mcf", 2, 1)).unwrap();
        db.store(&entry("gap", 9, 1)).unwrap();
        let recs = db.list().unwrap();
        assert_eq!(recs.len(), 3);
        assert_eq!(recs[0].workload, "gap");
        // keep only mcf's current module (hash 2)
        let removed = db.gc(|w, h| w != "mcf" || h == 2).unwrap();
        assert_eq!(removed.len(), 1);
        assert_eq!(removed[0].module_hash, 1);
        assert_eq!(db.list().unwrap().len(), 2);
        let _ = fs::remove_dir_all(db.root());
    }

    #[test]
    fn gc_dry_run_removes_nothing() {
        let db = ProfileDb::open(tmpdir("gcdry")).unwrap();
        db.store(&entry("mcf", 1, 1)).unwrap();
        db.store(&entry("gap", 9, 1)).unwrap();
        let planned = db.gc_plan(|w, _| w == "gap").unwrap();
        assert_eq!(planned.len(), 1);
        assert_eq!(planned[0].workload, "mcf");
        assert_eq!(db.list().unwrap().len(), 2, "dry run must not remove");
        let _ = fs::remove_dir_all(db.root());
    }

    #[test]
    fn gc_refuses_on_unrecovered_wal_tail() {
        let root = tmpdir("gcwal");
        {
            let db = ProfileDb::open(&root).unwrap();
            db.merge_store(&entry("mcf", 1, 1)).unwrap();
            // No checkpoint: the WAL keeps a pending redo record.
        }
        let db = ProfileDb::open_unrecovered(&root).unwrap();
        let err = db.gc(|_, _| false).unwrap_err();
        assert!(matches!(err, DbError::PendingWal { .. }), "{err}");
        assert!(db.gc_plan(|_, _| false).is_err());
        // After a recovering open, gc proceeds (and checkpoints first).
        let db = ProfileDb::open(&root).unwrap();
        let removed = db.gc(|_, _| false).unwrap();
        assert_eq!(removed.len(), 1);
        assert!(!db.wal_pending());
        // The removal survives a reopen — no WAL resurrection.
        let db = ProfileDb::open(&root).unwrap();
        assert!(db.list().unwrap().is_empty());
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn hostile_workload_names_are_rejected() {
        let db = ProfileDb::open(tmpdir("names")).unwrap();
        let mut e = entry("ok", 1, 1);
        e.workload = "../escape".into();
        assert!(db.store(&e).is_err());
        assert!(db.load("a/b", 1).is_err());
        let _ = fs::remove_dir_all(db.root());
    }

    #[test]
    fn corrupt_entry_checksum_is_a_parse_error() {
        let db = ProfileDb::open(tmpdir("cksum")).unwrap();
        db.store(&entry("mcf", 5, 9)).unwrap();
        let path = db.path_for("mcf", 5);
        let mut text = fs::read_to_string(&path).unwrap();
        assert!(text.contains(CHECKSUM_PREFIX));
        text = text.replace("runs 1", "runs 7");
        fs::write(&path, text).unwrap();
        let err = db.load("mcf", 5).unwrap_err();
        assert!(matches!(err, DbError::Parse(_)), "{err}");
        assert!(err.to_string().contains("checksum"), "{err}");
        let _ = fs::remove_dir_all(db.root());
    }

    #[test]
    fn duplicate_request_ids_merge_once() {
        let db = ProfileDb::open(tmpdir("dedup")).unwrap();
        let e = entry("mcf", 3, 10);
        let (first, dup1) = db.merge_store_logged(&e, 0xfeed).unwrap();
        assert!(!dup1);
        assert_eq!(first.runs, 1);
        let (second, dup2) = db.merge_store_logged(&e, 0xfeed).unwrap();
        assert!(dup2);
        assert_eq!(second.runs, 1, "duplicate id must not re-merge");
        assert_eq!(second, first);
        // A different id merges normally.
        let (third, dup3) = db.merge_store_logged(&e, 0xbeef).unwrap();
        assert!(!dup3);
        assert_eq!(third.runs, 2);
        let _ = fs::remove_dir_all(db.root());
    }

    #[test]
    fn dedup_survives_reopen_and_checkpoint() {
        let root = tmpdir("dedup-reopen");
        {
            let db = ProfileDb::open(&root).unwrap();
            db.merge_store_logged(&entry("mcf", 3, 10), 0xabc).unwrap();
        }
        {
            // Reopen replays the WAL; the id must still dedup.
            let db = ProfileDb::open(&root).unwrap();
            let (e, dup) = db.merge_store_logged(&entry("mcf", 3, 10), 0xabc).unwrap();
            assert!(dup);
            assert_eq!(e.runs, 1);
            db.checkpoint().unwrap();
        }
        {
            // And survives the checkpoint via the id-carryover record.
            let db = ProfileDb::open(&root).unwrap();
            let (e, dup) = db.merge_store_logged(&entry("mcf", 3, 10), 0xabc).unwrap();
            assert!(dup);
            assert_eq!(e.runs, 1);
        }
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn reopen_after_merges_is_idempotent() {
        let root = tmpdir("reopen");
        {
            let db = ProfileDb::open(&root).unwrap();
            db.merge_store(&entry("mcf", 3, 10)).unwrap();
            db.merge_store(&entry("mcf", 3, 5)).unwrap();
        }
        // The WAL still holds both redo records; replay must not
        // double-apply them.
        let db = ProfileDb::open(&root).unwrap();
        let report = db.recovery_report().unwrap();
        assert_eq!(report.replayed, 0, "{report}");
        assert_eq!(report.already_applied, 2, "{report}");
        let e = db.load("mcf", 3).unwrap();
        assert_eq!(e.runs, 2);
        assert_eq!(e.edge_tables[0][0], 15);
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn injected_fsync_failure_fails_the_merge() {
        let root = tmpdir("fsyncfail");
        let faults = DiskFaults {
            fsync_fail: Some(1),
            ..DiskFaults::default()
        };
        let db = ProfileDb::open_with(&root, faults).unwrap();
        let err = db.merge_store(&entry("mcf", 3, 10)).unwrap_err();
        assert!(matches!(err, DbError::Io(_)), "{err}");
        // The one-shot fault is spent; the retry lands.
        let merged = db.merge_store(&entry("mcf", 3, 10)).unwrap();
        assert_eq!(merged.runs, 1);
        let _ = fs::remove_dir_all(&root);
    }
}
