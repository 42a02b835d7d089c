//! The on-disk store: one text file per `(workload, module hash)` key
//! under a root directory, a write-ahead log in front of every merge,
//! and checksum trailers on entry files.
//!
//! Durability contract: [`ProfileDb::merge_store_logged`] and
//! [`ProfileDb::apply_deltas`] append the post-merge state to the WAL
//! and fsync it *before* rewriting the entry file — the commit point is
//! that one fsync. Entry files are a write-back cache of the log: they
//! are rewritten without fsync, redone by [`crate::recovery::recover`]
//! at the next open when a crash left them missing, torn or stale, and
//! flushed (file and directory fsync) before a checkpoint drops the log
//! records that could redo them. A crash before the log fsync loses
//! only an unacknowledged merge. Idempotency keys (nonzero request ids)
//! are recorded in the WAL and deduplicated both live and at replay, so
//! a retried merge can never double-count. A merge checkpoints the log
//! once it has grown by [`CHECKPOINT_BYTES`] since the last checkpoint.

use crate::context::{CausalContext, Dot};
use crate::entry::{DbError, ProfileEntry};
use crate::hash::fnv1a64;
use crate::recovery::{fold_record, replay, RecoveryReport, Replayed};
use crate::repl::{DeltaApplyReport, DeltaRecord};
use crate::wal::{
    decode_log_image, encode_log_image, fsync, scan_wal, sync_dir, write_atomic, DiskFaults,
    RecordKind, ScanItem, Wal, WalRecord, CHECKPOINT_BYTES,
};
use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet, VecDeque};
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

/// Most-recent idempotency keys remembered for live dedup (and carried
/// across checkpoints). Old ids age out FIFO; replicated deltas dedup by
/// dot, so the set only has to cover client retries.
const APPLIED_IDS_CAP: usize = 4096;

#[derive(Debug)]
struct DbState {
    wal: Wal,
    applied: HashSet<u64>,
    applied_order: VecDeque<u64>,
    /// Dots of every replicated delta this store holds: merged here, or
    /// skipped because its request id already merged.
    context: CausalContext,
    /// Logged deltas some replica may still lack, by dot: what
    /// anti-entropy re-sends. A floor from the router prunes it, and a
    /// checkpoint carries the rest into the fresh log.
    retained: BTreeMap<Dot, DeltaRecord>,
    /// The origin this handle stamps dot-less deltas with (see
    /// [`Dot::fresh_origin`]) and the last `n` it stamped.
    origin: u64,
    stamped: u64,
    /// Keys whose entry file was rewritten without fsync since the last
    /// flush.
    dirty: BTreeSet<(String, u64)>,
    /// Fsyncs issued outside the WAL handle: entry files, the root
    /// directory, and recovery's truncations.
    fsyncs: u64,
    /// Decoded entries already read or merged through this handle, by
    /// key, each with its rendered text. Every write through the handle
    /// drops or replaces its key, so a hit equals what a fresh read of
    /// the file would return — as long as nothing else edits the store
    /// (see [`ProfileDb`]).
    entries: HashMap<(String, u64), Decoded>,
}

/// A decoded entry and its [`ProfileEntry::to_text`]: the text a merge
/// rendered for its log record, or rendered on the first read of an
/// entry decoded from its file.
#[derive(Debug)]
struct Decoded {
    entry: Arc<ProfileEntry>,
    text: Option<String>,
}

impl DbState {
    fn new(wal: Wal) -> DbState {
        DbState {
            wal,
            applied: HashSet::new(),
            applied_order: VecDeque::new(),
            context: CausalContext::default(),
            retained: BTreeMap::new(),
            origin: Dot::fresh_origin(true),
            stamped: 0,
            dirty: BTreeSet::new(),
            fsyncs: 0,
            entries: HashMap::new(),
        }
    }

    /// Drops a key's decoded entry and its text ahead of a write to its
    /// file.
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

    /// Records a logged delta's dot as held and keeps the delta for
    /// repair.
    fn hold(&mut self, delta: DeltaRecord) {
        if let Some(dot) = delta.dot {
            self.context.insert(dot);
            self.retained.insert(dot, delta);
        }
    }

    /// The records a checkpoint carries into the fresh log: the id set,
    /// the causal context, and the retained deltas (without redo state —
    /// the entry files are flushed by then).
    fn carry(&self) -> Vec<WalRecord> {
        let ids: Vec<u64> = self.applied_order.iter().copied().collect();
        let mut carry = Vec::with_capacity(2 + self.retained.len());
        if !ids.is_empty() {
            carry.push(WalRecord::ids(&ids));
        }
        if self.context != CausalContext::default() {
            carry.push(WalRecord::context(&self.context));
        }
        carry.extend(self.retained.values().map(|d| WalRecord::delta(d, "")));
        carry
    }
}

/// A profile database rooted at a directory.
///
/// Concurrency: an entry file is replaced by renaming a temp file over
/// it, so readers never see a torn file while the process lives, and the
/// read-merge-write sequence of [`ProfileDb::merge_store_logged`] is
/// serialized on an internal lock, so concurrent merges from the daemon's
/// worker pool never interleave mid-merge.
///
/// Ownership: [`ProfileDb::load`] keeps each entry it decodes (and a
/// merge, each entry it writes, with the text it logged) and serves later
/// loads of that key from memory until a write through this handle
/// replaces or removes it; [`ProfileDb::load_text`] renders a decoded
/// entry's text once and keeps it beside the entry. A
/// handle therefore does not see outside edits to an entry file it has
/// already read; reopen the store to pick them up.
#[derive(Debug)]
pub struct ProfileDb {
    root: PathBuf,
    state: Mutex<DbState>,
    recovered: bool,
    recovery: Option<RecoveryReport>,
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
        Err(DbError::Invalid {
            what: "workload name",
            detail: format!("`{name}` not storable (allowed: alphanumerics, `_`, `-`, `.`)"),
        })
    }
}

fn entry_path(root: &Path, workload: &str, module_hash: u64) -> PathBuf {
    root.join(format!("{workload}@{module_hash:016x}{SUFFIX}"))
}

/// Entry text plus its checksum trailer line.
fn checksummed(text: &str) -> String {
    format!("{text}{CHECKSUM_PREFIX}{:016x}\n", fnv1a64(text.as_bytes()))
}

/// True when `text` is a whole entry file as this store writes it: its
/// last line is a checksum trailer over everything before it. A torn,
/// empty or trailer-less file is not.
pub(crate) fn is_complete_entry_file(text: &str) -> bool {
    let Some(start) = text.rfind(CHECKSUM_PREFIX) else {
        return false;
    };
    let hex = &text[start + CHECKSUM_PREFIX.len()..];
    hex.len() == 17
        && hex.ends_with('\n')
        && u64::from_str_radix(&hex[..16], 16)
            .is_ok_and(|want| want == fnv1a64(&text.as_bytes()[..start]))
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

/// Atomically and durably writes `entry` under `root` (a raw store).
fn write_entry_file(root: &Path, entry: &ProfileEntry, fsyncs: &mut u64) -> Result<(), DbError> {
    let path = entry_path(root, &entry.workload, entry.module_hash);
    write_atomic(&path, checksummed(&entry.to_text()).as_bytes(), fsyncs)
}

/// Rewrites the entry file under a key from its entry text, without
/// fsync: a temp file renamed over it, so a crashed process never leaves
/// a torn file. The log holds the durable copy; shared with recovery's
/// replay.
pub(crate) fn write_back(
    root: &Path,
    workload: &str,
    module_hash: u64,
    text: &str,
) -> Result<(), DbError> {
    let path = entry_path(root, workload, module_hash);
    let tmp = path.with_extension("tmp");
    fs::write(&tmp, checksummed(text)).map_err(|e| io_err(&tmp, e))?;
    fs::rename(&tmp, &path).map_err(|e| io_err(&path, e))
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
    /// repair writes fail, and [`DbError::SealedSegment`] for a root the
    /// segmented layout left a sealed segment in. Corrupt content never
    /// fails the open.
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
        let scan = scan_wal(&root, &faults)?;
        let replayed = replay(&root, &scan)?;
        let report = replayed.report;
        let mut state = DbState::new(Wal::open_append(&root, &scan, faults)?);
        state.context = replayed.context;
        state.retained = replayed.retained;
        state.dirty = replayed.dirty;
        state.fsyncs = replayed.fsyncs;
        for id in &report.applied_ids {
            state.remember(*id);
        }
        Ok(ProfileDb {
            root,
            state: Mutex::new(state),
            recovered: true,
            recovery: Some(report),
        })
    }

    /// Opens without running recovery — for inspection tools. A store
    /// opened this way refuses to [`ProfileDb::gc`] while the WAL holds
    /// a pending tail, since removal decisions made on unreplayed state
    /// would be wrong. It still resumes the log's ids, causal context and
    /// logged deltas, so a checkpoint through it carries them forward.
    ///
    /// # Errors
    ///
    /// Returns [`DbError::Io`] on directory or WAL trouble, and
    /// [`DbError::SealedSegment`] as [`ProfileDb::open`] does.
    pub fn open_unrecovered(root: impl Into<PathBuf>) -> Result<Self, DbError> {
        let root = root.into();
        fs::create_dir_all(&root).map_err(|e| io_err(&root, e))?;
        let scan = scan_wal(&root, &DiskFaults::default())?;
        let mut held = Replayed::default();
        for item in &scan.items {
            if let ScanItem::Record { record, .. } = item {
                fold_record(record, &mut held);
            }
        }
        let wal = Wal::open_append(&root, &scan, DiskFaults::default())?;
        let mut state = DbState::new(wal);
        state.context = held.context;
        state.retained = held.retained;
        for id in &held.report.applied_ids {
            state.remember(*id);
        }
        Ok(ProfileDb {
            root,
            state: Mutex::new(state),
            recovered: false,
            recovery: None,
        })
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

    /// Every fsync this handle issued since open: log syncs and
    /// checkpoints, entry-file and directory flushes, and recovery's.
    pub fn fsyncs(&self) -> u64 {
        let st = self.lock();
        st.fsyncs + st.wal.stats().fsyncs
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
    /// [`DbError::Invalid`] for unstorable workload names.
    pub fn store(&self, entry: &ProfileEntry) -> Result<(), DbError> {
        check_workload_name(&entry.workload)?;
        let mut st = self.lock();
        st.forget(&entry.workload, entry.module_hash);
        write_entry_file(&self.root, entry, &mut st.fsyncs)
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
        let mut st = self.lock();
        let decoded = self.load_locked(&mut st, workload, module_hash)?;
        Ok(ProfileEntry::clone(&decoded.entry))
    }

    /// The [`ProfileEntry::to_text`] of [`ProfileDb::load`]'s entry,
    /// rendered once per decoded entry and copied out after that.
    ///
    /// # Errors
    ///
    /// As [`ProfileDb::load`].
    pub fn load_text(&self, workload: &str, module_hash: u64) -> Result<String, DbError> {
        self.load_text_locked(&mut self.lock(), workload, module_hash)
            .map(str::to_string)
    }

    fn load_text_locked<'a>(
        &self,
        st: &'a mut DbState,
        workload: &str,
        module_hash: u64,
    ) -> Result<&'a str, DbError> {
        let decoded = self.load_locked(st, workload, module_hash)?;
        let entry = &decoded.entry;
        Ok(decoded.text.get_or_insert_with(|| entry.to_text()))
    }

    /// The read-through step of [`ProfileDb::load`], under the state lock
    /// the caller already holds.
    fn load_locked<'a>(
        &self,
        st: &'a mut DbState,
        workload: &str,
        module_hash: u64,
    ) -> Result<&'a mut Decoded, DbError> {
        match st.entries.entry((workload.to_string(), module_hash)) {
            Entry::Occupied(hit) => Ok(hit.into_mut()),
            Entry::Vacant(slot) => {
                let entry = Arc::new(self.read_entry(workload, module_hash)?);
                Ok(slot.insert(Decoded { entry, text: None }))
            }
        }
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
    /// then rewrite the entry file (without fsync). Returns the
    /// accumulated entry and whether the request id was a duplicate (in
    /// which case nothing was merged and the stored entry is returned
    /// as-is).
    ///
    /// An acknowledgement sent after this returns `Ok` is durable: the
    /// fsynced redo record reconstructs the entry file even if the
    /// process dies before (or during) the rewrite.
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
            return Ok((ProfileEntry::clone(&stored.entry), true));
        }
        let merged = self.merge_locked(&mut st, entry, req_id, None)?;
        Ok((Arc::unwrap_or_clone(merged), false))
    }

    /// Applies a replication delta batch, exactly once per delta: a
    /// delta whose dot the store holds is skipped; one whose request id
    /// already merged (a retried write under a fresh dot) only has its
    /// dot held; any other merges under its dot — or under a dot stamped
    /// with this handle's own origin when it arrived without one — and
    /// is kept for anti-entropy. One log fsync per merged delta, none
    /// per skipped one.
    ///
    /// # Errors
    ///
    /// Propagates parse/merge/WAL failures of the first failing delta;
    /// deltas before it are applied and durable (redelivery of the whole
    /// batch is the intended retry path — dedup skips them).
    pub fn apply_deltas(&self, deltas: &[DeltaRecord]) -> Result<DeltaApplyReport, DbError> {
        let mut report = DeltaApplyReport::default();
        for d in deltas {
            let entry = ProfileEntry::from_text(&d.entry_text)?;
            check_workload_name(&entry.workload)?;
            let mut st = self.lock();
            if d.dot.is_some_and(|dot| st.context.contains(dot)) {
                report.deduped += 1;
            } else if d.req_id != 0 && st.applied.contains(&d.req_id) {
                // Logged without fsync: losing the record in a crash only
                // makes repair re-send the dot, which the id skips again.
                if d.dot.is_some() {
                    st.wal.append(&WalRecord::delta(d, ""))?;
                    st.hold(d.clone());
                    self.checkpoint_if_due(&mut st)?;
                }
                report.deduped += 1;
            } else {
                st.stamped += 1;
                let own = Dot {
                    origin: st.origin,
                    n: st.stamped,
                };
                let delta = DeltaRecord {
                    dot: Some(d.dot.unwrap_or(own)),
                    ..d.clone()
                };
                self.merge_locked(&mut st, &entry, d.req_id, Some(delta))?;
                report.applied += 1;
            }
        }
        Ok(report)
    }

    /// The read-merge-log-apply step of both merge paths, under the
    /// state lock: merges `entry` into the stored entry, logs the result
    /// (`E` for a direct merge, `D` carrying `delta` for a replicated
    /// one), fsyncs the log once, rewrites the entry file without fsync,
    /// and checkpoints when due.
    fn merge_locked(
        &self,
        st: &mut DbState,
        entry: &ProfileEntry,
        req_id: u64,
        delta: Option<DeltaRecord>,
    ) -> Result<Arc<ProfileEntry>, DbError> {
        // The key's file is about to be rewritten, so its decoded entry
        // and text leave the cache here: the entry moved out rather than
        // copied, and the merged entry with its logged text take their
        // place once the file holds them.
        let key = (entry.workload.clone(), entry.module_hash);
        let existing = match st.entries.remove(&key) {
            Some(cached) => Ok(Arc::unwrap_or_clone(cached.entry)),
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
        let text = merged.to_text();
        st.wal.append(&match &delta {
            Some(d) => WalRecord::delta(d, &text),
            None => WalRecord::entry(req_id, &text),
        })?;
        st.wal.sync()?;
        st.remember(req_id);
        if let Some(d) = delta {
            st.hold(d);
        }
        write_back(&self.root, &key.0, key.1, &text)?;
        let merged = Arc::new(merged);
        let decoded = Decoded {
            entry: Arc::clone(&merged),
            text: Some(text),
        };
        st.entries.insert(key.clone(), decoded);
        st.dirty.insert(key);
        self.checkpoint_if_due(st)?;
        Ok(merged)
    }

    /// Checkpoints, inside the merge's critical section, once the log
    /// has grown by more than [`CHECKPOINT_BYTES`] since the last one.
    fn checkpoint_if_due(&self, st: &mut DbState) -> Result<(), DbError> {
        if st.wal.appended() > CHECKPOINT_BYTES {
            self.checkpoint_locked(st)?;
        }
        Ok(())
    }

    /// Folds the WAL away: the entry files the log was redoing are
    /// flushed first (file and directory fsync), then the log is
    /// atomically replaced by a fresh one carrying only the
    /// idempotency-id set, the causal context, the deltas repair may
    /// still need, and a clean footer. Called on graceful daemon
    /// shutdown, by [`ProfileDb::gc`], and by a merge once the log grew
    /// by [`CHECKPOINT_BYTES`].
    ///
    /// # Errors
    ///
    /// Returns [`DbError::Io`] on filesystem trouble (the old log stays).
    pub fn checkpoint(&self) -> Result<(), DbError> {
        self.checkpoint_locked(&mut self.lock())
    }

    fn checkpoint_locked(&self, st: &mut DbState) -> Result<(), DbError> {
        self.flush_dirty(st)?;
        let carry = st.carry();
        st.wal.checkpoint(&carry)
    }

    /// Fsyncs every entry file rewritten since the last flush, then the
    /// root directory, so the log records that could redo them may go.
    fn flush_dirty(&self, st: &mut DbState) -> Result<(), DbError> {
        if st.dirty.is_empty() {
            return Ok(());
        }
        for (workload, module_hash) in &st.dirty {
            let path = self.path_for(workload, *module_hash);
            match fs::File::open(&path) {
                Ok(file) => fsync(&file, &mut st.fsyncs).map_err(|e| io_err(&path, e))?,
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
                Err(e) => return Err(io_err(&path, e)),
            }
        }
        sync_dir(&self.root, &mut st.fsyncs);
        st.dirty.clear();
        Ok(())
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

    /// This store's whole replicated state, for a full-state transfer
    /// to a sibling: the log image a checkpoint would write — the id,
    /// context and retained-delta records it carries — plus one `E`
    /// record per entry, as [`encode_log_image`] text.
    ///
    /// # Errors
    ///
    /// Returns [`DbError::Io`] on directory trouble or when an entry
    /// file fails to verify: a partial state must not be shipped.
    pub fn export_state(&self) -> Result<String, DbError> {
        let mut st = self.lock();
        let (records, bad) = self.list_verified()?;
        if bad > 0 {
            let root = self.root.display();
            return Err(DbError::Io(format!(
                "{root}: {bad} entry file(s) fail to verify"
            )));
        }
        let mut image = st.carry();
        for r in records {
            let text = self.load_text_locked(&mut st, &r.workload, r.module_hash)?;
            image.push(WalRecord::entry(0, text));
        }
        Ok(encode_log_image(&image))
    }

    /// Replaces this store's state with a sibling's [`export_state`]
    /// text, atomically: the image becomes the log through one
    /// checkpoint, and only then are the entry files redone from its `E`
    /// records (a crash in between is redone at the next open) and the
    /// ones it lacks removed.
    ///
    /// [`export_state`]: ProfileDb::export_state
    ///
    /// # Errors
    ///
    /// Returns [`DbError::Corrupt`] when the text is not a whole,
    /// verified image of valid records, [`DbError::Invalid`] when its
    /// context does not cover this store's (it would drop dots only this
    /// store holds), and [`DbError::Io`] on filesystem trouble; until
    /// the image is in place the store is unchanged.
    pub fn install_state(&self, text: &str) -> Result<(), DbError> {
        let image = decode_log_image(text)?;
        let mut held = Replayed::default();
        let mut entries = Vec::new();
        for record in &image {
            let bad = || DbError::Corrupt {
                what: "installed state",
                detail: format!("unusable {:?} record", record.kind),
            };
            if !fold_record(record, &mut held) {
                return Err(bad());
            }
            if record.kind == RecordKind::Entry {
                let text = std::str::from_utf8(&record.payload).map_err(|_| bad())?;
                let entry = ProfileEntry::from_text(text)?;
                check_workload_name(&entry.workload)?;
                entries.push((entry.workload, entry.module_hash, text));
            }
        }
        let mut st = self.lock();
        if held.context.intersection(&st.context) != st.context {
            return Err(DbError::Invalid {
                what: "installed state",
                detail: "it lacks dots this store holds; ship them to its source first".into(),
            });
        }
        st.wal.checkpoint(&image)?;
        st.applied.clear();
        st.applied_order.clear();
        for &id in &held.report.applied_ids {
            st.remember(id);
        }
        st.context = held.context;
        st.retained = held.retained;
        st.entries.clear();
        st.dirty = entries.iter().map(|(w, h, _)| (w.clone(), *h)).collect();
        for rec in self.list()? {
            if !st.dirty.contains(&(rec.workload.clone(), rec.module_hash)) {
                self.remove_file(&rec.workload, rec.module_hash)?;
            }
        }
        for (workload, module_hash, text) in entries {
            write_back(&self.root, &workload, module_hash, text)?;
        }
        Ok(())
    }

    /// The dots this store holds (anti-entropy compares these across a
    /// shard's replicas).
    pub fn causal_context(&self) -> CausalContext {
        self.lock().context.clone()
    }

    /// The retained deltas whose dots `held` lacks, in dot order, up to
    /// about `max_bytes` of entry text (at least one delta when any is
    /// missing) — what anti-entropy ships to a sibling with context
    /// `held`.
    pub fn deltas_missing_from(&self, held: &CausalContext, max_bytes: usize) -> Vec<DeltaRecord> {
        let st = self.lock();
        let mut out: Vec<DeltaRecord> = Vec::new();
        let mut bytes = 0usize;
        for (dot, delta) in &st.retained {
            if held.contains(*dot) {
                continue;
            }
            if !out.is_empty() && bytes + delta.entry_text.len() > max_bytes {
                break;
            }
            bytes += delta.entry_text.len();
            out.push(delta.clone());
        }
        out
    }

    /// Adopts a shard-wide floor — dots every replica of the shard holds
    /// — by dropping those deltas from the repair set; the next
    /// compaction drops them from the log.
    pub fn adopt_floor(&self, floor: &CausalContext) {
        self.lock().retained.retain(|dot, _| !floor.contains(*dot));
    }

    /// Deletes the entry under a key (no-op when absent).
    ///
    /// # Errors
    ///
    /// Returns [`DbError::Io`] when removal fails for another reason.
    pub fn remove(&self, workload: &str, module_hash: u64) -> Result<(), DbError> {
        let mut st = self.lock();
        st.forget(workload, module_hash);
        st.dirty.remove(&(workload.to_string(), module_hash));
        self.remove_file(workload, module_hash)
    }

    fn remove_file(&self, workload: &str, module_hash: u64) -> Result<(), DbError> {
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
        let unstorable = |err: DbError| {
            matches!(
                err,
                DbError::Invalid {
                    what: "workload name",
                    ..
                }
            )
        };
        assert!(unstorable(db.store(&e).unwrap_err()));
        assert!(unstorable(db.load("a/b", 1).unwrap_err()));
        assert!(unstorable(db.merge_store(&e).unwrap_err()));
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

    fn delta(id: u64, dot: Option<Dot>, e: &ProfileEntry) -> DeltaRecord {
        DeltaRecord {
            req_id: id,
            dot,
            entry_text: e.to_text(),
        }
    }

    #[test]
    fn one_fsync_per_merge_and_none_per_duplicate() {
        let db = ProfileDb::open(tmpdir("fsyncs")).unwrap();
        let e = entry("mcf", 3, 10);
        let dot = |n| Some(Dot { origin: 1, n });
        let mut last = db.fsyncs();
        let mut grew = || {
            let now = db.fsyncs();
            now - std::mem::replace(&mut last, now)
        };
        db.merge_store_logged(&e, 0x10).unwrap();
        assert_eq!(grew(), 1, "direct merge");
        db.merge_store_logged(&e, 0x10).unwrap();
        assert_eq!(grew(), 0, "direct duplicate");
        let report = db.apply_deltas(&[delta(0x11, dot(1), &e)]).unwrap();
        assert_eq!((report.applied, grew()), (1, 1), "dotted delta");
        let report = db.apply_deltas(&[delta(0x12, None, &e)]).unwrap();
        assert_eq!((report.applied, grew()), (1, 1), "dot-less delta");
        let report = db
            .apply_deltas(&[delta(0x13, dot(1), &e), delta(0x11, dot(2), &e)])
            .unwrap();
        assert_eq!(
            (report.deduped, grew()),
            (2, 0),
            "held dot, then a known id under a fresh dot"
        );
        assert!(db.causal_context().contains(Dot { origin: 1, n: 2 }));
        assert_eq!(db.load("mcf", 3).unwrap().runs, 3);
        let _ = fs::remove_dir_all(db.root());
    }

    #[test]
    fn checkpoint_flushes_every_dirty_entry_before_truncating() {
        let db = ProfileDb::open(tmpdir("flush")).unwrap();
        for (i, key) in [1u64, 2, 1, 3].iter().enumerate() {
            db.merge_store_logged(&entry("gap", *key, 5), i as u64 + 1)
                .unwrap();
        }
        assert_eq!(db.lock().dirty.len(), 3);
        let before = db.fsyncs();
        db.checkpoint().unwrap();
        // Three entry files and the directory, then the fresh log's temp
        // file and the rename's directory sync.
        assert_eq!(db.fsyncs() - before, 3 + 1 + 2);
        assert!(db.lock().dirty.is_empty());
        assert!(!db.wal_pending());
        let before = db.fsyncs();
        db.checkpoint().unwrap();
        assert_eq!(db.fsyncs() - before, 2, "nothing dirty");
        let _ = fs::remove_dir_all(db.root());
    }

    #[test]
    fn gc_on_an_unrecovered_handle_keeps_the_context_and_repair_set() {
        let root = tmpdir("gc-context");
        let e = entry("mcf", 3, 10);
        let held = |db: &ProfileDb| {
            let all = db.deltas_missing_from(&CausalContext::default(), usize::MAX);
            (db.causal_context(), all)
        };
        let before = {
            let db = ProfileDb::open(&root).unwrap();
            let deltas: Vec<DeltaRecord> = (1..=3)
                .map(|n| delta(0x20 + n, Some(Dot { origin: 1, n }), &e))
                .collect();
            db.apply_deltas(&deltas).unwrap();
            // A pruned dot: held in the context, gone from the repair set.
            let mut floor = CausalContext::default();
            floor.insert(Dot { origin: 1, n: 1 });
            db.adopt_floor(&floor);
            db.checkpoint().unwrap();
            held(&db)
        };
        assert_eq!(before.1.len(), 2);
        let db = ProfileDb::open_unrecovered(&root).unwrap();
        db.gc(|_, _| true).unwrap();
        assert_eq!(held(&db), before, "unrecovered handle");
        drop(db);
        let db = ProfileDb::open(&root).unwrap();
        assert_eq!(held(&db), before, "after reopen");
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn installed_state_replaces_the_store_and_survives_a_crash_before_redo() {
        let dot = |origin, n| Some(Dot { origin, n });
        let source = ProfileDb::open(tmpdir("install-source")).unwrap();
        source
            .apply_deltas(&[
                delta(0x11, dot(1, 1), &entry("gap", 3, 5)),
                delta(0x22, dot(1, 2), &entry("mcf", 3, 7)),
            ])
            .unwrap();
        let state = source.export_state().unwrap();
        let root = tmpdir("install-target");
        let db = ProfileDb::open(&root).unwrap();
        // Holding a dot the state lacks, the store refuses it whole.
        db.apply_deltas(&[delta(0x99, dot(9, 1), &entry("vpr", 3, 1))])
            .unwrap();
        let err = db.install_state(&state).unwrap_err();
        assert!(
            matches!(
                err,
                DbError::Invalid {
                    what: "installed state",
                    ..
                }
            ),
            "{err}"
        );
        assert_eq!(db.load("vpr", 3).unwrap().runs, 1, "refused whole");
        drop(db);
        // A store the state covers takes it: its entry the state lacks
        // goes, and it exports the source's state byte for byte.
        let _ = fs::remove_dir_all(&root);
        let db = ProfileDb::open(&root).unwrap();
        db.store(&entry("vpr", 3, 1)).unwrap();
        db.apply_deltas(&[delta(0x11, dot(1, 1), &entry("gap", 3, 5))])
            .unwrap();
        db.install_state(&state).unwrap();
        assert_eq!(db.export_state().unwrap(), state);
        assert!(db.wal_pending(), "the image's entries stay redo-able");
        drop(db);
        // A crash after the image landed but before the entry files were
        // rewritten: recovery redoes them from the image.
        for name in ["gap", "mcf"] {
            fs::remove_file(entry_path(&root, name, 3)).unwrap();
        }
        let db = ProfileDb::open(&root).unwrap();
        assert_eq!(db.export_state().unwrap(), state);
        db.checkpoint().unwrap();
        drop(db);
        assert_eq!(
            ProfileDb::open(&root).unwrap().export_state().unwrap(),
            state
        );
        // The id set came along: a retried merge dedups.
        let db = ProfileDb::open(&root).unwrap();
        let report = db.apply_deltas(&[delta(0x22, dot(5, 1), &entry("mcf", 3, 7))]);
        assert_eq!(report.unwrap().deduped, 1);
        let _ = fs::remove_dir_all(&root);
        let _ = fs::remove_dir_all(source.root());
    }

    #[test]
    fn a_carry_past_the_bound_does_not_checkpoint_the_next_merge() {
        let root = tmpdir("big-carry");
        // An installed image of 32 entries of ~40 KB each: the fresh
        // log's carry alone is past the bound.
        let image: Vec<WalRecord> = (0..32)
            .map(|i| {
                let mut e = entry(&format!("w{i}"), 1, 1);
                e.edge_tables = vec![vec![7; 20_000]];
                WalRecord::entry(0, &e.to_text())
            })
            .collect();
        let db = ProfileDb::open(&root).unwrap();
        db.install_state(&encode_log_image(&image)).unwrap();
        let carry = fs::metadata(root.join(crate::wal::WAL_FILE)).unwrap().len();
        assert!(carry > CHECKPOINT_BYTES, "carry of {carry} bytes");
        let checkpoints = db.wal_stats().checkpoints;
        db.merge_store(&entry("mcf", 3, 10)).unwrap();
        assert_eq!(db.wal_stats().checkpoints, checkpoints, "after install");
        drop(db);
        // Reopened, the log's bytes past its footer are all it counts.
        let db = ProfileDb::open(&root).unwrap();
        db.merge_store(&entry("mcf", 3, 10)).unwrap();
        assert_eq!(db.wal_stats().checkpoints, 0, "after reopen");
        assert_eq!(db.load("mcf", 3).unwrap().runs, 2);
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
