//! Startup recovery: turn whatever bytes a crash left behind into a
//! consistent store, without ever panicking or aborting.
//!
//! The recovery state machine scans the WAL front to back:
//!
//! ```text
//!         ┌────────────┐  record verifies   ┌──────────────┐
//! scan ──▶│ good record │──────────────────▶│ replay (redo) │
//!         └────────────┘                    └──────────────┘
//!               │ checksum fails, boundary plausible
//!               ▼
//!         ┌────────────┐  bytes preserved under quarantine/
//!         │ quarantine  │──▶ keep scanning at the next boundary
//!         └────────────┘
//!               │ framing lost (bad tag / length overruns EOF)
//!               ▼
//!         ┌────────────┐  file truncated at the last good byte
//!         │ torn tail   │──▶ stop
//!         └────────────┘
//! ```
//!
//! Replay is **idempotent and non-regressing**: an `E` record (and a `D`
//! record's post-merge text) holds the absolute post-merge entry, and it
//! is applied only when the entry file is missing, torn or empty (no
//! verifying checksum trailer as its last line), or older (fewer merged
//! runs) than the record. Entry files are a write-back cache of the log,
//! rewritten without fsync, so any of those states can follow a crash.
//! So a record whose apply completed before the crash is a no-op, a
//! record that never reached its entry file is redone, and a record that
//! is *older* than the on-disk entry (possible when a later redo for the
//! same key survived) never rolls state back. A recovered store is
//! therefore always equal to the state just before or just after each
//! logged merge — never a mix.
//!
//! The log is one file, `wal.log`. A root that still holds a sealed
//! segment of the earlier segmented layout (`wal.NNNNNN.log`) is refused
//! with [`DbError::SealedSegment`] before anything is touched, and
//! [`check`] reports it CORRUPT: the segment may hold acknowledged merges
//! that were never checkpointed.

use crate::context::{CausalContext, Dot};
use crate::entry::{DbError, ProfileEntry};
use crate::repl::DeltaRecord;
use crate::store::{entry_file_text, is_complete_entry_file, write_back};
use crate::wal::{scan_wal, DiskFaults, RecordKind, ScanItem, Wal, WalRecord, WalScan, WAL_FILE};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::path::Path;

/// Subdirectory corrupt WAL bytes are preserved under.
pub const QUARANTINE_DIR: &str = "quarantine";

/// What recovery found and did.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// The WAL ended in a valid checkpoint footer (clean shutdown).
    pub clean: bool,
    /// Redo records whose state was written to entry files.
    pub replayed: usize,
    /// Redo records already reflected on disk (idempotent no-ops).
    pub already_applied: usize,
    /// Checksum-failed records preserved under `quarantine/`.
    pub quarantined: usize,
    /// Redo records whose payload no longer parsed (also quarantined).
    pub unparseable: usize,
    /// Bytes cut from a torn tail, when one was found.
    pub torn_tail_bytes: Option<u64>,
    /// Idempotency ids recovered from `E`, `D` and `I` records.
    pub applied_ids: Vec<u64>,
}

/// What a replay rebuilds besides entry files: the state a store handle
/// resumes from.
#[derive(Debug, Default)]
pub(crate) struct Replayed {
    pub(crate) report: RecoveryReport,
    /// Keys whose entry file the replay rewrote (without fsync).
    pub(crate) dirty: BTreeSet<(String, u64)>,
    /// Dots of the `D` and `K` records.
    pub(crate) context: CausalContext,
    /// The logged deltas, by dot (what anti-entropy may re-send).
    pub(crate) retained: BTreeMap<Dot, DeltaRecord>,
    /// Fsyncs the replay issued (torn-tail truncations).
    pub(crate) fsyncs: u64,
}

impl RecoveryReport {
    /// Anything other than a clean, empty replay happened.
    pub fn eventful(&self) -> bool {
        self.replayed > 0
            || self.quarantined > 0
            || self.unparseable > 0
            || self.torn_tail_bytes.is_some()
    }
}

impl fmt::Display for RecoveryReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "recovery: {} replayed, {} already applied, {} quarantined, {} unparseable, {}, {}",
            self.replayed,
            self.already_applied,
            self.quarantined,
            self.unparseable,
            match self.torn_tail_bytes {
                Some(n) => format!("torn tail {n} byte(s) truncated"),
                None => "no torn tail".to_string(),
            },
            if self.clean {
                "clean footer"
            } else {
                "no clean footer"
            }
        )
    }
}

fn quarantine_bytes(root: &Path, offset: u64, bytes: &[u8]) -> Result<(), DbError> {
    let dir = root.join(QUARANTINE_DIR);
    std::fs::create_dir_all(&dir).map_err(|e| DbError::Io(format!("{}: {e}", dir.display())))?;
    let path = dir.join(format!("wal-{offset:012}.bin"));
    std::fs::write(&path, bytes).map_err(|e| DbError::Io(format!("{}: {e}", path.display())))
}

/// Should `record_entry` be written over what the store currently holds
/// for its key? Missing, torn and corrupt files are always overwritten;
/// otherwise only a strictly newer record (more merged runs) applies.
fn should_apply(root: &Path, rec: &ProfileEntry) -> bool {
    match entry_file_text(root, &rec.workload, rec.module_hash)
        .ok()
        .flatten()
        .filter(|text| is_complete_entry_file(text))
        .and_then(|text| ProfileEntry::from_text(&text).ok())
    {
        Some(current) => current.runs < rec.runs,
        None => true,
    }
}

/// Runs recovery over the database at `root`: replays complete WAL
/// records, truncates a torn tail, quarantines checksum-failed bytes,
/// and returns what happened. Safe to run any number of times.
///
/// # Errors
///
/// Returns [`DbError::Io`] only for filesystem failures while repairing,
/// and [`DbError::SealedSegment`] for a root holding a sealed segment of
/// the segmented layout; corrupt *content* never errors — it is
/// quarantined or truncated.
pub fn recover(root: &Path, faults: &DiskFaults) -> Result<RecoveryReport, DbError> {
    replay(root, &scan_wal(root, faults)?).map(|state| state.report)
}

/// [`recover`] from `scan`, a scan of the log under `root`, keeping
/// everything the replay rebuilt.
pub(crate) fn replay(root: &Path, scan: &WalScan) -> Result<Replayed, DbError> {
    let path = root.join(WAL_FILE);
    let mut state = Replayed::default();
    for item in &scan.items {
        match item {
            ScanItem::Record { offset, record } => {
                if !replay_record(root, record, &mut state)? {
                    state.report.unparseable += 1;
                    quarantine_bytes(root, *offset, &record.payload)?;
                }
            }
            ScanItem::Corrupt { offset, bytes } => {
                state.report.quarantined += 1;
                quarantine_bytes(root, *offset, bytes)?;
            }
            ScanItem::TornTail { offset } => {
                if *offset == 0 {
                    // Bad magic: the whole file is unusable. Preserve it
                    // and start a fresh log.
                    if let Ok(bytes) = std::fs::read(&path) {
                        quarantine_bytes(root, 0, &bytes)?;
                        state.report.quarantined += 1;
                    }
                    let _ = std::fs::remove_file(&path);
                } else {
                    Wal::truncate_to(&path, *offset, &mut state.fsyncs)?;
                }
                state.report.torn_tail_bytes = Some(scan.file_len - offset);
            }
        }
    }
    state.report.clean = scan.clean_footer;
    Ok(state)
}

/// Redoes one record's post-merge entry state when the entry file is
/// behind it; `false` when the payload does not parse.
fn redo(root: &Path, payload: &[u8], state: &mut Replayed) -> Result<bool, DbError> {
    let Some((text, entry)) = std::str::from_utf8(payload)
        .ok()
        .and_then(|t| Some((t, ProfileEntry::from_text(t).ok()?)))
    else {
        return Ok(false);
    };
    if should_apply(root, &entry) {
        write_back(root, &entry.workload, entry.module_hash, text)?;
        state.dirty.insert((entry.workload, entry.module_hash));
        state.report.replayed += 1;
    } else {
        state.report.already_applied += 1;
    }
    Ok(true)
}

/// Folds one verified record's idempotency ids, dot and causal context
/// into `state` — everything a store handle resumes from besides entry
/// files; `false` when its payload is unusable.
pub(crate) fn fold_record(record: &WalRecord, state: &mut Replayed) -> bool {
    match record.kind {
        RecordKind::Entry | RecordKind::Delta if record.req_id != 0 => {
            state.report.applied_ids.push(record.req_id);
        }
        RecordKind::Ids => state.report.applied_ids.extend(record.unpack_ids()),
        _ => {}
    }
    match record.kind {
        RecordKind::Delta => match record.unpack_delta() {
            Some(delta) => {
                if let Some(dot) = delta.dot {
                    state.context.insert(dot);
                    state.retained.insert(dot, delta);
                }
            }
            None => return false,
        },
        RecordKind::Context => {
            let Some(ctx) = std::str::from_utf8(&record.payload)
                .ok()
                .and_then(|t| CausalContext::from_text(t).ok())
            else {
                return false;
            };
            state.context.union(&ctx);
        }
        _ => {}
    }
    true
}

/// Folds one verified record into the replay and redoes its entry
/// state; `false` when its payload is unusable (the caller quarantines
/// it).
fn replay_record(root: &Path, record: &WalRecord, state: &mut Replayed) -> Result<bool, DbError> {
    if !fold_record(record, state) {
        return Ok(false);
    }
    match record.redo_payload() {
        Some(payload) => redo(root, payload, state),
        None => Ok(true),
    }
}

/// Read-only integrity check: scans the WAL (no repair) and loads every
/// entry file, verifying checksum trailers. Returns a deterministic
/// multi-line report and whether the store is healthy.
///
/// A pending (not yet checkpointed) WAL tail is *not* unhealthy — it
/// just means recovery will have redo work at next open — but corrupt
/// records, a torn tail, a sealed segment of the segmented layout, and
/// unreadable entries are.
pub fn check(root: &Path) -> (String, bool) {
    use std::fmt::Write as _;
    let mut out = String::new();
    let mut healthy = match scan_wal(root, &DiskFaults::default()) {
        Ok(scan) => {
            let corrupt = scan
                .items
                .iter()
                .filter(|i| matches!(i, ScanItem::Corrupt { .. }))
                .count();
            let torn = scan
                .items
                .iter()
                .any(|i| matches!(i, ScanItem::TornTail { .. }));
            let _ = writeln!(
                out,
                "wal: {} pending record(s), {corrupt} corrupt, {}, {}",
                scan.pending_entries(),
                if torn { "torn tail" } else { "no torn tail" },
                if scan.clean_footer {
                    "clean footer"
                } else {
                    "no clean footer"
                }
            );
            corrupt == 0 && !torn
        }
        Err(e) => {
            let _ = writeln!(out, "wal: {e}");
            false
        }
    };
    match crate::store::ProfileDb::open_unrecovered(root) {
        Ok(db) => match db.list_verified() {
            Ok((records, bad)) => {
                let _ = writeln!(out, "entries: {} readable, {} corrupt", records.len(), bad);
                for rec in &records {
                    let _ = writeln!(
                        out,
                        "  {} @ {:016x}: {} run(s)",
                        rec.workload, rec.module_hash, rec.runs
                    );
                }
                if bad > 0 {
                    healthy = false;
                }
            }
            Err(e) => {
                let _ = writeln!(out, "entries: unlistable: {e}");
                healthy = false;
            }
        },
        Err(e) => {
            let _ = writeln!(out, "store: unopenable: {e}");
            healthy = false;
        }
    }
    let _ = writeln!(out, "verdict: {}", if healthy { "ok" } else { "CORRUPT" });
    (out, healthy)
}
