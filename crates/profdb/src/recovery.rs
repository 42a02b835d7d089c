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
//! With a segmented WAL the same machine runs over the whole chain,
//! sealed segments first (ascending), the active log last — but the
//! torn-tail *truncation* arm is reserved for the active log. A sealed
//! segment was fsynced before its rename, so a torn tail there is not a
//! crash artifact; it is real damage to immutable history. Recovery
//! preserves the damaged bytes under `quarantine/`, leaves the segment
//! untouched, and reports it; [`check`] flags the store CORRUPT until an
//! operator decides.

use crate::context::{CausalContext, Dot};
use crate::entry::{DbError, ProfileEntry};
use crate::repl::DeltaRecord;
use crate::store::{entry_file_text, is_complete_entry_file, write_back};
use crate::wal::{scan_chain, DiskFaults, RecordKind, ScanItem, SegmentScan, Wal, WalRecord};
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
    /// Bytes cut from a torn tail of the *active* log, when one was
    /// found.
    pub torn_tail_bytes: Option<u64>,
    /// Sealed segments with a torn tail or bad magic — preserved and
    /// reported, never truncated (damaged immutable history).
    pub torn_sealed_segments: usize,
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
            || self.torn_sealed_segments > 0
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
        )?;
        if self.torn_sealed_segments > 0 {
            write!(
                f,
                ", {} torn sealed segment(s) preserved",
                self.torn_sealed_segments
            )?;
        }
        Ok(())
    }
}

/// Quarantine file name: sealed segments carry their index so bytes from
/// different segments at the same offset never collide; the active log
/// keeps the pre-segmentation name.
fn quarantine_name(segment: Option<u64>, offset: u64) -> String {
    match segment {
        Some(idx) => format!("wal-seg{idx:06}-{offset:012}.bin"),
        None => format!("wal-{offset:012}.bin"),
    }
}

fn quarantine_bytes(
    root: &Path,
    segment: Option<u64>,
    offset: u64,
    bytes: &[u8],
) -> Result<(), DbError> {
    let dir = root.join(QUARANTINE_DIR);
    std::fs::create_dir_all(&dir).map_err(|e| DbError::Io(format!("{}: {e}", dir.display())))?;
    let path = dir.join(quarantine_name(segment, offset));
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
/// records of the whole segment chain (sealed segments oldest-first,
/// active log last), truncates a torn tail of the active log,
/// quarantines checksum-failed bytes, preserves-and-reports damage in
/// sealed segments, and returns what happened. Safe to run any number
/// of times.
///
/// # Errors
///
/// Returns [`DbError::Io`] only for filesystem failures while repairing;
/// corrupt *content* never errors — it is quarantined or truncated.
pub fn recover(root: &Path, faults: &DiskFaults) -> Result<RecoveryReport, DbError> {
    replay(root, faults).map(|state| state.report)
}

/// [`recover`], keeping everything the replay rebuilt.
pub(crate) fn replay(root: &Path, faults: &DiskFaults) -> Result<Replayed, DbError> {
    let chain = scan_chain(root, faults)?;
    let mut state = Replayed::default();
    for seg in &chain {
        recover_segment(root, seg, &mut state)?;
    }
    let report = &mut state.report;
    // Clean means "nothing for replay to ever look at again": a fully
    // compacted chain whose active log ends in a valid footer. Leftover
    // sealed segments (e.g. a crash between a compaction's fresh-log
    // write and its deletes) are replayable history, hence not clean.
    report.clean = chain.len() == 1
        && chain
            .last()
            .is_some_and(|seg| seg.is_active() && seg.scan.clean_footer);
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

/// The state a scanned chain holds besides entry files — its ids, causal
/// context and logged deltas — without redoing anything (for a store
/// opened without recovery).
pub(crate) fn fold_chain(chain: &[SegmentScan]) -> Replayed {
    let mut state = Replayed::default();
    for item in chain.iter().flat_map(|seg| &seg.scan.items) {
        if let ScanItem::Record { record, .. } = item {
            fold_record(record, &mut state);
        }
    }
    state
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

/// Recovery for one segment of the chain (see [`recover`]).
fn recover_segment(root: &Path, seg: &SegmentScan, state: &mut Replayed) -> Result<(), DbError> {
    let seg_path = root.join(&seg.name);
    for item in &seg.scan.items {
        match item {
            ScanItem::Record { offset, record } => {
                if !replay_record(root, record, state)? {
                    state.report.unparseable += 1;
                    quarantine_bytes(root, seg.index, *offset, &record.payload)?;
                }
            }
            ScanItem::Corrupt { offset, bytes } => {
                state.report.quarantined += 1;
                quarantine_bytes(root, seg.index, *offset, bytes)?;
            }
            ScanItem::TornTail { offset } if seg.is_active() => {
                let cut = seg.scan.file_len - offset;
                if *offset == 0 {
                    // Bad magic: the whole file is unusable. Preserve it
                    // and start a fresh log.
                    if let Ok(bytes) = std::fs::read(&seg_path) {
                        quarantine_bytes(root, seg.index, 0, &bytes)?;
                        state.report.quarantined += 1;
                    }
                    let _ = std::fs::remove_file(&seg_path);
                } else {
                    Wal::truncate_to(&seg_path, *offset, &mut state.fsyncs)?;
                }
                state.report.torn_tail_bytes = Some(cut);
            }
            ScanItem::TornTail { offset } => {
                // Sealed segment: preserve a copy of the damaged span and
                // leave the file untouched — never silently truncate
                // immutable history.
                if let Ok(bytes) = std::fs::read(&seg_path) {
                    let at = (*offset).min(bytes.len() as u64) as usize;
                    quarantine_bytes(root, seg.index, *offset, &bytes[at..])?;
                }
                state.report.torn_sealed_segments += 1;
            }
        }
    }
    Ok(())
}

/// Read-only integrity check: scans the whole WAL segment chain (no
/// repair) and loads every entry file, verifying checksum trailers.
/// Returns a deterministic multi-line report and whether the store is
/// healthy.
///
/// A pending (not yet checkpointed) WAL tail is *not* unhealthy — it
/// just means recovery will have redo work at next open — but corrupt
/// records, torn tails (in *any* segment: a torn sealed segment is
/// damaged immutable history and is reported, never repaired here),
/// chain gaps (a missing middle segment), and unreadable entries are.
pub fn check(root: &Path) -> (String, bool) {
    use std::fmt::Write as _;
    let mut out = String::new();
    let mut healthy = true;
    match scan_chain(root, &DiskFaults::default()) {
        Ok(chain) => {
            let pending: usize = chain.iter().map(|s| s.scan.pending_entries()).sum();
            let corrupt: usize = chain
                .iter()
                .map(|s| {
                    s.scan
                        .items
                        .iter()
                        .filter(|i| matches!(i, ScanItem::Corrupt { .. }))
                        .count()
                })
                .sum();
            let torn = chain
                .iter()
                .flat_map(|s| &s.scan.items)
                .any(|i| matches!(i, ScanItem::TornTail { .. }));
            let clean = chain.len() == 1 && chain[0].scan.clean_footer;
            let _ = writeln!(
                out,
                "wal: {} segment(s), {pending} pending record(s), {corrupt} corrupt, {}, {}",
                chain.len(),
                if torn { "torn tail" } else { "no torn tail" },
                if clean {
                    "clean footer"
                } else {
                    "no clean footer"
                }
            );
            for seg in &chain {
                let seg_corrupt = seg
                    .scan
                    .items
                    .iter()
                    .filter(|i| matches!(i, ScanItem::Corrupt { .. }))
                    .count();
                let seg_torn = seg
                    .scan
                    .items
                    .iter()
                    .any(|i| matches!(i, ScanItem::TornTail { .. }));
                let _ = writeln!(
                    out,
                    "  segment {}: {} record(s), {} corrupt, {}{}",
                    seg.name,
                    seg.scan.pending_entries(),
                    seg_corrupt,
                    if seg_torn {
                        if seg.is_active() {
                            "torn tail (repairable: active log)"
                        } else {
                            "TORN (sealed history damaged)"
                        }
                    } else {
                        "intact"
                    },
                    if seg.is_active() {
                        ", active"
                    } else {
                        ", sealed"
                    }
                );
                if seg_torn && !seg.is_active() {
                    healthy = false;
                }
            }
            // Chain consistency: sealed indices must be contiguous. A
            // gap means a whole segment of history vanished.
            let indices: Vec<u64> = chain.iter().filter_map(|s| s.index).collect();
            for pair in indices.windows(2) {
                if pair[1] != pair[0] + 1 {
                    let _ = writeln!(
                        out,
                        "  chain: GAP between sealed segments {:06} and {:06}",
                        pair[0], pair[1]
                    );
                    healthy = false;
                }
            }
            if corrupt > 0 || torn {
                healthy = false;
            }
        }
        Err(e) => {
            let _ = writeln!(out, "wal: unreadable: {e}");
            healthy = false;
        }
    }
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
