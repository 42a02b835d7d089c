//! Hinted handoff: a durable, checksummed per-replica spool of the
//! delta merges a dead replica missed.
//!
//! When the failure detector declares a replica dead, the router stops
//! forwarding its deltas and spools them here instead — one segmented
//! WAL chain per replica (the exact record format `profdb` uses, so
//! torn tails and bit flips are detected the same way). On revival the
//! router drains the log *in append order* through the normal
//! `sync-delta` path; the replica's dot and req-id dedup absorbs any
//! replays, so a router crash mid-drain merely re-sends a prefix.
//!
//! The spool replaces the old bounded in-memory lag queue, which
//! silently dropped its oldest delta under pressure. The hint log never
//! drops: at capacity the *caller's merge is refused whole* with a
//! typed `handoff-full`, so an acknowledged merge can no longer lose a
//! replica silently. Capacity is counted in hints, not bytes, so the
//! refusal point is deterministic under any payload mix.

use std::collections::VecDeque;
use std::path::{Path, PathBuf};
use stride_profdb::{
    scan_chain, DbError, DeltaRecord, DiskFaults, RecordKind, ScanItem, SegmentConfig, Wal,
    WalRecord,
};

/// A durable hint spool for one replica.
#[derive(Debug)]
pub struct HintLog {
    root: PathBuf,
    wal: Wal,
    /// In-memory mirror of the undrained suffix, in append order.
    pending: VecDeque<DeltaRecord>,
    cap: usize,
    seal_bytes: u64,
}

impl HintLog {
    /// Opens (creating if needed) the hint log under `root`, replaying
    /// the chain to rebuild the pending queue. A torn active-log tail
    /// is truncated (a crash mid-spool was never acknowledged);
    /// checksum-corrupt records are skipped.
    ///
    /// # Errors
    ///
    /// Returns [`DbError::Io`] on filesystem trouble.
    pub fn open(root: &Path, cap: usize) -> Result<HintLog, DbError> {
        std::fs::create_dir_all(root)
            .map_err(|e| DbError::Io(format!("{}: {e}", root.display())))?;
        let chain = scan_chain(root, &DiskFaults::default())?;
        let mut pending = VecDeque::new();
        for seg in &chain {
            for item in &seg.scan.items {
                match item {
                    // `E` records are hints spooled before deltas had dots.
                    ScanItem::Record { record, .. } => match record.kind {
                        RecordKind::Entry => pending.push_back(DeltaRecord {
                            req_id: record.req_id,
                            dot: None,
                            entry_text: String::from_utf8_lossy(&record.payload).into_owned(),
                        }),
                        RecordKind::Delta => pending.extend(record.unpack_delta()),
                        _ => {}
                    },
                    // A delta the drain cannot redeliver; anti-entropy
                    // repair re-converges it.
                    ScanItem::Corrupt { .. } => {}
                    ScanItem::TornTail { offset } => {
                        if seg.is_active() {
                            Wal::truncate_to(&root.join(&seg.name), *offset, &mut 0)?;
                        }
                    }
                }
            }
        }
        let wal = Wal::open_append(root, pending.len() as u64, DiskFaults::default())?;
        Ok(HintLog {
            root: root.to_path_buf(),
            wal,
            pending,
            cap,
            seal_bytes: SegmentConfig::default().seal_bytes,
        })
    }

    /// Undrained hints.
    pub fn len(&self) -> usize {
        self.pending.len()
    }

    /// True when nothing is spooled.
    pub fn is_empty(&self) -> bool {
        self.pending.is_empty()
    }

    /// True when one more spool would exceed capacity.
    pub fn is_full(&self) -> bool {
        self.pending.len() >= self.cap
    }

    /// Durably spools one delta (append + fsync before returning), then
    /// seals the active segment if it outgrew the roll threshold.
    ///
    /// # Errors
    ///
    /// Returns [`DbError::Io`] when the log is at capacity (the caller
    /// must refuse the merge with `handoff-full`) or on disk trouble.
    pub fn spool(&mut self, delta: &DeltaRecord) -> Result<(), DbError> {
        if self.is_full() {
            return Err(DbError::Io(format!(
                "{}: hint log at capacity ({} hint(s))",
                self.root.display(),
                self.cap
            )));
        }
        self.wal.append(&WalRecord::delta(delta, ""))?;
        self.wal.sync()?;
        self.pending.push_back(delta.clone());
        if self.wal.len() > self.seal_bytes {
            self.wal.seal()?;
        }
        Ok(())
    }

    /// The oldest undrained hint.
    pub fn front(&self) -> Option<&DeltaRecord> {
        self.pending.front()
    }

    /// Marks the front hint delivered (in memory only — the durable log
    /// is truncated when the queue fully drains, so a crash mid-drain
    /// re-sends a prefix that req-id dedup absorbs). Once empty, the
    /// chain is checkpointed away.
    ///
    /// # Errors
    ///
    /// Returns [`DbError::Io`] when the empty-queue checkpoint fails;
    /// the hints are already delivered, so the caller may ignore it
    /// (the next open replays them into dedup).
    pub fn pop_delivered(&mut self) -> Result<(), DbError> {
        self.pending.pop_front();
        if self.pending.is_empty() {
            self.wal.checkpoint(&[])?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("hintlog-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    fn hint(req_id: u64, text: &str) -> DeltaRecord {
        DeltaRecord {
            req_id,
            dot: Some(stride_profdb::Dot {
                origin: 1,
                n: req_id,
            }),
            entry_text: text.to_string(),
        }
    }

    #[test]
    fn spools_survive_reopen_in_order() {
        let root = tmpdir("reopen");
        {
            let mut log = HintLog::open(&root, 16).unwrap();
            for i in 1..=5u64 {
                log.spool(&hint(i, &format!("entry {i}"))).unwrap();
            }
            assert_eq!(log.len(), 5);
        }
        let log = HintLog::open(&root, 16).unwrap();
        assert_eq!(log.len(), 5);
        let ids: Vec<u64> = log.pending.iter().map(|h| h.req_id).collect();
        assert_eq!(ids, vec![1, 2, 3, 4, 5]);
        assert_eq!(log.front(), Some(&hint(1, "entry 1")), "dots survive");
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn capacity_refuses_instead_of_dropping() {
        let root = tmpdir("cap");
        let mut log = HintLog::open(&root, 2).unwrap();
        log.spool(&hint(1, "a")).unwrap();
        log.spool(&hint(2, "b")).unwrap();
        assert!(log.is_full());
        assert!(log.spool(&hint(3, "c")).is_err());
        // Nothing was dropped to make room: the original two remain.
        assert_eq!(log.len(), 2);
        assert_eq!(log.front().unwrap().req_id, 1);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn full_drain_truncates_partial_drain_replays_prefix() {
        let root = tmpdir("drain");
        let mut log = HintLog::open(&root, 8).unwrap();
        for i in 1..=4u64 {
            log.spool(&hint(i, "x")).unwrap();
        }
        // Partial drain: deliver two, then "crash" (drop the handle).
        log.pop_delivered().unwrap();
        log.pop_delivered().unwrap();
        assert_eq!(log.len(), 2);
        drop(log);
        // Reopen replays the whole spool (prefix re-send is absorbed by
        // the replica's req-id dedup).
        let mut log = HintLog::open(&root, 8).unwrap();
        assert_eq!(log.len(), 4);
        for _ in 0..4 {
            log.pop_delivered().unwrap();
        }
        assert!(log.is_empty());
        drop(log);
        // Full drain checkpointed the chain away.
        let log = HintLog::open(&root, 8).unwrap();
        assert!(log.is_empty());
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn torn_active_tail_is_truncated_at_open() {
        use std::io::Write;
        let root = tmpdir("torn");
        {
            let mut log = HintLog::open(&root, 8).unwrap();
            log.spool(&hint(1, "good")).unwrap();
        }
        // A crash mid-spool leaves half a record.
        let rec = stride_profdb::encode_record(&WalRecord::delta(&hint(2, "half"), ""));
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(root.join(stride_profdb::WAL_FILE))
            .unwrap();
        f.write_all(&rec[..rec.len() / 2]).unwrap();
        drop(f);
        let mut log = HintLog::open(&root, 8).unwrap();
        assert_eq!(log.len(), 1, "torn record never acknowledged, so cut");
        // The log stays appendable after the cut.
        log.spool(&hint(3, "after")).unwrap();
        drop(log);
        let log = HintLog::open(&root, 8).unwrap();
        let ids: Vec<u64> = log.pending.iter().map(|h| h.req_id).collect();
        assert_eq!(ids, vec![1, 3]);
        let _ = std::fs::remove_dir_all(&root);
    }
}
