//! Crash-at-every-byte-offset property test for WAL recovery.
//!
//! A golden run applies three merges and snapshots the WAL plus the
//! entry file after each. Then, for every prefix length `L` of the
//! final WAL — i.e. a crash after exactly `L` WAL bytes reached the
//! disk — recovery must restore the entry file to the state after the
//! last record wholly contained in the prefix: the *pre-record* or
//! *post-record* state, never a mix. Both crash windows are simulated
//! per offset: the crash before the entry file was rewritten (recovery
//! must replay the record) and after (replay must be idempotent).
//!
//! Entry files are a write-back cache of the log, so the file itself can
//! also be missing, empty, torn or stale after a crash; the last two
//! tests cover that window and the checkpoint's flush-then-replace.

use std::fs;
use std::path::{Path, PathBuf};
use stride_ir::{FuncId, InstrId};
use stride_profdb::wal::WAL_FILE;
use stride_profdb::{recover, DeltaRecord, DiskFaults, Dot, ProfileDb, ProfileEntry};
use stride_profiling::{LoadStrideProfile, StrideProfile};

fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("wal-crash-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&d);
    d
}

fn entry(total: u64) -> ProfileEntry {
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
        workload: "mcf".into(),
        module_hash: 0xabcd,
        runs: 1,
        edge_tables: vec![vec![total, 0, 3]],
        stride,
    }
}

/// The single entry file in `dir` (anything that is not the WAL).
fn entry_file(dir: &Path) -> Option<PathBuf> {
    fs::read_dir(dir).ok()?.find_map(|e| {
        let p = e.ok()?.path();
        (p.is_file() && p.file_name()? != WAL_FILE).then_some(p)
    })
}

#[test]
fn crash_at_every_wal_offset_recovers_a_record_boundary_state() {
    // Golden run: three merges, snapshotting WAL and entry bytes after
    // the open and after each merge.
    let golden = tmpdir("golden");
    let db = ProfileDb::open(&golden).expect("open golden");
    let wal_path = golden.join(WAL_FILE);
    // wal_marks[m] / entry_marks[m]: on-disk state after m merges.
    let mut wal_marks = vec![fs::read(&wal_path).expect("initial wal")];
    let mut entry_marks: Vec<Option<Vec<u8>>> = vec![None];
    for m in 0..3u64 {
        db.merge_store_logged(&entry(10 + m), m + 1)
            .expect("golden merge");
        wal_marks.push(fs::read(&wal_path).expect("wal snapshot"));
        let path = entry_file(&golden).expect("entry file exists");
        entry_marks.push(Some(fs::read(path).expect("entry snapshot")));
    }
    let entry_name = entry_file(&golden)
        .expect("entry file")
        .file_name()
        .expect("file name")
        .to_owned();
    let full_wal = wal_marks.last().expect("final wal").clone();
    drop(db);
    let _ = fs::remove_dir_all(&golden);

    let scratch = tmpdir("scratch");
    for cut in 0..=full_wal.len() {
        // Merges whose WAL record is wholly inside the prefix. A prefix
        // shorter than the magic (a crash while creating the WAL) must
        // recover to the empty state.
        let applied = wal_marks
            .iter()
            .filter(|w| w.len() <= cut)
            .count()
            .saturating_sub(1);
        // (pre-apply, post-apply) entry states for the crash window.
        let cases: &[&Option<Vec<u8>>] = if applied == 0 {
            &[&entry_marks[0]]
        } else {
            &[&entry_marks[applied - 1], &entry_marks[applied]]
        };
        for (case, initial_entry) in cases.iter().enumerate() {
            let _ = fs::remove_dir_all(&scratch);
            fs::create_dir_all(&scratch).expect("scratch dir");
            fs::write(scratch.join(WAL_FILE), &full_wal[..cut]).expect("write wal prefix");
            if let Some(bytes) = initial_entry {
                fs::write(scratch.join(&entry_name), bytes).expect("write entry state");
            }

            let report = recover(&scratch, &DiskFaults::default())
                .unwrap_or_else(|e| panic!("recover at offset {cut} case {case}: {e}"));
            let got = entry_file(&scratch).map(|p| fs::read(p).expect("recovered entry"));
            let want = &entry_marks[applied];
            assert_eq!(
                &got, want,
                "offset {cut} case {case}: recovered entry is not the state after \
                 merge {applied} (report: {report})"
            );

            // Replay idempotence: a second recovery pass must be a no-op.
            recover(&scratch, &DiskFaults::default())
                .unwrap_or_else(|e| panic!("re-recover at offset {cut} case {case}: {e}"));
            let again = entry_file(&scratch).map(|p| fs::read(p).expect("entry after re-run"));
            assert_eq!(
                &again, want,
                "offset {cut} case {case}: recovery not idempotent"
            );

            // A normal open on the recovered store must agree, and —
            // unlike an unrecovered one — be allowed to plan a gc.
            let db = ProfileDb::open(&scratch)
                .unwrap_or_else(|e| panic!("open at offset {cut} case {case}: {e}"));
            db.gc_plan(|_, _| true)
                .unwrap_or_else(|e| panic!("gc_plan at offset {cut} case {case}: {e}"));
            if applied > 0 {
                let merged = db
                    .load("mcf", 0xabcd)
                    .unwrap_or_else(|e| panic!("load at offset {cut} case {case}: {e}"));
                assert_eq!(merged.runs, applied as u64, "offset {cut} case {case}");
            }
        }
    }
    let _ = fs::remove_dir_all(&scratch);
}

/// Golden run for the write-back window: three merges (direct, then a
/// replicated delta, then direct), snapshotting the log and the entry
/// file after each. Returns the store directory's log after each merge,
/// the entry bytes after each, and the entry file's name.
fn write_back_golden(dir: &Path) -> (Vec<Vec<u8>>, Vec<Vec<u8>>, std::ffi::OsString) {
    let db = ProfileDb::open(dir).expect("open golden");
    let (mut logs, mut entries) = (Vec::new(), Vec::new());
    for m in 0..3u64 {
        if m == 1 {
            db.apply_deltas(&[DeltaRecord {
                req_id: m + 1,
                dot: Some(Dot { origin: 1, n: 1 }),
                entry_text: entry(10 + m).to_text(),
            }])
            .expect("golden delta");
        } else {
            db.merge_store_logged(&entry(10 + m), m + 1)
                .expect("golden merge");
        }
        logs.push(fs::read(dir.join(WAL_FILE)).expect("wal snapshot"));
        let path = entry_file(dir).expect("entry file exists");
        entries.push(fs::read(path).expect("entry snapshot"));
    }
    let name = entry_file(dir)
        .and_then(|p| p.file_name().map(|n| n.to_owned()))
        .expect("entry file name");
    (logs, entries, name)
}

/// Entry files are rewritten without fsync, so after a merge's log
/// fsync a crash can leave the file missing, empty, torn at any byte,
/// or one merge stale. Recovery must redo the post-record state from
/// the log in every case.
#[test]
fn entry_file_damage_after_the_log_fsync_is_redone_from_the_log() {
    let golden = tmpdir("writeback-golden");
    let (logs, entries, name) = write_back_golden(&golden);
    let _ = fs::remove_dir_all(&golden);

    let scratch = tmpdir("writeback");
    for m in 0..3 {
        let post = &entries[m];
        let mut states: Vec<Option<&[u8]>> = vec![None];
        states.extend((0..post.len()).map(|cut| Some(&post[..cut])));
        if m > 0 {
            states.push(Some(&entries[m - 1]));
        }
        for (case, state) in states.into_iter().enumerate() {
            let _ = fs::remove_dir_all(&scratch);
            fs::create_dir_all(&scratch).expect("scratch dir");
            fs::write(scratch.join(WAL_FILE), &logs[m]).expect("write log");
            if let Some(bytes) = state {
                fs::write(scratch.join(&name), bytes).expect("write entry state");
            }
            let db = ProfileDb::open(&scratch)
                .unwrap_or_else(|e| panic!("merge {m} case {case}: open: {e}"));
            let got = fs::read(scratch.join(&name)).expect("recovered entry");
            assert!(&got == post, "merge {m} case {case}: entry not redone");
            let stored = db.load("mcf", 0xabcd).expect("load recovered entry");
            assert_eq!(stored.runs, m as u64 + 1, "merge {m} case {case}");
        }
    }
    let _ = fs::remove_dir_all(&scratch);
}

/// A checkpoint flushes the entry files, then replaces the log through
/// a temp file. A crash between the two leaves the flushed files, the
/// old log and a partial temp log: recovery must keep the same bytes,
/// and the next checkpoint must complete.
#[test]
fn crash_between_checkpoint_flush_and_log_replacement_keeps_the_bytes() {
    let dir = tmpdir("ckpt-window");
    let (_, entries, name) = write_back_golden(&dir);
    let want = entries.last().expect("final entry").clone();
    fs::write(dir.join("wal.tmp"), b"SPWALv1\nI\0\0").expect("partial temp log");

    let db = ProfileDb::open(&dir).expect("reopen");
    assert_eq!(fs::read(dir.join(&name)).expect("entry"), want);
    db.checkpoint().expect("checkpoint after recovery");
    drop(db);
    let db = ProfileDb::open(&dir).expect("reopen after checkpoint");
    assert!(db.recovery_report().expect("report").clean);
    assert_eq!(fs::read(dir.join(&name)).expect("entry"), want);
    assert_eq!(db.load("mcf", 0xabcd).expect("load").runs, 3);
    let _ = fs::remove_dir_all(&dir);
}
