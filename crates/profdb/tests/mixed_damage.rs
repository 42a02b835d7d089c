//! Mixed-damage recovery: one WAL carrying *both* a checksum-corrupt
//! record in its middle and a torn tail, with entry files lost besides,
//! healed in a single recovery pass. Also pins the `profdb` CLI
//! exit-code contract around the same store: `check` is read-only and
//! reports CORRUPT (exit 1) until an operator runs `recover` (exit 0),
//! after which `check` passes — and the refusal of a root that still
//! holds a sealed segment of the earlier segmented layout.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;
use stride_profdb::{
    recover, scan_wal, DbError, DiskFaults, ProfileDb, ProfileEntry, ScanItem, WAL_FILE,
};
use stride_profiling::StrideProfile;

fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("mixed-damage-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&d);
    d
}

fn entry(workload: &str, module_hash: u64) -> ProfileEntry {
    ProfileEntry {
        workload: workload.into(),
        module_hash,
        runs: 1,
        edge_tables: vec![vec![5, 0, 3]],
        stride: StrideProfile::new(),
    }
}

fn entry_path(root: &Path, workload: &str, hash: u64) -> PathBuf {
    root.join(format!("{workload}@{hash:016x}.profdb"))
}

fn profdb_cli(root: &Path, args: &[&str]) -> (String, bool) {
    let out = Command::new(env!("CARGO_BIN_EXE_profdb"))
        .args(args)
        .arg("--db")
        .arg(root)
        .output()
        .expect("run profdb");
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        out.status.success(),
    )
}

#[test]
fn corrupt_middle_record_torn_tail_and_lost_entries_heal_in_one_pass() {
    let root = tmpdir("one-log");
    let db = ProfileDb::open(&root).expect("open");
    for i in 0..6u64 {
        db.merge_store_logged(&entry(&format!("wl{i}"), 0xa0 + i), i + 1)
            .expect("merge");
    }
    drop(db);

    let golden: Vec<Vec<u8>> = (0..6u64)
        .map(|i| fs::read(entry_path(&root, &format!("wl{i}"), 0xa0 + i)).expect("golden entry"))
        .collect();

    // Damage, all in the one log:
    // 1. flip a payload byte of wl1's record — a checksum failure in
    //    the middle of the log;
    let scan = scan_wal(&root, &DiskFaults::default()).expect("scan");
    let offsets: Vec<u64> = (scan.items.iter())
        .map(|item| match item {
            ScanItem::Record { offset, .. } => *offset,
            other => panic!("undamaged log scanned {other:?}"),
        })
        .collect();
    assert_eq!(offsets.len(), 6);
    let wal = root.join(WAL_FILE);
    let mut bytes = fs::read(&wal).expect("read log");
    bytes[offsets[1] as usize + 20] ^= 0xff;
    // 2. tear the tail mid-record (crash during wl5's append — its
    //    entry write never happened either);
    bytes.truncate(bytes.len() - 7);
    fs::write(&wal, &bytes).expect("damage log");
    fs::remove_file(entry_path(&root, "wl5", 0xa5)).expect("drop wl5 entry");
    // 3. lose wl3's and wl4's entry files (a crash before the write-back
    //    reached the disk) so the same pass also has redo work.
    for i in [3u64, 4] {
        fs::remove_file(entry_path(&root, &format!("wl{i}"), 0xa0 + i)).expect("drop entry");
    }

    // `check` is read-only and must call the damage out, twice.
    for _ in 0..2 {
        let (report, healthy) = profdb_cli(&root, &["check"]);
        assert!(!healthy, "damaged store passed check:\n{report}");
        assert!(report.contains("verdict: CORRUPT"), "{report}");
        assert!(report.contains("torn tail"), "{report}");
        assert!(report.contains("1 corrupt"), "{report}");
    }

    // One library recovery pass heals everything healable.
    let report = recover(&root, &DiskFaults::default()).expect("recover");
    assert_eq!(
        report.quarantined, 1,
        "corrupt record quarantined: {report}"
    );
    assert!(report.torn_tail_bytes.is_some(), "tail truncated: {report}");
    assert_eq!(report.replayed, 2, "wl3 and wl4 redone: {report}");

    // Boundary state: wl0..wl4 byte-identical to the golden run, wl5
    // (torn mid-append, never acknowledged durable) rolled away.
    for i in 0..5u64 {
        let got = fs::read(entry_path(&root, &format!("wl{i}"), 0xa0 + i)).expect("entry");
        assert_eq!(got, golden[i as usize], "wl{i} diverged from golden");
    }
    assert!(
        !entry_path(&root, "wl5", 0xa5).exists(),
        "torn merge resurrected"
    );

    // A second pass is a no-op on entry state.
    recover(&root, &DiskFaults::default()).expect("re-recover");
    for i in 0..5u64 {
        let got = fs::read(entry_path(&root, &format!("wl{i}"), 0xa0 + i)).expect("entry");
        assert_eq!(got, golden[i as usize], "wl{i} changed on second pass");
    }

    // CLI contract: the log still carries the flipped record (recovery
    // quarantines a copy and only cuts a torn tail), so `check` stays
    // CORRUPT until `recover` checkpoints it away; then the store audits
    // clean.
    let (report, healthy) = profdb_cli(&root, &["check"]);
    assert!(!healthy, "{report}");
    let (report, healthy) = profdb_cli(&root, &["recover"]);
    assert!(healthy, "recover failed:\n{report}");
    let (report, healthy) = profdb_cli(&root, &["check"]);
    assert!(healthy, "post-recover check failed:\n{report}");
    assert!(report.contains("verdict: ok"), "{report}");
    assert!(
        report.contains("entries: 5 readable, 0 corrupt"),
        "{report}"
    );

    // The quarantine kept evidence of the corrupt record.
    let quarantined = fs::read_dir(root.join(stride_profdb::QUARANTINE_DIR))
        .expect("quarantine dir")
        .count();
    assert!(quarantined >= 1, "no quarantined bytes preserved");

    let _ = fs::remove_dir_all(&root);
}

/// A store the segmented layout left behind: its log was sealed into
/// `wal.000000.log` holding an acknowledged merge whose entry file never
/// reached the disk. Opening it without that segment would lose the
/// merge silently, so every entry point refuses the root, names the file
/// and leaves it as it is.
#[test]
fn a_sealed_segment_of_the_segmented_layout_is_refused() {
    let root = tmpdir("sealed");
    let db = ProfileDb::open(&root).expect("open");
    db.merge_store_logged(&entry("wl0", 0xa0), 1)
        .expect("merge");
    drop(db);
    fs::rename(root.join(WAL_FILE), root.join("wal.000000.log")).expect("seal");
    fs::remove_file(entry_path(&root, "wl0", 0xa0)).expect("drop entry");
    let segment = fs::read(root.join("wal.000000.log")).expect("segment");

    let refused = |err: DbError| {
        assert_eq!(
            err,
            DbError::SealedSegment {
                file: "wal.000000.log".into()
            }
        );
        assert!(err.to_string().contains("wal.000000.log"), "{err}");
    };
    refused(ProfileDb::open(&root).unwrap_err());
    refused(ProfileDb::open_unrecovered(&root).unwrap_err());
    refused(recover(&root, &DiskFaults::default()).unwrap_err());

    let (report, healthy) = profdb_cli(&root, &["check"]);
    assert!(!healthy, "{report}");
    assert!(report.contains("verdict: CORRUPT"), "{report}");
    assert!(report.contains("wal.000000.log"), "{report}");
    let (_, healthy) = profdb_cli(&root, &["recover"]);
    assert!(!healthy, "recover took a root holding a sealed segment");

    assert_eq!(
        fs::read(root.join("wal.000000.log")).expect("kept"),
        segment
    );
    assert!(!root.join(WAL_FILE).exists(), "a fresh log was started");
    let _ = fs::remove_dir_all(&root);
}
