//! Cluster-grade durability properties of the profile store:
//!
//! * **Convergence** — three replicas fed the same delta batches in
//!   different orders, with duplicated deliveries, end byte-identical.
//!   This is the property the shard replication protocol leans on: the
//!   router may deliver batches in any order and retry freely.
//! * **Bounded log** — sustained merge traffic checkpoints the one WAL
//!   file so it stays within one appended-bytes bound of its carry, and
//!   recovery of the soaked store is byte-identical to the running one.
//! * **Read-cache coherence** — through any sequence of writes, a load
//!   served from a handle's decoded-entry cache equals a load through a
//!   freshly opened handle.

use std::fs;
use std::path::{Path, PathBuf};
use stride_ir::{FuncId, InstrId};
use stride_profdb::{check, DeltaRecord, ProfileDb, ProfileEntry, CHECKPOINT_BYTES, WAL_FILE};
use stride_profiling::{LoadStrideProfile, StrideProfile};

fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("profdb-repl-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&d);
    d
}

/// splitmix64: deterministic, seedable, std-only.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

fn entry(workload: &str, module_hash: u64, stride: i64, count: u64) -> ProfileEntry {
    let mut sp = StrideProfile::new();
    sp.insert(
        FuncId::new(0),
        InstrId::new(1),
        LoadStrideProfile {
            top: vec![(stride, count)],
            total_freq: count,
            num_zero_stride: 0,
            num_zero_diff: count,
            total_diffs: count,
        },
    );
    ProfileEntry {
        workload: workload.into(),
        module_hash,
        runs: 1,
        edge_tables: vec![vec![count, 0, 3]],
        stride: sp,
    }
}

/// Sorted (name, bytes) of every entry file in a store — the ground
/// truth for byte-identical comparison (WAL/quarantine excluded: two
/// replicas with different log histories must still compare equal).
fn entry_files(root: &Path) -> Vec<(String, Vec<u8>)> {
    let mut files: Vec<(String, Vec<u8>)> = fs::read_dir(root)
        .expect("read store dir")
        .filter_map(|e| {
            let p = e.ok()?.path();
            let name = p.file_name()?.to_str()?.to_string();
            name.ends_with(".profdb")
                .then(|| (name, fs::read(&p).expect("read entry file")))
        })
        .collect();
    files.sort();
    files
}

#[test]
fn replicas_converge_byte_identically_under_permutation_and_duplication() {
    // A batch stream over several keys with tied stride counts (the
    // hard case for canonical ordering) and overlapping ids.
    let keys: &[(&str, u64)] = &[("mcf", 0x1), ("mcf", 0x2), ("bfs", 0x1), ("sssp", 0x9)];
    let mut rng = Rng(0x5eed_0007);
    let mut batches: Vec<Vec<DeltaRecord>> = Vec::new();
    let mut req_id = 0u64;
    for _ in 0..12 {
        let mut batch = Vec::new();
        for _ in 0..1 + rng.below(4) {
            req_id += 1;
            let (w, h) = keys[rng.below(keys.len())];
            let stride = [-32i64, 8, 16, 48, 64][rng.below(5)];
            let count = 1 + rng.next() % 50;
            batch.push(DeltaRecord {
                req_id,
                dot: None,
                entry_text: entry(w, h, stride, count).to_text(),
            });
        }
        batches.push(batch);
    }

    let mut contents = Vec::new();
    for replica in 0..3 {
        let root = tmpdir(&format!("conv-{replica}"));
        let db = ProfileDb::open(&root).expect("open replica");
        // Each replica sees its own delivery order, plus duplicated
        // batches (network retries): a different schedule per replica.
        let mut order: Vec<usize> = (0..batches.len()).collect();
        let mut sched = Rng(0xface_0000 + replica as u64);
        sched.shuffle(&mut order);
        let dups: Vec<usize> = (0..4).map(|_| sched.below(batches.len())).collect();
        order.extend(dups);
        for idx in order {
            db.apply_deltas(&batches[idx]).expect("apply batch");
        }
        contents.push(entry_files(&root));
        drop(db);
        let _ = fs::remove_dir_all(&root);
    }
    assert_eq!(contents[0], contents[1], "replica 0 vs 1 bytes diverged");
    assert_eq!(contents[1], contents[2], "replica 1 vs 2 bytes diverged");
}

#[test]
fn sustained_merge_traffic_keeps_the_log_bounded() {
    let root = tmpdir("soak");
    let db = ProfileDb::open(&root).expect("open");
    let log_len = || fs::metadata(root.join(WAL_FILE)).expect("wal.log").len();
    let log_files = || {
        let names = fs::read_dir(&root).expect("read store dir");
        (names.filter_map(|e| e.ok()?.file_name().into_string().ok()))
            .filter(|name| name.starts_with("wal") && name.ends_with(".log"))
            .count()
    };

    const MERGES: u64 = 10_000;
    // The log right after the last checkpoint (its carry), the largest
    // one-merge growth, and the largest log seen.
    let (mut carry, mut record, mut peak) = (log_len(), 0u64, 0u64);
    let mut checkpoints = 0;
    for i in 0..MERGES {
        let mut e = entry("soak", i % 7, 8 * ((i % 5) as i64 + 1), 1 + i % 3);
        e.edge_tables = vec![vec![1 + i % 3; 48]];
        let before = log_len();
        db.merge_store_logged(&e, i + 1).expect("merge");
        let after = log_len();
        if db.wal_stats().checkpoints > checkpoints {
            checkpoints = db.wal_stats().checkpoints;
            carry = after;
            assert_eq!(log_files(), 1, "a second log file after merge {i}");
        } else {
            record = record.max(after - before);
        }
        peak = peak.max(after);
        assert!(
            after <= carry + CHECKPOINT_BYTES + record,
            "merge {i}: log {after} B past carry {carry} B + bound + record {record} B"
        );
    }
    assert!(checkpoints >= 3, "soak checkpointed {checkpoints} time(s)");
    assert!(peak > CHECKPOINT_BYTES, "the bound was never approached");
    assert_eq!(log_files(), 1);

    drop(db);
    // Recovery of the soaked store must reproduce the exact bytes.
    let before = entry_files(&root);
    let db2 = ProfileDb::open(&root).expect("reopen");
    assert_eq!(entry_files(&root), before, "recovery changed entry bytes");
    let (summary, healthy) = check(&root);
    assert!(healthy, "store unhealthy after soak:\n{summary}");
    drop(db2);
    let _ = fs::remove_dir_all(&root);
}

/// Every key the coherence sequence touches.
const KEYS: [(&str, u64); 4] = [("mcf", 1), ("mcf", 2), ("gap", 1), ("art", 7)];

/// What a fresh handle on `root` loads under each key (errors by text).
fn loads(db: &ProfileDb) -> Vec<Result<ProfileEntry, String>> {
    KEYS.iter()
        .map(|&(w, h)| db.load(w, h).map_err(|e| e.to_string()))
        .collect()
}

#[test]
fn cached_loads_match_a_fresh_handle_after_every_write() {
    for seed in 1..=3u64 {
        let root = tmpdir(&format!("read-cache-{seed}"));
        let db = ProfileDb::open(&root).expect("open");
        let mut rng = Rng(seed);
        for step in 0..60 {
            let (w, h) = KEYS[rng.below(KEYS.len())];
            let e = entry(w, h, 8 << rng.below(4), 1 + rng.below(50) as u64);
            // Ids repeat often, so dedup paths run too.
            let id = rng.below(12) as u64;
            let op = rng.below(5);
            // A duplicate id whose key was removed since fails its merge
            // with `NotFound`; only what a load sees afterwards matters.
            match op {
                0 => db.store(&e).expect("store"),
                1 => drop(db.merge_store_logged(&e, id)),
                2 => drop(db.apply_deltas(&[DeltaRecord {
                    req_id: id,
                    dot: None,
                    entry_text: e.to_text(),
                }])),
                3 => db.remove(w, h).expect("remove"),
                _ => drop(db.gc(|w2, h2| (w2, h2) != (w, h)).expect("gc")),
            }
            let fresh = ProfileDb::open_unrecovered(&root).expect("fresh handle");
            assert_eq!(
                loads(&db),
                loads(&fresh),
                "seed {seed} step {step} op {op} on {w}@{h}"
            );
        }
        let _ = fs::remove_dir_all(&root);
    }
}

#[test]
fn a_handle_sees_outside_edits_to_a_read_entry_only_after_reopen() {
    let root = tmpdir("read-cache-owner");
    let db = ProfileDb::open(&root).expect("open");
    let e = entry("mcf", 3, 16, 10);
    db.store(&e).expect("store");
    assert_eq!(db.load("mcf", 3).expect("load"), e);
    let mut other = entry("mcf", 3, 32, 4);
    other.runs = 5;
    ProfileDb::open(&root)
        .expect("second handle")
        .store(&other)
        .expect("outside edit");
    assert_eq!(
        db.load("mcf", 3).expect("cached load"),
        e,
        "served from memory"
    );
    let reopened = ProfileDb::open(&root).expect("reopen");
    assert_eq!(reopened.load("mcf", 3).expect("fresh load"), other);
    let _ = fs::remove_dir_all(&root);
}
