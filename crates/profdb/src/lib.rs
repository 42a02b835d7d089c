// Library code must degrade gracefully instead of panicking; unwrap and
// expect are allowed only under cfg(test).
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

//! Versioned on-disk profile database for the stride-profiling service:
//! store and load edge + stride profiles keyed by `(workload, module
//! content hash)`, merge profiles across training runs, and detect stale
//! entries when a workload's module changes.
//!
//! Multi-run PGO is the paper's §3.2 usability story taken one step
//! further: instead of one train run feeding one recompile, a long-running
//! daemon accumulates profiles over many runs and many days, and the
//! database is the durable artifact between them. Merge semantics are
//! chosen so accumulation never flips a Fig. 5 classification for purely
//! representational reasons:
//!
//! * edge counters and the `total`/`zero`/`zdiff`/`diffs` site counters
//!   merge by saturating sums, so the ratios the classifier reads
//!   (`top1freq/total_freq`, `zdiff/total_freq`, trip counts) converge to
//!   the run-weighted average;
//! * per-site top-stride tables join by stride value (LFU-style) into
//!   canonical `(count desc, stride asc)` order without truncation, so a
//!   stride dominant in either run stays visible in the merged table and
//!   the merge is commutative/associative byte-for-byte — the property
//!   replication ([`repl`]) cashes in for delivery-order-independent
//!   convergence.
//!
//! Entries are human-auditable text files (one per key) with a versioned
//! header; a content hash of the module guards against feeding a profile
//! back into a binary it was not measured on.

pub mod context;
pub mod entry;
pub mod hash;
pub mod recovery;
pub mod repl;
pub mod shard;
pub mod store;
pub mod wal;

pub use context::{CausalContext, Dot, CONTEXT_HEADER};
pub use entry::{DbError, ProfileEntry};
pub use hash::{fnv1a64, module_hash};
pub use recovery::{check, recover, RecoveryReport, QUARANTINE_DIR};
pub use repl::{
    decode_delta_batch, encode_delta_batch, DeltaApplyReport, DeltaRecord, DELTA_BATCH_HEADER,
};
pub use shard::{ShardMap, SHARD_MAP_VERSION};
pub use store::{DbRecord, ProfileDb};
pub use wal::{
    decode_log_image, encode_log_image, encode_record, scan_chain, scan_wal, segment_file_name,
    write_atomic, DiskFaults, RecordKind, ScanItem, SegmentConfig, SegmentScan, Wal, WalRecord,
    WalScan, WalStats, WAL_FILE,
};
