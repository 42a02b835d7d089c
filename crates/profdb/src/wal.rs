//! The write-ahead log: every merge is made durable *before* the entry
//! file is rewritten, so a crash at any byte boundary leaves the store
//! recoverable.
//!
//! # Format (`wal.log`, version 1)
//!
//! ```text
//! magic   8 bytes  b"SPWALv1\n"
//! record  tag(1) | payload_len(u32 BE) | req_id(u64 BE) | payload | fnv1a64(u64 BE)
//! ```
//!
//! # Segment chain
//!
//! Under sustained merge traffic the log is kept *bounded* by splitting
//! it into segments. The active log is always `wal.log`; once it grows
//! past [`SegmentConfig::seal_bytes`] it is **sealed** — renamed to
//! `wal.NNNNNN.log` (ascending indices) — and a fresh active log starts.
//! Once the live chain (sealed + active) exceeds
//! [`SegmentConfig::max_live_segments`], a **compaction** checkpoint
//! folds the whole chain away: every redo record is already applied to
//! entry files, so the sealed segments are deleted and the fresh active
//! log carries only the idempotency-id set and a clean footer.
//!
//! Sealed segments are immutable history: recovery replays them front to
//! back but only ever truncates a torn tail on the *active* log — damage
//! inside a sealed segment is preserved, quarantined, and reported,
//! never silently cut (a torn middle segment means lost history, which
//! an operator must see). A store that never seals is exactly the old
//! single-file layout, so pre-segmentation databases open unchanged.
//!
//! The trailing checksum covers everything from the tag through the
//! payload, so a torn append, a bit flip, or a garbage tail is always
//! detectable. Record tags:
//!
//! * `E` — entry redo: the payload is the *post-merge* entry text. Redo
//!   records carry absolute states, not deltas, which is what makes
//!   replay idempotent: applying a record twice (or applying one whose
//!   merge already reached the entry file before the crash) rewrites the
//!   same bytes. `req_id` is the client's idempotency key (0 = none).
//!   A direct merge logs one of these.
//! * `D` — replicated delta: `origin(u64 BE) | n(u64 BE) |
//!   delta_len(u32 BE) | delta text | post-merge entry text`. The dot
//!   `(origin, n)` names the delta for exact anti-entropy repair, the
//!   delta text is what repair re-sends, and the post-merge text (empty
//!   when the delta changed nothing here) is redone exactly like an `E`
//!   payload. Origin 0 means "no dot"; a store stamps every delta it
//!   logs, so only a log written before deltas carried dots holds one.
//! * `I` — idempotency-id carryover: the payload is a concatenation of
//!   big-endian `u64` request ids. Written at checkpoint so the dedup
//!   set survives WAL truncation.
//! * `K` — causal-context carryover: the store's context text, written
//!   at checkpoint so the held dots survive WAL truncation.
//! * `C` — footer: the payload is the `fnv1a64` of the whole file up to
//!   the record's first byte. A valid footer as the last record marks a
//!   cleanly checkpointed log; recovery then knows there is no torn
//!   tail to hunt for.
//!
//! The commit protocol for a merge is **append → fsync → apply**: the
//! caller acknowledges only after the fsync, and the entry file is a
//! write-back cache of the log — rewritten without fsync, redone from
//! the log at startup if it is missing, torn or stale, and flushed
//! before a checkpoint drops the records that could redo it.
//! Checkpoints (truncations) go through a temp file + atomic rename.

use crate::context::{CausalContext, Dot};
use crate::entry::DbError;
use crate::hash::fnv1a64;
use crate::repl::DeltaRecord;
use std::fmt::Write as _;
use std::fs::{File, OpenOptions};
use std::io::{Read, Write};
use std::path::{Path, PathBuf};

/// WAL file name inside the database root.
pub const WAL_FILE: &str = "wal.log";
/// Version-bearing magic at offset 0.
pub const WAL_MAGIC: &[u8; 8] = b"SPWALv1\n";

/// File name of sealed segment `index` (`wal.000003.log`).
pub fn segment_file_name(index: u64) -> String {
    format!("wal.{index:06}.log")
}

/// Parses a sealed-segment file name back to its index.
pub fn parse_segment_name(name: &str) -> Option<u64> {
    let digits = name.strip_prefix("wal.")?.strip_suffix(".log")?;
    if digits.is_empty() || !digits.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    digits.parse().ok()
}

/// Sealed segments under `root`, ascending by index.
///
/// # Errors
///
/// Returns [`DbError::Io`] when the directory cannot be read.
pub fn sealed_segments(root: &Path) -> Result<Vec<(u64, PathBuf)>, DbError> {
    let mut out = Vec::new();
    let dir = match std::fs::read_dir(root) {
        Ok(d) => d,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(out),
        Err(e) => return Err(io_err(root, e)),
    };
    for item in dir {
        let item = item.map_err(|e| io_err(root, e))?;
        if let Some(idx) = item.file_name().to_str().and_then(parse_segment_name) {
            out.push((idx, item.path()));
        }
    }
    out.sort();
    Ok(out)
}

/// When to seal the active log and when to compact the chain.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SegmentConfig {
    /// Seal (roll) the active log once it exceeds this many bytes.
    pub seal_bytes: u64,
    /// Compact (checkpoint the whole chain away) once live segments —
    /// sealed plus the active log — exceed this count.
    pub max_live_segments: usize,
}

impl Default for SegmentConfig {
    fn default() -> Self {
        // 4 × 256 KiB bounds on-disk log bytes near the pre-segmentation
        // 1 MiB auto-checkpoint threshold.
        SegmentConfig {
            seal_bytes: 256 << 10,
            max_live_segments: 4,
        }
    }
}
/// Records larger than this are treated as framing corruption, not
/// allocated (a torn length field must not ask for gigabytes).
pub const MAX_WAL_RECORD: usize = 64 << 20;

/// Fixed bytes of a `D` payload before the delta text: origin, n, and
/// the delta text's length.
const DELTA_HEADER: usize = 8 + 8 + 4;

/// Fixed bytes per record around the payload: tag + len + req_id.
pub(crate) const RECORD_HEADER: usize = 1 + 4 + 8;
/// Trailing checksum bytes.
pub(crate) const RECORD_TRAILER: usize = 8;

/// What a record carries.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RecordKind {
    /// Post-merge entry redo state.
    Entry,
    /// Replicated delta: dot, delta text and post-merge redo state.
    Delta,
    /// Idempotency-id carryover (checkpoint).
    Ids,
    /// Causal-context carryover (checkpoint).
    Context,
    /// Clean-checkpoint footer.
    Footer,
}

impl RecordKind {
    fn tag(self) -> u8 {
        match self {
            RecordKind::Entry => b'E',
            RecordKind::Delta => b'D',
            RecordKind::Ids => b'I',
            RecordKind::Context => b'K',
            RecordKind::Footer => b'C',
        }
    }

    fn from_tag(tag: u8) -> Option<RecordKind> {
        match tag {
            b'E' => Some(RecordKind::Entry),
            b'D' => Some(RecordKind::Delta),
            b'I' => Some(RecordKind::Ids),
            b'K' => Some(RecordKind::Context),
            b'C' => Some(RecordKind::Footer),
            _ => None,
        }
    }
}

/// One WAL record.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WalRecord {
    /// Record type.
    pub kind: RecordKind,
    /// Idempotency key (0 when the request carried none).
    pub req_id: u64,
    /// Record body (see the module docs per tag).
    pub payload: Vec<u8>,
}

impl WalRecord {
    /// Builds an entry-redo record.
    pub fn entry(req_id: u64, entry_text: &str) -> WalRecord {
        WalRecord {
            kind: RecordKind::Entry,
            req_id,
            payload: entry_text.as_bytes().to_vec(),
        }
    }

    /// Builds a replicated-delta record: `delta` (its dot, id and text)
    /// plus the post-merge entry text it produced (empty for none).
    pub fn delta(delta: &DeltaRecord, post_text: &str) -> WalRecord {
        let dot = delta.dot.unwrap_or(Dot { origin: 0, n: 0 });
        let text = delta.entry_text.as_bytes();
        let mut payload = Vec::with_capacity(DELTA_HEADER + text.len() + post_text.len());
        payload.extend_from_slice(&dot.origin.to_be_bytes());
        payload.extend_from_slice(&dot.n.to_be_bytes());
        payload.extend_from_slice(&(text.len() as u32).to_be_bytes());
        payload.extend_from_slice(text);
        payload.extend_from_slice(post_text.as_bytes());
        WalRecord {
            kind: RecordKind::Delta,
            req_id: delta.req_id,
            payload,
        }
    }

    /// Splits a `D` payload into its dot, delta text and post-merge
    /// text (`None` for another kind or a payload whose lengths do not
    /// add up).
    fn split_delta(&self) -> Option<(Option<Dot>, &str, &[u8])> {
        if self.kind != RecordKind::Delta {
            return None;
        }
        let word = |at: usize| -> Option<u64> {
            Some(u64::from_be_bytes(
                self.payload.get(at..at + 8)?.try_into().ok()?,
            ))
        };
        let (origin, n) = (word(0)?, word(8)?);
        let len = u32::from_be_bytes(self.payload.get(16..DELTA_HEADER)?.try_into().ok()?);
        let end = DELTA_HEADER.checked_add(len as usize)?;
        let text = std::str::from_utf8(self.payload.get(DELTA_HEADER..end)?).ok()?;
        let dot = (origin != 0).then_some(Dot { origin, n });
        Some((dot, text, &self.payload[end..]))
    }

    /// The delta a `D` record carries (`None` for another kind or a
    /// malformed payload).
    pub fn unpack_delta(&self) -> Option<DeltaRecord> {
        let (dot, text, _) = self.split_delta()?;
        Some(DeltaRecord {
            req_id: self.req_id,
            dot,
            entry_text: text.to_string(),
        })
    }

    /// The post-merge entry state this record asks recovery to redo:
    /// an `E` payload, or a `D` record's non-empty post-merge text.
    pub fn redo_payload(&self) -> Option<&[u8]> {
        match self.kind {
            RecordKind::Entry => Some(&self.payload),
            RecordKind::Delta => self
                .split_delta()
                .map(|(_, _, post)| post)
                .filter(|post| !post.is_empty()),
            _ => None,
        }
    }

    /// Builds an id-carryover record.
    pub fn ids(ids: &[u64]) -> WalRecord {
        let mut payload = Vec::with_capacity(ids.len() * 8);
        for id in ids {
            payload.extend_from_slice(&id.to_be_bytes());
        }
        WalRecord {
            kind: RecordKind::Ids,
            req_id: 0,
            payload,
        }
    }

    /// Builds a causal-context carryover record.
    pub fn context(ctx: &CausalContext) -> WalRecord {
        WalRecord {
            kind: RecordKind::Context,
            req_id: 0,
            payload: ctx.to_text().into_bytes(),
        }
    }

    /// Unpacks an id-carryover payload.
    pub fn unpack_ids(&self) -> Vec<u64> {
        self.payload
            .chunks_exact(8)
            .map(|c| {
                let mut b = [0u8; 8];
                b.copy_from_slice(c);
                u64::from_be_bytes(b)
            })
            .collect()
    }
}

/// Serializes a record (header + payload + checksum).
pub fn encode_record(rec: &WalRecord) -> Vec<u8> {
    let mut out = Vec::with_capacity(RECORD_HEADER + rec.payload.len() + RECORD_TRAILER);
    out.push(rec.kind.tag());
    out.extend_from_slice(&(rec.payload.len() as u32).to_be_bytes());
    out.extend_from_slice(&rec.req_id.to_be_bytes());
    out.extend_from_slice(&rec.payload);
    let sum = fnv1a64(&out);
    out.extend_from_slice(&sum.to_be_bytes());
    out
}

/// A whole log image as a checkpoint writes it: the magic, `records`,
/// and a clean footer over both.
fn log_image(records: &[WalRecord]) -> Vec<u8> {
    let mut buf = WAL_MAGIC.to_vec();
    for rec in records {
        buf.extend_from_slice(&encode_record(rec));
    }
    let footer = WalRecord {
        kind: RecordKind::Footer,
        req_id: 0,
        payload: fnv1a64(&buf).to_be_bytes().to_vec(),
    };
    buf.extend_from_slice(&encode_record(&footer));
    buf
}

/// A log image of `records` (see [`Wal::checkpoint`]) as hex text: the
/// form a full-state transfer ships over the text wire protocol.
pub fn encode_log_image(records: &[WalRecord]) -> String {
    let mut text = String::new();
    for byte in log_image(records) {
        let _ = write!(text, "{byte:02x}");
    }
    text
}

/// Parses hex text from [`encode_log_image`] back into its records,
/// footer excluded. The text is untrusted: it is rejected whole unless
/// every record's checksum verifies and the clean footer covers them all.
///
/// # Errors
///
/// Returns [`DbError::Corrupt`] for bad hex, a bad magic, or a torn,
/// corrupt or footer-less image.
pub fn decode_log_image(text: &str) -> Result<Vec<WalRecord>, DbError> {
    let err = |msg: &str| DbError::Corrupt {
        what: "log image",
        detail: msg.to_string(),
    };
    let text = text.trim();
    if !text.len().is_multiple_of(2) {
        return Err(err("odd-length hex"));
    }
    let bytes = (0..text.len() / 2)
        .map(|i| u8::from_str_radix(text.get(2 * i..2 * i + 2)?, 16).ok())
        .collect::<Option<Vec<u8>>>()
        .ok_or_else(|| err("bad hex"))?;
    let body = bytes
        .strip_prefix(WAL_MAGIC)
        .ok_or_else(|| err("bad magic"))?;
    let scan = scan_bytes(body, WAL_MAGIC.len() as u64);
    if !scan.clean_footer {
        return Err(err("torn, corrupt or missing its footer"));
    }
    let records = scan.items.into_iter().filter_map(|item| match item {
        ScanItem::Record { record, .. } if record.kind != RecordKind::Footer => Some(record),
        _ => None,
    });
    Ok(records.collect())
}

/// Deterministic, injectable disk misbehaviour for chaos testing. Each/// Deterministic, injectable disk misbehaviour for chaos testing. Each
/// field is a one-shot trigger consumed when it fires; `None` means the
/// disk behaves.
#[derive(Clone, Debug, Default)]
pub struct DiskFaults {
    /// Next WAL append writes only the first `k` bytes of the record and
    /// reports an I/O error — the shape of a crash mid-write.
    pub torn_write: Option<u64>,
    /// Next WAL append silently flips bit `k % record_bits` — latent
    /// corruption that only the checksum can catch.
    pub bit_flip: Option<u64>,
    /// The `n`th upcoming fsync (1-based) fails, so the merge must not
    /// be acknowledged.
    pub fsync_fail: Option<u64>,
    /// Recovery reads at most `k` bytes of the WAL — the shape of a
    /// short read from a failing device.
    pub short_read: Option<u64>,
}

/// One scanned item: a good record, a quarantinable corrupt span, or the
/// torn tail.
#[derive(Clone, Debug)]
pub enum ScanItem {
    /// A record whose checksum verified.
    Record {
        /// Byte offset of the record's tag.
        offset: u64,
        /// The decoded record.
        record: WalRecord,
    },
    /// A complete-looking record whose checksum failed: skippable, since
    /// the length field placed a plausible boundary.
    Corrupt {
        /// Byte offset of the record's tag.
        offset: u64,
        /// The raw bytes (header through trailer) for quarantine.
        bytes: Vec<u8>,
    },
    /// Unparseable bytes running to end-of-file: a torn append (or a
    /// corrupted length field). Everything from `offset` must be
    /// truncated.
    TornTail {
        /// Byte offset the tail starts at.
        offset: u64,
    },
}

/// A read-only scan of a WAL file.
#[derive(Clone, Debug, Default)]
pub struct WalScan {
    /// Items in file order.
    pub items: Vec<ScanItem>,
    /// True when the last verified record is a footer whose checksum of
    /// the preceding file bytes matches — a cleanly checkpointed log.
    pub clean_footer: bool,
    /// Total file bytes examined.
    pub file_len: u64,
}

impl WalScan {
    /// Count of records with redo state (the "pending tail" gc refuses
    /// on).
    pub fn pending_entries(&self) -> usize {
        self.items
            .iter()
            .filter(
                |i| matches!(i, ScanItem::Record { record, .. } if record.redo_payload().is_some()),
            )
            .count()
    }

    /// All idempotency ids carried by `E`, `D` and `I` records.
    pub fn known_ids(&self) -> Vec<u64> {
        let mut ids = Vec::new();
        for item in &self.items {
            if let ScanItem::Record { record, .. } = item {
                match record.kind {
                    RecordKind::Entry | RecordKind::Delta if record.req_id != 0 => {
                        ids.push(record.req_id)
                    }
                    RecordKind::Ids => ids.extend(record.unpack_ids()),
                    _ => {}
                }
            }
        }
        ids
    }
}

fn io_err(path: &Path, e: std::io::Error) -> DbError {
    DbError::Io(format!("{}: {e}", path.display()))
}

/// Scans WAL bytes (after the magic) into records / corrupt spans / a
/// torn tail. Pure — no filesystem mutation.
fn scan_bytes(bytes: &[u8], base: u64) -> WalScan {
    let mut scan = WalScan {
        file_len: base + bytes.len() as u64,
        ..WalScan::default()
    };
    let mut at = 0usize;
    while at < bytes.len() {
        let offset = base + at as u64;
        let rest = &bytes[at..];
        if rest.len() < RECORD_HEADER + RECORD_TRAILER {
            scan.items.push(ScanItem::TornTail { offset });
            return scan;
        }
        let tag_ok = RecordKind::from_tag(rest[0]).is_some();
        let len = u32::from_be_bytes([rest[1], rest[2], rest[3], rest[4]]) as usize;
        let total = RECORD_HEADER + len + RECORD_TRAILER;
        if !tag_ok || len > MAX_WAL_RECORD || total > rest.len() {
            // A bad tag or an implausible/overrunning length means the
            // framing itself is lost: there is no trustworthy boundary
            // to resynchronise at, so the rest of the file is a tail.
            scan.items.push(ScanItem::TornTail { offset });
            return scan;
        }
        let body = &rest[..RECORD_HEADER + len];
        let want = u64::from_be_bytes({
            let mut b = [0u8; 8];
            b.copy_from_slice(&rest[RECORD_HEADER + len..total]);
            b
        });
        if fnv1a64(body) != want {
            scan.items.push(ScanItem::Corrupt {
                offset,
                bytes: rest[..total].to_vec(),
            });
            scan.clean_footer = false;
            at += total;
            continue;
        }
        let kind = match RecordKind::from_tag(rest[0]) {
            Some(k) => k,
            None => {
                // Unreachable (tag_ok checked above); treat as tail.
                scan.items.push(ScanItem::TornTail { offset });
                return scan;
            }
        };
        let record = WalRecord {
            kind,
            req_id: u64::from_be_bytes({
                let mut b = [0u8; 8];
                b.copy_from_slice(&rest[5..13]);
                b
            }),
            payload: rest[RECORD_HEADER..RECORD_HEADER + len].to_vec(),
        };
        // A footer is only "clean" when it checksums everything before
        // itself *and* is the final record.
        scan.clean_footer = kind == RecordKind::Footer
            && record.payload.len() == 8
            && {
                let mut b = [0u8; 8];
                b.copy_from_slice(&record.payload);
                // The footer covers magic + all prior records; callers pass
                // `base` = magic length, so reconstruct the prefix sum.
                u64::from_be_bytes(b) == fnv1a64_prefixed(base, &bytes[..at])
            }
            && at + total == bytes.len();
        scan.items.push(ScanItem::Record { offset, record });
        at += total;
    }
    scan
}

/// fnv1a64 of `WAL_MAGIC[..base]` followed by `rest` — the footer's
/// coverage. `base` is always the magic length in practice.
fn fnv1a64_prefixed(base: u64, rest: &[u8]) -> u64 {
    let mut buf = Vec::with_capacity(base as usize + rest.len());
    buf.extend_from_slice(&WAL_MAGIC[..(base as usize).min(WAL_MAGIC.len())]);
    buf.extend_from_slice(rest);
    fnv1a64(&buf)
}

/// Reads and scans the active WAL under `root`, honouring an injected
/// short read. Missing file scans empty; a bad magic is reported as a
/// torn tail at offset 0 (the whole file is quarantined by recovery).
///
/// # Errors
///
/// Returns [`DbError::Io`] on filesystem trouble other than the file
/// being absent.
pub fn scan_wal(root: &Path, faults: &DiskFaults) -> Result<WalScan, DbError> {
    scan_file(&root.join(WAL_FILE), faults)
}

/// One scanned segment of the WAL chain, in chain order.
#[derive(Clone, Debug)]
pub struct SegmentScan {
    /// Sealed segment index; `None` for the active `wal.log`.
    pub index: Option<u64>,
    /// File name within the database root.
    pub name: String,
    /// The segment's scan.
    pub scan: WalScan,
}

impl SegmentScan {
    /// True for the active (newest, appendable) log.
    pub fn is_active(&self) -> bool {
        self.index.is_none()
    }
}

/// Scans the whole WAL chain: sealed segments in ascending index order,
/// then the active log last. The injected short read applies to the
/// active log only (sealed segments are immutable history; the fault
/// models a torn *append*).
///
/// # Errors
///
/// Returns [`DbError::Io`] on filesystem trouble.
pub fn scan_chain(root: &Path, faults: &DiskFaults) -> Result<Vec<SegmentScan>, DbError> {
    let mut out = Vec::new();
    for (idx, path) in sealed_segments(root)? {
        out.push(SegmentScan {
            index: Some(idx),
            name: segment_file_name(idx),
            scan: scan_file(&path, &DiskFaults::default())?,
        });
    }
    out.push(SegmentScan {
        index: None,
        name: WAL_FILE.to_string(),
        scan: scan_wal(root, faults)?,
    });
    Ok(out)
}

/// Reads and scans one WAL segment file.
fn scan_file(path: &Path, faults: &DiskFaults) -> Result<WalScan, DbError> {
    let mut file = match File::open(path) {
        Ok(f) => f,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(WalScan::default()),
        Err(e) => return Err(io_err(path, e)),
    };
    let mut bytes = Vec::new();
    file.read_to_end(&mut bytes).map_err(|e| io_err(path, e))?;
    if let Some(cap) = faults.short_read {
        bytes.truncate(cap as usize);
    }
    if bytes.len() < WAL_MAGIC.len() || &bytes[..WAL_MAGIC.len()] != WAL_MAGIC {
        let mut scan = WalScan {
            file_len: bytes.len() as u64,
            ..WalScan::default()
        };
        if !bytes.is_empty() {
            scan.items.push(ScanItem::TornTail { offset: 0 });
        }
        return Ok(scan);
    }
    Ok(scan_bytes(
        &bytes[WAL_MAGIC.len()..],
        WAL_MAGIC.len() as u64,
    ))
}

/// Fsyncs `file`, counting the call in `fsyncs` — the one place the
/// store issues an fsync, so the count is of system calls, not of call
/// sites someone remembered to tally.
pub(crate) fn fsync(file: &File, fsyncs: &mut u64) -> std::io::Result<()> {
    *fsyncs += 1;
    file.sync_all()
}

/// Best-effort directory fsync so a rename survives power loss; ignored
/// on filesystems that refuse to sync directories.
pub(crate) fn sync_dir(dir: &Path, fsyncs: &mut u64) {
    if let Ok(d) = File::open(dir) {
        let _ = fsync(&d, fsyncs);
    }
}

/// Atomic file replace with durability: write temp, fsync, rename,
/// fsync the directory. The fsyncs are counted in `fsyncs`.
pub fn write_atomic(path: &Path, bytes: &[u8], fsyncs: &mut u64) -> Result<(), DbError> {
    let tmp = path.with_extension("tmp");
    let mut f = File::create(&tmp).map_err(|e| io_err(&tmp, e))?;
    f.write_all(bytes).map_err(|e| io_err(&tmp, e))?;
    fsync(&f, fsyncs).map_err(|e| io_err(&tmp, e))?;
    drop(f);
    std::fs::rename(&tmp, path).map_err(|e| io_err(path, e))?;
    if let Some(dir) = path.parent() {
        sync_dir(dir, fsyncs);
    }
    Ok(())
}

/// Observability counters of one [`Wal`] handle (since open).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WalStats {
    /// Records appended (including failed injected-fault appends).
    pub appends: u64,
    /// Fsyncs attempted.
    pub syncs: u64,
    /// Fsync system calls issued on the log and its directory: record
    /// syncs, seals, checkpoints and log creation.
    pub fsyncs: u64,
    /// Checkpoints taken (log folded away).
    pub checkpoints: u64,
    /// Active-log seals (segment rolls).
    pub seals: u64,
    /// Sealed segments folded away by compaction checkpoints.
    pub segments_compacted: u64,
    /// Live segments right now (sealed + the active log).
    pub live_segments: u64,
}

/// An open, appendable WAL (the active segment of the chain).
#[derive(Debug)]
pub struct Wal {
    root: PathBuf,
    path: PathBuf,
    file: File,
    len: u64,
    sealed: Vec<u64>,
    entries_since_checkpoint: u64,
    appends: u64,
    syncs: u64,
    fsyncs: u64,
    checkpoints: u64,
    seals: u64,
    segments_compacted: u64,
    faults: DiskFaults,
}

impl Wal {
    /// Opens (creating with a fresh magic if needed) the WAL under
    /// `root` for appending. `pending_entries` is the `E`-record count a
    /// prior scan found, so [`Wal::has_pending`] is accurate from the
    /// start.
    ///
    /// # Errors
    ///
    /// Returns [`DbError::Io`] on filesystem trouble.
    pub fn open_append(
        root: &Path,
        pending_entries: u64,
        faults: DiskFaults,
    ) -> Result<Wal, DbError> {
        let path = root.join(WAL_FILE);
        let mut fsyncs = 0;
        if !path.exists() {
            write_atomic(&path, WAL_MAGIC, &mut fsyncs)?;
        }
        let file = OpenOptions::new()
            .append(true)
            .open(&path)
            .map_err(|e| io_err(&path, e))?;
        let len = file.metadata().map_err(|e| io_err(&path, e))?.len();
        let sealed = sealed_segments(root)?.into_iter().map(|(i, _)| i).collect();
        Ok(Wal {
            root: root.to_path_buf(),
            path,
            file,
            len,
            sealed,
            entries_since_checkpoint: pending_entries,
            appends: 0,
            syncs: 0,
            fsyncs,
            checkpoints: 0,
            seals: 0,
            segments_compacted: 0,
            faults,
        })
    }

    /// Current file length in bytes.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// True when the WAL holds no bytes past the magic.
    pub fn is_empty(&self) -> bool {
        self.len <= WAL_MAGIC.len() as u64
    }

    /// Redo records written (or found at open) since the last checkpoint.
    pub fn has_pending(&self) -> bool {
        self.entries_since_checkpoint > 0
    }

    /// Appends one record (no fsync — call [`Wal::sync`] before
    /// acknowledging anything).
    ///
    /// # Errors
    ///
    /// Returns [`DbError::Io`] on write failure, including an injected
    /// torn write (which leaves a detectable partial record on disk).
    pub fn append(&mut self, rec: &WalRecord) -> Result<(), DbError> {
        self.appends += 1;
        let mut bytes = encode_record(rec);
        if let Some(bit) = self.faults.bit_flip.take() {
            let nbits = (bytes.len() as u64) * 8;
            let b = (bit % nbits) as usize;
            bytes[b / 8] ^= 1 << (b % 8);
        }
        if let Some(k) = self.faults.torn_write.take() {
            let cut = (k as usize).min(bytes.len());
            let wrote = self.file.write_all(&bytes[..cut]);
            let _ = fsync(&self.file, &mut self.fsyncs);
            self.len += cut as u64;
            wrote.map_err(|e| io_err(&self.path, e))?;
            return Err(DbError::Io(format!(
                "{}: injected torn write after {cut} of {} record bytes",
                self.path.display(),
                bytes.len()
            )));
        }
        self.file
            .write_all(&bytes)
            .map_err(|e| io_err(&self.path, e))?;
        self.len += bytes.len() as u64;
        if rec.redo_payload().is_some() {
            self.entries_since_checkpoint += 1;
        }
        Ok(())
    }

    /// Forces appended records to stable storage.
    ///
    /// # Errors
    ///
    /// Returns [`DbError::Io`] on fsync failure (real or injected); the
    /// caller must treat the preceding append as not durable.
    pub fn sync(&mut self) -> Result<(), DbError> {
        self.syncs += 1;
        if let Some(n) = self.faults.fsync_fail {
            if self.syncs >= n {
                self.faults.fsync_fail = None;
                return Err(DbError::Io(format!(
                    "{}: injected fsync failure (sync #{})",
                    self.path.display(),
                    self.syncs
                )));
            }
        }
        fsync(&self.file, &mut self.fsyncs).map_err(|e| io_err(&self.path, e))
    }

    /// Live segments in the chain: sealed ones plus the active log.
    pub fn live_segments(&self) -> usize {
        self.sealed.len() + 1
    }

    /// Seals the active log: fsyncs it, renames it to the next
    /// `wal.NNNNNN.log` slot, and starts a fresh active log. Pending
    /// entries stay pending — they now live in the sealed segment until
    /// the next checkpoint folds the chain away. Returns the new
    /// segment's index.
    ///
    /// # Errors
    ///
    /// Returns [`DbError::Io`] on filesystem trouble; on failure the
    /// active log stays in place (a completed rename with a failed
    /// fresh-log write is repaired at reopen, which recreates `wal.log`).
    pub fn seal(&mut self) -> Result<u64, DbError> {
        fsync(&self.file, &mut self.fsyncs).map_err(|e| io_err(&self.path, e))?;
        let idx = self.sealed.last().map_or(0, |i| i + 1);
        let seg = self.root.join(segment_file_name(idx));
        std::fs::rename(&self.path, &seg).map_err(|e| io_err(&seg, e))?;
        sync_dir(&self.root, &mut self.fsyncs);
        write_atomic(&self.path, WAL_MAGIC, &mut self.fsyncs)?;
        self.file = OpenOptions::new()
            .append(true)
            .open(&self.path)
            .map_err(|e| io_err(&self.path, e))?;
        self.len = WAL_MAGIC.len() as u64;
        self.sealed.push(idx);
        self.seals += 1;
        Ok(idx)
    }

    /// Checkpoints: atomically replaces the active log with a fresh one
    /// holding only the magic, the `carry` records (the store's id and
    /// context carryover and the deltas repair may still need), and a
    /// clean footer, then deletes the sealed segments (compaction). Redo
    /// state the old log held must already be durable in entry files.
    /// A carried record with redo state — a full-state install's `E`
    /// records — stays pending until the next checkpoint.
    ///
    /// Segment deletion is best-effort and ordered *after* the fresh
    /// log is durable: a leftover sealed segment only causes idempotent
    /// already-applied replay at the next open, never data loss.
    ///
    /// # Errors
    ///
    /// Returns [`DbError::Io`] on filesystem trouble; the old log stays
    /// in place on failure.
    pub fn checkpoint(&mut self, carry: &[WalRecord]) -> Result<(), DbError> {
        let buf = log_image(carry);
        write_atomic(&self.path, &buf, &mut self.fsyncs)?;
        self.file = OpenOptions::new()
            .append(true)
            .open(&self.path)
            .map_err(|e| io_err(&self.path, e))?;
        self.len = buf.len() as u64;
        self.entries_since_checkpoint =
            carry.iter().filter(|r| r.redo_payload().is_some()).count() as u64;
        self.checkpoints += 1;
        self.segments_compacted += self.sealed.len() as u64;
        for idx in std::mem::take(&mut self.sealed) {
            let _ = std::fs::remove_file(self.root.join(segment_file_name(idx)));
        }
        sync_dir(&self.root, &mut self.fsyncs);
        Ok(())
    }

    /// Observability counters for this handle.
    pub fn stats(&self) -> WalStats {
        WalStats {
            appends: self.appends,
            syncs: self.syncs,
            fsyncs: self.fsyncs,
            checkpoints: self.checkpoints,
            seals: self.seals,
            segments_compacted: self.segments_compacted,
            live_segments: self.live_segments() as u64,
        }
    }

    /// Truncates the file to `len` bytes (recovery's torn-tail cut),
    /// counting its fsync in `fsyncs`.
    ///
    /// # Errors
    ///
    /// Returns [`DbError::Io`] on filesystem trouble.
    pub fn truncate_to(path: &Path, len: u64, fsyncs: &mut u64) -> Result<(), DbError> {
        let f = OpenOptions::new()
            .write(true)
            .open(path)
            .map_err(|e| io_err(path, e))?;
        f.set_len(len).map_err(|e| io_err(path, e))?;
        fsync(&f, fsyncs).map_err(|e| io_err(path, e))?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("wal-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn records_round_trip_through_scan() {
        let root = tmpdir("roundtrip");
        let mut wal = Wal::open_append(&root, 0, DiskFaults::default()).unwrap();
        wal.append(&WalRecord::entry(7, "# profdb v1\n")).unwrap();
        wal.append(&WalRecord::ids(&[1, 2, 3])).unwrap();
        wal.sync().unwrap();
        let scan = scan_wal(&root, &DiskFaults::default()).unwrap();
        assert_eq!(scan.items.len(), 2);
        assert_eq!(scan.pending_entries(), 1);
        assert_eq!(scan.known_ids(), vec![7, 1, 2, 3]);
        assert!(!scan.clean_footer);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn delta_records_carry_dot_delta_and_redo_state() {
        let delta = DeltaRecord {
            req_id: 7,
            dot: Some(Dot { origin: 2, n: 9 }),
            entry_text: "delta text".into(),
        };
        let redo = WalRecord::delta(&delta, "post text");
        assert_eq!(redo.unpack_delta(), Some(delta.clone()));
        assert_eq!(redo.redo_payload(), Some(&b"post text"[..]));
        let note = WalRecord::delta(&delta, "");
        assert_eq!(note.unpack_delta(), Some(delta));
        assert_eq!(note.redo_payload(), None, "no post-merge state, no redo");
        let mut torn = note.clone();
        torn.payload.truncate(25);
        assert_eq!(torn.unpack_delta(), None);

        let root = tmpdir("delta");
        let mut wal = Wal::open_append(&root, 0, DiskFaults::default()).unwrap();
        wal.append(&redo).unwrap();
        wal.append(&note).unwrap();
        assert!(wal.has_pending());
        let scan = scan_wal(&root, &DiskFaults::default()).unwrap();
        assert_eq!(scan.pending_entries(), 1);
        assert_eq!(scan.known_ids(), vec![7, 7]);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn log_images_round_trip_and_reject_corruption_whole() {
        let delta = DeltaRecord {
            req_id: 7,
            dot: Some(Dot { origin: 2, n: 9 }),
            entry_text: "delta text".into(),
        };
        let records = vec![
            WalRecord::ids(&[7, 8]),
            WalRecord::delta(&delta, ""),
            WalRecord::entry(0, "# profdb v1\n"),
        ];
        let text = encode_log_image(&records);
        assert_eq!(decode_log_image(&text).unwrap(), records);
        assert_eq!(decode_log_image(&encode_log_image(&[])).unwrap(), vec![]);
        let rejects = |what: &str, evil: &str| {
            let err = decode_log_image(evil).unwrap_err();
            assert!(
                matches!(
                    err,
                    DbError::Corrupt {
                        what: "log image",
                        ..
                    }
                ),
                "{what}: {err:?}"
            );
            assert!(
                err.to_string().starts_with("corrupt log image: "),
                "{what}: {err}"
            );
        };
        // Truncation anywhere: odd hex, or an image missing its footer.
        for cut in (0..text.len()).step_by(7) {
            rejects("truncated", &text[..cut]);
        }
        // One flipped hex digit anywhere, and non-hex text.
        for at in (0..text.len()).step_by(5) {
            let mut flipped = text.clone().into_bytes();
            flipped[at] = if flipped[at] == b'0' { b'1' } else { b'0' };
            rejects("flipped", &String::from_utf8(flipped).unwrap());
        }
        rejects("not hex", &text.replace('a', "g"));
        // A lying length field in the first record (after the magic and
        // its tag): past the image, or short of its record.
        for len in ["ffffff00", "00000001"] {
            let at = 2 * (WAL_MAGIC.len() + 1);
            rejects(
                "lying length",
                &format!("{}{len}{}", &text[..at], &text[at + 8..]),
            );
        }
    }

    #[test]
    fn checkpoint_leaves_a_clean_footer() {
        let root = tmpdir("footer");
        let mut wal = Wal::open_append(&root, 0, DiskFaults::default()).unwrap();
        wal.append(&WalRecord::entry(9, "x")).unwrap();
        wal.sync().unwrap();
        assert!(wal.has_pending());
        wal.checkpoint(&[WalRecord::ids(&[9])]).unwrap();
        assert!(!wal.has_pending());
        let scan = scan_wal(&root, &DiskFaults::default()).unwrap();
        assert!(scan.clean_footer, "{scan:?}");
        assert_eq!(scan.pending_entries(), 0);
        assert_eq!(scan.known_ids(), vec![9]);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn torn_append_is_a_torn_tail() {
        let root = tmpdir("torn");
        let mut wal = Wal::open_append(&root, 0, DiskFaults::default()).unwrap();
        wal.append(&WalRecord::entry(1, "first")).unwrap();
        wal.sync().unwrap();
        // Crash mid-append: only half the record lands.
        let rec = encode_record(&WalRecord::entry(2, "second"));
        let mut f = OpenOptions::new()
            .append(true)
            .open(root.join(WAL_FILE))
            .unwrap();
        f.write_all(&rec[..rec.len() / 2]).unwrap();
        drop(f);
        let scan = scan_wal(&root, &DiskFaults::default()).unwrap();
        assert_eq!(scan.pending_entries(), 1);
        assert!(matches!(scan.items.last(), Some(ScanItem::TornTail { .. })));
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn bit_flip_is_quarantinable_not_fatal() {
        let root = tmpdir("flip");
        let faults = DiskFaults {
            bit_flip: Some(200),
            ..DiskFaults::default()
        };
        let mut wal = Wal::open_append(&root, 0, faults).unwrap();
        wal.append(&WalRecord::entry(1, "will be flipped")).unwrap();
        wal.append(&WalRecord::entry(2, "clean after")).unwrap();
        wal.sync().unwrap();
        let scan = scan_wal(&root, &DiskFaults::default()).unwrap();
        let corrupt = scan
            .items
            .iter()
            .filter(|i| matches!(i, ScanItem::Corrupt { .. }))
            .count();
        assert_eq!(corrupt, 1, "{scan:?}");
        // The record after the corruption still scans.
        assert_eq!(scan.pending_entries(), 1);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn injected_fsync_failure_surfaces() {
        let root = tmpdir("fsync");
        let faults = DiskFaults {
            fsync_fail: Some(1),
            ..DiskFaults::default()
        };
        let mut wal = Wal::open_append(&root, 0, faults).unwrap();
        wal.append(&WalRecord::entry(1, "x")).unwrap();
        assert!(wal.sync().is_err());
        // One-shot: the next sync succeeds.
        assert!(wal.sync().is_ok());
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn seal_rolls_the_active_log_and_chain_scans_in_order() {
        let root = tmpdir("seal");
        let mut wal = Wal::open_append(&root, 0, DiskFaults::default()).unwrap();
        wal.append(&WalRecord::entry(1, "first")).unwrap();
        wal.sync().unwrap();
        assert_eq!(wal.seal().unwrap(), 0);
        assert_eq!(wal.live_segments(), 2);
        wal.append(&WalRecord::entry(2, "second")).unwrap();
        wal.sync().unwrap();
        assert_eq!(wal.seal().unwrap(), 1);
        wal.append(&WalRecord::entry(3, "third")).unwrap();
        wal.sync().unwrap();
        assert!(wal.has_pending());

        let chain = scan_chain(&root, &DiskFaults::default()).unwrap();
        assert_eq!(chain.len(), 3);
        assert_eq!(chain[0].index, Some(0));
        assert_eq!(chain[1].index, Some(1));
        assert!(chain[2].is_active());
        let ids: Vec<u64> = chain.iter().flat_map(|seg| seg.scan.known_ids()).collect();
        assert_eq!(ids, vec![1, 2, 3], "chain order is oldest-first");
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn sealed_indices_resume_after_reopen() {
        let root = tmpdir("seal-reopen");
        {
            let mut wal = Wal::open_append(&root, 0, DiskFaults::default()).unwrap();
            wal.append(&WalRecord::entry(1, "x")).unwrap();
            wal.sync().unwrap();
            wal.seal().unwrap();
        }
        let mut wal = Wal::open_append(&root, 1, DiskFaults::default()).unwrap();
        assert_eq!(wal.live_segments(), 2);
        assert_eq!(wal.seal().unwrap(), 1, "indices continue past history");
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn checkpoint_compacts_sealed_segments() {
        let root = tmpdir("compact");
        let mut wal = Wal::open_append(&root, 0, DiskFaults::default()).unwrap();
        for i in 0..3u64 {
            wal.append(&WalRecord::entry(i + 1, "entry")).unwrap();
            wal.sync().unwrap();
            wal.seal().unwrap();
        }
        assert_eq!(wal.live_segments(), 4);
        wal.checkpoint(&[WalRecord::ids(&[1, 2, 3])]).unwrap();
        assert_eq!(wal.live_segments(), 1);
        let stats = wal.stats();
        assert_eq!(stats.seals, 3);
        assert_eq!(stats.segments_compacted, 3);
        assert!(sealed_segments(&root).unwrap().is_empty());
        let scan = scan_wal(&root, &DiskFaults::default()).unwrap();
        assert!(scan.clean_footer);
        assert_eq!(scan.known_ids(), vec![1, 2, 3]);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn segment_names_round_trip() {
        assert_eq!(segment_file_name(7), "wal.000007.log");
        assert_eq!(parse_segment_name("wal.000007.log"), Some(7));
        assert_eq!(parse_segment_name("wal.1000000.log"), Some(1_000_000));
        assert_eq!(parse_segment_name(WAL_FILE), None);
        assert_eq!(parse_segment_name("wal.x.log"), None);
        assert_eq!(parse_segment_name("wal..log"), None);
        assert_eq!(parse_segment_name("entry@00.profdb"), None);
    }

    #[test]
    fn short_read_truncates_the_scan() {
        let root = tmpdir("short");
        let mut wal = Wal::open_append(&root, 0, DiskFaults::default()).unwrap();
        wal.append(&WalRecord::entry(1, "first")).unwrap();
        wal.append(&WalRecord::entry(2, "second")).unwrap();
        wal.sync().unwrap();
        let full = scan_wal(&root, &DiskFaults::default()).unwrap();
        assert_eq!(full.pending_entries(), 2);
        let faults = DiskFaults {
            short_read: Some(full.file_len - 3),
            ..DiskFaults::default()
        };
        let short = scan_wal(&root, &faults).unwrap();
        assert_eq!(short.pending_entries(), 1);
        assert!(matches!(
            short.items.last(),
            Some(ScanItem::TornTail { .. })
        ));
        let _ = std::fs::remove_dir_all(&root);
    }
}
