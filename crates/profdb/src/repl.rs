//! Replica delta exchange: the unit of replication between the replicas
//! of a shard.
//!
//! A **delta** is one client-submitted merge — the *incoming* profile
//! entry plus the request's idempotency id — not the WAL's post-merge
//! redo state. That distinction is what makes replication delivery-order
//! independent: post-merge states are absolute snapshots (applying them
//! out of order rolls counters back), whereas incoming entries are pure
//! increments under [`crate::ProfileEntry::merge`], which is commutative,
//! associative, and saturating byte-for-byte. Any replica that applies
//! the same *set* of deltas — in any order, with any duplication —
//! converges to the identical store bytes:
//!
//! * ordering: merge commutativity/associativity (PR 3's property,
//!   strengthened to exact byte equality by the canonical top-table
//!   order);
//! * duplication: every delta carries a dot (stamped by the router, or
//!   by the first replica it reaches) and a nonzero request id; a store
//!   skips a dot its causal context already holds and an id its recent
//!   id set remembers, so redelivery is exactly-once;
//! * loss: the sender retries a batch until acknowledged; resends are
//!   harmless by the previous two points.
//!
//! Batches carry `(req_id, dot, entry text)` triples in a
//! line-oriented, checksummed text envelope that travels inside
//! wire-protocol request bodies (` dot=` is absent for a delta sent
//! without one):
//!
//! ```text
//! # profdb delta-batch v1
//! count <N>
//! delta id=<16 hex> dot=<16 hex>.<n> bytes=<B>
//! <B bytes of profile entry text>
//! ...
//! checksum <16 hex>              fnv1a64 of everything above
//! ```

use crate::context::Dot;
use crate::entry::DbError;
use crate::hash::fnv1a64;
use std::fmt::Write as _;

/// Header line of the batch envelope.
pub const DELTA_BATCH_HEADER: &str = "# profdb delta-batch v1";

/// One replicated merge: the client's incoming entry, its idempotency id
/// (never zero in a batch) and its dot.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DeltaRecord {
    /// Idempotency id stamped by the original submitter.
    pub req_id: u64,
    /// Repair identity; `None` until a router or the first replica to
    /// apply the delta stamps one.
    pub dot: Option<Dot>,
    /// The *pre-merge* incoming entry text (a `# profdb v1` document).
    pub entry_text: String,
}

/// What applying a batch did.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DeltaApplyReport {
    /// Deltas merged into the store.
    pub applied: usize,
    /// Deltas skipped because their id was already applied.
    pub deduped: usize,
}

/// Serializes a delta batch into its checksummed text envelope.
pub fn encode_delta_batch(deltas: &[DeltaRecord]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{DELTA_BATCH_HEADER}");
    let _ = writeln!(out, "count {}", deltas.len());
    for d in deltas {
        let _ = write!(out, "delta id={:016x}", d.req_id);
        if let Some(dot) = d.dot {
            let _ = write!(out, " dot={:016x}.{}", dot.origin, dot.n);
        }
        let _ = writeln!(out, " bytes={}", d.entry_text.len());
        out.push_str(&d.entry_text);
        if !d.entry_text.ends_with('\n') {
            out.push('\n');
        }
    }
    let sum = fnv1a64(out.as_bytes());
    let _ = writeln!(out, "checksum {sum:016x}");
    out
}

fn batch_err(msg: impl Into<String>) -> DbError {
    DbError::Corrupt {
        what: "delta batch",
        detail: msg.into(),
    }
}

/// Parses a `<16 hex>.<n>` dot; origin and `n` are both nonzero.
fn parse_dot(text: &str) -> Result<Dot, DbError> {
    let bad = || batch_err(format!("bad delta dot `{text}`"));
    let (origin, n) = text.split_once('.').ok_or_else(bad)?;
    let dot = Dot {
        origin: u64::from_str_radix(origin, 16).map_err(|_| bad())?,
        n: n.parse().map_err(|_| bad())?,
    };
    if dot.origin == 0 || dot.n == 0 {
        return Err(bad());
    }
    Ok(dot)
}

/// Parses and verifies a delta batch envelope.
///
/// # Errors
///
/// Returns [`DbError::Corrupt`] for any structural problem — bad
/// header, count mismatch, zero id, or a checksum that does not match
/// (a corrupted batch must be rejected whole, never half-applied).
pub fn decode_delta_batch(text: &str) -> Result<Vec<DeltaRecord>, DbError> {
    // Split off and verify the checksum line first: it covers every
    // preceding byte, so nothing else is trusted until it matches.
    let body_end = text
        .rfind("checksum ")
        .ok_or_else(|| batch_err("missing checksum line"))?;
    if body_end == 0 || text.as_bytes()[body_end - 1] != b'\n' {
        return Err(batch_err("checksum line not at line start"));
    }
    let sum_line = text[body_end..].trim_end();
    let tail = &text[body_end + sum_line.len()..];
    if !tail.trim().is_empty() {
        return Err(batch_err("trailing bytes after checksum line"));
    }
    let want = u64::from_str_radix(sum_line["checksum ".len()..].trim(), 16)
        .map_err(|_| batch_err(format!("unparsable checksum line `{sum_line}`")))?;
    let body = &text[..body_end];
    let got = fnv1a64(body.as_bytes());
    if got != want {
        return Err(batch_err(format!(
            "checksum mismatch: batch says {want:016x}, content hashes to {got:016x}"
        )));
    }

    let mut rest = body;
    let line = |rest: &mut &str| -> Option<String> {
        let end = rest.find('\n')?;
        let l = rest[..end].to_string();
        *rest = &rest[end + 1..];
        Some(l)
    };
    let header = line(&mut rest).ok_or_else(|| batch_err("empty batch"))?;
    if header.trim() != DELTA_BATCH_HEADER {
        return Err(batch_err(format!("bad header `{}`", header.trim())));
    }
    let count_line = line(&mut rest).ok_or_else(|| batch_err("missing count"))?;
    let count: usize = count_line
        .strip_prefix("count ")
        .and_then(|n| n.trim().parse().ok())
        .ok_or_else(|| batch_err(format!("bad count line `{count_line}`")))?;

    // The count is untrusted: nothing is allocated ahead by it.
    let mut deltas = Vec::new();
    for i in 0..count {
        let head = line(&mut rest).ok_or_else(|| batch_err(format!("truncated at delta {i}")))?;
        let rest_head = head
            .strip_prefix("delta id=")
            .ok_or_else(|| batch_err(format!("bad delta header `{head}`")))?;
        let (id_s, bytes_s) = rest_head
            .split_once(" bytes=")
            .ok_or_else(|| batch_err(format!("bad delta header `{head}`")))?;
        let (id_s, dot) = match id_s.split_once(" dot=") {
            Some((id_s, dot_s)) => (id_s, Some(parse_dot(dot_s)?)),
            None => (id_s, None),
        };
        let req_id = u64::from_str_radix(id_s.trim(), 16)
            .map_err(|_| batch_err(format!("bad delta id `{id_s}`")))?;
        if req_id == 0 {
            return Err(batch_err(format!(
                "delta {i} has id 0: exactly-once replication needs a real idempotency id"
            )));
        }
        let nbytes: usize = bytes_s
            .trim()
            .parse()
            .map_err(|_| batch_err(format!("bad delta length `{bytes_s}`")))?;
        let entry_text = rest
            .get(..nbytes)
            .ok_or_else(|| batch_err(format!("delta {i} overruns the batch")))?
            .to_string();
        rest = rest
            .get(nbytes..)
            .ok_or_else(|| batch_err(format!("delta {i} splits a character")))?;
        // encode adds a newline after non-newline-terminated payloads;
        // swallow the separator either way.
        if let Some(stripped) = rest.strip_prefix('\n') {
            if !entry_text.ends_with('\n') {
                rest = stripped;
            }
        }
        deltas.push(DeltaRecord {
            req_id,
            dot,
            entry_text,
        });
    }
    if !rest.trim().is_empty() {
        return Err(batch_err(format!(
            "{} byte(s) of slack between last delta and checksum",
            rest.len()
        )));
    }
    Ok(deltas)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn delta(id: u64, text: &str) -> DeltaRecord {
        DeltaRecord {
            req_id: id,
            dot: None,
            entry_text: text.to_string(),
        }
    }

    #[test]
    fn batch_round_trip() {
        let dotted = DeltaRecord {
            dot: Some(Dot { origin: 3, n: 41 }),
            ..delta(0x3333, "dotted\n")
        };
        let deltas = vec![
            delta(0x1111, "# profdb v1\nworkload a\n"),
            delta(0x2222, "no trailing newline"),
            delta(0xffff_ffff_ffff_ffff, ""),
            dotted.clone(),
        ];
        let text = encode_delta_batch(&deltas);
        let back = decode_delta_batch(&text).unwrap();
        assert_eq!(back.len(), 4);
        assert_eq!(back[3], dotted);
        assert_eq!(back[0], deltas[0]);
        assert_eq!(back[1].entry_text, "no trailing newline");
        assert_eq!(back[2].req_id, u64::MAX);
    }

    #[test]
    fn empty_batch_round_trips() {
        let text = encode_delta_batch(&[]);
        assert!(decode_delta_batch(&text).unwrap().is_empty());
    }

    #[test]
    fn corrupted_batch_is_rejected_whole() {
        let text = encode_delta_batch(&[delta(7, "# profdb v1\nworkload a\n")]);
        let evil = text.replace("workload a", "workload b");
        let err = decode_delta_batch(&evil).unwrap_err();
        assert!(
            matches!(
                err,
                DbError::Corrupt {
                    what: "delta batch",
                    ..
                }
            ),
            "{err:?}"
        );
        assert!(err.to_string().contains("checksum mismatch"), "{err}");
    }

    #[test]
    fn a_lying_count_is_rejected_not_allocated() {
        let mut body = format!("{DELTA_BATCH_HEADER}\ncount {}\n", u64::MAX >> 8);
        body.push_str("delta id=7 bytes=1\nx\n");
        let sum = crate::hash::fnv1a64(body.as_bytes());
        body.push_str(&format!("checksum {sum:016x}\n"));
        let err = decode_delta_batch(&body).unwrap_err();
        assert!(err.to_string().contains("truncated at delta 1"), "{err}");
    }

    #[test]
    fn zero_id_is_rejected() {
        // Hand-build a batch with id 0 (encode would happily write it,
        // but apply-side dedup could not make it exactly-once).
        let mut body = format!("{DELTA_BATCH_HEADER}\ncount 1\ndelta id=0 bytes=1\nx\n");
        let sum = crate::hash::fnv1a64(body.as_bytes());
        body.push_str(&format!("checksum {sum:016x}\n"));
        let err = decode_delta_batch(&body).unwrap_err();
        assert!(err.to_string().contains("id 0"), "{err}");
    }

    #[test]
    fn held_dots_and_unpruned_deltas_survive_compaction_and_reopen() {
        use crate::{CausalContext, ProfileDb, ProfileEntry};
        let root = std::env::temp_dir().join(format!("repl-context-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let text = ProfileEntry {
            workload: "mcf".into(),
            module_hash: 3,
            runs: 1,
            edge_tables: vec![vec![5, 0, 3]],
            stride: stride_profiling::StrideProfile::new(),
        }
        .to_text();
        let dotted = |id, n| DeltaRecord {
            dot: Some(Dot { origin: 1, n }),
            ..delta(id, &text)
        };
        let (a, b, d) = (dotted(0x11, 1), dotted(0x22, 2), dotted(0x44, 3));
        let everything = CausalContext::default();
        let (held, kept) = {
            let db = ProfileDb::open(&root).unwrap();
            let report = db
                .apply_deltas(&[a.clone(), b.clone(), delta(0x33, &text), a.clone()])
                .unwrap();
            assert_eq!((report.applied, report.deduped), (3, 1));
            // The dot-less delta got a dot of the store's own origin.
            let stamped = db.deltas_missing_from(&everything, usize::MAX);
            assert_eq!(stamped.len(), 3);
            let own = stamped[2].clone();
            assert!(own.dot.is_some_and(|dot| dot.origin >= 1 << 63), "{own:?}");
            // Every replica holds `a`: the floor drops it from repair.
            let mut floor = CausalContext::default();
            floor.insert(Dot { origin: 1, n: 1 });
            db.adopt_floor(&floor);
            db.checkpoint().unwrap();
            db.apply_deltas(std::slice::from_ref(&d)).unwrap();
            (db.causal_context(), vec![b, d, own])
            // Dropped without a checkpoint: a crash after `d`.
        };
        let db = ProfileDb::open(&root).unwrap();
        assert_eq!(db.causal_context(), held);
        assert!(held.contains(Dot { origin: 1, n: 1 }), "pruned but held");
        assert_eq!(db.deltas_missing_from(&everything, usize::MAX), kept);
        assert_eq!(db.deltas_missing_from(&held, usize::MAX), vec![]);
        assert_eq!(db.deltas_missing_from(&everything, 1).len(), 1, "batch cap");
        // The pruned delta is still skipped by its dot.
        let report = db.apply_deltas(&[a]).unwrap();
        assert_eq!((report.applied, report.deduped), (0, 1));
        assert_eq!(db.load("mcf", 3).unwrap().runs, 4);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn truncated_batch_is_rejected() {
        let text = encode_delta_batch(&[delta(7, "payload text here")]);
        // Rebuild with a length overrunning the body but a valid checksum.
        let evil_body = text
            .replace("bytes=17", "bytes=9999")
            .rsplit_once("checksum ")
            .map(|(body, _)| body.to_string())
            .unwrap();
        let sum = crate::hash::fnv1a64(evil_body.as_bytes());
        let evil = format!("{evil_body}checksum {sum:016x}\n");
        let err = decode_delta_batch(&evil).unwrap_err();
        assert!(err.to_string().contains("overruns"), "{err}");
    }
}
