//! Exact repair identities for replicated deltas: dots and the causal
//! context that records which of them a store holds.
//!
//! A **dot** `(origin, n)` names the `n`-th delta stamped by `origin`
//! (a router start, or a store open stamping a delta that arrived
//! without one — see [`Dot::fresh_origin`]). A store's **causal context** is the set of dots it
//! holds, kept per origin as a contiguous high-water mark plus sorted
//! disjoint ranges above it — the compact causal context of delta-state
//! CRDTs (Almeida, Shoker & Baquero 2018). Two replicas compare contexts
//! to find exactly the deltas one lacks, and the intersection of every
//! replica's context is the floor below which no replica can need a
//! logged delta again.
//!
//! ```text
//! # profdb context v1
//! origin <16 hex> hwm <H> [<lo>-<hi> ...]
//! ```

use crate::entry::DbError;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::hash::{BuildHasher, Hasher};

/// Header line of the context envelope.
pub const CONTEXT_HEADER: &str = "# profdb context v1";

/// One replicated delta's identity: the `n`-th (from 1) delta stamped by
/// `origin`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Dot {
    /// Who stamped the delta.
    pub origin: u64,
    /// The stamper's sequence number, from 1.
    pub n: u64,
}

impl Dot {
    /// A fresh origin for one stamper — a router start, or a store open
    /// (`replica`). Random per call, so no two stampers share one even
    /// when nothing durable tells them apart; nonzero, since origin 0
    /// means "no dot" in the log; top bit set for a replica and clear
    /// for a router, so the two kinds never meet.
    pub fn fresh_origin(replica: bool) -> u64 {
        let random = std::collections::hash_map::RandomState::new()
            .build_hasher()
            .finish();
        if replica {
            random | 1 << 63
        } else {
            (random >> 1).max(1)
        }
    }
}

/// The set of dots a store holds. Per origin: sorted, disjoint,
/// non-adjacent inclusive ranges; a range starting at 1 is the origin's
/// high-water mark.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CausalContext {
    origins: BTreeMap<u64, Vec<(u64, u64)>>,
}

/// Adds `lo..=hi` to a normalized range list.
fn insert_range(ranges: &mut Vec<(u64, u64)>, lo: u64, hi: u64) {
    let start = ranges.partition_point(|&(_, end)| end.saturating_add(1) < lo);
    let (mut new_lo, mut new_hi, mut end) = (lo, hi, start);
    while end < ranges.len() && ranges[end].0 <= new_hi.saturating_add(1) {
        new_lo = new_lo.min(ranges[end].0);
        new_hi = new_hi.max(ranges[end].1);
        end += 1;
    }
    ranges.splice(start..end, [(new_lo, new_hi)]);
}

fn ctx_err(msg: impl Into<String>) -> DbError {
    DbError::Corrupt {
        what: "causal context",
        detail: msg.into(),
    }
}

impl CausalContext {
    /// True when the store holds `dot`.
    pub fn contains(&self, dot: Dot) -> bool {
        self.origins.get(&dot.origin).is_some_and(|ranges| {
            let i = ranges.partition_point(|&(_, end)| end < dot.n);
            ranges.get(i).is_some_and(|&(lo, _)| lo <= dot.n)
        })
    }

    /// Records `dot` as held.
    pub fn insert(&mut self, dot: Dot) {
        insert_range(self.origins.entry(dot.origin).or_default(), dot.n, dot.n);
    }

    /// Adds every dot of `other`.
    pub fn union(&mut self, other: &CausalContext) {
        for (&origin, ranges) in &other.origins {
            let mine = self.origins.entry(origin).or_default();
            for &(lo, hi) in ranges {
                insert_range(mine, lo, hi);
            }
        }
    }

    /// The dots both contexts hold.
    pub fn intersection(&self, other: &CausalContext) -> CausalContext {
        let mut out = CausalContext::default();
        for (&origin, a) in &self.origins {
            let Some(b) = other.origins.get(&origin) else {
                continue;
            };
            let (mut i, mut j, mut both) = (0, 0, Vec::new());
            while i < a.len() && j < b.len() {
                let (lo, hi) = (a[i].0.max(b[j].0), a[i].1.min(b[j].1));
                if lo <= hi {
                    both.push((lo, hi));
                }
                if a[i].1 < b[j].1 {
                    i += 1;
                } else {
                    j += 1;
                }
            }
            if !both.is_empty() {
                out.origins.insert(origin, both);
            }
        }
        out
    }

    /// Serializes the context into its text envelope.
    pub fn to_text(&self) -> String {
        let mut out = format!("{CONTEXT_HEADER}\n");
        for (origin, ranges) in &self.origins {
            let hwm = match ranges.first() {
                Some(&(1, hi)) => hi,
                _ => 0,
            };
            let _ = write!(out, "origin {origin:016x} hwm {hwm}");
            for &(lo, hi) in ranges.iter().skip(usize::from(hwm > 0)) {
                let _ = write!(out, " {lo}-{hi}");
            }
            out.push('\n');
        }
        out
    }

    /// Parses a context envelope. An empty text is the empty context.
    ///
    /// # Errors
    ///
    /// Returns [`DbError::Corrupt`] for a bad header or line, or a
    /// range that is empty or starts at 0.
    pub fn from_text(text: &str) -> Result<CausalContext, DbError> {
        let mut ctx = CausalContext::default();
        let mut lines = text.lines();
        match lines.next().map(str::trim) {
            None | Some("") => return Ok(ctx),
            Some(CONTEXT_HEADER) => {}
            Some(other) => return Err(ctx_err(format!("bad header `{other}`"))),
        }
        for line in lines.map(str::trim).filter(|l| !l.is_empty()) {
            let bad = || ctx_err(format!("bad line `{line}`"));
            let mut parts = line.split_whitespace();
            let (Some("origin"), Some(origin), Some("hwm"), Some(hwm)) =
                (parts.next(), parts.next(), parts.next(), parts.next())
            else {
                return Err(bad());
            };
            let origin = u64::from_str_radix(origin, 16).map_err(|_| bad())?;
            let ranges = ctx.origins.entry(origin).or_default();
            let hwm: u64 = hwm.parse().map_err(|_| bad())?;
            if hwm > 0 {
                insert_range(ranges, 1, hwm);
            }
            for part in parts {
                let (lo, hi) = part.split_once('-').ok_or_else(bad)?;
                let (lo, hi): (u64, u64) = (
                    lo.parse().map_err(|_| bad())?,
                    hi.parse().map_err(|_| bad())?,
                );
                if lo == 0 || lo > hi {
                    return Err(bad());
                }
                insert_range(ranges, lo, hi);
            }
            if ranges.is_empty() {
                ctx.origins.remove(&origin);
            }
        }
        Ok(ctx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dot(origin: u64, n: u64) -> Dot {
        Dot { origin, n }
    }

    fn ctx(dots: &[(u64, u64)]) -> CausalContext {
        let mut c = CausalContext::default();
        for &(o, n) in dots {
            c.insert(dot(o, n));
        }
        c
    }

    #[test]
    fn inserts_coalesce_into_a_high_water_mark_and_ranges() {
        let c = ctx(&[(1, 3), (1, 1), (1, 2), (1, 7), (1, 5), (1, 6), (9, 4)]);
        assert_eq!(
            c.to_text(),
            format!(
                "{CONTEXT_HEADER}\norigin {:016x} hwm 3 5-7\norigin {:016x} hwm 0 4-4\n",
                1, 9
            )
        );
        assert!(c.contains(dot(1, 2)) && c.contains(dot(1, 6)) && c.contains(dot(9, 4)));
        assert!(!c.contains(dot(1, 4)) && !c.contains(dot(1, 8)) && !c.contains(dot(2, 1)));
    }

    #[test]
    fn text_round_trips_and_rejects_garbage() {
        let c = ctx(&[(1, 1), (1, 2), (1, 9), (u64::MAX, 3)]);
        assert_eq!(CausalContext::from_text(&c.to_text()).unwrap(), c);
        assert_eq!(
            CausalContext::from_text("").unwrap(),
            CausalContext::default()
        );
        let bad_range = format!("{CONTEXT_HEADER}\norigin 01 hwm 0 0-3\n");
        let bad_line = format!("{CONTEXT_HEADER}\norigin 01 3\n");
        for evil in ["# wrong\n", &bad_range, &bad_line] {
            let err = CausalContext::from_text(evil).unwrap_err();
            assert!(
                matches!(
                    err,
                    DbError::Corrupt {
                        what: "causal context",
                        ..
                    }
                ),
                "{err:?}"
            );
        }
    }

    #[test]
    fn intersection_is_the_floor_and_union_the_join() {
        let a = ctx(&[(1, 1), (1, 2), (1, 3), (1, 5), (2, 1)]);
        let b = ctx(&[(1, 1), (1, 2), (1, 5), (1, 6), (3, 1)]);
        assert_eq!(a.intersection(&b), ctx(&[(1, 1), (1, 2), (1, 5)]));
        let mut joined = a.clone();
        joined.union(&b);
        assert_eq!(
            joined,
            ctx(&[(1, 1), (1, 2), (1, 3), (1, 5), (1, 6), (2, 1), (3, 1)])
        );
    }
}
