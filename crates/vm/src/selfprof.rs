//! Self-applied profiling of the interpreter's own dispatch loop
//! (compiled only with the `vm-selfprof` feature).
//!
//! The paper profiles *guest* programs to find regular stride patterns;
//! this module turns the same idea on the interpreter itself: count which
//! opcodes the dispatch loop executes, which opcode *digrams* (pairs of
//! consecutive dynamic opcodes) dominate, and how much dispatch work the
//! probes themselves add. The resulting report drives the three
//! optimizations of the self-applied-PGO loop: match-arm ordering,
//! superinstruction fusion (formed when the VM lowers a module, see
//! `crate::lower`), and the last-line load fast path.
//!
//! Every probe is behind `#[cfg(feature = "vm-selfprof")]` in the
//! interpreter, so the default build carries zero overhead — not a branch.
//! (Each lowered instruction records its [`OpKind`] in a byte its padding
//! already had.)

use std::fmt::Write as _;
use stride_ir::{Op, Terminator};

/// Dynamic opcode classes of the dispatch loop (instructions and
/// terminators).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum OpKind {
    /// `Op::Const`
    Const,
    /// `Op::Mov`
    Mov,
    /// `Op::Bin`
    Bin,
    /// `Op::Cmp`
    Cmp,
    /// `Op::Select`
    Select,
    /// `Op::Load`
    Load,
    /// `Op::Store`
    Store,
    /// `Op::Prefetch`
    Prefetch,
    /// `Op::Alloc`
    Alloc,
    /// `Op::Free`
    Free,
    /// `Op::GlobalAddr`
    GlobalAddr,
    /// `Op::Call`
    Call,
    /// `Op::ProfileEdge`
    ProfileEdge,
    /// `Op::TripCountCheck`
    TripCountCheck,
    /// `Op::ProfileStride`
    ProfileStride,
    /// Superinstruction: `Bin` + `Load`
    FusedBinLoad,
    /// Superinstruction: `Bin` + `Bin`
    FusedBinBin,
    /// `Terminator::Br`
    Br,
    /// `Terminator::CondBr`
    CondBr,
    /// `Terminator::Ret`
    Ret,
    /// Superinstruction: `Cmp` + `CondBr`
    FusedCmpBr,
}

/// Number of [`OpKind`] variants.
pub const NUM_KINDS: usize = 21;

impl OpKind {
    /// All kinds, in discriminant order.
    pub const ALL: [OpKind; NUM_KINDS] = [
        OpKind::Const,
        OpKind::Mov,
        OpKind::Bin,
        OpKind::Cmp,
        OpKind::Select,
        OpKind::Load,
        OpKind::Store,
        OpKind::Prefetch,
        OpKind::Alloc,
        OpKind::Free,
        OpKind::GlobalAddr,
        OpKind::Call,
        OpKind::ProfileEdge,
        OpKind::TripCountCheck,
        OpKind::ProfileStride,
        OpKind::FusedBinLoad,
        OpKind::FusedBinBin,
        OpKind::Br,
        OpKind::CondBr,
        OpKind::Ret,
        OpKind::FusedCmpBr,
    ];

    /// Kind of an instruction opcode.
    pub fn of_op(op: &Op) -> OpKind {
        match op {
            Op::Const { .. } => OpKind::Const,
            Op::Mov { .. } => OpKind::Mov,
            Op::Bin { .. } => OpKind::Bin,
            Op::Cmp { .. } => OpKind::Cmp,
            Op::Select { .. } => OpKind::Select,
            Op::Load { .. } => OpKind::Load,
            Op::Store { .. } => OpKind::Store,
            Op::Prefetch { .. } => OpKind::Prefetch,
            Op::Alloc { .. } => OpKind::Alloc,
            Op::Free { .. } => OpKind::Free,
            Op::GlobalAddr { .. } => OpKind::GlobalAddr,
            Op::Call { .. } => OpKind::Call,
            Op::ProfileEdge { .. } => OpKind::ProfileEdge,
            Op::TripCountCheck { .. } => OpKind::TripCountCheck,
            Op::ProfileStride { .. } => OpKind::ProfileStride,
        }
    }

    /// Kind of a terminator.
    pub fn of_term(term: &Terminator) -> OpKind {
        match term {
            Terminator::Br { .. } => OpKind::Br,
            Terminator::CondBr { .. } => OpKind::CondBr,
            Terminator::Ret { .. } => OpKind::Ret,
        }
    }
}

/// Opcode and digram frequency profile of the interpreter's dispatch.
#[derive(Clone, Debug)]
pub struct SelfProfile {
    counts: [u64; NUM_KINDS],
    /// `pairs[a][b]` = dynamic occurrences of kind `b` dispatched
    /// immediately after kind `a` (boxed: the matrix is ~3.5 KB).
    pairs: Box<[[u64; NUM_KINDS]; NUM_KINDS]>,
    events: u64,
}

impl SelfProfile {
    /// Empty profile.
    pub fn new() -> Self {
        SelfProfile {
            counts: [0; NUM_KINDS],
            pairs: Box::new([[0; NUM_KINDS]; NUM_KINDS]),
            events: 0,
        }
    }

    /// Records one dispatched opcode, with the previously dispatched one
    /// for digram accounting.
    #[inline]
    pub fn record(&mut self, prev: Option<OpKind>, kind: OpKind) {
        self.counts[kind as usize] += 1;
        if let Some(p) = prev {
            self.pairs[p as usize][kind as usize] += 1;
        }
        self.events += 1;
    }

    /// Total recorded dispatch events. Each event costs one deterministic
    /// probe, so this is also the self-profiling overhead in probe counts.
    pub fn events(&self) -> u64 {
        self.events
    }

    /// Dynamic count of one kind.
    pub fn count(&self, kind: OpKind) -> u64 {
        self.counts[kind as usize]
    }

    /// Folds another profile into this one (for aggregating workloads).
    pub fn merge(&mut self, other: &SelfProfile) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        for (ra, rb) in self.pairs.iter_mut().zip(other.pairs.iter()) {
            for (a, b) in ra.iter_mut().zip(rb) {
                *a += b;
            }
        }
        self.events += other.events;
    }

    /// Opcodes ranked by dynamic frequency, descending; zero-count kinds
    /// omitted.
    pub fn top_opcodes(&self) -> Vec<(OpKind, u64)> {
        let mut v: Vec<(OpKind, u64)> = OpKind::ALL
            .iter()
            .map(|&k| (k, self.counts[k as usize]))
            .filter(|&(_, c)| c > 0)
            .collect();
        v.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| (a.0 as u8).cmp(&(b.0 as u8))));
        v
    }

    /// Opcode digrams ranked by dynamic frequency, descending; zero-count
    /// pairs omitted.
    pub fn top_pairs(&self) -> Vec<(OpKind, OpKind, u64)> {
        let mut v = Vec::new();
        for &a in &OpKind::ALL {
            for &b in &OpKind::ALL {
                let c = self.pairs[a as usize][b as usize];
                if c > 0 {
                    v.push((a, b, c));
                }
            }
        }
        v.sort_by(|x, y| {
            y.2.cmp(&x.2)
                .then_with(|| (x.0 as u8, x.1 as u8).cmp(&(y.0 as u8, y.1 as u8)))
        });
        v
    }

    /// Human-readable ranking of the top `n` opcodes and digrams.
    pub fn report(&self, n: usize) -> String {
        let mut s = String::new();
        let total = self.events.max(1);
        let _ = writeln!(s, "dispatch events: {}", self.events);
        let _ = writeln!(s, "top opcodes:");
        for (k, c) in self.top_opcodes().into_iter().take(n) {
            let _ = writeln!(
                s,
                "  {:<16} {:>12}  {:5.1}%",
                format!("{k:?}"),
                c,
                100.0 * c as f64 / total as f64
            );
        }
        let _ = writeln!(s, "top pairs:");
        for (a, b, c) in self.top_pairs().into_iter().take(n) {
            let _ = writeln!(
                s,
                "  {:<16} -> {:<16} {:>12}  {:5.1}%",
                format!("{a:?}"),
                format!("{b:?}"),
                c,
                100.0 * c as f64 / total as f64
            );
        }
        s
    }
}

impl Default for SelfProfile {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_counts_and_pairs() {
        let mut p = SelfProfile::new();
        p.record(None, OpKind::Bin);
        p.record(Some(OpKind::Bin), OpKind::Load);
        p.record(Some(OpKind::Load), OpKind::Bin);
        p.record(Some(OpKind::Bin), OpKind::Load);
        assert_eq!(p.events(), 4);
        assert_eq!(p.count(OpKind::Bin), 2);
        assert_eq!(p.count(OpKind::Load), 2);
        let pairs = p.top_pairs();
        assert_eq!(pairs[0], (OpKind::Bin, OpKind::Load, 2));
    }

    #[test]
    fn merge_accumulates() {
        let mut a = SelfProfile::new();
        a.record(None, OpKind::Cmp);
        let mut b = SelfProfile::new();
        b.record(None, OpKind::Cmp);
        b.record(Some(OpKind::Cmp), OpKind::CondBr);
        a.merge(&b);
        assert_eq!(a.events(), 3);
        assert_eq!(a.count(OpKind::Cmp), 2);
        assert_eq!(a.top_pairs()[0], (OpKind::Cmp, OpKind::CondBr, 1));
    }

    #[test]
    fn report_lists_ranked_entries() {
        let mut p = SelfProfile::new();
        for _ in 0..10 {
            p.record(Some(OpKind::Bin), OpKind::Load);
        }
        p.record(Some(OpKind::Cmp), OpKind::CondBr);
        let r = p.report(5);
        assert!(r.contains("Load"));
        assert!(r.contains("Bin"));
        let load_pos = r.find("Load").unwrap();
        let cmp_pos = r.find("Cmp").unwrap();
        assert!(load_pos < cmp_pos, "hotter opcode ranks first");
    }

    #[test]
    fn kind_mapping_is_total() {
        // Every Op and Terminator maps; spot-check a few plus ALL's size.
        assert_eq!(OpKind::ALL.len(), NUM_KINDS);
        assert_eq!(
            OpKind::of_term(&Terminator::Ret { value: None }),
            OpKind::Ret
        );
    }
}
