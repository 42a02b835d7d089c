//! Instruction set of the IR.
//!
//! The instruction set is a small register machine over 64-bit signed
//! integers, shaped after what the paper's algorithms need from an
//! Itanium-class compiler IR:
//!
//! * explicit `Load`/`Store` with a base register plus compile-time byte
//!   offset (so *equivalent loads* — same base, different constant offset —
//!   are recognizable, §2.1 of the paper);
//! * a non-faulting, non-blocking [`Op::Prefetch`] (Itanium `lfetch`);
//! * instruction-level predication via [`Instr::pred`] (Itanium `p? op`),
//!   used both for the trip-count-guarded profiling calls of the
//!   *edge-check* method and for conditional WSST prefetches;
//! * profiling pseudo-instructions ([`Op::ProfileEdge`],
//!   [`Op::ProfileStride`], [`Op::TripCountCheck`]) that stand in for the
//!   counter-update and `strideProf` call sequences the paper's
//!   instrumentation inserts (Figs. 11–14). The VM charges them the cycle
//!   cost of the instruction sequences they abbreviate.

use crate::types::{BlockId, EdgeId, FuncId, GlobalId, InstrId, Reg};
use std::fmt;

/// A value operand: either a virtual register or an immediate constant.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Operand {
    /// Read the current value of a register.
    Reg(Reg),
    /// A 64-bit immediate.
    Imm(i64),
}

impl Operand {
    /// Returns the register if this operand reads one.
    pub fn as_reg(self) -> Option<Reg> {
        match self {
            Operand::Reg(r) => Some(r),
            Operand::Imm(_) => None,
        }
    }

    /// Returns the immediate if this operand is a constant.
    pub fn as_imm(self) -> Option<i64> {
        match self {
            Operand::Reg(_) => None,
            Operand::Imm(v) => Some(v),
        }
    }
}

impl From<Reg> for Operand {
    fn from(r: Reg) -> Self {
        Operand::Reg(r)
    }
}

impl From<i64> for Operand {
    fn from(v: i64) -> Self {
        Operand::Imm(v)
    }
}

impl fmt::Display for Operand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Operand::Reg(r) => write!(f, "{r}"),
            Operand::Imm(v) => write!(f, "{v}"),
        }
    }
}

/// Binary arithmetic/logical operators.
///
/// Division and remainder by zero evaluate to 0 rather than trapping; the
/// simulated machine has no exception model and workload generators rely on
/// total semantics.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum BinOp {
    /// Wrapping addition.
    Add,
    /// Wrapping subtraction.
    Sub,
    /// Wrapping multiplication.
    Mul,
    /// Signed division; `x / 0 == 0`.
    Div,
    /// Signed remainder; `x % 0 == 0`.
    Rem,
    /// Bitwise and.
    And,
    /// Bitwise or.
    Or,
    /// Bitwise xor.
    Xor,
    /// Left shift (shift amount masked to 0..64).
    Shl,
    /// Arithmetic right shift (shift amount masked to 0..64).
    Shr,
    /// Logical (unsigned) right shift (shift amount masked to 0..64).
    Lshr,
}

impl BinOp {
    /// Evaluates the operator on two values with total, wrapping semantics.
    #[inline]
    pub fn eval(self, a: i64, b: i64) -> i64 {
        match self {
            BinOp::Add => a.wrapping_add(b),
            BinOp::Sub => a.wrapping_sub(b),
            BinOp::Mul => a.wrapping_mul(b),
            BinOp::Div => {
                if b == 0 {
                    0
                } else {
                    a.wrapping_div(b)
                }
            }
            BinOp::Rem => {
                if b == 0 {
                    0
                } else {
                    a.wrapping_rem(b)
                }
            }
            BinOp::And => a & b,
            BinOp::Or => a | b,
            BinOp::Xor => a ^ b,
            BinOp::Shl => a.wrapping_shl(b as u32 & 63),
            BinOp::Shr => a.wrapping_shr(b as u32 & 63),
            BinOp::Lshr => ((a as u64).wrapping_shr(b as u32 & 63)) as i64,
        }
    }
}

impl fmt::Display for BinOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            BinOp::Add => "add",
            BinOp::Sub => "sub",
            BinOp::Mul => "mul",
            BinOp::Div => "div",
            BinOp::Rem => "rem",
            BinOp::And => "and",
            BinOp::Or => "or",
            BinOp::Xor => "xor",
            BinOp::Shl => "shl",
            BinOp::Shr => "shr",
            BinOp::Lshr => "lshr",
        };
        f.write_str(s)
    }
}

/// Comparison operators; results are 0 or 1 (a predicate value).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum CmpOp {
    /// Equal.
    Eq,
    /// Not equal.
    Ne,
    /// Signed less-than.
    Lt,
    /// Signed less-or-equal.
    Le,
    /// Signed greater-than.
    Gt,
    /// Signed greater-or-equal.
    Ge,
}

impl CmpOp {
    /// Evaluates the comparison, returning 1 for true and 0 for false.
    #[inline]
    pub fn eval(self, a: i64, b: i64) -> i64 {
        let r = match self {
            CmpOp::Eq => a == b,
            CmpOp::Ne => a != b,
            CmpOp::Lt => a < b,
            CmpOp::Le => a <= b,
            CmpOp::Gt => a > b,
            CmpOp::Ge => a >= b,
        };
        r as i64
    }
}

impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CmpOp::Eq => "eq",
            CmpOp::Ne => "ne",
            CmpOp::Lt => "lt",
            CmpOp::Le => "le",
            CmpOp::Gt => "gt",
            CmpOp::Ge => "ge",
        };
        f.write_str(s)
    }
}

/// The operation performed by an [`Instr`].
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum Op {
    /// `dst = value`.
    Const { dst: Reg, value: i64 },
    /// `dst = src`.
    Mov { dst: Reg, src: Operand },
    /// `dst = lhs <op> rhs`.
    Bin {
        dst: Reg,
        op: BinOp,
        lhs: Operand,
        rhs: Operand,
    },
    /// `dst = (lhs <op> rhs) ? 1 : 0`.
    Cmp {
        dst: Reg,
        op: CmpOp,
        lhs: Operand,
        rhs: Operand,
    },
    /// `dst = cond != 0 ? on_true : on_false`.
    Select {
        dst: Reg,
        cond: Operand,
        on_true: Operand,
        on_false: Operand,
    },
    /// `dst = mem[addr + offset]` (8-byte load).
    Load {
        dst: Reg,
        addr: Operand,
        offset: i64,
    },
    /// `mem[addr + offset] = value` (8-byte store).
    Store {
        value: Operand,
        addr: Operand,
        offset: i64,
    },
    /// Non-blocking, non-faulting cache-line prefetch of `addr + offset`
    /// (Itanium `lfetch`). Never traps, even on wild addresses.
    Prefetch { addr: Operand, offset: i64 },
    /// `dst = heap_alloc(size)` — allocation from the simulated heap.
    ///
    /// Workloads use this to mimic each benchmark's allocator; allocation
    /// order is what creates (or destroys) stride patterns in pointer
    /// chasing code (§1 of the paper).
    Alloc { dst: Reg, size: Operand },
    /// Return an allocation to the simulated heap free list.
    Free { addr: Operand },
    /// `dst = address of global`.
    GlobalAddr { dst: Reg, global: GlobalId },
    /// Direct call. Arguments are copied into the callee's first registers.
    Call {
        dst: Option<Reg>,
        callee: FuncId,
        args: Vec<Operand>,
    },
    /// Increment the frequency counter of `edge`.
    ///
    /// Stands for the `r1 = load ctr; r1++; store ctr` sequence of Fig. 14;
    /// the VM charges it the profiling runtime's edge-counter cost.
    ProfileEdge { edge: EdgeId },
    /// Compute the trip-count predicate for a loop (Figs. 11–14):
    /// `dst = (entry_freq >> shift) > prehead_freq`, where `entry_freq` is
    /// the sum of the counters of `outgoing` (the loop entry block's
    /// outgoing edges) and `prehead_freq` the sum of the counters of
    /// `incoming` (the edges entering the loop from outside).
    ///
    /// `shift` is `floor(log2(trip-count threshold))`, avoiding a division
    /// exactly as the paper describes.
    TripCountCheck {
        dst: Reg,
        header: BlockId,
        incoming: Vec<EdgeId>,
        outgoing: Vec<EdgeId>,
        shift: u32,
    },
    /// Invoke the `strideProf` runtime routine (Figs. 6/7/9) on the data
    /// address of the profiled load `site`, recording into profile slot
    /// `slot`. `addr + offset` must recompute the load's address.
    ProfileStride {
        site: InstrId,
        addr: Operand,
        offset: i64,
        slot: u32,
    },
}

impl Op {
    /// Returns the register this operation writes, if any.
    pub fn def(&self) -> Option<Reg> {
        match self {
            Op::Const { dst, .. }
            | Op::Mov { dst, .. }
            | Op::Bin { dst, .. }
            | Op::Cmp { dst, .. }
            | Op::Select { dst, .. }
            | Op::Load { dst, .. }
            | Op::Alloc { dst, .. }
            | Op::GlobalAddr { dst, .. }
            | Op::TripCountCheck { dst, .. } => Some(*dst),
            Op::Call { dst, .. } => *dst,
            Op::Store { .. }
            | Op::Prefetch { .. }
            | Op::Free { .. }
            | Op::ProfileEdge { .. }
            | Op::ProfileStride { .. } => None,
        }
    }

    /// Visits every operand this operation reads.
    pub fn for_each_use(&self, mut f: impl FnMut(Operand)) {
        match self {
            Op::Const { .. }
            | Op::GlobalAddr { .. }
            | Op::ProfileEdge { .. }
            | Op::TripCountCheck { .. } => {}
            Op::Mov { src, .. } => f(*src),
            Op::Bin { lhs, rhs, .. } | Op::Cmp { lhs, rhs, .. } => {
                f(*lhs);
                f(*rhs);
            }
            Op::Select {
                cond,
                on_true,
                on_false,
                ..
            } => {
                f(*cond);
                f(*on_true);
                f(*on_false);
            }
            Op::Load { addr, .. } | Op::Prefetch { addr, .. } => f(*addr),
            Op::Store { value, addr, .. } => {
                f(*value);
                f(*addr);
            }
            Op::Alloc { size, .. } => f(*size),
            Op::Free { addr } => f(*addr),
            Op::Call { args, .. } => {
                for a in args {
                    f(*a);
                }
            }
            Op::ProfileStride { addr, .. } => f(*addr),
        }
    }

    /// True if this is one of the profiling pseudo-instructions inserted by
    /// instrumentation.
    pub fn is_profiling(&self) -> bool {
        matches!(
            self,
            Op::ProfileEdge { .. } | Op::TripCountCheck { .. } | Op::ProfileStride { .. }
        )
    }
}

/// A single (optionally predicated) instruction.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct Instr {
    /// Function-unique, allocation-order id; stable across transformations.
    pub id: InstrId,
    /// Itanium-style qualifying predicate: the instruction executes only if
    /// the register holds a non-zero value. `None` executes unconditionally.
    pub pred: Option<Reg>,
    /// The operation.
    pub op: Op,
}

impl Instr {
    /// Returns the register this instruction writes when it executes.
    pub fn def(&self) -> Option<Reg> {
        self.op.def()
    }
}

/// Block terminator.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum Terminator {
    /// Unconditional jump.
    Br { target: BlockId },
    /// Two-way branch on `cond != 0`. The verifier rejects
    /// `then_ == else_` (use [`Terminator::Br`] instead) so that CFG edges
    /// are uniquely identified by their endpoints.
    CondBr {
        cond: Operand,
        then_: BlockId,
        else_: BlockId,
    },
    /// Return from the function with an optional value.
    Ret { value: Option<Operand> },
}

impl Terminator {
    /// Successor blocks in deterministic order.
    pub fn successors(&self) -> impl Iterator<Item = BlockId> + '_ {
        let pair: [Option<BlockId>; 2] = match self {
            Terminator::Br { target } => [Some(*target), None],
            Terminator::CondBr { then_, else_, .. } => [Some(*then_), Some(*else_)],
            Terminator::Ret { .. } => [None, None],
        };
        pair.into_iter().flatten()
    }

    /// Rewrites successor targets through `f` (used by edge splitting).
    pub fn map_targets(&mut self, mut f: impl FnMut(BlockId) -> BlockId) {
        match self {
            Terminator::Br { target } => *target = f(*target),
            Terminator::CondBr { then_, else_, .. } => {
                *then_ = f(*then_);
                *else_ = f(*else_);
            }
            Terminator::Ret { .. } => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn binop_eval_basics() {
        assert_eq!(BinOp::Add.eval(2, 3), 5);
        assert_eq!(BinOp::Sub.eval(2, 3), -1);
        assert_eq!(BinOp::Mul.eval(4, 5), 20);
        assert_eq!(BinOp::Div.eval(7, 2), 3);
        assert_eq!(BinOp::Rem.eval(7, 2), 1);
        assert_eq!(BinOp::And.eval(0b1100, 0b1010), 0b1000);
        assert_eq!(BinOp::Or.eval(0b1100, 0b1010), 0b1110);
        assert_eq!(BinOp::Xor.eval(0b1100, 0b1010), 0b0110);
        assert_eq!(BinOp::Shl.eval(1, 4), 16);
        assert_eq!(BinOp::Shr.eval(-16, 2), -4);
        assert_eq!(BinOp::Lshr.eval(-1, 60), 15);
    }

    #[test]
    fn binop_division_by_zero_is_total() {
        assert_eq!(BinOp::Div.eval(5, 0), 0);
        assert_eq!(BinOp::Rem.eval(5, 0), 0);
    }

    #[test]
    fn binop_wrapping_does_not_panic() {
        assert_eq!(BinOp::Add.eval(i64::MAX, 1), i64::MIN);
        assert_eq!(BinOp::Mul.eval(i64::MAX, 2), -2);
        assert_eq!(BinOp::Div.eval(i64::MIN, -1), i64::MIN); // wrapping_div
    }

    #[test]
    fn shift_amount_is_masked() {
        assert_eq!(BinOp::Shl.eval(1, 64), 1);
        assert_eq!(BinOp::Shl.eval(1, 65), 2);
    }

    #[test]
    fn cmp_eval() {
        assert_eq!(CmpOp::Eq.eval(3, 3), 1);
        assert_eq!(CmpOp::Ne.eval(3, 3), 0);
        assert_eq!(CmpOp::Lt.eval(-1, 0), 1);
        assert_eq!(CmpOp::Le.eval(0, 0), 1);
        assert_eq!(CmpOp::Gt.eval(1, 0), 1);
        assert_eq!(CmpOp::Ge.eval(-1, 0), 0);
    }

    #[test]
    fn op_def_and_uses() {
        let op = Op::Bin {
            dst: Reg::new(3),
            op: BinOp::Add,
            lhs: Operand::Reg(Reg::new(1)),
            rhs: Operand::Imm(8),
        };
        assert_eq!(op.def(), Some(Reg::new(3)));
        let mut uses = Vec::new();
        op.for_each_use(|o| uses.push(o));
        assert_eq!(uses, vec![Operand::Reg(Reg::new(1)), Operand::Imm(8)]);
    }

    #[test]
    fn store_has_no_def() {
        let op = Op::Store {
            value: Operand::Imm(1),
            addr: Operand::Reg(Reg::new(0)),
            offset: 8,
        };
        assert_eq!(op.def(), None);
    }

    #[test]
    fn profiling_ops_are_marked() {
        assert!(Op::ProfileEdge {
            edge: EdgeId::new(0)
        }
        .is_profiling());
        assert!(!Op::Const {
            dst: Reg::new(0),
            value: 0
        }
        .is_profiling());
    }

    #[test]
    fn terminator_successors() {
        let t = Terminator::CondBr {
            cond: Operand::Imm(1),
            then_: BlockId::new(1),
            else_: BlockId::new(2),
        };
        let succs: Vec<_> = t.successors().collect();
        assert_eq!(succs, vec![BlockId::new(1), BlockId::new(2)]);
        let r = Terminator::Ret { value: None };
        assert_eq!(r.successors().count(), 0);
    }

    #[test]
    fn map_targets_rewrites() {
        let mut t = Terminator::Br {
            target: BlockId::new(1),
        };
        t.map_targets(|_| BlockId::new(9));
        assert_eq!(t.successors().next(), Some(BlockId::new(9)));
    }

    #[test]
    fn operand_conversions() {
        let o: Operand = Reg::new(2).into();
        assert_eq!(o.as_reg(), Some(Reg::new(2)));
        assert_eq!(o.as_imm(), None);
        let o: Operand = 5i64.into();
        assert_eq!(o.as_imm(), Some(5));
    }
}
