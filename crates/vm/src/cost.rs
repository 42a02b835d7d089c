//! Latency-based cycle cost model.
//!
//! The Itanium of the paper is a 6-issue in-order machine; modeling its
//! issue logic is out of scope, so the VM charges each dynamic instruction
//! a base latency and adds memory stalls reported by the
//! [`MemoryTiming`](crate::interp::MemoryTiming) implementation. Speedups
//! and overheads in the paper are *ratios* of execution times, which a
//! latency model reproduces in shape as long as memory stalls dominate —
//! they do: the paper reports ~40% of SPECINT2000 cycles stalled on data
//! cache and DTLB misses on Itanium.

use stride_ir::Op;

/// Base cycle cost of each opcode, before memory stalls.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CostModel {
    /// Simple ALU ops, moves, compares, selects.
    pub alu: u64,
    /// Integer multiply.
    pub mul: u64,
    /// Integer divide/remainder (no hardware divide on Itanium; this
    /// stands for the multi-instruction sequence).
    pub div: u64,
    /// Issue cost of a load (L1-hit latency is part of this; misses add
    /// stalls on top).
    pub load: u64,
    /// Issue cost of a store.
    pub store: u64,
    /// Issue cost of a prefetch (`lfetch` occupies a memory slot but does
    /// not stall).
    pub prefetch: u64,
    /// Allocator call (amortized bump-pointer malloc).
    pub alloc: u64,
    /// Free call.
    pub free: u64,
    /// Call + return linkage overhead, charged at the call site.
    pub call: u64,
    /// Taken or not-taken branch (in-order, well-predicted loops).
    pub branch: u64,
}

impl CostModel {
    /// The default model used by all experiments.
    pub const fn itanium() -> Self {
        CostModel {
            alu: 1,
            mul: 2,
            div: 12,
            load: 2,
            store: 1,
            prefetch: 1,
            alloc: 24,
            free: 10,
            call: 6,
            branch: 1,
        }
    }

    /// Base cost of `op` (memory stalls and profiling-runtime costs are
    /// charged separately by the VM).
    pub fn base_cost(&self, op: &Op) -> u64 {
        match op {
            Op::Const { .. }
            | Op::Mov { .. }
            | Op::Cmp { .. }
            | Op::Select { .. }
            | Op::GlobalAddr { .. } => self.alu,
            Op::Bin { op, .. } => match op {
                stride_ir::BinOp::Mul => self.mul,
                stride_ir::BinOp::Div | stride_ir::BinOp::Rem => self.div,
                _ => self.alu,
            },
            Op::Load { .. } => self.load,
            Op::Store { .. } => self.store,
            Op::Prefetch { .. } => self.prefetch,
            Op::Alloc { .. } => self.alloc,
            Op::Free { .. } => self.free,
            Op::Call { .. } => self.call,
            // Profiling pseudo-instructions: their cost comes from the
            // profiling runtime (it knows which path was taken), so the
            // base cost here is zero.
            Op::ProfileEdge { .. } | Op::TripCountCheck { .. } | Op::ProfileStride { .. } => 0,
        }
    }
}

impl Default for CostModel {
    fn default() -> Self {
        Self::itanium()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stride_ir::{BinOp, Operand, Reg};

    #[test]
    fn default_is_itanium() {
        assert_eq!(CostModel::default(), CostModel::itanium());
    }

    #[test]
    fn bin_costs_depend_on_operator() {
        let m = CostModel::itanium();
        let mk = |op| Op::Bin {
            dst: Reg::new(0),
            op,
            lhs: Operand::Imm(1),
            rhs: Operand::Imm(2),
        };
        assert_eq!(m.base_cost(&mk(BinOp::Add)), m.alu);
        assert_eq!(m.base_cost(&mk(BinOp::Mul)), m.mul);
        assert_eq!(m.base_cost(&mk(BinOp::Div)), m.div);
        assert_eq!(m.base_cost(&mk(BinOp::Rem)), m.div);
    }

    #[test]
    fn profiling_ops_have_zero_base_cost() {
        let m = CostModel::itanium();
        assert_eq!(
            m.base_cost(&Op::ProfileEdge {
                edge: stride_ir::EdgeId::new(0)
            }),
            0
        );
    }

    #[test]
    fn loads_cost_more_than_alu() {
        let m = CostModel::itanium();
        assert!(m.load > 0 && m.load >= m.alu);
        assert!(m.prefetch <= m.load);
    }
}
