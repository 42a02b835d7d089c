//! The VM's execution form: a [`Module`] lowered once into one flat array
//! of pre-decoded instructions.
//!
//! The interpreter never walks the IR itself. Lowering does, once per
//! [`Vm`](crate::Vm), and resolves everything that does not depend on the
//! run:
//!
//! * every block is laid out in block order, its terminator last, and
//!   every branch target and function entry is the array index of its
//!   block's first instruction;
//! * `Bin` operands are specialized by kind (register/register,
//!   register/immediate, immediate/register), and `GlobalAddr` folds
//!   into a `Const`;
//! * every other operand is a register index: an immediate reads the
//!   frame's zero register (the slot past the IR's registers, which no
//!   instruction writes) plus the immediate, so an immediate address
//!   folds into the access's offset;
//! * each instruction carries its base cost ([`CostModel::base_cost`],
//!   the sum of both halves for a superinstruction), its qualifying
//!   predicate, and, for a load, its slot in one flat per-module array of
//!   load-site counters.
//!
//! With fusion on, three dynamic digrams of the dispatch profile become
//! superinstructions, which exist only in this form: a `Bin` whose
//! destination is the very next `Load`'s address ([`Op::Bin`] +
//! [`Op::Load`]), two adjacent `Bin`s, and a block-final `Cmp` feeding the
//! block's `CondBr`. Only unpredicated pairs fuse (a predicate squashes
//! each half on its own), and a `Bin` pair yields to a following
//! `Bin`+`Load` (`mul; add; load` fuses as `mul` + `add;load`). A
//! superinstruction writes both destinations and counts, fuels and
//! attributes its halves exactly as sequential execution does, so fusion
//! changes dispatch work only, never an output.
//!
//! Malformed modules keep the IR interpreter's failure mode: a register,
//! block or load-site index out of range lowers to an index that panics
//! when the instruction executes, not when it is lowered.

use crate::cost::CostModel;
use crate::selfprof::OpKind;
use stride_ir::{BinOp, CmpOp, EdgeId, Function, Instr, InstrId, Module, Op, Operand, Terminator};

/// [`Inst::pred`] of an unpredicated instruction.
pub(crate) const NO_PRED: u32 = u32::MAX;
/// What an out-of-range IR register lowers to: indexing a register file
/// with it panics.
const BAD_REG: u32 = u32::MAX - 1;
/// [`LOp::Call::dst`] of a call whose result is discarded.
pub(crate) const NO_DST: u32 = u32::MAX;

/// A general operand: `regs[reg] + imm`. A register operand has `imm`
/// 0; an immediate reads the zero register.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Src {
    pub(crate) reg: u32,
    pub(crate) imm: i64,
}

impl Src {
    #[inline(always)]
    pub(crate) fn get(self, regs: &[i64]) -> i64 {
        regs[self.reg as usize].wrapping_add(self.imm)
    }
}

/// One half of a fused `Bin` pair: `dst = regs[a] <op> (regs[b] + k)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Half {
    pub(crate) k: i64,
    pub(crate) dst: u32,
    pub(crate) a: u32,
    pub(crate) b: u32,
    pub(crate) op: BinOp,
}

impl Half {
    #[inline(always)]
    pub(crate) fn exec(self, regs: &mut [i64]) -> i64 {
        let v = self.op.eval(
            regs[self.a as usize],
            regs[self.b as usize].wrapping_add(self.k),
        );
        regs[self.dst as usize] = v;
        v
    }
}

/// A lowered operation. Register fields are frame register indices;
/// branch targets are indices into [`Program::code`]. An explicit tag
/// byte keeps dispatch a plain table jump.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub(crate) enum LOp {
    Const {
        dst: u32,
        value: i64,
    },
    Mov {
        dst: u32,
        src: Src,
    },
    BinRR {
        op: BinOp,
        dst: u32,
        a: u32,
        b: u32,
    },
    BinRI {
        op: BinOp,
        dst: u32,
        a: u32,
        b: i64,
    },
    BinIR {
        op: BinOp,
        dst: u32,
        a: i64,
        b: Src,
    },
    Cmp {
        op: CmpOp,
        dst: u32,
        a: Src,
        b: Src,
    },
    Select {
        dst: u32,
        cond: Src,
        on_true: Src,
        on_false: Src,
    },
    /// `dst = mem[addr]`, counted at load-site slot `site`.
    Load {
        dst: u32,
        addr: Src,
        site: u32,
    },
    Store {
        value: Src,
        addr: Src,
    },
    Prefetch {
        addr: Src,
    },
    Alloc {
        dst: u32,
        size: Src,
    },
    Free {
        addr: Src,
    },
    /// Arguments are `args[at..at + n]`.
    Call {
        dst: u32,
        callee: u32,
        at: u32,
        n: u32,
    },
    ProfileEdge {
        func: u32,
        edge: EdgeId,
    },
    /// Incoming edges are `edges[at..at + n_in]`, outgoing the `n_out`
    /// after them.
    TripCountCheck {
        func: u32,
        dst: u32,
        at: u32,
        n_in: u32,
        n_out: u32,
        shift: u32,
    },
    ProfileStride {
        func: u32,
        site: InstrId,
        slot: u32,
        addr: Src,
    },
    /// Superinstruction: `bin`, then `load_dst = mem[bin.dst + offset]`.
    BinLoad {
        bin: Half,
        load_dst: u32,
        offset: i64,
        site: u32,
    },
    /// Superinstruction: two adjacent `Bin`s.
    BinBin {
        a: Half,
        b: Half,
    },
    /// Superinstruction: a block-final `Cmp` and the `CondBr` on it.
    CmpBr {
        op: CmpOp,
        dst: u32,
        a: u32,
        b: u32,
        k: i64,
        then_: u32,
        else_: u32,
    },
    Br {
        target: u32,
    },
    CondBr {
        cond: u32,
        then_: u32,
        else_: u32,
    },
    Ret {
        value: Option<Src>,
    },
}

/// A lowered instruction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Inst {
    pub(crate) op: LOp,
    /// Cycles charged when it executes (a squashed instruction costs 1).
    pub(crate) cost: u64,
    /// Qualifying predicate register, or [`NO_PRED`].
    pub(crate) pred: u32,
    /// Dispatch-profile class of the IR instruction (or pair) it stands
    /// for, recorded by `vm-selfprof` builds.
    pub(crate) kind: OpKind,
}

/// Where a lowered function starts and what its frame holds.
#[derive(Debug)]
pub(crate) struct Func {
    /// Index in [`Program::code`] of the entry block's first instruction.
    pub(crate) entry: u32,
    pub(crate) num_params: u32,
    /// Register file size, including the zero register.
    pub(crate) frame_regs: u32,
    /// Its `next_instr`: its row of
    /// [`RunResult::load_site_counts`](crate::RunResult::load_site_counts).
    /// The rows lie back to back in one counter array.
    pub(crate) sites: u32,
}

/// A lowered module: every function's code in one array, so calls and
/// returns only move the program counter.
#[derive(Debug)]
pub(crate) struct Program {
    pub(crate) code: Vec<Inst>,
    pub(crate) funcs: Vec<Func>,
    /// Arguments of `Call`.
    pub(crate) args: Vec<Src>,
    /// Edge lists of `TripCountCheck`.
    pub(crate) edges: Vec<EdgeId>,
}

impl Program {
    /// Lowers every function of `module`. `global_bases` are the laid-out
    /// global addresses; `fuse` forms superinstructions. Kept out of line
    /// so the dispatch loop that calls it keeps its registers.
    #[inline(never)]
    pub(crate) fn lower(
        module: &Module,
        cost: &CostModel,
        global_bases: &[u64],
        fuse: bool,
    ) -> Program {
        let mut out = Program {
            code: Vec::new(),
            funcs: Vec::with_capacity(module.functions.len()),
            args: Vec::new(),
            edges: Vec::new(),
        };
        let mut site_base = 0u32;
        for (i, f) in module.functions.iter().enumerate() {
            let entry = Lowerer {
                f,
                func: i as u32,
                cost,
                global_bases,
                fuse,
                site_base,
                out: &mut out,
            }
            .lower();
            out.funcs.push(Func {
                entry,
                num_params: f.num_params,
                frame_regs: f.num_regs.saturating_add(1),
                sites: f.next_instr,
            });
            site_base = site_base.saturating_add(f.next_instr);
        }
        out
    }
}

struct Lowerer<'a> {
    f: &'a Function,
    /// Index of `f` in its module.
    func: u32,
    cost: &'a CostModel,
    global_bases: &'a [u64],
    fuse: bool,
    site_base: u32,
    out: &'a mut Program,
}

impl Lowerer<'_> {
    /// Appends the function's code and returns its entry index.
    fn lower(mut self) -> u32 {
        let first = self.out.code.len();
        let mut starts = Vec::with_capacity(self.f.blocks.len());
        for block in &self.f.blocks {
            starts.push(self.out.code.len() as u32);
            // A block-final compare that the branch reads fuses with it.
            let (body, cmp_br) = match block.instrs.split_last() {
                Some((last, body)) if self.fuse => match self.cmp_br(last, &block.term) {
                    Some(op) => (body, Some((last, op))),
                    None => (&block.instrs[..], None),
                },
                _ => (&block.instrs[..], None),
            };
            let mut i = 0;
            while let Some(x) = body.get(i) {
                let fused = match body.get(i + 1) {
                    Some(y) if self.fuse => self.pair(x, y, body.get(i + 2)),
                    _ => None,
                };
                match fused {
                    Some((op, kind)) => {
                        let cost =
                            self.cost.base_cost(&x.op) + self.cost.base_cost(&body[i + 1].op);
                        self.push(op, cost, None, kind);
                        i += 2;
                    }
                    None => {
                        self.instr(x);
                        i += 1;
                    }
                }
            }
            match cmp_br {
                Some((cmp, op)) => {
                    let cost = self.cost.base_cost(&cmp.op) + self.cost.branch;
                    self.push(op, cost, None, OpKind::FusedCmpBr);
                }
                None => self.term(&block.term),
            }
        }
        // Resolve block ids to code indices.
        let pc = |b: u32| starts.get(b as usize).copied().unwrap_or(u32::MAX);
        for inst in &mut self.out.code[first..] {
            match &mut inst.op {
                LOp::Br { target } => *target = pc(*target),
                LOp::CondBr { then_, else_, .. } | LOp::CmpBr { then_, else_, .. } => {
                    *then_ = pc(*then_);
                    *else_ = pc(*else_);
                }
                _ => {}
            }
        }
        pc(self.f.entry.0)
    }

    fn reg(&self, r: stride_ir::Reg) -> u32 {
        if r.0 < self.f.num_regs {
            r.0
        } else {
            BAD_REG
        }
    }

    fn src(&self, o: Operand) -> Src {
        match o {
            Operand::Reg(r) => Src {
                reg: self.reg(r),
                imm: 0,
            },
            // The zero register.
            Operand::Imm(v) => Src {
                reg: self.f.num_regs,
                imm: v,
            },
        }
    }

    /// The address `o + offset`.
    fn addr(&self, o: Operand, offset: i64) -> Src {
        let s = self.src(o);
        Src {
            imm: s.imm.wrapping_add(offset),
            ..s
        }
    }

    fn site(&self, id: InstrId) -> u32 {
        if id.0 < self.f.next_instr {
            self.site_base + id.0
        } else {
            u32::MAX
        }
    }

    /// An unpredicated `Bin` with a register left operand as a fusion
    /// half, with its IR destination.
    fn half(&self, i: &Instr) -> Option<(stride_ir::Reg, Half)> {
        let (
            None,
            &Op::Bin {
                dst,
                op,
                lhs: Operand::Reg(a),
                rhs,
            },
        ) = (i.pred, &i.op)
        else {
            return None;
        };
        let b = self.src(rhs);
        let half = Half {
            k: b.imm,
            dst: self.reg(dst),
            a: self.reg(a),
            b: b.reg,
            op,
        };
        Some((dst, half))
    }

    /// The superinstruction that `x` and `y` (followed by `z`) form, if any.
    fn pair(&self, x: &Instr, y: &Instr, z: Option<&Instr>) -> Option<(LOp, OpKind)> {
        let loads = |i: &Instr, r| matches!(i.op, Op::Load { addr, .. } if i.pred.is_none() && addr == Operand::Reg(r));
        let (x_dst, a) = self.half(x)?;
        if let (true, Op::Load { dst, offset, .. }) = (loads(y, x_dst), &y.op) {
            let op = LOp::BinLoad {
                bin: a,
                load_dst: self.reg(*dst),
                offset: *offset,
                site: self.site(y.id),
            };
            return Some((op, OpKind::FusedBinLoad));
        }
        let (y_dst, b) = self.half(y)?;
        // A following load of `y`'s result takes `y` instead.
        if z.is_some_and(|z| loads(z, y_dst)) {
            return None;
        }
        Some((LOp::BinBin { a, b }, OpKind::FusedBinBin))
    }

    /// The compare-branch that a block-final `last` and `term` form, if any.
    fn cmp_br(&self, last: &Instr, term: &Terminator) -> Option<LOp> {
        let (
            None,
            Op::Cmp {
                dst,
                op,
                lhs: Operand::Reg(a),
                rhs,
            },
            Terminator::CondBr {
                cond: Operand::Reg(c),
                then_,
                else_,
            },
        ) = (last.pred, &last.op, term)
        else {
            return None;
        };
        let b = self.src(*rhs);
        (dst == c).then(|| LOp::CmpBr {
            op: *op,
            dst: self.reg(*dst),
            a: self.reg(*a),
            b: b.reg,
            k: b.imm,
            then_: then_.0,
            else_: else_.0,
        })
    }

    fn push(&mut self, op: LOp, cost: u64, pred: Option<stride_ir::Reg>, kind: OpKind) {
        self.out.code.push(Inst {
            op,
            cost,
            pred: pred.map_or(NO_PRED, |p| self.reg(p)),
            kind,
        });
    }

    fn instr(&mut self, instr: &Instr) {
        let op = match &instr.op {
            Op::Const { dst, value } => LOp::Const {
                dst: self.reg(*dst),
                value: *value,
            },
            Op::Mov { dst, src } => LOp::Mov {
                dst: self.reg(*dst),
                src: self.src(*src),
            },
            Op::GlobalAddr { dst, global } => match self.global_bases.get(global.index()) {
                Some(&base) => LOp::Const {
                    dst: self.reg(*dst),
                    value: base as i64,
                },
                // An unknown global keeps its execution-time panic.
                None => LOp::Mov {
                    dst: self.reg(*dst),
                    src: Src {
                        reg: BAD_REG,
                        imm: 0,
                    },
                },
            },
            Op::Bin { dst, op, lhs, rhs } => {
                let (dst, op) = (self.reg(*dst), *op);
                match (*lhs, *rhs) {
                    (Operand::Reg(a), Operand::Reg(b)) => LOp::BinRR {
                        op,
                        dst,
                        a: self.reg(a),
                        b: self.reg(b),
                    },
                    (Operand::Reg(a), Operand::Imm(b)) => LOp::BinRI {
                        op,
                        dst,
                        a: self.reg(a),
                        b,
                    },
                    (Operand::Imm(a), b) => LOp::BinIR {
                        op,
                        dst,
                        a,
                        b: self.src(b),
                    },
                }
            }
            Op::Cmp { dst, op, lhs, rhs } => LOp::Cmp {
                op: *op,
                dst: self.reg(*dst),
                a: self.src(*lhs),
                b: self.src(*rhs),
            },
            Op::Select {
                dst,
                cond,
                on_true,
                on_false,
            } => LOp::Select {
                dst: self.reg(*dst),
                cond: self.src(*cond),
                on_true: self.src(*on_true),
                on_false: self.src(*on_false),
            },
            Op::Load { dst, addr, offset } => LOp::Load {
                dst: self.reg(*dst),
                addr: self.addr(*addr, *offset),
                site: self.site(instr.id),
            },
            Op::Store {
                value,
                addr,
                offset,
            } => LOp::Store {
                value: self.src(*value),
                addr: self.addr(*addr, *offset),
            },
            Op::Prefetch { addr, offset } => LOp::Prefetch {
                addr: self.addr(*addr, *offset),
            },
            Op::Alloc { dst, size } => LOp::Alloc {
                dst: self.reg(*dst),
                size: self.src(*size),
            },
            Op::Free { addr } => LOp::Free {
                addr: self.src(*addr),
            },
            Op::Call { dst, callee, args } => {
                let at = self.out.args.len() as u32;
                for a in args {
                    let s = self.src(*a);
                    self.out.args.push(s);
                }
                LOp::Call {
                    dst: dst.map_or(NO_DST, |d| self.reg(d)),
                    callee: callee.0,
                    at,
                    n: args.len() as u32,
                }
            }
            Op::ProfileEdge { edge } => LOp::ProfileEdge {
                func: self.func,
                edge: *edge,
            },
            Op::TripCountCheck {
                dst,
                incoming,
                outgoing,
                shift,
                ..
            } => {
                let at = self.out.edges.len() as u32;
                self.out.edges.extend(incoming.iter().chain(outgoing));
                LOp::TripCountCheck {
                    func: self.func,
                    dst: self.reg(*dst),
                    at,
                    n_in: incoming.len() as u32,
                    n_out: outgoing.len() as u32,
                    shift: *shift,
                }
            }
            Op::ProfileStride {
                site,
                addr,
                offset,
                slot,
            } => LOp::ProfileStride {
                func: self.func,
                site: *site,
                slot: *slot,
                addr: self.addr(*addr, *offset),
            },
        };
        let cost = self.cost.base_cost(&instr.op);
        self.push(op, cost, instr.pred, OpKind::of_op(&instr.op));
    }

    fn term(&mut self, term: &Terminator) {
        let op = match term {
            Terminator::Br { target } => LOp::Br { target: target.0 },
            Terminator::CondBr { cond, then_, else_ } => match *cond {
                Operand::Reg(c) => LOp::CondBr {
                    cond: self.reg(c),
                    then_: then_.0,
                    else_: else_.0,
                },
                Operand::Imm(c) => LOp::Br {
                    target: if c != 0 { then_.0 } else { else_.0 },
                },
            },
            Terminator::Ret { value } => LOp::Ret {
                value: value.map(|v| self.src(v)),
            },
        };
        self.push(op, self.cost.branch, None, OpKind::of_term(term));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interp::{FlatTiming, NullRuntime, Vm, VmConfig};
    use crate::memory::layout_globals;
    use stride_ir::{BinOp, ModuleBuilder, Reg};
    use stride_workloads::{all_workloads, Scale};

    fn lower(m: &Module, fuse: bool) -> Program {
        let sizes: Vec<u64> = m.globals.iter().map(|g| g.size).collect();
        Program::lower(m, &CostModel::itanium(), &layout_globals(&sizes), fuse)
    }

    fn count(p: &Program, pick: impl Fn(&LOp) -> bool) -> usize {
        p.code.iter().filter(|i| pick(&i.op)).count()
    }

    fn ends_block(op: &LOp) -> bool {
        matches!(
            op,
            LOp::Br { .. } | LOp::CondBr { .. } | LOp::CmpBr { .. } | LOp::Ret { .. }
        )
    }

    /// Lowered code of function `f`, split into its blocks.
    fn blocks(p: &Program, f: usize) -> Vec<&[Inst]> {
        let end = p
            .funcs
            .get(f + 1)
            .map_or(p.code.len(), |g| g.entry as usize);
        let mut code = &p.code[p.funcs[f].entry as usize..end];
        let mut out = Vec::new();
        while let Some(n) = code.iter().position(|i| ends_block(&i.op)) {
            out.push(&code[..=n]);
            code = &code[n + 1..];
        }
        assert!(code.is_empty(), "code after the last terminator");
        out
    }

    /// Every IR instruction of every workload costs exactly
    /// `CostModel::base_cost` (a terminator, `branch`), and a
    /// superinstruction costs the sum of the halves it stands for.
    #[test]
    fn every_op_of_every_workload_is_charged_its_base_cost() {
        let cost = CostModel::itanium();
        for w in all_workloads(Scale::Test) {
            for fuse in [false, true] {
                let p = lower(&w.module, fuse);
                for (fi, f) in w.module.functions.iter().enumerate() {
                    let lowered = blocks(&p, fi);
                    assert_eq!(lowered.len(), f.blocks.len(), "{} f{fi}", w.name);
                    for (block, insts) in f.blocks.iter().zip(lowered) {
                        let mut ir = block.instrs.iter().map(|i| (cost.base_cost(&i.op), i.pred));
                        for inst in insts {
                            let (halves, pred) = match inst.op {
                                LOp::BinLoad { .. } | LOp::BinBin { .. } => {
                                    let (a, _) = ir.next().expect("first half");
                                    let (b, _) = ir.next().expect("second half");
                                    (a + b, None)
                                }
                                LOp::CmpBr { .. } => {
                                    let (cmp, _) = ir.next().expect("compare");
                                    (cmp + cost.branch, None)
                                }
                                op if ends_block(&op) => (cost.branch, None),
                                _ => ir.next().expect("one IR instruction"),
                            };
                            assert_eq!(inst.cost, halves, "{} {:?}", w.name, inst.op);
                            assert_eq!(inst.pred == NO_PRED, pred.is_none());
                        }
                        assert!(ir.next().is_none(), "{}: IR left unlowered", w.name);
                    }
                }
            }
        }
    }

    #[test]
    fn branch_targets_resolve_to_block_starts() {
        for w in all_workloads(Scale::Test) {
            for fuse in [false, true] {
                let p = lower(&w.module, fuse);
                let mut base = 0;
                for (fi, f) in w.module.functions.iter().enumerate() {
                    let lowered = blocks(&p, fi);
                    let starts: Vec<u32> = lowered
                        .iter()
                        .scan(base, |at, b| {
                            let start = *at;
                            *at += b.len() as u32;
                            Some(start)
                        })
                        .collect();
                    assert_eq!(p.funcs[fi].entry, starts[f.entry.index()]);
                    for (block, insts) in f.blocks.iter().zip(&lowered) {
                        let term = insts.last().expect("a terminator");
                        let targets: Vec<u32> = match term.op {
                            LOp::Br { target } => vec![target],
                            LOp::CondBr { then_, else_, .. } | LOp::CmpBr { then_, else_, .. } => {
                                vec![then_, else_]
                            }
                            _ => vec![],
                        };
                        let want: Vec<u32> =
                            block.term.successors().map(|b| starts[b.index()]).collect();
                        assert_eq!(targets, want, "{} {}", w.name, block.id);
                    }
                    base += lowered.iter().map(|b| b.len() as u32).sum::<u32>();
                }
            }
        }
    }

    #[test]
    fn predicated_off_instructions_still_cost_one_cycle() {
        let mut mb = ModuleBuilder::new();
        let f = mb.declare_function("main", 1);
        let mut fb = mb.function(f);
        let p = fb.param(0);
        let x = fb.new_reg();
        // mul (2 cycles), alloc (24) and a stride probe (0 base cost).
        fb.emit_pred(
            p,
            Op::Bin {
                dst: x,
                op: BinOp::Mul,
                lhs: Operand::Reg(p),
                rhs: Operand::Imm(3),
            },
        );
        fb.emit_pred(
            p,
            Op::Alloc {
                dst: x,
                size: Operand::Imm(8),
            },
        );
        fb.emit_pred(
            p,
            Op::ProfileStride {
                site: InstrId::new(0),
                addr: Operand::Reg(x),
                offset: 0,
                slot: 0,
            },
        );
        fb.ret(None);
        mb.set_entry(f);
        let m = mb.finish();
        let run = |pred: i64| {
            Vm::new(&m, VmConfig::default())
                .run(&[pred], &mut FlatTiming, &mut NullRuntime)
                .expect("run")
        };
        let cost = CostModel::itanium();
        assert_eq!(run(0).cycles, 3 + cost.branch, "squashed: 1 cycle each");
        assert_eq!(run(1).cycles, cost.mul + cost.alloc + cost.branch);
        assert_eq!(run(0).instructions, run(1).instructions);
    }

    /// `base + offset` loads in a counted loop: the canonical fusible shape.
    fn strided_module() -> Module {
        let mut mb = ModuleBuilder::new();
        let g = mb.add_global("arr", 1 << 12);
        let f = mb.declare_function("main", 1);
        let mut fb = mb.function(f);
        let base = fb.global_addr(g);
        let sum = fb.mov(0i64);
        fb.counted_loop(fb.param(0), |fb, i| {
            let off = fb.mul(i, 8i64);
            let a = fb.add(base, off);
            let (v, _) = fb.load(a, 0);
            fb.bin_to(sum, BinOp::Add, sum, v);
        });
        fb.ret(Some(Operand::Reg(sum)));
        mb.set_entry(f);
        mb.finish()
    }

    fn single(build: impl FnOnce(&mut stride_ir::FunctionBuilder<'_>)) -> Module {
        let mut mb = ModuleBuilder::new();
        let f = mb.declare_function("main", 2);
        let mut fb = mb.function(f);
        build(&mut fb);
        mb.set_entry(f);
        mb.finish()
    }

    /// Fused and unfused runs of `m` agree on every output.
    fn same_result(m: &Module, args: &[i64]) {
        let run = |fuse| {
            Vm::new(
                m,
                VmConfig {
                    fuse,
                    ..VmConfig::default()
                },
            )
            .run(args, &mut FlatTiming, &mut NullRuntime)
            .expect("run")
        };
        let (a, b) = (run(true), run(false));
        assert_eq!(
            (a.return_value, a.cycles, a.instructions, a.loads),
            (b.return_value, b.cycles, b.instructions, b.loads)
        );
        assert_eq!(a.load_site_counts, b.load_site_counts);
    }

    #[test]
    fn mul_add_load_fuses_as_mul_then_add_load() {
        let p = lower(&strided_module(), true);
        assert_eq!(count(&p, |o| matches!(o, LOp::BinLoad { .. })), 1);
        assert_eq!(
            count(&p, |o| matches!(o, LOp::BinRI { op: BinOp::Mul, .. })),
            1,
            "the add pairs with its load, not with the mul"
        );
        assert!(count(&p, |o| matches!(o, LOp::CmpBr { .. })) >= 1);
        assert_eq!(
            count(&lower(&strided_module(), false), |o| matches!(
                o,
                LOp::BinLoad { .. } | LOp::BinBin { .. } | LOp::CmpBr { .. }
            )),
            0
        );
        same_result(&strided_module(), &[100]);
    }

    #[test]
    fn adjacent_bins_fuse_and_the_second_reads_the_first() {
        let m = single(|fb| {
            let a = fb.add(fb.param(0), 8i64);
            let b = fb.mul(a, fb.param(1));
            fb.ret(Some(Operand::Reg(b)));
        });
        assert_eq!(
            count(&lower(&m, true), |o| matches!(o, LOp::BinBin { .. })),
            1
        );
        same_result(&m, &[5, 3]);
    }

    #[test]
    fn fused_load_may_overwrite_its_address_register() {
        // p = p + 8; p = mem[p]: a pointer chase through one register.
        let m = single(|fb| {
            let p = fb.mov(fb.param(0));
            fb.bin_to(p, BinOp::Add, p, 8i64);
            fb.load_to(p, p, 0);
            fb.ret(Some(Operand::Reg(p)));
        });
        assert_eq!(
            count(&lower(&m, true), |o| matches!(o, LOp::BinLoad { .. })),
            1
        );
        same_result(&m, &[0x2000, 0]);
    }

    #[test]
    fn pairs_that_must_not_fuse_stay_apart() {
        // A predicated Bin.
        let predicated = single(|fb| {
            let a = fb.const_(0x2000);
            let dst = fb.new_reg();
            fb.emit_pred(
                fb.param(0),
                Op::Bin {
                    dst,
                    op: BinOp::Add,
                    lhs: Operand::Reg(a),
                    rhs: Operand::Imm(8),
                },
            );
            let _ = fb.load(dst, 0);
            fb.ret(None);
        });
        // A load of another register than the Bin's destination.
        let other = single(|fb| {
            let a = fb.const_(0x2000);
            let _unrelated = fb.add(a, 16i64);
            let _ = fb.load(a, 0);
            fb.ret(None);
        });
        // A branch on a compare that is not the block's last instruction.
        let early_cmp = single(|fb| {
            let (t, e) = (fb.new_block(), fb.new_block());
            let c = fb.cmp(stride_ir::CmpOp::Gt, fb.param(0), 3i64);
            let _other = fb.cmp(stride_ir::CmpOp::Lt, fb.param(0), 100i64);
            fb.cond_br(c, t, e);
            fb.switch_to(t);
            fb.ret(Some(Operand::Imm(1)));
            fb.switch_to(e);
            fb.ret(Some(Operand::Imm(0)));
        });
        let fused = |m: &Module| {
            count(&lower(m, true), |o| {
                matches!(
                    o,
                    LOp::BinLoad { .. } | LOp::BinBin { .. } | LOp::CmpBr { .. }
                )
            })
        };
        assert_eq!(fused(&predicated), 0);
        assert_eq!(fused(&other), 0);
        assert_eq!(fused(&early_cmp), 0);
        for m in [&predicated, &other, &early_cmp] {
            same_result(m, &[1, 0]);
        }
    }

    #[test]
    fn immediates_read_the_zero_register_and_bad_registers_stay_out_of_range() {
        let m = single(|fb| {
            let a = fb.add(2i64, 3i64);
            let b = fb.mov(7i64);
            let s = fb.add(a, b);
            let _ = fb.load(0x2000i64, 8);
            fb.ret(Some(Operand::Reg(s)));
        });
        let zero = m.functions[0].num_regs;
        let imm = |imm| Src { reg: zero, imm };
        let p = lower(&m, false);
        assert!(matches!(p.code[0].op, LOp::BinIR { a: 2, b, .. } if b == imm(3)));
        assert!(matches!(p.code[1].op, LOp::Mov { src, .. } if src == imm(7)));
        assert!(matches!(
            p.code[3].op,
            LOp::Load { addr, .. } if addr == imm(0x2008)
        ));
        same_result(&m, &[0, 0]);
        let mut bad = m.clone();
        bad.functions[0].blocks[0].instrs[2].op = Op::Mov {
            dst: Reg::new(zero),
            src: Operand::Reg(Reg::new(zero + 5)),
        };
        assert!(matches!(
            lower(&bad, false).code[2].op,
            LOp::Mov {
                dst: BAD_REG,
                src: Src { reg: BAD_REG, .. }
            }
        ));
    }
}
