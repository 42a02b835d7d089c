//! The IR interpreter: executes a [`Module`] over simulated memory,
//! charging cycles from a [`CostModel`], a [`MemoryTiming`] implementation
//! (the cache hierarchy), and a [`ProfilingRuntime`] (the instrumentation
//! runtime of the paper).

use crate::cost::CostModel;
use crate::lower::{Inst, LOp, Program, NO_DST, NO_PRED};
use crate::memory::{layout_globals, Heap, Memory};
use std::collections::HashMap;
use std::error::Error;
use std::fmt;
use stride_ir::{EdgeId, FuncId, InstrId, Module};

/// Whether a memory access is a load or a store.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AccessKind {
    /// A demand load.
    Load,
    /// A store.
    Store,
}

/// Provides memory-system timing: how many cycles an access stalls beyond
/// its base cost, and what a prefetch does.
pub trait MemoryTiming {
    /// Returns stall cycles for a demand access of `addr` at time `cycle`.
    fn access(&mut self, addr: u64, cycle: u64, kind: AccessKind) -> u64;
    /// Issues a non-blocking prefetch of `addr` at time `cycle`.
    fn prefetch(&mut self, addr: u64, cycle: u64);

    /// Opt-in for the VM's last-line load fast path. `Some(line)` promises
    /// that a demand **load** of the same `line`-aligned block as the
    /// immediately preceding demand access — with no other access or
    /// prefetch in between — would return 0 stall from [`Self::access`]
    /// and change no observable state beyond what
    /// [`Self::note_line_repeats`] applies. Implementations that must see
    /// every access (tracers) keep the `None` default.
    fn repeat_line_size(&self) -> Option<u64> {
        None
    }

    /// Applies the statistics of `n` batched same-line repeat loads of
    /// `addr` (see [`Self::repeat_line_size`]). Default: nothing.
    fn note_line_repeats(&mut self, _addr: u64, _n: u64) {}
}

/// A memory system with no stalls (used for functional tests).
#[derive(Debug, Default, Clone, Copy)]
pub struct FlatTiming;

impl MemoryTiming for FlatTiming {
    fn access(&mut self, _addr: u64, _cycle: u64, _kind: AccessKind) -> u64 {
        0
    }
    fn prefetch(&mut self, _addr: u64, _cycle: u64) {}
    /// Stateless and stall-free: every access is trivially a repeat hit.
    fn repeat_line_size(&self) -> Option<u64> {
        Some(64)
    }
}

/// The profiling runtime invoked by the profiling pseudo-instructions.
///
/// Each hook returns the cycle cost of the instruction sequence it stands
/// for, so instrumented runs pay a realistic overhead (Fig. 20 of the
/// paper is a ratio of such costs).
pub trait ProfilingRuntime {
    /// `ProfileEdge`: increment the counter of `edge` in `func`.
    fn profile_edge(&mut self, func: FuncId, edge: EdgeId) -> u64;
    /// `TripCountCheck`: evaluate `(entry_freq >> shift) > prehead_freq`
    /// from the current counters (Figs. 11–14). Returns the predicate and
    /// the cost.
    fn trip_count_check(
        &mut self,
        func: FuncId,
        incoming: &[EdgeId],
        outgoing: &[EdgeId],
        shift: u32,
    ) -> (bool, u64);
    /// `ProfileStride`: feed `addr` to the `strideProf` routine for load
    /// `site` (Figs. 6/7/9). Returns the cost.
    fn stride_prof(&mut self, func: FuncId, site: InstrId, slot: u32, addr: u64) -> u64;
}

/// A runtime that ignores every hook (used for uninstrumented runs).
#[derive(Debug, Default, Clone, Copy)]
pub struct NullRuntime;

impl ProfilingRuntime for NullRuntime {
    fn profile_edge(&mut self, _func: FuncId, _edge: EdgeId) -> u64 {
        0
    }
    fn trip_count_check(
        &mut self,
        _func: FuncId,
        _incoming: &[EdgeId],
        _outgoing: &[EdgeId],
        _shift: u32,
    ) -> (bool, u64) {
        (false, 0)
    }
    fn stride_prof(&mut self, _func: FuncId, _site: InstrId, _slot: u32, _addr: u64) -> u64 {
        0
    }
}

/// VM configuration.
#[derive(Clone, Copy, Debug)]
pub struct VmConfig {
    /// Cycle costs per opcode.
    pub cost: CostModel,
    /// Maximum dynamic instructions before aborting with
    /// [`VmError::OutOfFuel`].
    pub fuel: u64,
    /// Maximum call depth.
    pub max_call_depth: usize,
    /// Exclusive upper bound of the simulated address space. Demand
    /// accesses at or above it abort with
    /// [`VmError::InvalidMemoryAccess`]; prefetches of such addresses are
    /// dropped silently (prefetch is non-faulting, as on Itanium).
    pub addr_limit: u64,
    /// Form superinstructions when lowering the module (see
    /// [`crate::lower`]). Fusion is a pure dispatch optimization: every
    /// logical output — return value, cycles, instruction/load/store
    /// counts, per-site load counts — is byte-identical with it on or off.
    pub fuse: bool,
}

impl Default for VmConfig {
    fn default() -> Self {
        VmConfig {
            cost: CostModel::itanium(),
            fuel: 4_000_000_000,
            max_call_depth: 1 << 14,
            addr_limit: 1 << 40,
            fuse: true,
        }
    }
}

/// Execution failure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum VmError {
    /// The instruction budget was exhausted.
    OutOfFuel {
        /// Instructions executed before aborting.
        executed: u64,
    },
    /// The call stack exceeded the configured depth.
    CallDepthExceeded {
        /// The configured limit.
        limit: usize,
    },
    /// A demand load or store touched an address outside the simulated
    /// address space (`addr >= VmConfig::addr_limit`).
    InvalidMemoryAccess {
        /// The faulting address.
        addr: u64,
    },
    /// The entry point or a call named a function id the module does not
    /// define.
    UnknownFunction {
        /// The out-of-range function index.
        func: u32,
    },
    /// A function was invoked with the wrong number of arguments.
    ArityMismatch {
        /// The function index invoked.
        func: u32,
        /// Parameters the function declares.
        expected: u32,
        /// Arguments actually supplied.
        got: usize,
    },
}

impl fmt::Display for VmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VmError::OutOfFuel { executed } => {
                write!(
                    f,
                    "instruction budget exhausted after {executed} instructions"
                )
            }
            VmError::CallDepthExceeded { limit } => {
                write!(f, "call depth exceeded limit of {limit}")
            }
            VmError::InvalidMemoryAccess { addr } => {
                write!(f, "invalid memory access at {addr:#x}")
            }
            VmError::UnknownFunction { func } => {
                write!(f, "unknown function f{func}")
            }
            VmError::ArityMismatch {
                func,
                expected,
                got,
            } => {
                write!(
                    f,
                    "function f{func} expects {expected} arguments, got {got}"
                )
            }
        }
    }
}

impl Error for VmError {}

/// Everything a run produced: the return value, cycle accounting, and
/// per-load-site dynamic reference counts.
#[derive(Clone, Debug, Default)]
pub struct RunResult {
    /// Value returned by the entry function, if any.
    pub return_value: Option<i64>,
    /// Total simulated cycles (base + memory stalls + profiling runtime).
    pub cycles: u64,
    /// Dynamic instruction count (including terminators).
    pub instructions: u64,
    /// Dynamic load count.
    pub loads: u64,
    /// Dynamic store count.
    pub stores: u64,
    /// Dynamic prefetch count (predicated-off prefetches excluded).
    pub prefetches: u64,
    /// Cycles stalled in the memory hierarchy.
    pub mem_stall_cycles: u64,
    /// Cycles spent in the profiling runtime.
    pub profiling_cycles: u64,
    /// Dynamic execution count per load site: `load_site_counts[func][instr]`.
    pub load_site_counts: Vec<Vec<u64>>,
    /// Superinstructions dispatched (meta-counter: measures how much
    /// dispatch work fusion saved; not a logical output — it differs
    /// between fused and unfused runs by design).
    pub fused_dispatch: u64,
    /// Demand accesses (loads and stores) served by the VM's last-line
    /// fast path without calling into the memory timing model
    /// (meta-counter; depends on the timing model's
    /// [`MemoryTiming::repeat_line_size`] opt-in).
    pub fastpath_load_hits: u64,
    /// Dispatch probes recorded by the `vm-selfprof` feature (meta-counter;
    /// always 0 when the feature is off).
    pub selfprof_overhead_cycles: u64,
}

impl RunResult {
    /// Dynamic count for one load site.
    pub fn load_count(&self, func: FuncId, site: InstrId) -> u64 {
        self.load_site_counts
            .get(func.index())
            .and_then(|v| v.get(site.index()))
            .copied()
            .unwrap_or(0)
    }
}

/// A suspended caller: where it resumes and where the callee's return
/// value goes.
struct Frame {
    pc: u32,
    regs: Vec<i64>,
    ret: u32,
}

/// The last-line load fast path (see [`MemoryTiming::repeat_line_size`]):
/// demand loads and stores of the line touched by the immediately
/// preceding demand access skip the timing model; their statistics are
/// batched into the model at the next slow event or at run exit.
struct LastLine {
    mask: Option<u64>,
    /// Line of the last slow access; `u64::MAX` when none is known.
    line: u64,
    addr: u64,
    pending: u64,
    hits: u64,
}

impl LastLine {
    /// Stall cycles of a demand access of `a` at `cycle`.
    #[inline(always)]
    fn access(
        &mut self,
        timing: &mut dyn MemoryTiming,
        a: u64,
        cycle: u64,
        kind: AccessKind,
    ) -> u64 {
        if let Some(mask) = self.mask {
            if a & mask == self.line {
                self.pending += 1;
                self.hits += 1;
                return 0;
            }
            self.flush(timing);
            self.line = a & mask;
            self.addr = a;
        }
        timing.access(a, cycle, kind)
    }

    /// Settles batched repeats into the timing model.
    fn flush(&mut self, timing: &mut dyn MemoryTiming) {
        if self.pending != 0 {
            timing.note_line_repeats(self.addr, self.pending);
            self.pending = 0;
        }
    }
}

/// The virtual machine. Owns the simulated memory and heap; borrows the
/// module, timing model and profiling runtime for the duration of a run.
pub struct Vm<'a> {
    module: &'a Module,
    config: VmConfig,
    /// `module` lowered to the execution form, on the first run.
    program: Option<Program>,
    /// Simulated memory, exposed so harnesses can pre-initialize data.
    pub mem: Memory,
    /// Simulated heap.
    pub heap: Heap,
    global_bases: Vec<u64>,
    alloc_sizes: HashMap<u64, u64>,
    /// Dispatch profile accumulated across runs (`vm-selfprof` builds).
    #[cfg(feature = "vm-selfprof")]
    pub selfprof: crate::selfprof::SelfProfile,
}

impl<'a> Vm<'a> {
    /// Creates a VM for `module` with globals laid out and zeroed. The
    /// module is lowered to the VM's execution form when it first runs.
    pub fn new(module: &'a Module, config: VmConfig) -> Self {
        let sizes: Vec<u64> = module.globals.iter().map(|g| g.size).collect();
        let global_bases = layout_globals(&sizes);
        Vm {
            module,
            config,
            program: None,
            mem: Memory::new(),
            heap: Heap::new(),
            global_bases,
            alloc_sizes: HashMap::new(),
            #[cfg(feature = "vm-selfprof")]
            selfprof: crate::selfprof::SelfProfile::new(),
        }
    }

    /// Base address of a global.
    ///
    /// # Panics
    ///
    /// Panics if the global id is out of range.
    pub fn global_base(&self, g: stride_ir::GlobalId) -> u64 {
        self.global_bases[g.index()]
    }

    /// Runs the module entry function with `args`, using `timing` for
    /// memory-system delays and `profiling` for instrumentation hooks.
    ///
    /// # Errors
    ///
    /// Returns [`VmError::OutOfFuel`] or [`VmError::CallDepthExceeded`].
    pub fn run(
        &mut self,
        args: &[i64],
        timing: &mut dyn MemoryTiming,
        profiling: &mut dyn ProfilingRuntime,
    ) -> Result<RunResult, VmError> {
        let entry = self.module.entry;
        self.run_function(entry, args, timing, profiling)
    }

    /// Runs an arbitrary function (used by unit tests and examples).
    ///
    /// # Errors
    ///
    /// Returns [`VmError::OutOfFuel`] or [`VmError::CallDepthExceeded`].
    pub fn run_function(
        &mut self,
        func: FuncId,
        args: &[i64],
        timing: &mut dyn MemoryTiming,
        profiling: &mut dyn ProfilingRuntime,
    ) -> Result<RunResult, VmError> {
        let config = self.config;
        let prog: &Program = self.program.get_or_insert_with(|| {
            Program::lower(self.module, &config.cost, &self.global_bases, config.fuse)
        });

        let Some(f) = prog.funcs.get(func.index()) else {
            return Err(VmError::UnknownFunction {
                func: func.index() as u32,
            });
        };
        if args.len() != f.num_params as usize {
            return Err(VmError::ArityMismatch {
                func: func.index() as u32,
                expected: f.num_params,
                got: args.len(),
            });
        }

        let VmConfig {
            fuel,
            addr_limit,
            max_call_depth: max_depth,
            ..
        } = config;

        // The running frame lives in locals; `stack` holds only suspended
        // callers.
        let code: &[Inst] = &prog.code;
        let mut pc = f.entry as usize;
        let mut regs = vec![0i64; f.frame_regs as usize];
        // Arguments fill IR registers only, never the zero register; a
        // function declaring more parameters than registers panics.
        regs[..f.frame_regs as usize - 1][..args.len()].copy_from_slice(args);
        let mut ret_dst = NO_DST;
        let mut stack: Vec<Frame> = Vec::new();
        // Register files of returned frames, reused by later calls so the
        // call-heavy workloads do not allocate per dynamic call. Bounded by
        // the deepest call stack seen.
        let mut reg_pool: Vec<Vec<i64>> = Vec::new();
        let mut sites = vec![0u64; prog.funcs.iter().map(|f| f.sites as usize).sum()];
        let mut line = LastLine {
            mask: timing.repeat_line_size().map(|s| !(s - 1)),
            line: u64::MAX,
            addr: 0,
            pending: 0,
            hits: 0,
        };

        let mut cycles = 0u64;
        let mut instructions = 0u64;
        let (mut stores, mut prefetches) = (0u64, 0u64);
        let (mut mem_stall_cycles, mut profiling_cycles) = (0u64, 0u64);
        let mut fused_dispatch = 0u64;
        #[cfg(feature = "vm-selfprof")]
        let mut prev_kind: Option<crate::selfprof::OpKind> = None;
        #[cfg(feature = "vm-selfprof")]
        let mut probes = 0u64;

        // Counts one dynamic instruction (each half of a superinstruction
        // is one) and aborts the run once the budget is exhausted.
        macro_rules! tick {
            () => {
                instructions += 1;
                if instructions > fuel {
                    break Err(VmError::OutOfFuel {
                        executed: instructions,
                    });
                }
            };
        }

        // Each arm that aborts breaks with the error; a return from the
        // entry frame breaks with its value.
        let outcome: Result<Option<i64>, VmError> = loop {
            let inst = &code[pc];
            pc += 1;
            tick!();

            #[cfg(feature = "vm-selfprof")]
            {
                self.selfprof.record(prev_kind, inst.kind);
                prev_kind = Some(inst.kind);
                probes += 1;
            }

            // On Itanium a predicated-off instruction occupies its issue
            // slot but completes without effect: charge 1 cycle.
            if inst.pred != NO_PRED && regs[inst.pred as usize] == 0 {
                cycles += 1;
                continue;
            }
            cycles += inst.cost;

            // Arms ordered hottest-first per the vm-selfprof opcode/digram
            // profile of the Fig. 15 workloads.
            match inst.op {
                LOp::BinBin { a, b } => {
                    fused_dispatch += 1;
                    a.exec(&mut regs);
                    tick!();
                    b.exec(&mut regs);
                }
                LOp::BinRI { op, dst, a, b } => {
                    regs[dst as usize] = op.eval(regs[a as usize], b);
                }
                LOp::BinRR { op, dst, a, b } => {
                    regs[dst as usize] = op.eval(regs[a as usize], regs[b as usize]);
                }
                LOp::Load { .. } | LOp::BinLoad { .. } => {
                    let (a, dst, site) = match inst.op {
                        LOp::BinLoad {
                            bin,
                            load_dst,
                            offset,
                            site,
                        } => {
                            fused_dispatch += 1;
                            let base = bin.exec(&mut regs);
                            tick!();
                            (base.wrapping_add(offset), load_dst, site)
                        }
                        LOp::Load { dst, addr, site } => (addr.get(&regs), dst, site),
                        _ => unreachable!("matched a load above"),
                    };
                    let a = a as u64;
                    if a >= addr_limit {
                        break Err(VmError::InvalidMemoryAccess { addr: a });
                    }
                    sites[site as usize] += 1;
                    // Read before timing the access: the host's miss on
                    // guest data then overlaps the timing model's work.
                    let v = self.mem.read_u64(a) as i64;
                    let stall = line.access(timing, a, cycles, AccessKind::Load);
                    cycles += stall;
                    mem_stall_cycles += stall;
                    regs[dst as usize] = v;
                }
                LOp::CmpBr {
                    op,
                    dst,
                    a,
                    b,
                    k,
                    then_,
                    else_,
                } => {
                    fused_dispatch += 1;
                    let c = op.eval(regs[a as usize], regs[b as usize].wrapping_add(k));
                    regs[dst as usize] = c;
                    tick!();
                    pc = if c != 0 { then_ } else { else_ } as usize;
                }
                LOp::Br { target } => pc = target as usize,
                LOp::Cmp { op, dst, a, b } => {
                    regs[dst as usize] = op.eval(a.get(&regs), b.get(&regs));
                }
                LOp::CondBr { cond, then_, else_ } => {
                    pc = if regs[cond as usize] != 0 {
                        then_
                    } else {
                        else_
                    } as usize;
                }
                LOp::Store { value, addr } => {
                    let a = addr.get(&regs) as u64;
                    if a >= addr_limit {
                        break Err(VmError::InvalidMemoryAccess { addr: a });
                    }
                    stores += 1;
                    // The hierarchy's hit path is kind-agnostic, so a
                    // same-line store repeats exactly like a load.
                    let stall = line.access(timing, a, cycles, AccessKind::Store);
                    cycles += stall;
                    mem_stall_cycles += stall;
                    self.mem.write_u64(a, value.get(&regs) as u64);
                }
                LOp::Const { dst, value } => regs[dst as usize] = value,
                LOp::Mov { dst, src } => regs[dst as usize] = src.get(&regs),
                LOp::Select {
                    dst,
                    cond,
                    on_true,
                    on_false,
                } => {
                    let pick = if cond.get(&regs) != 0 {
                        on_true
                    } else {
                        on_false
                    };
                    regs[dst as usize] = pick.get(&regs);
                }
                LOp::BinIR { op, dst, a, b } => {
                    regs[dst as usize] = op.eval(a, b.get(&regs));
                }
                LOp::Call { dst, callee, at, n } => {
                    if stack.len() + 1 >= max_depth {
                        break Err(VmError::CallDepthExceeded { limit: max_depth });
                    }
                    let Some(cf) = prog.funcs.get(callee as usize) else {
                        break Err(VmError::UnknownFunction { func: callee });
                    };
                    if n >= cf.frame_regs {
                        break Err(VmError::ArityMismatch {
                            func: callee,
                            expected: cf.num_params,
                            got: n as usize,
                        });
                    }
                    let mut new_regs = reg_pool.pop().unwrap_or_default();
                    new_regs.clear();
                    new_regs.resize(cf.frame_regs as usize, 0);
                    for (slot, s) in new_regs
                        .iter_mut()
                        .zip(&prog.args[at as usize..][..n as usize])
                    {
                        *slot = s.get(&regs);
                    }
                    stack.push(Frame {
                        pc: pc as u32,
                        regs: std::mem::replace(&mut regs, new_regs),
                        ret: std::mem::replace(&mut ret_dst, dst),
                    });
                    pc = cf.entry as usize;
                }
                LOp::Ret { value } => {
                    let v = value.map(|s| s.get(&regs));
                    let Some(caller) = stack.pop() else {
                        break Ok(v);
                    };
                    reg_pool.push(std::mem::replace(&mut regs, caller.regs));
                    if let (true, Some(v)) = (ret_dst != NO_DST, v) {
                        regs[ret_dst as usize] = v;
                    }
                    ret_dst = caller.ret;
                    pc = caller.pc as usize;
                }
                LOp::Prefetch { addr } => {
                    let a = addr.get(&regs) as u64;
                    // Prefetch is non-faulting: a wild address (e.g. from a
                    // degraded profile) is dropped, not an error.
                    if a < addr_limit {
                        line.flush(timing);
                        // Prefetch installs can displace the MRU hint; drop
                        // the repeat guarantee.
                        line.line = u64::MAX;
                        timing.prefetch(a, cycles);
                        prefetches += 1;
                    }
                }
                LOp::ProfileStride {
                    func,
                    site,
                    slot,
                    addr,
                } => {
                    let a = addr.get(&regs) as u64;
                    let c = profiling.stride_prof(FuncId::new(func), site, slot, a);
                    cycles += c;
                    profiling_cycles += c;
                }
                LOp::ProfileEdge { func, edge } => {
                    let c = profiling.profile_edge(FuncId::new(func), edge);
                    cycles += c;
                    profiling_cycles += c;
                }
                LOp::TripCountCheck {
                    func,
                    dst,
                    at,
                    n_in,
                    n_out,
                    shift,
                } => {
                    let (incoming, outgoing) = prog.edges[at as usize..][..(n_in + n_out) as usize]
                        .split_at(n_in as usize);
                    let (pred, c) =
                        profiling.trip_count_check(FuncId::new(func), incoming, outgoing, shift);
                    cycles += c;
                    profiling_cycles += c;
                    regs[dst as usize] = pred as i64;
                }
                LOp::Alloc { dst, size } => {
                    let sz = size.get(&regs).max(0) as u64;
                    let a = self.heap.alloc(sz);
                    self.alloc_sizes.insert(a, sz);
                    regs[dst as usize] = a as i64;
                }
                LOp::Free { addr } => {
                    let a = addr.get(&regs) as u64;
                    if let Some(sz) = self.alloc_sizes.remove(&a) {
                        self.heap.free(a, sz);
                    }
                }
            }
        };

        // Settle batched fast-path hits so the timing model's statistics
        // cover the whole run (including error aborts).
        line.flush(timing);
        let return_value = outcome?;
        // Every load counts at its site.
        let loads = sites.iter().sum();
        let mut rows = sites.into_iter();
        Ok(RunResult {
            return_value,
            cycles,
            instructions,
            loads,
            stores,
            prefetches,
            mem_stall_cycles,
            profiling_cycles,
            load_site_counts: prog
                .funcs
                .iter()
                .map(|f| rows.by_ref().take(f.sites as usize).collect())
                .collect(),
            fused_dispatch,
            fastpath_load_hits: line.hits,
            #[cfg(feature = "vm-selfprof")]
            selfprof_overhead_cycles: probes,
            #[cfg(not(feature = "vm-selfprof"))]
            selfprof_overhead_cycles: 0,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stride_ir::{BinOp, BlockId, CmpOp, ModuleBuilder, Op, Operand};

    fn run_entry(module: &Module, args: &[i64]) -> RunResult {
        let mut vm = Vm::new(module, VmConfig::default());
        vm.run(args, &mut FlatTiming, &mut NullRuntime)
            .expect("run")
    }

    #[test]
    fn arithmetic_and_return() {
        let mut mb = ModuleBuilder::new();
        let f = mb.declare_function("main", 2);
        let mut fb = mb.function(f);
        let s = fb.add(fb.param(0), fb.param(1));
        let d = fb.mul(s, 10i64);
        fb.ret(Some(Operand::Reg(d)));
        mb.set_entry(f);
        let m = mb.finish();
        assert_eq!(run_entry(&m, &[3, 4]).return_value, Some(70));
    }

    #[test]
    fn counted_loop_sums() {
        let mut mb = ModuleBuilder::new();
        let f = mb.declare_function("main", 1);
        let mut fb = mb.function(f);
        let sum = fb.const_(0);
        fb.counted_loop(fb.param(0), |fb, i| {
            fb.bin_to(sum, BinOp::Add, sum, i);
        });
        fb.ret(Some(Operand::Reg(sum)));
        mb.set_entry(f);
        let m = mb.finish();
        assert_eq!(run_entry(&m, &[10]).return_value, Some(45));
    }

    #[test]
    fn memory_round_trip_and_counters() {
        let mut mb = ModuleBuilder::new();
        let g = mb.add_global("buf", 64);
        let f = mb.declare_function("main", 0);
        let mut fb = mb.function(f);
        let base = fb.global_addr(g);
        fb.store(41i64, base, 8);
        let (v, _) = fb.load(base, 8);
        let w = fb.add(v, 1i64);
        fb.ret(Some(Operand::Reg(w)));
        mb.set_entry(f);
        let m = mb.finish();
        let r = run_entry(&m, &[]);
        assert_eq!(r.return_value, Some(42));
        assert_eq!(r.loads, 1);
        assert_eq!(r.stores, 1);
    }

    #[test]
    fn alloc_produces_usable_sequential_memory() {
        let mut mb = ModuleBuilder::new();
        let f = mb.declare_function("main", 0);
        let mut fb = mb.function(f);
        let a = fb.alloc(16i64);
        let b = fb.alloc(16i64);
        fb.store(7i64, a, 0);
        fb.store(8i64, b, 0);
        let (va, _) = fb.load(a, 0);
        let (vb, _) = fb.load(b, 0);
        let diff = fb.sub(b, a);
        let s = fb.add(va, vb);
        let out = fb.add(s, diff);
        fb.ret(Some(Operand::Reg(out)));
        mb.set_entry(f);
        let m = mb.finish();
        // 7 + 8 + 16-byte stride
        assert_eq!(run_entry(&m, &[]).return_value, Some(31));
    }

    #[test]
    fn calls_pass_arguments_and_return() {
        let mut mb = ModuleBuilder::new();
        let sq = mb.declare_function("square", 1);
        {
            let mut fb = mb.function(sq);
            let x = fb.param(0);
            let y = fb.mul(x, x);
            fb.ret(Some(Operand::Reg(y)));
        }
        let f = mb.declare_function("main", 1);
        {
            let mut fb = mb.function(f);
            let r = fb.call(sq, &[Operand::Reg(fb.param(0))]);
            fb.ret(Some(Operand::Reg(r)));
        }
        mb.set_entry(f);
        let m = mb.finish();
        assert_eq!(run_entry(&m, &[9]).return_value, Some(81));
    }

    #[test]
    fn recursion_counts_depth() {
        // f(n) = n <= 0 ? 0 : n + f(n-1)
        let mut mb = ModuleBuilder::new();
        let f = mb.declare_function("tri", 1);
        {
            let mut fb = mb.function(f);
            let n = fb.param(0);
            let base = fb.new_block();
            let rec = fb.new_block();
            let c = fb.cmp(CmpOp::Le, n, 0i64);
            fb.cond_br(c, base, rec);
            fb.switch_to(base);
            fb.ret(Some(Operand::Imm(0)));
            fb.switch_to(rec);
            let n1 = fb.sub(n, 1i64);
            let r = fb.call(f, &[Operand::Reg(n1)]);
            let s = fb.add(n, r);
            fb.ret(Some(Operand::Reg(s)));
        }
        mb.set_entry(f);
        let m = mb.finish();
        assert_eq!(run_entry(&m, &[100]).return_value, Some(5050));
    }

    #[test]
    fn call_depth_limit_enforced() {
        let mut mb = ModuleBuilder::new();
        let f = mb.declare_function("inf", 0);
        {
            let mut fb = mb.function(f);
            fb.call_void(f, &[]);
            fb.ret(None);
        }
        mb.set_entry(f);
        let m = mb.finish();
        let mut vm = Vm::new(
            &m,
            VmConfig {
                max_call_depth: 64,
                ..VmConfig::default()
            },
        );
        let err = vm.run(&[], &mut FlatTiming, &mut NullRuntime).unwrap_err();
        assert_eq!(err, VmError::CallDepthExceeded { limit: 64 });
    }

    #[test]
    fn fuel_limit_enforced() {
        let mut mb = ModuleBuilder::new();
        let f = mb.declare_function("spin", 0);
        {
            let mut fb = mb.function(f);
            let b = fb.new_block();
            fb.br(b);
            fb.switch_to(b);
            fb.br(b);
        }
        mb.set_entry(f);
        let m = mb.finish();
        let mut vm = Vm::new(
            &m,
            VmConfig {
                fuel: 1000,
                ..VmConfig::default()
            },
        );
        let err = vm.run(&[], &mut FlatTiming, &mut NullRuntime).unwrap_err();
        assert!(matches!(err, VmError::OutOfFuel { .. }));
    }

    #[test]
    fn predicated_off_instruction_is_squashed() {
        let mut mb = ModuleBuilder::new();
        let f = mb.declare_function("main", 0);
        let mut fb = mb.function(f);
        let p0 = fb.const_(0);
        let p1 = fb.const_(1);
        let out = fb.const_(5);
        fb.emit_pred(
            p0,
            Op::Mov {
                dst: out,
                src: Operand::Imm(100),
            },
        );
        fb.emit_pred(
            p1,
            Op::Bin {
                dst: out,
                op: BinOp::Add,
                lhs: Operand::Reg(out),
                rhs: Operand::Imm(1),
            },
        );
        fb.ret(Some(Operand::Reg(out)));
        mb.set_entry(f);
        let m = mb.finish();
        assert_eq!(run_entry(&m, &[]).return_value, Some(6));
    }

    #[test]
    fn predicated_prefetch_not_counted_when_off() {
        let mut mb = ModuleBuilder::new();
        let f = mb.declare_function("main", 0);
        let mut fb = mb.function(f);
        let p0 = fb.const_(0);
        let a = fb.const_(0x2000_0000);
        fb.emit_pred(
            p0,
            Op::Prefetch {
                addr: Operand::Reg(a),
                offset: 0,
            },
        );
        fb.prefetch(a, 64);
        fb.ret(None);
        mb.set_entry(f);
        let m = mb.finish();
        let r = run_entry(&m, &[]);
        assert_eq!(r.prefetches, 1);
    }

    #[test]
    fn load_site_counts_are_per_site() {
        let mut mb = ModuleBuilder::new();
        let g = mb.add_global("buf", 1024);
        let f = mb.declare_function("main", 0);
        let mut fb = mb.function(f);
        let base = fb.global_addr(g);
        let mut hot_site = None;
        fb.counted_loop(10i64, |fb, i| {
            let off = fb.mul(i, 8i64);
            let a = fb.add(base, off);
            let (_, site) = fb.load(a, 0);
            hot_site = Some(site);
        });
        let (_, cold_site) = fb.load(base, 0);
        fb.ret(None);
        mb.set_entry(f);
        let m = mb.finish();
        let r = run_entry(&m, &[]);
        assert_eq!(r.load_count(f, hot_site.unwrap()), 10);
        assert_eq!(r.load_count(f, cold_site), 1);
        assert_eq!(r.loads, 11);
    }

    #[test]
    fn profiling_hooks_receive_addresses_and_charge_cycles() {
        #[derive(Default)]
        struct Recorder {
            edges: Vec<(FuncId, EdgeId)>,
            strides: Vec<(InstrId, u64)>,
        }
        impl ProfilingRuntime for Recorder {
            fn profile_edge(&mut self, func: FuncId, edge: EdgeId) -> u64 {
                self.edges.push((func, edge));
                2
            }
            fn trip_count_check(
                &mut self,
                _f: FuncId,
                _i: &[EdgeId],
                _o: &[EdgeId],
                _s: u32,
            ) -> (bool, u64) {
                (true, 4)
            }
            fn stride_prof(&mut self, _f: FuncId, site: InstrId, _slot: u32, addr: u64) -> u64 {
                self.strides.push((site, addr));
                10
            }
        }

        let mut mb = ModuleBuilder::new();
        let g = mb.add_global("buf", 64);
        let f = mb.declare_function("main", 0);
        let mut fb = mb.function(f);
        let base = fb.global_addr(g);
        let (_, site) = fb.load(base, 16);
        // hand-emit profiling pseudo-instructions
        let pr = fb.new_reg();
        let one = fb.const_(1);
        fb.emit_pred(
            one,
            Op::ProfileEdge {
                edge: EdgeId::new(3),
            },
        );
        fb.emit_pred(
            one,
            Op::TripCountCheck {
                dst: pr,
                header: BlockId::new(0),
                incoming: vec![],
                outgoing: vec![],
                shift: 7,
            },
        );
        fb.emit_pred(
            pr,
            Op::ProfileStride {
                site,
                addr: Operand::Reg(base),
                offset: 16,
                slot: 0,
            },
        );
        fb.ret(None);
        mb.set_entry(f);
        let m = mb.finish();

        let mut vm = Vm::new(&m, VmConfig::default());
        let mut rec = Recorder::default();
        let r = vm.run(&[], &mut FlatTiming, &mut rec).expect("run");
        assert_eq!(rec.edges, vec![(f, EdgeId::new(3))]);
        assert_eq!(rec.strides.len(), 1);
        assert_eq!(rec.strides[0].0, site);
        // the stride hook saw the load's address: global base + 16
        let vm2 = Vm::new(&m, VmConfig::default());
        let gb = vm2.global_base(g);
        assert_eq!(rec.strides[0].1, gb + 16);
        assert_eq!(r.profiling_cycles, 2 + 4 + 10);
    }

    #[test]
    fn memory_stalls_accumulate() {
        struct TenCycle;
        impl MemoryTiming for TenCycle {
            fn access(&mut self, _a: u64, _c: u64, _k: AccessKind) -> u64 {
                10
            }
            fn prefetch(&mut self, _a: u64, _c: u64) {}
        }
        let mut mb = ModuleBuilder::new();
        let g = mb.add_global("buf", 64);
        let f = mb.declare_function("main", 0);
        let mut fb = mb.function(f);
        let base = fb.global_addr(g);
        let _ = fb.load(base, 0);
        let _ = fb.load(base, 8);
        fb.ret(None);
        mb.set_entry(f);
        let m = mb.finish();
        let mut vm = Vm::new(&m, VmConfig::default());
        let r = vm.run(&[], &mut TenCycle, &mut NullRuntime).expect("run");
        assert_eq!(r.mem_stall_cycles, 20);
        assert!(r.cycles >= 20);
    }

    #[test]
    fn wild_demand_access_is_an_error_not_a_panic() {
        let mut mb = ModuleBuilder::new();
        let f = mb.declare_function("main", 0);
        let mut fb = mb.function(f);
        let a = fb.const_(1i64 << 50);
        let _ = fb.load(a, 0);
        fb.ret(None);
        mb.set_entry(f);
        let m = mb.finish();
        let mut vm = Vm::new(&m, VmConfig::default());
        let err = vm.run(&[], &mut FlatTiming, &mut NullRuntime).unwrap_err();
        assert_eq!(err, VmError::InvalidMemoryAccess { addr: 1u64 << 50 });
    }

    #[test]
    fn wild_prefetch_is_dropped_silently() {
        let mut mb = ModuleBuilder::new();
        let f = mb.declare_function("main", 0);
        let mut fb = mb.function(f);
        let a = fb.const_(1i64 << 50);
        fb.prefetch(a, 0);
        fb.ret(None);
        mb.set_entry(f);
        let m = mb.finish();
        let r = run_entry(&m, &[]);
        assert_eq!(r.prefetches, 0);
    }

    #[test]
    fn unknown_entry_function_is_an_error() {
        let mut mb = ModuleBuilder::new();
        let f = mb.declare_function("main", 0);
        let mut fb = mb.function(f);
        fb.ret(None);
        mb.set_entry(f);
        let m = mb.finish();
        let mut vm = Vm::new(&m, VmConfig::default());
        let err = vm
            .run_function(FuncId::new(7), &[], &mut FlatTiming, &mut NullRuntime)
            .unwrap_err();
        assert_eq!(err, VmError::UnknownFunction { func: 7 });
    }

    #[test]
    fn arguments_never_reach_the_zero_register() {
        // A malformed function declaring more parameters than registers:
        // its third argument would land in the zero register that
        // immediates read.
        let mut mb = ModuleBuilder::new();
        let f = mb.declare_function("main", 3);
        let mut fb = mb.function(f);
        fb.ret(Some(Operand::Imm(5)));
        mb.set_entry(f);
        let mut m = mb.finish();
        m.functions[0].num_regs = 2;
        let run = std::panic::catch_unwind(|| {
            Vm::new(&m, VmConfig::default()).run(&[1, 2, 3], &mut FlatTiming, &mut NullRuntime)
        });
        assert!(run.is_err(), "the IR interpreter panicked here too");
    }

    #[test]
    fn entry_arity_mismatch_is_an_error() {
        let mut mb = ModuleBuilder::new();
        let f = mb.declare_function("main", 2);
        let mut fb = mb.function(f);
        fb.ret(None);
        mb.set_entry(f);
        let m = mb.finish();
        let mut vm = Vm::new(&m, VmConfig::default());
        let err = vm.run(&[1], &mut FlatTiming, &mut NullRuntime).unwrap_err();
        assert_eq!(
            err,
            VmError::ArityMismatch {
                func: 0,
                expected: 2,
                got: 1
            }
        );
    }

    /// Strided sum + pointer-ish reloads + a call: exercises FusedBinLoad,
    /// FusedCmpBr, and plain ops in one workload.
    fn fusible_workload() -> Module {
        let mut mb = ModuleBuilder::new();
        let g = mb.add_global("arr", 1 << 12);
        let helper = mb.declare_function("helper", 1);
        {
            let mut fb = mb.function(helper);
            let x = fb.param(0);
            let y = fb.mul(x, 3i64);
            fb.ret(Some(Operand::Reg(y)));
        }
        let f = mb.declare_function("main", 1);
        {
            let mut fb = mb.function(f);
            let base = fb.global_addr(g);
            let sum = fb.mov(0i64);
            fb.counted_loop(fb.param(0), |fb, i| {
                let off = fb.mul(i, 8i64);
                let a = fb.add(base, off);
                let (v, _) = fb.load(a, 0);
                fb.store(v, a, 64);
                let h = fb.call(helper, &[Operand::Reg(v)]);
                fb.bin_to(sum, BinOp::Add, sum, h);
            });
            fb.ret(Some(Operand::Reg(sum)));
        }
        mb.set_entry(f);
        mb.finish()
    }

    /// Asserts every logical output of two runs matches (meta-counters like
    /// fused_dispatch are intentionally excluded — they describe the
    /// interpreter, not the program).
    fn assert_logical_identity(a: &RunResult, b: &RunResult) {
        assert_eq!(a.return_value, b.return_value);
        assert_eq!(a.cycles, b.cycles);
        assert_eq!(a.instructions, b.instructions);
        assert_eq!(a.loads, b.loads);
        assert_eq!(a.stores, b.stores);
        assert_eq!(a.prefetches, b.prefetches);
        assert_eq!(a.mem_stall_cycles, b.mem_stall_cycles);
        assert_eq!(a.profiling_cycles, b.profiling_cycles);
        assert_eq!(a.load_site_counts, b.load_site_counts);
    }

    #[test]
    fn fused_and_unfused_runs_are_byte_identical() {
        let m = fusible_workload();
        let mut fused_vm = Vm::new(&m, VmConfig::default());
        let fused = fused_vm
            .run(&[50], &mut FlatTiming, &mut NullRuntime)
            .expect("fused run");
        let mut plain_vm = Vm::new(
            &m,
            VmConfig {
                fuse: false,
                ..VmConfig::default()
            },
        );
        let plain = plain_vm
            .run(&[50], &mut FlatTiming, &mut NullRuntime)
            .expect("unfused run");
        assert!(fused.fused_dispatch > 0, "fusion must actually engage");
        assert_eq!(plain.fused_dispatch, 0);
        assert_logical_identity(&fused, &plain);
    }

    #[test]
    fn fused_out_of_fuel_aborts_at_identical_instruction() {
        // Sweep fuel across the whole run, including values that land
        // between the two halves of a superinstruction.
        let m = fusible_workload();
        let full = Vm::new(&m, VmConfig::default())
            .run(&[6], &mut FlatTiming, &mut NullRuntime)
            .expect("full run")
            .instructions;
        for fuel in 1..=full {
            let mut fused_vm = Vm::new(
                &m,
                VmConfig {
                    fuel,
                    ..VmConfig::default()
                },
            );
            let fused = fused_vm.run(&[6], &mut FlatTiming, &mut NullRuntime);
            let mut plain_vm = Vm::new(
                &m,
                VmConfig {
                    fuel,
                    fuse: false,
                    ..VmConfig::default()
                },
            );
            let plain = plain_vm.run(&[6], &mut FlatTiming, &mut NullRuntime);
            match (&fused, &plain) {
                (Err(a), Err(b)) => assert_eq!(a, b, "fuel {fuel}"),
                (Ok(a), Ok(b)) => assert_logical_identity(a, b),
                _ => panic!("fuel {fuel}: one run aborted, the other finished"),
            }
        }
    }

    #[test]
    fn last_line_fast_path_batches_exactly() {
        // A timing model that counts its calls and knows its line size.
        #[derive(Default)]
        struct Counting {
            accesses: u64,
            noted: u64,
        }
        impl MemoryTiming for Counting {
            fn access(&mut self, _a: u64, _c: u64, _k: AccessKind) -> u64 {
                self.accesses += 1;
                0
            }
            fn prefetch(&mut self, _a: u64, _c: u64) {}
            fn repeat_line_size(&self) -> Option<u64> {
                Some(64)
            }
            fn note_line_repeats(&mut self, _addr: u64, n: u64) {
                self.noted += n;
            }
        }

        let mut mb = ModuleBuilder::new();
        let g = mb.add_global("buf", 256);
        let f = mb.declare_function("main", 0);
        let mut fb = mb.function(f);
        let base = fb.global_addr(g);
        // Four loads and a store of one line, then a load of another line.
        let _ = fb.load(base, 0);
        let _ = fb.load(base, 8);
        let _ = fb.load(base, 16);
        let _ = fb.load(base, 24);
        fb.store(1i64, base, 32);
        let _ = fb.load(base, 128);
        fb.ret(None);
        mb.set_entry(f);
        let m = mb.finish();

        let mut vm = Vm::new(&m, VmConfig::default());
        let mut t = Counting::default();
        let r = vm.run(&[], &mut t, &mut NullRuntime).expect("run");
        assert_eq!(r.loads, 5);
        assert_eq!(r.stores, 1);
        assert_eq!(r.fastpath_load_hits, 4, "same-line loads and stores batch");
        assert_eq!(t.accesses, 2, "only line-changing accesses reach the model");
        assert_eq!(t.noted, 4, "batched repeats are settled");
        assert_eq!(t.accesses + t.noted, r.loads + r.stores, "no access lost");
    }

    #[test]
    fn fast_path_flushes_before_stores_and_prefetches() {
        #[derive(Default)]
        struct Ordered {
            events: Vec<(char, u64)>,
        }
        impl MemoryTiming for Ordered {
            fn access(&mut self, a: u64, _c: u64, k: AccessKind) -> u64 {
                self.events.push((
                    match k {
                        AccessKind::Load => 'l',
                        AccessKind::Store => 's',
                    },
                    a,
                ));
                0
            }
            fn prefetch(&mut self, a: u64, _c: u64) {
                self.events.push(('p', a));
            }
            fn repeat_line_size(&self) -> Option<u64> {
                Some(64)
            }
            fn note_line_repeats(&mut self, addr: u64, n: u64) {
                self.events.push(('r', addr));
                self.events.push(('n', n));
            }
        }

        let mut mb = ModuleBuilder::new();
        let g = mb.add_global("buf", 256);
        let f = mb.declare_function("main", 0);
        let mut fb = mb.function(f);
        let base = fb.global_addr(g);
        let _ = fb.load(base, 0);
        let _ = fb.load(base, 8); // pending repeat
        fb.store(1i64, base, 128); // different line: must flush first
        let _ = fb.load(base, 136); // store's line is MRU: repeat
        fb.prefetch(base, 192); // must flush before the prefetch
        fb.ret(None);
        mb.set_entry(f);
        let m = mb.finish();

        let mut vm = Vm::new(&m, VmConfig::default());
        let mut t = Ordered::default();
        vm.run(&[], &mut t, &mut NullRuntime).expect("run");
        let tags: Vec<char> = t.events.iter().map(|e| e.0).collect();
        assert_eq!(tags, vec!['l', 'r', 'n', 's', 'r', 'n', 'p']);
    }

    #[test]
    fn free_and_reuse_through_vm() {
        let mut mb = ModuleBuilder::new();
        let f = mb.declare_function("main", 0);
        let mut fb = mb.function(f);
        let a = fb.alloc(32i64);
        fb.free(a);
        let b = fb.alloc(32i64);
        let same = fb.cmp(CmpOp::Eq, a, b);
        fb.ret(Some(Operand::Reg(same)));
        mb.set_entry(f);
        let m = mb.finish();
        assert_eq!(run_entry(&m, &[]).return_value, Some(1));
    }
}
