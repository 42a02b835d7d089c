//! IR interpreter and simulated machine for the stride-prefetch
//! reproduction.
//!
//! The paper evaluates on a real 733 MHz Itanium; this crate is the
//! substitute substrate: it executes [`stride_ir`] modules over a sparse
//! simulated memory, charging cycles from a latency [`CostModel`], a
//! pluggable [`MemoryTiming`] (the cache hierarchy lives in
//! `stride-memsim`), and a pluggable [`ProfilingRuntime`] (the
//! instrumentation runtime lives in `stride-profiling`). Speedup and
//! overhead figures are ratios of the produced cycle counts.
//!
//! # Example
//!
//! ```
//! use stride_ir::{ModuleBuilder, Operand};
//! use stride_vm::{FlatTiming, NullRuntime, Vm, VmConfig};
//!
//! let mut mb = ModuleBuilder::new();
//! let f = mb.declare_function("main", 1);
//! let mut fb = mb.function(f);
//! let doubled = fb.add(fb.param(0), fb.param(0));
//! fb.ret(Some(Operand::Reg(doubled)));
//! mb.set_entry(f);
//! let module = mb.finish();
//!
//! let mut vm = Vm::new(&module, VmConfig::default());
//! let result = vm.run(&[21], &mut FlatTiming, &mut NullRuntime)?;
//! assert_eq!(result.return_value, Some(42));
//! # Ok::<(), stride_vm::VmError>(())
//! ```

pub mod cost;
pub mod interp;
mod lower;
pub mod memory;
pub mod selfprof;
pub mod trace;

pub use cost::CostModel;
pub use interp::{
    AccessKind, FlatTiming, MemoryTiming, NullRuntime, ProfilingRuntime, RunResult, Vm, VmConfig,
    VmError,
};
pub use memory::{layout_globals, Heap, Memory, GLOBAL_BASE, HEAP_BASE};
pub use trace::{TraceEvent, TraceKind, Tracer};
