// Library code must degrade gracefully instead of panicking; unwrap and
// expect are allowed only under cfg(test).
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
//! Compiler intermediate representation for the stride-prefetch
//! reproduction (Wu, *Efficient Discovery of Regular Stride Patterns in
//! Irregular Programs and Its Use in Compiler Prefetching*, PLDI 2002).
//!
//! The paper's profiling and prefetching algorithms operate inside an
//! Itanium production compiler. This crate provides the substrate they
//! need: a CFG-based register-machine IR with
//!
//! * explicit loads/stores (base register + constant byte offset),
//! * a non-faulting `prefetch` instruction (Itanium `lfetch`),
//! * instruction-level predication (Itanium qualifying predicates),
//! * profiling pseudo-instructions standing in for the counter-update and
//!   `strideProf` call sequences the paper's instrumentation inserts,
//!
//! plus the analyses the passes consume: dominators and postdominators,
//! natural loops with irreducible-region marking, loop-invariance,
//! control-equivalence, and *equivalent load* grouping.
//!
//! # Example
//!
//! Build the pointer-chasing loop of Fig. 1 and find its loop and loads:
//!
//! ```
//! use stride_ir::{FuncAnalysis, ModuleBuilder};
//!
//! let mut mb = ModuleBuilder::new();
//! let f = mb.declare_function("chase", 1);
//! let mut fb = mb.function(f);
//! let p = fb.mov(fb.param(0));
//! fb.while_nonzero(p, |fb, p| {
//!     let (_string, _s2) = fb.load(p, 8); // use string_list->string
//!     fb.load_to(p, p, 0);                // string_list = string_list->next
//! });
//! fb.ret(None);
//! mb.set_entry(f);
//! let module = mb.finish();
//!
//! stride_ir::verify_module(&module)?;
//! let analysis = FuncAnalysis::compute(module.function(f));
//! assert_eq!(analysis.loops.loops().len(), 1);
//! assert_eq!(module.function(f).loads().len(), 2);
//! # Ok::<(), stride_ir::VerifyError>(())
//! ```

pub mod analysis;
pub mod builder;
pub mod cfg;
pub mod dom;
pub mod function;
pub mod instr;
pub mod loops;
pub mod parser;
pub mod pretty;
pub mod transform;
pub mod types;
pub mod verify;

pub use analysis::{
    equivalent_load_classes, is_loop_invariant, regs_defined_in_loop, EquivClass, FuncAnalysis,
};
pub use builder::{FunctionBuilder, ModuleBuilder};
pub use cfg::Cfg;
pub use dom::{DomTree, PostDomTree};
pub use function::{Block, Function, Global, Module};
pub use instr::{BinOp, CmpOp, Instr, Op, Operand, Terminator};
pub use loops::{Loop, LoopForest};
pub use parser::{instr_from_string, module_from_string, term_from_string, ParseError};
pub use pretty::{function_to_string, instr_to_string, module_to_string, term_to_string};
pub use transform::{ensure_preheader, insert_at_end, insert_at_front, insert_before, split_edge};
pub use types::{BlockId, EdgeId, FuncId, GlobalId, InstrId, LoopId, Reg};
pub use verify::{verify_function, verify_module, VerifyError};
