//! Structural IR validation.
//!
//! The verifier catches the mistakes builders and passes can realistically
//! make: dangling block targets, out-of-range registers, duplicate
//! instruction ids, malformed calls, and `CondBr` with identical targets
//! (which would make CFG edges ambiguous).

use crate::function::{Function, Module};
use crate::instr::{Op, Operand, Terminator};
use crate::types::{BlockId, FuncId, InstrId};
use std::collections::HashSet;
use std::error::Error;
use std::fmt;

/// A structural defect found by [`verify_module`] or [`verify_function`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum VerifyError {
    /// A terminator targets a block id outside the function.
    DanglingBlock {
        func: String,
        block: BlockId,
        target: BlockId,
    },
    /// An instruction reads or writes a register `>= num_regs`.
    RegOutOfRange {
        func: String,
        instr: InstrId,
        reg: u32,
    },
    /// Two instructions carry the same id.
    DuplicateInstrId { func: String, instr: InstrId },
    /// An instruction id is `>= next_instr`, so a fresh id could collide.
    InstrIdNotReserved { func: String, instr: InstrId },
    /// A `CondBr` has identical targets.
    CondBrSameTarget { func: String, block: BlockId },
    /// A call references a function id outside the module.
    UnknownCallee { func: String, callee: FuncId },
    /// A call passes the wrong number of arguments.
    BadArity {
        func: String,
        callee: FuncId,
        expected: u32,
        got: usize,
    },
    /// An instruction references a global id outside the module.
    UnknownGlobal { func: String, instr: InstrId },
    /// The module entry function id is out of range.
    BadEntry { entry: FuncId },
    /// The function entry block id is out of range.
    BadEntryBlock { func: String, entry: BlockId },
    /// A block's recorded id does not match its index.
    MisnumberedBlock { func: String, index: usize },
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VerifyError::DanglingBlock {
                func,
                block,
                target,
            } => write!(f, "{func}: {block} branches to nonexistent {target}"),
            VerifyError::RegOutOfRange { func, instr, reg } => {
                write!(f, "{func}: {instr} uses out-of-range register r{reg}")
            }
            VerifyError::DuplicateInstrId { func, instr } => {
                write!(f, "{func}: duplicate instruction id {instr}")
            }
            VerifyError::InstrIdNotReserved { func, instr } => {
                write!(f, "{func}: instruction id {instr} >= next_instr")
            }
            VerifyError::CondBrSameTarget { func, block } => {
                write!(f, "{func}: {block} has a cond_br with identical targets")
            }
            VerifyError::UnknownCallee { func, callee } => {
                write!(f, "{func}: call to nonexistent {callee}")
            }
            VerifyError::BadArity {
                func,
                callee,
                expected,
                got,
            } => write!(
                f,
                "{func}: call to {callee} passes {got} args, expected {expected}"
            ),
            VerifyError::UnknownGlobal { func, instr } => {
                write!(f, "{func}: {instr} references nonexistent global")
            }
            VerifyError::BadEntry { entry } => write!(f, "module entry {entry} out of range"),
            VerifyError::BadEntryBlock { func, entry } => {
                write!(f, "{func}: entry block {entry} out of range")
            }
            VerifyError::MisnumberedBlock { func, index } => {
                write!(f, "{func}: block at index {index} has mismatched id")
            }
        }
    }
}

impl Error for VerifyError {}

/// Verifies one function against `module` (for call/global references).
pub fn verify_function(module: &Module, func: &Function) -> Result<(), VerifyError> {
    let name = &func.name;
    let nblocks = func.blocks.len();
    if func.entry.index() >= nblocks {
        return Err(VerifyError::BadEntryBlock {
            func: name.clone(),
            entry: func.entry,
        });
    }
    let mut seen_ids: HashSet<InstrId> = HashSet::new();
    for (index, block) in func.blocks.iter().enumerate() {
        if block.id.index() != index {
            return Err(VerifyError::MisnumberedBlock {
                func: name.clone(),
                index,
            });
        }
        for instr in &block.instrs {
            if !seen_ids.insert(instr.id) {
                return Err(VerifyError::DuplicateInstrId {
                    func: name.clone(),
                    instr: instr.id,
                });
            }
            if instr.id.0 >= func.next_instr {
                return Err(VerifyError::InstrIdNotReserved {
                    func: name.clone(),
                    instr: instr.id,
                });
            }
            let mut bad_reg: Option<u32> = None;
            let mut check = |r: u32| {
                if r >= func.num_regs && bad_reg.is_none() {
                    bad_reg = Some(r);
                }
            };
            if let Some(p) = instr.pred {
                check(p.0);
            }
            if let Some(d) = instr.def() {
                check(d.0);
            }
            instr.op.for_each_use(|o| {
                if let Operand::Reg(r) = o {
                    check(r.0);
                }
            });
            if let Some(reg) = bad_reg {
                return Err(VerifyError::RegOutOfRange {
                    func: name.clone(),
                    instr: instr.id,
                    reg,
                });
            }
            match &instr.op {
                Op::Call { callee, args, .. } => {
                    let Some(cf) = module.functions.get(callee.index()) else {
                        return Err(VerifyError::UnknownCallee {
                            func: name.clone(),
                            callee: *callee,
                        });
                    };
                    if args.len() != cf.num_params as usize {
                        return Err(VerifyError::BadArity {
                            func: name.clone(),
                            callee: *callee,
                            expected: cf.num_params,
                            got: args.len(),
                        });
                    }
                }
                Op::GlobalAddr { global, .. } if global.index() >= module.globals.len() => {
                    return Err(VerifyError::UnknownGlobal {
                        func: name.clone(),
                        instr: instr.id,
                    });
                }
                _ => {}
            }
        }
        match &block.term {
            Terminator::CondBr { then_, else_, .. } if then_ == else_ => {
                return Err(VerifyError::CondBrSameTarget {
                    func: name.clone(),
                    block: block.id,
                });
            }
            term => {
                for t in term.successors() {
                    if t.index() >= nblocks {
                        return Err(VerifyError::DanglingBlock {
                            func: name.clone(),
                            block: block.id,
                            target: t,
                        });
                    }
                }
                if let Terminator::CondBr {
                    cond: Operand::Reg(r),
                    ..
                } = term
                {
                    if r.0 >= func.num_regs {
                        return Err(VerifyError::RegOutOfRange {
                            func: name.clone(),
                            instr: InstrId::new(u32::MAX),
                            reg: r.0,
                        });
                    }
                }
            }
        }
    }
    Ok(())
}

/// Verifies every function of `module` plus the module entry point.
///
/// # Errors
///
/// Returns the first defect found.
pub fn verify_module(module: &Module) -> Result<(), VerifyError> {
    if module.entry.index() >= module.functions.len() {
        return Err(VerifyError::BadEntry {
            entry: module.entry,
        });
    }
    for func in &module.functions {
        verify_function(module, func)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ModuleBuilder;
    use crate::instr::Instr;
    use crate::types::Reg;

    fn valid_module() -> Module {
        let mut mb = ModuleBuilder::new();
        let callee = mb.declare_function("callee", 1);
        {
            let mut fb = mb.function(callee);
            let p = fb.param(0);
            fb.ret(Some(Operand::Reg(p)));
        }
        let main = mb.declare_function("main", 0);
        {
            let mut fb = mb.function(main);
            let x = fb.const_(3);
            let y = fb.call(callee, &[Operand::Reg(x)]);
            fb.ret(Some(Operand::Reg(y)));
        }
        mb.set_entry(main);
        mb.finish()
    }

    #[test]
    fn valid_module_verifies() {
        assert_eq!(verify_module(&valid_module()), Ok(()));
    }

    #[test]
    fn detects_dangling_block() {
        let mut m = valid_module();
        m.functions[1].blocks[0].term = Terminator::Br {
            target: BlockId::new(99),
        };
        assert!(matches!(
            verify_module(&m),
            Err(VerifyError::DanglingBlock { .. })
        ));
    }

    #[test]
    fn detects_reg_out_of_range() {
        let mut m = valid_module();
        let f = &mut m.functions[1];
        let id = f.new_instr_id();
        f.blocks[0].instrs.push(Instr {
            id,
            pred: None,
            op: Op::Mov {
                dst: Reg::new(500),
                src: Operand::Imm(0),
            },
        });
        assert!(matches!(
            verify_module(&m),
            Err(VerifyError::RegOutOfRange { reg: 500, .. })
        ));
    }

    #[test]
    fn detects_duplicate_instr_id() {
        let mut m = valid_module();
        let f = &mut m.functions[1];
        let existing = f.blocks[0].instrs[0].clone();
        f.blocks[0].instrs.push(existing);
        assert!(matches!(
            verify_module(&m),
            Err(VerifyError::DuplicateInstrId { .. })
        ));
    }

    #[test]
    fn detects_unreserved_instr_id() {
        let mut m = valid_module();
        let f = &mut m.functions[1];
        f.blocks[0].instrs.push(Instr {
            id: InstrId::new(1000),
            pred: None,
            op: Op::Const {
                dst: Reg::new(0),
                value: 0,
            },
        });
        assert!(matches!(
            verify_module(&m),
            Err(VerifyError::InstrIdNotReserved { .. })
        ));
    }

    #[test]
    fn detects_bad_arity() {
        let mut m = valid_module();
        let f = &mut m.functions[1];
        let id = f.new_instr_id();
        f.blocks[0].instrs.push(Instr {
            id,
            pred: None,
            op: Op::Call {
                dst: None,
                callee: FuncId::new(0),
                args: vec![],
            },
        });
        assert!(matches!(
            verify_module(&m),
            Err(VerifyError::BadArity { expected: 1, .. })
        ));
    }

    #[test]
    fn detects_unknown_callee_and_global() {
        let mut m = valid_module();
        let f = &mut m.functions[1];
        let id = f.new_instr_id();
        f.blocks[0].instrs.push(Instr {
            id,
            pred: None,
            op: Op::Call {
                dst: None,
                callee: FuncId::new(42),
                args: vec![],
            },
        });
        assert!(matches!(
            verify_module(&m),
            Err(VerifyError::UnknownCallee { .. })
        ));

        let mut m = valid_module();
        let f = &mut m.functions[1];
        let id = f.new_instr_id();
        let r = f.new_reg();
        f.blocks[0].instrs.push(Instr {
            id,
            pred: None,
            op: Op::GlobalAddr {
                dst: r,
                global: crate::types::GlobalId::new(7),
            },
        });
        assert!(matches!(
            verify_module(&m),
            Err(VerifyError::UnknownGlobal { .. })
        ));
    }

    #[test]
    fn detects_bad_entry() {
        let mut m = valid_module();
        m.entry = FuncId::new(9);
        assert!(matches!(
            verify_module(&m),
            Err(VerifyError::BadEntry { .. })
        ));
    }

    #[test]
    fn error_display_is_informative() {
        let e = VerifyError::BadArity {
            func: "main".into(),
            callee: FuncId::new(0),
            expected: 1,
            got: 0,
        };
        let s = e.to_string();
        assert!(s.contains("main") && s.contains("fn0"));
    }
}
