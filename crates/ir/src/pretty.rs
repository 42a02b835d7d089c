//! Textual IR printer for debugging and golden tests.

use crate::function::{Function, Module};
use crate::instr::{Instr, Op, Terminator};
use std::fmt::Write as _;

/// Renders one instruction as a line of text (without indentation).
pub fn instr_to_string(instr: &Instr) -> String {
    let mut s = String::new();
    if let Some(p) = instr.pred {
        let _ = write!(s, "({p}) ? ");
    }
    match &instr.op {
        Op::Const { dst, value } => {
            let _ = write!(s, "{dst} = const {value}");
        }
        Op::Mov { dst, src } => {
            let _ = write!(s, "{dst} = mov {src}");
        }
        Op::Bin { dst, op, lhs, rhs } => {
            let _ = write!(s, "{dst} = {op} {lhs}, {rhs}");
        }
        Op::Cmp { dst, op, lhs, rhs } => {
            let _ = write!(s, "{dst} = cmp.{op} {lhs}, {rhs}");
        }
        Op::Select {
            dst,
            cond,
            on_true,
            on_false,
        } => {
            let _ = write!(s, "{dst} = select {cond}, {on_true}, {on_false}");
        }
        Op::Load { dst, addr, offset } => {
            let _ = write!(s, "{dst} = load [{addr} + {offset}]");
        }
        Op::Store {
            value,
            addr,
            offset,
        } => {
            let _ = write!(s, "store {value}, [{addr} + {offset}]");
        }
        Op::Prefetch { addr, offset } => {
            let _ = write!(s, "prefetch [{addr} + {offset}]");
        }
        Op::Alloc { dst, size } => {
            let _ = write!(s, "{dst} = alloc {size}");
        }
        Op::Free { addr } => {
            let _ = write!(s, "free {addr}");
        }
        Op::GlobalAddr { dst, global } => {
            let _ = write!(s, "{dst} = globaladdr {global}");
        }
        Op::Call { dst, callee, args } => {
            if let Some(d) = dst {
                let _ = write!(s, "{d} = ");
            }
            let _ = write!(s, "call {callee}(");
            for (i, a) in args.iter().enumerate() {
                if i > 0 {
                    let _ = write!(s, ", ");
                }
                let _ = write!(s, "{a}");
            }
            let _ = write!(s, ")");
        }
        Op::ProfileEdge { edge } => {
            let _ = write!(s, "profile_edge {edge}");
        }
        Op::TripCountCheck {
            dst,
            header,
            incoming,
            outgoing,
            shift,
        } => {
            let fmt_edges = |edges: &[crate::types::EdgeId]| {
                edges
                    .iter()
                    .map(|e| e.to_string())
                    .collect::<Vec<_>>()
                    .join(",")
            };
            let _ = write!(
                s,
                "{dst} = trip_check header={header} in=[{}] out=[{}] shift={shift}",
                fmt_edges(incoming),
                fmt_edges(outgoing)
            );
        }
        Op::ProfileStride {
            site,
            addr,
            offset,
            slot,
        } => {
            let _ = write!(s, "stride_prof site={site} [{addr} + {offset}] slot={slot}");
        }
    }
    let _ = write!(s, "    ; {}", instr.id);
    s
}

/// Renders a terminator as a line of text.
pub fn term_to_string(term: &Terminator) -> String {
    match term {
        Terminator::Br { target } => format!("br {target}"),
        Terminator::CondBr { cond, then_, else_ } => {
            format!("condbr {cond}, {then_}, {else_}")
        }
        Terminator::Ret { value: Some(v) } => format!("ret {v}"),
        Terminator::Ret { value: None } => "ret".to_string(),
    }
}

/// Renders a whole function.
pub fn function_to_string(func: &Function) -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "func {} {}(params={}, regs={}) entry={} {{",
        func.id, func.name, func.num_params, func.num_regs, func.entry
    );
    for block in &func.blocks {
        let _ = writeln!(s, "{}:", block.id);
        for instr in &block.instrs {
            let _ = writeln!(s, "    {}", instr_to_string(instr));
        }
        let _ = writeln!(s, "    {}", term_to_string(&block.term));
    }
    let _ = writeln!(s, "}}");
    s
}

/// Renders a whole module.
pub fn module_to_string(module: &Module) -> String {
    let mut s = String::new();
    for g in &module.globals {
        let _ = writeln!(s, "global {} {} size={}", g.id, g.name, g.size);
    }
    let _ = writeln!(s, "entry {}", module.entry);
    for f in &module.functions {
        s.push_str(&function_to_string(f));
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ModuleBuilder;
    use crate::instr::Operand;

    #[test]
    fn prints_a_small_module() {
        let mut mb = ModuleBuilder::new();
        let g = mb.add_global("table", 256);
        let f = mb.declare_function("main", 0);
        let mut fb = mb.function(f);
        let base = fb.global_addr(g);
        let (v, _) = fb.load(base, 8);
        fb.prefetch(base, 72);
        fb.ret(Some(Operand::Reg(v)));
        mb.set_entry(f);
        let m = mb.finish();
        let text = module_to_string(&m);
        assert!(text.contains("global g0 table size=256"));
        assert!(text.contains("entry fn0"));
        assert!(text.contains("= load [r0 + 8]"));
        assert!(text.contains("prefetch [r0 + 72]"));
        assert!(text.contains("ret r1"));
    }

    #[test]
    fn prints_predicated_instruction() {
        let mut mb = ModuleBuilder::new();
        let f = mb.declare_function("main", 0);
        let mut fb = mb.function(f);
        let p = fb.const_(1);
        fb.emit_pred(
            p,
            crate::instr::Op::Prefetch {
                addr: Operand::Reg(p),
                offset: 0,
            },
        );
        let m = mb.finish();
        let text = function_to_string(m.function(f));
        assert!(text.contains("(r0) ? prefetch"));
    }

    #[test]
    fn prints_terminators() {
        assert_eq!(term_to_string(&Terminator::Ret { value: None }), "ret");
        assert_eq!(
            term_to_string(&Terminator::Br {
                target: crate::types::BlockId::new(2)
            }),
            "br b2"
        );
    }
}
