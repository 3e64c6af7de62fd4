//! Textual IR printing. The output is parseable by [`crate::parser`] —
//! `parse(print(p))` round-trips every construct.

use crate::instr::Instr;
use crate::module::{FuncKind, Program};
use crate::types::TypeId;
use std::fmt::{self, Display, Write as _};

/// Render a whole program in the textual IR syntax.
pub fn print_program(p: &Program) -> String {
    let mut out = String::new();
    write_program(&mut out, p).expect("writing to a String cannot fail");
    out
}

/// Render a single instruction.
pub fn print_instr(p: &Program, ins: &Instr) -> String {
    let mut out = String::new();
    write_instr(&mut out, p, ins).expect("writing to a String cannot fail");
    out
}

fn write_program(out: &mut String, p: &Program) -> fmt::Result {
    for rid in p.types.record_ids() {
        let rec = p.types.record(rid);
        write!(out, "record {} {{ ", rec.name)?;
        for (i, f) in rec.fields.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            write!(out, "{}: {}", f.name, ty(p, f.ty))?;
            if let Some(w) = f.bit_width {
                write!(out, ":{w}")?;
            }
        }
        out.push_str(" }\n");
    }
    if p.types.num_records() > 0 {
        out.push('\n');
    }

    for gid in p.global_ids() {
        let g = p.global(gid);
        writeln!(out, "global {}: {}", g.name, ty(p, g.ty))?;
    }
    if !p.globals.is_empty() {
        out.push('\n');
    }

    for fid in p.func_ids() {
        let f = p.func(fid);
        match f.kind {
            FuncKind::External => out.push_str("extern "),
            FuncKind::Libc => out.push_str("libc "),
            FuncKind::Defined => {}
        }
        write!(out, "func {}(", f.name)?;
        write_list(out, f.params.iter().map(|(_, t)| ty(p, *t)))?;
        write!(out, ") -> {}", ty(p, f.ret))?;
        if f.kind != FuncKind::Defined {
            out.push('\n');
            continue;
        }
        out.push_str(" {\n");
        for bid in f.block_ids() {
            writeln!(out, "{bid}:")?;
            for ins in &f.block(bid).instrs {
                out.push_str("  ");
                write_instr(out, p, ins)?;
                out.push('\n');
            }
        }
        out.push_str("}\n\n");
    }
    Ok(())
}

fn ty(p: &Program, t: TypeId) -> impl Display + '_ {
    p.types.fmt_type(t)
}

/// Write `items` separated by `, `.
fn write_list(out: &mut String, items: impl IntoIterator<Item = impl Display>) -> fmt::Result {
    for (i, x) in items.into_iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        write!(out, "{x}")?;
    }
    Ok(())
}

fn write_instr(out: &mut String, p: &Program, ins: &Instr) -> fmt::Result {
    match ins {
        Instr::Assign { dst, src } => write!(out, "{dst} = {src}"),
        Instr::Bin { dst, op, lhs, rhs } => write!(out, "{dst} = {} {lhs}, {rhs}", op.name()),
        Instr::Cmp { dst, op, lhs, rhs } => {
            write!(out, "{dst} = cmp.{} {lhs}, {rhs}", op.name())
        }
        Instr::Cast { dst, src, from, to } => {
            write!(
                out,
                "{dst} = cast {src} : {} -> {}",
                ty(p, *from),
                ty(p, *to)
            )
        }
        Instr::FieldAddr {
            dst,
            base,
            record,
            field,
        } => {
            let rec = p.types.record(*record);
            write!(
                out,
                "{dst} = fieldaddr {base}, {}.{}",
                rec.name, rec.fields[*field as usize].name
            )
        }
        Instr::IndexAddr {
            dst,
            base,
            elem,
            index,
        } => write!(out, "{dst} = indexaddr {base}, {}, {index}", ty(p, *elem)),
        Instr::Load { dst, addr, ty: t } => write!(out, "{dst} = load {addr} : {}", ty(p, *t)),
        Instr::Store { addr, value, ty: t } => {
            write!(out, "store {value}, {addr} : {}", ty(p, *t))
        }
        Instr::LoadGlobal { dst, global } => {
            write!(out, "{dst} = gload {}", p.global(*global).name)
        }
        Instr::StoreGlobal { global, value } => {
            write!(out, "gstore {value}, {}", p.global(*global).name)
        }
        Instr::AddrOfGlobal { dst, global } => {
            write!(out, "{dst} = gaddr {}", p.global(*global).name)
        }
        Instr::Alloc {
            dst,
            elem,
            count,
            zeroed,
        } => {
            let op = if *zeroed { "zalloc" } else { "alloc" };
            write!(out, "{dst} = {op} {}, {count}", ty(p, *elem))
        }
        Instr::Free { ptr } => write!(out, "free {ptr}"),
        Instr::Realloc {
            dst,
            ptr,
            elem,
            count,
        } => write!(out, "{dst} = realloc {ptr}, {}, {count}", ty(p, *elem)),
        Instr::Memcpy { dst, src, bytes } => write!(out, "memcpy {dst}, {src}, {bytes}"),
        Instr::Memset { dst, val, bytes } => write!(out, "memset {dst}, {val}, {bytes}"),
        Instr::Call { dst, callee, args } => {
            if let Some(d) = dst {
                write!(out, "{d} = ")?;
            }
            write!(out, "call {}(", p.func(*callee).name)?;
            write_list(out, args)?;
            out.push(')');
            Ok(())
        }
        Instr::CallIndirect {
            dst,
            target,
            args,
            arg_types,
        } => {
            if let Some(d) = dst {
                write!(out, "{d} = ")?;
            }
            write!(out, "icall {target}(")?;
            write_list(out, args)?;
            out.push_str(") : (");
            write_list(out, arg_types.iter().map(|t| ty(p, *t)))?;
            out.push(')');
            Ok(())
        }
        Instr::FuncAddr { dst, func } => write!(out, "{dst} = fnaddr {}", p.func(*func).name),
        Instr::Jump { target } => write!(out, "jump {target}"),
        Instr::Branch {
            cond,
            then_bb,
            else_bb,
        } => write!(out, "br {cond}, {then_bb}, {else_bb}"),
        Instr::Return { value } => match value {
            Some(v) => write!(out, "ret {v}"),
            None => write!(out, "ret"),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ProgramBuilder;
    use crate::instr::Operand;
    use crate::types::{Field, ScalarKind};

    #[test]
    fn prints_records_and_globals() {
        let mut pb = ProgramBuilder::new();
        let i64t = pb.scalar(ScalarKind::I64);
        let u32t = pb.scalar(ScalarKind::U32);
        let (_, rty) = pb.record(
            "node",
            vec![Field::new("v", i64t), Field::bitfield("flags", u32t, 3)],
        );
        let pnode = pb.ptr(rty);
        pb.global("P", pnode);
        let p = pb.finish();
        let s = print_program(&p);
        assert!(s.contains("record node { v: i64, flags: u32:3 }"));
        assert!(s.contains("global P: ptr<node>"));
    }

    #[test]
    fn prints_function_body() {
        let mut pb = ProgramBuilder::new();
        let i64t = pb.scalar(ScalarKind::I64);
        let (rid, rty) = pb.record("pair", vec![Field::new("a", i64t)]);
        let f = pb.declare("main", vec![], i64t);
        pb.define(f, |fb| {
            let x = fb.alloc(rty, Operand::int(8));
            let a = fb.field_addr(x.into(), rid, 0);
            let v = fb.load(a.into(), i64t);
            fb.ret(Some(v.into()));
        });
        let p = pb.finish();
        let s = print_program(&p);
        assert!(s.contains("func main() -> i64 {"));
        assert!(s.contains("r0 = alloc pair, 8"));
        assert!(s.contains("r1 = fieldaddr r0, pair.a"));
        assert!(s.contains("r2 = load r1 : i64"));
        assert!(s.contains("ret r2"));
    }

    #[test]
    fn prints_extern_and_libc() {
        let mut pb = ProgramBuilder::new();
        let i64t = pb.scalar(ScalarKind::I64);
        let void = pb.void();
        pb.external("mystery", vec![i64t], void);
        pb.libc("fwrite", vec![i64t], i64t);
        let p = pb.finish();
        let s = print_program(&p);
        assert!(s.contains("extern func mystery(i64) -> void"));
        assert!(s.contains("libc func fwrite(i64) -> i64"));
    }

    #[test]
    fn prints_control_flow() {
        let mut pb = ProgramBuilder::new();
        let i64t = pb.scalar(ScalarKind::I64);
        let f = pb.declare("f", vec![], i64t);
        pb.define(f, |fb| {
            fb.count_loop(Operand::int(2), |fb, _| {
                fb.iconst(0);
            });
            fb.ret(Some(Operand::int(0)));
        });
        let p = pb.finish();
        let s = print_program(&p);
        assert!(s.contains("jump bb1"));
        assert!(s.contains("br r1, bb2, bb3"));
    }
}
