//! Textual IR printing. The output is parseable by [`crate::parser`] —
//! `parse(print(p))` round-trips every construct.
//!
//! The printer pushes `&str` pieces onto one `String` and spells
//! registers, block labels and integers with its own digit writer; only
//! float constants go through `core::fmt`, for their `{:?}` spelling.

use crate::instr::{BlockId, Const, Instr, Operand, Reg};
use crate::module::{FuncKind, Program};
use crate::types::TypeId;
use std::fmt::Write as _;

/// Render a whole program in the textual IR syntax.
pub fn print_program(p: &Program) -> String {
    let mut out = String::new();
    write_program(&mut Out { s: &mut out, p });
    out
}

/// Render a single instruction.
pub fn print_instr(p: &Program, ins: &Instr) -> String {
    let mut out = String::new();
    write_instr(&mut Out { s: &mut out, p }, ins);
    out
}

/// The decimal digits of `v`, written into the back of `buf`.
pub(crate) fn digits(mut v: u64, buf: &mut [u8; 20]) -> &str {
    let mut i = buf.len();
    loop {
        i -= 1;
        buf[i] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    std::str::from_utf8(&buf[i..]).expect("ASCII digits")
}

/// The output `String` and the program whose names it spells. Every
/// method appends and returns `self`, so a line reads in output order.
struct Out<'a> {
    s: &'a mut String,
    p: &'a Program,
}

impl Out<'_> {
    fn str(&mut self, piece: &str) -> &mut Self {
        self.s.push_str(piece);
        self
    }

    fn num(&mut self, v: u64) -> &mut Self {
        self.str(digits(v, &mut [0; 20]))
    }

    fn reg(&mut self, r: Reg) -> &mut Self {
        self.str("r").num(r.0.into())
    }

    fn block(&mut self, b: BlockId) -> &mut Self {
        self.str("bb").num(b.0.into())
    }

    /// `rD = mnemonic `: the head of an instruction that defines `dst`.
    fn def(&mut self, dst: Reg, mnemonic: &str) -> &mut Self {
        self.reg(dst).str(" = ").str(mnemonic).str(" ")
    }

    fn op(&mut self, op: &Operand) -> &mut Self {
        match op {
            Operand::Reg(r) => self.reg(*r),
            Operand::Const(Const::Int(v)) => {
                if *v < 0 {
                    self.str("-");
                }
                self.num(v.unsigned_abs())
            }
            Operand::Const(Const::Float(v)) => {
                write!(self.s, "{v:?}").expect("writing to a String cannot fail");
                self
            }
            Operand::Const(Const::Null) => self.str("null"),
        }
    }

    fn ty(&mut self, t: TypeId) -> &mut Self {
        self.p
            .types
            .write_type(self.s, t)
            .expect("writing to a String cannot fail");
        self
    }

    /// Write `items` separated by `, `.
    fn list<T>(
        &mut self,
        items: impl IntoIterator<Item = T>,
        mut each: impl FnMut(&mut Self, T),
    ) -> &mut Self {
        for (i, x) in items.into_iter().enumerate() {
            if i > 0 {
                self.str(", ");
            }
            each(self, x);
        }
        self
    }

    fn ops<'i>(&mut self, ops: impl IntoIterator<Item = &'i Operand>) -> &mut Self {
        self.list(ops, |o, op| {
            o.op(op);
        })
    }

    fn tys<'i>(&mut self, tys: impl IntoIterator<Item = &'i TypeId>) -> &mut Self {
        self.list(tys, |o, t| {
            o.ty(*t);
        })
    }
}

fn write_program(o: &mut Out<'_>) {
    let p = o.p;
    for rid in p.types.record_ids() {
        let rec = p.types.record(rid);
        o.str("record ").str(&rec.name).str(" { ");
        o.list(&rec.fields, |o, f| {
            o.str(&f.name).str(": ").ty(f.ty);
            if let Some(w) = f.bit_width {
                o.str(":").num(w.into());
            }
        });
        o.str(" }\n");
    }
    if p.types.num_records() > 0 {
        o.str("\n");
    }

    for gid in p.global_ids() {
        let g = p.global(gid);
        o.str("global ").str(&g.name).str(": ").ty(g.ty).str("\n");
    }
    if !p.globals.is_empty() {
        o.str("\n");
    }

    for fid in p.func_ids() {
        let f = p.func(fid);
        match f.kind {
            FuncKind::External => o.str("extern "),
            FuncKind::Libc => o.str("libc "),
            FuncKind::Defined => o,
        };
        o.str("func ").str(&f.name).str("(");
        o.tys(f.params.iter().map(|(_, t)| t));
        o.str(") -> ").ty(f.ret);
        if f.kind != FuncKind::Defined {
            o.str("\n");
            continue;
        }
        o.str(" {\n");
        for bid in f.block_ids() {
            o.block(bid).str(":\n");
            for ins in &f.block(bid).instrs {
                o.str("  ");
                write_instr(o, ins);
                o.str("\n");
            }
        }
        o.str("}\n\n");
    }
}

fn write_instr(o: &mut Out<'_>, ins: &Instr) {
    let p = o.p;
    match ins {
        Instr::Assign { dst, src } => o.reg(*dst).str(" = ").op(src),
        Instr::Bin { dst, op, lhs, rhs } => o.def(*dst, op.name()).ops([lhs, rhs]),
        Instr::Cmp { dst, op, lhs, rhs } => {
            o.reg(*dst).str(" = cmp.").str(op.name());
            o.str(" ").ops([lhs, rhs])
        }
        Instr::Cast { dst, src, from, to } => {
            o.def(*dst, "cast").op(src).str(" : ").ty(*from);
            o.str(" -> ").ty(*to)
        }
        Instr::FieldAddr {
            dst,
            base,
            record,
            field,
        } => {
            let rec = p.types.record(*record);
            o.def(*dst, "fieldaddr").op(base).str(", ").str(&rec.name);
            o.str(".").str(&rec.fields[*field as usize].name)
        }
        Instr::IndexAddr {
            dst,
            base,
            elem,
            index,
        } => {
            o.def(*dst, "indexaddr").op(base).str(", ").ty(*elem);
            o.str(", ").op(index)
        }
        Instr::Load { dst, addr, ty } => o.def(*dst, "load").op(addr).str(" : ").ty(*ty),
        Instr::Store { addr, value, ty } => o.str("store ").ops([value, addr]).str(" : ").ty(*ty),
        Instr::LoadGlobal { dst, global } => o.def(*dst, "gload").str(&p.global(*global).name),
        Instr::StoreGlobal { global, value } => {
            o.str("gstore ").op(value).str(", ");
            o.str(&p.global(*global).name)
        }
        Instr::AddrOfGlobal { dst, global } => o.def(*dst, "gaddr").str(&p.global(*global).name),
        Instr::Alloc {
            dst,
            elem,
            count,
            zeroed,
        } => {
            o.def(*dst, if *zeroed { "zalloc" } else { "alloc" });
            o.ty(*elem).str(", ").op(count)
        }
        Instr::Free { ptr } => o.str("free ").op(ptr),
        Instr::Realloc {
            dst,
            ptr,
            elem,
            count,
        } => {
            o.def(*dst, "realloc").op(ptr).str(", ").ty(*elem);
            o.str(", ").op(count)
        }
        Instr::Memcpy { dst, src, bytes } => o.str("memcpy ").ops([dst, src, bytes]),
        Instr::Memset { dst, val, bytes } => o.str("memset ").ops([dst, val, bytes]),
        Instr::Call { dst, callee, args } => {
            if let Some(d) = dst {
                o.reg(*d).str(" = ");
            }
            o.str("call ").str(&p.func(*callee).name).str("(");
            o.ops(args).str(")")
        }
        Instr::CallIndirect {
            dst,
            target,
            args,
            arg_types,
        } => {
            if let Some(d) = dst {
                o.reg(*d).str(" = ");
            }
            o.str("icall ").op(target).str("(").ops(args);
            o.str(") : (").tys(arg_types).str(")")
        }
        Instr::FuncAddr { dst, func } => o.def(*dst, "fnaddr").str(&p.func(*func).name),
        Instr::Jump { target } => o.str("jump ").block(*target),
        Instr::Branch {
            cond,
            then_bb,
            else_bb,
        } => {
            o.str("br ").op(cond).str(", ").block(*then_bb);
            o.str(", ").block(*else_bb)
        }
        Instr::Return { value: Some(v) } => o.str("ret ").op(v),
        Instr::Return { value: None } => o.str("ret"),
    };
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
