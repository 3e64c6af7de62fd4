//! Instructions, operands and constants.
//!
//! The IR is a register machine (not SSA): each function owns a flat space
//! of virtual registers written and read by instructions. Basic blocks end
//! in exactly one terminator. Memory is accessed through typed pointers;
//! structure fields are addressed with the explicit [`Instr::FieldAddr`]
//! instruction, which is what the structure-layout analyses key on.

use crate::types::{RecordId, TypeId};
use std::fmt;

/// A virtual register, local to a function.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Reg(pub u32);

impl fmt::Display for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

/// Handle to a basic block within a function.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BlockId(pub u32);

impl BlockId {
    /// The block's index into `Function::blocks`.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for BlockId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bb{}", self.0)
    }
}

/// Handle to a function within a program.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FuncId(pub u32);

impl FuncId {
    /// The function's index into `Program::funcs`.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for FuncId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "fn{}", self.0)
    }
}

/// Handle to a global variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct GlobalId(pub u32);

impl GlobalId {
    /// The global's index into `Program::globals`.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for GlobalId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "g{}", self.0)
    }
}

/// A stable address of an instruction: function, block, index-in-block.
///
/// Profile feedback and PMU samples are keyed by `InstrRef` so they can be
/// matched back to the IR (the paper's CFG-matching step).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct InstrRef {
    /// The owning function.
    pub func: FuncId,
    /// The owning block.
    pub block: BlockId,
    /// Index within the block's instruction list.
    pub index: u32,
}

impl fmt::Display for InstrRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}:{}", self.func, self.block, self.index)
    }
}

/// Compile-time constant values.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Const {
    /// Integer constant (any integer scalar kind).
    Int(i64),
    /// Floating constant.
    Float(f64),
    /// The null pointer.
    Null,
}

impl fmt::Display for Const {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Const::Int(v) => write!(f, "{v}"),
            Const::Float(v) => write!(f, "{v:?}"),
            Const::Null => write!(f, "null"),
        }
    }
}

/// An instruction operand: a register or an immediate constant.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Operand {
    /// Read a virtual register.
    Reg(Reg),
    /// An immediate constant.
    Const(Const),
}

impl Operand {
    /// Integer immediate shorthand.
    pub fn int(v: i64) -> Self {
        Operand::Const(Const::Int(v))
    }

    /// Float immediate shorthand.
    pub fn float(v: f64) -> Self {
        Operand::Const(Const::Float(v))
    }

    /// Null-pointer immediate shorthand.
    pub fn null() -> Self {
        Operand::Const(Const::Null)
    }

    /// The register read by this operand, if any.
    pub fn as_reg(self) -> Option<Reg> {
        match self {
            Operand::Reg(r) => Some(r),
            Operand::Const(_) => None,
        }
    }

    /// The constant if this operand is an immediate integer.
    pub fn as_const_int(self) -> Option<i64> {
        match self {
            Operand::Const(Const::Int(v)) => Some(v),
            _ => None,
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
        Operand::int(v)
    }
}

impl From<f64> for Operand {
    fn from(v: f64) -> Self {
        Operand::float(v)
    }
}

impl fmt::Display for Operand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Operand::Reg(r) => write!(f, "{r}"),
            Operand::Const(c) => write!(f, "{c}"),
        }
    }
}

/// Binary arithmetic / bitwise operators. Operate on integers or floats
/// depending on runtime operand types; bitwise/shift ops are integer-only.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    /// Addition.
    Add,
    /// Subtraction.
    Sub,
    /// Multiplication.
    Mul,
    /// Division.
    Div,
    /// Remainder (integer only).
    Rem,
    /// Bitwise and.
    And,
    /// Bitwise or.
    Or,
    /// Bitwise xor.
    Xor,
    /// Shift left.
    Shl,
    /// Arithmetic shift right.
    Shr,
}

impl BinOp {
    /// Parser/printer mnemonic.
    pub fn name(self) -> &'static str {
        match self {
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
        }
    }

    /// Parse from mnemonic.
    pub fn from_name(s: &str) -> Option<Self> {
        Some(match s {
            "add" => BinOp::Add,
            "sub" => BinOp::Sub,
            "mul" => BinOp::Mul,
            "div" => BinOp::Div,
            "rem" => BinOp::Rem,
            "and" => BinOp::And,
            "or" => BinOp::Or,
            "xor" => BinOp::Xor,
            "shl" => BinOp::Shl,
            "shr" => BinOp::Shr,
            _ => return None,
        })
    }
}

/// Comparison operators; result is an integer 0/1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CmpOp {
    /// Equal.
    Eq,
    /// Not equal.
    Ne,
    /// Less than.
    Lt,
    /// Less or equal.
    Le,
    /// Greater than.
    Gt,
    /// Greater or equal.
    Ge,
}

impl CmpOp {
    /// Parser/printer mnemonic.
    pub fn name(self) -> &'static str {
        match self {
            CmpOp::Eq => "eq",
            CmpOp::Ne => "ne",
            CmpOp::Lt => "lt",
            CmpOp::Le => "le",
            CmpOp::Gt => "gt",
            CmpOp::Ge => "ge",
        }
    }

    /// Parse from mnemonic.
    pub fn from_name(s: &str) -> Option<Self> {
        Some(match s {
            "eq" => CmpOp::Eq,
            "ne" => CmpOp::Ne,
            "lt" => CmpOp::Lt,
            "le" => CmpOp::Le,
            "gt" => CmpOp::Gt,
            "ge" => CmpOp::Ge,
            _ => return None,
        })
    }
}

/// The instruction set.
#[derive(Debug, Clone, PartialEq)]
pub enum Instr {
    /// `dst = src` — copy a value.
    Assign {
        /// Destination register.
        dst: Reg,
        /// Source operand.
        src: Operand,
    },
    /// `dst = op lhs, rhs` — binary arithmetic.
    Bin {
        /// Destination register.
        dst: Reg,
        /// Operator.
        op: BinOp,
        /// Left operand.
        lhs: Operand,
        /// Right operand.
        rhs: Operand,
    },
    /// `dst = cmp.op lhs, rhs` — comparison producing 0/1.
    Cmp {
        /// Destination register.
        dst: Reg,
        /// Comparison operator.
        op: CmpOp,
        /// Left operand.
        lhs: Operand,
        /// Right operand.
        rhs: Operand,
    },
    /// `dst = cast src : from -> to` — value or pointer cast.
    ///
    /// Pointer casts between unrelated record types are what the CSTT/CSTF
    /// legality tests fire on.
    Cast {
        /// Destination register.
        dst: Reg,
        /// Source operand.
        src: Operand,
        /// Declared source type.
        from: TypeId,
        /// Declared destination type.
        to: TypeId,
    },
    /// `dst = fieldaddr base, record.field` — address of a structure field.
    FieldAddr {
        /// Destination register (a pointer to the field).
        dst: Reg,
        /// Base pointer (must point at `record`).
        base: Operand,
        /// The record type being accessed.
        record: RecordId,
        /// Field index within the record.
        field: u32,
    },
    /// `dst = indexaddr base, index : elem` — address of `base[index]`
    /// where `base` points at elements of type `elem`.
    IndexAddr {
        /// Destination register.
        dst: Reg,
        /// Base pointer.
        base: Operand,
        /// Element type.
        elem: TypeId,
        /// Element index.
        index: Operand,
    },
    /// `dst = load addr : ty` — load a scalar/pointer value.
    Load {
        /// Destination register.
        dst: Reg,
        /// Address to load from.
        addr: Operand,
        /// Type of the loaded value.
        ty: TypeId,
    },
    /// `store value, addr : ty` — store a scalar/pointer value.
    Store {
        /// Address to store to.
        addr: Operand,
        /// Value to store.
        value: Operand,
        /// Type of the stored value.
        ty: TypeId,
    },
    /// `dst = gload g` — read a global variable's value.
    LoadGlobal {
        /// Destination register.
        dst: Reg,
        /// The global to read.
        global: GlobalId,
    },
    /// `gstore value, g` — write a global variable.
    StoreGlobal {
        /// The global to write.
        global: GlobalId,
        /// Value to write.
        value: Operand,
    },
    /// `dst = gaddr g` — address of a global variable (for globals holding
    /// aggregates accessed by pointer).
    AddrOfGlobal {
        /// Destination register.
        dst: Reg,
        /// The global whose address is taken.
        global: GlobalId,
    },
    /// `dst = alloc elem, count` (malloc) or `zalloc` (calloc) — allocate
    /// an array of `count` elements of type `elem` on the heap.
    Alloc {
        /// Destination register (pointer to the first element).
        dst: Reg,
        /// Element type.
        elem: TypeId,
        /// Number of elements.
        count: Operand,
        /// Whether the memory is zeroed (calloc).
        zeroed: bool,
    },
    /// `free ptr` — release a heap allocation.
    Free {
        /// Pointer previously returned by `Alloc`/`Realloc`.
        ptr: Operand,
    },
    /// `dst = realloc ptr, elem, count` — grow/shrink an allocation.
    Realloc {
        /// Destination register.
        dst: Reg,
        /// Old pointer.
        ptr: Operand,
        /// Element type.
        elem: TypeId,
        /// New element count.
        count: Operand,
    },
    /// `memcpy dst_addr, src_addr, bytes` — memory streaming copy (the
    /// paper's MSET legality condition fires on these).
    Memcpy {
        /// Destination address.
        dst: Operand,
        /// Source address.
        src: Operand,
        /// Byte count.
        bytes: Operand,
    },
    /// `memset dst_addr, val, bytes` — memory streaming fill.
    Memset {
        /// Destination address.
        dst: Operand,
        /// Fill byte value.
        val: Operand,
        /// Byte count.
        bytes: Operand,
    },
    /// `dst = call f(args)` — direct call.
    Call {
        /// Optional destination register for the return value.
        dst: Option<Reg>,
        /// Callee.
        callee: FuncId,
        /// Argument operands.
        args: Vec<Operand>,
    },
    /// `dst = icall target(args)` — indirect call through a function
    /// pointer (the paper's IND legality condition).
    CallIndirect {
        /// Optional destination register.
        dst: Option<Reg>,
        /// Function-pointer operand.
        target: Operand,
        /// Argument operands.
        args: Vec<Operand>,
        /// Declared argument types (for escape analysis).
        arg_types: Vec<TypeId>,
    },
    /// `dst = fnaddr f` — materialize a function pointer.
    FuncAddr {
        /// Destination register.
        dst: Reg,
        /// The function whose address is taken.
        func: FuncId,
    },
    /// Terminator: unconditional jump.
    Jump {
        /// Target block.
        target: BlockId,
    },
    /// Terminator: conditional branch (`cond != 0` → `then_bb`).
    Branch {
        /// Condition operand.
        cond: Operand,
        /// Taken target.
        then_bb: BlockId,
        /// Fallthrough target.
        else_bb: BlockId,
    },
    /// Terminator: return from the function.
    Return {
        /// Optional return value.
        value: Option<Operand>,
    },
}

impl Instr {
    /// Whether this instruction ends a basic block.
    pub fn is_terminator(&self) -> bool {
        matches!(
            self,
            Instr::Jump { .. } | Instr::Branch { .. } | Instr::Return { .. }
        )
    }

    /// The register defined by this instruction, if any.
    pub fn def(&self) -> Option<Reg> {
        match self {
            Instr::Assign { dst, .. }
            | Instr::Bin { dst, .. }
            | Instr::Cmp { dst, .. }
            | Instr::Cast { dst, .. }
            | Instr::FieldAddr { dst, .. }
            | Instr::IndexAddr { dst, .. }
            | Instr::Load { dst, .. }
            | Instr::LoadGlobal { dst, .. }
            | Instr::AddrOfGlobal { dst, .. }
            | Instr::Alloc { dst, .. }
            | Instr::Realloc { dst, .. }
            | Instr::FuncAddr { dst, .. } => Some(*dst),
            Instr::Call { dst, .. } | Instr::CallIndirect { dst, .. } => *dst,
            _ => None,
        }
    }

    /// Call `f` on every operand read by this instruction, in order,
    /// without allocating.
    pub fn for_each_use(&self, mut f: impl FnMut(Operand)) {
        match self {
            Instr::Assign { src, .. } | Instr::Cast { src, .. } => f(*src),
            Instr::Bin { lhs, rhs, .. } | Instr::Cmp { lhs, rhs, .. } => {
                [*lhs, *rhs].into_iter().for_each(f)
            }
            Instr::FieldAddr { base, .. } => f(*base),
            Instr::IndexAddr { base, index, .. } => [*base, *index].into_iter().for_each(f),
            Instr::Load { addr, .. } => f(*addr),
            Instr::Store { addr, value, .. } => [*addr, *value].into_iter().for_each(f),
            Instr::StoreGlobal { value, .. } => f(*value),
            Instr::Alloc { count, .. } => f(*count),
            Instr::Free { ptr } => f(*ptr),
            Instr::Realloc { ptr, count, .. } => [*ptr, *count].into_iter().for_each(f),
            Instr::Memcpy { dst, src, bytes } => [*dst, *src, *bytes].into_iter().for_each(f),
            Instr::Memset { dst, val, bytes } => [*dst, *val, *bytes].into_iter().for_each(f),
            Instr::Call { args, .. } => args.iter().copied().for_each(f),
            Instr::CallIndirect { target, args, .. } => std::iter::once(*target)
                .chain(args.iter().copied())
                .for_each(f),
            Instr::Branch { cond, .. } => f(*cond),
            Instr::Return { value } => value.iter().copied().for_each(f),
            Instr::LoadGlobal { .. }
            | Instr::AddrOfGlobal { .. }
            | Instr::FuncAddr { .. }
            | Instr::Jump { .. } => {}
        }
    }

    /// Successor blocks if this is a terminator.
    pub fn successors(&self) -> impl Iterator<Item = BlockId> {
        let (first, second) = match *self {
            Instr::Jump { target } => (Some(target), None),
            Instr::Branch {
                then_bb, else_bb, ..
            } => (Some(then_bb), Some(else_bb)),
            _ => (None, None),
        };
        first.into_iter().chain(second)
    }

    /// Whether this instruction touches memory (used by the cost model).
    pub fn is_memory_op(&self) -> bool {
        matches!(
            self,
            Instr::Load { .. } | Instr::Store { .. } | Instr::Memcpy { .. } | Instr::Memset { .. }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn operand_conversions() {
        let o: Operand = Reg(3).into();
        assert_eq!(o.as_reg(), Some(Reg(3)));
        let c: Operand = 42i64.into();
        assert_eq!(c.as_const_int(), Some(42));
        let f: Operand = 1.5f64.into();
        assert_eq!(f.as_const_int(), None);
        assert_eq!(Operand::null(), Operand::Const(Const::Null));
    }

    #[test]
    fn binop_roundtrip() {
        for op in [
            BinOp::Add,
            BinOp::Sub,
            BinOp::Mul,
            BinOp::Div,
            BinOp::Rem,
            BinOp::And,
            BinOp::Or,
            BinOp::Xor,
            BinOp::Shl,
            BinOp::Shr,
        ] {
            assert_eq!(BinOp::from_name(op.name()), Some(op));
        }
        assert_eq!(BinOp::from_name("frob"), None);
    }

    #[test]
    fn cmpop_roundtrip() {
        for op in [
            CmpOp::Eq,
            CmpOp::Ne,
            CmpOp::Lt,
            CmpOp::Le,
            CmpOp::Gt,
            CmpOp::Ge,
        ] {
            assert_eq!(CmpOp::from_name(op.name()), Some(op));
        }
    }

    #[test]
    fn terminator_classification() {
        assert!(Instr::Jump { target: BlockId(0) }.is_terminator());
        assert!(Instr::Return { value: None }.is_terminator());
        assert!(Instr::Branch {
            cond: Operand::int(1),
            then_bb: BlockId(0),
            else_bb: BlockId(1)
        }
        .is_terminator());
        assert!(!Instr::Assign {
            dst: Reg(0),
            src: Operand::int(0)
        }
        .is_terminator());
    }

    fn uses(i: &Instr) -> Vec<Operand> {
        let mut v = Vec::new();
        i.for_each_use(|o| v.push(o));
        v
    }

    #[test]
    fn def_and_uses() {
        let i = Instr::Bin {
            dst: Reg(2),
            op: BinOp::Add,
            lhs: Reg(0).into(),
            rhs: Reg(1).into(),
        };
        assert_eq!(i.def(), Some(Reg(2)));
        assert_eq!(uses(&i), [Reg(0).into(), Reg(1).into()]);

        let st = Instr::Store {
            addr: Reg(0).into(),
            value: Operand::int(7),
            ty: TypeId(0),
        };
        assert_eq!(st.def(), None);
        assert_eq!(uses(&st), [Reg(0).into(), Operand::int(7)]);

        let call = Instr::Call {
            dst: None,
            callee: FuncId(0),
            args: vec![Operand::int(1), Reg(4).into()],
        };
        assert_eq!(call.def(), None);
        assert_eq!(uses(&call), [Operand::int(1), Reg(4).into()]);

        let icall = Instr::CallIndirect {
            dst: None,
            target: Reg(5).into(),
            args: vec![Reg(6).into()],
            arg_types: vec![TypeId(0)],
        };
        assert_eq!(uses(&icall), [Reg(5).into(), Reg(6).into()]);
    }

    #[test]
    fn successors_of_terminators() {
        let b = Instr::Branch {
            cond: Operand::int(0),
            then_bb: BlockId(1),
            else_bb: BlockId(2),
        };
        assert!(b.successors().eq([BlockId(1), BlockId(2)]));
        assert!(Instr::Jump { target: BlockId(3) }
            .successors()
            .eq([BlockId(3)]));
        assert_eq!(Instr::Return { value: None }.successors().count(), 0);
    }

    #[test]
    fn memory_op_classification() {
        assert!(Instr::Load {
            dst: Reg(0),
            addr: Operand::null(),
            ty: TypeId(0)
        }
        .is_memory_op());
        assert!(!Instr::Jump { target: BlockId(0) }.is_memory_op());
    }

    #[test]
    fn display_ids() {
        assert_eq!(Reg(7).to_string(), "r7");
        assert_eq!(BlockId(2).to_string(), "bb2");
        assert_eq!(FuncId(1).to_string(), "fn1");
        assert_eq!(GlobalId(0).to_string(), "g0");
        let r = InstrRef {
            func: FuncId(1),
            block: BlockId(2),
            index: 3,
        };
        assert_eq!(r.to_string(), "fn1:bb2:3");
    }
}
