//! Program structure: functions, basic blocks, globals, compilation units.
//!
//! A [`Program`] corresponds to the paper's whole-program (IPA) scope: all
//! compilation units linked together, with a single type-unified
//! [`TypeTable`]. Each function belongs to a *compilation unit*; the FE
//! analyses run per unit and IPA aggregates their summaries — mirroring the
//! SYZYGY FE/IPA/BE split.

use crate::instr::{BlockId, FuncId, GlobalId, Instr, InstrRef, Reg};
use crate::types::{TypeId, TypeTable};

/// A straight-line sequence of instructions ending in a terminator.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BasicBlock {
    /// Instructions; the last one must be a terminator once the function
    /// is complete (enforced by the verifier).
    pub instrs: Vec<Instr>,
}

impl BasicBlock {
    /// The block's terminator, if the block is non-empty and well-formed.
    pub fn terminator(&self) -> Option<&Instr> {
        self.instrs.last().filter(|i| i.is_terminator())
    }

    /// Successor blocks of this block.
    pub fn successors(&self) -> Vec<BlockId> {
        self.terminator()
            .into_iter()
            .flat_map(Instr::successors)
            .collect()
    }
}

/// How a function is defined.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FuncKind {
    /// Defined in this program; has a body.
    Defined,
    /// Declared but defined outside the IPA scope (another library).
    External,
    /// A standard-library function (the compiler tool chain marks these
    /// specially — the paper's LIBC condition).
    Libc,
}

/// A function: signature plus (for defined functions) a CFG body.
#[derive(Debug, Clone)]
pub struct Function {
    /// Function name; unique within a program.
    pub name: String,
    /// Parameter registers and their types. Parameters occupy the first
    /// registers of the function.
    pub params: Vec<(Reg, TypeId)>,
    /// Return type (`void` id for none).
    pub ret: TypeId,
    /// Definition kind.
    pub kind: FuncKind,
    /// Basic blocks; `blocks[0]` is the entry block.
    pub blocks: Vec<BasicBlock>,
    /// Total number of virtual registers used.
    pub num_regs: u32,
    /// Index of the compilation unit this function belongs to.
    pub unit: usize,
}

impl Function {
    /// The entry block id.
    pub fn entry(&self) -> BlockId {
        BlockId(0)
    }

    /// Whether this function has a body.
    pub fn is_defined(&self) -> bool {
        self.kind == FuncKind::Defined
    }

    /// Get a block by id.
    pub fn block(&self, id: BlockId) -> &BasicBlock {
        &self.blocks[id.index()]
    }

    /// Get a block mutably.
    pub fn block_mut(&mut self, id: BlockId) -> &mut BasicBlock {
        &mut self.blocks[id.index()]
    }

    /// Iterate over block ids.
    pub fn block_ids(&self) -> impl Iterator<Item = BlockId> {
        (0..self.blocks.len() as u32).map(BlockId)
    }

    /// Allocate a fresh virtual register.
    pub fn fresh_reg(&mut self) -> Reg {
        let r = Reg(self.num_regs);
        self.num_regs += 1;
        r
    }

    /// Predecessor lists for every block.
    pub fn predecessors(&self) -> Vec<Vec<BlockId>> {
        let mut preds = vec![Vec::new(); self.blocks.len()];
        for bid in self.block_ids() {
            for succ in self.block(bid).successors() {
                preds[succ.index()].push(bid);
            }
        }
        preds
    }

    /// Total instruction count across all blocks.
    pub fn instr_count(&self) -> usize {
        self.blocks.iter().map(|b| b.instrs.len()).sum()
    }
}

/// A global variable.
#[derive(Debug, Clone)]
pub struct GlobalVar {
    /// Global name; unique within a program.
    pub name: String,
    /// The variable's type. A global of pointer type holds a pointer value;
    /// a global of record/array type is an in-place aggregate whose address
    /// is taken via `AddrOfGlobal`.
    pub ty: TypeId,
}

/// A compilation unit: a named set of functions compiled together by the FE.
#[derive(Debug, Clone, Default)]
pub struct Unit {
    /// Unit (source file) name.
    pub name: String,
}

/// A whole program: the unit of inter-procedural analysis.
#[derive(Debug, Clone, Default)]
pub struct Program {
    /// The type-unified symbol table.
    pub types: TypeTable,
    /// All global variables.
    pub globals: Vec<GlobalVar>,
    /// All functions (defined and external).
    pub funcs: Vec<Function>,
    /// Compilation units; `Function::unit` indexes into this.
    pub units: Vec<Unit>,
}

impl Program {
    /// Create an empty program with a single default unit.
    pub fn new() -> Self {
        Program {
            types: TypeTable::new(),
            globals: Vec::new(),
            funcs: Vec::new(),
            units: vec![Unit {
                name: "unit0".into(),
            }],
        }
    }

    /// Add a compilation unit, returning its index.
    pub fn add_unit(&mut self, name: impl Into<String>) -> usize {
        self.units.push(Unit { name: name.into() });
        self.units.len() - 1
    }

    /// Add a function, returning its id.
    ///
    /// # Panics
    ///
    /// Panics if a function with the same name exists.
    pub fn add_func(&mut self, f: Function) -> FuncId {
        assert!(
            self.func_by_name(&f.name).is_none(),
            "duplicate function name `{}`",
            f.name
        );
        let id = FuncId(self.funcs.len() as u32);
        self.funcs.push(f);
        id
    }

    /// Add a global variable, returning its id.
    ///
    /// # Panics
    ///
    /// Panics if a global with the same name exists.
    pub fn add_global(&mut self, g: GlobalVar) -> GlobalId {
        assert!(
            self.global_by_name(&g.name).is_none(),
            "duplicate global name `{}`",
            g.name
        );
        let id = GlobalId(self.globals.len() as u32);
        self.globals.push(g);
        id
    }

    /// Get a function by id.
    pub fn func(&self, id: FuncId) -> &Function {
        &self.funcs[id.index()]
    }

    /// Get a function mutably.
    pub fn func_mut(&mut self, id: FuncId) -> &mut Function {
        &mut self.funcs[id.index()]
    }

    /// Get a global by id.
    pub fn global(&self, id: GlobalId) -> &GlobalVar {
        &self.globals[id.index()]
    }

    /// Find a function id by name.
    pub fn func_by_name(&self, name: &str) -> Option<FuncId> {
        self.funcs
            .iter()
            .position(|f| f.name == name)
            .map(|i| FuncId(i as u32))
    }

    /// Find a global id by name.
    pub fn global_by_name(&self, name: &str) -> Option<GlobalId> {
        self.globals
            .iter()
            .position(|g| g.name == name)
            .map(|i| GlobalId(i as u32))
    }

    /// The `main` function, if present.
    pub fn main(&self) -> Option<FuncId> {
        self.func_by_name("main")
    }

    /// Iterate over function ids.
    pub fn func_ids(&self) -> impl Iterator<Item = FuncId> {
        (0..self.funcs.len() as u32).map(FuncId)
    }

    /// Iterate over global ids.
    pub fn global_ids(&self) -> impl Iterator<Item = GlobalId> {
        (0..self.globals.len() as u32).map(GlobalId)
    }

    /// Iterate over `(InstrRef, &Instr)` for every instruction of a
    /// defined function.
    pub fn instrs_of(&self, fid: FuncId) -> impl Iterator<Item = (InstrRef, &Instr)> {
        let f = self.func(fid);
        f.blocks.iter().enumerate().flat_map(move |(bi, b)| {
            b.instrs.iter().enumerate().map(move |(ii, ins)| {
                (
                    InstrRef {
                        func: fid,
                        block: BlockId(bi as u32),
                        index: ii as u32,
                    },
                    ins,
                )
            })
        })
    }

    /// Total instruction count of all defined functions.
    pub fn instr_count(&self) -> usize {
        self.funcs
            .iter()
            .filter(|f| f.is_defined())
            .map(|f| f.instr_count())
            .sum()
    }

    /// Fetch the instruction behind an [`InstrRef`].
    pub fn instr(&self, r: InstrRef) -> &Instr {
        &self.func(r.func).blocks[r.block.index()].instrs[r.index as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instr::Operand;
    use crate::types::ScalarKind;

    fn empty_defined(name: &str) -> Function {
        Function {
            name: name.into(),
            params: vec![],
            ret: TypeId(0),
            kind: FuncKind::Defined,
            blocks: vec![BasicBlock {
                instrs: vec![Instr::Return { value: None }],
            }],
            num_regs: 0,
            unit: 0,
        }
    }

    #[test]
    fn add_and_lookup_funcs() {
        let mut p = Program::new();
        let void = p.types.void();
        let mut f = empty_defined("main");
        f.ret = void;
        let id = p.add_func(f);
        assert_eq!(p.func_by_name("main"), Some(id));
        assert_eq!(p.main(), Some(id));
        assert_eq!(p.func(id).name, "main");
        assert!(p.func_by_name("other").is_none());
    }

    #[test]
    #[should_panic(expected = "duplicate function name")]
    fn duplicate_func_panics() {
        let mut p = Program::new();
        p.add_func(empty_defined("f"));
        p.add_func(empty_defined("f"));
    }

    #[test]
    fn globals() {
        let mut p = Program::new();
        let i64t = p.types.scalar(ScalarKind::I64);
        let g = p.add_global(GlobalVar {
            name: "counter".into(),
            ty: i64t,
        });
        assert_eq!(p.global_by_name("counter"), Some(g));
        assert_eq!(p.global(g).name, "counter");
    }

    #[test]
    #[should_panic(expected = "duplicate global name")]
    fn duplicate_global_panics() {
        let mut p = Program::new();
        let t = p.types.scalar(ScalarKind::I32);
        p.add_global(GlobalVar {
            name: "g".into(),
            ty: t,
        });
        p.add_global(GlobalVar {
            name: "g".into(),
            ty: t,
        });
    }

    #[test]
    fn block_successors_and_preds() {
        let mut f = empty_defined("f");
        f.blocks = vec![
            BasicBlock {
                instrs: vec![Instr::Branch {
                    cond: Operand::int(1),
                    then_bb: BlockId(1),
                    else_bb: BlockId(2),
                }],
            },
            BasicBlock {
                instrs: vec![Instr::Jump { target: BlockId(2) }],
            },
            BasicBlock {
                instrs: vec![Instr::Return { value: None }],
            },
        ];
        assert_eq!(
            f.block(BlockId(0)).successors(),
            vec![BlockId(1), BlockId(2)]
        );
        let preds = f.predecessors();
        assert_eq!(preds[2], vec![BlockId(0), BlockId(1)]);
        assert!(preds[0].is_empty());
    }

    #[test]
    fn instr_iteration_and_refs() {
        let mut p = Program::new();
        let fid = p.add_func(empty_defined("f"));
        let refs: Vec<_> = p.instrs_of(fid).map(|(r, _)| r).collect();
        assert_eq!(refs.len(), 1);
        assert_eq!(refs[0].func, fid);
        assert!(matches!(p.instr(refs[0]), Instr::Return { .. }));
        assert_eq!(p.instr_count(), 1);
    }

    #[test]
    fn fresh_reg_monotonic() {
        let mut f = empty_defined("f");
        let a = f.fresh_reg();
        let b = f.fresh_reg();
        assert_ne!(a, b);
        assert_eq!(f.num_regs, 2);
    }

    #[test]
    fn units() {
        let mut p = Program::new();
        assert_eq!(p.units.len(), 1);
        let u = p.add_unit("file2.c");
        assert_eq!(u, 1);
        assert_eq!(p.units[1].name, "file2.c");
    }
}
