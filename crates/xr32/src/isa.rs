//! The XR32 instruction set.
//!
//! A load/store RISC with sixteen 32-bit general registers (`a0`–`a15`),
//! a carry flag for multi-precision arithmetic, optional hardware
//! multiply, and an extension slot for designer-defined custom
//! instructions ([`Insn::Custom`]).
//!
//! Register conventions (used by the assembler and kernels):
//!
//! | register | alias | role |
//! |---|---|---|
//! | `a0`–`a5` | | arguments / return values, caller-saved |
//! | `a6`–`a13` | | temporaries |
//! | `a14` | `sp` | stack pointer |
//! | `a15` | `ra` | return address (written by `call`) |

use core::fmt;

/// A general-purpose register index (`a0`–`a15`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Reg(u8);

impl Reg {
    /// The stack pointer alias (`a14`).
    pub const SP: Reg = Reg(14);
    /// The return-address alias (`a15`).
    pub const RA: Reg = Reg(15);

    /// Creates a register from its index.
    ///
    /// # Panics
    ///
    /// Panics if `index > 15`.
    pub fn new(index: u8) -> Self {
        assert!(index < 16, "register index {index} out of range");
        Reg(index)
    }

    /// The register's index (0–15).
    #[inline(always)]
    pub fn index(self) -> usize {
        // The mask is a no-op on a valid register; it lets the
        // compiler drop the bounds check on a 16-entry register file.
        (self.0 & 15) as usize
    }
}

impl fmt::Display for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.0 {
            14 => write!(f, "sp"),
            15 => write!(f, "ra"),
            n => write!(f, "a{n}"),
        }
    }
}

/// A user (wide) register index for custom-instruction state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct UserReg(u8);

impl UserReg {
    /// Creates a user register reference.
    ///
    /// # Panics
    ///
    /// Panics if `index > 15` (XR32 exposes at most 16 user registers).
    pub fn new(index: u8) -> Self {
        assert!(index < 16, "user register index {index} out of range");
        UserReg(index)
    }

    /// The register's index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for UserReg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ur{}", self.0)
    }
}

/// Operands of a custom (TIE-style) instruction instance.
///
/// A custom instruction may read/write general registers, reference wide
/// user registers, and carry one immediate. Its semantics, latency and
/// area come from the [`crate::ext::CustomInsnDef`] registered under
/// `name`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CustomOp {
    /// Name the instruction was registered under.
    pub name: String,
    /// General-register operands, in assembly order.
    pub regs: Vec<Reg>,
    /// User-register operands, in assembly order.
    pub uregs: Vec<UserReg>,
    /// Optional immediate operand (0 if absent).
    pub imm: i32,
}

/// One decoded XR32 instruction.
///
/// Field order for three-operand forms is `(rd, rs1, rs2)`; loads are
/// `(rd, base, offset)` and stores `(rs, base, offset)`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Insn {
    // --- ALU register-register ---
    /// `rd = rs1 + rs2`
    Add(Reg, Reg, Reg),
    /// `rd = rs1 + rs2 + carry`, sets carry.
    Addc(Reg, Reg, Reg),
    /// `rd = rs1 - rs2`
    Sub(Reg, Reg, Reg),
    /// `rd = rs1 - rs2 - carry`, sets carry (borrow).
    Subc(Reg, Reg, Reg),
    /// `rd = rs1 & rs2`
    And(Reg, Reg, Reg),
    /// `rd = rs1 | rs2`
    Or(Reg, Reg, Reg),
    /// `rd = rs1 ^ rs2`
    Xor(Reg, Reg, Reg),
    /// `rd = rs1 << (rs2 & 31)`
    Sll(Reg, Reg, Reg),
    /// `rd = rs1 >> (rs2 & 31)` (logical)
    Srl(Reg, Reg, Reg),
    /// `rd = rs1 >> (rs2 & 31)` (arithmetic)
    Sra(Reg, Reg, Reg),
    /// `rd = (rs1 <ᵤ rs2) ? 1 : 0`
    Sltu(Reg, Reg, Reg),
    /// `rd = (rs1 <ₛ rs2) ? 1 : 0`
    Slt(Reg, Reg, Reg),
    /// `rd = low32(rs1 * rs2)` — requires the hardware-multiplier option.
    Mul(Reg, Reg, Reg),
    /// `rd = high32(rs1 *ᵤ rs2)` — requires the hardware-multiplier
    /// option.
    Mulhu(Reg, Reg, Reg),

    // --- ALU immediate ---
    /// `rd = rs + imm` (imm in ±2048)
    Addi(Reg, Reg, i32),
    /// `rd = rs & imm` (imm in 0..=4095)
    Andi(Reg, Reg, u32),
    /// `rd = rs | imm` (imm in 0..=4095)
    Ori(Reg, Reg, u32),
    /// `rd = rs ^ imm` (imm in 0..=4095)
    Xori(Reg, Reg, u32),
    /// `rd = rs << sh` (sh in 0..=31)
    Slli(Reg, Reg, u32),
    /// `rd = rs >> sh` (logical)
    Srli(Reg, Reg, u32),
    /// `rd = rs >> sh` (arithmetic)
    Srai(Reg, Reg, u32),
    /// `rd = imm` — models the Xtensa `L32R` literal-pool load; any
    /// 32-bit constant in one instruction.
    Movi(Reg, i32),
    /// `rd = rs`
    Mov(Reg, Reg),

    // --- memory ---
    /// `rd = mem32[rs + offset]`
    Lw(Reg, Reg, i32),
    /// `mem32[rs + offset] = rd`
    Sw(Reg, Reg, i32),
    /// `rd = zero_extend(mem8[rs + offset])`
    Lbu(Reg, Reg, i32),
    /// `mem8[rs + offset] = low8(rd)`
    Sb(Reg, Reg, i32),
    /// `rd = zero_extend(mem16[rs + offset])`
    Lhu(Reg, Reg, i32),
    /// `mem16[rs + offset] = low16(rd)`
    Sh(Reg, Reg, i32),

    // --- control flow (targets are instruction indices) ---
    /// Branch if equal.
    Beq(Reg, Reg, usize),
    /// Branch if not equal.
    Bne(Reg, Reg, usize),
    /// Branch if unsigned less-than.
    Bltu(Reg, Reg, usize),
    /// Branch if unsigned greater-or-equal.
    Bgeu(Reg, Reg, usize),
    /// Branch if signed less-than.
    Blt(Reg, Reg, usize),
    /// Branch if signed greater-or-equal.
    Bge(Reg, Reg, usize),
    /// Unconditional jump.
    J(usize),
    /// Call: `ra = pc + 1; pc = target`. Drives the profiler's call
    /// graph.
    Call(usize),
    /// Return: `pc = ra`.
    Ret,
    /// Indirect jump through a register.
    Jr(Reg),

    // --- misc ---
    /// Clears the carry flag (used to start multi-precision chains).
    Clc,
    /// No operation.
    Nop,
    /// Stop simulation.
    Halt,
    /// A designer-defined custom instruction. Boxed so the common
    /// fixed forms keep `Insn` at 16 bytes.
    Custom(Box<CustomOp>),
}

/// Instruction classes, as counted in
/// [`ClassCounts`](crate::cpu::ClassCounts).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InsnClass {
    /// ALU and move instructions (also `clc`, `nop`, `halt`).
    Alu,
    /// Loads and stores.
    Mem,
    /// Branches, jumps, calls, returns.
    Control,
    /// Hardware multiplies.
    Mul,
    /// Custom (TIE) instructions.
    Custom,
}

/// The general registers an instruction reads, as returned by
/// [`Insn::sources`]: up to two held inline, or a custom instruction's
/// borrowed operand list. Derefs to `&[Reg]`.
#[derive(Debug, Clone, Copy)]
pub struct Sources<'a> {
    inline: [Reg; 2],
    len: u8,
    custom: Option<&'a [Reg]>,
}

impl<'a> Sources<'a> {
    const NONE: Sources<'static> = Sources::inline([Reg(0); 2], 0);

    const fn inline(inline: [Reg; 2], len: u8) -> Self {
        Sources {
            inline,
            len,
            custom: None,
        }
    }

    fn one(a: Reg) -> Self {
        Sources::inline([a, a], 1)
    }

    fn two(a: Reg, b: Reg) -> Self {
        Sources::inline([a, b], 2)
    }

    fn custom(regs: &'a [Reg]) -> Self {
        Sources {
            custom: Some(regs),
            ..Sources::NONE
        }
    }
}

impl core::ops::Deref for Sources<'_> {
    type Target = [Reg];

    fn deref(&self) -> &[Reg] {
        match self.custom {
            Some(regs) => regs,
            None => &self.inline[..self.len as usize],
        }
    }
}

impl fmt::Display for Insn {
    /// Canonical assembly rendering, for diagnostics and IR dumps.
    /// Control-transfer targets are printed as `@<index>` (instruction
    /// indices, not labels — the assembler's symbol table is not part
    /// of the instruction). The output of non-branch instructions
    /// re-assembles verbatim.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        use Insn::*;
        match self {
            Add(d, a, b) => write!(f, "add {d}, {a}, {b}"),
            Addc(d, a, b) => write!(f, "addc {d}, {a}, {b}"),
            Sub(d, a, b) => write!(f, "sub {d}, {a}, {b}"),
            Subc(d, a, b) => write!(f, "subc {d}, {a}, {b}"),
            And(d, a, b) => write!(f, "and {d}, {a}, {b}"),
            Or(d, a, b) => write!(f, "or {d}, {a}, {b}"),
            Xor(d, a, b) => write!(f, "xor {d}, {a}, {b}"),
            Sll(d, a, b) => write!(f, "sll {d}, {a}, {b}"),
            Srl(d, a, b) => write!(f, "srl {d}, {a}, {b}"),
            Sra(d, a, b) => write!(f, "sra {d}, {a}, {b}"),
            Sltu(d, a, b) => write!(f, "sltu {d}, {a}, {b}"),
            Slt(d, a, b) => write!(f, "slt {d}, {a}, {b}"),
            Mul(d, a, b) => write!(f, "mul {d}, {a}, {b}"),
            Mulhu(d, a, b) => write!(f, "mulhu {d}, {a}, {b}"),
            Addi(d, a, i) => write!(f, "addi {d}, {a}, {i}"),
            Andi(d, a, i) => write!(f, "andi {d}, {a}, {i}"),
            Ori(d, a, i) => write!(f, "ori {d}, {a}, {i}"),
            Xori(d, a, i) => write!(f, "xori {d}, {a}, {i}"),
            Slli(d, a, s) => write!(f, "slli {d}, {a}, {s}"),
            Srli(d, a, s) => write!(f, "srli {d}, {a}, {s}"),
            Srai(d, a, s) => write!(f, "srai {d}, {a}, {s}"),
            Movi(d, i) => write!(f, "movi {d}, {i}"),
            Mov(d, a) => write!(f, "mov {d}, {a}"),
            Lw(d, b, o) => write!(f, "lw {d}, {b}, {o}"),
            Sw(v, b, o) => write!(f, "sw {v}, {b}, {o}"),
            Lbu(d, b, o) => write!(f, "lbu {d}, {b}, {o}"),
            Sb(v, b, o) => write!(f, "sb {v}, {b}, {o}"),
            Lhu(d, b, o) => write!(f, "lhu {d}, {b}, {o}"),
            Sh(v, b, o) => write!(f, "sh {v}, {b}, {o}"),
            Beq(a, b, t) => write!(f, "beq {a}, {b}, @{t}"),
            Bne(a, b, t) => write!(f, "bne {a}, {b}, @{t}"),
            Bltu(a, b, t) => write!(f, "bltu {a}, {b}, @{t}"),
            Bgeu(a, b, t) => write!(f, "bgeu {a}, {b}, @{t}"),
            Blt(a, b, t) => write!(f, "blt {a}, {b}, @{t}"),
            Bge(a, b, t) => write!(f, "bge {a}, {b}, @{t}"),
            J(t) => write!(f, "j @{t}"),
            Call(t) => write!(f, "call @{t}"),
            Ret => write!(f, "ret"),
            Jr(r) => write!(f, "jr {r}"),
            Clc => write!(f, "clc"),
            Nop => write!(f, "nop"),
            Halt => write!(f, "halt"),
            Custom(op) => {
                write!(f, "cust {}", op.name)?;
                let mut first = true;
                let mut sep = |f: &mut fmt::Formatter<'_>| -> fmt::Result {
                    if first {
                        first = false;
                        write!(f, " ")
                    } else {
                        write!(f, ", ")
                    }
                };
                for ur in &op.uregs {
                    sep(f)?;
                    write!(f, "{ur}")?;
                }
                for r in &op.regs {
                    sep(f)?;
                    write!(f, "{r}")?;
                }
                if op.imm != 0 {
                    sep(f)?;
                    write!(f, "{}", op.imm)?;
                }
                Ok(())
            }
        }
    }
}

impl Insn {
    /// The instruction's class.
    pub fn class(&self) -> InsnClass {
        use Insn::*;
        match self {
            Lw(..) | Sw(..) | Lbu(..) | Sb(..) | Lhu(..) | Sh(..) => InsnClass::Mem,
            Beq(..) | Bne(..) | Bltu(..) | Bgeu(..) | Blt(..) | Bge(..) | J(_) | Call(_) | Ret
            | Jr(_) => InsnClass::Control,
            Mul(..) | Mulhu(..) => InsnClass::Mul,
            Custom(_) => InsnClass::Custom,
            _ => InsnClass::Alu,
        }
    }

    /// General registers read by this instruction (for the load-use
    /// interlock model and the static analyses). Custom instructions
    /// conservatively read all their register operands.
    ///
    /// Allocation-free — the cycle-accurate cores call this once per
    /// executed instruction: fixed forms return their (at most two)
    /// sources inline, [`Insn::Custom`] borrows its operand list. The
    /// result derefs to `&[Reg]`.
    pub fn sources(&self) -> Sources<'_> {
        use Insn::*;
        match self {
            Add(_, a, b)
            | Addc(_, a, b)
            | Sub(_, a, b)
            | Subc(_, a, b)
            | And(_, a, b)
            | Or(_, a, b)
            | Xor(_, a, b)
            | Sll(_, a, b)
            | Srl(_, a, b)
            | Sra(_, a, b)
            | Sltu(_, a, b)
            | Slt(_, a, b)
            | Mul(_, a, b)
            | Mulhu(_, a, b) => Sources::two(*a, *b),
            Addi(_, a, _)
            | Andi(_, a, _)
            | Ori(_, a, _)
            | Xori(_, a, _)
            | Slli(_, a, _)
            | Srli(_, a, _)
            | Srai(_, a, _)
            | Mov(_, a) => Sources::one(*a),
            Movi(..) => Sources::NONE,
            Lw(_, base, _) | Lbu(_, base, _) | Lhu(_, base, _) => Sources::one(*base),
            Sw(v, base, _) | Sb(v, base, _) | Sh(v, base, _) => Sources::two(*v, *base),
            Beq(a, b, _)
            | Bne(a, b, _)
            | Bltu(a, b, _)
            | Bgeu(a, b, _)
            | Blt(a, b, _)
            | Bge(a, b, _) => Sources::two(*a, *b),
            J(_) | Call(_) | Clc | Nop | Halt => Sources::NONE,
            Ret => Sources::one(Reg::RA),
            Jr(r) => Sources::one(*r),
            Custom(op) => Sources::custom(&op.regs),
        }
    }

    /// The general register written by this instruction, if any.
    pub fn dest(&self) -> Option<Reg> {
        use Insn::*;
        match self {
            Add(d, ..)
            | Addc(d, ..)
            | Sub(d, ..)
            | Subc(d, ..)
            | And(d, ..)
            | Or(d, ..)
            | Xor(d, ..)
            | Sll(d, ..)
            | Srl(d, ..)
            | Sra(d, ..)
            | Sltu(d, ..)
            | Slt(d, ..)
            | Mul(d, ..)
            | Mulhu(d, ..)
            | Addi(d, ..)
            | Andi(d, ..)
            | Ori(d, ..)
            | Xori(d, ..)
            | Slli(d, ..)
            | Srli(d, ..)
            | Srai(d, ..)
            | Movi(d, _)
            | Mov(d, _)
            | Lw(d, ..)
            | Lbu(d, ..)
            | Lhu(d, ..) => Some(*d),
            Call(_) => Some(Reg::RA),
            _ => None,
        }
    }

    /// True for loads (which incur the load-use delay).
    pub fn is_load(&self) -> bool {
        matches!(self, Insn::Lw(..) | Insn::Lbu(..) | Insn::Lhu(..))
    }

    /// True for stores.
    pub fn is_store(&self) -> bool {
        matches!(self, Insn::Sw(..) | Insn::Sb(..) | Insn::Sh(..))
    }

    /// The access width in bytes for loads and stores, else `None`.
    pub fn mem_width(&self) -> Option<u32> {
        use Insn::*;
        match self {
            Lw(..) | Sw(..) => Some(4),
            Lhu(..) | Sh(..) => Some(2),
            Lbu(..) | Sb(..) => Some(1),
            _ => None,
        }
    }

    /// The `(base, offset)` addressing pair for loads and stores.
    pub fn mem_addr(&self) -> Option<(Reg, i32)> {
        use Insn::*;
        match self {
            Lw(_, b, off)
            | Sw(_, b, off)
            | Lbu(_, b, off)
            | Sb(_, b, off)
            | Lhu(_, b, off)
            | Sh(_, b, off) => Some((*b, *off)),
            _ => None,
        }
    }

    /// The static target of a direct control transfer (conditional
    /// branch, jump, or call), as an instruction index.
    pub fn branch_target(&self) -> Option<usize> {
        use Insn::*;
        match self {
            Beq(_, _, t)
            | Bne(_, _, t)
            | Bltu(_, _, t)
            | Bgeu(_, _, t)
            | Blt(_, _, t)
            | Bge(_, _, t)
            | J(t)
            | Call(t) => Some(*t),
            _ => None,
        }
    }

    /// True for the six conditional branches.
    pub fn is_cond_branch(&self) -> bool {
        use Insn::*;
        matches!(
            self,
            Beq(..) | Bne(..) | Bltu(..) | Bgeu(..) | Blt(..) | Bge(..)
        )
    }

    /// True when execution may continue at `pc + 1` after this
    /// instruction (calls return, conditional branches may not be
    /// taken).
    pub fn falls_through(&self) -> bool {
        use Insn::*;
        !matches!(self, J(_) | Jr(_) | Ret | Halt)
    }

    /// True when this instruction ends a basic block: any control
    /// transfer (including calls, which are block-ending for dataflow
    /// because the callee may clobber state) and simulation stops.
    pub fn ends_block(&self) -> bool {
        use Insn::*;
        self.is_cond_branch() || matches!(self, J(_) | Call(_) | Jr(_) | Ret | Halt)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reg_display_uses_aliases() {
        assert_eq!(Reg::new(0).to_string(), "a0");
        assert_eq!(Reg::SP.to_string(), "sp");
        assert_eq!(Reg::RA.to_string(), "ra");
        assert_eq!(UserReg::new(3).to_string(), "ur3");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn reg_index_validated() {
        let _ = Reg::new(16);
    }

    #[test]
    fn sources_and_dest_for_alu() {
        let i = Insn::Add(Reg::new(1), Reg::new(2), Reg::new(3));
        assert_eq!(*i.sources(), [Reg::new(2), Reg::new(3)]);
        assert_eq!(i.dest(), Some(Reg::new(1)));
    }

    #[test]
    fn sources_for_store_include_value_and_base() {
        let i = Insn::Sw(Reg::new(5), Reg::new(6), 8);
        assert_eq!(*i.sources(), [Reg::new(5), Reg::new(6)]);
        assert_eq!(i.dest(), None);
    }

    #[test]
    fn call_writes_ra_ret_reads_ra() {
        assert_eq!(Insn::Call(0).dest(), Some(Reg::RA));
        assert_eq!(*Insn::Ret.sources(), [Reg::RA]);
    }

    #[test]
    fn insn_is_sixteen_bytes() {
        assert_eq!(core::mem::size_of::<Insn>(), 16);
    }

    #[test]
    fn classes_cover_each_kind() {
        let r = Reg::new(1);
        assert_eq!(Insn::Add(r, r, r).class(), InsnClass::Alu);
        assert_eq!(Insn::Halt.class(), InsnClass::Alu);
        assert_eq!(Insn::Sh(r, r, 0).class(), InsnClass::Mem);
        assert_eq!(Insn::Jr(r).class(), InsnClass::Control);
        assert_eq!(Insn::Mulhu(r, r, r).class(), InsnClass::Mul);
    }

    #[test]
    fn loads_are_loads() {
        assert!(Insn::Lw(Reg::new(0), Reg::new(1), 0).is_load());
        assert!(Insn::Lbu(Reg::new(0), Reg::new(1), 0).is_load());
        assert!(!Insn::Sw(Reg::new(0), Reg::new(1), 0).is_load());
    }
}
