//! Two-pass assembler for XR32 assembly text.
//!
//! The platform's cryptographic kernels (`mpn_add_n`, DES rounds, …) are
//! written in this assembly and characterized on the simulator, exactly
//! as the paper characterizes C library routines compiled for the
//! Xtensa.
//!
//! # Syntax
//!
//! ```text
//! ; comment (also #)
//! label:            ; labels may share a line with an instruction
//!     movi a2, 0x20
//! loop:
//!     lw   a3, a0, 0     ; rd, base, offset
//!     addi a0, a0, 4
//!     addc a4, a4, a3
//!     bne  a0, a1, loop
//!     cust add4 ur0, ur1, ur2, a5   ; custom instruction by name
//!     ret
//! ```
//!
//! Registers are `a0`–`a15` with aliases `sp` (= `a14`) and `ra`
//! (= `a15`); user registers are `ur0`–`ur15`. Immediates accept decimal
//! and `0x` hex with optional sign.

use crate::isa::{CustomOp, Insn, InsnClass, Reg, UserReg};
use std::collections::BTreeMap;
use std::fmt;
use std::hash::{Hash, Hasher};

/// An assembled program: decoded instructions plus the symbol table.
#[derive(Debug, Clone, Default)]
pub struct Program {
    insns: Vec<Insn>,
    labels: BTreeMap<String, usize>,
    /// Source line (1-based) of each instruction, for diagnostics.
    lines: Vec<usize>,
    /// First label name per instruction index (for fast profiling).
    names_by_pc: Vec<Option<String>>,
    /// Content fingerprint over the instruction sequence, computed once
    /// at assembly; keys the per-core custom-handler caches.
    fp: u64,
    /// Exclusive end of the basic block containing each instruction.
    block_ends: Vec<u32>,
    /// [`Insn::class`] of each instruction.
    classes: Vec<InsnClass>,
}

impl Program {
    /// The instruction sequence.
    pub fn insns(&self) -> &[Insn] {
        &self.insns
    }

    /// Number of instructions.
    pub fn len(&self) -> usize {
        self.insns.len()
    }

    /// True for the empty program.
    pub fn is_empty(&self) -> bool {
        self.insns.is_empty()
    }

    /// Looks up a label's instruction index.
    pub fn label(&self, name: &str) -> Option<usize> {
        self.labels.get(name).copied()
    }

    /// All labels and their instruction indices.
    pub fn labels(&self) -> &BTreeMap<String, usize> {
        &self.labels
    }

    /// The label whose address is `pc`, preferring the lexically first.
    pub fn label_at(&self, pc: usize) -> Option<&str> {
        self.names_by_pc.get(pc).and_then(|n| n.as_deref())
    }

    /// Source line of instruction `pc`.
    pub fn line_of(&self, pc: usize) -> Option<usize> {
        self.lines.get(pc).copied()
    }

    /// Content fingerprint of the instruction sequence (branch targets
    /// are already resolved into the instructions, so equal fingerprints
    /// mean semantically identical programs). Computed once by
    /// [`assemble`], so it is O(1) per call — the fast-execution engine
    /// uses it to key its per-core decode cache.
    pub fn fingerprint(&self) -> u64 {
        self.fp
    }

    /// Exclusive end of the basic block containing each instruction.
    /// Blocks tile the program: leaders are instruction 0, every
    /// label, every branch target and the instruction after every
    /// block-ending one, so any entry pc (labels, `jr`/`ret` targets)
    /// lands inside a block. The executor checks the pc range once per
    /// block.
    pub(crate) fn block_ends(&self) -> &[u32] {
        &self.block_ends
    }

    /// [`Insn::class`] of each instruction, looked up once at assembly
    /// so the executor counts classes without a branch.
    pub(crate) fn classes(&self) -> &[InsnClass] {
        &self.classes
    }

    /// Global labels — those not starting with `.`. By the kernel
    /// libraries' convention these are the host-callable entry points,
    /// while `.name` labels are function-local branch targets.
    pub fn global_labels(&self) -> impl Iterator<Item = (&str, usize)> {
        self.labels
            .iter()
            .filter(|(name, _)| !name.starts_with('.'))
            .map(|(name, &at)| (name.as_str(), at))
    }
}

/// Error produced when assembly fails, with the 1-based source line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AssembleError {
    /// 1-based line number.
    pub line: usize,
    /// Failure description.
    pub message: String,
}

impl fmt::Display for AssembleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for AssembleError {}

fn err(line: usize, message: impl Into<String>) -> AssembleError {
    AssembleError {
        line,
        message: message.into(),
    }
}

/// Assembles XR32 source text into a [`Program`].
///
/// # Errors
///
/// Returns [`AssembleError`] on unknown mnemonics, malformed operands,
/// out-of-range immediates, duplicate labels, or undefined branch
/// targets.
///
/// # Examples
///
/// ```
/// use xr32::asm::assemble;
///
/// let p = assemble("start: movi a0, 1\n j start")?;
/// assert_eq!(p.len(), 2);
/// assert_eq!(p.label("start"), Some(0));
/// # Ok::<(), xr32::asm::AssembleError>(())
/// ```
pub fn assemble(src: &str) -> Result<Program, AssembleError> {
    // Pass 1: strip comments, record labels, collect (line_no, stmt).
    let mut stmts: Vec<(usize, String)> = Vec::new();
    let mut labels: BTreeMap<String, usize> = BTreeMap::new();
    for (idx, raw) in src.lines().enumerate() {
        let line_no = idx + 1;
        let mut text = raw;
        if let Some(p) = text.find([';', '#']) {
            text = &text[..p];
        }
        let mut rest = text.trim();
        // Peel off any number of labels.
        while let Some(colon) = rest.find(':') {
            let (head, tail) = rest.split_at(colon);
            let name = head.trim();
            if !is_ident(name) {
                return Err(err(line_no, format!("invalid label name {name:?}")));
            }
            if labels.insert(name.to_owned(), stmts.len()).is_some() {
                return Err(err(line_no, format!("duplicate label {name:?}")));
            }
            rest = tail[1..].trim();
        }
        if !rest.is_empty() {
            stmts.push((line_no, rest.to_owned()));
        }
    }

    // Pass 2: parse each statement.
    let mut insns = Vec::with_capacity(stmts.len());
    let mut lines = Vec::with_capacity(stmts.len());
    for (line_no, stmt) in &stmts {
        let insn = parse_stmt(*line_no, stmt, &labels)?;
        insns.push(insn);
        lines.push(*line_no);
    }
    let mut names_by_pc: Vec<Option<String>> = vec![None; insns.len()];
    for (name, &at) in &labels {
        if at < names_by_pc.len() && names_by_pc[at].is_none() {
            names_by_pc[at] = Some(name.clone());
        }
    }
    let mut hasher = std::collections::hash_map::DefaultHasher::new();
    insns.hash(&mut hasher);
    let fp = hasher.finish();
    let block_ends = block_ends(&insns, &labels);
    let classes = insns.iter().map(Insn::class).collect();
    Ok(Program {
        insns,
        labels,
        lines,
        names_by_pc,
        fp,
        block_ends,
        classes,
    })
}

fn block_ends(insns: &[Insn], labels: &BTreeMap<String, usize>) -> Vec<u32> {
    let n = insns.len();
    let mut leader = vec![false; n + 1];
    leader[n] = true;
    for &at in labels.values().filter(|&&at| at <= n) {
        leader[at] = true;
    }
    for (pc, insn) in insns.iter().enumerate() {
        if let Some(t) = insn.branch_target().filter(|&t| t <= n) {
            leader[t] = true;
        }
        if insn.ends_block() {
            leader[pc + 1] = true;
        }
    }
    let mut ends = vec![0u32; n];
    let mut end = n as u32;
    for pc in (0..n).rev() {
        if leader[pc + 1] {
            end = (pc + 1) as u32;
        }
        ends[pc] = end;
    }
    ends
}

fn is_ident(s: &str) -> bool {
    !s.is_empty()
        && s.chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphabetic() || c == '_' || c == '.')
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.')
}

fn parse_stmt(
    line: usize,
    stmt: &str,
    labels: &BTreeMap<String, usize>,
) -> Result<Insn, AssembleError> {
    let (mnemonic, ops_text) = match stmt.find(char::is_whitespace) {
        Some(p) => (&stmt[..p], stmt[p..].trim()),
        None => (stmt, ""),
    };
    let mnemonic = mnemonic.to_ascii_lowercase();
    let ops: Vec<&str> = if ops_text.is_empty() {
        Vec::new()
    } else {
        ops_text.split(',').map(str::trim).collect()
    };

    let reg = |i: usize| -> Result<Reg, AssembleError> {
        parse_reg(
            ops.get(i)
                .copied()
                .ok_or_else(|| err(line, format!("`{mnemonic}` missing operand {}", i + 1)))?,
        )
        .ok_or_else(|| err(line, format!("expected register, found {:?}", ops[i])))
    };
    let imm = |i: usize, lo: i64, hi: i64| -> Result<i32, AssembleError> {
        let text = ops
            .get(i)
            .copied()
            .ok_or_else(|| err(line, format!("`{mnemonic}` missing operand {}", i + 1)))?;
        let v = parse_imm(text).ok_or_else(|| err(line, format!("bad immediate {text:?}")))?;
        if v < lo || v > hi {
            return Err(err(
                line,
                format!("immediate {v} out of range [{lo}, {hi}] for `{mnemonic}`"),
            ));
        }
        Ok(v as i32)
    };
    let target = |i: usize| -> Result<usize, AssembleError> {
        let text = ops
            .get(i)
            .copied()
            .ok_or_else(|| err(line, format!("`{mnemonic}` missing target")))?;
        labels
            .get(text)
            .copied()
            .ok_or_else(|| err(line, format!("undefined label {text:?}")))
    };
    let arity = |n: usize| -> Result<(), AssembleError> {
        if ops.len() == n {
            Ok(())
        } else {
            Err(err(
                line,
                format!("`{mnemonic}` expects {n} operands, found {}", ops.len()),
            ))
        }
    };

    let insn = match mnemonic.as_str() {
        "add" => {
            arity(3)?;
            Insn::Add(reg(0)?, reg(1)?, reg(2)?)
        }
        "addc" => {
            arity(3)?;
            Insn::Addc(reg(0)?, reg(1)?, reg(2)?)
        }
        "sub" => {
            arity(3)?;
            Insn::Sub(reg(0)?, reg(1)?, reg(2)?)
        }
        "subc" => {
            arity(3)?;
            Insn::Subc(reg(0)?, reg(1)?, reg(2)?)
        }
        "and" => {
            arity(3)?;
            Insn::And(reg(0)?, reg(1)?, reg(2)?)
        }
        "or" => {
            arity(3)?;
            Insn::Or(reg(0)?, reg(1)?, reg(2)?)
        }
        "xor" => {
            arity(3)?;
            Insn::Xor(reg(0)?, reg(1)?, reg(2)?)
        }
        "sll" => {
            arity(3)?;
            Insn::Sll(reg(0)?, reg(1)?, reg(2)?)
        }
        "srl" => {
            arity(3)?;
            Insn::Srl(reg(0)?, reg(1)?, reg(2)?)
        }
        "sra" => {
            arity(3)?;
            Insn::Sra(reg(0)?, reg(1)?, reg(2)?)
        }
        "sltu" => {
            arity(3)?;
            Insn::Sltu(reg(0)?, reg(1)?, reg(2)?)
        }
        "slt" => {
            arity(3)?;
            Insn::Slt(reg(0)?, reg(1)?, reg(2)?)
        }
        "mul" => {
            arity(3)?;
            Insn::Mul(reg(0)?, reg(1)?, reg(2)?)
        }
        "mulhu" => {
            arity(3)?;
            Insn::Mulhu(reg(0)?, reg(1)?, reg(2)?)
        }
        "addi" => {
            arity(3)?;
            Insn::Addi(reg(0)?, reg(1)?, imm(2, -2048, 2047)?)
        }
        "andi" => {
            arity(3)?;
            Insn::Andi(reg(0)?, reg(1)?, imm(2, 0, 4095)? as u32)
        }
        "ori" => {
            arity(3)?;
            Insn::Ori(reg(0)?, reg(1)?, imm(2, 0, 4095)? as u32)
        }
        "xori" => {
            arity(3)?;
            Insn::Xori(reg(0)?, reg(1)?, imm(2, 0, 4095)? as u32)
        }
        "slli" => {
            arity(3)?;
            Insn::Slli(reg(0)?, reg(1)?, imm(2, 0, 31)? as u32)
        }
        "srli" => {
            arity(3)?;
            Insn::Srli(reg(0)?, reg(1)?, imm(2, 0, 31)? as u32)
        }
        "srai" => {
            arity(3)?;
            Insn::Srai(reg(0)?, reg(1)?, imm(2, 0, 31)? as u32)
        }
        "movi" => {
            arity(2)?;
            Insn::Movi(reg(0)?, imm(1, i32::MIN as i64, u32::MAX as i64)?)
        }
        "mov" => {
            arity(2)?;
            Insn::Mov(reg(0)?, reg(1)?)
        }
        "lw" => {
            arity(3)?;
            Insn::Lw(reg(0)?, reg(1)?, imm(2, -2048, 2047)?)
        }
        "sw" => {
            arity(3)?;
            Insn::Sw(reg(0)?, reg(1)?, imm(2, -2048, 2047)?)
        }
        "lbu" => {
            arity(3)?;
            Insn::Lbu(reg(0)?, reg(1)?, imm(2, -2048, 2047)?)
        }
        "sb" => {
            arity(3)?;
            Insn::Sb(reg(0)?, reg(1)?, imm(2, -2048, 2047)?)
        }
        "lhu" => {
            arity(3)?;
            Insn::Lhu(reg(0)?, reg(1)?, imm(2, -2048, 2047)?)
        }
        "sh" => {
            arity(3)?;
            Insn::Sh(reg(0)?, reg(1)?, imm(2, -2048, 2047)?)
        }
        "beq" => {
            arity(3)?;
            Insn::Beq(reg(0)?, reg(1)?, target(2)?)
        }
        "bne" => {
            arity(3)?;
            Insn::Bne(reg(0)?, reg(1)?, target(2)?)
        }
        "bltu" => {
            arity(3)?;
            Insn::Bltu(reg(0)?, reg(1)?, target(2)?)
        }
        "bgeu" => {
            arity(3)?;
            Insn::Bgeu(reg(0)?, reg(1)?, target(2)?)
        }
        "blt" => {
            arity(3)?;
            Insn::Blt(reg(0)?, reg(1)?, target(2)?)
        }
        "bge" => {
            arity(3)?;
            Insn::Bge(reg(0)?, reg(1)?, target(2)?)
        }
        "j" => {
            arity(1)?;
            Insn::J(target(0)?)
        }
        "call" => {
            arity(1)?;
            Insn::Call(target(0)?)
        }
        "jr" => {
            arity(1)?;
            Insn::Jr(reg(0)?)
        }
        "ret" => {
            arity(0)?;
            Insn::Ret
        }
        "clc" => {
            arity(0)?;
            Insn::Clc
        }
        "nop" => {
            arity(0)?;
            Insn::Nop
        }
        "halt" => {
            arity(0)?;
            Insn::Halt
        }
        "cust" => {
            if ops.is_empty() {
                return Err(err(line, "`cust` needs an instruction name"));
            }
            // First operand token is the name; it may be fused with the
            // first real operand by whitespace.
            let mut parts = ops[0].splitn(2, char::is_whitespace);
            let name = parts.next().expect("nonempty").to_owned();
            let mut rest: Vec<&str> = Vec::new();
            if let Some(tail) = parts.next() {
                let t = tail.trim();
                if !t.is_empty() {
                    rest.push(t);
                }
            }
            rest.extend(ops.iter().skip(1).copied());
            let mut regs = Vec::new();
            let mut uregs = Vec::new();
            let mut imm_val: Option<i32> = None;
            for tok in rest {
                if let Some(ur) = parse_ureg(tok) {
                    uregs.push(ur);
                } else if let Some(r) = parse_reg(tok) {
                    regs.push(r);
                } else if let Some(v) = parse_imm(tok) {
                    if imm_val.is_some() {
                        return Err(err(line, "custom instruction takes at most one immediate"));
                    }
                    imm_val = Some(v as i32);
                } else {
                    return Err(err(line, format!("bad custom operand {tok:?}")));
                }
            }
            Insn::Custom(Box::new(CustomOp {
                name,
                regs,
                uregs,
                imm: imm_val.unwrap_or(0),
            }))
        }
        other => return Err(err(line, format!("unknown mnemonic `{other}`"))),
    };
    Ok(insn)
}

fn parse_reg(s: &str) -> Option<Reg> {
    let s = s.trim();
    match s {
        "sp" => return Some(Reg::SP),
        "ra" => return Some(Reg::RA),
        _ => {}
    }
    let rest = s.strip_prefix('a')?;
    let n: u8 = rest.parse().ok()?;
    if n < 16 {
        Some(Reg::new(n))
    } else {
        None
    }
}

fn parse_ureg(s: &str) -> Option<UserReg> {
    let rest = s.trim().strip_prefix("ur")?;
    let n: u8 = rest.parse().ok()?;
    if n < 16 {
        Some(UserReg::new(n))
    } else {
        None
    }
}

fn parse_imm(s: &str) -> Option<i64> {
    let s = s.trim();
    let (neg, body) = match s.strip_prefix('-') {
        Some(b) => (true, b),
        None => (false, s),
    };
    let v = if let Some(hex) = body.strip_prefix("0x").or_else(|| body.strip_prefix("0X")) {
        i64::from_str_radix(hex, 16).ok()?
    } else {
        body.parse::<i64>().ok()?
    };
    Some(if neg { -v } else { v })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn assembles_basic_program() {
        let p = assemble(
            "start:
                movi a0, 10
                movi a1, 0
            loop:
                add  a1, a1, a0
                addi a0, a0, -1
                bne  a0, a2, loop
                halt",
        )
        .unwrap();
        assert_eq!(p.len(), 6);
        assert_eq!(p.label("start"), Some(0));
        assert_eq!(p.label("loop"), Some(2));
        assert_eq!(
            p.insns()[2],
            Insn::Add(Reg::new(1), Reg::new(1), Reg::new(0))
        );
    }

    #[test]
    fn labels_can_share_line_with_insn() {
        let p = assemble("a: b: nop").unwrap();
        assert_eq!(p.label("a"), Some(0));
        assert_eq!(p.label("b"), Some(0));
        assert_eq!(p.len(), 1);
    }

    #[test]
    fn comments_are_stripped() {
        let p = assemble("; full line\n nop ; trailing\n # hash\n nop # x").unwrap();
        assert_eq!(p.len(), 2);
    }

    #[test]
    fn register_aliases_parse() {
        let p = assemble("mov sp, ra").unwrap();
        assert_eq!(p.insns()[0], Insn::Mov(Reg::SP, Reg::RA));
    }

    #[test]
    fn hex_and_negative_immediates() {
        let p = assemble("movi a0, 0xdeadbeef\n addi a1, a1, -4").unwrap();
        assert_eq!(p.insns()[0], Insn::Movi(Reg::new(0), 0xdeadbeefu32 as i32));
        assert_eq!(p.insns()[1], Insn::Addi(Reg::new(1), Reg::new(1), -4));
    }

    #[test]
    fn custom_instruction_operands_sorted_by_kind() {
        let p = assemble("cust add4 ur0, ur1, a3, 16").unwrap();
        match &p.insns()[0] {
            Insn::Custom(op) => {
                assert_eq!(op.name, "add4");
                assert_eq!(op.uregs, vec![UserReg::new(0), UserReg::new(1)]);
                assert_eq!(op.regs, vec![Reg::new(3)]);
                assert_eq!(op.imm, 16);
            }
            other => panic!("expected custom, got {other:?}"),
        }
    }

    #[test]
    fn errors_carry_line_numbers() {
        let e = assemble("nop\n bogus a0").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.message.contains("bogus"));
    }

    #[test]
    fn undefined_label_rejected() {
        let e = assemble("j nowhere").unwrap_err();
        assert!(e.message.contains("undefined label"));
    }

    #[test]
    fn duplicate_label_rejected() {
        let e = assemble("x: nop\nx: nop").unwrap_err();
        assert!(e.message.contains("duplicate"));
    }

    #[test]
    fn immediate_range_enforced() {
        assert!(assemble("addi a0, a0, 5000").is_err());
        assert!(assemble("slli a0, a0, 32").is_err());
        assert!(assemble("andi a0, a0, -1").is_err());
        assert!(assemble("addi a0, a0, 2047").is_ok());
    }

    #[test]
    fn arity_enforced() {
        assert!(assemble("add a0, a1").is_err());
        assert!(assemble("ret a0").is_err());
    }

    #[test]
    fn forward_references_resolve() {
        let p = assemble("j end\n nop\n end: halt").unwrap();
        assert_eq!(p.insns()[0], Insn::J(2));
    }

    #[test]
    fn line_of_maps_back_to_source() {
        let p = assemble("\n\n nop\n\n halt").unwrap();
        assert_eq!(p.line_of(0), Some(3));
        assert_eq!(p.line_of(1), Some(5));
    }
}
