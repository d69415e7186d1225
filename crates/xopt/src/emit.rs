//! Wide-datapath emission: rewrite a matched canonical loop into a
//! blocked loop over the family's custom instructions, keeping the
//! canonical body as the scalar tail.
//!
//! The generated unit mirrors the hand-written accelerated library's
//! structure — `k`-limb blocks through `ldur`/`add<k>`-or-`mac<k>`/
//! `stur`, a scalar tail for the remaining `n mod k` limbs, and the
//! canonical epilogue — but is derived mechanically from the matched
//! roles, so it works for any kernel whose dataflow matches the
//! pattern, not just the two the library hand-codes. The scalar tail
//! is the canonical body verbatim (minus the back-branch); the list
//! scheduler then rebalances it, which is where generated variants
//! recover the interlock stalls the hand-written tails pay.

use kreg::AccelLevel;
use xr32::isa::{CustomOp, Insn, Reg, UserReg};

use crate::select::{LoopShape, PatternMatch};
use crate::unit::{Item, Unit};
use crate::OptError;

/// The blocking threshold register: the lowest general register the
/// unit never mentions (outside sp/ra), so the insertion cannot clobber
/// live state.
fn free_reg(unit: &Unit) -> Result<Reg, OptError> {
    let mut used = [false; 16];
    used[Reg::SP.index()] = true;
    used[Reg::RA.index()] = true;
    for item in &unit.items {
        if let Item::Op { insn, .. } = item {
            for &r in insn.sources().iter() {
                used[r.index()] = true;
            }
            if let Some(d) = insn.dest() {
                used[d.index()] = true;
            }
            if let Insn::Custom(op) = insn {
                for &r in &op.regs {
                    used[r.index()] = true;
                }
            }
        }
    }
    (0..14)
        .find(|&i| !used[i])
        .map(|i| Reg::new(i as u8))
        .ok_or(OptError::NoFreeReg)
}

fn cust(name: String, regs: Vec<Reg>, uregs: Vec<UserReg>, imm: i32) -> Item {
    Item::Op {
        insn: Insn::Custom(Box::new(CustomOp {
            name,
            regs,
            uregs,
            imm,
        })),
        target: None,
    }
}

fn op(insn: Insn) -> Item {
    Item::Op { insn, target: None }
}

fn branch(insn: Insn, target: &str) -> Item {
    Item::Op {
        insn,
        target: Some(target.to_string()),
    }
}

/// Splits `unit` around the matched loop: `(prologue, body, epilogue)`
/// item ranges, where the body excludes the head label (kept in the
/// prologue slice boundary) and includes the back-branch.
fn split(unit: &Unit, shape: LoopShape) -> Result<(usize, usize, usize), OptError> {
    let head_ix = unit
        .item_of_pc(shape.head)
        .ok_or_else(|| OptError::Unsupported("loop head outside unit".into()))?;
    let back_ix = unit
        .item_of_pc(shape.back)
        .ok_or_else(|| OptError::Unsupported("loop back-branch outside unit".into()))?;
    // The head label (an `Item::Label` immediately before the first
    // body op) belongs to the removed loop.
    let mut lo = head_ix;
    while lo > 0 && matches!(unit.items[lo - 1], Item::Label(ref l) if l.starts_with('.')) {
        lo -= 1;
    }
    Ok((lo, head_ix, back_ix))
}

/// Emits the blocked variant of `unit` for `level`, given the matched
/// roles. The signature annotations for the custom instructions used
/// are prepended so the taint checker and the scheduler see them.
pub fn emit(unit: &Unit, m: &PatternMatch, level: &AccelLevel) -> Result<Unit, OptError> {
    let shape = m.shape();
    let thr = free_reg(unit)?;
    let (lo, head_ix, back_ix) = split(unit, shape)?;

    let (lanes, block_insns, sig_annots) = match *m {
        PatternMatch::Elementwise(em) => {
            let k = level.add_lanes;
            let mnem = if em.subtract { "sub" } else { "add" };
            let sigs = vec![
                ";! cust ldur regs=1 uregs=1 kind=load".to_string(),
                ";! cust stur regs=1 uregs=1 kind=store".to_string(),
                format!(";! cust {mnem}{k} regs=0 uregs=3 kind=compute reads-carry writes-carry"),
            ];
            let ops = vec![
                cust("ldur".into(), vec![em.ap], vec![UserReg::new(0)], k as i32),
                cust("ldur".into(), vec![em.bp], vec![UserReg::new(1)], k as i32),
                cust(
                    format!("{mnem}{k}"),
                    vec![],
                    vec![UserReg::new(2), UserReg::new(0), UserReg::new(1)],
                    0,
                ),
                cust("stur".into(), vec![em.rp], vec![UserReg::new(2)], k as i32),
                op(Insn::Addi(em.rp, em.rp, 4 * k as i32)),
                op(Insn::Addi(em.ap, em.ap, 4 * k as i32)),
                op(Insn::Addi(em.bp, em.bp, 4 * k as i32)),
            ];
            (k, ops, sigs)
        }
        PatternMatch::MulAcc(mm) => {
            let k = level.mac_lanes;
            let mnem = if mm.subtract { "msub" } else { "mac" };
            let sigs = vec![
                ";! cust ldur regs=1 uregs=1 kind=load".to_string(),
                ";! cust stur regs=1 uregs=1 kind=store".to_string(),
                format!(";! cust {mnem}{k} regs=2 uregs=2 kind=compute writes-reg=1"),
            ];
            let ops = vec![
                cust("ldur".into(), vec![mm.rp], vec![UserReg::new(0)], k as i32),
                cust("ldur".into(), vec![mm.ap], vec![UserReg::new(1)], k as i32),
                cust(
                    format!("{mnem}{k}"),
                    vec![mm.b, mm.carry],
                    vec![UserReg::new(0), UserReg::new(1)],
                    0,
                ),
                cust("stur".into(), vec![mm.rp], vec![UserReg::new(0)], k as i32),
                op(Insn::Addi(mm.rp, mm.rp, 4 * k as i32)),
                op(Insn::Addi(mm.ap, mm.ap, 4 * k as i32)),
            ];
            (k, ops, sigs)
        }
    };

    let mut items = Vec::new();
    // Custom signatures first, then the unit's own annotations.
    for s in sig_annots {
        items.push(Item::Annot(s));
    }
    for it in &unit.items {
        if let Item::Annot(_) = it {
            items.push(it.clone());
        }
    }
    // Prologue (labels + ops before the loop), skipping annotations
    // (already emitted).
    for it in &unit.items[..lo] {
        if !matches!(it, Item::Annot(_)) {
            items.push(it.clone());
        }
    }
    // Blocking threshold.
    items.push(op(Insn::Movi(thr, lanes as i32)));
    // Blocked loop.
    items.push(Item::Label(".xg_blk".into()));
    items.push(branch(Insn::Bltu(shape.counter, thr, 0), ".xg_tail"));
    items.extend(block_insns);
    items.push(op(Insn::Addi(
        shape.counter,
        shape.counter,
        -(lanes as i32),
    )));
    items.push(branch(Insn::J(0), ".xg_blk"));
    // Scalar tail: the canonical body minus its back-branch, re-looped.
    items.push(Item::Label(".xg_tail".into()));
    items.push(branch(Insn::Beq(shape.counter, shape.zero, 0), ".xg_done"));
    for it in &unit.items[head_ix..back_ix] {
        items.push(it.clone());
    }
    items.push(branch(Insn::J(0), ".xg_tail"));
    // Epilogue.
    items.push(Item::Label(".xg_done".into()));
    for it in &unit.items[back_ix + 1..] {
        items.push(it.clone());
    }
    Ok(Unit { items })
}

#[cfg(test)]
mod tests {
    use super::*;
    use kreg::{id, kernels::mpn, registry, LoopPattern};
    use xlint::ir::UnitIr;

    fn emit_for(id: kreg::KernelId, pattern: LoopPattern, level: &AccelLevel) -> Unit {
        let src = mpn::canonical_source32(id).unwrap();
        let ir = UnitIr::from_source(src).unwrap();
        let m = crate::select::match_pattern(&ir, id.name(), pattern).unwrap();
        let unit = Unit::parse(src).unwrap();
        emit(&unit, &m, level).unwrap()
    }

    #[test]
    fn blocked_add_n_assembles_and_keeps_the_entry() {
        let desc = registry().iter().find(|d| d.id == id::ADD_N).unwrap();
        let level = desc.family.unwrap().levels[1]; // 4 lanes
        let unit = emit_for(id::ADD_N, LoopPattern::ElementwiseCarry, &level);
        let printed = unit.print();
        let prog = xr32::asm::assemble(&printed).unwrap();
        assert!(prog.label("mpn_add_n").is_some(), "{printed}");
        assert!(printed.contains("cust add4 ur2, ur0, ur1"), "{printed}");
        assert!(printed.contains("movi a7, 4"), "{printed}");
        assert!(printed.contains(";! cust add4"), "{printed}");
        // The canonical secret annotation survives.
        assert!(printed.contains("secret-ptr=a1,a2"), "{printed}");
    }

    #[test]
    fn blocked_addmul_uses_the_carry_gpr() {
        let desc = registry().iter().find(|d| d.id == id::ADDMUL_1).unwrap();
        let level = desc.family.unwrap().levels[2]; // 4 mac lanes
        let unit = emit_for(id::ADDMUL_1, LoopPattern::MulAccumulate, &level);
        let printed = unit.print();
        xr32::asm::assemble(&printed).unwrap();
        assert!(printed.contains("cust mac4 ur0, ur1, a3, a7"), "{printed}");
        assert!(printed.contains("movi a11, 4"), "{printed}");
    }
}
