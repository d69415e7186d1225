//! The metered basic-operations interface.
//!
//! The paper's layered software architecture treats the basic operations
//! (`mpn_add_n`, `mpn_addmul_1`, …) as black boxes below the algorithm
//! layer. [`MpnOps`] is that boundary: the modular-exponentiation
//! algorithms in [`crate::algo`]/[`crate::modexp`] perform *all* limb
//! work through it, so swapping the implementation swaps the evaluation
//! method:
//!
//! - [`NativeMpn`]: plain computation, only call counting — the fastest
//!   way to check functional behavior;
//! - [`ModeledMpn`]: computation plus cycle accrual from fitted
//!   macro-models — the paper's native-execution estimation (§3.2);
//! - an ISS-backed implementation (in the `secproc` crate): every call
//!   runs the XR32 assembly kernel on the cycle-accurate simulator —
//!   the paper's slow reference.
//!
//! Every provider meters an op by its position in [`kreg::id::MPN`]
//! (its [`slot`]), never by name: a metered call bumps one array cell
//! of [`OpCounts`] and, for [`ModeledMpn`], reads one cell of a
//! [`ModelTable`].

use kreg::{id, KernelId};
use macromodel::model::MacroModel;
use mpint::limb::Limb;
use mpint::mpn;
use std::collections::BTreeMap;
use std::ops::Index;
use std::sync::Arc;

/// Canonical names of the metered basic operations (used as macro-model
/// registry keys and kernel names). These are the kernel-registry names:
/// the typed ids live in [`kreg::id`].
pub use kreg::opname;

/// The [`OpCounts`] / [`ModelTable`] slot of each basic op: its
/// position in [`kreg::id::MPN`], resolved at compile time.
pub mod slot {
    use kreg::{id, KernelId};

    const fn of(op: KernelId) -> usize {
        match op.mpn_index() {
            Some(i) => i,
            None => panic!("not a basic op"),
        }
    }

    /// `mpn_add_n`
    pub const ADD_N: usize = of(id::ADD_N);
    /// `mpn_sub_n`
    pub const SUB_N: usize = of(id::SUB_N);
    /// `mpn_mul_1`
    pub const MUL_1: usize = of(id::MUL_1);
    /// `mpn_addmul_1`
    pub const ADDMUL_1: usize = of(id::ADDMUL_1);
    /// `mpn_submul_1`
    pub const SUBMUL_1: usize = of(id::SUBMUL_1);
    /// `mpn_lshift`
    pub const LSHIFT: usize = of(id::LSHIFT);
    /// `mpn_rshift`
    pub const RSHIFT: usize = of(id::RSHIFT);
    /// `div_qhat`
    pub const DIV_QHAT: usize = of(id::DIV_QHAT);
}

/// Calls recorded per basic op, one cell per op in [`kreg::id::MPN`]
/// order. Index it by [`KernelId`]: `counts[id::ADDMUL_1]`. An op that
/// was never called reads 0.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpCounts([u64; 8]);

impl OpCounts {
    /// Counts one call of the op in `slot` (see [`mod@slot`]).
    pub fn bump(&mut self, slot: usize) {
        self.0[slot] += 1;
    }

    /// Zeroes every count.
    pub fn clear(&mut self) {
        *self = OpCounts::default();
    }
}

impl Index<KernelId> for OpCounts {
    type Output = u64;

    /// # Panics
    ///
    /// Panics when `op` is not a basic op (not in [`kreg::id::MPN`]).
    fn index(&self, op: KernelId) -> &u64 {
        let slot = op.mpn_index();
        &self.0[slot.unwrap_or_else(|| panic!("{op} is not a basic op"))]
    }
}

/// The basic-operations provider: computes limb-level results and
/// accounts their cost.
pub trait MpnOps<L: Limb> {
    /// `r = a + b`, returning the carry (see [`mpn::add_n`]).
    fn add_n(&mut self, r: &mut [L], a: &[L], b: &[L]) -> bool;
    /// `r = a - b`, returning the borrow.
    fn sub_n(&mut self, r: &mut [L], a: &[L], b: &[L]) -> bool;
    /// `r = a * b` (single-limb `b`), returning the high limb.
    fn mul_1(&mut self, r: &mut [L], a: &[L], b: L) -> L;
    /// `r += a * b`, returning the carry limb.
    fn addmul_1(&mut self, r: &mut [L], a: &[L], b: L) -> L;
    /// `r -= a * b`, returning the borrow limb.
    fn submul_1(&mut self, r: &mut [L], a: &[L], b: L) -> L;
    /// Left shift by `0 < cnt < L::BITS`.
    fn lshift(&mut self, r: &mut [L], a: &[L], cnt: u32) -> L;
    /// Right shift by `0 < cnt < L::BITS`.
    fn rshift(&mut self, r: &mut [L], a: &[L], cnt: u32) -> L;
    /// Knuth division quotient-limb estimate with correction
    /// (divides `(n2, n1, n0)` by normalized `(d1, d0)`).
    fn div_qhat(&mut self, n2: L, n1: L, n0: L, d1: L, d0: L) -> L;
    /// Accounts `units` of algorithm-layer control overhead (loop
    /// bookkeeping, function-call glue) — cycles outside the basic ops.
    fn glue(&mut self, units: u64);

    /// Cycles accounted so far.
    fn cycles(&self) -> f64;
    /// Resets the cycle and call counters.
    fn reset(&mut self);
    /// Calls recorded per basic op since the last [`MpnOps::reset`],
    /// for both limb widths together.
    fn call_counts(&self) -> &OpCounts;
}

/// Reference implementation of the 3-by-2 quotient estimate shared by
/// all providers (semantics must be identical across them). Lives in
/// [`mpn`] so the kernel registry can embed it as a golden reference.
pub use mpint::mpn::div_qhat_reference;

/// Pure computation with call counting (zero cycle cost).
#[derive(Debug, Clone, Default)]
pub struct NativeMpn {
    counts: OpCounts,
}

impl NativeMpn {
    /// Creates a fresh provider.
    pub fn new() -> Self {
        Self::default()
    }
}

impl<L: Limb> MpnOps<L> for NativeMpn {
    fn add_n(&mut self, r: &mut [L], a: &[L], b: &[L]) -> bool {
        self.counts.bump(slot::ADD_N);
        mpn::add_n(r, a, b)
    }

    fn sub_n(&mut self, r: &mut [L], a: &[L], b: &[L]) -> bool {
        self.counts.bump(slot::SUB_N);
        mpn::sub_n(r, a, b)
    }

    fn mul_1(&mut self, r: &mut [L], a: &[L], b: L) -> L {
        self.counts.bump(slot::MUL_1);
        mpn::mul_1(r, a, b)
    }

    fn addmul_1(&mut self, r: &mut [L], a: &[L], b: L) -> L {
        self.counts.bump(slot::ADDMUL_1);
        mpn::addmul_1(r, a, b)
    }

    fn submul_1(&mut self, r: &mut [L], a: &[L], b: L) -> L {
        self.counts.bump(slot::SUBMUL_1);
        mpn::submul_1(r, a, b)
    }

    fn lshift(&mut self, r: &mut [L], a: &[L], cnt: u32) -> L {
        self.counts.bump(slot::LSHIFT);
        mpn::lshift(r, a, cnt)
    }

    fn rshift(&mut self, r: &mut [L], a: &[L], cnt: u32) -> L {
        self.counts.bump(slot::RSHIFT);
        mpn::rshift(r, a, cnt)
    }

    fn div_qhat(&mut self, n2: L, n1: L, n0: L, d1: L, d0: L) -> L {
        self.counts.bump(slot::DIV_QHAT);
        div_qhat_reference(n2, n1, n0, d1, d0)
    }

    fn glue(&mut self, _units: u64) {}

    fn cycles(&self) -> f64 {
        0.0
    }

    fn reset(&mut self) {
        self.counts.clear();
    }

    fn call_counts(&self) -> &OpCounts {
        &self.counts
    }
}

/// Per-op macro-models indexed by limb width and [`mod@slot`]: row 0
/// serves 32-bit limbs, row 1 16-bit limbs. `None` marks an op with
/// no model. Built once from name-keyed registries and shared (through
/// an [`Arc`]) by every provider that meters with it.
#[derive(Debug, Clone)]
pub struct ModelTable([[Option<MacroModel>; 8]; 2]);

impl ModelTable {
    /// Indexes per-op registries (keyed by [`opname`] constants) for
    /// 32-bit and 16-bit limbs. Keys that are not basic ops are
    /// ignored.
    pub fn new(
        models32: &BTreeMap<&'static str, MacroModel>,
        models16: &BTreeMap<&'static str, MacroModel>,
    ) -> Self {
        let row = |models: &BTreeMap<&'static str, MacroModel>| {
            id::MPN.map(|op| models.get(op.name()).cloned())
        };
        ModelTable([row(models32), row(models16)])
    }
}

/// Computation plus macro-model cycle accrual: the paper's fast
/// native-execution performance estimation.
///
/// Each basic op's cycles come from a fitted [`MacroModel`] evaluated at
/// the operand length (in limbs); `div_qhat` is charged at length 1 and
/// `glue` at a constant per-unit cost.
///
/// A metered call indexes a shared [`ModelTable`] by limb width and
/// [`mod@slot`], and takes the model's value from a per-provider memo
/// of `predict(&[len])` keyed by (width, op, len), filled on first
/// use. [`MacroModel::predict`] is pure and every call still adds its
/// own value in call order, so the total is bit-identical to calling
/// `predict` on every call. [`MpnOps::reset`] keeps the memo.
#[derive(Debug, Clone)]
pub struct ModeledMpn {
    table: Arc<ModelTable>,
    memo: [[Vec<Option<f64>>; 8]; 2],
    glue_cost: f64,
    cycles: f64,
    counts: OpCounts,
}

impl ModeledMpn {
    /// Builds a provider from per-op macro-models (keyed by
    /// [`opname`] constants) and a per-unit glue cost. The same models
    /// serve both limb widths; use [`ModeledMpn::with_radix_models`]
    /// when the 16-bit kernels were characterized separately.
    ///
    /// Ops without a model cost zero cycles (call counting still
    /// happens), so partial registries degrade gracefully during
    /// bring-up.
    pub fn new(models: BTreeMap<&'static str, MacroModel>, glue_cost: f64) -> Self {
        Self::with_table(Arc::new(ModelTable::new(&models, &models)), glue_cost)
    }

    /// Builds a provider with distinct model registries per limb width
    /// (radix 2^32 vs. radix 2^16 kernels have different cycle
    /// profiles).
    pub fn with_radix_models(
        models32: BTreeMap<&'static str, MacroModel>,
        models16: BTreeMap<&'static str, MacroModel>,
        glue_cost: f64,
    ) -> Self {
        Self::with_table(Arc::new(ModelTable::new(&models32, &models16)), glue_cost)
    }

    /// Builds a provider over a shared model table, with an empty memo.
    pub fn with_table(table: Arc<ModelTable>, glue_cost: f64) -> Self {
        ModeledMpn {
            table,
            memo: Default::default(),
            glue_cost,
            cycles: 0.0,
            counts: OpCounts::default(),
        }
    }

    fn charge(&mut self, width: u32, slot: usize, len: usize) {
        self.counts.bump(slot);
        let w = usize::from(width == 16);
        if let Some(model) = &self.table.0[w][slot] {
            let memo = &mut self.memo[w][slot];
            if memo.len() <= len {
                memo.resize(len + 1, None);
            }
            self.cycles += *memo[len].get_or_insert_with(|| model.predict(&[len as u64]));
        }
    }
}

impl<L: Limb> MpnOps<L> for ModeledMpn {
    fn add_n(&mut self, r: &mut [L], a: &[L], b: &[L]) -> bool {
        self.charge(L::BITS, slot::ADD_N, a.len());
        mpn::add_n(r, a, b)
    }

    fn sub_n(&mut self, r: &mut [L], a: &[L], b: &[L]) -> bool {
        self.charge(L::BITS, slot::SUB_N, a.len());
        mpn::sub_n(r, a, b)
    }

    fn mul_1(&mut self, r: &mut [L], a: &[L], b: L) -> L {
        self.charge(L::BITS, slot::MUL_1, a.len());
        mpn::mul_1(r, a, b)
    }

    fn addmul_1(&mut self, r: &mut [L], a: &[L], b: L) -> L {
        self.charge(L::BITS, slot::ADDMUL_1, a.len());
        mpn::addmul_1(r, a, b)
    }

    fn submul_1(&mut self, r: &mut [L], a: &[L], b: L) -> L {
        self.charge(L::BITS, slot::SUBMUL_1, a.len());
        mpn::submul_1(r, a, b)
    }

    fn lshift(&mut self, r: &mut [L], a: &[L], cnt: u32) -> L {
        self.charge(L::BITS, slot::LSHIFT, a.len());
        mpn::lshift(r, a, cnt)
    }

    fn rshift(&mut self, r: &mut [L], a: &[L], cnt: u32) -> L {
        self.charge(L::BITS, slot::RSHIFT, a.len());
        mpn::rshift(r, a, cnt)
    }

    fn div_qhat(&mut self, n2: L, n1: L, n0: L, d1: L, d0: L) -> L {
        self.charge(L::BITS, slot::DIV_QHAT, 1);
        div_qhat_reference(n2, n1, n0, d1, d0)
    }

    fn glue(&mut self, units: u64) {
        self.cycles += self.glue_cost * units as f64;
    }

    fn cycles(&self) -> f64 {
        self.cycles
    }

    fn reset(&mut self) {
        self.cycles = 0.0;
        self.counts.clear();
    }

    fn call_counts(&self) -> &OpCounts {
        &self.counts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use macromodel::model::Monomial;

    fn linear_model(name: &str, c0: f64, c1: f64) -> MacroModel {
        MacroModel::new(
            name,
            vec![Monomial::constant(1), Monomial::linear(1, 0)],
            vec![c0, c1],
        )
    }

    #[test]
    fn native_counts_but_costs_nothing() {
        let mut ops = NativeMpn::new();
        let a = [1u32, 2, 3];
        let b = [4u32, 5, 6];
        let mut r = [0u32; 3];
        MpnOps::add_n(&mut ops, &mut r, &a, &b);
        MpnOps::add_n(&mut ops, &mut r, &a, &b);
        MpnOps::addmul_1(&mut ops, &mut r, &a, 7);
        assert_eq!(<NativeMpn as MpnOps<u32>>::cycles(&ops), 0.0);
        assert_eq!(ops.counts[id::ADD_N], 2);
        assert_eq!(ops.counts[id::ADDMUL_1], 1);
    }

    #[test]
    fn modeled_accrues_predicted_cycles() {
        let mut models = BTreeMap::new();
        models.insert(opname::ADD_N, linear_model(opname::ADD_N, 12.0, 6.0));
        let mut ops = ModeledMpn::new(models, 3.0);
        let a = [1u32; 8];
        let b = [2u32; 8];
        let mut r = [0u32; 8];
        MpnOps::add_n(&mut ops, &mut r, &a, &b);
        assert_eq!(<ModeledMpn as MpnOps<u32>>::cycles(&ops), 12.0 + 6.0 * 8.0);
        MpnOps::<u32>::glue(&mut ops, 4);
        assert_eq!(<ModeledMpn as MpnOps<u32>>::cycles(&ops), 60.0 + 12.0);
        MpnOps::<u32>::reset(&mut ops);
        assert_eq!(<ModeledMpn as MpnOps<u32>>::cycles(&ops), 0.0);
    }

    #[test]
    fn div_qhat_reference_matches_division() {
        // Random-ish normalized divisors; compare against u128 division.
        for seed in 1u64..200 {
            let d1 = 0x8000_0000u32 | (seed as u32).wrapping_mul(2654435761);
            let d0 = (seed as u32).wrapping_mul(0x9e3779b9);
            let n2 = d1 - 1 - (seed as u32 % 7).min(d1 - 1);
            let n1 = (seed as u32).wrapping_mul(123456789);
            let n0 = (seed as u32).wrapping_mul(987654321);
            let q = div_qhat_reference(n2, n1, n0, d1, d0);
            // qhat is either the true quotient limb or within the Knuth
            // bound (at most 2 over before correction; ours corrects
            // against d1d0, so error vs the 3-limb/2-limb true quotient
            // is 0 or +1).
            let n = ((n2 as u128) << 64) | ((n1 as u128) << 32) | n0 as u128;
            let d = ((d1 as u128) << 32) | d0 as u128;
            let true_q = (n / d) as u64;
            assert!(
                (q as u64 == true_q) || (q as u64 == true_q + 1),
                "seed {seed}: qhat {q} vs true {true_q}"
            );
        }
    }

    #[test]
    fn results_identical_across_providers() {
        let mut native = NativeMpn::new();
        let mut modeled = ModeledMpn::new(BTreeMap::new(), 1.0);
        let a: Vec<u32> = (0u32..16)
            .map(|i| i.wrapping_mul(0x0101_0101) + 7)
            .collect();
        let b: Vec<u32> = (0u32..16)
            .map(|i| i.wrapping_mul(0x2020_2020) + 3)
            .collect();
        let mut r1 = vec![0u32; 16];
        let mut r2 = vec![0u32; 16];
        let c1 = MpnOps::add_n(&mut native, &mut r1, &a, &b);
        let c2 = MpnOps::add_n(&mut modeled, &mut r2, &a, &b);
        assert_eq!(r1, r2);
        assert_eq!(c1, c2);
        let h1 = MpnOps::addmul_1(&mut native, &mut r1, &a, 0xdead_beef);
        let h2 = MpnOps::addmul_1(&mut modeled, &mut r2, &a, 0xdead_beef);
        assert_eq!(r1, r2);
        assert_eq!(h1, h2);
    }

    #[test]
    fn u16_limbs_supported() {
        let mut ops = NativeMpn::new();
        let a = [0xffffu16, 0xffff];
        let b = [1u16, 0];
        let mut r = [0u16; 2];
        let carry = MpnOps::add_n(&mut ops, &mut r, &a, &b);
        assert!(carry);
        assert_eq!(r, [0, 0]);
    }
}
