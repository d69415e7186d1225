//! Indexed macro-model metering equals a name-keyed meter, bit for bit.
//!
//! [`ModeledMpn`] meters each call by its [`kreg::id::MPN`] slot and a
//! per-provider `predict` memo. The reference meter here does what the
//! provider used to do on every call: bump a name-keyed count, look the
//! model up by name and call `predict`. Over random call sequences
//! (both limb widths, ops with and without a model, glue units, resets
//! between passes) the two must agree on every count and on the exact
//! bits of the cycle total after every call.

use kreg::id;
use macromodel::model::{MacroModel, Monomial};
use mpint::limb::Limb;
use proptest::prelude::*;
use pubkey::ops::{ModeledMpn, MpnOps};
use std::collections::BTreeMap;

/// One step of a metered sequence.
#[derive(Debug, Clone, Copy)]
enum Step {
    /// Call basic op `op` (an index into `id::MPN`) on `len` limbs of
    /// the given width.
    Op { wide: bool, op: usize, len: usize },
    /// Account `units` of glue.
    Glue(u64),
    /// Start a new pass.
    Reset,
}

fn step() -> impl Strategy<Value = Step> {
    (0usize..11, any::<bool>(), 1usize..24, 0u64..40).prop_map(
        |(kind, wide, len, units)| match kind {
            0..=7 => Step::Op {
                wide,
                op: kind,
                len,
            },
            8 | 9 => Step::Glue(units),
            _ => Step::Reset,
        },
    )
}

/// A registry with a quadratic model for each op whose bit is set in
/// `present`, with coefficients that do not sum exactly in binary, so
/// any change in which values are added, or in what order, shows in
/// the total's bits.
fn registry(present: u8, seeds: &[u32]) -> BTreeMap<&'static str, MacroModel> {
    id::MPN
        .iter()
        .enumerate()
        .filter(|&(i, _)| present & (1 << i) != 0)
        .map(|(i, op)| {
            let c = |k: usize| f64::from(seeds[3 * i + k]) / 7.0 + 0.1;
            let basis = vec![
                Monomial::constant(1),
                Monomial::linear(1, 0),
                Monomial::quadratic(1, 0),
            ];
            (
                op.name(),
                MacroModel::new(op.name(), basis, vec![c(0), c(1), c(2) / 1e3]),
            )
        })
        .collect()
}

/// The name-keyed meter: a map bump, a map lookup and a `predict` per
/// call.
struct ReferenceMeter {
    models32: BTreeMap<&'static str, MacroModel>,
    models16: BTreeMap<&'static str, MacroModel>,
    glue_cost: f64,
    cycles: f64,
    counts: BTreeMap<&'static str, u64>,
}

impl ReferenceMeter {
    fn apply(&mut self, step: Step) {
        match step {
            Step::Op { wide, op, len } => {
                let name = id::MPN[op].name();
                *self.counts.entry(name).or_insert(0) += 1;
                let models = if wide { &self.models32 } else { &self.models16 };
                let len = if id::MPN[op] == id::DIV_QHAT { 1 } else { len };
                if let Some(m) = models.get(name) {
                    self.cycles += m.predict(&[len as u64]);
                }
            }
            Step::Glue(units) => self.cycles += self.glue_cost * units as f64,
            Step::Reset => {
                self.cycles = 0.0;
                self.counts.clear();
            }
        }
    }
}

/// Runs one step on the provider through the real `MpnOps` entry
/// points, with operands of the step's width and length.
fn apply<L: Limb>(ops: &mut ModeledMpn, step: Step) {
    let (op, len) = match step {
        Step::Op { op, len, .. } => (op, len),
        Step::Glue(units) => {
            MpnOps::<L>::glue(ops, units);
            return;
        }
        Step::Reset => {
            MpnOps::<L>::reset(ops);
            return;
        }
    };
    let a: Vec<L> = (0..len).map(|i| L::from_u64(3 + i as u64)).collect();
    let mut r = vec![L::ZERO; len];
    let one = L::from_u64(1);
    match op {
        0 => _ = ops.add_n(&mut r, &a, &a),
        1 => _ = ops.sub_n(&mut r, &a, &a),
        2 => _ = ops.mul_1(&mut r, &a, one),
        3 => _ = ops.addmul_1(&mut r, &a, one),
        4 => _ = ops.submul_1(&mut r, &a, one),
        5 => _ = ops.lshift(&mut r, &a, 1),
        6 => _ = ops.rshift(&mut r, &a, 1),
        _ => {
            let d1 = L::from_u64(1 << (L::BITS - 1));
            ops.div_qhat(L::ZERO, one, one, d1, one);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn indexed_metering_matches_the_name_keyed_meter(
        present32 in any::<u8>(),
        present16 in any::<u8>(),
        seeds in prop::collection::vec(any::<u32>(), 24),
        glue_tenths in 0u32..100,
        steps in prop::collection::vec(step(), 1..200),
    ) {
        let glue_cost = f64::from(glue_tenths) / 10.0 + 0.01;
        let mut reference = ReferenceMeter {
            models32: registry(present32, &seeds),
            models16: registry(present16, &seeds.iter().rev().copied().collect::<Vec<_>>()),
            glue_cost,
            cycles: 0.0,
            counts: BTreeMap::new(),
        };
        let mut ops = ModeledMpn::with_radix_models(
            reference.models32.clone(),
            reference.models16.clone(),
            glue_cost,
        );
        for (i, &step) in steps.iter().enumerate() {
            reference.apply(step);
            match step {
                Step::Op { wide: false, .. } => apply::<u16>(&mut ops, step),
                _ => apply::<u32>(&mut ops, step),
            }
            prop_assert_eq!(
                MpnOps::<u32>::cycles(&ops).to_bits(),
                reference.cycles.to_bits(),
                "cycle bits after step {} ({:?})",
                i,
                step
            );
            let counts = MpnOps::<u32>::call_counts(&ops);
            for op in id::MPN {
                let expect = reference.counts.get(op.name()).copied().unwrap_or(0);
                prop_assert_eq!(counts[op], expect, "{} count after step {}", op, i);
            }
        }
    }
}
