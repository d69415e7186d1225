//! Property tests for `xopt`-generated kernel variants.
//!
//! Two properties, over every kernel that opts into generated
//! variants ([`kreg::VariantSource::Generated`]) and every accelerator
//! level of its instruction family:
//!
//! - **Golden equivalence**: the generated variant, executed on the
//!   ISS under the platform's custom-instruction semantics, computes
//!   the same result and carry as the kernel's golden reference for
//!   arbitrary operand sizes across the kernel's [`kreg::StimulusSpec`]
//!   basis (`Limbs`: any `n`, including sizes that leave a scalar
//!   tail) and arbitrary random operands — not just the sweep the
//!   admission gate ran.
//! - **Constant-time non-regression**: re-generating the variants
//!   under arbitrary core timing parameters (the cost model steers the
//!   list scheduler) never produces a variant that fires a
//!   constant-time lint error the canonical kernel does not, and the
//!   result still passes golden verification.

use std::sync::{Arc, OnceLock};

use proptest::prelude::*;
use pubkey::ops::MpnOps;
use secproc::genvar::{self, AdmittedVariant};
use secproc::IssMpn;
use xr32::config::CpuConfig;

fn generated_descs() -> Vec<&'static kreg::KernelDescriptor> {
    kreg::registry()
        .iter()
        .filter(|d| d.variants == kreg::VariantSource::Generated)
        .collect()
}

/// Every admitted variant under the default configuration, generated
/// once (generation runs the full lint + golden gate).
fn admitted() -> &'static Vec<(&'static kreg::KernelDescriptor, AdmittedVariant)> {
    static CELL: OnceLock<Vec<(&'static kreg::KernelDescriptor, AdmittedVariant)>> =
        OnceLock::new();
    CELL.get_or_init(|| {
        let config = CpuConfig::default();
        let mut out = Vec::new();
        for desc in generated_descs() {
            for (level, outcome) in genvar::admitted_variants(desc, &config).iter() {
                let adm = outcome.as_ref().unwrap_or_else(|e| {
                    panic!(
                        "{} level a{}m{} rejected: {e}",
                        desc.id, level.add_lanes, level.mac_lanes
                    )
                });
                out.push((desc, adm.clone()));
            }
        }
        assert!(out.len() >= 2, "expected at least two generated kernels");
        out
    })
}

fn limbs(seed: &mut u64, n: usize) -> Vec<u32> {
    (0..n)
        .map(|_| {
            *seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (*seed >> 32) as u32
        })
        .collect()
}

/// Runs one admitted variant on the ISS against the kernel's golden
/// reference for one `(n, seed)` stimulus.
fn check_against_golden(
    desc: &kreg::KernelDescriptor,
    adm: &AdmittedVariant,
    n: usize,
    mut seed: u64,
) {
    let mut iss = IssMpn::with_program(
        CpuConfig::default(),
        Arc::clone(&adm.program),
        adm.ext.clone(),
    );
    match desc.conv {
        kreg::CallConv::VecVec { golden32, .. } => {
            let a = limbs(&mut seed, n);
            let b = limbs(&mut seed, n);
            let mut want = vec![0u32; n];
            let want_carry = golden32(&mut want, &a, &b);
            let mut got = vec![0u32; n];
            let got_carry = iss.add_n(&mut got, &a, &b);
            prop_assert_eq!(got, want, "{} {} limbs n={}", desc.id, adm.gen.tag, n);
            prop_assert_eq!(got_carry, want_carry, "{} {} carry", desc.id, adm.gen.tag);
        }
        kreg::CallConv::VecScalar {
            accumulate,
            golden32,
            ..
        } => {
            let a = limbs(&mut seed, n);
            let b = limbs(&mut seed, 1)[0];
            let r0 = if accumulate {
                limbs(&mut seed, n)
            } else {
                vec![0u32; n]
            };
            let mut want = r0.clone();
            let want_carry = golden32(&mut want, &a, b);
            let mut got = r0;
            let got_carry = iss.addmul_1(&mut got, &a, b);
            prop_assert_eq!(got, want, "{} {} limbs n={}", desc.id, adm.gen.tag, n);
            prop_assert_eq!(got_carry, want_carry, "{} {} carry", desc.id, adm.gen.tag);
        }
        _ => panic!("unexpected call convention for {}", desc.id),
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// ISS-vs-golden equivalence across the `Limbs` stimulus basis:
    /// any level, any operand size (blocked loop + scalar tail in all
    /// mixes), any operand values.
    #[test]
    fn generated_variants_match_golden_on_random_stimuli(
        pick in 0usize..64,
        n in 1usize..=40,
        seed in any::<u64>(),
    ) {
        let all = admitted();
        let (desc, adm) = &all[pick % all.len()];
        check_against_golden(desc, adm, n, seed);
    }

    /// Constant-time non-regression under arbitrary core timing: the
    /// scheduler's cost model changes with `mul_latency` and
    /// `branch_penalty`, but whatever order it picks must still pass
    /// the lint differential against the canonical kernel (enforced
    /// inside `xopt::generate`) and golden verification.
    #[test]
    fn generated_variants_survive_arbitrary_timing(
        mul_latency in 1u32..=4,
        branch_penalty in 0u32..=3,
    ) {
        let config = CpuConfig {
            mul_latency,
            branch_penalty,
            ..CpuConfig::default()
        };
        for desc in generated_descs() {
            for (level, outcome) in genvar::admitted_variants_uncached(desc, &config) {
                let adm = outcome.unwrap_or_else(|e| {
                    panic!(
                        "{} a{}m{} rejected under mul={mul_latency} bp={branch_penalty}: {e}",
                        desc.id, level.add_lanes, level.mac_lanes
                    )
                });
                prop_assert_eq!(&adm.gen.tag, &level.generated_tag());
            }
        }
    }
}
