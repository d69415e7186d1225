//! The admission gate: no generated variant reaches a measurement
//! curve without passing the constant-time lints AND golden-reference
//! verification on a real core.
//!
//! The lint gate is differential: the generated unit may not fire any
//! error rule the canonical source does not already fire (canonical
//! kernels are clean, so in practice the generated unit must be clean
//! too — but the differential form also keeps the gate meaningful for
//! sources that carry waived findings). The golden gate assembles the
//! variant standalone, runs it on a [`Cpu`] configured with the
//! caller's custom-instruction extensions, and compares memory and the
//! return register against the registry's golden-reference function
//! across a size sweep that straddles every blocking boundary.

use std::collections::BTreeSet;

use kreg::CallConv;
use xr32::asm::assemble;
use xr32::config::CpuConfig;
use xr32::cpu::Cpu;
use xr32::ext::ExtensionSet;

use crate::OptError;

/// Operand memory map of the golden runs (mirrors the ISS harness:
/// result, first and second operand regions, far enough apart that a
/// stray write cannot alias another operand).
const RP_ADDR: u32 = 0x1000;
const AP_ADDR: u32 = 0x4_0000;
const BP_ADDR: u32 = 0x8_0000;

/// Checks that `generated` does not fire any error rule `canonical`
/// does not already fire.
///
/// # Errors
///
/// [`OptError::LintRejected`] listing the fresh findings, or
/// [`OptError::Analyze`] if either source fails to analyze.
pub fn lint_gate(canonical: &str, generated: &str) -> Result<(), OptError> {
    let base = xlint::analyze_source(canonical).map_err(OptError::Analyze)?;
    let genr = xlint::analyze_source(generated).map_err(OptError::Analyze)?;
    let waived: BTreeSet<_> = base.errors().map(|f| f.rule).collect();
    let fresh: Vec<String> = genr
        .errors()
        .filter(|f| !waived.contains(&f.rule))
        .map(|f| f.to_string())
        .collect();
    if fresh.is_empty() {
        Ok(())
    } else {
        Err(OptError::LintRejected { findings: fresh })
    }
}

/// The operand-size sweep for `lanes`-limb blocking: the degenerate
/// sizes, both sides of each block boundary, and a multi-block run.
pub fn sweep_sizes(lanes: u32) -> Vec<u32> {
    let mut sizes: Vec<u32> = [
        1,
        2,
        lanes.saturating_sub(1),
        lanes,
        lanes + 1,
        2 * lanes,
        2 * lanes + 1,
        32,
    ]
    .into_iter()
    .filter(|&n| n >= 1)
    .collect();
    sizes.sort_unstable();
    sizes.dedup();
    sizes
}

fn lcg(x: &mut u64) -> u32 {
    *x = x
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    (*x >> 32) as u32
}

fn limbs(n: usize, seed: &mut u64) -> Vec<u32> {
    (0..n).map(|_| lcg(seed)).collect()
}

struct Run {
    result: Vec<u32>,
    ret: u32,
}

fn run_variant(
    program: &xr32::asm::Program,
    entry: &str,
    config: &CpuConfig,
    ext: &ExtensionSet,
    args: &[u32],
    preload: &[(u32, &[u32])],
    result_len: usize,
) -> Result<Run, OptError> {
    let mut cpu = Cpu::with_extensions(config.clone(), ext.clone());
    // Golden admission compares architectural results only, so variant
    // sweeps ride the fast path; timing is measured elsewhere.
    cpu.set_fidelity(xr32::Fidelity::Fast);
    cpu.set_fuel(u64::MAX);
    for &(addr, data) in preload {
        for (i, &w) in data.iter().enumerate() {
            cpu.mem_mut()
                .store_u32(addr + 4 * i as u32, w)
                .map_err(|e| OptError::Sim(format!("preload at {addr:#x}: {e:?}")))?;
        }
    }
    cpu.call(program, entry, args)
        .map_err(|e| OptError::Sim(format!("{entry}: {e}")))?;
    let result = (0..result_len)
        .map(|i| {
            cpu.mem()
                .load_u32(RP_ADDR + 4 * i as u32)
                .map_err(|e| OptError::Sim(format!("readback: {e:?}")))
        })
        .collect::<Result<_, _>>()?;
    Ok(Run {
        result,
        ret: cpu.reg(0),
    })
}

/// Verifies `source`'s `entry` against the calling convention's golden
/// reference across [`sweep_sizes`]`(lanes)`.
///
/// # Errors
///
/// [`OptError::GoldenRejected`] on the first divergence,
/// [`OptError::Sim`] on a simulation fault, and
/// [`OptError::Unsupported`] for calling conventions without a vector
/// memory interface (nothing the blocking rewrite applies to).
pub fn golden_gate(
    source: &str,
    entry: &str,
    conv: &CallConv,
    lanes: u32,
    config: &CpuConfig,
    ext: &ExtensionSet,
) -> Result<(), OptError> {
    let program = assemble(source).map_err(OptError::from_assemble)?;
    let mut seed = 0x9e37_79b9_7f4a_7c15u64 ^ u64::from(lanes);
    for n in sweep_sizes(lanes) {
        let nn = n as usize;
        match conv {
            CallConv::VecVec { golden32, .. } => {
                let a = limbs(nn, &mut seed);
                let b = limbs(nn, &mut seed);
                let mut want = vec![0u32; nn];
                let carry = golden32(&mut want, &a, &b);
                let got = run_variant(
                    &program,
                    entry,
                    config,
                    ext,
                    &[RP_ADDR, AP_ADDR, BP_ADDR, n],
                    &[(AP_ADDR, &a), (BP_ADDR, &b)],
                    nn,
                )?;
                if got.result != want || got.ret != u32::from(carry) {
                    return Err(OptError::GoldenRejected {
                        n,
                        detail: format!(
                            "{entry}: ret {} (want {}), limbs diverge at {:?}",
                            got.ret,
                            u32::from(carry),
                            first_diff(&got.result, &want)
                        ),
                    });
                }
            }
            CallConv::VecScalar {
                accumulate,
                golden32,
                ..
            } => {
                let a = limbs(nn, &mut seed);
                let b = lcg(&mut seed);
                let r0 = if *accumulate {
                    limbs(nn, &mut seed)
                } else {
                    vec![0u32; nn]
                };
                let mut want = r0.clone();
                let carry = golden32(&mut want, &a, b);
                let got = run_variant(
                    &program,
                    entry,
                    config,
                    ext,
                    &[RP_ADDR, AP_ADDR, n, b],
                    &[(AP_ADDR, &a), (RP_ADDR, &r0)],
                    nn,
                )?;
                if got.result != want || got.ret != carry {
                    return Err(OptError::GoldenRejected {
                        n,
                        detail: format!(
                            "{entry}: ret {} (want {carry}), limbs diverge at {:?}",
                            got.ret,
                            first_diff(&got.result, &want)
                        ),
                    });
                }
            }
            _ => {
                return Err(OptError::Unsupported(format!(
                    "{entry}: golden gate supports vector-memory conventions only"
                )))
            }
        }
    }
    Ok(())
}

fn first_diff(got: &[u32], want: &[u32]) -> Option<(usize, u32, u32)> {
    got.iter()
        .zip(want)
        .enumerate()
        .find(|(_, (g, w))| g != w)
        .map(|(i, (g, w))| (i, *g, *w))
}

#[cfg(test)]
mod tests {
    use super::*;
    use kreg::{id, kernels::mpn, registry};

    #[test]
    fn sweep_straddles_block_boundaries() {
        assert_eq!(sweep_sizes(4), vec![1, 2, 3, 4, 5, 8, 9, 32]);
        assert_eq!(sweep_sizes(1), vec![1, 2, 3, 32]);
    }

    #[test]
    fn lint_gate_accepts_the_canonical_source_itself() {
        let src = mpn::canonical_source32(id::ADD_N).unwrap();
        lint_gate(src, src).unwrap();
    }

    #[test]
    fn lint_gate_rejects_a_fresh_secret_leak() {
        let canonical = mpn::canonical_source32(id::ADDMUL_1).unwrap();
        // A rewrite that branches on the secret multiplier: must be
        // refused even though it assembles fine.
        let leaky = "
;! entry mpn_addmul_1 inputs=a0-a3 secret=a3 secret-ptr=a0,a1
mpn_addmul_1:
    movi a6, 0
    beq  a3, a6, .zero
    movi a0, 1
    ret
.zero:
    movi a0, 0
    ret
";
        let err = lint_gate(canonical, leaky).unwrap_err();
        assert!(matches!(err, OptError::LintRejected { .. }), "{err}");
    }

    #[test]
    fn golden_gate_passes_the_canonical_kernels() {
        for kid in [id::ADD_N, id::ADDMUL_1] {
            let desc = registry().iter().find(|d| d.id == kid).unwrap();
            let src = mpn::canonical_source32(kid).unwrap();
            golden_gate(
                src,
                desc.entry,
                &desc.conv,
                1,
                &CpuConfig::default(),
                &ExtensionSet::new(),
            )
            .unwrap();
        }
    }

    #[test]
    fn golden_gate_catches_a_wrong_kernel() {
        let desc = registry().iter().find(|d| d.id == id::ADD_N).unwrap();
        // "add" that drops the carry chain: wrong for carrying inputs.
        let wrong = "
;! entry mpn_add_n inputs=a0-a3 secret-ptr=a1,a2
mpn_add_n:
    movi a6, 0
.lp:
    lw   a4, a1, 0
    lw   a5, a2, 0
    add  a4, a4, a5
    sw   a4, a0, 0
    addi a0, a0, 4
    addi a1, a1, 4
    addi a2, a2, 4
    addi a3, a3, -1
    bne  a3, a6, .lp
    movi a0, 0
    ret
";
        let err = golden_gate(
            wrong,
            desc.entry,
            &desc.conv,
            1,
            &CpuConfig::default(),
            &ExtensionSet::new(),
        )
        .unwrap_err();
        assert!(matches!(err, OptError::GoldenRejected { .. }), "{err}");
    }
}
