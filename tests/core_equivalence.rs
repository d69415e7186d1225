//! Property tests for the core-model contract: out-of-order execution
//! ([`wsp::xr32::xcore`]) reorders *timing*, never *results*. The
//! scoreboarded out-of-order pipeline, the in-order pipeline and the
//! pre-decoded fast path must be architecturally indistinguishable —
//! same final registers, same whole-memory digest, same
//! retired-instruction count — over random stimuli drawn from the kreg
//! stimulus spaces, at every accelerator level (so custom-instruction
//! latencies flow through the scoreboard too), and a divergence must
//! surface as the same typed [`wsp::kreg::KernelError`] stream on
//! every engine, never a panic.

use proptest::prelude::*;
use std::sync::Arc;
use wsp::kreg::{self, id, KernelError, LibKind};
use wsp::secproc::issops::{ArchState, IssMpn, KernelVariant};
use wsp::xr32::asm::assemble;
use wsp::xr32::config::CpuConfig;
use wsp::xr32::{ExtensionSet, Fidelity};

/// Every accelerator level the A-D curves measure, plus the base core:
/// each core model must agree under the custom instructions of each.
const LEVELS: [KernelVariant; 5] = [
    KernelVariant::Base,
    KernelVariant::Accelerated {
        add_lanes: 2,
        mac_lanes: 1,
    },
    KernelVariant::Accelerated {
        add_lanes: 4,
        mac_lanes: 2,
    },
    KernelVariant::Accelerated {
        add_lanes: 8,
        mac_lanes: 4,
    },
    KernelVariant::Accelerated {
        add_lanes: 16,
        mac_lanes: 4,
    },
];

/// Drives every register-convention kernel in the registry at both
/// radices and returns the end-of-sweep architectural state pair.
fn sweep(
    config: &CpuConfig,
    variant: KernelVariant,
    fidelity: Fidelity,
    n: usize,
    seed: u64,
) -> (ArchState, ArchState) {
    let mut iss = IssMpn::with_variant(config.clone(), variant);
    iss.set_fidelity(fidelity);
    for desc in kreg::registry().iter().filter(|d| d.lib == LibKind::Mpn) {
        iss.verify32(desc.id, n, seed)
            .unwrap_or_else(|e| panic!("{} r32 under {variant:?}: {e}", desc.id));
        iss.verify16(desc.id, n, seed)
            .unwrap_or_else(|e| panic!("{} r16 under {variant:?}: {e}", desc.id));
    }
    assert!(
        iss.take_kernel_errors().is_empty(),
        "sweep under {variant:?} must be divergence-free"
    );
    (iss.arch_state32(), iss.arch_state16())
}

// Each case sweeps the whole registry on three engines at five levels;
// keep the case count low.
fn config() -> ProptestConfig {
    ProptestConfig {
        cases: 4,
        ..ProptestConfig::default()
    }
}

proptest! {
    #![proptest_config(config())]

    /// In-order, out-of-order and fast-path execution agree bit-for-bit
    /// on final registers, memory digest and retired count over random
    /// kreg stimuli, at every accelerator level.
    #[test]
    fn all_core_models_agree_at_every_level(
        n in 1usize..12,
        seed in any::<u64>(),
    ) {
        let io = CpuConfig::default();
        let ooo = CpuConfig::ooo();
        for variant in LEVELS {
            let reference = sweep(&io, variant, Fidelity::CycleAccurate, n, seed);
            prop_assert_eq!(
                &sweep(&ooo, variant, Fidelity::CycleAccurate, n, seed),
                &reference,
                "out-of-order vs in-order, variant {:?}", variant
            );
            prop_assert_eq!(
                &sweep(&io, variant, Fidelity::Fast, n, seed),
                &reference,
                "fast path vs in-order, variant {:?}", variant
            );
        }
    }

    /// A wrong kernel driven with verification on is reported as the
    /// same typed divergence stream on every engine — the checker sits
    /// above the core model — never a panic.
    #[test]
    fn divergence_streams_agree_across_core_models(seed in any::<u64>()) {
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
        let wrong = Arc::new(assemble(wrong).expect("the wrong kernel assembles"));
        let run = |config: &CpuConfig, fidelity: Fidelity| {
            let mut iss = IssMpn::with_program(config.clone(), Arc::clone(&wrong), ExtensionSet::new());
            iss.set_fidelity(fidelity);
            // 8 limbs of random data virtually always carry somewhere.
            let result = iss.verify32(id::ADD_N, 8, seed);
            (result, iss.take_kernel_errors())
        };
        let (io_result, io_errors) = run(&CpuConfig::default(), Fidelity::CycleAccurate);
        let (ooo_result, ooo_errors) = run(&CpuConfig::ooo(), Fidelity::CycleAccurate);
        let (fast_result, fast_errors) = run(&CpuConfig::default(), Fidelity::Fast);
        prop_assert_eq!(&ooo_errors, &io_errors, "error streams must agree (ooo)");
        prop_assert_eq!(&fast_errors, &io_errors, "error streams must agree (fast)");
        prop_assert_eq!(&ooo_result, &io_result);
        prop_assert_eq!(&fast_result, &io_result);
        if let Err(e) = io_result {
            prop_assert!(matches!(e, KernelError::Divergence { .. }), "{}", e);
            prop_assert!(!io_errors.is_empty());
        }
    }
}
