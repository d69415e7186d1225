//! Property tests for the dual-fidelity contract: the pre-decoded
//! fast path ([`wsp::xr32::xjit`]) must be architecturally
//! indistinguishable from the cycle-accurate pipeline — same final
//! registers, same whole-memory digest, same retired-instruction
//! count — over random stimuli drawn from the kreg stimulus spaces,
//! at every accelerator level (so custom instructions are covered),
//! and a fast-path divergence must surface as a typed
//! [`wsp::kreg::KernelError`], never a panic.

use proptest::prelude::*;
use std::sync::Arc;
use wsp::kreg::{self, id, KernelError, LibKind};
use wsp::secproc::issops::{ArchState, IssMpn, KernelVariant};
use wsp::xr32::asm::assemble;
use wsp::xr32::config::CpuConfig;
use wsp::xr32::{ExtensionSet, Fidelity};

/// Every accelerator level the A-D curves measure, plus the base core:
/// the fast path must resolve the custom-instruction handlers of each.
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
    variant: KernelVariant,
    fidelity: Fidelity,
    n: usize,
    seed: u64,
) -> (ArchState, ArchState) {
    let mut iss = IssMpn::with_variant(CpuConfig::default(), variant);
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

// Each case sweeps the whole registry on two engines at five levels;
// keep the case count low.
fn config() -> ProptestConfig {
    ProptestConfig {
        cases: 4,
        ..ProptestConfig::default()
    }
}

proptest! {
    #![proptest_config(config())]

    /// Fast and cycle-accurate execution agree bit-for-bit on final
    /// registers, memory digest and retired count over random kreg
    /// stimuli, at every accelerator level.
    #[test]
    fn fast_and_accurate_agree_at_every_level(
        n in 1usize..12,
        seed in any::<u64>(),
    ) {
        for variant in LEVELS {
            prop_assert_eq!(
                sweep(variant, Fidelity::Fast, n, seed),
                sweep(variant, Fidelity::CycleAccurate, n, seed),
                "variant {:?}", variant
            );
        }
    }

    /// A wrong kernel driven on the fast path with verification on is
    /// reported as a typed divergence — same error class the
    /// cycle-accurate engine reports — never a panic.
    #[test]
    fn fast_path_divergence_is_a_typed_kernel_error(seed in any::<u64>()) {
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
        let run = |fidelity: Fidelity| {
            let mut iss = IssMpn::with_program(CpuConfig::default(), Arc::clone(&wrong), ExtensionSet::new());
            iss.set_fidelity(fidelity);
            // 8 limbs of random data virtually always carry somewhere.
            let result = iss.verify32(id::ADD_N, 8, seed);
            (result, iss.take_kernel_errors())
        };
        let (fast_result, fast_errors) = run(Fidelity::Fast);
        let (acc_result, acc_errors) = run(Fidelity::CycleAccurate);
        prop_assert_eq!(&fast_errors, &acc_errors, "error streams must agree");
        prop_assert_eq!(&fast_result, &acc_result);
        if let Err(e) = fast_result {
            prop_assert!(matches!(e, KernelError::Divergence { .. }), "{}", e);
            prop_assert!(!fast_errors.is_empty());
        }
    }
}
