//! The per-process kernel-library memo behind `IssMpn::with_variant`
//! shares assembled code only. Providers built from it — one after
//! another, and on another thread — must measure every mpn kernel to
//! the same cycle and end in the same architectural state as a provider
//! whose library was assembled fresh from source, for every variant on
//! both core models.

use kreg::kernels::mpn as kmpn;
use kreg::{id, KernelVariant};
use secproc::insns::mpn_extension_set;
use secproc::issops::ArchState;
use secproc::IssMpn;
use std::sync::Arc;
use xr32::asm::assemble;
use xr32::config::CpuConfig;
use xr32::ext::ExtensionSet;

/// Cycle bits of every 32- and 16-bit mpn measurement, then both cores'
/// final architectural state.
type Outcome = (Vec<u64>, ArchState, ArchState);

fn drive(mut p: IssMpn) -> Outcome {
    let mut cycles = Vec::new();
    for (i, k) in id::MPN.into_iter().enumerate() {
        for n in [1, 6] {
            let seed = 0x5EED ^ ((i as u64) << 8) ^ n as u64;
            cycles.push(p.measure32(k, n, seed).expect("measures").to_bits());
            cycles.push(p.measure16(k, n, seed).expect("measures").to_bits());
        }
    }
    (cycles, p.arch_state32(), p.arch_state16())
}

/// A provider whose 32-bit library is assembled from source right now.
fn fresh(config: CpuConfig, variant: KernelVariant) -> IssMpn {
    let (src, ext) = match variant {
        KernelVariant::Base => (kmpn::base32_source(), ExtensionSet::new()),
        KernelVariant::Accelerated {
            add_lanes,
            mac_lanes,
        } => (
            kmpn::accel32_source(add_lanes, mac_lanes),
            mpn_extension_set(add_lanes, mac_lanes),
        ),
    };
    IssMpn::with_program(config, Arc::new(assemble(&src).unwrap()), ext)
}

#[test]
fn memoized_libraries_measure_like_freshly_assembled_ones() {
    for config in [CpuConfig::default(), CpuConfig::ooo()] {
        for variant in KernelVariant::all() {
            let what = format!("{variant:?} on {}", config.core_id());
            let want = drive(fresh(config.clone(), variant));
            let first = drive(IssMpn::with_variant(config.clone(), variant));
            let second = drive(IssMpn::with_variant(config.clone(), variant));
            let cfg = config.clone();
            let other_thread =
                std::thread::spawn(move || drive(IssMpn::with_variant(cfg, variant)))
                    .join()
                    .expect("thread ran");
            assert_eq!(first, want, "{what}: first memo provider");
            assert_eq!(second, want, "{what}: second memo provider");
            assert_eq!(
                other_thread, want,
                "{what}: memo provider on another thread"
            );
        }
    }
}
