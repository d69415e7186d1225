//! The per-process xopt admission memo behind
//! `genvar::admitted_variants`: memoized outcome lists equal freshly
//! generated ones, calls from two threads agree, and configurations
//! beyond the memo's bound evict rather than grow it.

use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use kreg::{id, KernelDescriptor, KernelId};
use secproc::genvar::{self, Outcomes, ADMISSION_MEMO_CAPACITY};
use xr32::asm::assemble;
use xr32::config::CpuConfig;

/// The memo is process-wide: these tests take turns, so one test's
/// evictions cannot land between another's two calls.
fn serial() -> MutexGuard<'static, ()> {
    static TURN: Mutex<()> = Mutex::new(());
    TURN.lock().unwrap_or_else(PoisonError::into_inner)
}

fn desc(kid: KernelId) -> &'static KernelDescriptor {
    kreg::registry().iter().find(|d| d.id == kid).unwrap()
}

/// Per level: tag, source, custom-instruction names, the assembled
/// program's fingerprint, and the gate verdict.
type Summary = Vec<(String, String, Vec<String>, u64, Result<(), String>)>;

fn summary(outcomes: &Outcomes) -> Summary {
    outcomes
        .iter()
        .map(|(level, outcome)| match outcome {
            Ok(adm) => {
                let fp = assemble(&adm.gen.source).unwrap().fingerprint();
                assert_eq!(adm.program.fingerprint(), fp, "{}: program", adm.gen.tag);
                (
                    adm.gen.tag.clone(),
                    adm.gen.source.clone(),
                    adm.ext.names().map(str::to_owned).collect(),
                    fp,
                    Ok(()),
                )
            }
            Err(e) => (
                level.generated_tag(),
                String::new(),
                Vec::new(),
                0,
                Err(e.to_string()),
            ),
        })
        .collect()
}

#[test]
fn memoized_outcomes_equal_fresh_ones() {
    let _turn = serial();
    for config in [CpuConfig::default(), CpuConfig::ooo()] {
        for kid in [id::ADD_N, id::ADDMUL_1] {
            let what = format!("{kid} on {}", config.core_id());
            let fresh = summary(&genvar::admitted_variants_uncached(desc(kid), &config));
            assert!(!fresh.is_empty(), "{what}: no levels");
            let first = genvar::admitted_variants(desc(kid), &config);
            let second = genvar::admitted_variants(desc(kid), &config);
            assert_eq!(summary(&first), fresh, "{what}: first memo call");
            assert!(Arc::ptr_eq(&first, &second), "{what}: second call shares");
        }
    }
}

#[test]
fn calls_from_two_threads_agree() {
    let _turn = serial();
    let config = CpuConfig {
        mem_latency: 11,
        ..CpuConfig::ooo()
    };
    let threads: Vec<_> = (0..2)
        .map(|_| {
            let config = config.clone();
            std::thread::spawn(move || {
                [id::ADD_N, id::ADDMUL_1]
                    .map(|kid| summary(&genvar::admitted_variants(desc(kid), &config)))
            })
        })
        .collect();
    let [a, b] = threads
        .into_iter()
        .map(|t| t.join().expect("thread ran"))
        .collect::<Vec<_>>()
        .try_into()
        .unwrap();
    assert_eq!(a, b);
    assert_eq!(
        a[0],
        summary(&genvar::admitted_variants_uncached(
            desc(id::ADD_N),
            &config
        ))
    );
}

#[test]
fn configurations_beyond_the_bound_evict_rather_than_grow() {
    let _turn = serial();
    // Configurations no other test uses; the clock rate does not steer
    // generation, so each costs one cheap pipeline run.
    let config = |i: usize| CpuConfig {
        clock_hz: 1_000_000 + i as u64,
        ..CpuConfig::default()
    };
    let d = desc(id::ADD_N);
    let oldest = genvar::admitted_variants(d, &config(0));
    assert!(Arc::ptr_eq(
        &oldest,
        &genvar::admitted_variants(d, &config(0))
    ));
    for i in 1..=ADMISSION_MEMO_CAPACITY {
        genvar::admitted_variants(d, &config(i));
        assert!(genvar::admission_memo_len() <= ADMISSION_MEMO_CAPACITY);
    }
    let again = genvar::admitted_variants(d, &config(0));
    assert!(
        !Arc::ptr_eq(&oldest, &again),
        "the oldest entry was evicted"
    );
    assert_eq!(summary(&again), summary(&oldest));
    assert!(genvar::admission_memo_len() <= ADMISSION_MEMO_CAPACITY);
}
