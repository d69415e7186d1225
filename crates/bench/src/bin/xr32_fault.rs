//! `xr32-fault` — the deterministic fault-injection campaign driver.
//!
//! Sweeps campaign seeds x fault sites x register-convention kernels on
//! the XR32 ISS with golden-reference verification and the cycle-budget
//! watchdog armed, classifies every unit's outcome, then proves
//! recovery by re-running each non-clean unit fault-free. The campaign
//! is seed-reproducible: the per-unit fault stream is derived from the
//! unit's submission index, so the same seeds produce a byte-identical
//! report (`--json`, after `xr32-trace normalize-report`) at any
//! `WSP_THREADS` worker count — the property the CI fault-smoke gate
//! checks.
//!
//! ```text
//! xr32-fault [--json] [seeds] [rate_ppm] [limbs]
//! ```
//!
//! Exits non-zero when the campaign violates its resilience contract:
//! every unit must recover fault-free, an injecting campaign must fire
//! at least one fault, and verification must detect at least one
//! corruption.
//!
//! Outcomes per unit: `clean` (no fault fired), `benign` (fired but
//! results and timing match the fault-free run), `perturbed` (results
//! match, timing moved), `detected` (golden-reference divergence),
//! `timeout` (watchdog), `faulted` (simulated hardware fault),
//! `unsupported` (harness gap — always a contract violation).

use bench::{Cli, Harness};
use kreg::{id, KernelError, KernelId, KernelVariant};
use secproc::issops::IssMpn;
use std::process::ExitCode;
use xfault::{FaultSite, PlanSpec};
use xobs::{Json, Registry, RunReport};
use xr32::config::CpuConfig;
use xr32::Fidelity;

/// One campaign measurement unit: a kernel measured once under an armed
/// single-site fault plan.
struct Unit {
    seed: u64,
    site: FaultSite,
    kernel: KernelId,
}

/// The classified result of one unit, plus its fault-free recovery run.
struct Outcome {
    seed: u64,
    site: FaultSite,
    kernel: KernelId,
    fired: u64,
    outcome: &'static str,
    recovered: bool,
}

/// The custom-result fault site needs datapaths that actually execute
/// custom instructions; the other sites target machinery every variant
/// has.
fn variant_for(site: FaultSite) -> KernelVariant {
    if site == FaultSite::CustomResult {
        KernelVariant::Accelerated {
            add_lanes: 16,
            mac_lanes: 4,
        }
    } else {
        KernelVariant::Base
    }
}

/// Stimulus seed for a unit: fixed relative to the campaign seed so the
/// armed and fault-free runs of a unit measure the same computation.
fn stimulus_seed(seed: u64) -> u64 {
    0xFA57_0000u64 ^ seed
}

fn run_unit(config: &CpuConfig, index: usize, unit: &Unit, rate_ppm: u32, limbs: usize) -> Outcome {
    let variant = variant_for(unit.site);
    let stim = stimulus_seed(unit.seed);

    let spec = PlanSpec::new(unit.seed, rate_ppm, &[unit.site]);
    let mut iss = IssMpn::with_variant(config.clone(), variant);
    iss.set_verify(true);
    iss.set_cycle_budget(xfault::DEFAULT_CYCLE_BUDGET);
    iss.set_fault_plan(spec, index as u64);
    let armed = iss.measure32(unit.kernel, limbs, stim);
    let fired = iss.faults_fired();

    // Recovery proof: a fault-free replay of the same stimuli with
    // golden verification on. Pure correctness, so it rides the fast
    // path.
    let mut clean = IssMpn::with_variant(config.clone(), variant);
    clean.set_fidelity(Fidelity::Fast);
    clean.set_cycle_budget(xfault::DEFAULT_CYCLE_BUDGET);
    let recovered = clean.verify32(unit.kernel, limbs, stim).is_ok();

    let outcome = match (&armed, fired) {
        (Ok(_), 0) => "clean",
        (Ok(cycles), _) => {
            // Separating benign from timing-perturbing injections needs a
            // fault-free cycle count, so only this branch pays for a
            // cycle-accurate reference run.
            let mut reference = IssMpn::with_variant(config.clone(), variant);
            reference.set_verify(true);
            reference.set_cycle_budget(xfault::DEFAULT_CYCLE_BUDGET);
            match reference.measure32(unit.kernel, limbs, stim) {
                Ok(r) if r == *cycles => "benign",
                _ => "perturbed",
            }
        }
        (Err(KernelError::Divergence { .. }), _) => "detected",
        (Err(KernelError::Timeout { .. }), _) => "timeout",
        (Err(KernelError::Faulted { .. }), _) => "faulted",
        (Err(_), _) => "unsupported",
    };

    Outcome {
        seed: unit.seed,
        site: unit.site,
        kernel: unit.kernel,
        fired,
        outcome,
        recovered,
    }
}

fn main() -> ExitCode {
    let cli = Cli::parse();
    let config = CpuConfig::default();
    let harness = Harness::from_env();
    let seeds = cli.pos_usize(0, 4) as u64;
    let rate_ppm = cli.pos_usize(1, 2000) as u32;
    let limbs = cli.pos_usize(2, 16);

    let mut units = Vec::new();
    for seed in 1..=seeds {
        for site in FaultSite::ALL {
            for kernel in id::MPN {
                units.push(Unit { seed, site, kernel });
            }
        }
    }

    // The worker pool merges in submission order and each unit's fault
    // stream is its submission index: the outcome vector is identical
    // for any WSP_THREADS.
    let outcomes = harness
        .pool
        .par_map(&units, |i, u| run_unit(&config, i, u, rate_ppm, limbs));

    let count = |label: &str| outcomes.iter().filter(|o| o.outcome == label).count();
    let clean = count("clean");
    let benign = count("benign");
    let perturbed = count("perturbed");
    let detected = count("detected");
    let timeout = count("timeout");
    let faulted = count("faulted");
    let unsupported = count("unsupported");
    let caught = detected + timeout + faulted;
    let fired_units = outcomes.iter().filter(|o| o.fired > 0).count();
    let recovered = outcomes.iter().filter(|o| o.recovered).count();
    let detection_rate_pct = if fired_units == 0 {
        0.0
    } else {
        100.0 * caught as f64 / fired_units as f64
    };
    let recovery_rate_pct = 100.0 * recovered as f64 / outcomes.len().max(1) as f64;

    // The campaign's resilience contract.
    let mut violations = Vec::new();
    if recovered != outcomes.len() {
        violations.push(format!(
            "recovery: {recovered}/{} units re-ran fault-free",
            outcomes.len()
        ));
    }
    if rate_ppm > 0 && fired_units == 0 {
        violations.push("no unit fired a fault despite a non-zero rate".to_owned());
    }
    if rate_ppm > 0 && detected == 0 {
        violations.push("verification detected no corruption".to_owned());
    }
    if unsupported > 0 {
        violations.push(format!("{unsupported} units hit harness gaps"));
    }

    if cli.json {
        let campaign: Vec<Json> = outcomes
            .iter()
            .map(|o| {
                Json::obj()
                    .set("seed", o.seed)
                    .set("site", o.site.name())
                    .set("kernel", o.kernel.name())
                    .set("variant", variant_for(o.site).tag())
                    .set("fired", o.fired)
                    .set("outcome", o.outcome)
                    .set("recovered", if o.recovered { 1u64 } else { 0u64 })
            })
            .collect();
        let metrics = Registry::new();
        harness.record_metrics(&metrics);
        let report = RunReport::new("xr32_fault")
            .with_fingerprint(config.fingerprint())
            .result("seeds", seeds)
            .result("rate_ppm", rate_ppm as u64)
            .result("limbs", limbs as u64)
            .result("units", outcomes.len() as u64)
            .result("fired_units", fired_units as u64)
            .result("clean", clean as u64)
            .result("benign", benign as u64)
            .result("perturbed", perturbed as u64)
            .result("detected", detected as u64)
            .result("timeout", timeout as u64)
            .result("faulted", faulted as u64)
            .result("detection_rate_pct", detection_rate_pct)
            .result("recovery_rate_pct", recovery_rate_pct)
            .result(
                "violations",
                Json::Arr(violations.iter().map(|v| Json::from(v.as_str())).collect()),
            )
            .with_fault_campaign(campaign)
            .with_metrics(metrics.snapshot());
        bench::emit_report(&harness.finish(report));
    } else {
        println!(
            "xr32-fault — {seeds} seeds x 4 sites x {} kernels at {rate_ppm} ppm, {limbs} limbs",
            id::MPN.len()
        );
        println!(
            "  units {:4}   fired {:4}   clean {clean}",
            outcomes.len(),
            fired_units
        );
        println!(
            "  caught: detected {detected}  timeout {timeout}  faulted {faulted}  \
             (detection rate {detection_rate_pct:.1}% of fired units)"
        );
        println!("  survived: benign {benign}  perturbed {perturbed}");
        println!(
            "  recovery: {recovered}/{} fault-free re-runs ok ({recovery_rate_pct:.1}%)",
            outcomes.len()
        );
        for v in &violations {
            eprintln!("xr32-fault: VIOLATION: {v}");
        }
    }

    if violations.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
