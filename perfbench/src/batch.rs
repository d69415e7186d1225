//! The two in-process batch workloads: seeded lists of methodology
//! jobs run one after another through `JobSpec::run` on a pool of
//! `nproc` threads, each job against a fresh in-memory `KCache` (cold
//! by construction: nothing opens `target/kcache.json` or reads
//! `WSP_KCACHE`).

use std::time::Instant;

use secproc::job::{JobEnv, JobSpec};
use secproc::kcache::KCache;
use xobs::{report, Json};
use xpar::Pool;
use xr32::config::CpuConfig;

use crate::trace::Tracer;
use crate::util::{self, Rng};
use crate::Outcome;

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Batch {
    /// §4.3 `explore` jobs, 128–256 bits, two co-simulation samples.
    Explore,
    /// `characterize`, `curves` and `measure` (every mpn kernel) jobs
    /// over both cores, five kernel-library variants and several limb
    /// counts.
    IssSweep,
}

/// How many times a run repeats its set-up; `setup_s` is the median.
const SETUP_REPS: usize = 100;

const EXPLORE_BITS: [usize; 5] = [128, 160, 192, 224, 256];
const VARIANTS: [&str; 5] = [
    "base",
    "accel-a2m1",
    "accel-a4m2",
    "accel-a8m2",
    "accel-a16m4",
];
/// The seeded cycle of distinct specs a run repeats. The set of job
/// kinds, sizes, cores and variants is the same for every seed (so the
/// latency distribution does not drift with the seed); the seed picks
/// the order and the stimulus seeds. Specs are written as wire JSON and
/// parsed by `JobSpec::parse`, so the program only ever sees generated
/// specs.
pub fn specs(kind: Batch, seed: u64) -> Vec<JobSpec> {
    let mut rng = Rng::new(seed);
    let mut lines: Vec<String> = Vec::new();
    match kind {
        Batch::Explore => {
            for bits in EXPLORE_BITS {
                lines.push(format!(
                    r#"{{"kind":"explore","bits":{bits},"cosim_samples":2}}"#
                ));
            }
        }
        Batch::IssSweep => {
            let ooo = CpuConfig::ooo().core_id();
            let cores = ["io".to_owned(), ooo];
            // Measure jobs are 16 of the 20, so the median job sits
            // inside their cluster rather than at its edge next to the
            // slower characterize and curves jobs.
            for i in 0..16 {
                lines.push(format!(
                    r#"{{"kind":"measure","core":"{}","variant":"{}","limbs":{},"seed":"{}"}}"#,
                    cores[i % 2],
                    VARIANTS[i % VARIANTS.len()],
                    [4, 8, 12, 16][i / 4],
                    rng.next_u64()
                ));
            }
            for (i, limbs) in [8, 16].iter().enumerate() {
                lines.push(format!(
                    r#"{{"kind":"characterize","core":"{}","variant":"{}","limbs":{limbs}}}"#,
                    cores[i],
                    VARIANTS[i + 2]
                ));
                lines.push(format!(
                    r#"{{"kind":"curves","core":"{}","limbs":{limbs}}}"#,
                    cores[1 - i]
                ));
            }
        }
    }
    rng.shuffle(&mut lines);
    lines
        .iter()
        .map(|l| JobSpec::parse(l).expect("generated specs are valid"))
        .collect()
}

/// Deterministic simulated outputs of a report: the flow span's
/// simulated cycles and, for `explore`, the winning configuration.
pub fn sim_outputs(json: &Json) -> (f64, String) {
    let cycles = json
        .get("spans")
        .and_then(Json::as_arr)
        .and_then(|roots| {
            roots
                .iter()
                .find(|s| s.get("name").and_then(Json::as_str) == Some("flow"))
        })
        .and_then(|s| s.get("cycles"))
        .and_then(Json::as_f64)
        .unwrap_or(0.0);
    let best = json
        .get("results")
        .and_then(|r| r.get("best_config"))
        .and_then(Json::as_str)
        .unwrap_or("")
        .to_owned();
    (cycles, best)
}

/// Output checks every batch report must pass; `None` when it does.
pub fn check_report(spec: &JobSpec, json: &Json) -> Option<String> {
    if json.get("kernel_errors").is_some() {
        return Some("report carries kernel_errors".into());
    }
    if spec.kind == secproc::job::JobKind::Explore {
        let results = json.get("results");
        let evaluated = results
            .and_then(|r| r.get("candidates_evaluated"))
            .and_then(Json::as_f64);
        let front = results
            .and_then(|r| r.get("cross_product"))
            .and_then(|x| x.get("pareto_front_size"))
            .and_then(Json::as_f64);
        if evaluated != Some(450.0) || !front.is_some_and(|f| f > 0.0) {
            return Some(format!(
                "explore: candidates_evaluated {evaluated:?}, pareto_front_size {front:?}"
            ));
        }
    }
    None
}

/// Runs a batch workload for `seconds`. With a tracer, each job is
/// wrapped in spans (the job, the `JobSpec::run` call with the report's
/// own phase spans imported beneath it, and the output check).
pub fn run(kind: Batch, seed: u64, seconds: f64, tracer: Option<&Tracer>) -> Outcome {
    let threads = util::nproc();
    let mut setup_s = Vec::new();
    let mut ready = None;
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        let pool = Pool::new(threads);
        let cycle = specs(kind, seed);
        setup_s.push(t.elapsed().as_secs_f64());
        ready = Some((pool, cycle));
    }
    let (pool, cycle) = ready.expect("set-up ran");

    let mut out = Outcome::default();
    let mut first: Vec<Option<String>> = vec![None; cycle.len()];
    let mut first_sim: Vec<Option<(f64, String)>> = vec![None; cycle.len()];
    let mut per_spec_ms: Vec<Vec<f64>> = vec![Vec::new(); cycle.len()];
    let mut job_ms = Vec::new();
    let mut hit_rates = Vec::new();
    let start = Instant::now();
    let deadline = seconds;
    let mut i = 0usize;
    while start.elapsed().as_secs_f64() < deadline {
        let slot = i % cycle.len();
        let spec = &cycle[slot];
        let kc = KCache::new();
        let env = JobEnv {
            cache: Some(&kc),
            ..JobEnv::new(&pool)
        };
        out.attempted += 1;
        let t0 = Instant::now();
        let result = spec.run(&env);
        let t1 = Instant::now();
        let problem = match result {
            Err(e) => Some(format!("job {i} ({}): {e}", spec.kind.as_str())),
            Ok(report) => {
                let json = report.to_json();
                let norm = report::normalize(&json).to_string_compact();
                let mut problem = check_report(spec, &json);
                match &first[slot] {
                    None => {
                        first[slot] = Some(norm);
                        first_sim[slot] = Some(sim_outputs(&json));
                    }
                    Some(reference) if *reference != norm => {
                        problem = Some(format!(
                            "job {i} ({}): normalized report differs from the first repetition",
                            spec.kind.as_str()
                        ));
                    }
                    Some(_) => {}
                }
                hit_rates.push(
                    json.get("memo_hit_rate")
                        .and_then(Json::as_f64)
                        .unwrap_or(0.0),
                );
                if let Some(tr) = tracer {
                    let op = i as u64;
                    let root = tr.span(op, None, "job", t0, Instant::now());
                    let run = tr.span(op, Some(root), "JobSpec::run", t0, t1);
                    if let Some(spans) = json.get("spans") {
                        tr.import_report_spans(op, run, t0, spans);
                    }
                    tr.span(op, Some(root), "check", t1, Instant::now());
                }
                problem
            }
        };
        match problem {
            None => {
                job_ms.push(util::ms(t1 - t0));
                per_spec_ms[slot].push(util::ms(t1 - t0));
            }
            Some(p) => {
                out.failed += 1;
                out.problems.push(p);
            }
        }
        i += 1;
    }
    let wall = start.elapsed().as_secs_f64();

    // Throughput at the workload's stated mix: one job of each distinct
    // spec, each at its median time. A run ends part-way through a
    // repetition of the cycle, and the raw rate would drift with
    // which specs that last partial repetition held.
    let mix_ms: f64 = per_spec_ms.iter().map(|v| util::median(v)).sum();
    let mix_cycles: f64 = first_sim.iter().flatten().map(|(c, _)| c).sum();
    if per_spec_ms.iter().any(Vec::is_empty) {
        out.failed += 1;
        out.problems
            .push("the run ended before every distinct spec completed once".into());
    }
    out.metric("setup_s", util::median(&setup_s), "s");
    out.metric("jobs_per_s", cycle.len() as f64 / mix_ms * 1e3, "1/s");
    out.metric("job_ms_p50", util::median(&job_ms), "ms");
    out.metric("sim_mcycles_per_s", mix_cycles / mix_ms / 1e3, "Mcycles/s");
    out.metric("peak_rss_mb", util::peak_rss_mb(None), "MiB");
    out.info(
        "jobs",
        format!(
            "{} in {wall:.2} s ({:.3} per s raw)",
            job_ms.len(),
            job_ms.len() as f64 / wall
        ),
    );
    out.tail_info("job_ms_p90", &job_ms, 0.9);
    out.info("distinct_specs", cycle.len().to_string());
    out.info("threads", threads.to_string());
    out.kcache_hit_rate = util::mean(&hit_rates);
    for (spec, ms) in cycle.iter().zip(&per_spec_ms) {
        out.info(
            &format!(
                "spec {}/{}/{}/{}",
                spec.kind.as_str(),
                spec.core,
                spec.variant,
                spec.effective_limbs()
            ),
            format!("median {:.3} ms over {}", util::median(ms), ms.len()),
        );
    }
    out.sim_digest(&cycle, &first_sim);
    out.job_ms = job_ms;
    out
}
