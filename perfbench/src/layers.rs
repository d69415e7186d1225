//! The layer suite of a traced run: each layer's public call, timed on
//! inputs drawn from the seed (sizes follow the workload), giving every
//! per-layer metric of `BENCHMARK.json`.

use std::hint::black_box;
use std::time::{Duration, Instant};

use kreg::{KernelId, KernelVariant};
use secproc::flow::{self, FlowBuilder};
use secproc::job::{JobEnv, JobSpec};
use secproc::kcache::{self, KCache};
use secproc::IssMpn;
use xobs::{frames, Assembler, Registry};
use xpar::Pool;
use xr32::config::CpuConfig;
use xr32::Fidelity;
use xserve::Request;

use crate::batch::Batch;
use crate::serve;
use crate::util::{self, Rng};
use crate::Outcome;

/// The paper's §4.3 figure: macro-model ranking vs ISS co-simulation.
const PAPER_SEC43_RATIO: f64 = 1407.0;
/// Glue cost per modeled call, as `JobSpec` defaults it.
const GLUE: f64 = 4.0;
/// Host time each ISS engine sweep runs for.
const ENGINE_BUDGET: Duration = Duration::from_millis(150);
/// Length of the short served session every traced run includes.
const SERVE_SECONDS: f64 = 2.0;

pub fn run(seed: u64, batch: Option<Batch>, serve_cfg: &serve::Config) -> Result<Outcome, String> {
    let mut rng = Rng::new(seed ^ 0x1a7e);
    let mut out = Outcome::default();
    let pool = Pool::new(util::nproc());
    let (bits, limbs) = match batch {
        Some(Batch::Explore) => {
            let bits = [128, 160, 192, 224, 256][rng.below(5)];
            (bits, (bits / 32).max(8))
        }
        Some(Batch::IssSweep) => (128, [4, 8, 12, 16][rng.below(4)]),
        None => (128, 8),
    };
    out.info("layer_suite", format!("bits {bits}, limbs {limbs}"));

    engines(&mut rng, &mut out);
    flow_phases(&pool, bits, limbs, &mut out)?;
    kcache_ops(&mut rng, &mut out);
    xpar_ops(&pool, &mut out);
    jobs_and_wire(&pool, &mut rng, &mut out)?;

    let s = serve::session(serve_cfg, seed, SERVE_SECONDS, None)?;
    out.absorb_checks(&s.out);
    out.metric("xserve.query_rtt_us", util::median(&s.query_us), "us");
    out.metric("xserve.queries_per_s", s.queries_per_s, "1/s");
    out.metric(
        "xserve.first_frame_ms",
        util::median(&s.first_frame_ms),
        "ms",
    );
    out.metric("xserve.queue_wait_ms", util::median(&s.queue_wait_ms), "ms");
    out.metric("xserve.typed_errors", s.typed_errors as f64, "count");
    out.metric("gen.lag_ms_max", util::max(&s.lag_ms), "ms");
    Ok(out)
}

/// The three `xr32` engines over one seeded sweep of kernel calls:
/// in-order and out-of-order through `IssMpn::measure32`, the fast
/// path through `IssMpn::verify32` under `Fidelity::Fast`. After the
/// first pass the three cores' architectural state must agree.
fn engines(rng: &mut Rng, out: &mut Outcome) {
    let calls: Vec<(KernelId, usize, u64)> = (0..96)
        .map(|_| {
            (
                kreg::id::MPN[rng.below(8)],
                [4, 8, 16, 32][rng.below(4)],
                rng.next_u64(),
            )
        })
        .collect();
    let mut states = Vec::new();
    for (name, config, fast) in [
        ("io", CpuConfig::default(), false),
        ("ooo", CpuConfig::ooo(), false),
        ("fast", CpuConfig::default(), true),
    ] {
        let mut iss = IssMpn::with_variant(config, KernelVariant::Base);
        iss.set_verify(false);
        if fast {
            iss.set_fidelity(Fidelity::Fast);
        }
        let retired0 = iss.arch_state32().retired;
        let mut busy = Duration::ZERO;
        let mut pass = 0;
        while pass == 0 || busy < ENGINE_BUDGET {
            let t = Instant::now();
            for &(kernel, n, seed) in &calls {
                let result = if fast {
                    iss.verify32(kernel, n, seed)
                } else {
                    iss.measure32(kernel, n, seed).map(|c| {
                        black_box(c);
                    })
                };
                if let Err(e) = result {
                    out.failed += 1;
                    out.problems.push(format!("{name} engine: {e}"));
                }
            }
            busy += t.elapsed();
            out.attempted += calls.len() as u64;
            if pass == 0 {
                states.push((name, iss.arch_state32()));
            }
            pass += 1;
        }
        let insns = iss.arch_state32().retired - retired0;
        out.metric(
            &format!("xr32.{name}.minsns_per_s"),
            insns as f64 / busy.as_secs_f64() / 1e6,
            "Minsns/s",
        );
    }
    if states.windows(2).any(|w| w[0].1 != w[1].1) {
        out.failed += 1;
        out.problems
            .push("io/ooo/fast ArchState disagree after the same sweep".into());
    }
}

/// Phases 1–4 through `FlowCtx`, uncached, plus the §4.3 ratio per
/// candidate on the same candidates.
fn flow_phases(pool: &Pool, bits: usize, limbs: usize, out: &mut Outcome) -> Result<(), String> {
    let config = CpuConfig::default();
    let reg = Registry::new();
    let ctx = FlowBuilder::new(&config)
        .pool(pool)
        .metrics(&reg)
        .build()
        .map_err(|e| e.to_string())?;
    let options = JobSpec::new(secproc::JobKind::Characterize).charact_options();

    let t = Instant::now();
    let models = ctx.characterize(limbs, &options);
    out.metric("phase1.ms", util::ms(t.elapsed()), "ms");
    out.metric(
        "phase1.stimuli",
        reg.counter("charact.stimuli_run").get() as f64,
        "count",
    );

    let t = Instant::now();
    let result = ctx
        .explore(&models, bits, GLUE)
        .map_err(|e| format!("explore: {e}"))?;
    out.metric("phase2.ms", util::ms(t.elapsed()), "ms");

    let sample: Vec<_> = result.ranked.iter().step_by(5).map(|c| c.config).collect();
    let t = Instant::now();
    for cand in &sample {
        black_box(flow::explore_single(&models, cand, bits, GLUE).map_err(|e| e.to_string())?);
    }
    out.metric(
        "phase2.us_per_candidate",
        t.elapsed().as_secs_f64() * 1e6 / sample.len() as f64,
        "us",
    );

    // §4.3 on two candidates (the best and the median one): ISS
    // co-simulation against the macro-model estimate of the same
    // candidate, each per candidate, cold.
    let picks = [
        result.ranked[0].config,
        result.ranked[result.ranked.len() / 2].config,
    ];
    let (mut cosim_s, mut model_s, mut err_pct) = (0.0, 0.0, Vec::new());
    const MODEL_REPS: u32 = 10;
    for cand in &picks {
        let t = Instant::now();
        let cosim = ctx
            .cosimulate(&models, cand, bits, GLUE)
            .map_err(|e| format!("cosimulate: {e}"))?;
        cosim_s += t.elapsed().as_secs_f64();
        let t = Instant::now();
        let mut est = 0.0;
        for _ in 0..MODEL_REPS {
            est = black_box(
                flow::explore_single(&models, cand, bits, GLUE).map_err(|e| e.to_string())?,
            );
        }
        model_s += t.elapsed().as_secs_f64() / f64::from(MODEL_REPS);
        err_pct.push(((est - cosim) / cosim).abs() * 100.0);
    }
    let per = picks.len() as f64;
    let cosim_ms = cosim_s * 1e3 / per;
    let model_us = model_s * 1e6 / per;
    out.metric("cosim.ms_per_candidate", cosim_ms, "ms");
    out.metric("sec43.cosim_over_model", cosim_ms * 1e3 / model_us, "ratio");
    out.info(
        "sec43",
        format!(
            "{:.1}x at {bits} bits = co-sim {cosim_ms:.3} ms/candidate over macro-model \
             {model_us:.1} us/candidate, cold, {} candidates; paper: {PAPER_SEC43_RATIO}x. \
             XR32 has no hardware reference in this repository, so the model is unvalidated; \
             model_error_pct {:.3} is macro-model vs this ISS, leaf models only",
            cosim_ms * 1e3 / model_us,
            picks.len(),
            util::mean(&err_pct)
        ),
    );

    let t = Instant::now();
    let (_curves, records) = ctx.curves_with_variants(limbs);
    out.metric("phase3.ms", util::ms(t.elapsed()), "ms");
    let admitted = records.iter().filter(|r| r.admitted).count();
    out.metric(
        "xopt.admitted_frac",
        admitted as f64 / records.len().max(1) as f64,
        "ratio",
    );
    out.info(
        "xopt.variants",
        format!("{admitted} of {} admitted", records.len()),
    );

    let t = Instant::now();
    black_box(ctx.cross_product_axis(limbs));
    out.metric("phase4.ms", util::ms(t.elapsed()), "ms");
    Ok(())
}

/// `KCache` get (hit and miss) and insert, per call.
fn kcache_ops(rng: &mut Rng, out: &mut Outcome) {
    const KEYS: usize = 4096;
    let fp = CpuConfig::default().fingerprint();
    let key = |i: usize, salt: u64| {
        kcache::key(
            fp,
            "base",
            kreg::id::MPN[i % 8].name(),
            (i % 32) as u64,
            salt + i as u64,
        )
    };
    let salt = rng.next_u64() >> 1;
    let present: Vec<String> = (0..KEYS).map(|i| key(i, salt)).collect();
    let absent: Vec<String> = (0..KEYS).map(|i| key(i, !salt)).collect();
    let mut order: Vec<usize> = (0..KEYS).collect();
    rng.shuffle(&mut order);
    let kc = KCache::new();
    let t = Instant::now();
    for k in &present {
        kc.insert(k, vec![1.0, 2.0]);
    }
    let insert_ns = t.elapsed().as_secs_f64() * 1e9 / KEYS as f64;
    let t = Instant::now();
    for &i in &order {
        black_box(kc.get(&present[i]));
    }
    let hit_ns = t.elapsed().as_secs_f64() * 1e9 / KEYS as f64;
    let t = Instant::now();
    for &i in &order {
        black_box(kc.get(&absent[i]));
    }
    let miss_ns = t.elapsed().as_secs_f64() * 1e9 / KEYS as f64;
    out.metric("kcache.get_hit_ns", hit_ns, "ns");
    out.metric("kcache.get_miss_ns", miss_ns, "ns");
    out.metric("kcache.insert_ns", insert_ns, "ns");
}

/// `Pool::par_map` overhead on no-op items, and queue wait and busy
/// share of one real fan-out (ISS measurement units) from the pool's
/// own job traces.
fn xpar_ops(pool: &Pool, out: &mut Outcome) {
    const CALLS: u32 = 200;
    let items: Vec<u64> = (0..pool.threads() as u64 * 4).collect();
    let t = Instant::now();
    for _ in 0..CALLS {
        black_box(pool.par_map(&items, |_, x| *x));
    }
    out.metric(
        "xpar.map_overhead_us",
        t.elapsed().as_secs_f64() * 1e6 / f64::from(CALLS),
        "us",
    );

    pool.set_tracing(true);
    let units: Vec<KernelId> = kreg::id::MPN.iter().cycle().take(16).copied().collect();
    pool.par_map(&units, |i, k| {
        let mut iss = IssMpn::with_variant(CpuConfig::default(), KernelVariant::Base);
        iss.set_verify(false);
        black_box(iss.measure32(*k, 16, i as u64).ok())
    });
    let traces = pool.take_job_traces();
    pool.set_tracing(false);
    let waits: Vec<f64> = traces
        .iter()
        .flat_map(|j| j.workers.iter().map(|w| w.queue_wait_nanos as f64 / 1e6))
        .collect();
    let busy: Vec<f64> = traces.iter().map(|j| j.busy_fraction()).collect();
    out.metric("xpar.queue_wait_ms", util::mean(&waits), "ms");
    out.metric("xpar.busy_frac", util::mean(&busy), "ratio");
}

/// Direct `JobSpec::run` of a measure and an explore job, the report
/// path (`xobs` serialize, frame split and reassembly) on the explore
/// report, and the wire parse of its submit line.
fn jobs_and_wire(pool: &Pool, rng: &mut Rng, out: &mut Outcome) -> Result<(), String> {
    let run = |spec: &JobSpec| -> Result<(f64, xobs::RunReport), String> {
        let kc = KCache::new();
        let env = JobEnv {
            cache: Some(&kc),
            ..JobEnv::new(pool)
        };
        let t = Instant::now();
        let report = spec.run(&env).map_err(|e| format!("direct job: {e}"))?;
        Ok((util::ms(t.elapsed()), report))
    };
    let mut measure_ms = Vec::new();
    for _ in 0..5 {
        let spec = JobSpec::parse(&format!(
            r#"{{"kind":"measure","kernels":["mpn_add_n","mpn_addmul_1","mpn_lshift"],"limbs":8,"seed":"{}"}}"#,
            rng.next_u64()
        ))
        .map_err(|e| e.to_string())?;
        measure_ms.push(run(&spec)?.0);
        out.attempted += 1;
    }
    out.metric("job.run_ms.measure", util::median(&measure_ms), "ms");
    let explore = JobSpec::explore(128, 2);
    let (explore_ms, report) = run(&explore)?;
    out.attempted += 1;
    out.metric("job.run_ms.explore", explore_ms, "ms");

    const REPS: u32 = 50;
    let t = Instant::now();
    let mut doc = String::new();
    for _ in 0..REPS {
        doc = black_box(report.to_json().to_string_compact());
    }
    out.metric(
        "xobs.serialize_us",
        t.elapsed().as_secs_f64() * 1e6 / f64::from(REPS),
        "us",
    );
    let t = Instant::now();
    for _ in 0..REPS {
        let mut asm = Assembler::new();
        let mut whole = None;
        for frame in frames::split(&doc, frames::DEFAULT_CHUNK) {
            whole = asm.push(&frame).map_err(|e| e.to_string())?;
        }
        if whole.as_deref() != Some(doc.as_str()) {
            out.failed += 1;
            out.problems
                .push("frames did not reassemble the report".into());
        }
    }
    out.metric(
        "xobs.frames_us",
        t.elapsed().as_secs_f64() * 1e6 / f64::from(REPS),
        "us",
    );

    let spec_text = explore.to_json().to_string_compact();
    let line = Request::Submit {
        id: Some("p".into()),
        priority: 0,
        spec: explore.clone(),
    }
    .to_json()
    .to_string_compact();
    const PARSES: u32 = 2000;
    let t = Instant::now();
    for _ in 0..PARSES {
        black_box(Request::parse(&line).map_err(|e| e.to_string())?);
        black_box(JobSpec::parse(&spec_text).map_err(|e| e.to_string())?);
    }
    out.metric(
        "xserve.parse_us",
        t.elapsed().as_secs_f64() * 1e6 / f64::from(PARSES),
        "us",
    );
    Ok(())
}
