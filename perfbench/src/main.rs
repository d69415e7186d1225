//! The repository benchmark's runner.
//!
//! ```text
//! perfbench --workload <explore_cold|iss_sweep_cold|serve_mixed> --seed N
//!           --seconds S --trace <0|1> --xserve PATH --out DIR
//! ```
//!
//! Prints one `metric`/`info`/`problem` line per fact and, as the last
//! line of standard output, one JSON object with the keys `correct`,
//! `attempted`, `failed` and `metrics` (end-to-end metrics with
//! `--trace 0`, per-layer metrics with `--trace 1`). `perfbench/run.py`
//! builds this binary and the `xserve` daemon and forwards its
//! arguments; see `perfbench/README.md` for the workloads and metrics.

mod batch;
mod layers;
mod serve;
mod trace;
mod util;

use std::path::PathBuf;
use std::time::Instant;

use batch::Batch;
use secproc::job::JobSpec;
use xobs::Json;

/// What one run measured and checked.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// One line per failed operation or check.
    pub problems: Vec<String>,
    /// `(name, value, unit)`, in print order.
    pub metrics: Vec<(String, f64, &'static str)>,
    /// Facts printed for the reader but not reported as metrics.
    pub info: Vec<(String, String)>,
    /// Latency of every job that completed and passed its checks.
    pub job_ms: Vec<f64>,
    /// The traffic's `KCache` hit rate (as the job reports stamp it).
    pub kcache_hit_rate: f64,
}

impl Outcome {
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_owned(), value, unit));
    }

    pub fn info(&mut self, key: &str, value: impl Into<String>) {
        self.info.push((key.to_owned(), value.into()));
    }

    /// Adds another part's operation counts and failed checks.
    pub fn absorb_checks(&mut self, other: &Outcome) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.problems.extend(other.problems.iter().cloned());
    }

    /// A tail percentile with its sample count, printed only when at
    /// least ten samples lie beyond it.
    pub fn tail_info(&mut self, name: &str, samples: &[f64], p: f64) {
        let beyond = util::beyond(samples.len(), p);
        let value = if beyond >= 10 {
            format!("{:.3}", util::percentile(samples, p))
        } else {
            "unsupported".to_owned()
        };
        self.info(
            name,
            format!("{value} ({} samples, {beyond} beyond)", samples.len()),
        );
    }

    /// The digest of the first repetition of every distinct spec: equal
    /// across runs and commits whenever the simulated results are.
    pub fn sim_digest(&mut self, specs: &[JobSpec], first: &[Option<(f64, String)>]) {
        let value = if first.iter().all(Option::is_some) {
            let parts = specs.iter().zip(first).map(|(spec, sim)| {
                let (cycles, best) = sim.as_ref().expect("checked above");
                format!("{:016x}/{cycles}/{best}", spec.digest())
            });
            format!("{:016x}", util::fnv(parts))
        } else {
            "incomplete (the run ended before every distinct spec ran once)".to_owned()
        };
        self.info("sim_digest", value);
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    xserve: PathBuf,
    out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut xserve = None;
    let mut out = PathBuf::from(".bench_out");
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| "--seed needs an integer")?),
            "--seconds" => seconds = Some(value.parse().map_err(|_| "--seconds needs a number")?),
            "--trace" => trace = Some(value == "1"),
            "--xserve" => xserve = Some(PathBuf::from(value)),
            "--out" => out = PathBuf::from(value),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        xserve: xserve.ok_or("--xserve is required")?,
        out,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let batch = match args.workload.as_str() {
        "explore_cold" => Some(Batch::Explore),
        "iss_sweep_cold" => Some(Batch::IssSweep),
        "serve_mixed" => None,
        other => {
            eprintln!("perfbench: unknown workload {other}");
            std::process::exit(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.out) {
        eprintln!("perfbench: cannot create {}: {e}", args.out.display());
        std::process::exit(1);
    }
    let serve_cfg = serve::Config {
        xserve: args.xserve.clone(),
        out: args.out.clone(),
    };
    let outcome = if args.trace {
        traced(&args, batch, &serve_cfg)
    } else {
        match batch {
            Some(kind) => Ok(batch::run(kind, args.seed, args.seconds, None)),
            None => serve::run(&serve_cfg, args.seed, args.seconds, None),
        }
    };
    let outcome = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    };
    emit(&args, &outcome);
}

/// The traced run: the layer suite (every per-layer metric, inputs
/// drawn from the seed), then the workload's own traffic with spans
/// around each public call for the rest of the time. The spans are
/// written to `<out>/trace-<workload>-<seed>.json` at exit.
fn traced(args: &Args, batch: Option<Batch>, serve_cfg: &serve::Config) -> Result<Outcome, String> {
    let started = Instant::now();
    let mut out = layers::run(args.seed, batch, serve_cfg)?;
    let left = (args.seconds - started.elapsed().as_secs_f64()).max(args.seconds / 2.0);
    let tracer = trace::Tracer::new();
    let traffic = match batch {
        Some(kind) => batch::run(kind, args.seed, left, Some(&tracer)),
        None => serve::run(serve_cfg, args.seed, left, Some(&tracer))?,
    };
    out.absorb_checks(&traffic);
    out.info.extend(traffic.info);
    // Set beside the untraced run's job_ms_p50, this gives the
    // tracing overhead (perfbench/steady.py prints it).
    out.metric("traced.job_ms_p50", util::median(&traffic.job_ms), "ms");
    out.metric("kcache.hit_rate", traffic.kcache_hit_rate, "ratio");
    out.kcache_hit_rate = traffic.kcache_hit_rate;
    for (layer, (count, total_ms, self_ms)) in tracer.self_times() {
        out.info(
            &format!("span {layer}"),
            format!("count {count}, total {total_ms:.1} ms, self {self_ms:.1} ms"),
        );
    }
    let path = args
        .out
        .join(format!("trace-{}-{}.json", args.workload, args.seed));
    std::fs::write(&path, tracer.to_json().to_string_compact())
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    out.info("trace_file", path.display().to_string());
    Ok(out)
}

fn emit(args: &Args, o: &Outcome) {
    println!(
        "workload {} seed {} seconds {} trace {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    for (k, v) in &o.info {
        println!("info {k}: {v}");
    }
    println!("info kcache.hit_rate: {:.4}", o.kcache_hit_rate);
    for p in o.problems.iter().take(20) {
        println!("problem {p}");
    }
    let failed_frac = o.failed as f64 / o.attempted.max(1) as f64;
    println!(
        "info failed_frac: {failed_frac} ({} of {})",
        o.failed, o.attempted
    );
    let mut metrics = Json::obj();
    for (name, value, unit) in &o.metrics {
        println!("metric {name} {value} {unit}");
        metrics = metrics.set(
            name.as_str(),
            Json::obj().set("value", *value).set("unit", *unit),
        );
    }
    let correct = o.failed == 0 && o.problems.is_empty() && o.attempted > 0;
    println!(
        "{}",
        Json::obj()
            .set("correct", correct)
            .set("attempted", o.attempted.max(1))
            .set("failed", o.failed)
            .set("metrics", metrics)
            .to_string_compact()
    );
}
