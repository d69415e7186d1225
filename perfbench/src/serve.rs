//! The served workload: the shipped `xserve` daemon as a child process
//! on a Unix socket, driven by one generator process over two
//! connections.
//!
//! * Jobs: an open loop. `N` arrivals at one fixed rate, placed as a
//!   Poisson process conditioned on its count (sorted uniform times),
//!   each timed from when it was due to its last report frame. Mostly
//!   small `measure` jobs with fresh stimulus seeds (an ISS run plus a
//!   `KCache` insert), with an occasional 128-bit `explore`.
//! * Queries: a closed loop of kernel-cycle queries over a hot key set
//!   filled during set-up (hits), a fixed share of new keys (misses:
//!   an inline ISS run and an insert) and a small fixed share of
//!   malformed lines, which must get their typed error codes.
//!
//! The job connection reads and writes concurrently, so it speaks the
//! wire through `xserve::proto` directly; set-up, stats and shutdown go
//! through `xserve::Client`.

use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use kreg::{KernelId, KernelVariant};
use secproc::job::{cached_kernel_cycles, JobEnv, JobSpec};
use secproc::kcache::KCache;
use xobs::{report, Assembler, Json};
use xpar::Pool;
use xr32::config::CpuConfig;
use xserve::{Client, Request, Response};

use crate::batch;
use crate::trace::Tracer;
use crate::util::{self, Rng};
use crate::Outcome;

pub struct Config {
    /// The `xserve` daemon binary.
    pub xserve: PathBuf,
    /// Where sockets and cache files live (inside the checkout).
    pub out: PathBuf,
}

/// Offered job rate of the open loop (jobs per second), well under what
/// the daemon completes on two cores.
const JOB_RATE: f64 = 40.0;
/// Share of jobs that are 128-bit `explore` runs.
const EXPLORE_SHARE: f64 = 0.01;
/// Hot keys filled during set-up. Each fill is an ISS run in the
/// daemon, so set-up is mostly simulation work rather than the
/// process-spawn and wake-up latencies that dominate a bare boot.
const HOT_KEYS: usize = 192;
/// Pause between a query's reply and the next query: one tool asking
/// in a loop, leaving the job stream CPU on a small host.
const QUERY_THINK: Duration = Duration::from_micros(500);
/// Share of queries for new keys, and of malformed lines.
const MISS_SHARE: f64 = 0.01;
const MALFORMED_SHARE: f64 = 0.005;
/// Daemon boots per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// Completed jobs re-run in-process for the byte-identity check.
const DIRECT_CHECKS: usize = 6;
/// New-key answers re-measured in-process after the traffic.
const MISS_CHECKS: usize = 24;
/// How long to wait for outstanding jobs after the last arrival.
const DRAIN: Duration = Duration::from_secs(60);

const MALFORMED: [(&str, u32); 3] = [
    ("this is not json", 4001),
    (r#"{"op":"frobnicate"}"#, 4002),
    (r#"{"op":"submit","spec":{"kind":"nope"}}"#, 5002),
];

const MPN: [KernelId; 8] = kreg::id::MPN;

#[derive(Clone)]
struct Key {
    core: String,
    variant: String,
    kernel: KernelId,
    n: usize,
    seed: u64,
}

impl Key {
    fn random(rng: &mut Rng) -> Key {
        let ooo = CpuConfig::ooo().core_id();
        Key {
            core: if rng.below(2) == 0 { "io".into() } else { ooo },
            variant: ["base", "accel-a4m2"][rng.below(2)].into(),
            kernel: MPN[rng.below(7)],
            n: [4, 8, 16][rng.below(3)],
            seed: rng.next_u64() >> 12,
        }
    }

    fn request(&self) -> Request {
        Request::Query {
            core: self.core.clone(),
            variant: self.variant.clone(),
            kernel: self.kernel.name().to_owned(),
            n: self.n,
            seed: self.seed,
        }
    }

    /// The answer computed in-process through the daemon's own query
    /// primitive, without a cache.
    fn reference(&self) -> Result<f64, String> {
        let mut probe = JobSpec::new(secproc::JobKind::Measure);
        probe.core = self.core.clone();
        let config = probe.config().map_err(|e| e.to_string())?;
        let variant = KernelVariant::parse_tag(&self.variant).ok_or("bad variant tag")?;
        cached_kernel_cycles(&config, variant, self.kernel, self.n, self.seed, None)
            .map_err(|e| e.to_string())
    }
}

/// A running daemon; killed and reaped on drop if not stopped cleanly.
struct Daemon {
    child: Child,
    sock: PathBuf,
    cache: PathBuf,
}

impl Daemon {
    fn boot(cfg: &Config, tag: &str) -> Result<(Daemon, Client), String> {
        let threads = util::nproc().to_string();
        let sock = cfg
            .out
            .join(format!("xs-{}-{tag}.sock", std::process::id()));
        let cache = cfg
            .out
            .join(format!("kcache-{}-{tag}.json", std::process::id()));
        let _ = std::fs::remove_file(&sock);
        let _ = std::fs::remove_file(&cache);
        let child = Command::new(&cfg.xserve)
            .arg("--unix")
            .arg(&sock)
            .args(["--executors", &threads])
            .env("WSP_THREADS", &threads)
            .env("WSP_KCACHE", &cache)
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", cfg.xserve.display()))?;
        let mut daemon = Daemon { child, sock, cache };
        let deadline = Instant::now() + Duration::from_secs(20);
        loop {
            if let Ok(mut client) = Client::connect_unix(&daemon.sock) {
                if client.stats().is_ok() {
                    return Ok((daemon, client));
                }
            }
            if let Ok(Some(status)) = daemon.child.try_wait() {
                return Err(format!("xserve exited during boot: {status}"));
            }
            if Instant::now() > deadline {
                return Err("xserve did not answer stats within 20 s".into());
            }
            thread::sleep(Duration::from_millis(1));
        }
    }

    /// Peak RSS, then a graceful shutdown; removes the socket and the
    /// persisted cache file.
    fn stop(mut self, client: &mut Client) -> f64 {
        let rss = util::peak_rss_mb(Some(self.child.id()));
        let _ = client.shutdown();
        let deadline = Instant::now() + Duration::from_secs(10);
        while matches!(self.child.try_wait(), Ok(None)) && Instant::now() < deadline {
            thread::sleep(Duration::from_millis(5));
        }
        rss
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if matches!(self.child.try_wait(), Ok(None)) {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
        let _ = std::fs::remove_file(&self.sock);
        let _ = std::fs::remove_file(&self.cache);
    }
}

/// Everything one traffic session measured.
pub struct Session {
    pub out: Outcome,
    pub setup_s: f64,
    pub jobs_per_s: f64,
    pub job_ms: Vec<f64>,
    pub run_ms: Vec<f64>,
    pub first_frame_ms: Vec<f64>,
    pub queue_wait_ms: Vec<f64>,
    pub lag_ms: Vec<f64>,
    pub query_us: Vec<f64>,
    pub queries_per_s: f64,
    pub typed_errors: u64,
    pub sim_cycles: f64,
    pub wall_s: f64,
    pub peak_rss_mb: f64,
    pub hit_rate: f64,
}

/// The served workload as an end-to-end run.
pub fn run(
    cfg: &Config,
    seed: u64,
    seconds: f64,
    tracer: Option<&Tracer>,
) -> Result<Outcome, String> {
    let s = session(cfg, seed, seconds, tracer)?;
    let mut out = s.out;
    out.metric("setup_s", s.setup_s, "s");
    out.metric("jobs_per_s", s.jobs_per_s, "1/s");
    out.metric("job_ms_p50", util::median(&s.job_ms), "ms");
    out.metric(
        "sim_mcycles_per_s",
        s.sim_cycles / s.wall_s / 1e6,
        "Mcycles/s",
    );
    out.metric("peak_rss_mb", s.peak_rss_mb, "MiB");
    out.tail_info("job_ms_p90", &s.job_ms, 0.9);
    out.tail_info("job_ms_p99", &s.job_ms, 0.99);
    out.info("queries_per_s", format!("{:.1}", s.queries_per_s));
    out.info("query_us_p50", format!("{:.2}", util::median(&s.query_us)));
    out.tail_info("query_us_p99", &s.query_us, 0.99);
    out.info("typed_errors", s.typed_errors.to_string());
    out.info("gen.lag_ms_max", format!("{:.3}", util::max(&s.lag_ms)));
    out.kcache_hit_rate = s.hit_rate;
    out.job_ms = s.job_ms;
    Ok(out)
}

struct JobRecord {
    due: Instant,
    sent: Option<Instant>,
    accepted: Option<Instant>,
    first_frame: Option<Instant>,
    done: Option<Instant>,
    report: Option<Json>,
    error: Option<String>,
    asm: Assembler,
}

/// Boots the daemon `SETUP_REPS` times (keeping the last), drives both
/// streams for `seconds`, drains, checks and shuts down.
pub fn session(
    cfg: &Config,
    seed: u64,
    seconds: f64,
    tracer: Option<&Tracer>,
) -> Result<Session, String> {
    let mut rng = Rng::new(seed ^ 0x5e7e);
    let hot: Vec<Key> = (0..HOT_KEYS).map(|_| Key::random(&mut rng)).collect();

    let mut setup = Vec::new();
    let mut live = None;
    for rep in 0..SETUP_REPS {
        let t = Instant::now();
        let (daemon, mut client) = Daemon::boot(cfg, &rep.to_string())?;
        let mut answers = Vec::with_capacity(hot.len());
        for key in &hot {
            answers.push(
                client
                    .query(&key.core, &key.variant, key.kernel.name(), key.n, key.seed)
                    .map_err(|e| format!("prefill query failed: {e}"))?,
            );
        }
        setup.push(t.elapsed().as_secs_f64());
        if let Some((old, mut old_client, _)) = live.replace((daemon, client, answers)) {
            Daemon::stop(old, &mut old_client);
        }
    }
    let (daemon, mut client, prefill) = live.expect("set-up ran");

    let mut out = Outcome::default();
    let mut refs = Vec::with_capacity(hot.len());
    for (key, got) in hot.iter().zip(&prefill) {
        let want = key.reference()?;
        if *got != want {
            out.failed += 1;
            out.problems
                .push(format!("prefill answer {got} != reference {want}"));
        }
        refs.push(want);
    }

    // The open-loop schedule and the job mix.
    let n_jobs = (JOB_RATE * seconds).round().max(1.0) as usize;
    let mut offsets: Vec<f64> = (0..n_jobs).map(|_| rng.unit() * seconds).collect();
    offsets.sort_by(f64::total_cmp);
    // Every `1 / EXPLORE_SHARE`-th arrival, from a seeded offset, is an
    // explore job: the mix, and so the simulated work, does not drift
    // with the seed, and two explore jobs seldom overlap.
    let stride = (1.0 / EXPLORE_SHARE).round() as usize;
    let offset = rng.below(stride);
    let is_explore: Vec<bool> = (0..n_jobs).map(|j| j % stride == offset).collect();
    let specs: Vec<JobSpec> = is_explore
        .iter()
        .map(|&e| job_spec(&mut rng, e))
        .collect::<Result<_, _>>()?;
    let mut direct: Vec<usize> = (0..n_jobs).collect();
    rng.shuffle(&mut direct);
    let explore_pick = direct
        .iter()
        .position(|&j| specs[j].kind == secproc::JobKind::Explore);
    let mut direct_set: Vec<usize> = direct.iter().copied().take(DIRECT_CHECKS).collect();
    if let Some(pos) = explore_pick.filter(|&p| p >= DIRECT_CHECKS) {
        direct_set.push(direct[pos]);
    }

    let start = Instant::now();
    let records: Arc<Mutex<Vec<JobRecord>>> = Arc::new(Mutex::new(
        offsets
            .iter()
            .map(|o| JobRecord {
                due: start + Duration::from_secs_f64(*o),
                sent: None,
                accepted: None,
                first_frame: None,
                done: None,
                report: None,
                error: None,
                asm: Assembler::new(),
            })
            .collect(),
    ));
    let job_stream = UnixStream::connect(&daemon.sock).map_err(|e| format!("connect: {e}"))?;
    job_stream
        .set_read_timeout(Some(Duration::from_millis(200)))
        .map_err(|e| e.to_string())?;
    let stop = Arc::new(AtomicBool::new(false));
    let reader = {
        let stream = job_stream.try_clone().map_err(|e| e.to_string())?;
        let records = Arc::clone(&records);
        let stop = Arc::clone(&stop);
        thread::spawn(move || read_jobs(stream, &records, &stop))
    };
    let sender = {
        let mut stream = job_stream;
        let records = Arc::clone(&records);
        let specs = specs.clone();
        thread::spawn(move || -> Result<(), String> {
            for (j, spec) in specs.into_iter().enumerate() {
                let due = records.lock().expect("records poisoned")[j].due;
                if let Some(wait) = due.checked_duration_since(Instant::now()) {
                    thread::sleep(wait);
                }
                let line = Request::Submit {
                    id: Some(format!("j{j}")),
                    priority: 0,
                    spec,
                }
                .to_json()
                .to_string_compact();
                writeln!(stream, "{line}").map_err(|e| format!("submit: {e}"))?;
                records.lock().expect("records poisoned")[j].sent = Some(Instant::now());
            }
            Ok(())
        })
    };

    // The closed-loop query stream, on this thread.
    let q = query_loop(&daemon.sock, &hot, &refs, &mut rng, start, seconds, tracer)?;

    let send_result = sender.join().map_err(|_| "job sender panicked")?;
    let drain_deadline = Instant::now() + DRAIN;
    loop {
        let done = records
            .lock()
            .expect("records poisoned")
            .iter()
            .all(|r| r.done.is_some() || r.error.is_some());
        if done || Instant::now() > drain_deadline || send_result.is_err() {
            break;
        }
        thread::sleep(Duration::from_millis(5));
    }
    stop.store(true, Ordering::SeqCst);
    reader.join().map_err(|_| "job reader panicked")?;
    send_result?;

    let stats = client.stats().map_err(|e| format!("stats: {e}"))?;
    let peak_rss_mb = daemon.stop(&mut client);

    // Tally jobs.
    let records = std::mem::take(&mut *records.lock().expect("records poisoned"));
    let mut s = Session {
        out: Outcome::default(),
        setup_s: util::median(&setup),
        jobs_per_s: 0.0,
        job_ms: Vec::new(),
        run_ms: Vec::new(),
        first_frame_ms: Vec::new(),
        queue_wait_ms: Vec::new(),
        lag_ms: Vec::new(),
        query_us: q.rtt_us,
        queries_per_s: q.count as f64 / q.wall_s,
        typed_errors: q.typed_errors,
        sim_cycles: 0.0,
        wall_s: 0.0,
        peak_rss_mb,
        hit_rate: 0.0,
    };
    out.attempted += q.count + q.malformed;
    out.failed += q.failed;
    out.problems.extend(q.problems);
    let mut last_done = start;
    let mut sim = Vec::new();
    for (j, r) in records.iter().enumerate() {
        out.attempted += 1;
        let problem = match (&r.report, &r.error) {
            (_, Some(e)) => Some(format!("job j{j}: {e}")),
            (None, None) => Some(format!("job j{j}: no report before the drain deadline")),
            (Some(json), None) => batch::check_report(&specs[j], json),
        };
        if let Some(p) = problem {
            out.failed += 1;
            out.problems.push(p);
            continue;
        }
        let json = r.report.as_ref().expect("checked above");
        let done = r.done.expect("a report implies a last frame");
        let first = r.first_frame.expect("a report implies a first frame");
        last_done = last_done.max(done);
        s.job_ms.push(util::ms(done - r.due));
        let run_ms = json.get("wall_ms").and_then(Json::as_f64).unwrap_or(0.0);
        s.run_ms.push(run_ms);
        if let Some(sent) = r.sent {
            s.lag_ms.push(util::ms(sent - r.due));
            s.first_frame_ms.push(util::ms(first - sent));
            // Submit → first frame, less the job's own run time as its
            // report stamps it: time spent in the daemon outside
            // `JobSpec::run` (parse, queue, serialize, first frame).
            s.queue_wait_ms
                .push((util::ms(first - sent) - run_ms).max(0.0));
        }
        let (cycles, best) = batch::sim_outputs(json);
        s.sim_cycles += cycles;
        if direct_set.contains(&j) {
            sim.push(format!("{:016x}/{cycles}/{best}", specs[j].digest()));
        }
        s.hit_rate = json
            .get("memo_hit_rate")
            .and_then(Json::as_f64)
            .unwrap_or(0.0);
        if let Some(tr) = tracer {
            let op = j as u64;
            let root = tr.span(op, None, "job", r.due, done);
            // The daemon may send a job's frames before its `accepted`
            // line, so the daemon's share is one span: submit written →
            // first frame.
            if let Some(sent) = r.sent {
                tr.span(op, Some(root), "gen.lag", r.due, sent);
                tr.span(op, Some(root), "daemon", sent, first);
            }
            tr.span(op, Some(root), "frames", first, done);
        }
    }
    s.wall_s = (last_done - start).as_secs_f64().max(1e-9);
    s.jobs_per_s = s.job_ms.len() as f64 / s.wall_s;
    if stats.failed != 0 {
        out.problems
            .push(format!("daemon counted {} failed jobs", stats.failed));
    }

    // A seeded sample of daemon jobs must equal a direct run.
    let pool = Pool::new(util::nproc());
    for &j in &direct_set {
        let Some(daemon_json) = &records[j].report else {
            continue;
        };
        let kc = KCache::new();
        let env = JobEnv {
            cache: Some(&kc),
            ..JobEnv::new(&pool)
        };
        match specs[j].run(&env) {
            Ok(rep) => {
                let a = report::normalize(&rep.to_json()).to_string_compact();
                let b = report::normalize(daemon_json).to_string_compact();
                if a != b {
                    out.failed += 1;
                    out.problems
                        .push(format!("job j{j}: daemon report differs from a direct run"));
                }
            }
            Err(e) => {
                out.failed += 1;
                out.problems.push(format!("direct run of j{j}: {e}"));
            }
        }
    }
    // New-key answers, a seeded sample, against the reference.
    for (key, got) in q.misses.iter().take(MISS_CHECKS) {
        let want = key.reference()?;
        if *got != want {
            out.failed += 1;
            out.problems
                .push(format!("new-key query answered {got}, reference {want}"));
        }
    }
    out.info("jobs", format!("{} of {} offered", s.job_ms.len(), n_jobs));
    out.info("offered_jobs_per_s", format!("{JOB_RATE}"));
    out.info("run_ms_p50", format!("{:.3}", util::median(&s.run_ms)));
    out.info(
        "first_frame_ms_p50",
        format!("{:.3}", util::median(&s.first_frame_ms)),
    );
    out.info(
        "queue_wait_ms_p50",
        format!("{:.3}", util::median(&s.queue_wait_ms)),
    );
    out.info(
        "sim_digest",
        format!(
            "{:016x} (direct-checked jobs and hot-key answers)",
            util::fnv(sim.into_iter().chain(prefill.iter().map(|c| c.to_string())))
        ),
    );
    s.out = out;
    Ok(s)
}

fn job_spec(rng: &mut Rng, explore: bool) -> Result<JobSpec, String> {
    let line = if explore {
        r#"{"kind":"explore","bits":128,"cosim_samples":2}"#.to_owned()
    } else {
        let mut kernels: Vec<&str> = MPN.iter().map(|k| k.name()).collect();
        rng.shuffle(&mut kernels);
        kernels.truncate(1 + rng.below(3));
        let kernels: Vec<String> = kernels.iter().map(|k| format!("\"{k}\"")).collect();
        let key = Key::random(rng);
        format!(
            r#"{{"kind":"measure","core":"{}","variant":"{}","kernels":[{}],"limbs":{},"seed":"{}"}}"#,
            key.core,
            key.variant,
            kernels.join(","),
            key.n,
            rng.next_u64()
        )
    };
    JobSpec::parse(&line).map_err(|e| format!("generated spec rejected: {e}"))
}

/// Reads job traffic until every job has ended or `stop` is set.
fn read_jobs(stream: UnixStream, records: &Mutex<Vec<JobRecord>>, stop: &AtomicBool) {
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    while !stop.load(Ordering::SeqCst) {
        match reader.read_line(&mut line) {
            Ok(0) => return,
            Ok(_) if line.ends_with('\n') => {}
            // A timeout mid-line keeps the partial line for the next read.
            Ok(_) => continue,
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                continue
            }
            Err(_) => return,
        }
        let now = Instant::now();
        let resp = Response::parse(line.trim_end());
        line.clear();
        let mut recs = records.lock().expect("records poisoned");
        let slot = |id: &str| id.strip_prefix('j').and_then(|n| n.parse::<usize>().ok());
        match resp {
            Ok(Response::Accepted { id, .. }) => {
                if let Some(r) = slot(&id).and_then(|j| recs.get_mut(j)) {
                    r.accepted = Some(now);
                }
            }
            Ok(Response::JobFrame { id, frame }) => {
                if let Some(r) = slot(&id).and_then(|j| recs.get_mut(j)) {
                    r.first_frame.get_or_insert(now);
                    match r.asm.push(&frame) {
                        Ok(Some(doc)) => match xobs::json::parse(&doc) {
                            Ok(json) => {
                                r.report = Some(json);
                                r.done = Some(now);
                            }
                            Err(e) => r.error = Some(format!("report document corrupt: {e}")),
                        },
                        Ok(None) => {}
                        Err(e) => r.error = Some(format!("frame stream corrupt: {e}")),
                    }
                }
            }
            Ok(Response::JobError { id, code, detail }) => {
                if let Some(r) = slot(&id).and_then(|j| recs.get_mut(j)) {
                    r.error = Some(format!("job error {code}: {detail}"));
                }
            }
            Ok(Response::Error { code, detail }) => {
                // A rejected submit: charge the oldest sent, unanswered job.
                if let Some(r) = recs
                    .iter_mut()
                    .find(|r| r.sent.is_some() && r.accepted.is_none())
                {
                    r.error = Some(format!("submit rejected {code}: {detail}"));
                }
            }
            Ok(_) | Err(_) => {}
        }
    }
}

struct Queries {
    count: u64,
    malformed: u64,
    failed: u64,
    typed_errors: u64,
    rtt_us: Vec<f64>,
    wall_s: f64,
    misses: Vec<(Key, f64)>,
    problems: Vec<String>,
}

fn query_loop(
    sock: &Path,
    hot: &[Key],
    refs: &[f64],
    rng: &mut Rng,
    start: Instant,
    seconds: f64,
    tracer: Option<&Tracer>,
) -> Result<Queries, String> {
    let stream = UnixStream::connect(sock).map_err(|e| format!("connect: {e}"))?;
    let mut writer = stream.try_clone().map_err(|e| e.to_string())?;
    let mut reader = BufReader::new(stream);
    let mut q = Queries {
        count: 0,
        malformed: 0,
        failed: 0,
        typed_errors: 0,
        rtt_us: Vec::new(),
        wall_s: 0.0,
        misses: Vec::new(),
        problems: Vec::new(),
    };
    let mut line = String::new();
    let mut op = 1u64 << 32;
    while start.elapsed().as_secs_f64() < seconds {
        thread::sleep(QUERY_THINK);
        let r = rng.unit();
        let (text, expect_code, hot_slot, miss_key) = if r < MALFORMED_SHARE {
            let (text, code) = MALFORMED[rng.below(MALFORMED.len())];
            (text.to_owned(), Some(code), None, None)
        } else if r < MALFORMED_SHARE + MISS_SHARE {
            let key = Key::random(rng);
            (
                key.request().to_json().to_string_compact(),
                None,
                None,
                Some(key),
            )
        } else {
            let i = rng.below(hot.len());
            (
                hot[i].request().to_json().to_string_compact(),
                None,
                Some(i),
                None,
            )
        };
        let t0 = Instant::now();
        writeln!(writer, "{text}").map_err(|e| format!("query write: {e}"))?;
        line.clear();
        let n = reader
            .read_line(&mut line)
            .map_err(|e| format!("query read: {e}"))?;
        let t1 = Instant::now();
        if n == 0 {
            return Err("daemon closed the query connection".into());
        }
        let resp = Response::parse(line.trim_end());
        if let Some(code) = expect_code {
            q.malformed += 1;
            match resp {
                Ok(Response::Error { code: got, .. }) if got == code => q.typed_errors += 1,
                other => {
                    q.failed += 1;
                    q.problems.push(format!(
                        "malformed line {text:?} answered {other:?}, want {code}"
                    ));
                }
            }
            continue;
        }
        q.count += 1;
        match resp {
            Ok(Response::QueryResult { cycles }) => {
                q.rtt_us.push((t1 - t0).as_secs_f64() * 1e6);
                if let Some(i) = hot_slot {
                    if refs[i] != cycles {
                        q.failed += 1;
                        q.problems.push(format!(
                            "hot query answered {cycles}, reference {}",
                            refs[i]
                        ));
                    }
                }
                if let Some(key) = miss_key {
                    q.misses.push((key, cycles));
                }
            }
            other => {
                q.failed += 1;
                q.problems.push(format!("query answered {other:?}"));
            }
        }
        if let Some(tr) = tracer {
            tr.span(op, None, "query", t0, t1);
            op += 1;
        }
    }
    q.wall_s = start.elapsed().as_secs_f64();
    Ok(q)
}
