//! CI smoke gate for the serving layer (run by `scripts/ci.sh`).
//!
//! Boots an in-process daemon (one executor, in-memory cache) and
//! checks the four service invariants:
//!
//! 1. **Byte-identity** — a job run through the daemon and the same
//!    [`JobSpec`] run directly in-process produce identical normalized
//!    reports (volatile wall-clock/throughput keys stripped). A `curves`
//!    job is submitted twice — the first generates and gates the xopt
//!    variants, the second reuses them from the process's admission
//!    memo — and both served reports must equal the direct run's.
//! 2. **Cancellation** — a queued job cancelled before execution
//!    surfaces the stable `4004 PROTO_CANCELLED` code and counts in
//!    the scheduler's `cancelled` stat.
//! 3. **Query coherence** — concurrent clients hammering the cached
//!    kernel-cycle query path all observe the same cycle count per
//!    key, and the daemon serves ≥ 1000 of them.
//! 4. **Bad specs are typed, not fatal** — specs that would panic a job
//!    (an unbuildable lane count, a zero-bit exploration) are refused
//!    at submit with `5002 JOB_SPEC`, and the single executor still
//!    answers a valid job submitted after them.
//!
//! Exits 0 and prints `xserve-gate: PASS` on success; exits 1 with a
//! diagnostic on the first violated invariant.

use secproc::error::codes;
use secproc::job::{JobEnv, JobKind, JobSpec};
use std::collections::BTreeMap;
use std::thread;
use xobs::json::Json;
use xobs::report::normalize;
use xpar::Pool;
use xserve::{Bind, Client, Response, Server, ServerConfig};

fn fail(msg: &str) -> ! {
    eprintln!("xserve-gate: FAIL: {msg}");
    std::process::exit(1);
}

/// Fails unless a served report equals the direct run's after
/// normalization.
fn same_report(served: &Json, direct: &Json, what: &str) {
    let (served_n, direct_n) = (normalize(served), normalize(direct));
    if served_n != direct_n {
        eprintln!("--- daemon ---\n{}", served_n.to_string_pretty());
        eprintln!("--- direct ---\n{}", direct_n.to_string_pretty());
        fail(&format!(
            "{what}: daemon and direct reports differ after normalization"
        ));
    }
}

/// A characterization spec small enough for a smoke gate.
fn charact_spec() -> JobSpec {
    let mut spec = JobSpec::new(JobKind::Characterize);
    spec.limbs = 8;
    spec.train_samples = 8;
    spec.validation_points = 4;
    spec
}

/// A spec heavy enough to hold the single executor busy while the
/// cancellation races in behind it: a 128-bit exploration ranks all
/// 450 candidates (about 100 ms), where a whole-registry measurement
/// now finishes in well under a millisecond.
fn blocker_spec() -> JobSpec {
    JobSpec::explore(128, 1)
}

fn main() {
    let mut config = ServerConfig::new(Bind::Tcp("127.0.0.1:0".into()));
    config.executors = 1; // deterministic cancel-while-queued ordering
    let server = Server::bind(config).unwrap_or_else(|e| fail(&format!("bind: {e}")));
    let addr = server.local_addr().expect("tcp server has an address");
    let serve = thread::spawn(move || server.run());

    // 1. Byte-identity: daemon run vs direct in-process run.
    let spec = charact_spec();
    let mut client = Client::connect_tcp(addr).unwrap_or_else(|e| fail(&format!("connect: {e}")));
    let served = client
        .run_job(&spec, 0)
        .unwrap_or_else(|e| fail(&format!("daemon job: {e}")));
    let pool = Pool::from_env();
    let direct = spec
        .run(&JobEnv::new(&pool))
        .unwrap_or_else(|e| fail(&format!("direct job: {e}")));
    same_report(&served, &direct.to_json(), "characterize");
    let mut curves = JobSpec::new(JobKind::Curves);
    curves.limbs = 8;
    let served: Vec<Json> = ["cold", "warm"]
        .iter()
        .map(|memo| {
            client
                .run_job(&curves, 0)
                .unwrap_or_else(|e| fail(&format!("daemon curves job ({memo} memo): {e}")))
        })
        .collect();
    let direct = curves
        .run(&JobEnv::new(&pool))
        .unwrap_or_else(|e| fail(&format!("direct curves job: {e}")));
    for (memo, served) in ["cold", "warm"].iter().zip(&served) {
        same_report(served, &direct.to_json(), &format!("curves ({memo} memo)"));
    }
    println!(
        "xserve-gate: byte-identity holds (daemon == direct, normalized; curves cold + warm memo)"
    );

    // 2. Cancellation: queue a job behind a blocker, cancel it, and
    // expect the stable 4004 code on its stream.
    let (blocker_id, _) = client
        .submit(&blocker_spec(), 1, Some("blocker"))
        .unwrap_or_else(|e| fail(&format!("submit blocker: {e}")));
    let (victim_id, _) = client
        .submit(&charact_spec(), 0, Some("victim"))
        .unwrap_or_else(|e| fail(&format!("submit victim: {e}")));
    client
        .cancel(&victim_id)
        .unwrap_or_else(|e| fail(&format!("cancel: {e}")));
    let mut saw_cancel = false;
    let mut blocker_last = false;
    while !(saw_cancel && blocker_last) {
        match client.next_response() {
            Ok(Response::JobError { id, code, .. }) if id == victim_id => {
                if code != codes::PROTO_CANCELLED {
                    fail(&format!("victim ended with code {code}, want 4004"));
                }
                saw_cancel = true;
            }
            Ok(Response::JobFrame { id, frame }) if id == blocker_id => {
                blocker_last |= frame.last;
            }
            Ok(other) => fail(&format!("unexpected response: {other:?}")),
            Err(e) => fail(&format!("stream: {e}")),
        }
    }
    println!("xserve-gate: cancellation surfaces code 4004");

    // 3. Query coherence: 8 clients x 128 queries over 16 keys.
    let mut workers = Vec::new();
    for _ in 0..8 {
        workers.push(thread::spawn(move || {
            let mut c = Client::connect_tcp(addr)?;
            let mut seen = BTreeMap::new();
            for i in 0..128u64 {
                let seed = i % 16;
                let cycles = c.query("io", "base", "mpn_add_n", 4, seed)?;
                seen.insert(seed, cycles);
            }
            Ok::<_, secproc::Error>(seen)
        }));
    }
    let mut reference: Option<BTreeMap<u64, f64>> = None;
    for worker in workers {
        let seen = worker
            .join()
            .unwrap_or_else(|_| fail("query worker panicked"))
            .unwrap_or_else(|e| fail(&format!("query: {e}")));
        match &reference {
            None => reference = Some(seen),
            Some(reference) if *reference != seen => {
                fail("clients observed different cycle counts for the same key")
            }
            Some(_) => {}
        }
    }
    println!("xserve-gate: 8 clients agree on all cached query points");

    // 4. Bad specs: each is refused on the wire with 5002, and the one
    // executor survives to answer the next valid job.
    let mut bad_lanes = JobSpec::new(JobKind::Measure);
    bad_lanes.variant = "accel-a3m1".into();
    for (what, bad) in [
        ("lanes accel-a3m1", bad_lanes),
        ("explore bits 0", JobSpec::explore(0, 2)),
    ] {
        match client.submit(&bad, 0, None) {
            Err(e) if e.code() == codes::JOB_SPEC => {}
            Err(e) => fail(&format!("{what}: refused with {}, want 5002", e.code())),
            Ok((id, _)) => fail(&format!("{what}: accepted as job {id}, want 5002")),
        }
    }
    let mut after = JobSpec::new(JobKind::Measure);
    after.kernels = vec![kreg::id::ADD_N];
    after.limbs = 4;
    client
        .run_job(&after, 0)
        .unwrap_or_else(|e| fail(&format!("job after bad specs: {e}")));
    println!("xserve-gate: bad specs refused with 5002; executor still answers");

    let stats = client
        .stats()
        .unwrap_or_else(|e| fail(&format!("stats: {e}")));
    if stats.cancelled < 1 {
        fail("scheduler counted no cancellations");
    }
    if stats.queries < 1000 {
        fail(&format!(
            "served only {} queries, want >= 1000",
            stats.queries
        ));
    }
    if stats.completed < 2 {
        fail(&format!("completed {} jobs, want >= 2", stats.completed));
    }

    client
        .shutdown()
        .unwrap_or_else(|e| fail(&format!("shutdown: {e}")));
    match serve.join() {
        Ok(Ok(())) => {}
        Ok(Err(e)) => fail(&format!("serve loop: {e}")),
        Err(_) => fail("serve loop panicked"),
    }
    println!(
        "xserve-gate: PASS ({} jobs, {} queries, {} cancelled)",
        stats.completed, stats.queries, stats.cancelled
    );
}
