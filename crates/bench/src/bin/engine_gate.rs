//! `engine_gate` — the co-simulation and timing gate over the three ISS
//! engines.
//!
//! Runs the kreg golden-reference verification workload (every
//! register-convention kernel, both radices, a deterministic size ×
//! seed lattice) on the in-order core, the out-of-order core and the
//! fast path. For every kernel sweep it compares the end-of-sweep
//! architectural state (final registers, whole-memory digest,
//! retired-instruction count) pairwise across the engines — timing
//! models reorder *cycles*, never *results* — then checks the timing
//! claims: the out-of-order core needs fewer simulated cycles than the
//! in-order one, with an IPC inside the sanity window (above the
//! in-order rate, at most the issue width), and the fast path beats the
//! in-order engine by at least `min_speedup` in wall clock.
//!
//! ```text
//! engine_gate [--json] [min_speedup] [passes]
//! ```
//!
//! `min_speedup` (default 3) is the wall-clock bound; `0` skips the
//! timed passes (co-simulation and the cycle claims are always
//! enforced). `passes` (default and minimum 5) timed passes each run
//! the workload once on the in-order engine and once on the fast path,
//! alternating which goes first; each engine's wall time is its
//! fastest pass, so one descheduled pass on a shared host cannot fail
//! the gate.
//!
//! Exits non-zero on any architectural divergence, any kernel error,
//! or a failed claim. Under `--json` emits a run report carrying the
//! `core_configs` array and a `fidelity_summary`.

use bench::{Cli, Harness};
use kreg::LibKind;
use secproc::issops::{ArchState, IssMpn};
use std::process::ExitCode;
use std::time::Instant;
use xobs::{Json, Registry, RunReport};
use xr32::config::CpuConfig;
use xr32::{Fidelity, OooParams};

/// The verification lattice: operand sizes crossing lane boundaries
/// (1..=4), typical mpn operand lengths, and larger points where the
/// engines' per-instruction cost dominates.
const SIZES: [usize; 10] = [1, 2, 3, 4, 8, 16, 64, 128, 256, 512];

/// One engine: a provider whose library assembly and core setup are
/// paid once, so timed passes compare execution only.
struct Engine {
    name: &'static str,
    iss: IssMpn,
    /// `(kernel, arch32, arch16)` after each kernel's co-simulation
    /// sweep.
    states: Vec<(&'static str, ArchState, ArchState)>,
    /// Kernel sweeps of the co-simulation pass (kernel × radix × size).
    sweeps: u64,
    /// Retired instructions and simulated cycles of the co-simulation
    /// pass, across both radix cores.
    insns: u64,
    cycles: u64,
    /// Rendered kernel errors of every pass (must be empty).
    errors: Vec<String>,
    /// Fastest timed pass.
    wall_ms: f64,
}

impl Engine {
    fn new(name: &'static str, config: &CpuConfig, fidelity: Fidelity) -> Self {
        let mut iss = IssMpn::base(config.clone());
        iss.set_fidelity(fidelity);
        Engine {
            name,
            iss,
            states: Vec::new(),
            sweeps: 0,
            insns: 0,
            cycles: 0,
            errors: Vec::new(),
            wall_ms: f64::INFINITY,
        }
    }

    /// Runs the workload once on the seeds of `pass`; the co-simulation
    /// pass (`capture`) also records sweeps and per-kernel states.
    fn pass(&mut self, pass: u64, capture: bool) {
        for desc in kreg::registry().iter().filter(|d| d.lib == LibKind::Mpn) {
            for (i, &n) in SIZES.iter().enumerate() {
                let seed = 0x600D_5EED ^ (pass << 32) ^ (i as u64);
                let ok32 = self.iss.verify32(desc.id, n, seed).is_ok();
                let ok16 = self.iss.verify16(desc.id, n, seed).is_ok();
                if capture {
                    self.sweeps += ok32 as u64 + ok16 as u64;
                }
            }
            let errors = self.iss.take_kernel_errors();
            self.errors.extend(errors.iter().map(|e| e.to_string()));
            if capture {
                let (s32, s16) = (self.iss.arch_state32(), self.iss.arch_state16());
                self.states.push((desc.id.name(), s32, s16));
            }
        }
        if capture {
            let (c32, c16) = self.iss.core_cycles();
            self.cycles = c32 + c16;
            self.insns = self.iss.arch_state32().retired + self.iss.arch_state16().retired;
        }
    }

    fn timed_pass(&mut self, pass: u64) {
        let t0 = Instant::now();
        self.pass(pass, false);
        self.wall_ms = self.wall_ms.min(t0.elapsed().as_secs_f64() * 1e3);
    }

    /// Aggregate instructions per cycle (0 for the fast path, which
    /// models no cycles).
    fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.insns as f64 / self.cycles as f64
        }
    }
}

fn main() -> ExitCode {
    let cli = Cli::parse();
    let harness = Harness::from_env();
    let min_speedup = cli.pos_usize(0, 3);
    let passes = if min_speedup > 0 {
        cli.pos_usize(1, 5).max(5)
    } else {
        0
    };
    let io_config = CpuConfig::default();
    let ooo_config = CpuConfig::ooo();
    let issue_width = OooParams::default().issue_width as f64;

    let mut io = Engine::new("io", &io_config, Fidelity::CycleAccurate);
    let mut ooo = Engine::new("ooo", &ooo_config, Fidelity::CycleAccurate);
    let mut fast = Engine::new("fast", &io_config, Fidelity::Fast);
    for engine in [&mut io, &mut ooo, &mut fast] {
        engine.pass(0, true);
    }
    for pass in 1..=passes as u64 {
        if pass % 2 == 0 {
            io.timed_pass(pass);
            fast.timed_pass(pass);
        } else {
            fast.timed_pass(pass);
            io.timed_pass(pass);
        }
    }

    // Co-simulation: every kernel sweep's architectural state must be
    // bit-identical on every pair of engines, with the same work done.
    let mut violations = Vec::new();
    let mut mismatches = 0;
    for (a, b) in [(&io, &ooo), (&io, &fast), (&ooo, &fast)] {
        let diverged: Vec<&str> = (a.states.iter().zip(&b.states))
            .filter(|(x, y)| x != y)
            .map(|(x, _)| x.0)
            .collect();
        if !diverged.is_empty() {
            mismatches += diverged.len();
            violations.push(format!(
                "architectural divergence {} vs {} on: {}",
                a.name,
                b.name,
                diverged.join(", ")
            ));
        }
        if (a.sweeps, a.insns) != (b.sweeps, b.insns) {
            violations.push(format!(
                "work disagreement: {} {}sw/{}in vs {} {}sw/{}in",
                a.name, a.sweeps, a.insns, b.name, b.sweeps, b.insns
            ));
        }
    }
    for e in io.errors.iter().chain(&ooo.errors).chain(&fast.errors) {
        violations.push(format!("kernel error: {e}"));
    }

    // Cycle claims: the out-of-order core must beat the in-order
    // baseline, and its IPC must sit above the in-order rate and at
    // most the issue width (beyond it the scoreboard leaks cycles).
    if ooo.cycles >= io.cycles {
        violations.push(format!(
            "no out-of-order win: {} cycles vs in-order {}",
            ooo.cycles, io.cycles
        ));
    }
    if io.ipc() > 1.0 {
        violations.push(format!("in-order IPC {:.3} exceeds single issue", io.ipc()));
    }
    if ooo.ipc() <= io.ipc() || ooo.ipc() > issue_width {
        violations.push(format!(
            "out-of-order IPC {:.3} outside sanity window ({:.3}, {issue_width}]",
            ooo.ipc(),
            io.ipc()
        ));
    }

    // Wall-clock claim: the fast path must stay well ahead of the
    // in-order engine, so a change that routes it back through timing
    // fails here.
    let speedup = io.wall_ms / fast.wall_ms;
    if passes > 0 && speedup < min_speedup as f64 {
        violations.push(format!(
            "fast path speedup {speedup:.2}x below required {min_speedup}x \
             (fast {:.2}ms vs in-order {:.2}ms, fastest of {passes} passes)",
            fast.wall_ms, io.wall_ms
        ));
    }

    if cli.json {
        let metrics = Registry::new();
        metrics.counter("engine.sweeps").add(io.sweeps);
        metrics.counter("engine.insns").add(io.insns);
        metrics.gauge("engine.io_ipc").set(io.ipc());
        metrics.gauge("engine.ooo_ipc").set(ooo.ipc());
        if passes > 0 {
            metrics.gauge("engine.io.wall_ms").set(io.wall_ms);
            metrics.gauge("engine.fast.wall_ms").set(fast.wall_ms);
        }
        harness.record_metrics(&metrics);
        let mut report = RunReport::new("engine_gate")
            .with_fingerprint(io_config.fingerprint())
            .result("min_speedup", min_speedup as u64)
            .result("passes", passes as u64)
            .result("kernels", io.states.len() as u64)
            .result("sweeps", io.sweeps)
            .result("insns", io.insns)
            .result("cosim_mismatches", mismatches as u64)
            .result("io_cycles", io.cycles)
            .result("ooo_cycles", ooo.cycles)
            .result("io_ipc", io.ipc())
            .result("ooo_ipc", ooo.ipc())
            .result("ooo_cycle_speedup", io.cycles as f64 / ooo.cycles as f64);
        if passes > 0 {
            report = report
                .result("io_wall_ms", io.wall_ms)
                .result("fast_wall_ms", fast.wall_ms)
                .result("fast_path_speedup", speedup);
        }
        let summary = |e: &Engine| Json::obj().set("sweeps", e.sweeps).set("insns", e.insns);
        let report = report
            .result(
                "violations",
                Json::Arr(violations.iter().map(|v| Json::from(v.as_str())).collect()),
            )
            .with_fidelity_summary(
                Json::obj()
                    .set("fast", summary(&fast))
                    .set("accurate", summary(&io)),
            )
            .with_core_configs([&io_config, &ooo_config].map(|c| {
                Json::obj()
                    .set("id", c.core_id())
                    .set("core_area", c.core.area_gates())
            }))
            .with_metrics(metrics.snapshot());
        bench::emit_report(&harness.finish(report));
    } else {
        println!(
            "engine_gate — {} kernels x {} sizes x 2 radices, {passes} timed passes",
            io.states.len(),
            SIZES.len()
        );
        println!(
            "  co-sim: {}/{} kernel sweeps bit-identical across io, ooo and fast",
            io.states.len() - mismatches.min(io.states.len()),
            io.states.len()
        );
        for (e, id) in [(&io, io_config.core_id()), (&ooo, ooo_config.core_id())] {
            println!(
                "  {id:<22} {:>12} cycles  {:>10} insns  IPC {:.3}",
                e.cycles,
                e.insns,
                e.ipc()
            );
        }
        println!(
            "  out-of-order cycle speedup {:.2}x (issue width {issue_width})",
            io.cycles as f64 / ooo.cycles as f64
        );
        if passes > 0 {
            println!(
                "  wall (fastest pass): in-order {:.2}ms, fast {:.2}ms, speedup {speedup:.2}x \
                 (required >= {min_speedup}x)",
                io.wall_ms, fast.wall_ms
            );
        }
        for v in &violations {
            eprintln!("engine_gate: VIOLATION: {v}");
        }
    }

    if violations.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
