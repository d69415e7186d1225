//! The cycle-accurate timing models.
//!
//! [`Cpu`](crate::cpu::Cpu) executes every instruction through the one
//! shared step in [`crate::exec`]; a timing model only charges cycles
//! around it. Two cycle-accurate models ship, over the same I/D caches:
//!
//! - [`inorder`]: the single-issue in-order 5-stage pipeline
//!   abstraction (per-register ready-time interlocks, taken branches
//!   pay the refill penalty, loads incur a load-use delay);
//! - [`ooo`]: a scoreboarded out-of-order family (reorder buffer,
//!   register renaming, reservation stations, a load-store queue and a
//!   2-bit branch predictor, all width-parameterized by
//!   [`OooParams`]).
//!
//! The third engine, the fast path in [`crate::xjit`], is the same
//! driver with no timing at all. Because every engine runs the same
//! step in program order, the final architectural state is
//! bit-identical across them by construction; only the *cycle*
//! accounting differs: the in-order core charges a single global clock
//! as it goes, while the out-of-order core books each instruction
//! through a dataflow scoreboard and reports the in-order *commit* time
//! of the last instruction. This is what makes cross-core
//! co-simulation (the `engine_gate` CI bin) a pure equality check.
//!
//! Which model a [`Cpu`](crate::cpu::Cpu) runs is selected by
//! [`CoreSpec`] on [`CpuConfig`]; the spec's [`id()`](CoreSpec::id)
//! string (`"io"`, `"ooo-…"`) is the *CoreConfigId* stamped into cache
//! keys, measurement-unit names, span attributes and run reports by the
//! layers above.

pub mod inorder;
pub mod ooo;

pub use ooo::OooParams;

use crate::cache::Cache;
use crate::config::CpuConfig;
use inorder::InOrder;
use ooo::OutOfOrder;

/// Core microarchitecture selection, carried by
/// [`CpuConfig`].
///
/// The spec is part of a configuration's identity: it is mixed into
/// [`CpuConfig::fingerprint`](crate::config::CpuConfig::fingerprint)
/// (so kernel-cycle cache keys can never collide across core models)
/// and rendered by [`CoreSpec::id`] for human-readable cache units,
/// span attributes and report fields.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum CoreSpec {
    /// The in-order baseline pipeline.
    #[default]
    InOrder,
    /// An out-of-order pipeline with the given structure widths.
    OutOfOrder(OooParams),
}

impl CoreSpec {
    /// The short core-configuration identifier (*CoreConfigId*) used in
    /// cache keys, measurement-unit names, span attributes and report
    /// fields: `"io"` for the in-order core, `"ooo-…"` (widths
    /// encoded) for out-of-order members.
    pub fn id(&self) -> String {
        match self {
            CoreSpec::InOrder => "io".to_owned(),
            CoreSpec::OutOfOrder(p) => p.id(),
        }
    }

    /// Structural gate-equivalent cost of this core's out-of-order
    /// machinery *relative to the in-order baseline* (which prices at
    /// zero): ROB, reservation-station and load-store-queue entries
    /// plus the branch-predictor counter table, from the
    /// [`crate::area`] constants. This is the core axis of the
    /// cross-product (core × accelerator level) Pareto fronts.
    pub fn area_gates(&self) -> u64 {
        match self {
            CoreSpec::InOrder => 0,
            CoreSpec::OutOfOrder(p) => p.area_gates(),
        }
    }

    /// Parses a *CoreConfigId* produced by [`CoreSpec::id`] back to the
    /// spec — the wire-deserialization inverse used by serialized job
    /// specs. `None` for malformed ids, so a parsed spec always builds.
    pub fn parse(id: &str) -> Option<CoreSpec> {
        if id == "io" {
            return Some(CoreSpec::InOrder);
        }
        let rest = id.strip_prefix("ooo-i")?;
        let (issue, rest) = rest.split_once('x')?;
        let (retire, rest) = rest.split_once("-r")?;
        let (rob, rest) = rest.split_once('s')?;
        let (rs, rest) = rest.split_once('l')?;
        let (lsq, pred) = rest.split_once('b')?;
        Some(CoreSpec::OutOfOrder(OooParams {
            issue_width: issue.parse().ok()?,
            retire_width: retire.parse().ok()?,
            rob_entries: rob.parse().ok()?,
            rs_entries: rs.parse().ok()?,
            lsq_entries: lsq.parse().ok()?,
            predictor_entries: pred.parse().ok()?,
        }))
    }
}

/// Timing state every cycle-accurate model keeps across runs on one
/// core, with the latencies it charges.
pub(crate) struct Clock {
    pub icache: Cache,
    pub dcache: Cache,
    /// The global cycle counter (monotone across runs on one core).
    pub cycles: u64,
    /// Per-register result-ready times: the in-order interlock table,
    /// or the out-of-order rename table's completion times.
    pub reg_ready: [u64; 16],
    pub mem_latency: u32,
    pub branch_penalty: u32,
    pub mul_latency: u32,
}

impl Clock {
    fn new(config: &CpuConfig) -> Self {
        Clock {
            icache: Cache::new(config.icache),
            dcache: Cache::new(config.dcache),
            cycles: 0,
            reg_ready: [0; 16],
            mem_latency: config.mem_latency,
            branch_penalty: config.branch_penalty,
            mul_latency: config.mul_latency,
        }
    }

    fn reset(&mut self) {
        self.icache.reset();
        self.dcache.reset();
        self.cycles = 0;
        self.reg_ready = [0; 16];
    }
}

/// The cycle-accurate model a core runs: the closed set [`CoreSpec`]
/// selects from.
pub(crate) enum Core {
    InOrder(Box<InOrder>),
    OutOfOrder(Box<OutOfOrder>),
}

impl Core {
    /// The model `config.core` selects, with a cold clock.
    pub(crate) fn new(config: &CpuConfig) -> Self {
        let clock = Clock::new(config);
        match config.core {
            CoreSpec::InOrder => Core::InOrder(Box::new(InOrder { clock })),
            CoreSpec::OutOfOrder(p) => Core::OutOfOrder(Box::new(OutOfOrder::new(p, clock))),
        }
    }

    pub(crate) fn clock(&self) -> &Clock {
        match self {
            Core::InOrder(m) => &m.clock,
            Core::OutOfOrder(m) => &m.clock,
        }
    }

    /// Clears the clock, the caches and model-internal timing state
    /// such as branch-predictor counters.
    pub(crate) fn reset(&mut self) {
        match self {
            Core::InOrder(m) => m.clock.reset(),
            Core::OutOfOrder(m) => m.reset(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_ids_are_distinct_and_stable() {
        assert_eq!(CoreSpec::InOrder.id(), "io");
        let ooo = CoreSpec::OutOfOrder(OooParams::default());
        assert!(ooo.id().starts_with("ooo-"));
        assert_ne!(ooo.id(), CoreSpec::InOrder.id());
        let narrow = CoreSpec::OutOfOrder(OooParams {
            rob_entries: 8,
            ..OooParams::default()
        });
        assert_ne!(narrow.id(), ooo.id(), "widths are part of the id");
    }

    #[test]
    fn inorder_core_area_is_the_baseline_zero() {
        assert_eq!(CoreSpec::InOrder.area_gates(), 0);
        assert!(CoreSpec::OutOfOrder(OooParams::default()).area_gates() > 0);
    }

    #[test]
    fn spec_ids_round_trip_through_parse() {
        let specs = [
            CoreSpec::InOrder,
            CoreSpec::OutOfOrder(OooParams::default()),
            CoreSpec::OutOfOrder(OooParams {
                issue_width: 4,
                retire_width: 3,
                rob_entries: 64,
                rs_entries: 24,
                lsq_entries: 12,
                predictor_entries: 512,
            }),
        ];
        for spec in specs {
            assert_eq!(CoreSpec::parse(&spec.id()), Some(spec), "{}", spec.id());
        }
        assert_eq!(CoreSpec::parse("ooo"), None);
        assert_eq!(CoreSpec::parse("ooo-i2x2"), None);
        assert_eq!(CoreSpec::parse("io2"), None);
    }

    #[test]
    fn default_spec_is_in_order() {
        assert_eq!(CoreSpec::default(), CoreSpec::InOrder);
    }
}
