//! The single-issue in-order timing model — the paper's baseline core.
//!
//! Timing model (single-issue, in-order, 5-stage pipeline abstraction):
//!
//! - every instruction costs one issue cycle;
//! - instruction fetch goes through the I-cache: a miss adds
//!   `mem_latency` cycles;
//! - loads and stores go through the D-cache: a miss adds `mem_latency`;
//!   a load's result is available one cycle late (load-use interlock);
//! - taken branches, jumps, calls and returns add `branch_penalty`
//!   refill cycles;
//! - `mul`/`mulhu` results are available after `mul_latency` cycles;
//! - custom instructions cost their registered latency.
//!
//! Dependent-result delays are modeled with per-register ready times: an
//! instruction that reads a register before its ready cycle stalls until
//! it is ready. The model charges one global clock as it goes and emits
//! the Stall, Cache and TakenBranch trace events; the instruction
//! semantics are [`crate::exec`]'s.

use super::Clock;
use crate::cache::Cache;
use crate::exec::{Retired, Sink, Timing};
use crate::isa::Insn;
use xobs::trace::{CacheSide, TraceEvent};

/// The in-order model. All of its state is the core's [`Clock`].
pub(crate) struct InOrder {
    pub(super) clock: Clock,
}

/// One cache access charged to the clock: the untraced branch is the
/// plain hit test, the traced one emits the Cache event.
fn charge(
    cache: &mut Cache,
    addr: u64,
    side: CacheSide,
    cycles: &mut u64,
    miss: u32,
    sink: &mut Sink<'_, '_>,
) {
    match sink {
        None => {
            if !cache.access(addr) {
                *cycles += miss as u64;
            }
        }
        Some(s) => *cycles = cache.access_traced(addr, side, *cycles, miss, &mut **s).1,
    }
}

impl Timing for InOrder {
    #[inline(always)]
    fn begin(&mut self) -> u64 {
        self.clock.cycles
    }

    #[inline(always)]
    fn issue(&mut self, pc: usize, insn: &Insn, sink: &mut Sink<'_, '_>) {
        let c = &mut self.clock;
        // Source-operand interlock: stall until inputs are ready.
        let before = c.cycles;
        for src in insn.sources().iter() {
            c.cycles = c.cycles.max(c.reg_ready[src.index()]);
        }
        if let Some(s) = sink.as_deref_mut().filter(|_| c.cycles > before) {
            s.on_event(&TraceEvent::Stall {
                pc: pc as u32,
                cycles: (c.cycles - before) as u32,
                cycle: c.cycles,
            });
        }
        charge(
            &mut c.icache,
            pc as u64 * 4,
            CacheSide::Instruction,
            &mut c.cycles,
            c.mem_latency,
            sink,
        );
        c.cycles += 1;
    }

    #[inline(always)]
    fn data(&mut self, addr: u32, tag_fault: bool, sink: &mut Sink<'_, '_>) {
        let c = &mut self.clock;
        if tag_fault {
            c.dcache.invalidate(addr as u64);
        }
        charge(
            &mut c.dcache,
            addr as u64,
            CacheSide::Data,
            &mut c.cycles,
            c.mem_latency,
            sink,
        );
    }

    #[inline(always)]
    fn retire(&mut self, _pc: usize, insn: &Insn, latency: u32, taken: bool) -> Retired {
        let c = &mut self.clock;
        match insn {
            Insn::Mul(d, ..) | Insn::Mulhu(d, ..) => {
                c.reg_ready[d.index()] = c.cycles + c.mul_latency.saturating_sub(1) as u64;
            }
            // Load-use delay: the result arrives one cycle late.
            Insn::Lw(d, ..) | Insn::Lbu(d, ..) | Insn::Lhu(d, ..) => {
                c.reg_ready[d.index()] = c.cycles + 1;
            }
            Insn::Custom(_) => c.cycles += latency.saturating_sub(1) as u64,
            _ => {}
        }
        let at = c.cycles;
        if taken {
            c.cycles += c.branch_penalty as u64;
        }
        Retired {
            at,
            done: c.cycles,
            refilled: taken,
        }
    }

    #[inline(always)]
    fn end(&mut self) -> u64 {
        self.clock.cycles
    }
}
