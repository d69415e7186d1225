//! xjit: the functional fast path (dual-fidelity ISS).
//!
//! The fast path runs the same driver and the same instruction step as
//! the cycle-accurate cores ([`crate::exec`]) with `Untimed`, a
//! timing model whose hooks are empty: no interlocks, no cache
//! simulation, no trace events. What it still reuses per program is
//! what every engine reuses: the assembler's basic-block ends (one pc
//! range check per block) and the custom-instruction handlers the core
//! resolves once per program. Registers, carry, memory, user registers,
//! the retired-instruction count, class counts and errors are
//! bit-identical to the cycle-accurate engines; cycles and cache
//! statistics report as zero.
//!
//! Select the engine per core with [`crate::cpu::Cpu::set_fidelity`];
//! the default everywhere is [`Fidelity::CycleAccurate`] so cycle
//! measurements can never silently land on the fast path.

use crate::exec::{Retired, Sink, Timing};
use crate::isa::Insn;

/// Which execution engine a [`crate::cpu::Cpu`] run uses.
///
/// `CycleAccurate` is the default: the core's timing model
/// ([`CoreSpec`](crate::xcore::CoreSpec) selects in-order or
/// out-of-order) with caches, interlocks and fault hooks — the only
/// engine cycle measurements may come from. `Fast` skips timing
/// altogether: identical architectural results, summaries report zero
/// cycles, trace sinks are not invoked, and an armed fault plan forces
/// a silent fallback to the cycle-accurate engine (the cache-tag fault
/// needs a cache to corrupt).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum Fidelity {
    /// The core's cycle-accurate timing model (the measurement engine).
    #[default]
    CycleAccurate,
    /// Functional execution (architectural state only).
    Fast,
}

/// The fast path's timing model: every hook is empty.
pub(crate) struct Untimed;

impl Timing for Untimed {
    const TIMED: bool = false;

    #[inline(always)]
    fn begin(&mut self) -> u64 {
        0
    }

    #[inline(always)]
    fn issue(&mut self, _pc: usize, _insn: &Insn, _sink: &mut Sink<'_, '_>) {}

    #[inline(always)]
    fn data(&mut self, _addr: u32, _tag_fault: bool, _sink: &mut Sink<'_, '_>) {}

    #[inline(always)]
    fn retire(&mut self, _pc: usize, _insn: &Insn, _latency: u32, _taken: bool) -> Retired {
        Retired::default()
    }

    #[inline(always)]
    fn end(&mut self) -> u64 {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::assemble;
    use crate::config::CpuConfig;
    use crate::cpu::{Cpu, SimError};
    use crate::ext::{CustomInsnDef, ExtensionSet};

    #[test]
    fn blocks_tile_the_program() {
        let p = assemble(
            "main:
                movi a0, 3
            loop:
                addi a0, a0, -1
                movi a1, 0
                bne  a0, a1, loop
                halt",
        )
        .unwrap();
        // Block boundaries: [0,1) main, [1,4) loop body, [4,5) halt.
        assert_eq!(p.block_ends(), [1, 4, 4, 4, 5]);
    }

    #[test]
    fn fast_run_matches_accurate_architectural_state() {
        let src = "main:
                movi a0, 0x100
                movi a1, 4
                movi a2, 0
            loop:
                lw   a3, a0, 0
                add  a2, a2, a3
                addi a0, a0, 4
                addi a1, a1, -1
                movi a4, 0
                bne  a1, a4, loop
                halt";
        let p = assemble(src).unwrap();
        let mut accurate = Cpu::new(CpuConfig::default());
        accurate
            .mem_mut()
            .write_words(0x100, &[10, 20, 30, 40])
            .unwrap();
        let sa = accurate.run(&p).unwrap();
        let mut fast = Cpu::new(CpuConfig::default());
        fast.set_fidelity(Fidelity::Fast);
        fast.mem_mut()
            .write_words(0x100, &[10, 20, 30, 40])
            .unwrap();
        let sf = fast.run(&p).unwrap();
        assert_eq!(sf.cycles, 0, "fast path models no timing");
        assert_eq!(sa.instructions, sf.instructions);
        assert_eq!(sa.classes, sf.classes);
        for i in 0..16 {
            assert_eq!(accurate.reg(i), fast.reg(i), "register a{i}");
        }
        assert_eq!(accurate.mem().digest(), fast.mem().digest());
    }

    #[test]
    fn fast_custom_insn_runs_its_handler() {
        let mut ext = ExtensionSet::new();
        ext.register(CustomInsnDef::new("addimm", 5, 100, |ctx, op| {
            let d = op.regs[0].index();
            ctx.regs[d] = ctx.regs[d].wrapping_add(op.imm as u32);
            Ok(())
        }));
        let p = assemble("movi a3, 40\n cust addimm a3, 2\n halt").unwrap();
        let mut c = Cpu::with_extensions(CpuConfig::default(), ext);
        c.set_fidelity(Fidelity::Fast);
        let s = c.run(&p).unwrap();
        assert_eq!(c.reg(3), 42);
        assert_eq!(s.classes.custom, 1);
    }

    #[test]
    fn fast_errors_match_accurate_engine() {
        // Unknown custom: Illegal at the same pc.
        let p = assemble("nop\n cust nosuch a0\n halt").unwrap();
        let mut c = Cpu::new(CpuConfig::default());
        c.set_fidelity(Fidelity::Fast);
        assert!(matches!(c.run(&p), Err(SimError::Illegal { pc: 1, .. })));
        // Fuel exhaustion: identical executed count.
        let spin = assemble("spin: j spin").unwrap();
        let mut fast = Cpu::new(CpuConfig::default());
        fast.set_fidelity(Fidelity::Fast);
        fast.set_fuel(1000);
        let mut accurate = Cpu::new(CpuConfig::default());
        accurate.set_fuel(1000);
        match (fast.run(&spin), accurate.run(&spin)) {
            (
                Err(SimError::OutOfFuel { executed: ef }),
                Err(SimError::OutOfFuel { executed: ea }),
            ) => assert_eq!(ef, ea),
            other => panic!("expected OutOfFuel on both engines, got {other:?}"),
        }
        // Falling off the end: PcOutOfRange at the same pc.
        let fall = assemble("nop").unwrap();
        let mut c = Cpu::new(CpuConfig::default());
        c.set_fidelity(Fidelity::Fast);
        assert!(matches!(
            c.run(&fall),
            Err(SimError::PcOutOfRange { pc: 1 })
        ));
        // mul without the option: Illegal at the same pc.
        let mul = assemble("movi a0, 6\n movi a1, 7\n mul a2, a0, a1\n halt").unwrap();
        let mut soft = Cpu::new(CpuConfig {
            has_mul: false,
            ..CpuConfig::default()
        });
        soft.set_fidelity(Fidelity::Fast);
        assert!(matches!(
            soft.run(&mul),
            Err(SimError::Illegal { pc: 2, .. })
        ));
    }

    #[test]
    fn fast_call_convention_matches() {
        let p = assemble(
            "double:
                add a0, a0, a0
                ret",
        )
        .unwrap();
        let mut c = Cpu::new(CpuConfig::default());
        c.set_fidelity(Fidelity::Fast);
        let s = c.call(&p, "double", &[21]).unwrap();
        assert_eq!(c.reg(0), 42);
        assert_eq!(s.instructions, 2);
        assert_eq!(c.retired(), 2);
    }

    #[test]
    fn armed_fault_plan_falls_back_to_cycle_accurate() {
        let p = assemble("movi a0, 0x100\n lw a1, a0, 0\n halt").unwrap();
        let mut c = Cpu::new(CpuConfig::default());
        c.set_fidelity(Fidelity::Fast);
        c.mem_mut().write_words(0x100, &[42]).unwrap();
        let spec = xfault::PlanSpec::new(7, 1_000_000, &[xfault::FaultSite::DataMem]);
        c.set_fault_plan(spec.plan(0));
        let s = c.run(&p).unwrap();
        assert!(s.cycles > 0, "fault runs use the cycle-accurate engine");
        assert_ne!(c.reg(1), 42, "the fault site must still fire");
    }
}
