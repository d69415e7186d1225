//! The XR32 core: architectural state, a timing model, and the run
//! entry points.
//!
//! `Cpu` owns the architectural state — registers, carry, memory, user
//! registers — and the timing state of the cycle-accurate model
//! [`CpuConfig::core`] selects: the paper's baseline single-issue
//! in-order pipeline ([`crate::xcore::inorder`]) or a scoreboarded
//! out-of-order family ([`crate::xcore::ooo`]), each with its caches
//! and cycle counter. Every run executes through the one instruction
//! step and driver in [`crate::exec`]; [`Fidelity::Fast`] runs the same
//! driver untimed ([`crate::xjit`]). The architectural state after a
//! run is therefore bit-identical across core models and the fast
//! path; only cycle accounting differs.

use crate::asm::Program;
use crate::cache::CacheStats;
use crate::config::CpuConfig;
use crate::exec::{Arch, Handlers, Run};
use crate::ext::{CustomInsnError, ExtensionSet, UserRegFile};
use crate::isa::Reg;
use crate::mem::{AccessError, Memory};
use crate::xcore::Core;
use crate::xjit::{Fidelity, Untimed};
use std::fmt;
use xfault::FaultPlan;
use xobs::trace::TraceSink;

/// PC value that terminates a [`Cpu::call`]-style run when returned to.
pub const RETURN_SENTINEL: u32 = u32::MAX;

/// Errors terminating a simulation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// A data-memory access failed.
    Mem {
        /// Instruction index of the faulting access.
        pc: usize,
        /// The underlying access error.
        source: AccessError,
    },
    /// An instruction illegal under the current configuration
    /// (e.g. `mul` without the multiplier option, unknown custom
    /// instruction).
    Illegal {
        /// Instruction index.
        pc: usize,
        /// Explanation.
        reason: String,
    },
    /// A custom instruction's semantics failed.
    Custom {
        /// Instruction index.
        pc: usize,
        /// The underlying error.
        source: CustomInsnError,
    },
    /// The program counter left the program.
    PcOutOfRange {
        /// Offending instruction index.
        pc: usize,
    },
    /// The fuel (maximum instruction) budget was exhausted — the usual
    /// sign of an infinite loop in a kernel under test.
    OutOfFuel {
        /// Instructions executed before giving up.
        executed: u64,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Mem { pc, source } => write!(f, "at insn {pc}: {source}"),
            SimError::Illegal { pc, reason } => {
                write!(f, "illegal instruction at insn {pc}: {reason}")
            }
            SimError::Custom { pc, source } => write!(f, "at insn {pc}: {source}"),
            SimError::PcOutOfRange { pc } => write!(f, "pc {pc} outside program"),
            SimError::OutOfFuel { executed } => {
                write!(f, "out of fuel after {executed} instructions")
            }
        }
    }
}

impl std::error::Error for SimError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SimError::Mem { source, .. } => Some(source),
            SimError::Custom { source, .. } => Some(source),
            _ => None,
        }
    }
}

/// Executed-instruction counts by class (for the energy model and
/// workload analysis).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClassCounts {
    /// ALU and move instructions.
    pub alu: u64,
    /// Loads and stores.
    pub mem: u64,
    /// Branches, jumps, calls, returns.
    pub control: u64,
    /// Hardware multiplies.
    pub mul: u64,
    /// Custom (TIE) instructions.
    pub custom: u64,
}

impl ClassCounts {
    /// Total classified instructions.
    pub fn total(&self) -> u64 {
        self.alu + self.mem + self.control + self.mul + self.custom
    }
}

/// Result of a completed run.
#[derive(Debug, Clone)]
pub struct RunSummary {
    /// Total cycles elapsed.
    pub cycles: u64,
    /// Instructions executed.
    pub instructions: u64,
    /// Executed instructions by class.
    pub classes: ClassCounts,
    /// Instruction-cache statistics.
    pub icache: CacheStats,
    /// Data-cache statistics.
    pub dcache: CacheStats,
}

impl RunSummary {
    /// Cycles per instruction for the run.
    pub fn cpi(&self) -> f64 {
        if self.instructions == 0 {
            0.0
        } else {
            self.cycles as f64 / self.instructions as f64
        }
    }
}

/// A simulated XR32 core.
pub struct Cpu {
    config: CpuConfig,
    arch: Arch,
    ext: ExtensionSet,
    /// The cycle-accurate timing model and its clock and caches, built
    /// from [`CpuConfig::core`] at construction.
    core: Core,
    fuel: u64,
    fidelity: Fidelity,
    /// Cumulative retired-instruction count across all runs (every
    /// engine) — part of the architectural state the co-simulation
    /// checks compare.
    retired: u64,
    /// Custom handlers resolved per program, keyed by content
    /// fingerprint. Safe per core: the extension set is fixed at
    /// construction.
    handlers: Vec<(u64, Handlers)>,
}

impl fmt::Debug for Cpu {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Cpu")
            .field("cycles", &self.cycles())
            .field("regs", &self.arch.regs)
            .field("carry", &self.arch.carry)
            .finish_non_exhaustive()
    }
}

impl Cpu {
    /// Creates a core with the given configuration and no custom
    /// instructions.
    pub fn new(config: CpuConfig) -> Self {
        Self::with_extensions(config, ExtensionSet::new())
    }

    /// Creates a core with custom-instruction extensions. The stack
    /// pointer (`sp`) starts at the top of data memory.
    pub fn with_extensions(config: CpuConfig, ext: ExtensionSet) -> Self {
        let mut regs = [0; 16];
        regs[Reg::SP.index()] = config.mem_size as u32;
        Cpu {
            core: Core::new(&config),
            arch: Arch {
                regs,
                carry: false,
                mem: Memory::new(config.mem_size),
                uregs: UserRegFile::new(config.user_regs, config.user_reg_words),
                fault: None,
            },
            ext,
            fuel: 200_000_000,
            fidelity: Fidelity::CycleAccurate,
            retired: 0,
            handlers: Vec::new(),
            config,
        }
    }

    /// The core's configuration.
    pub fn config(&self) -> &CpuConfig {
        &self.config
    }

    /// The configured extension set.
    pub fn extensions(&self) -> &ExtensionSet {
        &self.ext
    }

    /// Reads general register `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i > 15`.
    pub fn reg(&self, i: usize) -> u32 {
        self.arch.regs[i]
    }

    /// Writes general register `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i > 15`.
    pub fn set_reg(&mut self, i: usize, v: u32) {
        self.arch.regs[i] = v;
    }

    /// The data memory.
    pub fn mem(&self) -> &Memory {
        &self.arch.mem
    }

    /// Mutable access to data memory (for setting up kernel inputs).
    pub fn mem_mut(&mut self) -> &mut Memory {
        &mut self.arch.mem
    }

    /// The user (wide) register file.
    pub fn uregs(&self) -> &UserRegFile {
        &self.arch.uregs
    }

    /// Cycles elapsed since construction or [`Cpu::reset_timing`].
    pub fn cycles(&self) -> u64 {
        self.core.clock().cycles
    }

    /// Sets the maximum number of instructions a run may execute before
    /// failing with [`SimError::OutOfFuel`].
    pub fn set_fuel(&mut self, fuel: u64) {
        self.fuel = fuel;
    }

    /// Selects the execution engine for subsequent runs. The default is
    /// [`Fidelity::CycleAccurate`]. With [`Fidelity::Fast`] selected,
    /// runs execute untimed ([`crate::xjit`]): architectural state
    /// (registers, carry, memory, user registers, retired count) is
    /// bit-identical, but summaries report zero cycles and zero cache
    /// activity, trace sinks are **not** invoked, and an armed fault
    /// plan forces a silent fallback to the cycle-accurate engine (the
    /// cache-tag site needs a cache to corrupt).
    pub fn set_fidelity(&mut self, fidelity: Fidelity) {
        self.fidelity = fidelity;
    }

    /// The currently selected execution engine.
    pub fn fidelity(&self) -> Fidelity {
        self.fidelity
    }

    /// Instructions retired across all runs on this core (every
    /// engine), part of the architectural state compared by the
    /// co-simulation checks. A run that ends in a [`SimError`] counts
    /// the instructions before the one that failed. Not cleared by
    /// [`Cpu::reset_timing`].
    pub fn retired(&self) -> u64 {
        self.retired
    }

    /// Arms a fault-injection plan: subsequent runs consult it at the
    /// data-memory, register-file, cache-tag and custom-instruction
    /// hook points. With no plan armed (the default), those hook points
    /// cost one `Option` test and execution is bit-identical to a core
    /// without the feature.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.arch.fault = Some(plan);
    }

    /// Disarms and returns the current fault plan (with its per-site
    /// fired-injection counters), if any.
    pub fn take_fault_plan(&mut self) -> Option<FaultPlan> {
        self.arch.fault.take()
    }

    /// The armed fault plan, if any.
    pub fn fault_plan(&self) -> Option<&FaultPlan> {
        self.arch.fault.as_ref()
    }

    /// Clears cycles, caches, registers, the carry flag and the core
    /// model's internal timing state such as branch-predictor counters
    /// (memory is preserved).
    pub fn reset_timing(&mut self) {
        self.core.reset();
        self.arch.regs = [0; 16];
        self.arch.regs[Reg::SP.index()] = self.config.mem_size as u32;
        self.arch.carry = false;
        self.arch.uregs.clear();
    }

    /// Runs `program` from its `main` label (or instruction 0 when no
    /// `main` exists) until `halt`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] on faults or fuel exhaustion.
    pub fn run(&mut self, program: &Program) -> Result<RunSummary, SimError> {
        self.run_traced(program, None)
    }

    /// Like [`Cpu::run`], with an optional [`TraceSink`] observing the
    /// execution. The run is bracketed by a synthetic Call/Ret pair for
    /// the entry point, so cycle attribution over the event stream
    /// accounts for every simulated cycle.
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] on faults or fuel exhaustion.
    pub fn run_traced(
        &mut self,
        program: &Program,
        sink: Option<&mut (dyn TraceSink + '_)>,
    ) -> Result<RunSummary, SimError> {
        let entry = program.label("main").unwrap_or(0);
        self.run_from_traced(program, entry, sink)
    }

    /// Runs `program` starting at instruction index `entry` until `halt`
    /// or a return to [`RETURN_SENTINEL`].
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] on faults or fuel exhaustion.
    pub fn run_from(&mut self, program: &Program, entry: usize) -> Result<RunSummary, SimError> {
        self.run_from_traced(program, entry, None)
    }

    /// Like [`Cpu::run_from`], with an optional [`TraceSink`].
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] on faults or fuel exhaustion.
    pub fn run_from_traced(
        &mut self,
        program: &Program,
        entry: usize,
        sink: Option<&mut (dyn TraceSink + '_)>,
    ) -> Result<RunSummary, SimError> {
        let entry_name = program.label_at(entry).unwrap_or("<entry>").to_owned();
        self.execute(program, entry, &entry_name, sink)
    }

    /// Calls a labeled routine: loads `args` into `a0…`, runs until the
    /// routine returns (or halts), and returns the summary. The routine's
    /// return value convention is `a0` (read it with [`Cpu::reg`]).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Illegal`] if the label is undefined, and any
    /// simulation error from the run itself.
    ///
    /// # Panics
    ///
    /// Panics if more than six arguments are supplied (a0–a5 is the
    /// argument convention).
    pub fn call(
        &mut self,
        program: &Program,
        label: &str,
        args: &[u32],
    ) -> Result<RunSummary, SimError> {
        self.call_traced(program, label, args, None)
    }

    /// Like [`Cpu::call`], with an optional [`TraceSink`].
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Illegal`] if the label is undefined, and any
    /// simulation error from the run itself.
    ///
    /// # Panics
    ///
    /// Panics if more than six arguments are supplied (a0–a5 is the
    /// argument convention).
    pub fn call_traced(
        &mut self,
        program: &Program,
        label: &str,
        args: &[u32],
        sink: Option<&mut (dyn TraceSink + '_)>,
    ) -> Result<RunSummary, SimError> {
        assert!(args.len() <= 6, "at most 6 register arguments (a0-a5)");
        let entry = program.label(label).ok_or_else(|| SimError::Illegal {
            pc: 0,
            reason: format!("undefined entry label {label:?}"),
        })?;
        self.arch.regs[..args.len()].copy_from_slice(args);
        self.arch.regs[Reg::RA.index()] = RETURN_SENTINEL;
        self.execute(program, entry, label, sink)
    }

    fn execute(
        &mut self,
        program: &Program,
        entry: usize,
        entry_name: &str,
        sink: Option<&mut (dyn TraceSink + '_)>,
    ) -> Result<RunSummary, SimError> {
        let fp = program.fingerprint();
        let slot = match self.handlers.iter().position(|(key, _)| *key == fp) {
            Some(slot) => slot,
            None => {
                self.handlers.push((fp, Handlers::new(program, &self.ext)));
                self.handlers.len() - 1
            }
        };
        let run = Run {
            program,
            handlers: &self.handlers[slot].1,
            config: &self.config,
            fuel: self.fuel,
        };
        let clock = self.core.clock();
        let (start, ic, dc) = (clock.cycles, clock.icache.stats(), clock.dcache.stats());
        let out = if self.fidelity == Fidelity::Fast && self.arch.fault.is_none() {
            // Untimed: the clock, caches and ready times are untouched,
            // so the run reports zero cycles and cache accesses and a
            // later cycle-accurate run on the same core is unaffected;
            // trace sinks see nothing (there are no cycles to
            // attribute).
            run.exec(&mut self.arch, &mut Untimed, entry, entry_name, None)
        } else {
            match &mut self.core {
                Core::InOrder(m) => run.exec(&mut self.arch, &mut **m, entry, entry_name, sink),
                Core::OutOfOrder(m) => run.exec(&mut self.arch, &mut **m, entry, entry_name, sink),
            }
        }
        .map_err(|(retired, e)| {
            self.retired += retired;
            e
        })?;
        self.retired += out.executed;
        let clock = self.core.clock();
        let delta = |after: CacheStats, before: CacheStats| CacheStats {
            hits: after.hits - before.hits,
            misses: after.misses - before.misses,
        };
        Ok(RunSummary {
            cycles: clock.cycles - start,
            instructions: out.executed,
            classes: out.classes,
            icache: delta(clock.icache.stats(), ic),
            dcache: delta(clock.dcache.stats(), dc),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::assemble;
    use crate::ext::CustomInsnDef;

    fn cpu() -> Cpu {
        Cpu::new(CpuConfig::default())
    }

    #[test]
    fn arithmetic_and_halt() {
        let p = assemble("movi a2, 20\n movi a3, 22\n add a4, a2, a3\n halt").unwrap();
        let mut c = cpu();
        let s = c.run(&p).unwrap();
        assert_eq!(c.reg(4), 42);
        assert_eq!(s.instructions, 4);
        assert!(s.cycles >= 4);
    }

    #[test]
    fn carry_chain_addc() {
        // 0xffffffff + 1 with carry into the next word.
        let p = assemble(
            "movi a2, 0xffffffff
             movi a3, 1
             movi a4, 0
             movi a5, 0
             add  a6, a2, a2   ; does not touch carry
             addc a6, a2, a3   ; sets carry
             addc a7, a4, a5   ; consumes carry
             halt",
        )
        .unwrap();
        let mut c = cpu();
        c.run(&p).unwrap();
        // addc a6, a2, a3 -> a6 = 0, carry = 1; addc a7 consumes the carry.
        assert_eq!(c.reg(6), 0);
        assert_eq!(c.reg(7), 1);
    }

    #[test]
    fn loop_sums_memory() {
        // Sum four words written by the host.
        let p = assemble(
            "main:
                movi a0, 0x100   ; ptr
                movi a1, 4       ; count
                movi a2, 0       ; acc
            loop:
                lw   a3, a0, 0
                add  a2, a2, a3
                addi a0, a0, 4
                addi a1, a1, -1
                movi a4, 0
                bne  a1, a4, loop
                halt",
        )
        .unwrap();
        let mut c = cpu();
        c.mem_mut().write_words(0x100, &[10, 20, 30, 40]).unwrap();
        c.run(&p).unwrap();
        assert_eq!(c.reg(2), 100);
    }

    #[test]
    fn call_convention_and_sentinel_return() {
        let p = assemble(
            "double:
                add a0, a0, a0
                ret",
        )
        .unwrap();
        let mut c = cpu();
        let s = c.call(&p, "double", &[21]).unwrap();
        assert_eq!(c.reg(0), 42);
        assert_eq!(s.instructions, 2);
    }

    #[test]
    fn nested_calls_profile_edges() {
        let p = assemble(
            "main:
                call outer
                halt
             outer:
                addi sp, sp, -4
                sw   ra, sp, 0
                call inner
                call inner
                lw   ra, sp, 0
                addi sp, sp, 4
                ret
             inner:
                nop
                ret",
        )
        .unwrap();
        let mut c = cpu();
        let mut attr = xobs::Attribution::new();
        let s = c.run_traced(&p, Some(&mut attr)).unwrap();
        let flat = attr.flat();
        let find = |name: &str| flat.iter().find(|e| e.name == name).unwrap();
        assert_eq!(find("outer").calls, 1);
        assert_eq!(find("inner").calls, 2);
        assert_eq!(attr.total_cycles(), s.cycles);
    }

    #[test]
    fn mul_requires_option() {
        let p = assemble("movi a0, 6\n movi a1, 7\n mul a2, a0, a1\n halt").unwrap();
        let mut soft = Cpu::new(CpuConfig {
            has_mul: false,
            ..CpuConfig::default()
        });
        assert!(matches!(soft.run(&p), Err(SimError::Illegal { pc: 2, .. })));
        let mut hard = cpu();
        hard.run(&p).unwrap();
        assert_eq!(hard.reg(2), 42);
    }

    #[test]
    fn mulhu_computes_high_word() {
        let p = assemble("movi a0, 0x80000000\n movi a1, 4\n mulhu a2, a0, a1\n halt").unwrap();
        let mut c = cpu();
        c.run(&p).unwrap();
        assert_eq!(c.reg(2), 2);
    }

    #[test]
    fn out_of_fuel_detected() {
        let p = assemble("spin: j spin").unwrap();
        let mut c = cpu();
        c.set_fuel(1000);
        assert!(matches!(c.run(&p), Err(SimError::OutOfFuel { .. })));
    }

    #[test]
    fn pc_out_of_range_detected() {
        let p = assemble("nop").unwrap(); // falls off the end
        let mut c = cpu();
        assert!(matches!(c.run(&p), Err(SimError::PcOutOfRange { pc: 1 })));
    }

    #[test]
    fn memory_fault_reported_with_pc() {
        let p = assemble("movi a0, 0xfffffff0\n lw a1, a0, 0\n halt").unwrap();
        let mut c = cpu();
        match c.run(&p) {
            Err(SimError::Mem { pc: 1, .. }) => {}
            other => panic!("expected memory fault, got {other:?}"),
        }
    }

    #[test]
    fn errors_count_the_instructions_retired_before_them() {
        let bad_load = assemble("movi a0, 0xfffffff0\n nop\n lw a1, a0, 0\n halt").unwrap();
        let off_the_end = assemble("nop\n nop").unwrap();
        for fidelity in [Fidelity::CycleAccurate, Fidelity::Fast] {
            let mut c = cpu();
            c.set_fidelity(fidelity);
            assert!(c.run(&bad_load).is_err());
            assert_eq!(
                c.retired(),
                2,
                "{fidelity:?}: the faulting load does not retire"
            );
            assert!(c.run(&off_the_end).is_err());
            assert_eq!(c.retired(), 4, "{fidelity:?}: pc out of range");
            c.set_fuel(5);
            assert!(c.run(&assemble("spin: j spin").unwrap()).is_err());
            assert_eq!(c.retired(), 9, "{fidelity:?}: out of fuel");
        }
    }

    #[test]
    fn custom_instruction_executes_with_latency() {
        let mut ext = ExtensionSet::new();
        ext.register(CustomInsnDef::new("addimm", 5, 100, |ctx, op| {
            let d = op.regs[0].index();
            ctx.regs[d] = ctx.regs[d].wrapping_add(op.imm as u32);
            Ok(())
        }));
        let p = assemble("movi a3, 40\n cust addimm a3, 2\n halt").unwrap();
        let mut fast = Cpu::with_extensions(CpuConfig::default(), ext);
        let s = fast.run(&p).unwrap();
        assert_eq!(fast.reg(3), 42);
        // movi(1) + custom(5) + halt(1) + fetch misses.
        assert!(s.cycles >= 7);
    }

    #[test]
    fn unknown_custom_instruction_is_illegal() {
        let p = assemble("cust nosuch a0\n halt").unwrap();
        let mut c = cpu();
        assert!(matches!(c.run(&p), Err(SimError::Illegal { pc: 0, .. })));
    }

    #[test]
    fn taken_branch_costs_more_than_fallthrough() {
        let taken = assemble("movi a0, 1\n movi a1, 1\n beq a0, a1, t\n t: halt").unwrap();
        let fall = assemble("movi a0, 1\n movi a1, 2\n beq a0, a1, t\n t: halt").unwrap();
        let mut c1 = cpu();
        let s1 = c1.run(&taken).unwrap();
        let mut c2 = cpu();
        let s2 = c2.run(&fall).unwrap();
        assert!(
            s1.cycles > s2.cycles,
            "taken {} vs fallthrough {}",
            s1.cycles,
            s2.cycles
        );
    }

    #[test]
    fn load_use_stall_costs_a_cycle() {
        // Using a load result immediately should be slower than spacing
        // it with an independent instruction.
        let tight = assemble(
            "movi a0, 0x100
             lw   a1, a0, 0
             add  a2, a1, a1
             movi a3, 7
             halt",
        )
        .unwrap();
        let spaced = assemble(
            "movi a0, 0x100
             lw   a1, a0, 0
             movi a3, 7
             add  a2, a1, a1
             halt",
        )
        .unwrap();
        let mut c1 = cpu();
        let s1 = c1.run(&tight).unwrap();
        let mut c2 = cpu();
        let s2 = c2.run(&spaced).unwrap();
        assert_eq!(s1.instructions, s2.instructions);
        assert!(s1.cycles > s2.cycles, "{} vs {}", s1.cycles, s2.cycles);
    }

    #[test]
    fn dcache_misses_cost_mem_latency() {
        // Two loads to the same line: second hits.
        let p = assemble(
            "movi a0, 0x100
             lw a1, a0, 0
             lw a2, a0, 4
             halt",
        )
        .unwrap();
        let mut c = cpu();
        let s = c.run(&p).unwrap();
        assert_eq!(s.dcache.misses, 1);
        assert_eq!(s.dcache.hits, 1);
    }

    #[test]
    fn cpi_reported() {
        let p = assemble("nop\n nop\n nop\n halt").unwrap();
        let mut c = cpu();
        let s = c.run(&p).unwrap();
        assert!(s.cpi() >= 1.0);
    }

    fn nested_program() -> crate::asm::Program {
        assemble(
            "main:
                call outer
                call outer
                halt
             outer:
                addi sp, sp, -4
                sw   ra, sp, 0
                call inner
                lw   ra, sp, 0
                addi sp, sp, 4
                ret
             inner:
                movi a0, 0x100
                lw   a1, a0, 0
                add  a2, a1, a1
                ret",
        )
        .unwrap()
    }

    #[test]
    fn tracing_has_zero_observer_effect() {
        let p = nested_program();
        let mut plain = cpu();
        let s_plain = plain.run(&p).unwrap();
        let mut traced = cpu();
        let mut sink = xobs::VecSink::new();
        let s_traced = traced.run_traced(&p, Some(&mut sink)).unwrap();
        assert_eq!(s_plain.cycles, s_traced.cycles);
        assert_eq!(s_plain.instructions, s_traced.instructions);
        for i in 0..16 {
            assert_eq!(plain.reg(i), traced.reg(i), "register a{i} diverged");
        }
        assert!(!sink.events().is_empty());
    }

    #[test]
    fn attribution_root_equals_total_cycles_across_runs() {
        // Two cpu.call invocations on one core: the cycle counter
        // persists, and attribution over the combined stream must cover
        // every cycle.
        let p = assemble(
            "double:
                add a0, a0, a0
                ret
             triple:
                add a1, a0, a0
                add a0, a1, a0
                ret",
        )
        .unwrap();
        let mut c = cpu();
        let mut attr = xobs::Attribution::new();
        c.call_traced(&p, "double", &[21], Some(&mut attr)).unwrap();
        c.call_traced(&p, "triple", &[5], Some(&mut attr)).unwrap();
        assert_eq!(attr.open_frames(), 0);
        assert_eq!(attr.unmatched_rets(), 0);
        assert_eq!(attr.total_cycles(), c.cycles());
    }

    #[test]
    fn attribution_accounts_every_cycle_of_nested_calls() {
        let p = nested_program();
        let mut c = cpu();
        let mut attr = xobs::Attribution::new();
        let s = c.run_traced(&p, Some(&mut attr)).unwrap();
        assert_eq!(attr.total_cycles(), s.cycles);
        let flat = attr.flat();
        let outer = flat.iter().find(|e| e.name == "outer").unwrap();
        let inner = flat.iter().find(|e| e.name == "inner").unwrap();
        assert_eq!(outer.calls, 2, "main calls outer twice");
        assert_eq!(inner.calls, 2, "each outer calls inner once");
        assert!(
            inner.inclusive < outer.inclusive,
            "callee inclusive ({}) must nest inside caller inclusive ({})",
            inner.inclusive,
            outer.inclusive
        );
        let exclusive_sum: u64 = flat.iter().map(|e| e.exclusive).sum();
        assert_eq!(
            exclusive_sum, s.cycles,
            "exclusive cycles partition the run"
        );
    }

    #[test]
    fn recursion_attribution_counts_topmost_only() {
        // count(n): if n == 0 return else count(n - 1). Pins the
        // topmost-only recursion accounting over raw call/ret events:
        // inclusive cycles must not double-count nested activations.
        let p = assemble(
            "main:
                movi a0, 5
                call count
                halt
             count:
                movi a7, 0
                beq  a0, a7, done
                addi a0, a0, -1
                addi sp, sp, -4
                sw   ra, sp, 0
                call count
                lw   ra, sp, 0
                addi sp, sp, 4
             done:
                ret",
        )
        .unwrap();
        let mut c = cpu();
        let mut attr = xobs::Attribution::new();
        let s = c.run_traced(&p, Some(&mut attr)).unwrap();
        let traced = attr.flat().into_iter().find(|e| e.name == "count").unwrap();
        assert_eq!(traced.calls, 6);
        assert!(
            traced.inclusive <= s.cycles,
            "inclusive {} must not exceed run total {}",
            traced.inclusive,
            s.cycles
        );
        assert!(traced.exclusive <= traced.inclusive);
        assert_eq!(attr.total_cycles(), s.cycles);
    }

    #[test]
    fn fault_plan_with_zero_rate_is_bit_identical_to_no_plan() {
        let p = nested_program();
        let mut plain = cpu();
        let s_plain = plain.run(&p).unwrap();
        let mut faulted = cpu();
        faulted.set_fault_plan(xfault::PlanSpec::all_sites(1, 0).plan(0));
        let s_faulted = faulted.run(&p).unwrap();
        assert_eq!(s_plain.cycles, s_faulted.cycles);
        assert_eq!(s_plain.instructions, s_faulted.instructions);
        for i in 0..16 {
            assert_eq!(plain.reg(i), faulted.reg(i), "register a{i} diverged");
        }
        assert_eq!(faulted.take_fault_plan().unwrap().total_fired(), 0);
    }

    #[test]
    fn data_fault_flips_a_loaded_bit() {
        let p = assemble("movi a0, 0x100\n lw a1, a0, 0\n halt").unwrap();
        let mut c = cpu();
        c.mem_mut().write_words(0x100, &[42]).unwrap();
        let spec = xfault::PlanSpec::new(7, 1_000_000, &[xfault::FaultSite::DataMem]);
        c.set_fault_plan(spec.plan(0));
        c.run(&p).unwrap();
        let got = c.reg(1);
        assert_ne!(got, 42, "a certain data fault must corrupt the load");
        assert_eq!((got ^ 42).count_ones(), 1, "exactly one bit flips");
        assert_eq!(
            c.take_fault_plan()
                .unwrap()
                .fired(xfault::FaultSite::DataMem),
            1
        );
    }

    #[test]
    fn same_fault_seed_reproduces_the_same_corruption() {
        let p = assemble("movi a0, 0x100\n lw a1, a0, 0\n lw a2, a0, 4\n halt").unwrap();
        let spec = xfault::PlanSpec::new(99, 400_000, &[xfault::FaultSite::DataMem]);
        let run = |stream: u64| {
            let mut c = cpu();
            c.mem_mut().write_words(0x100, &[1111, 2222]).unwrap();
            c.set_fault_plan(spec.plan(stream));
            c.run(&p).unwrap();
            (c.reg(1), c.reg(2))
        };
        assert_eq!(run(5), run(5), "same seed+stream, same corruption");
    }

    #[test]
    fn cache_tag_fault_perturbs_timing_not_results() {
        let p = assemble(
            "movi a0, 0x100
             lw a1, a0, 0
             lw a2, a0, 0
             lw a3, a0, 0
             add a4, a1, a2
             add a4, a4, a3
             halt",
        )
        .unwrap();
        let mut plain = cpu();
        plain.mem_mut().write_words(0x100, &[5]).unwrap();
        let s_plain = plain.run(&p).unwrap();
        let mut faulted = cpu();
        faulted.mem_mut().write_words(0x100, &[5]).unwrap();
        faulted.set_fault_plan(
            xfault::PlanSpec::new(3, 1_000_000, &[xfault::FaultSite::CacheTag]).plan(0),
        );
        let s_faulted = faulted.run(&p).unwrap();
        assert_eq!(
            plain.reg(4),
            faulted.reg(4),
            "tag corruption is benign to data"
        );
        assert!(
            s_faulted.dcache.misses > s_plain.dcache.misses,
            "every corrupted tag forces a refill"
        );
        assert!(s_faulted.cycles > s_plain.cycles, "misses cost latency");
    }

    #[test]
    fn custom_result_fault_sticks_a_bit() {
        let mut ext = ExtensionSet::new();
        ext.register(CustomInsnDef::new("zero", 1, 10, |ctx, op| {
            ctx.regs[op.regs[0].index()] = 0;
            Ok(())
        }));
        let p = assemble("cust zero a3\n halt").unwrap();
        let mut c = Cpu::with_extensions(CpuConfig::default(), ext);
        c.set_fault_plan(
            xfault::PlanSpec::new(11, 1_000_000, &[xfault::FaultSite::CustomResult]).plan(0),
        );
        c.run(&p).unwrap();
        assert_eq!(c.reg(3).count_ones(), 1, "stuck-at-one on one result line");
    }

    #[test]
    fn trace_events_cover_all_hook_points() {
        let mut ext = ExtensionSet::new();
        ext.register(CustomInsnDef::new("addimm", 3, 50, |ctx, op| {
            let d = op.regs[0].index();
            ctx.regs[d] = ctx.regs[d].wrapping_add(op.imm as u32);
            Ok(())
        }));
        let p = assemble(
            "main:
                movi a0, 0x100
                lw   a1, a0, 0
                add  a2, a1, a1    ; load-use stall
                cust addimm a2, 1
                movi a3, 1
                movi a4, 1
                beq  a3, a4, end   ; taken branch
             end:
                halt",
        )
        .unwrap();
        let mut c = Cpu::with_extensions(CpuConfig::default(), ext);
        let mut stats = xobs::EventStats::new();
        let s = c.run_traced(&p, Some(&mut stats)).unwrap();
        assert_eq!(stats.retires, s.instructions);
        assert!(stats.stalls >= 1, "expected a load-use stall event");
        assert!(stats.taken_branches >= 1);
        assert_eq!(stats.custom.get("addimm"), Some(&1));
        assert_eq!(
            stats.icache.hits + stats.icache.misses,
            s.icache.hits + s.icache.misses
        );
        assert_eq!(
            stats.dcache.hits + stats.dcache.misses,
            s.dcache.hits + s.dcache.misses
        );
        assert_eq!(stats.last_cycle, c.cycles());
    }
}
