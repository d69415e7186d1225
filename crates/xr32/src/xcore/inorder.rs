//! The single-issue in-order pipeline model — the paper's baseline
//! core, extracted verbatim from the formerly monolithic `Cpu`.
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
//! - `mul`/`mulhu` results are available after `mul_latency` cycles and
//!   are only legal when the hardware-multiplier option is configured;
//! - custom instructions cost their registered latency.
//!
//! Dependent-result delays are modeled with per-register ready times: an
//! instruction that reads a register before its ready cycle stalls until
//! it is ready.

use super::{cache_access, CoreEnv, CoreKind, CoreModel, ExecOutcome};
use crate::asm::Program;
use crate::cpu::{ClassCounts, SimError, RETURN_SENTINEL};
use crate::ext::ExecCtx;
use crate::isa::{Insn, Reg};
use xobs::trace::{CacheSide, TraceEvent, TraceSink};

/// The in-order pipeline model. Stateless: all of its timing state (the
/// global cycle counter and the per-register ready times) lives in the
/// owning `Cpu` and is shared with its reset semantics.
#[derive(Debug, Clone, Copy, Default)]
pub struct InOrderCore;

impl CoreModel for InOrderCore {
    fn kind(&self) -> CoreKind {
        CoreKind::InOrder
    }

    fn execute(
        &mut self,
        env: CoreEnv<'_>,
        program: &Program,
        entry: usize,
        entry_name: &str,
        mut sink: Option<&mut (dyn TraceSink + '_)>,
    ) -> Result<ExecOutcome, SimError> {
        let start_cycles = *env.cycles;
        let mut executed: u64 = 0;
        let mut classes = ClassCounts::default();
        let mut pc = entry;
        // Depth of trace frames currently open: the synthetic entry
        // frame plus executed calls minus executed returns. Frames left
        // open at halt are closed synthetically so attribution always
        // balances (root inclusive == total cycles).
        let mut trace_depth: u64 = 0;
        if let Some(s) = sink.as_deref_mut() {
            s.on_event(&TraceEvent::Call {
                pc: entry as u32,
                callee: entry_name,
                cycle: start_cycles,
            });
            trace_depth = 1;
        }
        let mut halted = false;

        loop {
            if pc == RETURN_SENTINEL as usize {
                break; // clean return from a `call`
            }
            let insn = match program.insns().get(pc) {
                Some(i) => i,
                None => return Err(SimError::PcOutOfRange { pc }),
            };
            if executed >= env.fuel {
                return Err(SimError::OutOfFuel { executed });
            }
            executed += 1;
            match insn {
                Insn::Lw(..)
                | Insn::Sw(..)
                | Insn::Lbu(..)
                | Insn::Sb(..)
                | Insn::Lhu(..)
                | Insn::Sh(..) => classes.mem += 1,
                Insn::Beq(..)
                | Insn::Bne(..)
                | Insn::Bltu(..)
                | Insn::Bgeu(..)
                | Insn::Blt(..)
                | Insn::Bge(..)
                | Insn::J(_)
                | Insn::Call(_)
                | Insn::Ret
                | Insn::Jr(_) => classes.control += 1,
                Insn::Mul(..) | Insn::Mulhu(..) => classes.mul += 1,
                Insn::Custom(_) => classes.custom += 1,
                _ => classes.alu += 1,
            }

            // Source-operand interlock: stall until inputs are ready.
            let before_stall = *env.cycles;
            for src in insn.sources().iter() {
                let ready = env.reg_ready[src.index()];
                if ready > *env.cycles {
                    *env.cycles = ready;
                }
            }
            if let Some(s) = sink.as_deref_mut() {
                let stall = *env.cycles - before_stall;
                if stall > 0 {
                    s.on_event(&TraceEvent::Stall {
                        pc: pc as u32,
                        cycles: stall as u32,
                        cycle: *env.cycles,
                    });
                }
            }

            // Instruction fetch.
            cache_access(
                env.icache,
                pc as u64 * 4,
                CacheSide::Instruction,
                env.cycles,
                env.config.mem_latency,
                &mut sink,
            );
            // Issue.
            *env.cycles += 1;

            let mut next_pc = pc + 1;
            let mut taken = false;
            let mut returned = false;

            macro_rules! rd {
                ($r:expr) => {
                    env.regs[$r.index()]
                };
            }

            match insn {
                Insn::Add(d, a, b) => env.regs[d.index()] = rd!(a).wrapping_add(rd!(b)),
                Insn::Addc(d, a, b) => {
                    let t = rd!(a) as u64 + rd!(b) as u64 + *env.carry as u64;
                    env.regs[d.index()] = t as u32;
                    *env.carry = t >> 32 != 0;
                }
                Insn::Sub(d, a, b) => env.regs[d.index()] = rd!(a).wrapping_sub(rd!(b)),
                Insn::Subc(d, a, b) => {
                    let t = (rd!(a) as u64)
                        .wrapping_sub(rd!(b) as u64)
                        .wrapping_sub(*env.carry as u64);
                    env.regs[d.index()] = t as u32;
                    *env.carry = t >> 32 != 0;
                }
                Insn::And(d, a, b) => env.regs[d.index()] = rd!(a) & rd!(b),
                Insn::Or(d, a, b) => env.regs[d.index()] = rd!(a) | rd!(b),
                Insn::Xor(d, a, b) => env.regs[d.index()] = rd!(a) ^ rd!(b),
                Insn::Sll(d, a, b) => env.regs[d.index()] = rd!(a) << (rd!(b) & 31),
                Insn::Srl(d, a, b) => env.regs[d.index()] = rd!(a) >> (rd!(b) & 31),
                Insn::Sra(d, a, b) => {
                    env.regs[d.index()] = ((rd!(a) as i32) >> (rd!(b) & 31)) as u32
                }
                Insn::Sltu(d, a, b) => env.regs[d.index()] = (rd!(a) < rd!(b)) as u32,
                Insn::Slt(d, a, b) => {
                    env.regs[d.index()] = ((rd!(a) as i32) < (rd!(b) as i32)) as u32
                }
                Insn::Mul(d, a, b) | Insn::Mulhu(d, a, b) => {
                    if !env.config.has_mul {
                        return Err(SimError::Illegal {
                            pc,
                            reason: "mul requires the hardware-multiplier option".into(),
                        });
                    }
                    let t = rd!(a) as u64 * rd!(b) as u64;
                    env.regs[d.index()] = if matches!(insn, Insn::Mul(..)) {
                        t as u32
                    } else {
                        (t >> 32) as u32
                    };
                    env.reg_ready[d.index()] =
                        *env.cycles + env.config.mul_latency.saturating_sub(1) as u64;
                }
                Insn::Addi(d, a, imm) => env.regs[d.index()] = rd!(a).wrapping_add(*imm as u32),
                Insn::Andi(d, a, imm) => env.regs[d.index()] = rd!(a) & imm,
                Insn::Ori(d, a, imm) => env.regs[d.index()] = rd!(a) | imm,
                Insn::Xori(d, a, imm) => env.regs[d.index()] = rd!(a) ^ imm,
                Insn::Slli(d, a, sh) => env.regs[d.index()] = rd!(a) << sh,
                Insn::Srli(d, a, sh) => env.regs[d.index()] = rd!(a) >> sh,
                Insn::Srai(d, a, sh) => env.regs[d.index()] = ((rd!(a) as i32) >> sh) as u32,
                Insn::Movi(d, imm) => env.regs[d.index()] = *imm as u32,
                Insn::Mov(d, a) => env.regs[d.index()] = rd!(a),
                Insn::Lw(d, base, off) | Insn::Lbu(d, base, off) | Insn::Lhu(d, base, off) => {
                    let addr = rd!(base).wrapping_add(*off as u32);
                    if let Some(f) = env.fault.as_mut() {
                        if f.cache_tag() {
                            env.dcache.invalidate(addr as u64);
                        }
                    }
                    cache_access(
                        env.dcache,
                        addr as u64,
                        CacheSide::Data,
                        env.cycles,
                        env.config.mem_latency,
                        &mut sink,
                    );
                    let v = match insn {
                        Insn::Lw(..) => env.mem.load_u32(addr),
                        Insn::Lbu(..) => env.mem.load_u8(addr).map(u32::from),
                        _ => env.mem.load_u16(addr).map(u32::from),
                    }
                    .map_err(|source| SimError::Mem { pc, source })?;
                    let v = match env.fault.as_mut() {
                        Some(f) => f.data(v),
                        None => v,
                    };
                    env.regs[d.index()] = v;
                    // Load-use delay: result arrives one cycle late.
                    env.reg_ready[d.index()] = *env.cycles + 1;
                }
                Insn::Sw(v, base, off) | Insn::Sb(v, base, off) | Insn::Sh(v, base, off) => {
                    let addr = rd!(base).wrapping_add(*off as u32);
                    if let Some(f) = env.fault.as_mut() {
                        if f.cache_tag() {
                            env.dcache.invalidate(addr as u64);
                        }
                    }
                    cache_access(
                        env.dcache,
                        addr as u64,
                        CacheSide::Data,
                        env.cycles,
                        env.config.mem_latency,
                        &mut sink,
                    );
                    let val = rd!(v);
                    match insn {
                        Insn::Sw(..) => env.mem.store_u32(addr, val),
                        Insn::Sb(..) => env.mem.store_u8(addr, val as u8),
                        _ => env.mem.store_u16(addr, val as u16),
                    }
                    .map_err(|source| SimError::Mem { pc, source })?;
                }
                Insn::Beq(a, b, t) => {
                    if rd!(a) == rd!(b) {
                        next_pc = *t;
                        taken = true;
                    }
                }
                Insn::Bne(a, b, t) => {
                    if rd!(a) != rd!(b) {
                        next_pc = *t;
                        taken = true;
                    }
                }
                Insn::Bltu(a, b, t) => {
                    if rd!(a) < rd!(b) {
                        next_pc = *t;
                        taken = true;
                    }
                }
                Insn::Bgeu(a, b, t) => {
                    if rd!(a) >= rd!(b) {
                        next_pc = *t;
                        taken = true;
                    }
                }
                Insn::Blt(a, b, t) => {
                    if (rd!(a) as i32) < (rd!(b) as i32) {
                        next_pc = *t;
                        taken = true;
                    }
                }
                Insn::Bge(a, b, t) => {
                    if (rd!(a) as i32) >= (rd!(b) as i32) {
                        next_pc = *t;
                        taken = true;
                    }
                }
                Insn::J(t) => {
                    next_pc = *t;
                    taken = true;
                }
                Insn::Call(t) => {
                    env.regs[Reg::RA.index()] = (pc + 1) as u32;
                    let callee = program.label_at(*t).unwrap_or("<anon>");
                    if let Some(s) = sink.as_deref_mut() {
                        s.on_event(&TraceEvent::Call {
                            pc: pc as u32,
                            callee,
                            cycle: *env.cycles,
                        });
                        trace_depth += 1;
                    }
                    next_pc = *t;
                    taken = true;
                }
                Insn::Ret => {
                    next_pc = env.regs[Reg::RA.index()] as usize;
                    taken = true;
                    // Frame close is recorded after the branch penalty
                    // is charged (below), so a return's refill cycles
                    // stay inside the returning frame and attribution
                    // accounts for every cycle.
                    returned = true;
                }
                Insn::Jr(r) => {
                    next_pc = rd!(r) as usize;
                    taken = true;
                }
                Insn::Clc => *env.carry = false,
                Insn::Nop => {}
                Insn::Halt => halted = true,
                Insn::Custom(op) => {
                    let def = env.ext.get(&op.name).ok_or_else(|| SimError::Illegal {
                        pc,
                        reason: format!("unknown custom instruction `{}`", op.name),
                    })?;
                    let exec = def.exec.clone();
                    let latency = def.latency;
                    let mut ctx = ExecCtx {
                        regs: env.regs,
                        uregs: env.uregs,
                        mem: env.mem,
                        carry: env.carry,
                    };
                    exec(&mut ctx, op).map_err(|source| SimError::Custom { pc, source })?;
                    *env.cycles += latency.saturating_sub(1) as u64;
                    if let Some(f) = env.fault.as_mut() {
                        if let Some(mask) = f.custom_result() {
                            // Stuck-at-one fault on one line of the
                            // result bus (destination register).
                            if let Some(d) = op.regs.first() {
                                env.regs[d.index()] |= mask;
                            }
                        }
                    }
                    if let Some(s) = sink.as_deref_mut() {
                        s.on_event(&TraceEvent::Custom {
                            pc: pc as u32,
                            name: &op.name,
                            latency,
                            cycle: *env.cycles,
                        });
                    }
                }
            }

            if taken {
                *env.cycles += env.config.branch_penalty as u64;
                if let Some(s) = sink.as_deref_mut() {
                    s.on_event(&TraceEvent::TakenBranch {
                        pc: pc as u32,
                        target: next_pc as u32,
                        penalty: env.config.branch_penalty,
                        cycle: *env.cycles,
                    });
                }
            }
            if let Some(f) = env.fault.as_mut() {
                // One register-file upset opportunity per retired
                // instruction.
                if let Some((r, mask)) = f.regfile(env.regs.len()) {
                    env.regs[r] ^= mask;
                }
            }
            if let Some(s) = sink.as_deref_mut() {
                if returned && trace_depth > 0 {
                    s.on_event(&TraceEvent::Ret {
                        pc: pc as u32,
                        cycle: *env.cycles,
                    });
                    trace_depth -= 1;
                }
                s.on_event(&TraceEvent::Retire {
                    pc: pc as u32,
                    cycle: *env.cycles,
                });
            }
            if halted {
                break;
            }
            pc = next_pc;
        }

        if let Some(s) = sink {
            // Close frames left open (the synthetic entry frame, plus
            // any callees a `halt` terminated from inside).
            while trace_depth > 0 {
                s.on_event(&TraceEvent::Ret {
                    pc: pc as u32,
                    cycle: *env.cycles,
                });
                trace_depth -= 1;
            }
            s.flush();
        }

        Ok(ExecOutcome { executed, classes })
    }
}
