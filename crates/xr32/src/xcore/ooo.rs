//! The scoreboarded out-of-order pipeline model (`ooo-…` core family).
//!
//! # Design
//!
//! Instructions execute **functionally in program order** — the exact
//! semantic code paths, fault-plan consultations and error returns of
//! the in-order core — so the architectural state is bit-identical to
//! [`InOrderCore`](super::InOrderCore) and the `xjit` fast path by
//! construction. What differs is *when* the clock says each
//! instruction happened: the model books every instruction through an
//! analytic dataflow scoreboard that mirrors the classic Tomasulo
//! structures:
//!
//! - a **2-bit branch predictor** (per-PC saturating counters):
//!   correctly predicted branches cost nothing; a mispredict restarts
//!   the front end `branch_penalty` cycles after the branch resolves.
//!   Unconditional transfers (`j`/`call`/`ret`/`jr`) are treated as
//!   BTB/return-stack hits;
//! - a **reorder buffer** (ROB): dispatch stalls when all
//!   [`OooParams::rob_entries`] are occupied by uncommitted
//!   instructions, bounding run-ahead;
//! - **register renaming**: only true (RAW) dependences wait — the
//!   per-register table holds result *completion* times, and every
//!   writer simply overwrites its slot (WAW/WAR never stall);
//! - **reservation stations**: dispatch stalls when all
//!   [`OooParams::rs_entries`] in-flight instructions are still
//!   executing (entries free at execution completion, in any order);
//! - a **load-store queue**: at most [`OooParams::lsq_entries`] memory
//!   operations in flight (entries free at commit);
//! - **issue/retire width**: at most [`OooParams::issue_width`]
//!   dispatches and [`OooParams::retire_width`] commits per cycle,
//!   both in program order.
//!
//! Cache behavior is identical to the in-order core (same accesses, in
//! the same order, against the same `Cache` state), so hit/miss
//! *counts* agree exactly; only the cycles a miss costs land
//! differently — an I-miss delays the front end, a D-miss lengthens
//! that operation's execution instead of stalling the whole machine.
//!
//! Trace events are emitted at **commit** time, so the event stream's
//! cycle field is monotone and call-tree cycle attribution balances
//! exactly as it does in order. Stall events are not emitted (there is
//! no single architectural stall point); mispredicted branches emit
//! the `TakenBranch` event carrying the refill penalty.

use super::{CoreEnv, CoreKind, CoreModel, ExecOutcome};
use crate::area::AreaModel;
use crate::asm::Program;
use crate::cpu::{ClassCounts, SimError, RETURN_SENTINEL};
use crate::ext::ExecCtx;
use crate::isa::{Insn, Reg};
use std::collections::VecDeque;
use xobs::trace::{TraceEvent, TraceSink};

/// Structure widths of one out-of-order core configuration.
///
/// The defaults describe a modest dual-issue machine appropriate for
/// the paper's 0.18 µm embedded setting; the fields are public so the
/// design-space exploration can enumerate family members.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OooParams {
    /// Instructions renamed/dispatched per cycle.
    pub issue_width: u32,
    /// Instructions committed per cycle.
    pub retire_width: u32,
    /// Reorder-buffer entries (bounds run-ahead).
    pub rob_entries: u32,
    /// Reservation-station entries (bounds in-flight execution).
    pub rs_entries: u32,
    /// Load-store-queue entries (bounds in-flight memory operations).
    pub lsq_entries: u32,
    /// 2-bit branch-predictor counters (direct-mapped by PC).
    pub predictor_entries: u32,
}

impl Default for OooParams {
    fn default() -> Self {
        OooParams {
            issue_width: 2,
            retire_width: 2,
            rob_entries: 32,
            rs_entries: 16,
            lsq_entries: 8,
            predictor_entries: 256,
        }
    }
}

impl OooParams {
    /// The *CoreConfigId* for this member of the family, with every
    /// width encoded: `ooo-i<issue>x<retire>-r<rob>s<rs>l<lsq>b<pred>`.
    pub fn id(&self) -> String {
        format!(
            "ooo-i{}x{}-r{}s{}l{}b{}",
            self.issue_width,
            self.retire_width,
            self.rob_entries,
            self.rs_entries,
            self.lsq_entries,
            self.predictor_entries
        )
    }

    /// Structural gate cost of the out-of-order machinery (see
    /// [`crate::area`] for the per-entry constants).
    pub fn area_gates(&self) -> u64 {
        AreaModel::new()
            .rob_entries(self.rob_entries as u64)
            .rs_entries(self.rs_entries as u64)
            .lsq_entries(self.lsq_entries as u64)
            .predictor_counters(self.predictor_entries as u64)
            .gates()
    }
}

/// The out-of-order timing model. Holds the branch-predictor counter
/// table (the only scoreboard state that persists across runs — ROB,
/// reservation stations and the LSQ drain between runs by definition).
#[derive(Debug, Clone)]
pub struct OooCore {
    params: OooParams,
    /// 2-bit saturating counters, direct-mapped by PC; `>= 2` predicts
    /// taken. Reset (to strongly-not-taken) by `reset_timing`.
    counters: Vec<u8>,
}

impl OooCore {
    /// Builds a core with all-zero (strongly-not-taken) predictor
    /// state.
    pub fn new(params: OooParams) -> Self {
        let entries = params.predictor_entries.max(1) as usize;
        OooCore {
            params,
            counters: vec![0; entries],
        }
    }

    /// The configured structure widths.
    pub fn params(&self) -> &OooParams {
        &self.params
    }
}

impl CoreModel for OooCore {
    fn kind(&self) -> CoreKind {
        CoreKind::OutOfOrder
    }

    fn reset_timing(&mut self) {
        self.counters.fill(0);
    }

    fn execute(
        &mut self,
        env: CoreEnv<'_>,
        program: &Program,
        entry: usize,
        entry_name: &str,
        mut sink: Option<&mut (dyn TraceSink + '_)>,
    ) -> Result<ExecOutcome, SimError> {
        let p = self.params;
        let base = *env.cycles;
        let mut executed: u64 = 0;
        let mut classes = ClassCounts::default();
        let mut pc = entry;
        let mut trace_depth: u64 = 0;
        if let Some(s) = sink.as_deref_mut() {
            s.on_event(&TraceEvent::Call {
                pc: entry as u32,
                callee: entry_name,
                cycle: base,
            });
            trace_depth = 1;
        }
        let mut halted = false;

        // Scoreboard clocks and occupancy rings. The ROB and LSQ free
        // entries at commit (in program order); reservation stations
        // free at execution completion (any order).
        let mut fetch_cycle = base;
        let mut last_dispatch = base;
        let mut last_commit = base;
        let mut rob: VecDeque<u64> = VecDeque::with_capacity(p.rob_entries as usize);
        let mut rs: Vec<u64> = Vec::with_capacity(p.rs_entries as usize);
        let mut lsq: VecDeque<u64> = VecDeque::with_capacity(p.lsq_entries as usize);
        let mut disp_slots: VecDeque<u64> = VecDeque::with_capacity(p.issue_width as usize);
        let mut commit_slots: VecDeque<u64> = VecDeque::with_capacity(p.retire_width as usize);

        // On an early error the clock must still reflect the work done
        // (the counter is monotone across runs on one core).
        macro_rules! bail {
            ($e:expr) => {{
                *env.cycles = last_commit.max(fetch_cycle);
                return Err($e);
            }};
        }

        loop {
            if pc == RETURN_SENTINEL as usize {
                break; // clean return from a `call`
            }
            let insn = match program.insns().get(pc) {
                Some(i) => i,
                None => bail!(SimError::PcOutOfRange { pc }),
            };
            if executed >= env.fuel {
                bail!(SimError::OutOfFuel { executed });
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

            // Front end: fetch through the I-cache; a miss delays the
            // fetch stream, not the whole machine.
            if !env.icache.access(pc as u64 * 4) {
                fetch_cycle += env.config.mem_latency as u64;
            }

            // Rename/dispatch: in program order, bounded by the issue
            // width and by a free ROB entry and reservation station.
            let mut disp = last_dispatch.max(fetch_cycle + 1);
            if rob.len() == p.rob_entries as usize {
                if let Some(free_at) = rob.pop_front() {
                    disp = disp.max(free_at);
                }
            }
            if rs.len() == p.rs_entries as usize {
                let min_ix = (0..rs.len())
                    .min_by_key(|&i| rs[i])
                    .expect("non-empty reservation stations");
                disp = disp.max(rs.swap_remove(min_ix));
            }
            if disp_slots.len() == p.issue_width.max(1) as usize {
                let oldest = disp_slots.pop_front().expect("full dispatch window");
                if disp <= oldest {
                    disp = oldest + 1;
                }
            }
            last_dispatch = disp;
            disp_slots.push_back(disp);

            // Wake-up: renamed operands wait only on true (RAW)
            // dependences — the completion time of the latest writer.
            let mut ready = disp;
            for src in insn.sources().iter() {
                ready = ready.max(env.reg_ready[src.index()]);
            }
            let is_mem = insn.is_load() || insn.is_store();
            if is_mem && lsq.len() == p.lsq_entries as usize {
                if let Some(free_at) = lsq.pop_front() {
                    ready = ready.max(free_at);
                }
            }

            let mut next_pc = pc + 1;
            let mut taken = false;
            let mut returned = false;
            // Execution latency of this instruction once its operands
            // arrive; D-cache misses lengthen it below.
            let mut exec_lat: u64 = 1;
            let mut call_ev: Option<&str> = None;
            let mut custom_ev: Option<(&str, u32)> = None;

            macro_rules! rd {
                ($r:expr) => {
                    env.regs[$r.index()]
                };
            }

            // Functional semantics: identical architectural effects,
            // fault-plan consultations and error paths to the in-order
            // core — only the cycle bookkeeping differs.
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
                        bail!(SimError::Illegal {
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
                    exec_lat = env.config.mul_latency.max(1) as u64;
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
                Insn::Lw(d, base_r, off)
                | Insn::Lbu(d, base_r, off)
                | Insn::Lhu(d, base_r, off) => {
                    let addr = rd!(base_r).wrapping_add(*off as u32);
                    if let Some(f) = env.fault.as_mut() {
                        if f.cache_tag() {
                            env.dcache.invalidate(addr as u64);
                        }
                    }
                    if !env.dcache.access(addr as u64) {
                        exec_lat += env.config.mem_latency as u64;
                    }
                    let v = match insn {
                        Insn::Lw(..) => env.mem.load_u32(addr),
                        Insn::Lbu(..) => env.mem.load_u8(addr).map(u32::from),
                        _ => env.mem.load_u16(addr).map(u32::from),
                    };
                    let v = match v {
                        Ok(v) => v,
                        Err(source) => bail!(SimError::Mem { pc, source }),
                    };
                    let v = match env.fault.as_mut() {
                        Some(f) => f.data(v),
                        None => v,
                    };
                    env.regs[d.index()] = v;
                }
                Insn::Sw(v, base_r, off) | Insn::Sb(v, base_r, off) | Insn::Sh(v, base_r, off) => {
                    let addr = rd!(base_r).wrapping_add(*off as u32);
                    if let Some(f) = env.fault.as_mut() {
                        if f.cache_tag() {
                            env.dcache.invalidate(addr as u64);
                        }
                    }
                    if !env.dcache.access(addr as u64) {
                        exec_lat += env.config.mem_latency as u64;
                    }
                    let val = rd!(v);
                    let stored = match insn {
                        Insn::Sw(..) => env.mem.store_u32(addr, val),
                        Insn::Sb(..) => env.mem.store_u8(addr, val as u8),
                        _ => env.mem.store_u16(addr, val as u16),
                    };
                    if let Err(source) = stored {
                        bail!(SimError::Mem { pc, source });
                    }
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
                    call_ev = Some(program.label_at(*t).unwrap_or("<anon>"));
                    next_pc = *t;
                    taken = true;
                }
                Insn::Ret => {
                    next_pc = env.regs[Reg::RA.index()] as usize;
                    taken = true;
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
                    let def = match env.ext.get(&op.name) {
                        Some(def) => def,
                        None => bail!(SimError::Illegal {
                            pc,
                            reason: format!("unknown custom instruction `{}`", op.name),
                        }),
                    };
                    let exec = def.exec.clone();
                    let latency = def.latency;
                    let mut ctx = ExecCtx {
                        regs: env.regs,
                        uregs: env.uregs,
                        mem: env.mem,
                        carry: env.carry,
                    };
                    if let Err(source) = exec(&mut ctx, op) {
                        bail!(SimError::Custom { pc, source });
                    }
                    exec_lat = latency.max(1) as u64;
                    if let Some(f) = env.fault.as_mut() {
                        if let Some(mask) = f.custom_result() {
                            // Stuck-at-one fault on one line of the
                            // result bus (destination register).
                            if let Some(d) = op.regs.first() {
                                env.regs[d.index()] |= mask;
                            }
                        }
                    }
                    custom_ev = Some((&op.name, latency));
                }
            }

            let exec_done = ready + exec_lat;
            rs.push(exec_done);

            // Rename-table update: the destination's value exists once
            // execution completes (full bypass — consumers issue
            // against completion, never against commit).
            if let Some(d) = insn.dest() {
                env.reg_ready[d.index()] = exec_done;
            } else if let Insn::Custom(op) = insn {
                // Custom instructions write their first register
                // operand (the same convention the fault hook uses).
                if let Some(d) = op.regs.first() {
                    env.reg_ready[d.index()] = exec_done;
                }
            }

            // Branch prediction: conditional branches consult and train
            // the 2-bit counter table; unconditional transfers are
            // BTB/return-stack hits. A mispredict restarts the front
            // end a refill after the branch resolves.
            let mut mispredicted = false;
            if matches!(
                insn,
                Insn::Beq(..)
                    | Insn::Bne(..)
                    | Insn::Bltu(..)
                    | Insn::Bgeu(..)
                    | Insn::Blt(..)
                    | Insn::Bge(..)
            ) {
                let ix = pc % self.counters.len();
                let predict_taken = self.counters[ix] >= 2;
                mispredicted = predict_taken != taken;
                self.counters[ix] = if taken {
                    (self.counters[ix] + 1).min(3)
                } else {
                    self.counters[ix].saturating_sub(1)
                };
            }
            if mispredicted {
                fetch_cycle = fetch_cycle.max(exec_done) + env.config.branch_penalty as u64;
            }

            // Commit: in program order, bounded by the retire width.
            let mut commit = last_commit.max(exec_done);
            if commit_slots.len() == p.retire_width.max(1) as usize {
                let oldest = commit_slots.pop_front().expect("full commit window");
                if commit <= oldest {
                    commit = oldest + 1;
                }
            }
            last_commit = commit;
            commit_slots.push_back(commit);
            rob.push_back(commit);
            if is_mem {
                lsq.push_back(commit);
            }

            if let Some(s) = sink.as_deref_mut() {
                if let Some(callee) = call_ev {
                    s.on_event(&TraceEvent::Call {
                        pc: pc as u32,
                        callee,
                        cycle: commit,
                    });
                    trace_depth += 1;
                }
                if let Some((name, latency)) = custom_ev {
                    s.on_event(&TraceEvent::Custom {
                        pc: pc as u32,
                        name,
                        latency,
                        cycle: commit,
                    });
                }
                if mispredicted {
                    s.on_event(&TraceEvent::TakenBranch {
                        pc: pc as u32,
                        target: next_pc as u32,
                        penalty: env.config.branch_penalty,
                        cycle: commit,
                    });
                }
            }
            if let Some(f) = env.fault.as_mut() {
                // One register-file upset opportunity per retired
                // instruction (same hook cadence as the in-order core,
                // so fault streams agree across core models).
                if let Some((r, mask)) = f.regfile(env.regs.len()) {
                    env.regs[r] ^= mask;
                }
            }
            if let Some(s) = sink.as_deref_mut() {
                if returned && trace_depth > 0 {
                    s.on_event(&TraceEvent::Ret {
                        pc: pc as u32,
                        cycle: commit,
                    });
                    trace_depth -= 1;
                }
                s.on_event(&TraceEvent::Retire {
                    pc: pc as u32,
                    cycle: commit,
                });
            }
            if halted {
                break;
            }
            pc = next_pc;
        }

        // The run's clock is the commit time of its last instruction.
        *env.cycles = last_commit;
        if let Some(s) = sink {
            while trace_depth > 0 {
                s.on_event(&TraceEvent::Ret {
                    pc: pc as u32,
                    cycle: last_commit,
                });
                trace_depth -= 1;
            }
            s.flush();
        }

        Ok(ExecOutcome { executed, classes })
    }
}

#[cfg(test)]
mod tests {
    use crate::asm::assemble;
    use crate::config::CpuConfig;
    use crate::cpu::Cpu;
    use crate::xcore::{CoreSpec, OooParams};

    fn ooo_cpu() -> Cpu {
        Cpu::new(CpuConfig::ooo())
    }

    fn io_cpu() -> Cpu {
        Cpu::new(CpuConfig::default())
    }

    fn loop_program() -> crate::asm::Program {
        // Sum 16 words: a tight loop with a load, dependent add and a
        // backward branch — the predictor's bread and butter.
        assemble(
            "main:
                movi a0, 0x100
                movi a1, 16
                movi a2, 0
                movi a4, 0
            loop:
                lw   a3, a0, 0
                add  a2, a2, a3
                addi a0, a0, 4
                addi a1, a1, -1
                bne  a1, a4, loop
                halt",
        )
        .unwrap()
    }

    #[test]
    fn ooo_matches_inorder_architecturally() {
        let p = loop_program();
        let mut io = io_cpu();
        io.mem_mut().write_words(0x100, &[3; 16]).unwrap();
        let s_io = io.run(&p).unwrap();
        let mut ooo = ooo_cpu();
        ooo.mem_mut().write_words(0x100, &[3; 16]).unwrap();
        let s_ooo = ooo.run(&p).unwrap();
        for i in 0..16 {
            assert_eq!(io.reg(i), ooo.reg(i), "register a{i} diverged");
        }
        assert_eq!(io.reg(2), 48);
        assert_eq!(s_io.instructions, s_ooo.instructions);
        assert_eq!(s_io.dcache.misses, s_ooo.dcache.misses, "same accesses");
        assert_eq!(s_io.icache.misses, s_ooo.icache.misses);
    }

    #[test]
    fn ooo_is_faster_on_a_predictable_loop() {
        let p = loop_program();
        let mut io = io_cpu();
        io.mem_mut().write_words(0x100, &[1; 16]).unwrap();
        let s_io = io.run(&p).unwrap();
        let mut ooo = ooo_cpu();
        ooo.mem_mut().write_words(0x100, &[1; 16]).unwrap();
        let s_ooo = ooo.run(&p).unwrap();
        assert!(
            s_ooo.cycles < s_io.cycles,
            "ooo {} must beat in-order {}",
            s_ooo.cycles,
            s_io.cycles
        );
    }

    #[test]
    fn ipc_bounded_by_issue_width() {
        let p = loop_program();
        let mut ooo = ooo_cpu();
        ooo.mem_mut().write_words(0x100, &[1; 16]).unwrap();
        let s = ooo.run(&p).unwrap();
        let ipc = s.instructions as f64 / s.cycles as f64;
        assert!(ipc <= 2.0, "ipc {ipc} above the dual-issue bound");
        assert!(ipc > 0.0);
    }

    #[test]
    fn narrow_structures_are_slower() {
        let narrow = CpuConfig {
            core: CoreSpec::OutOfOrder(OooParams {
                issue_width: 1,
                retire_width: 1,
                rob_entries: 2,
                rs_entries: 2,
                lsq_entries: 1,
                predictor_entries: 16,
            }),
            ..CpuConfig::default()
        };
        let p = loop_program();
        let mut wide = ooo_cpu();
        wide.mem_mut().write_words(0x100, &[1; 16]).unwrap();
        let s_wide = wide.run(&p).unwrap();
        let mut small = Cpu::new(narrow);
        small.mem_mut().write_words(0x100, &[1; 16]).unwrap();
        let s_small = small.run(&p).unwrap();
        assert!(
            s_small.cycles > s_wide.cycles,
            "narrow {} must trail wide {}",
            s_small.cycles,
            s_wide.cycles
        );
    }

    #[test]
    fn reset_timing_resets_the_predictor() {
        let p = loop_program();
        let mut c = ooo_cpu();
        c.mem_mut().write_words(0x100, &[1; 16]).unwrap();
        let first = c.run(&p).unwrap().cycles;
        // A second run on warm predictor + caches is cheaper…
        c.reset_timing();
        c.mem_mut().write_words(0x100, &[1; 16]).unwrap();
        let after_reset = c.run(&p).unwrap().cycles;
        // …but after reset_timing the run must reproduce the cold run
        // exactly (determinism contract).
        assert_eq!(first, after_reset);
    }

    #[test]
    fn traced_ooo_attribution_balances() {
        let p = assemble(
            "main:
                call leaf
                call leaf
                halt
             leaf:
                movi a0, 0x100
                lw   a1, a0, 0
                add  a2, a1, a1
                ret",
        )
        .unwrap();
        let mut c = ooo_cpu();
        let mut attr = xobs::Attribution::new();
        let s = c.run_traced(&p, Some(&mut attr)).unwrap();
        assert_eq!(attr.open_frames(), 0);
        assert_eq!(attr.total_cycles(), s.cycles);
        let flat = attr.flat();
        let leaf = flat.iter().find(|e| e.name == "leaf").unwrap();
        assert_eq!(leaf.calls, 2);
    }

    #[test]
    fn ooo_fuel_exhaustion_is_detected() {
        let p = assemble("spin: j spin").unwrap();
        let mut c = ooo_cpu();
        c.set_fuel(1000);
        assert!(matches!(
            c.run(&p),
            Err(crate::cpu::SimError::OutOfFuel { .. })
        ));
    }

    #[test]
    fn ooo_reports_same_errors_as_inorder() {
        let bad_load = assemble("movi a0, 0xfffffff0\n lw a1, a0, 0\n halt").unwrap();
        let mut io = io_cpu();
        let mut ooo = ooo_cpu();
        let e_io = io.run(&bad_load).unwrap_err();
        let e_ooo = ooo.run(&bad_load).unwrap_err();
        assert_eq!(e_io, e_ooo);

        let no_mul = CpuConfig {
            has_mul: false,
            ..CpuConfig::ooo()
        };
        let p = assemble("movi a0, 6\n movi a1, 7\n mul a2, a0, a1\n halt").unwrap();
        let mut soft = Cpu::new(no_mul);
        assert!(matches!(
            soft.run(&p),
            Err(crate::cpu::SimError::Illegal { pc: 2, .. })
        ));
    }
}
