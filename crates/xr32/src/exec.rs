//! The one copy of the XR32 instruction semantics, and the one driver
//! loop every engine runs.
//!
//! `Arch::step` is the only code that writes architectural state —
//! registers, carry, memory, user registers — and the only code that
//! calls a custom instruction's handler, consults the data-memory,
//! cache-tag and custom-result fault hooks, or builds a [`SimError`]
//! for a faulting instruction. `Run::exec` is the only loop: sentinel
//! return, `PcOutOfRange`, fuel, class counts, the register-file fault
//! hook once per retired instruction, and the trace Call/Ret frame
//! depth.
//!
//! What an engine adds is a `Timing` model, fed hook by hook: before
//! the instruction executes (`Timing::issue`), at its data-cache
//! access (`Timing::data`) and after it executes
//! (`Timing::retire`). The set of models is closed —
//! [`crate::xcore::inorder`], [`crate::xcore::ooo`] and the untimed
//! fast path in [`crate::xjit`] — and the driver is monomorphized per
//! model, so there is no dynamic call per instruction.
//!
//! What every engine reuses per program: the basic-block ends the
//! assembler computes (the driver checks the pc range once per block,
//! not once per instruction), and `Handlers`, each custom
//! instruction's handler and latency resolved by name once and cached
//! per program on the core.

use crate::asm::Program;
use crate::config::CpuConfig;
use crate::cpu::{ClassCounts, SimError, RETURN_SENTINEL};
use crate::ext::{CustomFn, ExecCtx, ExtensionSet, UserRegFile};
use crate::isa::{Insn, Reg};
use crate::mem::{AccessError, Memory};
use xfault::FaultPlan;
use xobs::trace::{TraceEvent, TraceSink};

/// An optional trace sink, as the timing hooks receive it.
pub(crate) type Sink<'a, 'b> = Option<&'a mut (dyn TraceSink + 'b)>;

/// Architectural state, and the armed fault plan that may corrupt it.
pub(crate) struct Arch {
    pub regs: [u32; 16],
    pub carry: bool,
    pub mem: Memory,
    pub uregs: UserRegFile,
    pub fault: Option<FaultPlan>,
}

/// Where control goes after one instruction.
#[derive(Clone, Copy)]
pub(crate) enum Flow {
    /// On to `pc + 1`.
    Next,
    /// A taken branch, jump, call, return or indirect jump.
    Jump(usize),
    /// `halt`.
    Halt,
}

/// Cycle stamps a timing model reports for a retired instruction.
#[derive(Clone, Copy, Default)]
pub(crate) struct Retired {
    /// Stamp of the instruction's Call or Custom event.
    pub at: u64,
    /// Stamp of its TakenBranch, Ret and Retire events.
    pub done: u64,
    /// Whether it paid the branch refill penalty (a TakenBranch event).
    pub refilled: bool,
}

/// A timing model: charges cycles around the shared step and emits the
/// events only it can stamp (stalls, cache accesses). It never writes
/// architectural state.
pub(crate) trait Timing {
    /// False for the untimed fast path: the driver then skips every
    /// trace hook, and every fault hook — a core with a fault plan
    /// armed never runs untimed.
    const TIMED: bool = true;

    /// Opens a run and returns the clock at entry.
    fn begin(&mut self) -> u64;

    /// Before `insn` at `pc` executes: operand interlocks, fetch,
    /// dispatch.
    fn issue(&mut self, pc: usize, insn: &Insn, sink: &mut Sink<'_, '_>);

    /// The data-cache access of a load or store at `addr`. A cache-tag
    /// fault (`tag_fault`) invalidates the line first.
    fn data(&mut self, addr: u32, tag_fault: bool, sink: &mut Sink<'_, '_>);

    /// After `insn` executed: `latency` is a custom instruction's
    /// registered latency, `taken` whether control left `pc + 1`.
    fn retire(&mut self, pc: usize, insn: &Insn, latency: u32, taken: bool) -> Retired;

    /// A run ended in an error: settle the clock on the work done.
    fn fail(&mut self) {}

    /// A run ended cleanly: settle and return the clock.
    fn end(&mut self) -> u64;
}

/// A custom instruction resolved against the core's extension set.
pub(crate) struct Handler {
    exec: CustomFn,
    latency: u32,
}

/// Each custom instruction of one program with its handler and latency,
/// resolved by name once and cached per program on the core.
pub(crate) struct Handlers(Vec<Option<Handler>>);

impl Handlers {
    /// Resolves every custom instruction of `program` against `ext`.
    /// A name `ext` lacks stays unresolved: an error only if executed.
    pub(crate) fn new(program: &Program, ext: &ExtensionSet) -> Self {
        let insns = program.insns();
        if !insns.iter().any(|i| matches!(i, Insn::Custom(_))) {
            return Handlers(Vec::new());
        }
        Handlers(
            insns
                .iter()
                .map(|insn| match insn {
                    Insn::Custom(op) => ext.get(&op.name).map(|def| Handler {
                        exec: def.exec.clone(),
                        latency: def.latency,
                    }),
                    _ => None,
                })
                .collect(),
        )
    }

    fn get(&self, pc: usize) -> Option<&Handler> {
        self.0.get(pc)?.as_ref()
    }
}

impl Arch {
    /// Executes one instruction: the ISA semantics. Calls the timing
    /// model's [`Timing::data`] hook between the cache-tag fault draw
    /// and a load or store, so every engine draws faults in the same
    /// order: `cache_tag` before the D-cache lookup, `data` after the
    /// load, `custom_result` after the handler.
    #[inline(always)]
    fn step<T: Timing>(
        &mut self,
        t: &mut T,
        pc: usize,
        insn: &Insn,
        handlers: &Handlers,
        has_mul: bool,
        sink: &mut Sink<'_, '_>,
    ) -> Result<Flow, SimError> {
        use Insn::*;
        let r = |reg: &Reg| reg.index();
        let x = &mut self.regs;
        let branch = |cond: bool, target: &usize| {
            if cond {
                Flow::Jump(*target)
            } else {
                Flow::Next
            }
        };
        match insn {
            Add(d, a, b) => x[r(d)] = x[r(a)].wrapping_add(x[r(b)]),
            Addc(d, a, b) => {
                let s = x[r(a)] as u64 + x[r(b)] as u64 + self.carry as u64;
                x[r(d)] = s as u32;
                self.carry = s >> 32 != 0;
            }
            Sub(d, a, b) => x[r(d)] = x[r(a)].wrapping_sub(x[r(b)]),
            Subc(d, a, b) => {
                let s = (x[r(a)] as u64)
                    .wrapping_sub(x[r(b)] as u64)
                    .wrapping_sub(self.carry as u64);
                x[r(d)] = s as u32;
                self.carry = s >> 32 != 0;
            }
            And(d, a, b) => x[r(d)] = x[r(a)] & x[r(b)],
            Or(d, a, b) => x[r(d)] = x[r(a)] | x[r(b)],
            Xor(d, a, b) => x[r(d)] = x[r(a)] ^ x[r(b)],
            Sll(d, a, b) => x[r(d)] = x[r(a)] << (x[r(b)] & 31),
            Srl(d, a, b) => x[r(d)] = x[r(a)] >> (x[r(b)] & 31),
            Sra(d, a, b) => x[r(d)] = ((x[r(a)] as i32) >> (x[r(b)] & 31)) as u32,
            Sltu(d, a, b) => x[r(d)] = (x[r(a)] < x[r(b)]) as u32,
            Slt(d, a, b) => x[r(d)] = ((x[r(a)] as i32) < (x[r(b)] as i32)) as u32,
            Mul(d, a, b) | Mulhu(d, a, b) => {
                if !has_mul {
                    return Err(SimError::Illegal {
                        pc,
                        reason: "mul requires the hardware-multiplier option".into(),
                    });
                }
                let p = x[r(a)] as u64 * x[r(b)] as u64;
                x[r(d)] = if matches!(insn, Mul(..)) {
                    p as u32
                } else {
                    (p >> 32) as u32
                };
            }
            Addi(d, a, imm) => x[r(d)] = x[r(a)].wrapping_add(*imm as u32),
            Andi(d, a, imm) => x[r(d)] = x[r(a)] & imm,
            Ori(d, a, imm) => x[r(d)] = x[r(a)] | imm,
            Xori(d, a, imm) => x[r(d)] = x[r(a)] ^ imm,
            Slli(d, a, sh) => x[r(d)] = x[r(a)] << sh,
            Srli(d, a, sh) => x[r(d)] = x[r(a)] >> sh,
            Srai(d, a, sh) => x[r(d)] = ((x[r(a)] as i32) >> sh) as u32,
            Movi(d, imm) => x[r(d)] = *imm as u32,
            Mov(d, a) => x[r(d)] = x[r(a)],
            Lw(d, base, off) => {
                let addr = x[r(base)].wrapping_add(*off as u32);
                self.load(t, pc, *d, addr, sink, Memory::load_u32)?;
            }
            Lbu(d, base, off) => {
                let addr = x[r(base)].wrapping_add(*off as u32);
                self.load(t, pc, *d, addr, sink, |m, a| m.load_u8(a).map(u32::from))?;
            }
            Lhu(d, base, off) => {
                let addr = x[r(base)].wrapping_add(*off as u32);
                self.load(t, pc, *d, addr, sink, |m, a| m.load_u16(a).map(u32::from))?;
            }
            Sw(v, base, off) => {
                let (addr, val) = (x[r(base)].wrapping_add(*off as u32), x[r(v)]);
                self.store(t, pc, addr, sink, |m, a| m.store_u32(a, val))?;
            }
            Sb(v, base, off) => {
                let (addr, val) = (x[r(base)].wrapping_add(*off as u32), x[r(v)]);
                self.store(t, pc, addr, sink, |m, a| m.store_u8(a, val as u8))?;
            }
            Sh(v, base, off) => {
                let (addr, val) = (x[r(base)].wrapping_add(*off as u32), x[r(v)]);
                self.store(t, pc, addr, sink, |m, a| m.store_u16(a, val as u16))?;
            }
            Beq(a, b, target) => return Ok(branch(x[r(a)] == x[r(b)], target)),
            Bne(a, b, target) => return Ok(branch(x[r(a)] != x[r(b)], target)),
            Bltu(a, b, target) => return Ok(branch(x[r(a)] < x[r(b)], target)),
            Bgeu(a, b, target) => return Ok(branch(x[r(a)] >= x[r(b)], target)),
            Blt(a, b, target) => return Ok(branch((x[r(a)] as i32) < (x[r(b)] as i32), target)),
            Bge(a, b, target) => return Ok(branch((x[r(a)] as i32) >= (x[r(b)] as i32), target)),
            J(target) => return Ok(Flow::Jump(*target)),
            Call(target) => {
                x[Reg::RA.index()] = (pc + 1) as u32;
                return Ok(Flow::Jump(*target));
            }
            Ret => return Ok(Flow::Jump(x[Reg::RA.index()] as usize)),
            Jr(a) => return Ok(Flow::Jump(x[r(a)] as usize)),
            Clc => self.carry = false,
            Nop => {}
            Halt => return Ok(Flow::Halt),
            Custom(op) => {
                let Some(h) = handlers.get(pc) else {
                    return Err(SimError::Illegal {
                        pc,
                        reason: format!("unknown custom instruction `{}`", op.name),
                    });
                };
                let mut ctx = ExecCtx {
                    regs: &mut self.regs,
                    uregs: &mut self.uregs,
                    mem: &mut self.mem,
                    carry: &mut self.carry,
                };
                (h.exec)(&mut ctx, op).map_err(|source| SimError::Custom { pc, source })?;
                if let Some(f) = self.plan::<T>() {
                    // Stuck-at-one fault on one line of the result bus
                    // (the destination register).
                    if let (Some(mask), Some(d)) = (f.custom_result(), op.regs.first()) {
                        self.regs[d.index()] |= mask;
                    }
                }
            }
        }
        Ok(Flow::Next)
    }

    /// A load into `d`: the cache-tag fault draw, the timing model's
    /// D-cache access, the read, then the data fault draw.
    #[inline(always)]
    fn load<T: Timing>(
        &mut self,
        t: &mut T,
        pc: usize,
        d: Reg,
        addr: u32,
        sink: &mut Sink<'_, '_>,
        read: impl FnOnce(&Memory, u32) -> Result<u32, AccessError>,
    ) -> Result<(), SimError> {
        self.data_access(t, addr, sink);
        let v = read(&self.mem, addr).map_err(|source| SimError::Mem { pc, source })?;
        self.regs[d.index()] = match self.plan::<T>() {
            Some(f) => f.data(v),
            None => v,
        };
        Ok(())
    }

    /// A store: the cache-tag fault draw, the timing model's D-cache
    /// access, then the write.
    #[inline(always)]
    fn store<T: Timing>(
        &mut self,
        t: &mut T,
        pc: usize,
        addr: u32,
        sink: &mut Sink<'_, '_>,
        write: impl FnOnce(&mut Memory, u32) -> Result<(), AccessError>,
    ) -> Result<(), SimError> {
        self.data_access(t, addr, sink);
        write(&mut self.mem, addr).map_err(|source| SimError::Mem { pc, source })
    }

    #[inline(always)]
    fn data_access<T: Timing>(&mut self, t: &mut T, addr: u32, sink: &mut Sink<'_, '_>) {
        let tag_fault = self.plan::<T>().is_some_and(FaultPlan::cache_tag);
        t.data(addr, tag_fault, sink);
    }

    /// The armed fault plan, if any, as `T` may consult it.
    #[inline(always)]
    fn plan<T: Timing>(&mut self) -> Option<&mut FaultPlan> {
        self.fault.as_mut().filter(|_| T::TIMED)
    }
}

/// What a run reports back to the core.
pub(crate) struct Outcome {
    /// Instructions executed (= retired: every model commits in order).
    pub executed: u64,
    /// Executed instructions by class.
    pub classes: ClassCounts,
}

/// One run's fixed inputs.
pub(crate) struct Run<'a> {
    pub program: &'a Program,
    pub handlers: &'a Handlers,
    pub config: &'a CpuConfig,
    pub fuel: u64,
}

impl Run<'_> {
    /// Runs from `entry` until `halt` or a return to
    /// [`RETURN_SENTINEL`], timing with `t`. A traced run is bracketed
    /// by a synthetic Call/Ret pair for the entry, and frames a `halt`
    /// leaves open are closed, so attribution over the event stream
    /// accounts for every cycle.
    pub(crate) fn exec<T: Timing>(
        &self,
        arch: &mut Arch,
        t: &mut T,
        entry: usize,
        entry_name: &str,
        mut sink: Sink<'_, '_>,
    ) -> Result<Outcome, (u64, SimError)> {
        let (insns, classes_of) = (self.program.insns(), self.program.classes());
        let block_ends = self.program.block_ends();
        let penalty = self.config.branch_penalty;
        let mut executed: u64 = 0;
        let mut classes = [0u64; 5];
        let mut depth: u64 = 0;
        let start = t.begin();
        if let Some(s) = sink.as_deref_mut().filter(|_| T::TIMED) {
            s.on_event(&TraceEvent::Call {
                pc: entry as u32,
                callee: entry_name,
                cycle: start,
            });
            depth = 1;
        }
        // An error reports the instructions that retired before it.
        let fail = |t: &mut T, retired: u64, e: SimError| {
            t.fail();
            Err((retired, e))
        };

        let mut pc = entry;
        'run: while pc != RETURN_SENTINEL as usize {
            let Some(&end) = block_ends.get(pc) else {
                return fail(t, executed, SimError::PcOutOfRange { pc });
            };
            let block = pc..end as usize;
            for (insn, &class) in insns[block.clone()].iter().zip(&classes_of[block]) {
                if executed >= self.fuel {
                    return fail(t, executed, SimError::OutOfFuel { executed });
                }
                executed += 1;
                classes[class as usize] += 1;
                t.issue(pc, insn, &mut sink);
                let flow =
                    match arch.step(t, pc, insn, self.handlers, self.config.has_mul, &mut sink) {
                        Ok(flow) => flow,
                        // The faulting instruction itself does not
                        // retire.
                        Err(e) => return fail(t, executed - 1, e),
                    };
                let latency = match insn {
                    Insn::Custom(_) => self.handlers.get(pc).map_or(0, |h| h.latency),
                    _ => 0,
                };
                let r = t.retire(pc, insn, latency, matches!(flow, Flow::Jump(_)));
                if let Some(s) = sink.as_deref_mut().filter(|_| T::TIMED) {
                    match insn {
                        Insn::Call(target) => {
                            s.on_event(&TraceEvent::Call {
                                pc: pc as u32,
                                callee: self.program.label_at(*target).unwrap_or("<anon>"),
                                cycle: r.at,
                            });
                            depth += 1;
                        }
                        Insn::Custom(op) => s.on_event(&TraceEvent::Custom {
                            pc: pc as u32,
                            name: &op.name,
                            latency,
                            cycle: r.at,
                        }),
                        _ => {}
                    }
                    if r.refilled {
                        let target = match flow {
                            Flow::Jump(target) => target,
                            _ => pc + 1,
                        };
                        s.on_event(&TraceEvent::TakenBranch {
                            pc: pc as u32,
                            target: target as u32,
                            penalty,
                            cycle: r.done,
                        });
                    }
                }
                // One register-file upset opportunity per retired
                // instruction.
                let regs = arch.regs.len();
                if let Some((reg, mask)) = arch.plan::<T>().and_then(|f| f.regfile(regs)) {
                    arch.regs[reg] ^= mask;
                }
                if let Some(s) = sink.as_deref_mut().filter(|_| T::TIMED) {
                    if matches!(insn, Insn::Ret) && depth > 0 {
                        s.on_event(&TraceEvent::Ret {
                            pc: pc as u32,
                            cycle: r.done,
                        });
                        depth -= 1;
                    }
                    s.on_event(&TraceEvent::Retire {
                        pc: pc as u32,
                        cycle: r.done,
                    });
                }
                match flow {
                    Flow::Next => pc += 1,
                    Flow::Jump(target) => {
                        pc = target;
                        continue 'run;
                    }
                    Flow::Halt => break 'run,
                }
            }
        }

        let end = t.end();
        if let Some(s) = sink.filter(|_| T::TIMED) {
            for _ in 0..depth {
                s.on_event(&TraceEvent::Ret {
                    pc: pc as u32,
                    cycle: end,
                });
            }
            s.flush();
        }
        let [alu, mem, control, mul, custom] = classes;
        Ok(Outcome {
            executed,
            classes: ClassCounts {
                alu,
                mem,
                control,
                mul,
                custom,
            },
        })
    }
}
