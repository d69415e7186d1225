//! Pins the observable behaviour of both cycle-accurate core models to
//! constants: cycles, I/D-cache hits and misses, class counts and
//! architectural state over the kernel-registry workload at every
//! accelerator level; the full trace-event stream of a traced sweep;
//! the same sweep under an all-sites fault campaign (per-site fired
//! counts, final state, the typed error stream); and the timing state
//! each simulator error leaves behind for the next run.
//!
//! The constants were captured from the engines as they stood before
//! the instruction semantics were shared between the core models, so
//! any change to an engine must reproduce them bit for bit. On a
//! mismatch the test prints the rows it observed.

use wsp::kreg::kernels::mpn as kmpn;
use wsp::kreg::{self, CallConv, LibKind};
use wsp::secproc::insns::mpn_extension_set;
use wsp::secproc::issops::{ArchState, IssMpn, KernelVariant};
use wsp::xr32::asm::{assemble, Program};
use wsp::xr32::config::CpuConfig;
use wsp::xr32::cpu::{Cpu, RunSummary};
use wsp::xr32::ExtensionSet;
use wsp::xr32::Fidelity;
use xfault::{FaultSite, PlanSpec};
use xobs::trace::{CacheSide, TraceEvent, TraceSink};

/// Every accelerator level the A-D curves measure, plus the base core.
const LEVELS: [KernelVariant; 5] = [
    KernelVariant::Base,
    KernelVariant::Accelerated {
        add_lanes: 2,
        mac_lanes: 1,
    },
    KernelVariant::Accelerated {
        add_lanes: 4,
        mac_lanes: 2,
    },
    KernelVariant::Accelerated {
        add_lanes: 8,
        mac_lanes: 4,
    },
    KernelVariant::Accelerated {
        add_lanes: 16,
        mac_lanes: 4,
    },
];

/// Operand sizes: lane-boundary crossings plus one longer loop.
const SIZES: [usize; 5] = [1, 2, 3, 8, 33];

const RP: u32 = 0x1000;
const AP: u32 = 0x40000;
const BP: u32 = 0x80000;

/// FNV-1a over the little-endian bytes of each folded value.
#[derive(Clone, Copy)]
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        for b in s.bytes() {
            self.u64(b as u64);
        }
    }
}

/// A trace sink folding every event field, in arrival order.
struct DigestSink {
    digest: Digest,
    events: u64,
}

impl TraceSink for DigestSink {
    fn on_event(&mut self, ev: &TraceEvent<'_>) {
        let d = &mut self.digest;
        self.events += 1;
        match *ev {
            TraceEvent::Retire { pc, cycle } => {
                d.u64(0);
                d.u64(pc as u64);
                d.u64(cycle);
            }
            TraceEvent::Stall { pc, cycles, cycle } => {
                d.u64(1);
                d.u64(pc as u64);
                d.u64(cycles as u64);
                d.u64(cycle);
            }
            TraceEvent::TakenBranch {
                pc,
                target,
                penalty,
                cycle,
            } => {
                d.u64(2);
                d.u64(pc as u64);
                d.u64(target as u64);
                d.u64(penalty as u64);
                d.u64(cycle);
            }
            TraceEvent::Cache {
                side,
                addr,
                hit,
                cycle,
            } => {
                d.u64(3);
                d.u64(matches!(side, CacheSide::Data) as u64);
                d.u64(addr);
                d.u64(hit as u64);
                d.u64(cycle);
            }
            TraceEvent::Custom {
                pc,
                name,
                latency,
                cycle,
            } => {
                d.u64(4);
                d.u64(pc as u64);
                d.str(name);
                d.u64(latency as u64);
                d.u64(cycle);
            }
            TraceEvent::Call { pc, callee, cycle } => {
                d.u64(5);
                d.u64(pc as u64);
                d.str(callee);
                d.u64(cycle);
            }
            TraceEvent::Ret { pc, cycle } => {
                d.u64(6);
                d.u64(pc as u64);
                d.u64(cycle);
            }
        }
    }
}

fn level_tag(v: KernelVariant) -> String {
    match v {
        KernelVariant::Base => "base".to_owned(),
        KernelVariant::Accelerated {
            add_lanes,
            mac_lanes,
        } => format!("a{add_lanes}m{mac_lanes}"),
    }
}

fn core_config(core: &str) -> CpuConfig {
    match core {
        "io" => CpuConfig::default(),
        _ => CpuConfig::ooo(),
    }
}

/// A bare core loaded with the 32-bit library of `variant`.
fn level_cpu(config: CpuConfig, variant: KernelVariant) -> (Cpu, Program) {
    let (src, ext) = match variant {
        KernelVariant::Base => (kmpn::base32_source(), ExtensionSet::new()),
        KernelVariant::Accelerated {
            add_lanes,
            mac_lanes,
        } => (
            kmpn::accel32_source(add_lanes, mac_lanes),
            mpn_extension_set(add_lanes, mac_lanes),
        ),
    };
    let program = assemble(&src).expect("bundled kernels assemble");
    (Cpu::with_extensions(config, ext), program)
}

/// Totals of one sweep of the register-convention kernels.
#[derive(Default)]
struct Totals {
    cycles: u64,
    insns: u64,
    ihits: u64,
    imiss: u64,
    dhits: u64,
    dmiss: u64,
    classes: ClassSums,
    errors: Vec<String>,
}

/// `ClassCounts` fields in declaration order, summed over a sweep.
#[derive(Default)]
struct ClassSums([u64; 5]);

impl Totals {
    fn add(&mut self, s: &RunSummary) {
        self.cycles += s.cycles;
        self.insns += s.instructions;
        self.ihits += s.icache.hits;
        self.imiss += s.icache.misses;
        self.dhits += s.dcache.hits;
        self.dmiss += s.dcache.misses;
        let c = &s.classes;
        for (slot, v) in self
            .classes
            .0
            .iter_mut()
            .zip([c.alu, c.mem, c.control, c.mul, c.custom])
        {
            *slot += v;
        }
    }
}

/// Architectural state of a bare core: registers, memory digest and
/// retired count, folded.
fn state_digest(cpu: &Cpu) -> u64 {
    let mut d = Digest::new();
    for i in 0..16 {
        d.u64(cpu.reg(i) as u64);
    }
    d.u64(cpu.mem().digest());
    d.u64(cpu.retired());
    d.0
}

/// Calls every register-convention kernel of the registry at every
/// size on fresh pseudo-random operands. Simulator errors are recorded
/// in order and the sweep goes on, so the state an error leaves behind
/// feeds the next call.
fn sweep(cpu: &mut Cpu, program: &Program, mut sink: Option<&mut (dyn TraceSink + '_)>) -> Totals {
    let mut totals = Totals::default();
    let mut x: u64 = 0x5EED_0FE4_91E5;
    let mut next = move || {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (x >> 32) as u32
    };
    for desc in kreg::registry().iter().filter(|d| d.lib == LibKind::Mpn) {
        for &n in &SIZES {
            for addr in [RP, AP, BP] {
                let words: Vec<u32> = (0..n).map(|_| next()).collect();
                cpu.mem_mut().write_words(addr, &words).expect("in range");
            }
            let args: Vec<u32> = match desc.conv {
                CallConv::VecVec { .. } => vec![RP, AP, BP, n as u32],
                CallConv::VecScalar { .. } => vec![RP, AP, n as u32, next()],
                CallConv::VecShift { .. } => vec![RP, AP, n as u32, next() % 31 + 1],
                CallConv::Div3by2 { .. } => {
                    let d1 = next() | 0x8000_0000;
                    vec![next() % d1, next(), next(), d1, next()]
                }
                _ => continue,
            };
            match cpu.call_traced(program, desc.entry, &args, sink.as_deref_mut()) {
                Ok(s) => totals.add(&s),
                Err(e) => totals.errors.push(format!("{} n={n}: {e}", desc.entry)),
            }
        }
    }
    totals
}

/// Prints the observed rows as a Rust array on mismatch.
fn check(name: &str, got: &[String], expected: &[&str]) {
    if got.iter().map(String::as_str).ne(expected.iter().copied()) {
        let mut listing = String::new();
        for row in got {
            listing.push_str(&format!("    {row:?},\n"));
        }
        panic!("{name}: engine behaviour changed; observed rows:\n{listing}");
    }
}

#[test]
fn sweeps_pin_cycles_caches_classes_state_and_trace() {
    let mut rows = Vec::new();
    for core in ["io", "ooo"] {
        for level in LEVELS {
            let (mut plain, program) = level_cpu(core_config(core), level);
            let t = sweep(&mut plain, &program, None);
            assert!(t.errors.is_empty(), "{core}: {:?}", t.errors);

            // The traced sweep must not perturb anything it observes.
            let (mut traced, _) = level_cpu(core_config(core), level);
            let mut sink = DigestSink {
                digest: Digest::new(),
                events: 0,
            };
            let tt = sweep(&mut traced, &program, Some(&mut sink));
            assert_eq!(tt.cycles, t.cycles, "{core}: observer effect on cycles");
            assert_eq!(state_digest(&traced), state_digest(&plain));

            rows.push(format!(
                "{core} {} cycles={} insns={} i={}/{} d={}/{} classes={:?} state={:016x} \
                 events={} trace={:016x}",
                level_tag(level),
                t.cycles,
                t.insns,
                t.ihits,
                t.imiss,
                t.dhits,
                t.dmiss,
                t.classes.0,
                state_digest(&plain),
                sink.events,
                sink.digest.0,
            ));
        }
    }
    check(
        "sweeps",
        &rows,
        &[
        "io base cycles=7815 insns=5743 i=5722/21 d=831/15 classes=[3794, 846, 811, 292, 0] state=81e33142ca115574 events=13114 trace=7aa5fb8253b2ff0e",
        "io a2m1 cycles=7464 insns=4846 i=4822/24 d=288/12 classes=[2939, 300, 951, 104, 552] state=73f20b87122b54b5 events=11348 trace=8f92941ad630fed2",
        "io a4m2 cycles=6609 insns=4335 i=4309/26 d=330/12 classes=[2790, 342, 831, 116, 256] state=74a1beb39e0ec03e events=10020 trace=12430f6d1d22e4fa",
        "io a8m4 cycles=6257 insns=4151 i=4125/26 d=354/12 classes=[2754, 366, 779, 132, 120] state=3062b033c2117886 events=9514 trace=ee0ca92566dc68ff",
        "io a16m4 cycles=6373 insns=4251 i=4225/26 d=402/12 classes=[2810, 414, 799, 132, 96] state=090a31fec35cf5aa events=9764 trace=2b0ddda15abcb41c",
        "ooo base cycles=3973 insns=5743 i=5722/21 d=831/15 classes=[3794, 846, 811, 292, 0] state=81e33142ca115574 events=5972 trace=d2fea82e97719e96",
        "ooo a2m1 cycles=3609 insns=4846 i=4822/24 d=288/12 classes=[2939, 300, 951, 104, 552] state=73f20b87122b54b5 events=5633 trace=307e48824dfa04c7",
        "ooo a4m2 cycles=3404 insns=4335 i=4309/26 d=330/12 classes=[2790, 342, 831, 116, 256] state=74a1beb39e0ec03e events=4838 trace=850b172a8811a840",
        "ooo a8m4 cycles=3322 insns=4151 i=4125/26 d=354/12 classes=[2754, 366, 779, 132, 120] state=3062b033c2117886 events=4522 trace=200a471b88889daa",
        "ooo a16m4 cycles=3361 insns=4251 i=4225/26 d=402/12 classes=[2810, 414, 799, 132, 96] state=090a31fec35cf5aa events=4594 trace=12c169dbccb69755",
        ],
    );
}

/// The registry golden workload through `IssMpn` (both radix cores,
/// verification on): per-core cycle counters and end-of-sweep
/// architectural state.
#[test]
fn golden_workload_pins_cycles_and_arch_state() {
    fn fold(d: &mut Digest, s: &ArchState) {
        for r in s.regs {
            d.u64(r as u64);
        }
        d.u64(s.mem_digest);
        d.u64(s.retired);
    }
    let mut rows = Vec::new();
    for core in ["io", "ooo"] {
        for level in LEVELS {
            let mut iss = IssMpn::with_variant(core_config(core), level);
            iss.set_fidelity(Fidelity::CycleAccurate);
            for desc in kreg::registry().iter().filter(|d| d.lib == LibKind::Mpn) {
                for (i, &n) in SIZES.iter().enumerate() {
                    let seed = 0x600D_5EED ^ i as u64;
                    iss.verify32(desc.id, n, seed).expect("golden r32");
                    iss.verify16(desc.id, n, seed).expect("golden r16");
                }
            }
            let (c32, c16) = iss.core_cycles();
            let mut d = Digest::new();
            fold(&mut d, &iss.arch_state32());
            fold(&mut d, &iss.arch_state16());
            rows.push(format!(
                "{core} {} cycles32={c32} cycles16={c16} state={:016x}",
                level_tag(level),
                d.0
            ));
        }
    }
    check(
        "golden",
        &rows,
        &[
            "io base cycles32=7843 cycles16=8007 state=b22a0c60d7f835af",
            "io a2m1 cycles32=7492 cycles16=8007 state=c5abfeee4d644d2d",
            "io a4m2 cycles32=6637 cycles16=8007 state=73526fe6a09a86ae",
            "io a8m4 cycles32=6285 cycles16=8007 state=b23e07a652c7cfc9",
            "io a16m4 cycles32=6401 cycles16=8007 state=13f23474a968457d",
            "ooo base cycles32=4033 cycles16=3958 state=b22a0c60d7f835af",
            "ooo a2m1 cycles32=3669 cycles16=3958 state=c5abfeee4d644d2d",
            "ooo a4m2 cycles32=3464 cycles16=3958 state=73526fe6a09a86ae",
            "ooo a8m4 cycles32=3382 cycles16=3958 state=b23e07a652c7cfc9",
            "ooo a16m4 cycles32=3421 cycles16=3958 state=13f23474a968457d",
        ],
    );
}

#[test]
fn fault_campaign_pins_fired_counts_state_and_errors() {
    let mut rows = Vec::new();
    for core in ["io", "ooo"] {
        for level in LEVELS {
            let (mut cpu, program) = level_cpu(core_config(core), level);
            cpu.set_fuel(50_000);
            cpu.set_fault_plan(PlanSpec::all_sites(0xFA17, 4_000).plan(3));
            let t = sweep(&mut cpu, &program, None);
            let plan = cpu.take_fault_plan().expect("armed");
            let fired: Vec<u64> = FaultSite::ALL.iter().map(|&s| plan.fired(s)).collect();
            let mut errors = Digest::new();
            for e in &t.errors {
                errors.str(e);
            }
            rows.push(format!(
                "{core} {} fired={fired:?} clock={} cycles={} d={}/{} state={:016x} \
                 errors={} first={:?} stream={:016x}",
                level_tag(level),
                cpu.cycles(),
                t.cycles,
                t.dhits,
                t.dmiss,
                state_digest(&cpu),
                t.errors.len(),
                t.errors.first().map_or("", String::as_str),
                errors.0,
            ));
        }
    }
    check(
        "faults",
        &rows,
        &[
        "io base fired=[3, 440, 5, 0] clock=164752 cycles=5681 d=596/19 state=0e3dd6f46801850e errors=5 first=\"mpn_sub_n n=33: at insn 22: out-of-range 4-byte access at address 0x20001030\" stream=0d1cf8c7341697aa",
        "io a2m1 fired=[9, 252, 11, 2] clock=102537 cycles=7839 d=439/42 state=abb683e78a3b7b89 errors=5 first=\"mpn_sub_n n=33: at insn 34: custom instruction `stur` failed: out-of-range 4-byte access at address 0x10001040\" stream=fcadaa83775caa08",
        "io a4m2 fired=[3, 234, 13, 1] clock=89502 cycles=5485 d=260/13 state=f6494d3f1d81814b errors=3 first=\"mpn_addmul_1 n=33: at insn 59: custom instruction `ldur` failed: out-of-range 4-byte access at address 0x401030\" stream=2abfa56c84041396",
        "io a8m4 fired=[10, 252, 12, 0] clock=102253 cycles=6593 d=538/9 state=97707936f5161c5a errors=3 first=\"mpn_mul_1 n=33: at insn 125: out-of-range 4-byte access at address 0x20001078\" stream=605f5a72b0eb6172",
        "io a16m4 fired=[3, 241, 7, 0] clock=89210 cycles=4948 d=276/6 state=b230784a1f8818a9 errors=3 first=\"mpn_mul_1 n=33: at insn 125: out-of-range 4-byte access at address 0x2000104c\" stream=39720be7637f7e0f",
        "ooo base fired=[3, 440, 5, 0] clock=59977 cycles=3020 d=596/19 state=0e3dd6f46801850e errors=5 first=\"mpn_sub_n n=33: at insn 22: out-of-range 4-byte access at address 0x20001030\" stream=0d1cf8c7341697aa",
        "ooo a2m1 fired=[9, 252, 11, 2] clock=35504 cycles=3795 d=439/42 state=abb683e78a3b7b89 errors=5 first=\"mpn_sub_n n=33: at insn 34: custom instruction `stur` failed: out-of-range 4-byte access at address 0x10001040\" stream=fcadaa83775caa08",
        "ooo a4m2 fired=[3, 234, 13, 1] clock=35498 cycles=2912 d=260/13 state=f6494d3f1d81814b errors=3 first=\"mpn_addmul_1 n=33: at insn 59: custom instruction `ldur` failed: out-of-range 4-byte access at address 0x401030\" stream=2abfa56c84041396",
        "ooo a8m4 fired=[10, 252, 12, 0] clock=35311 cycles=3375 d=538/9 state=97707936f5161c5a errors=3 first=\"mpn_mul_1 n=33: at insn 125: out-of-range 4-byte access at address 0x20001078\" stream=605f5a72b0eb6172",
        "ooo a16m4 fired=[3, 241, 7, 0] clock=35467 cycles=2675 d=276/6 state=b230784a1f8818a9 errors=3 first=\"mpn_mul_1 n=33: at insn 125: out-of-range 4-byte access at address 0x2000104c\" stream=39720be7637f7e0f",
        ],
    );
}

/// A short clean program that exercises both caches, run after each
/// error so the timing state the error left behind shows.
const CLEAN: &str = "main:
        movi a0, 0x100
        movi a1, 6
        movi a2, 0
    loop:
        lw   a3, a0, 0
        add  a2, a2, a3
        sw   a2, a0, 64
        addi a0, a0, 4
        addi a1, a1, -1
        movi a4, 0
        bne  a1, a4, loop
        halt";

#[test]
fn error_paths_pin_the_timing_state_they_leave() {
    let cases: [(&str, &str, bool, u64); 5] = [
        (
            "bad-load",
            "movi a0, 0x100\n lw a1, a0, 0\n movi a0, 0xfffffff0\n lw a1, a0, 0\n halt",
            true,
            1_000_000,
        ),
        (
            "unknown-custom",
            "movi a0, 0x100\n lw a1, a0, 0\n cust nosuch a1\n halt",
            true,
            1_000_000,
        ),
        (
            "out-of-fuel",
            "movi a0, 0x100\n spin: lw a1, a0, 0\n addi a0, a0, 4\n j spin",
            true,
            1_000,
        ),
        (
            "mul-without-option",
            "movi a0, 0x100\n lw a1, a0, 0\n mul a2, a1, a1\n halt",
            false,
            1_000_000,
        ),
        // The faulting load opens a new I-cache line, so the
        // out-of-order front end is ahead of its last commit.
        (
            "bad-load-after-fetch-miss",
            "movi a0, 0xfffffff0\n nop\n nop\n nop\n nop\n nop\n nop\n movi a2, 1\n \
             lw a1, a0, 0\n halt",
            true,
            1_000_000,
        ),
    ];
    let clean = assemble(CLEAN).unwrap();
    let mut rows = Vec::new();
    for core in ["io", "ooo"] {
        for (name, src, has_mul, fuel) in cases {
            let config = CpuConfig {
                has_mul,
                ..core_config(core)
            };
            let mut cpu = Cpu::new(config);
            cpu.mem_mut()
                .write_words(0x100, &[7, 11, 13, 17, 19, 23])
                .unwrap();
            cpu.set_fuel(fuel);
            let err = cpu.run(&assemble(src).unwrap()).unwrap_err();
            let after_error = cpu.cycles();
            let retired = cpu.retired();
            cpu.set_fuel(1_000_000);
            let s = cpu.run(&clean).unwrap();
            rows.push(format!(
                "{core} {name}: {err:?} clock={after_error} retired={retired} | clean cycles={} \
                 i={}/{} d={}/{} a2={}",
                s.cycles,
                s.icache.hits,
                s.icache.misses,
                s.dcache.hits,
                s.dcache.misses,
                cpu.reg(2),
            ));
        }
    }
    check(
        "errors",
        &rows,
        &[
        "io bad-load: Mem { pc: 3, source: AccessError { addr: 4294967280, width: 4, misaligned: false } } clock=64 retired=3 | clean cycles=102 i=45/1 d=11/1 a2=90",
        "io unknown-custom: Illegal { pc: 2, reason: \"unknown custom instruction `nosuch`\" } clock=44 retired=2 | clean cycles=102 i=45/1 d=11/1 a2=90",
        "io out-of-fuel: OutOfFuel { executed: 1000 } clock=2526 retired=1000 | clean cycles=82 i=45/1 d=12/0 a2=90",
        "io mul-without-option: Illegal { pc: 2, reason: \"mul requires the hardware-multiplier option\" } clock=44 retired=2 | clean cycles=102 i=45/1 d=11/1 a2=90",
        "io bad-load-after-fetch-miss: Mem { pc: 8, source: AccessError { addr: 4294967280, width: 4, misaligned: false } } clock=69 retired=8 | clean cycles=102 i=46/0 d=10/2 a2=90",
        "ooo bad-load: Mem { pc: 3, source: AccessError { addr: 4294967280, width: 4, misaligned: false } } clock=43 retired=3 | clean cycles=52 i=45/1 d=11/1 a2=90",
        "ooo unknown-custom: Illegal { pc: 2, reason: \"unknown custom instruction `nosuch`\" } clock=43 retired=2 | clean cycles=52 i=45/1 d=11/1 a2=90",
        "ooo out-of-fuel: OutOfFuel { executed: 1000 } clock=911 retired=1000 | clean cycles=52 i=45/1 d=12/0 a2=90",
        "ooo mul-without-option: Illegal { pc: 2, reason: \"mul requires the hardware-multiplier option\" } clock=43 retired=2 | clean cycles=52 i=45/1 d=11/1 a2=90",
        "ooo bad-load-after-fetch-miss: Mem { pc: 8, source: AccessError { addr: 4294967280, width: 4, misaligned: false } } clock=40 retired=8 | clean cycles=65 i=46/0 d=10/2 a2=90",
        ],
    );
}
