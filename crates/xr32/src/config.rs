//! Processor configuration.
//!
//! Mirrors the configurability of the Xtensa base processor the paper
//! customizes: optional hardware multiplier, cache geometry, memory
//! latency, and the number/width of extension user registers.

pub use crate::cache::CacheConfig;

use crate::ext::ExtensionSet;
use crate::isa::Insn;
use crate::xcore::{CoreSpec, OooParams};

/// Configuration of an XR32 core.
///
/// The default corresponds to the paper's baseline platform: a 188 MHz
/// embedded core with 16 KiB 2-way I/D caches and a hardware multiplier,
/// before any custom-instruction extension.
///
/// # Examples
///
/// ```
/// use xr32::config::CpuConfig;
///
/// let cfg = CpuConfig {
///     has_mul: false, // smallest configuration: software multiply only
///     ..CpuConfig::default()
/// };
/// assert!(!cfg.has_mul);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CpuConfig {
    /// Hardware 32×32 multiplier option (`mul`/`mulhu` legal only when
    /// set).
    pub has_mul: bool,
    /// Multiplier result latency in cycles.
    pub mul_latency: u32,
    /// Instruction-cache geometry.
    pub icache: CacheConfig,
    /// Data-cache geometry.
    pub dcache: CacheConfig,
    /// Cycles added by a cache miss (main-memory access time).
    pub mem_latency: u32,
    /// Cycles added by a taken branch (pipeline refill).
    pub branch_penalty: u32,
    /// Data-memory size in bytes.
    pub mem_size: usize,
    /// Number of wide user registers available to custom instructions.
    pub user_regs: usize,
    /// Width of each user register in 32-bit words.
    pub user_reg_words: usize,
    /// Core clock frequency in Hz (used to convert cycles to time and
    /// throughput; the paper's prototype ran at 188 MHz).
    pub clock_hz: u64,
    /// Which pipeline model the core runs — the in-order baseline or an
    /// out-of-order family member (see [`crate::xcore`]). Part of the
    /// configuration's identity: mixed into [`CpuConfig::fingerprint`]
    /// and rendered by [`CpuConfig::core_id`].
    pub core: CoreSpec,
}

impl Default for CpuConfig {
    fn default() -> Self {
        CpuConfig {
            has_mul: true,
            mul_latency: 2,
            icache: CacheConfig {
                size_bytes: 16 * 1024,
                line_bytes: 32,
                ways: 2,
            },
            dcache: CacheConfig {
                size_bytes: 16 * 1024,
                line_bytes: 32,
                ways: 2,
            },
            mem_latency: 20,
            branch_penalty: 2,
            mem_size: 1 << 20,
            user_regs: 8,
            user_reg_words: 16, // up to 512-bit extension state
            clock_hz: 188_000_000,
            core: CoreSpec::InOrder,
        }
    }
}

impl CpuConfig {
    /// The baseline platform of the paper's Table 1 measurements
    /// (identical to `default()`).
    pub fn baseline() -> Self {
        Self::default()
    }

    /// An FNV-1a fingerprint over every configuration field, stamped
    /// into structured run reports so results from different core
    /// configurations are never silently compared.
    pub fn fingerprint(&self) -> u64 {
        const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut h = OFFSET;
        let mut mix = |v: u64| {
            for byte in v.to_le_bytes() {
                h ^= u64::from(byte);
                h = h.wrapping_mul(PRIME);
            }
        };
        mix(self.has_mul as u64);
        mix(self.mul_latency as u64);
        for c in [self.icache, self.dcache] {
            mix(c.size_bytes as u64);
            mix(c.line_bytes as u64);
            mix(c.ways as u64);
        }
        mix(self.mem_latency as u64);
        mix(self.branch_penalty as u64);
        mix(self.mem_size as u64);
        mix(self.user_regs as u64);
        mix(self.user_reg_words as u64);
        mix(self.clock_hz);
        match &self.core {
            CoreSpec::InOrder => mix(1),
            CoreSpec::OutOfOrder(p) => {
                mix(2);
                mix(p.issue_width as u64);
                mix(p.retire_width as u64);
                mix(p.rob_entries as u64);
                mix(p.rs_entries as u64);
                mix(p.lsq_entries as u64);
                mix(p.predictor_entries as u64);
            }
        }
        h
    }

    /// The short core-configuration identifier (`"io"`, `"ooo-…"`) this
    /// configuration's pipeline model carries into cache units, span
    /// attributes and report fields.
    pub fn core_id(&self) -> String {
        self.core.id()
    }

    /// The static scheduling cost model of this configuration — the
    /// same latencies the cycle-accurate core charges, packaged for
    /// compile-time consumers (the `xopt` list scheduler) that must
    /// reason about stalls without running the simulator.
    pub fn cost_model(&self) -> CostModel {
        CostModel {
            load_use_delay: 1,
            mul_result_delay: self.mul_latency.saturating_sub(1),
            branch_penalty: self.branch_penalty,
        }
    }

    /// The baseline platform with the default out-of-order pipeline
    /// model in place of the in-order one — the second point on the
    /// core axis of the cross-product design space.
    pub fn ooo() -> Self {
        CpuConfig {
            core: CoreSpec::OutOfOrder(OooParams::default()),
            ..Self::default()
        }
    }

    /// A minimal configuration without the multiplier option, for
    /// exploring the cheapest possible core.
    pub fn minimal() -> Self {
        CpuConfig {
            has_mul: false,
            icache: CacheConfig {
                size_bytes: 4 * 1024,
                line_bytes: 16,
                ways: 1,
            },
            dcache: CacheConfig {
                size_bytes: 4 * 1024,
                line_bytes: 16,
                ways: 1,
            },
            ..Self::default()
        }
    }
}

/// The in-order core's timing rules as pure data: how many cycles an
/// instruction occupies the issue slot and how late its result becomes
/// usable, mirroring [`crate::cpu`]'s per-register ready-time model
/// exactly. Static schedulers consult this instead of hard-coding the
/// pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CostModel {
    /// Extra cycles before a load's result is usable (a dependent
    /// instruction issued back-to-back stalls this long).
    pub load_use_delay: u32,
    /// Extra cycles before a `mul`/`mulhu` result is usable.
    pub mul_result_delay: u32,
    /// Cycles a taken branch adds (pipeline refill).
    pub branch_penalty: u32,
}

impl CostModel {
    /// Cycles the instruction occupies the issue slot, independent of
    /// operand readiness: 1 for every base instruction, the registered
    /// latency for a custom instruction (the core charges custom
    /// latency unconditionally — it cannot be hidden by scheduling).
    /// Unregistered custom instructions are priced at 1.
    pub fn issue_cycles(&self, insn: &Insn, ext: Option<&ExtensionSet>) -> u32 {
        match insn {
            Insn::Custom(op) => ext
                .and_then(|e| e.get(&op.name))
                .map(|def| def.latency)
                .unwrap_or(1),
            _ => 1,
        }
    }

    /// Extra cycles after issue before the instruction's general-
    /// register result may be consumed without stalling (cache hits
    /// assumed). Zero for instructions whose result is ready in the
    /// next slot.
    pub fn result_delay(&self, insn: &Insn) -> u32 {
        match insn {
            _ if insn.is_load() => self.load_use_delay,
            Insn::Mul(..) | Insn::Mulhu(..) => self.mul_result_delay,
            _ => 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_baseline() {
        assert_eq!(CpuConfig::default(), CpuConfig::baseline());
    }

    #[test]
    fn fingerprint_distinguishes_configs() {
        let base = CpuConfig::default();
        assert_eq!(base.fingerprint(), CpuConfig::baseline().fingerprint());
        assert_ne!(base.fingerprint(), CpuConfig::minimal().fingerprint());
        let tweaked = CpuConfig {
            branch_penalty: 3,
            ..CpuConfig::default()
        };
        assert_ne!(base.fingerprint(), tweaked.fingerprint());
    }

    #[test]
    fn fingerprint_distinguishes_core_models() {
        // Two configs identical except for the pipeline model must
        // never collide (the KCache identity contract).
        let io = CpuConfig::default();
        let ooo = CpuConfig::ooo();
        assert_ne!(io.fingerprint(), ooo.fingerprint());
        assert_eq!(io.core_id(), "io");
        assert!(ooo.core_id().starts_with("ooo-"));
        // And different widths within the out-of-order family differ.
        let narrow = CpuConfig {
            core: CoreSpec::OutOfOrder(OooParams {
                rob_entries: 8,
                ..OooParams::default()
            }),
            ..CpuConfig::default()
        };
        assert_ne!(ooo.fingerprint(), narrow.fingerprint());
    }

    #[test]
    fn minimal_is_smaller() {
        let min = CpuConfig::minimal();
        assert!(!min.has_mul);
        assert!(min.icache.size_bytes < CpuConfig::default().icache.size_bytes);
    }

    #[test]
    fn cost_model_mirrors_the_core_timing() {
        use crate::ext::CustomInsnDef;
        use crate::isa::{CustomOp, Reg};

        let cm = CpuConfig::default().cost_model();
        assert_eq!(cm.load_use_delay, 1);
        assert_eq!(cm.mul_result_delay, 1); // mul_latency 2 => 1 extra
        assert_eq!(cm.branch_penalty, 2);

        let lw = Insn::Lw(Reg::new(1), Reg::new(0), 0);
        let mul = Insn::Mul(Reg::new(1), Reg::new(2), Reg::new(3));
        let add = Insn::Add(Reg::new(1), Reg::new(2), Reg::new(3));
        assert_eq!(cm.result_delay(&lw), 1);
        assert_eq!(cm.result_delay(&mul), 1);
        assert_eq!(cm.result_delay(&add), 0);
        assert_eq!(cm.issue_cycles(&add, None), 1);

        let mut ext = ExtensionSet::new();
        ext.register(CustomInsnDef::new("mac4", 2, 0, |_, _| Ok(())));
        let cust = Insn::Custom(Box::new(CustomOp {
            name: "mac4".into(),
            regs: vec![],
            uregs: vec![],
            imm: 0,
        }));
        assert_eq!(cm.issue_cycles(&cust, Some(&ext)), 2);
        assert_eq!(cm.issue_cycles(&cust, None), 1);
    }
}
