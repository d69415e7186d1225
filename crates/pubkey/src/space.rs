//! The modular-exponentiation algorithm design space (paper §4.3).
//!
//! "Over 450 candidate algorithms were considered for evaluation due to
//! the permutations arising from five modular multiplication algorithms,
//! five input block sizes, three Chinese Remainder Theorem
//! implementations, two radix sizes and three different software caching
//! options." This module enumerates exactly that lattice:
//! 5 × 5 × 3 × 2 × 3 = 450 configurations.

use core::fmt;

/// The modular-multiplication strategy (5 options).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum MulAlgo {
    /// Schoolbook product followed by a full division.
    MulDiv,
    /// Schoolbook product + Barrett reduction.
    Barrett,
    /// Montgomery (CIOS-style) multiplication.
    Montgomery,
    /// Karatsuba product followed by a full division.
    KaratsubaDiv,
    /// Karatsuba product + Barrett reduction.
    KaratsubaBarrett,
}

impl MulAlgo {
    /// All strategies.
    pub const ALL: [MulAlgo; 5] = [
        MulAlgo::MulDiv,
        MulAlgo::Barrett,
        MulAlgo::Montgomery,
        MulAlgo::KaratsubaDiv,
        MulAlgo::KaratsubaBarrett,
    ];
}

impl fmt::Display for MulAlgo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            MulAlgo::MulDiv => "muldiv",
            MulAlgo::Barrett => "barrett",
            MulAlgo::Montgomery => "montgomery",
            MulAlgo::KaratsubaDiv => "kara-div",
            MulAlgo::KaratsubaBarrett => "kara-barrett",
        };
        f.write_str(s)
    }
}

/// Chinese-Remainder-Theorem handling for RSA decryption (3 options).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum CrtMode {
    /// Single full-size exponentiation modulo `n`.
    None,
    /// Two half-size exponentiations; the recombination coefficient
    /// `q⁻¹ mod p` is recomputed on every call.
    Recompute,
    /// Two half-size exponentiations with the precomputed Garner
    /// coefficient stored in the key.
    Garner,
}

impl CrtMode {
    /// All CRT modes.
    pub const ALL: [CrtMode; 3] = [CrtMode::None, CrtMode::Recompute, CrtMode::Garner];
}

impl fmt::Display for CrtMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CrtMode::None => "no-crt",
            CrtMode::Recompute => "crt-recompute",
            CrtMode::Garner => "crt-garner",
        };
        f.write_str(s)
    }
}

/// Limb radix of the multi-precision representation (2 options).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Radix {
    /// 16-bit limbs: products fit a 32-bit word, so no wide multiply is
    /// needed — attractive on multiplier-less cores.
    R16,
    /// 32-bit limbs: half the iterations, needs a 32×32 multiplier.
    R32,
}

impl Radix {
    /// All radices.
    pub const ALL: [Radix; 2] = [Radix::R16, Radix::R32];
}

impl fmt::Display for Radix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Radix::R16 => f.write_str("r16"),
            Radix::R32 => f.write_str("r32"),
        }
    }
}

/// Software caching of derived per-key state (3 options).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum CacheMode {
    /// Recompute reduction constants (Barrett `mu`, Montgomery `R²`,
    /// `n0'`) on every exponentiation.
    None,
    /// Cache reduction constants per modulus (hash-table lookup).
    Context,
    /// Cache reduction constants *and* the window precomputation table
    /// per (base, modulus) pair.
    ContextAndTable,
}

impl CacheMode {
    /// All caching options.
    pub const ALL: [CacheMode; 3] = [
        CacheMode::None,
        CacheMode::Context,
        CacheMode::ContextAndTable,
    ];
}

impl fmt::Display for CacheMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CacheMode::None => "nocache",
            CacheMode::Context => "ctxcache",
            CacheMode::ContextAndTable => "fullcache",
        };
        f.write_str(s)
    }
}

/// One point in the modular-exponentiation design space.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ModExpConfig {
    /// Modular-multiplication strategy.
    pub mul: MulAlgo,
    /// Exponent window width in bits (1–5; the paper's "input block
    /// sizes").
    pub window: u32,
    /// CRT handling.
    pub crt: CrtMode,
    /// Limb radix.
    pub radix: Radix,
    /// Software caching option.
    pub cache: CacheMode,
}

impl ModExpConfig {
    /// Window widths explored (5 options).
    pub const WINDOWS: [u32; 5] = [1, 2, 3, 4, 5];

    /// Number of points in the [`ModExpConfig::enumerate`] lattice.
    pub const LATTICE_SIZE: usize = MulAlgo::ALL.len()
        * Self::WINDOWS.len()
        * CrtMode::ALL.len()
        * Radix::ALL.len()
        * CacheMode::ALL.len();

    /// A sensible default (and the baseline for Table 1's unoptimized
    /// software): schoolbook multiply + division, binary exponent
    /// scanning, no CRT, 32-bit limbs, no caching.
    pub fn baseline() -> Self {
        ModExpConfig {
            mul: MulAlgo::MulDiv,
            window: 1,
            crt: CrtMode::None,
            radix: Radix::R32,
            cache: CacheMode::None,
        }
    }

    /// The configuration the paper's exploration converges to for RSA
    /// decryption: Montgomery multiplication, 5-bit windows, Garner CRT,
    /// 32-bit limbs, cached contexts and tables.
    pub fn optimized() -> Self {
        ModExpConfig {
            mul: MulAlgo::Montgomery,
            window: 5,
            crt: CrtMode::Garner,
            radix: Radix::R32,
            cache: CacheMode::ContextAndTable,
        }
    }

    /// Enumerates the full 450-candidate lattice in a deterministic
    /// order.
    pub fn enumerate() -> Vec<ModExpConfig> {
        let mut out = Vec::with_capacity(Self::LATTICE_SIZE);
        for &mul in &MulAlgo::ALL {
            for &window in &Self::WINDOWS {
                for &crt in &CrtMode::ALL {
                    for &radix in &Radix::ALL {
                        for &cache in &CacheMode::ALL {
                            out.push(ModExpConfig {
                                mul,
                                window,
                                crt,
                                radix,
                                cache,
                            });
                        }
                    }
                }
            }
        }
        out
    }

    /// The part of this configuration that
    /// [`mod_exp`](crate::modexp::mod_exp) reads: multiplication
    /// strategy, window, radix and cache mode, with `crt` cleared to
    /// [`CrtMode::None`]. Only [`mod_exp_crt`](crate::modexp::mod_exp_crt)
    /// reads the CRT axis, so configurations with equal shapes cost the
    /// same on a plain `mod_exp` workload (150 distinct shapes in the
    /// 450-point lattice).
    pub fn modexp_shape(&self) -> ModExpConfig {
        ModExpConfig {
            crt: CrtMode::None,
            ..*self
        }
    }
}

impl ModExpConfig {
    /// Estimated persistent memory footprint in bytes of this
    /// configuration's software caches for a `bits`-bit modulus: the
    /// per-modulus reduction constants (Barrett `mu`, Montgomery `R²`
    /// and `n0'`) plus, under [`CacheMode::ContextAndTable`], the
    /// `2^(window-1)`-entry odd-power window table. CRT splits the work
    /// over two half-size moduli. Returns 0 when nothing is cached —
    /// the memory axis of the speed/space trade-off a [`ParetoFront`]
    /// ranks.
    pub fn table_bytes(&self, bits: usize) -> usize {
        if self.cache == CacheMode::None {
            return 0;
        }
        let moduli = match self.crt {
            CrtMode::None => 1,
            CrtMode::Recompute | CrtMode::Garner => 2,
        };
        let operand_bytes = match self.crt {
            CrtMode::None => bits.div_ceil(8),
            CrtMode::Recompute | CrtMode::Garner => (bits / 2).div_ceil(8),
        };
        let context = match self.mul {
            // Division-based reduction derives nothing reusable.
            MulAlgo::MulDiv | MulAlgo::KaratsubaDiv => 0,
            // Barrett caches mu (one word wider than the modulus).
            MulAlgo::Barrett | MulAlgo::KaratsubaBarrett => operand_bytes + 4,
            // Montgomery caches R² and the word-inverse n0'.
            MulAlgo::Montgomery => operand_bytes + 4,
        };
        let mut total = moduli * context;
        if self.cache == CacheMode::ContextAndTable {
            let entries = 1usize << (self.window.saturating_sub(1));
            total += moduli * entries * operand_bytes;
        }
        total
    }
}

impl fmt::Display for ModExpConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}/w{}/{}/{}/{}",
            self.mul, self.window, self.crt, self.radix, self.cache
        )
    }
}

/// One candidate surviving on the speed/space Pareto front.
#[derive(Debug, Clone)]
pub struct ParetoEntry {
    /// The configuration.
    pub config: ModExpConfig,
    /// Estimated workload cycles.
    pub cycles: f64,
    /// Persistent cache footprint in bytes
    /// ([`ModExpConfig::table_bytes`]).
    pub memory_bytes: usize,
}

/// The two-objective (cycles, memory) Pareto front over explored
/// design-space candidates: an entry survives iff no other offered
/// entry is at least as good on both axes and strictly better on one.
#[derive(Debug, Clone, Default)]
pub struct ParetoFront {
    entries: Vec<ParetoEntry>,
    offered: u64,
}

impl ParetoFront {
    /// An empty front.
    pub fn new() -> Self {
        Self::default()
    }

    /// Offers a candidate; returns `true` if it survives (is not
    /// dominated by any current survivor). Dominated incumbents are
    /// evicted.
    pub fn offer(&mut self, config: ModExpConfig, cycles: f64, memory_bytes: usize) -> bool {
        self.offered += 1;
        let dominated = self.entries.iter().any(|e| {
            e.cycles <= cycles
                && e.memory_bytes <= memory_bytes
                && (e.cycles < cycles || e.memory_bytes < memory_bytes)
        });
        if dominated {
            return false;
        }
        self.entries
            .retain(|e| e.cycles < cycles || e.memory_bytes < memory_bytes);
        self.entries.push(ParetoEntry {
            config,
            cycles,
            memory_bytes,
        });
        true
    }

    /// The surviving entries, sorted fastest-first.
    pub fn survivors(&self) -> Vec<ParetoEntry> {
        let mut out = self.entries.clone();
        out.sort_by(|a, b| a.cycles.total_cmp(&b.cycles));
        out
    }

    /// Number of survivors.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the front is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Candidates offered so far (exploration progress).
    pub fn offered(&self) -> u64 {
        self.offered
    }

    /// Publishes exploration progress into a metrics registry:
    /// `space.candidates_offered` and `space.pareto_survivors` gauges,
    /// plus a `space.pareto_memory_bytes` histogram over survivors.
    pub fn record_metrics(&self, metrics: &xobs::Registry) {
        metrics
            .gauge("space.candidates_offered")
            .set(self.offered as f64);
        metrics
            .gauge("space.pareto_survivors")
            .set(self.entries.len() as f64);
        let hist = metrics.histogram("space.pareto_memory_bytes");
        for e in &self.entries {
            hist.observe(e.memory_bytes as f64);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn lattice_has_450_distinct_points() {
        let all = ModExpConfig::enumerate();
        assert_eq!(all.len(), 450, "5 × 5 × 3 × 2 × 3");
        assert_eq!(all.len(), ModExpConfig::LATTICE_SIZE);
        let set: BTreeSet<_> = all.iter().collect();
        assert_eq!(set.len(), 450);
    }

    #[test]
    fn baseline_and_optimized_are_members() {
        let all = ModExpConfig::enumerate();
        assert!(all.contains(&ModExpConfig::baseline()));
        assert!(all.contains(&ModExpConfig::optimized()));
    }

    #[test]
    fn display_is_unique_per_config() {
        let all = ModExpConfig::enumerate();
        let names: BTreeSet<String> = all.iter().map(|c| c.to_string()).collect();
        assert_eq!(names.len(), 450);
    }

    #[test]
    fn table_bytes_tracks_caching_aggressiveness() {
        let none = ModExpConfig::baseline();
        assert_eq!(none.table_bytes(1024), 0);
        let ctx = ModExpConfig {
            cache: CacheMode::Context,
            mul: MulAlgo::Montgomery,
            ..ModExpConfig::baseline()
        };
        let full = ModExpConfig {
            cache: CacheMode::ContextAndTable,
            ..ctx
        };
        assert!(ctx.table_bytes(1024) > 0);
        assert!(full.table_bytes(1024) > ctx.table_bytes(1024));
        // Wider windows cost exponentially more table memory.
        let w5 = ModExpConfig { window: 5, ..full };
        let w2 = ModExpConfig { window: 2, ..full };
        assert!(w5.table_bytes(1024) > 4 * w2.table_bytes(1024) / 2);
    }

    #[test]
    fn pareto_front_keeps_only_nondominated() {
        let mut front = ParetoFront::new();
        let cfg = ModExpConfig::baseline;
        assert!(front.offer(cfg(), 100.0, 50));
        assert!(front.offer(cfg(), 80.0, 80)); // trades memory for speed
        assert!(!front.offer(cfg(), 120.0, 60)); // dominated by (100, 50)
        assert!(front.offer(cfg(), 90.0, 40)); // evicts (100, 50)
        assert_eq!(front.len(), 2);
        assert_eq!(front.offered(), 4);
        let s = front.survivors();
        assert_eq!(s[0].cycles, 80.0);
        assert_eq!(s[1].memory_bytes, 40);

        let reg = xobs::Registry::new();
        front.record_metrics(&reg);
        let snap = reg.snapshot();
        assert!(snap.get("space.pareto_survivors").is_some());
    }

    #[test]
    fn axis_sizes_match_paper() {
        assert_eq!(MulAlgo::ALL.len(), 5);
        assert_eq!(ModExpConfig::WINDOWS.len(), 5);
        assert_eq!(CrtMode::ALL.len(), 3);
        assert_eq!(Radix::ALL.len(), 2);
        assert_eq!(CacheMode::ALL.len(), 3);
    }
}
