//! Set-associative cache model with LRU replacement.
//!
//! Both the instruction and data side of the XR32 timing model use this
//! cache. Only timing is modeled (hit/miss); data always comes from the
//! backing [`crate::mem::Memory`].

use xobs::trace::{CacheSide, TraceEvent, TraceSink};

/// Geometry of one cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: usize,
    /// Line size in bytes (power of two).
    pub line_bytes: usize,
    /// Associativity (1 = direct mapped).
    pub ways: usize,
}

impl CacheConfig {
    /// Number of sets implied by the geometry.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is inconsistent (zero sizes, non-power-of-
    /// two line size, capacity not divisible by `line_bytes * ways`, or
    /// a set count that is not a power of two — the cache indexes by
    /// shift and mask).
    pub fn sets(&self) -> usize {
        assert!(self.line_bytes.is_power_of_two() && self.line_bytes >= 4);
        assert!(self.ways >= 1);
        let lines = self.size_bytes / self.line_bytes;
        assert!(
            lines >= self.ways && lines.is_multiple_of(self.ways),
            "cache capacity must be a whole number of ways"
        );
        let sets = lines / self.ways;
        assert!(
            sets.is_power_of_two(),
            "cache set count must be a power of two"
        );
        sets
    }
}

/// Hit/miss statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Number of accesses that hit.
    pub hits: u64,
    /// Number of accesses that missed.
    pub misses: u64,
}

impl CacheStats {
    /// Total accesses.
    pub fn accesses(&self) -> u64 {
        self.hits + self.misses
    }

    /// Hit rate in `[0, 1]` (1.0 for an untouched cache).
    pub fn hit_rate(&self) -> f64 {
        if self.accesses() == 0 {
            1.0
        } else {
            self.hits as f64 / self.accesses() as f64
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct Line {
    tag: u64,
    valid: bool,
    lru: u64,
}

/// No remembered line: a line address is at most `u64::MAX >> 2`.
const NO_LINE: u64 = u64::MAX;

/// A set-associative LRU cache (timing model only).
///
/// An address splits into line address (`addr >> line_shift`), set
/// (`line & set_mask`) and tag (`line >> set_shift`). The line of the
/// previous access is remembered: a repeat access to it is a hit that
/// touches nothing but the hit counter. That is exact — the line
/// already holds the highest LRU stamp in its set, and stamps only
/// order lines within a set, so no later victim choice changes.
#[derive(Debug, Clone)]
pub struct Cache {
    config: CacheConfig,
    line_shift: u32,
    set_shift: u32,
    set_mask: u64,
    lines: Vec<Line>, // sets * ways
    stats: CacheStats,
    tick: u64,
    /// Line address of the previous access while that line is still
    /// resident, else [`NO_LINE`].
    last_line: u64,
}

impl Cache {
    /// Builds an empty cache with the given geometry.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is inconsistent (see
    /// [`CacheConfig::sets`]).
    pub fn new(config: CacheConfig) -> Self {
        let sets = config.sets();
        Cache {
            config,
            line_shift: config.line_bytes.trailing_zeros(),
            set_shift: sets.trailing_zeros(),
            set_mask: sets as u64 - 1,
            lines: vec![
                Line {
                    tag: 0,
                    valid: false,
                    lru: 0,
                };
                sets * config.ways
            ],
            stats: CacheStats::default(),
            tick: 0,
            last_line: NO_LINE,
        }
    }

    /// The cache geometry.
    pub fn config(&self) -> CacheConfig {
        self.config
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Resets contents and statistics.
    pub fn reset(&mut self) {
        for line in &mut self.lines {
            line.valid = false;
        }
        self.stats = CacheStats::default();
        self.tick = 0;
        self.last_line = NO_LINE;
    }

    /// The line address of `addr`, and the first slot and tag of its
    /// set.
    #[inline(always)]
    fn locate(&self, addr: u64) -> (u64, usize, u64) {
        let line_addr = addr >> self.line_shift;
        let set = (line_addr & self.set_mask) as usize;
        (
            line_addr,
            set * self.config.ways,
            line_addr >> self.set_shift,
        )
    }

    /// Performs one access; returns `true` on hit. A miss fills the line
    /// (allocate-on-miss for both reads and writes).
    #[inline]
    pub fn access(&mut self, addr: u64) -> bool {
        let (line_addr, base, tag) = self.locate(addr);
        if self.last_line == line_addr {
            self.stats.hits += 1;
            return true;
        }
        self.last_line = line_addr;
        self.tick += 1;
        let ways = self.config.ways;

        for i in 0..ways {
            let line = &mut self.lines[base + i];
            if line.valid && line.tag == tag {
                line.lru = self.tick;
                self.stats.hits += 1;
                return true;
            }
        }
        // Miss: replace the LRU (or first invalid) way.
        let victim = (0..ways)
            .min_by_key(|&i| {
                let l = &self.lines[base + i];
                if l.valid {
                    l.lru
                } else {
                    0
                }
            })
            .expect("ways >= 1");
        self.lines[base + victim] = Line {
            tag,
            valid: true,
            lru: self.tick,
        };
        self.stats.misses += 1;
        false
    }

    /// Invalidates the line holding `addr`, if resident, and returns
    /// whether a line was dropped. Models a corrupted tag: the next
    /// access to the address misses and refills. Statistics are not
    /// touched — this is a state change, not an access.
    pub fn invalidate(&mut self, addr: u64) -> bool {
        let (line_addr, base, tag) = self.locate(addr);
        if self.last_line == line_addr {
            self.last_line = NO_LINE;
        }
        for i in 0..self.config.ways {
            let line = &mut self.lines[base + i];
            if line.valid && line.tag == tag {
                line.valid = false;
                return true;
            }
        }
        false
    }

    /// Performs one access like [`Cache::access`], charging
    /// `miss_latency` extra cycles on a miss and emitting a
    /// [`TraceEvent::Cache`] stamped with the post-access cycle counter.
    /// Returns `(hit, cycle_after)`.
    pub fn access_traced(
        &mut self,
        addr: u64,
        side: CacheSide,
        cycle: u64,
        miss_latency: u32,
        sink: &mut dyn TraceSink,
    ) -> (bool, u64) {
        let hit = self.access(addr);
        let cycle = if hit {
            cycle
        } else {
            cycle + miss_latency as u64
        };
        sink.on_event(&TraceEvent::Cache {
            side,
            addr,
            hit,
            cycle,
        });
        (hit, cycle)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Cache {
        // 4 lines of 16 bytes, direct mapped.
        Cache::new(CacheConfig {
            size_bytes: 64,
            line_bytes: 16,
            ways: 1,
        })
    }

    #[test]
    fn geometry_computed() {
        let c = CacheConfig {
            size_bytes: 16 * 1024,
            line_bytes: 32,
            ways: 2,
        };
        assert_eq!(c.sets(), 256);
    }

    #[test]
    #[should_panic(expected = "whole number of ways")]
    fn inconsistent_geometry_panics() {
        let _ = CacheConfig {
            size_bytes: 48,
            line_bytes: 16,
            ways: 2,
        }
        .sets();
    }

    #[test]
    fn first_access_misses_second_hits() {
        let mut c = tiny();
        assert!(!c.access(0x100));
        assert!(c.access(0x100));
        assert!(c.access(0x10c)); // same 16-byte line
        assert_eq!(c.stats().hits, 2);
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn direct_mapped_conflict_evicts() {
        let mut c = tiny();
        // 4 sets of 16B: addresses 0x000 and 0x040 map to set 0.
        assert!(!c.access(0x000));
        assert!(!c.access(0x040));
        assert!(!c.access(0x000), "conflict should have evicted");
    }

    #[test]
    fn two_way_avoids_simple_conflict() {
        let mut c = Cache::new(CacheConfig {
            size_bytes: 128,
            line_bytes: 16,
            ways: 2,
        });
        assert!(!c.access(0x000));
        assert!(!c.access(0x040)); // same set, other way
        assert!(c.access(0x000));
        assert!(c.access(0x040));
    }

    #[test]
    fn lru_replacement_order() {
        let mut c = Cache::new(CacheConfig {
            size_bytes: 32,
            line_bytes: 16,
            ways: 2,
        });
        // One set, two ways.
        c.access(0x00); // A
        c.access(0x10); // B
        c.access(0x00); // A again (B becomes LRU)
        c.access(0x20); // C evicts B
        assert!(c.access(0x00), "A should still be resident");
        assert!(!c.access(0x10), "B was evicted");
    }

    #[test]
    fn reset_clears_state() {
        let mut c = tiny();
        c.access(0x0);
        c.reset();
        assert_eq!(c.stats(), CacheStats::default());
        assert!(!c.access(0x0));
    }

    #[test]
    fn hit_rate_of_fresh_cache_is_one() {
        assert_eq!(tiny().stats().hit_rate(), 1.0);
    }

    #[test]
    fn invalidate_forces_next_access_to_miss() {
        let mut c = tiny();
        c.access(0x100);
        assert!(c.access(0x100), "resident line hits");
        assert!(c.invalidate(0x100), "line was resident");
        assert!(!c.invalidate(0x100), "already gone");
        assert!(!c.access(0x100), "corrupted tag forces a refill");
        // Invalidation itself never counts as an access.
        assert_eq!(c.stats().accesses(), 3);
    }
}
