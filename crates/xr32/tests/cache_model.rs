//! `Cache` against a reference model: the division-indexed
//! set-associative LRU cache it replaced, which stamps every access.
//! Over random power-of-two geometries and address streams with
//! same-line runs, interleaved `invalidate` and `reset`, both must agree
//! on every hit/miss result, every `invalidate` answer and `stats()`.

use proptest::prelude::*;
use xr32::cache::{Cache, CacheConfig, CacheStats};

/// The reference: line address by division, set by remainder, tag by
/// quotient; every access takes a fresh LRU stamp.
struct Reference {
    line_bytes: u64,
    sets: u64,
    ways: usize,
    /// `(tag, valid, lru)` per way, `sets * ways` slots.
    lines: Vec<(u64, bool, u64)>,
    stats: CacheStats,
    tick: u64,
}

impl Reference {
    fn new(config: CacheConfig) -> Self {
        let sets = config.size_bytes / config.line_bytes / config.ways;
        Reference {
            line_bytes: config.line_bytes as u64,
            sets: sets as u64,
            ways: config.ways,
            lines: vec![(0, false, 0); sets * config.ways],
            stats: CacheStats::default(),
            tick: 0,
        }
    }

    fn slot(&self, addr: u64) -> (usize, u64) {
        let line = addr / self.line_bytes;
        ((line % self.sets) as usize * self.ways, line / self.sets)
    }

    fn access(&mut self, addr: u64) -> bool {
        self.tick += 1;
        let (base, tag) = self.slot(addr);
        let set = &mut self.lines[base..base + self.ways];
        if let Some(l) = set.iter_mut().find(|l| l.1 && l.0 == tag) {
            l.2 = self.tick;
            self.stats.hits += 1;
            return true;
        }
        let victim = (0..self.ways)
            .min_by_key(|&i| if set[i].1 { set[i].2 } else { 0 })
            .expect("ways >= 1");
        set[victim] = (tag, true, self.tick);
        self.stats.misses += 1;
        false
    }

    fn invalidate(&mut self, addr: u64) -> bool {
        let (base, tag) = self.slot(addr);
        let set = &mut self.lines[base..base + self.ways];
        match set.iter_mut().find(|l| l.1 && l.0 == tag) {
            Some(l) => {
                l.1 = false;
                true
            }
            None => false,
        }
    }

    fn reset(&mut self) {
        self.lines.iter_mut().for_each(|l| l.1 = false);
        self.stats = CacheStats::default();
        self.tick = 0;
    }
}

/// One step of a stream. `addr` is masked into a window of four times
/// the capacity, so the stream both hits and conflicts.
fn step(cache: &mut Cache, model: &mut Reference, last: &mut u64, op: u8, addr: u64) {
    let config = cache.config();
    let addr = addr % (4 * config.size_bytes as u64);
    match op {
        // Plain access.
        0..=9 => {
            *last = addr;
            assert_eq!(cache.access(addr), model.access(addr), "access {addr:#x}");
        }
        // A run of same-line repeats (other bytes of the last line).
        10..=14 => {
            let line = *last - *last % config.line_bytes as u64;
            for k in 0..(op as u64 - 8) {
                let a = line + (addr + k) % config.line_bytes as u64;
                assert_eq!(cache.access(a), model.access(a), "repeat {a:#x}");
            }
        }
        // Invalidate the last line, then touch it again at once.
        15 | 16 => {
            assert_eq!(cache.invalidate(*last), model.invalidate(*last));
            if op == 16 {
                assert_eq!(cache.access(*last), model.access(*last), "refill");
            }
        }
        // Invalidate some other address.
        17 | 18 => assert_eq!(cache.invalidate(addr), model.invalidate(addr)),
        _ => {
            cache.reset();
            model.reset();
        }
    }
    assert_eq!(cache.stats(), model.stats);
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    #[test]
    fn cache_matches_the_division_reference(
        line_log in 2u32..=6,
        set_log in 0u32..=5,
        ways in 1usize..=4,
        stream in prop::collection::vec((0u8..20, any::<u32>()), 1..400),
    ) {
        let line_bytes = 1usize << line_log;
        let config = CacheConfig {
            size_bytes: (line_bytes * ways) << set_log,
            line_bytes,
            ways,
        };
        let mut cache = Cache::new(config);
        let mut model = Reference::new(config);
        let mut last = 0;
        for (op, addr) in stream {
            step(&mut cache, &mut model, &mut last, op, addr as u64);
        }
    }
}

#[test]
fn repeat_after_invalidate_of_that_line_misses() {
    let config = CacheConfig {
        size_bytes: 256,
        line_bytes: 16,
        ways: 2,
    };
    let mut cache = Cache::new(config);
    let mut model = Reference::new(config);
    let mut last = 0;
    for (op, addr) in [(0, 0x40), (12, 0), (15, 0), (10, 3), (16, 0), (11, 7)] {
        step(&mut cache, &mut model, &mut last, op, addr);
    }
    assert_eq!(cache.stats(), CacheStats { hits: 8, misses: 3 });
}

#[test]
#[should_panic(expected = "power of two")]
fn set_count_must_be_a_power_of_two() {
    // 6 lines in 2 ways: 3 sets.
    let _ = Cache::new(CacheConfig {
        size_bytes: 96,
        line_bytes: 16,
        ways: 2,
    });
}
