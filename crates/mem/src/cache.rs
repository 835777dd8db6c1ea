//! Set-associative cache model with interleave-aware aging.
//!
//! # Why aging, not just LRU
//!
//! The simulator executes each warp to completion before the next one, but a
//! real SM interleaves tens of warps instruction by instruction. Running a
//! warp straight through would give it perfect temporal locality its hardware
//! counterpart never sees — and would erase the very effect Shared Memory
//! Prefetch exploits (keeping a vertex's neighbor sectors live across its K
//! loads).
//!
//! We recover interleaving pressure with a logical clock: every warp memory
//! instruction advances the owning cache's clock by the number of co-resident
//! warps (each of our instructions stands for that many device instructions
//! in the interleaved schedule, each inserting roughly one line). A cached
//! line older than the cache's `retention` (≈ its total line count) is
//! treated as evicted by that interleaved traffic. Burst accesses (SMP)
//! advance the clock by **one** per step instead, modelling the back-to-back
//! unrolled loads the paper generates — which is exactly why SMP preserves
//! sector reuse while the one-neighbor-at-a-time loop does not.

/// Configuration of one cache level.
#[derive(Debug, Clone, Copy)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: u64,
    /// Line (sector) size in bytes.
    pub line_bytes: u64,
    /// Associativity.
    pub ways: usize,
    /// Logical-clock ticks after which an untouched line counts as evicted
    /// by interleaved traffic from other warps/SMs.
    pub retention: u64,
}

impl CacheConfig {
    /// Lines held by the whole cache.
    pub fn lines(&self) -> u64 {
        self.size_bytes / self.line_bytes
    }

    /// Number of sets.
    pub fn sets(&self) -> usize {
        (self.lines() as usize / self.ways).max(1)
    }
}

/// Hit/miss counters for one cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    pub hits: u64,
    pub misses: u64,
}

impl CacheStats {
    pub fn accesses(&self) -> u64 {
        self.hits + self.misses
    }

    pub fn hit_rate(&self) -> f64 {
        if self.accesses() == 0 {
            0.0
        } else {
            self.hits as f64 / self.accesses() as f64
        }
    }

    pub fn merge(&mut self, other: &CacheStats) {
        self.hits += other.hits;
        self.misses += other.misses;
    }
}

/// One way: 16 bytes, so an L2 of 88k lines fits a 2 MiB host cache.
#[derive(Debug, Clone, Copy)]
struct Line {
    /// The resident line ID, or [`INVALID_TAG`] for an empty way.
    tag: u64,
    last_touch: u64,
}

/// The tag of an empty way. Line IDs are sector IDs (word address / 8), so
/// none reaches it.
const INVALID_TAG: u64 = u64::MAX;

const INVALID: Line = Line {
    tag: INVALID_TAG,
    last_touch: 0,
};

/// A set-associative cache keyed by line (sector) ID.
#[derive(Debug, Clone)]
pub struct Cache {
    cfg: CacheConfig,
    sets: usize,
    /// `sets * ways` lines, set-major.
    lines: Vec<Line>,
    clock: u64,
    stats: CacheStats,
}

impl Cache {
    pub fn new(cfg: CacheConfig) -> Self {
        assert!(cfg.ways >= 1, "cache needs at least one way");
        assert!(
            cfg.size_bytes >= cfg.line_bytes * cfg.ways as u64,
            "cache smaller than one set"
        );
        let sets = cfg.sets();
        Cache {
            cfg,
            sets,
            lines: vec![INVALID; sets * cfg.ways],
            clock: 0,
            stats: CacheStats::default(),
        }
    }

    pub fn config(&self) -> CacheConfig {
        self.cfg
    }

    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
    }

    /// Invalidates all contents (new kernel launch) without clearing stats.
    pub fn flush(&mut self) {
        self.lines.fill(INVALID);
    }

    /// Advances the interleaving clock by `ticks` logical instructions.
    pub fn tick(&mut self, ticks: u64) {
        self.clock += ticks;
    }

    pub fn clock(&self) -> u64 {
        self.clock
    }

    /// Probes the cache for `line_id` (a sector ID). Returns `true` on hit.
    ///
    /// On miss the line is installed, evicting the LRU way of its set. A
    /// resident line whose age exceeds `retention` counts as a miss: the
    /// interleaved traffic of co-resident warps is assumed to have evicted it.
    pub fn access(&mut self, line_id: u64) -> bool {
        debug_assert_ne!(
            line_id, INVALID_TAG,
            "line ID collides with the empty-way tag"
        );
        let set = (line_id as usize) % self.sets;
        let base = set * self.cfg.ways;
        let ways = &mut self.lines[base..base + self.cfg.ways];

        // Victim: the last empty way, else the first least-recent one.
        let mut victim = 0usize;
        let mut victim_touch = u64::MAX;
        for (w, line) in ways.iter_mut().enumerate() {
            if line.tag == line_id {
                let age = self.clock.saturating_sub(line.last_touch);
                line.last_touch = self.clock;
                if age <= self.cfg.retention {
                    self.stats.hits += 1;
                    return true;
                }
                // Aged out: treat as a miss but the refill reuses this way.
                self.stats.misses += 1;
                return false;
            }
            if line.tag == INVALID_TAG {
                victim = w;
                victim_touch = 0;
            } else if line.last_touch < victim_touch {
                victim = w;
                victim_touch = line.last_touch;
            }
        }
        self.stats.misses += 1;
        ways[victim] = Line {
            tag: line_id,
            last_touch: self.clock,
        };
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eta_fault::SplitMix64;

    fn small_cache(retention: u64) -> Cache {
        // 8 lines total, 2-way, 4 sets.
        Cache::new(CacheConfig {
            size_bytes: 8 * 32,
            line_bytes: 32,
            ways: 2,
            retention,
        })
    }

    #[test]
    fn repeat_access_hits() {
        let mut c = small_cache(u64::MAX);
        assert!(!c.access(5));
        assert!(c.access(5));
        assert!(c.access(5));
        assert_eq!(c.stats(), CacheStats { hits: 2, misses: 1 });
    }

    #[test]
    fn distinct_sets_do_not_conflict() {
        let mut c = small_cache(u64::MAX);
        for id in 0..4 {
            assert!(!c.access(id));
        }
        for id in 0..4 {
            assert!(c.access(id), "line {id} should still be resident");
        }
    }

    #[test]
    fn lru_eviction_within_set() {
        let mut c = small_cache(u64::MAX);
        // ids 0, 4, 8 all map to set 0 in a 4-set cache (2 ways).
        c.access(0);
        c.tick(1);
        c.access(4);
        c.tick(1);
        c.access(8); // evicts 0 (LRU)
        c.tick(1);
        assert!(!c.access(0), "0 must have been evicted");
        assert!(c.access(8), "8 was just inserted");
    }

    #[test]
    fn aging_converts_hits_to_misses() {
        let mut c = small_cache(10);
        c.access(7);
        c.tick(5);
        assert!(c.access(7), "age 5 <= retention 10");
        c.tick(11);
        assert!(!c.access(7), "age 11 > retention 10 counts as evicted");
        // The refill renews the line.
        assert!(c.access(7));
    }

    #[test]
    fn stats_identity_holds() {
        let mut c = small_cache(4);
        let ids = [0u64, 1, 2, 9, 0, 0, 1, 17, 3, 3];
        for (i, &id) in ids.iter().enumerate() {
            c.access(id);
            if i % 2 == 0 {
                c.tick(3);
            }
        }
        assert_eq!(c.stats().accesses(), ids.len() as u64);
    }

    #[test]
    fn flush_invalidates_but_keeps_stats() {
        let mut c = small_cache(u64::MAX);
        c.access(1);
        c.access(1);
        let before = c.stats();
        c.flush();
        assert!(!c.access(1));
        assert_eq!(c.stats().hits, before.hits);
        assert_eq!(c.stats().misses, before.misses + 1);
    }

    /// The cache as it stood with 24-byte lines (an explicit `valid` flag),
    /// kept as the oracle for the 16-byte-line model.
    struct LegacyCache {
        cfg: CacheConfig,
        sets: usize,
        lines: Vec<(u64, u64, bool)>,
        clock: u64,
        stats: CacheStats,
    }

    impl LegacyCache {
        fn new(cfg: CacheConfig) -> Self {
            LegacyCache {
                cfg,
                sets: cfg.sets(),
                lines: vec![(0, 0, false); cfg.sets() * cfg.ways],
                clock: 0,
                stats: CacheStats::default(),
            }
        }

        fn access(&mut self, line_id: u64) -> bool {
            let base = (line_id as usize % self.sets) * self.cfg.ways;
            let ways = &mut self.lines[base..base + self.cfg.ways];
            let mut victim = 0usize;
            let mut victim_touch = u64::MAX;
            for (w, line) in ways.iter_mut().enumerate() {
                let (tag, last_touch, valid) = *line;
                if valid && tag == line_id {
                    let age = self.clock.saturating_sub(last_touch);
                    line.1 = self.clock;
                    if age <= self.cfg.retention {
                        self.stats.hits += 1;
                        return true;
                    }
                    self.stats.misses += 1;
                    return false;
                }
                let touch = if valid { last_touch } else { 0 };
                if !valid {
                    victim = w;
                    victim_touch = 0;
                } else if touch < victim_touch {
                    victim = w;
                    victim_touch = touch;
                }
            }
            self.stats.misses += 1;
            ways[victim] = (line_id, self.clock, true);
            false
        }
    }

    #[test]
    fn matches_the_24_byte_line_model_on_seeded_streams() {
        // (lines, ways, retention): direct-mapped, non-power-of-two sets,
        // wide sets, and retentions that age out often or never.
        let shapes = [
            (8u64, 1usize, 4u64),
            (24, 2, 16),
            (48, 4, 40),
            (64, 8, 200),
            (96, 6, u64::MAX),
        ];
        for (seed, &(lines, ways, retention)) in shapes.iter().enumerate() {
            let cfg = CacheConfig {
                size_bytes: lines * 32,
                line_bytes: 32,
                ways,
                retention,
            };
            let mut new = Cache::new(cfg);
            let mut old = LegacyCache::new(cfg);
            let mut rng = SplitMix64(seed as u64 + 1);
            for step in 0..20_000 {
                let r = rng.next_u64();
                // A key space a few times the cache, with a hot subset.
                let id = if r.is_multiple_of(3) {
                    r % 8
                } else {
                    (r >> 8) % (lines * 3)
                };
                assert_eq!(
                    new.access(id),
                    old.access(id),
                    "shape {seed}, step {step}, line {id}"
                );
                let ticks = match r % 16 {
                    0 => retention.min(1 << 20) + 1,
                    1..=8 => r >> 60,
                    _ => 0,
                };
                new.tick(ticks);
                old.clock += ticks;
                if r.is_multiple_of(997) {
                    new.flush();
                    old.lines.fill((0, 0, false));
                }
            }
            assert_eq!(new.stats(), old.stats, "shape {seed}");
            assert!(old.stats.hits > 0 && old.stats.misses > 0);
        }
    }

    #[test]
    fn victim_is_the_last_empty_way_else_the_first_least_recent() {
        // One set of four ways.
        let mut c = Cache::new(CacheConfig {
            size_bytes: 4 * 32,
            line_bytes: 32,
            ways: 4,
            retention: u64::MAX,
        });
        c.access(10); // empty ways 0..4: fills way 3
        c.access(20); // fills way 2
        assert_eq!((c.lines[3].tag, c.lines[2].tag), (10, 20));
        c.access(30);
        c.access(40); // the set is full, every way touched at clock 0
        c.tick(1);
        c.access(50); // ties: the first least-recent way (way 0, line 40)
        assert_eq!(c.lines[0].tag, 50);
        assert!(c.access(30) && c.access(20) && c.access(10));
    }

    #[test]
    fn hit_rate_math() {
        let mut c = small_cache(u64::MAX);
        c.access(1);
        c.access(1);
        c.access(1);
        c.access(2);
        assert!((c.stats().hit_rate() - 0.5).abs() < 1e-12);
    }
}
