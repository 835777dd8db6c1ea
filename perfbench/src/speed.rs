//! The host-speed reference. On a shared host, co-tenants slow every
//! program by a factor that changes every few seconds and can hold for
//! minutes; on a 2-vCPU cloud VM the simulator ran up to ~1.7x slower
//! while a dependent multiply chain ran only ~1.2x slower, so no statistic
//! over one run removes it. A fixed kernel that, like the simulator, sorts,
//! hashes and scatters through cache- and memory-sized data slows down by
//! nearly the same factor. Timed right before and right after each
//! measured operation, it gives that factor, and host times divided by it
//! are seconds at the reference's nominal speed.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::BuildHasherDefault;
use std::hint::black_box;

/// Host seconds of one [`Reference::round`] at nominal speed: its fastest
/// over 300 rounds on a 2-vCPU Xeon (Sapphire Rapids) cloud VM, where the
/// median was 0.014 s.
pub const NOMINAL_ROUND_S: f64 = 0.010;

/// Keys sorted per round: 1 MiB of `u32`, the size of a core's L2.
const KEYS: usize = 1 << 18;
/// Keys counted in the hash map per round, and the distinct keys among them.
const HASHED: usize = 100_000;
const DISTINCT: u32 = 50_000;
/// Counters scattered into per round, 16 MiB of them (past the L2, into
/// the shared last-level cache and memory), and the increments per round.
const TABLE: usize = 1 << 22;
const SCATTERED: usize = 200_000;

/// The reference kernel with its fixed input.
pub struct Reference {
    keys: Vec<u32>,
    sorted: Vec<u32>,
    counts: HashMap<u32, u32, BuildHasherDefault<DefaultHasher>>,
    table: Vec<u32>,
}

impl Reference {
    pub fn new() -> Self {
        let mut x: u32 = 0x9e37_79b9;
        let keys = (0..KEYS)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 17;
                x ^= x << 5;
                x
            })
            .collect();
        Reference {
            keys,
            sorted: Vec::with_capacity(KEYS),
            counts: HashMap::default(),
            table: vec![0; TABLE],
        }
    }

    /// One round: sorts a copy of the keys, counts a prefix of them in a
    /// hash map and scatters increments into the counter table. The same
    /// work every time.
    pub fn round(&mut self) {
        self.sorted.clear();
        self.sorted.extend_from_slice(&self.keys);
        self.sorted.sort_unstable();
        self.counts.clear();
        for &k in &self.keys[..HASHED] {
            *self.counts.entry(k % DISTINCT).or_insert(0) += 1;
        }
        for &k in &self.keys[..SCATTERED] {
            let slot = &mut self.table[k as usize % TABLE];
            *slot = slot.wrapping_add(1);
        }
        black_box((&self.sorted, &self.counts, &self.table));
    }
}
