//! Per-SM access recording for the staged launch pipeline.
//!
//! The simulator's launch hot path used to probe the cache hierarchy inline
//! while each warp executed. To parallelize the per-SM work across host
//! threads *without changing a single output byte*, a launch is now split
//! into stages (see DESIGN.md "Host parallelism"):
//!
//! 1. **Record** (serial, canonical block-major order): warps execute
//!    functionally and append one [`AccessRec`] per global-memory
//!    instruction to their SM's [`SmQueue`], plus the SM index to a global
//!    order list. An access's word addresses are *sector-deduplicated* as
//!    they are pushed ([`SmQueue::push_word`]): walking the active lanes in
//!    order, a word is kept only when its 32-byte sector differs from the
//!    previously kept word's, so a coalesced warp records 4 words, not 32.
//! 2. **Coalesce** ([`SmQueue::coalesce`], parallel per SM): the recorded
//!    words become sorted, deduplicated 32-byte sector IDs. Records whose
//!    sectors already strictly increase (the common, coalesced case) are
//!    copied without a sort.
//! 3. **Residency** (serial, canonical order):
//!    [`crate::system::MemSystem::resolve_access`] replays UM migrations and
//!    zero-copy classification in exactly the order the inline path ran
//!    them.
//! 4. **L1 drain** ([`drain_l1`], parallel per SM): each SM's private L1 is
//!    probed over its own queue; sectors that miss are staged as [`L2Work`].
//! 5. **L2/DRAM drain** (serial, canonical order): the shared L2 is probed
//!    by walking the global order list with per-SM cursors.
//!
//! Stages touching only per-SM state (2, 4) parallelize freely; stages
//! touching shared state (3, 5) replay the canonical order, so every
//! counter, span, and sanitizer finding is byte-identical to the
//! single-threaded run.
//!
//! All buffers are flat arenas (`Vec`s of plain data indexed by ranges), so
//! the parallel stages allocate nothing after the first launch warms the
//! capacity.

use crate::cache::Cache;
use crate::coalesce::sector_of_word;
use crate::system::RegionId;

/// What a recorded access does to the cache hierarchy. Loads allocate in
/// L1; stores and atomics are write-through L2-allocate (Pascal global
/// stores bypass L1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PipeOp {
    Load,
    Store,
    Atomic,
}

/// One recorded global-memory instruction: an address range in the queue's
/// `addrs` arena (filled at record time) and a sector range in its
/// `sectors` arena (filled by [`SmQueue::coalesce`]).
#[derive(Debug, Clone, Copy)]
pub struct AccessRec {
    pub region: RegionId,
    pub op: PipeOp,
    /// Burst (pipelined) issue: cache clocks advance by the access's own
    /// insertions instead of the interleave-multiplied amount.
    pub burst: bool,
    /// Whether the access's worst sector latency is charged as warp stall
    /// (loads and the first non-empty burst group; stores/atomics charge
    /// constant costs at record time instead).
    pub charge: bool,
    pub addr_start: usize,
    pub addr_len: usize,
    pub sec_start: usize,
    pub sec_len: usize,
}

/// An access whose sectors missed L1 (or bypass it) and must visit the
/// shared L2 in canonical order. `worst_c` carries the L1-stage latency
/// floor so the final stall charge is `max(worst_c, worst_l2_dram)`.
#[derive(Debug, Clone, Copy)]
pub struct L2Work {
    /// Index of the owning [`AccessRec`] in the queue.
    pub rec: usize,
    /// Range into the queue's `l2q_sectors` arena.
    pub sec_start: usize,
    pub sec_len: usize,
    pub worst_c: u64,
}

/// Latency constants the L1 drain stage needs (a plain-data subset of the
/// GPU config, so eta-mem does not depend on eta-sim).
#[derive(Debug, Clone, Copy)]
pub struct L1DrainParams {
    pub l1_latency: u64,
    pub zero_copy_latency: u64,
    /// Co-resident warps per SM: the L1 interleave factor for non-burst
    /// accesses.
    pub interleave: u64,
}

/// The "no previous sector" state [`SmQueue::push_word`] starts each
/// access from (no word address maps to it).
pub const NO_SECTOR: u64 = u64::MAX;

/// One SM's recorded accesses and the per-SM results of the parallel
/// stages. Cleared (capacity kept) at the start of every launch.
#[derive(Debug, Default)]
pub struct SmQueue {
    /// Sector-deduplicated word addresses, one range per [`AccessRec`]: the
    /// active lanes' words in lane order (burst groups: lane-major, then
    /// row), minus each word whose sector equals the previous kept word's.
    /// The range covers exactly the sectors of all active lanes.
    pub addrs: Vec<u64>,
    pub recs: Vec<AccessRec>,
    /// Coalesced sector IDs, one range per [`AccessRec`].
    pub sectors: Vec<u64>,
    /// Per-sector zero-copy flags, parallel to `sectors` (filled by the
    /// serial residency stage).
    pub zc: Vec<bool>,
    /// Accesses with L2-bound sectors, in record order.
    pub l2q: Vec<L2Work>,
    /// Sectors bound for the shared L2, one range per [`L2Work`].
    pub l2q_sectors: Vec<u64>,
    /// Stall cycles charged by the L1 stage (accesses that never reach L2).
    pub stall: u64,
    pub l1_requests: u64,
    pub l1_hits: u64,
    /// Per-access coalescing scratch, reused so stage 2 never allocates.
    scratch: Vec<u64>,
}

impl SmQueue {
    /// Empties every arena, keeping capacity for the next launch.
    pub fn clear(&mut self) {
        self.addrs.clear();
        self.recs.clear();
        self.sectors.clear();
        self.zc.clear();
        self.l2q.clear();
        self.l2q_sectors.clear();
        self.stall = 0;
        self.l1_requests = 0;
        self.l1_hits = 0;
    }

    /// Appends one lane's word address to the access being recorded unless
    /// it falls in the same sector as the previously kept word. `last`
    /// carries that sector between calls; start each access at
    /// [`NO_SECTOR`].
    #[inline]
    pub fn push_word(&mut self, addr: u64, last: &mut u64) {
        let sector = sector_of_word(addr);
        if sector != *last {
            self.addrs.push(addr);
            *last = sector;
        }
    }

    /// Appends one access; `addr_start` marks where its addresses begin in
    /// `addrs` (the caller pushed them just before).
    pub fn commit(
        &mut self,
        region: RegionId,
        op: PipeOp,
        burst: bool,
        charge: bool,
        addr_start: usize,
    ) {
        self.recs.push(AccessRec {
            region,
            op,
            burst,
            charge,
            addr_start,
            addr_len: self.addrs.len() - addr_start,
            sec_start: 0,
            sec_len: 0,
        });
    }

    /// Stage 2: coalesces every access's recorded words into sorted,
    /// deduplicated sector IDs — the same map the inline path ran through
    /// [`crate::coalesce::sectors_for_warp`] (normal accesses) or its
    /// sort+dedup of `addr / 8` (burst groups). Sectors that already
    /// strictly increase are copied as they come; any other record is
    /// sorted and deduplicated. Per-SM state only, so launches run one
    /// call per SM concurrently.
    pub fn coalesce(&mut self) {
        self.sectors.clear();
        for rec in &mut self.recs {
            let addrs = &self.addrs[rec.addr_start..rec.addr_start + rec.addr_len];
            rec.sec_start = self.sectors.len();
            let mut next_min = 0u64;
            let mut sorted = true;
            for &a in addrs {
                let sector = sector_of_word(a);
                if sector < next_min {
                    sorted = false;
                    break;
                }
                self.sectors.push(sector);
                next_min = sector + 1;
            }
            if !sorted {
                self.sectors.truncate(rec.sec_start);
                self.scratch.clear();
                self.scratch
                    .extend(addrs.iter().map(|&a| sector_of_word(a)));
                self.scratch.sort_unstable();
                self.scratch.dedup();
                self.sectors.extend_from_slice(&self.scratch);
            }
            rec.sec_len = self.sectors.len() - rec.sec_start;
        }
        self.zc.clear();
        self.zc.resize(self.sectors.len(), false);
    }
}

/// Stage 4: replays one SM's queue against its private L1, exactly as the
/// inline path did — per access: zero-copy sectors skip the caches and
/// raise the latency floor; load sectors probe L1 and stage misses for L2;
/// store/atomic sectors bypass L1 entirely; then the L1 clock advances by
/// the access's insertions (interleave-multiplied unless burst).
///
/// Accesses with L2-bound sectors defer their stall charge to the serial
/// L2 drain (the final charge is `max(worst_c, worst_l2_dram)`); accesses
/// fully absorbed here charge `worst_c` into `queue.stall` directly.
pub fn drain_l1(queue: &mut SmQueue, l1: &mut Cache, p: &L1DrainParams) {
    for i in 0..queue.recs.len() {
        let rec = queue.recs[i];
        let mut worst_c = p.l1_latency;
        let mut l1_inserted = 0u64;
        let l2_start = queue.l2q_sectors.len();
        for k in rec.sec_start..rec.sec_start + rec.sec_len {
            let sec = queue.sectors[k];
            if queue.zc[k] {
                worst_c = worst_c.max(p.zero_copy_latency);
                continue;
            }
            match rec.op {
                PipeOp::Load => {
                    l1_inserted += 1;
                    queue.l1_requests += 1;
                    if l1.access(sec) {
                        queue.l1_hits += 1;
                    } else {
                        queue.l2q_sectors.push(sec);
                    }
                }
                PipeOp::Store | PipeOp::Atomic => {
                    queue.l2q_sectors.push(sec);
                }
            }
        }
        if rec.burst {
            l1.tick(l1_inserted);
        } else {
            l1.tick(p.interleave * l1_inserted);
        }
        let sec_len = queue.l2q_sectors.len() - l2_start;
        if sec_len > 0 {
            queue.l2q.push(L2Work {
                rec: i,
                sec_start: l2_start,
                sec_len,
                worst_c,
            });
        } else if rec.charge {
            queue.stall += worst_c;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::CacheConfig;
    use eta_fault::SplitMix64;

    fn queue_with(recs: &[(PipeOp, bool, bool, &[u64])]) -> SmQueue {
        let mut q = SmQueue::default();
        for &(op, burst, charge, addrs) in recs {
            let start = q.addrs.len();
            q.addrs.extend_from_slice(addrs);
            q.commit(0, op, burst, charge, start);
        }
        q.coalesce();
        q
    }

    #[test]
    fn coalesce_sorts_and_dedups_per_access() {
        let q = queue_with(&[
            (PipeOp::Load, false, true, &[80, 0, 80, 9, 8, 1, 200, 0]),
            (PipeOp::Store, false, false, &[17, 16]),
        ]);
        assert_eq!(q.recs[0].sec_len, 4);
        assert_eq!(&q.sectors[..4], &[0, 1, 10, 25]);
        assert_eq!(q.recs[1].sec_start, 4);
        assert_eq!(&q.sectors[4..], &[2]);
        assert_eq!(q.zc.len(), q.sectors.len());
    }

    /// Coalescing as it stood before records were sector-deduplicated:
    /// every active lane's word mapped to its sector, sorted, deduplicated.
    fn coalesce_sorted(words: &[u64]) -> Vec<u64> {
        let mut sectors: Vec<u64> = words.iter().map(|&a| sector_of_word(a)).collect();
        sectors.sort_unstable();
        sectors.dedup();
        sectors
    }

    /// Active-lane word lists: seeded random, strided, broadcast,
    /// descending, sparse-mask and SMP-burst (lane-major rows) patterns.
    fn lane_patterns() -> Vec<Vec<u64>> {
        let mut rng = SplitMix64(7);
        let mut out: Vec<Vec<u64>> = Vec::new();
        for stride in [0u64, 1, 2, 7, 8, 9, 33, 1024] {
            out.push((0..32).map(|l| 4096 + l * stride).collect());
        }
        out.push((0..32).rev().map(|l| l * 3).collect());
        for _ in 0..200 {
            let mask = rng.next_u64() as u32 & rng.next_u64() as u32;
            let spread = 1 + rng.next_u64() % 4096;
            let base = rng.next_u64() % (1 << 40);
            out.push(
                (0..32)
                    .filter(|l| (mask >> l) & 1 == 1)
                    .map(|_| base + rng.next_u64() % spread)
                    .collect(),
            );
            let mut burst = Vec::new();
            for _ in 0..(rng.next_u64() % 32) {
                let start = base + rng.next_u64() % spread;
                burst.extend(start..start + 1 + rng.next_u64() % 4);
            }
            out.push(burst);
        }
        out
    }

    #[test]
    fn deduplicated_records_coalesce_like_the_full_sort() {
        let patterns = lane_patterns();
        let mut q = SmQueue::default();
        for words in &patterns {
            let start = q.addrs.len();
            let mut last = NO_SECTOR;
            for &a in words {
                q.push_word(a, &mut last);
            }
            q.commit(0, PipeOp::Load, false, true, start);
        }
        q.coalesce();
        for (words, rec) in patterns.iter().zip(&q.recs) {
            let got = &q.sectors[rec.sec_start..rec.sec_start + rec.sec_len];
            assert_eq!(got, &coalesce_sorted(words)[..], "words {words:?}");
        }
        assert_eq!(q.zc.len(), q.sectors.len());
    }

    #[test]
    fn push_word_keeps_one_word_per_sector_run() {
        let mut q = SmQueue::default();
        let mut last = NO_SECTOR;
        for a in [0u64, 1, 7, 8, 9, 0, 16] {
            q.push_word(a, &mut last);
        }
        // 1 and 7 share 0's sector, 9 shares 8's; 0 again follows a new
        // sector so it is kept (coalesce deduplicates it).
        assert_eq!(q.addrs, [0, 8, 0, 16]);
    }

    #[test]
    fn drain_l1_splits_hits_from_l2_work() {
        let mut q = queue_with(&[
            (PipeOp::Load, false, true, &[0, 8]), // sectors 0, 1: cold misses
            (PipeOp::Load, false, true, &[0]),    // sector 0 again: L1 hit
            (PipeOp::Store, false, false, &[0]),  // stores bypass L1
        ]);
        let mut l1 = Cache::new(CacheConfig {
            size_bytes: 1024,
            line_bytes: 32,
            ways: 4,
            retention: 1024,
        });
        let p = L1DrainParams {
            l1_latency: 32,
            zero_copy_latency: 2_000,
            interleave: 2,
        };
        drain_l1(&mut q, &mut l1, &p);
        assert_eq!(q.l1_requests, 3);
        assert_eq!(q.l1_hits, 1);
        // Access 0 misses both sectors; access 1 hits and charges inline;
        // access 2 always stages its sector for L2.
        assert_eq!(q.l2q.len(), 2);
        assert_eq!((q.l2q[0].rec, q.l2q[0].sec_len), (0, 2));
        assert_eq!((q.l2q[1].rec, q.l2q[1].sec_len), (2, 1));
        assert_eq!(q.stall, 32, "the L1 hit charges its base latency");
    }

    #[test]
    fn zero_copy_sectors_skip_the_cache_and_raise_the_floor() {
        let mut q = queue_with(&[(PipeOp::Load, false, true, &[0, 8])]);
        q.zc[0] = true;
        q.zc[1] = true;
        let mut l1 = Cache::new(CacheConfig {
            size_bytes: 1024,
            line_bytes: 32,
            ways: 4,
            retention: 1024,
        });
        let p = L1DrainParams {
            l1_latency: 32,
            zero_copy_latency: 2_000,
            interleave: 2,
        };
        drain_l1(&mut q, &mut l1, &p);
        assert_eq!(q.l1_requests, 0);
        assert!(q.l2q.is_empty());
        assert_eq!(q.stall, 2_000);
        assert_eq!(l1.stats().accesses(), 0);
    }

    #[test]
    fn clear_keeps_capacity_and_zeroes_counters() {
        let mut q = queue_with(&[(PipeOp::Load, false, true, &[0, 8, 16])]);
        q.stall = 7;
        q.l1_requests = 3;
        let cap = q.addrs.capacity();
        q.clear();
        assert!(q.addrs.is_empty() && q.recs.is_empty() && q.sectors.is_empty());
        assert_eq!((q.stall, q.l1_requests, q.l1_hits), (0, 0, 0));
        assert_eq!(q.addrs.capacity(), cap);
    }
}
