//! Warp-level execution context: the API kernels are written against.
//!
//! A kernel processes one warp per [`crate::kernel::Kernel::run`] call, with
//! explicit 32-lane register arrays and an active-lane mask — the same shape
//! CUDA kernels take after the SIMT transformation. Every global access goes
//! through the coalescer and the cache hierarchy, so divergence, scattered
//! access and reuse cost exactly what they would on hardware:
//!
//! * [`WarpCtx::load`] / [`WarpCtx::store`] — one warp instruction; the 32
//!   lane addresses coalesce into 32 B sector transactions.
//! * [`WarpCtx::load_burst`] — the Shared-Memory-Prefetch access shape: up to
//!   `K` back-to-back loads per lane with pipelined issue. Burst steps
//!   advance the cache-interleaving clock by one instead of the co-resident
//!   warp count, so sector reuse inside the burst survives — the mechanism
//!   behind the paper's Fig. 7.
//! * [`WarpCtx::atomic_add`] / [`WarpCtx::atomic_min`] — lane-serialized
//!   read-modify-write at L2, used for active-set appends and label
//!   relaxation.
//! * [`WarpCtx::load_shared`] / [`WarpCtx::store_shared`] — block-shared
//!   scratchpad at L1 speed with no global traffic.

use crate::config::{GpuConfig, WARP_SIZE};
use crate::metrics::KernelMetrics;
use crate::sanitizer::{AccessKind, Sanitizer};
use eta_mem::access::{PipeOp, SmQueue, NO_SECTOR};
use eta_mem::cache::Cache;
use eta_mem::coalesce::{sector_of_word, sectors_for_warp};
use eta_mem::system::{DSlice, MemSystem, RegionKind};
use eta_mem::Ns;

/// Per-lane register file slice: one `u32` per lane.
pub type Lanes = [u32; WARP_SIZE];

/// A fully-active warp mask.
pub const FULL_MASK: u32 = u32::MAX;

/// Identity of a warp within a launch.
#[derive(Debug, Clone, Copy)]
pub struct WarpId {
    pub block: u32,
    pub warp_in_block: u32,
    pub threads_per_block: u32,
    pub grid_blocks: u32,
}

/// Where a warp's global accesses go: straight into the cache hierarchy
/// (the classic inline path, kept for direct `WarpCtx` users), or into the
/// owning SM's record queue for the staged launch pipeline (see
/// [`eta_mem::access`]).
enum Route<'a> {
    Direct {
        l1: &'a mut Cache,
        l2: &'a mut Cache,
    },
    Record {
        sm: u32,
        queue: &'a mut SmQueue,
        /// Global record order: one SM index per recorded access, shared by
        /// every warp of the launch. The serial residency and L2 stages
        /// replay it to keep shared-state evolution byte-identical to the
        /// inline path.
        order: &'a mut Vec<u32>,
    },
}

/// Mutable execution state for one warp.
pub struct WarpCtx<'a> {
    pub cfg: &'a GpuConfig,
    pub mem: &'a mut MemSystem,
    route: Route<'a>,
    shared: &'a mut [u32],
    id: WarpId,
    /// Co-resident warps on this SM: the L1 cache-interleaving factor.
    interleave: u64,
    /// Concurrent warps device-wide: the L2 cache-interleaving factor.
    l2_interleave: u64,
    /// Kernel start time (used to timestamp UM faults).
    start_ns: Ns,
    /// Warp instruction count (this warp).
    instructions: u64,
    /// Raw memory stall cycles (this warp).
    stall: u64,
    shared_accesses: u64,
    shared_bank_conflicts: u64,
    /// Active lanes over lane-maskable instructions (divergence numerator).
    lane_ops: u64,
    /// 32 × lane-maskable instructions issued (divergence denominator).
    lane_slots: u64,
    atomics: u64,
    l1_requests: u64,
    l1_hits: u64,
    l2_read_requests: u64,
    l2_read_hits: u64,
    dram_read_transactions: u64,
    dram_write_transactions: u64,
    data_ready_ns: Ns,
    sector_scratch: Vec<u64>,
    /// Sanitizer sink; `None` unless the device was built with one attached.
    san: Option<&'a mut Sanitizer>,
}

impl<'a> WarpCtx<'a> {
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        cfg: &'a GpuConfig,
        mem: &'a mut MemSystem,
        l1: &'a mut Cache,
        l2: &'a mut Cache,
        shared: &'a mut [u32],
        id: WarpId,
        interleave: u64,
        l2_interleave: u64,
        start_ns: Ns,
        san: Option<&'a mut Sanitizer>,
    ) -> Self {
        Self::with_route(
            cfg,
            mem,
            Route::Direct { l1, l2 },
            shared,
            id,
            interleave,
            l2_interleave,
            start_ns,
            san,
        )
    }

    /// Builds a warp context in record mode for the staged launch pipeline:
    /// global accesses append to `queue` (this SM's arena) and `order` (the
    /// launch-wide canonical order) instead of probing the caches inline.
    #[allow(clippy::too_many_arguments)]
    pub fn new_recording(
        cfg: &'a GpuConfig,
        mem: &'a mut MemSystem,
        sm: u32,
        queue: &'a mut SmQueue,
        order: &'a mut Vec<u32>,
        shared: &'a mut [u32],
        id: WarpId,
        interleave: u64,
        l2_interleave: u64,
        start_ns: Ns,
        san: Option<&'a mut Sanitizer>,
    ) -> Self {
        Self::with_route(
            cfg,
            mem,
            Route::Record { sm, queue, order },
            shared,
            id,
            interleave,
            l2_interleave,
            start_ns,
            san,
        )
    }

    #[allow(clippy::too_many_arguments)]
    fn with_route(
        cfg: &'a GpuConfig,
        mem: &'a mut MemSystem,
        route: Route<'a>,
        shared: &'a mut [u32],
        id: WarpId,
        interleave: u64,
        l2_interleave: u64,
        start_ns: Ns,
        san: Option<&'a mut Sanitizer>,
    ) -> Self {
        WarpCtx {
            cfg,
            mem,
            route,
            shared,
            id,
            interleave: interleave.max(1),
            l2_interleave: l2_interleave.max(1),
            start_ns,
            instructions: 0,
            stall: 0,
            shared_accesses: 0,
            shared_bank_conflicts: 0,
            lane_ops: 0,
            lane_slots: 0,
            atomics: 0,
            l1_requests: 0,
            l1_hits: 0,
            l2_read_requests: 0,
            l2_read_hits: 0,
            dram_read_transactions: 0,
            dram_write_transactions: 0,
            data_ready_ns: start_ns,
            sector_scratch: Vec::with_capacity(WARP_SIZE),
            san,
        }
    }

    // ---- identity --------------------------------------------------------

    pub fn id(&self) -> WarpId {
        self.id
    }

    /// Global thread ID of each lane.
    pub fn thread_ids(&self) -> Lanes {
        let base = self.id.block * self.id.threads_per_block + self.id.warp_in_block * 32;
        let mut out = [0u32; WARP_SIZE];
        for (lane, slot) in out.iter_mut().enumerate() {
            *slot = base + lane as u32;
        }
        out
    }

    /// Mask of lanes whose global thread ID is below `n_items`.
    pub fn mask_for_items(&self, n_items: u32) -> u32 {
        let ids = self.thread_ids();
        let mut mask = 0u32;
        for (lane, &id) in ids.iter().enumerate() {
            if id < n_items {
                mask |= 1 << lane;
            }
        }
        mask
    }

    // ---- accounting ------------------------------------------------------

    /// Charges `n` ALU warp instructions (address math, compares, ...).
    /// ALU work carries no lane mask in this API, so it counts fully
    /// active — divergence is measured on the masked memory path.
    pub fn alu(&mut self, n: u64) {
        self.instructions += n;
        self.lane_ops += n * WARP_SIZE as u64;
        self.lane_slots += n * WARP_SIZE as u64;
    }

    /// Tallies one lane-maskable instruction's active lanes into the
    /// warp-execution-efficiency counters.
    #[inline]
    fn count_lanes(&mut self, active: u32) {
        self.lane_ops += active as u64;
        self.lane_slots += WARP_SIZE as u64;
    }

    /// Drains this warp's counters into launch-level accumulators.
    /// Returns `(instructions, stall_cycles)` for per-SM aggregation.
    pub fn finish(self, metrics: &mut KernelMetrics) -> (u64, u64) {
        metrics.instructions += self.instructions;
        metrics.mem_stall_cycles += self.stall;
        metrics.shared_accesses += self.shared_accesses;
        metrics.shared_bank_conflicts += self.shared_bank_conflicts;
        metrics.lane_ops += self.lane_ops;
        metrics.lane_slots += self.lane_slots;
        metrics.atomics += self.atomics;
        metrics.l1_requests += self.l1_requests;
        metrics.l1.hits += self.l1_hits;
        metrics.l1.misses += self.l1_requests - self.l1_hits;
        metrics.l2_requests += self.l2_read_requests;
        metrics.l2.hits += self.l2_read_hits;
        metrics.l2.misses += self.l2_read_requests - self.l2_read_hits;
        metrics.dram_transactions += self.dram_read_transactions;
        metrics.dram_write_transactions += self.dram_write_transactions;
        metrics.warps += 1;
        metrics.data_ready_ns = metrics.data_ready_ns.max(self.data_ready_ns);
        (self.instructions, self.stall)
    }

    // ---- global memory ---------------------------------------------------

    /// Resolves active lanes' element indices to word addresses, coalesces
    /// them and runs the cache/UM pipeline. Returns the effective lane mask
    /// (the sanitizer drops out-of-bounds lanes, report-and-continue, where
    /// `DSlice::addr` would otherwise panic) and the worst sector latency.
    fn access(
        &mut self,
        s: DSlice,
        idx: &Lanes,
        mask: u32,
        op: AccessOp,
        burst: bool,
    ) -> (u32, u64) {
        let mask = match self.san.as_deref_mut() {
            Some(san) => san.pre_access(self.id, s, idx, mask),
            None => mask,
        };
        self.count_lanes(mask.count_ones());
        if let Route::Record { sm, queue, order } = &mut self.route {
            // Record mode appends sector-deduplicated word addresses to the
            // SM's queue; stage 2 of the pipeline turns them into sorted
            // sectors later, off the serial critical path.
            let addr_start = queue.addrs.len();
            let mut last = NO_SECTOR;
            for lane in lanes(mask) {
                queue.push_word(s.addr(idx[lane] as u64), &mut last);
            }
            if let Some(san) = self.san.as_deref_mut() {
                // The deduplicated words cover the same sectors as all lanes.
                sectors_for_warp(
                    &queue.addrs[addr_start..],
                    FULL_MASK,
                    &mut self.sector_scratch,
                );
                let sectors = self.sector_scratch.len() as u64;
                san.global_access(self.id, op.kind(), s, idx, mask, sectors, self.mem);
            }
            // No active lane coalesces to no sectors: nothing to record.
            // Loads charge their worst sector latency once it is known (the
            // L1/L2 drain stages); stores and atomics charge constant costs
            // at the call sites below, so their records charge nothing.
            if mask != 0 {
                let charge = matches!(op, AccessOp::Load);
                queue.commit(s.region, op.pipe(), burst, charge, addr_start);
                order.push(*sm);
            }
            return (mask, 0);
        }
        let mut addrs = [0u64; WARP_SIZE];
        for lane in lanes(mask) {
            addrs[lane] = s.addr(idx[lane] as u64);
        }
        sectors_for_warp(&addrs, mask, &mut self.sector_scratch);
        if let Some(san) = self.san.as_deref_mut() {
            let sectors = self.sector_scratch.len() as u64;
            san.global_access(self.id, op.kind(), s, idx, mask, sectors, self.mem);
        }
        if mask == 0 {
            return (mask, 0);
        }
        let worst = self.probe_scratch_sectors(s, op, burst);
        (mask, worst)
    }

    /// Runs the UM/cache pipeline over the sectors currently in
    /// `sector_scratch` (sorted, deduplicated). Returns the worst latency.
    /// Direct-route only — record mode defers all of this to the staged
    /// pipeline.
    fn probe_scratch_sectors(&mut self, s: DSlice, op: AccessOp, burst: bool) -> u64 {
        let arrival = self
            .mem
            .ensure_resident(s.region, &self.sector_scratch, self.start_ns);
        self.data_ready_ns = self.data_ready_ns.max(arrival);
        let all_zero_copy = matches!(self.mem.region_kind(s.region), RegionKind::ZeroCopy);
        // Unified regions under the adaptive policy serve some page groups
        // zero-copy; the per-sector check is skipped entirely otherwise so
        // the static modes keep their flat fast path.
        let adaptive = !all_zero_copy && self.mem.region_is_adaptive(s.region);

        let mut worst = self.cfg.l1_latency;
        let mut l1_inserted = 0u64; // load sectors (only loads allocate in L1)
        let mut l2_inserted = 0u64; // sectors that reached L2
        let Route::Direct { l1, l2 } = &mut self.route else {
            return worst;
        };
        for &sec in &self.sector_scratch {
            if all_zero_copy || (adaptive && self.mem.sector_zero_copy(s.region, sec)) {
                worst = worst.max(self.cfg.zero_copy_latency);
                continue;
            }
            match op {
                AccessOp::Load => {
                    l1_inserted += 1;
                    self.l1_requests += 1;
                    if l1.access(sec) {
                        self.l1_hits += 1;
                        // L1 hit: base latency already covers it.
                    } else {
                        l2_inserted += 1;
                        self.l2_read_requests += 1;
                        if l2.access(sec) {
                            self.l2_read_hits += 1;
                            worst = worst.max(self.cfg.l2_latency);
                        } else {
                            self.dram_read_transactions += 1;
                            worst = worst.max(self.cfg.dram_latency);
                        }
                    }
                }
                AccessOp::Store | AccessOp::Atomic => {
                    // Write-through, L2-allocate; no L1 allocation (Pascal
                    // global stores bypass L1).
                    l2_inserted += 1;
                    if !l2.access(sec) {
                        self.dram_write_transactions += 1;
                    }
                }
            }
        }
        // Advance the interleaving clocks by the lines this instruction
        // inserted into each level — the unit the retention model is
        // calibrated in. A normal instruction stands for `interleave`
        // instructions of the round-robin schedule (each co-resident warp
        // inserting a similar amount); burst rows run back to back with
        // nothing interleaved, so they advance by their own insertions only.
        if burst {
            l1.tick(l1_inserted);
            l2.tick(l2_inserted);
        } else {
            l1.tick(self.interleave * l1_inserted);
            // The L2 absorbs traffic from every SM concurrently.
            l2.tick(self.l2_interleave * l2_inserted);
        }
        worst
    }

    /// One warp load instruction: `out[lane] = s[idx[lane]]` for active lanes.
    pub fn load(&mut self, s: DSlice, idx: &Lanes, mask: u32) -> Lanes {
        self.instructions += 1;
        let (mask, worst) = self.access(s, idx, mask, AccessOp::Load, false);
        self.stall += worst;
        let mut out = [0u32; WARP_SIZE];
        for lane in 0..WARP_SIZE {
            if (mask >> lane) & 1 == 1 {
                out[lane] = self.mem.word(s.addr(idx[lane] as u64));
            }
        }
        out
    }

    /// One warp store instruction: `s[idx[lane]] = vals[lane]`.
    pub fn store(&mut self, s: DSlice, idx: &Lanes, vals: &Lanes, mask: u32) {
        self.instructions += 1;
        let (mask, _) = self.access(s, idx, mask, AccessOp::Store, false);
        // Stores retire through the write queue; charge issue cost only.
        self.stall += self.cfg.burst_issue;
        for lane in 0..WARP_SIZE {
            if (mask >> lane) & 1 == 1 {
                self.mem.set_word(s.addr(idx[lane] as u64), vals[lane]);
            }
        }
    }

    /// Elements one vectorized burst instruction covers per lane (an
    /// `LDG.128` on hardware: four consecutive `u32`s).
    pub const BURST_VEC: u32 = 4;

    /// Burst load: each active lane reads `count[lane]` consecutive elements
    /// starting at `start[lane]` — the unrolled Shared-Memory-Prefetch
    /// access shape. Row `r` of the result holds each lane's `r`-th element
    /// (0 where `r >= count[lane]`).
    ///
    /// Because the unrolled loop makes per-lane addresses consecutive and
    /// statically known, the compiler emits **vectorized** 16-byte loads:
    /// each instruction covers [`Self::BURST_VEC`] rows, so a K-element
    /// prefetch issues `K/4` load transactions' worth of sector requests
    /// instead of `K` — the "global memory read transactions" reduction of
    /// the paper's Fig. 7. Groups issue back to back: the first pays its
    /// miss latency, later ones the pipelined issue cost, and the
    /// interleaving clock advances only by the burst's own insertions so
    /// sector reuse inside the burst survives.
    pub fn load_burst(&mut self, s: DSlice, start: &Lanes, count: &Lanes, mask: u32) -> Vec<Lanes> {
        let mask = match self.san.as_deref_mut() {
            Some(san) => {
                let ok = san.pre_burst(self.id, s, start, count, mask);
                san.burst_access(self.id, s, start, count, ok, self.mem);
                ok
            }
            None => mask,
        };
        let rows = lanes(mask).map(|l| count[l]).max().unwrap_or(0);
        let mut out = vec![[0u32; WARP_SIZE]; rows as usize];
        let mut group_start = 0u32;
        let mut first_group = true;
        while group_start < rows {
            let group_end = (group_start + Self::BURST_VEC).min(rows);
            // One vectorized instruction: coalesce every active (lane, row)
            // address in the group together.
            self.instructions += 1;
            let active = lanes(mask).filter(|&l| count[l] > group_start).count() as u32;
            self.count_lanes(active);
            let any = if let Route::Record { sm, queue, order } = &mut self.route {
                // Record mode keeps sector-deduplicated word addresses
                // (stage 2 coalesces them later).
                let addr_start = queue.addrs.len();
                let mut last = NO_SECTOR;
                for lane in lanes(mask) {
                    for r in group_start..group_end.min(count[lane]) {
                        let addr = s.addr((start[lane] + r) as u64);
                        queue.push_word(addr, &mut last);
                        out[r as usize][lane] = self.mem.word(addr);
                    }
                }
                let any = queue.addrs.len() > addr_start;
                if any {
                    // The first non-empty group charges its worst sector
                    // latency once the drain stages know it.
                    queue.commit(s.region, PipeOp::Load, true, first_group, addr_start);
                    order.push(*sm);
                }
                any
            } else {
                self.sector_scratch.clear();
                for lane in lanes(mask) {
                    for r in group_start..group_end.min(count[lane]) {
                        let addr = s.addr((start[lane] + r) as u64);
                        self.sector_scratch.push(sector_of_word(addr));
                        out[r as usize][lane] = self.mem.word(addr);
                    }
                }
                self.sector_scratch.sort_unstable();
                self.sector_scratch.dedup();
                let any = !self.sector_scratch.is_empty();
                if any {
                    let worst = self.probe_scratch_sectors(s, AccessOp::Load, true);
                    if first_group {
                        self.stall += worst;
                    }
                }
                any
            };
            // Later non-empty groups pay the pipelined issue cost.
            if any {
                if first_group {
                    first_group = false;
                } else {
                    self.stall += self.cfg.burst_issue;
                }
            }
            group_start = group_end;
        }
        out
    }

    /// Lane-serialized atomic add at L2: returns each lane's old value.
    /// Lanes apply in lane order, so same-address adds see prior lanes.
    pub fn atomic_add(&mut self, s: DSlice, idx: &Lanes, delta: &Lanes, mask: u32) -> Lanes {
        self.instructions += 1;
        let (mask, _) = self.access(s, idx, mask, AccessOp::Atomic, false);
        let active = mask.count_ones() as u64;
        self.stall += self.cfg.l2_latency + active * self.cfg.atomic_serialize;
        self.atomics += active;
        let mut out = [0u32; WARP_SIZE];
        for lane in 0..WARP_SIZE {
            if (mask >> lane) & 1 == 1 {
                let addr = s.addr(idx[lane] as u64);
                let old = self.mem.word(addr);
                out[lane] = old;
                self.mem.set_word(addr, old.wrapping_add(delta[lane]));
            }
        }
        out
    }

    /// Lane-serialized atomic min at L2: returns each lane's old value.
    pub fn atomic_min(&mut self, s: DSlice, idx: &Lanes, val: &Lanes, mask: u32) -> Lanes {
        self.instructions += 1;
        let (mask, _) = self.access(s, idx, mask, AccessOp::Atomic, false);
        let active = mask.count_ones() as u64;
        self.stall += self.cfg.l2_latency + active * self.cfg.atomic_serialize;
        self.atomics += active;
        let mut out = [0u32; WARP_SIZE];
        for lane in 0..WARP_SIZE {
            if (mask >> lane) & 1 == 1 {
                let addr = s.addr(idx[lane] as u64);
                let old = self.mem.word(addr);
                out[lane] = old;
                if val[lane] < old {
                    self.mem.set_word(addr, val[lane]);
                }
            }
        }
        out
    }

    /// Lane-serialized atomic OR at L2 (`atomicOr`) — the primitive behind
    /// bitmask frontiers (iBFS-style concurrent traversals). Returns old
    /// values; lanes apply in lane order.
    pub fn atomic_or(&mut self, s: DSlice, idx: &Lanes, val: &Lanes, mask: u32) -> Lanes {
        self.instructions += 1;
        let (mask, _) = self.access(s, idx, mask, AccessOp::Atomic, false);
        let active = mask.count_ones() as u64;
        self.stall += self.cfg.l2_latency + active * self.cfg.atomic_serialize;
        self.atomics += active;
        let mut out = [0u32; WARP_SIZE];
        for lane in 0..WARP_SIZE {
            if (mask >> lane) & 1 == 1 {
                let addr = s.addr(idx[lane] as u64);
                let old = self.mem.word(addr);
                out[lane] = old;
                self.mem.set_word(addr, old | val[lane]);
            }
        }
        out
    }

    /// Lane-serialized atomic float add at L2 (`atomicAdd(float*)`),
    /// interpreting the device words as IEEE-754 `f32` bits. Used by
    /// accumulation workloads (PageRank's rank scatter). Returns old values.
    pub fn atomic_add_f32(
        &mut self,
        s: DSlice,
        idx: &Lanes,
        val: &[f32; WARP_SIZE],
        mask: u32,
    ) -> [f32; WARP_SIZE] {
        self.instructions += 1;
        let (mask, _) = self.access(s, idx, mask, AccessOp::Atomic, false);
        let active = mask.count_ones() as u64;
        self.stall += self.cfg.l2_latency + active * self.cfg.atomic_serialize;
        self.atomics += active;
        let mut out = [0f32; WARP_SIZE];
        for lane in 0..WARP_SIZE {
            if (mask >> lane) & 1 == 1 {
                let addr = s.addr(idx[lane] as u64);
                let old = f32::from_bits(self.mem.word(addr));
                out[lane] = old;
                self.mem.set_word(addr, (old + val[lane]).to_bits());
            }
        }
        out
    }

    /// Lane-serialized atomic max at L2 (SSWP's widest-path update).
    pub fn atomic_max(&mut self, s: DSlice, idx: &Lanes, val: &Lanes, mask: u32) -> Lanes {
        self.instructions += 1;
        let (mask, _) = self.access(s, idx, mask, AccessOp::Atomic, false);
        let active = mask.count_ones() as u64;
        self.stall += self.cfg.l2_latency + active * self.cfg.atomic_serialize;
        self.atomics += active;
        let mut out = [0u32; WARP_SIZE];
        for lane in 0..WARP_SIZE {
            if (mask >> lane) & 1 == 1 {
                let addr = s.addr(idx[lane] as u64);
                let old = self.mem.word(addr);
                out[lane] = old;
                if val[lane] > old {
                    self.mem.set_word(addr, val[lane]);
                }
            }
        }
        out
    }

    // ---- shared memory -----------------------------------------------------

    /// Shared-memory load: `out[lane] = shared[idx[lane]]`.
    pub fn load_shared(&mut self, idx: &Lanes, mask: u32) -> Lanes {
        self.instructions += 1;
        self.shared_accesses += 1;
        self.stall += self.cfg.shared_latency;
        let mask = match self.san.as_deref_mut() {
            Some(san) => san.shared_access(self.id, AccessKind::Load, self.shared.len(), idx, mask),
            None => mask,
        };
        self.count_lanes(mask.count_ones());
        self.shared_bank_conflicts += bank_conflicts(idx, mask);
        let mut out = [0u32; WARP_SIZE];
        for lane in 0..WARP_SIZE {
            if (mask >> lane) & 1 == 1 {
                out[lane] = self.shared[idx[lane] as usize];
            }
        }
        out
    }

    /// Shared-memory store: `shared[idx[lane]] = vals[lane]`.
    pub fn store_shared(&mut self, idx: &Lanes, vals: &Lanes, mask: u32) {
        self.instructions += 1;
        self.shared_accesses += 1;
        self.stall += self.cfg.shared_latency;
        let mask = match self.san.as_deref_mut() {
            Some(san) => {
                san.shared_access(self.id, AccessKind::Store, self.shared.len(), idx, mask)
            }
            None => mask,
        };
        self.count_lanes(mask.count_ones());
        self.shared_bank_conflicts += bank_conflicts(idx, mask);
        for lane in 0..WARP_SIZE {
            if (mask >> lane) & 1 == 1 {
                self.shared[idx[lane] as usize] = vals[lane];
            }
        }
    }
}

/// The active lanes of `mask`, ascending.
#[inline]
fn lanes(mut mask: u32) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (mask != 0).then(|| {
            let lane = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            lane
        })
    })
}

/// Shared-memory bank-conflict replays for one warp access: shared memory
/// has 32 word-wide banks (`word % 32`); lanes addressing *different* words
/// in the same bank serialize, while lanes reading the same word broadcast.
/// Returns `Σ_banks (distinct words in bank − 1)` over active lanes.
///
/// When the active lanes' words strictly increase (the SMP slot layout)
/// they are all distinct, so the sum is active lanes − busy banks; any
/// other pattern falls back to [`bank_conflicts_sorted`].
fn bank_conflicts(idx: &Lanes, mask: u32) -> u64 {
    let mut busy = 0u32;
    let mut next_min = 0u64;
    for lane in lanes(mask) {
        let word = u64::from(idx[lane]);
        if word < next_min {
            return bank_conflicts_sorted(idx, mask);
        }
        next_min = word + 1;
        busy |= 1 << (word % 32);
    }
    u64::from(mask.count_ones() - busy.count_ones())
}

/// [`bank_conflicts`] for any lane pattern: sorts the active lanes'
/// `(bank, word)` pairs and counts distinct words per bank.
fn bank_conflicts_sorted(idx: &Lanes, mask: u32) -> u64 {
    let mut pairs = [(0u32, 0u32); WARP_SIZE];
    let mut n = 0usize;
    for lane in lanes(mask) {
        pairs[n] = (idx[lane] % 32, idx[lane]);
        n += 1;
    }
    let pairs = &mut pairs[..n];
    pairs.sort_unstable();
    let mut conflicts = 0u64;
    let mut i = 0usize;
    while i < pairs.len() {
        let bank = pairs[i].0;
        let mut distinct = 0u64;
        let mut last: Option<u32> = None;
        while i < pairs.len() && pairs[i].0 == bank {
            if last != Some(pairs[i].1) {
                distinct += 1;
                last = Some(pairs[i].1);
            }
            i += 1;
        }
        conflicts += distinct.saturating_sub(1);
    }
    conflicts
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum AccessOp {
    Load,
    Store,
    Atomic,
}

impl AccessOp {
    fn kind(self) -> AccessKind {
        match self {
            AccessOp::Load => AccessKind::Load,
            AccessOp::Store => AccessKind::Store,
            AccessOp::Atomic => AccessKind::Atomic,
        }
    }

    fn pipe(self) -> PipeOp {
        match self {
            AccessOp::Load => PipeOp::Load,
            AccessOp::Store => PipeOp::Store,
            AccessOp::Atomic => PipeOp::Atomic,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::GpuConfig;
    use eta_fault::SplitMix64;
    use eta_mem::pcie::PcieLink;

    struct Rig {
        cfg: GpuConfig,
        mem: MemSystem,
        l1: Cache,
        l2: Cache,
        shared: Vec<u32>,
    }

    impl Rig {
        fn new() -> Self {
            let cfg = GpuConfig::default_preset();
            let mem = MemSystem::new(cfg.device_mem_bytes, PcieLink::new(12.0, 8000));
            Rig {
                cfg,
                l1: Cache::new(cfg.l1),
                l2: Cache::new(cfg.l2),
                shared: vec![0; 4096],
                mem,
            }
        }

        fn warp(&mut self, interleave: u64) -> WarpCtx<'_> {
            WarpCtx::new(
                &self.cfg,
                &mut self.mem,
                &mut self.l1,
                &mut self.l2,
                &mut self.shared,
                WarpId {
                    block: 0,
                    warp_in_block: 0,
                    threads_per_block: 256,
                    grid_blocks: 1,
                },
                interleave,
                interleave,
                0,
                None,
            )
        }
    }

    fn iota() -> Lanes {
        let mut l = [0u32; WARP_SIZE];
        for (i, s) in l.iter_mut().enumerate() {
            *s = i as u32;
        }
        l
    }

    #[test]
    fn bank_conflict_counting() {
        // Coalesced iota: every lane in its own bank — no conflicts.
        assert_eq!(bank_conflicts(&iota(), FULL_MASK), 0);
        // All 32 lanes read the same word: broadcast, free.
        assert_eq!(bank_conflicts(&[7u32; WARP_SIZE], FULL_MASK), 0);
        // Stride 32: every lane a distinct word in bank 0 — 31 replays.
        let mut stride = [0u32; WARP_SIZE];
        for (i, s) in stride.iter_mut().enumerate() {
            *s = (i as u32) * 32;
        }
        assert_eq!(bank_conflicts(&stride, FULL_MASK), 31);
        // Inactive lanes are ignored: only lanes 0 and 1 active, same bank,
        // different words — one replay.
        assert_eq!(bank_conflicts(&stride, 0b11), 1);
        assert_eq!(bank_conflicts(&stride, 0), 0);
    }

    /// `(lane indices, mask)` pairs below `range`: strided (SMP slot
    /// layouts among them), broadcast, descending, and seeded random
    /// indices, each under a full, a sparse and an empty mask.
    fn lane_patterns(range: u32) -> Vec<(Lanes, u32)> {
        let mut rng = SplitMix64(11);
        let mut idx_sets: Vec<Lanes> = Vec::new();
        for stride in [0u32, 1, 2, 3, 4, 8, 16, 31, 32, 33, 64] {
            idx_sets.push(std::array::from_fn(|l| (l as u32 * stride) % range));
        }
        idx_sets.push(std::array::from_fn(|l| (31 - l as u32) * 5));
        for _ in 0..300 {
            let spread = 1 + (rng.next_u64() % u64::from(range)) as u32;
            let mut idx: Lanes = std::array::from_fn(|_| (rng.next_u64() as u32) % spread);
            if rng.next_u64().is_multiple_of(2) {
                idx.sort_unstable(); // ascending, with repeats
            }
            idx_sets.push(idx);
        }
        let mut out = Vec::new();
        for idx in idx_sets {
            let sparse = rng.next_u64() as u32 & rng.next_u64() as u32;
            for mask in [FULL_MASK, sparse, 1 << (rng.next_u64() % 32), 0] {
                out.push((idx, mask));
            }
        }
        out
    }

    #[test]
    fn bank_conflicts_match_the_sort_on_every_lane_pattern() {
        for (idx, mask) in lane_patterns(4096) {
            assert_eq!(
                bank_conflicts(&idx, mask),
                bank_conflicts_sorted(&idx, mask),
                "idx {idx:?} mask {mask:#x}"
            );
        }
    }

    /// Runs `f` on a recording warp (with a lint sanitizer) and returns the
    /// queue after stage 2 plus the sanitizer's sector total.
    fn record_with(f: impl Fn(&mut WarpCtx<'_>, DSlice)) -> (SmQueue, u64) {
        let mut rig = Rig::new();
        let a = rig.mem.alloc_explicit(8192).unwrap();
        let mut queue = SmQueue::default();
        let mut order = Vec::new();
        let mut san = Sanitizer::new(crate::SanitizerMode::Lint);
        san.begin_launch("probe");
        let mut w = WarpCtx::new_recording(
            &rig.cfg,
            &mut rig.mem,
            0,
            &mut queue,
            &mut order,
            &mut rig.shared,
            rig_id(),
            1,
            1,
            0,
            Some(&mut san),
        );
        f(&mut w, a);
        drop(w);
        assert_eq!(order.len(), queue.recs.len());
        queue.coalesce();
        (queue, san.report().kernels[0].sectors)
    }

    fn rig_id() -> WarpId {
        WarpId {
            block: 0,
            warp_in_block: 0,
            threads_per_block: 256,
            grid_blocks: 1,
        }
    }

    #[test]
    fn recorded_accesses_coalesce_like_the_direct_path() {
        for (idx, mask) in lane_patterns(8192) {
            // Direct path: the sectors it probes, via the full lane sort.
            let mut rig = Rig::new();
            let a = rig.mem.alloc_explicit(8192).unwrap();
            let mut w = rig.warp(1);
            w.load(a, &idx, mask);
            let direct = w.sector_scratch.clone();
            drop(w);
            let (queue, san_sectors) = record_with(|w, a| {
                w.load(a, &idx, mask);
            });
            assert_eq!(san_sectors, direct.len() as u64, "sanitizer sector count");
            if mask == 0 {
                assert!(queue.recs.is_empty());
                continue;
            }
            let rec = queue.recs[0];
            assert!(rec.addr_len <= mask.count_ones() as usize);
            assert_eq!(
                &queue.sectors[rec.sec_start..rec.sec_start + rec.sec_len],
                &direct[..],
                "idx {idx:?} mask {mask:#x}"
            );
        }
    }

    #[test]
    fn recorded_bursts_coalesce_like_the_direct_path() {
        let mut rng = SplitMix64(5);
        for _ in 0..200 {
            let start: Lanes = std::array::from_fn(|_| (rng.next_u64() % 8000) as u32);
            let count: Lanes = std::array::from_fn(|_| (rng.next_u64() % 12) as u32);
            let mask = rng.next_u64() as u32 | rng.next_u64() as u32;
            let mut rig = Rig::new();
            let a = rig.mem.alloc_explicit(8192).unwrap();
            let mut w = rig.warp(1);
            let direct_rows = w.load_burst(a, &start, &count, mask);
            let (direct_instr, _) = w.finish(&mut KernelMetrics::default());
            let direct_sectors = rig.l1.stats().accesses();
            let (queue, _) = record_with(|w, a| {
                assert_eq!(w.load_burst(a, &start, &count, mask), direct_rows);
                assert_eq!(w.instructions, direct_instr);
            });
            assert_eq!(queue.sectors.len() as u64, direct_sectors);
            assert!(queue.recs.iter().skip(1).all(|r| !r.charge));
        }
    }

    #[test]
    fn a_coalesced_warp_records_one_word_per_sector() {
        let (queue, san_sectors) = record_with(|w, a| {
            w.load(a, &iota(), FULL_MASK);
        });
        assert_eq!(queue.addrs, [0, 8, 16, 24].map(|i| queue.addrs[0] + i));
        assert_eq!((queue.sectors.len(), san_sectors), (4, 4));
    }

    #[test]
    fn shared_access_counts_lanes_and_conflicts() {
        let mut rig = Rig::new();
        let mut w = rig.warp(1);
        let vals = iota();
        w.store_shared(&iota(), &vals, FULL_MASK);
        let out = w.load_shared(&iota(), FULL_MASK);
        assert_eq!(out, vals);
        let mut m = KernelMetrics::default();
        w.finish(&mut m);
        assert_eq!(m.shared_bank_conflicts, 0, "iota is conflict-free");
        assert_eq!(m.lane_ops, 64, "two full-warp shared instructions");
        assert_eq!(m.lane_slots, 64);
        assert!((m.warp_execution_efficiency() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn thread_ids_and_masks() {
        let mut rig = Rig::new();
        let w = rig.warp(1);
        let ids = w.thread_ids();
        assert_eq!(ids[0], 0);
        assert_eq!(ids[31], 31);
        assert_eq!(w.mask_for_items(0), 0);
        assert_eq!(w.mask_for_items(1), 1);
        assert_eq!(w.mask_for_items(32), FULL_MASK);
        assert_eq!(w.mask_for_items(5), 0b11111);
    }

    #[test]
    fn load_returns_stored_values() {
        let mut rig = Rig::new();
        let a = rig.mem.alloc_explicit(64).unwrap();
        rig.mem
            .host_write(a, 0, &(0..64).map(|i| i * 10).collect::<Vec<_>>());
        let mut w = rig.warp(1);
        let vals = w.load(a, &iota(), FULL_MASK);
        assert_eq!(vals[0], 0);
        assert_eq!(vals[7], 70);
        assert_eq!(vals[31], 310);
    }

    #[test]
    fn store_then_load_roundtrip() {
        let mut rig = Rig::new();
        let a = rig.mem.alloc_explicit(64).unwrap();
        let mut w = rig.warp(1);
        let vals = {
            let mut v = [0u32; WARP_SIZE];
            for (i, s) in v.iter_mut().enumerate() {
                *s = (i * i) as u32;
            }
            v
        };
        w.store(a, &iota(), &vals, FULL_MASK);
        let back = w.load(a, &iota(), FULL_MASK);
        assert_eq!(back, vals);
    }

    #[test]
    fn masked_lanes_do_not_write() {
        let mut rig = Rig::new();
        let a = rig.mem.alloc_explicit(64).unwrap();
        let mut w = rig.warp(1);
        w.store(a, &iota(), &[7; WARP_SIZE], 0b1010);
        drop(w);
        assert_eq!(rig.mem.host_read(a, 0, 4), &[0, 7, 0, 7]);
    }

    #[test]
    fn coalesced_load_touches_four_sectors() {
        let mut rig = Rig::new();
        let a = rig.mem.alloc_explicit(64).unwrap();
        let mut w = rig.warp(1);
        w.load(a, &iota(), FULL_MASK);
        drop(w);
        assert_eq!(rig.l1.stats().accesses(), 4, "32 u32 lanes = 4 sectors");
    }

    #[test]
    fn scattered_load_touches_32_sectors() {
        let mut rig = Rig::new();
        let a = rig.mem.alloc_explicit(32 * 64).unwrap();
        let mut idx = [0u32; WARP_SIZE];
        for (i, s) in idx.iter_mut().enumerate() {
            *s = (i * 64) as u32;
        }
        let mut w = rig.warp(1);
        w.load(a, &idx, FULL_MASK);
        drop(w);
        assert_eq!(rig.l1.stats().accesses(), 32);
    }

    #[test]
    fn burst_preserves_sector_reuse_under_interleave() {
        // The SMP mechanism: with heavy interleaving, a per-iteration loop
        // loses its sectors between accesses, a burst does not.
        let k = 8u32;
        let stride = 8u32; // one sector per lane-range
        let len = 32 * stride;

        // Loop-style: K separate loads with a huge interleave factor.
        let mut rig = Rig::new();
        let a = rig.mem.alloc_explicit(len as u64).unwrap();
        {
            let mut w = rig.warp(100_000);
            for r in 0..k {
                let mut idx = [0u32; WARP_SIZE];
                for lane in 0..WARP_SIZE {
                    idx[lane] = lane as u32 * stride + r;
                }
                w.load(a, &idx, FULL_MASK);
            }
        }
        let loop_misses = rig.l1.stats().misses;

        // Burst-style: same addresses as one burst.
        let mut rig2 = Rig::new();
        let b = rig2.mem.alloc_explicit(len as u64).unwrap();
        {
            let mut w = rig2.warp(100_000);
            let mut start = [0u32; WARP_SIZE];
            for lane in 0..WARP_SIZE {
                start[lane] = lane as u32 * stride;
            }
            w.load_burst(b, &start, &[k; WARP_SIZE], FULL_MASK);
        }
        let burst_misses = rig2.l1.stats().misses;

        assert_eq!(burst_misses, 32, "one miss per lane's sector");
        assert!(
            loop_misses >= 4 * burst_misses,
            "interleaved loop must thrash: {loop_misses} vs {burst_misses}"
        );
    }

    #[test]
    fn burst_values_and_row_masks() {
        let mut rig = Rig::new();
        let a = rig.mem.alloc_explicit(256).unwrap();
        rig.mem.host_write(a, 0, &(0..256).collect::<Vec<u32>>());
        let mut w = rig.warp(1);
        let mut start = [0u32; WARP_SIZE];
        let mut count = [0u32; WARP_SIZE];
        start[0] = 10;
        count[0] = 3;
        start[1] = 100;
        count[1] = 1;
        let rows = w.load_burst(a, &start, &count, 0b11);
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[0][0], 10);
        assert_eq!(rows[1][0], 11);
        assert_eq!(rows[2][0], 12);
        assert_eq!(rows[0][1], 100);
        assert_eq!(rows[1][1], 0, "lane 1 inactive past its count");
    }

    #[test]
    fn atomic_add_serializes_same_address() {
        let mut rig = Rig::new();
        let a = rig.mem.alloc_explicit(8).unwrap();
        let mut w = rig.warp(1);
        let olds = w.atomic_add(a, &[0; WARP_SIZE], &[1; WARP_SIZE], FULL_MASK);
        // Lane i must observe i prior increments.
        for (lane, &old) in olds.iter().enumerate() {
            assert_eq!(old, lane as u32);
        }
        drop(w);
        assert_eq!(rig.mem.host_read(a, 0, 1), &[32]);
    }

    #[test]
    fn atomic_min_keeps_smallest() {
        let mut rig = Rig::new();
        let a = rig.mem.alloc_explicit(8).unwrap();
        rig.mem.host_write(a, 0, &[100]);
        let mut w = rig.warp(1);
        let mut vals = [0u32; WARP_SIZE];
        for (i, v) in vals.iter_mut().enumerate() {
            *v = 50 + i as u32;
        }
        let old = w.atomic_min(a, &[0; WARP_SIZE], &vals, 0b11);
        assert_eq!(old[0], 100);
        assert_eq!(old[1], 50, "lane 1 sees lane 0's update");
        drop(w);
        assert_eq!(rig.mem.host_read(a, 0, 1), &[50]);
    }

    #[test]
    fn atomic_max_keeps_largest() {
        let mut rig = Rig::new();
        let a = rig.mem.alloc_explicit(8).unwrap();
        rig.mem.host_write(a, 0, &[5]);
        let mut w = rig.warp(1);
        let old = w.atomic_max(a, &[0; WARP_SIZE], &[9; WARP_SIZE], 0b1);
        assert_eq!(old[0], 5);
        drop(w);
        assert_eq!(rig.mem.host_read(a, 0, 1), &[9]);
    }

    #[test]
    fn atomic_or_merges_bits_in_lane_order() {
        let mut rig = Rig::new();
        let a = rig.mem.alloc_explicit(8).unwrap();
        let mut w = rig.warp(1);
        let mut bits = [0u32; WARP_SIZE];
        bits[0] = 0b001;
        bits[1] = 0b010;
        bits[2] = 0b100;
        let olds = w.atomic_or(a, &[0; WARP_SIZE], &bits, 0b111);
        assert_eq!(olds[0], 0);
        assert_eq!(olds[1], 0b001, "lane 1 sees lane 0's bit");
        assert_eq!(olds[2], 0b011);
        drop(w);
        assert_eq!(rig.mem.host_read(a, 0, 1), &[0b111]);
    }

    #[test]
    fn atomic_add_f32_accumulates_and_returns_olds() {
        let mut rig = Rig::new();
        let a = rig.mem.alloc_explicit(8).unwrap();
        rig.mem.host_write(a, 0, &[1.5f32.to_bits()]);
        let mut w = rig.warp(1);
        let olds = w.atomic_add_f32(a, &[0; WARP_SIZE], &[0.25f32; WARP_SIZE], 0b111);
        assert_eq!(olds[0], 1.5);
        assert_eq!(olds[1], 1.75);
        assert_eq!(olds[2], 2.0);
        drop(w);
        assert_eq!(f32::from_bits(rig.mem.host_read(a, 0, 1)[0]), 2.25);
    }

    #[test]
    fn atomic_add_f32_masked_lanes_do_nothing() {
        let mut rig = Rig::new();
        let a = rig.mem.alloc_explicit(8).unwrap();
        let mut w = rig.warp(1);
        w.atomic_add_f32(a, &[0; WARP_SIZE], &[7.0; WARP_SIZE], 0);
        drop(w);
        assert_eq!(f32::from_bits(rig.mem.host_read(a, 0, 1)[0]), 0.0);
    }

    #[test]
    fn mask_zero_ops_issue_no_transactions_and_no_metric_drift() {
        let mut rig = Rig::new();
        let a = rig.mem.alloc_explicit(64).unwrap();
        let mut metrics = KernelMetrics::default();
        {
            let mut w = rig.warp(1);
            let vals = w.load(a, &iota(), 0);
            assert_eq!(vals, [0u32; WARP_SIZE]);
            w.store(a, &iota(), &[9; WARP_SIZE], 0);
            w.atomic_add(a, &[0; WARP_SIZE], &[1; WARP_SIZE], 0);
            let (instr, _) = w.finish(&mut metrics);
            assert_eq!(instr, 3, "instructions still issue");
        }
        assert_eq!(rig.l1.stats().accesses(), 0, "no sectors reach L1");
        assert_eq!(rig.l2.stats().accesses(), 0);
        assert_eq!(metrics.l1_requests, 0);
        assert_eq!(metrics.atomics, 0);
        assert_eq!(metrics.dram_transactions, 0);
        assert_eq!(metrics.dram_write_transactions, 0);
        assert_eq!(
            rig.mem.host_read(a, 0, 4),
            &[0, 0, 0, 0],
            "no writes landed"
        );
    }

    #[test]
    fn mask_zero_burst_is_a_noop() {
        let mut rig = Rig::new();
        let a = rig.mem.alloc_explicit(64).unwrap();
        let mut metrics = KernelMetrics::default();
        {
            let mut w = rig.warp(1);
            let rows = w.load_burst(a, &[0; WARP_SIZE], &[4; WARP_SIZE], 0);
            assert!(rows.is_empty(), "no active lane, no rows");
            let (instr, stall) = w.finish(&mut metrics);
            assert_eq!(instr, 0, "a fully-masked burst issues nothing");
            assert_eq!(stall, 0);
        }
        assert_eq!(rig.l1.stats().accesses(), 0);
        assert_eq!(metrics.dram_transactions, 0);
    }

    #[test]
    fn zero_count_burst_issues_nothing() {
        let mut rig = Rig::new();
        let a = rig.mem.alloc_explicit(64).unwrap();
        let mut w = rig.warp(1);
        let rows = w.load_burst(a, &iota(), &[0; WARP_SIZE], FULL_MASK);
        assert!(rows.is_empty(), "count 0 on every lane, no rows");
        drop(w);
        assert_eq!(rig.l1.stats().accesses(), 0);
    }

    #[test]
    fn atomic_add_f32_serializes_in_lane_order_under_sparse_mask() {
        let mut rig = Rig::new();
        let a = rig.mem.alloc_explicit(8).unwrap();
        rig.mem.host_write(a, 0, &[0f32.to_bits()]);
        let mut w = rig.warp(1);
        let mask = (1 << 1) | (1 << 5) | (1 << 30);
        let mut vals = [0f32; WARP_SIZE];
        vals[1] = 1.0;
        vals[5] = 2.0;
        vals[30] = 4.0;
        let olds = w.atomic_add_f32(a, &[0; WARP_SIZE], &vals, mask);
        assert_eq!(olds[1], 0.0, "lowest active lane applies first");
        assert_eq!(olds[5], 1.0, "lane 5 sees lane 1's add");
        assert_eq!(olds[30], 3.0, "lane 30 sees lanes 1 and 5");
        assert_eq!(olds[0], 0.0, "inactive lanes return the default");
        drop(w);
        assert_eq!(f32::from_bits(rig.mem.host_read(a, 0, 1)[0]), 7.0);
    }

    #[test]
    fn shared_memory_roundtrip_and_no_global_traffic() {
        let mut rig = Rig::new();
        let mut w = rig.warp(1);
        let vals = iota();
        w.store_shared(&iota(), &vals, FULL_MASK);
        let back = w.load_shared(&iota(), FULL_MASK);
        assert_eq!(back, vals);
        drop(w);
        assert_eq!(rig.l1.stats().accesses(), 0);
        assert_eq!(rig.l2.stats().accesses(), 0);
    }

    #[test]
    fn finish_reports_counters() {
        let mut rig = Rig::new();
        let a = rig.mem.alloc_explicit(64).unwrap();
        let mut metrics = KernelMetrics::default();
        let mut w = rig.warp(1);
        w.load(a, &iota(), FULL_MASK);
        w.alu(3);
        let (instr, stall) = w.finish(&mut metrics);
        assert_eq!(instr, 4);
        assert!(stall > 0);
        assert_eq!(metrics.instructions, 4);
        assert_eq!(metrics.warps, 1);
    }
}
