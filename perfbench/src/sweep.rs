//! `sweep-large`: cold single-device cells on the two large social-graph
//! analogs plus one 2-device sharded BFS — the way `report` spends host
//! time. The graphs are the fixed `eta_graph::datasets` analogs; the
//! workload seed draws the traversal sources. A closed loop with one caller; every cell starts on a fresh
//! device, so UM faults are cold and the host working set is far larger
//! than the CPU caches.

use crate::common::{
    label_digest, median, percentile, ratio, timed_passes, Args, Fingerprint, Metrics, Outcome,
};
use crate::trace::Tracer;
use eta_graph::generate::splitmix;
use eta_graph::{datasets, reference, Csr};
use eta_mem::PeerFabric;
use eta_shard::GraphPartition;
use eta_sim::{Device, GpuConfig, KernelMetrics};
use etagraph::sharded::{run_sharded, ShardedRunResult};
use etagraph::{engine, Algorithm, EtaConfig, RunResult, TransferMode};
use std::collections::BTreeMap;

/// A generated graph with its weighted copy and traversal source.
struct Graph {
    csr: Csr,
    weighted: Csr,
    source: u32,
}

/// The two large social-graph analogs of `eta_graph::datasets` (Table II).
const GRAPHS: [&str; 2] = ["livejournal", "orkut"];

/// One cold single-device cell: graph index, algorithm, transfer mode.
struct Cell {
    span: &'static str,
    graph: usize,
    alg: Algorithm,
    transfer: TransferMode,
}

const CELLS: [Cell; 6] = [
    Cell {
        span: "cell.livejournal.bfs.demand",
        graph: 0,
        alg: Algorithm::Bfs,
        transfer: TransferMode::Unified,
    },
    Cell {
        span: "cell.livejournal.sssp.demand",
        graph: 0,
        alg: Algorithm::Sssp,
        transfer: TransferMode::Unified,
    },
    Cell {
        span: "cell.livejournal.sssp.adaptive",
        graph: 0,
        alg: Algorithm::Sssp,
        transfer: TransferMode::Adaptive,
    },
    Cell {
        span: "cell.orkut.bfs.demand",
        graph: 1,
        alg: Algorithm::Bfs,
        transfer: TransferMode::Unified,
    },
    Cell {
        span: "cell.orkut.sssp.demand",
        graph: 1,
        alg: Algorithm::Sssp,
        transfer: TransferMode::Unified,
    },
    Cell {
        span: "cell.orkut.sssp.adaptive",
        graph: 1,
        alg: Algorithm::Sssp,
        transfer: TransferMode::Adaptive,
    },
];

/// The sharded cell: BFS on the orkut analog over this many devices.
const SHARD_DEVICES: u32 = 2;
const SHARD_SPAN: &str = "cell.orkut.bfs.sharded2";

/// The names every cell's host time is reported under.
pub fn cell_spans() -> impl Iterator<Item = &'static str> {
    CELLS.iter().map(|c| c.span).chain([SHARD_SPAN])
}

/// A seeded source with at least `min_degree` out-edges, so the traversal
/// starts inside the giant component on every seed.
pub fn pick_source(csr: &Csr, seed: u64, min_degree: u32) -> u32 {
    let n = csr.n() as u64;
    (0..)
        .map(|k| (splitmix(seed, k) % n) as u32)
        .find(|&v| csr.degree(v) >= min_degree)
        .expect("an R-MAT graph has vertices above its mean degree")
}

/// A seeded hub: one of the top 0.1% of vertices by out-degree. From a
/// hub a traversal reaches the giant component at once and covers it in
/// the fewest levels, so a pass's work moves little with the seed: over
/// ten seeds the simulated instructions and L2 requests of a pass spread
/// (interquartile range over median) 0.04 from these hubs, 0.07 from the
/// top 1% and more from any vertex of at least mean degree.
fn pick_hub(csr: &Csr, seed: u64) -> u32 {
    let mut by_degree: Vec<u32> = (0..csr.n() as u32).collect();
    by_degree.sort_by_key(|&v| (std::cmp::Reverse(csr.degree(v)), v));
    let hubs = &by_degree[..(csr.n() / 1000).max(1)];
    hubs[(seed % hubs.len() as u64) as usize]
}

/// Builds dataset `index` and draws its traversal source from the seed.
fn generate(seed: u64, index: usize) -> Graph {
    let d = datasets::build(GRAPHS[index]);
    let weighted = d.weighted();
    let source = pick_hub(&d.csr, splitmix(seed, 100 + index as u64));
    Graph {
        csr: d.csr,
        weighted,
        source,
    }
}

/// What one operation left behind: the digest of its labels (checked
/// after the timed phase) and its fingerprint.
struct OpOut {
    labels: u64,
    fingerprint: u64,
}

pub fn fingerprint_metrics(fp: &mut Fingerprint, m: &KernelMetrics) {
    for w in [
        m.instructions,
        m.cycles,
        m.time_ns,
        m.l1_requests,
        m.l1.hits,
        m.l1.misses,
        m.l2_requests,
        m.l2.hits,
        m.l2.misses,
        m.dram_transactions,
        m.dram_write_transactions,
        m.dram_bytes,
        m.shared_accesses,
        m.shared_bank_conflicts,
        m.lane_ops,
        m.lane_slots,
        m.atomics,
        m.mem_stall_cycles,
        m.warps,
        m.occupancy_warps,
        m.data_ready_ns,
    ] {
        fp.word(w);
    }
}

/// Fingerprint of one traversal: labels, timing, counters, UM statistics
/// and the per-iteration record.
pub fn fingerprint_run(r: &RunResult) -> u64 {
    let mut fp = Fingerprint::default();
    fp.words(&r.labels);
    fp.word(u64::from(r.iterations));
    fp.word(r.kernel_ns);
    fp.word(r.total_ns);
    fingerprint_metrics(&mut fp, &r.metrics);
    let um = &r.um_stats;
    for w in [
        um.faults,
        um.evicted_pages,
        um.migrated_bytes,
        um.prefetched_bytes,
    ] {
        fp.word(w);
    }
    fp.word(um.migration_batches.len() as u64);
    fp.word(um.prefetch_chunks.len() as u64);
    fp.word(r.overlap_fraction.to_bits());
    for it in &r.per_iteration {
        fp.words(&[
            it.active,
            it.shadow_full,
            it.shadow_partial,
            u32::from(it.pulled),
        ]);
        fp.word(it.visited_total);
        fp.word(it.start_ns);
        fp.word(it.end_ns);
    }
    fp.value()
}

fn fingerprint_sharded(r: &ShardedRunResult) -> u64 {
    let mut fp = Fingerprint::default();
    fp.words(&r.labels);
    fp.word(u64::from(r.supersteps));
    fp.word(r.kernel_ns);
    fp.word(r.total_ns);
    fp.word(r.exchanged_bytes);
    fingerprint_metrics(&mut fp, &r.metrics);
    for s in &r.per_superstep {
        fp.words(&[s.active, s.messages]);
        fp.word(s.exchanged_bytes);
        fp.word(s.start_ns);
        fp.word(s.end_ns);
    }
    fp.value()
}

/// Simulated-clock and counter totals of one pass, kept for the first pass.
#[derive(Default)]
struct PassStats {
    op_total_ns: Vec<u64>,
    kernel_ns: u64,
    metrics: KernelMetrics,
    layer: Metrics,
    um_batches: u64,
}

fn cell_config(transfer: TransferMode) -> EtaConfig {
    EtaConfig {
        transfer,
        ..EtaConfig::paper()
    }
}

/// Set-ups per run (`setup_s` is their median).
const SETUP_REPS: usize = 3;

pub fn run(args: &Args, tr: &mut Tracer) -> Outcome {
    let mut out = Outcome {
        op_name: "cell",
        requests_per_op: 1.0,
        ..Outcome::default()
    };
    for rep in 0..SETUP_REPS {
        let ((graphs, part), t) = tr.timed_op("setup", rep as u64, |tr| {
            let graphs: Vec<Graph> = (0..GRAPHS.len())
                .map(|i| {
                    tr.span("graph.generate", i as u64, |_| generate(args.seed, i))
                        .0
                })
                .collect();
            let (part, _) = tr.span("shard.partition", 0, |_| {
                GraphPartition::vertex_range(&graphs[1].csr, SHARD_DEVICES)
            });
            (graphs, part)
        });
        out.setup.push(t);
        if rep + 1 == SETUP_REPS {
            timed(args, tr, &graphs, &part, &mut out);
        }
    }
    out
}

fn timed(args: &Args, tr: &mut Tracer, graphs: &[Graph], part: &GraphPartition, out: &mut Outcome) {
    let mut results: Vec<Vec<Option<OpOut>>> = Vec::new();
    let mut first = PassStats::default();
    out.passes = timed_passes(tr, args, |tr, pass| {
        let mut ops = Vec::new();
        let mut op_times = Vec::new();
        let keep = pass == 0;
        for (i, c) in CELLS.iter().enumerate() {
            let g = &graphs[c.graph];
            let csr = if c.alg.needs_weights() {
                &g.weighted
            } else {
                &g.csr
            };
            let cfg = cell_config(c.transfer);
            let (res, t) = tr.timed_op(c.span, i as u64, |tr| {
                let mut dev = Device::new(GpuConfig::default_preset());
                let (prepared, _) = tr.span("engine.prepare", i as u64, |_| {
                    engine::prepare(&mut dev, csr, &cfg, c.alg == Algorithm::Bfs)
                });
                let (res, ready) = prepared.ok()?;
                let (r, _) = tr.span("engine.query", i as u64, |_| {
                    engine::run_query(&mut dev, &res, csr, g.source, c.alg, &cfg, 0, ready)
                });
                let r = r.ok()?;
                Some((r, dev.mem.adaptive_totals(), dev.mem.zero_copy_bytes))
            });
            op_times.push(t);
            ops.push(res.map(|(r, adaptive, zero_copy)| {
                if keep {
                    record_cell(&mut first, &r, adaptive, zero_copy);
                }
                OpOut {
                    fingerprint: fingerprint_run(&r),
                    labels: label_digest(&r.labels),
                }
            }));
        }
        let op = CELLS.len() as u64;
        let (res, t) = tr.timed_op(SHARD_SPAN, op, |tr| {
            let mut devs: Vec<Device> = (0..SHARD_DEVICES)
                .map(|_| Device::new(GpuConfig::default_preset()))
                .collect();
            let mut fabric = PeerFabric::nvlink(SHARD_DEVICES);
            let cfg = cell_config(TransferMode::Unified);
            tr.span("shard.run", op, |_| {
                run_sharded(
                    &mut devs,
                    &mut fabric,
                    part,
                    graphs[1].source,
                    Algorithm::Bfs,
                    &cfg,
                )
            })
            .0
            .ok()
        });
        op_times.push(t);
        ops.push(res.map(|r| {
            if keep {
                first.op_total_ns.push(r.total_ns);
                first.kernel_ns += r.kernel_ns;
                first.metrics.merge(&r.metrics);
                first
                    .layer
                    .count("shard.supersteps", u64::from(r.supersteps));
                first
                    .layer
                    .count("shard.exchanged_bytes", r.exchanged_bytes);
            }
            OpOut {
                fingerprint: fingerprint_sharded(&r),
                labels: label_digest(&r.labels),
            }
        }));
        results.push(ops);
        op_times
    });

    // Verification, outside the timed phase: every label array against the
    // CPU reference, and every pass against the first pass's fingerprint.
    let mut refs: BTreeMap<(usize, &str), u64> = BTreeMap::new();
    let expected: Vec<(usize, Algorithm)> = CELLS
        .iter()
        .map(|c| (c.graph, c.alg))
        .chain([(1, Algorithm::Bfs)])
        .collect();
    for (op, &(gi, alg)) in expected.iter().enumerate() {
        if refs.contains_key(&(gi, alg.name())) {
            continue;
        }
        let g = &graphs[gi];
        let (labels, _) = tr.span("verify.reference", op as u64, |_| match alg {
            Algorithm::Bfs => reference::bfs(&g.csr, g.source),
            _ => reference::sssp(&g.weighted, g.source),
        });
        refs.insert((gi, alg.name()), label_digest(&labels));
    }
    let mut fp = Fingerprint::default();
    for (pass, ops) in results.iter().enumerate() {
        for (op, o) in ops.iter().enumerate() {
            out.attempted += 1;
            let (gi, alg) = expected[op];
            let ok = o.as_ref().is_some_and(|o| {
                o.labels == refs[&(gi, alg.name())]
                    && results[0][op].as_ref().map(|f| f.fingerprint) == Some(o.fingerprint)
            });
            if !ok {
                out.failed += 1;
            }
            if pass == 0 {
                fp.word(o.as_ref().map_or(0, |o| o.fingerprint));
            }
        }
    }
    out.fingerprint = fp.value();

    let total_ns: u64 = first.op_total_ns.iter().sum();
    let lat: Vec<f64> = first
        .op_total_ns
        .iter()
        .map(|&ns| ns as f64 / 1e6)
        .collect();
    out.sim.set("sim_total_ms", total_ns as f64 / 1e6, "ms");
    out.sim
        .set("sim_kernel_ms", first.kernel_ns as f64 / 1e6, "ms");
    out.sim.set("sim_latency_ms.p50", median(&lat), "ms");
    out.sim
        .set("sim_latency_ms.p95", percentile(&lat, 95.0), "ms");
    out.sim.set(
        "goodput_qps",
        ratio(lat.len() as f64, total_ns as f64 / 1e9),
        "1/s",
    );
    first.layer.set(
        "transfer.overlap_fraction",
        first.layer.get("transfer.overlap_fraction") / CELLS.len() as f64,
        "ratio",
    );
    let migrated = first.layer.get("um.migrated_bytes");
    first.layer.set(
        "um.batch_avg_bytes",
        ratio(migrated, first.um_batches as f64),
        "B",
    );
    out.layer = first.layer;
    add_kernel_counters(&mut out.layer, &first.metrics);
    let edges: usize = graphs.iter().map(|g| g.csr.m()).sum();
    out.load = vec![
        ("loop", "closed, 1 caller".into()),
        ("cells_per_pass", (CELLS.len() + 1).to_string()),
        ("graph_edges", edges.to_string()),
        (
            "sources",
            format!("{},{}", graphs[0].source, graphs[1].source),
        ),
    ];
}

fn record_cell(
    first: &mut PassStats,
    r: &RunResult,
    adaptive: Option<(u64, u64, u64, u64)>,
    zero_copy: u64,
) {
    first.op_total_ns.push(r.total_ns);
    first.kernel_ns += r.kernel_ns;
    first.metrics.merge(&r.metrics);
    add_traversal_counters(&mut first.layer, r);
    let l = &mut first.layer;
    let um = &r.um_stats;
    l.add("um.faults", um.faults);
    l.add("um.migrated_bytes", um.migrated_bytes);
    l.add("um.prefetched_bytes", um.prefetched_bytes);
    l.add("um.evicted_pages", um.evicted_pages);
    first.um_batches += um.migration_batches.len() as u64;
    l.set(
        "transfer.overlap_fraction",
        l.get("transfer.overlap_fraction") + r.overlap_fraction,
        "ratio",
    );
    let (d, p, z, e) = adaptive.unwrap_or_default();
    l.add("adaptive.groups_demand", d);
    l.add("adaptive.groups_prefetch", p);
    l.add("adaptive.groups_zerocopy", z);
    l.add("adaptive.escalations", e);
    l.add("mem.zero_copy_bytes", zero_copy);
}

/// Engine iterations and UDC shadow counts of one traversal, added to `l`.
pub fn add_traversal_counters(l: &mut Metrics, r: &RunResult) {
    let full: u64 = r
        .per_iteration
        .iter()
        .map(|it| u64::from(it.shadow_full))
        .sum();
    let partial: u64 = r
        .per_iteration
        .iter()
        .map(|it| u64::from(it.shadow_partial))
        .sum();
    l.add("engine.iterations", u64::from(r.iterations));
    l.add("udc.shadows_full", full);
    l.add("udc.shadows_partial", partial);
}

/// The simulator's kernel counters and ratios.
pub fn add_kernel_counters(l: &mut Metrics, m: &KernelMetrics) {
    l.count("sim.instructions", m.instructions);
    l.count("sim.warps", m.warps);
    l.count("sim.l1_requests", m.l1_requests);
    l.count("sim.l2_requests", m.l2_requests);
    l.count("sim.dram_transactions", m.dram_transactions);
    l.count("sim.atomics", m.atomics);
    l.count("sim.shared_accesses", m.shared_accesses);
    l.set("sim.ipc", m.ipc(), "ratio");
    l.set("sim.l1_hit_rate", m.l1_hit_rate(), "ratio");
    l.set("sim.l2_hit_rate", m.l2_hit_rate(), "ratio");
}
