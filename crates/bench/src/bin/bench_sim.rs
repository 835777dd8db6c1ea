//! `bench_sim`: the host-side perf baseline behind `BENCH_sim.json`.
//!
//! Every committed report artifact is a function of the *simulated* clock;
//! this binary guards **host wall-clock speed** of the simulator itself and
//! measures what `--host-threads` buys. Three sections per entry:
//!
//! - **sweep** — the quick-suite kernel sweep (each dataset × algorithm
//!   cell is one full traversal through the simulator). Per cell it
//!   records host seconds, simulated kernel nanoseconds, and
//!   simulated-cycles-per-host-second (the portable-ish throughput
//!   figure). The sweep then re-runs under each `--threads` setting with
//!   cells distributed across host threads (cells are independent
//!   devices, so this is the embarrassingly-parallel layer) and records
//!   the wall-clock speedup over one thread.
//! - **within_launch** — the heaviest sweep cell run serially with the
//!   device's own per-SM drain stages at 1 vs N host threads. This
//!   isolates the intra-launch parallelism; Amdahl caps it well below the
//!   sweep-level speedup because record and L2/DRAM replay stay serial to
//!   preserve byte-identical artifacts.
//! - **chaos_drill** — the quick chaos grid (seed × checkpoint-interval
//!   fault-injection serves) timed as cells/second, again at each thread
//!   setting.
//! - **stages** — host seconds per launch stage (record, coalesce,
//!   residency, L1, L2) for BFS, SSSP and SSSP-adaptive on the livejournal
//!   analog at one host thread, read through an
//!   [`eta_bench::hosttime::StageTimes`] sink on the device.
//!
//! Simulated results are byte-identical at every thread count — `ci.sh`
//! enforces that separately; this file only tracks host time. The file is
//! a *trajectory*: entries are appended (never edited) so a regression
//! shows up as the newest entry being slower than its predecessors on the
//! same machine.
//!
//! ```text
//! cargo run --release -p eta-bench --bin bench_sim -- [--label NAME] [--threads N] [--out FILE]
//! ```
//!
//! Keep runs in release mode; debug is 10-50x slower through the simulator.

use eta_bench::hosttime::{StageTimes, Stopwatch};
use eta_bench::suite;
use eta_fault::{FaultPlan, HangFault};
use eta_graph::generate::{rmat, RmatConfig};
use eta_graph::Csr;
use eta_serve::{
    poisson_trace, Arrival, GraphRegistry, Request, ServeConfig, Service, WorkloadConfig,
};
use eta_sim::{Device, GpuConfig, LaunchStage};
use etagraph::{engine, Algorithm, EtaConfig, TransferMode};
use serde_json::{json, Value};
use std::sync::Arc;

/// Repetitions per thread setting; the entry records the fastest.
const REPS: usize = 2;

/// One (dataset, algorithm) sweep cell. Outputs are filled in by the
/// single-threaded pass; the multi-threaded passes only contribute to the
/// sweep's total wall clock.
struct Cell {
    dataset: &'static str,
    alg: Algorithm,
    g: Arc<Csr>,
    source: u32,
    host_seconds: f64,
    sim_kernel_ns: u64,
}

/// Runs one cell through a fresh device and returns the simulated kernel
/// nanoseconds.
fn run_cell(cell: &Cell, host_threads: usize) -> u64 {
    let gpu = GpuConfig::default_preset().with_host_threads(host_threads);
    let mut dev = Device::new(gpu);
    // lint: allow(L-PANIC): quick-suite graphs are host-backed (no OOM); an error is a bench bug
    let r = engine::run(
        &mut dev,
        &cell.g,
        cell.source,
        cell.alg,
        &EtaConfig::paper(),
    )
    .expect("sweep cell");
    r.kernel_ns
}

/// The kernel sweep: algorithm-major order so contiguous thread chunks mix
/// heavy and light datasets instead of stacking one dataset per chunk.
fn sweep_cells() -> Vec<Cell> {
    let mut cells = Vec::new();
    for alg in [Algorithm::Bfs, Algorithm::Sssp, Algorithm::Cc] {
        for name in suite::datasets_for(suite::Suite::Quick) {
            cells.push(Cell {
                dataset: name,
                alg,
                g: suite::graph_for(name, alg),
                source: suite::dataset(name).source,
                host_seconds: 0.0,
                sim_kernel_ns: 0,
            });
        }
    }
    cells
}

/// Times one full sweep pass at `threads` host threads (best of REPS).
/// At one thread this also (re)fills each cell's per-cell outputs.
fn time_sweep(cells: &mut [Cell], threads: usize) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..REPS {
        let sw = Stopwatch::started();
        eta_par::for_each_mut_threads(threads, cells, |_, cell| {
            let cell_sw = Stopwatch::started();
            let kernel_ns = run_cell(cell, 1);
            cell.host_seconds = cell_sw.elapsed_secs();
            cell.sim_kernel_ns = kernel_ns;
        });
        best = best.min(sw.elapsed_secs());
    }
    best
}

/// The quick chaos drill: the seed × checkpoint-interval grid from the
/// `chaos` report artifact, minus verification/shrinking (this binary
/// times the serves, it does not re-prove them).
struct ChaosDrill {
    registry: GraphRegistry,
    trace: Vec<Request>,
    grid: Vec<(u64, u32)>,
    plans: Vec<FaultPlan>,
}

fn chaos_drill() -> ChaosDrill {
    let (scale, edges, requests, seeds): (u32, usize, u32, &[u64]) = (10, 8_000, 40, &[101, 202]);
    let mut registry = GraphRegistry::new();
    registry.insert("tenant-a", rmat(&RmatConfig::paper(scale, edges, 11)));
    registry.insert("tenant-b", rmat(&RmatConfig::paper(scale, edges, 12)));
    let names = vec!["tenant-a".to_string(), "tenant-b".to_string()];
    let workload = WorkloadConfig {
        requests,
        seed: 7,
        rate_per_s: 20_000.0,
        arrival: Arrival::Poisson,
        interactive_fraction: 0.4,
        interactive_slo_ns: Some(2_000_000),
        batch_slo_ns: None,
        timeout_ns: None,
    };
    let trace = poisson_trace(&registry, &names, &workload);
    let clean = Service::new(
        &registry,
        ServeConfig {
            devices: 2,
            ..ServeConfig::default()
        },
    )
    .run(&trace);
    let horizon = clean.makespan_ns.max(1);
    let mut grid = Vec::new();
    let mut plans = Vec::new();
    for &seed in seeds {
        let mut plan = FaultPlan::seeded(seed, 2, horizon);
        plan.hangs.push(HangFault {
            device: 0,
            start_ns: 0,
            end_ns: horizon,
            budget_ns: 50_000,
        });
        for interval in eta_bench::chaos::INTERVALS {
            grid.push((seed, interval));
            plans.push(plan.clone());
        }
    }
    ChaosDrill {
        registry,
        trace,
        grid,
        plans,
    }
}

/// Times the chaos grid at `threads` host threads (best of REPS).
fn time_drill(drill: &ChaosDrill, threads: usize) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..REPS {
        let mut slots: Vec<usize> = (0..drill.grid.len()).collect();
        let sw = Stopwatch::started();
        eta_par::for_each_mut_threads(threads, &mut slots, |_, slot| {
            let (_, interval) = drill.grid[*slot];
            let cfg = ServeConfig {
                devices: 2,
                faults: drill.plans[*slot].clone(),
                checkpoint_interval: interval,
                ..ServeConfig::default()
            };
            Service::new(&drill.registry, cfg).run(&drill.trace);
        });
        best = best.min(sw.elapsed_secs());
    }
    best
}

/// The stage-split cells: livejournal from its dataset source, demand
/// paging unless adaptive.
const STAGE_CELLS: [(Algorithm, TransferMode, &str); 3] = [
    (Algorithm::Bfs, TransferMode::Unified, "demand"),
    (Algorithm::Sssp, TransferMode::Unified, "demand"),
    (Algorithm::Sssp, TransferMode::Adaptive, "adaptive"),
];

/// Host seconds per launch stage for each stage cell at one host thread
/// (the fastest of REPS by summed launch time).
fn stage_split() -> Vec<Value> {
    let dataset = "livejournal";
    STAGE_CELLS
        .iter()
        .map(|&(alg, transfer, mode)| {
            let g = suite::graph_for(dataset, alg);
            let cfg = EtaConfig {
                transfer,
                ..EtaConfig::paper()
            };
            let mut best = [f64::INFINITY; LaunchStage::ALL.len()];
            for _ in 0..REPS {
                let times = StageTimes::default();
                let mut dev = Device::new(GpuConfig::default_preset());
                dev.set_stage_sink(Some(times.sink()));
                // lint: allow(L-PANIC): quick-suite graphs are host-backed (no OOM); an error is a bench bug
                engine::run(&mut dev, &g, suite::dataset(dataset).source, alg, &cfg)
                    .expect("stage cell");
                let secs = times.seconds();
                if secs.iter().sum::<f64>() < best.iter().sum::<f64>() {
                    best = secs;
                }
            }
            let launch: f64 = best.iter().sum();
            let serial = best[LaunchStage::Record as usize]
                + best[LaunchStage::Residency as usize]
                + best[LaunchStage::L2 as usize];
            let split: Vec<String> = LaunchStage::ALL
                .iter()
                .map(|s| format!("{} {:.3}s", s.name(), best[*s as usize]))
                .collect();
            eprintln!(
                "stages ({dataset} {} {mode}): launch {launch:.3}s = {}",
                alg.name(),
                split.join(", ")
            );
            let mut stages = serde_json::Map::new();
            for s in LaunchStage::ALL {
                stages.insert(s.name().to_string(), json!(best[s as usize]));
            }
            json!({
                "dataset": dataset,
                "algorithm": alg.name(),
                "transfer": mode,
                "launch_seconds": launch,
                "stage_seconds": Value::Object(stages),
                "serial_fraction": serial / launch,
            })
        })
        .collect()
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let flag = |name: &str| {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1).cloned())
    };
    let label = flag("--label").unwrap_or_else(|| "unlabeled".into());
    let threads: usize = flag("--threads")
        .map(|v| v.parse().expect("--threads takes a positive integer"))
        .unwrap_or(4);
    assert!(threads >= 2, "--threads must be >= 2 (1 is the baseline)");
    let out = flag("--out").unwrap_or_else(|| {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_sim.json").to_string()
    });
    let total = Stopwatch::started();

    // Kernel sweep: serial baseline last so the committed per-cell numbers
    // come from an otherwise-idle host.
    let mut cells = sweep_cells();
    let sweep_par = time_sweep(&mut cells, threads);
    let sweep_serial = time_sweep(&mut cells, 1);
    let sweep_speedup = sweep_serial / sweep_par;
    eprintln!(
        "sweep: {sweep_serial:.3}s at 1 thread, {sweep_par:.3}s at {threads} ({sweep_speedup:.2}x)"
    );
    let cell_rows: Vec<Value> = cells
        .iter()
        .map(|c| {
            let cycles = c.sim_kernel_ns as f64 * GpuConfig::default_preset().clock_ghz;
            json!({
                "dataset": c.dataset,
                "algorithm": c.alg.name(),
                "host_seconds": c.host_seconds,
                "sim_kernel_ns": c.sim_kernel_ns,
                "sim_cycles_per_host_sec": cycles / c.host_seconds,
            })
        })
        .collect();

    // Within-launch: the heaviest cell, per-SM drain stages at 1 vs N.
    let heaviest = cells
        .iter()
        .max_by(|a, b| a.host_seconds.total_cmp(&b.host_seconds))
        .expect("sweep is non-empty");
    let within = |host_threads: usize| {
        let mut best = f64::INFINITY;
        for _ in 0..REPS {
            let sw = Stopwatch::started();
            run_cell(heaviest, host_threads);
            best = best.min(sw.elapsed_secs());
        }
        best
    };
    let within_serial = within(1);
    let within_par = within(threads);
    eprintln!(
        "within-launch ({} {}): {within_serial:.3}s at 1 thread, {within_par:.3}s at {threads}",
        heaviest.dataset,
        heaviest.alg.name(),
    );

    // Chaos drill.
    let drill = chaos_drill();
    let drill_par = time_drill(&drill, threads);
    let drill_serial = time_drill(&drill, 1);
    let n_cells = drill.grid.len() as f64;
    eprintln!(
        "chaos drill: {:.1} cells/s at 1 thread, {:.1} at {threads}",
        n_cells / drill_serial,
        n_cells / drill_par,
    );

    let stages = stage_split();

    let entry = json!({
        "schema": "eta-bench-trajectory-v1",
        "bench": "sim",
        "label": label,
        "suite": "quick",
        "reps": REPS,
        "host_threads": threads,
        "host_cores": std::thread::available_parallelism().map_or(0, |n| n.get()),
        "sweep": {
            "cells": cell_rows,
            "wall_seconds_1_thread": sweep_serial,
            "wall_seconds_n_threads": sweep_par,
            "speedup": sweep_speedup,
        },
        "within_launch": {
            "dataset": heaviest.dataset,
            "algorithm": heaviest.alg.name(),
            "wall_seconds_1_thread": within_serial,
            "wall_seconds_n_threads": within_par,
            "speedup": within_serial / within_par,
        },
        "chaos_drill": {
            "cells": drill.grid.len(),
            "wall_seconds_1_thread": drill_serial,
            "wall_seconds_n_threads": drill_par,
            "cells_per_sec_1_thread": n_cells / drill_serial,
            "cells_per_sec_n_threads": n_cells / drill_par,
            "speedup": drill_serial / drill_par,
        },
        "stages": {
            "host_threads": 1,
            "cells": stages,
        },
        "wall_seconds_total": total.elapsed_secs(),
    });
    // lint: allow(L-PANIC): serializing a just-built Value cannot fail
    let rendered = serde_json::to_string_pretty(&entry).expect("render entry");
    // Indent the entry one level so it nests inside the top-level array.
    let indented: String = rendered
        .lines()
        .map(|l| format!("  {l}"))
        .collect::<Vec<_>>()
        .join("\n");

    // The trajectory is a top-level JSON array, append-only. The vendored
    // serde_json shim is emit-only (no parser), so appending is textual:
    // strip the closing bracket, splice the new entry, close again.
    let doc = match std::fs::read_to_string(&out) {
        Ok(prior) => {
            let trimmed = prior.trim_end();
            let Some(body) = trimmed.strip_suffix(']') else {
                eprintln!("error: {out} is not a JSON array; refusing to append");
                std::process::exit(2);
            };
            let body = body.trim_end().trim_end_matches(',');
            let sep = if body.trim_end().ends_with('[') {
                "\n"
            } else {
                ",\n"
            };
            format!("{body}{sep}{indented}\n]\n")
        }
        Err(_) => format!("[\n{indented}\n]\n"),
    };
    // lint: allow(L-PANIC): writing the trajectory is this binary's whole job
    std::fs::write(&out, doc).expect("write BENCH_sim.json");
    eprintln!("wrote {} ({:.1}s total)", out, total.elapsed_secs());
}
