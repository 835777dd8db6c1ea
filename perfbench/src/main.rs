//! The repository benchmark. Runs one named workload against the public
//! APIs of `etagraph`, `eta-shard` and `eta-serve`, checks every answer
//! against the `eta-graph` CPU reference, and prints the end-to-end metrics
//! (`--trace 0`) or the per-layer metrics (`--trace 1`), ending with one
//! JSON line. See README.md in this directory.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload sweep-large --seed 1 --seconds 15 --trace 0
//! ```

mod common;
mod serve;
mod session;
mod speed;
mod sweep;
mod trace;

use common::{middle, op_medians, percentile, ratio, Args, Metrics, Outcome};
use serde_json::{json, Value};
use std::collections::BTreeMap;
use trace::Tracer;

const WORKLOADS: [&str; 3] = ["sweep-large", "session-small", "serve-burst"];

/// End-to-end metrics, reported on every workload by untraced runs and
/// gated by `BENCHMARK.json`.
const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("sim_total_ms", "ms"),
    ("sim_kernel_ms", "ms"),
    ("sim_latency_ms.p50", "ms"),
    ("sim_latency_ms.p95", "ms"),
    ("goodput_qps", "1/s"),
];

/// Per-layer metrics, reported on every workload by traced runs (0 where a
/// layer is not on the workload's path).
const PER_LAYER: [(&str, &str); 64] = [
    ("graph.generate_s", "s"),
    ("verify.reference_s", "s"),
    ("engine.prepare_s", "s"),
    ("engine.query_s", "s"),
    ("engine.iterations", "count"),
    ("engine.host_ms_per_iteration", "ms"),
    ("udc.shadows_full", "count"),
    ("udc.shadows_partial", "count"),
    ("sim.instructions", "count"),
    ("sim.warps", "count"),
    ("sim.l1_requests", "count"),
    ("sim.l2_requests", "count"),
    ("sim.dram_transactions", "count"),
    ("sim.atomics", "count"),
    ("sim.shared_accesses", "count"),
    ("sim.ipc", "ratio"),
    ("sim.l1_hit_rate", "ratio"),
    ("sim.l2_hit_rate", "ratio"),
    ("sim.host_ns_per_instruction", "ns"),
    ("sim.host_ns_per_l2_request", "ns"),
    ("sim.host_us_per_warp", "us"),
    ("um.faults", "count"),
    ("um.migrated_bytes", "B"),
    ("um.prefetched_bytes", "B"),
    ("um.evicted_pages", "count"),
    ("um.batch_avg_bytes", "B"),
    ("transfer.overlap_fraction", "ratio"),
    ("adaptive.groups_demand", "count"),
    ("adaptive.groups_prefetch", "count"),
    ("adaptive.groups_zerocopy", "count"),
    ("adaptive.escalations", "count"),
    ("mem.zero_copy_bytes", "B"),
    ("shard.partition_s", "s"),
    ("shard.run_s", "s"),
    ("shard.supersteps", "count"),
    ("shard.exchanged_bytes", "B"),
    ("serve.calibrate_s", "s"),
    ("serve.run_s", "s"),
    ("serve.batches", "count"),
    ("serve.batch_size.mean", "count"),
    ("serve.host_ms_per_batch", "ms"),
    ("serve.queue_wait_ms.p50", "ms"),
    ("serve.queue_wait_ms.p95", "ms"),
    ("serve.transfer_ms.p50", "ms"),
    ("serve.compute_ms.p50", "ms"),
    ("serve.uploads", "count"),
    ("serve.evictions", "count"),
    ("serve.utilization.mean", "ratio"),
    ("serve.rejected.queue_full", "count"),
    ("serve.rejected.deadline_infeasible", "count"),
    ("serve.rejected.shed_overload", "count"),
    ("serve.rejected.tenant_throttled", "count"),
    ("qos.brownout_batches", "count"),
    ("qos.max_queue_depth", "count"),
    ("trace.overhead_s", "s"),
    ("bench.setup_self_s", "s"),
    ("bench.pass_self_s", "s"),
    ("cell.livejournal.bfs.demand.host_s", "s"),
    ("cell.livejournal.sssp.demand.host_s", "s"),
    ("cell.livejournal.sssp.adaptive.host_s", "s"),
    ("cell.orkut.bfs.demand.host_s", "s"),
    ("cell.orkut.sssp.demand.host_s", "s"),
    ("cell.orkut.sssp.adaptive.host_s", "s"),
    ("cell.orkut.bfs.sharded2.host_s", "s"),
];

fn main() {
    let mut tr = Tracer::started();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match Args::parse(&argv) {
        Ok(a) if WORKLOADS.contains(&a.workload.as_str()) => a,
        Ok(a) => usage(&format!("unknown workload {:?}", a.workload)),
        Err(e) => usage(&e),
    };
    tr.set_recording(args.trace);
    let mut out = match args.workload.as_str() {
        "sweep-large" => sweep::run(&args, &mut tr),
        "session-small" => session::run(&args, &mut tr),
        _ => serve::run(&args, &mut tr),
    };
    let metrics = if args.trace {
        per_layer(&tr, &out)
    } else {
        end_to_end(&tr, &mut out)
    };
    print_report(&args, &out, &metrics);
    if args.trace {
        write_trace(&args, &tr);
    }
    let mut m = serde_json::Map::new();
    for (name, (value, unit)) in &metrics.0 {
        m.insert(name.clone(), json!({"value": value, "unit": unit}));
    }
    let line = json!({
        "correct": out.failed == 0,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": Value::Object(m),
    });
    println!("{line}");
    if out.failed > 0 {
        std::process::exit(1);
    }
}

fn usage(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload {{{}}} --seed N --seconds S --trace {{0|1}}",
        WORKLOADS.join("|")
    );
    std::process::exit(2);
}

fn end_to_end(tr: &Tracer, out: &mut Outcome) -> Metrics {
    let mut m = Metrics::default();
    let setup_measured: Vec<f64> = out.setup.iter().map(|t| t.measured).collect();
    let setup_nominal: Vec<f64> = out.setup.iter().map(|t| t.nominal).collect();
    let setup = if out.scale_setup {
        &setup_nominal
    } else {
        &setup_measured
    };
    m.set("setup_s", middle(setup), "s");
    let per_op = op_medians(&out.passes.ops);
    m.set("wall_s", per_op.iter().map(|t| t.nominal).sum(), "s");
    // The same two as measured, before scaling to nominal host speed.
    out.extra
        .set("setup_measured_s", middle(&setup_measured), "s");
    out.extra.set(
        "wall_measured_s",
        per_op.iter().map(|t| t.measured).sum(),
        "s",
    );
    // Host time per operation is printed but not gated: on sweep-large the
    // seven cells differ in cost, so which one is the median moves with
    // the seed.
    let op_ms: Vec<f64> = per_op
        .iter()
        .map(|t| t.nominal * 1e3 / out.requests_per_op)
        .collect();
    out.extra.set("op_host_ms.p50", middle(&op_ms), "ms");
    out.extra
        .set("op_host_ms.p90", percentile(&op_ms, 90.0), "ms");
    m.set("peak_rss_mb", tr.peak_rss_mb(), "MiB");
    for (name, v) in &out.sim.0 {
        m.0.insert(name.clone(), *v);
    }
    check_names(&m, END_TO_END.iter().map(|e| e.0));
    m
}

/// Host seconds per span name: spans inside a traced pass are averaged
/// over the traced passes, set-up spans over the set-ups, and the
/// reference computations (done once) are summed.
fn span_seconds(tr: &Tracer, traced_passes: usize, setups: usize) -> BTreeMap<&'static str, f64> {
    let spans = tr.spans();
    let in_pass = |mut i: usize| loop {
        if spans[i].name == "pass" {
            return true;
        }
        match spans[i].parent {
            Some(p) => i = p,
            None => return false,
        }
    };
    let mut out: BTreeMap<&'static str, f64> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        let per = if in_pass(i) {
            traced_passes as f64
        } else if s.name == "verify.reference" {
            1.0
        } else {
            setups as f64
        };
        *out.entry(s.name).or_default() += (s.end - s.start) / per;
    }
    out
}

fn per_layer(tr: &Tracer, out: &Outcome) -> Metrics {
    let host = span_seconds(tr, out.passes.traced.len(), out.setup.len());
    let secs = |name: &str| host.get(name).copied().unwrap_or(0.0);
    let mut m = out.layer.clone();
    for name in [
        "graph.generate",
        "verify.reference",
        "engine.prepare",
        "engine.query",
        "shard.partition",
        "shard.run",
        "serve.calibrate",
        "serve.run",
    ] {
        m.set(format!("{name}_s"), secs(name), "s");
    }
    for cell in sweep::cell_spans() {
        m.set(format!("{cell}.host_s"), secs(cell), "s");
    }
    let traversal_s = secs("engine.query") + secs("shard.run");
    m.set(
        "engine.host_ms_per_iteration",
        ratio(secs("engine.query") * 1e3, m.get("engine.iterations")),
        "ms",
    );
    m.set(
        "sim.host_ns_per_instruction",
        ratio(traversal_s * 1e9, m.get("sim.instructions")),
        "ns",
    );
    m.set(
        "sim.host_ns_per_l2_request",
        ratio(traversal_s * 1e9, m.get("sim.l2_requests")),
        "ns",
    );
    m.set(
        "sim.host_us_per_warp",
        ratio(traversal_s * 1e6, m.get("sim.warps")),
        "us",
    );
    m.set(
        "serve.host_ms_per_batch",
        ratio(secs("serve.run") * 1e3, m.get("serve.batches")),
        "ms",
    );
    let nominal_wall = |passes| op_medians(passes).iter().map(|t| t.nominal).sum::<f64>();
    m.set(
        "trace.overhead_s",
        nominal_wall(&out.passes.traced_ops) - nominal_wall(&out.passes.ops),
        "s",
    );
    let totals = tr.totals();
    let own = |name: &str| totals.get(name).map_or(0.0, |t| t.1);
    m.set(
        "bench.setup_self_s",
        ratio(own("setup"), out.setup.len() as f64),
        "s",
    );
    m.set(
        "bench.pass_self_s",
        ratio(own("pass"), out.passes.traced.len() as f64),
        "s",
    );
    // Every declared metric is present on every workload, with the
    // declared unit.
    let mut full = Metrics::default();
    for &(name, unit) in PER_LAYER.iter() {
        full.set(name, m.get(name), unit);
    }
    check_names(&full, m.0.keys().map(String::as_str));
    full
}

/// Panics if `m` lacks any of `names`: a workload that reports a metric
/// the benchmark does not declare (or the reverse) is a bug here.
fn check_names<'a>(m: &Metrics, names: impl Iterator<Item = &'a str>) {
    for n in names {
        assert!(m.0.contains_key(n), "metric {n} is not declared");
    }
}

fn print_report(args: &Args, out: &Outcome, metrics: &Metrics) {
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    let sim_threads = eta_sim::GpuConfig::default_preset().host_threads;
    println!(
        "perfbench {} seed={} seconds={} trace={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!(
        "load: host_cores={cores} benchmark_threads=1 sim_host_threads={sim_threads} seed={} \
         setups={} passes={} (untraced {}, traced {}) ops_per_pass={} (op: {})",
        args.seed,
        out.setup.len(),
        out.passes.untraced.len() + out.passes.traced.len(),
        out.passes.untraced.len(),
        out.passes.traced.len(),
        out.passes.ops.first().map_or(0, Vec::len),
        out.op_name
    );
    let setup: Vec<f64> = out.setup.iter().map(|t| t.measured).collect();
    println!(
        "host (measured): set-up s {:?}; untraced pass wall s {:?}; traced pass wall s {:?}",
        setup, out.passes.untraced, out.passes.traced
    );
    println!(
        "host: operation times{} are scaled to nominal speed by a reference kernel timed \
         around each one (src/speed.rs); pass walls include those probes",
        if out.scale_setup {
            " and set-up times"
        } else {
            ""
        }
    );
    for (k, v) in &out.load {
        println!("load: {k}={v}");
    }
    println!("simulated-clock fingerprint: {:016x}", out.fingerprint);
    println!(
        "verification: {} attempted, {} failed, error_rate={} ratio",
        out.attempted,
        out.failed,
        ratio(out.failed as f64, out.attempted as f64)
    );
    if !args.trace {
        for (name, (value, unit)) in &out.extra.0 {
            println!("end-to-end (printed, not gated): {name} = {value} {unit}");
        }
    }
    let kind = if args.trace {
        "per-layer"
    } else {
        "end-to-end"
    };
    for (name, (value, unit)) in &metrics.0 {
        println!("{kind}: {name} = {value} {unit}");
    }
}

/// Writes every recorded span to `traces/<workload>-seed<N>.json` in this
/// package's directory.
fn write_trace(args: &Args, tr: &Tracer) {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("traces");
    let path = dir.join(format!("{}-seed{}.json", args.workload, args.seed));
    let text = serde_json::to_string(&tr.to_json()).expect("a span list always serializes");
    match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, text)) {
        Ok(()) => println!(
            "trace: {} spans written to {}",
            tr.spans().len(),
            path.display()
        ),
        Err(e) => eprintln!("perfbench: writing {}: {e}", path.display()),
    }
}
