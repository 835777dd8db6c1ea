//! `serve-burst`: an open loop on the simulated clock. A two-state MMPP
//! trace (`Arrival::Burst`) of BFS requests over three R-MAT tenants, with
//! sources drawn from the workload seed, is served by a 2-device `Service` with batching and
//! `QosConfig::standard()`. The mean rate is the pool's calibrated capacity,
//! so 4x squalls overload the pool and 0.5x lulls drain it. This is the
//! only workload that drives the scheduler, qos, pool residency and the
//! batched multi-BFS kernel.

use crate::common::{median, percentile, ratio, timed_passes, Args, Fingerprint, Outcome};
use crate::sweep::pick_source;
use crate::trace::Tracer;
use eta_bench::chaos::verify;
use eta_graph::generate::{rmat, splitmix, RmatConfig};
use eta_mem::Ns;
use eta_serve::{
    poisson_trace, Arrival, GraphRegistry, Priority, QosConfig, Request, ServeConfig, ServeReport,
    Service, WorkloadConfig,
};
use std::collections::BTreeMap;

/// Requests in the trace.
pub const REQUESTS: u32 = 600;

/// Tenants: `(name, R-MAT scale, edge samples)`.
const TENANTS: [(&str, u32, usize); 3] =
    [("t0", 12, 40_000), ("t1", 13, 80_000), ("t2", 13, 120_000)];

/// Seed of the tenant graphs, the calibration burst and the arrival
/// schedule (arrival times, tenant and class of every request). The
/// squall/lull pattern of a 600-request MMPP trace is only ~25 squalls
/// long, so its realized mean rate, and with it the makespan and the host
/// work of a pass, differs by about a third between arrival seeds. One
/// fixed schedule keeps that out of the run-to-run spread; the workload
/// seed draws every request's source.
const SCHEDULE_SEED: u64 = 0x5e7e;

/// Interactive completion SLO: deadline = arrival + 1 ms. The SLO is a
/// fixed user requirement while the arrival rate follows the calibrated
/// capacity, so a slower modelled device shows up as missed deadlines.
const INTERACTIVE_SLO_NS: Ns = 1_000_000;

fn serve_config(qos: QosConfig) -> ServeConfig {
    ServeConfig {
        devices: 2,
        queue_capacity: 64,
        qos,
        ..ServeConfig::default()
    }
}

/// Pool capacity in requests per simulated second: a closed burst served
/// with qos off, completed over makespan.
fn calibrate(registry: &GraphRegistry, names: &[String]) -> f64 {
    let burst = WorkloadConfig {
        requests: 64,
        seed: SCHEDULE_SEED,
        rate_per_s: 10_000_000.0,
        interactive_fraction: 0.0,
        interactive_slo_ns: None,
        batch_slo_ns: None,
        timeout_ns: None,
        arrival: Arrival::Poisson,
    };
    let mut trace = poisson_trace(registry, names, &burst);
    draw_sources(registry, &mut trace, SCHEDULE_SEED);
    let report = Service::new(registry, serve_config(QosConfig::default())).run(&trace);
    report.completed as f64 / (report.makespan_ns.max(1) as f64 / 1e9)
}

/// Redraws every request's source from `seed`, among the vertices of at
/// least mean degree, so each request traverses its tenant's giant
/// component (as on the other workloads) instead of sometimes stopping at
/// an isolated vertex.
fn draw_sources(registry: &GraphRegistry, trace: &mut [Request], seed: u64) {
    for r in trace {
        let csr = registry
            .get(&r.graph)
            .expect("every trace tenant is registered");
        let min_degree = csr.avg_degree().ceil() as u32;
        r.source = pick_source(csr, splitmix(seed, 600 + u64::from(r.id)), min_degree);
    }
}

struct Setup {
    registry: GraphRegistry,
    trace: Vec<Request>,
    capacity_qps: f64,
}

fn setup(seed: u64, tr: &mut Tracer) -> Setup {
    let mut registry = GraphRegistry::new();
    for (i, &(name, scale, samples)) in TENANTS.iter().enumerate() {
        let (csr, _) = tr.span("graph.generate", i as u64, |_| {
            rmat(&RmatConfig::paper(
                scale,
                samples,
                splitmix(SCHEDULE_SEED, i as u64),
            ))
        });
        registry.insert(name, csr);
    }
    let names: Vec<String> = TENANTS.iter().map(|t| t.0.to_string()).collect();
    let (capacity_qps, _) = tr.span("serve.calibrate", 0, |_| calibrate(&registry, &names));
    let workload = WorkloadConfig {
        requests: REQUESTS,
        seed: SCHEDULE_SEED,
        rate_per_s: capacity_qps,
        arrival: Arrival::Burst,
        interactive_fraction: 0.5,
        interactive_slo_ns: Some(INTERACTIVE_SLO_NS),
        batch_slo_ns: None,
        timeout_ns: None,
    };
    let mut trace = poisson_trace(&registry, &names, &workload);
    draw_sources(&registry, &mut trace, seed);
    Setup {
        registry,
        trace,
        capacity_qps,
    }
}

/// Set-ups per run (`setup_s` is their median).
const SETUP_REPS: usize = 5;

pub fn run(args: &Args, tr: &mut Tracer) -> Outcome {
    let mut out = Outcome {
        op_name: "service run",
        requests_per_op: f64::from(REQUESTS),
        // Most of the set-up is the capacity calibration, a simulator run
        // on one thread, which slows down with the host like the
        // operations do.
        scale_setup: true,
        ..Outcome::default()
    };
    for rep in 0..SETUP_REPS {
        let (s, t) = tr.timed_op("setup", rep as u64, |tr| setup(args.seed, tr));
        out.setup.push(t);
        if rep + 1 == SETUP_REPS {
            timed(args, tr, &s, &mut out);
        }
    }
    out
}

fn ms(ns: Ns) -> f64 {
    ns as f64 / 1e6
}

/// FNV-1a digest of a report's JSON serialization.
fn report_fingerprint(r: &ServeReport) -> u64 {
    let mut fp = Fingerprint::default();
    fp.bytes(
        serde_json::to_string(r)
            .expect("a report always serializes")
            .as_bytes(),
    );
    fp.value()
}

fn timed(args: &Args, tr: &mut Tracer, s: &Setup, out: &mut Outcome) {
    // The first pass's report, and every pass's fingerprint: a later pass
    // with the first one's fingerprint served byte-for-byte the same
    // report, so only the first is kept (peak memory stays independent of
    // the number of passes).
    let mut first: Option<ServeReport> = None;
    let mut fingerprints: Vec<u64> = Vec::new();
    let cfg = serve_config(QosConfig::standard());
    out.passes = timed_passes(tr, args, |tr, pass| {
        let (report, t) = tr.timed_op("serve.run", pass as u64, |_| {
            Service::new(&s.registry, cfg.clone()).run(&s.trace)
        });
        fingerprints.push(report_fingerprint(&report));
        first.get_or_insert(report);
        vec![t]
    });
    let r = &first.expect("at least two passes ran");

    // Verification: every request id completed or rejected exactly once,
    // every completed level array equal to the CPU reference, and every
    // pass byte-identical to the first.
    let mut memo = BTreeMap::new();
    let (v, _) = tr.span("verify.reference", 0, |_| {
        verify(&s.registry, &s.trace, r, &mut memo)
    });
    for fp in &fingerprints {
        out.attempted += s.trace.len() as u64;
        out.failed += if *fp == fingerprints[0] {
            (v.lost.len() + v.wrong.len()) as u64
        } else {
            s.trace.len() as u64
        };
    }
    out.fingerprint = fingerprints[0];

    let sent = s.trace.len() as f64;
    let lat: Vec<f64> = r.records.iter().map(|x| ms(x.latency_ns)).collect();
    // Each rider carries its batch's kernel time; split it evenly so the
    // sum counts every batch's kernels once.
    let kernel_ms: f64 = r
        .records
        .iter()
        .map(|x| ms(x.compute_ns) / f64::from(x.batch_size.max(1)))
        .sum();
    out.sim.set("sim_total_ms", ms(r.makespan_ns), "ms");
    out.sim.set("sim_kernel_ms", kernel_ms, "ms");
    out.sim.set("sim_latency_ms.p50", median(&lat), "ms");
    out.sim
        .set("sim_latency_ms.p95", percentile(&lat, 95.0), "ms");
    out.sim.set("goodput_qps", r.goodput_qps(), "1/s");

    // Interactive deadlines met over interactive requests *sent*: a
    // rejected request misses its deadline. `ServeReport::slo_attainment`
    // counts completed requests only.
    let interactive = s
        .trace
        .iter()
        .filter(|q| q.class == Priority::Interactive)
        .count();
    let met = r
        .records
        .iter()
        .filter(|x| x.class == Priority::Interactive && x.deadline_met == Some(true))
        .count();
    out.extra.set(
        "slo_attainment",
        ratio(met as f64, interactive as f64),
        "ratio",
    );
    out.extra
        .set("reject_rate", ratio(r.rejected as f64, sent), "ratio");

    let l = &mut out.layer;
    l.count("serve.batches", r.batches.len() as u64);
    l.set("serve.batch_size.mean", r.mean_batch_size(), "count");
    let waits: Vec<f64> = r.records.iter().map(|x| ms(x.queue_wait_ns)).collect();
    let transfers: Vec<f64> = r.records.iter().map(|x| ms(x.transfer_ns)).collect();
    let computes: Vec<f64> = r.records.iter().map(|x| ms(x.compute_ns)).collect();
    l.set("serve.queue_wait_ms.p50", percentile(&waits, 50.0), "ms");
    l.set("serve.queue_wait_ms.p95", percentile(&waits, 95.0), "ms");
    l.set("serve.transfer_ms.p50", percentile(&transfers, 50.0), "ms");
    l.set("serve.compute_ms.p50", percentile(&computes, 50.0), "ms");
    l.count(
        "serve.uploads",
        r.devices.iter().map(|d| u64::from(d.uploads)).sum(),
    );
    l.count(
        "serve.evictions",
        r.devices.iter().map(|d| u64::from(d.evictions)).sum(),
    );
    let util: Vec<f64> = r.devices.iter().map(|d| d.utilization).collect();
    l.set(
        "serve.utilization.mean",
        ratio(util.iter().sum(), util.len() as f64),
        "ratio",
    );
    for reason in [
        "queue_full",
        "deadline_infeasible",
        "shed_overload",
        "tenant_throttled",
    ] {
        let n = r
            .rejections
            .iter()
            .filter(|x| x.reason.name() == reason)
            .count();
        l.count(format!("serve.rejected.{reason}"), n as u64);
    }
    let qos = r.qos.clone().unwrap_or_default();
    l.count("qos.brownout_batches", u64::from(qos.brownout_batches));
    l.count("qos.max_queue_depth", u64::from(qos.max_queue_depth));

    out.load = vec![
        ("loop", "open, MMPP trace precomputed before the timed phase (the generator cannot run late: 0 ms)".into()),
        ("requests", s.trace.len().to_string()),
        ("interactive_requests", interactive.to_string()),
        ("capacity_qps", format!("{:.1}", s.capacity_qps)),
        ("mean_rate_qps", format!("{:.1}", s.capacity_qps)),
        ("interactive_slo_ms", format!("{:.4}", ms(INTERACTIVE_SLO_NS))),
        ("devices", "2".into()),
    ];
}
