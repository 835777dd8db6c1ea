//! `session-small`: a closed loop with one caller issuing a seeded stream of
//! single-source queries (round-robin BFS/SSSP/SSWP, demand transfer) to one
//! warm `Session` on the small weighted slashdot analog. Frontiers are tiny,
//! launches are many and short, the pages stay resident after the first
//! query and the working set fits the host caches, so per-launch and
//! per-iteration fixed costs dominate. UM faults and the adaptive transfer
//! policy are bypassed.

use crate::common::{
    label_digest, median, percentile, ratio, timed_passes, Args, Fingerprint, Outcome,
};
use crate::sweep::{add_kernel_counters, add_traversal_counters, fingerprint_run, pick_source};
use crate::trace::Tracer;
use eta_graph::generate::splitmix;
use eta_graph::{datasets, reference, Csr};
use eta_sim::KernelMetrics;
use etagraph::session::Session;
use etagraph::{Algorithm, EtaConfig};

/// Queries per pass: at least ten samples lie beyond the 90th percentile,
/// and each algorithm gets the same share.
pub const QUERIES: usize = 102;

/// The weighted slashdot analog and a seeded stream of queries from
/// sources of at least mean degree (inside the giant component).
fn generate(seed: u64) -> (Csr, Vec<(Algorithm, u32)>) {
    let csr = datasets::build("slashdot").weighted();
    let min_degree = csr.avg_degree().ceil() as u32;
    let queries = (0..QUERIES)
        .map(|i| {
            let alg = Algorithm::ALL[i % Algorithm::ALL.len()];
            (
                alg,
                pick_source(&csr, splitmix(seed, 300 + i as u64), min_degree),
            )
        })
        .collect();
    (csr, queries)
}

/// Set-ups per run (`setup_s` is their median); each takes only a few
/// hundredths of a second.
const SETUP_REPS: usize = 9;

pub fn run(args: &Args, tr: &mut Tracer) -> Outcome {
    let mut out = Outcome {
        op_name: "query",
        requests_per_op: 1.0,
        ..Outcome::default()
    };
    let cfg = EtaConfig::without_ump();
    for rep in 0..SETUP_REPS {
        let ((csr, queries), generated) =
            tr.timed_op("graph.generate", rep as u64, |_| generate(args.seed));
        let (session, prepared) =
            tr.timed_op("engine.prepare", rep as u64, |_| Session::new(&csr, cfg));
        out.setup.push(generated + prepared);
        let mut session = session.expect("the slashdot analog fits the default device");
        if rep + 1 == SETUP_REPS {
            timed(args, tr, &csr, &queries, &mut session, &mut out);
        }
    }
    out
}

fn timed(
    args: &Args,
    tr: &mut Tracer,
    csr: &Csr,
    queries: &[(Algorithm, u32)],
    session: &mut Session<'_>,
    out: &mut Outcome,
) {
    let mut labels: Vec<Vec<Option<u64>>> = Vec::new();
    let mut total_ns = Vec::new();
    let mut kernel_ns = 0;
    let mut metrics = KernelMetrics::default();
    let mut fp = Fingerprint::default();
    let mut um_first = None;
    let mut um_last = None;
    out.passes = timed_passes(tr, args, |tr, pass| {
        let mut pass_labels = Vec::with_capacity(queries.len());
        let mut op_times = Vec::with_capacity(queries.len());
        for (i, &(alg, source)) in queries.iter().enumerate() {
            let (r, t) = tr.timed_op("engine.query", i as u64, |_| session.query(alg, source));
            op_times.push(t);
            let Ok(r) = r else {
                pass_labels.push(None);
                continue;
            };
            if pass == 0 {
                total_ns.push(r.total_ns);
                kernel_ns += r.kernel_ns;
                metrics.merge(&r.metrics);
                add_traversal_counters(&mut out.layer, &r);
                fp.word(fingerprint_run(&r));
                if i == 0 {
                    um_first = Some(r.um_stats.clone());
                }
                um_last = Some(r.um_stats.clone());
            }
            pass_labels.push(Some(label_digest(&r.labels)));
        }
        labels.push(pass_labels);
        op_times
    });
    out.fingerprint = fp.value();

    for (i, &(alg, source)) in queries.iter().enumerate() {
        let (expected, _) = tr.span("verify.reference", i as u64, |_| match alg {
            Algorithm::Bfs => reference::bfs(csr, source),
            Algorithm::Sssp => reference::sssp(csr, source),
            _ => reference::sswp(csr, source),
        });
        let expected = label_digest(&expected);
        for pass in &labels {
            out.attempted += 1;
            if pass[i] != Some(expected) {
                out.failed += 1;
            }
        }
    }

    let sum: u64 = total_ns.iter().sum();
    let lat: Vec<f64> = total_ns.iter().map(|&ns| ns as f64 / 1e6).collect();
    out.sim.set("sim_total_ms", sum as f64 / 1e6, "ms");
    out.sim.set("sim_kernel_ms", kernel_ns as f64 / 1e6, "ms");
    out.sim.set("sim_latency_ms.p50", median(&lat), "ms");
    out.sim
        .set("sim_latency_ms.p95", percentile(&lat, 95.0), "ms");
    out.sim.set(
        "goodput_qps",
        ratio(lat.len() as f64, sum as f64 / 1e9),
        "1/s",
    );
    add_kernel_counters(&mut out.layer, &metrics);
    // The session's UM statistics accumulate over its lifetime; what the
    // queries after the first one migrated is the difference.
    if let (Some(a), Some(b)) = (um_first, um_last) {
        let l = &mut out.layer;
        l.count("um.faults", b.faults - a.faults);
        l.count("um.migrated_bytes", b.migrated_bytes - a.migrated_bytes);
        l.count(
            "um.prefetched_bytes",
            b.prefetched_bytes - a.prefetched_bytes,
        );
        l.count("um.evicted_pages", b.evicted_pages - a.evicted_pages);
        let batches = b.migration_batches.len() - a.migration_batches.len();
        l.set(
            "um.batch_avg_bytes",
            ratio((b.migrated_bytes - a.migrated_bytes) as f64, batches as f64),
            "B",
        );
    }
    out.layer
        .count("mem.zero_copy_bytes", session.device().mem.zero_copy_bytes);
    out.load = vec![
        ("loop", "closed, 1 caller".into()),
        ("queries_per_pass", queries.len().to_string()),
        ("graph_vertices", csr.n().to_string()),
        ("graph_edges", csr.m().to_string()),
    ];
}
