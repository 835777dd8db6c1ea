//! The `chaos` artifact: a deterministic chaos-soak sweep proving the
//! checkpoint/resume recovery ladder loses nothing and answers nothing
//! wrong.
//!
//! The sweep crosses seeded fault plans (each seed expands to a different
//! mix of ECC, UM, hang, and PCIe events, plus one guaranteed mid-traversal
//! hang window) with checkpoint intervals (0 = checkpointing off, the
//! restart-from-scratch ladder). Every completed request in every cell is
//! differentially verified against the CPU reference via its full level
//! digest, and every trace id must be accounted for exactly once across
//! records and rejections. A failing cell is shrunk to a minimal
//! reproducing plan with [`shrink_plan`] before it is reported.
//!
//! Everything is simulated and seeded, so the artifact — including the
//! checkpoint-interval vs makespan tradeoff curve — is byte-identical
//! across reruns.

use crate::suite::Suite;
use crate::tables::Artifact;
use crate::text;
use eta_ckpt::digest_words;
use eta_fault::{FaultPlan, HangFault};
use eta_graph::generate::{rmat, RmatConfig};
use eta_graph::reference;
use eta_serve::{
    poisson_trace, Arrival, GraphRegistry, Policy, Request, ServeConfig, ServeReport, Service,
    WorkloadConfig,
};
use serde_json::{json, Value};
use std::collections::BTreeMap;

/// Checkpoint intervals swept per fault plan; 0 is the no-checkpoint
/// baseline every other column is compared against.
pub const INTERVALS: [u32; 4] = [0, 2, 4, 8];

/// Outcome of differentially verifying one served run.
#[derive(Debug, Clone, Default)]
pub struct Verification {
    /// Request ids missing from (or duplicated across) records+rejections.
    pub lost: Vec<u32>,
    /// Completed request ids whose level digest disagrees with the CPU
    /// reference.
    pub wrong: Vec<u32>,
}

impl Verification {
    pub fn clean(&self) -> bool {
        self.lost.is_empty() && self.wrong.is_empty()
    }
}

/// Checks a report against the ground truth: every trace id accounted for
/// exactly once, and every completed answer's level digest equal to the
/// CPU reference's. Reference digests are memoized per (graph, source), so
/// a sweep pays for each distinct traversal once.
pub fn verify(
    registry: &GraphRegistry,
    trace: &[Request],
    report: &ServeReport,
    memo: &mut BTreeMap<(String, u32), u64>,
) -> Verification {
    let mut v = Verification::default();
    let mut seen: BTreeMap<u32, u32> = BTreeMap::new();
    for r in &report.records {
        *seen.entry(r.id).or_insert(0) += 1;
    }
    for r in &report.rejections {
        *seen.entry(r.id).or_insert(0) += 1;
    }
    for req in trace {
        if seen.get(&req.id).copied().unwrap_or(0) != 1 {
            v.lost.push(req.id);
        }
    }
    for r in &report.records {
        let expected = *memo.entry((r.graph.clone(), r.source)).or_insert_with(|| {
            let csr = registry.get(&r.graph).expect("graph registered");
            digest_words(&[&reference::bfs(csr, r.source)])
        });
        if r.levels_digest != expected {
            v.wrong.push(r.id);
        }
    }
    v
}

fn section_len(plan: &FaultPlan, section: usize) -> usize {
    match section {
        0 => plan.ecc.len(),
        1 => plan.um.len(),
        2 => plan.hangs.len(),
        _ => plan.pcie.len(),
    }
}

fn drop_one(plan: &FaultPlan, section: usize, idx: usize) -> FaultPlan {
    let mut out = plan.clone();
    match section {
        0 => {
            out.ecc.remove(idx);
        }
        1 => {
            out.um.remove(idx);
        }
        2 => {
            out.hangs.remove(idx);
        }
        _ => {
            out.pcie.remove(idx);
        }
    }
    out
}

/// Greedy event-level ddmin: repeatedly drops single events while the
/// failure predicate keeps failing, until no single drop preserves the
/// failure. The result is 1-minimal — removing any one remaining event
/// makes the failure disappear — which is what a human debugging a chaos
/// finding wants to start from.
pub fn shrink_plan<F: Fn(&FaultPlan) -> bool>(plan: &FaultPlan, still_fails: F) -> FaultPlan {
    let mut cur = plan.clone();
    let mut progressed = true;
    while progressed {
        progressed = false;
        for section in 0..4usize {
            let mut idx = 0;
            while idx < section_len(&cur, section) {
                let cand = drop_one(&cur, section, idx);
                if still_fails(&cand) {
                    cur = cand;
                    progressed = true;
                } else {
                    idx += 1;
                }
            }
        }
    }
    cur
}

/// One sweep cell: a (fault seed, checkpoint interval) pair and what
/// serving the trace under it produced.
struct Cell {
    seed: u64,
    interval: u32,
    report: ServeReport,
    verification: Verification,
}

/// Serves one trace under one plan/interval pair.
fn run_cell(
    registry: &GraphRegistry,
    trace: &[Request],
    plan: &FaultPlan,
    interval: u32,
) -> ServeReport {
    let cfg = ServeConfig {
        devices: 2,
        faults: plan.clone(),
        checkpoint_interval: interval,
        ..ServeConfig::default()
    };
    Service::new(registry, cfg).run(trace)
}

/// The chaos sweep. Each seed's plan is `FaultPlan::seeded` over the clean
/// run's serving window, plus one guaranteed hang window on device 0 whose
/// 50 µs budget passes small-frontier kernels and kills the peak-frontier
/// one — a mid-traversal fault with snapshots already taken, exercising
/// resume (and migration, when device 0 is still cooling off) rather than
/// only the fault-before-first-snapshot path.
pub fn chaos(suite: Suite) -> Artifact {
    let (scale, edges, requests, seeds): (u32, usize, u32, &[u64]) = match suite {
        Suite::Quick => (10, 8_000, 40, &[101, 202]),
        Suite::Full => (12, 32_000, 120, &[101, 202, 303]),
    };
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
    let clean = run_cell(&registry, &trace, &FaultPlan::default(), 0);
    let horizon = clean.makespan_ns.max(1);

    let plan_for = |seed: u64| {
        let mut plan = FaultPlan::seeded(seed, 2, horizon);
        plan.hangs.push(HangFault {
            device: 0,
            start_ns: 0,
            end_ns: horizon,
            budget_ns: 50_000,
        });
        plan
    };

    let mut memo: BTreeMap<(String, u32), u64> = BTreeMap::new();
    let mut cells: Vec<Cell> = Vec::new();
    let mut failures: Vec<Value> = Vec::new();
    for &seed in seeds {
        let plan = plan_for(seed);
        for interval in INTERVALS {
            let report = run_cell(&registry, &trace, &plan, interval);
            let verification = verify(&registry, &trace, &report, &mut memo);
            if !verification.clean() {
                // Shrink to a minimal reproducer before reporting: the
                // memo is shared, so re-verification is cheap.
                let shrunk = shrink_plan(&plan, |cand| {
                    let r = run_cell(&registry, &trace, cand, interval);
                    let mut m = memo.clone();
                    !verify(&registry, &trace, &r, &mut m).clean()
                });
                failures.push(json!({
                    "seed": seed,
                    "interval": interval,
                    "lost": verification.lost,
                    "wrong": verification.wrong,
                    "minimal_plan": shrunk,
                }));
            }
            cells.push(Cell {
                seed,
                interval,
                report,
                verification,
            });
        }
    }

    // Device-group drill: the same tenants served by 2-member *groups*
    // (sharded traversal) from a 3-device pool, with one member hanging
    // permanently mid-query. Per-launch fault installation re-arms the
    // window every attempt, so recovery cannot come from waiting the fault
    // out — the ladder must quarantine the member and regroup the query on
    // the remaining healthy pair, resuming from its group-shape-agnostic
    // snapshot. Differentially verified like every other cell.
    let group_plan = FaultPlan {
        hangs: vec![HangFault {
            device: 1,
            start_ns: 0,
            end_ns: u64::MAX,
            budget_ns: 40_000,
        }],
        ..FaultPlan::default()
    };
    let group_trace = poisson_trace(
        &registry,
        &names,
        &WorkloadConfig {
            requests: 12,
            seed: 9,
            ..workload.clone()
        },
    );
    // Sharded launches serve one query each in arrival order.
    let group_report = Service::new(
        &registry,
        ServeConfig {
            devices: 3,
            group_size: 2,
            quarantine_after: 1,
            faults: group_plan,
            checkpoint_interval: 2,
            policy: Policy::Fifo,
            ..ServeConfig::default()
        },
    )
    .run(&group_trace);
    let group_verification = verify(&registry, &group_trace, &group_report, &mut memo);
    let regrouped = group_report
        .groups
        .iter()
        .filter(|g| g.devices != vec![0, 1])
        .map(|g| g.queries)
        .sum::<u32>();

    // The tradeoff curve: per interval, mean makespan and total recovery
    // traffic across every seeded plan. Restart-from-scratch is the
    // interval-0 row; the others show what snapshot overhead buys back.
    let curve: Vec<Value> = INTERVALS
        .iter()
        .map(|&interval| {
            let of: Vec<&Cell> = cells.iter().filter(|c| c.interval == interval).collect();
            let mean_makespan =
                of.iter().map(|c| c.report.makespan_ns).sum::<u64>() as f64 / of.len() as f64;
            json!({
                "interval": interval,
                "mean_makespan_ms": mean_makespan / 1e6,
                "resumes": of.iter().map(|c| c.report.resumes).sum::<u32>(),
                "migrations": of.iter().map(|c| c.report.migrations).sum::<u32>(),
                "checkpoints": of.iter().map(|c| c.report.checkpoints).sum::<u32>(),
                "work_saved_iterations":
                    of.iter().map(|c| c.report.work_saved_iterations).sum::<u64>(),
                "degraded": of.iter().map(|c| c.report.degraded).sum::<u32>(),
            })
        })
        .collect();

    let rows: Vec<Vec<String>> = cells
        .iter()
        .map(|c| {
            vec![
                c.seed.to_string(),
                c.interval.to_string(),
                c.report.completed.to_string(),
                c.report.rejected.to_string(),
                c.report.degraded.to_string(),
                c.report.fault_events.len().to_string(),
                c.report.resumes.to_string(),
                c.report.migrations.to_string(),
                c.report.work_saved_iterations.to_string(),
                format!("{:.3}", c.report.makespan_ns as f64 / 1e6),
                c.verification.lost.len().to_string(),
                c.verification.wrong.len().to_string(),
            ]
        })
        .collect();
    let mut body = text::table(
        &[
            "seed",
            "interval",
            "completed",
            "rejected",
            "degraded",
            "faults",
            "resumes",
            "migrations",
            "work saved",
            "makespan (ms)",
            "lost",
            "wrong",
        ],
        &rows,
    );
    body.push_str(
        "\ncheckpoint-interval tradeoff (mean across seeds; interval 0 = restart-from-scratch):\n",
    );
    let curve_rows: Vec<Vec<String>> = curve
        .iter()
        .map(|c| {
            vec![
                c["interval"].to_string(),
                format!("{:.3}", c["mean_makespan_ms"].as_f64().unwrap()),
                c["resumes"].to_string(),
                c["migrations"].to_string(),
                c["checkpoints"].to_string(),
                c["work_saved_iterations"].to_string(),
                c["degraded"].to_string(),
            ]
        })
        .collect();
    body.push_str(&text::table(
        &[
            "interval",
            "mean makespan (ms)",
            "resumes",
            "migrations",
            "checkpoints",
            "work saved",
            "degraded",
        ],
        &curve_rows,
    ));
    body.push_str(&format!(
        "\ndevice-group drill (3-device pool, groups of 2, member 1 permanently hung):\n\
         {} queries: {} completed, {} degraded, {} quarantine(s), \
         {} resume(s), {} served on a regrouped set\n",
        group_trace.len(),
        group_report.completed,
        group_report.degraded,
        group_report.quarantines.len(),
        group_report.resumes,
        regrouped,
    ));
    let total_lost: usize = cells
        .iter()
        .map(|c| c.verification.lost.len())
        .sum::<usize>()
        + group_verification.lost.len();
    let total_wrong: usize = cells
        .iter()
        .map(|c| c.verification.wrong.len())
        .sum::<usize>()
        + group_verification.wrong.len();
    body.push_str(&format!(
        "\nverification: {} cells + the group drill, {} lost, {} wrong (every completed answer checked against the CPU reference)\n",
        cells.len(),
        total_lost,
        total_wrong
    ));

    let cell_json: Vec<Value> = cells
        .iter()
        .map(|c| {
            json!({
                "seed": c.seed,
                "interval": c.interval,
                "completed": c.report.completed,
                "rejected": c.report.rejected,
                "degraded": c.report.degraded,
                "fault_events": c.report.fault_events.len(),
                "quarantines": c.report.quarantines.len(),
                "checkpoints": c.report.checkpoints,
                "resumes": c.report.resumes,
                "migrations": c.report.migrations,
                "work_saved_iterations": c.report.work_saved_iterations,
                "makespan_ms": c.report.makespan_ns as f64 / 1e6,
                "lost": c.verification.lost,
                "wrong": c.verification.wrong,
            })
        })
        .collect();

    Artifact {
        name: "chaos",
        title: format!(
            "Chaos soak: {requests} Poisson requests over 2 tenants, {} fault seeds x {} checkpoint intervals",
            seeds.len(),
            INTERVALS.len()
        ),
        text: body,
        json: json!({
            "requests": requests,
            "workload_seed": workload.seed,
            "fault_seeds": seeds,
            "intervals": INTERVALS,
            "horizon_ns": horizon,
            "cells": cell_json,
            "curve": curve,
            "group_drill": {
                "queries": group_trace.len(),
                "completed": group_report.completed,
                "degraded": group_report.degraded,
                "quarantines": group_report.quarantines.len(),
                "checkpoints": group_report.checkpoints,
                "resumes": group_report.resumes,
                "migrations": group_report.migrations,
                "regrouped_queries": regrouped,
                "groups": group_report.groups,
                "lost": group_verification.lost,
                "wrong": group_verification.wrong,
            },
            "verification": { "lost": total_lost, "wrong": total_wrong },
            "failures": failures,
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chaos_sweep_loses_nothing_and_answers_nothing_wrong() {
        let a = chaos(Suite::Quick);
        assert_eq!(a.name, "chaos");
        assert_eq!(a.json["verification"]["lost"], 0);
        assert_eq!(a.json["verification"]["wrong"], 0);
        assert!(a.json["failures"].as_array().unwrap().is_empty());
        // The guaranteed mid-traversal hang makes the checkpoint machinery
        // actually fire somewhere in the sweep.
        let resumes: u64 = a.json["curve"]
            .as_array()
            .unwrap()
            .iter()
            .map(|c| c["resumes"].as_u64().unwrap())
            .sum();
        assert!(
            resumes > 0,
            "the sweep must exercise resume-from-checkpoint"
        );
        // Interval 0 rows exist and report no checkpoint traffic.
        let zero = &a.json["curve"].as_array().unwrap()[0];
        assert_eq!(zero["interval"], 0);
        assert_eq!(zero["checkpoints"], 0);
        assert_eq!(zero["resumes"], 0);
        // The group drill: every query completes on devices (no CPU
        // fallback) despite the permanently hung member, the member is
        // quarantined, and at least one query finishes on a regrouped set.
        let g = &a.json["group_drill"];
        assert_eq!(g["completed"], g["queries"], "group drill: 0 lost");
        assert_eq!(g["degraded"], 0, "answered on devices, not the CPU");
        assert!(g["quarantines"].as_u64().unwrap() >= 1);
        assert!(g["regrouped_queries"].as_u64().unwrap() >= 1);
        assert!(g["lost"].as_array().unwrap().is_empty());
        assert!(g["wrong"].as_array().unwrap().is_empty());
    }

    #[test]
    fn chaos_artifact_is_deterministic() {
        let a = chaos(Suite::Quick);
        let b = chaos(Suite::Quick);
        assert_eq!(
            serde_json::to_string(&a.json).unwrap(),
            serde_json::to_string(&b.json).unwrap(),
            "same seeds, same bytes"
        );
    }

    #[test]
    fn shrinker_reaches_a_one_minimal_plan() {
        // Artificial predicate: the failure persists while the plan still
        // has >= 1 hang AND >= 1 double-bit ECC event. The minimal
        // reproducer is exactly one of each.
        let mut plan = FaultPlan::seeded(9, 2, 1_000_000);
        for d in 0..3 {
            plan.hangs.push(HangFault {
                device: d,
                start_ns: 0,
                end_ns: 1000,
                budget_ns: 10,
            });
        }
        plan.ecc.iter_mut().for_each(|e| e.double_bit = true);
        let fails = |p: &FaultPlan| !p.hangs.is_empty() && p.ecc.iter().any(|e| e.double_bit);
        assert!(fails(&plan));
        let min = shrink_plan(&plan, fails);
        assert!(fails(&min), "shrinking preserves the failure");
        assert_eq!(min.hangs.len(), 1);
        assert_eq!(min.ecc.len(), 1);
        assert!(min.um.is_empty() && min.pcie.is_empty());
    }

    #[test]
    fn verifier_flags_lost_and_wrong_answers() {
        let mut registry = GraphRegistry::new();
        registry.insert("g", rmat(&RmatConfig::paper(8, 2_000, 1)));
        let names = vec!["g".to_string()];
        let trace = poisson_trace(
            &registry,
            &names,
            &WorkloadConfig {
                requests: 6,
                ..WorkloadConfig::default()
            },
        );
        let mut report = Service::new(&registry, ServeConfig::default()).run(&trace);
        let mut memo = BTreeMap::new();
        assert!(verify(&registry, &trace, &report, &mut memo).clean());
        // Corrupt one digest and drop one record: both must be caught.
        report.records[0].levels_digest ^= 1;
        let dropped = report.records.pop().unwrap().id;
        let v = verify(&registry, &trace, &report, &mut memo);
        assert_eq!(v.wrong, vec![report.records[0].id]);
        assert_eq!(v.lost, vec![dropped]);
    }
}
