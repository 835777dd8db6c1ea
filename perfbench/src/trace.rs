//! The benchmark's only view of the host clock, its in-memory span
//! recorder and its host-speed probe.
//!
//! One [`Stopwatch`] is started when the process starts; every host time in
//! the benchmark is an offset read from it, so the workspace's
//! `L-DET-TIME` quarantine (`eta_bench::hosttime`) stays the single place
//! that touches the wall clock. Spans are recorded only while tracing is on
//! and are written out once, when the benchmark ends.

use crate::common::peak_rss_mb;
use crate::speed::{Reference, NOMINAL_ROUND_S};
use eta_bench::hosttime::Stopwatch;
use serde_json::{json, Value};
use std::collections::BTreeMap;

/// One recorded interval of host time around a call into a layer.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// Seconds since process start.
    pub start: f64,
    pub end: f64,
    /// Index of the enclosing span in [`Tracer::spans`], if any.
    pub parent: Option<usize>,
    /// The operation (cell, query or pass) the span belongs to.
    pub op: u64,
}

/// Host seconds of one measured operation: as measured, and at the
/// reference's nominal speed (see `speed.rs`).
#[derive(Debug, Default, Clone, Copy)]
pub struct OpTime {
    pub measured: f64,
    pub nominal: f64,
}

impl std::ops::Add for OpTime {
    type Output = OpTime;
    fn add(self, o: OpTime) -> OpTime {
        OpTime {
            measured: self.measured + o.measured,
            nominal: self.nominal + o.nominal,
        }
    }
}

/// Seconds of reference rounds run after an operation, per second the
/// operation took (at least one round).
const PROBE_SHARE: f64 = 0.1;
/// Seconds of reference rounds run before an operation that does not
/// directly follow another one.
const PROBE_FRESH_S: f64 = 0.04;

/// Host clock plus span recorder plus host-speed probe. With tracing off,
/// [`Tracer::span`] still times the call (the benchmark needs
/// per-operation host times) but records nothing.
pub struct Tracer {
    clock: Stopwatch,
    on: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
    reference: Reference,
    /// Resident MiB the reference kernel adds to the process.
    reference_mb: f64,
    /// When the last probe ended, and the slowdown it measured.
    last_probe: Option<(f64, f64)>,
}

impl Tracer {
    /// Starts the process clock. Call once, first thing in `main`.
    pub fn started() -> Self {
        let clock = Stopwatch::started();
        // One round touches all of the reference's memory, so the process's
        // peak resident size grows here by exactly its footprint.
        let before = peak_rss_mb();
        let mut reference = Reference::new();
        reference.round();
        Tracer {
            clock,
            on: false,
            spans: Vec::new(),
            open: Vec::new(),
            reference,
            reference_mb: peak_rss_mb() - before,
            last_probe: None,
        }
    }

    /// Peak resident MiB of the process, less the reference kernel's.
    pub fn peak_rss_mb(&self) -> f64 {
        peak_rss_mb() - self.reference_mb
    }

    /// Host seconds since process start.
    pub fn now(&self) -> f64 {
        self.clock.elapsed_secs()
    }

    pub fn set_recording(&mut self, on: bool) {
        self.on = on;
    }

    /// Runs `f` inside a span named `name` and returns its result with the
    /// host seconds it took.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        op: u64,
        f: impl FnOnce(&mut Self) -> T,
    ) -> (T, f64) {
        let start = self.now();
        let idx = self.on.then(|| {
            self.spans.push(Span {
                name,
                start,
                end: start,
                parent: self.open.last().copied(),
                op,
            });
            self.open.push(self.spans.len() - 1);
            self.spans.len() - 1
        });
        let out = f(self);
        let end = self.now();
        if let Some(i) = idx {
            self.open.pop();
            self.spans[i].end = end;
        }
        (out, end - start)
    }

    /// Runs `f` in a span named `name` as a measured operation and returns
    /// its result with its [`OpTime`]. The host's slowdown is probed right
    /// before and right after `f`; the nominal time is the measured time
    /// over their mean. Back-to-back operations share the probe between
    /// them.
    pub fn timed_op<T>(
        &mut self,
        name: &'static str,
        op: u64,
        f: impl FnOnce(&mut Self) -> T,
    ) -> (T, OpTime) {
        let before = match self.last_probe {
            Some((end, slowdown)) if self.now() - end < 0.01 => slowdown,
            _ => self.probe(PROBE_FRESH_S),
        };
        let (out, measured) = self.span(name, op, f);
        let after = self.probe(measured * PROBE_SHARE);
        let nominal = measured * 2.0 / (before + after);
        (out, OpTime { measured, nominal })
    }

    /// Runs reference rounds for at least `secs` (and at least one round)
    /// and returns the host's slowdown: the mean round time over its
    /// nominal time.
    fn probe(&mut self, secs: f64) -> f64 {
        let (rounds, took) = self.span("speed.probe", 0, |tr| {
            let start = tr.now();
            let mut rounds = 0u32;
            while rounds == 0 || tr.now() - start < secs {
                tr.reference.round();
                rounds += 1;
            }
            rounds
        });
        let slowdown = took / f64::from(rounds) / NOMINAL_ROUND_S;
        self.last_probe = Some((self.now(), slowdown));
        slowdown
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total and self seconds per span name. A span's self time is its
    /// duration minus the time its direct children cover.
    pub fn totals(&self) -> BTreeMap<&'static str, (f64, f64)> {
        let mut child = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.end - s.start;
            }
        }
        let mut out: BTreeMap<&'static str, (f64, f64)> = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(&child) {
            let e = out.entry(s.name).or_default();
            e.0 += s.end - s.start;
            e.1 += s.end - s.start - c;
        }
        out
    }

    /// Every span plus the per-name totals, as one JSON document.
    pub fn to_json(&self) -> Value {
        let spans: Vec<Value> = self
            .spans
            .iter()
            .map(|s| {
                json!({
                    "name": s.name,
                    "start_s": s.start,
                    "end_s": s.end,
                    "parent": s.parent,
                    "op": s.op,
                })
            })
            .collect();
        let mut summary = serde_json::Map::new();
        for (name, (total, own)) in self.totals() {
            summary.insert(name.to_string(), json!({"total_s": total, "self_s": own}));
        }
        json!({"summary": Value::Object(summary), "spans": spans})
    }
}
