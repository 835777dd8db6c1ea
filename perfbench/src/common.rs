//! Pieces shared by the three workloads: arguments, the timed loop, the
//! metric table, percentiles, the simulated-clock fingerprint and peak RSS.

use crate::trace::{OpTime, Tracer};
use std::collections::BTreeMap;

/// Command-line arguments: `--workload NAME --seed N --seconds S --trace 0|1`.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

impl Args {
    pub fn parse(argv: &[String]) -> Result<Args, String> {
        let mut workload = None;
        let mut seed = None;
        let mut seconds = None;
        let mut trace = false;
        let mut it = argv.iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => workload = Some(value.clone()),
                "--seed" => {
                    seed = Some(value.parse().map_err(|_| format!("bad --seed {value:?}"))?)
                }
                "--seconds" => {
                    let s: f64 = value
                        .parse()
                        .map_err(|_| format!("bad --seconds {value:?}"))?;
                    if !(s.is_finite() && s > 0.0) {
                        return Err(format!("--seconds must be positive, got {value}"));
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                    }
                }
                _ => return Err(format!("unknown flag {flag:?}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace,
        })
    }
}

/// Untraced passes per run at least.
const MIN_UNTRACED_PASSES: usize = 2;

/// Host wall times of the timed passes, split by whether spans were
/// recorded during the pass, plus the host time of every operation of
/// every untraced pass.
#[derive(Debug, Default)]
pub struct Passes {
    pub untraced: Vec<f64>,
    pub traced: Vec<f64>,
    /// `ops[pass][op]` of the untraced passes.
    pub ops: Vec<Vec<OpTime>>,
    /// `traced_ops[pass][op]` of the traced passes.
    pub traced_ops: Vec<Vec<OpTime>>,
}

/// Each operation's host time, measured and nominal, as the median over
/// `passes` (`passes[pass][op]`).
pub fn op_medians(passes: &[Vec<OpTime>]) -> Vec<OpTime> {
    let n = passes.first().map_or(0, Vec::len);
    (0..n)
        .map(|j| OpTime {
            measured: middle(&passes.iter().map(|p| p[j].measured).collect::<Vec<_>>()),
            nominal: middle(&passes.iter().map(|p| p[j].nominal).collect::<Vec<_>>()),
        })
        .collect()
}

/// Repeats `pass` while another pass as long as the longest one so far
/// still fits in `args.seconds` of host time, and at least
/// [`MIN_UNTRACED_PASSES`] times (in trace mode, at least one untraced and
/// one traced pass). `pass` returns the host time of each of its
/// operations. In trace mode passes alternate between untraced and traced,
/// so one run yields both the per-layer spans and the untraced wall time
/// that `trace.overhead_s` is measured against.
pub fn timed_passes(
    tr: &mut Tracer,
    args: &Args,
    mut pass: impl FnMut(&mut Tracer, usize) -> Vec<OpTime>,
) -> Passes {
    let start = tr.now();
    let min_passes = if args.trace { 2 } else { MIN_UNTRACED_PASSES };
    let mut passes = Passes::default();
    let mut longest: f64 = 0.0;
    let mut i = 0;
    loop {
        let traced = args.trace && i % 2 == 1;
        tr.set_recording(traced);
        let (ops, wall) = tr.span("pass", i as u64, |tr| pass(tr, i));
        longest = longest.max(wall);
        if traced {
            passes.traced.push(wall);
            passes.traced_ops.push(ops);
        } else {
            passes.untraced.push(wall);
            passes.ops.push(ops);
        }
        i += 1;
        if i >= min_passes && tr.now() - start + longest > args.seconds {
            break;
        }
    }
    tr.set_recording(args.trace);
    passes
}

/// Named metric values with units. Keys are checked against the
/// benchmark's declared metric lists before anything is printed.
#[derive(Debug, Default, Clone)]
pub struct Metrics(pub BTreeMap<String, (f64, &'static str)>);

impl Metrics {
    pub fn set(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.insert(name.into(), (value, unit));
    }

    pub fn count(&mut self, name: impl Into<String>, value: u64) {
        self.set(name, value as f64, "count");
    }

    /// Adds `value` to a count, starting from 0.
    pub fn add(&mut self, name: &str, value: u64) {
        let v = self.get(name);
        self.set(name, v + value as f64, "count");
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).map_or(0.0, |v| v.0)
    }
}

/// Nearest-rank percentile of `samples` (`p` in (0, 100]); 0 when empty.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// The median of host times: the mean of the two middle samples of an
/// even count, so two passes weigh equally.
pub fn middle(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    match sorted.len() {
        0 => 0.0,
        n if n % 2 == 1 => sorted[n / 2],
        n => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// FNV-1a over the simulated-clock outputs of a pass: labels, counters and
/// serialized reports. Two builds that simulate the same thing print the
/// same fingerprint.
#[derive(Debug, Clone, Copy)]
pub struct Fingerprint(u64);

impl Default for Fingerprint {
    fn default() -> Self {
        Fingerprint(0xcbf2_9ce4_8422_2325)
    }
}

impl Fingerprint {
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn word(&mut self, w: u64) {
        self.bytes(&w.to_le_bytes());
    }

    pub fn words(&mut self, ws: &[u32]) {
        self.word(ws.len() as u64);
        for &w in ws {
            self.bytes(&w.to_le_bytes());
        }
    }

    pub fn value(self) -> u64 {
        self.0
    }
}

/// Digest of a label array. Passes keep digests rather than the labels, so
/// the process's peak memory does not grow with the number of passes.
pub fn label_digest(labels: &[u32]) -> u64 {
    let mut fp = Fingerprint::default();
    fp.words(labels);
    fp.value()
}

/// Peak resident set size of this process in MiB, from `getrusage`.
pub fn peak_rss_mb() -> f64 {
    // `struct rusage` on 64-bit Linux: two `timeval`s (4 words) followed by
    // 14 `long`s, the first of which is `ru_maxrss` in KiB.
    #[repr(C)]
    struct Rusage([i64; 18]);
    extern "C" {
        fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    }
    const RUSAGE_SELF: i32 = 0;
    let mut usage = Rusage([0; 18]);
    // SAFETY: `usage` is a writable buffer the size of the platform's
    // `struct rusage`, which is all `getrusage` writes to.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut usage) };
    if rc != 0 {
        return 0.0;
    }
    usage.0[4] as f64 / 1024.0
}

/// Everything one workload run hands back to `main` for reporting.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Host time of each set-up.
    pub setup: Vec<OpTime>,
    /// Whether `setup_s` is scaled to nominal speed like the operations,
    /// or reported as measured. Only a set-up that is mostly simulator
    /// work on one thread slows down with the host the way the reference
    /// kernel does; see README.md.
    pub scale_setup: bool,
    pub passes: Passes,
    /// What an operation is on this workload, for the printed report.
    pub op_name: &'static str,
    /// Requests one timed operation serves: `op_host_ms` is per request.
    pub requests_per_op: f64,
    pub attempted: u64,
    pub failed: u64,
    /// Fingerprint of the first pass (every run of a seed prints the same).
    pub fingerprint: u64,
    /// Load shape: counts, sizes and settings the result depends on.
    pub load: Vec<(&'static str, String)>,
    /// Simulated-clock end-to-end metrics of the first pass.
    pub sim: Metrics,
    /// End-to-end results that are printed but not gated: they exist on
    /// one workload only, or move with the seed (see README.md).
    pub extra: Metrics,
    /// Per-layer counters of the first pass.
    pub layer: Metrics,
}
