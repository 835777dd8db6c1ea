//! Host wall-clock access, quarantined.
//!
//! Every artifact in this workspace is a function of the *simulated* clock
//! (`eta-sim`'s cycle counters): two runs of the same command must emit the
//! same bytes. The only legitimate use of the host clock is progress
//! feedback on stderr/stdout framing — "how long did this artifact take to
//! generate" — which is never part of an artifact's text or JSON.
//!
//! `L-DET-TIME` allowlists exactly this file; any `Instant`/`SystemTime`
//! anywhere else in the workspace is a lint finding. Keeping the wall clock
//! behind one tiny API makes "does host time leak into artifact bytes?"
//! greppable instead of a per-call-site argument.
//!
//! [`StageTimes`] is the host-time view of `eta_sim::Device::launch`: a
//! [`StageSink`] that accumulates host seconds per launch stage, so a
//! stage split needs no patch to the simulator.

use eta_sim::{LaunchStage, StageSink};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// A started wall-clock stopwatch for operator-facing progress lines.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch {
    start: Instant,
}

impl Stopwatch {
    /// Starts timing now.
    pub fn started() -> Self {
        Stopwatch {
            start: Instant::now(),
        }
    }

    /// Wall seconds since `started()`. For progress display only — never
    /// write this into an artifact.
    pub fn elapsed_secs(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }
}

/// Host seconds per launch stage, summed over every launch of every
/// device holding one of its sinks. Clones share the same totals.
#[derive(Debug, Clone, Default)]
pub struct StageTimes {
    secs: Arc<Mutex<[f64; LaunchStage::ALL.len()]>>,
}

impl StageTimes {
    /// A sink feeding these totals, for `Device::set_stage_sink`.
    pub fn sink(&self) -> Box<dyn StageSink> {
        Box::new(StageTimer {
            times: self.clone(),
            last: None,
        })
    }

    /// Accumulated host seconds per stage, in [`LaunchStage::ALL`] order.
    pub fn seconds(&self) -> [f64; LaunchStage::ALL.len()] {
        *self.secs.lock().unwrap_or_else(|e| e.into_inner())
    }
}

struct StageTimer {
    times: StageTimes,
    /// When the running stage started.
    last: Option<Instant>,
}

impl StageSink for StageTimer {
    fn begin(&mut self) {
        self.last = Some(Instant::now());
    }

    fn end(&mut self, stage: LaunchStage) {
        let now = Instant::now();
        if let Some(last) = self.last.replace(now) {
            let mut secs = self.times.secs.lock().unwrap_or_else(|e| e.into_inner());
            secs[stage as usize] += now.duration_since(last).as_secs_f64();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_times_accumulate_between_boundaries() {
        let times = StageTimes::default();
        let mut sink = times.sink();
        sink.end(LaunchStage::Record); // no begin yet: ignored
        assert_eq!(times.seconds(), [0.0; 5]);
        for _ in 0..2 {
            sink.begin();
            for stage in LaunchStage::ALL {
                sink.end(stage);
            }
        }
        assert!(times.seconds().iter().all(|&s| s >= 0.0));
        assert_eq!(times.clone().seconds(), times.seconds());
    }

    #[test]
    fn stopwatch_is_monotonic_and_nonnegative() {
        let sw = Stopwatch::started();
        let a = sw.elapsed_secs();
        let b = sw.elapsed_secs();
        assert!(a >= 0.0);
        assert!(b >= a);
    }
}
