//! `eta-serve` — a deterministic, simulated-time traversal query service on
//! top of the EtaGraph engine.
//!
//! The ROADMAP's north star is a system that serves heavy traffic from many
//! users; until now a query entered the repository only through one warm
//! [`etagraph::session::Session`]. This crate adds the missing layer: a
//! *stream* of traversal requests scheduled onto simulated devices.
//!
//! * [`registry`] — named graphs a tenant can query by name.
//! * [`pool`] — N simulated [`eta_sim::Device`]s, each with its own clock,
//!   per-graph device residency (topology + batch state), admission by
//!   allocation footprint, and LRU eviction when a new graph does not fit.
//! * [`sched`] — a priority + deadline-aware queue with backpressure
//!   (bounded queue, reject-with-reason), per-request timeouts, and BFS
//!   *source batching*: up to 32 same-graph requests coalesce into one
//!   [`etagraph::multi_bfs`] launch, so one topology read serves the batch.
//! * [`workload`] — an open-loop Poisson arrival generator (seeded SplitMix
//!   streams, no wall clock) for driving the service reproducibly.
//! * [`report`] — per-request latency decomposition (queue wait, transfer,
//!   compute) and per-device utilization, as plain serializable records;
//!   percentile math lives in `eta-bench`'s `stats` module.
//!
//! With a non-empty [`eta_fault::FaultPlan`] in [`ServeConfig::faults`],
//! the service survives injected device failures through a four-rung
//! recovery ladder: resume-from-checkpoint (below), per-request retry with
//! exponential backoff, quarantine of repeatedly-faulting devices, and a
//! last-resort CPU fallback that answers from `eta_graph::reference` with
//! `degraded: true`. The report then carries availability, fault events,
//! and quarantine windows. The default (empty) plan is inert and
//! byte-identical to the pre-fault service.
//!
//! With [`ServeConfig::checkpoint_interval`] `> 0`, running batches emit an
//! [`eta_ckpt::Checkpoint`] every N completed iterations; when a batch
//! faults, the scheduler parks each rider's newest snapshot in an
//! [`eta_ckpt::CkptStore`] and rung 0 of the ladder resumes it after
//! backoff — on the same device (a re-probe) or migrated to a healthy one,
//! since snapshots are device-independent host state. The report counts
//! `checkpoints`, `resumes`, `migrations`, and `work_saved_iterations`;
//! interval 0 (the default) disables the machinery and is byte-identical
//! to the pre-checkpoint service.
//!
//! With a non-default [`qos::QosConfig`] in [`ServeConfig::qos`], the
//! service gains overload control ([`qos`]): cost-model admission by
//! deadline feasibility (calibrated online from completed batches),
//! deterministic worst-first shedding at queue capacity, per-tenant
//! fair-share token buckets, a global retry budget over the recovery
//! ladder (denied retries degrade straight to the CPU fallback instead of
//! amplifying load), and brownout degradation of best-effort traffic
//! (demote + zero-copy) when the queue-delay EWMA crosses a threshold.
//! The default config disables every feature and is byte-inert.
//!
//! With [`ServeConfig::group_size`] `> 1`, one query runs across a device
//! *group* via `etagraph::sharded`, through the same scheduler: a device
//! is a group of one. Admission sizes the largest member of a cached
//! [`eta_shard::GraphPartition`] (halo replicas included), a launch
//! claims its members atomically, and the fault ladder regroups — a
//! faulted member quarantines and the query resumes from its
//! group-shape-agnostic checkpoint on the remaining healthy members. The
//! report's `groups` entries carry per-composition utilization and
//! exchanged bytes per superstep.
//!
//! Everything is deterministic: the same registry, config, and trace produce
//! byte-identical reports, because all time is simulated and all randomness
//! is counter-based. With profiling on (`GpuConfig::with_profiling`), the
//! scheduler emits `enqueue`/`reject` instants and `batch` spans into an
//! `eta-prof` profile alongside each device's kernel and transfer events —
//! `Service::profile` merges them into one multi-process trace.
//!
//! ```
//! use eta_graph::generate::{rmat, RmatConfig};
//! use eta_serve::{GraphRegistry, ServeConfig, Service, WorkloadConfig};
//!
//! let mut registry = GraphRegistry::new();
//! registry.insert("toy", rmat(&RmatConfig::paper(10, 8_000, 1)));
//! let trace = eta_serve::poisson_trace(
//!     &registry,
//!     &["toy".to_string()],
//!     &WorkloadConfig { requests: 40, ..WorkloadConfig::default() },
//! );
//! let mut service = Service::new(&registry, ServeConfig::default());
//! let report = service.run(&trace);
//! assert_eq!(report.completed as usize + report.rejections.len(), 40);
//! ```

pub mod pool;
pub mod qos;
pub mod registry;
pub mod report;
pub mod request;
pub mod sched;
pub mod workload;

pub use pool::DeviceWorker;
pub use qos::{QosConfig, QosStats};
pub use registry::GraphRegistry;
pub use report::{
    BatchRecord, DeviceStats, FaultEvent, GroupStats, QuarantineRecord, RequestRecord, ServeReport,
};
pub use request::{Priority, RejectReason, Rejection, Request};
pub use sched::{Policy, ServeConfig, Service};
pub use workload::{poisson_trace, Arrival, WorkloadConfig};
