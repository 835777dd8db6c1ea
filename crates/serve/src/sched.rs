//! The scheduler: a bounded admission queue in front of the device pool,
//! with priority/deadline ordering and same-graph source batching.
//!
//! The service is a discrete-event simulation driven by one scalar clock.
//! Two kinds of events exist — a request arrives, a device frees up — and
//! between events the scheduler greedily dispatches: it picks the
//! highest-ordered queued request, coalesces up to `max_batch` queued
//! requests for the *same graph* into one [`etagraph::multi_bfs`] launch
//! (one topology read serves all of them), and places the batch on the
//! lowest-numbered idle device. Ties everywhere break on request id or
//! device id, so a trace replays to byte-identical reports.
//!
//! A device is a group of one. With [`ServeConfig::group_size`] `> 1` each
//! launch instead claims that many idle devices at once and runs a single
//! query across them with [`etagraph::sharded`] over a cached
//! [`GraphPartition`]; admission then sizes the largest member's footprint,
//! halo replicas included. Only the launch step differs by group size: the
//! queue, the timeout sweep, qos, the recovery ladder and the report are
//! one code path for every group size, fresh or resumed.

use crate::pool::DeviceWorker;
use crate::qos::{BrownoutTransition, QosConfig, QosState};
use crate::registry::GraphRegistry;
use crate::report::{
    BatchRecord, DeviceStats, FaultEvent, GroupStats, QuarantineRecord, RequestRecord, ServeReport,
};
use crate::request::{RejectReason, Rejection, Request};
use eta_ckpt::{digest_words, Checkpoint, CkptCtl, CkptSink, CkptStore};
use eta_fault::{DeviceFault, FaultPlan};
use eta_graph::{reference, Csr};
use eta_mem::{Ns, PeerFabric};
use eta_prof::{Profile, Profiler, Track};
use eta_shard::GraphPartition;
use eta_sim::{Device, GpuConfig};
use etagraph::multi_bfs::MAX_BATCH;
use etagraph::sharded::run_sharded_ckpt;
use etagraph::{Algorithm, EtaConfig, QueryError, TransferMode};
use serde::Serialize;
use std::collections::BTreeMap;

/// Dispatch-order policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum Policy {
    /// Strict arrival order, ties on id.
    Fifo,
    /// Interactive before batch, then earliest deadline, then arrival.
    PriorityDeadline,
}

impl Policy {
    pub fn name(self) -> &'static str {
        match self {
            Policy::Fifo => "fifo",
            Policy::PriorityDeadline => "priority_deadline",
        }
    }
}

/// Service shape: how many devices, how they are configured, and how the
/// queue behaves.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Simulated devices in the pool.
    pub devices: usize,
    /// Devices per launch (1..=`devices`). A group of one runs batched
    /// multi-BFS on a device that keeps graphs resident; a larger group
    /// runs one query at a time, sharded across fresh member devices (the
    /// fault plan re-arms on every launch). A resumed query regroups on as
    /// many healthy idle members as exist, up to this size.
    pub group_size: usize,
    /// Configuration each device is built with.
    pub gpu: GpuConfig,
    /// Engine configuration (K, SMP, transfer mode) used for every batch.
    pub eta: EtaConfig,
    /// Bounded queue size; arrivals beyond it are rejected (backpressure).
    pub queue_capacity: usize,
    /// Max same-graph requests coalesced per launch (1 = no batching,
    /// up to [`MAX_BATCH`]). Sharded launches take a single source, so
    /// groups of more than one device always run batches of one.
    pub max_batch: usize,
    pub policy: Policy,
    /// Device-fault injection plan, installed per device at construction.
    /// The default (empty) plan is inert: the service behaves — and its
    /// report serializes — exactly as if the fault machinery did not exist.
    pub faults: FaultPlan,
    /// Device-fault retries per request before the CPU fallback answers it.
    pub max_retries: u32,
    /// First retry delay; doubles per retry (`base << retries`, simulated
    /// time).
    pub backoff_base_ns: Ns,
    /// Consecutive faults (no intervening success) that quarantine a device.
    pub quarantine_after: u32,
    /// How long a quarantined device sits out of dispatch before the
    /// scheduler re-probes it with ordinary traffic.
    pub quarantine_ns: Ns,
    /// Snapshot interval in traversal iterations (0 = checkpointing off;
    /// the service then behaves — and its report serializes — exactly as
    /// if the checkpoint machinery did not exist). With an interval, rung
    /// 0 of the recovery ladder becomes *resume-from-checkpoint*: a
    /// faulted batch restarts from its last snapshot after the backoff,
    /// on the same devices (a re-probe) when they are dispatchable again,
    /// or migrated to the lowest-numbered healthy devices otherwise.
    pub checkpoint_interval: u32,
    /// Overload control ([`crate::qos`]): admission by deadline
    /// feasibility, worst-first shedding, tenant fair share, a retry
    /// budget over the recovery ladder, and brownout degradation. The
    /// default disables every feature — the service then behaves, and its
    /// report serializes, exactly as if the qos layer did not exist.
    pub qos: QosConfig,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            devices: 1,
            group_size: 1,
            gpu: GpuConfig::default_preset(),
            eta: EtaConfig::paper(),
            queue_capacity: 256,
            max_batch: MAX_BATCH,
            policy: Policy::PriorityDeadline,
            faults: FaultPlan::default(),
            max_retries: 2,
            backoff_base_ns: 50_000,
            quarantine_after: 3,
            quarantine_ns: 2_000_000,
            checkpoint_interval: 0,
            qos: QosConfig::default(),
        }
    }
}

/// A queued request plus its scheduler-side retry state. The public
/// [`Request`] stays a pure tenant-facing value; retry bookkeeping never
/// leaks into it.
#[derive(Debug, Clone)]
struct Queued {
    req: Request,
    /// Device-fault retries so far.
    retries: u32,
    /// Backoff gate: not dispatchable before this time.
    not_before: Ns,
    /// Qos cost-model estimate at admission (device-ns this request is
    /// expected to consume); feeds the backlog term of later admission
    /// decisions. Unused when qos is off.
    est_ns: Ns,
}

/// A faulted batch with a parked snapshot: rung 0 of the recovery ladder.
/// The snapshot's level slots index the *original* source list, so the
/// resume relaunches the full list even when some riders have already
/// exited to the CPU fallback — only surviving riders produce records.
#[derive(Debug, Clone)]
struct ResumableBatch {
    graph: String,
    /// Source list of the original launch (checkpoint slots index this).
    sources: Vec<u32>,
    /// Surviving riders as (slot into `sources`, queue entry).
    riders: Vec<(usize, Queued)>,
    /// Key of the parked snapshot in the scheduler's checkpoint store.
    ckpt_key: u64,
    /// Devices the snapshot was taken on (preferred for the re-probe).
    from: Vec<usize>,
    /// Backoff gate, like [`Queued::not_before`].
    not_before: Ns,
}

/// One launch's worth of work, fresh or resumed.
struct Job {
    graph: String,
    sources: Vec<u32>,
    /// Riders as (slot into `sources`, queue entry).
    riders: Vec<(usize, Queued)>,
    /// Rung 0: the snapshot to resume from and the devices that took it.
    resume: Option<(Checkpoint, Vec<usize>)>,
    /// Brownout: run in zero-copy mode (best-effort riders only).
    degrade: bool,
}

/// What a successful launch produced, on the service clock.
struct Launched {
    /// Per-source levels, indexed like the job's `sources`.
    levels: Vec<Vec<u32>>,
    /// When the launch's setup (residency upload) finished.
    ready: Ns,
    total_ns: Ns,
    kernel_ns: Ns,
    /// Sharded launches only: (peer-fabric bytes, supersteps).
    exchange: Option<(u64, u64)>,
}

/// Why a launch did not produce an answer.
enum LaunchError {
    /// A member device faulted; `fault.at_ns` is on the service clock.
    Fault { member: usize, fault: DeviceFault },
    /// The devices could not hold the graph.
    Denied,
    /// The snapshot did not validate against the graph.
    Stale,
}

impl LaunchError {
    /// Maps an engine error raised on `member`, whose device clock started
    /// at `offset` on the service clock.
    fn of(e: QueryError, member: usize, offset: Ns) -> Self {
        match e {
            QueryError::DeviceFault(f) => LaunchError::Fault {
                member,
                fault: DeviceFault {
                    at_ns: f.at_ns + offset,
                    ..f
                },
            },
            QueryError::Mem(_) => LaunchError::Denied,
            QueryError::Checkpoint(_) => LaunchError::Stale,
            QueryError::SourceOutOfRange { .. } => {
                unreachable!("sources validated at admission: {e}")
            }
        }
    }
}

/// Per-composition accumulation for [`GroupStats`].
#[derive(Default)]
struct GroupAccum {
    queries: u32,
    busy_ns: Ns,
    exchanged_bytes: u64,
    supersteps: u64,
}

/// Mutable per-run scheduler state, bundled so the dispatch paths share
/// one signature instead of a dozen `&mut Vec` parameters.
struct RunState {
    queue: Vec<Queued>,
    resumables: Vec<ResumableBatch>,
    store: CkptStore,
    records: Vec<RequestRecord>,
    rejections: Vec<Rejection>,
    batches: Vec<BatchRecord>,
    fault_events: Vec<FaultEvent>,
    quarantines: Vec<QuarantineRecord>,
    /// Sharded launches, keyed by member composition.
    groups: BTreeMap<Vec<u32>, GroupAccum>,
    checkpoints: u32,
    resumes: u32,
    migrations: u32,
    work_saved_iterations: u64,
    qos: QosState,
}

impl RunState {
    fn new(qos: &QosConfig) -> Self {
        RunState {
            queue: Vec::new(),
            resumables: Vec::new(),
            store: CkptStore::new(),
            records: Vec::new(),
            rejections: Vec::new(),
            batches: Vec::new(),
            fault_events: Vec::new(),
            quarantines: Vec::new(),
            groups: BTreeMap::new(),
            checkpoints: 0,
            resumes: 0,
            migrations: 0,
            work_saved_iterations: 0,
            qos: QosState::new(qos),
        }
    }
}

/// `(graph, devices) → GraphPartition`, computed on first use
/// (partitioning walks every edge). The service borrows its registry
/// immutably, so a cached partition can never go stale under it.
#[derive(Default)]
struct Partitions(BTreeMap<(String, u32), GraphPartition>);

impl Partitions {
    /// The `devices`-way vertex-range partition of `name`; `None` when the
    /// graph is not registered.
    fn get(
        &mut self,
        registry: &GraphRegistry,
        name: &str,
        devices: u32,
    ) -> Option<&GraphPartition> {
        let csr = registry.get(name)?;
        Some(
            self.0
                .entry((name.to_string(), devices))
                .or_insert_with(|| GraphPartition::vertex_range(csr, devices)),
        )
    }

    /// Explicit device bytes the *largest* member of a `devices`-way group
    /// pins while serving `name`: the max over shards of the shard's full
    /// footprint. Each shard allocates labels, tags and queues over its
    /// **local** vertex space — owned range plus replicated halo rows — so
    /// admission must size that, not `owned/devices`: a cut with a large
    /// halo can make every member strictly bigger than an even split of the
    /// whole graph, and an owned-range check would over-admit exactly those
    /// partitions (the group then OOMs mid-flight instead of rejecting
    /// upfront). `None` when the graph is not registered.
    fn max_footprint_bytes(
        &mut self,
        registry: &GraphRegistry,
        name: &str,
        devices: u32,
        cfg: &EtaConfig,
    ) -> Option<u64> {
        let explicit = cfg.transfer.topology_is_explicit();
        self.get(registry, name, devices).map(|p| {
            p.shards
                .iter()
                .map(|s| s.footprint_bytes(cfg.k, explicit))
                .max()
                .unwrap_or(0)
        })
    }
}

/// Up to `count` of the `idle` devices: those in `prefer` first (a resumed
/// batch re-probes the devices that took its snapshot), then the
/// lowest-numbered. Returned ascending.
fn pick(idle: &[usize], prefer: &[usize], count: usize) -> Vec<usize> {
    let (mut ids, rest): (Vec<usize>, Vec<usize>) =
        idle.iter().copied().partition(|i| prefer.contains(i));
    ids.extend(rest);
    ids.truncate(count);
    ids.sort_unstable();
    ids
}

/// The running service: registry + device pool + scheduler state.
pub struct Service<'r> {
    registry: &'r GraphRegistry,
    cfg: ServeConfig,
    workers: Vec<DeviceWorker>,
    partitions: Partitions,
    /// Scheduler-side `eta-prof` events (queue/batch/admission); follows
    /// `cfg.gpu.profiling` like the per-device profilers do.
    prof: Profiler,
}

impl<'r> Service<'r> {
    pub fn new(registry: &'r GraphRegistry, cfg: ServeConfig) -> Self {
        assert!(
            (1..=cfg.devices).contains(&cfg.group_size),
            "group_size must be 1..=devices"
        );
        assert!(
            (1..=MAX_BATCH).contains(&cfg.max_batch),
            "max_batch must be 1..={MAX_BATCH}"
        );
        let workers = (0..cfg.devices)
            .map(|id| {
                let mut w = DeviceWorker::new(id, cfg.gpu);
                w.install_faults(&cfg.faults);
                w
            })
            .collect();
        let prof = Profiler::new(cfg.gpu.profiling);
        Service {
            registry,
            cfg,
            workers,
            partitions: Partitions::default(),
            prof,
        }
    }

    /// The device pool, for post-run inspection (e.g. sanitizer reports).
    /// A group member's device is the one of its most recent launch.
    pub fn workers(&self) -> &[DeviceWorker] {
        &self.workers
    }

    /// The multi-process `eta-prof` profile: one "scheduler" process for
    /// queue/batch/admission events, one "deviceN" process per worker.
    /// Empty unless the service's [`GpuConfig`] enables profiling.
    pub fn profile(&self) -> Profile {
        let mut p = Profile::new();
        p.push("scheduler", self.prof.events().to_vec());
        for w in &self.workers {
            p.push(&format!("device{}", w.id), w.dev.mem.prof.events().to_vec());
        }
        p
    }

    /// Serves `trace` (must be sorted by arrival time) to completion and
    /// reports what happened. Deterministic: same registry, config, and
    /// trace produce an identical report.
    pub fn run(&mut self, trace: &[Request]) -> ServeReport {
        debug_assert!(
            trace.windows(2).all(|w| w[0].arrival_ns <= w[1].arrival_ns),
            "trace must be sorted by arrival time"
        );
        let mut st = RunState::new(&self.cfg.qos);
        let mut next = 0usize;
        let mut now: Ns = 0;
        loop {
            while next < trace.len() && trace[next].arrival_ns <= now {
                self.admit(&trace[next], now, &mut st);
                next += 1;
            }
            let idle: Vec<usize> = self
                .workers
                .iter()
                .filter(|w| w.free_at <= now && w.quarantined_until <= now)
                .map(|w| w.id)
                .collect();
            // Parked batches resume before fresh dispatch: their riders are
            // the oldest work in the system and their snapshots embody
            // iterations already paid for. They regroup on whatever healthy
            // members are idle. Deterministic pick: earliest gate, then
            // lowest surviving rider id (rider ids are unique across the
            // whole system, so this total order has no ties).
            let resumable = st
                .resumables
                .iter()
                .enumerate()
                .filter(|(_, r)| r.not_before <= now)
                .min_by_key(|(_, r)| {
                    let min_id = r.riders.iter().map(|(_, q)| q.req.id).min();
                    (r.not_before, min_id.unwrap_or(u32::MAX))
                })
                .map(|(i, _)| i);
            if let Some(i) = resumable.filter(|_| !idle.is_empty()) {
                let rb = st.resumables.remove(i);
                self.dispatch_resume(now, &idle, rb, &mut st);
                continue;
            }
            // A fresh launch needs a whole group.
            if idle.len() >= self.cfg.group_size && st.queue.iter().any(|q| q.not_before <= now) {
                self.dispatch(now, &idle, &mut st);
                continue;
            }
            // Nothing dispatchable: advance to the next event.
            let t_arrival = trace.get(next).map(|r| r.arrival_ns);
            let t_worker = if st.queue.is_empty() && st.resumables.is_empty() {
                None // an idle device with no pending work is not an event
            } else {
                self.workers
                    .iter()
                    .flat_map(|w| [w.free_at, w.quarantined_until])
                    .filter(|&t| t > now)
                    .min()
            };
            // Backoff gates are events too: a retried request (or a parked
            // batch) wakes the loop when its `not_before` passes, even with
            // devices idle.
            let t_backoff = st
                .queue
                .iter()
                .map(|q| q.not_before)
                .chain(st.resumables.iter().map(|r| r.not_before))
                .filter(|&t| t > now)
                .min();
            match [t_arrival, t_worker, t_backoff].into_iter().flatten().min() {
                Some(t) => now = t,
                None => break,
            }
        }
        // Quarantine-audit invariant: a device pulled from dispatch
        // mid-batch must never strand its riders — everything queued was
        // either answered or rejected by the time the loop drains.
        debug_assert!(
            st.queue.is_empty() && st.resumables.is_empty(),
            "the event loop may not leave requests stranded"
        );
        self.finish(st)
    }

    /// One typed refusal: the prof instant plus the [`Rejection`] record.
    fn reject(&mut self, id: u32, reason: RejectReason, now: Ns, st: &mut RunState) {
        if self.prof.is_enabled() {
            self.prof.instant(
                Track::Sched,
                "reject",
                now,
                vec![("id", id.into()), ("reason", reason.name().into())],
            );
        }
        st.rejections.push(Rejection {
            id,
            reason,
            at_ns: now,
        });
    }

    /// Admission control at arrival time. Every refusal is a typed
    /// [`Rejection`]; admitted requests enter the bounded queue. With qos
    /// features on, arrival is also where overload policy bites: deadline
    /// feasibility, tenant fair share, and worst-first shedding at
    /// capacity — arbitrate before you spend.
    fn admit(&mut self, req: &Request, now: Ns, st: &mut RunState) {
        let Some(csr) = self.registry.get(&req.graph) else {
            return self.reject(req.id, RejectReason::UnknownGraph, now, st);
        };
        if req.source as usize >= csr.n() {
            return self.reject(req.id, RejectReason::SourceOutOfRange, now, st);
        }
        // A graph whose footprint exceeds the device even when it is the
        // sole tenant (for a group: the largest member's shard) can never
        // be served; refuse it upfront rather than letting it evict
        // everyone else and still fail.
        let capacity = self.workers[0].dev.mem.capacity_bytes();
        let footprint = if self.cfg.group_size > 1 {
            self.partitions
                .max_footprint_bytes(
                    self.registry,
                    &req.graph,
                    self.cfg.group_size as u32,
                    &self.cfg.eta,
                )
                .unwrap_or(u64::MAX)
        } else {
            DeviceWorker::footprint_bytes(csr, &self.cfg.eta)
        };
        if footprint > capacity {
            return self.reject(req.id, RejectReason::AdmissionDenied, now, st);
        }
        let est_ns = st.qos.cost.estimate(&req.graph, csr, &self.cfg.eta);
        // Deadline feasibility: predicted completion = the earliest any
        // device frees up, plus the queued backlog spread across the pool,
        // plus this request's own estimate. A request that cannot make its
        // deadline even under that optimistic schedule is refused now,
        // before it wastes queue space and device time on a guaranteed
        // SLO miss.
        if self.cfg.qos.admission {
            if let Some(deadline) = req.deadline_ns {
                let backlog: Ns = st.queue.iter().map(|q| q.est_ns).sum();
                let earliest_free = self
                    .workers
                    .iter()
                    .map(|w| w.free_at.max(w.quarantined_until))
                    .min()
                    .unwrap_or(now)
                    .max(now);
                let predicted = earliest_free + backlog / self.cfg.devices as Ns + est_ns;
                if predicted > deadline {
                    st.qos.stats.admission_rejections += 1;
                    if self.prof.is_enabled() {
                        self.prof.instant(
                            Track::Qos,
                            "admission_infeasible",
                            now,
                            vec![
                                ("id", req.id.into()),
                                ("predicted_ns", predicted.into()),
                                ("deadline_ns", deadline.into()),
                            ],
                        );
                    }
                    return self.reject(req.id, RejectReason::DeadlineInfeasible, now, st);
                }
            }
        }
        // Tenant fair share, enforced only under congestion so the policy
        // stays work-conserving: an idle pool serves anyone, a backlogged
        // pool charges each tenant's bucket for its estimated device time.
        if self.cfg.qos.fair_share
            && st.queue.len() >= self.cfg.qos.fair_share_min_queue
            && !st
                .qos
                .tenant_try_charge(&self.cfg.qos, &req.graph, now, est_ns)
        {
            st.qos.stats.throttle_rejections += 1;
            if self.prof.is_enabled() {
                self.prof.instant(
                    Track::Qos,
                    "tenant_throttled",
                    now,
                    vec![("id", req.id.into()), ("tenant", req.graph.as_str().into())],
                );
            }
            return self.reject(req.id, RejectReason::TenantThrottled, now, st);
        }
        if st.queue.len() >= self.cfg.queue_capacity {
            if !self.cfg.qos.shed {
                return self.reject(req.id, RejectReason::QueueFull, now, st);
            }
            // Deterministic worst-first shedding: among the queue and the
            // newcomer, drop the entry with (lowest priority, latest
            // deadline, highest id) — ids are unique, so there are no ties.
            let key = |q: &Queued| {
                (
                    q.req.class.rank(),
                    q.req.deadline_ns.unwrap_or(Ns::MAX),
                    q.req.id,
                )
            };
            let newcomer_key = (req.class.rank(), req.deadline_ns.unwrap_or(Ns::MAX), req.id);
            let worst = st
                .queue
                .iter()
                .enumerate()
                .max_by_key(|(_, q)| key(q))
                .map(|(i, q)| (i, key(q)))
                // lint: allow(L-PANIC): this branch only runs when queue.len() >= capacity >= 1
                .expect("queue is at capacity, so non-empty");
            st.qos.stats.shed_rejections += 1;
            if worst.1 > newcomer_key {
                // The newcomer displaces a worse queued entry.
                let victim = st.queue.remove(worst.0);
                if self.prof.is_enabled() {
                    self.prof.instant(
                        Track::Qos,
                        "shed",
                        now,
                        vec![
                            ("id", victim.req.id.into()),
                            ("displaced_by", req.id.into()),
                        ],
                    );
                }
                self.reject(victim.req.id, RejectReason::ShedOverload, now, st);
            } else {
                if self.prof.is_enabled() {
                    self.prof
                        .instant(Track::Qos, "shed", now, vec![("id", req.id.into())]);
                }
                return self.reject(req.id, RejectReason::ShedOverload, now, st);
            }
        }
        st.queue.push(Queued {
            req: req.clone(),
            retries: 0,
            not_before: now,
            est_ns,
        });
        st.qos.note_depth(st.queue.len());
        if self.prof.is_enabled() {
            self.prof.instant(
                Track::Sched,
                "enqueue",
                now,
                vec![
                    ("id", req.id.into()),
                    ("graph", req.graph.as_str().into()),
                    ("class", req.class.name().into()),
                    ("depth", st.queue.len().into()),
                ],
            );
        }
    }

    /// One fresh dispatch decision at time `now`, with at least a group's
    /// worth of `idle` devices: drop expired requests, order the queue by
    /// policy, coalesce the head's graph-mates into a batch, and launch it
    /// on the lowest-numbered idle devices.
    fn dispatch(&mut self, now: Ns, idle: &[usize], st: &mut RunState) {
        // Timeout semantics are inclusive at the boundary tick: a request
        // whose wait has *reached* its limit is already too old to serve
        // (so `timeout_ns: Some(0)` never dispatches, even at its own
        // arrival tick).
        let (expired, live): (Vec<Queued>, Vec<Queued>) =
            std::mem::take(&mut st.queue).into_iter().partition(|q| {
                q.req
                    .timeout_ns
                    .is_some_and(|limit| now - q.req.arrival_ns >= limit)
            });
        st.queue = live;
        for q in expired {
            self.reject(q.req.id, RejectReason::TimedOut, now, st);
        }
        // Brownout state is sampled once per dispatch decision; transitions
        // observed below take effect at the *next* dispatch (hysteresis by
        // construction — one decision is never half-degraded).
        let brownout = self.cfg.qos.brownout && st.qos.brownout_active;
        match self.cfg.policy {
            Policy::Fifo => st.queue.sort_by_key(|q| (q.req.arrival_ns, q.req.id)),
            // Under brownout, best-effort (deadline-less) requests are
            // demoted below every SLO-bound class so deadline traffic
            // drains first.
            Policy::PriorityDeadline => st.queue.sort_by_key(|q| {
                let rank = q.req.class.rank()
                    + if brownout && q.req.deadline_ns.is_none() {
                        2
                    } else {
                        0
                    };
                (
                    rank,
                    q.req.deadline_ns.unwrap_or(Ns::MAX),
                    q.req.arrival_ns,
                    q.req.id,
                )
            }),
        }
        // The first dispatchable entry (backoff gate passed) defines the
        // batch's graph; later dispatchable entries for the same graph ride
        // along, up to `max_batch`. Entries still backing off stay queued.
        let Some(head) = st.queue.iter().find(|q| q.not_before <= now) else {
            return; // every dispatchable entry timed out above
        };
        let graph = head.req.graph.clone();
        // Brownout degradation applies to a best-effort head: the batch
        // runs in zero-copy mode (no bulk upload contending with SLO
        // traffic), trading its own kernel time for bus headroom. A
        // degraded batch only coalesces other best-effort riders so an
        // SLO-bound request never rides a degraded launch.
        let degrade = brownout && head.req.deadline_ns.is_none();
        let head_wait = now - head.req.arrival_ns;
        let mut batch: Vec<Queued> = Vec::new();
        let max_batch = if self.cfg.group_size > 1 {
            1
        } else {
            self.cfg.max_batch
        };
        st.queue.retain(|q| {
            if batch.len() < max_batch
                && q.req.graph == graph
                && q.not_before <= now
                && (!brownout || (q.req.deadline_ns.is_none() == degrade))
            {
                batch.push(q.clone());
                false
            } else {
                true
            }
        });
        // Queue-delay EWMA drives the brownout state machine: the wait the
        // dispatched head experienced is the freshest congestion signal.
        if self.cfg.qos.brownout {
            match st.qos.observe_wait(&self.cfg.qos, head_wait) {
                Some(BrownoutTransition::Entered) if self.prof.is_enabled() => {
                    self.prof.instant(
                        Track::Qos,
                        "brownout_enter",
                        now,
                        vec![("wait_ewma_ns", st.qos.wait_ewma().into())],
                    );
                }
                Some(BrownoutTransition::Exited) if self.prof.is_enabled() => {
                    self.prof.instant(
                        Track::Qos,
                        "brownout_exit",
                        now,
                        vec![("wait_ewma_ns", st.qos.wait_ewma().into())],
                    );
                }
                _ => {}
            }
        }
        let members = pick(idle, &[], self.cfg.group_size);
        let job = Job {
            graph,
            sources: batch.iter().map(|q| q.req.source).collect(),
            riders: batch.into_iter().enumerate().collect(),
            resume: None,
            degrade,
        };
        self.execute(now, &members, job, st);
    }

    /// Rung 0 of the recovery ladder: relaunch a faulted batch from its
    /// parked snapshot. The devices that took the snapshot are preferred
    /// once its backoff has passed (a re-probe); when they are busy or
    /// quarantined the batch migrates to the lowest-numbered healthy
    /// devices — a group regroups on as many as are idle, up to its size,
    /// since snapshots are group-shape-agnostic host state.
    fn dispatch_resume(&mut self, now: Ns, idle: &[usize], rb: ResumableBatch, st: &mut RunState) {
        let Some(ck) = st.store.take(rb.ckpt_key) else {
            // Defensive: a missing snapshot demotes the riders to ordinary
            // retries (their backoff gates have already passed).
            st.queue.extend(rb.riders.into_iter().map(|(_, q)| q));
            return;
        };
        let members = pick(idle, &rb.from, self.cfg.group_size.min(idle.len()));
        let job = Job {
            graph: rb.graph,
            sources: rb.sources,
            riders: rb.riders,
            resume: Some((ck, rb.from)),
            degrade: false,
        };
        self.execute(now, &members, job, st);
    }

    /// The only step that differs by group size. A group of one makes the
    /// graph resident on its device (uploading and evicting as needed) and
    /// runs a batched multi-BFS from the end of that setup. A larger group
    /// gets fresh member devices with the fault plan installed, so a fault
    /// window at `[0, end)` re-arms on every launch and recovery must come
    /// from regrouping rather than from waiting it out; the single source
    /// runs sharded over the cached partition from `now`.
    fn launch(
        &mut self,
        members: &[usize],
        job: &Job,
        csr: &Csr,
        now: Ns,
        sink: &mut CkptSink,
    ) -> Result<Launched, LaunchError> {
        let (graph, sources) = (job.graph.as_str(), job.sources.as_slice());
        let resume = job.resume.as_ref().map(|(ck, _)| ck);
        let eta = &EtaConfig {
            transfer: if job.degrade {
                TransferMode::ZeroCopy
            } else {
                self.cfg.eta.transfer
            },
            ..self.cfg.eta
        };
        if self.cfg.group_size == 1 {
            let worker = &mut self.workers[members[0]];
            let ready = worker
                .ensure_resident(graph, csr, eta, now)
                .map_err(|_| LaunchError::Denied)?;
            worker.pin(graph);
            let result = worker.run_batch_ckpt(graph, sources, eta, ready, sink, resume);
            worker.unpin(graph);
            let r = result.map_err(|e| LaunchError::of(e, members[0], 0))?;
            return Ok(Launched {
                levels: r.levels,
                ready,
                total_ns: r.total_ns,
                kernel_ns: r.kernel_ns,
                exchange: None,
            });
        }
        let devices = u32::try_from(members.len()).unwrap_or(u32::MAX);
        let Some(part) = self.partitions.get(self.registry, graph, devices) else {
            return Err(LaunchError::Denied);
        };
        let mut devs: Vec<Device> = members
            .iter()
            .map(|&i| {
                let mut d = Device::new(self.cfg.gpu);
                d.install_faults(&self.cfg.faults, i as u32);
                d
            })
            .collect();
        let digest = csr.digest();
        let ctl = match resume {
            Some(ck) => CkptCtl::resuming(sink, ck, digest),
            None => CkptCtl::with_sink(sink, digest),
        };
        let mut fabric = PeerFabric::nvlink(devices);
        let result = run_sharded_ckpt(
            &mut devs,
            &mut fabric,
            part,
            sources[0],
            Algorithm::Bfs,
            eta,
            ctl,
        );
        for (d, &i) in devs.into_iter().zip(members) {
            self.workers[i].dev = d;
            self.workers[i].uploads += 1;
        }
        let r = result.map_err(|e| LaunchError::of(e.error, members[e.shard as usize], now))?;
        Ok(Launched {
            levels: vec![r.labels],
            ready: now,
            total_ns: r.total_ns,
            kernel_ns: r.kernel_ns,
            exchange: Some((r.exchanged_bytes, r.supersteps as u64)),
        })
    }

    /// Launches `job` on `members` and settles the outcome. Acquisition is
    /// atomic: every member's clock advances to the same completion (or
    /// fault) time before the next scheduling decision.
    ///
    /// A launch that fails with a device fault walks the recovery ladder:
    /// each rider parks with the newest snapshot (rung 0) or re-queues
    /// with exponential backoff (rung 1) until `max_retries` or the qos
    /// retry budget runs out, after which the CPU reference answers it
    /// with `degraded: true`. The faulting member accrues
    /// consecutive-fault strikes and is quarantined at `quarantine_after`.
    fn execute(&mut self, now: Ns, members: &[usize], job: Job, st: &mut RunState) {
        let graph = job.graph.clone();
        let csr = self.registry.get(&graph).expect("validated at admission");
        let mut sink = CkptSink::every(self.cfg.checkpoint_interval);
        let outcome = self.launch(members, &job, csr, now, &mut sink);
        st.checkpoints += sink.taken;
        let Job {
            sources,
            riders: batch,
            resume,
            degrade,
            ..
        } = job;
        let out = match outcome {
            Ok(out) => out,
            Err(LaunchError::Fault { member, fault }) => {
                let fail_at = self.note_fault(members, member, fault, now, st);
                let device = member as u32;
                // Progress is never thrown away: a snapshot taken during
                // this attempt supersedes the one it resumed from;
                // otherwise the old snapshot is re-parked — the iterations
                // it saved are still saved.
                let parked = sink.take().or(resume.map(|(ck, _)| ck));
                let mut riders: Vec<(usize, Queued)> = Vec::new();
                let mut min_retries = u32::MAX;
                for (slot, q) in batch {
                    if q.retries >= self.cfg.max_retries {
                        self.cpu_fallback(&q, csr, now, fail_at, device, st);
                    } else if !st.qos.retry_try_take(&self.cfg.qos, fail_at) {
                        // Retry budget exhausted: under correlated faults,
                        // unbudgeted retries amplify load exactly when the
                        // pool is weakest. Skip the remaining rungs and
                        // degrade straight to the CPU fallback.
                        if self.prof.is_enabled() {
                            self.prof.instant(
                                Track::Qos,
                                "retry_denied",
                                fail_at,
                                vec![("id", q.req.id.into())],
                            );
                        }
                        self.cpu_fallback(&q, csr, now, fail_at, device, st);
                    } else if parked.is_some() {
                        min_retries = min_retries.min(q.retries);
                        riders.push((
                            slot,
                            Queued {
                                retries: q.retries + 1,
                                not_before: 0, // set below, once the gate is known
                                req: q.req,
                                est_ns: q.est_ns,
                            },
                        ));
                    } else {
                        // Rung 1 (no snapshot yet — the fault beat the first
                        // interval): re-queue with exponential backoff. The
                        // gate is strictly in the future, so the event loop
                        // always advances.
                        let delay = self.cfg.backoff_base_ns << q.retries;
                        let not_before = (fail_at + delay).max(now + 1);
                        if self.prof.is_enabled() {
                            self.prof.instant(
                                Track::Fault,
                                "retry",
                                fail_at,
                                vec![("id", q.req.id.into()), ("not_before", not_before.into())],
                            );
                        }
                        st.queue.push(Queued {
                            retries: q.retries + 1,
                            not_before,
                            req: q.req,
                            est_ns: q.est_ns,
                        });
                    }
                }
                // With every rider already answered by the CPU reference,
                // the snapshot has no one left to serve and is dropped.
                if let (Some(ck), false) = (parked, riders.is_empty()) {
                    let delay = self.cfg.backoff_base_ns << min_retries;
                    let not_before = (fail_at + delay).max(now + 1);
                    for (_, q) in &mut riders {
                        q.not_before = not_before;
                    }
                    if self.prof.is_enabled() {
                        self.prof.instant(
                            Track::Ckpt,
                            "park",
                            fail_at,
                            vec![
                                ("device", device.into()),
                                ("iteration", ck.iteration.into()),
                                ("riders", riders.len().into()),
                            ],
                        );
                    }
                    let ckpt_key = st.store.put(ck);
                    st.resumables.push(ResumableBatch {
                        graph,
                        sources,
                        riders,
                        ckpt_key,
                        from: members.to_vec(),
                        not_before,
                    });
                }
                return;
            }
            // The devices could not make room for a fresh batch (e.g.
            // memory fragmentation across co-resident tenants): refuse it;
            // the rest of the queue keeps flowing.
            Err(LaunchError::Denied) if resume.is_none() => {
                for (_, q) in &batch {
                    self.reject(q.req.id, RejectReason::AdmissionDenied, now, st);
                }
                return;
            }
            // A resumed batch the devices cannot host right now, or whose
            // snapshot did not validate (stale epoch or shape mismatch),
            // is demoted: the riders re-enter the ordinary queue and the
            // ladder continues from scratch.
            Err(LaunchError::Denied | LaunchError::Stale) => {
                st.queue.extend(batch.into_iter().map(|(_, q)| q));
                return;
            }
        };
        let completion = out.ready + out.total_ns;
        for &i in members {
            let worker = &mut self.workers[i];
            worker.consecutive_faults = 0;
            worker.busy_ns += completion - now;
            worker.free_at = completion;
        }
        let device = members[0] as u32;
        match resume {
            Some((ck, from)) => {
                let migrated = members != from;
                st.resumes += 1;
                st.work_saved_iterations += ck.iteration as u64;
                if migrated {
                    st.migrations += 1;
                }
                if self.prof.is_enabled() {
                    self.prof.instant(
                        Track::Ckpt,
                        if migrated { "migrate" } else { "resume" },
                        now,
                        vec![
                            ("device", device.into()),
                            ("from_device", (from[0] as u32).into()),
                            ("iteration", ck.iteration.into()),
                            ("riders", batch.len().into()),
                        ],
                    );
                }
            }
            // Calibrate the cost model with the measured per-request device
            // time. Degraded (zero-copy) launches are excluded: their costs
            // would bias estimates for the normal path.
            None if !degrade => {
                st.qos
                    .cost
                    .observe(&graph, csr, &self.cfg.eta, out.total_ns / batch.len() as Ns)
            }
            None => {
                st.qos.stats.brownout_batches += 1;
                // lint: allow(L-CAST-TRUNC): batch size is bounded by cfg.max_batch (<= 32)
                st.qos.stats.brownout_downgrades += batch.len() as u32;
            }
        }
        if let Some((bytes, supersteps)) = out.exchange {
            let key = members.iter().map(|&i| i as u32).collect();
            let acc = st.groups.entry(key).or_default();
            acc.queries += 1;
            acc.busy_ns += out.total_ns;
            acc.exchanged_bytes += bytes;
            acc.supersteps += supersteps;
        }
        st.batches.push(BatchRecord {
            device,
            graph: graph.clone(),
            size: batch.len() as u32,
            dispatched_ns: now,
            started_ns: out.ready,
            completed_ns: completion,
        });
        for (slot, q) in &batch {
            let r = &q.req;
            let levels = &out.levels[*slot];
            let reached = levels.iter().filter(|&&l| l != u32::MAX).count() as u32;
            st.records.push(RequestRecord {
                id: r.id,
                graph: r.graph.clone(),
                class: r.class,
                source: r.source,
                arrival_ns: r.arrival_ns,
                queue_wait_ns: now - r.arrival_ns,
                transfer_ns: (completion - now).saturating_sub(out.kernel_ns),
                compute_ns: out.kernel_ns,
                latency_ns: completion - r.arrival_ns,
                batch_size: batch.len() as u32,
                device,
                reached,
                levels_digest: digest_words(&[levels]),
                deadline_met: r.deadline_ns.map(|d| completion <= d),
                degraded: false,
                retries: q.retries,
            });
        }
        if self.prof.is_enabled() {
            self.prof.record(
                Track::Sched,
                "batch",
                now,
                completion,
                vec![
                    ("graph", graph.as_str().into()),
                    ("device", device.into()),
                    ("size", batch.len().into()),
                ],
            );
        }
    }

    /// Shared device-fault bookkeeping: every member's clock and busy time
    /// run to the fault, the faulting `member` gets the fault event and a
    /// consecutive strike, and is quarantined when the strikes reach the
    /// threshold. Returns the fault time on the service clock.
    fn note_fault(
        &mut self,
        members: &[usize],
        member: usize,
        fault: DeviceFault,
        now: Ns,
        st: &mut RunState,
    ) -> Ns {
        // The devices stopped where the fault surfaced; they were busy
        // (and the requests were in flight) until then.
        let fail_at = fault.at_ns.max(now);
        for &i in members {
            let worker = &mut self.workers[i];
            worker.busy_ns += fail_at - now;
            worker.free_at = fail_at;
        }
        let worker = &mut self.workers[member];
        worker.consecutive_faults += 1;
        worker.faults += 1;
        let device = worker.id as u32;
        let strikes = worker.consecutive_faults;
        st.fault_events.push(FaultEvent {
            device,
            kind: fault.kind.name().to_string(),
            at_ns: fault.at_ns,
        });
        if self.prof.is_enabled() {
            self.prof.instant(
                Track::Fault,
                "device_fault",
                fail_at,
                vec![
                    ("device", device.into()),
                    ("kind", fault.kind.name().into()),
                ],
            );
        }
        if strikes >= self.cfg.quarantine_after {
            let worker = &mut self.workers[member];
            worker.quarantined_until = fail_at + self.cfg.quarantine_ns;
            worker.consecutive_faults = 0;
            let until_ns = worker.quarantined_until;
            st.quarantines.push(QuarantineRecord {
                device,
                from_ns: fail_at,
                until_ns,
            });
            if self.prof.is_enabled() {
                self.prof.instant(
                    Track::Fault,
                    "quarantine",
                    fail_at,
                    vec![("device", device.into()), ("until_ns", until_ns.into())],
                );
            }
        }
        fail_at
    }

    /// Rung 3: the CPU reference answers a rider whose retry budget is
    /// exhausted. Slow but sure — the response is correct, only the path
    /// is degraded.
    fn cpu_fallback(
        &mut self,
        q: &Queued,
        csr: &Csr,
        now: Ns,
        fail_at: Ns,
        device: u32,
        st: &mut RunState,
    ) {
        let levels = reference::bfs(csr, q.req.source);
        let reached = levels.iter().filter(|&&l| l != u32::MAX).count() as u32;
        let cpu_ns = Self::cpu_fallback_ns(csr);
        let completion = fail_at + cpu_ns;
        if self.prof.is_enabled() {
            self.prof.instant(
                Track::Fault,
                "cpu_fallback",
                fail_at,
                vec![("id", q.req.id.into()), ("cpu_ns", cpu_ns.into())],
            );
        }
        st.records.push(RequestRecord {
            id: q.req.id,
            graph: q.req.graph.clone(),
            class: q.req.class,
            source: q.req.source,
            arrival_ns: q.req.arrival_ns,
            queue_wait_ns: now - q.req.arrival_ns,
            transfer_ns: 0,
            compute_ns: cpu_ns,
            latency_ns: completion - q.req.arrival_ns,
            batch_size: 1,
            device,
            reached,
            levels_digest: digest_words(&[&levels]),
            deadline_met: q.req.deadline_ns.map(|d| completion <= d),
            degraded: true,
            retries: q.retries,
        });
    }

    /// Simulated cost of a host-side [`reference::bfs`] answer: a fixed
    /// software overhead plus memory-bound per-vertex and per-edge walks,
    /// far off the GPU's rates. Deterministic by construction.
    fn cpu_fallback_ns(csr: &Csr) -> Ns {
        10_000 + 2 * csr.n() as Ns + 4 * csr.m() as Ns
    }

    /// Assembles the final report: makespan, throughput, availability,
    /// per-device and per-group stats, and the fault/quarantine timelines.
    fn finish(&self, st: RunState) -> ServeReport {
        let RunState {
            mut records,
            mut rejections,
            batches,
            fault_events,
            quarantines,
            groups,
            checkpoints,
            resumes,
            migrations,
            work_saved_iterations,
            qos,
            ..
        } = st;
        records.sort_by_key(|r| r.id);
        rejections.sort_by_key(|r| r.id);
        // CPU-fallback completions have no batch record, so the makespan
        // also covers per-request completion times (identical to the batch
        // maximum on a fault-free run).
        let makespan_ns = batches
            .iter()
            .map(|b| b.completed_ns)
            .chain(records.iter().map(|r| r.arrival_ns + r.latency_ns))
            .max()
            .unwrap_or(0);
        let throughput_qps = if makespan_ns == 0 {
            0.0
        } else {
            records.len() as f64 / (makespan_ns as f64 / 1e9)
        };
        let devices = self
            .workers
            .iter()
            .map(|w| DeviceStats {
                device: w.id as u32,
                busy_ns: w.busy_ns,
                utilization: if makespan_ns == 0 {
                    0.0
                } else {
                    w.busy_ns as f64 / makespan_ns as f64
                },
                uploads: w.uploads,
                evictions: w.evictions,
            })
            .collect();
        let groups = groups
            .into_iter()
            .map(|(devices, a)| GroupStats {
                devices,
                queries: a.queries,
                busy_ns: a.busy_ns,
                utilization: if makespan_ns == 0 {
                    0.0
                } else {
                    a.busy_ns as f64 / makespan_ns as f64
                },
                exchanged_bytes: a.exchanged_bytes,
                supersteps: a.supersteps,
                bytes_per_superstep: a.exchanged_bytes.checked_div(a.supersteps).unwrap_or(0),
            })
            .collect();
        let degraded = records.iter().filter(|r| r.degraded).count() as u32;
        let denom = records.len() + rejections.len();
        let availability = if denom == 0 {
            1.0
        } else {
            records.len() as f64 / denom as f64
        };
        ServeReport {
            completed: records.len() as u32,
            rejected: rejections.len() as u32,
            degraded,
            availability,
            makespan_ns,
            throughput_qps,
            records,
            rejections,
            batches,
            devices,
            fault_events,
            quarantines,
            checkpoints,
            resumes,
            migrations,
            work_saved_iterations,
            groups,
            qos: if self.cfg.qos.any_enabled() {
                Some(qos.stats)
            } else {
                None
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::Priority;
    use eta_graph::generate::{rmat, RmatConfig};
    use eta_graph::reference;

    fn registry_with(names: &[(&str, u64)]) -> GraphRegistry {
        let mut reg = GraphRegistry::new();
        for &(name, seed) in names {
            reg.insert(name, rmat(&RmatConfig::paper(10, 8_000, seed)));
        }
        reg
    }

    fn req(id: u32, graph: &str, source: u32, arrival_ns: Ns) -> Request {
        Request {
            id,
            graph: graph.to_string(),
            class: Priority::Batch,
            source,
            arrival_ns,
            deadline_ns: None,
            timeout_ns: None,
        }
    }

    #[test]
    fn simultaneous_same_graph_requests_share_one_launch() {
        let reg = registry_with(&[("g", 1)]);
        let trace: Vec<Request> = (0..5).map(|i| req(i, "g", i, 0)).collect();
        let mut service = Service::new(&reg, ServeConfig::default());
        let report = service.run(&trace);
        assert_eq!(report.completed, 5);
        assert_eq!(report.batches.len(), 1, "5 waiting sources → one launch");
        assert_eq!(report.batches[0].size, 5);
        // Every answer matches the host reference.
        let g = reg.get("g").unwrap();
        for r in &report.records {
            let levels = reference::bfs(g, r.source);
            let reached = levels.iter().filter(|&&l| l != u32::MAX).count() as u32;
            assert_eq!(r.reached, reached, "request {} reach count", r.id);
        }
    }

    #[test]
    fn batching_cannot_lose_to_unbatched_fifo() {
        let reg = registry_with(&[("g", 1)]);
        let trace: Vec<Request> = (0..12).map(|i| req(i, "g", 3 * i, 0)).collect();
        let batched = Service::new(&reg, ServeConfig::default()).run(&trace);
        let unbatched = Service::new(
            &reg,
            ServeConfig {
                max_batch: 1,
                policy: Policy::Fifo,
                ..ServeConfig::default()
            },
        )
        .run(&trace);
        assert_eq!(batched.completed, 12);
        assert_eq!(unbatched.completed, 12);
        assert!(
            batched.makespan_ns < unbatched.makespan_ns,
            "batched {} ns should beat unbatched {} ns",
            batched.makespan_ns,
            unbatched.makespan_ns
        );
    }

    #[test]
    fn admission_rejects_with_typed_reasons() {
        let reg = registry_with(&[("g", 1)]);
        let n = reg.get("g").unwrap().n() as u32;
        let trace = vec![
            req(0, "nope", 0, 0),
            req(1, "g", n, 0), // first out-of-range id
            req(2, "g", 0, 0),
        ];
        let mut service = Service::new(&reg, ServeConfig::default());
        let report = service.run(&trace);
        assert_eq!(report.completed, 1);
        assert_eq!(report.rejections.len(), 2);
        assert_eq!(report.rejections[0].reason, RejectReason::UnknownGraph);
        assert_eq!(report.rejections[1].reason, RejectReason::SourceOutOfRange);
    }

    #[test]
    fn bounded_queue_applies_backpressure() {
        let reg = registry_with(&[("g", 1)]);
        // Three arrive while the queue holds two: one launch is in flight
        // (the t=0 request), two wait, the third bounces.
        let trace = vec![
            req(0, "g", 0, 0),
            req(1, "g", 1, 1),
            req(2, "g", 2, 1),
            req(3, "g", 3, 1),
        ];
        let cfg = ServeConfig {
            queue_capacity: 2,
            ..ServeConfig::default()
        };
        let report = Service::new(&reg, cfg).run(&trace);
        assert_eq!(report.completed, 3);
        assert_eq!(report.rejections.len(), 1);
        assert_eq!(report.rejections[0].id, 3);
        assert_eq!(report.rejections[0].reason, RejectReason::QueueFull);
    }

    #[test]
    fn priority_policy_serves_interactive_first() {
        let reg = registry_with(&[("a", 1), ("b", 2)]);
        // One launch in flight; then a batch-class and an interactive
        // request (different graphs, so they cannot share a launch).
        let mut trace = vec![req(0, "a", 0, 0)];
        let mut batch_req = req(1, "a", 1, 1);
        batch_req.class = Priority::Batch;
        let mut inter_req = req(2, "b", 2, 2);
        inter_req.class = Priority::Interactive;
        trace.push(batch_req);
        trace.push(inter_req);
        let report = Service::new(&reg, ServeConfig::default()).run(&trace);
        assert_eq!(report.completed, 3);
        let dispatched = |id: u32| {
            let r = report.records.iter().find(|r| r.id == id).unwrap();
            r.arrival_ns + r.queue_wait_ns
        };
        assert!(
            dispatched(2) < dispatched(1),
            "interactive request must dispatch before the earlier batch one"
        );
    }

    #[test]
    fn timeouts_drop_stale_requests_at_dispatch() {
        let reg = registry_with(&[("g", 1)]);
        let mut stale = req(1, "g", 1, 1);
        stale.timeout_ns = Some(10); // far shorter than any BFS launch
        let trace = vec![req(0, "g", 0, 0), stale, req(2, "g", 2, 2)];
        let report = Service::new(&reg, ServeConfig::default()).run(&trace);
        assert_eq!(report.completed, 2);
        assert_eq!(report.rejections.len(), 1);
        assert_eq!(report.rejections[0].id, 1);
        assert_eq!(report.rejections[0].reason, RejectReason::TimedOut);
    }

    #[test]
    fn profiled_service_records_scheduler_and_device_events() {
        let reg = registry_with(&[("g", 1)]);
        let n = reg.get("g").unwrap().n() as u32;
        let trace = vec![req(0, "g", 0, 0), req(1, "g", 1, 0), req(2, "g", n, 0)];
        let cfg = ServeConfig {
            gpu: GpuConfig::default_preset().with_profiling(),
            ..ServeConfig::default()
        };
        let mut service = Service::new(&reg, cfg);
        service.run(&trace);
        let p = service.profile();
        assert_eq!(p.processes.len(), 2, "scheduler + one device");
        let sched = &p.processes[0];
        assert_eq!(sched.name, "scheduler");
        let names: Vec<&str> = sched.events.iter().map(|e| e.name.as_str()).collect();
        assert!(names.contains(&"enqueue"));
        assert!(names.contains(&"reject"), "out-of-range source rejected");
        assert!(names.contains(&"batch"));
        assert!(p.kernel_busy_ns() > 0, "device process has kernel events");
        // Default config records nothing at all.
        let mut quiet = Service::new(&reg, ServeConfig::default());
        quiet.run(&trace);
        assert_eq!(quiet.profile().event_count(), 0);
    }

    #[test]
    fn zero_timeout_is_rejected_at_its_arrival_tick() {
        // Regression for the boundary bug: the old `>` comparison let a
        // request whose wait exactly equalled its timeout slip through.
        // The pinned semantics are inclusive: wait >= limit is too old,
        // so a zero timeout can never dispatch — not even at the arrival
        // tick, where the wait is exactly 0. Device groups share the
        // sweep, so the same holds for sharded serving.
        let reg = registry_with(&[("g", 1)]);
        let trace: Vec<Request> = (0..2)
            .map(|i| {
                let mut zero = req(i, "g", i, 0);
                zero.timeout_ns = Some(0);
                zero
            })
            .collect();
        for group_size in [1, 2] {
            let cfg = ServeConfig {
                devices: group_size,
                group_size,
                ..ServeConfig::default()
            };
            let report = Service::new(&reg, cfg).run(&trace);
            assert_eq!(report.completed, 0, "group_size {group_size}");
            assert_eq!(report.rejections.len(), 2);
            for r in &report.rejections {
                assert_eq!(r.reason, RejectReason::TimedOut);
                assert_eq!(r.at_ns, 0, "dropped at the arrival tick");
            }
        }
    }

    #[test]
    fn one_shot_fault_is_absorbed_by_a_retry() {
        use eta_fault::{EccFault, FaultPlan};
        let reg = registry_with(&[("g", 1)]);
        // One uncorrectable ECC hit early on device 0; it fires during the
        // first batch, the retry runs on a now-clean device and succeeds.
        let plan = FaultPlan {
            ecc: vec![EccFault {
                device: 0,
                at_ns: 50_000,
                addr_start: 0,
                addr_words: u64::MAX,
                double_bit: true,
            }],
            ..FaultPlan::default()
        };
        let cfg = ServeConfig {
            faults: plan,
            ..ServeConfig::default()
        };
        let report = Service::new(&reg, cfg).run(&[req(0, "g", 0, 0)]);
        assert_eq!(report.completed, 1);
        assert_eq!(report.degraded, 0, "device answered after the retry");
        assert_eq!(report.fault_events.len(), 1);
        assert_eq!(report.fault_events[0].kind, "ecc_double_bit");
        assert!(report.quarantines.is_empty(), "one strike is not enough");
        let r = &report.records[0];
        assert_eq!(r.retries, 1);
        assert!(!r.degraded);
        let expect = reference::bfs(reg.get("g").unwrap(), 0);
        let reached = expect.iter().filter(|&&l| l != u32::MAX).count() as u32;
        assert_eq!(r.reached, reached, "retried answer is still correct");
        assert_eq!(report.availability, 1.0);
    }

    #[test]
    fn persistent_faults_quarantine_the_device_and_fall_back_to_cpu() {
        use eta_fault::{FaultPlan, HangFault};
        let reg = registry_with(&[("g", 1)]);
        // A permanent hang window with a tiny budget: every launch on
        // device 0 faults, so the ladder runs to its last rung.
        let plan = FaultPlan {
            hangs: vec![HangFault {
                device: 0,
                start_ns: 0,
                end_ns: Ns::MAX,
                budget_ns: 1_000,
            }],
            ..FaultPlan::default()
        };
        let cfg = ServeConfig {
            faults: plan,
            ..ServeConfig::default()
        };
        let report = Service::new(&reg, cfg).run(&[req(0, "g", 0, 0)]);
        // Attempts at retries 0, 1, 2 all hang; the third strike both
        // quarantines the device and exhausts max_retries (2), so the CPU
        // reference answers.
        assert_eq!(report.completed, 1, "no request is lost to faults");
        assert_eq!(report.rejected, 0);
        assert_eq!(report.degraded, 1);
        assert_eq!(report.availability, 1.0);
        assert_eq!(report.fault_events.len(), 3);
        assert!(report
            .fault_events
            .iter()
            .all(|f| f.kind == "kernel_hang" && f.device == 0));
        assert_eq!(report.quarantines.len(), 1, "third strike quarantines");
        let q = &report.quarantines[0];
        assert_eq!(q.device, 0);
        assert!(q.until_ns > q.from_ns);
        let r = &report.records[0];
        assert!(r.degraded);
        assert_eq!(r.retries, 2);
        let expect = reference::bfs(reg.get("g").unwrap(), 0);
        let reached = expect.iter().filter(|&&l| l != u32::MAX).count() as u32;
        assert_eq!(r.reached, reached, "the CPU fallback answer is correct");
        assert!(r.latency_ns > 0);
        assert_eq!(report.makespan_ns, r.arrival_ns + r.latency_ns);
    }

    #[test]
    fn faulted_runs_are_deterministic() {
        let reg = registry_with(&[("g", 1), ("h", 2)]);
        let plan = eta_fault::FaultPlan::seeded(7, 1, 40_000_000);
        assert!(!plan.is_empty());
        let trace: Vec<Request> = (0..8)
            .map(|i| req(i, if i % 2 == 0 { "g" } else { "h" }, i, (i as Ns) * 10_000))
            .collect();
        let cfg = ServeConfig {
            faults: plan,
            ..ServeConfig::default()
        };
        let a = Service::new(&reg, cfg.clone()).run(&trace);
        let b = Service::new(&reg, cfg).run(&trace);
        let json = |r: &ServeReport| serde_json::to_string(r).expect("report serializes");
        assert_eq!(json(&a), json(&b), "same plan, same trace, same bytes");
        assert_eq!(a.completed + a.rejected, 8, "every request is accounted");
    }

    #[test]
    fn checkpointed_ladder_resumes_and_beats_restart_from_scratch() {
        use eta_fault::{FaultPlan, HangFault};
        let reg = registry_with(&[("g", 1)]);
        let trace = vec![req(0, "g", 0, 0)];
        // Budget 50 µs: the small early-iteration kernels fit, the
        // peak-frontier propagate kernel does not — the watchdog kills the
        // traversal mid-run, after the interval-2 snapshot exists.
        let permanent = |end_ns| FaultPlan {
            hangs: vec![HangFault {
                device: 0,
                start_ns: 0,
                end_ns,
                budget_ns: 50_000,
            }],
            ..FaultPlan::default()
        };
        // Probe: a permanent window pins down the (deterministic) time of
        // the first mid-traversal kill under checkpointing.
        let probe = Service::new(
            &reg,
            ServeConfig {
                faults: permanent(Ns::MAX),
                checkpoint_interval: 2,
                ..ServeConfig::default()
            },
        )
        .run(&trace);
        assert_eq!(probe.completed, 1, "even a permanent hang loses nothing");
        let fail_at = probe.fault_events[0].at_ns;
        // Close the window just after that first kill: the re-probe on the
        // same device (rung 0, after one backoff) then runs clean.
        let ckpt = Service::new(
            &reg,
            ServeConfig {
                faults: permanent(fail_at + 1),
                checkpoint_interval: 2,
                ..ServeConfig::default()
            },
        )
        .run(&trace);
        assert_eq!(ckpt.completed, 1);
        assert_eq!(ckpt.degraded, 0, "the resume answered, not the CPU");
        assert_eq!(ckpt.resumes, 1, "one resume-from-checkpoint");
        assert_eq!(ckpt.migrations, 0, "same-device re-probe, no migration");
        assert!(ckpt.checkpoints >= 1);
        assert_eq!(
            ckpt.work_saved_iterations, 2,
            "the interval-2 snapshot restored iteration 2"
        );
        let r = &ckpt.records[0];
        assert_eq!(r.retries, 1);
        let expect = reference::bfs(reg.get("g").unwrap(), 0);
        assert_eq!(
            r.levels_digest,
            eta_ckpt::digest_words(&[&expect]),
            "resumed answer is bit-identical to the host reference"
        );
        // The same plan without checkpointing restarts from scratch; the
        // resume path must strictly beat it on the service clock.
        let scratch = Service::new(
            &reg,
            ServeConfig {
                faults: permanent(fail_at + 1),
                ..ServeConfig::default()
            },
        )
        .run(&trace);
        assert_eq!(scratch.completed, 1);
        assert_eq!(scratch.resumes, 0);
        assert!(
            ckpt.makespan_ns < scratch.makespan_ns,
            "resume ({} ns) must beat restart-from-scratch ({} ns)",
            ckpt.makespan_ns,
            scratch.makespan_ns
        );
    }

    #[test]
    fn resume_migrates_off_a_quarantined_device() {
        use eta_fault::{FaultPlan, HangFault};
        let reg = registry_with(&[("g", 1)]);
        // Device 0 hangs forever at the peak-frontier kernel and is
        // quarantined on its first strike; the parked batch must migrate
        // to healthy device 1 and finish from the snapshot.
        let plan = FaultPlan {
            hangs: vec![HangFault {
                device: 0,
                start_ns: 0,
                end_ns: Ns::MAX,
                budget_ns: 50_000,
            }],
            ..FaultPlan::default()
        };
        let cfg = ServeConfig {
            devices: 2,
            faults: plan,
            quarantine_after: 1,
            checkpoint_interval: 2,
            ..ServeConfig::default()
        };
        let report = Service::new(&reg, cfg).run(&[req(0, "g", 0, 0)]);
        assert_eq!(report.completed, 1);
        assert_eq!(report.degraded, 0);
        assert_eq!(report.quarantines.len(), 1);
        assert_eq!(report.quarantines[0].device, 0);
        assert_eq!(report.resumes, 1);
        assert_eq!(report.migrations, 1, "resume landed on the other device");
        assert_eq!(report.work_saved_iterations, 2);
        let r = &report.records[0];
        assert_eq!(r.device, 1, "answered by the healthy device");
        let expect = reference::bfs(reg.get("g").unwrap(), 0);
        assert_eq!(r.levels_digest, eta_ckpt::digest_words(&[&expect]));
    }

    #[test]
    fn consecutive_fault_counter_resets_on_successful_reprobe() {
        use eta_fault::{FaultPlan, HangFault};
        let reg = registry_with(&[("g", 1)]);
        let trace = vec![req(0, "g", 0, 0)];
        // Probe the first kill time, then close the window just after it:
        // the retry runs clean on the same device.
        let permanent = |end_ns| FaultPlan {
            hangs: vec![HangFault {
                device: 0,
                start_ns: 0,
                end_ns,
                budget_ns: 50_000,
            }],
            ..FaultPlan::default()
        };
        let probe = Service::new(
            &reg,
            ServeConfig {
                faults: permanent(Ns::MAX),
                ..ServeConfig::default()
            },
        )
        .run(&trace);
        let fail_at = probe.fault_events[0].at_ns;
        let mut service = Service::new(
            &reg,
            ServeConfig {
                faults: permanent(fail_at + 1),
                ..ServeConfig::default()
            },
        );
        let report = service.run(&trace);
        assert_eq!(report.completed, 1);
        assert_eq!(report.degraded, 0);
        assert_eq!(report.fault_events.len(), 1);
        let w = &service.workers()[0];
        assert_eq!(
            w.consecutive_faults, 0,
            "a successful re-probe must clear the quarantine strikes"
        );
        assert_eq!(w.faults, 1, "the lifetime fault count is kept");
        assert!(report.quarantines.is_empty());
    }

    #[test]
    fn mid_batch_quarantine_strands_no_riders() {
        use eta_fault::{FaultPlan, HangFault};
        let reg = registry_with(&[("g", 1)]);
        // A batch of 5 rides a device that hangs instantly and quarantines
        // on the first strike. Every rider must still be answered: the
        // ladder walks retry → quarantine wait → retry → CPU fallback.
        let plan = FaultPlan {
            hangs: vec![HangFault {
                device: 0,
                start_ns: 0,
                end_ns: Ns::MAX,
                budget_ns: 1_000,
            }],
            ..FaultPlan::default()
        };
        let cfg = ServeConfig {
            faults: plan,
            quarantine_after: 1,
            checkpoint_interval: 2,
            ..ServeConfig::default()
        };
        let trace: Vec<Request> = (0..5).map(|i| req(i, "g", i, 0)).collect();
        let report = Service::new(&reg, cfg).run(&trace);
        assert_eq!(
            report.completed + report.rejected,
            5,
            "a quarantine mid-batch may not strand its riders"
        );
        assert_eq!(report.completed, 5);
        assert_eq!(report.degraded, 5, "instant hangs push everyone to CPU");
        assert!(!report.quarantines.is_empty());
        for r in &report.records {
            let expect = reference::bfs(reg.get("g").unwrap(), r.source);
            assert_eq!(r.levels_digest, eta_ckpt::digest_words(&[&expect]));
        }
    }

    #[test]
    fn checkpointed_faulted_runs_are_deterministic() {
        let reg = registry_with(&[("g", 1), ("h", 2)]);
        let plan = eta_fault::FaultPlan::seeded(7, 1, 40_000_000);
        let trace: Vec<Request> = (0..8)
            .map(|i| req(i, if i % 2 == 0 { "g" } else { "h" }, i, (i as Ns) * 10_000))
            .collect();
        let cfg = ServeConfig {
            faults: plan,
            checkpoint_interval: 2,
            ..ServeConfig::default()
        };
        let a = Service::new(&reg, cfg.clone()).run(&trace);
        let b = Service::new(&reg, cfg).run(&trace);
        let json = |r: &ServeReport| serde_json::to_string(r).expect("report serializes");
        assert_eq!(json(&a), json(&b), "same plan, same trace, same bytes");
        assert_eq!(a.completed + a.rejected, 8, "every request is accounted");
    }

    #[test]
    fn two_devices_split_independent_graphs() {
        let reg = registry_with(&[("a", 1), ("b", 2)]);
        let trace = vec![req(0, "a", 0, 0), req(1, "b", 0, 0)];
        let cfg = ServeConfig {
            devices: 2,
            ..ServeConfig::default()
        };
        let mut service = Service::new(&reg, cfg);
        let report = service.run(&trace);
        assert_eq!(report.completed, 2);
        let used: Vec<u32> = report.batches.iter().map(|b| b.device).collect();
        assert!(used.contains(&0) && used.contains(&1), "both devices used");
        // Both launches start at t=0: the second was not serialized behind
        // the first.
        assert!(report.batches.iter().all(|b| b.dispatched_ns == 0));
    }

    /// A group-serving config: `devices` in the pool, groups of two, and
    /// quarantine on the first strike (a group fault stalls every member).
    fn group_cfg(devices: usize) -> ServeConfig {
        ServeConfig {
            devices,
            group_size: 2,
            quarantine_after: 1,
            ..ServeConfig::default()
        }
    }

    #[test]
    fn group_queries_answer_like_the_reference() {
        let reg = registry_with(&[("g", 1)]);
        let expect: Vec<u64> = (0..3u32)
            .map(|s| digest_words(&[&reference::bfs(reg.get("g").unwrap(), s)]))
            .collect();
        let trace: Vec<Request> = (0..3).map(|i| req(i, "g", i, 0)).collect();
        let report = Service::new(&reg, group_cfg(2)).run(&trace);
        assert_eq!(report.completed, 3);
        assert_eq!(report.degraded, 0);
        for r in &report.records {
            assert_eq!(r.levels_digest, expect[r.source as usize], "query {}", r.id);
        }
        assert_eq!(report.groups.len(), 1, "one composition: {{0,1}}");
        let g = &report.groups[0];
        assert_eq!(g.devices, vec![0, 1]);
        assert_eq!(g.queries, 3);
        assert!(g.exchanged_bytes > 0, "halo traffic crossed the fabric");
        assert!(g.bytes_per_superstep > 0);
        assert!(g.utilization > 0.0 && g.utilization <= 1.0);
    }

    #[test]
    fn groups_are_acquired_and_released_atomically() {
        let reg = registry_with(&[("g", 1)]);
        // Pool of 2, group of 2: two simultaneous queries must serialize —
        // a half-claimed group would let them overlap.
        let trace = vec![req(0, "g", 0, 0), req(1, "g", 5, 0)];
        let report = Service::new(&reg, group_cfg(2)).run(&trace);
        assert_eq!(report.completed, 2);
        assert_eq!(report.batches.len(), 2);
        let (a, b) = (&report.batches[0], &report.batches[1]);
        let (first, second) = if a.dispatched_ns <= b.dispatched_ns {
            (a, b)
        } else {
            (b, a)
        };
        assert!(
            second.dispatched_ns >= first.completed_ns,
            "second group query waited for the whole group"
        );
    }

    #[test]
    fn oversized_partitions_are_refused_at_admission() {
        let reg = registry_with(&[("g", 1)]);
        let cfg = group_cfg(2);
        let part = GraphPartition::vertex_range(reg.get("g").unwrap(), 2);
        let explicit = cfg.eta.transfer.topology_is_explicit();
        let max_shard = part
            .shards
            .iter()
            .map(|s| s.footprint_bytes(cfg.eta.k, explicit))
            .max()
            .unwrap();
        // Regression for halo-blind admission: capacity sits between the
        // owned-only estimate (whole graph / group) and the true largest
        // member footprint. Sizing by owned ranges alone would admit — and
        // then OOM mid-flight; the halo-aware check must refuse upfront.
        let owned_only = max_shard
            - part
                .shards
                .iter()
                .map(|s| (s.halo.len() as u64) * 2 * 4) // halo label+tag words
                .max()
                .unwrap();
        assert!(owned_only < max_shard, "the halo replicas are what differ");
        let capacity = max_shard - 1;
        let tight = ServeConfig {
            gpu: GpuConfig::gtx1080ti_scaled(capacity),
            ..cfg
        };
        let report = Service::new(&reg, tight).run(&[req(0, "g", 0, 0)]);
        assert_eq!(report.completed, 0);
        assert_eq!(report.rejections.len(), 1);
        assert_eq!(report.rejections[0].reason, RejectReason::AdmissionDenied);
        // At exactly the largest member's footprint (plus topology slack
        // from the upload itself), the same query is admitted and served.
        let roomy = ServeConfig {
            gpu: GpuConfig::gtx1080ti_scaled(max_shard * 3),
            ..group_cfg(2)
        };
        let report = Service::new(&reg, roomy).run(&[req(0, "g", 0, 0)]);
        assert_eq!(report.completed, 1);
    }

    #[test]
    fn faulted_member_quarantines_and_the_query_regroups() {
        use eta_fault::HangFault;
        let reg = registry_with(&[("g", 1)]);
        let expect = digest_words(&[&reference::bfs(reg.get("g").unwrap(), 0)]);
        // Member 1 hangs instantly and permanently; pool of 3 with groups
        // of 2. The first attempt on {0, 1} faults, member 1 quarantines,
        // and the retry regroups on {0, 2} and completes on the devices.
        let plan = FaultPlan {
            hangs: vec![HangFault {
                device: 1,
                start_ns: 0,
                end_ns: Ns::MAX,
                budget_ns: 1_000,
            }],
            ..FaultPlan::default()
        };
        let cfg = ServeConfig {
            faults: plan,
            checkpoint_interval: 2,
            ..group_cfg(3)
        };
        let report = Service::new(&reg, cfg).run(&[req(0, "g", 0, 0)]);
        assert_eq!(report.completed, 1, "0 lost");
        assert_eq!(report.degraded, 0, "answered on devices, not the CPU");
        assert_eq!(report.records[0].levels_digest, expect, "0 wrong");
        assert_eq!(report.quarantines.len(), 1);
        assert_eq!(report.quarantines[0].device, 1);
        assert!(report.records[0].retries >= 1);
        let regrouped = report
            .groups
            .iter()
            .any(|g| g.devices == vec![0, 2] && g.queries == 1);
        assert!(regrouped, "the query completed on the regrouped set");
    }

    #[test]
    fn parked_snapshot_resumes_on_the_regrouped_set() {
        use eta_fault::HangFault;
        let reg = registry_with(&[("g", 1)]);
        let expect = digest_words(&[&reference::bfs(reg.get("g").unwrap(), 0)]);
        // A budget that admits the small early-superstep kernels but kills
        // the peak-frontier one: the interval-1 snapshot exists when member
        // 1 dies, so the regrouped retry resumes instead of restarting.
        let plan = FaultPlan {
            hangs: vec![HangFault {
                device: 1,
                start_ns: 0,
                end_ns: Ns::MAX,
                budget_ns: 40_000,
            }],
            ..FaultPlan::default()
        };
        let cfg = ServeConfig {
            faults: plan,
            checkpoint_interval: 1,
            ..group_cfg(3)
        };
        let report = Service::new(&reg, cfg).run(&[req(0, "g", 0, 0)]);
        assert_eq!(report.completed, 1);
        assert_eq!(report.degraded, 0);
        assert_eq!(report.records[0].levels_digest, expect);
        assert!(
            report.checkpoints >= 1,
            "a snapshot was taken before the kill"
        );
        assert_eq!(report.resumes, 1, "the retry resumed from the snapshot");
        assert_eq!(report.migrations, 1, "and on a different member set");
        assert!(report.work_saved_iterations >= 1);
    }

    #[test]
    fn group_runs_are_deterministic() {
        let reg = registry_with(&[("g", 1)]);
        let trace: Vec<Request> = (0..5)
            .map(|i| req(i, "g", 2 * i, (i as Ns) * 10_000))
            .collect();
        let run = || {
            let cfg = ServeConfig {
                faults: FaultPlan::seeded(11, 1, 30_000_000),
                checkpoint_interval: 2,
                ..group_cfg(3)
            };
            let report = Service::new(&reg, cfg).run(&trace);
            serde_json::to_string(&report).expect("report serializes")
        };
        assert_eq!(run(), run(), "same config, same trace, same bytes");
    }

    #[test]
    fn partitions_are_cached_and_invalidated_on_replace() {
        let mut reg = GraphRegistry::new();
        reg.insert("g", rmat(&RmatConfig::paper(9, 3_000, 1)));
        let mut parts = Service::new(&reg, ServeConfig::default()).partitions;
        let cuts = parts.get(&reg, "g", 2).unwrap().cuts.clone();
        assert_eq!(parts.get(&reg, "g", 2).unwrap().cuts, cuts, "cache hit");
        assert!(parts.get(&reg, "missing", 2).is_none());
        // The cache lives with a service, which borrows the registry, so a
        // replaced graph is partitioned afresh by the next service.
        reg.insert("g", rmat(&RmatConfig::paper(8, 1_500, 2)));
        let mut parts = Service::new(&reg, ServeConfig::default()).partitions;
        let fresh = parts.get(&reg, "g", 2).unwrap();
        assert_eq!(fresh.n as usize, reg.get("g").unwrap().n());
    }

    #[test]
    fn group_footprint_counts_halo_replicas() {
        let mut reg = GraphRegistry::new();
        reg.insert("g", rmat(&RmatConfig::paper(10, 12_000, 3)));
        let cfg = EtaConfig::paper();
        let mut parts = Partitions::default();
        let fp = parts.max_footprint_bytes(&reg, "g", 2, &cfg).unwrap();
        let part = parts.get(&reg, "g", 2).unwrap();
        assert!(part.halo_total() > 0, "an rmat cut has cross edges");
        // The admitted size is the max *local* footprint; any shard with a
        // non-empty halo is strictly bigger than its owned range alone.
        let explicit = cfg.transfer.topology_is_explicit();
        let max_local = part
            .shards
            .iter()
            .map(|s| s.footprint_bytes(cfg.k, explicit))
            .max()
            .unwrap();
        assert_eq!(fp, max_local);
        assert!(parts
            .max_footprint_bytes(&reg, "missing", 2, &cfg)
            .is_none());
    }
}
