//! The platform world: wires VM traces, invokers, the controller, and the
//! workload into one deterministic discrete-event simulation.

use std::collections::{BTreeMap, HashMap, HashSet};

use hrv_fault::{DispatchOutcome, DispatchSampler, FaultKind, FaultPlan, WarningFault};
use hrv_lb::owner_of;
use hrv_lb::policy::LoadBalancer;
use hrv_lb::view::InvokerId;
use hrv_sim::calendar::{Calendar, EventCalendar, Scheduled};
use hrv_sim::engine::{RunStats, World};
use hrv_trace::faas::{FunctionId, Invocation};
use hrv_trace::harvest::{VmEnd, VmTrace};
use hrv_trace::rng::splitmix64;
use hrv_trace::stream::{ArrivalStream, SortedTraceStream};
use hrv_trace::time::{SimDuration, SimTime};

use hrv_telemetry::{FlightRecorder, PhaseRecord, SpanKind, NO_INVOCATION};

use crate::config::{PlatformConfig, VmTemplate};
use crate::controller::{Controller, RouteOutcome};
use crate::event::{CompletionReport, Event, InvokerIndex, LossCause, ReplicaIndex};
use crate::invoker::{InvokerState, RunningInvocation};
use crate::mailbox::{invoker_entity, replica_entity, EntityId, Envelope, ShardPlan, REPLICA_BASE};
use crate::metrics::{InvocationRecord, MetricsCollector, Outcome, ReplicaOccupancy};
use crate::telemetry::TelemetrySink;

/// The VMs a simulation starts from.
#[derive(Debug, Clone)]
pub struct ClusterSpec {
    /// One VM trace per invoker slot.
    pub vms: Vec<VmTrace>,
}

impl ClusterSpec {
    /// A cluster of `n` identical regular VMs that never change or die
    /// within `horizon`.
    pub fn regular(n: usize, cpus: u32, memory_mb: u64, horizon: SimDuration) -> Self {
        let vms = (0..n)
            .map(|_| {
                VmTrace::constant(
                    SimTime::ZERO,
                    SimTime::ZERO + horizon,
                    VmEnd::Censored,
                    cpus,
                    memory_mb,
                )
            })
            .collect();
        ClusterSpec { vms }
    }

    /// A static heterogeneous cluster with the given per-VM CPU counts
    /// (the paper's "Normal" harvest cluster shape).
    pub fn from_sizes(sizes: &[u32], memory_mb: u64, horizon: SimDuration) -> Self {
        let vms = sizes
            .iter()
            .map(|&cpus| {
                VmTrace::constant(
                    SimTime::ZERO,
                    SimTime::ZERO + horizon,
                    VmEnd::Censored,
                    cpus,
                    memory_mb,
                )
            })
            .collect();
        ClusterSpec { vms }
    }

    /// A cluster driven by arbitrary VM traces (harvest windows, spot
    /// packings, ...).
    pub fn from_traces(vms: Vec<VmTrace>) -> Self {
        ClusterSpec { vms }
    }

    /// Sum of initial CPU allocations.
    pub fn total_initial_cpus(&self) -> u32 {
        self.vms.iter().map(|v| v.initial_cpus).sum()
    }
}

/// Where an invoker slot's VM definition came from.
#[derive(Debug, Clone)]
enum SlotSource {
    Trace(VmTrace),
    Monitor(VmTemplate),
}

/// One controller replica hosted on this shard, bundling the controller
/// proper with the per-controller recovery and fault state that used to
/// live directly on the world. With `sharding.replicas == 1` the single
/// [`ReplicaState`] reproduces the pre-replication platform exactly.
struct ReplicaState {
    /// Global replica index (replica 0 is the classic controller entity).
    index: ReplicaIndex,
    controller: Controller,
    retry_armed: bool,
    /// Dispatch-message fault process, if the fault plan carries one.
    /// Per replica: each rolls its own identically-seeded sequence, so
    /// fault fates do not depend on how replicas interleave.
    dispatch_faults: Option<DispatchSampler>,
    /// Re-dispatch attempts per in-flight invocation id (empty unless
    /// recovery is actively retrying something).
    attempts: HashMap<u64, u32>,
    /// Invocations waiting on a scheduled [`Event::Redispatch`], so a run
    /// that ends first can censor them.
    pending_redispatch: BTreeMap<u64, Invocation>,
    /// Remaining retry budget (from [`crate::config::RecoveryConfig`];
    /// per replica, so the fleet-wide budget scales with replication).
    retry_budget: u64,
    /// When each currently-quarantined invoker entered quarantine.
    quarantine_since: BTreeMap<InvokerIndex, SimTime>,
    /// Consecutive straggler strikes per invoker.
    straggler_strikes: HashMap<InvokerIndex, u32>,
    /// Placement decisions this replica made (occupancy probe).
    placements: u64,
    /// Controller-bound envelopes this replica consumed.
    envelopes: u64,
}

/// The complete simulated platform — or, under the sharded driver, the
/// slice of it one shard owns (see [`ShardPlan`]).
pub struct PlatformWorld {
    cfg: PlatformConfig,
    /// Controller replicas hosted on this shard, ascending by index
    /// (replica `r` lives on shard `r % shards`; its local slot is
    /// `r / shards`).
    replicas: Vec<ReplicaState>,
    /// Total controller replicas across all shards
    /// (`cfg.sharding.replicas`).
    replica_count: u32,
    invokers: Vec<InvokerState>,
    slots: Vec<SlotSource>,
    arrivals: Box<dyn ArrivalStream>,
    /// Metrics sink.
    pub metrics: MetricsCollector,
    /// Which entities (controller, invokers) this world instance owns.
    plan: ShardPlan,
    /// Cross-entity messages produced during the current round; the
    /// round driver drains and re-injects them (see [`crate::shard`]).
    outbox: Vec<Envelope>,
    /// Invocations whose completion [`Event::Report`] to a replica
    /// hosted here was still on the bus when the driver stopped. The
    /// invoker already recorded them `Completed`, so censoring must not
    /// record them again.
    reported_in_flight: HashSet<u64>,
    /// Per-sender message counters backing the canonical envelope order
    /// (invoker and classic-controller entities, indexed by entity id).
    msg_seq: Vec<u64>,
    /// Message counters for replica senders (`REPLICA_BASE + r`), indexed
    /// by replica — the entity ids are far too sparse for `msg_seq`.
    replica_seq: Vec<u64>,
    /// Next invoker slot index the resource monitor may assign
    /// (controller-side; slot indices are globally unique).
    next_slot_index: u32,
    monitor_pending_cpus: u32,
    /// True inside a view-staleness window: replica 0's health pings are
    /// dropped.
    view_frozen: bool,
    /// Flight recorder + phase-attribution bookkeeping (a strict no-op
    /// under [`hrv_telemetry::TelemetryConfig::Off`]).
    pub(crate) tel: TelemetrySink,
}

impl std::fmt::Debug for PlatformWorld {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PlatformWorld")
            .field("invokers", &self.invokers.len())
            .field("replicas", &self.replicas.len())
            .finish()
    }
}

impl PlatformWorld {
    /// Builds the world from a materialized workload trace (sorted by
    /// arrival time). Adapter over [`PlatformWorld::from_stream`].
    pub fn new(
        spec: ClusterSpec,
        workload: Vec<Invocation>,
        policy: Box<dyn LoadBalancer>,
        cfg: PlatformConfig,
        seed: u64,
    ) -> (Self, Calendar<Event>) {
        PlatformWorld::from_stream(
            spec,
            Box::new(SortedTraceStream::new(workload)),
            policy,
            cfg,
            seed,
        )
    }

    /// Builds the world and seeds the calendar with VM lifecycle events,
    /// the first workload arrival, and periodic ticks.
    ///
    /// The platform pulls arrivals from `arrivals` one at a time — only
    /// one future arrival ever sits in the calendar, so a lazy stream
    /// ([`hrv_trace::stream::WorkloadStream`]) drives arbitrarily long
    /// runs in constant memory.
    pub fn from_stream(
        spec: ClusterSpec,
        arrivals: Box<dyn ArrivalStream>,
        policy: Box<dyn LoadBalancer>,
        cfg: PlatformConfig,
        seed: u64,
    ) -> (Self, Calendar<Event>) {
        PlatformWorld::from_stream_with_faults(spec, arrivals, policy, cfg, seed, FaultPlan::none())
    }

    /// [`PlatformWorld::from_stream`] plus an injected fault plan.
    ///
    /// The plan's timed faults become calendar events, its warning faults
    /// rewrite each VM's eviction-warning schedule, and its dispatch
    /// process (if any) gates every controller→invoker placement message.
    /// Injecting [`FaultPlan::none`] is a strict no-op: no extra events,
    /// no extra randomness, byte-identical runs.
    pub fn from_stream_with_faults(
        spec: ClusterSpec,
        arrivals: Box<dyn ArrivalStream>,
        policy: Box<dyn LoadBalancer>,
        cfg: PlatformConfig,
        seed: u64,
        faults: FaultPlan,
    ) -> (Self, Calendar<Event>) {
        let mut cal = Calendar::new();
        let world = PlatformWorld::from_stream_with_faults_in(
            spec, arrivals, policy, cfg, seed, faults, &mut cal,
        );
        (world, cal)
    }

    /// [`PlatformWorld::from_stream_with_faults`], seeding events into a
    /// caller-provided calendar. Generic over the calendar implementation
    /// so differential tests can drive the whole platform through the
    /// reference spec ([`hrv_sim::calendar_reference`]).
    pub fn from_stream_with_faults_in(
        spec: ClusterSpec,
        arrivals: Box<dyn ArrivalStream>,
        policy: Box<dyn LoadBalancer>,
        cfg: PlatformConfig,
        seed: u64,
        faults: FaultPlan,
        cal: &mut impl EventCalendar<Event>,
    ) -> Self {
        PlatformWorld::from_stream_sharded_in(
            spec,
            arrivals,
            policy,
            cfg,
            seed,
            faults,
            ShardPlan::solo(),
            cal,
        )
    }

    /// Builds one shard's slice of the platform: the full invoker/slot
    /// table (for stable global indexing) but with calendar seeds only
    /// for the entities `plan` owns. The `1/1` plan reproduces the
    /// unsharded construction exactly.
    #[allow(clippy::too_many_arguments)]
    pub fn from_stream_sharded_in(
        spec: ClusterSpec,
        mut arrivals: Box<dyn ArrivalStream>,
        policy: Box<dyn LoadBalancer>,
        cfg: PlatformConfig,
        seed: u64,
        faults: FaultPlan,
        plan: ShardPlan,
        cal: &mut impl EventCalendar<Event>,
    ) -> Self {
        cfg.validate();
        let mut invokers = Vec::with_capacity(spec.vms.len());
        let mut slots = Vec::with_capacity(spec.vms.len());
        for (i, vm) in spec.vms.iter().enumerate() {
            let index = i as InvokerIndex;
            let mut invoker = InvokerState::new(index, vm.memory_mb);
            invoker.set_policy(cfg.coldstart.build());
            invoker.set_telemetry(cfg.telemetry.enabled());
            invokers.push(invoker);
            slots.push(SlotSource::Trace(vm.clone()));
            if !plan.owns_invoker(index) {
                continue;
            }
            cal.schedule(vm.deploy, Event::VmDeploy { invoker: index });
            for ch in &vm.cpu_changes {
                cal.schedule(
                    ch.at,
                    Event::VmCpu {
                        invoker: index,
                        cpus: ch.cpus,
                    },
                );
            }
            match vm.ended {
                VmEnd::Censored => {}
                VmEnd::Evicted | VmEnd::Removed => {
                    if let Some(warn_at) = vm.warning_time() {
                        match faults.warning_fault(index) {
                            None => {
                                cal.schedule(
                                    warn_at.max(vm.deploy),
                                    Event::VmWarn { invoker: index },
                                );
                            }
                            Some(WarningFault::Drop) => {}
                            Some(WarningFault::Delay(by)) => {
                                // A warning delayed past the eviction
                                // itself is as good as dropped.
                                let at = (warn_at + by).max(vm.deploy);
                                if at < vm.end {
                                    cal.schedule(at, Event::VmWarn { invoker: index });
                                }
                            }
                        }
                    }
                    cal.schedule(vm.end, Event::VmEvict { invoker: index });
                }
            }
        }
        for fe in &faults.events {
            let (owned, event) = match fe.kind {
                FaultKind::Crash { invoker } => {
                    (plan.owns_invoker(invoker), Event::FaultCrash { invoker })
                }
                FaultKind::StragglerStart { invoker, factor } => (
                    plan.owns_invoker(invoker),
                    Event::FaultStraggler { invoker, factor },
                ),
                FaultKind::StragglerEnd { invoker } => (
                    plan.owns_invoker(invoker),
                    Event::FaultStraggler {
                        invoker,
                        factor: 1.0,
                    },
                ),
                FaultKind::ViewFreeze => (
                    plan.owns_controller(),
                    Event::FaultViewFreeze { frozen: true },
                ),
                FaultKind::ViewThaw => (
                    plan.owns_controller(),
                    Event::FaultViewFreeze { frozen: false },
                ),
            };
            if owned {
                cal.schedule(fe.at, event);
            }
        }
        let replica_count = cfg.sharding.replicas;
        // Every shard consumes arrivals for the functions its hosted
        // replicas own directly — the driver hands each shard a stream
        // pre-filtered to that ownership set, so there is no hop through
        // shard 0. (Under the solo plan the stream is the full workload.)
        if let Some(first) = arrivals.next_invocation() {
            cal.schedule(first.arrival, Event::Arrival(first));
        }
        if plan.owns_controller() && cfg.monitor.enabled {
            cal.schedule_after(cfg.monitor.interval, Event::MonitorTick);
        }
        for r in 0..replica_count {
            if !plan.owns_replica(r) {
                continue;
            }
            if cfg.recovery.enabled {
                cal.schedule_after(
                    cfg.recovery.probe_interval,
                    Event::HealthSweep { replica: r },
                );
            }
            // Reconciliation only exists between peers: with a single
            // replica no tick is scheduled and event counts match the
            // pre-replication platform exactly.
            if replica_count > 1 {
                cal.schedule_after(
                    cfg.sharding.reconcile_interval,
                    Event::ReconcileTick { replica: r },
                );
            }
        }
        if !cfg.sample_interval.is_zero() {
            // Per-invoker sampling chains on the shared grid: each owned
            // slot ticks from its first grid point at/after deploy until
            // death, so the merged series is shard-count-invariant.
            let step = cfg.sample_interval.as_micros();
            for (i, vm) in spec.vms.iter().enumerate() {
                let index = i as InvokerIndex;
                if !plan.owns_invoker(index) {
                    continue;
                }
                let dep = vm.deploy.since(SimTime::ZERO).as_micros();
                let at = SimTime::ZERO + SimDuration::from_micros(dep.div_ceil(step) * step);
                cal.schedule(at, Event::Sample { invoker: index });
            }
        }
        let hosted: Vec<ReplicaIndex> = (0..replica_count)
            .filter(|&r| plan.owns_replica(r))
            .collect();
        let mut lbs: Vec<Box<dyn LoadBalancer>> = Vec::with_capacity(hosted.len());
        if !hosted.is_empty() {
            let mut extras: Vec<Box<dyn LoadBalancer>> =
                (1..hosted.len()).map(|_| policy.fresh()).collect();
            lbs.push(policy);
            lbs.append(&mut extras);
        }
        let replicas: Vec<ReplicaState> = hosted
            .into_iter()
            .zip(lbs)
            .map(|(r, lb)| {
                // Replica 0 keeps the caller's seed bit-for-bit; peers
                // derive theirs so tie-break rolls stay independent.
                let rng_seed = if r == 0 {
                    seed
                } else {
                    seed ^ splitmix64(0x5EED_0000_u64 + u64::from(r))
                };
                let mut controller = Controller::new(lb, rng_seed);
                if replica_count > 1 {
                    controller.enable_delta_tracking();
                }
                ReplicaState {
                    index: r,
                    controller,
                    retry_armed: false,
                    dispatch_faults: faults.dispatch.as_ref().map(|d| d.sampler()),
                    attempts: HashMap::new(),
                    pending_redispatch: BTreeMap::new(),
                    retry_budget: cfg.recovery.retry_budget,
                    quarantine_since: BTreeMap::new(),
                    straggler_strikes: HashMap::new(),
                    placements: 0,
                    envelopes: 0,
                }
            })
            .collect();
        let metrics = if cfg.record_invocations {
            MetricsCollector::new()
        } else {
            MetricsCollector::streaming_only()
        };
        let tel = TelemetrySink::new(&cfg.telemetry);
        PlatformWorld {
            replicas,
            replica_count,
            next_slot_index: spec.vms.len() as u32,
            cfg,
            invokers,
            slots,
            arrivals,
            metrics,
            plan,
            outbox: Vec::new(),
            reported_in_flight: HashSet::new(),
            msg_seq: Vec::new(),
            replica_seq: Vec::new(),
            monitor_pending_cpus: 0,
            view_frozen: false,
            tel,
        }
    }

    /// The replica owning `function`'s placement (always 0 with a single
    /// replica).
    fn owner(&self, function: FunctionId) -> ReplicaIndex {
        owner_of(self.replica_count, function)
    }

    /// Mutable access to hosted replica `r` (panics if this shard does
    /// not host it — replica-targeted envelopes only land on the owner).
    fn rep_mut(&mut self, r: ReplicaIndex) -> &mut ReplicaState {
        let local = (r / self.plan.shards) as usize;
        debug_assert_eq!(
            self.replicas[local].index, r,
            "replica routed to wrong shard"
        );
        &mut self.replicas[local]
    }

    /// The controller (first hosted replica), for post-run inspection.
    pub fn controller(&self) -> &Controller {
        &self.replicas[0].controller
    }

    /// The invokers, for post-run inspection.
    pub fn invokers(&self) -> &[InvokerState] {
        &self.invokers
    }

    /// Fleet-wide cold starts counted at the invokers.
    pub fn total_cold_starts(&self) -> u64 {
        self.invokers.iter().map(|i| i.cold_starts).sum()
    }

    /// Fleet-wide warm starts counted at the invokers.
    pub fn total_warm_starts(&self) -> u64 {
        self.invokers.iter().map(|i| i.warm_starts).sum()
    }

    /// Completion reports the invokers dropped because their container
    /// died mid-report (summed for [`MetricsCollector`]).
    pub fn total_dropped_completions(&self) -> u64 {
        self.invokers.iter().map(|i| i.dropped_completions).sum()
    }

    /// Fleet-wide prewarm containers spawned by the cold-start policy.
    pub fn total_prewarm_spawns(&self) -> u64 {
        self.invokers.iter().map(|i| i.prewarm_spawns).sum()
    }

    /// Fleet-wide warm starts served by a prewarmed container's first use.
    pub fn total_prewarm_hits(&self) -> u64 {
        self.invokers.iter().map(|i| i.prewarm_hits).sum()
    }

    /// Fleet-wide prewarmed containers reaped without ever serving.
    pub fn total_wasted_prewarms(&self) -> u64 {
        self.invokers.iter().map(|i| i.wasted_prewarms).sum()
    }

    /// Fleet-wide warm memory-time spent idle, MiB·s.
    pub fn total_idle_mib_secs(&self) -> f64 {
        self.invokers.iter().map(|i| i.idle_mib_secs).sum()
    }

    /// The platform configuration.
    pub fn cfg(&self) -> &PlatformConfig {
        &self.cfg
    }

    /// This world's shard plan.
    pub fn plan(&self) -> ShardPlan {
        self.plan
    }

    /// Drains the cross-entity messages produced since the last call.
    /// The round driver routes them to their target shards and injects
    /// them at the start of the round they become due in.
    pub fn take_outbox(&mut self) -> Vec<Envelope> {
        std::mem::take(&mut self.outbox)
    }

    /// Shows the world the envelopes addressed to it that were still in
    /// flight when its driver stopped (see [`PlatformWorld::censor_remaining`]).
    pub(crate) fn note_undelivered<'a>(&mut self, envelopes: impl Iterator<Item = &'a Envelope>) {
        for env in envelopes {
            if let Event::Report { report, .. } = &env.event {
                self.reported_in_flight.insert(report.invocation);
            }
        }
    }

    /// Emits a cross-entity message. Every cross-entity interaction —
    /// even under the solo plan — goes through here so the canonical
    /// `(deliver_at, sender, seq)` delivery order is identical for every
    /// shard count. The delay must be at least one bus hop: that minimum
    /// is the conservative lookahead the round driver's windows rest on.
    fn send(
        &mut self,
        now: SimTime,
        sender: EntityId,
        target: EntityId,
        delay: SimDuration,
        event: Event,
    ) {
        debug_assert!(
            delay >= self.cfg.bus_latency,
            "cross-entity delay {delay:?} below the bus-latency lookahead"
        );
        let seq = if sender >= REPLICA_BASE {
            let idx = (sender - REPLICA_BASE) as usize;
            if self.replica_seq.len() <= idx {
                self.replica_seq.resize(idx + 1, 0);
            }
            let s = self.replica_seq[idx];
            self.replica_seq[idx] += 1;
            s
        } else {
            let idx = sender as usize;
            if self.msg_seq.len() <= idx {
                self.msg_seq.resize(idx + 1, 0);
            }
            let s = self.msg_seq[idx];
            self.msg_seq[idx] += 1;
            s
        };
        self.outbox.push(Envelope {
            deliver_at: now.saturating_add(delay),
            sender,
            seq,
            target,
            event,
        });
    }

    fn schedule_delivery(
        &mut self,
        now: SimTime,
        cal: &mut impl EventCalendar<Event>,
        replica: ReplicaIndex,
        invoker: InvokerId,
        invocation: Invocation,
    ) {
        self.rep_mut(replica).placements += 1;
        let delay = match self
            .rep_mut(replica)
            .dispatch_faults
            .as_mut()
            .map(DispatchSampler::roll)
        {
            None | Some(DispatchOutcome::Deliver) => self.cfg.bus_latency,
            Some(DispatchOutcome::Delay(by)) => self.cfg.bus_latency + by,
            Some(DispatchOutcome::Drop) => {
                // The placement message vanished in the bus; the invoker
                // never hears about this invocation.
                self.fail_or_recover(
                    now,
                    invocation,
                    false,
                    false,
                    LossCause::DispatchDrop,
                    replica,
                    cal,
                );
                return;
            }
        };
        self.tel.record(
            replica_entity(replica),
            now,
            invocation.id,
            SpanKind::DispatchSent { invoker: invoker.0 },
        );
        self.send(
            now,
            replica_entity(replica),
            invoker_entity(invoker.0),
            delay,
            Event::Deliver {
                invoker: invoker.0,
                invocation,
                sent_at: now,
            },
        );
    }

    /// Flushes an invoker's buffered span events into the recorder (a
    /// no-op for disabled runs: the buffer never fills).
    fn drain_tel(&mut self, idx: InvokerIndex) {
        self.tel
            .drain(invoker_entity(idx), &mut self.invokers[idx as usize].tel);
    }

    /// An invocation's placement was destroyed (`cause` says how). With
    /// recovery enabled and budget left, schedules a re-dispatch after the
    /// cause's detection delay plus capped exponential backoff; otherwise
    /// records the invocation as permanently gone.
    #[allow(clippy::too_many_arguments)]
    fn fail_or_recover(
        &mut self,
        now: SimTime,
        inv: Invocation,
        exec_started: bool,
        cold: bool,
        cause: LossCause,
        replica: ReplicaIndex,
        cal: &mut impl EventCalendar<Event>,
    ) {
        self.rep_mut(replica).controller.forget_inflight(inv.id);
        let r = self.cfg.recovery;
        let attempt = if r.enabled {
            self.rep_mut(replica)
                .attempts
                .get(&inv.id)
                .copied()
                .unwrap_or(0)
        } else {
            0
        };
        if r.enabled && attempt < r.max_retries && self.rep_mut(replica).retry_budget > 0 {
            {
                let rep = self.rep_mut(replica);
                rep.retry_budget -= 1;
                rep.attempts.insert(inv.id, attempt + 1);
            }
            let backoff = r
                .backoff_base
                .mul_f64(2f64.powi(attempt as i32))
                .min(r.backoff_cap);
            let detection = match cause {
                LossCause::Eviction => self.cfg.ping_interval,
                LossCause::Crash | LossCause::DeadDelivery => r.probe_timeout,
                LossCause::DispatchDrop => SimDuration::ZERO,
            };
            if cause != LossCause::DispatchDrop {
                self.metrics.note_redispatch();
            }
            self.tel.record(
                replica_entity(replica),
                now,
                inv.id,
                SpanKind::Retry {
                    attempt: attempt + 1,
                },
            );
            self.rep_mut(replica).pending_redispatch.insert(inv.id, inv);
            cal.schedule(
                now + detection + backoff,
                Event::Redispatch { invocation: inv },
            );
            return;
        }
        self.rep_mut(replica).attempts.remove(&inv.id);
        // Without recovery, a destroyed placement surfaces exactly as the
        // pre-fault platform reported it (an eviction failure) so legacy
        // runs stay byte-identical; a lost dispatch message has no legacy
        // equivalent and is always a loss.
        let outcome = if r.enabled || cause == LossCause::DispatchDrop {
            Outcome::Lost
        } else {
            Outcome::FailedEviction
        };
        self.tel
            .record(replica_entity(replica), now, inv.id, SpanKind::Lost);
        self.tel.take_hop(inv.id);
        self.metrics.push(InvocationRecord {
            id: inv.id,
            arrival: inv.arrival,
            finished: now,
            latency_secs: 0.0,
            exec_secs: 0.0,
            cold,
            exec_started,
            outcome,
        });
    }

    fn arm_retry(&mut self, replica: ReplicaIndex, cal: &mut impl EventCalendar<Event>) {
        let retry = self.cfg.placement_retry;
        let rep = self.rep_mut(replica);
        if !rep.retry_armed {
            rep.retry_armed = true;
            cal.schedule_after(retry, Event::RetryQueue { replica });
        }
    }

    fn on_arrival(
        &mut self,
        now: SimTime,
        invocation: Invocation,
        cal: &mut impl EventCalendar<Event>,
    ) {
        self.metrics.arrivals += 1;
        // Each shard's stream is pre-filtered to the functions its hosted
        // replicas own, so the owner is always local.
        let replica = self.owner(invocation.function);
        debug_assert!(
            self.plan.owns_replica(replica),
            "arrival for replica {replica} landed on shard {}",
            self.plan.shard
        );
        self.tel.record(
            replica_entity(replica),
            now,
            invocation.id,
            SpanKind::Arrival,
        );
        // Feed the next arrival lazily to keep the calendar small.
        if let Some(next) = self.arrivals.next_invocation() {
            cal.schedule(next.arrival, Event::Arrival(next));
        }
        match self.rep_mut(replica).controller.route(now, invocation) {
            RouteOutcome::Placed(id) => self.schedule_delivery(now, cal, replica, id, invocation),
            RouteOutcome::Queued => self.arm_retry(replica, cal),
        }
    }

    fn on_deliver(
        &mut self,
        now: SimTime,
        idx: InvokerIndex,
        inv: Invocation,
        sent_at: SimTime,
        cal: &mut impl EventCalendar<Event>,
    ) {
        if !self.invokers[idx as usize].alive {
            // The VM died while the message was in flight; the invoker's
            // shard reports the corpse back to the owning replica, which
            // decides between re-dispatch and a loss record.
            let owner = self.owner(inv.function);
            self.send(
                now,
                invoker_entity(idx),
                replica_entity(owner),
                self.cfg.bus_latency,
                Event::WorkLost {
                    invocation: inv,
                    exec_started: false,
                    cold: false,
                    cause: LossCause::DeadDelivery,
                },
            );
            return;
        }
        self.tel
            .record(invoker_entity(idx), now, inv.id, SpanKind::Delivered);
        self.tel.note_hop(inv.id, sent_at, now);
        self.invokers[idx as usize].deliver(now, inv, cal, &self.cfg);
        self.drain_tel(idx);
    }

    fn finish_records(
        &mut self,
        now: SimTime,
        idx: InvokerIndex,
        finished: Vec<RunningInvocation>,
    ) {
        for run in finished {
            let inv = run.invocation;
            let latency = now.since(inv.arrival).as_secs_f64();
            let exec = now.since(run.exec_start).as_secs_f64();
            if run.cold {
                self.metrics.cold_starts += 1;
            } else {
                self.metrics.warm_starts += 1;
            }
            if self.tel.enabled() {
                self.tel.record(
                    invoker_entity(idx),
                    now,
                    inv.id,
                    SpanKind::Completed { cold: run.cold },
                );
                if let Some(hop) = self.tel.take_hop(inv.id) {
                    // Additive phase split in integer microseconds. The
                    // queue phase is the residual, which is exact: the
                    // other four tile [arrival, sent], [sent, delivered],
                    // [start, start + cold_delay], and [exec_start, now],
                    // leaving exactly the invoker-local wait.
                    let total_us = now.since(inv.arrival).as_micros();
                    let sched_us = hop.sent_at.since(inv.arrival).as_micros();
                    let bus_us = hop.delivered_at.since(hop.sent_at).as_micros();
                    let coldstart_us = if run.cold {
                        self.cfg.cold_start_delay.as_micros()
                    } else {
                        0
                    };
                    let exec_us = now.since(run.exec_start).as_micros();
                    let queue_us =
                        total_us.saturating_sub(sched_us + bus_us + coldstart_us + exec_us);
                    debug_assert_eq!(
                        sched_us + bus_us + queue_us + coldstart_us + exec_us,
                        total_us,
                        "phase components must tile invocation {}'s latency",
                        inv.id
                    );
                    self.metrics.push_phase(PhaseRecord {
                        id: inv.id,
                        arrival: inv.arrival,
                        finished: now,
                        cold: run.cold,
                        sched_us,
                        bus_us,
                        queue_us,
                        coldstart_us,
                        exec_us,
                    });
                }
            }
            self.metrics.push(InvocationRecord {
                id: inv.id,
                arrival: inv.arrival,
                finished: now,
                latency_secs: latency,
                exec_secs: exec,
                cold: run.cold,
                exec_started: true,
                outcome: Outcome::Completed,
            });
            let report = CompletionReport {
                function: inv.function,
                invocation: inv.id,
                memory_mb: inv.memory_mb,
                exec_duration: SimDuration::from_secs_f64(exec),
                // Reported as the cgroup's cores-while-running reading.
                cpu_cores: inv.cpu_demand,
                cold: run.cold,
                arrival: inv.arrival,
            };
            let owner = self.owner(inv.function);
            self.send(
                now,
                invoker_entity(idx),
                replica_entity(owner),
                self.cfg.bus_latency,
                Event::Report {
                    invoker: idx,
                    report,
                },
            );
        }
    }

    fn on_evict(&mut self, now: SimTime, idx: InvokerIndex, cal: &mut impl EventCalendar<Event>) {
        let invoker = &mut self.invokers[idx as usize];
        if !invoker.alive {
            return;
        }
        self.metrics.vm_evictions += 1;
        let work = invoker.evict(now, cal);
        self.report_destroyed_work(now, idx, work, LossCause::Eviction);
        // Every controller replica notices the dead invoker after a ping
        // interval (each keeps its own full cluster view).
        for r in 0..self.replica_count {
            self.send(
                now,
                invoker_entity(idx),
                replica_entity(r),
                self.cfg.ping_interval,
                Event::InvokerDown {
                    invoker: idx,
                    replica: r,
                },
            );
        }
    }

    /// Tells the controller about every invocation a dying invoker took
    /// down with it, one [`Event::WorkLost`] message per victim.
    fn report_destroyed_work(
        &mut self,
        now: SimTime,
        idx: InvokerIndex,
        work: crate::invoker::EvictedWork,
        cause: LossCause,
    ) {
        for run in work.started {
            self.tel.record(
                invoker_entity(idx),
                now,
                run.invocation.id,
                SpanKind::WorkDestroyed { exec_started: true },
            );
            let owner = self.owner(run.invocation.function);
            self.send(
                now,
                invoker_entity(idx),
                replica_entity(owner),
                self.cfg.bus_latency,
                Event::WorkLost {
                    invocation: run.invocation,
                    exec_started: true,
                    cold: run.cold,
                    cause,
                },
            );
        }
        for inv in work.queued {
            self.tel.record(
                invoker_entity(idx),
                now,
                inv.id,
                SpanKind::WorkDestroyed {
                    exec_started: false,
                },
            );
            let owner = self.owner(inv.function);
            self.send(
                now,
                invoker_entity(idx),
                replica_entity(owner),
                self.cfg.bus_latency,
                Event::WorkLost {
                    invocation: inv,
                    exec_started: false,
                    cold: false,
                    cause,
                },
            );
        }
    }

    /// Fault injection: crash-stop kill. The VM vanishes mid-flight with
    /// no warning and — unlike [`PlatformWorld::on_evict`] — no
    /// [`Event::InvokerDown`] follows: nothing announces the death, so
    /// without the health-probe sweep the controller keeps routing work
    /// at the corpse indefinitely.
    fn on_crash(&mut self, now: SimTime, idx: InvokerIndex, cal: &mut impl EventCalendar<Event>) {
        let invoker = &mut self.invokers[idx as usize];
        if !invoker.alive {
            return;
        }
        self.metrics.vm_crashes += 1;
        let work = invoker.evict(now, cal);
        self.report_destroyed_work(now, idx, work, LossCause::Crash);
    }

    /// Quarantines an invoker out of `replica`'s placement view (no-op if
    /// already there). Each replica quarantines independently off its own
    /// ping stream.
    fn quarantine(&mut self, now: SimTime, replica: ReplicaIndex, idx: InvokerIndex) {
        let rep = self.rep_mut(replica);
        if rep.controller.set_quarantined(InvokerId(idx), true) {
            rep.quarantine_since.insert(idx, now);
            self.metrics.note_quarantine();
        }
    }

    /// Lifts a quarantine and accounts the time spent inside it.
    fn unquarantine(&mut self, now: SimTime, replica: ReplicaIndex, idx: InvokerIndex) {
        let rep = self.rep_mut(replica);
        if rep.controller.set_quarantined(InvokerId(idx), false) {
            if let Some(since) = rep.quarantine_since.remove(&idx) {
                self.metrics
                    .note_quarantine_span(now.saturating_since(since));
            }
        }
    }

    /// Straggler detection off the health pings: sustained high queue
    /// pressure earns strikes; enough consecutive strikes quarantine the
    /// invoker, and one healthy reading clears everything.
    fn track_straggler(
        &mut self,
        now: SimTime,
        replica: ReplicaIndex,
        idx: InvokerIndex,
        pressure: f64,
    ) {
        let r = self.cfg.recovery;
        if pressure >= r.straggler_pressure {
            let strikes = *self
                .rep_mut(replica)
                .straggler_strikes
                .entry(idx)
                .and_modify(|s| *s += 1)
                .or_insert(1);
            if strikes >= r.straggler_strikes {
                self.quarantine(now, replica, idx);
            }
        } else {
            self.rep_mut(replica).straggler_strikes.remove(&idx);
            self.unquarantine(now, replica, idx);
        }
    }

    /// A replica's periodic health-probe sweep: invokers silent past the
    /// probe timeout are quarantined; silent past `down_after`, they are
    /// declared dead and removed from the view.
    fn on_health_sweep(
        &mut self,
        now: SimTime,
        replica: ReplicaIndex,
        cal: &mut impl EventCalendar<Event>,
    ) {
        let r = self.cfg.recovery;
        if !r.enabled {
            return;
        }
        let silent = self
            .rep_mut(replica)
            .controller
            .silent_invokers(now, r.probe_timeout);
        for (id, silence) in silent {
            if silence >= r.down_after {
                self.unquarantine(now, replica, id.0);
                self.rep_mut(replica).controller.on_invoker_down(id);
            } else {
                self.quarantine(now, replica, id.0);
            }
        }
        cal.schedule_after(r.probe_interval, Event::HealthSweep { replica });
    }

    /// Recovery re-dispatch: routes a previously-destroyed invocation
    /// again, as if it had just arrived.
    fn on_redispatch(
        &mut self,
        now: SimTime,
        inv: Invocation,
        cal: &mut impl EventCalendar<Event>,
    ) {
        let replica = self.owner(inv.function);
        if self
            .rep_mut(replica)
            .pending_redispatch
            .remove(&inv.id)
            .is_none()
        {
            return;
        }
        self.metrics.note_retry();
        self.tel
            .record(replica_entity(replica), now, inv.id, SpanKind::Redispatch);
        match self.rep_mut(replica).controller.route(now, inv) {
            RouteOutcome::Placed(id) => self.schedule_delivery(now, cal, replica, id, inv),
            RouteOutcome::Queued => self.arm_retry(replica, cal),
        }
    }

    fn on_monitor_tick(&mut self, now: SimTime, cal: &mut impl EventCalendar<Event>) {
        let m = self.cfg.monitor;
        if !m.enabled {
            return;
        }
        // The monitor reads replica 0's view (it is hosted on shard 0,
        // where every MonitorTick fires).
        let available = self.rep_mut(0).controller.placeable_cpus() + self.monitor_pending_cpus;
        if available < m.min_cpus {
            let shortfall = m.min_cpus - available;
            let count = shortfall.div_ceil(m.template.cpus);
            for _ in 0..count {
                // Slot indices are assigned centrally so they are
                // globally unique; the owning shard materializes the
                // slot when the SpawnVm order lands after the deploy
                // delay.
                let index = self.next_slot_index;
                self.next_slot_index += 1;
                self.monitor_pending_cpus += m.template.cpus;
                self.send(
                    now,
                    replica_entity(0),
                    invoker_entity(index),
                    m.template.deploy_delay,
                    Event::SpawnVm {
                        invoker: index,
                        template: m.template,
                    },
                );
            }
        }
        cal.schedule_after(m.interval, Event::MonitorTick);
    }

    /// A monitor-ordered VM lands on the shard owning its slot index:
    /// grow the local tables up to the index (the gap entries belong to
    /// other shards and stay dormant placeholders here) and bring it up.
    fn on_spawn_vm(
        &mut self,
        now: SimTime,
        idx: InvokerIndex,
        template: VmTemplate,
        cal: &mut impl EventCalendar<Event>,
    ) {
        while self.invokers.len() <= idx as usize {
            let i = self.invokers.len() as InvokerIndex;
            let mut filler = InvokerState::new(i, template.memory_mb);
            filler.set_policy(self.cfg.coldstart.build());
            filler.set_telemetry(self.cfg.telemetry.enabled());
            self.invokers.push(filler);
            self.slots.push(SlotSource::Monitor(template));
        }
        let mut invoker = InvokerState::new(idx, template.memory_mb);
        invoker.set_policy(self.cfg.coldstart.build());
        invoker.set_telemetry(self.cfg.telemetry.enabled());
        self.invokers[idx as usize] = invoker;
        self.slots[idx as usize] = SlotSource::Monitor(template);
        if !self.cfg.sample_interval.is_zero() {
            // Join the shared sampling grid at the first tick at/after
            // the deploy (grid alignment keeps merged rows coalescible).
            let step = self.cfg.sample_interval.as_micros();
            let us = now.since(SimTime::ZERO).as_micros();
            let at = SimTime::ZERO + SimDuration::from_micros(us.div_ceil(step) * step);
            cal.schedule(at, Event::Sample { invoker: idx });
        }
        self.on_deploy(now, idx, cal);
    }

    fn on_deploy(&mut self, now: SimTime, idx: InvokerIndex, cal: &mut impl EventCalendar<Event>) {
        let (cpus, memory_mb, from_monitor) = match &self.slots[idx as usize] {
            SlotSource::Trace(vm) => (vm.cpus_at(now).max(vm.base_cpus), vm.memory_mb, false),
            SlotSource::Monitor(t) => (t.cpus, t.memory_mb, true),
        };
        self.invokers[idx as usize].deploy(now, cpus);
        cal.schedule_after(self.cfg.ping_interval, Event::Ping { invoker: idx });
        // Every controller replica hears about the new capacity one bus
        // hop later.
        for r in 0..self.replica_count {
            self.send(
                now,
                invoker_entity(idx),
                replica_entity(r),
                self.cfg.bus_latency,
                Event::DeployNotice {
                    invoker: idx,
                    cpus,
                    memory_mb,
                    from_monitor,
                    replica: r,
                },
            );
        }
    }

    /// Replica side of a VM coming up: admit it to the view, release the
    /// monitor's pending-CPU reservation (replica 0 runs the monitor),
    /// and retry the queue.
    #[allow(clippy::too_many_arguments)]
    fn on_deploy_notice(
        &mut self,
        now: SimTime,
        idx: InvokerIndex,
        cpus: u32,
        memory_mb: u64,
        from_monitor: bool,
        replica: ReplicaIndex,
        cal: &mut impl EventCalendar<Event>,
    ) {
        if from_monitor && replica == 0 {
            self.monitor_pending_cpus = self.monitor_pending_cpus.saturating_sub(cpus);
        }
        self.rep_mut(replica)
            .controller
            .on_invoker_up(now, InvokerId(idx), cpus, memory_mb);
        // New capacity may unblock queued placements.
        self.arm_retry(replica, cal);
    }

    /// One invoker's tick on the shared utilization-sampling grid. The
    /// partial rows are coalesced into fleet-wide samples after the run
    /// (after cross-shard merge), summed in invoker order so the totals
    /// are bit-identical for every shard count. The chain dies with the
    /// invoker.
    fn on_sample(&mut self, now: SimTime, idx: InvokerIndex, cal: &mut impl EventCalendar<Event>) {
        let inv = &self.invokers[idx as usize];
        if !inv.alive {
            return;
        }
        let total = inv.cpus();
        let used = inv.snapshot().cpus_in_use;
        self.metrics.push_partial_sample(now, idx, total, used);
        cal.schedule_after(self.cfg.sample_interval, Event::Sample { invoker: idx });
    }

    /// On an eviction warning, asks the owning replicas to resolve live
    /// migrations for the long invocations that would otherwise die
    /// (Section 4.4 extension). The decision is the owner's: it holds the
    /// authoritative in-flight bookkeeping and the view to pick a
    /// destination from, so migration works unchanged when the controller
    /// is sharded.
    fn plan_migrations(&mut self, now: SimTime, src: InvokerIndex) {
        let m = self.cfg.migration;
        if !m.enabled {
            return;
        }
        let Some(warned_at) = self.invokers[src as usize].warned_at else {
            return; // raced with the eviction itself
        };
        if now >= warned_at + hrv_trace::harvest::EVICTION_GRACE {
            return;
        }
        let candidates =
            self.invokers[src as usize].migration_candidates(now, m.min_remaining_secs);
        for (container, _remaining, memory_mb) in candidates {
            let Some(run) = self.invokers[src as usize].running_invocation(container) else {
                continue;
            };
            let function = run.invocation.function;
            let invocation = run.invocation.id;
            let owner = self.owner(function);
            self.send(
                now,
                invoker_entity(src),
                replica_entity(owner),
                self.cfg.bus_latency,
                Event::MigrateAsk {
                    src,
                    container,
                    function,
                    invocation,
                    memory_mb,
                    warned_at,
                },
            );
        }
    }

    /// Owner side of a migration request: check the transfer still beats
    /// the source's eviction deadline, pick a destination from this
    /// replica's view, and order the extraction.
    fn on_migrate_ask(
        &mut self,
        now: SimTime,
        replica: ReplicaIndex,
        src: InvokerIndex,
        container: u64,
        memory_mb: u64,
        warned_at: SimTime,
    ) {
        let m = self.cfg.migration;
        let deadline = warned_at + hrv_trace::harvest::EVICTION_GRACE;
        let transfer = m.setup + m.per_gib.mul_f64(memory_mb as f64 / 1024.0);
        // The extract order takes one bus hop, then the state transfer
        // itself must land before the source is evicted.
        if now + self.cfg.bus_latency + transfer.max(self.cfg.bus_latency) >= deadline {
            return;
        }
        let Some(dst) = self
            .rep_mut(replica)
            .controller
            .migration_target(InvokerId(src))
        else {
            return;
        };
        self.send(
            now,
            replica_entity(replica),
            invoker_entity(src),
            self.cfg.bus_latency,
            Event::MigrateExtract {
                src,
                dst: dst.0,
                container,
                transfer,
            },
        );
    }

    /// Source side of a migration: pull the running invocation out (if it
    /// is still running) and ship its state to the destination; the
    /// implant envelope travels with the transfer delay.
    fn on_migrate_extract(
        &mut self,
        now: SimTime,
        src: InvokerIndex,
        dst: InvokerIndex,
        container: u64,
        transfer: SimDuration,
        cal: &mut impl EventCalendar<Event>,
    ) {
        let Some((run, remaining)) =
            self.invokers[src as usize].extract_running(now, container, cal)
        else {
            return; // completed or source already evicted
        };
        self.send(
            now,
            invoker_entity(src),
            invoker_entity(dst),
            transfer.max(self.cfg.bus_latency),
            Event::MigrateImplant {
                dst,
                src,
                run,
                remaining,
            },
        );
    }

    /// Destination side: resume the shipped invocation, then tell the
    /// owning replica so its in-flight bookkeeping follows; if the
    /// destination cannot take it, bounce the state back to the source.
    fn on_migrate_implant(
        &mut self,
        now: SimTime,
        dst: InvokerIndex,
        src: InvokerIndex,
        run: RunningInvocation,
        remaining: f64,
        cal: &mut impl EventCalendar<Event>,
    ) {
        if self.invokers[dst as usize].implant_running(now, run, remaining, cal) {
            self.metrics.migrations += 1;
            let owner = self.owner(run.invocation.function);
            self.send(
                now,
                invoker_entity(dst),
                replica_entity(owner),
                self.cfg.bus_latency,
                Event::MigrateCommit {
                    invocation: run.invocation.id,
                    function: run.invocation.function,
                    dst,
                },
            );
        } else {
            self.send(
                now,
                invoker_entity(dst),
                invoker_entity(src),
                self.cfg.bus_latency,
                Event::MigrateBounce {
                    src,
                    run,
                    remaining,
                },
            );
        }
    }

    /// A failed implant comes home: re-implant on the source, or — if the
    /// source died while the state was in flight — report the work lost.
    fn on_migrate_bounce(
        &mut self,
        now: SimTime,
        src: InvokerIndex,
        run: RunningInvocation,
        remaining: f64,
        cal: &mut impl EventCalendar<Event>,
    ) {
        if !self.invokers[src as usize].implant_running(now, run, remaining, cal) {
            let owner = self.owner(run.invocation.function);
            self.send(
                now,
                invoker_entity(src),
                replica_entity(owner),
                self.cfg.bus_latency,
                Event::WorkLost {
                    invocation: run.invocation,
                    exec_started: true,
                    cold: run.cold,
                    cause: LossCause::Eviction,
                },
            );
        }
    }

    /// Marks everything still in flight as censored (call after the run,
    /// on every world — each censors the replicas it hosts) and flushes
    /// per-replica occupancy counters into the metrics. An invocation
    /// whose completion report was still on the bus when the driver
    /// stopped already has its `Completed` record and is not censored
    /// again. (After an event-budget stop, a report the driver had
    /// already moved into the calendar is not known here.)
    pub fn censor_remaining(&mut self, now: SimTime) {
        for li in 0..self.replicas.len() {
            let entity = replica_entity(self.replicas[li].index);
            let queued = self.replicas[li].controller.drain_queue();
            for q in queued {
                self.tel
                    .record(entity, now, q.invocation.id, SpanKind::Censored);
                self.metrics.push(InvocationRecord {
                    id: q.invocation.id,
                    arrival: q.invocation.arrival,
                    finished: now,
                    latency_secs: 0.0,
                    exec_secs: 0.0,
                    cold: false,
                    exec_started: false,
                    outcome: Outcome::Censored,
                });
            }
            let inflight = self.replicas[li].controller.inflight_ids();
            for id in inflight {
                if self.reported_in_flight.contains(&id) {
                    continue;
                }
                self.tel.record(entity, now, id, SpanKind::Censored);
                self.metrics.push(InvocationRecord {
                    id,
                    arrival: now,
                    finished: now,
                    latency_secs: 0.0,
                    exec_secs: 0.0,
                    cold: false,
                    exec_started: false,
                    outcome: Outcome::Censored,
                });
            }
            // Invocations still waiting on a scheduled re-dispatch.
            for (_, inv) in std::mem::take(&mut self.replicas[li].pending_redispatch) {
                self.tel.record(entity, now, inv.id, SpanKind::Censored);
                self.metrics.push(InvocationRecord {
                    id: inv.id,
                    arrival: inv.arrival,
                    finished: now,
                    latency_secs: 0.0,
                    exec_secs: 0.0,
                    cold: false,
                    exec_started: false,
                    outcome: Outcome::Censored,
                });
            }
            // Close quarantine intervals still open at the horizon.
            for (_, since) in std::mem::take(&mut self.replicas[li].quarantine_since) {
                self.metrics
                    .note_quarantine_span(now.saturating_since(since));
            }
            self.metrics.push_replica_occupancy(ReplicaOccupancy {
                replica: self.replicas[li].index,
                placements: self.replicas[li].placements,
                envelopes: self.replicas[li].envelopes,
            });
        }
    }
}

impl World for PlatformWorld {
    type Event = Event;

    fn handle<C: EventCalendar<Event>>(&mut self, ev: Scheduled<Event>, cal: &mut C) {
        let now = ev.at;
        match ev.event {
            Event::Arrival(inv) => self.on_arrival(now, inv, cal),
            Event::Deliver {
                invoker,
                invocation,
                sent_at,
            } => self.on_deliver(now, invoker, invocation, sent_at, cal),
            Event::StartupDone { invoker, container } => {
                self.invokers[invoker as usize].startup_done(now, container, cal, &self.cfg);
                self.drain_tel(invoker);
            }
            Event::Completion { invoker } => {
                let finished = self.invokers[invoker as usize].completion_tick(now, cal, &self.cfg);
                // Prewarm orders travel as self-addressed envelopes so
                // sharded runs deliver them in canonical order at the
                // exact delay the policy asked for.
                for pw in self.invokers[invoker as usize].take_prewarm_requests() {
                    self.send(
                        now,
                        invoker_entity(invoker),
                        invoker_entity(invoker),
                        pw.spawn_delay,
                        Event::Prewarm {
                            invoker,
                            function: pw.function,
                            memory_mb: pw.memory_mb,
                            ttl: pw.ttl,
                        },
                    );
                }
                self.finish_records(now, invoker, finished);
                self.drain_tel(invoker);
            }
            Event::KeepAliveExpired { invoker, container } => {
                self.invokers[invoker as usize].keepalive_expired(now, container, cal);
                self.drain_tel(invoker);
            }
            Event::Prewarm {
                invoker,
                function,
                memory_mb,
                ttl,
            } => {
                self.invokers[invoker as usize]
                    .start_prewarm(now, function, memory_mb, ttl, cal, &self.cfg);
                self.drain_tel(invoker);
            }
            Event::PrewarmReady { invoker, container } => {
                self.invokers[invoker as usize].prewarm_ready(now, container, cal, &self.cfg);
                self.drain_tel(invoker);
            }
            Event::Ping { invoker } => {
                if self.invokers[invoker as usize].alive {
                    let snap = self.invokers[invoker as usize].snapshot();
                    // Every replica tracks the full fleet, so pings fan
                    // out to all of them.
                    for r in 0..self.replica_count {
                        self.send(
                            now,
                            invoker_entity(invoker),
                            replica_entity(r),
                            self.cfg.bus_latency,
                            Event::PingReport {
                                invoker,
                                snap,
                                replica: r,
                            },
                        );
                    }
                    cal.schedule_after(self.cfg.ping_interval, Event::Ping { invoker });
                }
            }
            Event::PingReport {
                invoker,
                snap,
                replica,
            } => {
                self.rep_mut(replica).envelopes += 1;
                // Inside a staleness window replica 0's pings are dropped
                // on the floor; the invoker keeps pinging regardless.
                // (Freeze faults are seeded on shard 0 and model the
                // classic controller's view going stale.)
                if !(self.view_frozen && replica == 0) {
                    self.rep_mut(replica)
                        .controller
                        .on_ping(now, InvokerId(invoker), snap);
                    if self.cfg.recovery.enabled {
                        self.track_straggler(now, replica, invoker, snap.pressure);
                    }
                }
            }
            Event::Report { report, .. } => {
                let replica = self.owner(report.function);
                let rep = self.rep_mut(replica);
                rep.envelopes += 1;
                if !rep.attempts.is_empty() {
                    // A retried invocation finally finished; stop
                    // tracking it.
                    rep.attempts.remove(&report.invocation);
                }
                rep.controller.on_report(&report);
            }
            Event::InvokerDown { invoker, replica } => {
                let rep = self.rep_mut(replica);
                rep.envelopes += 1;
                rep.controller.on_invoker_down(InvokerId(invoker));
            }
            Event::WorkLost {
                invocation,
                exec_started,
                cold,
                cause,
            } => {
                let replica = self.owner(invocation.function);
                self.rep_mut(replica).envelopes += 1;
                self.fail_or_recover(now, invocation, exec_started, cold, cause, replica, cal);
            }
            Event::VmDeploy { invoker } => self.on_deploy(now, invoker, cal),
            Event::DeployNotice {
                invoker,
                cpus,
                memory_mb,
                from_monitor,
                replica,
            } => {
                self.rep_mut(replica).envelopes += 1;
                self.on_deploy_notice(now, invoker, cpus, memory_mb, from_monitor, replica, cal);
            }
            Event::SpawnVm { invoker, template } => self.on_spawn_vm(now, invoker, template, cal),
            Event::VmCpu { invoker, cpus } => {
                if self.invokers[invoker as usize].alive {
                    self.tel.record(
                        invoker_entity(invoker),
                        now,
                        NO_INVOCATION,
                        SpanKind::Resize { cpus },
                    );
                }
                self.invokers[invoker as usize].resize(now, cpus, cal, &self.cfg);
                self.drain_tel(invoker);
            }
            Event::VmWarn { invoker } => {
                self.invokers[invoker as usize].warn(now);
                if self.cfg.migration.enabled {
                    // Defer planning one ping round so the controller's
                    // view reflects every VM warned in the same burst —
                    // otherwise storm migrations land on doomed peers.
                    cal.schedule_after(self.cfg.ping_interval, Event::MigratePlan { invoker });
                }
            }
            Event::MigratePlan { invoker } => self.plan_migrations(now, invoker),
            Event::MigrateAsk {
                src,
                container,
                function,
                invocation: _,
                memory_mb,
                warned_at,
            } => {
                let replica = self.owner(function);
                self.rep_mut(replica).envelopes += 1;
                self.on_migrate_ask(now, replica, src, container, memory_mb, warned_at);
            }
            Event::MigrateExtract {
                src,
                dst,
                container,
                transfer,
            } => self.on_migrate_extract(now, src, dst, container, transfer, cal),
            Event::MigrateImplant {
                dst,
                src,
                run,
                remaining,
            } => self.on_migrate_implant(now, dst, src, run, remaining, cal),
            Event::MigrateBounce {
                src,
                run,
                remaining,
            } => self.on_migrate_bounce(now, src, run, remaining, cal),
            Event::MigrateCommit {
                invocation,
                function,
                dst,
            } => {
                let replica = self.owner(function);
                let rep = self.rep_mut(replica);
                rep.envelopes += 1;
                rep.controller.migrate_inflight(invocation, InvokerId(dst));
            }
            Event::VmEvict { invoker } => self.on_evict(now, invoker, cal),
            Event::FaultCrash { invoker } => self.on_crash(now, invoker, cal),
            Event::FaultStraggler { invoker, factor } => {
                self.invokers[invoker as usize].set_derate(now, factor, cal, &self.cfg);
                self.drain_tel(invoker);
            }
            Event::FaultViewFreeze { frozen } => self.view_frozen = frozen,
            Event::Redispatch { invocation } => self.on_redispatch(now, invocation, cal),
            Event::HealthSweep { replica } => self.on_health_sweep(now, replica, cal),
            Event::RetryQueue { replica } => {
                self.rep_mut(replica).retry_armed = false;
                let timeout = self.cfg.placement_timeout;
                let (placed, rejected) = self.rep_mut(replica).controller.retry_queue(now, timeout);
                for (inv, id) in placed {
                    self.schedule_delivery(now, cal, replica, id, inv);
                }
                for q in rejected {
                    self.tel.record(
                        replica_entity(replica),
                        now,
                        q.invocation.id,
                        SpanKind::Rejected,
                    );
                    self.metrics.push(InvocationRecord {
                        id: q.invocation.id,
                        arrival: q.invocation.arrival,
                        finished: now,
                        latency_secs: 0.0,
                        exec_secs: 0.0,
                        cold: false,
                        exec_started: false,
                        outcome: Outcome::Rejected,
                    });
                }
                if self.rep_mut(replica).controller.queue_len() > 0 {
                    self.arm_retry(replica, cal);
                }
            }
            Event::ReconcileTick { replica } => {
                let deltas = self.rep_mut(replica).controller.take_dirty();
                if !deltas.is_empty() {
                    for peer in 0..self.replica_count {
                        if peer == replica {
                            continue;
                        }
                        self.send(
                            now,
                            replica_entity(replica),
                            replica_entity(peer),
                            self.cfg.bus_latency,
                            Event::ViewDelta {
                                replica: peer,
                                deltas: deltas.clone(),
                            },
                        );
                    }
                }
                cal.schedule_after(
                    self.cfg.sharding.reconcile_interval,
                    Event::ReconcileTick { replica },
                );
            }
            Event::ViewDelta { replica, deltas } => {
                let rep = self.rep_mut(replica);
                rep.envelopes += 1;
                rep.controller.apply_deltas(&deltas);
            }
            Event::MonitorTick => self.on_monitor_tick(now, cal),
            Event::Sample { invoker } => self.on_sample(now, invoker, cal),
        }
    }
}

/// One packaged simulation run.
pub struct Simulation {
    world: PlatformWorld,
    calendar: Calendar<Event>,
}

/// Results of a completed run.
#[derive(Debug)]
pub struct SimOutput {
    /// Raw per-invocation records and counters.
    pub collector: MetricsCollector,
    /// Engine statistics.
    pub run: RunStats,
    /// Fleet-wide cold starts (invoker-counted).
    pub cold_starts: u64,
    /// Fleet-wide warm starts (invoker-counted).
    pub warm_starts: u64,
    /// Merged flight recorder (empty under `TelemetryConfig::Off`).
    pub recorder: FlightRecorder,
}

impl SimOutput {
    /// [`MetricsCollector::assert_conservation`] with a flight-recorder
    /// dump on failure: if the invocation-conservation invariant is about
    /// to fail, the recorder's trailing events land under
    /// [`hrv_telemetry::dump::DEFAULT_DUMP_DIR`] (CI uploads that
    /// directory as an artifact) before the panic fires.
    pub fn assert_conservation(&self) {
        let (arrived, resolved) = self.collector.conservation();
        if arrived != resolved {
            let n = hrv_telemetry::FlightConfig::default().dump_last as usize;
            hrv_telemetry::dump::write_default("conservation", &self.recorder, n);
        }
        self.collector.assert_conservation();
    }
}

impl Simulation {
    /// Builds a simulation from a cluster, a workload trace, and a policy.
    pub fn new(
        spec: ClusterSpec,
        workload: Vec<Invocation>,
        policy: Box<dyn LoadBalancer>,
        cfg: PlatformConfig,
        seed: u64,
    ) -> Self {
        let (world, calendar) = PlatformWorld::new(spec, workload, policy, cfg, seed);
        Simulation { world, calendar }
    }

    /// [`Simulation::new`] plus an injected [`FaultPlan`]. With the zero
    /// plan this is byte-identical to [`Simulation::new`].
    pub fn with_faults(
        spec: ClusterSpec,
        workload: Vec<Invocation>,
        policy: Box<dyn LoadBalancer>,
        cfg: PlatformConfig,
        seed: u64,
        faults: FaultPlan,
    ) -> Self {
        let (world, calendar) = PlatformWorld::from_stream_with_faults(
            spec,
            Box::new(SortedTraceStream::new(workload)),
            policy,
            cfg,
            seed,
            faults,
        );
        Simulation { world, calendar }
    }

    /// Builds a simulation fed by a lazy arrival stream. With
    /// `cfg.record_invocations = false` this runs in constant memory
    /// regardless of how many invocations the stream produces; metrics
    /// come out of `SimOutput::collector.streaming`.
    pub fn streaming(
        spec: ClusterSpec,
        arrivals: impl ArrivalStream + 'static,
        policy: Box<dyn LoadBalancer>,
        cfg: PlatformConfig,
        seed: u64,
    ) -> Self {
        let (world, calendar) =
            PlatformWorld::from_stream(spec, Box::new(arrivals), policy, cfg, seed);
        Simulation { world, calendar }
    }

    /// Runs until `horizon`, returning collected metrics.
    pub fn run(self, horizon: SimDuration) -> SimOutput {
        self.run_with_budget(horizon, u64::MAX)
    }

    /// Runs with an explicit event budget (for tests of runaway configs).
    pub fn run_with_budget(mut self, horizon: SimDuration, max_events: u64) -> SimOutput {
        let end = SimTime::ZERO + horizon;
        let run = crate::shard::run_rounds(&mut self.world, &mut self.calendar, end, max_events);
        crate::shard::merge_outputs(vec![(self.world, run)])
    }

    /// Access to the world before running (for test instrumentation).
    pub fn world_mut(&mut self) -> &mut PlatformWorld {
        &mut self.world
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hrv_lb::policy::PolicyKind;
    use hrv_trace::faas::{Workload, WorkloadSpec};
    use hrv_trace::harvest::{CpuChange, VmEnd};
    use hrv_trace::rng::SeedFactory;

    fn workload(rps: f64, horizon: SimDuration) -> Vec<Invocation> {
        let spec = WorkloadSpec::paper_fsmall().scaled(30, rps);
        Workload::generate(&spec, &SeedFactory::new(11)).invocations(horizon, &SeedFactory::new(11))
    }

    fn run(policy: PolicyKind, spec: ClusterSpec, rps: f64, horizon_s: u64) -> SimOutput {
        let horizon = SimDuration::from_secs(horizon_s);
        Simulation::new(
            spec,
            workload(rps, horizon),
            policy.build(),
            PlatformConfig::default(),
            42,
        )
        .run(horizon + SimDuration::from_secs(120))
    }

    #[test]
    fn smoke_mws_on_regular_cluster() {
        let spec = ClusterSpec::regular(4, 16, 64 * 1024, SimDuration::from_secs(720));
        let out = run(PolicyKind::Mws, spec, 5.0, 600);
        let m = out.collector.aggregate(SimTime::ZERO);
        assert!(m.arrivals > 2_000, "arrivals {}", m.arrivals);
        // Nearly everything completes on an unloaded dedicated cluster.
        assert!(
            m.completed as f64 / m.arrivals as f64 > 0.99,
            "completed {}/{}",
            m.completed,
            m.arrivals
        );
        assert_eq!(m.eviction_failures, 0);
        // The F_small-shaped workload has a heavy duration tail (P99 exec
        // can approach a minute); at low load, end-to-end latency should
        // track execution closely rather than queueing on top of it.
        let p50 = m.latency_percentile(50.0).unwrap();
        assert!(p50 < 3.0, "median latency {p50}");
        let overhead: Vec<f64> = out
            .collector
            .records
            .iter()
            .filter(|r| r.outcome == Outcome::Completed)
            .map(|r| r.latency_secs - r.exec_secs)
            .collect();
        let mean_overhead = overhead.iter().sum::<f64>() / overhead.len() as f64;
        assert!(
            mean_overhead < 2.0,
            "mean queue+start overhead {mean_overhead}"
        );
        // MWS consolidates: cold start rate stays low.
        assert!(m.cold_start_rate < 0.2, "cold rate {}", m.cold_start_rate);
    }

    #[test]
    fn all_policies_complete_work() {
        for policy in [
            PolicyKind::Mws,
            PolicyKind::Jsq,
            PolicyKind::JsqSampled(2),
            PolicyKind::Vanilla,
            PolicyKind::Random,
            PolicyKind::RoundRobin,
        ] {
            let spec = ClusterSpec::regular(4, 16, 64 * 1024, SimDuration::from_secs(400));
            let out = run(policy, spec, 2.0, 300);
            let m = out.collector.aggregate(SimTime::ZERO);
            assert!(
                m.completed as f64 / m.arrivals.max(1) as f64 > 0.95,
                "{}: {}/{}",
                policy.label(),
                m.completed,
                m.arrivals
            );
        }
    }

    #[test]
    fn identical_seeds_are_byte_identical() {
        let mk = || {
            let spec = ClusterSpec::regular(3, 8, 32 * 1024, SimDuration::from_secs(400));
            run(PolicyKind::Mws, spec, 3.0, 300)
        };
        let a = mk();
        let b = mk();
        assert_eq!(a.collector.records, b.collector.records);
        assert_eq!(a.cold_starts, b.cold_starts);
    }

    /// Drives the *same* MWS harvest simulation once on the timer-wheel
    /// calendar and once on the heap reference spec: records, event
    /// counts, and start counters must be byte-identical. This is the
    /// platform-scale extension of the calendar differential proptest —
    /// it exercises EventIds held across invoker resizes, keep-alive
    /// cancellations, eviction teardowns, and far-future VM lifetimes.
    #[test]
    fn wheel_and_reference_calendars_are_byte_identical() {
        let horizon = SimDuration::from_secs(400);
        let build = || {
            // A harvest-flavored cluster: CPUs wobble, one VM is evicted
            // (with warning) mid-run.
            let harvested = VmTrace {
                deploy: SimTime::ZERO,
                end: SimTime::from_secs(240),
                ended: VmEnd::Evicted,
                base_cpus: 4,
                max_cpus: 16,
                initial_cpus: 16,
                memory_mb: 32 * 1024,
                cpu_changes: vec![
                    CpuChange {
                        at: SimTime::from_secs(45),
                        cpus: 6,
                    },
                    CpuChange {
                        at: SimTime::from_secs(90),
                        cpus: 12,
                    },
                    CpuChange {
                        at: SimTime::from_secs(150),
                        cpus: 4,
                    },
                ],
            };
            let wobbling = VmTrace {
                deploy: SimTime::ZERO,
                end: SimTime::ZERO + horizon,
                ended: VmEnd::Censored,
                base_cpus: 2,
                max_cpus: 8,
                initial_cpus: 8,
                memory_mb: 32 * 1024,
                cpu_changes: vec![
                    CpuChange {
                        at: SimTime::from_secs(60),
                        cpus: 2,
                    },
                    CpuChange {
                        at: SimTime::from_secs(120),
                        cpus: 8,
                    },
                ],
            };
            let steady = VmTrace::constant(
                SimTime::ZERO,
                SimTime::ZERO + horizon,
                VmEnd::Censored,
                8,
                32 * 1024,
            );
            (
                ClusterSpec::from_traces(vec![harvested, wobbling, steady]),
                workload(4.0, SimDuration::from_secs(300)),
            )
        };
        let end = SimTime::ZERO + horizon;

        let (spec, wl) = build();
        let mut wheel_cal = Calendar::new();
        let mut wheel_world = PlatformWorld::from_stream_with_faults_in(
            spec,
            Box::new(SortedTraceStream::new(wl)),
            PolicyKind::Mws.build(),
            PlatformConfig::default(),
            42,
            FaultPlan::none(),
            &mut wheel_cal,
        );
        let wheel_run = crate::shard::run_rounds(&mut wheel_world, &mut wheel_cal, end, u64::MAX);
        wheel_world.censor_remaining(wheel_cal.now());

        let (spec, wl) = build();
        let mut ref_cal = hrv_sim::calendar_reference::Calendar::new();
        let mut ref_world = PlatformWorld::from_stream_with_faults_in(
            spec,
            Box::new(SortedTraceStream::new(wl)),
            PolicyKind::Mws.build(),
            PlatformConfig::default(),
            42,
            FaultPlan::none(),
            &mut ref_cal,
        );
        let ref_run = crate::shard::run_rounds(&mut ref_world, &mut ref_cal, end, u64::MAX);
        ref_world.censor_remaining(ref_cal.now());

        assert_eq!(wheel_run.events, ref_run.events, "event counts diverged");
        assert_eq!(wheel_run.end_time, ref_run.end_time, "end times diverged");
        assert_eq!(
            wheel_world.metrics.records, ref_world.metrics.records,
            "records diverged"
        );
        assert_eq!(
            wheel_world.total_cold_starts(),
            ref_world.total_cold_starts()
        );
        assert_eq!(
            wheel_world.total_warm_starts(),
            ref_world.total_warm_starts()
        );
        // Guard against the comparison degenerating into a trivial run.
        assert_eq!(wheel_world.metrics.vm_evictions, 1);
        assert!(
            wheel_world.metrics.records.len() > 500,
            "only {} records",
            wheel_world.metrics.records.len()
        );
    }

    #[test]
    fn eviction_kills_running_work_and_fleet_recovers() {
        // One VM dies at t=60 with a 30 s warning; another survives.
        let horizon = SimDuration::from_secs(400);
        let dying = VmTrace {
            deploy: SimTime::ZERO,
            end: SimTime::from_secs(60),
            ended: VmEnd::Evicted,
            base_cpus: 8,
            max_cpus: 8,
            initial_cpus: 8,
            memory_mb: 32 * 1024,
            cpu_changes: vec![],
        };
        let survivor = VmTrace::constant(
            SimTime::ZERO,
            SimTime::ZERO + horizon,
            VmEnd::Censored,
            8,
            32 * 1024,
        );
        let out = Simulation::new(
            ClusterSpec::from_traces(vec![dying, survivor]),
            workload(4.0, SimDuration::from_secs(300)),
            PolicyKind::Jsq.build(),
            PlatformConfig::default(),
            1,
        )
        .run(horizon);
        let m = out.collector.aggregate(SimTime::ZERO);
        assert_eq!(out.collector.vm_evictions, 1);
        // Work continues on the survivor.
        assert!(m.completed > 500, "completed {}", m.completed);
        // The warning window keeps failures low but long invocations on
        // the dying VM may still be killed.
        assert!(m.failure_rate < 0.05, "failure rate {}", m.failure_rate);
    }

    #[test]
    fn warned_vm_stops_receiving_placements() {
        // A VM under warning for its whole (short) life should get almost
        // nothing once the controller sees the warning via pings.
        let horizon = SimDuration::from_secs(200);
        let warned = VmTrace {
            deploy: SimTime::ZERO,
            end: SimTime::from_secs(190),
            ended: VmEnd::Evicted,
            base_cpus: 16,
            max_cpus: 16,
            initial_cpus: 16,
            memory_mb: 64 * 1024,
            cpu_changes: vec![],
        };
        // Warning fires at end-30s = 160 s; before that it is placeable.
        let healthy = VmTrace::constant(
            SimTime::ZERO,
            SimTime::ZERO + horizon,
            VmEnd::Censored,
            16,
            64 * 1024,
        );
        let mut sim = Simulation::new(
            ClusterSpec::from_traces(vec![warned, healthy]),
            workload(3.0, horizon),
            PolicyKind::Jsq.build(),
            PlatformConfig::default(),
            1,
        );
        let _ = sim.world_mut();
        let out = sim.run(horizon);
        let m = out.collector.aggregate(SimTime::ZERO);
        // Failures only among invocations running at eviction.
        assert!(m.eviction_failures < 30, "failures {}", m.eviction_failures);
        assert!(m.completed > 400);
    }

    #[test]
    fn cpu_shrink_slows_completion() {
        // 8 CPUs shrink to 1 at t=10 while a burst of work is in flight.
        let horizon = SimDuration::from_secs(300);
        let vm = VmTrace {
            deploy: SimTime::ZERO,
            end: SimTime::ZERO + horizon,
            ended: VmEnd::Censored,
            base_cpus: 1,
            max_cpus: 8,
            initial_cpus: 8,
            memory_mb: 32 * 1024,
            cpu_changes: vec![CpuChange {
                at: SimTime::from_secs(10),
                cpus: 1,
            }],
        };
        let out = Simulation::new(
            ClusterSpec::from_traces(vec![vm]),
            workload(2.0, SimDuration::from_secs(120)),
            PolicyKind::Mws.build(),
            PlatformConfig::default(),
            1,
        )
        .run(horizon);
        let m = out.collector.aggregate(SimTime::ZERO);
        // The shrunken CPU can serve only a fraction of the offered load:
        // some work finishes, the rest censors at the horizon, and the
        // tail stretches far beyond what an unshrunken VM would show.
        assert!(m.completed > 30, "completed {}", m.completed);
        assert!(
            (m.completed as f64) < 0.8 * m.arrivals as f64,
            "shrink did not bite: {}/{}",
            m.completed,
            m.arrivals
        );
        assert!(m.p99().unwrap() > 5.0, "p99 {:?}", m.p99());
    }

    #[test]
    fn resource_monitor_backfills_capacity() {
        // The only VM dies at t=60; the monitor (floor: 8 CPUs) deploys a
        // replacement that comes up after its deploy delay.
        let dying = VmTrace {
            deploy: SimTime::ZERO,
            end: SimTime::from_secs(60),
            ended: VmEnd::Evicted,
            base_cpus: 8,
            max_cpus: 8,
            initial_cpus: 8,
            memory_mb: 32 * 1024,
            cpu_changes: vec![],
        };
        let cfg = PlatformConfig {
            monitor: crate::config::ResourceMonitorConfig {
                enabled: true,
                min_cpus: 8,
                interval: SimDuration::from_secs(10),
                template: VmTemplate {
                    cpus: 8,
                    memory_mb: 32 * 1024,
                    deploy_delay: SimDuration::from_secs(60),
                },
            },
            ..PlatformConfig::default()
        };
        let horizon = SimDuration::from_secs(600);
        let out = Simulation::new(
            ClusterSpec::from_traces(vec![dying]),
            workload(1.0, SimDuration::from_secs(500)),
            PolicyKind::Jsq.build(),
            cfg,
            1,
        )
        .run(horizon);
        let m = out.collector.aggregate(SimTime::ZERO);
        // Invocations arriving after the replacement deploys complete.
        let late_completed = out
            .collector
            .records
            .iter()
            .filter(|r| {
                r.arrival > SimTime::from_secs(150)
                    && r.outcome == crate::metrics::Outcome::Completed
            })
            .count();
        assert!(late_completed > 100, "late completions {late_completed}");
        assert!(m.rejections < m.arrivals / 4);
    }

    #[test]
    fn utilization_sampling_produces_series() {
        let cfg = PlatformConfig {
            sample_interval: SimDuration::from_secs(5),
            ..PlatformConfig::default()
        };
        let horizon = SimDuration::from_secs(100);
        let out = Simulation::new(
            ClusterSpec::regular(2, 8, 32 * 1024, horizon),
            workload(2.0, horizon),
            PolicyKind::Mws.build(),
            cfg,
            1,
        )
        .run(horizon);
        assert!(
            out.collector.samples.len() >= 19,
            "{}",
            out.collector.samples.len()
        );
        for s in &out.collector.samples {
            assert_eq!(s.total_cpus, 16);
            assert!(s.cpus_in_use <= 16.0);
        }
    }

    #[test]
    fn streaming_arrivals_match_materialized_run() {
        // The platform driven by a lazy WorkloadStream must produce the
        // byte-identical record sequence as the same run driven by the
        // materialized trace.
        use hrv_trace::stream::WorkloadStream;
        let spec = WorkloadSpec::paper_fsmall().scaled(30, 3.0);
        let horizon = SimDuration::from_secs(400);
        let seeds = SeedFactory::new(11);
        let cluster = || ClusterSpec::regular(3, 8, 32 * 1024, SimDuration::from_secs(500));
        let trace = Workload::generate(&spec, &seeds).invocations(horizon, &seeds);
        let materialized = Simulation::new(
            cluster(),
            trace,
            PolicyKind::Mws.build(),
            PlatformConfig::default(),
            42,
        )
        .run(horizon + SimDuration::from_secs(100));
        let streamed = Simulation::streaming(
            cluster(),
            WorkloadStream::from_spec(&spec, horizon, &seeds),
            PolicyKind::Mws.build(),
            PlatformConfig::default(),
            42,
        )
        .run(horizon + SimDuration::from_secs(100));
        assert_eq!(materialized.collector.records, streamed.collector.records);
        assert_eq!(materialized.cold_starts, streamed.cold_starts);
    }

    #[test]
    fn streaming_only_keeps_no_records() {
        let cfg = PlatformConfig {
            record_invocations: false,
            sample_interval: SimDuration::from_secs(5),
            ..PlatformConfig::default()
        };
        let horizon = SimDuration::from_secs(300);
        let out = Simulation::new(
            ClusterSpec::regular(3, 8, 32 * 1024, horizon),
            workload(3.0, horizon),
            PolicyKind::Mws.build(),
            cfg,
            42,
        )
        .run(horizon);
        assert!(out.collector.records.is_empty());
        assert!(out.collector.samples.is_empty());
        let s = &out.collector.streaming;
        assert!(s.completed > 500, "completed {}", s.completed);
        assert!(s.latency_percentile(50.0).unwrap() > 0.0);
        assert!(s.utilization.count() > 0);
        assert!(!s.util_series.points().is_empty());
    }

    #[test]
    fn overload_blows_the_slo() {
        // 2 CPUs against ~8 cores of demand: the queue grows without
        // bound and P99 explodes — the saturation signature of Figure 12.
        let horizon = SimDuration::from_secs(600);
        let out = Simulation::new(
            ClusterSpec::regular(1, 2, 8 * 1024, horizon),
            workload(8.0, SimDuration::from_secs(500)),
            PolicyKind::Mws.build(),
            PlatformConfig::default(),
            1,
        )
        .run(horizon);
        let m = out.collector.aggregate(SimTime::from_secs(60));
        assert!(
            m.p99().unwrap_or(f64::INFINITY) > 50.0,
            "p99 {:?} should blow the 50 s SLO",
            m.p99()
        );
    }
}

#[cfg(test)]
mod horizon_tests {
    use super::*;
    use crate::shard::ShardedSimulation;
    use hrv_lb::policy::PolicyKind;
    use hrv_trace::faas::{AppId, FunctionId};

    /// Runs one 1-second call on a two-invoker cluster to `horizon`.
    fn one_call(horizon: SimDuration, shards: Option<u32>) -> SimOutput {
        let spec = ClusterSpec::regular(2, 4, 4_096, SimDuration::from_mins(10));
        let call = Invocation {
            id: 7,
            function: FunctionId {
                app: AppId(3),
                func: 0,
            },
            arrival: SimTime::from_secs(1),
            duration: SimDuration::from_secs(1),
            memory_mb: 256,
            cpu_demand: 1.0,
        };
        let cfg = PlatformConfig::default();
        match shards {
            None => Simulation::new(spec, vec![call], PolicyKind::Mws.build(), cfg, 5).run(horizon),
            Some(s) => {
                ShardedSimulation::new(spec, vec![call], PolicyKind::Mws, cfg, 5, s).run(horizon)
            }
        }
    }

    #[test]
    fn report_on_the_bus_at_the_horizon_is_recorded_once() {
        let full = one_call(SimDuration::from_secs(60), None);
        let done = &full.collector.records[0];
        assert_eq!(done.outcome, Outcome::Completed);
        // Stop one microsecond after the call finished: its completion
        // report is still on the bus to the controller, which therefore
        // still lists the call in flight.
        let horizon = done.finished.since(SimTime::ZERO) + SimDuration::from_micros(1);
        for shards in [None, Some(1), Some(2)] {
            let out = one_call(horizon, shards);
            out.assert_conservation();
            let recs = &out.collector.records;
            assert_eq!(recs.len(), 1, "{shards:?}: one call, one record: {recs:?}");
            assert_eq!(recs[0].id, 7);
            assert_eq!(recs[0].outcome, Outcome::Completed, "{shards:?}");
            assert_eq!(recs[0].finished, done.finished, "{shards:?}");
        }
    }
}

#[cfg(test)]
mod migration_tests {
    use super::*;
    use crate::config::MigrationConfig;
    use hrv_lb::policy::PolicyKind;
    use hrv_trace::faas::{AppId, FunctionId};

    fn long_invocation(id: u64, at_secs: u64, dur_secs: f64) -> Invocation {
        Invocation {
            id,
            function: FunctionId {
                app: AppId(id as u32),
                func: 0,
            },
            arrival: SimTime::from_secs(at_secs),
            duration: SimDuration::from_secs_f64(dur_secs),
            memory_mb: 512,
            cpu_demand: 1.0,
        }
    }

    fn dying_and_safe(horizon: SimDuration) -> ClusterSpec {
        let dying = VmTrace::constant(
            SimTime::ZERO,
            SimTime::from_secs(60),
            VmEnd::Evicted,
            8,
            16 * 1024,
        );
        let safe = VmTrace::constant(
            SimTime::ZERO,
            SimTime::ZERO + horizon,
            VmEnd::Censored,
            8,
            16 * 1024,
        );
        ClusterSpec::from_traces(vec![dying, safe])
    }

    fn run_with_migration(enabled: bool) -> SimOutput {
        let horizon = SimDuration::from_mins(10);
        let cfg = PlatformConfig {
            migration: MigrationConfig {
                enabled,
                ..MigrationConfig::default()
            },
            ..PlatformConfig::default()
        };
        // Long invocations arrive just before the warning (t=30): they
        // cannot finish within the grace period and die without
        // migration. JSQ's utilization metric keeps them on the dying
        // invoker only if it is the less loaded one; pin them there by
        // letting them arrive when both invokers are empty and checking
        // aggregate failures instead of per-invoker placement.
        let trace: Vec<Invocation> = (0..8).map(|i| long_invocation(i, 10 + i, 120.0)).collect();
        Simulation::new(
            dying_and_safe(horizon),
            trace,
            PolicyKind::Jsq.build(),
            cfg,
            5,
        )
        .run(horizon)
    }

    #[test]
    fn migration_rescues_long_invocations() {
        let without = run_with_migration(false);
        let with = run_with_migration(true);
        assert_eq!(without.collector.migrations, 0);
        assert!(
            without.collector.eviction_failures > 0,
            "baseline must lose work to the eviction"
        );
        assert!(with.collector.migrations > 0, "no migrations happened");
        assert!(
            with.collector.eviction_failures < without.collector.eviction_failures,
            "migration did not reduce failures: {} vs {}",
            with.collector.eviction_failures,
            without.collector.eviction_failures
        );
        // Everything that migrated eventually completes.
        let completed_with = with.collector.aggregate(SimTime::ZERO).completed;
        let completed_without = without.collector.aggregate(SimTime::ZERO).completed;
        assert!(completed_with > completed_without);
    }

    #[test]
    fn migration_respects_the_grace_period() {
        // A migration whose transfer cannot finish inside 30 s never
        // starts: with an absurdly slow link, behavior matches disabled.
        let horizon = SimDuration::from_mins(10);
        let cfg = PlatformConfig {
            migration: MigrationConfig {
                enabled: true,
                per_gib: SimDuration::from_secs(120),
                ..MigrationConfig::default()
            },
            ..PlatformConfig::default()
        };
        let trace: Vec<Invocation> = (0..4).map(|i| long_invocation(i, 10 + i, 120.0)).collect();
        let out = Simulation::new(
            dying_and_safe(horizon),
            trace,
            PolicyKind::Jsq.build(),
            cfg,
            5,
        )
        .run(horizon);
        assert_eq!(out.collector.migrations, 0);
    }
}

#[cfg(test)]
mod fault_tests {
    use super::*;
    use hrv_lb::policy::PolicyKind;
    use hrv_trace::faas::{Workload, WorkloadSpec};
    use hrv_trace::rng::SeedFactory;

    fn workload(rps: f64, horizon: SimDuration) -> Vec<Invocation> {
        let spec = WorkloadSpec::paper_fsmall().scaled(30, rps);
        Workload::generate(&spec, &SeedFactory::new(17)).invocations(horizon, &SeedFactory::new(17))
    }

    fn crash_plan(at_secs: u64, invoker: u32) -> FaultPlan {
        let mut plan = FaultPlan::default();
        plan.push(SimTime::from_secs(at_secs), FaultKind::Crash { invoker });
        plan.finish();
        plan
    }

    fn run_crash(recovery: bool) -> SimOutput {
        let horizon = SimDuration::from_secs(400);
        let spec = ClusterSpec::regular(2, 8, 32 * 1024, horizon);
        let mut cfg = PlatformConfig::default();
        cfg.recovery.enabled = recovery;
        Simulation::with_faults(
            spec,
            workload(4.0, SimDuration::from_secs(300)),
            PolicyKind::Mws.build(),
            cfg,
            42,
            crash_plan(60, 0),
        )
        .run(horizon)
    }

    #[test]
    fn zero_fault_plan_matches_plain_run() {
        let horizon = SimDuration::from_secs(400);
        let mk_plain = || {
            Simulation::new(
                ClusterSpec::regular(3, 8, 32 * 1024, horizon),
                workload(3.0, SimDuration::from_secs(300)),
                PolicyKind::Mws.build(),
                PlatformConfig::default(),
                42,
            )
            .run(horizon)
        };
        let mk_faulted = || {
            Simulation::with_faults(
                ClusterSpec::regular(3, 8, 32 * 1024, horizon),
                workload(3.0, SimDuration::from_secs(300)),
                PolicyKind::Mws.build(),
                PlatformConfig::default(),
                42,
                FaultPlan::none(),
            )
            .run(horizon)
        };
        let plain = mk_plain();
        let faulted = mk_faulted();
        assert_eq!(plain.collector.records, faulted.collector.records);
        assert_eq!(plain.cold_starts, faulted.cold_starts);
        assert_eq!(
            plain.collector.streaming.completed,
            faulted.collector.streaming.completed
        );
    }

    #[test]
    fn crash_without_recovery_keeps_killing_work() {
        let out = run_crash(false);
        assert_eq!(out.collector.vm_crashes, 1);
        // Nothing announces the crash: work on the corpse at kill time
        // dies, and the controller keeps routing fresh work at the dead
        // invoker, which dies too on delivery.
        let m = out.collector.aggregate(SimTime::ZERO);
        assert!(m.eviction_failures > 20, "failures {}", m.eviction_failures);
        assert_eq!(out.collector.streaming.retries, 0);
        out.collector.assert_conservation();
    }

    #[test]
    fn crash_with_recovery_redispatches_and_quarantines() {
        let without = run_crash(false);
        let with = run_crash(true);
        assert_eq!(with.collector.vm_crashes, 1);
        // Health probes take the corpse out of the view and retries
        // re-dispatch the destroyed work.
        assert!(with.collector.quarantines >= 1, "no quarantine happened");
        assert!(with.collector.streaming.retries > 0, "no retries happened");
        assert!(with.collector.streaming.redispatches > 0);
        let lost_with = with.collector.eviction_failures + with.collector.lost;
        let lost_without = without.collector.eviction_failures + without.collector.lost;
        assert!(
            lost_with < lost_without,
            "recovery did not reduce lost work: {lost_with} vs {lost_without}"
        );
        with.collector.assert_conservation();
        without.collector.assert_conservation();
    }

    #[test]
    fn dropped_warning_turns_eviction_into_surprise() {
        // A warned VM sheds placements before dying; with the warning
        // suppressed, the eviction kills strictly more work.
        let horizon = SimDuration::from_secs(400);
        let dying = VmTrace::constant(
            SimTime::ZERO,
            SimTime::from_secs(120),
            VmEnd::Evicted,
            8,
            32 * 1024,
        );
        let safe = VmTrace::constant(
            SimTime::ZERO,
            SimTime::ZERO + horizon,
            VmEnd::Censored,
            8,
            32 * 1024,
        );
        let mk = |plan: FaultPlan| {
            Simulation::with_faults(
                ClusterSpec::from_traces(vec![dying.clone(), safe.clone()]),
                workload(4.0, SimDuration::from_secs(300)),
                PolicyKind::Jsq.build(),
                PlatformConfig::default(),
                7,
                plan,
            )
            .run(horizon)
        };
        let warned = mk(FaultPlan::none());
        let mut plan = FaultPlan::default();
        plan.warnings.insert(0, WarningFault::Drop);
        let surprised = mk(plan);
        assert!(
            surprised.collector.eviction_failures > warned.collector.eviction_failures,
            "dropping the warning should kill more work: {} vs {}",
            surprised.collector.eviction_failures,
            warned.collector.eviction_failures
        );
    }

    #[test]
    fn straggler_window_quarantines_then_recovers() {
        let horizon = SimDuration::from_secs(400);
        let mut plan = FaultPlan::default();
        plan.push(
            SimTime::from_secs(60),
            FaultKind::StragglerStart {
                invoker: 0,
                factor: 0.05,
            },
        );
        plan.push(
            SimTime::from_secs(200),
            FaultKind::StragglerEnd { invoker: 0 },
        );
        plan.finish();
        let mut cfg = PlatformConfig::default();
        cfg.recovery.enabled = true;
        let out = Simulation::with_faults(
            ClusterSpec::regular(2, 4, 16 * 1024, horizon),
            workload(6.0, SimDuration::from_secs(300)),
            PolicyKind::Jsq.build(),
            cfg,
            42,
            plan,
        )
        .run(horizon);
        assert!(
            out.collector.quarantines >= 1,
            "straggler never quarantined"
        );
        assert!(
            out.collector.streaming.quarantine_secs > 0.0,
            "no quarantine time accumulated"
        );
        out.collector.assert_conservation();
    }

    #[test]
    fn dispatch_drops_are_recovered() {
        use hrv_fault::DispatchFaults;
        use hrv_trace::dist::BoundedPareto;
        let horizon = SimDuration::from_secs(400);
        let plan = FaultPlan {
            dispatch: Some(DispatchFaults {
                drop_prob: 0.2,
                delay_prob: 0.1,
                delay: BoundedPareto::new(0.05, 1.0, 1.3),
                seed: 9,
            }),
            ..Default::default()
        };
        let mut cfg = PlatformConfig::default();
        cfg.recovery.enabled = true;
        let out = Simulation::with_faults(
            ClusterSpec::regular(2, 8, 32 * 1024, horizon),
            workload(3.0, SimDuration::from_secs(300)),
            PolicyKind::Mws.build(),
            cfg,
            42,
            plan,
        )
        .run(horizon);
        let m = out.collector.aggregate(SimTime::ZERO);
        assert!(out.collector.streaming.retries > 0, "no drops were retried");
        // With retries covering the drops, nearly everything completes.
        assert!(
            m.completed as f64 / m.arrivals as f64 > 0.95,
            "completed {}/{}",
            m.completed,
            m.arrivals
        );
        out.collector.assert_conservation();
    }

    #[test]
    fn view_freeze_window_is_survivable() {
        let horizon = SimDuration::from_secs(300);
        let mut plan = FaultPlan::default();
        plan.push(SimTime::from_secs(50), FaultKind::ViewFreeze);
        plan.push(SimTime::from_secs(100), FaultKind::ViewThaw);
        plan.finish();
        let out = Simulation::with_faults(
            ClusterSpec::regular(2, 8, 32 * 1024, horizon),
            workload(3.0, SimDuration::from_secs(200)),
            PolicyKind::Jsq.build(),
            PlatformConfig::default(),
            42,
            plan,
        )
        .run(horizon);
        let m = out.collector.aggregate(SimTime::ZERO);
        assert!(
            m.completed as f64 / m.arrivals as f64 > 0.95,
            "completed {}/{}",
            m.completed,
            m.arrivals
        );
        out.collector.assert_conservation();
    }
}
