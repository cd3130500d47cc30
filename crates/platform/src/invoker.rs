//! The invoker: one per VM, owning a container pool and the VM's CPUs.
//!
//! Responsibilities (mirroring the modified OpenWhisk invoker of
//! Section 6.2):
//!
//! * container lifecycle — warm reuse, cold starts, keep-alive reaping,
//!   LRU eviction under memory pressure;
//! * execution under processor sharing on the VM's *current* CPU
//!   allocation (the Harvest Monitor's readings);
//! * admission control — when CPU pressure is at or above the threshold,
//!   new invocations wait in the invoker queue;
//! * health snapshots for the controller's pings.

use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, HashMap, VecDeque};

use hrv_policy::{ColdStartPolicy, FixedKeepAlive, IdleCtx};
use hrv_sim::calendar::{EventCalendar, EventId};
use hrv_sim::ps::{JobId, PsQueue};
use hrv_telemetry::SpanKind;
use hrv_trace::faas::{FunctionId, Invocation};
use hrv_trace::time::{SimDuration, SimTime};

use crate::config::PlatformConfig;
use crate::event::{Event, InvokerIndex};

/// Slack for completion detection: the timer is rounded up to the next
/// microsecond, so finished jobs may retain up to ~rate·1 µs of demand.
const COMPLETION_SLACK: f64 = 1e-5;

/// Lifecycle state of one container.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ContainerState {
    /// Cold start in progress.
    Starting,
    /// Executing an invocation.
    Busy,
    /// Warm, waiting for the next invocation (keep-alive running).
    Idle,
}

/// One function container.
#[derive(Debug)]
pub struct Container {
    /// Container id (unique within the platform).
    pub id: u64,
    /// The function this container serves.
    pub function: FunctionId,
    /// Memory footprint, MiB.
    pub memory_mb: u64,
    /// Current state.
    pub state: ContainerState,
    /// Last time it finished serving (for LRU eviction; doubles as the
    /// idle-span start for warm memory-time accounting).
    pub last_used: SimTime,
    /// Pending keep-alive timer when idle.
    pub keepalive: Option<EventId>,
    /// Born from a cold-start policy's prewarm order (for hit/waste
    /// accounting).
    pub prewarmed: bool,
    /// Invocations this container has finished serving.
    pub served: u64,
}

/// Idle containers grouped by function, each group sorted by ascending
/// container id.
///
/// Kept in step with every transition into or out of
/// [`ContainerState::Idle`], so warm reuse and the policy's idle-peer
/// count are lookups rather than scans of the container pool. The
/// lowest id in a group is exactly the container a scan of the
/// id-ordered pool would find first, which keeps reuse order — and with
/// it every simulated result — unchanged.
#[derive(Debug, Default)]
struct IdleIndex {
    by_function: HashMap<FunctionId, Vec<u64>>,
}

impl IdleIndex {
    /// Records `cid` as idle.
    fn insert(&mut self, function: FunctionId, cid: u64) {
        let ids = self.by_function.entry(function).or_default();
        let pos = ids.partition_point(|&id| id < cid);
        debug_assert!(ids.get(pos) != Some(&cid), "container {cid} indexed twice");
        ids.insert(pos, cid);
    }

    /// Forgets idle container `cid`; an emptied group is dropped so the
    /// index stays as small as the idle pool.
    fn remove(&mut self, function: FunctionId, cid: u64) {
        let Entry::Occupied(mut group) = self.by_function.entry(function) else {
            panic!("idle container {cid} missing from the index");
        };
        let ids = group.get_mut();
        let pos = ids
            .binary_search(&cid)
            .unwrap_or_else(|_| panic!("idle container {cid} missing from the index"));
        ids.remove(pos);
        if ids.is_empty() {
            group.remove();
        }
    }

    /// The lowest-id idle container for `function`.
    fn lowest(&self, function: FunctionId) -> Option<u64> {
        self.by_function.get(&function).map(|ids| ids[0])
    }

    /// Idle containers for `function`.
    fn count(&self, function: FunctionId) -> usize {
        self.by_function.get(&function).map_or(0, Vec::len)
    }

    fn clear(&mut self) {
        self.by_function.clear();
    }
}

/// A prewarm order decided at an idle transition, drained by the world
/// into a cross-entity [`Event::Prewarm`] envelope.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PrewarmRequest {
    /// The function to pre-spawn for.
    pub function: FunctionId,
    /// Container memory footprint, MiB.
    pub memory_mb: u64,
    /// Envelope delay until the spawn must begin (already floored at one
    /// bus hop and offset by the cold-start delay, so the container is
    /// warm when the policy asked for it).
    pub spawn_delay: SimDuration,
    /// Keep-alive TTL to arm once warm.
    pub ttl: SimDuration,
}

/// An invocation currently executing (or cold-starting).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunningInvocation {
    /// The invocation.
    pub invocation: Invocation,
    /// Whether it cold-started.
    pub cold: bool,
    /// When execution (or the cold start) began.
    pub exec_start: SimTime,
}

/// Work destroyed by a VM eviction.
#[derive(Debug, Default)]
pub struct EvictedWork {
    /// Invocations that had started executing (or cold-starting).
    pub started: Vec<RunningInvocation>,
    /// Invocations still waiting in the invoker queue.
    pub queued: Vec<Invocation>,
}

/// Health-ping payload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HealthSnapshot {
    /// Current CPU allocation of the hosting VM.
    pub cpus: u32,
    /// Cores in use right now.
    pub cpus_in_use: f64,
    /// Memory held by containers, MiB.
    pub memory_used_mb: u64,
    /// Whether the VM has been warned of eviction.
    pub eviction_pending: bool,
    /// Queue + running pressure (for diagnostics).
    pub pressure: f64,
}

/// The invoker state machine.
#[derive(Debug)]
pub struct InvokerState {
    /// Slot index in the platform's invoker table.
    pub index: InvokerIndex,
    /// True between deploy and eviction.
    pub alive: bool,
    /// True once the 30-second eviction warning arrived.
    pub warned: bool,
    /// When the warning arrived (for migration grace budgeting).
    pub warned_at: Option<SimTime>,
    /// Memory capacity, MiB.
    pub memory_mb: u64,
    /// Stale startup/completion events that raced with eviction teardown
    /// and were dropped instead of processed (each one is work already
    /// accounted for through [`EvictedWork`]).
    pub dropped_completions: u64,
    /// CPUs the Harvest VM has allocated — what health pings advertise.
    allocated_cpus: u32,
    /// Straggler derating: the PS queue progresses at
    /// `allocated_cpus * derate`. 1.0 outside fault windows.
    derate: f64,
    ps: PsQueue,
    containers: BTreeMap<u64, Container>,
    /// The idle members of `containers`, by function.
    idle: IdleIndex,
    /// Invocation parked in each starting container.
    starting: BTreeMap<u64, Invocation>,
    /// Invocations accepted but not yet started (admission / memory).
    queue: VecDeque<Invocation>,
    running: BTreeMap<u64, RunningInvocation>,
    completion_timer: Option<EventId>,
    /// The `(time, job)` pair the completion timer is armed for. Kept so
    /// `rearm_completion` can skip the cancel + reschedule when the PS
    /// queue's next completion has not actually changed — on a hot path
    /// (every deliver/resize/drain) this avoids most calendar churn.
    armed: Option<(SimTime, JobId)>,
    memory_used: u64,
    next_container: u64,
    /// Cores committed to containers still cold-starting.
    starting_cap: f64,
    /// Total cold starts this invoker performed.
    pub cold_starts: u64,
    /// Total warm starts this invoker performed.
    pub warm_starts: u64,
    /// Container lifecycle policy (one instance per invoker; see
    /// `hrv_policy` for the determinism contract).
    policy: Box<dyn ColdStartPolicy>,
    /// Prewarm orders decided this completion tick, drained by the world
    /// into cross-entity envelopes.
    prewarm_requests: Vec<PrewarmRequest>,
    /// TTL to arm when each in-flight prewarmed container becomes warm.
    prewarming: BTreeMap<u64, SimDuration>,
    /// Prewarm containers this invoker spawned.
    pub prewarm_spawns: u64,
    /// Warm starts served by a prewarmed container's first use.
    pub prewarm_hits: u64,
    /// Prewarmed containers destroyed without ever serving.
    pub wasted_prewarms: u64,
    /// Warm memory-time containers spent idle, MiB·s — the "wasted warm
    /// memory" axis of the policy grid. Idle spans still open at run end
    /// are censored.
    pub idle_mib_secs: f64,
    /// Whether lifecycle spans are being collected.
    tel_enabled: bool,
    /// Buffered `(at, invocation, kind)` span events; the world drains
    /// them into the flight recorder under this invoker's entity id
    /// after each event it forwards here. Always empty when telemetry
    /// is off.
    pub(crate) tel: Vec<(SimTime, u64, SpanKind)>,
}

impl InvokerState {
    /// Creates a not-yet-deployed invoker slot.
    pub fn new(index: InvokerIndex, memory_mb: u64) -> Self {
        InvokerState {
            index,
            alive: false,
            warned: false,
            warned_at: None,
            memory_mb,
            dropped_completions: 0,
            allocated_cpus: 0,
            derate: 1.0,
            ps: PsQueue::new(0.0),
            containers: BTreeMap::new(),
            idle: IdleIndex::default(),
            starting: BTreeMap::new(),
            queue: VecDeque::new(),
            running: BTreeMap::new(),
            completion_timer: None,
            armed: None,
            memory_used: 0,
            next_container: 0,
            starting_cap: 0.0,
            cold_starts: 0,
            warm_starts: 0,
            policy: Box::new(FixedKeepAlive),
            prewarm_requests: Vec::new(),
            prewarming: BTreeMap::new(),
            prewarm_spawns: 0,
            prewarm_hits: 0,
            wasted_prewarms: 0,
            idle_mib_secs: 0.0,
            tel_enabled: false,
            tel: Vec::new(),
        }
    }

    /// Turns span collection on or off (default: off). Set at
    /// construction time, alongside [`InvokerState::set_policy`].
    pub fn set_telemetry(&mut self, enabled: bool) {
        self.tel_enabled = enabled;
    }

    /// Installs the container lifecycle policy (default:
    /// [`FixedKeepAlive`]). Call before the first delivery — swapping
    /// policies mid-run would mix decision models.
    pub fn set_policy(&mut self, policy: Box<dyn ColdStartPolicy>) {
        self.policy = policy;
    }

    /// Brings the invoker online with `cpus` CPUs.
    pub fn deploy(&mut self, now: SimTime, cpus: u32) {
        assert!(!self.alive, "invoker {} deployed twice", self.index);
        self.alive = true;
        self.warned = false;
        self.allocated_cpus = cpus;
        self.derate = 1.0;
        self.ps = PsQueue::new(f64::from(cpus));
        self.ps.advance(now);
    }

    /// Current CPU allocation (what the VM advertises; a straggler's
    /// effective capacity may be lower).
    pub fn cpus(&self) -> u32 {
        self.allocated_cpus
    }

    /// Number of invocations waiting in the invoker queue.
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// Number of containers (any state).
    pub fn container_count(&self) -> usize {
        self.containers.len()
    }

    /// Builds the health-ping payload.
    pub fn snapshot(&self) -> HealthSnapshot {
        HealthSnapshot {
            cpus: self.cpus(),
            cpus_in_use: self.ps.cores_in_use(),
            memory_used_mb: self.memory_used,
            eviction_pending: self.warned,
            pressure: self.ps.pressure(),
        }
    }

    /// CPU pressure including containers still cold-starting — the
    /// admission-control reading (`used + committed` over allocated CPUs).
    fn admission_pressure_now(&self) -> f64 {
        let committed = self.ps.cores_in_use() + self.starting_cap;
        let cap = self.ps.capacity();
        if cap <= 0.0 {
            if committed > 0.0 {
                f64::INFINITY
            } else {
                0.0
            }
        } else {
            committed / cap
        }
    }

    fn container_id(&mut self) -> u64 {
        let id = (u64::from(self.index) << 32) | self.next_container;
        self.next_container += 1;
        id
    }

    /// Accepts a delivered invocation: queue it and try to start work.
    pub fn deliver(
        &mut self,
        now: SimTime,
        invocation: Invocation,
        cal: &mut impl EventCalendar<Event>,
        cfg: &PlatformConfig,
    ) {
        debug_assert!(self.alive, "delivery to dead invoker");
        self.policy.observe_arrival(invocation.function, now);
        self.queue.push_back(invocation);
        self.drain(now, cal, cfg);
    }

    /// Starts as many queued invocations as admission and memory allow.
    fn drain(&mut self, now: SimTime, cal: &mut impl EventCalendar<Event>, cfg: &PlatformConfig) {
        self.ps.advance(now);
        while let Some(front) = self.queue.front().copied() {
            // Admission control: delay new work when CPU pressure is at or
            // above the threshold (counting cold starts in flight).
            let committed = self.ps.cores_in_use() + self.starting_cap;
            if self.admission_pressure_now() >= cfg.admission_pressure && committed > 0.0 {
                break;
            }
            if let Some(cid) = self.find_idle_container(front.function) {
                self.queue.pop_front();
                self.start_warm(now, cid, front, cal);
            } else if self.make_room(now, front.memory_mb, cal) {
                self.queue.pop_front();
                self.start_cold(now, front, cal, cfg);
            } else {
                // Memory exhausted by busy/starting containers: wait.
                break;
            }
        }
        self.rearm_completion(cal);
    }

    /// Finds the lowest-id idle warm container for `function`.
    fn find_idle_container(&self, function: FunctionId) -> Option<u64> {
        self.idle.lowest(function)
    }

    /// Frees memory for a new container by reaping idle (LRU-first)
    /// containers. Returns false if even that cannot make room.
    /// Prewarmed idle containers are ordinary LRU victims — memory
    /// pressure from real work outranks a speculative spawn.
    fn make_room(
        &mut self,
        now: SimTime,
        needed_mb: u64,
        cal: &mut impl EventCalendar<Event>,
    ) -> bool {
        if needed_mb > self.memory_mb {
            return false;
        }
        while self.memory_mb - self.memory_used < needed_mb {
            let victim = self
                .containers
                .values()
                .filter(|c| c.state == ContainerState::Idle)
                .min_by_key(|c| (c.last_used, c.id))
                .map(|c| c.id);
            match victim {
                Some(cid) => self.destroy_container(now, cid, cal),
                None => return false,
            }
        }
        true
    }

    fn destroy_container(&mut self, now: SimTime, cid: u64, cal: &mut impl EventCalendar<Event>) {
        let c = self
            .containers
            .remove(&cid)
            .expect("destroying unknown container");
        debug_assert_eq!(
            c.state,
            ContainerState::Idle,
            "destroyed a non-idle container"
        );
        self.idle.remove(c.function, cid);
        if let Some(ev) = c.keepalive {
            cal.cancel(ev);
        }
        self.idle_mib_secs += now.saturating_since(c.last_used).as_secs_f64() * c.memory_mb as f64;
        if c.prewarmed && c.served == 0 {
            self.wasted_prewarms += 1;
        }
        self.memory_used -= c.memory_mb;
    }

    fn start_warm(
        &mut self,
        now: SimTime,
        cid: u64,
        invocation: Invocation,
        cal: &mut impl EventCalendar<Event>,
    ) {
        let c = self
            .containers
            .get_mut(&cid)
            .expect("warm container exists");
        if let Some(ev) = c.keepalive.take() {
            cal.cancel(ev);
        }
        c.state = ContainerState::Busy;
        self.idle.remove(c.function, cid);
        if c.prewarmed && c.served == 0 {
            self.prewarm_hits += 1;
        }
        self.idle_mib_secs += now.saturating_since(c.last_used).as_secs_f64() * c.memory_mb as f64;
        self.warm_starts += 1;
        if self.tel_enabled {
            self.tel
                .push((now, invocation.id, SpanKind::ExecBegin { cold: false }));
        }
        self.ps.add(
            JobId(cid),
            invocation.duration.as_secs_f64() * invocation.cpu_demand,
            invocation.cpu_demand,
        );
        self.running.insert(
            cid,
            RunningInvocation {
                invocation,
                cold: false,
                exec_start: now,
            },
        );
    }

    fn start_cold(
        &mut self,
        now: SimTime,
        invocation: Invocation,
        cal: &mut impl EventCalendar<Event>,
        cfg: &PlatformConfig,
    ) {
        let cid = self.container_id();
        self.containers.insert(
            cid,
            Container {
                id: cid,
                function: invocation.function,
                memory_mb: invocation.memory_mb,
                state: ContainerState::Starting,
                last_used: now,
                keepalive: None,
                prewarmed: false,
                served: 0,
            },
        );
        self.memory_used += invocation.memory_mb;
        self.cold_starts += 1;
        if self.tel_enabled {
            self.tel
                .push((now, invocation.id, SpanKind::ColdStartBegin));
        }
        self.starting.insert(cid, invocation);
        self.starting_cap += invocation.cpu_demand;
        cal.schedule(
            now.saturating_add(cfg.cold_start_delay),
            Event::StartupDone {
                invoker: self.index,
                container: cid,
            },
        );
    }

    /// A cold container finished starting: begin execution.
    pub fn startup_done(
        &mut self,
        now: SimTime,
        cid: u64,
        cal: &mut impl EventCalendar<Event>,
        cfg: &PlatformConfig,
    ) {
        if !self.alive {
            // Raced with an eviction: the work was already surfaced
            // through `EvictedWork`, so only count the stale event.
            self.dropped_completions += 1;
            return;
        }
        let Some(invocation) = self.starting.remove(&cid) else {
            // Container destroyed by eviction handling; same accounting.
            self.dropped_completions += 1;
            return;
        };
        self.starting_cap = (self.starting_cap - invocation.cpu_demand).max(0.0);
        let c = self
            .containers
            .get_mut(&cid)
            .expect("starting container exists");
        c.state = ContainerState::Busy;
        self.ps.advance(now);
        if self.tel_enabled {
            self.tel
                .push((now, invocation.id, SpanKind::ExecBegin { cold: true }));
        }
        self.ps.add(
            JobId(cid),
            invocation.duration.as_secs_f64() * invocation.cpu_demand + cfg.cold_start_cpu_secs,
            invocation.cpu_demand,
        );
        self.running.insert(
            cid,
            RunningInvocation {
                invocation,
                cold: true,
                exec_start: now,
            },
        );
        self.rearm_completion(cal);
    }

    /// Handles a completion-timer tick: harvest finished jobs, park their
    /// containers as idle, and restart queued work. Returns the finished
    /// invocations.
    pub fn completion_tick(
        &mut self,
        now: SimTime,
        cal: &mut impl EventCalendar<Event>,
        cfg: &PlatformConfig,
    ) -> Vec<RunningInvocation> {
        if !self.alive {
            self.dropped_completions += 1;
            return Vec::new();
        }
        // The event driving this tick is the armed timer (stale timers are
        // always cancelled before re-arming, so they never fire); it has
        // been consumed by the calendar.
        self.completion_timer = None;
        self.armed = None;
        self.ps.advance(now);
        let done = self.ps.take_completed(COMPLETION_SLACK);
        let mut finished = Vec::with_capacity(done.len());
        let mut reap_now: Vec<u64> = Vec::new();
        for JobId(cid) in done {
            let run = self
                .running
                .remove(&cid)
                .expect("completed job has a running record");
            let function = run.invocation.function;
            // Ask the lifecycle policy what to do with the idle
            // container. The peer count excludes this one (still Busy).
            let ctx = IdleCtx {
                now,
                fixed_keep_alive: cfg.keep_alive,
                cold_start_delay: cfg.cold_start_delay,
                bus_latency: cfg.bus_latency,
                idle_peers: self.idle.count(function),
            };
            let decision = self.policy.on_idle(function, &ctx);
            let c = self
                .containers
                .get_mut(&cid)
                .expect("completed job has a container");
            c.state = ContainerState::Idle;
            c.last_used = now;
            c.served += 1;
            self.idle.insert(function, cid);
            match decision.keep_alive {
                Some(ttl) => {
                    c.keepalive = Some(cal.schedule(
                        now.saturating_add(ttl),
                        Event::KeepAliveExpired {
                            invoker: self.index,
                            container: cid,
                        },
                    ));
                }
                // Zero keep-alive: reap after the drain pass below, so
                // same-tick queued work may still reuse the container.
                None => reap_now.push(cid),
            }
            if let Some(pw) = decision.prewarm {
                // The spawn must begin a cold start ahead of the warm
                // deadline; the envelope floor is one bus hop.
                let spawn_delay = pw
                    .warm_at
                    .saturating_sub(cfg.cold_start_delay)
                    .max(cfg.bus_latency);
                self.prewarm_requests.push(PrewarmRequest {
                    function,
                    memory_mb: run.invocation.memory_mb,
                    spawn_delay,
                    ttl: pw.ttl,
                });
            }
            finished.push(run);
        }
        self.drain(now, cal, cfg);
        for cid in reap_now {
            if self
                .containers
                .get(&cid)
                .is_some_and(|c| c.state == ContainerState::Idle)
            {
                self.destroy_container(now, cid, cal);
            }
        }
        finished
    }

    /// Drains the prewarm orders decided since the last call; the world
    /// turns each into a cross-entity [`Event::Prewarm`] envelope.
    pub fn take_prewarm_requests(&mut self) -> Vec<PrewarmRequest> {
        std::mem::take(&mut self.prewarm_requests)
    }

    /// Handles a policy's prewarm order: spawn an idle-bound container
    /// for `function` unless one is already warm(ing), the VM is doomed,
    /// or memory cannot be freed. Returns whether a spawn began.
    pub fn start_prewarm(
        &mut self,
        now: SimTime,
        function: FunctionId,
        memory_mb: u64,
        ttl: SimDuration,
        cal: &mut impl EventCalendar<Event>,
        cfg: &PlatformConfig,
    ) -> bool {
        if !self.alive || self.warned {
            return false;
        }
        // An idle or starting container for the function makes the
        // order moot (the keep-alive outlived the prediction, or an
        // invocation already cold-started one).
        if self
            .containers
            .values()
            .any(|c| c.function == function && c.state != ContainerState::Busy)
        {
            return false;
        }
        if !self.make_room(now, memory_mb, cal) {
            return false;
        }
        let cid = self.container_id();
        self.containers.insert(
            cid,
            Container {
                id: cid,
                function,
                memory_mb,
                state: ContainerState::Starting,
                last_used: now,
                keepalive: None,
                prewarmed: true,
                served: 0,
            },
        );
        self.memory_used += memory_mb;
        self.prewarm_spawns += 1;
        self.prewarming.insert(cid, ttl);
        cal.schedule(
            now.saturating_add(cfg.cold_start_delay),
            Event::PrewarmReady {
                invoker: self.index,
                container: cid,
            },
        );
        true
    }

    /// A prewarmed container finished warming: park it idle with its TTL
    /// armed, and let queued work of its function start on it.
    pub fn prewarm_ready(
        &mut self,
        now: SimTime,
        cid: u64,
        cal: &mut impl EventCalendar<Event>,
        cfg: &PlatformConfig,
    ) {
        if !self.alive {
            // Raced with an eviction teardown; same accounting as a
            // stale StartupDone.
            self.dropped_completions += 1;
            return;
        }
        let Some(ttl) = self.prewarming.remove(&cid) else {
            self.dropped_completions += 1;
            return;
        };
        let c = self
            .containers
            .get_mut(&cid)
            .expect("prewarming container exists");
        debug_assert_eq!(c.state, ContainerState::Starting);
        c.state = ContainerState::Idle;
        c.last_used = now;
        self.idle.insert(c.function, cid);
        c.keepalive = Some(cal.schedule(
            now.saturating_add(ttl),
            Event::KeepAliveExpired {
                invoker: self.index,
                container: cid,
            },
        ));
        self.drain(now, cal, cfg);
    }

    /// Reaps an idle container whose keep-alive expired.
    pub fn keepalive_expired(
        &mut self,
        now: SimTime,
        cid: u64,
        cal: &mut impl EventCalendar<Event>,
    ) {
        if !self.alive {
            return;
        }
        // The timer may have been cancelled logically but already popped;
        // only reap genuinely idle containers.
        if let Some(c) = self.containers.get_mut(&cid) {
            if c.state == ContainerState::Idle {
                c.keepalive = None;
                self.destroy_container(now, cid, cal);
            }
        }
    }

    /// Applies a Harvest VM CPU resize.
    pub fn resize(
        &mut self,
        now: SimTime,
        cpus: u32,
        cal: &mut impl EventCalendar<Event>,
        cfg: &PlatformConfig,
    ) {
        if !self.alive {
            return;
        }
        self.allocated_cpus = cpus;
        self.ps.advance(now);
        self.ps.set_capacity(f64::from(cpus) * self.derate);
        // Growth may unblock queued work; shrink re-plans completions.
        self.drain(now, cal, cfg);
    }

    /// Applies (or, with `factor == 1.0`, clears) a straggler derating:
    /// the VM still advertises its allocated CPUs, but the PS queue only
    /// progresses at `factor` of them — a silent slowdown the controller
    /// can only observe through rising pressure.
    pub fn set_derate(
        &mut self,
        now: SimTime,
        factor: f64,
        cal: &mut impl EventCalendar<Event>,
        cfg: &PlatformConfig,
    ) {
        if !self.alive {
            return;
        }
        self.derate = factor.clamp(0.0, 1.0);
        self.ps.advance(now);
        self.ps
            .set_capacity(f64::from(self.allocated_cpus) * self.derate);
        self.drain(now, cal, cfg);
    }

    /// Records the 30-second eviction warning.
    pub fn warn(&mut self, now: SimTime) {
        if self.alive {
            self.warned = true;
            self.warned_at = Some(now);
        }
    }

    /// Tears the invoker down at eviction time, returning the work that
    /// dies with it.
    pub fn evict(&mut self, now: SimTime, cal: &mut impl EventCalendar<Event>) -> EvictedWork {
        if !self.alive {
            return EvictedWork::default();
        }
        self.alive = false;
        self.warned = false;
        self.warned_at = None;
        self.ps.advance(now);
        if let Some(ev) = self.completion_timer.take() {
            cal.cancel(ev);
        }
        self.armed = None;
        for c in self.containers.values() {
            if let Some(ev) = c.keepalive {
                cal.cancel(ev);
            }
            // Close the idle spans and charge speculative spawns that the
            // eviction kills before they ever served.
            if c.state == ContainerState::Idle {
                self.idle_mib_secs +=
                    now.saturating_since(c.last_used).as_secs_f64() * c.memory_mb as f64;
            }
            if c.prewarmed && c.served == 0 {
                self.wasted_prewarms += 1;
            }
        }
        self.prewarming.clear();
        self.prewarm_requests.clear();
        let mut started: Vec<RunningInvocation> =
            std::mem::take(&mut self.running).into_values().collect();
        for (_, invocation) in std::mem::take(&mut self.starting) {
            started.push(RunningInvocation {
                invocation,
                cold: true,
                exec_start: now,
            });
        }
        let queued = std::mem::take(&mut self.queue).into_iter().collect();
        self.starting_cap = 0.0;
        self.containers.clear();
        self.idle.clear();
        self.memory_used = 0;
        self.allocated_cpus = 0;
        self.derate = 1.0;
        self.ps = PsQueue::new(0.0);
        self.ps.advance(now);
        EvictedWork { started, queued }
    }

    /// The running record behind a container, if any.
    pub fn running_invocation(&self, cid: u64) -> Option<&RunningInvocation> {
        self.running.get(&cid)
    }

    /// Lists running invocations whose remaining demand exceeds
    /// `min_remaining_secs` — the migration candidates when the eviction
    /// warning arrives. Returns `(container, remaining_secs, memory_mb)`.
    pub fn migration_candidates(
        &mut self,
        now: SimTime,
        min_remaining_secs: f64,
    ) -> Vec<(u64, f64, u64)> {
        if !self.alive {
            return Vec::new();
        }
        self.ps.advance(now);
        self.running
            .iter()
            .filter_map(|(&cid, run)| {
                let remaining = self.ps.remaining(JobId(cid))?;
                if remaining / run.invocation.cpu_demand > min_remaining_secs {
                    Some((cid, remaining, run.invocation.memory_mb))
                } else {
                    None
                }
            })
            .collect()
    }

    /// Extracts a running invocation for migration: removes its job and
    /// container, returning the invocation state and remaining demand.
    /// Returns `None` if it already completed (or was never here).
    pub fn extract_running(
        &mut self,
        now: SimTime,
        cid: u64,
        cal: &mut impl EventCalendar<Event>,
    ) -> Option<(RunningInvocation, f64)> {
        if !self.alive {
            return None;
        }
        self.ps.advance(now);
        let remaining = self.ps.remaining(JobId(cid))?;
        if remaining <= 0.0 {
            // Finished while the transfer was in flight; the normal
            // completion path will deliver it.
            return None;
        }
        self.ps.remove(JobId(cid));
        let run = self.running.remove(&cid)?;
        let c = self
            .containers
            .remove(&cid)
            .expect("running container exists");
        debug_assert_eq!(c.state, ContainerState::Busy);
        self.memory_used -= c.memory_mb;
        self.rearm_completion(cal);
        Some((run, remaining))
    }

    /// Implants a migrated invocation: creates a busy container (making
    /// room if needed) and resumes the job with its remaining demand.
    /// Returns false — leaving the caller to fail the invocation — when
    /// memory cannot be freed.
    pub fn implant_running(
        &mut self,
        now: SimTime,
        run: RunningInvocation,
        remaining: f64,
        cal: &mut impl EventCalendar<Event>,
    ) -> bool {
        if !self.alive {
            return false;
        }
        self.ps.advance(now);
        if !self.make_room(now, run.invocation.memory_mb, cal) {
            return false;
        }
        let cid = self.container_id();
        self.containers.insert(
            cid,
            Container {
                id: cid,
                function: run.invocation.function,
                memory_mb: run.invocation.memory_mb,
                state: ContainerState::Busy,
                last_used: now,
                keepalive: None,
                prewarmed: false,
                served: 1,
            },
        );
        self.memory_used += run.invocation.memory_mb;
        self.ps
            .add(JobId(cid), remaining, run.invocation.cpu_demand);
        self.running.insert(cid, run);
        self.rearm_completion(cal);
        true
    }

    /// Re-arms the completion timer to the PS queue's next completion.
    ///
    /// Only touches the calendar when the next completion `(time, job)`
    /// actually differs from the armed one: an unchanged head means the
    /// pending timer is still correct and cancel + reschedule would be
    /// pure churn. This matters because `drain` — and through it every
    /// delivery and resize — ends here.
    fn rearm_completion(&mut self, cal: &mut impl EventCalendar<Event>) {
        match self.ps.next_completion() {
            Some(next) => {
                if self.completion_timer.is_some() && self.armed == Some(next) {
                    return;
                }
                if let Some(ev) = self.completion_timer.take() {
                    cal.cancel(ev);
                }
                self.completion_timer = Some(cal.schedule(
                    next.0,
                    Event::Completion {
                        invoker: self.index,
                    },
                ));
                self.armed = Some(next);
            }
            None => {
                if let Some(ev) = self.completion_timer.take() {
                    cal.cancel(ev);
                }
                self.armed = None;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hrv_trace::faas::AppId;
    use hrv_trace::time::SimDuration;
    use proptest::prelude::*;

    fn cfg() -> PlatformConfig {
        PlatformConfig {
            cold_start_delay: SimDuration::from_millis(500),
            cold_start_cpu_secs: 0.0,
            keep_alive: SimDuration::from_secs(60),
            ..PlatformConfig::default()
        }
    }

    fn inv(id: u64, app: u32, dur_secs: f64, mem: u64) -> Invocation {
        Invocation {
            id,
            function: FunctionId {
                app: AppId(app),
                func: 0,
            },
            arrival: SimTime::ZERO,
            duration: SimDuration::from_secs_f64(dur_secs),
            memory_mb: mem,
            cpu_demand: 1.0,
        }
    }

    fn fresh(cpus: u32, mem: u64) -> (InvokerState, hrv_sim::calendar::Calendar<Event>) {
        let mut iv = InvokerState::new(0, mem);
        let cal = hrv_sim::calendar::Calendar::new();
        iv.deploy(SimTime::ZERO, cpus);
        (iv, cal)
    }

    /// Drives the invoker's own timers until quiescent, returning all
    /// finished invocations. Ignores events addressed elsewhere.
    fn drive(
        iv: &mut InvokerState,
        cal: &mut impl EventCalendar<Event>,
        cfg: &PlatformConfig,
        until: SimTime,
    ) -> Vec<RunningInvocation> {
        let mut finished = Vec::new();
        while let Some(at) = cal.peek_time() {
            if at >= until {
                break;
            }
            let ev = cal.pop().unwrap();
            match ev.event {
                Event::StartupDone { container, .. } => iv.startup_done(ev.at, container, cal, cfg),
                Event::Completion { .. } => finished.extend(iv.completion_tick(ev.at, cal, cfg)),
                Event::KeepAliveExpired { container, .. } => {
                    iv.keepalive_expired(ev.at, container, cal);
                }
                Event::PrewarmReady { container, .. } => {
                    iv.prewarm_ready(ev.at, container, cal, cfg);
                }
                _ => {}
            }
        }
        finished
    }

    #[test]
    fn cold_then_warm_start() {
        let (mut iv, mut cal) = fresh(4, 4_096);
        let c = cfg();
        iv.deliver(SimTime::ZERO, inv(0, 1, 1.0, 256), &mut cal, &c);
        assert_eq!(iv.cold_starts, 1);
        let finished = drive(&mut iv, &mut cal, &c, SimTime::from_secs(10));
        assert_eq!(finished.len(), 1);
        assert!(finished[0].cold);
        // Second invocation of the same function reuses the container.
        iv.deliver(SimTime::from_secs(10), inv(1, 1, 1.0, 256), &mut cal, &c);
        assert_eq!(iv.warm_starts, 1);
        let finished = drive(&mut iv, &mut cal, &c, SimTime::from_secs(20));
        assert_eq!(finished.len(), 1);
        assert!(!finished[0].cold);
        assert_eq!(iv.container_count(), 1);
    }

    #[test]
    fn keep_alive_reaps_idle_containers() {
        let (mut iv, mut cal) = fresh(4, 4_096);
        let c = cfg();
        iv.deliver(SimTime::ZERO, inv(0, 1, 1.0, 256), &mut cal, &c);
        let _ = drive(&mut iv, &mut cal, &c, SimTime::from_secs(500));
        // Keep-alive (60 s) has long expired.
        assert_eq!(iv.container_count(), 0);
        assert_eq!(iv.snapshot().memory_used_mb, 0);
    }

    #[test]
    fn memory_pressure_evicts_lru_idle() {
        // Memory for exactly two 256 MiB containers.
        let (mut iv, mut cal) = fresh(8, 512);
        let c = cfg();
        iv.deliver(SimTime::ZERO, inv(0, 1, 0.5, 256), &mut cal, &c);
        let _ = drive(&mut iv, &mut cal, &c, SimTime::from_secs(5));
        iv.deliver(SimTime::from_secs(5), inv(1, 2, 0.5, 256), &mut cal, &c);
        let _ = drive(&mut iv, &mut cal, &c, SimTime::from_secs(10));
        assert_eq!(iv.container_count(), 2);
        // A third function forces out the LRU idle container (app 1).
        iv.deliver(SimTime::from_secs(10), inv(2, 3, 0.5, 256), &mut cal, &c);
        assert_eq!(iv.container_count(), 2);
        let _ = drive(&mut iv, &mut cal, &c, SimTime::from_secs(15));
        // App 1's container is gone: a new call to it cold-starts
        // (the fourth cold start, after apps 1, 2, and 3).
        iv.deliver(SimTime::from_secs(15), inv(3, 1, 0.5, 256), &mut cal, &c);
        assert_eq!(iv.cold_starts, 4);
    }

    #[test]
    fn admission_control_queues_under_pressure() {
        let (mut iv, mut cal) = fresh(2, 64 * 1024);
        let c = cfg();
        // Two 10-second jobs saturate 2 CPUs; the third waits.
        for i in 0..3 {
            iv.deliver(SimTime::ZERO, inv(i, i as u32, 10.0, 256), &mut cal, &c);
        }
        // Cold starts happen for the first two; third stays queued.
        assert_eq!(iv.cold_starts, 2);
        assert_eq!(iv.queue_len(), 1);
        let finished = drive(&mut iv, &mut cal, &c, SimTime::from_secs(60));
        assert_eq!(finished.len(), 3);
        assert_eq!(iv.queue_len(), 0);
    }

    #[test]
    fn contention_stretches_execution() {
        let (mut iv, mut cal) = fresh(1, 64 * 1024);
        let c = PlatformConfig {
            admission_pressure: 10.0, // let them contend
            cold_start_delay: SimDuration::ZERO,
            ..cfg()
        };
        // Two 1-core jobs of 2 s on 1 CPU: processor sharing finishes both
        // at ~4 s.
        iv.deliver(SimTime::ZERO, inv(0, 1, 2.0, 256), &mut cal, &c);
        iv.deliver(SimTime::ZERO, inv(1, 2, 2.0, 256), &mut cal, &c);
        let finished = drive(&mut iv, &mut cal, &c, SimTime::from_secs(60));
        assert_eq!(finished.len(), 2);
        assert_eq!(cal.now(), SimTime::from_secs(4));
    }

    #[test]
    fn resize_to_zero_stalls_and_recovery_resumes() {
        let (mut iv, mut cal) = fresh(2, 4_096);
        let c = cfg();
        iv.deliver(SimTime::ZERO, inv(0, 1, 2.0, 256), &mut cal, &c);
        // Let the cold start complete, then halt all CPUs at t=1.
        let _ = drive(&mut iv, &mut cal, &c, SimTime::from_secs(1));
        iv.resize(SimTime::from_secs(1), 0, &mut cal, &c);
        let finished = drive(&mut iv, &mut cal, &c, SimTime::from_secs(30));
        assert!(finished.is_empty(), "job finished with zero CPUs");
        // CPUs return at t=30: the job resumes and completes.
        iv.resize(SimTime::from_secs(30), 2, &mut cal, &c);
        let finished = drive(&mut iv, &mut cal, &c, SimTime::from_secs(60));
        assert_eq!(finished.len(), 1);
    }

    #[test]
    fn eviction_returns_all_work() {
        let (mut iv, mut cal) = fresh(1, 64 * 1024);
        let c = cfg();
        for i in 0..4 {
            iv.deliver(SimTime::ZERO, inv(i, i as u32, 30.0, 256), &mut cal, &c);
        }
        iv.warn(SimTime::from_secs(9));
        assert!(iv.snapshot().eviction_pending);
        let work = iv.evict(SimTime::from_secs(10), &mut cal);
        assert_eq!(work.started.len() + work.queued.len(), 4);
        assert!(!iv.alive);
        assert_eq!(iv.container_count(), 0);
        // Post-eviction timers are ignored gracefully.
        let finished = drive(&mut iv, &mut cal, &c, SimTime::from_secs(100));
        assert!(finished.is_empty());
    }

    #[test]
    fn stale_startup_after_eviction_is_counted_not_processed() {
        let (mut iv, mut cal) = fresh(1, 64 * 1024);
        let c = cfg();
        iv.deliver(SimTime::ZERO, inv(0, 1, 30.0, 256), &mut cal, &c);
        assert_eq!(iv.cold_starts, 1);
        // Evict before the 500 ms StartupDone fires.
        let work = iv.evict(SimTime::from_micros(100_000), &mut cal);
        assert_eq!(work.started.len(), 1);
        assert_eq!(iv.dropped_completions, 0);
        let finished = drive(&mut iv, &mut cal, &c, SimTime::from_secs(100));
        assert!(finished.is_empty());
        // The stale StartupDone was dropped and accounted.
        assert_eq!(iv.dropped_completions, 1);
    }

    #[test]
    fn derate_slows_execution_but_not_the_advertised_cpus() {
        let (mut iv, mut cal) = fresh(4, 4_096);
        let c = PlatformConfig {
            cold_start_delay: SimDuration::ZERO,
            admission_pressure: 10.0, // let jobs contend
            ..cfg()
        };
        // Two 4-second 1-core jobs on 4 CPUs would finish at t=4 each;
        // derated to a quarter (1 effective core, GPS share 0.5 each)
        // they finish at t=8.
        iv.deliver(SimTime::ZERO, inv(0, 1, 4.0, 256), &mut cal, &c);
        iv.deliver(SimTime::ZERO, inv(1, 2, 4.0, 256), &mut cal, &c);
        iv.set_derate(SimTime::ZERO, 0.25, &mut cal, &c);
        // Advertised CPUs are unchanged; only effective capacity drops.
        assert_eq!(iv.snapshot().cpus, 4);
        assert_eq!(iv.cpus(), 4);
        // Bound the drive short of the keep-alive expiries so `cal.now()`
        // lands on the last completion.
        let finished = drive(&mut iv, &mut cal, &c, SimTime::from_secs(9));
        assert_eq!(finished.len(), 2);
        assert_eq!(cal.now(), SimTime::from_secs(8));
        // Clearing the derate restores full speed for the next pair.
        iv.set_derate(SimTime::from_secs(10), 1.0, &mut cal, &c);
        iv.deliver(SimTime::from_secs(10), inv(2, 1, 4.0, 256), &mut cal, &c);
        iv.deliver(SimTime::from_secs(10), inv(3, 2, 4.0, 256), &mut cal, &c);
        let finished = drive(&mut iv, &mut cal, &c, SimTime::from_secs(15));
        assert_eq!(finished.len(), 2);
        assert_eq!(cal.now(), SimTime::from_secs(14));
    }

    #[test]
    fn snapshot_reports_state() {
        let (mut iv, mut cal) = fresh(4, 4_096);
        let c = cfg();
        iv.deliver(SimTime::ZERO, inv(0, 1, 5.0, 512), &mut cal, &c);
        let snap = iv.snapshot();
        assert_eq!(snap.cpus, 4);
        assert_eq!(snap.memory_used_mb, 512);
        assert!(!snap.eviction_pending);
    }

    #[test]
    fn oversized_invocation_never_starts() {
        let (mut iv, mut cal) = fresh(4, 256);
        let c = cfg();
        iv.deliver(SimTime::ZERO, inv(0, 1, 1.0, 512), &mut cal, &c);
        assert_eq!(iv.cold_starts, 0);
        assert_eq!(iv.queue_len(), 1);
    }

    fn fid(app: u32) -> FunctionId {
        FunctionId {
            app: AppId(app),
            func: 0,
        }
    }

    #[test]
    fn prewarm_spawns_parks_idle_and_serves_warm() {
        let (mut iv, mut cal) = fresh(4, 4_096);
        let c = cfg();
        assert!(iv.start_prewarm(
            SimTime::ZERO,
            fid(7),
            256,
            SimDuration::from_secs(120),
            &mut cal,
            &c
        ));
        assert_eq!(iv.prewarm_spawns, 1);
        assert_eq!(iv.snapshot().memory_used_mb, 256);
        // After the cold-start delay the container parks idle.
        let _ = drive(&mut iv, &mut cal, &c, SimTime::from_secs(1));
        assert_eq!(iv.container_count(), 1);
        // The next invocation of that function warm-starts on it.
        iv.deliver(SimTime::from_secs(1), inv(0, 7, 1.0, 256), &mut cal, &c);
        assert_eq!(iv.cold_starts, 0);
        assert_eq!(iv.warm_starts, 1);
        assert_eq!(iv.prewarm_hits, 1);
        let finished = drive(&mut iv, &mut cal, &c, SimTime::from_secs(10));
        assert_eq!(finished.len(), 1);
        assert!(!finished[0].cold);
    }

    #[test]
    fn prewarm_skipped_when_function_already_warm() {
        let (mut iv, mut cal) = fresh(4, 4_096);
        let c = cfg();
        iv.deliver(SimTime::ZERO, inv(0, 7, 1.0, 256), &mut cal, &c);
        let _ = drive(&mut iv, &mut cal, &c, SimTime::from_secs(10));
        assert_eq!(iv.container_count(), 1);
        // The idle container makes the order moot.
        assert!(!iv.start_prewarm(
            SimTime::from_secs(10),
            fid(7),
            256,
            SimDuration::from_secs(120),
            &mut cal,
            &c
        ));
        assert_eq!(iv.prewarm_spawns, 0);
    }

    #[test]
    fn prewarmed_idle_container_is_an_lru_victim() {
        // Memory for exactly two 256 MiB containers.
        let (mut iv, mut cal) = fresh(8, 512);
        let c = cfg();
        assert!(iv.start_prewarm(
            SimTime::ZERO,
            fid(9),
            256,
            SimDuration::from_secs(600),
            &mut cal,
            &c
        ));
        let _ = drive(&mut iv, &mut cal, &c, SimTime::from_secs(1));
        // Two real invocations need both slots: the never-used prewarm
        // is reaped first and counted wasted; memory accounting stays
        // conserved.
        iv.deliver(SimTime::from_secs(1), inv(0, 1, 5.0, 256), &mut cal, &c);
        iv.deliver(SimTime::from_secs(1), inv(1, 2, 5.0, 256), &mut cal, &c);
        assert_eq!(iv.container_count(), 2);
        assert_eq!(iv.snapshot().memory_used_mb, 512);
        assert_eq!(iv.wasted_prewarms, 1);
        assert_eq!(iv.prewarm_hits, 0);
        let finished = drive(&mut iv, &mut cal, &c, SimTime::from_secs(30));
        assert_eq!(finished.len(), 2);
    }

    #[test]
    fn prewarm_ttl_expiry_reaps_and_counts_waste() {
        let (mut iv, mut cal) = fresh(4, 4_096);
        let c = cfg();
        assert!(iv.start_prewarm(
            SimTime::ZERO,
            fid(3),
            256,
            SimDuration::from_secs(30),
            &mut cal,
            &c
        ));
        let _ = drive(&mut iv, &mut cal, &c, SimTime::from_secs(300));
        assert_eq!(iv.container_count(), 0);
        assert_eq!(iv.snapshot().memory_used_mb, 0);
        assert_eq!(iv.wasted_prewarms, 1);
        // ~30 s idle at 256 MiB (cold start ate the first 500 ms).
        assert!(iv.idle_mib_secs > 0.0);
    }

    #[test]
    fn eviction_with_inflight_prewarm_strands_nothing() {
        let (mut iv, mut cal) = fresh(4, 4_096);
        let c = cfg();
        assert!(iv.start_prewarm(
            SimTime::ZERO,
            fid(3),
            256,
            SimDuration::from_secs(120),
            &mut cal,
            &c
        ));
        // Evict before PrewarmReady fires.
        let work = iv.evict(SimTime::from_micros(100_000), &mut cal);
        assert!(work.started.is_empty() && work.queued.is_empty());
        assert_eq!(iv.snapshot().memory_used_mb, 0);
        assert_eq!(iv.wasted_prewarms, 1);
        // The stale PrewarmReady is dropped and accounted, not processed.
        let _ = drive(&mut iv, &mut cal, &c, SimTime::from_secs(100));
        assert_eq!(iv.dropped_completions, 1);
        assert_eq!(iv.container_count(), 0);
    }

    #[test]
    fn null_policy_reaps_on_idle_but_reuses_same_tick() {
        let (mut iv, mut cal) = fresh(4, 4_096);
        let c = cfg();
        iv.set_policy(hrv_policy::ColdStartConfig::Null.build());
        iv.deliver(SimTime::ZERO, inv(0, 1, 1.0, 256), &mut cal, &c);
        let finished = drive(&mut iv, &mut cal, &c, SimTime::from_secs(10));
        assert_eq!(finished.len(), 1);
        // No keep-alive: the container is gone the moment it idles.
        assert_eq!(iv.container_count(), 0);
        assert_eq!(iv.snapshot().memory_used_mb, 0);
        // And the next call cold-starts again.
        iv.deliver(SimTime::from_secs(10), inv(1, 1, 1.0, 256), &mut cal, &c);
        assert_eq!(iv.cold_starts, 2);
    }

    #[test]
    fn warm_reuse_picks_the_lowest_idle_container_id() {
        let (mut iv, mut cal) = fresh(8, 64 * 1024);
        let c = PlatformConfig {
            admission_pressure: 10.0,
            ..cfg()
        };
        // Three concurrent calls of one function cold-start containers
        // 0, 1 and 2; they go idle in the order 2, 0, 1.
        for (i, dur) in [3.0, 5.0, 1.0].into_iter().enumerate() {
            iv.deliver(SimTime::ZERO, inv(i as u64, 5, dur, 256), &mut cal, &c);
        }
        let finished = drive(&mut iv, &mut cal, &c, SimTime::from_secs(10));
        assert_eq!(finished.len(), 3);
        // The next call reuses container 0: neither the most recently
        // idled (1) nor the first to idle (2).
        iv.deliver(SimTime::from_secs(10), inv(3, 5, 1.0, 256), &mut cal, &c);
        assert_eq!(iv.warm_starts, 1);
        assert!(iv.running_invocation(0).is_some());
        assert!(iv.running_invocation(1).is_none() && iv.running_invocation(2).is_none());
    }

    /// The idle index as a scan of the id-ordered container pool builds
    /// it: the reference the incremental index must always equal.
    fn idle_by_scan(iv: &InvokerState) -> BTreeMap<FunctionId, Vec<u64>> {
        let mut groups: BTreeMap<FunctionId, Vec<u64>> = BTreeMap::new();
        for c in iv.containers.values() {
            if c.state == ContainerState::Idle {
                groups.entry(c.function).or_default().push(c.id);
            }
        }
        groups
    }

    /// The index's groups as stored, empty ones included.
    fn idle_by_index(iv: &InvokerState) -> BTreeMap<FunctionId, Vec<u64>> {
        let groups = iv.idle.by_function.iter();
        groups.map(|(&f, ids)| (f, ids.clone())).collect()
    }

    /// One step of the idle-index property test.
    #[derive(Debug, Clone, Copy)]
    enum Op {
        /// Deliver a call of function `app` (of a handful).
        Deliver { app: u32, dur_ms: u64, mem: u64 },
        /// Advance the invoker's own timers by `ms` (completions,
        /// startups, prewarm readiness, keep-alive expiry).
        Advance { ms: u64 },
        /// A policy's prewarm order for `app`.
        Prewarm { app: u32, ttl_s: u64 },
        /// Migrate the `pick`-th running invocation out and back in.
        Migrate { pick: usize },
        /// Harvest CPU resize.
        Resize { cpus: u32 },
        /// VM eviction, then a fresh deploy.
        Evict,
    }

    fn op() -> impl Strategy<Value = Op> {
        prop_oneof![
            6 => (0u32..6, 100u64..4_000, 1u64..4).prop_map(|(app, dur_ms, m)| Op::Deliver {
                app,
                dur_ms,
                mem: m * 256,
            }),
            6 => (1u64..5_000).prop_map(|ms| Op::Advance { ms }),
            2 => (0u32..6, 1u64..20).prop_map(|(app, ttl_s)| Op::Prewarm { app, ttl_s }),
            1 => (0usize..8).prop_map(|pick| Op::Migrate { pick }),
            1 => (0u32..6).prop_map(|cpus| Op::Resize { cpus }),
            1 => (0u32..1).prop_map(|_| Op::Evict),
        ]
    }

    proptest! {
        /// Random deliver / complete / keep-alive expiry / memory
        /// pressure / prewarm / migrate / evict sequences: after every
        /// step the idle index equals a scan of the container pool, under
        /// each keep-alive policy (fixed TTL, reap-on-idle, bounded pool).
        #[test]
        fn idle_index_matches_a_scan_of_the_pool(
            ops in prop::collection::vec(op(), 1..120),
            policy in 0u32..3,
        ) {
            // 1 GiB holds four 256 MiB containers: deliveries routinely
            // reap idle ones to make room. A 3 s keep-alive expires
            // within a few Advance steps.
            let (mut iv, mut cal) = fresh(4, 1_024);
            let c = PlatformConfig {
                keep_alive: SimDuration::from_secs(3),
                ..cfg()
            };
            match policy {
                1 => iv.set_policy(hrv_policy::ColdStartConfig::Null.build()),
                2 => iv.set_policy(
                    hrv_policy::ColdStartConfig::WarmPool(hrv_policy::WarmPoolConfig::default())
                        .build(),
                ),
                _ => {}
            }
            let mut now = SimTime::ZERO;
            for (step, op) in ops.into_iter().enumerate() {
                match op {
                    Op::Deliver { app, dur_ms, mem } => {
                        let call = Invocation {
                            duration: SimDuration::from_millis(dur_ms),
                            ..inv(step as u64, app, 0.0, mem)
                        };
                        iv.deliver(now, call, &mut cal, &c);
                    }
                    Op::Advance { ms } => {
                        let until = now + SimDuration::from_millis(ms);
                        drive(&mut iv, &mut cal, &c, until);
                        now = until;
                    }
                    Op::Prewarm { app, ttl_s } => {
                        let ttl = SimDuration::from_secs(ttl_s);
                        iv.start_prewarm(now, fid(app), 256, ttl, &mut cal, &c);
                    }
                    Op::Migrate { pick } => {
                        let cid = iv.running.keys().nth(pick).copied();
                        if let Some(cid) = cid {
                            if let Some((run, remaining)) = iv.extract_running(now, cid, &mut cal) {
                                iv.implant_running(now, run, remaining, &mut cal);
                            }
                        }
                    }
                    Op::Resize { cpus } => iv.resize(now, cpus, &mut cal, &c),
                    Op::Evict => {
                        iv.evict(now, &mut cal);
                        iv.deploy(now, 4);
                    }
                }
                let (index, scan) = (idle_by_index(&iv), idle_by_scan(&iv));
                prop_assert_eq!(index, scan, "after step {} ({:?})", step, op);
            }
        }
    }

    #[test]
    fn warm_pool_bounds_idle_containers_per_function() {
        let (mut iv, mut cal) = fresh(8, 64 * 1024);
        let c = PlatformConfig {
            admission_pressure: 10.0,
            ..cfg()
        };
        iv.set_policy(
            hrv_policy::ColdStartConfig::WarmPool(hrv_policy::WarmPoolConfig::default()).build(),
        );
        // Three concurrent calls of one function: three containers, but
        // only one may stay pooled once they all finish.
        for i in 0..3 {
            iv.deliver(SimTime::ZERO, inv(i, 5, 1.0, 256), &mut cal, &c);
        }
        let finished = drive(&mut iv, &mut cal, &c, SimTime::from_secs(30));
        assert_eq!(finished.len(), 3);
        assert_eq!(iv.container_count(), 1);
        assert_eq!(iv.snapshot().memory_used_mb, 256);
    }
}
