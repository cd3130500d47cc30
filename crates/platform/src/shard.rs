//! Deterministic sharded simulation: per-shard timer wheels advanced in
//! conservative-lookahead rounds.
//!
//! # Rounds
//!
//! The platform's minimum cross-entity message delay is one bus hop
//! (`PlatformConfig::bus_latency`, written Δ below); every envelope a
//! world emits is validated against it. That bound yields a grid-free
//! conservative-lookahead schedule:
//!
//! 1. Each shard publishes `local_next`, the earliest thing it knows
//!    about — its calendar head or its earliest pending envelope.
//! 2. The leader computes `global_next = min(local_next)` and the round
//!    window `stop = min(global_next + Δ, horizon)`.
//! 3. Each shard injects pending envelopes due before `stop` into its
//!    calendar (in canonical envelope order) and runs events up to
//!    `stop`, collecting newly produced envelopes.
//! 4. Envelopes are routed to their target shards; barrier; repeat.
//!
//! Safety: every event processed in a round sits at `τ ≥ global_next`,
//! so any envelope it emits is due at `τ + Δ ≥ stop` — never inside the
//! current window. Conversely, every envelope due before `stop` was
//! produced in an earlier round and is already pending when the window
//! opens. No shard ever hears about its past.
//!
//! # Shard-count invariance
//!
//! Round boundaries depend only on global minima, so they are identical
//! for every shard count; envelopes are injected in the canonical
//! `(deliver_at, sender, seq)` order and each entity's local schedule
//! order is its own; same-instant events of *different* entities touch
//! disjoint state and commute in everything the run reports (records are
//! canonically re-sorted, counters are sums). The single-shard
//! [`run_rounds`] below is the same algorithm without threads — it backs
//! `Simulation::run`, which is why `S = 1` matches the unsharded
//! simulation byte for byte. A one-shard [`ShardedSimulation`] runs
//! [`run_rounds`] in the calling thread too; the threaded
//! `shard_worker` only runs for `S ≥ 2`.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Barrier, Mutex};

use hrv_fault::FaultPlan;
use hrv_lb::owner_of;
use hrv_lb::policy::PolicyKind;
use hrv_sim::calendar::{Calendar, EventCalendar};
use hrv_sim::engine::{run_until, RunStats, StopReason};
use hrv_trace::faas::Invocation;
use hrv_trace::stream::{ArrivalStream, SortedTraceStream};
use hrv_trace::time::{SimDuration, SimTime};

use crate::config::PlatformConfig;
use crate::event::Event;
use crate::mailbox::{Envelope, ShardPlan};
use crate::world::{ClusterSpec, PlatformWorld, SimOutput};

/// Min-heap of pending envelopes in canonical order.
type PendingHeap = BinaryHeap<Reverse<Envelope>>;

/// Moves every pending envelope due before `stop` into the calendar.
/// The heap pops in canonical `(deliver_at, sender, seq)` order, so
/// same-instant envelopes are also *scheduled* (and hence delivered) in
/// that order regardless of which shard contributed them.
fn inject_due<C: EventCalendar<Event>>(pending: &mut PendingHeap, cal: &mut C, stop: SimTime) {
    while pending.peek().is_some_and(|e| e.0.deliver_at < stop) {
        let env = pending.pop().expect("peeked").0;
        cal.schedule(env.deliver_at, env.event);
    }
}

/// The earliest instant a shard knows about: its calendar head or its
/// earliest pending envelope, as raw microseconds (`u64::MAX` = nothing).
fn local_next<C: EventCalendar<Event>>(cal: &mut C, pending: &PendingHeap) -> u64 {
    let cal_next = cal.peek_time().map(SimTime::as_micros);
    let env_next = pending.peek().map(|e| e.0.deliver_at.as_micros());
    match (cal_next, env_next) {
        (None, None) => u64::MAX,
        (Some(t), None) | (None, Some(t)) => t,
        (Some(a), Some(b)) => a.min(b),
    }
}

/// Stops a shard's driver: the envelopes still pending for its world
/// (and, after an event-budget stop, any the world has not yet handed
/// over) are shown to the world, so censoring at the horizon knows which
/// invocations already finished with their report still on the bus.
fn stop_shard(
    world: &mut PlatformWorld,
    mut pending: PendingHeap,
    events: u64,
    end_time: SimTime,
    reason: StopReason,
) -> RunStats {
    pending.extend(world.take_outbox().into_iter().map(Reverse));
    world.note_undelivered(pending.iter().map(|e| &e.0));
    RunStats {
        events,
        end_time,
        reason,
    }
}

/// Drives one solo-plan world to `end` in lookahead rounds, pumping its
/// outbox back into its own calendar. This is the engine of
/// `Simulation::run` and of a 1-shard `ShardedSimulation`: identical
/// round boundaries and injection order to the threaded driver, which is
/// what makes every shard count byte-identical to the plain simulation.
pub fn run_rounds<C: EventCalendar<Event>>(
    world: &mut PlatformWorld,
    cal: &mut C,
    end: SimTime,
    max_events: u64,
) -> RunStats {
    assert_eq!(
        world.plan().shards,
        1,
        "run_rounds drives solo worlds; sharded worlds go through ShardedSimulation"
    );
    let delta = world.cfg().bus_latency;
    let mut pending: PendingHeap = BinaryHeap::new();
    let mut events = 0u64;
    loop {
        for env in world.take_outbox() {
            pending.push(Reverse(env));
        }
        let next = local_next(cal, &pending);
        if next == u64::MAX {
            return stop_shard(world, pending, events, cal.now(), StopReason::Drained);
        }
        if next >= end.as_micros() {
            return stop_shard(world, pending, events, cal.now(), StopReason::ReachedEnd);
        }
        let stop = SimTime::from_micros(next).saturating_add(delta).min(end);
        inject_due(&mut pending, cal, stop);
        let stats = run_until(world, cal, stop, max_events - events);
        events += stats.events;
        if matches!(stats.reason, StopReason::EventBudget) {
            return stop_shard(
                world,
                pending,
                events,
                stats.end_time,
                StopReason::EventBudget,
            );
        }
    }
}

/// Leader verdict for one round, published through an atomic.
const ROUND_RUN: u8 = 0;
const ROUND_DRAINED: u8 = 1;
const ROUND_REACHED_END: u8 = 2;

/// One shard's worker loop: the threaded counterpart of [`run_rounds`],
/// synchronized with its peers by three barrier waits per round — after
/// publishing `local_next`, after the leader fixes the window, and after
/// routing outboxes (so no shard drains an inbox a peer is still filling).
#[allow(clippy::too_many_arguments)]
fn shard_worker(
    s: usize,
    shards: u32,
    world: &mut PlatformWorld,
    cal: &mut Calendar<Event>,
    end: SimTime,
    delta: SimDuration,
    inboxes: &[Mutex<Vec<Envelope>>],
    nexts: &[AtomicU64],
    stop_us: &AtomicU64,
    verdict: &AtomicU8,
    barrier: &Barrier,
) -> RunStats {
    let mut pending: PendingHeap = BinaryHeap::new();
    let mut events = 0u64;
    loop {
        for env in std::mem::take(&mut *inboxes[s].lock().expect("inbox poisoned")) {
            pending.push(Reverse(env));
        }
        nexts[s].store(local_next(cal, &pending), Ordering::SeqCst);
        barrier.wait();
        if s == 0 {
            let global_next = nexts
                .iter()
                .map(|a| a.load(Ordering::SeqCst))
                .min()
                .expect("at least one shard");
            if global_next == u64::MAX {
                verdict.store(ROUND_DRAINED, Ordering::SeqCst);
            } else if global_next >= end.as_micros() {
                verdict.store(ROUND_REACHED_END, Ordering::SeqCst);
            } else {
                let stop = SimTime::from_micros(global_next)
                    .saturating_add(delta)
                    .min(end);
                stop_us.store(stop.as_micros(), Ordering::SeqCst);
                verdict.store(ROUND_RUN, Ordering::SeqCst);
            }
        }
        barrier.wait();
        let reason = match verdict.load(Ordering::SeqCst) {
            ROUND_DRAINED => Some(StopReason::Drained),
            ROUND_REACHED_END => Some(StopReason::ReachedEnd),
            _ => None,
        };
        if let Some(reason) = reason {
            return stop_shard(world, pending, events, cal.now(), reason);
        }
        let stop = SimTime::from_micros(stop_us.load(Ordering::SeqCst));
        inject_due(&mut pending, cal, stop);
        let stats = run_until(world, cal, stop, u64::MAX);
        events += stats.events;
        for env in world.take_outbox() {
            let target = ShardPlan::shard_of(shards, env.target) as usize;
            inboxes[target].lock().expect("inbox poisoned").push(env);
        }
        barrier.wait();
    }
}

/// A simulation partitioned into `S` shards, each owning a disjoint slice
/// of the invokers and hosting the controller replicas assigned to it
/// (replica `r` lives on shard `r mod S`; replica 0 — the whole
/// controller when `sharding.replicas == 1` — on shard 0), with its own
/// timer-wheel calendar, run on `S` worker threads (a single shard runs
/// in the calling thread). Each shard consumes
/// the arrivals its hosted replicas own directly — no hop through
/// shard 0. Records, event counts, and start counters are byte-identical
/// for every shard count; streaming float aggregates merge via
/// parallel-Welford and may differ in final bits. Live migration and
/// utilization sampling are envelope-based (owner-resolved migration,
/// per-invoker sample rows coalesced after the merge), so they run at
/// any shard count.
pub struct ShardedSimulation {
    worlds: Vec<PlatformWorld>,
    cals: Vec<Calendar<Event>>,
    shards: u32,
}

impl ShardedSimulation {
    /// Builds a sharded simulation over `shards` partitions.
    pub fn new(
        spec: ClusterSpec,
        workload: Vec<Invocation>,
        policy: PolicyKind,
        cfg: PlatformConfig,
        seed: u64,
        shards: u32,
    ) -> Self {
        ShardedSimulation::with_faults(spec, workload, policy, cfg, seed, FaultPlan::none(), shards)
    }

    /// [`ShardedSimulation::new`] plus an injected fault plan; each shard
    /// seeds only the faults aimed at entities it owns.
    pub fn with_faults(
        spec: ClusterSpec,
        mut workload: Vec<Invocation>,
        policy: PolicyKind,
        cfg: PlatformConfig,
        seed: u64,
        faults: FaultPlan,
        shards: u32,
    ) -> Self {
        assert!(shards >= 1, "need at least one shard");
        let replicas = cfg.sharding.replicas;
        let mut worlds = Vec::with_capacity(shards as usize);
        let mut cals = Vec::with_capacity(shards as usize);
        for s in 0..shards {
            let mut cal = Calendar::new();
            let plan = ShardPlan::new(s, shards);
            // Each shard consumes exactly the arrivals whose owning
            // replica it hosts (all of them when `replicas == 1` and
            // `s == 0` — the classic single-controller layout). A single
            // shard owns every replica and takes the trace as it is.
            let owned: Vec<Invocation> = if shards == 1 {
                std::mem::take(&mut workload)
            } else {
                workload
                    .iter()
                    .filter(|inv| plan.owns_replica(owner_of(replicas, inv.function)))
                    .cloned()
                    .collect()
            };
            let stream: Box<dyn ArrivalStream> = Box::new(SortedTraceStream::new(owned));
            let world = PlatformWorld::from_stream_sharded_in(
                spec.clone(),
                stream,
                policy.build(),
                cfg.clone(),
                seed,
                faults.clone(),
                plan,
                &mut cal,
            );
            worlds.push(world);
            cals.push(cal);
        }
        ShardedSimulation {
            worlds,
            cals,
            shards,
        }
    }

    /// Runs all shards to `horizon` and merges their outputs. A single
    /// shard runs [`run_rounds`] in the calling thread; more shards run
    /// one worker thread each.
    pub fn run(mut self, horizon: SimDuration) -> SimOutput {
        let end = SimTime::ZERO + horizon;
        if self.shards == 1 {
            let (mut world, mut cal) = (self.worlds.remove(0), self.cals.remove(0));
            let run = run_rounds(&mut world, &mut cal, end, u64::MAX);
            return merge_outputs(vec![(world, run)]);
        }
        let shards = self.shards;
        let n = shards as usize;
        let delta = self.worlds[0].cfg().bus_latency;
        let inboxes: Vec<Mutex<Vec<Envelope>>> = (0..n).map(|_| Mutex::new(Vec::new())).collect();
        let nexts: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(u64::MAX)).collect();
        let stop_us = AtomicU64::new(0);
        let verdict = AtomicU8::new(ROUND_RUN);
        let barrier = Barrier::new(n);
        let worlds = self.worlds;
        let cals = self.cals;
        let results: Vec<(PlatformWorld, RunStats)> = std::thread::scope(|scope| {
            let handles: Vec<_> = worlds
                .into_iter()
                .zip(cals)
                .enumerate()
                .map(|(s, (world, cal))| {
                    let (inboxes, nexts) = (&inboxes, &nexts);
                    let (stop_us, verdict, barrier) = (&stop_us, &verdict, &barrier);
                    scope.spawn(move || {
                        let (mut world, mut cal) = (world, cal);
                        let stats = shard_worker(
                            s, shards, &mut world, &mut cal, end, delta, inboxes, nexts, stop_us,
                            verdict, barrier,
                        );
                        (world, stats)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("shard worker panicked"))
                .collect()
        });
        merge_outputs(results)
    }
}

/// Finishes a run: merges per-shard worlds (one, for a solo run) into
/// one [`SimOutput`]. Every shard censors whatever its hosted replicas
/// still have in flight at the latest shard clock (flushing its
/// replica-occupancy rows on the way out), then shard 0 absorbs every
/// peer's metrics; counters are sums, records re-sort into canonical
/// order, and buffered per-invoker utilization rows coalesce inside
/// `canonicalize_records`.
pub(crate) fn merge_outputs(results: Vec<(PlatformWorld, RunStats)>) -> SimOutput {
    let events: u64 = results.iter().map(|(_, r)| r.events).sum();
    let end_time = results
        .iter()
        .map(|(_, r)| r.end_time)
        .max()
        .expect("at least one shard");
    let reason = results[0].1.reason;
    let mut worlds: Vec<PlatformWorld> = results.into_iter().map(|(w, _)| w).collect();
    for w in &mut worlds {
        w.censor_remaining(end_time);
    }
    let mut w0 = worlds.remove(0);
    let mut cold_starts = w0.total_cold_starts();
    let mut warm_starts = w0.total_warm_starts();
    let mut dropped = w0.total_dropped_completions();
    let mut prewarm_spawns = w0.total_prewarm_spawns();
    let mut prewarm_hits = w0.total_prewarm_hits();
    let mut wasted_prewarms = w0.total_wasted_prewarms();
    let mut idle_mib_secs = w0.total_idle_mib_secs();
    for w in worlds {
        cold_starts += w.total_cold_starts();
        warm_starts += w.total_warm_starts();
        dropped += w.total_dropped_completions();
        prewarm_spawns += w.total_prewarm_spawns();
        prewarm_hits += w.total_prewarm_hits();
        wasted_prewarms += w.total_wasted_prewarms();
        idle_mib_secs += w.total_idle_mib_secs();
        let mut peer = w;
        let peer_metrics = std::mem::take(&mut peer.metrics);
        w0.metrics.merge(peer_metrics);
        w0.tel
            .recorder
            .merge(std::mem::take(&mut peer.tel.recorder));
    }
    w0.metrics.dropped_completions = dropped;
    w0.metrics
        .set_coldstart_totals(prewarm_spawns, prewarm_hits, wasted_prewarms, idle_mib_secs);
    w0.metrics.canonicalize_records();
    SimOutput {
        cold_starts,
        warm_starts,
        recorder: std::mem::take(&mut w0.tel.recorder),
        collector: std::mem::take(&mut w0.metrics),
        run: RunStats {
            events,
            end_time,
            reason,
        },
    }
}
