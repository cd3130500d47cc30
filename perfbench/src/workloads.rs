//! The benchmark workloads. Each is generated from one seed with
//! the `hrv-trace` generators and handed to the platform only as
//! inputs: a cluster, an invocation trace and a configuration.

use hrv_platform::config::{ColdStartConfig, PlatformConfig, VmTemplate};
use hrv_platform::mailbox::{invoker_entity, REPLICA_BASE};
use hrv_platform::world::ClusterSpec;
use hrv_platform::{SimOutput, TelemetryConfig};
use hrv_trace::faas::{Invocation, Workload as AppMix, WorkloadSpec};
use hrv_trace::harvest::{active_cluster, CpuChangeModel, VmEnd, VmTrace};
use hrv_trace::rng::SeedFactory;
use hrv_trace::time::{SimDuration, SimTime};
use rand::RngExt;

/// Memory of every harvest VM in the benchmark fleets.
const VM_MEMORY_MB: u64 = 32 * 1024;

/// Initial invokers of `fleet_churn`.
const CHURN_FLEET: usize = 320;

/// A named benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// A warm single-controller dispatch loop with no churn (the control
    /// workload).
    SteadyDispatch,
    /// Membership and CPU churn with recovery, the monitor, the hybrid
    /// cold-start policy and the flight recorder.
    FleetChurn,
}

/// Everything one run of a workload consumes.
pub struct Inputs {
    pub cluster: ClusterSpec,
    pub trace: Vec<Invocation>,
    pub cfg: PlatformConfig,
    /// Simulated run length: arrivals plus the drain.
    pub horizon: SimDuration,
    /// Arrivals before this instant are warm-up and are not scored.
    pub warmup: SimTime,
}

impl Workload {
    pub const ALL: [Workload; 2] = [Workload::SteadyDispatch, Workload::FleetChurn];

    pub fn name(self) -> &'static str {
        match self {
            Workload::SteadyDispatch => "steady_dispatch",
            Workload::FleetChurn => "fleet_churn",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Generates the workload's inputs from `seed`.
    pub fn generate(self, seed: u64) -> Inputs {
        let seeds = SeedFactory::new(seed);
        match self {
            Workload::SteadyDispatch => steady_dispatch(&seeds),
            Workload::FleetChurn => fleet_churn(&seeds),
        }
    }

    /// Checks that a run exercised the mechanisms the workload exists for.
    pub fn check_purpose(self, out: &SimOutput) -> Result<(), String> {
        let c = &out.collector;
        let need = |ok: bool, what: &str| {
            if ok {
                Ok(())
            } else {
                Err(format!("{}: {what}", self.name()))
            }
        };
        match self {
            Workload::SteadyDispatch => need(c.vm_evictions == 0, "the control fleet lost a VM"),
            Workload::FleetChurn => {
                need(c.vm_evictions > 0, "no VM was evicted")?;
                need(
                    c.streaming.redispatches > 0,
                    "recovery re-dispatched nothing",
                )?;
                need(
                    c.streaming.prewarm_spawns > 0,
                    "the hybrid policy prewarmed nothing",
                )?;
                need(
                    out.recorder.len() as u64 + out.recorder.dropped() > 0,
                    "the flight recorder saw no spans",
                )?;
                // Monitor-spawned invokers take slots past the initial
                // fleet; their spans show that one came up and worked.
                let first_spawned = invoker_entity(CHURN_FLEET as u32);
                need(
                    out.recorder
                        .canonical_events()
                        .iter()
                        .any(|e| (first_spawned..REPLICA_BASE).contains(&e.entity)),
                    "no monitor-spawned invoker did any work",
                )
            }
        }
    }
}

/// F_large-shaped arrivals: `apps` applications at `rps` for `len`.
fn arrivals(seeds: &SeedFactory, apps: usize, rps: f64, len: SimDuration) -> Vec<Invocation> {
    let spec = WorkloadSpec::paper_flarge_scaled(apps).scaled(apps, rps);
    AppMix::generate(&spec, &seeds.child("apps")).invocations(len, &seeds.child("arrivals"))
}

/// 200 harvest invokers (4–12 CPUs, paper-calibrated changes) under a
/// 2 000-app F_large-shaped mix at 600 req/s (about half the fleet's
/// CPUs) for the paper's 20-minute run, one controller, fixed
/// keep-alive, telemetry off.
fn steady_dispatch(seeds: &SeedFactory) -> Inputs {
    let arrive = SimDuration::from_mins(20);
    let horizon = arrive + SimDuration::from_mins(3);
    let trace = arrivals(seeds, 2_000, 600.0, arrive);
    let model = CpuChangeModel::paper_calibrated();
    let vms = (0..200u64)
        .map(|i| {
            let mut rng = seeds.stream_indexed("steady-vm", i);
            let initial = rng.random_range(4..=12u32);
            let end = SimTime::ZERO + horizon;
            let cpu_changes = model.generate(&mut rng, SimTime::ZERO, end, 4, 12, initial);
            VmTrace {
                deploy: SimTime::ZERO,
                end,
                ended: VmEnd::Censored,
                base_cpus: 4,
                max_cpus: 12,
                initial_cpus: initial,
                memory_mb: VM_MEMORY_MB,
                cpu_changes,
            }
        })
        .collect();
    Inputs {
        cluster: ClusterSpec::from_traces(vms),
        trace,
        cfg: PlatformConfig::default(),
        horizon,
        warmup: SimTime::ZERO + SimDuration::from_mins(3),
    }
}

/// 320 invokers on the Section 7.3 "Active" CPU model, a quarter of
/// them evicted in a one-minute storm at 40 min and about a third of
/// the rest at random times, backfilled by the resource monitor with
/// 8-CPU VMs; recovery, the hybrid-histogram policy and telemetry on.
fn fleet_churn(seeds: &SeedFactory) -> Inputs {
    let arrive = SimDuration::from_mins(60);
    let horizon = arrive + SimDuration::from_mins(10);
    let trace = arrivals(seeds, 2_000, 200.0, arrive);
    let mut vms = active_cluster(CHURN_FLEET, horizon, 16, VM_MEMORY_MB, &seeds.child("vms"));
    let mut rng = seeds.stream("evictions");
    let storm = SimTime::ZERO + SimDuration::from_mins(40);
    for (i, vm) in vms.iter_mut().enumerate() {
        let at = if i % 4 == 0 {
            storm + SimDuration::from_micros(rng.random_range(0..60_000_000u64))
        } else if rng.random_range(0..3u32) == 0 {
            // After the first minute, so every VM has joined first.
            SimTime::from_micros(rng.random_range(60_000_000..horizon.as_micros()))
        } else {
            continue;
        };
        vm.end = at;
        vm.ended = VmEnd::Evicted;
        vm.cpu_changes.retain(|c| c.at < at);
    }
    let mut cfg = PlatformConfig {
        coldstart: ColdStartConfig::Hybrid(Default::default()),
        telemetry: TelemetryConfig::on(),
        ..PlatformConfig::default()
    };
    cfg.recovery.enabled = true;
    cfg.monitor.enabled = true;
    cfg.monitor.min_cpus = 2_400;
    cfg.monitor.template = VmTemplate {
        cpus: 8,
        memory_mb: VM_MEMORY_MB,
        deploy_delay: SimDuration::from_mins(2),
    };
    Inputs {
        cluster: ClusterSpec::from_traces(vms),
        trace,
        cfg,
        horizon,
        warmup: SimTime::ZERO + SimDuration::from_mins(10),
    }
}
