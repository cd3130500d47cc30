//! The platform's event vocabulary.
//!
//! Every interaction in the system — client arrivals, controller↔invoker
//! messages, container lifecycle timers, VM resizes and evictions, and
//! periodic monitors — is one of these events on the shared calendar.

use hrv_trace::faas::{FunctionId, Invocation};
use hrv_trace::time::{SimDuration, SimTime};

use crate::config::VmTemplate;
use crate::invoker::{HealthSnapshot, RunningInvocation};

/// Index of a controller replica (`0 <= replica < replicas`). Replica 0
/// is the classic controller; with one replica every `replica` field in
/// this module is zero and the event stream is byte-identical to the
/// pre-replication platform.
pub type ReplicaIndex = u32;

/// One invoker's pending placement-charge delta, broadcast between
/// controller replicas inside [`Event::ViewDelta`] envelopes so each
/// replica's `ClusterView` accounts for its peers' in-flight placements.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ViewDeltaRow {
    /// The invoker whose charges changed.
    pub invoker: InvokerIndex,
    /// Change in reserved-but-unreported memory, MiB (may be negative:
    /// completions release charges).
    pub memory_pending_mb: i64,
    /// Change in in-flight invocation count.
    pub inflight: i64,
    /// Change in in-flight CPU-seconds of expected demand.
    pub inflight_demand_secs: f64,
}

/// Index of an invoker in the platform's invoker table (stable for the
/// whole run; dead invokers keep their slot).
pub type InvokerIndex = u32;

/// Why an invocation's current placement was destroyed — determines the
/// detection delay before recovery can re-dispatch it. Travels inside
/// [`Event::WorkLost`] messages from invoker shards to the controller.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LossCause {
    /// The hosting VM was evicted (warned or not); the controller learns
    /// of the death from ping loss after one ping interval.
    Eviction,
    /// Crash-stop kill: nothing announces the death, so detection waits
    /// for the health-probe timeout.
    Crash,
    /// The dispatch message landed on an already-dead invoker; silence
    /// until the probe timeout.
    DeadDelivery,
    /// The dispatch message itself was lost. The controller's send is
    /// fire-and-forget, so recovery re-rolls immediately (modeling an
    /// at-least-once bus retry) with only the backoff delay.
    DispatchDrop,
}

/// What an invoker tells the controller when an invocation finishes
/// (Section 6.2: the response carries measured duration and CPU usage).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CompletionReport {
    /// The finished invocation's function.
    pub function: FunctionId,
    /// The invocation id (for metrics joins).
    pub invocation: u64,
    /// Memory the placement had reserved, MiB.
    pub memory_mb: u64,
    /// Measured execution duration (queueing at the invoker excluded).
    pub exec_duration: SimDuration,
    /// Measured CPU usage in cores.
    pub cpu_cores: f64,
    /// Whether this invocation cold-started.
    pub cold: bool,
    /// When the invocation originally arrived at the controller.
    pub arrival: SimTime,
}

/// Every event the platform world can process.
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// A client request reaches the controller (through NGINX).
    Arrival(Invocation),
    /// The controller's placement message reaches an invoker.
    Deliver {
        /// Target invoker.
        invoker: InvokerIndex,
        /// The invocation being delivered.
        invocation: Invocation,
        /// When the controller put this dispatch on the bus. Rides in the
        /// event payload (payloads are not fingerprinted) so the
        /// invoker-owning shard can attribute the bus hop without a
        /// cross-shard lookup.
        sent_at: SimTime,
    },
    /// A cold container finished starting and can begin execution.
    StartupDone {
        /// Owning invoker.
        invoker: InvokerIndex,
        /// The container that finished starting.
        container: u64,
    },
    /// The invoker's processor-sharing queue predicts a completion now.
    Completion {
        /// The invoker whose queue should be checked.
        invoker: InvokerIndex,
    },
    /// An idle container's keep-alive expired.
    KeepAliveExpired {
        /// Owning invoker.
        invoker: InvokerIndex,
        /// The idle container to reap.
        container: u64,
    },
    /// A cold-start policy's prewarm order arrives at the invoker:
    /// spawn a container for `function` ahead of its predicted next
    /// arrival. Travels as a cross-entity envelope (delay at least one
    /// bus hop) so sharded runs deliver it in canonical order.
    Prewarm {
        /// Target invoker.
        invoker: InvokerIndex,
        /// The function to pre-spawn a container for.
        function: FunctionId,
        /// Memory footprint of the container, MiB.
        memory_mb: u64,
        /// Keep-alive TTL to arm once the container is warm.
        ttl: SimDuration,
    },
    /// A prewarmed container finished its cold start and parks as idle
    /// (invoker-local timer, like [`Event::StartupDone`]).
    PrewarmReady {
        /// Owning invoker.
        invoker: InvokerIndex,
        /// The container that finished warming.
        container: u64,
    },
    /// An invoker's periodic health-ping timer fires (invoker-local; the
    /// snapshot travels to the controller as [`Event::PingReport`]).
    Ping {
        /// The pinging invoker.
        invoker: InvokerIndex,
    },
    /// A health-ping snapshot reaches a controller replica, one bus hop
    /// after the invoker's [`Event::Ping`] timer fired. Broadcast: every
    /// replica receives its own copy so all cluster views track fleet
    /// health.
    PingReport {
        /// The pinging invoker.
        invoker: InvokerIndex,
        /// Health reading taken at ping time.
        snap: HealthSnapshot,
        /// The receiving replica.
        replica: ReplicaIndex,
    },
    /// An invoker's completion report reaches the controller.
    Report {
        /// The reporting invoker.
        invoker: InvokerIndex,
        /// The report payload.
        report: CompletionReport,
    },
    /// A controller replica learns an invoker is gone (ping loss after
    /// eviction). Broadcast to every replica.
    InvokerDown {
        /// The dead invoker.
        invoker: InvokerIndex,
        /// The receiving replica.
        replica: ReplicaIndex,
    },
    /// A VM (trace-driven or monitor-deployed) becomes ready.
    VmDeploy {
        /// The invoker slot coming online.
        invoker: InvokerIndex,
    },
    /// A controller replica learns a freshly deployed invoker is up, one
    /// bus hop after [`Event::VmDeploy`] ran on the invoker's shard.
    /// Broadcast to every replica.
    DeployNotice {
        /// The invoker that came online.
        invoker: InvokerIndex,
        /// CPUs it deployed with.
        cpus: u32,
        /// Memory it deployed with, MiB.
        memory_mb: u64,
        /// Whether the resource monitor requested this VM (releases the
        /// monitor's pending-CPU reservation; replica 0 runs the
        /// monitor).
        from_monitor: bool,
        /// The receiving replica.
        replica: ReplicaIndex,
    },
    /// The resource monitor's deploy order reaches the shard owning the
    /// new invoker slot after the template's deploy delay; the receiving
    /// shard materializes the slot and brings it up.
    SpawnVm {
        /// The invoker slot to create (controller-assigned, globally
        /// unique).
        invoker: InvokerIndex,
        /// What to deploy.
        template: VmTemplate,
    },
    /// An invoker shard tells the controller that in-flight work was
    /// destroyed (eviction, crash, or a delivery that found a corpse);
    /// the controller decides between re-dispatch and a loss record.
    WorkLost {
        /// The destroyed invocation.
        invocation: Invocation,
        /// Whether execution had begun.
        exec_started: bool,
        /// Whether it had cold-started.
        cold: bool,
        /// How the placement was destroyed.
        cause: LossCause,
    },
    /// The hosting VM's CPU allocation changed.
    VmCpu {
        /// Affected invoker.
        invoker: InvokerIndex,
        /// New CPU count.
        cpus: u32,
    },
    /// The hosting VM received its 30-second eviction warning.
    VmWarn {
        /// Affected invoker.
        invoker: InvokerIndex,
    },
    /// The hosting VM was evicted; everything on it dies.
    VmEvict {
        /// Affected invoker.
        invoker: InvokerIndex,
    },
    /// Deferred migration planning after an eviction warning (waits one
    /// ping round so other warned VMs are visible in the view).
    MigratePlan {
        /// The warned invoker to plan for.
        invoker: InvokerIndex,
    },
    /// A warned invoker asks the replica owning the invocation's function
    /// to resolve a live migration: pick a destination from the owner's
    /// cluster view and check the transfer fits the eviction grace.
    MigrateAsk {
        /// Source invoker (under eviction warning).
        src: InvokerIndex,
        /// Container id of the migrating invocation on the source.
        container: u64,
        /// The migrating invocation's function (routes to its owner).
        function: FunctionId,
        /// The invocation id (for controller bookkeeping joins).
        invocation: u64,
        /// Container memory footprint, MiB (sizes the state transfer).
        memory_mb: u64,
        /// When the source VM received its eviction warning (anchors the
        /// grace-period deadline at the deciding replica).
        warned_at: SimTime,
    },
    /// The owning replica's go-ahead reaches the warned source invoker:
    /// extract the running invocation and ship it to `dst`.
    MigrateExtract {
        /// Source invoker.
        src: InvokerIndex,
        /// Destination invoker chosen by the owning replica.
        dst: InvokerIndex,
        /// Container id to extract on the source.
        container: u64,
        /// State-transfer time (setup + per-GiB copy); the implant
        /// envelope travels with this delay.
        transfer: SimDuration,
    },
    /// A live migration's state transfer finishes at the destination:
    /// implant the extracted invocation and resume it.
    MigrateImplant {
        /// Destination invoker.
        dst: InvokerIndex,
        /// Source invoker (for the bounce path if the implant fails).
        src: InvokerIndex,
        /// The extracted running-invocation state.
        run: RunningInvocation,
        /// Remaining CPU-seconds of demand at extraction time.
        remaining: f64,
    },
    /// A failed implant bounces the extracted invocation back to its
    /// source, which re-implants it (or reports it lost if the source is
    /// already gone).
    MigrateBounce {
        /// The original source invoker.
        src: InvokerIndex,
        /// The extracted running-invocation state.
        run: RunningInvocation,
        /// Remaining CPU-seconds of demand.
        remaining: f64,
    },
    /// A successful implant notifies the owning replica so its in-flight
    /// bookkeeping follows the invocation to the destination.
    MigrateCommit {
        /// The invocation id that moved.
        invocation: u64,
        /// Its function (routes to the owning replica).
        function: FunctionId,
        /// The destination invoker now hosting it.
        dst: InvokerIndex,
    },
    /// Fault injection: the VM dies crash-stop, with no warning and no
    /// notification — unlike [`Event::VmEvict`], nothing else is
    /// scheduled; detection is the health-probe machinery's job.
    FaultCrash {
        /// The killed invoker.
        invoker: InvokerIndex,
    },
    /// Fault injection: the invoker's effective PS capacity becomes
    /// `factor` of its allocated CPUs (`factor == 1.0` ends the window).
    FaultStraggler {
        /// Affected invoker.
        invoker: InvokerIndex,
        /// Fraction of allocated CPUs actually progressing.
        factor: f64,
    },
    /// Fault injection: the controller's cluster view freezes (pings are
    /// dropped) or thaws.
    FaultViewFreeze {
        /// `true` opens a staleness window, `false` closes it.
        frozen: bool,
    },
    /// Recovery: re-route an invocation whose previous placement was
    /// destroyed (unwarned kill, eviction, dead delivery) or whose
    /// dispatch message was lost. Fires after detection plus backoff.
    Redispatch {
        /// The invocation to route again.
        invocation: Invocation,
    },
    /// Recovery: a controller replica's periodic health-probe sweep,
    /// which quarantines silent invokers and removes long-dead ones.
    /// Each replica sweeps its own view on its own (identical) schedule.
    HealthSweep {
        /// The sweeping replica.
        replica: ReplicaIndex,
    },
    /// A controller replica retries its queue of unplaced invocations.
    RetryQueue {
        /// The retrying replica.
        replica: ReplicaIndex,
    },
    /// The resource monitor checks the capacity floor (replica 0 only).
    MonitorTick,
    /// Metrics sampling tick for one invoker's utilization contribution.
    /// Per-invoker (not fleet-wide) so the event count is independent of
    /// how invokers are partitioned over shards; partial samples are
    /// coalesced into fleet-total rows when runs are merged.
    Sample {
        /// The sampled invoker.
        invoker: InvokerIndex,
    },
    /// A controller replica's periodic view-reconciliation timer: when
    /// its pending placement-charge deltas are non-empty, it broadcasts
    /// them to peers as [`Event::ViewDelta`] envelopes. Only scheduled
    /// when more than one replica exists.
    ReconcileTick {
        /// The reconciling replica.
        replica: ReplicaIndex,
    },
    /// A peer replica's placement-charge deltas arrive: apply them to
    /// the local cluster view. Load-only updates — placeability epochs
    /// are untouched, so the MWS covering-set cache stays warm.
    ViewDelta {
        /// The receiving replica.
        replica: ReplicaIndex,
        /// Per-invoker charge deltas, in ascending invoker order.
        deltas: Vec<ViewDeltaRow>,
    },
}
