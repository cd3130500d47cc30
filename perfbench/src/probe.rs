//! The traced pass's wrappers. They time calls into each layer's public
//! functions from outside the program:
//!
//! * [`ProbeCalendar`] wraps the `sim` timer wheel. It counts and times
//!   every calendar operation and attributes the time between an event's
//!   `pop` and the next `peek_time`/`pop` to that event's kind, minus the
//!   calendar and load-balancer calls made inside it (the `platform`
//!   layer's self time).
//! * [`ProbeLb`] wraps MWS (the `lb` layer) and times placement,
//!   membership changes and observations.
//!
//! The load balancer is owned by the world, and each controller replica
//! owns a copy made through [`LoadBalancer::fresh`], so its ledger lives
//! in a thread-local the calendar can read. The traced pass runs on one
//! thread.

use std::cell::RefCell;
use std::mem::Discriminant;
use std::time::Instant;

use hrv_lb::mws::Mws;
use hrv_lb::policy::LoadBalancer;
use hrv_lb::view::{ClusterView, InvokerId, LoadWeights};
use hrv_platform::event::Event;
use hrv_sim::calendar::{Calendar, EventCalendar, EventId, Scheduled};
use hrv_trace::faas::FunctionId;
use hrv_trace::time::{SimDuration, SimTime};

/// Calls and self time of one kind of operation.
#[derive(Debug, Clone, Copy, Default)]
pub struct Tally {
    pub calls: u64,
    pub ns: u64,
}

impl Tally {
    fn add(&mut self, since: Instant) {
        self.calls += 1;
        self.ns += since.elapsed().as_nanos() as u64;
    }

    pub fn secs(&self) -> f64 {
        self.ns as f64 * 1e-9
    }
}

/// What the load-balancer wrappers measured.
#[derive(Debug, Clone, Copy, Default)]
pub struct LbLedger {
    pub place: Tally,
    pub join: Tally,
    pub leave: Tally,
    /// `on_arrival` and `on_completion`.
    pub observe: Tally,
    /// MWS cache counters of the wrappers dropped so far.
    pub cache_hits: u64,
    pub cache_misses: u64,
}

thread_local! {
    static LB: RefCell<LbLedger> = RefCell::new(LbLedger::default());
}

impl LbLedger {
    /// Time in every load-balancer call, so an event can subtract it.
    pub fn total_ns(&self) -> u64 {
        self.place.ns + self.join.ns + self.leave.ns + self.observe.ns
    }
}

fn lb_total_ns() -> u64 {
    LB.with(|l| l.borrow().total_ns())
}

/// Clears the load-balancer ledger.
pub fn reset_lb() {
    LB.with(|l| *l.borrow_mut() = LbLedger::default());
}

/// The load-balancer ledger so far. Cache counters are added when a
/// wrapper is dropped, so drop the world first.
pub fn lb_ledger() -> LbLedger {
    LB.with(|l| *l.borrow())
}

fn charge_lb(pick: fn(&mut LbLedger) -> &mut Tally, since: Instant) {
    LB.with(|l| pick(&mut l.borrow_mut()).add(since));
}

/// MWS behind a timing wrapper.
#[derive(Debug)]
pub struct ProbeLb {
    inner: Mws,
}

impl ProbeLb {
    /// Wraps exactly what `PolicyKind::Mws` builds.
    pub fn new() -> Self {
        ProbeLb {
            inner: Mws::new(LoadWeights::default(), 1),
        }
    }
}

impl Drop for ProbeLb {
    fn drop(&mut self) {
        let stats = self.inner.cache_stats();
        LB.with(|l| {
            let mut l = l.borrow_mut();
            l.cache_hits += stats.hits;
            l.cache_misses += stats.misses;
        });
    }
}

impl LoadBalancer for ProbeLb {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn place(
        &mut self,
        now: SimTime,
        function: FunctionId,
        memory_mb: u64,
        view: &ClusterView,
        rng: &mut dyn rand::Rng,
    ) -> Option<InvokerId> {
        let t = Instant::now();
        let placed = self.inner.place(now, function, memory_mb, view, rng);
        charge_lb(|l| &mut l.place, t);
        placed
    }

    fn on_arrival(&mut self, function: FunctionId, now: SimTime) {
        let t = Instant::now();
        self.inner.on_arrival(function, now);
        charge_lb(|l| &mut l.observe, t);
    }

    fn on_completion(&mut self, function: FunctionId, duration: SimDuration, cpu_cores: f64) {
        let t = Instant::now();
        self.inner.on_completion(function, duration, cpu_cores);
        charge_lb(|l| &mut l.observe, t);
    }

    fn on_invoker_join(&mut self, id: InvokerId) {
        let t = Instant::now();
        self.inner.on_invoker_join(id);
        charge_lb(|l| &mut l.join, t);
    }

    fn on_invoker_leave(&mut self, id: InvokerId) {
        let t = Instant::now();
        self.inner.on_invoker_leave(id);
        charge_lb(|l| &mut l.leave, t);
    }

    fn fresh(&self) -> Box<dyn LoadBalancer> {
        Box::new(ProbeLb::new())
    }
}

/// Count and self time of one `Event` kind.
#[derive(Debug, Clone)]
pub struct KindTally {
    /// The variant name, e.g. `Arrival`.
    pub name: String,
    pub count: u64,
    pub self_ns: u64,
}

/// The event being handled: its kind and the ledgers at its start.
struct Open {
    kind: usize,
    start: Instant,
    cal_ns: u64,
    lb_ns: u64,
}

/// The platform's timer wheel behind a timing wrapper.
pub struct ProbeCalendar {
    inner: Calendar<Event>,
    /// Calendar operations: schedule, cancel, peek and pop.
    pub ops: u64,
    pub cal_ns: u64,
    kinds: Vec<(Discriminant<Event>, KindTally)>,
    open: Option<Open>,
}

impl ProbeCalendar {
    pub fn new() -> Self {
        ProbeCalendar {
            inner: Calendar::new(),
            ops: 0,
            cal_ns: 0,
            kinds: Vec::new(),
            open: None,
        }
    }

    /// Forgets everything measured so far (construction, for one).
    pub fn reset(&mut self) {
        self.ops = 0;
        self.cal_ns = 0;
        self.kinds.clear();
        self.open = None;
    }

    /// Per-kind tallies in first-seen order.
    pub fn kinds(&self) -> impl Iterator<Item = &KindTally> {
        self.kinds.iter().map(|(_, k)| k)
    }

    /// Closes the open event at `now`, charging it its self time.
    fn close(&mut self, now: Instant) {
        if let Some(open) = self.open.take() {
            let wall = now.duration_since(open.start).as_nanos() as u64;
            let children = (self.cal_ns - open.cal_ns) + (lb_total_ns() - open.lb_ns);
            self.kinds[open.kind].1.self_ns += wall.saturating_sub(children);
        }
    }

    fn charge(&mut self, since: Instant) {
        self.ops += 1;
        self.cal_ns += since.elapsed().as_nanos() as u64;
    }

    fn kind_of(&mut self, event: &Event) -> usize {
        let d = std::mem::discriminant(event);
        if let Some(i) = self.kinds.iter().position(|(k, _)| *k == d) {
            return i;
        }
        let debug = format!("{event:?}");
        let name = debug
            .split(|c: char| !c.is_ascii_alphanumeric())
            .next()
            .unwrap_or_default()
            .to_string();
        self.kinds.push((
            d,
            KindTally {
                name,
                count: 0,
                self_ns: 0,
            },
        ));
        self.kinds.len() - 1
    }
}

impl EventCalendar<Event> for ProbeCalendar {
    fn now(&self) -> SimTime {
        self.inner.now()
    }

    fn processed(&self) -> u64 {
        self.inner.processed()
    }

    fn len(&self) -> usize {
        self.inner.len()
    }

    fn schedule(&mut self, at: SimTime, event: Event) -> EventId {
        let t = Instant::now();
        let id = self.inner.schedule(at, event);
        self.charge(t);
        id
    }

    fn schedule_after(&mut self, delay: SimDuration, event: Event) -> EventId {
        let t = Instant::now();
        let id = self.inner.schedule_after(delay, event);
        self.charge(t);
        id
    }

    fn cancel(&mut self, id: EventId) -> bool {
        let t = Instant::now();
        let was = self.inner.cancel(id);
        self.charge(t);
        was
    }

    fn peek_time(&mut self) -> Option<SimTime> {
        let t = Instant::now();
        self.close(t);
        let at = self.inner.peek_time();
        self.charge(t);
        at
    }

    fn pop(&mut self) -> Option<Scheduled<Event>> {
        let t = Instant::now();
        self.close(t);
        let ev = self.inner.pop();
        // One clock read ends the pop and starts the event.
        let start = Instant::now();
        self.ops += 1;
        self.cal_ns += start.duration_since(t).as_nanos() as u64;
        if let Some(ev) = &ev {
            let kind = self.kind_of(&ev.event);
            self.kinds[kind].1.count += 1;
            self.open = Some(Open {
                kind,
                start,
                cal_ns: self.cal_ns,
                lb_ns: lb_total_ns(),
            });
        }
        ev
    }
}
