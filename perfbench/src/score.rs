//! Scores a run's records against the inputs it was offered.
//!
//! The denominator is the trace, not the record sink: every
//! post-warm-up arrival that did not end in a `Completed` record is a
//! miss, whether it was censored at the horizon, rejected, lost, killed
//! by an eviction or never recorded at all. Warm-up membership uses the
//! trace's arrival time, because the platform stamps invocations that
//! are still in flight at the horizon with the horizon as their arrival.

use hrv_platform::metrics::{InvocationRecord, Outcome};
use hrv_trace::time::SimTime;

/// Simulated end-to-end figures of one run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Score {
    /// Post-warm-up arrivals in the trace.
    pub offered: u64,
    /// Post-warm-up arrivals that completed.
    pub completed: u64,
    /// `completed / offered`.
    pub success_share: f64,
    /// Median latency of post-warm-up completions, simulated seconds.
    pub p50_s: f64,
    /// 99th-percentile latency of post-warm-up completions.
    pub p99_s: f64,
    /// Cold starts over post-warm-up invocations that started executing.
    pub cold_start_rate: f64,
}

/// Scores `records` against `arrivals`, the trace's arrival time of each
/// invocation indexed by invocation id.
pub fn score(arrivals: &[SimTime], warmup: SimTime, records: &[InvocationRecord]) -> Score {
    let offered = arrivals.iter().filter(|&&a| a >= warmup).count() as u64;
    let mut done = vec![false; arrivals.len()];
    let mut latencies = Vec::new();
    let (mut started, mut cold) = (0u64, 0u64);
    for r in records {
        let arrival = *arrivals
            .get(r.id as usize)
            .unwrap_or_else(|| panic!("record for invocation {} not in the trace", r.id));
        if arrival < warmup {
            continue;
        }
        if r.exec_started {
            started += 1;
            cold += u64::from(r.cold);
        }
        if r.outcome == Outcome::Completed && !done[r.id as usize] {
            done[r.id as usize] = true;
            latencies.push(r.latency_secs);
        }
    }
    latencies.sort_by(f64::total_cmp);
    let completed = latencies.len() as u64;
    Score {
        offered,
        completed,
        success_share: ratio(completed, offered),
        p50_s: nearest_rank(&latencies, 50.0),
        p99_s: nearest_rank(&latencies, 99.0),
        cold_start_rate: ratio(cold, started),
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Nearest-rank percentile of sorted `xs` (0 when empty).
fn nearest_rank(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let rank = (p / 100.0 * xs.len() as f64).ceil() as usize;
    xs[rank.clamp(1, xs.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(id: u64, arrival: SimTime, latency: f64, outcome: Outcome) -> InvocationRecord {
        InvocationRecord {
            id,
            arrival,
            finished: arrival,
            latency_secs: latency,
            exec_secs: latency,
            cold: false,
            exec_started: outcome == Outcome::Completed,
            outcome,
        }
    }

    #[test]
    fn a_run_that_ends_mostly_queued_scores_low() {
        // 1 000 post-warm-up arrivals; 20 complete, 900 are censored at
        // the horizon and 80 leave no record at all.
        let arrivals: Vec<SimTime> = (0..1_000)
            .map(|i| SimTime::from_secs(30 + i / 100))
            .collect();
        let horizon = SimTime::from_secs(120);
        let mut records: Vec<_> = (0..20)
            .map(|i| rec(i, arrivals[i as usize], 1.0, Outcome::Completed))
            .collect();
        records.extend((20..920).map(|i| rec(i, horizon, 0.0, Outcome::Censored)));
        let s = score(&arrivals, SimTime::from_secs(20), &records);
        assert_eq!(s.offered, 1_000);
        assert_eq!(s.completed, 20);
        assert!((s.success_share - 0.02).abs() < 1e-12);
    }

    #[test]
    fn every_kind_of_loss_is_a_miss_and_warm_up_uses_trace_arrivals() {
        let arrivals = vec![
            SimTime::from_secs(5),  // warm-up, censored in flight
            SimTime::from_secs(25), // completed
            SimTime::from_secs(26), // rejected
            SimTime::from_secs(27), // evicted
            SimTime::from_secs(28), // lost
            SimTime::from_secs(29), // completed, then censored the same instant
        ];
        let horizon = SimTime::from_secs(120);
        let records = vec![
            rec(0, horizon, 0.0, Outcome::Censored),
            rec(1, arrivals[1], 2.0, Outcome::Completed),
            rec(2, arrivals[2], 0.0, Outcome::Rejected),
            rec(3, arrivals[3], 0.0, Outcome::FailedEviction),
            rec(4, arrivals[4], 0.0, Outcome::Lost),
            rec(5, arrivals[5], 4.0, Outcome::Completed),
            rec(5, horizon, 0.0, Outcome::Censored),
        ];
        let s = score(&arrivals, SimTime::from_secs(20), &records);
        assert_eq!(s.offered, 5);
        assert_eq!(s.completed, 2);
        assert!((s.success_share - 0.4).abs() < 1e-12);
        assert_eq!(s.p50_s, 2.0);
        assert_eq!(s.p99_s, 4.0);
    }

    #[test]
    fn nearest_rank_picks_observed_values() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(nearest_rank(&xs, 50.0), 50.0);
        assert_eq!(nearest_rank(&xs, 99.0), 99.0);
        assert_eq!(nearest_rank(&[7.0], 99.0), 7.0);
        assert_eq!(nearest_rank(&[], 50.0), 0.0);
    }
}
