//! Statistics monitors: an observation tally, a busy-time accumulator and
//! a fault monitor.

use crate::snapshot::{Dec, Enc, Persist, SnapError};
use crate::time::{SimDur, SimTime};

/// Welford online tally of an observation-based statistic (e.g. per-sample
/// monitoring latency).
#[derive(Clone, Debug, Default)]
pub struct Tally {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Tally {
    /// Fresh, empty tally.
    pub fn new() -> Self {
        Tally {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Record one observation.
    #[inline]
    pub fn record(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sample mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Unbiased sample variance (0 with fewer than two observations).
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / (self.n - 1) as f64
        }
    }

    /// Sample standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Smallest observation (`None` when empty).
    pub fn min(&self) -> Option<f64> {
        (self.n > 0).then_some(self.min)
    }

    /// Largest observation (`None` when empty).
    pub fn max(&self) -> Option<f64> {
        (self.n > 0).then_some(self.max)
    }

    /// Sum of all observations.
    pub fn sum(&self) -> f64 {
        self.mean() * self.n as f64
    }
}

impl Persist for Tally {
    fn save(&self, w: &mut Enc) {
        w.put_u64(self.n);
        w.put_f64(self.mean);
        w.put_f64(self.m2);
        w.put_f64(self.min);
        w.put_f64(self.max);
    }
    fn load(r: &mut Dec<'_>) -> Result<Self, SnapError> {
        Ok(Tally {
            n: r.take_u64()?,
            mean: r.take_f64()?,
            m2: r.take_f64()?,
            min: r.take_f64()?,
            max: r.take_f64()?,
        })
    }
}

/// Accumulator of resource busy time, yielding utilization over an interval.
#[derive(Clone, Copy, Debug, Default)]
pub struct BusyTime {
    total_ns: u64,
}

impl BusyTime {
    /// Fresh accumulator.
    pub fn new() -> Self {
        BusyTime { total_ns: 0 }
    }

    /// Credit a span of busy time.
    #[inline]
    pub fn add(&mut self, d: SimDur) {
        self.total_ns += d.as_nanos();
    }

    /// Total accumulated busy time.
    pub fn total(&self) -> SimDur {
        SimDur::from_nanos(self.total_ns)
    }

    /// Busy fraction of the interval `[0, horizon]` (0 if the horizon is 0).
    pub fn utilization(&self, horizon: SimDur) -> f64 {
        if horizon.is_zero() {
            0.0
        } else {
            self.total_ns as f64 / horizon.as_nanos() as f64
        }
    }
}

impl Persist for BusyTime {
    fn save(&self, w: &mut Enc) {
        w.put_u64(self.total_ns);
    }
    fn load(r: &mut Dec<'_>) -> Result<Self, SnapError> {
        Ok(BusyTime {
            total_ns: r.take_u64()?,
        })
    }
}

/// Records the observable cost of injected faults on one element: crash
/// count, samples lost, forwarding retries, and accumulated downtime.
///
/// Downtime is tracked as an open/closed interval sum so it can be queried
/// mid-outage: [`FaultMonitor::downtime_at`] includes the currently open
/// down interval, which matters when a run's horizon lands while the
/// element is still down.
#[derive(Clone, Copy, Debug, Default)]
pub struct FaultMonitor {
    crashes: u64,
    lost: u64,
    retries: u64,
    down_since: Option<SimTime>,
    downtime_ns: u64,
}

impl FaultMonitor {
    /// Fresh monitor with nothing recorded.
    pub fn new() -> Self {
        FaultMonitor::default()
    }

    /// Record a crash starting at `t`. No-op on the interval if already down.
    pub fn crash_at(&mut self, t: SimTime) {
        self.crashes += 1;
        if self.down_since.is_none() {
            self.down_since = Some(t);
        }
    }

    /// Record recovery at `t`, closing the open down interval.
    pub fn recover_at(&mut self, t: SimTime) {
        if let Some(start) = self.down_since.take() {
            self.downtime_ns += (t - start).as_nanos();
        }
    }

    /// Record `n` samples lost to faults.
    #[inline]
    pub fn add_lost(&mut self, n: u64) {
        self.lost += n;
    }

    /// Record one forwarding retry.
    #[inline]
    pub fn add_retry(&mut self) {
        self.retries += 1;
    }

    /// Whether the element is currently down.
    pub fn is_down(&self) -> bool {
        self.down_since.is_some()
    }

    /// Number of crashes recorded.
    pub fn crashes(&self) -> u64 {
        self.crashes
    }

    /// Total samples lost to faults.
    pub fn lost(&self) -> u64 {
        self.lost
    }

    /// Total forwarding retries.
    pub fn retries(&self) -> u64 {
        self.retries
    }

    /// Total downtime up to `now`, including a still-open down interval.
    pub fn downtime_at(&self, now: SimTime) -> SimDur {
        let open = match self.down_since {
            Some(start) if now > start => (now - start).as_nanos(),
            _ => 0,
        };
        SimDur::from_nanos(self.downtime_ns + open)
    }
}

impl Persist for FaultMonitor {
    fn save(&self, w: &mut Enc) {
        w.put_u64(self.crashes);
        w.put_u64(self.lost);
        w.put_u64(self.retries);
        self.down_since.save(w);
        w.put_u64(self.downtime_ns);
    }
    fn load(r: &mut Dec<'_>) -> Result<Self, SnapError> {
        Ok(FaultMonitor {
            crashes: r.take_u64()?,
            lost: r.take_u64()?,
            retries: r.take_u64()?,
            down_since: Persist::load(r)?,
            downtime_ns: r.take_u64()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tally_basic_moments() {
        let mut t = Tally::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            t.record(x);
        }
        assert_eq!(t.count(), 8);
        assert!((t.mean() - 5.0).abs() < 1e-12);
        // Unbiased variance of this classic data set is 32/7.
        assert!((t.variance() - 32.0 / 7.0).abs() < 1e-12);
        assert_eq!(t.min(), Some(2.0));
        assert_eq!(t.max(), Some(9.0));
        assert!((t.sum() - 40.0).abs() < 1e-9);
    }

    #[test]
    fn tally_empty_is_sane() {
        let t = Tally::new();
        assert_eq!(t.count(), 0);
        assert_eq!(t.mean(), 0.0);
        assert_eq!(t.variance(), 0.0);
        assert_eq!(t.min(), None);
    }

    #[test]
    fn busy_time_utilization() {
        let mut b = BusyTime::new();
        b.add(SimDur::from_secs_f64(0.25));
        b.add(SimDur::from_secs_f64(0.25));
        assert!((b.utilization(SimDur::from_secs_f64(1.0)) - 0.5).abs() < 1e-12);
        assert_eq!(BusyTime::new().utilization(SimDur::ZERO), 0.0);
    }

    #[test]
    fn fault_monitor_accumulates_closed_intervals() {
        let mut m = FaultMonitor::new();
        assert!(!m.is_down());
        m.crash_at(SimTime::from_secs_f64(1.0));
        assert!(m.is_down());
        m.recover_at(SimTime::from_secs_f64(1.5));
        m.crash_at(SimTime::from_secs_f64(3.0));
        m.recover_at(SimTime::from_secs_f64(3.25));
        assert_eq!(m.crashes(), 2);
        assert!(!m.is_down());
        let d = m.downtime_at(SimTime::from_secs_f64(10.0));
        assert!((d.as_secs_f64() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn fault_monitor_includes_open_interval() {
        let mut m = FaultMonitor::new();
        m.crash_at(SimTime::from_secs_f64(2.0));
        let d = m.downtime_at(SimTime::from_secs_f64(5.0));
        assert!((d.as_secs_f64() - 3.0).abs() < 1e-12);
        // Querying before the crash instant contributes nothing.
        assert_eq!(m.downtime_at(SimTime::from_secs_f64(2.0)), SimDur::ZERO);
    }

    #[test]
    fn fault_monitor_counts_losses_and_retries() {
        let mut m = FaultMonitor::new();
        m.add_lost(7);
        m.add_lost(3);
        m.add_retry();
        m.add_retry();
        assert_eq!(m.lost(), 10);
        assert_eq!(m.retries(), 2);
    }
}
