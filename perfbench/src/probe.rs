//! The traced model run: a [`Model`] wrapper that counts every dispatched
//! event by its `Ev` kind and times a systematic sample of them.
//!
//! A host clock read costs tens of nanoseconds, a sizeable share of a
//! 150–300 ns event, so timing every event would mostly measure the clock.
//! The wrapper times a systematic sample, one step per [`STRIDE`] events,
//! and takes the measured cost of a clock read out. Per-kind means from
//! the sample, times the exact per-kind counts, must then add up to the
//! traced run span less the clock reads (checked as
//! `core.model.reconcile_err`).
//!
//! Kinds are found with a `match`, and everything is aggregated in fixed
//! arrays: the trace allocates nothing per event and formats nothing until
//! the run ends. The wrapper delegates snapshot state to the inner model,
//! so a traced simulation has the same `state_payload` as an untraced one.

use crate::clock::Clock;
use paradyn_core::model::types::Ev;
use paradyn_core::RoccModel;
use paradyn_des::{Ctx, Dec, Enc, Model, PersistState, SnapError};

/// Event kinds reported separately; every other `Ev` is `other`.
pub const KINDS: [&str; 6] = [
    "slice",
    "deliver",
    "pvmd_arrival",
    "other_cpu_arrival",
    "sample",
    "other",
];

#[inline]
fn kind(ev: &Ev) -> usize {
    match ev {
        Ev::Slice { .. } => 0,
        Ev::Deliver(_) => 1,
        Ev::PvmdArrival { .. } => 2,
        Ev::OtherCpuArrival { .. } => 3,
        Ev::Sample { .. } => 4,
        _ => 5,
    }
}

/// Log-linear histogram of nanosecond durations: exact below 32 ns, then
/// 16 sub-buckets per power of two (at most 1/16 relative bucket width).
pub struct Hist {
    counts: Vec<u64>,
}

const LINEAR: u64 = 32;
const SUB_BITS: u32 = 4;
const BUCKETS: usize = 32 + 59 * 16;

impl Hist {
    fn new() -> Hist {
        Hist {
            counts: vec![0; BUCKETS],
        }
    }

    #[inline]
    fn index(v: u64) -> usize {
        if v < LINEAR {
            v as usize
        } else {
            let e = 63 - v.leading_zeros();
            let sub = (v >> (e - SUB_BITS)) & 0xF;
            (LINEAR + (e as u64 - 5) * 16 + sub) as usize
        }
    }

    /// Lower and upper bound (exclusive) of bucket `i`.
    fn bounds(i: usize) -> (u64, u64) {
        let i = i as u64;
        if i < LINEAR {
            (i, i + 1)
        } else {
            let e = (i - LINEAR) / 16 + 5;
            let sub = (i - LINEAR) % 16;
            let width = 1u64 << (e - SUB_BITS as u64);
            let lo = (1u64 << e) + sub * width;
            (lo, lo.saturating_add(width))
        }
    }

    #[inline]
    fn record(&mut self, v: u64) {
        self.counts[Hist::index(v)] += 1;
    }

    /// The `q` quantile, as the midpoint of the bucket holding it.
    pub fn quantile(&self, q: f64) -> f64 {
        let total: u64 = self.counts.iter().sum();
        let rank = ((q * total as f64).ceil() as u64).clamp(1, total.max(1));
        let mut seen = 0;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                let (lo, hi) = Hist::bounds(i);
                return (lo as f64 + hi as f64) / 2.0;
            }
        }
        f64::NAN
    }

    /// Non-empty buckets as `(lower bound ns, count)`.
    pub fn nonempty(&self) -> Vec<(u64, u64)> {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (Hist::bounds(i).0, c))
            .collect()
    }
}

/// Events per sampling cycle; every event is counted.
pub const STRIDE: u64 = 16;

/// Position in the cycle of the event that stamps the clock, twice back
/// to back (the second read starts the next step; the pair measures the
/// cost of one read under the run's own conditions).
const STAMP: u64 = STRIDE - 2;
/// Position of the event whose step is timed (stamp to its exit).
const STEP: u64 = STRIDE - 1;
/// Position of the event whose handler alone is timed (entry to exit).
const HANDLER: u64 = STRIDE / 2;
/// Clock reads per cycle: two at `STAMP`, one at `STEP`, two at `HANDLER`.
const READS_PER_CYCLE: u64 = 5;

/// Everything the trace accumulates.
pub struct Trace {
    clock: Clock,
    seen: u64,
    last_stamp: u64,
    /// Events per kind.
    pub count: [u64; 6],
    /// Timed steps per kind.
    pub timed: [u64; 6],
    /// Summed raw step nanoseconds (stamp to exit) per kind.
    pub step_ns: [u64; 6],
    /// Back-to-back read pairs and their summed nanoseconds.
    pub read_pairs: (u64, u64),
    /// Timed handlers and their summed raw nanoseconds (entry to exit).
    pub handlers: (u64, u64),
    /// Histogram of the raw timed steps.
    pub steps: Hist,
    /// Summed live calendar depth seen at each dispatch.
    pub pending_sum: u64,
    /// Deepest calendar seen at a dispatch.
    pub pending_max: u64,
}

impl Trace {
    /// Cost of one clock read (ns), from the back-to-back pairs.
    pub fn read_ns(&self) -> f64 {
        self.read_pairs.1 as f64 / self.read_pairs.0.max(1) as f64
    }

    /// Clock reads made during the run.
    pub fn reads(&self) -> u64 {
        self.seen / STRIDE * READS_PER_CYCLE
    }

    /// Mean step of kind `k`, its one clock read taken out (0 when no
    /// event of the kind was timed).
    pub fn step_ns_mean(&self, k: usize) -> f64 {
        match self.timed[k] {
            0 => 0.0,
            n => self.step_ns[k] as f64 / n as f64 - self.read_ns(),
        }
    }

    /// Step quantile `q` (ns), its one clock read taken out.
    pub fn step_ns_quantile(&self, q: f64) -> f64 {
        self.steps.quantile(q) - self.read_ns()
    }

    /// Mean engine share of a step (calendar pop + dispatch): mean raw step
    /// less mean raw handler. Each holds one clock read, so the clock's
    /// cost cancels.
    pub fn dispatch_ns_mean(&self) -> f64 {
        let n: u64 = self.timed.iter().sum();
        let step = self.step_ns.iter().sum::<u64>() as f64 / n.max(1) as f64;
        step - self.handlers.1 as f64 / self.handlers.0.max(1) as f64
    }
}

/// [`RoccModel`] with sampled per-event timing.
///
/// In each cycle of [`STRIDE`] events, one event stamps the clock at its
/// exit and the next has its *step* timed, from that stamp to its own
/// exit: the calendar pop and engine dispatch that delivered it plus its
/// handler. A third event has its handler alone timed. Both timed spans
/// hold one clock read, whose cost is measured during the run and taken
/// out.
pub struct Probe {
    /// The model under trace.
    pub inner: RoccModel,
    // lint:allow(snapshot-exempt): host-side measurements, not simulation state; digests must not see them
    pub trace: Trace,
}

impl Probe {
    /// Wrap `inner`; `clock` is the clock the run span is read from.
    pub fn new(inner: RoccModel, clock: Clock) -> Probe {
        Probe {
            inner,
            trace: Trace {
                clock,
                seen: 0,
                last_stamp: 0,
                count: [0; 6],
                timed: [0; 6],
                step_ns: [0; 6],
                read_pairs: (0, 0),
                handlers: (0, 0),
                steps: Hist::new(),
                pending_sum: 0,
                pending_max: 0,
            },
        }
    }
}

impl Model for Probe {
    type Event = Ev;

    #[inline]
    fn handle(&mut self, ctx: &mut Ctx<Ev>, ev: Ev) {
        let t = &mut self.trace;
        let k = kind(&ev);
        let pending = ctx.pending_events() as u64;
        t.count[k] += 1;
        t.pending_sum += pending;
        t.pending_max = t.pending_max.max(pending);
        let pos = t.seen % STRIDE;
        t.seen += 1;
        match pos {
            STAMP => {
                self.inner.handle(ctx, ev);
                let t = &mut self.trace;
                let a = t.clock.ns();
                let b = t.clock.ns();
                t.read_pairs.0 += 1;
                t.read_pairs.1 += b - a;
                t.last_stamp = b;
            }
            STEP => {
                self.inner.handle(ctx, ev);
                let t = &mut self.trace;
                let step = t.clock.ns() - t.last_stamp;
                t.timed[k] += 1;
                t.step_ns[k] += step;
                t.steps.record(step);
            }
            HANDLER => {
                let entry = t.clock.ns();
                self.inner.handle(ctx, ev);
                let t = &mut self.trace;
                t.handlers.0 += 1;
                t.handlers.1 += t.clock.ns() - entry;
            }
            _ => self.inner.handle(ctx, ev),
        }
    }
}

impl PersistState for Probe {
    fn fingerprint(&self) -> u64 {
        self.inner.fingerprint()
    }

    fn save_state(&self, w: &mut Enc) {
        self.inner.save_state(w);
    }

    fn load_state(&mut self, r: &mut Dec<'_>) -> Result<(), SnapError> {
        self.inner.load_state(r)
    }
}

#[cfg(test)]
mod tests {
    use super::Hist;

    #[test]
    fn buckets_are_contiguous_and_hold_their_values() {
        for v in [
            0u64,
            1,
            31,
            32,
            33,
            47,
            48,
            63,
            64,
            100,
            1_000,
            123_456,
            u64::MAX / 3,
        ] {
            let (lo, hi) = Hist::bounds(Hist::index(v));
            assert!(lo <= v && v < hi, "{v} not in [{lo}, {hi})");
        }
        for i in 0..super::BUCKETS - 1 {
            assert_eq!(
                Hist::bounds(i).1,
                Hist::bounds(i + 1).0,
                "gap after bucket {i}"
            );
        }
    }
}
