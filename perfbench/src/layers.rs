//! Per-layer measurements outside the traced model run: calendar cost at a
//! given depth, distribution draws, pipe accounting, the `repro` artifacts
//! and the real-thread testbed grid. Each runs through the layer's public
//! API from outside, so it measures what the model and `repro` call.

use crate::clock::{process_cpu_s, Clock};
use paradyn_bench::testbed_figs::fig30_grid;
use paradyn_bench::{run_artifact, Scale};
use paradyn_core::model::stream_kind;
use paradyn_core::{OverflowPolicy, Pipe};
use paradyn_des::{CalendarKind, Ctx, Model, Sim, SimDur, SimTime, Streams};
use paradyn_stats::Rv;
use paradyn_testbed::Policy;
use std::hint::black_box;

/// Repetitions of each micro-measurement; the median is reported.
const REPS: usize = 5;

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

/// Median over [`REPS`] runs of `f`, which returns nanoseconds per op.
fn median_of(mut f: impl FnMut() -> f64) -> f64 {
    median((0..REPS).map(|_| f()).collect())
}

/// Self-rescheduling timers: every event re-posts itself after a fixed
/// per-timer gap, so the calendar holds exactly K live events throughout.
struct Timers {
    remaining: u64,
}

impl Model for Timers {
    type Event = u32;
    fn handle(&mut self, ctx: &mut Ctx<u32>, id: u32) {
        if self.remaining > 0 {
            self.remaining -= 1;
            // Deterministic pseudo-random gap keeps the calendar shuffled.
            let gap = 50 + (id as u64).wrapping_mul(2_654_435_761) % 1000;
            ctx.post_in(SimDur::from_nanos(gap), id);
        }
    }
}

/// Engine + calendar nanoseconds per event (pop, dispatch, re-post) with
/// `k` events pending on calendar `kind`.
pub fn calendar_op_ns(k: usize, kind: CalendarKind) -> f64 {
    const EVENTS: u64 = 2_000_000;
    let k = k.max(1);
    median_of(|| {
        let mut sim = Sim::with_calendar(Timers { remaining: EVENTS }, kind);
        for id in 0..k as u32 {
            sim.ctx().post_at(SimTime::from_nanos(id as u64), id);
        }
        let c = Clock::new();
        sim.run_until(SimTime::MAX);
        c.ns() as f64 / sim.executed_events() as f64
    })
}

/// Nanoseconds per draw of `rv` from a model stream.
pub fn sample_ns(rv: &Rv, seed: u64) -> f64 {
    const DRAWS: u32 = 2_000_000;
    median_of(|| {
        let mut rng = Streams::new(seed).stream3(stream_kind::APP_CPU, 0, 0);
        let c = Clock::new();
        let mut acc = 0.0;
        for _ in 0..DRAWS {
            acc += rv.sample(&mut rng);
        }
        black_box(acc);
        c.ns() as f64 / DRAWS as f64
    })
}

/// Nanoseconds per `deposit` + `drain` pair on a pipe of `capacity`.
pub fn deposit_drain_ns(capacity: usize, policy: OverflowPolicy) -> f64 {
    const PAIRS: u64 = 5_000_000;
    median_of(|| {
        let mut pipe = Pipe::with_policy(capacity, policy);
        let c = Clock::new();
        for i in 0..PAIRS {
            black_box(pipe.deposit(SimTime::from_nanos(i)));
            black_box(pipe.drain());
        }
        c.ns() as f64 / PAIRS as f64
    })
}

/// A named interval on the benchmark's clock.
pub struct Span {
    /// What ran.
    pub name: String,
    /// The span that caused it.
    pub parent: &'static str,
    /// Start, ns on the run's clock.
    pub start_ns: u64,
    /// End, ns on the run's clock.
    pub end_ns: u64,
}

/// Host cost of one `repro` artifact call.
pub struct ArtifactCost {
    /// Artifact id.
    pub id: &'static str,
    /// Wall seconds.
    pub wall_s: f64,
    /// Process CPU seconds, all threads.
    pub cpu_s: f64,
}

/// Run each artifact in-process, as `repro` does, recording its span.
pub fn artifacts(
    ids: &[&'static str],
    scale: &Scale,
    clock: &Clock,
    spans: &mut Vec<Span>,
) -> Result<Vec<ArtifactCost>, String> {
    let mut out = vec![];
    for &id in ids {
        let cpu0 = process_cpu_s()?;
        let start_ns = clock.ns();
        if !run_artifact(id, scale) {
            return Err(format!("unknown artifact {id}"));
        }
        let end_ns = clock.ns();
        out.push(ArtifactCost {
            id,
            wall_s: (end_ns - start_ns) as f64 * 1e-9,
            cpu_s: process_cpu_s()? - cpu0,
        });
        spans.push(Span {
            name: format!("bench.artifact.{id}"),
            parent: "artifacts",
            start_ns,
            end_ns,
        });
    }
    Ok(out)
}

/// Daemon CPU and forward operations per received sample, per policy,
/// summed over the grid's sampling periods.
pub struct TestbedCost {
    /// Wall seconds of one `fig30_grid` call.
    pub grid_wall_s: f64,
    /// Daemon CPU µs per sample: (CF, BF).
    pub pd_cpu_us_per_sample: (f64, f64),
    /// Forward operations per sample: (CF, BF).
    pub forward_ops_per_sample: (f64, f64),
}

/// Time one Figure 30 grid and derive the paper's per-sample overheads.
/// Fails if any cell received no samples.
pub fn testbed(scale: &Scale, clock: &Clock, spans: &mut Vec<Span>) -> Result<TestbedCost, String> {
    let start_ns = clock.ns();
    let grid = fig30_grid(scale);
    let end_ns = clock.ns();
    spans.push(Span {
        name: "testbed.grid".into(),
        parent: "trace",
        start_ns,
        end_ns,
    });
    // (pd cpu µs, forward ops, samples) per policy.
    let mut sums = [(0.0, 0u64, 0u64); 2];
    for (policy, period_ms, m) in &grid {
        if m.samples_received == 0 {
            return Err(format!(
                "testbed {policy:?} at {period_ms} ms received no samples"
            ));
        }
        let s = &mut sums[usize::from(!matches!(policy, Policy::Cf))];
        s.0 += m.pd_cpu.as_secs_f64() * 1e6;
        s.1 += m.forward_ops;
        s.2 += m.samples_received;
    }
    let per = |i: usize| {
        (
            sums[i].0 / sums[i].2 as f64,
            sums[i].1 as f64 / sums[i].2 as f64,
        )
    };
    let (cf, bf) = (per(0), per(1));
    Ok(TestbedCost {
        grid_wall_s: (end_ns - start_ns) as f64 * 1e-9,
        pd_cpu_us_per_sample: (cf.0, bf.0),
        forward_ops_per_sample: (cf.1, bf.1),
    })
}
