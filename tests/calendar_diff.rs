//! Differential property tests: the ring calendar must be observationally
//! identical to the binary-heap oracle — same `(time, event)` trace
//! (including tie order), same executed/pending counts, and no slab
//! residue after a full drain — under random schedule/cancel/run sequences
//! spanning the current window, the ring, and the overflow beyond it.
//!
//! Runs on the in-tree `paradyn_stats::check` harness. Rerun a reported
//! failure with `PARADYN_PROP_SEED=<seed> cargo test <property name>`.

use paradyn_des::{
    CalendarKind, Ctx, EventHandle, Model, Sim, SimDur, SimTime, RING_SPAN_NS, WINDOW_NS,
};
use paradyn_stats::{check, prop_assert, prop_assert_eq};

/// Records every delivered event with its firing time.
struct Recorder {
    trace: Vec<(u64, u32)>,
}

impl Model for Recorder {
    type Event = u32;
    fn handle(&mut self, ctx: &mut Ctx<u32>, ev: u32) {
        self.trace.push((ctx.now().as_nanos(), ev));
    }
}

/// One generated operation, applied identically to both backends.
enum Op {
    /// Schedule at `now + delay`; the returned handle is retained.
    Schedule { delay: u64, ev: u32 },
    /// Cancel the `idx % handles.len()`-th retained handle (possibly
    /// stale: already fired or already cancelled).
    Cancel { idx: usize },
    /// Advance the clock by `dur` (a horizon stop, not an event).
    Run { dur: u64 },
}

/// Delay scales: six spread from 1 ns to 2^36 ns, then the ring's own
/// geometry — the window width, and the ring span with one window either
/// side of it, where placement flips between ring and overflow.
const SCALES: [u64; 10] = [
    1,
    64,
    4096,
    262_144,
    1 << 24,
    1 << 36,
    WINDOW_NS,
    RING_SPAN_NS - WINDOW_NS,
    RING_SPAN_NS,
    RING_SPAN_NS + WINDOW_NS,
];

fn gen_ops(g: &mut paradyn_stats::Gen) -> Vec<Op> {
    let n = g.usize_in(1, 120);
    (0..n)
        .map(|_| match g.u64_in(0, 9) {
            0..=5 => Op::Schedule {
                // Scaled so ties (delay 0 and equal delays) are common.
                delay: g.u64_in(0, 8) * SCALES[g.index(SCALES.len())],
                ev: g.u64_in(0, u32::MAX as u64) as u32,
            },
            6..=7 => Op::Cancel {
                idx: g.usize_in(0, 4096),
            },
            _ => Op::Run {
                dur: g.u64_in(0, 4) * SCALES[g.index(SCALES.len())],
            },
        })
        .collect()
}

/// Drive one backend through `ops`, then drain it completely.
fn drive(kind: CalendarKind, ops: &[Op]) -> Sim<Recorder> {
    let mut sim = Sim::with_calendar(Recorder { trace: vec![] }, kind);
    let mut handles: Vec<EventHandle> = vec![];
    for op in ops {
        match *op {
            Op::Schedule { delay, ev } => {
                let h = sim.ctx().schedule_in(SimDur::from_nanos(delay), ev);
                handles.push(h);
            }
            Op::Cancel { idx } => {
                if !handles.is_empty() {
                    let h = handles[idx % handles.len()];
                    sim.ctx().cancel(h);
                }
            }
            Op::Run { dur } => {
                let horizon = sim.now() + SimDur::from_nanos(dur);
                sim.run_until(horizon);
            }
        }
    }
    sim.run_until(SimTime::MAX);
    sim
}

/// The wheel and the heap produce bit-identical `(time, event)` traces —
/// including tie order — and agree on every observable counter.
#[test]
fn wheel_matches_heap_oracle() {
    check("wheel_matches_heap_oracle", |g| {
        let ops = gen_ops(g);
        let wheel = drive(CalendarKind::Wheel, &ops);
        let heap = drive(CalendarKind::Heap, &ops);
        prop_assert_eq!(&wheel.model.trace, &heap.model.trace);
        prop_assert_eq!(wheel.executed_events(), heap.executed_events());
        Ok(())
    });
}

/// After a full drain both backends report zero pending events and have
/// recycled every slab slot — cancellation leaves no residue.
#[test]
fn drained_calendars_have_no_residue() {
    check("drained_calendars_have_no_residue", |g| {
        let ops = gen_ops(g);
        for kind in [CalendarKind::Wheel, CalendarKind::Heap] {
            let mut sim = drive(kind, &ops);
            prop_assert_eq!(sim.ctx().pending_events(), 0);
            let s = sim.ctx().calendar_stats();
            prop_assert_eq!(s.live, 0);
            prop_assert!(s.cancelled_pending == 0, "cancelled entries left behind");
            prop_assert!(s.slab_free == s.slab_slots, "leaked slab slots");
            prop_assert!(
                kind == CalendarKind::Heap || s.occupied_buckets == 0,
                "drained wheel still has occupied buckets"
            );
        }
        Ok(())
    });
}

/// `pending_events` is exact at every intermediate point: it equals the
/// number of scheduled-but-unfired events minus effective cancellations,
/// tracked by a reference count alongside the real calendar.
#[test]
fn pending_count_matches_reference() {
    check("pending_count_matches_reference", |g| {
        let ops = gen_ops(g);
        #[derive(PartialEq, Clone, Copy)]
        enum St {
            Pending,
            Cancelled,
            Fired,
        }
        for kind in [CalendarKind::Wheel, CalendarKind::Heap] {
            let mut sim = Sim::with_calendar(Recorder { trace: vec![] }, kind);
            let mut handles: Vec<EventHandle> = vec![];
            let mut state: Vec<St> = vec![];
            for op in &ops {
                match *op {
                    Op::Schedule { delay, .. } => {
                        // Event payload = handle index, so the trace tells
                        // us exactly which schedules fired.
                        let ev = handles.len() as u32;
                        handles.push(sim.ctx().schedule_in(SimDur::from_nanos(delay), ev));
                        state.push(St::Pending);
                    }
                    Op::Cancel { idx } => {
                        if !handles.is_empty() {
                            let k = idx % handles.len();
                            sim.ctx().cancel(handles[k]);
                            // A cancel only takes effect on a pending event;
                            // on fired/cancelled handles it is a stale no-op.
                            if state[k] == St::Pending {
                                state[k] = St::Cancelled;
                            }
                        }
                    }
                    Op::Run { dur } => {
                        let horizon = sim.now() + SimDur::from_nanos(dur);
                        sim.run_until(horizon);
                        for &(_, ev) in &sim.model.trace {
                            state[ev as usize] = St::Fired;
                        }
                    }
                }
                let expect = state.iter().filter(|&&s| s == St::Pending).count();
                prop_assert!(
                    sim.ctx().pending_events() == expect,
                    "{:?}: pending_events {} != reference {}",
                    kind,
                    sim.ctx().pending_events(),
                    expect
                );
            }
        }
        Ok(())
    });
}

/// Timers rescheduled at most this far ahead: the whole bank stays within
/// an eighth of a window, so one window always holds most of it.
const DENSE_GAP: u64 = WINDOW_NS / 8;

/// Operations per dense-window case.
const MAX_OPS: usize = 24;

/// A dense bank of self-rescheduling timers (ids below `handles.len()`)
/// plus one-shot events (higher ids): each timer firing re-arms itself a
/// short, varying gap later until `budget` runs out.
struct Dense {
    trace: Vec<(u64, u32)>,
    handles: Vec<EventHandle>,
    budget: u64,
}

impl Model for Dense {
    type Event = u32;
    fn handle(&mut self, ctx: &mut Ctx<u32>, id: u32) {
        self.trace.push((ctx.now().as_nanos(), id));
        if (id as usize) < self.handles.len() && self.budget > 0 {
            self.budget -= 1;
            // Gaps from 0 ns: same-instant ties are common.
            let gap = (id as u64 * 2_654_435_761 + self.budget) % DENSE_GAP;
            self.handles[id as usize] = ctx.schedule_in(SimDur::from_nanos(gap), id);
        }
    }
}

/// A dense-window run: 1024+ timers live inside one window, one-shot
/// events around the ring span (so they migrate from the overflow while
/// the bank is live), cancels of both kinds, and horizon stops.
struct DenseCase {
    timers: u32,
    budget: u64,
    one_shots: Vec<u64>,
    ops: Vec<Op>,
}

fn gen_dense(g: &mut paradyn_stats::Gen) -> DenseCase {
    let timers = g.u64_in(1024, 1100) as u32;
    let one_shots = (0..g.usize_in(1, 12))
        .map(|_| RING_SPAN_NS - WINDOW_NS + g.u64_in(0, 3 * WINDOW_NS))
        .collect();
    // At most MAX_OPS cancels, and horizon stops that together stay
    // inside the budget's first window.
    let ops = (0..g.usize_in(1, MAX_OPS))
        .map(|_| match g.u64_in(0, 3) {
            0 => Op::Cancel {
                idx: g.usize_in(0, 4096),
            },
            _ => Op::Run {
                dur: g.u64_in(0, DENSE_GAP / 2),
            },
        })
        .collect();
    DenseCase {
        timers,
        // Firings for about two and a half windows (the mean gap is
        // DENSE_GAP / 2): the one-shots migrate while the bank is live.
        budget: 5 * WINDOW_NS * timers as u64 / DENSE_GAP,
        one_shots,
        ops,
    }
}

fn drive_dense(kind: CalendarKind, case: &DenseCase) -> (Sim<Dense>, usize) {
    let model = Dense {
        trace: vec![],
        handles: vec![],
        budget: case.budget,
    };
    let mut sim = Sim::with_calendar(model, kind);
    for id in 0..case.timers {
        let h = sim
            .ctx()
            .schedule_at(SimTime::from_nanos(id as u64 % DENSE_GAP), id);
        sim.model.handles.push(h);
    }
    let mut one_shots = vec![];
    for (i, &at) in case.one_shots.iter().enumerate() {
        let id = case.timers + i as u32;
        one_shots.push(sim.ctx().schedule_at(SimTime::from_nanos(at), id));
    }
    let mut min_pending = usize::MAX;
    for op in &case.ops {
        match *op {
            Op::Cancel { idx } => {
                // Timers (possibly stale handles) and one-shots alike.
                let n = sim.model.handles.len() + one_shots.len();
                let k = idx % n;
                let h = match sim.model.handles.get(k) {
                    Some(&h) => h,
                    None => one_shots[k - sim.model.handles.len()],
                };
                sim.ctx().cancel(h);
            }
            Op::Run { dur } => {
                let horizon = sim.now() + SimDur::from_nanos(dur);
                sim.run_until(horizon);
                min_pending = min_pending.min(sim.ctx().pending_events());
            }
            Op::Schedule { .. } => unreachable!("not generated for dense cases"),
        }
    }
    sim.run_until(SimTime::MAX);
    (sim, min_pending)
}

/// Over a thousand timers live inside one window — the ordered current
/// window under heavy out-of-order insertion, with cancels and horizon
/// stops — while one-shot events cross from the overflow into the ring:
/// the trace still matches the heap oracle's bit for bit.
#[test]
fn dense_window_matches_heap_oracle() {
    check("dense_window_matches_heap_oracle", |g| {
        let case = gen_dense(g);
        let (mut wheel, min_pending) = drive_dense(CalendarKind::Wheel, &case);
        let (heap, _) = drive_dense(CalendarKind::Heap, &case);
        prop_assert!(
            min_pending >= 1024 - MAX_OPS,
            "bank thinned to {min_pending} live events"
        );
        prop_assert_eq!(&wheel.model.trace, &heap.model.trace);
        prop_assert_eq!(wheel.executed_events(), heap.executed_events());
        let s = wheel.ctx().calendar_stats();
        prop_assert!(
            (s.live, s.cancelled_pending, s.occupied_buckets) == (0, 0, 0),
            "drained ring left residue: {s:?}"
        );
        Ok(())
    });
}
