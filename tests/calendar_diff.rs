//! Differential property tests: the ring calendar must be observationally
//! identical to the binary-heap oracle — same `(time, event)` trace
//! (including tie order), same executed/pending counts, and no residue
//! after a full drain — under random schedule/run sequences spanning the
//! current window, the ring, and the overflow beyond it, and under
//! tie-heavy self-scheduling plans.
//!
//! Runs on the in-tree `paradyn_stats::check` harness. Rerun a reported
//! failure with `PARADYN_PROP_SEED=<seed> cargo test <property name>`.

use paradyn_des::{CalendarKind, Ctx, Model, Sim, SimDur, SimTime, RING_SPAN_NS, WINDOW_NS};
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
    /// Schedule at `now + delay`.
    Schedule { delay: u64, ev: u32 },
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
            0..=6 => Op::Schedule {
                // Scaled so ties (delay 0 and equal delays) are common.
                delay: g.u64_in(0, 8) * SCALES[g.index(SCALES.len())],
                ev: g.u64_in(0, u32::MAX as u64) as u32,
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
    for op in ops {
        match *op {
            Op::Schedule { delay, ev } => sim.ctx().post_in(SimDur::from_nanos(delay), ev),
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

/// After a full drain both backends report zero pending events and the
/// ring has no occupied list left.
#[test]
fn drained_calendars_have_no_residue() {
    check("drained_calendars_have_no_residue", |g| {
        let ops = gen_ops(g);
        for kind in [CalendarKind::Wheel, CalendarKind::Heap] {
            let mut sim = drive(kind, &ops);
            prop_assert_eq!(sim.ctx().pending_events(), 0);
            let s = sim.ctx().calendar_stats();
            prop_assert_eq!(s.live, 0);
            prop_assert!(
                kind == CalendarKind::Heap || s.occupied_buckets == 0,
                "drained wheel still has occupied buckets"
            );
        }
        Ok(())
    });
}

/// `pending_events` is exact at every intermediate point: it equals the
/// number of scheduled-but-unfired events, tracked by a reference count
/// alongside the real calendar.
#[test]
fn pending_count_matches_reference() {
    check("pending_count_matches_reference", |g| {
        let ops = gen_ops(g);
        for kind in [CalendarKind::Wheel, CalendarKind::Heap] {
            let mut sim = Sim::with_calendar(Recorder { trace: vec![] }, kind);
            let mut scheduled = 0usize;
            for op in &ops {
                match *op {
                    Op::Schedule { delay, .. } => {
                        // Event payload = schedule index, so the trace tells
                        // us exactly which schedules fired.
                        sim.ctx()
                            .post_in(SimDur::from_nanos(delay), scheduled as u32);
                        scheduled += 1;
                    }
                    Op::Run { dur } => {
                        let horizon = sim.now() + SimDur::from_nanos(dur);
                        sim.run_until(horizon);
                    }
                }
                let expect = scheduled - sim.model.trace.len();
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

/// Scripted model for the tie-heavy plans: event `id` spawns one
/// follow-up per entry of `plan[id]`, each after that entry's delay. All
/// state that decides behaviour is updated only through handler
/// execution, so any difference in delivery order shows up in the trace.
struct Scripted {
    plan: Vec<Vec<u64>>,
    trace: Vec<(u64, u32)>,
    spawned: usize,
    max_spawns: usize,
}

impl Model for Scripted {
    type Event = u32;
    fn handle(&mut self, ctx: &mut Ctx<u32>, ev: u32) {
        self.trace.push((ctx.now().as_nanos(), ev));
        for i in 0..self.plan[ev as usize].len() {
            if self.spawned >= self.max_spawns {
                return;
            }
            self.spawned += 1;
            let id = ((self.spawned * 7 + 3) % self.plan.len()) as u32;
            ctx.post_in(SimDur::from_nanos(self.plan[ev as usize][i]), id);
        }
    }
}

/// Tie-heavy delays: mostly zero (same instant as the spawner) or shared
/// small multiples, plus a few jumps across windows.
fn gen_tie_delay(g: &mut paradyn_stats::Gen) -> u64 {
    const TIE_SCALES: [u64; 5] = [0, 1, 64, 4096, 262_144];
    g.u64_in(0, 3) * TIE_SCALES[g.index(TIE_SCALES.len())]
}

/// A tie-heavy plan: its spawn delays, then seed events scheduled at
/// shared instants so the very first delivery is already a tie run.
fn gen_plan(g: &mut paradyn_stats::Gen) -> (Vec<Vec<u64>>, Vec<(u64, u32)>) {
    let plan: Vec<Vec<u64>> = (0..g.usize_in(2, 24))
        .map(|_| (0..g.usize_in(0, 3)).map(|_| gen_tie_delay(g)).collect())
        .collect();
    let seeds = (0..g.usize_in(1, 16))
        .map(|_| (gen_tie_delay(g), g.usize_in(0, plan.len() - 1) as u32))
        .collect();
    (plan, seeds)
}

fn build_scripted(kind: CalendarKind, plan: &[Vec<u64>], seeds: &[(u64, u32)]) -> Sim<Scripted> {
    let model = Scripted {
        plan: plan.to_vec(),
        trace: vec![],
        spawned: 0,
        max_spawns: 400,
    };
    let mut sim = Sim::with_calendar(model, kind);
    for &(at, id) in seeds {
        sim.ctx().post_at(SimTime::from_nanos(at), id);
    }
    sim
}

/// Tie-heavy plans (zero-delay spawns, shared small delays) give the same
/// trace on the ring as on the heap, and `run_until` equals stepping one
/// event at a time.
#[test]
fn tie_heavy_plans_match_heap_oracle() {
    check("tie_heavy_plans_match_heap_oracle", |g| {
        let (plan, seeds) = gen_plan(g);
        let mut traces = vec![];
        for kind in [CalendarKind::Wheel, CalendarKind::Heap] {
            let mut run = build_scripted(kind, &plan, &seeds);
            run.run_until(SimTime::MAX);
            let mut stepped = build_scripted(kind, &plan, &seeds);
            while stepped.step() {}
            prop_assert_eq!(&run.model.trace, &stepped.model.trace);
            prop_assert_eq!(run.executed_events(), stepped.executed_events());
            prop_assert_eq!(run.ctx().pending_events(), 0);
            traces.push(run.model.trace);
        }
        prop_assert_eq!(&traces[0], &traces[1]);
        Ok(())
    });
}

/// Horizon stops inside tie runs do not change the trace: running a
/// tie-heavy plan in many small slices equals one full-drain run on the
/// heap oracle.
#[test]
fn horizon_split_runs_match_heap_oracle() {
    check("horizon_split_runs_match_heap_oracle", |g| {
        let (plan, seeds) = gen_plan(g);
        let mut whole = build_scripted(CalendarKind::Heap, &plan, &seeds);
        whole.run_until(SimTime::MAX);
        for kind in [CalendarKind::Wheel, CalendarKind::Heap] {
            let mut sliced = build_scripted(kind, &plan, &seeds);
            let mut horizon = 0u64;
            while sliced.ctx().pending_events() > 0 {
                horizon += 1 + g.u64_in(0, 4096);
                sliced.run_until(SimTime::from_nanos(horizon));
            }
            prop_assert_eq!(&whole.model.trace, &sliced.model.trace);
            prop_assert_eq!(whole.executed_events(), sliced.executed_events());
        }
        Ok(())
    });
}

/// Timers rescheduled at most this far ahead: the whole bank stays within
/// an eighth of a window, so one window always holds most of it.
const DENSE_GAP: u64 = WINDOW_NS / 8;

/// A dense bank of self-rescheduling timers (ids below `timers`) plus
/// one-shot events (higher ids): each timer firing re-arms itself a short,
/// varying gap later until `budget` runs out.
struct Dense {
    trace: Vec<(u64, u32)>,
    timers: u32,
    budget: u64,
}

impl Model for Dense {
    type Event = u32;
    fn handle(&mut self, ctx: &mut Ctx<u32>, id: u32) {
        self.trace.push((ctx.now().as_nanos(), id));
        if id < self.timers && self.budget > 0 {
            self.budget -= 1;
            // Gaps from 0 ns: same-instant ties are common.
            let gap = (id as u64 * 2_654_435_761 + self.budget) % DENSE_GAP;
            ctx.post_in(SimDur::from_nanos(gap), id);
        }
    }
}

/// A dense-window run: 1024+ timers live inside one window, one-shot
/// events around the ring span (so they migrate from the overflow while
/// the bank is live), and horizon stops.
struct DenseCase {
    timers: u32,
    budget: u64,
    one_shots: Vec<u64>,
    /// Horizon stops, each this many ns past the clock.
    stops: Vec<u64>,
}

fn gen_dense(g: &mut paradyn_stats::Gen) -> DenseCase {
    let timers = g.u64_in(1024, 1100) as u32;
    let one_shots = (0..g.usize_in(1, 12))
        .map(|_| RING_SPAN_NS - WINDOW_NS + g.u64_in(0, 3 * WINDOW_NS))
        .collect();
    // Horizon stops that together stay inside the budget's first window.
    let stops = (0..g.usize_in(1, 18))
        .map(|_| g.u64_in(0, DENSE_GAP / 2))
        .collect();
    DenseCase {
        timers,
        // Firings for about two and a half windows (the mean gap is
        // DENSE_GAP / 2): the one-shots migrate while the bank is live.
        budget: 5 * WINDOW_NS * timers as u64 / DENSE_GAP,
        one_shots,
        stops,
    }
}

fn drive_dense(kind: CalendarKind, case: &DenseCase) -> (Sim<Dense>, usize) {
    let model = Dense {
        trace: vec![],
        timers: case.timers,
        budget: case.budget,
    };
    let mut sim = Sim::with_calendar(model, kind);
    for id in 0..case.timers {
        sim.ctx()
            .post_at(SimTime::from_nanos(id as u64 % DENSE_GAP), id);
    }
    for (i, &at) in case.one_shots.iter().enumerate() {
        let id = case.timers + i as u32;
        sim.ctx().post_at(SimTime::from_nanos(at), id);
    }
    let mut min_pending = usize::MAX;
    for &dur in &case.stops {
        let horizon = sim.now() + SimDur::from_nanos(dur);
        sim.run_until(horizon);
        min_pending = min_pending.min(sim.ctx().pending_events());
    }
    sim.run_until(SimTime::MAX);
    (sim, min_pending)
}

/// Over a thousand timers live inside one window — the ordered current
/// window under heavy out-of-order insertion, with horizon stops — while
/// one-shot events cross from the overflow into the ring: the trace still
/// matches the heap oracle's bit for bit.
#[test]
fn dense_window_matches_heap_oracle() {
    check("dense_window_matches_heap_oracle", |g| {
        let case = gen_dense(g);
        let (mut wheel, min_pending) = drive_dense(CalendarKind::Wheel, &case);
        let (heap, _) = drive_dense(CalendarKind::Heap, &case);
        prop_assert!(
            min_pending >= 1024,
            "bank thinned to {min_pending} live events"
        );
        prop_assert_eq!(&wheel.model.trace, &heap.model.trace);
        prop_assert_eq!(wheel.executed_events(), heap.executed_events());
        let s = wheel.ctx().calendar_stats();
        prop_assert!(
            (s.live, s.occupied_buckets) == (0, 0),
            "drained ring left residue: {s:?}"
        );
        Ok(())
    });
}
