//! Steady-state zero-allocation gate for the DES hot path (DESIGN.md §10).
//!
//! After a warmup long enough for every buffer on the delivery loop to
//! reach its stable capacity — the ring calendar's entry arena, its `due`
//! run and overflow heap, the heap backend's `BinaryHeap` — a steady-state
//! window of ~10^5 delivered events must produce **zero** heap operations,
//! for both calendar backends.
//!
//! The ring's window and sub-window lists are threaded through the arena,
//! so its storage depends only on the peak number of pending entries and
//! the densest 64 ns sub-window, never on which windows the workload
//! touches. A few milliseconds of this timer pattern reach both peaks;
//! the 18 ms warmup below covers that with a wide margin.
//!
//! This is the cause-side gate for the `hot-path-alloc` lint rule and the
//! perf ratchet: wall-clock benches show the symptom of an alloc
//! regression (through machine noise); this test pins the mechanism.

use paradyn_allocguard::{checkpoint, CountingAlloc};
use paradyn_des::{CalendarKind, Ctx, Model, Sim, SimDur, SimTime};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// 64 free-running timers with deterministic, id-staggered gaps around
/// 5 µs: keeps the calendar populated and shuffled, cycles through every
/// ring window many times per second, and exercises the same schedule/pop
/// path as the model workloads.
struct Timers;

impl Model for Timers {
    type Event = u32;
    fn handle(&mut self, ctx: &mut Ctx<u32>, id: u32) {
        let gap = 2_000 + (id as u64).wrapping_mul(2654435761) % 6_000;
        ctx.post_in(SimDur::from_nanos(gap), id);
    }
}

/// Run one backend through warmup and a measured steady-state window;
/// returns (heap operations in window, events delivered in window).
fn steady_state(kind: CalendarKind) -> (u64, u64) {
    const TIMERS: u32 = 64;
    // Thousands of timer periods: every buffer has reached its peak.
    const WARMUP: u64 = 18_000_000;
    // About 10 ms of steady state, well over the event floor below.
    const END: u64 = 28_000_000;

    let mut sim = Sim::with_calendar(Timers, kind);
    for id in 0..TIMERS {
        sim.ctx().post_at(SimTime::from_nanos(id as u64), id);
    }
    sim.run_until(SimTime::from_nanos(WARMUP));
    let warm_events = sim.executed_events();

    let mark = checkpoint();
    sim.run_until(SimTime::from_nanos(END));
    let traffic = mark.heap_traffic_since();

    (traffic, sim.executed_events() - warm_events)
}

#[test]
fn steady_state_is_allocation_free_on_both_backends() {
    for kind in [CalendarKind::Heap, CalendarKind::Wheel] {
        let (traffic, events) = steady_state(kind);
        assert!(
            events > 100_000,
            "{kind:?}: window too small to be meaningful ({events} events)"
        );
        assert_eq!(
            traffic, 0,
            "{kind:?}: {traffic} heap operation(s) across {events} steady-state \
             events — a delivery-loop buffer is being reallocated per event"
        );
    }
}
