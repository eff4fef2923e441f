//! Event calendars: a ring calendar (the default, selected as
//! [`CalendarKind::Wheel`]) and the binary-heap oracle, behind one
//! schedule/pop interface.
//!
//! Every entry is fire-and-forget: once scheduled it stays pending until
//! it is delivered, so storage holds exactly the pending events and
//! delivery never has to skip anything.
//!
//! ## Why a ring
//!
//! A `BinaryHeap` ordered by `(time, seq)` pays O(log n) per operation over
//! the whole pending set. The ring replaces that with an O(1) link into a
//! time window, and orders only the events of the window being delivered.
//!
//! ## Ring geometry (see DESIGN.md §5.7)
//!
//! * Every pending entry is written once, into a free-listed **arena**
//!   whose length is the peak number of entries pending at once. Nothing
//!   else holds an event payload; lists link arena nodes by `u32` index.
//! * Time is cut into windows of [`WINDOW_NS`] = 2^14 ns. A fixed ring of
//!   [`RING_WINDOWS`] = 4096 windows covers [`RING_SPAN_NS`] ≈ 67 ms from
//!   the **current window** (the one being delivered). A ring window is one
//!   `u32` head of an unsorted list plus one bit in an occupancy bitmap, so
//!   the next occupied window is a `trailing_zeros` scan over 64 words.
//! * The current window is kept in `(at, seq)` order in two steps: its 256
//!   sub-windows of 64 ns are lists of the same kind, and the earliest
//!   occupied one is moved into `due`, a sorted run delivered from the
//!   front. An entry scheduled into (or, after a horizon stop, behind) the
//!   sub-window being delivered is spliced into `due` from the back.
//! * Entries beyond the ring's span wait in a small overflow min-heap and
//!   move into the ring as the current window advances.
//!
//! The geometry is a fixed constant chosen by measurement, with no tuning
//! knob: the model's millisecond-scale delays land a few hundred windows
//! ahead, and a 64 ns sub-window keeps even a dense bank of a thousand
//! short timers (the `timers_1024` bench) at a handful of entries per
//! sort. A single ordered structure per window — a sorted run or a heap —
//! was measured too and lost on that bench.
//!
//! ## Determinism argument
//!
//! Events must fire in `(time, seq)` order with ties in schedule order, bit
//! for bit identical to the heap. The ring guarantees this structurally:
//!
//! 1. entries are partitioned by time: `due` holds every entry before the
//!    sub-window bound `due_end`, the sub-window lists the rest of the
//!    current window, the ring strictly later windows inside the span, and
//!    the overflow everything beyond — so `due`'s front is always the
//!    global `(time, seq)` minimum;
//! 2. `due` is sorted on every path that fills it (a sort when a
//!    sub-window moves in, a positional splice on insertion), and lists
//!    only move forward in time — sub-window into `due`, ring window into
//!    sub-windows, overflow into the ring — so order never depends on
//!    placement history;
//! 3. `seq` is globally unique, so `(at, seq)` order is total.
//!
//! The differential property test (`tests/calendar_diff.rs`) drives random
//! schedule/run sequences and tie-heavy self-scheduling plans through both
//! backends and asserts identical `(time, event)` traces.

use crate::time::SimTime;

use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;

/// Window-width shift: a ring window spans `2^WINDOW_BITS` nanoseconds.
const WINDOW_BITS: u32 = 14;
/// Width of one ring window in nanoseconds.
pub const WINDOW_NS: u64 = 1 << WINDOW_BITS;
/// Windows in the ring, the current one's slot included.
pub const RING_WINDOWS: usize = 4096;
/// Time the ring covers: an entry at least this far past the start of the
/// current window waits in the overflow heap.
pub const RING_SPAN_NS: u64 = WINDOW_NS * RING_WINDOWS as u64;
/// Mask from an absolute window number to its ring slot.
const RING_MASK: u64 = RING_WINDOWS as u64 - 1;
/// 64-bit words in the ring-occupancy bitmap.
const WORDS: usize = RING_WINDOWS / 64;
/// End of an arena list (empty ring window, empty free list).
const NIL: u32 = u32::MAX;

/// Absolute window number of a time.
#[inline]
fn window(at: u64) -> u64 {
    at >> WINDOW_BITS
}

/// Which calendar implementation a [`crate::Sim`] uses.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CalendarKind {
    /// Ring calendar over a recycled entry arena: O(1) schedule, ordering
    /// work only within the current window. The default.
    Wheel,
    /// The binary heap: O(log n) schedule/pop, kept as the
    /// differential-testing oracle (selected by name only).
    Heap,
}

/// Point-in-time occupancy counters of a calendar (also emitted into
/// `BENCH_des.json` by the kernel benches).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CalendarStats {
    /// Pending events.
    pub live: usize,
    /// Non-empty ring lists: occupied ring windows plus occupied
    /// sub-windows of the current window (0 for the heap backend).
    pub occupied_buckets: usize,
    /// Entry storage allocated: the ring's arena length, which is the peak
    /// number of entries pending at once; the heap's `Vec` capacity.
    pub arena_slots: usize,
}

/// A pending event as stored by the heap backend.
struct Entry<E> {
    at: u64,
    seq: u64,
    ev: E,
}

// Heap ordering: earliest (time, seq) first under `Reverse`.
impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

/// One arena node: a pending entry, linked into a ring window's list (or
/// the free list) through `next`. `ev` is `None` only while the node is
/// free.
struct Node<E> {
    at: u64,
    seq: u64,
    next: u32,
    ev: Option<E>,
}

/// Ordering key of an entry in `due` and the overflow heap: `(at, seq)`
/// plus the arena node holding its payload.
#[derive(Clone, Copy)]
struct Key {
    at: u64,
    seq: u64,
    node: u32,
}

impl PartialEq for Key {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl Eq for Key {}
impl PartialOrd for Key {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Key {
    fn cmp(&self, other: &Self) -> Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

/// Sub-window width shift inside the current window: the current window
/// is cut into `2^(WINDOW_BITS - SUB_BITS)` = 256 sub-windows of 64 ns.
const SUB_BITS: u32 = 6;
/// Sub-windows per window.
const SUBS: usize = 1 << (WINDOW_BITS - SUB_BITS);

/// Absolute sub-window number of a time.
#[inline]
fn sub_window(at: u64) -> u64 {
    at >> SUB_BITS
}

/// The ring calendar (see the module docs for its geometry).
struct Wheel<E> {
    /// Every pending entry, plus free nodes chained from `free`.
    nodes: Vec<Node<E>>,
    /// Head of the free-node list.
    free: u32,
    /// Absolute window number of the current window.
    base: u64,
    /// Absolute sub-window number bounding `due`: entries in earlier
    /// sub-windows are in `due`, the rest of the current window's in `subs`.
    due_end: u64,
    /// Entries before `due_end`, sorted by `(at, seq)`, delivered from
    /// `head`.
    due: Vec<Key>,
    head: usize,
    /// Per current-window sub-window at or after `due_end`, the head of
    /// its node list.
    subs: [u32; SUBS],
    /// One bit per sub-window: set iff its list is non-empty.
    subs_occupied: [u64; SUBS / 64],
    /// Per ring slot, the head of its window's node list.
    heads: Vec<u32>,
    /// One bit per ring slot: set iff its list is non-empty.
    occupied: [u64; WORDS],
    /// Entries at least [`RING_SPAN_NS`] past the current window's start.
    overflow: BinaryHeap<Reverse<Key>>,
}

/// Lowest set bit at index `from` or above in `bits`, if any.
#[inline]
fn first_set_from(bits: &[u64], from: usize) -> Option<usize> {
    let mut w = from >> 6;
    let mut word = *bits.get(w)? & (u64::MAX << (from & 63));
    loop {
        if word != 0 {
            return Some(w * 64 + word.trailing_zeros() as usize);
        }
        w += 1;
        word = *bits.get(w)?;
    }
}

impl<E> Wheel<E> {
    fn new() -> Wheel<E> {
        Wheel {
            // lint:allow(hot-path-alloc): construction-time; the arena grows to peak pending and is then recycled
            nodes: Vec::new(),
            free: NIL,
            base: 0,
            due_end: 0,
            // lint:allow(hot-path-alloc): construction-time; grows to the densest sub-window, then reused
            due: Vec::new(),
            head: 0,
            subs: [NIL; SUBS],
            subs_occupied: [0; SUBS / 64],
            heads: vec![NIL; RING_WINDOWS],
            occupied: [0; WORDS],
            overflow: BinaryHeap::new(),
        }
    }

    /// Write an entry into a free node (or a new one) and return its index.
    #[inline]
    fn alloc(&mut self, at: u64, seq: u64, ev: E) -> u32 {
        let node = Node {
            at,
            seq,
            next: NIL,
            ev: Some(ev),
        };
        if self.free == NIL {
            self.nodes.push(node);
            return (self.nodes.len() - 1) as u32;
        }
        let n = self.free;
        self.free = self.nodes[n as usize].next;
        self.nodes[n as usize] = node;
        n
    }

    /// Return a node to the free list, handing back its payload (`Some`
    /// for every node that holds an entry).
    #[inline]
    fn release(&mut self, n: u32) -> Option<E> {
        let node = &mut self.nodes[n as usize];
        node.next = self.free;
        self.free = n;
        node.ev.take()
    }

    /// Splice a key into `due` at its `(at, seq)` position. New entries
    /// carry the largest `seq` and usually the latest time, so the scan
    /// from the back is O(1) in practice; it is bounded by one 64 ns
    /// sub-window's population.
    #[inline]
    fn push_due(&mut self, k: Key) {
        let mut pos = self.due.len();
        while pos > self.head && self.due[pos - 1] > k {
            pos -= 1;
        }
        self.due.insert(pos, k);
    }

    /// Drop the `due` front, resetting the run once it is spent so its
    /// storage stays bounded by one sub-window's population.
    #[inline]
    fn pop_due(&mut self) {
        self.head += 1;
        if self.head == self.due.len() {
            self.due.clear();
            self.head = 0;
        }
    }

    /// Push node `n`, in sub-window `s` of the current window, onto that
    /// sub-window's list.
    #[inline]
    fn link_sub(&mut self, s: u64, n: u32) {
        let i = s as usize % SUBS;
        self.nodes[n as usize].next = self.subs[i];
        self.subs[i] = n;
        self.subs_occupied[i >> 6] |= 1 << (i & 63);
    }

    /// Push node `n`, in absolute window `w` strictly after the current
    /// one and inside the span, onto its ring window's list.
    #[inline]
    fn link(&mut self, w: u64, n: u32) {
        let i = (w & RING_MASK) as usize;
        self.nodes[n as usize].next = self.heads[i];
        self.heads[i] = n;
        self.occupied[i >> 6] |= 1 << (i & 63);
    }

    /// File `k` by its time: into `due`, a sub-window of the current
    /// window, a later ring window, or the overflow.
    #[inline]
    fn place(&mut self, k: Key) {
        let s = sub_window(k.at);
        if s < self.due_end {
            self.push_due(k);
            return;
        }
        // `due_end` lies inside the current window or at its end, so
        // `w >= base` here.
        let w = window(k.at);
        if w == self.base {
            if self.due.is_empty() && self.subs_occupied == [0; SUBS / 64] {
                // Nothing else is pending in this window: deliver straight
                // from `due` (a lone self-rescheduling event never touches
                // a list).
                self.due_end = s + 1;
                self.due.push(k);
            } else {
                self.link_sub(s, k.node);
            }
        } else if w - self.base < RING_WINDOWS as u64 {
            self.link(w, k.node);
        } else {
            self.overflow.push(Reverse(k));
        }
    }

    #[inline]
    fn insert(&mut self, at: u64, seq: u64, ev: E) {
        let node = self.alloc(at, seq, ev);
        self.place(Key { at, seq, node });
    }

    /// Index of the first occupied sub-window of the current window not
    /// yet moved into `due`.
    #[inline]
    fn next_sub(&self) -> Option<usize> {
        let from = self.due_end - (self.base << (WINDOW_BITS - SUB_BITS));
        first_set_from(&self.subs_occupied, from as usize)
    }

    /// Distance from the current window to the nearest occupied ring
    /// window, if any.
    fn next_occupied(&self) -> Option<u64> {
        let start = ((self.base + 1) & RING_MASK) as usize;
        let i =
            first_set_from(&self.occupied, start).or_else(|| first_set_from(&self.occupied, 0))?;
        Some(1 + ((i + RING_WINDOWS - start) as u64 & RING_MASK))
    }

    /// Move the next occupied sub-window into an empty `due`, or, when
    /// this window is spent, make the next occupied window current.
    /// Nothing moves past `horizon`: a sub-window or window that starts
    /// after it stays where it is, so an event scheduled after a horizon
    /// stop, at or after the stop, still lands at or after `due_end`.
    /// Returns whether anything moved.
    #[inline(never)]
    fn refill(&mut self, horizon: u64) -> bool {
        debug_assert!(self.due.is_empty());
        let Some(i) = self.next_sub() else {
            return self.advance(horizon);
        };
        let s = (self.base << (WINDOW_BITS - SUB_BITS)) + i as u64;
        if s << SUB_BITS > horizon {
            return false;
        }
        self.due_end = s + 1;
        let mut n = std::mem::replace(&mut self.subs[i], NIL);
        self.subs_occupied[i >> 6] &= !(1 << (i & 63));
        while n != NIL {
            let node = &self.nodes[n as usize];
            self.due.push(Key {
                at: node.at,
                seq: node.seq,
                node: n,
            });
            n = node.next;
        }
        self.due.sort_unstable();
        true
    }

    /// Make the next occupied window current, if it starts at or before
    /// `horizon`, spreading its list over the sub-windows and pulling in
    /// the overflow entries the moved span now covers. Requires an empty
    /// current window. Returns whether it advanced.
    fn advance(&mut self, horizon: u64) -> bool {
        let w = match self.next_occupied() {
            Some(d) => self.base + d,
            None => match self.overflow.peek() {
                Some(k) => window(k.0.at),
                None => return false,
            },
        };
        if w << WINDOW_BITS > horizon {
            return false;
        }
        self.base = w;
        self.due_end = w << (WINDOW_BITS - SUB_BITS);
        let i = (w & RING_MASK) as usize;
        let mut n = std::mem::replace(&mut self.heads[i], NIL);
        self.occupied[i >> 6] &= !(1 << (i & 63));
        while n != NIL {
            let next = self.nodes[n as usize].next;
            self.link_sub(sub_window(self.nodes[n as usize].at), n);
            n = next;
        }
        while let Some(&Reverse(k)) = self.overflow.peek() {
            if window(k.at) - w >= RING_WINDOWS as u64 {
                break;
            }
            self.overflow.pop();
            self.place(k);
        }
        true
    }

    /// Deliver the earliest event with `at <= horizon`.
    #[inline(always)]
    fn pop_next_before(&mut self, horizon: u64) -> Option<(u64, E)> {
        loop {
            let Some(&k) = self.due.get(self.head) else {
                if self.refill(horizon) {
                    continue;
                }
                return None;
            };
            if k.at > horizon {
                return None;
            }
            self.pop_due();
            return self.release(k.node).map(|ev| (k.at, ev));
        }
    }

    /// Visit every pending entry as `(at, seq, event)`.
    fn for_each_entry<'a>(&'a self, mut f: impl FnMut(u64, u64, &'a E)) {
        let mut visit = |n: u32| {
            let node = &self.nodes[n as usize];
            if let Some(ev) = &node.ev {
                f(node.at, node.seq, ev);
            }
        };
        for k in self.due[self.head..]
            .iter()
            .chain(self.overflow.iter().map(|r| &r.0))
        {
            visit(k.node);
        }
        for &head in self.subs.iter().chain(&self.heads) {
            let mut n = head;
            while n != NIL {
                visit(n);
                n = self.nodes[n as usize].next;
            }
        }
    }

    /// Non-empty lists: ring windows plus current-window sub-windows.
    fn occupied_lists(&self) -> usize {
        self.occupied
            .iter()
            .chain(&self.subs_occupied)
            .map(|w| w.count_ones() as usize)
            .sum()
    }
}

// One backend per calendar, built once per run: the ring keeps its bitmaps
// and sub-window heads inline, so the hot path reaches them without another
// pointer load.
#[allow(clippy::large_enum_variant)]
enum Backend<E> {
    Wheel(Wheel<E>),
    Heap(BinaryHeap<Reverse<Entry<E>>>),
}

/// The pending-event calendar: a backend plus the pending-event count.
pub(crate) struct Calendar<E> {
    live: usize,
    backend: Backend<E>,
}

impl<E> Calendar<E> {
    pub(crate) fn new(kind: CalendarKind) -> Calendar<E> {
        Calendar {
            live: 0,
            backend: match kind {
                CalendarKind::Wheel => Backend::Wheel(Wheel::new()),
                CalendarKind::Heap => Backend::Heap(BinaryHeap::new()),
            },
        }
    }

    pub(crate) fn kind(&self) -> CalendarKind {
        match self.backend {
            Backend::Wheel(_) => CalendarKind::Wheel,
            Backend::Heap(_) => CalendarKind::Heap,
        }
    }

    /// Number of pending events.
    #[inline]
    pub(crate) fn live(&self) -> usize {
        self.live
    }

    /// Schedule `ev` at `at` with tie-break sequence number `seq`.
    #[inline]
    pub(crate) fn schedule(&mut self, at: SimTime, seq: u64, ev: E) {
        let at = at.as_nanos();
        self.live += 1;
        match &mut self.backend {
            Backend::Wheel(w) => w.insert(at, seq, ev),
            Backend::Heap(h) => h.push(Reverse(Entry { at, seq, ev })),
        }
    }

    /// Deliver the earliest event with `at <= horizon` in `(time, seq)`
    /// order (ties in schedule order).
    #[inline(always)]
    pub(crate) fn pop_next_before(&mut self, horizon: SimTime) -> Option<(SimTime, E)> {
        let horizon = horizon.as_nanos();
        let (at, ev) = match &mut self.backend {
            Backend::Wheel(w) => w.pop_next_before(horizon)?,
            Backend::Heap(h) => {
                if h.peek()?.0.at > horizon {
                    return None;
                }
                h.pop().map(|Reverse(e)| (e.at, e.ev))?
            }
        };
        self.live -= 1;
        Some((SimTime::from_nanos(at), ev))
    }

    /// Visit every pending entry as `(at, seq, event)`, in storage order.
    fn for_each_entry<'a>(&'a self, mut f: impl FnMut(u64, u64, &'a E)) {
        match &self.backend {
            Backend::Wheel(w) => w.for_each_entry(f),
            Backend::Heap(h) => {
                for Reverse(e) in h.iter() {
                    f(e.at, e.seq, &e.ev);
                }
            }
        }
    }

    /// Canonical capture of every pending entry as `(at_ns, seq, event)`,
    /// sorted by `(at, seq)`: identical across backends and across
    /// window/overflow placement history — the form snapshots serialize.
    pub(crate) fn live_entries(&self) -> Vec<(u64, u64, E)>
    where
        E: Clone,
    {
        let mut out = Vec::with_capacity(self.live);
        // lint:allow(hot-path-alloc): snapshot canonicalization clones each pending event once; runs only on snapshot/persist, never in the delivery loop
        self.for_each_entry(|at, seq, ev| out.push((at, seq, ev.clone())));
        out.sort_unstable_by_key(|&(at, seq, _)| (at, seq));
        debug_assert_eq!(out.len(), self.live);
        out
    }

    /// The earliest pending `(at_ns, seq)` with a reference to its event,
    /// without disturbing the backend. O(pending) scan — a diagnostic/test
    /// path, not the delivery path.
    pub(crate) fn peek_min(&self) -> Option<(u64, u64, &E)> {
        let mut best: Option<(u64, u64, &E)> = None;
        self.for_each_entry(|at, seq, ev| match best {
            Some((bat, bseq, _)) if (bat, bseq) <= (at, seq) => {}
            _ => best = Some((at, seq, ev)),
        });
        best
    }

    pub(crate) fn stats(&self) -> CalendarStats {
        let (occupied_buckets, arena_slots) = match &self.backend {
            Backend::Wheel(w) => (w.occupied_lists(), w.nodes.len()),
            Backend::Heap(h) => (0, h.capacity()),
        };
        CalendarStats {
            live: self.live,
            occupied_buckets,
            arena_slots,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(c: &mut Calendar<u32>) -> Vec<(u64, u32)> {
        let mut out = vec![];
        while let Some((t, ev)) = c.pop_next_before(SimTime::MAX) {
            out.push((t.as_nanos(), ev));
        }
        out
    }

    fn both() -> [Calendar<u32>; 2] {
        [
            Calendar::new(CalendarKind::Wheel),
            Calendar::new(CalendarKind::Heap),
        ]
    }

    /// Where the ring holds its entries: `(current window, later ring
    /// windows, overflow)`.
    fn placement(c: &Calendar<u32>) -> (usize, usize, usize) {
        let Backend::Wheel(w) = &c.backend else {
            unreachable!("ring calendar expected")
        };
        let lists = |heads: &[u32]| {
            let mut len = 0;
            for &h in heads {
                let mut n = h;
                while n != NIL {
                    len += 1;
                    n = w.nodes[n as usize].next;
                }
            }
            len
        };
        (
            w.due.len() - w.head + lists(&w.subs),
            lists(&w.heads),
            w.overflow.len(),
        )
    }

    #[test]
    fn placement_window_ring_overflow() {
        let mut c: Calendar<u32> = Calendar::new(CalendarKind::Wheel);
        // The current window (window 0) takes everything before WINDOW_NS.
        c.schedule(SimTime::from_nanos(0), 0, 0);
        c.schedule(SimTime::from_nanos(WINDOW_NS - 1), 1, 1);
        assert_eq!(placement(&c), (2, 0, 0));
        // Later windows inside the span are linked into the ring...
        c.schedule(SimTime::from_nanos(WINDOW_NS), 2, 2);
        c.schedule(SimTime::from_nanos(RING_SPAN_NS - 1), 3, 3);
        assert_eq!(placement(&c), (2, 2, 0));
        // Two ring windows, plus sub-window 255 of the current one (the
        // first entry went straight to the delivery run).
        assert_eq!(c.stats().occupied_buckets, 3);
        // ...and the first window past the span waits in the overflow.
        c.schedule(SimTime::from_nanos(RING_SPAN_NS), 4, 4);
        c.schedule(SimTime::from_nanos(3 * RING_SPAN_NS), 5, 5);
        assert_eq!(placement(&c), (2, 2, 2));
        // Delivering past the current window makes window 1 current: the
        // span now reaches RING_SPAN_NS, so that entry migrates into the
        // ring (its slot is the one window 0 just vacated).
        for want in [0, 1, 2] {
            assert_eq!(
                c.pop_next_before(SimTime::MAX).map(|(_, ev)| ev),
                Some(want)
            );
        }
        assert_eq!(placement(&c), (0, 2, 1));
        // An empty ring jumps straight to the overflow minimum's window.
        assert_eq!(
            drain(&mut c),
            vec![
                (RING_SPAN_NS - 1, 3),
                (RING_SPAN_NS, 4),
                (3 * RING_SPAN_NS, 5),
            ]
        );
        assert_eq!(placement(&c), (0, 0, 0));
    }

    #[test]
    fn storage_is_the_peak_live_count_whatever_the_windows_touched() {
        // Bursts of PEAK events spread over many windows — across the ring
        // several times over, and into the overflow — each drained before
        // the next: the arena is sized by the peak live count alone.
        const PEAK: u64 = 300;
        let mut c: Calendar<u32> = Calendar::new(CalendarKind::Wheel);
        let mut now = 0;
        let mut seq = 0;
        for burst in 0..40u64 {
            let stride = WINDOW_NS * (1 + burst * 7);
            for i in 0..PEAK {
                let at = now + (i * 7_919 % PEAK) * stride + burst;
                c.schedule(SimTime::from_nanos(at), seq, i as u32);
                seq += 1;
            }
            assert_eq!(c.live(), PEAK as usize);
            while let Some((t, _)) = c.pop_next_before(SimTime::MAX) {
                now = t.as_nanos();
            }
        }
        let s = c.stats();
        assert!(now > 100 * RING_SPAN_NS, "bursts touched too few windows");
        assert_eq!(s.live, 0);
        assert_eq!(s.occupied_buckets, 0);
        assert_eq!(s.arena_slots, PEAK as usize);
    }

    #[test]
    fn placement_between_delivered_and_pending_fires_first() {
        // Deliver the first of two pending events with the horizon at its
        // time, then place a third between it and the second: the new
        // event fires first.
        for mut c in both() {
            c.schedule(SimTime::from_nanos(262_338), 0, 1);
            c.schedule(SimTime::from_nanos(286_912), 1, 2);
            assert_eq!(
                c.pop_next_before(SimTime::from_nanos(262_338)),
                Some((SimTime::from_nanos(262_338), 1)),
                "{:?}",
                c.kind()
            );
            c.schedule(SimTime::from_nanos(262_528), 2, 3);
            assert_eq!(
                drain(&mut c),
                vec![(262_528, 3), (286_912, 2)],
                "{:?}",
                c.kind()
            );
        }
    }

    #[test]
    fn fires_in_time_then_seq_order() {
        for mut c in both() {
            let mut seq = 0;
            for (at, ev) in [(30u64, 3u32), (10, 1), (20, 2), (10, 11), (30, 33)] {
                c.schedule(SimTime::from_nanos(at), seq, ev);
                seq += 1;
            }
            assert_eq!(
                drain(&mut c),
                vec![(10, 1), (10, 11), (20, 2), (30, 3), (30, 33)],
                "{:?}",
                c.kind()
            );
            assert_eq!(c.live(), 0);
        }
    }

    #[test]
    fn far_apart_times_fire_in_order() {
        for mut c in both() {
            let times = [
                1u64,
                63,
                64,
                65,
                4_095,
                4_096,
                1_000_000,
                1_000_000_000,
                1 << 40,
                u64::MAX - 1,
            ];
            for (i, &t) in times.iter().enumerate() {
                c.schedule(SimTime::from_nanos(t), i as u64, i as u32);
            }
            let got = drain(&mut c);
            let want: Vec<(u64, u32)> = times
                .iter()
                .enumerate()
                .map(|(i, &t)| (t, i as u32))
                .collect();
            assert_eq!(got, want, "{:?}", c.kind());
        }
    }

    #[test]
    fn schedule_earlier_than_current_window_after_horizon_stop() {
        let t = 3 * WINDOW_NS + 100;
        for mut c in both() {
            c.schedule(SimTime::from_nanos(t), 0, 9);
            // The probe's horizon reaches into window 3, so the ring makes
            // it current while its entry stays pending.
            assert_eq!(c.pop_next_before(SimTime::from_nanos(t - 50)), None);
            // Now schedule earlier events — before the current window —
            // including one at the pending entry's time.
            c.schedule(SimTime::from_nanos(WINDOW_NS), 1, 6);
            c.schedule(SimTime::from_nanos(t), 2, 10);
            c.schedule(SimTime::from_nanos(WINDOW_NS), 3, 7);
            assert_eq!(
                drain(&mut c),
                vec![(WINDOW_NS, 6), (WINDOW_NS, 7), (t, 9), (t, 10)],
                "{:?}",
                c.kind()
            );
        }
    }

    #[test]
    fn same_time_entries_scheduled_apart_keep_seq_order() {
        // seq 0 is scheduled a window ahead, then after the clock moves
        // into that window, seq 2 lands at the same instant directly in
        // the current heap: 0 must still fire before 2.
        for mut c in both() {
            let t = WINDOW_NS + 200;
            c.schedule(SimTime::from_nanos(t), 0, 20);
            c.schedule(SimTime::from_nanos(t - 10), 1, 19);
            assert_eq!(
                c.pop_next_before(SimTime::MAX),
                Some((SimTime::from_nanos(t - 10), 19))
            );
            c.schedule(SimTime::from_nanos(t), 2, 21);
            assert_eq!(drain(&mut c), vec![(t, 20), (t, 21)], "{:?}", c.kind());
        }
    }

    #[test]
    fn zero_delay_self_scheduling_is_fifo() {
        for mut c in both() {
            c.schedule(SimTime::from_nanos(5), 0, 0);
            assert_eq!(
                c.pop_next_before(SimTime::MAX),
                Some((SimTime::from_nanos(5), 0))
            );
            // Schedule at the current instant repeatedly mid-delivery.
            c.schedule(SimTime::from_nanos(5), 1, 1);
            c.schedule(SimTime::from_nanos(5), 2, 2);
            assert_eq!(drain(&mut c), vec![(5, 1), (5, 2)], "{:?}", c.kind());
        }
    }

    #[test]
    fn stats_report_occupancy() {
        // One event per window: window 0's goes straight to the delivery
        // run, windows 1..=9 are the occupied ring windows.
        let mut c: Calendar<u32> = Calendar::new(CalendarKind::Wheel);
        for i in 0..10u64 {
            c.schedule(SimTime::from_nanos(i * WINDOW_NS), i, i as u32);
        }
        let s = c.stats();
        assert_eq!(s.live, 10);
        assert_eq!(s.occupied_buckets, 9);
        assert_eq!(s.arena_slots, 10);
        drain(&mut c);
        let s = c.stats();
        assert_eq!((s.live, s.occupied_buckets, s.arena_slots), (0, 0, 10));
    }
}
