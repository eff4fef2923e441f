//! A counting global allocator for test and bench builds.
//!
//! The DES hot path is budgeted to **zero heap allocations per delivered
//! event** in the steady state (DESIGN.md §10): every buffer the delivery
//! loop touches — the ring calendar's entry arena, its sorted `due` run and
//! overflow heap — reaches a stable capacity during warmup and is reused
//! thereafter. Wall-clock benchmarks can only show the *symptom* of
//! a regression (throughput loss, often hidden inside machine noise); this
//! crate makes the *cause* directly observable by counting every heap
//! operation that reaches the system allocator.
//!
//! Usage, in an integration test or bench binary:
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOC: paradyn_allocguard::CountingAlloc = paradyn_allocguard::CountingAlloc;
//!
//! // ... warm the system up ...
//! let mark = paradyn_allocguard::checkpoint();
//! // ... drive the steady state ...
//! assert_eq!(mark.allocations_since(), 0);
//! ```
//!
//! The counters are process-global relaxed atomics: cheap enough to leave
//! enabled for a whole test binary, exact as long as the measured window
//! runs on a single thread (the DES kernel is single-threaded by design;
//! replication-level parallelism uses one `Sim` per thread, so a per-`Sim`
//! measurement must simply not overlap other allocating threads).
//!
//! Zero dependencies: delegation goes straight to [`std::alloc::System`],
//! so the accounting adds two relaxed atomic increments per heap operation
//! and changes no allocation behavior.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static DEALLOCS: AtomicU64 = AtomicU64::new(0);
static REALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

/// A `#[global_allocator]` that counts every heap operation, then delegates
/// to [`System`].
pub struct CountingAlloc;

// SAFETY: pure delegation to `System`, which upholds the `GlobalAlloc`
// contract; the added atomic increments touch no allocator state.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Relaxed);
        BYTES.fetch_add(layout.size() as u64, Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Relaxed);
        BYTES.fetch_add(layout.size() as u64, Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        DEALLOCS.fetch_add(1, Relaxed);
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // A realloc is heap traffic just like a fresh allocation (it may
        // move the block); a hot path that grows a buffer every event
        // must not pass the zero-alloc gate on a technicality.
        REALLOCS.fetch_add(1, Relaxed);
        BYTES.fetch_add(new_size as u64, Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

/// Heap allocations (incl. zeroed) since process start.
pub fn allocations() -> u64 {
    ALLOCS.load(Relaxed)
}

/// Heap deallocations since process start.
pub fn deallocations() -> u64 {
    DEALLOCS.load(Relaxed)
}

/// Heap reallocations since process start.
pub fn reallocations() -> u64 {
    REALLOCS.load(Relaxed)
}

/// Total bytes requested (alloc + realloc) since process start.
pub fn bytes_requested() -> u64 {
    BYTES.load(Relaxed)
}

/// A point-in-time snapshot of the counters, for windowed measurements.
#[derive(Clone, Copy, Debug)]
pub struct Checkpoint {
    allocs: u64,
    deallocs: u64,
    reallocs: u64,
    bytes: u64,
}

/// Snapshot the counters now.
pub fn checkpoint() -> Checkpoint {
    Checkpoint {
        allocs: allocations(),
        deallocs: deallocations(),
        reallocs: reallocations(),
        bytes: bytes_requested(),
    }
}

impl Checkpoint {
    /// Allocations (fresh + zeroed) since this checkpoint.
    pub fn allocations_since(&self) -> u64 {
        allocations() - self.allocs
    }

    /// Deallocations since this checkpoint.
    pub fn deallocations_since(&self) -> u64 {
        deallocations() - self.deallocs
    }

    /// Reallocations since this checkpoint.
    pub fn reallocations_since(&self) -> u64 {
        reallocations() - self.reallocs
    }

    /// Total heap operations that could disturb a zero-alloc hot path:
    /// allocations plus reallocations (deallocations excluded — freeing
    /// into the allocator's cache is the benign half of a matched pair
    /// already counted on the alloc side).
    pub fn heap_traffic_since(&self) -> u64 {
        self.allocations_since() + self.reallocations_since()
    }

    /// Bytes requested since this checkpoint.
    pub fn bytes_since(&self) -> u64 {
        bytes_requested() - self.bytes
    }
}
