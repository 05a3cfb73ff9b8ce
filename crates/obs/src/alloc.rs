//! Heap-allocation accounting for the query hot path.
//!
//! The executor's zero-allocation contract ("no heap allocation per
//! query after warm-up") needs a way to *measure* allocations, not just
//! promise their absence. This module supplies it in two layers:
//!
//! * [`CountingAllocator`] — a `GlobalAlloc` wrapper over the system
//!   allocator that bumps thread-local counters on every allocation.
//!   Test binaries install it with `#[global_allocator]`; production
//!   binaries normally don't, in which case the counters simply stay at
//!   zero and the instrumentation below is free.
//! * [`AllocSpan`] — a delta-meter: snapshot the thread's counter at the
//!   start of a hot section, read the delta at the end. The executor
//!   wraps its scan/fetch loop in one and publishes the delta to an
//!   `sts-obs` counter, so `obs-report` makes allocation regressions
//!   visible the same way latency regressions are.
//!
//! Thread-locality matters twice over: the counters are wait-free with
//! no cross-thread contention, and a span measured entirely on one
//! executor worker thread (a shard query never migrates threads)
//! observes exactly its own section's allocations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Allocations (`alloc`/`realloc` calls) on this thread.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    /// Bytes requested by allocations on this thread.
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

/// A counting wrapper over the system allocator.
///
/// ```ignore
/// #[global_allocator]
/// static ALLOC: sts_obs::alloc::CountingAllocator = sts_obs::alloc::CountingAllocator::new();
/// ```
pub struct CountingAllocator;

impl CountingAllocator {
    /// The wrapper (state lives in thread-locals, not here).
    pub const fn new() -> Self {
        CountingAllocator
    }
}

impl Default for CountingAllocator {
    fn default() -> Self {
        Self::new()
    }
}

// SAFETY: delegates verbatim to `System`; the thread-local bookkeeping
// uses `Cell<u64>` with const initializers, which never allocates and
// has no destructor — safe to touch from inside the allocator itself.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        BYTES.with(|c| c.set(c.get() + layout.size() as u64));
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        BYTES.with(|c| c.set(c.get() + new_size as u64));
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Allocations observed on this thread so far (0 unless a
/// [`CountingAllocator`] is installed as the global allocator).
pub fn thread_allocations() -> u64 {
    ALLOCS.with(Cell::get)
}

/// Bytes requested on this thread so far (same caveat).
pub fn thread_alloc_bytes() -> u64 {
    BYTES.with(Cell::get)
}

/// Measures the heap allocations a single-threaded section performs.
#[derive(Clone, Copy, Debug)]
pub struct AllocSpan {
    allocs: u64,
    bytes: u64,
}

impl AllocSpan {
    /// Snapshot the current thread's counters.
    pub fn start() -> Self {
        AllocSpan {
            allocs: thread_allocations(),
            bytes: thread_alloc_bytes(),
        }
    }

    /// Allocations since [`start`](Self::start), on this thread.
    pub fn allocations(&self) -> u64 {
        thread_allocations() - self.allocs
    }

    /// Bytes requested since [`start`](Self::start), on this thread.
    pub fn bytes(&self) -> u64 {
        thread_alloc_bytes() - self.bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_without_counting_allocator_reads_zero_delta() {
        // The test binary does not install `CountingAllocator`, so the
        // counters never move — the span must report a clean zero, not
        // underflow.
        let span = AllocSpan::start();
        let v: Vec<u64> = (0..1_000).collect();
        assert_eq!(v.len(), 1_000);
        assert_eq!(span.allocations(), 0);
        assert_eq!(span.bytes(), 0);
    }

    #[test]
    fn counting_allocator_delegates() {
        // Exercise the wrapper directly (not installed globally): it
        // must hand out usable memory and count the calls.
        let a = CountingAllocator::new();
        let before = thread_allocations();
        unsafe {
            let layout = Layout::from_size_align(64, 8).unwrap();
            let p = a.alloc(layout);
            assert!(!p.is_null());
            let p2 = a.realloc(p, layout, 128);
            assert!(!p2.is_null());
            a.dealloc(p2, Layout::from_size_align(128, 8).unwrap());
        }
        assert_eq!(thread_allocations() - before, 2);
        assert!(thread_alloc_bytes() >= 64 + 128);
    }
}
