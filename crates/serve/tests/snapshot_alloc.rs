//! `Metrics::into_snapshot` summarizes each histogram in the buffer that
//! holds its samples: a registry whose histograms hold 10,000 samples each
//! costs the snapshot exactly the allocations, and the allocated bytes, of
//! one whose histograms hold 10. A copied or stably sorted sample buffer
//! would add bytes in proportion to the samples. Allocations are counted
//! per thread by a wrapper around the system allocator.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use exegpt_serve::Metrics;

thread_local! {
    /// Allocations made by this thread so far, and their bytes.
    static ALLOCATED: Cell<(usize, usize)> = const { Cell::new((0, 0)) };
}

/// Counts one allocation of `bytes` on the calling thread.
fn count(bytes: usize) {
    ALLOCATED.with(|a| {
        let (n, total) = a.get();
        a.set((n + 1, total + bytes));
    });
}

/// The system allocator, counting each allocation on the calling thread.
struct Counting;

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the count is a
// const-initialized thread-local `Cell`, which neither allocates nor
// unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, that is, from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract, and
        // `ptr` came from `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

fn allocated() -> (usize, usize) {
    ALLOCATED.with(Cell::get)
}

/// A registry shaped like a fleet's: counters, gauges, and five
/// histograms of `samples` latency-like values each (one of them
/// integer-valued, with many repeats).
fn registry(samples: usize) -> Metrics {
    let mut m = Metrics::new();
    m.add("completed", 3);
    m.gauge("kv_peak_bytes", 1.5e9);
    let ids: Vec<_> = ["e2e", "ttft", "per_token", "queue_wait", "dispatch_outstanding"]
        .iter()
        .map(|name| m.histogram_id(name))
        .collect();
    for i in 0..samples {
        let x = ((i * 7_919) % 1_009) as f64;
        for (k, &id) in ids.iter().enumerate() {
            let sample = if k == 4 { (i % 17) as f64 } else { x * 1e-3 * (k + 1) as f64 };
            m.observe_at(id, sample);
        }
    }
    m
}

/// The allocations, and their bytes, that `into_snapshot` makes.
fn snapshot_cost(m: Metrics) -> (usize, usize) {
    let before = allocated();
    let snap = m.into_snapshot();
    let after = allocated();
    assert_eq!(snap.summaries.len(), 5);
    (after.0 - before.0, after.1 - before.1)
}

#[test]
fn into_snapshot_copies_no_sample_buffer() {
    let small = snapshot_cost(registry(10));
    let large = snapshot_cost(registry(10_000));
    assert_eq!(small, large, "(allocations, bytes) for 10 vs 10,000 samples per histogram");
}
