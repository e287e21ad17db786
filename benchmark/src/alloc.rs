//! A counting global allocator: live and peak heap bytes always, and
//! allocation counts for the `*.allocs_per_req` metrics while switched on.
//!
//! The binary installs [`Counting`] as its `#[global_allocator]`; it
//! forwards every call to the system allocator. Counting covers every
//! thread, so the scheduler's search pool is included.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};

// All counters are Relaxed: statistics that publish no other data, read on
// the thread that ran the work after any workers joined.
static ENABLED: AtomicBool = AtomicBool::new(false);
static COUNT: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

/// The system allocator with allocation and heap-size counters.
pub struct Counting;

fn grew(bytes: usize) {
    if ENABLED.load(Ordering::Relaxed) {
        COUNT.fetch_add(1, Ordering::Relaxed);
    }
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    if live > PEAK.load(Ordering::Relaxed) {
        PEAK.fetch_max(live, Ordering::Relaxed);
    }
}

fn shrank(bytes: usize) {
    LIVE.fetch_sub(bytes, Ordering::Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters touch no allocation.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's guarantees for `layout` carry over unchanged.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            grew(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as for `alloc`.
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            grew(layout.size());
        }
        ptr
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: `ptr` and `layout` come from this allocator, which is
        // `System` underneath; the caller guarantees `new_size`.
        let new = unsafe { System.realloc(ptr, layout, new_size) };
        if !new.is_null() {
            // Old and new blocks may coexist while the data moves.
            grew(new_size);
            shrank(layout.size());
        }
        new
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was allocated by `System` with `layout`.
        unsafe { System.dealloc(ptr, layout) };
        shrank(layout.size());
    }
}

/// Switches allocation counting on or off.
pub fn set_counting(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Allocations counted so far (0 when no [`Counting`] allocator is
/// installed).
pub fn count() -> u64 {
    COUNT.load(Ordering::Relaxed)
}

/// Runs `f`; returns its result and the most heap bytes live at once
/// during it above what was live when it started (0 when no [`Counting`]
/// allocator is installed). Scopes nest.
pub fn peak_scope<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let base = LIVE.load(Ordering::Relaxed);
    let outer = PEAK.swap(base, Ordering::Relaxed);
    let out = f();
    let peak = PEAK.fetch_max(outer, Ordering::Relaxed);
    (out, peak.saturating_sub(base))
}
