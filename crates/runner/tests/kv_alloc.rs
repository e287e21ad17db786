//! A warm `KvTracker` admits, grows and releases without allocating: once
//! its arena has reached a run's high-water mark of resident entries, a
//! cycle of admissions, per-entry growth (`grow_slot`), closed-form pooled
//! growth (through a `DecodePool`) and releases makes no heap allocation.
//! Entries are reached only through their handles, so no per-request index
//! node is allocated either. Likewise a warm decode pool, whose timing
//! wheel covers the longest output and whose key vectors cover the largest
//! arena index, pushes and retires queries without allocating.
//! Allocations are counted per thread by a wrapper around the system
//! allocator.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use exegpt_runner::{DecodePool, GrowthOrder, KvSlot, KvTracker, ReservePolicy};
use exegpt_workload::{Request, TimedRequest};

thread_local! {
    /// Allocations made by this thread so far.
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

/// The system allocator, counting each allocation on the calling thread.
struct Counting;

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the count is a
// const-initialized thread-local `Cell`, which neither allocates nor
// unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, that is, from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract, and
        // `ptr` came from `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

fn allocations() -> usize {
    ALLOCATIONS.with(Cell::get)
}

/// Queries admitted per cycle.
const QUERIES: u64 = 64;

/// One cycle over ids `first..first + QUERIES`: every query is admitted
/// and grown through its handle; even ids join the decode pool, which
/// grows them in closed form and releases each as it finishes; odd ids
/// are released directly. Returns the completions the pool reported.
fn cycle(
    kv: &mut KvTracker,
    pool: &mut DecodePool,
    slots: &mut Vec<(u64, KvSlot)>,
    first: u64,
) -> usize {
    slots.clear();
    for id in first..first + QUERIES {
        let slot = kv.try_admit(id, 16 + (id % 7) as usize, 0).expect("fits");
        assert!(kv.grow_slot(slot, 1));
        slots.push((id, slot));
    }
    for &(id, slot) in slots.iter() {
        if id % 2 == 0 {
            let request = Request { id, input_len: 17, output_len: 1 + (id % 5) as usize };
            pool.push(kv, TimedRequest { request, arrival: 0.0 }, slot, 0.0);
        } else {
            kv.release(slot);
        }
    }
    let mut finished = 0;
    let mut t = 0.0;
    while !pool.is_empty() {
        t += 1.0;
        pool.advance(kv, GrowthOrder::Arena, t, |_| finished += 1);
    }
    finished
}

#[test]
fn a_warm_tracker_allocates_nothing() {
    let mut kv = KvTracker::new(2.0, 1 << 40, ReservePolicy::Incremental);
    let mut pool = DecodePool::with_capacity(QUERIES as usize, 5);
    let mut slots = Vec::with_capacity(QUERIES as usize);
    // Warm-up: the arena, the pool's position table and its buffers reach
    // the high-water mark.
    assert_eq!(cycle(&mut kv, &mut pool, &mut slots, 0) as u64, QUERIES / 2);
    let before = allocations();
    let mut finished = 0;
    for round in 1..=8 {
        finished += cycle(&mut kv, &mut pool, &mut slots, round * QUERIES);
    }
    let made = allocations() - before;
    assert_eq!(finished as u64, 8 * QUERIES / 2);
    assert_eq!((kv.used_bytes(), kv.resident()), (0, 0), "every entry released");
    assert!(kv.peak_bytes() > 0);
    assert_eq!(made, 0, "{made} allocations over eight warm admit/grow/release cycles");
}

/// The longest output a pool cycle pushes: its wheel needs 1,024 buckets.
const LONGEST: usize = 700;

/// One steady-state pool cycle over ids `first..first + QUERIES`: each
/// query is admitted and pushed, with outputs from zero to [`LONGEST`]
/// tokens, and one iteration follows each push; then the pool drains.
/// Outputs and orders depend on `id % QUERIES` only, so every cycle makes
/// the same moves. Returns the completions the pool reported.
fn pool_cycle(kv: &mut KvTracker, pool: &mut DecodePool, first: u64) -> usize {
    let mut finished = 0;
    let mut t = 0.0;
    for id in first..first + QUERIES {
        let k = (id % QUERIES) as usize;
        let output_len = if k == 7 { LONGEST } else { k * 37 % 97 };
        let slot = kv.try_admit(id, 9 + k % 5, 0).expect("fits");
        let request = Request { id, input_len: 9 + k % 5, output_len };
        pool.push(kv, TimedRequest { request, arrival: 0.0 }, slot, t);
        t += 1.0;
        let order = if k.is_multiple_of(2) { GrowthOrder::Arena } else { GrowthOrder::Pool };
        pool.advance(kv, order, t, |_| finished += 1);
    }
    while !pool.is_empty() {
        t += 1.0;
        pool.advance(kv, GrowthOrder::Pool, t, |_| finished += 1);
    }
    finished
}

#[test]
fn a_warm_pool_allocates_nothing() {
    let mut kv = KvTracker::new(2.0, 1 << 40, ReservePolicy::Incremental);
    let mut pool = DecodePool::default();
    // Warm-up: the wheel grows to cover `LONGEST`, and the arena, the key
    // vectors and the finishers' buffer reach the high-water mark.
    assert_eq!(pool_cycle(&mut kv, &mut pool, 0) as u64, QUERIES);
    let before = allocations();
    let mut finished = 0;
    for round in 1..=8 {
        finished += pool_cycle(&mut kv, &mut pool, round * QUERIES);
    }
    let made = allocations() - before;
    assert_eq!(finished as u64, 8 * QUERIES);
    assert_eq!((kv.used_bytes(), kv.resident()), (0, 0), "every entry released");
    assert_eq!(made, 0, "{made} allocations over eight warm push/advance cycles");
}
