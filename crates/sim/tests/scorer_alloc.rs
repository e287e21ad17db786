//! A warm `Scorer` evaluates without allocating: once its handles into the
//! evaluation cache and its plan buffers have seen a set of
//! configurations, scoring them again makes no heap allocation, feasible
//! and out-of-memory points alike (other errors allocate their message).
//! Allocations are counted per thread by a wrapper around the system
//! allocator.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use exegpt_cluster::ClusterSpec;
use exegpt_dist::LengthDist;
use exegpt_model::ModelConfig;
use exegpt_profiler::{ProfileOptions, Profiler};
use exegpt_sim::{
    RraConfig, ScheduleConfig, SimError, Simulator, TpConfig, WaaConfig, WaaVariant, Workload,
};

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

/// `model` on eight A40s serving task S.
fn setup(model: ModelConfig) -> Simulator {
    let cluster = ClusterSpec::a40_cluster().subcluster(8).expect("fits");
    let profile = Profiler::new(model.clone(), cluster.clone())
        .run(&ProfileOptions::default())
        .expect("profiles");
    let workload = Workload::new(
        LengthDist::truncated_normal(256.0, 252.0, 512).expect("valid"),
        LengthDist::truncated_normal(32.0, 13.0, 80).expect("valid"),
    );
    Simulator::new(model, cluster, Arc::new(profile), workload)
}

/// RRA, WAA-C and WAA-M configurations at every TP setting the scheduler
/// searches on `sim`.
fn configs(sim: &Simulator) -> Vec<ScheduleConfig> {
    let n = sim.cluster().total_gpus();
    let mut tps = vec![TpConfig::none()];
    for degree in sim.profile().tp_degrees().into_iter().filter(|&d| d >= 2) {
        tps.extend((degree..=n).step_by(degree).map(|gpus| TpConfig { degree, gpus }));
    }
    let mut cfgs = Vec::new();
    for tp in tps {
        for b_e in [1, 3, 8, 16, 32, 64, 128] {
            for n_d in [1, 4, 16, 40, 80] {
                cfgs.push(ScheduleConfig::Rra(RraConfig::new(b_e, n_d, tp)));
            }
            for b_m in [1, 2, 4, 8] {
                for variant in [WaaVariant::Compute, WaaVariant::Memory] {
                    cfgs.push(ScheduleConfig::Waa(WaaConfig::new(b_e, b_m, tp, variant)));
                }
            }
        }
    }
    cfgs
}

#[test]
fn a_warm_scorer_allocates_nothing() {
    for sim in [setup(ModelConfig::opt_13b()), setup(ModelConfig::t5_11b())] {
        let mut scorer = sim.scorer();
        let cfgs: Vec<_> = configs(&sim)
            .into_iter()
            .filter(|cfg| matches!(scorer.evaluate(cfg), Ok(_) | Err(SimError::OutOfMemory { .. })))
            .collect();
        let oom = cfgs.iter().filter(|cfg| scorer.evaluate(cfg).is_err()).count();
        assert!(oom > 0 && oom < cfgs.len(), "{oom} of {} out of memory", cfgs.len());
        let before = allocations();
        let mut throughput = 0.0;
        for cfg in &cfgs {
            throughput += scorer.score(cfg).throughput;
        }
        let made = allocations() - before;
        assert!(throughput > 0.0);
        assert_eq!(
            made,
            0,
            "{}: {made} allocations over {} warm scores",
            sim.model().name(),
            cfgs.len()
        );
    }
}
