//! Shared, concurrency-safe memoization for simulator evaluations.
//!
//! One scheduling run evaluates thousands of configurations, and the
//! closed-form estimates repeat a lot of work across them: the completion
//! analysis `P_D(U)` depends only on `N_D`, pipeline plans depend only on
//! the batch geometry and TP setting, and the branch-and-bound searches of
//! different `(policy, TP, B_m)` tasks frequently land on identical
//! [`ScheduleConfig`]s. This module keeps one [`EvalCache`] per
//! [`Simulator`](crate::Simulator) *workload*:
//! [`Simulator::with_workload`](crate::Simulator::with_workload) swaps in a
//! fresh cache so no per-workload entry can leak across workloads (every
//! layer depends on the length distributions).
//!
//! Cluster swaps are cheaper than workload swaps: the completion analyses
//! and the collapsed decode grids are *cluster-independent* (they derive
//! from the workload and the layer profile, which degraded topologies
//! reuse), while pipeline plans and full estimates are not. The
//! cluster-dependent layers therefore carry a cluster fingerprint in their
//! key, and [`with_cluster`](crate::Simulator::with_cluster) *shares* the
//! cache: a fault-driven replan onto survivors keeps every
//! cluster-independent entry warm, only re-deriving plans and estimates,
//! and a recovery replan onto the original topology hits the original
//! entries outright. Entries of departed fingerprints linger until the next
//! workload swap — an accepted cost, bounded by the number of distinct
//! topologies a fault schedule can visit.
//!
//! Concurrency: maps are sharded `RwLock<HashMap>`s so the scheduler's
//! search pool shares one cache without serializing on a single lock. On a
//! racing miss both threads compute (computation is pure), and the insert
//! that loses the race is counted as a hit — making the hit/miss totals a
//! function of the evaluated multiset only, independent of thread
//! interleaving.

// Matches the xlint::allow(D1) pragmas below (see clippy.toml).
#![allow(clippy::disallowed_types)]

// xlint::allow(D1, sharded FNV cache is keyed lookup only; iteration order never observed)
use std::collections::HashMap;
use std::hash::{BuildHasher, Hash};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, RwLock};

use exegpt_dist::convert::narrow_usize;
use exegpt_dist::{CompletionDist, FnvBuildHasher, LengthDist};
use exegpt_profiler::Grid1D;

use crate::config::{ScheduleConfig, TpConfig, WaaConfig};
use crate::error::SimError;
use crate::estimate::Estimate;
use crate::rra::RraPlan;
use crate::waa::WaaPlan;

/// Shards per map: enough to keep the search pool's workers from
/// contending, small enough to stay cheap to allocate per workload.
const SHARDS: usize = 8;

/// A hash map split into independently locked shards. Keys hash with
/// FNV-1a: they are small, program-generated config structs on the hot path
/// of every simulator evaluation, where SipHash's per-call overhead is
/// measurable and its flooding resistance buys nothing.
struct ShardedMap<K, V> {
    // xlint::allow(D1, sharded FNV cache is keyed lookup only; iteration order never observed)
    shards: Vec<RwLock<HashMap<K, V, FnvBuildHasher>>>,
}

impl<K: Eq + Hash, V: Clone> ShardedMap<K, V> {
    fn new() -> Self {
        Self {
            // xlint::allow(D1, sharded FNV cache is keyed lookup only; iteration order never observed)
            shards: (0..SHARDS).map(|_| RwLock::new(HashMap::default())).collect(),
        }
    }

    // xlint::allow(D1, sharded FNV cache is keyed lookup only; iteration order never observed)
    fn shard(&self, key: &K) -> &RwLock<HashMap<K, V, FnvBuildHasher>> {
        let idx = narrow_usize(FnvBuildHasher::default().hash_one(key)) % SHARDS;
        &self.shards[idx]
    }

    fn get(&self, key: &K) -> Option<V> {
        self.shard(key).read().unwrap_or_else(|e| e.into_inner()).get(key).cloned()
    }

    /// Inserts unless the key appeared meanwhile; reports whether this call
    /// actually inserted (`false` = lost a race, treat as a hit).
    fn insert_if_absent(&self, key: K, value: V) -> bool {
        let mut shard = self.shard(&key).write().unwrap_or_else(|e| e.into_inner());
        match shard.entry(key) {
            std::collections::hash_map::Entry::Occupied(_) => false,
            std::collections::hash_map::Entry::Vacant(e) => {
                e.insert(value);
                true
            }
        }
    }

    fn len(&self) -> usize {
        self.shards.iter().map(|s| s.read().unwrap_or_else(|e| e.into_inner()).len()).sum()
    }
}

/// Completion analysis for one `N_D`, with the per-iteration survival
/// series precomputed so the RRA decode loop is O(N_D) instead of O(N_D²).
pub(crate) struct CompletionInfo {
    /// The distribution itself (for `decode_batch_for` etc.).
    pub dist: CompletionDist,
    /// `survival[u-1]` = expected fraction of the pool still active at the
    /// start of decode iteration `u`.
    pub survival: Vec<f64>,
}

/// Key of the RRA plan cache. `b_e` is part of the key (not just the TP
/// setting and pool size) because the plan's TP speedup is measured at the
/// schedule's encode operating point, which scales with `B_E`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct RraPlanKey {
    pub b_e: usize,
    pub b_d: usize,
    pub tp: TpConfig,
}

impl RraPlanKey {
    /// Canonical key for a plan request. Without tensor parallelism the
    /// plan is independent of the batch geometry (the TP speedup never
    /// enters the layout), so every TP-none configuration shares one entry.
    pub(crate) fn new(b_e: usize, b_d: usize, tp: TpConfig) -> Self {
        if tp.is_none() {
            Self { b_e: 0, b_d: 0, tp }
        } else {
            Self { b_e, b_d, tp }
        }
    }
}

/// Key of the collapsed decode-bottleneck grids: one grid per
/// (TP degree, boundary link, layer allocation) stage class. The workload's
/// context/input lengths are fixed per cache, so they are not part of the
/// key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct DecStageKey {
    pub tp: usize,
    pub intra: bool,
    pub alloc: usize,
}

/// Point-in-time cache counters, exposed through
/// [`Simulator::cache_stats`](crate::Simulator::cache_stats).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EvalCacheStats {
    /// Full-estimate lookups answered from the cache.
    pub hits: usize,
    /// Full-estimate lookups that had to run the closed-form evaluation.
    pub misses: usize,
    /// Distinct entries across all cache layers (completion, plans,
    /// estimates).
    pub entries: usize,
}

/// The shared evaluation cache: completion analyses, pipeline plans, and
/// full estimates. One instance per (simulator, workload); see the module
/// docs for the invalidation contract.
pub(crate) struct EvalCache {
    completion: ShardedMap<usize, Arc<CompletionInfo>>,
    dec_stage: ShardedMap<DecStageKey, Result<Arc<Grid1D>, SimError>>,
    rra_plans: ShardedMap<(u64, RraPlanKey), Result<Arc<RraPlan>, SimError>>,
    waa_plans: ShardedMap<(u64, WaaConfig), Result<Arc<WaaPlan>, SimError>>,
    estimates: ShardedMap<(u64, ScheduleConfig), Result<Estimate, SimError>>,
    hits: AtomicUsize,
    misses: AtomicUsize,
}

impl std::fmt::Debug for EvalCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EvalCache")
            .field("hits", &self.hits.load(Ordering::Relaxed))
            .field("misses", &self.misses.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

impl EvalCache {
    pub(crate) fn new() -> Self {
        Self {
            completion: ShardedMap::new(),
            dec_stage: ShardedMap::new(),
            rra_plans: ShardedMap::new(),
            waa_plans: ShardedMap::new(),
            estimates: ShardedMap::new(),
            hits: AtomicUsize::new(0),
            misses: AtomicUsize::new(0),
        }
    }

    pub(crate) fn stats(&self) -> EvalCacheStats {
        EvalCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            entries: self.completion.len()
                + self.dec_stage.len()
                + self.rra_plans.len()
                + self.waa_plans.len()
                + self.estimates.len(),
        }
    }

    /// Completion analysis for `n_d` over `output`, built at most once per
    /// `n_d` for this cache's workload.
    ///
    /// # Errors
    ///
    /// Propagates [`CompletionDist::new`] failures (`n_d == 0`).
    pub(crate) fn completion(
        &self,
        output: &LengthDist,
        n_d: usize,
    ) -> Result<Arc<CompletionInfo>, SimError> {
        if let Some(info) = self.completion.get(&n_d) {
            return Ok(info);
        }
        let dist = CompletionDist::new(output, n_d)
            .map_err(|e| SimError::InvalidConfig { what: "n_d", why: e.to_string() })?;
        let survival = dist.survival_series();
        let info = Arc::new(CompletionInfo { dist, survival });
        self.completion.insert_if_absent(n_d, Arc::clone(&info));
        Ok(info)
    }

    /// Collapsed decode-bottleneck grid for one stage class, built at most
    /// once per (TP degree, link, allocation).
    pub(crate) fn dec_stage_grid(
        &self,
        key: DecStageKey,
        build: impl FnOnce() -> Result<Grid1D, SimError>,
    ) -> Result<Arc<Grid1D>, SimError> {
        if let Some(grid) = self.dec_stage.get(&key) {
            return grid;
        }
        let grid = build().map(Arc::new);
        self.dec_stage.insert_if_absent(key, grid.clone());
        grid
    }

    /// RRA pipeline plan, built at most once per `(cluster, B_E, B_D, TP)`.
    pub(crate) fn rra_plan(
        &self,
        cluster: u64,
        key: RraPlanKey,
        build: impl FnOnce() -> Result<RraPlan, SimError>,
    ) -> Result<Arc<RraPlan>, SimError> {
        let key = (cluster, key);
        if let Some(plan) = self.rra_plans.get(&key) {
            return plan;
        }
        let plan = build().map(Arc::new);
        self.rra_plans.insert_if_absent(key, plan.clone());
        plan
    }

    /// WAA group split and pipeline plan, built at most once per
    /// `(cluster, config)`.
    pub(crate) fn waa_plan(
        &self,
        cluster: u64,
        key: WaaConfig,
        build: impl FnOnce() -> Result<WaaPlan, SimError>,
    ) -> Result<Arc<WaaPlan>, SimError> {
        let key = (cluster, key);
        if let Some(plan) = self.waa_plans.get(&key) {
            return plan;
        }
        let plan = build().map(Arc::new);
        self.waa_plans.insert_if_absent(key, plan.clone());
        plan
    }

    /// Full-estimate memo, keyed by `(cluster, config)`. Counts a hit for
    /// every lookup answered without running `eval`, including insert races
    /// lost to a concurrent miss, so the totals are deterministic for a
    /// deterministic evaluation multiset.
    pub(crate) fn estimate(
        &self,
        cluster: u64,
        key: ScheduleConfig,
        eval: impl FnOnce() -> Result<Estimate, SimError>,
    ) -> Result<Estimate, SimError> {
        let key = (cluster, key);
        if let Some(est) = self.estimates.get(&key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return est;
        }
        let est = eval();
        if self.estimates.insert_if_absent(key, est.clone()) {
            self.misses.fetch_add(1, Ordering::Relaxed);
        } else {
            self.hits.fetch_add(1, Ordering::Relaxed);
        }
        est
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::RraConfig;

    fn dummy_estimate(latency: f64) -> Result<Estimate, SimError> {
        let fp = exegpt_model::MemoryFootprint::default();
        Ok(Estimate {
            latency: exegpt_units::Secs::new(latency),
            throughput: 1.0 / latency,
            memory: crate::estimate::MemoryReport { encoder_gpu: fp, decoder_gpu: fp, capacity: 0 },
            breakdown: crate::estimate::Breakdown {
                encode_time: exegpt_units::Secs::ZERO,
                decode_time: exegpt_units::Secs::ZERO,
                period: exegpt_units::Secs::new(latency),
                stages: 1,
                decode_batch: 1,
            },
        })
    }

    #[test]
    fn estimate_memo_counts_hits_and_misses() {
        let cache = EvalCache::new();
        let key = ScheduleConfig::Rra(RraConfig::new(4, 8, TpConfig::none()));
        let mut evals = 0;
        for _ in 0..3 {
            let est = cache
                .estimate(7, key, || {
                    evals += 1;
                    dummy_estimate(2.0)
                })
                .expect("ok");
            assert_eq!(est.latency, exegpt_units::Secs::new(2.0));
        }
        assert_eq!(evals, 1);
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (2, 1));
        assert_eq!(stats.entries, 1);
    }

    #[test]
    fn estimates_are_keyed_per_cluster() {
        let cache = EvalCache::new();
        let key = ScheduleConfig::Rra(RraConfig::new(4, 8, TpConfig::none()));
        let a = cache.estimate(1, key, || dummy_estimate(2.0)).expect("ok");
        // A different cluster fingerprint re-evaluates...
        let b = cache.estimate(2, key, || dummy_estimate(3.0)).expect("ok");
        assert_ne!(a.latency, b.latency);
        // ...while the original entry stays warm (recovery path).
        let again = cache.estimate(1, key, || dummy_estimate(9.0)).expect("ok");
        assert_eq!(again.latency, a.latency);
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (1, 2));
        assert_eq!(stats.entries, 2);
    }

    #[test]
    fn errors_are_memoized_too() {
        let cache = EvalCache::new();
        let key = ScheduleConfig::Rra(RraConfig::new(1, 1, TpConfig::none()));
        let mut evals = 0;
        for _ in 0..2 {
            let r = cache.estimate(7, key, || {
                evals += 1;
                Err(SimError::InvalidConfig { what: "b_e", why: "test".into() })
            });
            assert!(r.is_err());
        }
        assert_eq!(evals, 1);
    }

    #[test]
    fn completion_info_is_shared_per_nd() {
        let cache = EvalCache::new();
        let out = LengthDist::truncated_normal(16.0, 8.0, 64).expect("valid");
        let a = cache.completion(&out, 8).expect("ok");
        let b = cache.completion(&out, 8).expect("ok");
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(a.survival.len(), 8);
        assert_eq!(a.survival[0], 1.0);
        for u in 1..=8 {
            assert_eq!(a.survival[u - 1], a.dist.survival(u), "u={u}");
        }
    }
}
