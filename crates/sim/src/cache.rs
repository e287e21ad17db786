//! Shared, concurrency-safe memoization for simulator evaluations.
//!
//! One scheduling run evaluates thousands of configurations, and the
//! closed-form estimates repeat some of their work across them: the
//! completion analysis `P_D(U)` depends only on `N_D`, a decode stage's
//! bottleneck term only on its (TP degree, link, layer allocation) class,
//! and the branch-and-bound searches of different `(policy, TP, B_m)` tasks
//! frequently land on identical [`ScheduleConfig`]s. This module keeps one
//! [`EvalCache`] per [`Simulator`](crate::Simulator) *workload*:
//! [`Simulator::with_workload`](crate::Simulator::with_workload) swaps in a
//! fresh cache so no per-workload entry can leak across workloads (every
//! layer depends on the length distributions).
//!
//! Whole estimates are *not* memoized. The search reads only a
//! configuration's latency and throughput, so the third layer is a score
//! memo: [`Simulator::score`](crate::Simulator::score) keeps one
//! [`Perf`] per configuration, [`Perf::INFEASIBLE`] for any error, with no
//! [`Estimate`](crate::Estimate) or [`SimError`] payload to store or clone.
//! [`Simulator::evaluate`](crate::Simulator::evaluate) computes every
//! estimate afresh over the warm completion and decode-grid layers; only
//! each searched task's winner, an exact probe, the runner and scenario
//! lowering ask for one, a few times per schedule.
//!
//! Pipeline plans are not memoized either. An RRA plan depends on
//! `(B_E, B_D, TP)`, and few evaluations share one: on the benchmark's
//! scheduling grid four in five evaluations missed a plan memo, and the
//! plans it kept (an `Arc` and three `Vec`s each) cost more to keep and to
//! free than to rebuild. A WAA plan depends on the whole configuration, as
//! its estimate does, so after an evaluation only the runner or the plan
//! checks ask for it again, once per schedule. Both are built afresh by
//! every call (DESIGN.md §4a).
//!
//! Cluster swaps are cheaper than workload swaps: the completion analyses
//! and the decode stage grids are *cluster-independent* (they derive from
//! the workload and the layer profile, which degraded topologies reuse),
//! while scores are not. Scores therefore carry a cluster fingerprint in
//! their key, and [`with_cluster`](crate::Simulator::with_cluster)
//! *shares* the cache: a fault-driven replan onto survivors keeps every
//! cluster-independent entry warm, only re-deriving scores, and a recovery
//! replan onto the original topology hits the original entries outright.
//! Entries of departed fingerprints linger until the next workload swap —
//! an accepted cost, bounded by the number of distinct topologies a fault
//! schedule can visit.
//!
//! Concurrency: maps are sharded `RwLock<HashMap>`s so the scheduler's
//! search pool shares one cache without serializing on a single lock. On a
//! racing miss both threads compute (computation is pure), and the insert
//! that loses the race is counted as a hit — making the hit/miss totals a
//! function of the looked-up multiset only, independent of thread
//! interleaving.

#[expect(
    clippy::disallowed_types,
    reason = "audited pool module: the shard maps are keyed lookup only, so their iteration \
              order is never observed"
)]
use std::collections::HashMap;
use std::hash::{BuildHasher, Hash};
#[expect(
    clippy::disallowed_types,
    reason = "audited pool module: the `hits`/`misses` counters are the only atomics"
)]
use std::sync::atomic::AtomicUsize;
use std::sync::atomic::Ordering;
use std::sync::Arc;
#[expect(
    clippy::disallowed_types,
    reason = "audited pool module: each shard has its own lock and no code path holds two"
)]
use std::sync::RwLock;

use exegpt_dist::convert::narrow_usize;
use exegpt_dist::{CompletionDist, FnvBuildHasher, LengthDist};
use exegpt_profiler::DecodeStageGrid;

use crate::config::ScheduleConfig;
use crate::error::SimError;
use crate::estimate::Perf;

/// Shards per map: enough to keep the search pool's workers from
/// contending, small enough to stay cheap to allocate per workload.
const SHARDS: usize = 8;

/// A hash map split into independently locked shards. Keys hash with
/// FNV-1a: they are small, program-generated config structs on the hot path
/// of every simulator evaluation, where SipHash's per-call overhead is
/// measurable and its flooding resistance buys nothing.
#[expect(
    clippy::disallowed_types,
    reason = "audited pool module: one lock per shard around a keyed-lookup map"
)]
struct ShardedMap<K, V> {
    shards: Vec<RwLock<HashMap<K, V, FnvBuildHasher>>>,
}

impl<K: Eq + Hash, V: Clone> ShardedMap<K, V> {
    fn new() -> Self {
        #[expect(
            clippy::disallowed_types,
            reason = "audited pool module: one lock per shard around a keyed-lookup map"
        )]
        let shards = (0..SHARDS).map(|_| RwLock::new(HashMap::default())).collect();
        Self { shards }
    }

    /// The shard comes from the middle bits of the key's hash: the map
    /// inside indexes its buckets by the low bits, and FNV's low bits only
    /// mix the low bits of each integer field, so a low-bit shard index
    /// would leave every key of a shard sharing its bucket-index bits.
    #[expect(
        clippy::disallowed_types,
        reason = "audited pool module: one lock per shard around a keyed-lookup map"
    )]
    fn shard(&self, key: &K) -> &RwLock<HashMap<K, V, FnvBuildHasher>> {
        let idx = narrow_usize(FnvBuildHasher::default().hash_one(key) >> 32) % SHARDS;
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

/// Completion analysis for one `N_D`: the completion fraction, summed once,
/// and the per-iteration survival series, so the RRA decode loop is O(N_D)
/// instead of O(N_D²).
pub(crate) struct CompletionInfo {
    /// [`CompletionDist::completion_fraction`], for sizing `B_D`.
    pub fraction: f64,
    /// `survival[u-1]` = expected fraction of the pool still active at the
    /// start of decode iteration `u`.
    pub survival: Vec<f64>,
}

/// Key of the decode stage grids: one grid per (TP degree, boundary link,
/// layer allocation) stage class. The workload's
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
    /// [`Simulator::score`](crate::Simulator::score) lookups answered from
    /// the score memo. [`Simulator::evaluate`](crate::Simulator::evaluate)
    /// is not memoized and counts neither way.
    pub hits: usize,
    /// Score lookups that had to run the closed-form evaluation.
    pub misses: usize,
    /// Distinct entries across all cache layers: completion analyses,
    /// decode stage grids and scores.
    pub entries: usize,
}

/// The shared evaluation cache: completion analyses, decode stage grids
/// and scores. One instance per (simulator, workload); see the module
/// docs for the invalidation contract.
pub(crate) struct EvalCache {
    completion: ShardedMap<usize, Arc<CompletionInfo>>,
    dec_stage: ShardedMap<DecStageKey, Result<Arc<DecodeStageGrid>, SimError>>,
    scores: ShardedMap<(u64, ScheduleConfig), Perf>,
    #[expect(
        clippy::disallowed_types,
        reason = "audited pool module: a counter, so `Ordering::Relaxed` suffices"
    )]
    hits: AtomicUsize,
    #[expect(
        clippy::disallowed_types,
        reason = "audited pool module: a counter, so `Ordering::Relaxed` suffices"
    )]
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
        #[expect(
            clippy::disallowed_types,
            reason = "audited pool module: the `hits`/`misses` counters start at zero"
        )]
        let (hits, misses) = (AtomicUsize::new(0), AtomicUsize::new(0));
        Self {
            completion: ShardedMap::new(),
            dec_stage: ShardedMap::new(),
            scores: ShardedMap::new(),
            hits,
            misses,
        }
    }

    pub(crate) fn stats(&self) -> EvalCacheStats {
        EvalCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            entries: self.completion.len() + self.dec_stage.len() + self.scores.len(),
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
        let info = Arc::new(CompletionInfo {
            fraction: dist.completion_fraction(),
            survival: dist.survival_series(),
        });
        self.completion.insert_if_absent(n_d, Arc::clone(&info));
        Ok(info)
    }

    /// Decode stage grid for one stage class, built at most once per
    /// (TP degree, link, allocation).
    pub(crate) fn dec_stage_grid(
        &self,
        key: DecStageKey,
        build: impl FnOnce() -> Result<DecodeStageGrid, SimError>,
    ) -> Result<Arc<DecodeStageGrid>, SimError> {
        if let Some(grid) = self.dec_stage.get(&key) {
            return grid;
        }
        let grid = build().map(Arc::new);
        self.dec_stage.insert_if_absent(key, grid.clone());
        grid
    }

    /// Score memo, keyed by `(cluster, config)`. Counts a hit for every
    /// lookup answered without running `eval`, including insert races lost
    /// to a concurrent miss, so the totals are deterministic for a
    /// deterministic lookup multiset.
    pub(crate) fn score(
        &self,
        cluster: u64,
        key: ScheduleConfig,
        eval: impl FnOnce() -> Perf,
    ) -> Perf {
        let key = (cluster, key);
        if let Some(perf) = self.scores.get(&key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return perf;
        }
        let perf = eval();
        if self.scores.insert_if_absent(key, perf) {
            self.misses.fetch_add(1, Ordering::Relaxed);
        } else {
            self.hits.fetch_add(1, Ordering::Relaxed);
        }
        perf
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{RraConfig, TpConfig};

    fn perf(latency: f64) -> Perf {
        Perf { latency: exegpt_units::Secs::new(latency), throughput: 1.0 / latency }
    }

    #[test]
    fn score_memo_counts_hits_and_misses() {
        let cache = EvalCache::new();
        let key = ScheduleConfig::Rra(RraConfig::new(4, 8, TpConfig::none()));
        let mut evals = 0;
        for _ in 0..3 {
            let p = cache.score(7, key, || {
                evals += 1;
                perf(2.0)
            });
            assert_eq!(p, perf(2.0));
        }
        assert_eq!(evals, 1);
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (2, 1));
        assert_eq!(stats.entries, 1);
    }

    #[test]
    fn scores_are_keyed_per_cluster() {
        let cache = EvalCache::new();
        let key = ScheduleConfig::Rra(RraConfig::new(4, 8, TpConfig::none()));
        let a = cache.score(1, key, || perf(2.0));
        // A different cluster fingerprint re-evaluates...
        let b = cache.score(2, key, || perf(3.0));
        assert_ne!(a.latency, b.latency);
        // ...while the original entry stays warm (recovery path).
        let again = cache.score(1, key, || perf(9.0));
        assert_eq!(again, a);
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (1, 2));
        assert_eq!(stats.entries, 2);
    }

    #[test]
    fn errors_are_memoized_as_infeasible() {
        let cache = EvalCache::new();
        let key = ScheduleConfig::Rra(RraConfig::new(1, 1, TpConfig::none()));
        let mut evals = 0;
        for _ in 0..2 {
            let p = cache.score(7, key, || {
                evals += 1;
                Perf::of(&Err(SimError::InvalidConfig { what: "b_e", why: "test".into() }))
            });
            assert_eq!(p, Perf::INFEASIBLE);
        }
        assert_eq!(evals, 1);
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
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
        let dist = CompletionDist::new(&out, 8).expect("valid");
        assert_eq!(a.fraction.to_bits(), dist.completion_fraction().to_bits());
        for u in 1..=8 {
            assert_eq!(a.survival[u - 1], dist.survival(u), "u={u}");
        }
    }
}
