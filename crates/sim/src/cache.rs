//! Shared, concurrency-safe memoization for simulator evaluations and
//! schedule searches.
//!
//! One scheduling run evaluates thousands of configurations, and the
//! closed-form estimates repeat some of their work across them: the
//! completion analysis `P_D(U)` depends only on `N_D`, and a decode stage's
//! bottleneck term only on its (TP degree, link, layer allocation) class.
//! This module keeps one [`EvalCache`] per [`Simulator`](crate::Simulator)
//! *workload*: [`Simulator::with_workload`](crate::Simulator::with_workload)
//! swaps in a fresh cache so no per-workload entry can leak across
//! workloads (every layer depends on the length distributions).
//!
//! The estimator reads the first two layers through a
//! [`Scorer`](crate::Scorer), which fetches each completion analysis and
//! decode stage grid it uses from here once and keeps the handle, so a
//! search worker's warm evaluations take no lock and clone no `Arc`.
//!
//! No evaluation is memoized per configuration. The branch-and-bound
//! searches of different tasks rarely meet on one configuration (3.5 % of
//! a `sched-paper` schedule's lookups), and a per-point memo cost every
//! lookup a key hash, two lock round trips and an insert into a growing
//! map. What repeats is whole searches: a recovery replan onto the original
//! topology, or the same bound scheduled twice on one engine. So the third
//! layer is a search memo:
//! [`Simulator::remembered_search`](crate::Simulator::remembered_search)
//! keeps each search's [`SearchOutcome`], keyed by the cluster fingerprint
//! and the caller's word-for-word encoding of the options that decide the
//! result. Keys compare exactly, so a hash collision costs a bucket probe,
//! never a wrong plan. A [`Scorer`](crate::Scorer) computes every point
//! afresh over the warm completion and decode-grid layers.
//!
//! Pipeline plans are not memoized either. An RRA plan depends on
//! `(B_E, B_D, TP)`, and few evaluations share one: on the benchmark's
//! scheduling grid four in five evaluations missed a plan memo. A WAA plan
//! depends on the whole configuration, as its estimate does. Instead each
//! scorer rebuilds one plan per family in place, in `Vec`s that keep their
//! capacity, so a warm evaluation allocates nothing (DESIGN.md §4a).
//!
//! Cluster swaps are cheaper than workload swaps: the completion analyses
//! and the decode stage grids are *cluster-independent* (they derive from
//! the workload and the layer profile, which degraded topologies reuse),
//! while searches are not. Searches therefore carry a cluster fingerprint
//! in their key, and [`with_cluster`](crate::Simulator::with_cluster)
//! *shares* the cache: a fault-driven replan onto survivors keeps every
//! cluster-independent entry warm, and a recovery replan onto the original
//! topology is one lookup of the original search. Entries of departed
//! fingerprints linger until the next workload swap — an accepted cost,
//! bounded by the number of distinct topologies and options a serving run
//! schedules for.
//!
//! Concurrency: maps are sharded `RwLock<HashMap>`s so the scheduler's
//! search pool shares one cache without serializing on a single lock. On a
//! racing miss both threads compute (computation is pure) and the first
//! insert stays.

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
use exegpt_dist::{CompletionSeries, FnvBuildHasher, LengthDist};
use exegpt_profiler::DecodeStageGrid;

use crate::config::ScheduleConfig;
use crate::error::SimError;
use crate::estimate::Estimate;

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

    /// Inserts unless the key appeared meanwhile: the first value stays.
    fn insert(&self, key: K, value: V) {
        let mut shard = self.shard(&key).write().unwrap_or_else(|e| e.into_inner());
        shard.entry(key).or_insert(value);
    }

    fn len(&self) -> usize {
        self.shards.iter().map(|s| s.read().unwrap_or_else(|e| e.into_inner()).len()).sum()
    }
}

/// Key of the decode stage grids: one grid per (TP degree, boundary link,
/// layer allocation) stage class. The workload's
/// context/input lengths are fixed per cache, so they are not part of the
/// key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub(crate) struct DecStageKey {
    pub tp: usize,
    pub intra: bool,
    pub alloc: usize,
}

/// What one schedule search found, as the search memo keeps it: the pick,
/// the lookups it took, and the searcher's task counters.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchOutcome {
    /// The chosen configuration and its estimate, or `None` when nothing
    /// was feasible.
    pub best: Option<(ScheduleConfig, Estimate)>,
    /// Score lookups the search made.
    pub evals: usize,
    /// Tasks the search certified away without searching them.
    pub certified: usize,
    /// Tasks a single probe resolved exactly.
    pub exact: usize,
    /// Tasks searched in full.
    pub full: usize,
}

/// Key of the search memo: the cluster fingerprint and the caller's
/// encoding of the search options, compared word for word.
type SearchKey = (u64, Vec<u64>);

/// Point-in-time cache counters, exposed through
/// [`Simulator::cache_stats`](crate::Simulator::cache_stats).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EvalCacheStats {
    /// Searches answered by the search memo
    /// ([`Simulator::remembered_search`](crate::Simulator::remembered_search)).
    /// Scores and estimates are not memoized and count neither way.
    pub hits: usize,
    /// Searches that ran.
    pub misses: usize,
    /// Distinct entries across all cache layers: completion analyses,
    /// decode stage grids and searches.
    pub entries: usize,
}

/// The shared evaluation cache: completion analyses, decode stage grids
/// and searches. One instance per (simulator, workload); see the module
/// docs for the invalidation contract.
pub(crate) struct EvalCache {
    completion: ShardedMap<usize, Arc<CompletionSeries>>,
    dec_stage: ShardedMap<DecStageKey, Result<Arc<DecodeStageGrid>, SimError>>,
    searches: ShardedMap<SearchKey, SearchOutcome>,
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
            searches: ShardedMap::new(),
            hits,
            misses,
        }
    }

    pub(crate) fn stats(&self) -> EvalCacheStats {
        EvalCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            entries: self.completion.len() + self.dec_stage.len() + self.searches.len(),
        }
    }

    /// Completion analysis for `n_d` over `output`, built at most once per
    /// `n_d` for this cache's workload.
    ///
    /// # Errors
    ///
    /// Propagates [`CompletionSeries::new`] failures (`n_d == 0`).
    pub(crate) fn completion(
        &self,
        output: &LengthDist,
        n_d: usize,
    ) -> Result<Arc<CompletionSeries>, SimError> {
        if let Some(series) = self.completion.get(&n_d) {
            return Ok(series);
        }
        let series = CompletionSeries::new(output, n_d)
            .map_err(|e| SimError::InvalidConfig { what: "n_d", why: e.to_string() })?;
        let series = Arc::new(series);
        self.completion.insert(n_d, Arc::clone(&series));
        Ok(series)
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
        self.dec_stage.insert(key, grid.clone());
        grid
    }

    /// Search memo, keyed by `(cluster, options)`: the remembered outcome
    /// and `true`, or `search()`'s outcome, now remembered, and `false`.
    /// Counts a hit or a miss per call.
    pub(crate) fn search(
        &self,
        key: SearchKey,
        search: impl FnOnce() -> SearchOutcome,
    ) -> (SearchOutcome, bool) {
        if let Some(outcome) = self.searches.get(&key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return (outcome, true);
        }
        let outcome = search();
        self.searches.insert(key, outcome.clone());
        self.misses.fetch_add(1, Ordering::Relaxed);
        (outcome, false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome(evals: usize) -> SearchOutcome {
        SearchOutcome { best: None, evals, certified: 1, exact: 2, full: 3 }
    }

    #[test]
    fn search_memo_counts_hits_and_misses() {
        // An infeasible search (`best: None`) is remembered like any other.
        let cache = EvalCache::new();
        let mut runs = 0;
        for round in 0..3 {
            let (found, hit) = cache.search((7, vec![1, 2]), || {
                runs += 1;
                outcome(40)
            });
            assert_eq!(found, outcome(40));
            assert_eq!(hit, round > 0);
        }
        assert_eq!(runs, 1);
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (2, 1, 1));
    }

    #[test]
    fn searches_are_keyed_per_cluster_and_options() {
        let cache = EvalCache::new();
        let (a, _) = cache.search((1, vec![5]), || outcome(10));
        // Another cluster fingerprint, or other options, search again...
        let (b, hit) = cache.search((2, vec![5]), || outcome(20));
        assert!(!hit);
        assert_ne!(a, b);
        let (_, hit) = cache.search((1, vec![5, 0]), || outcome(30));
        assert!(!hit, "options compare word for word, length included");
        // ...while the original entry stays (the recovery path).
        let (again, hit) = cache.search((1, vec![5]), || outcome(99));
        assert!(hit);
        assert_eq!(again, a);
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 3, 3));
    }

    #[test]
    fn completion_series_is_shared_per_nd() {
        let cache = EvalCache::new();
        let out = LengthDist::truncated_normal(16.0, 8.0, 64).expect("valid");
        let a = cache.completion(&out, 8).expect("ok");
        let b = cache.completion(&out, 8).expect("ok");
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(a.survival.len(), 8);
        assert_eq!(a.survival[0], 1.0);
        let dist = exegpt_dist::CompletionDist::new(&out, 8).expect("valid");
        assert_eq!(a.fraction.to_bits(), dist.completion_fraction().to_bits());
        for u in 1..=8 {
            assert_eq!(a.survival[u - 1], dist.survival(u), "u={u}");
        }
    }
}
