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
//! result. Keys compare exactly, so two option sets never share an entry.
//! A [`Scorer`](crate::Scorer) computes every point afresh over the warm
//! completion and decode-grid layers.
//!
//! Pipeline plans are not kept here but in each scorer, one per family,
//! per layer split. An RRA plan depends on the TP setting and the TP
//! speedup, which sizes only the split and is not measured where every
//! stage is fused; a WAA plan also on the group split. So a scorer keeps
//! its plan while those repeat (on the benchmark's scheduling grid, 69 %
//! of RRA evaluations; it was 20 % when the speedup was measured at every
//! point), and rebuilds it in place otherwise, in `Vec`s that keep their
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
//! Concurrency: one `Mutex` guards all three maps and the two search
//! counters. Since each search worker's scorer keeps its own handles, the
//! cache sees a few hundred lookups per schedule (about one per nine
//! estimates on `sched-paper`), so one lock does not serialize the search
//! pool. The lock is held for one lookup or one insert only: a missing
//! completion analysis or decode stage grid is built, and a search run,
//! with the lock released, since a search re-enters the cache. On a racing
//! miss both threads compute (computation is pure) and the first insert
//! stays.

use std::collections::BTreeMap;
#[expect(
    clippy::disallowed_types,
    reason = "one lock around the cache's maps, held for one lookup or insert and never across \
              a build or a search"
)]
use std::sync::Mutex;
use std::sync::{Arc, MutexGuard, PoisonError};

use exegpt_dist::{CompletionSeries, LengthDist};
use exegpt_profiler::DecodeStageGrid;

use crate::config::ScheduleConfig;
use crate::error::SimError;
use crate::estimate::Estimate;

/// Key of the decode stage grids: one grid per (TP degree, boundary link,
/// layer allocation) stage class. The workload's
/// context/input lengths are fixed per cache, so they are not part of the
/// key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
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

/// The cache's maps and search counters, behind [`EvalCache`]'s one lock.
#[derive(Default)]
struct Maps {
    completion: BTreeMap<usize, Arc<CompletionSeries>>,
    dec_stage: BTreeMap<DecStageKey, Result<Arc<DecodeStageGrid>, SimError>>,
    searches: BTreeMap<SearchKey, SearchOutcome>,
    hits: usize,
    misses: usize,
}

/// The shared evaluation cache: completion analyses, decode stage grids
/// and searches. One instance per (simulator, workload); see the module
/// docs for the invalidation contract.
#[derive(Default)]
pub(crate) struct EvalCache {
    #[expect(
        clippy::disallowed_types,
        reason = "one lock around the cache's maps, held for one lookup or insert and never \
                  across a build or a search"
    )]
    maps: Mutex<Maps>,
}

impl std::fmt::Debug for EvalCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let maps = self.maps();
        f.debug_struct("EvalCache")
            .field("hits", &maps.hits)
            .field("misses", &maps.misses)
            .finish_non_exhaustive()
    }
}

impl EvalCache {
    /// The maps. No code panics while holding the lock (it covers one
    /// lookup or insert), and the maps only gain finished entries, so a
    /// poisoned lock guards nothing broken.
    fn maps(&self) -> MutexGuard<'_, Maps> {
        self.maps.lock().unwrap_or_else(PoisonError::into_inner)
    }

    pub(crate) fn stats(&self) -> EvalCacheStats {
        let maps = self.maps();
        EvalCacheStats {
            hits: maps.hits,
            misses: maps.misses,
            entries: maps.completion.len() + maps.dec_stage.len() + maps.searches.len(),
        }
    }

    /// Completion analysis for `n_d` over `output`, kept once per `n_d` for
    /// this cache's workload.
    ///
    /// # Errors
    ///
    /// Propagates [`CompletionSeries::new`] failures (`n_d == 0`).
    pub(crate) fn completion(
        &self,
        output: &LengthDist,
        n_d: usize,
    ) -> Result<Arc<CompletionSeries>, SimError> {
        if let Some(series) = self.maps().completion.get(&n_d) {
            return Ok(Arc::clone(series));
        }
        let series = CompletionSeries::new(output, n_d)
            .map_err(|e| SimError::InvalidConfig { what: "n_d", why: e.to_string() })?;
        Ok(Arc::clone(self.maps().completion.entry(n_d).or_insert_with(|| Arc::new(series))))
    }

    /// Decode stage grid for one stage class, kept once per (TP degree,
    /// link, allocation).
    pub(crate) fn dec_stage_grid(
        &self,
        key: DecStageKey,
        build: impl FnOnce() -> Result<DecodeStageGrid, SimError>,
    ) -> Result<Arc<DecodeStageGrid>, SimError> {
        if let Some(grid) = self.maps().dec_stage.get(&key) {
            return grid.clone();
        }
        let grid = build().map(Arc::new);
        self.maps().dec_stage.entry(key).or_insert(grid).clone()
    }

    /// Search memo, keyed by `(cluster, options)`: the remembered outcome
    /// and `true`, or `search()`'s outcome, now remembered, and `false`.
    /// Counts a hit or a miss per call.
    pub(crate) fn search(
        &self,
        key: SearchKey,
        search: impl FnOnce() -> SearchOutcome,
    ) -> (SearchOutcome, bool) {
        {
            let mut maps = self.maps();
            if let Some(outcome) = maps.searches.get(&key).cloned() {
                maps.hits += 1;
                return (outcome, true);
            }
        }
        let outcome = search();
        let mut maps = self.maps();
        maps.misses += 1;
        (maps.searches.entry(key).or_insert(outcome).clone(), false)
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
        let cache = EvalCache::default();
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
        let cache = EvalCache::default();
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
    fn a_panicking_search_leaves_the_memo_usable() {
        // No lock is held while `search()` runs, so its panic poisons
        // nothing and remembers nothing.
        let cache = EvalCache::default();
        let caught = std::panic::catch_unwind(|| cache.search((1, vec![]), || panic!("search")));
        assert!(caught.is_err());
        assert!(!cache.maps.is_poisoned());
        let (found, hit) = cache.search((1, vec![]), || outcome(5));
        assert_eq!((found, hit), (outcome(5), false));
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (0, 1, 1));
    }

    #[test]
    fn a_search_may_read_the_cache() {
        // Searches score configurations, which fetch completion analyses:
        // a lock held across `search()` would deadlock here, so the test
        // first checks that the lock is free.
        let cache = EvalCache::default();
        let out = LengthDist::truncated_normal(16.0, 8.0, 64).expect("valid");
        let (found, _) = cache.search((1, vec![]), || {
            assert!(cache.maps.try_lock().is_ok(), "the lock is held across search()");
            outcome(cache.completion(&out, 4).expect("ok").survival.len())
        });
        assert_eq!(found, outcome(4));
        assert_eq!(cache.stats().entries, 2);
    }

    #[test]
    fn completion_series_is_shared_per_nd() {
        let cache = EvalCache::default();
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
