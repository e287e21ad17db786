//! The five evaluated NLP tasks (paper Table 3).

use exegpt_dist::{DistError, LengthDist};
use exegpt_sim::Workload;
use serde::Serialize;

/// One of the paper's evaluation tasks, with its Table 3 sequence-length
/// statistics (truncated normal, the paper's best-fit family for public
/// NLP datasets).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum Task {
    /// Task S: summarization — long inputs, short outputs.
    Summarization,
    /// Task T: translation — symmetric input/output lengths.
    Translation,
    /// Task G: code generation — short inputs, long outputs.
    CodeGeneration,
    /// Task C1: conversational Q/A with short responses.
    ConversationalQa1,
    /// Task C2: conversational Q/A with long contexts and responses.
    ConversationalQa2,
}

impl Task {
    /// All five tasks in Table 3 order.
    pub fn all() -> [Task; 5] {
        [
            Task::Summarization,
            Task::Translation,
            Task::CodeGeneration,
            Task::ConversationalQa1,
            Task::ConversationalQa2,
        ]
    }

    /// The paper's one-letter task id (`S`, `T`, `G`, `C1`, `C2`).
    pub fn id(&self) -> &'static str {
        match self {
            Task::Summarization => "S",
            Task::Translation => "T",
            Task::CodeGeneration => "G",
            Task::ConversationalQa1 => "C1",
            Task::ConversationalQa2 => "C2",
        }
    }

    /// Input-length statistics `(mean, std, max)` from Table 3.
    pub fn input_stats(&self) -> (f64, f64, usize) {
        match self {
            Task::Summarization => (256.0, 252.0, 512),
            Task::Translation => (128.0, 81.0, 256),
            Task::CodeGeneration => (64.0, 23.0, 128),
            Task::ConversationalQa1 => (256.0, 115.0, 512),
            Task::ConversationalQa2 => (512.0, 252.0, 1024),
        }
    }

    /// Output-length statistics `(mean, std, max)` from Table 3.
    pub fn output_stats(&self) -> (f64, f64, usize) {
        match self {
            Task::Summarization => (32.0, 13.0, 80),
            Task::Translation => (128.0, 68.0, 320),
            Task::CodeGeneration => (192.0, 93.0, 480),
            Task::ConversationalQa1 => (64.0, 30.0, 160),
            Task::ConversationalQa2 => (256.0, 134.0, 640),
        }
    }

    /// The task's sequence-length workload.
    ///
    /// # Errors
    ///
    /// Propagates distribution construction errors (none occur for the
    /// built-in statistics).
    pub fn workload(&self) -> Result<Workload, DistError> {
        let (im, is, ix) = self.input_stats();
        let (om, os, ox) = self.output_stats();
        Ok(Workload::new(
            LengthDist::truncated_normal(im, is, ix)?,
            LengthDist::truncated_normal(om, os, ox)?,
        ))
    }
}

impl std::fmt::Display for Task {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.id())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_tasks_build_workloads() {
        for t in Task::all() {
            let w = t.workload().expect("valid task statistics");
            let (_, _, ix) = t.input_stats();
            let (_, _, ox) = t.output_stats();
            assert_eq!(w.input().max_len(), ix);
            assert_eq!(w.output().max_len(), ox);
        }
    }

    /// Table 3 reports the 99th-percentile output lengths; our truncated
    /// normals must land close to them.
    #[test]
    fn p99_output_lengths_match_table3() {
        let expected = [
            (Task::Summarization, 63usize),
            (Task::Translation, 292),
            (Task::CodeGeneration, 417),
            (Task::ConversationalQa1, 137),
            (Task::ConversationalQa2, 579),
        ];
        for (task, p99) in expected {
            let w = task.workload().expect("valid");
            let got = w.output().quantile(0.99);
            let err = (got as f64 - p99 as f64).abs() / p99 as f64;
            assert!(err < 0.10, "{task}: p99 {got} vs paper {p99}");
        }
    }

    #[test]
    fn ids_are_unique() {
        let ids: Vec<_> = Task::all().iter().map(|t| t.id()).collect();
        let mut dedup = ids.clone();
        dedup.dedup();
        assert_eq!(ids.len(), 5);
        assert_eq!(ids, dedup);
        assert_eq!(Task::ConversationalQa2.to_string(), "C2");
    }
}
