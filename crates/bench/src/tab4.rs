//! Table 4: cost of (re-)deploying LLMs — loading weights from SSD on first
//! deployment versus from host DRAM when a schedule change requires
//! re-allocation (§7.7).

use exegpt_cluster::{ClusterSpec, LoadCostModel, LoadSource};
use exegpt_model::ModelConfig;
use serde::Serialize;

use crate::table;

/// One row of Table 4.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Row {
    /// Model name.
    pub model: String,
    /// GPUs loaded in parallel.
    pub gpus: usize,
    /// Seconds to reload from host DRAM.
    pub from_dram: f64,
    /// Seconds to load from SSD.
    pub from_ssd: f64,
}

/// Regenerates Table 4 with its (model, #GPUs) pairs.
pub fn generate() -> Vec<Row> {
    let cases = [
        (ModelConfig::gpt3_39b(), 16),
        (ModelConfig::gpt3_101b(), 32),
        (ModelConfig::gpt3_175b(), 32),
        (ModelConfig::gpt3_341b(), 48),
    ];
    let lcm = LoadCostModel::new(ClusterSpec::a40_cluster());
    cases
        .into_iter()
        .map(|(model, gpus)| Row {
            model: model.name().to_string(),
            gpus,
            from_dram: lcm.load_time(model.param_bytes(), gpus, LoadSource::Dram).as_secs(),
            from_ssd: lcm.load_time(model.param_bytes(), gpus, LoadSource::Ssd).as_secs(),
        })
        .collect()
}

/// Renders the rows as the paper's table.
pub fn render(rows: &[Row]) -> String {
    let body: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.model.clone(),
                r.gpus.to_string(),
                format!("{:.1} secs.", r.from_dram),
                format!("{:.1} secs.", r.from_ssd),
            ]
        })
        .collect();
    format!(
        "Table 4: cost of loading LLMs from SSD or CPU DRAM\n{}",
        table::render(&["model", "#GPUs", "from DRAM", "from SSD"], &body)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_grow_with_model_size_and_dram_beats_ssd() {
        let rows = generate();
        assert_eq!(rows.len(), 4);
        for r in &rows {
            assert!(r.from_dram < r.from_ssd, "{}", r.model);
        }
        assert!(rows[3].from_ssd > rows[0].from_ssd);
        assert!(rows[3].from_dram > rows[0].from_dram);
    }
}
