//! `BENCHMARK.json`, compiled in: the workload and metric names, units,
//! directions and bounds live in that one file, and the binary refuses to
//! print a metric the file does not declare (or to omit one it does).

use serde::Deserialize;

/// The contract file at the root of the repository. Only the keys the binary
/// uses are read; the rest are the driver's.
const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

#[derive(Debug, Deserialize)]
pub struct Workload {
    pub name: String,
}

#[derive(Debug, Deserialize)]
pub struct EndToEnd {
    pub name: String,
    pub unit: String,
    pub better: String,
    pub bound: f64,
}

#[derive(Debug, Deserialize)]
pub struct PerLayer {
    pub name: String,
    pub unit: String,
}

#[derive(Debug, Deserialize)]
pub struct Spec {
    pub run_seconds: u64,
    pub workloads: Vec<Workload>,
    pub end_to_end: Vec<EndToEnd>,
    pub per_layer: Vec<PerLayer>,
}

impl Spec {
    pub fn load() -> Spec {
        serde_json::from_str(BENCHMARK_JSON).expect("BENCHMARK.json parses")
    }

    /// `(name, unit)` of every metric a run with this `--trace` flag prints.
    pub fn metrics(&self, traced: bool) -> Vec<(&str, &str)> {
        if traced {
            self.per_layer
                .iter()
                .map(|m| (m.name.as_str(), m.unit.as_str()))
                .collect()
        } else {
            self.end_to_end
                .iter()
                .map(|m| (m.name.as_str(), m.unit.as_str()))
                .collect()
        }
    }
}
