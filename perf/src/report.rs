//! Sample summaries and the metric report.

use serde::Value;
use std::collections::BTreeMap;

/// Minimum, median, quartiles and size of a sample of timings; the
/// median and quartiles as Python's `statistics.median` and
/// `statistics.quantiles(values, n=4)` compute them.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// The smallest value.
    pub min: f64,
    /// The median.
    pub median: f64,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
    /// Sample size.
    pub n: usize,
}

impl Summary {
    /// Summarizes a non-empty sample.
    ///
    /// # Panics
    ///
    /// Panics on an empty sample.
    pub fn of(values: &[f64]) -> Summary {
        assert!(!values.is_empty(), "summary of an empty sample");
        let mut sorted = values.to_vec();
        sorted.sort_by(f64::total_cmp);
        let n = sorted.len();
        let median = if n % 2 == 1 {
            sorted[n / 2]
        } else {
            (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
        };
        let (q1, q3) = if n < 2 {
            (sorted[0], sorted[0])
        } else {
            (quartile(&sorted, 1), quartile(&sorted, 3))
        };
        Summary {
            min: sorted[0],
            median,
            q1,
            q3,
            n,
        }
    }
}

/// Quartile `i` of sorted data by the exclusive method, Python's default.
fn quartile(sorted: &[f64], i: usize) -> f64 {
    let n = sorted.len();
    let m = i * (n + 1);
    let j = (m / 4).clamp(1, n - 1);
    let delta = m as f64 - (j * 4) as f64;
    (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name, as `BENCHMARK.json` lists it.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Reported value.
    pub value: f64,
    /// The sample behind a timing over reps.
    pub sample: Option<Summary>,
}

/// Everything one workload run reports.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Metrics a user of the simulator sees.
    pub end_to_end: Vec<Metric>,
    /// Metrics of single layers.
    pub per_layer: Vec<Metric>,
    /// Cells attempted.
    pub attempted: u64,
    /// Cells that panicked or whose document differed from the
    /// library reference.
    pub failed: u64,
    /// One line per failed cell.
    pub errors: Vec<String>,
}

impl Report {
    /// Whether every check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// Adds an end-to-end timing over reps, reporting the statistic
    /// `stat` picks from its sample.
    pub fn timing(
        &mut self,
        name: &'static str,
        unit: &'static str,
        values: &[f64],
        stat: fn(&Summary) -> f64,
    ) {
        let sample = Summary::of(values);
        self.end_to_end.push(Metric {
            name,
            unit,
            value: stat(&sample),
            sample: Some(sample),
        });
    }

    /// Adds an end-to-end single value.
    pub fn value(&mut self, name: &'static str, unit: &'static str, value: f64) {
        self.end_to_end.push(Metric {
            name,
            unit,
            value,
            sample: None,
        });
    }

    /// Adds a per-layer value.
    pub fn layer(&mut self, name: &'static str, unit: &'static str, value: f64) {
        self.per_layer.push(Metric {
            name,
            unit,
            value,
            sample: None,
        });
    }

    /// Adds a per-layer value read from the telemetry counters; with
    /// telemetry compiled out it is absent.
    pub fn counted(&mut self, name: &'static str, unit: &'static str, value: f64) {
        if bf_telemetry::enabled() {
            self.layer(name, unit, value);
        }
    }

    /// Adds a per-layer median over reps.
    pub fn layer_median(&mut self, name: &'static str, unit: &'static str, values: &[f64]) {
        let sample = Summary::of(values);
        self.per_layer.push(Metric {
            name,
            unit,
            value: sample.median,
            sample: Some(sample),
        });
    }

    /// The human-readable lines: every metric with its unit, timings
    /// with their sample's size, minimum, quartiles and median.
    pub fn lines(&self) -> Vec<String> {
        let mut lines = Vec::new();
        for (title, metrics) in [
            ("end-to-end", &self.end_to_end),
            ("per-layer", &self.per_layer),
        ] {
            if metrics.is_empty() {
                continue;
            }
            lines.push(format!("  {title}:"));
            for metric in metrics {
                let mut line = format!(
                    "    {:<32} {:>16.6} {:<10}",
                    metric.name, metric.value, metric.unit
                );
                if let Some(s) = metric.sample {
                    line.push_str(&format!(
                        " n={} min {:.6} q1 {:.6} median {:.6} q3 {:.6}",
                        s.n, s.min, s.q1, s.median, s.q3
                    ));
                }
                lines.push(line.trim_end().to_owned());
            }
        }
        for error in &self.errors {
            lines.push(format!("  FAILED: {error}"));
        }
        lines
    }

    /// The one-line JSON result: `correct`, `attempted`, `failed`, and
    /// the selected metrics as `{name: {value, unit}}`.
    pub fn json(&self, end_to_end: bool, per_layer: bool) -> Value {
        let mut metrics = BTreeMap::new();
        let selected = [(end_to_end, &self.end_to_end), (per_layer, &self.per_layer)];
        for (_, list) in selected.iter().filter(|(on, _)| *on) {
            for metric in list.iter() {
                let mut entry = BTreeMap::new();
                entry.insert("value".to_owned(), Value::F64(metric.value));
                entry.insert("unit".to_owned(), Value::String(metric.unit.to_owned()));
                metrics.insert(metric.name.to_owned(), Value::Object(entry));
            }
        }
        let mut doc = BTreeMap::new();
        doc.insert("correct".to_owned(), Value::Bool(self.correct()));
        doc.insert("attempted".to_owned(), Value::U64(self.attempted));
        doc.insert("failed".to_owned(), Value::U64(self.failed));
        doc.insert("metrics".to_owned(), Value::Object(metrics));
        Value::Object(doc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_matches_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let values: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = Summary::of(&values);
        assert_eq!(
            (s.min, s.q1, s.median, s.q3, s.n),
            (1.0, 2.75, 5.5, 8.25, 10)
        );
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let s = Summary::of(&[3.0, 1.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 3.0));
        let s = Summary::of(&[4.0]);
        assert_eq!((s.q1, s.median, s.q3, s.n), (4.0, 4.0, 4.0, 1));
    }
}
