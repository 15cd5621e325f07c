//! Percentiles over raw samples, reported with their sample counts, and
//! the metric list the benchmark prints.

use std::fmt::Write as _;

/// Fewest samples that must lie beyond a percentile for it to be reported.
pub const MIN_BEYOND: usize = 10;

/// Raw samples of one timing, kept whole so percentiles are exact.
#[derive(Debug, Default, Clone)]
pub struct Samples(Vec<u64>);

impl Samples {
    pub fn push(&mut self, value: u64) {
        self.0.push(value);
    }

    pub fn extend(&mut self, other: &Samples) {
        self.0.extend_from_slice(&other.0);
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// The `q`-quantile by nearest rank, or `None` when fewer than
    /// [`MIN_BEYOND`] samples lie above it.
    pub fn quantile(&mut self, q: f64) -> Option<u64> {
        let n = self.0.len();
        if n == 0 {
            return None;
        }
        let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
        if n - rank < MIN_BEYOND {
            return None;
        }
        let (_, value, _) = self.0.select_nth_unstable(rank - 1);
        Some(*value)
    }
}

/// Median of a few repeated measurements.
pub fn median(mut values: Vec<f64>) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    values.sort_by(|a, b| a.total_cmp(b));
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}

/// `numerator / denominator`, 0 when the denominator is 0.
pub fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator == 0.0 {
        0.0
    } else {
        numerator / denominator
    }
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Sample count behind the value (timings) or its base (ratios).
    pub samples: u64,
}

/// Metrics in report order, plus the ones that could not be reported.
#[derive(Debug, Default)]
pub struct Report {
    pub metrics: Vec<Metric>,
    pub missing: Vec<String>,
}

impl Report {
    pub fn add(&mut self, name: impl Into<String>, value: f64, unit: &'static str, samples: u64) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
            samples,
        });
    }

    /// Adds the `q`-quantile of `samples` (nanoseconds) in microseconds, or
    /// records it as missing when too few samples lie beyond it.
    pub fn quantile_us(&mut self, name: impl Into<String>, samples: &mut Samples, q: f64) {
        let name = name.into();
        match samples.quantile(q) {
            Some(ns) => self.add(name, ns as f64 / 1_000.0, "us", samples.len() as u64),
            None => self.missing.push(format!("{name} (n={})", samples.len())),
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// One human-readable line per metric.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for m in &self.metrics {
            let _ = writeln!(
                out,
                "  {:<40} {:>14.4} {:<6} n={}",
                m.name, m.value, m.unit, m.samples
            );
        }
        for name in &self.missing {
            let _ = writeln!(
                out,
                "  {name:<40} not reported: under {MIN_BEYOND} samples beyond it"
            );
        }
        out
    }

    /// The `"metrics"` object of the result line: the metrics named in
    /// `names`, in that order.
    pub fn json_metrics(&self, names: &[&str]) -> String {
        let mut out = String::from("{");
        for (i, name) in names.iter().enumerate() {
            let m = self
                .metrics
                .iter()
                .find(|m| m.name == *name)
                .unwrap_or_else(|| panic!("metric {name} was not measured"));
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            );
        }
        out.push('}');
        out
    }
}

fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "null".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_needs_ten_samples_beyond() {
        let mut s = Samples::default();
        for v in 1..=1000 {
            s.push(v);
        }
        assert_eq!(s.quantile(0.5), Some(500));
        assert_eq!(s.quantile(0.99), Some(990));
        assert_eq!(s.quantile(0.995), None);
    }

    #[test]
    fn median_of_even_and_odd() {
        assert_eq!(median(vec![3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(vec![4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
