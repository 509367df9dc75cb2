//! Order statistics, metric names and the result line.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// The `p`-quantile (`0 ≤ p ≤ 1`) of `values` by linear interpolation
/// between closest ranks (the "inclusive" method): `p = 0` is the
/// minimum, `p = 1` the maximum. `None` for an empty slice.
pub fn quantile(values: &[f64], p: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = p.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * frac)
}

/// The median of `values`; `0.0` for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5).unwrap_or(0.0)
}

/// The highest of the percentiles 50, 75, 90, 95 and 99 that leaves at
/// least ten samples above it, as `(percentile, value)`.
pub fn tail_percentile(values: &[f64]) -> Option<(u32, f64)> {
    [99u32, 95, 90, 75, 50]
        .into_iter()
        .find(|&pct| values.len() * (100 - pct as usize) >= 1000)
        .and_then(|pct| quantile(values, f64::from(pct) / 100.0).map(|v| (pct, v)))
}

/// Whether `name` is a legal metric name: one or more of
/// `[A-Za-z0-9_.-]`, starting with a letter or digit, at most 64 long.
pub fn valid_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Named metrics with units, in insertion-independent (sorted) order.
#[derive(Debug, Default)]
pub struct Metrics {
    values: BTreeMap<String, (f64, &'static str)>,
}

impl Metrics {
    /// Records (or overwrites) one metric.
    ///
    /// # Panics
    ///
    /// On a name outside the metric grammar or a non-finite value: both
    /// are bugs in the benchmark, not in the program it measures.
    pub fn set(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let name = name.into();
        assert!(valid_metric_name(&name), "bad metric name `{name}`");
        assert!(value.is_finite(), "metric `{name}` is not finite: {value}");
        self.values.insert(name, (value, unit));
    }

    /// The recorded value of `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).map(|&(v, _)| v)
    }

    /// Metric names in sorted order.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.values.keys().map(String::as_str)
    }

    /// Human-readable `name value unit` lines.
    pub fn table(&self) -> String {
        let mut out = String::new();
        for (name, (value, unit)) in &self.values {
            let _ = writeln!(out, "  {name:<28} {value:>18.6} {unit}");
        }
        out
    }
}

/// The final result line: `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}`.
/// Values print with Rust's shortest round-trip formatting, so every
/// measured digit survives.
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, (name, (value, unit))) in metrics.values.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        );
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_interpolates_between_ranks() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&v, 0.0), Some(1.0));
        assert_eq!(quantile(&v, 1.0), Some(4.0));
        assert_eq!(quantile(&v, 0.5), Some(2.5));
        // numpy.percentile([1, 2, 3, 4], [25, 75]) = [1.75, 3.25]
        assert_eq!(quantile(&v, 0.25), Some(1.75));
        assert_eq!(quantile(&v, 0.75), Some(3.25));
        assert_eq!(quantile(&[7.0], 0.9), Some(7.0));
        assert_eq!(quantile(&[], 0.5), None);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        let (pct, value) = tail_percentile(&hundred).unwrap();
        assert_eq!(pct, 90);
        assert!((value - 90.1).abs() < 1e-9);
        let thousand: Vec<f64> = (0..1000).map(f64::from).collect();
        assert_eq!(tail_percentile(&thousand).unwrap().0, 99);
        assert_eq!(tail_percentile(&hundred[..40]).unwrap().0, 75);
        assert_eq!(tail_percentile(&hundred[..19]), None);
    }

    #[test]
    fn metric_name_grammar() {
        for good in [
            "setup_s",
            "hier.s.mult32",
            "scan.ns_per_box.100k",
            "job-p90",
            "9a",
        ] {
            assert!(valid_metric_name(good), "{good}");
        }
        let long = "a".repeat(65);
        for bad in ["", ".x", "_x", "a b", "a/b", "ms²", "a,b", long.as_str()] {
            assert!(!valid_metric_name(bad), "{bad}");
        }
    }

    #[test]
    fn result_line_is_json_with_every_digit() {
        let mut m = Metrics::default();
        m.set("b_ms", 1.0 / 3.0, "ms");
        m.set("a_s", 2.0, "s");
        assert_eq!(
            result_json(true, 3, 0, &m),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\
             \"a_s\": {\"value\": 2.0, \"unit\": \"s\"}, \
             \"b_ms\": {\"value\": 0.3333333333333333, \"unit\": \"ms\"}}}"
        );
    }

    #[test]
    #[should_panic(expected = "bad metric name")]
    fn bad_metric_name_is_a_bug() {
        Metrics::default().set("no spaces", 1.0, "s");
    }
}
