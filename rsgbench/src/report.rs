//! Failure accounting and the per-layer metric set of the traced run.

use crate::stats::{median, Metrics};
use std::collections::BTreeMap;

/// How one operation (or serve job) ended, checks included.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Outcome {
    /// It returned and its output passed every check.
    Ok,
    /// It returned an error or its output failed a check.
    Failed(String),
}

/// Attempted and failed operations. A failure of an operation that
/// probes a known defect is counted apart from the others.
#[derive(Debug, Default)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Failed operations, known defects excluded.
    pub failed: u64,
    /// Failed operations that probe a known defect.
    pub known: u64,
    /// First failure reason per operation name, with its count.
    pub reasons: BTreeMap<String, (u64, String)>,
}

impl Tally {
    /// Counts one attempt of `op`; `known` names the defect it probes.
    pub fn record(&mut self, op: &str, known: Option<&str>, outcome: Outcome) {
        self.attempted += 1;
        let Outcome::Failed(why) = outcome else {
            return;
        };
        match known {
            Some(defect) => {
                self.known += 1;
                let entry = self
                    .reasons
                    .entry(op.to_owned())
                    .or_insert_with(|| (0, format!("known defect ({defect}): {why}")));
                entry.0 += 1;
            }
            None => {
                self.failed += 1;
                let entry = self.reasons.entry(op.to_owned()).or_insert((0, why));
                entry.0 += 1;
            }
        }
    }

    /// Adds another tally's counts and reasons.
    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.known += other.known;
        self.reasons.extend(other.reasons);
    }

    /// Share of attempts that succeeded, known defects counted as
    /// failures.
    pub fn ok_frac(&self) -> f64 {
        if self.attempted == 0 {
            return 0.0;
        }
        (self.attempted - self.failed - self.known) as f64 / self.attempted as f64
    }

    /// One line per failing operation.
    pub fn lines(&self) -> String {
        self.reasons
            .iter()
            .map(|(op, (n, why))| format!("  FAILED {op} x{n}: {why}\n"))
            .collect()
    }
}

/// Per-layer numbers of one traced round (or one traced serve phase).
#[derive(Debug, Default, Clone)]
pub struct LayerSample {
    /// Summed span time per span name, seconds.
    pub times: BTreeMap<String, f64>,
    /// Self time per layer, seconds.
    pub self_times: BTreeMap<String, f64>,
    /// Work counters by name.
    pub counters: BTreeMap<String, f64>,
}

/// The chip workload's hierarchical inputs, named in `hier.s.<input>`.
const HIER_INPUTS: [&str; 6] = ["mult8", "mult16", "pla8", "pla16", "pla32", "megachip"];

/// Lattice sizes of the flat workload, named in `scan.*.<size>`.
const SCAN_SIZES: [&str; 2] = ["10k", "40k"];

/// Layers whose self time is reported as `<layer>.self_s`; `op` is the
/// benchmark's own glue around the layer calls, reported as `bench`.
const LAYERS: [&str; 11] = [
    "lang", "core", "layout", "geom", "leaf", "hier", "scan", "solve", "engine", "serve", "op",
];

/// Timed spans reported by name: `(metric, span name)`.
const TIMED: [(&str, &str); 10] = [
    ("lang.run_s", "lang.run"),
    ("core.from_sample_s", "core.from_sample"),
    ("core.generate_s", "core.generate"),
    ("layout.flatten_s", "layout.flatten"),
    ("layout.drc_s", "layout.drc"),
    ("layout.cif_s", "layout.cif"),
    ("geom.index_s", "geom.index"),
    ("leaf.s", "leaf.compact_library"),
    ("solve.s", "solve.solve"),
    ("engine.apply_s", "engine.apply"),
];

/// Counters reported as they were counted: `(metric, unit)`.
const COUNTED: [(&str, &str); 27] = [
    ("lang.instances", "count"),
    ("core.interfaces", "count"),
    ("layout.boxes", "count"),
    ("layout.cif_bytes", "bytes"),
    ("layout.drc_violations", "count"),
    ("leaf.constraints", "count"),
    ("leaf.unknowns", "count"),
    ("hier.defs", "count"),
    ("hier.constraints", "count"),
    ("hier.solver_passes", "count"),
    ("hier.alternations", "count"),
    ("hier.clusters", "count"),
    ("hier.abstract_boxes", "count"),
    ("hier.flat_boxes", "count"),
    ("scan.kept", "count"),
    ("scan.emitted", "count"),
    ("solve.passes", "count"),
    ("solve.vars", "count"),
    ("solve.edges", "count"),
    ("engine.xy_violations", "count"),
    ("serve.hit_ratio", "ratio"),
    ("serve.solves", "count"),
    ("serve.evictions", "count"),
    ("serve.hit_ms_p50", "ms"),
    ("serve.miss_ms_p50", "ms"),
    ("serve.lookup_ms", "ms"),
    ("serve.persist_ms", "ms"),
];

/// The full per-layer metric set, in every workload's traced run.
/// Layers a workload does not reach read 0. Times are medians over the
/// traced samples; counters come from the last sample.
pub fn per_layer(samples: &[LayerSample], overhead: f64, entry_bytes: f64, ref_ms: f64) -> Metrics {
    let time = |name: &str| -> f64 {
        let v: Vec<f64> = samples
            .iter()
            .map(|s| s.times.get(name).copied().unwrap_or(0.0))
            .collect();
        median(&v)
    };
    let last = samples.last().cloned().unwrap_or_default();
    let count = |name: &str| last.counters.get(name).copied().unwrap_or(0.0);
    let mut m = Metrics::default();
    for (metric, span) in TIMED {
        m.set(metric, time(span), "s");
    }
    let mut hier_total = 0.0;
    for input in HIER_INPUTS {
        let t = time(&format!("hier.{input}"));
        hier_total += t;
        m.set(format!("hier.s.{input}"), t, "s");
    }
    m.set("hier.s", hier_total, "s");
    let defs = count("hier.defs");
    m.set(
        "hier.s_per_def",
        if defs > 0.0 { hier_total / defs } else { 0.0 },
        "s",
    );
    for size in SCAN_SIZES {
        let t = time(&format!("scan.{size}"));
        let swept = count(&format!("scan.swept.{size}"));
        m.set(format!("scan.s.{size}"), t, "s");
        m.set(
            format!("scan.ns_per_box.{size}"),
            if swept > 0.0 { t * 1e9 / swept } else { 0.0 },
            "ns/box",
        );
    }
    for (metric, unit) in COUNTED {
        m.set(metric, count(metric), unit);
    }
    let emitted = count("scan.emitted");
    m.set(
        "scan.keep_ratio",
        if emitted > 0.0 {
            count("scan.kept") / emitted
        } else {
            0.0
        },
        "ratio",
    );
    m.set("serve.entry_bytes", entry_bytes, "bytes");
    for layer in LAYERS {
        let v: Vec<f64> = samples
            .iter()
            .map(|s| s.self_times.get(layer).copied().unwrap_or(0.0))
            .collect();
        let name = if layer == "op" { "bench" } else { layer };
        m.set(format!("{name}.self_s"), median(&v), "s");
    }
    m.set("trace.overhead_frac", overhead, "ratio");
    m.set("bench.ref_ms", ref_ms, "ms");
    m
}

/// The self-time table: one line per layer with its share of the total.
pub fn self_time_table(m: &Metrics) -> String {
    let rows: Vec<(&str, f64)> = m
        .names()
        .filter(|n| n.ends_with(".self_s"))
        .filter_map(|n| m.get(n).map(|v| (n.trim_end_matches(".self_s"), v)))
        .collect();
    let total: f64 = rows.iter().map(|&(_, v)| v).sum();
    let mut out = String::from("  layer        self s    share\n");
    for (layer, v) in rows {
        let share = if total > 0.0 { 100.0 * v / total } else { 0.0 };
        out.push_str(&format!("  {layer:<10} {v:>9.4} {share:>7.1}%\n"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn failures_are_counted_not_fatal() {
        let mut t = Tally::default();
        t.record("a", None, Outcome::Ok);
        t.record("b", None, Outcome::Failed("wrong".into()));
        t.record("b", None, Outcome::Failed("wrong again".into()));
        t.record("probe", Some("compact_xy"), Outcome::Failed("7 DRC".into()));
        t.record("probe", Some("compact_xy"), Outcome::Ok);
        assert_eq!((t.attempted, t.failed, t.known), (5, 2, 1));
        assert!((t.ok_frac() - 0.4).abs() < 1e-12);
        assert_eq!(t.reasons["b"], (2, "wrong".into()));
        assert!(t.lines().contains("known defect (compact_xy)"));
    }

    #[test]
    fn per_layer_set_is_complete_and_defaults_to_zero() {
        let m = per_layer(&[], 0.0, 0.0, 0.0);
        let names: Vec<&str> = m.names().collect();
        assert!(names.contains(&"hier.s.megachip"));
        assert!(names.contains(&"scan.ns_per_box.40k"));
        assert!(names.contains(&"bench.self_s"));
        assert!(names.iter().all(|n| m.get(n) == Some(0.0)));
        assert_eq!(names.len(), 64);
    }
}
