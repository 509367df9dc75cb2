//! The round runner shared by the `generate`, `chip` and `flat`
//! workloads: a round runs every operation once, in order; rounds repeat
//! until the time budget is spent. Outputs are checked after each round,
//! outside the timed region.

use crate::host::Reference;
use crate::report::{LayerSample, Outcome, Tally};
use crate::stats::{median, quantile};
use crate::trace::{self_time_by_layer, total_by_name, Tracer};
use std::collections::BTreeMap;
use std::time::Instant;

/// What one successful operation hands back to the runner.
#[derive(Debug, Clone, Default)]
pub struct OpOutput {
    /// Flattened input boxes the operation processed.
    pub boxes: usize,
    /// Bounding-box area of the output layout.
    pub area: i64,
    /// Bounding-box area of the input layout.
    pub input_area: i64,
    /// Digest of the output; later rounds must reproduce the first.
    pub digest: u64,
    /// DRC violations the operation itself found (must be 0).
    pub violations: usize,
    /// Cell definitions behind the output.
    pub defs: usize,
    /// Work counters for the traced run, summed per round by name.
    pub counters: Vec<(&'static str, f64)>,
}

/// One batch workload.
pub trait Batch {
    /// The full output an operation produces, kept until it is checked.
    type Output;

    /// Operation names, in round order.
    fn ops(&self) -> &[String];

    /// Why operation `op` is expected to fail, when it probes a known
    /// defect.
    fn known_defect(&self, op: usize) -> Option<&'static str>;

    /// Runs operation `op`. A traced run may split a call into its
    /// public parts to time each layer; the output must not change.
    ///
    /// # Errors
    ///
    /// Whatever the pipeline returned, as text.
    fn run(&self, op: usize, tracer: &mut Tracer) -> Result<Self::Output, String>;

    /// Summarizes an output for timing and later-round comparison.
    fn summary(&self, out: &Self::Output) -> OpOutput;

    /// Full output check, run once per operation (on its first success).
    ///
    /// # Errors
    ///
    /// Describes the first check that failed.
    fn check(&self, op: usize, out: &Self::Output) -> Result<(), String>;
}

/// Everything a batch run measured.
#[derive(Debug, Default)]
pub struct BatchResult {
    /// Operation names, in round order.
    pub names: Vec<String>,
    /// Failure accounting.
    pub tally: Tally,
    /// Untraced round wall times, seconds.
    pub rounds: Vec<f64>,
    /// Untraced per-operation wall times, seconds.
    pub op_times: Vec<Vec<f64>>,
    /// The same times rescaled to the nominal host, reference seconds
    /// (see [`crate::host`]).
    pub op_ref_times: Vec<Vec<f64>>,
    /// The reference readings of the untraced rounds, seconds.
    pub readings: Vec<f64>,
    /// Boxes of each operation whose first output passed its check.
    pub ok_boxes: Vec<Option<usize>>,
    /// Output and input areas of the first round's checked outputs.
    pub ok_area: Vec<Option<(i64, i64)>>,
    /// Flattened boxes and cell definitions of the first round.
    pub sizes: (usize, usize),
    /// Traced-round samples.
    pub traced: Vec<LayerSample>,
    /// Traced round wall times, seconds.
    pub traced_rounds: Vec<f64>,
}

impl BatchResult {
    /// Each operation's cost: the median of its rescaled times,
    /// reference seconds.
    pub fn op_costs(&self) -> Vec<f64> {
        self.op_ref_times.iter().map(|t| median(t)).collect()
    }

    /// Boxes of the operations that succeed, divided by the cost of a
    /// round: the sum of every operation's cost.
    pub fn boxes_per_s(&self) -> f64 {
        let boxes: usize = self.ok_boxes.iter().flatten().sum();
        boxes as f64 / self.op_costs().iter().sum::<f64>()
    }

    /// The same, from the median wall times, for the report.
    pub fn wall_boxes_per_s(&self) -> f64 {
        let boxes: usize = self.ok_boxes.iter().flatten().sum();
        boxes as f64 / self.op_times.iter().map(|t| median(t)).sum::<f64>()
    }

    /// The `p`-quantile of the round's operation costs, reference
    /// seconds: a job here is one operation.
    pub fn job_quantile(&self, p: f64) -> f64 {
        quantile(&self.op_costs(), p).unwrap_or(0.0)
    }

    /// Operations per reference second of round cost.
    pub fn jobs_per_s(&self) -> f64 {
        self.op_times.len() as f64 / self.op_costs().iter().sum::<f64>()
    }

    /// Summed bounding-box area of the checked outputs over that of
    /// their inputs.
    pub fn area_ratio(&self) -> f64 {
        let (out, input) = self
            .ok_area
            .iter()
            .flatten()
            .fold((0.0, 0.0), |(o, i), &(a, b)| (o + a as f64, i + b as f64));
        out / input
    }

    /// Traced against untraced median round time, minus one.
    pub fn overhead(&self) -> f64 {
        median(&self.traced_rounds) / median(&self.rounds) - 1.0
    }
}

/// Runs whole rounds of `w` for `seconds` of measured time. With
/// `trace`, untraced and traced rounds alternate, half the budget each
/// (at least one round each), so host drift during the run falls on both
/// sides of the tracing-overhead comparison; `tracer` keeps the traced
/// spans.
pub fn run<W: Batch>(w: &W, seconds: f64, tracer: &mut Tracer) -> BatchResult {
    let trace = tracer.enabled();
    let n = w.ops().len();
    let mut res = BatchResult {
        names: w.ops().to_vec(),
        op_times: vec![Vec::new(); n],
        op_ref_times: vec![Vec::new(); n],
        ok_boxes: vec![None; n],
        ok_area: vec![None; n],
        ..BatchResult::default()
    };
    // The first checked output of each operation; later rounds must
    // reproduce its digest.
    let mut checked: Vec<Option<OpOutput>> = vec![None; n];
    let mut reference = Reference::default();
    let mut off = Tracer::off();
    let budget = if trace { seconds / 2.0 } else { seconds };
    // Measured seconds of untraced and traced rounds.
    let mut spent = [0.0, 0.0];
    let mut round = 0u64;
    while spent[0] < budget || (trace && spent[1] < budget) || res.rounds.is_empty() {
        let traced_phase = trace && round % 2 == 1;
        let t: &mut Tracer = if traced_phase { &mut *tracer } else { &mut off };
        let mark = t.len();
        let mut outs = Vec::with_capacity(n);
        let mut round_secs = 0.0;
        // Untraced operations sit between reference readings: the one
        // after an operation is the one before the next.
        let mut before = if traced_phase { 0.0 } else { reference.read() };
        for (i, name) in w.ops().iter().enumerate() {
            t.set_op(round * n as u64 + i as u64);
            let started = Instant::now();
            let out = t.span(&format!("op.{name}"), |t| w.run(i, t));
            let secs = started.elapsed().as_secs_f64();
            round_secs += secs;
            if !traced_phase {
                let after = reference.read();
                res.op_times[i].push(secs);
                res.op_ref_times[i].push(secs * Reference::scale(before, after));
                before = after;
            }
            outs.push(out);
        }
        spent[usize::from(traced_phase)] += round_secs;
        let mut counters: BTreeMap<String, f64> = BTreeMap::new();
        for (i, out) in outs.iter().enumerate() {
            let outcome = match out {
                Err(e) => Outcome::Failed(e.clone()),
                Ok(out) => {
                    let sum = w.summary(out);
                    if round == 0 {
                        res.sizes.0 += sum.boxes;
                        res.sizes.1 += sum.defs;
                    }
                    for &(k, v) in &sum.counters {
                        *counters.entry(k.to_owned()).or_insert(0.0) += v;
                    }
                    check_one(w, i, out, sum, &mut checked[i], &mut res, round == 0)
                }
            };
            res.tally.record(&w.ops()[i], w.known_defect(i), outcome);
        }
        if traced_phase {
            let spans = rebase(&t.spans()[mark..], mark);
            res.traced.push(LayerSample {
                times: total_by_name(&spans),
                self_times: self_time_by_layer(&spans),
                counters,
            });
            res.traced_rounds.push(round_secs);
        } else {
            res.rounds.push(round_secs);
        }
        round += 1;
    }
    res.readings = reference.readings;
    res
}

/// Renumbers a tail slice of one tracer's spans so ids index the slice.
fn rebase(spans: &[crate::trace::Span], base: usize) -> Vec<crate::trace::Span> {
    spans
        .iter()
        .cloned()
        .map(|mut s| {
            s.id -= base;
            s.parent = s.parent.and_then(|p| p.checked_sub(base));
            s
        })
        .collect()
}

fn check_one<W: Batch>(
    w: &W,
    i: usize,
    out: &W::Output,
    sum: OpOutput,
    checked: &mut Option<OpOutput>,
    res: &mut BatchResult,
    first_round: bool,
) -> Outcome {
    if sum.violations > 0 {
        return Outcome::Failed(format!("{} DRC violations", sum.violations));
    }
    match checked {
        Some(first) if first.digest != sum.digest => {
            Outcome::Failed("output differs from the first round's".into())
        }
        Some(_) => Outcome::Ok,
        None => match w.check(i, out) {
            Err(e) => Outcome::Failed(e),
            Ok(()) => {
                if first_round {
                    res.ok_boxes[i] = Some(sum.boxes);
                    res.ok_area[i] = Some((sum.area, sum.input_area));
                }
                *checked = Some(sum);
                Outcome::Ok
            }
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Four operations: one correct, one that errors, one whose output
    /// is deliberately wrong, and a known-defect probe that fails.
    struct Toy {
        names: Vec<String>,
    }

    impl Batch for Toy {
        type Output = u64;

        fn ops(&self) -> &[String] {
            &self.names
        }

        fn known_defect(&self, op: usize) -> Option<&'static str> {
            (op == 3).then_some("probe")
        }

        fn run(&self, op: usize, t: &mut Tracer) -> Result<u64, String> {
            t.span("layout.drc", |_| match op {
                1 => Err("boom".into()),
                _ => Ok(op as u64),
            })
        }

        fn summary(&self, out: &u64) -> OpOutput {
            OpOutput {
                boxes: 10,
                area: 1,
                input_area: 2,
                digest: *out,
                ..OpOutput::default()
            }
        }

        fn check(&self, op: usize, out: &u64) -> Result<(), String> {
            if op >= 2 {
                Err(format!("wrong output {out}"))
            } else {
                Ok(())
            }
        }
    }

    fn toy() -> Toy {
        Toy {
            names: ["ok", "err", "wrong", "probe"].map(String::from).to_vec(),
        }
    }

    #[test]
    fn wrong_outputs_are_counted_and_the_run_continues() {
        let res = run(&toy(), 1e-9, &mut Tracer::off());
        assert_eq!(res.rounds.len(), 1);
        assert_eq!(res.op_times.iter().map(Vec::len).sum::<usize>(), 4);
        assert_eq!(
            (res.tally.attempted, res.tally.failed, res.tally.known),
            (4, 2, 1)
        );
        assert_eq!(res.ok_boxes, vec![Some(10), None, None, None]);
        assert!((res.area_ratio() - 0.5).abs() < 1e-12);
        assert!(res.tally.reasons["wrong"].1.contains("wrong output"));
    }

    #[test]
    fn traced_run_adds_traced_rounds_with_spans() {
        let mut tracer = Tracer::on(Instant::now());
        let res = run(&toy(), 1e-9, &mut tracer);
        assert_eq!((res.rounds.len(), res.traced_rounds.len()), (1, 1));
        assert_eq!(tracer.spans().len(), 8);
        let sample = &res.traced[0];
        assert!(sample.times.contains_key("op.probe"));
        assert!(sample.self_times.contains_key("layout"));
        assert_eq!(res.tally.attempted, 8);
    }
}
