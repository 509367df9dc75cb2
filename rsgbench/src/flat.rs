//! `flat`: the flat engine and the DRC sweep at 10⁴–10⁵ boxes. On the
//! E23 lattice of 10⁴ boxes: DRC, then one visibility sweep along X and
//! one along Y; on the lattice of 4×10⁴: the X sweep; on the lattice of
//! 10⁵: DRC. (An X sweep at 10⁵ takes about 10 s, too long to sample
//! often enough in a run to find its quiet-host cost.) Last, the
//! alternating `compact_xy` on the flattened 8×8 multiplier, a probe of
//! a known defect: its output is DRC-dirty although its input is clean.

use crate::batch::{Batch, OpOutput};
use crate::inputs::SOLVER;
use crate::trace::Tracer;
use rsg::compact::engine;
use rsg::compact::leaf::Parallelism;
use rsg::compact::scanline::{self, Method, Prune};
use rsg::compact::solver::{self, EdgeOrder};
use rsg::geom::{Axis, Rect};
use rsg::layout::{drc, DesignRules, FlatBox, FlatLayout, Layer};
use std::cell::OnceCell;
use std::hash::{DefaultHasher, Hash, Hasher};

/// Alternation cap of the `compact_xy` probe.
const XY_PASSES: usize = 10;

/// Why the `compact_xy` probe fails today.
pub const XY_DEFECT: &str = "compact_xy returns DRC-dirty output on the DRC-clean 8x8 multiplier; \
                             the engine fix is a later change, and the fix shows as ok_frac rising to 1";

#[derive(Clone, Copy)]
enum Op {
    Drc { input: usize },
    Sweep { input: usize, axis: Axis },
    Xy { input: usize },
}

struct Input {
    size: &'static str,
    boxes: Vec<(Layer, Rect)>,
}

/// The workload's inputs.
pub struct Flat {
    names: Vec<String>,
    ops: Vec<Op>,
    inputs: Vec<Input>,
    rules: DesignRules,
    emitted: OnceCell<usize>,
}

/// What a flat operation produced.
pub enum FlatOut {
    /// DRC of an input: its violation count.
    Drc { boxes: usize, violations: usize },
    /// Compacted boxes, with the traced run's sweep counters.
    Boxes {
        input: usize,
        boxes: Vec<(Layer, Rect)>,
        counters: Vec<(&'static str, f64)>,
    },
}

impl Flat {
    /// Builds the inputs (all fixed by size; the seed draws nothing here).
    ///
    /// # Errors
    ///
    /// When the multiplier cannot be generated.
    pub fn setup() -> Result<Flat, String> {
        let mult = rsg::mult::generator::generate(8, 8).map_err(|e| e.to_string())?;
        let mult = rsg::layout::flatten(mult.rsg.cells(), mult.top).map_err(|e| e.to_string())?;
        let inputs = vec![
            Input {
                size: "10k",
                boxes: rsg_bench::megachip_flat(10_000),
            },
            Input {
                size: "40k",
                boxes: rsg_bench::megachip_flat(40_000),
            },
            Input {
                size: "100k",
                boxes: rsg_bench::megachip_flat(100_000),
            },
            Input {
                size: "mult8",
                boxes: mult.layer_rects().to_vec(),
            },
        ];
        let ops = vec![
            ("drc10k", Op::Drc { input: 0 }),
            (
                "x10k",
                Op::Sweep {
                    input: 0,
                    axis: Axis::X,
                },
            ),
            (
                "y10k",
                Op::Sweep {
                    input: 0,
                    axis: Axis::Y,
                },
            ),
            (
                "x40k",
                Op::Sweep {
                    input: 1,
                    axis: Axis::X,
                },
            ),
            ("drc100k", Op::Drc { input: 2 }),
            ("xy_mult8", Op::Xy { input: 3 }),
        ];
        Ok(Flat {
            names: ops.iter().map(|(n, _)| (*n).to_owned()).collect(),
            ops: ops.into_iter().map(|(_, op)| op).collect(),
            inputs,
            rules: crate::inputs::rules(),
            emitted: OnceCell::new(),
        })
    }

    /// One sweep. Untraced, it is `engine::compact_axis`; traced, the same
    /// work split into its public calls — generate (pruned, serial, as
    /// `compact_axis` does), solve, apply — each in its own span.
    fn sweep(&self, input: usize, axis: Axis, t: &mut Tracer) -> Result<FlatOut, String> {
        let Input { size, boxes } = &self.inputs[input];
        if !t.enabled() {
            let out = engine::compact_axis(boxes, &self.rules, axis, &SOLVER)
                .map_err(|e| e.to_string())?;
            return Ok(FlatOut::Boxes {
                input,
                boxes: out,
                counters: Vec::new(),
            });
        }
        let (sys, vars) = t.span(&format!("scan.{size}"), |_| {
            scanline::generate_with(
                boxes,
                &self.rules,
                Method::Visibility,
                axis,
                Prune::Apply,
                Parallelism::Serial,
            )
        });
        let sol = t
            .span("solve.solve", |_| solver::solve(&sys, EdgeOrder::Sorted))
            .map_err(|e| e.to_string())?;
        let out = t.span("engine.apply", |_| {
            engine::apply_positions(boxes, &vars, sol.positions(), axis)
        });
        let mut counters = vec![
            ("solve.passes", sol.passes as f64),
            ("solve.vars", sys.num_vars() as f64),
            ("solve.edges", sys.constraints().len() as f64),
        ];
        if *size == "10k" && axis == Axis::X {
            counters.push(("scan.kept", sys.constraints().len() as f64));
        }
        match *size {
            "10k" => counters.push(("scan.swept.10k", boxes.len() as f64)),
            _ => counters.push(("scan.swept.40k", boxes.len() as f64)),
        }
        Ok(FlatOut::Boxes {
            input,
            boxes: out,
            counters,
        })
    }

    /// Constraints the 10⁴ X sweep emits without pruning (traced runs
    /// only; computed once, outside the timed region).
    fn emitted(&self) -> usize {
        *self.emitted.get_or_init(|| {
            let (sys, _) = scanline::generate_with(
                &self.inputs[0].boxes,
                &self.rules,
                Method::Visibility,
                Axis::X,
                Prune::Keep,
                Parallelism::Serial,
            );
            sys.constraints().len()
        })
    }
}

fn flat_layout(boxes: &[(Layer, Rect)]) -> FlatLayout {
    FlatLayout::from_boxes(
        boxes
            .iter()
            .map(|&(layer, rect)| FlatBox {
                layer,
                rect,
                depth: 0,
            })
            .collect(),
    )
}

fn area(boxes: &[(Layer, Rect)]) -> i64 {
    boxes
        .iter()
        .map(|&(_, r)| r)
        .reduce(Rect::union)
        .map_or(0, Rect::area)
}

impl Batch for Flat {
    type Output = FlatOut;

    fn ops(&self) -> &[String] {
        &self.names
    }

    fn known_defect(&self, op: usize) -> Option<&'static str> {
        matches!(self.ops[op], Op::Xy { .. }).then_some("compact_xy on the 8x8 multiplier")
    }

    fn run(&self, op: usize, t: &mut Tracer) -> Result<FlatOut, String> {
        match self.ops[op] {
            Op::Drc { input } => {
                let boxes = &self.inputs[input].boxes;
                let flat = t.span("geom.index", |_| flat_layout(boxes));
                let violations = t
                    .span("layout.drc", |_| drc::check_flat(&flat, &self.rules))
                    .len();
                Ok(FlatOut::Drc {
                    boxes: boxes.len(),
                    violations,
                })
            }
            Op::Sweep { input, axis } => self.sweep(input, axis, t),
            Op::Xy { input } => {
                let out = t
                    .span("engine.compact_xy", |_| {
                        engine::compact_xy(
                            &self.inputs[input].boxes,
                            &self.rules,
                            &SOLVER,
                            XY_PASSES,
                        )
                    })
                    .map_err(|e| e.to_string())?;
                Ok(FlatOut::Boxes {
                    input,
                    boxes: out.boxes,
                    counters: Vec::new(),
                })
            }
        }
    }

    fn summary(&self, out: &FlatOut) -> OpOutput {
        match out {
            FlatOut::Drc { boxes, violations } => OpOutput {
                boxes: *boxes,
                area: 0,
                input_area: 0,
                digest: 0,
                violations: *violations,
                defs: 1,
                counters: vec![
                    ("layout.boxes", *boxes as f64),
                    ("layout.drc_violations", *violations as f64),
                ],
            },
            FlatOut::Boxes {
                input,
                boxes,
                counters,
            } => {
                let mut h = DefaultHasher::new();
                boxes.hash(&mut h);
                let mut counters = counters.clone();
                if counters.iter().any(|&(k, _)| k == "scan.kept") {
                    counters.push(("scan.emitted", self.emitted() as f64));
                }
                if self.inputs[*input].size == "mult8" {
                    let v = drc::check_flat(&flat_layout(boxes), &self.rules).len();
                    counters.push(("engine.xy_violations", v as f64));
                }
                OpOutput {
                    boxes: boxes.len(),
                    area: area(boxes),
                    input_area: area(&self.inputs[*input].boxes),
                    digest: h.finish(),
                    violations: 0,
                    defs: 1,
                    counters,
                }
            }
        }
    }

    fn check(&self, _op: usize, out: &FlatOut) -> Result<(), String> {
        let FlatOut::Boxes { input, boxes, .. } = out else {
            return Ok(()); // a DRC report: its violation count is checked by the runner
        };
        let source = &self.inputs[*input].boxes;
        if boxes.len() != source.len() {
            return Err(format!(
                "box count changed: {} -> {}",
                source.len(),
                boxes.len()
            ));
        }
        if area(boxes) > area(source) {
            return Err(format!("area grew: {} -> {}", area(source), area(boxes)));
        }
        let violations = drc::check_flat(&flat_layout(boxes), &self.rules).len();
        if violations > 0 {
            return Err(format!("{violations} DRC violations on a DRC-clean input"));
        }
        Ok(())
    }
}
