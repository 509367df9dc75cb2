//! `chip`: whole-chip compaction. Multipliers of 8 and 16 bits and
//! seeded PLAs of 8, 16 and 32 inputs go through native generation →
//! `compact_chip` (leaf pass, then hierarchical placement) → flatten →
//! DRC → CIF; the 10⁵-box wire-bundle megachip goes through
//! `compact_hierarchy` alone (it has no leaf library) and the same tail.
//! The 32×32 multiplier is left out: one compaction takes about 6 s, too
//! long to sample often enough in a run to find its quiet-host cost.

use crate::batch::{Batch, OpOutput};
use crate::inputs::{check_cif_reparses, seeded_pla, Rng, PAR, SOLVER};
use crate::trace::Tracer;
use rsg::compact::hier::{self, ChipLayout, HierOptions};
use rsg::compact::leaf::CompactionResult;
use rsg::layout::{drc, flatten, write_cif, CellId, CellTable, DesignRules, FlatLayout};
use std::hash::{DefaultHasher, Hash, Hasher};

const MULT_SIZES: [usize; 2] = [8, 16];
const PLA_SIZES: [usize; 3] = [8, 16, 32];

/// Flattened box target of the megachip.
pub const MEGACHIP_BOXES: usize = 100_000;

#[derive(Clone, Copy)]
enum Family {
    Mult,
    Pla,
    Megachip,
}

struct Input {
    family: Family,
    table: CellTable,
    top: CellId,
    boxes: usize,
    area: i64,
}

/// The workload's inputs.
pub struct Chip {
    names: Vec<String>,
    inputs: Vec<Input>,
    rules: DesignRules,
    opts: HierOptions,
}

/// One compacted, flattened, checked and written chip.
pub struct Compacted {
    chip: ChipLayout,
    leaf: Vec<CompactionResult>,
    flat: FlatLayout,
    cif: String,
    violations: usize,
    input_area: i64,
}

impl Chip {
    /// Builds the inputs; the seed draws the PLA personalities.
    ///
    /// # Errors
    ///
    /// When a generator fails.
    pub fn setup(seed: u64) -> Result<Chip, String> {
        let mut rng = Rng::new(seed, 2);
        let mut names = Vec::new();
        let mut inputs = Vec::new();
        let mut push = |name: String, family, table: CellTable, top| -> Result<(), String> {
            let flat = flatten(&table, top).map_err(|e| e.to_string())?;
            inputs.push(Input {
                family,
                table,
                top,
                boxes: flat.len(),
                area: flat.bbox().rect().map_or(0, |r| r.area()),
            });
            names.push(name);
            Ok(())
        };
        for n in MULT_SIZES {
            let g = rsg::mult::generator::generate(n, n).map_err(|e| e.to_string())?;
            push(
                format!("mult{n}"),
                Family::Mult,
                g.rsg.cells().clone(),
                g.top,
            )?;
        }
        for n in PLA_SIZES {
            let g = seeded_pla(&mut rng, n)?;
            push(format!("pla{n}"), Family::Pla, g.rsg.cells().clone(), g.top)?;
        }
        let mega = rsg_bench::megachip_hier(MEGACHIP_BOXES).map_err(|e| e.to_string())?;
        push("megachip".into(), Family::Megachip, mega.table, mega.top)?;
        Ok(Chip {
            names,
            inputs,
            rules: crate::inputs::rules(),
            opts: HierOptions {
                parallelism: PAR,
                ..HierOptions::default()
            },
        })
    }

    fn compact(
        &self,
        op: usize,
        t: &mut Tracer,
    ) -> Result<(ChipLayout, Vec<CompactionResult>), String> {
        let input = &self.inputs[op];
        let (table, top, rules) = (&input.table, input.top, &self.rules);
        let hier_span = format!("hier.{}", self.names[op]);
        match input.family {
            Family::Megachip => t
                .span(&hier_span, |_| {
                    hier::compact_hierarchy(table, top, rules, &SOLVER, &self.opts)
                })
                .map(|chip| (chip, Vec::new()))
                .map_err(|e| e.to_string()),
            // The traced run splits `compact_chip` into its two public
            // passes, so the leaf and hier layers are timed apart.
            family if t.enabled() => {
                let leaf = t
                    .span("leaf.compact_library", |_| match family {
                        Family::Mult => rsg::mult::compactor::compact_library(rules, &SOLVER, PAR),
                        _ => rsg::hpla::compactor::compact_library(rules, &SOLVER, PAR),
                    })
                    .map_err(|e| e.to_string())?;
                let out = t
                    .span(&hier_span, |_| {
                        hier::compact_chip_with_library(
                            table, top, leaf, rules, &SOLVER, &self.opts,
                        )
                    })
                    .map_err(|e| e.to_string())?;
                Ok((out.chip, out.leaf))
            }
            Family::Mult => rsg::mult::compactor::compact_chip(table, top, rules, &SOLVER, PAR)
                .map(|out| (out.chip, out.leaf))
                .map_err(|e| e.to_string()),
            Family::Pla => rsg::hpla::compactor::compact_chip(table, top, rules, &SOLVER, PAR)
                .map(|out| (out.chip, out.leaf))
                .map_err(|e| e.to_string()),
        }
    }
}

impl Batch for Chip {
    type Output = Compacted;

    fn ops(&self) -> &[String] {
        &self.names
    }

    fn known_defect(&self, _op: usize) -> Option<&'static str> {
        None
    }

    fn run(&self, op: usize, t: &mut Tracer) -> Result<Compacted, String> {
        let (chip, leaf) = self.compact(op, t)?;
        let flat = t
            .span("layout.flatten", |_| flatten(&chip.table, chip.top))
            .map_err(|e| e.to_string())?;
        let violations = t
            .span("layout.drc", |_| drc::check_flat(&flat, &self.rules))
            .len();
        let cif = t
            .span("layout.cif", |_| write_cif(&chip.table, chip.top))
            .map_err(|e| e.to_string())?;
        Ok(Compacted {
            chip,
            leaf,
            flat,
            cif,
            violations,
            input_area: self.inputs[op].area,
        })
    }

    fn summary(&self, c: &Compacted) -> OpOutput {
        let mut h = DefaultHasher::new();
        c.cif.hash(&mut h);
        let mut counters = vec![
            ("layout.boxes", c.flat.len() as f64),
            ("layout.cif_bytes", c.cif.len() as f64),
            ("layout.drc_violations", c.violations as f64),
            ("hier.defs", c.chip.cells.len() as f64),
        ];
        for (_, outcome) in &c.chip.cells {
            let r = &outcome.report;
            counters.push(("hier.constraints", r.total_constraints() as f64));
            counters.push(("hier.solver_passes", r.total_solver_passes() as f64));
            counters.push(("hier.alternations", outcome.passes as f64));
            counters.push(("hier.flat_boxes", r.flat_boxes as f64));
            for s in &r.sweeps {
                counters.push(("hier.clusters", s.clusters as f64));
                counters.push(("hier.abstract_boxes", s.abstract_boxes as f64));
            }
        }
        for l in &c.leaf {
            counters.push(("leaf.constraints", l.constraints as f64));
            counters.push(("leaf.unknowns", l.unknowns as f64));
        }
        OpOutput {
            boxes: c.flat.len(),
            area: c.flat.bbox().rect().map_or(0, |r| r.area()),
            input_area: c.input_area,
            digest: h.finish(),
            violations: c.violations,
            defs: c.chip.table.len(),
            counters,
        }
    }

    fn check(&self, op: usize, c: &Compacted) -> Result<(), String> {
        let input = &self.inputs[op];
        if c.chip.table.len() != input.table.len() {
            return Err(format!(
                "cell count changed: {} -> {}",
                input.table.len(),
                c.chip.table.len()
            ));
        }
        if c.flat.len() != input.boxes {
            return Err(format!(
                "box count changed: {} -> {}",
                input.boxes,
                c.flat.len()
            ));
        }
        let area = c.flat.bbox().rect().map_or(0, |r| r.area());
        if area > input.area {
            return Err(format!("area grew: {} -> {area}", input.area));
        }
        check_cif_reparses(&c.cif, c.flat.len())
    }
}
