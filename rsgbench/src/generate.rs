//! `generate`: the paper's own path (§4.5) with no compaction. The
//! Appendix-B design file builds multipliers of 16, 32 and 64 bits
//! through the interpreter, the RSG builds seeded PLAs of 16 and 32
//! inputs, and every layout is flattened, DRC-checked and written as
//! CIF.

use crate::batch::{Batch, OpOutput};
use crate::inputs::{check_cif_reparses, personality, pla_rows, Rng};
use crate::trace::Tracer;
use rsg::geom::Rect;
use rsg::hpla::Personality;
use rsg::layout::{drc, flatten, write_cif, CellTable, DesignRules, FlatLayout, Layer};
use std::collections::BTreeMap;
use std::hash::{DefaultHasher, Hash, Hasher};

const MULT_SIZES: [usize; 3] = [16, 32, 64];
const PLA_SIZES: [usize; 2] = [16, 32];

enum Input {
    /// Multiplier through the design and parameter files.
    Mult { n: usize, params: String },
    /// PLA through the RSG.
    Pla(Personality),
}

/// The workload's inputs.
pub struct Generate {
    names: Vec<String>,
    inputs: Vec<Input>,
    sample: CellTable,
    rules: DesignRules,
}

/// One generated, flattened, checked and written layout.
pub struct Generated {
    flat: FlatLayout,
    cif: String,
    violations: usize,
    instances: usize,
    interfaces: usize,
}

impl Generate {
    /// Builds the inputs; the seed draws the PLA personalities.
    ///
    /// # Errors
    ///
    /// When the sample layout or a personality cannot be built.
    pub fn setup(seed: u64) -> Result<Generate, String> {
        let mut rng = Rng::new(seed, 1);
        let mut names = Vec::new();
        let mut inputs = Vec::new();
        for n in MULT_SIZES {
            names.push(format!("mult{n}"));
            inputs.push(Input::Mult {
                n,
                params: rsg::mult::parameter_file_source(n, n),
            });
        }
        for n in PLA_SIZES {
            names.push(format!("pla{n}"));
            inputs.push(Input::Pla(personality(&pla_rows(&mut rng, n, n, n), n, n)?));
        }
        Ok(Generate {
            names,
            inputs,
            sample: rsg::mult::cells::sample_layout().map_err(|e| e.to_string())?,
            rules: crate::inputs::rules(),
        })
    }
}

impl Batch for Generate {
    type Output = Generated;

    fn ops(&self) -> &[String] {
        &self.names
    }

    fn known_defect(&self, _op: usize) -> Option<&'static str> {
        None
    }

    fn run(&self, op: usize, t: &mut Tracer) -> Result<Generated, String> {
        let (rsg, top, interpreted) = match &self.inputs[op] {
            Input::Mult { params, .. } => {
                let mut interp = t
                    .span("core.from_sample", |_| {
                        rsg::lang::Interpreter::from_sample(self.sample.clone())
                    })
                    .map_err(|e| e.to_string())?;
                let run = t
                    .span("lang.run", |_| {
                        interp.load_parameters(params)?;
                        interp.run(rsg::mult::design_file_source())
                    })
                    .map_err(|e| e.to_string())?;
                let top = run
                    .rsg
                    .cells()
                    .lookup("thewholething")
                    .ok_or("design file built no `thewholething`")?;
                (run.rsg, top, true)
            }
            Input::Pla(p) => {
                let pla = t
                    .span("core.generate", |_| rsg::hpla::rsg_pla(p, &self.names[op]))
                    .map_err(|e| e.to_string())?;
                (pla.rsg, pla.top, false)
            }
        };
        let table = rsg.cells();
        let flat = t
            .span("layout.flatten", |_| flatten(table, top))
            .map_err(|e| e.to_string())?;
        let violations = t
            .span("layout.drc", |_| drc::check_flat(&flat, &self.rules))
            .len();
        let cif = t
            .span("layout.cif", |_| write_cif(table, top))
            .map_err(|e| e.to_string())?;
        let instances = if interpreted {
            flat.total_instances()
        } else {
            0
        };
        let interfaces = rsg.interfaces().len();
        Ok(Generated {
            flat,
            cif,
            violations,
            instances,
            interfaces,
        })
    }

    fn summary(&self, g: &Generated) -> OpOutput {
        let mut h = DefaultHasher::new();
        g.cif.hash(&mut h);
        OpOutput {
            boxes: g.flat.len(),
            area: g.flat.bbox().rect().map_or(0, |r| r.area()),
            // Nothing is compacted: the output is the input.
            input_area: g.flat.bbox().rect().map_or(0, |r| r.area()),
            digest: h.finish(),
            violations: g.violations,
            defs: g.flat.distinct_cells(),
            counters: vec![
                ("lang.instances", g.instances as f64),
                ("core.interfaces", g.interfaces as f64),
                ("layout.boxes", g.flat.len() as f64),
                ("layout.cif_bytes", g.cif.len() as f64),
                ("layout.drc_violations", g.violations as f64),
            ],
        }
    }

    fn check(&self, op: usize, g: &Generated) -> Result<(), String> {
        check_cif_reparses(&g.cif, g.flat.len())?;
        if let Input::Mult { n, .. } = &self.inputs[op] {
            // E9: the interpreter builds exactly the native generator's
            // flat geometry.
            let native = rsg::mult::generator::generate(*n, *n).map_err(|e| e.to_string())?;
            let native_flat = flatten(native.rsg.cells(), native.top).map_err(|e| e.to_string())?;
            if signature(&native_flat) != signature(&g.flat) {
                return Err(format!(
                    "{n}x{n}: interpreter geometry differs from the native generator's"
                ));
            }
        }
        Ok(())
    }
}

fn signature(flat: &FlatLayout) -> BTreeMap<(Layer, Rect), usize> {
    let mut sig = BTreeMap::new();
    for &(layer, rect) in flat.layer_rects() {
        *sig.entry((layer, rect)).or_insert(0) += 1;
    }
    sig
}
