//! Seeded inputs and the set-up checks shared by every workload.

use rsg::compact::backend::BellmanFord;
use rsg::compact::leaf::Parallelism;
use rsg::hpla::Personality;
use rsg::layout::{read_cif, write_cif, CellId, CellTable, DesignRules, Technology};
use std::path::Path;

/// Every compaction call runs serially. On a shared 2-CPU host the
/// hypervisor takes a tenth to a quarter of the time back from a
/// process that keeps both CPUs busy (CPU steal), far more than from one
/// that keeps a single CPU busy, and the steal varies from run to run.
pub const PAR: Parallelism = Parallelism::Serial;

/// The production solver backend.
pub const SOLVER: BellmanFord = BellmanFord::SORTED;

/// The design rules every workload checks and compacts under.
pub fn rules() -> DesignRules {
    Technology::mead_conway(2).rules
}

/// SplitMix64: a small, seedable, portable generator, so a seed names
/// the same inputs on every host.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated from other streams by `stream`.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03));
        rng.next_u64();
        rng
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// A seeded PLA personality with `inputs` inputs, `products` product
/// terms and `outputs` outputs, in espresso row form. Every product row
/// drives at least one output, so no row is dead.
pub fn pla_rows(rng: &mut Rng, inputs: usize, products: usize, outputs: usize) -> Vec<String> {
    (0..products)
        .map(|_| {
            let cube: String = (0..inputs)
                .map(|_| match rng.below(3) {
                    0 => '1',
                    1 => '0',
                    _ => '-',
                })
                .collect();
            let forced = rng.below(outputs as u64) as usize;
            let outs: String = (0..outputs)
                .map(|o| {
                    if o == forced || rng.below(2) == 0 {
                        '1'
                    } else {
                        '0'
                    }
                })
                .collect();
            format!("{cube} {outs}")
        })
        .collect()
}

/// Parses rows made by [`pla_rows`].
///
/// # Errors
///
/// Only if the rows are malformed, which is a benchmark bug.
pub fn personality(rows: &[String], inputs: usize, outputs: usize) -> Result<Personality, String> {
    let refs: Vec<&str> = rows.iter().map(String::as_str).collect();
    Personality::parse(&refs, inputs, outputs).map_err(|e| format!("personality: {e}"))
}

/// A seeded square PLA of `n` inputs, products and outputs.
///
/// # Errors
///
/// Propagates generator errors.
pub fn seeded_pla(rng: &mut Rng, n: usize) -> Result<rsg::hpla::GeneratedPla, String> {
    let p = personality(&pla_rows(rng, n, n, n), n, n)?;
    rsg::hpla::rsg_pla(&p, &format!("pla{n}")).map_err(|e| format!("pla{n}: {e}"))
}

/// The full-adder PLA of the golden snapshots.
///
/// # Errors
///
/// Propagates generator errors.
pub fn full_adder_pla() -> Result<rsg::hpla::GeneratedPla, String> {
    let rows = [
        "100 10", "010 10", "001 10", "111 10", "11- 01", "1-1 01", "-11 01",
    ]
    .map(String::from);
    rsg::hpla::rsg_pla(&personality(&rows, 3, 2)?, "fa_pla").map_err(|e| format!("fa_pla: {e}"))
}

/// Reads a golden snapshot, relative to the repository root (the
/// benchmark's working directory).
///
/// # Errors
///
/// When the file cannot be read: the benchmark is not running from a
/// checkout of the repository.
pub fn golden(name: &str) -> Result<String, String> {
    let path = Path::new("tests/golden").join(name);
    std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))
}

fn cif_of(table: &CellTable, top: CellId) -> Result<String, String> {
    write_cif(table, top).map_err(|e| format!("write_cif: {e}"))
}

/// Regenerates the four golden layouts through the public pipeline and
/// returns the names of those that are not byte-equal to their
/// snapshot.
///
/// # Errors
///
/// When a snapshot is missing or a pipeline step fails.
pub fn golden_mismatches() -> Result<Vec<&'static str>, String> {
    let rules = rules();
    let mult = rsg::mult::generator::generate(4, 4).map_err(|e| e.to_string())?;
    let mult_c =
        rsg::mult::compactor::compact_chip(mult.rsg.cells(), mult.top, &rules, &SOLVER, PAR)
            .map_err(|e| e.to_string())?;
    let pla = full_adder_pla()?;
    let pla_c = rsg::hpla::compactor::compact_chip(pla.rsg.cells(), pla.top, &rules, &SOLVER, PAR)
        .map_err(|e| e.to_string())?;
    let produced = [
        ("multiplier_4x4.cif", cif_of(mult.rsg.cells(), mult.top)?),
        (
            "multiplier_4x4_compacted.cif",
            cif_of(&mult_c.chip.table, mult_c.chip.top)?,
        ),
        ("pla_full_adder.cif", cif_of(pla.rsg.cells(), pla.top)?),
        (
            "pla_full_adder_compacted.cif",
            cif_of(&pla_c.chip.table, pla_c.chip.top)?,
        ),
    ];
    let mut bad = Vec::new();
    for (name, text) in produced {
        if golden(name)? != text {
            bad.push(name);
        }
    }
    Ok(bad)
}

/// Checks that `cif` re-parses and flattens to `boxes` boxes.
pub fn check_cif_reparses(cif: &str, boxes: usize) -> Result<(), String> {
    let (table, top) = read_cif(cif).map_err(|e| format!("CIF does not re-parse: {e}"))?;
    let flat = rsg::layout::flatten(&table, top).map_err(|e| format!("re-parsed CIF: {e}"))?;
    if flat.len() != boxes {
        return Err(format!(
            "re-parsed CIF has {} boxes, expected {boxes}",
            flat.len()
        ));
    }
    Ok(())
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeds_name_the_same_personalities() {
        let a = pla_rows(&mut Rng::new(5, 1), 6, 6, 3);
        let b = pla_rows(&mut Rng::new(5, 1), 6, 6, 3);
        let c = pla_rows(&mut Rng::new(6, 1), 6, 6, 3);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(personality(&a, 6, 3).is_ok());
        assert!(a.iter().all(|r| r.split(' ').nth(1).unwrap().contains('1')));
    }
}
