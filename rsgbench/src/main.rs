//! End-to-end benchmark of the RSG pipeline.
//!
//! ```sh
//! cargo run --release --manifest-path rsgbench/Cargo.toml -- \
//!     --workload chip --seed 1 --seconds 25 --trace 0
//! ```
//!
//! Run from the repository root (the golden snapshots are read from
//! `tests/golden/`). Workloads: `generate`, `chip`, `flat`, `serve`; see
//! each module. With `--trace 0` the last line of standard output is a
//! JSON object with the end-to-end metrics; with `--trace 1` untraced
//! and traced rounds (serve: blocks of jobs) alternate, the JSON carries
//! the per-layer metrics, and the spans go to `rsgbench/out/`.
//!
//! The process pins itself to one CPU and keeps one thread busy at a
//! time. Rates and latencies are reported in reference seconds: wall
//! seconds rescaled by the host speed a fixed reference kernel reads
//! around each timed piece of work (see [`host`]); the report also
//! prints the plain wall-clock rate. `setup_s` is wall time.

mod batch;
mod chip;
mod flat;
mod generate;
mod host;
mod inputs;
mod report;
mod serve;
mod stats;
mod trace;

use report::Tally;
use stats::{median, Metrics};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;
use trace::Tracer;

/// Set-ups before a run, and again after it; `setup_s` is the median
/// of all of them.
const SETUPS: usize = 15;

/// Where spans and the serve store go, relative to the repository root.
const OUT_DIR: &str = "rsgbench/out";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 20.0f64;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().map_err(|e| format!("--seed {value}: {e}"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .map_err(|e| format!("--seconds {value}: {e}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err(format!("--seconds {value}: expected 0 < s <= 600"));
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value}: expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required (generate, chip, flat, serve)")?;
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// Runs `make(k)` for `k` in `ks`, keeping the last result, and adds
/// each set-up's wall time to `times`. Every set-up also regenerates the
/// golden layouts and compares them with their snapshots; the first
/// (`k == 0`) records the outcome.
fn set_up<T>(
    make: &mut impl FnMut(usize) -> Result<T, String>,
    ks: std::ops::Range<usize>,
    times: &mut Vec<f64>,
    tally: &mut Tally,
) -> Result<T, String> {
    let mut kept = None;
    for k in ks {
        drop(kept.take());
        let started = Instant::now();
        let bad = inputs::golden_mismatches()?;
        let value = make(k)?;
        times.push(started.elapsed().as_secs_f64());
        if k == 0 {
            tally.record(
                "golden",
                None,
                if bad.is_empty() {
                    report::Outcome::Ok
                } else {
                    report::Outcome::Failed(format!(
                        "not byte-equal to snapshot: {}",
                        bad.join(", ")
                    ))
                },
            );
        }
        kept = Some(value);
    }
    kept.ok_or_else(|| "no set-up ran".to_owned())
}

/// Sets a workload up [`SETUPS`] times before its run and as many times
/// after it (the host's speed drifts over a run, and `setup_s` should
/// see the same mix of host states as the timed work), runs it on the
/// last set-up before, and returns the run's result with the median
/// set-up time.
fn with_set_ups<T, R>(
    mut make: impl FnMut(usize) -> Result<T, String>,
    tally: &mut Tally,
    run: impl FnOnce(T) -> R,
) -> Result<(R, f64), String> {
    let mut times = Vec::with_capacity(2 * SETUPS);
    let value = set_up(&mut make, 0..SETUPS, &mut times, tally)?;
    let res = run(value);
    set_up(&mut make, SETUPS..2 * SETUPS, &mut times, tally)?;
    Ok((res, median(&times)))
}

/// The end-to-end numbers every workload reports. Every rate and
/// latency is in reference seconds (see [`host`]); `setup_s` is wall
/// time.
struct EndToEnd {
    setup_s: f64,
    boxes_per_s: f64,
    job_p50_s: f64,
    job_p90_s: f64,
    jobs_per_s: f64,
    area_ratio: f64,
}

fn end_to_end(e: &EndToEnd, tally: &Tally) -> Metrics {
    let mut m = Metrics::default();
    m.set("setup_s", e.setup_s, "s");
    m.set("boxes_per_s", e.boxes_per_s, "boxes/ref-s");
    m.set("job_p50_ms", e.job_p50_s * 1e3, "ref-ms");
    m.set("job_p90_ms", e.job_p90_s * 1e3, "ref-ms");
    m.set("jobs_per_s", e.jobs_per_s, "1/ref-s");
    m.set("ok_frac", tally.ok_frac(), "ratio");
    m.set("peak_rss_mb", inputs::peak_rss_mib(), "MiB");
    m.set("area_ratio", e.area_ratio, "ratio");
    m
}

fn run() -> Result<(), String> {
    let args = parse_args()?;
    let pinned = host::pin_to_one_cpu();
    let epoch = Instant::now();
    let mut tracer = if args.trace {
        Tracer::on(epoch)
    } else {
        Tracer::off()
    };
    let mut tally = Tally::default();
    println!(
        "rsgbench workload={} seed={} seconds={} trace={} busy_threads=1 pinned_cpu={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        pinned.map_or("none".to_owned(), |c| c.to_string()),
    );
    let out_dir = PathBuf::from(OUT_DIR);
    std::fs::create_dir_all(&out_dir).map_err(|e| format!("{OUT_DIR}: {e}"))?;
    host::flush_filesystems();

    let (e2e, samples, overhead, entry_bytes, readings) = match args.workload.as_str() {
        "generate" | "chip" | "flat" => {
            let seed = args.seed;
            let (secs, t) = (args.seconds, &mut tracer);
            let (res, setup_s) = match args.workload.as_str() {
                "generate" => with_set_ups(
                    |_| generate::Generate::setup(seed),
                    &mut tally,
                    |w| batch::run(&w, secs, t),
                )?,
                "chip" => with_set_ups(
                    |_| chip::Chip::setup(seed),
                    &mut tally,
                    |w| batch::run(&w, secs, t),
                )?,
                _ => {
                    println!("known defect probe xy_mult8: {}", flat::XY_DEFECT);
                    with_set_ups(
                        |_| flat::Flat::setup(),
                        &mut tally,
                        |w| batch::run(&w, secs, t),
                    )?
                }
            };
            println!(
                "inputs: boxes={} definitions={} rounds={} (+{} traced) ops_per_round={}",
                res.sizes.0,
                res.sizes.1,
                res.rounds.len(),
                res.traced_rounds.len(),
                res.op_times.len(),
            );
            for ((name, t), cost) in res.names.iter().zip(&res.op_times).zip(res.op_costs()) {
                println!(
                    "  op {name:<10} samples={:<4} wall p50={:.3} ms  cost={:.3} ref-ms",
                    t.len(),
                    median(t) * 1e3,
                    cost * 1e3,
                );
            }
            println!(
                "  wall-clock boxes/s (median op times) = {:.1}",
                res.wall_boxes_per_s()
            );
            let e2e = EndToEnd {
                setup_s,
                boxes_per_s: res.boxes_per_s(),
                job_p50_s: res.job_quantile(0.5),
                job_p90_s: res.job_quantile(0.9),
                jobs_per_s: res.jobs_per_s(),
                area_ratio: res.area_ratio(),
            };
            let overhead = if args.trace { res.overhead() } else { 0.0 };
            tally.merge(res.tally);
            (e2e, res.traced, overhead, 0.0, res.readings)
        }
        "serve" => {
            let pid = std::process::id();
            let store = |k: usize| out_dir.join(format!("store-{pid}-{k}"));
            let res = with_set_ups(
                |k| serve::Serve::setup(args.seed, &store(k)),
                &mut tally,
                |srv| srv.run(args.seconds, &mut tracer),
            );
            for k in 0..2 * SETUPS {
                let _ = std::fs::remove_dir_all(store(k));
            }
            host::flush_filesystems();
            let (res, setup_s) = res?;
            let res = res?;
            println!(
                "inputs: boxes={} definitions={} designs={} jobs={} expected_hits={}",
                res.boxes, res.defs, res.designs, res.tally.attempted, res.expected_hits,
            );
            let e2e = EndToEnd {
                setup_s,
                boxes_per_s: res.boxes_per_s,
                job_p50_s: median(&res.latencies),
                job_p90_s: stats::quantile(&res.latencies, 0.9).unwrap_or(0.0),
                jobs_per_s: res.jobs_per_s,
                area_ratio: res.area_ratio,
            };
            println!("  wall-clock boxes/s = {:.1}", res.wall_boxes_per_s);
            if let Some((pct, v)) = stats::tail_percentile(&res.latencies) {
                println!(
                    "latency samples={} p{pct}={:.3} ref-ms (highest percentile with ten samples beyond it)",
                    res.latencies.len(),
                    v * 1e3
                );
            }
            tally.merge(res.tally);
            (
                e2e,
                res.traced.into_iter().collect(),
                res.overhead,
                res.entry_bytes,
                res.readings,
            )
        }
        other => {
            return Err(format!(
                "unknown workload `{other}` (generate, chip, flat, serve)"
            ))
        }
    };

    let ref_ms = median(&readings) * 1e3;
    println!(
        "host speed: reference reading median {ref_ms:.4} ms over {} readings (nominal {} ms)",
        readings.len(),
        host::NOMINAL_S * 1e3
    );
    print!("{}", tally.lines());
    let correct = tally.failed == 0;
    let metrics = if args.trace {
        let m = report::per_layer(&samples, overhead, entry_bytes, ref_ms);
        println!("per-layer self time (median traced round):");
        print!("{}", report::self_time_table(&m));
        println!(
            "tracing overhead: traced vs untraced end-to-end = {:+.2}%",
            overhead * 100.0
        );
        let path = out_dir.join(format!("spans-{}-{}.jsonl", args.workload, args.seed));
        std::fs::write(&path, trace::span_lines(tracer.spans()))
            .map_err(|e| format!("{}: {e}", path.display()))?;
        println!(
            "spans: {} written to {}",
            tracer.spans().len(),
            path.display()
        );
        m
    } else {
        end_to_end(&e2e, &tally)
    };
    println!("metrics:");
    print!("{}", metrics.table());
    println!(
        "{}",
        stats::result_json(correct, tally.attempted, tally.failed, &metrics)
    );
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("rsgbench: {e}");
            ExitCode::FAILURE
        }
    }
}
