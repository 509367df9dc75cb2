//! `serve`: a closed loop of one client with one job in flight against
//! a `JobQueue` of one worker on a fresh store, so one CPU is busy at a
//! time (see [`crate::inputs::PAR`] for why not two). Jobs are chip
//! compactions: seeded PLAs of 4–8 inputs and the 4×4 and 8×8
//! multipliers. About one job in four is new content (a miss: solve,
//! encode, atomic persist); the rest repeat content whose first job has
//! finished (a hit: key derivation, disk read, decode).

use crate::host::Reference;
use crate::inputs::{check_cif_reparses, golden, personality, pla_rows, rules, Rng};
use crate::report::{LayerSample, Outcome, Tally};
use crate::stats::median;
use crate::trace::{self_time_by_layer, total_by_name, Tracer};
use rsg::layout::{drc, flatten, read_cif, CellId, CellTable};
use rsg::serve::{JobQueue, JobSpec, LatencyHistogram, ServeConfig, ServeMetrics};
use std::collections::{HashMap, HashSet};
use std::hash::{DefaultHasher, Hash, Hasher};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

/// Jobs in flight: one per client thread.
const CLIENTS: usize = 1;
/// Worker threads of the queue.
const WORKERS: usize = 1;
/// One job in `NEW_EVERY` (on average) is new content.
const NEW_EVERY: u64 = 4;
/// A run serves a fixed number of jobs: this many per second of
/// budget, about the budget's length on one CPU of a 2-CPU host. The queue keeps
/// every finished job in memory, so a run bounded by time alone would
/// show a faster service (or a quieter host) as a larger peak RSS.
const JOBS_PER_BUDGET_SECOND: f64 = 500.0;

/// Untraced/traced block pairs of a traced run.
const TRACE_BLOCK_PAIRS: usize = 4;

/// Blocks of an untraced run. Between blocks the queue is idle and the
/// reference kernel is read, so each block's times are rescaled by the
/// host speed around it (see [`crate::host`]).
const UNTRACED_BLOCKS: usize = 20;

/// Reference readings between blocks; their median is used.
const READINGS: usize = 9;

/// A run that needs more than this multiple of its budget stops early,
/// so a slow build still ends well within the benchmark's time limit.
const BUDGET_GUARD: f64 = 2.0;

fn job_count(seconds: f64) -> usize {
    (seconds * JOBS_PER_BUDGET_SECOND) as usize
}

/// One distinct design.
struct Content {
    name: String,
    table: CellTable,
    top: CellId,
    library: Arc<Vec<rsg::compact::leaf::LibraryJob>>,
    boxes: usize,
    area: i64,
}

impl Content {
    fn new(
        name: String,
        table: CellTable,
        top: CellId,
        library: Arc<Vec<rsg::compact::leaf::LibraryJob>>,
    ) -> Result<Content, String> {
        let flat = flatten(&table, top).map_err(|e| e.to_string())?;
        Ok(Content {
            name,
            boxes: flat.len(),
            area: flat.bbox().rect().map_or(0, |r| r.area()),
            table,
            top,
            library,
        })
    }

    fn spec(&self) -> JobSpec {
        JobSpec::Chip {
            table: self.table.clone(),
            top: self.top,
            library: self.library.as_ref().clone(),
        }
    }
}

/// The seeded job sequence: job `i` is new content or a repeat of
/// content introduced earlier. The same seed gives the same sequence.
struct Sequence {
    rng: Rng,
    contents: Vec<Arc<Content>>,
    seen: HashSet<String>,
    pla_library: Arc<Vec<rsg::compact::leaf::LibraryJob>>,
    mult_library: Arc<Vec<rsg::compact::leaf::LibraryJob>>,
    mults_left: Vec<usize>,
    jobs: usize,
}

/// One planned job.
struct Planned {
    index: usize,
    content: usize,
    new: bool,
}

impl Sequence {
    fn new(seed: u64) -> Result<Sequence, String> {
        Ok(Sequence {
            rng: Rng::new(seed, 3),
            contents: Vec::new(),
            seen: HashSet::new(),
            pla_library: Arc::new(rsg::hpla::compactor::library_jobs().map_err(|e| e.to_string())?),
            mult_library: Arc::new(
                rsg::mult::compactor::library_jobs().map_err(|e| e.to_string())?,
            ),
            mults_left: vec![4, 8],
            jobs: 0,
        })
    }

    fn next(&mut self) -> Result<Planned, String> {
        let index = self.jobs;
        self.jobs += 1;
        if !self.contents.is_empty() && self.rng.below(NEW_EVERY) != 0 {
            let content = self.rng.below(self.contents.len() as u64) as usize;
            return Ok(Planned {
                index,
                content,
                new: false,
            });
        }
        let content = if !self.mults_left.is_empty() && self.rng.below(6) == 0 {
            let n = self.mults_left.remove(0);
            let g = rsg::mult::generator::generate(n, n).map_err(|e| e.to_string())?;
            Content::new(
                format!("mult{n}"),
                g.rsg.cells().clone(),
                g.top,
                Arc::clone(&self.mult_library),
            )?
        } else {
            loop {
                let inputs = 4 + self.rng.below(5) as usize;
                let outputs = 2 + self.rng.below(3) as usize;
                let rows = pla_rows(&mut self.rng, inputs, inputs, outputs);
                if !self.seen.insert(rows.join("|")) {
                    continue; // an identical personality is not new content
                }
                let p = personality(&rows, inputs, outputs)?;
                let g = rsg::hpla::rsg_pla(&p, "pla").map_err(|e| e.to_string())?;
                let name = format!("pla{inputs}x{outputs}#{}", self.contents.len());
                break Content::new(
                    name,
                    g.rsg.cells().clone(),
                    g.top,
                    Arc::clone(&self.pla_library),
                )?;
            }
        };
        self.contents.push(Arc::new(content));
        Ok(Planned {
            index,
            content: self.contents.len() - 1,
            new: true,
        })
    }
}

/// One finished job as the client saw it.
struct JobRecord {
    index: usize,
    content: usize,
    new: bool,
    traced: bool,
    latency: f64,
    /// The latency rescaled to the nominal host, reference seconds.
    ref_latency: f64,
    done_at: f64,
    result: Result<(bool, u64, Option<String>), String>,
}

/// One block of jobs run with tracing on or off.
struct Phase {
    traced: bool,
    /// Seconds from the block's start to its last completion.
    wall: f64,
    /// The factor from wall to reference seconds around the block.
    scale: f64,
    jobs: usize,
    /// The clients' spans (traced blocks only).
    tracers: Vec<Tracer>,
}

/// Completed jobs per wall second over the blocks that match `traced`.
fn rate(phases: &[Phase], traced: bool) -> f64 {
    let (jobs, wall) = phases
        .iter()
        .filter(|p| p.traced == traced)
        .fold((0, 0.0), |(j, w), p| (j + p.jobs, w + p.wall));
    jobs as f64 / wall
}

/// The median of [`READINGS`] reference readings, seconds.
fn read_host(reference: &mut Reference) -> f64 {
    let v: Vec<f64> = (0..READINGS).map(|_| reference.read()).collect();
    median(&v)
}

/// The serving set-up: queue, store and the job sequence.
pub struct Serve {
    queue: JobQueue,
    store: PathBuf,
    warm: ServeMetrics,
    seq: Mutex<Sequence>,
    /// Content ids whose first job has finished.
    finished: Mutex<HashSet<usize>>,
    finished_cv: Condvar,
}

/// What a serve run measured.
pub struct ServeResult {
    /// Failure accounting, per job.
    pub tally: Tally,
    /// Untraced-phase latencies, reference seconds.
    pub latencies: Vec<f64>,
    /// Untraced-phase completed jobs per reference second.
    pub jobs_per_s: f64,
    /// Untraced-phase input boxes served per reference second.
    pub boxes_per_s: f64,
    /// Untraced-phase input boxes served per wall second, for the report.
    pub wall_boxes_per_s: f64,
    /// Every reference reading, seconds.
    pub readings: Vec<f64>,
    /// Summed compacted area of the designs over their uncompacted area.
    pub area_ratio: f64,
    /// Distinct designs and repeat (expected-hit) jobs.
    pub designs: usize,
    /// Jobs that repeat finished content.
    pub expected_hits: usize,
    /// Input boxes and definitions of the distinct designs.
    pub boxes: usize,
    /// Definitions behind the distinct designs.
    pub defs: usize,
    /// Traced-phase sample (per-layer numbers), when traced.
    pub traced: Option<LayerSample>,
    /// Traced against untraced throughput, minus one.
    pub overhead: f64,
    /// Mean store entry size, bytes.
    pub entry_bytes: f64,
}

fn histogram_diff(now: &LatencyHistogram, before: &LatencyHistogram) -> Vec<u64> {
    now.buckets()
        .iter()
        .zip(before.buckets())
        .map(|(a, b)| a - b)
        .collect()
}

/// Median of a log₂ histogram, as the geometric middle of its bucket, ms.
fn histogram_median_ms(buckets: &[u64]) -> f64 {
    let total: u64 = buckets.iter().sum();
    if total == 0 {
        return 0.0;
    }
    let mut seen = 0;
    for (i, &n) in buckets.iter().enumerate() {
        seen += n;
        if 2 * seen >= total {
            let hi = LatencyHistogram::bucket_ceiling_ns(i) as f64;
            return hi / std::f64::consts::SQRT_2 * 1e-6;
        }
    }
    0.0
}

impl Serve {
    /// Starts a queue on a fresh store under `dir`, builds the sequence,
    /// and warms the pool with the golden full-adder PLA, whose served
    /// CIF must equal its snapshot.
    ///
    /// # Errors
    ///
    /// When the store or queue cannot start, or the warm-up job fails.
    pub fn setup(seed: u64, dir: &Path) -> Result<Serve, String> {
        if dir.exists() {
            std::fs::remove_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        }
        // Default options: the worker compacts serially.
        let config = ServeConfig {
            workers: WORKERS,
            ..ServeConfig::new(rules())
        };
        let queue = JobQueue::new(dir, config).map_err(|e| e.to_string())?;
        let fa = crate::inputs::full_adder_pla()?;
        let out = rsg::hpla::compactor::compact_chip_served(&queue, fa.rsg.cells(), fa.top)
            .map_err(|e| format!("warm-up job: {e}"))?;
        let cif = out
            .result
            .artifacts
            .first()
            .map(|a| a.cif.as_str())
            .unwrap_or("");
        if cif != golden("pla_full_adder_compacted.cif")? {
            return Err("served full-adder CIF differs from its golden snapshot".into());
        }
        Ok(Serve {
            warm: queue.metrics(),
            queue,
            store: dir.to_owned(),
            seq: Mutex::new(Sequence::new(seed)?),
            finished: Mutex::new(HashSet::new()),
            finished_cv: Condvar::new(),
        })
    }

    fn client(
        &self,
        epoch: Instant,
        stop: &AtomicBool,
        cap: usize,
        traced: bool,
        tracer: &mut Tracer,
    ) -> Result<Vec<JobRecord>, String> {
        let mut records = Vec::new();
        while !stop.load(Ordering::Relaxed) {
            let (plan, content) = {
                let mut seq = self.seq.lock().map_err(|_| "sequence lock poisoned")?;
                if seq.jobs >= cap {
                    break;
                }
                let plan = seq.next()?;
                let content = Arc::clone(&seq.contents[plan.content]);
                (plan, content)
            };
            if !plan.new {
                let mut done = self.finished.lock().map_err(|_| "finished lock poisoned")?;
                while !done.contains(&plan.content) {
                    done = self
                        .finished_cv
                        .wait(done)
                        .map_err(|_| "finished lock poisoned")?;
                }
            }
            let spec = content.spec();
            tracer.set_op(plan.index as u64);
            let started = Instant::now();
            let out = tracer.span("serve.job", |_| {
                self.queue.submit(spec).and_then(|id| self.queue.fetch(id))
            });
            let latency = started.elapsed().as_secs_f64();
            let result = out.map_err(|e| e.to_string()).map(|out| {
                let cif = out
                    .result
                    .artifacts
                    .first()
                    .map(|a| a.cif.clone())
                    .unwrap_or_default();
                let mut h = DefaultHasher::new();
                cif.hash(&mut h);
                (out.from_store, h.finish(), plan.new.then_some(cif))
            });
            if plan.new {
                self.finished
                    .lock()
                    .map_err(|_| "finished lock poisoned")?
                    .insert(plan.content);
                self.finished_cv.notify_all();
            }
            records.push(JobRecord {
                index: plan.index,
                content: plan.content,
                new: plan.new,
                traced,
                latency,
                ref_latency: latency,
                done_at: epoch.elapsed().as_secs_f64(),
                result,
            });
        }
        Ok(records)
    }

    /// Runs the closed loop for [`job_count`]`(seconds)` jobs (untraced),
    /// or as alternating untraced and traced blocks when `tracer` records.
    ///
    /// # Errors
    ///
    /// When a client thread fails outside a job (a poisoned lock or a
    /// generator error); job failures are counted, not returned.
    pub fn run(&self, seconds: f64, tracer: &mut Tracer) -> Result<ServeResult, String> {
        let trace = tracer.enabled();
        let mut records = Vec::new();
        let mut phases = Vec::new();
        // A traced run alternates untraced and traced blocks of jobs, so
        // host drift falls on both sides of the overhead comparison.
        let blocks = if trace {
            2 * TRACE_BLOCK_PAIRS
        } else {
            UNTRACED_BLOCKS
        };
        let mut reference = Reference::default();
        let mut before = read_host(&mut reference);
        for block in 0..blocks {
            let traced = block % 2 == 1;
            let guard = BUDGET_GUARD * seconds / blocks as f64;
            let cap = job_count(seconds) * (block + 1) / blocks;
            let stop = AtomicBool::new(false);
            let epoch = Instant::now();
            let proto: &Tracer = tracer;
            let mut tracers: Vec<Tracer> = Vec::new();
            let results: Vec<Result<Vec<JobRecord>, String>> = std::thread::scope(|s| {
                let handles: Vec<_> = (0..CLIENTS)
                    .map(|_| {
                        let stop = &stop;
                        s.spawn(move || {
                            let mut t = if traced { proto.child() } else { Tracer::off() };
                            let r = self.client(epoch, stop, cap, traced, &mut t);
                            (r, t)
                        })
                    })
                    .collect();
                while epoch.elapsed().as_secs_f64() < guard
                    && !handles.iter().all(|h| h.is_finished())
                {
                    std::thread::sleep(std::time::Duration::from_millis(5));
                }
                stop.store(true, Ordering::Relaxed);
                handles
                    .into_iter()
                    .map(|h| match h.join() {
                        Ok((r, t)) => {
                            tracers.push(t);
                            r
                        }
                        Err(_) => Err("client thread panicked".to_owned()),
                    })
                    .collect()
            });
            let mut phase: Vec<JobRecord> = Vec::new();
            for r in results {
                phase.extend(r?);
            }
            // Throughput counts up to the last completion: the sleep
            // granularity of the wait above is not part of the service.
            let wall = phase.iter().map(|r| r.done_at).fold(1e-9, f64::max);
            let after = read_host(&mut reference);
            let scale = Reference::scale(before, after);
            before = after;
            for r in &mut phase {
                r.ref_latency = r.latency * scale;
            }
            phases.push(Phase {
                traced,
                wall,
                scale,
                jobs: phase.len(),
                tracers,
            });
            records.extend(phase);
        }
        records.sort_by_key(|r| r.index);
        let mut res = self.evaluate(records, phases, tracer)?;
        res.readings = reference.readings;
        Ok(res)
    }

    fn evaluate(
        &self,
        records: Vec<JobRecord>,
        phases: Vec<Phase>,
        tracer: &mut Tracer,
    ) -> Result<ServeResult, String> {
        let seq = self.seq.lock().map_err(|_| "sequence lock poisoned")?;
        let metrics = self.queue.metrics();
        let rules = rules();
        let mut tally = Tally::default();
        // Full check of each content's first (miss) output.
        let mut miss_digest: HashMap<usize, u64> = HashMap::new();
        let mut area_of: HashMap<usize, i64> = HashMap::new();
        let mut bad_content: HashMap<usize, String> = HashMap::new();
        for r in records.iter().filter(|r| r.new) {
            let c = &seq.contents[r.content];
            let check = match &r.result {
                Err(e) => Err(e.clone()),
                Ok((_, digest, cif)) => {
                    miss_digest.insert(r.content, *digest);
                    check_served(cif.as_deref().unwrap_or(""), c, &rules).map(|a| {
                        area_of.insert(r.content, a);
                    })
                }
            };
            if let Err(e) = check {
                bad_content.insert(r.content, format!("{}: {e}", c.name));
            }
        }
        let mut misses = 0u64;
        let mut hits = 0u64;
        for r in &records {
            let name = if seq.contents[r.content].name.starts_with("mult") {
                "mult"
            } else {
                "pla"
            };
            let outcome = match &r.result {
                Err(e) => Outcome::Failed(e.clone()),
                Ok((from_store, digest, _)) => {
                    if r.new {
                        misses += 1;
                    } else {
                        hits += 1;
                    }
                    if *from_store == r.new {
                        Outcome::Failed(format!(
                            "job {}: from_store={from_store} but the content is {}",
                            r.index,
                            if r.new { "new" } else { "a repeat" }
                        ))
                    } else if let Some(e) = bad_content.get(&r.content) {
                        Outcome::Failed(e.clone())
                    } else if miss_digest.get(&r.content) != Some(digest) {
                        Outcome::Failed(format!("job {}: hit CIF differs from the miss", r.index))
                    } else {
                        Outcome::Ok
                    }
                }
            };
            tally.record(name, None, outcome);
        }
        let solves = metrics.solves - self.warm.solves;
        if solves != misses || metrics.served_from_store - self.warm.served_from_store != hits {
            tally.record(
                "serve-counters",
                None,
                Outcome::Failed(format!(
                    "ServeMetrics: {solves} solves for {misses} misses, {} store answers for {hits} hits",
                    metrics.served_from_store - self.warm.served_from_store
                )),
            );
        }

        let untraced: Vec<&JobRecord> = records.iter().filter(|r| !r.traced).collect();
        let latencies: Vec<f64> = untraced.iter().map(|r| r.ref_latency).collect();
        let boxes: usize = untraced
            .iter()
            .filter(|r| r.result.is_ok())
            .map(|r| seq.contents[r.content].boxes)
            .sum();
        let untraced_wall: f64 = phases.iter().filter(|p| !p.traced).map(|p| p.wall).sum();
        let untraced_ref: f64 = phases
            .iter()
            .filter(|p| !p.traced)
            .map(|p| p.wall * p.scale)
            .sum();
        let (out_area, in_area) = area_of.iter().fold((0.0, 0.0), |(o, i), (&c, &a)| {
            (o + a as f64, i + seq.contents[c].area as f64)
        });

        let mut traced_sample = None;
        let mut overhead = 0.0;
        if phases.iter().any(|p| p.traced) {
            overhead = rate(&phases, false) / rate(&phases, true) - 1.0;
            for t in phases.into_iter().flat_map(|p| p.tracers) {
                tracer.merge(t);
            }
            let tr: Vec<&JobRecord> = records.iter().filter(|r| r.traced).collect();
            let lat = |new: bool| {
                let v: Vec<f64> = tr
                    .iter()
                    .filter(|r| r.new == new)
                    .map(|r| r.latency * 1e3)
                    .collect();
                median(&v)
            };
            let mut sample = LayerSample {
                times: total_by_name(tracer.spans()),
                self_times: self_time_by_layer(tracer.spans()),
                ..LayerSample::default()
            };
            let c = &mut sample.counters;
            c.insert(
                "serve.hit_ratio".into(),
                hits as f64 / (hits + misses).max(1) as f64,
            );
            c.insert("serve.solves".into(), solves as f64);
            c.insert("serve.evictions".into(), metrics.store.evictions as f64);
            c.insert("serve.hit_ms_p50".into(), lat(false));
            c.insert("serve.miss_ms_p50".into(), lat(true));
            c.insert(
                "serve.lookup_ms".into(),
                histogram_median_ms(&histogram_diff(&metrics.lookup, &self.warm.lookup)),
            );
            c.insert(
                "serve.persist_ms".into(),
                histogram_median_ms(&histogram_diff(&metrics.persist, &self.warm.persist)),
            );
            traced_sample = Some(sample);
        }
        let defs = seq.contents.iter().map(|c| c.table.len()).sum();
        Ok(ServeResult {
            tally,
            latencies,
            jobs_per_s: untraced.len() as f64 / untraced_ref,
            boxes_per_s: boxes as f64 / untraced_ref,
            wall_boxes_per_s: boxes as f64 / untraced_wall,
            readings: Vec::new(),
            area_ratio: out_area / in_area,
            designs: seq.contents.len(),
            expected_hits: records.iter().filter(|r| !r.new).count(),
            boxes: seq.contents.iter().map(|c| c.boxes).sum(),
            defs,
            traced: traced_sample,
            overhead,
            entry_bytes: mean_entry_bytes(&self.store),
        })
    }
}

/// Checks one served (miss) CIF: it re-parses, keeps the design's box
/// count, is DRC-clean and no larger than the uncompacted design.
/// Returns its bounding-box area.
fn check_served(cif: &str, c: &Content, rules: &rsg::layout::DesignRules) -> Result<i64, String> {
    check_cif_reparses(cif, c.boxes)?;
    let (table, top) = read_cif(cif).map_err(|e| e.to_string())?;
    let flat = flatten(&table, top).map_err(|e| e.to_string())?;
    let violations = drc::check_flat(&flat, rules).len();
    if violations > 0 {
        return Err(format!("{violations} DRC violations"));
    }
    let area = flat.bbox().rect().map_or(0, |r| r.area());
    if area > c.area {
        return Err(format!("area grew: {} -> {area}", c.area));
    }
    Ok(area)
}

fn mean_entry_bytes(dir: &Path) -> f64 {
    let sizes: Vec<u64> = std::fs::read_dir(dir)
        .into_iter()
        .flatten()
        .flatten()
        .filter(|e| e.path().extension().is_some_and(|x| x == "rsgstore"))
        .filter_map(|e| e.metadata().ok().map(|m| m.len()))
        .collect();
    if sizes.is_empty() {
        0.0
    } else {
        sizes.iter().sum::<u64>() as f64 / sizes.len() as f64
    }
}
