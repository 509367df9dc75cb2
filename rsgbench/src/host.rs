//! Steadying the measurements on a shared host: pinning the process to
//! one CPU, flushing file writes outside the timed region, and
//! host-speed correction.
//!
//! The benchmark keeps one thread busy at a time. Left free, its threads
//! hand work across both CPUs, and every hand-off waits for the other
//! virtual CPU to be scheduled by the hypervisor, which on a busy host
//! takes long and varies; pinned to one CPU, they hand off in place.
//!
//! A shared host lends its cores, caches and memory to other tenants
//! too, and how fast it runs the same code drifts over tens of seconds
//! (by up to 1.6× on a shared 2-CPU cloud host). A fixed reference
//! kernel, read right before and after each timed piece of work,
//! measures that drift; every reported rate and latency is rescaled to a
//! host on which one pass of the kernel takes [`NOMINAL_S`]. The unit of
//! such a time is the reference second (`ref-s`): a second on that
//! nominal host.
//!
//! The kernel is generic branchy, allocating code (B-tree inserts and
//! lookups, a sort, formatting): on that 2-CPU host its slowdown tracked
//! the pipeline's far more closely than a dependent memory walk or an
//! arithmetic loop did. It belongs to the benchmark and never changes
//! with the program, so a change to the program moves the rescaled
//! times as it moves the wall times.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::hint::black_box;
use std::time::Instant;

extern "C" {
    fn sync();
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// Writes every pending file change out to disk and waits for it. The
/// kernel otherwise writes a process's files back, and a `serve` run
/// deletes thousands of store entries, some seconds later, in the
/// middle of whatever runs next; flushing before set-up and after the
/// store's removal keeps that work out of the timed region.
pub fn flush_filesystems() {
    // SAFETY: `sync` takes no arguments and cannot fail.
    unsafe { sync() }
}

/// Words of a `cpu_set_t` (1024 CPUs).
const CPU_SET_WORDS: usize = 16;

/// Pins the calling thread, and every thread it starts afterwards, to
/// the highest-numbered CPU it may run on (CPU 0 tends to take the
/// interrupts). Returns that CPU, or `None` when the mask cannot be
/// read or set; the benchmark then runs unpinned.
pub fn pin_to_one_cpu() -> Option<usize> {
    let mut mask = [0u64; CPU_SET_WORDS];
    let size = std::mem::size_of_val(&mask);
    // SAFETY: `mask` is a writable buffer of `size` bytes, the size of a
    // `cpu_set_t`; pid 0 names the calling thread.
    if unsafe { sched_getaffinity(0, size, mask.as_mut_ptr()) } != 0 {
        return None;
    }
    let cpu = (0..CPU_SET_WORDS * 64)
        .rev()
        .find(|&c| mask[c / 64] & (1 << (c % 64)) != 0)?;
    let mut one = [0u64; CPU_SET_WORDS];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: as above; `one` is read, not written.
    (unsafe { sched_setaffinity(0, size, one.as_ptr()) } == 0).then_some(cpu)
}

/// Reference-kernel seconds per reference second: a reading (one pass
/// of the kernel) of `NOMINAL_S` leaves a time unscaled.
pub const NOMINAL_S: f64 = 1e-3;

/// Keys inserted, sorted and looked up per pass of the kernel.
const KEYS: u64 = 3000;

/// Passes per reading.
const PASSES: usize = 3;

/// The reference kernel.
#[derive(Debug, Default)]
pub struct Reference {
    /// Every reading taken, seconds.
    pub readings: Vec<f64>,
}

impl Reference {
    /// Runs the kernel [`PASSES`] times and returns the median wall
    /// time, seconds: one pass can land on an interrupt or a moment of
    /// CPU steal, which says nothing about the host's speed.
    pub fn read(&mut self) -> f64 {
        let mut passes = [0.0; PASSES];
        for p in &mut passes {
            *p = Self::pass();
        }
        passes.sort_by(f64::total_cmp);
        let secs = passes[PASSES / 2];
        self.readings.push(secs);
        secs
    }

    /// One run of the kernel: its wall time, seconds.
    fn pass() -> f64 {
        let started = Instant::now();
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let mut tree = BTreeMap::new();
        let mut pairs = Vec::with_capacity(KEYS as usize);
        let mut text = String::new();
        for k in 0..KEYS {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            tree.insert(state % 10_000, k);
            pairs.push((state % 977, k));
            if k % 8 == 0 {
                let _ = write!(text, "{}:{k};", state % 1000);
            }
        }
        pairs.sort_unstable();
        let hits = (0..KEYS).filter(|k| tree.contains_key(&(k * 3))).count();
        black_box((hits, pairs, text));
        started.elapsed().as_secs_f64()
    }

    /// The factor that turns wall seconds measured between readings
    /// `before` and `after` into reference seconds.
    pub fn scale(before: f64, after: f64) -> f64 {
        2.0 * NOMINAL_S / (before + after)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nominal_readings_leave_times_unscaled() {
        assert!((Reference::scale(NOMINAL_S, NOMINAL_S) - 1.0).abs() < 1e-12);
        // A host twice as slow as nominal halves the time it reports.
        assert!((Reference::scale(2.0 * NOMINAL_S, 2.0 * NOMINAL_S) - 0.5).abs() < 1e-12);
        let mut r = Reference::default();
        assert!(r.read() > 0.0);
        assert_eq!(r.readings.len(), 1);
    }
}
