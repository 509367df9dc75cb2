//! Minimal deterministic parallel map over scoped threads.
//!
//! The batch leaf compactor, the hierarchy DAG walk, and the per-layer
//! DRC sweep all fan independent jobs out across cores. The container
//! this repository builds in has no registry access, so instead of
//! `rayon` this module implements the one primitive needed — an
//! order-preserving parallel map — on `std::thread::scope`. Workers
//! claim contiguous index chunks from a shared atomic cursor and write
//! results straight into preallocated per-index slots, so the output is
//! byte-identical to the serial map regardless of scheduling and the
//! hot batch path allocates nothing per item.
//!
//! A panic inside the mapped closure does **not** poison the batch: each
//! item runs under `catch_unwind`, the panic payload is captured as a
//! typed [`WorkerPanic`] for that slot, and every other item still
//! completes. Callers decide whether one bad item fails the batch.
//!
//! [`par_ranges`] is the one range fan-out built on it: the spacing
//! scans and the DRC sweep split their box list into contiguous index
//! ranges and get back exactly the output of one serial pass.

use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// A mapped closure panicked on one item; the rest of the batch is
/// unaffected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkerPanic {
    /// Index of the input item whose closure panicked.
    pub index: usize,
    /// The panic payload, when it was a string (the common case).
    pub message: String,
}

impl std::fmt::Display for WorkerPanic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "worker panicked on item {}: {}",
            self.index, self.message
        )
    }
}

impl std::error::Error for WorkerPanic {}

/// The message of a caught panic payload: the string it carried, or a
/// fixed placeholder for non-string payloads.
pub fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

/// One output slot, owned by exactly one worker while it runs.
type Slot<R> = Option<Result<R, WorkerPanic>>;

/// A claimable chunk of output slots: base index plus the slot slice.
/// The `Mutex` mediates only the one-time handoff to the claiming
/// worker, never per-item traffic.
type Task<'a, R> = Mutex<Option<(usize, &'a mut [Slot<R>])>>;

fn run_one<T, R, F>(f: &F, item: &T, index: usize) -> Result<R, WorkerPanic>
where
    F: Fn(&T) -> R,
{
    catch_unwind(AssertUnwindSafe(|| f(item))).map_err(|payload| WorkerPanic {
        index,
        message: panic_message(payload),
    })
}

/// Maps `f` over `items` on up to `threads` worker threads, preserving
/// input order in the output.
///
/// `threads == 0` or `threads == 1` (or a single-item input) runs inline
/// with no thread overhead. A panic in `f` yields `Err(WorkerPanic)` in
/// that item's slot instead of unwinding into the caller.
pub fn par_map<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<Result<R, WorkerPanic>>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let workers = threads.min(items.len());
    if workers <= 1 {
        return items
            .iter()
            .enumerate()
            .map(|(i, item)| run_one(&f, item, i))
            .collect();
    }

    // Preallocated output: one slot per input index. Each chunk of slots
    // is handed to exactly one worker (claimed through the atomic
    // cursor), so writes are disjoint; the per-chunk `Mutex` only
    // mediates the one-time slice handoff, never per-item traffic.
    let mut slots: Vec<Slot<R>> = (0..items.len()).map(|_| None).collect();
    // More chunks than workers so a slow chunk cannot serialize the
    // batch; chunk claiming costs one atomic op per chunk, not per item.
    let chunk = items.len().div_ceil(workers * 4).max(1);
    let tasks: Vec<Task<'_, R>> = slots
        .chunks_mut(chunk)
        .enumerate()
        .map(|(c, out)| Mutex::new(Some((c * chunk, out))))
        .collect();
    let next = AtomicUsize::new(0);
    // `scope` joins every worker before returning, so every chunk is
    // claimed and every slot below is filled. Workers never unwind out
    // of the loop (each call is caught).
    std::thread::scope(|scope| {
        for _ in 0..workers {
            let next = &next;
            let tasks = &tasks;
            let f = &f;
            scope.spawn(move || loop {
                let c = next.fetch_add(1, Ordering::Relaxed);
                let Some(task) = tasks.get(c) else { break };
                let claimed = match task.lock() {
                    Ok(mut guard) => guard.take(),
                    Err(mut poisoned) => poisoned.get_mut().take(),
                };
                let Some((base, out)) = claimed else { continue };
                for (j, slot) in out.iter_mut().enumerate() {
                    let i = base + j;
                    *slot = Some(run_one(f, &items[i], i));
                }
            });
        }
    });
    slots
        .into_iter()
        .enumerate()
        .map(|(i, s)| match s {
            Some(r) => r,
            // Unreachable by construction; keep the batch panic-free
            // even if a worker were somehow lost.
            None => Err(WorkerPanic {
                index: i,
                message: "worker produced no result".to_owned(),
            }),
        })
        .collect()
}

/// Runs `f` over contiguous ranges covering `0..len` on up to `threads`
/// workers, appending each range's output to `out` in range order.
///
/// `f(range, out)` must append exactly what the range contributes and
/// depend on nothing but the range, so the final `out` equals what the
/// single inline call `f(0..len, out)` leaves — which is what runs when
/// `threads <= 1` or `len <= 1`. The ranges are `⌈len / 8·threads⌉`
/// long, more than there are workers, so one dense range cannot
/// serialize the batch. A range whose worker panicked is recomputed
/// inline, so a genuine panic surfaces on the caller's thread, as it
/// would serially.
pub fn par_ranges<T, F>(len: usize, threads: usize, out: &mut Vec<T>, f: F)
where
    T: Send,
    F: Fn(Range<usize>, &mut Vec<T>) + Sync,
{
    let threads = threads.min(len);
    if threads <= 1 {
        f(0..len, out);
        return;
    }
    let chunk = len.div_ceil(threads * 8);
    let ranges: Vec<Range<usize>> = (0..len)
        .step_by(chunk)
        .map(|s| s..(s + chunk).min(len))
        .collect();
    let blocks = par_map(&ranges, threads, |range| {
        let mut block = Vec::new();
        f(range.clone(), &mut block);
        block
    });
    for (block, range) in blocks.into_iter().zip(ranges) {
        match block {
            Ok(mut block) => out.append(&mut block),
            Err(_) => f(range, out),
        }
    }
}

/// Worker count for [`Parallelism::Auto`]: the machine's available
/// parallelism (1 when it cannot be determined).
pub fn auto_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// How a batch operation distributes its independent jobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Parallelism {
    /// All jobs inline on the calling thread.
    Serial,
    /// One worker per available core.
    #[default]
    Auto,
    /// Exactly this many worker threads.
    Threads(usize),
}

impl Parallelism {
    /// The concrete worker count.
    pub fn threads(self) -> usize {
        match self {
            Parallelism::Serial => 1,
            Parallelism::Auto => auto_threads(),
            Parallelism::Threads(n) => n.max(1),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ok_values<R: std::fmt::Debug>(results: Vec<Result<R, WorkerPanic>>) -> Vec<R> {
        results.into_iter().map(|r| r.unwrap()).collect()
    }

    #[test]
    fn preserves_order() {
        let items: Vec<usize> = (0..100).collect();
        let serial: Vec<usize> = items.iter().map(|&x| x * x).collect();
        for threads in [1, 2, 4, 9] {
            assert_eq!(ok_values(par_map(&items, threads, |&x| x * x)), serial);
        }
    }

    #[test]
    fn empty_and_single() {
        assert!(par_map(&[] as &[i32], 8, |&x| x).is_empty());
        assert_eq!(ok_values(par_map(&[7], 8, |&x| x + 1)), vec![8]);
    }

    #[test]
    fn parallelism_thread_counts() {
        assert_eq!(Parallelism::Serial.threads(), 1);
        assert_eq!(Parallelism::Threads(3).threads(), 3);
        assert_eq!(Parallelism::Threads(0).threads(), 1);
        assert!(Parallelism::Auto.threads() >= 1);
    }

    /// Appends `i²` for every index of the range.
    fn squares(range: Range<usize>, out: &mut Vec<usize>) {
        out.extend(range.map(|i| i * i));
    }

    /// Appends 0, 1 or 2 items per index, so some ranges add nothing.
    fn uneven(range: Range<usize>, out: &mut Vec<usize>) {
        for i in range {
            out.extend((0..i % 3).map(|k| 3 * i + k));
        }
    }

    #[test]
    fn par_ranges_equals_one_inline_call() {
        type Fill = fn(Range<usize>, &mut Vec<usize>);
        for f in [squares as Fill, uneven] {
            for len in [0, 1, 7, 1000] {
                let mut inline = vec![usize::MAX];
                f(0..len, &mut inline);
                for threads in [1, 2, 4, 9] {
                    // `out` keeps what it held before the call.
                    let mut out = vec![usize::MAX];
                    par_ranges(len, threads, &mut out, f);
                    assert_eq!(out, inline, "len {len}, threads {threads}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "bad range (on caller: true)")]
    fn par_ranges_panic_surfaces_on_the_calling_thread() {
        let caller = std::thread::current().id();
        let mut out = Vec::new();
        par_ranges(
            1000,
            4,
            &mut out,
            |range: Range<usize>, out: &mut Vec<usize>| {
                // Only the inline retry on the calling thread may panic out;
                // the workers' panic on the same range is caught by
                // `par_map`. Reaching the caller therefore proves the retry.
                if range.contains(&500) {
                    let here = std::thread::current().id();
                    panic!("bad range (on caller: {})", here == caller);
                }
                squares(range, out);
            },
        );
    }

    #[test]
    fn worker_panic_is_typed_and_isolated() {
        let items: Vec<usize> = (0..8).collect();
        for threads in [1, 4] {
            let results = par_map(&items, threads, |&x| {
                assert!(x != 5, "boom at five");
                x * 10
            });
            assert_eq!(results.len(), 8);
            for (i, r) in results.iter().enumerate() {
                if i == 5 {
                    let err = r.as_ref().unwrap_err();
                    assert_eq!(err.index, 5);
                    assert!(err.message.contains("boom at five"), "{}", err.message);
                    assert!(err.to_string().contains("item 5"));
                } else {
                    assert_eq!(*r, Ok(i * 10));
                }
            }
        }
    }
}
