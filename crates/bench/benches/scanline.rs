//! Experiment E15 — Figs 6.4–6.7: the band scan generates constraints for
//! hidden edges (quadratic blow-up on fragmented layouts, and
//! overconstraint); the visibility scan suppresses them. The y-axis sweep
//! runs on the same geometry with no transposed copy, so its cost tracks
//! the x sweep.
//!
//! The `scanline/lattice` rows time the visibility sweep on the E23
//! megachip lattice at 10⁴, 4×10⁴ and 10⁵ boxes (reported per box, so a
//! superlinear layer shows as a rising ns/box), plus `Threads(2)`
//! against serial at 10⁵; the threaded system is asserted identical to
//! the serial one before timing.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rsg_bench::megachip_flat;
use rsg_compact::par::Parallelism;
use rsg_compact::scanline::{generate, generate_with, Method, Prune};
use rsg_geom::{Axis, Rect};
use rsg_layout::{Layer, Technology};
use std::hint::black_box;

/// Fig 6.5's fragmented bus: n abutting diffusion fragments.
fn fragmented(n: usize) -> Vec<(Layer, Rect)> {
    (0..n as i64)
        .map(|k| {
            (
                Layer::Diffusion,
                Rect::from_coords(10 * k, 0, 10 * (k + 1), 4),
            )
        })
        .collect()
}

fn bench_methods(c: &mut Criterion) {
    let rules = Technology::mead_conway(2).rules.clone();

    // Constraint-count table (the measurable overconstraint). The band
    // rows run with `Prune::Keep`: E15 measures the band scan's raw
    // hidden-edge emission, which the default transitive reduction
    // (E24) would otherwise absorb.
    for n in [8usize, 16, 32, 64] {
        let boxes = fragmented(n);
        let (band, _) = generate_with(
            &boxes,
            &rules,
            Method::Band,
            Axis::X,
            Prune::Keep,
            Parallelism::Serial,
        );
        let (vis, _) = generate(&boxes, &rules, Method::Visibility, Axis::X);
        println!(
            "fragmented bus n={n}: band={} constraints, visibility={}",
            band.constraints().len(),
            vis.constraints().len()
        );
    }

    let mut group = c.benchmark_group("scanline");
    for n in [8usize, 32, 64] {
        let boxes = fragmented(n);
        group.bench_with_input(BenchmarkId::new("band", n), &boxes, |b, boxes| {
            b.iter(|| {
                black_box(
                    generate_with(
                        boxes,
                        &rules,
                        Method::Band,
                        Axis::X,
                        Prune::Keep,
                        Parallelism::Serial,
                    )
                    .0
                    .constraints()
                    .len(),
                )
            })
        });
        group.bench_with_input(BenchmarkId::new("visibility", n), &boxes, |b, boxes| {
            b.iter(|| {
                black_box(
                    generate(boxes, &rules, Method::Visibility, Axis::X)
                        .0
                        .constraints()
                        .len(),
                )
            })
        });
        // The axis-generic sweep: same boxes, perpendicular direction,
        // zero-copy (the retired transpose path rewrote every rect).
        group.bench_with_input(BenchmarkId::new("visibility-y", n), &boxes, |b, boxes| {
            b.iter(|| {
                black_box(
                    generate(boxes, &rules, Method::Visibility, Axis::Y)
                        .0
                        .constraints()
                        .len(),
                )
            })
        });
    }
    group.finish();

    let mut group = c.benchmark_group("scanline/lattice");
    for n in [10_000usize, 40_000, 100_000] {
        let boxes = megachip_flat(n);
        println!("scanline/lattice: n={n} -> {} boxes", boxes.len());
        let mut runs = vec![(format!("{n}"), Parallelism::Serial)];
        if n == 100_000 {
            let serial = generate(&boxes, &rules, Method::Visibility, Axis::X).0;
            let par = generate_with(
                &boxes,
                &rules,
                Method::Visibility,
                Axis::X,
                Prune::Apply,
                Parallelism::Threads(2),
            )
            .0;
            assert_eq!(par.constraints(), serial.constraints(), "threads2 diverged");
            runs.push((format!("{n}/threads2"), Parallelism::Threads(2)));
        }
        for (id, par) in runs {
            group.bench_function(id, |b| {
                b.iter(|| {
                    black_box(
                        generate_with(
                            &boxes,
                            &rules,
                            Method::Visibility,
                            Axis::X,
                            Prune::Apply,
                            par,
                        )
                        .0
                        .constraints()
                        .len(),
                    )
                })
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_methods);
criterion_main!(benches);
