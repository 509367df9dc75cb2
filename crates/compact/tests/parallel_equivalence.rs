//! Serial ≡ parallel, pinned by property tests: on every random
//! hierarchy, [`compact_hierarchy`], a persistent [`CompactSession`],
//! and the per-layer DRC sweep must produce **bit-identical** results at
//! `Parallelism::Threads(n)` for n ∈ {1, 2, 4, 9} — geometry, pitches,
//! violation lists, and error classes all match the serial walk exactly.
//!
//! The thread counts deliberately oversubscribe the host (CI runs on
//! 1–4 cores): determinism must come from the merge discipline (DFS
//! reassembly, per-level ordering, index-slot result collection), not
//! from scheduling luck. n = 1 additionally pins that a one-worker
//! `Threads` setting agrees with `Serial`.

use proptest::prelude::*;
use rsg_compact::backend::BellmanFord;
use rsg_compact::hier::{compact_hierarchy, ChipLayout, HierError, HierOptions};
use rsg_compact::incremental::CompactSession;
use rsg_compact::limits::{Exhausted, Limits, Resource};
use rsg_compact::par::Parallelism;
use rsg_geom::{Orientation, Point, Rect};
use rsg_layout::{
    drc, CellDefinition, CellId, CellTable, FlatBox, FlatLayout, Instance, Layer, Technology,
};

/// The worker counts every property is pinned at (1 = forced parallel
/// path with a single worker; 9 = oversubscribed on any CI host).
const THREADS: [usize; 4] = [1, 2, 4, 9];

const LANE_LAYERS: [Layer; 4] = [Layer::Diffusion, Layer::Poly, Layer::Metal1, Layer::Metal2];

/// `(layer index, x offset, width, height)` per lane — clean by
/// construction: lanes stack vertically with an 8-unit gap (≥ every
/// Mead–Conway spacing at λ = 2) and every box is ≥ 8 wide/tall.
type Lanes = Vec<(usize, i64, i64, i64)>;

fn lane_cell(name: &str, lanes: &[(usize, i64, i64, i64)]) -> CellDefinition {
    let mut c = CellDefinition::new(name);
    let mut y = 0;
    for &(layer_idx, x0, w, h) in lanes {
        let layer = LANE_LAYERS[layer_idx % LANE_LAYERS.len()];
        c.add_box(layer, Rect::from_coords(x0, y, x0 + w, y + h));
        y += h + 8;
    }
    c
}

/// A three-level chip with real per-level width: two leaf definitions,
/// one grid block over each, and a top row alternating the blocks. The
/// dependency-level scheduler sees both blocks as one two-wide wave, so
/// every `Threads(n)` run genuinely fans out.
fn chip(lanes_a: &Lanes, lanes_b: &Lanes, nx: i64, ny: i64, blocks: i64) -> (CellTable, CellId) {
    let mut t = CellTable::new();
    let a = lane_cell("leaf_a", lanes_a);
    let b = lane_cell("leaf_b", lanes_b);
    let bb_a = a.local_bbox().rect().expect("non-empty");
    let bb_b = b.local_bbox().rect().expect("non-empty");
    let a_id = t.insert(a).unwrap();
    let b_id = t.insert(b).unwrap();

    let block = |t: &mut CellTable, name: &str, leaf: CellId, bb: Rect| {
        let (px, py) = (bb.hi().x + 8, bb.hi().y + 8);
        let mut blk = CellDefinition::new(name);
        for row in 0..ny {
            for col in 0..nx {
                blk.add_instance(Instance::new(
                    leaf,
                    Point::new(col * px, row * py),
                    Orientation::NORTH,
                ));
            }
        }
        t.insert(blk).unwrap()
    };
    let blk_a = block(&mut t, "block_a", a_id, bb_a);
    let blk_b = block(&mut t, "block_b", b_id, bb_b);

    let width_a = (nx - 1) * (bb_a.hi().x + 8) + bb_a.hi().x;
    let width_b = (nx - 1) * (bb_b.hi().x + 8) + bb_b.hi().x;
    let pitch = width_a.max(width_b) + 8;
    let mut top = CellDefinition::new("chip");
    for k in 0..blocks {
        let id = if k % 2 == 0 { blk_a } else { blk_b };
        top.add_instance(Instance::new(
            id,
            Point::new(k * pitch, 0),
            Orientation::NORTH,
        ));
    }
    let top_id = t.insert(top).unwrap();
    (t, top_id)
}

fn with_threads(n: usize) -> HierOptions {
    HierOptions {
        parallelism: Parallelism::Threads(n),
        ..HierOptions::default()
    }
}

/// `parallel == serial`, bit for bit, on geometry and pitches.
fn assert_same(par: &ChipLayout, serial: &ChipLayout, n: usize) {
    assert_eq!(
        par.cells.len(),
        serial.cells.len(),
        "cell count at {n} threads"
    );
    for ((n_par, o_par), (n_ser, o_ser)) in par.cells.iter().zip(&serial.cells) {
        assert_eq!(n_par, n_ser, "compaction order at {n} threads");
        assert_eq!(
            o_par.cell, o_ser.cell,
            "geometry of `{n_par}` diverged at {n} threads"
        );
        assert_eq!(
            o_par.pitches, o_ser.pitches,
            "pitches of `{n_par}` diverged at {n} threads"
        );
        assert_eq!(o_par.converged, o_ser.converged);
    }
    assert_eq!(
        par.table.require(par.top).unwrap(),
        serial.table.require(serial.top).unwrap(),
        "top definition diverged at {n} threads"
    );
}

fn lanes_strategy(max_lanes: usize) -> impl Strategy<Value = Lanes> {
    proptest::collection::vec((0usize..4, 0i64..6, 8i64..20, 8i64..16), 1..max_lanes + 1)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// The from-scratch walk: `Threads(n)` ≡ `Serial` on random
    /// hierarchies, for every pinned worker count.
    #[test]
    fn parallel_walk_matches_serial_bit_for_bit(
        lanes_a in lanes_strategy(2),
        lanes_b in lanes_strategy(2),
        nx in 1i64..3,
        ny in 1i64..3,
        blocks in 2i64..5,
    ) {
        let tech = Technology::mead_conway(2);
        let solver = BellmanFord::SORTED;
        let (table, top) = chip(&lanes_a, &lanes_b, nx, ny, blocks);

        let serial =
            compact_hierarchy(&table, top, &tech.rules, &solver, &HierOptions::default())
                .unwrap();
        for n in THREADS {
            let par =
                compact_hierarchy(&table, top, &tech.rules, &solver, &with_threads(n)).unwrap();
            assert_same(&par, &serial, n);
        }
    }

    /// The persistent session: `Threads(n)` ≡ `Serial` both cold and
    /// warm. Each session keeps its own cache across an edit, so the
    /// parallel miss/merge path is exercised cold and the cache-replay
    /// path warm — both must reproduce the serial answer bit for bit.
    #[test]
    fn parallel_session_matches_serial_bit_for_bit(
        lanes_a in lanes_strategy(2),
        mut lanes_b in lanes_strategy(2),
        nx in 1i64..3,
        ny in 1i64..3,
        blocks in 2i64..4,
        grow in 8i64..20,
    ) {
        let tech = Technology::mead_conway(2);
        let solver = BellmanFord::SORTED;
        let mut sessions: Vec<(usize, CompactSession)> =
            THREADS.iter().map(|&n| (n, CompactSession::new())).collect();
        let mut serial_session = CompactSession::new();

        // Cold run, then an edit confined to leaf_b, then a no-op replay.
        for step in 0..3 {
            if step == 1 {
                lanes_b[0].2 = grow;
            }
            let (table, top) = chip(&lanes_a, &lanes_b, nx, ny, blocks);
            let serial = serial_session
                .compact_hierarchy(&table, top, &tech.rules, &solver, &HierOptions::default())
                .unwrap();
            for (n, session) in &mut sessions {
                let par = session
                    .compact_hierarchy(&table, top, &tech.rules, &solver, &with_threads(*n))
                    .unwrap();
                assert_same(&par, &serial, *n);
            }
        }
    }

    /// The per-layer DRC sweep: `Threads(n)` ≡ `Serial` on random flat
    /// geometry that is *allowed to be dirty* — the violation lists
    /// (class, layers, boxes, order) must match exactly, not just their
    /// emptiness.
    #[test]
    fn parallel_drc_sweep_matches_serial_bit_for_bit(
        boxes in proptest::collection::vec(
            (0usize..4, 0i64..60, 0i64..60, 1i64..14, 1i64..14),
            1..40,
        ),
    ) {
        let tech = Technology::mead_conway(2);
        let flat = FlatLayout::from_boxes(
            boxes
                .iter()
                .map(|&(layer_idx, x, y, w, h)| FlatBox {
                    layer: LANE_LAYERS[layer_idx % LANE_LAYERS.len()],
                    rect: Rect::from_coords(x, y, x + w, y + h),
                    depth: 0,
                })
                .collect(),
        );
        let serial = drc::check_flat_par(&flat, &tech.rules, Parallelism::Serial);
        prop_assert_eq!(&serial, &drc::check_flat(&flat, &tech.rules));
        for n in THREADS {
            let par = drc::check_flat_par(&flat, &tech.rules, Parallelism::Threads(n));
            prop_assert_eq!(&par, &serial, "DRC sweep diverged at {} threads", n);
        }
    }
}

/// Error classes survive the parallel walk: a recursive hierarchy and a
/// budget overrun surface as the *same* [`rsg_compact::hier::HierError`]
/// from the serial walk, every `Threads(n)` walk, and the session — the
/// DFS-minimum failure rule reproduces serial error selection exactly.
#[test]
fn error_classes_match_serial_at_every_parallelism() {
    let tech = Technology::mead_conway(2);
    let solver = BellmanFord::SORTED;

    let mut t = CellTable::new();
    let mut a = CellDefinition::new("a");
    a.add_box(Layer::Poly, Rect::from_coords(0, 0, 8, 8));
    let a_id = t.insert(a).unwrap();
    let mut top = CellDefinition::new("top");
    top.add_instance(Instance::new(a_id, Point::new(0, 0), Orientation::NORTH));
    let top_id = t.insert(top).unwrap();
    // Close the cycle: `a` now instantiates `top`.
    t.get_mut(a_id).unwrap().add_instance(Instance::new(
        top_id,
        Point::new(0, 40),
        Orientation::NORTH,
    ));

    let serial =
        compact_hierarchy(&t, top_id, &tech.rules, &solver, &HierOptions::default()).unwrap_err();
    for n in THREADS {
        let par =
            compact_hierarchy(&t, top_id, &tech.rules, &solver, &with_threads(n)).unwrap_err();
        assert_eq!(par, serial, "walk error diverged at {n} threads");
        let ses = CompactSession::new()
            .compact_hierarchy(&t, top_id, &tech.rules, &solver, &with_threads(n))
            .unwrap_err();
        assert_eq!(ses, serial, "session error diverged at {n} threads");
    }

    // Two cells over a 4-box budget at different dependency levels. DFS
    // order is leaf, mid, upper, wide, top: `upper` (3 × `mid` = 6 flat
    // boxes, level 1) fails first in DFS order, but the level schedule
    // runs `wide` (5 × leaf = 5 boxes, level 0) and sees it fail first.
    let mut t = CellTable::new();
    let mut leaf = CellDefinition::new("leaf");
    leaf.add_box(Layer::Poly, Rect::from_coords(0, 0, 8, 8));
    let leaf_id = t.insert(leaf).unwrap();
    let row = |t: &mut CellTable, name: &str, of: CellId, n: i64, pitch: i64| {
        let mut c = CellDefinition::new(name);
        for k in 0..n {
            c.add_instance(Instance::new(
                of,
                Point::new(k * pitch, 0),
                Orientation::NORTH,
            ));
        }
        t.insert(c).unwrap()
    };
    let mid = row(&mut t, "mid", leaf_id, 2, 20);
    let upper = row(&mut t, "upper", mid, 3, 60);
    let wide = row(&mut t, "wide", leaf_id, 5, 20);
    let mut top = CellDefinition::new("top");
    top.add_instance(Instance::new(upper, Point::new(0, 0), Orientation::NORTH));
    top.add_instance(Instance::new(wide, Point::new(0, 40), Orientation::NORTH));
    let top_id = t.insert(top).unwrap();

    let capped = |parallelism| HierOptions {
        limits: Limits {
            max_flat_boxes: Some(4),
            ..Limits::NONE
        },
        parallelism,
        ..HierOptions::default()
    };
    let expected = HierError::Exhausted(Exhausted {
        resource: Resource::FlatBoxes,
        limit: 4,
        observed: 6,
    });
    let settings = std::iter::once(Parallelism::Serial).chain(THREADS.map(Parallelism::Threads));
    for p in settings {
        let walk = compact_hierarchy(&t, top_id, &tech.rules, &solver, &capped(p)).unwrap_err();
        assert_eq!(walk, expected, "walk picked the wrong failure at {p:?}");
        let ses = CompactSession::new()
            .compact_hierarchy(&t, top_id, &tech.rules, &solver, &capped(p))
            .unwrap_err();
        assert_eq!(ses, expected, "session picked the wrong failure at {p:?}");
    }
}
