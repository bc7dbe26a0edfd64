//! Vertex-store model check: seeded random after-image histories against a
//! naive latest-value model.
//!
//! A history records one run per (snapshot `t < T ≤ 12`, superstep
//! `s < S ≤ 4`) cell it executes: a sorted, unique vid set (sometimes
//! empty, biased toward a few hot vertices so the cost-based policy merges)
//! over Bool, Long, Double and Array columns. Each history is replayed
//! under `NoMerge`, `Periodic(3)` and `CostBased` into two stores. Before
//! snapshot `t`'s runs are recorded, every superstep's image bounded at `t`
//! must equal the model — the baseline overlaid with the latest value each
//! vertex took at `s` before `t` — read two ways: on the first store as a
//! fresh window (`materialize_init`, then `load_superstep_before(s, t)`),
//! on the second as an incremental advance (`load_superstep_before(s, t)`
//! over the same superstep's image at the previous snapshot), and on a
//! third, point-read store (`with_point_reads`) as point loads
//! (`load_rows(s, t, rows)`) of a random row subset onto the baseline
//! image, through the latest-writer index. Halfway through, the first and
//! third stores are replaced by their snapshot-codec round trips, so the
//! rest of their histories run on decoded stores — the third's index
//! rebuilt — and must make the same merge decisions.
//!
//! The cost side is pinned per policy: merges, the `IoStats` read and write
//! bytes of each store and `size_bytes()`, summed over the histories, equal
//! the reference figures below — a change that moves a merge decision or an
//! I/O charge fails here even when every image stays right.

use itg_gsa::value::{ColumnData, PrimType, Value, ValueType};
use itg_store::{AttrStore, IoStats, MaintenancePolicy, Reader, Writer};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

const N: usize = 24;
const HISTORIES: u64 = 40;

fn col_types() -> Vec<ValueType> {
    vec![
        ValueType::Prim(PrimType::Bool),
        ValueType::Prim(PrimType::Long),
        ValueType::Prim(PrimType::Double),
        ValueType::Array(PrimType::Long, 2),
    ]
}

fn random_row(rng: &mut SmallRng) -> Vec<Value> {
    let double = match rng.gen_range(0..8) {
        0 => -0.0,
        1 => f64::NAN,
        _ => rng.gen_range(-4.0..4.0),
    };
    vec![
        Value::Bool(rng.gen_bool(0.5)),
        Value::Long(rng.gen_range(-50..50)),
        Value::Double(double),
        Value::Array(vec![
            Value::Long(rng.gen_range(-9..9)),
            Value::Long(rng.gen_range(-9..9)),
        ]),
    ]
}

/// Rows (one `Vec<Value>` per vertex) → typed columns.
fn to_cols(rows: &[Vec<Value>]) -> Vec<ColumnData> {
    col_types()
        .into_iter()
        .enumerate()
        .map(|(c, ty)| {
            let mut col = ColumnData::zeros(ty, rows.len());
            for (j, row) in rows.iter().enumerate() {
                col.set(j, &row[c]);
            }
            col
        })
        .collect()
}

/// Typed columns → rows, for comparison against the model.
fn to_rows(cols: &[ColumnData]) -> Vec<Vec<Value>> {
    (0..N)
        .map(|i| cols.iter().map(|c| c.get(i)).collect())
        .collect()
}

/// One recorded run: `(t, s, vids, rows)`.
type Record = (usize, usize, Vec<u32>, Vec<Vec<Value>>);

struct History {
    init: Vec<Vec<Value>>,
    snapshots: usize,
    supersteps: usize,
    /// Runs in recording order: snapshot-major, superstep-minor.
    records: Vec<Record>,
}

fn history(seed: u64) -> History {
    let mut rng = SmallRng::seed_from_u64(seed);
    let snapshots = rng.gen_range(2..13);
    let supersteps = rng.gen_range(1..5);
    let init = (0..N).map(|_| random_row(&mut rng)).collect();
    let hot: Vec<u32> = (0..3).map(|_| rng.gen_range(0..N as u32)).collect();
    let p = [0.05, 0.2, 0.6][rng.gen_range(0..3)];
    let mut records = Vec::new();
    for t in 0..snapshots {
        // A snapshot runs a prefix of the supersteps, as the engine does.
        for s in 0..rng.gen_range(1..supersteps + 1) {
            let vids: Vec<u32> = if rng.gen_bool(0.15) {
                Vec::new()
            } else {
                (0..N as u32)
                    .filter(|v| rng.gen_bool(if hot.contains(v) { 0.8 } else { p }))
                    .collect()
            };
            let rows = vids.iter().map(|_| random_row(&mut rng)).collect();
            records.push((t, s, vids, rows));
        }
    }
    History {
        init,
        snapshots,
        supersteps,
        records,
    }
}

/// The model image of superstep `s` bounded at snapshot `t`.
fn model(h: &History, s: usize, t: usize) -> Vec<Vec<Value>> {
    let mut img = h.init.clone();
    for (rt, rs, vids, rows) in &h.records {
        if *rs == s && *rt < t {
            for (&v, row) in vids.iter().zip(rows) {
                img[v as usize] = row.clone();
            }
        }
    }
    img
}

fn new_store(h: &History, policy: MaintenancePolicy, stats: &IoStats) -> AttrStore {
    let mut st = AttrStore::new(col_types(), N, policy, stats.clone());
    st.set_init(to_cols(&h.init));
    st
}

fn roundtrip(st: &AttrStore, policy: MaintenancePolicy, stats: &IoStats) -> AttrStore {
    let mut w = Writer::default();
    st.encode_into(&mut w);
    let mut r = Reader::new(&w.buf);
    let out = AttrStore::decode_from(&mut r, policy, stats.clone()).unwrap();
    r.finish().unwrap();
    out
}

/// `(merges, fresh-window reads, advance reads, writes, size_bytes, point
/// reads)`.
type Cost = (u64, u64, u64, u64, u64, u64);

/// Replay history `seed` under `policy`, checking every image on the way.
fn check(seed: u64, policy: MaintenancePolicy) -> Cost {
    let h = history(seed);
    let (fresh_stats, adv_stats, pt_stats) = (IoStats::new(), IoStats::new(), IoStats::new());
    let mut fresh = new_store(&h, policy, &fresh_stats);
    let mut adv = new_store(&h, policy, &adv_stats);
    let mut pt = new_store(&h, policy, &pt_stats).with_point_reads();
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x9e37_79b9);
    // The advancing store's image of each superstep, at the last snapshot.
    let mut images: Vec<Vec<ColumnData>> =
        (0..h.supersteps).map(|_| adv.materialize_init()).collect();
    let mut next = 0;
    for t in 0..=h.snapshots {
        if t == h.snapshots / 2 {
            fresh = roundtrip(&fresh, policy, &fresh_stats);
            pt = roundtrip(&pt, policy, &pt_stats).with_point_reads();
        }
        for (s, image) in images.iter_mut().enumerate() {
            let want = model(&h, s, t);
            let at = format!("seed {seed} {policy:?} s={s} t={t}");
            let mut win = fresh.materialize_init();
            fresh.load_superstep_before(s, t, &mut win);
            assert_eq!(to_rows(&win), want, "fresh window, {at}");
            adv.load_superstep_before(s, t, image);
            assert_eq!(to_rows(image), want, "incremental advance, {at}");
            let rows: Vec<u32> = (0..N as u32).filter(|_| rng.gen_bool(0.3)).collect();
            let mut points = to_cols(&h.init);
            pt.load_rows(s, t, &rows, &mut points);
            let mut expect = h.init.clone();
            rows.iter().for_each(|&v| expect[v as usize] = want[v as usize].clone());
            assert_eq!(to_rows(&points), expect, "point loads of {rows:?}, {at}");
        }
        while next < h.records.len() && h.records[next].0 == t {
            let (rt, rs, vids, rows) = &h.records[next];
            for st in [&mut fresh, &mut adv, &mut pt] {
                st.record_run(*rt, *rs, vids.clone(), to_cols(rows));
            }
            assert_eq!(
                fresh.chain_shape(*rs),
                adv.chain_shape(*rs),
                "seed {seed} {policy:?}"
            );
            assert_eq!(pt.chain_shape(*rs), adv.chain_shape(*rs), "seed {seed} {policy:?}");
            next += 1;
        }
    }
    let (f, a, p) = (fresh_stats.snapshot(), adv_stats.snapshot(), pt_stats.snapshot());
    for st in [&fresh, &pt] {
        assert_eq!(st.merges_performed(), adv.merges_performed());
        assert_eq!(st.size_bytes(), adv.size_bytes());
    }
    assert_eq!(f.disk_write_bytes, a.disk_write_bytes);
    assert_eq!(p.disk_write_bytes, a.disk_write_bytes);
    (
        adv.merges_performed(),
        f.disk_read_bytes,
        a.disk_read_bytes,
        a.disk_write_bytes,
        adv.size_bytes(),
        p.disk_read_bytes,
    )
}

#[test]
fn vertex_store_matches_latest_value_model() {
    let policies = [
        MaintenancePolicy::NoMerge,
        MaintenancePolicy::Periodic(3),
        MaintenancePolicy::CostBased,
    ];
    // Reference figures: (merges, fresh-window reads, advance reads,
    // writes, size_bytes, point reads), summed over the histories. The
    // point-read store's reads include its merges' chain reads.
    let pinned: [Cost; 3] = [
        (0, 1_451_632, 821_200, 188_597, 188_597, 243_016),
        (128, 1_343_740, 713_308, 264_484, 118_223, 389_277),
        (139, 1_330_494, 700_062, 269_997, 112_303, 400_710),
    ];
    let mut got = Vec::new();
    for policy in policies {
        let mut sum: Cost = (0, 0, 0, 0, 0, 0);
        for seed in 0..HISTORIES {
            let c = check(seed, policy);
            sum = (
                sum.0 + c.0,
                sum.1 + c.1,
                sum.2 + c.2,
                sum.3 + c.3,
                sum.4 + c.4,
                sum.5 + c.5,
            );
        }
        got.push(sum);
    }
    assert_eq!(got, pinned, "merge decisions or I/O charges moved");
}
