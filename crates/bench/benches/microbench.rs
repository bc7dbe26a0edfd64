//! Criterion microbenchmarks for the core data structures and the hot
//! execution paths: walk enumeration (one-shot and Δ), store operations,
//! accumulate variants, the compiler front end, and the baselines'
//! arrangement layer.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use itg_baselines::{DdTriangles, MemoryBudget};
use itg_bench::Dataset;
use iturbograph::graphgen::{generate, RmatConfig};
use iturbograph::gsa::value::{ColumnData, PrimType, ValueType};
use iturbograph::prelude::*;
use iturbograph::store::{AttrStore, IoStats, MaintenancePolicy};

fn bench_walk_enumeration(c: &mut Criterion) {
    let mut group = c.benchmark_group("walk_enumeration");
    for x in [10u32, 12] {
        let ds = Dataset::rmat_undirected("b", x, 42);
        group.bench_with_input(BenchmarkId::new("tc_oneshot", x), &ds, |b, ds| {
            b.iter(|| {
                let mut s = SessionBuilder::from_config(EngineConfig::default()).from_source(iturbograph::algorithms::TRIANGLE_COUNT, &ds.graph_input())
                .unwrap();
                s.run_oneshot();
                s.global_value("cnts", None).unwrap()
            });
        });
    }
    group.finish();
}

fn bench_delta_walks(c: &mut Criterion) {
    let mut group = c.benchmark_group("delta_walks");
    group.sample_size(20);
    for (label, opts) in [("base", OptFlags::none()), ("optimized", OptFlags::default())] {
        group.bench_function(BenchmarkId::new("tc_incremental", label), |b| {
            b.iter_batched(
                || {
                    let mut ds = Dataset::rmat_undirected("b", 11, 7);
                    let cfg = EngineConfig {
                        opts,
                        ..EngineConfig::default()
                    };
                    let mut s = SessionBuilder::from_config(cfg).from_source(iturbograph::algorithms::TRIANGLE_COUNT, &ds.graph_input())
                    .unwrap();
                    s.run_oneshot();
                    let batch = ds.next_batch(50, 75);
                    (s, batch)
                },
                |(mut s, batch)| {
                    s.apply_mutations(&batch);
                    s.run_incremental()
                },
                criterion::BatchSize::LargeInput,
            );
        });
    }
    group.finish();
}

/// Intra-partition thread scaling on a skewed-degree RMAT graph: the same
/// enumeration at 1/2/4 threads per machine. On a multi-core host the
/// 4-thread rows should run ≥1.5× faster than 1-thread; on a single-core
/// host the times converge (the chunk/merge overhead is the difference).
fn bench_intra_partition_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("intra_partition_scaling");
    group.sample_size(10);
    for threads in [1usize, 2, 4] {
        let ds = Dataset::rmat_undirected("b", 12, 42);
        group.bench_with_input(
            BenchmarkId::new("tc_oneshot_threads", threads),
            &ds,
            |b, ds| {
                b.iter(|| {
                    let mut s = SessionBuilder::from_config(EngineConfig::default().with_threads(threads)).from_source(iturbograph::algorithms::TRIANGLE_COUNT, &ds.graph_input())
                    .unwrap();
                    s.run_oneshot();
                    s.global_value("cnts", None).unwrap()
                });
            },
        );
    }
    group.finish();
}

fn bench_store(c: &mut Criterion) {
    let mut group = c.benchmark_group("store");
    group.bench_function("attr_store_record_and_load", |b| {
        b.iter(|| {
            let mut st = AttrStore::new(
                vec![ValueType::Prim(PrimType::Long)],
                4096,
                MaintenancePolicy::CostBased,
                IoStats::new(),
            );
            for t in 0..20usize {
                let vids: Vec<u32> = (0..128).map(|i| (i * 13 + t as u32) % 4096).collect();
                let col = ColumnData::Long(vids.iter().map(|&v| v as i64).collect());
                st.record_run(t, 1, vids, vec![col]);
            }
            let mut arr = st.materialize_init();
            st.load_superstep_before(1, usize::MAX, &mut arr);
            arr[0].len()
        });
    });
    group.bench_function("edge_store_scan", |b| {
        let cfg = RmatConfig::paper_scale(13, 3);
        let edges = generate(&cfg);
        let input = GraphInput::directed(edges);
        let obs = itg_obs::Recorder::disabled();
        let g = iturbograph::engine::ClusterGraph::load_with_obs(&input, 1, 16 << 20, 4096, &obs);
        b.iter(|| {
            let mut total = 0u64;
            for v in 0..g.num_vertices() as u64 {
                g.for_each_neighbor(
                    0,
                    v,
                    iturbograph::gsa::EdgeDir::Out,
                    iturbograph::store::View::New,
                    |_| total += 1,
                );
            }
            total
        });
    });
    group.finish();
}

fn bench_compiler(c: &mut Criterion) {
    c.bench_function("compile_triangle_counting", |b| {
        b.iter(|| compile_source(iturbograph::algorithms::TRIANGLE_COUNT).unwrap());
    });
    c.bench_function("compile_pagerank", |b| {
        b.iter(|| compile_source(iturbograph::algorithms::PAGERANK).unwrap());
    });
}

fn bench_accumulate(c: &mut Criterion) {
    use iturbograph::engine::accum::{Maintain, Monoid};
    use iturbograph::gsa::accm::AccmOp;
    use iturbograph::gsa::Value;
    let mut group = c.benchmark_group("accumulate");
    group.bench_function("sum_fold_10k", |b| {
        b.iter(|| {
            let mut acc = Value::Long(0);
            for i in 0..10_000i64 {
                acc = AccmOp::Sum.combine(&acc, &Value::Long(i), PrimType::Long);
            }
            acc
        });
    });
    group.bench_function("counted_min_10k", |b| {
        let min = Monoid::<i64, false>::default();
        b.iter(|| {
            let mut acc = min.identity();
            for i in (0..10_000i64).rev() {
                min.insert(&mut acc, i % 977, 1);
            }
            min.wire(acc)
        });
    });
    group.finish();
}

fn bench_baseline_arrangement(c: &mut Criterion) {
    c.bench_function("dd_wedge_arrangement_rmat10", |b| {
        let ds = Dataset::rmat_undirected("b", 10, 5);
        b.iter(|| {
            let mut dd = DdTriangles::new(MemoryBudget::unlimited());
            dd.initial(ds.n, &ds.initial).unwrap();
            dd.wedge_entries()
        });
    });
}

/// Observability overhead: the same one-shot PageRank with the recorder
/// disabled (the default — every handle a single-branch no-op) vs enabled
/// (span clocks + relaxed atomic adds). The acceptance bound for this PR is
/// `enabled/disabled < 1.02` on the disabled side, i.e. a disabled recorder
/// must cost nothing measurable; the enabled rows document the cost of
/// turning profiling on.
fn bench_obs_overhead(c: &mut Criterion) {
    let mut group = c.benchmark_group("obs_overhead");
    group.sample_size(20);
    for (label, enabled) in [("disabled", false), ("enabled", true)] {
        let ds = Dataset::rmat_directed("b", 12, 42);
        group.bench_with_input(BenchmarkId::new("pr_oneshot", label), &ds, |b, ds| {
            b.iter(|| {
                let cfg = EngineConfig {
                    max_supersteps: 10,
                    obs: if enabled {
                        itg_obs::Recorder::enabled()
                    } else {
                        itg_obs::Recorder::disabled()
                    },
                    ..EngineConfig::default()
                };
                let mut s = SessionBuilder::from_config(cfg).from_source(iturbograph::algorithms::PAGERANK, &ds.graph_input())
                .unwrap();
                s.run_oneshot().supersteps
            });
        });
    }
    group.finish();
}

/// WAL overhead: the same one-shot + incremental PageRank workload with
/// durability off vs on. The `durability_none` rows pin the non-durable
/// fast path — `DurabilityKind::None` must stay at the pre-WAL baseline
/// (no regression from adding the durability layer); the `durability_wal`
/// rows document the fsync-per-command price of crash safety.
fn bench_wal_overhead(c: &mut Criterion) {
    use std::sync::atomic::{AtomicU64, Ordering};
    static NEXT_DIR: AtomicU64 = AtomicU64::new(0);
    let mut group = c.benchmark_group("wal_overhead");
    group.sample_size(10);
    for (label, durable) in [("durability_none", false), ("durability_wal", true)] {
        group.bench_function(BenchmarkId::new("pr_oneshot_plus_batch", label), |b| {
            b.iter_batched(
                || {
                    let durability = if durable {
                        let i = NEXT_DIR.fetch_add(1, Ordering::Relaxed);
                        let dir = std::env::temp_dir()
                            .join(format!("itg-bench-wal-{}-{i}", std::process::id()));
                        let _ = std::fs::remove_dir_all(&dir);
                        DurabilityKind::Wal { dir }
                    } else {
                        DurabilityKind::None
                    };
                    let mut ds = Dataset::rmat_directed("b", 11, 7);
                    let batch = ds.next_batch(50, 75);
                    (ds, batch, durability)
                },
                |(ds, batch, durability)| {
                    let cfg = EngineConfig {
                        max_supersteps: 10,
                        durability: durability.clone(),
                        ..EngineConfig::default()
                    };
                    let mut s = SessionBuilder::from_config(cfg).from_source(iturbograph::algorithms::PAGERANK, &ds.graph_input())
                    .unwrap();
                    s.run_oneshot();
                    s.apply_mutations(&batch);
                    let m = s.run_incremental();
                    if let DurabilityKind::Wal { dir } = &durability {
                        let _ = std::fs::remove_dir_all(dir);
                    }
                    m
                },
                criterion::BatchSize::LargeInput,
            );
        });
    }

    group.finish();
}

fn bench_graphgen(c: &mut Criterion) {
    c.bench_function("rmat_generate_2e14", |b| {
        b.iter(|| generate(&RmatConfig::paper_scale(14, 9)).len());
    });
}

criterion_group!(
    benches,
    bench_walk_enumeration,
    bench_delta_walks,
    bench_intra_partition_scaling,
    bench_store,
    bench_compiler,
    bench_accumulate,
    bench_baseline_arrangement,
    bench_obs_overhead,
    bench_wal_overhead,
    bench_graphgen,
);
criterion_main!(benches);
