//! Serial-equivalence harness for intra-partition parallelism: for every
//! evaluation algorithm, running with `threads_per_machine` ∈ {1, 2, 4}
//! must produce byte-identical user-visible state — attribute columns (the
//! per-superstep images the accumulators fold into), global accumulator
//! values, and superstep counts — over both the one-shot run and a
//! multi-batch incremental sequence. `threads_per_machine = 1` executes
//! the same chunked code path inline, so it *is* the serial baseline.
//!
//! A companion determinism regression runs the same parallel workload
//! twice and demands exact equality of the deterministic metrics
//! (`work_units`, `recomputed_vertices`, chunk/phase counts) alongside the
//! outputs.

mod common;

use common::{attr_names, global_names, random_workload};
use itg_algorithms::programs;
use itg_engine::{EngineConfig, GraphInput, ParallelMetrics, RunMetrics, SessionBuilder};
use itg_obs::Recorder;
use itg_gsa::{Value, VertexId};
use itg_store::MutationBatch;

const N: u64 = 48;

fn cfg(machines: usize, threads: usize) -> EngineConfig {
    EngineConfig {
        machines,
        parallel: machines > 1,
        ..EngineConfig::default()
    }
    .with_threads(threads)
}

/// Everything a run exposes that must be invariant under the thread count.
#[derive(Debug, PartialEq)]
struct Observed {
    columns: Vec<(String, Vec<Value>)>,
    globals: Vec<(String, Value)>,
    supersteps: Vec<usize>,
    work_units: Vec<u64>,
    recomputed: Vec<u64>,
    /// Chunk decomposition counters — these depend only on work-list
    /// sizes, so they too must match across thread counts.
    chunks: Vec<u64>,
    phases: Vec<u64>,
}

fn observe(
    name: &str,
    machines: usize,
    threads: usize,
    base: &[(VertexId, VertexId)],
    batches: &[MutationBatch],
) -> Observed {
    let src = programs::source(name).unwrap();
    let mut input = if programs::is_undirected(name) {
        GraphInput::undirected(base.to_vec())
    } else {
        GraphInput::directed(base.to_vec())
    };
    input.num_vertices = N as usize;
    let mut config = cfg(machines, threads);
    if matches!(name, "pr" | "lp") {
        config.max_supersteps = 10;
    }
    let mut sess = SessionBuilder::from_config(config).from_source(&src, &input).unwrap();
    let mut runs: Vec<RunMetrics> = vec![sess.run_oneshot()];
    for b in batches {
        sess.apply_mutations(b);
        runs.push(sess.run_incremental());
    }
    let columns = attr_names(name)
        .iter()
        .map(|a| (a.to_string(), sess.attr_column(a).unwrap()))
        .collect();
    let globals = global_names(name)
        .iter()
        .map(|g| (g.to_string(), sess.global_value(g, None).unwrap()))
        .collect();
    Observed {
        columns,
        globals,
        supersteps: sess.superstep_counts().to_vec(),
        work_units: runs.iter().map(|r| r.work_units).collect(),
        recomputed: runs.iter().map(|r| r.recomputed_vertices).collect(),
        chunks: runs.iter().map(|r| r.parallel.chunks).collect(),
        phases: runs.iter().map(|r| r.parallel.phases).collect(),
    }
}

/// Threads ∈ {1, 2, 4} produce identical observations for `name`.
fn check_thread_invariance(name: &str, machines: usize, seed: u64) {
    let (base, batches) = random_workload(seed, N, 110, 3, 10);
    let serial = observe(name, machines, 1, &base, &batches);
    for threads in [2, 4] {
        let parallel = observe(name, machines, threads, &base, &batches);
        assert_eq!(
            serial, parallel,
            "{name}: threads_per_machine={threads} diverged from serial \
             (machines {machines}, seed {seed})"
        );
    }
}

#[test]
fn pagerank_parallel_equals_serial() {
    check_thread_invariance("pr", 1, 101);
    check_thread_invariance("pr", 3, 102);
}

#[test]
fn sssp_style_bfs_parallel_equals_serial() {
    check_thread_invariance("bfs", 1, 201);
    check_thread_invariance("bfs", 2, 202);
}

#[test]
fn wcc_parallel_equals_serial() {
    check_thread_invariance("wcc", 1, 301);
    check_thread_invariance("wcc", 3, 302);
}

#[test]
fn triangle_count_parallel_equals_serial() {
    check_thread_invariance("tc", 1, 401);
    check_thread_invariance("tc", 2, 402);
}

#[test]
fn lcc_parallel_equals_serial() {
    check_thread_invariance("lcc", 1, 501);
    check_thread_invariance("lcc", 2, 502);
}

#[test]
fn label_prop_parallel_equals_serial() {
    check_thread_invariance("lp", 1, 601);
    check_thread_invariance("lp", 2, 602);
}

/// Optimization flags and intra-partition threading compose: the full
/// ablation grid at 4 threads matches the serial default configuration.
#[test]
fn optimization_flags_compose_with_threading() {
    use itg_engine::OptFlags;
    let (base, batches) = random_workload(707, N, 90, 2, 8);
    let mut results = Vec::new();
    for (opts, threads) in [
        (OptFlags::default(), 1),
        (OptFlags::default(), 4),
        (OptFlags::none(), 4),
        (
            OptFlags {
                seek_window_share: true,
                ..OptFlags::none()
            },
            4,
        ),
    ] {
        let mut config = cfg(2, threads);
        config.opts = opts;
        let mut input = GraphInput::undirected(base.clone());
        input.num_vertices = N as usize;
        let mut s = SessionBuilder::from_config(config).from_source(programs::TRIANGLE_COUNT, &input).unwrap();
        s.run_oneshot();
        for b in &batches {
            s.apply_mutations(b);
            s.run_incremental();
        }
        results.push(s.global_value("cnts", None).unwrap());
    }
    assert!(
        results.windows(2).all(|w| w[0] == w[1]),
        "flag/thread combinations disagreed: {results:?}"
    );
}

/// The invariance checks are only meaningful if phases actually split into
/// multiple chunks (otherwise "parallel" degenerates to serial trivially).
/// PageRank keeps every vertex active for all 10 supersteps, so on one
/// machine every phase must split the 48-vertex work list.
#[test]
fn workload_exercises_multi_chunk_phases() {
    let (base, batches) = random_workload(909, N, 110, 2, 10);
    let obs = observe("pr", 1, 4, &base, &batches);
    assert!(
        obs.chunks[0] > obs.phases[0],
        "one-shot phases did not split into chunks: chunks {:?}, phases {:?}",
        obs.chunks,
        obs.phases,
    );
}

/// Determinism regression: the same parallel incremental workload executed
/// twice from the same seed yields exactly the same outputs and the same
/// deterministic metrics.
#[test]
fn parallel_run_is_deterministic_run_to_run() {
    for name in ["wcc", "tc", "bfs"] {
        let (base, batches) = random_workload(808, N, 110, 3, 10);
        let first = observe(name, 2, 4, &base, &batches);
        let second = observe(name, 2, 4, &base, &batches);
        assert_eq!(first, second, "{name}: repeated parallel run diverged");
    }
}

/// Float PageRank on the f64 SUM lane: an inexact program, whose chunks
/// fold as runs in chunk order.
const DOUBLE_SUM: &str = r#"
    Vertex (id, active, nbrs, w: double, s: Accm<double, SUM>)
    Initialize (u): {
        u.w = 1.0;
        u.active = true;
    }
    Traverse (u): {
        For v in u.nbrs {
            v.s.Accumulate(u.w * 0.1);
        }
    }
    Update (u): {
        Let val = 0.15 + 0.85 * u.s;
        If (Abs(val - u.w) > 0.0001) {
            u.w = val;
            u.active = true;
        }
    }
"#;

/// The state image after the one-shot and after each batch, and each run's
/// parallel metrics, for `src` on one machine at `threads`.
fn fold_rule_history(
    src: &str,
    threads: usize,
    observed: bool,
    base: &[(VertexId, VertexId)],
    batches: &[MutationBatch],
) -> (Vec<Vec<u8>>, Vec<ParallelMetrics>) {
    let mut input = GraphInput::directed(base.to_vec());
    input.num_vertices = N as usize;
    let mut config = cfg(1, threads);
    config.max_supersteps = 6;
    let rec = if observed { Recorder::enabled() } else { Recorder::disabled() };
    let mut sess =
        SessionBuilder::from_config(config).observer(rec).from_source(src, &input).unwrap();
    let mut runs = vec![sess.run_oneshot()];
    let mut images = vec![sess.dynamic_state_image()];
    for b in batches {
        sess.apply_mutations(b);
        runs.push(sess.run_incremental());
        images.push(sess.dynamic_state_image());
    }
    (images, runs.into_iter().map(|r| r.parallel).collect())
}

/// Exact lanes (PR's integer SUM) fold each worker's chunks where they
/// land, inexact ones (an f64 SUM) hand every chunk over as a run folded in
/// chunk order; either way the state is the same at every thread count,
/// the chunk decomposition too, and each worker still reports its units
/// and, when observed, its wall time.
#[test]
fn exact_and_inexact_lanes_fold_alike_at_every_thread_count() {
    let (base, batches) = random_workload(919, N, 110, 3, 10);
    for (name, src) in [("pr", programs::PAGERANK), ("double_sum", DOUBLE_SUM)] {
        let (images, serial) = fold_rule_history(src, 1, true, &base, &batches);
        let (unobserved_images, unobserved) = fold_rule_history(src, 1, false, &base, &batches);
        assert_eq!(images, unobserved_images, "{name}: the recorder moved the state");
        assert_eq!(serial, unobserved, "{name}: the recorder moved the metrics");
        for (run, (p, q)) in serial.iter().zip(&unobserved).enumerate() {
            assert!(p.chunks > p.phases, "{name} run {run}: phases did not split");
            assert_eq!(p.max_worker_units, p.min_worker_units, "{name} run {run}: one worker");
            assert!(p.timing.total_worker_ns > 0, "{name} run {run}: worker untimed");
            assert_eq!(q.timing.total_worker_ns, 0, "{name} run {run}: clock read unobserved");
        }
        for threads in [2, 4] {
            let (parallel_images, parallel) = fold_rule_history(src, threads, true, &base, &batches);
            assert_eq!(images, parallel_images, "{name}: threads={threads} moved the state");
            for (run, (p, s)) in parallel.iter().zip(&serial).enumerate() {
                let at = format!("{name} run {run}, threads={threads}");
                assert_eq!((p.phases, p.chunks), (s.phases, s.chunks), "{at}: chunks moved");
                // The workers' units add up to the one worker's: the
                // busiest took at least a 1/threads share, none took more.
                let (max, all) = (p.max_worker_units, s.max_worker_units);
                assert!(max <= all && max * threads as u64 >= all, "{at}: units {max} of {all}");
                assert!(p.min_worker_units <= max, "{at}");
                assert!(p.timing.max_worker_ns > 0, "{at}: worker untimed");
            }
        }
    }
}
