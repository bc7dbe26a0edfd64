//! Every workload at a tiny size, in both modes: the names and units
//! printed are the ones `BENCHMARK.json` promises, exact counters repeat,
//! the trace is a tree, and a wrong result is counted as failed work.

use itg_perfbench::metrics::{MetricDef, END_TO_END, EXACT, PER_LAYER};
use itg_perfbench::run::{replays_for, run, RunArgs, RunResult};
use itg_perfbench::spec::Spec;
use itg_perfbench::trace::Tracer;
use std::path::PathBuf;

fn scratch(label: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(label);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn run_tiny(spec: &Spec, trace: bool, label: &str) -> (RunResult, Tracer) {
    let dir = scratch(&format!("{}-{label}", spec.name));
    let mut tracer = Tracer::new(trace);
    let result = run(
        &RunArgs {
            spec,
            seed: 7,
            seconds: 0.0,
            trace,
            scratch: &dir,
        },
        &mut tracer,
    )
    .unwrap_or_else(|e| panic!("{} {label}: {e}", spec.name));
    let _ = std::fs::remove_dir_all(&dir);
    (result, tracer)
}

/// The `"name"` and `"unit"` strings of `BENCHMARK.json` between two of
/// its keys, in file order.
fn declared(from_key: &str, to_key: Option<&str>) -> Vec<(String, String)> {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json is at the root of the repository");
    let start = text.find(&format!("\"{from_key}\"")).expect("key exists");
    let end = to_key.map_or(text.len(), |k| {
        text.find(&format!("\"{k}\"")).expect("key exists")
    });
    let field = |chunk: &str, key: &str| {
        chunk
            .split(&format!("\"{key}\": \""))
            .nth(1)
            .map(|rest| rest.split('"').next().unwrap().to_string())
            .unwrap_or_default()
    };
    text[start..end]
        .split('{')
        .skip(1)
        .map(|chunk| (field(chunk, "name"), field(chunk, "unit")))
        .collect()
}

fn assert_matches(result: &RunResult, table: &'static [MetricDef], declared: &[(String, String)]) {
    let printed: Vec<(String, String)> = result
        .metrics
        .iter()
        .map(|((name, unit, _), _)| (name.to_string(), unit.to_string()))
        .collect();
    assert_eq!(
        printed, declared,
        "printed metrics are exactly the declared ones, in order"
    );
    assert_eq!(printed.len(), table.len());
    for (_, value) in &result.metrics {
        assert!(value.is_finite());
    }
}

#[test]
fn every_workload_prints_every_declared_metric_and_repeats_its_counts() {
    let workloads: Vec<String> = declared("workloads", Some("end_to_end"))
        .into_iter()
        .map(|(name, _)| name)
        .collect();
    let names: Vec<&str> = Spec::all().iter().map(|s| s.name).collect();
    assert_eq!(workloads, names);
    let end_to_end = declared("end_to_end", Some("per_layer"));
    let per_layer = declared("per_layer", None);

    for name in names {
        let spec = Spec::tiny(name).unwrap();
        let (untraced, _) = run_tiny(&spec, false, "untraced");
        assert!(untraced.correct(), "{name}: {:?}", untraced.ops);
        assert_eq!(untraced.replays, replays_for(0.0));
        assert_matches(&untraced, END_TO_END, &end_to_end);
        for ((metric, ..), value) in &untraced.metrics {
            assert!(
                *value > 0.0,
                "{name}: end-to-end metric {metric} is never 0"
            );
        }

        let (traced, tracer) = run_tiny(&spec, true, "traced");
        assert!(traced.correct(), "{name}: {:?}", traced.ops);
        assert_eq!(traced.replays, 2);
        assert_matches(&traced, PER_LAYER, &per_layer);
        assert_eq!(
            untraced.counters, traced.counters,
            "{name}: exact counters repeat"
        );
        for exact in EXACT {
            assert!(
                PER_LAYER.iter().any(|(n, ..)| n == exact),
                "{exact} is a per-layer metric"
            );
        }

        // The trace is one tree under the workload span, children inside
        // their parents, and self times add up to the root.
        let spans = tracer.spans();
        assert_eq!(spans[0].name, "workload");
        assert_eq!(spans.iter().filter(|s| s.parent.is_none()).count(), 1);
        for s in spans {
            assert!(s.start_ns <= s.end_ns);
            if let Some(p) = s.parent {
                assert!(p < s.id);
                assert!(spans[p].start_ns <= s.start_ns && s.end_ns <= spans[p].end_ns);
            }
        }
        let own: u64 = tracer.self_times_ns().iter().sum();
        let root = spans[0].duration_ns();
        assert!(
            own.abs_diff(root) * 50 <= root,
            "{name}: self times {own} vs root {root}"
        );
        for expected in [
            "frontend",
            "compile",
            "build",
            "run_oneshot",
            "apply_mutations",
            "run_incremental",
            "check",
        ] {
            assert!(tracer.total_ns(expected) > 0, "{name}: no {expected} span");
        }
        if spec.durable {
            assert!(tracer.total_ns("checkpoint") > 0 && tracer.total_ns("recover") > 0);
        }
    }
}

#[test]
fn a_result_that_differs_from_the_oracle_fails_the_operations_since_the_last_check() {
    let spec = Spec {
        corrupt_oracle_check: Some(1),
        ..Spec::tiny("tc-stream").unwrap()
    };
    let (result, _) = run_tiny(&spec, false, "corrupt");
    assert!(!result.correct());
    // Checks fall every four batches: the second one covers four batches.
    assert_eq!(result.ops.failed, 4);
}

#[test]
fn the_flag_and_not_the_clock_fixes_the_number_of_replays() {
    assert_eq!(replays_for(0.0), 3);
    assert_eq!(replays_for(15.0), 5);
    assert_eq!(replays_for(60.0), 20);
}

#[test]
fn a_workload_whose_insert_pool_runs_dry_is_refused() {
    let spec = Spec {
        timed_batches: 400,
        ..Spec::tiny("tc-stream").unwrap()
    };
    let err = itg_perfbench::replay::History::generate(&spec, 7)
        .err()
        .expect("RMAT_10 holds back about a hundred edges");
    assert!(err.contains("insert pool exhausted"), "{err}");
}

#[test]
fn the_same_seed_draws_the_same_history() {
    let spec = Spec::tiny("bfs-churn").unwrap();
    let a = itg_perfbench::replay::History::generate(&spec, 7).unwrap();
    let b = itg_perfbench::replay::History::generate(&spec, 7).unwrap();
    let c = itg_perfbench::replay::History::generate(&spec, 8).unwrap();
    assert_eq!(a.input.edges, b.input.edges);
    assert_eq!(a.batches, b.batches);
    assert_ne!(a.batches, c.batches);
}
