//! Specialization equivalence: every specialized accumulate lane must be a
//! byte-identical drop-in for the generic `Value` path.
//!
//! For each case — the integer builtins (PR, WCC, BFS) plus custom
//! programs covering the f64 sum/min lanes and the 1-byte boolean OR lane
//! — the suite runs one-shot plus a 3-batch incremental history under
//! every leg of {generic, specialized} × threads {1, 4}, and requires the
//! dynamic state image (partition stores, globals history, superstep
//! counts — everything except the configuration prefix) to be
//! byte-identical across all legs. A unix-gated companion does the same
//! across the process transport.
//!
//! Also the lane guard: the six builtin evaluation programs must never
//! select the Generic lane when specialization is on (CI runs this by
//! name in the `specialization` job).

mod common;

use common::{build_workload, MutationMode, Scenario, N, PROD_MAX};
use itg_algorithms::programs;
use itg_engine::{ClusterSpec, EngineConfig, GraphInput, Session, SessionBuilder, TransportKind};
use itg_gsa::Value;
use itg_store::MutationBatch;

/// Each vertex keeps 15% seed mass and absorbs damped neighbor mass —
/// a float PageRank shape exercising the f64 sum lane (including the
/// bitwise `0.0 - v` retraction identity).
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

/// Fractional-weight SSSP from vertex 0 — the f64 min lane, whose ties
/// must keep the incumbent bit pattern exactly like `Value::total_cmp`.
const DOUBLE_MIN: &str = r#"
    Vertex (id, active, nbrs, d: double, m: Accm<double, MIN>)
    Initialize (u): {
        If (u.id == 0) {
            u.d = 0.0;
            u.active = true;
        } Else {
            u.d = 1000000.0;
        }
    }
    Traverse (u): {
        For v in u.nbrs {
            v.m.Accumulate(u.d + 1.5);
        }
    }
    Update (u): {
        If (u.m < u.d) {
            u.d = u.m;
            u.active = true;
        }
    }
"#;

/// Reachability from vertex 0 — the boolean OR frontier lane.
const BOOL_OR: &str = r#"
    Vertex (id, active, nbrs, seen: bool, f: Accm<bool, OR>)
    Initialize (u): {
        If (u.id == 0) {
            u.seen = true;
            u.active = true;
        } Else {
            u.seen = false;
        }
    }
    Traverse (u): {
        For v in u.nbrs {
            v.f.Accumulate(u.seen);
        }
    }
    Update (u): {
        If (u.f && !u.seen) {
            u.seen = true;
            u.active = true;
        }
    }
"#;

struct Case {
    name: &'static str,
    src: String,
    undirected: bool,
    attrs: &'static [&'static str],
    max_ss: usize,
}

fn cases() -> Vec<Case> {
    vec![
        Case {
            name: "pr",
            src: programs::source("pr").unwrap(),
            undirected: false,
            attrs: &["rank"],
            max_ss: 10,
        },
        Case {
            name: "wcc",
            src: programs::source("wcc").unwrap(),
            undirected: true,
            attrs: &["comp"],
            max_ss: usize::MAX,
        },
        Case {
            name: "bfs",
            src: programs::source("bfs").unwrap(),
            undirected: true,
            attrs: &["dist"],
            max_ss: usize::MAX,
        },
        Case {
            name: "double_sum",
            src: DOUBLE_SUM.to_string(),
            undirected: true,
            attrs: &["w"],
            max_ss: 6,
        },
        Case {
            name: "double_min",
            src: DOUBLE_MIN.to_string(),
            undirected: true,
            attrs: &["d"],
            max_ss: usize::MAX,
        },
        Case {
            name: "bool_or",
            src: BOOL_OR.to_string(),
            undirected: true,
            attrs: &["seen"],
            max_ss: usize::MAX,
        },
        Case {
            name: "prod_max",
            src: PROD_MAX.to_string(),
            undirected: true,
            attrs: &["p", "hi"],
            max_ss: usize::MAX,
        },
    ]
}

fn workload(seed: u64) -> (Vec<(u64, u64)>, Vec<MutationBatch>) {
    build_workload(&Scenario {
        algo: "pr",
        machines: 2,
        threads: 1,
        seed,
        batches: 3,
        batch_size: 8,
        mutation_mode: MutationMode::HotVertex,
    })
}

fn input_for(case: &Case, edges: &[(u64, u64)]) -> GraphInput {
    let mut input = if case.undirected {
        GraphInput::undirected(edges.to_vec())
    } else {
        GraphInput::directed(edges.to_vec())
    };
    input.num_vertices = N;
    input
}

fn session(case: &Case, edges: &[(u64, u64)], threads: usize, specialize: bool) -> Session {
    let mut builder = SessionBuilder::from_config(EngineConfig::default())
        .machines(2)
        .threads(threads)
        .max_supersteps(case.max_ss);
    builder.config_mut().opts.specialize = specialize;
    builder
        .from_source(&case.src, &input_for(case, edges))
        .unwrap_or_else(|e| panic!("{}: {e}", case.name))
}

/// One-shot, then the batches; a dynamic state image after every run.
fn local_transcript(
    case: &Case,
    base: &[(u64, u64)],
    batches: &[MutationBatch],
    threads: usize,
    specialize: bool,
) -> Vec<Vec<u8>> {
    let mut sess = session(case, base, threads, specialize);
    let expect_specialized = specialize;
    // `prod_max`'s first accumulator is `Accm<long, PROD>`, which has no
    // specialized lane; its `MAX` lane follows the flag like every other.
    let no_lane = usize::from(case.name == "prod_max");
    assert!(
        sess.vertex_lanes()[..no_lane]
            .iter()
            .all(|l| !l.is_specialized()),
        "{}: PROD must stay on the generic lane",
        case.name
    );
    assert!(
        sess.vertex_lanes()
            .iter()
            .chain(sess.global_lanes())
            .skip(no_lane)
            .all(|l| l.is_specialized() == expect_specialized),
        "{}: lane selection must follow OptFlags::specialize",
        case.name
    );
    let mut images = Vec::new();
    sess.run_oneshot();
    images.push(sess.dynamic_state_image());
    for batch in batches {
        sess.apply_mutations(batch);
        sess.run_incremental();
        images.push(sess.dynamic_state_image());
    }
    images
}

/// The tentpole property: generic × specialized × threads {1, 4} all
/// produce byte-identical dynamic state images after every run.
#[test]
fn specialized_lanes_are_byte_identical_to_generic() {
    let (base, batches) = workload(0xC0FFEE);
    for case in cases() {
        let reference = local_transcript(&case, &base, &batches, 1, false);
        for (threads, specialize) in [(1, true), (4, false), (4, true)] {
            let leg = local_transcript(&case, &base, &batches, threads, specialize);
            assert_eq!(reference.len(), leg.len());
            for (i, (r, l)) in reference.iter().zip(&leg).enumerate() {
                assert!(
                    r == l,
                    "{}: state image after run {i} diverged \
                     (threads={threads}, specialize={specialize})",
                    case.name
                );
            }
        }
    }
}

/// A second seed with uniform (non-skewed) mutations, single-machine:
/// exercises the owned-everything layout and a different delta shape.
#[test]
fn specialization_is_exact_on_uniform_single_machine_histories() {
    let (base, batches) = build_workload(&Scenario {
        algo: "pr",
        machines: 1,
        threads: 1,
        seed: 0xBEEF,
        batches: 3,
        batch_size: 6,
        mutation_mode: MutationMode::Uniform,
    });
    for case in cases() {
        let generic = local_transcript(&case, &base, &batches, 1, false);
        let specialized = local_transcript(&case, &base, &batches, 1, true);
        assert_eq!(generic, specialized, "{}: diverged", case.name);
    }
}

/// User-visible output per run under one transport leg.
fn transport_transcript(
    case: &Case,
    base: &[(u64, u64)],
    batches: &[MutationBatch],
    transport: TransportKind,
    specialize: bool,
) -> Vec<Vec<(String, Vec<Value>)>> {
    let mut builder = SessionBuilder::from_config(EngineConfig::default())
        .machines(2)
        .parallel(false)
        .transport(transport)
        .max_supersteps(case.max_ss);
    builder.config_mut().opts.specialize = specialize;
    let mut sess = builder
        .from_source(&case.src, &input_for(case, base))
        .unwrap_or_else(|e| panic!("{}: {e}", case.name));
    let snapshot = |sess: &Session| {
        case.attrs
            .iter()
            .map(|a| (a.to_string(), sess.attr_column(a).unwrap()))
            .collect::<Vec<_>>()
    };
    let mut out = Vec::new();
    sess.run_oneshot();
    out.push(snapshot(&sess));
    for batch in batches {
        sess.apply_mutations(batch);
        sess.run_incremental();
        out.push(snapshot(&sess));
    }
    out
}

/// Lane specialization must be invisible across the process transport too:
/// worker processes receive the `specialize` flag in the bootstrap config
/// and agree bit-for-bit with the local plane either way.
#[cfg(unix)]
#[test]
fn specialization_is_exact_across_the_process_transport() {
    let (base, batches) = workload(0xFEED);
    for case in cases() {
        for specialize in [false, true] {
            let local = transport_transcript(&case, &base, &batches, TransportKind::Local, specialize);
            let process = transport_transcript(
                &case,
                &base,
                &batches,
                TransportKind::Cluster(ClusterSpec::pipes(2)),
                specialize,
            );
            assert_eq!(
                local, process,
                "{}: transports diverged (specialize={specialize})",
                case.name
            );
        }
    }
}

/// The lane guard: compiling any of the six builtin evaluation programs
/// must select a specialized lane for every accumulator — vertex and
/// global. A Generic lane here means a hot-path regression.
#[test]
fn builtin_programs_never_select_the_generic_lane() {
    for name in programs::ALL {
        let src = programs::source(name).unwrap();
        let compiled = itg_compiler::compile_source(&src).unwrap();
        let (vertex, global) = compiled.lanes(true);
        assert!(
            !vertex.is_empty() || !global.is_empty(),
            "{name}: expected at least one accumulator"
        );
        for (i, lane) in vertex.iter().enumerate() {
            assert!(
                lane.is_specialized(),
                "{name}: vertex accumulator {i} fell back to the Generic lane"
            );
        }
        for (i, lane) in global.iter().enumerate() {
            assert!(
                lane.is_specialized(),
                "{name}: global accumulator {i} fell back to the Generic lane"
            );
        }
    }
}
