//! Scatter ≡ walker, with no knob to turn the scatter off: the one-hop
//! programs PR, LP, WCC and BFS compile to `scatter` walk queries, whose
//! starts fold their whole neighbour run with one lane call per action;
//! each gets a twin whose hop carries the tautological constraint
//! `v >= 0`, which keeps it unmarked, so the twin enumerates walk by walk
//! through the DFS. Both run one-shot plus a history with deletes (BFS
//! recomputes through the filtered scatter) on one and three machines at
//! one and four threads, and must agree after every run on the dynamic
//! state image (the full `state_image()` leads with the program source,
//! which differs by the constraint), supersteps, recomputes, walks,
//! emitted contributions and net bytes.

mod common;

use common::{build_workload, mk_config, mk_input, MutationMode, Scenario};
use itg_algorithms::programs;
use itg_engine::{RunMetrics, SessionBuilder};

/// The program with the tautological constraint on its one hop.
fn twin(src: &str) -> String {
    let hop = ["For v in u.out_nbrs {", "For v in u.nbrs {"]
        .into_iter()
        .find(|h| src.contains(h))
        .expect("a one-hop program");
    src.replace(hop, &hop.replace(" {", " Where (v >= 0) {"))
}

/// What one run leaves that the two paths must agree on.
#[derive(Debug, PartialEq)]
struct Seen {
    state: Vec<u8>,
    supersteps: usize,
    recomputed: u64,
    walks: u64,
    contribs: u64,
    net_bytes: u64,
}

fn seen(sess: &itg_engine::Session, m: &RunMetrics) -> Seen {
    let profile = m.profile.as_ref().expect("a profile");
    let contribs = ["oneshot/contribs", "delta/contribs"].map(|c| profile.counter_total(c));
    Seen {
        state: sess.dynamic_state_image(),
        supersteps: m.supersteps,
        recomputed: m.recomputed_vertices,
        walks: m.io.walks_enumerated,
        contribs: contribs.iter().sum(),
        net_bytes: m.io.net_bytes,
    }
}

/// One-shot plus every batch of `sc`'s history; `scatter` says how the
/// program's one query must be marked.
fn run(src: &str, sc: &Scenario, scatter: bool) -> Vec<Seen> {
    let (base, batches) = build_workload(sc);
    let mut cfg = mk_config(sc.algo, sc.machines, sc.threads);
    cfg.obs = itg_obs::Recorder::enabled();
    let input = mk_input(sc.algo, &base);
    let mut sess = SessionBuilder::from_config(cfg).from_source(src, &input).unwrap();
    let queries = &sess.program.traverse.queries;
    assert!(queries.iter().all(|q| q.scatter == scatter), "{}: scatter={scatter}", sc.algo);
    let one = sess.run_oneshot();
    let mut out = vec![seen(&sess, &one)];
    for b in &batches {
        sess.apply_mutations(b);
        let m = sess.run_incremental();
        out.push(seen(&sess, &m));
    }
    out
}

#[test]
fn scatter_matches_the_walker_on_the_one_hop_programs() {
    let mut bfs_recomputed = 0;
    for algo in ["pr", "lp", "wcc", "bfs"] {
        let src = programs::source(algo).expect("a builtin");
        let walker = twin(&src);
        for (machines, threads) in [(1, 1), (1, 4), (3, 1), (3, 4)] {
            let sc = Scenario {
                algo,
                machines,
                threads,
                seed: 49,
                batches: 4,
                batch_size: 12,
                mutation_mode: MutationMode::Uniform,
            };
            let (fast, slow) = (run(&src, &sc, true), run(&walker, &sc, false));
            for (i, (f, s)) in fast.iter().zip(&slow).enumerate() {
                assert_eq!(f, s, "{algo} at {machines} machines, {threads} threads, run {i}");
            }
            if algo == "bfs" {
                bfs_recomputed += fast.iter().map(|s| s.recomputed).sum::<u64>();
            }
        }
    }
    assert!(bfs_recomputed > 0, "the history must make BFS recompute");
}
