//! Golden pins of the superstep driver's observable behaviour, so a change
//! to the driver is held against the *previous* code rather than against
//! itself (the equivalence suites compare two configurations of one
//! build). Each case runs one built-in program over a fixed small RMAT
//! history — one-shot, an insert batch, a delete-heavy batch, a mixed batch
//! with vertex growth — on the Local plane, and after every run folds into
//! two FNV-1a hashes: the *state* pin — `state_image()`,
//! `superstep_counts()` and the run's `recomputed_vertices` — and the
//! *work* pin — its `io.walks_enumerated` and `io.net_bytes`. A change to
//! how Δ-walks are enumerated may move the work pin with a reason; the
//! state pin holds every result against the code the table was first
//! blessed on.
//!
//! The pinned run is single-threaded (`state_image()` serializes the
//! thread count); a second session at four threads must reproduce its
//! dynamic image and counters, so the pins hold at every
//! `ITG_THREADS_PER_MACHINE`. Regenerate with `ITG_BLESS=1 cargo test -p
//! itg-engine --test driver_golden -- --nocapture` and paste the table;
//! re-bless a state pin only for a change meant to move results.
//!
//! Also here: the metamorphic relation "one-shot on G ≡ one-shot on the
//! empty graph, then G as one insert batch" (ROADMAP item 2 (i)).

mod common;

use common::{attr_names, mk_config, rmat_history, small_rmat, ALGOS, RMAT_N};
use itg_algorithms::programs;
use itg_engine::{GraphInput, RunMetrics, Session, SessionBuilder};
use itg_gsa::{Value, VertexId};
use itg_store::{EdgeMutation, MutationBatch};

/// `(program, machines, state pin, work pin)`, each hash taken after the
/// one-shot and after each batch.
const GOLDEN: [(&str, usize, [u64; 4], [u64; 4]); 12] = [
    ("pr", 1, [0x3facc7cc4a8bd185, 0xd5260aef7b971cba, 0x867be0b21b7bf9f3, 0x17eb89acfef5b8d0],
        [0xa7b256c3792d5437, 0x23d63a54ded60847, 0xb7e862dd10ea6fa5, 0xaf4a71997f4afba7]),
    ("pr", 2, [0xa8db3b3900a371c3, 0xf4c684405d26554a, 0x677baf79332d7f50, 0x1cc9dccd05eef183],
        [0x9895534964e3c420, 0xbc965d0250d1c1d5, 0x4324ca52ce04a3c1, 0xcf4ff64e9889c0aa]),
    ("lp", 1, [0x273e904f49e16091, 0xf3e15a6160f947a0, 0xba4964548c511040, 0xefcc8f3ecf6db4af],
        [0xaa9a05aeba321a54, 0x421082125e3088dc, 0x50c90d2bcc138fd2, 0xfe845c9dadbf15b6]),
    ("lp", 2, [0xe423a896f97d52af, 0x1a1271a3fd6033e5, 0x13b665af43a690b0, 0x269ebfa6e595e59f],
        [0x39566f3b771ab8db, 0x57f5e5839939165c, 0xd8fd02ff680d31c9, 0x59f3073e43f78be9]),
    ("wcc", 1, [0x2549979d90d24be3, 0xdad8541e2e2d157d, 0xc1532aac2fd4089b, 0x53eca29ecfce1204],
        [0xc70c6980416c31a2, 0x243ff92ed7ef2325, 0xaf36e23162630020, 0x617dcb8fadf80db4]),
    ("wcc", 2, [0x11f0fbbdb7edb27b, 0x3e60184b99513576, 0x9f7e7f1cae248971, 0xebaaf3270a353e38],
        [0xe5955f38e0ca011d, 0xbce9b688b75e1ae6, 0x53426a1e2f83a42a, 0x50c0d4390a7df940]),
    ("bfs", 1, [0xeed6521b2c1d1c9d, 0x2da561b14e049ea2, 0x16ab3c98119d153e, 0x720e921aedd77947],
        [0xa4cb3b9a811b18ea, 0x190e53c57ef06bcc, 0x3762c7d2d0be0832, 0xa71ec8cd6f979c50]),
    ("bfs", 2, [0xe4c1a1164b0a1471, 0x078cf56eea7bd7b6, 0xe524af676819721d, 0xb2fa7da04c149914],
        [0x709d244edbb73d9e, 0xa657bb58aa89e276, 0xab445d02b361b465, 0x7b8182505363500e]),
    ("tc", 1, [0x6d46b5aec3948fd7, 0xd2b86f05b7b57dc3, 0x99a94c983e8eee11, 0xc57e7dc7603984c9],
        [0x1812af6b72a2efb2, 0x359546f99dc6ba2f, 0x281df0834aa313cc, 0x72db588226c56102]),
    ("tc", 2, [0xdc373337c6d0c81f, 0x75a58ebb3efbd12c, 0xf6a59e7b814f61cb, 0x5180967aa3616bd8],
        [0xc8f69557fb328495, 0x5e08117479caec21, 0x9a3295968d49b27c, 0xf2f8413025a84ef3]),
    ("lcc", 1, [0x5c9eff843c0cd95d, 0x34030e37cd25a932, 0x6cbe1bed16d3b5de, 0x0d5c4b15bdad54a8],
        [0xa0a9becf03267562, 0xbbf024754bdd2f19, 0xd653872ff90a9d4e, 0x30a0ccef1d0165a4]),
    ("lcc", 2, [0x98cc1ad299c36bf9, 0x34f8911a6a7d388f, 0xda63131b272acb58, 0xf84b66f6c950d294],
        [0xbed3ed6784d59d41, 0xaeb7d54dc054ec20, 0x4f93bf5667c2ab5a, 0x910edd102f709c85]),
];

fn fnv1a(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash ^= b as u64;
        *hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

fn input(algo: &str, edges: &[(VertexId, VertexId)]) -> GraphInput {
    let mut input = if programs::is_undirected(algo) {
        GraphInput::undirected(edges.to_vec())
    } else {
        GraphInput::directed(edges.to_vec())
    };
    input.num_vertices = RMAT_N;
    input
}

fn session(algo: &str, machines: usize, threads: usize, edges: &[(VertexId, VertexId)]) -> Session {
    SessionBuilder::from_config(mk_config(algo, machines, threads))
        .from_source(&programs::source(algo).unwrap(), &input(algo, edges))
        .expect("built-in program compiles")
}

/// What one run contributes to the pin, readable when a pin fails.
#[derive(Debug, PartialEq)]
struct RunPin {
    supersteps: Vec<usize>,
    walks: u64,
    net_bytes: u64,
    recomputed: u64,
}

fn pin(sess: &Session, m: &RunMetrics) -> RunPin {
    RunPin {
        supersteps: sess.superstep_counts().to_vec(),
        walks: m.io.walks_enumerated,
        net_bytes: m.io.net_bytes,
        recomputed: m.recomputed_vertices,
    }
}

/// Drive the history; after each run hand `(session, metrics)` to `see`.
fn drive(algo: &str, machines: usize, threads: usize, mut see: impl FnMut(&Session, &RunMetrics)) {
    let (base, batches) = rmat_history();
    let mut sess = session(algo, machines, threads, &base);
    let m = sess.run_oneshot();
    see(&sess, &m);
    for batch in &batches {
        sess.apply_mutations(batch);
        let m = sess.run_incremental();
        see(&sess, &m);
    }
}

#[test]
fn driver_matches_the_pinned_behaviour() {
    let bless = std::env::var_os("ITG_BLESS").is_some();
    let mut failures = Vec::new();
    for (algo, machines, want_state, want_work) in GOLDEN {
        let (mut state, mut work) = (0xcbf2_9ce4_8422_2325u64, 0xcbf2_9ce4_8422_2325u64);
        let (mut got_state, mut got_work) = (Vec::new(), Vec::new());
        let mut serial: Vec<(RunPin, Vec<u8>)> = Vec::new();
        drive(algo, machines, 1, |sess, m| {
            let p = pin(sess, m);
            fnv1a(&mut state, &sess.state_image());
            for &s in &p.supersteps {
                fnv1a(&mut state, &(s as u64).to_le_bytes());
            }
            fnv1a(&mut state, &p.recomputed.to_le_bytes());
            for c in [p.walks, p.net_bytes] {
                fnv1a(&mut work, &c.to_le_bytes());
            }
            got_state.push(state);
            got_work.push(work);
            serial.push((p, sess.dynamic_state_image()));
        });
        let mut run = 0;
        drive(algo, machines, 4, |sess, m| {
            assert_eq!(pin(sess, m), serial[run].0, "{algo} m={machines} run {run}: 4 threads");
            assert!(
                sess.dynamic_state_image() == serial[run].1,
                "{algo} m={machines} run {run}: dynamic image differs at 4 threads"
            );
            run += 1;
        });
        let pins: Vec<&RunPin> = serial.iter().map(|(p, _)| p).collect();
        if bless {
            let hex = |hs: &[u64]| hs.iter().map(|h| format!("{h:#018x}")).collect::<Vec<_>>();
            let (st, wk) = (hex(&got_state).join(", "), hex(&got_work).join(", "));
            println!("    // {pins:?}\n    (\"{algo}\", {machines}, [{st}],\n        [{wk}]),");
        } else {
            if got_state != want_state {
                failures.push(format!(
                    "{algo} m={machines} state: got {got_state:#018x?}, pinned {want_state:#018x?}"
                ));
            }
            if got_work != want_work {
                failures.push(format!(
                    "{algo} m={machines} work: got {got_work:#018x?}, pinned {want_work:#018x?}\n  {pins:?}"
                ));
            }
        }
    }
    assert!(failures.is_empty(), "driver behaviour moved:\n{}", failures.join("\n"));
}

/// Attribute columns and final-superstep globals, as comparable values.
fn results(algo: &str, sess: &Session) -> Vec<Value> {
    let mut out = Vec::new();
    for attr in attr_names(algo) {
        out.extend(sess.attr_column(attr).unwrap());
    }
    if algo == "tc" {
        out.push(sess.global_value("cnts", None).unwrap());
    }
    out
}

/// Relation (i): a one-shot run on `G` equals a one-shot run on the empty
/// graph followed by all of `G` as one insert batch. Exact for the integer
/// programs, 1e-9 for floating-point values.
#[test]
fn oneshot_equals_empty_graph_plus_one_insert_batch() {
    let edges = small_rmat();
    let all = MutationBatch::new(edges.iter().map(|e| EdgeMutation::insert(e.0, e.1)).collect());
    for algo in ALGOS {
        for machines in [1, 2] {
            let mut direct = session(algo, machines, 1, &edges);
            direct.run_oneshot();
            let mut grown = session(algo, machines, 1, &[]);
            grown.run_oneshot();
            grown.apply_mutations(&all);
            grown.run_incremental();
            let (a, b) = (results(algo, &direct), results(algo, &grown));
            assert_eq!(a.len(), b.len());
            for (i, (x, y)) in a.iter().zip(&b).enumerate() {
                let same = match (x, y) {
                    (Value::Double(x), Value::Double(y)) => (x - y).abs() <= 1e-9,
                    _ => x == y,
                };
                assert!(same, "{algo} m={machines}: result {i} is {x:?} one-shot, {y:?} grown");
            }
        }
    }
}
