//! Golden pins of the superstep driver's observable behaviour, so a change
//! to the driver is held against the *previous* code rather than against
//! itself (the equivalence suites compare two configurations of one
//! build). Each case runs one built-in program over a fixed small RMAT
//! history — one-shot, an insert batch, a delete-heavy batch, a mixed batch
//! with vertex growth — on the Local plane, and after every run folds into
//! an FNV-1a hash: `state_image()`, `superstep_counts()`, and the run's
//! `io.walks_enumerated`, `io.net_bytes` and `recomputed_vertices`.
//!
//! The pinned run is single-threaded (`state_image()` serializes the
//! thread count); a second session at four threads must reproduce its
//! dynamic image and counters, so the pins hold at every
//! `ITG_THREADS_PER_MACHINE`. Regenerate with `ITG_BLESS=1 cargo test -p
//! itg-engine --test driver_golden -- --nocapture` and paste the table.
//!
//! Also here: the metamorphic relation "one-shot on G ≡ one-shot on the
//! empty graph, then G as one insert batch" (ROADMAP item 2 (i)).

mod common;

use common::{attr_names, mk_config, rmat_history, small_rmat, ALGOS, RMAT_N};
use itg_algorithms::programs;
use itg_engine::{GraphInput, RunMetrics, Session, SessionBuilder};
use itg_gsa::{Value, VertexId};
use itg_store::{EdgeMutation, MutationBatch};

/// `(program, machines, hash after one-shot and after each batch)`.
const GOLDEN: [(&str, usize, [u64; 4]); 12] = [
    ("pr", 1, [0xa5ea6fd7d7ed00c6, 0x29123221895ecd33, 0x4c967f1896a66820, 0x603a1da0d2deef67]),
    ("pr", 2, [0xc5d8525d5f7f671b, 0xca74bd8c523d0043, 0x3f11c78df7d4e782, 0x09ca70c3a6236816]),
    ("lp", 1, [0xa6d08c5597522f42, 0xf5c1eb55f2176ed4, 0x6f6f3343db7e3bff, 0xd6f4ee6e4561e0a1]),
    ("lp", 2, [0x3d08ac83ed603f4d, 0x8624e3ea536a9d47, 0x5ae7251178c87f2f, 0xc68dd492bcdbbbcf]),
    ("wcc", 1, [0x0ce71c00d69a8619, 0x0736e43d655f22f9, 0x7ea20767b3767e13, 0x0ccbd83669a7c622]),
    ("wcc", 2, [0x4dba1b625a7f37c9, 0xc5fa1616555e006c, 0x40ee1279bef8197d, 0xa4637d084dc056ce]),
    ("bfs", 1, [0x02d3d3c1de589d33, 0x8ddcc85115371c50, 0xb78e26b72b1e449a, 0xc86b6db5b7c6cb55]),
    ("bfs", 2, [0x331073e499075f04, 0x3a241167fce03ce3, 0xa0cc54dc042a14b4, 0xb80c3a4c829ed224]),
    ("tc", 1, [0xfee330b840c73f7f, 0xc31ff478e101c138, 0x1b8fd318ae76f874, 0xa1477c5a95b449e4]),
    ("tc", 2, [0x064b3950556e94e0, 0x004bf3fb8e04fb4a, 0x9d7a3452ca34bbf3, 0x122b5d814f7a49ad]),
    ("lcc", 1, [0x5e93a2f866aaa18f, 0xc3381ea881ad0389, 0xd2b3c6a0dab795e0, 0x7370270221e28bfa]),
    ("lcc", 2, [0x01a34a1aa5b147ca, 0xabd1ea625cb5e6dc, 0x4aeea678d1332c2b, 0xb6d39f933aa5ed1b]),
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
    for (algo, machines, want) in GOLDEN {
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        let mut got = Vec::new();
        let mut serial: Vec<(RunPin, Vec<u8>)> = Vec::new();
        drive(algo, machines, 1, |sess, m| {
            let p = pin(sess, m);
            fnv1a(&mut hash, &sess.state_image());
            for &s in &p.supersteps {
                fnv1a(&mut hash, &(s as u64).to_le_bytes());
            }
            for c in [p.walks, p.net_bytes, p.recomputed] {
                fnv1a(&mut hash, &c.to_le_bytes());
            }
            got.push(hash);
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
        if bless {
            let pins: Vec<&RunPin> = serial.iter().map(|(p, _)| p).collect();
            let got: Vec<String> = got.iter().map(|h| format!("{h:#018x}")).collect();
            println!("    (\"{algo}\", {machines}, [{}]), // {pins:?}", got.join(", "));
        } else if got != want {
            let pins: Vec<&RunPin> = serial.iter().map(|(p, _)| p).collect();
            failures.push(format!("{algo} m={machines}: got {got:#018x?}, pinned {want:#018x?}\n  {pins:?}"));
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
