//! Lane equivalence: every admitted `(op, prim)` accumulator pair folds by
//! its own typed lane, and the results are pinned against the code that
//! predates the lane table (when `int`, `float`, PROD and boolean MIN/MAX
//! accumulators, every exchange merge and every global reduction still
//! folded `Value`s).
//!
//! Each case — the integer builtins (PR, WCC, BFS), the f64 sum/min and
//! boolean OR programs, long PROD with MAX, and one program per newly
//! typed pair, each declaring the pair as a vertex *and* as a global
//! accumulator — runs one-shot plus a 3-batch incremental history. After
//! every run an FNV-1a hash of `dynamic_state_image()` (partition stores,
//! working arrays, globals history, superstep counts) is folded; the
//! hashes must equal the pinned table on two machines at one and at four
//! threads, and a second pinned table on the process transport. Regenerate
//! with `ITG_BLESS=1 cargo test -p itg-engine --test lane_equivalence --
//! --nocapture` and paste the table — only for a move you can explain.
//!
//! One more leg pins nothing: for the float SUM and PROD cases, four
//! machines on two worker processes must give the attribute columns and
//! globals four machines give in one process.

mod common;

use common::{build_workload, MutationMode, Scenario, N, PROD_MAX};
use itg_algorithms::programs;
use itg_engine::{ClusterSpec, EngineConfig, GraphInput, Session, SessionBuilder, TransportKind};
use itg_gsa::Value;
use itg_store::MutationBatch;

/// `(case, local hashes at threads 1 and 4, process-transport hashes)`,
/// one hash after the one-shot and after each batch.
type Golden = (&'static str, [u64; 4], [u64; 4]);

const GOLDEN: [Golden; 15] = [
    (
        "pr",
        [0x428b009a56035363, 0xa0d38d4959b484de, 0x9ca6c7faa488fb48, 0x22ba07eba9cecb07],
        [0x3f0e2b294e5fa4e5, 0x116f834d24f5b21b, 0xade283acde0ac577, 0xfc69cd363b2e4732],
    ),
    (
        "wcc",
        [0x39e19f7a732f6a3f, 0x7bc463dc282a377c, 0x7c248507a0b872cb, 0x39c234f98fe41b86],
        [0x84a8c5adf4586d52, 0x2294da5a1f6fb76b, 0x2de3d7c2ecf7bcfc, 0x4e6efe9a1ea6f285],
    ),
    (
        "bfs",
        [0x1058ed91470c96ce, 0xde7b30528d226885, 0xea2793c4b237c62e, 0x9863a638f776dd94],
        [0x6b233cabf5d17ae1, 0x01030b9d409c5155, 0x2c8d14b52edc3901, 0x478969e394e9ab1a],
    ),
    (
        "double_sum",
        [0x480de2ef66d955cc, 0x16b42d3328ce3e9a, 0x1d223ec42bd43f3d, 0xda0cee9f16fd945e],
        [0x042dc60f3682e53b, 0x1c19454de25b7e42, 0x04ebdc869a7e2c25, 0xddfe312cba2074e0],
    ),
    (
        "double_min",
        [0x4347e3d858ca2f70, 0xa22cb4e498eb8c1d, 0x080facf4c62275e8, 0x9a4591fa19265d62],
        [0xf99c2f30f02c8a4c, 0x41948b0925763e3e, 0x28684d2244fcd4d0, 0x0580bf84566a16e0],
    ),
    (
        "bool_or",
        [0x15f386ac566bb653, 0x5cb1760288bb3cd3, 0x40cc8b6d45870461, 0x3bd8a7e967ed699e],
        [0xafd8543def3eeada, 0x7124a2ffbeb91947, 0x0308ea9762c97418, 0xa66c7621aa347fad],
    ),
    (
        "prod_max",
        [0xdf4ff9d485f2832b, 0x2f024e3a1658f32d, 0xf86ad9ffa41eb8d8, 0x8dc8602a45811007],
        [0x5e55983f76dfa97e, 0x69c500aae6c6df54, 0x619ce0a86bda4a3d, 0x805af72d5bafafaf],
    ),
    (
        "int_sum",
        [0xe40b26b0bfdacf33, 0x0ed26868c533ea48, 0x403ebf2522306b8f, 0x52e822b37c4a53eb],
        [0x0a789684d3ebea48, 0x7f6b1c72c755c3ce, 0xa0dd2c83a1b3d6e4, 0x62cb0752f2065561],
    ),
    (
        "float_sum",
        [0x03e05bfdf5fdea94, 0x1bf07ac73f087656, 0xdc1565740c1c5ba2, 0xf92e58834d57bdc2],
        [0x8b23e9358c887866, 0xe0653ce3d3f32017, 0xf22bb0d6fb80b024, 0x83af8b4436957515],
    ),
    (
        "float_prod",
        [0x14c73e73a50d9dae, 0x12b60104237c9c49, 0xe4cc29f0a5eba410, 0x604624375f86381b],
        [0xd8cdc64b2e356b99, 0xa09189b20a3e80b8, 0xb4e450ecff93c05a, 0x391987463cacb807],
    ),
    (
        "double_prod",
        [0x72bef524325d24eb, 0x9dbe6f221dd8398f, 0xd625b436d4242f7a, 0xc58f9eb2833cb068],
        [0xc134eb9f83e3ffdb, 0x0dcfe235fcc206f4, 0x3ba16b436f8f1577, 0x35dbcb741f4791ac],
    ),
    (
        "int_min",
        [0x5ed16ebd4e2af8db, 0x030403f367a6a5e0, 0xfca4fc877ffc2c26, 0xd7470ab8af5b672b],
        [0x2b0695e59428befc, 0x86d9c9eec836450f, 0x9a2f5fabe5c22977, 0x11914c215b20e289],
    ),
    (
        "float_max",
        [0xc2656063ec7f61dc, 0x108ff9d9a873dec9, 0xf3658a8b93b3a36f, 0xfc18875268e6ab3c],
        [0x1ba3e1c89019696a, 0xb335ef666af7a77c, 0x65d3da1e65b1d318, 0xee6f7b5ee9955246],
    ),
    (
        "bool_min",
        [0x5504afcaff053a13, 0x3fe9881bd08a20b7, 0xdb3ec1036f1d55db, 0xfc9767a71345d6ea],
        [0xb064d80242f09926, 0x931d0332364833fe, 0x135c7a5e9e8344ea, 0xa96199a706f0b5d6],
    ),
    (
        "bool_max",
        [0x862e0f8f03413f37, 0x44fa788b15af212f, 0x60a79c30d61a71a4, 0x5e451d03dea82725],
        [0x300c3af485578996, 0xef812a287d7fc75b, 0xee89b395ba4cd70d, 0xd7ce1b7a7a1a073e],
    ),
];

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

/// `int` SUM: the ids scaled past 2^31, so both the walk values and the
/// sums wrap.
const INT_SUM: &str = r#"
    Vertex (id, active, nbrs, x: int, s: Accm<int, SUM>)
    GlobalVariable (g: Accm<int, SUM>)
    Initialize (u): {
        u.x = u.id * 300000007;
        u.active = true;
    }
    Traverse (u): {
        For v in u.nbrs {
            v.s.Accumulate(u.x);
            g.Accumulate(u.x);
        }
    }
    Update (u): {
        If (u.s != u.x) {
            u.x = u.s + g % 7;
            u.active = true;
        }
    }
"#;

/// `float` SUM: a PageRank shape rounded to f32 after every addition,
/// with negative seeds.
const FLOAT_SUM: &str = r#"
    Vertex (id, active, nbrs, w: float, s: Accm<float, SUM>)
    GlobalVariable (g: Accm<float, SUM>)
    Initialize (u): {
        u.w = u.id * 0.1 - 1.5;
        u.active = true;
    }
    Traverse (u): {
        For v in u.nbrs {
            v.s.Accumulate(u.w * 0.3);
            g.Accumulate(u.w);
        }
    }
    Update (u): {
        Let val = 0.15 + 0.85 * u.s + g * 0.001;
        If (Abs(val - u.w) > 0.0001) {
            u.w = val;
            u.active = true;
        }
    }
"#;

/// `float` PROD: factors 0 (no inverse: recompute), 0.75 (an inexact
/// reciprocal) and 1.5.
const FLOAT_PROD: &str = r#"
    Vertex (id, active, nbrs, p: float, m: Accm<float, PROD>)
    GlobalVariable (g: Accm<float, PROD>)
    Initialize (u): {
        u.p = 1.0;
        u.active = true;
    }
    Traverse (u): {
        For v in u.nbrs {
            v.m.Accumulate((u.id % 3) * 0.75 * u.p);
            g.Accumulate(1.0 + (u.id % 2) * 0.1);
        }
    }
    Update (u): {
        If (u.m != u.p) {
            u.p = u.m;
            u.active = true;
        }
    }
"#;

/// `double` PROD: factors −0.5, 0, 0.5 and 1.
const DOUBLE_PROD: &str = r#"
    Vertex (id, active, nbrs, p: double, m: Accm<double, PROD>)
    GlobalVariable (g: Accm<double, PROD>)
    Initialize (u): {
        u.p = 1.0;
        u.active = true;
    }
    Traverse (u): {
        For v in u.nbrs {
            v.m.Accumulate(((u.id % 4) * 0.5 - 0.5) * u.p);
            g.Accumulate(1.0 - (u.id % 3) * 0.1);
        }
    }
    Update (u): {
        If (u.m != u.p) {
            u.p = u.m;
            u.active = true;
        }
    }
"#;

/// `int` MIN: BFS from vertex 0 in `int`, and the least `d - id`.
const INT_MIN: &str = r#"
    Vertex (id, active, nbrs, d: int, m: Accm<int, MIN>)
    GlobalVariable (g: Accm<int, MIN>)
    Initialize (u): {
        If (u.id == 0) {
            u.d = 0;
            u.active = true;
        } Else {
            u.d = 1000000;
        }
    }
    Traverse (u): {
        For v in u.nbrs {
            v.m.Accumulate(u.d + 1);
            g.Accumulate(u.d - u.id);
        }
    }
    Update (u): {
        If (u.m < u.d) {
            u.d = u.m;
            u.active = true;
        }
    }
"#;

/// `float` MAX: a damped largest-seed spread.
const FLOAT_MAX: &str = r#"
    Vertex (id, active, nbrs, hi: float, x: Accm<float, MAX>)
    GlobalVariable (g: Accm<float, MAX>)
    Initialize (u): {
        u.hi = u.id * 0.37;
        u.active = true;
    }
    Traverse (u): {
        For v in u.nbrs {
            v.x.Accumulate(u.hi * 0.9);
            g.Accumulate(u.hi);
        }
    }
    Update (u): {
        If (u.x > u.hi) {
            u.hi = u.x;
            u.active = true;
        }
    }
"#;

/// `bool` MIN: a vertex turns false once any neighbour is false.
const BOOL_MIN: &str = r#"
    Vertex (id, active, nbrs, ok: bool, m: Accm<bool, MIN>)
    GlobalVariable (g: Accm<bool, MIN>)
    Initialize (u): {
        u.ok = u.id % 5 != 0;
        u.active = true;
    }
    Traverse (u): {
        For v in u.nbrs {
            v.m.Accumulate(u.ok);
            g.Accumulate(u.ok);
        }
    }
    Update (u): {
        If (u.ok && !u.m) {
            u.ok = false;
            u.active = true;
        }
    }
"#;

/// `bool` MAX: reachability from vertex 0.
const BOOL_MAX: &str = r#"
    Vertex (id, active, nbrs, seen: bool, f: Accm<bool, MAX>)
    GlobalVariable (g: Accm<bool, MAX>)
    Initialize (u): {
        u.seen = u.id == 0;
        u.active = u.id == 0;
    }
    Traverse (u): {
        For v in u.nbrs {
            v.f.Accumulate(u.seen);
            g.Accumulate(u.seen && u.id > 20);
        }
    }
    Update (u): {
        If (u.f && !u.seen) {
            u.seen = true;
            u.active = true;
        }
    }
"#;

/// `double` expressions into `long` SUM, `int` MAX and a `long` SUM
/// global, every value fractional and some negative: the lowering casts
/// each to its accumulator's primitive, truncating toward zero, so a lane
/// folds the bits that cast made — pinned on the code whose lanes lifted a
/// `Value` instead.
const LONG_FROM_DOUBLE: &str = r#"
    Vertex (id, active, nbrs, x: long, s: Accm<long, SUM>, hi: Accm<int, MAX>)
    GlobalVariable (g: Accm<long, SUM>)
    Initialize (u): {
        u.x = u.id;
        u.active = true;
    }
    Traverse (u): {
        For v in u.nbrs {
            v.s.Accumulate(u.x * 0.7 - 1.25);
            v.hi.Accumulate(u.x * 1.9 - 3.5);
            g.Accumulate(u.x * 0.45 + 0.3);
        }
    }
    Update (u): {
        Let next = (u.s + u.hi) % 11;
        If (next != u.x) {
            u.x = next;
            u.active = true;
        }
    }
"#;

/// [`LONG_FROM_DOUBLE`]'s pins, as [`GOLDEN`]'s.
const LONG_FROM_DOUBLE_GOLDEN: Golden = (
    "long_from_double",
    [0x299da98a86cf8c86, 0x76632f8afcfe9c13, 0xfca6400ab14cfef8, 0x3f88759a09241f61],
    [0xadaa20eba04db9da, 0x5181f14e68ee2415, 0x6475c435b0016bdd, 0x43f1928bf813e739],
);

struct Case {
    name: &'static str,
    src: String,
    undirected: bool,
    max_ss: usize,
}

fn cases() -> Vec<Case> {
    let case = |name, src: &str, max_ss| Case {
        name,
        src: src.to_string(),
        undirected: true,
        max_ss,
    };
    let builtin = |name: &'static str, undirected, max_ss| Case {
        name,
        src: programs::source(name).unwrap(),
        undirected,
        max_ss,
    };
    vec![
        builtin("pr", false, 10),
        builtin("wcc", true, usize::MAX),
        builtin("bfs", true, usize::MAX),
        case("double_sum", DOUBLE_SUM, 6),
        case("double_min", DOUBLE_MIN, usize::MAX),
        case("bool_or", BOOL_OR, usize::MAX),
        case("prod_max", PROD_MAX, usize::MAX),
        case("int_sum", INT_SUM, 5),
        case("float_sum", FLOAT_SUM, 6),
        case("float_prod", FLOAT_PROD, 4),
        case("double_prod", DOUBLE_PROD, 4),
        case("int_min", INT_MIN, usize::MAX),
        case("float_max", FLOAT_MAX, usize::MAX),
        case("bool_min", BOOL_MIN, usize::MAX),
        case("bool_max", BOOL_MAX, usize::MAX),
    ]
}

fn workload() -> (Vec<(u64, u64)>, Vec<MutationBatch>) {
    build_workload(&Scenario {
        algo: "pr",
        machines: 2,
        threads: 1,
        seed: 0xC0FFEE,
        batches: 3,
        batch_size: 8,
        mutation_mode: MutationMode::HotVertex,
    })
}

fn fnv1a(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash ^= b as u64;
        *hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

/// One-shot, then the batches, on `machines` machines: `observe` after
/// every run.
fn runs<T>(
    case: &Case,
    machines: usize,
    threads: usize,
    transport: TransportKind,
    observe: impl Fn(&Session) -> T,
) -> Vec<T> {
    let (base, batches) = workload();
    let mut input = if case.undirected {
        GraphInput::undirected(base)
    } else {
        GraphInput::directed(base)
    };
    input.num_vertices = N;
    let mut sess: Session = SessionBuilder::from_config(EngineConfig::default())
        .machines(machines)
        .threads(threads)
        .transport(transport)
        .max_supersteps(case.max_ss)
        .from_source(&case.src, &input)
        .unwrap_or_else(|e| panic!("{}: {e}", case.name));
    sess.run_oneshot();
    let mut out = vec![observe(&sess)];
    for batch in &batches {
        sess.apply_mutations(batch);
        sess.run_incremental();
        out.push(observe(&sess));
    }
    out
}

/// The running hash of the dynamic state image after every run, on two
/// machines.
fn transcript(case: &Case, threads: usize, transport: TransportKind) -> [u64; 4] {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let images = runs(case, 2, threads, transport, Session::dynamic_state_image);
    let hashes: Vec<u64> = images
        .iter()
        .map(|image| {
            fnv1a(&mut hash, image);
            hash
        })
        .collect();
    hashes.try_into().expect("one-shot plus three batches")
}

/// Each case's transcript on every leg, against its row of `table`
/// (`pinned` picks the column).
fn check(
    cases: Vec<Case>,
    table: &[Golden],
    legs: &[(&str, usize, TransportKind)],
    pinned: fn(&Golden) -> [u64; 4],
) {
    let bless = std::env::var_os("ITG_BLESS").is_some();
    let mut failures = Vec::new();
    for (case, row) in cases.into_iter().zip(table) {
        assert_eq!(row.0, case.name, "the table follows the cases");
        let mut first = None;
        for (leg, threads, transport) in legs {
            let got = transcript(&case, *threads, transport.clone());
            let want = *first.get_or_insert(got);
            assert_eq!(got, want, "{}: the {leg} leg diverged", case.name);
        }
        let got = first.expect("a leg");
        if bless {
            let hex: Vec<String> = got.iter().map(|h| format!("{h:#018x}")).collect();
            println!("    (\"{}\", [{}]),", case.name, hex.join(", "));
        } else if got != pinned(row) {
            failures.push(format!("{}: got {got:#018x?}, pinned {:#018x?}", case.name, pinned(row)));
        }
    }
    assert!(failures.is_empty(), "lane results moved:\n{}", failures.join("\n"));
}

const LOCAL_LEGS: [(&str, usize, TransportKind); 2] =
    [("1-thread", 1, TransportKind::Local), ("4-thread", 4, TransportKind::Local)];

#[test]
fn lanes_reproduce_the_pinned_state_images() {
    check(cases(), &GOLDEN, &LOCAL_LEGS, |g| g.1);
}

#[cfg(unix)]
#[test]
fn lanes_reproduce_the_pinned_state_images_across_the_process_transport() {
    let uds = TransportKind::Cluster(ClusterSpec::uds(2));
    check(cases(), &GOLDEN, &[("process", 1, uds)], |g| g.2);
}

/// [`LONG_FROM_DOUBLE`] on every leg.
#[test]
fn long_from_double() {
    let case = || Case {
        name: "long_from_double",
        src: LONG_FROM_DOUBLE.to_string(),
        undirected: true,
        max_ss: 6,
    };
    let table = [LONG_FROM_DOUBLE_GOLDEN];
    check(vec![case()], &table, &LOCAL_LEGS, |g| g.1);
    #[cfg(unix)]
    {
        let uds = TransportKind::Cluster(ClusterSpec::uds(2));
        check(vec![case()], &table, &[("process", 1, uds)], |g| g.2);
    }
}

/// Every attribute column, then every global.
fn results(sess: &Session) -> Vec<Value> {
    let symbols = &sess.program.symbols;
    let attrs = symbols.attrs.iter().flat_map(|a| sess.attr_column(&a.name).unwrap());
    let globals = symbols.globals.iter().map(|g| sess.global_value(&g.name, None).unwrap());
    attrs.chain(globals).collect()
}

/// Four machines on two worker processes fold each inbox cell in the
/// sender order the local plane folds it in: each rank owns two machines
/// and sees remote frames both before its own senders (rank 1) and after
/// them (rank 0), and a float SUM or PROD does not associate.
#[cfg(unix)]
#[test]
fn float_folds_keep_sender_order_across_a_process_boundary() {
    let float = ["double_sum", "float_sum", "float_prod", "double_prod"];
    for case in cases().iter().filter(|c| float.contains(&c.name)) {
        let local = runs(case, 4, 1, TransportKind::Local, results);
        let uds = runs(case, 4, 1, TransportKind::Cluster(ClusterSpec::uds(2)), results);
        assert_eq!(uds, local, "{}: 4 machines on two processes", case.name);
    }
}
