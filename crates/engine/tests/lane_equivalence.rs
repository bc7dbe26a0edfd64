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
//! result images, globals history, superstep counts) is folded; the
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
        [0xa5b5659ca667b05f, 0x42b10026be13e0a1, 0xf361412ab02cd4cc, 0xbd3596c504dd69c8],
        [0xbe98e1ab271fe865, 0x0265cf81fce120bb, 0xaae40f922c6dca97, 0xff37b9cbacc39ef2],
    ),
    (
        "wcc",
        [0x04539d1dff1f8f83, 0xe8b0fca63ea02746, 0x5ece6b3170565f33, 0xebd4f2c9ce7e2598],
        [0xfe3c51b0676e1672, 0xa213cfcacf02666b, 0x9b64812a1507c19c, 0x8c0b4216c7b75b05],
    ),
    (
        "bfs",
        [0x87d63105441eacf6, 0x7ee66b8b656ace4a, 0xcc3f66ebca427f94, 0x2991400729c79c23],
        [0xdc09704732299d01, 0x6461c25ea3756fb5, 0x100e0664c24afea1, 0xa2e709a5c3e534da],
    ),
    (
        "double_sum",
        [0x80bf36611ad2b72d, 0x8773c4d94e990a17, 0x0566d6419336ef70, 0x261a05ee48618c3f],
        [0x7dfe70188188743b, 0xfc9651d84197e382, 0xb21e90367d5146c5, 0xb3d6a49b5ca7c8c0],
    ),
    (
        "double_min",
        [0x950181911aa2e893, 0x82d8488bd37285f5, 0xd9f61978f1931cf6, 0x9e0f7dffe204da36],
        [0x823ab77c40bf28ac, 0xa4ffd898dddd9b1e, 0xbf7f11dc9b7f80b0, 0x3b148986f8668780],
    ),
    (
        "bool_or",
        [0x155cb410ecfa4be6, 0x73c02a46dfb01009, 0xdf82e20cf98f26c0, 0xa1c4446f77a293e4],
        [0x425443f7268b3d3a, 0xba97e32ed386d9c7, 0xf8f3e6487df4faf8, 0x4ab946b596b5f32d],
    ),
    (
        "prod_max",
        [0x5708be98646ee5a1, 0x03e8fe27bd3f42f7, 0x2bc0a0080874f571, 0x4c7e765d99c985ed],
        [0xe5f971e85fbb815e, 0xd30fa583b1b08354, 0x511a27610846709d, 0x4baeefcbe012238f],
    ),
    (
        "int_sum",
        [0x062c5f29462cb653, 0x8cc5284346cc3221, 0xc4151de0934fe769, 0xf655308e0056c42f],
        [0xd019ba8e9be72028, 0x72a26583b1c4c6ae, 0xbfb3c999c016baa4, 0xbb04adf8b54e7921],
    ),
    (
        "float_sum",
        [0xec816a9aa939d235, 0xe8a4792a8d2abcef, 0x468153a29938175e, 0x634d3369ec5b4fbc],
        [0x67d4dd0e9bcaa866, 0x81f0eb548af29c17, 0x0f202c3bd4152ea4, 0x453a1b467dde05f5],
    ),
    (
        "float_prod",
        [0xda9c6ea42954a828, 0x4aeb87340590b5d0, 0x4c2f7a0b468ca585, 0x1e1299722b406f4e],
        [0x05bd9690a3892319, 0xa8d0bae5358c3118, 0x4724e6520d6ee2da, 0x88491b97dddee667],
    ),
    (
        "double_prod",
        [0x3138c3a5416b744d, 0xe5c17fc98ac02bc1, 0xc90c6100c37df185, 0xb8c670354a4c897c],
        [0x3f962982768a6f9b, 0x4e60dbd7c77e9f54, 0x2b11ad57726e1997, 0x43dff1316144b50c],
    ),
    (
        "int_min",
        [0x5db3944ed7e1bb7b, 0x01b5320b5e25117f, 0x364631c568bb4e8e, 0xea202dcac78ad28e],
        [0xa8d14cb6f2c17f7c, 0xa0e3e3cf8ac8cd2f, 0xbd89c239b02b98f7, 0x1eaa572143769409],
    ),
    (
        "float_max",
        [0x3f8cb9acea737144, 0xa49323416d56336e, 0x0c5eca27d25c5a33, 0x5d0ba9d6b25491be],
        [0x72cc465ded69382a, 0x77397bf9523dc47c, 0xfd6b709bdc46fdd8, 0x0c35816eed35e106],
    ),
    (
        "bool_min",
        [0x52a9fed6f9b5da5e, 0x3904937e4ba481ab, 0x9c6dd98520870ccc, 0x950f397e60d29b9f],
        [0xe37d01b279404506, 0xa40db8299dc0087e, 0x3a6e0b9268e3ce4a, 0xa0badb028d06a0d6],
    ),
    (
        "bool_max",
        [0x117f4e558259e852, 0x7d552747ad9a73fd, 0x1f22fb4444b2c8ad, 0x879986176e80486b],
        [0xe6dccca95d9de7f6, 0x38241586c093b0db, 0x4685d552a025bfed, 0x7dfaee0b378013be],
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
    [0x9a8c121fffbddab2, 0x52fe0153bdf821af, 0x85f9c30229471ae0, 0x5566dbbc0fca1592],
    [0x782c960c7da4e09a, 0x8e6a724008e4cc15, 0xa7ee1cd7180df75d, 0x5603bdc0c902c1f9],
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
