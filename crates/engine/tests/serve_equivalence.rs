//! Sharing correctness for the standing-query registry (DESIGN.md §11.3):
//! every registered query's dynamic state must be byte-identical to an
//! isolated session compiled from the same source and fed the same
//! mutation history — whether the query shares a backing session with K−1
//! structural twins, is alpha-renamed relative to its group leader, or
//! registered mid-history. A proptest additionally pins that registration
//! and unregistration order never changes any query's result.

mod common;

use common::{build_workload, mk_config, mk_input, Scenario};
use itg_algorithms::programs;
use itg_engine::registry::{QueryRegistry, ServeLimits};
use itg_engine::{EngineConfig, SessionBuilder};
use itg_store::MutationBatch;
use proptest::prelude::*;

/// An isolated session for `src`, driven through the same history the
/// registry saw from `start` on: one-shot at registration, then one
/// incremental run per committed batch.
fn isolated_image(
    src: &str,
    input: &itg_engine::GraphInput,
    cfg: EngineConfig,
    batches: &[MutationBatch],
) -> Vec<u8> {
    let mut session = SessionBuilder::from_config(cfg)
        .from_source(src, input)
        .expect("program compiles");
    session.run_oneshot();
    for batch in batches {
        session.apply_mutations(batch);
        session.run_incremental();
    }
    session.dynamic_state_image()
}

/// TC with renamed user-declared identifiers — structurally identical to
/// `programs::source("tc")`? No: the builtin TC and this program must be
/// *compiled-plan* equal for sharing, which the registry decides via
/// `CompiledProgram::same_plan`. The test asserts they land in one group.
const TC_RENAMED: &str = r#"
    Vertex (id, active, nbrs)
    GlobalVariable (triangles: Accm<long, SUM>)
    Initialize (w): { w.active = true; }
    Traverse (w): {
        For x in w.nbrs Where (w < x) {
            For y in x.nbrs Where (x < y) {
                For z in y.nbrs Where (z == w) { triangles.Accumulate(1); }
            }
        }
    }
    Update (w): { }
"#;

/// A program sharing TC's 3-hop walk shape but with a different action
/// (counts each triangle twice): the same walk shape
/// (`WalkQuery::same_shape`), not the same plan — overlapping, not
/// identical.
const TC_DOUBLED: &str = r#"
    Vertex (id, active, nbrs)
    GlobalVariable (cnts: Accm<long, SUM>)
    Initialize (u1): { u1.active = true; }
    Traverse (u1): {
        For u2 in u1.nbrs Where (u1 < u2) {
            For u3 in u2.nbrs Where (u2 < u3) {
                For u4 in u3.nbrs Where (u4 == u1) { cnts.Accumulate(2); }
            }
        }
    }
    Update (u1): { }
"#;

#[test]
fn identical_queries_share_and_match_isolated() {
    // K identical TC queries: one share group, K−1 hits per batch, and
    // every member byte-equal to an isolated session.
    const K: usize = 4;
    let sc = Scenario {
        algo: "tc",
        machines: 1,
        threads: 1,
        seed: 11,
        batches: 3,
        batch_size: 30,
        mutation_mode: Default::default(),
    };
    let (base, batches) = build_workload(&sc);
    let input = mk_input("tc", &base);
    let cfg = mk_config("tc", sc.machines, sc.threads);
    let src = programs::source("tc").unwrap();

    let mut reg = QueryRegistry::new(&input, cfg.clone(), ServeLimits::default());
    let ids: Vec<_> = (0..K)
        .map(|i| reg.register(&format!("tc{i}"), &src).unwrap())
        .collect();
    assert_eq!(reg.num_groups(), 1, "identical programs must share");
    for batch in &batches {
        let stats = reg.commit(batch).unwrap();
        assert_eq!(stats.groups_run, 1, "one enumeration per batch");
        assert_eq!(stats.share_hits, K as u64 - 1);
    }
    assert_eq!(reg.share_hits(), (K as u64 - 1) * batches.len() as u64);

    let oracle = isolated_image(&src, &input, cfg, &batches);
    for &id in &ids {
        assert_eq!(
            reg.dynamic_state_image(id).unwrap(),
            oracle,
            "shared member {id} diverged from the isolated session"
        );
    }
}

#[test]
fn mixed_workload_matches_isolated_per_query() {
    // Identical (2× tc), overlapping (TC_DOUBLED: same walk shape,
    // different action), alpha-renamed (TC_RENAMED joins the tc group),
    // and disjoint (wcc, pr) queries over one multi-batch history.
    let sc = Scenario {
        algo: "tc",
        machines: 1,
        threads: 1,
        seed: 22,
        batches: 3,
        batch_size: 25,
        mutation_mode: Default::default(),
    };
    let (base, batches) = build_workload(&sc);
    let input = mk_input("tc", &base);
    // One shared config for every query: cap supersteps so PR terminates.
    let mut cfg = mk_config("tc", 1, 1);
    cfg.max_supersteps = 10;

    let tc = programs::source("tc").unwrap();
    let wcc = programs::source("wcc").unwrap();
    let pr = programs::source("pr").unwrap();
    let sources: Vec<(&str, &str)> = vec![
        ("tc-a", &tc),
        ("tc-b", &tc),
        ("tc-renamed", TC_RENAMED),
        ("tc-doubled", TC_DOUBLED),
        ("wcc", &wcc),
        ("pr", &pr),
    ];

    let mut reg = QueryRegistry::new(&input, cfg.clone(), ServeLimits::default());
    let ids: Vec<_> = sources
        .iter()
        .map(|(name, src)| (reg.register(name, src).unwrap(), *src))
        .collect();
    // tc-a, tc-b, tc-renamed share; tc-doubled, wcc, pr are alone.
    assert_eq!(reg.num_queries(), 6);
    assert_eq!(reg.num_groups(), 4);
    // tc and tc-doubled share a walk shape; wcc and pr bring their own.
    assert_eq!(reg.unique_subplans(), 3);

    for batch in &batches {
        let stats = reg.commit(batch).unwrap();
        assert_eq!(stats.groups_run, 4);
        assert_eq!(stats.queries_served, 6);
        assert_eq!(stats.share_hits, 2);
    }

    for (id, src) in &ids {
        let oracle = isolated_image(src, &input, cfg.clone(), &batches);
        assert_eq!(
            reg.dynamic_state_image(*id).unwrap(),
            oracle,
            "query {} diverged from its isolated session",
            reg.query_name(*id).unwrap()
        );
    }

    // The alpha-renamed member reads its result through its own names.
    let renamed = ids[2].0;
    let leader = ids[0].0;
    assert_eq!(
        reg.global_value(renamed, "triangles").unwrap(),
        reg.global_value(leader, "cnts").unwrap(),
    );
}

#[test]
fn late_registration_matches_fresh_isolated_session() {
    // A query registered after 2 committed batches must equal an isolated
    // session built from the *current* graph (its snapshot 0) and driven
    // through the remaining batches only.
    let sc = Scenario {
        algo: "wcc",
        machines: 1,
        threads: 1,
        seed: 33,
        batches: 4,
        batch_size: 20,
        mutation_mode: Default::default(),
    };
    let (base, batches) = build_workload(&sc);
    let input = mk_input("wcc", &base);
    let cfg = mk_config("wcc", 1, 1);
    let src = programs::source("wcc").unwrap();

    let mut reg = QueryRegistry::new(&input, cfg.clone(), ServeLimits::default());
    let early = reg.register("early", &src).unwrap();
    reg.commit(&batches[0]).unwrap();
    reg.commit(&batches[1]).unwrap();

    let registration_input = reg.current_input();
    let late = reg.register("late", &src).unwrap();
    // Same program, different epoch: no sharing with `early`.
    assert_eq!(reg.num_groups(), 2);

    reg.commit(&batches[2]).unwrap();
    reg.commit(&batches[3]).unwrap();

    let late_oracle = isolated_image(&src, &registration_input, cfg.clone(), &batches[2..]);
    assert_eq!(reg.dynamic_state_image(late).unwrap(), late_oracle);

    let early_oracle = isolated_image(&src, &input, cfg, &batches);
    assert_eq!(reg.dynamic_state_image(early).unwrap(), early_oracle);

    // Convergent graph function ⇒ early and late agree on the component
    // labels even though their histories (and state images) differ.
    assert_eq!(
        reg.attr_column(early, "comp").unwrap(),
        reg.attr_column(late, "comp").unwrap(),
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Registration/unregistration order never changes results: drive two
    /// registries over the same history with the query set registered in
    /// different orders (and an unregister/re-register shuffle between
    /// batches), and compare every surviving query's image.
    #[test]
    fn registration_order_never_changes_results(
        seed in 0u64..500,
        perm_seed in 0u64..1000,
    ) {
        // Fisher–Yates over a splitmix-style stream: a deterministic
        // permutation of the 4 query slots from `perm_seed`.
        let mut order: Vec<usize> = (0..4).collect();
        let mut state = perm_seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(1);
        for i in (1..4usize).rev() {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let j = (state % (i as u64 + 1)) as usize;
            order.swap(i, j);
        }
        let sc = Scenario {
            algo: "tc",
            machines: 1,
            threads: 1,
            seed,
            batches: 2,
            batch_size: 15,
            mutation_mode: Default::default(),
        };
        let (base, batches) = build_workload(&sc);
        let input = mk_input("tc", &base);
        let mut cfg = mk_config("tc", 1, 1);
        cfg.max_supersteps = 10;

        let tc = programs::source("tc").unwrap();
        let wcc = programs::source("wcc").unwrap();
        let sources: [&str; 4] = [&tc, &tc, TC_RENAMED, &wcc];

        // Registry A: natural order. Registry B: permuted order plus an
        // unregister/re-register of query 0 before the first batch.
        let mut a = QueryRegistry::new(&input, cfg.clone(), ServeLimits::default());
        let ids_a: Vec<_> = (0..4)
            .map(|i| a.register(&format!("q{i}"), sources[i]).unwrap())
            .collect();

        let mut b = QueryRegistry::new(&input, cfg, ServeLimits::default());
        let mut ids_b = [None; 4];
        for &i in &order {
            ids_b[i] = Some(b.register(&format!("q{i}"), sources[i]).unwrap());
        }
        b.unregister(ids_b[0].unwrap()).unwrap();
        ids_b[0] = Some(b.register("q0", sources[0]).unwrap());

        for batch in &batches {
            a.commit(batch).unwrap();
            b.commit(batch).unwrap();
        }

        for i in 0..4 {
            prop_assert_eq!(
                a.dynamic_state_image(ids_a[i]).unwrap(),
                b.dynamic_state_image(ids_b[i].unwrap()).unwrap(),
                "query {} depends on registration order", i
            );
        }
    }
}
