//! Store-level durability properties across the public facade: attribute
//! history reconstruction is invariant under merge policy and merge
//! timing, and the edge store's time-travel views stay consistent through
//! arbitrary mutation histories.

use iturbograph::gsa::value::{ColumnData, PrimType, Value, ValueType};
use iturbograph::store::{
    AttrStore, BufferPool, EdgeMutation, EdgeStore, IoStats, MaintenancePolicy, MutationBatch,
    View,
};
use proptest::prelude::*;
use std::sync::Arc;

/// Random attribute-change history: per (snapshot, superstep), a set of
/// (vertex, value) after-images.
fn history() -> impl Strategy<Value = Vec<Vec<Vec<(u32, i64)>>>> {
    proptest::collection::vec(
        proptest::collection::vec(
            proptest::collection::vec((0u32..16, -100i64..100), 0..6),
            1..4, // supersteps
        ),
        1..8, // snapshots
    )
}

fn build_store(policy: MaintenancePolicy, hist: &[Vec<Vec<(u32, i64)>>]) -> AttrStore {
    let mut st = AttrStore::new(
        vec![ValueType::Prim(PrimType::Long)],
        16,
        policy,
        IoStats::new(),
    );
    for (t, supersteps) in hist.iter().enumerate() {
        for (s, changes) in supersteps.iter().enumerate() {
            if changes.is_empty() {
                continue;
            }
            let mut dedup: std::collections::BTreeMap<u32, i64> = Default::default();
            for &(v, x) in changes {
                dedup.insert(v, x);
            }
            let vids: Vec<u32> = dedup.keys().copied().collect();
            let col = ColumnData::Long(dedup.values().copied().collect());
            st.record_run(t, s, vids, vec![col]);
        }
    }
    st
}

fn materialize_final(st: &AttrStore, supersteps: usize) -> Vec<Value> {
    let mut arr = st.materialize_init();
    for s in 0..supersteps {
        st.load_superstep_before(s, usize::MAX, &mut arr);
    }
    (0..16).map(|i| arr[0].get(i)).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// All three maintenance policies reconstruct identical attribute
    /// images from the same history.
    #[test]
    fn merge_policy_is_transparent(hist in history()) {
        let max_ss = hist.iter().map(|s| s.len()).max().unwrap_or(0);
        let plain = build_store(MaintenancePolicy::NoMerge, &hist);
        let periodic = build_store(MaintenancePolicy::Periodic(2), &hist);
        let cost = build_store(MaintenancePolicy::CostBased, &hist);
        let a = materialize_final(&plain, max_ss);
        let b = materialize_final(&periodic, max_ss);
        let c = materialize_final(&cost, max_ss);
        prop_assert_eq!(&a, &b);
        prop_assert_eq!(&a, &c);
    }

    /// Forcing merges at arbitrary points never changes reconstruction.
    #[test]
    fn explicit_merges_are_transparent(hist in history(), merge_at in 0usize..4) {
        let max_ss = hist.iter().map(|s| s.len()).max().unwrap_or(0);
        let baseline = build_store(MaintenancePolicy::NoMerge, &hist);
        let mut merged = build_store(MaintenancePolicy::NoMerge, &hist);
        merged.merge_chain(merge_at);
        prop_assert_eq!(
            materialize_final(&baseline, max_ss),
            materialize_final(&merged, max_ss)
        );
    }
}

// Random edge mutation histories keep Old/New views and the delta stream
// mutually consistent.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn edge_store_views_are_consistent(
        batches in proptest::collection::vec(
            proptest::collection::vec((0u64..12, 0u64..12), 1..6),
            1..6,
        )
    ) {
        let pool = Arc::new(BufferPool::new(1 << 20, 256, IoStats::new()));
        let base: Vec<(u64, u64)> = vec![(0, 1), (1, 2), (2, 3), (3, 0)];
        let mut store = EdgeStore::new(12, &base, false, pool);
        let mut model: std::collections::BTreeSet<(u64, u64)> = base.iter().copied().collect();

        for raw in batches {
            let mut prev_model = model.clone();
            std::mem::swap(&mut prev_model, &mut model);
            model = prev_model.clone();
            let mut muts = Vec::new();
            for (a, b) in raw {
                if a == b {
                    continue;
                }
                // Legal mutation: insert if absent, delete if present.
                if model.contains(&(a, b)) {
                    model.remove(&(a, b));
                    muts.push(EdgeMutation::delete(a, b));
                } else {
                    model.insert((a, b));
                    muts.push(EdgeMutation::insert(a, b));
                }
            }
            if muts.is_empty() {
                continue;
            }
            store.commit(&MutationBatch::new(muts));

            // New view matches the model.
            for v in 0..12u64 {
                let mut got = store.out_dir().neighbors(v, View::New);
                got.sort_unstable();
                let want: Vec<u64> = model
                    .iter()
                    .filter(|&&(s, _)| s == v)
                    .map(|&(_, d)| d)
                    .collect();
                prop_assert_eq!(&got, &want, "New view of {}", v);
                prop_assert_eq!(
                    store.out_dir().degree(v, View::New) as usize,
                    want.len()
                );
            }
            // Old view matches the previous model.
            for v in 0..12u64 {
                let mut got = store.out_dir().neighbors(v, View::Old);
                got.sort_unstable();
                let want: Vec<u64> = prev_model
                    .iter()
                    .filter(|&&(s, _)| s == v)
                    .map(|&(_, d)| d)
                    .collect();
                prop_assert_eq!(&got, &want, "Old view of {}", v);
            }
            // Delta stream equals the symmetric difference with signs.
            let mut delta = Vec::new();
            store.out_dir().for_each_delta_edge(|s, d, m| delta.push((s, d, m)));
            delta.sort_unstable();
            let mut want: Vec<(u64, u64, i64)> = model
                .difference(&prev_model)
                .map(|&(s, d)| (s, d, 1))
                .chain(prev_model.difference(&model).map(|&(s, d)| (s, d, -1)))
                .collect();
            want.sort_unstable();
            prop_assert_eq!(delta, want);
        }
    }
}
