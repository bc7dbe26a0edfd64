//! Edge-store oracle: random valid mutation histories checked at every
//! epoch against two naive models.
//!
//! - `live`: a `BTreeMap` from each pair to its count per view — *what*
//!   each view holds (`New`/`Old` neighbours, `degree`, `edge_mult`, the
//!   sorted view, the signed `Δes_t` and its sorted run, where a delete
//!   retracts every copy).
//! - `Chain`: the segment chain spelled out naively (the base and one
//!   insert list per epoch), where a scan emits each pair's live count at
//!   its first occurrences — *in which order* a scan emits, since the
//!   engine's float fold order hangs on it.
//!
//! Histories include repeated base edges, a second copy of a present pair,
//! delete-then-reinsert (and copies added to a re-inserted pair),
//! hub-skewed sources, vertex growth and `compact()` calls between a commit
//! and its check; every epoch also round-trips the store through its
//! snapshot codec. A second test pins flatness: delta bytes do not depend
//! on `|V|`, untouched vertices read no delta segment.

use itg_store::{
    BufferPool, EdgeMutation, EdgeStore, EdgeStoreDir, IoStats, MutationBatch, Reader, View,
    Writer,
};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

type Edge = (u64, u64);
type Counts = BTreeMap<Edge, i64>;

fn pool() -> Arc<BufferPool> {
    Arc::new(BufferPool::new(1 << 20, 256, IoStats::new()))
}

fn count(live: &Counts, e: Edge) -> i64 {
    live.get(&e).copied().unwrap_or(0)
}

/// The segment chain, naively: every segment is a sorted edge list and a
/// scan walks every segment the view sees.
#[derive(Default, Clone)]
struct Chain {
    base: Vec<Edge>,
    inserts: Vec<Vec<Edge>>,
}

impl Chain {
    /// `v`'s neighbours in a view holding `live`, which sees `visible`
    /// insert lists: each pair's count, emitted at its first occurrences.
    fn scan(&self, v: u64, visible: usize, live: &Counts) -> Vec<u64> {
        let mut emitted: BTreeMap<u64, i64> = BTreeMap::new();
        let mut out = Vec::new();
        for seg in std::iter::once(&self.base).chain(&self.inserts[..visible]) {
            for &(_, d) in seg.iter().filter(|e| e.0 == v) {
                let n = emitted.entry(d).or_insert(0);
                if *n < count(live, (v, d)) {
                    *n += 1;
                    out.push(d);
                }
            }
        }
        out
    }

    /// Fold every insert list but the latest into a base holding `old`.
    fn compact(&mut self, old: &Counts) {
        self.base = old.iter().flat_map(|(&e, &c)| std::iter::repeat_n(e, c as usize)).collect();
        let latest = self.inserts.pop();
        self.inserts = latest.into_iter().collect();
    }
}

/// One direction's models plus the last batch, for the delta stream.
#[derive(Default, Clone)]
struct Oracle {
    chain: Chain,
    live_new: Counts,
    live_old: Counts,
    last_ins: Vec<Edge>,
    /// One entry per retracted copy.
    last_del: Vec<Edge>,
}

impl Oracle {
    fn new(base: &[Edge]) -> Oracle {
        let mut live = Counts::new();
        base.iter().for_each(|&e| *live.entry(e).or_insert(0) += 1);
        let mut sorted = base.to_vec();
        sorted.sort_unstable();
        let chain = Chain { base: sorted, ..Chain::default() };
        Oracle { chain, live_new: live.clone(), live_old: live, ..Oracle::default() }
    }

    fn commit(&mut self, mut ins: Vec<Edge>, mut del: Vec<Edge>) {
        ins.sort_unstable();
        del.sort_unstable();
        self.live_old = self.live_new.clone();
        ins.iter().for_each(|&e| *self.live_new.entry(e).or_insert(0) += 1);
        self.last_del = del
            .iter()
            .flat_map(|&e| std::iter::repeat_n(e, self.live_new.remove(&e).unwrap_or(0) as usize))
            .collect();
        self.chain.inserts.push(ins.clone());
        self.last_ins = ins;
    }

    fn compact(&mut self) {
        self.chain.compact(&self.live_old);
    }

    fn live(&self, view: View) -> &Counts {
        match view {
            View::New => &self.live_new,
            View::Old => &self.live_old,
        }
    }

    /// Hold `store` against the models on every vertex and pair below
    /// `span`.
    fn check(&self, store: &EdgeStoreDir, span: u64, what: &str) {
        let chained = self.chain.inserts.len();
        for v in 0..span {
            for view in [View::New, View::Old] {
                let live = self.live(view);
                let visible = if view == View::New { chained } else { chained.saturating_sub(1) };
                let got = store.neighbors(v, view);
                assert_eq!(&got, &self.chain.scan(v, visible, live), "{} scan order of {} {:?}", what, v, view);
                let mut sorted = got.clone();
                sorted.sort_unstable();
                let want: Vec<u64> = live
                    .range((v, 0)..=(v, u64::MAX))
                    .flat_map(|(&(_, d), &c)| std::iter::repeat_n(d, c as usize))
                    .collect();
                assert_eq!(&sorted, &want, "{} neighbours of {} {:?}", what, v, view);
                assert_eq!(store.degree(v, view) as usize, want.len(), "{} degree of {} {:?}", what, v, view);
                // The sorted view: the scan's multiset as ascending
                // (target, count), and each count the probe's.
                let runs = sorted.chunk_by(|a, b| a == b).map(|run| (run[0], run.len() as i64));
                let sorted_view: Vec<(u64, i64)> = store.sorted_neighbors(v, view).collect();
                assert_eq!(sorted_view, runs.collect::<Vec<_>>(), "{} sorted view of {} {:?}", what, v, view);
                for d in 0..span {
                    let want = count(live, (v, d));
                    assert_eq!(store.edge_mult(v, d, view), want, "{} edge_mult {}->{} {:?}", what, v, d, view);
                    let listed = sorted_view.iter().find(|e| e.0 == d).map_or(0, |e| e.1);
                    assert_eq!(listed, want, "{} sorted view count {}->{} {:?}", what, v, d, view);
                }
            }
            let mut delta = Vec::new();
            store.for_each_delta_neighbor(v, |d, m| delta.push((v, d, m)));
            let want: Vec<(u64, u64, i64)> = self.delta().into_iter().filter(|t| t.0 == v).collect();
            assert_eq!(delta, want, "{} delta neighbours of {}", what, v);
            // The Δ run: inserts minus deletes per target, net 0 dropped.
            let copies = |edges: &[Edge], d| edges.iter().filter(|&&e| e == (v, d)).count() as i64;
            let net = (0..span).map(|d| (d, copies(&self.last_ins, d) - copies(&self.last_del, d)));
            let want: Vec<(u64, i64)> = net.filter(|e| e.1 != 0).collect();
            let run: Vec<(u64, i64)> = store.sorted_delta_neighbors(v).collect();
            assert_eq!(run, want, "{} sorted Δ run of {}", what, v);
        }
        let mut delta = Vec::new();
        store.for_each_delta_edge(|s, d, m| delta.push((s, d, m)));
        assert_eq!(delta, self.delta(), "{} delta stream", what);
    }
    /// `Δes_t` as the store streams it: inserts in (src, dst) order, then
    /// deletes.
    fn delta(&self) -> Vec<(u64, u64, i64)> {
        let signed = |edges: &[Edge], m| edges.iter().map(move |&(s, d)| (s, d, m)).collect::<Vec<_>>();
        [signed(&self.last_ins, 1), signed(&self.last_del, -1)].concat()
    }
}

fn flip(edges: &[Edge]) -> Vec<Edge> {
    edges.iter().map(|&(s, d)| (d, s)).collect()
}

/// The store's image decodes to a store that scans identically and
/// re-encodes to the same bytes.
fn roundtrip(store: &EdgeStore, span: u64) {
    let mut w = Writer::new();
    store.encode_into(&mut w);
    let mut r = Reader::new(&w.buf);
    let back = EdgeStore::decode_from(&mut r, pool()).expect("own image decodes");
    assert_eq!(r.remaining(), 0);
    for (a, b) in [(store.out_dir(), back.out_dir()), (store.rev_dir(), back.rev_dir())] {
        for v in 0..span {
            for view in [View::New, View::Old] {
                assert_eq!(a.neighbors(v, view), b.neighbors(v, view));
                assert_eq!(a.degree(v, view), b.degree(v, view));
            }
            assert_eq!(a.delta_segments_of(v), b.delta_segments_of(v));
        }
        assert_eq!(a.size_bytes(), b.size_bytes());
    }
    let mut again = Writer::new();
    back.encode_into(&mut again);
    assert_eq!(w.buf, again.buf, "image is canonical");
}

/// Initial vertex count; histories may grow the graph up to `SPAN`.
const N0: u64 = 12;
const SPAN: u64 = 20;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn store_matches_naive_models_at_every_epoch(
        base in proptest::collection::vec((0..N0, 0..N0), 0..30),
        // (hub?, src, dst, again?): half of all sources fall on three hub
        // vertices; `again` adds a copy to a present pair instead of
        // deleting it.
        batches in proptest::collection::vec(
            proptest::collection::vec((any::<bool>(), 0..SPAN, 0..SPAN, any::<bool>()), 1..10),
            1..10,
        ),
        compact_at in proptest::collection::btree_set(0usize..10, 0..3),
    ) {
        let mut store = EdgeStore::new(N0 as usize, &base, false, pool());
        let mut out = Oracle::new(&base);
        let mut rev = Oracle::new(&flip(&base));
        out.check(store.out_dir(), SPAN, "out@0");

        for (epoch, raw) in batches.into_iter().enumerate() {
            // A valid net batch: each pair at most once, insert if absent,
            // add a copy or delete every copy if present.
            let (mut ins, mut del, mut seen) = (Vec::new(), Vec::new(), BTreeSet::new());
            for (hub, s, d, again) in raw {
                let e = (if hub { s % 3 } else { s }, d);
                if !seen.insert(e) {
                    continue;
                }
                if count(&out.live_new, e) > 0 && !again { del.push(e) } else { ins.push(e) }
            }
            let muts = ins.iter().map(|&(s, d)| EdgeMutation::insert(s, d))
                .chain(del.iter().map(|&(s, d)| EdgeMutation::delete(s, d)));
            let receipt = store.commit(&MutationBatch::new(muts.collect()));
            prop_assert_eq!(receipt.epoch as usize, epoch + 1);
            out.commit(ins.clone(), del.clone());
            rev.commit(flip(&ins), flip(&del));
            // Compaction keeps `Old`, `New` and Δ, so it may fall between a
            // commit and the refresh that reads it.
            let at = if compact_at.contains(&epoch) {
                store.compact();
                out.compact();
                rev.compact();
                "after compaction"
            } else {
                ""
            };

            out.check(store.out_dir(), SPAN, &format!("out@{} {}", epoch + 1, at));
            rev.check(store.rev_dir(), SPAN, &format!("rev@{} {}", epoch + 1, at));
            roundtrip(&store, SPAN);
        }
    }
}

/// The same 200-batch history costs the same bytes whatever `|V|` is, and a
/// vertex no batch touches never reads a delta segment.
#[test]
fn delta_cost_is_flat_in_vertex_count_and_history_length() {
    const TOUCHED: u64 = 512;
    let base: Vec<Edge> = (0..1024).map(|v| (v, (v + 1) % 1024)).collect();
    let mut stores: Vec<EdgeStoreDir> = [1 << 10, 1 << 16]
        .iter()
        .map(|&n| EdgeStoreDir::new(n, &base, 0, pool()))
        .collect();
    let before: Vec<u64> = stores.iter().map(|s| s.size_bytes()).collect();

    let mut live: BTreeSet<Edge> = base.iter().copied().collect();
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut next = move |m: u64| {
        x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        (x >> 33) % m
    };
    for epoch in 1..=200 {
        let mut muts = Vec::new();
        for _ in 0..8 {
            // Sources stay below TOUCHED; targets range over the small graph.
            let e = (next(TOUCHED), next(1024));
            if muts.iter().any(|m: &EdgeMutation| (m.src, m.dst) == e) {
                continue;
            }
            muts.push(if live.remove(&e) {
                EdgeMutation::delete(e.0, e.1)
            } else {
                live.insert(e);
                EdgeMutation::insert(e.0, e.1)
            });
        }
        let batch = MutationBatch::new(muts);
        for s in &mut stores {
            s.commit(&batch);
            assert_eq!(s.delta_segments(), epoch);
            for v in [TOUCHED, TOUCHED + 77, 1023] {
                assert_eq!(s.delta_segments_of(v), 0, "untouched vertex {v} at epoch {epoch}");
                assert_eq!(s.neighbors(v, View::New), vec![(v + 1) % 1024]);
                assert_eq!(s.neighbors(v, View::Old), vec![(v + 1) % 1024]);
            }
        }
    }
    let grown: Vec<u64> = stores.iter().zip(&before).map(|(s, b)| s.size_bytes() - b).collect();
    assert_eq!(grown[0], grown[1], "delta bytes must not depend on |V|");
    // 200 batches × 8 mutations: 24 B per mutation at most, plus the two
    // closing offsets of each batch — nowhere near 200 × 2 × |V| × 8.
    assert!(grown[0] <= 200 * (8 * 24 + 16), "{} B", grown[0]);
    for v in 0..1024 {
        assert_eq!(stores[0].neighbors(v, View::New), stores[1].neighbors(v, View::New));
    }
}
