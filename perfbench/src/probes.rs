//! Stand-alone probes of public store, wire and baseline functions, fed
//! with the workload's own data. They run in the traced run only, after
//! the replays, and each is a span of the benchmark's trace.

use crate::metrics::{median, Metrics};
use crate::replay::History;
use crate::spec::{Algo, Spec, PAGE_SIZE, WARMUP_BATCHES};
use crate::trace::Tracer;
use itg_baselines::{DdTriangles, GraphBolt, MemoryBudget, ValueRule};
use iturbograph::engine::accum::Contribution;
use iturbograph::engine::wire::{decode_payload, encode_payload};
use iturbograph::engine::Payload;
use iturbograph::prelude::*;
use iturbograph::store::wal::{Wal, WalEntry, WalOptions};
use iturbograph::store::{BufferPool, EdgeStore, IoStats, View};
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

fn us(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64() * 1e6
}

/// The history's batches committed into an edge store of their own, then
/// neighbor scans over the delta chains they left.
fn edge_store(spec: &Spec, history: &History, out: &mut Metrics) {
    let edges = if history.undirected {
        itg_bench::Dataset::mirrored(&history.input.edges)
    } else {
        history.input.edges.clone()
    };
    let pool = Arc::new(BufferPool::new(
        spec.buffer_pool_bytes,
        PAGE_SIZE,
        IoStats::new(),
    ));
    let mut store = EdgeStore::new(history.num_vertices, &edges, history.undirected, pool);
    let mut commit_us = Vec::with_capacity(history.batches.len());
    for batch in &history.batches {
        let batch = if history.undirected {
            batch.mirrored()
        } else {
            batch.clone()
        };
        let t0 = Instant::now();
        black_box(store.commit(&batch));
        commit_us.push(us(t0));
    }
    out.set("store.edge.commit_us", median(&commit_us[WARMUP_BATCHES..]));

    let n = history.num_vertices as u64;
    let sampled = n.min(10_000);
    let mut visited = 0u64;
    let t0 = Instant::now();
    for i in 0..sampled {
        store
            .out_dir()
            .for_each_neighbor(i * n / sampled, View::New, |d| visited += black_box(d) & 1);
    }
    black_box(visited);
    out.set("store.edge.neighbors_ns", us(t0) * 1e3 / sampled as f64);
}

/// Encode and decode a `Contribs` frame carrying the workload's own final
/// result column: the frame a superstep exchange ships between machines.
fn wire(result: &[Value], out: &mut Metrics) {
    let column: Vec<(u64, Contribution)> = result
        .iter()
        .enumerate()
        .map(|(v, value)| {
            let contribution = Contribution {
                folded: value.clone(),
                count: 1,
                monoid: None,
                retractions: Vec::new(),
            };
            (v as u64, contribution)
        })
        .collect();
    let payload = Payload::Contribs {
        from: 0,
        vertex: vec![column],
    };
    const ROUNDS: usize = 5;
    let mut encode_ns_per_kb = Vec::with_capacity(ROUNDS);
    let mut decode_ns_per_kb = Vec::with_capacity(ROUNDS);
    for _ in 0..ROUNDS {
        let t0 = Instant::now();
        let bytes = black_box(encode_payload(black_box(&payload)));
        let kib = bytes.len() as f64 / 1024.0;
        encode_ns_per_kb.push(us(t0) * 1e3 / kib);
        let t0 = Instant::now();
        black_box(decode_payload(black_box(&bytes)).expect("own frame decodes"));
        decode_ns_per_kb.push(us(t0) * 1e3 / kib);
    }
    out.set("engine.wire.encode_ns_per_kb", median(&encode_ns_per_kb));
    out.set("engine.wire.decode_ns_per_kb", median(&decode_ns_per_kb));
}

/// Append the workload's batches to a WAL of their own: the log's price
/// without the engine around it.
fn wal_append(history: &History, dir: &Path, out: &mut Metrics) -> Result<(), String> {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    let (wal, _) = Wal::open_with(dir, WalOptions::default()).map_err(|e| e.to_string())?;
    let mut append_us = Vec::new();
    for batch in history.batches.iter().skip(WARMUP_BATCHES).take(32) {
        let entry = WalEntry::Batch(batch.clone());
        let t0 = Instant::now();
        wal.append(&entry).map_err(|e| e.to_string())?;
        append_us.push(us(t0));
    }
    drop(wal);
    let _ = std::fs::remove_dir_all(dir);
    out.set("store.wal.append_us", median(&append_us));
    Ok(())
}

/// The checkpoint's parts on a plain session: serialize the state, diff it
/// against the state one batch earlier, and apply the diff.
fn snapshot_codec(spec: &Spec, history: &History, out: &mut Metrics) -> Result<(), String> {
    let mut session = SessionBuilder::from_config(spec.plain_config())
        .from_source(&spec.algo.source(), &history.input)
        .map_err(|e| e.to_string())?;
    session.run_oneshot();
    let (last, head) = history.batches[..WARMUP_BATCHES]
        .split_last()
        .expect("warm-up batches exist");
    for batch in head {
        session.apply_mutations(batch);
        session.run_incremental();
    }
    let base = session.state_image();
    session.apply_mutations(last);
    session.run_incremental();
    let t0 = Instant::now();
    let image = session.state_image();
    out.set("engine.durability.state_image_ms", us(t0) / 1e3);
    let t0 = Instant::now();
    let delta = iturbograph::store::delta::encode(&base, &image);
    out.set("store.delta.encode_ms", us(t0) / 1e3);
    let t0 = Instant::now();
    let applied = iturbograph::store::delta::apply(&base, &delta).map_err(|e| e.to_string())?;
    out.set("store.delta.apply_ms", us(t0) / 1e3);
    if applied != image {
        return Err("delta::apply did not reproduce the state image".into());
    }
    out.set("store.snapshot.full_bytes", image.len() as f64);
    out.set(
        "store.snapshot.delta_ratio",
        delta.len() as f64 / image.len() as f64,
    );
    Ok(())
}

/// The in-repo GraphBolt-style engine on the same graph and history:
/// median refresh over the timed batches. A yardstick, never a gate.
fn graphbolt(history: &History) -> Result<f64, String> {
    let mut gb = GraphBolt::new(ValueRule::PageRank, 10, MemoryBudget::unlimited());
    gb.initial(history.num_vertices, &history.input.edges)
        .map_err(|e| format!("{e:?}"))?;
    let mut ms = Vec::with_capacity(history.batches.len());
    for batch in &history.batches {
        let inserts: Vec<(u64, u64)> = batch.inserts().map(|e| (e.src, e.dst)).collect();
        let deletes: Vec<(u64, u64)> = batch.deletes().map(|e| (e.src, e.dst)).collect();
        let t0 = Instant::now();
        gb.delta(&inserts, &deletes).map_err(|e| format!("{e:?}"))?;
        ms.push(us(t0) / 1e3);
    }
    Ok(median(&ms[WARMUP_BATCHES..]))
}

/// The in-repo Differential-Dataflow-style triangle counter, likewise.
fn dd_triangles(history: &History) -> Result<f64, String> {
    let mut dd = DdTriangles::new(MemoryBudget::unlimited());
    dd.initial(history.num_vertices, &history.input.edges)
        .map_err(|e| format!("{e:?}"))?;
    let mut ms = Vec::with_capacity(history.batches.len());
    for batch in &history.batches {
        let muts: Vec<(u64, u64, i64)> = batch
            .edges()
            .iter()
            .map(|e| (e.src, e.dst, e.mult as i64))
            .collect();
        let t0 = Instant::now();
        dd.delta(&muts).map_err(|e| format!("{e:?}"))?;
        ms.push(us(t0) / 1e3);
    }
    Ok(median(&ms[WARMUP_BATCHES..]))
}

/// The engine defect this benchmark found, kept in sight as a count: WCC
/// by MIN labels, maintained under the engine's default options, on rings
/// of 3 to 16 vertices from which one batch cuts edge `(0, n-1)` and the
/// next edge `(0, 1)`. What is left is a path whose every vertex belongs
/// to component 1; the count is of vertices labelled otherwise. On a ring
/// of even length label 0 reaches the far vertex over both arcs in the
/// same superstep, the support count `OptFlags::min_count` keeps for it
/// survives the first cut, and the second cut triggers no recompute: the
/// whole path keeps label 0. With `min_count` off the count is 0, and so
/// is BFS's on the same rings — which is why the churn workload runs BFS.
fn wcc_stale_labels(spec: &Spec) -> Result<f64, String> {
    let mut stale = 0;
    for n in 3..=16u64 {
        let ring: Vec<(u64, u64)> = (0..n).map(|v| (v, (v + 1) % n)).collect();
        let mut session = SessionBuilder::from_config(spec.plain_config())
            .from_source(iturbograph::algorithms::WCC, &GraphInput::undirected(ring))
            .map_err(|e| e.to_string())?;
        session.run_oneshot();
        for (src, dst) in [(0, n - 1), (0, 1)] {
            session.apply_mutations(&MutationBatch::new(vec![EdgeMutation::delete(src, dst)]));
            session.try_run_incremental().map_err(|e| e.to_string())?;
        }
        let labels = session.attr_column("comp").map_err(|e| e.to_string())?;
        stale += labels[1..].iter().filter(|l| **l != Value::Long(1)).count();
    }
    Ok(stale as f64)
}

/// Run every probe that applies to `spec`; the rest read 0.
pub fn run(
    spec: &Spec,
    history: &History,
    final_result: &[Value],
    refresh_p50_ms: f64,
    scratch: &Path,
    tracer: &mut Tracer,
    out: &mut Metrics,
) -> Result<(), String> {
    tracer.span("probe.edge_store", -1, |_| edge_store(spec, history, out));
    tracer.span("probe.wire", -1, |_| wire(final_result, out));

    if spec.durable {
        tracer
            .span("probe.wal", -1, |_| {
                wal_append(history, &scratch.join("wal-probe"), out)
            })
            .0?;
        tracer
            .span("probe.snapshot", -1, |_| snapshot_codec(spec, history, out))
            .0?;
    } else {
        for name in [
            "store.wal.append_us",
            "engine.durability.state_image_ms",
            "store.delta.encode_ms",
            "store.delta.apply_ms",
            "store.snapshot.full_bytes",
            "store.snapshot.delta_ratio",
        ] {
            out.set(name, 0.0);
        }
    }

    let stale = if spec.algo == Algo::Bfs {
        tracer
            .span("probe.wcc_rings", -1, |_| wcc_stale_labels(spec))
            .0?
    } else {
        0.0
    };
    out.set("engine.accum.wcc_stale_labels", stale);

    // The baselines are single-machine engines: the cluster workload has
    // the same graph as `pr-stream` and would only repeat its number.
    let (gb_ms, dd_ms) = match (spec.algo, spec.machines) {
        (Algo::PageRank, 1) => (
            tracer
                .span("probe.graphbolt", -1, |_| graphbolt(history))
                .0?,
            0.0,
        ),
        (Algo::TriangleCount, 1) => (
            0.0,
            tracer
                .span("probe.dd_tc", -1, |_| dd_triangles(history))
                .0?,
        ),
        _ => (0.0, 0.0),
    };
    out.set("baselines.graphbolt_refresh_ms", gb_ms);
    out.set("baselines.dd_tc_refresh_ms", dd_ms);
    let baseline_ms = gb_ms + dd_ms;
    out.set(
        "baselines.gap_ratio",
        if baseline_ms > 0.0 {
            refresh_p50_ms / baseline_ms
        } else {
            0.0
        },
    );
    Ok(())
}
