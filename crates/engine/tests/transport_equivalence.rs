//! Cross-transport equivalence: a session running over
//! `TransportKind::Cluster` (partition groups in separate OS processes,
//! exchange over loopback TCP or Unix-domain sockets) must be
//! indistinguishable from the same session over `TransportKind::Local` —
//! identical attribute columns, global values, superstep counts, work
//! units, recomputed-vertex counts, and `net_bytes` — for one-shot runs
//! and for a random incremental mutation history. The programs use
//! integer arithmetic, so "identical" means bit-for-bit.
//!
//! Also covers the partition-sliced bootstrap (`net/bootstrap_bytes` per
//! rank must be a fraction of the full-image cost), the `net/bytes`
//! observability counter (it must equal the `RunMetrics::io::net_bytes`
//! the engine reports), and the `EngineError::BadSuperstep` contract on
//! `global_value`.

mod common;

use common::{attr_names, global_names, random_workload};
use itg_algorithms::programs;
use itg_engine::{ClusterSpec, EngineConfig, GraphInput, SessionBuilder, TransportKind};
use itg_gsa::Value;

/// Everything user-visible about one run, captured for comparison.
#[derive(Debug, PartialEq)]
struct RunSnapshot {
    attrs: Vec<(String, Vec<Value>)>,
    globals: Vec<(String, Value)>,
    supersteps: usize,
    work_units: u64,
    recomputed_vertices: u64,
    net_bytes: u64,
    phases: u64,
    chunks: u64,
}

/// Run `name` over `transport`: one-shot on the base graph, then the full
/// mutation history incrementally, snapshotting after every run.
fn transcript(name: &str, transport: TransportKind, machines: usize, seed: u64) -> Vec<RunSnapshot> {
    let (base, batches) = random_workload(seed, 24, 40, 3, 6);
    let src = programs::source(name).unwrap();
    let mut input = if programs::is_undirected(name) {
        GraphInput::undirected(base)
    } else {
        GraphInput::directed(base)
    };
    input.num_vertices = 24;
    let max_ss = if name == "pr" { 10 } else { usize::MAX };

    let mut sess = SessionBuilder::from_config(EngineConfig::default())
        .machines(machines)
        .parallel(false)
        .transport(transport)
        .max_supersteps(max_ss)
        .from_source(&src, &input)
        .expect("session builds");

    let mut out = Vec::new();
    let m = sess.run_oneshot();
    out.push(snapshot(&sess, name, &m));
    for batch in &batches {
        sess.apply_mutations(batch);
        let m = sess.run_incremental();
        out.push(snapshot(&sess, name, &m));
    }
    out
}

fn snapshot(
    sess: &itg_engine::Session,
    name: &str,
    m: &itg_engine::RunMetrics,
) -> RunSnapshot {
    RunSnapshot {
        attrs: attr_names(name)
            .iter()
            .map(|a| (a.to_string(), sess.attr_column(a).unwrap()))
            .collect(),
        globals: global_names(name)
            .iter()
            .map(|g| (g.to_string(), sess.global_value(g, None).unwrap()))
            .collect(),
        supersteps: m.supersteps,
        work_units: m.work_units,
        recomputed_vertices: m.recomputed_vertices,
        net_bytes: m.io.net_bytes,
        phases: m.parallel.phases,
        chunks: m.parallel.chunks,
    }
}

/// The core property: local and process (UDS) transcripts are identical.
fn check_transports_agree(name: &str, machines: usize, workers: usize, seed: u64) {
    let local = transcript(name, TransportKind::Local, machines, seed);
    let uds = TransportKind::Cluster(ClusterSpec::uds(workers));
    let process = transcript(name, uds, machines, seed);
    assert_eq!(
        local.len(),
        process.len(),
        "{name}: run count diverged (seed {seed})"
    );
    for (i, (l, p)) in local.iter().zip(&process).enumerate() {
        assert_eq!(
            l, p,
            "{name}: run {i} diverged between local and process transports \
             (machines={machines}, workers={workers}, seed={seed})"
        );
    }
}

/// The three-plane property: local, loopback TCP, and Unix-domain
/// sockets all produce the same transcript. The socket planes run the
/// handshake and (for `max_hops <= 1` programs) the sliced bootstrap.
fn check_all_planes_agree(name: &str, machines: usize, workers: usize, seed: u64) {
    let local = transcript(name, TransportKind::Local, machines, seed);
    for (label, spec) in [
        ("tcp", ClusterSpec::tcp(workers)),
        ("uds", ClusterSpec::uds(workers)),
    ] {
        let got = transcript(name, TransportKind::Cluster(spec), machines, seed);
        assert_eq!(
            local, got,
            "{name}: {label} plane diverged from local \
             (machines={machines}, workers={workers}, seed={seed})"
        );
    }
}

// The process-transport tests spawn `itg-partition-worker` children that
// dial back over a Unix-domain socket; gated to unix per the CI matrix.

#[cfg(unix)]
#[test]
fn pr_process_matches_local() {
    // Two workers, each owning two of the four partition groups.
    check_transports_agree("pr", 4, 2, 5);
}

#[cfg(unix)]
#[test]
fn wcc_process_matches_local() {
    check_transports_agree("wcc", 4, 2, 6);
}

#[cfg(unix)]
#[test]
fn wcc_one_worker_per_machine_matches_local() {
    // workers = 0 resolves to one process per machine.
    check_transports_agree("wcc", 3, 0, 7);
}

#[cfg(unix)]
#[test]
fn tc_globals_match_across_transports() {
    // Triangle count is all-global output: exercises the partial global
    // reduction and the GlobalsFinal broadcast end to end.
    check_transports_agree("tc", 3, 2, 8);
}

#[cfg(unix)]
#[test]
fn single_worker_process_matches_local() {
    // Degenerate fleet: one child owns every machine; the coordinator
    // still runs barriers, frontier votes, and global reduction.
    check_transports_agree("wcc", 2, 1, 9);
}

#[cfg(unix)]
#[test]
fn pr_agrees_across_all_planes() {
    check_all_planes_agree("pr", 4, 2, 5);
}

#[cfg(unix)]
#[test]
fn wcc_agrees_across_all_planes() {
    check_all_planes_agree("wcc", 4, 2, 6);
}

#[cfg(unix)]
#[test]
fn tc_agrees_across_socket_planes() {
    // Multi-hop program: the bootstrap falls back to the full edge image
    // (slicing is gated on `max_hops <= 1`), so this covers the unsliced
    // socket path plus global reduction.
    check_all_planes_agree("tc", 3, 2, 8);
}

/// The sliced bootstrap ships each rank roughly its own 1-neighbourhood
/// closure, not the whole graph: per-rank `net/bootstrap_bytes` must be a
/// fraction of the single-worker (full image) cost.
#[cfg(unix)]
#[test]
fn sliced_bootstrap_ships_a_fraction_of_the_graph() {
    let (base, _) = random_workload(11, 64, 400, 0, 0);
    let mut input = GraphInput::undirected(base);
    input.num_vertices = 64;
    let src = programs::source("wcc").unwrap();
    let boot = |workers: usize| -> Vec<u64> {
        let sess = SessionBuilder::from_config(EngineConfig::default())
            .machines(4)
            .parallel(false)
            .cluster(ClusterSpec::tcp(workers))
            .from_source(&src, &input)
            .expect("session builds");
        sess.bootstrap_bytes().expect("cluster plane counts bootstrap")
    };
    // One worker owns everything: slicing is skipped, so this is the full
    // bootstrap payload (edges + program source + config).
    let full = boot(1)[0];
    let sliced = boot(4);
    assert_eq!(sliced.len(), 4);
    for (rank, &b) in sliced.iter().enumerate() {
        assert!(b < full, "rank {rank}: sliced bootstrap {b} >= full {full}");
        // Either-endpoint slicing keeps ~2/machines of the edges; allow
        // headroom for the non-edge payload (source, config, framing).
        assert!(
            b <= full / 2 + 1024,
            "rank {rank}: sliced bootstrap {b} too large vs full {full}"
        );
    }
}

/// The `net/bytes` observability counter under the local transport equals
/// the `net_bytes` the run metrics report (the pre-transport counter's
/// contract, preserved), while `net/messages` stays 0: cells cross
/// machines, and are charged, but no frame leaves the process.
#[test]
fn local_net_bytes_counter_matches_metrics() {
    let (base, batches) = random_workload(13, 24, 40, 2, 6);
    let mut input = GraphInput::undirected(base);
    input.num_vertices = 24;
    let mut sess = SessionBuilder::from_config(EngineConfig::default())
        .machines(3)
        .observer(itg_obs::Recorder::enabled())
        .from_source(&programs::source("wcc").unwrap(), &input)
        .unwrap();

    let m = sess.run_oneshot();
    let prof = m.profile.as_ref().expect("recorder enabled");
    assert!(m.io.net_bytes > 0, "multi-machine WCC must exchange bytes");
    assert_eq!(prof.counter_total("net/bytes"), m.io.net_bytes);
    assert_eq!(prof.counter_total("net/messages"), 0, "no frame leaves the process");

    for batch in &batches {
        sess.apply_mutations(batch);
        let m = sess.run_incremental();
        let prof = m.profile.as_ref().expect("recorder enabled");
        assert_eq!(prof.counter_total("net/bytes"), m.io.net_bytes);
        assert_eq!(prof.counter_total("net/messages"), 0, "no frame leaves the process");
    }
}

/// `global_value` with an out-of-range superstep is an error, not a
/// silent clamp.
#[test]
fn global_value_out_of_range_superstep_is_an_error() {
    use itg_engine::EngineError;
    let input = GraphInput::undirected(vec![(0, 1), (1, 2), (0, 2)]);
    let mut sess = SessionBuilder::from_config(EngineConfig::default())
        .machines(2)
        .from_source(&programs::source("tc").unwrap(), &input)
        .unwrap();
    let m = sess.run_oneshot();

    // In range: the last executed superstep and None (= 0) both resolve.
    assert!(sess.global_value("cnts", None).is_ok());
    assert!(sess.global_value("cnts", Some(m.supersteps - 1)).is_ok());

    // Out of range: a BadSuperstep error carrying both sides.
    match sess.global_value("cnts", Some(m.supersteps)) {
        Err(EngineError::BadSuperstep { requested, executed }) => {
            assert_eq!(requested, m.supersteps);
            assert_eq!(executed, m.supersteps);
        }
        other => panic!("expected BadSuperstep, got {other:?}"),
    }
}

/// Sync rounds the coordinator released in a run: its `net/barrier_wait`
/// span records one interval per released round.
fn sync_rounds(m: &itg_engine::RunMetrics) -> u64 {
    let prof = m.profile.as_ref().expect("recorder enabled");
    prof.spans.iter().filter(|s| s.path == "net/barrier_wait").map(|s| s.count).sum()
}

/// Every rank decides alone whether superstep `s` runs when `s < k_{t-1}`
/// (it does) or `s ≥ max_supersteps` (it does not), and PR's SUM lane
/// never asks for a recompute, so a PR refresh capped at the one-shot's
/// superstep count joins one sync round per superstep — the exchange's.
/// The one-shot votes before every superstep but the one at the cap. Both
/// are pinned by count, on two workers over UDS; `net/messages` counts
/// the workers' frames beside the coordinator's.
#[test]
fn a_capped_pr_refresh_joins_one_sync_round_per_superstep() {
    let (base, batches) = random_workload(17, 32, 60, 2, 6);
    let mut input = GraphInput::directed(base);
    input.num_vertices = 32;
    let cap = 6;
    let mut sess = SessionBuilder::from_config(EngineConfig::default())
        .machines(2)
        .max_supersteps(cap)
        .observer(itg_obs::Recorder::enabled())
        .cluster(ClusterSpec::uds(2))
        .from_source(&programs::source("pr").unwrap(), &input)
        .unwrap();

    let one = sess.run_oneshot();
    assert_eq!(one.supersteps, cap, "PR keeps every vertex active up to the cap");
    assert_eq!(sync_rounds(&one), 2 * cap as u64, "a vote before each superstep but the cap's");
    for batch in &batches {
        sess.apply_mutations(batch);
        let m = sess.run_incremental();
        assert_eq!(m.supersteps, cap);
        let rounds = sync_rounds(&m);
        assert_eq!(rounds, cap as u64, "one sync round per refresh superstep");
        // The coordinator writes the run's command and one release per
        // round to each worker; each worker writes one Sync per round and
        // its RunDone, besides its data frames and images.
        let messages = m.profile.as_ref().unwrap().counter_total("net/messages");
        assert!(messages >= 2 * (1 + rounds) + 2 * (rounds + 1), "{messages} messages");
    }
}
