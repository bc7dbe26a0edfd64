//! The registry holds one graph: with one live group its live bytes are
//! an isolated session's, and once every query is unregistered it holds
//! what the empty registry held. Live bytes come from a counting global
//! allocator, so this binary holds this one test, and every session runs
//! on one thread (the pool's thread spawns are not deterministic).

mod common;

use common::alloc::{live_bytes, CountingAlloc};
use itg_algorithms::programs;
use itg_engine::{EngineConfig, GraphInput, QueryRegistry, ServeLimits, SessionBuilder};
use itg_graphgen::rmat::{generate_undirected, RmatConfig};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

#[test]
fn the_registry_holds_one_graph() {
    let input = GraphInput::undirected(generate_undirected(&RmatConfig::paper_scale(14, 61)));
    let cfg = EngineConfig::default().with_threads(1);
    let wcc = programs::source("wcc").unwrap();
    let bfs = programs::source("bfs").unwrap();

    let before = live_bytes();
    let mut session = SessionBuilder::from_config(cfg.clone())
        .from_source(&wcc, &input)
        .unwrap();
    session.run_oneshot();
    let session_bytes = live_bytes() - before;
    drop(session);

    let before = live_bytes();
    let mut reg = QueryRegistry::new(&input, cfg, ServeLimits::default());
    let empty = live_bytes() - before;
    let w = reg.register("wcc", &wcc).unwrap();
    let one_group = live_bytes() - before;
    let b = reg.register("bfs", &bfs).unwrap();
    reg.unregister(w).unwrap();
    reg.unregister(b).unwrap();
    let left = live_bytes() - before - empty;

    let mb = |bytes: i64| bytes as f64 / 1e6;
    let at = format!(
        "session {:.2} MB, empty registry {:.2} MB, one group {:.2} MB, left {:.2} MB",
        mb(session_bytes),
        mb(empty),
        mb(one_group),
        mb(left)
    );
    eprintln!("{at}");
    assert!(
        one_group as f64 <= 1.1 * session_bytes as f64,
        "a registry with one group holds more than its session: {at}"
    );
    assert!(
        left as f64 <= 0.1 * session_bytes as f64,
        "unregistered groups left memory behind: {at}"
    );
}
