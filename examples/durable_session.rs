//! Durability walkthrough (DESIGN.md §9): run a triangle-count session
//! with a write-ahead log, "crash" it (drop without cleanup), recover it
//! from disk in a fresh session, and keep streaming mutations — the
//! recovered state is byte-identical to where the first session stopped.
//!
//! Run with: `cargo run --release --example durable_session`

use iturbograph::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let dir = std::env::temp_dir().join(format!("itg-durable-example-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let graph = GraphInput::undirected(vec![(0, 1), (0, 2), (1, 2), (2, 3)]);
    let mut session = SessionBuilder::new()
        .durability(DurabilityKind::Wal { dir: dir.clone() })
        .from_source(iturbograph::algorithms::TRIANGLE_COUNT, &graph)?;

    // Every command below is fsynced to the WAL *before* it executes.
    session.run_oneshot();
    session.apply_mutations(&MutationBatch::new(vec![EdgeMutation::insert(1, 3)]));
    session.run_incremental();
    println!("before crash: cnts = {:?}", session.global_value("cnts", None)?);

    // Optional: a checkpoint snapshots full state and bounds WAL replay.
    let snap = session.checkpoint()?;
    println!("checkpointed epoch {}", snap.0);

    // Simulate a crash: the process state is gone, only `dir` survives.
    drop(session);

    // Recovery = latest snapshot + WAL-tail replay, to the exact state.
    let mut session = Session::recover(&dir)?;
    println!("recovered:    cnts = {:?}", session.global_value("cnts", None)?);
    assert_eq!(session.global_value("cnts", None)?, Value::Long(2));

    // The recovered session keeps working — still durable. Edge (0, 3)
    // closes two new triangles: (0, 1, 3) and (0, 2, 3).
    session.apply_mutations(&MutationBatch::new(vec![EdgeMutation::insert(0, 3)]));
    session.run_incremental();
    println!("after batch:  cnts = {:?}", session.global_value("cnts", None)?);
    assert_eq!(session.global_value("cnts", None)?, Value::Long(4));

    let _ = std::fs::remove_dir_all(&dir);
    Ok(())
}
