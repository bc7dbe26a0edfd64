//! End-to-end `itg serve` protocol robustness: a long-lived server must
//! print an `error:` line and keep the session alive on malformed or
//! out-of-order commands, and a `ServeLimits` rejection must leave every
//! registered query's results exactly as they were. Drives the real
//! binary (`CARGO_BIN_EXE_itg`) over a scripted session.

use std::path::PathBuf;
use std::process::Command;

// WCC: the `comp` attribute gives QUERY a per-vertex result to print.
const WCC: &str = "Vertex (id, active, nbrs, comp: long, m: Accm<long, MIN>)
     Initialize (u): { u.comp = u.id; u.active = true; }
     Traverse (u): { For v in u.nbrs { v.m.Accumulate(u.comp); } }
     Update (u): { If (u.m < u.comp) { u.comp = u.m; u.active = true; } }";

fn fresh_dir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("itg-serve-protocol-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Runs of consecutive output lines starting with two spaces are QUERY
/// result blocks, in script order.
fn query_blocks(stdout: &str) -> Vec<Vec<String>> {
    let mut blocks = Vec::new();
    let mut cur: Vec<String> = Vec::new();
    for line in stdout.lines() {
        if line.starts_with("  ") {
            cur.push(line.to_string());
        } else if !cur.is_empty() {
            blocks.push(std::mem::take(&mut cur));
        }
    }
    if !cur.is_empty() {
        blocks.push(cur);
    }
    blocks
}

#[test]
fn malformed_commands_and_rejections_leave_the_session_serving() {
    let dir = fresh_dir();
    let edges = dir.join("edges.txt");
    let program = dir.join("deg.lnga");
    let script = dir.join("script.txt");
    std::fs::write(&edges, "0 1\n1 2\n").unwrap();
    std::fs::write(&program, WCC).unwrap();
    std::fs::write(
        &script,
        format!(
            "REGISTER deg {p}\n\
             QUERY deg\n\
             BATCH\n\
             + 3 4\n\
             bogus line inside a batch\n\
             + x y\n\
             COMMIT\n\
             QUERY deg\n\
             FROB\n\
             COMMIT\n\
             UNREGISTER nope\n\
             QUERY deg\n\
             BATCH\n\
             + 5 6\n\
             + 6 7\n\
             + 7 8\n\
             COMMIT\n\
             QUERY deg\n\
             BATCH\n\
             + 4 5\n\
             COMMIT\n\
             QUERY deg\n\
             QUIT\n",
            p = program.display()
        ),
    )
    .unwrap();

    let out = Command::new(env!("CARGO_BIN_EXE_itg"))
        .args([
            "serve",
            edges.to_str().unwrap(),
            "--undirected",
            "--script",
            script.to_str().unwrap(),
            "--max-batch-edges",
            "2",
        ])
        .output()
        .unwrap();
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(
        out.status.success(),
        "serve must survive every protocol error; stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );

    // Every malformed / out-of-order command produced its error line…
    for needle in [
        "error: line 5: expected mutation or COMMIT, got `bogus`; batch still open",
        "error: line 6: expected `+|- src dst`; line ignored, batch still open",
        "error: line 9: unknown command `FROB`",
        "error: line 10: COMMIT without an open BATCH",
        "error: line 11: unknown query `nope`",
        "rejected: batch of 3 mutations exceeds the 2 limit",
    ] {
        assert!(stdout.contains(needle), "missing `{needle}` in:\n{stdout}");
    }

    // …and the session kept working: the good mutation in the first batch
    // committed, and a post-rejection batch committed too.
    assert!(stdout.contains("committed batch 1:"), "{stdout}");
    assert!(stdout.contains("committed batch 2:"), "{stdout}");

    // QUERY blocks: initial, after batch 1, after the error volley, after
    // the rejection, after batch 2.
    let blocks = query_blocks(&stdout);
    assert_eq!(blocks.len(), 5, "five QUERY outputs in:\n{stdout}");
    assert_ne!(blocks[0], blocks[1], "batch 1 changed the results");
    assert_eq!(
        blocks[1], blocks[2],
        "protocol errors must not change any query's results"
    );
    assert_eq!(
        blocks[2], blocks[3],
        "a ServeLimits rejection must leave results untouched"
    );
    assert_ne!(blocks[3], blocks[4], "batch 2 changed the results");

    let _ = std::fs::remove_dir_all(&dir);
}

/// `itg run` and `itg serve` with `ITG_TRANSPORT=bogus`: exit 1 with an
/// `itg: configuration: …` line, not a panic.
#[test]
fn a_garbage_transport_knob_is_a_configuration_error() {
    let dir = std::env::temp_dir().join(format!("itg-bad-knob-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let edges = dir.join("edges.txt");
    let program = dir.join("wcc.lnga");
    std::fs::write(&edges, "0 1\n1 2\n").unwrap();
    std::fs::write(&program, WCC).unwrap();
    let (edges, program) = (edges.to_str().unwrap(), program.to_str().unwrap());
    for args in [
        vec!["run", program, edges, "--undirected"],
        vec!["serve", edges, "--undirected", "--script", "/dev/null"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_itg"))
            .args(&args)
            .env("ITG_TRANSPORT", "bogus")
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(
            stderr.starts_with("itg: configuration: "),
            "{args:?}: {stderr}"
        );
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
