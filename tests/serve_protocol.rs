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

/// A scratch directory holding the WCC program and a two-edge graph.
fn wcc_fixture(tag: &str) -> (PathBuf, String, String) {
    let dir = std::env::temp_dir().join(format!("itg-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let edges = dir.join("edges.txt");
    let program = dir.join("wcc.lnga");
    std::fs::write(&edges, "0 1\n1 2\n").unwrap();
    std::fs::write(&program, WCC).unwrap();
    let (edges, program) = (edges.display().to_string(), program.display().to_string());
    (dir, program, edges)
}

fn sample(name: &str) -> String {
    format!("{}/../../samples/{name}", env!("CARGO_MANIFEST_DIR"))
}

/// `itg run` and `itg serve` with `--transport bogus` (or the retired
/// `pipes` link): exit 1 with an `itg: configuration: …` line, not a
/// panic.
#[test]
fn a_garbage_transport_knob_is_a_configuration_error() {
    let (dir, program, edges) = wcc_fixture("bad-knob");
    let (program, edges) = (program.as_str(), edges.as_str());
    for name in ["bogus", "pipes"] {
        for args in [
            vec!["run", program, edges, "--undirected", "--transport", name],
            vec!["serve", edges, "--undirected", "--script", "/dev/null", "--transport", name],
        ] {
            let out = Command::new(env!("CARGO_BIN_EXE_itg")).args(&args).output().unwrap();
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
            assert!(
                stderr.starts_with("itg: configuration: "),
                "{args:?}: {stderr}"
            );
            assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The environment configures no session: under `ITG_WAL_DIR` and a
/// garbage `ITG_TRANSPORT`, `itg serve` runs locally and without a log —
/// both queries register, the batch commits through both plans, and the
/// directory stays empty.
#[test]
fn itg_serve_ignores_the_retired_environment_knobs() {
    let dir = std::env::temp_dir().join(format!("itg-serve-wal-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let wal = dir.join("wal");
    std::fs::create_dir_all(&wal).unwrap();
    let edges = dir.join("edges.txt");
    let script = dir.join("script.txt");
    std::fs::write(&edges, "0 1\n0 2\n1 2\n2 3\n").unwrap();
    std::fs::write(
        &script,
        format!(
            "REGISTER t {t}\nREGISTER p {p}\nBATCH\n+ 1 3\nCOMMIT\nSTATS\nQUIT\n",
            t = sample("triangles.lnga"),
            p = sample("pagerank.lnga"),
        ),
    )
    .unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_itg"))
        .args(["serve", edges.to_str().unwrap(), "--undirected", "--max-supersteps", "10"])
        .args(["--script", script.to_str().unwrap()])
        .env("ITG_WAL_DIR", &wal)
        .env("ITG_TRANSPORT", "bogus")
        .output()
        .unwrap();
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(stdout.contains("registered t as "), "{stdout}");
    assert!(stdout.contains("registered p as "), "{stdout}");
    assert!(!stdout.contains("rejected: "), "{stdout}");
    assert!(stdout.contains("committed batch 1: 2 plan run(s)"), "{stdout}");
    let left: Vec<_> = std::fs::read_dir(&wal).unwrap().collect();
    assert!(left.is_empty(), "the WAL directory holds {left:?}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// `itg run --wal-dir D` makes the session durable: `D` holds a snapshot
/// and a WAL segment afterwards.
#[test]
fn itg_run_with_a_wal_dir_leaves_a_snapshot_and_a_log_segment() {
    let wal = std::env::temp_dir().join(format!("itg-run-wal-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&wal);
    let out = Command::new(env!("CARGO_BIN_EXE_itg"))
        .args(["run", &sample("pagerank.lnga"), &sample("g0.edges")])
        .args(["--max-supersteps", "10", "--mutations", &sample("g0.muts")])
        .args(["--wal-dir", wal.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let names: Vec<String> = std::fs::read_dir(&wal)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    let has = |prefix: &str, suffix: &str| {
        names.iter().any(|n| n.starts_with(prefix) && n.ends_with(suffix))
    };
    assert!(has("snapshot-", ".bin"), "no snapshot in {names:?}");
    assert!(has("wal-", ".log"), "no WAL segment in {names:?}");
    let _ = std::fs::remove_dir_all(&wal);
}

/// An engine error during `itg run` — here a refresh of a program whose
/// Initialize reads a degree, which no incremental plan can maintain —
/// is an `itg: …` line and exit 1, the contract configuration errors
/// already keep, not a panic.
#[test]
fn itg_run_reports_an_engine_error_instead_of_panicking() {
    let (dir, _, edges) = wcc_fixture("run-error");
    let program = dir.join("deg.lnga");
    let muts = dir.join("muts.txt");
    std::fs::write(
        &program,
        "Vertex (id, active, nbrs, degree, d: long, c: Accm<long, SUM>)
         Initialize (u): { u.d = u.degree; u.active = true; }
         Traverse (u): { For v in u.nbrs { v.c.Accumulate(1); } }
         Update (u): { }",
    )
    .unwrap();
    std::fs::write(&muts, "+ 2 3\n").unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_itg"))
        .args(["run", program.to_str().unwrap(), &edges, "--undirected"])
        .args(["--mutations", muts.to_str().unwrap()])
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.starts_with("itg: unsupported program: "), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Each subcommand accepts only the flags it lists: a misspelt flag
/// (`--machine 4`), another subcommand's flag (`serve --wal-dir D`), a
/// value flag with no value (a trailing `--machines`) and an argument past
/// the listed ones each exit 1 with an `itg: unknown flag …` or
/// `itg: missing value for …` line — and `serve --wal-dir D` writes
/// nothing to `D`.
#[test]
fn unknown_flags_and_missing_values_are_errors() {
    let (dir, program, edges) = wcc_fixture("bad-flags");
    let (program, edges) = (program.as_str(), edges.as_str());
    let wal = dir.join("wal");
    let wal = wal.to_str().unwrap();
    let cases = [
        (vec!["run", program, edges, "--undirected", "--machine", "4"], "itg: unknown flag `--machine`"),
        (vec!["serve", edges, "--script", "/dev/null", "--wal-dir", wal], "itg: unknown flag `--wal-dir`"),
        (vec!["run", program, edges, "--undirected", "--machines"], "itg: missing value for --machines"),
        (vec!["serve", edges, "--machines", "--undirected"], "itg: missing value for --machines"),
        (vec!["run", program, edges, edges], "itg: unknown flag `"),
        (vec!["check", program, "--undirected"], "itg: unknown flag `--undirected`"),
    ];
    for (args, want) in cases {
        let out = Command::new(env!("CARGO_BIN_EXE_itg")).args(&args).output().unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(stderr.starts_with(want), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} ran: {}", String::from_utf8_lossy(&out.stdout));
    }
    assert!(!std::path::Path::new(wal).exists(), "serve --wal-dir wrote {wal}");
    // The listed flags still parse, in any order.
    let out = Command::new(env!("CARGO_BIN_EXE_itg"))
        .args(["run", "--machines", "2", program, "--undirected", edges])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let _ = std::fs::remove_dir_all(&dir);
}
