//! `itg` — the iTurboGraph command-line runner.
//!
//! ```text
//! itg check   <program.lnga>                 type-check a program
//! itg explain <program.lnga>                 print P_Q, P_ΔQ and the Δ-plan
//! itg run     <program.lnga> <edges.txt>     one-shot run, print results
//!     [--undirected] [--machines N] [--max-supersteps N]
//!     [--mutations <muts.txt>]               then incremental batches
//! itg serve   <edges.txt>                    standing-query server
//!     [--undirected] [--machines N] [--max-supersteps N]
//!     [--script <cmds.txt>]                  command file (default: stdin)
//!     [--max-queries N] [--max-batch-edges N] [--batch-budget-ms N]
//! ```
//!
//! Edge files are whitespace-separated `src dst` pairs, one per line;
//! `#`-prefixed lines are comments. Mutation files use `+ src dst` /
//! `- src dst` lines, with blank lines separating batches.
//!
//! `serve` reads a line protocol (from `--script` or stdin) and drives a
//! [`QueryRegistry`]: structurally identical registered queries share one
//! backing session, so their Δ-plans run once per committed batch:
//!
//! ```text
//! REGISTER <name> <program.lnga>    register a standing query
//! UNREGISTER <name>                 remove it
//! BATCH                             start collecting mutations …
//! + <src> <dst>                     …an edge insert
//! - <src> <dst>                     …an edge delete
//! COMMIT                            apply the batch, refresh all queries
//! QUERY <name>                      print the query's current results
//! STATS                             registry-wide sharing counters
//! QUIT                              stop (EOF works too)
//! ```
//!
//! A long-lived server must survive operator typos: malformed or
//! out-of-order commands (a bad `+ src dst`, `COMMIT` without `BATCH`, an
//! unknown query name) print an `error: line N: …` line and the session
//! keeps going — only I/O failures reading the script itself are fatal.
//! Registry-level rejections ([`ServeLimits`]) likewise print `rejected:`
//! and leave the registry state untouched.

use iturbograph::prelude::*;
use std::fs;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("itg: {msg}");
            ExitCode::from(1)
        }
    }
}

fn run(args: &[String]) -> Result<(), String> {
    let cmd = args.first().map(|s| s.as_str()).unwrap_or("help");
    match cmd {
        "check" => {
            let src = read(arg(args, 1, "program path")?)?;
            let program = compile_source(&src).map_err(|e| e.to_string())?;
            println!(
                "ok: {} attrs, {} accumulators, {} globals, {} walk queries, max {} hops",
                program.symbols.attrs.len(),
                program.symbols.accms.len(),
                program.symbols.globals.len(),
                program.traverse.queries.len(),
                program.max_hops,
            );
            Ok(())
        }
        "explain" => {
            let src = read(arg(args, 1, "program path")?)?;
            let program = compile_source(&src).map_err(|e| e.to_string())?;
            println!("=== one-shot plan P_Q ===\n{}", program.algebra.explain());
            println!("=== incremental plan P_ΔQ ===\n{}", program.algebra_delta.explain());
            println!("=== executable Δ-plan ===\n{}", program.explain_delta_plan());
            Ok(())
        }
        "run" => {
            let src = read(arg(args, 1, "program path")?)?;
            let edges = parse_edges(&read(arg(args, 2, "edge file")?)?)?;
            let undirected = flag(args, "--undirected");
            let input = if undirected {
                GraphInput::undirected(edges)
            } else {
                GraphInput::directed(edges)
            };
            let cfg = config(args)?;
            let mut session =
                SessionBuilder::from_config(cfg).from_source(&src, &input).map_err(|e| e.to_string())?;
            let one = session.run_oneshot();
            println!("one-shot: {}", one.summary());
            print_results(&session);

            if let Some(path) = opt_str(args, "--mutations") {
                let batches = parse_mutations(&read(&path)?)?;
                for (i, batch) in batches.into_iter().enumerate() {
                    session.apply_mutations(&batch);
                    let inc = session.run_incremental();
                    println!("\nbatch {}: {}", i + 1, inc.summary());
                    print_results(&session);
                }
            }
            Ok(())
        }
        "serve" => serve(args),
        _ => {
            eprintln!(
                "usage: itg <check|explain|run|serve> <program.lnga|edges.txt> [edges.txt] \
                 [--undirected] [--machines N] [--max-supersteps N] [--mutations muts.txt] \
                 [--script cmds.txt] [--max-queries N] [--max-batch-edges N] \
                 [--batch-budget-ms N]"
            );
            Err("unknown command".into())
        }
    }
}

/// The engine configuration of `run` and `serve`: the `--machines` and
/// `--max-supersteps` flags over the environment, so the consolidated
/// knobs (`ITG_WAL_DIR`, `ITG_PROFILE`, …) work on the CLI surface. A
/// garbage knob is an `itg: configuration: …` error, not a panic.
fn config(args: &[String]) -> Result<EngineConfig, String> {
    let machines: usize = opt(args, "--machines")?.unwrap_or(1);
    let max_supersteps = opt(args, "--max-supersteps")?.unwrap_or(usize::MAX);
    let env = EngineConfig::try_from_env_lookup(|k| std::env::var(k).ok());
    Ok(EngineConfig {
        machines,
        parallel: machines > 1,
        max_supersteps,
        ..env.map_err(|e| e.to_string())?
    })
}

/// The `itg serve` loop: build a [`QueryRegistry`] over the edge file and
/// drive it from the line protocol (see the module docs).
fn serve(args: &[String]) -> Result<(), String> {
    let edges = parse_edges(&read(arg(args, 1, "edge file")?)?)?;
    let undirected = flag(args, "--undirected");
    let input = if undirected {
        GraphInput::undirected(edges)
    } else {
        GraphInput::directed(edges)
    };
    let cfg = config(args)?;
    // The limit flags override `ServeLimits::default()`.
    let mut limits = ServeLimits::default();
    if let Some(n) = opt(args, "--max-queries")? {
        limits.max_queries = n;
    }
    if let Some(n) = opt(args, "--max-batch-edges")? {
        limits.max_batch_edges = n;
    }
    if let Some(ms) = opt(args, "--batch-budget-ms")? {
        limits.batch_budget_ms = Some(ms);
    }
    let mut registry = QueryRegistry::new(&input, cfg, limits);

    let script: Box<dyn std::io::BufRead> = match opt_str(args, "--script") {
        Some(path) => Box::new(std::io::BufReader::new(
            fs::File::open(&path).map_err(|e| format!("{path}: {e}"))?,
        )),
        None => Box::new(std::io::BufReader::new(std::io::stdin())),
    };

    let mut names: std::collections::BTreeMap<String, QueryId> = std::collections::BTreeMap::new();
    let mut pending: Option<Vec<EdgeMutation>> = None;
    for (ln, line) in std::io::BufRead::lines(script).enumerate() {
        let line = line.map_err(|e| e.to_string())?;
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        // Protocol errors are not fatal: a standing-query server must
        // outlive operator typos, so every malformed or out-of-order
        // command prints an `error:` line and the loop keeps reading.
        let at = |msg: String| format!("error: line {}: {msg}", ln + 1);
        let mut it = line.split_whitespace();
        let cmd = it.next().unwrap_or("");
        // Inside a BATCH, only mutation lines and COMMIT are meaningful.
        if let Some(muts) = pending.as_mut() {
            match cmd {
                "+" | "-" => {
                    let s = it.next().and_then(|t| t.parse::<u64>().ok());
                    let d = it.next().and_then(|t| t.parse::<u64>().ok());
                    match (s, d) {
                        (Some(s), Some(d)) => muts.push(if cmd == "+" {
                            EdgeMutation::insert(s, d)
                        } else {
                            EdgeMutation::delete(s, d)
                        }),
                        _ => println!(
                            "{}",
                            at("expected `+|- src dst`; line ignored, batch still open".into())
                        ),
                    }
                }
                "COMMIT" => {
                    let batch = MutationBatch::new(pending.take().unwrap());
                    match registry.commit(&batch) {
                        Ok(stats) => println!(
                            "committed batch {}: {} plan run(s) served {} quer{}, \
                             {} share hit(s), {} ms{}",
                            stats.epoch,
                            stats.groups_run,
                            stats.queries_served,
                            if stats.queries_served == 1 { "y" } else { "ies" },
                            stats.share_hits,
                            stats.elapsed_ms,
                            if stats.over_budget { " (OVER BUDGET)" } else { "" },
                        ),
                        Err(e) => println!("rejected: {e}"),
                    }
                }
                other => println!(
                    "{}",
                    at(format!(
                        "expected mutation or COMMIT, got `{other}`; batch still open"
                    ))
                ),
            }
            continue;
        }
        match cmd {
            "REGISTER" => {
                let (Some(name), Some(path)) = (it.next(), it.next()) else {
                    println!("{}", at("REGISTER <name> <path>".into()));
                    continue;
                };
                let src = match read(path) {
                    Ok(src) => src,
                    Err(e) => {
                        println!("{}", at(e));
                        continue;
                    }
                };
                match registry.register(name, &src) {
                    Ok(id) => {
                        names.insert(name.to_string(), id);
                        println!(
                            "registered {name} as {id} ({} quer{}, {} shared group(s))",
                            registry.num_queries(),
                            if registry.num_queries() == 1 { "y" } else { "ies" },
                            registry.num_groups(),
                        );
                    }
                    Err(e) => println!("rejected: {e}"),
                }
            }
            "UNREGISTER" => {
                let Some(name) = it.next() else {
                    println!("{}", at("UNREGISTER <name>".into()));
                    continue;
                };
                let Some(&id) = names.get(name) else {
                    println!("{}", at(format!("unknown query `{name}`")));
                    continue;
                };
                match registry.unregister(id) {
                    Ok(()) => {
                        names.remove(name);
                        println!("unregistered {name}");
                    }
                    Err(e) => println!("{}", at(e.to_string())),
                }
            }
            "BATCH" => pending = Some(Vec::new()),
            "COMMIT" => println!(
                "{}",
                at("COMMIT without an open BATCH; start one with `BATCH`".into())
            ),
            "QUERY" => {
                let Some(name) = it.next() else {
                    println!("{}", at("QUERY <name>".into()));
                    continue;
                };
                let Some(&id) = names.get(name) else {
                    println!("{}", at(format!("unknown query `{name}`")));
                    continue;
                };
                print_registry_results(&registry, id);
            }
            "STATS" => println!(
                "{} quer{}, {} shared group(s), {} unique walk shape(s), \
                 {} share hit(s), epoch {}",
                registry.num_queries(),
                if registry.num_queries() == 1 { "y" } else { "ies" },
                registry.num_groups(),
                registry.unique_subplans(),
                registry.share_hits(),
                registry.epoch(),
            ),
            "QUIT" => break,
            other => println!("{}", at(format!("unknown command `{other}`"))),
        }
    }
    Ok(())
}

/// `QUERY <name>` output: globals, then the first few vertex attributes —
/// resolved through the query's *own* symbol names (its share-group
/// leader may use different ones).
fn print_registry_results(registry: &QueryRegistry, id: QueryId) {
    let program = registry.query_program(id).expect("registered");
    for g in &program.symbols.globals {
        if let Ok(v) = registry.global_value(id, &g.name) {
            println!("  global {} = {}", g.name, v);
        }
    }
    let attrs: Vec<String> = program.symbols.attrs[1..]
        .iter()
        .map(|a| a.name.clone())
        .collect();
    if attrs.is_empty() {
        return;
    }
    let n = registry.num_vertices().min(10);
    for v in 0..n as u64 {
        let vals: Vec<String> = attrs
            .iter()
            .map(|a| {
                registry
                    .attr_value(id, v, a)
                    .map(|x| format!("{a}={x}"))
                    .unwrap_or_default()
            })
            .collect();
        println!("  v{v}: {}", vals.join("  "));
    }
}

fn arg<'a>(args: &'a [String], i: usize, what: &str) -> Result<&'a str, String> {
    args.get(i)
        .map(|s| s.as_str())
        .ok_or_else(|| format!("missing {what}"))
}

fn flag(args: &[String], name: &str) -> bool {
    args.iter().any(|a| a == name)
}

fn opt_str(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

fn opt<T: std::str::FromStr>(args: &[String], name: &str) -> Result<Option<T>, String> {
    match opt_str(args, name) {
        None => Ok(None),
        Some(v) => v
            .parse()
            .map(Some)
            .map_err(|_| format!("invalid value for {name}: {v}")),
    }
}

fn read(path: &str) -> Result<String, String> {
    fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))
}

fn parse_edges(text: &str) -> Result<Vec<(u64, u64)>, String> {
    let mut out = Vec::new();
    for (ln, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut it = line.split_whitespace();
        let s: u64 = it
            .next()
            .and_then(|t| t.parse().ok())
            .ok_or_else(|| format!("line {}: expected `src dst`", ln + 1))?;
        let d: u64 = it
            .next()
            .and_then(|t| t.parse().ok())
            .ok_or_else(|| format!("line {}: expected `src dst`", ln + 1))?;
        out.push((s, d));
    }
    Ok(out)
}

fn parse_mutations(text: &str) -> Result<Vec<MutationBatch>, String> {
    let mut batches = Vec::new();
    let mut current: Vec<EdgeMutation> = Vec::new();
    for (ln, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.starts_with('#') {
            continue;
        }
        if line.is_empty() {
            if !current.is_empty() {
                batches.push(MutationBatch::new(std::mem::take(&mut current)));
            }
            continue;
        }
        let mut it = line.split_whitespace();
        let sign = it.next().unwrap_or("");
        let s: u64 = it
            .next()
            .and_then(|t| t.parse().ok())
            .ok_or_else(|| format!("line {}: expected `+|- src dst`", ln + 1))?;
        let d: u64 = it
            .next()
            .and_then(|t| t.parse().ok())
            .ok_or_else(|| format!("line {}: expected `+|- src dst`", ln + 1))?;
        match sign {
            "+" => current.push(EdgeMutation::insert(s, d)),
            "-" => current.push(EdgeMutation::delete(s, d)),
            other => return Err(format!("line {}: bad sign `{other}`", ln + 1)),
        }
    }
    if !current.is_empty() {
        batches.push(MutationBatch::new(current));
    }
    Ok(batches)
}

fn print_results(session: &Session) {
    // Globals.
    for g in &session.program.symbols.globals {
        if let Ok(v) = session.global_value(&g.name, None) {
            println!("  global {} = {}", g.name, v);
        }
    }
    // First few vertices' non-accm attributes (skip `active`).
    let n = session.graph.num_vertices().min(10);
    let attrs: Vec<String> = session.program.symbols.attrs[1..]
        .iter()
        .map(|a| a.name.clone())
        .collect();
    if attrs.is_empty() {
        return;
    }
    for v in 0..n as u64 {
        let vals: Vec<String> = attrs
            .iter()
            .map(|a| {
                session
                    .attr_value(v, a)
                    .map(|x| format!("{a}={x}"))
                    .unwrap_or_default()
            })
            .collect();
        println!("  v{v}: {}", vals.join("  "));
    }
    if session.graph.num_vertices() > 10 {
        println!("  … ({} vertices total)", session.graph.num_vertices());
    }
}
