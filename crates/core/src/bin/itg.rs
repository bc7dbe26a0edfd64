//! `itg` — the iTurboGraph command-line runner.
//!
//! ```text
//! itg check   <program.lnga>                 type-check a program
//! itg explain <program.lnga>                 print P_Q, P_ΔQ and the Δ-plan
//! itg run     <program.lnga> <edges.txt>     one-shot run, print results
//!     [--undirected] [--machines N] [--max-supersteps N]
//!     [--transport local|tcp[://ADDR]|uds[://DIR]]
//!     [--wal-dir <dir>]                      log and checkpoint the session
//!     [--mutations <muts.txt>]               then incremental batches
//! itg serve   <edges.txt>                    standing-query server
//!     [--undirected] [--machines N] [--max-supersteps N]
//!     [--transport local|tcp[://ADDR]|uds[://DIR]]
//!     [--script <cmds.txt>]                  command file (default: stdin)
//!     [--max-queries N] [--max-batch-edges N] [--batch-budget-ms N]
//! ```
//!
//! No environment variable picks the exchange plane or makes a session
//! durable: `--transport` and `--wal-dir` do. Each subcommand accepts only
//! the flags listed under it: an unknown or misspelt flag, a value flag
//! without its value, or an argument past the listed ones is an error.
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

use iturbograph::engine::config::parse_transport;
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

/// The flags of `run` and `serve` that take a value, besides their own.
const ENGINE_FLAGS: [&str; 3] = ["--machines", "--max-supersteps", "--transport"];

fn run(args: &[String]) -> Result<(), String> {
    let cmd = args.first().map(|s| s.as_str()).unwrap_or("help");
    let rest = args.get(1..).unwrap_or_default();
    let program_only = || Args::parse(rest, &["program path"], &[], &[]);
    match cmd {
        "check" => {
            let src = read(program_only()?.arg(0))?;
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
            let src = read(program_only()?.arg(0))?;
            let program = compile_source(&src).map_err(|e| e.to_string())?;
            println!("=== one-shot plan P_Q ===\n{}", program.algebra.explain());
            println!("=== incremental plan P_ΔQ ===\n{}", program.algebra_delta.explain());
            println!("=== executable Δ-plan ===\n{}", program.explain_delta_plan());
            Ok(())
        }
        "run" => {
            let values = [&ENGINE_FLAGS[..], &["--wal-dir", "--mutations"]].concat();
            let args = Args::parse(rest, &["program path", "edge file"], &["--undirected"], &values)?;
            let src = read(args.arg(0))?;
            let edges = parse_edges(&read(args.arg(1))?)?;
            let input = if args.flag("--undirected") {
                GraphInput::undirected(edges)
            } else {
                GraphInput::directed(edges)
            };
            let mut cfg = config(&args)?;
            if let Some(dir) = args.opt_str("--wal-dir") {
                cfg.durability = DurabilityKind::Wal { dir: dir.into() };
            }
            let mut session =
                SessionBuilder::from_config(cfg).from_source(&src, &input).map_err(|e| e.to_string())?;
            let one = session.try_run_oneshot().map_err(|e| e.to_string())?;
            println!("one-shot: {}", one.summary());
            print_results(&session);

            if let Some(path) = args.opt_str("--mutations") {
                let batches = parse_mutations(&read(path)?)?;
                for (i, batch) in batches.into_iter().enumerate() {
                    session.apply_mutations(&batch);
                    let inc = session.try_run_incremental().map_err(|e| e.to_string())?;
                    println!("\nbatch {}: {}", i + 1, inc.summary());
                    print_results(&session);
                }
            }
            Ok(())
        }
        "serve" => {
            let own = ["--script", "--max-queries", "--max-batch-edges", "--batch-budget-ms"];
            let values = [&ENGINE_FLAGS[..], &own].concat();
            serve(&Args::parse(rest, &["edge file"], &["--undirected"], &values)?)
        }
        _ => {
            eprintln!(
                "usage: itg <check|explain|run|serve> <program.lnga|edges.txt> [edges.txt] \
                 [--undirected] [--machines N] [--max-supersteps N] [--transport NAME] \
                 [--wal-dir DIR] [--mutations muts.txt] [--script cmds.txt] [--max-queries N] \
                 [--max-batch-edges N] [--batch-budget-ms N]"
            );
            Err("unknown command".into())
        }
    }
}

/// The engine configuration of `run` and `serve`: the `--machines`,
/// `--max-supersteps` and `--transport` flags over
/// [`EngineConfig::default`]. A garbage transport name is an
/// `itg: configuration: …` error, not a panic.
fn config(args: &Args) -> Result<EngineConfig, String> {
    let machines: usize = args.opt("--machines")?.unwrap_or(1);
    let mut cfg = EngineConfig {
        machines,
        parallel: machines > 1,
        max_supersteps: args.opt("--max-supersteps")?.unwrap_or(usize::MAX),
        ..EngineConfig::default()
    };
    if let Some(name) = args.opt_str("--transport") {
        cfg.transport = parse_transport(name).map_err(|e| e.to_string())?;
    }
    Ok(cfg)
}

/// The `itg serve` loop: build a [`QueryRegistry`] over the edge file and
/// drive it from the line protocol (see the module docs).
fn serve(args: &Args) -> Result<(), String> {
    let edges = parse_edges(&read(args.arg(0))?)?;
    let input = if args.flag("--undirected") {
        GraphInput::undirected(edges)
    } else {
        GraphInput::directed(edges)
    };
    let cfg = config(args)?;
    // The limit flags override `ServeLimits::default()`.
    let mut limits = ServeLimits::default();
    if let Some(n) = args.opt("--max-queries")? {
        limits.max_queries = n;
    }
    if let Some(n) = args.opt("--max-batch-edges")? {
        limits.max_batch_edges = n;
    }
    if let Some(ms) = args.opt("--batch-budget-ms")? {
        limits.batch_budget_ms = Some(ms);
    }
    let mut registry = QueryRegistry::new(&input, cfg, limits);

    let script: Box<dyn std::io::BufRead> = match args.opt_str("--script") {
        Some(path) => Box::new(std::io::BufReader::new(
            fs::File::open(path).map_err(|e| format!("{path}: {e}"))?,
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

/// One subcommand's command line, parsed against the flags it lists:
/// its positional arguments in order, its bare switches, and its value
/// flags with their values.
#[derive(Default)]
struct Args {
    positional: Vec<String>,
    switches: Vec<String>,
    values: Vec<(String, String)>,
}

impl Args {
    /// Parse `args`, which must hold one argument per name in `positional`
    /// and nothing but the `switches` and `values` flags besides.
    fn parse(args: &[String], positional: &[&str], switches: &[&str], values: &[&str]) -> Result<Args, String> {
        let mut out = Args::default();
        let mut it = args.iter();
        while let Some(a) = it.next() {
            if switches.contains(&a.as_str()) {
                out.switches.push(a.clone());
            } else if values.contains(&a.as_str()) {
                match it.next() {
                    Some(v) if !v.starts_with("--") => out.values.push((a.clone(), v.clone())),
                    _ => return Err(format!("missing value for {a}")),
                }
            } else if a.starts_with("--") || out.positional.len() == positional.len() {
                return Err(format!("unknown flag `{a}`"));
            } else {
                out.positional.push(a.clone());
            }
        }
        match positional.get(out.positional.len()) {
            Some(what) => Err(format!("missing {what}")),
            None => Ok(out),
        }
    }

    /// Positional argument `i`, which `parse` checked is present.
    fn arg(&self, i: usize) -> &str {
        &self.positional[i]
    }

    fn flag(&self, name: &str) -> bool {
        self.switches.iter().any(|s| s == name)
    }

    fn opt_str(&self, name: &str) -> Option<&str> {
        self.values.iter().find(|(flag, _)| flag == name).map(|(_, v)| v.as_str())
    }

    fn opt<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        match self.opt_str(name) {
            None => Ok(None),
            Some(v) => v.parse().map(Some).map_err(|_| format!("invalid value for {name}: {v}")),
        }
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
