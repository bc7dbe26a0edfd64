//! `bench --workload W --seed N --seconds S --trace 0|1 [--out DIR]`: one
//! run of one workload. Prints every metric by name with its unit and, as
//! the last line, the result as one JSON object. `run.py` beside this
//! package builds and calls it, runs the whole set, and compares sets.

use itg_perfbench::metrics::{metrics_json, EXACT};
use itg_perfbench::run::{run, RunArgs, RunResult};
use itg_perfbench::spec::Spec;
use itg_perfbench::trace::Tracer;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

struct Cli {
    spec: Spec,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<PathBuf>,
}

fn usage() -> String {
    let names: Vec<&str> = Spec::all().iter().map(|s| s.name).collect();
    format!(
        "usage: bench --workload <{}> [--seed N] [--seconds S] [--trace 0|1] [--out DIR]",
        names.join("|")
    )
}

fn parse(args: &[String]) -> Result<Cli, String> {
    let mut workload = None;
    let mut seed = 61;
    let mut seconds = 15.0;
    let mut trace = false;
    let mut out = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value\n{}", usage()))?;
        let bad = || format!("{flag}: cannot read `{value}`\n{}", usage());
        match flag.as_str() {
            "--workload" => workload = Some(Spec::by_name(value).ok_or_else(bad)?),
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => seconds = value.parse().map_err(|_| bad())?,
            "--trace" => trace = matches!(value.as_str(), "1" | "true"),
            "--out" => out = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}\n{}", usage())),
        }
    }
    Ok(Cli {
        spec: workload.ok_or_else(usage)?,
        seed,
        seconds,
        trace,
        out,
    })
}

/// The engine reads 25 `ITG_*` variables: into `EngineConfig::default()`,
/// the WAL options, the global recorder, the crash hooks. One of them set
/// and the run measures another configuration than it records.
fn refuse_engine_environment() -> Result<(), String> {
    let set: Vec<String> = std::env::vars_os()
        .map(|(k, _)| k.to_string_lossy().into_owned())
        .filter(|k| k.starts_with("ITG_"))
        .collect();
    if set.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "unset {} first: the benchmark fixes every engine knob itself",
            set.join(", ")
        ))
    }
}

/// A scratch directory beside the executable — inside the build
/// directory, so inside the checkout — removed when the run ends. Kept
/// relative to the working directory where possible: a Unix socket path
/// holds about a hundred bytes.
struct Scratch(PathBuf);

impl Scratch {
    fn create() -> Result<Scratch, String> {
        let exe = std::env::current_exe().map_err(|e| e.to_string())?;
        let dir = exe
            .parent()
            .ok_or("the executable has no directory")?
            .join(format!("bench-tmp-{}", std::process::id()));
        let dir = std::env::current_dir()
            .ok()
            .and_then(|cwd| dir.strip_prefix(cwd).map(Path::to_path_buf).ok())
            .unwrap_or(dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(Scratch(dir))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or("unknown".to_string(), |o| {
            String::from_utf8_lossy(&o.stdout).trim().to_string()
        })
}

/// The last line of standard output: the result the driver reads.
fn result_line(result: &RunResult) -> String {
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        result.correct(),
        result.ops.attempted,
        result.ops.failed,
        metrics_json(&result.metrics)
    )
}

/// The result with everything needed to compare it later: where and how
/// it was measured, each replay's own view of the end-to-end metrics, and
/// which metrics are exact counts.
fn result_file(cli: &Cli, result: &RunResult) -> String {
    let per_replay: Vec<String> = result
        .per_replay
        .iter()
        .map(|(name, values)| format!("\"{name}\": {values:?}"))
        .collect();
    let exact: Vec<String> = result
        .metrics
        .iter()
        .filter(|((name, ..), _)| EXACT.contains(name))
        .map(|((name, ..), v)| format!("\"{name}\": {v}"))
        .collect();
    format!(
        "{{\"workload\": \"{}\", \"trace\": {}, \"seed\": {}, \"seconds\": {}, \"replays\": {}, \
         \"git_rev\": \"{}\", \"nproc\": {}, \"config\": \"{}\",\n \"per_replay\": {{{}}},\n \
         \"exact\": {{{}}},\n \"result\": {}}}\n",
        cli.spec.name,
        cli.trace,
        cli.seed,
        cli.seconds,
        result.replays,
        git_rev(),
        std::thread::available_parallelism().map_or(0, usize::from),
        cli.spec.describe(),
        per_replay.join(", "),
        exact.join(", "),
        result_line(result)
    )
}

fn main_inner() -> Result<(), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = parse(&args)?;
    refuse_engine_environment()?;
    if cli.spec.machines > 1 {
        if iturbograph::engine::transport::find_worker_binary().is_none() {
            return Err(format!(
                "{} needs `itg-partition-worker` beside `bench`; build the whole package \
                 (`cargo build --release`), not the one binary",
                cli.spec.name
            ));
        }
        let cores = std::thread::available_parallelism().map_or(1, usize::from);
        if cores < 2 {
            return Err(format!(
                "{} needs two cores, this machine has {cores}",
                cli.spec.name
            ));
        }
    }
    let scratch = Scratch::create()?;
    let mut tracer = Tracer::new(cli.trace);
    let result = run(
        &RunArgs {
            spec: &cli.spec,
            seed: cli.seed,
            seconds: cli.seconds,
            trace: cli.trace,
            scratch: &scratch.0,
        },
        &mut tracer,
    )?;
    drop(scratch);

    println!(
        "{} seed {} — {} replays, {} operations, {} failed",
        cli.spec.name, cli.seed, result.replays, result.ops.attempted, result.ops.failed
    );
    for ((name, unit, _), value) in &result.metrics {
        println!("{name:<40} {value:>16.4} {unit}");
    }
    if let Some(out) = &cli.out {
        std::fs::create_dir_all(out).map_err(|e| format!("{}: {e}", out.display()))?;
        let write = |file: String, text: String| {
            std::fs::write(out.join(&file), text).map_err(|e| format!("{file}: {e}"))
        };
        let name = cli.spec.name;
        write(
            format!("result-{name}-trace{}.json", cli.trace as u8),
            result_file(&cli, &result),
        )?;
        if cli.trace {
            write(format!("trace-{name}.json"), tracer.to_json(name))?;
            if let Some(profile) = &result.profile {
                write(format!("profile-{name}.json"), profile.to_json())?;
            }
        }
    }
    println!("{}", result_line(&result));
    Ok(())
}

fn main() -> ExitCode {
    match main_inner() {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("bench: {msg}");
            ExitCode::from(2)
        }
    }
}
