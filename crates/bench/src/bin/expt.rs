//! The experiment harness: one subcommand per table/figure of the paper's
//! evaluation (§6). Run `expt all` to regenerate everything; see
//! EXPERIMENTS.md for the paper-vs-measured record.
//!
//! ```text
//! cargo run --release -p itg-bench --bin expt -- <table6|fig12|fig13|fig14|
//!     fig15a|fig15b|fig16a|fig16b|fig17|scaling|bootstrap|serve|profile|all>
//!     [--profile FILE] [--transport local|tcp[://ADDR]|uds[://DIR]] [--durable]
//! ```
//!
//! `--durable` runs every iTurboGraph session with the write-ahead log
//! enabled (a fresh WAL directory per session under the system temp dir),
//! so any experiment doubles as a WAL-overhead measurement against its
//! published non-durable numbers. It requires the in-process transport.
//!
//! `scaling` is not a paper artifact: it measures intra-partition thread
//! scaling (`threads_per_machine` ∈ {1, 2, 4}) on a skewed RMAT graph.
//!
//! `serve` is not a paper artifact either: it maintains K identical
//! standing queries over the same mutation stream, isolated (K sessions)
//! vs shared (one `QueryRegistry`), asserting byte-equal results and
//! reporting the sharing speedup (DESIGN.md §11.5).
//!
//! `profile [algo]` is the observability entry point: it runs one algorithm
//! (default `pr`) one-shot plus incremental batches under an enabled
//! recorder and prints the per-operator cost breakdown (span tree, Δ-stream
//! counters, IO histograms). The global `--profile FILE` flag composes with
//! any subcommand: it enables the process-wide recorder up front and writes
//! the accumulated profile as JSON (schema v1) to `FILE` on exit.

use itg_baselines::{DdIterative, DdTriangles, GraphBolt, MemoryBudget, ValueRule};
use itg_bench::*;
use iturbograph::prelude::*;

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let profile_out = take_flag_value(&mut args, "--profile");
    if take_flag(&mut args, "--durable") {
        DURABLE.store(true, std::sync::atomic::Ordering::Relaxed);
    }
    if let Some(name) = take_flag_value(&mut args, "--transport") {
        let kind = iturbograph::engine::config::parse_transport(&name).unwrap_or_else(|e| {
            eprintln!("--transport: {e}");
            std::process::exit(2);
        });
        TRANSPORT.set(kind).expect("transport set once");
    }
    if durable() && matches!(transport_kind(), TransportKind::Cluster(_)) {
        eprintln!("--durable requires --transport local (WAL is coordinator-side)");
        std::process::exit(2);
    }
    if profile_out.is_some() && !itg_obs::init_global(true) {
        eprintln!("warning: global recorder already initialized; --profile may be partial");
    }
    let which = args.first().map(|s| s.as_str()).unwrap_or("all");
    match which {
        "table6" => table6(),
        "fig12" => fig12(),
        "fig13" => fig13(),
        "fig14" => fig14(),
        "fig15a" => fig15a(),
        "fig15b" => fig15b(),
        "fig16a" => fig16a(),
        "fig16b" => fig16b(),
        "fig17" => fig17(),
        "scaling" => scaling(),
        "bootstrap" => bootstrap_expt(),
        "serve" => serve_expt(),
        "profile" => profile(args.get(1).map(|s| s.as_str()).unwrap_or("pr")),
        "all" => {
            table6();
            fig12();
            fig13();
            fig14();
            fig15a();
            fig15b();
            fig16a();
            fig16b();
            fig17();
            scaling();
            serve_expt();
        }
        other => {
            eprintln!("unknown experiment `{other}`");
            std::process::exit(2);
        }
    }
    if let Some(path) = profile_out {
        let json = itg_obs::global().profile().to_json();
        match std::fs::write(&path, &json) {
            Ok(()) => eprintln!("profile written to {path}"),
            Err(e) => {
                eprintln!("failed to write profile to {path}: {e}");
                std::process::exit(1);
            }
        }
    }
}

/// Remove a bare `--flag` from `args`, returning whether it was present.
fn take_flag(args: &mut Vec<String>, flag: &str) -> bool {
    if let Some(i) = args.iter().position(|a| a == flag) {
        args.remove(i);
        true
    } else {
        false
    }
}

/// Remove `--flag VALUE` from `args`, returning `VALUE` when present.
fn take_flag_value(args: &mut Vec<String>, flag: &str) -> Option<String> {
    let i = args.iter().position(|a| a == flag)?;
    if i + 1 >= args.len() {
        eprintln!("{flag} requires a value");
        std::process::exit(2);
    }
    let v = args.remove(i + 1);
    args.remove(i);
    Some(v)
}

/// `expt profile [algo]`: per-operator cost breakdown of one algorithm on a
/// mid-size RMAT graph — one-shot run, then `BATCHES` incremental batches,
/// each section rendered from the run's own interval profile so operator
/// timings can be checked against `RunMetrics::wall`.
fn profile(algo: &str) {
    let Some(src) = iturbograph::algorithms::source(algo) else {
        eprintln!("unknown algorithm `{algo}` (try pr|lp|wcc|bfs|tc|lcc)");
        std::process::exit(2);
    };
    let mut ds = if algo == "pr" {
        Dataset::rmat_directed("RMAT_14", 14, 61)
    } else {
        Dataset::rmat_undirected("RMAT_14", 14, 61)
    };
    let mut cfg = single_machine_cfg(algo);
    // Record into the process-wide recorder when `--profile` enabled it
    // (so the JSON dump sees this run), else into a private one.
    cfg.obs = if itg_obs::global().is_enabled() {
        itg_obs::global().clone()
    } else {
        itg_obs::Recorder::enabled()
    };
    let mut session = SessionBuilder::from_config(cfg).from_source(&src, &ds.graph_input()).unwrap();
    let labels = session.operator_labels();

    let one = session.run_oneshot();
    println!("=== {} one-shot: {} ===", algo.to_uppercase(), one.summary());
    let p = one.profile.as_ref().expect("recorder enabled");
    print!("{}", itg_obs::render_breakdown(p, one.wall.as_nanos() as u64, &labels));

    let mut merged: Option<itg_obs::Profile> = None;
    let mut inc_wall_ns = 0u64;
    let mut last_summary = String::new();
    for _ in 0..BATCHES {
        let batch = ds.next_batch(BATCH_SIZE, RATIO);
        session.apply_mutations(&batch);
        let m = session.run_incremental();
        inc_wall_ns += m.wall.as_nanos() as u64;
        last_summary = m.summary();
        let mp = m.profile.expect("recorder enabled");
        merged = Some(match merged {
            None => mp,
            Some(mut acc) => {
                acc.merge(&mp);
                acc
            }
        });
    }
    println!();
    println!(
        "=== {} incremental ({BATCHES} batches of {BATCH_SIZE}, last: {}) ===",
        algo.to_uppercase(),
        last_summary
    );
    let p = merged.expect("at least one batch");
    print!("{}", itg_obs::render_breakdown(&p, inc_wall_ns, &labels));
}

const BATCHES: usize = 4;
const BATCH_SIZE: usize = 100;
const RATIO: u32 = 75;

/// The exchange plane every experiment builds its sessions on, set once
/// from the global `--transport` flag, spelled as `itg --transport` is
/// (everything but `local` = one `itg-partition-worker` OS process per
/// machine, over the named socket).
static TRANSPORT: std::sync::OnceLock<TransportKind> = std::sync::OnceLock::new();

fn transport_kind() -> TransportKind {
    TRANSPORT.get().cloned().unwrap_or(TransportKind::Local)
}

/// The global `--durable` flag: every session gets a WAL.
static DURABLE: std::sync::atomic::AtomicBool = std::sync::atomic::AtomicBool::new(false);

fn durable() -> bool {
    DURABLE.load(std::sync::atomic::Ordering::Relaxed)
}

/// Under `--durable`, a fresh WAL directory per session (a durable session
/// refuses to open over existing snapshots — that path is
/// `Session::recover`'s).
fn durability_kind() -> DurabilityKind {
    if !durable() {
        return DurabilityKind::None;
    }
    static NEXT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let i = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("itg-expt-wal-{}-{i}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    DurabilityKind::Wal { dir }
}

fn single_machine_cfg(algo: &str) -> EngineConfig {
    EngineConfig {
        machines: 1,
        max_supersteps: superstep_cap(algo),
        transport: transport_kind(),
        durability: durability_kind(),
        ..EngineConfig::default()
    }
}

fn cluster_cfg(algo: &str, machines: usize) -> EngineConfig {
    EngineConfig {
        machines,
        parallel: true,
        max_supersteps: superstep_cap(algo),
        transport: transport_kind(),
        durability: durability_kind(),
        ..EngineConfig::default()
    }
}

/// Table 6: single-machine PR and LP — one-shot and incremental execution
/// times, iTurboGraph vs GraphBolt, at the TWT-analogue graph.
fn table6() {
    let mut rows = Vec::new();
    for (algo, src, rule) in [
        ("PR", iturbograph::algorithms::PAGERANK, ValueRule::PageRank),
        ("LP", iturbograph::algorithms::LABEL_PROP, ValueRule::LabelProp),
    ] {
        let mut ds = if algo == "PR" {
            Dataset::rmat_directed("TWT*", 17, 61)
        } else {
            Dataset::rmat_undirected("TWT*", 17, 61)
        };

        // GraphBolt path (it consumes directed mirrored edges).
        let gb_edges = if ds.undirected {
            Dataset::mirrored(&ds.initial)
        } else {
            ds.initial.clone()
        };
        let mut gb = GraphBolt::new(rule, 10, MemoryBudget::unlimited());
        let t0 = std::time::Instant::now();
        gb.initial(ds.n, &gb_edges).expect("GrB fits in memory at TWT*");
        let gb_one = t0.elapsed().as_secs_f64();

        // iTurboGraph path (shares the same mutation stream).
        let mut session = SessionBuilder::from_config(single_machine_cfg(if algo == "PR" { "pr" } else { "lp" })).from_source(src, &ds.graph_input())
        .unwrap();
        let itbgpp_one = session.run_oneshot().secs();

        let mut gb_inc = 0.0;
        let mut itbgpp_inc = 0.0;
        for _ in 0..BATCHES {
            let batch = ds.next_batch(BATCH_SIZE, RATIO);
            let (ins, del): (Vec<_>, Vec<_>) = {
                let mut ins = Vec::new();
                let mut del = Vec::new();
                for m in batch.edges() {
                    let pairs: Vec<(u64, u64)> = if ds.undirected {
                        vec![(m.src, m.dst), (m.dst, m.src)]
                    } else {
                        vec![(m.src, m.dst)]
                    };
                    if m.is_insert() {
                        ins.extend(pairs);
                    } else {
                        del.extend(pairs);
                    }
                }
                (ins, del)
            };
            let t0 = std::time::Instant::now();
            gb.delta(&ins, &del).unwrap();
            gb_inc += t0.elapsed().as_secs_f64();

            session.apply_mutations(&batch);
            itbgpp_inc += session.run_incremental().secs();
        }
        gb_inc /= BATCHES as f64;
        itbgpp_inc /= BATCHES as f64;

        rows.push(vec![
            algo.to_string(),
            "GrB".to_string(),
            format!("{gb_one:.4}"),
            format!("{gb_inc:.4}"),
            format!("{:.2}", gb_inc / gb_one.max(1e-12)),
        ]);
        rows.push(vec![
            algo.to_string(),
            "iTbGpp".to_string(),
            format!("{itbgpp_one:.4}"),
            format!("{itbgpp_inc:.4}"),
            format!("{:.2}", itbgpp_inc / itbgpp_one.max(1e-12)),
        ]);
    }
    print_table(
        "Table 6: single-machine execution times at TWT* [sec]",
        &["algo", "system", "one-shot", "incremental", "inc/one-shot"],
        &rows,
    );
}

/// Figure 12: execution times of all six algorithms across the real-graph
/// ladder on the simulated cluster, iTurboGraph vs DD (O = out of memory).
fn fig12() {
    let machines = 5;
    let mut rows = Vec::new();
    for algo in ["pr", "lp", "wcc", "bfs", "tc", "lcc"] {
        for &(gname, x) in REAL_GRAPHS {
            let seed = 100 + x as u64;
            let mut ds = if algo == "pr" {
                Dataset::rmat_directed(gname, x, seed)
            } else {
                Dataset::rmat_undirected(gname, x, seed)
            };
            let src = iturbograph::algorithms::source(algo).unwrap();
            let r = run_itbgpp(
                &mut ds,
                &src,
                cluster_cfg(algo, machines),
                BATCHES,
                BATCH_SIZE,
                RATIO,
            );
            let (dd_one, dd_inc) = run_dd(algo, &ds);
            rows.push(vec![
                algo.to_uppercase(),
                gname.to_string(),
                format!("{}", ds.num_edges()),
                format!("{:.4}", r.one_shot.secs()),
                format!("{:.4}", r.mean_incremental_secs()),
                format!("{dd_one}"),
                format!("{dd_inc}"),
                format!("{:.1}x", r.speedup()),
            ]);
        }
    }
    print_table(
        &format!("Figure 12: real-graph ladder on {machines} machines [sec]"),
        &[
            "algo", "graph", "|E|", "iTbGpp-1shot", "iTbGpp-inc", "DD-1shot", "DD-inc",
            "inc-speedup",
        ],
        &rows,
    );
}

/// Run the appropriate DD baseline over the dataset's *final* pre-batch
/// state: one-shot on G_0 and one delta batch.
fn run_dd(algo: &str, ds: &Dataset) -> (Cell, Cell) {
    let edges: Vec<(u64, u64)> = if ds.undirected {
        Dataset::mirrored(&ds.initial)
    } else {
        ds.initial.clone()
    };
    match algo {
        "tc" | "lcc" => {
            // DD's self-join formulation; LCC shares the wedge arrangement.
            let mut dd = DdTriangles::new(MemoryBudget::new(DD_BUDGET));
            let t0 = std::time::Instant::now();
            match dd.initial(ds.n, &ds.initial) {
                Ok(()) => {
                    let one = t0.elapsed().as_secs_f64();
                    let muts: Vec<(u64, u64, i64)> = ds
                        .alive_edges()
                        .iter()
                        .take(BATCH_SIZE)
                        .map(|&(a, b)| (a, b, -1))
                        .collect();
                    let t0 = std::time::Instant::now();
                    match dd.delta(&muts) {
                        Ok(()) => (Cell::Secs(one), Cell::Secs(t0.elapsed().as_secs_f64())),
                        Err(_) => (Cell::Secs(one), Cell::Oom),
                    }
                }
                Err(_) => (Cell::Oom, Cell::Oom),
            }
        }
        _ => {
            let rule = match algo {
                "pr" => ValueRule::PageRank,
                "lp" => ValueRule::LabelProp,
                "wcc" => ValueRule::Wcc,
                "bfs" => ValueRule::Bfs { root: 0 },
                _ => unreachable!(),
            };
            let mut dd = DdIterative::new(rule, dd_iterations(algo), MemoryBudget::new(DD_BUDGET));
            let t0 = std::time::Instant::now();
            match dd.initial(ds.n, &edges) {
                Ok(()) => {
                    let one = t0.elapsed().as_secs_f64();
                    // One delta batch: delete a slice of alive edges.
                    let del: Vec<(u64, u64)> = ds
                        .alive_edges()
                        .iter()
                        .take(BATCH_SIZE / 2)
                        .flat_map(|&(a, b)| {
                            if ds.undirected {
                                vec![(a, b), (b, a)]
                            } else {
                                vec![(a, b)]
                            }
                        })
                        .collect();
                    let t0 = std::time::Instant::now();
                    match dd.delta(&[], &del) {
                        Ok(()) => (Cell::Secs(one), Cell::Secs(t0.elapsed().as_secs_f64())),
                        Err(_) => (Cell::Secs(one), Cell::Oom),
                    }
                }
                Err(_) => (Cell::Oom, Cell::Oom),
            }
        }
    }
}

/// Figure 13: execution times varying RMAT size (PR and TC), with DD's
/// OOM wall.
fn fig13() {
    let mut rows = Vec::new();
    for (algo, xs) in [("pr", 13..=18u32), ("tc", 12..=17u32)] {
        for x in xs {
            let seed = 200 + x as u64;
            let mut ds = if algo == "pr" {
                Dataset::rmat_directed(&format!("RMAT_{x}"), x, seed)
            } else {
                Dataset::rmat_undirected(&format!("RMAT_{x}"), x, seed)
            };
            let src = iturbograph::algorithms::source(algo).unwrap();
            let batch_size = BATCH_SIZE.min(ds.num_edges() / 10);
            let r = run_itbgpp(&mut ds, &src, cluster_cfg(algo, 5), BATCHES, batch_size, RATIO);
            let (dd_one, dd_inc) = run_dd(algo, &ds);
            rows.push(vec![
                algo.to_uppercase(),
                format!("RMAT_{x}"),
                format!("{}", ds.num_edges()),
                format!("{:.4}", r.one_shot.secs()),
                format!("{:.4}", r.mean_incremental_secs()),
                format!("{dd_one}"),
                format!("{dd_inc}"),
            ]);
        }
    }
    print_table(
        "Figure 13: varying RMAT size on 5 machines [sec]",
        &["algo", "graph", "|E|", "iTbGpp-1shot", "iTbGpp-inc", "DD-1shot", "DD-inc"],
        &rows,
    );
}

/// Figure 14: varying the simulated machine count at the largest RMAT.
fn fig14() {
    let x = 17;
    let mut rows = Vec::new();
    for algo in ["pr", "tc"] {
        for machines in [5usize, 10, 15, 20, 25] {
            let seed = 300 + machines as u64;
            let mut ds = if algo == "pr" {
                Dataset::rmat_directed(&format!("RMAT_{x}"), x, seed)
            } else {
                Dataset::rmat_undirected(&format!("RMAT_{x}"), x, seed)
            };
            let src = iturbograph::algorithms::source(algo).unwrap();
            let r = run_itbgpp(
                &mut ds,
                &src,
                cluster_cfg(algo, machines),
                BATCHES,
                BATCH_SIZE,
                RATIO,
            );
            // On a single-core host the simulated workers cannot deliver
            // wall-clock parallelism; the machine-scaling effects that
            // survive the substitution are the per-machine work share and
            // the network volume (see EXPERIMENTS.md).
            rows.push(vec![
                algo.to_uppercase(),
                format!("{machines}"),
                format!("{:.4}", r.one_shot.secs()),
                format!("{:.4}", r.mean_incremental_secs()),
                format!("{}", r.one_shot.io.walks_enumerated / machines as u64),
                format!("{}", r.one_shot.io.net_bytes),
            ]);
        }
    }
    print_table(
        &format!("Figure 14: varying machines at RMAT_{x}"),
        &[
            "algo",
            "machines",
            "one-shot [s]",
            "incremental [s]",
            "walks/machine",
            "net bytes",
        ],
        &rows,
    );
}

/// Figure 15 (a): normalized incremental time vs insert:delete ratio.
fn fig15a() {
    let ratios: [(u32, &str); 5] = [
        (100, "100:0"),
        (75, "75:25"),
        (50, "50:50"),
        (25, "25:75"),
        (0, "0:100"),
    ];
    let mut rows = Vec::new();
    for algo in ["pr", "wcc", "tc"] {
        let mut base_time = None;
        let mut row = vec![algo.to_uppercase()];
        for (pct, _label) in ratios {
            let seed = 400 + pct as u64;
            let mut ds = if algo == "pr" {
                Dataset::twt_upscaled_directed("TWT25*", 14, 4, seed)
            } else {
                Dataset::twt_upscaled("TWT25*", 14, 4, seed)
            };
            let src = iturbograph::algorithms::source(algo).unwrap();
            let r = run_itbgpp(&mut ds, &src, cluster_cfg(algo, 4), BATCHES, BATCH_SIZE, pct);
            let t = r.mean_incremental_secs();
            let base = *base_time.get_or_insert(t);
            row.push(format!("{:.2}", t / base));
        }
        rows.push(row);
    }
    print_table(
        "Figure 15 (a): incremental time normalized to the insertion-only workload",
        &["algo", "100:0", "75:25", "50:50", "25:75", "0:100"],
        &rows,
    );
}

/// Figure 15 (b): throughput (mutations/sec) vs batch size, normalized to
/// the smallest batch.
fn fig15b() {
    let sizes = [10usize, 50, 200, 1000, 4000];
    let mut rows = Vec::new();
    for algo in ["pr", "wcc", "tc"] {
        let mut base = None;
        let mut row = vec![algo.to_uppercase()];
        for &size in &sizes {
            let seed = 500 + size as u64;
            let mut ds = if algo == "pr" {
                Dataset::twt_upscaled_directed("TWT25*", 14, 4, seed)
            } else {
                Dataset::twt_upscaled("TWT25*", 14, 4, seed)
            };
            let src = iturbograph::algorithms::source(algo).unwrap();
            let r = run_itbgpp(&mut ds, &src, cluster_cfg(algo, 4), 2, size, RATIO);
            let throughput = size as f64 / r.mean_incremental_secs().max(1e-12);
            let b = *base.get_or_insert(throughput);
            row.push(format!("{:.1}", throughput / b));
        }
        rows.push(row);
    }
    print_table(
        "Figure 15 (b): throughput vs |ΔG|, normalized to the smallest batch",
        &["algo", "10", "50", "200", "1000", "4000"],
        &rows,
    );
}

/// Figure 16 (a): optimization ablation for the multi-hop NGA (TC, LCC) —
/// speedup of each incremental configuration over the one-shot query.
fn fig16a() {
    let configs: [(&str, OptFlags); 4] = [
        ("BASE", OptFlags::none()),
        (
            "TR",
            OptFlags {
                traversal_reorder: true,
                ..OptFlags::none()
            },
        ),
        (
            "TR+NP",
            OptFlags {
                traversal_reorder: true,
                neighbor_prune: true,
                ..OptFlags::none()
            },
        ),
        ("TR+NP+SWS", OptFlags::default()),
    ];
    let mut rows = Vec::new();
    for algo in ["tc", "lcc"] {
        for (label, opts) in configs {
            let mut ds = Dataset::twt_upscaled("TWT25*", 14, 4, 600);
            let src = iturbograph::algorithms::source(algo).unwrap();
            let mut cfg = cluster_cfg(algo, 4);
            cfg.opts = opts;
            // A smaller pool stresses the IO-sharing effect of SWS.
            cfg.buffer_pool_bytes = 256 << 10;
            let r = run_itbgpp(&mut ds, &src, cfg, BATCHES, BATCH_SIZE, RATIO);
            rows.push(vec![
                algo.to_uppercase(),
                label.to_string(),
                format!("{:.4}", r.one_shot.secs()),
                format!("{:.4}", r.mean_incremental_secs()),
                format!("{:.1}x", r.speedup()),
                format!(
                    "{}",
                    r.incremental.iter().map(|m| m.io.walks_enumerated).sum::<u64>()
                        / r.incremental.len() as u64
                ),
            ]);
        }
    }
    print_table(
        "Figure 16 (a): Δ-walk optimization ablation (speedup over one-shot)",
        &["algo", "opts", "one-shot", "incremental", "speedup", "Δ-walks"],
        &rows,
    );
}

/// Figure 16 (b): the MIN-with-counting (CNT) optimization for WCC and BFS
/// across insert:delete ratios.
fn fig16b() {
    let ratios: [(u32, &str); 3] = [(100, "100:0"), (50, "50:50"), (0, "0:100")];
    let mut rows = Vec::new();
    for algo in ["wcc", "bfs"] {
        for (pct, label) in ratios {
            let mut times = Vec::new();
            let mut recomputes = Vec::new();
            for cnt in [false, true] {
                let seed = 700 + pct as u64;
                let mut ds = Dataset::twt_upscaled("TWT25*", 14, 4, seed);
                let src = iturbograph::algorithms::source(algo).unwrap();
                let mut cfg = cluster_cfg(algo, 4);
                cfg.opts.min_count = cnt;
                let r = run_itbgpp(&mut ds, &src, cfg, BATCHES, BATCH_SIZE, pct);
                times.push(r.mean_incremental_secs());
                recomputes.push(
                    r.incremental.iter().map(|m| m.recomputed_vertices).sum::<u64>(),
                );
            }
            rows.push(vec![
                algo.to_uppercase(),
                label.to_string(),
                format!("{:.4}", times[0]),
                format!("{:.4}", times[1]),
                format!("{:.2}x", times[0] / times[1].max(1e-12)),
                format!("{}", recomputes[0]),
                format!("{}", recomputes[1]),
            ]);
        }
    }
    print_table(
        "Figure 16 (b): CNT optimization speedup (Min recompute avoidance)",
        &[
            "algo",
            "ins:del",
            "no-CNT [s]",
            "CNT [s]",
            "speedup",
            "recomp(no-CNT)",
            "recomp(CNT)",
        ],
        &rows,
    );
}

/// Intra-partition thread scaling: the walk-enumeration phases of a single
/// simulated machine on a skewed-degree RMAT graph, at 1/2/4 worker
/// threads. All three rows compute identical results (the chunk merge is
/// deterministic); only the wall clock and the scheduling counters differ.
/// Wall-clock speedup requires host cores — on a single-core host the rows
/// converge and the table degenerates to an overhead measurement, which
/// the footer calls out.
fn scaling() {
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mut rows = Vec::new();
    for algo in ["tc", "pr"] {
        let mut base: Option<f64> = None;
        for threads in [1usize, 2, 4] {
            let seed = 900;
            let mut ds = if algo == "pr" {
                Dataset::rmat_directed("RMAT_15", 15, seed)
            } else {
                Dataset::rmat_undirected("RMAT_15", 15, seed)
            };
            let src = iturbograph::algorithms::source(algo).unwrap();
            let cfg = single_machine_cfg(algo).with_threads(threads);
            let r = run_itbgpp(&mut ds, &src, cfg, BATCHES, BATCH_SIZE, RATIO);
            let one = r.one_shot.secs();
            let b = *base.get_or_insert(one);
            rows.push(vec![
                algo.to_uppercase(),
                format!("{threads}"),
                format!("{one:.4}"),
                format!("{:.4}", r.mean_incremental_secs()),
                format!("{:.2}x", b / one.max(1e-12)),
                format!("{}", r.one_shot.parallel.chunks),
                format!("{}", r.one_shot.parallel.imbalance()),
            ]);
        }
    }
    print_table(
        &format!("Thread scaling on 1 machine, {cores} host core(s): one-shot speedup vs 1 thread"),
        &[
            "algo",
            "threads",
            "one-shot [s]",
            "incremental [s]",
            "speedup",
            "chunks",
            "imbalance",
        ],
        &rows,
    );
    if cores < 4 {
        println!(
            "note: host exposes {cores} core(s); thread speedups are bounded by the hardware."
        );
    }
}

/// Sliced-bootstrap scaling (not a paper artifact): per-rank startup
/// bytes as the fleet grows. Builds a WCC session over loopback TCP at
/// machines = workers ∈ {1, 2, 4} and reports the `net/bootstrap_bytes`
/// each rank received. The either-endpoint partition slice keeps
/// ~2/machines of the edges per rank, so the max rank cost should fall
/// roughly as 2/machines once machines > 1 (plus the fixed program
/// source + config overhead).
fn bootstrap_expt() {
    let rmat = Dataset::rmat_undirected("RMAT_15", 15, 1200);
    let edges = rmat.num_edges();
    // A uniform-degree control with the same vertex and edge counts: the
    // slice fraction on RMAT is dominated by hub-incident edges (a hub's
    // 1-neighbourhood crosses every partition), so the uniform row shows
    // the partition-local floor of the same mechanism.
    let uniform = {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(1201);
        let n = rmat.n as u64;
        let mut seen = std::collections::HashSet::new();
        let mut out = Vec::new();
        while out.len() < edges {
            let a = rng.gen_range(0..n);
            let b = rng.gen_range(0..n);
            if a != b && seen.insert((a.min(b), a.max(b))) {
                out.push((a.min(b), a.max(b)));
            }
        }
        let mut input = GraphInput::undirected(out);
        input.num_vertices = rmat.n;
        input
    };
    let src = iturbograph::algorithms::source("wcc").unwrap();
    let mut rows = Vec::new();
    for (label, input) in [("RMAT_15", rmat.graph_input()), ("UNIFORM", uniform)] {
        let mut full: Option<u64> = None;
        for machines in [1usize, 2, 4] {
            let cfg = EngineConfig {
                machines,
                parallel: false,
                max_supersteps: superstep_cap("wcc"),
                ..EngineConfig::default()
            };
            let sess = SessionBuilder::from_config(cfg)
                .cluster(ClusterSpec::tcp(machines))
                .from_source(&src, &input)
                .expect("bootstrap session builds");
            let per_rank = sess.bootstrap_bytes().expect("cluster plane");
            let max = per_rank.iter().copied().max().unwrap_or(0);
            let f = *full.get_or_insert(max);
            rows.push(vec![
                label.to_string(),
                format!("{machines}"),
                format!("{}", per_rank.len()),
                format!("{}", per_rank.iter().sum::<u64>()),
                format!("{max}"),
                format!("{:.2}", max as f64 / f as f64),
            ]);
        }
    }
    print_table(
        &format!(
            "Sliced bootstrap over TCP ({edges} edges): per-rank startup bytes vs machines"
        ),
        &["graph", "machines", "ranks", "total bytes", "max rank bytes", "vs full"],
        &rows,
    );
}

/// Figure 17: incremental PR and LP over many snapshots under the three
/// delta-maintenance strategies.
fn fig17() {
    let snapshots = 120;
    let policies: [(&str, MaintenancePolicy); 3] = [
        ("NoMerge", MaintenancePolicy::NoMerge),
        ("Periodic(60)", MaintenancePolicy::Periodic(60)),
        ("Cost", MaintenancePolicy::CostBased),
    ];
    let mut rows = Vec::new();
    for algo in ["pr", "lp"] {
        for (label, policy) in policies {
            let seed = 800;
            let mut ds = if algo == "pr" {
                Dataset::rmat_directed("TWT*", 15, seed)
            } else {
                Dataset::rmat_undirected("TWT*", 15, seed)
            };
            let src = iturbograph::algorithms::source(algo).unwrap();
            let mut cfg = single_machine_cfg(algo);
            cfg.maintenance = policy;
            let mut session =
                SessionBuilder::from_config(cfg).from_source(&src, &ds.graph_input()).unwrap();
            session.run_oneshot();
            let mut times = Vec::with_capacity(snapshots);
            for _ in 0..snapshots {
                let batch = ds.next_batch(200, RATIO);
                session.apply_mutations(&batch);
                times.push(session.run_incremental().secs());
            }
            let early: f64 = times[..10].iter().sum::<f64>() / 10.0;
            let late: f64 = times[snapshots - 10..].iter().sum::<f64>() / 10.0;
            rows.push(vec![
                algo.to_uppercase(),
                label.to_string(),
                format!("{early:.4}"),
                format!("{late:.4}"),
                format!("{:.2}x", late / early.max(1e-12)),
                format!("{}", session.store_bytes()),
            ]);
        }
    }
    print_table(
        &format!("Figure 17: incremental time over {snapshots} snapshots by maintenance policy"),
        &[
            "algo",
            "policy",
            "first-10 [s]",
            "last-10 [s]",
            "slowdown",
            "store bytes",
        ],
        &rows,
    );
}

/// `expt serve`: shared vs isolated standing-query maintenance (DESIGN.md
/// §11, not a paper artifact). K structurally identical TC queries are
/// registered in one `QueryRegistry` — landing in one share group, so the
/// Δ-plan runs once per batch — and the same K queries are driven as K
/// isolated sessions over the same mutation history. Reported per K:
/// steady-state maintenance wall clock (one-shot excluded on both sides),
/// the `share/hit` count, and the speedup. A final row mixes identical,
/// alpha-renamed, overlapping, and disjoint programs to exercise the
/// grouping and the `share/unique_subplans` counter. Sessions are always
/// non-durable here: share groups would collide on a single WAL directory.
fn serve_expt() {
    let seed = 1100;
    let src = iturbograph::algorithms::source("tc").unwrap();
    let cfg = EngineConfig {
        machines: 1,
        max_supersteps: superstep_cap("tc"),
        transport: transport_kind(),
        ..EngineConfig::default()
    };
    // One workload for every row: the initial 90% graph plus BATCHES
    // mutation batches, materialized once so shared and isolated runs see
    // byte-identical histories.
    let mut ds = Dataset::rmat_undirected("RMAT_11", 11, seed);
    let input = ds.graph_input();
    let batches: Vec<MutationBatch> = (0..BATCHES)
        .map(|_| ds.next_batch(BATCH_SIZE, RATIO))
        .collect();

    let mut rows = Vec::new();
    for k in [1usize, 2, 4, 8] {
        // Isolated: K sessions, each applying and refreshing every batch.
        let mut sessions: Vec<Session> = (0..k)
            .map(|_| {
                SessionBuilder::from_config(cfg.clone())
                    .from_source(&src, &input)
                    .expect("program compiles")
            })
            .collect();
        for s in &mut sessions {
            s.run_oneshot();
        }
        let t0 = std::time::Instant::now();
        for batch in &batches {
            for s in &mut sessions {
                s.apply_mutations(batch);
                s.run_incremental();
            }
        }
        let isolated = t0.elapsed().as_secs_f64();

        // Shared: one registry, K registrations, one share group.
        let mut reg = QueryRegistry::new(&input, cfg.clone(), ServeLimits::default());
        let ids: Vec<QueryId> = (0..k)
            .map(|i| reg.register(&format!("tc{i}"), &src).expect("admitted"))
            .collect();
        assert_eq!(reg.num_groups(), 1, "identical programs must share");
        let t0 = std::time::Instant::now();
        for batch in &batches {
            reg.commit(batch).expect("batch admitted");
        }
        let shared = t0.elapsed().as_secs_f64();
        // Sharing must not change any query's bytes.
        let oracle = sessions[0].dynamic_state_image();
        for &id in &ids {
            assert_eq!(
                reg.dynamic_state_image(id).expect("registered"),
                oracle,
                "shared result diverged from isolated"
            );
        }
        rows.push(vec![
            format!("{k}"),
            format!("{isolated:.4}"),
            format!("{shared:.4}"),
            format!("{:.2}x", isolated / shared.max(1e-12)),
            format!("{}", reg.share_hits()),
        ]);
    }
    print_table(
        &format!(
            "Standing-query maintenance: K identical TC queries, {BATCHES} batches of {BATCH_SIZE} \
             (isolated vs shared registry)"
        ),
        &["K", "isolated [s]", "shared [s]", "speedup", "share/hit"],
        &rows,
    );

    // Mixed registration: 2× tc (identical), an alpha-renamed tc (same
    // structural hash), a doubled-action tc (same walk shape, different
    // program), and wcc (disjoint).
    let renamed = src
        .replace("cnts", "triangles")
        .replace("u1", "w")
        .replace("u2", "x")
        .replace("u3", "y")
        .replace("u4", "z");
    let doubled = src.replace("Accumulate(1)", "Accumulate(2)");
    let wcc = iturbograph::algorithms::source("wcc").unwrap();
    let mut reg = QueryRegistry::new(&input, cfg, ServeLimits::default());
    for (name, s) in [
        ("tc-a", src.as_str()),
        ("tc-b", src.as_str()),
        ("tc-renamed", renamed.as_str()),
        ("tc-doubled", doubled.as_str()),
        ("wcc", wcc.as_str()),
    ] {
        reg.register(name, s).expect("admitted");
    }
    for batch in &batches {
        reg.commit(batch).expect("batch admitted");
    }
    println!(
        "mixed workload: {} queries -> {} shared groups, {} unique walk shapes, \
         {} share hits over {} batches",
        reg.num_queries(),
        reg.num_groups(),
        reg.unique_subplans(),
        reg.share_hits(),
        BATCHES,
    );
}
