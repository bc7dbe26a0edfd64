//! One benchmark run: one workload, one seed, one mode.
//!
//! Closed loop, one client. A first replay verifies every result against
//! the from-scratch oracle and leaves the process warm; it is not timed.
//! Then a number of timed replays that `--seconds` fixes before the first
//! one starts, so a faster engine gets no more samples than a slower one.
//! Every end-to-end metric is aggregated the same way: the median over the
//! replays — of the set-ups, of the one-shots, and of each timed batch
//! *i*, whose work is the same in every replay. The percentiles are then taken
//! over the batches.

use crate::metrics::{mean, median, quantile, MetricDef, Metrics, END_TO_END, PER_LAYER};
use crate::probes;
use crate::replay::{replay, Counters, History, Ops, ReplayArgs, ReplayOut, SetupTimes, Verify};
use crate::spec::Spec;
use crate::trace::Tracer;
use iturbograph::obs::Profile;
use std::path::Path;

/// Fewer replays than this and one disturbed replay decides a batch.
const MIN_REPLAYS: usize = 3;
/// Every workload is sized so one replay takes two to three seconds on the
/// two-core sandbox: this many of `--seconds` buy one timed replay.
const SECONDS_PER_REPLAY: f64 = 3.0;

/// How many timed replays a run of `seconds` makes. Fixed by the flag and
/// not by the clock: were replays to repeat until the time is up, a faster
/// commit would fit more of them and be measured by another statistic.
pub fn replays_for(seconds: f64) -> usize {
    ((seconds / SECONDS_PER_REPLAY) as usize).max(MIN_REPLAYS)
}

pub struct RunArgs<'a> {
    pub spec: &'a Spec,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Where WAL and socket directories live while the run lasts.
    pub scratch: &'a Path,
}

pub struct RunResult {
    pub ops: Ops,
    pub metrics: Vec<(MetricDef, f64)>,
    /// Timed replays (of each kind, plain and observed, in the traced run).
    pub replays: usize,
    /// Each end-to-end metric as every single replay saw it: the run's own
    /// spread, which `compare` holds against the bound.
    pub per_replay: Vec<(&'static str, Vec<f64>)>,
    pub counters: Counters,
    /// The engine's profile over the timed batches of the traced replays.
    pub profile: Option<Profile>,
}

impl RunResult {
    pub fn correct(&self) -> bool {
        self.ops.failed == 0
    }
}

/// Per batch, the median over a group of replays.
fn across_replays(replays: &[ReplayOut], of: impl Fn(&ReplayOut) -> Vec<f64>) -> Vec<f64> {
    let columns: Vec<Vec<f64>> = replays.iter().map(of).collect();
    let batches = columns.first().map_or(0, Vec::len);
    (0..batches)
        .map(|i| median(&columns.iter().map(|c| c[i]).collect::<Vec<_>>()))
        .collect()
}

fn edges_per_s(spec: &Spec, refresh_ms: &[f64]) -> f64 {
    (spec.batch_size * refresh_ms.len()) as f64 / (refresh_ms.iter().sum::<f64>() / 1e3)
}

fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// `tracer` records spans when this is the traced run.
pub fn run(args: &RunArgs<'_>, tracer: &mut Tracer) -> Result<RunResult, String> {
    tracer
        .span("workload", -1, |tracer| run_inner(args, tracer))
        .0
}

fn run_inner(args: &RunArgs<'_>, tracer: &mut Tracer) -> Result<RunResult, String> {
    let spec = args.spec;
    let history = tracer
        .span("generate", -1, |_| History::generate(spec, args.seed))
        .0?;
    let mut ops = Ops::default();
    let mut index = 0;
    let mut next = |verify, observe, tracer: &mut Tracer, ops: &mut Ops| {
        let replay_args = ReplayArgs {
            spec,
            history: &history,
            verify,
            observe,
            scratch: args.scratch,
            index,
        };
        index += 1;
        let (out, replay_ops) = replay(&replay_args, tracer);
        ops.add(replay_ops);
        out
    };

    let Some(verified) = next(Verify::Oracle, false, tracer, &mut ops) else {
        return Err(format!(
            "{}: the verifying replay did not finish",
            spec.name
        ));
    };

    // The traced run splits its replays between plain and observed ones and
    // alternates them, so both kinds see the same stretch of the machine's
    // time.
    let replays = if args.trace {
        replays_for(args.seconds).div_ceil(2)
    } else {
        replays_for(args.seconds)
    };
    let mut plain = Vec::with_capacity(replays);
    let mut observed = Vec::new();
    while plain.len() < replays || (args.trace && observed.len() < replays) {
        let observe = args.trace && observed.len() < plain.len();
        let out = next(
            Verify::Digests(&verified.digests),
            observe,
            tracer,
            &mut ops,
        )
        .ok_or_else(|| format!("{}: a timed replay did not finish", spec.name))?;
        if observe {
            observed.push(out);
        } else {
            plain.push(out);
        }
    }
    if let Some(odd) = plain.iter().position(|r| r.counters != plain[0].counters) {
        return Err(format!(
            "{}: exact counters differ between replays of one history:\n{:?}\n{:?}",
            spec.name, plain[0].counters, plain[odd].counters
        ));
    }

    let setups: Vec<SetupTimes> = plain.iter().flat_map(|r| r.setup.clone()).collect();
    let setup_s: Vec<f64> = setups.iter().map(SetupTimes::total_s).collect();
    let oneshot_s: Vec<f64> = plain.iter().flat_map(|r| r.oneshot_s.clone()).collect();

    let refresh = across_replays(&plain, ReplayOut::refresh_ms);
    let mut per_replay: Vec<(&'static str, Vec<f64>)> = vec![
        ("setup_s", setup_s.clone()),
        ("oneshot_s", oneshot_s.clone()),
        (
            "refresh_p50_ms",
            plain.iter().map(|r| median(&r.refresh_ms())).collect(),
        ),
        (
            "refresh_p90_ms",
            plain
                .iter()
                .map(|r| quantile(&r.refresh_ms(), 0.9))
                .collect(),
        ),
        (
            "refresh_edges_per_s",
            plain
                .iter()
                .map(|r| edges_per_s(spec, &r.refresh_ms()))
                .collect(),
        ),
    ];
    let first = &plain[0];
    per_replay.push((
        "store_mb",
        vec![first.store_bytes as f64 / (1 << 20) as f64],
    ));

    let mut m = Metrics::default();
    let refresh_p50_ms = median(&refresh);
    let mut profile = None;
    let table = if args.trace {
        let timed = spec.timed_batches as f64;
        let c = &first.counters;
        let per_batch_ms = |path: &str| {
            median(
                &observed
                    .iter()
                    .map(|r| {
                        r.profile.as_ref().map_or(0, |p| p.span_total_ns(path)) as f64 / timed / 1e6
                    })
                    .collect::<Vec<_>>(),
            )
        };
        let counted = |path: &str| {
            observed[0]
                .profile
                .as_ref()
                .map_or(0, |p| p.counter_total(path)) as f64
        };
        let setup_part =
            |of: fn(&SetupTimes) -> f64| median(&setups.iter().map(of).collect::<Vec<_>>());
        let ratio = |num: u64, den: u64| {
            if den == 0 {
                0.0
            } else {
                num as f64 / den as f64
            }
        };

        m.set("lnga.frontend_us", setup_part(|s| s.frontend_s) * 1e6);
        m.set("compiler.compile_us", setup_part(|s| s.compile_s) * 1e6);
        m.set("compiler.delta_subqueries", c.delta_subqueries as f64);
        m.set("engine.session.build_ms", setup_part(|s| s.build_s) * 1e3);
        m.set("engine.transport.bootstrap_bytes", c.bootstrap_bytes as f64);
        m.set(
            "engine.session.apply_ms",
            median(&across_replays(&plain, |r| r.apply_ms.clone())),
        );
        m.set(
            "engine.session.run_inc_ms",
            median(&across_replays(&plain, |r| r.run_ms.clone())),
        );
        m.set("engine.session.supersteps", c.supersteps as f64);
        m.set("engine.session.schedule_ms", per_batch_ms("run/schedule"));
        m.set("engine.session.setup_ms", per_batch_ms("run/setup"));
        m.set("engine.session.pruning_ms", per_batch_ms("run/pruning"));
        let quarter = (refresh.len() / 4).max(1);
        m.set(
            "engine.session.refresh_drift",
            mean(&refresh[refresh.len() - quarter..]) / mean(&refresh[..quarter]),
        );
        m.set("store.edge.delta_segments", c.delta_segments as f64);
        let traverse_ms = per_batch_ms("run/traverse");
        let action_ms = per_batch_ms("run/traverse/action");
        m.set("engine.walker.traverse_ms", traverse_ms);
        m.set("engine.walker.seek_ms", per_batch_ms("run/traverse/seek"));
        m.set("engine.walker.join_ms", per_batch_ms("run/traverse/join"));
        m.set("engine.walker.action_ms", action_ms);
        m.set("engine.walker.walks", c.io.walks_enumerated as f64);
        m.set("engine.walker.starts", c.starts as f64);
        let ns_per_walk = |ms: f64| ms * 1e6 * timed / c.io.walks_enumerated as f64;
        m.set("engine.walker.ns_per_walk", ns_per_walk(traverse_ms));
        m.set("engine.walker.action_ns_per_walk", ns_per_walk(action_ms));
        m.set("engine.vexec.update_ms", per_batch_ms("run/update"));
        m.set("engine.accum.accumulate_ms", per_batch_ms("run/accumulate"));
        m.set("engine.accum.recompute_ms", per_batch_ms("run/recompute"));
        m.set(
            "engine.accum.recomputed_vertices",
            c.recomputed_vertices as f64,
        );
        m.set(
            "engine.accum.recompute_triggers",
            counted("delta/recompute_triggers"),
        );
        m.set("store.vertex.attr_load_ms", per_batch_ms("store/attr_load"));
        m.set(
            "store.vertex.attr_record_ms",
            per_batch_ms("store/attr_record"),
        );
        m.set("store.vertex.merge_ms", per_batch_ms("store/merge"));
        m.set("store.vertex.advance_ms", per_batch_ms("run/store_advance"));
        m.set(
            "store.vertex.cache_hit_rate",
            ratio(c.io.cache_hits, c.io.cache_hits + c.io.cache_misses),
        );
        m.set("store.vertex.cache_evictions", c.io.cache_evictions as f64);
        m.set("store.pager.page_reads", c.io.page_reads as f64);
        m.set(
            "store.pager.hit_rate",
            ratio(c.io.page_hits, c.io.page_hits + c.io.page_reads),
        );
        m.set("store.pager.disk_read_bytes", c.io.disk_read_bytes as f64);
        m.set("store.pager.disk_write_bytes", c.io.disk_write_bytes as f64);
        m.set("engine.transport.exchange_ms", per_batch_ms("run/exchange"));
        m.set(
            "engine.transport.barrier_wait_ms",
            per_batch_ms("net/barrier_wait"),
        );
        m.set("engine.transport.net_bytes", c.io.net_bytes as f64);
        m.set("engine.transport.messages", counted("net/messages"));
        m.set("store.wal.fsyncs", counted("wal/fsync"));
        m.set("store.wal.rotations", counted("wal/rotation"));
        m.set("store.wal.bytes", first.durable.wal_bytes as f64);
        let checkpoints: Vec<f64> = plain
            .iter()
            .flat_map(|r| r.durable.checkpoint_ms.clone())
            .collect();
        m.set("engine.durability.checkpoint_p50_ms", median(&checkpoints));
        m.set(
            "engine.durability.recover_ms",
            median(
                &plain
                    .iter()
                    .map(|r| r.durable.recover_s * 1e3)
                    .collect::<Vec<_>>(),
            ),
        );
        m.set(
            "engine.durability.replayed_records",
            c.replayed_records as f64,
        );
        m.set(
            "store.durable_bytes_per_mutation",
            first.durable.bytes_on_disk as f64 / (spec.total_batches() * spec.batch_size) as f64,
        );
        let refresh_observed = across_replays(&observed, ReplayOut::refresh_ms);
        m.set(
            "obs.overhead_ratio",
            median(&refresh_observed) / refresh_p50_ms,
        );
        m.set(
            "obs.coverage",
            median(
                &observed
                    .iter()
                    .map(|r| {
                        let phases = r.profile.as_ref().map_or(0, Profile::phase_total_ns);
                        phases as f64 / (r.run_ms.iter().sum::<f64>() * 1e6)
                    })
                    .collect::<Vec<_>>(),
            ),
        );
        probes::run(
            spec,
            &history,
            &first.final_result,
            refresh_p50_ms,
            args.scratch,
            tracer,
            &mut m,
        )?;
        m.set("process.peak_rss_mb", peak_rss_mb());
        profile = observed
            .iter()
            .filter_map(|r| r.profile.clone())
            .reduce(|mut acc, p| {
                acc.merge(&p);
                acc
            });
        PER_LAYER
    } else {
        m.set("setup_s", median(&setup_s));
        m.set("oneshot_s", median(&oneshot_s));
        m.set("refresh_p50_ms", refresh_p50_ms);
        m.set("refresh_p90_ms", quantile(&refresh, 0.9));
        m.set("refresh_edges_per_s", edges_per_s(spec, &refresh));
        m.set("store_mb", first.store_bytes as f64 / (1 << 20) as f64);
        END_TO_END
    };

    Ok(RunResult {
        ops,
        metrics: m.in_order(table),
        replays: plain.len(),
        per_replay,
        counters: first.counters,
        profile,
    })
}
