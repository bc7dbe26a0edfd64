//! One mutation history and its replay through a fresh session.
//!
//! The history — graph, batches, and the alive edge set at every oracle
//! check — is drawn once from the seed. Every replay feeds the same
//! batches to a session built from nothing, so the work of batch *i* is
//! the same in every replay and only the machine's noise differs.

use crate::spec::{ResultRef, Spec, WARMUP_BATCHES};
use crate::trace::Tracer;
use iturbograph::compiler::CompiledProgram;
use iturbograph::obs::{Profile, Recorder};
use iturbograph::prelude::*;
use iturbograph::store::IoSnapshot;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};

pub struct History {
    /// The seed the graph and the batches were drawn from.
    pub seed: u64,
    pub num_vertices: usize,
    pub undirected: bool,
    pub input: GraphInput,
    pub batches: Vec<MutationBatch>,
    /// `(batches applied, alive edges)` at every oracle check, in order.
    pub checks: Vec<(usize, Vec<(u64, u64)>)>,
}

impl History {
    /// Draw the history from `seed`, batch by batch as `Dataset::next_batch`
    /// gives them. An error means the insert pool ran dry and
    /// `next_batch` changed the insert:delete mix on its own: the workload
    /// is then not the one its name promises.
    pub fn generate(spec: &Spec, seed: u64) -> Result<History, String> {
        let mut ds = spec.dataset(seed);
        let input = ds.graph_input();
        let total = spec.total_batches();
        let want_inserts = spec.batch_size * spec.insert_pct as usize / 100;
        let mut batches = Vec::with_capacity(total);
        let mut checks = Vec::new();
        for i in 0..total {
            let batch = ds.next_batch(spec.batch_size, spec.insert_pct);
            if batch.len() != spec.batch_size || batch.inserts().count() != want_inserts {
                return Err(format!(
                    "batch {i} of {}: wanted {want_inserts} inserts of {} mutations, drew {} of {} \
                     (insert pool exhausted; size the workload so the pool outlasts it)",
                    spec.name,
                    spec.batch_size,
                    batch.inserts().count(),
                    batch.len()
                ));
            }
            batches.push(batch);
            if (i + 1) % spec.oracle_every == 0 || i + 1 == total {
                checks.push((i + 1, ds.alive_edges().to_vec()));
            }
        }
        Ok(History {
            seed,
            num_vertices: ds.n,
            undirected: ds.undirected,
            input,
            batches,
            checks,
        })
    }

    fn input_of(&self, edges: &[(u64, u64)]) -> GraphInput {
        let mut input = if self.undirected {
            GraphInput::undirected(edges.to_vec())
        } else {
            GraphInput::directed(edges.to_vec())
        };
        input.num_vertices = self.num_vertices;
        input
    }
}

/// The result the oracle compares: every program here is integer-scaled,
/// so equality is exact.
pub fn result_of(session: &Session, spec: &Spec) -> Vec<Value> {
    match spec.algo.result() {
        ResultRef::Attr(name) => session.attr_column(name).expect("result attribute exists"),
        ResultRef::Global(name) => {
            vec![session
                .global_value(name, None)
                .expect("result global exists")]
        }
    }
}

pub fn digest(values: &[Value]) -> u64 {
    let mut h = DefaultHasher::new();
    for v in values {
        match v {
            Value::Long(x) => x.hash(&mut h),
            other => format!("{other:?}").hash(&mut h),
        }
    }
    h.finish()
}

/// Build a from-scratch session on `edges` and return its converged result.
fn from_scratch(spec: &Spec, history: &History, edges: &[(u64, u64)]) -> Vec<Value> {
    let mut oracle = SessionBuilder::from_config(spec.plain_config())
        .from_source(&spec.algo.source(), &history.input_of(edges))
        .expect("oracle session builds");
    oracle.run_oneshot();
    result_of(&oracle, spec)
}

#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    pub graphgen_s: f64,
    pub frontend_s: f64,
    pub compile_s: f64,
    pub build_s: f64,
}

impl SetupTimes {
    pub fn total_s(&self) -> f64 {
        self.graphgen_s + self.frontend_s + self.compile_s + self.build_s
    }
}

/// What one setup produced besides its times.
struct Built {
    times: SetupTimes,
    session: Session,
    delta_subqueries: usize,
    bootstrap_bytes: u64,
}

/// Everything a user waits for before the first query can run: generate
/// the graph, compile the program, build (and on a cluster, bootstrap) the
/// session.
fn setup(
    spec: &Spec,
    seed: u64,
    obs: Recorder,
    dirs: &ScratchDirs,
    tracer: &mut Tracer,
) -> Result<Built, String> {
    let (result, _) = tracer.span("setup", -1, |tracer| {
        let (input, graphgen) = tracer.span("graphgen", -1, |_| spec.dataset(seed).graph_input());
        let src = spec.algo.source();
        let (checked, frontend) =
            tracer.span("frontend", -1, |_| iturbograph::lnga::frontend(&src));
        let checked = checked.map_err(|e| e.to_string())?;
        let (program, compile) = tracer.span("compile", -1, |_| {
            iturbograph::compiler::compile(&checked).map(|mut p: CompiledProgram| {
                p.source = src.clone();
                p
            })
        });
        let program = program.map_err(|e| e.to_string())?;
        let delta_subqueries = program.delta_traverse.len();
        let cfg = spec.engine_config(obs, &dirs.wal, &dirs.uds);
        let (session, build) = tracer.span("build", -1, |_| {
            SessionBuilder::from_config(cfg).build(program, &input)
        });
        let session = session.map_err(|e| e.to_string())?;
        let bootstrap_bytes = session.bootstrap_bytes().map_or(0, |b| b.iter().sum());
        Ok(Built {
            times: SetupTimes {
                graphgen_s: graphgen.as_secs_f64(),
                frontend_s: frontend.as_secs_f64(),
                compile_s: compile.as_secs_f64(),
                build_s: build.as_secs_f64(),
            },
            session,
            delta_subqueries,
            bootstrap_bytes,
        })
    });
    result
}

/// How a replay checks its results.
pub enum Verify<'a> {
    /// Compare against a from-scratch session at every check and record
    /// the digest of each verified result.
    Oracle,
    /// Compare against the digests a verified replay recorded.
    Digests(&'a [u64]),
}

/// Operations attempted and failed: each one-shot, batch, checkpoint and
/// recovery is one operation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Ops {
    pub attempted: u64,
    pub failed: u64,
}

impl Ops {
    pub fn add(&mut self, other: Ops) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// Exact counts over the timed batches of one replay; the same history
/// must produce the same counts in every replay of every run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counters {
    pub supersteps: u64,
    pub starts: u64,
    pub recomputed_vertices: u64,
    pub io: IoSnapshot,
    pub delta_segments: u64,
    pub delta_subqueries: u64,
    pub bootstrap_bytes: u64,
    pub replayed_records: u64,
}

#[derive(Default)]
pub struct Durable {
    pub checkpoint_ms: Vec<f64>,
    pub recover_s: f64,
    pub bytes_on_disk: u64,
    pub wal_bytes: u64,
}

pub struct ReplayOut {
    /// One entry per set-up of this replay, see [`SETUPS_PER_REPLAY`].
    pub setup: Vec<SetupTimes>,
    pub oneshot_s: Vec<f64>,
    /// Per timed batch, in history order.
    pub apply_ms: Vec<f64>,
    pub run_ms: Vec<f64>,
    pub counters: Counters,
    pub store_bytes: u64,
    pub durable: Durable,
    /// Digest of the result at every check, in order.
    pub digests: Vec<u64>,
    /// The engine's own profile over the timed batches (traced replays).
    pub profile: Option<Profile>,
    /// The final result column, for probes that want real values.
    pub final_result: Vec<Value>,
}

impl ReplayOut {
    pub fn refresh_ms(&self) -> Vec<f64> {
        self.apply_ms
            .iter()
            .zip(&self.run_ms)
            .map(|(a, r)| a + r)
            .collect()
    }
}

fn dir_bytes(dir: &Path, only_prefix: Option<&str>) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .filter(|e| only_prefix.is_none_or(|p| e.file_name().to_string_lossy().starts_with(p)))
        .filter_map(|e| e.metadata().ok())
        .map(|m| m.len())
        .sum()
}

/// WAL records a recovery of `dir` replays: those the latest snapshot does
/// not cover.
fn records_to_replay(dir: &Path) -> u64 {
    let Ok(manifest) = iturbograph::store::Manifest::load(dir) else {
        return 0;
    };
    let Some(start) = manifest.latest().map(|e| e.wal_start) else {
        return 0;
    };
    iturbograph::store::wal::scan_dir(dir).map_or(0, |scan| {
        scan.records.iter().filter(|r| r.lsn >= start).count() as u64
    })
}

/// Fresh directories for one session, removed when it ends.
struct ScratchDirs {
    wal: PathBuf,
    uds: PathBuf,
}

impl ScratchDirs {
    fn new(scratch: &Path, label: &str) -> ScratchDirs {
        let dirs = ScratchDirs {
            wal: scratch.join(format!("wal-{label}")),
            uds: scratch.join(format!("uds-{label}")),
        };
        dirs.clear();
        dirs
    }

    fn clear(&self) {
        let _ = std::fs::remove_dir_all(&self.wal);
        let _ = std::fs::remove_dir_all(&self.uds);
    }
}

impl Drop for ScratchDirs {
    fn drop(&mut self) {
        self.clear();
    }
}

pub struct ReplayArgs<'a> {
    pub spec: &'a Spec,
    pub history: &'a History,
    pub verify: Verify<'a>,
    /// Record the engine's `itg-obs` profile (the traced run).
    pub observe: bool,
    pub scratch: &'a Path,
    /// Index of this replay within the run: names its span and its
    /// directories.
    pub index: usize,
}

/// Set-up and one-shot take milliseconds where the batches take seconds,
/// so every replay builds its session and runs the one-shot this many
/// times and keeps the last session: the run's medians then rest on three
/// times as many samples as it has replays.
pub const SETUPS_PER_REPLAY: usize = 3;

/// Replay the history once. A panic or an engine error fails every
/// operation the replay had left; a result mismatch fails every operation
/// since the last check that passed.
pub fn replay(args: &ReplayArgs<'_>, tracer: &mut Tracer) -> (Option<ReplayOut>, Ops) {
    let spec = args.spec;
    let per_replay = SETUPS_PER_REPLAY as u64
        + spec.total_batches() as u64
        + if spec.durable {
            (spec.total_batches() / spec.checkpoint_every) as u64 + 1
        } else {
            0
        };
    let mut ops = Ops::default();
    let dirs = ScratchDirs::new(args.scratch, &args.index.to_string());
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        tracer
            .span("replay", args.index as i64, |tracer| {
                replay_inner(args, &dirs, tracer, &mut ops)
            })
            .0
    }));
    let failure = match outcome {
        Ok(Ok(out)) => return (Some(out), ops),
        Ok(Err(msg)) => format!("failed: {msg}"),
        Err(_) => {
            tracer.close_all();
            "panicked".to_string()
        }
    };
    eprintln!("{}: replay {} {failure}", spec.name, args.index);
    let succeeded = ops.attempted - ops.failed;
    let ops = Ops {
        attempted: per_replay,
        failed: per_replay - succeeded,
    };
    (None, ops)
}

fn replay_inner(
    args: &ReplayArgs<'_>,
    dirs: &ScratchDirs,
    tracer: &mut Tracer,
    ops: &mut Ops,
) -> Result<ReplayOut, String> {
    let ReplayArgs { spec, history, .. } = *args;
    let recorder = if args.observe {
        Recorder::enabled()
    } else {
        Recorder::disabled()
    };
    let mut setups = Vec::with_capacity(SETUPS_PER_REPLAY);
    let mut oneshots = Vec::with_capacity(SETUPS_PER_REPLAY);
    let mut built = None;
    for _ in 0..SETUPS_PER_REPLAY {
        // The session before this one goes first: its log and its sockets
        // live in the directories the next one starts from empty.
        drop(built.take());
        dirs.clear();
        let mut fresh = setup(spec, history.seed, recorder.clone(), dirs, tracer)?;
        let (_, oneshot) = tracer.span("run_oneshot", -1, |_| fresh.session.run_oneshot());
        ops.attempted += 1;
        setups.push(fresh.times);
        oneshots.push(oneshot.as_secs_f64());
        built = Some(fresh);
    }
    let Built {
        mut session,
        delta_subqueries,
        bootstrap_bytes,
        ..
    } = built.expect("at least one set-up");

    let timed = spec.timed_batches;
    let mut out = ReplayOut {
        setup: setups,
        oneshot_s: oneshots,
        apply_ms: Vec::with_capacity(timed),
        run_ms: Vec::with_capacity(timed),
        counters: Counters {
            delta_subqueries: delta_subqueries as u64,
            bootstrap_bytes,
            ..Counters::default()
        },
        store_bytes: 0,
        durable: Durable::default(),
        digests: Vec::with_capacity(history.checks.len()),
        profile: None,
        final_result: Vec::new(),
    };

    let mut profile_at_warm = None;
    let mut next_check = 0;
    let mut ops_since_pass = 0u64;
    for (i, batch) in history.batches.iter().enumerate() {
        if i == WARMUP_BATCHES && args.observe {
            profile_at_warm = Some(recorder.profile());
        }
        let op = i as i64;
        let (metrics, apply, run) = tracer
            .span("batch", op, |tracer| {
                let ((), apply) =
                    tracer.span("apply_mutations", op, |_| session.apply_mutations(batch));
                let (metrics, run) =
                    tracer.span("run_incremental", op, |_| session.try_run_incremental());
                (metrics, apply, run)
            })
            .0;
        let metrics = metrics.map_err(|e| e.to_string())?;
        ops.attempted += 1;
        ops_since_pass += 1;
        if i >= WARMUP_BATCHES {
            out.apply_ms.push(apply.as_secs_f64() * 1e3);
            out.run_ms.push(run.as_secs_f64() * 1e3);
            let c = &mut out.counters;
            c.supersteps += metrics.supersteps as u64;
            c.starts += metrics.work_units;
            c.recomputed_vertices += metrics.recomputed_vertices;
            add_io(&mut c.io, &metrics.io);
        }

        if spec.durable && (i + 1) % spec.checkpoint_every == 0 {
            let (id, wall) = tracer.span("checkpoint", op, |_| session.checkpoint());
            id.map_err(|e| e.to_string())?;
            ops.attempted += 1;
            ops_since_pass += 1;
            out.durable.checkpoint_ms.push(wall.as_secs_f64() * 1e3);
        }

        if history
            .checks
            .get(next_check)
            .is_some_and(|(at, _)| *at == i + 1)
        {
            let passed = tracer
                .span("check", op, |_| {
                    let got = result_of(&session, spec);
                    let got_digest = digest(&got);
                    out.digests.push(got_digest);
                    match args.verify {
                        Verify::Oracle => {
                            let mut want =
                                from_scratch(spec, history, &history.checks[next_check].1);
                            if spec.corrupt_oracle_check == Some(next_check) {
                                want[0] = Value::Long(-1);
                            }
                            got == want
                        }
                        Verify::Digests(want) => want.get(next_check) == Some(&got_digest),
                    }
                })
                .0;
            if passed {
                ops_since_pass = 0;
            } else {
                eprintln!(
                    "{}: replay {}: result after batch {} differs from the from-scratch result",
                    spec.name, args.index, i
                );
                ops.failed += ops_since_pass;
                ops_since_pass = 0;
            }
            next_check += 1;
        }
    }

    if let Some(at_warm) = profile_at_warm {
        out.profile = Some(recorder.profile().since(&at_warm));
    }
    out.store_bytes = session.store_bytes() + session.graph.edge_store_bytes();
    out.counters.delta_segments = session
        .graph
        .partitions
        .iter()
        .map(|p| (p.out.delta_segments() + p.rev.as_ref().map_or(0, |r| r.delta_segments())) as u64)
        .sum();
    out.final_result = result_of(&session, spec);

    if spec.durable {
        out.durable.bytes_on_disk = dir_bytes(&dirs.wal, None);
        out.durable.wal_bytes = dir_bytes(&dirs.wal, Some("wal-"));
        out.counters.replayed_records = records_to_replay(&dirs.wal);
        let before = digest(&out.final_result);
        drop(session);
        let (recovered, wall) = tracer.span("recover", -1, |_| Session::recover(&dirs.wal));
        ops.attempted += 1;
        let recovered = recovered.map_err(|e| e.to_string())?;
        out.durable.recover_s = wall.as_secs_f64();
        if digest(&result_of(&recovered, spec)) != before {
            eprintln!(
                "{}: replay {}: the recovered session differs",
                spec.name, args.index
            );
            ops.failed += 1;
        }
    }
    Ok(out)
}

fn add_io(acc: &mut IoSnapshot, io: &IoSnapshot) {
    acc.disk_read_bytes += io.disk_read_bytes;
    acc.disk_write_bytes += io.disk_write_bytes;
    acc.page_reads += io.page_reads;
    acc.page_hits += io.page_hits;
    acc.net_bytes += io.net_bytes;
    acc.walks_enumerated += io.walks_enumerated;
    acc.recomputations += io.recomputations;
    acc.cache_hits += io.cache_hits;
    acc.cache_misses += io.cache_misses;
    acc.cache_evictions += io.cache_evictions;
}
