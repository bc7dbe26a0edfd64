//! The coordinator side of the process transport: spawns and bootstraps
//! the `itg-partition-worker` fleet, then drives runs purely through the
//! control protocol — barrier release, global reduction, recompute-set
//! union, and convergence voting. The coordinator executes no supersteps
//! itself; its partition state is populated from the workers' end-of-run
//! [`Payload::AttrImage`] frames so the read API ([`Session::attr_value`],
//! [`Session::global_value`], …) behaves identically to the local plane.

use crate::accum::Contribution;
use crate::config::EngineConfig;
use crate::exchange::{reduce_partials, unexpected};
use crate::graph::{partition_slice, GraphInput};
use crate::metrics::RunMetrics;
use crate::session::{protocol, EngineError, Plane, Session};
use crate::transport::{ClusterSpec, ProcessTransport};
use crate::wire::{cluster_fingerprint, Payload, RunDoneStats};
use itg_compiler::CompiledProgram;
use itg_gsa::VertexId;
use itg_store::IoSnapshot;

impl Session {
    /// Establish the worker fleet a [`ClusterSpec`] describes, ship each
    /// rank its bootstrap frame (program source, graph slice, config), and
    /// await the `Hello` round.
    pub(crate) fn build_coordinator(
        program: CompiledProgram,
        input: &GraphInput,
        cfg: EngineConfig,
        spec: &ClusterSpec,
    ) -> Result<Session, EngineError> {
        if program.source.is_empty() {
            return Err(EngineError::Unsupported(
                "process transport requires a program compiled from source \
                 (Session::from_source or compile_source), so workers can \
                 recompile it deterministically"
                    .into(),
            ));
        }
        let workers = spec.resolved_workers(cfg.machines)?;
        let fingerprint = cluster_fingerprint(
            cfg.machines,
            workers,
            &program.source,
            input.num_vertices as u64,
            input.undirected,
        );
        let mut t = ProcessTransport::connect(cfg.machines, spec, fingerprint, &cfg.obs)?;
        let mut replay = itg_store::codec::Writer::new();
        cfg.encode_replay(&mut replay);
        let workers = t.workers();
        // Single-hop programs only ever read the 1-neighbourhood closure of
        // their owned machines, so each rank's bootstrap ships just its
        // partition slice (~1/workers of the edge list). Multi-hop walks
        // (tc, lcc) read beyond that closure and get the full image.
        let slice_bootstrap = program.max_hops <= 1 && workers > 1;
        for rank in 0..workers {
            let edges = if slice_bootstrap {
                partition_slice(&input.edges, cfg.machines, &t.owned_range(rank))
            } else {
                input.edges.clone()
            };
            t.send_ctrl(
                rank,
                &Payload::Bootstrap {
                    rank: rank as u32,
                    workers: workers as u32,
                    source: program.source.clone(),
                    num_vertices: input.num_vertices as u64,
                    undirected: input.undirected,
                    edges,
                    replay: replay.buf.clone(),
                    cache_bytes: cfg.cache_bytes,
                },
            );
        }
        let mut hellos = vec![false; workers];
        for _ in 0..workers {
            match t.recv_coord()? {
                (_, Payload::Hello { rank }) => {
                    let rank = rank as usize;
                    if rank >= workers || hellos[rank] {
                        return Err(protocol(format!("duplicate hello from rank {rank}")));
                    }
                    hellos[rank] = true;
                }
                (_, other) => return Err(unexpected("Hello", &other)),
            }
        }
        Session::assemble(program, input, cfg, Plane::Coordinator(t), 0..0)
    }

    /// The coordinator's side of the convergence vote before `superstep`:
    /// collect every worker's [`Payload::Frontier`], broadcast the reduced
    /// total, and decide — as every worker will — whether the superstep runs.
    pub(crate) fn frontier_round(
        &mut self,
        superstep: usize,
        prev_k: usize,
    ) -> Result<bool, EngineError> {
        let workers = self.coord().workers();
        let mut total = 0u64;
        for _ in 0..workers {
            match self.coord().recv_coord()? {
                (_, Payload::Frontier { superstep: fs, active, .. }) => {
                    if fs != superstep as u64 {
                        return Err(protocol(format!(
                            "frontier for superstep {fs} while coordinating {superstep}"
                        )));
                    }
                    total += active;
                }
                (_, other) => return Err(unexpected("Frontier", &other)),
            }
        }
        self.coord().broadcast(&Payload::FrontierTotal {
            superstep: superstep as u64,
            active: total,
        });
        Ok(self.continues(superstep, prev_k, total as usize))
    }

    /// Release one exchange barrier and reduce the `machines` queued
    /// [`Payload::GlobalsPartial`] frames it gathered.
    pub(crate) fn reduce_round(&mut self) -> Result<Vec<Contribution>, EngineError> {
        self.barrier_seq += 1;
        let seq = self.barrier_seq;
        self.coord().barrier_round(seq)?;
        let m = self.cfg.machines;
        let mut partials: Vec<(u32, Vec<Contribution>)> = Vec::with_capacity(m);
        for _ in 0..m {
            match self.coord().recv_coord()? {
                (_, Payload::GlobalsPartial { from, globals }) => partials.push((from, globals)),
                (_, other) => return Err(unexpected("GlobalsPartial", &other)),
            }
        }
        reduce_partials(self.global_infos(), partials)
    }

    /// Collect every worker's [`Payload::RecomputeSets`], broadcast their
    /// union as sorted, deduplicated per-accumulator lists (the canonical
    /// wire form of [`Payload::RecomputeUnion`]) and return its size.
    pub(crate) fn union_round(&mut self) -> Result<usize, EngineError> {
        let workers = self.coord().workers();
        let n_accms = self.layout.num_accms();
        let mut union: Vec<Vec<VertexId>> = vec![Vec::new(); n_accms];
        for _ in 0..workers {
            match self.coord().recv_coord()? {
                (_, Payload::RecomputeSets { sets, .. }) => {
                    if sets.len() != n_accms {
                        return Err(protocol("recompute set arity mismatch"));
                    }
                    for (a, set) in sets.into_iter().enumerate() {
                        union[a].extend(set);
                    }
                }
                (_, other) => return Err(unexpected("RecomputeSets", &other)),
            }
        }
        for set in &mut union {
            set.sort_unstable();
            set.dedup();
        }
        let n = union.iter().map(|u| u.len()).sum();
        self.coord().broadcast(&Payload::RecomputeUnion { sets: union });
        Ok(n)
    }

    /// Collect the end-of-run report: one [`Payload::RunDone`] per worker
    /// and one [`Payload::AttrImage`] per machine, in any interleaving.
    /// Attribute images land in the coordinator's partition state so the
    /// read API serves final values; the workers' scalar results fold into
    /// `metrics`: additive counters sum (each enumeration phase ran on
    /// exactly one worker); the recompute count is the cluster-wide union
    /// every worker already agrees on, so rank 0's value is taken, not
    /// summed.
    pub(crate) fn collect_run_results(
        &mut self,
        supersteps: usize,
        metrics: &mut RunMetrics,
    ) -> Result<(), EngineError> {
        let workers = self.coord().workers();
        let m = self.cfg.machines;
        let mut stats: Vec<Option<RunDoneStats>> = vec![None; workers];
        let mut images = 0usize;
        let mut seen_image = vec![false; m];
        while stats.iter().any(|s| s.is_none()) || images < m {
            match self.coord().recv_coord()? {
                (rank, Payload::RunDone { stats: st, .. }) => {
                    if st.supersteps != supersteps as u64 {
                        return Err(protocol(format!(
                            "rank {rank} ran {} supersteps, coordinator counted {supersteps}",
                            st.supersteps
                        )));
                    }
                    if stats[rank].replace(st).is_some() {
                        return Err(protocol(format!("duplicate RunDone from rank {rank}")));
                    }
                }
                (_, Payload::AttrImage { machine, cols }) => {
                    let machine = machine as usize;
                    if machine >= m || seen_image[machine] {
                        return Err(protocol(format!(
                            "duplicate or out-of-range attribute image for machine {machine}"
                        )));
                    }
                    seen_image[machine] = true;
                    images += 1;
                    self.parts[machine].cur_attrs = cols;
                }
                (_, other) => return Err(unexpected("RunDone/AttrImage", &other)),
            }
        }
        let mut io = IoSnapshot::default();
        for st in stats.iter().flatten() {
            io.disk_read_bytes += st.io.disk_read_bytes;
            io.disk_write_bytes += st.io.disk_write_bytes;
            io.page_reads += st.io.page_reads;
            io.page_hits += st.io.page_hits;
            io.net_bytes += st.io.net_bytes;
            io.walks_enumerated += st.io.walks_enumerated;
            io.recomputations += st.io.recomputations;
            metrics.work_units += st.work_units;
            metrics.parallel.phases += st.phases;
            metrics.parallel.chunks += st.chunks;
            metrics.parallel.max_worker_units += st.max_worker_units;
            metrics.parallel.min_worker_units += st.min_worker_units;
        }
        metrics.recomputed_vertices = stats.iter().flatten().next().map_or(0, |st| st.recomputed);
        metrics.io = io;
        Ok(())
    }
}
