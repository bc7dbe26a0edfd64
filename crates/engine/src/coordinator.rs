//! The coordinator side of the process transport: spawns and bootstraps
//! the `itg-partition-worker` fleet, then serves each commanded run as a
//! hub — it releases sync rounds and relays frames, and knows nothing of
//! the schedule the workers run (that is written once, in `driver.rs`).
//! Its partition state is populated from the workers' end-of-run
//! [`Payload::AttrImage`] frames and its globals from their
//! [`Payload::RunDone`] reports, so the read API ([`Session::attr_value`],
//! [`Session::global_value`], …) behaves identically to the local plane.

use crate::config::EngineConfig;
use crate::exchange::unexpected;
use crate::graph::{partition_slice, GraphInput};
use crate::metrics::RunMetrics;
use crate::session::{protocol, EngineError, Plane, Session};
use crate::transport::{ClusterSpec, ProcessTransport};
use crate::wire::{cluster_fingerprint, Payload, RunDoneStats};
use itg_compiler::CompiledProgram;
use itg_gsa::value::Value;
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

    /// Serve the run just commanded as a hub: release each sync round once
    /// every rank has joined it and relay data frames, until every rank's
    /// [`Payload::RunDone`] and every machine's [`Payload::AttrImage`] have
    /// arrived, in any interleaving. Attribute images land in the
    /// coordinator's partition state so the read API serves final values.
    /// Every rank reports the run's globals, and they must agree; they are
    /// the run's result. The workers' scalar results fold into `metrics`:
    /// additive counters sum (each enumeration phase ran on exactly one
    /// worker); the recompute count is the cluster-wide union every worker
    /// already agrees on, so rank 0's value is taken, not summed.
    pub(crate) fn coordinate(
        &mut self,
        metrics: &mut RunMetrics,
    ) -> Result<Vec<Vec<Value>>, EngineError> {
        let workers = self.coord().workers();
        let m = self.cfg.machines;
        let mut reports: Vec<Option<(Vec<Vec<Value>>, RunDoneStats)>> = vec![None; workers];
        let mut seen_image = vec![false; m];
        while reports.iter().any(Option::is_none) || seen_image.contains(&false) {
            match self.coord().recv_coord()? {
                (_, Payload::Sync { from, seq, part }) => self.coord().join(from, seq, part)?,
                (rank, Payload::RunDone { globals, stats, .. }) => {
                    if reports[rank].replace((globals, stats)).is_some() {
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
                    self.parts[machine].cur_attrs = cols;
                }
                (_, other) => return Err(unexpected("Sync/RunDone/AttrImage", &other)),
            }
        }
        let reports: Vec<_> = reports.into_iter().flatten().collect();
        if let Some(rank) = reports.iter().position(|(g, _)| *g != reports[0].0) {
            return Err(protocol(format!(
                "rank {rank} disagrees with rank 0 on the run's globals ({} vs {} steps)",
                reports[rank].0.len(),
                reports[0].0.len()
            )));
        }
        let mut io = IoSnapshot::default();
        for (_, st) in &reports {
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
            self.coord().count_worker_frames(st.frames);
        }
        metrics.recomputed_vertices = reports[0].1.recomputed;
        metrics.io = io;
        let (globals, _) = reports.into_iter().next().expect("one report per rank");
        Ok(globals)
    }
}
