//! Per-run metrics: wall time plus the byte-accurate counters the paper's
//! evaluation reports (disk IO, network transfer, walks enumerated,
//! recomputations).

use itg_store::IoSnapshot;
use std::time::Duration;

/// Which kind of run produced the metrics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunKind {
    OneShot,
    Incremental,
}

/// Intra-partition parallel execution counters, aggregated over every
/// enumeration phase (one per machine per superstep) of a run.
///
/// The chunk decomposition — and therefore `phases` and `chunks` — depends
/// only on the work-list sizes, so these two are identical for any
/// `threads_per_machine` and belong in determinism assertions. The
/// per-worker extrema describe how the *scheduler* happened to distribute
/// chunks: with one thread the lone worker takes everything
/// (`max == min == phase total`); with more threads they expose the
/// imbalance between the busiest and idlest worker, and they legitimately
/// vary with the thread count (though not run-to-run for `threads == 1`).
///
/// Equality deliberately ignores [`ParallelMetrics::timing`]: wall-clock
/// timings are non-deterministic by nature and must not participate in the
/// engine's determinism assertions (the `parallel_equivalence` test
/// compares these metrics across thread counts).
#[derive(Debug, Clone, Default)]
pub struct ParallelMetrics {
    /// Enumeration phases executed (machine × superstep, plus recompute
    /// passes).
    pub phases: u64,
    /// Work-list chunks executed across all phases.
    pub chunks: u64,
    /// Sum over phases of the busiest worker's item count.
    pub max_worker_units: u64,
    /// Sum over phases of the idlest worker's item count.
    pub min_worker_units: u64,
    /// Per-worker wall-clock aggregates; populated only when the session's
    /// observability recorder is enabled (all zero otherwise), and excluded
    /// from `PartialEq`.
    pub timing: PhaseTimings,
}

/// Per-worker wall-clock aggregates of the intra-partition enumeration
/// phases — the timing companion to the deterministic item counts.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PhaseTimings {
    /// Sum over phases of the busiest worker's nanoseconds.
    pub max_worker_ns: u64,
    /// Sum over phases of the idlest worker's nanoseconds.
    pub min_worker_ns: u64,
    /// Total worker nanoseconds across all phases and workers.
    pub total_worker_ns: u64,
}

impl PartialEq for ParallelMetrics {
    fn eq(&self, other: &ParallelMetrics) -> bool {
        // `timing` intentionally omitted — see the type-level docs.
        self.phases == other.phases
            && self.chunks == other.chunks
            && self.max_worker_units == other.max_worker_units
            && self.min_worker_units == other.min_worker_units
    }
}

impl Eq for ParallelMetrics {}

impl ParallelMetrics {
    /// Fold one phase's per-worker item counts (and, when timed,
    /// per-worker nanoseconds — pass `&[]` when timing is disabled) in.
    pub fn record_phase(&mut self, chunks: u64, per_worker_units: &[u64], per_worker_ns: &[u64]) {
        self.phases += 1;
        self.chunks += chunks;
        self.max_worker_units += per_worker_units.iter().copied().max().unwrap_or(0);
        self.min_worker_units += per_worker_units.iter().copied().min().unwrap_or(0);
        self.timing.max_worker_ns += per_worker_ns.iter().copied().max().unwrap_or(0);
        self.timing.min_worker_ns += per_worker_ns.iter().copied().min().unwrap_or(0);
        self.timing.total_worker_ns += per_worker_ns.iter().sum::<u64>();
    }

    /// Busiest-minus-idlest worker load, summed over phases — the
    /// imbalance proxy (0 when every phase ran on one worker).
    pub fn imbalance(&self) -> u64 {
        self.max_worker_units - self.min_worker_units
    }
}

/// Metrics for one analytics run (one-shot or one incremental batch).
///
/// When the session's observability recorder is enabled (`ITG_PROFILE=1`
/// or an explicit `EngineConfig::obs`), [`RunMetrics::profile`] carries the
/// hierarchical span/counter/histogram profile of exactly this run:
///
/// ```
/// use itg_engine::{EngineConfig, GraphInput, SessionBuilder};
///
/// let mut cfg = EngineConfig::default();
/// cfg.obs = itg_obs::Recorder::enabled();
/// let g = GraphInput::undirected(vec![(0, 1), (1, 2)]);
/// let src = "
///     Vertex (id, active, nbrs, c: Accm<long, SUM>)
///     Initialize (u): { u.active = true; }
///     Traverse (u): { For v in u.nbrs { v.c.Accumulate(1); } }
///     Update (u): { }
/// ";
/// let mut sess = SessionBuilder::from_config(cfg).from_source(src, &g).unwrap();
/// let m = sess.run_oneshot();
/// let profile = m.profile.expect("recorder enabled");
/// assert!(profile.span_total_ns("run/traverse") > 0);
/// ```
#[derive(Debug, Clone)]
pub struct RunMetrics {
    pub kind: RunKind,
    pub wall: Duration,
    pub supersteps: usize,
    /// Aggregated IO across all simulated machines.
    pub io: IoSnapshot,
    /// Sum over executed supersteps of the Δ-stream's seed counts: active
    /// vertices (one-shot) or changed attribute images (incremental) — a
    /// work proxy.
    pub work_units: u64,
    /// Vertices whose accumulators required monoid recomputation.
    pub recomputed_vertices: u64,
    /// Intra-partition parallel execution counters.
    pub parallel: ParallelMetrics,
    /// Interval profile of this run (spans, Δ-stream counters, IO
    /// histograms); `None` when the session's recorder is disabled.
    pub profile: Option<itg_obs::Profile>,
}

impl RunMetrics {
    pub fn new(kind: RunKind) -> RunMetrics {
        RunMetrics {
            kind,
            wall: Duration::ZERO,
            supersteps: 0,
            io: IoSnapshot::default(),
            work_units: 0,
            recomputed_vertices: 0,
            parallel: ParallelMetrics::default(),
            profile: None,
        }
    }

    /// Seconds, for report tables.
    pub fn secs(&self) -> f64 {
        self.wall.as_secs_f64()
    }

    /// One-line human-readable summary.
    pub fn summary(&self) -> String {
        format!(
            "{:?}: {:.3}s, {} supersteps, {} walks, disk r/w {}/{} B, net {} B, recomputed {}, \
             {} chunks over {} phases (imbalance {})",
            self.kind,
            self.secs(),
            self.supersteps,
            self.io.walks_enumerated,
            self.io.disk_read_bytes,
            self.io.disk_write_bytes,
            self.io.net_bytes,
            self.recomputed_vertices,
            self.parallel.chunks,
            self.parallel.phases,
            self.parallel.imbalance(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_renders() {
        let m = RunMetrics::new(RunKind::OneShot);
        let s = m.summary();
        assert!(s.contains("OneShot"));
        assert!(s.contains("supersteps"));
        assert!(s.contains("phases"));
    }

    #[test]
    fn parallel_metrics_fold_extrema_per_phase() {
        let mut p = ParallelMetrics::default();
        p.record_phase(3, &[10, 4], &[]);
        p.record_phase(2, &[5], &[]);
        assert_eq!(p.phases, 2);
        assert_eq!(p.chunks, 5);
        assert_eq!(p.max_worker_units, 15);
        assert_eq!(p.min_worker_units, 9);
        assert_eq!(p.imbalance(), 6);
    }

    #[test]
    fn equality_ignores_wall_clock_timing() {
        let mut a = ParallelMetrics::default();
        let mut b = ParallelMetrics::default();
        a.record_phase(1, &[7], &[1_000]);
        b.record_phase(1, &[7], &[9_999]);
        assert_eq!(a, b, "timing must not break determinism comparisons");
        assert_ne!(a.timing, b.timing);
        b.record_phase(1, &[7], &[]);
        assert_ne!(a, b);
    }
}
