//! Shared infrastructure for the experiment harness (see DESIGN.md §3 for
//! the experiment index).
//!
//! The paper's datasets are terabyte-scale; the harness reproduces every
//! table and figure at laptop scale with RMAT graphs of matching *relative*
//! sizes and a DD memory budget scaled by the same factor, so the shapes —
//! who wins, by roughly what factor, where the OOM walls fall — carry
//! over. EXPERIMENTS.md records paper-vs-measured for each artifact.

use iturbograph::graphgen::{canonical_undirected, generate, generate_undirected, RmatConfig};
use iturbograph::prelude::*;
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// The DD per-run memory budget standing in for the paper's 64 GB/machine:
/// the evaluation graphs are scaled down by ~2×10⁴ from the paper's, and
/// so is the budget.
pub const DD_BUDGET: u64 = 24 << 20;

/// Scaled stand-ins for the paper's real-graph ladder (Table 5):
/// TWT → GSH15 → CW12 → HL in increasing size.
pub const REAL_GRAPHS: &[(&str, u32)] = &[
    ("TWT*", 16),
    ("GSH15*", 17),
    ("CW12*", 18),
    ("HL*", 19),
];

/// A prepared experiment dataset: the 90% initial graph plus mutation
/// pools following the paper's workload protocol (§6.1).
pub struct Dataset {
    pub name: String,
    pub n: usize,
    pub initial: Vec<(u64, u64)>,
    insert_pool: Vec<(u64, u64)>,
    alive: Vec<(u64, u64)>,
    rng: SmallRng,
    pub undirected: bool,
}

impl Dataset {
    /// Undirected RMAT_x dataset (canonical edges; mirrored at load).
    pub fn rmat_undirected(name: &str, x: u32, seed: u64) -> Dataset {
        let cfg = RmatConfig::paper_scale(x, seed);
        let edges = canonical_undirected(&generate_undirected(&cfg));
        Dataset::from_edges(name, cfg.num_vertices(), edges, seed, true)
    }

    /// Directed RMAT_x dataset (for PR).
    pub fn rmat_directed(name: &str, x: u32, seed: u64) -> Dataset {
        let cfg = RmatConfig::paper_scale(x, seed);
        let edges = generate(&cfg);
        Dataset::from_edges(name, cfg.num_vertices(), edges, seed, false)
    }

    /// The paper's TWT_X analogue: an RMAT base graph upscaled
    /// EvoGraph-style by `factor` (undirected).
    pub fn twt_upscaled(name: &str, base_x: u32, factor: usize, seed: u64) -> Dataset {
        let cfg = RmatConfig::paper_scale(base_x, seed);
        let base = generate(&cfg);
        let (n, edges) = iturbograph::graphgen::upscale(cfg.num_vertices(), &base, factor, seed);
        let canonical = canonical_undirected(&edges);
        Dataset::from_edges(name, n, canonical, seed, true)
    }

    /// Directed variant of [`Self::twt_upscaled`] (for PR).
    pub fn twt_upscaled_directed(name: &str, base_x: u32, factor: usize, seed: u64) -> Dataset {
        let cfg = RmatConfig::paper_scale(base_x, seed);
        let base = generate(&cfg);
        let (n, edges) = iturbograph::graphgen::upscale(cfg.num_vertices(), &base, factor, seed);
        Dataset::from_edges(name, n, edges, seed, false)
    }

    fn from_edges(
        name: &str,
        n: usize,
        edges: Vec<(u64, u64)>,
        seed: u64,
        undirected: bool,
    ) -> Dataset {
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x9e37_79b9);
        let mut shuffled = edges;
        shuffled.shuffle(&mut rng);
        let cut = shuffled.len() * 9 / 10;
        let initial = shuffled[..cut].to_vec();
        let insert_pool = shuffled[cut..].to_vec();
        Dataset {
            name: name.to_string(),
            n,
            alive: initial.clone(),
            initial,
            insert_pool,
            rng,
            undirected,
        }
    }

    pub fn graph_input(&self) -> GraphInput {
        let mut input = if self.undirected {
            GraphInput::undirected(self.initial.clone())
        } else {
            GraphInput::directed(self.initial.clone())
        };
        input.num_vertices = self.n;
        input
    }

    pub fn num_edges(&self) -> usize {
        self.initial.len()
    }

    /// Draw the next ΔG batch: `size` mutations at `insert_pct`:rest. Both
    /// shares are fixed by the ratio: once the insert pool runs dry the
    /// batch comes back short instead of being back-filled with deletes,
    /// which would silently turn the history delete-heavy. Callers that need
    /// full batches check [`Dataset::insert_pool_remaining`] first.
    pub fn next_batch(&mut self, size: usize, insert_pct: u32) -> MutationBatch {
        let want_ins = size * insert_pct as usize / 100;
        let mut muts = Vec::with_capacity(size);
        for _ in 0..want_ins {
            if let Some(e) = self.insert_pool.pop() {
                muts.push(EdgeMutation::insert(e.0, e.1));
                self.alive.push(e);
            }
        }
        for _ in want_ins..size {
            if self.alive.is_empty() {
                break;
            }
            let i = self.rng.gen_range(0..self.alive.len());
            let e = self.alive.swap_remove(i);
            muts.push(EdgeMutation::delete(e.0, e.1));
        }
        MutationBatch::new(muts)
    }

    /// Edges left in the held-out insert pool: how many more inserts
    /// [`Dataset::next_batch`] can still hand out.
    pub fn insert_pool_remaining(&self) -> usize {
        self.insert_pool.len()
    }

    /// The currently alive edges (for baseline engines that ingest plain
    /// lists).
    pub fn alive_edges(&self) -> &[(u64, u64)] {
        &self.alive
    }

    /// Mirror a canonical undirected edge list into both directions.
    pub fn mirrored(edges: &[(u64, u64)]) -> Vec<(u64, u64)> {
        edges.iter().flat_map(|&(a, b)| [(a, b), (b, a)]).collect()
    }
}

/// Result cell for report tables: seconds, or a failure marker.
#[derive(Debug, Clone)]
pub enum Cell {
    Secs(f64),
    /// Out of memory (the paper's "O").
    Oom,
    /// Not run / not supported (the paper's "F").
    Skip,
}

impl std::fmt::Display for Cell {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Cell::Secs(s) => write!(f, "{s:>9.4}"),
            Cell::Oom => write!(f, "{:>9}", "O"),
            Cell::Skip => write!(f, "{:>9}", "-"),
        }
    }
}

/// Print a table with a header row and aligned columns.
pub fn print_table(title: &str, header: &[&str], rows: &[Vec<String>]) {
    println!("\n=== {title} ===");
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let fmt_row = |cells: &[String]| {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:>w$}", c, w = widths.get(i).copied().unwrap_or(8)))
            .collect::<Vec<_>>()
            .join("  ")
    };
    println!(
        "{}",
        fmt_row(&header.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    );
    for row in rows {
        println!("{}", fmt_row(row));
    }
}

/// Run a full incremental experiment: one-shot at G_0, then the mean of
/// `batches` consecutive incremental refreshes (the paper reports the
/// average of four).
pub struct IncrementalResult {
    pub one_shot: RunMetrics,
    pub incremental: Vec<RunMetrics>,
}

impl IncrementalResult {
    pub fn mean_incremental_secs(&self) -> f64 {
        if self.incremental.is_empty() {
            return f64::NAN;
        }
        self.incremental.iter().map(|m| m.secs()).sum::<f64>() / self.incremental.len() as f64
    }

    pub fn speedup(&self) -> f64 {
        self.one_shot.secs() / self.mean_incremental_secs().max(1e-12)
    }
}

/// Drive iTurboGraph over a dataset.
pub fn run_itbgpp(
    dataset: &mut Dataset,
    src: &str,
    cfg: EngineConfig,
    batches: usize,
    batch_size: usize,
    insert_pct: u32,
) -> IncrementalResult {
    let mut session = SessionBuilder::from_config(cfg)
        .from_source(src, &dataset.graph_input())
        .expect("program compiles");
    let one_shot = session.run_oneshot();
    let mut incremental = Vec::with_capacity(batches);
    for _ in 0..batches {
        let batch = dataset.next_batch(batch_size, insert_pct);
        session.apply_mutations(&batch);
        incremental.push(session.run_incremental());
    }
    IncrementalResult {
        one_shot,
        incremental,
    }
}

/// Session superstep cap per algorithm (the paper's protocol: Group 1 runs
/// 10 iterations, Group 2 to convergence).
pub fn superstep_cap(algo: &str) -> usize {
    match algo {
        "pr" | "lp" => 10,
        _ => usize::MAX,
    }
}

/// DD iteration count per algorithm (fixed-point unrolling depth for the
/// connectivity algorithms at harness scale).
pub fn dd_iterations(algo: &str) -> usize {
    match algo {
        "pr" | "lp" => 10,
        _ => 30,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dataset_protocol_is_90_10() {
        let mut d = Dataset::rmat_undirected("t", 10, 1);
        let total = d.initial.len() + d.insert_pool.len();
        assert!(d.initial.len() >= total * 9 / 10 - 1);
        let b = d.next_batch(20, 75);
        assert_eq!(b.len(), 20);
        assert_eq!(b.inserts().count(), 15);
    }

    #[test]
    fn dry_insert_pool_shortens_the_batch_instead_of_adding_deletes() {
        let mut d = Dataset::rmat_undirected("t", 8, 3);
        let pool = d.insert_pool_remaining();
        assert!(pool > 0);
        // Drain all but 5 inserts in one all-insert batch.
        assert_eq!(d.next_batch(pool - 5, 100).inserts().count(), pool - 5);
        assert_eq!(d.insert_pool_remaining(), 5);
        // 20 @ 75:25 wants 15 inserts + 5 deletes; only 5 inserts are left.
        let b = d.next_batch(20, 75);
        assert_eq!((b.inserts().count(), b.deletes().count()), (5, 5));
        assert_eq!(d.insert_pool_remaining(), 0);
        let b = d.next_batch(20, 75);
        assert_eq!((b.inserts().count(), b.deletes().count()), (0, 5));
    }

    #[test]
    fn same_seed_gives_the_same_history() {
        let history = |seed| {
            let mut d = Dataset::rmat_undirected("t", 9, seed);
            (0..6).map(|_| d.next_batch(16, 25).edges().to_vec()).collect::<Vec<_>>()
        };
        assert_eq!(history(7), history(7));
        assert_ne!(history(7), history(8));
    }

    #[test]
    fn itbgpp_runner_produces_metrics() {
        let mut d = Dataset::rmat_undirected("t", 9, 2);
        let r = run_itbgpp(
            &mut d,
            iturbograph::algorithms::TRIANGLE_COUNT,
            EngineConfig::default(),
            2,
            8,
            75,
        );
        assert_eq!(r.incremental.len(), 2);
        assert!(r.one_shot.secs() > 0.0);
        assert!(r.speedup().is_finite());
    }

    #[test]
    fn cells_format() {
        assert_eq!(format!("{}", Cell::Oom).trim(), "O");
        assert!(format!("{}", Cell::Secs(1.5)).contains("1.5"));
    }
}
