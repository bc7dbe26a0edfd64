//! The delta-based vertex attribute store (paper §5.5).
//!
//! Vertex attribute values change along two axes: across *supersteps*
//! within one run and across *snapshots* of the dynamic graph. For every
//! superstep `s` the store keeps a chain of after-image *runs*, one per
//! snapshot: run (t, s) holds the values of every vertex `v` with
//! `A_{t,s}(v) ≠ A_{t,s-1}(v)` or `A_{t,s}(v) ≠ A_{t-1,s}(v)`.
//!
//! The OR condition makes a simple invariant hold (and the unit tests pin
//! it): an in-memory array holding `A_{t,s}` becomes `A_{t,s+1}` by
//! overlaying, oldest-first, every run recorded for superstep `s+1` up to
//! snapshot `t`. This is exactly the paper's advance-by-loading-deltas read
//! path, and its repeated cost is what the merge policy (see
//! [`crate::maintenance`]) trades against the write cost of consolidation.
//!
//! Every bulk path moves typed columns and costs the rows it touches: an
//! overlay is one [`ColumnData::scatter`] per column per run, a merge one
//! stable sort of the chain's rows plus one [`ColumnData::gather_from`] per
//! column, and the merge test reads a per-chain union kept as runs are
//! recorded (DESIGN.md §4.5).
//!
//! A store whose windows are read a few rows at a time (the engine's
//! accumulator store) also keeps a per-chain *latest-writer index* and
//! serves [`AttrStore::load_rows`]: a point read costs the rows it copies,
//! not the window.

use crate::codec::{CodecError, CodecResult, Reader, Writer};
use crate::maintenance::{ChainSummary, MaintenancePolicy};
use crate::stats::IoStats;
use itg_gsa::value::{ColumnData, Value, ValueType};

/// One after-image run: columnar values for the changed vertices of one
/// (snapshot, superstep) cell.
#[derive(Debug, Clone)]
pub struct Run {
    pub snapshot: usize,
    pub vids: Vec<u32>,
    pub cols: Vec<ColumnData>,
}

impl Run {
    pub fn len(&self) -> usize {
        self.vids.len()
    }

    pub fn is_empty(&self) -> bool {
        self.vids.is_empty()
    }

    /// Serialized size: 4 bytes per vid plus the column payloads.
    pub fn size_bytes(&self) -> u64 {
        let per_row: u64 = 4 + self.cols.iter().map(|c| c.elem_bytes() as u64).sum::<u64>();
        per_row * self.vids.len() as u64
    }
}

/// The per-superstep delta chain: an optional consolidated checkpoint run
/// followed by the unmerged per-snapshot runs.
#[derive(Debug, Default)]
struct Chain {
    checkpoint: Option<Run>,
    runs: Vec<Run>,
    /// `∪_τ X^{(τ,s)}` over the checkpoint and the runs: each record adds
    /// its own vids, a merge leaves it as it is. Derived, never serialized —
    /// decoding rebuilds it from the runs.
    union: VidSet,
    /// The latest-writer index of a point-read store, by vid: the newest
    /// source listing the vid and its row there, the source numbered as in
    /// [`AttrStore::load_rows`]'s gather — [`CHECKPOINT`], [`RUN0`]` + k` for
    /// run `k`, [`BASELINE`] for none. Empty in any other store. Derived,
    /// never serialized, and not in `size_bytes()`.
    latest: Vec<(u32, u32)>,
}

/// [`Chain::latest`]'s source numbers: no run lists the vid, the
/// checkpoint does, run `k` does (`RUN0 + k`).
const BASELINE: u32 = 0;
const CHECKPOINT: u32 = 1;
const RUN0: u32 = 2;

/// Name source `src` the newest writer of each of `vids` in `latest`.
fn index(latest: &mut Vec<(u32, u32)>, src: u32, vids: &[u32]) {
    let end = vids.iter().max().map_or(0, |&v| v as usize + 1);
    if latest.len() < end {
        latest.resize(end, (BASELINE, 0));
    }
    for (j, &v) in vids.iter().enumerate() {
        latest[v as usize] = (src, j as u32);
    }
}

/// A set of local vertex ids: a bitmap, widened as ids arrive, and its size.
#[derive(Debug, Default)]
struct VidSet {
    words: Vec<u64>,
    len: u64,
}

impl VidSet {
    fn extend(&mut self, vids: &[u32]) {
        for &v in vids {
            let (w, bit) = (v as usize / 64, 1u64 << (v % 64));
            if w >= self.words.len() {
                self.words.resize(w + 1, 0);
            }
            self.len += u64::from(self.words[w] & bit == 0);
            self.words[w] |= bit;
        }
    }
}

impl Chain {
    fn push(&mut self, run: Run, point_reads: bool) {
        self.union.extend(&run.vids);
        if point_reads {
            index(&mut self.latest, RUN0 + self.runs.len() as u32, &run.vids);
        }
        self.runs.push(run);
    }

    /// Rebuild the latest-writer index from every source, oldest first.
    fn reindex(&mut self) {
        let Chain { checkpoint, runs, latest, .. } = self;
        latest.clear();
        if let Some(cp) = checkpoint {
            index(latest, CHECKPOINT, &cp.vids);
        }
        for (k, run) in runs.iter().enumerate() {
            index(latest, RUN0 + k as u32, &run.vids);
        }
    }

    /// The snapshot of the newest source, if any.
    fn newest_snapshot(&self) -> Option<usize> {
        self.sources().last().map(|r| r.snapshot)
    }

    /// The checkpoint, then the runs: oldest first.
    fn sources(&self) -> impl Iterator<Item = &Run> {
        self.checkpoint.iter().chain(&self.runs)
    }

    fn summary(&self, snapshot: usize) -> ChainSummary {
        let weighted = self.runs.iter().map(|r| {
            snapshot.saturating_sub(r.snapshot) as u64 * r.len() as u64
        });
        ChainSummary {
            snapshot,
            distinct_vertices: self.union.len,
            weighted_run_reads: weighted.sum(),
            run_count: self.runs.len(),
        }
    }
}

/// A group of vertex attribute columns with per-superstep delta chains.
/// The engine instantiates one for non-accumulator attributes (`A_{t,s}`)
/// and one for accumulator attributes (`A^accm_{t,s}`).
#[derive(Debug)]
pub struct AttrStore {
    col_types: Vec<ValueType>,
    n: usize,
    /// Baseline columns: `A_{0,0}` as written by Initialize at snapshot 0.
    init: Vec<ColumnData>,
    chains: Vec<Chain>,
    policy: MaintenancePolicy,
    stats: IoStats,
    merges_performed: u64,
    /// Keep the chains' latest-writer indexes ([`Self::with_point_reads`]).
    point_reads: bool,
}

impl AttrStore {
    pub fn new(
        col_types: Vec<ValueType>,
        n: usize,
        policy: MaintenancePolicy,
        stats: IoStats,
    ) -> AttrStore {
        let init = col_types
            .iter()
            .map(|&t| ColumnData::zeros(t, n))
            .collect();
        AttrStore {
            col_types,
            n,
            init,
            chains: Vec::new(),
            policy,
            stats,
            merges_performed: 0,
            point_reads: false,
        }
    }

    /// This store, serving [`Self::load_rows`]: every chain keeps a
    /// latest-writer index from here on, built now from the chains held.
    /// Not part of the encoded state — a decoded store is point-read once
    /// this is called on it again, which rebuilds the indexes.
    pub fn with_point_reads(mut self) -> AttrStore {
        self.point_reads = true;
        self.chains.iter_mut().for_each(Chain::reindex);
        self
    }

    pub fn num_vertices(&self) -> usize {
        self.n
    }

    pub fn num_cols(&self) -> usize {
        self.col_types.len()
    }

    pub fn col_types(&self) -> &[ValueType] {
        &self.col_types
    }

    pub fn merges_performed(&self) -> u64 {
        self.merges_performed
    }

    /// Grow the vertex space; new vertices take zero values in `init`.
    pub fn grow(&mut self, n: usize) {
        self.grow_with(n, None);
    }

    /// Grow the vertex space, filling new slots with `fill` (one value per
    /// column) instead of zeros — accumulator stores grow with identity
    /// rows, not zero rows. The chains' unions widen as new ids arrive.
    pub fn grow_with(&mut self, n: usize, fill: Option<&[Value]>) {
        if n <= self.n {
            return;
        }
        let zeros: Vec<Value> = self.col_types.iter().map(|t| t.zero()).collect();
        let fill = fill.unwrap_or(&zeros);
        for (col, x) in self.init.iter_mut().zip(fill) {
            col.resize(n, x);
        }
        self.n = n;
    }

    /// Write the baseline `A_{0,0}` columns (the output of Initialize at
    /// snapshot 0). Accounted as a full sequential write.
    pub fn set_init(&mut self, cols: Vec<ColumnData>) {
        assert_eq!(cols.len(), self.col_types.len());
        self.stats.add_disk_write(cols_size_bytes(&cols));
        self.n = cols.first().map_or(self.n, |c| c.len());
        self.init = cols;
    }

    /// A fresh in-memory working array initialized from the baseline
    /// (read cost: the baseline bytes).
    pub fn materialize_init(&self) -> Vec<ColumnData> {
        let t0 = self.load_timer_start();
        self.stats.add_disk_read(cols_size_bytes(&self.init));
        let out = self.init.clone();
        self.load_timer_stop(t0);
        out
    }

    /// Record the after-image run for (snapshot `t`, superstep `s`), then
    /// let the maintenance policy decide whether to merge the chain.
    /// `vids`/`rows` list the changed vertices and their new values.
    pub fn record_run(&mut self, t: usize, s: usize, vids: Vec<u32>, cols: Vec<ColumnData>) {
        let _span = self.stats.obs.attr_record.clone();
        let _g = _span.start();
        debug_assert_eq!(cols.len(), self.col_types.len());
        debug_assert!(cols.iter().all(|c| c.len() == vids.len()));
        debug_assert!(vids.iter().all(|&v| (v as usize) < self.n));
        if self.chains.len() <= s {
            self.chains.resize_with(s + 1, Chain::default);
        }
        let run = Run {
            snapshot: t,
            vids,
            cols,
        };
        self.stats.add_disk_write(run.size_bytes());
        let chain = &mut self.chains[s];
        chain.push(run, self.point_reads);
        if self.policy.should_merge(&chain.summary(t)) {
            self.merge_chain(s);
        }
    }

    /// Consolidate superstep `s`'s chain into a single checkpoint run. A
    /// stable sort of every `(vid, source, row)` by vid leaves each vertex's
    /// rows oldest-first, so the last one per vid is its latest value; then
    /// one typed gather per column. Read cost: the chain; write cost: the
    /// consolidated run.
    pub fn merge_chain(&mut self, s: usize) {
        let _span = self.stats.obs.merge.clone();
        let _g = _span.start();
        let Some(chain) = self.chains.get_mut(s) else {
            return;
        };
        let Some(last) = chain.runs.last() else {
            return;
        };
        let snapshot = last.snapshot;
        let sources: Vec<&Run> = chain.sources().collect();
        let total = sources.iter().map(|r| r.len()).sum();
        let mut rows: Vec<(u32, u32, u32)> = Vec::with_capacity(total);
        for (k, run) in sources.iter().enumerate() {
            rows.extend(run.vids.iter().enumerate().map(|(j, &v)| (v, k as u32, j as u32)));
        }
        rows.sort_by_key(|&(v, ..)| v);
        rows.dedup_by(|newer, kept| {
            let same = newer.0 == kept.0;
            if same {
                *kept = *newer;
            }
            same
        });
        let cols = (0..self.col_types.len())
            .map(|c| {
                let srcs: Vec<&ColumnData> = sources.iter().map(|r| &r.cols[c]).collect();
                ColumnData::gather_from(&srcs, rows.iter().map(|&(_, k, j)| (k, j)))
            })
            .collect();
        let read_bytes: u64 = sources.iter().map(|r| r.size_bytes()).sum();
        let merged = Run {
            snapshot,
            // Not `into_iter`: an in-place collect would keep the triples'
            // capacity, three times the vids', alive in the checkpoint.
            vids: rows.iter().map(|&(v, ..)| v).collect(),
            cols,
        };
        self.stats.add_disk_read(read_bytes);
        self.stats.add_disk_write(merged.size_bytes());
        // The merged run lists every vid of the union once, so indexing it
        // replaces every entry: the merge's cost, not |V|.
        if self.point_reads {
            index(&mut chain.latest, CHECKPOINT, &merged.vids);
        }
        chain.checkpoint = Some(merged);
        chain.runs.clear();
        self.merges_performed += 1;
    }

    /// Advance an in-memory array from `A_{·,s-1}` to `A_{·,s}` by
    /// overlaying superstep `s`'s runs with `snapshot < t`, oldest-first, onto
    /// `array` (`t = usize::MAX`: the whole chain). Bounded at the current
    /// snapshot it reconstructs the *previous* snapshot's view; over a fresh
    /// baseline ([`Self::materialize_init`], or an accumulator store's
    /// identity image) it is a full window load of superstep `s`. Read
    /// cost: every run touched.
    pub fn load_superstep_before(&self, s: usize, t: usize, array: &mut [ColumnData]) {
        let t0 = self.load_timer_start();
        let mut read = 0u64;
        let chain = self.chains.get(s).into_iter().flat_map(|c| c.sources());
        for run in chain.filter(|r| r.snapshot < t) {
            read += run.size_bytes();
            for (col, src) in array.iter_mut().zip(&run.cols) {
                col.scatter(&run.vids, src);
            }
        }
        self.stats.add_disk_read(read);
        self.load_timer_stop(t0);
    }

    /// Point read of a point-read store ([`Self::with_point_reads`]): the
    /// rows `rows` of superstep `s`'s window below snapshot `t` — the
    /// baseline overlaid with the chain's runs below `t`, as
    /// [`Self::load_superstep_before`] over [`Self::materialize_init`]
    /// leaves them — as compact columns, row `i` holding `rows[i]`. Each
    /// row is looked up in the latest-writer index, then one typed gather
    /// per column copies the rows out of the baseline, the checkpoint and
    /// the runs. Read cost: the rows copied.
    ///
    /// The index names only the newest writer, so the window below `t` can
    /// be read only while the chain holds nothing of snapshot `t` or later:
    /// the read must come before `(t, s)` is recorded, which may also merge
    /// the older runs into a checkpoint stamped `t`. Panics otherwise.
    pub fn read_rows(&self, s: usize, t: usize, rows: &[u32]) -> Vec<ColumnData> {
        assert!(self.point_reads, "a point read of a store without its latest-writer index");
        let t0 = self.load_timer_start();
        let chain = self.chains.get(s);
        if let Some(newest) = chain.and_then(Chain::newest_snapshot) {
            assert!(
                newest < t,
                "superstep {s}'s window below snapshot {t} read after snapshot {newest} was recorded"
            );
        }
        let latest = chain.map_or(&[][..], |c| &c.latest[..]);
        let picks: Vec<(u32, u32)> = rows
            .iter()
            .map(|&v| match latest.get(v as usize) {
                Some(&(src, j)) if src != BASELINE => (src, j),
                _ => (BASELINE, v),
            })
            .collect();
        let out = (0..self.col_types.len())
            .map(|c| {
                let base = &self.init[c];
                let checkpoint = chain.and_then(|ch| ch.checkpoint.as_ref());
                let mut srcs = vec![base, checkpoint.map_or(base, |cp| &cp.cols[c])];
                srcs.extend(chain.into_iter().flat_map(|ch| &ch.runs).map(|r| &r.cols[c]));
                ColumnData::gather_from(&srcs, picks.iter().copied())
            })
            .collect();
        let per_row: u64 = 4 + self.init.iter().map(|c| c.elem_bytes() as u64).sum::<u64>();
        self.stats.add_disk_read(per_row * rows.len() as u64);
        self.load_timer_stop(t0);
        out
    }

    /// [`Self::read_rows`], scattered into `image` at the rows themselves:
    /// each listed row of `image` takes its window value, every other row
    /// is left as it is.
    pub fn load_rows(&self, s: usize, t: usize, rows: &[u32], image: &mut [ColumnData]) {
        for (col, src) in image.iter_mut().zip(self.read_rows(s, t, rows)) {
            col.scatter(rows, &src);
        }
    }

    /// When observability is enabled, start the clock for one attribute
    /// load; paired with [`Self::load_timer_stop`], which feeds both the
    /// `store/attr_load` span and the `store/attr_load_ns` latency
    /// histogram from a single clock pair. Disabled recorders never read
    /// the clock.
    #[inline]
    fn load_timer_start(&self) -> Option<std::time::Instant> {
        self.stats
            .obs
            .attr_load
            .is_enabled()
            .then(std::time::Instant::now)
    }

    #[inline]
    fn load_timer_stop(&self, t0: Option<std::time::Instant>) {
        if let Some(t0) = t0 {
            let ns = t0.elapsed().as_nanos() as u64;
            self.stats.obs.attr_load.record(1, ns);
            self.stats.obs.attr_load_ns.observe(ns);
        }
    }

    /// Total stored bytes across baseline, checkpoints, and runs.
    pub fn size_bytes(&self) -> u64 {
        let chains = self.chains.iter().flat_map(|ch| ch.sources());
        cols_size_bytes(&self.init) + chains.map(|r| r.size_bytes()).sum::<u64>()
    }

    /// Diagnostic: (checkpoint size, run count) of superstep `s`'s chain.
    pub fn chain_shape(&self, s: usize) -> (usize, usize) {
        self.chains.get(s).map_or((0, 0), |c| {
            (
                c.checkpoint.as_ref().map_or(0, |r| r.len()),
                c.runs.len(),
            )
        })
    }

    /// Serialize the full store state — baseline columns, every chain
    /// (checkpoint + unmerged runs), and the merge counter — for snapshot
    /// files. The policy and stats handle are *not* serialized: they are
    /// re-injected by [`Self::decode_from`] so a recovered store reports
    /// into the recovering session's counters.
    pub fn encode_into(&self, w: &mut Writer) {
        w.u64(self.col_types.len() as u64);
        for t in &self.col_types {
            crate::snapshot::put_value_type(w, t);
        }
        w.u64(self.n as u64);
        w.u64(self.merges_performed);
        for col in &self.init {
            crate::snapshot::put_column(w, col);
        }
        w.u64(self.chains.len() as u64);
        for chain in &self.chains {
            w.bool(chain.checkpoint.is_some());
            if let Some(cp) = &chain.checkpoint {
                put_run(w, cp);
            }
            w.u64(chain.runs.len() as u64);
            for run in &chain.runs {
                put_run(w, run);
            }
        }
    }

    /// Inverse of [`Self::encode_into`]. `policy` and `stats` come from the
    /// recovering session, not the snapshot (see `encode_into`). Every
    /// count is capped by the bytes left before it allocates, and every
    /// column must match its declared type and row count and every vid lie
    /// below `n` before anything indexes by them: a violation is
    /// [`CodecError::Malformed`].
    pub fn decode_from(
        r: &mut Reader<'_>,
        policy: MaintenancePolicy,
        stats: IoStats,
    ) -> CodecResult<AttrStore> {
        let ncols = r.u64()?;
        // Smallest encodings: a value type 2 bytes, a chain 9.
        let mut col_types = Vec::with_capacity(r.capacity(ncols, 2));
        for _ in 0..ncols {
            col_types.push(crate::snapshot::get_value_type(r)?);
        }
        let n = r.u64()? as usize;
        let merges_performed = r.u64()?;
        let init = get_cols(r, &col_types, n)?;
        let nchains = r.u64()?;
        let mut chains = Vec::with_capacity(r.capacity(nchains, 9));
        for _ in 0..nchains {
            let mut chain = Chain::default();
            if r.bool()? {
                let cp = get_run(r, &col_types, n)?;
                chain.union.extend(&cp.vids);
                chain.checkpoint = Some(cp);
            }
            for _ in 0..r.u64()? {
                chain.push(get_run(r, &col_types, n)?, false);
            }
            chains.push(chain);
        }
        Ok(AttrStore {
            col_types,
            n,
            init,
            chains,
            policy,
            stats,
            merges_performed,
            point_reads: false,
        })
    }
}

fn cols_size_bytes(cols: &[ColumnData]) -> u64 {
    cols.iter().map(|c| (c.elem_bytes() * c.len()) as u64).sum()
}

fn put_run(w: &mut Writer, run: &Run) {
    w.u64(run.snapshot as u64);
    w.u64(run.vids.len() as u64);
    for &v in &run.vids {
        w.u32(v);
    }
    w.u64(run.cols.len() as u64);
    for col in &run.cols {
        crate::snapshot::put_column(w, col);
    }
}

fn get_run(r: &mut Reader<'_>, col_types: &[ValueType], n: usize) -> CodecResult<Run> {
    let snapshot = r.u64()? as usize;
    let nv = r.u64()?;
    let mut vids = Vec::with_capacity(r.capacity(nv, 4));
    for _ in 0..nv {
        let v = r.u32()?;
        if v as usize >= n {
            return Err(CodecError::Malformed("vertex-store run: vid out of range"));
        }
        vids.push(v);
    }
    if r.u64()? != col_types.len() as u64 {
        return Err(CodecError::Malformed("vertex-store run: column count"));
    }
    let cols = get_cols(r, col_types, vids.len())?;
    Ok(Run {
        snapshot,
        vids,
        cols,
    })
}

/// One column per entry of `col_types`, each of its type and `len` rows.
fn get_cols(
    r: &mut Reader<'_>,
    col_types: &[ValueType],
    len: usize,
) -> CodecResult<Vec<ColumnData>> {
    col_types
        .iter()
        .map(|&ty| {
            let col = crate::snapshot::get_column(r)?;
            if col.len() != len || !col.conforms_to(ty) {
                return Err(CodecError::Malformed("vertex-store column: type or length"));
            }
            Ok(col)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use itg_gsa::value::PrimType;

    fn double_store(n: usize, policy: MaintenancePolicy) -> AttrStore {
        AttrStore::new(
            vec![ValueType::Prim(PrimType::Double)],
            n,
            policy,
            IoStats::new(),
        )
    }

    fn run_cols(vals: &[(u32, f64)]) -> (Vec<u32>, Vec<ColumnData>) {
        let vids: Vec<u32> = vals.iter().map(|&(v, _)| v).collect();
        let col = ColumnData::Double(vals.iter().map(|&(_, x)| x).collect());
        (vids, vec![col])
    }

    /// Simulate two snapshots of a 2-superstep computation and check the
    /// overlay invariant reconstructs each A_{t,s}.
    #[test]
    fn overlay_invariant_reconstructs_views() {
        let mut st = double_store(4, MaintenancePolicy::NoMerge);
        // Snapshot 0: A_{0,1} changes v0, v1; A_{0,2} changes v1.
        let (v, c) = run_cols(&[(0, 1.0), (1, 2.0)]);
        st.record_run(0, 1, v, c);
        let (v, c) = run_cols(&[(1, 3.0)]);
        st.record_run(0, 2, v, c);
        // Snapshot 1: at superstep 1, v1 takes 2.5; at superstep 2, v1
        // returns to the snapshot-0 value 3.0 **but was different at
        // superstep 1**, so the OR condition stores nothing only if equal
        // on both axes — here A_{1,2}(v1)=3.0 equals A_{0,2}(v1) but
        // differs from A_{1,1}(v1)=2.5, so it must be stored.
        let (v, c) = run_cols(&[(1, 2.5)]);
        st.record_run(1, 1, v, c);
        let (v, c) = run_cols(&[(1, 3.0)]);
        st.record_run(1, 2, v, c);

        // Reconstruct A_{1,2}: init → overlay s=1 chain → overlay s=2 chain.
        let mut arr = st.materialize_init();
        st.load_superstep_before(1, usize::MAX, &mut arr);
        assert_eq!(arr[0].get(1), Value::Double(2.5)); // A_{1,1}
        st.load_superstep_before(2, usize::MAX, &mut arr);
        assert_eq!(arr[0].get(1), Value::Double(3.0)); // A_{1,2}
        assert_eq!(arr[0].get(0), Value::Double(1.0)); // unchanged since (0,1)

        // Reconstruct the *previous* snapshot's A_{0,1} via the bounded load.
        let mut prev = st.materialize_init();
        st.load_superstep_before(1, 1, &mut prev);
        assert_eq!(prev[0].get(1), Value::Double(2.0));
    }

    #[test]
    fn merge_consolidates_chain_and_preserves_values() {
        let mut st = double_store(4, MaintenancePolicy::NoMerge);
        for t in 0..5 {
            let (v, c) = run_cols(&[(0, t as f64), (2, 10.0 + t as f64)]);
            st.record_run(t, 1, v, c);
        }
        assert_eq!(st.chain_shape(1), (0, 5));
        let mut before = st.materialize_init();
        st.load_superstep_before(1, usize::MAX, &mut before);

        st.merge_chain(1);
        assert_eq!(st.chain_shape(1), (2, 0));
        let mut after = st.materialize_init();
        st.load_superstep_before(1, usize::MAX, &mut after);
        assert_eq!(before[0].get(0), after[0].get(0));
        assert_eq!(before[0].get(2), after[0].get(2));
        assert_eq!(st.merges_performed(), 1);
    }

    #[test]
    fn cost_based_policy_eventually_merges() {
        let mut st = double_store(64, MaintenancePolicy::CostBased);
        // Same few vertices keep changing: W_merge stays small while
        // R_delta grows quadratically → a merge must trigger.
        for t in 0..20 {
            let (v, c) = run_cols(&[(1, t as f64), (2, t as f64)]);
            st.record_run(t, 1, v, c);
        }
        assert!(st.merges_performed() > 0, "cost-based policy never merged");
        // Values still correct after however many merges.
        let mut arr = st.materialize_init();
        st.load_superstep_before(1, usize::MAX, &mut arr);
        assert_eq!(arr[0].get(1), Value::Double(19.0));
    }

    #[test]
    fn nomerge_read_cost_grows_with_snapshots() {
        let stats = IoStats::new();
        let mut st = AttrStore::new(
            vec![ValueType::Prim(PrimType::Double)],
            8,
            MaintenancePolicy::NoMerge,
            stats.clone(),
        );
        for t in 0..10 {
            let (v, c) = run_cols(&[(0, t as f64)]);
            st.record_run(t, 1, v, c);
        }
        let mut arr = st.materialize_init();
        let a = stats.snapshot();
        st.load_superstep_before(1, usize::MAX, &mut arr);
        let chain10 = stats.snapshot().since(&a).disk_read_bytes;

        // After merging, the same load reads far less.
        st.merge_chain(1);
        let b = stats.snapshot();
        st.load_superstep_before(1, usize::MAX, &mut arr);
        let merged = stats.snapshot().since(&b).disk_read_bytes;
        assert!(merged < chain10, "merged {merged} !< chain {chain10}");
    }

    #[test]
    fn grow_preserves_and_zero_fills() {
        let mut st = double_store(2, MaintenancePolicy::NoMerge);
        st.set_init(vec![ColumnData::Double(vec![5.0, 6.0])]);
        st.grow(4);
        let arr = st.materialize_init();
        assert_eq!(arr[0].get(1), Value::Double(6.0));
        assert_eq!(arr[0].get(3), Value::Double(0.0));
        assert_eq!(st.num_vertices(), 4);
    }

    #[test]
    fn snapshot_roundtrip_is_byte_identical() {
        let mut st = double_store(8, MaintenancePolicy::CostBased);
        st.set_init(vec![ColumnData::Double((0..8).map(|i| i as f64).collect())]);
        for t in 0..6 {
            let (v, c) = run_cols(&[(1, t as f64 + 0.5), (3, -(t as f64))]);
            st.record_run(t, 1, v, c);
        }
        st.merge_chain(1);
        let (v, c) = run_cols(&[(2, f64::NAN)]);
        st.record_run(6, 2, v, c);

        let mut w = Writer::default();
        st.encode_into(&mut w);
        let mut r = Reader::new(&w.buf);
        let st2 =
            AttrStore::decode_from(&mut r, MaintenancePolicy::CostBased, IoStats::new())
                .unwrap();
        r.finish().unwrap();

        // Re-encoding the decoded store reproduces the exact bytes (NaN
        // payloads included — floats travel bitwise).
        let mut w2 = Writer::default();
        st2.encode_into(&mut w2);
        assert_eq!(w.buf, w2.buf);
        assert_eq!(st2.num_vertices(), 8);
        assert_eq!(st2.merges_performed(), st.merges_performed());
        assert_eq!(st2.chain_shape(1), st.chain_shape(1));

        // The decoded chains rebuilt their unions exactly: the next record
        // makes the same merge decision on both stores, on a chain with a
        // checkpoint and on one without.
        let mut st2 = st2;
        for (t, s, rows) in [(6, 1, vec![(1, 9.0), (5, 9.0)]), (7, 2, vec![(2, 1.0)])] {
            for store in [&mut st, &mut st2] {
                let (v, c) = run_cols(&rows);
                store.record_run(t, s, v, c);
            }
            assert_eq!(st2.merges_performed(), st.merges_performed(), "t={t}");
            assert_eq!(st2.chain_shape(s), st.chain_shape(s), "t={t}");
        }
    }

    /// An encoded store with one chain holding one single-row checkpoint
    /// (vid `vid`), with `nv`, the run's column count and its column
    /// written as given.
    fn one_run_image(vid: u32, nv: u64, ncols: u64, col: &ColumnData) -> Vec<u8> {
        let mut w = Writer::default();
        double_store(4, MaintenancePolicy::NoMerge).encode_into(&mut w);
        // Replace the trailing empty chain list with one chain.
        w.buf.truncate(w.buf.len() - 8);
        w.u64(1);
        w.bool(true);
        w.u64(0);
        w.u64(nv);
        w.u32(vid);
        w.u64(ncols);
        for _ in 0..ncols {
            crate::snapshot::put_column(&mut w, col);
        }
        w.u64(0);
        w.buf
    }

    fn decode(buf: &[u8]) -> CodecResult<AttrStore> {
        let mut r = Reader::new(buf);
        let st = AttrStore::decode_from(&mut r, MaintenancePolicy::NoMerge, IoStats::new())?;
        r.finish()?;
        Ok(st)
    }

    #[test]
    fn decode_rejects_malformed_images() {
        let one = ColumnData::Double(vec![1.5]);
        assert!(decode(&one_run_image(3, 1, 1, &one)).is_ok());
        let malformed = |buf: &[u8]| matches!(decode(buf), Err(CodecError::Malformed(_)));
        // A vid past the vertex count.
        assert!(malformed(&one_run_image(100, 1, 1, &one)));
        // A column count other than the store's.
        assert!(malformed(&one_run_image(3, 1, 2, &one)));
        // A column of the wrong type, or of the wrong length.
        assert!(malformed(&one_run_image(3, 1, 1, &ColumnData::Long(vec![1]))));
        assert!(malformed(&one_run_image(3, 1, 1, &ColumnData::Double(vec![1.5, 2.5]))));
        // A vertex count the baseline columns disagree with.
        let mut w = Writer::default();
        double_store(4, MaintenancePolicy::NoMerge).encode_into(&mut w);
        w.buf[8 + 2..8 + 2 + 8].copy_from_slice(&5u64.to_le_bytes());
        assert!(malformed(&w.buf));
    }

    #[test]
    fn decode_caps_capacity_hints_by_the_bytes_left() {
        let one = ColumnData::Double(vec![1.5]);
        // A vid count of u64::MAX: an error, not a capacity overflow.
        assert!(decode(&one_run_image(3, u64::MAX, 1, &one)).is_err());
        // Column, chain and run counts of u64::MAX.
        let mut w = Writer::default();
        w.u64(u64::MAX);
        assert_eq!(decode(&w.buf).unwrap_err(), CodecError::Truncated);
        let mut w = Writer::default();
        double_store(4, MaintenancePolicy::NoMerge).encode_into(&mut w);
        let n = w.buf.len();
        w.buf[n - 8..].copy_from_slice(&u64::MAX.to_le_bytes());
        assert_eq!(decode(&w.buf).unwrap_err(), CodecError::Truncated);
        let mut buf = one_run_image(3, 1, 1, &one);
        let n = buf.len();
        buf[n - 8..].copy_from_slice(&u64::MAX.to_le_bytes());
        assert_eq!(decode(&buf).unwrap_err(), CodecError::Truncated);
    }

    #[test]
    fn grow_with_fills_new_rows_of_later_windows() {
        let mut st = double_store(2, MaintenancePolicy::NoMerge);
        let (v, c) = run_cols(&[(1, 4.0)]);
        st.record_run(0, 1, v, c);
        st.grow_with(5, Some(&[Value::Double(5.5)]));
        let mut win = st.materialize_init();
        st.load_superstep_before(1, 1, &mut win);
        assert_eq!(win[0], ColumnData::Double(vec![0.0, 4.0, 5.5, 5.5, 5.5]));
    }

    /// A point read of superstep `s` below `t` equals those rows of the
    /// fresh window, from the baseline, a run or a checkpoint, across a
    /// merge and a decode (which rebuilds the index).
    #[test]
    fn point_reads_equal_the_window_rows() {
        let mut st = double_store(6, MaintenancePolicy::NoMerge).with_point_reads();
        st.set_init(vec![ColumnData::Double((0..6).map(|i| i as f64).collect())]);
        let rows = [5, 0, 3, 1, 3];
        for t in 0..6 {
            let mut win = st.materialize_init();
            st.load_superstep_before(1, t, &mut win);
            assert_eq!(st.read_rows(1, t, &rows), vec![win[0].gather(&rows)], "t={t}");
            let (v, c) = run_cols(&[(1, t as f64 + 0.5), (3, -(t as f64))][..t % 2 + 1]);
            st.record_run(t, 1, v, c);
            if t == 2 {
                st.merge_chain(1);
            }
            if t == 3 {
                let mut w = Writer::default();
                st.encode_into(&mut w);
                let mut r = Reader::new(&w.buf);
                st = AttrStore::decode_from(&mut r, MaintenancePolicy::NoMerge, IoStats::new())
                    .unwrap()
                    .with_point_reads();
            }
        }
        let mut image = vec![ColumnData::Double(vec![-1.0; 6])];
        st.load_rows(1, 6, &[4, 1], &mut image);
        assert_eq!(image, vec![ColumnData::Double(vec![-1.0, 5.5, -1.0, -1.0, 4.0, -1.0])]);
    }

    /// The index names each row's newest writer only, so the window below
    /// `t` is readable only before `(t, s)` is recorded: once a record has
    /// merged the chain into a checkpoint stamped `t`, the runs below `t`
    /// are gone, and a point read of them is refused, not answered with
    /// `A_{t,s}`.
    #[test]
    #[should_panic(expected = "read after snapshot 3 was recorded")]
    fn a_point_read_below_t_after_the_record_of_t_is_refused() {
        let mut st = double_store(4, MaintenancePolicy::Periodic(3)).with_point_reads();
        for t in 0..4 {
            let (v, c) = run_cols(&[(1, t as f64)]);
            st.record_run(t, 0, v, c);
        }
        assert_eq!((st.merges_performed(), st.chain_shape(0)), (1, (1, 0)));
        st.read_rows(0, 3, &[1]);
    }

    #[test]
    fn periodic_policy_merges_on_schedule() {
        let mut st = double_store(8, MaintenancePolicy::Periodic(3));
        for t in 0..7 {
            let (v, c) = run_cols(&[(0, t as f64)]);
            st.record_run(t, 0, v, c);
        }
        // Merges at t=3 and t=6.
        assert_eq!(st.merges_performed(), 2);
    }
}
