//! The delta-based edge store (paper §5.5).
//!
//! `G_0` is a dense CSR; every `ΔG_t` (t > 0) is a pair of CSR-like *sparse*
//! segments — insertions and deletions in separate "files", each listing
//! only the sources the batch touched — so the engine accesses the initial
//! graph and graph mutations identically, storage follows the mutation
//! stream rather than `|V| × history`, and no in-place disk update is ever
//! performed. Deletions are applied *lazily*: on-disk edges are masked when
//! scanned.
//!
//! The chain is a Z-set (DBSP): an insert file weighs each copy it lists
//! +1, a delete file −1, and a pair's count in a view is its base copies
//! plus the weights of the files the view sees. The store serves two
//! time-travel views during an incremental run: [`View::New`] (`es'`, as
//! of snapshot t, every file) and [`View::Old`] (`es`, as of snapshot t−1,
//! every file but the latest), plus the delta stream `Δes_t` — the latest
//! file itself. Scan, probe, Δ and sorted view read the same counts by construction.

use crate::codec::{CodecError, CodecResult, Reader, Writer};
use crate::mutation::{EdgeMutation, MutationBatch};
use crate::pager::BufferPool;
use itg_gsa::VertexId;
use std::iter::repeat_n;
use std::sync::Arc;

/// The receipt returned by the [`EdgeStore::commit`] /
/// [`EdgeStoreDir::commit`] choke point: where the store now stands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchReceipt {
    /// The snapshot epoch the store advanced to (== [`EdgeStore::snapshot`]
    /// after the commit).
    pub epoch: u64,
    /// The store-local commit sequence number, 0-based and contiguous.
    /// Durable sessions bind this to the WAL LSN of the logged batch.
    pub lsn: u64,
}

/// Which snapshot view of the edge stream to read.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum View {
    /// `es` — the graph as of the previous snapshot (t−1).
    Old,
    /// `es'` — the graph including the current delta (t).
    New,
}

/// The dense CSR segment holding the base graph `G_0` (and, after a
/// compaction, the folded chain).
#[derive(Debug, Clone)]
pub struct CsrSegment {
    /// `offsets[v]..offsets[v+1]` indexes `targets` for vertex v.
    offsets: Vec<u64>,
    targets: Vec<VertexId>,
}

impl CsrSegment {
    /// Build from an unsorted edge list over `n` vertices.
    pub fn from_edges(n: usize, edges: &[(VertexId, VertexId)]) -> CsrSegment {
        let mut degree = vec![0u64; n];
        for &(s, _) in edges {
            degree[s as usize] += 1;
        }
        let mut offsets = Vec::with_capacity(n + 1);
        let mut acc = 0u64;
        offsets.push(0);
        for d in &degree {
            acc += d;
            offsets.push(acc);
        }
        let mut targets = vec![0; edges.len()];
        let mut cursor = offsets.clone();
        for &(s, d) in edges {
            let c = &mut cursor[s as usize];
            targets[*c as usize] = d;
            *c += 1;
        }
        // Sort each adjacency list for deterministic scans.
        for v in 0..n {
            let (a, b) = (offsets[v] as usize, offsets[v + 1] as usize);
            targets[a..b].sort_unstable();
        }
        CsrSegment { offsets, targets }
    }

    fn n(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Grow the vertex space (new vertices have empty adjacency).
    fn grow(&mut self, n: usize) {
        let last = *self.offsets.last().unwrap();
        while self.offsets.len() < n + 1 {
            self.offsets.push(last);
        }
    }

    /// Adjacency slice of `v` (empty if `v` out of range).
    pub fn neighbors(&self, v: VertexId) -> &[VertexId] {
        let v = v as usize;
        if v + 1 >= self.offsets.len() {
            return &[];
        }
        &self.targets[self.offsets[v] as usize..self.offsets[v + 1] as usize]
    }

    /// Byte range of `v`'s adjacency within this segment (8 bytes per id),
    /// for page accounting.
    fn byte_range(&self, v: VertexId) -> (u64, u64) {
        let v = v as usize;
        if v + 1 >= self.offsets.len() {
            return (0, 0);
        }
        (self.offsets[v] * 8, self.offsets[v + 1] * 8)
    }

    /// Serialized size in bytes: offsets + targets.
    pub fn size_bytes(&self) -> u64 {
        (self.offsets.len() as u64 + self.targets.len() as u64) * 8
    }
}

/// One immutable sparse CSR-like segment, the on-disk format of each delta
/// file: only sources that have an edge in the batch are listed, so the
/// segment costs `16·|sources| + 8·|edges|` bytes whatever `|V|` is.
#[derive(Debug, Clone)]
pub struct SparseSegment {
    /// Distinct sources, strictly increasing.
    sources: Vec<VertexId>,
    /// The adjacency of `sources[i]` is that of vertex `i` in this CSR over
    /// source slots.
    adj: CsrSegment,
}

impl SparseSegment {
    /// Build from an unsorted edge list; each adjacency list comes out
    /// sorted, exactly as [`CsrSegment::from_edges`] would sort it.
    pub fn from_edges(edges: &[(VertexId, VertexId)]) -> SparseSegment {
        let mut sorted = edges.to_vec();
        sorted.sort_unstable();
        let (mut sources, mut offsets) = (Vec::new(), Vec::new());
        for (i, &(s, _)) in sorted.iter().enumerate() {
            if sources.last() != Some(&s) {
                sources.push(s);
                offsets.push(i as u64);
            }
        }
        offsets.push(sorted.len() as u64);
        let targets = sorted.into_iter().map(|(_, d)| d).collect();
        SparseSegment { sources, adj: CsrSegment { offsets, targets } }
    }

    /// `v`'s slot in the adjacency CSR, if the batch touched `v`.
    fn slot(&self, v: VertexId) -> Option<VertexId> {
        self.sources.binary_search(&v).ok().map(|slot| slot as VertexId)
    }

    /// Adjacency slice of `v` (empty if the batch did not touch `v`).
    pub fn neighbors(&self, v: VertexId) -> &[VertexId] {
        self.slot(v).map_or(&[], |slot| self.adj.neighbors(slot))
    }

    /// Serialized size in bytes: sources + offsets + targets.
    pub fn size_bytes(&self) -> u64 {
        self.sources.len() as u64 * 8 + self.adj.size_bytes()
    }

    /// All (src, dst) pairs, in src order.
    pub fn iter_edges(&self) -> impl Iterator<Item = (VertexId, VertexId)> + '_ {
        let slots = self.sources.iter().zip(0..);
        slots.flat_map(move |(&s, slot)| self.adj.neighbors(slot).iter().map(move |&d| (s, d)))
    }
}

/// Drop the leading copies of `d` from the sorted `run`; returns how many.
fn take_run(run: &mut &[VertexId], d: VertexId) -> i64 {
    let n = run.iter().take_while(|&&x| x == d).count();
    *run = &run[n..];
    n as i64
}

/// Drop `run`'s prefix of items `below` a target by exponential, then
/// binary search; returns the comparisons made.
fn gallop<T>(run: &mut &[T], below: impl Fn(&T) -> bool) -> u64 {
    let (mut step, mut probes) = (1, 0);
    while step <= run.len() && below(&run[step - 1]) {
        (step, probes) = (step * 2, probes + 1);
    }
    let (lo, hi) = (step / 2, step.min(run.len()));
    let at = lo + run[lo..hi].partition_point(below);
    *run = &run[at..];
    probes + (hi - lo + 1).ilog2() as u64
}

/// One snapshot's delta: insert and delete segments kept separately so the
/// execution engine knows the multiplicity of each edge tuple.
#[derive(Debug, Clone)]
pub struct DeltaSegment {
    pub inserts: SparseSegment,
    pub deletes: SparseSegment,
}

/// One entry of a source's signed index: `(target, delta index, ±copies)`.
type Weight = (VertexId, u32, i32);

/// One vertex's neighbours as ascending `(target, count)`, zero counts
/// dropped. A count is its copies in `plus`, less those in `minus`, plus
/// its weights the view sees — 0 when a retraction has the last word. The
/// cursor borrows the stored runs: it copies and allocates nothing.
#[derive(Debug, Clone, Default)]
pub struct SortedRun<'a> {
    /// +1 per copy: the base run, or the latest insert file's.
    plus: &'a [VertexId],
    /// −1 per copy: the latest delete file's run (the Δ run only).
    minus: &'a [VertexId],
    /// A touched vertex's signed index (the views only).
    weights: &'a [Weight],
    /// The delta files the view sees.
    visible: u32,
}

impl SortedRun<'_> {
    /// The entries left in the runs: an upper bound on the targets left.
    pub fn entries(&self) -> usize {
        self.plus.len() + self.minus.len() + self.weights.len()
    }

    /// The base run itself — each target listed once per copy — when
    /// nothing else counts: a vertex no batch has touched.
    pub fn plain(&self) -> Option<&[VertexId]> {
        (self.minus.is_empty() && self.weights.is_empty()).then_some(self.plus)
    }

    /// Skip every target below `d` by galloping; returns the comparisons made.
    pub fn seek(&mut self, d: VertexId) -> u64 {
        gallop(&mut self.plus, |&x| x < d)
            + gallop(&mut self.minus, |&x| x < d)
            + gallop(&mut self.weights, |w| w.0 < d)
    }
}

impl Iterator for SortedRun<'_> {
    type Item = (VertexId, i64);

    fn next(&mut self) -> Option<(VertexId, i64)> {
        loop {
            if self.plain().is_some() {
                let &d = self.plus.first()?;
                return Some((d, take_run(&mut self.plus, d)));
            }
            let heads = [self.plus.first(), self.minus.first(), self.weights.first().map(|w| &w.0)];
            let d = *heads.into_iter().flatten().min()?;
            let copies = take_run(&mut self.plus, d) - take_run(&mut self.minus, d);
            let n = self.weights.iter().take_while(|w| w.0 == d).count();
            let (ws, rest) = self.weights.split_at(n);
            self.weights = rest;
            // Each target's entries run oldest first: a view sees a prefix.
            let seen = &ws[..ws.iter().take_while(|w| w.1 < self.visible).count()];
            if seen.last().is_some_and(|w| w.2 < 0) {
                continue;
            }
            let count = copies + seen.iter().map(|w| w.2 as i64).sum::<i64>();
            if count != 0 {
                return Some((d, count));
            }
        }
    }
}

/// Everything the delta chain says about one source vertex. A vertex no
/// batch ever touched has no overlay: its scan is the base adjacency.
/// Derived from the files — rebuilt on load, never serialized.
#[derive(Debug, Default)]
struct Overlay {
    /// The directory: (delta index, source slot) of every insert segment
    /// that holds this vertex, oldest first.
    segs: Vec<(u32, u32)>,
    /// The signed index: one entry per pair per file, +copies from an
    /// insert file and −copies from a delete file, sorted by target and
    /// each target's entries oldest first.
    weights: Vec<Weight>,
    /// The oldest delta that retracts a pair of this source: a view that
    /// sees no retraction emits every copy it reads.
    first_retraction: Option<u32>,
}

impl Overlay {
    /// Merge one file's entries, sorted by target, behind the older
    /// entries of each target: from the back, each older block moves once.
    fn merge(&mut self, new: &[Weight]) {
        let mut end = self.weights.len();
        self.weights.extend_from_slice(new);
        for (j, &w) in new.iter().enumerate().rev() {
            let at = self.weights[..end].partition_point(|x| x.0 <= w.0);
            self.weights.copy_within(at..end, at + j + 1);
            self.weights[at + j] = w;
            end = at;
        }
    }
}

/// The overlays of one store behind a dense slot column, so looking up an
/// untouched vertex is one array read. The column is allocated by the
/// first commit: a store of `G_0` alone has none.
#[derive(Debug, Default)]
struct Overlays {
    /// `slot[v] − 1` indexes `entries`; 0 = no batch touched `v`.
    slot: Vec<u32>,
    entries: Vec<Overlay>,
}

impl Overlays {
    fn get(&self, v: VertexId) -> Option<&Overlay> {
        let slot = *self.slot.get(v as usize)?;
        self.entries.get((slot as usize).wrapping_sub(1))
    }

    /// `v`'s overlay in a store of `n > v` vertices, made on first touch.
    fn entry(&mut self, v: VertexId, n: usize) -> &mut Overlay {
        if self.slot.len() < n {
            self.slot.resize(n, 0);
        }
        let slot = &mut self.slot[v as usize];
        if *slot == 0 {
            self.entries.push(Overlay::default());
            *slot = self.entries.len() as u32;
        }
        &mut self.entries[*slot as usize - 1]
    }
}

/// A single-direction edge store: base CSR plus the chain of delta
/// segments. Directed graphs keep two of these (out and in).
#[derive(Debug)]
pub struct EdgeStoreDir {
    n: usize,
    base: CsrSegment,
    deltas: Vec<DeltaSegment>,
    /// Per-vertex directory and signed index, for touched sources only.
    overlays: Overlays,
    degree_cur: Vec<u32>,
    /// Snapshots folded into the base by compaction; the logical snapshot
    /// index is `snapshot_base + deltas.len()`.
    snapshot_base: usize,
    /// Base segment id for page accounting; delta t uses seg_base + 2t − 1
    /// (inserts) and seg_base + 2t (deletes).
    seg_base: u32,
    /// Commits ingested so far; the next receipt's LSN.
    commits: u64,
    pool: Arc<BufferPool>,
}

impl EdgeStoreDir {
    pub fn new(
        n: usize,
        edges: &[(VertexId, VertexId)],
        seg_base: u32,
        pool: Arc<BufferPool>,
    ) -> EdgeStoreDir {
        let base = CsrSegment::from_edges(n, edges);
        pool.record_write(base.size_bytes());
        let mut store = EdgeStoreDir::over(base, seg_base, pool);
        store.degree_cur = (0..n as VertexId).map(|v| store.base.neighbors(v).len() as u32).collect();
        store
    }

    /// A store of `base` alone, at snapshot 0, its degree column unset.
    fn over(base: CsrSegment, seg_base: u32, pool: Arc<BufferPool>) -> EdgeStoreDir {
        EdgeStoreDir {
            n: base.n(),
            base,
            deltas: Vec::new(),
            overlays: Overlays::default(),
            degree_cur: Vec::new(),
            snapshot_base: 0,
            seg_base,
            commits: 0,
            pool,
        }
    }

    pub fn num_vertices(&self) -> usize {
        self.n
    }

    /// The current snapshot index (0 = base only). Compaction folds
    /// segments into the base without resetting the numbering.
    pub fn snapshot(&self) -> usize {
        self.snapshot_base + self.deltas.len()
    }

    /// Grow the vertex space. Only the base and the degree column are
    /// dense; the delta chain does not know `|V|`.
    pub fn grow(&mut self, n: usize) {
        if n <= self.n {
            return;
        }
        self.base.grow(n);
        self.degree_cur.resize(n, 0);
        self.n = n;
    }

    /// Commit one snapshot's mutations through the single ingestion choke
    /// point, in O(|batch| log |batch|) whatever `|V|` and the history length
    /// are. The
    /// batch must be *net* (consolidated — see
    /// [`MutationBatch::consolidated`]) and localized to this direction:
    /// sources index this store's CSR, destinations are global ids.
    /// Returns the receipt binding the new epoch to this commit's LSN.
    pub fn commit(&mut self, batch: &MutationBatch) -> BatchReceipt {
        let ins: Vec<(VertexId, VertexId)> = batch.inserts().map(|e| (e.src, e.dst)).collect();
        // Only sources index the CSR (destinations may live in another
        // partition's id space), so growth is driven by sources; callers
        // with a wider vertex space call `grow` explicitly first.
        let max_v = batch.edges().iter().map(|e| e.src + 1).max();
        self.grow(max_v.unwrap_or(0) as usize);
        // A delete retracts every copy of its pair: the delete segment
        // lists the pair once per copy the `New` view counts, the Δ
        // stream retracts each, and the degree drops by as many.
        let copies = |(s, d)| repeat_n((s, d), self.edge_mult(s, d, View::New).max(0) as usize);
        let del: Vec<(VertexId, VertexId)> =
            batch.deletes().flat_map(|e| copies((e.src, e.dst))).collect();

        let delta = DeltaSegment {
            inserts: SparseSegment::from_edges(&ins),
            deletes: SparseSegment::from_edges(&del),
        };
        self.pool.record_write(delta.inserts.size_bytes() + delta.deletes.size_bytes());
        for &(s, _) in &ins {
            self.degree_cur[s as usize] += 1;
        }
        for &(s, _) in &del {
            self.degree_cur[s as usize] = self.degree_cur[s as usize].saturating_sub(1);
        }
        self.index_delta(self.deltas.len(), &delta);
        self.deltas.push(delta);
        self.commits += 1;
        BatchReceipt { epoch: self.snapshot() as u64, lsn: self.commits - 1 }
    }

    /// Enter delta `idx` into the directory (its insert segment) and the
    /// signed index (both segments, one entry per pair).
    fn index_delta(&mut self, idx: usize, delta: &DeltaSegment) {
        let mut new: Vec<Weight> = Vec::new();
        for (seg, sign) in [(&delta.inserts, 1), (&delta.deletes, -1)] {
            for (slot, &s) in seg.sources.iter().enumerate() {
                let o = self.overlays.entry(s, self.n);
                if sign > 0 {
                    o.segs.push((idx as u32, slot as u32));
                } else {
                    o.first_retraction.get_or_insert(idx as u32);
                }
                let pairs = seg.adj.neighbors(slot as VertexId).chunk_by(|a, b| a == b);
                new.clear();
                new.extend(pairs.map(|run| (run[0], idx as u32, sign * run.len() as i32)));
                o.merge(&new);
            }
        }
    }

    /// How many delta files `view` sees: all for `New`, all but the latest
    /// for `Old`.
    fn visible(&self, view: View) -> u32 {
        (self.deltas.len() - (view == View::Old && !self.deltas.is_empty()) as usize) as u32
    }

    /// How many delta segments a `New` scan of `v` reads besides the base:
    /// 0 for a vertex no batch since the last compaction inserted at.
    pub fn delta_segments_of(&self, v: VertexId) -> usize {
        self.overlays.get(v).map_or(0, |o| o.segs.len())
    }

    /// Visit `v`'s out-neighbors in `view`. The scan order is: base
    /// segment, then the delta insert segments that hold `v` oldest-first —
    /// the same order a disk scan over the segment files would produce —
    /// and each pair is emitted as many times as it counts, at its first
    /// occurrences.
    pub fn for_each_neighbor(&self, v: VertexId, view: View, f: impl FnMut(VertexId)) {
        self.scan(v, view, true, f);
    }

    /// The scan behind [`EdgeStoreDir::for_each_neighbor`]; `charge = false`
    /// skips the buffer pool (compaction's internal sequential read is
    /// accounted once, in bulk).
    fn scan(&self, v: VertexId, view: View, charge: bool, mut f: impl FnMut(VertexId)) {
        let o = self.overlays.get(v);
        let visible = self.visible(view);
        // A view that sees no retraction of `v` emits every copy it reads.
        let retracts = o.filter(|o| o.first_retraction.is_some_and(|t| t < visible));
        // Read the base (`file = None`) or insert file `i`'s run of `v`.
        let mut read = |seg_id: u32, seg: &CsrSegment, at: VertexId, file: Option<u32>| {
            if charge {
                self.touch(seg_id, seg, at);
            }
            let Some(o) = retracts else {
                seg.neighbors(at).iter().for_each(|&d| f(d));
                return;
            };
            let (mut nbrs, mut rest) = (seg.neighbors(at), &o.weights[..]);
            while let Some(&d) = nbrs.first() {
                if rest.first().is_some_and(|w| w.0 < d) {
                    rest = &rest[rest.partition_point(|w| w.0 < d)..];
                }
                // A neighbour the index does not list: every copy counts.
                if rest.first().is_none_or(|w| w.0 != d) {
                    f(d);
                    nbrs = &nbrs[1..];
                    continue;
                }
                // The copies left to emit: the pair's count less the copies
                // the segments before this one hold.
                let run = nbrs.iter().take_while(|&&x| x == d).count();
                let mut left = if file.is_none() { run as i64 } else { 0 };
                for &(_, t, w) in rest.iter().take_while(|w| w.0 == d && w.1 < visible) {
                    let earlier = w > 0 && file.is_some_and(|i| t < i);
                    left += if earlier { 0 } else { w as i64 };
                }
                (0..run.min(left.max(0) as usize)).for_each(|_| f(d));
                nbrs = &nbrs[run..];
            }
        };
        read(self.seg_base, &self.base, v, None);
        let listed = o.map_or(&[][..], |o| &o.segs).iter();
        for &(i, slot) in listed.take_while(|s| s.0 < visible) {
            let seg = &self.deltas[i as usize].inserts.adj;
            read(self.seg_base + 2 * i + 1, seg, slot as VertexId, Some(i));
        }
    }

    /// Charge a read of slot `at`'s run of segment `seg` to the pool.
    fn touch(&self, seg_id: u32, seg: &CsrSegment, at: VertexId) {
        let (a, b) = seg.byte_range(at);
        self.pool.touch_range(seg_id, a, b);
    }

    /// `v`'s neighbours in `view` as ascending `(target, count)`, each
    /// count what [`EdgeStoreDir::edge_mult`] reports: the base run merged
    /// with `v`'s signed index, or the base run itself for a vertex no
    /// batch touched. Charged to the pool like a scan of the same
    /// runs. The walker's closing intersection reads it.
    pub fn sorted_neighbors(&self, v: VertexId, view: View) -> SortedRun<'_> {
        self.touch(self.seg_base, &self.base, v);
        let listed = self.overlays.get(v).map_or(&[][..], |o| &o.segs).iter();
        for &(i, slot) in listed.take_while(|s| s.0 < self.visible(view)) {
            let seg = &self.deltas[i as usize].inserts.adj;
            self.touch(self.seg_base + 2 * i + 1, seg, slot as VertexId);
        }
        self.sorted_run(v, view)
    }

    /// [`EdgeStoreDir::sorted_neighbors`] without the pool.
    fn sorted_run(&self, v: VertexId, view: View) -> SortedRun<'_> {
        let weights = self.overlays.get(v).map_or(&[][..], |o| &o.weights[..]);
        SortedRun { plus: self.base.neighbors(v), minus: &[], weights, visible: self.visible(view) }
    }

    /// `v`'s run of the latest delta as ascending `(target, inserts −
    /// deletes)`, net 0 dropped — the signed `Δes_t` of `v`, per target.
    /// Charged to the pool like [`EdgeStoreDir::for_each_delta_neighbor`].
    pub fn sorted_delta_neighbors(&self, v: VertexId) -> SortedRun<'_> {
        let [plus, minus] = self.delta_runs(v);
        SortedRun { plus, minus, ..SortedRun::default() }
    }

    /// `v`'s runs in the latest delta's insert and delete files — empty
    /// where a file does not list `v` — charged to the pool.
    fn delta_runs(&self, v: VertexId) -> [&[VertexId]; 2] {
        let Some(d) = self.deltas.last() else { return [&[], &[]] };
        let ins_id = self.seg_base + 2 * (self.deltas.len() as u32 - 1) + 1;
        [(&d.inserts, ins_id), (&d.deletes, ins_id + 1)].map(|(seg, seg_id)| {
            let slot = seg.slot(v);
            slot.inspect(|&slot| self.touch(seg_id, &seg.adj, slot));
            slot.map_or(&[][..], |slot| seg.adj.neighbors(slot))
        })
    }

    /// Membership probe: multiplicity of edge (v, d) in `view` — its count,
    /// which is how many times a scan of `v` in `view` emits `d` (1
    /// present, 0 absent, more for a repeated edge): `d`'s entry in the
    /// sorted view, found by binary search. Charges nothing to the pool.
    pub fn edge_mult(&self, v: VertexId, d: VertexId, view: View) -> i64 {
        let mut run = self.sorted_run(v, view);
        run.plus = &run.plus[run.plus.partition_point(|&x| x < d)..];
        run.weights = &run.weights[run.weights.partition_point(|w| w.0 < d)..];
        run.next().filter(|e| e.0 == d).map_or(0, |e| e.1)
    }

    /// Collect `v`'s neighbors in `view`.
    pub fn neighbors(&self, v: VertexId, view: View) -> Vec<VertexId> {
        let mut out = Vec::with_capacity(self.degree(v, view) as usize);
        self.for_each_neighbor(v, view, |d| out.push(d));
        out
    }

    /// `v`'s degree in `view`. Only the `New` column is stored; the `Old`
    /// degree of a source the latest batch touched is corrected by that
    /// batch's own edges.
    pub fn degree(&self, v: VertexId, view: View) -> u32 {
        if v as usize >= self.n {
            return 0;
        }
        let cur = self.degree_cur[v as usize];
        match (view, self.deltas.last()) {
            (View::Old, Some(last)) if self.overlays.get(v).is_some() => cur
                .saturating_add(last.deletes.neighbors(v).len() as u32)
                .saturating_sub(last.inserts.neighbors(v).len() as u32),
            _ => cur,
        }
    }

    /// The latest delta stream Δes_t as (src, dst, multiplicity) tuples;
    /// reading it costs its segment bytes once per call.
    pub fn for_each_delta_edge(&self, mut f: impl FnMut(VertexId, VertexId, i64)) {
        if let Some(d) = self.deltas.last() {
            let ins_id = self.seg_base + 2 * (self.deltas.len() as u32 - 1) + 1;
            self.pool.touch_range(ins_id, 0, d.inserts.size_bytes());
            self.pool.touch_range(ins_id + 1, 0, d.deletes.size_bytes());
            d.inserts.iter_edges().for_each(|(s, dst)| f(s, dst, 1));
            d.deletes.iter_edges().for_each(|(s, dst)| f(s, dst, -1));
        }
    }

    /// Latest delta edges of `v` only.
    pub fn for_each_delta_neighbor(&self, v: VertexId, mut f: impl FnMut(VertexId, i64)) {
        let [ins, del] = self.delta_runs(v);
        ins.iter().for_each(|&d| f(d, 1));
        del.iter().for_each(|&d| f(d, -1));
    }

    /// Number of edges in the current (`New`) view.
    pub fn num_edges(&self) -> u64 {
        self.degree_cur.iter().map(|&d| d as u64).sum()
    }

    /// Total on-disk bytes across all segments (for memory/size reporting).
    pub fn size_bytes(&self) -> u64 {
        let deltas = self.deltas.iter().map(|d| d.inserts.size_bytes() + d.deletes.size_bytes());
        self.base.size_bytes() + deltas.sum::<u64>()
    }

    /// Number of delta segments currently chained behind the base.
    pub fn delta_segments(&self) -> usize {
        self.deltas.len()
    }

    /// Compact the segment chain: rewrite the base CSR from the `Old` view
    /// and keep only the latest delta, re-indexed as delta 0. `Old`, `New`
    /// and the delta stream read the same before and after, so a
    /// compaction may fall anywhere, a pending batch included. Read cost:
    /// the whole chain; write cost: the new base.
    pub fn compact(&mut self) {
        if self.deltas.len() < 2 {
            return;
        }
        let read_bytes = self.size_bytes();
        let mut edges: Vec<(VertexId, VertexId)> = Vec::new();
        for v in 0..self.n as VertexId {
            self.scan(v, View::Old, false, |d| edges.push((v, d)));
        }
        let base = CsrSegment::from_edges(self.n, &edges);
        self.pool.stats().add_disk_read(read_bytes);
        self.pool.record_write(base.size_bytes());
        self.base = base;
        let latest = self.deltas.pop().expect("two deltas");
        self.snapshot_base += self.deltas.len();
        self.deltas.clear();
        self.overlays = Overlays::default();
        self.index_delta(0, &latest);
        self.deltas.push(latest);
        self.pool.clear();
    }
}

/// The full edge store: out-direction always, in-direction (reverse
/// adjacency, required by backward MS-BFS) kept for directed graphs.
/// Undirected graphs store mirrored edges, so the out direction serves both.
#[derive(Debug)]
pub struct EdgeStore {
    out: EdgeStoreDir,
    rev: Option<EdgeStoreDir>,
}

impl EdgeStore {
    /// Build from a directed edge list. When `undirected`, the caller must
    /// pass mirrored edges and no separate reverse store is kept.
    pub fn new(
        n: usize,
        edges: &[(VertexId, VertexId)],
        undirected: bool,
        pool: Arc<BufferPool>,
    ) -> EdgeStore {
        let out = EdgeStoreDir::new(n, edges, 0, pool.clone());
        let rev = if undirected {
            None
        } else {
            let rev_edges: Vec<(VertexId, VertexId)> =
                edges.iter().map(|&(s, d)| (d, s)).collect();
            Some(EdgeStoreDir::new(n, &rev_edges, 1 << 16, pool))
        };
        EdgeStore { out, rev }
    }

    pub fn is_undirected(&self) -> bool {
        self.rev.is_none()
    }

    pub fn out_dir(&self) -> &EdgeStoreDir {
        &self.out
    }

    /// Reverse-direction store (identical to out for undirected graphs).
    pub fn rev_dir(&self) -> &EdgeStoreDir {
        self.rev.as_ref().unwrap_or(&self.out)
    }

    pub fn num_vertices(&self) -> usize {
        self.out.num_vertices()
    }

    pub fn num_edges(&self) -> u64 {
        self.out.num_edges()
    }

    pub fn snapshot(&self) -> usize {
        self.out.snapshot()
    }

    pub fn grow(&mut self, n: usize) {
        self.out.grow(n);
        if let Some(r) = &mut self.rev {
            r.grow(n);
        }
    }

    /// Compact both directions' segment chains (see
    /// [`EdgeStoreDir::compact`]).
    pub fn compact(&mut self) {
        self.out.compact();
        if let Some(r) = &mut self.rev {
            r.compact();
        }
    }

    /// Commit a mutation batch (already mirrored for undirected graphs)
    /// through the single ingestion choke point. The batch is consolidated
    /// first: same-edge insert/delete pairs within one batch cancel.
    /// Returns the receipt binding the new epoch to this commit's LSN.
    ///
    /// Durability ordering: a durable session logs the batch to the WAL
    /// *before* calling this (log-before-execute), and
    /// [`crate::wal::Wal::append`] only returns once the record is durable.
    /// The `BatchReceipt { epoch, lsn }` contract is unchanged: an
    /// acknowledged receipt's LSN is always recoverable.
    pub fn commit(&mut self, batch: &MutationBatch) -> BatchReceipt {
        let batch = batch.consolidated();
        let receipt = self.out.commit(&batch);
        if let Some(r) = &mut self.rev {
            let flip = |e: &EdgeMutation| EdgeMutation { src: e.dst, dst: e.src, mult: e.mult };
            r.commit(&MutationBatch::new(batch.edges().iter().map(flip).collect()));
        }
        receipt
    }
}

// ---------------------------------------------------------------
// Snapshot serialization (DESIGN.md §9). The byte image preserves the
// exact segment-chain structure — flattening would change the neighbor
// scan order and with it the engine's float accumulation order, breaking
// byte-identical recovery. Decoders validate structure before anything
// indexes by it: a corrupt image is a `CodecError`, never a panic.
// ---------------------------------------------------------------

/// Decode `len` little-endian u64s; `len` is untrusted, so the allocation
/// is capped and a lying length simply runs out of bytes.
fn get_u64s(r: &mut Reader<'_>, len: usize) -> CodecResult<Vec<u64>> {
    let mut out = Vec::with_capacity(len.min(1 << 20));
    for _ in 0..len {
        out.push(r.u64()?);
    }
    Ok(out)
}

fn put_u64s(w: &mut Writer, values: &[u64]) {
    values.iter().for_each(|&v| w.u64(v));
}

impl CsrSegment {
    fn encode_into(&self, w: &mut Writer) {
        w.u64(self.offsets.len() as u64);
        put_u64s(w, &self.offsets);
        w.u64(self.targets.len() as u64);
        put_u64s(w, &self.targets);
    }

    fn decode_from(r: &mut Reader<'_>) -> CodecResult<CsrSegment> {
        let n_off = r.u64()? as usize;
        let offsets = get_u64s(r, n_off)?;
        let n_tgt = r.u64()?;
        // Offsets start at 0, end at the target count and never decrease,
        // so every later slice operation is in bounds.
        if offsets.first() != Some(&0)
            || offsets.last() != Some(&n_tgt)
            || offsets.windows(2).any(|p| p[0] > p[1])
        {
            return Err(CodecError::Malformed("segment offsets"));
        }
        let targets = get_u64s(r, n_tgt as usize)?;
        Ok(CsrSegment { offsets, targets })
    }
}

impl SparseSegment {
    /// Image: `|sources|`, sources, then the slot CSR as any
    /// [`CsrSegment`] — all u64 (DESIGN.md §4.5).
    fn encode_into(&self, w: &mut Writer) {
        w.u64(self.sources.len() as u64);
        put_u64s(w, &self.sources);
        self.adj.encode_into(w);
    }

    /// Decode a segment of a store over `n` vertices.
    fn decode_from(r: &mut Reader<'_>, n: usize) -> CodecResult<SparseSegment> {
        let n_src = r.u64()? as usize;
        if n_src > n {
            return Err(CodecError::Malformed("sparse segment source count"));
        }
        let sources = get_u64s(r, n_src)?;
        if sources.windows(2).any(|p| p[0] >= p[1]) || sources.last().is_some_and(|&s| s >= n as u64)
        {
            return Err(CodecError::Malformed("sparse segment sources"));
        }
        let adj = CsrSegment::decode_from(r)?;
        if adj.n() != n_src {
            return Err(CodecError::Malformed("sparse segment slot count"));
        }
        Ok(SparseSegment { sources, adj })
    }
}

impl EdgeStoreDir {
    /// Serialize the full segment-chain structure into `w`: scalars, base,
    /// deltas, `New` degrees. The overlays (directory and signed index) and
    /// the `Old` view are derived state and not part of the image.
    pub fn encode_into(&self, w: &mut Writer) {
        w.u64(self.n as u64);
        w.u64(self.snapshot_base as u64);
        w.u32(self.seg_base);
        w.u64(self.commits);
        self.base.encode_into(w);
        w.u64(self.deltas.len() as u64);
        for d in &self.deltas {
            d.inserts.encode_into(w);
            d.deletes.encode_into(w);
        }
        w.u64(self.degree_cur.len() as u64);
        self.degree_cur.iter().for_each(|&d| w.u32(d));
    }

    /// Rebuild a store from its serialized image, attaching it to `pool`.
    /// No IO is charged: restoring a snapshot is not the workload's IO.
    pub fn decode_from(r: &mut Reader<'_>, pool: Arc<BufferPool>) -> CodecResult<EdgeStoreDir> {
        let n = r.u64()? as usize;
        let snapshot_base = r.u64()? as usize;
        let seg_base = r.u32()?;
        let commits = r.u64()?;
        let base = CsrSegment::decode_from(r)?;
        if base.n() != n {
            return Err(CodecError::Malformed("base segment vertex count"));
        }
        let mut store = EdgeStoreDir::over(base, seg_base, pool);
        (store.snapshot_base, store.commits) = (snapshot_base, commits);
        let n_deltas = r.u64()?;
        // Segment ids are u32 and snapshot numbers stay below u32::MAX:
        // the chain must fit both.
        let fits = |start: u64| start.saturating_add(n_deltas.saturating_mul(2)) < u32::MAX as u64;
        if !fits(seg_base as u64) || !fits(snapshot_base as u64) {
            return Err(CodecError::Malformed("segment chain length"));
        }
        for idx in 0..n_deltas as usize {
            let inserts = SparseSegment::decode_from(r, n)?;
            let deletes = SparseSegment::decode_from(r, n)?;
            let delta = DeltaSegment { inserts, deletes };
            store.index_delta(idx, &delta);
            store.deltas.push(delta);
        }
        if r.u64()? != n as u64 {
            return Err(CodecError::Malformed("degree column length"));
        }
        store.degree_cur.reserve(n.min(1 << 20));
        for _ in 0..n {
            store.degree_cur.push(r.u32()?);
        }
        Ok(store)
    }
}

impl EdgeStore {
    /// Serialize both directions into `w`.
    pub fn encode_into(&self, w: &mut Writer) {
        w.bool(self.rev.is_some());
        self.out.encode_into(w);
        if let Some(r) = &self.rev {
            r.encode_into(w);
        }
    }

    /// Rebuild from a serialized image, attaching both directions to
    /// `pool`.
    pub fn decode_from(r: &mut Reader<'_>, pool: Arc<BufferPool>) -> CodecResult<EdgeStore> {
        let has_rev = r.bool()?;
        let out = EdgeStoreDir::decode_from(r, pool.clone())?;
        let rev = has_rev.then(|| EdgeStoreDir::decode_from(r, pool)).transpose()?;
        Ok(EdgeStore { out, rev })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mutation::EdgeMutation;
    use crate::stats::IoStats;

    fn store(edges: &[(u64, u64)]) -> EdgeStore {
        let pool = Arc::new(BufferPool::new(1 << 20, 4096, IoStats::new()));
        let n = edges.iter().map(|&(a, b)| a.max(b) + 1).max().unwrap_or(0) as usize;
        EdgeStore::new(n, edges, false, pool)
    }

    #[test]
    fn csr_sorted_adjacency() {
        let seg = CsrSegment::from_edges(4, &[(1, 3), (1, 0), (2, 2), (1, 2)]);
        assert_eq!(seg.neighbors(1), &[0, 2, 3]);
        assert_eq!(seg.neighbors(0), &[] as &[u64]);
        assert_eq!(seg.neighbors(7), &[] as &[u64]);
    }

    #[test]
    fn sparse_segment_matches_csr_and_ignores_vertex_count() {
        let edges = [(1, 3), (1, 0), (2, 2), (1, 2), (900, 5)];
        let (sparse, csr) = (SparseSegment::from_edges(&edges), CsrSegment::from_edges(901, &edges));
        for v in [0, 1, 2, 3, 900, 901] {
            assert_eq!(sparse.neighbors(v), csr.neighbors(v), "vertex {v}");
        }
        let all: Vec<_> = sparse.iter_edges().collect();
        assert_eq!(all, vec![(1, 0), (1, 2), (1, 3), (2, 2), (900, 5)]);
        // 3 sources + 4 offsets + 5 targets, whatever the vertex space is.
        assert_eq!(sparse.size_bytes(), 12 * 8);
        assert_eq!(SparseSegment::from_edges(&[]).size_bytes(), 8);
    }

    #[test]
    fn views_across_one_delta() {
        let mut s = store(&[(0, 1), (0, 2), (1, 2)]);
        s.commit(&MutationBatch::new(vec![
            EdgeMutation::insert(0, 3),
            EdgeMutation::delete(0, 1),
        ]));
        assert_eq!(s.out_dir().neighbors(0, View::Old), vec![1, 2]);
        assert_eq!(s.out_dir().neighbors(0, View::New), vec![2, 3]);
        assert_eq!(s.out_dir().degree(0, View::Old), 2);
        assert_eq!(s.out_dir().degree(0, View::New), 2);
        // Reverse direction is maintained for directed graphs.
        assert_eq!(s.rev_dir().neighbors(3, View::New), vec![0]);
        assert_eq!(s.rev_dir().neighbors(1, View::New), Vec::<u64>::new());
        assert_eq!(s.rev_dir().neighbors(1, View::Old), vec![0]);
    }

    #[test]
    fn delta_stream_has_signed_tuples() {
        let mut s = store(&[(0, 1)]);
        s.commit(&MutationBatch::new(vec![
            EdgeMutation::insert(2, 0),
            EdgeMutation::delete(0, 1),
        ]));
        let mut got = Vec::new();
        s.out_dir().for_each_delta_edge(|a, b, m| got.push((a, b, m)));
        got.sort();
        assert_eq!(got, vec![(0, 1, -1), (2, 0, 1)]);
    }

    #[test]
    fn chained_snapshots_resurrect_deleted_edge() {
        let mut s = store(&[(0, 1), (0, 2)]);
        s.commit(&MutationBatch::new(vec![EdgeMutation::delete(0, 1)]));
        assert_eq!(s.out_dir().neighbors(0, View::New), vec![2]);
        s.commit(&MutationBatch::new(vec![EdgeMutation::insert(0, 1)]));
        let mut n = s.out_dir().neighbors(0, View::New);
        n.sort_unstable();
        assert_eq!(n, vec![1, 2]);
        // Old view is the post-deletion snapshot.
        assert_eq!(s.out_dir().neighbors(0, View::Old), vec![2]);
    }

    /// The probe reports as many copies of a pair as the scan emits: a
    /// repeated base edge, a copy inserted beside a present edge, and a
    /// pair re-inserted after a delete (once, then again), in both views.
    #[test]
    fn probe_counts_the_copies_a_scan_emits() {
        let mut s = store(&[(0, 1), (0, 1), (0, 2), (0, 3), (1, 0)]);
        let batches = [
            vec![EdgeMutation::insert(0, 2), EdgeMutation::delete(0, 3)],
            vec![EdgeMutation::insert(0, 3), EdgeMutation::insert(1, 0)],
            vec![EdgeMutation::insert(0, 3)],
        ];
        let agree = |s: &EdgeStore, at: &str| {
            for view in [View::New, View::Old] {
                for v in 0..2 {
                    let scan = s.out_dir().neighbors(v, view);
                    for d in 0..4 {
                        let copies = scan.iter().filter(|&&x| x == d).count() as i64;
                        assert_eq!(s.out_dir().edge_mult(v, d, view), copies, "{at}: {v}->{d} {view:?}");
                    }
                }
            }
        };
        agree(&s, "base");
        assert_eq!(s.out_dir().edge_mult(0, 1, View::New), 2);
        for (i, b) in batches.into_iter().enumerate() {
            s.commit(&MutationBatch::new(b));
            agree(&s, &format!("batch {i}"));
        }
        assert_eq!(s.out_dir().edge_mult(0, 2, View::New), 2, "inserted beside a present copy");
        assert_eq!(s.out_dir().edge_mult(0, 3, View::New), 2, "re-inserted, then inserted again");
        assert_eq!(s.out_dir().edge_mult(0, 3, View::Old), 1, "re-inserted");
    }

    #[test]
    fn a_delete_retracts_every_copy_it_hides() {
        let mut s = store(&[(0, 1), (0, 1), (0, 2), (1, 2)]);
        s.commit(&MutationBatch::new(vec![EdgeMutation::delete(0, 1)]));
        let dir = s.out_dir();
        assert_eq!(dir.neighbors(0, View::New), vec![2]);
        assert_eq!(dir.degree(0, View::New), 1);
        assert_eq!(dir.degree(0, View::Old), 3);
        assert_eq!(dir.sorted_delta_neighbors(0).collect::<Vec<_>>(), [(1, -2)]);
        let mut delta = Vec::new();
        dir.for_each_delta_neighbor(0, |d, m| delta.push((d, m)));
        assert_eq!(delta, [(1, -1), (1, -1)]);
        assert_eq!(dir.num_edges(), 2);
        // A copy inserted beside the base's: both go. An absent pair and a
        // deleted one hide nothing, so nothing is retracted.
        s.commit(&MutationBatch::new(vec![EdgeMutation::insert(1, 2)]));
        let batch = [EdgeMutation::delete(1, 2), EdgeMutation::delete(0, 3), EdgeMutation::delete(0, 1)];
        s.commit(&MutationBatch::new(batch.to_vec()));
        let dir = s.out_dir();
        let delta = |v| dir.sorted_delta_neighbors(v).collect::<Vec<_>>();
        assert_eq!((delta(1), delta(0)), (vec![(2, -2)], vec![]));
        assert_eq!((dir.degree(0, View::New), dir.degree(1, View::New)), (1, 0));
    }

    #[test]
    fn growth_on_new_vertices() {
        let mut s = store(&[(0, 1)]);
        s.commit(&MutationBatch::new(vec![EdgeMutation::insert(5, 0)]));
        assert_eq!(s.num_vertices(), 6);
        assert_eq!(s.out_dir().neighbors(5, View::New), vec![0]);
        assert_eq!(s.out_dir().neighbors(5, View::Old), Vec::<u64>::new());
    }

    #[test]
    fn io_accounted_through_pool() {
        let pool = Arc::new(BufferPool::new(1 << 20, 64, IoStats::new()));
        let edges: Vec<(u64, u64)> = (0..100).map(|i| (i, (i + 1) % 100)).collect();
        let s = EdgeStore::new(100, &edges, true, pool.clone());
        let before = pool.stats().snapshot();
        assert!(before.disk_write_bytes > 0, "base CSR write accounted");
        s.out_dir().neighbors(5, View::New);
        let after = pool.stats().snapshot();
        assert!(after.page_reads > before.page_reads);
        // Re-reading the same vertex hits the pool.
        s.out_dir().neighbors(5, View::New);
        let again = pool.stats().snapshot();
        assert_eq!(again.page_reads, after.page_reads);
        assert!(again.page_hits > after.page_hits);
    }

    /// Compaction folds all but the latest delta into the base, so `Old`,
    /// `New`, the delta stream and the degrees read the same across it —
    /// even with the latest batch still pending.
    #[test]
    fn compaction_preserves_new_view_and_drops_chain() {
        let mut s = store(&[(0, 1), (0, 2), (1, 2)]);
        s.commit(&MutationBatch::new(vec![
            EdgeMutation::insert(0, 3),
            EdgeMutation::delete(0, 1),
        ]));
        s.commit(&MutationBatch::new(vec![EdgeMutation::insert(2, 0), EdgeMutation::delete(0, 3)]));
        let read = |s: &EdgeStore| {
            let dir = s.out_dir();
            let views = (0..4u64).flat_map(|v| {
                [View::Old, View::New].map(|view| {
                    let mut n = dir.neighbors(v, view);
                    n.sort_unstable();
                    (n, dir.degree(v, view))
                })
            });
            let mut delta = Vec::new();
            dir.for_each_delta_edge(|a, b, m| delta.push((a, b, m)));
            (views.collect::<Vec<_>>(), delta, dir.snapshot())
        };
        let before = read(&s);
        assert_eq!(before.1, [(2, 0, 1), (0, 3, -1)]);
        assert_eq!(s.out_dir().delta_segments(), 2);
        let size_before = s.out_dir().size_bytes();

        s.compact();
        assert_eq!(s.out_dir().delta_segments(), 1);
        assert!(s.out_dir().size_bytes() <= size_before);
        assert_eq!(read(&s), before);
        s.compact();
        assert_eq!(read(&s), before, "a second compaction changes nothing");

        // The store keeps working across post-compaction batches.
        s.commit(&MutationBatch::new(vec![EdgeMutation::delete(2, 0)]));
        assert_eq!(s.out_dir().neighbors(2, View::New), vec![]);
        assert_eq!(s.out_dir().neighbors(2, View::Old), vec![0]);
    }

    /// An image with every feature: both directions, vertex growth, a pair
    /// retracted for good and one re-inserted after its delete.
    fn eventful_image() -> Vec<u8> {
        let mut s = store(&[(0, 1), (0, 2), (1, 2)]);
        s.commit(&MutationBatch::new(vec![EdgeMutation::delete(0, 1), EdgeMutation::insert(4, 0)]));
        s.commit(&MutationBatch::new(vec![EdgeMutation::insert(0, 1), EdgeMutation::delete(1, 2)]));
        let mut w = Writer::new();
        s.encode_into(&mut w);
        w.buf
    }

    fn decode(image: &[u8]) -> CodecResult<EdgeStore> {
        let pool = Arc::new(BufferPool::new(1 << 20, 4096, IoStats::new()));
        let mut r = Reader::new(image);
        let store = EdgeStore::decode_from(&mut r, pool)?;
        r.finish().map(|()| store)
    }

    #[test]
    fn image_roundtrip_keeps_views_and_rebuilds_the_directory() {
        let s = decode(&eventful_image()).unwrap();
        assert_eq!(s.out_dir().neighbors(0, View::New), vec![1, 2], "re-inserted pair emitted once");
        assert_eq!(s.out_dir().neighbors(0, View::Old), vec![2]);
        assert_eq!(s.out_dir().neighbors(1, View::New), Vec::<u64>::new());
        assert_eq!(s.out_dir().neighbors(1, View::Old), vec![2]);
        assert_eq!(s.out_dir().delta_segments_of(0), 1);
        assert_eq!(s.out_dir().delta_segments_of(4), 1);
        assert_eq!(s.out_dir().delta_segments_of(1), 0);
        assert_eq!(s.rev_dir().neighbors(0, View::New), vec![4]);
    }

    #[test]
    fn truncated_image_is_an_error_at_every_offset() {
        let image = eventful_image();
        for cut in 0..image.len() {
            assert!(decode(&image[..cut]).is_err(), "cut at {cut} of {}", image.len());
        }
    }

    #[test]
    fn corrupted_bytes_are_an_error_or_a_scannable_store() {
        let image = eventful_image();
        for i in 0..image.len() {
            for mask in [0x01, 0x80, 0xFF] {
                let mut bad = image.clone();
                bad[i] ^= mask;
                // Without the snapshot container's CRC a flip may decode; what
                // decodes must be safe to read everywhere.
                let Ok(s) = decode(&bad) else { continue };
                for dir in [s.out_dir(), s.rev_dir()] {
                    for v in 0..dir.num_vertices() as u64 + 2 {
                        for view in [View::Old, View::New] {
                            dir.for_each_neighbor(v, view, |_| {});
                            dir.degree(v, view);
                            dir.edge_mult(v, 1, view);
                            dir.sorted_neighbors(v, view).for_each(drop);
                        }
                        dir.for_each_delta_neighbor(v, |_, _| {});
                        dir.sorted_delta_neighbors(v).for_each(drop);
                    }
                    dir.for_each_delta_edge(|_, _, _| {});
                }
            }
        }
    }

    #[test]
    fn malformed_sparse_segments_are_typed_errors() {
        let seg = |sources: &[u64], offsets: &[u64], targets: &[u64]| {
            let mut w = Writer::new();
            w.u64(sources.len() as u64);
            put_u64s(&mut w, sources);
            w.u64(offsets.len() as u64);
            put_u64s(&mut w, offsets);
            w.u64(targets.len() as u64);
            put_u64s(&mut w, targets);
            SparseSegment::decode_from(&mut Reader::new(&w.buf), 8).map(|s| s.size_bytes())
        };
        assert_eq!(seg(&[1, 5], &[0, 1, 3], &[2, 0, 7]), Ok(8 * 8));
        let sources = Err(CodecError::Malformed("sparse segment sources"));
        assert_eq!(seg(&[5, 1], &[0, 1, 3], &[2, 0, 7]), sources, "not increasing");
        assert_eq!(seg(&[1, 1], &[0, 1, 3], &[2, 0, 7]), sources, "duplicate source");
        assert_eq!(seg(&[1, 8], &[0, 1, 3], &[2, 0, 7]), sources, "source beyond n");
        let offsets = Err(CodecError::Malformed("segment offsets"));
        assert_eq!(seg(&[1, 5], &[1, 1, 3], &[2, 0, 7]), offsets, "not from 0");
        assert_eq!(seg(&[1, 5], &[0, 4, 3], &[2, 0, 7]), offsets, "not monotone");
        assert_eq!(seg(&[1, 5], &[0, 1, 9], &[2, 0, 7]), offsets, "beyond the targets");
        let slots = Err(CodecError::Malformed("sparse segment slot count"));
        assert_eq!(seg(&[1, 5], &[0, 3], &[2, 0, 7]), slots, "one adjacency for two sources");
        let mut w = Writer::new();
        w.u64(9);
        let count = Err(CodecError::Malformed("sparse segment source count"));
        assert_eq!(SparseSegment::decode_from(&mut Reader::new(&w.buf), 8).map(|_| ()), count);
    }

    /// The walker's reverse-view intersection reads an edge's count from
    /// its far end: across a directed history of repeated, deleted and
    /// revived pairs and a compaction, the out and the in store hold equal
    /// counts for every pair in both views and in the Δ run.
    #[test]
    fn out_and_in_stores_agree_on_every_count() {
        let mut s = store(&[(0, 1), (0, 1), (1, 2), (2, 0), (3, 1)]);
        let batches = [
            vec![EdgeMutation::insert(0, 1), EdgeMutation::delete(1, 2), EdgeMutation::insert(3, 0)],
            vec![EdgeMutation::delete(0, 1), EdgeMutation::insert(1, 2), EdgeMutation::insert(2, 3)],
            vec![EdgeMutation::insert(0, 1), EdgeMutation::insert(2, 0), EdgeMutation::delete(3, 1)],
        ];
        let counts = |dir: &EdgeStoreDir, flip: bool, view: Option<View>| {
            let mut all = Vec::new();
            for v in 0..4 {
                let run = view.map_or_else(|| dir.sorted_delta_neighbors(v), |view| dir.sorted_neighbors(v, view));
                all.extend(run.map(|(d, c)| if flip { (d, v, c) } else { (v, d, c) }));
            }
            all.sort_unstable();
            all
        };
        for (i, b) in batches.into_iter().enumerate() {
            s.commit(&MutationBatch::new(b));
            if i == 1 {
                s.compact();
            }
            for view in [Some(View::Old), Some(View::New), None] {
                let (out, rev) = (counts(s.out_dir(), false, view), counts(s.rev_dir(), true, view));
                assert_eq!(out, rev, "batch {i} {view:?}");
            }
        }
        assert_eq!(counts(s.out_dir(), false, Some(View::New))[..2], [(0, 1, 1), (1, 2, 1)]);
    }

    #[test]
    fn undirected_store_uses_out_for_reverse() {
        let pool = Arc::new(BufferPool::new(1 << 20, 4096, IoStats::new()));
        let s = EdgeStore::new(3, &[(0, 1), (1, 0)], true, pool);
        assert!(s.is_undirected());
        assert_eq!(s.rev_dir().neighbors(0, View::New), vec![1]);
    }
}
