//! The partitioned cluster graph.
//!
//! Vertices are hash-partitioned across the simulated machines by
//! `vid % machines`; each machine owns the out-adjacency of its vertices
//! (and, for directed graphs, the in-adjacency of vertices it owns as
//! destinations) in its own edge store, behind its own buffer pool. A
//! worker reading the adjacency of a vertex owned by another machine pays
//! the adjacency's size in simulated network bytes — the cost the paper's
//! windowed traversal and pre-aggregation are designed around.

use itg_gsa::expr::EdgeDir;
use itg_gsa::{VertexId};
use itg_store::{BufferPool, EdgeMutation, EdgeStoreDir, IoStats, MutationBatch, View};
use std::sync::Arc;

/// The description of an input graph.
#[derive(Debug, Clone)]
pub struct GraphInput {
    pub num_vertices: usize,
    /// Directed edges. For an undirected graph, pass each edge once; the
    /// loader mirrors them.
    pub edges: Vec<(VertexId, VertexId)>,
    pub undirected: bool,
}

impl GraphInput {
    pub fn undirected(edges: Vec<(VertexId, VertexId)>) -> GraphInput {
        let n = edges
            .iter()
            .map(|&(a, b)| a.max(b) + 1)
            .max()
            .unwrap_or(0) as usize;
        GraphInput {
            num_vertices: n,
            edges,
            undirected: true,
        }
    }

    pub fn directed(edges: Vec<(VertexId, VertexId)>) -> GraphInput {
        let n = edges
            .iter()
            .map(|&(a, b)| a.max(b) + 1)
            .max()
            .unwrap_or(0) as usize;
        GraphInput {
            num_vertices: n,
            edges,
            undirected: false,
        }
    }
}

/// The bootstrap slice for one worker: every input edge with at least one
/// endpoint owned by a machine in `owned` (`owner(v) = v % machines`).
///
/// The either-endpoint criterion makes the slice closed over every
/// 1-neighbourhood read a worker performs — forward enumeration from owned
/// sources, reverse (in-edge) walks into owned destinations, and the
/// mirrored adjacency of undirected graphs — so bootstrap can ship
/// `~1/workers` of the edge list instead of the full image without
/// changing a single byte of the results (see DESIGN.md §8). Programs
/// whose walks span more than one hop read neighbourhoods outside this
/// closure and must receive the full image; [`crate::Session`] gates on
/// the compiled program's `max_hops`.
pub fn partition_slice(
    edges: &[(VertexId, VertexId)],
    machines: usize,
    owned: &std::ops::Range<usize>,
) -> Vec<(VertexId, VertexId)> {
    edges
        .iter()
        .copied()
        .filter(|&(a, b)| {
            owned.contains(&((a as usize) % machines)) || owned.contains(&((b as usize) % machines))
        })
        .collect()
}

/// One machine's share of the graph.
pub struct GraphPartition {
    /// Out-adjacency of locally-owned sources (source ids are local).
    pub out: EdgeStoreDir,
    /// In-adjacency (reverse edges) of locally-owned destinations; absent
    /// for undirected graphs where `out` serves both directions.
    pub rev: Option<EdgeStoreDir>,
    pub pool: Arc<BufferPool>,
    pub stats: IoStats,
}

/// The partitioned dynamic graph.
pub struct ClusterGraph {
    machines: usize,
    n: usize,
    n_prev: usize,
    undirected: bool,
    pub partitions: Vec<GraphPartition>,
}

impl ClusterGraph {
    /// Load a graph across `machines` partitions, feeding each partition's
    /// IO counters into `obs`'s `store/*` histograms (the
    /// [`crate::EngineConfig::obs`] path).
    pub fn load_with_obs(
        input: &GraphInput,
        machines: usize,
        pool_bytes: u64,
        page_size: u64,
        obs: &itg_obs::Recorder,
    ) -> ClusterGraph {
        assert!(machines >= 1);
        let mut edges: Vec<(VertexId, VertexId)> = input.edges.clone();
        if input.undirected {
            edges.extend(input.edges.iter().map(|&(a, b)| (b, a)));
            edges.sort_unstable();
            edges.dedup();
            edges.retain(|&(a, b)| a != b);
        }
        let n = input.num_vertices;
        let mut partitions = Vec::with_capacity(machines);
        for w in 0..machines {
            let stats = IoStats::with_obs(obs);
            let pool = Arc::new(BufferPool::new(pool_bytes, page_size, stats.clone()));
            let n_local = Self::local_count(n, w, machines);
            let local_out: Vec<(VertexId, VertexId)> = edges
                .iter()
                .filter(|&&(s, _)| s as usize % machines == w)
                .map(|&(s, d)| (s / machines as u64, d))
                .collect();
            let out = EdgeStoreDir::new(n_local, &local_out, 0, pool.clone());
            let rev = if input.undirected {
                None
            } else {
                let local_rev: Vec<(VertexId, VertexId)> = edges
                    .iter()
                    .filter(|&&(_, d)| d as usize % machines == w)
                    .map(|&(s, d)| (d / machines as u64, s))
                    .collect();
                Some(EdgeStoreDir::new(n_local, &local_rev, 1 << 16, pool.clone()))
            };
            partitions.push(GraphPartition {
                out,
                rev,
                pool,
                stats,
            });
        }
        ClusterGraph {
            machines,
            n,
            n_prev: n,
            undirected: input.undirected,
            partitions,
        }
    }

    fn local_count(n: usize, w: usize, machines: usize) -> usize {
        if n == 0 {
            0
        } else {
            (n - 1 - w) / machines + 1
        }
        .max(if w < n { 1 } else { 0 })
    }

    pub fn machines(&self) -> usize {
        self.machines
    }

    pub fn is_undirected(&self) -> bool {
        self.undirected
    }

    /// Total vertices in the current snapshot.
    pub fn num_vertices(&self) -> usize {
        self.n
    }

    /// Total vertices in the previous snapshot (before the latest batch).
    pub fn num_vertices_old(&self) -> usize {
        self.n_prev
    }

    pub fn num_edges(&self) -> u64 {
        self.partitions.iter().map(|p| p.out.num_edges()).sum()
    }

    /// The current snapshot index (number of batches applied).
    pub fn snapshot(&self) -> usize {
        self.partitions[0].out.snapshot()
    }

    pub fn owner(&self, v: VertexId) -> usize {
        (v as usize) % self.machines
    }

    pub fn local_index(&self, v: VertexId) -> usize {
        (v as usize) / self.machines
    }

    pub fn global_id(&self, worker: usize, local: usize) -> VertexId {
        (local * self.machines + worker) as VertexId
    }

    /// Vertices owned by `worker`, in id order.
    pub fn local_vertices(&self, worker: usize) -> impl Iterator<Item = VertexId> + '_ {
        let m = self.machines;
        let n = self.n;
        (0..).map(move |l| (l * m + worker) as VertexId).take_while(
            move |&v| (v as usize) < n,
        )
    }

    fn dir_store(&self, owner: usize, dir: EdgeDir) -> &EdgeStoreDir {
        let p = &self.partitions[owner];
        match dir {
            EdgeDir::Out | EdgeDir::Both => &p.out,
            EdgeDir::In => p.rev.as_ref().unwrap_or(&p.out),
        }
    }

    /// Visit `v`'s neighbors along `dir` in `view`, from the perspective of
    /// `from_worker`: reading a remote partition's adjacency is charged to
    /// the network.
    pub fn for_each_neighbor(
        &self,
        from_worker: usize,
        v: VertexId,
        dir: EdgeDir,
        view: View,
        mut f: impl FnMut(VertexId),
    ) {
        let owner = self.owner(v);
        let store = self.dir_store(owner, dir);
        let local = self.local_index(v) as VertexId;
        if owner != from_worker {
            let bytes = store.degree(local, view) as u64 * 8;
            self.partitions[from_worker].stats.add_net(bytes);
        }
        store.for_each_neighbor(local, view, &mut f);
    }

    /// Delta-stream neighbors of `v` (±1 per edge), charged like a normal
    /// seek.
    pub fn for_each_delta_neighbor(
        &self,
        from_worker: usize,
        v: VertexId,
        dir: EdgeDir,
        mut f: impl FnMut(VertexId, i64),
    ) {
        let owner = self.owner(v);
        let store = self.dir_store(owner, dir);
        let local = self.local_index(v) as VertexId;
        if owner != from_worker {
            self.partitions[from_worker].stats.add_net(64);
        }
        store.for_each_delta_neighbor(local, &mut f);
    }

    /// All delta edges of the latest batch along `dir`, with multiplicity,
    /// in global ids.
    pub fn for_each_delta_edge(&self, dir: EdgeDir, mut f: impl FnMut(VertexId, VertexId, i64)) {
        let m = self.machines as u64;
        for (w, p) in self.partitions.iter().enumerate() {
            let store = match dir {
                EdgeDir::Out | EdgeDir::Both => &p.out,
                EdgeDir::In => p.rev.as_ref().unwrap_or(&p.out),
            };
            store.for_each_delta_edge(|src_local, dst, mult| {
                f(src_local * m + w as u64, dst, mult);
            });
        }
    }

    pub fn degree(&self, v: VertexId, dir: EdgeDir, view: View) -> u32 {
        if (v as usize) >= self.n {
            return 0;
        }
        let owner = self.owner(v);
        self.dir_store(owner, dir)
            .degree(self.local_index(v) as VertexId, view)
    }

    /// Membership test: multiplicity of edge (src, dst) along `dir` in
    /// `view` — the copies a scan of `src` emits, so 1 if present and 0
    /// if absent on a graph without repeated edges. Used by the multi-way
    /// intersection optimization's closing check.
    pub fn edge_mult(
        &self,
        from_worker: usize,
        src: VertexId,
        dst: VertexId,
        dir: EdgeDir,
        view: View,
    ) -> i64 {
        let owner = self.owner(src);
        if owner != from_worker {
            // A remote membership probe ships the key, not the adjacency.
            self.partitions[from_worker].stats.add_net(16);
        }
        self.dir_store(owner, dir)
            .edge_mult(self.local_index(src) as VertexId, dst, view)
    }

    /// Multiplicity of (src, dst) in the latest delta along `dir`
    /// (+1 inserted, −1 deleted, 0 untouched).
    pub fn delta_edge_mult(
        &self,
        from_worker: usize,
        src: VertexId,
        dst: VertexId,
        dir: EdgeDir,
    ) -> i64 {
        let owner = self.owner(src);
        if owner != from_worker {
            self.partitions[from_worker].stats.add_net(16);
        }
        self.dir_store(owner, dir)
            .delta_edge_mult(self.local_index(src) as VertexId, dst)
    }

    /// Apply a mutation batch, advancing the graph to the next snapshot.
    /// For undirected graphs the batch is mirrored automatically. Each
    /// partition direction ingests its localized share through the store's
    /// [`EdgeStoreDir::commit`] choke point; the out-direction receipt of
    /// partition 0 (present for every machine count) reports the new epoch.
    pub fn apply_batch(&mut self, batch: &MutationBatch) -> itg_store::BatchReceipt {
        // Consolidate first: same-edge insert/delete pairs within one
        // batch cancel under the ±1 multiset model.
        let batch = batch.consolidated();
        let batch = if self.undirected {
            dedup_mirror(&batch)
        } else {
            batch
        };
        self.n_prev = self.n;
        if let Some(maxv) = batch.max_vertex() {
            self.n = self.n.max(maxv as usize + 1);
        }
        let m = self.machines;
        let mut receipt = None;
        for w in 0..m {
            let n_local = if self.n == 0 || w >= self.n {
                0
            } else {
                (self.n - 1 - w) / m + 1
            };
            // Localize this partition's share: sources map to the local id
            // space, destinations stay global. `MutationBatch::new`'s
            // stable partition preserves each class's relative order.
            let local: Vec<EdgeMutation> = batch
                .edges()
                .iter()
                .filter(|e| e.src as usize % m == w)
                .map(|e| EdgeMutation {
                    src: e.src / m as u64,
                    dst: e.dst,
                    mult: e.mult,
                })
                .collect();
            let p = &mut self.partitions[w];
            p.out.grow(n_local);
            let r = p.out.commit(&MutationBatch::new(local));
            if w == 0 {
                receipt = Some(r);
            }
            if let Some(rev) = &mut p.rev {
                let rlocal: Vec<EdgeMutation> = batch
                    .edges()
                    .iter()
                    .filter(|e| e.dst as usize % m == w)
                    .map(|e| EdgeMutation {
                        src: e.dst / m as u64,
                        dst: e.src,
                        mult: e.mult,
                    })
                    .collect();
                rev.grow(n_local);
                rev.commit(&MutationBatch::new(rlocal));
            }
        }
        receipt.expect("at least one partition")
    }

    /// Compact every partition's segment chains: rewrite each base CSR
    /// from the `Old` view and keep only the latest delta segments, so the
    /// views and the delta stream read the same afterwards.
    pub fn compact(&mut self) {
        for p in &mut self.partitions {
            p.out.compact();
            if let Some(r) = &mut p.rev {
                r.compact();
            }
        }
    }

    /// The current snapshot as the [`GraphInput`] a fresh load reproduces:
    /// every stored copy of every edge in [`View::New`], in `(min, max)`
    /// orientation when undirected (the loader mirrors), sorted, over this
    /// graph's vertex space. The scans are charged to each partition's pool.
    pub fn current_input(&self) -> GraphInput {
        let mut edges = Vec::new();
        for (w, p) in self.partitions.iter().enumerate() {
            for v in self.local_vertices(w) {
                p.out.for_each_neighbor(self.local_index(v) as VertexId, View::New, |d| {
                    if !self.undirected || v <= d {
                        edges.push((v, d));
                    }
                });
            }
        }
        edges.sort_unstable();
        GraphInput {
            num_vertices: self.n,
            edges,
            undirected: self.undirected,
        }
    }

    /// Total on-disk bytes across all partitions' edge segments.
    pub fn edge_store_bytes(&self) -> u64 {
        self.partitions
            .iter()
            .map(|p| {
                p.out.size_bytes() + p.rev.as_ref().map_or(0, |r| r.size_bytes())
            })
            .sum()
    }

    /// Serialize the partitioned graph for durability snapshots: the
    /// topology scalars plus every partition's edge-store segment chains,
    /// structure preserved exactly (DESIGN.md §9).
    pub(crate) fn encode_into(&self, w: &mut itg_store::Writer) {
        w.u64(self.machines as u64);
        w.u64(self.n as u64);
        w.u64(self.n_prev as u64);
        w.bool(self.undirected);
        for p in &self.partitions {
            p.out.encode_into(w);
            w.bool(p.rev.is_some());
            if let Some(rev) = &p.rev {
                rev.encode_into(w);
            }
        }
    }

    /// Rebuild a graph of `machines` partitions from its serialized image,
    /// giving each partition a fresh buffer pool and IO counters reporting
    /// into `obs` (restoring a snapshot is not the workload's IO). An image
    /// of another partition count is [`itg_store::CodecError::Malformed`].
    pub(crate) fn decode_from(
        r: &mut itg_store::Reader<'_>,
        machines: usize,
        pool_bytes: u64,
        page_size: u64,
        obs: &itg_obs::Recorder,
    ) -> itg_store::CodecResult<ClusterGraph> {
        if r.u64()? != machines as u64 {
            let what = "graph image: partition count differs from the configuration";
            return Err(itg_store::CodecError::Malformed(what));
        }
        let n = r.u64()? as usize;
        let n_prev = r.u64()? as usize;
        let undirected = r.bool()?;
        // Smallest partition: one bool and an edge-store header of 28 bytes.
        let mut partitions = Vec::with_capacity(r.capacity(machines as u64, 29));
        for _ in 0..machines {
            let stats = IoStats::with_obs(obs);
            let pool = Arc::new(BufferPool::new(pool_bytes, page_size, stats.clone()));
            let out = EdgeStoreDir::decode_from(r, pool.clone())?;
            let rev = if r.bool()? {
                Some(EdgeStoreDir::decode_from(r, pool.clone())?)
            } else {
                None
            };
            partitions.push(GraphPartition {
                out,
                rev,
                pool,
                stats,
            });
        }
        Ok(ClusterGraph {
            machines,
            n,
            n_prev,
            undirected,
            partitions,
        })
    }

    /// Aggregate IO stats across partitions.
    pub fn total_io(&self) -> itg_store::IoSnapshot {
        let mut acc = itg_store::IoSnapshot::default();
        for p in &self.partitions {
            let s = p.stats.snapshot();
            acc.disk_read_bytes += s.disk_read_bytes;
            acc.disk_write_bytes += s.disk_write_bytes;
            acc.page_reads += s.page_reads;
            acc.page_hits += s.page_hits;
            acc.net_bytes += s.net_bytes;
            acc.walks_enumerated += s.walks_enumerated;
            acc.recomputations += s.recomputations;
        }
        acc
    }
}

/// Mirror a batch for undirected graphs, avoiding duplicate mirrored pairs
/// when the caller already included both directions.
fn dedup_mirror(batch: &MutationBatch) -> MutationBatch {
    let mut seen = itg_gsa::FxHashSet::default();
    let mut out = Vec::with_capacity(batch.len() * 2);
    for e in batch.edges() {
        for (s, d) in [(e.src, e.dst), (e.dst, e.src)] {
            if s != d && seen.insert((s, d, e.mult)) {
                out.push(EdgeMutation {
                    src: s,
                    dst: d,
                    mult: e.mult,
                });
            }
        }
    }
    MutationBatch::new(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use itg_obs::Recorder;

    fn small() -> ClusterGraph {
        // Path 0-1-2-3 plus edge 1-3, undirected.
        let input = GraphInput::undirected(vec![(0, 1), (1, 2), (2, 3), (1, 3)]);
        ClusterGraph::load_with_obs(&input, 3, 1 << 20, 4096, &Recorder::disabled())
    }

    #[test]
    fn partition_slices_cover_every_owned_endpoint() {
        let edges: Vec<(VertexId, VertexId)> =
            vec![(0, 1), (1, 2), (2, 3), (1, 3), (4, 0), (5, 5)];
        let machines = 3;
        for workers in 1..=machines {
            let mut seen: Vec<(VertexId, VertexId)> = Vec::new();
            for rank in 0..workers {
                let owned = crate::transport::partition_range(machines, workers, rank);
                let slice = partition_slice(&edges, machines, &owned);
                // Every edge touching an owned machine is present...
                for &(a, b) in &edges {
                    let touches = owned.contains(&((a as usize) % machines))
                        || owned.contains(&((b as usize) % machines));
                    assert_eq!(slice.contains(&(a, b)), touches);
                }
                seen.extend(&slice);
            }
            // ...and the union of all slices is the full edge list.
            seen.sort_unstable();
            seen.dedup();
            let mut full = edges.clone();
            full.sort_unstable();
            assert_eq!(seen, full);
        }
        // One worker owning everything gets the identity slice, in order.
        assert_eq!(partition_slice(&edges, machines, &(0..machines)), edges);
    }

    #[test]
    fn partitioning_roundtrip() {
        let g = small();
        assert_eq!(g.num_vertices(), 4);
        for v in 0..4u64 {
            let w = g.owner(v);
            let l = g.local_index(v);
            assert_eq!(g.global_id(w, l), v);
        }
        let locals: Vec<VertexId> = g.local_vertices(1).collect();
        assert_eq!(locals, vec![1]);
        let locals0: Vec<VertexId> = g.local_vertices(0).collect();
        assert_eq!(locals0, vec![0, 3]);
    }

    #[test]
    fn neighbors_cross_partitions() {
        let g = small();
        let mut n1 = Vec::new();
        g.for_each_neighbor(0, 1, EdgeDir::Both, View::New, |d| n1.push(d));
        n1.sort_unstable();
        assert_eq!(n1, vec![0, 2, 3]);
        // Reading v1 (owner 1) from worker 0 charged network bytes.
        assert!(g.partitions[0].stats.snapshot().net_bytes >= 24);
        // Local read: no *additional* network.
        let before = g.partitions[1].stats.snapshot().net_bytes;
        let mut n = Vec::new();
        g.for_each_neighbor(1, 1, EdgeDir::Both, View::New, |d| n.push(d));
        assert_eq!(g.partitions[1].stats.snapshot().net_bytes, before);
    }

    #[test]
    fn degrees_and_membership() {
        let g = small();
        assert_eq!(g.degree(1, EdgeDir::Both, View::New), 3);
        assert_eq!(g.degree(0, EdgeDir::Both, View::New), 1);
        assert_eq!(g.edge_mult(0, 1, 3, EdgeDir::Both, View::New), 1);
        assert_eq!(g.edge_mult(0, 0, 3, EdgeDir::Both, View::New), 0);
    }

    #[test]
    fn mutations_advance_views() {
        let mut g = small();
        g.apply_batch(&MutationBatch::new(vec![
            EdgeMutation::insert(0, 2),
            EdgeMutation::delete(1, 3),
        ]));
        assert_eq!(g.degree(0, EdgeDir::Both, View::New), 2);
        assert_eq!(g.degree(0, EdgeDir::Both, View::Old), 1);
        assert_eq!(g.edge_mult(0, 1, 3, EdgeDir::Both, View::New), 0);
        assert_eq!(g.edge_mult(0, 3, 1, EdgeDir::Both, View::New), 0, "mirrored delete");
        assert_eq!(g.edge_mult(0, 1, 3, EdgeDir::Both, View::Old), 1);
        // Delta stream (both directions of each mutation).
        let mut delta = Vec::new();
        g.for_each_delta_edge(EdgeDir::Both, |s, d, m| delta.push((s, d, m)));
        delta.sort_unstable();
        assert_eq!(
            delta,
            vec![(0, 2, 1), (1, 3, -1), (2, 0, 1), (3, 1, -1)]
        );
        assert_eq!(g.delta_edge_mult(0, 1, 3, EdgeDir::Both), -1);
        assert_eq!(g.delta_edge_mult(0, 2, 0, EdgeDir::Both), 1);
    }

    #[test]
    fn directed_graph_keeps_reverse_store() {
        let input = GraphInput::directed(vec![(0, 1), (2, 1)]);
        let g = ClusterGraph::load_with_obs(&input, 2, 1 << 20, 4096, &Recorder::disabled());
        let mut back = Vec::new();
        g.for_each_neighbor(0, 1, EdgeDir::In, View::New, |d| back.push(d));
        back.sort_unstable();
        assert_eq!(back, vec![0, 2]);
        let mut fwd = Vec::new();
        g.for_each_neighbor(0, 0, EdgeDir::Out, View::New, |d| fwd.push(d));
        assert_eq!(fwd, vec![1]);
    }

    #[test]
    fn vertex_growth_via_batch() {
        let mut g = small();
        g.apply_batch(&MutationBatch::new(vec![EdgeMutation::insert(3, 6)]));
        assert_eq!(g.num_vertices(), 7);
        assert_eq!(g.num_vertices_old(), 4);
        assert_eq!(g.degree(6, EdgeDir::Both, View::New), 1);
        let mut n = Vec::new();
        g.for_each_neighbor(0, 6, EdgeDir::Both, View::New, |d| n.push(d));
        assert_eq!(n, vec![3]);
    }
}
