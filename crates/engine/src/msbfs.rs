//! Backward Multi-Source BFS for neighbor pruning (paper §5.3).
//!
//! For a Δ-walk sub-query whose delta sits at hop `j`, the walk must pass
//! through a delta edge at that hop. Starting from the delta edges' source
//! endpoints (`X^0`, candidates for the delta hop's source position), we
//! traverse *backward* along the reversed hops of the path to the walk's
//! start position: `X^{i+1}` is the set of vertices with an edge into
//! `X^i` along the corresponding hop. `X^m` is then `V_Δ`, the only
//! starting vertices that can produce Δ-walks, and the intermediate sets
//! restrict every on-path hop during forward enumeration — traversal
//! reordering and neighbor pruning fall out of the same levels.

use crate::graph::ClusterGraph;
use itg_compiler::WalkQuery;
use itg_gsa::{FxHashSet, VertexId};
use itg_store::View;

/// Per-depth visited sets of the backward MS-BFS.
///
/// `levels[0]` = the seed set (candidates for the path's deepest
/// position); `levels[i]` = candidates `i` steps back; `levels[m]` = `V_Δ`.
#[derive(Debug, Default)]
pub struct PruningLevels {
    pub levels: Vec<FxHashSet<VertexId>>,
}

impl PruningLevels {
    /// Candidate start vertices (`V_Δ`).
    pub fn start_candidates(&self) -> &FxHashSet<VertexId> {
        self.levels.last().expect("at least the seed level exists")
    }

    /// The allowed set for the path hop at `path_index` (0-based from the
    /// start): the vertices the hop's *target* may take.
    pub fn allowed_for_path_hop(&self, path_index: usize) -> &FxHashSet<VertexId> {
        // Path hop i targets the position whose backward level is
        // m − 1 − i.
        &self.levels[self.levels.len() - 2 - path_index]
    }
}

/// Run the backward MS-BFS for a sub-query: `seeds` are the delta edges'
/// source endpoints, `path` the hop indexes from the start position to the
/// delta hop's source (forward order). Traversal reads the `New` view
/// (hops before the delta are bound primed) and is charged to each
/// frontier vertex's owner (the distributed MS-BFS runs where the data
/// lives).
pub fn backward_msbfs(
    graph: &ClusterGraph,
    query: &WalkQuery,
    path: &[usize],
    seeds: FxHashSet<VertexId>,
) -> PruningLevels {
    let mut levels = Vec::with_capacity(path.len() + 1);
    levels.push(seeds);
    // Walk the path in reverse: the last path hop reaches the seed level.
    for &hop_idx in path.iter().rev() {
        let dir = query.hops[hop_idx].dir.reverse();
        let frontier = levels.last().unwrap();
        let mut next = FxHashSet::default();
        for &v in frontier {
            let owner = graph.owner(v);
            graph.for_each_neighbor(owner, v, dir, View::New, |u| {
                next.insert(u);
            });
        }
        levels.push(next);
    }
    PruningLevels { levels }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::GraphInput;
    use itg_compiler::HopSpec;
    use itg_gsa::expr::EdgeDir;
    use itg_obs::Recorder;

    fn chain_query(k: usize) -> WalkQuery {
        WalkQuery {
            hops: (0..k)
                .map(|i| HopSpec {
                    source: i,
                    dir: EdgeDir::Both,
                    constraint: None,
                })
                .collect(),
            ..WalkQuery::default()
        }
    }

    #[test]
    fn two_level_backward_bfs() {
        // Path graph 0-1-2-3-4; delta conceptually at hop 2 (source is
        // position 2), path = hops [0, 1].
        let g = ClusterGraph::load_with_obs(
            &GraphInput::undirected(vec![(0, 1), (1, 2), (2, 3), (3, 4)]),
            2,
            1 << 20,
            4096,
            &Recorder::disabled(),
        );
        let q = chain_query(3);
        let mut seeds = FxHashSet::default();
        seeds.insert(3u64);
        let levels = backward_msbfs(&g, &q, &[0, 1], seeds);
        assert_eq!(levels.levels.len(), 3);
        // One step back from 3: {2, 4}; two steps: {1, 3}.
        let mut l1: Vec<u64> = levels.levels[1].iter().copied().collect();
        l1.sort_unstable();
        assert_eq!(l1, vec![2, 4]);
        let mut l2: Vec<u64> = levels.start_candidates().iter().copied().collect();
        l2.sort_unstable();
        assert_eq!(l2, vec![1, 3]);
        // Forward restriction mapping: path hop 0 targets level 1
        // (positions one step from the start).
        let a0: Vec<u64> = {
            let mut v: Vec<u64> = levels.allowed_for_path_hop(0).iter().copied().collect();
            v.sort_unstable();
            v
        };
        assert_eq!(a0, vec![2, 4]);
        let a1: Vec<u64> = {
            let mut v: Vec<u64> = levels.allowed_for_path_hop(1).iter().copied().collect();
            v.sort_unstable();
            v
        };
        assert_eq!(a1, vec![3]);
    }

    #[test]
    fn empty_path_keeps_seeds_as_candidates() {
        let input = GraphInput::undirected(vec![(0, 1)]);
        let g = ClusterGraph::load_with_obs(&input, 1, 1 << 20, 4096, &Recorder::disabled());
        let q = chain_query(1);
        let mut seeds = FxHashSet::default();
        seeds.insert(0u64);
        let levels = backward_msbfs(&g, &q, &[], seeds);
        assert_eq!(levels.levels.len(), 1);
        assert!(levels.start_candidates().contains(&0));
    }

    #[test]
    fn reverse_dirs() {
        assert_eq!(EdgeDir::Out.reverse(), EdgeDir::In);
        assert_eq!(EdgeDir::In.reverse(), EdgeDir::Out);
        assert_eq!(EdgeDir::Both.reverse(), EdgeDir::Both);
    }
}
