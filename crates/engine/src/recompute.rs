//! The two recompute passes of a refresh (paper §5.4): accumulators whose
//! retractions cannot be folded are reset and re-derived from a pruned
//! full-scan enumeration, and damaged global accumulators are re-derived
//! from a global-actions-only full scan. Both reuse the superstep's own
//! machinery — the full-scan walk task, the exchange, the inbox apply.

use crate::accum::{AccBuffer, Outcome};
use crate::exchange::{remove_sorted, union_sorted};
use crate::metrics::ParallelMetrics;
use crate::msbfs::backward_msbfs;
use crate::session::{EngineError, Session};
use crate::stream::is_active;
use itg_gsa::value::Value;
use itg_gsa::{FxHashSet, VertexId};

impl Session {
    /// Monoid recomputation: reset the affected accumulators, find the
    /// candidate start vertices by backward MS-BFS from the affected set,
    /// and re-derive their values from a restricted full-scan enumeration.
    /// `recompute` is the cluster-wide union per accumulator; only owned
    /// rows carry state. `changed_accm` (per machine, ascending) gains each
    /// affected row that ends up moved and loses each that does not.
    pub(crate) fn recompute_accumulators(
        &mut self,
        recompute: &[Vec<VertexId>],
        changed_accm: &mut [Vec<VertexId>],
    ) -> Result<(), EngineError> {
        // (accumulator, vertex, owner) of every affected row this plane holds.
        let rows: Vec<(usize, VertexId, usize)> = recompute
            .iter()
            .enumerate()
            .flat_map(|(a, list)| list.iter().map(move |&v| (a, v)))
            .map(|(a, v)| (a, v, self.graph.owner(v)))
            .filter(|(_, _, w)| self.owned.contains(w))
            .collect();
        for &(a, v, w) in &rows {
            let l = self.graph.local_index(v);
            self.layout.reset(&mut self.parts[w].cur_accm, l, a);
            self.graph.partitions[w].stats.add_recomputation();
        }
        // The compiled recompute plan names, per accumulator, the queries
        // that write it and the backward paths to their candidate starts;
        // each (accumulator, query, start) enumerates once, so every
        // action on the accumulator fires once per walk.
        let mut buffers: Vec<(usize, AccBuffer)> =
            self.owned.clone().map(|w| (w, self.scratch_buffer())).collect();
        for (a, list) in recompute.iter().enumerate() {
            if list.is_empty() {
                continue;
            }
            let v_aff: FxHashSet<VertexId> = list.iter().copied().collect();
            for step in &self.program.recompute_plan[a] {
                let q = &self.program.traverse.queries[step.query];
                let mut enumerated = FxHashSet::default();
                for path in &step.paths {
                    let levels = backward_msbfs(&self.graph, q, path, v_aff.clone());
                    for &start in levels.start_candidates() {
                        let w = self.graph.owner(start);
                        if !self.owned.contains(&w)
                            || !is_active(&self.parts[w].cur_attrs, self.graph.local_index(start))
                            || !enumerated.insert(start)
                        {
                            continue;
                        }
                        let only = Some((a, &v_aff));
                        let buffer = &mut buffers[w - self.owned.start].1;
                        self.enumerate_current(w, step.query, start, buffer, only, None);
                    }
                }
            }
        }
        let (inbox, _globals) = self.exchange(buffers, false)?;
        self.apply_inbox(inbox, |_, _, _, outcome| {
            debug_assert_ne!(outcome, Outcome::NeedsRecompute, "recompute is insert-only");
        });
        // Affected rows are changed (vs prev) unless they recomputed back
        // to the identical state; compare to be precise.
        let n = changed_accm.len();
        let (mut moved, mut back) = (vec![Vec::new(); n], vec![Vec::new(); n]);
        for (_, v, w) in rows {
            let l = self.graph.local_index(v);
            let part = &self.parts[w];
            let differs = (0..self.layout.num_cols)
                .any(|c| part.cur_accm[c].get(l) != part.prev_accm[c].get(l));
            if differs { &mut moved[w] } else { &mut back[w] }.push(v);
        }
        for ((changed, mut moved), mut back) in changed_accm.iter_mut().zip(moved).zip(back) {
            for list in [&mut moved, &mut back] {
                list.sort_unstable();
                list.dedup();
            }
            remove_sorted(changed, &back);
            *changed = union_sorted(changed, &moved);
        }
        Ok(())
    }

    /// Recompute global accumulators by a full scan whose vertex frames
    /// are suppressed (the fallback for monoid globals under deletions).
    pub(crate) fn recompute_globals(
        &mut self,
        par: &mut ParallelMetrics,
    ) -> Result<Vec<Value>, EngineError> {
        let (buffers, _seeds) = self.traverse(par, Session::full_scan);
        let (inbox, reduced) = self.exchange(buffers, true)?;
        self.buffers.put(inbox);
        Ok(reduced.global_values(None).expect("a full scan retracts nothing"))
    }
}
