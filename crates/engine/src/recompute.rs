//! The two recompute passes of a refresh (paper §5.4): accumulators whose
//! retractions cannot be folded are reset and re-derived from a pruned
//! full-scan enumeration, and damaged global accumulators are re-derived
//! from a global-actions-only full scan. Both reuse the superstep's own
//! machinery — the full-scan walk task, the exchange, the inbox apply.

use crate::accum::{reset_state, AccBuffer, Outcome};
use crate::exchange::finalize_globals;
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
    /// `recompute` is the cluster-wide union; only owned rows carry state.
    pub(crate) fn recompute_accumulators(
        &mut self,
        recompute: &[FxHashSet<VertexId>],
        changed_accm: &mut [FxHashSet<VertexId>],
    ) -> Result<(), EngineError> {
        // (accumulator, vertex, owner) of every affected row this plane holds.
        let rows: Vec<(usize, VertexId, usize)> = recompute
            .iter()
            .enumerate()
            .flat_map(|(a, set)| set.iter().map(move |&v| (a, v)))
            .map(|(a, v)| (a, v, self.graph.owner(v)))
            .filter(|(_, _, w)| self.owned.contains(w))
            .collect();
        for &(a, v, w) in &rows {
            let l = self.graph.local_index(v);
            reset_state(&self.layout, &mut self.parts[w].cur_accm, l, a);
            self.graph.partitions[w].stats.add_recomputation();
        }
        // The compiled recompute plan names, per accumulator, the queries
        // that write it and the backward paths to their candidate starts;
        // each (accumulator, query, start) enumerates once, so every
        // action on the accumulator fires once per walk.
        let mut buffers: Vec<AccBuffer> =
            (0..self.cfg.machines).map(|_| self.new_buffer()).collect();
        for (a, v_aff) in recompute.iter().enumerate() {
            if v_aff.is_empty() {
                continue;
            }
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
                        let only = Some((a, v_aff));
                        self.enumerate_current(w, step.query, start, &mut buffers[w], only, None);
                    }
                }
            }
        }
        let owned_buffers: Vec<(usize, AccBuffer)> = buffers
            .into_iter()
            .enumerate()
            .filter(|(w, _)| self.owned.contains(w))
            .collect();
        let (inbox, _globals) = self.exchange(owned_buffers, false)?;
        self.apply_inbox(&inbox, |_, _, _, outcome| {
            debug_assert_ne!(outcome, Outcome::NeedsRecompute, "recompute is insert-only");
        });
        // Affected rows are changed (vs prev) unless they recomputed back
        // to the identical state; compare to be precise.
        for (_, v, w) in rows {
            let l = self.graph.local_index(v);
            let part = &self.parts[w];
            let differs = (0..self.layout.num_cols)
                .any(|c| part.cur_accm[c].get(l) != part.prev_accm[c].get(l));
            if differs {
                changed_accm[w].insert(v);
            } else {
                changed_accm[w].remove(&v);
            }
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
        let (_inbox, reduced) = self.exchange(buffers, true)?;
        Ok(finalize_globals(self.global_infos(), &reduced))
    }
}
