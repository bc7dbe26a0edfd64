//! The superstep exchange and the control-plane arithmetic around it.
//!
//! [`Session::exchange`] routes pre-aggregated contributions to their
//! owners through the transport plane. The reductions a run's control
//! plane performs — folding global partials in machine order, settling a
//! global from its delta — are free functions here, written once: the
//! Local plane calls them in-process, the coordinator on what arrives over
//! the wire, so both replay the same float-fold sequence.

use crate::accum::{AccBuffer, Contribution, Generic, Maintain};
use crate::session::{protocol, EngineError, Plane, Session};
use crate::transport::{Transport, COORD};
use crate::wire::Payload;
use itg_gsa::value::Value;
use itg_gsa::{FxHashMap, FxHashSet, VertexId};
use itg_lnga::AccmInfo;

/// Per-destination-machine, per-accumulator merged contributions after a
/// superstep exchange: `inbox[dst][accm][vertex]`.
pub(crate) type ExchangeInbox = Vec<Vec<FxHashMap<VertexId, Contribution>>>;

/// One undelivered vertex frame awaiting the deterministic sender-order
/// merge: `(dst machine, sender machine, per-accumulator contributions)`.
type ContribFrame = (usize, u32, Vec<Vec<(VertexId, Contribution)>>);

/// Reduce one barrier round's [`Payload::GlobalsPartial`] frames — one per
/// machine — in ascending machine order: the float-fold sequence every
/// plane must replay.
pub(crate) fn reduce_partials(
    infos: &[AccmInfo],
    mut partials: Vec<(u32, Vec<Contribution>)>,
) -> Result<Vec<Contribution>, EngineError> {
    partials.sort_by_key(|&(from, _)| from);
    let mut out: Vec<Contribution> = infos
        .iter()
        .map(|g| Generic::of(g, true).identity())
        .collect();
    for (_, gs) in partials {
        if gs.len() != out.len() {
            return Err(protocol("global partial arity mismatch"));
        }
        for ((acc, c), info) in out.iter_mut().zip(&gs).zip(infos) {
            Generic::of(info, true).merge(acc, c);
        }
    }
    Ok(out)
}

/// Fold reduced global contributions into final per-global values.
pub(crate) fn finalize_globals(infos: &[AccmInfo], gc: &[Contribution]) -> Vec<Value> {
    infos
        .iter()
        .zip(gc)
        .map(|(info, c)| Generic::of(info, true).value(c))
        .collect()
}

/// Settle a superstep's globals from its reduced contributions. Without a
/// previous snapshot (`prev = None`) the contributions are the whole
/// value. With one they are a delta, settled by the rule onto the previous
/// value as onto a stored row that keeps no count and no support: a group
/// delta without raw retractions merges in; any other non-empty delta (a
/// monoid's, an unfoldable retraction) returns `None` — the global must be
/// recomputed by a full scan.
pub(crate) fn fold_global_deltas(
    infos: &[AccmInfo],
    prev: Option<&[Value]>,
    gc: &[Contribution],
) -> Option<Vec<Value>> {
    let Some(prev) = prev else {
        return Some(finalize_globals(infos, gc));
    };
    let mut out = prev.to_vec();
    for ((v, c), info) in out.iter_mut().zip(gc).zip(infos) {
        let alg = Generic::of(info, true);
        let mut row = alg.identity();
        if info.op.is_group() && c.retractions.is_empty() {
            row.folded = v.clone();
            alg.merge(&mut row, c);
            *v = row.folded;
        } else if *c != row {
            return None;
        }
    }
    Some(out)
}

impl Session {
    /// The active transport endpoint.
    fn transport_mut(&mut self) -> &mut dyn Transport {
        match &mut self.plane {
            Plane::Local(t) => t.as_mut(),
            Plane::Worker(link) => link,
            Plane::Coordinator(_) => unreachable!("the coordinator relays; it exchanges nothing"),
        }
    }

    /// Reduce this plane's active-set cardinality `mine` to the cluster
    /// total: identity under [`Plane::Local`] (it owns every machine); a
    /// frontier-vote round trip through the coordinator under
    /// [`Plane::Worker`]. Every worker evaluates the identical break
    /// condition on the returned total, keeping superstep counts in
    /// lockstep.
    pub(crate) fn plane_total_active(
        &mut self,
        superstep: usize,
        mine: usize,
    ) -> Result<usize, EngineError> {
        let Plane::Worker(link) = &mut self.plane else {
            return Ok(mine);
        };
        let from = link.rank();
        link.send(
            COORD,
            Payload::Frontier {
                from,
                superstep: superstep as u64,
                active: mine as u64,
            },
        )?;
        match link.recv_ctrl()? {
            Payload::FrontierTotal {
                superstep: s,
                active,
            } if s == superstep as u64 => Ok(active as usize),
            Payload::FrontierTotal { superstep: s, .. } => Err(protocol(format!(
                "frontier total for superstep {s} while voting on {superstep}"
            ))),
            other => Err(unexpected("FrontierTotal", &other)),
        }
    }

    /// Agree on the cluster-wide monoid-recompute sets: identity under
    /// [`Plane::Local`]; under [`Plane::Worker`], ship this worker's sets
    /// (sorted, for a canonical wire form) and receive the coordinator's
    /// union. Only set *content* must agree across peers — the recompute
    /// phase's folds are order-insensitive (reset + commutative min/max
    /// re-derivation).
    pub(crate) fn plane_union_recompute(
        &mut self,
        recompute: Vec<FxHashSet<VertexId>>,
    ) -> Result<Vec<FxHashSet<VertexId>>, EngineError> {
        let Plane::Worker(link) = &mut self.plane else {
            return Ok(recompute);
        };
        let from = link.rank();
        let sets: Vec<Vec<VertexId>> = recompute.into_iter().map(sorted).collect();
        link.send(COORD, Payload::RecomputeSets { from, sets })?;
        match link.recv_ctrl()? {
            Payload::RecomputeUnion { sets } => {
                Ok(sets.into_iter().map(|s| s.into_iter().collect()).collect())
            }
            other => Err(unexpected("RecomputeUnion", &other)),
        }
    }

    /// Worker plane: follow the coordinator through the globals round —
    /// join the recompute exchange if it decides on one, then adopt its
    /// reduced values and changed flag.
    pub(crate) fn plane_await_globals(
        &mut self,
        recompute: impl FnOnce(&mut Session) -> Result<(), EngineError>,
    ) -> Result<(Vec<Value>, bool), EngineError> {
        match self.worker_link().recv_ctrl()? {
            Payload::GlobalsDecision { recompute: true } => recompute(self)?,
            Payload::GlobalsDecision { recompute: false } => {}
            other => return Err(unexpected("GlobalsDecision", &other)),
        }
        match self.worker_link().recv_ctrl()? {
            Payload::GlobalsFinal { values, changed } => Ok((values, changed)),
            other => Err(unexpected("GlobalsFinal", &other)),
        }
    }

    /// Route contributions to their owners through the transport plane
    /// (partial pre-aggregation has already folded per-target within each
    /// sender). Each `(sender, buffer)` pair produces at most one
    /// [`Payload::Contribs`] frame per destination machine, plus exactly one
    /// [`Payload::GlobalsPartial`] to the coordinator. Net bytes are charged
    /// to the sender exactly as the pre-transport exchange did: per
    /// contribution wire size when `owner != sender`, and per global partial
    /// whenever it is non-identity.
    ///
    /// Returns the merged per-machine inbox and — on the local plane — the
    /// fully reduced global contributions. Workers get `None`: their
    /// partials are reduced by the coordinator.
    ///
    /// With `globals_only` (the global-recompute path), vertex frames are
    /// suppressed after charging: only the global partials travel.
    pub(crate) fn exchange(
        &mut self,
        buffers: Vec<(usize, AccBuffer)>,
        globals_only: bool,
    ) -> Result<(ExchangeInbox, Option<Vec<Contribution>>), EngineError> {
        let m = self.cfg.machines;
        let n_accms = self.layout.num_accms();
        for (w, buf) in buffers {
            // Route this sender's vertex contributions per destination.
            // Lane cells convert to the generic wire `Contribution` here,
            // once per target; the drain order of a specialized map equals
            // the generic map's (key insertion decides hash layout, the
            // value type does not), so the frames are byte-identical.
            let mut outgoing: Vec<Vec<Vec<(VertexId, Contribution)>>> =
                vec![vec![Vec::new(); n_accms]; m];
            let globals = buf.drain(&self.program.symbols.globals, |a, v, c| {
                let owner = self.graph.owner(v);
                if owner != w {
                    self.graph.partitions[w].stats.add_net(c.wire_bytes());
                }
                outgoing[owner][a].push((v, c));
            });
            for c in globals.iter() {
                if c.count != 0 || !c.retractions.is_empty() {
                    self.graph.partitions[w].stats.add_net(c.wire_bytes());
                }
            }
            let transport = self.transport_mut();
            if !globals_only {
                for (dst, vertex) in outgoing.into_iter().enumerate() {
                    if vertex.iter().all(|per_accm| per_accm.is_empty()) {
                        continue;
                    }
                    transport.send(
                        dst,
                        Payload::Contribs {
                            from: w as u32,
                            vertex,
                        },
                    )?;
                }
            }
            // The global partial always travels — even when identity — so
            // the coordinator's reduction folds a fixed machine set in a
            // fixed order (exact float-fold replay of the local plane).
            transport.send(
                COORD,
                Payload::GlobalsPartial {
                    from: w as u32,
                    globals,
                },
            )?;
        }

        self.barrier_seq += 1;
        let seq = self.barrier_seq;
        self.transport_mut().barrier(seq)?;
        let frames = self.transport_mut().drain_inbox();

        let mut inbox: ExchangeInbox = vec![vec![FxHashMap::default(); n_accms]; m];
        let mut contrib_frames: Vec<ContribFrame> = Vec::new();
        let mut partials: Vec<(u32, Vec<Contribution>)> = Vec::new();
        for (dst, payload) in frames {
            match payload {
                Payload::Contribs { from, vertex } => contrib_frames.push((dst, from, vertex)),
                Payload::GlobalsPartial { from, globals } if dst == COORD => {
                    partials.push((from, globals));
                }
                other => return Err(unexpected("Contribs/GlobalsPartial", &other)),
            }
        }
        // Merge frames in ascending sender order: one frame per
        // (sender, dst) pair, each frame's list in the sender's map
        // iteration order, replays the pre-transport insertion sequence.
        contrib_frames.sort_by_key(|&(_, from, _)| from);
        for (dst, _, vertex) in contrib_frames {
            for (a, list) in vertex.into_iter().enumerate() {
                let alg = Generic::of(&self.program.symbols.accms[a], true);
                for (v, c) in list {
                    alg.merge(inbox[dst][a].entry(v).or_insert_with(|| alg.identity()), &c);
                }
            }
        }
        let globals = match &self.plane {
            Plane::Worker(_) => {
                debug_assert!(partials.is_empty(), "workers never see global partials");
                None
            }
            _ => Some(reduce_partials(self.global_infos(), partials)?),
        };
        Ok((inbox, globals))
    }
}

/// A vertex set as an ascending list.
pub(crate) fn sorted(set: impl IntoIterator<Item = VertexId>) -> Vec<VertexId> {
    let mut rows: Vec<VertexId> = set.into_iter().collect();
    rows.sort_unstable();
    rows
}

/// The protocol error for a payload the state machine cannot accept here.
pub(crate) fn unexpected(want: &str, got: &Payload) -> EngineError {
    protocol(format!("expected {want}, got {}", got.kind()))
}
