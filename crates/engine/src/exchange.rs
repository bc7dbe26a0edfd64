//! The superstep exchange and the control-plane arithmetic around it.
//!
//! [`Session::exchange`] routes pre-aggregated contributions to their
//! owners through the transport plane, and [`Session::sync`] is the one
//! collective every cross-rank agreement goes through. The reductions over
//! its parts — folding global partials in machine order, settling a global
//! from its delta, summing the frontier, uniting recompute sets — are free
//! functions here, written once: every participant calls them on the same
//! parts, so every plane replays the same float-fold sequence.

use crate::accum::{AccBuffer, Contribution, Generic, Maintain};
use crate::session::{protocol, EngineError, Plane, Session};
use crate::transport::Transport;
use crate::wire::{Part, Payload};
use itg_gsa::value::Value;
use itg_gsa::{FxHashMap, FxHashSet, VertexId};
use itg_lnga::AccmInfo;

/// Per-destination-machine, per-accumulator merged contributions after a
/// superstep exchange: `inbox[dst][accm][vertex]`.
pub(crate) type ExchangeInbox = Vec<Vec<FxHashMap<VertexId, Contribution>>>;

/// One undelivered vertex frame awaiting the deterministic sender-order
/// merge: `(dst machine, sender machine, per-accumulator contributions)`.
type ContribFrame = (usize, u32, Vec<Vec<(VertexId, Contribution)>>);

/// Reduce one exchange's global partials — every rank's
/// [`Part::Partials`], one per machine — in ascending machine order: the
/// float-fold sequence every plane must replay.
pub(crate) fn reduce_partials(
    infos: &[AccmInfo],
    parts: Vec<Part>,
) -> Result<Vec<Contribution>, EngineError> {
    let mut partials: Vec<(u32, Vec<Contribution>)> = Vec::new();
    for part in parts {
        match part {
            Part::Partials(p) => partials.extend(p),
            other => return Err(unexpected_part("Partials", &other)),
        }
    }
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

/// The cluster-wide active-vertex count: the sum of every rank's vote.
pub(crate) fn total_active(parts: Vec<Part>) -> Result<usize, EngineError> {
    let mut total = 0u64;
    for part in parts {
        match part {
            Part::Active(n) => total += n,
            other => return Err(unexpected_part("Active", &other)),
        }
    }
    Ok(total as usize)
}

/// The cluster-wide monoid-recompute sets: the union of every rank's, per
/// accumulator. Only set *content* must agree across peers — the
/// recompute phase's folds are order-insensitive (reset + commutative
/// min/max re-derivation).
pub(crate) fn union_recompute(
    n_accms: usize,
    parts: Vec<Part>,
) -> Result<Vec<FxHashSet<VertexId>>, EngineError> {
    let mut union = vec![FxHashSet::default(); n_accms];
    for part in parts {
        match part {
            Part::Recompute(sets) if sets.len() == n_accms => {
                for (u, set) in union.iter_mut().zip(sets) {
                    u.extend(set);
                }
            }
            Part::Recompute(_) => return Err(protocol("recompute set arity mismatch")),
            other => return Err(unexpected_part("Recompute", &other)),
        }
    }
    Ok(union)
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

    /// Join the next sync round with this plane's `part`; every rank's
    /// part comes back, in rank order (on [`Plane::Local`], just `part`).
    pub(crate) fn sync(&mut self, part: Part) -> Result<Vec<Part>, EngineError> {
        Ok(self.transport_mut().sync(part)?)
    }

    /// Route contributions to their owners through the transport plane
    /// (partial pre-aggregation has already folded per-target within each
    /// sender). Each `(sender, buffer)` pair produces at most one
    /// [`Payload::Contribs`] frame per destination machine, and one global
    /// partial in this plane's part of the closing sync round. Net bytes
    /// are charged to the sender exactly as the pre-transport exchange did:
    /// per contribution wire size when `owner != sender`, and per global
    /// partial whenever it is non-identity.
    ///
    /// Returns the merged per-machine inbox and the fully reduced global
    /// contributions, which every plane reduces from the same parts.
    ///
    /// With `globals_only` (the global-recompute path), vertex frames are
    /// suppressed after charging: only the global partials travel.
    pub(crate) fn exchange(
        &mut self,
        buffers: Vec<(usize, AccBuffer)>,
        globals_only: bool,
    ) -> Result<(ExchangeInbox, Vec<Contribution>), EngineError> {
        let m = self.cfg.machines;
        let n_accms = self.layout.num_accms();
        let mut partials = Vec::with_capacity(buffers.len());
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
            if !globals_only {
                for (dst, vertex) in outgoing.into_iter().enumerate() {
                    if vertex.iter().all(|per_accm| per_accm.is_empty()) {
                        continue;
                    }
                    self.transport_mut().send(
                        dst,
                        Payload::Contribs {
                            from: w as u32,
                            vertex,
                        },
                    )?;
                }
            }
            // The global partial always travels — even when identity — so
            // the reduction folds a fixed machine set in a fixed order.
            partials.push((w as u32, globals));
        }

        let parts = self.sync(Part::Partials(partials))?;
        let frames = self.transport_mut().drain_inbox();

        let mut inbox: ExchangeInbox = vec![vec![FxHashMap::default(); n_accms]; m];
        let mut contrib_frames: Vec<ContribFrame> = Vec::new();
        for (dst, payload) in frames {
            match payload {
                Payload::Contribs { from, vertex } => contrib_frames.push((dst, from, vertex)),
                other => return Err(unexpected("Contribs", &other)),
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
        Ok((inbox, reduce_partials(self.global_infos(), parts)?))
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

/// The protocol error for a sync part of the wrong kind: the ranks are not
/// running the same schedule.
fn unexpected_part(want: &str, got: &Part) -> EngineError {
    protocol(format!(
        "expected {want} parts in a sync round, got {}",
        got.kind()
    ))
}
