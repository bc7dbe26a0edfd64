//! The superstep exchange and the control-plane arithmetic around it.
//!
//! [`Session::exchange`] routes pre-aggregated contributions to their
//! owners through the transport plane, and [`Session::sync`] is the one
//! collective every cross-rank agreement goes through. The reductions over
//! its parts — folding global partials in machine order, summing the
//! frontier, uniting recompute sets — are free functions here, written
//! once: every participant calls them on the same parts, so every plane
//! replays the same float-fold sequence.

use crate::accum::{AccBuffer, Contribution};
use crate::session::{protocol, EngineError, Plane, Session};
use crate::transport::Transport;
use crate::wire::{Part, Payload};
use itg_gsa::{FxHashSet, VertexId};

/// Per-destination-machine merged contributions after a superstep
/// exchange: each owned machine's cells, on the accumulators' own lanes,
/// in a pooled buffer that settling returns (a machine this plane does not
/// own, or a globals-only exchange, gets an empty unpooled one).
pub(crate) type ExchangeInbox = Vec<AccBuffer>;

/// Reduce one exchange's global partials — every rank's
/// [`Part::Partials`], one per machine — into `out`'s global cells in
/// ascending machine order: the float-fold sequence every plane must
/// replay.
pub(crate) fn reduce_partials(
    mut out: AccBuffer,
    parts: Vec<Part>,
) -> Result<AccBuffer, EngineError> {
    let mut partials: Vec<(u32, Vec<Contribution>)> = Vec::new();
    for part in parts {
        match part {
            Part::Partials(p) => partials.extend(p),
            other => return Err(unexpected_part("Partials", &other)),
        }
    }
    partials.sort_by_key(|&(from, _)| from);
    for (_, gs) in partials {
        if !out.receive_globals(&gs) {
            return Err(protocol("global partial arity mismatch"));
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
    /// cells, which every plane reduces from the same parts.
    ///
    /// With `globals_only` (the global-recompute path), vertex frames are
    /// suppressed after charging: only the global partials travel.
    pub(crate) fn exchange(
        &mut self,
        buffers: Vec<(usize, AccBuffer)>,
        globals_only: bool,
    ) -> Result<(ExchangeInbox, AccBuffer), EngineError> {
        let m = self.cfg.machines;
        let n_accms = self.layout.num_accms();
        let mut partials = Vec::with_capacity(buffers.len());
        for (w, mut buf) in buffers {
            // Route this sender's vertex contributions per destination.
            // Lane cells convert to their wire `Contribution` here, once
            // per target, in target order: every frame is sorted by vertex.
            let mut outgoing: Vec<Vec<Vec<(VertexId, Contribution)>>> =
                vec![vec![Vec::new(); n_accms]; m];
            let globals = buf.drain(|a, v, c| {
                let owner = self.graph.owner(v);
                if owner != w {
                    self.graph.partitions[w].stats.add_net(c.wire_bytes());
                }
                outgoing[owner][a].push((v, c));
            });
            self.buffers.put(buf);
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
        // Merge frames into each destination's lane cells in ascending
        // sender order — one frame per (sender, dst) pair, each holding a
        // target once per accumulator — so every cell folds the senders'
        // cells onto the identity in machine order.
        let mut frames = self.transport_mut().drain_inbox();
        frames.sort_by_key(|(_, payload)| match payload {
            Payload::Contribs { from, .. } => *from,
            _ => u32::MAX,
        });
        let inbox = |w| match self.owned.contains(&w) && !globals_only {
            true => self.scratch_buffer(),
            false => self.new_buffer(),
        };
        let mut inbox: ExchangeInbox = (0..m).map(inbox).collect();
        for (dst, payload) in frames {
            let Payload::Contribs { vertex, .. } = payload else {
                return Err(unexpected("Contribs", &payload));
            };
            for (a, list) in vertex.iter().enumerate() {
                list.iter().for_each(|(v, c)| inbox[dst].receive_vertex(a, *v, c));
            }
        }
        Ok((inbox, reduce_partials(self.new_buffer(), parts)?))
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
