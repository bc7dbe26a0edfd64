//! The superstep exchange and the control-plane arithmetic around it.
//!
//! [`Session::exchange`] routes pre-aggregated contributions to their
//! owners — on their typed lanes within this process, as wire frames to
//! another — and [`Session::sync`] is the one
//! collective every cross-rank agreement goes through. The reductions over
//! its parts — folding global partials in machine order, summing the
//! frontier, uniting recompute sets — are free functions here, written
//! once: every participant calls them on the same parts, so every plane
//! replays the same float-fold sequence.

use crate::accum::{AccBuffer, Contribution};
use crate::session::{protocol, EngineError, Plane, Session};
use crate::wire::{Part, Payload};
use itg_gsa::VertexId;

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

/// The cluster-wide monoid-recompute lists: the union of every rank's, per
/// accumulator, ascending. Only list *content* must agree across peers —
/// the recompute phase's folds are order-insensitive (reset + commutative
/// min/max re-derivation).
pub(crate) fn union_recompute(
    n_accms: usize,
    parts: Vec<Part>,
) -> Result<Vec<Vec<VertexId>>, EngineError> {
    let mut union = vec![Vec::new(); n_accms];
    for part in parts {
        match part {
            Part::Recompute(lists) if lists.len() == n_accms => {
                for (u, list) in union.iter_mut().zip(lists) {
                    *u = union_sorted(u, &list);
                }
            }
            Part::Recompute(_) => return Err(protocol("recompute set arity mismatch")),
            other => return Err(unexpected_part("Recompute", &other)),
        }
    }
    Ok(union)
}

/// The union of two ascending id lists, ascending, each id once.
pub(crate) fn union_sorted(a: &[VertexId], b: &[VertexId]) -> Vec<VertexId> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while let (Some(&x), Some(&y)) = (a.get(i), b.get(j)) {
        out.push(x.min(y));
        i += (x <= y) as usize;
        j += (y <= x) as usize;
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
    out
}

/// Drop from the ascending list `a` every id of the ascending list `b`.
pub(crate) fn remove_sorted(a: &mut Vec<VertexId>, b: &[VertexId]) {
    let mut j = 0;
    a.retain(|&v| {
        while b.get(j).is_some_and(|&x| x < v) {
            j += 1;
        }
        b.get(j) != Some(&v)
    });
}

impl Session {
    /// Join the next sync round with this plane's `part`; every rank's
    /// part comes back, in rank order (on [`Plane::Local`], just `part`).
    pub(crate) fn sync(&mut self, part: Part) -> Result<Vec<Part>, EngineError> {
        match &mut self.plane {
            Plane::Local => Ok(vec![part]),
            Plane::Worker(link) => Ok(link.sync(part)?),
            Plane::Coordinator(_) => unreachable!("the coordinator relays; it syncs nothing"),
        }
    }

    /// Route contributions to their owners (partial pre-aggregation has
    /// already folded per-target within each sender). A cell whose owner
    /// this plane drives stays on its typed lane; only a cell owned by
    /// another process is wired, in one [`Payload::Contribs`] frame per
    /// `(sender, destination machine)`. Every sender's global partial
    /// travels in this plane's part of the closing sync round. Net bytes
    /// are charged to the sender whether or not a cell is wired: its wire
    /// size when `owner != sender`, and a global partial's whenever it is
    /// non-identity. On [`Plane::Local`], which drives every machine, no
    /// cell leaves its lane, and with one machine the exchange passes over
    /// none: the one sender's buffer is the inbox as it stands.
    ///
    /// Returns the inbox — one pooled buffer over global ids holding every
    /// owned target's merged cells — and the fully reduced global cells,
    /// which every plane reduces from the same parts.
    ///
    /// With `globals_only` (the global-recompute path), vertex cells are
    /// dropped after charging: only the global partials travel, and the
    /// inbox comes back empty.
    pub(crate) fn exchange(
        &mut self,
        buffers: Vec<(usize, AccBuffer)>,
        globals_only: bool,
    ) -> Result<(AccBuffer, AccBuffer), EngineError> {
        let n_accms = self.layout.num_accms();
        let mut partials = Vec::with_capacity(buffers.len());
        let mut sources: Vec<(u32, Source)> = Vec::with_capacity(buffers.len());
        for (w, mut buf) in buffers {
            let (graph, owned) = (&self.graph, &self.owned);
            let stats = &graph.partitions[w].stats;
            // One pass charges every cell and converts those owned in
            // another process to their wire `Contribution`, in target
            // order: every frame is sorted by vertex. With one machine
            // every owner is the sender, so the pass is skipped.
            let mut outgoing: Vec<Vec<Vec<(VertexId, Contribution)>>> =
                vec![vec![Vec::new(); n_accms]; self.cfg.machines];
            if self.cfg.machines > 1 {
                let leaves = |v, bytes| {
                    if graph.owner(v) != w {
                        stats.add_net(bytes);
                    }
                    !globals_only && !owned.contains(&graph.owner(v))
                };
                buf.drain(leaves, |a, v, c| outgoing[graph.owner(v)][a].push((v, c)));
            }
            let globals = buf.drain_globals();
            for c in globals.iter() {
                if c.count != 0 || !c.retractions.is_empty() {
                    stats.add_net(c.wire_bytes());
                }
            }
            if globals_only {
                drop(buf.take_run());
            }
            for (dst, vertex) in outgoing.into_iter().enumerate() {
                if vertex.iter().any(|per_accm| !per_accm.is_empty()) {
                    let Plane::Worker(link) = &mut self.plane else {
                        unreachable!("a plane that drives every machine wires nothing")
                    };
                    link.send(dst, Payload::Contribs { from: w as u32, vertex })?;
                }
            }
            // The global partial always travels — even when identity — so
            // the reduction folds a fixed machine set in a fixed order.
            partials.push((w as u32, globals));
            sources.push((w as u32, Source::Own(buf)));
        }

        let parts = self.sync(Part::Partials(partials))?;
        if let Plane::Worker(link) = &mut self.plane {
            for (_, payload) in link.drain_inbox() {
                let Payload::Contribs { from, vertex } = payload else {
                    return Err(unexpected("Contribs", &payload));
                };
                sources.push((from, Source::Frame(vertex)));
            }
        }
        // Fold every sender into one inbox in ascending sender order — an
        // owned sender's buffer as a run, a remote sender's frames cell by
        // cell — by the rule chunk runs fold by: the first source's cells
        // are moved in (an owned buffer *is* the inbox), every later
        // source's merged onto the running cell or onto the identity.
        sources.sort_by_key(|&(from, _)| from);
        let mut inbox: Option<AccBuffer> = None;
        for (_, source) in sources {
            match source {
                Source::Own(buf) if inbox.is_none() => inbox = Some(buf),
                Source::Own(mut buf) => {
                    let into = inbox.as_mut().expect("an earlier source");
                    into.fold_run(buf.take_run(), false);
                    self.buffers.put(buf);
                }
                Source::Frame(vertex) => {
                    let into = inbox.get_or_insert_with(|| self.scratch_buffer());
                    for (a, list) in vertex.iter().enumerate() {
                        list.iter().for_each(|(v, c)| into.receive_vertex(a, *v, c));
                    }
                }
            }
        }
        let inbox = inbox.unwrap_or_else(|| self.scratch_buffer());
        Ok((inbox, reduce_partials(self.new_buffer(), parts)?))
    }
}

/// One sender's cells for this plane's inbox.
enum Source {
    /// An owned machine's buffer, its remote cells drained.
    Own(AccBuffer),
    /// A remote machine's frame: per accumulator, `(target, cell)` pairs.
    Frame(Vec<Vec<(VertexId, Contribution)>>),
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
