//! Graph mutation batches ΔG_t: edge insertions and deletions.

use itg_gsa::VertexId;

/// One edge mutation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EdgeMutation {
    pub src: VertexId,
    pub dst: VertexId,
    /// +1 for insertion, −1 for deletion (the stream multiplicity model).
    pub mult: i8,
}

impl EdgeMutation {
    pub fn insert(src: VertexId, dst: VertexId) -> EdgeMutation {
        EdgeMutation { src, dst, mult: 1 }
    }

    pub fn delete(src: VertexId, dst: VertexId) -> EdgeMutation {
        EdgeMutation { src, dst, mult: -1 }
    }

    pub fn is_insert(&self) -> bool {
        self.mult > 0
    }
}

/// A batch of mutations applied atomically as one snapshot transition
/// `G_{t-1} → G_t`.
///
/// Internally the batch is stored *partitioned*: all insertions first
/// (in their original relative order), then all deletions, with the
/// partition point cached. [`MutationBatch::inserts`] and
/// [`MutationBatch::deletes`] are therefore O(1) slices rather than
/// full-batch filters — the WAL encoder and receipt/LSN accounting walk
/// them without rescanning. The partition is stable, so relative order
/// within each class is preserved; stores consolidate before ingesting
/// (see [`MutationBatch::consolidated`]), so inter-class order carries
/// no meaning.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MutationBatch {
    edges: Vec<EdgeMutation>,
    /// `edges[..n_inserts]` are insertions, `edges[n_inserts..]` deletions.
    n_inserts: usize,
}

impl MutationBatch {
    pub fn new(edges: Vec<EdgeMutation>) -> MutationBatch {
        let mut ins: Vec<EdgeMutation> = Vec::with_capacity(edges.len());
        let mut del: Vec<EdgeMutation> = Vec::new();
        for e in edges {
            if e.is_insert() {
                ins.push(e);
            } else {
                del.push(e);
            }
        }
        let n_inserts = ins.len();
        ins.extend_from_slice(&del);
        MutationBatch { edges: ins, n_inserts }
    }

    pub fn len(&self) -> usize {
        self.edges.len()
    }

    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }

    /// All mutations, insertions first (see the type-level invariant).
    pub fn edges(&self) -> &[EdgeMutation] {
        &self.edges
    }

    /// The insertion prefix; O(1), no rescan.
    pub fn inserts(&self) -> impl Iterator<Item = &EdgeMutation> {
        self.edges[..self.n_inserts].iter()
    }

    /// The deletion suffix; O(1), no rescan.
    pub fn deletes(&self) -> impl Iterator<Item = &EdgeMutation> {
        self.edges[self.n_inserts..].iter()
    }

    /// How many mutations are insertions, without iterating.
    pub fn num_inserts(&self) -> usize {
        self.n_inserts
    }

    /// How many mutations are deletions, without iterating.
    pub fn num_deletes(&self) -> usize {
        self.edges.len() - self.n_inserts
    }

    /// For undirected graphs: mirror every mutation so both directions are
    /// present (the paper models an undirected graph as a directed graph
    /// with edge pairs, §4).
    pub fn mirrored(&self) -> MutationBatch {
        let mut edges = Vec::with_capacity(self.edges.len() * 2);
        for e in &self.edges {
            edges.push(*e);
            edges.push(EdgeMutation {
                src: e.dst,
                dst: e.src,
                mult: e.mult,
            });
        }
        MutationBatch::new(edges)
    }

    /// The largest vertex id referenced, if any.
    pub fn max_vertex(&self) -> Option<VertexId> {
        self.edges.iter().map(|e| e.src.max(e.dst)).max()
    }

    /// Serialize to the little-endian layout of a batch entry's body — in a
    /// WAL record and in the engine's wire command alike (see
    /// [`crate::wal::WalEntry::put_body`]):
    /// `[count: u64][src: u64, dst: u64, mult: i8]*`. Mutations are
    /// emitted in stored (partitioned) order, so encode∘decode is the
    /// identity on the canonical form.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(8 + self.edges.len() * 17);
        out.extend_from_slice(&(self.edges.len() as u64).to_le_bytes());
        for e in &self.edges {
            out.extend_from_slice(&e.src.to_le_bytes());
            out.extend_from_slice(&e.dst.to_le_bytes());
            out.push(e.mult as u8);
        }
        out
    }

    /// Decode the [`MutationBatch::encode`] layout; `None` on a length
    /// mismatch or trailing bytes.
    pub fn decode(bytes: &[u8]) -> Option<MutationBatch> {
        let count = u64::from_le_bytes(bytes.get(0..8)?.try_into().ok()?) as usize;
        let body = &bytes[8..];
        if body.len() != count.checked_mul(17)? {
            return None;
        }
        let mut edges = Vec::with_capacity(count);
        for rec in body.chunks_exact(17) {
            edges.push(EdgeMutation {
                src: u64::from_le_bytes(rec[0..8].try_into().ok()?),
                dst: u64::from_le_bytes(rec[8..16].try_into().ok()?),
                mult: rec[16] as i8,
            });
        }
        Some(MutationBatch::new(edges))
    }

    /// Consolidate to net multiplicities per edge: an insert and a delete
    /// of the same edge within one batch cancel (the ±1 multiset model),
    /// and duplicates collapse to a single ±1 mutation. Stores ingest the
    /// consolidated form so the delta stream is a canonical multiset.
    pub fn consolidated(&self) -> MutationBatch {
        let mut sorted = self.edges.clone();
        sorted.sort_unstable_by_key(|e| (e.src, e.dst));
        let edges = sorted
            .chunk_by(|a, b| (a.src, a.dst) == (b.src, b.dst))
            .filter_map(|run| {
                let net: i64 = run.iter().map(|e| e.mult as i64).sum();
                let (src, dst) = (run[0].src, run[0].dst);
                (net != 0).then_some(EdgeMutation { src, dst, mult: net.signum() as i8 })
            })
            .collect();
        MutationBatch::new(edges)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mirrored_doubles_and_flips() {
        let b = MutationBatch::new(vec![
            EdgeMutation::insert(1, 2),
            EdgeMutation::delete(3, 4),
        ]);
        let m = b.mirrored();
        assert_eq!(m.len(), 4);
        assert!(m.edges().contains(&EdgeMutation::insert(2, 1)));
        assert!(m.edges().contains(&EdgeMutation::delete(4, 3)));
        assert_eq!(m.inserts().count(), 2);
        assert_eq!(m.deletes().count(), 2);
        assert_eq!(m.num_inserts(), 2);
        assert_eq!(m.num_deletes(), 2);
        assert_eq!(m.max_vertex(), Some(4));
    }

    #[test]
    fn partition_is_stable_and_cached() {
        let b = MutationBatch::new(vec![
            EdgeMutation::delete(9, 9),
            EdgeMutation::insert(1, 2),
            EdgeMutation::delete(5, 6),
            EdgeMutation::insert(3, 4),
        ]);
        // Insertions first, each class in original relative order.
        assert_eq!(
            b.edges(),
            &[
                EdgeMutation::insert(1, 2),
                EdgeMutation::insert(3, 4),
                EdgeMutation::delete(9, 9),
                EdgeMutation::delete(5, 6),
            ]
        );
        assert_eq!(b.num_inserts(), 2);
        assert_eq!(b.num_deletes(), 2);
        assert!(b.inserts().all(|e| e.is_insert()));
        assert!(b.deletes().all(|e| !e.is_insert()));
    }

    #[test]
    fn encode_roundtrips() {
        let b = MutationBatch::new(vec![
            EdgeMutation::insert(0, u64::MAX),
            EdgeMutation::delete(7, 3),
        ]);
        assert_eq!(MutationBatch::decode(&b.encode()), Some(b.clone()));
        // encode∘decode∘encode is the identity (canonical form).
        assert_eq!(MutationBatch::decode(&b.encode()).unwrap().encode(), b.encode());
        let empty = MutationBatch::default();
        assert_eq!(MutationBatch::decode(&empty.encode()), Some(empty));
    }

    #[test]
    fn decode_rejects_corruption() {
        let bytes = MutationBatch::new(vec![EdgeMutation::insert(1, 2)]).encode();
        assert_eq!(MutationBatch::decode(&bytes[..bytes.len() - 1]), None);
        let mut trailing = bytes.clone();
        trailing.push(0);
        assert_eq!(MutationBatch::decode(&trailing), None);
        assert_eq!(MutationBatch::decode(&[]), None);
    }
}
