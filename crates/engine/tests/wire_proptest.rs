//! Property tests for the versioned wire format: every [`Payload`] the
//! transports exchange must round-trip through `encode_payload` /
//! `decode_payload` losslessly, re-encode to byte-identical frames (the
//! canonical-form property the coordinator's zero-copy relay path relies
//! on), and never panic on truncated input. Includes the edge cases the
//! protocol actually produces: empty inboxes (all-empty `Contribs`
//! vectors) and maximum-size frontier votes — and the ones it must
//! survive: element counts no frame could hold decode to a typed error.
//!
//! The connection handshake (`Hello`/`Accept`/`Reject`) gets the same
//! treatment, plus its rejection contract: truncation, a skewed wire
//! version, and corrupt magic must all decode to clean errors — the
//! coordinator turns those into loud admission refusals, never a hang.

use itg_engine::accum::Contribution;
use itg_engine::wire::{
    cluster_fingerprint, decode_handshake, decode_payload, encode_handshake,
    encode_handshake_versioned, encode_payload, read_frame, write_frame_bytes, Handshake, Part,
    RunDoneStats, WireError, FINGERPRINT_ANY, WIRE_VERSION,
};
use itg_engine::Payload;
use itg_gsa::{Value, VertexId};
use itg_store::wal::WalEntry;
use itg_store::{EdgeMutation, IoSnapshot, MutationBatch};
use proptest::collection::vec;
use proptest::prelude::*;
use proptest::strategy::Strategy;

// The vendored proptest has no `prop_oneof`; variants are selected by an
// index drawn alongside all the ingredients.

fn arb_prim_value() -> impl Strategy<Value = Value> {
    (0usize..5, any::<u64>(), any::<f64>()).prop_map(|(k, bits, f)| match k {
        0 => Value::Bool(bits & 1 == 1),
        1 => Value::Int(bits as i32),
        2 => Value::Long(bits as i64),
        // `any::<f64>()` draws from [0, 1): always finite, so `Value`'s
        // IEEE equality is reflexive for the equality half of the
        // property. The NaN unit test below covers byte-stability.
        3 => Value::Float(f as f32),
        _ => Value::Double(f),
    })
}

fn arb_value() -> impl Strategy<Value = Value> {
    (0usize..5, arb_prim_value(), vec(arb_prim_value(), 0..4)).prop_map(|(k, prim, arr)| {
        if k == 0 {
            Value::Array(arr)
        } else {
            prim
        }
    })
}

fn arb_contribution() -> impl Strategy<Value = Contribution> {
    (
        arb_value(),
        any::<i64>(),
        (any::<bool>(), arb_value(), any::<u64>()),
        vec(arb_value(), 0..3),
    )
        .prop_map(|(folded, count, (has_monoid, mv, mc), retractions)| Contribution {
            folded,
            count,
            monoid: has_monoid.then_some((mv, mc)),
            retractions,
        })
}

fn arb_vertex_contribs() -> impl Strategy<Value = Vec<Vec<(VertexId, Contribution)>>> {
    vec(vec((any::<VertexId>(), arb_contribution()), 0..4), 0..3)
}

fn arb_sets() -> impl Strategy<Value = Vec<Vec<VertexId>>> {
    vec(vec(any::<VertexId>(), 0..5), 0..3)
}

fn arb_mutation() -> impl Strategy<Value = EdgeMutation> {
    (any::<VertexId>(), any::<VertexId>(), any::<bool>()).prop_map(|(src, dst, ins)| {
        if ins {
            EdgeMutation::insert(src, dst)
        } else {
            EdgeMutation::delete(src, dst)
        }
    })
}

fn arb_part() -> impl Strategy<Value = Part> {
    (
        0usize..3,
        vec((any::<u32>(), vec(arb_contribution(), 0..3)), 0..3),
        any::<u64>(),
        arb_sets(),
    )
        .prop_map(|(k, partials, active, sets)| match k {
            0 => Part::Partials(partials),
            1 => Part::Active(active),
            _ => Part::Recompute(sets),
        })
}

fn arb_stats() -> impl Strategy<Value = RunDoneStats> {
    vec(any::<u64>(), 14..15).prop_map(|n| RunDoneStats {
        work_units: n[0],
        recomputed: n[1],
        phases: n[2],
        chunks: n[3],
        max_worker_units: n[4],
        min_worker_units: n[5],
        io: IoSnapshot {
            disk_read_bytes: n[6],
            disk_write_bytes: n[7],
            page_reads: n[8],
            page_hits: n[9],
            net_bytes: n[10],
            walks_enumerated: n[11],
            recomputations: n[12],
            ..IoSnapshot::default()
        },
        frames: n[13],
    })
}

fn arb_payload() -> impl Strategy<Value = Payload> {
    (
        0usize..10,
        (any::<u32>(), any::<u64>()),
        (arb_vertex_contribs(), arb_part(), vec(arb_part(), 0..3)),
        (
            vec(vec(arb_value(), 0..3), 0..3),
            vec(arb_mutation(), 0..6),
            arb_stats(),
        ),
    )
        .prop_map(
            |(k, (from, seq), (vertex, part, parts), (globals, muts, stats))| match k {
                0 => Payload::Command(WalEntry::OneshotRun),
                1 => Payload::Command(WalEntry::IncrementalRun),
                2 => Payload::Command(WalEntry::Compact),
                3 => Payload::Command(WalEntry::Batch(MutationBatch::new(muts))),
                4 => Payload::Shutdown,
                5 => Payload::Hello { rank: from },
                6 => Payload::Contribs { from, vertex },
                7 => Payload::Sync { from, seq, part },
                8 => Payload::Release { seq, parts },
                _ => Payload::RunDone {
                    from,
                    globals,
                    stats,
                },
            },
        )
}

fn arb_handshake() -> impl Strategy<Value = Handshake> {
    (0usize..3, any::<u32>(), any::<u64>(), vec(any::<u8>(), 0..24)).prop_map(
        |(k, rank, fingerprint, reason)| match k {
            0 => Handshake::Hello { rank, fingerprint },
            1 => Handshake::Accept { rank, fingerprint },
            _ => Handshake::Reject {
                reason: String::from_utf8_lossy(&reason).into_owned(),
            },
        },
    )
}

proptest! {
    /// Lossless round-trip plus canonical re-encoding for every payload.
    #[test]
    fn payload_roundtrips_and_reencodes_identically(p in arb_payload()) {
        let bytes = encode_payload(&p);
        let back = decode_payload(&bytes).expect("generated payloads decode");
        prop_assert_eq!(&back, &p);
        prop_assert_eq!(encode_payload(&back), bytes);
    }

    /// Truncating an encoded payload never panics the decoder — and a
    /// stream of frames carrying it, cut at every offset, reads as whole
    /// frames followed by a clean end iff the cut is on a frame boundary,
    /// an error otherwise; never a short frame.
    #[test]
    fn truncated_payloads_never_panic(p in arb_payload(), cut in 0usize..64) {
        let bytes = encode_payload(&p);
        let cut = cut.min(bytes.len());
        let _ = decode_payload(&bytes[..cut]);

        let mut stream = Vec::new();
        let mut boundaries = vec![0];
        for dst in [0xFFFE, 7, 0xFFFF] {
            write_frame_bytes(&mut stream, dst, &bytes).unwrap();
            boundaries.push(stream.len());
        }
        for cut in 0..=stream.len() {
            let mut input = &stream[..cut];
            let mut whole = 0;
            let end = loop {
                match read_frame(&mut input) {
                    Ok(Some((_, body))) => {
                        prop_assert_eq!(&body, &bytes);
                        whole += 1;
                    }
                    end => break end,
                }
            };
            prop_assert_eq!(whole, boundaries.iter().filter(|&&b| 0 < b && b <= cut).count());
            prop_assert_eq!(end.is_ok(), boundaries.contains(&cut), "cut at {}", cut);
        }
    }

    /// Frontier votes cover the full `u64` range (the "max-size frontier"
    /// case: a vote of `u64::MAX` active vertices must survive the wire),
    /// in a rank's `Sync` and in the hub's `Release` alike.
    #[test]
    fn frontier_votes_roundtrip_across_the_range(
        from in any::<u32>(),
        pick in 0usize..3,
        raw in any::<u64>(),
    ) {
        let active = match pick {
            0 => 0,
            1 => u64::MAX,
            _ => raw,
        };
        let p = Payload::Sync { from, seq: raw, part: Part::Active(active) };
        prop_assert_eq!(decode_payload(&encode_payload(&p)).unwrap(), p);
        let parts = vec![Part::Active(active), Part::Active(raw)];
        let t = Payload::Release { seq: u64::MAX, parts };
        prop_assert_eq!(decode_payload(&encode_payload(&t)).unwrap(), t);
    }

    /// A `Sync` or `Release` whose element count is `u32::MAX` or
    /// `u64::MAX` — a count no frame could hold — decodes to a typed
    /// error: no panic, and no allocation sized by the count. Each case
    /// overwrites one count field of a well-formed frame in place.
    #[test]
    fn oversized_sync_counts_are_typed_errors(seq in any::<u64>(), case in 0usize..5) {
        // (payload, offset of the count field, its width in bytes).
        let header = 4; // magic, version, tag
        let sync = |part| Payload::Sync { from: 1, seq, part };
        let (p, at, width) = match case {
            // The parts of a release.
            0 => (Payload::Release { seq, parts: Vec::new() }, header + 8, 4),
            // The machines of a partials part.
            1 => (sync(Part::Partials(Vec::new())), header + 12 + 1, 4),
            // The contributions of one machine's partials.
            2 => (sync(Part::Partials(vec![(0, Vec::new())])), header + 12 + 1 + 4 + 4, 4),
            // The accumulators of a recompute part.
            3 => (sync(Part::Recompute(Vec::new())), header + 12 + 1, 4),
            // The vertices of one recompute set.
            _ => (sync(Part::Recompute(vec![Vec::new()])), header + 12 + 1 + 4, 8),
        };
        let mut bytes = encode_payload(&p);
        bytes[at..at + width].fill(0xFF);
        prop_assert_eq!(decode_payload(&bytes), Err(WireError::Truncated));
    }

    /// Lossless round-trip plus canonical re-encoding for every
    /// handshake message.
    #[test]
    fn handshake_roundtrips_and_reencodes_identically(h in arb_handshake()) {
        let bytes = encode_handshake(&h);
        let back = decode_handshake(&bytes).expect("generated handshakes decode");
        prop_assert_eq!(&back, &h);
        prop_assert_eq!(encode_handshake(&back), bytes);
    }

    /// A truncated hello (or any handshake) is a clean error, never a
    /// panic or a bogus accept.
    #[test]
    fn truncated_handshakes_are_clean_errors(h in arb_handshake(), cut in 0usize..40) {
        let bytes = encode_handshake(&h);
        let cut = cut.min(bytes.len().saturating_sub(1));
        prop_assert!(decode_handshake(&bytes[..cut]).is_err());
    }

    /// A handshake from a build with a different wire version decodes to
    /// an error; only our own version is admitted.
    #[test]
    fn skewed_wire_versions_are_rejected(h in arb_handshake(), ver in any::<u8>()) {
        let bytes = encode_handshake_versioned(&h, ver);
        let got = decode_handshake(&bytes);
        if ver == WIRE_VERSION {
            prop_assert!(got.is_ok());
        } else {
            prop_assert!(got.is_err());
        }
    }

    /// Corrupting the magic bytes is always detected.
    #[test]
    fn corrupt_handshake_magic_is_rejected(h in arb_handshake(), magic in any::<u16>()) {
        let mut bytes = encode_handshake(&h);
        bytes[..2].copy_from_slice(&magic.to_le_bytes());
        if magic == 0xA17D {
            prop_assert!(decode_handshake(&bytes).is_ok());
        } else {
            prop_assert!(decode_handshake(&bytes).is_err());
        }
    }
}

/// The cluster fingerprint separates clusters that differ in any identity
/// input and never collides with the pre-bootstrap "unknown" sentinel.
#[test]
fn cluster_fingerprint_separates_identities() {
    let base = cluster_fingerprint(4, 2, "Vertex (id)", 100, true);
    assert_ne!(base, FINGERPRINT_ANY);
    for other in [
        cluster_fingerprint(3, 2, "Vertex (id)", 100, true),
        cluster_fingerprint(4, 1, "Vertex (id)", 100, true),
        cluster_fingerprint(4, 2, "Vertex (id, x)", 100, true),
        cluster_fingerprint(4, 2, "Vertex (id)", 101, true),
        cluster_fingerprint(4, 2, "Vertex (id)", 100, false),
    ] {
        assert_ne!(base, other);
    }
    // Deterministic: the same identity always fingerprints the same.
    assert_eq!(base, cluster_fingerprint(4, 2, "Vertex (id)", 100, true));
}

/// An exchange with nothing to say — the empty inbox every converged
/// superstep produces — still crosses the wire as a well-formed frame.
#[test]
fn empty_inbox_contribs_roundtrip() {
    for vertex in [Vec::new(), vec![Vec::new(), Vec::new()]] {
        let p = Payload::Contribs { from: 3, vertex };
        let bytes = encode_payload(&p);
        assert_eq!(decode_payload(&bytes).unwrap(), p);
        assert_eq!(encode_payload(&decode_payload(&bytes).unwrap()), bytes);
    }
    let p = Payload::Sync {
        from: 0,
        seq: 1,
        part: Part::Partials(vec![(0, Vec::new())]),
    };
    assert_eq!(decode_payload(&encode_payload(&p)).unwrap(), p);
}

/// NaN payloads are not equal to themselves, but their encoding is still
/// byte-stable through a decode/re-encode cycle.
#[test]
fn nan_values_are_byte_stable() {
    let nan = Value::Double(f64::NAN);
    let partial = Contribution {
        folded: nan.clone(),
        count: 1,
        monoid: Some((Value::Float(f32::NAN), 1)),
        retractions: vec![nan.clone()],
    };
    for p in [
        Payload::Sync {
            from: 0,
            seq: 3,
            part: Part::Partials(vec![(0, vec![partial])]),
        },
        Payload::RunDone {
            from: 0,
            globals: vec![vec![nan, Value::Float(f32::NAN)]],
            stats: RunDoneStats {
                work_units: 0,
                recomputed: 0,
                phases: 0,
                chunks: 0,
                max_worker_units: 0,
                min_worker_units: 0,
                io: IoSnapshot::default(),
                frames: 0,
            },
        },
    ] {
        let bytes = encode_payload(&p);
        let back = decode_payload(&bytes).unwrap();
        assert_eq!(encode_payload(&back), bytes);
    }
}
