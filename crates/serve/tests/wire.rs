//! Wire-codec contract tests: every frame class round-trips
//! byte-exactly, and every way a frame can be wrong — truncation,
//! corruption, oversized length prefixes, unknown tags, trailing bytes
//! — is rejected as a typed error, never a panic or a misdecode.

use cpd_serve::wire::{
    encode_request, encode_response, read_request, read_response, write_request, RequestFrame,
    ResponseFrame, WireError, FRAME_HEADER_LEN, MAX_FRAME_PAYLOAD, WIRE_VERSION,
};
use cpd_serve::{
    FoldInItem, FoldedProfile, HealthState, HealthStatus, KeepReason, QueryRequest, QueryResponse,
    SpanRecord, Trace, TraceContext,
};
use proptest::prelude::*;
use social_graph::{UserId, WordId};

// ---------------------------------------------------------------------
// Generators (ingredient tuples; the match in the test body picks the
// variant, so every round-trip case covers one of each class).
// ---------------------------------------------------------------------

/// Build the `variant`-th request class from generic ingredients.
fn build_request(
    variant: usize,
    words: Vec<u32>,
    docs: Vec<Vec<u32>>,
    ids: (u32, u32),
    sizes: (usize, usize, usize),
    seed: u64,
) -> QueryRequest {
    let words: Vec<WordId> = words.into_iter().map(WordId).collect();
    let (a, b) = ids;
    let (x, y, k) = sizes;
    match variant % 9 {
        0 => QueryRequest::RankCommunities { query: words },
        1 => QueryRequest::QueryTopics { query: words },
        2 => QueryRequest::TopWords { topic: x, k },
        3 => QueryRequest::CommunityTopics { community: x, k },
        4 => QueryRequest::PairTopics { from: x, to: y, k },
        5 => QueryRequest::UserProfile { user: UserId(a) },
        6 => QueryRequest::FriendshipScore {
            u: UserId(a),
            v: UserId(b),
        },
        7 => QueryRequest::DiffusionScore {
            u: UserId(a),
            v: UserId(b),
            words,
            at: seed as u32,
        },
        _ => QueryRequest::FoldIn {
            item: FoldInItem {
                docs: docs
                    .into_iter()
                    .map(|d| d.into_iter().map(WordId).collect())
                    .collect(),
                friends: vec![UserId(a), UserId(b)],
            },
            seed,
        },
    }
}

/// Build the `variant`-th response class from generic ingredients.
fn build_response(
    variant: usize,
    row: Vec<f64>,
    rows: Vec<Vec<f64>>,
    ids: (u32, u32),
    msg: String,
) -> QueryResponse {
    let (a, b) = ids;
    match variant % 6 {
        0 => QueryResponse::Ranking(
            row.iter()
                .enumerate()
                .map(|(i, &s)| (i.wrapping_add(a as usize), s))
                .collect(),
        ),
        1 => QueryResponse::Profile {
            membership: row,
            dominant: a as usize,
        },
        2 => QueryResponse::Score(row.first().copied().unwrap_or(0.25)),
        3 => QueryResponse::FoldedIn(Box::new(FoldedProfile {
            membership: row.clone(),
            topics: row,
            doc_topics: rows,
        })),
        4 => QueryResponse::Overloaded {
            retry_after_ms: u64::from(b),
        },
        _ => QueryResponse::Error(msg),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// encode → decode is the identity for every request frame class,
    /// and re-encoding the decoded frame reproduces the bytes exactly.
    #[test]
    fn request_frames_round_trip(
        variant in 0usize..9,
        words in prop::collection::vec(0u32..100_000, 0..12),
        docs in prop::collection::vec(prop::collection::vec(0u32..100_000, 0..6), 0..4),
        a in 0u32..1_000_000,
        b in 0u32..1_000_000,
        x in 0usize..10_000,
        y in 0usize..10_000,
        k in 0usize..500,
        seed in 0u64..u64::MAX,
        deadline_raw in 0u32..600_000,
        trace_id in 1u64..u64::MAX,
        parent_span in 0u64..10_000,
        trace_sel in 0u8..4,
    ) {
        // The vendored proptest stub has no Option strategy; fold
        // "no deadline" / "no trace" in as residue classes.
        let deadline_ms = (deadline_raw % 3 != 0).then_some(deadline_raw);
        let trace = match trace_sel {
            0 => None,
            1 => Some(TraceContext { trace_id, parent_span, sampled: false }),
            _ => Some(TraceContext { trace_id, parent_span, sampled: true }),
        };
        let frame = RequestFrame::Query {
            request: build_request(variant, words, docs, (a, b), (x, y, k), seed),
            deadline_ms,
            trace,
        };
        let bytes = encode_request(&frame);
        let mut r = &bytes[..];
        let decoded = read_request(&mut r).unwrap().expect("one frame in");
        prop_assert_eq!(&decoded, &frame);
        prop_assert!(r.is_empty(), "frame consumed exactly");
        prop_assert_eq!(encode_request(&decoded), bytes);
    }

    /// Same for every response frame class — including NaN-free float
    /// payloads surviving bit-exactly.
    #[test]
    fn response_frames_round_trip(
        variant in 0usize..6,
        row in prop::collection::vec(-1.0e12f64..1.0e12, 0..10),
        rows in prop::collection::vec(prop::collection::vec(0.0f64..1.0, 0..5), 0..4),
        a in 0u32..1_000_000,
        b in 0u32..1_000_000,
        msg in "[a-z ]{0,40}",
        mirror_raw in 1u64..u64::MAX,
        mirror_sel in 0u8..3,
    ) {
        let frame = ResponseFrame::Response {
            response: build_response(variant, row, rows, (a, b), msg),
            trace_id: (mirror_sel != 0).then_some(mirror_raw),
        };
        let bytes = encode_response(&frame);
        let mut r = &bytes[..];
        let decoded = read_response(&mut r).unwrap().expect("one frame in");
        prop_assert_eq!(&decoded, &frame);
        prop_assert!(r.is_empty());
        prop_assert_eq!(encode_response(&decoded), bytes);
    }

    /// Every strict prefix of a valid frame is rejected as malformed —
    /// truncation can never decode, and never panics.
    #[test]
    fn truncated_frames_are_malformed(
        variant in 0usize..9,
        words in prop::collection::vec(0u32..100, 1..6),
        cut in 0usize..1000,
    ) {
        let frame = RequestFrame::Query {
            request: build_request(variant, words, vec![vec![1, 2]], (1, 2), (3, 4, 5), 99),
            deadline_ms: Some(1_500),
            // A full trace context widens the truncation surface: cuts
            // land inside the trace field as often as the query body.
            trace: Some(TraceContext { trace_id: 0xDEAD_BEEF, parent_span: 7, sampled: true }),
        };
        let bytes = encode_request(&frame);
        // Cut somewhere strictly inside the frame (never index 0 — an
        // empty stream is a *clean* EOF by contract).
        let cut = 1 + cut % (bytes.len() - 1);
        let err = read_request(&mut &bytes[..cut]).unwrap_err();
        prop_assert!(matches!(err, WireError::Malformed(_)), "cut at {cut}: {err}");
    }

    /// Flipping any single payload byte either still decodes (bit flips
    /// inside float/int payloads are legal values) or fails with a
    /// typed error — never a panic, and never a frame that re-encodes
    /// to different framing.
    #[test]
    fn corrupt_payload_bytes_never_panic(
        variant in 0usize..9,
        words in prop::collection::vec(0u32..100, 1..6),
        flip_at in 0usize..1000,
        flip_bit in 0u8..8,
    ) {
        let frame = RequestFrame::Query {
            request: build_request(variant, words, vec![vec![7]], (1, 2), (3, 4, 5), 42),
            deadline_ms: None,
            trace: Some(TraceContext { trace_id: 0xC0FFEE, parent_span: 3, sampled: false }),
        };
        let mut bytes = encode_request(&frame);
        if bytes.len() > FRAME_HEADER_LEN {
            let i = FRAME_HEADER_LEN + flip_at % (bytes.len() - FRAME_HEADER_LEN);
            bytes[i] ^= 1 << flip_bit;
            // Must return *something* without panicking.
            let _ = read_request(&mut &bytes[..]);
        }
    }
}

// ---------------------------------------------------------------------
// Deterministic rejection cases
// ---------------------------------------------------------------------

#[test]
fn admin_frames_round_trip() {
    let requests = [
        RequestFrame::Reload {
            path: "/models/night.cpd".into(),
        },
        RequestFrame::Shutdown,
        RequestFrame::Metrics,
        RequestFrame::Health,
        RequestFrame::Traces,
    ];
    let mut bytes = Vec::new();
    for f in &requests {
        bytes.extend_from_slice(&encode_request(f));
    }
    let mut r = &bytes[..];
    for f in &requests {
        assert_eq!(read_request(&mut r).unwrap().as_ref(), Some(f));
    }
    assert!(read_request(&mut r).unwrap().is_none());

    let responses = [
        ResponseFrame::Reloaded { generation: 42 },
        ResponseFrame::ShuttingDown,
        ResponseFrame::Metrics(
            "# TYPE cpd_serve_query_seconds summary\n\
             cpd_serve_query_seconds{class=\"ranking\",quantile=\"0.5\"} 0.000042\n"
                .into(),
        ),
        ResponseFrame::Health(HealthStatus {
            ready: true,
            live: true,
            state: HealthState::Degraded,
            generation: 42,
            uptime_seconds: 12.75,
        }),
        ResponseFrame::Error("nope".into()),
    ];
    let mut bytes = Vec::new();
    for f in &responses {
        bytes.extend_from_slice(&encode_response(f));
    }
    let mut r = &bytes[..];
    for f in &responses {
        assert_eq!(read_response(&mut r).unwrap().as_ref(), Some(f));
    }
    assert!(read_response(&mut r).unwrap().is_none());
}

#[test]
fn bad_magic_is_rejected() {
    let mut bytes = encode_request(&RequestFrame::Health);
    bytes[0] ^= 0xFF;
    let err = read_request(&mut &bytes[..]).unwrap_err();
    assert!(
        matches!(&err, WireError::Malformed(m) if m.contains("magic")),
        "{err}"
    );
}

#[test]
fn future_version_is_refused_by_name() {
    let mut bytes = encode_request(&RequestFrame::Health);
    bytes[2] = WIRE_VERSION + 1;
    let err = read_request(&mut &bytes[..]).unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains("version"), "{msg}");
    assert!(msg.contains(&(WIRE_VERSION + 1).to_string()), "{msg}");
}

#[test]
fn stale_version_is_refused_by_name() {
    // A v3 peer (pre-trace-context) and a v2 peer (pre-deadline,
    // pre-Overloaded) must both be refused with a message naming both
    // versions — cross-version frames never decode as garbage.
    for stale in [WIRE_VERSION - 1, WIRE_VERSION - 2] {
        let named = format!("unsupported wire version {stale} (this build speaks {WIRE_VERSION})");
        let mut bytes = encode_request(&RequestFrame::Health);
        bytes[2] = stale;
        let err = read_request(&mut &bytes[..]).unwrap_err();
        assert!(
            matches!(&err, WireError::Malformed(m) if m.contains(&named)),
            "{err}"
        );
        // Same on the response side.
        let mut bytes = encode_response(&ResponseFrame::ShuttingDown);
        bytes[2] = stale;
        let err = read_response(&mut &bytes[..]).unwrap_err();
        assert!(
            matches!(&err, WireError::Malformed(m) if m.contains(&named)),
            "{err}"
        );
    }
}

/// A `Traces` reply carrying real span trees round-trips exactly, and
/// a corrupted keep-reason byte is a typed rejection.
#[test]
fn traces_reply_round_trips_and_rejects_bad_keep() {
    let reply = ResponseFrame::Traces(vec![Trace {
        trace_id: 0xABCD_EF01,
        keep: KeepReason::Slow,
        duration_nanos: 2_000_000,
        dropped_spans: 1,
        spans: vec![
            SpanRecord {
                id: 1,
                parent: 0,
                name: "request".into(),
                start_nanos: 0,
                end_nanos: 2_000_000,
            },
            SpanRecord {
                id: 2,
                parent: 1,
                name: "execute.fold_in".into(),
                start_nanos: 10_000,
                end_nanos: 1_900_000,
            },
        ],
    }]);
    let bytes = encode_response(&reply);
    let decoded = read_response(&mut &bytes[..]).unwrap().expect("one frame");
    assert_eq!(decoded, reply);
    assert_eq!(encode_response(&decoded), bytes);

    // Find the keep-reason byte (the only 0x01 for `Slow` right after
    // the trace id) the robust way: corrupt every payload byte to an
    // out-of-range keep value and require that *some* corruption is
    // refused as malformed while none panics.
    let mut saw_malformed = false;
    for i in FRAME_HEADER_LEN..bytes.len() {
        let mut dup = bytes.clone();
        dup[i] = 0xEE;
        if let Err(WireError::Malformed(_)) = read_response(&mut &dup[..]) {
            saw_malformed = true;
        }
    }
    assert!(saw_malformed, "corrupting the reply never tripped a check");
}

#[test]
fn unknown_tags_are_rejected_on_both_sides() {
    // 0x7E was never assigned; 0x03/0x83 are the retired `Stats` pair,
    // which an old peer may still send and must be refused by name.
    for tag in [0x7E, 0x03] {
        let mut bytes = encode_request(&RequestFrame::Health);
        bytes[3] = tag;
        let err = read_request(&mut &bytes[..]).unwrap_err();
        let named = format!("unknown request frame tag {tag:#04x}");
        assert!(
            matches!(&err, WireError::Malformed(m) if m.contains(&named)),
            "{err}"
        );
    }
    for tag in [0x7E, 0x83] {
        let mut bytes = encode_response(&ResponseFrame::ShuttingDown);
        bytes[3] = tag;
        let err = read_response(&mut &bytes[..]).unwrap_err();
        let named = format!("unknown response frame tag {tag:#04x}");
        assert!(
            matches!(&err, WireError::Malformed(m) if m.contains(&named)),
            "{err}"
        );
    }
}

#[test]
fn trailing_payload_bytes_are_rejected() {
    // A Health request declares an empty payload; hand it one byte.
    let mut bytes = encode_request(&RequestFrame::Health);
    bytes[4] = 1; // payload length
    bytes.push(0xAB);
    let err = read_request(&mut &bytes[..]).unwrap_err();
    assert!(
        matches!(&err, WireError::Malformed(m) if m.contains("trailing")),
        "{err}"
    );
}

#[test]
fn oversized_frames_are_rejected_from_the_header() {
    let mut bytes = encode_request(&RequestFrame::Health);
    bytes[4..8].copy_from_slice(&(MAX_FRAME_PAYLOAD + 1).to_le_bytes());
    // Nothing after the header: if the length were trusted the reader
    // would block allocating/filling 16 MiB; instead the header alone
    // is enough to refuse.
    let err = read_request(&mut &bytes[..8]).unwrap_err();
    assert!(matches!(err, WireError::Oversized { len } if len == MAX_FRAME_PAYLOAD + 1));
    // Same check on the response side.
    let mut bytes = encode_response(&ResponseFrame::ShuttingDown);
    bytes[4..8].copy_from_slice(&u32::MAX.to_le_bytes());
    assert!(matches!(
        read_response(&mut &bytes[..8]).unwrap_err(),
        WireError::Oversized { .. }
    ));
}

#[test]
fn empty_stream_is_clean_eof_on_both_sides() {
    assert!(read_request(&mut &[][..]).unwrap().is_none());
    assert!(read_response(&mut &[][..]).unwrap().is_none());
}

#[test]
fn oversized_response_encodes_as_an_in_band_error_frame() {
    // ~17.6 MB of ranking pairs: over the 16 MiB payload limit. The
    // encoder must substitute a framed Error rather than emit a frame
    // every reader rejects (or, past u32, a wrapped length prefix).
    let huge = ResponseFrame::Response {
        response: QueryResponse::Ranking((0..1_100_000).map(|i| (i, 0.5)).collect()),
        trace_id: None,
    };
    let bytes = encode_response(&huge);
    assert!(bytes.len() < MAX_FRAME_PAYLOAD as usize);
    match read_response(&mut &bytes[..]).unwrap() {
        Some(ResponseFrame::Error(m)) => assert!(m.contains("frame limit"), "{m}"),
        other => panic!("expected an Error frame, got {other:?}"),
    }
}

#[test]
fn oversized_request_is_refused_at_write_time() {
    // 4.2M query words is ~16.8 MB of payload: the writer must refuse
    // before anything hits the stream.
    let huge = RequestFrame::Query {
        request: QueryRequest::RankCommunities {
            query: vec![WordId(1); 4_200_000],
        },
        deadline_ms: None,
        trace: None,
    };
    let mut sink = Vec::new();
    let err = write_request(&mut sink, &huge).unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
    assert!(sink.is_empty(), "nothing may be written");
}
