//! Property tests for the report wire codec: `decode(encode(r)) == r` for
//! arbitrary valid reports, and hostile buffers (truncations, corruption,
//! bad structure) are rejected with errors — never a panic, never a
//! silently wrong report.

use privshape_ldp::OueReport;
use privshape_protocol::{route_frame, Error, Report, RoutedFrame, ROUTED_VERSION};
use proptest::prelude::*;

/// Arbitrary valid reports, covering every variant. OUE bit sets are built
/// from positive gaps so they are strictly ascending by construction
/// (the invariant `Oue::perturb` guarantees).
fn report_strategy() -> impl Strategy<Value = Report> {
    prop_oneof![
        (0usize..1 << 20).prop_map(Report::Length),
        ((1usize..64), (0usize..1 << 16))
            .prop_map(|(level, value)| Report::SubShape { level, value }),
        (0usize..1 << 20).prop_map(Report::Expand),
        (0usize..1 << 20).prop_map(Report::RefineSelect),
        prop::collection::vec((0usize..2, 1usize..300), 0..24).prop_map(|gaps| {
            let mut bits = Vec::with_capacity(gaps.len());
            let mut cur = 0usize;
            for (i, (first_offset, gap)) in gaps.into_iter().enumerate() {
                cur = if i == 0 { first_offset } else { cur + gap };
                bits.push(cur);
            }
            Report::RefineLabeled(OueReport::from_set_bits(bits).expect("ascending bits"))
        }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Round trip: encoding then decoding restores the exact report and
    /// consumes exactly the encoded bytes.
    #[test]
    fn decode_inverts_encode(report in report_strategy()) {
        let bytes = report.encode();
        let (decoded, used) = Report::decode(&bytes).unwrap();
        prop_assert_eq!(&decoded, &report);
        prop_assert_eq!(used, bytes.len());
    }

    /// Frames of many reports round trip as a whole: each encoding is
    /// self-delimiting, so concatenated reports decode back one by one.
    #[test]
    fn frames_round_trip(reports in prop::collection::vec(report_strategy(), 0..12)) {
        let frame: Vec<u8> = reports.iter().flat_map(Report::encode).collect();
        let mut decoded = Vec::new();
        let mut rest = &frame[..];
        while !rest.is_empty() {
            let (report, used) = Report::decode(rest).unwrap();
            decoded.push(report);
            rest = &rest[used..];
        }
        prop_assert_eq!(decoded, reports);
    }

    /// Every strict prefix of one report's encoding is an error (a report
    /// is never ambiguous about its own length).
    #[test]
    fn truncations_are_rejected(report in report_strategy()) {
        let bytes = report.encode();
        for cut in 0..bytes.len() {
            prop_assert!(
                Report::decode(&bytes[..cut]).is_err(),
                "prefix of {} bytes decoded", cut
            );
        }
    }

    /// Corrupting any single byte never panics: the decoder returns an
    /// error, or a (different or identical) structurally valid report —
    /// domain validation is the aggregator's job.
    #[test]
    fn corruption_never_panics(
        report in report_strategy(),
        pos_seed in 0usize..4096,
        flip in 1u8..=255,
    ) {
        let mut bytes = report.encode();
        let pos = pos_seed % bytes.len();
        bytes[pos] ^= flip;
        match Report::decode(&bytes) {
            Err(_) => {}
            Ok((decoded, used)) => {
                prop_assert!(used <= bytes.len());
                // Whatever came back must re-encode deterministically.
                let reencoded = decoded.encode();
                let (again, _) = Report::decode(&reencoded).unwrap();
                prop_assert_eq!(again, decoded);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Routed envelopes round trip: session id, generation, and payload
    /// come back exactly, for arbitrary payload bytes.
    #[test]
    fn routed_envelope_round_trips(
        session_id in any::<u64>(),
        generation in any::<u64>(),
        payload in prop::collection::vec(0u8..=255, 0..256),
    ) {
        let envelope = route_frame(session_id, generation, &payload);
        let routed = RoutedFrame::decode(&envelope).unwrap();
        prop_assert_eq!(routed.session_id, session_id);
        prop_assert_eq!(routed.generation, generation);
        prop_assert_eq!(routed.payload, &payload[..]);
    }

    /// Any version byte this build does not speak is a typed
    /// `UnsupportedVersion` error carrying the offending byte.
    #[test]
    fn routed_wrong_versions_are_typed_errors(
        session_id in any::<u64>(),
        generation in any::<u64>(),
        offset in 1u8..=255,
    ) {
        let version = ROUTED_VERSION.wrapping_add(offset);
        let mut envelope = route_frame(session_id, generation, b"payload");
        envelope[1] = version;
        prop_assert!(matches!(
            RoutedFrame::decode(&envelope),
            Err(Error::UnsupportedVersion { got }) if got == version
        ));
    }

    /// Session validation is typed: an unknown session (the router knows
    /// no generation for the id) and a stale generation both reject with
    /// the frame's identifiers in the error, never a silent absorb.
    #[test]
    fn routed_session_checks_are_typed_errors(
        session_id in any::<u64>(),
        generation in any::<u64>(),
        delta in 1u64..=u64::MAX,
    ) {
        let envelope = route_frame(session_id, generation, b"x");
        let routed = RoutedFrame::decode(&envelope).unwrap();
        prop_assert!(routed.check_session(Some(generation)).is_ok());
        prop_assert!(matches!(
            routed.check_session(None),
            Err(Error::UnknownSession { session_id: s }) if s == session_id
        ));
        let other = generation.wrapping_add(delta);
        prop_assert!(matches!(
            routed.check_session(Some(other)),
            Err(Error::StaleGeneration { session_id: s, expected, got })
                if s == session_id && expected == other && got == generation
        ));
    }
}

#[test]
fn unknown_tags_are_rejected() {
    // 0xF5 is the sealed-frame magic: valid as an envelope prefix, never
    // as a bare report tag.
    for tag in [0u8, 0x09, 0x7f, 0xf5, 0xff] {
        assert!(
            Report::decode(&[tag, 0x00]).is_err(),
            "tag 0x{tag:02x} accepted"
        );
    }
}

#[test]
fn empty_buffer_is_rejected() {
    assert!(Report::decode(&[]).is_err());
}
