//! Compact wire codec for [`Report`]s.
//!
//! A deployment's ingestion tier does not receive Rust enums: devices
//! upload bytes. This module gives [`Report`] a serde-free flat encoding —
//! one tag byte plus LEB128 varints — so the ingest boundary is a
//! realistic serialized one:
//!
//! ```text
//! Length          := 0x01 varint(value)
//! SubShape        := 0x02 varint(level) varint(value)
//! Expand          := 0x03 varint(index)
//! RefineSelect    := 0x04 varint(index)
//! RefineLabeled   := 0x05 varint(n_bits) varint(bit_0) varint(Δ_1) … varint(Δ_{n−1})
//! LengthOue       := 0x06 varint(n_bits) varint(bit_0) varint(Δ_1) … varint(Δ_{n−1})
//! LengthOlh       := 0x07 varint(seed) varint(bucket)
//! LengthPiecewise := 0x08 varint(zigzag(q))
//! ```
//!
//! OUE set bits are strictly ascending, so bits after the first are
//! delta-encoded (`Δ_i = bit_i − bit_{i−1} ≥ 1`); a zero delta in the
//! input is rejected, never silently repaired. Every report is
//! self-delimiting, so reports concatenate with no length prefix.
//!
//! # Sealed frames
//!
//! A bare report carries no provenance. The one ingress that accepts
//! reports from untrusted devices, a session's open round
//! ([`crate::Session::submit_sealed_frame`]), takes *sealed* frames only:
//! a body of `(varint(user_id) report)*` entries in a tamper-evident
//! envelope:
//!
//! ```text
//! SealedFrame := 0xF5 varint(body_len) u64_le(fnv1a64(body)) body
//! ```
//!
//! The checksum catches bit-flips in transit ([`unseal_frame`] rejects the
//! whole frame) and the per-report user ids let the ingest tier enforce
//! the one-report-per-user-per-round invariant by dropping repeats. Each
//! report is checked against the open round as it is decoded, so a frame
//! carrying a report the round would refuse is rejected whole. See
//! [`seal_frame`] / [`unseal_frame`] and
//! [`crate::Session::submit_sealed_frame`].
//!
//! Decoding never panics on hostile input: truncated buffers, unknown
//! tags, overlong varints, and non-ascending bit sets all come back as
//! [`Error::Protocol`] (or the propagated LDP report validation error).

use crate::error::{Error, Result};
use crate::round::Report;
use privshape_ldp::{OlhReport, OueReport};

/// Wire tag of a [`Report::Length`] report.
pub(crate) const TAG_LENGTH: u8 = 0x01;
/// Wire tag of a [`Report::SubShape`] report.
pub(crate) const TAG_SUB_SHAPE: u8 = 0x02;
/// Wire tag of a [`Report::Expand`] report.
pub(crate) const TAG_EXPAND: u8 = 0x03;
/// Wire tag of a [`Report::RefineSelect`] report.
pub(crate) const TAG_REFINE_SELECT: u8 = 0x04;
/// Wire tag of a [`Report::RefineLabeled`] report.
pub(crate) const TAG_REFINE_LABELED: u8 = 0x05;
/// Wire tag of a [`Report::LengthOue`] report.
pub(crate) const TAG_LENGTH_OUE: u8 = 0x06;
/// Wire tag of a [`Report::LengthOlh`] report.
pub(crate) const TAG_LENGTH_OLH: u8 = 0x07;
/// Wire tag of a [`Report::LengthPiecewise`] report.
pub(crate) const TAG_LENGTH_PIECEWISE: u8 = 0x08;
/// Leading magic byte of a sealed frame (outside the report tag space, so
/// a sealed frame can never be mistaken for a plain one).
pub(crate) const FRAME_MAGIC: u8 = 0xF5;
/// Leading magic byte of a routed frame (distinct from both the report tag
/// space and the sealed-frame magic, and more than one bit away from
/// `0xF5`, so no single bit flip turns one envelope into the other).
pub(crate) const ROUTED_MAGIC: u8 = 0xF6;
/// Routed-frame codec version this build speaks. Decoding rejects every
/// other value with [`Error::UnsupportedVersion`], so the header can evolve
/// without old services silently misparsing new frames.
pub const ROUTED_VERSION: u8 = 1;

/// Appends `v` as an LEB128 varint (7 value bits per byte, high bit =
/// continuation).
pub fn put_varint(buf: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            buf.push(byte);
            return;
        }
        buf.push(byte | 0x80);
    }
}

/// Reads one LEB128 varint starting at `*pos`, advancing `*pos` past it.
///
/// # Errors
///
/// [`Error::Protocol`] when the buffer ends inside the varint or its value
/// runs past 64 bits.
pub fn read_varint(buf: &[u8], pos: &mut usize) -> Result<u64> {
    let mut out = 0u64;
    let mut shift = 0u32;
    loop {
        let Some(&byte) = buf.get(*pos) else {
            return Err(Error::Protocol(
                "truncated report: varint ends mid-buffer".into(),
            ));
        };
        *pos += 1;
        let low = u64::from(byte & 0x7f);
        if shift > 63 || (shift == 63 && low > 1) {
            return Err(Error::Protocol(
                "malformed report: varint exceeds 64 bits".into(),
            ));
        }
        out |= low << shift;
        if byte & 0x80 == 0 {
            return Ok(out);
        }
        shift += 7;
    }
}

/// [`read_varint`] converted to `usize` (identical on 64-bit targets).
pub(crate) fn read_usize(buf: &[u8], pos: &mut usize) -> Result<usize> {
    let v = read_varint(buf, pos)?;
    usize::try_from(v)
        .map_err(|_| Error::Protocol(format!("report value {v} exceeds this platform's usize")))
}

/// ZigZag-maps a signed value onto the unsigned varint space (small
/// magnitudes of either sign stay short on the wire).
pub(crate) fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Inverse of [`zigzag`].
pub(crate) fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// FNV-1a 64-bit checksum (tamper evidence for sealed frames; not a MAC).
pub(crate) fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash = 0xCBF2_9CE4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

/// Reads the tag byte of the next report.
pub(crate) fn read_tag(buf: &[u8], pos: &mut usize) -> Result<u8> {
    let Some(&tag) = buf.get(*pos) else {
        return Err(Error::Protocol("truncated report: missing tag byte".into()));
    };
    *pos += 1;
    Ok(tag)
}

/// Walks an OUE bit-set body (count, then delta-coded bits), handing
/// each bit to `sink` as it is decoded, and returns the last (largest)
/// bit. The one place the bit-set checks live, so decoding, the
/// aggregator's wire check and its wire add refuse exactly the same
/// bodies.
pub(crate) fn walk_oue_bits(
    buf: &[u8],
    pos: &mut usize,
    mut sink: impl FnMut(usize),
) -> Result<Option<usize>> {
    let n = read_usize(buf, pos)?;
    // Each encoded bit needs at least one byte, so a count beyond the
    // remaining buffer is a truncation.
    if n > buf.len() - *pos {
        return Err(Error::Protocol(format!(
            "truncated report: {n} OUE bits claimed, {} bytes left",
            buf.len() - *pos
        )));
    }
    let mut last: Option<usize> = None;
    for _ in 0..n {
        let raw = read_usize(buf, pos)?;
        let bit = match last {
            None => raw,
            Some(_) if raw == 0 => {
                return Err(Error::Protocol(
                    "malformed report: OUE bit delta of zero (bits must be strictly ascending)"
                        .into(),
                ));
            }
            Some(prev) => prev.checked_add(raw).ok_or_else(|| {
                Error::Protocol("malformed report: OUE bit position overflows usize".into())
            })?,
        };
        sink(bit);
        last = Some(bit);
    }
    Ok(last)
}

/// Decodes the body of an OUE report (everything after the tag).
fn read_oue_report(buf: &[u8], pos: &mut usize) -> Result<OueReport> {
    let mut bits = Vec::new();
    walk_oue_bits(buf, pos, |bit| bits.push(bit))?;
    OueReport::from_set_bits(bits).map_err(Error::Ldp)
}

/// The error for a tag outside the report tag space.
fn unknown_tag(tag: u8) -> Error {
    Error::Protocol(format!("unknown report tag 0x{tag:02x}"))
}

/// Appends an OUE bit-set body (count + delta-coded ascending bits).
fn put_oue_bits(buf: &mut Vec<u8>, r: &OueReport) {
    let bits = r.set_bits();
    put_varint(buf, bits.len() as u64);
    let mut prev = 0usize;
    for (i, &bit) in bits.iter().enumerate() {
        // Bits are strictly ascending (an OueReport invariant), so the
        // delta after the first is always >= 1.
        put_varint(buf, if i == 0 { bit } else { bit - prev } as u64);
        prev = bit;
    }
}

impl Report {
    /// Appends this report's wire encoding to `buf` (self-delimiting, so
    /// encoding many reports into one buffer forms a valid frame).
    pub(crate) fn encode_into(&self, buf: &mut Vec<u8>) {
        match self {
            Report::Length(v) => {
                buf.push(TAG_LENGTH);
                put_varint(buf, *v as u64);
            }
            Report::SubShape { level, value } => {
                buf.push(TAG_SUB_SHAPE);
                put_varint(buf, *level as u64);
                put_varint(buf, *value as u64);
            }
            Report::Expand(i) => {
                buf.push(TAG_EXPAND);
                put_varint(buf, *i as u64);
            }
            Report::RefineSelect(i) => {
                buf.push(TAG_REFINE_SELECT);
                put_varint(buf, *i as u64);
            }
            Report::RefineLabeled(r) => {
                buf.push(TAG_REFINE_LABELED);
                put_oue_bits(buf, r);
            }
            Report::LengthOue(r) => {
                buf.push(TAG_LENGTH_OUE);
                put_oue_bits(buf, r);
            }
            Report::LengthOlh(r) => {
                buf.push(TAG_LENGTH_OLH);
                put_varint(buf, r.seed);
                put_varint(buf, r.value as u64);
            }
            Report::LengthPiecewise(q) => {
                buf.push(TAG_LENGTH_PIECEWISE);
                put_varint(buf, zigzag(*q));
            }
        }
    }

    /// This report's wire encoding as a fresh buffer. Encodings are
    /// self-delimiting, so concatenated reports form a valid frame body.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        self.encode_into(&mut buf);
        buf
    }

    /// Decodes one report from the front of `buf`, returning it with the
    /// number of bytes consumed (so frames of concatenated reports can be
    /// walked without a length prefix).
    ///
    /// # Errors
    ///
    /// [`Error::Protocol`] on a truncated buffer, an unknown tag, an
    /// overlong varint, or an OUE bit set that is not strictly ascending.
    /// Decoding validates structure only; domain bounds are checked where
    /// they are known, at [`crate::ShardAggregator`] absorb time.
    pub fn decode(buf: &[u8]) -> Result<(Report, usize)> {
        let mut pos = 0usize;
        let report = match read_tag(buf, &mut pos)? {
            TAG_LENGTH => Report::Length(read_usize(buf, &mut pos)?),
            TAG_SUB_SHAPE => Report::SubShape {
                level: read_usize(buf, &mut pos)?,
                value: read_usize(buf, &mut pos)?,
            },
            TAG_EXPAND => Report::Expand(read_usize(buf, &mut pos)?),
            TAG_REFINE_SELECT => Report::RefineSelect(read_usize(buf, &mut pos)?),
            TAG_REFINE_LABELED => Report::RefineLabeled(read_oue_report(buf, &mut pos)?),
            TAG_LENGTH_OUE => Report::LengthOue(read_oue_report(buf, &mut pos)?),
            TAG_LENGTH_OLH => Report::LengthOlh(OlhReport {
                seed: read_varint(buf, &mut pos)?,
                value: read_usize(buf, &mut pos)?,
            }),
            TAG_LENGTH_PIECEWISE => Report::LengthPiecewise(unzigzag(read_varint(buf, &mut pos)?)),
            tag => return Err(unknown_tag(tag)),
        };
        Ok((report, pos))
    }
}

/// Seals `(user_id, report)` entries into a tamper-evident frame:
/// `0xF5 varint(body_len) u64_le(fnv1a64(body)) body`, where the body is
/// the concatenation of `varint(user_id) report` per entry.
///
/// The envelope is what a real ingest boundary would receive from the
/// transport tier: the checksum lets the session's open round reject
/// frames corrupted in transit, and the user ids let it enforce the
/// one-report-per-user-per-round invariant.
pub fn seal_frame(entries: &[(usize, Report)]) -> Vec<u8> {
    let mut body = Vec::new();
    for (user, report) in entries {
        put_varint(&mut body, *user as u64);
        report.encode_into(&mut body);
    }
    let mut frame = Vec::with_capacity(body.len() + 16);
    frame.push(FRAME_MAGIC);
    put_varint(&mut frame, body.len() as u64);
    frame.extend_from_slice(&fnv1a64(&body).to_le_bytes());
    frame.extend_from_slice(&body);
    frame
}

/// Validates a sealed frame's envelope and returns its body (the
/// `(varint(user_id) report)*` bytes).
///
/// # Errors
///
/// [`Error::Protocol`] when the magic byte is wrong, the declared body
/// length does not match the bytes present, or the checksum disagrees
/// with the body (a bit flipped in transit). Validation is structural
/// only — the body's reports are decoded later, at absorb time.
pub(crate) fn unseal_frame(frame: &[u8]) -> Result<&[u8]> {
    let mut pos = 0usize;
    match frame.first() {
        Some(&FRAME_MAGIC) => pos += 1,
        Some(&b) => {
            return Err(Error::Protocol(format!(
                "sealed frame must start with 0x{FRAME_MAGIC:02x}, got 0x{b:02x}"
            )));
        }
        None => return Err(Error::Protocol("sealed frame is empty".into())),
    }
    let body_len = read_usize(frame, &mut pos)?;
    let Some(checksum_bytes) = frame.get(pos..pos + 8) else {
        return Err(Error::Protocol(
            "truncated sealed frame: checksum missing".into(),
        ));
    };
    let declared = u64::from_le_bytes(checksum_bytes.try_into().expect("8-byte slice"));
    pos += 8;
    let body = &frame[pos..];
    if body.len() != body_len {
        return Err(Error::Protocol(format!(
            "sealed frame declares {body_len} body bytes but carries {}",
            body.len()
        )));
    }
    if fnv1a64(body) != declared {
        return Err(Error::Protocol(
            "sealed frame checksum mismatch (corrupted in transit)".into(),
        ));
    }
    Ok(body)
}

/// A decoded routed-frame header with its borrowed payload.
///
/// A multi-session service cannot tell frames apart by content — every
/// session speaks the same report codec — so producers wrap each frame in
/// a routing envelope naming the owning session and the round generation
/// they are reporting into:
///
/// ```text
/// RoutedFrame := 0xF6 u8(version) varint(session_id) varint(generation) payload
/// ```
///
/// The payload is a sealed frame (`0xF5 …`; the codec itself carries any
/// bytes untouched); the envelope adds routing only, no re-encoding. The
/// `generation` tag is the session's current round identity — for trie
/// rounds, the [`privshape_timeseries::CandidateTable::fingerprint`] of the
/// round's candidate set — and lets the router refuse frames from
/// producers still reporting into a previous round (see
/// [`RoutedFrame::check_session`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RoutedFrame<'a> {
    /// Id of the session the frame addresses.
    pub session_id: u64,
    /// Round-generation tag the producer stamped on the frame.
    pub generation: u64,
    /// The enclosed frame bytes (sealed or plain), untouched.
    pub payload: &'a [u8],
}

impl<'a> RoutedFrame<'a> {
    /// Decodes a routed frame's header, borrowing the payload.
    ///
    /// # Errors
    ///
    /// [`Error::UnsupportedVersion`] when the version byte is not
    /// [`ROUTED_VERSION`]; [`Error::Protocol`] on a wrong magic byte or a
    /// header truncated mid-field. Never panics on hostile input.
    pub fn decode(frame: &'a [u8]) -> Result<Self> {
        let mut pos = 0usize;
        match frame.first() {
            Some(&ROUTED_MAGIC) => pos += 1,
            Some(&b) => {
                return Err(Error::Protocol(format!(
                    "routed frame must start with 0x{ROUTED_MAGIC:02x}, got 0x{b:02x}"
                )));
            }
            None => return Err(Error::Protocol("routed frame is empty".into())),
        }
        let Some(&version) = frame.get(pos) else {
            return Err(Error::Protocol(
                "truncated routed frame: version byte missing".into(),
            ));
        };
        pos += 1;
        if version != ROUTED_VERSION {
            return Err(Error::UnsupportedVersion { got: version });
        }
        let session_id = read_varint(frame, &mut pos)?;
        let generation = read_varint(frame, &mut pos)?;
        Ok(Self {
            session_id,
            generation,
            payload: &frame[pos..],
        })
    }

    /// Validates this frame against the router's view of its session.
    ///
    /// `current_generation` is what the router knows about the addressed
    /// session id: `None` when no such session exists, `Some(g)` when its
    /// open round expects generation `g`.
    ///
    /// # Errors
    ///
    /// [`Error::UnknownSession`] for an unrecognized id and
    /// [`Error::StaleGeneration`] for a generation mismatch — the typed
    /// rejections a stale or confused producer needs to resynchronize,
    /// instead of its counts being silently absorbed into the wrong round.
    pub fn check_session(&self, current_generation: Option<u64>) -> Result<()> {
        let Some(expected) = current_generation else {
            return Err(Error::UnknownSession {
                session_id: self.session_id,
            });
        };
        if self.generation != expected {
            return Err(Error::StaleGeneration {
                session_id: self.session_id,
                expected,
                got: self.generation,
            });
        }
        Ok(())
    }
}

/// Wraps a frame (sealed or plain) in a routing envelope for
/// `session_id` at round generation `generation`.
pub fn route_frame(session_id: u64, generation: u64, payload: &[u8]) -> Vec<u8> {
    let mut frame = Vec::with_capacity(payload.len() + 22);
    frame.push(ROUTED_MAGIC);
    frame.push(ROUTED_VERSION);
    put_varint(&mut frame, session_id);
    put_varint(&mut frame, generation);
    frame.extend_from_slice(payload);
    frame
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn varints_round_trip() {
        let mut buf = Vec::new();
        let values = [0u64, 1, 127, 128, 300, 16_383, 16_384, u64::MAX];
        for &v in &values {
            put_varint(&mut buf, v);
        }
        let mut pos = 0;
        for &v in &values {
            assert_eq!(read_varint(&buf, &mut pos).unwrap(), v);
        }
        assert_eq!(pos, buf.len());
    }

    #[test]
    fn overlong_varint_is_rejected() {
        // Eleven continuation bytes: more than 64 bits of payload.
        let buf = vec![0x80u8; 10];
        let mut pos = 0;
        assert!(read_varint(&buf, &mut pos).is_err());
        // 10-byte varint whose top byte overflows bit 64.
        let mut buf = vec![0xffu8; 9];
        buf.push(0x02);
        let mut pos = 0;
        assert!(read_varint(&buf, &mut pos).is_err());
    }

    /// Decodes a buffer of concatenated reports.
    fn decode_all(mut buf: &[u8]) -> Vec<Report> {
        let mut out = Vec::new();
        while !buf.is_empty() {
            let (report, used) = Report::decode(buf).unwrap();
            out.push(report);
            buf = &buf[used..];
        }
        out
    }

    #[test]
    fn frame_round_trips_mixed_reports() {
        let reports = vec![
            Report::Length(5),
            Report::SubShape { level: 2, value: 4 },
            Report::Expand(17),
            Report::RefineSelect(0),
            Report::RefineLabeled(OueReport::from_set_bits(vec![0, 3, 4, 129]).unwrap()),
            Report::RefineLabeled(OueReport::from_set_bits(Vec::new()).unwrap()),
        ];
        let mut frame = Vec::new();
        for r in &reports {
            r.encode_into(&mut frame);
        }
        assert_eq!(decode_all(&frame), reports);
    }

    #[test]
    fn zero_delta_bits_are_rejected() {
        // Hand-craft a RefineLabeled body with a zero delta (bit repeated).
        let mut buf = vec![TAG_REFINE_LABELED];
        put_varint(&mut buf, 2); // two bits
        put_varint(&mut buf, 7); // first bit
        put_varint(&mut buf, 0); // zero delta: 7 again
        assert!(matches!(Report::decode(&buf), Err(Error::Protocol(_))));
    }

    #[test]
    fn bit_count_beyond_buffer_is_truncation_not_allocation() {
        let mut buf = vec![TAG_REFINE_LABELED];
        put_varint(&mut buf, u64::MAX); // absurd bit count
        assert!(matches!(Report::decode(&buf), Err(Error::Protocol(_))));
    }

    #[test]
    fn zigzag_round_trips() {
        for v in [0i64, 1, -1, 2, -2, 1 << 40, -(1 << 40), i64::MAX, i64::MIN] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
        // Small magnitudes of either sign stay small on the wire.
        assert!(zigzag(-3) < 8);
    }

    #[test]
    fn length_oracle_reports_round_trip() {
        let reports = vec![
            Report::LengthOue(OueReport::from_set_bits(vec![1, 4, 9]).unwrap()),
            Report::LengthOlh(OlhReport {
                seed: 1 << 50,
                value: 3,
            }),
            Report::LengthPiecewise(-12_345_678),
            Report::LengthPiecewise(0),
        ];
        let mut frame = Vec::new();
        for r in &reports {
            r.encode_into(&mut frame);
        }
        assert_eq!(decode_all(&frame), reports);
    }

    #[test]
    fn sealed_frames_round_trip() {
        let entries = vec![
            (0usize, Report::Length(3)),
            (7, Report::LengthPiecewise(-9)),
            (1_000_000, Report::SubShape { level: 1, value: 2 }),
        ];
        let frame = seal_frame(&entries);
        let mut body = unseal_frame(&frame).unwrap();
        let mut seen = Vec::new();
        while !body.is_empty() {
            let mut pos = 0;
            let user = read_usize(body, &mut pos).unwrap();
            let (report, used) = Report::decode(&body[pos..]).unwrap();
            seen.push((user, report));
            body = &body[pos + used..];
        }
        assert_eq!(seen, entries);
    }

    #[test]
    fn sealed_frame_rejects_corruption() {
        let frame = seal_frame(&[(4, Report::Length(2)), (5, Report::Length(0))]);
        // Every single-bit flip anywhere in the frame is caught: either the
        // magic/length/checksum structure breaks or the checksum mismatches.
        for byte in 0..frame.len() {
            for bit in 0..8 {
                let mut bad = frame.clone();
                bad[byte] ^= 1 << bit;
                assert!(unseal_frame(&bad).is_err(), "flip at {byte}:{bit} accepted");
            }
        }
        // Truncations are rejected too.
        for cut in 0..frame.len() {
            assert!(unseal_frame(&frame[..cut]).is_err());
        }
        assert!(unseal_frame(&[]).is_err());
    }

    #[test]
    fn routed_frames_round_trip_sealed_and_plain() {
        let sealed = seal_frame(&[(3, Report::Length(4))]);
        let routed = route_frame(42, 0xDEAD_BEEF, &sealed);
        let decoded = RoutedFrame::decode(&routed).unwrap();
        assert_eq!(decoded.session_id, 42);
        assert_eq!(decoded.generation, 0xDEAD_BEEF);
        assert_eq!(decoded.payload, &sealed[..]);
        unseal_frame(decoded.payload).unwrap();

        let plain = Report::Length(9).encode();
        let routed = route_frame(u64::MAX, 0, &plain);
        let decoded = RoutedFrame::decode(&routed).unwrap();
        assert_eq!(decoded.session_id, u64::MAX);
        assert_eq!(decoded.payload, &plain[..]);

        // Empty payloads are structurally fine; rejecting them is the
        // ingest tier's call, not the codec's.
        assert!(RoutedFrame::decode(&route_frame(0, 0, &[])).is_ok());
    }

    #[test]
    fn routed_frame_rejects_bad_headers() {
        let routed = route_frame(7, 11, &Report::Expand(1).encode());
        // Wrong magic (a sealed frame is not a routed frame).
        let sealed = seal_frame(&[(0, Report::Length(1))]);
        assert!(matches!(
            RoutedFrame::decode(&sealed),
            Err(Error::Protocol(_))
        ));
        assert!(matches!(RoutedFrame::decode(&[]), Err(Error::Protocol(_))));
        // Unknown version byte is a typed rejection.
        let mut bad = routed.clone();
        bad[1] = 2;
        assert!(matches!(
            RoutedFrame::decode(&bad),
            Err(Error::UnsupportedVersion { got: 2 })
        ));
        // Header truncations.
        for cut in 0..4 {
            assert!(RoutedFrame::decode(&routed[..cut]).is_err());
        }
    }

    #[test]
    fn check_session_produces_typed_rejections() {
        let routed = route_frame(5, 100, &[]);
        let decoded = RoutedFrame::decode(&routed).unwrap();
        assert!(decoded.check_session(Some(100)).is_ok());
        assert!(matches!(
            decoded.check_session(None),
            Err(Error::UnknownSession { session_id: 5 })
        ));
        assert!(matches!(
            decoded.check_session(Some(101)),
            Err(Error::StaleGeneration {
                session_id: 5,
                expected: 101,
                got: 100,
            })
        ));
    }

    /// Arbitrary valid reports, covering every variant. OUE bit sets are
    /// built from positive gaps so they are strictly ascending by
    /// construction (the invariant `Oue::perturb` guarantees).
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

        /// Every strict prefix of a routed envelope is rejected somewhere
        /// in the stack: header truncations fail `RoutedFrame::decode`,
        /// and payload truncations survive routing (the payload is the
        /// remainder of the buffer) only to fail the sealed frame's
        /// declared length or checksum — a shortened frame can never
        /// reach the aggregator.
        #[test]
        fn routed_truncations_are_rejected(
            session_id in any::<u64>(),
            generation in any::<u64>(),
            reports in prop::collection::vec(report_strategy(), 1..8),
        ) {
            let entries: Vec<(usize, Report)> =
                reports.into_iter().enumerate().collect();
            let envelope = route_frame(session_id, generation, &seal_frame(&entries));
            for cut in 0..envelope.len() {
                let rejected = match RoutedFrame::decode(&envelope[..cut]) {
                    Err(_) => true,
                    Ok(routed) => unseal_frame(routed.payload).is_err(),
                };
                prop_assert!(rejected, "prefix of {} bytes accepted", cut);
            }
        }
    }
}
