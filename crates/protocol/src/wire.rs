//! Compact wire codec for [`Report`]s.
//!
//! A deployment's ingestion tier does not receive Rust enums: devices
//! upload bytes. This module gives [`Report`] a serde-free flat encoding —
//! one tag byte plus LEB128 varints — so the boundary the benchmarks and
//! the streaming ingest pipeline exercise is a realistic serialized one:
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
//! input is rejected, never silently repaired. Reports concatenate into
//! *frames* with no length prefix — every report is self-delimiting —
//! which is what [`crate::ShardAggregator::absorb_wire`] and the
//! [`crate::ingest`] pipeline consume.
//!
//! # Sealed frames
//!
//! Plain frames carry no provenance, which is fine inside a trusted
//! simulator but not at a real ingest boundary. A *sealed* frame wraps a
//! body of `(varint(user_id) report)*` entries in a tamper-evident
//! envelope:
//!
//! ```text
//! SealedFrame := 0xF5 varint(body_len) u64_le(fnv1a64(body)) body
//! ```
//!
//! The checksum catches bit-flips in transit ([`unseal_frame`] rejects the
//! whole frame) and the per-report user ids let the ingest tier enforce
//! the one-report-per-user-per-round invariant by dropping repeats. See
//! [`seal_frame`] / [`unseal_frame`] and
//! [`crate::IngestPipeline::submit_sealed_frame`].
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
pub(crate) fn put_varint(buf: &mut Vec<u8>, mut v: u64) {
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
pub(crate) fn read_varint(buf: &[u8], pos: &mut usize) -> Result<u64> {
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

/// Decodes the body of a [`Report::RefineLabeled`] report (everything
/// after the tag) into `bits`, reusing the buffer's capacity. Shared by
/// [`Report::decode`] and the aggregator's absorb-from-wire fast path.
pub(crate) fn read_oue_bits(buf: &[u8], pos: &mut usize, bits: &mut Vec<usize>) -> Result<()> {
    bits.clear();
    walk_oue_bits(buf, pos, Some(bits))
}

/// Walks an OUE bit-set body (count, then delta-coded bits), collecting
/// the bits into `bits` when given one. The one place the bit-set checks
/// live, so decoding and [`skip_report`] refuse exactly the same bodies.
fn walk_oue_bits(buf: &[u8], pos: &mut usize, mut bits: Option<&mut Vec<usize>>) -> Result<()> {
    let n = read_usize(buf, pos)?;
    // Each encoded bit needs at least one byte, so a count beyond the
    // remaining buffer is a truncation — refuse before reserving memory.
    if n > buf.len() - *pos {
        return Err(Error::Protocol(format!(
            "truncated report: {n} OUE bits claimed, {} bytes left",
            buf.len() - *pos
        )));
    }
    if let Some(bits) = bits.as_deref_mut() {
        bits.reserve(n);
    }
    let mut prev = 0usize;
    for i in 0..n {
        let raw = read_usize(buf, pos)?;
        let bit = if i == 0 {
            raw
        } else {
            if raw == 0 {
                return Err(Error::Protocol(
                    "malformed report: OUE bit delta of zero (bits must be strictly ascending)"
                        .into(),
                ));
            }
            prev.checked_add(raw).ok_or_else(|| {
                Error::Protocol("malformed report: OUE bit position overflows usize".into())
            })?
        };
        if let Some(bits) = bits.as_deref_mut() {
            bits.push(bit);
        }
        prev = bit;
    }
    Ok(())
}

/// Advances `*pos` past one report without building it, refusing exactly
/// what [`Report::decode`] refuses: a truncated buffer, an unknown tag,
/// an overlong varint, or an OUE bit list with a zero or overflowing
/// delta (the walk decoding shares, which is what keeps its bits strictly
/// ascending). Allocates nothing unless it fails.
pub(crate) fn skip_report(buf: &[u8], pos: &mut usize) -> Result<()> {
    match read_tag(buf, pos)? {
        TAG_LENGTH | TAG_EXPAND | TAG_REFINE_SELECT => {
            read_usize(buf, pos)?;
        }
        TAG_SUB_SHAPE => {
            read_usize(buf, pos)?;
            read_usize(buf, pos)?;
        }
        TAG_REFINE_LABELED | TAG_LENGTH_OUE => walk_oue_bits(buf, pos, None)?,
        TAG_LENGTH_OLH => {
            read_varint(buf, pos)?;
            read_usize(buf, pos)?;
        }
        TAG_LENGTH_PIECEWISE => {
            read_varint(buf, pos)?;
        }
        tag => return Err(unknown_tag(tag)),
    }
    Ok(())
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
    pub fn encode_into(&self, buf: &mut Vec<u8>) {
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

    /// This report's wire encoding as a fresh buffer (convenience over
    /// [`Report::encode_into`]).
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
            TAG_REFINE_LABELED => {
                let mut bits = Vec::new();
                read_oue_bits(buf, &mut pos, &mut bits)?;
                Report::RefineLabeled(OueReport::from_set_bits(bits).map_err(Error::Ldp)?)
            }
            TAG_LENGTH_OUE => {
                let mut bits = Vec::new();
                read_oue_bits(buf, &mut pos, &mut bits)?;
                Report::LengthOue(OueReport::from_set_bits(bits).map_err(Error::Ldp)?)
            }
            TAG_LENGTH_OLH => Report::LengthOlh(OlhReport {
                seed: read_varint(buf, &mut pos)?,
                value: read_usize(buf, &mut pos)?,
            }),
            TAG_LENGTH_PIECEWISE => Report::LengthPiecewise(unzigzag(read_varint(buf, &mut pos)?)),
            tag => return Err(unknown_tag(tag)),
        };
        Ok((report, pos))
    }

    /// Decodes a whole frame of concatenated reports.
    pub fn decode_frame(mut buf: &[u8]) -> Result<Vec<Report>> {
        let mut out = Vec::new();
        while !buf.is_empty() {
            let (report, used) = Report::decode(buf)?;
            out.push(report);
            buf = &buf[used..];
        }
        Ok(out)
    }
}

/// Seals `(user_id, report)` entries into a tamper-evident frame:
/// `0xF5 varint(body_len) u64_le(fnv1a64(body)) body`, where the body is
/// the concatenation of `varint(user_id) report` per entry.
///
/// The envelope is what a real ingest boundary would receive from the
/// transport tier: the checksum lets [`unseal_frame`] reject frames
/// corrupted in transit, and the user ids let the aggregator enforce the
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
pub fn unseal_frame(frame: &[u8]) -> Result<&[u8]> {
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
/// The payload is an ordinary frame (sealed `0xF5 …` or plain concatenated
/// reports); the envelope adds routing only, no re-encoding. The
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

/// The `(user_id, report span)` entries of a sealed-frame body, each
/// validated as it is reached: the user id is read and the report is
/// checked by [`skip_report`], never built, so walking a valid body
/// allocates nothing. The first malformed entry comes back as an error
/// and ends the walk.
pub(crate) fn sealed_entries(body: &[u8]) -> SealedEntries<'_> {
    SealedEntries { body, pos: 0 }
}

/// Iterator returned by [`sealed_entries`].
pub(crate) struct SealedEntries<'a> {
    body: &'a [u8],
    pos: usize,
}

impl Iterator for SealedEntries<'_> {
    type Item = Result<(usize, std::ops::Range<usize>)>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.pos >= self.body.len() {
            return None;
        }
        let entry = read_usize(self.body, &mut self.pos).and_then(|user| {
            let start = self.pos;
            skip_report(self.body, &mut self.pos)?;
            Ok((user, start..self.pos))
        });
        if entry.is_err() {
            self.pos = self.body.len();
        }
        Some(entry)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        assert_eq!(Report::decode_frame(&frame).unwrap(), reports);
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
        assert_eq!(Report::decode_frame(&frame).unwrap(), reports);
    }

    #[test]
    fn sealed_frames_round_trip() {
        let entries = vec![
            (0usize, Report::Length(3)),
            (7, Report::LengthPiecewise(-9)),
            (1_000_000, Report::SubShape { level: 1, value: 2 }),
        ];
        let frame = seal_frame(&entries);
        let body = unseal_frame(&frame).unwrap();
        let mut seen = Vec::new();
        for entry in sealed_entries(body) {
            let (user, span) = entry.unwrap();
            let (report, used) = Report::decode(&body[span.clone()]).unwrap();
            assert_eq!(used, span.len());
            seen.push((user, report));
        }
        assert_eq!(seen, entries);
        // A malformed entry is reported once and ends the walk.
        let mut walk = sealed_entries(&[0x01, 0x03]);
        assert!(matches!(walk.next(), Some(Err(Error::Protocol(_)))));
        assert!(walk.next().is_none());
    }

    #[test]
    fn skip_report_refuses_exactly_what_decode_refuses() {
        use rand::{RngExt, SeedableRng};
        let agree = |buf: &[u8]| {
            let mut pos = 0;
            let skipped = skip_report(buf, &mut pos).map(|()| pos);
            let decoded = Report::decode(buf).map(|(_, used)| used);
            assert_eq!(skipped.ok(), decoded.ok(), "{buf:02x?}");
        };
        let reports = [
            Report::Length(300),
            Report::SubShape {
                level: 3,
                value: 70_000,
            },
            Report::Expand(17),
            Report::RefineSelect(1 << 40),
            Report::RefineLabeled(OueReport::from_set_bits(vec![0, 3, 4, 129]).unwrap()),
            Report::RefineLabeled(OueReport::from_set_bits(Vec::new()).unwrap()),
            Report::LengthOue(OueReport::from_set_bits(vec![usize::MAX - 1, usize::MAX]).unwrap()),
            Report::LengthOlh(OlhReport {
                seed: u64::MAX,
                value: 3,
            }),
            Report::LengthPiecewise(-12_345_678),
        ];
        // Every truncation and every value of every byte of each variant.
        for report in &reports {
            let bytes = report.encode();
            for cut in 0..=bytes.len() {
                agree(&bytes[..cut]);
            }
            for i in 0..bytes.len() {
                for v in 0..=u8::MAX {
                    let mut bad = bytes.clone();
                    bad[i] = v;
                    agree(&bad);
                }
            }
        }
        // Short random buffers led by a tag in or near the tag space.
        let mut rng = rand_chacha::ChaCha12Rng::seed_from_u64(20);
        for _ in 0..20_000 {
            let len = rng.random_range(1..14usize);
            let mut buf: Vec<u8> = (0..len).map(|_| rng.random::<u32>() as u8).collect();
            buf[0] = rng.random_range(0..10u32) as u8;
            agree(&buf);
        }
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
}
