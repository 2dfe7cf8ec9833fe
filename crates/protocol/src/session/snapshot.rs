//! Crash-safe session snapshots, stored as a replay log.
//!
//! Everything a [`Session`] derives (ℓ_S, the sub-shape sets, the trie,
//! the extraction) is post-processing of its rounds' aggregates, and its
//! static side (params, groups, plan) is a pure function of `(config, n)`.
//! A snapshot stores only those inputs, and [`Session::restore`] runs the
//! ordinary constructor, then [`Session::next_round`] once per logged
//! round, loading each aggregate into the round the replay opens before
//! the next call finalizes it. The restored session is the same
//! computation, so it is **bit-identical** to the one that was dumped.
//!
//! # Format
//!
//! ```text
//! 0xF7  u8(version=4)  varint(body_len)  u64_le(fnv1a64(body))  body
//! body = origin · varint(n) · mode · ingest counters
//!      · varint(rounds) · aggregate × rounds · u8(complete)
//! aggregate = varint(reports) · u8(kind) · [varint(table generation)]
//!           · varint(len) · varint(count)* · [i128_le(sum)]
//! ```
//!
//! `rounds` counts the rounds opened so far; an open round's aggregate is
//! the last. Every round kind stores its counts the same way; the table
//! generation is present in the candidate-table rounds and the sum in the
//! piecewise length round. `complete` marks a session whose `next_round`
//! returned `None`. Length before checksum before body, as in the sealed
//! report frames (`0xF5`), so truncation and bit-flips are rejected before
//! any field is parsed.
//!
//! The checksum is no MAC, so the bytes are *untrusted input*: the
//! constructor re-validates the config, each aggregate must match the
//! round the replay opened (kind and oracle, count vector length,
//! candidate-table generation), its counts must be ones its declared
//! reports could produce (the invariants of
//! [`crate::ShardAggregator`]'s restore), and it must hold at most `n`
//! reports; a log longer than the protocol, a complete flag with rounds
//! left, or trailing bytes are typed errors.

use super::{Mode, Origin, Phase, Session};
use crate::config::{
    BaselineConfig, LengthOracle, PopulationSplit, Preprocessing, PrivShapeConfig,
};
use crate::error::{Error, Result};
use crate::ingest::IngestStats;
use crate::wire;
use privshape_distance::DistanceKind;
use privshape_ldp::Epsilon;
use privshape_timeseries::SaxParams;

/// Leading byte of a session snapshot. Two bits away from the sealed
/// report frame magic `0xF5` and one from the routed envelope `0xF6`, so
/// no single bit-flip turns one artifact kind into another.
const SNAPSHOT_MAGIC: u8 = 0xF7;

/// Version byte of the snapshot format this build writes and accepts.
/// Version 4 is the round-aggregate log with one count-vector layout for
/// every round kind; every other version, including version 3's per-kind
/// aggregate layouts and version 2's derived-state snapshots, is rejected
/// with a typed [`Error::UnsupportedVersion`].
pub const SNAPSHOT_VERSION: u8 = 4;

fn bad(msg: impl Into<String>) -> Error {
    Error::Protocol(format!("invalid session snapshot: {}", msg.into()))
}

fn put_f64(buf: &mut Vec<u8>, v: f64) {
    buf.extend_from_slice(&v.to_bits().to_le_bytes());
}

fn read_f64(buf: &[u8], pos: &mut usize) -> Result<f64> {
    let Some(bytes) = buf.get(*pos..*pos + 8) else {
        return Err(bad("truncated f64"));
    };
    *pos += 8;
    Ok(f64::from_bits(u64::from_le_bytes(
        bytes.try_into().expect("8-byte slice"),
    )))
}

// ---- config -------------------------------------------------------------

fn put_distance(buf: &mut Vec<u8>, d: DistanceKind) {
    buf.push(match d {
        DistanceKind::Dtw => 1,
        DistanceKind::Sed => 2,
        DistanceKind::Euclidean => 3,
        DistanceKind::Hausdorff => 4,
    });
}

fn read_distance(buf: &[u8], pos: &mut usize) -> Result<DistanceKind> {
    Ok(match wire::read_tag(buf, pos)? {
        1 => DistanceKind::Dtw,
        2 => DistanceKind::Sed,
        3 => DistanceKind::Euclidean,
        4 => DistanceKind::Hausdorff,
        t => return Err(bad(format!("unknown distance tag {t}"))),
    })
}

fn put_oracle(buf: &mut Vec<u8>, o: LengthOracle) {
    buf.push(match o {
        LengthOracle::Grr => 1,
        LengthOracle::Oue => 2,
        LengthOracle::Olh => 3,
        LengthOracle::Piecewise => 4,
    });
}

fn read_oracle(buf: &[u8], pos: &mut usize) -> Result<LengthOracle> {
    Ok(match wire::read_tag(buf, pos)? {
        1 => LengthOracle::Grr,
        2 => LengthOracle::Oue,
        3 => LengthOracle::Olh,
        4 => LengthOracle::Piecewise,
        t => return Err(bad(format!("unknown length-oracle tag {t}"))),
    })
}

fn put_preprocessing(buf: &mut Vec<u8>, p: &Preprocessing) {
    match p {
        Preprocessing::Sax { compress } => {
            buf.push(1);
            buf.push(u8::from(*compress));
        }
        Preprocessing::UniformGrid {
            step,
            bound,
            compress,
        } => {
            buf.push(2);
            put_f64(buf, *step);
            put_f64(buf, *bound);
            buf.push(u8::from(*compress));
        }
    }
}

fn read_bool(buf: &[u8], pos: &mut usize) -> Result<bool> {
    match wire::read_tag(buf, pos)? {
        0 => Ok(false),
        1 => Ok(true),
        t => Err(bad(format!("boolean byte {t}"))),
    }
}

fn read_preprocessing(buf: &[u8], pos: &mut usize) -> Result<Preprocessing> {
    Ok(match wire::read_tag(buf, pos)? {
        1 => Preprocessing::Sax {
            compress: read_bool(buf, pos)?,
        },
        2 => {
            let step = read_f64(buf, pos)?;
            let bound = read_f64(buf, pos)?;
            Preprocessing::UniformGrid {
                step,
                bound,
                compress: read_bool(buf, pos)?,
            }
        }
        t => return Err(bad(format!("unknown preprocessing tag {t}"))),
    })
}

fn put_sax(buf: &mut Vec<u8>, sax: &SaxParams) {
    wire::put_varint(buf, sax.segment_len() as u64);
    wire::put_varint(buf, sax.alphabet() as u64);
}

fn read_sax(buf: &[u8], pos: &mut usize) -> Result<SaxParams> {
    let segment_len = wire::read_usize(buf, pos)?;
    let alphabet = wire::read_usize(buf, pos)?;
    SaxParams::new(segment_len, alphabet).map_err(|e| bad(format!("sax params: {e}")))
}

fn put_origin(buf: &mut Vec<u8>, origin: &Origin) {
    match origin {
        Origin::PrivShape(c) => {
            buf.push(1);
            put_f64(buf, c.epsilon.value());
            wire::put_varint(buf, c.k as u64);
            wire::put_varint(buf, c.c as u64);
            put_sax(buf, &c.sax);
            wire::put_varint(buf, c.length_range.0 as u64);
            wire::put_varint(buf, c.length_range.1 as u64);
            put_distance(buf, c.distance);
            put_oracle(buf, c.length_oracle);
            put_f64(buf, c.split.pa);
            put_f64(buf, c.split.pb);
            put_f64(buf, c.split.pc);
            put_f64(buf, c.split.pd);
            put_preprocessing(buf, &c.preprocessing);
            wire::put_varint(buf, c.seed);
            wire::put_varint(buf, c.threads as u64);
        }
        Origin::Baseline(c) => {
            buf.push(2);
            put_f64(buf, c.epsilon.value());
            wire::put_varint(buf, c.k as u64);
            put_sax(buf, &c.sax);
            wire::put_varint(buf, c.length_range.0 as u64);
            wire::put_varint(buf, c.length_range.1 as u64);
            put_distance(buf, c.distance);
            put_oracle(buf, c.length_oracle);
            put_f64(buf, c.prune_threshold);
            put_f64(buf, c.pa);
            put_preprocessing(buf, &c.preprocessing);
            wire::put_varint(buf, c.seed);
            wire::put_varint(buf, c.threads as u64);
        }
    }
}

fn read_origin(buf: &[u8], pos: &mut usize) -> Result<Origin> {
    let tag = wire::read_tag(buf, pos)?;
    let epsilon = Epsilon::new(read_f64(buf, pos)?).map_err(|e| bad(format!("epsilon: {e}")))?;
    match tag {
        1 => {
            let k = wire::read_usize(buf, pos)?;
            let c = wire::read_usize(buf, pos)?;
            let sax = read_sax(buf, pos)?;
            let lo = wire::read_usize(buf, pos)?;
            let hi = wire::read_usize(buf, pos)?;
            let distance = read_distance(buf, pos)?;
            let length_oracle = read_oracle(buf, pos)?;
            let split = PopulationSplit {
                pa: read_f64(buf, pos)?,
                pb: read_f64(buf, pos)?,
                pc: read_f64(buf, pos)?,
                pd: read_f64(buf, pos)?,
            };
            let preprocessing = read_preprocessing(buf, pos)?;
            let seed = wire::read_varint(buf, pos)?;
            let threads = wire::read_usize(buf, pos)?;
            let mut cfg = PrivShapeConfig::new(epsilon, k, sax);
            cfg.c = c;
            cfg.length_range = (lo, hi);
            cfg.distance = distance;
            cfg.length_oracle = length_oracle;
            cfg.split = split;
            cfg.preprocessing = preprocessing;
            cfg.seed = seed;
            cfg.threads = threads;
            Ok(Origin::PrivShape(cfg))
        }
        2 => {
            let k = wire::read_usize(buf, pos)?;
            let sax = read_sax(buf, pos)?;
            let lo = wire::read_usize(buf, pos)?;
            let hi = wire::read_usize(buf, pos)?;
            let distance = read_distance(buf, pos)?;
            let length_oracle = read_oracle(buf, pos)?;
            let prune_threshold = read_f64(buf, pos)?;
            let pa = read_f64(buf, pos)?;
            let preprocessing = read_preprocessing(buf, pos)?;
            let seed = wire::read_varint(buf, pos)?;
            let threads = wire::read_usize(buf, pos)?;
            let mut cfg = BaselineConfig::new(epsilon, k, sax);
            cfg.length_range = (lo, hi);
            cfg.distance = distance;
            cfg.length_oracle = length_oracle;
            cfg.prune_threshold = prune_threshold;
            cfg.pa = pa;
            cfg.preprocessing = preprocessing;
            cfg.seed = seed;
            cfg.threads = threads;
            Ok(Origin::Baseline(cfg))
        }
        t => Err(bad(format!("unknown mechanism tag {t}"))),
    }
}

// ---- envelope -----------------------------------------------------------

/// Wraps `body` in the snapshot envelope and appends it to `buf`.
pub(super) fn seal(buf: &mut Vec<u8>, body: &[u8]) {
    buf.push(SNAPSHOT_MAGIC);
    buf.push(SNAPSHOT_VERSION);
    wire::put_varint(buf, body.len() as u64);
    buf.extend_from_slice(&wire::fnv1a64(body).to_le_bytes());
    buf.extend_from_slice(body);
}

/// Checks the envelope (magic, version, length, checksum) and returns the
/// body it seals.
pub(super) fn unseal(bytes: &[u8]) -> Result<&[u8]> {
    let mut pos = 0;
    let magic = wire::read_tag(bytes, &mut pos).map_err(|_| bad("empty input"))?;
    if magic != SNAPSHOT_MAGIC {
        return Err(bad(format!("bad magic byte {magic:#04x}")));
    }
    let version = wire::read_tag(bytes, &mut pos)?;
    if version != SNAPSHOT_VERSION {
        return Err(Error::UnsupportedVersion { got: version });
    }
    let body_len = wire::read_usize(bytes, &mut pos)?;
    let Some((checksum, body)) = bytes[pos..].split_first_chunk::<8>() else {
        return Err(bad("truncated checksum"));
    };
    if body.len() != body_len {
        return Err(bad(format!(
            "body of {} bytes, header declares {body_len}",
            body.len()
        )));
    }
    if wire::fnv1a64(body) != u64::from_le_bytes(*checksum) {
        return Err(bad("checksum mismatch"));
    }
    Ok(body)
}

impl Session {
    /// Serializes the session — config, population size, output mode,
    /// ingest counters and the aggregate of every round opened so far —
    /// into `buf` as one checksummed snapshot frame.
    ///
    /// Restoring the bytes with [`Session::restore`] yields a session
    /// that continues bit-identically: same broadcasts, same candidate
    /// fingerprints, same extraction. Snapshots may be taken at any
    /// point, including mid-round with reports already absorbed.
    pub fn snapshot_into(&self, buf: &mut Vec<u8>) {
        let mut body = Vec::with_capacity(128 + self.log.len());
        put_origin(&mut body, &self.origin);
        wire::put_varint(&mut body, self.params.n as u64);
        match self.mode {
            Mode::Unlabeled => body.push(0),
            Mode::Labeled { n_classes } => {
                body.push(1);
                wire::put_varint(&mut body, n_classes as u64);
            }
        }
        for counter in [
            self.ingest.accepted_reports,
            self.ingest.rejected_frames,
            self.ingest.duplicate_reports,
            self.ingest.queue_high_water,
            self.ingest.backpressure_stalls,
            self.ingest.worker_panics,
        ] {
            wire::put_varint(&mut body, counter);
        }
        wire::put_varint(&mut body, self.round_index);
        body.extend_from_slice(&self.log);
        if let Some(open) = &self.open {
            open.agg.snapshot_state_into(&mut body);
        }
        body.push(u8::from(matches!(self.phase, Phase::Complete)));
        seal(buf, &body);
    }

    /// [`Session::snapshot_into`] into a fresh buffer.
    pub fn snapshot(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        self.snapshot_into(&mut buf);
        buf
    }

    /// Reconstructs a session from snapshot bytes by replaying its round
    /// log, validating the envelope (magic, version, length, checksum)
    /// and every logged aggregate against the round the replay opens.
    /// The bytes are untrusted input: a forged or corrupted snapshot is
    /// rejected with a typed error, never absorbed into a half-restored
    /// session.
    ///
    /// # Errors
    ///
    /// [`Error::UnsupportedVersion`] for a snapshot written in another
    /// format version; [`Error::Protocol`] (or a propagated LDP or
    /// configuration error) for anything malformed.
    pub fn restore(bytes: &[u8]) -> Result<Self> {
        let body = unseal(bytes)?;
        let pos = &mut 0;
        let origin = read_origin(body, pos)?;
        let n = wire::read_usize(body, pos)?;
        // The constructors re-validate the config and recompute params,
        // groups and plan, which are pure functions of `(config, n)`.
        let mut session = match (origin, wire::read_tag(body, pos)?) {
            (Origin::PrivShape(cfg), 0) => Session::privshape(cfg, n)?,
            (Origin::PrivShape(cfg), 1) => {
                Session::privshape_labeled(cfg, n, wire::read_usize(body, pos)?)?
            }
            (Origin::Baseline(cfg), 0) => Session::baseline(cfg, n)?,
            (Origin::Baseline(cfg), 1) => {
                Session::baseline_labeled(cfg, n, wire::read_usize(body, pos)?)?
            }
            (_, t) => return Err(bad(format!("unknown mode tag {t}"))),
        };
        session.ingest = IngestStats {
            accepted_reports: wire::read_varint(body, pos)?,
            rejected_frames: wire::read_varint(body, pos)?,
            duplicate_reports: wire::read_varint(body, pos)?,
            queue_high_water: wire::read_varint(body, pos)?,
            backpressure_stalls: wire::read_varint(body, pos)?,
            worker_panics: wire::read_varint(body, pos)?,
        };
        // Each logged aggregate is loaded into the round the protocol
        // opens next, and the following `next_round` finalizes it exactly
        // as the live session did.
        let rounds = wire::read_varint(body, pos)?;
        for _ in 0..rounds {
            session.next_round()?;
            let Some(open) = session.open.as_mut() else {
                return Err(bad("more logged rounds than the protocol opens"));
            };
            open.agg.restore_state(body, pos)?;
            // Each user reports at most once per round, so a round holding
            // more reports than the population is forged; refusing it also
            // keeps later absorbs clear of count overflow.
            if open.agg.reports() > n as u64 {
                return Err(bad(format!(
                    "a logged round holds {} reports from {n} users",
                    open.agg.reports()
                )));
            }
        }
        if read_bool(body, pos)? && session.next_round()?.is_some() {
            return Err(bad("complete flag on a session with rounds left"));
        }
        if *pos != body.len() {
            return Err(bad("trailing bytes inside snapshot body"));
        }
        Ok(session)
    }
}
