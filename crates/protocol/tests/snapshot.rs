//! Crash-recovery property tests at the session boundary: a session may
//! be killed at *any* round boundary (and even mid-round), serialized to
//! a snapshot, dropped, restored from the bytes, and driven to completion
//! — and the extraction must be **bit-identical** to an uninterrupted
//! run of the same session over the same population.
//!
//! This holds because everything the session broadcasts is a
//! deterministic function of (config, n, aggregated integer counts): the
//! snapshot carries the config and the raw counts, and restore replays
//! the pure parts. Clients are stateless between rounds (they answer the
//! broadcast they receive), so a restored session re-issuing the same
//! broadcast collects the same reports.

use privshape_ldp::Epsilon;
use privshape_protocol::{
    BaselineConfig, Error, GroupAssignment, LengthOracle, PrivShapeConfig, Session, UserClient,
    SNAPSHOT_VERSION,
};
use privshape_timeseries::{SaxParams, TimeSeries};
use proptest::prelude::*;

/// Which protocol the proptest drives.
#[derive(Debug, Clone, Copy)]
enum Proto {
    PrivShape,
    PrivShapeLabeled,
    Baseline,
    BaselineLabeled,
}

const N_CLASSES: usize = 2;

fn session_for(proto: Proto, seed: u64, k: usize, n: usize) -> Session {
    let eps = Epsilon::new(4.0).unwrap();
    let sax = SaxParams::new(5, 3).unwrap();
    match proto {
        Proto::PrivShape | Proto::PrivShapeLabeled => {
            let mut cfg = PrivShapeConfig::new(eps, k, sax);
            cfg.length_range = (1, 6);
            cfg.seed = seed;
            match proto {
                Proto::PrivShape => Session::privshape(cfg, n).unwrap(),
                _ => Session::privshape_labeled(cfg, n, N_CLASSES).unwrap(),
            }
        }
        Proto::Baseline | Proto::BaselineLabeled => {
            let mut cfg = BaselineConfig::new(eps, k, sax);
            cfg.length_range = (1, 6);
            cfg.length_oracle = LengthOracle::Oue;
            cfg.prune_threshold = 5.0;
            cfg.seed = seed;
            match proto {
                Proto::Baseline => Session::baseline(cfg, n).unwrap(),
                _ => Session::baseline_labeled(cfg, n, N_CLASSES).unwrap(),
            }
        }
    }
}

/// A small population of step-shaped series: two families (down-up and
/// up-down) so labeled runs have per-class structure, with tiny jitter so
/// SAX output stays deterministic but not degenerate.
fn population(n: usize, labeled: bool) -> (Vec<TimeSeries>, Vec<Option<usize>>) {
    let data: Vec<TimeSeries> = (0..n)
        .map(|i| {
            let jitter = (i % 7) as f64 * 1e-3;
            let (lo, hi) = (-1.0 + jitter, 1.0 + jitter);
            let mut v = Vec::with_capacity(40);
            if i % 2 == 0 {
                v.extend(vec![lo; 20]);
                v.extend(vec![hi; 20]);
            } else {
                v.extend(vec![hi; 20]);
                v.extend(vec![lo; 20]);
            }
            TimeSeries::new(v).unwrap()
        })
        .collect();
    let labels = (0..n).map(|i| labeled.then_some(i % N_CLASSES)).collect();
    (data, labels)
}

fn clients(session: &Session, data: &[TimeSeries], labels: &[Option<usize>]) -> Vec<UserClient> {
    let assignments = GroupAssignment::derive_all(session.params());
    data.iter()
        .zip(labels)
        .enumerate()
        .map(|(user, (series, label))| {
            UserClient::with_assignment(user, series, *label, session.params(), assignments[user])
        })
        .collect()
}

/// Snapshots `session`, drops it and restores it from the bytes — a
/// crash at this exact point. The restored session must snapshot back to
/// the very same bytes.
fn crash_and_restore(session: Session) -> Session {
    let bytes = session.snapshot();
    drop(session);
    let restored = Session::restore(&bytes).unwrap();
    assert_eq!(restored.snapshot(), bytes, "re-snapshot is not byte-exact");
    restored
}

/// Drives `session` to completion. At the start of round boundary number
/// `kill_at` (0 = before the first round), the session crashes and is
/// restored before continuing. A `kill_at` at or past the last boundary
/// also crashes the complete session, after `next_round` has returned
/// `None`. Returns the final session for finishing.
fn drive(mut session: Session, cs: &mut [UserClient], kill_at: Option<u32>) -> Session {
    let mut boundary = 0u32;
    loop {
        if kill_at == Some(boundary) {
            session = crash_and_restore(session);
        }
        let Some(spec) = session.next_round().unwrap() else {
            if kill_at.is_some_and(|kill_at| kill_at >= boundary) {
                session = crash_and_restore(session);
            }
            return session;
        };
        let mut reports = Vec::new();
        for c in cs.iter_mut() {
            if let Some(r) = c.answer(&spec).unwrap() {
                reports.push(r);
            }
        }
        session.submit(&reports).unwrap();
        boundary += 1;
    }
}

proptest! {
    // Each case drives two full multi-round sessions over hundreds of
    // clients, so keep the case count modest.
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Kill → snapshot → restore → continue at an arbitrary round
    /// boundary is invisible: the extraction is bit-identical to the
    /// uninterrupted twin, for every protocol variant.
    #[test]
    fn killed_sessions_finish_bit_identically(
        proto_pick in 0u32..4,
        seed in 1u64..500,
        k in 2usize..4,
        kill_at in 0u32..8,
    ) {
        let proto = [
            Proto::PrivShape,
            Proto::PrivShapeLabeled,
            Proto::Baseline,
            Proto::BaselineLabeled,
        ][proto_pick as usize];
        let labeled = matches!(proto, Proto::PrivShapeLabeled | Proto::BaselineLabeled);
        let n = 260;
        let (data, labels) = population(n, labeled);

        let twin = session_for(proto, seed, k, n);
        let mut twin_cs = clients(&twin, &data, &labels);
        let twin = drive(twin, &mut twin_cs, None);

        let killed = session_for(proto, seed, k, n);
        let mut killed_cs = clients(&killed, &data, &labels);
        let killed = drive(killed, &mut killed_cs, Some(kill_at));

        if labeled {
            let a = twin.finish_labeled().unwrap();
            let b = killed.finish_labeled().unwrap();
            prop_assert_eq!(a.classes, b.classes);
            prop_assert_eq!(a.diagnostics.ell_s, b.diagnostics.ell_s);
            prop_assert_eq!(a.diagnostics.candidates_per_level, b.diagnostics.candidates_per_level);
        } else {
            let a = twin.finish().unwrap();
            let b = killed.finish().unwrap();
            prop_assert_eq!(a.shapes, b.shapes);
            prop_assert_eq!(a.diagnostics.ell_s, b.diagnostics.ell_s);
            prop_assert_eq!(a.diagnostics.candidates_per_level, b.diagnostics.candidates_per_level);
        }
    }
}

/// A crash at *every* boundary in one run — snapshot, drop, restore at
/// each round edge — still finishes bit-identically.
#[test]
fn crashing_at_every_boundary_is_invisible() {
    let n = 300;
    let (data, labels) = population(n, false);
    let twin = session_for(Proto::PrivShape, 11, 2, n);
    let mut twin_cs = clients(&twin, &data, &labels);
    let expected = drive(twin, &mut twin_cs, None).finish().unwrap();

    let mut session = session_for(Proto::PrivShape, 11, 2, n);
    let mut cs = clients(&session, &data, &labels);
    loop {
        // Crash at this boundary.
        session = crash_and_restore(session);
        let Some(spec) = session.next_round().unwrap() else {
            break;
        };
        let mut reports = Vec::new();
        for c in cs.iter_mut() {
            if let Some(r) = c.answer(&spec).unwrap() {
                reports.push(r);
            }
        }
        session.submit(&reports).unwrap();
    }
    let got = session.finish().unwrap();
    assert_eq!(got.shapes, expected.shapes);
    assert_eq!(got.diagnostics.ell_s, expected.diagnostics.ell_s);
}

/// Mid-round crashes are covered too: with half the round's reports
/// absorbed, snapshot/restore preserves the partial aggregate exactly.
#[test]
fn mid_round_crash_preserves_partial_counts() {
    let n = 280;
    let (data, labels) = population(n, false);
    let twin = session_for(Proto::PrivShape, 23, 2, n);
    let mut twin_cs = clients(&twin, &data, &labels);
    let expected = drive(twin, &mut twin_cs, None).finish().unwrap();

    let mut session = session_for(Proto::PrivShape, 23, 2, n);
    let mut cs = clients(&session, &data, &labels);
    while let Some(spec) = session.next_round().unwrap() {
        let mut reports = Vec::new();
        for c in cs.iter_mut() {
            if let Some(r) = c.answer(&spec).unwrap() {
                reports.push(r);
            }
        }
        // Absorb half, crash, restore, absorb the rest.
        let half = reports.len() / 2;
        session.submit(&reports[..half]).unwrap();
        session = crash_and_restore(session);
        session.submit(&reports[half..]).unwrap();
    }
    let got = session.finish().unwrap();
    assert_eq!(got.shapes, expected.shapes);
    assert_eq!(got.diagnostics.ell_s, expected.diagnostics.ell_s);
}

/// The supervisor's depth-2 checkpoint story at the protocol level: when
/// the **newest** checkpoint is corrupted in storage, restore fails typed,
/// the previous checkpoint restores instead, and re-driving the round in
/// between (clients are stateless: the same broadcast collects the same
/// reports) finishes bit-identically to the uninterrupted twin.
#[test]
fn corrupted_checkpoint_falls_back_to_previous_checkpoint() {
    let n = 280;
    let (data, labels) = population(n, false);
    let twin = session_for(Proto::PrivShape, 37, 2, n);
    let mut twin_cs = clients(&twin, &data, &labels);
    let expected = drive(twin, &mut twin_cs, None).finish().unwrap();

    let mut session = session_for(Proto::PrivShape, 37, 2, n);
    let mut cs = clients(&session, &data, &labels);
    // Checkpoint A at the first boundary, then run one round.
    let ckpt_a = session.snapshot();
    let spec_r1 = session.next_round().unwrap().expect("round 1");
    let mut reports_r1 = Vec::new();
    for c in cs.iter_mut() {
        if let Some(r) = c.answer(&spec_r1).unwrap() {
            reports_r1.push(r);
        }
    }
    session.submit(&reports_r1).unwrap();
    // Checkpoint B at the next boundary — then storage rot flips a byte.
    let mut ckpt_b = session.snapshot();
    let mid = ckpt_b.len() / 2;
    ckpt_b[mid] ^= 0x10;
    drop(session);

    // Crash. The newest checkpoint is rejected typed, never half-restored.
    assert!(Session::restore(&ckpt_b).is_err());
    // Fall back to A and re-drive the lost round: same broadcast, same
    // reports.
    let mut session = Session::restore(&ckpt_a).unwrap();
    let spec_redrive = session.next_round().unwrap().expect("re-driven round 1");
    assert_eq!(format!("{spec_redrive:?}"), format!("{spec_r1:?}"));
    session.submit(&reports_r1).unwrap();
    // Continue to completion.
    while let Some(spec) = session.next_round().unwrap() {
        let mut reports = Vec::new();
        for c in cs.iter_mut() {
            if let Some(r) = c.answer(&spec).unwrap() {
                reports.push(r);
            }
        }
        session.submit(&reports).unwrap();
    }
    let got = session.finish().unwrap();
    assert_eq!(got.shapes, expected.shapes);
    assert_eq!(got.diagnostics.ell_s, expected.diagnostics.ell_s);
    assert_eq!(
        got.diagnostics.candidates_per_level,
        expected.diagnostics.candidates_per_level
    );
}

/// Snapshots are untrusted input: truncations, a bumped version byte, a
/// checkpoint of the previous format and an impossible body length are
/// rejected with typed errors, never a panic or a corrupt session.
#[test]
fn hostile_snapshots_are_rejected() {
    let session = session_for(Proto::PrivShape, 3, 2, 120);
    let bytes = session.snapshot();
    for cut in 0..bytes.len() {
        assert!(
            Session::restore(&bytes[..cut]).is_err(),
            "prefix of {cut} bytes restored"
        );
    }
    let mut wrong = bytes.clone();
    wrong[1] = wrong[1].wrapping_add(1);
    assert!(matches!(
        Session::restore(&wrong),
        Err(Error::UnsupportedVersion { .. })
    ));
    // Version 2 stored derived state and version 3 a layout per round
    // kind; this build only replays version 4's count-vector logs.
    for old in [2, 3] {
        wrong[1] = old;
        assert!(matches!(
            Session::restore(&wrong),
            Err(Error::UnsupportedVersion { got }) if got == old
        ));
    }
    // 20 bytes: magic, version, varint(2^64 − 1) as the body length, and
    // a checksum.
    let huge = [&[0xF7, SNAPSHOT_VERSION][..], &[0xFF; 9], &[0x01], &[0; 8]].concat();
    assert!(matches!(Session::restore(&huge), Err(Error::Protocol(_))));
}
