//! A full session driven through its sealed-frame ingest path, clean and
//! under hostile input: the shed input changes nothing but the counters.

use privshape_ldp::Epsilon;
use privshape_protocol::{seal_frame, PrivShapeConfig, Report, Session, UserClient};
use privshape_timeseries::{SaxParams, TimeSeries};

/// A full session driven through its sealed ingest path
/// ([`Session::submit_sealed_frame`]) with hostile input on every round:
/// the extraction matches the clean drive bit-for-bit, and the shed input
/// shows up in [`privshape_protocol::Diagnostics`].
#[test]
fn sealed_ingest_counters_surface_in_diagnostics() {
    let series: Vec<TimeSeries> = (0..120)
        .map(|i| {
            let (a, b) = if i % 3 < 2 { (-1.0, 1.5) } else { (1.5, -1.0) };
            let mut v = Vec::with_capacity(40);
            v.extend(std::iter::repeat_n(a, 20));
            v.extend(std::iter::repeat_n(b, 20));
            let jitter = (i % 5) as f64 * 1e-3;
            TimeSeries::new(v.into_iter().map(|x| x + jitter).collect()).unwrap()
        })
        .collect();
    let config = || {
        let mut cfg = PrivShapeConfig::new(
            Epsilon::new(4.0).unwrap(),
            2,
            SaxParams::new(10, 3).unwrap(),
        );
        cfg.length_range = (1, 4);
        cfg.seed = 11;
        cfg
    };

    let drive = |hostile: bool| {
        let mut session = Session::privshape(config(), series.len()).unwrap();
        let params = session.params().clone();
        let mut clients: Vec<UserClient> = series
            .iter()
            .enumerate()
            .map(|(u, s)| UserClient::new(u, s, &params))
            .collect();
        let mut rounds = 0u64;
        while let Some(spec) = session.next_round().unwrap() {
            rounds += 1;
            let entries: Vec<(usize, Report)> = clients
                .iter_mut()
                .enumerate()
                .filter_map(|(u, c)| c.answer(&spec).unwrap().map(|r| (u, r)))
                .collect();
            for chunk in entries.chunks(7) {
                let frame = seal_frame(chunk);
                session.submit_sealed_frame(&frame, None).unwrap();
                if hostile {
                    // Replay every frame and inject one corrupted copy.
                    session.submit_sealed_frame(&frame, None).unwrap();
                    let mut bad = frame.clone();
                    let mid = bad.len() / 2;
                    bad[mid] ^= 0x10;
                    session.submit_sealed_frame(&bad, None).unwrap();
                }
            }
        }
        (session.finish().unwrap(), rounds)
    };

    let (clean, _) = drive(false);
    let (attacked, rounds) = drive(true);
    assert!(rounds > 0);
    assert_eq!(
        clean.shapes, attacked.shapes,
        "hostile ingest changed the extraction"
    );
    assert_eq!(clean.diagnostics.rejected_frames, 0);
    assert_eq!(clean.diagnostics.duplicate_reports, 0);
    assert!(
        attacked.diagnostics.rejected_frames >= rounds,
        "expected at least one rejected frame per round, got {}",
        attacked.diagnostics.rejected_frames
    );
    assert!(
        attacked.diagnostics.duplicate_reports > 0,
        "replayed frames must be counted as duplicates"
    );
}
