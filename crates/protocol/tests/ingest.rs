//! Streaming-ingest exactness property: feeding a round's wire-encoded
//! reports through the multi-worker [`IngestPipeline`] — chunked into
//! arbitrary frames, submitted in an arbitrary (shuffled) order, absorbed
//! by a racing worker pool — produces an aggregate bit-identical to one
//! serial absorb of the same reports.

use privshape_ldp::{Epsilon, Oue};
use privshape_protocol::{
    seal_frame, Audience, GroupId, IngestConfig, IngestPipeline, PrivShapeConfig, Report,
    RoundSpec, Session, ShardAggregator, UserClient,
};
use privshape_timeseries::{CandidateTable, SaxParams, TimeSeries};
use proptest::prelude::*;
use rand::{RngExt, SeedableRng};
use std::sync::Arc;

fn eps() -> Epsilon {
    Epsilon::new(2.0).unwrap()
}

/// An expand round over `n` single-symbol candidates.
fn expand_spec(n: usize) -> RoundSpec {
    let rows: Vec<String> = (0..n)
        .map(|i| ["a", "b", "c", "d"][i % 4].repeat(1 + i / 4))
        .collect();
    RoundSpec::Expand {
        audience: Audience::chunk(GroupId::Pc, 0, 1),
        level: 1,
        candidates: Arc::new(CandidateTable::parse_rows(&rows).unwrap()),
    }
}

/// A labeled refine round, so OUE reports (the only heap-carrying variant)
/// go through the pipeline too.
fn labeled_spec(candidates: usize, n_classes: usize) -> RoundSpec {
    let rows: Vec<String> = (0..candidates)
        .map(|i| ["ab", "ba"][i % 2].into())
        .collect();
    RoundSpec::RefineLabeled {
        audience: Audience::group(GroupId::Pd),
        candidates: Arc::new(CandidateTable::parse_rows(&rows).unwrap()),
        n_classes,
    }
}

/// Deterministic Fisher–Yates over the frames.
fn shuffle<T>(items: &mut [T], seed: u64) {
    use rand::RngExt;
    let mut rng = rand_chacha::ChaCha12Rng::seed_from_u64(seed);
    for i in (1..items.len()).rev() {
        let j = rng.random_range(0..=i);
        items.swap(i, j);
    }
}

/// Serial reference: one aggregator, reports absorbed in order.
fn serial(spec: &RoundSpec, reports: &[Report]) -> ShardAggregator {
    let mut agg = ShardAggregator::for_round(spec, eps()).unwrap();
    for r in reports {
        agg.absorb(r).unwrap();
    }
    agg
}

/// Streaming path: encode, chunk into frames, shuffle, pipeline.
fn streamed(
    spec: &RoundSpec,
    reports: &[Report],
    frame_len: usize,
    workers: usize,
    seed: u64,
) -> ShardAggregator {
    let mut frames: Vec<Vec<u8>> = Vec::new();
    for chunk in reports.chunks(frame_len.max(1)) {
        let mut frame = Vec::new();
        for r in chunk {
            r.encode_into(&mut frame);
        }
        frames.push(frame);
    }
    shuffle(&mut frames, seed);
    let pipeline = IngestPipeline::for_round(
        spec,
        eps(),
        reports.len(),
        IngestConfig {
            workers,
            queue_capacity: 4,
        },
    )
    .unwrap();
    for frame in frames {
        pipeline.submit_frame(frame).unwrap();
    }
    pipeline.finish().unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Selection rounds: arbitrary report streams, frame sizes, worker
    /// counts, and submission orders all converge to the serial aggregate.
    #[test]
    fn shuffled_streaming_equals_serial_absorb(
        selections in prop::collection::vec(0usize..6, 1..400),
        frame_len in 1usize..40,
        workers in 1usize..6,
        seed in 0u64..1 << 32,
    ) {
        let spec = expand_spec(6);
        let reports: Vec<Report> = selections.into_iter().map(Report::Expand).collect();
        let reference = serial(&spec, &reports);
        let merged = streamed(&spec, &reports, frame_len, workers, seed);
        prop_assert_eq!(merged, reference);
    }

    /// Labeled refinement (OUE) rounds: same invariant for the
    /// heap-carrying report kind, exercising the add_bits wire fast path.
    #[test]
    fn shuffled_streaming_equals_serial_for_oue(
        values in prop::collection::vec(0usize..8, 1..120),
        frame_len in 1usize..16,
        workers in 1usize..5,
        seed in 0u64..1 << 32,
    ) {
        let spec = labeled_spec(4, 2);
        let oue = Oue::new(8, eps()).unwrap();
        let reports: Vec<Report> = values
            .iter()
            .enumerate()
            .map(|(i, &v)| {
                let mut rng = rand_chacha::ChaCha12Rng::seed_from_u64(i as u64);
                Report::RefineLabeled(oue.perturb(&mut rng, v))
            })
            .collect();
        let reference = serial(&spec, &reports);
        let merged = streamed(&spec, &reports, frame_len, workers, seed);
        prop_assert_eq!(merged, reference);
    }

    /// Adversarial sealed-frame streams: replayed frames (every report a
    /// user-id duplicate), bit-flipped frames (checksum breaks) and frames
    /// re-sealed with a user id outside the population (checksum holds)
    /// are shed at the ingest boundary, so the final aggregate is
    /// bit-identical to the clean stream's — and the [`IngestStats`]
    /// counters account for exactly what was dropped.
    #[test]
    fn hostile_sealed_stream_equals_clean_stream(
        selections in prop::collection::vec(0usize..6, 1..200),
        frame_len in 1usize..20,
        workers in 1usize..5,
        attack_seed in 0u64..1 << 32,
    ) {
        let spec = expand_spec(6);
        let entries: Vec<(usize, Report)> = selections
            .iter()
            .enumerate()
            .map(|(user, &s)| (user, Report::Expand(s)))
            .collect();
        let reports: Vec<Report> = entries.iter().map(|(_, r)| r.clone()).collect();
        let reference = serial(&spec, &reports);
        let population = entries.len();

        let pipeline = IngestPipeline::for_round(
            &spec,
            eps(),
            population,
            IngestConfig { workers, queue_capacity: 4 },
        )
        .unwrap();
        let mut rng = rand_chacha::ChaCha12Rng::seed_from_u64(attack_seed);
        let mut expected_duplicates = 0u64;
        let mut expected_rejects = 0u64;
        for chunk in entries.chunks(frame_len) {
            if rng.random_bool(0.5) {
                // The frame re-sealed with one user id at or past the end
                // of the population, ahead of the genuine frame: it is
                // rejected whole and claims none of its users.
                let mut forged = chunk.to_vec();
                let victim = rng.random_range(0..forged.len());
                forged[victim].0 = population + rng.random_range(0..=usize::from(u16::MAX));
                pipeline.submit_sealed_frame(&seal_frame(&forged)).unwrap();
                expected_rejects += 1;
            }
            let frame = seal_frame(chunk);
            pipeline.submit_sealed_frame(&frame).unwrap();
            if rng.random_bool(0.5) {
                // Replay the frame verbatim: every entry is a duplicate.
                pipeline.submit_sealed_frame(&frame).unwrap();
                expected_duplicates += chunk.len() as u64;
            }
            if rng.random_bool(0.5) {
                // One bit flipped anywhere breaks the envelope.
                let mut bad = frame.clone();
                let pos = rng.random_range(0..bad.len());
                bad[pos] ^= 1u8 << rng.random_range(0..8);
                pipeline.submit_sealed_frame(&bad).unwrap();
                expected_rejects += 1;
            }
        }
        let (merged, stats) = pipeline.finish_with_stats().unwrap();
        prop_assert_eq!(merged, reference);
        prop_assert_eq!(stats.accepted_reports as usize, reports.len());
        prop_assert_eq!(stats.duplicate_reports, expected_duplicates);
        prop_assert_eq!(stats.rejected_frames, expected_rejects);
    }
}

/// A full session driven through the sealed ingest path with hostile input
/// on every round: the extraction matches the clean drive bit-for-bit, and
/// the shed input shows up in [`privshape_protocol::Diagnostics`].
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
            let pipeline = session
                .ingest_pipeline(IngestConfig {
                    workers: 2,
                    queue_capacity: 8,
                })
                .unwrap();
            for chunk in entries.chunks(7) {
                let frame = seal_frame(chunk);
                pipeline.submit_sealed_frame(&frame).unwrap();
                if hostile {
                    // Replay every frame and inject one corrupted copy.
                    pipeline.submit_sealed_frame(&frame).unwrap();
                    let mut bad = frame.clone();
                    let mid = bad.len() / 2;
                    bad[mid] ^= 0x10;
                    pipeline.submit_sealed_frame(&bad).unwrap();
                }
            }
            let (shard, stats) = pipeline.finish_with_stats().unwrap();
            session.record_ingest_stats(&stats);
            session.submit_shard(&shard).unwrap();
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
