//! Micro-benchmarks of every substrate the mechanisms are built from:
//! SAX / Compressive SAX, the distance measures, the LDP primitives, trie
//! expansion, and the sealed-frame ingest boundary. These back the
//! per-operation costs in the complexity analysis of §IV-F.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use privshape::protocol::{seal_frame, Audience, GroupId, IngestPipeline, Report, RoundSpec};
use privshape::{transform_batch, transform_series, Preprocessing};
use privshape_distance::{dtw, em_score, euclidean_padded, sed, DistanceKind, DistanceWorkspace};
use privshape_ldp::{Epsilon, ExpMech, Grr, Oue, PiecewiseMechanism};
use privshape_timeseries::{
    compressive_sax, sax, CandidateTable, SaxParams, SymbolSeq, TimeSeries,
};
use privshape_trie::ShapeTrie;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha12Rng;
use std::cell::OnceCell;
use std::hint::black_box;
use std::sync::Arc;

/// Series in the enrollment population: perfbench's facade-deep fleet,
/// 199,998 series of 128 samples (about 195 MiB), so the per-series loop
/// and the batch kernel are timed on the population one enrollment of
/// that fleet reads.
const POPULATION: usize = 199_998;

fn series(len: usize) -> Vec<f64> {
    (0..len)
        .map(|i| ((i as f64) * 0.11).sin() * 1.3 + ((i as f64) * 0.031).cos())
        .collect()
}

fn bench_sax(c: &mut Criterion) {
    let mut group = c.benchmark_group("substrate/sax");
    for len in [128usize, 398, 1000] {
        let data = series(len);
        let params = SaxParams::new(16, 6).unwrap();
        group.bench_with_input(BenchmarkId::new("sax", len), &data, |b, data| {
            b.iter(|| black_box(sax(data, &params)));
        });
        group.bench_with_input(
            BenchmarkId::new("compressive_sax", len),
            &data,
            |b, data| {
                b.iter(|| black_box(compressive_sax(data, &params)));
            },
        );
    }
    // Enrollment at facade-deep's parameters: one device's transform, then
    // a population through the per-series loop and through the batch
    // kernel, which runs four series in lockstep and prefetches the next
    // four.
    let params = SaxParams::new(25, 6).unwrap();
    let mode = Preprocessing::default();
    let one = TimeSeries::new(series(128)).unwrap();
    group.bench_with_input(BenchmarkId::new("transform_series", 128), &one, |b, s| {
        b.iter(|| black_box(transform_series(s, &params, &mode)));
    });
    let population = OnceCell::new();
    let make = || -> Vec<TimeSeries> {
        (0..POPULATION)
            .map(|i| {
                let rate = 0.05 + (i % 13) as f64 * 0.01;
                let v = (0..128).map(|t| (t as f64 * rate).sin()).collect();
                TimeSeries::new(v).unwrap()
            })
            .collect()
    };
    group.bench_function(BenchmarkId::new("transform_series_loop", POPULATION), |b| {
        let population = population.get_or_init(make);
        b.iter(|| {
            let seqs: Vec<SymbolSeq> = population
                .iter()
                .map(|s| transform_series(s, &params, &mode))
                .collect();
            black_box(seqs)
        });
    });
    group.bench_function(BenchmarkId::new("transform_batch", POPULATION), |b| {
        let population = population.get_or_init(make);
        b.iter(|| black_box(transform_batch(population, &params, &mode)));
    });
    group.finish();
}

fn bench_distances(c: &mut Criterion) {
    let mut group = c.benchmark_group("substrate/distance");
    for len in [8usize, 15, 64] {
        let a: Vec<f64> = series(len);
        let b_vals: Vec<f64> = series(len).iter().map(|v| v * 0.9 + 0.1).collect();
        group.bench_with_input(BenchmarkId::new("dtw", len), &len, |bch, _| {
            bch.iter(|| black_box(dtw(&a, &b_vals)));
        });
        group.bench_with_input(BenchmarkId::new("euclidean", len), &len, |bch, _| {
            bch.iter(|| black_box(euclidean_padded(&a, &b_vals)));
        });
        let sa = SymbolSeq::parse(&"abcdef".repeat(len / 6 + 1)[..len]).unwrap();
        let sb = SymbolSeq::parse(&"fedcba".repeat(len / 6 + 1)[..len]).unwrap();
        group.bench_with_input(BenchmarkId::new("sed", len), &len, |bch, _| {
            bch.iter(|| black_box(sed(sa.symbols(), sb.symbols())));
        });
    }
    group.finish();
}

/// The claim behind the columnar refactor, measured rather than asserted:
/// scoring through a reused [`DistanceWorkspace`] must beat the allocating
/// `DistanceKind::dist` path (which rebuilds index vectors and DTW rows on
/// every call).
fn bench_distance_workspace(c: &mut Criterion) {
    let mut group = c.benchmark_group("substrate/distance_workspace");
    for len in [8usize, 15, 64] {
        let sa = SymbolSeq::parse(&"abcdef".repeat(len / 6 + 1)[..len]).unwrap();
        let sb = SymbolSeq::parse(&"fedcba".repeat(len / 6 + 1)[..len]).unwrap();
        for kind in [DistanceKind::Dtw, DistanceKind::Euclidean] {
            group.bench_with_input(
                BenchmarkId::new(format!("{kind}_alloc"), len),
                &len,
                |bch, _| {
                    bch.iter(|| black_box(kind.dist(&sa, &sb)));
                },
            );
            group.bench_with_input(
                BenchmarkId::new(format!("{kind}_workspace"), len),
                &len,
                |bch, _| {
                    let mut ws = DistanceWorkspace::new();
                    bch.iter(|| black_box(kind.dist_with(&mut ws, sa.symbols(), sb.symbols())));
                },
            );
        }
    }
    // The round-shaped batch: one user sequence scored against a packed
    // 18-row candidate table (the paper's c·k at k = 6), allocating vs
    // workspace-batched.
    let own = SymbolSeq::parse("acbdcfeab").unwrap();
    let cand_seqs: Vec<SymbolSeq> = (0..18)
        .map(|i| {
            let rotated: String = "abcdef".chars().cycle().skip(i % 6).take(6).collect();
            SymbolSeq::parse(&rotated).unwrap()
        })
        .collect();
    let table = CandidateTable::from_seqs(&cand_seqs);
    group.bench_function("dtw_batch18_alloc", |bch| {
        bch.iter(|| {
            let scores: Vec<f64> = cand_seqs
                .iter()
                .map(|c| DistanceKind::Dtw.dist(&own, c))
                .collect();
            black_box(scores)
        });
    });
    group.bench_function("dtw_batch18_workspace", |bch| {
        let mut ws = DistanceWorkspace::new();
        bch.iter(|| {
            let scores = DistanceKind::Dtw.dist_batch_with(&mut ws, own.symbols(), table.rows());
            black_box(scores.last().copied())
        });
    });
    group.finish();
}

/// An 18-row table of depth-`depth` trie siblings (6 live parents × 3
/// children), the candidate shape a deep expand round broadcasts at k = 6.
/// `shift` rotates the node frequencies, so different shifts keep
/// different survivors.
fn sibling_table(depth: usize, shift: usize) -> CandidateTable {
    let mut trie = ShapeTrie::new(4).expect("valid alphabet");
    for level in 1..=depth {
        let created = trie.expand_next_level(None);
        for (i, &id) in created.iter().enumerate() {
            trie.set_freq(id, ((i + shift) % 7) as f64);
        }
        trie.prune_top_m(level, if level < depth { 6 } else { 18 })
            .expect("level exists");
    }
    trie.candidate_table(depth).expect("level exists").1
}

/// Scoring a prefix-ordered sibling batch through the LCP-resuming table
/// scorer must beat recomputing every DP table from row zero
/// (`dist_batch_with` over the same rows). `dtw_argmin` is the same
/// prefix batch plus the first-minimum fold labeled refinement and
/// `NearestShape` report.
///
/// The workspace remembers each own sequence's result per table, so the
/// table-scorer cases alternate between two tables with different
/// content: every call misses the memo and pays for the scan plus the
/// memo's upkeep, the cost on a population whose sequences are all
/// distinct. `memo_hit` times a repeated own sequence against one table,
/// through the selection row a device draws from.
fn bench_prefix_batch(c: &mut Criterion) {
    let mut group = c.benchmark_group("substrate/prefix_batch");
    let own = SymbolSeq::parse("acbdcbadcbab").unwrap();
    let em = ExpMech::new(Epsilon::new(4.0).unwrap());
    for depth in [3usize, 6] {
        let tables = [
            Arc::new(sibling_table(depth, 0)),
            Arc::new(sibling_table(depth, 3)),
        ];
        assert!(
            tables.iter().all(|t| t.len() == 18),
            "sibling batches should be 18 rows"
        );
        assert_ne!(tables[0], tables[1], "alternating tables must differ");
        for kind in [DistanceKind::Dtw, DistanceKind::Sed] {
            group.bench_with_input(
                BenchmarkId::new(format!("{kind}_flat"), depth),
                &depth,
                |bch, _| {
                    let mut ws = DistanceWorkspace::new();
                    bch.iter(|| {
                        let scores = kind.dist_batch_with(&mut ws, own.symbols(), tables[0].rows());
                        black_box(scores.last().copied())
                    });
                },
            );
            group.bench_with_input(
                BenchmarkId::new(format!("{kind}_prefix"), depth),
                &depth,
                |bch, _| {
                    let mut ws = DistanceWorkspace::new();
                    let mut flip = 0;
                    bch.iter(|| {
                        flip ^= 1;
                        let scores = kind.dist_batch_table(&mut ws, own.symbols(), &tables[flip]);
                        black_box(scores.last().copied())
                    });
                },
            );
        }
        group.bench_with_input(BenchmarkId::new("dtw_argmin", depth), &depth, |bch, _| {
            let mut ws = DistanceWorkspace::new();
            let mut flip = 0;
            bch.iter(|| {
                flip ^= 1;
                black_box(DistanceKind::Dtw.argmin_table(&mut ws, own.symbols(), &tables[flip]))
            });
        });
        group.bench_with_input(BenchmarkId::new("memo_hit", depth), &depth, |bch, _| {
            let mut ws = DistanceWorkspace::new();
            let salt = em.epsilon().value().to_bits();
            bch.iter(|| {
                let row = DistanceKind::Dtw.table_row(
                    &mut ws,
                    own.symbols(),
                    &tables[0],
                    salt,
                    |d, row| {
                        for s in d.iter_mut() {
                            *s = em_score(*s);
                        }
                        em.prepare(d, row);
                    },
                );
                black_box(row.last().copied())
            });
        });
    }
    group.finish();
}

fn bench_ldp(c: &mut Criterion) {
    let mut group = c.benchmark_group("substrate/ldp");
    let eps = Epsilon::new(4.0).unwrap();
    let mut rng = ChaCha12Rng::seed_from_u64(0);

    let grr = Grr::new(12, eps).unwrap();
    group.bench_function("grr_perturb_d12", |b| {
        b.iter(|| black_box(grr.perturb(&mut rng, 5)));
    });

    let oue = Oue::new(27, eps).unwrap(); // c·k × L = 9 × 3 grid
    group.bench_function("oue_perturb_d27", |b| {
        b.iter(|| black_box(oue.perturb(&mut rng, 13)));
    });

    // EM selection over the table sizes devices score: 6 and 18
    // candidates, 55 (a deep facade-deep level) and 324 (the widest
    // service-mix level). `em_select_prepared_*` draws from a row prepared
    // once, each time on a fresh stream: what a device whose sequence the
    // workspace has seen pays.
    let em = ExpMech::new(eps);
    for n in [6usize, 18, 55, 324] {
        let scores: Vec<f64> = (0..n).map(|i| 1.0 / (1.0 + (i % 18) as f64)).collect();
        group.bench_function(format!("em_select_{n}_candidates").as_str(), |b| {
            b.iter(|| black_box(em.select(&mut rng, &scores).unwrap()));
        });
        let mut row = Vec::new();
        em.prepare(&scores, &mut row);
        group.bench_function(format!("em_select_prepared_{n}").as_str(), |b| {
            let mut seed = 0u64;
            b.iter(|| {
                seed += 1;
                let mut fresh = ChaCha12Rng::seed_from_u64(seed);
                black_box(em.select_prepared(&mut fresh, &row).unwrap())
            });
        });
    }

    group.bench_function("chacha12_next_u64", |b| {
        b.iter(|| black_box(rng.next_u64()));
    });

    // Every device report draws from a fresh stream, which the cases above
    // (one long stream) amortize away: a length or sub-shape report reads
    // 8 words, a level-6 facade-deep expansion report 61 and a labeled
    // refinement report 108 (an OUE one-hot over 18 rows × 6 classes).
    for words in [8usize, 61, 108] {
        group.bench_with_input(
            BenchmarkId::new("chacha12_fresh_stream", words),
            &words,
            |b, &words| {
                let mut seed = 0u64;
                b.iter(|| {
                    seed += 1;
                    let mut fresh = ChaCha12Rng::seed_from_u64(seed);
                    black_box((0..words).fold(0, |acc, _| acc ^ fresh.next_u64()))
                });
            },
        );
    }
    let oue_refine = Oue::new(108, eps).unwrap();
    group.bench_function("oue_perturb_d108", |b| {
        let mut seed = 0u64;
        b.iter(|| {
            seed += 1;
            let mut fresh = ChaCha12Rng::seed_from_u64(seed);
            black_box(oue_refine.perturb(&mut fresh, 13))
        });
    });

    let pm = PiecewiseMechanism::new(eps);
    group.bench_function("piecewise_perturb", |b| {
        b.iter(|| black_box(pm.perturb(&mut rng, 0.37)));
    });
    group.finish();
}

fn bench_trie(c: &mut Criterion) {
    let mut group = c.benchmark_group("substrate/trie");
    for t in [4usize, 6] {
        group.bench_with_input(BenchmarkId::new("expand_5_levels", t), &t, |b, &t| {
            b.iter(|| {
                let mut trie = ShapeTrie::new(t).unwrap();
                for level in 1..=5 {
                    trie.expand_next_level(None);
                    // Keep the frontier bounded like PrivShape does.
                    trie.prune_top_m(level, 18).unwrap();
                }
                black_box(trie.node_count())
            });
        });
    }
    group.finish();
}

/// Frames sealed ahead of each ingest case: more than the 100 samples and
/// the warm-up call, so every timed submit names users no earlier frame
/// named.
const INGEST_FRAMES: usize = 128;

/// The sealed-frame boundary, one frame per iteration: one producer
/// submits frames of `reports` entries, each from a user no frame named
/// before. The frames are sealed before the timed loop, so an iteration
/// is what the boundary itself costs the producer, from the envelope
/// check to the frame absorbed: the checksum, the checking walk (entry
/// structure, user ids, report kinds and domains), the round lock, and
/// the walk that claims each user and adds its report. No worker thread
/// or queue is involved: the submit returns with the frame absorbed.
fn bench_sealed_submit(
    group: &mut criterion::BenchmarkGroup<'_>,
    id: BenchmarkId,
    spec: &RoundSpec,
    reports: usize,
    report: impl Fn(usize) -> Report,
) {
    let frames: Vec<Vec<u8>> = (0..INGEST_FRAMES)
        .map(|f| {
            let entries: Vec<(usize, Report)> = (f * reports..(f + 1) * reports)
                .map(|user| (user, report(user)))
                .collect();
            seal_frame(&entries)
        })
        .collect();
    let eps = Epsilon::new(4.0).unwrap();
    group.throughput(Throughput::Elements(reports as u64));
    group.bench_function(id, |bch| {
        let round = IngestPipeline::for_round(spec, eps, INGEST_FRAMES * reports).unwrap();
        let mut unsent = frames.iter();
        bch.iter(|| {
            let frame = unsent.next().expect("more frames than samples");
            round.submit_sealed_frame(frame, None).unwrap();
        });
        let (merged, stats) = round.finish();
        merged.unwrap();
        assert_eq!(stats.duplicate_reports + stats.rejected_frames, 0);
    });
}

/// `sealed_submit` carries expansion reports over an 18-row table (one
/// varint each), `sealed_submit_oue` labeled-refinement OUE reports over
/// 18 rows × 6 classes (a count and 2.4 delta-coded bits on average at
/// ε = 4).
fn bench_ingest(c: &mut Criterion) {
    let mut group = c.benchmark_group("substrate/ingest");
    group.sample_size(100);
    let candidates = Arc::new(sibling_table(3, 0));
    let expand = RoundSpec::Expand {
        audience: Audience::chunk(GroupId::Pc, 0, 1),
        level: 3,
        candidates: Arc::clone(&candidates),
    };
    for reports in [64usize, 256] {
        bench_sealed_submit(
            &mut group,
            BenchmarkId::new("sealed_submit", reports),
            &expand,
            reports,
            |user| Report::Expand(user % 18),
        );
    }
    let classes = 6;
    let labeled = RoundSpec::RefineLabeled {
        audience: Audience::group(GroupId::Pd),
        candidates,
        n_classes: classes,
    };
    let oue = Oue::new(18 * classes, Epsilon::new(4.0).unwrap()).unwrap();
    bench_sealed_submit(
        &mut group,
        BenchmarkId::new("sealed_submit_oue", 64),
        &labeled,
        64,
        |user| {
            let mut rng = ChaCha12Rng::seed_from_u64(user as u64);
            Report::RefineLabeled(oue.perturb(&mut rng, user % (18 * classes)))
        },
    );
    group.finish();
}

criterion_group!(
    benches,
    bench_sax,
    bench_distances,
    bench_distance_workspace,
    bench_prefix_batch,
    bench_ldp,
    bench_trie,
    bench_ingest
);
criterion_main!(benches);
