//! What every workload is made of: tenants (one extraction session over
//! one generated population), their enrollment, their outcome, and the
//! single-threaded serial twin each outcome is checked against.

use crate::trace::{SpanId, Trace};
use crate::Res;
use privshape::distance::DistanceWorkspace;
use privshape::ldp::Epsilon;
use privshape::protocol::{
    seal_frame, GroupAssignment, LengthOracle, ProtocolParams, Report, RoundSpec, Session,
    UserClient,
};
use privshape::timeseries::Dataset;
use privshape::timeseries::{SaxParams, SymbolSeq, TimeSeries};
use privshape::{BaselineConfig, Extraction, LabeledExtraction, PrivShapeConfig};
use privshape_bench::quality::{series_shape, shape_quality};
use privshape_datasets::{
    generate_symbols_like, symbols_template, SymbolsLikeConfig, SYMBOLS_CLASSES,
};
use std::time::Instant;

/// Parts a population is generated in (a constant, so that the inputs do
/// not depend on the host's thread count).
const PARTS: usize = 4;

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Mechanism {
    PrivShape,
    Baseline,
}

/// One tenant's session parameters.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    pub mechanism: Mechanism,
    pub labeled: bool,
    pub eps: f64,
    pub k: usize,
    /// SAX `(segment length w, alphabet t)`.
    pub sax: (usize, usize),
    pub oracle: LengthOracle,
    pub length_range: (usize, usize),
}

/// A tenant: its spec, its generated Symbols-like population, and the
/// session seed derived from the workload seed.
pub struct Tenant {
    pub spec: Spec,
    pub series: Vec<TimeSeries>,
    labels: Vec<usize>,
    pub session_seed: u64,
    length: usize,
}

/// SplitMix64, to derive independent seeds from the workload seed.
pub fn mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Tenant {
    /// Generates the tenant's population (outside every timed region), in
    /// [`PARTS`] class-balanced parts on their own threads. The parts and
    /// their seeds are fixed, so the population depends on the seed alone.
    pub fn generate(spec: Spec, users: usize, length: usize, seed: u64, index: u64) -> Self {
        let per_class = (users / SYMBOLS_CLASSES).max(1);
        let parts: Vec<Dataset> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..PARTS)
                .map(|p| {
                    let n_per_class = per_class / PARTS + usize::from(p < per_class % PARTS);
                    scope.spawn(move || {
                        generate_symbols_like(&SymbolsLikeConfig {
                            n_per_class,
                            length,
                            seed: mix(seed, index * PARTS as u64 + p as u64),
                            ..Default::default()
                        })
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("generator thread panicked"))
                .collect()
        });
        let mut series = Vec::with_capacity(per_class * SYMBOLS_CLASSES);
        let mut labels = Vec::with_capacity(per_class * SYMBOLS_CLASSES);
        for part in parts {
            series.extend_from_slice(part.series());
            labels.extend_from_slice(part.labels().expect("Symbols-like data is labeled"));
        }
        Self {
            spec,
            series,
            labels,
            session_seed: mix(seed, u64::MAX - index),
            length,
        }
    }

    pub fn users(&self) -> usize {
        self.series.len()
    }

    pub fn labels(&self) -> Option<&[usize]> {
        self.spec.labeled.then_some(self.labels.as_slice())
    }

    /// A fresh server-side session for this tenant.
    pub fn session(&self) -> Res<Session> {
        let s = &self.spec;
        let eps = Epsilon::new(s.eps)?;
        let sax = SaxParams::new(s.sax.0, s.sax.1)?;
        let n = self.users();
        Ok(match s.mechanism {
            Mechanism::PrivShape => {
                let mut cfg = PrivShapeConfig::new(eps, s.k, sax);
                cfg.length_range = s.length_range;
                cfg.length_oracle = s.oracle;
                cfg.seed = self.session_seed;
                if s.labeled {
                    Session::privshape_labeled(cfg, n, SYMBOLS_CLASSES)?
                } else {
                    Session::privshape(cfg, n)?
                }
            }
            Mechanism::Baseline => {
                let mut cfg = BaselineConfig::new(eps, s.k, sax);
                cfg.length_range = s.length_range;
                cfg.length_oracle = s.oracle;
                cfg.seed = self.session_seed;
                if s.labeled {
                    Session::baseline_labeled(cfg, n, SYMBOLS_CLASSES)?
                } else {
                    Session::baseline(cfg, n)?
                }
            }
        })
    }

    /// Enrolls one device per user: derives every group assignment once on
    /// the main thread, then transforms the series on `threads` device threads.
    pub fn enroll(
        &self,
        params: &ProtocolParams,
        threads: usize,
        trace: &mut Trace,
        parent: SpanId,
        session: u64,
    ) -> Vec<UserClient> {
        let n = self.users();
        let assignments = {
            let s = trace.open("client.enroll", parent, session, 0);
            let a = GroupAssignment::derive_all(params);
            trace.close(s, 0);
            a
        };
        let labels = self.labels();
        let per = n.div_ceil(threads.max(1)).max(1);
        let (clients, logs): (Vec<Vec<UserClient>>, Vec<_>) = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..n)
                .step_by(per)
                .enumerate()
                .map(|(t, lo)| {
                    let hi = (lo + per).min(n);
                    let mut log = trace.thread_log(t as u16 + 1);
                    let assignments = &assignments;
                    scope.spawn(move || {
                        let clients = log.time("client.enroll", parent, session, 0, || {
                            let c: Vec<UserClient> = (lo..hi)
                                .map(|user| {
                                    UserClient::with_assignment(
                                        user,
                                        &self.series[user],
                                        labels.map(|l| l[user]),
                                        params,
                                        assignments[user],
                                    )
                                })
                                .collect();
                            (c, (hi - lo) as u64)
                        });
                        (clients, log)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("enrollment thread panicked"))
                .unzip()
        });
        for log in logs {
            trace.absorb(log);
        }
        clients.into_iter().flatten().collect()
    }

    /// The generator's ground-truth shapes under this tenant's SAX
    /// parameters: each class template at the population's series length,
    /// z-normalized and Compressive-SAX encoded.
    pub fn ground_truth(&self) -> Res<Vec<SymbolSeq>> {
        let sax = SaxParams::new(self.spec.sax.0, self.spec.sax.1)?;
        Ok((0..SYMBOLS_CLASSES)
            .map(|c| series_shape(&symbols_template(c).sample(self.length), &sax))
            .collect())
    }
}

/// A finished session's extraction.
#[derive(Debug, Clone)]
pub enum Outcome {
    Unlabeled(Extraction),
    Labeled(LabeledExtraction),
}

impl Outcome {
    pub fn finish(session: Session, labeled: bool) -> Res<Self> {
        Ok(if labeled {
            Outcome::Labeled(session.finish_labeled()?)
        } else {
            Outcome::Unlabeled(session.finish()?)
        })
    }

    fn diagnostics(&self) -> &privshape::Diagnostics {
        match self {
            Outcome::Unlabeled(e) => &e.diagnostics,
            Outcome::Labeled(e) => &e.diagnostics,
        }
    }

    pub fn ell_s(&self) -> usize {
        self.diagnostics().ell_s
    }

    pub fn candidates_total(&self) -> usize {
        self.diagnostics().candidates_per_level.iter().sum()
    }

    /// Bit-identical shapes (with their frequencies), `ell_s` and
    /// per-level candidate counts.
    pub fn same_as(&self, other: &Outcome) -> bool {
        let shapes_equal = match (self, other) {
            (Outcome::Unlabeled(a), Outcome::Unlabeled(b)) => {
                a.shapes.len() == b.shapes.len()
                    && a.shapes.iter().zip(&b.shapes).all(|(x, y)| {
                        x.shape == y.shape && x.frequency.to_bits() == y.frequency.to_bits()
                    })
            }
            (Outcome::Labeled(a), Outcome::Labeled(b)) => {
                a.classes.len() == b.classes.len()
                    && a.classes.iter().zip(&b.classes).all(|(x, y)| {
                        x.label == y.label
                            && x.shapes.len() == y.shapes.len()
                            && x.shapes.iter().zip(&y.shapes).all(|(p, q)| {
                                p.shape == q.shape && p.frequency.to_bits() == q.frequency.to_bits()
                            })
                    })
            }
            _ => false,
        };
        let (a, b) = (self.diagnostics(), other.diagnostics());
        shapes_equal && a.ell_s == b.ell_s && a.candidates_per_level == b.candidates_per_level
    }

    /// Mean DTW distance from each ground-truth shape to its nearest
    /// extracted shape (`privshape_bench::quality::shape_quality`); for a
    /// labeled extraction every class's shapes are pooled.
    pub fn dtw(&self, ground_truth: &[SymbolSeq]) -> f64 {
        let extracted: Vec<SymbolSeq> = match self {
            Outcome::Unlabeled(e) => e.sequences(),
            Outcome::Labeled(e) => e
                .classes
                .iter()
                .flat_map(|c| c.shapes.iter().map(|s| s.shape.clone()))
                .collect(),
        };
        shape_quality(&extracted, ground_truth).map_or(f64::NAN, |q| q.dtw)
    }
}

/// Which of the four report-producing round kinds a broadcast is.
pub fn kind_index(spec: &RoundSpec) -> usize {
    match spec {
        RoundSpec::Length { .. } => 0,
        RoundSpec::SubShape { .. } => 1,
        RoundSpec::Expand { .. } => 2,
        RoundSpec::RefineUnlabeled { .. } | RoundSpec::RefineLabeled { .. } => 3,
    }
}

/// The serial twin's run: the reference outcome, what each round carried,
/// and its single-threaded wall time.
pub struct TwinRun {
    pub outcome: Outcome,
    /// `(round kind index, reports)` per broadcast round, in order.
    pub rounds: Vec<(usize, u64)>,
    /// Bytes of the twin's reports sealed `frame_reports` to a frame.
    pub sealed_bytes: u64,
    pub reports: u64,
    /// Wall time of the protocol run, sealing excluded.
    pub wall_s: f64,
}

/// Runs the tenant once on one thread through plain `Session::submit`.
pub fn serial_twin(tenant: &Tenant, frame_reports: usize) -> Res<TwinRun> {
    let started = Instant::now();
    let mut seal_s = 0.0;
    let mut session = tenant.session()?;
    let assignments = GroupAssignment::derive_all(session.params());
    let labels = tenant.labels();
    let mut clients: Vec<UserClient> = tenant
        .series
        .iter()
        .enumerate()
        .map(|(user, series)| {
            UserClient::with_assignment(
                user,
                series,
                labels.map(|l| l[user]),
                session.params(),
                assignments[user],
            )
        })
        .collect();
    let mut ws = DistanceWorkspace::new();
    let mut rounds = Vec::new();
    let (mut sealed_bytes, mut total) = (0u64, 0u64);
    while let Some(spec) = session.next_round()? {
        let mut entries: Vec<(usize, Report)> = Vec::new();
        for client in &mut clients {
            if let Some(report) = client.answer_with(&spec, &mut ws)? {
                entries.push((client.user_id(), report));
            }
        }
        let sealing = Instant::now();
        sealed_bytes += entries
            .chunks(frame_reports)
            .map(|chunk| seal_frame(chunk).len() as u64)
            .sum::<u64>();
        seal_s += sealing.elapsed().as_secs_f64();
        let reports: Vec<Report> = entries.into_iter().map(|(_, r)| r).collect();
        session.submit(&reports)?;
        rounds.push((kind_index(&spec), reports.len() as u64));
        total += reports.len() as u64;
    }
    let outcome = Outcome::finish(session, tenant.spec.labeled)?;
    Ok(TwinRun {
        outcome,
        rounds,
        sealed_bytes,
        reports: total,
        wall_s: started.elapsed().as_secs_f64() - seal_s,
    })
}
