//! `facade-deep`: the in-process offline path `PrivShape::run_labeled`
//! takes — `Session` driven by `SimulatedFleet` — at the paper's Symbols
//! parameters, so candidate scoring in expansion and labeled refinement
//! does most of the work and no wire or ingest code runs.

use crate::tenant::{kind_index, Mechanism, Outcome, Spec, Tenant, TwinRun};
use crate::trace::Trace;
use crate::{Res, Sample, Workload};
use privshape::protocol::LengthOracle;
use privshape::SimulatedFleet;
use std::time::Instant;

const SPEC: Spec = Spec {
    name: "privshape-labeled",
    mechanism: Mechanism::PrivShape,
    labeled: true,
    eps: 4.0,
    k: 6,
    sax: (25, 6),
    oracle: LengthOracle::Grr,
    length_range: (1, 15),
};

const USERS: usize = 200_000;
const LENGTH: usize = 128;
/// Reports per frame when sizing what these users would upload.
const FRAME_REPORTS: usize = 256;

const FLEET_LAYERS: [&str; 4] = [
    "fleet.answer.length",
    "fleet.answer.subshape",
    "fleet.answer.expand",
    "fleet.answer.refine",
];

pub struct FacadeDeep {
    tenants: Vec<Tenant>,
    threads: usize,
    /// The twin's sealed bytes and report count (the facade sends none).
    upload: (u64, u64),
}

impl FacadeDeep {
    pub fn new(seed: u64, users: Option<usize>, threads: usize) -> Self {
        let tenant = Tenant::generate(SPEC, users.unwrap_or(USERS), LENGTH, seed, 0);
        Self {
            tenants: vec![tenant],
            threads,
            upload: (0, 0),
        }
    }
}

impl Workload for FacadeDeep {
    fn tenants(&self) -> &[Tenant] {
        &self.tenants
    }

    fn frame_reports(&self) -> usize {
        FRAME_REPORTS
    }

    fn calibrate(&mut self, twins: &[TwinRun]) -> Res<()> {
        self.upload = (twins[0].sealed_bytes, twins[0].reports);
        Ok(())
    }

    fn sample(&self, mut trace: Trace) -> Res<Sample> {
        let tenant = &self.tenants[0];
        let n = tenant.users();

        let setup_started = Instant::now();
        let setup = trace.open("setup", None, 1, 0);
        let mut session = trace.time("session.new", setup, 1, 0, || tenant.session())?;
        let enroll = trace.open("client.enroll", setup, 1, 0);
        let mut fleet = SimulatedFleet::new(
            &tenant.series,
            tenant.labels(),
            session.params(),
            self.threads,
        );
        trace.close(enroll, n as u64);
        trace.close(setup, 0);
        let setup_s = setup_started.elapsed().as_secs_f64();

        let extract_started = Instant::now();
        let root = trace.open("extract", None, 1, 0);
        let (mut rounds, mut accepted) = (0u32, 0u64);
        loop {
            let next = trace.open("session.next_round", root, 1, rounds);
            let spec = session.next_round()?;
            trace.close(next, 0);
            let Some(spec) = spec else { break };
            rounds += 1;
            let answer = trace.open(FLEET_LAYERS[kind_index(&spec)], root, 1, rounds);
            let shard = fleet.answer_into_shard(&spec, &session)?;
            trace.close(answer, shard.reports());
            accepted += shard.reports();
            trace.time("session.submit_shard", root, 1, rounds, || {
                session.submit_shard(&shard)
            })?;
        }
        // Built-in probe: a submit after the last round must be refused.
        let probe_refused = trace.time("session.probe", root, 1, rounds, || {
            session.submit(&[]).is_err()
        });
        if !probe_refused {
            return Err("a submit after the last round was accepted".into());
        }
        let outcome = trace.time("session.finish", root, 1, rounds, || {
            Outcome::finish(session, true)
        })?;
        trace.close(root, 0);
        let extract_s = extract_started.elapsed().as_secs_f64();

        let mut sample = Sample::new(setup_s, extract_s, trace, root);
        sample.accepted = accepted;
        sample.answering_users = self.upload.1;
        sample.upload_bytes = self.upload.0;
        // Round transitions (every `next_round`, the final one too) plus
        // the probe; the probe is the one failure.
        sample.ops = u64::from(rounds) + 2;
        sample.failures = 1;
        sample.users = n as u64;
        let exact = &mut sample.exact;
        exact.insert("rounds", u64::from(rounds));
        exact.insert("distance.rows", fleet.scan_stats().rows);
        exact.insert("client.reports", accepted);
        exact.insert("client.visits", n as u64 * u64::from(rounds));
        exact.insert("trie.levels", outcome.ell_s() as u64);
        exact.insert("trie.candidates_total", outcome.candidates_total() as u64);
        sample.outcomes.push(outcome);
        Ok(sample)
    }
}
