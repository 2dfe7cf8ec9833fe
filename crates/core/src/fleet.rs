//! Single-process simulation of a client fleet.
//!
//! [`SimulatedFleet`] holds one [`UserClient`] per user and answers each
//! round broadcast in parallel (deterministically: per-user RNG streams
//! make results independent of thread count). This is the only place in
//! the crate where all users' data coexists — and even here each series is
//! sealed inside its own client; the drivers in `privshape.rs` and
//! `baseline.rs` only ever see [`RoundSpec`]s and [`Report`]s.

use crate::par;
use privshape_distance::{DistanceWorkspace, ScanStats};
use privshape_protocol::{
    chunk_of_rank, transform_batch, Audience, Chunk, Error, GroupAssignment, GroupId,
    ProtocolParams, Report, Result, RoundSpec, Session, ShardAggregator, UserClient,
};
use privshape_timeseries::TimeSeries;
use std::ops::Range;

/// Per-worker-thread state: the scoring workspace *and* a private shard
/// aggregator, side by side. Scoring and aggregation overlap — a worker
/// absorbs each of its clients' reports the moment it is produced instead
/// of parking them in a `Vec` for a second, barriered aggregation phase.
#[derive(Debug)]
struct FleetWorker {
    /// Persistent scoring workspace: DP row stack, index buffers, and
    /// batch buffer grow once and stay warm across every round of the
    /// session (never influences results — per-user RNG streams keep the
    /// fleet deterministic for any thread count).
    ws: DistanceWorkspace,
    /// This worker's shard of the open round's aggregate; `None` between
    /// rounds. Aggregation is exact integer addition, so per-worker
    /// sharding is unobservable in the final counts.
    shard: Option<ShardAggregator>,
}

/// A fleet of simulated user devices.
///
/// Devices are kept in roster order: each group's members in rank order,
/// group after group, then the unassigned users. A round addresses one
/// group or one chunk of it, which is one contiguous run of that order, so
/// a round visits only the devices it addresses.
#[derive(Debug)]
pub struct SimulatedFleet {
    clients: Vec<UserClient>,
    /// Each group's run in `clients`, indexed by `slot`.
    groups: [Range<usize>; 4],
    workers: Vec<FleetWorker>,
}

impl SimulatedFleet {
    /// Enrolls one client per series (with optional per-user labels),
    /// deriving all group assignments once and transforming every series
    /// on its own "device", in parallel.
    ///
    /// `threads` of 0 means the available parallelism, capped at 16, and
    /// an explicit count is clamped to [`privshape_protocol::MAX_THREADS`];
    /// the fleet enrolls and answers on that many threads. A series past the
    /// session's population (`user >= params.n`) enrolls unassigned, so no
    /// round addresses it, as does every series of a population too large
    /// to index ([`GroupAssignment::derive_all`]). A user without a label
    /// (`labels` shorter than `series`) enrolls with none, so a labeled
    /// round it is addressed by fails with [`Error::BadLabels`].
    pub fn new(
        series: &[TimeSeries],
        labels: Option<&[usize]>,
        params: &ProtocolParams,
        threads: usize,
    ) -> Self {
        let threads = par::resolve_threads(threads);
        let mut assignments = GroupAssignment::derive_all(params);
        assignments.resize(series.len(), GroupAssignment::default());
        // Enroll in user order, one contiguous run per thread, then move
        // the devices into roster order. Transforming the series in roster
        // order instead reads them in scattered order: on a 2-vCPU host
        // that made a 200k-user fleet's setup about 60% slower than
        // enrolling in user order and permuting.
        let mut clients = par::map_runs(series.len(), threads, |run| {
            let seqs = transform_batch(&series[run.clone()], &params.sax, &params.preprocessing);
            run.zip(seqs)
                .map(|(user, seq)| {
                    let label = labels.and_then(|l| l.get(user).copied());
                    UserClient::from_sequence(user, seq, label, params, assignments[user])
                })
                .collect()
        });
        let (places, groups) = roster(&assignments);
        permute(&mut clients, places);
        let n_workers = threads.min(clients.len().max(1));
        let workers = (0..n_workers)
            .map(|_| FleetWorker {
                ws: DistanceWorkspace::new(),
                shard: None,
            })
            .collect();
        Self {
            clients,
            groups,
            workers,
        }
    }

    /// Where the devices `audience` addresses lie in `clients`. A chunk's
    /// members are a run of the group's rank-ordered devices, since
    /// [`chunk_of_rank`] grows with the rank; a zero-chunk audience
    /// addresses no one.
    fn addressed(&self, audience: Audience) -> Range<usize> {
        let run = self.groups[slot(audience.group)].clone();
        let Some(Chunk { index, of }) = audience.chunk else {
            return run;
        };
        if of == 0 {
            return 0..0;
        }
        let devices = &self.clients[run.clone()];
        let chunk = |device: &UserClient| {
            let a = device.assignment();
            chunk_of_rank(a.rank, a.group_len, of)
        };
        let start = devices.partition_point(|d| chunk(d) < index);
        let end = devices.partition_point(|d| chunk(d) <= index);
        run.start + start..run.start + end
    }

    /// Number of enrolled clients.
    pub fn len(&self) -> usize {
        self.clients.len()
    }

    /// Scan counters accumulated across every worker workspace since the
    /// fleet was built: the rows scored by the table scorers. Purely
    /// observational.
    pub fn scan_stats(&self) -> ScanStats {
        let mut total = ScanStats::default();
        for worker in &self.workers {
            total.merge(&worker.ws.stats());
        }
        total
    }

    /// Whether the fleet is empty.
    pub fn is_empty(&self) -> bool {
        self.clients.is_empty()
    }

    /// Collects the reports of every client the round is addressed to, in
    /// user order. Only the addressed devices are visited, and each worker
    /// thread scores through its own persistent workspace, so steady-state
    /// rounds allocate nothing per candidate.
    ///
    /// This is the inspection path (smoke tests, explicit protocol
    /// loops); [`SimulatedFleet::drive`] uses the overlapped
    /// [`SimulatedFleet::answer_into_shard`] instead.
    pub fn answer(&mut self, spec: &RoundSpec) -> Result<Vec<Report>> {
        let run = self.addressed(spec.audience());
        let clients = &mut self.clients[run];
        let answers = par::map_slice_mut_scratch(clients, &mut self.workers, |client, worker| {
            Ok::<_, Error>(
                client
                    .answer_with(spec, &mut worker.ws)?
                    .map(|report| (client.user_id(), report)),
            )
        });
        let mut reports = Vec::with_capacity(answers.len());
        for answer in answers {
            if let Some(entry) = answer? {
                reports.push(entry);
            }
        }
        reports.sort_unstable_by_key(|&(user, _)| user);
        Ok(reports.into_iter().map(|(_, report)| report).collect())
    }

    /// Answers a round with scoring and aggregation overlapped: the
    /// addressed devices are split among the worker threads, and every
    /// worker scores its share through its persistent workspace and
    /// absorbs each report into its private shard aggregator as soon as it
    /// is produced — no "all clients scored" barrier before aggregation
    /// begins, and no round-sized report `Vec`. The per-worker shards then
    /// [`merge`](ShardAggregator::merge) into the round's single
    /// aggregate, bit-identical to collecting and submitting the reports
    /// serially.
    pub fn answer_into_shard(
        &mut self,
        spec: &RoundSpec,
        session: &Session,
    ) -> Result<ShardAggregator> {
        let template = session.shard_aggregator()?;
        for worker in &mut self.workers {
            worker.shard = Some(template.clone());
        }
        let run = self.addressed(spec.audience());
        let clients = &mut self.clients[run];
        let outcomes = par::map_slice_mut_scratch(clients, &mut self.workers, |client, worker| {
            match client.answer_with(spec, &mut worker.ws)? {
                Some(report) => worker
                    .shard
                    .as_mut()
                    .expect("shard installed for this round")
                    .absorb(&report),
                None => Ok(()),
            }
        });
        for outcome in outcomes {
            outcome?;
        }
        let mut merged = template;
        for shard in self.workers.iter_mut().filter_map(|w| w.shard.take()) {
            merged.merge(&shard)?;
        }
        Ok(merged)
    }

    /// Drives a session to completion: broadcast, answer-and-aggregate
    /// (overlapped, per worker), submit the merged shard, repeat. The
    /// session is ready for `finish`/`finish_labeled` afterwards.
    pub fn drive(&mut self, session: &mut Session) -> Result<()> {
        while let Some(spec) = session.next_round()? {
            let shard = self.answer_into_shard(&spec, session)?;
            session.submit_shard(&shard)?;
        }
        Ok(())
    }
}

/// Moves every `items[i]` to `items[dest[i]]` in place, one cycle of the
/// permutation `dest` at a time.
fn permute<T>(items: &mut [T], mut dest: Vec<usize>) {
    for i in 0..items.len() {
        while dest[i] != i {
            let j = dest[i];
            items.swap(i, j);
            dest.swap(i, j);
        }
    }
}

/// A group's index in the fleet's `groups`.
fn slot(group: GroupId) -> usize {
    match group {
        GroupId::Pa => 0,
        GroupId::Pb => 1,
        GroupId::Pc => 2,
        GroupId::Pd => 3,
    }
}

/// Every enrolled user's place in roster order — each group's members in
/// rank order, group after group, then the unassigned — and each group's
/// run in it, by one counting pass: every member owns the slot at its
/// group's offset plus its rank. A member beyond the enrolled users leaves
/// its slot empty, and empty slots are squeezed out.
fn roster(assignments: &[GroupAssignment]) -> (Vec<usize>, [Range<usize>; 4]) {
    let mut group_len = [0usize; 4];
    let mut enrolled = [0usize; 4];
    for a in assignments {
        if let Some(group) = a.group {
            group_len[slot(group)] = a.group_len;
            enrolled[slot(group)] += 1;
        }
    }
    let mut offset = [0usize; 4];
    let mut groups: [Range<usize>; 4] = Default::default();
    let (mut slots, mut end) = (0, 0);
    for g in 0..4 {
        offset[g] = slots;
        slots += group_len[g];
        groups[g] = end..end + enrolled[g];
        end += enrolled[g];
    }
    let mut order = vec![usize::MAX; slots];
    let mut unassigned = Vec::new();
    for (user, a) in assignments.iter().enumerate() {
        match a.group {
            Some(group) => order[offset[slot(group)] + a.rank] = user,
            None => unassigned.push(user),
        }
    }
    order.retain(|&user| user != usize::MAX);
    order.extend(unassigned);
    let mut places = vec![0usize; order.len()];
    for (place, user) in order.into_iter().enumerate() {
        places[user] = place;
    }
    (places, groups)
}

#[cfg(test)]
mod tests {
    use super::*;
    use privshape_ldp::Epsilon;
    use privshape_protocol::{BaselineConfig, PopulationSplit, PrivShapeConfig};
    use privshape_timeseries::SaxParams;

    fn series(n: usize) -> Vec<TimeSeries> {
        (0..n)
            .map(|i| {
                let mut v = vec![-1.0 + (i % 7) as f64 * 1e-3; 20];
                v.extend(vec![1.0; 20]);
                TimeSeries::new(v).unwrap()
            })
            .collect()
    }

    #[test]
    fn overlapped_shard_answer_equals_collect_then_absorb() {
        let mut cfg = PrivShapeConfig::new(
            Epsilon::new(4.0).unwrap(),
            1,
            SaxParams::new(10, 3).unwrap(),
        );
        cfg.length_range = (1, 4);
        let data = series(500);
        // Two identical fleets; one answers into a shard, the other
        // collects reports that are absorbed serially.
        let mut session = Session::privshape(cfg, data.len()).unwrap();
        let mut overlapped = SimulatedFleet::new(&data, None, session.params(), 4);
        let mut collected = SimulatedFleet::new(&data, None, session.params(), 4);
        while let Some(spec) = session.next_round().unwrap() {
            let shard = overlapped.answer_into_shard(&spec, &session).unwrap();
            let mut serial = session.shard_aggregator().unwrap();
            for report in collected.answer(&spec).unwrap() {
                serial.absorb(&report).unwrap();
            }
            assert_eq!(shard, serial, "round {}", spec.name());
            session.submit_shard(&shard).unwrap();
        }
        session.finish().unwrap();
    }

    /// Series of a few distinct zig-zag shapes, so the trie grows deep
    /// enough for several chunked expansion rounds.
    fn varied_series(n: usize) -> Vec<TimeSeries> {
        (0..n)
            .map(|i| {
                let v = (0..48)
                    .map(|t| ((t / (4 + i % 5)) % 3) as f64 + (i % 11) as f64 * 1e-3)
                    .collect();
                TimeSeries::new(v).unwrap()
            })
            .collect()
    }

    /// Drives `session` to the end with fleets of 1, 2, 5 and 0 (the
    /// available parallelism) threads answering into shards and one fleet
    /// collecting reports, against every device visited in user order and
    /// absorbed serially. Returns the chunked rounds whose group does not
    /// divide evenly.
    fn assert_addressed_slices_match_every_device(
        mut session: Session,
        data: &[TimeSeries],
        labels: Option<&[usize]>,
    ) -> usize {
        let params = session.params().clone();
        let assignments = GroupAssignment::derive_all(&params);
        let mut devices: Vec<UserClient> = data
            .iter()
            .enumerate()
            .map(|(user, s)| {
                let label = labels.map(|l| l[user]);
                UserClient::with_assignment(user, s, label, &params, assignments[user])
            })
            .collect();
        let mut fleets: Vec<SimulatedFleet> = [1, 2, 5, 0, 3]
            .into_iter()
            .map(|threads| SimulatedFleet::new(data, labels, &params, threads))
            .collect();
        let mut ws = DistanceWorkspace::new();
        let mut uneven = 0;
        while let Some(spec) = session.next_round().unwrap() {
            let audience = spec.audience();
            if let Some(chunk) = audience.chunk {
                let members = assignments
                    .iter()
                    .filter(|a| a.group == Some(audience.group))
                    .count();
                uneven += usize::from(members % chunk.of != 0);
            }
            let mut want = Vec::new();
            for device in &mut devices {
                want.extend(device.answer_with(&spec, &mut ws).unwrap());
            }
            let mut serial = session.shard_aggregator().unwrap();
            for report in &want {
                serial.absorb(report).unwrap();
            }
            let (collecting, shard_fleets) = fleets.split_last_mut().unwrap();
            for fleet in shard_fleets {
                let shard = fleet.answer_into_shard(&spec, &session).unwrap();
                assert_eq!(shard, serial, "round {}", spec.name());
            }
            assert_eq!(
                collecting.answer(&spec).unwrap(),
                want,
                "round {}",
                spec.name()
            );
            session.submit_shard(&serial).unwrap();
        }
        uneven
    }

    #[test]
    fn addressed_slices_equal_every_device_with_unassigned_users() {
        // The fractions sum to 0.9: a tenth of the users is in no group.
        let mut cfg =
            PrivShapeConfig::new(Epsilon::new(4.0).unwrap(), 2, SaxParams::new(4, 3).unwrap());
        cfg.length_range = (1, 12);
        cfg.split = PopulationSplit {
            pa: 0.1,
            pb: 0.2,
            pc: 0.4,
            pd: 0.2,
        };
        let data = varied_series(701);
        let session = Session::privshape(cfg.clone(), data.len()).unwrap();
        let assignments = GroupAssignment::derive_all(session.params());
        assert!(assignments.iter().any(|a| a.group.is_none()));
        let uneven = assert_addressed_slices_match_every_device(session, &data, None);
        assert!(uneven > 0, "no chunked round split its group unevenly");
        // A fleet of fewer devices than the population leaves gaps in the
        // roster; the rounds still reach exactly the enrolled members.
        let session = Session::privshape(cfg, data.len()).unwrap();
        assert_addressed_slices_match_every_device(session, &data[..450], None);
    }

    #[test]
    fn addressed_slices_equal_every_device_for_labeled_baseline() {
        let mut cfg =
            BaselineConfig::new(Epsilon::new(4.0).unwrap(), 2, SaxParams::new(4, 3).unwrap());
        cfg.length_range = (1, 12);
        let data = varied_series(613);
        let labels: Vec<usize> = (0..data.len()).map(|i| i % 3).collect();
        let session = Session::baseline_labeled(cfg, data.len(), 3).unwrap();
        let uneven = assert_addressed_slices_match_every_device(session, &data, Some(&labels));
        assert!(uneven > 0, "no chunked round split its group unevenly");
    }

    #[test]
    fn series_past_the_population_enroll_unassigned() {
        let mut cfg = PrivShapeConfig::new(
            Epsilon::new(4.0).unwrap(),
            1,
            SaxParams::new(10, 3).unwrap(),
        );
        cfg.length_range = (1, 4);
        let data = series(40);
        let mut session = Session::privshape(cfg, 30).unwrap();
        let mut fleet = SimulatedFleet::new(&data, None, session.params(), 2);
        let mut enrolled = SimulatedFleet::new(&data[..30], None, session.params(), 2);
        assert_eq!(fleet.len(), 40);
        while let Some(spec) = session.next_round().unwrap() {
            let shard = fleet.answer_into_shard(&spec, &session).unwrap();
            let want = enrolled.answer_into_shard(&spec, &session).unwrap();
            assert_eq!(shard, want, "round {}", spec.name());
            session.submit_shard(&shard).unwrap();
        }
        session.finish().unwrap();
    }

    #[test]
    fn unindexable_populations_enroll_unassigned() {
        let cfg = PrivShapeConfig::new(
            Epsilon::new(4.0).unwrap(),
            1,
            SaxParams::new(10, 3).unwrap(),
        );
        let params = privshape_protocol::ProtocolParams::privshape(&cfg, usize::MAX);
        let fleet = SimulatedFleet::new(&series(3), None, &params, 2);
        assert_eq!(fleet.len(), 3);
        assert!(fleet.clients.iter().all(|c| c.assignment().group.is_none()));
    }

    #[test]
    fn an_unbounded_thread_count_starts_at_most_the_ceiling() {
        let cfg = PrivShapeConfig::new(
            Epsilon::new(4.0).unwrap(),
            1,
            SaxParams::new(10, 3).unwrap(),
        );
        let session = Session::privshape(cfg, 100).unwrap();
        let fleet = SimulatedFleet::new(&series(100), None, session.params(), usize::MAX);
        assert_eq!(fleet.workers.len(), privshape_protocol::MAX_THREADS);
    }

    #[test]
    fn missing_labels_fail_the_labeled_round() {
        let mut cfg = PrivShapeConfig::new(
            Epsilon::new(4.0).unwrap(),
            1,
            SaxParams::new(10, 3).unwrap(),
        );
        cfg.length_range = (1, 4);
        let data = series(40);
        let labels = vec![0; 10];
        let mut session = Session::privshape_labeled(cfg, data.len(), 2).unwrap();
        let mut fleet = SimulatedFleet::new(&data, Some(&labels), session.params(), 2);
        assert!(matches!(
            fleet.drive(&mut session),
            Err(Error::BadLabels(_))
        ));
    }

    #[test]
    fn malformed_audiences_address_no_one() {
        let cfg = PrivShapeConfig::new(
            Epsilon::new(4.0).unwrap(),
            1,
            SaxParams::new(10, 3).unwrap(),
        );
        let data = series(100);
        let session = Session::privshape(cfg, data.len()).unwrap();
        let mut fleet = SimulatedFleet::new(&data, None, session.params(), 2);
        for (index, of) in [(0, 0), (3, 0), (2, 2), (usize::MAX, 3)] {
            let spec = RoundSpec::Length {
                audience: Audience::chunk(GroupId::Pa, index, of),
                range: (1, 4),
                oracle: Default::default(),
            };
            assert!(fleet.addressed(spec.audience()).is_empty());
            assert_eq!(fleet.answer(&spec).unwrap(), Vec::new());
        }
    }

    #[test]
    fn fleet_drives_a_session_end_to_end() {
        let mut cfg = PrivShapeConfig::new(
            Epsilon::new(4.0).unwrap(),
            1,
            SaxParams::new(10, 3).unwrap(),
        );
        cfg.length_range = (1, 4);
        let data = series(400);
        let mut session = Session::privshape(cfg, data.len()).unwrap();
        let mut fleet = SimulatedFleet::new(&data, None, session.params(), 4);
        assert_eq!(fleet.len(), 400);
        assert!(!fleet.is_empty());
        fleet.drive(&mut session).unwrap();
        let out = session.finish().unwrap();
        assert_eq!(out.shapes[0].shape.to_string(), "ac");
    }
}
