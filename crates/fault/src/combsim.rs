//! PPSFP combinational fault simulation (64 patterns per pass, single fault,
//! event-driven forward propagation) — the engine behind the full-scan
//! baseline of Table 3.
//!
//! The fault list is sharded across worker threads ([`ParallelPolicy`]) in
//! contiguous ranges; each worker evaluates the good machine on the
//! compiled kernel one 64-pattern block at a time and propagates its
//! faults with its own scratchpad (see `combkernel`). Every fault sees the
//! blocks in order, and detection/syndrome slots are disjoint per shard,
//! so the parallel run is bit-identical to the serial one (first
//! detection = lowest absolute pattern index).

use soctest_netlist::{NetId, NetlistError};

use crate::{FaultSimResult, FaultSimStats, FaultUniverse, ParallelPolicy, Syndrome};

/// A set of input patterns for a combinational view, stored bit-parallel:
/// 64 patterns per block, one word per input position.
///
/// Input positions follow [`Netlist::primary_inputs`] order of the fault
/// view — for a scan view this means real primary inputs first, then the
/// pseudo-primary inputs contributed by scan cells.
#[derive(Debug, Clone, Default)]
pub struct PatternSet {
    width: usize,
    count: usize,
    /// `blocks[b][i]` = word of input `i` for patterns `64b..64b+63`.
    blocks: Vec<Vec<u64>>,
}

impl PatternSet {
    /// An empty pattern set over `width` input positions.
    pub fn new(width: usize) -> Self {
        PatternSet {
            width,
            count: 0,
            blocks: Vec::new(),
        }
    }

    /// Builds a set from explicit rows (`rows[p][i]` = input `i` of pattern
    /// `p`).
    ///
    /// # Panics
    ///
    /// Panics if rows have inconsistent widths.
    pub fn from_rows(width: usize, rows: &[Vec<bool>]) -> Self {
        let mut set = PatternSet::new(width);
        for row in rows {
            set.push(row);
        }
        set
    }

    /// Appends one pattern.
    ///
    /// # Panics
    ///
    /// Panics if `row.len() != width`.
    pub fn push(&mut self, row: &[bool]) {
        assert_eq!(row.len(), self.width, "pattern width");
        let lane = self.count % 64;
        if lane == 0 {
            self.blocks.push(vec![0u64; self.width]);
        }
        let block = &mut self.blocks[self.count / 64];
        for (i, &b) in row.iter().enumerate() {
            if b {
                block[i] |= 1u64 << lane;
            }
        }
        self.count += 1;
    }

    /// Number of patterns.
    pub fn len(&self) -> usize {
        self.count
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Number of input positions.
    pub fn width(&self) -> usize {
        self.width
    }

    /// The 64-pattern blocks.
    pub fn blocks(&self) -> &[Vec<u64>] {
        &self.blocks
    }

    /// Lane mask of valid patterns within block `b`.
    pub(crate) fn lane_mask(&self, b: usize) -> u64 {
        let full = self.count / 64;
        if b < full {
            u64::MAX
        } else {
            let rem = self.count % 64;
            (1u64 << rem) - 1
        }
    }

    /// Reads pattern `p` back as a row of booleans.
    pub fn row(&self, p: usize) -> Vec<bool> {
        let (b, lane) = (p / 64, p % 64);
        (0..self.width)
            .map(|i| (self.blocks[b][i] >> lane) & 1 == 1)
            .collect()
    }
}

/// Incremental state of a resumed combinational campaign: detection and
/// syndrome state carried across [`CombFaultSim::resume_stuck_at`] /
/// [`CombFaultSim::resume_transition`] calls, plus the running pattern
/// offset so syndrome events and detection indices stay absolute.
///
/// Syndromes accumulate across resumed calls with absolute pattern indices,
/// so a campaign split into arbitrary batches digests to exactly the same
/// per-fault syndromes (and hence the same equivalent fault classes) as a
/// single-batch run.
#[derive(Debug, Clone)]
pub struct CombCampaign {
    /// First-detection pattern index per fault (absolute across batches).
    pub detection: Vec<Option<u64>>,
    /// Per-fault syndromes (present when the simulator collects them).
    pub syndromes: Option<Vec<Syndrome>>,
    /// Patterns applied so far — the base index of the next batch.
    pub applied: u64,
    pub(crate) stats: FaultSimStats,
}

impl CombCampaign {
    /// Scheduling counters accumulated so far.
    pub fn stats(&self) -> &FaultSimStats {
        &self.stats
    }

    /// The coverage curve accumulated so far. Detection indices are
    /// absolute across resumed batches, so a resumed campaign's curve is
    /// identical to a single-batch one.
    pub fn curve(&self) -> soctest_obs::CoverageCurve {
        soctest_obs::CoverageCurve::from_detection(&self.detection, self.applied)
    }

    /// Consumes the campaign into a [`FaultSimResult`].
    pub fn into_result(self) -> FaultSimResult {
        FaultSimResult {
            detection: self.detection,
            cycles: self.applied,
            wall: self.stats.wall,
            syndromes: self.syndromes,
            stats: self.stats,
        }
    }
}

/// PPSFP fault simulator over a combinational view.
///
/// Flip-flops, if present in the view, are treated as constant-0 sources;
/// scan flows should pass a scan view where state elements have been
/// converted to pseudo-ports (see `soctest-atpg`).
#[derive(Debug)]
pub struct CombFaultSim<'a> {
    pub(crate) universe: &'a FaultUniverse,
    pub(crate) collect_syndromes: bool,
    pub(crate) parallel: ParallelPolicy,
}

impl<'a> CombFaultSim<'a> {
    /// Creates a simulator over a fault universe.
    pub fn new(universe: &'a FaultUniverse) -> Self {
        CombFaultSim {
            universe,
            collect_syndromes: false,
            parallel: ParallelPolicy::default(),
        }
    }

    /// Enables per-fault syndrome collection (disables fault dropping).
    pub fn with_syndromes(mut self) -> Self {
        self.collect_syndromes = true;
        self
    }

    /// Sets the worker-thread policy (default: all cores).
    pub fn with_parallelism(mut self, parallel: ParallelPolicy) -> Self {
        self.parallel = parallel;
        self
    }

    /// Starts an empty campaign for this simulator's universe, ready for
    /// [`CombFaultSim::resume_stuck_at`] / [`CombFaultSim::resume_transition`].
    pub fn campaign(&self) -> CombCampaign {
        CombCampaign {
            detection: vec![None; self.universe.len()],
            syndromes: self
                .collect_syndromes
                .then(|| vec![Syndrome::new(); self.universe.len()]),
            applied: 0,
            stats: FaultSimStats {
                threads: self.parallel.workers_for(self.universe.len()),
                ..FaultSimStats::default()
            },
        }
    }

    /// Runs stuck-at fault simulation over the pattern set.
    ///
    /// # Errors
    ///
    /// Returns a levelization error if the view is cyclic, and
    /// [`NetlistError::WidthMismatch`] if the pattern width is not the
    /// view's input count.
    pub fn run_stuck_at(&self, patterns: &PatternSet) -> Result<FaultSimResult, NetlistError> {
        let mut campaign = self.campaign();
        self.resume_stuck_at(patterns, &mut campaign)?;
        Ok(campaign.into_result())
    }

    /// Runs transition fault simulation in launch-on-capture style.
    ///
    /// Every pattern is applied twice: the first evaluation launches
    /// transitions, then `state_map` (pairs of pseudo-input net and the
    /// pseudo-output net that feeds it, i.e. the scan cell's `q`/`d`) is
    /// used to advance the state by one functional cycle, and the second
    /// evaluation captures. A slow transition at the fault site holds the
    /// launch value into the capture cycle.
    ///
    /// # Errors
    ///
    /// Returns a levelization error if the view is cyclic, and
    /// [`NetlistError::WidthMismatch`] if the pattern width is not the
    /// view's input count.
    pub fn run_transition(
        &self,
        patterns: &PatternSet,
        state_map: &[(NetId, NetId)],
    ) -> Result<FaultSimResult, NetlistError> {
        let mut campaign = self.campaign();
        self.resume_transition(patterns, state_map, &mut campaign)?;
        Ok(campaign.into_result())
    }

    /// Continues a stuck-at campaign over an additional pattern batch,
    /// carrying detection *and* syndrome state forward; faults already
    /// marked detected are skipped (unless syndromes are being collected).
    ///
    /// This is the hook the ATPG loop uses: generate a pattern block, fault
    /// simulate it, drop what it detects, and target the next survivor.
    ///
    /// # Errors
    ///
    /// Returns a levelization error if the view is cyclic, and
    /// [`NetlistError::WidthMismatch`] if the pattern width is not the
    /// view's input count or the campaign was not started for this
    /// universe (its detection — or, when this simulator collects
    /// syndromes, its syndrome — slots are not one per fault).
    pub fn resume_stuck_at(
        &self,
        patterns: &PatternSet,
        campaign: &mut CombCampaign,
    ) -> Result<(), NetlistError> {
        self.run(patterns, None, campaign)
    }

    /// Continues a transition campaign; see [`CombFaultSim::resume_stuck_at`].
    ///
    /// # Errors
    ///
    /// Returns a levelization error if the view is cyclic, and
    /// [`NetlistError::WidthMismatch`] if the pattern width is not the
    /// view's input count or the campaign was not started for this
    /// universe (its detection — or, when this simulator collects
    /// syndromes, its syndrome — slots are not one per fault).
    pub fn resume_transition(
        &self,
        patterns: &PatternSet,
        state_map: &[(NetId, NetId)],
        campaign: &mut CombCampaign,
    ) -> Result<(), NetlistError> {
        self.run(patterns, Some(state_map), campaign)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use soctest_netlist::{ModuleBuilder, Netlist};

    /// A redundancy-free full adder: every collapsed fault is testable.
    fn comb_block() -> Netlist {
        let mut mb = ModuleBuilder::new("fa");
        let a = mb.input("a");
        let b = mb.input("b");
        let cin = mb.input("cin");
        let ab = mb.xor(a, b);
        let s = mb.xor(ab, cin);
        let m1 = mb.and(a, b);
        let m2 = mb.and(ab, cin);
        let cout = mb.or(m1, m2);
        mb.output("s", s);
        mb.output("cout", cout);
        mb.finish().unwrap()
    }

    fn exhaustive(width: u32) -> Vec<Vec<bool>> {
        (0..1u64 << width)
            .map(|v| (0..width as usize).map(|i| (v >> i) & 1 == 1).collect())
            .collect()
    }

    #[test]
    fn exhaustive_gets_full_coverage() {
        let nl = comb_block();
        let u = FaultUniverse::stuck_at(&nl);
        let pats = PatternSet::from_rows(3, &exhaustive(3));
        let r = CombFaultSim::new(&u).run_stuck_at(&pats).unwrap();
        assert_eq!(
            r.coverage_percent(),
            100.0,
            "undetected: {:?}",
            r.undetected()
                .iter()
                .map(|&i| u.describe(i))
                .collect::<Vec<_>>()
        );
        assert_eq!(r.stats.windows, 1);
        assert_eq!(r.stats.survivors.last(), Some(&0));
        assert!(r.stats.threads >= 1);
    }

    #[test]
    fn a_detection_on_the_last_pattern_of_a_block_is_not_a_survivor() {
        // 63 all-zero patterns, then all-ones as pattern 63: faults only
        // the all-ones pattern excites are first detected on the block's
        // last pattern and must not count as survivors of that block.
        let nl = comb_block();
        let u = FaultUniverse::stuck_at(&nl);
        let mut rows = vec![vec![false; 3]; 63];
        rows.push(vec![true; 3]);
        let r = CombFaultSim::new(&u)
            .run_stuck_at(&PatternSet::from_rows(3, &rows))
            .unwrap();
        assert!(r.detection.contains(&Some(63)));
        assert_eq!(r.stats.survivors, vec![r.undetected().len()]);
    }

    #[test]
    fn partial_patterns_get_partial_coverage() {
        let nl = comb_block();
        let u = FaultUniverse::stuck_at(&nl);
        let pats = PatternSet::from_rows(3, &exhaustive(3)[..2]);
        let r = CombFaultSim::new(&u).run_stuck_at(&pats).unwrap();
        assert!(r.coverage_percent() > 0.0);
        assert!(r.coverage_percent() < 100.0);
    }

    #[test]
    fn detection_index_is_a_pattern_number() {
        let nl = comb_block();
        let u = FaultUniverse::stuck_at(&nl);
        let pats = PatternSet::from_rows(3, &exhaustive(3));
        let r = CombFaultSim::new(&u).run_stuck_at(&pats).unwrap();
        for d in r.detection.iter().flatten() {
            assert!(*d < 8);
        }
    }

    #[test]
    fn syndromes_build_a_matrix() {
        let nl = comb_block();
        let u = FaultUniverse::stuck_at(&nl);
        let pats = PatternSet::from_rows(3, &exhaustive(3));
        let r = CombFaultSim::new(&u)
            .with_syndromes()
            .run_stuck_at(&pats)
            .unwrap();
        let m = crate::DiagnosticMatrix::from_syndromes(r.syndromes.as_ref().unwrap());
        assert_eq!(m.detected(), r.detected_count());
        // Exhaustive patterns distinguish collapsed faults well.
        assert!(m.stats().mean_size < 2.5);
    }

    #[test]
    fn pattern_set_round_trips() {
        let rows = exhaustive(4);
        let pats = PatternSet::from_rows(4, &rows);
        assert_eq!(pats.len(), 16);
        for (i, row) in rows.iter().enumerate() {
            assert_eq!(&pats.row(i), row);
        }
    }

    #[test]
    fn lane_mask_limits_partial_blocks() {
        let pats = PatternSet::from_rows(2, &vec![vec![true, false]; 3]);
        assert_eq!(pats.lane_mask(0), 0b111);
    }

    #[test]
    fn transition_mode_on_registered_block() {
        // A scan view whose logic is fed from the state: launching a
        // pattern and capturing one functional cycle later excites real
        // transitions inside the adder.
        let mut vb = ModuleBuilder::new("pipe_view");
        let ppi = vb.input_bus("ppi", 6);
        let a: Vec<_> = ppi[..3].to_vec();
        let b: Vec<_> = ppi[3..].to_vec();
        let s = vb.add(&a, &b);
        let nb = vb.not_w(&b);
        let mut ppo = s.sum.clone();
        ppo.extend(nb);
        vb.output_bus("ppo", &ppo);
        let view_src = vb.finish().unwrap();
        let u = FaultUniverse::transition(&view_src);
        let map: Vec<(NetId, NetId)> = view_src
            .port("ppi")
            .unwrap()
            .bits()
            .iter()
            .copied()
            .zip(u.view().port("ppo").unwrap().bits().iter().copied())
            .collect();
        let pats = PatternSet::from_rows(6, &exhaustive(6));
        let r = CombFaultSim::new(&u).run_transition(&pats, &map).unwrap();
        assert!(
            r.coverage_percent() > 50.0,
            "got {:.1}%",
            r.coverage_percent()
        );
    }

    /// A wider registered-style scan view (ppi/ppo buses) so fault shards
    /// actually span threads and transition mode has a real state map.
    fn wide_view() -> Netlist {
        let mut mb = ModuleBuilder::new("wide_view");
        let ppi = mb.input_bus("ppi", 10);
        let a: Vec<_> = ppi[..5].to_vec();
        let b: Vec<_> = ppi[5..].to_vec();
        let s = mb.add(&a, &b);
        let nb = mb.not_w(&b);
        let (mn, _) = mb.min_u(&s.sum, &nb);
        let mut ppo = s.sum.clone();
        ppo.extend(mn);
        mb.output_bus("ppo", &ppo);
        mb.finish().unwrap()
    }

    fn wide_state_map(nl: &Netlist) -> Vec<(NetId, NetId)> {
        nl.port("ppi")
            .unwrap()
            .bits()
            .iter()
            .copied()
            .zip(nl.port("ppo").unwrap().bits().iter().copied())
            .collect()
    }

    #[test]
    fn parallel_stuck_at_is_bit_identical_to_serial() {
        let nl = wide_view();
        let u = FaultUniverse::stuck_at(&nl);
        let pats = PatternSet::from_rows(10, &exhaustive(10)[..200]);
        let run = |threads: usize| {
            CombFaultSim::new(&u)
                .with_syndromes()
                .with_parallelism(ParallelPolicy::with_threads(threads))
                .run_stuck_at(&pats)
                .unwrap()
        };
        let serial = run(1);
        assert!(serial.detected_count() > 0);
        for threads in [2, 3, 8] {
            let par = run(threads);
            assert_eq!(par.detection, serial.detection, "threads={threads}");
            assert_eq!(par.syndromes, serial.syndromes, "threads={threads}");
            assert_eq!(par.stats.windows, serial.stats.windows);
            assert_eq!(par.stats.survivors, serial.stats.survivors);
            assert_eq!(par.stats.good_cycles, serial.stats.good_cycles);
            assert_eq!(par.stats.faulty_cycles, serial.stats.faulty_cycles);
        }
    }

    #[test]
    fn parallel_transition_is_bit_identical_to_serial() {
        let nl = wide_view();
        let u = FaultUniverse::transition(&nl);
        let map = wide_state_map(&nl);
        let pats = PatternSet::from_rows(10, &exhaustive(10)[..200]);
        let run = |threads: usize| {
            CombFaultSim::new(&u)
                .with_syndromes()
                .with_parallelism(ParallelPolicy::with_threads(threads))
                .run_transition(&pats, &map)
                .unwrap()
        };
        let serial = run(1);
        assert!(serial.detected_count() > 0);
        for threads in [2, 5] {
            let par = run(threads);
            assert_eq!(par.detection, serial.detection, "threads={threads}");
            assert_eq!(par.syndromes, serial.syndromes, "threads={threads}");
        }
    }

    #[test]
    fn resumed_batches_match_single_run_detection_and_syndromes() {
        // Regression: syndromes used to be recorded with the *local* block
        // index and discarded between resumed calls, so incremental runs
        // corrupted the equivalent-fault-class computation. Split at a
        // non-multiple of 64 to exercise absolute indexing.
        let nl = wide_view();
        let u = FaultUniverse::stuck_at(&nl);
        let rows = exhaustive(10);
        let sim = CombFaultSim::new(&u).with_syndromes();

        let single = sim
            .run_stuck_at(&PatternSet::from_rows(10, &rows[..300]))
            .unwrap();

        let mut campaign = sim.campaign();
        for batch in [&rows[..100], &rows[100..171], &rows[171..300]] {
            sim.resume_stuck_at(&PatternSet::from_rows(10, batch), &mut campaign)
                .unwrap();
        }
        // The streaming curve after the final batch equals the
        // single-batch curve step-for-step (absolute indices).
        assert_eq!(campaign.curve(), single.curve());
        let resumed = campaign.into_result();

        assert_eq!(resumed.detection, single.detection);
        assert_eq!(resumed.syndromes, single.syndromes);
        assert_eq!(resumed.curve(), single.curve());
        let classes_single =
            crate::DiagnosticMatrix::from_syndromes(single.syndromes.as_ref().unwrap());
        let classes_resumed =
            crate::DiagnosticMatrix::from_syndromes(resumed.syndromes.as_ref().unwrap());
        assert_eq!(classes_resumed.classes(), classes_single.classes());
    }

    #[test]
    fn empty_batch_resume_is_a_noop() {
        let nl = comb_block();
        let u = FaultUniverse::stuck_at(&nl);
        let sim = CombFaultSim::new(&u).with_syndromes();
        let rows = exhaustive(3);
        let empty = PatternSet::new(3);

        let single = sim.run_stuck_at(&PatternSet::from_rows(3, &rows)).unwrap();

        // Empty batches before, between, and after real work must not
        // shift detection indices or syndrome columns.
        let mut campaign = sim.campaign();
        sim.resume_stuck_at(&empty, &mut campaign).unwrap();
        sim.resume_stuck_at(&PatternSet::from_rows(3, &rows[..3]), &mut campaign)
            .unwrap();
        sim.resume_stuck_at(&empty, &mut campaign).unwrap();
        sim.resume_stuck_at(&PatternSet::from_rows(3, &rows[3..]), &mut campaign)
            .unwrap();
        sim.resume_stuck_at(&empty, &mut campaign).unwrap();
        assert_eq!(campaign.applied, 8);
        let resumed = campaign.into_result();

        assert_eq!(resumed.detection, single.detection);
        assert_eq!(resumed.syndromes, single.syndromes);
    }

    #[test]
    fn single_pattern_batches_match_one_batch() {
        let nl = comb_block();
        let u = FaultUniverse::stuck_at(&nl);
        let sim = CombFaultSim::new(&u).with_syndromes();
        let rows = exhaustive(3);

        let single = sim.run_stuck_at(&PatternSet::from_rows(3, &rows)).unwrap();

        let mut campaign = sim.campaign();
        for row in &rows {
            sim.resume_stuck_at(
                &PatternSet::from_rows(3, std::slice::from_ref(row)),
                &mut campaign,
            )
            .unwrap();
        }
        let resumed = campaign.into_result();

        assert_eq!(resumed.detection, single.detection);
        assert_eq!(resumed.syndromes, single.syndromes);
        assert_eq!(resumed.coverage_percent(), 100.0);
    }

    #[test]
    fn batch_split_exactly_on_a_block_boundary() {
        // The pattern words pack 64 patterns per block; a batch cut at
        // exactly 64 (and a follow-up cut at 128) leaves no partial block
        // and must still produce absolute detection indices.
        let nl = wide_view();
        let u = FaultUniverse::stuck_at(&nl);
        let rows = exhaustive(10);
        let sim = CombFaultSim::new(&u).with_syndromes();

        let single = sim
            .run_stuck_at(&PatternSet::from_rows(10, &rows[..192]))
            .unwrap();

        let mut campaign = sim.campaign();
        for batch in [&rows[..64], &rows[64..128], &rows[128..192]] {
            sim.resume_stuck_at(&PatternSet::from_rows(10, batch), &mut campaign)
                .unwrap();
        }
        let resumed = campaign.into_result();

        assert_eq!(resumed.detection, single.detection);
        assert_eq!(resumed.syndromes, single.syndromes);
        for d in resumed.detection.iter().flatten() {
            assert!(*d < 192, "absolute pattern index expected, got {d}");
        }
    }

    #[test]
    fn mismatched_patterns_and_campaigns_are_typed_errors() {
        let nl = comb_block();
        let u = FaultUniverse::stuck_at(&nl);
        let sim = CombFaultSim::new(&u);
        let pats = PatternSet::from_rows(3, &exhaustive(3));
        // Two pattern columns for a three-input view.
        let narrow = sim.run_stuck_at(&PatternSet::from_rows(2, &exhaustive(2)));
        assert!(matches!(
            narrow,
            Err(NetlistError::WidthMismatch {
                left: 2,
                right: 3,
                ..
            })
        ));
        // A campaign started for another universe.
        let other = FaultUniverse::stuck_at(&wide_view());
        let mut foreign = CombFaultSim::new(&other).campaign();
        assert!(matches!(
            sim.resume_stuck_at(&pats, &mut foreign),
            Err(NetlistError::WidthMismatch { .. })
        ));
        // A campaign without syndrome slots, resumed by a simulator that
        // collects them.
        let mut plain = sim.campaign();
        let collecting = CombFaultSim::new(&u).with_syndromes();
        assert!(matches!(
            collecting.resume_stuck_at(&pats, &mut plain),
            Err(NetlistError::WidthMismatch { left: 0, right, .. }) if right == u.len()
        ));
        assert_eq!(plain.applied, 0, "a rejected batch applies nothing");
    }

    #[test]
    fn campaign_tracks_applied_patterns() {
        let nl = comb_block();
        let u = FaultUniverse::stuck_at(&nl);
        let sim = CombFaultSim::new(&u);
        let mut campaign = sim.campaign();
        sim.resume_stuck_at(
            &PatternSet::from_rows(3, &exhaustive(3)[..5]),
            &mut campaign,
        )
        .unwrap();
        assert_eq!(campaign.applied, 5);
        sim.resume_stuck_at(
            &PatternSet::from_rows(3, &exhaustive(3)[5..]),
            &mut campaign,
        )
        .unwrap();
        assert_eq!(campaign.applied, 8);
        let r = campaign.into_result();
        assert_eq!(r.cycles, 8);
        assert_eq!(r.coverage_percent(), 100.0);
    }
}
