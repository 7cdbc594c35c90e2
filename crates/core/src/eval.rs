//! The three-step evaluation flow of §3.2.

use std::sync::Arc;

use soctest_bist::EngineError;
use soctest_fault::{
    DiagnosticMatrix, EquivalentClassStats, FaultSimResult, FaultUniverse, ObserveMode,
    ParallelPolicy, SeqFaultSim, SeqFaultSimConfig,
};
use soctest_ldpc::code::LdpcCode;
use soctest_ldpc::decoder::{DecoderConfig, DecoderStats, SerialDecoder};
use soctest_sim::{KernelSim, ToggleMonitor, ToggleReport};

use crate::casestudy::CaseStudy;
use crate::error::SessionError;

/// Fault model selector shared by steps 2 and 3.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultModel {
    /// Single stuck-at faults.
    StuckAt,
    /// Gross-delay transition faults.
    Transition,
}

impl FaultModel {
    fn universe(self, netlist: &soctest_netlist::Netlist) -> FaultUniverse {
        match self {
            FaultModel::StuckAt => FaultUniverse::stuck_at(netlist),
            FaultModel::Transition => FaultUniverse::transition(netlist),
        }
    }
}

/// Step-1 outcome: statement coverage (behavioral RTL) and toggle activity
/// (gate level), per the Fig. 3 loop.
#[derive(Debug, Clone)]
pub struct Step1Report {
    /// Statement coverage of the behavioral decoder under ALFSR-derived
    /// stimuli, in percent.
    pub statement_coverage: f64,
    /// Merged statement counters (for the designer's feedback loop).
    pub statements: DecoderStats,
    /// Per-module toggle activity under the BIST pattern generator.
    pub toggle: Vec<(String, ToggleReport)>,
    /// Per-module never-toggled nets, keyed back to the netlist as
    /// `(raw net id, human-readable description)` — the drill-down the
    /// paper's "redefine the Constraints Generator" feedback needs.
    pub cold_nets: Vec<(String, Vec<(u32, String)>)>,
}

impl Step1Report {
    /// Mean toggle activity across the modules, in percent.
    pub fn mean_toggle_percent(&self) -> f64 {
        if self.toggle.is_empty() {
            return 0.0;
        }
        self.toggle
            .iter()
            .map(|(_, r)| r.activity_percent())
            .sum::<f64>()
            / self.toggle.len() as f64
    }
}

/// Runs step 1: applies `npatterns` pseudo-random patterns to the RTL
/// (behavioral) model and the gate-level modules, measuring statement
/// coverage and toggle activity.
///
/// # Errors
///
/// Propagates simulator-construction and LDPC-code errors.
pub fn step1(case: &CaseStudy, npatterns: u64) -> Result<Step1Report, SessionError> {
    // Statement coverage: decode words whose LLRs come from the ALFSR, so
    // the stimulus source is the same pseudo-random machinery the BIST
    // engine uses.
    let code = LdpcCode::gallager(96, 3, 6, 7)?;
    let mut alfsr =
        soctest_bist::Alfsr::new(20).ok_or(EngineError::UnsupportedWidth { width: 20 })?;
    let mut dec = SerialDecoder::new(&code, DecoderConfig::default());
    let mut merged = DecoderStats::default();
    let attempts = (npatterns / 256).max(1);
    for _ in 0..attempts {
        let llrs: Vec<i32> = (0..code.n())
            .map(|_| {
                let s = alfsr.step();
                let mag = (s & 0x1F) as i32 + 1;
                if (s >> 6) & 1 == 1 {
                    -mag
                } else {
                    mag
                }
            })
            .collect();
        let out = dec.decode(&llrs, 8);
        merged.merge(&out.stats);
    }

    // Toggle activity: gate level under the real pattern generator.
    let pgen = case.pattern_generator();
    let mut toggle = Vec::new();
    let mut cold_nets = Vec::new();
    for (m, module) in case.modules().iter().enumerate() {
        let mut sim = KernelSim::from_kernel(Arc::clone(case.kernel(m)?));
        let mut mon = ToggleMonitor::new(module);
        let inputs = module.primary_inputs();
        let mut stim = pgen.stimulus(m, npatterns);
        let mut row = vec![false; inputs.len()];
        for t in 0..npatterns {
            use soctest_fault::SeqStimulus;
            stim.fill(t, &mut row);
            for (&net, &bit) in inputs.iter().zip(&row) {
                sim.set_input_bit(net, bit);
            }
            sim.eval_comb();
            mon.sample(sim.values());
            sim.clock();
        }
        toggle.push((module.name().to_owned(), mon.report()));
        cold_nets.push((
            module.name().to_owned(),
            mon.untoggled_nets()
                .into_iter()
                .map(|net| (net.0, module.describe(net)))
                .collect(),
        ));
    }

    Ok(Step1Report {
        statement_coverage: merged.statement_coverage(),
        statements: merged,
        toggle,
        cold_nets,
    })
}

/// Learns per-input 1-probability weights for one module by watching which
/// nets stay cold under the default pattern generator — the data a
/// synthesized weighted-random constraint generator
/// ([`CaseStudy::weighted_pattern_generator`]) needs.
///
/// Each cold net votes on every primary input in its fan-in cone: a
/// stuck-low net pushes those inputs toward 1, a stuck-high net toward 0.
/// Inputs outside every cold cone keep the neutral 0.5, so the weighted
/// stream degrades gracefully to plain pseudo-random where nothing is
/// starved. Returns one weight per module input bit, in port order.
///
/// # Errors
///
/// Propagates simulator-construction errors.
pub fn learn_input_weights(
    case: &CaseStudy,
    module: usize,
    npatterns: u64,
) -> Result<Vec<f64>, SessionError> {
    let netlist = &case.modules()[module];
    let inputs = netlist.primary_inputs();
    let mut sim = KernelSim::from_kernel(Arc::clone(case.kernel(module)?));
    let mut mon = ToggleMonitor::new(netlist);
    let pgen = case.pattern_generator();
    let mut stim = pgen.stimulus(module, npatterns);
    let mut row = vec![false; inputs.len()];
    for t in 0..npatterns {
        use soctest_fault::SeqStimulus;
        stim.fill(t, &mut row);
        for (&net, &bit) in inputs.iter().zip(&row) {
            sim.set_input_bit(net, bit);
        }
        sim.eval_comb();
        mon.sample(sim.values());
        sim.clock();
    }

    // One vote slot per primary input; +1 = wants more 1s, −1 = fewer.
    let mut input_slot = vec![usize::MAX; netlist.len()];
    for (i, &net) in inputs.iter().enumerate() {
        input_slot[net.index()] = i;
    }
    let mut votes = vec![0i64; inputs.len()];
    let mut visited = vec![false; netlist.len()];
    let mut stack = Vec::new();
    for (cold, stuck_high) in mon.cold_polarity() {
        visited.iter_mut().for_each(|v| *v = false);
        stack.push(cold);
        while let Some(net) = stack.pop() {
            if std::mem::replace(&mut visited[net.index()], true) {
                continue;
            }
            if input_slot[net.index()] != usize::MAX {
                votes[input_slot[net.index()]] += if stuck_high { -1 } else { 1 };
                continue;
            }
            stack.extend(netlist.gate(net).pins.iter().copied());
        }
    }

    let peak = votes.iter().map(|v| v.abs()).max().unwrap_or(0);
    Ok(votes
        .iter()
        .map(|&v| {
            if peak == 0 {
                0.5
            } else {
                (0.5 + 0.4 * v as f64 / peak as f64).clamp(0.1, 0.9)
            }
        })
        .collect())
}

/// Runs step 2 for one module: the outputs-observed BIST campaign. It
/// builds the module's `model` fault universe and fault-simulates
/// `patterns` cycles of the case study's default stimulus under the
/// default window, returning the universe with the result.
///
/// One run answers every shorter budget as well: the stimulus row at
/// cycle `t` depends on `t` alone, so [`FaultSimResult::curve`] reads the
/// coverage at each prefix (Fig. 4) without simulating it again.
///
/// # Errors
///
/// Propagates simulator errors.
pub fn step2(
    case: &CaseStudy,
    module: usize,
    model: FaultModel,
    patterns: u64,
    parallel: ParallelPolicy,
) -> Result<(FaultUniverse, FaultSimResult), SessionError> {
    let universe = model.universe(&case.modules()[module]);
    let pgen = case.pattern_generator();
    let mut stim = pgen.stimulus(module, patterns);
    let result = SeqFaultSim::new(
        &universe,
        SeqFaultSimConfig {
            parallel,
            ..Default::default()
        },
    )
    .run(&mut stim)?;
    Ok((universe, result))
}

/// Step-3 outcome for one module and pattern source.
#[derive(Debug, Clone)]
pub struct Step3Report {
    /// Equivalent-class statistics (Table 5's max/med sizes).
    pub stats: EquivalentClassStats,
    /// Fault coverage achieved by the same run (signature-observed).
    pub coverage_percent: f64,
    /// Faults analyzed (after sampling).
    pub faults: usize,
    /// Sizes of every equivalent class, largest first — the class-size
    /// distribution the diagnosis report plots.
    pub class_sizes: Vec<usize>,
    /// Fraction of detected faults uniquely identified (singleton classes).
    pub resolution: f64,
}

/// Runs step 3 for one module: collects MISR-observed syndromes under the
/// BIST pattern generator, builds the diagnostic matrix, and reports the
/// equivalent-fault-class statistics.
///
/// `sample_stride` keeps one fault in `stride` to bound runtime (class
/// statistics on a uniform sample remain representative); `read_every`
/// sets the signature-read granularity, the diagnosis knob of §3.2.
///
/// # Errors
///
/// Propagates simulator errors.
pub fn step3(
    case: &CaseStudy,
    module: usize,
    model: FaultModel,
    npatterns: u64,
    read_every: u64,
    sample_stride: usize,
    parallel: ParallelPolicy,
) -> Result<Step3Report, SessionError> {
    let mut universe = model.universe(&case.modules()[module]);
    universe.retain_sample(sample_stride);
    let pgen = case.pattern_generator();
    let mut stim = pgen.stimulus(module, npatterns);
    let sim = SeqFaultSim::new(
        &universe,
        SeqFaultSimConfig {
            observe: ObserveMode::misr_default(case.spec().misr_width, read_every),
            collect_syndromes: true,
            parallel,
            ..Default::default()
        },
    );
    let result = sim.run(&mut stim)?;
    let syndromes = result
        .syndromes
        .as_ref()
        .ok_or(SessionError::MissingSyndromes)?;
    let matrix = DiagnosticMatrix::from_syndromes(syndromes);
    Ok(Step3Report {
        stats: matrix.stats(),
        coverage_percent: result.coverage_percent(),
        faults: universe.len(),
        class_sizes: matrix.classes().iter().map(Vec::len).collect(),
        resolution: matrix.resolution(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn step1_reports_coverage_and_toggle() {
        let case = CaseStudy::paper().unwrap();
        let r = step1(&case, 256).unwrap();
        assert!(r.statement_coverage > 50.0);
        assert_eq!(r.toggle.len(), 3);
        assert!(
            r.mean_toggle_percent() > 30.0,
            "got {}",
            r.mean_toggle_percent()
        );
        // Cold-net drill-down is index-aligned with the toggle rows and
        // consistent with their counts.
        assert_eq!(r.cold_nets.len(), 3);
        for ((name, rep), (cold_name, cold)) in r.toggle.iter().zip(&r.cold_nets) {
            assert_eq!(name, cold_name);
            assert_eq!(cold.len(), rep.nets - rep.toggled);
        }
    }

    #[test]
    fn learned_weights_are_probabilities_and_deterministic() {
        let case = CaseStudy::paper().unwrap();
        // CHECK_NODE is the module whose cold nets the autopilot attacks.
        let w = learn_input_weights(&case, 1, 128).unwrap();
        assert_eq!(w.len(), case.modules()[1].input_width());
        assert!(w.iter().all(|&p| (0.1..=0.9).contains(&p)));
        // Some cold net exists at 128 patterns, so at least one input is
        // biased away from neutral.
        assert!(w.iter().any(|&p| (p - 0.5).abs() > 1e-9));
        let again = learn_input_weights(&case, 1, 128).unwrap();
        assert_eq!(w, again, "learning is a pure function of the stimulus");
    }

    #[test]
    fn one_step2_run_reads_every_shorter_budget() {
        let case = CaseStudy::paper().unwrap();
        // CONTROL_UNIT, the smallest module: the 128-pattern run's curve
        // after 64 patterns (cycle indices 0..=63) is the 64-pattern run's
        // final count.
        let run = |n| step2(&case, 2, FaultModel::StuckAt, n, ParallelPolicy::default()).unwrap();
        let (universe, long) = run(128);
        let (_, short) = run(64);
        assert_eq!(long.fault_count(), universe.len());
        assert_eq!(long.curve().detected_at(63), short.detected_count());
    }

    #[test]
    fn step3_builds_class_statistics() {
        let case = CaseStudy::paper().unwrap();
        let r = step3(
            &case,
            2,
            FaultModel::StuckAt,
            128,
            32,
            4,
            ParallelPolicy::default(),
        )
        .unwrap();
        assert!(r.faults > 50);
        assert!(r.stats.classes > 0);
        assert!(r.stats.max_size >= 1);
        assert!(r.stats.mean_size >= 1.0);
        // The class-size distribution is consistent with the scalars.
        assert_eq!(r.class_sizes.len(), r.stats.classes);
        assert_eq!(r.class_sizes.iter().sum::<usize>(), r.stats.detected);
        assert_eq!(r.class_sizes.first().copied(), Some(r.stats.max_size));
        assert!((0.0..=1.0).contains(&r.resolution));
    }
}
