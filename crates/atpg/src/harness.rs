//! End-to-end ATPG flows: the full-scan and sequential baselines of the
//! paper's Table 3.

use std::time::{Duration, Instant};

use soctest_fault::{
    CombFaultSim, Fault, FaultSimResult, FaultUniverse, ParallelPolicy, PatternSet, SeqFaultSim,
    SeqFaultSimConfig,
};
use soctest_netlist::{Netlist, NetlistError};

use crate::{
    insert_scan, random_pattern_set, random_rows, unroll, Podem, PodemConfig, ScanDesign,
    ScanSchedule, ScanView,
};

/// Common outcome of an ATPG campaign: coverage for both fault models plus
/// test-time accounting.
#[derive(Debug, Clone)]
pub struct AtpgOutcome {
    /// Stuck-at campaign result (detection per collapsed fault).
    pub stuck_at: FaultSimResult,
    /// Transition campaign result.
    pub transition: FaultSimResult,
    /// Number of test patterns (scan) or stimulus cycles (sequential).
    pub pattern_count: usize,
    /// Tester clock cycles to apply the stuck-at test.
    pub stuck_cycles: u64,
    /// Tester clock cycles to apply the transition test.
    pub transition_cycles: u64,
    /// Faults abandoned at the PODEM backtrack limit.
    pub aborted: u64,
    /// Wall-clock time of the whole campaign (generation + simulation).
    pub wall: Duration,
}

/// Result of the full-scan flow: the scan-inserted design plus the
/// campaign outcome.
#[derive(Debug, Clone)]
pub struct AtpgRun {
    /// The scan-inserted design.
    pub design: ScanDesign,
    /// Coverage and cost.
    pub outcome: AtpgOutcome,
}

/// Configuration for the full-scan baseline.
#[derive(Debug, Clone)]
pub struct ScanAtpg {
    /// Number of scan chains to insert.
    pub chains: usize,
    /// Random patterns applied before deterministic generation.
    pub random_patterns: usize,
    /// PODEM settings for the deterministic phase.
    pub podem: PodemConfig,
    /// Seed for the random phase and don't-care fill.
    pub seed: u64,
    /// Cap on deterministically targeted faults (None = all undetected).
    pub max_targets: Option<usize>,
    /// Worker-thread policy for the fault-simulation phases.
    pub parallel: ParallelPolicy,
}

impl Default for ScanAtpg {
    fn default() -> Self {
        ScanAtpg {
            chains: 1,
            random_patterns: 128,
            podem: PodemConfig::default(),
            seed: 0x0BAD_5EED,
            max_targets: None,
            parallel: ParallelPolicy::default(),
        }
    }
}

impl ScanAtpg {
    /// Runs scan insertion, random + deterministic stuck-at ATPG, and a
    /// launch-on-capture transition replay of the final pattern set.
    ///
    /// # Errors
    ///
    /// Propagates netlist construction/levelization errors.
    pub fn run(&self, netlist: &Netlist) -> Result<AtpgRun, NetlistError> {
        let start = Instant::now();
        let design = insert_scan(netlist, self.chains)?;
        let sv = ScanView::of(&design.netlist)?;
        let saf = FaultUniverse::stuck_at(&sv.view);
        let width = sv.view.primary_inputs().len();

        let mut patterns = random_pattern_set(self.random_patterns, width, self.seed);
        let sim = CombFaultSim::new(&saf).with_parallelism(self.parallel);
        let mut campaign = sim.campaign();
        sim.resume_stuck_at(&patterns, &mut campaign)?;

        // Deterministic phase: target survivors, simulate in 64-blocks.
        let mut podem = Podem::new(saf.view(), self.podem.clone())?;
        let mut seed = self.seed | 1;
        let mut buffer = PatternSet::new(width);
        let mut targeted = 0usize;
        for fi in 0..saf.len() {
            if campaign.detection[fi].is_some() {
                continue;
            }
            if let Some(cap) = self.max_targets {
                if targeted >= cap {
                    break;
                }
            }
            targeted += 1;
            if let Some(cube) = podem.generate(saf.faults()[fi]) {
                buffer.push(&cube.fill_random(&mut seed));
                if buffer.len() == 64 {
                    sim.resume_stuck_at(&buffer, &mut campaign)?;
                    for p in 0..buffer.len() {
                        patterns.push(&buffer.row(p));
                    }
                    buffer = PatternSet::new(width);
                }
            }
        }
        if !buffer.is_empty() {
            sim.resume_stuck_at(&buffer, &mut campaign)?;
            for p in 0..buffer.len() {
                patterns.push(&buffer.row(p));
            }
        }

        let stuck_patterns = patterns.len();
        let stuck_at = campaign.into_result();

        // Transition phase: replay the stuck-at set launch-on-capture, then
        // deterministically top up survivors on a two-frame broadside view.
        let tdf = FaultUniverse::transition(&sv.view);
        let tdf_sim = CombFaultSim::new(&tdf).with_parallelism(self.parallel);
        let mut tdf_campaign = tdf_sim.campaign();
        tdf_sim.resume_transition(&patterns, &sv.state_map(), &mut tdf_campaign)?;

        let tf = TwoFrameView::of(tdf.view())?;
        let mut podem_tdf = Podem::new(&tf.view, self.podem.clone())?;
        podem_tdf.set_observe(tf.observe.clone());
        let mut tdf_targeted = 0usize;
        for fi in 0..tdf.len() {
            if tdf_campaign.detection[fi].is_some() {
                continue;
            }
            if let Some(cap) = self.max_targets {
                if tdf_targeted >= cap {
                    break;
                }
            }
            tdf_targeted += 1;
            let f = tdf.faults()[fi];
            let capture_kind = if f.kind == soctest_fault::FaultKind::SlowToRise {
                soctest_fault::FaultKind::Sa0
            } else {
                soctest_fault::FaultKind::Sa1
            };
            let target = Fault::new(tf.map2[f.net.index()], capture_kind);
            if let Some(cube) = podem_tdf.generate(target) {
                // The cube does not constrain the launch value; verify by
                // fault simulation and retry the don't-care fill if the
                // transition was not excited.
                for _attempt in 0..3 {
                    let row = cube.fill_random(&mut seed);
                    let mut single = PatternSet::new(width);
                    single.push(&row);
                    tdf_sim.resume_transition(&single, &sv.state_map(), &mut tdf_campaign)?;
                    patterns.push(&row);
                    if tdf_campaign.detection[fi].is_some() {
                        break;
                    }
                }
            }
        }
        let transition = tdf_campaign.into_result();

        let stuck_schedule = ScanSchedule::new(&design, stuck_patterns);
        let tdf_schedule = ScanSchedule::new(&design, patterns.len());
        Ok(AtpgRun {
            design,
            outcome: AtpgOutcome {
                pattern_count: patterns.len(),
                stuck_cycles: stuck_schedule.stuck_at_cycles(),
                transition_cycles: tdf_schedule.transition_cycles(),
                aborted: podem.aborted() + podem_tdf.aborted(),
                wall: start.elapsed(),
                stuck_at,
                transition,
            },
        })
    }
}

/// A two-frame broadside unrolling of a *combinational scan view* (a view
/// with `ppi`/`ppo` pseudo-ports): frame 1 is the scan-loaded launch state
/// (fully assignable), frame 2 receives frame 1's next state through the
/// `ppo → ppi` wiring while primary inputs are held. Used for deterministic
/// launch-on-capture transition ATPG.
#[derive(Debug)]
struct TwoFrameView {
    view: Netlist,
    /// Template-net → frame-2 net.
    map2: Vec<soctest_netlist::NetId>,
    /// Frame-2 observation nets (the capture outputs).
    observe: Vec<soctest_netlist::NetId>,
}

impl TwoFrameView {
    fn of(template: &Netlist) -> Result<Self, NetlistError> {
        use soctest_netlist::{GateKind, NetId, PortDir};
        let ppi: Vec<NetId> = template
            .port("ppi")
            .map(|p| p.bits().to_vec())
            .unwrap_or_default();
        let ppo: Vec<NetId> = template
            .port("ppo")
            .map(|p| p.bits().to_vec())
            .unwrap_or_default();
        let mut is_ppi = vec![usize::MAX; template.len()];
        for (i, &p) in ppi.iter().enumerate() {
            is_ppi[p.index()] = i;
        }
        let mut view = Netlist::new(format!("{}_x2", template.name()));
        // Frame 1: every input (real or pseudo) becomes a fresh input.
        let mut map1 = vec![NetId(0); template.len()];
        for (id, gate) in template.iter() {
            map1[id.index()] = if gate.kind == GateKind::Input {
                view.add_gate(GateKind::Input, vec![])
            } else {
                let pins = gate.pins.iter().map(|p| map1[p.index()]).collect();
                view.add_gate_unchecked(gate.kind, pins)
            };
        }
        // Frame 2: PIs held from frame 1, PPIs wired to frame 1's PPOs.
        let mut map2 = vec![NetId(0); template.len()];
        for (id, gate) in template.iter() {
            map2[id.index()] = if gate.kind == GateKind::Input {
                match is_ppi[id.index()] {
                    usize::MAX => map1[id.index()],
                    slot => map1[ppo[slot].index()],
                }
            } else {
                let pins = gate.pins.iter().map(|p| map2[p.index()]).collect();
                view.add_gate_unchecked(gate.kind, pins)
            };
        }
        // Single input port in template primary-input order, so test cubes
        // translate 1:1 into scan pattern rows.
        let launch: Vec<NetId> = template
            .primary_inputs()
            .iter()
            .map(|p| map1[p.index()])
            .collect();
        view.add_port(PortDir::Input, "launch", launch)?;
        let observe: Vec<NetId> = template
            .primary_outputs()
            .iter()
            .map(|p| map2[p.index()])
            .collect();
        view.add_port(PortDir::Output, "capture", observe.clone())?;
        view.validate()?;
        view.levelize()?;
        Ok(TwoFrameView {
            view,
            map2,
            observe,
        })
    }
}

/// Configuration for the sequential baseline (random sequences plus bounded
/// time-frame-expansion PODEM).
#[derive(Debug, Clone)]
pub struct SequentialAtpgConfig {
    /// Length of the random stimulus prefix, in clock cycles.
    pub random_cycles: usize,
    /// Time frames to unroll for deterministic generation.
    pub frames: usize,
    /// PODEM settings.
    pub podem: PodemConfig,
    /// Seed for the random phase and don't-care fill.
    pub seed: u64,
    /// Cap on deterministically targeted faults.
    pub max_targets: Option<usize>,
    /// Worker-thread policy for the fault-simulation phases.
    pub parallel: ParallelPolicy,
}

impl Default for SequentialAtpgConfig {
    fn default() -> Self {
        SequentialAtpgConfig {
            random_cycles: 512,
            frames: 6,
            podem: PodemConfig::default(),
            seed: 0x5E9_5EED,
            max_targets: Some(512),
            parallel: ParallelPolicy::default(),
        }
    }
}

/// The sequential-ATPG baseline runner.
#[derive(Debug, Clone, Default)]
pub struct SequentialAtpg {
    /// Flow configuration.
    pub config: SequentialAtpgConfig,
}

impl SequentialAtpg {
    /// Creates a runner with the given configuration.
    pub fn new(config: SequentialAtpgConfig) -> Self {
        SequentialAtpg { config }
    }

    /// Runs the sequential campaign against `netlist`.
    ///
    /// The deterministic phase unrolls the *fault view* so that every
    /// collapsed fault site exists in the unrolled circuit; the target is
    /// injected in the last frame (single-observation-time approximation,
    /// documented in DESIGN.md).
    ///
    /// # Errors
    ///
    /// Propagates netlist construction/levelization errors.
    pub fn run(&self, netlist: &Netlist) -> Result<AtpgOutcome, NetlistError> {
        let cfg = &self.config;
        let start = Instant::now();
        let saf = FaultUniverse::stuck_at(netlist);
        let width = netlist.primary_inputs().len();
        let mut rows = random_rows(cfg.random_cycles, width, cfg.seed);

        let seq_cfg = SeqFaultSimConfig {
            parallel: cfg.parallel,
            ..Default::default()
        };
        let prelim = {
            let mut stim = rows_stimulus(&rows);
            SeqFaultSim::new(&saf, seq_cfg.clone()).run(&mut stim)?
        };

        // Deterministic top-up on the unrolled fault view.
        let unrolled = unroll(saf.view(), cfg.frames)?;
        let mut podem = Podem::new(&unrolled.view, cfg.podem.clone())?;
        podem.set_assignable(unrolled.assignable.clone());
        let mut seed = cfg.seed | 1;
        let mut targeted = 0usize;
        let mut aborted;
        for (fi, &fault) in saf.faults().iter().enumerate() {
            if prelim.detection[fi].is_some() {
                continue;
            }
            if let Some(cap) = cfg.max_targets {
                if targeted >= cap {
                    break;
                }
            }
            targeted += 1;
            let mapped = Fault::new(unrolled.map_net(cfg.frames - 1, fault.net), fault.kind);
            if let Some(cube) = podem.generate(mapped) {
                let filled = cube.fill_random(&mut seed);
                // Unrolled PI order: state0 bits (skipped: unassignable and
                // meaningless as stimulus), then per-frame PIs.
                let state_bits = unrolled.assignable.iter().filter(|a| !**a).count();
                for f in 0..cfg.frames {
                    let base = state_bits + f * width;
                    rows.push(filled[base..base + width].to_vec());
                }
            }
        }
        aborted = podem.aborted();

        // Final evaluation of the full stimulus against both fault models.
        let stuck_at = {
            let mut stim = rows_stimulus(&rows);
            SeqFaultSim::new(&saf, seq_cfg.clone()).run(&mut stim)?
        };
        let tdf = FaultUniverse::transition(netlist);
        let transition = {
            let mut stim = rows_stimulus(&rows);
            SeqFaultSim::new(&tdf, seq_cfg).run(&mut stim)?
        };
        aborted += 0;

        Ok(AtpgOutcome {
            pattern_count: rows.len(),
            stuck_cycles: rows.len() as u64,
            transition_cycles: rows.len() as u64,
            aborted,
            wall: start.elapsed(),
            stuck_at,
            transition,
        })
    }
}

fn rows_stimulus(rows: &[Vec<bool>]) -> (u64, impl FnMut(u64, &mut [bool]) + '_) {
    (rows.len() as u64, move |t: u64, out: &mut [bool]| {
        out.copy_from_slice(&rows[t as usize]);
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use soctest_netlist::ModuleBuilder;

    /// A small sequential module with datapath and control flavour. Inputs
    /// are registered, as in a real pipeline — which also means the logic
    /// can transition during launch-on-capture transition tests.
    fn module() -> Netlist {
        let mut mb = ModuleBuilder::new("dut");
        let a = mb.input_bus("a", 4);
        let b = mb.input_bus("b", 4);
        let en = mb.input("en");
        let ra = mb.register(&a);
        let rb = mb.register(&b);
        let sum = mb.add_mod(&ra, &rb);
        let acc = mb.register_en(en, &sum);
        let (mn, _) = mb.min_u(&acc, &rb);
        mb.output_bus("acc", &acc);
        mb.output_bus("mn", &mn);
        mb.finish().unwrap()
    }

    #[test]
    fn scan_flow_reaches_high_stuck_at_coverage() {
        let run = ScanAtpg::default().run(&module()).unwrap();
        let cov = run.outcome.stuck_at.coverage_percent();
        assert!(cov > 93.0, "scan SAF coverage {cov:.1}%");
        assert!(run.outcome.stuck_cycles > run.outcome.pattern_count as u64);
    }

    #[test]
    fn scan_transition_coverage_is_lower_but_real() {
        let run = ScanAtpg::default().run(&module()).unwrap();
        let saf = run.outcome.stuck_at.coverage_percent();
        let tdf = run.outcome.transition.coverage_percent();
        assert!(tdf > 60.0, "scan TDF coverage {tdf:.1}%");
        assert!(tdf <= saf + 1e-9);
    }

    #[test]
    fn sequential_flow_runs_and_underperforms_scan() {
        let nl = module();
        let seq = SequentialAtpg::default().run(&nl).unwrap();
        let scan = ScanAtpg::default().run(&nl).unwrap();
        assert!(seq.stuck_at.coverage_percent() > 30.0);
        assert!(
            seq.stuck_at.coverage_percent() <= scan.outcome.stuck_at.coverage_percent() + 5.0,
            "sequential ({:.1}%) should not beat scan ({:.1}%) by much",
            seq.stuck_at.coverage_percent(),
            scan.outcome.stuck_at.coverage_percent()
        );
    }

    #[test]
    fn deterministic_phase_improves_on_random_alone() {
        let nl = module();
        let base = SequentialAtpg::new(SequentialAtpgConfig {
            random_cycles: 64,
            max_targets: Some(0),
            ..Default::default()
        })
        .run(&nl)
        .unwrap();
        let with_det = SequentialAtpg::new(SequentialAtpgConfig {
            random_cycles: 64,
            max_targets: Some(256),
            ..Default::default()
        })
        .run(&nl)
        .unwrap();
        assert!(
            with_det.stuck_at.coverage_percent() >= base.stuck_at.coverage_percent(),
            "deterministic top-up must not lose coverage"
        );
    }
}
