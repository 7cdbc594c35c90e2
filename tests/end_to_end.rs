//! Cross-crate integration tests: the paper's qualitative claims, checked
//! end to end on reduced budgets.

use soctest::atpg::{ScanAtpg, SequentialAtpg, SequentialAtpgConfig};
use soctest::core::casestudy::CaseStudy;
use soctest::core::eval::{self, FaultModel};
use soctest::core::experiments::{self, Budget};
use soctest::core::session::WrappedCore;
use soctest::fault::{FaultUniverse, ObserveMode, ParallelPolicy, SeqFaultSim, SeqFaultSimConfig};
use soctest::p1500::TapDriver;
use soctest::tech::Library;

#[test]
fn tap_driven_session_reproduces_golden_signatures() {
    let case = CaseStudy::paper().unwrap();
    let golden = case.golden_signatures(128).unwrap();
    let mut ate = TapDriver::new(WrappedCore::new(&case).unwrap());
    ate.reset();
    ate.bist_load_pattern_count(128);
    ate.bist_start();
    let stats = ate.wait_for_done(64, 8).unwrap();
    assert!(stats.cycles_waited >= 128, "at least one cycle per pattern");
    for (m, &gold) in golden.iter().enumerate() {
        ate.bist_select_result(m as u8);
        let (done, sig) = ate.read_status();
        assert!(done);
        assert_eq!(sig, gold, "module {m}");
    }
}

#[test]
fn misr_observation_tracks_ideal_observation_closely() {
    // The Result Collector (MISR) may alias, but on a few hundred cycles it
    // must stay within a few points of ideal per-cycle observation.
    let case = CaseStudy::paper().unwrap();
    let module = &case.modules()[0];
    let u = FaultUniverse::stuck_at(module);
    let pgen = case.pattern_generator();
    let ideal = {
        let mut stim = pgen.stimulus(0, 256);
        SeqFaultSim::new(&u, SeqFaultSimConfig::default())
            .run(&mut stim)
            .unwrap()
    };
    let misr = {
        let mut stim = pgen.stimulus(0, 256);
        SeqFaultSim::new(
            &u,
            SeqFaultSimConfig {
                observe: ObserveMode::misr_default(16, 64),
                ..Default::default()
            },
        )
        .run(&mut stim)
        .unwrap()
    };
    let gap = ideal.coverage_percent() - misr.coverage_percent();
    assert!(
        (-1.0..8.0).contains(&gap),
        "MISR coverage {:.1}% vs ideal {:.1}%",
        misr.coverage_percent(),
        ideal.coverage_percent()
    );
}

#[test]
fn bist_beats_pure_random_on_the_constrained_module() {
    // The constraint generator is the paper's point: unconstrained random
    // on the selector/control inputs loses coverage.
    let case = CaseStudy::paper().unwrap();
    let module = &case.modules()[2]; // CONTROL_UNIT
    let u = FaultUniverse::stuck_at(module);
    let bist = {
        let pgen = case.pattern_generator();
        let mut stim = pgen.stimulus(2, 512);
        SeqFaultSim::new(&u, SeqFaultSimConfig::default())
            .run(&mut stim)
            .unwrap()
    };
    let random = {
        let rows = soctest::atpg::random_rows(512, module.input_width(), 0xF00D);
        let mut stim = (512u64, |t: u64, out: &mut [bool]| {
            out.copy_from_slice(&rows[t as usize]);
        });
        SeqFaultSim::new(&u, SeqFaultSimConfig::default())
            .run(&mut stim)
            .unwrap()
    };
    assert!(
        bist.coverage_percent() > random.coverage_percent(),
        "BIST {:.1}% must beat unconstrained random {:.1}%",
        bist.coverage_percent(),
        random.coverage_percent()
    );
}

#[test]
fn test_time_shape_bist_is_orders_faster_than_scan() {
    let case = CaseStudy::paper().unwrap();
    let module = &case.modules()[0];
    let scan = ScanAtpg {
        random_patterns: 64,
        max_targets: Some(8),
        ..Default::default()
    }
    .run(module)
    .unwrap();
    // Scan cycles per pattern ≈ chain length; BIST pays one cycle per
    // pattern. With ≈70 scan cells the ratio must exceed 10×.
    let scan_cycles_per_pattern = scan.outcome.stuck_cycles / scan.outcome.pattern_count as u64;
    assert!(
        scan_cycles_per_pattern > 10,
        "scan pays {scan_cycles_per_pattern} cycles per pattern"
    );
}

#[test]
fn sequential_atpg_is_the_weak_baseline() {
    // At very small budgets the BIST constraint generator has not yet
    // swept its hold periods, so compare at a budget where one full CG
    // sweep fits (the paper compares at 4,096; 1,024 keeps the test fast).
    let case = CaseStudy::paper().unwrap();
    let module = &case.modules()[0];
    let seq = SequentialAtpg::new(SequentialAtpgConfig {
        random_cycles: 1024,
        max_targets: Some(8),
        ..Default::default()
    })
    .run(module)
    .unwrap();
    let pgen = case.pattern_generator();
    let u = FaultUniverse::stuck_at(module);
    let mut stim = pgen.stimulus(0, 1024);
    let bist = SeqFaultSim::new(&u, SeqFaultSimConfig::default())
        .run(&mut stim)
        .unwrap();
    assert!(
        bist.coverage_percent() + 10.0 > seq.stuck_at.coverage_percent(),
        "BIST {:.1}% should not trail sequential {:.1}% by much at equal budgets",
        bist.coverage_percent(),
        seq.stuck_at.coverage_percent()
    );
}

#[test]
fn area_and_frequency_shapes_hold() {
    let case = CaseStudy::paper().unwrap();
    let lib = Library::cmos_130nm();
    let t2 = experiments::table2(&case, &lib).unwrap();
    assert!(t2.bist_um2 > 0.0 && t2.wrapper_um2 > 0.0);
    assert!(
        t2.bist_um2 > t2.wrapper_um2,
        "BIST engine dominates the DfT cost"
    );
    let t4 = experiments::table4(&case, &lib).unwrap();
    assert!(t4.original_mhz >= t4.bist_mhz);
    assert!(t4.original_mhz > t4.full_scan_mhz);
    assert!(
        t4.bist_mhz > 0.9 * t4.original_mhz,
        "BIST costs a few percent, not more"
    );
}

#[test]
fn evaluation_flow_steps_chain_together() {
    let case = CaseStudy::paper().unwrap();
    // Step 1 on a small pattern budget.
    let s1 = eval::step1(&case, 128).unwrap();
    assert!(s1.statement_coverage > 40.0);
    // Step 2 on the smallest module: one 128-pattern run's curve gives the
    // coverage of every shorter budget, here the 64-pattern run's (cycle
    // indices 0..=63).
    let step2 = |n| {
        eval::step2(&case, 2, FaultModel::StuckAt, n, ParallelPolicy::default())
            .unwrap()
            .1
    };
    let (long, short) = (step2(128), step2(64));
    assert_eq!(long.curve().detected_at(63), short.detected_count());
    // Step 3 diagnosis.
    let s3 = eval::step3(
        &case,
        2,
        FaultModel::StuckAt,
        96,
        24,
        8,
        ParallelPolicy::default(),
    )
    .unwrap();
    assert!(s3.stats.classes > 0);
}

#[test]
fn quick_budget_tables_emit_consistent_rows() {
    let case = CaseStudy::paper().unwrap();
    let t1 = experiments::table1(&case);
    assert_eq!(
        t1.iter().map(|r| (r.inputs, r.outputs)).collect::<Vec<_>>(),
        vec![(54, 55), (53, 53), (45, 44)]
    );
    let budget = Budget::quick();
    let t3 = experiments::table3(&case, &budget).unwrap();
    assert_eq!(t3.len(), 3);
    for row in &t3 {
        assert!(row.bist.faults > 0);
        assert_eq!(row.bist.faults, row.sequential.faults, "shared universe");
        assert!(row.full_scan.faults > row.bist.faults, "scan adds cells");
        assert!(row.full_scan.saf_cycles > row.bist.saf_cycles);
    }
}
