//! Differential conformance fuzzer.
//!
//! ```text
//! difftest [--seeds N] [--max-gates G] [--start-seed S]
//!          [--self-test] [--replay FILE] [--out FILE] [--vcd-on-failure]
//!          [--report-on-failure] [--fleet] [--fleet-dies N]
//! ```
//!
//! Default mode fuzzes all four engine pairs over `N` seeds, then runs the
//! case-study leg (up to 256 stride-sampled stuck-at and 256 transition
//! faults per paper module, 64 patterns of the paper's stimulus, outputs
//! and MISR observation with syndromes, kernel fault simulator vs the
//! reference fault simulator), and writes a machine-readable JSON report
//! covering both. The sequential fault simulator settles faults on two
//! routes (its word pass and its lane engine) and injects a fault on a
//! folded fanout branch at its sink pin; the `fault` pair's sums and the
//! leg's must each show both routes and some folded-branch faults in every
//! checked mode, or the run fails — agreement a route or an injection
//! never produced checks nothing. On the first
//! `sim`-pair mismatch the failing netlist is minimized and dumped next to
//! the report for `--replay`; with `--vcd-on-failure` the probe stimulus
//! is additionally replayed on the minimized netlist and written as a VCD
//! waveform; with `--report-on-failure` a self-contained HTML triage
//! report (mismatch table grouped per engine pair) is written next to the
//! JSON one. Exit
//! status is non-zero on any mismatch, pair or case-study, on a checked
//! mode that missed a route or ran no folded-branch fault (or, with
//! `--self-test`, on any undetected mutation).
//!
//! `--fleet` runs the fleet conformance leg instead: `--fleet-dies` dies
//! (default 48, seeded from `--start-seed`, 0 → 42) are simulated through
//! the fleet's cached-signature replay path *and* as standalone gate-level
//! sessions, and the per-die verdicts must match exactly.

use std::process::ExitCode;

use soctest_conformance::pairs::{
    comb_divergence, divergence_vcd, run_all_pairs, sim_comb_netlist, PAIR_NAMES,
};
use soctest_conformance::report::{
    active_gates, dump_netlist, minimize, parse_netlist, render_html_report, render_report,
    Mismatch,
};
use soctest_conformance::selftest::{fault_mutation_self_test, mutation_self_test};
use soctest_conformance::{case_study_leg, CaseStudyLeg, Routes, FAULT_MODES};
use soctest_core::casestudy::CaseStudy;

/// Case-study leg size: faults sampled per module and fault model, and
/// patterns per campaign.
const CASE_STUDY_FAULTS: usize = 256;
const CASE_STUDY_PATTERNS: u64 = 64;

struct Args {
    seeds: u64,
    max_gates: usize,
    start_seed: u64,
    self_test: bool,
    replay: Option<String>,
    out: String,
    vcd_on_failure: bool,
    report_on_failure: bool,
    fleet: bool,
    fleet_dies: u64,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        seeds: 25,
        max_gates: 120,
        start_seed: 0,
        self_test: false,
        replay: None,
        out: "difftest_report.json".into(),
        vcd_on_failure: false,
        report_on_failure: false,
        fleet: false,
        fleet_dies: 48,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} needs a value"));
        match flag.as_str() {
            "--seeds" => args.seeds = value("--seeds")?.parse().map_err(|e| format!("{e}"))?,
            "--max-gates" => {
                args.max_gates = value("--max-gates")?.parse().map_err(|e| format!("{e}"))?;
            }
            "--start-seed" => {
                args.start_seed = value("--start-seed")?.parse().map_err(|e| format!("{e}"))?;
            }
            "--self-test" => args.self_test = true,
            "--fleet" => args.fleet = true,
            "--fleet-dies" => {
                args.fleet_dies = value("--fleet-dies")?.parse().map_err(|e| format!("{e}"))?;
            }
            "--vcd-on-failure" => args.vcd_on_failure = true,
            "--report-on-failure" => args.report_on_failure = true,
            "--replay" => args.replay = Some(value("--replay")?),
            "--out" => args.out = value("--out")?,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(args)
}

fn self_test_mode(args: &Args) -> ExitCode {
    let mut missed = 0u64;
    for seed in args.start_seed..args.start_seed + args.seeds {
        for (harness, outcome) in [
            ("sim", mutation_self_test(seed, args.max_gates)),
            ("fault", fault_mutation_self_test(seed, args.max_gates)),
        ] {
            if !outcome.detected {
                missed += 1;
                eprintln!(
                    "MISSED ({harness}) seed {seed}: {:?}→{:?} at net {}",
                    outcome.original, outcome.mutated, outcome.site.0
                );
            }
        }
    }
    println!(
        "{{\"mode\": \"self-test\", \"seeds\": {}, \"missed\": {missed}}}",
        args.seeds
    );
    if missed == 0 {
        println!(
            "self-test: {}/{} injected mutations detected (sim + fault harnesses)",
            args.seeds * 2,
            args.seeds * 2
        );
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn replay_mode(file: &str) -> ExitCode {
    let text = match std::fs::read_to_string(file) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("replay: cannot read {file}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let nl = match parse_netlist(&text) {
        Ok(nl) => nl,
        Err(e) => {
            eprintln!("replay: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "replay: {} gates ({} active), {} in / {} out",
        nl.len(),
        active_gates(&nl),
        nl.input_width(),
        nl.output_width()
    );
    match comb_divergence(&nl, &nl, 0) {
        Some(d) => {
            println!("replay: STILL FAILING: {d}");
            ExitCode::FAILURE
        }
        None => {
            println!("replay: netlist is clean against the reference");
            ExitCode::SUCCESS
        }
    }
}

fn fleet_mode(args: &Args) -> ExitCode {
    let seed = if args.start_seed == 0 {
        42
    } else {
        args.start_seed
    };
    let outcome = match soctest_conformance::fleet_difftest(args.fleet_dies, seed) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("fleet: cache build failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let classes: Vec<String> = outcome
        .class_counts
        .iter()
        .map(|(c, n)| format!("\"{c}\": {n}"))
        .collect();
    println!(
        "{{\"mode\": \"fleet\", \"dies\": {}, \"seed\": {seed}, \"classes\": {{{}}}, \"mismatches\": {}}}",
        outcome.dies,
        classes.join(", "),
        outcome.mismatches.len()
    );
    for m in &outcome.mismatches {
        eprintln!(
            "fleet MISMATCH die {}: {} → fleet {:?} vs standalone {:?}",
            m.die, m.profile, m.fleet, m.standalone
        );
    }
    if outcome.mismatches.is_empty() {
        println!(
            "fleet: {} dies replayed standalone, verdicts identical",
            outcome.dies
        );
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn fuzz_mode(args: &Args) -> ExitCode {
    let mut mismatches: Vec<Mismatch> = Vec::new();
    let mut fault_routes = [Routes::default(); 3];
    for seed in args.start_seed..args.start_seed + args.seeds {
        mismatches.extend(run_all_pairs(seed, args.max_gates, &mut fault_routes));
    }
    let checked: Vec<(&'static str, u64)> = PAIR_NAMES.iter().map(|&p| (p, args.seeds)).collect();
    let leg = match CaseStudy::paper() {
        Ok(case) => case_study_leg(&case, &[0, 1, 2], CASE_STUDY_FAULTS, CASE_STUDY_PATTERNS),
        Err(e) => CaseStudyLeg {
            patterns: CASE_STUDY_PATTERNS,
            faults: 0,
            campaigns: 0,
            routes: [Routes::default(); 3],
            mismatches: vec![format!("case study does not build: {e}")],
        },
    };
    for d in &leg.mismatches {
        eprintln!("case-study MISMATCH {d}");
    }
    let mut missed_routes = Vec::new();
    for (what, routes) in [("fault pair", &fault_routes), ("case study", &leg.routes)] {
        for ((mode, _, _), r) in FAULT_MODES.iter().zip(routes) {
            let line = format!(
                "{what} {mode}: word pass settled {} and handed back {} fault·windows, \
                 {} folded-branch faults",
                r.settled, r.handed_back, r.folded_branch_faults
            );
            if r.complete() {
                println!("{line}");
            } else {
                eprintln!("ROUTE MISSED {line}");
                missed_routes.push(line);
            }
        }
    }

    // Minimize the first sim-pair failure into a replayable dump. The
    // predicate is "simulator and reference still disagree on the reduced
    // netlist", so the dump replays standalone.
    let mut dump_file = None;
    if let Some(m) = mismatches.iter().find(|m| m.pair == "sim") {
        let nl = sim_comb_netlist(m.seed, args.max_gates);
        if comb_divergence(&nl, &nl, m.seed).is_some() {
            let min = minimize(&nl, |cand| comb_divergence(cand, cand, m.seed).is_some());
            let file = format!("difftest_min_seed{}.nl", m.seed);
            if std::fs::write(&file, dump_netlist(&min)).is_ok() {
                println!(
                    "minimized seed {} netlist to {} active gates → {file}",
                    m.seed,
                    active_gates(&min)
                );
                dump_file = Some(file);
            }
            if args.vcd_on_failure {
                let wave = format!("difftest_seed{}.vcd", m.seed);
                if std::fs::write(&wave, divergence_vcd(&min, m.seed)).is_ok() {
                    println!("replayed probe stimulus on the minimized netlist → {wave}");
                }
            }
        }
    }

    let report = render_report(
        args.seeds,
        args.max_gates,
        &checked,
        &mismatches,
        &fault_routes,
        &leg,
        dump_file.as_deref(),
    );
    if std::fs::write(&args.out, &report).is_err() {
        eprintln!("cannot write {}", args.out);
    }
    print!("{report}");

    let clean = mismatches.is_empty() && leg.mismatches.is_empty() && missed_routes.is_empty();
    if args.report_on_failure && !clean {
        let html = render_html_report(
            args.seeds,
            args.max_gates,
            &mismatches,
            &leg,
            dump_file.as_deref(),
        );
        let path = format!("{}.html", args.out.trim_end_matches(".json"));
        if std::fs::write(&path, &html).is_ok() {
            println!("wrote HTML triage report → {path}");
        } else {
            eprintln!("cannot write {path}");
        }
    }
    println!(
        "case study: {} faults × {} patterns, {} campaigns vs the reference, {} mismatches",
        leg.faults,
        leg.patterns,
        leg.campaigns,
        leg.mismatches.len()
    );
    if clean {
        println!(
            "difftest: {} seeds × {} pairs + case-study leg, zero mismatches",
            args.seeds,
            PAIR_NAMES.len()
        );
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "difftest: {} pair mismatches, {} case-study mismatches, {} checked modes missed a route or a pin injection",
            mismatches.len(),
            leg.mismatches.len(),
            missed_routes.len()
        );
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("difftest: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(file) = &args.replay {
        return replay_mode(file);
    }
    if args.self_test {
        return self_test_mode(&args);
    }
    if args.fleet {
        return fleet_mode(&args);
    }
    fuzz_mode(&args)
}
