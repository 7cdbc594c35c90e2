//! One differential runner per redundant engine pair.
//!
//! Each runner draws its own circuits from a domain-separated stream of
//! the run seed, exercises both implementations of the pair, and returns
//! a (hopefully empty) list of [`Mismatch`]es:
//!
//! * **`sim`** — the 64-lane [`KernelSim`] vs the naive [`RefMachine`]
//!   interpreter, probed at four lanes, combinational and sequential.
//! * **`fault`** — the compiled fault simulators (`CombFaultSim`,
//!   `SeqFaultSim`) vs the reference fault simulator
//!   ([`reference_fault_sim`], one `RefMachine` per fault): the kernel's
//!   good machine lane by lane, then first-detection vectors, syndrome
//!   streams, and survivor trajectories — combinational stuck-at with and
//!   without syndromes; sequential stuck-at and transition, per-cycle
//!   outputs with and without syndromes and an off-boundary MISR read
//!   schedule across window seams.
//! * **`bist`** — behavioral `Alfsr`/`Misr`/`fold_xor`/`HoldCycler`/
//!   control unit/`BistEngine` vs the `bist::structural` netlists,
//!   including a full `insert_bist` assembly run against a hand-rolled
//!   behavioral twin of its schedule.
//! * **`p1500`** — the `TapDriver` protocol stack (WIR/WBY/WCDR/WDR
//!   sequences) vs a directly-commanded backend, and `wrap_core`'s
//!   boundary chain (WBR) vs a reference shift/update/capture model.

use soctest_bist::structural::BistSpec;
use soctest_bist::{
    fold_xor, structural as bist_structural, Alfsr, BistCommand, BistEngine, BistEngineConfig,
    BitSource, ConstraintGenerator, ControlUnit, HoldCycler, Misr, ModuleHookup, PortWiring,
};
use soctest_fault::{
    CombFaultSim, FaultUniverse, ObserveMode, ParallelPolicy, PatternSet, SeqFaultSim,
    SeqFaultSimConfig, VectorStimulus,
};
use soctest_netlist::{compile, Netlist};
use soctest_p1500::{
    structural as p1500_structural, BistBackend, MockBackend, TapDriver, TapInstruction,
};
use soctest_prng::SplitMix64;
use soctest_sim::{KernelSim, VcdProbe};

use crate::faultref::{diff_against_reference, reference_fault_sim};
use crate::generator::{random_netlist, GeneratorConfig};
use crate::reference::{self, RefMachine};
use crate::report::Mismatch;

/// The four redundant engine pairs, in run order.
pub const PAIR_NAMES: [&str; 4] = ["sim", "fault", "bist", "p1500"];

/// Lanes sampled out of the 64-lane words when comparing against the
/// single-bit reference.
const LANES: [usize; 4] = [0, 17, 42, 63];

fn rng_for(seed: u64, tag: u64) -> SplitMix64 {
    SplitMix64::new(seed ^ tag.wrapping_mul(0xA5A5_5A5A_9E37_79B9))
}

fn mask(width: usize) -> u64 {
    if width >= 64 {
        u64::MAX
    } else {
        (1u64 << width) - 1
    }
}

/// Runs every pair differential for one seed.
pub fn run_all_pairs(seed: u64, max_gates: usize) -> Vec<Mismatch> {
    let mut out = Vec::new();
    out.extend(pair_sim(seed, max_gates));
    out.extend(pair_fault(seed, max_gates));
    out.extend(pair_bist(seed, max_gates));
    out.extend(pair_p1500(seed, max_gates));
    out
}

// ---------------------------------------------------------------- pair: sim

/// Compares the 64-lane [`KernelSim`] on `candidate` against the naive
/// reference on `golden` under shared random stimulus. With
/// `golden == candidate` this is the plain conformance check; with a
/// mutated candidate it is the detector the self-test validates.
pub fn comb_divergence(golden: &Netlist, candidate: &Netlist, probe_seed: u64) -> Option<String> {
    assert_eq!(golden.input_width(), candidate.input_width());
    assert_eq!(golden.output_width(), candidate.output_width());
    let mut rng = rng_for(probe_seed, 0xC0);
    let pis = candidate.primary_inputs();
    let pos = candidate.primary_outputs();
    let mut sim = KernelSim::new(candidate).expect("comb sim construction");
    for round in 0..3 {
        let words: Vec<u64> = pis.iter().map(|_| rng.next_u64()).collect();
        for (net, w) in pis.iter().zip(&words) {
            sim.set_input(*net, *w);
        }
        sim.eval_comb();
        for &lane in &LANES {
            let bits: Vec<bool> = words.iter().map(|w| (w >> lane) & 1 == 1).collect();
            let expect = reference::eval_comb(golden, &bits);
            for (oi, out) in pos.iter().enumerate() {
                let got = (sim.get(*out) >> lane) & 1 == 1;
                if got != expect[oi] {
                    return Some(format!(
                        "round {round} lane {lane} output {oi}: sim={got} reference={}",
                        expect[oi]
                    ));
                }
            }
        }
    }
    None
}

/// Replays [`comb_divergence`]'s probe stimulus on `netlist` and renders
/// the run as a VCD document (one timestep per probe round, lane 0 of the
/// 64-lane words). This is the waveform a failing `difftest` seed dumps
/// next to its minimized netlist, so the divergence can be inspected in a
/// standard viewer.
pub fn divergence_vcd(netlist: &Netlist, probe_seed: u64) -> String {
    let mut rng = rng_for(probe_seed, 0xC0);
    let pis = netlist.primary_inputs();
    let mut sim = KernelSim::new(netlist).expect("comb sim construction");
    let mut probe = VcdProbe::new();
    let group = probe.add_module(netlist.name(), netlist);
    for round in 0..3u64 {
        let words: Vec<u64> = pis.iter().map(|_| rng.next_u64()).collect();
        for (net, w) in pis.iter().zip(&words) {
            sim.set_input(*net, *w);
        }
        sim.eval_comb();
        probe.record(group, sim.values());
        probe.advance(round);
    }
    probe.finish()
}

/// Compares [`KernelSim`] against the reference over a multi-cycle run.
pub fn seq_divergence(nl: &Netlist, probe_seed: u64) -> Option<String> {
    let mut rng = rng_for(probe_seed, 0xC1);
    let pis = nl.primary_inputs();
    let pos = nl.primary_outputs();
    let mut sim = KernelSim::new(nl).expect("seq sim construction");
    let cycles = 16usize;
    let stim: Vec<Vec<u64>> = (0..cycles)
        .map(|_| pis.iter().map(|_| rng.next_u64()).collect())
        .collect();
    let mut trace: Vec<Vec<u64>> = Vec::with_capacity(cycles);
    for row in &stim {
        for (net, w) in pis.iter().zip(row) {
            sim.set_input(*net, *w);
        }
        sim.eval_comb();
        trace.push(pos.iter().map(|o| sim.get(*o)).collect());
        sim.clock();
    }
    for &lane in &LANES {
        let mut rm = RefMachine::new(nl);
        for (t, row) in stim.iter().enumerate() {
            let bits: Vec<bool> = row.iter().map(|w| (w >> lane) & 1 == 1).collect();
            rm.set_inputs(&bits);
            rm.settle();
            for (oi, &e) in rm.outputs().iter().enumerate() {
                let got = (trace[t][oi] >> lane) & 1 == 1;
                if got != e {
                    return Some(format!(
                        "cycle {t} lane {lane} output {oi}: sim={got} reference={e}"
                    ));
                }
            }
            rm.clock();
        }
    }
    None
}

/// The combinational netlist the `sim` pair draws for `seed` — exposed so
/// `difftest` can regenerate, minimize, and dump a failing circuit.
pub fn sim_comb_netlist(seed: u64, max_gates: usize) -> Netlist {
    let mut rng = rng_for(seed, 1);
    let cfg = GeneratorConfig::sample(&mut rng, max_gates).comb();
    random_netlist(&mut rng, &cfg)
}

fn pair_sim(seed: u64, max_gates: usize) -> Vec<Mismatch> {
    let mut out = Vec::new();
    let nl = sim_comb_netlist(seed, max_gates);
    if let Some(d) = comb_divergence(&nl, &nl, seed) {
        out.push(Mismatch {
            pair: "sim",
            seed,
            detail: format!("comb: {d}"),
        });
    }
    let mut rng = rng_for(seed, 2);
    let cfg = GeneratorConfig::sample(&mut rng, max_gates);
    let cfg = cfg.seq(&mut rng);
    let nl = random_netlist(&mut rng, &cfg);
    if let Some(d) = seq_divergence(&nl, seed) {
        out.push(Mismatch {
            pair: "sim",
            seed,
            detail: format!("seq: {d}"),
        });
    }
    out
}

// --------------------------------------------------------------- pair: bist

fn alfsr_divergence(seed: u64) -> Option<String> {
    let mut rng = rng_for(seed, 5);
    let width = 2 + rng.gen_index(15);
    let nl = bist_structural::alfsr(width).expect("structural alfsr");
    let mut sim = KernelSim::new(&nl).expect("alfsr sim");
    let mut model = Alfsr::new(width).expect("behavioral alfsr");
    for cycle in 0..60 {
        let en = rng.gen_bool(0.8);
        sim.drive_port(&nl, "en", u64::from(en));
        sim.step();
        if en {
            model.step();
        }
        sim.eval_comb();
        let got = sim.read_port_lane(&nl, "q", 0);
        if got != Some(model.state()) {
            return Some(format!(
                "alfsr width {width} cycle {cycle}: structural={got:?} behavioral={:#x}",
                model.state()
            ));
        }
    }
    None
}

fn misr_divergence(seed: u64) -> Option<String> {
    let mut rng = rng_for(seed, 6);
    let width = 2 + rng.gen_index(15);
    let nl = bist_structural::misr(width).expect("structural misr");
    let mut sim = KernelSim::new(&nl).expect("misr sim");
    let mut model = Misr::new(width);
    for cycle in 0..60 {
        let en = rng.gen_bool(0.85);
        let clr = rng.gen_bool(0.05);
        let data = rng.next_u64() & mask(width);
        sim.drive_port(&nl, "data", data);
        sim.drive_port(&nl, "en", u64::from(en));
        sim.drive_port(&nl, "clr", u64::from(clr));
        sim.step();
        if clr {
            model.reset();
        } else if en {
            model.absorb(data);
        }
        sim.eval_comb();
        let got = sim.read_port_lane(&nl, "sig", 0);
        if got != Some(model.signature()) {
            return Some(format!(
                "misr width {width} cycle {cycle}: structural={got:?} behavioral={:#x}",
                model.signature()
            ));
        }
    }
    None
}

fn xor_cascade_divergence(seed: u64) -> Option<String> {
    let mut rng = rng_for(seed, 7);
    let in_width = 1 + rng.gen_index(24);
    let out_width = 1 + rng.gen_index(in_width.min(16));
    let nl = bist_structural::xor_cascade(in_width, out_width).expect("structural cascade");
    let mut sim = KernelSim::new(&nl).expect("cascade sim");
    for round in 0..8 {
        let word = rng.next_u64() & mask(in_width);
        sim.drive_port(&nl, "data", word);
        sim.eval_comb();
        let bits: Vec<bool> = (0..in_width).map(|i| (word >> i) & 1 == 1).collect();
        let expect = fold_xor(&bits, out_width);
        let got = sim.read_port_lane(&nl, "folded", 0);
        if got != Some(expect) {
            return Some(format!(
                "xor_cascade {in_width}->{out_width} round {round}: structural={got:?} behavioral={expect:#x}"
            ));
        }
    }
    None
}

fn hold_cycler_divergence(seed: u64) -> Option<String> {
    let mut rng = rng_for(seed, 8);
    let width = 1 + rng.gen_index(4);
    let hold = [2u64, 4, 8][rng.gen_index(3)];
    let values: Vec<u64> = (0..1 + rng.gen_index(5))
        .map(|_| rng.next_u64() & mask(width))
        .collect();
    let cg = HoldCycler::new(width, values, hold);
    let nl = bist_structural::hold_cycler(&cg).expect("structural hold cycler");
    let mut sim = KernelSim::new(&nl).expect("hold cycler sim");
    sim.drive_port(&nl, "clr", 0);
    let mut enabled = 0u64;
    for cycle in 0..40 {
        let en = rng.gen_bool(0.8);
        sim.drive_port(&nl, "en", u64::from(en));
        sim.eval_comb();
        let got = sim.read_port_lane(&nl, "value", 0);
        let expect = cg.value_at(enabled);
        if got != Some(expect) {
            return Some(format!(
                "hold_cycler cycle {cycle} (enabled {enabled}): structural={got:?} behavioral={expect:#x}"
            ));
        }
        sim.step();
        if en {
            enabled += 1;
        }
    }
    None
}

fn control_unit_divergence(seed: u64) -> Option<String> {
    let mut rng = rng_for(seed, 9);
    let bits = 3 + rng.gen_index(4);
    let npat = 1 + rng.gen_below((1u64 << bits) - 1);
    let nl = bist_structural::control_unit(bits).expect("structural control unit");
    let mut sim = KernelSim::new(&nl).expect("control unit sim");
    sim.drive_port(&nl, "rst", 0);
    sim.drive_port(&nl, "npat", npat);
    sim.drive_port(&nl, "start", 1);
    sim.step();
    sim.drive_port(&nl, "start", 0);
    let mut enabled = 0u64;
    let mut ended = false;
    for _ in 0..(1u64 << bits) + 8 {
        sim.eval_comb();
        if sim.read_port_lane(&nl, "end_test", 0) == Some(1) {
            ended = true;
            break;
        }
        if sim.read_port_lane(&nl, "test_en", 0) == Some(1) {
            enabled += 1;
        }
        sim.step();
    }
    if !ended {
        return Some(format!("control_unit bits {bits} npat {npat}: never ended"));
    }
    let count = sim.read_port_lane(&nl, "count", 0);
    if enabled != npat || count != Some(npat) {
        return Some(format!(
            "control_unit bits {bits} npat {npat}: structural enabled {enabled}, count {count:?}"
        ));
    }
    // Behavioral twin: same invariant, same command sequence.
    let mut cu = ControlUnit::new(bits);
    cu.command(BistCommand::Reset);
    cu.command(BistCommand::LoadPatternCount(npat));
    cu.command(BistCommand::Start);
    let mut b_enabled = 0u64;
    for _ in 0..(1u64 << bits) + 8 {
        if cu.end_test() {
            break;
        }
        if cu.test_enable() {
            b_enabled += 1;
        }
        cu.clock();
    }
    if b_enabled != enabled {
        return Some(format!(
            "control_unit bits {bits} npat {npat}: behavioral enabled {b_enabled}, structural {enabled}"
        ));
    }
    None
}

fn insert_bist_divergence(seed: u64, max_gates: usize) -> Option<String> {
    let mut rng = rng_for(seed, 10);
    let mut cfg = GeneratorConfig::sample(&mut rng, max_gates.min(50));
    cfg.inputs = 2 + rng.gen_index(5);
    let module = random_netlist(&mut rng, &cfg);
    let in_width = module.input_width();

    let alfsr_width = 4 + rng.gen_index(9);
    let misr_width = 4 + rng.gen_index(5);
    let use_cg = rng.gen_bool(0.5);
    let (cgs, wiring) = if use_cg {
        let cg_width = 1 + rng.gen_index(2.min(in_width));
        let hold = [2u64, 4][rng.gen_index(2)];
        let values: Vec<u64> = (0..2 + rng.gen_index(3))
            .map(|_| rng.next_u64() & mask(cg_width))
            .collect();
        let constrained: Vec<usize> = (0..cg_width).collect();
        (
            vec![HoldCycler::new(cg_width, values, hold)],
            PortWiring::with_cg(in_width, 0, &constrained),
        )
    } else {
        (Vec::new(), PortWiring::direct(in_width))
    };
    let spec = BistSpec {
        alfsr_width,
        misr_width,
        counter_bits: 6,
        cgs: cgs.clone(),
        wirings: vec![wiring.clone()],
    };
    let npat = 3 + rng.gen_below(30);

    let nl = bist_structural::insert_bist(&[&module], &spec).expect("insert_bist");
    let mut sim = KernelSim::new(&nl).expect("insert_bist sim");
    sim.drive_port(&nl, "bist_rst", 0);
    sim.drive_port(&nl, "bist_npat", npat);
    sim.drive_port(&nl, "bist_sel", 0);
    sim.drive_port(&nl, &format!("{}_in", module.name()), 0);
    sim.drive_port(&nl, "bist_start", 1);

    // Behavioral twin of the structural schedule.
    let mut alfsr = Alfsr::new(alfsr_width).expect("twin alfsr");
    let mut misr = Misr::new(misr_width);
    let mut rm = RefMachine::new(&module);
    let mut running = false;
    let mut start = true;
    let mut applied = 0u64;
    let mut enabled = 0u64;
    let out_port = format!("{}_out", module.name());

    for guard in 0u64.. {
        if guard > npat + 20 {
            return Some(format!(
                "insert_bist npat {npat}: no end after {guard} cycles"
            ));
        }
        sim.eval_comb();
        let done = applied == npat;
        let struct_end = sim.read_port_lane(&nl, "bist_end", 0) == Some(1);
        if struct_end != done {
            return Some(format!(
                "insert_bist cycle {guard}: structural end={struct_end}, twin done={done}"
            ));
        }
        if done {
            let got = sim.read_port_lane(&nl, "bist_out", 0);
            if got != Some(misr.signature()) {
                return Some(format!(
                    "insert_bist npat {npat}: structural signature={got:?} twin={:#x}",
                    misr.signature()
                ));
            }
            return None;
        }
        let test_en = running;
        let pattern: Vec<bool> = wiring
            .bits()
            .iter()
            .map(|src| match *src {
                BitSource::Alfsr(i) => (alfsr.state() >> (i % alfsr_width)) & 1 == 1,
                BitSource::Cg { cg, bit } => (cgs[cg].value_at(enabled) >> bit) & 1 == 1,
                BitSource::Const(b) => b,
            })
            .collect();
        let in_bits = if test_en {
            pattern
        } else {
            vec![false; in_width]
        };
        rm.set_inputs(&in_bits);
        rm.settle();
        let response = rm.outputs();
        let struct_out = sim.read_port_lane(&nl, &out_port, 0);
        let twin_out = response
            .iter()
            .enumerate()
            .fold(0u64, |acc, (i, &b)| acc | (u64::from(b) << i));
        if struct_out != Some(twin_out) {
            return Some(format!(
                "insert_bist cycle {guard}: structural module out={struct_out:?} twin={twin_out:#x}"
            ));
        }
        if test_en {
            misr.absorb(fold_xor(&response, misr_width));
            alfsr.step();
            enabled += 1;
            applied += 1;
        }
        running = running || start;
        start = false;
        rm.clock();
        sim.step();
        sim.drive_port(&nl, "bist_start", 0);
    }
    unreachable!()
}

fn engine_divergence(seed: u64, max_gates: usize) -> Option<String> {
    let mut rng = rng_for(seed, 11);
    let mut cfg = GeneratorConfig::sample(&mut rng, max_gates.min(40)).comb();
    cfg.inputs = 2 + rng.gen_index(5);
    let module = random_netlist(&mut rng, &cfg);
    let in_width = module.input_width();
    let out_width = module.output_width();

    let alfsr_width = 4 + rng.gen_index(9);
    let misr_width = 4 + rng.gen_index(5);
    let cg = HoldCycler::new(2, vec![1, 2, 3], 3);
    let wiring = if in_width >= 2 && rng.gen_bool(0.5) {
        PortWiring::with_cg(in_width, 0, &[0, 1])
    } else {
        PortWiring::direct(in_width)
    };
    let mut engine = BistEngine::new(
        Alfsr::new(alfsr_width).expect("engine alfsr"),
        vec![Box::new(cg.clone())],
        vec![ModuleHookup {
            name: "mut".into(),
            wiring: wiring.clone(),
            output_width: out_width,
        }],
        BistEngineConfig {
            counter_bits: 8,
            misr_width,
        },
    );
    let sd = rng.next_u64() & mask(alfsr_width);
    engine.set_seed(sd);
    let npat = 5 + rng.gen_below(40);
    engine.begin(npat);

    // Closed-form reference: its own ALFSR stream, the naive interpreter
    // for the module, a fresh MISR fed through fold_xor.
    let mut stream = Alfsr::new(alfsr_width).expect("reference alfsr");
    stream.set_state(sd);
    stream.step();
    let mut ref_misr = Misr::new(misr_width);
    for t in 0..npat {
        let row: Vec<bool> = wiring
            .bits()
            .iter()
            .map(|src| match *src {
                BitSource::Alfsr(i) => (stream.state() >> (i % alfsr_width)) & 1 == 1,
                BitSource::Cg { cg: _, bit } => (cg.value_at(t) >> bit) & 1 == 1,
                BitSource::Const(b) => b,
            })
            .collect();
        let erow = engine.inputs(0);
        if erow != row {
            return Some(format!(
                "engine cycle {t}: engine row {erow:?} vs closed-form {row:?}"
            ));
        }
        let response = reference::eval_comb(&module, &erow);
        ref_misr.absorb(fold_xor(&response, misr_width));
        let done = engine.clock(&[response]);
        stream.step();
        if done != (t + 1 == npat) {
            return Some(format!("engine cycle {t}: done={done} npat={npat}"));
        }
    }
    if engine.signature(0) != ref_misr.signature() {
        return Some(format!(
            "engine signature {:#x} vs closed-form {:#x}",
            engine.signature(0),
            ref_misr.signature()
        ));
    }
    None
}

fn pair_bist(seed: u64, max_gates: usize) -> Vec<Mismatch> {
    let checks: [(&str, Option<String>); 7] = [
        ("alfsr", alfsr_divergence(seed)),
        ("misr", misr_divergence(seed)),
        ("xor_cascade", xor_cascade_divergence(seed)),
        ("hold_cycler", hold_cycler_divergence(seed)),
        ("control_unit", control_unit_divergence(seed)),
        ("insert_bist", insert_bist_divergence(seed, max_gates)),
        ("engine", engine_divergence(seed, max_gates)),
    ];
    checks
        .into_iter()
        .filter_map(|(what, d)| {
            d.map(|detail| Mismatch {
                pair: "bist",
                seed,
                detail: format!("{what}: {detail}"),
            })
        })
        .collect()
}

// -------------------------------------------------------------- pair: p1500

fn driver_divergence(seed: u64) -> Option<String> {
    let mut rng = rng_for(seed, 12);
    let sig_width = 4 + rng.gen_index(13);
    let needed = 1 + rng.gen_below(200);
    let mut drv = TapDriver::new(MockBackend::new(sig_width, needed));
    let mut reference = MockBackend::new(sig_width, needed);
    drv.reset();
    let compare = |step: usize, got: (bool, u64), want: (bool, u64)| -> Option<String> {
        if got != want {
            Some(format!(
                "driver step {step}: TAP status {got:?} vs direct backend {want:?}"
            ))
        } else {
            None
        }
    };
    for step in 0..16 {
        match rng.gen_index(8) {
            0 => {
                let n = rng.gen_below(1000);
                drv.bist_load_pattern_count(n);
                reference.command(BistCommand::LoadPatternCount(n));
            }
            1 => {
                drv.bist_start();
                reference.command(BistCommand::Start);
            }
            2 => {
                let m = rng.gen_index(4) as u8;
                drv.bist_select_result(m);
                reference.command(BistCommand::SelectResult(m));
            }
            3 => {
                let k = rng.gen_below(64);
                drv.run_functional(k);
                for _ in 0..k {
                    reference.functional_clock();
                }
            }
            4 => {
                // A TAP reset rewinds the protocol state machine but must
                // not disturb the backend.
                drv.reset();
            }
            5 => {
                // WBY: a bypass shift is a 1-TCK delay line.
                drv.load_tap_ir(TapInstruction::Bypass);
                let n = 3 + rng.gen_index(6);
                let bits: Vec<bool> = (0..n).map(|_| rng.gen_bool(0.5)).collect();
                let out = drv.shift_dr(&bits);
                let mut want = vec![false];
                want.extend_from_slice(&bits[..n - 1]);
                if out != want {
                    return Some(format!(
                        "driver step {step}: bypass shift {out:?} vs delayed {want:?}"
                    ));
                }
            }
            6 => {
                drv.bist_command(BistCommand::Reset);
                reference.command(BistCommand::Reset);
            }
            _ => {
                let got = drv.read_status();
                let want = (reference.end_test(), reference.selected_signature());
                if let Some(d) = compare(step, got, want) {
                    return Some(d);
                }
            }
        }
    }
    // Deterministic tail: run to completion and verify the final word.
    drv.bist_command(BistCommand::Reset);
    reference.command(BistCommand::Reset);
    let n = 1 + rng.gen_below(500);
    drv.bist_load_pattern_count(n);
    reference.command(BistCommand::LoadPatternCount(n));
    drv.bist_start();
    reference.command(BistCommand::Start);
    drv.run_functional(needed);
    for _ in 0..needed {
        reference.functional_clock();
    }
    let m = rng.gen_index(4) as u8;
    drv.bist_select_result(m);
    reference.command(BistCommand::SelectResult(m));
    let got = drv.read_status();
    let want = (reference.end_test(), reference.selected_signature());
    if !got.0 {
        return Some(format!("driver tail: not done after {needed} cycles"));
    }
    compare(usize::MAX, got, want)
}

fn wrap_core_divergence(seed: u64, max_gates: usize) -> Option<String> {
    let mut rng = rng_for(seed, 13);
    let cfg = GeneratorConfig::sample(&mut rng, max_gates.min(40)).comb();
    let core = random_netlist(&mut rng, &cfg);
    let n = core.input_width();
    let m = core.output_width();
    let wrapped = p1500_structural::wrap_core(&core).expect("wrap_core");
    let mut sim = KernelSim::new(&wrapped).expect("wrapped sim");

    // Reference chain model: 3 WIR shift stages, per-input shift+update
    // stages, per-output capture stages — one chain wsi → wso.
    let mut wir_shift = [false; 3];
    let mut in_shift = vec![false; n];
    let mut in_upd = vec![false; n];
    let mut out_shift = vec![false; m];

    for cycle in 0..48 {
        let wsi = rng.gen_bool(0.5);
        let shift = rng.gen_bool(0.6);
        let capture = rng.gen_bool(0.2);
        let update = rng.gen_bool(0.2);
        let test = rng.gen_bool(0.5);
        let func = rng.next_u64() & mask(n);
        sim.drive_port(&wrapped, "wsi", u64::from(wsi));
        sim.drive_port(&wrapped, "wrap_shift", u64::from(shift));
        sim.drive_port(&wrapped, "wrap_capture", u64::from(capture));
        sim.drive_port(&wrapped, "wrap_update", u64::from(update));
        sim.drive_port(&wrapped, "wrap_test", u64::from(test));
        sim.drive_port(&wrapped, "in", func);
        sim.eval_comb();

        let core_in: Vec<bool> = (0..n)
            .map(|j| {
                if test {
                    in_upd[j]
                } else {
                    (func >> j) & 1 == 1
                }
            })
            .collect();
        let core_out = reference::eval_comb(&core, &core_in);
        let wso_want = if m > 0 {
            out_shift[m - 1]
        } else {
            in_shift[n - 1]
        };
        let wso_got = sim.read_port_lane(&wrapped, "wso", 0);
        if wso_got != Some(u64::from(wso_want)) {
            return Some(format!(
                "wrap_core cycle {cycle}: wso structural={wso_got:?} reference={wso_want}"
            ));
        }
        let out_want = core_out
            .iter()
            .enumerate()
            .fold(0u64, |acc, (i, &b)| acc | (u64::from(b) << i));
        let out_got = sim.read_port_lane(&wrapped, "out", 0);
        if out_got != Some(out_want) {
            return Some(format!(
                "wrap_core cycle {cycle}: core out structural={out_got:?} reference={out_want:#x} (test={test})"
            ));
        }

        // Clock edge on the reference model (everything from old state).
        let old_wir = wir_shift;
        let old_in_shift = in_shift.clone();
        let old_out_shift = out_shift.clone();
        if shift {
            wir_shift = [wsi, old_wir[0], old_wir[1]];
        }
        let mut chain_in = old_wir[2];
        for j in 0..n {
            if shift {
                in_shift[j] = chain_in;
            }
            if update {
                in_upd[j] = old_in_shift[j];
            }
            chain_in = old_in_shift[j];
        }
        for j in 0..m {
            if capture {
                out_shift[j] = core_out[j];
            } else if shift {
                out_shift[j] = chain_in;
            }
            chain_in = old_out_shift[j];
        }
        sim.clock();
    }
    None
}

fn pair_p1500(seed: u64, max_gates: usize) -> Vec<Mismatch> {
    let mut out = Vec::new();
    if let Some(d) = driver_divergence(seed) {
        out.push(Mismatch {
            pair: "p1500",
            seed,
            detail: format!("driver: {d}"),
        });
    }
    if let Some(d) = wrap_core_divergence(seed, max_gates) {
        out.push(Mismatch {
            pair: "p1500",
            seed,
            detail: format!("wrap_core: {d}"),
        });
    }
    out
}

// -------------------------------------------------------------- pair: fault

/// Compares the compiled-kernel `CombFaultSim` on `candidate` against the
/// reference fault simulator on `golden` under a shared pattern set, with
/// and without syndrome collection. With `golden == candidate` this is the
/// plain conformance check; with a mutated candidate it is the detector
/// the fault mutation self-test validates.
///
/// The good machine is compared first, lane by lane, against the
/// reference. Fault detections alone are blind to some good-machine bugs:
/// collapsing hoists an output net's stuck-at injections upstream, so an
/// engine that consistently inverted a primary output would leave every
/// collapsed detection index untouched.
pub fn fault_comb_divergence(
    golden: &Netlist,
    candidate: &Netlist,
    probe_seed: u64,
) -> Option<String> {
    assert_eq!(golden.input_width(), candidate.input_width());
    let mut rng = rng_for(probe_seed, 14);
    let g_universe = FaultUniverse::stuck_at(golden);
    let c_universe = FaultUniverse::stuck_at(candidate);
    assert_eq!(g_universe.len(), c_universe.len());
    let width = golden.input_width();
    // 96 patterns: one full 64-pattern block and a partial one.
    let rows: Vec<Vec<bool>> = (0..96)
        .map(|_| (0..width).map(|_| rng.gen_bool(0.5)).collect())
        .collect();
    let kernel = compile(candidate).expect("candidate compiles");
    for (block, chunk) in rows.chunks(64).enumerate() {
        let mut values = kernel.fresh_values();
        for (lane, row) in chunk.iter().enumerate() {
            for (&pi, &bit) in kernel.pis().iter().zip(row) {
                values[pi as usize] |= (bit as u64) << lane;
            }
        }
        kernel.eval(&mut values);
        for (lane, row) in chunk.iter().enumerate() {
            let expect = reference::eval_comb(golden, row);
            for (oi, &po) in kernel.pos().iter().enumerate() {
                let got = (values[po as usize] >> lane) & 1 == 1;
                if got != expect[oi] {
                    return Some(format!(
                        "comb good machine: pattern {} output {oi}: kernel={got} reference={}",
                        block * 64 + lane,
                        expect[oi]
                    ));
                }
            }
        }
    }
    let patterns = PatternSet::from_rows(width, &rows);
    let reference = reference_fault_sim(&g_universe, &rows, &[ObserveMode::Outputs]);
    for (what, collect) in [("comb", false), ("comb+syndromes", true)] {
        let mut sim = CombFaultSim::new(&c_universe).with_parallelism(ParallelPolicy::serial());
        if collect {
            sim = sim.with_syndromes();
        }
        let got = sim.run_stuck_at(&patterns).expect("comb fault sim");
        // The PPSFP simulator reports survivors per 64-pattern block and
        // never stops early.
        if let Some(d) = diff_against_reference(&g_universe, &got, &reference[0], 64, false) {
            return Some(format!("{what} {d}"));
        }
    }
    None
}

/// Compares the kernel `SeqFaultSim` on `nl` against the reference fault
/// simulator under shared stimulus, for stuck-at and transition faults,
/// across both observation modes: per-cycle outputs with and without
/// syndrome collection, and an off-boundary MISR read schedule with
/// syndromes.
pub fn fault_seq_divergence(nl: &Netlist, probe_seed: u64) -> Option<String> {
    let mut rng = rng_for(probe_seed, 15);
    let width = nl.input_width();
    let cycles = 40u64;
    let words: Vec<u64> = (0..cycles).map(|_| rng.next_u64() & mask(width)).collect();
    let rows: Vec<Vec<bool>> = words
        .iter()
        .map(|w| (0..width).map(|i| (w >> i) & 1 == 1).collect())
        .collect();
    // `read_every: 7` leaves the final read off the boundary grid, and
    // `window: 16` splits the run so window seams are exercised too.
    let window = 16;
    let misr = ObserveMode::misr_default(nl.output_width().clamp(2, 16), 7);
    let observe = [ObserveMode::Outputs, misr];
    let modes = [
        ("outputs", 0, false),
        ("outputs+syndromes", 0, true),
        ("misr", 1, true),
    ];
    for (model, universe) in [
        ("stuck-at", FaultUniverse::stuck_at(nl)),
        ("transition", FaultUniverse::transition(nl)),
    ] {
        let reference = reference_fault_sim(&universe, &rows, &observe);
        for (what, m, collect) in modes {
            let config = SeqFaultSimConfig {
                window,
                observe: observe[m].clone(),
                collect_syndromes: collect,
                parallel: ParallelPolicy::serial(),
                ..Default::default()
            };
            let got = SeqFaultSim::new(&universe, config)
                .run(&mut VectorStimulus::new(words.clone()))
                .expect("seq fault sim");
            if let Some(d) =
                diff_against_reference(&universe, &got, &reference[m], window, !collect)
            {
                return Some(format!("seq {model} {what} {d}"));
            }
        }
    }
    None
}

fn pair_fault(seed: u64, max_gates: usize) -> Vec<Mismatch> {
    let mut out = Vec::new();
    let mut rng = rng_for(seed, 16);
    let cfg = GeneratorConfig::sample(&mut rng, max_gates.min(60)).comb();
    let nl = random_netlist(&mut rng, &cfg);
    if let Some(d) = fault_comb_divergence(&nl, &nl, seed) {
        out.push(Mismatch {
            pair: "fault",
            seed,
            detail: d,
        });
    }
    let mut rng = rng_for(seed, 17);
    let cfg = GeneratorConfig::sample(&mut rng, max_gates.min(40));
    let cfg = cfg.seq(&mut rng);
    let nl = random_netlist(&mut rng, &cfg);
    if let Some(d) = fault_seq_divergence(&nl, seed) {
        out.push(Mismatch {
            pair: "fault",
            seed,
            detail: d,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_few_seeds_run_clean() {
        for seed in 0..4u64 {
            let ms = run_all_pairs(seed, 60);
            assert!(ms.is_empty(), "seed {seed}: {ms:?}");
        }
    }

    #[test]
    fn divergence_waveform_is_loadable_and_deterministic() {
        use soctest_obs::VcdReader;

        let nl = sim_comb_netlist(7, 40);
        let a = divergence_vcd(&nl, 7);
        let b = divergence_vcd(&nl, 7);
        assert_eq!(a, b, "same netlist and seed give the same waveform");
        let reader = VcdReader::parse(&a).expect("vcd parses");
        let first = nl.ports()[0].name().to_owned();
        // Three probe rounds → values exist at every timestep.
        for t in 0..3 {
            assert!(
                reader
                    .value_at(&format!("{}.{first}", nl.name()), t)
                    .is_some(),
                "value at round {t}"
            );
        }
    }
}
