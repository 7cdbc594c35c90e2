//! Property-style tests on the core data structures and simulator
//! invariants, spanning crates.
//!
//! These were originally proptest properties; they now run as plain
//! `#[test]` loops over the in-tree seeded PRNG so the suite builds with no
//! registry access. Each test sweeps a fixed number of random cases; the
//! seeds are fixed, so failures replay deterministically.

use soctest::bist::{Alfsr, Misr};
use soctest::conformance::RefMachine;
use soctest::fault::{
    CombFaultSim, FaultKind, FaultUniverse, ObserveMode, ParallelPolicy, PatternSet, SeqFaultSim,
    SeqFaultSimConfig, VectorStimulus,
};
use soctest::netlist::{GateKind, ModuleBuilder, NetId, Netlist};
use soctest::prng::SplitMix64;
use soctest::sim::KernelSim;

const CASES: usize = 64;

/// A random but *valid* combinational netlist: `n_in` inputs followed by
/// random 2-input gates over earlier nets.
fn random_comb(n_in: usize, gates: &[(u8, u16, u16)]) -> Netlist {
    let mut nl = Netlist::new("rand");
    let mut nets: Vec<NetId> = (0..n_in)
        .map(|_| nl.add_gate(GateKind::Input, vec![]))
        .collect();
    for &(kind, a, b) in gates {
        let k = match kind % 6 {
            0 => GateKind::And,
            1 => GateKind::Or,
            2 => GateKind::Nand,
            3 => GateKind::Nor,
            4 => GateKind::Xor,
            _ => GateKind::Xnor,
        };
        let pa = nets[a as usize % nets.len()];
        let pb = nets[b as usize % nets.len()];
        nets.push(nl.add_gate(k, vec![pa, pb]));
    }
    let ins: Vec<NetId> = nets[..n_in].to_vec();
    let last = *nets.last().expect("nonempty");
    nl.add_port(soctest::netlist::PortDir::Input, "in", ins)
        .unwrap();
    nl.add_port(soctest::netlist::PortDir::Output, "out", vec![last])
        .unwrap();
    nl
}

/// Draws the `(n_in, gates)` shape the old proptest strategies produced.
fn draw_comb(
    rng: &mut SplitMix64,
    max_in: usize,
    max_gates: usize,
) -> (usize, Vec<(u8, u16, u16)>) {
    let n_in = 1 + rng.gen_index(max_in.max(1));
    let n_gates = 1 + rng.gen_index(max_gates.max(1));
    let gates = (0..n_gates)
        .map(|_| {
            (
                rng.next_u32() as u8,
                rng.next_u32() as u16,
                rng.next_u32() as u16,
            )
        })
        .collect();
    (n_in, gates)
}

/// Levelization emits every combinational gate after its drivers.
#[test]
fn levelize_respects_dependencies() {
    let mut rng = SplitMix64::new(0x1e4e1);
    for _ in 0..CASES {
        let (n_in, gates) = draw_comb(&mut rng, 5, 59);
        let nl = random_comb(n_in, &gates);
        let order = nl.levelize().unwrap();
        let mut pos = vec![usize::MAX; nl.len()];
        for (i, id) in order.iter().enumerate() {
            pos[id.index()] = i;
        }
        for (id, gate) in nl.iter() {
            if gate.kind.is_source() {
                continue;
            }
            for p in &gate.pins {
                if !nl.gate(*p).kind.is_source() {
                    assert!(pos[p.index()] < pos[id.index()]);
                }
            }
        }
    }
}

/// Bit-parallel evaluation agrees with an independent single-lane run.
#[test]
fn lanes_are_independent() {
    let mut rng = SplitMix64::new(0x1a9e5);
    for _ in 0..CASES {
        let (n_in, gates) = draw_comb(&mut rng, 4, 39);
        let nl = random_comb(n_in, &gates);
        let mut sim = KernelSim::new(&nl).unwrap();
        let ins = nl.port("in").unwrap().bits().to_vec();
        let out = nl.port("out").unwrap().bits()[0];
        let n_words = 1 + rng.gen_index(4);
        let stimulus: Vec<u64> = (0..n_words).map(|_| rng.next_u64()).collect();
        for words in stimulus.chunks(n_in) {
            let mut padded = words.to_vec();
            padded.resize(n_in, 0);
            for (&net, &w) in ins.iter().zip(&padded) {
                sim.set_input(net, w);
            }
            sim.eval_comb();
            let parallel = sim.get(out);
            // Re-run lane 7 alone, broadcast.
            let mut solo = KernelSim::new(&nl).unwrap();
            for (&net, &w) in ins.iter().zip(&padded) {
                solo.set_input_bit(net, (w >> 7) & 1 == 1);
            }
            solo.eval_comb();
            assert_eq!((parallel >> 7) & 1, solo.get(out) & 1);
        }
    }
}

/// Fault collapsing partitions the uncollapsed universe exactly.
#[test]
fn collapsing_is_a_partition() {
    let mut rng = SplitMix64::new(0xc011a);
    for _ in 0..CASES {
        let (n_in, gates) = draw_comb(&mut rng, 4, 49);
        let nl = random_comb(n_in, &gates);
        let u = FaultUniverse::stuck_at(&nl);
        let member_total: usize = (0..u.len()).map(|i| u.class(i).len()).sum();
        assert_eq!(member_total, u.total_sites());
        for i in 0..u.len() {
            assert!(
                u.class(i).contains(&u.faults()[i]),
                "representative in class"
            );
        }
    }
}

/// Fault-simulation results are invariant under the window length.
#[test]
fn windowing_never_changes_detection() {
    let mut rng = SplitMix64::new(0x714d0);
    for _ in 0..CASES / 4 {
        let n_in = 2 + rng.gen_index(3);
        let n_gates = 4 + rng.gen_index(26);
        let gates: Vec<(u8, u16, u16)> = (0..n_gates)
            .map(|_| {
                (
                    rng.next_u32() as u8,
                    rng.next_u32() as u16,
                    rng.next_u32() as u16,
                )
            })
            .collect();
        // Registered random block so state is involved.
        let comb = random_comb(n_in, &gates);
        let mut mb = ModuleBuilder::new("regged");
        let ins = mb.input_bus("in", n_in);
        let map = std::collections::HashMap::from([("in".to_owned(), ins)]);
        let outs = mb.netlist_mut().instantiate(&comb, &map).unwrap();
        let q = mb.register(&outs["out"]);
        mb.output_bus("q", &q);
        let nl = mb.finish().unwrap();

        let patterns: Vec<u64> = (0..8 + rng.gen_index(32)).map(|_| rng.next_u64()).collect();
        let window = 1 + rng.gen_below(19);

        let u = FaultUniverse::stuck_at(&nl);
        let run = |w: u64| {
            let mut stim = VectorStimulus::new(patterns.clone());
            SeqFaultSim::new(
                &u,
                SeqFaultSimConfig {
                    window: w,
                    ..Default::default()
                },
            )
            .run(&mut stim)
            .unwrap()
            .detection
        };
        assert_eq!(run(window), run(1 << 20));
    }
}

/// The ALFSR never locks up and `state_at` matches stepping.
#[test]
fn alfsr_streams_consistently() {
    let mut rng = SplitMix64::new(0xa1f58);
    for _ in 0..CASES {
        let width = 2 + rng.gen_index(18);
        let n = rng.gen_below(200);
        let mut a = Alfsr::new(width).unwrap();
        let ones = (1u64 << width) - 1;
        for _ in 0..n {
            a.step();
            assert_ne!(a.state(), ones, "lock-up state reached");
        }
        assert_eq!(a.state(), a.state_at(n));
    }
}

/// MISR signatures distinguish any single-bit difference in a stream.
#[test]
fn misr_catches_single_flips() {
    let mut rng = SplitMix64::new(0x315f1);
    for _ in 0..CASES {
        let len = 2 + rng.gen_index(38);
        let stream: Vec<u16> = (0..len).map(|_| rng.next_u32() as u16).collect();
        let flip_at = rng.gen_index(stream.len());
        let bit = rng.gen_index(16);
        let mut clean = Misr::new(16);
        let mut dirty = Misr::new(16);
        for (i, &w) in stream.iter().enumerate() {
            clean.absorb(w as u64);
            let e = if i == flip_at { 1u64 << bit } else { 0 };
            dirty.absorb(w as u64 ^ e);
        }
        assert_ne!(clean.signature(), dirty.signature());
    }
}

/// Pattern sets round-trip arbitrary rows.
#[test]
fn pattern_set_round_trip() {
    let mut rng = SplitMix64::new(0x9a77e);
    for _ in 0..CASES {
        let n_rows = 1 + rng.gen_index(69);
        let rows: Vec<Vec<bool>> = (0..n_rows)
            .map(|_| {
                let mut row = vec![false; 7];
                rng.fill_bool(&mut row);
                row
            })
            .collect();
        let set = PatternSet::from_rows(7, &rows);
        assert_eq!(set.len(), rows.len());
        for (i, row) in rows.iter().enumerate() {
            assert_eq!(&set.row(i), row);
        }
    }
}

/// Sequential simulation is deterministic in its inputs.
#[test]
fn seq_sim_is_deterministic() {
    let mut rng = SplitMix64::new(0x5e95e);
    for _ in 0..CASES {
        let (n_in, gates) = draw_comb(&mut rng, 3, 29);
        let comb = random_comb(n_in, &gates);
        let drive: Vec<u64> = (0..1 + rng.gen_index(19)).map(|_| rng.next_u64()).collect();
        let run = || {
            let mut sim = KernelSim::new(&comb).unwrap();
            let ins = comb.port("in").unwrap().bits().to_vec();
            let out = comb.port("out").unwrap().bits()[0];
            let mut acc = 0u64;
            for &d in &drive {
                for (k, &net) in ins.iter().enumerate() {
                    sim.set_input_bit(net, (d >> k) & 1 == 1);
                }
                sim.step();
                sim.eval_comb();
                acc = acc.wrapping_mul(31).wrapping_add(sim.get(out) & 1);
            }
            acc
        };
        assert_eq!(run(), run());
    }
}

/// A random registered block: the random combinational cloud feeding a
/// register bank whose outputs are the observed port.
fn random_registered(rng: &mut SplitMix64, max_in: usize, max_gates: usize) -> Netlist {
    let n_in = 2 + rng.gen_index(max_in.max(1));
    let n_gates = 4 + rng.gen_index(max_gates.max(1));
    let gates: Vec<(u8, u16, u16)> = (0..n_gates)
        .map(|_| {
            (
                rng.next_u32() as u8,
                rng.next_u32() as u16,
                rng.next_u32() as u16,
            )
        })
        .collect();
    let comb = random_comb(n_in, &gates);
    let mut mb = ModuleBuilder::new("regged");
    let ins = mb.input_bus("in", n_in);
    let map = std::collections::HashMap::from([("in".to_owned(), ins)]);
    let outs = mb.netlist_mut().instantiate(&comb, &map).unwrap();
    let q = mb.register(&outs["out"]);
    mb.output_bus("q", &q);
    mb.finish().unwrap()
}

/// Combinational PPSFP on N worker threads is bit-identical to serial:
/// detection vector, syndromes, and scheduling counters all agree.
#[test]
fn comb_parallel_fault_sim_matches_serial() {
    let mut rng = SplitMix64::new(0xc0b9a);
    for _ in 0..CASES / 8 {
        let (n_in, gates) = draw_comb(&mut rng, 5, 49);
        let nl = random_comb(n_in, &gates);
        let u = FaultUniverse::stuck_at(&nl);
        let n_rows = 70 + rng.gen_index(90);
        let rows: Vec<Vec<bool>> = (0..n_rows)
            .map(|_| {
                let mut row = vec![false; n_in];
                rng.fill_bool(&mut row);
                row
            })
            .collect();
        let pats = PatternSet::from_rows(n_in, &rows);
        let run = |threads: usize| {
            CombFaultSim::new(&u)
                .with_syndromes()
                .with_parallelism(ParallelPolicy::with_threads(threads))
                .run_stuck_at(&pats)
                .unwrap()
        };
        let serial = run(1);
        for threads in [2, 4] {
            let par = run(threads);
            assert_eq!(serial.detection, par.detection);
            assert_eq!(serial.syndromes, par.syndromes);
            assert_eq!(serial.stats.survivors, par.stats.survivors);
        }
    }
}

/// The sequential fault simulator on N worker threads is bit-identical to
/// serial on random registered netlists.
#[test]
fn seq_parallel_fault_sim_matches_serial() {
    let mut rng = SplitMix64::new(0x5eb9a);
    let mut parallel_cases = 0;
    for _ in 0..CASES / 8 {
        let nl = random_registered(&mut rng, 3, 26);
        let u = FaultUniverse::stuck_at(&nl);
        let vectors: Vec<u64> = (0..16 + rng.gen_index(24))
            .map(|_| rng.next_u64())
            .collect();
        let run = |threads: usize| {
            let mut stim = VectorStimulus::new(vectors.clone());
            SeqFaultSim::new(
                &u,
                SeqFaultSimConfig {
                    window: 8,
                    collect_syndromes: true,
                    parallel: ParallelPolicy::with_threads(threads),
                    ..Default::default()
                },
            )
            .run(&mut stim)
            .unwrap()
        };
        let serial = run(1);
        for threads in [2, 4] {
            let par = run(threads);
            parallel_cases += usize::from(par.stats.threads >= 2);
            assert_eq!(serial.detection, par.detection);
            assert_eq!(serial.syndromes, par.syndromes);
            assert_eq!(serial.stats.survivors, par.stats.survivors);
            assert_eq!(serial.stats.faulty_cycles, par.stats.faulty_cycles);
            assert_eq!(
                serial.stats.settled_fault_windows,
                par.stats.settled_fault_windows
            );
            assert_eq!(
                serial.stats.handed_back_fault_windows,
                par.stats.handed_back_fault_windows
            );
        }
    }
    // A universe of one 64-fault chunk runs on one worker whatever the
    // policy, so at least one case must be large enough to fan out.
    assert!(parallel_cases > 0, "no case ran on two or more threads");
}

/// Full re-evaluation of the netlist with a fault override at one site — a
/// deliberately naive oracle for the event-driven propagator.
fn ref_eval(nl: &Netlist, order: &[NetId], values: &mut [u64], fault: Option<(NetId, u64)>) {
    if let Some((s, v)) = fault {
        values[s.index()] = v;
    }
    let mut pins = [0u64; 4];
    for &id in order {
        let gate = nl.gate(id);
        if gate.kind.is_source() {
            continue;
        }
        for (i, &p) in gate.pins.iter().enumerate() {
            pins[i] = values[p.index()];
        }
        values[id.index()] = gate.kind.eval_word(&pins[..gate.pins.len()]);
        if let Some((s, v)) = fault {
            if s == id {
                values[id.index()] = v;
            }
        }
    }
}

/// Launch-on-capture transition fault simulation agrees with an explicit
/// two-cycle launch/capture reference that re-evaluates the whole netlist
/// per fault instead of propagating events.
#[test]
fn comb_transition_matches_two_cycle_reference() {
    let mut rng = SplitMix64::new(0x7d51a);
    for _ in 0..CASES / 8 {
        let (n_in, gates) = draw_comb(&mut rng, 4, 29);
        let nl = random_comb(n_in, &gates);
        let pis = nl.primary_inputs();
        let out = nl.port("out").unwrap().bits()[0];
        let state_map = [(pis[0], out)];
        let u = FaultUniverse::transition(&nl);
        let n_rows = 66 + rng.gen_index(40);
        let rows: Vec<Vec<bool>> = (0..n_rows)
            .map(|_| {
                let mut row = vec![false; n_in];
                rng.fill_bool(&mut row);
                row
            })
            .collect();
        let pats = PatternSet::from_rows(n_in, &rows);
        let result = CombFaultSim::new(&u)
            .run_transition(&pats, &state_map)
            .unwrap();

        // The reference runs on the fault *view* (original ids preserved,
        // fanout-branch buffers appended), where the fault sites live.
        let view = u.view();
        let order = view.levelize().unwrap();
        let obs = u.observe_nets().to_vec();
        let mut expected: Vec<Option<u64>> = vec![None; u.len()];
        for (p, row) in rows.iter().enumerate() {
            let mut launch = vec![0u64; view.len()];
            for (k, &pi) in pis.iter().enumerate() {
                launch[pi.index()] = if row[k] { u64::MAX } else { 0 };
            }
            ref_eval(view, &order, &mut launch, None);
            let mut good = launch.clone();
            for &(ppi, ppo) in &state_map {
                good[ppi.index()] = launch[ppo.index()];
            }
            ref_eval(view, &order, &mut good, None);
            for (fi, f) in u.faults().iter().enumerate() {
                if expected[fi].is_some() {
                    continue;
                }
                let s = f.net;
                let fv = match f.kind {
                    FaultKind::SlowToRise => good[s.index()] & launch[s.index()],
                    FaultKind::SlowToFall => good[s.index()] | launch[s.index()],
                    _ => unreachable!("transition universe"),
                };
                if fv == good[s.index()] {
                    continue; // transition not excited at the site
                }
                let mut faulty = launch.clone();
                for &(ppi, ppo) in &state_map {
                    faulty[ppi.index()] = launch[ppo.index()];
                }
                ref_eval(view, &order, &mut faulty, Some((s, fv)));
                if obs
                    .iter()
                    .any(|&o| (faulty[o.index()] ^ good[o.index()]) & 1 == 1)
                {
                    expected[fi] = Some(p as u64);
                }
            }
        }
        assert_eq!(result.detection, expected);
    }
}

/// Drives `nl` on the naive reference interpreter ([`RefMachine`], which
/// shares no code with the fault simulator's kernel) and compacts the
/// observed nets through a width-64 [`Misr`] exactly like the fault
/// simulator's MISR observation mode: fold, absorb each cycle, read every
/// `read` cycles plus a final read. Returns `(cycle, signature)` per read.
fn misr64_trace(nl: &Netlist, obs: &[NetId], vectors: &[u64], read: u64) -> Vec<(u64, u64)> {
    let mut rm = RefMachine::new(nl);
    let width = nl.input_width();
    let mut misr = Misr::new(64);
    let mut out = Vec::new();
    let total = vectors.len() as u64;
    for (t, &v) in vectors.iter().enumerate() {
        let row: Vec<bool> = (0..width).map(|k| (v >> k) & 1 == 1).collect();
        rm.set_inputs(&row);
        rm.settle();
        let bits: Vec<bool> = obs.iter().map(|&o| rm.value(o)).collect();
        misr.absorb_folded(&bits);
        let t = t as u64;
        if (t + 1).is_multiple_of(read) || t + 1 == total {
            out.push((t, misr.signature()));
        }
        rm.clock();
    }
    out
}

/// Width-64 MISR observation (the regression boundary of the shift-overflow
/// bug) agrees with the behavioral `bist::Misr`: a fault is detected exactly
/// when the signature of a `force_constant` copy of the netlist diverges
/// from the fault-free signature at a read boundary, at that read's cycle.
#[test]
fn misr64_fault_sim_matches_bist_misr() {
    let mut rng = SplitMix64::new(0x3154f);
    for _ in 0..4 {
        let nl = random_registered(&mut rng, 3, 22);
        let u = FaultUniverse::stuck_at(&nl);
        let vectors: Vec<u64> = (0..24).map(|_| rng.next_u64()).collect();
        let read = 5;
        let result = SeqFaultSim::new(
            &u,
            SeqFaultSimConfig {
                observe: ObserveMode::misr_default(64, read),
                window: 7,
                ..Default::default()
            },
        )
        .run(&mut VectorStimulus::new(vectors.clone()))
        .unwrap();

        // Fault sites live on the view (functionally identical to `nl`);
        // drive the reference simulations on it so `force_constant` lands
        // on the right net.
        let view = u.view();
        let obs = u.observe_nets().to_vec();
        let good_trace = misr64_trace(view, &obs, &vectors, read);
        for (fi, f) in u.faults().iter().enumerate() {
            // `force_constant` cannot model a fault on a driven input pin.
            if view.gate(f.net).kind == GateKind::Input {
                continue;
            }
            let mut faulty_nl = view.clone();
            faulty_nl.force_constant(f.net, f.kind == FaultKind::Sa1);
            let faulty_trace = misr64_trace(&faulty_nl, &obs, &vectors, read);
            let expected = good_trace
                .iter()
                .zip(&faulty_trace)
                .find(|(g, d)| g.1 != d.1)
                .map(|(g, _)| g.0);
            assert_eq!(
                result.detection[fi],
                expected,
                "fault {} ({:?})",
                fi,
                u.faults()[fi]
            );
        }
    }
}

/// The two definitions of the default MISR tap set — the behavioral
/// register's and the fault simulator's — agree at *every* legal width,
/// including the width-64 overflow boundary. The fault crate cannot depend
/// on the bist crate, so the formula is duplicated there; this pin is what
/// keeps the copies from drifting.
#[test]
fn misr_default_taps_agree_across_widths() {
    for w in 2usize..=64 {
        let ObserveMode::Misr {
            width,
            taps,
            read_every,
        } = ObserveMode::misr_default(w, 8)
        else {
            panic!("misr_default must build a Misr mode");
        };
        assert_eq!((width, read_every), (w, 8));
        assert_eq!(taps, Misr::default_taps(w), "width {w}");
        assert_eq!(taps & 1, 1, "bit 0 must always feed back (width {w})");
        // The behavioral register must accept its own default taps.
        let _ = Misr::new(w);
    }
}
