//! Quickstart: wrap your own logic core with a BIST engine and run an
//! at-speed self-test through the IEEE 1149.1 TAP / P1500 wrapper.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use soctest::bist::{Alfsr, BistEngine, BistEngineConfig, ModuleHookup, PortWiring};
use soctest::fault::{FaultUniverse, SeqFaultSim, SeqFaultSimConfig};
use soctest::netlist::{ModuleBuilder, Netlist};
use soctest::sim::KernelSim;

/// Build a small "core": a registered multiply-accumulate-ish datapath.
fn my_core() -> Result<Netlist, Box<dyn std::error::Error>> {
    let mut mb = ModuleBuilder::new("mac");
    let a = mb.input_bus("a", 8);
    let b = mb.input_bus("b", 8);
    let en = mb.input("en");
    let ra = mb.register(&a);
    let rb = mb.register(&b);
    let sum = mb.add_mod(&ra, &rb);
    let acc = mb.register_en(en, &sum);
    let (mn, _) = mb.min_u(&acc, &rb);
    mb.output_bus("acc", &acc);
    mb.output_bus("mn", &mn);
    Ok(mb.finish()?)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let core = my_core()?;
    println!(
        "core `{}`: {} gates, {} flip-flops",
        core.name(),
        core.len(),
        core.dff_count()
    );

    // 1. Hook the module to a BIST engine: a 16-bit ALFSR drives all 17
    //    inputs (replication covers the width), a 16-bit MISR compacts the
    //    16 outputs.
    let hookup = ModuleHookup {
        name: core.name().to_owned(),
        wiring: PortWiring::direct(core.input_width()),
        output_width: core.output_width(),
    };
    let mut engine = BistEngine::new(
        Alfsr::new(16).expect("supported width"),
        vec![],
        vec![hookup],
        BistEngineConfig::default(),
    );

    // 2. Run a 1,024-pattern session against the gate-level module.
    let mut sim = KernelSim::new(&core)?;
    let inputs = core.primary_inputs();
    let outputs = core.primary_outputs();
    engine.begin(1024);
    loop {
        let row = engine.inputs(0);
        for (&net, &bit) in inputs.iter().zip(&row) {
            sim.set_input_bit(net, bit);
        }
        sim.eval_comb();
        let response: Vec<bool> = outputs.iter().map(|&n| sim.get(n) & 1 == 1).collect();
        sim.clock();
        if engine.try_clock(&[response])? {
            break;
        }
    }
    println!(
        "golden signature after 1,024 at-speed patterns: {:#06x}",
        engine.signature(0)
    );

    // 3. How good is that test? Fault-simulate the same stimulus.
    let universe = FaultUniverse::stuck_at(&core);
    let pgen = engine.pattern_generator();
    let mut stim = pgen.stimulus(0, 1024);
    let result = SeqFaultSim::new(&universe, SeqFaultSimConfig::default()).run(&mut stim)?;
    println!(
        "stuck-at coverage: {:.1}% of {} collapsed faults ({} undetected)",
        result.coverage_percent(),
        universe.len(),
        result.undetected().len()
    );
    Ok(())
}
