//! Microbenchmarks of the BIST building blocks (behavioral and
//! structural), plus an ablation over MISR width.

use soctest_bench::micro::bench;
use soctest_bist::{structural, Alfsr, Misr};
use soctest_netlist::Netlist;
use soctest_sim::KernelSim;

fn main() {
    bench("alfsr20_step_4096", || {
        let mut a = Alfsr::new(20).unwrap();
        let mut acc = 0u64;
        for _ in 0..4096 {
            acc ^= a.step();
        }
        acc
    });
    // Ablation: MISR width (aliasing head-room costs nothing in time).
    for width in [8usize, 16, 32] {
        bench(&format!("misr_absorb_4096/{width}"), || {
            let mut m = Misr::new(width);
            for i in 0..4096u64 {
                m.absorb(i.wrapping_mul(0x9E37_79B9));
            }
            m.signature()
        });
    }
    // Structural ALFSR, gate-level simulation cost.
    let nl: Netlist = structural::alfsr(20).unwrap();
    bench("structural_alfsr20_sim_256", || {
        let mut sim = KernelSim::new(&nl).unwrap();
        sim.drive_port(&nl, "en", 1);
        for _ in 0..256 {
            sim.step();
        }
        sim.read_port_lane(&nl, "q", 0)
    });
}
