//! The behavioral reconfigurable serial min-sum decoder.
//!
//! One configurable `BIT_NODE` and one configurable `CHECK_NODE` process
//! every virtual node of the bipartite graph in sequence; two
//! *interleaving memories* emulate the graph edges (bit→check messages in
//! one, check→bit messages in the other); the `CONTROL_UNIT` walks the
//! edge lists and decides termination. This mirrors the architecture of
//! the paper's Fig. 7 (after its reference 15) at the behavioral level.
//!
//! Every decision point in the three units bumps a named *statement
//! counter*; [`DecoderStats::statement_coverage`] is the step-1 metric of
//! the paper's evaluation flow (Fig. 3): the percentage of RTL statements
//! executed by a pattern set.

use std::collections::BTreeMap;

use crate::channel::LLR_MAX;
use crate::code::LdpcCode;

/// Min-sum variants the configurable check node supports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MinSumVariant {
    /// Plain min-sum.
    #[default]
    Plain,
    /// Offset min-sum: magnitudes reduced by `beta` (clamped at 0).
    Offset(i32),
    /// Normalized min-sum with scale 3/4 (shift-add friendly).
    ScaleThreeQuarters,
}

/// Decoder configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DecoderConfig {
    /// Check-node update rule.
    pub variant: MinSumVariant,
}

/// Statement counters collected during decoding.
#[derive(Debug, Clone, Default)]
pub struct DecoderStats {
    counters: BTreeMap<&'static str, u64>,
    /// Serial clock estimate: one cycle per edge visit per phase.
    pub serial_cycles: u64,
    /// Reads+writes against the two interleaving memories.
    pub memory_accesses: u64,
}

/// Every statement id the decoder can execute (the denominator of the
/// statement-coverage metric).
pub const ALL_STATEMENTS: &[&str] = &[
    "cu_init_edge",
    "cu_phase_cn",
    "cu_phase_bn",
    "cu_stop_syndrome",
    "cu_stop_maxiter",
    "cn_new_min1",
    "cn_new_min2",
    "cn_keep_mins",
    "cn_sign_flip",
    "cn_sign_keep",
    "cn_emit_min1",
    "cn_emit_min2",
    "cn_offset_floor",
    "cn_scale",
    "bn_acc_saturate_hi",
    "bn_acc_saturate_lo",
    "bn_acc_in_range",
    "bn_hard_one",
    "bn_hard_zero",
    "bn_msg_saturate",
    "bn_msg_in_range",
];

impl DecoderStats {
    fn bump(&mut self, id: &'static str) {
        debug_assert!(ALL_STATEMENTS.contains(&id), "unregistered statement {id}");
        *self.counters.entry(id).or_insert(0) += 1;
    }

    /// Times each statement executed.
    pub fn counters(&self) -> &BTreeMap<&'static str, u64> {
        &self.counters
    }

    /// Statement coverage in percent: executed statements over all
    /// registered statements (Fig. 3's metric).
    pub fn statement_coverage(&self) -> f64 {
        let hit = ALL_STATEMENTS
            .iter()
            .filter(|s| self.counters.get(*s).copied().unwrap_or(0) > 0)
            .count();
        100.0 * hit as f64 / ALL_STATEMENTS.len() as f64
    }

    /// Statements never executed (designer feedback in the step-1 loop).
    pub fn missed(&self) -> Vec<&'static str> {
        ALL_STATEMENTS
            .iter()
            .copied()
            .filter(|s| self.counters.get(s).copied().unwrap_or(0) == 0)
            .collect()
    }

    /// Merges another run's counters into this one.
    pub fn merge(&mut self, other: &DecoderStats) {
        for (k, v) in &other.counters {
            *self.counters.entry(k).or_insert(0) += v;
        }
        self.serial_cycles += other.serial_cycles;
        self.memory_accesses += other.memory_accesses;
    }
}

/// One decode attempt's outcome.
#[derive(Debug, Clone)]
pub struct DecodeOutput {
    /// Hard decisions per bit node.
    pub bits: Vec<bool>,
    /// Iterations actually used.
    pub iterations: u32,
    /// Whether the syndrome reached zero.
    pub success: bool,
    /// Instrumentation for this attempt.
    pub stats: DecoderStats,
}

fn sat(v: i32) -> (i32, bool) {
    if v > LLR_MAX {
        (LLR_MAX, true)
    } else if v < -LLR_MAX {
        (-LLR_MAX, true)
    } else {
        (v, false)
    }
}

/// The serial decoder bound to one code.
///
/// See the [crate example](crate).
#[derive(Debug, Clone)]
pub struct SerialDecoder {
    code: LdpcCode,
    config: DecoderConfig,
    /// Interleaving memory A: bit→check messages, edge-indexed.
    mem_a: Vec<i32>,
    /// Interleaving memory B: check→bit messages, edge-indexed.
    mem_b: Vec<i32>,
    /// Edge ids grouped per check (check-major layout).
    check_edges: Vec<Vec<u32>>,
    /// Edge ids grouped per bit (the interleaving table).
    bit_edges: Vec<Vec<u32>>,
}

impl SerialDecoder {
    /// Binds a decoder instance to a code.
    pub fn new(code: &LdpcCode, config: DecoderConfig) -> Self {
        let mut check_edges: Vec<Vec<u32>> = Vec::with_capacity(code.m());
        let mut bit_edges: Vec<Vec<u32>> = vec![Vec::new(); code.n()];
        let mut next_edge = 0u32;
        for c in 0..code.m() {
            let mut edges = Vec::with_capacity(code.check_bits(c).len());
            for &b in code.check_bits(c) {
                edges.push(next_edge);
                bit_edges[b as usize].push(next_edge);
                next_edge += 1;
            }
            check_edges.push(edges);
        }
        SerialDecoder {
            code: code.clone(),
            config,
            mem_a: vec![0; next_edge as usize],
            mem_b: vec![0; next_edge as usize],
            check_edges,
            bit_edges,
        }
    }

    /// The bound code.
    pub fn code(&self) -> &LdpcCode {
        &self.code
    }

    /// Runs min-sum decoding for at most `max_iters` iterations.
    ///
    /// # Panics
    ///
    /// Panics if `llrs.len() != code.n()`.
    pub fn decode(&mut self, llrs: &[i32], max_iters: u32) -> DecodeOutput {
        assert_eq!(llrs.len(), self.code.n(), "LLR vector length");
        let mut stats = DecoderStats::default();
        // Initialization: bit→check messages start at the channel values.
        for (b, &llr) in llrs.iter().enumerate().take(self.code.n()) {
            for &e in &self.bit_edges[b] {
                stats.bump("cu_init_edge");
                self.mem_a[e as usize] = llr;
                stats.memory_accesses += 1;
                stats.serial_cycles += 1;
            }
        }
        let mut hard: Vec<bool> = llrs.iter().map(|&l| l < 0).collect();
        let mut iterations = 0;
        let mut success = self.code.syndrome_weight(&hard) == 0;
        while !success && iterations < max_iters {
            iterations += 1;
            self.check_phase(&mut stats);
            hard = self.bit_phase(llrs, &mut stats);
            success = self.code.syndrome_weight(&hard) == 0;
            if success {
                stats.bump("cu_stop_syndrome");
            }
        }
        if !success && iterations == max_iters {
            stats.bump("cu_stop_maxiter");
        }
        DecodeOutput {
            bits: hard,
            iterations,
            success,
            stats,
        }
    }

    /// The CHECK_NODE pass: per check, a serial two-minimum scan followed
    /// by message emission.
    fn check_phase(&mut self, stats: &mut DecoderStats) {
        stats.bump("cu_phase_cn");
        for edges in &self.check_edges {
            let mut min1 = i32::MAX;
            let mut min2 = i32::MAX;
            let mut min1_at = usize::MAX;
            let mut sign = false;
            for (slot, &e) in edges.iter().enumerate() {
                let v = self.mem_a[e as usize];
                stats.memory_accesses += 1;
                stats.serial_cycles += 1;
                if v < 0 {
                    stats.bump("cn_sign_flip");
                    sign = !sign;
                } else {
                    stats.bump("cn_sign_keep");
                }
                let mag = v.abs();
                if mag < min1 {
                    stats.bump("cn_new_min1");
                    min2 = min1;
                    min1 = mag;
                    min1_at = slot;
                } else if mag < min2 {
                    stats.bump("cn_new_min2");
                    min2 = mag;
                } else {
                    stats.bump("cn_keep_mins");
                }
            }
            for (slot, &e) in edges.iter().enumerate() {
                let raw = if slot == min1_at {
                    stats.bump("cn_emit_min2");
                    min2
                } else {
                    stats.bump("cn_emit_min1");
                    min1
                };
                let mag = match self.config.variant {
                    MinSumVariant::Plain => raw,
                    MinSumVariant::Offset(beta) => {
                        let adj = raw - beta;
                        if adj < 0 {
                            stats.bump("cn_offset_floor");
                            0
                        } else {
                            adj
                        }
                    }
                    MinSumVariant::ScaleThreeQuarters => {
                        stats.bump("cn_scale");
                        raw - (raw >> 2)
                    }
                };
                let v = self.mem_a[e as usize];
                let out_sign = sign ^ (v < 0);
                self.mem_b[e as usize] = if out_sign { -mag } else { mag };
                stats.memory_accesses += 2;
                stats.serial_cycles += 1;
            }
        }
    }

    /// The BIT_NODE pass: accumulate, decide, and emit extrinsic messages.
    fn bit_phase(&mut self, llrs: &[i32], stats: &mut DecoderStats) -> Vec<bool> {
        stats.bump("cu_phase_bn");
        let mut hard = Vec::with_capacity(self.code.n());
        for (b, &llr) in llrs.iter().enumerate().take(self.code.n()) {
            let mut acc = llr;
            for &e in &self.bit_edges[b] {
                stats.memory_accesses += 1;
                stats.serial_cycles += 1;
                let (next, saturated) = sat(acc + self.mem_b[e as usize]);
                if saturated {
                    if next > 0 {
                        stats.bump("bn_acc_saturate_hi");
                    } else {
                        stats.bump("bn_acc_saturate_lo");
                    }
                } else {
                    stats.bump("bn_acc_in_range");
                }
                acc = next;
            }
            if acc < 0 {
                stats.bump("bn_hard_one");
                hard.push(true);
            } else {
                stats.bump("bn_hard_zero");
                hard.push(false);
            }
            for &e in &self.bit_edges[b] {
                let (msg, saturated) = sat(acc - self.mem_b[e as usize]);
                if saturated {
                    stats.bump("bn_msg_saturate");
                } else {
                    stats.bump("bn_msg_in_range");
                }
                self.mem_a[e as usize] = msg;
                stats.memory_accesses += 2;
                stats.serial_cycles += 1;
            }
        }
        hard
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::Bsc;

    fn code() -> LdpcCode {
        LdpcCode::gallager(96, 3, 6, 7).unwrap()
    }

    #[test]
    fn clean_input_decodes_in_zero_iterations() {
        let c = code();
        let mut dec = SerialDecoder::new(&c, DecoderConfig::default());
        let llrs = vec![20i32; c.n()];
        let out = dec.decode(&llrs, 10);
        assert!(out.success);
        assert_eq!(out.iterations, 0);
        assert!(out.bits.iter().all(|&b| !b));
    }

    #[test]
    fn corrects_a_few_flips() {
        // Plain min-sum is overconfident on uniform LLRs and can oscillate;
        // the normalized variant (what such decoders ship with) converges.
        let c = code();
        let mut dec = SerialDecoder::new(
            &c,
            DecoderConfig {
                variant: MinSumVariant::ScaleThreeQuarters,
            },
        );
        let mut llrs = vec![16i32; c.n()];
        llrs[3] = -16;
        llrs[40] = -16;
        llrs[77] = -16;
        let out = dec.decode(&llrs, 30);
        assert!(out.success, "3 flips in 96 bits must correct");
        assert!(out.bits.iter().all(|&b| !b));
        assert!(out.iterations >= 1);
    }

    #[test]
    fn decodes_noisy_codewords_from_the_encoder() {
        let c = code();
        let enc = c.encoder();
        let mut dec = SerialDecoder::new(&c, DecoderConfig::default());
        let msg: Vec<bool> = (0..enc.k()).map(|i| i % 5 == 0).collect();
        let tx = enc.encode(&msg);
        let ch = Bsc::new(0.02, 99);
        let llrs = ch.transmit(&tx);
        let out = dec.decode(&llrs, 30);
        assert!(out.success);
        assert_eq!(out.bits, tx);
    }

    #[test]
    fn offset_variant_floors_magnitudes() {
        let c = code();
        let mut dec = SerialDecoder::new(
            &c,
            DecoderConfig {
                variant: MinSumVariant::Offset(4),
            },
        );
        let mut llrs = vec![3i32; c.n()];
        llrs[0] = -3;
        let out = dec.decode(&llrs, 5);
        assert!(out.stats.counters().contains_key("cn_offset_floor"));
    }

    #[test]
    fn statement_coverage_grows_with_harder_inputs() {
        let c = code();
        let mut dec = SerialDecoder::new(&c, DecoderConfig::default());
        let clean = dec.decode(&vec![20i32; c.n()], 10).stats;
        let ch = Bsc::new(0.05, 3);
        let noisy = dec.decode(&ch.transmit(&vec![false; c.n()]), 10).stats;
        assert!(noisy.statement_coverage() > clean.statement_coverage());
        assert!(clean.statement_coverage() > 0.0);
        assert!(!clean.missed().is_empty());
    }

    #[test]
    fn serial_cycles_track_edges() {
        let c = code();
        let mut dec = SerialDecoder::new(&c, DecoderConfig::default());
        let mut llrs = vec![10i32; c.n()];
        llrs[5] = -10;
        let out = dec.decode(&llrs, 1);
        // Init pass + per iteration two passes over all edges.
        let e = c.edges() as u64;
        assert!(out.stats.serial_cycles >= e * (1 + 2 * out.iterations as u64));
    }

    #[test]
    fn stats_merge_accumulates() {
        let mut a = DecoderStats::default();
        a.bump("cu_phase_cn");
        let mut b = DecoderStats::default();
        b.bump("cu_phase_cn");
        b.bump("cu_phase_bn");
        a.merge(&b);
        assert_eq!(a.counters()["cu_phase_cn"], 2);
        assert_eq!(a.counters()["cu_phase_bn"], 1);
    }
}
