//! Gate-level generators for the three decoder modules.
//!
//! These are the devices under test of the whole case study. Port budgets
//! match the paper's Table 1 exactly — `BIT_NODE` 54 in / 55 out,
//! `CHECK_NODE` 53 in / 53 out, `CONTROL_UNIT` 45 in / 44 out — and the
//! flip-flop counts land in the ballpark of the paper's scan-cell counts
//! (75 / 803 / 42). The `sel` ports of `BIT_NODE` and `CHECK_NODE` are the
//! *constrained inputs* the BIST constraint generator drives: they select
//! the active datapath variant and thrash coverage when driven randomly.
//!
//! The generators synthesize live logic only: every input feeds the
//! datapath or control, every state register is observable through an
//! output port, and arithmetic uses the dead-logic-free builder operators.

use soctest_netlist::{ModuleBuilder, NetId, Netlist, NetlistError, Word};

/// Saturating two's-complement addition on equal-width words.
fn sat_add_signed(mb: &mut ModuleBuilder, a: &[NetId], b: &[NetId]) -> Word {
    let w = a.len();
    let sum = mb.add_mod(a, b);
    let sa = a[w - 1];
    let sb = b[w - 1];
    let ss = sum[w - 1];
    let same_in = mb.xnor(sa, sb);
    let flipped = mb.xor(ss, sa);
    let ovf = mb.and(same_in, flipped);
    // Saturation value: 0111…1 for positive overflow, 1000…0 for negative.
    let nsa = mb.not(sa);
    let mut satv = vec![sa; 1];
    satv.extend(std::iter::repeat_n(nsa, w - 1));
    satv.rotate_left(0);
    let mut sat_word = Vec::with_capacity(w);
    for i in 0..w - 1 {
        let _ = i;
        sat_word.push(nsa);
    }
    sat_word.push(sa);
    mb.mux_w(ovf, &sum, &sat_word)
}

/// Two's-complement magnitude (absolute value) of a signed word.
fn magnitude(mb: &mut ModuleBuilder, v: &[NetId]) -> Word {
    let w = v.len();
    let sign = v[w - 1];
    let inv = mb.not_w(v);
    let negated = mb.add_const(&inv, 1).sum;
    mb.mux_w(sign, v, &negated)
}

/// Sign-extends a word to `width` bits (a zero-width word is the value 0).
fn sign_extend(mb: &mut ModuleBuilder, v: &[NetId], width: usize) -> Word {
    let sign = match v.last() {
        Some(&msb) => msb,
        None => mb.zero(),
    };
    let mut out = v.to_vec();
    out.resize(width.max(v.len()), sign);
    out
}

/// Generates the `BIT_NODE` module (54 inputs / 55 outputs, ≈75 FFs).
///
/// A serial variable-node datapath: on `start` the accumulator loads the
/// channel LLR; each `valid` cycle adds one incoming check message (the
/// `sel` port picks the message source and an optional negate/scale
/// stage); the extrinsic output message and the hard decision are exposed
/// along with the full accumulator and address pipeline.
///
/// # Errors
///
/// Propagates netlist-construction errors (none are expected for the fixed
/// configuration).
pub fn bit_node() -> Result<Netlist, NetlistError> {
    let mut mb = ModuleBuilder::new("BIT_NODE");
    // --- inputs: 8+8+8+4+3+8+12+1+1+1 = 54
    let ch_llr = mb.input_bus("ch_llr", 8);
    let msg_a = mb.input_bus("msg_a", 8);
    let msg_b = mb.input_bus("msg_b", 8);
    let sel = mb.input_bus("sel", 4);
    let mode = mb.input_bus("mode", 3);
    let degree = mb.input_bus("degree", 8);
    let addr_in = mb.input_bus("addr_in", 12);
    let start = mb.input("start");
    let valid = mb.input("valid");
    let clr = mb.input("clr");

    // Input pipeline registers.
    let llr_r = mb.register_en_clr(valid, clr, &ch_llr); // 8 FF
    let a_r = mb.register_en_clr(valid, clr, &msg_a); // 8 FF
    let b_r = mb.register_en_clr(valid, clr, &msg_b); // 8 FF

    // Datapath selection (the constrained input).
    let picked = mb.mux_w(sel[0], &a_r, &b_r);
    let inverted = mb.not_w(&picked);
    let negated = mb.add_const(&inverted, 1).sum;
    let signed_pick = mb.mux_w(sel[1], &picked, &negated);
    // Arithmetic shift right by one (optional scaling stage).
    let mut shifted = signed_pick[1..].to_vec();
    shifted.push(signed_pick[7]);
    let scaled = mb.mux_w(sel[2], &signed_pick, &shifted);
    // Optional +1 rounding stage.
    let rounded = mb.add_const(&scaled, 1).sum;
    let message = mb.mux_w(sel[3], &scaled, &rounded);
    let message_ext = sign_extend(&mut mb, &message, 12);

    // Accumulator.
    let acc = mb.dff_bank(12); // 12 FF
    let llr_ext = sign_extend(&mut mb, &llr_r, 12);
    let summed = sat_add_signed(&mut mb, &acc, &message_ext);
    let accum = mb.mux_w(valid, &acc, &summed);
    let loaded = mb.mux_w(start, &accum, &llr_ext);
    let nclr = mb.not(clr);
    let acc_next: Word = loaded.iter().map(|&x| mb.and(nclr, x)).collect();
    mb.connect(&acc, &acc_next);

    // Extrinsic message: acc − selected message, saturated to 8 bits.
    let neg_msg = {
        let inv = mb.not_w(&message_ext);
        mb.add_const(&inv, 1).sum
    };
    let extrinsic12 = sat_add_signed(&mut mb, &acc, &neg_msg);
    // Saturate 12→8: if the top five bits disagree with the sign, clamp.
    let sign = extrinsic12[11];
    let top_ok = {
        let agree: Vec<NetId> = (7..12).map(|i| mb.xnor(extrinsic12[i], sign)).collect();
        mb.reduce_and(&agree)
    };
    let nsign = mb.not(sign);
    let mut clamp = vec![nsign; 7];
    clamp.push(sign);
    let ext8_raw = extrinsic12[..8].to_vec();
    let extrinsic8 = mb.mux_w(top_ok, &clamp, &ext8_raw);
    let msg_out_r = mb.register_en_clr(valid, clr, &extrinsic8); // 8 FF

    // Degree countdown. Counts down while valid; `done` when zero.
    let deg = mb.dff_bank(8); // 8 FF
    let dec = mb.add_const(&deg, 0xFF).sum; // minus one, mod 256
    let deg_zero = mb.eq_const(&deg, 0);
    let hold_or_dec = {
        let not_zero = mb.not(deg_zero);
        let counting = mb.and(valid, not_zero);
        mb.mux_w(counting, &deg, &dec)
    };
    let deg_loaded = mb.mux_w(start, &hold_or_dec, &degree);
    let deg_next: Word = deg_loaded.iter().map(|&x| mb.and(nclr, x)).collect();
    mb.connect(&deg, &deg_next);

    // Address pipeline: loads on start, increments on valid.
    let addr = mb.dff_bank(12); // 12 FF
    let addr_inc = mb.add_const(&addr, 1).sum;
    let addr_step = mb.mux_w(valid, &addr, &addr_inc);
    let addr_load = mb.mux_w(start, &addr_step, &addr_in);
    let addr_next: Word = addr_load.iter().map(|&x| mb.and(nclr, x)).collect();
    mb.connect(&addr, &addr_next);

    // Control FSM: Idle(0) → Accumulate(1) → Emit(2) → Idle; mode gates a
    // pause state (3) and a diagnostic state (4).
    let fsm_state = {
        use soctest_netlist::FsmSpec;
        let pause_req = mode[0];
        let diag_req = mode[1];
        let resume = mode[2];
        let emit = deg_zero;
        let spec = FsmSpec {
            states: 5,
            transitions: vec![
                (0, Some(start), 1),
                (1, Some(pause_req), 3),
                (3, Some(resume), 1),
                (1, Some(emit), 2),
                (2, Some(diag_req), 4),
                (4, Some(resume), 0),
                (2, None, 0),
            ],
        };
        mb.fsm(&spec) // 3 FF
    };
    let in_accum = mb.eq_const(&fsm_state, 1);
    let in_emit = mb.eq_const(&fsm_state, 2);

    // Hard decision and running parity.
    let hard_bit = acc[11];
    let hard_r = {
        let q = mb.dff_bank(1); // 1 FF
        let next = mb.mux(in_emit, q[0], hard_bit);
        let gated = mb.and(nclr, next);
        mb.connect(&q, &[gated]);
        q[0]
    };
    let parity = {
        let q = mb.dff_bank(1); // 1 FF
        let flipped = mb.xor(q[0], hard_bit);
        let next = mb.mux(in_emit, q[0], flipped);
        let gated = mb.and(nclr, next);
        mb.connect(&q, &[gated]);
        q[0]
    };
    let busy_r = {
        let q = mb.dff_bank(1); // 1 FF
        let next = mb.and(in_accum, nclr);
        mb.connect(&q, &[next]);
        q[0]
    };

    // --- outputs: 8+8+12+12+8+3+1+1+1+1 = 55
    mb.output_bus("msg_out", &msg_out_r);
    let msg2: Word = msg_out_r
        .iter()
        .zip(&llr_r)
        .map(|(&m, &l)| mb.xor(m, l))
        .collect();
    mb.output_bus("msg_out2", &msg2);
    mb.output_bus("acc_out", &acc);
    mb.output_bus("addr_out", &addr);
    mb.output_bus("llr_echo", &llr_r);
    mb.output_bus("state_dbg", &fsm_state);
    mb.output("hard_bit", hard_r);
    mb.output("parity", parity);
    mb.output("busy", busy_r);
    mb.output("done", deg_zero);
    mb.finish()
}

/// Number of virtual check nodes the gate-level `CHECK_NODE` stores state
/// for (the real core maps up to 512 virtual nodes; 32 keeps the module
/// large — ≈740 flip-flops — while remaining simulable).
pub const CHECK_NODE_VNODES: usize = 32;

/// Generates the `CHECK_NODE` module (53 inputs / 53 outputs, ≈740 FFs).
///
/// A serial two-pass min-sum check node with a 32-entry virtual-node state
/// store (`min1`, `min2`, `minidx`, running sign per entry). Pass 1 scans
/// incoming messages and updates the two minima; pass 2 re-reads the
/// stored state and emits the outgoing message for each edge. The `sel`
/// port (constrained input) picks the magnitude post-processing variant.
///
/// # Errors
///
/// Propagates netlist-construction errors.
pub fn check_node() -> Result<Netlist, NetlistError> {
    let mut mb = ModuleBuilder::new("CHECK_NODE");
    // --- inputs: 8+8+4+3+5+4+12+4+5 = 53
    let msg_in = mb.input_bus("msg_in", 8);
    let msg_in2 = mb.input_bus("msg_in2", 8);
    let sel = mb.input_bus("sel", 4);
    let mode = mb.input_bus("mode", 3);
    let vaddr = mb.input_bus("vaddr", 5);
    let edge_idx = mb.input_bus("edge_idx", 4);
    let addr_in = mb.input_bus("addr_in", 12);
    let degree = mb.input_bus("degree", 4);
    let start = mb.input("start");
    let valid = mb.input("valid");
    let clr = mb.input("clr");
    let pass2 = mb.input("pass2");
    let last = mb.input("last");

    let nclr = mb.not(clr);

    // Input pipeline.
    let in_r = mb.register_en_clr(valid, clr, &msg_in); // 8 FF
    let in2_r = mb.register_en_clr(valid, clr, &msg_in2); // 8 FF
    let vaddr_r = mb.register_en_clr(valid, clr, &vaddr); // 5 FF
    let edge_r = mb.register_en_clr(valid, clr, &edge_idx); // 4 FF

    // Magnitude and sign of the incoming message.
    let mag = magnitude(&mut mb, &in_r); // 8-bit, top bit 0
    let in_sign = in_r[7];

    // Virtual-node state store: per entry min1[8], min2[8], minidx[4],
    // sign[1]. Write happens in pass 1 (update) or on `start` (init).
    let hot = mb.decode(&vaddr_r, CHECK_NODE_VNODES);
    let mut min1_words: Vec<Word> = Vec::with_capacity(CHECK_NODE_VNODES);
    let mut min2_words: Vec<Word> = Vec::with_capacity(CHECK_NODE_VNODES);
    let mut idx_words: Vec<Word> = Vec::with_capacity(CHECK_NODE_VNODES);
    let mut sign_bits: Vec<NetId> = Vec::with_capacity(CHECK_NODE_VNODES);
    let mut banks: Vec<(Word, Word, Word, Word)> = Vec::with_capacity(CHECK_NODE_VNODES);
    for _ in 0..CHECK_NODE_VNODES {
        let m1 = mb.dff_bank(8);
        let m2 = mb.dff_bank(8);
        let ix = mb.dff_bank(4);
        let sg = mb.dff_bank(1);
        min1_words.push(m1.clone());
        min2_words.push(m2.clone());
        idx_words.push(ix.clone());
        sign_bits.push(sg[0]);
        banks.push((m1, m2, ix, sg));
    }
    // Read the addressed entry.
    let cur_min1 = mb.select(&vaddr_r, &min1_words);
    let cur_min2 = mb.select(&vaddr_r, &min2_words);
    let cur_idx = mb.select(&vaddr_r, &idx_words);
    let cur_sign = {
        let words: Vec<Word> = sign_bits.iter().map(|&s| vec![s]).collect();
        mb.select(&vaddr_r, &words)[0]
    };

    // Pass-1 update.
    let lt1 = mb.lt_u(&mag, &cur_min1);
    let lt2 = mb.lt_u(&mag, &cur_min2);
    let new_min1 = mb.mux_w(lt1, &cur_min1, &mag);
    let shifted_min2 = mb.mux_w(lt1, &cur_min2, &cur_min1);
    let maybe_min2 = mb.mux_w(lt2, &cur_min2, &mag);
    let new_min2 = mb.mux_w(lt1, &maybe_min2, &shifted_min2);
    let new_idx = mb.mux_w(lt1, &cur_idx, &edge_r);
    let new_sign = mb.xor(cur_sign, in_sign);
    // Init values (written on start): min registers all-ones, idx 0xF.
    let ones8 = mb.constant(0xFF, 8);
    let ones4 = mb.constant(0xF, 4);
    let zero1 = mb.zero();
    let wr_update = {
        let p1 = mb.not(pass2);
        let v = mb.and(valid, p1);
        mb.and(v, nclr)
    };
    let wr_init = mb.and(start, nclr);
    let w_min1 = mb.mux_w(wr_init, &new_min1, &ones8);
    let w_min2 = mb.mux_w(wr_init, &new_min2, &ones8);
    let w_idx = mb.mux_w(wr_init, &new_idx, &ones4);
    let w_sign = mb.mux(wr_init, new_sign, zero1);
    let wr_any = mb.or(wr_update, wr_init);
    for (v, (m1, m2, ix, sg)) in banks.iter().enumerate() {
        let en = mb.and(wr_any, hot[v]);
        let n1 = mb.mux_w(en, m1, &w_min1);
        let keep1: Word = n1.iter().map(|&b| mb.and(nclr, b)).collect();
        mb.connect(m1, &keep1);
        let n2 = mb.mux_w(en, m2, &w_min2);
        let keep2: Word = n2.iter().map(|&b| mb.and(nclr, b)).collect();
        mb.connect(m2, &keep2);
        let nx = mb.mux_w(en, ix, &w_idx);
        let keepx: Word = nx.iter().map(|&b| mb.and(nclr, b)).collect();
        mb.connect(ix, &keepx);
        let ns = mb.mux(en, sg[0], w_sign);
        let keeps = mb.and(nclr, ns);
        mb.connect(sg, &[keeps]);
    }

    // Pass-2 emission.
    let idx_match = mb.eq_w(&edge_r, &cur_idx);
    let raw = mb.mux_w(idx_match, &cur_min1, &cur_min2);
    // Post-processing variants on the magnitude (constrained input).
    let mut half = raw[1..].to_vec();
    half.push(mb.zero());
    let scaled = {
        // 3/4 scaling: raw - raw>>2.
        let mut quarter = raw[2..].to_vec();
        quarter.push(mb.zero());
        quarter.push(mb.zero());
        let ninv = mb.not_w(&quarter);
        let sub = mb.add(&raw, &ninv);
        mb.add_const(&sub.sum, 1).sum
    };
    let m_sel1 = mb.mux_w(sel[0], &raw, &half);
    let m_sel2 = mb.mux_w(sel[1], &m_sel1, &scaled);
    let dec = mb.add_const(&m_sel2, 0xFF).sum;
    let was_zero = mb.eq_const(&m_sel2, 0);
    let floored = {
        let z = mb.constant(0, 8);
        mb.mux_w(was_zero, &dec, &z)
    };
    let m_final = mb.mux_w(sel[2], &m_sel2, &floored);
    let out_sign = {
        let s = mb.xor(cur_sign, in2_r[7]);
        mb.xor(s, sel[3])
    };
    // Sign-magnitude → two's complement.
    let inv = mb.not_w(&m_final);
    let neg = mb.add_const(&inv, 1).sum;
    let out_val = mb.mux_w(out_sign, &m_final, &neg);
    let emit = mb.and(valid, pass2);
    let msg_out_r = mb.register_en_clr(emit, clr, &out_val); // 8 FF

    // Degree countdown and address pipeline (as in BIT_NODE).
    let degc = mb.dff_bank(4); // 4 FF
    let degc_dec = mb.add_const(&degc, 0xF).sum;
    let degc_zero = mb.eq_const(&degc, 0);
    let counting = {
        let nz = mb.not(degc_zero);
        mb.and(valid, nz)
    };
    let degc_step = mb.mux_w(counting, &degc, &degc_dec);
    let degc_load = mb.mux_w(start, &degc_step, &degree);
    let degc_next: Word = degc_load.iter().map(|&x| mb.and(nclr, x)).collect();
    mb.connect(&degc, &degc_next);

    let addr = mb.dff_bank(12); // 12 FF
    let addr_inc = mb.add_const(&addr, 1).sum;
    let addr_step = mb.mux_w(valid, &addr, &addr_inc);
    let addr_load = mb.mux_w(start, &addr_step, &addr_in);
    let addr_next: Word = addr_load.iter().map(|&x| mb.and(nclr, x)).collect();
    mb.connect(&addr, &addr_next);

    // Two-bit phase register driven by mode/pass2/last.
    let phase = {
        use soctest_netlist::FsmSpec;
        let spec = FsmSpec {
            states: 4,
            transitions: vec![
                (0, Some(start), 1),
                (1, Some(pass2), 2),
                (2, Some(last), 3),
                (3, Some(mode[0]), 0),
                (3, None, 0),
            ],
        };
        mb.fsm(&spec) // 2 FF
    };
    let busy = {
        let s1 = mb.eq_const(&phase, 1);
        let s2 = mb.eq_const(&phase, 2);
        mb.or(s1, s2)
    };
    let done = mb.eq_const(&phase, 3);
    // Mode bits 1/2 gate diagnostic outputs so every input is live.
    let err = {
        let sat_in = mb.eq_const(&in_r, 0x80);
        mb.and(mode[1], sat_in)
    };
    let out_valid = {
        let e = mb.and(emit, nclr);
        let q = mb.dff_bank(1); // 1 FF
        let gated = mb.mux(mode[2], e, q[0]);
        mb.connect(&q, &[e]);
        gated
    };

    // --- outputs: 8+8+8+4+12+5+2+6 = 53
    mb.output_bus("msg_out", &msg_out_r);
    mb.output_bus("min1_out", &cur_min1);
    mb.output_bus("min2_out", &cur_min2);
    mb.output_bus("minidx_out", &cur_idx);
    mb.output_bus("addr_out", &addr);
    mb.output_bus("vaddr_echo", &vaddr_r);
    mb.output_bus("state_dbg", &phase);
    mb.output("signprod", cur_sign);
    mb.output("busy", busy);
    mb.output("done", done);
    mb.output("idx_match", idx_match);
    mb.output("out_valid", out_valid);
    mb.output("err", err);
    mb.finish()
}

/// Generates the `CONTROL_UNIT` module (45 inputs / 44 outputs, ≈42 FFs).
///
/// Address generation for the two interleaving memories, the iteration
/// counter, and the phase FSM (idle → check phase → bit phase → done)
/// of the serial decoder.
///
/// # Errors
///
/// Propagates netlist-construction errors.
pub fn control_unit() -> Result<Netlist, NetlistError> {
    let mut mb = ModuleBuilder::new("CONTROL_UNIT");
    // --- inputs: 1+1+1+2+6+12+10+6+1+1+1+3 = 45
    let start = mb.input("start");
    let halt = mb.input("halt");
    let clr = mb.input("clr");
    let mode = mb.input_bus("mode", 2);
    let max_iter = mb.input_bus("max_iter", 6);
    let n_edges = mb.input_bus("n_edges", 12);
    let n_checks = mb.input_bus("n_checks", 10);
    let cfg_base = mb.input_bus("cfg_base", 6);
    let ext_sync = mb.input("ext_sync");
    let resume = mb.input("resume");
    let step_en = mb.input("step_en");
    let quota = mb.input_bus("quota", 3);

    let nclr = mb.not(clr);

    // Phase FSM: 0 idle, 1 check phase, 2 bit phase, 3 done.
    use soctest_netlist::FsmSpec;
    let edge_cnt = mb.dff_bank(12); // 12 FF
                                    // Wrap on `>=` rather than `==`: robust against overshoot, and the
                                    // sequencing makes progress under any configuration value (important
                                    // both in mission mode and under pseudo-random BIST configuration).
    let edge_wrap = {
        let lt = mb.lt_u(&edge_cnt, &n_edges);
        mb.not(lt)
    };
    let iter_cnt = mb.dff_bank(6); // 6 FF
    let iter_done = {
        let lt = mb.lt_u(&iter_cnt, &max_iter);
        mb.not(lt)
    };
    let stop = mb.or(iter_done, halt);
    let cn_to_bn = edge_wrap;
    let bn_wraps = mb.and(edge_wrap, step_en);
    let not_stop = mb.not(stop);
    let bn_to_next = mb.and(bn_wraps, not_stop);
    let bn_to_done = mb.and(bn_wraps, stop);
    let phase = mb.fsm(&FsmSpec {
        states: 4,
        transitions: vec![
            (0, Some(start), 1),
            (1, Some(cn_to_bn), 2),
            (2, Some(bn_to_done), 3),
            (2, Some(bn_to_next), 1),
            (3, Some(resume), 0),
        ],
    }); // 2 FF
    let in_cn = mb.eq_const(&phase, 1);
    let in_bn = mb.eq_const(&phase, 2);
    let busy = mb.or(in_cn, in_bn);
    let done = mb.eq_const(&phase, 3);

    // Edge counter: runs in either active phase, wraps at n_edges.
    let counting = mb.and(busy, step_en);
    let e_inc = mb.add_const(&edge_cnt, 1).sum;
    let zero12 = mb.constant(0, 12);
    let e_bumped = mb.mux_w(edge_wrap, &e_inc, &zero12);
    let e_step = mb.mux_w(counting, &edge_cnt, &e_bumped);
    let e_next: Word = e_step.iter().map(|&x| mb.and(nclr, x)).collect();
    mb.connect(&edge_cnt, &e_next);

    // Iteration counter: bumps when the bit phase wraps. It deliberately
    // persists across `start` (it is a telemetry counter, cleared only by
    // `clr`), so its full range is reachable.
    let bump_iter = mb.and(in_bn, bn_wraps);
    let i_inc = mb.add_const(&iter_cnt, 1).sum;
    let i_step = mb.mux_w(bump_iter, &iter_cnt, &i_inc);
    let i_next: Word = i_step.iter().map(|&x| mb.and(nclr, x)).collect();
    mb.connect(&iter_cnt, &i_next);

    // Memory addressing. Port A follows the edge counter; port B applies
    // the configured base offset (mode selects plain/offset addressing).
    let base_ext = {
        let mut v = cfg_base.clone();
        let z = mb.zero();
        while v.len() < 12 {
            v.push(z);
        }
        v
    };
    let offset_addr = mb.add_mod(&edge_cnt, &base_ext);
    let addr_b = mb.mux_w(mode[0], &edge_cnt, &offset_addr);
    // A sync register stage on port B, gated by ext_sync (12 FF).
    let addr_b_r = mb.register_en_clr(ext_sync, clr, &addr_b);

    // Write enables and flags.
    let wr_a = mb.and(in_bn, step_en);
    let wr_b = mb.and(in_cn, step_en);
    let last_edge = {
        let e1 = mb.add_const(&edge_cnt, 1).sum;
        mb.eq_w(&e1, &n_edges)
    };
    // Watchdog warning: low iteration bits hit the quota config (keeps the
    // quota port live and gives the diagnosis experiments a rare event).
    let wd_warn = {
        let low: Word = iter_cnt[..3].to_vec();
        let eq = mb.eq_w(&low, &quota);
        mb.and(eq, mode[1])
    };
    // Check-counter view: top bits of the edge counter compared against
    // n_checks (keeps that configuration port live).
    let chk_view: Word = edge_cnt[2..12].to_vec();
    let at_checks = {
        let lt = mb.lt_u(&chk_view, &n_checks);
        mb.not(lt)
    };

    // Flag register bank (4 FF): registered busy/done/wr flags.
    let flags_in = vec![busy, done, wr_a, wr_b];
    let flags_r = mb.register_en_clr(step_en, clr, &flags_in);

    // --- outputs: 12+12+6+2+4+1+1+1+1+1+1+1+1 = 44
    mb.output_bus("addr_a", &edge_cnt);
    mb.output_bus("addr_b", &addr_b_r);
    mb.output_bus("iter_out", &iter_cnt);
    mb.output_bus("phase", &phase);
    mb.output_bus("flags", &flags_r);
    mb.output("busy", busy);
    mb.output("done", done);
    mb.output("wr_a", wr_a);
    mb.output("wr_b", wr_b);
    mb.output("last_edge", last_edge);
    mb.output("wd_warn", wd_warn);
    mb.output("at_checks", at_checks);
    mb.output("edge_wrap", edge_wrap);
    mb.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_port_budgets() {
        let bn = bit_node().unwrap();
        assert_eq!(bn.input_width(), 54, "BIT_NODE inputs");
        assert_eq!(bn.output_width(), 55, "BIT_NODE outputs");
        let cn = check_node().unwrap();
        assert_eq!(cn.input_width(), 53, "CHECK_NODE inputs");
        assert_eq!(cn.output_width(), 53, "CHECK_NODE outputs");
        let cu = control_unit().unwrap();
        assert_eq!(cu.input_width(), 45, "CONTROL_UNIT inputs");
        assert_eq!(cu.output_width(), 44, "CONTROL_UNIT outputs");
    }

    #[test]
    fn flip_flop_budgets_track_the_paper() {
        let bn = bit_node().unwrap();
        assert!(
            (60..=90).contains(&bn.dff_count()),
            "BIT_NODE ≈75 FFs, got {}",
            bn.dff_count()
        );
        let cn = check_node().unwrap();
        assert!(
            (650..=900).contains(&cn.dff_count()),
            "CHECK_NODE ≈800 FFs, got {}",
            cn.dff_count()
        );
        let cu = control_unit().unwrap();
        assert!(
            (36..=50).contains(&cu.dff_count()),
            "CONTROL_UNIT ≈42 FFs, got {}",
            cu.dff_count()
        );
    }

    #[test]
    fn check_node_dwarfs_the_others() {
        let bn = bit_node().unwrap();
        let cn = check_node().unwrap();
        let cu = control_unit().unwrap();
        assert!(cn.len() > 4 * bn.len());
        assert!(cn.len() > 4 * cu.len());
    }

    #[test]
    fn modules_levelize_cleanly() {
        for nl in [
            bit_node().unwrap(),
            check_node().unwrap(),
            control_unit().unwrap(),
        ] {
            assert!(nl.levelize().is_ok(), "{}", nl.name());
        }
    }

    #[test]
    fn bit_node_accumulates_llr() {
        use soctest_sim::KernelSim;
        let bn = bit_node().unwrap();
        let mut sim = KernelSim::new(&bn).unwrap();
        for (port, v) in [
            ("ch_llr", 5u64),
            ("msg_a", 3),
            ("msg_b", 0),
            ("sel", 0),
            ("mode", 0),
            ("degree", 2),
            ("addr_in", 7),
            ("clr", 0),
            ("valid", 1),
            ("start", 1),
        ] {
            sim.drive_port(&bn, port, v);
        }
        sim.step(); // captures llr into pipeline and start state
        sim.drive_port(&bn, "start", 0);
        sim.step(); // acc loads? acc loaded at start cycle
        sim.eval_comb();
        let acc = sim.read_port_lane(&bn, "acc_out", 0).unwrap();
        // After the start cycle the accumulator holds the (registered)
        // channel LLR; after one valid cycle it has absorbed msg_a once.
        assert!(acc > 0, "accumulator moved, got {acc}");
        let addr = sim.read_port_lane(&bn, "addr_out", 0).unwrap();
        assert!(addr >= 7, "address pipeline loaded, got {addr}");
    }

    #[test]
    fn control_unit_walks_phases() {
        use soctest_sim::KernelSim;
        let cu = control_unit().unwrap();
        let mut sim = KernelSim::new(&cu).unwrap();
        for (port, v) in [
            ("start", 1u64),
            ("halt", 0),
            ("clr", 0),
            ("mode", 0),
            ("max_iter", 1),
            ("n_edges", 3),
            ("n_checks", 0),
            ("cfg_base", 0),
            ("ext_sync", 1),
            ("resume", 0),
            ("step_en", 1),
            ("quota", 0),
        ] {
            sim.drive_port(&cu, port, v);
        }
        sim.step();
        sim.drive_port(&cu, "start", 0);
        let mut seen_cn = false;
        let mut seen_bn = false;
        for _ in 0..40 {
            sim.eval_comb();
            match sim.read_port_lane(&cu, "phase", 0) {
                Some(1) => seen_cn = true,
                Some(2) => seen_bn = true,
                Some(3) => break,
                _ => {}
            }
            sim.step();
        }
        sim.eval_comb();
        assert!(seen_cn, "check phase visited");
        assert!(seen_bn, "bit phase visited");
        assert_eq!(sim.read_port_lane(&cu, "done", 0), Some(1), "reaches done");
    }
}
