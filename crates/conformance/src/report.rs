//! Mismatch reports, netlist dump/replay, and the greedy minimizer.
//!
//! Reports are hand-rendered JSON (no external dependencies, same policy
//! as the bench harness); failing netlists are dumped in a line-oriented
//! text format that [`parse_netlist`] reads back for `difftest --replay`.

use std::fmt::Write as _;

use soctest_netlist::{GateKind, NetId, Netlist, PortDir};

use crate::campaign::{CaseStudyLeg, Routes, FAULT_MODES};

/// One observed divergence between two engines.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Mismatch {
    /// Engine pair that diverged (one of [`crate::PAIR_NAMES`]).
    pub pair: &'static str,
    /// The seed whose draw exposed it.
    pub seed: u64,
    /// Human-readable description of the first divergence.
    pub detail: String,
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Renders the `--report-on-failure` HTML triage page: one self-contained
/// document with the run parameters, every mismatch grouped per engine
/// pair, and the case-study leg's mismatches, built on the obs report
/// toolkit so it obeys the same no-external-reference guarantee as the
/// campaign cockpit.
pub fn render_html_report(
    seeds: u64,
    max_gates: usize,
    mismatches: &[Mismatch],
    case_study: &CaseStudyLeg,
    dump_file: Option<&str>,
) -> String {
    use soctest_obs::report as html;

    let mut doc = soctest_obs::HtmlReport::new("Conformance mismatch report");
    doc.set_subtitle(&format!("{seeds} seeds × ≤{max_gates} gates per netlist"));
    let pairs: Vec<&str> = {
        let mut p: Vec<&str> = mismatches.iter().map(|m| m.pair).collect();
        p.sort_unstable();
        p.dedup();
        p
    };
    doc.add_section(
        "Overview",
        html::stat_tiles(&[
            (
                "mismatches".into(),
                (mismatches.len() + case_study.mismatches.len()).to_string(),
            ),
            ("engine pairs hit".into(), pairs.len().to_string()),
            (
                "minimized dump".into(),
                dump_file.unwrap_or("none").to_owned(),
            ),
        ]),
    );
    for pair in pairs {
        let rows: Vec<Vec<String>> = mismatches
            .iter()
            .filter(|m| m.pair == pair)
            .map(|m| vec![m.seed.to_string(), m.detail.clone()])
            .collect();
        doc.add_section(
            &format!("Pair: {pair}"),
            html::table(&["seed", "first divergence"], &rows),
        );
    }
    if !case_study.mismatches.is_empty() {
        let rows: Vec<Vec<String>> = case_study
            .mismatches
            .iter()
            .map(|d| vec![d.clone()])
            .collect();
        doc.add_section(
            "Case-study leg",
            html::table(&["first divergence per campaign"], &rows),
        );
    }
    if let Some(f) = dump_file {
        doc.add_section(
            "Replay",
            html::paragraph(&format!(
                "The first sim-pair failure was minimized to {f}; \
                 rerun it with difftest --replay {f}."
            )),
        );
    }
    doc.render()
}

/// Renders a machine-readable report for one `difftest` run.
pub fn render_report(
    seeds: u64,
    max_gates: usize,
    checked: &[(&'static str, u64)],
    mismatches: &[Mismatch],
    fault_routes: &[Routes; 3],
    case_study: &CaseStudyLeg,
    dump_file: Option<&str>,
) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    let _ = writeln!(s, "  \"seeds\": {seeds},");
    let _ = writeln!(s, "  \"max_gates\": {max_gates},");
    s.push_str("  \"pairs\": {");
    for (i, (name, runs)) in checked.iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        let _ = write!(s, "\"{name}\": {runs}");
    }
    s.push_str("},\n");
    let _ = writeln!(s, "  \"mismatch_count\": {},", mismatches.len());
    s.push_str("  \"mismatches\": [\n");
    for (i, m) in mismatches.iter().enumerate() {
        let comma = if i + 1 < mismatches.len() { "," } else { "" };
        let _ = writeln!(
            s,
            "    {{\"pair\": \"{}\", \"seed\": {}, \"detail\": \"{}\"}}{comma}",
            m.pair,
            m.seed,
            json_escape(&m.detail)
        );
    }
    s.push_str("  ],\n");
    let _ = writeln!(s, "  \"fault_routes\": {},", routes_json(fault_routes));
    let details: Vec<String> = case_study
        .mismatches
        .iter()
        .map(|d| format!("\"{}\"", json_escape(d)))
        .collect();
    let _ = writeln!(
        s,
        "  \"case_study\": {{\"patterns\": {}, \"faults\": {}, \"campaigns\": {}, \
         \"routes\": {}, \"mismatch_count\": {}, \"mismatches\": [{}]}},",
        case_study.patterns,
        case_study.faults,
        case_study.campaigns,
        routes_json(&case_study.routes),
        case_study.mismatches.len(),
        details.join(", ")
    );
    match dump_file {
        Some(f) => {
            let _ = writeln!(s, "  \"minimized_netlist\": \"{}\"", json_escape(f));
        }
        None => s.push_str("  \"minimized_netlist\": null\n"),
    }
    s.push_str("}\n");
    s
}

/// `{"<mode>": {"settled": N, "handed_back": M, "folded_branch_faults":
/// F}, ...}` in [`FAULT_MODES`] order.
fn routes_json(routes: &[Routes; 3]) -> String {
    let fields: Vec<String> = FAULT_MODES
        .iter()
        .zip(routes)
        .map(|((mode, _, _), r)| {
            format!(
                "\"{mode}\": {{\"settled\": {}, \"handed_back\": {}, \
                 \"folded_branch_faults\": {}}}",
                r.settled, r.handed_back, r.folded_branch_faults
            )
        })
        .collect();
    format!("{{{}}}", fields.join(", "))
}

/// Serializes `nl` into the replayable text dump format:
///
/// ```text
/// # soctest difftest netlist dump
/// name rand
/// gate in
/// gate and2 0 0
/// port input in 0
/// port output out 1
/// ```
///
/// Gate lines appear in net-id order (the id is implicit); pins and port
/// bits are net ids.
pub fn dump_netlist(nl: &Netlist) -> String {
    let mut s = String::from("# soctest difftest netlist dump\n");
    let _ = writeln!(s, "name {}", nl.name());
    for (_, gate) in nl.iter() {
        let _ = write!(s, "gate {}", gate.kind.mnemonic());
        for pin in &gate.pins {
            let _ = write!(s, " {}", pin.0);
        }
        s.push('\n');
    }
    for port in nl.ports() {
        let dir = match port.dir() {
            PortDir::Input => "input",
            PortDir::Output => "output",
        };
        let _ = write!(s, "port {dir} {}", port.name());
        for bit in port.bits() {
            let _ = write!(s, " {}", bit.0);
        }
        s.push('\n');
    }
    s
}

fn kind_from_mnemonic(m: &str) -> Option<GateKind> {
    GateKind::ALL.into_iter().find(|k| k.mnemonic() == m)
}

/// Parses a [`dump_netlist`] dump back into a netlist.
///
/// # Errors
///
/// Returns a description of the first malformed line, unknown mnemonic,
/// or validation failure.
pub fn parse_netlist(text: &str) -> Result<Netlist, String> {
    let mut nl = Netlist::new("replay");
    let mut ports: Vec<(PortDir, String, Vec<NetId>)> = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut tok = line.split_whitespace();
        let head = tok.next().unwrap_or_default();
        let err = |what: &str| format!("line {}: {what}: {line}", lineno + 1);
        match head {
            "name" => {
                let name = tok.next().ok_or_else(|| err("missing name"))?;
                nl = Netlist::new(name);
            }
            "gate" => {
                let mn = tok.next().ok_or_else(|| err("missing mnemonic"))?;
                let kind = kind_from_mnemonic(mn).ok_or_else(|| err("unknown gate kind"))?;
                let pins = tok
                    .map(|t| t.parse::<u32>().map(NetId))
                    .collect::<Result<Vec<_>, _>>()
                    .map_err(|_| err("bad pin id"))?;
                if pins.len() != kind.arity() {
                    return Err(err("pin count does not match gate arity"));
                }
                nl.add_gate_unchecked(kind, pins);
            }
            "port" => {
                let dir = match tok.next() {
                    Some("input") => PortDir::Input,
                    Some("output") => PortDir::Output,
                    _ => return Err(err("bad port direction")),
                };
                let name = tok.next().ok_or_else(|| err("missing port name"))?;
                let bits = tok
                    .map(|t| t.parse::<u32>().map(NetId))
                    .collect::<Result<Vec<_>, _>>()
                    .map_err(|_| err("bad port bit id"))?;
                ports.push((dir, name.to_owned(), bits));
            }
            _ => return Err(err("unknown directive")),
        }
    }
    for (dir, name, bits) in ports {
        nl.add_port(dir, &name, bits).map_err(|e| e.to_string())?;
    }
    nl.validate().map_err(|e| e.to_string())?;
    Ok(nl)
}

/// Greedy netlist minimizer: repeatedly forces non-input gates to
/// constant 0 while `failing` still reproduces the mismatch. The result
/// is 1-minimal with respect to that reduction (re-enabling any single
/// surviving gate is impossible without losing the failure).
pub fn minimize<F: FnMut(&Netlist) -> bool>(nl: &Netlist, mut failing: F) -> Netlist {
    let mut current = nl.clone();
    loop {
        let mut shrunk = false;
        for id in (0..current.len()).rev() {
            let net = NetId(id as u32);
            let kind = current.gate(net).kind;
            if matches!(kind, GateKind::Input | GateKind::Const0 | GateKind::Const1) {
                continue;
            }
            let mut trial = current.clone();
            trial.force_constant(net, false);
            if failing(&trial) {
                current = trial;
                shrunk = true;
            }
        }
        if !shrunk {
            return current;
        }
    }
}

/// Number of gates that still compute something (not Input/Const tie-offs).
pub fn active_gates(nl: &Netlist) -> usize {
    nl.iter()
        .filter(|(_, g)| {
            !matches!(
                g.kind,
                GateKind::Input | GateKind::Const0 | GateKind::Const1
            )
        })
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::{random_netlist, GeneratorConfig};
    use soctest_prng::SplitMix64;

    #[test]
    fn html_report_is_self_contained_and_lists_every_mismatch() {
        let mismatches = vec![
            Mismatch {
                pair: "sim",
                seed: 7,
                detail: "output bit 3 diverged at pattern 12 <&>".into(),
            },
            Mismatch {
                pair: "fault",
                seed: 9,
                detail: "detection count 4 vs 5".into(),
            },
        ];
        let leg = CaseStudyLeg {
            patterns: 64,
            faults: 10,
            campaigns: 6,
            routes: [Routes::default(); 3],
            mismatches: vec!["CONTROL_UNIT stuck-at misr: fault 3".into()],
        };
        let html = render_html_report(25, 120, &mismatches, &leg, Some("difftest_min_seed7.nl"));
        assert!(soctest_obs::report::is_self_contained(&html));
        assert!(html.contains("Pair: sim"));
        assert!(html.contains("Pair: fault"));
        assert!(html.contains("Case-study leg"));
        assert!(html.contains("CONTROL_UNIT stuck-at misr"));
        assert!(html.contains("&lt;&amp;&gt;"), "details are escaped");
        assert!(html.contains("difftest_min_seed7.nl"));
    }

    #[test]
    fn dump_then_parse_roundtrips() {
        for seed in 0..20u64 {
            let mut rng = SplitMix64::new(seed);
            let cfg = GeneratorConfig::sample(&mut rng, 80);
            let nl = random_netlist(&mut rng, &cfg);
            let text = dump_netlist(&nl);
            let back = parse_netlist(&text).expect("replay parse");
            assert_eq!(back.len(), nl.len());
            assert_eq!(back.input_width(), nl.input_width());
            assert_eq!(back.output_width(), nl.output_width());
            for (id, gate) in nl.iter() {
                assert_eq!(back.gate(id).kind, gate.kind, "gate {id:?}");
                assert_eq!(back.gate(id).pins, gate.pins, "pins of {id:?}");
            }
            assert_eq!(text, dump_netlist(&back), "dump is canonical");
        }
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(parse_netlist("gate frob 1 2").is_err());
        assert!(parse_netlist("gate and2 0").is_err());
        assert!(parse_netlist("wibble").is_err());
    }

    #[test]
    fn minimizer_shrinks_while_predicate_holds() {
        let mut rng = SplitMix64::new(42);
        let cfg = GeneratorConfig::sample(&mut rng, 80).comb();
        let nl = random_netlist(&mut rng, &cfg);
        let out0 = nl.primary_outputs()[0];
        // "Failing" = output 0 still structurally depends on... nothing:
        // keep any netlist whose output-0 driver is not a constant. The
        // minimizer must then kill everything else.
        let min = minimize(&nl, |cand| {
            !matches!(cand.gate(out0).kind, GateKind::Const0 | GateKind::Const1)
        });
        assert!(active_gates(&min) <= active_gates(&nl));
        assert!(active_gates(&min) <= 2, "only the protected driver stays");
    }

    #[test]
    fn report_is_plausible_json() {
        let routes = |settled, handed_back| Routes {
            settled,
            handed_back,
            folded_branch_faults: settled + 10,
        };
        let leg = CaseStudyLeg {
            patterns: 64,
            faults: 12,
            campaigns: 6,
            routes: [routes(7, 1), routes(8, 2), routes(9, 3)],
            mismatches: Vec::new(),
        };
        let r = render_report(
            5,
            80,
            &[("sim", 5)],
            &[Mismatch {
                pair: "sim",
                seed: 3,
                detail: "lane 0 \"quote\"".into(),
            }],
            &[routes(4, 0), routes(5, 6), routes(6, 7)],
            &leg,
            Some("min.nl"),
        );
        assert!(r.contains("\"mismatch_count\": 1"));
        assert!(r.contains("\\\"quote\\\""));
        assert!(r.starts_with('{') && r.trim_end().ends_with('}'));
        let doc = soctest_obs::json::parse(&r).expect("report parses as JSON");
        let leg = doc.get("case_study").expect("case-study object");
        assert_eq!(leg.get("faults").and_then(|v| v.as_f64()), Some(12.0));
        assert_eq!(
            leg.get("mismatch_count").and_then(|v| v.as_f64()),
            Some(0.0)
        );
        let count = |routes: &soctest_obs::json::JsonValue, mode: &str, route: &str| {
            routes
                .get(mode)
                .and_then(|m| m.get(route))
                .and_then(|v| v.as_f64())
        };
        let misr = leg.get("routes").expect("case-study routes");
        assert_eq!(count(misr, "misr", "handed_back"), Some(3.0));
        let pair = doc.get("fault_routes").expect("fault-pair routes");
        assert_eq!(count(pair, "outputs", "settled"), Some(4.0));
        assert_eq!(count(pair, "outputs", "handed_back"), Some(0.0));
        assert_eq!(count(pair, "outputs", "folded_branch_faults"), Some(14.0));
        assert_eq!(count(misr, "misr", "folded_branch_faults"), Some(19.0));
    }
}
