//! The campaign cockpit: one entry point that runs the paper's evaluation
//! loop end to end and renders it as a self-contained HTML report.
//!
//! [`run_campaign`] executes step 1 (toggle activity + cold nets), the
//! step-2 coverage campaigns per module × fault model (with the exact
//! configuration `experiments::table3` uses for its BIST cells, so the
//! report's final coverage figures byte-match the text tables), the
//! step-3 diagnosis sweep (class sizes and resolution vs pattern count),
//! and one [`RobustSession`] against the supplied DUT, capturing its
//! trace. [`render_report`] turns the result into a single HTML document
//! with inline SVG charts and the feedback advisor's suggestions.

use std::fmt::Write as _;

use soctest_fault::{FaultUniverse, SeqFaultSim, SeqFaultSimConfig};
use soctest_obs::analyze::{self, AdvisorInput, CurveFacts, ToggleRow};
use soctest_obs::svg::{self, escape, Bar, LineSeries, TimelinePoint};
use soctest_obs::{report, CoverageCurve, HtmlReport, Profiler, TraceHandle, TraceRecord, Tracer};

use crate::autopilot::AutopilotReport;
use crate::casestudy::CaseStudy;
use crate::error::SessionError;
use crate::eval::{self, FaultModel, Step1Report, Step3Report};
use crate::experiments::Budget;
use crate::fleet::{BatchWall, DieTrace, FleetReport};
use crate::health::HealthReport;
use crate::robust::{RobustSession, SessionReport};

/// One module × fault-model coverage campaign.
#[derive(Debug, Clone)]
pub struct ModuleCurve {
    /// Module name.
    pub module: String,
    /// Fault-model label (`SAF` / `TDF`).
    pub model: &'static str,
    /// The streaming coverage curve.
    pub curve: CoverageCurve,
    /// Final coverage percent, exactly `FaultSimResult::coverage_percent`.
    pub coverage_percent: f64,
    /// Faults in the collapsed universe.
    pub faults: usize,
    /// Undetected-fault drill-down: `(universe index, description)`.
    pub undetected: Vec<(usize, String)>,
}

/// Diagnostic resolution at one pattern budget (step 3 of §3.2).
#[derive(Debug, Clone)]
pub struct ResolutionPoint {
    /// Module name.
    pub module: String,
    /// Patterns applied before reading syndromes.
    pub patterns: u64,
    /// Equivalent classes observed.
    pub classes: usize,
    /// Fraction of detected faults uniquely identified.
    pub resolution: f64,
}

/// Everything one campaign produced, ready to analyze or render.
#[derive(Debug, Clone)]
pub struct CampaignData {
    /// Step-1 outcome (statement coverage, toggle activity, cold nets).
    pub step1: Step1Report,
    /// Step-2 coverage curves, module-major then SAF/TDF.
    pub curves: Vec<ModuleCurve>,
    /// Full-budget step-3 diagnosis per module.
    pub diag: Vec<(String, Step3Report)>,
    /// Resolution vs pattern count (geometric sweep up to the budget).
    pub resolution_points: Vec<ResolutionPoint>,
    /// The robust session's outcome against the DUT.
    pub session: SessionReport,
    /// The session's trace records (the timeline source).
    pub session_trace: Vec<TraceRecord>,
    /// The feedback advisor's suggestions.
    pub advice: Vec<analyze::Advice>,
    /// BIST patterns per campaign run.
    pub patterns: u64,
    /// A closed-loop autopilot run to render alongside the campaign, when
    /// one was flown (`run_campaign` itself leaves this `None`; the `repro`
    /// binary attaches it under `--autopilot`).
    pub autopilot: Option<AutopilotReport>,
    /// A fleet campaign to render alongside, when one was flown
    /// (`run_campaign` leaves this `None`; the `repro` binary attaches it
    /// under `--fleet --report=`).
    pub fleet: Option<FleetReport>,
    /// Observability data — profiler snapshot, sampled-die traces, and
    /// batch throughput — rendered as the report's "Observatory" section
    /// (`run_campaign` leaves this `None`; the `repro` binary attaches it
    /// under `--profile=` / `--sample-dies=`).
    pub observatory: Option<ObservatoryData>,
    /// A fleet health-monitor record to render as the report's "Health"
    /// section — control charts, excursion table with attribution, and
    /// in-control verdict tiles (`run_campaign` leaves this `None`; the
    /// `repro` binary attaches it under `--fleet --monitor`).
    pub health: Option<HealthReport>,
}

/// Everything the report's "Observatory" section draws from: where the
/// wall time went, which dies were sampled for tracing, and how die
/// throughput moved over the campaign.
#[derive(Debug, Clone, Default)]
pub struct ObservatoryData {
    /// The self-profiler snapshot (phase-attributed wall time).
    pub profiler: Option<Profiler>,
    /// Sampled-die traces, each a bounded ring's surviving records.
    pub traces: Vec<DieTrace>,
    /// Per-batch wall clocks from the fleet run.
    pub batch_walls: Vec<BatchWall>,
    /// Trace-ring events dropped across all sampled dies.
    pub trace_dropped_events: u64,
}

/// How many drill-down rows (cold nets, undetected faults) the report
/// keeps per module; the rest is summarized as a count.
const DRILLDOWN_ROWS: usize = 10;

fn toggle_rows(step1: &Step1Report) -> Vec<ToggleRow> {
    step1
        .toggle
        .iter()
        .zip(&step1.cold_nets)
        .map(|((module, rep), (_, cold))| ToggleRow {
            module: module.clone(),
            nets: rep.nets,
            toggled: rep.toggled,
            transitions: rep.transitions,
            cold: cold.clone(),
        })
        .collect()
}

/// Runs the full campaign: steps 1–3 on `reference` plus one robust
/// session of `reference` vs `dut`, and feeds everything to the advisor.
///
/// # Errors
///
/// Propagates simulator and session errors from the underlying steps.
pub fn run_campaign(
    reference: &CaseStudy,
    dut: &CaseStudy,
    budget: &Budget,
) -> Result<CampaignData, SessionError> {
    let patterns = budget.bist_patterns;
    let step1 = eval::step1(reference, patterns)?;

    // Step 2 — the exact BIST-cell configuration of `experiments::table3`:
    // same stimulus, same default window, same parallel policy, so the
    // resulting coverage figures byte-match the rendered tables.
    let pgen = reference.pattern_generator();
    let mut curves = Vec::new();
    for (m, module) in reference.modules().iter().enumerate() {
        for (model, label) in [
            (FaultModel::StuckAt, "SAF"),
            (FaultModel::Transition, "TDF"),
        ] {
            let universe = match model {
                FaultModel::StuckAt => FaultUniverse::stuck_at(module),
                FaultModel::Transition => FaultUniverse::transition(module),
            };
            let mut stim = pgen.stimulus(m, patterns);
            let sim = SeqFaultSim::new(
                &universe,
                SeqFaultSimConfig {
                    parallel: budget.parallel,
                    ..Default::default()
                },
            );
            let result = sim.run(&mut stim)?;
            let undetected = result
                .undetected()
                .into_iter()
                .take(DRILLDOWN_ROWS)
                .map(|i| (i, universe.describe(i)))
                .collect();
            curves.push(ModuleCurve {
                module: module.name().to_owned(),
                model: label,
                curve: result.curve(),
                coverage_percent: result.coverage_percent(),
                faults: universe.len(),
                undetected,
            });
        }
    }

    // Step 3 — diagnosis sweep: resolution vs pattern count, keeping the
    // full-budget run as each module's diagnosis.
    let mut diag = Vec::new();
    let mut resolution_points = Vec::new();
    for (m, module) in reference.modules().iter().enumerate() {
        let mut last: Option<Step3Report> = None;
        for p in [
            budget.diag_patterns / 4,
            budget.diag_patterns / 2,
            budget.diag_patterns,
        ] {
            let p = p.max(1);
            let r = eval::step3(
                reference,
                m,
                FaultModel::StuckAt,
                p,
                (p / 16).max(1),
                budget.diag_stride,
                budget.parallel,
            )?;
            resolution_points.push(ResolutionPoint {
                module: module.name().to_owned(),
                patterns: p,
                classes: r.stats.classes,
                resolution: r.resolution,
            });
            last = Some(r);
        }
        if let Some(r) = last {
            diag.push((module.name().to_owned(), r));
        }
    }

    // The robust session, traced whole so the timeline can be drawn from
    // its records.
    let trace = TraceHandle::new(Tracer::default());
    let session_runner = RobustSession::default()
        .with_parallelism(budget.parallel)
        .with_trace(trace.clone());
    let session = session_runner.run(reference, dut, patterns)?;
    let session_trace = trace
        .with(|t| t.records().copied().collect())
        .unwrap_or_default();

    // The advisor: session outcome + curve summaries + toggle rows.
    let mut input: AdvisorInput = session.advisor_input();
    input.curves = curves
        .iter()
        .map(|c| CurveFacts {
            module: c.module.clone(),
            model: c.model.to_owned(),
            summary: c.curve.summary(),
        })
        .collect();
    input.toggle = toggle_rows(&step1);
    let advice = analyze::advise(&input);

    Ok(CampaignData {
        step1,
        curves,
        diag,
        resolution_points,
        session,
        session_trace,
        advice,
        patterns,
        autopilot: None,
        fleet: None,
        observatory: None,
        health: None,
    })
}

fn curve_chart(data: &CampaignData, model: &str) -> String {
    let series: Vec<LineSeries> = data
        .curves
        .iter()
        .filter(|c| c.model == model)
        .map(|c| LineSeries {
            label: c.module.clone(),
            points: c
                .curve
                .sampled_percent(128)
                .into_iter()
                .map(|(x, y)| (x as f64, y))
                .collect(),
        })
        .collect();
    svg::line_chart(
        &format!("{model} coverage vs patterns"),
        "patterns",
        "coverage %",
        &series,
        Some(100.0),
    )
}

fn coverage_section(data: &CampaignData) -> String {
    let mut body = String::new();
    body.push_str(&curve_chart(data, "SAF"));
    body.push_str(&curve_chart(data, "TDF"));
    // Per-campaign summary table. The final-coverage cells carry
    // machine-checkable data attributes so CI can byte-match them against
    // the rendered text tables.
    body.push_str(
        "<table><thead><tr><th>module</th><th>model</th><th>faults</th><th>detected</th>\
         <th>final</th><th>to 90%</th><th>to final</th><th>tail flatness</th></tr></thead><tbody>",
    );
    for c in &data.curves {
        let s = c.curve.summary();
        let opt = |o: Option<u64>| o.map(|v| v.to_string()).unwrap_or_else(|| "—".into());
        let _ = write!(
            body,
            "<tr><td>{}</td><td>{}</td><td>{}</td><td>{}</td>\
             <td data-module=\"{}\" data-model=\"{}\">{:.1}%</td>\
             <td>{}</td><td>{}</td><td>{:.2}</td></tr>",
            escape(&c.module),
            c.model,
            c.faults,
            s.detected,
            escape(&c.module),
            c.model,
            c.coverage_percent,
            opt(s.patterns_to_90),
            opt(s.patterns_to_final),
            s.tail_flatness,
        );
    }
    body.push_str("</tbody></table>");
    // Undetected-fault drill-down, keyed back to nets.
    let mut rows: Vec<Vec<String>> = Vec::new();
    for c in &data.curves {
        let total_undetected = c.faults - c.curve.detected();
        for (i, desc) in &c.undetected {
            rows.push(vec![
                c.module.clone(),
                c.model.to_owned(),
                i.to_string(),
                desc.clone(),
            ]);
        }
        if total_undetected > c.undetected.len() {
            rows.push(vec![
                c.module.clone(),
                c.model.to_owned(),
                "…".into(),
                format!("and {} more", total_undetected - c.undetected.len()),
            ]);
        }
    }
    if !rows.is_empty() {
        body.push_str("<h3>Undetected faults</h3>");
        body.push_str(&report::table(&["module", "model", "fault", "net"], &rows));
    }
    body
}

fn toggle_section(data: &CampaignData) -> String {
    let rows = toggle_rows(&data.step1);
    let mut sorted: Vec<&ToggleRow> = rows.iter().collect();
    sorted.sort_by(|a, b| {
        a.activity_percent()
            .partial_cmp(&b.activity_percent())
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    let bars: Vec<Bar> = sorted
        .iter()
        .map(|r| Bar {
            label: r.module.clone(),
            value: (r.activity_percent() * 10.0).round() / 10.0,
            detail: format!(
                "{}: {}/{} nets toggled, {} transitions, {} cold",
                r.module,
                r.toggled,
                r.nets,
                r.transitions,
                r.cold.len()
            ),
            ramp: (r.activity_percent() / 100.0 * 7.0).round() as u8,
        })
        .collect();
    let mut body = svg::hbar_chart(
        "Toggle activity by module (coldest first)",
        &bars,
        100.0,
        "%",
    );
    let mut cold_rows: Vec<Vec<String>> = Vec::new();
    for r in &rows {
        for (net, desc) in r.cold.iter().take(DRILLDOWN_ROWS) {
            cold_rows.push(vec![r.module.clone(), format!("n{net}"), desc.clone()]);
        }
        if r.cold.len() > DRILLDOWN_ROWS {
            cold_rows.push(vec![
                r.module.clone(),
                "…".into(),
                format!("and {} more", r.cold.len() - DRILLDOWN_ROWS),
            ]);
        }
    }
    if !cold_rows.is_empty() {
        body.push_str("<h3>Never-toggled nets</h3>");
        body.push_str(&report::table(
            &["module", "net", "description"],
            &cold_rows,
        ));
    }
    body
}

fn diagnosis_section(data: &CampaignData) -> String {
    let mut body = String::new();
    // Aggregate class-size histogram across modules.
    let all_sizes: Vec<usize> = data
        .diag
        .iter()
        .flat_map(|(_, r)| r.class_sizes.iter().copied())
        .collect();
    let dist = analyze::class_size_distribution(&all_sizes);
    let bars: Vec<(String, f64)> = dist
        .iter()
        .map(|&(size, count)| (size.to_string(), count as f64))
        .collect();
    body.push_str(&svg::vbar_chart(
        "Equivalent-class sizes (all modules)",
        "class size (faults per syndrome)",
        &bars,
    ));
    let rows: Vec<Vec<String>> = data
        .diag
        .iter()
        .map(|(m, r)| {
            vec![
                m.clone(),
                r.stats.classes.to_string(),
                r.stats.max_size.to_string(),
                format!("{:.1}", r.stats.mean_size),
                r.stats.singletons.to_string(),
                format!("{:.2}", r.resolution),
            ]
        })
        .collect();
    body.push_str(&report::table(
        &[
            "module",
            "classes",
            "max",
            "mean",
            "singletons",
            "resolution",
        ],
        &rows,
    ));
    let res_rows: Vec<Vec<String>> = data
        .resolution_points
        .iter()
        .map(|p| {
            vec![
                p.module.clone(),
                p.patterns.to_string(),
                p.classes.to_string(),
                format!("{:.2}", p.resolution),
            ]
        })
        .collect();
    body.push_str("<h3>Resolution vs pattern count</h3>");
    body.push_str(&report::table(
        &["module", "patterns", "classes", "resolution"],
        &res_rows,
    ));
    body
}

fn advisor_section(data: &CampaignData) -> String {
    if data.advice.is_empty() {
        return report::paragraph(
            "No action needed: every curve reached its target and the session passed.",
        );
    }
    let mut body = String::from("<ul class=\"advice\">");
    for a in &data.advice {
        let _ = write!(
            body,
            "<li><span class=\"strategy\">{}</span> {} — {}</li>",
            escape(a.strategy),
            escape(&a.module),
            escape(&a.reason)
        );
    }
    body.push_str("</ul>");
    body
}

fn autopilot_section(report: &AutopilotReport) -> String {
    let mut body = String::new();
    // Verdict tiles: one per module, plus the loop's budget accounting.
    let mut tiles: Vec<(String, String)> = report
        .modules
        .iter()
        .map(|m| (m.module.clone(), m.verdict.name().to_owned()))
        .collect();
    tiles.push(("target".into(), format!("{:.1}%", report.target_percent)));
    tiles.push(("simulated patterns".into(), report.sim_patterns.to_string()));
    body.push_str(&report::stat_tiles(&tiles));

    // The decision table: every round of every module, in flight order.
    let mut rows: Vec<Vec<String>> = Vec::new();
    for m in &report.modules {
        for r in &m.rounds {
            rows.push(vec![
                m.module.clone(),
                r.round.to_string(),
                r.lever.name().to_owned(),
                r.patterns.to_string(),
                format!("{:.1}%", r.coverage_percent),
                format!("{:.2}", r.summary.tail_flatness),
            ]);
        }
        let demoted = if m.demoted.is_empty() {
            "—".to_owned()
        } else {
            m.demoted.join(", ")
        };
        rows.push(vec![
            m.module.clone(),
            "∎".into(),
            format!("verdict: {}", m.verdict.name()),
            m.recommended_patterns
                .map(|p| format!("knee {p}"))
                .unwrap_or_else(|| "—".into()),
            format!("{:.1}%", m.final_percent),
            format!("demoted: {demoted}"),
        ]);
    }
    body.push_str(&report::table(
        &["module", "round", "lever", "patterns", "coverage", "tail"],
        &rows,
    ));

    // The raw decision trail, greppable straight out of the HTML.
    body.push_str("<h3>Decision trail</h3><pre class=\"trail\">");
    body.push_str(&escape(&report.trail_jsonl));
    body.push_str("</pre>");
    body
}

fn fleet_section(fleet: &FleetReport) -> String {
    let mut body = String::new();
    body.push_str(&report::stat_tiles(&[
        ("dies".into(), fleet.dies.to_string()),
        ("yield".into(), format!("{:.2}%", fleet.yield_percent())),
        ("escapes".into(), fleet.escapes.to_string()),
        ("overkill".into(), fleet.overkill.to_string()),
        ("tck p50".into(), fleet.tck.p50.to_string()),
        ("tck p99".into(), fleet.tck.p99.to_string()),
    ]));

    // Verdicts per defect class.
    let class_rows: Vec<Vec<String>> = fleet
        .classes
        .iter()
        .map(|c| {
            vec![
                c.class.name().to_owned(),
                c.sampled.to_string(),
                c.passed.to_string(),
                c.quarantined.to_string(),
                c.hung.to_string(),
                c.protocol.to_string(),
            ]
        })
        .collect();
    body.push_str(&report::table(
        &[
            "class",
            "sampled",
            "passed",
            "quarantined",
            "hung",
            "protocol",
        ],
        &class_rows,
    ));

    // Yield per batch, so drift over the campaign is visible at a glance.
    let bars: Vec<(String, f64)> = fleet
        .batches
        .iter()
        .map(|b| {
            let y = if b.dies == 0 {
                0.0
            } else {
                b.passed as f64 / b.dies as f64 * 100.0
            };
            (format!("b{}", b.batch), y)
        })
        .collect();
    body.push_str(&svg::vbar_chart("Yield per batch (%)", "batch", &bars));

    // Batch-by-batch verdict table.
    let batch_rows: Vec<Vec<String>> = fleet
        .batches
        .iter()
        .map(|b| {
            vec![
                b.batch.to_string(),
                b.dies.to_string(),
                b.passed.to_string(),
                b.quarantined.to_string(),
                b.hung.to_string(),
                b.escapes.to_string(),
                b.overkill.to_string(),
            ]
        })
        .collect();
    body.push_str(&report::table(
        &[
            "batch",
            "dies",
            "passed",
            "quarantined",
            "hung",
            "escapes",
            "overkill",
        ],
        &batch_rows,
    ));
    let quarantine: Vec<String> = fleet
        .quarantine_by_module
        .iter()
        .map(|(m, n)| format!("{m}: {n}"))
        .collect();
    body.push_str(&report::paragraph(&format!(
        "seed {} · {} patterns/session · defect rate {:.2}% · escape rate {:.3}% \
         · overkill rate {:.3}% · quarantines by module: {}",
        fleet.seed,
        fleet.patterns,
        fleet.defect_rate * 100.0,
        fleet.escape_percent(),
        fleet.overkill_percent(),
        if quarantine.is_empty() {
            "—".to_owned()
        } else {
            quarantine.join(", ")
        },
    )));
    body
}

/// One metric's control chart: the raw batch value, its EWMA, the
/// control limits, and a marker series carrying only the signal onsets.
fn control_chart(title: &str, points: &[soctest_obs::SpcPoint]) -> String {
    let pct = |v: f64| v * 100.0;
    let mut series = vec![
        LineSeries {
            label: "value".to_owned(),
            points: points
                .iter()
                .map(|p| (p.batch as f64, pct(p.value)))
                .collect(),
        },
        LineSeries {
            label: "ewma".to_owned(),
            points: points
                .iter()
                .map(|p| (p.batch as f64, pct(p.ewma)))
                .collect(),
        },
        LineSeries {
            label: "ucl".to_owned(),
            points: points
                .iter()
                .filter(|p| !p.in_baseline)
                .map(|p| (p.batch as f64, pct(p.ucl)))
                .collect(),
        },
        LineSeries {
            label: "lcl".to_owned(),
            points: points
                .iter()
                .filter(|p| !p.in_baseline)
                .map(|p| (p.batch as f64, pct(p.lcl)))
                .collect(),
        },
    ];
    let signals: Vec<(f64, f64)> = points
        .iter()
        .filter(|p| p.signal.is_some())
        .map(|p| (p.batch as f64, pct(p.value)))
        .collect();
    if !signals.is_empty() {
        series.push(LineSeries {
            label: "signal".to_owned(),
            points: signals,
        });
    }
    svg::line_chart(title, "batch", "%", &series, None)
}

fn health_section(health: &HealthReport) -> String {
    let mut body = String::new();
    body.push_str(&report::stat_tiles(&[
        (
            "status".into(),
            if health.in_control() {
                "in control".to_owned()
            } else {
                format!("{} excursion(s)", health.excursions.len())
            },
        ),
        ("batches".into(), health.batches.to_string()),
        (
            "baseline yield".into(),
            format!("{:.2}%", health.baseline_yield * 100.0),
        ),
        (
            "baseline recovered".into(),
            format!("{:.2}%", health.baseline_recovered * 100.0),
        ),
    ]));

    body.push_str(&control_chart(
        "Yield control chart (EWMA + limits)",
        &health.yield_points,
    ));
    body.push_str(&control_chart(
        "Recovered-rate control chart (EWMA + limits)",
        &health.recovered_points,
    ));

    if health.in_control() {
        body.push_str(&report::paragraph(
            "No excursion: both charts stayed inside their control limits \
             for the whole campaign.",
        ));
    } else {
        let rows: Vec<Vec<String>> = health
            .excursions
            .iter()
            .map(|e| {
                vec![
                    e.spc.batch.to_string(),
                    e.spc.metric.clone(),
                    e.spc.direction.name().to_owned(),
                    format!("{:.1}σ", e.spc.magnitude_sigma),
                    e.spc.chart.to_owned(),
                    e.attributed_class.to_owned(),
                    format!("{:+.1}pp", e.class_delta_pp),
                    e.attributed_module.clone(),
                    escape(&e.advice),
                ]
            })
            .collect();
        body.push_str("<h3>Excursions</h3>");
        body.push_str(&report::table(
            &[
                "batch",
                "metric",
                "dir",
                "magnitude",
                "chart",
                "class",
                "Δ share",
                "module",
                "advice",
            ],
            &rows,
        ));
    }
    body
}

fn observatory_section(obs: &ObservatoryData) -> String {
    let mut body = String::new();

    // Where the wall time went: top-level phase attribution, table +
    // share chart, straight from the profiler snapshot.
    if let Some(prof) = &obs.profiler {
        let total = prof.total_wall_ns().max(1);
        let phases = prof.phases();
        let rows: Vec<Vec<String>> = phases
            .iter()
            .map(|(name, wall, entries)| {
                vec![
                    name.clone(),
                    format!("{:.3}", *wall as f64 / 1e9),
                    format!("{:.1}%", *wall as f64 / total as f64 * 100.0),
                    entries.to_string(),
                ]
            })
            .collect();
        body.push_str("<h3>Phase attribution</h3>");
        body.push_str(&report::table(
            &["phase", "wall s", "share", "entries"],
            &rows,
        ));
        let bars: Vec<Bar> = phases
            .iter()
            .map(|(name, wall, entries)| {
                let share = *wall as f64 / total as f64 * 100.0;
                Bar {
                    label: name.clone(),
                    value: (share * 10.0).round() / 10.0,
                    detail: format!("{name}: {:.3}s over {entries} entries", *wall as f64 / 1e9),
                    ramp: (share / 100.0 * 7.0).round() as u8,
                }
            })
            .collect();
        body.push_str(&svg::hbar_chart(
            "Wall-time share by phase",
            &bars,
            100.0,
            "%",
        ));
    }

    // Sampled dies: the bounded-ring drop warning, the per-die summary,
    // and the first sampled die's timeline reconstructed from its JSONL.
    if obs.trace_dropped_events > 0 {
        body.push_str(&report::paragraph(&format!(
            "warning: trace rings dropped {} event(s) across sampled dies \
             (oldest-first); raise the ring capacity to keep full timelines.",
            obs.trace_dropped_events
        )));
    }
    if !obs.traces.is_empty() {
        let rows: Vec<Vec<String>> = obs
            .traces
            .iter()
            .map(|t| {
                vec![
                    t.die.to_string(),
                    t.class.name().to_owned(),
                    t.verdict.name().to_owned(),
                    t.records.to_string(),
                    t.dropped.to_string(),
                ]
            })
            .collect();
        body.push_str("<h3>Sampled dies</h3>");
        body.push_str(&report::table(
            &["die", "class", "verdict", "records", "dropped"],
            &rows,
        ));
        if let Some(t) = obs.traces.iter().find(|t| !t.tail.is_empty()) {
            let points: Vec<TimelinePoint> = t
                .tail
                .iter()
                .map(|r| TimelinePoint {
                    cycle: r.cycle,
                    lane: r.event.name().to_owned(),
                    detail: r.event.detail(),
                })
                .collect();
            body.push_str(&svg::timeline(
                &format!("Sampled die {} ({}) timeline", t.die, t.class.name()),
                "TCK cycles",
                &points,
            ));
        }
    }

    // Throughput over the campaign: dies/s per batch as a sparkline.
    if !obs.batch_walls.is_empty() {
        let series = [LineSeries {
            label: "dies/s".to_owned(),
            points: obs
                .batch_walls
                .iter()
                .map(|b| (b.batch as f64, b.dies_per_sec()))
                .collect(),
        }];
        body.push_str(&svg::line_chart(
            "Die throughput per batch",
            "batch",
            "dies/s",
            &series,
            None,
        ));
    }
    if body.is_empty() {
        body = report::paragraph("No observability data captured for this run.");
    }
    body
}

fn timeline_section(data: &CampaignData) -> String {
    let events = &data.session_trace;
    // Cap the drawn points without dropping any event kind: dense lanes
    // (watchdog checks) are subsampled evenly, sparse ones (quarantines)
    // keep every point.
    const MAX_POINTS: usize = 400;
    let mut grouped: std::collections::BTreeMap<&str, Vec<&TraceRecord>> =
        std::collections::BTreeMap::new();
    for r in events {
        grouped.entry(r.event.name()).or_default().push(r);
    }
    let per_lane = (MAX_POINTS / grouped.len().max(1)).max(1);
    let mut points: Vec<TimelinePoint> = Vec::new();
    for (lane, recs) in &grouped {
        let step = recs.len().div_ceil(per_lane);
        for (i, r) in recs.iter().enumerate() {
            if i % step == 0 || i + 1 == recs.len() {
                points.push(TimelinePoint {
                    cycle: r.cycle,
                    lane: (*lane).to_owned(),
                    detail: r.event.detail(),
                });
            }
        }
    }
    points.sort_by_key(|p| p.cycle);
    let mut body = svg::timeline("Session events over cumulative TCK", "TCK cycles", &points);
    let quarantined = data.session.quarantined();
    let verdict = if quarantined.is_empty() {
        "all modules passed".to_owned()
    } else {
        format!("quarantined: {}", quarantined.join(", "))
    };
    body.push_str(&report::paragraph(&format!(
        "{} events, {} TCK cycles, {} — strategies: {}",
        events.len(),
        data.session.tck_spent,
        verdict,
        data.session
            .strategy_names()
            .first()
            .map(|(_, s)| s.join(" → "))
            .unwrap_or_else(|| "none".to_owned()),
    )));
    body
}

/// Renders the campaign as one self-contained HTML document.
pub fn render_report(data: &CampaignData) -> String {
    let mut doc = HtmlReport::new("BIST campaign report");
    let modules: Vec<String> = data.step1.toggle.iter().map(|(m, _)| m.clone()).collect();
    doc.set_subtitle(&format!(
        "{} patterns per run · modules: {}",
        data.patterns,
        modules.join(", ")
    ));
    let saf_faults: usize = data
        .curves
        .iter()
        .filter(|c| c.model == "SAF")
        .map(|c| c.faults)
        .sum();
    doc.add_section(
        "Overview",
        report::stat_tiles(&[
            ("BIST patterns".into(), data.patterns.to_string()),
            ("modules".into(), modules.len().to_string()),
            ("stuck-at faults".into(), saf_faults.to_string()),
            (
                "statement coverage".into(),
                format!("{:.1}%", data.step1.statement_coverage),
            ),
            (
                "mean toggle".into(),
                format!("{:.1}%", data.step1.mean_toggle_percent()),
            ),
            (
                "session".into(),
                if data.session.all_passed() {
                    "passed".to_owned()
                } else {
                    format!("{} quarantined", data.session.quarantined().len())
                },
            ),
        ]),
    );
    doc.add_section("Coverage curves", coverage_section(data));
    doc.add_section("Toggle heatmap", toggle_section(data));
    doc.add_section("Diagnosis", diagnosis_section(data));
    doc.add_section("Feedback advisor", advisor_section(data));
    if let Some(pilot) = &data.autopilot {
        doc.add_section("Autopilot", autopilot_section(pilot));
    }
    if let Some(fleet) = &data.fleet {
        doc.add_section("Fleet", fleet_section(fleet));
    }
    if let Some(obs) = &data.observatory {
        doc.add_section("Observatory", observatory_section(obs));
    }
    if let Some(health) = &data.health {
        doc.add_section("Health", health_section(health));
    }
    doc.add_section("Session timeline", timeline_section(data));
    doc.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn planted_case() -> (CaseStudy, CaseStudy) {
        let reference = CaseStudy::small().unwrap();
        let mut dut = CaseStudy::small().unwrap();
        let victim = dut.modules()[2].primary_outputs()[0];
        dut.module_mut(2).force_constant(victim, true);
        (reference, dut)
    }

    #[test]
    fn campaign_report_is_self_contained_and_names_the_defect() {
        let (reference, dut) = planted_case();
        let mut budget = Budget::quick();
        budget.bist_patterns = 64;
        budget.diag_patterns = 32;
        let data = run_campaign(&reference, &dut, &budget).unwrap();

        // The curve endpoint equals coverage_percent exactly, per campaign.
        for c in &data.curves {
            assert_eq!(
                c.curve.final_percent().to_bits(),
                c.coverage_percent.to_bits(),
                "{} {}",
                c.module,
                c.model
            );
        }
        assert_eq!(data.curves.len(), 6, "3 modules × 2 models");
        assert!(!data.session.all_passed());

        // The advisor names the quarantined CONTROL_UNIT with a strategy.
        let cu = data
            .advice
            .iter()
            .find(|a| a.module == "CONTROL_UNIT")
            .expect("advice for the planted defect");
        assert!(!cu.strategy.is_empty());

        let html = render_report(&data);
        assert!(report::is_self_contained(&html), "external reference found");
        for m in ["BIT_NODE", "CHECK_NODE", "CONTROL_UNIT"] {
            assert!(html.contains(m), "missing module scope {m}");
        }
        // The final-coverage cell carries the same {:.1} figure the text
        // tables print.
        let saf0 = &data.curves[0];
        assert!(html.contains(&format!(
            "data-module=\"{}\" data-model=\"SAF\">{:.1}%",
            saf0.module, saf0.coverage_percent
        )));
        // Timeline reconstructed from JSONL: session events present.
        assert!(html.contains("SessionStart"));
        assert!(html.contains("Quarantine"));
    }

    #[test]
    fn healthy_dut_yields_fewer_findings() {
        let reference = CaseStudy::small().unwrap();
        let dut = CaseStudy::small().unwrap();
        let mut budget = Budget::quick();
        budget.bist_patterns = 64;
        budget.diag_patterns = 32;
        let data = run_campaign(&reference, &dut, &budget).unwrap();
        assert!(data.session.all_passed());
        assert!(data.advice.iter().all(|a| a.module != "CONTROL_UNIT"
            || a.strategy != analyze::strategy::REDESIGN_CONSTRAINT_GENERATOR
            || !a.reason.contains("quarantined")));
        let html = render_report(&data);
        assert!(report::is_self_contained(&html));
        assert!(html.contains("Feedback advisor"));
        // No autopilot flown → no autopilot section.
        assert!(!html.contains("Autopilot"));
    }

    #[test]
    fn attached_autopilot_run_renders_its_own_section() {
        use crate::autopilot::{Autopilot, AutopilotConfig};

        let reference = CaseStudy::small().unwrap();
        let dut = CaseStudy::small().unwrap();
        let mut budget = Budget::quick();
        budget.bist_patterns = 64;
        budget.diag_patterns = 32;
        let mut data = run_campaign(&reference, &dut, &budget).unwrap();
        let pilot = Autopilot::new(AutopilotConfig {
            target_percent: 5.0,
            start_patterns: 16,
            max_patterns: 32,
            max_rounds: 2,
            screen_patterns: 32,
            ..Default::default()
        })
        .unwrap();
        data.autopilot = Some(pilot.run(&reference, &dut).unwrap());

        let html = render_report(&data);
        assert!(report::is_self_contained(&html));
        assert!(html.contains("Autopilot"));
        // The decision trail is greppable straight out of the HTML.
        assert!(html.contains("AutopilotDecision"));
        assert!(html.contains("AutopilotVerdict"));
        assert!(html.contains("Converged"));
        // Every round row made it into the decision table.
        assert!(html.contains("verdict: Converged"));
    }

    #[test]
    fn attached_fleet_run_renders_its_own_section() {
        use crate::fleet::{Fleet, FleetConfig};

        let (reference, dut) = planted_case();
        let mut budget = Budget::quick();
        budget.bist_patterns = 64;
        budget.diag_patterns = 32;
        let mut data = run_campaign(&reference, &dut, &budget).unwrap();
        // No fleet flown → no fleet section.
        let html = render_report(&data);
        assert!(!html.contains(">Fleet<"));

        let mut cfg = FleetConfig::new(200, 9);
        cfg.workers = 1;
        let fleet = Fleet::new(&reference, cfg).unwrap();
        data.fleet = Some(fleet.run().report);
        let html = render_report(&data);
        assert!(report::is_self_contained(&html));
        assert!(html.contains(">Fleet<"));
        assert!(html.contains("Yield per batch"));
        assert!(html.contains("stuck_at"));
        assert!(html.contains("escape rate"));
    }

    #[test]
    fn attached_health_record_renders_charts_and_excursions() {
        use crate::fleet::{DriftSpec, Fleet, FleetConfig};
        use crate::health::HealthConfig;

        let (reference, dut) = planted_case();
        let mut budget = Budget::quick();
        budget.bist_patterns = 64;
        budget.diag_patterns = 32;
        let mut data = run_campaign(&reference, &dut, &budget).unwrap();
        // No monitor armed → no Health section.
        assert!(!render_report(&data).contains(">Health<"));

        // A drifted monitored flight: 3× defect rate from batch 15 on.
        let mut cfg = FleetConfig::new(1200, 42);
        cfg.workers = 1;
        cfg.batch = 60;
        cfg.inject_drift = Some(DriftSpec {
            batch: 15,
            mix: crate::fleet::DefectMix {
                defect_rate: 0.20,
                ..Default::default()
            },
        });
        let fleet = Fleet::new(&reference, cfg)
            .unwrap()
            .with_monitor(HealthConfig::default());
        let outcome = fleet.run();
        let health = outcome.health.expect("monitor armed");
        assert!(!health.in_control(), "drift must be flagged");
        data.health = Some(health);

        let html = render_report(&data);
        assert!(report::is_self_contained(&html));
        assert!(html.contains(">Health<"));
        assert!(html.contains("Yield control chart"));
        assert!(html.contains("Recovered-rate control chart"));
        assert!(html.contains("Excursions"));
        assert!(html.contains("excursion(s)"));
    }

    #[test]
    fn in_control_health_record_renders_quiet_verdict() {
        use crate::fleet::{Fleet, FleetConfig};
        use crate::health::HealthConfig;

        let (reference, dut) = planted_case();
        let mut budget = Budget::quick();
        budget.bist_patterns = 64;
        budget.diag_patterns = 32;
        let mut data = run_campaign(&reference, &dut, &budget).unwrap();
        let mut cfg = FleetConfig::new(600, 42);
        cfg.workers = 1;
        cfg.batch = 30;
        let fleet = Fleet::new(&reference, cfg)
            .unwrap()
            .with_monitor(HealthConfig::default());
        let outcome = fleet.run();
        let health = outcome.health.expect("monitor armed");
        assert!(health.in_control(), "clean run must stay quiet");
        data.health = Some(health);
        let html = render_report(&data);
        assert!(report::is_self_contained(&html));
        assert!(html.contains("in control"));
        assert!(html.contains("No excursion"));
    }

    #[test]
    fn attached_observatory_renders_phases_traces_and_throughput() {
        use crate::fleet::{Fleet, FleetConfig};
        use soctest_obs::{ProfileHandle, SamplerPolicy};

        let (reference, dut) = planted_case();
        let mut budget = Budget::quick();
        budget.bist_patterns = 64;
        budget.diag_patterns = 32;
        let mut data = run_campaign(&reference, &dut, &budget).unwrap();
        // No observatory attached → no section.
        assert!(!render_report(&data).contains(">Observatory<"));

        let mut cfg = FleetConfig::new(150, 9);
        cfg.workers = 1;
        let fleet = Fleet::new_profiled(&reference, cfg, ProfileHandle::enabled())
            .unwrap()
            .with_trace_sampling(SamplerPolicy::new(25, 1), 8);
        let outcome = fleet.run();
        assert!(!outcome.traces.is_empty());
        data.observatory = Some(ObservatoryData {
            profiler: fleet.profile().snapshot(),
            traces: outcome.traces.clone(),
            batch_walls: outcome.batch_walls.clone(),
            trace_dropped_events: outcome.trace_dropped_events(),
        });

        let html = render_report(&data);
        assert!(report::is_self_contained(&html));
        assert!(html.contains(">Observatory<"));
        assert!(html.contains("Phase attribution"));
        // The profiled fleet's phases.
        for phase in ["cache_build", "simulate"] {
            assert!(html.contains(phase), "missing phase {phase}");
        }
        assert!(html.contains("Sampled die"));
        assert!(html.contains("Die throughput per batch"));
        // An 8-slot ring overflows a full session → the warning line.
        assert!(outcome.trace_dropped_events() > 0);
        assert!(html.contains("trace rings dropped"));
    }
}
