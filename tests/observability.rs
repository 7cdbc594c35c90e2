//! Observability integration tests: one fault-tolerant session against a
//! planted stuck-at defect must yield all three artifacts — a JSON-Lines
//! event trace telling the watchdog/retry/quarantine story, a Prometheus
//! metrics snapshot, and a loadable VCD waveform — plus a golden-trace
//! snapshot that pins the session-level event sequence.

use std::sync::Arc;

use soctest::core::casestudy::CaseStudy;
use soctest::core::robust::RobustSession;
use soctest::obs::json::{self, JsonValue};
use soctest::obs::{
    FieldValue, MetricsHandle, MetricsRegistry, MetricsSnapshot, TraceEvent, TraceHandle,
    TraceRecord, Tracer, VcdReader,
};

fn defective_dut() -> (CaseStudy, CaseStudy) {
    let reference = CaseStudy::paper().unwrap();
    let mut dut = CaseStudy::paper().unwrap();
    let victim = dut.modules()[2].primary_outputs()[0];
    dut.module_mut(2).force_constant(victim, true);
    (reference, dut)
}

/// The headline acceptance test: one robust session against a stuck-at
/// fault produces a JSONL trace with the watchdog/retry/quarantine
/// sequence, a Prometheus metrics snapshot that round-trips through the
/// in-tree parser, and a loadable VCD — all from the same run.
#[test]
fn one_session_yields_trace_metrics_and_waveform() {
    let (reference, dut) = defective_dut();

    let trace = TraceHandle::new(Tracer::default());
    let registry = Arc::new(MetricsRegistry::new());

    let session = RobustSession::default()
        .with_trace(trace.clone())
        .with_metrics(MetricsHandle::from_arc(Arc::clone(&registry)))
        .with_vcd(true);
    let report = session.run(&reference, &dut, 64).unwrap();
    assert_eq!(report.quarantined(), vec!["CONTROL_UNIT"]);

    // --- JSONL trace: every line parses back to its typed record, and
    // the story reads in order.
    let (records, text): (Vec<TraceRecord>, String) = trace
        .with(|t| (t.records().copied().collect(), t.to_jsonl()))
        .unwrap();
    assert_eq!(text.lines().count(), records.len());
    let mut names = Vec::new();
    for (line, rec) in text.lines().zip(&records) {
        let v = json::parse(line).unwrap_or_else(|e| panic!("bad trace line {line:?}: {e}"));
        assert_round_trip(&v, rec);
        names.push(v.get("event").and_then(|e| e.as_str()).unwrap().to_owned());
    }
    let first = |name: &str| {
        names
            .iter()
            .position(|n| n == name)
            .unwrap_or_else(|| panic!("trace must contain {name}"))
    };
    assert_eq!(first("SessionStart"), 0, "the session announces itself");
    let attempt = first("AttemptResult");
    let escalation = first("RetryEscalation");
    let quarantine = first("Quarantine");
    assert!(
        attempt < escalation && escalation < quarantine,
        "attempt → escalation → quarantine, got {attempt}/{escalation}/{quarantine}"
    );
    assert!(names.iter().any(|n| n == "WatchdogCheck"));
    assert!(names.iter().any(|n| n == "ModuleCleared"));
    assert!(names.iter().any(|n| n == "TapStateChange"));
    assert!(names.iter().any(|n| n == "WirLoad"));
    assert!(names.iter().any(|n| n == "MisrSnapshot"));

    // --- Metrics: exposition round-trips and records the verdict.
    let snap = registry.snapshot();
    let parsed = MetricsSnapshot::parse_prometheus(&snap.to_prometheus()).unwrap();
    assert_eq!(parsed.counters, snap.counters);
    assert_eq!(parsed.counters.get("session_quarantines_total"), Some(&1));
    assert_eq!(
        parsed.counters.get("session_tck_total"),
        Some(&report.tck_spent)
    );
    assert!(parsed.counters.get("wir_loads_total").copied().unwrap_or(0) > 0);

    // --- Waveform: loads, and carries every module's ports.
    let vcd = report.vcd.as_deref().unwrap();
    let reader = VcdReader::parse(vcd).unwrap();
    for (m, module) in dut.modules().iter().enumerate() {
        let port = module.ports()[0].name();
        assert!(
            reader
                .value_at(&format!("m{m}_{}.{port}", module.name()), 0)
                .is_some(),
            "module {m} is in the waveform"
        );
    }
}

/// One parsed trace line holds exactly its typed record: `seq`, `cycle`,
/// `event` and every field, with `depth` fixed at 0. The record's tooltip
/// detail equals the `key=value` string the report once rebuilt from the
/// parsed line: keys sorted, integral numbers as integers, strings
/// unquoted.
fn assert_round_trip(v: &JsonValue, rec: &TraceRecord) {
    let JsonValue::Object(map) = v else {
        panic!("trace line is not an object: {v:?}");
    };
    assert_eq!(v.get("seq").and_then(JsonValue::as_u64), Some(rec.seq));
    assert_eq!(v.get("cycle").and_then(JsonValue::as_u64), Some(rec.cycle));
    assert_eq!(v.get("depth").and_then(JsonValue::as_u64), Some(0));
    assert_eq!(
        v.get("event").and_then(JsonValue::as_str),
        Some(rec.event.name())
    );
    let fields = rec.event.fields();
    assert_eq!(map.len(), 4 + fields.len(), "no key beyond the record's");
    for (k, f) in fields {
        let got = v.get(k);
        match f {
            FieldValue::U64(n) => assert_eq!(got.and_then(JsonValue::as_u64), Some(n), "{k}"),
            FieldValue::Bool(b) => assert_eq!(got.and_then(JsonValue::as_bool), Some(b), "{k}"),
            FieldValue::Str(s) => assert_eq!(got.and_then(JsonValue::as_str), Some(s), "{k}"),
        }
    }
    let detail: Vec<String> = map
        .iter()
        .filter(|(k, _)| !matches!(k.as_str(), "seq" | "cycle" | "depth" | "event"))
        .map(|(k, v)| match v {
            JsonValue::Number(n) if n.fract() == 0.0 && n.abs() < 9e15 => {
                format!("{k}={}", *n as i64)
            }
            JsonValue::String(s) => format!("{k}={s}"),
            JsonValue::Bool(b) => format!("{k}={b}"),
            other => panic!("{k} is not an integer, string or bool: {other:?}"),
        })
        .collect();
    assert_eq!(rec.event.detail(), detail.join(" "));
}

fn session_level(event: &TraceEvent) -> bool {
    matches!(
        event,
        TraceEvent::SessionStart { .. }
            | TraceEvent::AttemptResult { .. }
            | TraceEvent::RetryEscalation { .. }
            | TraceEvent::WatchdogCheck { .. }
            | TraceEvent::WatchdogFired { .. }
            | TraceEvent::Quarantine { .. }
            | TraceEvent::ModuleCleared { .. }
    )
}

/// Golden snapshot: the session-level JSONL trace of a short defective run
/// is pinned byte for byte. Regenerate with
/// `UPDATE_GOLDEN=1 cargo test --test observability`.
#[test]
fn golden_session_trace_snapshot() {
    let (reference, dut) = defective_dut();

    let mut tracer = Tracer::default();
    tracer.set_filter(session_level);
    let trace = TraceHandle::new(tracer);

    let session = RobustSession::default().with_trace(trace.clone());
    let report = session.run(&reference, &dut, 64).unwrap();
    assert_eq!(report.quarantined(), vec!["CONTROL_UNIT"]);

    let actual = trace.with(|t| t.to_jsonl()).unwrap();

    let golden_path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden_trace.jsonl");
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(golden_path, &actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(golden_path)
        .expect("tests/golden_trace.jsonl exists (run with UPDATE_GOLDEN=1 to create)");
    assert_eq!(
        actual, expected,
        "session-level trace drifted; run UPDATE_GOLDEN=1 cargo test --test observability \
         and review the diff"
    );
}

/// A session run without any handles attached stays silent and free: no
/// trace, no metrics, no waveform.
#[test]
fn undashed_session_is_silent() {
    let (reference, dut) = defective_dut();
    let report = RobustSession::default().run(&reference, &dut, 64).unwrap();
    assert!(report.vcd.is_none());
    assert_eq!(report.quarantined(), vec!["CONTROL_UNIT"]);
}
