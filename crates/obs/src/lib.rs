//! `soctest-obs` — the observability core for the soctest workspace.
//!
//! Three pillars, all zero-dependency:
//!
//! 1. **Structured tracing** ([`Tracer`], [`TraceHandle`], [`TraceEvent`]):
//!    typed, cycle-stamped events from every layer of the test stack (TAP
//!    pin edges, wrapper instruction loads, MISR snapshots, retry-ladder
//!    escalations, autopilot decisions), kept in the tracer's ring buffer
//!    — the trace's one store, read after the run as typed records or as
//!    JSON Lines ([`Tracer::to_jsonl`]). The default tracer keeps the whole
//!    stream; a bounded one keeps the newest records and counts the rest.
//!    Instrumentation points take a [`TraceHandle`]; the default handle is
//!    disabled and costs one null check.
//!
//! 2. **Unified metrics** ([`MetricsRegistry`], [`MetricsHandle`]):
//!    counters, gauges, and fixed log-2-bucket histograms behind one
//!    snapshot API with Prometheus-text exposition, replacing the
//!    per-crate ad-hoc accounting as the single aggregation point.
//!
//! 3. **Waveforms** ([`VcdWriter`], [`VcdReader`]): deterministic,
//!    change-only Value Change Dump export of simulator net values and
//!    BIST engine state, loadable in GTKWave, plus an in-tree reader for
//!    asserting on waveforms in tests.
//!
//! A minimal JSON parser ([`json::parse`]) rounds out the crate so CI can
//! validate every artifact the workspace emits without external tooling.
//!
//! On top of the three pillars sits the **campaign analytics layer**:
//! [`CoverageCurve`] turns first-detection indices into a
//! coverage-vs-patterns trajectory, [`analyze`] reduces toggle/syndrome
//! data and drives the feedback [`analyze::advise`] advisor, [`svg`]
//! renders zero-dependency inline charts, and [`HtmlReport`] assembles
//! them into one self-contained HTML document.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

pub mod analyze;
pub mod curve;
pub mod event;
pub mod health;
pub mod json;
pub mod metrics;
pub mod profile;
pub mod report;
pub mod svg;
pub mod tracer;
pub mod vcd;

pub use curve::{CoverageCurve, CurveSummary, MILESTONE_LADDER};
pub use event::{FieldValue, TraceEvent, TraceRecord};
pub use health::{Direction, SpcChart, SpcConfig, SpcExcursion, SpcPoint};
pub use metrics::{Histogram, MetricsHandle, MetricsRegistry, MetricsSnapshot};
pub use profile::{ProfileHandle, ProfileScope, Profiler, SamplerPolicy, TraceSampler};
pub use report::HtmlReport;
pub use tracer::{TraceHandle, Tracer};
pub use vcd::{VarId, VcdReader, VcdVar, VcdWriter};
