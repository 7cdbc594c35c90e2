//! The typed event taxonomy shared by every instrumented layer.
//!
//! Events are deliberately *flat and `Copy`*: every field is a scalar or a
//! `&'static str`, so constructing one allocates nothing and a disabled
//! [`crate::TraceHandle`] reduces the whole instrumentation point to a null
//! check. Renderers that need structure (the JSON Lines of
//! [`TraceRecord::to_json_line`], the `key=value` tooltips of
//! [`TraceEvent::detail`]) reflect over [`TraceEvent::fields`] instead of
//! matching every variant themselves.

/// One scalar field value of an event, for renderer-side reflection.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FieldValue {
    /// Unsigned integer.
    U64(u64),
    /// Boolean.
    Bool(bool),
    /// Static string (state names, strategy names, …).
    Str(&'static str),
}

impl FieldValue {
    /// Renders the value as a JSON token.
    pub fn to_json(self) -> String {
        match self {
            FieldValue::U64(v) => v.to_string(),
            FieldValue::Bool(b) => b.to_string(),
            FieldValue::Str(s) => format!("\"{s}\""),
        }
    }
}

/// A typed, cycle-stamped observation from somewhere in the test stack.
///
/// The variants mirror the layers of the architecture: TAP pin activity at
/// the bottom, wrapper and BIST engine events in the middle, session-level
/// decisions (retries, watchdogs, quarantine) and fault-simulation
/// scheduling at the top.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEvent {
    /// The TAP FSM moved on a TCK edge.
    TapStateChange {
        /// State before the edge.
        from: &'static str,
        /// State after the edge.
        to: &'static str,
        /// TMS value sampled on the edge.
        tms: bool,
        /// TDO value returned on the edge.
        tdo: bool,
    },
    /// A TAP instruction finished loading (Update-IR).
    TapIrLoad {
        /// The instruction now in effect.
        instruction: &'static str,
    },
    /// A wrapper instruction was scanned into the WIR.
    WirLoad {
        /// The wrapper register now selected.
        instruction: &'static str,
    },
    /// The WDR was read: `end_test` flag plus the selected signature.
    WdrCapture {
        /// The `end_test` status bit.
        done: bool,
        /// The signature shifted out.
        signature: u64,
    },
    /// A BIST command reached the engine.
    BistCommand {
        /// Command mnemonic.
        kind: &'static str,
        /// Operand (pattern count, result index; 0 when unused).
        operand: u64,
    },
    /// A MISR signature was observed at a read boundary.
    MisrSnapshot {
        /// Module index (hookup order).
        module: u8,
        /// The signature value.
        signature: u64,
    },
    /// A robust session started.
    SessionStart {
        /// Patterns per execution.
        patterns: u64,
        /// Modules under test.
        modules: u8,
    },
    /// One module's attempt under one retry rung completed.
    AttemptResult {
        /// Module index.
        module: u8,
        /// Retry-strategy name.
        strategy: &'static str,
        /// Rehearsed fault-free signature.
        golden: u64,
        /// Signature read from the DUT.
        signature: u64,
        /// Whether they agreed.
        matched: bool,
    },
    /// A mismatching module escalates to the next retry rung.
    RetryEscalation {
        /// Module index.
        module: u8,
        /// The strategy that just failed to clear the module.
        strategy: &'static str,
    },
    /// The TCK watchdog was consulted (and passed).
    WatchdogCheck {
        /// TCK cycles spent so far.
        spent: u64,
        /// The session budget.
        budget: u64,
    },
    /// A watchdog tripped: the session aborts with a typed error.
    WatchdogFired {
        /// Cycles spent when it fired.
        spent: u64,
        /// The budget that was exceeded.
        budget: u64,
    },
    /// A module exhausted the ladder and was quarantined.
    Quarantine {
        /// Module index.
        module: u8,
    },
    /// A module matched its rehearsal and left the retry set.
    ModuleCleared {
        /// Module index.
        module: u8,
    },
    /// The autopilot opened a closed-loop coverage session.
    AutopilotStart {
        /// Modules under control.
        modules: u8,
        /// Coverage target in basis points (percent × 100).
        target_bp: u64,
    },
    /// One autopilot round: the lever it pulled and the coverage it saw.
    AutopilotDecision {
        /// Module index (hookup order).
        module: u8,
        /// Round number (1-based).
        round: u64,
        /// Lever name (`obs::analyze::strategy` vocabulary).
        lever: &'static str,
        /// Coverage after the round, in basis points.
        coverage_bp: u64,
        /// Patterns configured for the round.
        patterns: u64,
    },
    /// A lever failed to raise coverage twice and was demoted.
    AutopilotLeverDemoted {
        /// Module index.
        module: u8,
        /// The demoted lever.
        lever: &'static str,
    },
    /// The autopilot reached a terminal verdict for a module.
    AutopilotVerdict {
        /// Module index.
        module: u8,
        /// Verdict name (`Converged`, `Stalled`, …).
        verdict: &'static str,
        /// Rounds the module consumed.
        rounds: u64,
        /// Final coverage in basis points.
        coverage_bp: u64,
    },
}

impl TraceEvent {
    /// The event's type name (stable; used as the JSON `event` field).
    pub fn name(&self) -> &'static str {
        match self {
            TraceEvent::TapStateChange { .. } => "TapStateChange",
            TraceEvent::TapIrLoad { .. } => "TapIrLoad",
            TraceEvent::WirLoad { .. } => "WirLoad",
            TraceEvent::WdrCapture { .. } => "WdrCapture",
            TraceEvent::BistCommand { .. } => "BistCommand",
            TraceEvent::MisrSnapshot { .. } => "MisrSnapshot",
            TraceEvent::SessionStart { .. } => "SessionStart",
            TraceEvent::AttemptResult { .. } => "AttemptResult",
            TraceEvent::RetryEscalation { .. } => "RetryEscalation",
            TraceEvent::WatchdogCheck { .. } => "WatchdogCheck",
            TraceEvent::WatchdogFired { .. } => "WatchdogFired",
            TraceEvent::Quarantine { .. } => "Quarantine",
            TraceEvent::ModuleCleared { .. } => "ModuleCleared",
            TraceEvent::AutopilotStart { .. } => "AutopilotStart",
            TraceEvent::AutopilotDecision { .. } => "AutopilotDecision",
            TraceEvent::AutopilotLeverDemoted { .. } => "AutopilotLeverDemoted",
            TraceEvent::AutopilotVerdict { .. } => "AutopilotVerdict",
        }
    }

    /// The event's fields as `(name, value)` pairs, in declaration order.
    pub fn fields(&self) -> Vec<(&'static str, FieldValue)> {
        use FieldValue::{Bool, Str, U64};
        match *self {
            TraceEvent::TapStateChange { from, to, tms, tdo } => vec![
                ("from", Str(from)),
                ("to", Str(to)),
                ("tms", Bool(tms)),
                ("tdo", Bool(tdo)),
            ],
            TraceEvent::TapIrLoad { instruction } | TraceEvent::WirLoad { instruction } => {
                vec![("instruction", Str(instruction))]
            }
            TraceEvent::WdrCapture { done, signature } => {
                vec![("done", Bool(done)), ("signature", U64(signature))]
            }
            TraceEvent::BistCommand { kind, operand } => {
                vec![("kind", Str(kind)), ("operand", U64(operand))]
            }
            TraceEvent::MisrSnapshot { module, signature } => vec![
                ("module", U64(module.into())),
                ("signature", U64(signature)),
            ],
            TraceEvent::SessionStart { patterns, modules } => vec![
                ("patterns", U64(patterns)),
                ("modules", U64(modules.into())),
            ],
            TraceEvent::AttemptResult {
                module,
                strategy,
                golden,
                signature,
                matched,
            } => vec![
                ("module", U64(module.into())),
                ("strategy", Str(strategy)),
                ("golden", U64(golden)),
                ("signature", U64(signature)),
                ("matched", Bool(matched)),
            ],
            TraceEvent::RetryEscalation { module, strategy } => {
                vec![("module", U64(module.into())), ("strategy", Str(strategy))]
            }
            TraceEvent::WatchdogCheck { spent, budget }
            | TraceEvent::WatchdogFired { spent, budget } => {
                vec![("spent", U64(spent)), ("budget", U64(budget))]
            }
            TraceEvent::Quarantine { module } | TraceEvent::ModuleCleared { module } => {
                vec![("module", U64(module.into()))]
            }
            TraceEvent::AutopilotStart { modules, target_bp } => vec![
                ("modules", U64(modules.into())),
                ("target_bp", U64(target_bp)),
            ],
            TraceEvent::AutopilotDecision {
                module,
                round,
                lever,
                coverage_bp,
                patterns,
            } => vec![
                ("module", U64(module.into())),
                ("round", U64(round)),
                ("lever", Str(lever)),
                ("coverage_bp", U64(coverage_bp)),
                ("patterns", U64(patterns)),
            ],
            TraceEvent::AutopilotLeverDemoted { module, lever } => {
                vec![("module", U64(module.into())), ("lever", Str(lever))]
            }
            TraceEvent::AutopilotVerdict {
                module,
                verdict,
                rounds,
                coverage_bp,
            } => vec![
                ("module", U64(module.into())),
                ("verdict", Str(verdict)),
                ("rounds", U64(rounds)),
                ("coverage_bp", U64(coverage_bp)),
            ],
        }
    }

    /// The event's fields as one tooltip line: `key=value` pairs sorted
    /// by key, strings unquoted (`module=2 strategy=Rerun`).
    pub fn detail(&self) -> String {
        let mut fields = self.fields();
        fields.sort_unstable_by_key(|&(k, _)| k);
        let pairs: Vec<String> = fields
            .into_iter()
            .map(|(k, v)| match v {
                FieldValue::Str(s) => format!("{k}={s}"),
                v => format!("{k}={}", v.to_json()),
            })
            .collect();
        pairs.join(" ")
    }
}

/// One entry of a trace: a sequence number (monotonic per tracer), the
/// hardware cycle the event was stamped with (TCK, functional, or simulator
/// cycle — whichever clock the emitting layer runs on), and the event
/// itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceRecord {
    /// Monotonic per-tracer sequence number.
    pub seq: u64,
    /// Cycle stamp in the emitting layer's clock domain.
    pub cycle: u64,
    /// The event.
    pub event: TraceEvent,
}

impl TraceRecord {
    /// Renders the record as one JSON-Lines object.
    pub fn to_json_line(&self) -> String {
        // `depth` is always 0; the key stays so every trace file
        // (tests/golden_trace.jsonl among them) keeps its bytes.
        let mut s = format!(
            "{{\"seq\":{},\"cycle\":{},\"depth\":0,\"event\":\"{}\"",
            self.seq,
            self.cycle,
            self.event.name()
        );
        for (k, v) in self.event.fields() {
            s.push_str(&format!(",\"{k}\":{}", v.to_json()));
        }
        s.push('}');
        s
    }
}

/// Renders records as JSON Lines, in the order given: one
/// [`TraceRecord::to_json_line`] per record, each ending in a newline.
pub fn to_jsonl<'a>(records: impl IntoIterator<Item = &'a TraceRecord>) -> String {
    let mut out = String::new();
    for r in records {
        out.push_str(&r.to_json_line());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_event_has_a_name_and_fields() {
        let events = [
            TraceEvent::TapStateChange {
                from: "RunTestIdle",
                to: "SelectDrScan",
                tms: true,
                tdo: false,
            },
            TraceEvent::WdrCapture {
                done: true,
                signature: 0xBEEF,
            },
            TraceEvent::AutopilotDecision {
                module: 1,
                round: 2,
                lever: "reseed",
                coverage_bp: 3_660,
                patterns: 192,
            },
        ];
        for e in events {
            assert!(!e.name().is_empty());
            assert!(!e.fields().is_empty());
        }
    }

    #[test]
    fn json_line_shape() {
        let r = TraceRecord {
            seq: 7,
            cycle: 42,
            event: TraceEvent::Quarantine { module: 2 },
        };
        assert_eq!(
            r.to_json_line(),
            "{\"seq\":7,\"cycle\":42,\"depth\":0,\"event\":\"Quarantine\",\"module\":2}"
        );
    }
}
