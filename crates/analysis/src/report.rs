//! Analysis reports: every finding of one analyzer run, with text and
//! machine-readable renderings.

use std::collections::BTreeMap;
use std::fmt;

use serde::{Serialize, Value};

use crate::diagnostics::{Diagnostic, Severity};

/// The result of running an [`Analyzer`](crate::lint::Analyzer): all
/// diagnostics collected across all lints, in emission order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AnalysisReport {
    /// Collected findings (severity [`Severity::Allow`] is filtered at
    /// emission time and never appears here).
    pub diagnostics: Vec<Diagnostic>,
}

impl AnalysisReport {
    /// A report with no findings.
    pub fn new() -> Self {
        Self::default()
    }

    /// `true` when nothing was reported.
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// `true` when at least one [`Severity::Deny`] finding exists.
    pub fn has_denials(&self) -> bool {
        self.diagnostics
            .iter()
            .any(|d| d.severity == Severity::Deny)
    }

    /// Number of findings at the given severity.
    pub fn count(&self, severity: Severity) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == severity)
            .count()
    }

    /// Findings emitted under one lint id.
    pub fn by_lint(&self, lint: &str) -> Vec<&Diagnostic> {
        self.diagnostics.iter().filter(|d| d.lint == lint).collect()
    }

    /// Appends all findings of another report.
    pub fn merge(&mut self, other: AnalysisReport) {
        self.diagnostics.extend(other.diagnostics);
    }

    /// Sorts the findings into canonical order: structural [`OpPath`]
    /// (module-level findings last), then lint id, then message.
    ///
    /// [`Analyzer::run`](crate::lint::Analyzer::run) normalizes every
    /// report it produces, so renderings — in particular
    /// [`AnalysisReport::to_json`], which the CI analysis gate diffs —
    /// are byte-stable regardless of lint registration or walk order.
    ///
    /// [`OpPath`]: everest_ir::location::OpPath
    pub fn normalize(&mut self) {
        // Paths compare step by step in place: sorting builds nothing.
        fn steps(d: &Diagnostic) -> impl Iterator<Item = (usize, usize, usize)> + '_ {
            d.path
                .iter()
                .flat_map(|p| &p.steps)
                .map(|s| (s.region, s.block, s.position))
        }
        self.diagnostics.sort_by(|a, b| {
            (a.path.is_none())
                .cmp(&b.path.is_none())
                .then_with(|| steps(a).cmp(steps(b)))
                .then_with(|| a.lint.cmp(&b.lint))
                .then_with(|| a.message.cmp(&b.message))
        });
    }

    /// Renders the human-readable report, one finding per line plus a
    /// trailing summary line.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        for d in &self.diagnostics {
            out.push_str(&d.to_string());
            out.push('\n');
        }
        out.push_str(&format!(
            "analysis: {} finding(s), {} deny, {} warn\n",
            self.diagnostics.len(),
            self.count(Severity::Deny),
            self.count(Severity::Warn)
        ));
        out
    }

    /// Renders a machine-readable JSON summary:
    /// `{"total":N,"deny":N,"warn":N,"lints":{"<id>":count,...}}`, lint
    /// ids in ascending order, written compact by `serde_json`.
    pub fn summary_json(&self) -> String {
        serde_json::to_string(&Value::Object(self.summary()))
            .expect("a Value tree always serializes")
    }

    /// Renders the full machine-readable document: the
    /// [`AnalysisReport::summary_json`] members plus `diagnostics`, one
    /// `{"lint","severity","op","path","message"}` object per finding
    /// (`null` for a missing op or path), written compact by
    /// `serde_json`.
    ///
    /// Byte-stable for a normalized report (the CI analysis gate diffs
    /// this output against checked-in expectations).
    pub fn to_json(&self) -> String {
        let diagnostics = self.diagnostics.iter().map(|d| {
            Value::Object(vec![
                ("lint".into(), d.lint.to_value()),
                ("severity".into(), Value::Str(d.severity.to_string())),
                ("op".into(), d.op.to_value()),
                (
                    "path".into(),
                    d.path.as_ref().map(ToString::to_string).to_value(),
                ),
                ("message".into(), d.message.to_value()),
            ])
        });
        let mut members = self.summary();
        members.push(("diagnostics".into(), Value::Array(diagnostics.collect())));
        serde_json::to_string(&Value::Object(members)).expect("a Value tree always serializes")
    }

    /// The summary members: finding counts, then one count per lint id.
    fn summary(&self) -> Vec<(String, Value)> {
        let mut per_lint: BTreeMap<&str, usize> = BTreeMap::new();
        for d in &self.diagnostics {
            *per_lint.entry(d.lint.as_str()).or_insert(0) += 1;
        }
        let lints = per_lint
            .into_iter()
            .map(|(id, n)| (id.to_string(), n.to_value()));
        vec![
            ("total".into(), self.diagnostics.len().to_value()),
            ("deny".into(), self.count(Severity::Deny).to_value()),
            ("warn".into(), self.count(Severity::Warn).to_value()),
            ("lints".into(), Value::Object(lints.collect())),
        ]
    }
}

impl fmt::Display for AnalysisReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_text())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diag(lint: &str, severity: Severity) -> Diagnostic {
        Diagnostic {
            lint: lint.into(),
            severity,
            op: None,
            path: None,
            message: "m".into(),
        }
    }

    #[test]
    fn empty_report_is_clean() {
        let r = AnalysisReport::new();
        assert!(r.is_clean());
        assert!(!r.has_denials());
        assert_eq!(
            r.summary_json(),
            "{\"total\":0,\"deny\":0,\"warn\":0,\"lints\":{}}"
        );
    }

    #[test]
    fn counts_and_denials() {
        let r = AnalysisReport {
            diagnostics: vec![
                diag("a", Severity::Warn),
                diag("a", Severity::Deny),
                diag("b", Severity::Warn),
            ],
        };
        assert!(!r.is_clean());
        assert!(r.has_denials());
        assert_eq!(r.count(Severity::Warn), 2);
        assert_eq!(r.by_lint("a").len(), 2);
        assert_eq!(
            r.summary_json(),
            "{\"total\":3,\"deny\":1,\"warn\":2,\"lints\":{\"a\":2,\"b\":1}}"
        );
        assert!(r.to_text().contains("3 finding(s), 1 deny, 2 warn"));
    }

    #[test]
    fn normalize_orders_by_path_then_lint_then_message() {
        use everest_ir::location::{OpPath, PathStep};
        let step = |position: usize| PathStep {
            region: 0,
            block: 0,
            position,
            op_name: "op".into(),
        };
        let mut r = AnalysisReport {
            diagnostics: vec![
                diag("module-level", Severity::Warn),
                Diagnostic {
                    lint: "b".into(),
                    severity: Severity::Warn,
                    op: Some("x".into()),
                    path: Some(OpPath {
                        steps: vec![step(2)],
                    }),
                    message: "later op".into(),
                },
                Diagnostic {
                    lint: "z".into(),
                    severity: Severity::Warn,
                    op: Some("x".into()),
                    path: Some(OpPath {
                        steps: vec![step(1)],
                    }),
                    message: "earlier op".into(),
                },
                Diagnostic {
                    lint: "a".into(),
                    severity: Severity::Warn,
                    op: Some("x".into()),
                    path: Some(OpPath {
                        steps: vec![step(2)],
                    }),
                    message: "same op, earlier lint".into(),
                },
            ],
        };
        r.normalize();
        let lints: Vec<&str> = r.diagnostics.iter().map(|d| d.lint.as_str()).collect();
        // Program order first, lint id within one op, module-level last.
        assert_eq!(lints, vec!["z", "a", "b", "module-level"]);
    }

    #[test]
    fn full_json_includes_diagnostics_and_escapes_messages() {
        let mut r = AnalysisReport {
            diagnostics: vec![Diagnostic {
                lint: "a".into(),
                severity: Severity::Deny,
                op: Some("arith.addf".into()),
                path: None,
                message: "quote \" and\nnewline".into(),
            }],
        };
        r.normalize();
        assert_eq!(
            r.to_json(),
            concat!(
                r#"{"total":1,"deny":1,"warn":0,"lints":{"a":1},"diagnostics":["#,
                r#"{"lint":"a","severity":"deny","op":"arith.addf","path":null,"#,
                r#""message":"quote \" and\nnewline"}]}"#,
            )
        );
    }

    #[test]
    fn merge_concatenates() {
        let mut r = AnalysisReport {
            diagnostics: vec![diag("a", Severity::Warn)],
        };
        r.merge(AnalysisReport {
            diagnostics: vec![diag("b", Severity::Deny)],
        });
        assert_eq!(r.diagnostics.len(), 2);
    }
}
