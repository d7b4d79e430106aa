//! Analysis reports: every finding of one analyzer run, with text and
//! machine-readable renderings.

use std::collections::BTreeMap;
use std::fmt;

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
    /// `{"total":N,"deny":N,"warn":N,"lints":{"<id>":count,...}}`.
    ///
    /// Hand-rolled (keys are controlled identifiers, counts are
    /// integers) so the crate stays dependency-light.
    pub fn summary_json(&self) -> String {
        let mut per_lint: BTreeMap<&str, usize> = BTreeMap::new();
        for d in &self.diagnostics {
            *per_lint.entry(d.lint.as_str()).or_insert(0) += 1;
        }
        let lints = per_lint
            .iter()
            .map(|(id, n)| format!("\"{id}\":{n}"))
            .collect::<Vec<_>>()
            .join(",");
        format!(
            "{{\"total\":{},\"deny\":{},\"warn\":{},\"lints\":{{{}}}}}",
            self.diagnostics.len(),
            self.count(Severity::Deny),
            self.count(Severity::Warn),
            lints
        )
    }

    /// Renders the full machine-readable document: the
    /// [`AnalysisReport::summary_json`] fields plus every diagnostic.
    ///
    /// Byte-stable for a normalized report (the CI analysis gate diffs
    /// this output against checked-in expectations). Hand-rolled like
    /// the summary; only `message` needs escaping since lint ids, op
    /// names and paths are controlled identifiers.
    pub fn to_json(&self) -> String {
        let diagnostics = self
            .diagnostics
            .iter()
            .map(|d| {
                let op = match &d.op {
                    Some(op) => format!("\"{}\"", json_escape(op)),
                    None => "null".to_string(),
                };
                let path = match &d.path {
                    Some(path) => format!("\"{}\"", json_escape(&path.to_string())),
                    None => "null".to_string(),
                };
                format!(
                    "{{\"lint\":\"{}\",\"severity\":\"{}\",\"op\":{op},\"path\":{path},\
                     \"message\":\"{}\"}}",
                    json_escape(&d.lint),
                    d.severity,
                    json_escape(&d.message)
                )
            })
            .collect::<Vec<_>>()
            .join(",");
        let summary = self.summary_json();
        let head = summary.strip_suffix('}').unwrap_or(&summary);
        format!("{head},\"diagnostics\":[{diagnostics}]}}")
    }
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
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
        let json = r.to_json();
        assert!(json.starts_with("{\"total\":1,\"deny\":1,\"warn\":0,"));
        assert!(json.contains("\"diagnostics\":[{\"lint\":\"a\",\"severity\":\"deny\""));
        assert!(json.contains("quote \\\" and\\nnewline"));
        assert!(json.contains("\"path\":null"));
        assert!(json.ends_with("]}"));
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
