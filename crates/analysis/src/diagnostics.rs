//! Diagnostics: structured findings with a severity.

use std::fmt;

use everest_ir::location::OpPath;

/// How a lint finding is treated.
///
/// Mirrors `rustc`'s lint levels: `Allow` suppresses the finding
/// entirely, `Warn` records it without failing the analysis, `Deny`
/// records it and makes [`AnalysisReport::has_denials`] true (which
/// `basecamp analyze` turns into exit status 1).
///
/// [`AnalysisReport::has_denials`]: crate::report::AnalysisReport::has_denials
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Suppress the finding.
    Allow,
    /// Record the finding; the module still passes analysis.
    Warn,
    /// Record the finding and fail the analysis.
    Deny,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Allow => write!(f, "allow"),
            Severity::Warn => write!(f, "warn"),
            Severity::Deny => write!(f, "deny"),
        }
    }
}

impl std::str::FromStr for Severity {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "allow" => Ok(Severity::Allow),
            "warn" => Ok(Severity::Warn),
            "deny" => Ok(Severity::Deny),
            other => Err(format!("unknown severity '{other}'")),
        }
    }
}

/// One finding produced by a lint.
#[derive(Debug, Clone, PartialEq)]
pub struct Diagnostic {
    /// Lint id (e.g. `"memref-use-after-free"`).
    pub lint: String,
    /// Severity the lint declares for this id.
    pub severity: Severity,
    /// Fully qualified name of the op the finding is anchored to, when
    /// it concerns a specific op.
    pub op: Option<String>,
    /// Structural location of that op, when it is attached to the
    /// module (shares the representation verification errors carry).
    pub path: Option<OpPath>,
    /// Human-readable explanation.
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[{}]", self.severity, self.lint)?;
        if let Some(op) = &self.op {
            write!(f, " '{op}'")?;
        }
        if let Some(path) = &self.path {
            write!(f, " at {path}")?;
        }
        write!(f, ": {}", self.message)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn severity_orders_allow_warn_deny() {
        assert!(Severity::Allow < Severity::Warn);
        assert!(Severity::Warn < Severity::Deny);
    }

    #[test]
    fn severity_roundtrips_through_strings() {
        for s in [Severity::Allow, Severity::Warn, Severity::Deny] {
            assert_eq!(s.to_string().parse::<Severity>().unwrap(), s);
        }
        assert!("fatal".parse::<Severity>().is_err());
    }

    #[test]
    fn diagnostic_display_lists_severity_lint_and_message() {
        let d = Diagnostic {
            lint: "memref-leak".into(),
            severity: Severity::Warn,
            op: Some("memref.alloc".into()),
            path: None,
            message: "buffer is never deallocated".into(),
        };
        let text = d.to_string();
        assert!(text.starts_with("warn[memref-leak]"));
        assert!(text.contains("memref.alloc"));
        assert!(text.contains("never deallocated"));
    }
}
