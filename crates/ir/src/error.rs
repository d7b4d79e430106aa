//! Error types shared across the IR crate.

use std::error::Error;
use std::fmt;

use crate::location::OpPath;

/// Errors produced while building, verifying, parsing or transforming IR.
///
/// The variants mirror the stages of the compilation pipeline so callers can
/// distinguish structural problems (malformed IR) from verification failures
/// (well-formed IR violating dialect rules) and pass failures.
#[derive(Debug, Clone, PartialEq)]
pub enum IrError {
    /// An arena id did not resolve to an entity in the module.
    InvalidId(String),
    /// IR construction violated a structural rule (e.g. result-count
    /// mismatch, block without terminator where one is required).
    Malformed(String),
    /// A dialect or operation name was not registered in the context.
    Unregistered(String),
    /// Verification of a registered operation failed.
    Verification {
        /// Fully qualified operation name (`dialect.op`).
        op: String,
        /// Human-readable explanation of the violated invariant.
        message: String,
        /// Structural location of the op, when known. The per-op checks
        /// construct errors without a path (via [`IrError::verification`]);
        /// `verify_module` fills it in before surfacing the error.
        path: Option<OpPath>,
    },
    /// The textual parser rejected the input.
    Parse {
        /// Line number (1-based) where the error was detected.
        line: usize,
        /// Explanation of the syntax error.
        message: String,
    },
    /// A transformation pass failed.
    Pass {
        /// Name of the failing pass.
        pass: String,
        /// Explanation of the failure.
        message: String,
    },
    /// A type-system violation (mismatched or unsupported types).
    Type(String),
}

impl IrError {
    /// Builds a [`IrError::Verification`] without a structural path.
    ///
    /// This is the constructor the per-op checks use: they see a single
    /// op and cannot cheaply locate it in the module, so `verify_module`
    /// attaches the path afterwards via `IrError::with_path`.
    pub fn verification(op: impl Into<String>, message: impl Into<String>) -> IrError {
        IrError::Verification {
            op: op.into(),
            message: message.into(),
            path: None,
        }
    }

    /// Attaches a structural path to a [`IrError::Verification`] that
    /// does not already carry one; other variants pass through.
    #[must_use]
    pub(crate) fn with_path(self, new_path: OpPath) -> IrError {
        match self {
            IrError::Verification {
                op,
                message,
                path: None,
            } => IrError::Verification {
                op,
                message,
                path: Some(new_path),
            },
            other => other,
        }
    }

    /// Returns the structural path, if this error carries one.
    pub fn path(&self) -> Option<&OpPath> {
        match self {
            IrError::Verification { path, .. } => path.as_ref(),
            _ => None,
        }
    }
}

impl fmt::Display for IrError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IrError::InvalidId(what) => write!(f, "invalid arena id: {what}"),
            IrError::Malformed(msg) => write!(f, "malformed IR: {msg}"),
            IrError::Unregistered(name) => write!(f, "unregistered dialect or op: {name}"),
            IrError::Verification { op, message, path } => {
                write!(f, "verification of '{op}' failed: {message}")?;
                if let Some(path) = path {
                    write!(f, " (at {path})")?;
                }
                Ok(())
            }
            IrError::Parse { line, message } => write!(f, "parse error at line {line}: {message}"),
            IrError::Pass { pass, message } => write!(f, "pass '{pass}' failed: {message}"),
            IrError::Type(msg) => write!(f, "type error: {msg}"),
        }
    }
}

impl Error for IrError {}

/// Convenience result alias used across the IR crate.
pub type IrResult<T> = Result<T, IrError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_lowercase_and_informative() {
        let err = IrError::verification("memref.load", "rank mismatch");
        let text = err.to_string();
        assert!(text.contains("memref.load"));
        assert!(text.contains("rank mismatch"));
        assert!(!text.contains(" (at "), "no path yet: {text}");
    }

    #[test]
    fn with_path_is_displayed_and_idempotent() {
        use crate::location::{OpPath, PathStep};
        let path = OpPath {
            steps: vec![PathStep {
                region: 0,
                block: 0,
                position: 2,
                op_name: "arith.addf".into(),
            }],
        };
        let err = IrError::verification("arith.addf", "bad").with_path(path.clone());
        assert!(err
            .to_string()
            .contains("(at region0.block0.op2(arith.addf))"));
        // Attaching again must not overwrite the original path.
        let other = OpPath::default();
        let err = err.with_path(other);
        assert_eq!(err.path(), Some(&path));
    }

    #[test]
    fn error_trait_object_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<IrError>();
    }

    #[test]
    fn parse_error_reports_line() {
        let err = IrError::Parse {
            line: 42,
            message: "expected '('".into(),
        };
        assert!(err.to_string().contains("line 42"));
    }
}
