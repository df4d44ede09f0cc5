//! Typed CLI failures carrying their process exit code.
//!
//! Exit codes follow the BSD `sysexits.h` convention where one exists:
//!
//! | code | meaning                                      |
//! |------|----------------------------------------------|
//! | 1    | generic failure (IO, build, serve, …)        |
//! | 2    | usage error (bad flags) — set by `main`      |
//! | 65   | `EX_DATAERR`: the *input data* was malformed |
//!
//! The distinction matters to pipeline drivers: exit 65 means "fix your
//! data file", not "retry" or "fix your invocation".

use flowcube_core::CoreError;
use flowcube_serve::SnapshotError;
use std::fmt;

/// Generic failure.
pub const EXIT_FAILURE: i32 = 1;
/// Bad command line (mirrors the code `main` uses for unparsable args).
pub const EXIT_USAGE: i32 = 2;
/// `EX_DATAERR` — input data failed to parse or validate.
pub const EXIT_DATAERR: i32 = 65;

/// A CLI command failure: message for stderr, code for the process exit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CliError {
    pub message: String,
    pub code: i32,
}

impl CliError {
    /// A usage error (exit 2).
    pub fn usage(message: impl Into<String>) -> Self {
        CliError {
            message: message.into(),
            code: EXIT_USAGE,
        }
    }

    /// A data error (exit 65).
    pub fn data(message: impl Into<String>) -> Self {
        CliError {
            message: message.into(),
            code: EXIT_DATAERR,
        }
    }

    /// A snapshot file at `path` that failed to open or decode: a data
    /// error when its bytes are bad, a generic failure when it could not
    /// be read at all.
    pub fn snapshot(path: &str, e: SnapshotError) -> Self {
        match e {
            SnapshotError::Io { .. } => CliError::from(e.to_string()),
            _ => CliError::data(format!("{path}: {e}")),
        }
    }
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

impl From<String> for CliError {
    fn from(message: String) -> Self {
        CliError {
            message,
            code: EXIT_FAILURE,
        }
    }
}

impl From<&str> for CliError {
    fn from(message: &str) -> Self {
        CliError {
            message: message.to_string(),
            code: EXIT_FAILURE,
        }
    }
}

impl From<CoreError> for CliError {
    fn from(e: CoreError) -> Self {
        let code = match &e {
            CoreError::Ingest { .. } => EXIT_DATAERR,
            _ => EXIT_FAILURE,
        };
        CliError {
            message: e.to_string(),
            code,
        }
    }
}

impl From<flowcube_federate::FederateError> for CliError {
    fn from(e: flowcube_federate::FederateError) -> Self {
        use flowcube_federate::FederateError as F;
        let code = match &e {
            // A bad shard map or part set is an invocation problem.
            F::ShardCountMismatch { .. } | F::Config { .. } => EXIT_USAGE,
            F::PartMismatch { .. } => EXIT_DATAERR,
            F::Core(inner) => return CliError::from(inner.clone()),
            _ => EXIT_FAILURE,
        };
        CliError {
            message: e.to_string(),
            code,
        }
    }
}

impl From<flowcube_hier::DuplicatePathLevel> for CliError {
    fn from(e: flowcube_hier::DuplicatePathLevel) -> Self {
        // The level list comes from the invocation (today: the default
        // lattice over `--db`'s location hierarchy), not from a data row.
        CliError::usage(e.to_string())
    }
}

impl From<flowcube_pathdb::ParseError> for CliError {
    fn from(e: flowcube_pathdb::ParseError) -> Self {
        // Route through CoreError so both layers classify identically.
        CoreError::from(e).into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exit_codes_by_source() {
        let e: CliError = "boom".into();
        assert_eq!(e.code, EXIT_FAILURE);
        let e: CliError = CoreError::Ingest {
            line: 3,
            detail: "bad duration".into(),
        }
        .into();
        assert_eq!(e.code, EXIT_DATAERR);
        assert!(e.message.contains("line 3"));
        let e: CliError = CoreError::UnknownPathLevel { name: "x".into() }.into();
        assert_eq!(e.code, EXIT_FAILURE);
        let e: CliError = flowcube_pathdb::ParseError {
            line: 7,
            message: "truncated".into(),
        }
        .into();
        assert_eq!(e.code, EXIT_DATAERR);
    }

    /// A level list that names one path level twice is the invocation's
    /// fault: exit 2, with the typed error's message. The default
    /// lattice degenerates so on a flat hierarchy: "one level up" is the
    /// leaf cut again.
    #[test]
    fn repeated_path_level_is_a_usage_error() {
        use flowcube_hier::{ConceptHierarchy, PathLatticeSpec};
        let mut flat = ConceptHierarchy::new("location");
        flat.add_path(["dock"]).unwrap();
        flat.add_path(["shelf"]).unwrap();
        let rejected = PathLatticeSpec::try_paper(&flat, 4).unwrap_err();
        let e: CliError = rejected.into();
        assert_eq!(e.code, EXIT_USAGE);
        assert!(e.message.contains("loc0/dur0") && e.message.contains("loc1/dur0"));
    }
}
