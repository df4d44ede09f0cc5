//! What the CLI suites share.

use flowcube_cli::Args;

/// Parse a command line as the `flowcube` binary would, split on
/// whitespace.
pub fn args(line: &str) -> Args {
    Args::parse(line.split_whitespace().map(String::from)).expect("parse")
}
