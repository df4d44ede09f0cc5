//! A small, dependency-free argument parser: `--key value` and
//! `--key=value` flags plus positional arguments.

use std::collections::BTreeMap;

/// Parsed command line: the subcommand, its positionals, and flags.
#[derive(Debug, Default, Clone)]
pub struct Args {
    pub command: String,
    pub positional: Vec<String>,
    flags: BTreeMap<String, String>,
}

impl Args {
    /// Parse from an iterator of raw arguments (excluding argv\[0\]).
    pub fn parse(raw: impl IntoIterator<Item = String>) -> Result<Args, String> {
        let mut raw = raw.into_iter().peekable();
        let command = raw.next().unwrap_or_default();
        let mut out = Args {
            command,
            ..Default::default()
        };
        while let Some(a) = raw.next() {
            if let Some(key) = a.strip_prefix("--") {
                let (key, value) = match key.split_once('=') {
                    Some((k, v)) => (k, v.to_string()),
                    None => match raw.peek() {
                        Some(v) if !v.starts_with("--") => (key, raw.next().unwrap()),
                        _ => (key, "true".to_string()), // boolean flag
                    },
                };
                if out.flags.insert(key.to_string(), value).is_some() {
                    return Err(format!("duplicate flag --{key}"));
                }
            } else {
                out.positional.push(a);
            }
        }
        Ok(out)
    }

    pub fn from_env() -> Result<Args, String> {
        Args::parse(std::env::args().skip(1))
    }

    /// String flag.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.flags.get(key).map(|s| s.as_str())
    }

    /// String flag with default.
    pub fn get_or<'a>(&'a self, key: &str, default: &'a str) -> &'a str {
        self.get(key).unwrap_or(default)
    }

    /// Required string flag.
    pub fn require(&self, key: &str) -> Result<&str, String> {
        self.get(key).ok_or_else(|| format!("missing --{key}"))
    }

    /// Parsed numeric flag with default.
    pub fn num<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{key}: cannot parse {v:?}")),
        }
    }

    /// Boolean flag (present = true).
    pub fn flag(&self, key: &str) -> bool {
        self.get(key).is_some_and(|v| v != "false")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Result<Args, String> {
        Args::parse(s.split_whitespace().map(String::from))
    }

    #[test]
    fn command_flags_positionals() {
        let a = parse("build --db x.json --min-support 50 extra").unwrap();
        assert_eq!(a.command, "build");
        assert_eq!(a.get("db"), Some("x.json"));
        assert_eq!(a.num::<u64>("min-support", 1).unwrap(), 50);
        assert_eq!(a.positional, vec!["extra"]);
    }

    #[test]
    fn boolean_flags_and_defaults() {
        let a = parse("query --verbose --level leaf").unwrap();
        assert!(a.flag("verbose"));
        assert!(!a.flag("quiet"));
        assert_eq!(a.get_or("missing", "d"), "d");
        assert_eq!(a.num::<u64>("absent", 7).unwrap(), 7);
    }

    #[test]
    fn equals_syntax() {
        let a = parse("build --threads=4 --db=x.json --tau=0.5").unwrap();
        assert_eq!(a.num::<usize>("threads", 0).unwrap(), 4);
        assert_eq!(a.get("db"), Some("x.json"));
        assert_eq!(a.num::<f64>("tau", 0.0).unwrap(), 0.5);
        assert!(parse("x --a=1 --a 2").is_err(), "duplicate across syntaxes");
    }

    #[test]
    fn replica_set_backend_spec_passes_through_unmangled() {
        let a = parse("federate --backends a:1|a:2,b:1|b:2 --retry-budget 2").unwrap();
        assert_eq!(a.get("backends"), Some("a:1|a:2,b:1|b:2"));
        assert_eq!(a.num::<u32>("retry-budget", 3).unwrap(), 2);
        let a = parse("federate --backends=h:1|h:2 --no-hedge").unwrap();
        assert_eq!(a.get("backends"), Some("h:1|h:2"));
        assert!(a.flag("no-hedge"));
    }

    #[test]
    fn errors() {
        assert!(parse("x --a 1 --a 2").is_err());
        let a = parse("x --n abc").unwrap();
        assert!(a.num::<u64>("n", 0).is_err());
        assert!(a.require("zzz").is_err());
        assert!(a.require("n").is_ok());
    }

    #[test]
    fn empty_command() {
        let a = parse("").unwrap();
        assert_eq!(a.command, "");
    }
}
