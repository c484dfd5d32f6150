//! A minimal flag parser: `--flag value`, `--switch`, and positionals,
//! checked against the flags one command reads.

use std::collections::HashMap;

/// The flags one command reads: those that take a value, and the
/// switches, which take none. Any other `--name` is an error.
#[derive(Debug)]
pub struct Spec {
    /// The command's name, for error messages.
    pub command: &'static str,
    /// Flags that take a value.
    pub flags: &'static [&'static str],
    /// Flags that take no value.
    pub switches: &'static [&'static str],
}

/// Parsed command-line arguments.
#[derive(Debug)]
pub struct Args {
    spec: &'static Spec,
    flags: HashMap<String, String>,
    switches: Vec<String>,
    positionals: Vec<String>,
}

impl Args {
    /// Parses `argv` (without the program/command names) against the
    /// flags `spec` lists, naming the first flag it does not list.
    pub fn parse(argv: &[String], spec: &'static Spec) -> Result<Args, String> {
        let mut out =
            Args { spec, flags: HashMap::new(), switches: Vec::new(), positionals: Vec::new() };
        let mut i = 0;
        while i < argv.len() {
            let a = &argv[i];
            if let Some(name) = a.strip_prefix("--") {
                if spec.switches.contains(&name) {
                    out.switches.push(name.to_string());
                } else if spec.flags.contains(&name) {
                    let value =
                        argv.get(i + 1).ok_or_else(|| format!("flag --{name} needs a value"))?;
                    out.flags.insert(name.to_string(), value.clone());
                    i += 1;
                } else {
                    return Err(format!(
                        "rex {} has no flag --{name} (see `rex help`)",
                        spec.command
                    ));
                }
            } else {
                out.positionals.push(a.clone());
            }
            i += 1;
        }
        Ok(out)
    }

    /// A string flag.
    pub fn get(&self, name: &str) -> Option<&str> {
        debug_assert!(
            self.spec.flags.contains(&name),
            "{} reads unlisted --{name}",
            self.spec.command
        );
        self.flags.get(name).map(String::as_str)
    }

    /// A parsed flag with a default.
    pub fn get_or<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.get(name) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("flag --{name}: cannot parse {v:?}")),
        }
    }

    /// Whether a boolean switch is present.
    pub fn has(&self, name: &str) -> bool {
        debug_assert!(
            self.spec.switches.contains(&name),
            "{} reads unlisted --{name}",
            self.spec.command
        );
        self.switches.iter().any(|s| s == name)
    }

    /// Positional argument `i`.
    pub fn positional(&self, i: usize) -> Option<&str> {
        self.positionals.get(i).map(String::as_str)
    }

    /// All positionals.
    #[allow(dead_code)]
    pub fn positionals(&self) -> &[String] {
        &self.positionals
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    static SPEC: Spec =
        Spec { command: "test", flags: &["kb", "top", "missing"], switches: &["toy", "decorate"] };

    fn parse(parts: &[&str]) -> Result<Args, String> {
        let argv: Vec<String> = parts.iter().map(|s| s.to_string()).collect();
        Args::parse(&argv, &SPEC)
    }

    #[test]
    fn flags_switches_positionals() {
        let a = parse(&["--kb", "x.tsv", "alice", "--toy", "bob", "--top", "3"]).unwrap();
        assert_eq!(a.get("kb"), Some("x.tsv"));
        assert!(a.has("toy"));
        assert!(!a.has("decorate"));
        assert_eq!(a.positional(0), Some("alice"));
        assert_eq!(a.positional(1), Some("bob"));
        assert_eq!(a.get_or("top", 10usize).unwrap(), 3);
        assert_eq!(a.get_or("missing", 7usize).unwrap(), 7);
        assert_eq!(a.positionals().len(), 2);
    }

    #[test]
    fn missing_value_is_an_error() {
        assert!(parse(&["--kb"]).is_err());
    }

    #[test]
    fn bad_parse_is_an_error() {
        let a = parse(&["--top", "many"]).unwrap();
        assert!(a.get_or("top", 1usize).is_err());
    }

    /// A flag the command does not list is rejected by name, whether it
    /// is a typo, another command's switch, or followed by a value.
    #[test]
    fn unlisted_flags_are_rejected_by_name() {
        for (argv, flag) in [
            (&["--kb", "x.tsv", "--tpo", "3"][..], "--tpo"),
            (&["--toy", "--shed"][..], "--shed"),
            (&["alice", "--shards", "2", "--top", "3"][..], "--shards"),
        ] {
            let err = parse(argv).unwrap_err();
            assert!(err.contains(flag) && err.contains("rex test"), "{argv:?}: {err}");
        }
    }
}
