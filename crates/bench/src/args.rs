//! Strict command-line parsing for the `experiments` and `conformance`
//! binaries.
//!
//! Every flag a binary accepts is declared up front, either as a switch
//! (`--quick`) or as a flag that takes a value (`--out FILE`). Anything
//! else — an unknown or misspelt flag, a value flag with no value, a
//! flag given twice — is an error, so a typo can never silently run a
//! different experiment than the one asked for.

/// A parsed command line: its positional arguments and the declared
/// flags that were given.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Args {
    positional: Vec<String>,
    switches: Vec<String>,
    values: Vec<(String, String)>,
}

impl Args {
    /// Parses `args` (without the program name). `switches` lists the
    /// accepted flags that take no value, `valued` those followed by a
    /// value; both spelled with their leading dashes.
    ///
    /// A value may not itself start with `--`, so `--out --quick` reads
    /// as a missing value rather than writing to a file named
    /// `--quick`.
    ///
    /// # Errors
    ///
    /// Returns a message naming the offending argument for an
    /// undeclared flag, a value flag without a value, or a repeated
    /// flag.
    ///
    /// # Examples
    ///
    /// ```
    /// use crn_bench::args::Args;
    /// let argv = ["t4", "--out", "r.md", "--quick"].map(String::from);
    /// let args = Args::parse(argv, &["--quick"], &["--out"]).unwrap();
    /// assert_eq!(args.positional(), ["t4"]);
    /// assert!(args.has("--quick"));
    /// assert_eq!(args.value("--out"), Some("r.md"));
    ///
    /// let typo = ["t4", "--quik"].map(String::from);
    /// assert!(Args::parse(typo, &["--quick"], &["--out"]).is_err());
    /// ```
    pub fn parse(
        args: impl IntoIterator<Item = String>,
        switches: &[&str],
        valued: &[&str],
    ) -> Result<Args, String> {
        let mut parsed = Args::default();
        let mut args = args.into_iter().peekable();
        while let Some(arg) = args.next() {
            if !arg.starts_with('-') {
                parsed.positional.push(arg);
                continue;
            }
            if parsed.has(&arg) || parsed.value(&arg).is_some() {
                return Err(format!("{arg} given more than once"));
            }
            if switches.contains(&arg.as_str()) {
                parsed.switches.push(arg);
            } else if valued.contains(&arg.as_str()) {
                match args.next_if(|v| !v.starts_with("--")) {
                    Some(value) => parsed.values.push((arg, value)),
                    None => return Err(format!("{arg} needs a value")),
                }
            } else {
                return Err(format!("unknown flag {arg}"));
            }
        }
        Ok(parsed)
    }

    /// The positional arguments, in order.
    pub fn positional(&self) -> &[String] {
        &self.positional
    }

    /// Whether the switch `flag` was given.
    pub fn has(&self, flag: &str) -> bool {
        self.switches.iter().any(|s| s == flag)
    }

    /// The value given for `flag`, if it was given.
    pub fn value(&self, flag: &str) -> Option<&str> {
        self.values
            .iter()
            .find(|(f, _)| f == flag)
            .map(|(_, v)| v.as_str())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(argv: &[&str]) -> Result<Args, String> {
        Args::parse(
            argv.iter().map(|s| s.to_string()),
            &["--quick", "-h"],
            &["--out", "--threads"],
        )
    }

    #[test]
    fn accepts_declared_flags_in_any_order() {
        let args = parse(&["--threads", "2", "f10", "--quick", "t1"]).unwrap();
        assert_eq!(args.positional(), ["f10", "t1"]);
        assert!(args.has("--quick") && !args.has("-h"));
        assert_eq!(args.value("--threads"), Some("2"));
        assert_eq!(args.value("--out"), None);
    }

    #[test]
    fn rejects_unknown_flags() {
        assert_eq!(parse(&["t4", "--quik"]), Err("unknown flag --quik".into()));
        assert_eq!(parse(&["-x"]), Err("unknown flag -x".into()));
    }

    #[test]
    fn rejects_value_flags_without_a_value() {
        assert_eq!(parse(&["f10", "--out"]), Err("--out needs a value".into()));
        assert_eq!(
            parse(&["--out", "--quick"]),
            Err("--out needs a value".into())
        );
    }

    #[test]
    fn rejects_repeated_flags() {
        assert!(parse(&["--quick", "--quick"]).is_err());
        assert!(parse(&["--out", "a", "--out", "b"]).is_err());
    }
}
