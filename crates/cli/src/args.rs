//! A minimal `--flag value` argument parser (the approved dependency set
//! has no CLI framework, and the surface here is small).

use rhmd_core::RhmdError;
use std::collections::BTreeMap;

/// Flags that take no value: their presence alone means `true`.
const BOOLEAN_FLAGS: &[&str] = &["metrics-summary"];

/// Parsed command line: a subcommand, an optional action, plus `--key
/// value` flags.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Args {
    /// The subcommand (first positional argument).
    pub command: Option<String>,
    /// An optional second positional, e.g. `build` in `rhmd corpus build`.
    /// Commands without actions reject it via [`Args::expect_no_action`].
    pub action: Option<String>,
    flags: BTreeMap<String, String>,
}

impl Args {
    /// Parses raw arguments (excluding the program name).
    ///
    /// # Errors
    ///
    /// Returns an error for flags without values, repeated flags, or stray
    /// positionals.
    pub fn parse<I: IntoIterator<Item = String>>(raw: I) -> Result<Args, RhmdError> {
        let mut args = Args::default();
        let mut iter = raw.into_iter().peekable();
        if let Some(first) = iter.peek() {
            if !first.starts_with("--") {
                args.command = iter.next();
                if let Some(second) = iter.peek() {
                    if !second.starts_with("--") {
                        args.action = iter.next();
                    }
                }
            }
        }
        while let Some(token) = iter.next() {
            let Some(key) = token.strip_prefix("--") else {
                return Err(RhmdError::config(format!(
                    "unexpected positional argument '{token}'"
                )));
            };
            let value = if BOOLEAN_FLAGS.contains(&key) {
                String::new()
            } else {
                iter.next()
                    .ok_or_else(|| RhmdError::config(format!("flag --{key} needs a value")))?
            };
            if args.flags.insert(key.to_owned(), value).is_some() {
                return Err(RhmdError::config(format!("flag --{key} is given more than once")));
            }
        }
        Ok(args)
    }

    /// Rejects a stray action positional for commands that take none.
    ///
    /// # Errors
    ///
    /// Returns a config error naming the offending positional.
    pub fn expect_no_action(&self) -> Result<(), RhmdError> {
        match &self.action {
            None => Ok(()),
            Some(action) => Err(RhmdError::config(format!(
                "unexpected positional argument '{action}'"
            ))),
        }
    }

    /// Rejects any flag not among the whitespace-separated names in
    /// `accepted`, naming it and listing what `command` takes.
    ///
    /// # Errors
    ///
    /// Returns a config error naming the first unknown flag.
    pub fn expect_flags(&self, command: &str, accepted: &str) -> Result<(), RhmdError> {
        let accepted: Vec<&str> = accepted.split_whitespace().collect();
        match self.flags.keys().find(|key| !accepted.contains(&key.as_str())) {
            None => Ok(()),
            Some(key) => Err(RhmdError::config(format!(
                "unknown flag --{key} for '{command}' (it takes --{})",
                accepted.join(", --")
            ))),
        }
    }

    /// Whether a boolean flag (one of [`BOOLEAN_FLAGS`]) was given.
    pub fn flag(&self, key: &str) -> bool {
        self.flags.contains_key(key)
    }

    /// Raw flag lookup.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.flags.get(key).map(String::as_str)
    }

    /// String flag with a default.
    pub fn str_or(&self, key: &str, default: &str) -> String {
        self.get(key).unwrap_or(default).to_owned()
    }

    /// Parsed numeric/typed flag with a default.
    ///
    /// # Errors
    ///
    /// Returns an error naming the flag when parsing fails.
    pub fn parse_or<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, RhmdError> {
        Ok(self.parse_opt(key)?.unwrap_or(default))
    }

    /// Parsed numeric/typed flag, `None` when absent.
    ///
    /// # Errors
    ///
    /// Returns an error naming the flag when parsing fails.
    pub fn parse_opt<T: std::str::FromStr>(&self, key: &str) -> Result<Option<T>, RhmdError> {
        let Some(v) = self.get(key) else {
            return Ok(None);
        };
        v.parse()
            .map(Some)
            .map_err(|_| RhmdError::parse(format!("--{key}"), format!("invalid value '{v}'")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(tokens: &[&str]) -> Result<Args, RhmdError> {
        Args::parse(tokens.iter().map(|s| (*s).to_owned()))
    }

    #[test]
    fn parses_command_and_flags() {
        let args = parse(&["train", "--algo", "lr", "--period", "10000"]).unwrap();
        assert_eq!(args.command.as_deref(), Some("train"));
        assert_eq!(args.get("algo"), Some("lr"));
        assert_eq!(args.parse_or("period", 0u32).unwrap(), 10_000);
    }

    #[test]
    fn defaults_apply() {
        let args = parse(&["corpus"]).unwrap();
        assert_eq!(args.str_or("scale", "small"), "small");
        assert_eq!(args.parse_or("seed", 7u64).unwrap(), 7);
    }

    #[test]
    fn missing_value_is_an_error() {
        assert!(parse(&["train", "--algo"]).is_err());
    }

    #[test]
    fn boolean_flags_take_no_value() {
        let args = parse(&["sweep", "--metrics-summary", "--algos", "lr"]).unwrap();
        assert!(args.flag("metrics-summary"));
        assert_eq!(args.get("algos"), Some("lr"));
        assert!(!parse(&["sweep"]).unwrap().flag("metrics-summary"));
    }

    #[test]
    fn repeated_and_unaccepted_flags_are_errors() {
        let err = parse(&["sweep", "--threads", "2", "--threads", "4"]).unwrap_err();
        assert!(err.to_string().contains("--threads is given more than once"), "{err}");
        assert!(parse(&["sweep", "--metrics-summary", "--metrics-summary"]).is_err());
        let args = parse(&["train", "--algos", "nn"]).unwrap();
        let err = args.expect_flags("train", "algo out").unwrap_err();
        assert!(err.to_string().contains("unknown flag --algos for 'train'"), "{err}");
        assert!(args.expect_flags("sweep", "algos").is_ok());
    }

    #[test]
    fn second_positional_is_an_action_commands_may_reject() {
        let args = parse(&["corpus", "build", "--store", "d"]).unwrap();
        assert_eq!(args.command.as_deref(), Some("corpus"));
        assert_eq!(args.action.as_deref(), Some("build"));
        assert!(args.expect_no_action().is_err());
        assert!(parse(&["train"]).unwrap().expect_no_action().is_ok());
    }

    #[test]
    fn third_positional_is_an_error() {
        assert!(parse(&["corpus", "build", "now"]).is_err());
    }

    #[test]
    fn bad_parse_names_flag() {
        let args = parse(&["x", "--period", "ten"]).unwrap();
        let err = args.parse_or("period", 0u32).unwrap_err();
        assert!(matches!(err, RhmdError::Parse { .. }));
        assert!(err.to_string().contains("--period"));
    }
}
