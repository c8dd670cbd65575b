//! The one flag parser of `serve_load`, `serve_check` and `wire_shard`.
//!
//! A binary *takes* each flag it understands out of the argument list and
//! then calls [`Args::finish`], which fails on whatever is left — so a flag
//! the selected mode never reads (a typo such as `--kill-replicas`, or a
//! flag of another mode) is an error naming it, not a silent default. A
//! flag whose value is missing or does not parse is an error too. The
//! binaries print the message and exit 2.

use std::str::FromStr;

/// The arguments not yet taken.
#[derive(Debug)]
pub struct Args {
    rest: Vec<String>,
}

impl Args {
    pub fn new<S: Into<String>>(argv: impl IntoIterator<Item = S>) -> Args {
        Args {
            rest: argv.into_iter().map(Into::into).collect(),
        }
    }

    /// The process's arguments, program name dropped.
    pub fn from_env() -> Args {
        Args::new(std::env::args().skip(1))
    }

    /// Take `--name` if present.
    pub fn switch(&mut self, name: &str) -> bool {
        match self.rest.iter().position(|a| a == name) {
            Some(at) => {
                self.rest.remove(at);
                true
            }
            None => false,
        }
    }

    /// Take `--name VALUE` if present; the value may not itself be a flag.
    pub fn string(&mut self, name: &str) -> Result<Option<String>, String> {
        let Some(at) = self.rest.iter().position(|a| a == name) else {
            return Ok(None);
        };
        match self.rest.get(at + 1) {
            Some(value) if !value.starts_with("--") => {
                let value = value.clone();
                self.rest.drain(at..=at + 1);
                Ok(Some(value))
            }
            _ => Err(format!("{name} needs a value")),
        }
    }

    /// Take `--name N`, or `default` when the flag is absent.
    pub fn number<T: FromStr>(&mut self, name: &str, default: T) -> Result<T, String> {
        match self.string(name)? {
            None => Ok(default),
            Some(value) => value
                .parse()
                .map_err(|_| format!("{name} {value}: not a valid number")),
        }
    }

    /// Every argument must have been taken by now.
    pub fn finish(self) -> Result<(), String> {
        match self.rest.first() {
            None => Ok(()),
            Some(arg) => Err(format!("unrecognised argument {arg}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn takes_switches_values_and_defaults() {
        let mut args = Args::new(["--wire", "--users", "12", "--scale", "small"]);
        assert!(args.switch("--wire"));
        assert!(!args.switch("--wire"), "taken once");
        assert_eq!(args.number("--users", 8usize), Ok(12));
        assert_eq!(args.number("--rounds", 2usize), Ok(2));
        assert_eq!(args.string("--scale"), Ok(Some("small".to_string())));
        assert_eq!(args.finish(), Ok(()));
    }

    #[test]
    fn an_unparsable_value_names_the_flag() {
        let err = Args::new(["--users", "abc"])
            .number("--users", 8usize)
            .unwrap_err();
        assert!(err.contains("--users") && err.contains("abc"), "{err}");
    }

    #[test]
    fn a_missing_value_names_the_flag() {
        for argv in [vec!["--users"], vec!["--users", "--rounds", "3"]] {
            let err = Args::new(argv).number("--users", 8usize).unwrap_err();
            assert_eq!(err, "--users needs a value");
        }
    }

    #[test]
    fn an_untaken_flag_fails_finish_by_name() {
        let mut args = Args::new(["--cluster", "--kill-replicas"]);
        assert!(args.switch("--cluster"));
        assert!(!args.switch("--kill-replica"));
        assert_eq!(
            args.finish(),
            Err("unrecognised argument --kill-replicas".to_string())
        );
    }
}
