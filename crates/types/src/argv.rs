//! The command-line flag reader every binary parses its arguments with.
//!
//! [`Args`] yields the arguments in order and reads a flag's value, so a
//! malformed value fails in one format whichever binary it was given to:
//! `{flag} needs a value`, `{flag}: bad value {v}` or
//! `{flag}: must be at least 1`. Which flags exist stays with each binary.

use std::str::FromStr;

/// A cursor over command-line arguments (without the program name).
#[derive(Debug, Clone)]
pub struct Args<'a> {
    rest: std::slice::Iter<'a, String>,
}

impl<'a> Args<'a> {
    /// A reader over `argv`.
    pub fn new(argv: &'a [String]) -> Self {
        Args { rest: argv.iter() }
    }

    /// The argument following `flag`.
    pub fn value(&mut self, flag: &str) -> Result<&'a str, String> {
        self.next().ok_or_else(|| format!("{flag} needs a value"))
    }

    /// The argument following `flag`, parsed as a `T`.
    pub fn number<T: FromStr>(&mut self, flag: &str) -> Result<T, String> {
        let v = self.value(flag)?;
        v.parse().map_err(|_| format!("{flag}: bad value {v}"))
    }

    /// The argument following `flag`, parsed as a nonzero count.
    pub fn positive<T: FromStr + Default + PartialEq>(&mut self, flag: &str) -> Result<T, String> {
        let n = self.number(flag)?;
        if n == T::default() {
            return Err(format!("{flag}: must be at least 1"));
        }
        Ok(n)
    }
}

impl<'a> Iterator for Args<'a> {
    type Item = &'a str;

    fn next(&mut self) -> Option<&'a str> {
        self.rest.next().map(String::as_str)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn flags_and_values_are_read_in_order() {
        let v = argv(&["run", "--seed", "7", "--out", "x.md", "--runs", "3"]);
        let mut args = Args::new(&v);
        assert_eq!(args.next(), Some("run"));
        assert_eq!(args.next(), Some("--seed"));
        assert_eq!(args.number::<u64>("--seed"), Ok(7));
        assert_eq!(args.next(), Some("--out"));
        assert_eq!(args.value("--out"), Ok("x.md"));
        assert_eq!(args.next(), Some("--runs"));
        assert_eq!(args.positive::<usize>("--runs"), Ok(3));
        assert_eq!(args.next(), None);
    }

    #[test]
    fn a_missing_value_names_the_flag() {
        let v = argv(&[]);
        assert_eq!(
            Args::new(&v).value("--out"),
            Err("--out needs a value".into())
        );
        assert_eq!(
            Args::new(&v).number::<u64>("--seed"),
            Err("--seed needs a value".into())
        );
        assert_eq!(
            Args::new(&v).positive::<u16>("--sockets"),
            Err("--sockets needs a value".into())
        );
    }

    #[test]
    fn a_bad_value_names_the_flag_and_the_value() {
        for (bad, flag) in [("ten", "--runs"), ("-1", "--runs"), ("1.5", "--runs")] {
            let v = argv(&[bad]);
            assert_eq!(
                Args::new(&v).number::<usize>(flag),
                Err(format!("{flag}: bad value {bad}"))
            );
            assert_eq!(
                Args::new(&v).positive::<usize>(flag),
                Err(format!("{flag}: bad value {bad}"))
            );
        }
        let v = argv(&["hot"]);
        assert_eq!(
            Args::new(&v).number::<f64>("--budget-w"),
            Err("--budget-w: bad value hot".into())
        );
    }

    #[test]
    fn zero_is_not_positive() {
        let v = argv(&["0"]);
        assert_eq!(Args::new(&v).number::<u16>("--sockets"), Ok(0));
        assert_eq!(
            Args::new(&v).positive::<u16>("--sockets"),
            Err("--sockets: must be at least 1".into())
        );
    }
}
