//! The one argument parser of the experiment binaries.
//!
//! Every artifact-writing bin takes the same few options; each names the
//! subset it accepts and gets a [`Cli`] back. Anything else — an option the
//! bin did not list, a missing value, more positionals than it takes, a
//! positional that is not the number it should be — is a usage error (exit
//! status 2).

use std::path::PathBuf;

/// Parsed command line of one experiment binary.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Cli {
    /// `--json`: also write the bin's `BENCH_*.json` artifact.
    pub json: bool,
    /// `--out DIR`: artifact directory (the repository root when `None`).
    pub out: Option<PathBuf>,
    /// `--spans FILE` (`request_tail`): JSONL span-trace destination.
    pub spans: Option<PathBuf>,
    /// Positional arguments, in order.
    pub positional: Vec<String>,
}

impl Cli {
    /// Parses the process arguments, accepting only the `options` named
    /// (from `--json`, `--out`, `--spans`) and at most `max_positional`
    /// positionals. Prints the problem and exits with status 2 on a usage
    /// error.
    pub fn parse(options: &[&str], max_positional: usize) -> Cli {
        Cli::parse_from(std::env::args().skip(1), options, max_positional)
            .unwrap_or_else(|e| usage_error(&e))
    }

    /// Positional `idx` as a finite, non-negative number, `default` when
    /// absent. Anything else is an error naming the argument and its
    /// position — never silently the default.
    pub fn number(&self, idx: usize, default: f64) -> Result<f64, String> {
        let Some(arg) = self.positional.get(idx) else {
            return Ok(default);
        };
        match arg.parse::<f64>() {
            Ok(x) if x.is_finite() && x >= 0.0 => Ok(x),
            _ => Err(format!(
                "argument {} ({arg:?}) is not a non-negative number",
                idx + 1
            )),
        }
    }

    /// Positional `idx` as a whole count (decimal digits) that fits in `T`,
    /// `default` when absent. A fractional, negative or out-of-range count
    /// is an error, never truncated.
    pub fn count<T: TryFrom<u64>>(&self, idx: usize, default: T) -> Result<T, String> {
        let Some(arg) = self.positional.get(idx) else {
            return Ok(default);
        };
        arg.parse::<u64>()
            .ok()
            .and_then(|n| T::try_from(n).ok())
            .ok_or_else(|| format!("argument {} ({arg:?}) is not a whole count", idx + 1))
    }

    fn parse_from(
        args: impl IntoIterator<Item = String>,
        options: &[&str],
        max_positional: usize,
    ) -> Result<Cli, String> {
        let mut cli = Cli::default();
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            let mut path = || {
                args.next()
                    .map(PathBuf::from)
                    .ok_or_else(|| format!("{arg} requires a value"))
            };
            match arg.as_str() {
                opt if opt.starts_with("--") && !options.contains(&opt) => {
                    return Err(format!("unknown argument: {arg}"));
                }
                "--json" => cli.json = true,
                "--out" => cli.out = Some(path()?),
                "--spans" => cli.spans = Some(path()?),
                _ if cli.positional.len() < max_positional => cli.positional.push(arg),
                _ => return Err(format!("unknown argument: {arg}")),
            }
        }
        Ok(cli)
    }
}

/// Prints `message` and exits with the usage-error status.
pub fn usage_error(message: &str) -> ! {
    eprintln!("{message}");
    std::process::exit(2);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str], options: &[&str], max_positional: usize) -> Result<Cli, String> {
        Cli::parse_from(args.iter().map(|a| a.to_string()), options, max_positional)
    }

    #[test]
    fn parses_the_shared_options_and_positionals() {
        let all = ["--json", "--out", "--spans"];
        let cli = parse(
            &["--out", "d", "7", "--json", "--spans", "s.jsonl"],
            &all,
            1,
        )
        .expect("valid");
        assert_eq!(
            cli,
            Cli {
                json: true,
                out: Some(PathBuf::from("d")),
                spans: Some(PathBuf::from("s.jsonl")),
                positional: vec!["7".to_string()],
            }
        );
        assert_eq!(parse(&[], &all, 0), Ok(Cli::default()));
    }

    #[test]
    fn rejects_what_the_binary_did_not_list() {
        let opts = ["--json", "--out"];
        assert_eq!(
            parse(&["--spans", "s"], &opts, 0).unwrap_err(),
            "unknown argument: --spans"
        );
        assert_eq!(
            parse(&["--label", "x"], &opts, 0).unwrap_err(),
            "unknown argument: --label"
        );
        assert_eq!(
            parse(&["stray"], &opts, 0).unwrap_err(),
            "unknown argument: stray"
        );
        assert_eq!(
            parse(&["--out"], &opts, 0).unwrap_err(),
            "--out requires a value"
        );
    }

    #[test]
    fn a_positional_is_a_number_or_a_usage_error_never_the_default() {
        let cli = parse(&["3", "abc", "1e-4x", "nan", "-1"], &[], 5).expect("valid");
        assert_eq!(cli.number(0, 9.0), Ok(3.0));
        assert_eq!(cli.number(5, 1e-4), Ok(1e-4), "absent takes the default");
        assert_eq!(
            cli.number(1, 9.0).unwrap_err(),
            "argument 2 (\"abc\") is not a non-negative number"
        );
        assert_eq!(
            cli.number(2, 9.0).unwrap_err(),
            "argument 3 (\"1e-4x\") is not a non-negative number"
        );
        assert!(cli.number(3, 9.0).is_err(), "NaN would cast to 0");
        assert!(cli.number(4, 9.0).is_err(), "a negative would cast to 0");
    }

    #[test]
    fn a_count_is_whole_or_a_usage_error() {
        let cli = parse(&["300", "2.5", "-3", "70000", "x"], &[], 5).expect("valid");
        assert_eq!(cli.count(0, 4u64), Ok(300));
        assert_eq!(cli.count(5, 4u64), Ok(4), "absent takes the default");
        assert_eq!(
            cli.count::<u64>(1, 4).unwrap_err(),
            "argument 2 (\"2.5\") is not a whole count"
        );
        assert!(
            cli.count::<u64>(2, 4).is_err(),
            "a negative would cast to 0"
        );
        assert_eq!(cli.count::<u32>(3, 4), Ok(70_000));
        assert!(cli.count::<u16>(3, 4).is_err(), "out of range would wrap");
        assert!(cli.count::<usize>(4, 4).is_err());
    }
}
