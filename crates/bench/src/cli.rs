//! The one flag parser of every binary in this crate.
//!
//! A binary declares its flags once — name, value placeholder, help and
//! default — as a [`Cli`] constant, and calls [`Cli::parse_env`] first
//! thing in `main`:
//!
//! * `--help` prints the usage text generated from the declaration and
//!   exits 0;
//! * an unknown flag, a flag without its value, a stray positional
//!   argument or a value that does not parse exits 2 with one line on
//!   stderr. Nothing panics on bad input.
//!
//! Binaries that take the observability flags declare them with
//! [`Cli::with_obs`] and build their [`crate::ObsSession`] from the parsed
//! [`Args`]. Values are converted when read ([`Args::get`],
//! [`Args::value`], [`Args::list`]); binaries read every flag before doing
//! any work, so a bad value still stops the run before it starts.

use std::fmt::Write as _;
use std::str::FromStr;

use crate::obs::OBS_FLAGS;

/// One declared flag: a switch, or a flag followed by one value.
#[derive(Debug, Clone, Copy)]
pub struct Flag {
    name: &'static str,
    /// Placeholder of the value in the usage text (`N`, `FILE`, …);
    /// `None` for a switch.
    value: Option<&'static str>,
    default: Option<&'static str>,
    help: &'static str,
}

impl Flag {
    /// A flag that takes no value.
    pub const fn switch(name: &'static str, help: &'static str) -> Self {
        Flag {
            name,
            value: None,
            default: None,
            help,
        }
    }

    /// A flag followed by one value, shown as `placeholder` in `--help`.
    pub const fn value(name: &'static str, placeholder: &'static str, help: &'static str) -> Self {
        Flag {
            name,
            value: Some(placeholder),
            default: None,
            help,
        }
    }

    /// The value used when the flag is absent (shown in `--help`).
    pub const fn or(self, default: &'static str) -> Self {
        Flag {
            default: Some(default),
            ..self
        }
    }
}

/// A binary's command-line declaration.
#[derive(Debug, Clone, Copy)]
pub struct Cli {
    about: &'static str,
    flags: &'static [Flag],
    obs: bool,
}

/// Why parsing stopped short of an [`Args`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum CliError {
    /// `--help` was given; carries the usage text (exit 0).
    Help(String),
    /// A one-line usage error (exit 2).
    Usage(String),
}

impl Cli {
    /// Declares a binary described by the one-line `about`, taking `flags`.
    pub const fn new(about: &'static str, flags: &'static [Flag]) -> Self {
        Cli {
            about,
            flags,
            obs: false,
        }
    }

    /// Also accepts the observability flags (`--trace`, `--timeline`,
    /// `--metrics`, `--threads`; see [`crate::obs`]).
    pub const fn with_obs(self) -> Self {
        Cli { obs: true, ..self }
    }

    fn all_flags(&self) -> impl Iterator<Item = &'static Flag> {
        let obs: &'static [Flag] = if self.obs { OBS_FLAGS } else { &[] };
        self.flags.iter().chain(obs)
    }

    fn find(&self, name: &str) -> Option<&'static Flag> {
        self.all_flags().find(|f| f.name == name)
    }

    /// The `--help` text of binary `name`.
    fn usage(&self, name: &str) -> String {
        const HELP: Flag = Flag::switch("--help", "print this help and exit");
        let shown = |f: &Flag| match f.value {
            Some(v) => format!("{} {v}", f.name),
            None => f.name.to_owned(),
        };
        let flags: Vec<&Flag> = self.all_flags().chain([&HELP]).collect();
        let width = flags.iter().map(|f| shown(f).len()).max().unwrap_or(0);
        let mut out = format!(
            "{name} — {}\n\nusage: {name} [flags]\n\nflags:\n",
            self.about
        );
        for f in flags {
            let _ = write!(out, "  {:<width$}  {}", shown(f), f.help);
            match f.default {
                Some(d) => {
                    let _ = writeln!(out, " (default {d})");
                }
                None => out.push('\n'),
            }
        }
        out
    }

    /// Parses `argv`, program name first.
    pub(crate) fn parse(&self, argv: &[String]) -> Result<Args, CliError> {
        let name = argv
            .first()
            .and_then(|p| std::path::Path::new(p).file_name())
            .map_or_else(|| "repro".to_owned(), |f| f.to_string_lossy().into_owned());
        let error = |what: String| CliError::Usage(format!("{name}: {what} (see --help)"));
        let rest = argv.get(1..).unwrap_or_default();
        if rest.iter().any(|a| a == "--help") {
            return Err(CliError::Help(self.usage(&name)));
        }
        let mut given = Vec::new();
        let mut it = rest.iter();
        while let Some(arg) = it.next() {
            let Some(flag) = self.find(arg) else {
                let what = if arg.starts_with('-') {
                    "unknown flag"
                } else {
                    "unexpected argument"
                };
                return Err(error(format!("{what} `{arg}`")));
            };
            let value = match flag.value {
                None => None,
                Some(placeholder) => match it.next() {
                    Some(v) if !v.starts_with("--") => Some(v.clone()),
                    _ => return Err(error(format!("{} needs a value {placeholder}", flag.name))),
                },
            };
            given.push((flag.name, value));
        }
        Ok(Args {
            cli: *self,
            name,
            given,
        })
    }

    /// Parses the process arguments; prints the help and exits 0 on
    /// `--help`, prints the error and exits 2 on a usage error.
    pub fn parse_env(&self) -> Args {
        let argv: Vec<String> = std::env::args().collect();
        self.parse(&argv).unwrap_or_else(|e| exit(&e))
    }
}

/// Prints `e` where it belongs and exits with its code.
fn exit(e: &CliError) -> ! {
    match e {
        CliError::Help(text) => {
            print!("{text}");
            std::process::exit(0);
        }
        CliError::Usage(line) => {
            eprintln!("{line}");
            std::process::exit(2);
        }
    }
}

/// The flags one invocation gave (a repeated flag's last value wins).
#[derive(Debug, Clone)]
pub struct Args {
    cli: Cli,
    name: String,
    given: Vec<(&'static str, Option<String>)>,
}

impl Args {
    /// The given value of `name`, else its declared default.
    fn raw(&self, name: &str) -> Option<&str> {
        let flag = self.cli.find(name);
        debug_assert!(flag.is_some(), "{name} is not declared");
        self.given
            .iter()
            .rev()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| v.as_deref().unwrap_or(""))
            .or(flag.and_then(|f| f.default))
    }

    /// Whether switch `name` was given.
    pub fn switch(&self, name: &str) -> bool {
        self.raw(name).is_some()
    }

    fn try_value<T: FromStr>(&self, name: &str) -> Result<Option<T>, CliError> {
        self.raw(name).map(|v| self.convert(name, v)).transpose()
    }

    fn try_list<T: FromStr>(&self, name: &str) -> Result<Vec<T>, CliError> {
        match self.raw(name) {
            None => Ok(Vec::new()),
            Some(v) if v.trim().is_empty() => Err(self.error(&format!("{name} needs a value"))),
            Some(v) => v.split(',').map(|i| self.convert(name, i.trim())).collect(),
        }
    }

    /// The value of `name` (given or default) as `T`, `None` when the flag
    /// is absent and has no default. Exits 2 when the value does not parse.
    pub fn value<T: FromStr>(&self, name: &str) -> Option<T> {
        self.try_value(name).unwrap_or_else(|e| exit(&e))
    }

    /// The value of a flag declared with a default, as `T`. Exits 2 when
    /// the value does not parse.
    ///
    /// # Panics
    ///
    /// Panics when `name` was declared without a default.
    pub fn get<T: FromStr>(&self, name: &str) -> T {
        self.value(name)
            .unwrap_or_else(|| panic!("{name} is declared without a default"))
    }

    /// The comma-separated values of `name` (given or default) as `T`s,
    /// empty when absent without a default. Exits 2 when an item does not
    /// parse.
    pub fn list<T: FromStr>(&self, name: &str) -> Vec<T> {
        self.try_list(name).unwrap_or_else(|e| exit(&e))
    }

    /// Reports a usage error the declaration cannot express (say, a count
    /// that must be positive) and exits 2.
    pub fn fail(&self, what: &str) -> ! {
        exit(&self.error(what))
    }

    fn error(&self, what: &str) -> CliError {
        CliError::Usage(format!("{}: {what} (see --help)", self.name))
    }

    fn convert<T: FromStr>(&self, name: &str, v: &str) -> Result<T, CliError> {
        v.parse()
            .map_err(|_| self.error(&format!("invalid value `{v}` for {name}")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const FLAGS: &[Flag] = &[
        Flag::value("--node-cap", "N", "node budget").or("100"),
        Flag::value("--threads-list", "N,N,...", "thread counts").or("1,2"),
        Flag::value("--out", "FILE", "report path"),
        Flag::switch("--quick", "small run"),
    ];
    const CLI: Cli = Cli::new("a test binary", FLAGS);

    fn argv(v: &[&str]) -> Vec<String> {
        ["/path/to/repro_test"]
            .iter()
            .chain(v)
            .map(|s| (*s).to_owned())
            .collect()
    }

    fn usage_error(cli: &Cli, v: &[&str]) -> String {
        match cli.parse(&argv(v)) {
            Err(CliError::Usage(line)) => line,
            other => panic!("expected a usage error for {v:?}, got {other:?}"),
        }
    }

    #[test]
    fn help_lists_every_flag_and_wins_anywhere() {
        let Err(CliError::Help(text)) = CLI.parse(&argv(&["--quick", "--help", "--bogus"])) else {
            panic!("--help must stop parsing");
        };
        for needle in [
            "repro_test — a test binary",
            "--node-cap N",
            "node budget (default 100)",
            "--threads-list N,N,...",
            "--quick",
            "--help",
        ] {
            assert!(text.contains(needle), "help lacks `{needle}`:\n{text}");
        }
        assert!(
            !text.contains("--trace"),
            "observability flags only with_obs"
        );
        let Err(CliError::Help(text)) = CLI.with_obs().parse(&argv(&["--help"])) else {
            panic!("--help must stop parsing");
        };
        assert!(text.contains("--trace FILE") && text.contains("--metrics"));
    }

    #[test]
    fn unknown_flags_and_positionals_are_one_line_errors() {
        let line = usage_error(&CLI, &["--no-such-flag"]);
        assert_eq!(
            line,
            "repro_test: unknown flag `--no-such-flag` (see --help)"
        );
        assert!(usage_error(&CLI, &["stray"]).contains("unexpected argument `stray`"));
        // Observability flags are unknown unless declared.
        assert!(usage_error(&CLI, &["--metrics"]).contains("unknown flag `--metrics`"));
    }

    #[test]
    fn a_value_flag_without_its_value_is_an_error() {
        assert!(usage_error(&CLI, &["--out"]).contains("--out needs a value FILE"));
        // The next flag is not swallowed as the value.
        let line = usage_error(&CLI, &["--node-cap", "--quick"]);
        assert!(line.contains("--node-cap needs a value N"));
    }

    #[test]
    fn non_numeric_values_are_usage_errors() {
        let args = CLI
            .parse(&argv(&["--node-cap", "lots", "--threads-list", "1,x"]))
            .unwrap();
        assert_eq!(
            args.try_value::<u64>("--node-cap"),
            Err(CliError::Usage(
                "repro_test: invalid value `lots` for --node-cap (see --help)".to_owned()
            ))
        );
        assert!(args.try_list::<usize>("--threads-list").is_err());
        let args = CLI.parse(&argv(&["--node-cap", "-1"])).unwrap();
        assert!(args.try_value::<u64>("--node-cap").is_err());
        let args = CLI.parse(&argv(&["--threads-list", ""])).unwrap();
        assert!(args.try_list::<usize>("--threads-list").is_err());
    }

    #[test]
    fn values_defaults_and_switches() {
        let args = CLI
            .parse(&argv(&[
                "--node-cap",
                "7",
                "--threads-list",
                "1, 2,4",
                "--node-cap",
                "9",
            ]))
            .unwrap();
        assert_eq!(args.get::<u64>("--node-cap"), 9, "last value wins");
        assert_eq!(args.list::<usize>("--threads-list"), vec![1, 2, 4]);
        assert!(!args.switch("--quick"));
        let args = CLI.parse(&argv(&[])).unwrap();
        assert_eq!(args.get::<u64>("--node-cap"), 100);
        assert_eq!(args.list::<usize>("--threads-list"), vec![1, 2]);
        assert_eq!(args.value::<String>("--out"), None);
    }

    #[test]
    fn bin_flags_mix_with_observability_flags() {
        let args = CLI
            .with_obs()
            .parse(&argv(&[
                "--metrics",
                "--node-cap",
                "5",
                "--trace",
                "t.json",
                "--quick",
                "--threads",
                "2",
            ]))
            .unwrap();
        assert_eq!(args.get::<u64>("--node-cap"), 5);
        assert!(args.switch("--quick") && args.switch("--metrics"));
        assert_eq!(args.value::<String>("--trace").as_deref(), Some("t.json"));
        assert_eq!(args.value::<usize>("--threads"), Some(2));
    }
}
