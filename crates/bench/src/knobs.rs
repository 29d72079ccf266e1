//! The one front end for the binaries' `SCAR_*` environment knobs.
//!
//! [`KNOBS`] lists every knob with the binaries that consume it, in the
//! order of the README's knob table (a unit test keeps the two equal). A
//! binary opens its view with [`Knobs::of`] and reads every value through
//! [`Knobs::text`], [`Knobs::flag`] or [`Knobs::parse`]. Values are
//! trimmed, and unset or empty always means the default.

use std::collections::BTreeMap;
use std::fmt::Display;

/// Every `SCAR_*` knob and the binaries that consume it, in README order.
pub const KNOBS: &[(&str, &[&str])] = &[
    ("SCAR_THREADS", &["serve_sim"]),
    ("SCAR_POLICY", &["serve_sim"]),
    ("SCAR_POLICY_FILE", &["serve_sim"]),
    ("SCAR_ADMISSION", &["serve_sim"]),
    ("SCAR_TRAFFIC_SHAPE", &["serve_sim"]),
    ("SCAR_PREEMPT", &["serve_sim"]),
    ("SCAR_NSPLITS", &["serve_sim", "replay"]),
    ("SCAR_COST_DB", &["serve_sim", "replay"]),
    ("SCAR_COST_DB_MAX", &["serve_sim"]),
    ("SCAR_FLEET_SIZE", &["bench_fleet"]),
    ("SCAR_FLEET_HET", &["bench_fleet"]),
    ("SCAR_DISPATCH", &["bench_fleet"]),
    ("SCAR_FLEET_HORIZON_S", &["bench_fleet"]),
    ("SCAR_FABRIC", &["bench_fleet"]),
    ("SCAR_REHOME", &["bench_fleet"]),
    ("SCAR_FLEET_BASELINE", &["bench_fleet"]),
    (
        "SCAR_TRACE",
        &["serve_sim", "bench_overload", "bench_fleet"],
    ),
    ("SCAR_METRICS", &["serve_sim", "bench_fleet"]),
    ("SCAR_PERF_GATE", &["bench_overload", "bench_fleet"]),
    ("SCAR_SEARCH", &["replay"]),
    ("SCAR_REPLAY_MCM", &["replay"]),
    ("SCAR_REPLAY_FABRIC", &["replay"]),
    ("SCAR_REPLAY_BAND", &["replay"]),
    ("SCAR_EXPECT_ZERO_EVALS", &["serve_sim"]),
    ("SCAR_EXPECT_PREEMPTIONS", &["serve_sim"]),
];

fn consumes(bin: &str, name: &str) -> bool {
    KNOBS
        .iter()
        .any(|(knob, bins)| *knob == name && bins.contains(&bin))
}

/// One binary's view of the `SCAR_*` environment, read once by
/// [`Knobs::of`].
#[derive(Debug)]
pub struct Knobs {
    bin: &'static str,
    set: BTreeMap<String, String>,
}

impl Knobs {
    /// Reads the `SCAR_*` environment for `bin`, warning on stderr about
    /// every set name that `bin` does not consume, so a typo does not
    /// silently mean "default".
    pub fn of(bin: &'static str) -> Self {
        let vars = std::env::vars_os()
            .filter_map(|(k, v)| Some((k.into_string().ok()?, v.to_string_lossy().into_owned())));
        Self::from_vars(bin, vars)
    }

    fn from_vars(bin: &'static str, vars: impl IntoIterator<Item = (String, String)>) -> Self {
        let set: BTreeMap<String, String> = vars
            .into_iter()
            .filter(|(name, _)| name.starts_with("SCAR_"))
            .collect();
        for name in set.keys().filter(|name| !consumes(bin, name)) {
            eprintln!("warning: {bin} ignores {name} (see the README's knob table)");
        }
        Self { bin, set }
    }

    /// The trimmed value of `name`, or `None` when it is unset or empty.
    ///
    /// # Panics
    ///
    /// When [`KNOBS`] does not list `name` for this binary: reading an
    /// undeclared knob is a programming error.
    pub fn text(&self, name: &str) -> Option<&str> {
        assert!(
            consumes(self.bin, name),
            "{} reads {name}, which KNOBS does not list for it",
            self.bin
        );
        self.set
            .get(name)
            .map(|value| value.trim())
            .filter(|value| !value.is_empty())
    }

    /// Whether `name` is set to anything but `0`.
    pub fn flag(&self, name: &str) -> bool {
        self.text(name).is_some_and(|value| value != "0")
    }

    /// `name` run through `parse`, or `None` when it is unset or empty. A
    /// value `parse` rejects exits the process with status 2 after
    /// printing `NAME="value": reason`.
    pub fn parse<T, E: Display>(
        &self,
        name: &str,
        parse: impl FnOnce(&str) -> Result<T, E>,
    ) -> Option<T> {
        let value = self.text(name)?;
        match parse(value) {
            Ok(parsed) => Some(parsed),
            Err(reason) => {
                eprintln!("{name}={value:?}: {reason}");
                std::process::exit(2);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn view(bin: &'static str, vars: &[(&str, &str)]) -> Knobs {
        Knobs::from_vars(
            bin,
            vars.iter().map(|(k, v)| (k.to_string(), v.to_string())),
        )
    }

    #[test]
    fn readme_table_matches_knobs() {
        let readme = include_str!("../../../README.md");
        let rows: Vec<(String, Vec<String>)> = readme
            .lines()
            .filter(|line| line.starts_with("| `SCAR_"))
            .map(|line| {
                let cols: Vec<&str> = line.split('|').collect();
                let ticked = |col: &str| -> Vec<String> {
                    col.split('`')
                        .skip(1)
                        .step_by(2)
                        .map(String::from)
                        .collect()
                };
                (ticked(cols[1]).concat(), ticked(cols[2]))
            })
            .collect();
        let want: Vec<(String, Vec<String>)> = KNOBS
            .iter()
            .map(|(name, bins)| {
                (
                    name.to_string(),
                    bins.iter().map(|b| b.to_string()).collect(),
                )
            })
            .collect();
        assert_eq!(rows, want);
        assert_eq!(KNOBS.len(), 25);
    }

    #[test]
    fn values_are_trimmed_and_zero_or_empty_flags_are_off() {
        let knobs = view(
            "serve_sim",
            &[
                ("SCAR_EXPECT_ZERO_EVALS", "0"),
                ("SCAR_EXPECT_PREEMPTIONS", " 1 "),
                ("SCAR_PREEMPT", ""),
                ("SCAR_POLICY", "  NN-baton\n"),
                ("HOME", "/"),
            ],
        );
        assert!(!knobs.flag("SCAR_EXPECT_ZERO_EVALS"));
        assert!(knobs.flag("SCAR_EXPECT_PREEMPTIONS"));
        assert!(!knobs.flag("SCAR_PREEMPT"));
        assert!(!knobs.flag("SCAR_TRACE"));
        assert_eq!(knobs.text("SCAR_POLICY"), Some("NN-baton"));
        assert_eq!(knobs.parse("SCAR_NSPLITS", str::parse::<usize>), None);
    }

    #[test]
    #[should_panic(expected = "KNOBS does not list")]
    fn reading_an_undeclared_knob_panics() {
        view("replay", &[]).text("SCAR_FLEET_SIZE");
    }
}
