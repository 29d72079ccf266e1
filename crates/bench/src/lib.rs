//! Experiment harness for the SCAR reproduction: strategy runners, table
//! formatting, normalization, Pareto utilities and the `SCAR_*` knob
//! table shared by the binaries (see DESIGN.md §4 for the experiment index).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod artifacts;
pub mod knobs;
pub mod pareto;
pub mod replay;
pub mod strategy;
pub mod table;

pub use knobs::Knobs;
pub use pareto::ascii_scatter;
pub use replay::{replay_artifacts, replay_file, ReplayDiff, ReplayOptions};
pub use strategy::{run_strategies, LabeledResult, Strategy};
pub use table::Table;
