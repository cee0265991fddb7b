//! Shared helpers for the reproduction harness and the Criterion benches.
//!
//! The experiment fixtures (seeds, worlds, Table III profiles, rolling
//! states) live in [`greencloud_api::harness`] so the engine's timing
//! experiment and the benches agree on them; this crate re-exports the lot
//! and keeps only the presentation-side helpers the paper-figure
//! experiments in `repro` use.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bench_json;

pub use greencloud_api::harness::{
    anchor_candidates, repro_search, rolling_states, table3_profiles, world, SiteProfile,
    REPRO_SEED,
};

use greencloud_api::spec::SearchSpec;
use greencloud_core::framework::{PlacementInput, StorageMode, TechMix};
use greencloud_core::tool::{default_threads, PlacementTool, ToolOptions};
use greencloud_cost::params::CostParams;

/// Standard tool options for reproduction runs (coarse but deterministic),
/// derived from the shared [`repro_search`] tuning.
pub fn tool_options(fast: bool) -> ToolOptions {
    repro_search(fast).tool_options(default_threads())
}

/// Builds a ready placement tool over `locations` synthetic sites.
///
/// Figure experiments that need per-location solves use this; whole-siting
/// experiments go through [`greencloud_api::Engine`] instead.
pub fn tool(locations: usize, fast: bool) -> PlacementTool {
    PlacementTool::new(&world(locations), CostParams::default(), tool_options(fast))
}

/// The siting specs used by Figs. 8–12: green fractions × technology.
pub fn sweep_inputs(storage: StorageMode) -> Vec<(f64, TechMix, PlacementInput)> {
    let mut out = Vec::new();
    for &g in &[0.0, 0.25, 0.50, 0.75, 1.0] {
        for &tech in &[TechMix::WindOnly, TechMix::SolarOnly, TechMix::Both] {
            let input = PlacementInput {
                storage,
                ..PlacementInput::default()
            }
            .with_green(g, tech);
            out.push((g, tech, input));
        }
    }
    out
}

/// The search spec for a reproduction siting experiment (re-export helper
/// so `repro` can build [`greencloud_api::SitingSpec`]s in one line).
pub fn siting_search(fast: bool) -> SearchSpec {
    repro_search(fast)
}

/// Pretty technology label.
pub fn tech_label(t: TechMix) -> &'static str {
    match t {
        TechMix::BrownOnly => "brown",
        TechMix::WindOnly => "wind",
        TechMix::SolarOnly => "solar",
        TechMix::Both => "wind+solar",
    }
}

/// The flag cursor shared by the `repro` and `loadgen` parsers: an unknown
/// flag, a missing value, or a value that does not parse ends the process
/// with exit code 2 and the binary's usage text — never a silent default.
pub struct Args {
    args: Vec<String>,
    at: usize,
    usage: &'static str,
}

impl Args {
    /// The process arguments after the binary name.
    pub fn from_env(usage: &'static str) -> Args {
        Args {
            args: std::env::args().skip(1).collect(),
            at: 0,
            usage,
        }
    }

    /// The next argument, if any.
    pub fn next_arg(&mut self) -> Option<String> {
        let arg = self.args.get(self.at).cloned();
        self.at += 1;
        arg
    }

    /// The value of the flag just read, parsed as `T`.
    pub fn value<T: std::str::FromStr>(&mut self) -> T {
        let flag = self.args.get(self.at.wrapping_sub(1)).cloned();
        let flag = flag.unwrap_or_default();
        match self.next_arg().map(|v| v.parse::<T>()) {
            Some(Ok(v)) => v,
            Some(Err(_)) => self.fail(&format!("{flag}: value does not parse")),
            None => self.fail(&format!("{flag} needs a value")),
        }
    }

    /// A comma-separated list value (empty items dropped).
    pub fn list(&mut self) -> Vec<String> {
        let raw: String = self.value();
        raw.split(',')
            .map(str::trim)
            .filter(|b| !b.is_empty())
            .map(str::to_string)
            .collect()
    }

    /// Prints `msg` and the usage text, then exits with code 2.
    pub fn fail(&self, msg: &str) -> ! {
        eprintln!("{msg}\n{}", self.usage);
        std::process::exit(2)
    }
}
