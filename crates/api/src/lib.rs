//! The unified experiment API for the `greencloud` workspace: one typed,
//! serializable front door for siting, operation, and sweeps.
//!
//! Every stage of the paper's pipeline used to have its own ad-hoc entry
//! point (`PlacementTool`, `anneal`, `milp::solve_exact`, `emulation::run`,
//! `run_sweep`, a string-dispatching `repro` binary). This crate redesigns
//! the public surface around three concepts:
//!
//! * [`ExperimentSpec`] — a serde-shaped, JSON-round-trippable description
//!   of one experiment (`Siting`, `ExactSiting`, `Annual`, `Sweep`,
//!   `Timing`), versioned under [`spec::SPEC_SCHEMA`].
//! * [`Engine`] — a handle owning the `WorldCatalog` and `CostParams` that
//!   builds candidate sites once, caches them per profile clock, and runs
//!   specs (concurrently via [`Engine::run_all`]).
//! * [`Report`] — the structured result with uniform solver rollups and a
//!   stable JSON serialization, versioned under [`report::REPORT_SCHEMA`].
//!
//! ```no_run
//! use greencloud_api::{Engine, ExperimentSpec, SitingSpec, SearchSpec};
//! use greencloud_climate::catalog::WorldCatalog;
//! use greencloud_core::framework::PlacementInput;
//!
//! # fn main() -> Result<(), greencloud_api::ApiError> {
//! let engine = Engine::new(WorldCatalog::synthetic(120, 42));
//! let spec = ExperimentSpec::Siting(SitingSpec {
//!     input: PlacementInput::default(),
//!     search: SearchSpec::default(),
//! });
//! let report = engine.run(&spec)?;
//! println!("{}", report.render_text());
//! # Ok(())
//! # }
//! ```
//!
//! Specs and reports round-trip through [`json`], a dependency-free JSON
//! document model (the vendored crate set has no `serde_json`), so a spec
//! saved with [`ExperimentSpec::to_json_string`] and replayed via
//! `repro run spec.json` reproduces the equivalent programmatic run.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engine;
pub mod error;
pub mod harness;
pub mod http;
pub mod json;
pub mod report;
pub mod router;
pub mod serve;
pub mod spec;
pub mod store;
pub mod wallclock;

pub use engine::{CancelRegistry, Engine, Progress};
pub use error::{ApiError, SpecError, ERROR_SCHEMA};
pub use http::ShutdownHandle;
pub use report::{
    normalize_report_json, AnnualReport, Report, ReportBody, SitingReport, SolverRollup,
    SweepReport, SweepRow, TimingRecord, TimingReport, WarmVsCold, REPORT_SCHEMA,
    RESILIENCE_SCHEMA,
};
pub use router::{Router, RouterConfig, RouterHandle, RouterSummary, ROUTER_STATS_SCHEMA};
pub use serve::{ServeConfig, ServeHandle, ServeSummary, Server, PROGRESS_SCHEMA};
pub use spec::{
    AnnualSpec, ExactSitingSpec, ExperimentSpec, SearchSpec, SitingSpec, SweepAxes, SweepMode,
    SweepSpec, TimingSpec, SPEC_SCHEMA,
};
pub use store::{
    job_id, ring_key, ring_key_of_job_id, JobStatus, JobStore, StoreError, StoreStats, JOB_SCHEMA,
};
