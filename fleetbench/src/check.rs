//! The output check: every 2xx report must equal an in-process
//! `Engine::run` of the same spec, compared as `Report::normalized()`
//! bytes.
//!
//! Known defect, kept visible: a Siting report's `evaluations` and its
//! `solver` rollup differ from run to run of the same spec, even at one
//! thread, because the annealing chains race on their shared eval cache.
//! Those two fields are left out of the equality for Siting reports and
//! their spread is reported instead. The same race also decides which
//! warm-started solve's dispatch is kept for the best siting, so some
//! Siting reports differ from the reference in more than the counters:
//! last-bit drift in costs and sizes, and alternative optima with the same
//! cost but a different green fraction. Those would fail the check; that
//! is why the benchmark has no heuristic Siting workload (see the README).

use greencloud_api::json::Json;
use greencloud_api::{Engine, ExperimentSpec, Report};

pub const KNOWN_DEFECT: &str = "siting-counter-nondeterminism: Siting reports' `evaluations` \
and `solver` rollup vary between runs of one spec (annealing chains race on the shared eval \
cache); excluded from the byte equality, spread reported as anneal.*/lp.* metrics. The same \
race can also change a Siting report's dispatch (last-bit drift, alternative optima); those \
reports fail the check and are counted in anneal.report_mismatch_ratio";

/// Zeroes what `Report::normalized` zeroes, on a parsed report document.
/// For heuristic Siting reports the nondeterministic counters are
/// dropped; ExactSiting reports share the body but keep them.
fn normalize(doc: &mut Json) {
    let heuristic = doc.get("experiment").and_then(Json::as_str) == Some("siting");
    let Json::Object(fields) = doc else { return };
    for (k, v) in fields.iter_mut() {
        match (k.as_str(), v) {
            ("wall_ms", v) => *v = Json::Number(0.0),
            ("siting", Json::Object(body)) if heuristic => {
                body.retain(|(k, _)| k != "evaluations" && k != "solver");
            }
            ("annual", Json::Object(body)) => {
                for (k, v) in body.iter_mut() {
                    if let ("solver", Json::Object(solver)) = (k.as_str(), v) {
                        for (k, v) in solver.iter_mut() {
                            if k == "pricing_ms" {
                                *v = Json::Number(0.0);
                            }
                        }
                    }
                }
            }
            _ => {}
        }
    }
}

/// The bytes two reports of the same spec must agree on.
pub fn comparable(report_json: &str) -> Option<String> {
    let mut doc = Json::parse(report_json).ok()?;
    normalize(&mut doc);
    Some(doc.render())
}

/// The reference: an in-process run of `spec`, rendered for comparison.
pub struct Reference {
    pub report: Report,
    pub wall_ms: f64,
    pub comparable: String,
}

pub fn reference(engine: &Engine, spec: &ExperimentSpec) -> Result<Reference, String> {
    let t0 = crate::util::now_s();
    let report = engine.run(spec).map_err(|e| e.to_string())?;
    let wall_ms = (crate::util::now_s() - t0) * 1e3;
    let comparable = comparable(&report.normalized().to_json_string())
        .ok_or("reference report does not parse")?;
    Ok(Reference {
        report,
        wall_ms,
        comparable,
    })
}

/// The engine the backends run: `repro serve`'s default anchors world.
pub fn engine() -> Engine {
    Engine::new(greencloud_climate::catalog::WorldCatalog::anchors_only(
        greencloud_api::harness::REPRO_SEED,
    ))
}
