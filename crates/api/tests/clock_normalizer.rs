//! `normalize_report_json` — the one JSON-level clock normalizer — agrees
//! byte for byte with `Report::normalized()` on the example specs.

use greencloud_api::harness::REPRO_SEED;
use greencloud_api::{normalize_report_json, Engine, ExperimentSpec};
use greencloud_climate::catalog::WorldCatalog;

#[test]
fn json_normalizer_matches_report_normalized_on_the_examples() {
    let engine = Engine::new(WorldCatalog::anchors_only(REPRO_SEED));
    for name in ["quick", "durable", "faults"] {
        let path = format!(
            "{}/../../examples/{name}.spec.json",
            env!("CARGO_MANIFEST_DIR")
        );
        let text = std::fs::read_to_string(&path).expect("example spec");
        let spec = ExperimentSpec::from_json_str(&text).expect("example parses");
        let report = engine.run(&spec).expect("example runs");
        assert_eq!(
            normalize_report_json(&report.to_json_string()).expect("report parses"),
            report.normalized().to_json_string(),
            "{name}"
        );
    }
}
