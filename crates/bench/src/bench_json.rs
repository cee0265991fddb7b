//! Machine-readable benchmark records (`BENCH_lp.json`).
//!
//! `repro timing` (and the `quick` CI smoke, on a reduced workload) write
//! the LP-substrate benchmark numbers to `BENCH_lp.json` so the perf
//! trajectory is tracked across PRs instead of living only in stdout logs.
//! The document model comes from [`greencloud_api::json`] (the vendored
//! dependency set has no `serde_json`); this module keeps the fixed
//! `greencloud-bench-lp/1` schema on top of it.

use greencloud_api::json::Json;
use greencloud_api::report::TimingRecord;
use std::fmt::Write as _;

/// One benchmark row of `BENCH_lp.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchRecord {
    /// Bench name, e.g. `"hourly_resolve_96rounds/warm"`.
    pub name: String,
    /// Wall time in milliseconds.
    pub wall_ms: f64,
    /// Simplex iterations spent (0 when not applicable).
    pub iterations: usize,
    /// Warm-start rate in `[0, 1]` (0 when not applicable).
    pub warm_rate: f64,
}

impl From<&TimingRecord> for BenchRecord {
    fn from(r: &TimingRecord) -> Self {
        Self {
            name: r.name.clone(),
            wall_ms: r.wall_ms,
            iterations: r.iterations,
            warm_rate: r.warm_rate,
        }
    }
}

/// Schema identifier written to (and required from) `BENCH_lp.json`.
pub const BENCH_SCHEMA: &str = "greencloud-bench-lp/1";

/// Renders the records as the `BENCH_lp.json` document.
pub fn render_bench_json(records: &[BenchRecord]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{{");
    let _ = writeln!(out, "  \"schema\": \"{BENCH_SCHEMA}\",");
    let _ = writeln!(out, "  \"benches\": [");
    for (i, r) in records.iter().enumerate() {
        let comma = if i + 1 == records.len() { "" } else { "," };
        let _ = writeln!(
            out,
            "    {{\"name\": {}, \"wall_ms\": {:.3}, \"iterations\": {}, \"warm_rate\": {:.4}}}{comma}",
            greencloud_api::json::quote(&r.name),
            r.wall_ms,
            r.iterations,
            r.warm_rate
        );
    }
    let _ = writeln!(out, "  ]");
    let _ = writeln!(out, "}}");
    out
}

/// Parses a `BENCH_lp.json` document back into records, validating the
/// schema tag and per-record field types.
///
/// # Errors
///
/// A human-readable description of the first structural problem found.
pub fn parse_bench_json(text: &str) -> Result<Vec<BenchRecord>, String> {
    let doc = Json::parse(text).map_err(|e| e.to_string())?;
    if !matches!(&doc, Json::Object(_)) {
        return Err("top level is not an object".into());
    }
    match doc.get("schema") {
        Some(Json::Str(s)) if s == BENCH_SCHEMA => {}
        other => return Err(format!("unexpected schema: {other:?}")),
    }
    let rows = doc
        .get("benches")
        .ok_or("missing \"benches\"")?
        .as_array()
        .ok_or("\"benches\" is not an array")?;
    let mut records = Vec::with_capacity(rows.len());
    for (i, row) in rows.iter().enumerate() {
        let name = match row.get("name") {
            Some(Json::Str(s)) => s.clone(),
            _ => return Err(format!("bench #{i}: missing string \"name\"")),
        };
        let wall_ms = row
            .get("wall_ms")
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("bench #{i}: missing number \"wall_ms\""))?;
        let iterations = row
            .get("iterations")
            .and_then(Json::as_usize)
            .ok_or_else(|| format!("bench #{i}: missing integer \"iterations\""))?;
        let warm_rate = row
            .get("warm_rate")
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("bench #{i}: missing number \"warm_rate\""))?;
        records.push(BenchRecord {
            name,
            wall_ms,
            iterations,
            warm_rate,
        });
    }
    Ok(records)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips() {
        let records = vec![
            BenchRecord {
                name: "warm_vs_cold/single_site_cold".into(),
                wall_ms: 17.25,
                iterations: 591,
                warm_rate: 0.0,
            },
            BenchRecord {
                name: "hourly \"quoted\"".into(),
                wall_ms: 0.5,
                iterations: 0,
                warm_rate: 0.9896,
            },
        ];
        let text = render_bench_json(&records);
        let back = parse_bench_json(&text).expect("parses");
        assert_eq!(back.len(), 2);
        assert_eq!(back[0].name, records[0].name);
        assert_eq!(back[0].iterations, 591);
        assert!((back[0].wall_ms - 17.25).abs() < 1e-9);
        assert_eq!(back[1].name, records[1].name);
        assert!((back[1].warm_rate - 0.9896).abs() < 1e-9);
    }

    #[test]
    fn rejects_malformed_documents() {
        assert!(parse_bench_json("").is_err());
        assert!(parse_bench_json("[]").is_err());
        assert!(parse_bench_json("{\"schema\": \"other\", \"benches\": []}").is_err());
        assert!(parse_bench_json(
            "{\"schema\": \"greencloud-bench-lp/1\", \"benches\": [{\"name\": 3}]}"
        )
        .is_err());
        let ok = parse_bench_json("{\"schema\": \"greencloud-bench-lp/1\", \"benches\": []}");
        assert_eq!(ok.expect("valid"), vec![]);
    }

    #[test]
    fn converts_timing_records() {
        let t = greencloud_api::report::TimingRecord {
            name: "single_site_cold/devex".into(),
            wall_ms: 3.5,
            iterations: 120,
            warm_rate: 0.25,
        };
        let b = BenchRecord::from(&t);
        assert_eq!(b.name, "single_site_cold/devex");
        assert_eq!(b.iterations, 120);
    }
}
