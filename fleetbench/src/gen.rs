//! Seeded workload generators. The program under test only ever sees the
//! specs these functions return, serialized with
//! `ExperimentSpec::to_json_string`.
//!
//! Draws are stratified: each run walks a seed-shuffled grid of
//! technology and green target (sitings) or window length (annual jobs)
//! with seeded jitter inside each cell, so every run sees the same mix of
//! those cost drivers.

use crate::util::Rng;
use greencloud_api::harness::repro_search;
use greencloud_api::{job_id, AnnualSpec, ExactSitingSpec, ExperimentSpec, SitingSpec};
use greencloud_core::framework::{PlacementInput, TechMix};
use greencloud_nebula::emulation::EmulationConfig;
use greencloud_nebula::wan::WanModel;

/// One generated input: the spec and the exact bytes sent.
#[derive(Clone)]
pub struct Input {
    pub spec: ExperimentSpec,
    pub body: String,
}

impl Input {
    fn new(spec: ExperimentSpec) -> Input {
        let body = spec.to_json_string();
        Input { spec, body }
    }
}

/// Hours in the synthetic TMY year.
const YEAR_HOURS: usize = 8760;

/// `n` distinct fast-search Siting specs over the default (anchors)
/// world (`repro_search(true)`). The profile clock is fixed, so they all
/// share the candidate cache; `search.seed`, `min_green_fraction` and
/// `tech` vary.
pub fn sitings(seed: u64, n: usize) -> Vec<Input> {
    let mut rng = Rng::new(seed ^ 0x5171_0000);
    let techs = [TechMix::Both, TechMix::SolarOnly, TechMix::WindOnly];
    let greens = [(0.2, 0.4), (0.4, 0.6), (0.6, 0.8), (0.8, 0.95)];
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        let mut cells: Vec<(usize, usize)> = (0..techs.len())
            .flat_map(|t| (0..greens.len()).map(move |g| (t, g)))
            .collect();
        rng.shuffle(&mut cells);
        for (t, g) in cells {
            let mut search = repro_search(true);
            search.seed = rng.next_u64() >> 16;
            let input = PlacementInput {
                min_green_fraction: rng.range(greens[g].0, greens[g].1),
                tech: techs[t],
                ..PlacementInput::default()
            };
            out.push(Input::new(ExperimentSpec::Siting(SitingSpec {
                input,
                search,
            })));
        }
    }
    out.truncate(n);
    out
}

/// Network availability asked of `exact_sitings`: one 99.827%-available
/// datacenter meets it, so single-site sitings are feasible.
const EXACT_MIN_AVAILABILITY: f64 = 0.998;

/// `n` distinct ExactSiting specs: every single-datacenter siting over the
/// four cheapest candidates, one siting LP each (about 0.1 s per spec on a
/// 2-core host, so a run holds hundreds of requests). The seed draws
/// `min_green_fraction` and `tech` as for [`sitings`]; the profile clock
/// is the same, so the candidate cache is shared. Unlike the heuristic
/// search the result is deterministic.
pub fn exact_sitings(seed: u64, n: usize) -> Vec<Input> {
    sitings(seed ^ 0xE7AC, n)
        .into_iter()
        .map(|i| match i.spec {
            ExperimentSpec::Siting(s) => Input::new(ExperimentSpec::ExactSiting(ExactSitingSpec {
                input: PlacementInput {
                    min_availability: EXACT_MIN_AVAILABILITY,
                    ..s.input
                },
                profile: s.search.profile,
                filter_keep: 4,
                max_candidates: 4,
                max_sites: 1,
            })),
            other => Input::new(other),
        })
        .collect()
}

/// A cheap Siting spec on the same profile clock as [`sitings`]: solving
/// it makes a backend build (and cache) the candidate set.
pub fn candidate_warmup() -> Input {
    let mut search = repro_search(true);
    search.iterations = 1;
    search.patience = 1;
    search.chains = 1;
    search.seed = 1;
    Input::new(ExperimentSpec::Siting(SitingSpec {
        input: PlacementInput::default(),
        search,
    }))
}

/// An Annual spec over the Table III network.
fn annual(hours: usize, start_hour: usize, window: usize, battery_kwh: f64, scale: f64) -> Input {
    let mut config = EmulationConfig {
        vm_count: 24,
        hours,
        start_hour,
        wan: WanModel {
            bandwidth_mbps: 10_000.0,
            max_precopy_rounds: 4,
        },
        battery_efficiency: 0.75,
        net_meter_credit: Some(1.0),
        ..EmulationConfig::default()
    };
    config.scheduler.window_hours = window;
    config.scheduler.migration_fraction = 1.0;
    config.scheduler.migration_penalty = 0.001;
    for site in &mut config.sites {
        site.solar_mw = (site.solar_mw * scale * 100.0).round() / 100.0;
        site.wind_mw = (site.wind_mw * scale * 1000.0).round() / 1000.0;
        site.battery_kwh = battery_kwh.round();
    }
    Input::new(ExperimentSpec::Annual(AnnualSpec {
        config,
        include_trace: false,
    }))
}

/// `n` distinct 720 h Annual specs for the durable-job workload: the seed
/// draws `start_hour`, `window_hours`, battery size and plant scale, so
/// the green share varies instead of sitting at 100%.
pub fn annual_jobs(seed: u64, n: usize) -> Vec<Input> {
    let mut rng = Rng::new(seed ^ 0xA770_0000);
    let windows = [8usize, 12, 16];
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        let mut cells = windows.to_vec();
        rng.shuffle(&mut cells);
        for window in cells {
            let start = rng.below(YEAR_HOURS - 720);
            let battery = rng.range(0.0, 20_000.0);
            let scale = rng.range(0.05, 0.6);
            out.push(annual(720, start, window, battery, scale));
        }
    }
    out.truncate(n);
    out
}

/// `n` distinct one-day Annual specs: cheap to solve, so the HTTP probes
/// use them for cache hits and short jobs.
pub fn hit_set(seed: u64, n: usize) -> Vec<Input> {
    let mut rng = Rng::new(seed ^ 0x4177_0000);
    (0..n)
        .map(|i| {
            // Distinct start hours by construction: one per 24 h stride.
            let start =
                (i * (YEAR_HOURS / n) + rng.below(YEAR_HOURS / n - 24)).min(YEAR_HOURS - 24);
            annual(24, start, 12, rng.range(0.0, 20_000.0), rng.range(0.2, 1.0))
        })
        .collect()
}

/// A digest of the exact bytes of a spec list, so two runs can be shown
/// to have replayed identical input.
pub fn digest(inputs: &[Input]) -> String {
    let mut all = Vec::new();
    for i in inputs {
        all.extend_from_slice(i.body.as_bytes());
        all.push(0);
    }
    job_id(&all)
}
