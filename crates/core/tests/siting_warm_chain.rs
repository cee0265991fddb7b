//! Warm starts across neighbouring sitings, and exactness of the exact
//! path that relies on them.
//!
//! The single-site siting LPs of one candidate set all have the same
//! shape, so one site's optimal basis is a valid starting point for the
//! next site's LP. Its basic solution is usually primal infeasible there,
//! and the dual restoration has to repair it. These tests pin that the
//! repair succeeds (the solve reports `warm_started`), that it is cheaper
//! than solving cold, and that it lands on the cold optimum.

use greencloud_climate::catalog::WorldCatalog;
use greencloud_climate::profiles::ProfileConfig;
use greencloud_core::candidate::CandidateSite;
use greencloud_core::filter::filter_candidates;
use greencloud_core::formulation::build_network_lp_cached;
use greencloud_core::framework::{PlacementInput, SizeClass, TechMix};
use greencloud_core::milp::{solve_exact, ExactOptions};
use greencloud_core::siteblock::SiteBlockCache;
use greencloud_cost::params::CostParams;
use greencloud_lp::SimplexOptions;

/// The seed of the anchors world that the served experiments run on.
const WORLD_SEED: u64 = 20140701;

/// The four cheapest anchor-world candidates on the coarse clock, kept the
/// way an ExactSiting spec with `filter_keep: 4` keeps them.
fn kept_candidates(params: &CostParams, input: &PlacementInput) -> Vec<CandidateSite> {
    let world = WorldCatalog::anchors_only(WORLD_SEED);
    let all = CandidateSite::build_all(&world, &ProfileConfig::coarse());
    filter_candidates(params, input, &all, 4)
        .into_iter()
        .map(|i| all[i].clone())
        .collect()
}

fn assert_close(got: f64, want: f64, what: &str) {
    let rel = (got - want).abs() / want.abs().max(1.0);
    assert!(rel <= 1e-9, "{what}: {got} vs {want} (rel {rel:.2e})");
}

#[test]
fn single_site_bases_chain_warm_across_sites() {
    let params = CostParams::default();
    let input = PlacementInput {
        min_availability: 0.998,
        min_green_fraction: 0.7,
        tech: TechMix::WindOnly,
        ..PlacementInput::default()
    };
    let cands = kept_candidates(&params, &input);
    assert_eq!(cands.len(), 4);
    let blocks = SiteBlockCache::new();

    let mut basis = None;
    for ci in 0..cands.len() {
        let lp =
            build_network_lp_cached(&params, &input, &cands, &[(ci, SizeClass::Large)], &blocks);
        let (cold, _) = lp
            .solve_warm(SimplexOptions::default(), None)
            .expect("cold solve");
        let (warm, next) = lp
            .solve_warm(SimplexOptions::default(), basis.as_ref())
            .expect("warm solve");
        if ci > 0 {
            assert!(warm.warm_started, "site {ci}: warm start fell back to cold");
            assert!(
                warm.iterations < cold.iterations,
                "site {ci}: warm {} iterations, cold {}",
                warm.iterations,
                cold.iterations
            );
        }
        assert_close(warm.monthly_cost, cold.monthly_cost, &format!("site {ci}"));
        basis = next;
    }
}

/// Cheapest siting of exactly `size` members found by cold-solving every
/// subset and size-class assignment, as `(cost, siting)`.
fn cold_reference(
    params: &CostParams,
    input: &PlacementInput,
    cands: &[CandidateSite],
    size: usize,
) -> Option<(f64, Vec<(usize, SizeClass)>)> {
    let n = cands.len();
    let blocks = SiteBlockCache::new();
    let mut best: Option<(f64, Vec<(usize, SizeClass)>)> = None;
    for mask in 1u32..(1 << n) {
        let members: Vec<usize> = (0..n).filter(|i| mask >> i & 1 == 1).collect();
        if members.len() != size {
            continue;
        }
        for classes in 0u32..(1 << size) {
            let siting: Vec<(usize, SizeClass)> = members
                .iter()
                .enumerate()
                .map(|(j, &ci)| {
                    let class = if classes >> j & 1 == 1 {
                        SizeClass::Large
                    } else {
                        SizeClass::Small
                    };
                    (ci, class)
                })
                .collect();
            let lp = build_network_lp_cached(params, input, cands, &siting, &blocks);
            if let Ok(d) = lp.solve() {
                if best.as_ref().is_none_or(|(c, _)| d.monthly_cost < *c) {
                    best = Some((d.monthly_cost, siting));
                }
            }
        }
    }
    best
}

#[test]
fn exact_path_matches_cold_enumeration() {
    let params = CostParams::default();
    let cases = [
        (TechMix::WindOnly, 0.7, 0.998, 1),
        (TechMix::SolarOnly, 0.5, 0.998, 1),
        (TechMix::Both, 0.6, 0.0, 2),
    ];
    for (tech, green, availability, max_sites) in cases {
        let input = PlacementInput {
            min_availability: availability,
            min_green_fraction: green,
            tech,
            ..PlacementInput::default()
        };
        let cands = kept_candidates(&params, &input);
        let options = ExactOptions {
            max_candidates: cands.len(),
            max_sites,
        };
        let (siting, dispatch) =
            solve_exact(&params, &input, &cands, &options).expect("exact solve");

        let mut reference: Option<(f64, Vec<(usize, SizeClass)>)> = None;
        for size in 1..=max_sites {
            if let Some((c, s)) = cold_reference(&params, &input, &cands, size) {
                if reference.as_ref().is_none_or(|(bc, _)| c < *bc) {
                    reference = Some((c, s));
                }
            }
        }
        let (want_cost, want_siting) = reference.expect("a feasible siting");
        let what = format!("{tech:?}/{green}/max_sites {max_sites}");
        assert_close(dispatch.monthly_cost, want_cost, &what);
        assert_eq!(siting, want_siting, "{what}");
    }
}
