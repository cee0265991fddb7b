//! Warm-start behaviour: basis round-tripping, repair of stale or singular
//! snapshots, and cross-model basis transfer. The invariant throughout:
//! supplying *any* basis never changes the reported optimum, only the work
//! needed to reach it.

use greencloud_lp::revised::{Basis, BasisStatus, RevisedSimplex, SimplexOptions};
use greencloud_lp::{Model, Sense};

fn solver() -> RevisedSimplex {
    RevisedSimplex::new(SimplexOptions::default())
}

/// A small production-style LP with a unique optimum.
fn sample_model() -> Model {
    let mut m = Model::new();
    let x = m.add_var("x", 0.0, 10.0, 1.0);
    let y = m.add_var("y", 0.0, 10.0, 2.0);
    let z = m.add_var("z", 0.0, 10.0, 0.5);
    m.add_con("need", [(x, 1.0), (y, 1.0), (z, 1.0)], Sense::Ge, 12.0);
    m.add_con("mix", [(x, 1.0), (y, -1.0)], Sense::Le, 4.0);
    m.add_con("zcap", [(z, 1.0)], Sense::Le, 5.0);
    m
}

#[test]
fn round_trip_converges_in_at_most_one_iteration() {
    let m = sample_model();
    let cold = solver().solve(&m).expect("cold solve");
    let basis = cold.basis.as_ref().expect("basis exported");
    let warm = solver().solve_warm(&m, Some(basis)).expect("warm solve");
    assert!(
        warm.warm_started,
        "identical re-solve must accept the basis"
    );
    assert!(warm.iterations <= 1, "took {} iterations", warm.iterations);
    assert!((warm.objective - cold.objective).abs() < 1e-9);
    for (a, b) in warm.values.iter().zip(cold.values.iter()) {
        assert!((a - b).abs() < 1e-9);
    }
}

#[test]
fn singular_basis_is_repaired_to_cold_optimum() {
    // x and y have linearly dependent columns; forcing both basic with all
    // slacks nonbasic builds a singular basis. The installer repairs it by
    // swapping the dependent column for an uncovered row's slack, and the
    // repaired warm solve still reaches the cold optimum.
    let mut m = Model::new();
    let x = m.add_var("x", 0.0, f64::INFINITY, 1.0);
    let y = m.add_var("y", 0.0, f64::INFINITY, 3.0);
    m.add_con("r1", [(x, 1.0), (y, 1.0)], Sense::Ge, 2.0);
    m.add_con("r2", [(x, 2.0), (y, 2.0)], Sense::Ge, 4.0);
    let cold = solver().solve(&m).expect("cold solve");

    let singular = Basis::from_statuses(vec![
        BasisStatus::Basic,   // x
        BasisStatus::Basic,   // y  (dependent with x)
        BasisStatus::AtLower, // slack r1
        BasisStatus::AtLower, // slack r2
    ]);
    let warm = solver()
        .solve_warm(&m, Some(&singular))
        .expect("repairs or falls back");
    assert!((warm.objective - cold.objective).abs() < 1e-9);

    // A snapshot that is beyond repair (more basics than rows) still falls
    // back to the crash basis.
    let overfull = Basis::from_statuses(vec![BasisStatus::Basic; 4]);
    let cold2 = solver()
        .solve_warm(&m, Some(&overfull))
        .expect("falls back");
    assert!(!cold2.warm_started, "malformed snapshot must be rejected");
    assert!((cold2.objective - cold.objective).abs() < 1e-9);
}

#[test]
fn wrong_shape_basis_falls_back() {
    let m = sample_model();
    let alien = Basis::from_statuses(vec![BasisStatus::Basic; 2]);
    let cold = solver().solve(&m).expect("cold");
    let warm = solver().solve_warm(&m, Some(&alien)).expect("fallback");
    assert!(!warm.warm_started);
    assert!((warm.objective - cold.objective).abs() < 1e-9);
}

#[test]
fn stale_bound_statuses_are_repaired() {
    // Solve a model where y sits at its upper bound, then relax that bound
    // to infinity: the exported `AtUpper` status no longer refers to a
    // finite bound and must be remapped, not trusted.
    let mut m = Model::new();
    let x = m.add_var("x", 0.0, 10.0, 1.0);
    let y = m.add_var("y", 0.0, 3.0, -1.0);
    m.add_con("link", [(x, 1.0), (y, 1.0)], Sense::Ge, 2.0);
    let first = solver().solve(&m).expect("solve");
    assert!((first.values[y.index()] - 3.0).abs() < 1e-9, "y at ub");
    let basis = first.basis.clone().expect("basis");

    let mut relaxed = m.clone();
    relaxed.set_bounds(y, 0.0, f64::INFINITY);
    relaxed.set_obj(y, 1.0); // keep it bounded
    let cold = solver().solve(&relaxed).expect("cold");
    let warm = solver()
        .solve_warm(&relaxed, Some(&basis))
        .expect("warm or fallback");
    assert!((warm.objective - cold.objective).abs() < 1e-9);
}

#[test]
fn basis_transfers_to_perturbed_neighbour() {
    // Same shape, slightly different RHS/objective: the old optimal basis
    // stays primal feasible here, so the warm path engages and agrees with
    // the cold solve.
    let m = sample_model();
    let cold_a = solver().solve(&m).expect("solve A");
    let basis = cold_a.basis.as_ref().expect("basis");

    let mut n = Model::new();
    let x = n.add_var("x", 0.0, 10.0, 1.1);
    let y = n.add_var("y", 0.0, 10.0, 1.9);
    let z = n.add_var("z", 0.0, 10.0, 0.6);
    n.add_con("need", [(x, 1.0), (y, 1.0), (z, 1.0)], Sense::Ge, 11.5);
    n.add_con("mix", [(x, 1.0), (y, -1.0)], Sense::Le, 4.0);
    n.add_con("zcap", [(z, 1.0)], Sense::Le, 5.0);

    let cold_b = solver().solve(&n).expect("cold B");
    let warm_b = solver().solve_warm(&n, Some(basis)).expect("warm B");
    assert!(
        (warm_b.objective - cold_b.objective).abs() < 1e-9,
        "warm {} vs cold {}",
        warm_b.objective,
        cold_b.objective
    );
    if warm_b.warm_started {
        assert!(
            warm_b.iterations <= cold_b.iterations,
            "warm start must not take more pivots (warm {}, cold {})",
            warm_b.iterations,
            cold_b.iterations
        );
    }
}

#[test]
fn primal_infeasible_warm_basis_is_restored_by_dual_pivots() {
    // Rolling-horizon pattern: same model shape, drastically moved RHS.
    // The exported basis is far from primal feasible for the new data; the
    // dual-simplex restoration must still deliver the cold optimum (and,
    // being warm, in no more iterations than the cold two-phase solve).
    let mut m = Model::new();
    let x = m.add_var("x", 0.0, 100.0, 2.0);
    let y = m.add_var("y", 0.0, 100.0, 3.0);
    let z = m.add_var("z", 0.0, 10.0, 1.0);
    let need = m.add_con("need", [(x, 1.0), (y, 1.0), (z, 1.0)], Sense::Ge, 8.0);
    let cap = m.add_con("cap", [(x, 1.0), (y, -1.0)], Sense::Le, 3.0);
    let first = solver().solve(&m).expect("first");
    let basis = first.basis.clone().expect("basis");

    for rhs in [40.0, 95.0, 1.0, 60.0] {
        m.set_rhs(need, rhs);
        m.set_rhs(cap, rhs / 4.0);
        let cold = solver().solve(&m).expect("cold");
        let warm = solver().solve_warm(&m, Some(&basis)).expect("warm");
        assert!(
            (warm.objective - cold.objective).abs() < 1e-7,
            "rhs {rhs}: warm {} vs cold {}",
            warm.objective,
            cold.objective
        );
        if warm.warm_started {
            assert!(
                warm.iterations <= cold.iterations,
                "rhs {rhs}: warm {} > cold {} iterations",
                warm.iterations,
                cold.iterations
            );
        }
    }
}

#[test]
fn infeasible_and_unbounded_unaffected_by_warm_basis() {
    use greencloud_lp::SolveError;
    let mut inf = Model::new();
    let x = inf.add_var("x", 0.0, 1.0, 1.0);
    inf.add_con("hi", [(x, 1.0)], Sense::Ge, 2.0);
    let junk = Basis::from_statuses(vec![BasisStatus::Basic, BasisStatus::AtLower]);
    assert_eq!(
        solver().solve_warm(&inf, Some(&junk)).unwrap_err(),
        SolveError::Infeasible
    );

    let mut unb = Model::new();
    let y = unb.add_var("y", 0.0, f64::INFINITY, -1.0);
    unb.add_con("lo", [(y, 1.0)], Sense::Ge, 0.0);
    let junk = Basis::from_statuses(vec![BasisStatus::AtLower, BasisStatus::Basic]);
    assert_eq!(
        solver().solve_warm(&unb, Some(&junk)).unwrap_err(),
        SolveError::Unbounded
    );
}

#[test]
fn boxed_entering_column_past_its_span_still_pivots() {
    // The slack basis is dual feasible but violates both rows. Restoring
    // row 1 wants the boxed q up by 1.5 (span 1), and restoring row 2 then
    // wants it down by 1.125. Flipping q between its bounds instead of
    // pivoting would alternate between the two rows until the step cap
    // and throw the warm start away; a dual pivot brings q into the basis
    // and reaches the optimum in a few steps.
    let mut m = Model::new();
    let q = m.add_var("q", 0.0, 1.0, 0.1);
    let p = m.add_var("p", 0.0, f64::INFINITY, 1.0);
    m.add_con("r1", [(q, 2.0), (p, 1.0)], Sense::Ge, 3.0);
    m.add_con("r2", [(q, -4.0), (p, 1.0)], Sense::Ge, 0.5);
    let slacks = Basis::from_statuses(vec![
        BasisStatus::AtLower, // q
        BasisStatus::AtLower, // p
        BasisStatus::Basic,   // slack r1
        BasisStatus::Basic,   // slack r2
    ]);
    let cold = solver().solve(&m).expect("cold");
    let warm = solver().solve_warm(&m, Some(&slacks)).expect("warm");
    assert!(warm.warm_started, "restoration fell back to a cold solve");
    assert!(warm.iterations <= 4, "took {} iterations", warm.iterations);
    assert!((warm.objective - cold.objective).abs() < 1e-9);
    assert!((warm.value(q) - 5.0 / 12.0).abs() < 1e-9);
    assert!((warm.value(p) - 13.0 / 6.0).abs() < 1e-9);
}
