//! Conditioning a world-set on integrity constraints and conditional
//! confidence computation.
//!
//! Section 4 of the paper observes that the confidence of tuples in the
//! answer to a *difference* query — and more generally in any query asked
//! under a universal constraint `ψ` — can be obtained as a conditional
//! probability `P(φ | ψ) = P(φ ∧ ψ) / P(ψ)` instead of materializing the
//! (potentially expensive) representation of the result.  In the WSD
//! framework the constraint side is exactly what the chase of Section 8
//! computes: chasing `ψ` keeps precisely the worlds satisfying `ψ` and
//! renormalizes their probabilities, so confidence computed on the chased
//! decomposition *is* the conditional confidence.  The chase additionally
//! reports the surviving probability mass, which is `P(ψ)` itself.
//!
//! This module packages those observations into a small API:
//!
//! * [`satisfaction_probability`] — `P(ψ)` for a set of dependencies,
//! * [`conditional_conf`] — `P(t ∈ R | ψ)`,
//! * [`conditional_query_conf`] — `P(t ∈ Q(·) | ψ)` for a relational algebra
//!   query `Q`, and
//! * [`joint_probability`] — `P(t ∈ R ∧ ψ)`, recovered as
//!   `P(t ∈ R | ψ) · P(ψ)`.

use crate::chase::{chase, Dependency};
use crate::confidence;
use crate::error::{Result, WsError};
use crate::wsd::Wsd;
use ws_relational::engine;
use ws_relational::{RaExpr, Tuple};

/// The probability that a world drawn from the WSD satisfies every
/// dependency in `constraints` (`P(ψ)`).
///
/// Returns 0.0 when no world satisfies the constraints.  The input WSD is not
/// modified.
pub fn satisfaction_probability(wsd: &Wsd, constraints: &[Dependency]) -> Result<f64> {
    let mut scratch = wsd.clone();
    match chase(&mut scratch, constraints) {
        Ok(mass) => Ok(mass),
        Err(WsError::Inconsistent) => Ok(0.0),
        Err(other) => Err(other),
    }
}

/// The conditional confidence `P(t ∈ relation | ψ)`.
///
/// Errors with [`WsError::Inconsistent`] if `P(ψ) = 0` (the conditional
/// probability is undefined).
pub fn conditional_conf(
    wsd: &Wsd,
    relation: &str,
    tuple: &Tuple,
    constraints: &[Dependency],
) -> Result<f64> {
    let mut scratch = wsd.clone();
    chase(&mut scratch, constraints)?;
    confidence::conf(&scratch, relation, tuple)
}

/// The conditional confidence of `tuple` in the answer of `query`, given the
/// constraints: `P(t ∈ Q(A) | A ⊨ ψ)`.
///
/// The query is evaluated on the conditioned decomposition (conditioning
/// first is equivalent to conditioning the query answer, because the chase
/// only removes worlds and the query is evaluated world-by-world).
pub fn conditional_query_conf(
    wsd: &Wsd,
    query: &RaExpr,
    tuple: &Tuple,
    constraints: &[Dependency],
) -> Result<f64> {
    let mut scratch = wsd.clone();
    chase(&mut scratch, constraints)?;
    let out = engine::fresh_scratch_name(|n| scratch.contains_relation(n), &mut 0, "conditional_q");
    engine::evaluate_query(&mut scratch, query, &out)?;
    confidence::conf(&scratch, &out, tuple)
}

/// The joint probability `P(t ∈ relation ∧ ψ)`, i.e. the mass of worlds that
/// both satisfy the constraints and contain the tuple.
pub fn joint_probability(
    wsd: &Wsd,
    relation: &str,
    tuple: &Tuple,
    constraints: &[Dependency],
) -> Result<f64> {
    let mut scratch = wsd.clone();
    let mass = match chase(&mut scratch, constraints) {
        Ok(mass) => mass,
        Err(WsError::Inconsistent) => return Ok(0.0),
        Err(other) => return Err(other),
    };
    Ok(mass * confidence::conf(&scratch, relation, tuple)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chase::{AttrComparison, EqualityGeneratingDependency, FunctionalDependency};
    use crate::wsd::example_census_wsd;
    use ws_relational::{CmpOp, Predicate, Value};

    fn married_constraint() -> Dependency {
        // "The person with SSN 785 is married" (§8 running example):
        // S = 785 ⇒ M = 1.
        Dependency::Egd(EqualityGeneratingDependency::new(
            "R",
            vec![AttrComparison::new("S", CmpOp::Eq, 785i64)],
            AttrComparison::new("M", CmpOp::Eq, 1i64),
        ))
    }

    /// Oracle: P(ψ) by explicit enumeration of the (small) world-set.
    fn oracle_satisfaction(wsd: &Wsd, constraints: &[Dependency]) -> f64 {
        use ws_baselines_free_oracle::world_satisfies;
        wsd.enumerate_worlds(1 << 20)
            .unwrap()
            .into_iter()
            .filter(|(db, _)| constraints.iter().all(|d| world_satisfies(db, d)))
            .map(|(_, p)| p)
            .sum()
    }

    /// A tiny local re-implementation of the explicit-world dependency check
    /// (the full version lives in `ws-baselines`, which depends on this crate
    /// and therefore cannot be used from its unit tests).
    mod ws_baselines_free_oracle {
        use super::*;
        use ws_relational::Database;

        pub fn world_satisfies(db: &Database, dep: &Dependency) -> bool {
            match dep {
                Dependency::Egd(egd) => {
                    let rel = db.relation(&egd.relation).unwrap();
                    rel.rows().iter().all(|row| {
                        let value_of =
                            |attr: &str| &row[rel.schema().position(attr).expect("attr exists")];
                        let body = egd.body.iter().all(|a| a.eval(value_of(&a.attr)));
                        !body || egd.head.eval(value_of(&egd.head.attr))
                    })
                }
                Dependency::Fd(fd) => {
                    let rel = db.relation(&fd.relation).unwrap();
                    let rows = rel.rows();
                    for (i, s) in rows.iter().enumerate() {
                        for t in &rows[i + 1..] {
                            let pos =
                                |attr: &str| rel.schema().position(attr).expect("attr exists");
                            let lhs_eq = fd.lhs.iter().all(|a| s[pos(a)] == t[pos(a)]);
                            let rhs_eq = fd.rhs.iter().all(|a| s[pos(a)] == t[pos(a)]);
                            if lhs_eq && !rhs_eq {
                                return false;
                            }
                        }
                    }
                    true
                }
            }
        }
    }

    #[test]
    fn satisfaction_probability_matches_enumeration() {
        let wsd = example_census_wsd();
        let deps = vec![married_constraint()];
        let ours = satisfaction_probability(&wsd, &deps).unwrap();
        let oracle = oracle_satisfaction(&wsd, &deps);
        assert!((ours - oracle).abs() < 1e-9, "{ours} vs oracle {oracle}");
        // The constraint removes the "785 but not married" worlds, so the
        // mass is strictly between 0 and 1.
        assert!(ours > 0.0 && ours < 1.0);
    }

    #[test]
    fn conditioning_in_place_reports_the_same_mass() {
        let mut wsd = example_census_wsd();
        let deps = vec![married_constraint()];
        let expected = satisfaction_probability(&wsd, &deps).unwrap();
        let mass = ws_relational::WriteBackend::apply_condition(&mut wsd, &deps).unwrap();
        assert!((mass - expected).abs() < 1e-12);
        // After conditioning the constraint is satisfied in every world.
        assert!((satisfaction_probability(&wsd, &deps).unwrap() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn conditional_confidence_is_bayes_consistent() {
        let wsd = example_census_wsd();
        let deps = vec![married_constraint()];
        let tuple = Tuple::from_iter([Value::int(785), Value::text("Smith"), Value::int(1)]);
        let p_psi = satisfaction_probability(&wsd, &deps).unwrap();
        let p_cond = conditional_conf(&wsd, "R", &tuple, &deps).unwrap();
        let p_joint = joint_probability(&wsd, "R", &tuple, &deps).unwrap();
        assert!((p_joint - p_cond * p_psi).abs() < 1e-9);
        // Conditioning on "785 ⇒ married" can only increase the confidence of
        // the married-785 tuple.
        let unconditional = confidence::conf(&wsd, "R", &tuple).unwrap();
        assert!(p_cond >= unconditional - 1e-12);
    }

    #[test]
    fn conditional_query_confidence_matches_enumeration() {
        let wsd = example_census_wsd();
        let deps = vec![married_constraint()];
        // Q = π_S(σ_{M=1}(R)) — the SSNs of married persons.
        let query = RaExpr::rel("R")
            .select(Predicate::eq_const("M", 1i64))
            .project(vec!["S"]);
        let tuple = Tuple::from_iter([Value::int(785)]);
        let ours = conditional_query_conf(&wsd, &query, &tuple, &deps).unwrap();

        // Oracle: enumerate, filter by the constraint, evaluate the query in
        // each surviving world, renormalize.
        let worlds = wsd.enumerate_worlds(1 << 20).unwrap();
        let mut surviving_mass = 0.0;
        let mut containing_mass = 0.0;
        for (db, p) in worlds {
            let satisfied = deps
                .iter()
                .all(|d| ws_baselines_free_oracle::world_satisfies(&db, d));
            if !satisfied {
                continue;
            }
            surviving_mass += p;
            let answer = ws_relational::evaluate_set(&db, &query).unwrap();
            if answer.contains(&tuple) {
                containing_mass += p;
            }
        }
        let oracle = containing_mass / surviving_mass;
        assert!((ours - oracle).abs() < 1e-9, "{ours} vs oracle {oracle}");
    }

    #[test]
    fn unsatisfiable_constraints_behave_sanely() {
        let wsd = example_census_wsd();
        // Names are certain, so "Smith ⇒ Smith ≠ Smith" can never hold for t1.
        let impossible = Dependency::Egd(EqualityGeneratingDependency::new(
            "R",
            vec![AttrComparison::new("N", CmpOp::Eq, "Smith")],
            AttrComparison::new("N", CmpOp::Ne, "Smith"),
        ));
        assert_eq!(
            satisfaction_probability(&wsd, std::slice::from_ref(&impossible)).unwrap(),
            0.0
        );
        assert_eq!(
            joint_probability(
                &wsd,
                "R",
                &Tuple::from_iter([Value::int(185), Value::text("Smith"), Value::int(1)]),
                std::slice::from_ref(&impossible)
            )
            .unwrap(),
            0.0
        );
        assert!(conditional_conf(
            &wsd,
            "R",
            &Tuple::from_iter([Value::int(185), Value::text("Smith"), Value::int(1)]),
            std::slice::from_ref(&impossible)
        )
        .is_err());
        let mut in_place = example_census_wsd();
        assert!(ws_relational::WriteBackend::apply_condition(
            &mut in_place,
            std::slice::from_ref(&impossible)
        )
        .is_err());
    }

    #[test]
    fn functional_dependency_constraints_are_supported() {
        let wsd = example_census_wsd();
        // SSN is a key (the §1 cleaning constraint); in the Fig. 4 WSD the
        // SSNs already differ in every world, so the mass is 1.
        let key = Dependency::Fd(FunctionalDependency::new("R", vec!["S"], vec!["N", "M"]));
        let mass = satisfaction_probability(&wsd, &[key]).unwrap();
        assert!((mass - 1.0).abs() < 1e-9);
    }
}
