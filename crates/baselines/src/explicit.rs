//! The explicit world-enumeration engine: the naive baseline and the
//! correctness oracle.
//!
//! Everything the WSD/UWSDT layers do can, semantically, be done by
//! enumerating the possible worlds, applying the operation to each world
//! separately, and recombining.  That is infeasible at scale (which is the
//! paper's point) but invaluable as an oracle for testing and as the "what if
//! we didn't decompose" baseline in the ablation benchmarks.

use ws_core::chase::Dependency;
use ws_core::{Result as WsResult, WorldSet, WsError};
use ws_relational::engine;
use ws_relational::{evaluate_set, Database, RaExpr, Relation, Tuple};

/// Evaluate a relational-algebra query in every world, returning the
/// distribution over result relations.
pub fn query_distribution(worlds: &WorldSet, query: &RaExpr) -> WsResult<Vec<(Relation, f64)>> {
    let mut out: Vec<(Relation, f64)> = Vec::new();
    for (db, p) in worlds.worlds() {
        let result = evaluate_set(db, query)?;
        match out.iter_mut().find(|(r, _)| r.set_eq(&result)) {
            Some((_, q)) => *q += p,
            None => out.push((result, *p)),
        }
    }
    Ok(out)
}

/// Evaluate a query world-by-world and extend each world with the result
/// relation (the compositional semantics of §4), returning the new
/// world-set.
///
/// Even this naive engine runs through the shared `optimize → execute`
/// pipeline: the [`ws_relational::QueryBackend`] implementation on
/// [`WorldSet`] (in `ws_core::worldset`) evaluates the optimized plan in
/// every world separately, so the oracle answers exactly the plans the
/// decomposed representations it validates are given.
pub fn query_worlds(worlds: &WorldSet, query: &RaExpr, out_name: &str) -> WsResult<WorldSet> {
    // An empty (inconsistent) world-set has no catalog to resolve relations
    // against; the query over it is vacuously the empty world-set.
    if worlds.is_empty() {
        return Ok(WorldSet::new());
    }
    let mut extended = worlds.clone();
    engine::evaluate_query(&mut extended, query, out_name)?;
    Ok(extended)
}

/// The confidence of a tuple in a relation: the total probability of the
/// worlds containing it.
pub fn confidence(worlds: &WorldSet, relation: &str, tuple: &Tuple) -> WsResult<f64> {
    let mut c = 0.0;
    for (db, p) in worlds.worlds() {
        if db.relation(relation)?.contains(tuple) {
            c += p;
        }
    }
    Ok(c)
}

/// The set of possible tuples of a relation: its union over all worlds.
pub fn possible_tuples(worlds: &WorldSet, relation: &str) -> WsResult<Vec<Tuple>> {
    let mut out: Vec<Tuple> = Vec::new();
    for (db, _) in worlds.worlds() {
        for tuple in db.relation(relation)?.rows() {
            if !out.contains(tuple) {
                out.push(tuple.clone());
            }
        }
    }
    out.sort();
    Ok(out)
}

/// Whether one world (database) satisfies a dependency.
///
/// Thin wrapper over [`ws_relational::world_satisfies`] — the check moved
/// into the substrate so the update subsystem's conditioning verb can share
/// it — kept here for the oracle-flavored `WsResult` signature.
pub fn world_satisfies(db: &Database, dependency: &Dependency) -> WsResult<bool> {
    Ok(ws_relational::world_satisfies(db, dependency)?)
}

/// The naive chase: keep only the worlds satisfying all dependencies and
/// renormalize.  Fails with [`WsError::Inconsistent`] if nothing survives.
pub fn chase_worlds(worlds: &WorldSet, dependencies: &[Dependency]) -> WsResult<WorldSet> {
    let mut error: Option<WsError> = None;
    let result = worlds.filter_worlds(|db| {
        dependencies
            .iter()
            .all(|dep| match world_satisfies(db, dep) {
                Ok(ok) => ok,
                Err(e) => {
                    error = Some(e);
                    false
                }
            })
    });
    if let Some(e) = error {
        return Err(e);
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use ws_core::chase::{AttrComparison, EqualityGeneratingDependency, FunctionalDependency};
    use ws_core::wsd::example_census_wsd;
    use ws_relational::{CmpOp, Predicate, Value};

    fn worlds() -> WorldSet {
        example_census_wsd().rep().unwrap()
    }

    #[test]
    fn query_distribution_sums_to_one() {
        let ws = worlds();
        let q = RaExpr::rel("R").select(Predicate::eq_const("M", 1i64));
        let dist = query_distribution(&ws, &q).unwrap();
        let total: f64 = dist.iter().map(|(_, p)| p).sum();
        assert!((total - 1.0).abs() < 1e-9);
        assert!(dist.len() > 1);
    }

    #[test]
    fn query_worlds_extends_each_world() {
        let ws = worlds();
        let q = RaExpr::rel("R").project(vec!["S"]);
        let extended = query_worlds(&ws, &q, "Q").unwrap();
        for (db, _) in extended.worlds() {
            assert!(db.contains_relation("Q"));
            assert_eq!(db.relation("Q").unwrap().schema().arity(), 1);
        }
    }

    #[test]
    fn confidence_and_possible_match_the_wsd_operators() {
        let wsd = example_census_wsd();
        let ws = worlds();
        let possible = possible_tuples(&ws, "R").unwrap();
        assert_eq!(
            possible.len(),
            ws_core::confidence::possible(&wsd, "R").unwrap().len()
        );
        for tuple in &possible {
            let oracle = confidence(&ws, "R", tuple).unwrap();
            let ours = ws_core::confidence::conf(&wsd, "R", tuple).unwrap();
            assert!((oracle - ours).abs() < 1e-9);
        }
    }

    #[test]
    fn chase_worlds_filters_and_renormalizes() {
        let ws = worlds();
        let dep = Dependency::Egd(EqualityGeneratingDependency::implies(
            "R",
            "S",
            785i64,
            "M",
            CmpOp::Eq,
            1i64,
        ));
        let cleaned = chase_worlds(&ws, std::slice::from_ref(&dep)).unwrap();
        assert!(cleaned.len() < ws.len());
        assert!((cleaned.total_probability() - 1.0).abs() < 1e-9);
        for (db, _) in cleaned.worlds() {
            assert!(world_satisfies(db, &dep).unwrap());
        }
        // An unsatisfiable dependency empties the world-set.
        let impossible = Dependency::Egd(EqualityGeneratingDependency::new(
            "R",
            vec![],
            AttrComparison::new("S", CmpOp::Eq, -1i64),
        ));
        assert!(matches!(
            chase_worlds(&ws, &[impossible]),
            Err(WsError::Inconsistent)
        ));
    }

    #[test]
    fn fd_satisfaction_is_checked_per_world() {
        let ws = worlds();
        let fd = Dependency::Fd(FunctionalDependency::new("R", vec!["N"], vec!["M"]));
        // N is certain per tuple (Smith/Brown), so the FD trivially holds in
        // every world (distinct determinants).
        for (db, _) in ws.worlds() {
            assert!(world_satisfies(db, &fd).unwrap());
        }
        // A dependency over a missing relation errors.
        let bad = Dependency::Fd(FunctionalDependency::new("NOPE", vec!["A"], vec!["B"]));
        assert!(world_satisfies(&ws.worlds()[0].0, &bad).is_err());
        let _ = Value::int(0);
    }
}
