//! Queries on U-relations: positive relational algebra is lineage
//! evaluation.
//!
//! Section 4 of the paper observes that join selections, projections and
//! differences on WSDs may force component compositions and hence an
//! exponential growth of the representation, and points to U-relations as
//! the intensional refinement that avoids the blow-up: every positive
//! operator is a plain relational operation on the annotated rows — clauses
//! are only *conjoined pairwise* (product, θ-join) or copied (selection,
//! projection, union, renaming), never expanded.  That is exactly
//! [`lineage::evaluate_lineage`], so [`QueryBackend::execute_plan`] hands it
//! the whole plan and stores the derivations, redundant ones absorbed, under
//! the result name.  Difference is not a positive operator and is rejected
//! (the paper evaluates differences via conditional confidence instead —
//! see `ws_core::conditional`).

use ws_relational::engine::{QueryBackend, SchemaCatalog};
use ws_relational::{lineage, RaExpr, RelationalError, Schema, Tuple};

use crate::database::UDatabase;
use crate::error::{Result, UrelError};

impl SchemaCatalog for UDatabase {
    fn schema_of(&self, relation: &str) -> ws_relational::Result<Schema> {
        self.relation(relation)
            .map(|r| r.schema().clone())
            .map_err(|_| RelationalError::UnknownRelation(relation.to_string()))
    }

    fn contains_relation(&self, relation: &str) -> bool {
        UDatabase::contains_relation(self, relation)
    }
}

impl QueryBackend for UDatabase {
    type Error = UrelError;

    /// The whole plan is one call into the lineage evaluator.
    fn execute_plan(&mut self, plan: &RaExpr, out: &str) -> Result<()> {
        let mut result = lineage::evaluate_lineage(self.as_lineage(), plan)?.into_relation(out);
        result.absorb();
        self.insert_relation(result);
        Ok(())
    }

    fn drop_scratch(&mut self, name: &str) {
        let _ = self.remove_relation(name);
    }
}

/// The distinct tuples of `relation` present in *some* world, in `Tuple`
/// order.
pub fn possible_tuples(udb: &UDatabase, relation: &str) -> Result<Vec<Tuple>> {
    Ok(udb.relation(relation)?.possible()?.into_rows())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::convert::from_wsd;
    use std::collections::BTreeSet;
    use ws_core::wsd::example_census_wsd;
    use ws_relational::engine::evaluate_query;
    use ws_relational::{evaluate_set, CmpOp, Predicate, Value};

    /// Evaluate `query` on a copy of `udb` and return its possible tuples.
    fn possible(udb: &UDatabase, query: &RaExpr) -> Result<BTreeSet<Tuple>> {
        let mut scratch = udb.clone();
        let out = evaluate_query(&mut scratch, query, "Q")?;
        Ok(possible_tuples(&scratch, &out)?.into_iter().collect())
    }

    /// Oracle: evaluate the query in every world and collect the union of the
    /// answers (set of possible answer tuples).
    fn oracle_possible(udb: &UDatabase, query: &RaExpr) -> BTreeSet<Tuple> {
        let mut out = BTreeSet::new();
        for (world, _) in udb.enumerate_worlds(1 << 20).unwrap() {
            let answer = evaluate_set(&world, query).unwrap();
            out.extend(answer.rows().iter().cloned());
        }
        out
    }

    #[test]
    fn positive_queries_match_the_world_oracle() {
        let udb = from_wsd(&example_census_wsd()).unwrap();
        let queries = [
            RaExpr::rel("R").select(Predicate::eq_const("M", 1i64)),
            RaExpr::rel("R")
                .select(Predicate::cmp_const("S", CmpOp::Gt, 200i64))
                .project(vec!["S"]),
            RaExpr::rel("R").project(vec!["N", "M"]),
            // Pairs of persons with different SSNs (the §1 query): a self-join.
            RaExpr::rel("R")
                .project(vec!["S"])
                .rename("S", "S1")
                .product(RaExpr::rel("R").project(vec!["S"]).rename("S", "S2"))
                .select(Predicate::cmp_attr("S1", CmpOp::Ne, "S2")),
            RaExpr::rel("R")
                .select(Predicate::eq_const("M", 1i64))
                .project(vec!["S"])
                .union(
                    RaExpr::rel("R")
                        .select(Predicate::eq_const("M", 2i64))
                        .project(vec!["S"]),
                ),
        ];
        for query in queries {
            assert_eq!(
                possible(&udb, &query).unwrap(),
                oracle_possible(&udb, &query),
                "possible answers differ for {query}"
            );
        }
    }

    #[test]
    fn difference_is_rejected_and_leaves_nothing_behind() {
        let mut udb = from_wsd(&example_census_wsd()).unwrap();
        let names_before = udb.relation_names().len();
        let query = RaExpr::rel("R").difference(RaExpr::rel("R"));
        assert!(evaluate_query(&mut udb, &query, "Q").is_err());
        assert_eq!(udb.relation_names().len(), names_before);
    }

    #[test]
    fn join_blowup_stays_polynomial_in_the_representation() {
        // Two independent 4-way or-set fields joined on equality: the WSD
        // representation would have to compose the two components (16 rows);
        // the U-relation join just produces one annotated row per matching
        // pair, without touching the world table.
        let mut wsd = ws_core::Wsd::new();
        wsd.register_relation("A", &["X"], 1).unwrap();
        wsd.register_relation("B", &["Y"], 1).unwrap();
        let domain: Vec<Value> = (0..4).map(Value::int).collect();
        wsd.set_uniform(ws_core::FieldId::new("A", 0, "X"), domain.clone())
            .unwrap();
        wsd.set_uniform(ws_core::FieldId::new("B", 0, "Y"), domain)
            .unwrap();
        let mut udb = from_wsd(&wsd).unwrap();
        let query = RaExpr::rel("A")
            .product(RaExpr::rel("B"))
            .select(Predicate::cmp_attr("X", CmpOp::Eq, "Y"));
        evaluate_query(&mut udb, &query, "J").unwrap();
        let result = udb.relation("J").unwrap();
        // Exactly the four matching pairs, each annotated with a two-variable
        // clause; the world table still has two variables.
        assert_eq!(result.len(), 4);
        assert!(result.rows().iter().all(|(_, c)| c.atoms().len() == 2));
        assert_eq!(udb.vars().len(), 2);
    }
}
