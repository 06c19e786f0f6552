//! Relational-algebra query evaluation on UWSDTs, as a backend of the
//! unified engine.
//!
//! Queries run through the shared `optimize → execute` pipeline of
//! [`ws_relational::engine`], mirroring the SQL-rewriting approach of §5:
//! the size of the rewriting is linear in the query, and every operator
//! touches the template relations with single-world cost plus component work
//! proportional to the number of placeholders involved.  The UWSDT's
//! [`QueryBackend::execute_plan`] hands each plan to the engine's shared
//! walker ([`engine::walk`]), which drives the [`Operators`] below one
//! operator at a time (Fig. 16).
//!
//! The θ-join optimization the paper describes for its experiments — a
//! selection with an attribute-equality condition directly on top of a
//! product becomes a hash [`crate::ops::join`], avoiding the materialization
//! of the full cross product — is recognised by the walker; this backend
//! only supplies the physical hash-join operator.

use crate::error::{Result, UwsdtError};
use crate::model::Uwsdt;
use crate::ops;
use ws_relational::engine::{self, ExecContext, Operators, QueryBackend, SchemaCatalog};
use ws_relational::{Predicate, RaExpr, RelationalError, Schema};

impl SchemaCatalog for Uwsdt {
    fn schema_of(&self, relation: &str) -> ws_relational::Result<Schema> {
        self.template(relation)
            .map(|t| t.schema().clone())
            .map_err(|_| RelationalError::UnknownRelation(relation.to_string()))
    }

    fn contains_relation(&self, relation: &str) -> bool {
        Uwsdt::contains_relation(self, relation)
    }
}

impl QueryBackend for Uwsdt {
    type Error = UwsdtError;

    /// Every plan runs through the shared operator-by-operator walker.
    fn execute_plan(&mut self, plan: &RaExpr, out: &str) -> Result<()> {
        engine::walk(self, plan, out)
    }

    fn drop_scratch(&mut self, name: &str) {
        let _ = self.drop_relation(name);
    }
}

impl Operators for Uwsdt {
    fn materialize_base(&mut self, name: &str, out: &str) -> Result<()> {
        // A base relation at the root of a plan is materialized by the
        // identity projection, which copies the template and re-links its
        // placeholders.
        let attrs: Vec<String> = self
            .template(name)?
            .schema()
            .attrs()
            .iter()
            .map(|a| a.to_string())
            .collect();
        let attr_refs: Vec<&str> = attrs.iter().map(String::as_str).collect();
        ops::project(self, name, out, &attr_refs)
    }

    fn apply_select(
        &mut self,
        input: &str,
        pred: &Predicate,
        out: &str,
        _ctx: &mut ExecContext,
    ) -> Result<()> {
        ops::select(self, input, out, pred)
    }

    fn apply_project(
        &mut self,
        input: &str,
        attrs: &[String],
        out: &str,
        _ctx: &mut ExecContext,
    ) -> Result<()> {
        let attr_refs: Vec<&str> = attrs.iter().map(String::as_str).collect();
        ops::project(self, input, out, &attr_refs)
    }

    fn apply_product(
        &mut self,
        left: &str,
        right: &str,
        out: &str,
        _ctx: &mut ExecContext,
    ) -> Result<()> {
        ops::product(self, left, right, out)
    }

    fn apply_equi_join(
        &mut self,
        left: &str,
        right: &str,
        left_attr: &str,
        right_attr: &str,
        out: &str,
        _ctx: &mut ExecContext,
    ) -> Result<()> {
        ops::join(self, left, right, out, left_attr, right_attr)
    }

    fn apply_union(&mut self, left: &str, right: &str, out: &str) -> Result<()> {
        ops::union(self, left, right, out)
    }

    fn apply_difference(&mut self, left: &str, right: &str, out: &str) -> Result<()> {
        ops::difference(self, left, right, out)
    }

    fn apply_rename(&mut self, input: &str, from: &str, to: &str, out: &str) -> Result<()> {
        ops::rename(self, input, out, from, to)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::{from_or_relation, OrField};
    use ws_relational::{engine, CmpOp, RaExpr, Relation, Schema, Value};

    fn small_uwsdt() -> Uwsdt {
        let mut base = Relation::new(Schema::new("R", &["A", "B"]).unwrap());
        base.push_values([1i64, 10]).unwrap();
        base.push_values([2i64, 20]).unwrap();
        base.push_values([3i64, 30]).unwrap();
        from_or_relation(
            &base,
            &[OrField::uniform(
                1,
                "B",
                vec![Value::int(20), Value::int(21)],
            )],
        )
        .unwrap()
    }

    #[test]
    fn base_relation_query_copies_the_relation() {
        let mut uwsdt = small_uwsdt();
        engine::evaluate_query(&mut uwsdt, &RaExpr::rel("R"), "OUT").unwrap();
        assert_eq!(uwsdt.template("OUT").unwrap().len(), 3);
        uwsdt.validate().unwrap();
        assert!(engine::evaluate_query(&mut uwsdt, &RaExpr::rel("NOPE"), "X").is_err());
    }

    #[test]
    fn join_pattern_is_detected_and_matches_product_select() {
        let mut base_s = Relation::new(Schema::new("S", &["C"]).unwrap());
        base_s.push_values([10i64]).unwrap();
        base_s.push_values([21i64]).unwrap();
        let mut uwsdt = small_uwsdt();
        let other = from_or_relation(&base_s, &[]).unwrap();
        // Move S's template into the same UWSDT store.
        uwsdt
            .add_template(other.template("S").unwrap().clone())
            .unwrap();

        let join_query = RaExpr::rel("R")
            .product(RaExpr::rel("S"))
            .select(Predicate::cmp_attr("B", CmpOp::Eq, "C"));
        engine::evaluate_query(&mut uwsdt, &join_query, "J").unwrap();
        let result = crate::ops::possible_tuples(&uwsdt, "J").unwrap();
        // (1,10,10) always; (2,21,21) only in the worlds where t2.B = 21.
        assert_eq!(result.len(), 2);
        uwsdt.validate().unwrap();
    }

    #[test]
    fn optimizer_and_naive_pipeline_agree_on_uwsdts() {
        let queries = [
            RaExpr::rel("R")
                .select(Predicate::cmp_const("A", CmpOp::Ge, 2i64))
                .project(vec!["B"]),
            RaExpr::rel("R")
                .product(RaExpr::rel("R").project(vec!["A"]).rename("A", "A2"))
                .select(Predicate::and(vec![
                    Predicate::cmp_attr("A", CmpOp::Eq, "A2"),
                    Predicate::cmp_const("B", CmpOp::Gt, 15i64),
                ])),
        ];
        for query in queries {
            let mut optimized = small_uwsdt();
            engine::evaluate_query(&mut optimized, &query, "OUT").unwrap();
            let mut naive = small_uwsdt();
            naive.execute_plan(&query, "OUT").unwrap();
            let a = crate::ops::possible_tuples(&optimized, "OUT").unwrap();
            let b = crate::ops::possible_tuples(&naive, "OUT").unwrap();
            let a: std::collections::BTreeSet<_> = a.into_iter().collect();
            let b: std::collections::BTreeSet<_> = b.into_iter().collect();
            assert_eq!(a, b, "pipelines disagree for {query}");
            optimized.validate().unwrap();
            naive.validate().unwrap();
        }
    }
}
