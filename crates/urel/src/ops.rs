//! Positive relational algebra on U-relations.
//!
//! Section 4 of the paper observes that join selections, projections and
//! differences on WSDs may force component compositions and hence an
//! exponential growth of the representation, and points to U-relations as
//! the intensional refinement that avoids the blow-up: every positive
//! operator is a plain relational operation on the annotated rows —
//! descriptors are only *conjoined pairwise* (product/join) or copied
//! (selection, projection, union, renaming), never expanded.
//!
//! The physical operators here mirror the named-perspective algebra of
//! [`ws_relational::RaExpr`]; optimization, plan walking and θ-join
//! recognition live in the shared engine ([`ws_relational::engine`]).  The
//! [`QueryBackend::execute_plan`] of [`UDatabase`] hands each plan to the
//! engine's walker ([`engine::walk`]), which drives the [`Operators`]
//! implementation below.  The
//! non-positive difference operator is deliberately unsupported (the paper
//! evaluates differences via conditional confidence instead — see
//! `ws_core::conditional`).

use ws_relational::engine::{
    self, EngineConfig, ExecContext, Operators, QueryBackend, SchemaCatalog,
};
use ws_relational::{CmpOp, Predicate, RaExpr, RelationalError, Schema, Tuple};

use crate::database::UDatabase;
use crate::error::{Result, UrelError};
use crate::urelation::URelation;

/// Selection `σ_pred(src)`.
pub fn select(udb: &UDatabase, src: &str, pred: &Predicate) -> Result<URelation> {
    let input = udb.relation(src)?;
    let mut out = URelation::new(input.schema().clone());
    // Compile the predicate once so the hot loop needs no name lookups.
    // Compilation fails only on unknown attributes; those keep the per-row
    // path, whose short-circuit can mask the error row by row.
    match pred.compile(input.schema()) {
        Ok(compiled) => {
            for (tuple, descriptor) in input.rows() {
                if compiled.eval(tuple) {
                    out.push(tuple.clone(), descriptor.clone())?;
                }
            }
        }
        Err(_) => {
            for (tuple, descriptor) in input.rows() {
                if pred.eval(input.schema(), tuple)? {
                    out.push(tuple.clone(), descriptor.clone())?;
                }
            }
        }
    }
    Ok(out)
}

/// Projection `π_attrs(src)`.
pub fn project(udb: &UDatabase, src: &str, attrs: &[&str]) -> Result<URelation> {
    let input = udb.relation(src)?;
    let positions: Vec<usize> = attrs
        .iter()
        .map(|a| input.schema().position_of(a))
        .collect::<std::result::Result<_, _>>()?;
    let schema = input.schema().projected(attrs)?;
    let mut out = URelation::new(schema);
    for (tuple, descriptor) in input.rows() {
        out.push(tuple.project_positions(&positions), descriptor.clone())?;
    }
    out.absorb();
    Ok(out)
}

/// Product `left × right`: descriptors are conjoined; inconsistent pairs
/// (bindings of the same variable to different local worlds) are dropped
/// because no world contains both input tuples.
pub fn product(udb: &UDatabase, left: &str, right: &str, dst: &str) -> Result<URelation> {
    let l = udb.relation(left)?;
    let r = udb.relation(right)?;
    let schema = l.schema().product(r.schema(), dst)?;
    let mut out = URelation::new(schema);
    for (lt, ld) in l.rows() {
        for (rt, rd) in r.rows() {
            if let Some(descriptor) = ld.conjoin(rd) {
                out.push(lt.concat(rt), descriptor)?;
            }
        }
    }
    Ok(out)
}

/// θ-join `left ⋈_pred right`, evaluated as a filtered product without
/// materializing the non-matching pairs.
pub fn join(
    udb: &UDatabase,
    left: &str,
    right: &str,
    dst: &str,
    pred: &Predicate,
) -> Result<URelation> {
    let l = udb.relation(left)?;
    let r = udb.relation(right)?;
    let schema = l.schema().product(r.schema(), dst)?;
    let mut out = URelation::new(schema.clone());
    // Same compile-or-fallback split as `select`.
    let compiled = pred.compile(&schema).ok();
    for (lt, ld) in l.rows() {
        for (rt, rd) in r.rows() {
            let joined = lt.concat(rt);
            let keep = match &compiled {
                Some(c) => c.eval(&joined),
                None => pred.eval(&schema, &joined)?,
            };
            if keep {
                if let Some(descriptor) = ld.conjoin(rd) {
                    out.push(joined, descriptor)?;
                }
            }
        }
    }
    Ok(out)
}

/// Union `left ∪ right` (union-compatible schemas).
pub fn union(udb: &UDatabase, left: &str, right: &str) -> Result<URelation> {
    let l = udb.relation(left)?;
    let r = udb.relation(right)?;
    l.schema().check_union_compatible(r.schema())?;
    let mut out = URelation::new(l.schema().clone());
    for (tuple, descriptor) in l.rows().iter().chain(r.rows()) {
        out.push(tuple.clone(), descriptor.clone())?;
    }
    out.absorb();
    Ok(out)
}

/// Attribute renaming `δ_{from→to}(src)`.
pub fn rename(udb: &UDatabase, src: &str, from: &str, to: &str) -> Result<URelation> {
    let input = udb.relation(src)?;
    let schema = input.schema().renamed_attr(from, to)?;
    let mut out = URelation::new(schema);
    for (tuple, descriptor) in input.rows() {
        out.push(tuple.clone(), descriptor.clone())?;
    }
    Ok(out)
}

impl UDatabase {
    /// Register a computed U-relation in the catalog under the name `out`.
    fn store_as(&mut self, mut relation: URelation, out: &str) -> Result<()> {
        let renamed = relation.schema().renamed_relation(out);
        relation.set_schema(renamed)?;
        self.insert_relation(relation);
        Ok(())
    }
}

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

    /// Every plan runs through the shared operator-by-operator walker.
    fn execute_plan(&mut self, plan: &RaExpr, out: &str, config: &EngineConfig) -> Result<()> {
        engine::walk(self, plan, out, config)
    }

    fn drop_scratch(&mut self, name: &str) {
        let _ = self.remove_relation(name);
    }
}

impl Operators for UDatabase {
    fn materialize_base(&mut self, name: &str, out: &str) -> Result<()> {
        let relation = self.relation(name)?.clone();
        self.store_as(relation, out)
    }

    fn apply_select(
        &mut self,
        input: &str,
        pred: &Predicate,
        out: &str,
        _ctx: &mut ExecContext,
    ) -> Result<()> {
        let result = select(self, input, pred)?;
        self.store_as(result, out)
    }

    fn apply_project(
        &mut self,
        input: &str,
        attrs: &[String],
        out: &str,
        _ctx: &mut ExecContext,
    ) -> Result<()> {
        let attr_refs: Vec<&str> = attrs.iter().map(String::as_str).collect();
        let result = project(self, input, &attr_refs)?;
        self.store_as(result, out)
    }

    fn apply_product(
        &mut self,
        left: &str,
        right: &str,
        out: &str,
        _ctx: &mut ExecContext,
    ) -> Result<()> {
        let result = product(self, left, right, out)?;
        self.store_as(result, out)
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
        let pred = Predicate::cmp_attr(left_attr, CmpOp::Eq, right_attr);
        let result = join(self, left, right, out, &pred)?;
        self.store_as(result, out)
    }

    fn apply_union(&mut self, left: &str, right: &str, out: &str) -> Result<()> {
        let result = union(self, left, right)?;
        self.store_as(result, out)
    }

    fn apply_difference(&mut self, _left: &str, _right: &str, _out: &str) -> Result<()> {
        Err(UrelError::Unsupported(
            "relational difference is not a positive operator; \
             compute it via conditional confidence (ws_core::conditional) instead"
                .to_string(),
        ))
    }

    fn apply_rename(&mut self, input: &str, from: &str, to: &str, out: &str) -> Result<()> {
        let result = rename(self, input, from, to)?;
        self.store_as(result, out)
    }
}

/// The possible tuples of a query answer, computed without touching the
/// input catalog: evaluate on a scratch store holding only the base
/// relations the plan references (plus the world table), then strip
/// descriptors.
pub fn possible_answer(udb: &UDatabase, query: &RaExpr) -> Result<ws_relational::Relation> {
    let mut scratch = UDatabase::new();
    *scratch.world_table_mut() = udb.world_table().clone();
    for name in query.base_relations() {
        if let Ok(relation) = udb.relation(name) {
            scratch.insert_relation(relation.clone());
        }
        // Unknown names surface as UnknownRelation from the engine below.
    }
    let mut counter = 0usize;
    let out = engine::fresh_scratch_name(
        |n| scratch.contains_relation(n),
        &mut counter,
        "urel_answer",
    );
    engine::evaluate_query(&mut scratch, query, &out)?;
    Ok(scratch.relation(&out)?.possible_tuples())
}

/// Convenience: the distinct tuples of `relation` present in *some* world.
pub fn possible_tuples(udb: &UDatabase, relation: &str) -> Result<Vec<Tuple>> {
    Ok(udb.relation(relation)?.possible_tuples().into_rows())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::convert::from_wsd;
    use crate::descriptor::WsDescriptor;
    use ws_core::wsd::example_census_wsd;
    use ws_relational::{evaluate_set, CmpOp, Value};

    fn census_udb() -> UDatabase {
        from_wsd(&example_census_wsd()).unwrap()
    }

    /// Oracle: evaluate the query in every world and collect the union of the
    /// answers (set of possible answer tuples).
    fn oracle_possible(udb: &UDatabase, query: &RaExpr) -> std::collections::BTreeSet<Tuple> {
        let mut out = std::collections::BTreeSet::new();
        for (world, _) in udb.enumerate_worlds(1 << 20).unwrap() {
            let answer = evaluate_set(&world, query).unwrap();
            out.extend(answer.rows().iter().cloned());
        }
        out
    }

    #[test]
    fn selection_projection_match_the_world_oracle() {
        let udb = census_udb();
        let queries = [
            RaExpr::rel("R").select(Predicate::eq_const("M", 1i64)),
            RaExpr::rel("R")
                .select(Predicate::cmp_const("S", CmpOp::Gt, 200i64))
                .project(vec!["S"]),
            RaExpr::rel("R").project(vec!["N", "M"]),
        ];
        for query in queries {
            let ours: std::collections::BTreeSet<Tuple> = possible_answer(&udb, &query)
                .unwrap()
                .rows()
                .iter()
                .cloned()
                .collect();
            let oracle = oracle_possible(&udb, &query);
            assert_eq!(ours, oracle, "possible answers differ for {query}");
        }
    }

    #[test]
    fn self_join_keeps_only_consistent_descriptor_pairs() {
        let udb = census_udb();
        // Pairs of persons with different SSNs (the §1 query): a self-join.
        let query = RaExpr::rel("R")
            .project(vec!["S"])
            .rename("S", "S1")
            .product(RaExpr::rel("R").project(vec!["S"]).rename("S", "S2"))
            .select(Predicate::cmp_attr("S1", CmpOp::Ne, "S2"));
        let ours: std::collections::BTreeSet<Tuple> = possible_answer(&udb, &query)
            .unwrap()
            .rows()
            .iter()
            .cloned()
            .collect();
        let oracle = oracle_possible(&udb, &query);
        assert_eq!(ours, oracle);
    }

    #[test]
    fn union_and_rename_match_the_world_oracle() {
        let udb = census_udb();
        let query = RaExpr::rel("R")
            .select(Predicate::eq_const("M", 1i64))
            .project(vec!["S"])
            .union(
                RaExpr::rel("R")
                    .select(Predicate::eq_const("M", 2i64))
                    .project(vec!["S"]),
            );
        let ours: std::collections::BTreeSet<Tuple> = possible_answer(&udb, &query)
            .unwrap()
            .rows()
            .iter()
            .cloned()
            .collect();
        assert_eq!(ours, oracle_possible(&udb, &query));
    }

    #[test]
    fn named_operators_behave_like_the_unified_pipeline() {
        let mut udb = census_udb();
        let sel = select(&udb, "R", &Predicate::eq_const("M", 1i64)).unwrap();
        assert!(sel.len() <= udb.relation("R").unwrap().len());
        let proj = project(&udb, "R", &["S"]).unwrap();
        assert_eq!(proj.schema().arity(), 1);
        let renamed = rename(&udb, "R", "S", "SSN").unwrap();
        assert!(renamed.schema().contains("SSN"));
        let prod = {
            let mut scratch = udb.clone();
            let mut left = proj.clone();
            left.set_schema(Schema::new("L", &["S1"]).unwrap()).unwrap();
            scratch.insert_relation(left);
            let mut right = proj.clone();
            right
                .set_schema(Schema::new("Rt", &["S2"]).unwrap())
                .unwrap();
            scratch.insert_relation(right);
            product(&scratch, "L", "Rt", "LR").unwrap()
        };
        assert!(prod.len() <= proj.len() * proj.len());
        let joined = {
            let mut scratch = udb.clone();
            let mut left = proj.clone();
            left.set_schema(Schema::new("L", &["S1"]).unwrap()).unwrap();
            scratch.insert_relation(left);
            let mut right = proj.clone();
            right
                .set_schema(Schema::new("Rt", &["S2"]).unwrap())
                .unwrap();
            scratch.insert_relation(right);
            join(
                &scratch,
                "L",
                "Rt",
                "J",
                &Predicate::cmp_attr("S1", CmpOp::Eq, "S2"),
            )
            .unwrap()
        };
        assert!(joined.len() <= prod.len());
        let unioned = {
            let mut scratch = udb.clone();
            let mut a = proj.clone();
            a.set_schema(Schema::new("A", &["S"]).unwrap()).unwrap();
            let mut b = proj.clone();
            b.set_schema(Schema::new("B", &["S"]).unwrap()).unwrap();
            scratch.insert_relation(a);
            scratch.insert_relation(b);
            union(&scratch, "A", "B").unwrap()
        };
        assert_eq!(
            unioned.possible_tuples().len(),
            proj.possible_tuples().len()
        );

        // evaluate_query registers the result under the requested name and
        // leaves no scratch relations behind.
        let names_before = udb.relation_names().len();
        let out = engine::evaluate_query(
            &mut udb,
            &RaExpr::rel("R").select(Predicate::eq_const("M", 1i64)),
            "Q",
        )
        .unwrap();
        assert_eq!(out, "Q");
        assert!(udb.contains_relation("Q"));
        assert_eq!(udb.relation_names().len(), names_before + 1);
        assert_eq!(
            possible_tuples(&udb, "Q").unwrap().len(),
            sel.possible_tuples().len()
        );
    }

    #[test]
    fn difference_is_rejected_as_non_positive() {
        let udb = census_udb();
        let query = RaExpr::rel("R").difference(RaExpr::rel("R"));
        assert!(matches!(
            possible_answer(&udb, &query),
            Err(UrelError::Unsupported(_))
        ));
        // A failed evaluation must not leak scratch relations either.
        let mut scratch = census_udb();
        let names_before = scratch.relation_names().len();
        assert!(engine::evaluate_query(&mut scratch, &query, "Q").is_err());
        assert_eq!(scratch.relation_names().len(), names_before);
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
        engine::evaluate_query(&mut udb, &query, "J").unwrap();
        let result = udb.relation("J").unwrap();
        // Exactly the four matching pairs, each annotated with a two-variable
        // descriptor; the world table still has two variables.
        assert_eq!(result.len(), 4);
        assert!(result.rows().iter().all(|(_, d)| d.len() == 2));
        assert_eq!(udb.world_table().len(), 2);
        let _ = WsDescriptor::empty();
    }
}
