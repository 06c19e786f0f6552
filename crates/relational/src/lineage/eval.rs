//! The annotated executor: evaluate a positive plan over a lineage database,
//! propagating one clause per derivation.
//!
//! This mirrors the single-world evaluator in [`crate::algebra`] operator by
//! operator, except that every intermediate row carries the [`Clause`] under
//! which it exists:
//!
//! * a base scan emits the relation's annotated rows (borrowed, not copied),
//! * selection keeps a row's clause untouched; its predicate is compiled
//!   against the input schema once,
//! * projection and renaming reshape the tuple and keep the clause,
//! * product conjoins the operand clauses — derivations whose clauses bind a
//!   shared variable to different choices are *impossible* (no world
//!   contains both rows) and drop out,
//! * a selection directly over a product is a θ-join: the predicate filters
//!   the pairs as they are formed, so the product is never materialized, and
//! * union concatenates the derivations of both sides.
//!
//! Set-semantics deduplication is deferred to the end: the output tuple's
//! lineage is the disjunction ([`Dnf`]) of **all** of its derivations'
//! clauses, grouped by [`LineageOutput::dnfs`].  Difference is rejected —
//! negation takes the lineage outside DNF and outside the compiled tier;
//! callers fall back to the backend's native exact path.
//!
//! This is the whole query executor of U-relations (`ws_urel`), and the
//! shadow evaluator of the session's compiled confidence tier for every
//! other backend.

use super::model::{Clause, Dnf, LineageDb, LineageRelation};
use crate::algebra::RaExpr;
use crate::error::{RelationalError, Result};
use crate::predicate::Predicate;
use crate::relation::Relation;
use crate::schema::Schema;
use crate::tuple::Tuple;
use std::borrow::Cow;
use std::collections::{BTreeMap, HashSet};

/// The result of an annotated evaluation: every derivation of every output
/// tuple, in plan order.
#[derive(Clone, Debug, PartialEq)]
pub struct LineageOutput {
    rows: LineageRelation,
}

impl LineageOutput {
    /// The annotated derivations (one row per derivation; tuples repeat).
    pub fn derivations(&self) -> &LineageRelation {
        &self.rows
    }

    /// The derivations as a relation named `name`.
    pub fn into_relation(self, name: &str) -> LineageRelation {
        let schema = self.rows.schema().renamed_relation(name);
        self.rows.with_schema(schema)
    }

    /// The possible output tuples (set semantics, first-occurrence order).
    pub fn possible(&self) -> Result<Relation> {
        self.rows.possible()
    }

    /// Group the derivations into one [`Dnf`] per distinct output tuple.
    pub fn dnfs(&self) -> BTreeMap<Tuple, Dnf> {
        let mut out: BTreeMap<Tuple, Dnf> = BTreeMap::new();
        // Derivations repeat when distinct plan paths produce the same
        // clause; the disjunction is idempotent, so keep the first copy.
        let mut seen: HashSet<(&Tuple, &Clause)> = HashSet::new();
        for (tuple, clause) in self.rows.rows() {
            if seen.insert((tuple, clause)) {
                out.entry(tuple.clone()).or_default().push(clause.clone());
            }
        }
        out
    }
}

/// Evaluate a positive plan over `db`, returning every output derivation
/// with its clause.  Errors on `Difference` (negation has no DNF lineage)
/// and on the same schema violations the single-world evaluator rejects.
pub fn evaluate_lineage(db: &LineageDb, plan: &RaExpr) -> Result<LineageOutput> {
    Ok(LineageOutput {
        rows: eval(db, plan)?.into_owned(),
    })
}

fn eval<'a>(db: &'a LineageDb, expr: &RaExpr) -> Result<Cow<'a, LineageRelation>> {
    Ok(match expr {
        RaExpr::Rel(name) => Cow::Borrowed(db.relation(name)?),
        RaExpr::Select { pred, input } => match input.as_ref() {
            RaExpr::Product { left, right } => Cow::Owned(product(db, left, right, Some(pred))?),
            _ => {
                let rel = eval(db, input)?;
                let mut out = LineageRelation::new(rel.schema().clone());
                let keep = row_filter(pred, rel.schema());
                for (tuple, clause) in rel.rows() {
                    if keep(tuple)? {
                        out.push(tuple.clone(), clause.clone())?;
                    }
                }
                Cow::Owned(out)
            }
        },
        RaExpr::Project { attrs, input } => {
            let rel = eval(db, input)?;
            let positions: Vec<usize> = attrs
                .iter()
                .map(|a| rel.schema().position_of(a))
                .collect::<Result<_>>()?;
            let schema = rel
                .schema()
                .projected(&attrs.iter().map(String::as_str).collect::<Vec<_>>())?;
            let mut out = LineageRelation::new(schema);
            for (tuple, clause) in rel.rows() {
                out.push(tuple.project_positions(&positions), clause.clone())?;
            }
            Cow::Owned(out)
        }
        RaExpr::Product { left, right } => Cow::Owned(product(db, left, right, None)?),
        RaExpr::Union { left, right } => {
            let l = eval(db, left)?;
            let r = eval(db, right)?;
            l.schema().check_union_compatible(r.schema())?;
            let mut out = LineageRelation::new(l.schema().clone());
            for (tuple, clause) in l.rows().iter().chain(r.rows()) {
                out.push(tuple.clone(), clause.clone())?;
            }
            Cow::Owned(out)
        }
        RaExpr::Difference { .. } => {
            return Err(RelationalError::Invalid(
                "lineage evaluation does not support difference (negation has no DNF lineage)"
                    .to_string(),
            ))
        }
        RaExpr::Rename { from, to, input } => {
            let rel = eval(db, input)?;
            let schema = rel.schema().renamed_attr(from, to.as_str())?;
            Cow::Owned(rel.into_owned().with_schema(schema))
        }
    })
}

/// `left × right`, or the θ-join `σ_pred(left × right)` when `pred` is
/// given: each pair is tested as it is formed, and only a kept pair's
/// clauses are conjoined.
fn product(
    db: &LineageDb,
    left: &RaExpr,
    right: &RaExpr,
    pred: Option<&Predicate>,
) -> Result<LineageRelation> {
    let l = eval(db, left)?;
    let r = eval(db, right)?;
    let schema = l
        .schema()
        .product(r.schema(), l.schema().relation().as_ref())?;
    let keep = pred.map(|pred| row_filter(pred, &schema));
    let mut out = LineageRelation::new(schema);
    for (lt, lc) in l.rows() {
        for (rt, rc) in r.rows() {
            let joined = lt.concat(rt);
            if let Some(keep) = &keep {
                if !keep(&joined)? {
                    continue;
                }
            }
            // A conflicting conjunction means no world derives the
            // combined row: drop the derivation entirely.
            if let Some(clause) = lc.conjoin(rc) {
                out.push(joined, clause)?;
            }
        }
    }
    Ok(out)
}

/// A row test for `pred` over `schema`: the predicate compiled once, or —
/// when it names an unknown attribute — the per-row evaluator, which
/// reports that error only once a row reaches it.
fn row_filter<'p>(pred: &'p Predicate, schema: &Schema) -> impl Fn(&Tuple) -> Result<bool> + 'p {
    let compiled = pred.compile(schema).ok();
    let schema = schema.clone();
    move |tuple| match &compiled {
        Some(compiled) => Ok(compiled.eval(tuple)),
        None => pred.eval(&schema, tuple),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lineage::model::{Clause, VarTable};
    use crate::predicate::Predicate;

    /// Two tuple-independent relations: R(A, B) with vars x0, x1 and
    /// S(B) with var y.
    fn db() -> LineageDb {
        let mut vars = VarTable::new();
        let x0 = vars.add_var("x0", vec![0.5, 0.5]).unwrap();
        let x1 = vars.add_var("x1", vec![0.75, 0.25]).unwrap();
        let y = vars.add_var("y", vec![0.5, 0.5]).unwrap();
        let mut db = LineageDb::new(vars);
        let mut r = LineageRelation::new(Schema::new("R", &["A", "B"]).unwrap());
        r.push(Tuple::from_iter([1i64, 10]), Clause::of(x0, 1))
            .unwrap();
        r.push(Tuple::from_iter([2i64, 20]), Clause::of(x1, 1))
            .unwrap();
        db.insert_relation(r);
        let mut s = LineageRelation::new(Schema::new("S", &["C"]).unwrap());
        s.push(Tuple::from_iter([10i64]), Clause::of(y, 1)).unwrap();
        db.insert_relation(s);
        db
    }

    #[test]
    fn scan_select_project_keep_clauses() {
        let db = db();
        let q = RaExpr::rel("R")
            .select(Predicate::eq_const("A", 1i64))
            .project(vec!["B"]);
        let out = evaluate_lineage(&db, &q).unwrap();
        let dnfs = out.dnfs();
        assert_eq!(dnfs.len(), 1);
        let dnf = &dnfs[&Tuple::from_iter([10i64])];
        assert_eq!(dnf.as_slice(), &[Clause::of(0, 1)]);
    }

    #[test]
    fn product_conjoins_and_drops_conflicts() {
        let db = db();
        let q = RaExpr::rel("R").join(
            RaExpr::rel("S"),
            Predicate::cmp_attr("B", crate::predicate::CmpOp::Eq, "C"),
        );
        let out = evaluate_lineage(&db, &q).unwrap();
        let dnfs = out.dnfs();
        assert_eq!(dnfs.len(), 1);
        let dnf = &dnfs[&Tuple::from_iter([1i64, 10, 10])];
        assert_eq!(
            dnf.as_slice(),
            &[Clause::from_bindings([(0, 1), (2, 1)]).unwrap()]
        );

        // Conflicting derivations are impossible and drop out: join R with a
        // row requiring x0 = 0 while R's row requires x0 = 1.
        let mut db2 = db.clone();
        let mut s2 = LineageRelation::new(Schema::new("S2", &["D"]).unwrap());
        s2.push(Tuple::from_iter([10i64]), Clause::of(0, 0))
            .unwrap();
        db2.insert_relation(s2);
        let q = RaExpr::rel("R").join(
            RaExpr::rel("S2"),
            Predicate::cmp_attr("B", crate::predicate::CmpOp::Eq, "D"),
        );
        let out = evaluate_lineage(&db2, &q).unwrap();
        assert!(out.dnfs().is_empty());
    }

    #[test]
    fn theta_join_matches_the_filtered_product() {
        let db = db();
        let pred = Predicate::cmp_attr("B", crate::predicate::CmpOp::Ge, "C");
        let product = RaExpr::rel("R").product(RaExpr::rel("S"));
        let joined = evaluate_lineage(&db, &product.clone().select(pred.clone())).unwrap();
        // The same plan with the selection one step removed from the
        // product runs select-over-materialized-product.
        let unfused = evaluate_lineage(
            &db,
            &product.rename("A", "A2").select(pred).rename("A2", "A"),
        )
        .unwrap();
        assert_eq!(joined.derivations().rows(), unfused.derivations().rows());
        assert_eq!(joined.dnfs().len(), 2);
    }

    #[test]
    fn unknown_attributes_fail_only_once_a_row_reaches_them() {
        let db = db();
        let pred = Predicate::eq_const("NOPE", 1i64);
        assert!(evaluate_lineage(&db, &RaExpr::rel("R").select(pred.clone())).is_err());
        // No row reaches the predicate: the interpreted fallback never runs.
        let empty = RaExpr::rel("R")
            .select(Predicate::eq_const("A", 99i64))
            .select(pred);
        assert!(evaluate_lineage(&db, &empty).unwrap().dnfs().is_empty());
    }

    #[test]
    fn union_accumulates_dnf_and_dedups_identical_clauses() {
        let db = db();
        let q = RaExpr::rel("R")
            .project(vec!["B"])
            .union(RaExpr::rel("R").project(vec!["B"]));
        let out = evaluate_lineage(&db, &q).unwrap();
        let dnfs = out.dnfs();
        // Identical clauses from both branches collapse to one.
        assert_eq!(dnfs[&Tuple::from_iter([10i64])].len(), 1);
        assert_eq!(dnfs[&Tuple::from_iter([20i64])].len(), 1);
        // Possible output preserves first-occurrence order.
        let possible = out.possible().unwrap();
        assert_eq!(possible.rows().len(), 2);
    }

    #[test]
    fn difference_is_rejected() {
        let db = db();
        let q = RaExpr::rel("S").difference(RaExpr::rel("S"));
        assert!(evaluate_lineage(&db, &q).is_err());
    }
}
