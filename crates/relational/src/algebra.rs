//! Relational algebra AST and the single-world evaluator.
//!
//! The AST covers exactly the named-perspective operators of §2: selection
//! `σ`, projection `π`, product `×`, union `∪`, difference `−` and attribute
//! renaming `δ`.  The evaluator runs a query against one ordinary
//! [`Database`] (one possible world); it serves three purposes:
//!
//! 1. the "0% density" single-world baseline of Figure 30,
//! 2. the per-world oracle used to validate the world-set operators
//!    (`ws-baselines::explicit`), and
//! 3. query evaluation over template relations inside the UWSDT engine.

use crate::database::Database;
use crate::error::{RelationalError, Result};
use crate::predicate::Predicate;
use crate::relation::Relation;
use crate::tuple::Tuple;
use std::collections::HashSet;
use std::fmt;

/// A relational algebra expression.
#[derive(Clone, Debug, PartialEq)]
pub enum RaExpr {
    /// A base relation reference `R`.
    Rel(String),
    /// Selection `σ_pred(input)`.
    Select {
        /// The selection condition.
        pred: Predicate,
        /// The input expression.
        input: Box<RaExpr>,
    },
    /// Projection `π_attrs(input)`; attributes are kept in the given order.
    Project {
        /// The projection list `U`.
        attrs: Vec<String>,
        /// The input expression.
        input: Box<RaExpr>,
    },
    /// Product `left × right` (attribute sets must be disjoint).
    Product {
        /// Left operand.
        left: Box<RaExpr>,
        /// Right operand.
        right: Box<RaExpr>,
    },
    /// Union `left ∪ right` (operands must be union-compatible).
    Union {
        /// Left operand.
        left: Box<RaExpr>,
        /// Right operand.
        right: Box<RaExpr>,
    },
    /// Difference `left − right` (operands must be union-compatible).
    Difference {
        /// Left operand.
        left: Box<RaExpr>,
        /// Right operand.
        right: Box<RaExpr>,
    },
    /// Attribute renaming `δ_{from→to}(input)`.
    Rename {
        /// The attribute to rename.
        from: String,
        /// Its new name.
        to: String,
        /// The input expression.
        input: Box<RaExpr>,
    },
}

impl RaExpr {
    /// Reference a base relation.
    pub fn rel(name: impl Into<String>) -> RaExpr {
        RaExpr::Rel(name.into())
    }

    /// Wrap `self` in a selection.
    pub fn select(self, pred: Predicate) -> RaExpr {
        RaExpr::Select {
            pred,
            input: Box::new(self),
        }
    }

    /// Wrap `self` in a projection (attributes keep the given order).
    pub fn project<S: Into<String>>(self, attrs: impl IntoIterator<Item = S>) -> RaExpr {
        RaExpr::Project {
            attrs: attrs.into_iter().map(Into::into).collect(),
            input: Box::new(self),
        }
    }

    /// Product with another expression.
    pub fn product(self, other: RaExpr) -> RaExpr {
        RaExpr::Product {
            left: Box::new(self),
            right: Box::new(other),
        }
    }

    /// Union with another expression.
    pub fn union(self, other: RaExpr) -> RaExpr {
        RaExpr::Union {
            left: Box::new(self),
            right: Box::new(other),
        }
    }

    /// Difference with another expression.
    pub fn difference(self, other: RaExpr) -> RaExpr {
        RaExpr::Difference {
            left: Box::new(self),
            right: Box::new(other),
        }
    }

    /// Rename one attribute.
    pub fn rename(self, from: impl Into<String>, to: impl Into<String>) -> RaExpr {
        RaExpr::Rename {
            from: from.into(),
            to: to.into(),
            input: Box::new(self),
        }
    }

    /// The θ-join `self ⋈_pred other`, expressed as `σ_pred(self × other)`.
    pub fn join(self, other: RaExpr, pred: Predicate) -> RaExpr {
        self.product(other).select(pred)
    }

    /// Names of all base relations referenced by the expression.
    pub fn base_relations(&self) -> Vec<&str> {
        let mut out = Vec::new();
        self.collect_relations(&mut out);
        out.sort_unstable();
        out.dedup();
        out
    }

    fn collect_relations<'a>(&'a self, out: &mut Vec<&'a str>) {
        match self {
            RaExpr::Rel(name) => out.push(name),
            RaExpr::Select { input, .. }
            | RaExpr::Project { input, .. }
            | RaExpr::Rename { input, .. } => input.collect_relations(out),
            RaExpr::Product { left, right }
            | RaExpr::Union { left, right }
            | RaExpr::Difference { left, right } => {
                left.collect_relations(out);
                right.collect_relations(out);
            }
        }
    }

    /// Number of operator nodes (used for reporting query complexity).
    pub fn node_count(&self) -> usize {
        match self {
            RaExpr::Rel(_) => 1,
            RaExpr::Select { input, .. }
            | RaExpr::Project { input, .. }
            | RaExpr::Rename { input, .. } => 1 + input.node_count(),
            RaExpr::Product { left, right }
            | RaExpr::Union { left, right }
            | RaExpr::Difference { left, right } => 1 + left.node_count() + right.node_count(),
        }
    }
}

impl fmt::Display for RaExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RaExpr::Rel(n) => write!(f, "{n}"),
            RaExpr::Select { pred, input } => write!(f, "σ[{pred}]({input})"),
            RaExpr::Project { attrs, input } => write!(f, "π[{}]({input})", attrs.join(",")),
            RaExpr::Product { left, right } => write!(f, "({left} × {right})"),
            RaExpr::Union { left, right } => write!(f, "({left} ∪ {right})"),
            RaExpr::Difference { left, right } => write!(f, "({left} − {right})"),
            RaExpr::Rename { from, to, input } => write!(f, "δ[{from}→{to}]({input})"),
        }
    }
}

/// Evaluate a relational-algebra expression against one database (one world).
///
/// The result uses bag semantics internally; callers needing set semantics
/// (world comparison) should use [`Relation::set_eq`] / [`Relation::dedup`].
pub fn evaluate(db: &Database, expr: &RaExpr) -> Result<Relation> {
    match expr {
        RaExpr::Rel(name) => Ok(db.relation(name)?.clone()),
        RaExpr::Select { pred, input } => {
            let rel = evaluate(db, input)?;
            let mut out = Relation::new(rel.schema().clone());
            for row in rel.rows() {
                if pred.eval(rel.schema(), row)? {
                    out.push(row.clone())?;
                }
            }
            Ok(out)
        }
        RaExpr::Project { attrs, input } => {
            let rel = evaluate(db, input)?;
            let positions: Vec<usize> = attrs
                .iter()
                .map(|a| rel.schema().position_of(a))
                .collect::<Result<_>>()?;
            let schema = rel
                .schema()
                .projected(&attrs.iter().map(String::as_str).collect::<Vec<_>>())?;
            let mut out = Relation::new(schema);
            for row in rel.rows() {
                out.push(row.project_positions(&positions))?;
            }
            Ok(out)
        }
        RaExpr::Product { left, right } => {
            let l = evaluate(db, left)?;
            let r = evaluate(db, right)?;
            let schema = l
                .schema()
                .product(r.schema(), l.schema().relation().as_ref())?;
            let mut out = Relation::new(schema);
            for lt in l.rows() {
                for rt in r.rows() {
                    out.push(lt.concat(rt))?;
                }
            }
            Ok(out)
        }
        RaExpr::Union { left, right } => {
            let l = evaluate(db, left)?;
            let r = evaluate(db, right)?;
            l.schema().check_union_compatible(r.schema())?;
            let mut out = Relation::new(l.schema().clone());
            for row in l.rows().iter().chain(r.rows()) {
                out.push(row.clone())?;
            }
            out.dedup();
            Ok(out)
        }
        RaExpr::Difference { left, right } => {
            let l = evaluate(db, left)?;
            let r = evaluate(db, right)?;
            l.schema().check_union_compatible(r.schema())?;
            let right_rows: HashSet<&Tuple> = r.rows().iter().collect();
            let mut out = Relation::new(l.schema().clone());
            for row in l.rows() {
                if !right_rows.contains(row) {
                    out.push(row.clone())?;
                }
            }
            out.dedup();
            Ok(out)
        }
        RaExpr::Rename { from, to, input } => {
            let rel = evaluate(db, input)?;
            let schema = rel.schema().renamed_attr(from, to.as_str())?;
            Relation::with_rows(schema, rel.into_rows())
        }
    }
}

/// Evaluate and force set semantics (deduplicated rows).
pub fn evaluate_set(db: &Database, expr: &RaExpr) -> Result<Relation> {
    let mut rel = evaluate(db, expr)?;
    rel.dedup();
    Ok(rel)
}

/// Validate that an expression only references relations present in the
/// database, returning the missing names.
pub fn missing_relations(db: &Database, expr: &RaExpr) -> Vec<String> {
    expr.base_relations()
        .into_iter()
        .filter(|r| !db.contains_relation(r))
        .map(str::to_string)
        .collect()
}

/// Convenience: evaluate, mapping missing relations to a dedicated error.
pub fn evaluate_checked(db: &Database, expr: &RaExpr) -> Result<Relation> {
    let missing = missing_relations(db, expr);
    if let Some(first) = missing.into_iter().next() {
        return Err(RelationalError::UnknownRelation(first));
    }
    evaluate(db, expr)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predicate::{CmpOp, Predicate};
    use crate::schema::Schema;

    fn db() -> Database {
        let mut d = Database::new();
        let mut r = Relation::new(Schema::new("R", &["A", "B"]).unwrap());
        r.push_values([1i64, 10]).unwrap();
        r.push_values([2i64, 20]).unwrap();
        r.push_values([3i64, 10]).unwrap();
        d.insert_relation(r);
        let mut s = Relation::new(Schema::new("S", &["C"]).unwrap());
        s.push_values([100i64]).unwrap();
        s.push_values([200i64]).unwrap();
        d.insert_relation(s);
        d
    }

    #[test]
    fn base_relation_and_selection() {
        let d = db();
        let q = RaExpr::rel("R").select(Predicate::eq_const("B", 10i64));
        let out = evaluate(&d, &q).unwrap();
        assert_eq!(out.len(), 2);
        let q = RaExpr::rel("R").select(Predicate::cmp_const("A", CmpOp::Ge, 3i64));
        assert_eq!(evaluate(&d, &q).unwrap().len(), 1);
    }

    #[test]
    fn projection_keeps_order_and_duplicates() {
        let d = db();
        let q = RaExpr::rel("R").project(vec!["B"]);
        let out = evaluate(&d, &q).unwrap();
        assert_eq!(out.len(), 3);
        assert_eq!(out.schema().attrs()[0].as_ref(), "B");
        let out = evaluate_set(&d, &q).unwrap();
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn product_and_join() {
        let d = db();
        let q = RaExpr::rel("R").product(RaExpr::rel("S"));
        let out = evaluate(&d, &q).unwrap();
        assert_eq!(out.len(), 6);
        assert_eq!(out.schema().arity(), 3);

        let join =
            RaExpr::rel("R").join(RaExpr::rel("S"), Predicate::cmp_attr("A", CmpOp::Lt, "C"));
        assert_eq!(evaluate(&d, &join).unwrap().len(), 6);
    }

    #[test]
    fn union_and_difference_are_set_semantics() {
        let d = db();
        let left = RaExpr::rel("R").select(Predicate::eq_const("B", 10i64));
        let right = RaExpr::rel("R").select(Predicate::eq_const("A", 1i64));
        let u = evaluate(&d, &left.clone().union(right.clone())).unwrap();
        assert_eq!(u.len(), 2); // (1,10) appears in both operands, kept once.
        let m = evaluate(&d, &left.difference(right)).unwrap();
        assert_eq!(m.len(), 1);
        assert_eq!(m.rows()[0][0], crate::value::Value::int(3));
    }

    #[test]
    fn union_requires_compatible_schemas() {
        let d = db();
        let q = RaExpr::rel("R").union(RaExpr::rel("S"));
        assert!(evaluate(&d, &q).is_err());
    }

    #[test]
    fn rename_changes_schema_only() {
        let d = db();
        let q = RaExpr::rel("R").rename("A", "A2");
        let out = evaluate(&d, &q).unwrap();
        assert!(out.schema().contains("A2"));
        assert!(!out.schema().contains("A"));
        assert_eq!(out.len(), 3);
    }

    #[test]
    fn metadata_helpers() {
        let d = db();
        let q = RaExpr::rel("R")
            .join(RaExpr::rel("S"), Predicate::cmp_attr("A", CmpOp::Eq, "C"))
            .project(vec!["A"]);
        assert_eq!(q.base_relations(), vec!["R", "S"]);
        assert_eq!(q.node_count(), 5);
        assert!(missing_relations(&d, &q).is_empty());
        let bad = RaExpr::rel("T");
        assert_eq!(missing_relations(&d, &bad), vec!["T".to_string()]);
        assert!(evaluate_checked(&d, &bad).is_err());
        assert!(evaluate_checked(&d, &q).is_ok());
        let shown = q.to_string();
        assert!(shown.contains("π[A]"));
        assert!(shown.contains("σ["));
    }

    #[test]
    fn nested_query_matches_manual_evaluation() {
        let d = db();
        // π_B(σ_{A≠2}(R)) ∪ π_B(σ_{B>15}(R))
        let q = RaExpr::rel("R")
            .select(Predicate::cmp_const("A", CmpOp::Ne, 2i64))
            .project(vec!["B"])
            .union(
                RaExpr::rel("R")
                    .select(Predicate::cmp_const("B", CmpOp::Gt, 15i64))
                    .project(vec!["B"]),
            );
        let out = evaluate(&d, &q).unwrap();
        let values: std::collections::BTreeSet<i64> =
            out.rows().iter().map(|t| t[0].as_int().unwrap()).collect();
        assert_eq!(values, [10i64, 20].into_iter().collect());
    }
}
