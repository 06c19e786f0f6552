//! Rule-based query optimizer for [`RaExpr`] plans.
//!
//! Section 5 of the paper notes that the standard relational optimizations
//! remain applicable when rewriting queries onto UWSDTs: selections are merged
//! with products into joins, selections and projections are distributed to the
//! operands, and repeated scans are shared.  This module implements the plan
//! rewrites used by those optimizations on the single-world algebra so that
//! both the one-world baseline and the UWSDT query rewriter can run over
//! optimized plans:
//!
//! * conjunctive selections are split, pushed as far down as possible
//!   (through projections, renamings, unions, the left side of differences
//!   and into the matching side of a product) and re-merged,
//! * adjacent selections are combined into one conjunction,
//! * adjacent projections are collapsed,
//! * a join conjunct stays directly on its product, where the executors
//!   recognise `σ_{A=B}(L × R)` as a physical equi-join.
//!
//! Every rule reads the catalog's schemas only, never rows, so an optimized
//! plan stays valid for as long as the schemas do.
//!
//! All rewrites preserve the evaluation semantics of
//! [`crate::algebra::evaluate`] (bag semantics for select/project/product,
//! set semantics for union and difference);
//! `tests::optimized_plans_are_equivalent` and the
//! `optimizer_equivalence` integration test check this against randomly
//! generated databases.

use std::collections::BTreeSet;

use crate::algebra::RaExpr;
use crate::engine::SchemaCatalog;
use crate::error::Result;
use crate::predicate::Predicate;

/// The attribute names an expression produces, computed structurally (without
/// evaluating the plan).  Base relations are resolved against the catalog of
/// any backend — a one-world [`crate::Database`], a WSD, a UWSDT, a U-relation
/// store or an explicit world-set.
pub fn output_attrs<C: SchemaCatalog + ?Sized>(
    catalog: &C,
    expr: &RaExpr,
) -> Result<BTreeSet<String>> {
    Ok(match expr {
        RaExpr::Rel(name) => catalog
            .schema_of(name)?
            .attrs()
            .iter()
            .map(|a| a.to_string())
            .collect(),
        RaExpr::Select { input, .. } => output_attrs(catalog, input)?,
        RaExpr::Project { attrs, .. } => attrs.iter().cloned().collect(),
        RaExpr::Product { left, right } => {
            let mut l = output_attrs(catalog, left)?;
            l.extend(output_attrs(catalog, right)?);
            l
        }
        RaExpr::Union { left, .. } | RaExpr::Difference { left, .. } => {
            output_attrs(catalog, left)?
        }
        RaExpr::Rename { from, to, input } => {
            let mut attrs = output_attrs(catalog, input)?;
            if attrs.remove(from) {
                attrs.insert(to.clone());
            }
            attrs
        }
    })
}

/// Replace every occurrence of attribute `from` by `to` inside a predicate.
///
/// Used when a selection is pushed through a renaming `δ_{to→from}`.
pub fn rename_pred_attr(pred: &Predicate, from: &str, to: &str) -> Predicate {
    match pred {
        Predicate::AttrConst { attr, op, value } => Predicate::AttrConst {
            attr: if attr == from {
                to.to_string()
            } else {
                attr.clone()
            },
            op: *op,
            value: value.clone(),
        },
        Predicate::AttrAttr { left, op, right } => Predicate::AttrAttr {
            left: if left == from {
                to.to_string()
            } else {
                left.clone()
            },
            op: *op,
            right: if right == from {
                to.to_string()
            } else {
                right.clone()
            },
        },
        Predicate::And(ps) => {
            Predicate::And(ps.iter().map(|p| rename_pred_attr(p, from, to)).collect())
        }
        Predicate::Or(ps) => {
            Predicate::Or(ps.iter().map(|p| rename_pred_attr(p, from, to)).collect())
        }
        Predicate::Not(p) => Predicate::Not(Box::new(rename_pred_attr(p, from, to))),
    }
}

/// Split a predicate into its top-level conjuncts.
///
/// `A=1 ∧ (B=2 ∨ C=3) ∧ D>0` becomes three predicates; non-conjunctive
/// predicates are returned as a single-element vector.
pub fn conjuncts(pred: &Predicate) -> Vec<Predicate> {
    match pred {
        Predicate::And(ps) => ps.iter().flat_map(conjuncts).collect(),
        other => vec![other.clone()],
    }
}

/// Re-assemble a conjunction, avoiding a needless `And` wrapper for a single
/// conjunct and producing the always-true empty conjunction for none.
pub fn conjunction(mut preds: Vec<Predicate>) -> Predicate {
    if preds.len() == 1 {
        preds.pop().expect("len checked")
    } else {
        Predicate::And(preds)
    }
}

fn is_subset(needed: &[&str], available: &BTreeSet<String>) -> bool {
    needed.iter().all(|a| available.contains(*a))
}

/// One bottom-up rewriting pass.  Returns the rewritten expression and a flag
/// indicating whether anything changed.
fn rewrite_once<C: SchemaCatalog + ?Sized>(catalog: &C, expr: &RaExpr) -> Result<(RaExpr, bool)> {
    match expr {
        RaExpr::Rel(_) => Ok((expr.clone(), false)),
        RaExpr::Select { pred, input } => {
            let (input, mut changed) = rewrite_once(catalog, input)?;
            // Merge with an inner selection first: σ_p(σ_q(E)) = σ_{p∧q}(E).
            let (pred, input) = if let RaExpr::Select {
                pred: inner_pred,
                input: inner_input,
            } = input
            {
                changed = true;
                let mut all = conjuncts(pred);
                all.extend(conjuncts(&inner_pred));
                (conjunction(all), *inner_input)
            } else {
                (pred.clone(), input)
            };

            // Try to push each conjunct down through the input operator.
            let mut remaining: Vec<Predicate> = Vec::new();
            let mut pushed_any = false;
            let mut new_input = input;
            for conjunct in conjuncts(&pred) {
                match push_conjunct(catalog, conjunct, new_input)? {
                    (next_input, None) => {
                        pushed_any = true;
                        new_input = next_input;
                    }
                    (next_input, Some(kept)) => {
                        new_input = next_input;
                        remaining.push(kept);
                    }
                }
            }
            changed |= pushed_any;
            let result = if remaining.is_empty() {
                new_input
            } else {
                RaExpr::Select {
                    pred: conjunction(remaining),
                    input: Box::new(new_input),
                }
            };
            Ok((result, changed))
        }
        RaExpr::Project { attrs, input } => {
            let (input, mut changed) = rewrite_once(catalog, input)?;
            // π_U(π_V(E)) = π_U(E) whenever the outer list is valid, which it
            // must be for the plan to type-check.
            let input = if let RaExpr::Project {
                input: inner_input, ..
            } = input
            {
                changed = true;
                *inner_input
            } else {
                input
            };
            Ok((
                RaExpr::Project {
                    attrs: attrs.clone(),
                    input: Box::new(input),
                },
                changed,
            ))
        }
        RaExpr::Product { left, right } => {
            let (l, cl) = rewrite_once(catalog, left)?;
            let (r, cr) = rewrite_once(catalog, right)?;
            Ok((
                RaExpr::Product {
                    left: Box::new(l),
                    right: Box::new(r),
                },
                cl || cr,
            ))
        }
        RaExpr::Union { left, right } => {
            let (l, cl) = rewrite_once(catalog, left)?;
            let (r, cr) = rewrite_once(catalog, right)?;
            Ok((
                RaExpr::Union {
                    left: Box::new(l),
                    right: Box::new(r),
                },
                cl || cr,
            ))
        }
        RaExpr::Difference { left, right } => {
            let (l, cl) = rewrite_once(catalog, left)?;
            let (r, cr) = rewrite_once(catalog, right)?;
            Ok((
                RaExpr::Difference {
                    left: Box::new(l),
                    right: Box::new(r),
                },
                cl || cr,
            ))
        }
        RaExpr::Rename { from, to, input } => {
            let (input, changed) = rewrite_once(catalog, input)?;
            Ok((
                RaExpr::Rename {
                    from: from.clone(),
                    to: to.clone(),
                    input: Box::new(input),
                },
                changed,
            ))
        }
    }
}

/// Try to push one selection conjunct below the root operator of `input`.
///
/// Returns the (possibly rewritten) input together with `None` if the
/// conjunct was absorbed below, or `Some(conjunct)` if it has to stay above.
fn push_conjunct<C: SchemaCatalog + ?Sized>(
    catalog: &C,
    conjunct: Predicate,
    input: RaExpr,
) -> Result<(RaExpr, Option<Predicate>)> {
    let needed = conjunct
        .referenced_attrs()
        .into_iter()
        .map(str::to_string)
        .collect::<Vec<_>>();
    let needed_refs: Vec<&str> = needed.iter().map(String::as_str).collect();
    match input {
        RaExpr::Product { left, right } => {
            let left_attrs = output_attrs(catalog, &left)?;
            let right_attrs = output_attrs(catalog, &right)?;
            if is_subset(&needed_refs, &left_attrs) {
                Ok((
                    RaExpr::Product {
                        left: Box::new(left.select(conjunct)),
                        right,
                    },
                    None,
                ))
            } else if is_subset(&needed_refs, &right_attrs) {
                Ok((
                    RaExpr::Product {
                        left,
                        right: Box::new(right.select(conjunct)),
                    },
                    None,
                ))
            } else {
                // A genuine join condition: it has to stay above the product.
                Ok((RaExpr::Product { left, right }, Some(conjunct)))
            }
        }
        RaExpr::Union { left, right } => Ok((
            RaExpr::Union {
                left: Box::new(left.select(conjunct.clone())),
                right: Box::new(right.select(conjunct)),
            },
            None,
        )),
        RaExpr::Difference { left, right } => Ok((
            // σ_p(E1 − E2) = σ_p(E1) − E2 under set semantics.
            RaExpr::Difference {
                left: Box::new(left.select(conjunct)),
                right,
            },
            None,
        )),
        RaExpr::Rename { from, to, input } => {
            let rewritten = rename_pred_attr(&conjunct, &to, &from);
            Ok((
                RaExpr::Rename {
                    from,
                    to,
                    input: Box::new(input.select(rewritten)),
                },
                None,
            ))
        }
        RaExpr::Project { attrs, input } => {
            // The conjunct only mentions projected attributes (otherwise the
            // original plan would not type-check), so it commutes with π.
            Ok((
                RaExpr::Project {
                    attrs,
                    input: Box::new(input.select(conjunct)),
                },
                None,
            ))
        }
        other @ (RaExpr::Rel(_) | RaExpr::Select { .. }) => Ok((other, Some(conjunct))),
    }
}

/// Optimize a plan by applying the rewrite rules to a fixpoint.
///
/// The rewriting is bounded by the plan size, so this always terminates; in
/// practice two or three passes suffice.
pub fn optimize<C: SchemaCatalog + ?Sized>(catalog: &C, expr: &RaExpr) -> Result<RaExpr> {
    let mut current = expr.clone();
    let bound = expr.node_count() + 4;
    for _ in 0..bound {
        let (next, changed) = rewrite_once(catalog, &current)?;
        current = next;
        if !changed {
            break;
        }
    }
    Ok(current)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algebra::evaluate;
    use crate::database::Database;
    use crate::predicate::CmpOp;
    use crate::relation::Relation;
    use crate::schema::Schema;
    use crate::tuple::Tuple;
    use crate::value::Value;

    fn sample_db() -> Database {
        let mut db = Database::new();
        let mut r = Relation::new(Schema::new("R", &["A", "B"]).unwrap());
        for (a, b) in [(1, 10), (2, 20), (3, 30), (4, 20)] {
            r.push(Tuple::from_iter([Value::int(a), Value::int(b)]))
                .unwrap();
        }
        let mut s = Relation::new(Schema::new("S", &["C", "D"]).unwrap());
        for (c, d) in [(10, 7), (20, 8), (99, 9)] {
            s.push(Tuple::from_iter([Value::int(c), Value::int(d)]))
                .unwrap();
        }
        db.insert_relation(r);
        db.insert_relation(s);
        db
    }

    fn sample_queries() -> Vec<RaExpr> {
        vec![
            // σ over a product with a join conjunct and two pushable conjuncts.
            RaExpr::rel("R")
                .product(RaExpr::rel("S"))
                .select(Predicate::and(vec![
                    Predicate::cmp_attr("B", CmpOp::Eq, "C"),
                    Predicate::cmp_const("A", CmpOp::Gt, 1i64),
                    Predicate::cmp_const("D", CmpOp::Lt, 9i64),
                ])),
            // Stacked selections and projections.
            RaExpr::rel("R")
                .select(Predicate::cmp_const("A", CmpOp::Ge, 2i64))
                .select(Predicate::eq_const("B", 20i64))
                .project(vec!["A", "B"])
                .project(vec!["A"]),
            // Selection over a union and a rename.
            RaExpr::rel("R")
                .project(vec!["A"])
                .union(RaExpr::rel("S").rename("C", "A").project(vec!["A"]))
                .select(Predicate::cmp_const("A", CmpOp::Gt, 2i64)),
            // Selection over a difference.
            RaExpr::rel("R")
                .project(vec!["B"])
                .difference(RaExpr::rel("S").rename("C", "B").project(vec!["B"]))
                .select(Predicate::cmp_const("B", CmpOp::Gt, 5i64)),
            // Selection over a renamed relation.
            RaExpr::rel("S")
                .rename("C", "B")
                .select(Predicate::eq_const("B", 20i64)),
        ]
    }

    #[test]
    fn optimized_plans_are_equivalent() {
        let db = sample_db();
        for query in sample_queries() {
            let plain = evaluate(&db, &query).unwrap();
            let optimized_plan = optimize(&db, &query).unwrap();
            let optimized = evaluate(&db, &optimized_plan).unwrap();
            assert!(
                plain.set_eq(&optimized),
                "optimization changed the answer for {query}: {plain} vs {optimized}"
            );
        }
    }

    #[test]
    fn join_conjunct_stays_while_locals_are_pushed() {
        let db = sample_db();
        let query = sample_queries().remove(0);
        let plan = optimize(&db, &query).unwrap();
        // The top of the plan must still be the join selection …
        match &plan {
            RaExpr::Select { pred, input } => {
                assert_eq!(conjuncts(pred).len(), 1, "only the join conjunct remains");
                // … and both local conjuncts must have moved below the product.
                match input.as_ref() {
                    RaExpr::Product { left, right } => {
                        assert!(matches!(left.as_ref(), RaExpr::Select { .. }));
                        assert!(matches!(right.as_ref(), RaExpr::Select { .. }));
                    }
                    other => panic!("expected a product under the join selection, got {other}"),
                }
            }
            other => panic!("expected a selection at the root, got {other}"),
        }
    }

    #[test]
    fn selection_merges_and_projections_collapse() {
        let db = sample_db();
        let query = sample_queries().remove(1);
        let plan = optimize(&db, &query).unwrap();
        // One projection over one selection over the base relation.
        match &plan {
            RaExpr::Project { attrs, input } => {
                assert_eq!(attrs, &vec!["A".to_string()]);
                match input.as_ref() {
                    RaExpr::Select { pred, input } => {
                        assert_eq!(conjuncts(pred).len(), 2);
                        assert!(matches!(input.as_ref(), RaExpr::Rel(_)));
                    }
                    other => panic!("expected a merged selection, got {other}"),
                }
            }
            other => panic!("expected a single projection at the root, got {other}"),
        }
    }

    #[test]
    fn pushdown_through_rename_rewrites_the_predicate() {
        let db = sample_db();
        let query = sample_queries().remove(4);
        let plan = optimize(&db, &query).unwrap();
        match &plan {
            RaExpr::Rename { input, .. } => match input.as_ref() {
                RaExpr::Select { pred, .. } => {
                    assert_eq!(pred.referenced_attrs(), vec!["C"]);
                }
                other => panic!("expected selection below the rename, got {other}"),
            },
            other => panic!("expected the rename at the root, got {other}"),
        }
    }

    #[test]
    fn output_attrs_follows_renames_and_projections() {
        let db = sample_db();
        let expr = RaExpr::rel("S").rename("C", "X").project(vec!["X"]);
        let attrs = output_attrs(&db, &expr).unwrap();
        assert_eq!(attrs.into_iter().collect::<Vec<_>>(), vec!["X".to_string()]);
    }

    #[test]
    fn conjunct_helpers_round_trip() {
        let p = Predicate::and(vec![
            Predicate::eq_const("A", 1i64),
            Predicate::and(vec![
                Predicate::eq_const("B", 2i64),
                Predicate::cmp_const("C", CmpOp::Gt, 3i64),
            ]),
        ]);
        let parts = conjuncts(&p);
        assert_eq!(parts.len(), 3);
        let rebuilt = conjunction(parts);
        assert_eq!(conjuncts(&rebuilt).len(), 3);
        // A single conjunct must not get wrapped.
        let single = conjunction(vec![Predicate::eq_const("A", 1i64)]);
        assert!(matches!(single, Predicate::AttrConst { .. }));
    }
}
