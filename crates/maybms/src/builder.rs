//! The fluent query surface behind [`crate::session::Session`]: [`q`]
//! starts a [`Query`] — which *is* the engine's [`RaExpr`] — from a base
//! relation, its combinators wrap operators around it, and [`typecheck`]
//! resolves the whole tree against a [`SchemaCatalog`] *before* anything is
//! evaluated — unknown relations, unknown attributes inside predicates,
//! clashing product attributes and union-incompatible operands all surface
//! as one [`crate::Error`] carrying the offending plan.
//!
//! ```
//! use maybms::q;
//! use maybms::prelude::{CmpOp, Predicate};
//!
//! let pairs = q("R")
//!     .project(["S"])
//!     .rename("S", "S1")
//!     .product(q("R").project(["S"]).rename("S", "S2"))
//!     .select(Predicate::cmp_attr("S1", CmpOp::Ne, "S2"));
//! assert_eq!(
//!     pairs.to_string(),
//!     "σ[S1!=S2]((δ[S→S1](π[S](R)) × δ[S→S2](π[S](R))))"
//! );
//! ```

use crate::error::{Error, Result};
use std::collections::BTreeSet;
use ws_core::ops::update::UpdateExpr;
use ws_relational::{Dependency, RaExpr, SchemaCatalog};

/// A relational-algebra query: the engine's plan tree itself, built with
/// the [`RaExpr`] combinators (`select`, `project`, `join`, `product`,
/// `union`, `difference`, `rename`).
pub type Query = RaExpr;

/// Start a query from base relation `name` — the front door of the fluent
/// surface.
pub fn q(name: impl Into<String>) -> Query {
    RaExpr::rel(name)
}

/// Anything [`crate::Session::prepare`] accepts as a query: a plan, owned
/// or borrowed.
pub trait IntoQuery {
    /// The plan to prepare.
    fn into_query(self) -> RaExpr;
}

impl IntoQuery for RaExpr {
    fn into_query(self) -> RaExpr {
        self
    }
}

impl IntoQuery for &RaExpr {
    fn into_query(self) -> RaExpr {
        self.clone()
    }
}

/// Resolve a plan against a catalog, returning its (ordered) output
/// attributes or a [`crate::Error`] with plan context.
///
/// This is the static half of query evaluation: it follows exactly the
/// attribute rules the physical operators enforce at run time (projection
/// subsets, disjoint products, union compatibility, rename freshness) plus
/// predicate scoping — every attribute a predicate mentions must be visible
/// in its input.  Plans that pass typecheck can still fail on a backend that
/// does not support an operator (U-relations reject `−`), but they cannot
/// fail on name resolution.
pub fn typecheck<C: SchemaCatalog + ?Sized>(catalog: &C, expr: &RaExpr) -> Result<Vec<String>> {
    check(catalog, expr).map_err(|e| e.with_plan(expr))
}

/// Resolve an update against a catalog before any mutation happens: the
/// target relation must exist, inserted tuples must match its arity (and
/// carry no `⊥`/`?` markers), probabilities must lie in `[0, 1]`, and every
/// attribute a predicate, assignment or constraint mentions must be part of
/// the relation's schema.
///
/// Like [`typecheck`], failures carry the rendered update as plan context.
pub fn typecheck_update<C: SchemaCatalog + ?Sized>(catalog: &C, update: &UpdateExpr) -> Result<()> {
    check_update(catalog, update).map_err(|e| e.with_plan(update))
}

fn check_update<C: SchemaCatalog + ?Sized>(catalog: &C, update: &UpdateExpr) -> Result<()> {
    let schema_of = |relation: &str| {
        catalog
            .schema_of(relation)
            .map_err(|_| Error::typecheck(format!("unknown base relation `{relation}`")))
    };
    let check_attr = |schema: &ws_relational::Schema, attr: &str, role: &str| {
        if schema.position(attr).is_none() {
            return Err(Error::typecheck(format!(
                "{role} references `{attr}`, which is not in the schema of `{}`",
                schema.relation()
            )));
        }
        Ok(())
    };
    match update {
        UpdateExpr::InsertCertain { relation, tuple } => {
            let schema = schema_of(relation)?;
            ws_relational::engine::check_insertable(&schema, tuple)
                .map_err(|e| Error::typecheck(e.to_string()))
        }
        UpdateExpr::InsertPossible {
            relation,
            tuple,
            prob,
        } => {
            let schema = schema_of(relation)?;
            ws_relational::engine::check_insertable(&schema, tuple)
                .map_err(|e| Error::typecheck(e.to_string()))?;
            ws_relational::engine::check_probability(*prob)
                .map_err(|e| Error::typecheck(e.to_string()))
        }
        UpdateExpr::Delete { relation, pred } => {
            let schema = schema_of(relation)?;
            for attr in pred.referenced_attrs() {
                check_attr(&schema, attr, "delete predicate")?;
            }
            Ok(())
        }
        UpdateExpr::Modify {
            relation,
            pred,
            assignments,
        } => {
            let schema = schema_of(relation)?;
            for attr in pred.referenced_attrs() {
                check_attr(&schema, attr, "modify predicate")?;
            }
            for (attr, _) in assignments {
                check_attr(&schema, attr, "assignment")?;
            }
            ws_relational::engine::check_assignments(assignments)
                .map_err(|e| Error::typecheck(e.to_string()))
        }
        UpdateExpr::Condition { constraints } => {
            for dep in constraints {
                let schema = schema_of(dep.relation())?;
                match dep {
                    Dependency::Fd(fd) => {
                        for attr in fd.lhs.iter().chain(&fd.rhs) {
                            check_attr(&schema, attr, "functional dependency")?;
                        }
                    }
                    Dependency::Egd(egd) => {
                        for attr in egd.attrs() {
                            check_attr(&schema, attr, "dependency")?;
                        }
                    }
                }
            }
            Ok(())
        }
    }
}

fn check<C: SchemaCatalog + ?Sized>(catalog: &C, expr: &RaExpr) -> Result<Vec<String>> {
    match expr {
        RaExpr::Rel(name) => {
            let schema = catalog
                .schema_of(name)
                .map_err(|_| Error::typecheck(format!("unknown base relation `{name}`")))?;
            Ok(schema.attrs().iter().map(|a| a.to_string()).collect())
        }
        RaExpr::Select { pred, input } => {
            let attrs = check(catalog, input)?;
            let visible: BTreeSet<&str> = attrs.iter().map(String::as_str).collect();
            for used in pred.referenced_attrs() {
                if !visible.contains(used) {
                    return Err(Error::typecheck(format!(
                        "selection references `{used}`, which is not among the input attributes {attrs:?}"
                    )));
                }
            }
            Ok(attrs)
        }
        RaExpr::Project { attrs, input } => {
            let input_attrs = check(catalog, input)?;
            if attrs.is_empty() {
                return Err(Error::typecheck("projection list is empty"));
            }
            let visible: BTreeSet<&str> = input_attrs.iter().map(String::as_str).collect();
            let mut seen = BTreeSet::new();
            for attr in attrs {
                if !visible.contains(attr.as_str()) {
                    return Err(Error::typecheck(format!(
                        "projection keeps `{attr}`, which is not among the input attributes {input_attrs:?}"
                    )));
                }
                if !seen.insert(attr.as_str()) {
                    return Err(Error::typecheck(format!("projection lists `{attr}` twice")));
                }
            }
            Ok(attrs.clone())
        }
        RaExpr::Product { left, right } => {
            let l = check(catalog, left)?;
            let r = check(catalog, right)?;
            if let Some(clash) = l.iter().find(|a| r.contains(a)) {
                return Err(Error::typecheck(format!(
                    "product operands share attribute `{clash}`; rename one side first"
                )));
            }
            Ok(l.into_iter().chain(r).collect())
        }
        RaExpr::Union { left, right } | RaExpr::Difference { left, right } => {
            let l = check(catalog, left)?;
            let r = check(catalog, right)?;
            if l != r {
                let op = if matches!(expr, RaExpr::Union { .. }) {
                    "union"
                } else {
                    "difference"
                };
                return Err(Error::typecheck(format!(
                    "{op} operands are not union-compatible: {l:?} vs {r:?}"
                )));
            }
            Ok(l)
        }
        RaExpr::Rename { from, to, input } => {
            let attrs = check(catalog, input)?;
            if !attrs.iter().any(|a| a == from) {
                return Err(Error::typecheck(format!(
                    "rename source `{from}` is not among the input attributes {attrs:?}"
                )));
            }
            if attrs.iter().any(|a| a == to) {
                return Err(Error::typecheck(format!(
                    "rename target `{to}` already exists among the input attributes"
                )));
            }
            Ok(attrs
                .into_iter()
                .map(|a| if a == *from { to.clone() } else { a })
                .collect())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ws_relational::{CmpOp, Database, Predicate, Relation, Schema};

    fn catalog() -> Database {
        let mut db = Database::new();
        db.insert_relation(Relation::new(Schema::new("R", &["A", "B"]).unwrap()));
        db.insert_relation(Relation::new(Schema::new("S", &["C"]).unwrap()));
        db
    }

    #[test]
    fn builder_lowers_to_the_expected_tree() {
        let built = q("R")
            .select(Predicate::eq_const("A", 1i64))
            .project(["B"])
            .union(q("S").rename("C", "B"));
        let manual = RaExpr::rel("R")
            .select(Predicate::eq_const("A", 1i64))
            .project(vec!["B"])
            .union(RaExpr::rel("S").rename("C", "B"));
        assert_eq!(built, manual);
    }

    #[test]
    fn raw_exprs_compose_with_built_queries() {
        let raw = RaExpr::rel("S");
        let built = q("R").join(raw.clone(), Predicate::cmp_attr("B", CmpOp::Eq, "C"));
        assert_eq!(
            built.base_relations(),
            vec!["R", "S"],
            "operand conversion lost a relation"
        );
        assert_eq!((&built).into_query(), built.clone().into_query());
        assert_eq!(raw.into_query(), q("S"));
    }

    #[test]
    fn typecheck_resolves_output_attributes() {
        let db = catalog();
        let plan = q("R")
            .product(q("S"))
            .select(Predicate::cmp_attr("B", CmpOp::Eq, "C"))
            .project(["A", "C"]);
        assert_eq!(typecheck(&db, &plan).unwrap(), vec!["A", "C"]);
        let renamed = q("R").rename("A", "A2");
        assert_eq!(typecheck(&db, &renamed).unwrap(), vec!["A2", "B"]);
    }

    #[test]
    fn typecheck_rejects_bad_plans_with_plan_context() {
        let db = catalog();
        let cases: Vec<(RaExpr, &str)> = vec![
            (q("NOPE"), "unknown base relation"),
            (
                q("R").select(Predicate::eq_const("Z", 1i64)),
                "selection references",
            ),
            (q("R").project(["Z"]), "projection keeps"),
            (q("R").project(["A", "A"]), "twice"),
            (q("R").project(Vec::<String>::new()), "empty"),
            (q("R").product(q("R")), "share attribute"),
            (q("R").union(q("S")), "not union-compatible"),
            (q("R").difference(q("S")), "not union-compatible"),
            (q("R").rename("Z", "Y"), "rename source"),
            (q("R").rename("A", "B"), "rename target"),
        ];
        for (plan, needle) in cases {
            let err = typecheck(&db, &plan).unwrap_err();
            let msg = err.to_string();
            assert!(
                msg.contains(needle),
                "expected `{needle}` in `{msg}` for {plan}"
            );
            assert!(err.plan().is_some(), "typecheck error lost plan context");
        }
    }
}
