//! The query processor `Q̂` on WSDs, as a backend of the unified engine.
//!
//! The shared `optimize → execute` pipeline of [`ws_relational::engine`]
//! plans the [`RaExpr`] (selection pushdown, projection collapsing, θ-join
//! recognition) against this catalog; the WSD's
//! [`QueryBackend::execute_plan`] hands the plan to the engine's shared
//! walker ([`engine::walk`]), which drives the per-operator algorithms of
//! Figure 9 through the [`Operators`] implementation below.  Given a
//! query `Q`, the result of [`engine::evaluate_query`] is a new relation
//! inside the same WSD such that dropping all other relations yields a WSD
//! representing `{ Q(A) | A ∈ rep(W) }` (Theorem 1).  Intermediate results
//! get fresh relation names and stay represented only within one plan: long
//! enough to keep correlated sub-queries correlated, after which the
//! executor drops them and only the result relation remains.
//!
//! Composite selection conditions — which the paper's Fig. 9 leaves to the
//! atomic cases — are handled by rewriting:
//! `σ_{φ∧ψ} = σ_φ ∘ σ_ψ`, `σ_{φ∨ψ}(R) = σ_φ(R) ∪ σ_ψ(R)` (set semantics), and
//! negations are pushed onto the atoms by flipping the comparison operator.

use super::{copy, difference, product, project, rename, select_attr, select_const, union};
use crate::error::{Result, WsError};
use crate::wsd::Wsd;
use ws_relational::engine::{self, ExecContext, Operators, QueryBackend, SchemaCatalog};
use ws_relational::{Predicate, RaExpr, RelationalError, Schema};

impl SchemaCatalog for Wsd {
    fn schema_of(&self, relation: &str) -> ws_relational::Result<Schema> {
        self.meta(relation)
            .map(|meta| meta.schema(relation))
            .map_err(|_| RelationalError::UnknownRelation(relation.to_string()))
    }

    fn contains_relation(&self, relation: &str) -> bool {
        Wsd::contains_relation(self, relation)
    }
}

impl QueryBackend for Wsd {
    type Error = WsError;

    /// Every plan runs through the shared operator-by-operator walker.
    fn execute_plan(&mut self, plan: &RaExpr, out: &str) -> Result<()> {
        engine::walk(self, plan, out)
    }

    fn drop_scratch(&mut self, name: &str) {
        let _ = self.drop_relation(name);
    }
}

impl Operators for Wsd {
    fn materialize_base(&mut self, name: &str, out: &str) -> Result<()> {
        copy(self, name, out)
    }

    fn apply_select(
        &mut self,
        input: &str,
        pred: &Predicate,
        out: &str,
        ctx: &mut ExecContext,
    ) -> Result<()> {
        apply_selection(self, input, pred, out, ctx)
    }

    fn apply_project(
        &mut self,
        input: &str,
        attrs: &[String],
        out: &str,
        _ctx: &mut ExecContext,
    ) -> Result<()> {
        let attr_refs: Vec<&str> = attrs.iter().map(String::as_str).collect();
        project(self, input, out, &attr_refs)
    }

    fn apply_product(
        &mut self,
        left: &str,
        right: &str,
        out: &str,
        _ctx: &mut ExecContext,
    ) -> Result<()> {
        product(self, left, right, out)
    }

    fn apply_union(&mut self, left: &str, right: &str, out: &str) -> Result<()> {
        union(self, left, right, out)
    }

    fn apply_difference(&mut self, left: &str, right: &str, out: &str) -> Result<()> {
        difference(self, left, right, out)
    }

    fn apply_rename(&mut self, input: &str, from: &str, to: &str, out: &str) -> Result<()> {
        rename(self, input, out, from, to)
    }
}

/// Apply a possibly composite selection predicate to relation `src`,
/// materializing the result as `out`.
fn apply_selection(
    wsd: &mut Wsd,
    src: &str,
    pred: &Predicate,
    out: &str,
    ctx: &mut ExecContext,
) -> Result<()> {
    match pred {
        Predicate::AttrConst { attr, op, value } => select_const(wsd, src, out, attr, *op, value),
        Predicate::AttrAttr { left, op, right } => select_attr(wsd, src, out, left, *op, right),
        Predicate::And(ps) => {
            if ps.is_empty() {
                return copy(wsd, src, out);
            }
            let mut current = src.to_string();
            for (i, p) in ps.iter().enumerate() {
                let target = if i + 1 == ps.len() {
                    out.to_string()
                } else {
                    ctx.fresh(|n| wsd.contains_relation(n), "and")
                };
                apply_selection(wsd, &current, p, &target, ctx)?;
                current = target;
            }
            Ok(())
        }
        Predicate::Or(ps) => {
            if ps.is_empty() {
                return Err(WsError::invalid(
                    "empty disjunction is not supported as a WSD selection",
                ));
            }
            if ps.len() == 1 {
                return apply_selection(wsd, src, &ps[0], out, ctx);
            }
            // σ_{φ1∨…∨φk}(R) = σ_{φ1}(R) ∪ … ∪ σ_{φk}(R).
            let mut branches = Vec::with_capacity(ps.len());
            for p in ps {
                let b = ctx.fresh(|n| wsd.contains_relation(n), "or");
                apply_selection(wsd, src, p, &b, ctx)?;
                branches.push(b);
            }
            let mut acc = branches[0].clone();
            for (i, b) in branches.iter().enumerate().skip(1) {
                let target = if i + 1 == branches.len() {
                    out.to_string()
                } else {
                    ctx.fresh(|n| wsd.contains_relation(n), "or_u")
                };
                union(wsd, &acc, b, &target)?;
                acc = target;
            }
            Ok(())
        }
        Predicate::Not(p) => {
            let pushed = negate(p)?;
            apply_selection(wsd, src, &pushed, out, ctx)
        }
    }
}

/// Push a negation onto the comparison atoms (De Morgan + operator flipping).
fn negate(pred: &Predicate) -> Result<Predicate> {
    Ok(match pred {
        Predicate::AttrConst { attr, op, value } => Predicate::AttrConst {
            attr: attr.clone(),
            op: op.negate(),
            value: value.clone(),
        },
        Predicate::AttrAttr { left, op, right } => Predicate::AttrAttr {
            left: left.clone(),
            op: op.negate(),
            right: right.clone(),
        },
        Predicate::And(ps) => Predicate::Or(ps.iter().map(negate).collect::<Result<_>>()?),
        Predicate::Or(ps) => Predicate::And(ps.iter().map(negate).collect::<Result<_>>()?),
        Predicate::Not(p) => (**p).clone(),
    })
}
