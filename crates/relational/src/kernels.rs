//! Tight-loop kernels and the columnar executor of the single-world
//! [`Database`] backend — the only code that evaluates σ π × ⋈ ∪ − δ on a
//! `Database`.
//!
//! An entire (optimized) plan is evaluated over [`ColumnBatch`]es rather
//! than by cloning whole [`Tuple`]s through every plan node: base relations
//! are encoded into flat columns (only the attributes the plan touches),
//! selections become **selection vectors** computed by per-column kernels,
//! products become repeat/tile loops, equi-joins hash flat `i64` key
//! columns, and tuples are only materialized at the very end, for the rows
//! that survived.
//!
//! Selections over base relations are additionally **late-materializing**: a
//! `σ`-chain over a stored relation carries only a `View` — the relation's
//! name plus a selection vector — encoding just the predicate's columns to
//! filter, so a query like `σ_{A=1}(R)` never encodes (or decodes) the
//! columns it merely passes through; surviving rows are cloned straight from
//! the base relation at the materialization boundary.
//!
//! Equivalence contract (checked by the engine's equivalence suites):
//!
//! * **Answers** equal the reference evaluator [`crate::algebra::evaluate_set`]
//!   as sets, for every plan.
//! * **Row order** is deterministic: selections preserve input order,
//!   products are left-major, the hash join probes in left order with
//!   per-key right rows ascending (exactly the product-then-select order),
//!   and union/difference deduplicate into `BTreeSet` order.
//! * **Comparison semantics** mirror [`CmpOp::eval`](crate::predicate::CmpOp::eval): comparisons involving
//!   `⊥`/`?` or mixed types are undefined (`false`), and undefined join keys
//!   never match.
//! * **Error semantics** mirror lazy per-row evaluation: an atom's attribute
//!   positions are only resolved while some row is still active, so a
//!   conjunct that filters everything out masks errors in later conjuncts,
//!   and empty inputs never touch the predicate.  (The one
//!   divergence: a predicate with *several* unknown attributes may surface a
//!   different one of those errors than strict row order would.)

use crate::algebra::RaExpr;
use crate::batch::{Column, ColumnBatch};
use crate::database::Database;
use crate::engine::{op_detail, op_name, recognize_equi_join, EquiJoin, ExecContext};
use crate::error::Result;
use crate::optimizer;
use crate::predicate::{CompiledPredicate, Predicate};
use crate::tuple::Tuple;
use crate::value::Value;
use std::collections::{BTreeSet, HashMap, HashSet};

/// The needed-attribute set threaded down the plan: `None` = every attribute
/// of the sub-expression is needed (no pruning).
type Needed = Option<BTreeSet<String>>;

/// A late-materialized selection over a stored base relation: the relation's
/// catalog name plus the surviving row indices (`None` = all rows).  Only the
/// predicate columns of a `σ`-chain are ever encoded; everything else stays
/// in the base relation until an operator (or the result boundary) actually
/// consumes it.
struct View {
    name: String,
    sel: Option<Vec<u32>>,
}

/// What a sub-plan evaluates to: encoded columns, or a still-virtual filtered
/// base relation.
enum Eval {
    Batch(ColumnBatch),
    View(View),
}

/// Evaluate `plan` on `db` column-at-a-time and store the result as `out`.
///
/// This is [`Database`]'s only executor: its
/// [`crate::engine::QueryBackend::execute_plan`] hands it every plan whole.
/// It creates no intermediate catalog relations.
pub(crate) fn execute(db: &mut Database, plan: &RaExpr, out: &str) -> Result<()> {
    let ctx = ExecContext::new();
    let relation = match eval_expr(db, plan, None, &ctx)? {
        Eval::Batch(batch) => batch.into_relation()?,
        // A σ-chain over a base relation: clone exactly the surviving rows.
        Eval::View(view) => {
            let rel = db.relation(&view.name)?;
            let rows = match &view.sel {
                None => rel.rows().to_vec(),
                Some(sel) => sel
                    .iter()
                    .map(|&i| rel.rows()[i as usize].clone())
                    .collect(),
            };
            crate::relation::Relation::with_rows(rel.schema().clone(), rows)?
        }
    };
    db.store_as(relation, out);
    Ok(())
}

/// Evaluate a sub-plan and force the result into encoded columns (restricted
/// to `needed`, which must be the same set the sub-plan was evaluated with).
fn eval_to_batch(
    db: &Database,
    expr: &RaExpr,
    needed: Option<&BTreeSet<String>>,
    ctx: &ExecContext,
) -> Result<ColumnBatch> {
    match eval_expr(db, expr, needed, ctx)? {
        Eval::Batch(batch) => Ok(batch),
        Eval::View(view) => {
            let rel = db.relation(&view.name)?;
            Ok(match &view.sel {
                None => ColumnBatch::from_relation(rel, needed),
                Some(sel) => ColumnBatch::from_relation_sel(rel, sel, needed),
            })
        }
    }
}

/// Cheaply count the rows an [`Eval`] holds (for profiles; a view counts
/// through the base relation without materializing anything).
fn eval_len(db: &Database, eval: &Eval) -> u64 {
    match eval {
        Eval::Batch(batch) => batch.len() as u64,
        Eval::View(view) => match &view.sel {
            Some(sel) => sel.len() as u64,
            None => db.relation(&view.name).map(|r| r.len() as u64).unwrap_or(0),
        },
    }
}

/// Record a selection's survival rate (`exec.select.survival_pct`) on the
/// execution's scope, if one is attached.
fn record_selection(ctx: &ExecContext, rows_in: usize, rows_out: usize) {
    if let Some(scope) = ctx.obs() {
        scope
            .observer
            .metrics()
            .histogram("exec.select.survival_pct")
            .record((rows_out * 100 / rows_in.max(1)) as u64);
    }
}

/// One operator of the executor, wrapped in instrumentation when the
/// execution is observed ([`ExecContext::observe`]): a profile node (rows via [`eval_len`],
/// path `"columnar"` or `"view"`) plus an `exec.op.<name>.ns` histogram
/// sample.  With the flag off this is a single branch in front of
/// [`eval_expr_inner`].
fn eval_expr(
    db: &Database,
    expr: &RaExpr,
    needed: Option<&BTreeSet<String>>,
    ctx: &ExecContext,
) -> Result<Eval> {
    if !ctx.observe() {
        return eval_expr_inner(db, expr, needed, ctx);
    }
    let token = ws_obs::profile::enter(op_name(expr), || op_detail(expr));
    let started = std::time::Instant::now();
    let result = eval_expr_inner(db, expr, needed, ctx);
    if let Some(token) = token {
        let (rows, path) = match &result {
            Ok(eval) => (
                eval_len(db, eval),
                match eval {
                    Eval::Batch(_) => "columnar",
                    Eval::View(_) => "view",
                },
            ),
            Err(_) => (0, "columnar"),
        };
        token.finish(rows, 1, path);
    }
    if let Some(scope) = ctx.obs() {
        scope
            .observer
            .metrics()
            .histogram(&format!("exec.op.{}.ns", op_name(expr)))
            .record_duration(started.elapsed());
    }
    result
}

fn eval_expr_inner(
    db: &Database,
    expr: &RaExpr,
    needed: Option<&BTreeSet<String>>,
    ctx: &ExecContext,
) -> Result<Eval> {
    match expr {
        RaExpr::Rel(name) => {
            // Validate the name now, before any operator touches it.
            db.relation(name)?;
            Ok(Eval::View(View {
                name: name.clone(),
                sel: None,
            }))
        }
        RaExpr::Select { pred, input } => {
            if let RaExpr::Product { left, right } = input.as_ref() {
                if let Some(join) = recognize_equi_join(db, pred, left, right)? {
                    if let Some(scope) = ctx.obs() {
                        scope
                            .observer
                            .metrics()
                            .counter("exec.join.recognized")
                            .inc();
                    }
                    return Ok(Eval::Batch(eval_join(db, left, right, &join, needed, ctx)?));
                }
            }
            let child_needed = add_attrs(needed, pred.referenced_attrs());
            match eval_expr(db, input, child_needed.as_ref(), ctx)? {
                Eval::Batch(batch) => {
                    let sel = select_vector(&batch, pred)?;
                    record_selection(ctx, batch.len(), sel.len());
                    Ok(Eval::Batch(batch.gather(&sel)))
                }
                Eval::View(view) => {
                    let rel = db.relation(&view.name)?;
                    let empty = match &view.sel {
                        None => rel.rows().is_empty(),
                        Some(sel) => sel.is_empty(),
                    };
                    if !empty {
                        if let Ok(compiled) = pred.compile(rel.schema()) {
                            // Fused path: the compiled predicate filters base
                            // rows in place — no column encode at all.
                            // Compilation fails only on unknown attributes,
                            // which fall through to the batch path below so
                            // error masking matches per-row evaluation; empty
                            // inputs also fall through (and never touch the
                            // predicate, exactly like zero row evaluations).
                            let rows = rel.rows();
                            let candidates = match view.sel {
                                Some(sel) => sel,
                                None => (0..rows.len() as u32).collect(),
                            };
                            let rows_in = candidates.len();
                            let sel = filter_rows(rows, &compiled, candidates);
                            record_selection(ctx, rows_in, sel.len());
                            return Ok(Eval::View(View {
                                name: view.name,
                                sel: Some(sel),
                            }));
                        }
                    }
                    // Encode only the predicate's columns of the filtered
                    // view, compute the local selection vector, and compose
                    // it with the view's — the passthrough columns are never
                    // touched.
                    let pred_attrs: BTreeSet<String> = pred
                        .referenced_attrs()
                        .into_iter()
                        .map(str::to_string)
                        .collect();
                    let pred_batch = match &view.sel {
                        None => ColumnBatch::from_relation(rel, Some(&pred_attrs)),
                        Some(sel) => ColumnBatch::from_relation_sel(rel, sel, Some(&pred_attrs)),
                    };
                    let local = select_vector(&pred_batch, pred)?;
                    record_selection(ctx, pred_batch.len(), local.len());
                    let sel = match view.sel {
                        None => local,
                        Some(sel) => local.into_iter().map(|i| sel[i as usize]).collect(),
                    };
                    Ok(Eval::View(View {
                        name: view.name,
                        sel: Some(sel),
                    }))
                }
            }
        }
        RaExpr::Project { attrs, input } => {
            let child_needed: Needed = Some(match needed {
                None => attrs.iter().cloned().collect(),
                Some(s) => attrs.iter().filter(|a| s.contains(*a)).cloned().collect(),
            });
            let batch = eval_to_batch(db, input, child_needed.as_ref(), ctx)?;
            let positions: Vec<usize> = attrs
                .iter()
                .map(|a| batch.schema().position_of(a))
                .collect::<Result<_>>()?;
            let attr_refs: Vec<&str> = attrs.iter().map(String::as_str).collect();
            let schema = batch.schema().projected(&attr_refs)?;
            let len = batch.len();
            let cols_in = batch.into_cols();
            let cols = positions.iter().map(|&p| cols_in[p].clone()).collect();
            Ok(Eval::Batch(ColumnBatch::from_parts(schema, cols, len)))
        }
        RaExpr::Product { left, right } => {
            let (ln, rn) = split_needed(db, needed, left, right)?;
            let l = eval_to_batch(db, left, ln.as_ref(), ctx)?;
            let r = eval_to_batch(db, right, rn.as_ref(), ctx)?;
            Ok(Eval::Batch(product_batches(&l, &r)?))
        }
        RaExpr::Union { left, right } => {
            let (ls, lrows) = eval_rows(db, left, ctx)?;
            let (rs, rrows) = eval_rows(db, right, ctx)?;
            ls.check_union_compatible(&rs)?;
            let set: BTreeSet<_> = lrows.into_iter().chain(rrows).collect();
            let relation = crate::relation::Relation::with_rows(ls, set.into_iter().collect())?;
            Ok(Eval::Batch(ColumnBatch::from_relation(&relation, needed)))
        }
        RaExpr::Difference { left, right } => {
            let (ls, lrows) = eval_rows(db, left, ctx)?;
            let (rs, rrows) = eval_rows(db, right, ctx)?;
            ls.check_union_compatible(&rs)?;
            let right_set: HashSet<_> = rrows.into_iter().collect();
            let set: BTreeSet<_> = lrows
                .into_iter()
                .filter(|t| !right_set.contains(t))
                .collect();
            let relation = crate::relation::Relation::with_rows(ls, set.into_iter().collect())?;
            Ok(Eval::Batch(ColumnBatch::from_relation(&relation, needed)))
        }
        RaExpr::Rename { from, to, input } => {
            let child_needed: Needed = needed.map(|s| {
                s.iter()
                    .map(|a| if a == to { from.clone() } else { a.clone() })
                    .collect()
            });
            let batch = eval_to_batch(db, input, child_needed.as_ref(), ctx)?;
            let schema = batch.schema().renamed_attr(from, to)?;
            let len = batch.len();
            Ok(Eval::Batch(ColumnBatch::from_parts(
                schema,
                batch.into_cols(),
                len,
            )))
        }
    }
}

/// Evaluate a sub-plan all the way to decoded rows (set-operation operands
/// consume whole tuples); a view's rows are cloned straight from the base
/// relation without an encode/decode roundtrip.
fn eval_rows(
    db: &Database,
    expr: &RaExpr,
    ctx: &ExecContext,
) -> Result<(crate::schema::Schema, Vec<crate::tuple::Tuple>)> {
    match eval_expr(db, expr, None, ctx)? {
        Eval::Batch(batch) => Ok((batch.schema().clone(), batch.decode_rows())),
        Eval::View(view) => {
            let rel = db.relation(&view.name)?;
            let rows = match &view.sel {
                None => rel.rows().to_vec(),
                Some(sel) => sel
                    .iter()
                    .map(|&i| rel.rows()[i as usize].clone())
                    .collect(),
            };
            Ok((rel.schema().clone(), rows))
        }
    }
}

/// `needed ∪ extra`, staying `None` (= everything) if `needed` is `None`.
fn add_attrs<'a>(
    needed: Option<&BTreeSet<String>>,
    extra: impl IntoIterator<Item = &'a str>,
) -> Needed {
    needed.map(|s| {
        let mut s = s.clone();
        s.extend(extra.into_iter().map(str::to_string));
        s
    })
}

/// Split a product's needed set between its operands by their output
/// attributes.
fn split_needed(
    db: &Database,
    needed: Option<&BTreeSet<String>>,
    left: &RaExpr,
    right: &RaExpr,
) -> Result<(Needed, Needed)> {
    match needed {
        None => Ok((None, None)),
        Some(s) => {
            let la = optimizer::output_attrs(db, left)?;
            let ra = optimizer::output_attrs(db, right)?;
            Ok((
                Some(s.iter().filter(|a| la.contains(*a)).cloned().collect()),
                Some(s.iter().filter(|a| ra.contains(*a)).cloned().collect()),
            ))
        }
    }
}

fn product_batches(l: &ColumnBatch, r: &ColumnBatch) -> Result<ColumnBatch> {
    let schema = l.schema().product(r.schema(), "x")?;
    let (n, m) = (l.len(), r.len());
    let mut cols: Vec<Option<Column>> = l
        .cols()
        .iter()
        .map(|c| c.as_ref().map(|col| col.repeat_each(m)))
        .collect();
    cols.extend(r.cols().iter().map(|c| c.as_ref().map(|col| col.tile(n))));
    Ok(ColumnBatch::from_parts(schema, cols, n * m))
}

fn eval_join(
    db: &Database,
    left: &RaExpr,
    right: &RaExpr,
    join: &EquiJoin,
    needed: Option<&BTreeSet<String>>,
    ctx: &ExecContext,
) -> Result<ColumnBatch> {
    // The children additionally need the join keys and whatever the residual
    // condition touches.
    let mut extra: Vec<&str> = vec![join.left_attr.as_str(), join.right_attr.as_str()];
    if let Some(residual) = &join.residual {
        extra.extend(residual.referenced_attrs());
    }
    let combined = add_attrs(needed, extra);
    let (ln, rn) = split_needed(db, combined.as_ref(), left, right)?;
    let l = eval_to_batch(db, left, ln.as_ref(), ctx)?;
    let r = eval_to_batch(db, right, rn.as_ref(), ctx)?;
    let joined = join_batches(&l, &r, &join.left_attr, &join.right_attr)?;
    match &join.residual {
        None => Ok(joined),
        Some(residual) => {
            let sel = select_vector(&joined, residual)?;
            Ok(joined.gather(&sel))
        }
    }
}

/// Hash equi-join over encoded key columns: ordered build (per-key right-row
/// lists ascending), probe in left order — exactly the product-then-select
/// row order.  `⊥`/`?` keys never match.
fn join_batches(
    l: &ColumnBatch,
    r: &ColumnBatch,
    left_attr: &str,
    right_attr: &str,
) -> Result<ColumnBatch> {
    let schema = l.schema().product(r.schema(), "x")?;
    let lpos = l.schema().position_of(left_attr)?;
    let rpos = r.schema().position_of(right_attr)?;

    let pairs: Vec<(u32, u32)> = match (l.col(lpos), r.col(rpos)) {
        (Column::Int(lk), Column::Int(rk)) => {
            // Flat i64 fast path (every value is defined and joinable).
            let mut table: HashMap<i64, Vec<u32>> = HashMap::new();
            for (i, &k) in rk.iter().enumerate() {
                table.entry(k).or_default().push(i as u32);
            }
            let mut out = Vec::new();
            for (i, &k) in lk.iter().enumerate() {
                if let Some(matches) = table.get(&k) {
                    out.extend(matches.iter().map(|&ri| (i as u32, ri)));
                }
            }
            out
        }
        (lcol, rcol) => {
            let mut table: HashMap<Value, Vec<u32>> = HashMap::new();
            for i in 0..r.len() {
                let key = rcol.value_at(i);
                if key.is_constant() {
                    table.entry(key).or_default().push(i as u32);
                }
            }
            let mut out = Vec::new();
            for i in 0..l.len() {
                let key = lcol.value_at(i);
                if !key.is_constant() {
                    continue;
                }
                if let Some(matches) = table.get(&key) {
                    out.extend(matches.iter().map(|&ri| (i as u32, ri)));
                }
            }
            out
        }
    };

    let lsel: Vec<u32> = pairs.iter().map(|&(li, _)| li).collect();
    let rsel: Vec<u32> = pairs.iter().map(|&(_, ri)| ri).collect();
    let mut cols: Vec<Option<Column>> = l
        .cols()
        .iter()
        .map(|c| c.as_ref().map(|col| col.gather(&lsel)))
        .collect();
    cols.extend(
        r.cols()
            .iter()
            .map(|c| c.as_ref().map(|col| col.gather(&rsel))),
    );
    Ok(ColumnBatch::from_parts(schema, cols, pairs.len()))
}

/// Compute the selection vector of `pred` over `batch`: the ascending row
/// indices satisfying the predicate.  With no rows the predicate is never
/// touched, so unknown attributes go unnoticed, as in per-row evaluation.
pub(crate) fn select_vector(batch: &ColumnBatch, pred: &Predicate) -> Result<Vec<u32>> {
    eval_pred(batch, pred, (0..batch.len() as u32).collect())
}

/// Evaluate `pred` over the active (ascending) row set, returning the
/// surviving rows, still ascending.  Attribute positions are resolved only
/// while the active set is non-empty, reproducing per-row evaluation's
/// short-circuit error masking.
fn eval_pred(batch: &ColumnBatch, pred: &Predicate, active: Vec<u32>) -> Result<Vec<u32>> {
    if active.is_empty() {
        return Ok(active);
    }
    match pred {
        Predicate::AttrConst { attr, op, value } => {
            let pos = batch.schema().position_of(attr)?;
            Ok(match batch.col(pos) {
                Column::Int(v) => match value {
                    Value::Int(c) => {
                        let c = *c;
                        active
                            .into_iter()
                            .filter(|&i| op.eval_i64(v[i as usize], c))
                            .collect()
                    }
                    // Int θ non-Int is undefined, hence false everywhere.
                    _ => Vec::new(),
                },
                Column::Dict { codes, dict } => {
                    // One comparison per distinct value, then a flat lookup.
                    let lut: Vec<bool> = dict.iter().map(|d| op.eval(d, value)).collect();
                    active
                        .into_iter()
                        .filter(|&i| lut[codes[i as usize] as usize])
                        .collect()
                }
            })
        }
        Predicate::AttrAttr { left, op, right } => {
            let lpos = batch.schema().position_of(left)?;
            let rpos = batch.schema().position_of(right)?;
            Ok(match (batch.col(lpos), batch.col(rpos)) {
                (Column::Int(a), Column::Int(b)) => active
                    .into_iter()
                    .filter(|&i| op.eval_i64(a[i as usize], b[i as usize]))
                    .collect(),
                (a, b) => active
                    .into_iter()
                    .filter(|&i| op.eval(&a.value_at(i as usize), &b.value_at(i as usize)))
                    .collect(),
            })
        }
        Predicate::And(ps) => {
            let mut active = active;
            for p in ps {
                if active.is_empty() {
                    break;
                }
                active = eval_pred(batch, p, active)?;
            }
            Ok(active)
        }
        Predicate::Or(ps) => {
            let mut remaining = active;
            let mut trues: Vec<u32> = Vec::new();
            for p in ps {
                if remaining.is_empty() {
                    break;
                }
                let t = eval_pred(batch, p, remaining.clone())?;
                remaining = sorted_diff(&remaining, &t);
                trues.extend(t);
            }
            trues.sort_unstable();
            Ok(trues)
        }
        Predicate::Not(p) => {
            let t = eval_pred(batch, p, active.clone())?;
            Ok(sorted_diff(&active, &t))
        }
    }
}

/// Evaluate a compiled predicate over the active (ascending) row indices of
/// `rows`, atom-at-a-time: each leaf runs one tight pass over the shrinking
/// index set, so the tree is dispatched once per atom instead of once per
/// row.  Infallible — every position was resolved by [`Predicate::compile`].
fn filter_rows(rows: &[Tuple], pred: &CompiledPredicate, active: Vec<u32>) -> Vec<u32> {
    if active.is_empty() {
        return active;
    }
    match pred {
        CompiledPredicate::IntConst { pos, op, value } => active
            .into_iter()
            .filter(|&i| matches!(rows[i as usize][*pos], Value::Int(v) if op.eval_i64(v, *value)))
            .collect(),
        CompiledPredicate::AttrConst { pos, op, value } => active
            .into_iter()
            .filter(|&i| op.eval(&rows[i as usize][*pos], value))
            .collect(),
        CompiledPredicate::AttrAttr { lpos, op, rpos } => active
            .into_iter()
            .filter(|&i| {
                let t = &rows[i as usize];
                match (&t[*lpos], &t[*rpos]) {
                    (Value::Int(a), Value::Int(b)) => op.eval_i64(*a, *b),
                    (a, b) => op.eval(a, b),
                }
            })
            .collect(),
        CompiledPredicate::And(ps) => {
            let mut active = active;
            for p in ps {
                if active.is_empty() {
                    break;
                }
                active = filter_rows(rows, p, active);
            }
            active
        }
        CompiledPredicate::Or(ps) => {
            let mut remaining = active;
            let mut trues: Vec<u32> = Vec::new();
            for p in ps {
                if remaining.is_empty() {
                    break;
                }
                let t = filter_rows(rows, p, remaining.clone());
                remaining = sorted_diff(&remaining, &t);
                trues.extend(t);
            }
            trues.sort_unstable();
            trues
        }
        CompiledPredicate::Not(p) => {
            let t = filter_rows(rows, p, active.clone());
            sorted_diff(&active, &t)
        }
    }
}

/// `a \ b` for ascending vectors with `b ⊆ a`.
fn sorted_diff(a: &[u32], b: &[u32]) -> Vec<u32> {
    let mut out = Vec::with_capacity(a.len() - b.len());
    let mut bi = 0;
    for &x in a {
        if bi < b.len() && b[bi] == x {
            bi += 1;
        } else {
            out.push(x);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predicate::CmpOp;
    use crate::relation::Relation;
    use crate::schema::Schema;
    use crate::tuple::Tuple;

    fn batch() -> ColumnBatch {
        let schema = Schema::new("R", &["A", "B", "T"]).unwrap();
        let rows = vec![
            Tuple::new(vec![Value::int(1), Value::int(10), Value::text("x")]),
            Tuple::new(vec![Value::int(2), Value::int(20), Value::text("y")]),
            Tuple::new(vec![Value::int(3), Value::int(10), Value::text("x")]),
            Tuple::new(vec![Value::int(4), Value::int(30), Value::text("z")]),
        ];
        let rel = Relation::with_rows(schema, rows).unwrap();
        ColumnBatch::from_relation(&rel, None)
    }

    #[test]
    fn selection_vectors_match_row_evaluation() {
        let b = batch();
        let pred = Predicate::and(vec![
            Predicate::eq_const("B", 10i64),
            Predicate::cmp_const("A", CmpOp::Gt, 1i64),
        ]);
        assert_eq!(select_vector(&b, &pred).unwrap(), vec![2]);

        let text = Predicate::eq_const("T", Value::text("x"));
        assert_eq!(select_vector(&b, &text).unwrap(), vec![0, 2]);

        let either = Predicate::or(vec![
            Predicate::eq_const("A", 4i64),
            Predicate::eq_const("B", 10i64),
        ]);
        assert_eq!(select_vector(&b, &either).unwrap(), vec![0, 2, 3]);

        let none = Predicate::not(Predicate::And(vec![]));
        assert!(select_vector(&b, &none).unwrap().is_empty());

        // Mixed-type comparisons are undefined → false.
        let mixed = Predicate::eq_const("A", Value::text("1"));
        assert!(select_vector(&b, &mixed).unwrap().is_empty());
    }

    #[test]
    fn short_circuit_masks_unknown_attrs_like_the_row_path() {
        let b = batch();
        // The first conjunct filters everything out, so the bogus second
        // conjunct is never resolved — exactly like per-row short-circuiting.
        let masked = Predicate::and(vec![
            Predicate::eq_const("A", 99i64),
            Predicate::eq_const("NOPE", 1i64),
        ]);
        assert!(select_vector(&b, &masked).unwrap().is_empty());
        // With surviving rows, the unknown attribute errors.
        let surfaced = Predicate::and(vec![
            Predicate::eq_const("A", 1i64),
            Predicate::eq_const("NOPE", 1i64),
        ]);
        assert!(select_vector(&b, &surfaced).is_err());
    }

    #[test]
    fn sorted_diff_removes_subset() {
        assert_eq!(sorted_diff(&[0, 1, 2, 3], &[1, 3]), vec![0, 2]);
        assert_eq!(sorted_diff(&[5], &[]), vec![5]);
        assert!(sorted_diff(&[2, 4], &[2, 4]).is_empty());
    }
}
