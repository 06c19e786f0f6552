//! The unified query engine: one planner/optimizer pipeline over every
//! possible-worlds backend.
//!
//! Section 5 of the paper stresses that the standard relational
//! optimizations — selection pushdown, join recognition, plan sharing —
//! remain applicable when queries are rewritten onto world-set
//! representations.  Every representation of this repository (single-world,
//! WSD, UWSDT, U-relations, and the explicit world-enumeration oracle) runs
//! its queries through one pipeline:
//!
//! ```text
//!   RaExpr ──► optimizer::optimize (catalog-generic) ──► QueryBackend::execute_plan
//!                                                                  │
//!       Database ── columnar kernels, whole plan ◄─────────────────┤
//!       WorldSet ── evaluate_set in every world ◄──────────────────┤
//!       UDatabase ── lineage::evaluate_lineage, whole plan ◄───────┤
//!       Wsd · Uwsdt ── walk: Operators σ π × ⋈ ∪ − δ ◄─────────────┘
//! ```
//!
//! * [`SchemaCatalog`] is the structural interface the rule-based optimizer
//!   needs: schemas of base relations, nothing else.  Every backend store
//!   (`Database`, `Wsd`, `Uwsdt`, `UDatabase`, `WorldSet`) implements it.
//! * [`QueryBackend`] is the one way a plan enters a backend:
//!   [`QueryBackend::execute_plan`] materializes the plan's result as a
//!   named relation, and [`QueryBackend::drop_scratch`] removes it again.
//!   Which executor runs the plan is each backend's own choice, stated in
//!   its `execute_plan` and nowhere else.
//! * [`Operators`] are the physical operators of the two decompositions
//!   (WSD and UWSDT).
//!   Each one materializes one operator's result as a *named* relation
//!   inside the backend's own catalog, which is what keeps correlated
//!   sub-queries correlated.
//! * [`walk`] is the shared operator-by-operator executor those two call:
//!   it walks the (optimized) plan, allocates scratch names through its
//!   [`ExecContext`], recognises equi-joins on top of products, and drops
//!   every scratch relation it created once the result is built — or once
//!   evaluation fails part-way — so only the result relation is left in the
//!   backend.
//! * [`evaluate_query`] is the one-shot `optimize → execute_plan` entry
//!   point for code below the `maybms` session; a session prepares its plan
//!   once and calls [`QueryBackend::execute_plan`] itself.
//!
//! The optimizer runs against the backend's catalog only — it never looks at
//! rows — so a plan optimized once is valid for every backend holding the
//! same schemas.

use crate::algebra::RaExpr;
use crate::database::Database;
use crate::error::{RelationalError, Result};
use crate::optimizer;
use crate::predicate::{CmpOp, Predicate};
use crate::relation::Relation;
use crate::schema::Schema;
use crate::tuple::Tuple;
use crate::value::Value;

/// The structural half of a backend: enough catalog information for the
/// optimizer to reason about a plan without evaluating it.
pub trait SchemaCatalog {
    /// The (named-perspective) schema of a base relation.
    fn schema_of(&self, relation: &str) -> Result<Schema>;

    /// Whether the catalog currently contains a relation of this name.
    fn contains_relation(&self, relation: &str) -> bool;
}

/// A physical query backend: a store that evaluates a planned query into a
/// new named relation of its own catalog.
///
/// [`QueryBackend::execute_plan`] is the one way a plan enters a backend.
/// Each backend decides there which executor runs it: the single-world
/// [`Database`] hands the whole plan to its columnar kernels, the explicit
/// world set evaluates it in every world, U-relations hand it to the
/// lineage evaluator ([`crate::lineage::evaluate_lineage`]), and the two
/// decompositions (WSD, UWSDT) walk it operator by operator through
/// [`walk`] over their [`Operators`].
pub trait QueryBackend: SchemaCatalog {
    /// The backend's error type.
    type Error: From<RelationalError>;

    /// Evaluate `plan` exactly as given — callers optimize first, if at
    /// all — materializing its result as relation `out`.  Implementations
    /// with operators to join recognise `σ_{A=B}(L × R)` as a physical
    /// equi-join, and must leave only `out` behind — on failure, not even
    /// that.
    ///
    /// Wrapper backends (`AnyBackend`, `Durable<B>`) forward this to the
    /// backend they wrap.
    fn execute_plan(&mut self, plan: &RaExpr, out: &str) -> std::result::Result<(), Self::Error>;

    /// Best-effort removal of a scratch relation: the walker's
    /// intermediates once the plan's result is built or has failed, and a
    /// session's result once its answer is copied out.  Failures are
    /// ignored.
    fn drop_scratch(&mut self, name: &str);
}

/// The physical operators of a decomposed representation: each method
/// materializes one operator's result as a *named* relation inside the
/// backend's own catalog, which is what keeps correlated sub-queries
/// correlated (the paper's Fig. 9 for WSDs, Fig. 16 for UWSDTs).
///
/// [`walk`] drives these operators; backends only decide *how* each
/// operator touches their representation (template manipulation, component
/// composition, …), never *in which order* the plan
/// is evaluated.
pub trait Operators: QueryBackend {
    /// Materialize base relation `name` under the result name `out`.
    fn materialize_base(&mut self, name: &str, out: &str) -> std::result::Result<(), Self::Error>;

    /// Selection `σ_pred(input) → out`.  Backends whose physical selection
    /// only supports atomic comparisons can decompose composite predicates
    /// here, drawing intermediate names from the context's scratch allocator.
    fn apply_select(
        &mut self,
        input: &str,
        pred: &Predicate,
        out: &str,
        ctx: &mut ExecContext,
    ) -> std::result::Result<(), Self::Error>;

    /// Projection `π_attrs(input) → out`.
    fn apply_project(
        &mut self,
        input: &str,
        attrs: &[String],
        out: &str,
        ctx: &mut ExecContext,
    ) -> std::result::Result<(), Self::Error>;

    /// Product `left × right → out`.
    fn apply_product(
        &mut self,
        left: &str,
        right: &str,
        out: &str,
        ctx: &mut ExecContext,
    ) -> std::result::Result<(), Self::Error>;

    /// Equi-join `left ⋈_{left_attr = right_attr} right → out`.
    ///
    /// The default evaluates the join extensionally as a selection over the
    /// product; backends with a real join algorithm (hash join on UWSDTs)
    /// override this.
    fn apply_equi_join(
        &mut self,
        left: &str,
        right: &str,
        left_attr: &str,
        right_attr: &str,
        out: &str,
        ctx: &mut ExecContext,
    ) -> std::result::Result<(), Self::Error> {
        let product = ctx.fresh(|n| self.contains_relation(n), "join_x");
        self.apply_product(left, right, &product, ctx)?;
        let pred = Predicate::cmp_attr(left_attr, CmpOp::Eq, right_attr);
        self.apply_select(&product, &pred, out, ctx)
    }

    /// Union `left ∪ right → out` (set semantics).
    fn apply_union(
        &mut self,
        left: &str,
        right: &str,
        out: &str,
    ) -> std::result::Result<(), Self::Error>;

    /// Difference `left − right → out` (set semantics).
    fn apply_difference(
        &mut self,
        left: &str,
        right: &str,
        out: &str,
    ) -> std::result::Result<(), Self::Error>;

    /// Attribute renaming `δ_{from→to}(input) → out`.
    fn apply_rename(
        &mut self,
        input: &str,
        from: &str,
        to: &str,
        out: &str,
    ) -> std::result::Result<(), Self::Error>;
}

/// The write half of a backend: the paper's update language (possible and
/// certain inserts, deletes, modifications) plus conditioning on integrity
/// constraints, with the semantics contract *"apply the update in every
/// possible world, then re-decompose"*.
///
/// Each verb mutates one base relation (or, for
/// [`WriteBackend::apply_condition`], the whole store) in place.  Backends
/// decide *how* their representation absorbs the change — per-world edits,
/// component splitting and renormalization on WSDs/UWSDTs, world-table DNF
/// rewriting on U-relations — but all of them must agree with applying the
/// verb to every enumerated world separately.  The `UpdateExpr` AST in
/// `ws_core::ops::update` dispatches onto these verbs; `maybms::Session`
/// adds typechecking, lineage-memo invalidation and stats on top.  No verb
/// changes a schema, so a plan optimized before an update stays valid.
pub trait WriteBackend: QueryBackend {
    /// Insert `tuple` into `relation` in **every** world (set semantics: a
    /// world already containing the tuple is unchanged).
    fn insert_certain(
        &mut self,
        relation: &str,
        tuple: &Tuple,
    ) -> std::result::Result<(), Self::Error>;

    /// Insert `tuple` into `relation` with probability `prob`,
    /// independently of everything else: every world `w` splits into
    /// `w ∪ {t}` (mass `prob`) and `w` (mass `1 − prob`).
    ///
    /// `prob = 1` degenerates to [`WriteBackend::insert_certain`]; `prob = 0`
    /// is a no-op.  Backends that cannot represent the split (the
    /// single-world [`Database`]) reject fractional probabilities.
    fn insert_possible(
        &mut self,
        relation: &str,
        tuple: &Tuple,
        prob: f64,
    ) -> std::result::Result<(), Self::Error>;

    /// Delete, in every world, the tuples of `relation` satisfying `pred`.
    /// Deletion never removes worlds, so probabilities are untouched.
    fn delete_where(
        &mut self,
        relation: &str,
        pred: &Predicate,
    ) -> std::result::Result<(), Self::Error>;

    /// In every world, overwrite the assigned attributes of every tuple of
    /// `relation` satisfying `pred`.
    fn modify_where(
        &mut self,
        relation: &str,
        pred: &Predicate,
        assignments: &[(String, Value)],
    ) -> std::result::Result<(), Self::Error>;

    /// Condition the store on integrity constraints: keep exactly the worlds
    /// satisfying every dependency, renormalize their probabilities, and
    /// return the satisfying mass `P(ψ)` of the *original* distribution.
    ///
    /// Fails with the backend's inconsistency error when no world survives
    /// (the store is left unchanged in that case on the single-world and
    /// explicit-worlds backends; decomposed backends may have partially
    /// chased — callers wanting transactional behavior should clone first).
    fn apply_condition(
        &mut self,
        constraints: &[crate::constraint::Dependency],
    ) -> std::result::Result<f64, Self::Error>;
}

/// Shared validation of an insert probability (used by every
/// [`WriteBackend`] implementation across the stack).
pub fn check_probability(prob: f64) -> Result<()> {
    if !(0.0..=1.0).contains(&prob) || prob.is_nan() {
        return Err(RelationalError::Invalid(format!(
            "insert probability {prob} outside [0, 1]"
        )));
    }
    Ok(())
}

/// Shared validation of a modification's assignment values: the `⊥`/`?`
/// markers are reserved for the representations themselves and can never be
/// assigned (used by every [`WriteBackend`] implementation).
pub fn check_assignments(assignments: &[(String, Value)]) -> Result<()> {
    for (attr, value) in assignments {
        if matches!(value, Value::Bottom | Value::Unknown) {
            return Err(RelationalError::Invalid(format!(
                "assignment {attr} = {value}: the ⊥/? markers cannot be assigned"
            )));
        }
    }
    Ok(())
}

/// Shared validation of an inserted tuple: arity must match the schema and
/// the `⊥`/`?` markers are reserved for the representations themselves.
pub fn check_insertable(schema: &Schema, tuple: &Tuple) -> Result<()> {
    if tuple.arity() != schema.arity() {
        return Err(RelationalError::ArityMismatch {
            relation: schema.relation().to_string(),
            expected: schema.arity(),
            actual: tuple.arity(),
        });
    }
    if tuple.has_bottom() || tuple.has_unknown() {
        return Err(RelationalError::Invalid(
            "inserted tuples must not contain the ⊥/? markers".to_string(),
        ));
    }
    Ok(())
}

/// Generate a fresh scratch-relation name `__{hint}{n}` that does not clash
/// with any name for which `exists` returns true.
///
/// This is the one shared implementation of the scratch-name generators that
/// used to be copy-pasted across the backends' query modules.
pub fn fresh_scratch_name(
    exists: impl Fn(&str) -> bool,
    counter: &mut usize,
    hint: &str,
) -> String {
    loop {
        let name = format!("__{hint}{}", *counter);
        *counter += 1;
        if !exists(&name) {
            return name;
        }
    }
}

/// The per-execution state of one plan run, set up where the walker or the
/// columnar kernels start the plan: the scratch-name allocator and whether
/// the run is observed.
///
/// Every scratch name handed out is recorded so the executor can drop the
/// scratch relations afterwards — on error paths too.
#[derive(Debug)]
pub struct ExecContext {
    counter: usize,
    created: Vec<String>,
    /// The observation scope of this execution — the observer plus the
    /// session/request ids every instrumented operator stamps on its
    /// measurements, captured from the thread-local [`ws_obs::scope`] the
    /// session layer installs.
    obs: Option<ws_obs::Scope>,
    /// Whether operators are instrumented: a scope is attached or a
    /// [`ws_obs::profile`] collector is installed on this thread.
    /// Instrumentation never changes which code runs, so results are
    /// bit-identical either way (checked by
    /// `tests/observability_equivalence.rs`).
    observe: bool,
}

impl ExecContext {
    /// A context for one plan execution, observed when the thread carries
    /// a [`ws_obs::scope`] or a profile collector.
    pub(crate) fn new() -> Self {
        let obs = ws_obs::scope();
        ExecContext {
            counter: 0,
            created: Vec::new(),
            observe: obs.is_some() || ws_obs::profile::active(),
            obs,
        }
    }

    /// Whether this execution records profile nodes and metrics.
    pub fn observe(&self) -> bool {
        self.observe
    }

    /// The observation scope propagated through this execution, when a
    /// session attached one.
    pub fn obs(&self) -> Option<&ws_obs::Scope> {
        self.obs.as_ref()
    }

    /// A fresh scratch name `__{hint}{n}` that `exists` rejects; recorded
    /// for cleanup.
    pub fn fresh(&mut self, exists: impl Fn(&str) -> bool, hint: &str) -> String {
        let name = fresh_scratch_name(exists, &mut self.counter, hint);
        self.created.push(name.clone());
        name
    }

    /// The scratch names handed out so far (in allocation order).
    pub fn created(&self) -> &[String] {
        &self.created
    }

    fn drain(&mut self) -> Vec<String> {
        std::mem::take(&mut self.created)
    }
}

/// Evaluate `query` on `backend` through the full `optimize → execute_plan`
/// pipeline, materializing the result as relation `out`.  Returns `out`.
pub fn evaluate_query<B: QueryBackend>(
    backend: &mut B,
    query: &RaExpr,
    out: &str,
) -> std::result::Result<String, B::Error> {
    let plan = optimizer::optimize(backend, query).map_err(B::Error::from)?;
    backend.execute_plan(&plan, out)?;
    Ok(out.to_string())
}

/// The shared operator-by-operator executor behind the decompositions'
/// [`QueryBackend::execute_plan`]: walks `plan`, allocates scratch names
/// through the [`ExecContext`], recognises equi-joins on top of products,
/// and drops every intermediate it created once `out` is built — or once
/// the plan failed part-way.
pub fn walk<B: Operators>(
    backend: &mut B,
    plan: &RaExpr,
    out: &str,
) -> std::result::Result<(), B::Error> {
    let mut ctx = ExecContext::new();
    let result = eval_node(backend, plan, out, &mut ctx);
    for name in ctx.drain() {
        backend.drop_scratch(&name);
    }
    result
}

/// The profile/metrics label of a plan node's operator.
pub(crate) fn op_name(plan: &RaExpr) -> &'static str {
    match plan {
        RaExpr::Rel(_) => "scan",
        RaExpr::Select { .. } => "select",
        RaExpr::Project { .. } => "project",
        RaExpr::Product { .. } => "product",
        RaExpr::Union { .. } => "union",
        RaExpr::Difference { .. } => "difference",
        RaExpr::Rename { .. } => "rename",
    }
}

/// The operator detail shown in profiles (predicate, attribute list, …).
/// Only rendered when a profile collector is installed.
pub(crate) fn op_detail(plan: &RaExpr) -> String {
    match plan {
        RaExpr::Rel(name) => name.clone(),
        RaExpr::Select { pred, .. } => pred.to_string(),
        RaExpr::Project { attrs, .. } => attrs.join(", "),
        RaExpr::Rename { from, to, .. } => format!("{from}→{to}"),
        RaExpr::Product { .. } | RaExpr::Union { .. } | RaExpr::Difference { .. } => String::new(),
    }
}

/// One operator of the operator-by-operator path, wrapped in
/// instrumentation when the execution is observed ([`ExecContext::observe`]): a profile node
/// (path `"row"`; a decomposed relation has no cheap tuple count, so its
/// `rows_out` is 0) plus an `exec.op.<name>.ns` histogram sample on the
/// scope's observer.  With the flag off this is a single branch in front of
/// [`eval_node_inner`].
fn eval_node<B: Operators>(
    backend: &mut B,
    plan: &RaExpr,
    out: &str,
    ctx: &mut ExecContext,
) -> std::result::Result<(), B::Error> {
    if !ctx.observe() {
        return eval_node_inner(backend, plan, out, ctx);
    }
    let token = ws_obs::profile::enter(op_name(plan), || op_detail(plan));
    let started = std::time::Instant::now();
    let result = eval_node_inner(backend, plan, out, ctx);
    if let Some(token) = token {
        token.finish(0, 1, "row");
    }
    if let Some(scope) = ctx.obs() {
        scope
            .observer
            .metrics()
            .histogram(&format!("exec.op.{}.ns", op_name(plan)))
            .record_duration(started.elapsed());
    }
    result
}

fn eval_node_inner<B: Operators>(
    backend: &mut B,
    plan: &RaExpr,
    out: &str,
    ctx: &mut ExecContext,
) -> std::result::Result<(), B::Error> {
    match plan {
        RaExpr::Rel(name) => {
            if !backend.contains_relation(name) {
                return Err(B::Error::from(RelationalError::UnknownRelation(
                    name.clone(),
                )));
            }
            backend.materialize_base(name, out)
        }
        RaExpr::Select { pred, input } => {
            // θ-join recognition: σ_{… A=B …}(L × R) with A, B spanning the
            // two operands becomes a physical equi-join.
            if let RaExpr::Product { left, right } = input.as_ref() {
                if let Some(join) =
                    recognize_equi_join(backend, pred, left, right).map_err(B::Error::from)?
                {
                    if let Some(scope) = ctx.obs() {
                        scope
                            .observer
                            .metrics()
                            .counter("exec.join.recognized")
                            .inc();
                    }
                    let l = eval_operand(backend, left, ctx)?;
                    let r = eval_operand(backend, right, ctx)?;
                    return match join.residual {
                        None => backend.apply_equi_join(
                            &l,
                            &r,
                            &join.left_attr,
                            &join.right_attr,
                            out,
                            ctx,
                        ),
                        Some(residual) => {
                            let joined = ctx.fresh(|n| backend.contains_relation(n), "join");
                            backend.apply_equi_join(
                                &l,
                                &r,
                                &join.left_attr,
                                &join.right_attr,
                                &joined,
                                ctx,
                            )?;
                            backend.apply_select(&joined, &residual, out, ctx)
                        }
                    };
                }
            }
            let input_name = eval_operand(backend, input, ctx)?;
            backend.apply_select(&input_name, pred, out, ctx)
        }
        RaExpr::Project { attrs, input } => {
            let input_name = eval_operand(backend, input, ctx)?;
            backend.apply_project(&input_name, attrs, out, ctx)
        }
        RaExpr::Product { left, right } => {
            let l = eval_operand(backend, left, ctx)?;
            let r = eval_operand(backend, right, ctx)?;
            backend.apply_product(&l, &r, out, ctx)
        }
        RaExpr::Union { left, right } => {
            let l = eval_operand(backend, left, ctx)?;
            let r = eval_operand(backend, right, ctx)?;
            backend.apply_union(&l, &r, out)
        }
        RaExpr::Difference { left, right } => {
            let l = eval_operand(backend, left, ctx)?;
            let r = eval_operand(backend, right, ctx)?;
            backend.apply_difference(&l, &r, out)
        }
        RaExpr::Rename { from, to, input } => {
            let input_name = eval_operand(backend, input, ctx)?;
            backend.apply_rename(&input_name, from, to, out)
        }
    }
}

/// Evaluate an operand expression; base relations are used in place (no
/// copy), composite expressions are materialized under a scratch name.
fn eval_operand<B: Operators>(
    backend: &mut B,
    expr: &RaExpr,
    ctx: &mut ExecContext,
) -> std::result::Result<String, B::Error> {
    if let RaExpr::Rel(name) = expr {
        if !backend.contains_relation(name) {
            return Err(B::Error::from(RelationalError::UnknownRelation(
                name.clone(),
            )));
        }
        return Ok(name.clone());
    }
    let name = ctx.fresh(|n| backend.contains_relation(n), hint_for(expr));
    eval_node(backend, expr, &name, ctx)?;
    Ok(name)
}

fn hint_for(expr: &RaExpr) -> &'static str {
    match expr {
        RaExpr::Rel(_) => "rel",
        RaExpr::Select { .. } => "sel",
        RaExpr::Project { .. } => "proj",
        RaExpr::Product { .. } => "prod",
        RaExpr::Union { .. } => "union",
        RaExpr::Difference { .. } => "diff",
        RaExpr::Rename { .. } => "ren",
    }
}

/// A recognized equi-join: the oriented attribute pair plus whatever part of
/// the selection condition is not the join atom.
pub(crate) struct EquiJoin {
    pub(crate) left_attr: String,
    pub(crate) right_attr: String,
    pub(crate) residual: Option<Predicate>,
}

/// Detect `σ_{… A=B …}(L × R)` where `A` and `B` come from different
/// operands.  Returns `None` (fall back to product + selection) when no
/// top-level equality conjunct spans both sides.
pub(crate) fn recognize_equi_join<C: SchemaCatalog + ?Sized>(
    catalog: &C,
    pred: &Predicate,
    left: &RaExpr,
    right: &RaExpr,
) -> Result<Option<EquiJoin>> {
    let left_attrs = optimizer::output_attrs(catalog, left)?;
    let right_attrs = optimizer::output_attrs(catalog, right)?;
    let conjuncts = optimizer::conjuncts(pred);
    for (idx, conjunct) in conjuncts.iter().enumerate() {
        let Predicate::AttrAttr {
            left: a,
            op: CmpOp::Eq,
            right: b,
        } = conjunct
        else {
            continue;
        };
        let oriented = if left_attrs.contains(a) && right_attrs.contains(b) {
            Some((a.clone(), b.clone()))
        } else if left_attrs.contains(b) && right_attrs.contains(a) {
            Some((b.clone(), a.clone()))
        } else {
            None
        };
        let Some((left_attr, right_attr)) = oriented else {
            continue;
        };
        let rest: Vec<Predicate> = conjuncts
            .iter()
            .enumerate()
            .filter(|(i, _)| *i != idx)
            .map(|(_, p)| p.clone())
            .collect();
        let residual = if rest.is_empty() {
            None
        } else {
            Some(optimizer::conjunction(rest))
        };
        return Ok(Some(EquiJoin {
            left_attr,
            right_attr,
            residual,
        }));
    }
    Ok(None)
}

// ---------------------------------------------------------------------------
// The single-world backend: an ordinary `Database` of `Relation`s.
// ---------------------------------------------------------------------------

impl SchemaCatalog for Database {
    fn schema_of(&self, relation: &str) -> Result<Schema> {
        Ok(self.relation(relation)?.schema().clone())
    }

    fn contains_relation(&self, relation: &str) -> bool {
        Database::contains_relation(self, relation)
    }
}

impl Database {
    pub(crate) fn store_as(&mut self, mut relation: Relation, out: &str) {
        let renamed = relation.schema().renamed_relation(out);
        *relation.schema_mut() = renamed;
        self.insert_relation(relation);
    }
}

impl QueryBackend for Database {
    type Error = RelationalError;

    /// The vectorized columnar executor ([`crate::kernels`]): the whole plan
    /// evaluated over [`crate::batch::ColumnBatch`]es with selection vectors.
    fn execute_plan(&mut self, plan: &RaExpr, out: &str) -> Result<()> {
        crate::kernels::execute(self, plan, out)
    }

    fn drop_scratch(&mut self, name: &str) {
        let _ = self.remove_relation(name);
    }
}

impl WriteBackend for Database {
    fn insert_certain(&mut self, relation: &str, tuple: &Tuple) -> Result<()> {
        let rel = self.relation_mut(relation)?;
        check_insertable(rel.schema(), tuple)?;
        rel.insert(tuple.clone())?;
        Ok(())
    }

    fn insert_possible(&mut self, relation: &str, tuple: &Tuple, prob: f64) -> Result<()> {
        check_probability(prob)?;
        if prob <= 0.0 {
            // Validate the target anyway so a bad insert never succeeds
            // silently just because its probability is zero.
            check_insertable(self.relation(relation)?.schema(), tuple)?;
            return Ok(());
        }
        if prob >= 1.0 {
            return self.insert_certain(relation, tuple);
        }
        Err(RelationalError::Invalid(format!(
            "a single-world database cannot represent a possible insert with probability {prob}; \
             use a world-set backend or insert with probability 0 or 1"
        )))
    }

    fn delete_where(&mut self, relation: &str, pred: &Predicate) -> Result<()> {
        let rel = self.relation_mut(relation)?;
        let schema = rel.schema().clone();
        let keep: Vec<bool> = rel
            .rows()
            .iter()
            .map(|row| pred.eval(&schema, row).map(|m| !m))
            .collect::<Result<_>>()?;
        let mut it = keep.into_iter();
        rel.retain(|_| it.next().unwrap_or(true));
        Ok(())
    }

    fn modify_where(
        &mut self,
        relation: &str,
        pred: &Predicate,
        assignments: &[(String, Value)],
    ) -> Result<()> {
        check_assignments(assignments)?;
        let rel = self.relation_mut(relation)?;
        let schema = rel.schema().clone();
        let positions: Vec<(usize, &Value)> = assignments
            .iter()
            .map(|(attr, value)| Ok((schema.position_of(attr)?, value)))
            .collect::<Result<_>>()?;
        let matches: Vec<bool> = rel
            .rows()
            .iter()
            .map(|row| pred.eval(&schema, row))
            .collect::<Result<_>>()?;
        for (row, matched) in rel.rows_mut().iter_mut().zip(matches) {
            if matched {
                for &(pos, value) in &positions {
                    row.set(pos, value.clone());
                }
            }
        }
        rel.dedup();
        Ok(())
    }

    fn apply_condition(&mut self, constraints: &[crate::constraint::Dependency]) -> Result<f64> {
        for dep in constraints {
            if !crate::constraint::world_satisfies(self, dep)? {
                return Err(RelationalError::Inconsistent);
            }
        }
        // The one world satisfies ψ, so P(ψ) = 1 and nothing changes.
        Ok(1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algebra::evaluate_set;
    use crate::predicate::CmpOp;
    use crate::schema::Schema;

    fn db() -> Database {
        let mut d = Database::new();
        let mut r = Relation::new(Schema::new("R", &["A", "B"]).unwrap());
        for (a, b) in [(1i64, 10i64), (2, 20), (3, 10), (4, 30)] {
            r.push_values([a, b]).unwrap();
        }
        d.insert_relation(r);
        let mut s = Relation::new(Schema::new("S", &["C", "D"]).unwrap());
        for (c, d_) in [(10i64, 7i64), (20, 8), (99, 9)] {
            s.push_values([c, d_]).unwrap();
        }
        d.insert_relation(s);
        d
    }

    /// `query` into `OUT`: optimized the way a session prepares it, or
    /// executed as written.
    fn run<B: QueryBackend>(
        backend: &mut B,
        query: &RaExpr,
        optimize: bool,
    ) -> std::result::Result<(), B::Error> {
        if optimize {
            evaluate_query(backend, query, "OUT").map(drop)
        } else {
            backend.execute_plan(query, "OUT")
        }
    }

    fn query_suite() -> Vec<RaExpr> {
        vec![
            RaExpr::rel("R"),
            RaExpr::rel("R").select(Predicate::eq_const("B", 10i64)),
            RaExpr::rel("R")
                .join(RaExpr::rel("S"), Predicate::cmp_attr("B", CmpOp::Eq, "C"))
                .project(vec!["A", "D"]),
            RaExpr::rel("R")
                .product(RaExpr::rel("S"))
                .select(Predicate::and(vec![
                    Predicate::cmp_attr("C", CmpOp::Eq, "B"),
                    Predicate::cmp_const("A", CmpOp::Gt, 1i64),
                ])),
            RaExpr::rel("R")
                .project(vec!["B"])
                .union(RaExpr::rel("S").rename("C", "B").project(vec!["B"])),
            RaExpr::rel("R")
                .project(vec!["B"])
                .difference(RaExpr::rel("S").rename("C", "B").project(vec!["B"])),
            RaExpr::rel("R")
                .rename("A", "A2")
                .select(Predicate::cmp_const("A2", CmpOp::Ge, 3i64)),
        ]
    }

    #[test]
    fn engine_matches_the_reference_evaluator_on_databases() {
        for (i, query) in query_suite().into_iter().enumerate() {
            let reference = evaluate_set(&db(), &query).unwrap();
            for optimize in [true, false] {
                let mut backend = db();
                run(&mut backend, &query, optimize).unwrap();
                let mut result = backend.relation("OUT").unwrap().clone();
                result.dedup();
                assert!(
                    reference.set_eq(&result),
                    "query #{i} {query}: {reference} vs {result} (optimize={optimize})"
                );
                let mut walked = Walked(db());
                run(&mut walked, &query, optimize).unwrap();
                let result = walked.0.relation("OUT").unwrap();
                assert!(
                    reference.set_eq(result),
                    "walked query #{i} {query}: {reference} vs {result} (optimize={optimize})"
                );
            }
        }
    }

    /// A `Database` driven through the shared walker: every physical
    /// operator is a one-node plan on the reference evaluator, so what the
    /// tests observe is the walker itself (scratch names, join recognition,
    /// cleanup).
    struct Walked(Database);

    impl Walked {
        fn one_node(&mut self, plan: RaExpr, out: &str) -> Result<()> {
            let result = evaluate_set(&self.0, &plan)?;
            self.0.store_as(result, out);
            Ok(())
        }
    }

    impl SchemaCatalog for Walked {
        fn schema_of(&self, relation: &str) -> Result<Schema> {
            self.0.schema_of(relation)
        }

        fn contains_relation(&self, relation: &str) -> bool {
            self.0.contains_relation(relation)
        }
    }

    impl QueryBackend for Walked {
        type Error = RelationalError;

        fn execute_plan(&mut self, plan: &RaExpr, out: &str) -> Result<()> {
            walk(self, plan, out)
        }

        fn drop_scratch(&mut self, name: &str) {
            self.0.drop_scratch(name);
        }
    }

    impl Operators for Walked {
        fn materialize_base(&mut self, name: &str, out: &str) -> Result<()> {
            self.one_node(RaExpr::rel(name), out)
        }

        fn apply_select(
            &mut self,
            input: &str,
            pred: &Predicate,
            out: &str,
            _ctx: &mut ExecContext,
        ) -> Result<()> {
            self.one_node(RaExpr::rel(input).select(pred.clone()), out)
        }

        fn apply_project(
            &mut self,
            input: &str,
            attrs: &[String],
            out: &str,
            _ctx: &mut ExecContext,
        ) -> Result<()> {
            self.one_node(RaExpr::rel(input).project(attrs.to_vec()), out)
        }

        fn apply_product(
            &mut self,
            left: &str,
            right: &str,
            out: &str,
            _ctx: &mut ExecContext,
        ) -> Result<()> {
            self.one_node(RaExpr::rel(left).product(RaExpr::rel(right)), out)
        }

        fn apply_union(&mut self, left: &str, right: &str, out: &str) -> Result<()> {
            self.one_node(RaExpr::rel(left).union(RaExpr::rel(right)), out)
        }

        fn apply_difference(&mut self, left: &str, right: &str, out: &str) -> Result<()> {
            self.one_node(RaExpr::rel(left).difference(RaExpr::rel(right)), out)
        }

        fn apply_rename(&mut self, input: &str, from: &str, to: &str, out: &str) -> Result<()> {
            self.one_node(RaExpr::rel(input).rename(from, to), out)
        }
    }

    #[test]
    fn temp_cleanup_leaves_only_base_relations_and_the_result() {
        let mut backend = Walked(db());
        let query = query_suite().remove(3);
        run(&mut backend, &query, false).unwrap();
        let mut names = backend.0.relation_names();
        names.sort_unstable();
        assert_eq!(names, vec!["OUT", "R", "S"]);
    }

    #[test]
    fn scratch_relations_are_dropped_on_error() {
        let mut backend = Walked(db());
        // The union is incompatible (arity 1 vs 2) and fails *after* both
        // operands have been materialized as scratch relations.
        let query = RaExpr::rel("R")
            .project(vec!["A"])
            .union(RaExpr::rel("S").select(Predicate::eq_const("C", 10i64)));
        let before = backend.0.relation_names().len();
        assert!(run(&mut backend, &query, false).is_err());
        assert_eq!(
            backend.0.relation_names().len(),
            before,
            "no leaked scratch"
        );
    }

    #[test]
    fn unknown_relations_are_reported() {
        let mut backend = db();
        let err = evaluate_query(&mut backend, &RaExpr::rel("NOPE"), "OUT");
        assert!(matches!(err, Err(RelationalError::UnknownRelation(_))));
    }

    #[test]
    fn equi_join_recognition_orients_and_splits_residuals() {
        let backend = db();
        let pred = Predicate::and(vec![
            Predicate::cmp_const("A", CmpOp::Gt, 0i64),
            Predicate::cmp_attr("C", CmpOp::Eq, "B"),
        ]);
        let join = recognize_equi_join(&backend, &pred, &RaExpr::rel("R"), &RaExpr::rel("S"))
            .unwrap()
            .expect("join recognized");
        assert_eq!(
            (join.left_attr.as_str(), join.right_attr.as_str()),
            ("B", "C")
        );
        assert!(join.residual.is_some());

        // A same-side equality is not a join condition.
        let local = Predicate::cmp_attr("A", CmpOp::Eq, "B");
        assert!(
            recognize_equi_join(&backend, &local, &RaExpr::rel("R"), &RaExpr::rel("S"))
                .unwrap()
                .is_none()
        );
    }

    /// Two relations whose equi-join on `B = C` has many matches per key.
    fn big_db() -> Database {
        let mut d = Database::new();
        let mut r = Relation::new(Schema::new("R", &["A", "B"]).unwrap());
        for i in 0..500i64 {
            r.push_values([i, i % 17]).unwrap();
        }
        d.insert_relation(r);
        let mut s = Relation::new(Schema::new("S", &["C", "D"]).unwrap());
        for i in 0..300i64 {
            s.push_values([i % 17, i]).unwrap();
        }
        d.insert_relation(s);
        d
    }

    #[test]
    fn hash_join_matches_product_plus_selection_order() {
        // The recognized-join path (hash join) must produce exactly the rows
        // and row order of the row-at-a-time product-then-select evaluator.
        let query = RaExpr::rel("R")
            .product(RaExpr::rel("S"))
            .select(Predicate::cmp_attr("B", CmpOp::Eq, "C"));
        let reference = crate::algebra::evaluate(&big_db(), &query).unwrap();
        assert!(!reference.is_empty());

        let mut joined = big_db();
        run(&mut joined, &query, false).unwrap();
        assert_eq!(joined.relation("OUT").unwrap().rows(), reference.rows());
    }

    #[test]
    fn hash_join_never_matches_undefined_keys() {
        // ⊥ and ? compare as undefined (CmpOp::eval → false), so they must
        // not join — not even with themselves.
        let mut d = Database::new();
        let mut r = Relation::new(Schema::new("R", &["A"]).unwrap());
        r.push(Tuple::new(vec![Value::Bottom])).unwrap();
        r.push(Tuple::new(vec![Value::Unknown])).unwrap();
        r.push(Tuple::new(vec![Value::int(1)])).unwrap();
        d.insert_relation(r);
        let mut s = Relation::new(Schema::new("S", &["B"]).unwrap());
        s.push(Tuple::new(vec![Value::Bottom])).unwrap();
        s.push(Tuple::new(vec![Value::Unknown])).unwrap();
        s.push(Tuple::new(vec![Value::int(1)])).unwrap();
        d.insert_relation(s);
        let query =
            RaExpr::rel("R").join(RaExpr::rel("S"), Predicate::cmp_attr("A", CmpOp::Eq, "B"));
        for optimize in [true, false] {
            let mut backend = d.clone();
            run(&mut backend, &query, optimize).unwrap();
            let rows = backend.relation("OUT").unwrap().rows().to_vec();
            assert_eq!(
                rows,
                vec![Tuple::new(vec![Value::int(1), Value::int(1)])],
                "optimize={optimize}"
            );
        }
    }

    #[test]
    fn database_write_backend_applies_per_world_semantics() {
        use crate::constraint::{Dependency, FunctionalDependency};
        let mut d = db();
        d.insert_certain("R", &Tuple::from_iter([9i64, 90]))
            .unwrap();
        assert!(d
            .relation("R")
            .unwrap()
            .contains(&Tuple::from_iter([9i64, 90])));
        // Set semantics: inserting again changes nothing.
        let before = d.relation("R").unwrap().len();
        d.insert_certain("R", &Tuple::from_iter([9i64, 90]))
            .unwrap();
        assert_eq!(d.relation("R").unwrap().len(), before);
        // Degenerate possible inserts work; fractional ones cannot be
        // represented by a single world.
        d.insert_possible("R", &Tuple::from_iter([8i64, 80]), 1.0)
            .unwrap();
        d.insert_possible("R", &Tuple::from_iter([7i64, 70]), 0.0)
            .unwrap();
        assert!(!d
            .relation("R")
            .unwrap()
            .contains(&Tuple::from_iter([7i64, 70])));
        assert!(d
            .insert_possible("R", &Tuple::from_iter([7i64, 70]), 0.5)
            .is_err());
        assert!(d
            .insert_possible("R", &Tuple::from_iter([7i64, 70]), 1.5)
            .is_err());
        assert!(
            d.insert_certain("R", &Tuple::from_iter([7i64])).is_err(),
            "arity mismatch"
        );
        assert!(
            d.insert_certain("R", &Tuple::new(vec![Value::Bottom, Value::int(0)]))
                .is_err(),
            "⊥ is reserved"
        );
        // Modify then delete.
        d.modify_where(
            "R",
            &Predicate::eq_const("A", 9i64),
            &[("B".to_string(), Value::int(33))],
        )
        .unwrap();
        assert!(d
            .relation("R")
            .unwrap()
            .contains(&Tuple::from_iter([9i64, 33])));
        d.delete_where("R", &Predicate::cmp_const("A", CmpOp::Ge, 8i64))
            .unwrap();
        assert!(!d
            .relation("R")
            .unwrap()
            .contains(&Tuple::from_iter([9i64, 33])));
        assert!(d
            .modify_where("R", &Predicate::eq_const("Z", 1i64), &[])
            .is_err());
        assert!(
            d.modify_where(
                "R",
                &Predicate::eq_const("A", 1i64),
                &[("B".to_string(), Value::Bottom)],
            )
            .is_err(),
            "⊥ can never be assigned"
        );
        // Conditioning on a satisfied constraint is a mass-1 no-op; on a
        // violated one it reports inconsistency.
        let key = Dependency::Fd(FunctionalDependency::new("R", vec!["A"], vec!["B"]));
        assert_eq!(d.apply_condition(std::slice::from_ref(&key)).unwrap(), 1.0);
        d.insert_certain("R", &Tuple::from_iter([1i64, 99]))
            .unwrap();
        assert!(matches!(
            d.apply_condition(&[key]),
            Err(RelationalError::Inconsistent)
        ));
    }

    #[test]
    fn fresh_scratch_names_skip_existing_relations() {
        let mut counter = 0;
        let taken = ["__t0".to_string(), "__t1".to_string()];
        let name = fresh_scratch_name(|n| taken.contains(&n.to_string()), &mut counter, "t");
        assert_eq!(name, "__t2");
        let mut ctx = ExecContext::new();
        let a = ctx.fresh(|_| false, "q");
        let b = ctx.fresh(|_| false, "q");
        assert_ne!(a, b);
        assert_eq!(ctx.created(), &[a, b]);
    }
}
