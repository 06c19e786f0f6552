//! Shared fixtures of the engine property tests: the random well-typed plan
//! generator, the random-WSD builder, and the `Session`-era harness — the
//! five-backend constructor and the fluent-builder rebuild used by the
//! cross-backend equivalence, parallel-identity and session-API suites.
//!
//! Each integration-test binary compiles its own copy of this module, so
//! helpers one binary does not use are expected dead code there.
#![allow(dead_code)]

use std::collections::BTreeSet;

use maybms::census::{CensusScenario, ATTRIBUTES, RELATION_NAME};
use maybms::prelude::*;
use maybms::{AnyBackend, Query};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// `query` into relation `out`: optimized the way a session prepares it
/// ([`evaluate_query`]'s `optimize → execute_plan` pipeline), or, without
/// `optimize`, executed exactly as written.
pub fn evaluate_under<B: QueryBackend>(
    backend: &mut B,
    query: &RaExpr,
    out: &str,
    optimize: bool,
) -> Result<String, B::Error> {
    if optimize {
        evaluate_query(backend, query, out)
    } else {
        backend.execute_plan(query, out)?;
        Ok(out.to_string())
    }
}

/// The backend's native exact confidences of `prepared` — what
/// `Session::confidence` falls back to when the compiled tier declines, and
/// the reference the equivalence suites pin that tier to: the plan
/// materialized on the backend, the backend's own enumeration over the
/// result ([`SessionBackend::confidence_rows`]), and the result dropped
/// again.
pub fn native_confidences<B>(session: &mut Session<B>, prepared: &Prepared) -> Vec<(Tuple, f64)>
where
    B: SessionBackend,
    B::Error: Into<maybms::Error>,
{
    let out = session.materialize(prepared).unwrap();
    let rows = session.backend().confidence_rows(&out).unwrap();
    session.backend_mut().drop_scratch(&out);
    rows
}

/// A generated expression together with its (ordered) output attributes.
#[derive(Clone, Debug)]
pub struct GenExpr {
    pub expr: RaExpr,
    pub attrs: Vec<String>,
}

pub struct Generator {
    rng: StdRng,
    rename_counter: usize,
}

impl Generator {
    pub fn new(seed: u64) -> Self {
        Generator {
            rng: StdRng::seed_from_u64(seed),
            rename_counter: 0,
        }
    }

    /// A random comparison operator.
    fn op(&mut self) -> CmpOp {
        match self.rng.gen_range(0..6) {
            0 => CmpOp::Eq,
            1 => CmpOp::Ne,
            2 => CmpOp::Lt,
            3 => CmpOp::Le,
            4 => CmpOp::Gt,
            _ => CmpOp::Ge,
        }
    }

    /// A random (possibly composite) predicate over the given attributes.
    pub fn predicate(&mut self, attrs: &[String], depth: usize) -> Predicate {
        if depth > 0 && self.rng.gen_bool(0.3) {
            let parts = (0..self.rng.gen_range(1..=2usize))
                .map(|_| self.predicate(attrs, depth - 1))
                .collect::<Vec<_>>();
            return match self.rng.gen_range(0..3) {
                0 => Predicate::and(parts),
                1 => Predicate::or(parts),
                _ => Predicate::not(self.predicate(attrs, depth - 1)),
            };
        }
        let attr = attrs[self.rng.gen_range(0..attrs.len())].clone();
        if attrs.len() > 1 && self.rng.gen_bool(0.3) {
            let other = attrs[self.rng.gen_range(0..attrs.len())].clone();
            Predicate::cmp_attr(attr, self.op(), other)
        } else {
            Predicate::cmp_const(attr, self.op(), self.rng.gen_range(0..4i64))
        }
    }

    /// A random well-typed plan over base relations `R[A, B]` and `S[C]`.
    pub fn expr(&mut self, depth: usize, allow_difference: bool) -> GenExpr {
        if depth == 0 {
            return if self.rng.gen_bool(0.7) {
                GenExpr {
                    expr: RaExpr::rel("R"),
                    attrs: vec!["A".to_string(), "B".to_string()],
                }
            } else {
                GenExpr {
                    expr: RaExpr::rel("S"),
                    attrs: vec!["C".to_string()],
                }
            };
        }
        match self.rng.gen_range(0..10) {
            // Selection.
            0 | 1 => {
                let input = self.expr(depth - 1, allow_difference);
                let pred = self.predicate(&input.attrs, 1);
                GenExpr {
                    expr: input.expr.select(pred),
                    attrs: input.attrs,
                }
            }
            // Projection onto a random non-empty prefix-shuffled subset.
            2 | 3 => {
                let input = self.expr(depth - 1, allow_difference);
                let keep = self.rng.gen_range(1..=input.attrs.len());
                let mut attrs = input.attrs.clone();
                for i in (1..attrs.len()).rev() {
                    let j = self.rng.gen_range(0..=i);
                    attrs.swap(i, j);
                }
                attrs.truncate(keep);
                GenExpr {
                    expr: input.expr.project(attrs.clone()),
                    attrs,
                }
            }
            // Renaming.
            4 => {
                let input = self.expr(depth - 1, allow_difference);
                let idx = self.rng.gen_range(0..input.attrs.len());
                let from = input.attrs[idx].clone();
                self.rename_counter += 1;
                let to = format!("{from}_r{}", self.rename_counter);
                let mut attrs = input.attrs.clone();
                attrs[idx] = to.clone();
                GenExpr {
                    expr: input.expr.rename(from, to),
                    attrs,
                }
            }
            // Product (with clash-avoiding renames), sometimes as a θ-join.
            5 | 6 => {
                let left = self.expr(depth - 1, allow_difference);
                let mut right = self.expr(depth - 1, allow_difference);
                for (idx, attr) in right.attrs.clone().into_iter().enumerate() {
                    if left.attrs.contains(&attr) {
                        self.rename_counter += 1;
                        let to = format!("{attr}_p{}", self.rename_counter);
                        right.expr = right.expr.rename(attr, to.clone());
                        right.attrs[idx] = to;
                    }
                }
                let mut attrs = left.attrs.clone();
                attrs.extend(right.attrs.iter().cloned());
                let mut expr = left.expr.product(right.expr);
                if self.rng.gen_bool(0.5) {
                    let la = left.attrs[self.rng.gen_range(0..left.attrs.len())].clone();
                    let ra = right.attrs[self.rng.gen_range(0..right.attrs.len())].clone();
                    expr = expr.select(Predicate::cmp_attr(la, CmpOp::Eq, ra));
                }
                GenExpr { expr, attrs }
            }
            // Union of two selections of a common input (union-compatible by
            // construction).
            7 | 8 => {
                let input = self.expr(depth - 1, allow_difference);
                let p1 = self.predicate(&input.attrs, 0);
                let p2 = self.predicate(&input.attrs, 0);
                GenExpr {
                    expr: input.expr.clone().select(p1).union(input.expr.select(p2)),
                    attrs: input.attrs,
                }
            }
            // Difference of two selections of a common input.
            _ => {
                let input = self.expr(depth - 1, allow_difference);
                if !allow_difference {
                    return input;
                }
                let p1 = self.predicate(&input.attrs, 0);
                let p2 = self.predicate(&input.attrs, 0);
                GenExpr {
                    expr: input
                        .expr
                        .clone()
                        .select(p1)
                        .difference(input.expr.select(p2)),
                    attrs: input.attrs,
                }
            }
        }
    }
}

/// A small random WSD over `R[A, B]` and `S[C]` with or-set noise.
pub fn random_wsd(rng: &mut StdRng) -> Wsd {
    let mut wsd = Wsd::new();
    let r_tuples = rng.gen_range(2..=3usize);
    let s_tuples = rng.gen_range(1..=2usize);
    wsd.register_relation("R", &["A", "B"], r_tuples).unwrap();
    wsd.register_relation("S", &["C"], s_tuples).unwrap();
    let mut fields: Vec<FieldId> = Vec::new();
    for t in 0..r_tuples {
        fields.push(FieldId::new("R", t, "A"));
        fields.push(FieldId::new("R", t, "B"));
    }
    for t in 0..s_tuples {
        fields.push(FieldId::new("S", t, "C"));
    }
    for field in fields {
        if rng.gen_bool(0.35) {
            let n = rng.gen_range(2..=3usize);
            let mut alternatives: BTreeSet<i64> = BTreeSet::new();
            while alternatives.len() < n {
                alternatives.insert(rng.gen_range(0..4i64));
            }
            wsd.set_uniform(field, alternatives.into_iter().map(Value::int).collect())
                .unwrap();
        } else {
            wsd.set_certain(field, Value::int(rng.gen_range(0..4i64)))
                .unwrap();
        }
    }
    wsd.validate().unwrap();
    wsd
}

/// The same world-set in all five representations, tagged with the backend
/// name: the first enumerated world as a plain database, the WSD itself,
/// its UWSDT and U-relational conversions, and the explicit world-set.
/// Everything a session can be opened over.
pub fn all_backends(wsd: &Wsd) -> Vec<(&'static str, AnyBackend)> {
    let first_world = wsd.enumerate_worlds(1 << 20).unwrap()[0].0.clone();
    vec![
        ("database", AnyBackend::from(first_world)),
        ("wsd", AnyBackend::from(wsd.clone())),
        (
            "uwsdt",
            AnyBackend::from(maybms::uwsdt::from_wsd(wsd).unwrap()),
        ),
        (
            "urel",
            AnyBackend::from(maybms::urel::from_wsd(wsd).unwrap()),
        ),
        ("worlds", AnyBackend::from(wsd.rep().unwrap())),
    ]
}

/// Rebuild an arbitrary plan through the fluent builder, combinator by
/// combinator — the round-trip half of the builder property test.
pub fn rebuild_with_builder(expr: &RaExpr) -> Query {
    match expr {
        RaExpr::Rel(name) => maybms::q(name.clone()),
        RaExpr::Select { pred, input } => rebuild_with_builder(input).select(pred.clone()),
        RaExpr::Project { attrs, input } => rebuild_with_builder(input).project(attrs.clone()),
        RaExpr::Product { left, right } => {
            rebuild_with_builder(left).product(rebuild_with_builder(right))
        }
        RaExpr::Union { left, right } => {
            rebuild_with_builder(left).union(rebuild_with_builder(right))
        }
        RaExpr::Difference { left, right } => {
            rebuild_with_builder(left).difference(rebuild_with_builder(right))
        }
        RaExpr::Rename { from, to, input } => {
            rebuild_with_builder(input).rename(from.clone(), to.clone())
        }
    }
}

// ---------------------------------------------------------------------------
// The update half of the oracle harness.
// ---------------------------------------------------------------------------

/// A random update over the generator's fixed schema (`R[A, B]`, `S[C]`).
///
/// `allow_fractional` gates possible inserts with `0 < p < 1` (the
/// single-world database backend cannot represent them);
/// `allow_condition` gates conditioning steps (which may legitimately make
/// the world-set inconsistent — the caller compares that outcome too).
pub fn random_update(
    generator: &mut Generator,
    rng: &mut StdRng,
    allow_fractional: bool,
    allow_condition: bool,
) -> UpdateExpr {
    let (relation, attrs): (&str, &[&str]) = if rng.gen_bool(0.6) {
        ("R", &["A", "B"])
    } else {
        ("S", &["C"])
    };
    let fresh_tuple = |rng: &mut StdRng| {
        Tuple::new(
            (0..attrs.len())
                .map(|_| Value::int(rng.gen_range(0..5i64)))
                .collect(),
        )
    };
    let attr_names: Vec<String> = attrs.iter().map(|a| a.to_string()).collect();
    match rng.gen_range(0..10) {
        0 | 1 => UpdateExpr::insert(relation, fresh_tuple(rng)),
        2 | 3 => {
            let prob = if allow_fractional {
                [0.25, 0.5, 0.75, 1.0][rng.gen_range(0..4usize)]
            } else {
                1.0
            };
            UpdateExpr::insert_possible(relation, fresh_tuple(rng), prob)
        }
        4 | 5 => UpdateExpr::delete(relation, generator.predicate(&attr_names, 1)),
        6..=8 => {
            let n = rng.gen_range(1..=attrs.len());
            let mut assigned: Vec<&str> = attrs.to_vec();
            for i in (1..assigned.len()).rev() {
                let j = rng.gen_range(0..=i);
                assigned.swap(i, j);
            }
            assigned.truncate(n);
            let assignments: Vec<(String, Value)> = assigned
                .into_iter()
                .map(|a| (a.to_string(), Value::int(rng.gen_range(0..5i64))))
                .collect();
            UpdateExpr::modify(relation, generator.predicate(&attr_names, 1), assignments)
        }
        _ if allow_condition => {
            let dep = if rng.gen_bool(0.5) {
                Dependency::Fd(FunctionalDependency::new("R", vec!["A"], vec!["B"]))
            } else {
                Dependency::Egd(EqualityGeneratingDependency::implies(
                    "R",
                    "A",
                    rng.gen_range(0..4i64),
                    "B",
                    if rng.gen_bool(0.5) {
                        CmpOp::Ne
                    } else {
                        CmpOp::Le
                    },
                    rng.gen_range(0..4i64),
                ))
            };
            UpdateExpr::condition(vec![dep])
        }
        _ => UpdateExpr::delete(relation, generator.predicate(&attr_names, 0)),
    }
}

/// Apply one update to an explicitly enumerated world list — the
/// hand-rolled per-world semantics the decomposed `WriteBackend`
/// implementations are tested against.  Returns the surviving mass, or
/// `None` when conditioning eliminates every world (the inconsistent
/// outcome the backends must report as an error).
pub fn oracle_apply_update(worlds: &mut Vec<(Database, f64)>, update: &UpdateExpr) -> Option<f64> {
    match update {
        UpdateExpr::InsertCertain { relation, tuple } => {
            for (db, _) in worlds.iter_mut() {
                let rel = db.relation_mut(relation).unwrap();
                if !rel.contains(tuple) {
                    rel.push(tuple.clone()).unwrap();
                }
            }
            Some(1.0)
        }
        UpdateExpr::InsertPossible {
            relation,
            tuple,
            prob,
        } => {
            let mut split = Vec::with_capacity(worlds.len() * 2);
            for (db, p) in worlds.drain(..) {
                if *prob < 1.0 {
                    split.push((db.clone(), p * (1.0 - prob)));
                }
                if *prob > 0.0 {
                    let mut with = db;
                    let rel = with.relation_mut(relation).unwrap();
                    if !rel.contains(tuple) {
                        rel.push(tuple.clone()).unwrap();
                    }
                    split.push((with, p * prob));
                }
            }
            *worlds = split;
            Some(1.0)
        }
        UpdateExpr::Delete { relation, pred } => {
            for (db, _) in worlds.iter_mut() {
                let rel = db.relation_mut(relation).unwrap();
                let schema = rel.schema().clone();
                rel.retain(|t| !pred.eval(&schema, t).unwrap());
            }
            Some(1.0)
        }
        UpdateExpr::Modify {
            relation,
            pred,
            assignments,
        } => {
            for (db, _) in worlds.iter_mut() {
                let rel = db.relation_mut(relation).unwrap();
                let schema = rel.schema().clone();
                let positions: Vec<usize> = assignments
                    .iter()
                    .map(|(a, _)| schema.position(a).unwrap())
                    .collect();
                let matches: Vec<bool> = rel
                    .rows()
                    .iter()
                    .map(|t| pred.eval(&schema, t).unwrap())
                    .collect();
                for (row, matched) in rel.rows_mut().iter_mut().zip(matches) {
                    if matched {
                        for (pos, (_, value)) in positions.iter().zip(assignments) {
                            row.set(*pos, value.clone());
                        }
                    }
                }
                rel.dedup();
            }
            Some(1.0)
        }
        UpdateExpr::Condition { constraints } => {
            let satisfied = |db: &Database| {
                constraints
                    .iter()
                    .all(|dep| maybms::baselines::explicit::world_satisfies(db, dep).unwrap())
            };
            let total: f64 = worlds.iter().map(|(_, p)| p).sum();
            worlds.retain(|(db, _)| satisfied(db));
            let mass: f64 = worlds.iter().map(|(_, p)| p).sum();
            if worlds.is_empty() || mass <= 0.0 {
                return None;
            }
            for (_, p) in worlds.iter_mut() {
                *p /= mass;
            }
            Some(mass / total)
        }
    }
}

/// Run [`maybms::uwsdt::Uwsdt::validate`] on a UWSDT backend (the other
/// representations have no such invariant to check); the update and
/// durability suites call this after every update.
pub fn assert_valid(backend: &AnyBackend, context: &dyn std::fmt::Display) {
    if let AnyBackend::Uwsdt(uwsdt) = backend {
        uwsdt
            .validate()
            .unwrap_or_else(|e| panic!("[{context}] the UWSDT no longer validates: {e}"));
    }
}

/// The possible tuples of a relation across an explicit world list, sorted.
pub fn oracle_possible_in(worlds: &[(Database, f64)], relation: &str) -> BTreeSet<Tuple> {
    worlds
        .iter()
        .flat_map(|(db, _)| db.relation(relation).unwrap().rows().iter().cloned())
        .collect()
}

/// The possible answer tuples of a query across an explicit world list.
pub fn oracle_possible_query(worlds: &[(Database, f64)], query: &RaExpr) -> BTreeSet<Tuple> {
    worlds
        .iter()
        .flat_map(|(db, _)| {
            maybms::relational::evaluate_set(db, query)
                .unwrap()
                .into_rows()
        })
        .collect()
}

pub fn plan_has_difference(expr: &RaExpr) -> bool {
    match expr {
        RaExpr::Rel(_) => false,
        RaExpr::Select { input, .. }
        | RaExpr::Project { input, .. }
        | RaExpr::Rename { input, .. } => plan_has_difference(input),
        RaExpr::Product { left, right } | RaExpr::Union { left, right } => {
            plan_has_difference(left) || plan_has_difference(right)
        }
        RaExpr::Difference { .. } => true,
    }
}

// ---------------------------------------------------------------------------
// The census-shaped generator.
// ---------------------------------------------------------------------------

/// Worlds a census-shaped store may represent: enough for multi-component
/// presence conditions, few enough for world enumeration.
const CENSUS_WORLDS: u128 = 2048;

/// A chased census UWSDT (`ws_census`, 8 tuples at 2 % or-set density) small
/// enough for world enumeration, with presence-conditioned templates — the
/// shape the benchmark serves.  The chase alone leaves no presence condition
/// at this size; deleting one alternative of a placeholder keeps its tuple
/// only in the component's other local worlds, which is how a served store
/// acquires them.
pub fn census_uwsdt(rng: &mut StdRng) -> Uwsdt {
    loop {
        let scenario = CensusScenario::new(8, 0.02, rng.gen_range(0..1_000_000u64));
        let Ok(mut uwsdt) = scenario.chased_uwsdt() else {
            continue;
        };
        if uwsdt.world_count() > CENSUS_WORLDS {
            continue;
        }
        for _ in 0..2 {
            let delete = UpdateExpr::delete(RELATION_NAME, census_alternative(rng, &uwsdt));
            maybms::apply_update(&mut uwsdt, &delete).unwrap();
        }
        if uwsdt.all_presence().next().is_some() {
            uwsdt.validate().unwrap();
            return uwsdt;
        }
    }
}

/// `A = v` for one alternative `v` of one placeholder `A` of `uwsdt`'s
/// census relation: a predicate that holds in some local worlds only.
fn census_alternative(rng: &mut StdRng, uwsdt: &Uwsdt) -> Predicate {
    let placeholders = uwsdt.placeholders_of(RELATION_NAME);
    let field = &placeholders[rng.gen_range(0..placeholders.len())];
    let values = uwsdt
        .possible_field_values(RELATION_NAME, field.tuple.0, &field.attr)
        .unwrap();
    Predicate::eq_const(
        field.attr.as_ref(),
        values[rng.gen_range(0..values.len())].clone(),
    )
}

/// A random in-domain value of a random census attribute.
fn census_assignment(rng: &mut StdRng) -> (String, Value) {
    let attr = &ATTRIBUTES[rng.gen_range(0..ATTRIBUTES.len())];
    (
        attr.name.to_string(),
        Value::int(rng.gen_range(attr.domain())),
    )
}

/// A random update of `base`'s census relation: deletes and modifications
/// that hold on one placeholder alternative (so they split presence),
/// certain and — under `allow_fractional` — possible inserts of a certain
/// row with one attribute changed, and conditioning on the census
/// dependencies.
pub fn random_census_update(rng: &mut StdRng, base: &Uwsdt, allow_fractional: bool) -> UpdateExpr {
    match rng.gen_range(0..8) {
        0..=2 => UpdateExpr::delete(RELATION_NAME, census_alternative(rng, base)),
        3 | 4 => UpdateExpr::modify(
            RELATION_NAME,
            census_alternative(rng, base),
            vec![census_assignment(rng)],
        ),
        5 | 6 => {
            let template = base.template(RELATION_NAME).unwrap();
            let certain: Vec<&Tuple> = template
                .rows()
                .iter()
                .filter(|row| !row.has_unknown())
                .collect();
            let mut tuple = certain[rng.gen_range(0..certain.len())].clone();
            let (attr, value) = census_assignment(rng);
            tuple.set(template.schema().position_of(&attr).unwrap(), value);
            if allow_fractional && rng.gen_bool(0.5) {
                UpdateExpr::insert_possible(RELATION_NAME, tuple, 0.5)
            } else {
                UpdateExpr::insert(RELATION_NAME, tuple)
            }
        }
        _ => UpdateExpr::condition(maybms::census::census_dependencies()),
    }
}

/// The census queries Q1–Q6 plus a selection on one placeholder
/// alternative of `base`.
pub fn census_queries(rng: &mut StdRng, base: &Uwsdt) -> Vec<RaExpr> {
    let mut queries: Vec<RaExpr> = maybms::census::all_queries()
        .into_iter()
        .map(|(_, query)| query)
        .collect();
    queries.push(RaExpr::rel(RELATION_NAME).select(census_alternative(rng, base)));
    queries
}
