//! Shannon-expansion d-tree compilation of lineage DNFs.
//!
//! The lineage of an output tuple is a DNF over finite-domain variables,
//! and its probability is #P-hard in general.  The classical way out
//! (Koch 2009's `conf()` implementation, and the d-tree / decision-diagram
//! literature) is **Shannon expansion**: pick a variable `x` with domain
//! `{0, …, k−1}`, split on its (mutually exclusive, exhaustive) choices,
//!
//! ```text
//! P(F) = Σ_c  P(x = c) · P(F | x = c)
//! ```
//!
//! and recurse on the cofactors `F | x = c` (clauses binding `x` elsewhere
//! drop out; the `x = c` atoms vanish).  Three standard optimizations make
//! this practical:
//!
//! * **variable order** — expand the variable occurring in the most clauses
//!   first (ties broken by index, so compilation is deterministic), which
//!   empirically minimizes cofactor growth;
//! * **independent-component split** — when the clause set partitions into
//!   variable-disjoint components `F = F₁ ∨ … ∨ Fₘ`, use
//!   `P(F) = 1 − Π (1 − P(Fᵢ))` and recurse per component.  With the
//!   variable order above this compiles read-once lineage — the lineage of
//!   every hierarchical (safe) query (Dalvi–Suciu, VLDB 2004) — in one
//!   pass, so no separate extensional evaluator is needed;
//! * **memoized cofactor sharing** — cofactors are canonicalized (sorted,
//!   deduplicated, absorption-reduced) and cached, so a cofactor reached
//!   along different expansion paths is compiled once.
//!
//! Every step is an exact identity — the compiled probability equals the
//! brute-force enumeration ([`super::enumerate`]) bit-for-bit whenever both
//! run in exact (dyadic) arithmetic.  An explicit node budget bounds
//! compilation; blowing it is an error the session layer treats as "fall
//! back to the backend's native exact path".

use super::model::{Clause, Dnf, Var, VarTable};
use crate::error::{RelationalError, Result};
use std::collections::{BTreeMap, HashMap};

/// Compilation limits for one [`DtreeCompiler`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DtreeBudget {
    /// Maximum number of expanded d-tree nodes (Shannon expansions plus
    /// component splits) before compilation errors out.
    pub max_nodes: usize,
}

impl Default for DtreeBudget {
    fn default() -> Self {
        DtreeBudget { max_nodes: 1 << 16 }
    }
}

/// A memoizing Shannon-expansion compiler over one variable table.
///
/// The memo table is shared across [`DtreeCompiler::probability`] calls, so
/// compiling the lineage of many output tuples of the same query shares
/// cofactors between tuples too.
#[derive(Debug)]
pub struct DtreeCompiler<'a> {
    vars: &'a VarTable,
    memo: HashMap<Dnf, f64>,
    budget: DtreeBudget,
    nodes: usize,
    memo_hits: usize,
}

impl<'a> DtreeCompiler<'a> {
    /// A compiler with the default budget.
    pub fn new(vars: &'a VarTable) -> Self {
        DtreeCompiler::with_budget(vars, DtreeBudget::default())
    }

    /// A compiler with an explicit budget.
    pub fn with_budget(vars: &'a VarTable, budget: DtreeBudget) -> Self {
        DtreeCompiler {
            vars,
            memo: HashMap::new(),
            budget,
            nodes: 0,
            memo_hits: 0,
        }
    }

    /// Nodes expanded so far (over all `probability` calls).
    pub fn nodes_expanded(&self) -> usize {
        self.nodes
    }

    /// Memo-table hits so far (shared-cofactor savings).
    pub fn memo_hits(&self) -> usize {
        self.memo_hits
    }

    /// The exact probability of `dnf`, by memoized Shannon expansion.
    /// Errors when the node budget is exhausted.
    pub fn probability(&mut self, dnf: &Dnf) -> Result<f64> {
        let canonical = canonicalize(dnf);
        self.compile(canonical)
    }

    fn compile(&mut self, dnf: Dnf) -> Result<f64> {
        // Base cases: the empty DNF is false; an absorbed DNF containing
        // the empty clause is exactly `[true]`.
        if dnf.is_empty() {
            return Ok(0.0);
        }
        if dnf[0].is_empty() {
            return Ok(1.0);
        }
        if let Some(&p) = self.memo.get(&dnf) {
            self.memo_hits += 1;
            return Ok(p);
        }
        self.nodes += 1;
        if self.nodes > self.budget.max_nodes {
            return Err(RelationalError::Invalid(format!(
                "d-tree compilation exceeded the {}-node budget",
                self.budget.max_nodes
            )));
        }

        let components = split_components(&dnf);
        let p = if components.len() > 1 {
            // Independent-OR over variable-disjoint components.
            let mut miss = 1.0;
            for component in components {
                miss *= 1.0 - self.compile(canonicalize(&component))?;
            }
            1.0 - miss
        } else {
            // Shannon expansion on the most-shared variable.
            let var = pick_var(&dnf);
            let mut total = 0.0;
            for choice in 0..self.vars.domain_size(var) as u32 {
                let p_choice = self.vars.prob(var, choice);
                if p_choice == 0.0 {
                    continue;
                }
                let cofactor = cofactor(&dnf, var, choice);
                total += p_choice * self.compile(cofactor)?;
            }
            total
        };
        self.memo.insert(dnf, p);
        Ok(p)
    }
}

/// Canonicalize a DNF: sort, deduplicate, and apply absorption (drop any
/// clause subsumed by a more general one — `F ∨ (F ∧ G) = F`).
fn canonicalize(dnf: &Dnf) -> Dnf {
    let mut clauses = dnf.clone();
    clauses.sort();
    clauses.dedup();
    // The empty clause (true) sorts first and absorbs every other clause.
    if clauses.first().is_some_and(Clause::is_empty) {
        return vec![Clause::empty()];
    }
    // Absorption: after dedup no two clauses are equal, so a strict subset
    // clause absorbs its supersets.  A subsumer's first atom occurs in every
    // clause it subsumes, and sorting groups the clauses by first atom, so
    // each clause is tested only against the runs that start with one of
    // its own atoms — near-linear for a wide fan-out of variable-disjoint
    // derivations.
    let keep: Vec<bool> = clauses
        .iter()
        .enumerate()
        .map(|(i, clause)| {
            !clause.atoms().iter().any(|atom| {
                let start = clauses.partition_point(|c| c.atoms()[0] < *atom);
                clauses[start..]
                    .iter()
                    .take_while(|c| c.atoms()[0] == *atom)
                    .enumerate()
                    .any(|(k, general)| start + k != i && subsumes(general, clause))
            })
        })
        .collect();
    clauses
        .into_iter()
        .zip(keep)
        .filter_map(|(clause, keep)| keep.then_some(clause))
        .collect()
}

/// Whether `general`'s atoms are a subset of `specific`'s (so `general`
/// absorbs `specific`).
fn subsumes(general: &Clause, specific: &Clause) -> bool {
    general.atoms().len() <= specific.atoms().len()
        && general
            .atoms()
            .iter()
            .all(|&(v, c)| specific.binding(v) == Some(c))
}

/// Partition the clauses into variable-disjoint connected components
/// (deterministic: components ordered by their first clause).
fn split_components(dnf: &Dnf) -> Vec<Dnf> {
    let mut owner: BTreeMap<Var, usize> = BTreeMap::new();
    let mut parent: Vec<usize> = (0..dnf.len()).collect();
    fn find(parent: &mut [usize], mut i: usize) -> usize {
        while parent[i] != i {
            parent[i] = parent[parent[i]];
            i = parent[i];
        }
        i
    }
    for (i, clause) in dnf.iter().enumerate() {
        for var in clause.vars() {
            match owner.get(&var) {
                Some(&j) => {
                    let (ri, rj) = (find(&mut parent, i), find(&mut parent, j));
                    parent[ri.max(rj)] = ri.min(rj);
                }
                None => {
                    owner.insert(var, i);
                }
            }
        }
    }
    let mut groups: BTreeMap<usize, Dnf> = BTreeMap::new();
    for (i, clause) in dnf.iter().enumerate() {
        groups
            .entry(find(&mut parent, i))
            .or_default()
            .push(clause.clone());
    }
    groups.into_values().collect()
}

/// The variable occurring in the most clauses (ties broken by index).
fn pick_var(dnf: &Dnf) -> Var {
    let mut counts: BTreeMap<Var, usize> = BTreeMap::new();
    for clause in dnf {
        for var in clause.vars() {
            *counts.entry(var).or_default() += 1;
        }
    }
    counts
        .into_iter()
        .max_by_key(|&(var, count)| (count, std::cmp::Reverse(var)))
        .map(|(var, _)| var)
        .expect("non-empty clauses have variables")
}

/// The cofactor `F | var = choice`: clauses binding `var` to another choice
/// drop out; `var = choice` atoms vanish; the rest stay.  The result is
/// canonicalized for memo sharing.
fn cofactor(dnf: &Dnf, var: Var, choice: u32) -> Dnf {
    let mut out = Vec::with_capacity(dnf.len());
    for clause in dnf {
        match clause.binding(var) {
            Some(c) if c != choice => {}
            Some(_) => {
                let atoms: Vec<(Var, u32)> = clause
                    .atoms()
                    .iter()
                    .copied()
                    .filter(|&(v, _)| v != var)
                    .collect();
                out.push(Clause::from_bindings(atoms).expect("restriction stays consistent"));
            }
            None => out.push(clause.clone()),
        }
    }
    canonicalize(&out)
}

#[cfg(test)]
mod tests {
    use super::super::enumerate::enumerate_probability;
    use super::super::eval::evaluate_lineage;
    use super::super::model::{LineageDb, LineageRelation};
    use super::*;
    use crate::algebra::RaExpr;
    use crate::predicate::{CmpOp, Predicate};
    use crate::schema::Schema;
    use crate::tuple::Tuple;

    fn vars(n: usize) -> VarTable {
        let mut vars = VarTable::new();
        for i in 0..n {
            vars.add_var(format!("v{i}"), vec![0.25, 0.75]).unwrap();
        }
        vars
    }

    #[test]
    fn matches_enumeration_on_structured_dnfs() {
        let vars = vars(6);
        let cases: Vec<Dnf> = vec![
            vec![],
            vec![Clause::empty()],
            vec![Clause::of(0, 1)],
            // Independent OR.
            vec![Clause::of(0, 1), Clause::of(1, 1), Clause::of(2, 1)],
            // Disjoint (mutually exclusive) OR.
            vec![Clause::of(0, 0), Clause::of(0, 1)],
            // Shared-variable fan-out (the unsafe-join shape).
            vec![
                Clause::from_bindings([(0, 1), (1, 1)]).unwrap(),
                Clause::from_bindings([(0, 1), (2, 1)]).unwrap(),
                Clause::from_bindings([(3, 1), (1, 1)]).unwrap(),
            ],
            // Absorption: v0=1 absorbs v0=1 ∧ v1=0.
            vec![
                Clause::of(0, 1),
                Clause::from_bindings([(0, 1), (1, 0)]).unwrap(),
            ],
        ];
        for dnf in cases {
            let mut compiler = DtreeCompiler::new(&vars);
            let compiled = compiler.probability(&dnf).unwrap();
            let exact = enumerate_probability(&dnf, &vars, 1 << 16).unwrap();
            assert_eq!(
                compiled.to_bits(),
                exact.to_bits(),
                "d-tree disagrees with enumeration on {dnf:?}: {compiled} vs {exact}"
            );
        }
    }

    #[test]
    fn memo_shares_cofactors_across_tuples() {
        let vars = vars(8);
        // Two DNFs sharing the sub-DNF over v2..v5.
        let shared: Vec<Clause> = (2..6).map(|v| Clause::of(v as Var, 1)).collect();
        let mut a: Dnf = vec![Clause::from_bindings([(0, 1), (1, 1)]).unwrap()];
        a.extend(shared.clone());
        let mut b: Dnf = vec![Clause::from_bindings([(0, 1), (1, 0)]).unwrap()];
        b.extend(shared);
        let mut compiler = DtreeCompiler::new(&vars);
        compiler.probability(&a).unwrap();
        let hits_before = compiler.memo_hits();
        compiler.probability(&b).unwrap();
        assert!(
            compiler.memo_hits() > hits_before,
            "second tuple should reuse memoized cofactors"
        );
    }

    #[test]
    fn node_budget_is_enforced() {
        let vars = vars(16);
        // A fan-out DNF whose expansion needs more than 4 nodes.
        let dnf: Dnf = (0..16)
            .map(|i| Clause::from_bindings([(i, 1), ((i + 1) % 16, 1)]).unwrap())
            .collect();
        let mut tight = DtreeCompiler::with_budget(&vars, DtreeBudget { max_nodes: 4 });
        assert!(tight.probability(&dnf).is_err());
        let mut roomy = DtreeCompiler::new(&vars);
        let p = roomy.probability(&dnf).unwrap();
        assert!((0.0..=1.0).contains(&p));
    }

    #[test]
    fn component_split_is_exact() {
        let vars = vars(4);
        // (v0=1 ∧ v1=1) ∨ (v2=1 ∧ v3=1): two independent components.
        let dnf = vec![
            Clause::from_bindings([(0, 1), (1, 1)]).unwrap(),
            Clause::from_bindings([(2, 1), (3, 1)]).unwrap(),
        ];
        let mut compiler = DtreeCompiler::new(&vars);
        let p = compiler.probability(&dnf).unwrap();
        let exact = enumerate_probability(&dnf, &vars, 1 << 16).unwrap();
        assert_eq!(p.to_bits(), exact.to_bits());
        // 1 − (1 − 0.5625)(1 − 0.5625) for p = 0.75 per atom.
        assert_eq!(p, 1.0 - (1.0 - 0.5625) * (1.0 - 0.5625));
    }

    /// `R(A, B)` with one independent tuple `(i, i mod groups)` per variable
    /// `xᵢ`, present with probability `p(i)`.
    fn independent_db(n: usize, groups: usize, p: impl Fn(usize) -> f64) -> LineageDb {
        let mut vars = VarTable::new();
        let mut r = LineageRelation::new(Schema::new("R", &["A", "B"]).unwrap());
        for i in 0..n {
            let v = vars
                .add_var(format!("x{i}"), vec![1.0 - p(i), p(i)])
                .unwrap();
            r.push(
                Tuple::from_iter([i as i64, (i % groups) as i64]),
                Clause::of(v, 1),
            )
            .unwrap();
        }
        let mut db = LineageDb::new(vars);
        db.insert_relation(r);
        db
    }

    /// Every output tuple's probability through the session's compiled
    /// tier: `evaluate_lineage`, `dnfs`, then one shared d-tree compiler.
    fn compiled(db: &LineageDb, plan: &RaExpr) -> (BTreeMap<Tuple, f64>, usize) {
        let mut compiler = DtreeCompiler::new(db.vars());
        let probs = evaluate_lineage(db, plan)
            .unwrap()
            .dnfs()
            .into_iter()
            .map(|(tuple, dnf)| (tuple, compiler.probability(&dnf).unwrap()))
            .collect();
        (probs, compiler.nodes_expanded())
    }

    #[test]
    fn independent_project_is_one_minus_product_of_misses() {
        // π_B(R): each output value aggregates three independent tuples.
        let db = independent_db(6, 2, |_| 0.75);
        let (probs, _) = compiled(&db, &RaExpr::rel("R").project(vec!["B"]));
        assert_eq!(probs[&Tuple::from_iter([0i64])], 1.0 - 0.25f64.powi(3));
    }

    #[test]
    fn wide_independent_projection_compiles_in_linear_nodes() {
        // 20 000 derivations of one tuple, one independent variable each:
        // read-once lineage, compiled by one component split.
        let n = 20_000;
        let p = |i: usize| (1 + i % 7) as f64 / 4096.0;
        let db = independent_db(n, 1, p);
        let (probs, nodes) = compiled(&db, &RaExpr::rel("R").project(vec!["B"]));
        let miss = (0..n).fold(1.0, |miss, i| miss * (1.0 - p(i)));
        assert_eq!(probs[&Tuple::from_iter([0i64])], 1.0 - miss);
        assert!(nodes <= n + 1, "{nodes} d-tree nodes for {n} derivations");
    }

    #[test]
    fn disjoint_or_sums_exclusive_choices() {
        // One 3-valued variable feeding two rows that can never coexist.
        let mut vars = VarTable::new();
        let v = vars.add_var("c", vec![0.25, 0.25, 0.5]).unwrap();
        let mut db = LineageDb::new(vars);
        let mut r = LineageRelation::new(Schema::new("R", &["A"]).unwrap());
        r.push(Tuple::from_iter([7i64]), Clause::of(v, 0)).unwrap();
        r.push(Tuple::from_iter([7i64]), Clause::of(v, 2)).unwrap();
        r.push(Tuple::from_iter([8i64]), Clause::of(v, 1)).unwrap();
        db.insert_relation(r);
        let (probs, _) = compiled(&db, &RaExpr::rel("R"));
        assert_eq!(probs[&Tuple::from_iter([7i64])], 0.75);
        assert_eq!(probs[&Tuple::from_iter([8i64])], 0.25);
    }

    /// `R(A)` with `A = 1` under `x = 1`, and `S(B, C)` with one row per
    /// extra variable, all joined on `A = B`.
    fn join_db(s_vars: &[(&str, f64)]) -> LineageDb {
        let mut vars = VarTable::new();
        let x = vars.add_var("x", vec![0.5, 0.5]).unwrap();
        let mut r = LineageRelation::new(Schema::new("R", &["A"]).unwrap());
        r.push(Tuple::from_iter([1i64]), Clause::of(x, 1)).unwrap();
        let mut s = LineageRelation::new(Schema::new("S", &["B", "C"]).unwrap());
        for (c, &(name, p)) in s_vars.iter().enumerate() {
            let y = vars.add_var(name, vec![1.0 - p, p]).unwrap();
            s.push(
                Tuple::from_iter([1i64, 10 * (c as i64 + 1)]),
                Clause::of(y, 1),
            )
            .unwrap();
        }
        let mut db = LineageDb::new(vars);
        db.insert_relation(r);
        db.insert_relation(s);
        db
    }

    fn r_join_s() -> RaExpr {
        RaExpr::rel("R").join(RaExpr::rel("S"), Predicate::cmp_attr("A", CmpOp::Eq, "B"))
    }

    #[test]
    fn join_of_independent_relations_multiplies() {
        let db = join_db(&[("y", 0.75)]);
        let (probs, _) = compiled(&db, &r_join_s());
        assert_eq!(probs[&Tuple::from_iter([1i64, 1, 10])], 0.375);
    }

    #[test]
    fn shared_variable_fanout_is_exact() {
        // π_A(R ⋈ S): the R variable is shared by two non-exclusive
        // derivations, P(x ∧ (y0 ∨ y1)).
        let db = join_db(&[("y0", 0.5), ("y1", 0.5)]);
        let (probs, _) = compiled(&db, &r_join_s().project(vec!["A"]));
        assert_eq!(probs[&Tuple::from_iter([1i64])], 0.5 * 0.75);
    }

    #[test]
    fn absorption_matches_all_pairs_reference() {
        // Pseudo-random DNFs over 5 binary variables, checked against the
        // quadratic definition: keep a clause iff no other clause subsumes it.
        let mut state = 0x9e37_79b9_u32;
        let mut next = |m: u32| {
            state ^= state << 13;
            state ^= state >> 17;
            state ^= state << 5;
            state % m
        };
        for _ in 0..500 {
            let dnf: Dnf = (0..next(12))
                .filter_map(|_| {
                    Clause::from_bindings((0..5).filter_map(|v| match next(3) {
                        2 => None,
                        c => Some((v, c)),
                    }))
                })
                .collect();
            let mut sorted = dnf.clone();
            sorted.sort();
            sorted.dedup();
            let reference: Dnf = sorted
                .iter()
                .filter(|c| !sorted.iter().any(|g| g != *c && subsumes(g, c)))
                .cloned()
                .collect();
            assert_eq!(canonicalize(&dnf), reference, "on {dnf:?}");
        }
    }
}
