//! Brute-force exact probability of a DNF: enumerate the joint assignments
//! of its variables.
//!
//! This is the exact confidence evaluator of U-relations, and the oracle the
//! compiled evaluators are pinned against: sum the
//! probability of every joint assignment of the DNF's variables that
//! satisfies at least one clause.  Exponential in the number of distinct
//! variables, so it carries an explicit assignment limit; the d-tree
//! compiler ([`super::dtree`]) exists precisely to avoid this enumeration.

use super::model::{Dnf, Var, VarTable};
use crate::error::{RelationalError, Result};
use std::collections::BTreeSet;

/// Default cap on the number of joint assignments (`2²⁰`): the budget of
/// exact U-relational confidence (`ws_urel::conf`), which is this
/// enumerator.
pub const DEFAULT_ENUM_LIMIT: u128 = 1 << 20;

/// The exact probability of `dnf` under the independent variables of
/// `vars`, by enumerating joint assignments of the variables the DNF
/// mentions.  Errors when more than `limit` assignments would be needed.
pub fn enumerate_probability(dnf: &Dnf, vars: &VarTable, limit: u128) -> Result<f64> {
    if dnf.is_empty() {
        return Ok(0.0);
    }
    if dnf.iter().any(|clause| clause.is_empty()) {
        return Ok(1.0);
    }
    let relevant: Vec<Var> = dnf
        .iter()
        .flat_map(|clause| clause.vars())
        .collect::<BTreeSet<_>>()
        .into_iter()
        .collect();
    let mut count: u128 = 1;
    for &v in &relevant {
        count = count.saturating_mul(vars.domain_size(v) as u128);
        if count > limit {
            return Err(RelationalError::Invalid(format!(
                "exact lineage enumeration needs more than {limit} joint assignments"
            )));
        }
    }
    // Odometer over the joint assignments, keeping the running product of
    // the chosen probabilities per position.
    let mut choice = vec![0u32; relevant.len()];
    let mut total = 0.0;
    loop {
        let p: f64 = relevant
            .iter()
            .zip(&choice)
            .map(|(&v, &c)| vars.prob(v, c))
            .product();
        if p > 0.0 {
            let satisfied = dnf.iter().any(|clause| {
                clause.atoms().iter().all(|&(v, c)| {
                    let i = relevant.binary_search(&v).expect("relevant var");
                    choice[i] == c
                })
            });
            if satisfied {
                total += p;
            }
        }
        // Advance the odometer (most-significant position last).
        let mut pos = 0;
        loop {
            if pos == relevant.len() {
                return Ok(total);
            }
            choice[pos] += 1;
            if (choice[pos] as usize) < vars.domain_size(relevant[pos]) {
                break;
            }
            choice[pos] = 0;
            pos += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lineage::model::Clause;

    fn two_coin_vars() -> VarTable {
        let mut vars = VarTable::new();
        vars.add_var("x", vec![0.5, 0.5]).unwrap();
        vars.add_var("y", vec![0.25, 0.75]).unwrap();
        vars
    }

    #[test]
    fn constants_and_single_clauses() {
        let vars = two_coin_vars();
        assert_eq!(enumerate_probability(&vec![], &vars, 1 << 10).unwrap(), 0.0);
        assert_eq!(
            enumerate_probability(&vec![Clause::empty()], &vars, 1 << 10).unwrap(),
            1.0
        );
        assert_eq!(
            enumerate_probability(&vec![Clause::of(1, 1)], &vars, 1 << 10).unwrap(),
            0.75
        );
    }

    #[test]
    fn disjunction_and_conjunction() {
        let vars = two_coin_vars();
        // x=1 ∨ y=1: 1 − (1−0.5)(1−0.75) = 0.875.
        let dnf = vec![Clause::of(0, 1), Clause::of(1, 1)];
        assert_eq!(enumerate_probability(&dnf, &vars, 1 << 10).unwrap(), 0.875);
        // x=1 ∧ y=1: 0.375.
        let dnf = vec![Clause::from_bindings([(0, 1), (1, 1)]).unwrap()];
        assert_eq!(enumerate_probability(&dnf, &vars, 1 << 10).unwrap(), 0.375);
        // Mutually exclusive: x=0 ∨ x=1 = 1.
        let dnf = vec![Clause::of(0, 0), Clause::of(0, 1)];
        assert_eq!(enumerate_probability(&dnf, &vars, 1 << 10).unwrap(), 1.0);
    }

    #[test]
    fn assignment_limit_is_enforced() {
        let mut vars = VarTable::new();
        let mut dnf = Vec::new();
        for i in 0..30 {
            let v = vars.add_var(format!("v{i}"), vec![0.5, 0.5]).unwrap();
            dnf.push(Clause::of(v, 1));
        }
        assert!(enumerate_probability(&dnf, &vars, 1 << 20).is_err());
    }
}
