//! (ε, δ)-approximate confidence on U-relations: Monte-Carlo over the world
//! table.
//!
//! The confidence of a tuple is the probability of its DNF over the
//! independent world-table variables — the #P-hard problem the Karp–Luby
//! estimator was designed for.  Like the WSD estimator
//! ([`ws_core::confidence::approx`]), this module samples total assignments
//! of the *relevant* variables only (everything else marginalizes out) and
//! checks the DNF directly, giving the same additive (ε, δ) guarantee from
//! the shared Hoeffding bound
//! [`hoeffding_samples`](ws_relational::approx::hoeffding_samples):
//! after `n = ⌈ln(2/δ) / (2ε²)⌉` trials, `|p̂ − p| ≤ ε` with probability at
//! least `1 − δ`.
//!
//! Trials are drawn in fixed blocks seeded from `(seed, block index)` and
//! summed in block order, so every estimate is bit-identical for any
//! [`WorkerPool`] thread count; [`possible_with_confidence`] additionally
//! fans out per tuple-group (each possible tuple's DNF is independent),
//! deriving each group's seed from the tuple's index so estimates stay
//! uncorrelated.

use std::collections::BTreeSet;

use rand::rngs::StdRng;
use rand::Rng;
use ws_relational::approx::{block_seed, run_trial_blocks, ApproxConfig};
use ws_relational::lineage::{Clause, Dnf, Var, VarTable};
use ws_relational::{Tuple, WorkerPool};

use crate::database::UDatabase;
use crate::error::Result;

/// One DNF prepared for Monte-Carlo trials: the cumulative distribution of
/// each variable it mentions (ascending), and its clauses re-indexed onto
/// positions in that list.
pub(crate) struct DnfSampler {
    cdfs: Vec<Vec<f64>>,
    clauses: Vec<Vec<(usize, u32)>>,
}

impl DnfSampler {
    /// A sampler for `dnf` — or, as the error, the DNF's probability when it
    /// needs no sampling: 0 without clauses, 1 with an empty (certain) one.
    pub(crate) fn new(dnf: &Dnf, vars: &VarTable) -> std::result::Result<Self, f64> {
        if dnf.is_empty() {
            return Err(0.0);
        }
        if dnf.iter().any(Clause::is_empty) {
            return Err(1.0);
        }
        let relevant: Vec<Var> = dnf
            .iter()
            .flat_map(Clause::vars)
            .collect::<BTreeSet<_>>()
            .into_iter()
            .collect();
        let cdfs = relevant
            .iter()
            .map(|&v| {
                let mut acc = 0.0;
                vars.dist(v)
                    .iter()
                    .map(|p| {
                        acc += p;
                        acc
                    })
                    .collect()
            })
            .collect();
        let clauses = dnf
            .iter()
            .map(|clause| {
                clause
                    .atoms()
                    .iter()
                    .map(|&(v, c)| (relevant.binary_search(&v).expect("relevant var"), c))
                    .collect()
            })
            .collect();
        Ok(DnfSampler { cdfs, clauses })
    }

    /// Run `trials` trials on `rng` (one inverse-CDF draw per variable);
    /// returns how many satisfied the DNF.
    pub(crate) fn hits(&self, rng: &mut StdRng, trials: usize) -> usize {
        let mut choice = vec![0u32; self.cdfs.len()];
        let mut hits = 0;
        for _ in 0..trials {
            for (cdf, slot) in self.cdfs.iter().zip(&mut choice) {
                let draw: f64 = rng.gen();
                *slot = cdf.partition_point(|&acc| acc <= draw).min(cdf.len() - 1) as u32;
            }
            if self
                .clauses
                .iter()
                .any(|clause| clause.iter().all(|&(i, c)| choice[i] == c))
            {
                hits += 1;
            }
        }
        hits
    }
}

/// (ε, δ)-approximate confidence of `tuple` in `relation`, serial.
pub fn conf(udb: &UDatabase, relation: &str, tuple: &Tuple, config: &ApproxConfig) -> Result<f64> {
    conf_with(udb, relation, tuple, config, &WorkerPool::serial())
}

/// (ε, δ)-approximate confidence with Monte-Carlo blocks fanned out on
/// `pool`.  The estimate is identical for every thread count.
pub fn conf_with(
    udb: &UDatabase,
    relation: &str,
    tuple: &Tuple,
    config: &ApproxConfig,
    pool: &WorkerPool,
) -> Result<f64> {
    estimate_dnf(&super::dnf_of(udb, relation, tuple)?, udb, config, pool)
}

/// Estimate the probability of `dnf`.
fn estimate_dnf(
    dnf: &Dnf,
    udb: &UDatabase,
    config: &ApproxConfig,
    pool: &WorkerPool,
) -> Result<f64> {
    let sampler = match DnfSampler::new(dnf, udb.vars()) {
        Ok(sampler) => sampler,
        Err(constant) => return Ok(constant),
    };
    let samples = config.samples()?;
    let hits: usize = run_trial_blocks(pool, samples, config.seed, |rng, block_len| {
        sampler.hits(rng, block_len)
    })
    .into_iter()
    .sum();
    Ok(hits as f64 / samples as f64)
}

/// The possible tuples of `relation` with (ε, δ)-approximate confidences,
/// serial.
pub fn possible_with_confidence(
    udb: &UDatabase,
    relation: &str,
    config: &ApproxConfig,
) -> Result<Vec<(Tuple, f64)>> {
    possible_with_confidence_with(udb, relation, config, &WorkerPool::serial())
}

/// [`possible_with_confidence`] parallelized per tuple-group on `pool`:
/// each possible tuple's DNF is estimated independently, with a per-tuple
/// seed derived from the tuple's index.  Output order (and every estimate)
/// is identical for any thread count.
pub fn possible_with_confidence_with(
    udb: &UDatabase,
    relation: &str,
    config: &ApproxConfig,
    pool: &WorkerPool,
) -> Result<Vec<(Tuple, f64)>> {
    let groups: Vec<(usize, (Tuple, Dnf))> = super::dnfs_of(udb.relation(relation)?)
        .into_iter()
        .enumerate()
        .collect();
    let estimates = pool.map_coarse(&groups, |(idx, (_, dnf))| {
        // Per-tuple seed: keeps tuple estimates uncorrelated while the inner
        // sampler stays serial (the fan-out here is already per tuple).
        let tuple_config = config.with_seed(block_seed(config.seed, u64::MAX - *idx as u64));
        estimate_dnf(dnf, udb, &tuple_config, &WorkerPool::serial())
    });
    groups
        .into_iter()
        .zip(estimates)
        .map(|((_, (tuple, _)), estimate)| Ok((tuple, estimate?)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::confidence as exact;
    use crate::convert::from_wsd;
    use ws_core::wsd::example_census_wsd;
    use ws_relational::{RaExpr, Value};

    #[test]
    fn estimates_land_within_epsilon_of_exact() {
        let mut udb = from_wsd(&example_census_wsd()).unwrap();
        ws_relational::engine::evaluate_query(&mut udb, &RaExpr::rel("R").project(vec!["S"]), "Q")
            .unwrap();
        let config = ApproxConfig::new(0.02, 0.01);
        for (tuple, exact) in exact::possible_with_confidence(&udb, "Q").unwrap() {
            let estimate = conf(&udb, "Q", &tuple, &config).unwrap();
            assert!(
                (estimate - exact).abs() <= config.epsilon,
                "conf({tuple}) ≈ {estimate}, exact {exact}"
            );
        }
    }

    #[test]
    fn estimates_are_identical_for_every_thread_count() {
        let udb = from_wsd(&example_census_wsd()).unwrap();
        let config = ApproxConfig::default();
        let serial = possible_with_confidence(&udb, "R", &config).unwrap();
        assert!(!serial.is_empty());
        for threads in [2usize, 4, 8] {
            let pool = WorkerPool::new(threads);
            assert_eq!(
                possible_with_confidence_with(&udb, "R", &config, &pool).unwrap(),
                serial
            );
        }
    }

    #[test]
    fn certain_impossible_and_unknown_cases() {
        let udb = from_wsd(&example_census_wsd()).unwrap();
        let config = ApproxConfig::default();
        let absent = Tuple::from_iter([Value::int(999), Value::text("Nobody"), Value::int(1)]);
        assert_eq!(conf(&udb, "R", &absent, &config).unwrap(), 0.0);
        assert!(conf(&udb, "NOPE", &absent, &config).is_err());
        // Invalid (ε, δ) is rejected as soon as sampling is actually needed.
        let present = udb.relation("R").unwrap().rows()[0].0.clone();
        assert!(conf(&udb, "R", &present, &ApproxConfig::new(0.5, 2.0)).is_err());

        // A certain tuple (empty clause) needs no sampling at all.
        let mut rel =
            ws_relational::Relation::new(ws_relational::Schema::new("S", &["X"]).unwrap());
        rel.push_values([5i64]).unwrap();
        let mut wsd = ws_core::Wsd::new();
        wsd.add_certain_relation(&rel).unwrap();
        let udb2 = from_wsd(&wsd).unwrap();
        assert_eq!(
            conf(&udb2, "S", &Tuple::from_iter([5i64]), &config).unwrap(),
            1.0
        );
    }
}
