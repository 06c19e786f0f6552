//! The one Monte-Carlo confidence estimator of the stack: a sampler over
//! DNF lineage plus the Hoeffding (ε, δ) sample planner behind it.
//!
//! Every backend maps onto [`crate::lineage`], so one estimator serves them
//! all: `maybms::Session::confidence_approx` evaluates a plan's lineage and
//! hands each answer's [`Dnf`] to [`estimate_probabilities`], exactly where
//! `Session::confidence` hands it to the d-tree compiler.  Each trial draws
//! one value per variable the DNF mentions (every other variable
//! marginalizes out) and checks the clauses directly, so a trial costs
//! O(variables + atoms) and nothing is ever composed or expanded.
//!
//! * [`hoeffding_samples`] — the `⌈ln(2/δ) / (2ε²)⌉` trial bound from
//!   Hoeffding's inequality: `Pr[|p̂ − p| > ε] ≤ 2·exp(−2nε²)`, so `n`
//!   trials make `p̂` an (ε, δ)-approximation (`|p̂ − p| ≤ ε` with
//!   probability at least `1 − δ`).  The guarantee is additive and per
//!   estimated tuple; clients needing it simultaneously for `m` tuples
//!   should pass `δ/m`.
//! * determinism — [`estimate_probabilities`] draws DNF `i`'s trials from
//!   one RNG seeded from `(seed, u64::MAX − i)` alone, so estimates stay
//!   uncorrelated and each one depends only on its DNF, its position and
//!   the seed.

use std::collections::BTreeSet;

use crate::error::{RelationalError, Result};
use crate::lineage::{Clause, Dnf, Var, VarTable};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Hard ceiling on the trial count an [`ApproxConfig`] may request
/// (`≈ 4.2M`), so accidentally tiny `ε`/`δ` fail fast instead of hanging.
pub const MAX_SAMPLES: usize = 1 << 22;

/// The (ε, δ) knobs of the estimator.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ApproxConfig {
    /// Additive error bound `ε` (half-width of the guarantee interval).
    pub epsilon: f64,
    /// Failure probability `δ`: the estimate may miss `[p − ε, p + ε]` with
    /// probability at most `δ`.
    pub delta: f64,
    /// Base RNG seed; DNF `i` derives its own seed from `(seed, i)`.
    pub seed: u64,
}

impl Default for ApproxConfig {
    fn default() -> Self {
        ApproxConfig {
            epsilon: 0.05,
            delta: 0.01,
            seed: 0x5EED_CAFE,
        }
    }
}

impl ApproxConfig {
    /// An (ε, δ) configuration with the default seed.
    pub fn new(epsilon: f64, delta: f64) -> Self {
        ApproxConfig {
            epsilon,
            delta,
            ..ApproxConfig::default()
        }
    }

    /// The same configuration with a different base seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// The trial count this configuration requires (validated).
    pub fn samples(&self) -> Result<usize> {
        hoeffding_samples(self.epsilon, self.delta)
    }
}

/// The Hoeffding sample bound `⌈ln(2/δ) / (2ε²)⌉` for an additive
/// (ε, δ)-approximation of a Bernoulli mean.  Errors when the parameters are
/// outside `(0, 1)` or the bound exceeds [`MAX_SAMPLES`].
pub fn hoeffding_samples(epsilon: f64, delta: f64) -> Result<usize> {
    if !(epsilon > 0.0 && epsilon < 1.0 && delta > 0.0 && delta < 1.0) {
        return Err(RelationalError::Invalid(format!(
            "(ε, δ) must lie in (0, 1): got ε = {epsilon}, δ = {delta}"
        )));
    }
    let n = ((2.0 / delta).ln() / (2.0 * epsilon * epsilon)).ceil();
    if n > MAX_SAMPLES as f64 {
        return Err(RelationalError::Invalid(format!(
            "(ε = {epsilon}, δ = {delta}) needs {n:.0} Monte-Carlo trials, \
             more than the {MAX_SAMPLES} ceiling"
        )));
    }
    Ok((n as usize).max(1))
}

/// The RNG seed of one independent trial stream: mixes the stream index
/// through SplitMix64's increment so nearby streams diverge immediately.
fn stream_seed(seed: u64, stream: u64) -> u64 {
    seed ^ (stream.wrapping_add(1)).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// One DNF prepared for Monte-Carlo trials: the cumulative distribution of
/// each variable it mentions (ascending), and its clauses re-indexed onto
/// positions in that list.
struct DnfSampler {
    cdfs: Vec<Vec<f64>>,
    clauses: Vec<Vec<(usize, u32)>>,
}

impl DnfSampler {
    /// A sampler for `dnf` — or, as the error, the DNF's probability when it
    /// needs no sampling: 0 without clauses, 1 with an empty (certain) one.
    fn new(dnf: &Dnf, vars: &VarTable) -> std::result::Result<Self, f64> {
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
    fn hits(&self, rng: &mut StdRng, trials: usize) -> usize {
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

/// (ε, δ)-approximate probabilities of `dnfs` over the independent
/// variables of `vars`, one per DNF in input order.
///
/// Each DNF is estimated from its own `config.samples()` trials, DNF `i`
/// seeded from `stream_seed(config.seed, u64::MAX − i)`.  A DNF without
/// clauses is 0 and one with an empty (certain) clause is 1, without
/// sampling.  Errors when `config` is outside `(0, 1)` or needs more than
/// [`MAX_SAMPLES`] trials.
pub fn estimate_probabilities(
    dnfs: &[Dnf],
    vars: &VarTable,
    config: &ApproxConfig,
) -> Result<Vec<f64>> {
    let samples = config.samples()?;
    let estimate = |(i, dnf): (u64, &Dnf)| match DnfSampler::new(dnf, vars) {
        Ok(sampler) => {
            let mut rng = StdRng::seed_from_u64(stream_seed(config.seed, u64::MAX - i));
            sampler.hits(&mut rng, samples) as f64 / samples as f64
        }
        Err(constant) => constant,
    };
    Ok((0u64..).zip(dnfs).map(estimate).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hoeffding_bound_shapes() {
        // ε = 0.05, δ = 0.01 → ln(200)/0.005 ≈ 1060 trials.
        let n = hoeffding_samples(0.05, 0.01).unwrap();
        assert!((1000..1100).contains(&n), "n = {n}");
        // Tighter ε needs quadratically more trials.
        assert!(hoeffding_samples(0.025, 0.01).unwrap() > 4 * n - 8);
        // Out-of-range or absurd parameters are rejected.
        assert!(hoeffding_samples(0.0, 0.5).is_err());
        assert!(hoeffding_samples(0.5, 1.0).is_err());
        assert!(hoeffding_samples(1e-6, 0.01).is_err());
        assert!(ApproxConfig::new(2.0, 0.5).samples().is_err());
    }

    /// Two correlated DNFs over `x ∈ {0, 1, 2}` (1/2, 1/4, 1/4) and
    /// `y ∈ {0, 1}` (3/4, 1/4): `x=0 ∨ y=1` (5/8) and `x=1 ∧ y=0` (3/16).
    fn two_dnfs() -> (VarTable, Vec<Dnf>) {
        let mut vars = VarTable::new();
        let x = vars.add_var("x", vec![0.5, 0.25, 0.25]).unwrap();
        let y = vars.add_var("y", vec![0.75, 0.25]).unwrap();
        let dnfs = vec![
            vec![Clause::of(x, 0), Clause::of(y, 1)],
            vec![Clause::from_bindings([(x, 1), (y, 0)]).unwrap()],
        ];
        (vars, dnfs)
    }

    #[test]
    fn estimates_land_within_epsilon() {
        let (vars, dnfs) = two_dnfs();
        let config = ApproxConfig::new(0.02, 0.01);
        let estimates = estimate_probabilities(&dnfs, &vars, &config).unwrap();
        for (estimate, exact) in estimates.iter().zip([0.625, 0.1875]) {
            assert!(
                (estimate - exact).abs() <= config.epsilon,
                "{estimate} vs {exact}"
            );
        }
    }

    /// Pins the sample stream: DNF `i` draws from `(seed, u64::MAX − i)`
    /// alone, so these estimates keep their exact bits across refactors.
    #[test]
    fn estimates_keep_their_bits_at_a_fixed_seed() {
        let (mut vars, mut dnfs) = two_dnfs();
        let z = vars.add_var("z", vec![0.1, 0.2, 0.3, 0.4]).unwrap();
        let x = vars.lookup("x").unwrap();
        dnfs.push(vec![
            Clause::from_bindings([(x, 2), (z, 3)]).unwrap(),
            Clause::of(z, 0),
        ]);
        dnfs.push(Dnf::new());
        dnfs.push(vec![Clause::of(z, 1), Clause::empty()]);
        dnfs.push(dnfs[0].clone());
        let config = ApproxConfig::new(0.05, 0.05).with_seed(0x0B17_5EED);
        let bits: Vec<u64> = estimate_probabilities(&dnfs, &vars, &config)
            .unwrap()
            .into_iter()
            .map(f64::to_bits)
            .collect();
        assert_eq!(
            bits,
            vec![
                4603667414212801411,
                4596344487989434751,
                4596539766022057862,
                0,
                4607182418800017408,
                4603777258106151911,
            ]
        );
    }

    #[test]
    fn impossible_and_certain_dnfs_need_no_sampling() {
        let (vars, dnfs) = two_dnfs();
        let trivial = vec![Dnf::new(), vec![dnfs[0][0].clone(), Clause::empty()]];
        let estimates = estimate_probabilities(&trivial, &vars, &ApproxConfig::default()).unwrap();
        assert_eq!(estimates, vec![0.0, 1.0]);
    }

    #[test]
    fn bad_epsilon_delta_is_rejected() {
        let (vars, dnfs) = two_dnfs();
        for config in [ApproxConfig::new(0.5, 2.0), ApproxConfig::new(0.0, 0.1)] {
            assert!(estimate_probabilities(&dnfs, &vars, &config).is_err());
        }
    }

    #[test]
    fn stream_seeds_diverge() {
        let s0 = stream_seed(42, 0);
        let s1 = stream_seed(42, 1);
        assert_ne!(s0, s1);
        assert_ne!(stream_seed(42, u64::MAX), s0);
    }
}
