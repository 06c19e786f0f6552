//! Normalization of UWSDTs (§7 adapted to the uniform representation).
//!
//! Queries and the chase leave UWSDTs in a correct but not minimal state:
//! composed components may contain duplicate local worlds, placeholders whose
//! remaining value is unique are still stored in the component relation
//! instead of the template, presence conditions may have become vacuous, and
//! components may no longer be referenced at all.  The normalization passes
//! here mirror the `compress` / `decompose` / invalid-tuple algorithms of
//! Figure 20:
//!
//! * [`compress_components`] — merge indistinguishable local worlds, summing
//!   their probabilities (Fig. 20 `compress`),
//! * [`fold_certain_placeholders`] — move placeholders that carry the same
//!   value in every local world back into the template (the UWSDT analogue of
//!   maximal decomposition: a one-value component is a `D_i` relation of the
//!   WSDT definition and belongs in the template),
//! * [`remove_vacuous_presence`] — drop presence conditions that hold in
//!   every local world of their component, and
//! * [`prune_unreferenced_components`] — drop components that define no
//!   placeholder and constrain no tuple.
//!
//! [`normalize`] runs all passes to a fixpoint and reports what changed; the
//! represented world-set (and its probability distribution) is unchanged,
//! which `tests::normalization_preserves_the_world_set` and the
//! `uwsdt_vs_wsd` integration suite verify.

use std::collections::{BTreeMap, BTreeSet};

use ws_relational::Value;

use crate::error::Result;
use crate::model::{Cid, Lwid, Uwsdt};

/// What a normalization pass changed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NormalizationReport {
    /// Local worlds merged away by compression.
    pub merged_local_worlds: usize,
    /// Placeholders folded back into their template.
    pub folded_placeholders: usize,
    /// Presence conditions dropped because they were vacuous.
    pub dropped_presence_conditions: usize,
    /// Components removed because nothing referenced them.
    pub pruned_components: usize,
}

impl NormalizationReport {
    /// Whether the pass changed anything.
    pub fn changed(&self) -> bool {
        *self != NormalizationReport::default()
    }

    fn absorb(&mut self, other: NormalizationReport) {
        self.merged_local_worlds += other.merged_local_worlds;
        self.folded_placeholders += other.folded_placeholders;
        self.dropped_presence_conditions += other.dropped_presence_conditions;
        self.pruned_components += other.pruned_components;
    }
}

/// Merge local worlds of a component that are indistinguishable: they assign
/// the same value (or the same absence) to every placeholder of the component
/// and agree on membership in every presence condition referencing it.
/// Probabilities are summed.  Returns the number of merged-away local worlds.
pub fn compress_components(uwsdt: &mut Uwsdt) -> Result<usize> {
    let mut merged_total = 0;
    for cid in uwsdt.component_ids() {
        merged_total += compress_component(uwsdt, cid)?;
    }
    Ok(merged_total)
}

fn compress_component(uwsdt: &mut Uwsdt, cid: Cid) -> Result<usize> {
    let lwids: Vec<Lwid> = uwsdt
        .component_worlds(cid)?
        .iter()
        .map(|w| w.lwid)
        .collect();
    if lwids.len() < 2 {
        return Ok(0);
    }
    let fields = uwsdt.component_fields(cid).to_vec();
    // Signature of a local world: its value (or absence) for every
    // placeholder, plus its membership in every presence condition on `cid`.
    let presence_sets: Vec<BTreeSet<Lwid>> = uwsdt
        .all_presence()
        .filter(|(_, _, c)| c.cid == cid)
        .map(|(_, _, c)| c.lwids.clone())
        .collect();
    let mut signature_to_rep: BTreeMap<Vec<(Option<Value>, bool)>, Lwid> = BTreeMap::new();
    let mut merge_into: BTreeMap<Lwid, Lwid> = BTreeMap::new();
    for &lwid in &lwids {
        let mut signature: Vec<(Option<Value>, bool)> = Vec::new();
        for field in &fields {
            let value = uwsdt
                .placeholder_values(field)
                .and_then(|m| m.get(&lwid).cloned());
            signature.push((value, false));
        }
        for set in &presence_sets {
            signature.push((None, set.contains(&lwid)));
        }
        match signature_to_rep.get(&signature) {
            Some(&rep) => {
                merge_into.insert(lwid, rep);
            }
            None => {
                signature_to_rep.insert(signature, lwid);
            }
        }
    }
    if merge_into.is_empty() {
        return Ok(0);
    }

    // Move the probability mass onto the representatives.
    {
        let worlds = uwsdt.worlds_mut(cid)?;
        let mut extra: BTreeMap<Lwid, f64> = BTreeMap::new();
        for entry in worlds.iter() {
            if let Some(&rep) = merge_into.get(&entry.lwid) {
                *extra.entry(rep).or_default() += entry.prob;
            }
        }
        worlds.retain(|w| !merge_into.contains_key(&w.lwid));
        for entry in worlds.iter_mut() {
            if let Some(p) = extra.get(&entry.lwid) {
                entry.prob += p;
            }
        }
    }
    // Drop the merged local worlds from the value maps and presence sets
    // (their representative carries the identical information).
    for field in &fields {
        if let Some(values) = uwsdt.values_map_mut(field) {
            values.retain(|lwid, _| !merge_into.contains_key(lwid));
        }
    }
    for condition in uwsdt.presence_conditions_mut() {
        if condition.cid == cid {
            condition.lwids.retain(|l| !merge_into.contains_key(l));
        }
    }
    Ok(merge_into.len())
}

/// Fold placeholders that carry the same value in *every* local world of
/// their component back into the template relation.  Returns the number of
/// folded placeholders.
pub fn fold_certain_placeholders(uwsdt: &mut Uwsdt) -> Result<usize> {
    let mut folded = 0;
    for relation in uwsdt
        .relation_names()
        .iter()
        .map(|s| s.to_string())
        .collect::<Vec<_>>()
    {
        for field in uwsdt.placeholders_of(&relation) {
            let Some(cid) = uwsdt.component_of(&field) else {
                continue;
            };
            let lwids: Vec<Lwid> = uwsdt
                .component_worlds(cid)?
                .iter()
                .map(|w| w.lwid)
                .collect();
            let Some(values) = uwsdt.placeholder_values(&field) else {
                continue;
            };
            // Certain iff a value exists for every local world and all values
            // coincide.
            let mut iter = lwids.iter();
            let Some(first) = iter.next().and_then(|l| values.get(l)) else {
                continue;
            };
            let first = first.clone();
            if !lwids.iter().all(|l| values.get(l) == Some(&first)) {
                continue;
            }
            uwsdt.set_template_value(&field, first)?;
            uwsdt.remove_placeholder(&field);
            folded += 1;
        }
    }
    Ok(folded)
}

/// Remove presence conditions that mention every local world of their
/// component (they constrain nothing).  Returns the number removed.
pub fn remove_vacuous_presence(uwsdt: &mut Uwsdt) -> Result<usize> {
    // Collect the full lwid set of every component first (immutable pass).
    let mut full_sets: BTreeMap<Cid, BTreeSet<Lwid>> = BTreeMap::new();
    for cid in uwsdt.component_ids() {
        full_sets.insert(
            cid,
            uwsdt
                .component_worlds(cid)?
                .iter()
                .map(|w| w.lwid)
                .collect(),
        );
    }
    // Rewrite: a vacuous condition is marked by emptying nothing — we instead
    // rebuild each tuple's condition list without the vacuous entries.
    let tuples: Vec<(String, usize)> = uwsdt
        .all_presence()
        .map(|(rel, tuple, _)| (rel.to_string(), tuple))
        .collect::<BTreeSet<_>>()
        .into_iter()
        .collect();
    let mut removed = 0;
    for (relation, tuple) in tuples {
        let conditions = uwsdt.presence_of(&relation, tuple).to_vec();
        let kept: Vec<_> = conditions
            .iter()
            .filter(|c| match full_sets.get(&c.cid) {
                Some(full) => &c.lwids != full,
                None => true,
            })
            .cloned()
            .collect();
        removed += conditions.len() - kept.len();
        uwsdt.set_presence(&relation, tuple, kept);
    }
    Ok(removed)
}

/// Drop components that define no placeholder and appear in no presence
/// condition.  Returns the number of dropped components.
pub fn prune_unreferenced_components(uwsdt: &mut Uwsdt) -> Result<usize> {
    let cids = uwsdt.component_ids();
    Ok(uwsdt.drop_unreferenced(cids))
}

/// Run every normalization pass to a fixpoint.
pub fn normalize(uwsdt: &mut Uwsdt) -> Result<NormalizationReport> {
    let mut total = NormalizationReport::default();
    loop {
        let pass = NormalizationReport {
            merged_local_worlds: compress_components(uwsdt)?,
            folded_placeholders: fold_certain_placeholders(uwsdt)?,
            dropped_presence_conditions: remove_vacuous_presence(uwsdt)?,
            pruned_components: prune_unreferenced_components(uwsdt)?,
        };
        if !pass.changed() {
            return Ok(total);
        }
        total.absorb(pass);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::from_wsd;
    use crate::model::WorldEntry;
    use crate::ops;
    use crate::stats::stats_for;
    use ws_core::wsd::example_census_wsd;
    use ws_core::FieldId;
    use ws_relational::{Predicate, Relation, Schema, Tuple, Value};

    fn distributions_match(a: &Uwsdt, b: &Uwsdt, relation: &str) {
        let worlds_a = a.enumerate_worlds(1 << 16).unwrap();
        let worlds_b = b.enumerate_worlds(1 << 16).unwrap();
        let mass = |worlds: &[(ws_relational::Database, f64)], rel: &Relation| -> f64 {
            worlds
                .iter()
                .filter(|(db, _)| {
                    db.relation(relation)
                        .map(|r| r.set_eq(rel))
                        .unwrap_or(false)
                })
                .map(|(_, p)| p)
                .sum()
        };
        for (db, p) in &worlds_a {
            let rel = db.relation(relation).unwrap();
            let q = mass(&worlds_b, rel);
            assert!((mass(&worlds_a, rel) - q).abs() < 1e-9, "{p} vs {q}");
        }
    }

    #[test]
    fn compression_merges_duplicate_local_worlds() {
        // A component with two indistinguishable local worlds for one
        // placeholder.
        let mut uwsdt = Uwsdt::new();
        let schema = Schema::new("R", &["A"]).unwrap();
        let mut template = Relation::new(schema);
        template.push(Tuple::from_iter([Value::Unknown])).unwrap();
        uwsdt.add_template(template).unwrap();
        let cid = uwsdt
            .create_component(vec![
                WorldEntry {
                    lwid: 0,
                    prob: 0.25,
                },
                WorldEntry {
                    lwid: 1,
                    prob: 0.25,
                },
                WorldEntry { lwid: 2, prob: 0.5 },
            ])
            .unwrap();
        let field = FieldId::new("R", 0, "A");
        let values: std::collections::BTreeMap<_, _> =
            [(0, Value::int(1)), (1, Value::int(1)), (2, Value::int(2))]
                .into_iter()
                .collect();
        uwsdt
            .add_placeholder_in_component(field.clone(), cid, values)
            .unwrap();

        let before = uwsdt.clone();
        let merged = compress_components(&mut uwsdt).unwrap();
        assert_eq!(merged, 1);
        assert_eq!(uwsdt.component_worlds(cid).unwrap().len(), 2);
        let total: f64 = uwsdt
            .component_worlds(cid)
            .unwrap()
            .iter()
            .map(|w| w.prob)
            .sum();
        assert!((total - 1.0).abs() < 1e-9);
        distributions_match(&before, &uwsdt, "R");
    }

    #[test]
    fn certain_placeholders_are_folded_into_the_template() {
        // After compression the placeholder below has a single value left.
        let mut uwsdt = Uwsdt::new();
        let schema = Schema::new("R", &["A", "B"]).unwrap();
        let mut template = Relation::new(schema);
        template
            .push(Tuple::from_iter([Value::Unknown, Value::int(9)]))
            .unwrap();
        uwsdt.add_template(template).unwrap();
        let field = FieldId::new("R", 0, "A");
        uwsdt
            .add_placeholder(
                field.clone(),
                vec![(Value::int(7), 0.6), (Value::int(7), 0.4)],
            )
            .unwrap();
        let report = normalize(&mut uwsdt).unwrap();
        assert_eq!(report.merged_local_worlds, 1);
        assert_eq!(report.folded_placeholders, 1);
        assert!(!uwsdt.is_placeholder(&field));
        assert_eq!(
            uwsdt.template("R").unwrap().rows()[0][0],
            Value::int(7),
            "the certain value moved into the template"
        );
        assert_eq!(uwsdt.component_ids().len(), 0);
    }

    #[test]
    fn normalization_preserves_the_world_set() {
        // Run a query, then normalize and compare the represented world-sets.
        let mut uwsdt = from_wsd(&example_census_wsd()).unwrap();
        ops::select(&mut uwsdt, "R", "Q", &Predicate::eq_const("M", 1i64)).unwrap();
        let before = uwsdt.clone();
        let report = normalize(&mut uwsdt).unwrap();
        let _ = report; // any outcome is fine as long as semantics hold
        distributions_match(&before, &uwsdt, "R");
        distributions_match(&before, &uwsdt, "Q");
    }

    #[test]
    fn already_normal_uwsdts_are_left_alone() {
        // The unqueried census UWSDT is already in normal form: distinct
        // local worlds, no certain placeholders, no presence conditions.
        let mut uwsdt = from_wsd(&example_census_wsd()).unwrap();
        let before = uwsdt.clone();
        let report = normalize(&mut uwsdt).unwrap();
        distributions_match(&before, &uwsdt, "R");
        assert_eq!(report.merged_local_worlds, 0);
        assert_eq!(report.folded_placeholders, 0);
    }

    #[test]
    fn chased_census_scenario_shrinks_under_normalization() {
        // A small census scenario: chase the dependencies, then normalize.
        // Components whose local worlds collapsed to a single value must be
        // folded into the template, so the placeholder count cannot grow.
        let mut wsd = example_census_wsd();
        ws_core::chase::chase(
            &mut wsd,
            &[ws_core::Dependency::Egd(
                ws_core::EqualityGeneratingDependency::implies(
                    "R",
                    "S",
                    185i64,
                    "M",
                    ws_relational::CmpOp::Eq,
                    1i64,
                ),
            )],
        )
        .unwrap();
        let mut uwsdt = from_wsd(&wsd).unwrap();
        let before_stats = stats_for(&uwsdt, "R").unwrap();
        normalize(&mut uwsdt).unwrap();
        let after_stats = stats_for(&uwsdt, "R").unwrap();
        assert!(after_stats.components <= before_stats.components);
        assert!(after_stats.c_size <= before_stats.c_size);
    }
}
