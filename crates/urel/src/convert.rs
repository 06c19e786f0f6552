//! WSD → U-relations: the one translation of a world-set decomposition into
//! lineage.
//!
//! Every WSD component slot with at least two local worlds becomes one
//! variable `c{slot}` whose domain indexes the component's local worlds and
//! whose distribution is the component's probability column.  A tuple of a
//! represented relation expands into one annotated row per joint local-world
//! choice of the slots covering its fields — skipping the choices in which a
//! field is `⊥` (the tuple is absent) — and the row's clause records exactly
//! that choice.
//!
//! The expansion is per tuple (the granularity of §6's tuple-level view), so
//! its size is bounded by the tuple-level normalization of the WSD, not by
//! the number of worlds.  A tuple whose joint choice space exceeds
//! [`MAX_TUPLE_COMBOS`] is refused.  The session's lineage confidence tiers
//! use the same translation (`maybms::lineage::wsd_lineage`).

use std::collections::BTreeMap;

use ws_core::{FieldId, Wsd};
use ws_relational::lineage::{Clause, LineageDb, LineageRelation, Var, VarTable};
use ws_relational::{Tuple, Value};

use crate::database::UDatabase;
use crate::error::{Result, UrelError};

/// Cap on the per-tuple joint choice space a translation will enumerate
/// (the product of the covering components' local-world counts).
pub const MAX_TUPLE_COMBOS: usize = 4096;

/// Decode `code` into one choice per radix (row-major, first radix most
/// significant), reusing `choice` as scratch.
#[inline]
pub fn decode_choice(mut code: usize, radices: &[usize], choice: &mut [usize]) {
    for i in (0..radices.len()).rev() {
        choice[i] = code % radices[i];
        code /= radices[i];
    }
}

/// The joint choice count over `radices`, or `None` past `limit` (or for an
/// empty radix).
#[inline]
pub fn combo_count(radices: &[usize], limit: usize) -> Option<usize> {
    let mut combos = 1usize;
    for &r in radices {
        if r == 0 {
            return None;
        }
        combos = combos.checked_mul(r)?;
        if combos > limit {
            return None;
        }
    }
    Some(combos)
}

/// Translate the named relations of `wsd` into lineage (see the module
/// docs).  Variables are registered in the order tuples first need them.
pub fn wsd_lineage<'a>(
    wsd: &Wsd,
    relations: impl IntoIterator<Item = &'a str>,
) -> Result<LineageDb> {
    let mut vars = VarTable::new();
    // Slots are global to the WSD (a component may span relations), so the
    // slot → variable map is shared across the whole translation.
    let mut slot_vars: BTreeMap<usize, Var> = BTreeMap::new();
    let mut annotated = Vec::new();
    for name in relations {
        let meta = wsd.meta(name)?;
        let mut rel = LineageRelation::new(meta.schema(name));
        for t in meta.live_tuples() {
            // The slots covering this tuple, with each covered attribute's
            // position inside its component row.
            let mut covering: BTreeMap<usize, Vec<(usize, usize)>> = BTreeMap::new();
            for (attr_idx, attr) in meta.attrs.iter().enumerate() {
                let field = FieldId::new(name, t, attr.as_ref());
                let slot = wsd.slot_of(&field)?;
                let pos = wsd
                    .component(slot)?
                    .fields
                    .iter()
                    .position(|f| f == &field)
                    .ok_or_else(|| {
                        UrelError::invalid(format!("{field} is not in its component"))
                    })?;
                covering.entry(slot).or_default().push((attr_idx, pos));
            }
            let slots: Vec<usize> = covering.keys().copied().collect();
            let comps = slots
                .iter()
                .map(|&s| wsd.component(s))
                .collect::<ws_core::Result<Vec<_>>>()?;
            let radices: Vec<usize> = comps.iter().map(|c| c.rows.len()).collect();
            let combos = combo_count(&radices, MAX_TUPLE_COMBOS).ok_or_else(|| {
                UrelError::invalid(format!(
                    "tuple {name}.{t} has more than {MAX_TUPLE_COMBOS} joint local-world choices"
                ))
            })?;
            for (&slot, comp) in slots.iter().zip(&comps) {
                if comp.rows.len() >= 2 && !slot_vars.contains_key(&slot) {
                    let dist: Vec<f64> = comp.rows.iter().map(|w| w.prob).collect();
                    slot_vars.insert(slot, vars.add_var(format!("c{slot}"), dist)?);
                }
            }
            let mut choice = vec![0usize; slots.len()];
            'combo: for code in 0..combos {
                decode_choice(code, &radices, &mut choice);
                let mut values = vec![Value::Bottom; meta.attrs.len()];
                for ((slot, comp), &pick) in slots.iter().zip(&comps).zip(&choice) {
                    for &(attr_idx, pos) in &covering[slot] {
                        let value = comp.rows[pick].values.get(pos).ok_or_else(|| {
                            UrelError::invalid(format!(
                                "a local world of slot {slot} lacks a value"
                            ))
                        })?;
                        // A ⊥ field: the tuple is absent in this choice.
                        if value.is_bottom() {
                            continue 'combo;
                        }
                        values[attr_idx] = value.clone();
                    }
                }
                let clause =
                    Clause::from_bindings(slots.iter().zip(&choice).filter_map(|(slot, &pick)| {
                        slot_vars.get(slot).map(|&v| (v, pick as u32))
                    }))
                    .expect("distinct slots bind distinct variables");
                rel.push(Tuple::new(values), clause)?;
            }
        }
        annotated.push(rel);
    }
    let mut out = LineageDb::new(vars);
    for rel in annotated {
        out.insert_relation(rel);
    }
    Ok(out)
}

/// Convert a WSD into an equivalent U-relational database: every relation
/// translated by [`wsd_lineage`], redundant rows absorbed.
pub fn from_wsd(wsd: &Wsd) -> Result<UDatabase> {
    let mut lineage = wsd_lineage(wsd, wsd.relation_names())?;
    for relation in lineage.relations_mut() {
        relation.absorb();
    }
    Ok(UDatabase::from_lineage(lineage))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ws_core::wsd::example_census_wsd;
    use ws_relational::Schema;

    #[test]
    fn census_example_round_trips_through_u_relations() {
        let wsd = example_census_wsd();
        let udb = from_wsd(&wsd).unwrap();
        assert!(udb.validate().is_ok());
        // Same number of worlds (the or-set of component choices).
        assert_eq!(udb.world_count(), wsd.world_count());

        // The represented world-sets coincide (compare world by world).
        let wsd_worlds = wsd.enumerate_worlds(1 << 20).unwrap();
        let u_worlds = udb.enumerate_worlds(1 << 20).unwrap();
        assert_eq!(wsd_worlds.len(), u_worlds.len());
        for (db, p) in &wsd_worlds {
            let matching: f64 = u_worlds
                .iter()
                .filter(|(u, _)| u.relation("R").unwrap().set_eq(db.relation("R").unwrap()))
                .map(|(_, q)| q)
                .sum();
            assert!(
                (matching - p).abs() < 1e-9,
                "world probability mismatch: {matching} vs {p}"
            );
        }
    }

    #[test]
    fn certain_relations_need_no_variables() {
        let mut rel = ws_relational::Relation::new(Schema::new("S", &["X", "Y"]).unwrap());
        rel.push_values([1i64, 2i64]).unwrap();
        rel.push_values([3i64, 4i64]).unwrap();
        let mut wsd = Wsd::new();
        wsd.add_certain_relation(&rel).unwrap();
        let udb = from_wsd(&wsd).unwrap();
        assert!(udb.vars().is_empty());
        assert_eq!(udb.world_count(), 1);
        let u = udb.relation("S").unwrap();
        assert_eq!(u.len(), 2);
        assert!(u.rows().iter().all(|(_, c)| c.is_empty()));
    }

    #[test]
    fn or_set_fields_become_one_row_per_alternative() {
        // One tuple with a 3-way or-set field: three annotated rows over one
        // ternary variable.
        let mut wsd = Wsd::new();
        wsd.register_relation("T", &["A", "B"], 1).unwrap();
        wsd.set_certain(FieldId::new("T", 0, "A"), Value::int(7))
            .unwrap();
        wsd.set_uniform(
            FieldId::new("T", 0, "B"),
            vec![Value::int(1), Value::int(2), Value::int(3)],
        )
        .unwrap();
        let udb = from_wsd(&wsd).unwrap();
        assert_eq!(udb.vars().len(), 1);
        let u = udb.relation("T").unwrap();
        assert_eq!(u.len(), 3);
        assert_eq!(u.possible().unwrap().len(), 3);
    }
}
