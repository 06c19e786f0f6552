//! Lineage extraction: map each possible-worlds representation onto the
//! finite-domain variables of [`ws_relational::lineage`], so the tiered
//! [`crate::Session::confidence`] strategy can shadow-evaluate a prepared
//! plan extensionally (safe plans) or through the d-tree compiler.
//!
//! Every extractor answers `Option<LineageDb>`:
//!
//! * `Some(db)` — a **faithful** translation: for every base relation the
//!   plan reads, the annotated rows and their clauses describe exactly the
//!   same distribution over worlds as the backend itself.  Tier results
//!   computed from it are exact.
//! * `None` — the representation opted out (per-tuple joint spaces above
//!   [`MAX_TUPLE_COMBOS`], un-normalized world weights, anything the mapping
//!   cannot express).  The session falls back to the backend's native exact
//!   path, so opting out is always safe.
//!
//! The variable vocabularies per backend:
//!
//! | backend    | variable                  | domain                          |
//! |------------|---------------------------|---------------------------------|
//! | `Database` | —                         | every row is certain            |
//! | `Wsd`      | one per multi-world slot  | the slot's local worlds         |
//! | `Uwsdt`    | one per multi-world `Cid` | the component's `WorldEntry`s   |
//! | `UDatabase`| its own world table       | the database *is* lineage       |
//! | `WorldSet` | a single selector         | the enumerated worlds           |

use std::collections::{BTreeMap, BTreeSet};

use ws_core::{FieldId, WorldSet, Wsd};
use ws_relational::lineage::{Clause, LineageDb, LineageRelation, Var, VarTable};
use ws_relational::{Database, Tuple, Value};
use ws_urel::convert::{combo_count, decode_choice};
use ws_urel::UDatabase;
use ws_uwsdt::Uwsdt;

/// Cap on the per-tuple joint choice space an extractor will enumerate
/// (product of the covering components' local-world counts).  Beyond this the
/// extractor opts out and the session uses the backend's native exact path.
pub use ws_urel::convert::MAX_TUPLE_COMBOS;

/// A single certain world: every row of every read relation carries the empty
/// clause (present in the one world with probability 1).
pub fn database_lineage(db: &Database, relations: &BTreeSet<String>) -> Option<LineageDb> {
    let mut out = LineageDb::new(VarTable::new());
    for name in relations {
        let rel = db.relation(name).ok()?;
        let mut annotated = LineageRelation::new(rel.schema().clone());
        for row in rel.rows() {
            annotated.push(row.clone(), Clause::empty()).ok()?;
        }
        out.insert_relation(annotated);
    }
    Some(out)
}

/// One variable per component slot with at least two local worlds; a tuple's
/// concrete variants are the joint local-world choices of the slots covering
/// its fields (skipping combinations that leave a field `⊥`, i.e. absent).
/// This is the WSD → U-relation translation, [`ws_urel::convert::wsd_lineage`].
pub fn wsd_lineage(wsd: &Wsd, relations: &BTreeSet<String>) -> Option<LineageDb> {
    ws_urel::convert::wsd_lineage(wsd, relations.iter().map(String::as_str)).ok()
}

/// One variable per multi-world component (`Cid`); a template tuple's
/// variants are the joint local-world choices of the components behind its
/// placeholders and presence conditions, filtered by those conditions.
pub fn uwsdt_lineage(uwsdt: &Uwsdt, relations: &BTreeSet<String>) -> Option<LineageDb> {
    let mut vars = VarTable::new();
    let mut cid_vars: BTreeMap<usize, Var> = BTreeMap::new();
    let mut annotated = Vec::new();
    for name in relations {
        let template = uwsdt.template(name).ok()?;
        let schema = template.schema().clone();
        let attrs: Vec<String> = schema.attrs().iter().map(|a| a.to_string()).collect();
        let mut rel = LineageRelation::new(schema);
        for (t, row) in template.rows().iter().enumerate() {
            // The components this tuple depends on: its placeholder fields
            // plus its presence conditions.
            let mut placeholders: Vec<(usize, FieldId, usize)> = Vec::new();
            let mut cids: BTreeSet<usize> = BTreeSet::new();
            for (attr_idx, attr) in attrs.iter().enumerate() {
                let field = FieldId::new(name.as_str(), t, attr);
                if let Some(cid) = uwsdt.component_of(&field) {
                    placeholders.push((attr_idx, field, cid));
                    cids.insert(cid);
                }
            }
            let presence = uwsdt.presence_of(name, t);
            cids.extend(presence.iter().map(|cond| cond.cid));
            let cid_list: Vec<usize> = cids.into_iter().collect();
            let worlds: Vec<_> = cid_list
                .iter()
                .map(|&cid| uwsdt.component_worlds(cid).ok())
                .collect::<Option<Vec<_>>>()?;
            let radices: Vec<usize> = worlds.iter().map(|w| w.len()).collect();
            let combos = combo_count(&radices, MAX_TUPLE_COMBOS)?;
            for (&cid, entries) in cid_list.iter().zip(&worlds) {
                if entries.len() >= 2 && !cid_vars.contains_key(&cid) {
                    let dist: Vec<f64> = entries.iter().map(|w| w.prob).collect();
                    let var = vars.add_var(format!("w{cid}"), dist).ok()?;
                    cid_vars.insert(cid, var);
                }
            }
            let cid_pos: BTreeMap<usize, usize> =
                cid_list.iter().enumerate().map(|(i, &c)| (c, i)).collect();
            let mut choice = vec![0usize; cid_list.len()];
            for code in 0..combos {
                decode_choice(code, &radices, &mut choice);
                // The tuple exists only in local worlds its presence
                // conditions list.
                let present = presence.iter().all(|cond| {
                    cid_pos
                        .get(&cond.cid)
                        .is_some_and(|&i| cond.lwids.contains(&worlds[i][choice[i]].lwid))
                });
                if !present {
                    continue;
                }
                let mut values: Vec<Value> = row.values().to_vec();
                for (attr_idx, field, cid) in &placeholders {
                    let i = cid_pos[cid];
                    let lwid = worlds[i][choice[i]].lwid;
                    // Every local world of a placeholder's component carries
                    // a value; a gap means the mapping cannot be trusted.
                    values[*attr_idx] = uwsdt
                        .placeholder_values(field)
                        .and_then(|m| m.get(&lwid))?
                        .clone();
                }
                // A leftover `?` (or `⊥`) would leak a marker into the
                // answer; decline rather than guess.
                if values.iter().any(|v| v.is_unknown() || v.is_bottom()) {
                    return None;
                }
                let clause = Clause::from_bindings(
                    cid_list
                        .iter()
                        .zip(&choice)
                        .filter_map(|(cid, &pick)| cid_vars.get(cid).map(|&var| (var, pick as u32)))
                        .collect::<Vec<_>>(),
                )?;
                rel.push(Tuple::new(values), clause).ok()?;
            }
        }
        annotated.push(rel);
    }
    let mut out = LineageDb::new(vars);
    for rel in annotated {
        out.insert_relation(rel);
    }
    Some(out)
}

/// A U-database is lineage already: its own world table and the plan's
/// relations, as they are.
pub fn urel_lineage(udb: &UDatabase, relations: &BTreeSet<String>) -> Option<LineageDb> {
    let mut out = LineageDb::new(udb.vars().clone());
    for name in relations {
        out.insert_relation(udb.relation(name).ok()?.clone());
    }
    Some(out)
}

/// The explicit enumeration maps onto a single selector variable whose domain
/// is the world list; a tuple's clause binds the selector to each world
/// containing it.  Un-normalized weights fail [`VarTable`] validation and opt
/// out.
pub fn worldset_lineage(ws: &WorldSet, relations: &BTreeSet<String>) -> Option<LineageDb> {
    let worlds = ws.worlds();
    if worlds.is_empty() {
        return None;
    }
    let mut vars = VarTable::new();
    let dist: Vec<f64> = worlds.iter().map(|(_, p)| *p).collect();
    let selector = vars.add_var("world", dist).ok()?;
    let mut out = LineageDb::new(vars);
    for name in relations {
        let mut annotated: Option<LineageRelation> = None;
        for (i, (world, _)) in worlds.iter().enumerate() {
            let rel = world.relation(name).ok()?;
            let target =
                annotated.get_or_insert_with(|| LineageRelation::new(rel.schema().clone()));
            // Set semantics inside one world: a duplicate row adds no new
            // derivation.
            let mut seen: BTreeSet<&Tuple> = BTreeSet::new();
            for row in rel.rows() {
                if seen.insert(row) {
                    target
                        .push(row.clone(), Clause::of(selector, i as u32))
                        .ok()?;
                }
            }
        }
        out.insert_relation(annotated?);
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ws_relational::lineage::enumerate_probability;

    fn relset(names: &[&str]) -> BTreeSet<String> {
        names.iter().map(|n| n.to_string()).collect()
    }

    /// Probability that `tuple` appears in `relation`, by brute-force joint
    /// enumeration over the extracted lineage.
    fn lineage_conf(db: &LineageDb, relation: &str, tuple: &Tuple) -> f64 {
        let dnf: Vec<Clause> = db
            .relation(relation)
            .unwrap()
            .rows()
            .iter()
            .filter(|(t, _)| t == tuple)
            .map(|(_, c)| c.clone())
            .collect();
        enumerate_probability(&dnf, db.vars(), 1 << 20).unwrap()
    }

    #[test]
    fn database_rows_are_certain() {
        let mut db = Database::new();
        let mut rel =
            ws_relational::Relation::new(ws_relational::Schema::new("R", &["A"]).unwrap());
        rel.push_values([1i64]).unwrap();
        rel.push_values([2i64]).unwrap();
        db.insert_relation(rel);
        let lin = database_lineage(&db, &relset(&["R"])).unwrap();
        assert_eq!(lin.vars().len(), 0);
        assert_eq!(lineage_conf(&lin, "R", &Tuple::from_iter([1i64])), 1.0);
    }

    #[test]
    fn wsd_extraction_matches_exact_confidence() {
        let census = ws_census::CensusScenario::new(150, 0.001, 0xC0FFEE);
        let inputs = [
            (ws_core::wsd::example_census_wsd(), "R", vec!["M"]),
            (
                census.dirty_wsd().unwrap(),
                ws_census::RELATION_NAME,
                vec!["CITIZEN", "IMMIGR"],
            ),
        ];
        for (wsd, relation, projection) in inputs {
            let lin = wsd_lineage(&wsd, &relset(&[relation])).unwrap();
            for (tuple, exact) in
                ws_core::confidence::possible_with_confidence(&wsd, relation).unwrap()
            {
                let got = lineage_conf(&lin, relation, &tuple);
                // The brute-force joint enumeration sums in a different order
                // than the native exact path, so non-dyadic probabilities can
                // differ in the last ulp; bit-identity on dyadic inputs is
                // covered by the session-level equivalence suite.
                assert!(
                    (got - exact).abs() < 1e-12,
                    "conf({tuple}) = {got}, exact {exact}"
                );
            }

            // A projection merges derivations into multi-clause DNFs: the
            // d-tree compiler and brute-force enumeration, two independent
            // exact algorithms, must agree on every output tuple.
            let query = ws_relational::RaExpr::rel(relation).project(projection);
            let output = ws_relational::lineage::evaluate_lineage(&lin, &query).unwrap();
            let mut compiler = ws_relational::lineage::DtreeCompiler::new(lin.vars());
            for (tuple, dnf) in output.dnfs() {
                let compiled = compiler.probability(&dnf).unwrap();
                let enumerated = enumerate_probability(&dnf, lin.vars(), 1 << 24).unwrap();
                assert!(
                    (compiled - enumerated).abs() < 1e-9,
                    "d-tree and enumeration disagree on {tuple}: {compiled} vs {enumerated}"
                );
            }
        }
    }

    #[test]
    fn urel_extraction_matches_exact_confidence() {
        let udb = ws_urel::from_wsd(&ws_core::wsd::example_census_wsd()).unwrap();
        let lin = urel_lineage(&udb, &relset(&["R"])).unwrap();
        for (tuple, exact) in ws_urel::confidence::possible_with_confidence(&udb, "R").unwrap() {
            let got = lineage_conf(&lin, "R", &tuple);
            // The brute-force joint enumeration sums in a different order
            // than the native exact path, so non-dyadic probabilities can
            // differ in the last ulp; bit-identity on dyadic inputs is
            // covered by the session-level equivalence suite.
            assert!(
                (got - exact).abs() < 1e-12,
                "conf({tuple}) = {got}, exact {exact}"
            );
        }
    }

    #[test]
    fn uwsdt_extraction_matches_exact_confidence() {
        let wsd = ws_core::wsd::example_census_wsd();
        let uwsdt = ws_uwsdt::build::from_wsd(&wsd).unwrap();
        let lin = uwsdt_lineage(&uwsdt, &relset(&["R"])).unwrap();
        for (tuple, exact) in ws_uwsdt::confidence::possible_with_confidence(&uwsdt, "R").unwrap() {
            let got = lineage_conf(&lin, "R", &tuple);
            // The brute-force joint enumeration sums in a different order
            // than the native exact path, so non-dyadic probabilities can
            // differ in the last ulp; bit-identity on dyadic inputs is
            // covered by the session-level equivalence suite.
            assert!(
                (got - exact).abs() < 1e-12,
                "conf({tuple}) = {got}, exact {exact}"
            );
        }
    }

    #[test]
    fn worldset_extraction_matches_enumeration() {
        let wsd = ws_core::wsd::example_census_wsd();
        let ws = wsd.rep().unwrap();
        let lin = worldset_lineage(&ws, &relset(&["R"])).unwrap();
        for (tuple, exact) in ws_core::confidence::possible_with_confidence(&wsd, "R").unwrap() {
            let got = lineage_conf(&lin, "R", &tuple);
            assert!(
                (got - exact).abs() < 1e-12,
                "conf({tuple}) = {got}, exact {exact}"
            );
        }
    }
}
