//! Lineage extraction: map each possible-worlds representation onto the
//! finite-domain variables of [`ws_relational::lineage`], so
//! [`crate::Session::confidence`]'s compiled tier can shadow-evaluate a
//! prepared plan and compile each answer's lineage to a d-tree — the one
//! lineage tier, in front of the backend's native exact path.
//!
//! Every extractor answers `Option<LineageDb>`:
//!
//! * `Some(db)` — a **faithful** translation: for every base relation the
//!   plan reads, the annotated rows and their clauses describe exactly the
//!   same distribution over worlds as the backend itself.  Compiled
//!   confidences computed from it are exact.
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
//!
//! Extraction is a per-snapshot cost, not a per-call one: the session keeps
//! each extracted [`LineageDb`] (and each decline) keyed by the relation set
//! until the backend changes, so an extractor runs once per relation set and
//! backend state.  The UWSDT extractor, the one the census workload takes,
//! costs O(template rows + placeholders): it indexes the uncertain tuples
//! once from `F` and the presence conditions and copies every other template
//! row as it is, instead of probing `F` for every template cell.

use std::collections::{BTreeMap, BTreeSet};

use ws_core::{FieldId, WorldSet, Wsd};
use ws_relational::lineage::{Clause, LineageDb, LineageRelation, Var, VarTable};
use ws_relational::{Database, Relation, Tuple, Value};
use ws_urel::convert::{combo_count, decode_choice};
use ws_urel::UDatabase;
use ws_uwsdt::{PresenceCondition, Uwsdt};

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
///
/// The uncertain tuples are indexed once from `F` and the presence
/// conditions, so the cost is O(template rows + placeholders): a tuple with
/// neither is pushed as it is under the empty clause after a scan for a stray
/// `?`/`⊥` (a placeholder without an `F` entry), which declines.
pub fn uwsdt_lineage(uwsdt: &Uwsdt, relations: &BTreeSet<String>) -> Option<LineageDb> {
    let mut vars = VarTable::new();
    let mut cid_vars: BTreeMap<usize, Var> = BTreeMap::new();
    let mut annotated = Vec::new();
    for name in relations {
        let template = uwsdt.template(name).ok()?;
        let mut uncertain = uncertain_tuples(uwsdt, name, template)?
            .into_iter()
            .peekable();
        let mut rel = LineageRelation::new(template.schema().clone());
        for (t, row) in template.rows().iter().enumerate() {
            match uncertain.next_if(|(u, _)| *u == t) {
                Some((_, deps)) => {
                    push_variants(uwsdt, row, &deps, &mut vars, &mut cid_vars, &mut rel)?
                }
                None => {
                    // A `?` here is a placeholder without an `F` entry; it
                    // (or a `⊥`) would leak a marker into the answer, so
                    // decline rather than guess.
                    if row.values().iter().any(|v| v.is_unknown() || v.is_bottom()) {
                        return None;
                    }
                    rel.push(row.clone(), Clause::empty()).ok()?;
                }
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

/// What one uncertain template tuple depends on: its placeholder fields
/// (attribute position, field, component) and its presence conditions.
#[derive(Default)]
struct TupleDeps<'u> {
    placeholders: Vec<(usize, FieldId, usize)>,
    presence: Vec<&'u PresenceCondition>,
}

/// The tuples of `name` that have a placeholder or a presence condition,
/// keyed by tuple index.  Entries outside the template never match a row.
fn uncertain_tuples<'u>(
    uwsdt: &'u Uwsdt,
    name: &str,
    template: &Relation,
) -> Option<BTreeMap<usize, TupleDeps<'u>>> {
    let mut deps: BTreeMap<usize, TupleDeps<'u>> = BTreeMap::new();
    for field in uwsdt.placeholders_of(name) {
        let Some(attr_idx) = template.schema().position(&field.attr) else {
            continue;
        };
        let cid = uwsdt.component_of(&field)?;
        deps.entry(field.tuple.0)
            .or_default()
            .placeholders
            .push((attr_idx, field, cid));
    }
    for (relation, t, condition) in uwsdt.all_presence() {
        if relation == name {
            deps.entry(t).or_default().presence.push(condition);
        }
    }
    Some(deps)
}

/// Push the variants of one uncertain tuple: one row per joint local-world
/// choice of its components that satisfies its presence conditions, with
/// the placeholders filled in.  `None` declines the whole extraction.
fn push_variants(
    uwsdt: &Uwsdt,
    row: &Tuple,
    deps: &TupleDeps<'_>,
    vars: &mut VarTable,
    cid_vars: &mut BTreeMap<usize, Var>,
    rel: &mut LineageRelation,
) -> Option<()> {
    let cids: BTreeSet<usize> = deps
        .placeholders
        .iter()
        .map(|&(_, _, cid)| cid)
        .chain(deps.presence.iter().map(|cond| cond.cid))
        .collect();
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
        // The tuple exists only in local worlds its presence conditions
        // list.
        let present = deps.presence.iter().all(|cond| {
            cid_pos
                .get(&cond.cid)
                .is_some_and(|&i| cond.lwids.contains(&worlds[i][choice[i]].lwid))
        });
        if !present {
            continue;
        }
        let mut values: Vec<Value> = row.values().to_vec();
        for (attr_idx, field, cid) in &deps.placeholders {
            let i = cid_pos[cid];
            let lwid = worlds[i][choice[i]].lwid;
            // Every local world of a placeholder's component carries a
            // value; a gap means the mapping cannot be trusted.
            values[*attr_idx] = uwsdt
                .placeholder_values(field)
                .and_then(|m| m.get(&lwid))?
                .clone();
        }
        // A leftover `?` (or `⊥`) would leak a marker into the answer;
        // decline rather than guess.
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
    Some(())
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

    /// The shape the benchmark serves: a chased census UWSDT, mostly certain
    /// template rows plus a few hundred uncertain tuples.  The extraction
    /// must succeed and answer Q1–Q6 through the compiled tier with the
    /// numbers of the UWSDT's own exact enumeration.
    #[test]
    fn uwsdt_extraction_is_faithful_on_the_chased_census() {
        let uwsdt = ws_census::CensusScenario::new(2_000, 0.001, 0x5EED)
            .chased_uwsdt()
            .unwrap();
        let relations = relset(&[ws_census::RELATION_NAME]);
        assert!(uwsdt_lineage(&uwsdt, &relations).is_some());
        for (label, query) in ws_census::all_queries() {
            let mut tiered = crate::Session::new(uwsdt.clone());
            let prepared = tiered.prepare(query.clone()).unwrap();
            let got = tiered.confidence(&prepared).unwrap();
            let stats = tiered.stats();
            assert_eq!(stats.conf_exact, 0, "{label} left the compiled tier");
            let mut exact = crate::Session::new(uwsdt.clone());
            exact.set_confidence_strategy(crate::ConfidenceStrategy::ExactOnly);
            let prepared = exact.prepare(query).unwrap();
            let want = exact.confidence(&prepared).unwrap();
            assert_eq!(got.len(), want.len(), "{label}: possible tuples differ");
            for ((tg, cg), (tw, cw)) in got.iter().zip(&want) {
                assert_eq!(tg, tw, "{label}: tuple order differs");
                assert!(
                    (cg - cw).abs() < 1e-12,
                    "{label}: conf({tg}) = {cg}, exact {cw}"
                );
            }
        }
    }

    /// A `?` template cell without an `F` entry has no values to fill in:
    /// the extractor declines, on a certain tuple and on an uncertain one.
    #[test]
    fn uwsdt_placeholder_without_f_entry_declines() {
        let schema = ws_relational::Schema::new("R", &["A", "B"]).unwrap();
        let relations = relset(&["R"]);
        // A tuple with no registered placeholder.
        let mut stray = ws_relational::Relation::new(schema.clone());
        stray.push_values([1i64, 2]).unwrap();
        stray
            .push(Tuple::new(vec![Value::int(3), Value::Unknown]))
            .unwrap();
        let mut uwsdt = Uwsdt::new();
        uwsdt.add_template(stray).unwrap();
        assert!(uwsdt_lineage(&uwsdt, &relations).is_none());
        // A tuple whose other placeholder is registered.
        let mut half = ws_relational::Relation::new(schema);
        half.push(Tuple::new(vec![Value::Unknown, Value::Unknown]))
            .unwrap();
        let mut uwsdt = Uwsdt::new();
        uwsdt.add_template(half).unwrap();
        uwsdt
            .add_placeholder(
                FieldId::new("R", 0, "A"),
                vec![(Value::int(1), 0.5), (Value::int(2), 0.5)],
            )
            .unwrap();
        assert!(uwsdt_lineage(&uwsdt, &relations).is_none());
        // Registering the second placeholder makes the mapping faithful.
        uwsdt
            .add_placeholder(FieldId::new("R", 0, "B"), vec![(Value::int(7), 1.0)])
            .unwrap();
        let lin = uwsdt_lineage(&uwsdt, &relations).unwrap();
        assert_eq!(lineage_conf(&lin, "R", &Tuple::from_iter([1i64, 7])), 0.5);
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
