//! Tests for the WSD operator algorithms, built around the running examples
//! of §4 (Figures 10–15) and validated against a per-world oracle: evaluating
//! the plain relational-algebra query in every enumerated world must yield
//! the same distribution over result relations as the WSD-level algorithms.

use super::*;
use crate::component::Component;
use crate::field::FieldId;
use crate::wsd::{example_census_wsd, Wsd};
use ws_relational::{evaluate_set, CmpOp, Predicate, RaExpr, Relation, Value};

/// Build the 7-WSD of Figure 10 (b): relation `R[A,B,C]` with three tuples
/// and eight possible worlds.
pub fn figure10_wsd() -> Wsd {
    let mut wsd = Wsd::new();
    wsd.register_relation("R", &["A", "B", "C"], 3).unwrap();
    wsd.set_uniform(
        FieldId::new("R", 0, "A"),
        vec![Value::int(1), Value::int(2)],
    )
    .unwrap();
    let mut c2 = Component::new(vec![
        FieldId::new("R", 0, "B"),
        FieldId::new("R", 0, "C"),
        FieldId::new("R", 1, "B"),
    ]);
    c2.push_row(vec![Value::int(1), Value::int(0), Value::int(3)], 0.5)
        .unwrap();
    c2.push_row(vec![Value::int(2), Value::int(7), Value::int(4)], 0.5)
        .unwrap();
    wsd.add_component(c2).unwrap();
    wsd.set_uniform(
        FieldId::new("R", 1, "A"),
        vec![Value::int(4), Value::int(5)],
    )
    .unwrap();
    wsd.set_certain(FieldId::new("R", 1, "C"), Value::int(0))
        .unwrap();
    wsd.set_certain(FieldId::new("R", 2, "A"), Value::int(6))
        .unwrap();
    wsd.set_certain(FieldId::new("R", 2, "B"), Value::int(6))
        .unwrap();
    wsd.set_certain(FieldId::new("R", 2, "C"), Value::int(7))
        .unwrap();
    wsd.validate().unwrap();
    wsd
}

/// Build a small two-relation WSD in the spirit of Figure 14 (a).
fn figure14_wsd() -> Wsd {
    let mut wsd = Wsd::new();
    wsd.register_relation("R", &["A", "B"], 2).unwrap();
    wsd.register_relation("S", &["C", "D"], 2).unwrap();
    wsd.set_uniform(
        FieldId::new("R", 0, "A"),
        vec![Value::int(1), Value::int(2)],
    )
    .unwrap();
    let mut c = Component::new(vec![FieldId::new("R", 0, "B"), FieldId::new("R", 1, "A")]);
    c.push_row(vec![Value::int(3), Value::int(5)], 0.5).unwrap();
    c.push_row(vec![Value::int(4), Value::int(6)], 0.5).unwrap();
    wsd.add_component(c).unwrap();
    wsd.set_uniform(
        FieldId::new("R", 1, "B"),
        vec![Value::int(7), Value::int(8)],
    )
    .unwrap();
    wsd.set_uniform(
        FieldId::new("S", 0, "C"),
        vec![Value::text("a"), Value::text("b")],
    )
    .unwrap();
    let mut c = Component::new(vec![FieldId::new("S", 0, "D"), FieldId::new("S", 1, "C")]);
    c.push_row(vec![Value::text("c"), Value::text("e")], 0.5)
        .unwrap();
    c.push_row(vec![Value::text("d"), Value::text("f")], 0.5)
        .unwrap();
    wsd.add_component(c).unwrap();
    wsd.set_uniform(
        FieldId::new("S", 1, "D"),
        vec![Value::text("g"), Value::text("h")],
    )
    .unwrap();
    wsd.validate().unwrap();
    wsd
}

/// The distribution over result relations obtained by evaluating the query in
/// every world of the input WSD (the semantic ground truth).
fn oracle_distribution(input: &Wsd, query: &RaExpr) -> Vec<(Relation, f64)> {
    let mut out: Vec<(Relation, f64)> = Vec::new();
    for (db, p) in input.enumerate_worlds(100_000).unwrap() {
        let rel = evaluate_set(&db, query).unwrap();
        match out.iter_mut().find(|(r, _)| r.set_eq(&rel)) {
            Some((_, q)) => *q += p,
            None => out.push((rel, p)),
        }
    }
    out
}

/// Compare two distributions over relations (set semantics, ε-tolerant).
fn same_distribution(a: &[(Relation, f64)], b: &[(Relation, f64)]) -> bool {
    if a.len() != b.len() {
        return false;
    }
    a.iter().all(|(ra, pa)| {
        b.iter()
            .find(|(rb, _)| ra.set_eq(rb))
            .is_some_and(|(_, pb)| (pa - pb).abs() < 1e-9)
    })
}

/// Evaluate `query` both ways and assert the distributions agree.
fn assert_matches_oracle(wsd: &Wsd, query: &RaExpr) {
    let oracle = oracle_distribution(wsd, query);
    let mut evaluated = wsd.clone();
    ws_relational::engine::evaluate_query(&mut evaluated, query, "OUT").unwrap();
    evaluated.validate().unwrap();
    let ours = evaluated.rep_relation("OUT", 1_000_000).unwrap();
    assert!(
        same_distribution(&oracle, &ours),
        "WSD evaluation of {query} disagrees with the per-world oracle:\noracle={oracle:?}\nours={ours:?}"
    );
}

#[test]
fn figure10_has_eight_worlds() {
    let wsd = figure10_wsd();
    assert_eq!(wsd.world_count(), 8);
    assert_eq!(wsd.component_count(), 7);
    let worlds = wsd.enumerate_worlds(100).unwrap();
    assert_eq!(worlds.len(), 8);
    assert!(worlds
        .iter()
        .all(|(db, _)| db.relation("R").unwrap().len() == 3));
}

#[test]
fn copy_is_a_faithful_copy() {
    let mut wsd = figure10_wsd();
    copy(&mut wsd, "R", "P").unwrap();
    wsd.validate().unwrap();
    for (db, _) in wsd.enumerate_worlds(100).unwrap() {
        assert!(db.relation("R").unwrap().set_eq(db.relation("P").unwrap()));
    }
    // Copying onto an existing name fails.
    assert!(copy(&mut wsd, "R", "P").is_err());
}

#[test]
fn selection_with_constant_matches_oracle_fig11a() {
    // σ_{C=7}(R), Figure 11 (a).
    let wsd = figure10_wsd();
    let q = RaExpr::rel("R").select(Predicate::eq_const("C", 7i64));
    assert_matches_oracle(&wsd, &q);
}

#[test]
fn selection_with_constant_matches_oracle_fig11b() {
    // σ_{B=1}(R), Figure 11 (b).
    let wsd = figure10_wsd();
    let q = RaExpr::rel("R").select(Predicate::eq_const("B", 1i64));
    assert_matches_oracle(&wsd, &q);
}

#[test]
fn selection_with_constant_produces_worlds_of_different_sizes() {
    let mut wsd = figure10_wsd();
    select_const(&mut wsd, "R", "P", "C", CmpOp::Eq, &Value::int(7)).unwrap();
    let sizes: std::collections::BTreeSet<usize> = wsd
        .enumerate_worlds(100)
        .unwrap()
        .into_iter()
        .map(|(db, _)| db.relation("P").unwrap().len())
        .collect();
    // Worlds where t1.C = 0 keep only t3; worlds where t1.C = 7 keep t1 and t3.
    assert_eq!(sizes, [1usize, 2].into_iter().collect());
}

#[test]
fn join_selection_matches_oracle_fig13() {
    // σ_{A=B}(R), Figure 13: five distinct result worlds.
    let wsd = figure10_wsd();
    let q = RaExpr::rel("R").select(Predicate::cmp_attr("A", CmpOp::Eq, "B"));
    assert_matches_oracle(&wsd, &q);
    let oracle = oracle_distribution(&wsd, &q);
    assert_eq!(oracle.len(), 5);
}

#[test]
fn join_selection_composes_components() {
    let mut wsd = figure10_wsd();
    let before = wsd.component_count();
    select_attr(&mut wsd, "R", "P", "A", CmpOp::Eq, "B").unwrap();
    // t1.A and t1.B lived in different components; they are now composed.
    let slot_a = wsd.slot_of(&FieldId::new("P", 0, "A")).unwrap();
    let slot_b = wsd.slot_of(&FieldId::new("P", 0, "B")).unwrap();
    assert_eq!(slot_a, slot_b);
    assert!(wsd.component_count() <= before + 3 * 3);
    wsd.validate().unwrap();
}

#[test]
fn inequality_selections_match_oracle() {
    let wsd = figure10_wsd();
    for op in [CmpOp::Ne, CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge] {
        let q = RaExpr::rel("R").select(Predicate::cmp_const("A", op, 4i64));
        assert_matches_oracle(&wsd, &q);
        let q = RaExpr::rel("R").select(Predicate::AttrAttr {
            left: "A".into(),
            op,
            right: "C".into(),
        });
        assert_matches_oracle(&wsd, &q);
    }
}

#[test]
fn product_matches_oracle_fig14() {
    let wsd = figure14_wsd();
    let q = RaExpr::rel("R").product(RaExpr::rel("S"));
    assert_matches_oracle(&wsd, &q);
}

#[test]
fn product_rejects_overlapping_schemas() {
    let mut wsd = figure10_wsd();
    copy(&mut wsd, "R", "R2").unwrap();
    assert!(product(&mut wsd, "R", "R2", "T").is_err());
}

#[test]
fn union_matches_oracle() {
    let wsd = figure10_wsd();
    let q = RaExpr::rel("R")
        .select(Predicate::eq_const("A", 1i64))
        .union(RaExpr::rel("R").select(Predicate::eq_const("B", 2i64)));
    assert_matches_oracle(&wsd, &q);
}

#[test]
fn union_requires_identical_schemas() {
    let mut wsd = figure14_wsd();
    assert!(union(&mut wsd, "R", "S", "T").is_err());
}

#[test]
fn projection_matches_oracle_after_selection() {
    // π_A(σ_{C=7}(R)) — exercises the ⊥ propagation of Figure 15.
    let wsd = figure10_wsd();
    let q = RaExpr::rel("R")
        .select(Predicate::eq_const("C", 7i64))
        .project(vec!["A"]);
    assert_matches_oracle(&wsd, &q);
}

#[test]
fn projection_of_plain_relation_matches_oracle() {
    let wsd = figure10_wsd();
    let q = RaExpr::rel("R").project(vec!["B", "A"]);
    assert_matches_oracle(&wsd, &q);
    // Result schema keeps the projection order.
    let mut evaluated = wsd.clone();
    ws_relational::engine::evaluate_query(&mut evaluated, &q, "OUT").unwrap();
    let attrs: Vec<String> = evaluated
        .meta("OUT")
        .unwrap()
        .attrs
        .iter()
        .map(|a| a.to_string())
        .collect();
    assert_eq!(attrs, vec!["B".to_string(), "A".to_string()]);
}

#[test]
fn projection_does_not_reintroduce_deleted_tuples() {
    // The Figure 15 scenario: a world-set where exactly one of two tuples is
    // present per world; projecting on A must preserve the "one tuple per
    // world" shape.
    let mut wsd = Wsd::new();
    wsd.register_relation("R", &["A", "B"], 2).unwrap();
    wsd.set_certain(FieldId::new("R", 0, "A"), Value::text("a"))
        .unwrap();
    wsd.set_certain(FieldId::new("R", 1, "A"), Value::text("b"))
        .unwrap();
    let mut c = Component::new(vec![FieldId::new("R", 0, "B"), FieldId::new("R", 1, "B")]);
    c.push_row(vec![Value::text("c"), Value::Bottom], 0.5)
        .unwrap();
    c.push_row(vec![Value::Bottom, Value::text("d")], 0.5)
        .unwrap();
    wsd.add_component(c).unwrap();
    wsd.validate().unwrap();

    let q = RaExpr::rel("R").project(vec!["A"]);
    assert_matches_oracle(&wsd, &q);
    let mut evaluated = wsd.clone();
    ws_relational::engine::evaluate_query(&mut evaluated, &q, "P").unwrap();
    for (db, _) in evaluated.enumerate_worlds(100).unwrap() {
        assert_eq!(db.relation("P").unwrap().len(), 1);
    }
}

#[test]
fn projection_rejects_unknown_attributes() {
    let mut wsd = figure10_wsd();
    assert!(project(&mut wsd, "R", "P", &["Z"]).is_err());
}

#[test]
fn difference_matches_oracle() {
    let wsd = figure10_wsd();
    let q = RaExpr::rel("R").difference(RaExpr::rel("R").select(Predicate::eq_const("B", 1i64)));
    assert_matches_oracle(&wsd, &q);
}

#[test]
fn difference_requires_identical_schemas() {
    let mut wsd = figure14_wsd();
    assert!(difference(&mut wsd, "R", "S", "T").is_err());
}

#[test]
fn rename_matches_oracle_and_changes_schema() {
    let wsd = figure10_wsd();
    let q = RaExpr::rel("R").rename("A", "A2");
    assert_matches_oracle(&wsd, &q);
    let mut evaluated = wsd.clone();
    ws_relational::engine::evaluate_query(&mut evaluated, &q, "OUT").unwrap();
    assert!(evaluated
        .meta("OUT")
        .unwrap()
        .attrs
        .iter()
        .any(|a| a.as_ref() == "A2"));
    // Renaming to an existing attribute or from a missing one fails.
    let mut wsd2 = figure10_wsd();
    assert!(rename(&mut wsd2, "R", "X", "A", "B").is_err());
    assert!(rename(&mut wsd2, "R", "X", "Z", "Z2").is_err());
}

#[test]
fn composite_conjunctive_selection_matches_oracle() {
    let wsd = figure10_wsd();
    let q = RaExpr::rel("R").select(Predicate::and(vec![
        Predicate::cmp_const("A", CmpOp::Ge, 2i64),
        Predicate::eq_const("C", 0i64),
    ]));
    assert_matches_oracle(&wsd, &q);
}

#[test]
fn composite_disjunctive_selection_matches_oracle() {
    let wsd = figure10_wsd();
    let q = RaExpr::rel("R").select(Predicate::or(vec![
        Predicate::eq_const("A", 6i64),
        Predicate::eq_const("B", 1i64),
    ]));
    assert_matches_oracle(&wsd, &q);
}

#[test]
fn negated_selection_matches_oracle() {
    let wsd = figure10_wsd();
    let q = RaExpr::rel("R").select(Predicate::not(Predicate::and(vec![
        Predicate::eq_const("C", 0i64),
        Predicate::cmp_const("A", CmpOp::Lt, 6i64),
    ])));
    assert_matches_oracle(&wsd, &q);
}

#[test]
fn join_of_two_relations_matches_oracle() {
    let wsd = figure14_wsd();
    // R ⋈_{R.B < S.D is not type-compatible}; join on equality of A with a
    // constant-laden S attribute is not meaningful here, so join on the
    // product plus a selection over R's own attributes instead.
    let q = RaExpr::rel("R")
        .product(RaExpr::rel("S"))
        .select(Predicate::eq_const("A", 1i64));
    assert_matches_oracle(&wsd, &q);
}

#[test]
fn query_over_the_census_example_matches_oracle() {
    // π_S(σ_{M=1}(R)) over the running census example of the introduction.
    let wsd = example_census_wsd();
    let q = RaExpr::rel("R")
        .select(Predicate::eq_const("M", 1i64))
        .project(vec!["S"]);
    assert_matches_oracle(&wsd, &q);
}

#[test]
fn evaluate_query_reports_unknown_relations() {
    let mut wsd = figure10_wsd();
    let q = RaExpr::rel("NOPE");
    assert!(ws_relational::engine::evaluate_query(&mut wsd, &q, "OUT").is_err());
}
