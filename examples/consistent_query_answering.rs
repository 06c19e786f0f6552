//! Consistent query answering over an inconsistent database (§10).
//!
//! An HR feed violates the key `EMP → DEPT, SALARY`.  Instead of picking one
//! repair arbitrarily, the minimal repairs are materialized as a world-set
//! decomposition: certain data stays in one-row components, each conflict
//! cluster becomes one component whose local worlds are the possible
//! resolutions.  Queries — built with the fluent `maybms::q` builder — can
//! then report
//!
//! * the *consistent* answers (true in every repair),
//! * the *possible* answers (true in some repair), and
//! * per-answer support — the fraction of repairs backing it,
//!
//! and the repair world-set remains available for further cleaning: a
//! late-arriving constraint is chased to discard repairs instead of starting
//! over, and a `maybms::Session` keeps answering from the cleaned set.
//!
//! Run with: `cargo run -p maybms --example consistent_query_answering`

use maybms::prelude::*;
use maybms::{q, Session};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // ------------------------------------------------------------------
    // The dirty HR relation: alice and bob have conflicting records.
    // ------------------------------------------------------------------
    let mut emp = Relation::new(Schema::new("Emp", &["EMP", "DEPT", "SALARY"])?);
    for (name, dept, salary) in [
        ("alice", "sales", 1200i64),
        ("alice", "eng", 1200),
        ("bob", "eng", 2000),
        ("bob", "eng", 3000),
        ("carol", "hr", 1500),
        ("dave", "eng", 2600),
    ] {
        emp.push_values([Value::text(name), Value::text(dept), Value::int(salary)])?;
    }

    let (repairs, report) = repair_key_violations(&emp, &["EMP"])?;
    println!(
        "built the repair world-set: {} clean tuples, {} conflict clusters, {} repairs",
        report.clean_tuples, report.conflict_clusters, report.repair_count
    );

    // ------------------------------------------------------------------
    // Who works in engineering?
    // ------------------------------------------------------------------
    let eng = q("Emp")
        .select(Predicate::eq_const("DEPT", "eng"))
        .project(["EMP"]);
    let certain = consistent_answers(&repairs, &eng)?;
    let possible = possible_answers(&repairs, &eng)?;
    println!("\nengineers in every repair (consistent answers):");
    for t in certain.rows() {
        println!("  {t}");
    }
    println!("engineers in some repair (possible answers):");
    for t in possible.rows() {
        println!("  {t}");
    }
    println!("per-answer support:");
    for (t, support) in maybms::apps::repairs::answers_with_support(&repairs, &eng)? {
        println!("  {t}  {:.0}% of repairs", support * 100.0);
    }

    // ------------------------------------------------------------------
    // A late constraint: salaries in engineering are at least 2500.
    // Chase it on the repair world-set to discard repairs, then re-ask
    // through a session on the cleaned set.
    // ------------------------------------------------------------------
    let constraint = Dependency::Egd(EqualityGeneratingDependency::implies(
        "Emp",
        "DEPT",
        "eng",
        "SALARY",
        CmpOp::Ge,
        2500i64,
    ));
    let mut cleaned = repairs.clone();
    let surviving = chase(&mut cleaned, std::slice::from_ref(&constraint))?;
    println!(
        "\nafter chasing \"eng salaries ≥ 2500\": {:.0}% of the repairs survive",
        surviving * 100.0
    );
    let mut session = Session::new(cleaned);
    let salaries = session.prepare(
        q("Emp")
            .select(Predicate::eq_const("EMP", "bob"))
            .project(["SALARY"]),
    )?;
    println!("bob's possible salaries afterwards:");
    for (t, support) in session.confidence(&salaries)? {
        println!("  {t}  {:.0}%", support * 100.0);
    }

    // ------------------------------------------------------------------
    // The same machinery drives the medical scenario of §10.
    // ------------------------------------------------------------------
    let scenario = MedicalScenario::demo();
    let patients = vec![
        PatientRecord::with_candidates(1, ["flu", "migraine"]),
        PatientRecord::unknown(2).observed("amlodipine"),
    ];
    let medical = scenario.build_wsd(&patients)?;
    println!("\npossible diagnoses of patient 2 (observed medication: amlodipine):");
    for (diagnosis, p) in maybms::apps::medical::possible_diagnoses(&medical, 2)? {
        println!("  {diagnosis}  p = {p:.2}");
    }

    Ok(())
}
