//! Census data cleaning and querying at (scaled-down) scale — the workflow of
//! the paper's evaluation section (§9), driven through `maybms::Session`.
//!
//! Generates a synthetic IPUMS-like census relation, injects or-set noise at
//! a configurable density, loads it into a UWSDT, chases the twelve
//! dependencies of Figure 25, and evaluates the queries Q1–Q6 of Figure 29 on
//! the cleaned representation — one session, six prepared plans — printing
//! the Figure-27-style characteristics of every result.  The single-world
//! baseline runs the same prepared plans on a second session over the clean
//! world.
//!
//! Run with: `cargo run --release --example census_cleaning -p maybms -- [tuples] [density]`
//! (defaults: 20000 tuples, 0.1% density).

use maybms::prelude::*;
use maybms::Session;
use std::time::Instant;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut args = std::env::args().skip(1);
    let tuples: usize = args.next().and_then(|s| s.parse().ok()).unwrap_or(20_000);
    let density: f64 = args.next().and_then(|s| s.parse().ok()).unwrap_or(0.001);

    println!(
        "generating {tuples} census tuples, or-set density {:.3}%",
        density * 100.0
    );
    let scenario = CensusScenario::new(tuples, density, 0xC0FFEE);
    let noise = scenario.noise();
    println!(
        "injected {} or-sets (average size {:.2})",
        noise.len(),
        maybms::census::average_or_set_size(&noise)
    );

    // Load the dirty relation and clean it with the chase.
    let start = Instant::now();
    let mut uwsdt = scenario.dirty_uwsdt()?;
    println!(
        "loaded dirty UWSDT in {:.3}s",
        start.elapsed().as_secs_f64()
    );
    let before = stats_for(&uwsdt, maybms::census::RELATION_NAME)?;

    let start = Instant::now();
    maybms::uwsdt::chase::chase(&mut uwsdt, &maybms::census::census_dependencies())?;
    let chase_time = start.elapsed();
    let after = stats_for(&uwsdt, maybms::census::RELATION_NAME)?;
    println!(
        "chased the 12 dependencies of Fig. 25 in {:.3}s",
        chase_time.as_secs_f64()
    );
    println!(
        "  components: {} -> {} (multi-placeholder: {} -> {}), |C|: {} -> {}",
        before.components,
        after.components,
        before.components_multi,
        after.components_multi,
        before.c_size,
        after.c_size
    );

    // Evaluate Q1–Q6 on the cleaned UWSDT and on the single clean world
    // (one session each, prepared plans).
    let mut baseline = Session::new(scenario.one_world());
    let mut session = Session::new(uwsdt);
    println!(
        "\n{:<4} {:>10} {:>8} {:>9} {:>9} {:>10} {:>12}",
        "query", "rows |R|", "#comp", "#comp>1", "|C|", "uwsdt[s]", "one-world[s]"
    );
    for (label, query) in maybms::census::all_queries() {
        let baseline_plan = baseline.prepare(query.clone())?;
        let prepared = session.prepare(query)?;
        let start = Instant::now();
        let out = session.materialize(&prepared)?;
        let uwsdt_time = start.elapsed();
        let stats = stats_for(session.backend(), &out)?;

        let start = Instant::now();
        baseline.execute(&baseline_plan)?.for_each(drop);
        let baseline_time = start.elapsed();

        println!(
            "{:<4} {:>10} {:>8} {:>9} {:>9} {:>10.3} {:>12.3}",
            label,
            stats.template_rows,
            stats.components,
            stats.components_multi,
            stats.c_size,
            uwsdt_time.as_secs_f64(),
            baseline_time.as_secs_f64()
        );
    }
    println!("\nsession: {}", session.summary());

    println!("\nkey observation (as in the paper): the representation of every query answer");
    println!("stays close to the size of a single world, and UWSDT query time tracks the");
    println!("one-world baseline because almost all work happens on the template relation.");
    Ok(())
}
