//! `bench_e2e` — the repository's benchmark.
//!
//! One run of one workload (`--workload NAME --seed N --seconds S --trace
//! 0|1`) builds the census data from the seed, drives the workload in a
//! closed loop, checks every answer, and prints each metric by name with its
//! unit, ending with the one-line JSON result the root `BENCHMARK.json`
//! contract asks for.  Without `--workload` it runs every workload in a
//! fresh process each (`--repeat N` for N such sets) and summarises.
//! README.md beside this package explains the workloads and the metrics.

mod check;
mod layers;
mod ops;
mod replay;
mod setup;
mod stats;
mod trace;
mod workload;

use std::collections::BTreeMap;
use std::process::{Command, ExitCode};

use ws_bench::json::Json;

use setup::Workload;
use workload::{Outcome, Shape};

/// The contract this binary is built against, compiled in: the declared
/// metric names, units and bounds have one source.
const BENCHMARK_JSON: &str = include_str!("../../../../../../BENCHMARK.json");

const DEFAULT_SEED: u64 = 1;

#[derive(Clone, Debug, PartialEq)]
struct MetricSpec {
    name: String,
    unit: String,
    higher_is_better: bool,
    /// Share of the median by which the metric may worsen; per-layer
    /// metrics have none.
    bound: Option<f64>,
}

#[derive(Clone, Debug)]
struct Spec {
    run_seconds: u64,
    workloads: Vec<String>,
    end_to_end: Vec<MetricSpec>,
    per_layer: Vec<MetricSpec>,
}

fn parse_spec(text: &str) -> Result<Spec, String> {
    let doc = Json::parse(text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let list = |key: &str| {
        doc.get(key)
            .and_then(Json::as_array)
            .ok_or_else(|| format!("BENCHMARK.json: no array `{key}`"))
    };
    let text_of = |item: &Json, key: &str| {
        item.get(key)
            .and_then(Json::as_str)
            .map(str::to_string)
            .ok_or_else(|| format!("BENCHMARK.json: an entry lacks `{key}`"))
    };
    let metrics = |key: &str| -> Result<Vec<MetricSpec>, String> {
        list(key)?
            .iter()
            .map(|item| {
                Ok(MetricSpec {
                    name: text_of(item, "name")?,
                    unit: text_of(item, "unit")?,
                    higher_is_better: text_of(item, "better")? == "higher",
                    bound: item.get("bound").and_then(Json::as_f64),
                })
            })
            .collect()
    };
    Ok(Spec {
        run_seconds: doc
            .get("run_seconds")
            .and_then(Json::as_f64)
            .ok_or("BENCHMARK.json: no `run_seconds`")? as u64,
        workloads: list("workloads")?
            .iter()
            .map(|w| text_of(w, "name"))
            .collect::<Result<_, _>>()?,
        end_to_end: metrics("end_to_end")?,
        per_layer: metrics("per_layer")?,
    })
}

#[derive(Clone, Debug, PartialEq)]
struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: Option<u64>,
    trace: bool,
    repeat: usize,
}

const USAGE: &str =
    "usage: bench_e2e [--workload NAME] [--seed U64] [--seconds N] [--trace 0|1] [--repeat N]";

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: None,
        trace: false,
        repeat: 1,
    };
    let mut it = args.iter().peekable();
    while let Some(flag) = it.next() {
        if flag == "--trace" && it.peek().is_none_or(|v| v.starts_with("--")) {
            out.trace = true;
            continue;
        }
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} takes a whole number, got `{value}`"))
        };
        match flag.as_str() {
            "--workload" => {
                let known = Workload::parse(value).ok_or_else(|| {
                    let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload `{value}`; one of {}", names.join(", "))
                })?;
                out.workload = Some(known);
            }
            "--seed" => out.seed = number()?,
            "--seconds" => out.seconds = Some(number()?.max(1)),
            "--trace" => out.trace = number()? != 0,
            "--repeat" => out.repeat = number()?.max(1) as usize,
            _ => return Err(format!("unknown argument `{flag}`\n{USAGE}")),
        }
    }
    Ok(out)
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// The declared metrics of this run, in declaration order; an undeclared
/// value is dropped, a declared one the harness did not produce is an error.
fn declared<'a>(
    specs: &'a [MetricSpec],
    outcome: &Outcome,
) -> Result<Vec<(&'a MetricSpec, f64)>, String> {
    specs
        .iter()
        .map(|spec| {
            outcome
                .metrics
                .get(&spec.name)
                .map(|v| (spec, *v))
                .ok_or_else(|| {
                    format!(
                        "the harness produced no value for declared metric `{}`",
                        spec.name
                    )
                })
        })
        .collect()
}

/// The one-line result the contract asks for.
fn result_line(outcome: &Outcome, metrics: &[(&MetricSpec, f64)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(spec, v)| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                spec.name,
                json_number(*v),
                spec.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.failed == 0,
        outcome.attempted,
        outcome.failed,
        body.join(", ")
    )
}

fn run_one(spec: &Spec, workload: Workload, args: &Args) -> Result<(), String> {
    let seconds = args.seconds.unwrap_or(spec.run_seconds);
    println!(
        "# bench_e2e {} seed={} window={}s trace={} | {} tuples x {} attributes, density {}, {} | \
         closed loop, {} caller(s), {} hardware threads | medium: directory, {}",
        workload.name(),
        args.seed,
        seconds,
        u8::from(args.trace),
        setup::TUPLES,
        ws_census::ATTRIBUTE_COUNT,
        setup::DENSITY,
        if workload == Workload::EmbeddedOneworld {
            "one world"
        } else {
            "chased UWSDT"
        },
        workload.callers(),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        if workload.served() {
            format!("{:?}", setup::POLICY)
        } else {
            "session default (EveryRecord)".to_string()
        },
    );
    let outcome = workload::run(
        workload,
        args.seed,
        &Shape::standard(workload, seconds, args.trace),
    )?;
    for note in &outcome.notes {
        println!("{note}");
    }
    let specs = if args.trace {
        &spec.per_layer
    } else {
        &spec.end_to_end
    };
    let metrics = declared(specs, &outcome)?;
    for (m, v) in &metrics {
        println!("{:<34} {:>16.4} {}", m.name, v, m.unit);
    }
    println!(
        "{:<34} {:>16.6} ratio ({} failed of {} attempted)",
        "fail_ratio",
        outcome.failed as f64 / outcome.attempted.max(1) as f64,
        outcome.failed,
        outcome.attempted
    );
    if !outcome.errors.is_empty() {
        return Err(format!("harness error: {}", outcome.errors.join("; ")));
    }
    println!("{}", result_line(&outcome, &metrics));
    Ok(())
}

/// The parsed result line of a child run.
struct ChildResult {
    attempted: f64,
    failed: f64,
    metrics: BTreeMap<String, f64>,
}

fn run_child(workload: Workload, args: &Args, trace: bool) -> Result<ChildResult, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args([
        "--workload",
        workload.name(),
        "--seed",
        &args.seed.to_string(),
    ]);
    cmd.args(["--trace", if trace { "1" } else { "0" }]);
    if let Some(seconds) = args.seconds {
        cmd.args(["--seconds", &seconds.to_string()]);
    }
    // `output` waits for the child to end.
    let out = cmd
        .output()
        .map_err(|e| format!("starting {}: {e}", workload.name()))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    if !out.status.success() {
        return Err(format!(
            "{} exited with {}:\n{}{}",
            workload.name(),
            out.status,
            stdout,
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    let mut lines: Vec<&str> = stdout.lines().collect();
    let last = lines.pop().ok_or("the child printed nothing")?;
    if trace {
        // The attribution table is the point of a traced run: pass it on.
        lines
            .iter()
            .filter(|l| l.starts_with(' ') || l.starts_with("attribution"))
            .for_each(|l| println!("{l}"));
    }
    let doc = Json::parse(last).map_err(|e| format!("{}: result line: {e}", workload.name()))?;
    let number = |key: &str| {
        doc.get(key)
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("result line lacks `{key}`"))
    };
    let metrics = match doc.get("metrics") {
        Some(Json::Object(fields)) => fields
            .iter()
            .filter_map(|(name, m)| Some((name.clone(), m.get("value")?.as_f64()?)))
            .collect(),
        _ => return Err("result line lacks `metrics`".to_string()),
    };
    Ok(ChildResult {
        attempted: number("attempted")?,
        failed: number("failed")?,
        metrics,
    })
}

/// Every workload, one fresh process each (so `rss_peak_mb` is per
/// workload), `repeat` times over, alternating the order between sets.
fn run_sets(spec: &Spec, args: &Args) -> Result<bool, String> {
    // (workload, metric) -> one value per set.
    let mut values: BTreeMap<(&str, String), Vec<f64>> = BTreeMap::new();
    let mut layer: BTreeMap<(&str, String), f64> = BTreeMap::new();
    let mut attempted = 0.0;
    let mut failed = 0.0;
    for set in 0..args.repeat {
        let mut order = Workload::ALL.to_vec();
        if set % 2 == 1 {
            order.reverse();
        }
        for workload in order {
            eprintln!("set {} of {}: {}", set + 1, args.repeat, workload.name());
            let plain = run_child(workload, args, false)?;
            attempted += plain.attempted;
            failed += plain.failed;
            for (name, v) in plain.metrics {
                values.entry((workload.name(), name)).or_default().push(v);
            }
            if args.trace {
                println!("## {} (traced)", workload.name());
                let traced = run_child(workload, args, true)?;
                attempted += traced.attempted;
                failed += traced.failed;
                for (name, v) in traced.metrics {
                    layer.insert((workload.name(), name), v);
                }
            }
        }
    }

    let mut agree = true;
    for workload in Workload::ALL {
        println!("## {}", workload.name());
        for m in &spec.end_to_end {
            let v = &values[&(workload.name(), m.name.clone())];
            let med = stats::median(v);
            let mut line = format!("{:<34} {:>16.4} {}", m.name, med, m.unit);
            if let Some((q1, q3)) = stats::quartiles(v) {
                let lo = v.iter().copied().fold(f64::INFINITY, f64::min);
                let hi = v.iter().copied().fold(f64::NEG_INFINITY, f64::max);
                let disagreement = (hi - lo) / med.abs();
                let bound = m.bound.unwrap_or(f64::INFINITY);
                line += &format!(
                    "  q1 {q1:.4} q3 {q3:.4} spread {:.1} %  sets differ by {:.1} % (bound {:.0} %)",
                    stats::spread(v).unwrap_or(0.0) * 100.0,
                    disagreement * 100.0,
                    bound * 100.0
                );
                if disagreement > bound {
                    line += "  <-- DISAGREE";
                    agree = false;
                }
            }
            println!("{line}");
        }
        for m in &spec.per_layer {
            if let Some(v) = layer.get(&(workload.name(), m.name.clone())) {
                println!("{:<34} {:>16.4} {}", m.name, v, m.unit);
            }
        }
    }
    // Fig. 30: what querying the UWSDT costs relative to one world.
    let execute_p50 = |w: Workload| {
        layer
            .get(&(w.name(), "client.execute.p50_ms".to_string()))
            .copied()
    };
    match (execute_p50(Workload::EmbeddedUwsdt), execute_p50(Workload::EmbeddedOneworld)) {
        (Some(uwsdt), Some(one)) if one > 0.0 => println!(
            "fig30.uwsdt_over_oneworld          {:>16.4} ratio (execute p50 {uwsdt:.4} ms / {one:.4} ms)",
            uwsdt / one
        ),
        _ => println!("fig30.uwsdt_over_oneworld: run with --trace 1 (it needs client.execute.p50_ms of both embedded workloads)"),
    }
    println!(
        "{{\"benchmark\": \"bench_e2e\", \"seed\": {}, \"sets\": {}, \"attempted\": {}, \"failed\": {}, \
         \"fail_ratio\": {}, \"sets_agree\": {}, \"claim\": null}}",
        args.seed,
        args.repeat,
        attempted,
        failed,
        json_number(failed / attempted.max(1.0)),
        agree
    );
    Ok(agree && failed == 0.0)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let done = parse_spec(BENCHMARK_JSON).and_then(|spec| {
        if !spec
            .workloads
            .iter()
            .map(String::as_str)
            .eq(Workload::ALL.iter().map(|w| w.name()))
        {
            return Err(format!(
                "BENCHMARK.json declares workloads {:?}, this binary runs others",
                spec.workloads
            ));
        }
        let args = parse_args(&argv)?;
        match args.workload {
            Some(workload) => run_one(&spec, workload, &args).map(|()| true),
            None => run_sets(&spec, &args),
        }
    });
    match done {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(2),
        Err(e) => {
            eprintln!("bench_e2e: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn the_drivers_command_line_parses() {
        let args = parse_args(&strings(&[
            "--workload",
            "served_mixed",
            "--seed",
            "42",
            "--seconds",
            "15",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!(args.workload, Some(Workload::ServedMixed));
        assert_eq!((args.seed, args.seconds, args.trace), (42, Some(15), true));
        assert!(!parse_args(&strings(&["--trace", "0"])).unwrap().trace);
        assert!(
            parse_args(&strings(&["--trace", "--repeat", "2"]))
                .unwrap()
                .trace
        );
        assert!(parse_args(&strings(&["--workload", "nope"])).is_err());
        assert!(parse_args(&strings(&["--seed"])).is_err());
    }

    #[test]
    fn the_contract_names_the_workloads_and_well_formed_metrics() {
        let spec = parse_spec(BENCHMARK_JSON).unwrap();
        let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(spec.workloads, names);
        let all: Vec<&MetricSpec> = spec.end_to_end.iter().chain(&spec.per_layer).collect();
        for m in &all {
            assert!(
                !m.name.is_empty()
                    && m.name
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "metric name `{}`",
                m.name
            );
            assert_eq!(
                all.iter().filter(|o| o.name == m.name).count(),
                1,
                "`{}` declared twice",
                m.name
            );
        }
        assert!(spec
            .end_to_end
            .iter()
            .all(|m| m.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
        assert!(spec
            .end_to_end
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && !m.higher_is_better));
        assert!(spec.per_layer.len() <= 128);
    }

    /// A one-second smoke run of each workload, plain and traced: every
    /// declared metric comes out, exactly once, and no answer is wrong.  (A
    /// second is too short for a served p90, which the run reports as a harness
    /// error; the test is about names.)
    #[test]
    fn every_declared_metric_is_emitted_by_every_workload() {
        let spec = parse_spec(BENCHMARK_JSON).unwrap();
        for workload in Workload::ALL {
            for trace in [false, true] {
                let shape = Shape {
                    setup_reps: 1,
                    warmup: Duration::from_millis(200),
                    window: Duration::from_secs(1),
                    recover_reps: 1,
                    trace,
                };
                let outcome = workload::run(workload, 5, &shape).unwrap();
                assert_eq!(
                    outcome.failed,
                    0,
                    "{}: {:?}",
                    workload.name(),
                    outcome.notes
                );
                let specs = if trace {
                    &spec.per_layer
                } else {
                    &spec.end_to_end
                };
                let metrics = declared(specs, &outcome).unwrap();
                let line = result_line(&outcome, &metrics);
                let doc = Json::parse(&line).unwrap();
                let Some(Json::Object(emitted)) = doc.get("metrics") else {
                    panic!("no metrics object in {line}");
                };
                assert_eq!(emitted.len(), specs.len());
                for m in specs {
                    assert_eq!(
                        line.matches(&format!("\"{}\":", m.name)).count(),
                        1,
                        "{}",
                        m.name
                    );
                }
            }
        }
    }
}
