//! # ws-bench — benchmark harness for the paper's evaluation section
//!
//! One benchmark target per reproduced evaluation figure (`fig26`–`fig30`),
//! plus three ablations that each assert one ratio bound in-process
//! (compiled confidence tier vs. exact, group commit vs. per-record fsync,
//! observed vs. unobserved session).  The helpers in this library crate are shared by the
//! individual `benches/*.rs` harnesses: size sweeps, timing utilities and
//! table printing.  The repository's end-to-end benchmark, `bench_e2e`
//! (declared in `BENCHMARK.json`), is a separate package under `src/bin/`
//! that imports [`json`].

use std::time::{Duration, Instant};

pub mod json;

/// The default tuple counts of the scaled-down sweep (the paper sweeps
/// 0.1M–12.5M tuples on a 32 GB server).
pub const DEFAULT_SIZES: [usize; 5] = [1_000, 5_000, 10_000, 20_000, 50_000];

/// The densities of the paper's evaluation (0.005% … 0.1%).
pub const DENSITIES: [f64; 4] = ws_census::PAPER_DENSITIES;

/// Labels matching [`DENSITIES`].
pub const DENSITY_LABELS: [&str; 4] = ws_census::PAPER_DENSITY_LABELS;

/// The tuple counts used when `WS_BENCH_QUICK` is set: small enough for a
/// CI smoke run, large enough to exercise every code path.
pub const QUICK_SIZES: [usize; 2] = [500, 2_000];

/// Whether quick (CI smoke) mode is enabled via the `WS_BENCH_QUICK`
/// environment variable (any non-empty value other than `0`).
pub fn is_quick() -> bool {
    std::env::var("WS_BENCH_QUICK")
        .map(|v| !v.is_empty() && v != "0")
        .unwrap_or(false)
}

/// Read the benchmark tuple counts from the `WS_BENCH_SIZES` environment
/// variable (comma-separated), falling back to [`QUICK_SIZES`] in quick mode
/// and [`DEFAULT_SIZES`] otherwise.
pub fn bench_sizes() -> Vec<usize> {
    let fallback = || {
        if is_quick() {
            QUICK_SIZES.to_vec()
        } else {
            DEFAULT_SIZES.to_vec()
        }
    };
    match std::env::var("WS_BENCH_SIZES") {
        Ok(raw) => {
            let parsed: Vec<usize> = raw
                .split(',')
                .filter_map(|s| s.trim().parse().ok())
                .collect();
            if parsed.is_empty() {
                fallback()
            } else {
                parsed
            }
        }
        Err(_) => fallback(),
    }
}

/// Time a closure once, returning its result and the elapsed wall-clock time.
pub fn time_once<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let start = Instant::now();
    let value = f();
    (value, start.elapsed())
}

/// Format a duration in seconds with three decimal places.
pub fn secs(d: Duration) -> String {
    format!("{:.3}", d.as_secs_f64())
}

/// Print a Markdown-ish table row.
pub fn print_row(cells: &[String]) {
    println!("| {} |", cells.join(" | "));
}

/// Print a Markdown-ish table header with a separator line.
pub fn print_header(cells: &[&str]) {
    println!("| {} |", cells.join(" | "));
    println!(
        "|{}|",
        cells.iter().map(|_| " --- ").collect::<Vec<_>>().join("|")
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sizes_fall_back_to_defaults() {
        // The environment variable is unlikely to be set during unit tests;
        // either way the result must be non-empty.
        assert!(!bench_sizes().is_empty());
    }

    #[test]
    fn timing_and_formatting_helpers() {
        let (value, elapsed) = time_once(|| 21 * 2);
        assert_eq!(value, 42);
        assert!(elapsed.as_secs_f64() >= 0.0);
        assert_eq!(secs(Duration::from_millis(1500)), "1.500");
        print_header(&["a", "b"]);
        print_row(&["1".into(), "2".into()]);
    }
}
