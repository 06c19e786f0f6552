//! Spans recorded by the harness around the calls it makes into a layer.
//! Nothing inside the program is instrumented; spans stay in memory and are
//! written out as JSON lines when the workload ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::OnceLock;
use std::time::Instant;

use crate::stats::median;

/// Nanoseconds since the first call in this process.
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// One timed interval.  Spans of one operation share `op`; `parent` is the
/// span that caused this one.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub op: u64,
    pub name: String,
    pub detail: String,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Each span's self time: its duration minus the part of its interval that
/// its direct children cover (overlapping children are counted once).
pub fn self_times_ns(spans: &[Span]) -> BTreeMap<u64, u64> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(parent) = s.parent {
            children
                .entry(parent)
                .or_default()
                .push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut covered = 0;
            let mut reach = s.start_ns;
            let mut kids = children.remove(&s.id).unwrap_or_default();
            kids.sort_unstable();
            for (start, end) in kids {
                let start = start.max(reach);
                let end = end.min(s.end_ns);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            (s.id, s.duration_ns() - covered)
        })
        .collect()
}

/// Median self time in milliseconds of the spans grouped by `key`, in first
/// appearance order.
pub fn median_self_ms<K: Ord + Clone>(
    spans: &[Span],
    key: impl Fn(&Span) -> Option<K>,
) -> Vec<(K, f64)> {
    let own = self_times_ns(spans);
    let mut order = Vec::new();
    let mut groups: BTreeMap<K, Vec<f64>> = BTreeMap::new();
    for s in spans {
        if let Some(k) = key(s) {
            if !groups.contains_key(&k) {
                order.push(k.clone());
            }
            groups.entry(k).or_default().push(own[&s.id] as f64 / 1e6);
        }
    }
    order
        .into_iter()
        .map(|k| {
            let m = median(&groups[&k]);
            (k, m)
        })
        .collect()
}

fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Write one JSON object per span.
pub fn write_jsonl(path: &Path, spans: &[Span]) -> Result<(), String> {
    let fail = |e: std::io::Error| format!("writing {}: {e}", path.display());
    let file = std::fs::File::create(path).map_err(fail)?;
    let mut out = std::io::BufWriter::new(file);
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"op\":{},\"name\":{},\"detail\":{},\"start_us\":{:.3},\"end_us\":{:.3}}}",
            s.id,
            parent,
            s.op,
            json_string(&s.name),
            json_string(&s.detail),
            s.start_ns as f64 / 1e3,
            s.end_ns as f64 / 1e3
        )
        .map_err(fail)?;
    }
    out.flush().map_err(fail)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            op: 1,
            name: format!("s{id}"),
            detail: String::new(),
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_is_duration_minus_what_children_cover() {
        let spans = vec![
            span(1, None, 0, 100),
            span(2, Some(1), 10, 40),
            // Overlaps span 2 by ten and sticks out of the parent by twenty.
            span(3, Some(1), 30, 120),
            span(4, Some(2), 15, 20),
            span(5, None, 200, 250),
        ];
        let own = self_times_ns(&spans);
        assert_eq!(own[&1], 100 - 30 - 60);
        assert_eq!(own[&2], 30 - 5);
        assert_eq!(own[&3], 90);
        assert_eq!(own[&4], 5);
        assert_eq!(own[&5], 50);
    }

    #[test]
    fn medians_group_by_name_in_first_appearance_order() {
        let mut spans = vec![span(1, None, 0, 3_000_000), span(2, None, 0, 1_000_000)];
        spans[0].name = "b".into();
        spans[1].name = "a".into();
        spans.push(Span {
            name: "b".into(),
            ..span(3, None, 0, 5_000_000)
        });
        let got = median_self_ms(&spans, |s| Some(s.name.clone()));
        assert_eq!(got, vec![("b".to_string(), 4.0), ("a".to_string(), 1.0)]);
    }
}
