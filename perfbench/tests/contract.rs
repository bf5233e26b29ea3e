//! `BENCHMARK.json` at the repository root names exactly the workloads
//! and metrics the benchmark reports.

use perfbench::report::{END_TO_END, PER_LAYER};
use perfbench::workloads::spec;

fn benchmark_json() -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark")
}

/// Every `"name": "<value>"` in `section` (up to the next top-level key).
fn names(json: &str, section: &str) -> Vec<String> {
    let start = json.find(&format!("\"{section}\"")).expect(section);
    let body = &json[start..];
    let end = body[1..].find("\n  \"").map_or(body.len(), |i| i + 1);
    body[..end]
        .split("\"name\": \"")
        .skip(1)
        .map(|s| s[..s.find('"').unwrap()].to_string())
        .collect()
}

#[test]
fn benchmark_json_matches_the_reported_metrics() {
    let json = benchmark_json();
    let want = |list: &[(&str, &str)]| list.iter().map(|(n, _)| n.to_string()).collect::<Vec<_>>();
    assert_eq!(names(&json, "end_to_end"), want(END_TO_END));
    assert_eq!(names(&json, "per_layer"), want(PER_LAYER));
    for w in names(&json, "workloads") {
        assert!(spec(&w).is_some(), "workload {w} is not defined");
    }
}
