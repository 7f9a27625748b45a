//! Smoke test: every workload at minimum length, untraced and traced, on
//! the canonical seed (so the pinned digests are checked too), with every
//! output check on. Run it with
//! `cargo test --release --manifest-path perfbench/harness/Cargo.toml`.

use perfbench::layers::PER_LAYER;
use perfbench::{run_workload, RunConfig, CANONICAL_SEED, WORKLOADS};

/// `(name, unit)` of every metric `BENCHMARK.json` lists under `section`.
fn declared(section: &str) -> Vec<(String, String)> {
    let text =
        std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json"))
            .expect("BENCHMARK.json at the repository root");
    let start = text
        .find(&format!("\"{section}\""))
        .expect("section present");
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section is a list")];
    let field = |entry: &str, key: &str| {
        let at = entry.find(&format!("\"{key}\": \""))? + key.len() + 5;
        Some(entry[at..].split('"').next()?.to_string())
    };
    body.split('{')
        .skip(1)
        .map(|entry| {
            (
                field(entry, "name").expect("name"),
                field(entry, "unit").expect("unit"),
            )
        })
        .collect()
}

#[test]
fn every_workload_passes_its_checks_at_minimum_length() {
    let end_to_end = declared("end_to_end");
    let per_layer = declared("per_layer");
    assert_eq!(per_layer.len(), PER_LAYER.len());
    for workload in WORKLOADS {
        for trace in [false, true] {
            // One pass for the serial workloads; for serve, 8 open-loop
            // requests and 0.3 s closed-loop.
            let seconds = if workload == "serve" { 0.5 } else { 0.001 };
            let cfg = RunConfig {
                seed: CANONICAL_SEED,
                seconds,
                trace,
            };
            let out = run_workload(workload, &cfg).expect("known workload");
            assert!(out.attempted > 0, "{workload}: nothing attempted");
            assert!(
                out.failures.is_empty(),
                "{workload} (trace {trace}): {:#?}",
                out.failures
            );
            let want = if trace { &per_layer } else { &end_to_end };
            let got: Vec<(String, String)> = out
                .metrics
                .0
                .iter()
                .map(|(n, _, u)| (n.clone(), u.to_string()))
                .collect();
            let mut want_sorted = want.clone();
            want_sorted.sort();
            let mut got_sorted = got.clone();
            got_sorted.sort();
            assert_eq!(got_sorted, want_sorted, "{workload} (trace {trace})");
            if !trace {
                for (name, value, _) in &out.metrics.0 {
                    assert!(*value > 0.0, "{workload}: {name} must never read 0");
                }
            }
        }
    }
}
