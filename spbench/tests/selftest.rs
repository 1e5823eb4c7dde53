//! The benchmark's self-test: a short mode of every workload runs end
//! to end and emits every metric `BENCHMARK.json` names, with its unit,
//! `fail_heal`'s crash-restarts reach the client's parity decode, and a
//! planted wrong byte in a read counts as a failed operation.

use spbench::common::Options;
use spbench::WORKLOADS;

fn short(workload: &str, trace: bool, plant_wrong_byte: bool) -> Options {
    Options {
        workload: workload.to_string(),
        seed: 7,
        seconds: 0.5,
        trace,
        short: true,
        plant_wrong_byte,
    }
}

fn benchmark_json() -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root")
}

/// The `{"name": …, "unit": …}` entries of one section of BENCHMARK.json.
fn declared(json: &str, section: &str) -> Vec<(String, String)> {
    let start = json
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("section {section} missing"));
    let body = &json[start..];
    let body = &body[..body.find(']').expect("section closes")];
    body.split("\"name\": \"")
        .skip(1)
        .map(|entry| {
            let name = entry[..entry.find('"').expect("name closes")].to_string();
            let unit = entry
                .split("\"unit\": \"")
                .nth(1)
                .map(|u| u[..u.find('"').expect("unit closes")].to_string())
                .expect("every metric has a unit");
            (name, unit)
        })
        .collect()
}

fn check(workload: &str, trace: bool) {
    let json = benchmark_json();
    let want = declared(&json, if trace { "per_layer" } else { "end_to_end" });
    let out = spbench::run(&short(workload, trace, false)).expect("known workload");
    assert!(out.correct, "{workload}: a read returned wrong bytes");
    assert!(out.attempted > 0);
    let got: Vec<(String, String)> = out
        .metrics
        .iter()
        .map(|(n, v, u)| {
            assert!(v.is_finite(), "{workload}: {n} is not finite");
            (n.clone(), u.clone())
        })
        .collect();
    assert_eq!(
        got, want,
        "{workload} (trace {trace}) metrics differ from BENCHMARK.json"
    );
    if workload == "fail_heal" && trace {
        let decoded = out
            .metrics
            .iter()
            .find(|(n, _, _)| n == "ec.decoded_share")
            .map_or(0.0, |m| m.1);
        assert!(
            decoded > 0.0,
            "no crash-restart degraded read decoded from parity"
        );
    }
    let line = out.to_json();
    assert!(line.starts_with("{\"correct\": true, \"attempted\": "));
}

#[test]
fn short_runs_emit_every_end_to_end_metric() {
    for w in WORKLOADS {
        check(w, false);
    }
}

#[test]
fn short_traced_runs_emit_every_per_layer_metric() {
    for w in WORKLOADS {
        check(w, true);
    }
}

#[test]
fn a_planted_wrong_byte_counts_as_a_failed_operation() {
    let clean = spbench::run(&short("zipf_read", false, false)).expect("known workload");
    let planted = spbench::run(&short("zipf_read", false, true)).expect("known workload");
    assert!(clean.correct);
    assert!(!planted.correct, "the wrong byte went unnoticed");
    assert!(
        planted.failed > clean.failed,
        "the wrong byte was not counted"
    );
}

#[test]
fn unknown_workloads_are_refused() {
    assert!(spbench::run(&short("nope", false, false)).is_err());
}
