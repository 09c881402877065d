//! Smoke-size run of every workload named in `BENCHMARK.json`, untraced
//! and traced: each run must pass its correctness checks and emit every
//! metric the file names, with the file's unit.

use std::path::PathBuf;
use std::process::Command;

use moma_server::Json;

fn manifest() -> Json {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    Json::parse(&text).expect("BENCHMARK.json is JSON")
}

fn names_and_units(m: &Json, key: &str) -> Vec<(String, String)> {
    m.get(key)
        .and_then(Json::as_arr)
        .expect("metric list")
        .iter()
        .map(|e| {
            (
                e.str_field("name").expect("name").to_owned(),
                e.str_field("unit").expect("unit").to_owned(),
            )
        })
        .collect()
}

#[test]
fn every_workload_emits_every_metric_and_runs_its_checks() {
    let m = manifest();
    let workloads: Vec<String> = m
        .get("workloads")
        .and_then(Json::as_arr)
        .expect("workloads")
        .iter()
        .map(|w| w.str_field("name").expect("workload name").to_owned())
        .collect();
    assert!(workloads.len() >= 2);
    for workload in &workloads {
        for (trace, list) in [("0", "end_to_end"), ("1", "per_layer")] {
            let out = Command::new(env!("CARGO_BIN_EXE_moma-perfbench"))
                .args(["--workload", workload, "--seed", "3", "--seconds", "1"])
                .args(["--trace", trace, "--scale", "smoke"])
                .output()
                .expect("run the benchmark");
            let stdout = String::from_utf8_lossy(&out.stdout);
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert!(
                out.status.success(),
                "{workload} --trace {trace} failed:\n{stderr}"
            );
            let last = stdout.lines().last().expect("a result line");
            let result = Json::parse(last).expect("the last line is JSON");
            assert_eq!(result.get("correct").and_then(Json::as_bool), Some(true));
            assert!(result.get("attempted").and_then(Json::as_u64).unwrap_or(0) >= 1);
            assert_eq!(result.get("failed").and_then(Json::as_u64), Some(0));
            let metrics = result.get("metrics").expect("metrics");
            for (name, unit) in names_and_units(&m, list) {
                let metric = metrics
                    .get(&name)
                    .unwrap_or_else(|| panic!("{workload} --trace {trace}: no `{name}`"));
                assert_eq!(metric.str_field("unit"), Some(unit.as_str()), "{name}");
                assert!(metric.num_field("value").is_some(), "{name} has a value");
            }
            for check in [
                "all-pairs",
                "full re-match on the shadow",
                "equal the state before the stop",
                "no delta fell back",
            ] {
                assert!(
                    stderr
                        .lines()
                        .any(|l| l.starts_with("check ok:") && l.contains(check)),
                    "{workload}: check `{check}` did not run:\n{stderr}"
                );
            }
            if trace == "1" {
                assert!(
                    stderr
                        .lines()
                        .any(|l| l.starts_with("check ok:") && l.contains("layer-by-layer")),
                    "{stderr}"
                );
            }
        }
    }
}
