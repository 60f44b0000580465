//! Tiny-size smoke test: every workload, untraced and traced, passes its
//! correctness gate and prints every metric `BENCHMARK.json` names.

use std::path::Path;
use std::process::Command;

use gdr_serve::json::Json;

fn metric_names(benchmark: &Json, section: &str) -> Vec<String> {
    benchmark
        .get(section)
        .and_then(Json::as_array)
        .expect("BENCHMARK.json lists the section")
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(Json::as_str)
                .expect("named")
                .to_string()
        })
        .collect()
}

#[test]
fn every_workload_runs_at_tiny_size() {
    let manifest = Path::new(env!("CARGO_MANIFEST_DIR"));
    let benchmark = std::fs::read_to_string(manifest.join("../BENCHMARK.json"))
        .expect("BENCHMARK.json sits at the repository root");
    let benchmark = Json::parse(&benchmark).expect("BENCHMARK.json parses");
    let workdir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("perfbench-smoke");
    std::fs::create_dir_all(&workdir).expect("scratch directory");
    for workload in ["solo_review", "team_fleet", "cold_restart"] {
        for (trace, section) in [("0", "end_to_end"), ("1", "per_layer")] {
            let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
                .args(["--workload", workload, "--seed", "3", "--seconds", "1"])
                .args(["--trace", trace, "--tiny"])
                .current_dir(&workdir)
                .output()
                .expect("benchmark runs");
            let stdout = String::from_utf8_lossy(&out.stdout);
            assert!(
                out.status.success(),
                "{workload} trace {trace} failed: {}",
                String::from_utf8_lossy(&out.stderr)
            );
            let last = stdout.lines().last().expect("a result line");
            let result = Json::parse(last).expect("the last line is JSON");
            assert_eq!(
                result.get("correct"),
                Some(&Json::Bool(true)),
                "{workload}: {last}"
            );
            assert_eq!(result.get("failed").and_then(Json::as_i64), Some(0));
            assert!(result.get("attempted").and_then(Json::as_i64) > Some(0));
            let metrics = result.get("metrics").expect("metrics");
            for name in metric_names(&benchmark, section) {
                let value = metrics.get(&name).and_then(|m| m.get("value"));
                assert!(value.is_some(), "{workload} trace {trace} lacks {name}");
            }
        }
    }
}
