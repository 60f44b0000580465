//! Multi-reviewer serving throughput: a [`ReviewTeam`] of 1/2/4/8 named
//! reviewers drives the Figure-1 session to completion over ONE pipelined
//! connection through the threaded server, leases and conflict resolution
//! included.
//!
//! Like `serve_throughput`, this bench times whole runs by hand (the
//! criterion shim's loop cannot hold a TCP server across iterations) but
//! writes `BENCH_multi_reviewer.json` in the identical schema so
//! `ci/compare_bench.py` gates it like every other suite.
//!
//! Ids: `team_drive/{1,2,4,8}` — ns per full session (open + lease/answer
//! to conclusion under `FirstWins`), so answers/sec = answers × 1e9 /
//! median_ns (the per-run answer totals are printed).

use std::fs;
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::time::Instant;

use gdr_core::fixture;
use gdr_core::oracle::GroundTruthOracle;
use gdr_core::strategy::Strategy;
use gdr_core::team::ConflictPolicy;
use gdr_relation::csv::to_csv;
use gdr_serve::client::{MuxClient, ReviewTeam};
use gdr_serve::server::ServerConfig;
use gdr_serve::wire::{Request, Response};

const REPS: usize = 5;
const REVIEWER_COUNTS: &[usize] = &[1, 2, 4, 8];

struct Row {
    id: String,
    median_ns: f64,
    mean_ns: f64,
    samples: usize,
}

fn median(samples: &mut [f64]) -> f64 {
    samples.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    samples[samples.len() / 2]
}

fn mean(samples: &[f64]) -> f64 {
    samples.iter().sum::<f64>() / samples.len() as f64
}

fn row(id: &str, mut samples: Vec<f64>) -> Row {
    let med = median(&mut samples);
    println!(
        "multi_reviewer/{id:<16} median {:.3} ms ({} samples)",
        med / 1e6,
        samples.len()
    );
    Row {
        id: id.to_string(),
        median_ns: med,
        mean_ns: mean(&samples),
        samples: samples.len(),
    }
}

/// Opens one session and drives it to completion with `n` reviewers over a
/// single mux connection; returns (elapsed ns, total reviewer answers).
fn team_drive_once(n: usize) -> (f64, usize) {
    let config = ServerConfig::new().max_connections(Some(1));
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let store = config.build_store().expect("store");
    let server = std::thread::spawn(move || config.serve(listener, store));

    let (dirty, clean, _rules) = fixture::figure1_instance();
    let oracle = GroundTruthOracle::new(clean.clone());
    let reviewers: Vec<String> = (0..n).map(|i| format!("rev{i}")).collect();
    let team = ReviewTeam::new("bench", reviewers);

    let start = Instant::now();
    let mut mux = MuxClient::connect(TcpStream::connect(addr).expect("connect")).expect("mux");
    let opened = mux
        .call(&Request::Open {
            session: "bench".to_string(),
            table_csv: to_csv(&dirty),
            rules: fixture::figure1_rules_text().to_string(),
            strategy: Strategy::GdrNoLearning,
            seed: None,
            ground_truth_csv: Some(to_csv(&clean)),
            policy: Some(ConflictPolicy::FirstWins),
            lease_ttl: Some(64),
        })
        .expect("open");
    assert!(matches!(opened, Response::Opened { .. }), "{opened:?}");
    let outcome = team.drive(&mut mux, &oracle, None).expect("drive team");
    let elapsed = start.elapsed().as_secs_f64() * 1e9;

    drop(mux);
    server.join().expect("server thread").expect("serve");
    let answers = outcome.answers.iter().map(|(_, a)| a).sum();
    (elapsed, answers)
}

fn write_json(rows: &[Row]) {
    let mut json = String::from("{\n  \"group\": \"multi_reviewer\",\n  \"benchmarks\": [\n");
    for (i, r) in rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"id\": \"{}\", \"median_ns\": {:.1}, \"mean_ns\": {:.1}, \"samples\": {}, \"iters_per_sample\": 1}}{}\n",
            r.id,
            r.median_ns,
            r.mean_ns,
            r.samples,
            if i + 1 == rows.len() { "" } else { "," }
        ));
    }
    json.push_str("  ]\n}\n");
    let dir = PathBuf::from(std::env::var("BENCH_OUT_DIR").unwrap_or_else(|_| ".".to_string()));
    fs::create_dir_all(&dir).expect("create BENCH_OUT_DIR");
    let path = dir.join("BENCH_multi_reviewer.json");
    fs::write(&path, json).expect("write bench json");
    println!("wrote {}", path.display());
}

fn main() {
    let mut rows = Vec::new();
    for &n in REVIEWER_COUNTS {
        let mut samples = Vec::with_capacity(REPS);
        let mut answers = 0usize;
        for _ in 0..REPS {
            let (elapsed, run_answers) = team_drive_once(n);
            samples.push(elapsed);
            answers = run_answers;
        }
        let med = {
            let mut m = samples.clone();
            median(&mut m)
        };
        println!(
            "answers/sec at {n} reviewer(s): {:.1} ({answers} answers per run)",
            answers as f64 * 1e9 / med
        );
        rows.push(row(&format!("team_drive/{n}"), samples));
    }
    write_json(&rows);
}
