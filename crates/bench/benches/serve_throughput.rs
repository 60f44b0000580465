//! Serving-layer throughput: whole Figure-1 sessions per second through the
//! threaded server, multiplexed vs. one-connection-per-session, plus the
//! tail latency of a single cheap verb.
//!
//! This bench does NOT use the criterion shim's timing loop — it needs a
//! p99, which the shim's median/mean schema cannot compute — but it writes
//! `BENCH_serve_throughput.json` in the identical schema so
//! `ci/compare_bench.py` gates it like every other suite.  Schema note:
//! for the `verb_p99/*` ids the gated `median_ns` field carries the **p99
//! verb latency** (median across repetitions of the per-run p99);
//! `mean_ns` is the mean of those p99s.
//!
//! Ids:
//!
//! * `mux_drive/16` — open + drive 16 sessions to completion over ONE
//!   pipelined connection (`MuxClient::drive_all`); ns per batch, so
//!   sessions/sec = 16e9 / median_ns.
//! * `separate_drive/16` — the same 16 sessions, each on its own
//!   sequential connection (the legacy in-order client).
//! * `verb_p99/hello` — p99 round-trip of the cheapest verb through the
//!   server, measuring framing + reader/writer thread + pool overhead, not
//!   engine work.

use std::fs;
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::time::Instant;

use gdr_core::fixture;
use gdr_core::oracle::GroundTruthOracle;
use gdr_core::strategy::Strategy;
use gdr_relation::csv::to_csv;
use gdr_serve::client::{Client, MuxClient, OpenOptions};
use gdr_serve::server::ServerConfig;
use gdr_serve::wire::Request;

const SESSIONS: usize = 16;
const REPS: usize = 5;
const HELLO_ROUND_TRIPS: usize = 2_000;

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
        "serve_throughput/{id:<24} median {:.3} ms ({} samples)",
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

/// Opens and fully drives `SESSIONS` sessions over one mux connection;
/// returns elapsed ns.
fn mux_drive_once() -> f64 {
    let config = ServerConfig::new().max_connections(Some(1));
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let store = config.build_store().expect("store");
    let server = std::thread::spawn(move || config.serve(listener, store));

    let (dirty, clean, _rules) = fixture::figure1_instance();
    let sessions: Vec<String> = (0..SESSIONS).map(|i| format!("s{i}")).collect();
    let oracle = GroundTruthOracle::new(clean.clone());

    let start = Instant::now();
    let mut mux = MuxClient::connect(TcpStream::connect(addr).expect("connect")).expect("mux");
    for session in &sessions {
        mux.send(&Request::Open {
            session: session.clone(),
            table_csv: to_csv(&dirty),
            rules: fixture::figure1_rules_text().to_string(),
            strategy: Strategy::GdrNoLearning,
            seed: None,
            ground_truth_csv: Some(to_csv(&clean)),
            policy: None,
            lease_ttl: None,
        })
        .expect("send open");
    }
    for _ in 0..SESSIONS {
        mux.recv().expect("open reply");
    }
    mux.drive_all(&sessions, &oracle, None).expect("drive_all");
    let elapsed = start.elapsed().as_secs_f64() * 1e9;

    drop(mux);
    server.join().expect("server thread").expect("serve");
    elapsed
}

/// The same workload, one sequential connection per session; returns
/// elapsed ns.
fn separate_drive_once() -> f64 {
    let config = ServerConfig::new().max_connections(Some(SESSIONS));
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let store = config.build_store().expect("store");
    let server = {
        let config = config.clone();
        std::thread::spawn(move || config.serve(listener, store))
    };

    let (dirty, clean, _rules) = fixture::figure1_instance();
    let oracle = GroundTruthOracle::new(clean.clone());

    let start = Instant::now();
    for i in 0..SESSIONS {
        let mut client =
            Client::connect(TcpStream::connect(addr).expect("connect"), format!("s{i}"))
                .expect("client");
        client
            .open(
                to_csv(&dirty),
                fixture::figure1_rules_text(),
                OpenOptions {
                    strategy: Strategy::GdrNoLearning,
                    seed: None,
                    ground_truth_csv: Some(to_csv(&clean)),
                    ..OpenOptions::default()
                },
            )
            .expect("open");
        client.drive(&oracle, None).expect("drive");
    }
    let elapsed = start.elapsed().as_secs_f64() * 1e9;

    server.join().expect("server thread").expect("serve");
    elapsed
}

/// p99 of `HELLO_ROUND_TRIPS` sequential hello round trips; returns ns.
fn hello_p99_once() -> f64 {
    let config = ServerConfig::new().max_connections(Some(1));
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let store = config.build_store().expect("store");
    let server = std::thread::spawn(move || config.serve(listener, store));

    let mut client =
        Client::connect(TcpStream::connect(addr).expect("connect"), "latency").expect("client");
    // Warm up the connection and code paths.
    for _ in 0..50 {
        client.hello().expect("hello");
    }
    let mut latencies: Vec<f64> = (0..HELLO_ROUND_TRIPS)
        .map(|_| {
            let start = Instant::now();
            client.hello().expect("hello");
            start.elapsed().as_secs_f64() * 1e9
        })
        .collect();
    latencies.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let p99 = latencies[(latencies.len() * 99) / 100 - 1];

    drop(client);
    server.join().expect("server thread").expect("serve");
    p99
}

fn write_json(rows: &[Row]) {
    let mut json = String::from("{\n  \"group\": \"serve_throughput\",\n  \"benchmarks\": [\n");
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
    let path = dir.join("BENCH_serve_throughput.json");
    fs::write(&path, json).expect("write bench json");
    println!("wrote {}", path.display());
}

fn main() {
    let mux: Vec<f64> = (0..REPS).map(|_| mux_drive_once()).collect();
    let separate: Vec<f64> = (0..REPS).map(|_| separate_drive_once()).collect();
    let p99s: Vec<f64> = (0..REPS).map(|_| hello_p99_once()).collect();

    let mux_med = {
        let mut m = mux.clone();
        median(&mut m)
    };
    println!(
        "sessions/sec (muxed, batch of {SESSIONS}): {:.1}",
        SESSIONS as f64 * 1e9 / mux_med
    );

    let rows = vec![
        row(&format!("mux_drive/{SESSIONS}"), mux),
        row(&format!("separate_drive/{SESSIONS}"), separate),
        row("verb_p99/hello", p99s),
    ];
    write_json(&rows);
}
