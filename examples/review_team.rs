//! A review *team* cleaning one session over a single pipelined connection.
//!
//! ```text
//! cargo run --example review_team
//! ```
//!
//! Spawns the `gdr-serve` threaded server on a loopback port, opens the
//! Figure 1 instance with a `majority-2` conflict policy, and lets a
//! [`ReviewTeam`] of four named reviewers pull **work leases** concurrently
//! through one [`MuxClient`]:
//!
//! 1. `hello` advertises the `leases` capability plus the server's
//!    outstanding-request cap and default lease TTL;
//! 2. `open` carries the conflict policy (`majority-2`: every suggestion
//!    needs two agreeing reviewers) and a lease TTL;
//! 3. each reviewer loops `lease` → `answer_as` (or `supply_as`/`skip_as`
//!    for cells needing a typed value); the server journals every grant,
//!    answer, and resolution, and applies resolved feedback in the engine's
//!    own serial order — the team run is provably equivalent to a serial
//!    one-reviewer session;
//! 4. `report` returns the paper's quality figures computed server-side.

use std::net::{TcpListener, TcpStream};
use std::thread;

use gdr_core::fixture;
use gdr_core::oracle::GroundTruthOracle;
use gdr_core::strategy::Strategy;
use gdr_core::team::ConflictPolicy;
use gdr_relation::csv::to_csv;
use gdr_serve::client::{MuxClient, ReviewTeam};
use gdr_serve::server::ServerConfig;
use gdr_serve::wire::{Request, Response};

fn main() {
    // -- server side --------------------------------------------------------
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("local addr");
    let config = ServerConfig::new()
        .workers(2)
        .max_outstanding(32)
        .max_connections(Some(1));
    let store = config.build_store().expect("in-memory store");
    let server = {
        let store = store.clone();
        thread::spawn(move || config.serve(listener, store))
    };
    println!("session server listening on {addr}");

    // -- client side --------------------------------------------------------
    let (dirty, clean, _rules) = fixture::figure1_instance();
    let mut mux = MuxClient::connect(TcpStream::connect(addr).expect("connect")).expect("mux");
    let hello = mux.hello().expect("hello");
    println!(
        "server speaks protocol v{} (leases: {}, max outstanding: {}, default lease TTL: {})",
        hello.version, hello.leases, hello.max_outstanding, hello.lease_ttl
    );
    assert!(hello.leases, "this demo needs the leases capability");

    let Response::Opened { dirty_tuples, .. } = mux
        .call(&Request::Open {
            session: "night-shift".to_string(),
            table_csv: to_csv(&dirty),
            rules: fixture::figure1_rules_text().to_string(),
            strategy: Strategy::GdrNoLearning,
            seed: None,
            ground_truth_csv: Some(to_csv(&clean)),
            policy: Some(ConflictPolicy::Majority { k: 2 }),
            lease_ttl: Some(64),
        })
        .expect("open")
    else {
        panic!("open must reply with opened");
    };
    println!("opened session `night-shift` (majority-2, TTL 64): {dirty_tuples} dirty tuples\n");

    // Four reviewers share the session over this one connection: every
    // suggestion needs two agreeing answers before it is applied.
    let team = ReviewTeam::new("night-shift", ["ada", "grace", "edsger", "barbara"]);
    let oracle = GroundTruthOracle::new(clean);
    let outcome = team.drive(&mut mux, &oracle, None).expect("drive team");
    println!("session done: {:?}", outcome.reason);
    for (reviewer, answers) in &outcome.answers {
        println!("  {reviewer:>8}: {answers} answers");
    }
    let total: usize = outcome.answers.iter().map(|(_, n)| n).sum();
    assert!(total > 0, "somebody must have answered something");

    // The server-side report: the team's verifications and quality figures.
    let Response::Report {
        verifications,
        dirty_tuples,
        eval,
        ..
    } = mux
        .call(&Request::Report {
            session: "night-shift".to_string(),
        })
        .expect("report")
    else {
        panic!("report must reply with report");
    };
    println!("\n{total} reviewer answers resolved into {verifications} applied verifications");
    println!("{dirty_tuples} tuples still violate a rule");
    if let Some(eval) = eval {
        println!(
            "quality: loss {:.4} -> {:.4} ({:.1}% improvement), precision {:.2}, recall {:.2}",
            eval.initial_loss, eval.final_loss, eval.improvement_pct, eval.precision, eval.recall
        );
    }

    drop(mux);
    server
        .join()
        .expect("server thread")
        .expect("server shutdown");
}
