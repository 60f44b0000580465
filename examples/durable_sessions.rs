//! Kill the server mid-session, restart it, and keep cleaning.
//!
//! ```text
//! cargo run --example durable_sessions
//! ```
//!
//! The durable session tier journals every session to disk (one
//! append-only log of records per session, fsync'd per policy), so a server
//! crash loses at most the unsynced tail:
//!
//! 1. **Life one**: a durable store serves the Figure 1 session over TCP;
//!    the client answers three questions, compacts the journal, and leaves
//!    a fourth question outstanding — then the whole server (store,
//!    listener, every connection) is dropped on the floor;
//! 2. **Life two**: a fresh store pointed at the same journal root knows
//!    nothing until the first verb **rehydrates** the session — and because
//!    the compact persisted the serialised session as a `snap-NNNNNN.gdrs`
//!    checkpoint, recovery decodes that and replays only the journal tail
//!    instead of the whole transcript (asserted below).  The outstanding
//!    question comes back with the same work id, and the retry-hardened
//!    driver finishes the repair.

use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::Path;
use std::sync::Arc;
use std::thread;

use gdr_core::fixture;
use gdr_core::oracle::{GroundTruthOracle, UserOracle};
use gdr_core::strategy::Strategy;
use gdr_relation::csv::to_csv;
use gdr_repair::Update;
use gdr_serve::client::{Client, OpenOptions, RetryPolicy};
use gdr_serve::server::ServerConfig;
use gdr_serve::store::{DurabilityConfig, SessionStore};
use gdr_serve::wire::Response;

/// Boots a durable store over `root` and serves `connections` on loopback.
fn boot(
    root: &Path,
    connections: usize,
) -> (
    Arc<SessionStore>,
    SocketAddr,
    thread::JoinHandle<std::io::Result<()>>,
) {
    let config = ServerConfig::new()
        .durability(DurabilityConfig::new(root))
        .max_connections(Some(connections));
    let store = config.build_store().expect("durable store");
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("local addr");
    let server = {
        let store = store.clone();
        thread::spawn(move || config.serve(listener, store))
    };
    (store, addr, server)
}

/// The newest `snap-NNNNNN.gdrs` checkpoint anywhere under the journal root.
fn find_checkpoint(root: &Path) -> Option<std::path::PathBuf> {
    fn walk(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                walk(&path, out);
            } else if path.extension().is_some_and(|ext| ext == "gdrs") {
                out.push(path);
            }
        }
    }
    let mut found = Vec::new();
    walk(root, &mut found);
    found.sort();
    found.pop()
}

fn main() {
    let root = std::env::temp_dir().join(format!("gdr-durable-example-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);

    // -- life one -----------------------------------------------------------
    let (store, addr, server) = boot(&root, 1);
    println!("life one: durable server on {addr}, journals under {root:?}");

    let (dirty, clean, _rules) = fixture::figure1_instance();
    let oracle = GroundTruthOracle::new(clean.clone());
    let mut client =
        Client::connect(TcpStream::connect(addr).expect("connect"), "customer-42").expect("client");
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
    println!("opened `customer-42`; every verb is now journaled to disk");

    let mut answered = 0usize;
    while answered < 3 {
        match client.next().expect("next") {
            Response::Ask {
                id,
                tuple,
                attr,
                current,
                value,
                score,
                ..
            } => {
                let update = Update::new(tuple, attr, value, score);
                let feedback = oracle.feedback(&update, &current);
                client.answer(id, feedback).expect("answer");
                answered += 1;
            }
            Response::NeedValue { tuple, attr, .. } => {
                client.skip(tuple, attr).expect("skip");
            }
            Response::Done { .. } => break,
            other => panic!("unexpected reply {other:?}"),
        }
    }
    let (events, tail) = client.compact().expect("compact");
    println!(
        "answered {answered} questions; compacted: snapshot covers {events} events, tail {tail}"
    );

    // Serve one more question but never answer it — the crash hits here.
    let Response::Ask { id: pending, .. } = client.next().expect("next") else {
        panic!("a question should be pending");
    };
    println!("question w{pending} is outstanding... killing the server now");
    drop(client);
    server.join().expect("server thread").expect("serve");
    drop(store);

    // The compact persisted the serialised session next to its journal —
    // that file is what makes the restart checkpointed rather than a full
    // replay.
    let checkpoint = find_checkpoint(&root).expect("compact must persist a snap checkpoint");
    println!("checkpoint survives the crash: {}", checkpoint.display());

    // -- life two -----------------------------------------------------------
    let (store, addr, server) = boot(&root, 1);
    println!("\nlife two: fresh server on {addr}, same journal root");
    println!("sessions live in RAM: {} (cold start)", store.len());

    let mut client =
        Client::connect(TcpStream::connect(addr).expect("connect"), "customer-42").expect("client");
    let Response::Ask { id: reserved, .. } = client.next().expect("next") else {
        panic!("the outstanding question must come back");
    };
    println!("first verb rehydrated the session from its journal");
    assert_eq!(reserved, pending, "the crash must not lose the question");
    println!("outstanding question re-served with the same id: w{reserved}");

    // And the rehydration was *checkpointed*: the session's replay base is
    // the decoded snapshot (covered events > 0), not a from-scratch replay.
    store
        .with_session("customer-42", |s| {
            let covered = s.journal().snapshot_events();
            assert!(
                covered > 0,
                "restart must recover from the snap checkpoint, not full replay"
            );
            println!(
                "recovery decoded the checkpoint ({} events covered) and replayed only the tail",
                covered
            );
            Ok(())
        })
        .expect("inspect rehydrated session");

    // Finish with the transport-hardened driver: on a flaky link it would
    // reconnect with capped exponential backoff; here it simply completes.
    let reason = client
        .drive_retrying(&oracle, None, &RetryPolicy::default(), |_attempt| {
            let stream = TcpStream::connect(addr).ok()?;
            let reader = stream.try_clone().ok()?;
            Some((reader, stream))
        })
        .expect("drive");
    let Response::Report {
        verifications,
        dirty_tuples,
        eval,
        ..
    } = client.report().expect("report")
    else {
        panic!("report must reply with report");
    };
    println!("\nsession done ({reason:?}) after {verifications} verifications");
    println!("{dirty_tuples} tuples still violate a rule");
    if let Some(eval) = eval {
        println!(
            "quality: loss {:.4} -> {:.4} ({:.1}% improvement), precision {:.2}, recall {:.2}",
            eval.initial_loss, eval.final_loss, eval.improvement_pct, eval.precision, eval.recall
        );
    }

    drop(client);
    server.join().expect("server thread").expect("serve");
    let _ = std::fs::remove_dir_all(&root);
}
