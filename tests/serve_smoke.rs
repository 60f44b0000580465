//! Workspace-level loopback smoke test: the `serve_sessions` example's flow
//! through the `gdr` facade — spawn the TCP server on `127.0.0.1:0`, open a
//! session over the wire, hit it with a stale answer, restore mid-session,
//! and drive it to `Done`.  This gates the whole transport stack (codec →
//! store → server → client) in `cargo test` for the workspace.

use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::thread;

use gdr::core::fixture;
use gdr::core::oracle::GroundTruthOracle;
use gdr::core::step::DoneReason;
use gdr::core::strategy::Strategy;
use gdr::relation::csv::to_csv;
use gdr::repair::Feedback;
use gdr::serve::client::{Client, ClientError, OpenOptions};
use gdr::serve::server::ServerConfig;
use gdr::serve::store::SessionStore;
use gdr::serve::wire::{Response, WireError};

#[test]
fn serve_sessions_loopback_drives_one_session_to_done() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("local addr");
    let store = Arc::new(SessionStore::new());
    let server = {
        let store = store.clone();
        thread::spawn(move || {
            ServerConfig::new()
                .max_connections(Some(1))
                .serve(listener, store)
        })
    };

    let (dirty, clean, _rules) = fixture::figure1_instance();
    let mut client =
        Client::connect(TcpStream::connect(addr).expect("connect"), "smoke").expect("client");
    let opened = client
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
    assert!(matches!(opened, Response::Opened { dirty_tuples, .. } if dirty_tuples > 0));

    // The acceptance scenario: a stale WorkId over the wire returns a
    // structured error reply and the session continues afterwards.
    let Response::Ask { id, .. } = client.next().expect("next") else {
        panic!("figure 1 starts with a question");
    };
    let err = client.answer(id + 1, Feedback::Confirm).expect_err("stale");
    assert!(matches!(
        err,
        ClientError::Server(WireError::StaleWork { .. })
    ));

    // Kill-and-restore mid-session, then drive to Done.
    let outstanding = client.next().expect("re-serve");
    client.restore().expect("restore");
    assert_eq!(client.next().expect("after restore"), outstanding);

    let oracle = GroundTruthOracle::new(clean);
    let reason = client.drive(&oracle, None).expect("drive");
    assert_eq!(reason, DoneReason::Exhausted);
    let report = client.report().expect("report");
    let Response::Report {
        verifications,
        dirty_tuples,
        eval: Some(eval),
        ..
    } = report
    else {
        panic!("expected an evaluated report");
    };
    assert!(verifications > 0);
    assert_eq!(dirty_tuples, 0);
    assert_eq!(eval.final_loss, 0.0);

    drop(client);
    server.join().expect("server thread").expect("server io");
    assert_eq!(store.len(), 1);
}
