//! Loopback smoke test of the whole transport stack — this is the
//! acceptance scenario of the typed-error work: a stale `WorkId` sent over
//! the wire comes back as a structured error reply, the session continues
//! to completion afterwards, and a killed-and-restored session resumes
//! where it left off.  Runs over real TCP on `127.0.0.1:0`, mirroring the
//! `serve_sessions` example, so CI gates the transport end to end.

use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::thread;

use gdr_core::config::GdrConfig;
use gdr_core::fixture;
use gdr_core::oracle::{GroundTruthOracle, UserOracle};
use gdr_core::step::{DoneReason, SessionBuilder};
use gdr_core::strategy::Strategy;
use gdr_relation::csv::to_csv;
use gdr_relation::Value;
use gdr_repair::Feedback;
use gdr_serve::client::{Client, OpenOptions};
use gdr_serve::server::ServerConfig;
use gdr_serve::store::SessionStore;
use gdr_serve::wire::{Request, Response, WireError};

fn spawn_server(
    connections: usize,
) -> (
    std::net::SocketAddr,
    Arc<SessionStore>,
    thread::JoinHandle<std::io::Result<()>>,
) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("local addr");
    let store = Arc::new(SessionStore::new());
    let server = {
        let store = store.clone();
        thread::spawn(move || {
            ServerConfig::new()
                .max_connections(Some(connections))
                .serve(listener, store)
        })
    };
    (addr, store, server)
}

fn figure1_options() -> OpenOptions {
    OpenOptions {
        strategy: Strategy::GdrNoLearning,
        seed: None,
        ground_truth_csv: Some(to_csv(&fixture::figure1_instance().1)),
        ..OpenOptions::default()
    }
}

#[test]
fn stale_answer_over_the_wire_is_recoverable_and_the_session_completes() {
    let (addr, _store, server) = spawn_server(1);
    let (dirty, clean, _rules) = fixture::figure1_instance();
    let mut client =
        Client::connect(TcpStream::connect(addr).expect("connect"), "s1").expect("client");
    client
        .open(
            to_csv(&dirty),
            fixture::figure1_rules_text(),
            figure1_options(),
        )
        .expect("open");

    // Pull a question and answer it with a *stale* id: the reply is a
    // structured stale_work error naming both ids — not a dead connection,
    // not a dead process.
    let Response::Ask { id, .. } = client.next().expect("next") else {
        panic!("figure 1 starts with a question");
    };
    let err = client
        .answer(id + 17, Feedback::Confirm)
        .expect_err("stale");
    let gdr_serve::client::ClientError::Server(WireError::StaleWork { got, outstanding }) = err
    else {
        panic!("expected a structured stale_work reply");
    };
    assert_eq!(got, id + 17);
    assert_eq!(outstanding, id);

    // Same connection, same session: re-pull re-serves the identical item.
    let Response::Ask { id: again, .. } = client.next().expect("next again") else {
        panic!("plan must be re-served");
    };
    assert_eq!(again, id);

    // Mismatched verbs also come back typed; then the session still drives
    // to completion with the oracle.
    let reply = client
        .call(&Request::Supply {
            session: "s1".to_string(),
            tuple: 0,
            attr: 0,
            value: Value::from("x"),
        })
        .expect("reply");
    assert!(matches!(
        reply,
        Response::Error(WireError::WorkMismatch { .. })
    ));
    let oracle = GroundTruthOracle::new(clean.clone());
    let reason = client.drive(&oracle, None).expect("drive");
    assert_eq!(reason, DoneReason::Exhausted);

    // The served session's evaluation matches a local in-process run of the
    // same driver, bit for bit (floats survive the codec exactly).
    let Response::Report {
        verifications,
        dirty_tuples,
        eval: Some(eval),
        ..
    } = client.report().expect("report")
    else {
        panic!("expected an evaluated report");
    };
    assert_eq!(dirty_tuples, 0);
    let mut local = SessionBuilder::new(dirty, &fixture::figure1_instance().2)
        .strategy(Strategy::GdrNoLearning)
        .config(GdrConfig::default())
        .simulated(clean);
    let local_report = local.run(None).expect("local run");
    assert_eq!(verifications, local_report.verifications);
    assert_eq!(eval.final_loss.to_bits(), local_report.final_loss.to_bits());
    assert_eq!(
        eval.improvement_pct.to_bits(),
        local_report.final_improvement_pct.to_bits()
    );

    drop(client);
    server.join().expect("server thread").expect("server io");
}

#[test]
fn restore_over_the_wire_resumes_mid_session() {
    let (addr, store, server) = spawn_server(1);
    let (dirty, clean, _rules) = fixture::figure1_instance();
    let mut client =
        Client::connect(TcpStream::connect(addr).expect("connect"), "s2").expect("client");
    client
        .open(
            to_csv(&dirty),
            fixture::figure1_rules_text(),
            figure1_options(),
        )
        .expect("open");

    // Answer three questions, then leave a fourth outstanding.
    let oracle = GroundTruthOracle::new(clean);
    for _ in 0..3 {
        let Response::Ask {
            id,
            tuple,
            attr,
            current,
            value,
            score,
            ..
        } = client.next().expect("next")
        else {
            panic!("expected a question");
        };
        let update = gdr_repair::Update::new(tuple, attr, value, score);
        client
            .answer(id, oracle.feedback(&update, &current))
            .expect("answer");
    }
    let outstanding = client.next().expect("serve a fourth");

    // "Kill" the engine server-side and replay the journal over the wire.
    let replayed = client.restore().expect("restore");
    assert!(replayed >= 3, "three answers journaled");

    // The restored engine re-serves the outstanding question with the same
    // work id, and the session drives on to completion.
    assert_eq!(client.next().expect("re-serve"), outstanding);
    let reason = client.drive(&oracle, None).expect("drive on");
    assert_eq!(reason, DoneReason::Exhausted);

    drop(client);
    server.join().expect("server thread").expect("server io");
    assert_eq!(store.len(), 1);
}

#[test]
fn concurrent_connections_serve_independent_sessions() {
    let (addr, store, server) = spawn_server(2);
    let (dirty, clean, _rules) = fixture::figure1_instance();
    let dirty_csv = to_csv(&dirty);

    let mut threads = Vec::new();
    for name in ["alpha", "beta"] {
        let dirty_csv = dirty_csv.clone();
        let clean = clean.clone();
        threads.push(thread::spawn(move || {
            let mut client =
                Client::connect(TcpStream::connect(addr).expect("connect"), name).expect("client");
            client
                .open(dirty_csv, fixture::figure1_rules_text(), figure1_options())
                .expect("open");
            let oracle = GroundTruthOracle::new(clean);
            let reason = client.drive(&oracle, None).expect("drive");
            assert_eq!(reason, DoneReason::Exhausted);
        }));
    }
    for t in threads {
        t.join().expect("client thread");
    }
    server.join().expect("server thread").expect("server io");
    assert_eq!(store.len(), 2);
}

#[test]
fn protocol_garbage_gets_error_replies_and_the_connection_survives() {
    use std::io::{BufRead, BufReader, Write};

    let (addr, _store, server) = spawn_server(1);
    let stream = TcpStream::connect(addr).expect("connect");
    let mut writer = stream.try_clone().expect("clone");
    let mut reader = BufReader::new(stream);
    let mut reply = String::new();
    let mut ask = |line: &str| {
        writer.write_all(line.as_bytes()).unwrap();
        writer.write_all(b"\n").unwrap();
        writer.flush().unwrap();
        reply.clear();
        reader.read_line(&mut reply).unwrap();
        reply.trim().to_string()
    };

    // Garbage JSON, unknown op, unknown session, wrong-typed field: every
    // one gets a structured reply on the same connection.
    assert!(ask("this is not json").contains("\"err\":\"bad_request\""));
    assert!(ask(r#"{"op":"frob","session":"x"}"#).contains("\"err\":\"bad_request\""));
    assert!(ask(r#"{"op":"next","session":"ghost"}"#).contains("\"err\":\"unknown_session\""));
    assert!(
        ask(r#"{"op":"answer","session":"x","id":"seven","feedback":"confirm"}"#)
            .contains("\"err\":\"bad_request\"")
    );

    // The connection (and process) still works: open a real session on it.
    let open = gdr_serve::wire::encode_request_frame(
        &gdr_serve::wire::Request::Open {
            session: "x".into(),
            table_csv: to_csv(&fixture::figure1_instance().0),
            rules: fixture::figure1_rules_text().into(),
            strategy: Strategy::GdrNoLearning,
            seed: None,
            ground_truth_csv: None,
            policy: None,
            lease_ttl: None,
        },
        None,
    );
    assert!(ask(&open).contains("\"ok\":\"opened\""));
    // Duplicate open is a typed error too.
    assert!(ask(&open).contains("\"err\":\"duplicate_session\""));

    drop(writer);
    drop(reader);
    server.join().expect("server thread").expect("server io");
}
