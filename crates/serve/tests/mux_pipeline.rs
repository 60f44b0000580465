//! Pipelined multiplexing over one connection: `hello` negotiation, `seq`
//! correlation, out-of-order replies, and the acceptance criterion — N
//! interleaved sessions driven through one [`MuxClient`] land bit-identical
//! (`f64::to_bits` fingerprints) to the same sessions driven over N
//! separate connections, also under a per-session budget and when the
//! server refuses pipelined verbs as `busy`.

mod common;

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;
use std::thread;

use gdr_core::fixture;
use gdr_core::oracle::GroundTruthOracle;
use gdr_core::step::DoneReason;
use gdr_core::strategy::Strategy;
use gdr_relation::csv::to_csv;
use gdr_serve::client::{Client, MuxClient, OpenOptions};
use gdr_serve::server::ServerConfig;
use gdr_serve::store::SessionStore;
use gdr_serve::wire::{
    decode_response_frame, encode_request_frame, Request, Response, WireError, PROTOCOL_VERSION,
};
use proptest::prelude::*;

use common::fingerprint;

fn spawn_server(
    config: ServerConfig,
) -> (
    SocketAddr,
    Arc<SessionStore>,
    thread::JoinHandle<std::io::Result<()>>,
) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("local addr");
    let store = config.build_store().expect("in-memory store");
    let server = {
        let store = store.clone();
        thread::spawn(move || config.serve(listener, store))
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

/// One session's bit-exact state: per-cell `to_bits` triples, counters, and
/// the rendered table (see `common::fingerprint`).
type Fingerprint = (Vec<(usize, u64, u64)>, usize, usize, String);

/// The fingerprints of `sessions` as they sit in a store after serving.
fn store_fingerprints(store: &SessionStore, sessions: &[String]) -> Vec<Fingerprint> {
    sessions
        .iter()
        .map(|id| {
            let handle = store.get(id).expect("session exists");
            let guard = handle.lock().expect("session lock");
            fingerprint(guard.engine())
        })
        .collect()
}

/// Drives `n` sessions to completion over ONE connection with a
/// [`MuxClient`], each under `budget`, against a server built from
/// `config`, and returns their fingerprints and done reasons.
fn drive_muxed(
    n: usize,
    budget: Option<usize>,
    config: ServerConfig,
) -> (Vec<Fingerprint>, Vec<DoneReason>) {
    let (addr, store, server) = spawn_server(config.max_connections(Some(1)));
    let (dirty, clean, _rules) = fixture::figure1_instance();
    let sessions: Vec<String> = (0..n).map(|i| format!("s{i}")).collect();

    let mut mux = MuxClient::connect(TcpStream::connect(addr).expect("connect")).expect("mux");
    let hello = mux.hello().expect("hello");
    assert!(hello.pipelining, "the server must offer pipelining");

    // Pipeline all opens before reading a single reply; an open refused
    // as `busy` is sent again.
    let open = |session: &String| Request::Open {
        session: session.clone(),
        table_csv: to_csv(&dirty),
        rules: fixture::figure1_rules_text().to_string(),
        strategy: Strategy::GdrNoLearning,
        seed: None,
        ground_truth_csv: Some(to_csv(&clean)),
        policy: None,
        lease_ttl: None,
    };
    let mut opens = HashMap::new();
    for session in &sessions {
        opens.insert(mux.send(&open(session)).expect("send open"), session);
    }
    while !opens.is_empty() {
        let (seq, response) = mux.recv().expect("open reply");
        let session = opens
            .remove(&seq)
            .unwrap_or_else(|| panic!("unknown open seq {seq}"));
        match response {
            Response::Opened { .. } => {}
            Response::Error(WireError::Busy { .. }) => {
                opens.insert(mux.send(&open(session)).expect("resend open"), session);
            }
            other => panic!("open failed: {other:?}"),
        }
    }

    let oracle = GroundTruthOracle::new(clean);
    let reasons = mux
        .drive_all(&sessions, &oracle, budget)
        .expect("drive_all");
    assert_eq!(reasons.len(), n);

    drop(mux);
    server.join().expect("server thread").expect("serve");
    (store_fingerprints(&store, &sessions), reasons)
}

/// Drives the same `n` sessions, each under `budget`, over `n` separate
/// in-order connections and returns their fingerprints and done reasons.
fn drive_separate(n: usize, budget: Option<usize>) -> (Vec<Fingerprint>, Vec<DoneReason>) {
    let (addr, store, server) = spawn_server(ServerConfig::new().max_connections(Some(n)));
    let (dirty, clean, _rules) = fixture::figure1_instance();
    let sessions: Vec<String> = (0..n).map(|i| format!("s{i}")).collect();
    let oracle = GroundTruthOracle::new(clean);
    let mut reasons = Vec::new();
    for session in &sessions {
        let mut client =
            Client::connect(TcpStream::connect(addr).expect("connect"), session).expect("client");
        client
            .open(
                to_csv(&dirty),
                fixture::figure1_rules_text(),
                figure1_options(),
            )
            .expect("open");
        reasons.push(client.drive(&oracle, budget).expect("drive"));
    }
    server.join().expect("server thread").expect("serve");
    (store_fingerprints(&store, &sessions), reasons)
}

#[test]
fn hello_reports_protocol_version_and_capabilities() {
    let (addr, _store, server) = spawn_server(ServerConfig::new().max_connections(Some(1)));
    let mut client =
        Client::connect(TcpStream::connect(addr).expect("connect"), "unused").expect("client");
    let hello = client.hello().expect("hello");
    assert_eq!(hello.version, PROTOCOL_VERSION);
    assert!(hello.pipelining);
    assert!(hello.compact);
    drop(client);
    server.join().expect("server thread").expect("serve");
}

/// With one worker the pool is FIFO, which makes reply overtaking
/// deterministic: a `seq`-tagged request sent *after* a queued legacy
/// request completes *before* it, because legacy requests are serialized
/// one-in-flight while tagged ones dispatch immediately.
#[test]
fn seq_tagged_reply_overtakes_a_queued_legacy_request() {
    let (addr, _store, server) =
        spawn_server(ServerConfig::new().workers(1).max_connections(Some(1)));
    let stream = TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut writer = stream;

    let hello = |seq: Option<u64>| {
        encode_request_frame(
            &Request::Hello {
                version: PROTOCOL_VERSION,
            },
            seq,
        )
    };
    // Two legacy frames, then a tagged one, in a single write: the first
    // legacy dispatches, the second waits its turn, the tagged frame jumps
    // straight to the (single) worker's queue.
    let batch = format!("{}\n{}\n{}\n", hello(None), hello(None), hello(Some(42)));
    writer.write_all(batch.as_bytes()).expect("write batch");
    writer.flush().expect("flush");

    let mut read_reply = || {
        let mut line = String::new();
        assert!(reader.read_line(&mut line).expect("read") > 0, "early EOF");
        decode_response_frame(line.trim()).expect("decode reply")
    };
    let replies = [read_reply(), read_reply(), read_reply()];
    let seqs: Vec<Option<u64>> = replies.iter().map(|(seq, _)| *seq).collect();
    assert_eq!(
        seqs.iter().filter(|seq| seq.is_none()).count(),
        2,
        "both legacy replies must arrive untagged: {seqs:?}"
    );
    // The tagged request was sent LAST but must not be answered last: the
    // second legacy request cannot dispatch until the first completes,
    // while the tagged one goes straight to the worker queue.
    assert_ne!(
        seqs[2],
        Some(42),
        "tagged reply must overtake the queued legacy request: {seqs:?}"
    );
    assert!(seqs.contains(&Some(42)), "tagged reply missing: {seqs:?}");
    for (_, response) in replies {
        assert!(matches!(response, Response::Hello { .. }));
    }
    drop(writer);
    drop(reader);
    server.join().expect("server thread").expect("serve");
}

/// The acceptance criterion: 16 sessions interleaved over one connection,
/// bit-identical to the same 16 sessions on separate connections.
#[test]
fn sixteen_interleaved_sessions_match_separate_connections() {
    let (muxed, _) = drive_muxed(16, None, ServerConfig::new());
    let (separate, _) = drive_separate(16, None);
    assert_eq!(muxed.len(), 16);
    for (i, (m, s)) in muxed.iter().zip(&separate).enumerate() {
        assert_eq!(m, s, "session s{i} diverged under multiplexing");
    }
}

/// A budgeted drive answers three items per session and then closes it
/// with `finish`; interleaved over one connection, the sessions land
/// bit-identical to the same budgeted drives on separate connections.
#[test]
fn budgeted_interleaved_sessions_match_separate_connections() {
    let (muxed, muxed_reasons) = drive_muxed(4, Some(3), ServerConfig::new());
    let (separate, separate_reasons) = drive_separate(4, Some(3));
    assert_eq!(
        muxed, separate,
        "budgeted sessions diverged under multiplexing"
    );
    for reason in muxed_reasons.iter().chain(&separate_reasons) {
        assert_eq!(*reason, DoneReason::Finished);
    }
}

/// With one request allowed in flight per connection, the server refuses
/// all but one of the pipelined verbs as `busy`; `drive_all` re-sends each
/// refused verb and the sessions still land bit-identical.
#[test]
fn busy_refusals_are_resent_without_changing_the_sessions() {
    let (muxed, _) = drive_muxed(4, None, ServerConfig::new().max_outstanding(1));
    let (separate, _) = drive_separate(4, None);
    assert_eq!(muxed, separate, "busy re-sends changed a session");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// N interleaved sessions over one connection stay bit-identical to N
    /// separate connections for arbitrary small N.
    #[test]
    fn mux_matches_separate_connections(n in 1usize..=6) {
        let (muxed, _) = drive_muxed(n, None, ServerConfig::new());
        let (separate, _) = drive_separate(n, None);
        prop_assert_eq!(muxed, separate);
    }
}
