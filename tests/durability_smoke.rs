//! Workspace-level durability smoke: the crash-recovery story end to end
//! over TCP through the `gdr` facade.  A durable store serves a session,
//! the client answers a few questions, then the **whole server process
//! state is thrown away** (store dropped, listener gone).  A second store
//! pointed at the same journal root must rehydrate the session from disk,
//! re-serve the outstanding question with the same work id, and let the
//! client finish — landing on the exact report an uninterrupted twin gets.

use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{SystemTime, UNIX_EPOCH};

use gdr::core::fixture;
use gdr::core::oracle::{GroundTruthOracle, UserOracle};
use gdr::core::strategy::Strategy;
use gdr::relation::csv::to_csv;
use gdr::repair::Update;
use gdr::serve::client::{Client, OpenOptions};
use gdr::serve::server::ServerConfig;
use gdr::serve::store::{DurabilityConfig, SessionStore};
use gdr::serve::wire::Response;

/// A uniquely named temp dir, removed on drop (std-only; no `tempfile`).
struct TempDir(PathBuf);

impl TempDir {
    fn new(label: &str) -> TempDir {
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let nanos = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .expect("clock before epoch")
            .as_nanos();
        let path = std::env::temp_dir().join(format!(
            "gdr-{label}-{}-{nanos}-{}",
            std::process::id(),
            COUNTER.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&path).expect("create temp dir");
        TempDir(path)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Serves `max_connections` on a fresh loopback listener over the given
/// store, returning the address and the join handle for a clean shutdown.
fn spawn_server(
    store: Arc<SessionStore>,
    max_connections: usize,
) -> (SocketAddr, thread::JoinHandle<std::io::Result<()>>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("local addr");
    let handle = thread::spawn(move || {
        ServerConfig::new()
            .max_connections(Some(max_connections))
            .serve(listener, store)
    });
    (addr, handle)
}

fn open_session(addr: SocketAddr, session: &str) {
    let (dirty, clean, _rules) = fixture::figure1_instance();
    let mut client =
        Client::connect(TcpStream::connect(addr).expect("connect"), session).expect("client");
    client
        .open(
            to_csv(&dirty),
            fixture::figure1_rules_text(),
            OpenOptions {
                strategy: Strategy::GdrNoLearning,
                ground_truth_csv: Some(to_csv(&clean)),
                ..OpenOptions::default()
            },
        )
        .expect("open");
}

fn report(addr: SocketAddr, session: &str) -> Response {
    let mut client =
        Client::connect(TcpStream::connect(addr).expect("connect"), session).expect("client");
    client.report().expect("report")
}

#[test]
fn killed_server_resumes_sessions_from_disk() {
    let root = TempDir::new("durability-smoke");
    let oracle = GroundTruthOracle::new(fixture::figure1_instance().1);

    // First life: a durable store serves `survivor` for three answers, with
    // a question left outstanding, and `twin` to completion.
    let store = Arc::new(SessionStore::durable(DurabilityConfig::new(&root.0)).expect("store"));
    let (addr, server) = spawn_server(store.clone(), 4);

    open_session(addr, "survivor");
    open_session(addr, "twin");
    let mut client =
        Client::connect(TcpStream::connect(addr).expect("connect"), "survivor").expect("client");
    // Answer three questions by hand — `drive` with a budget would
    // `finish` the session, but a crash leaves it mid-flight, question
    // pending.  The answers follow the same oracle the resumed drive uses.
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
            panic!("figure 1 opens with questions");
        };
        let update = Update::new(tuple, attr, value, score);
        let feedback = oracle.feedback(&update, &current);
        client.answer(id, feedback).expect("answer");
    }
    // Leave one more question served but unanswered at the "crash".
    let Response::Ask { .. } = client.next().expect("outstanding next") else {
        panic!("a fourth question should be pending");
    };
    let mut twin_client =
        Client::connect(TcpStream::connect(addr).expect("connect"), "twin").expect("client");
    let twin_reason = twin_client.drive(&oracle, None).expect("twin drive");

    // "Kill" the process: drop every connection, join the listener, drop
    // the store.  Nothing survives but the journal directory.
    drop(client);
    drop(twin_client);
    server.join().expect("server thread").expect("serve");
    drop(store);

    // Second life: a fresh store on the same root knows nothing until the
    // first verb rehydrates the session from its journal.
    let store = Arc::new(SessionStore::durable(DurabilityConfig::new(&root.0)).expect("store"));
    assert!(store.is_empty(), "the new store starts cold");
    let (addr, server) = spawn_server(store.clone(), 4);

    // A duplicate open must be refused: the id is claimed on disk.
    let (dirty, _, _) = fixture::figure1_instance();
    let mut dup =
        Client::connect(TcpStream::connect(addr).expect("connect"), "survivor").expect("client");
    let err = dup
        .open(
            to_csv(&dirty),
            fixture::figure1_rules_text(),
            OpenOptions {
                strategy: Strategy::GdrNoLearning,
                ..OpenOptions::default()
            },
        )
        .expect_err("a journaled session must not be re-opened");
    drop(dup);
    let _ = err;

    // The client picks up exactly where the crash left it and finishes.
    let mut client =
        Client::connect(TcpStream::connect(addr).expect("connect"), "survivor").expect("client");
    let reason = client.drive(&oracle, None).expect("resume drive");
    assert_eq!(reason, twin_reason);
    drop(client);

    // Same final report as the uninterrupted twin (also rehydrated).
    assert_eq!(report(addr, "survivor"), report(addr, "twin"));
    server.join().expect("server thread").expect("serve");
}
