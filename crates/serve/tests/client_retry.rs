//! Client-side retry under a deliberately unreliable transport: connections
//! that die after a byte budget, mid-request and mid-reply.  The retrying
//! driver must finish the session with the exact same outcome as a driver
//! on a perfect link (duplicate deliveries after a resend are absorbed by
//! the server's `StaleWork`/`NoOutstandingWork` contract), and must give up
//! cleanly when the reconnect callback declines or the retry budget runs
//! out.

mod common;

use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;
use std::thread;

use common::figure1_spec;
use gdr_core::oracle::GroundTruthOracle;
use gdr_core::strategy::Strategy;
use gdr_relation::csv::to_csv;
use gdr_serve::client::{Client, ClientError, OpenOptions, RetryPolicy};
use gdr_serve::server::ServerConfig;
use gdr_serve::store::SessionStore;
use gdr_serve::wire::{Request, Response, WireError};

/// A transport half that serves exactly `budget` bytes, then fails every
/// call with `BrokenPipe` — a connection that dies under the client.
struct Flaky<T> {
    inner: T,
    remaining: usize,
}

impl<T> Flaky<T> {
    fn new(inner: T, budget: usize) -> Flaky<T> {
        Flaky {
            inner,
            remaining: budget,
        }
    }

    fn dead(&self) -> io::Error {
        io::Error::new(io::ErrorKind::BrokenPipe, "flaky transport died")
    }
}

impl<T: Read> Read for Flaky<T> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if self.remaining == 0 {
            return Err(self.dead());
        }
        let cap = buf.len().min(self.remaining);
        let n = self.inner.read(&mut buf[..cap])?;
        self.remaining -= n;
        Ok(n)
    }
}

impl<T: Write> Write for Flaky<T> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        if self.remaining == 0 {
            return Err(self.dead());
        }
        let cap = buf.len().min(self.remaining);
        let n = self.inner.write(&buf[..cap])?;
        self.remaining -= n;
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

/// Boots a shared in-memory server on a loopback port, accepting forever on
/// a detached thread.
fn spawn_server() -> std::net::SocketAddr {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let store = Arc::new(SessionStore::new());
    thread::spawn(move || ServerConfig::new().serve(listener, store));
    addr
}

/// A fresh flaky transport pair over a new TCP connection.
fn flaky_pair(addr: std::net::SocketAddr, budget: usize) -> (Flaky<TcpStream>, Flaky<TcpStream>) {
    let stream = TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).ok();
    let reader = stream.try_clone().expect("clone");
    (Flaky::new(reader, budget), Flaky::new(stream, budget))
}

/// Opens `session` over a clean connection and immediately disconnects.
fn open_session(addr: std::net::SocketAddr, session: &str) {
    let spec = figure1_spec(Strategy::GdrNoLearning, true);
    let mut client =
        Client::connect(TcpStream::connect(addr).expect("connect"), session).expect("client");
    client
        .open(
            to_csv(&spec.dirty),
            gdr_core::fixture::figure1_rules_text(),
            OpenOptions {
                strategy: Strategy::GdrNoLearning,
                ground_truth_csv: Some(to_csv(spec.ground_truth.as_ref().expect("truth"))),
                ..OpenOptions::default()
            },
        )
        .expect("open");
}

/// Zero-sleep policy so the suite stays fast.
fn eager_policy(max_retries: u32) -> RetryPolicy {
    RetryPolicy {
        max_retries,
        initial_backoff: std::time::Duration::ZERO,
        max_backoff: std::time::Duration::ZERO,
    }
}

#[test]
fn flaky_drive_finishes_identically_to_a_clean_twin() {
    let addr = spawn_server();
    let oracle = GroundTruthOracle::new(
        figure1_spec(Strategy::GdrNoLearning, true)
            .ground_truth
            .expect("truth"),
    );

    // The clean twin on a perfect link.
    open_session(addr, "clean");
    let mut clean =
        Client::connect(TcpStream::connect(addr).expect("connect"), "clean").expect("client");
    let clean_reason = clean.drive(&oracle, None).expect("clean drive");

    // The flaky run: every connection dies after a small byte budget, so
    // requests and replies are torn mid-line; each reconnect supplies a
    // fresh short-lived connection big enough for at least one round trip.
    open_session(addr, "flaky");
    let reconnects = Arc::new(AtomicU32::new(0));
    let counter = reconnects.clone();
    let (reader, writer) = flaky_pair(addr, 120);
    let mut flaky = Client::new(reader, writer, "flaky");
    let reason = flaky
        .drive_retrying(&oracle, None, &eager_policy(5), move |_attempt| {
            counter.fetch_add(1, Ordering::Relaxed);
            Some(flaky_pair(addr, 700))
        })
        .expect("flaky drive");

    assert_eq!(reason, clean_reason);
    assert!(
        reconnects.load(Ordering::Relaxed) > 0,
        "the flaky transport never failed — the test proved nothing"
    );

    // Both sessions must land on the identical server-side outcome.
    let report = |session: &str| -> Response {
        let mut client =
            Client::connect(TcpStream::connect(addr).expect("connect"), session).expect("client");
        client.report().expect("report")
    };
    assert_eq!(report("flaky"), report("clean"));
}

#[test]
fn gives_up_when_reconnect_declines() {
    let addr = spawn_server();
    open_session(addr, "declined");
    let (reader, writer) = flaky_pair(addr, 0); // dead on arrival
    let mut client = Client::new(reader, writer, "declined");
    let request = Request::Next {
        session: "declined".into(),
    };
    let err = client
        .call_with_retry(&request, &eager_policy(5), &mut |_| None)
        .expect_err("must give up");
    assert!(matches!(err, ClientError::Io(_)), "got {err:?}");
}

#[test]
fn gives_up_after_max_retries() {
    let addr = spawn_server();
    open_session(addr, "exhausted");
    let calls = AtomicU32::new(0);
    let (reader, writer) = flaky_pair(addr, 0);
    let mut client = Client::new(reader, writer, "exhausted");
    let request = Request::Next {
        session: "exhausted".into(),
    };
    let err = client
        .call_with_retry(&request, &eager_policy(2), &mut |_| {
            calls.fetch_add(1, Ordering::Relaxed);
            Some(flaky_pair(addr, 0)) // every replacement is dead too
        })
        .expect_err("must give up");
    assert!(matches!(err, ClientError::Io(_)), "got {err:?}");
    assert_eq!(
        calls.load(Ordering::Relaxed),
        2,
        "exactly max_retries reconnect attempts"
    );
}

#[test]
fn server_error_replies_are_answers_not_failures() {
    let addr = spawn_server();
    let (reader, writer) = flaky_pair(addr, usize::MAX);
    let mut client = Client::new(reader, writer, "nobody");
    let request = Request::Next {
        session: "nobody".into(),
    };
    // An unknown-session reply comes back as a response, never triggering
    // the retry machinery.
    let response = client
        .call_with_retry(&request, &eager_policy(5), &mut |_| {
            panic!("an error reply must not reconnect")
        })
        .expect("error replies are successful calls");
    assert_eq!(
        response,
        Response::Error(WireError::UnknownSession {
            session: "nobody".into()
        })
    );
}
