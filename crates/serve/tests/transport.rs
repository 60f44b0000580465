//! Transport limits of the threaded server: a client that never reads its
//! replies cannot stall another connection, and an over-long,
//! over-nested or non-UTF-8 request line costs its sender a `bad_request`
//! reply, never the connection or the server.

use std::io::{BufRead, BufReader, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use gdr_core::fixture;
use gdr_core::oracle::GroundTruthOracle;
use gdr_core::strategy::Strategy;
use gdr_relation::csv::to_csv;
use gdr_serve::client::{Client, OpenOptions};
use gdr_serve::server::{ServerConfig, MAX_FRAME_BYTES};
use gdr_serve::wire::{
    decode_response_frame, encode_request_frame, Request, Response, WireError, PROTOCOL_VERSION,
};

fn spawn_server(config: ServerConfig) -> (SocketAddr, thread::JoinHandle<std::io::Result<()>>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("local addr");
    let store = config.build_store().expect("store");
    (addr, thread::spawn(move || config.serve(listener, store)))
}

fn hello_line() -> String {
    let hello = Request::Hello {
        version: PROTOCOL_VERSION,
    };
    format!("{}\n", encode_request_frame(&hello, None))
}

/// Connection A pipelines bare `hello`s and never reads a reply until the
/// server stops reading from it.  With a single worker, connection B still
/// drives a session to `Done`: workers hand replies to A's writer thread
/// and never block on A's full socket.
#[test]
fn a_client_that_never_reads_does_not_stall_another_connection() {
    let (addr, server) = spawn_server(ServerConfig::new().workers(1).max_connections(Some(2)));

    let flood = TcpStream::connect(addr).expect("connect flood");
    let flood_control = flood.try_clone().expect("clone flood");
    let sent = Arc::new(AtomicUsize::new(0));
    let flooder = {
        let sent = sent.clone();
        let mut flood = flood;
        thread::spawn(move || {
            let line = hello_line();
            while flood.write_all(line.as_bytes()).is_ok() {
                sent.fetch_add(1, Ordering::Relaxed);
            }
        })
    };
    // Wait until the flood has made no progress for a whole second: A's
    // replies fill the socket buffers, its backlog is at the cap, and the
    // server has stopped reading it (a slow reader only pauses the flood).
    let (mut last, mut quiet) = (0, 0);
    for _ in 0..150 {
        thread::sleep(Duration::from_millis(200));
        let now = sent.load(Ordering::Relaxed);
        quiet = if now > 0 && now == last { quiet + 1 } else { 0 };
        last = now;
        if quiet == 5 {
            break;
        }
    }
    assert_eq!(
        quiet, 5,
        "the server never pushed back on a client that does not read"
    );

    let (dirty, clean, _rules) = fixture::figure1_instance();
    let mut healthy =
        Client::connect(TcpStream::connect(addr).expect("connect"), "healthy").expect("client");
    healthy
        .open(
            to_csv(&dirty),
            fixture::figure1_rules_text(),
            OpenOptions {
                strategy: Strategy::GdrNoLearning,
                ..OpenOptions::default()
            },
        )
        .expect("open healthy");
    healthy
        .drive(&GroundTruthOracle::new(clean), None)
        .expect("drive healthy to Done while the other connection is unread");
    drop(healthy);
    assert_eq!(
        sent.load(Ordering::Relaxed),
        last,
        "the server went back to reading a client whose replies pile up"
    );

    flood_control
        .shutdown(Shutdown::Both)
        .expect("shutdown flood");
    flooder.join().expect("flood thread");
    drop(flood_control);
    server.join().expect("server thread").expect("serve");
}

/// A request line of `MAX_FRAME_BYTES + 1` bytes, then a `hello`.
fn over_long_line_then_hello() -> Vec<u8> {
    let mut bytes = vec![b'x'; MAX_FRAME_BYTES + 1];
    bytes.push(b'\n');
    bytes.extend_from_slice(hello_line().as_bytes());
    bytes
}

fn assert_bad_request_then_hello(replies: &mut impl BufRead) {
    let mut next = || {
        let mut line = String::new();
        assert!(
            replies.read_line(&mut line).expect("read reply") > 0,
            "early EOF"
        );
        decode_response_frame(line.trim()).expect("decode reply").1
    };
    let refused = next();
    assert!(
        matches!(refused, Response::Error(WireError::BadRequest { .. })),
        "expected bad_request, got {refused:?}"
    );
    let hello = next();
    assert!(
        matches!(hello, Response::Hello { .. }),
        "expected the hello reply, got {hello:?}"
    );
}

#[test]
fn an_over_long_line_is_refused_and_the_connection_keeps_serving() {
    let (addr, server) = spawn_server(ServerConfig::new().max_connections(Some(1)));
    let mut stream = TcpStream::connect(addr).expect("connect");
    let mut replies = BufReader::new(stream.try_clone().expect("clone"));
    stream
        .write_all(&over_long_line_then_hello())
        .expect("write request lines");
    assert_bad_request_then_hello(&mut replies);
    drop((stream, replies));
    server.join().expect("server thread").expect("serve");
}

/// Blank lines that arrive with a bare request do not hold its reply back:
/// the reader skips them and waits for more input, so the request must
/// already be running.  The connection stays open throughout, so hang-up
/// cannot be what starts it.
#[test]
fn blank_lines_behind_a_bare_request_do_not_hold_up_its_reply() {
    let (addr, server) = spawn_server(ServerConfig::new().max_connections(Some(1)));
    let mut stream = TcpStream::connect(addr).expect("connect");
    let reader = stream.try_clone().expect("clone");
    reader
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("read timeout");
    let mut replies = BufReader::new(reader);
    let mut next = || {
        let mut line = String::new();
        replies
            .read_line(&mut line)
            .expect("a reply before the timeout");
        decode_response_frame(line.trim()).expect("decode reply").1
    };

    stream
        .write_all(format!("{}\n", hello_line()).as_bytes())
        .expect("write hello and a blank line");
    let hello = next();
    assert!(matches!(hello, Response::Hello { .. }), "got {hello:?}");

    // A locally refused bare line, then whitespace-only lines (one of them
    // Unicode whitespace only).
    stream
        .write_all("not json\n \t\r\n\u{a0}\n".as_bytes())
        .expect("write a bad line and blank lines");
    let refused = next();
    assert!(
        matches!(refused, Response::Error(WireError::BadRequest { .. })),
        "got {refused:?}"
    );

    drop((stream, replies));
    server.join().expect("server thread").expect("serve");
}

/// A deeply nested line is decoded on the connection's small-stack reader
/// thread; the parser's nesting bound turns it into a `bad_request`.
#[test]
fn a_deeply_nested_line_is_refused_without_crashing_the_reader() {
    let (addr, server) = spawn_server(ServerConfig::new().max_connections(Some(1)));
    let mut stream = TcpStream::connect(addr).expect("connect");
    let mut replies = BufReader::new(stream.try_clone().expect("clone"));
    let mut bytes = "[".repeat(100_000).into_bytes();
    bytes.push(b'\n');
    bytes.extend_from_slice(hello_line().as_bytes());
    stream.write_all(&bytes).expect("write request lines");
    assert_bad_request_then_hello(&mut replies);
    drop((stream, replies));
    server.join().expect("server thread").expect("serve");
}

/// A line that is not valid UTF-8 is refused, not decoded lossily: the ids
/// `a\xFE` and `a\xFF` would otherwise both read as `a\u{FFFD}` and name
/// one session, so the second `open` would fail as a duplicate.
#[test]
fn a_line_that_is_not_utf8_is_refused_and_the_connection_keeps_serving() {
    let (addr, server) = spawn_server(ServerConfig::new().max_connections(Some(1)));
    let mut stream = TcpStream::connect(addr).expect("connect");
    let mut replies = BufReader::new(stream.try_clone().expect("clone"));
    let (dirty, _clean, _rules) = fixture::figure1_instance();
    let open = Request::Open {
        session: "a~".to_string(),
        table_csv: to_csv(&dirty),
        rules: fixture::figure1_rules_text().to_string(),
        strategy: Strategy::GdrNoLearning,
        seed: None,
        ground_truth_csv: None,
        policy: None,
        lease_ttl: None,
    };
    let line = format!("{}\n", encode_request_frame(&open, None)).into_bytes();
    let at = line
        .windows(4)
        .position(|w| w == b"\"a~\"")
        .expect("session id in the open line")
        + 2;
    for invalid in [0xFE, 0xFF] {
        let mut bytes = line.clone();
        bytes[at] = invalid;
        bytes.extend_from_slice(hello_line().as_bytes());
        stream.write_all(&bytes).expect("write request lines");
        assert_bad_request_then_hello(&mut replies);
    }
    drop((stream, replies));
    server.join().expect("server thread").expect("serve");
}
