//! A minimal line-protocol client that times each exchange.

use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use gdr_serve::wire::{decode_response_frame, encode_request_frame, Request, Response};

/// One connection.  Pipelined connections tag every frame with a `seq`;
/// the others send bare frames and keep one request in flight.
pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    pipelined: bool,
    next_seq: u64,
    out: String,
    line: String,
    /// When the connection last finished a send or a receive; `None`
    /// before its first send.
    idle_since: Option<Instant>,
    /// Time `connect` took.
    pub connect: Duration,
    /// When the last `send` started encoding its request.
    pub last_sent: Instant,
    /// Client time between the connection's previous send or receive and
    /// the last `send` (zero for the first send).
    pub last_gap: Duration,
    /// Time the last `send` spent encoding its request.
    pub last_encode: Duration,
    /// When the last `recv` finished decoding its reply.
    pub received: Instant,
    /// Time the last `recv` spent decoding its reply.
    pub last_decode: Duration,
}

impl Conn {
    /// Connects with Nagle's algorithm off, like the shipped clients.
    pub fn connect(addr: SocketAddr, pipelined: bool) -> io::Result<Conn> {
        let started = Instant::now();
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let reader = BufReader::new(stream.try_clone()?);
        let now = Instant::now();
        Ok(Conn {
            reader,
            writer: stream,
            pipelined,
            next_seq: 0,
            out: String::new(),
            line: String::new(),
            idle_since: None,
            connect: now - started,
            last_sent: now,
            last_gap: Duration::ZERO,
            last_encode: Duration::ZERO,
            received: now,
            last_decode: Duration::ZERO,
        })
    }

    /// Sends one request; returns its `seq` (0 on bare connections).
    pub fn send(&mut self, request: &Request) -> io::Result<u64> {
        let seq = self.next_seq;
        self.next_seq += 1;
        let started = Instant::now();
        self.last_sent = started;
        self.last_gap = self.idle_since.map_or(Duration::ZERO, |t| started - t);
        self.out.clear();
        self.out.push_str(&encode_request_frame(
            request,
            self.pipelined.then_some(seq),
        ));
        self.out.push('\n');
        self.last_encode = started.elapsed();
        self.writer.write_all(self.out.as_bytes())?;
        self.idle_since = Some(Instant::now());
        Ok(if self.pipelined { seq } else { 0 })
    }

    /// Reads one reply and its `seq` (0 on bare connections).
    pub fn recv(&mut self) -> io::Result<(u64, Response)> {
        self.line.clear();
        if self.reader.read_line(&mut self.line)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        let started = Instant::now();
        let (seq, response) = decode_response_frame(self.line.trim()).map_err(io::Error::other)?;
        self.received = Instant::now();
        self.last_decode = self.received - started;
        self.idle_since = Some(self.received);
        Ok((seq.unwrap_or(0), response))
    }
}
