//! # gdr-serve — sessions over a transport
//!
//! Serves many concurrent Guided Data Repair sessions ([`gdr_core::step`]'s
//! pull-based engines) over a line-delimited JSON protocol.  Std-only by
//! design: the codec ([`json`]/[`wire`]) is hand-rolled, the transport is
//! `std::net::TcpListener`, and the server ([`server::ServerConfig`])
//! gives each connection a blocking reader and writer thread in front of
//! a bounded worker pool, over a **sharded**
//! [`store::SessionStore`] ([`store::STORE_SHARDS`] FNV-routed shards, so
//! traffic on one session never contends on another's shard lock).
//!
//! ## Concurrency model
//!
//! Three layers, each independently bounded:
//!
//! * **Connections** each get a reader and a writer thread (small fixed
//!   stacks, blocking I/O, so an idle server burns no CPU).  The reader
//!   decodes request lines of at most [`server::MAX_FRAME_BYTES`] and
//!   admits at most [`server::ServerConfig::max_outstanding`] requests
//!   whose reply the writer has not yet taken; the writer frees those
//!   slots as it takes a batch of replies, then writes it, so a connection
//!   holds at most that many queued replies plus one batch in flight.  A
//!   slow reader gets `busy` refusals and then TCP backpressure, never
//!   unbounded buffers.
//! * **Dispatch** runs on [`server::ServerConfig::workers`] pool threads,
//!   which hand replies to the writer and never touch a socket;
//!   `seq`-tagged requests from one connection run concurrently and reply
//!   out of order ([`wire`] documents the correlation contract), while
//!   bare requests keep the legacy strictly-in-order semantics.
//! * **Sessions** live in shard-local maps; each holds its own
//!   `Mutex<Session>`, so two verbs for two sessions proceed in parallel
//!   even from one connection.  LRU eviction charges a global budget but
//!   commits per shard.
//!
//! On the client side, every driver runs one per-lane state machine (see
//! [`client`]): [`client::MuxClient::drive_all`] pumps N solo lanes, one
//! per session, over one pipelined connection.
//!
//! This crate exists because the engine's error contract makes it safe: a
//! protocol violation from a remote client (stale work id, wrong cell,
//! double answer) returns a typed [`gdr_core::error::GdrError`] that maps
//! onto a structured error *reply* — the session, the connection, and every
//! other session keep working.  Cf. the crowdsourced-repair setting these
//! papers assume: many unreliable humans, one server that must not die.
//!
//! ## Wire format
//!
//! One JSON object per line in each direction.  Requests without a `seq`
//! tag are answered strictly in order; requests tagged `"seq":n` may be
//! pipelined and answered out of order, the reply echoing the tag (see
//! [`wire`] for the full protocol spec, including the `hello` version
//! handshake).  Blank lines are ignored.  Requests carry `"op"` and
//! (except `hello`) `"session"`:
//!
//! | op | fields | success reply |
//! |----|--------|---------------|
//! | `hello` | `version`? | `{"ok":"hello","version":2,"pipelining":true,"compact":true,"leases":true,"max_outstanding":n,"lease_ttl":n}` |
//! | `open` | `table_csv`, `rules`, `strategy`, `seed`?, `ground_truth_csv`?, `policy`?, `lease_ttl`? | `{"ok":"opened","session":…,"dirty_tuples":n}` |
//! | `next` | — | `ask` / `need_value` / `done` (below) |
//! | `answer` | `id`, `feedback` ∈ `confirm\|reject\|retain` | `{"ok":"answered","verifications":n}` |
//! | `supply` | `tuple`, `attr`, `value` | `{"ok":"supplied","verifications":n}` |
//! | `skip` | `tuple`, `attr` | `{"ok":"skipped"}` |
//! | `finish` | — | `{"ok":"done","reason":…}` |
//! | `report` | — | `{"ok":"report",…,"eval":{…}?}` |
//! | `restore` | — | `{"ok":"restored","replayed":n}` |
//! | `compact` | — | `{"ok":"compacted","events":n,"tail":n}` |
//! | `lease` | `reviewer` | `leased` / `fix` / `wait` / `done` (see [`wire`]) |
//! | `answer_as` | `reviewer`, `id`, `feedback` | `{"ok":"answered","verifications":n}` |
//! | `supply_as` | `reviewer`, `id`, `value` | `{"ok":"supplied","verifications":n}` |
//! | `skip_as` | `reviewer`, `id` | `{"ok":"skipped"}` |
//! | `release` | `reviewer`, `id` | `{"ok":"released","held":b}` |
//! | `leases` | — | `{"ok":"leases","leases":[{"id":…,"reviewer":…,"tuple":…,"attr":…,"age":…},…]}` |
//!
//! The last six are the **multi-reviewer** verbs (the `leases` capability
//! on `hello`): `lease` hands each named reviewer a distinct work item
//! under a TTL'd lease, disagreeing answers to the same cell resolve under
//! the `open`-time conflict policy (`first_wins`, `majority-<k>`, or
//! `escalate`), and the final state is equivalent to some serial
//! one-reviewer order.  `leases` is a read-only inspection of the live
//! lease table (it ticks no clock and expires nothing).
//! [`client::ReviewTeam`] pumps N reviewer lanes of one session over one
//! pipelined connection, sharing one answer budget.
//!
//! `next` replies with one of:
//!
//! ```text
//! {"ok":"ask","id":7,"tuple":3,"attr":1,"current":"Michigan Cty",
//!  "value":"Michigan City","score":0.25,"uncertainty":1.0,
//!  "group":{"attr":1,"value":"Michigan City","benefit":0.0625,
//!           "size":3,"quota":2,"asked":0}}
//! {"ok":"need_value","tuple":6,"attr":2,"current":"Colfax"}
//! {"ok":"done","reason":"exhausted|stalled|automatic_complete|finished"}
//! ```
//!
//! Cell values are type-faithful: JSON `null` ↔ `Null`, number ↔ `Int`,
//! string ↔ `Str` (so `"46360"` and `46360` stay distinct, as the repair
//! semantics require).  Tables travel as CSV documents (header row; the
//! `gdr_relation::csv` dialect), rules in the `gdr_cfd::parser` line
//! syntax.
//!
//! Errors are structured replies, never connection teardowns:
//!
//! ```text
//! {"err":"stale_work","got":8,"outstanding":7}
//! {"err":"work_mismatch","verb":"supply_value",
//!  "got":{"kind":"value","tuple":3,"attr":1},
//!  "outstanding":{"kind":"ask","id":7}}
//! {"err":"no_outstanding_work","verb":"answer"}
//! {"err":"unknown_session","session":…}   {"err":"duplicate_session","session":…}
//! {"err":"bad_request","detail":…}        {"err":"engine","detail":…}
//! {"err":"journal","detail":…}            {"err":"busy","max_outstanding":n}
//! ```
//!
//! The first three are *retryable*: the engine state is untouched, so the
//! client re-pulls `next`, gets the same plan (same work id) and continues.
//! The client's lane state machine implements exactly that recovery.
//!
//! ## Store and resume semantics
//!
//! Persistence is **replay-based**.  The engine is deterministic, so the
//! store journals, per session, (1) a spec record: the table and rules as
//! `open` parsed them, the strategy, the team configuration, the ground
//! truth if given, and the whole [`gdr_core::config::GdrConfig`], and (2)
//! every successful state-changing verb ([`store::TranscriptEvent`]): one
//! record, and one fsync under the default policy, per verb.  A team
//! verb's record also carries the resolutions it committed.  `restore`
//! rebuilds the engine from scratch and replays the transcript through
//! the public pull API; the result is bit-identical to the live engine —
//! quality checkpoints compared via `f64::to_bits` in this crate's tests,
//! at every interruption point.
//! Pulls are not journaled; replay infers them (see [`store`]).  A pull
//! after the last record is repeated by the next one with the same plan and
//! work id, so a client that was mid-question when the server died resumes
//! seamlessly, by pulling again or by answering the id it holds.  A verb
//! that fails journals nothing.
//!
//! The journal *is* the session history, so auditability comes for free and
//! the transcript stays the durability format of record.  Replay cost is
//! bounded by **compaction** ([`store::Session::compact`], auto-triggered
//! every [`journal::JournalConfig::compact_every`] tail events, or on
//! demand via the `compact` verb): the live session is encoded once
//! through the versioned state codec that runs through every layer
//! ([`gdr_core::team::TeamSession::state_bytes`]), and those bytes, in
//! `gdr_relation::codec`'s checksummed `S2` frame, become the replay base
//! while the absorbed tail is dropped from RAM, so a live `restore` decodes
//! the base and replays only the short tail.  A session thus holds one
//! decoded engine, the live one.  Validation replays the journal and
//! requires the result to re-encode to the live bytes exactly before the
//! snapshot is adopted; a divergence fails with a `journal` error and
//! changes nothing.  In durable mode the same frame is first *persisted* as
//! a `snap-NNNNNN.gdrs` checkpoint file, and a cold restart becomes *load
//! the newest valid checkpoint, replay only the journal tail* instead of
//! replaying the whole transcript.  The session digest
//! ([`journal::team_digest`]) is FNV-1a 64 of those canonical bytes, which
//! is also the frame's checksum.
//!
//! ## Durable session tier
//!
//! A [`store::SessionStore::durable`] store writes every session's journal
//! to disk under `root/<2-hex>/<escaped-id>/` — the two-hex-digit shard is
//! a prefix of the id's FNV-1a 64 hash ([`journal::session_shard`]), so
//! huge stores never pile thousands of directories into one listing — and
//! survives process death.
//!
//! * **Segment format** — every file is written in the `S2` frame of
//!   `gdr_relation::codec`: `S2 <len> <fnv64-hex> ` followed by `len`
//!   payload bytes, the checksum being FNV-1a 64 over the payload, and
//!   every integer in a payload a LEB128 varint.
//!   `spec.gdrj` holds one frame with the spec record in the state codec
//!   (its `create_new` creation is the atomic claim on a session id);
//!   events append to `seg-NNNNNN.gdrj` segments of concatenated frames,
//!   rolled at [`journal::JournalConfig::segment_max_bytes`], each payload
//!   a one-byte event tag and its fields.  `examples/journal_dump.rs`
//!   prints any journal directory as text.
//! * **Format break at `S2`** — files written before varint integers carry
//!   the `S1` magic and fixed-width integers.  This build has no decoder
//!   for them: [`codec::read_frame`](gdr_relation::codec::read_frame)
//!   refuses the `S1` spec record, so such a session fails to recover with
//!   a typed `journal` error naming the magic, its files are left as they
//!   are, and every other session keeps serving.
//! * **Section versions** — the spec has no fallback: a build reads only
//!   the `spec`, `table`, `dict`, `rules` and `config` section versions it
//!   writes.  `config` is at v3 (no worker count), `table` at v2 (a row
//!   count in place of row weights and a version counter) and the
//!   checkpoint's `asidx` at v2 (no value-keyed lookups or staleness
//!   watermark).  A session whose spec record holds an older section fails
//!   to recover with a typed `journal` error ([`store::StoreError::Gdr`])
//!   naming it, e.g. ``section `table` has version 1``, and every other
//!   session keeps serving.
//! * **Fsync policy** — [`journal::FsyncPolicy`]: `EveryRecord` (the
//!   default) fsyncs each record before its verb replies, so every
//!   acknowledged verb is on stable storage; `Never` (tests, benches)
//!   leaves flushing to the OS.  Sealed segments are always synced.  Disk
//!   is written *before* RAM, so the in-memory journal never claims more
//!   than stable storage.
//! * **Corruption semantics** — recovery scans for the longest valid record
//!   prefix: the first torn, short, malformed, or checksum-failing record
//!   truncates its segment (persisted with `set_len`, so repair is
//!   idempotent) and discards every later segment.  The session re-serves
//!   from the last durable record; [`journal::RecoveryReport`] says what
//!   was cut.
//! * **Checkpointed recovery** — each compaction persists the serialised
//!   session as `snap-NNNNNN.gdrs` (written tmp+fsync+rename; the frame's
//!   checksum is the session's [`journal::team_digest`]) and keeps the
//!   newest two; a temp file left by a write cut before its rename is
//!   deleted on load.  Recovery loads the newest checkpoint that decodes,
//!   re-encodes to its own payload, and is covered by the surviving event
//!   prefix — then replays only the journal tail onto the decoded session.  Damage degrades instead of
//!   failing: an unusable checkpoint is deleted and counted in
//!   [`journal::RecoveryReport::snapshots_skipped`], and recovery falls
//!   back to the older checkpoint and finally to full replay.
//!   The journal remains the format of record; checkpoints only cut the
//!   replay.  The fault-injection suite drives recovery from every
//!   kill/torn-write prefix of a recorded session and requires
//!   bit-identical continuation.
//! * **Idle eviction** — beyond
//!   [`store::DurabilityConfig::max_live_sessions`] the least-recently-used
//!   idle session is dropped from RAM (never one another thread holds) and
//!   rehydrated transparently — and bit-identically — on its next verb.
//!
//! On the client side, [`client::Client::drive_retrying`] runs one solo
//! lane of the same state machine over an untagged connection and hardens
//! it against transport failures: IO errors and torn replies reconnect
//! under a [`client::RetryPolicy`] (capped exponential backoff) and resend;
//! duplicated deliveries are absorbed by the server's `stale_work` /
//! `no_outstanding_work` contract.
//!
//! ## Quickstart (loopback)
//!
//! ```
//! use std::net::{TcpListener, TcpStream};
//! use std::sync::Arc;
//! use gdr_serve::client::{Client, OpenOptions};
//! use gdr_serve::server::ServerConfig;
//! use gdr_serve::store::SessionStore;
//! use gdr_core::strategy::Strategy;
//!
//! let listener = TcpListener::bind("127.0.0.1:0").unwrap();
//! let addr = listener.local_addr().unwrap();
//! let store = Arc::new(SessionStore::new());
//! let server = std::thread::spawn(move || {
//!     ServerConfig::new().max_connections(Some(1)).serve(listener, store)
//! });
//!
//! let (dirty, clean, rules) = gdr_core::fixture::figure1_instance();
//! let mut client = Client::connect(TcpStream::connect(addr).unwrap(), "demo").unwrap();
//! client
//!     .open(
//!         gdr_relation::csv::to_csv(&dirty),
//!         gdr_core::fixture::figure1_rules_text(),
//!         OpenOptions { strategy: Strategy::GdrNoLearning, ..OpenOptions::default() },
//!     )
//!     .unwrap();
//! let oracle = gdr_core::GroundTruthOracle::new(clean);
//! let reason = client.drive(&oracle, Some(4)).unwrap();
//! drop(client);
//! server.join().unwrap().unwrap();
//! # let _ = (rules, reason);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod journal;
pub mod json;
pub mod server;
pub mod store;
pub mod wire;

pub use client::{
    Client, ClientError, MuxClient, OpenOptions, RetryPolicy, ReviewOutcome, ReviewTeam,
    ServerHello,
};
pub use journal::{
    team_digest, DiskJournal, FsyncPolicy, JournalConfig, JournalError, RecoveryReport,
};
pub use json::{Json, JsonError};
pub use server::{dispatch, dispatch_with, ServerConfig, ServerLimits, MAX_FRAME_BYTES};
pub use store::{
    CompactionStats, DurabilityConfig, OpenSpec, Session, SessionJournal, SessionOptions,
    SessionStore, StoreError, TranscriptEvent, STORE_SHARDS,
};
pub use wire::{Request, Response, WireError, WireTarget, PROTOCOL_VERSION};
