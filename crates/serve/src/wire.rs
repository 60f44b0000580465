//! The wire protocol specification: framing, correlation, versioning.
//!
//! This module is the typed boundary of the protocol — it maps
//! [`Request`]/[`Response`] values to [`Json`] lines and back — and its
//! docs are the protocol's normative spec.
//!
//! # Framing
//!
//! A connection carries a byte stream in each direction.  Each direction is
//! a sequence of *frames*; a frame is one JSON object encoded on one line,
//! terminated by `\n`.  A frame never contains a raw newline (the JSON
//! string escapes cover payloads).  Blank lines are ignored on receipt.
//! A line that is not a JSON object, or that violates the schemas below, is
//! answered with a `bad_request` error reply on the same connection; the
//! connection itself survives every protocol violation.
//!
//! Client → server frames carry `"op"` naming the verb, `"session"` naming
//! the target session (every verb except `hello`), the verb's own fields,
//! and optionally `"seq"` (see *Correlation*).  Server → client frames
//! carry either `"ok"` (success, named by kind) or `"err"` (structured
//! error, named by kind), the reply's own fields, and `"seq"` when the
//! request carried one.
//!
//! # Correlation and pipelining (`seq`)
//!
//! * A request **without** `seq` keeps the legacy contract: the server
//!   processes it in arrival order relative to other `seq`-less requests on
//!   the same connection and delivers its reply before theirs — strict
//!   in-order request → reply, exactly the pre-pipelining protocol.
//! * A request **with** `seq` (a client-chosen `u64`) may be answered **out
//!   of order**: the server echoes `seq` verbatim on the reply, and the
//!   client matches replies to requests by that echo, never by arrival
//!   order.  One connection can therefore keep many requests — typically
//!   verbs for many different sessions — in flight at once.
//! * `seq` values need not be unique or monotonic as far as the server is
//!   concerned (the echo is verbatim); a client that pipelines must make
//!   them unique among its own in-flight requests or it cannot match
//!   replies.  [`crate::client::MuxClient`] allocates them monotonically.
//!
//! # Version negotiation (`hello`)
//!
//! `{"op":"hello","version":v}` (version optional, default 1) is the only
//! verb with no `session`.  The server answers
//! `{"ok":"hello","version":V,"pipelining":b,"compact":b,"leases":b,
//! "max_outstanding":n,"lease_ttl":n}`: `V` is the protocol version it
//! speaks ([`PROTOCOL_VERSION`]), `pipelining` whether `seq` correlation is
//! supported, `compact` whether the `compact` verb is, and `leases` whether
//! the multi-reviewer verbs below are.  The two limits let a client
//! self-configure: `max_outstanding` is the per-connection in-flight cap
//! behind the `busy` reply, and `lease_ttl` is the default lease
//! time-to-live (in coordinator operations) a session opens with.  A client
//! that never sends `hello` gets legacy (version 1) behaviour — the
//! handshake is advisory, not mandatory.  Servers answer `hello` at any
//! point, not just first.
//!
//! # Multi-reviewer verbs (the `leases` capability)
//!
//! Every session is a multi-reviewer session; the single-user verbs are the
//! degenerate one-reviewer case.  `open` takes two optional fields:
//! `policy` (a conflict-policy token, see *Field encodings*; default
//! `first_wins`) and `lease_ttl` (coordinator operations a lease survives;
//! default server-chosen).  The verbs, each carrying the reviewer's
//! self-chosen id in `"reviewer"`:
//!
//! * `lease` — `{"op":"lease","session":s,"reviewer":r}` asks for a work
//!   item this reviewer may decide.  Replies: `leased` (verify a suggested
//!   update; answer with `answer_as` naming the returned lease `id`), `fix`
//!   (type the correct value for a cell; answer with `supply_as` /
//!   `skip_as`), `wait` (other reviewers hold every currently-servable
//!   item — drain a reply and re-`lease`), or `done`.
//! * `answer_as` — `{"op":"answer_as","session":s,"reviewer":r,"id":i,
//!   "feedback":f}` answers a `leased` item; replies `answered`.
//! * `supply_as` / `skip_as` — answer a `fix` item with a typed value (or
//!   decline); replies `supplied` / `skipped`.
//! * `release` — `{"op":"release","session":s,"reviewer":r,"id":i}` hands a
//!   lease back unanswered (reviewer navigating away); replies
//!   `{"ok":"released","held":b}` where `held` says whether the lease was
//!   still live.  Releasing an expired or foreign lease is a no-op, not an
//!   error.
//! * `leases` — `{"op":"leases","session":s}` inspects the live lease table
//!   without ticking the coordinator clock or expiring anything; replies
//!   `{"ok":"leases","leases":[{"id":i,"reviewer":r,"tuple":t,"attr":a,
//!   "age":n},..]}` in grant order, where `age` counts coordinator
//!   operations since the grant.
//!
//! A lease also dies on its own once its TTL elapses; the work is then
//! re-served to the next `lease` caller, and a late `answer_as` on the dead
//! lease gets the usual retryable `stale_work` reply.  Conflicting answers
//! to the same cell resolve under the session's policy before the engine
//! sees them, so the observable repair equals some serial one-reviewer
//! order.
//!
//! # Field encodings
//!
//! Each message is one object whose members are listed, in order, by its
//! row in the schema tables at the end of this module; an optional member
//! is left out when absent, and the decoders also read `null` as absent.
//! The member values:
//!
//! * Counts, tuple and attribute ids are JSON integers.  A `u64` — work
//!   and lease ids, `seq`, `seed`, `lease_ttl`, lease `age` — is an integer
//!   up to `i64::MAX` and a decimal string above it (`u64::MAX` is
//!   `"18446744073709551615"`); decoders accept either form for any value.
//! * Cell values are type-faithful: `null` is `Null`, an integer is `Int`,
//!   a string is `Str`, so `Str("42")` and `Int(42)` stay distinct on the
//!   wire (strict equality matters to the repair semantics).
//! * Scores and evaluation figures are JSON numbers.
//! * `strategy` is one of `gdr`, `gdr_no_learning`, `gdr_s_learning`,
//!   `active_learning`, `greedy`, `random` and `heuristic`.
//! * `feedback` is one of `confirm`, `reject` and `retain`.
//! * A `done` reply's `reason` is one of `exhausted`, `stalled`,
//!   `automatic_complete` and `finished`.
//! * `policy` is `first_wins`, `escalate`, or `majority-<k>` (e.g.
//!   `majority-3`), where `<k>` is a plain decimal: digits only, no sign,
//!   and no leading zero unless `<k>` is `0` itself.
//!
//! An unknown token, a missing member or a wrongly typed one makes the frame
//! malformed.  When a frame has several faults, the error names the first
//! in row order.
//!
//! # Error replies
//!
//! Errors are structured replies, never connection teardowns.  The kinds:
//!
//! * `stale_work`, `work_mismatch`, `no_outstanding_work` — the engine's
//!   typed protocol errors, **retryable**: engine state is untouched, the
//!   client re-pulls `next` and continues ([`WireError`] mirrors
//!   [`GdrError`] one-to-one so remote recovery equals local recovery).
//! * `unknown_session`, `duplicate_session` — store-level id errors.
//! * `bad_request` — the frame itself was malformed (carries `seq` when one
//!   was decodable from the offending frame).
//! * `busy` — backpressure: the connection has `max_outstanding` requests
//!   already in flight and the server refused this one *without running
//!   it*.  Retryable after draining replies; carries the cap.
//! * `engine`, `journal` — rendered engine/durability errors; a `journal`
//!   error means the verb applied but may not be durable yet.
//!
//! Every constructor in this module is total over its input: a malformed
//! line decodes to an `Err(String)` (which the server answers with a
//! `bad_request` reply), never a panic.

use gdr_core::error::{GdrError, WorkTarget};
use gdr_core::step::DoneReason;
use gdr_core::strategy::Strategy;
use gdr_core::team::ConflictPolicy;
use gdr_relation::Value;
use gdr_repair::Feedback;

use crate::json::Json;

/// The protocol version this build speaks.  Version 1 is the pre-`seq`
/// in-order protocol; version 2 adds `seq` correlation, `hello`, and the
/// `busy` backpressure reply.  Both are served by the same endpoint — a
/// frame's behaviour depends only on whether *it* carries `seq`.
pub const PROTOCOL_VERSION: u32 = 2;

/// A client → server message.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Negotiate: ask the server for its protocol version and capability
    /// flags.  The only verb without a session; touches nothing.
    Hello {
        /// The highest protocol version the client speaks.
        version: u32,
    },
    /// Create a session: the build inputs travel with the request (table and
    /// optional ground truth as CSV documents, rules in the `gdr-cfd` line
    /// syntax) and are journaled verbatim for replay-based restore.
    Open {
        /// Session id chosen by the client; opening an existing id fails.
        session: String,
        /// The dirty instance, as a CSV document with a header row.
        table_csv: String,
        /// The data-quality rules, in the `gdr_cfd::parser` line syntax.
        rules: String,
        /// The session's strategy (a token, see the module docs).
        strategy: Strategy,
        /// Optional seed override for the session's randomness.
        seed: Option<u64>,
        /// Optional ground truth (CSV): installs evaluation hooks so
        /// `report` carries loss/accuracy — the simulated-user setting.
        ground_truth_csv: Option<String>,
        /// Optional conflict policy for multi-reviewer sessions (a token,
        /// see the module docs); absent → `first_wins`.
        policy: Option<ConflictPolicy>,
        /// Optional lease TTL in coordinator operations; absent → the
        /// server's default (reported by `hello`).
        lease_ttl: Option<u64>,
    },
    /// Pull the next work item (idempotent while one is outstanding).
    Next {
        /// Target session.
        session: String,
    },
    /// Answer the outstanding `AskUser` item.
    Answer {
        /// Target session.
        session: String,
        /// The raw work id from the `ask` reply.
        id: u64,
        /// The user's verdict.
        feedback: Feedback,
    },
    /// Supply the correct value for the outstanding `NeedsValue` cell.
    Supply {
        /// Target session.
        session: String,
        /// Tuple id of the cell.
        tuple: usize,
        /// Attribute id of the cell.
        attr: usize,
        /// The correct value.
        value: Value,
    },
    /// Decline the outstanding `NeedsValue` cell.
    Skip {
        /// Target session.
        session: String,
        /// Tuple id of the cell.
        tuple: usize,
        /// Attribute id of the cell.
        attr: usize,
    },
    /// End the session from the client side (budget or patience exhausted).
    Finish {
        /// Target session.
        session: String,
    },
    /// Summarise the session.
    Report {
        /// Target session.
        session: String,
    },
    /// Discard the live engine and rebuild it by replaying the journal —
    /// the recovery path after a crash or a poisoned session.
    Restore {
        /// Target session.
        session: String,
    },
    /// Compact the session's journal: snapshot the current engine and drop
    /// the replayed transcript prefix from memory (and, in durable mode,
    /// record the checkpoint on disk).
    Compact {
        /// Target session.
        session: String,
    },
    /// Lease a work item for one named reviewer (the multi-reviewer pull).
    Lease {
        /// Target session.
        session: String,
        /// The reviewer's self-chosen id.
        reviewer: String,
    },
    /// Answer a `leased` item as a named reviewer.
    AnswerAs {
        /// Target session.
        session: String,
        /// The reviewer's self-chosen id.
        reviewer: String,
        /// The raw lease id from the `leased` reply.
        id: u64,
        /// The reviewer's verdict.
        feedback: Feedback,
    },
    /// Supply the correct value for a `fix` item as a named reviewer.
    SupplyAs {
        /// Target session.
        session: String,
        /// The reviewer's self-chosen id.
        reviewer: String,
        /// The raw lease id from the `fix` reply.
        id: u64,
        /// The correct value.
        value: Value,
    },
    /// Decline a `fix` item as a named reviewer.
    SkipAs {
        /// Target session.
        session: String,
        /// The reviewer's self-chosen id.
        reviewer: String,
        /// The raw lease id from the `fix` reply.
        id: u64,
    },
    /// Hand a lease back unanswered so another reviewer can take the item.
    Release {
        /// Target session.
        session: String,
        /// The reviewer's self-chosen id.
        reviewer: String,
        /// The raw lease id being released.
        id: u64,
    },
    /// Inspect the session's live lease table.  Read-only: ticks no
    /// coordinator clock and expires nothing, so an operator can watch who
    /// holds what without perturbing the session.
    Leases {
        /// Target session.
        session: String,
    },
}

/// Group provenance on an `ask` reply (mirror of
/// [`gdr_core::step::GroupContext`], flattened for the wire).
#[derive(Debug, Clone, PartialEq)]
pub struct WireGroup {
    /// Attribute every member of the group modifies.
    pub attr: usize,
    /// Value every member suggests.
    pub value: Value,
    /// Group benefit the ranking selected on.
    pub benefit: f64,
    /// Group size at selection time.
    pub size: usize,
    /// User-verification quota for the group.
    pub quota: usize,
    /// Answers already given inside the group.
    pub asked: usize,
}

/// One live lease on a `leases` reply (mirror of
/// [`gdr_core::team::LeaseInfo`], flattened for the wire).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireLease {
    /// The lease's raw work id (what the holder answers with).
    pub id: u64,
    /// The reviewer holding the lease.
    pub reviewer: String,
    /// Tuple of the leased cell.
    pub tuple: usize,
    /// Attribute of the leased cell.
    pub attr: usize,
    /// Age of the lease in coordinator clock ticks.
    pub age: u64,
}

/// Evaluation figures on a `report` reply (present only when the session
/// was opened with a ground truth).
#[derive(Debug, Clone, PartialEq)]
pub struct WireEval {
    /// Loss of the initial instance (Eq. 3).
    pub initial_loss: f64,
    /// Loss of the current instance.
    pub final_loss: f64,
    /// Quality improvement in percent.
    pub improvement_pct: f64,
    /// Precision of the applied repairs.
    pub precision: f64,
    /// Recall of the applied repairs.
    pub recall: f64,
}

/// A server → client message.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// `hello`: the server's protocol version, capabilities, and limits.
    Hello {
        /// Protocol version the server speaks ([`PROTOCOL_VERSION`]).
        version: u32,
        /// Whether `seq`-correlated pipelined frames are supported.
        pipelining: bool,
        /// Whether the `compact` journal verb is supported.
        compact: bool,
        /// Whether the multi-reviewer lease verbs are supported.
        leases: bool,
        /// Per-connection in-flight request cap (the `busy` threshold);
        /// `0` when the server did not report one.
        max_outstanding: usize,
        /// Default lease TTL (coordinator operations) sessions open with;
        /// `0` when the server did not report one.
        lease_ttl: u64,
    },
    /// The session was created.
    Opened {
        /// Echo of the session id.
        session: String,
        /// Number of dirty tuples in the opened instance.
        dirty_tuples: usize,
    },
    /// `next`: show this update to the user.
    Ask {
        /// Raw work id to pass back with `answer`.
        id: u64,
        /// Tuple of the suggested update.
        tuple: usize,
        /// Attribute of the suggested update.
        attr: usize,
        /// The cell's current value.
        current: Value,
        /// The suggested new value.
        value: Value,
        /// Update-evaluation score `s ∈ [0, 1]`.
        score: f64,
        /// Committee-disagreement uncertainty of the prediction.
        uncertainty: f64,
        /// Group provenance; absent for the pool strategy.
        group: Option<WireGroup>,
    },
    /// `next`: no suggestion covers this dirty cell; the user may supply
    /// the correct value directly, or skip.
    NeedValue {
        /// Tuple of the cell.
        tuple: usize,
        /// Attribute of the cell.
        attr: usize,
        /// The cell's current value.
        current: Value,
    },
    /// `next`/`finish`: the session is over.
    Done {
        /// Why (a token, see the module docs).
        reason: DoneReason,
    },
    /// `answer` was applied.
    Answered {
        /// Verifications consumed so far (the driver's budget meter).
        verifications: usize,
    },
    /// `supply` was applied.
    Supplied {
        /// Verifications consumed so far.
        verifications: usize,
    },
    /// `skip` was applied.
    Skipped,
    /// `report`: the session summary.
    Report {
        /// Verifications consumed.
        verifications: usize,
        /// Updates decided automatically by the learner.
        learner_decisions: usize,
        /// Tuples still violating some rule.
        dirty_tuples: usize,
        /// Evaluation figures, when the session has a ground truth.
        eval: Option<WireEval>,
    },
    /// `restore`: the engine was rebuilt from the journal.
    Restored {
        /// Number of transcript events replayed.
        replayed: usize,
    },
    /// `compact`: the journal was snapshotted and its prefix dropped.
    Compacted {
        /// Total events the session has applied (snapshot + tail).
        events: usize,
        /// Events still held as the replayable tail after compaction.
        tail: usize,
    },
    /// `lease`: verify this suggested update (answer with `answer_as`).
    Leased {
        /// Raw lease id to pass back with `answer_as`.
        id: u64,
        /// Tuple of the suggested update.
        tuple: usize,
        /// Attribute of the suggested update.
        attr: usize,
        /// The cell's current value.
        current: Value,
        /// The suggested new value.
        value: Value,
        /// Update-evaluation score `s ∈ [0, 1]`.
        score: f64,
    },
    /// `lease`: type the correct value for this cell (answer with
    /// `supply_as` or `skip_as`).
    Fix {
        /// Raw lease id to pass back with `supply_as`/`skip_as`.
        id: u64,
        /// Tuple of the cell.
        tuple: usize,
        /// Attribute of the cell.
        attr: usize,
        /// The cell's current value.
        current: Value,
    },
    /// `lease`: every currently-servable item is leased to other
    /// reviewers — drain a reply and ask again.
    Wait,
    /// `release` was processed.
    Released {
        /// Whether the lease was still live when released (`false` for an
        /// already-expired, already-answered, or foreign lease).
        held: bool,
    },
    /// `leases`: the session's live lease table, in grant order.
    Leases {
        /// Every currently live lease.
        leases: Vec<WireLease>,
    },
    /// Any request may fail with a structured error instead.
    Error(WireError),
}

/// The structured error replies.  The first three mirror
/// [`GdrError`]'s protocol variants one-to-one, so a client can implement
/// the same recovery a local driver would (re-pull `next`, retry).
#[derive(Debug, Clone, PartialEq)]
pub enum WireError {
    /// `answer` named a work id other than the outstanding one.
    StaleWork {
        /// The id the client sent.
        got: u64,
        /// The id actually outstanding.
        outstanding: u64,
    },
    /// The verb does not fit the outstanding work item.
    WorkMismatch {
        /// The verb that was attempted.
        verb: String,
        /// What the client addressed.
        got: WireTarget,
        /// What is actually outstanding.
        outstanding: WireTarget,
    },
    /// Nothing is outstanding (double answer, answer after finish, …).
    NoOutstandingWork {
        /// The verb that was attempted.
        verb: String,
    },
    /// The session id is not in the store.
    UnknownSession {
        /// The offending id.
        session: String,
    },
    /// `open` named an id that already exists.
    DuplicateSession {
        /// The offending id.
        session: String,
    },
    /// The request line could not be decoded (bad JSON, missing field,
    /// unknown op, bad CSV/rules payload, …).
    BadRequest {
        /// What was wrong with it.
        detail: String,
    },
    /// Backpressure: the connection already has its maximum number of
    /// requests in flight and this one was refused **without being run**.
    /// Retryable once replies have been drained.
    Busy {
        /// The per-connection outstanding-request cap that was hit.
        max_outstanding: usize,
    },
    /// An engine-side error (repair substrate).
    Engine {
        /// Rendered error.
        detail: String,
    },
    /// A durability-layer error (journal append/fsync/compaction).  The
    /// verb was applied to the live engine; the client should treat the
    /// step as possibly-not-durable (see [`GdrError::Journal`]).
    Journal {
        /// Rendered error.
        detail: String,
    },
}

/// Wire form of [`WorkTarget`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireTarget {
    /// An `AskUser` item, by raw work id.
    Ask(u64),
    /// A `NeedsValue` item, by cell.
    Value(usize, usize),
}

impl From<WorkTarget> for WireTarget {
    fn from(target: WorkTarget) -> WireTarget {
        match target {
            WorkTarget::Ask(id) => WireTarget::Ask(id.raw()),
            WorkTarget::Value((t, a)) => WireTarget::Value(t, a),
        }
    }
}

impl From<GdrError> for WireError {
    fn from(err: GdrError) -> WireError {
        match err {
            GdrError::StaleWork { got, outstanding } => WireError::StaleWork {
                got: got.raw(),
                outstanding: outstanding.raw(),
            },
            GdrError::WorkMismatch {
                verb,
                got,
                outstanding,
            } => WireError::WorkMismatch {
                verb: verb.to_string(),
                got: got.into(),
                outstanding: outstanding.into(),
            },
            GdrError::NoOutstandingWork { verb } => WireError::NoOutstandingWork {
                verb: verb.to_string(),
            },
            GdrError::Engine(err) => WireError::Engine {
                detail: err.to_string(),
            },
            GdrError::Journal { detail } => WireError::Journal { detail },
        }
    }
}

// ---- field codecs ---------------------------------------------------------

/// How one member value maps to JSON and back.  Every message below is a
/// table of such fields, so a type's encoding is written once and shared by
/// every message that carries it.
trait Field: Sized {
    /// The member's JSON, or `None` to omit the member.
    fn encode(&self) -> Option<Json>;
    /// Decodes member `key`, given its JSON (`None` when the frame lacks it).
    fn decode(json: Option<&Json>, key: &str) -> Result<Self, String>;
}

/// Decodes member `key` of an object.
fn get<T: Field>(json: &Json, key: &str) -> Result<T, String> {
    T::decode(json.get(key), key)
}

fn present<'j>(json: Option<&'j Json>, key: &str) -> Result<&'j Json, String> {
    json.ok_or_else(|| format!("missing field `{key}`"))
}

fn str_member<'j>(json: Option<&'j Json>, key: &str) -> Result<&'j str, String> {
    present(json, key)?
        .as_str()
        .ok_or_else(|| format!("field `{key}` must be a string"))
}

fn not_a_count(key: &str) -> String {
    format!("field `{key}` must be a non-negative integer")
}

/// The members of one object, in row order, leaving out the ones whose
/// value encodes to `None`; one spare slot takes a trailing `seq`.
fn row<const N: usize>(fields: [(&str, Option<Json>); N]) -> Vec<(String, Json)> {
    let mut members = Vec::with_capacity(N + 1);
    for (key, value) in fields {
        if let Some(value) = value {
            members.push((key.to_string(), value));
        }
    }
    members
}

impl Field for String {
    fn encode(&self) -> Option<Json> {
        Some(Json::str(self.as_str()))
    }
    fn decode(json: Option<&Json>, key: &str) -> Result<String, String> {
        str_member(json, key).map(str::to_string)
    }
}

impl Field for usize {
    fn encode(&self) -> Option<Json> {
        Some(Json::Int(*self as i64))
    }
    fn decode(json: Option<&Json>, key: &str) -> Result<usize, String> {
        present(json, key)?
            .as_i64()
            .and_then(|i| usize::try_from(i).ok())
            .ok_or_else(|| not_a_count(key))
    }
}

/// The JSON tree carries integers as `i64`, so the upper half of the `u64`
/// range rides as a decimal string (see the module docs).
impl Field for u64 {
    fn encode(&self) -> Option<Json> {
        Some(match i64::try_from(*self) {
            Ok(i) => Json::Int(i),
            Err(_) => Json::str(self.to_string()),
        })
    }
    fn decode(json: Option<&Json>, key: &str) -> Result<u64, String> {
        match present(json, key)? {
            Json::Int(i) => u64::try_from(*i).ok(),
            Json::Str(s) => s.parse().ok(),
            _ => None,
        }
        .ok_or_else(|| not_a_count(key))
    }
}

impl Field for u32 {
    fn encode(&self) -> Option<Json> {
        Some(Json::Int(i64::from(*self)))
    }
    fn decode(json: Option<&Json>, key: &str) -> Result<u32, String> {
        u32::try_from(u64::decode(json, key)?)
            .map_err(|_| format!("field `{key}` must fit in 32 bits"))
    }
}

impl Field for f64 {
    fn encode(&self) -> Option<Json> {
        Some(Json::Float(*self))
    }
    fn decode(json: Option<&Json>, key: &str) -> Result<f64, String> {
        present(json, key)?
            .as_f64()
            .ok_or_else(|| format!("field `{key}` must be a number"))
    }
}

impl Field for bool {
    fn encode(&self) -> Option<Json> {
        Some(Json::Bool(*self))
    }
    fn decode(json: Option<&Json>, key: &str) -> Result<bool, String> {
        present(json, key)?
            .as_bool()
            .ok_or_else(|| format!("field `{key}` must be a boolean"))
    }
}

impl Field for Value {
    fn encode(&self) -> Option<Json> {
        Some(match self {
            Value::Null => Json::Null,
            Value::Int(i) => Json::Int(*i),
            Value::Str(s) => Json::str(s.as_str()),
        })
    }
    fn decode(json: Option<&Json>, key: &str) -> Result<Value, String> {
        match present(json, key)? {
            Json::Null => Ok(Value::Null),
            Json::Int(i) => Ok(Value::Int(*i)),
            Json::Str(s) => Ok(Value::Str(s.clone())),
            _ => Err(format!(
                "field `{key}` must be null, an integer, or a string"
            )),
        }
    }
}

/// Absent when `None`; a missing or `null` member decodes to `None`.
impl<T: Field> Field for Option<T> {
    fn encode(&self) -> Option<Json> {
        self.as_ref().and_then(T::encode)
    }
    fn decode(json: Option<&Json>, key: &str) -> Result<Option<T>, String> {
        match json {
            None | Some(Json::Null) => Ok(None),
            json => T::decode(json, key).map(Some),
        }
    }
}

impl<T: Field> Field for Vec<T> {
    fn encode(&self) -> Option<Json> {
        Some(Json::Array(self.iter().filter_map(T::encode).collect()))
    }
    fn decode(json: Option<&Json>, key: &str) -> Result<Vec<T>, String> {
        present(json, key)?
            .as_array()
            .ok_or_else(|| format!("field `{key}` must be an array"))?
            .iter()
            .map(|item| T::decode(Some(item), key))
            .collect()
    }
}

/// A field written as one token of a fixed table.
macro_rules! tokens {
    ($ty:ty, $what:literal { $($variant:path = $token:literal),+ $(,)? }) => {
        impl Field for $ty {
            fn encode(&self) -> Option<Json> {
                Some(Json::str(match self {
                    $($variant => $token),+
                }))
            }
            fn decode(json: Option<&Json>, key: &str) -> Result<$ty, String> {
                match str_member(json, key)? {
                    $($token => Ok($variant),)+
                    other => Err(format!(concat!("unknown ", $what, " `{}`"), other)),
                }
            }
        }
    };
}

tokens!(Strategy, "strategy" {
    Strategy::Gdr = "gdr",
    Strategy::GdrNoLearning = "gdr_no_learning",
    Strategy::GdrSLearning = "gdr_s_learning",
    Strategy::ActiveLearningOnly = "active_learning",
    Strategy::Greedy = "greedy",
    Strategy::RandomOrder = "random",
    Strategy::AutomaticHeuristic = "heuristic",
});

tokens!(Feedback, "feedback" {
    Feedback::Confirm = "confirm",
    Feedback::Reject = "reject",
    Feedback::Retain = "retain",
});

tokens!(DoneReason, "done reason" {
    DoneReason::Exhausted = "exhausted",
    DoneReason::Stalled = "stalled",
    DoneReason::AutomaticComplete = "automatic_complete",
    DoneReason::Finished = "finished",
});

impl Field for ConflictPolicy {
    fn encode(&self) -> Option<Json> {
        Some(Json::str(match self {
            ConflictPolicy::FirstWins => "first_wins".to_string(),
            ConflictPolicy::Majority { k } => format!("majority-{k}"),
            ConflictPolicy::EscalateToNeedsValue => "escalate".to_string(),
        }))
    }
    fn decode(json: Option<&Json>, key: &str) -> Result<ConflictPolicy, String> {
        let token = str_member(json, key)?;
        let policy = match token {
            "first_wins" => Some(ConflictPolicy::FirstWins),
            "escalate" => Some(ConflictPolicy::EscalateToNeedsValue),
            other => other
                .strip_prefix("majority-")
                .filter(|digits| {
                    !digits.is_empty()
                        && digits.bytes().all(|b| b.is_ascii_digit())
                        && (digits.len() == 1 || !digits.starts_with('0'))
                })
                .and_then(|digits| digits.parse().ok())
                .map(|k| ConflictPolicy::Majority { k }),
        };
        policy.ok_or_else(|| format!("unknown policy `{token}`"))
    }
}

impl Field for WireTarget {
    fn encode(&self) -> Option<Json> {
        Some(Json::Object(match self {
            WireTarget::Ask(id) => row([("kind", Some(Json::str("ask"))), ("id", id.encode())]),
            WireTarget::Value(tuple, attr) => row([
                ("kind", Some(Json::str("value"))),
                ("tuple", tuple.encode()),
                ("attr", attr.encode()),
            ]),
        }))
    }
    fn decode(json: Option<&Json>, key: &str) -> Result<WireTarget, String> {
        let json = present(json, key)?;
        match str_member(json.get("kind"), "kind")? {
            "ask" => Ok(WireTarget::Ask(get(json, "id")?)),
            "value" => Ok(WireTarget::Value(get(json, "tuple")?, get(json, "attr")?)),
            other => Err(format!("unknown target kind `{other}`")),
        }
    }
}

/// A nested record: an object with one member per struct field.
macro_rules! record {
    ($ty:ident { $($field:ident),+ $(,)? }) => {
        impl Field for $ty {
            fn encode(&self) -> Option<Json> {
                Some(Json::Object(row([$((stringify!($field), self.$field.encode())),+])))
            }
            fn decode(json: Option<&Json>, key: &str) -> Result<$ty, String> {
                let json = present(json, key)?;
                Ok($ty { $($field: get(json, stringify!($field))?),+ })
            }
        }
    };
}

record! { WireGroup { attr, value, benefit, size, quota, asked } }
record! { WireEval { initial_loss, final_loss, improvement_pct, precision, recall } }
record! { WireLease { id, reviewer, tuple, attr, age } }

// ---- message tables -------------------------------------------------------

/// Decodes one table field; `field = default` stands in for a missing or
/// `null` member.
macro_rules! member {
    ($json:ident, $field:ident) => {
        get($json, stringify!($field))?
    };
    ($json:ident, $field:ident = $default:expr) => {
        get::<Option<_>>($json, stringify!($field))?.unwrap_or($default)
    };
}

/// Derives `members()` and `from_members()` of a message enum from its
/// table: one row `Variant "kind" { field, .. }` per variant, members in row
/// order after the `$tag` member naming the kind.  A frame carrying the
/// `$other_tag` member instead decodes as the wrapped `$other` enum.
macro_rules! messages {
    (
        $ty:ident by $tag:literal, unknown $what:literal
        $(, $wrap:ident($other:ident) by $other_tag:literal)?
        { $($variant:ident $kind:literal { $($field:ident $(= $default:expr)?),* })+ }
    ) => {
        impl $ty {
            fn members(&self) -> Vec<(String, Json)> {
                match self {
                    $($ty::$wrap(other) => other.members(),)?
                    $($ty::$variant { $($field),* } => row([
                        ($tag, Some(Json::str($kind))),
                        $((stringify!($field), $field.encode())),*
                    ]),)+
                }
            }

            fn from_members(json: &Json) -> Result<$ty, String> {
                $(if json.get($other_tag).is_some() {
                    return $other::from_members(json).map($ty::$wrap);
                })?
                match str_member(json.get($tag), $tag)? {
                    $($kind => Ok($ty::$variant {
                        $($field: member!(json, $field $(= $default)?)),*
                    }),)+
                    other => Err(format!(concat!("unknown ", $what, " `{}`"), other)),
                }
            }
        }
    };
}

messages!(Request by "op", unknown "op" {
    Hello "hello" { version = 1 }
    Open "open" { session, table_csv, rules, strategy, seed, ground_truth_csv, policy, lease_ttl }
    Next "next" { session }
    Answer "answer" { session, id, feedback }
    Supply "supply" { session, tuple, attr, value }
    Skip "skip" { session, tuple, attr }
    Finish "finish" { session }
    Report "report" { session }
    Restore "restore" { session }
    Compact "compact" { session }
    Lease "lease" { session, reviewer }
    AnswerAs "answer_as" { session, reviewer, id, feedback }
    SupplyAs "supply_as" { session, reviewer, id, value }
    SkipAs "skip_as" { session, reviewer, id }
    Release "release" { session, reviewer, id }
    Leases "leases" { session }
});

// Capability and limit fields added to `hello` after v2 shipped decode
// tolerantly: a server that predates them reports none.
messages!(Response by "ok", unknown "ok kind", Error(WireError) by "err" {
    Hello "hello" {
        version, pipelining, compact, leases = false, max_outstanding = 0, lease_ttl = 0
    }
    Opened "opened" { session, dirty_tuples }
    Ask "ask" { id, tuple, attr, current, value, score, uncertainty, group }
    NeedValue "need_value" { tuple, attr, current }
    Done "done" { reason }
    Answered "answered" { verifications }
    Supplied "supplied" { verifications }
    Skipped "skipped" {}
    Report "report" { verifications, learner_decisions, dirty_tuples, eval }
    Restored "restored" { replayed }
    Compacted "compacted" { events, tail }
    Leased "leased" { id, tuple, attr, current, value, score }
    Fix "fix" { id, tuple, attr, current }
    Wait "wait" {}
    Released "released" { held }
    Leases "leases" { leases }
});

messages!(WireError by "err", unknown "error kind" {
    StaleWork "stale_work" { got, outstanding }
    WorkMismatch "work_mismatch" { verb, got, outstanding }
    NoOutstandingWork "no_outstanding_work" { verb }
    UnknownSession "unknown_session" { session }
    DuplicateSession "duplicate_session" { session }
    BadRequest "bad_request" { detail }
    Busy "busy" { max_outstanding }
    Engine "engine" { detail }
    Journal "journal" { detail }
});

// ---- frames ---------------------------------------------------------------

/// Appends the optional `seq` member and writes the object as one line.
fn encode_frame(mut members: Vec<(String, Json)>, seq: Option<u64>) -> String {
    if let Some(seq) = seq.encode() {
        members.push(("seq".to_string(), seq));
    }
    Json::Object(members).encode()
}

/// Encodes a request frame, tagging it with a `seq` correlation id when one
/// is given (see the module docs: a `seq`-tagged frame may be answered out
/// of order, with `seq` echoed on the reply).
pub fn encode_request_frame(request: &Request, seq: Option<u64>) -> String {
    encode_frame(request.members(), seq)
}

/// Encodes a response frame, echoing the request's `seq` when one was
/// present.  Success replies carry `"ok": <kind>`; error replies carry
/// `"err": <kind>`.
pub fn encode_response_frame(response: &Response, seq: Option<u64>) -> String {
    encode_frame(response.members(), seq)
}

/// Decodes one request frame: the `seq` correlation id (when one was
/// decodable — returned even for malformed requests, so the error reply can
/// echo it) and the request itself.
pub fn decode_request_frame(line: &str) -> (Option<u64>, Result<Request, String>) {
    let json = match Json::parse(line) {
        Ok(json) => json,
        Err(err) => return (None, Err(err.to_string())),
    };
    match get(&json, "seq") {
        Ok(seq) => (seq, Request::from_members(&json)),
        Err(err) => (None, Err(err)),
    }
}

/// Decodes one response frame: the echoed `seq` (when present) and the
/// response itself.
pub fn decode_response_frame(line: &str) -> Result<(Option<u64>, Response), String> {
    let json = Json::parse(line).map_err(|e| e.to_string())?;
    Ok((get(&json, "seq")?, Response::from_members(&json)?))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The maximal `u64`, as the wire carries it: a decimal string.
    const MAX: &str = "\"18446744073709551615\"";

    /// Encodes `request` without a `seq`, pins the exact line, and decodes
    /// it back.
    fn request_round_trip(request: Request, expected: &str) {
        let line = encode_request_frame(&request, None);
        assert_eq!(line, expected);
        assert_eq!(
            decode_request_frame(&line),
            (None, Ok(request)),
            "via {line}"
        );
    }

    /// Encodes `response` without a `seq`, pins the exact line, and decodes
    /// it back.
    fn response_round_trip(response: Response, expected: &str) {
        let line = encode_response_frame(&response, None);
        assert_eq!(line, expected);
        assert_eq!(
            decode_response_frame(&line),
            Ok((None, response)),
            "via {line}"
        );
    }

    /// The `bad_request` detail a malformed request line decodes to.
    fn request_error(line: &str) -> String {
        match decode_request_frame(line).1 {
            Ok(request) => panic!("`{line}` decoded to {request:?}"),
            Err(detail) => detail,
        }
    }

    /// The error a malformed response line decodes to.
    fn response_error(line: &str) -> String {
        match decode_response_frame(line) {
            Ok(response) => panic!("`{line}` decoded to {response:?}"),
            Err(detail) => detail,
        }
    }

    fn open(strategy: Strategy, policy: Option<ConflictPolicy>) -> Request {
        Request::Open {
            session: "s".into(),
            table_csv: "A\n1\n".into(),
            rules: String::new(),
            strategy,
            seed: None,
            ground_truth_csv: None,
            policy,
            lease_ttl: None,
        }
    }

    #[test]
    fn u64_extremes_round_trip_without_wrapping() {
        // The upper half of the u64 range rides as a decimal string.
        request_round_trip(
            Request::Open {
                session: "s".into(),
                table_csv: "A\n1\n".into(),
                rules: String::new(),
                strategy: Strategy::Gdr,
                seed: Some(u64::MAX),
                ground_truth_csv: None,
                policy: None,
                lease_ttl: Some(u64::MAX),
            },
            &format!(
                r#"{{"op":"open","session":"s","table_csv":"A\n1\n","rules":"","strategy":"gdr","seed":{MAX},"lease_ttl":{MAX}}}"#
            ),
        );
        request_round_trip(
            Request::Answer {
                session: "s".into(),
                id: u64::MAX,
                feedback: Feedback::Confirm,
            },
            &format!(r#"{{"op":"answer","session":"s","id":{MAX},"feedback":"confirm"}}"#),
        );
        response_round_trip(
            Response::Error(WireError::StaleWork {
                got: u64::MAX,
                outstanding: 7,
            }),
            &format!(r#"{{"err":"stale_work","got":{MAX},"outstanding":7}}"#),
        );
        // `i64::MAX` is the last value written as a number.
        response_round_trip(
            Response::Error(WireError::StaleWork {
                got: i64::MAX as u64,
                outstanding: i64::MAX as u64 + 1,
            }),
            r#"{"err":"stale_work","got":9223372036854775807,"outstanding":"9223372036854775808"}"#,
        );
        // The string form is strict: signs and garbage still fail.
        for bad in [r#""-1""#, r#""seven""#, r#""""#, "1.5", "null"] {
            assert_eq!(
                request_error(&format!(
                    r#"{{"op":"answer","session":"s","id":{bad},"feedback":"confirm"}}"#
                )),
                "field `id` must be a non-negative integer",
                "id {bad}"
            );
        }
    }

    #[test]
    fn every_request_round_trips() {
        request_round_trip(
            Request::Open {
                session: "s-1".into(),
                table_csv: "A,B\n\"Fort, Wayne\",\"say \"\"hi\"\"\"\n".into(),
                rules: "ZIP -> CT : 46360 || Michigan City\n".into(),
                strategy: Strategy::GdrNoLearning,
                seed: Some(42),
                ground_truth_csv: Some("A,B\nx,y\n".into()),
                policy: Some(ConflictPolicy::Majority { k: 3 }),
                lease_ttl: Some(16),
            },
            r#"{"op":"open","session":"s-1","table_csv":"A,B\n\"Fort, Wayne\",\"say \"\"hi\"\"\"\n","rules":"ZIP -> CT : 46360 || Michigan City\n","strategy":"gdr_no_learning","seed":42,"ground_truth_csv":"A,B\nx,y\n","policy":"majority-3","lease_ttl":16}"#,
        );
        // Absent optionals are omitted, not written as `null`.
        request_round_trip(
            open(Strategy::ActiveLearningOnly, None),
            r#"{"op":"open","session":"s","table_csv":"A\n1\n","rules":"","strategy":"active_learning"}"#,
        );
        request_round_trip(
            Request::Next {
                session: "s".into(),
            },
            r#"{"op":"next","session":"s"}"#,
        );
        request_round_trip(
            Request::Answer {
                session: "s".into(),
                id: 7,
                feedback: Feedback::Retain,
            },
            r#"{"op":"answer","session":"s","id":7,"feedback":"retain"}"#,
        );
        request_round_trip(
            Request::Supply {
                session: "s".into(),
                tuple: 3,
                attr: 1,
                value: Value::from("  whitespace preserved  "),
            },
            r#"{"op":"supply","session":"s","tuple":3,"attr":1,"value":"  whitespace preserved  "}"#,
        );
        request_round_trip(
            Request::Supply {
                session: "s".into(),
                tuple: 0,
                attr: 0,
                value: Value::Null,
            },
            r#"{"op":"supply","session":"s","tuple":0,"attr":0,"value":null}"#,
        );
        request_round_trip(
            Request::Supply {
                session: "s".into(),
                tuple: 0,
                attr: 0,
                value: Value::Int(-3),
            },
            r#"{"op":"supply","session":"s","tuple":0,"attr":0,"value":-3}"#,
        );
        request_round_trip(
            Request::Skip {
                session: "s".into(),
                tuple: 2,
                attr: 5,
            },
            r#"{"op":"skip","session":"s","tuple":2,"attr":5}"#,
        );
        request_round_trip(
            Request::Finish {
                session: "s".into(),
            },
            r#"{"op":"finish","session":"s"}"#,
        );
        request_round_trip(
            Request::Report {
                session: "s".into(),
            },
            r#"{"op":"report","session":"s"}"#,
        );
        request_round_trip(
            Request::Restore {
                session: "s".into(),
            },
            r#"{"op":"restore","session":"s"}"#,
        );
        request_round_trip(
            Request::Compact {
                session: "s".into(),
            },
            r#"{"op":"compact","session":"s"}"#,
        );
    }

    #[test]
    fn every_response_round_trips() {
        response_round_trip(
            Response::Opened {
                session: "s".into(),
                dirty_tuples: 4,
            },
            r#"{"ok":"opened","session":"s","dirty_tuples":4}"#,
        );
        response_round_trip(
            Response::Ask {
                id: 9,
                tuple: 3,
                attr: 1,
                current: Value::from("Michigan Cty"),
                value: Value::from("Michigan City"),
                score: 0.25,
                uncertainty: 1.0,
                group: Some(WireGroup {
                    attr: 1,
                    value: Value::from("Michigan City"),
                    benefit: 0.0625,
                    size: 3,
                    quota: 2,
                    asked: 1,
                }),
            },
            r#"{"ok":"ask","id":9,"tuple":3,"attr":1,"current":"Michigan Cty","value":"Michigan City","score":0.25,"uncertainty":1.0,"group":{"attr":1,"value":"Michigan City","benefit":0.0625,"size":3,"quota":2,"asked":1}}"#,
        );
        response_round_trip(
            Response::Ask {
                id: 1,
                tuple: 0,
                attr: 0,
                current: Value::Null,
                value: Value::Int(46360),
                score: 1.0,
                uncertainty: 0.5,
                group: None,
            },
            r#"{"ok":"ask","id":1,"tuple":0,"attr":0,"current":null,"value":46360,"score":1.0,"uncertainty":0.5}"#,
        );
        response_round_trip(
            Response::NeedValue {
                tuple: 6,
                attr: 2,
                current: Value::from("Colfax"),
            },
            r#"{"ok":"need_value","tuple":6,"attr":2,"current":"Colfax"}"#,
        );
        for (reason, token) in [
            (DoneReason::Exhausted, "exhausted"),
            (DoneReason::Stalled, "stalled"),
            (DoneReason::AutomaticComplete, "automatic_complete"),
            (DoneReason::Finished, "finished"),
        ] {
            response_round_trip(
                Response::Done { reason },
                &format!(r#"{{"ok":"done","reason":"{token}"}}"#),
            );
        }
        response_round_trip(
            Response::Answered { verifications: 11 },
            r#"{"ok":"answered","verifications":11}"#,
        );
        response_round_trip(
            Response::Supplied { verifications: 12 },
            r#"{"ok":"supplied","verifications":12}"#,
        );
        response_round_trip(Response::Skipped, r#"{"ok":"skipped"}"#);
        response_round_trip(
            Response::Report {
                verifications: 11,
                learner_decisions: 2,
                dirty_tuples: 0,
                eval: Some(WireEval {
                    initial_loss: 0.359375,
                    final_loss: 0.0,
                    improvement_pct: 100.0,
                    precision: 1.0,
                    recall: 0.875,
                }),
            },
            r#"{"ok":"report","verifications":11,"learner_decisions":2,"dirty_tuples":0,"eval":{"initial_loss":0.359375,"final_loss":0.0,"improvement_pct":100.0,"precision":1.0,"recall":0.875}}"#,
        );
        response_round_trip(
            Response::Report {
                verifications: 0,
                learner_decisions: 0,
                dirty_tuples: 3,
                eval: None,
            },
            r#"{"ok":"report","verifications":0,"learner_decisions":0,"dirty_tuples":3}"#,
        );
        response_round_trip(
            Response::Restored { replayed: 17 },
            r#"{"ok":"restored","replayed":17}"#,
        );
        response_round_trip(
            Response::Compacted {
                events: 64,
                tail: 3,
            },
            r#"{"ok":"compacted","events":64,"tail":3}"#,
        );
    }

    #[test]
    fn every_error_reply_round_trips() {
        response_round_trip(
            Response::Error(WireError::StaleWork {
                got: 8,
                outstanding: 7,
            }),
            r#"{"err":"stale_work","got":8,"outstanding":7}"#,
        );
        response_round_trip(
            Response::Error(WireError::WorkMismatch {
                verb: "supply_value".into(),
                got: WireTarget::Value(3, 1),
                outstanding: WireTarget::Ask(7),
            }),
            r#"{"err":"work_mismatch","verb":"supply_value","got":{"kind":"value","tuple":3,"attr":1},"outstanding":{"kind":"ask","id":7}}"#,
        );
        response_round_trip(
            Response::Error(WireError::WorkMismatch {
                verb: "answer".into(),
                got: WireTarget::Ask(7),
                outstanding: WireTarget::Value(2, 0),
            }),
            r#"{"err":"work_mismatch","verb":"answer","got":{"kind":"ask","id":7},"outstanding":{"kind":"value","tuple":2,"attr":0}}"#,
        );
        response_round_trip(
            Response::Error(WireError::NoOutstandingWork {
                verb: "answer".into(),
            }),
            r#"{"err":"no_outstanding_work","verb":"answer"}"#,
        );
        response_round_trip(
            Response::Error(WireError::UnknownSession {
                session: "ghost".into(),
            }),
            r#"{"err":"unknown_session","session":"ghost"}"#,
        );
        response_round_trip(
            Response::Error(WireError::DuplicateSession {
                session: "dup".into(),
            }),
            r#"{"err":"duplicate_session","session":"dup"}"#,
        );
        response_round_trip(
            Response::Error(WireError::BadRequest {
                detail: "unknown op `frob`".into(),
            }),
            r#"{"err":"bad_request","detail":"unknown op `frob`"}"#,
        );
        response_round_trip(
            Response::Error(WireError::Engine {
                detail: "unknown rule id 9".into(),
            }),
            r#"{"err":"engine","detail":"unknown rule id 9"}"#,
        );
        response_round_trip(
            Response::Error(WireError::Journal {
                detail: "fsync of seg-000002.gdrj failed".into(),
            }),
            r#"{"err":"journal","detail":"fsync of seg-000002.gdrj failed"}"#,
        );
        // The durability variant also rides the `GdrError` mapping.
        let err: WireError = GdrError::Journal {
            detail: "disk full".into(),
        }
        .into();
        assert_eq!(
            err,
            WireError::Journal {
                detail: "disk full".into()
            }
        );
    }

    #[test]
    fn gdr_errors_map_onto_wire_errors() {
        use gdr_core::step::WorkId;
        let err: WireError = GdrError::StaleWork {
            got: WorkId::from_raw(8),
            outstanding: WorkId::from_raw(7),
        }
        .into();
        assert_eq!(
            err,
            WireError::StaleWork {
                got: 8,
                outstanding: 7
            }
        );
        let err: WireError = GdrError::WorkMismatch {
            verb: "skip_value",
            got: WorkTarget::Value((1, 2)),
            outstanding: WorkTarget::Ask(WorkId::from_raw(3)),
        }
        .into();
        assert_eq!(
            err,
            WireError::WorkMismatch {
                verb: "skip_value".into(),
                got: WireTarget::Value(1, 2),
                outstanding: WireTarget::Ask(3),
            }
        );
    }

    #[test]
    fn malformed_requests_decode_to_errors() {
        // Each line has exactly one fault, so its detail is the same
        // whatever order a decoder checks the members in.
        for (bad, detail) in [
            ("", "JSON error at byte 0: unexpected end of input"),
            ("not json", "JSON error at byte 0: expected `null`"),
            ("[1]", "missing field `op`"),
            ("{}", "missing field `op`"),
            (r#"{"op":7,"session":"s"}"#, "field `op` must be a string"),
            (r#"{"op":"frob","session":"s"}"#, "unknown op `frob`"),
            (r#"{"op":"next"}"#, "missing field `session`"),
            (
                r#"{"op":"next","session":7}"#,
                "field `session` must be a string",
            ),
            (
                r#"{"op":"answer","session":"s","id":1}"#,
                "missing field `feedback`",
            ),
            (
                r#"{"op":"answer","session":"s","feedback":"confirm"}"#,
                "missing field `id`",
            ),
            (
                r#"{"op":"answer","session":"s","id":-1,"feedback":"confirm"}"#,
                "field `id` must be a non-negative integer",
            ),
            (
                r#"{"op":"answer","session":"s","id":1,"feedback":"maybe"}"#,
                "unknown feedback `maybe`",
            ),
            (
                r#"{"op":"answer","session":"s","id":1,"feedback":true}"#,
                "field `feedback` must be a string",
            ),
            (
                r#"{"op":"open","session":"s","table_csv":"A\n1\n","rules":"","strategy":"nope"}"#,
                "unknown strategy `nope`",
            ),
            (
                r#"{"op":"open","session":"s","table_csv":"A\n1\n","strategy":"gdr"}"#,
                "missing field `rules`",
            ),
            (
                r#"{"op":"open","session":"s","table_csv":"A\n1\n","rules":"","strategy":"gdr","seed":-5}"#,
                "field `seed` must be a non-negative integer",
            ),
            (
                r#"{"op":"open","session":"s","table_csv":"A\n1\n","rules":"","strategy":"gdr","ground_truth_csv":1}"#,
                "field `ground_truth_csv` must be a string",
            ),
            (
                r#"{"op":"open","session":"s","table_csv":"A\n1\n","rules":"","strategy":"gdr","lease_ttl":"x"}"#,
                "field `lease_ttl` must be a non-negative integer",
            ),
            (
                r#"{"op":"supply","session":"s","tuple":0,"attr":0,"value":[1]}"#,
                "field `value` must be null, an integer, or a string",
            ),
            (
                r#"{"op":"supply","session":"s","tuple":-1,"attr":0,"value":1}"#,
                "field `tuple` must be a non-negative integer",
            ),
            (
                r#"{"op":"skip","session":"s","tuple":0,"attr":0.5}"#,
                "field `attr` must be a non-negative integer",
            ),
            (
                r#"{"op":"hello","version":4294967296}"#,
                "field `version` must fit in 32 bits",
            ),
            (
                r#"{"op":"hello","version":-1}"#,
                "field `version` must be a non-negative integer",
            ),
            (
                r#"{"op":"next","session":"s","seq":-1}"#,
                "field `seq` must be a non-negative integer",
            ),
        ] {
            assert_eq!(request_error(bad), detail, "`{bad}`");
        }
        // A frame with two faults fails; which fault it names is not pinned.
        for bad in [
            r#"{"op":"answer","session":"s"}"#,
            r#"{"op":"frob"}"#,
            r#"{"op":"supply","session":"s","tuple":"x","attr":"y","value":[]}"#,
        ] {
            assert!(decode_request_frame(bad).1.is_err(), "`{bad}` should fail");
        }
    }

    #[test]
    fn malformed_responses_decode_to_errors() {
        for (bad, detail) in [
            ("", "JSON error at byte 0: unexpected end of input"),
            ("{}", "missing field `ok`"),
            (r#"{"ok":3}"#, "field `ok` must be a string"),
            (r#"{"ok":"frob"}"#, "unknown ok kind `frob`"),
            (r#"{"err":"frob"}"#, "unknown error kind `frob`"),
            (
                r#"{"err":null,"ok":"wait"}"#,
                "field `err` must be a string",
            ),
            (
                r#"{"ok":"done","reason":"bored"}"#,
                "unknown done reason `bored`",
            ),
            (r#"{"ok":"done"}"#, "missing field `reason`"),
            (
                r#"{"err":"work_mismatch","verb":"answer","got":{"kind":"frob"},"outstanding":{"kind":"ask","id":1}}"#,
                "unknown target kind `frob`",
            ),
            (
                r#"{"err":"work_mismatch","verb":"answer","got":{"kind":"value","tuple":1},"outstanding":{"kind":"ask","id":1}}"#,
                "missing field `attr`",
            ),
            (
                r#"{"err":"work_mismatch","verb":"answer","got":{"kind":"ask","id":1}}"#,
                "missing field `outstanding`",
            ),
            (
                r#"{"err":"stale_work","got":1,"outstanding":-1}"#,
                "field `outstanding` must be a non-negative integer",
            ),
            (r#"{"err":"busy"}"#, "missing field `max_outstanding`"),
            (
                r#"{"ok":"leases","leases":[{"id":1,"reviewer":"a","tuple":0,"age":2}]}"#,
                "missing field `attr`",
            ),
            (
                r#"{"ok":"leases","leases":{}}"#,
                "field `leases` must be an array",
            ),
            (r#"{"ok":"leases"}"#, "missing field `leases`"),
            (
                r#"{"ok":"released","held":1}"#,
                "field `held` must be a boolean",
            ),
            (
                r#"{"ok":"ask","id":1,"tuple":0,"attr":0,"current":null,"value":1,"score":"high","uncertainty":0.5}"#,
                "field `score` must be a number",
            ),
            (
                r#"{"ok":"ask","id":1,"tuple":0,"attr":0,"current":null,"value":1,"score":1.0,"uncertainty":0.5,"group":{"attr":1,"value":1,"benefit":0.5,"size":3,"quota":2}}"#,
                "missing field `asked`",
            ),
            (
                r#"{"ok":"report","verifications":1,"learner_decisions":0,"dirty_tuples":0,"eval":{"initial_loss":1.0,"final_loss":0.0,"improvement_pct":100.0,"precision":1.0}}"#,
                "missing field `recall`",
            ),
            (
                r#"{"ok":"hello","version":2,"compact":true}"#,
                "missing field `pipelining`",
            ),
            (
                r#"{"ok":"hello","version":2,"pipelining":true,"compact":true,"leases":"yes"}"#,
                "field `leases` must be a boolean",
            ),
            (
                r#"{"ok":"hello","version":4294967296,"pipelining":true,"compact":true}"#,
                "field `version` must fit in 32 bits",
            ),
            (
                r#"{"ok":"skipped","seq":"x"}"#,
                "field `seq` must be a non-negative integer",
            ),
        ] {
            assert_eq!(response_error(bad), detail, "`{bad}`");
        }
    }

    #[test]
    fn hello_and_busy_round_trip() {
        request_round_trip(
            Request::Hello { version: 2 },
            r#"{"op":"hello","version":2}"#,
        );
        response_round_trip(
            Response::Hello {
                version: PROTOCOL_VERSION,
                pipelining: true,
                compact: true,
                leases: true,
                max_outstanding: 64,
                lease_ttl: 32,
            },
            r#"{"ok":"hello","version":2,"pipelining":true,"compact":true,"leases":true,"max_outstanding":64,"lease_ttl":32}"#,
        );
        response_round_trip(
            Response::Error(WireError::Busy {
                max_outstanding: 64,
            }),
            r#"{"err":"busy","max_outstanding":64}"#,
        );
        // A bare hello defaults to version 1 (the legacy protocol).
        for bare in [r#"{"op":"hello"}"#, r#"{"op":"hello","version":null}"#] {
            assert_eq!(
                decode_request_frame(bare),
                (None, Ok(Request::Hello { version: 1 }))
            );
        }
        // A hello reply from before the capability/limit fields decodes
        // tolerantly: no leases, no reported limits.
        let legacy = Response::Hello {
            version: 2,
            pipelining: true,
            compact: true,
            leases: false,
            max_outstanding: 0,
            lease_ttl: 0,
        };
        for old in [
            r#"{"ok":"hello","version":2,"pipelining":true,"compact":true}"#,
            r#"{"ok":"hello","version":2,"pipelining":true,"compact":true,"leases":null,"max_outstanding":null,"lease_ttl":null}"#,
        ] {
            assert_eq!(decode_response_frame(old), Ok((None, legacy.clone())));
        }
    }

    #[test]
    fn every_lease_verb_round_trips() {
        request_round_trip(
            Request::Lease {
                session: "s".into(),
                reviewer: "alice".into(),
            },
            r#"{"op":"lease","session":"s","reviewer":"alice"}"#,
        );
        request_round_trip(
            Request::Lease {
                session: "s".into(),
                reviewer: "名前 with spaces \"and quotes\"".into(),
            },
            r#"{"op":"lease","session":"s","reviewer":"名前 with spaces \"and quotes\""}"#,
        );
        request_round_trip(
            Request::AnswerAs {
                session: "s".into(),
                reviewer: "bob".into(),
                id: u64::MAX,
                feedback: Feedback::Reject,
            },
            &format!(
                r#"{{"op":"answer_as","session":"s","reviewer":"bob","id":{MAX},"feedback":"reject"}}"#
            ),
        );
        request_round_trip(
            Request::SupplyAs {
                session: "s".into(),
                reviewer: "carol".into(),
                id: 7,
                value: Value::from("Michigan City"),
            },
            r#"{"op":"supply_as","session":"s","reviewer":"carol","id":7,"value":"Michigan City"}"#,
        );
        request_round_trip(
            Request::SupplyAs {
                session: "s".into(),
                reviewer: String::new(),
                id: 0,
                value: Value::Null,
            },
            r#"{"op":"supply_as","session":"s","reviewer":"","id":0,"value":null}"#,
        );
        request_round_trip(
            Request::SkipAs {
                session: "s".into(),
                reviewer: "dave".into(),
                id: 3,
            },
            r#"{"op":"skip_as","session":"s","reviewer":"dave","id":3}"#,
        );
        request_round_trip(
            Request::Release {
                session: "s".into(),
                reviewer: "alice".into(),
                id: 2,
            },
            r#"{"op":"release","session":"s","reviewer":"alice","id":2}"#,
        );
        response_round_trip(
            Response::Leased {
                id: 9,
                tuple: 3,
                attr: 1,
                current: Value::from("Michigan Cty"),
                value: Value::from("Michigan City"),
                score: 0.25,
            },
            r#"{"ok":"leased","id":9,"tuple":3,"attr":1,"current":"Michigan Cty","value":"Michigan City","score":0.25}"#,
        );
        response_round_trip(
            Response::Fix {
                id: 10,
                tuple: 6,
                attr: 2,
                current: Value::Null,
            },
            r#"{"ok":"fix","id":10,"tuple":6,"attr":2,"current":null}"#,
        );
        response_round_trip(Response::Wait, r#"{"ok":"wait"}"#);
        response_round_trip(
            Response::Released { held: true },
            r#"{"ok":"released","held":true}"#,
        );
        response_round_trip(
            Response::Released { held: false },
            r#"{"ok":"released","held":false}"#,
        );
        request_round_trip(
            Request::Leases {
                session: "s".into(),
            },
            r#"{"op":"leases","session":"s"}"#,
        );
        response_round_trip(
            Response::Leases { leases: Vec::new() },
            r#"{"ok":"leases","leases":[]}"#,
        );
        response_round_trip(
            Response::Leases {
                leases: vec![
                    WireLease {
                        id: 4,
                        reviewer: "alice".into(),
                        tuple: 7,
                        attr: 1,
                        age: 0,
                    },
                    WireLease {
                        id: u64::MAX,
                        reviewer: "bob".into(),
                        tuple: 0,
                        attr: 3,
                        age: u64::MAX,
                    },
                ],
            },
            &format!(
                r#"{{"ok":"leases","leases":[{{"id":4,"reviewer":"alice","tuple":7,"attr":1,"age":0}},{{"id":{MAX},"reviewer":"bob","tuple":0,"attr":3,"age":{MAX}}}]}}"#
            ),
        );
        // Missing reviewer is a bad request, not a default.
        assert_eq!(
            request_error(r#"{"op":"lease","session":"s"}"#),
            "missing field `reviewer`"
        );
        assert_eq!(
            request_error(r#"{"op":"answer_as","session":"s","id":1,"feedback":"confirm"}"#),
            "missing field `reviewer`"
        );
    }

    #[test]
    fn policy_tokens_round_trip_and_reject_garbage() {
        for (policy, token) in [
            (ConflictPolicy::FirstWins, "first_wins"),
            (ConflictPolicy::EscalateToNeedsValue, "escalate"),
            (ConflictPolicy::Majority { k: 1 }, "majority-1"),
            (ConflictPolicy::Majority { k: 3 }, "majority-3"),
            (ConflictPolicy::Majority { k: 0 }, "majority-0"),
        ] {
            request_round_trip(
                open(Strategy::Gdr, Some(policy)),
                &format!(
                    r#"{{"op":"open","session":"s","table_csv":"A\n1\n","rules":"","strategy":"gdr","policy":"{token}"}}"#
                ),
            );
        }
        for bad in [
            "",
            "majority",
            "majority-",
            "majority--1",
            "majority-+3",
            "majority-03",
            "majority-three",
            "majority-0x3",
            "majority-99999999999999999999999",
            "first-wins",
            "escalate-2",
        ] {
            assert_eq!(
                request_error(&format!(
                    r#"{{"op":"open","session":"s","table_csv":"A\n1\n","rules":"","strategy":"gdr","policy":"{bad}"}}"#
                )),
                format!("unknown policy `{bad}`"),
            );
        }
        assert_eq!(
            request_error(
                r#"{"op":"open","session":"s","table_csv":"A\n1\n","rules":"","strategy":"gdr","policy":3}"#
            ),
            "field `policy` must be a string"
        );
    }

    #[test]
    fn seq_tags_ride_requests_and_are_echoed_on_responses() {
        let request = Request::Next {
            session: "s".into(),
        };
        // No seq: the encoded frame has none and decodes to none.
        assert_eq!(
            decode_request_frame(&encode_request_frame(&request, None)),
            (None, Ok(request.clone()))
        );
        // Tagged: `seq` is the last member, and survives the round trip,
        // u64 extremes included.
        for (seq, text) in [
            (0, "0".to_string()),
            (7, "7".to_string()),
            (u64::MAX, MAX.to_string()),
        ] {
            let line = encode_request_frame(&request, Some(seq));
            assert_eq!(
                line,
                format!(r#"{{"op":"next","session":"s","seq":{text}}}"#)
            );
            assert_eq!(
                decode_request_frame(&line),
                (Some(seq), Ok(request.clone()))
            );
        }
        let response = Response::Skipped;
        let line = encode_response_frame(&response, Some(41));
        assert_eq!(line, r#"{"ok":"skipped","seq":41}"#);
        assert_eq!(decode_response_frame(&line), Ok((Some(41), response)));
        let line = encode_response_frame(
            &Response::Error(WireError::Busy { max_outstanding: 2 }),
            Some(u64::MAX),
        );
        assert_eq!(
            line,
            format!(r#"{{"err":"busy","max_outstanding":2,"seq":{MAX}}}"#)
        );
        // A `null` seq is no seq.
        assert_eq!(
            decode_request_frame(r#"{"op":"next","session":"s","seq":null}"#),
            (None, Ok(request))
        );

        // A malformed request still surrenders its seq, so the error reply
        // can be correlated; a malformed seq is itself a bad request.
        assert_eq!(
            decode_request_frame(r#"{"op":"frob","session":"s","seq":9}"#),
            (Some(9), Err("unknown op `frob`".to_string()))
        );
        assert_eq!(
            decode_request_frame(r#"{"op":"next","session":"s","seq":-1}"#),
            (
                None,
                Err("field `seq` must be a non-negative integer".to_string())
            )
        );
    }

    #[test]
    fn strategy_and_feedback_tokens_are_total_and_unique() {
        let strategies = [
            (Strategy::Gdr, "gdr"),
            (Strategy::GdrNoLearning, "gdr_no_learning"),
            (Strategy::GdrSLearning, "gdr_s_learning"),
            (Strategy::ActiveLearningOnly, "active_learning"),
            (Strategy::Greedy, "greedy"),
            (Strategy::RandomOrder, "random"),
            (Strategy::AutomaticHeuristic, "heuristic"),
        ];
        assert_eq!(strategies.map(|(strategy, _)| strategy), Strategy::ALL);
        let tokens: std::collections::HashSet<_> = strategies.map(|(_, token)| token).into();
        assert_eq!(tokens.len(), strategies.len(), "duplicate token");
        for (strategy, token) in strategies {
            request_round_trip(
                open(strategy, None),
                &format!(
                    r#"{{"op":"open","session":"s","table_csv":"A\n1\n","rules":"","strategy":"{token}"}}"#
                ),
            );
        }
        assert_eq!(
            request_error(
                r#"{"op":"open","session":"s","table_csv":"A\n1\n","rules":"","strategy":"bogus"}"#
            ),
            "unknown strategy `bogus`"
        );
        let feedbacks = [
            (Feedback::Confirm, "confirm"),
            (Feedback::Reject, "reject"),
            (Feedback::Retain, "retain"),
        ];
        assert_eq!(feedbacks.map(|(feedback, _)| feedback), Feedback::ALL);
        for (feedback, token) in feedbacks {
            request_round_trip(
                Request::Answer {
                    session: "s".into(),
                    id: 1,
                    feedback,
                },
                &format!(r#"{{"op":"answer","session":"s","id":1,"feedback":"{token}"}}"#),
            );
        }
        assert_eq!(
            request_error(r#"{"op":"answer","session":"s","id":1,"feedback":"bogus"}"#),
            "unknown feedback `bogus`"
        );
    }
}
