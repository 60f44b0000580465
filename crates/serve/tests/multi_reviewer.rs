//! Multi-reviewer serving end to end: `lease`/`answer_as`/`release` over the
//! wire, the `ReviewTeam` client driver at 1/2/4 reviewers (unbudgeted,
//! under a shared budget, and re-sending `busy` refusals), serial-replay
//! equivalence of the store's resolution log, TTL reclamation of abandoned
//! leases, duplicate-delivery absorption, the advertised `leases`
//! capability/limits, and — the durability acceptance criterion — a session
//! journaling every team event kind rehydrated bit-identically at every
//! record boundary.

mod common;

use std::fs;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;
use std::thread;

use common::{figure1_spec, fingerprint, record_ends, TempDir};
use gdr_core::fixture;
use gdr_core::oracle::{GroundTruthOracle, UserOracle};
use gdr_core::step::{DoneReason, GdrEngine, WorkPlan};
use gdr_core::strategy::Strategy;
use gdr_core::team::{ConflictPolicy, Resolution, TeamConfig, TeamPlan};
use gdr_relation::csv::to_csv;
use gdr_relation::Value;
use gdr_repair::{Feedback, Update};
use gdr_serve::client::{Client, MuxClient, OpenOptions, ReviewOutcome, ReviewTeam};
use gdr_serve::journal::{team_digest, DiskJournal, FsyncPolicy, JournalConfig};
use gdr_serve::server::{dispatch, ServerConfig};
use gdr_serve::store::{
    DurabilityConfig, Session, SessionJournal, SessionOptions, SessionStore, TranscriptEvent,
};
use gdr_serve::wire::{Request, Response, WireError};

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

/// One session's bit-exact state (see `common::fingerprint`).
type Fingerprint = (Vec<(usize, u64, u64)>, usize, usize, String);

/// Replays an applied-resolution log as a serial one-reviewer session: the
/// engine's own serving order must ask for exactly the recorded resolutions,
/// in order, with nothing left over.
fn serial_replay(twin: &mut GdrEngine, resolutions: &[Resolution]) {
    for resolution in resolutions {
        match twin.next_work().expect("serial next_work") {
            WorkPlan::AskUser { id, update, .. } => {
                let Resolution::Answer { cell, feedback } = resolution else {
                    panic!("serial order served an ask, log has {resolution:?}");
                };
                assert_eq!(update.cell(), *cell, "serial ask order diverged");
                twin.answer(id, *feedback).expect("serial answer");
            }
            WorkPlan::NeedsValue { cell: served } => match resolution {
                Resolution::Supply { cell, value } => {
                    assert_eq!(served, *cell, "serial supply order diverged");
                    twin.supply_value(*cell, value.clone())
                        .expect("serial supply");
                }
                Resolution::Skip { cell } => {
                    assert_eq!(served, *cell, "serial skip order diverged");
                    twin.skip_value(*cell).expect("serial skip");
                }
                Resolution::Answer { .. } => {
                    panic!("serial order served a fix, log has {resolution:?}")
                }
            },
            WorkPlan::Done(reason) => {
                panic!("serial engine concluded ({reason:?}) with resolutions left over")
            }
        }
    }
}

/// Drives a `ReviewTeam` of `n` reviewers under a shared `budget` over one
/// pipelined connection, against a server built from `config`, and returns
/// the store session's fingerprint, the fingerprint of its resolution log
/// replayed serially against a twin engine, the team's outcome and the
/// session's journal tail.  The drive must leave no lease behind.
fn team_run(
    n: usize,
    policy: ConflictPolicy,
    budget: Option<usize>,
    config: ServerConfig,
) -> (
    Fingerprint,
    Fingerprint,
    ReviewOutcome,
    Vec<TranscriptEvent>,
) {
    let (addr, store, server) = spawn_server(config.max_connections(Some(1)));
    let (dirty, clean, _rules) = fixture::figure1_instance();

    let mut mux = MuxClient::connect(TcpStream::connect(addr).expect("connect")).expect("mux");
    let hello = mux.hello().expect("hello");
    assert!(hello.leases, "server must advertise the leases capability");
    let seq = mux
        .send(&Request::Open {
            session: "team".to_string(),
            table_csv: to_csv(&dirty),
            rules: fixture::figure1_rules_text().to_string(),
            strategy: Strategy::GdrNoLearning,
            seed: None,
            ground_truth_csv: Some(to_csv(&clean)),
            policy: Some(policy),
            lease_ttl: Some(64),
        })
        .expect("send open");
    let (reply_seq, response) = mux.recv().expect("open reply");
    assert_eq!(reply_seq, seq);
    assert!(matches!(response, Response::Opened { .. }), "{response:?}");
    // The session as built from its spec, before any verb.
    let mut twin = {
        let handle = store.get("team").expect("session exists");
        let guard = handle.lock().expect("session lock");
        guard.team().clone()
    };

    let reviewers: Vec<String> = (0..n).map(|i| format!("rev{i}")).collect();
    let team = ReviewTeam::new("team", reviewers);
    let oracle = GroundTruthOracle::new(clean);
    let outcome = team.drive(&mut mux, &oracle, budget).expect("drive team");
    assert_eq!(outcome.answers.len(), n, "every reviewer reports a tally");
    let leases = mux
        .call(&Request::Leases {
            session: "team".to_string(),
        })
        .expect("leases");
    assert_eq!(leases, Response::Leases { leases: Vec::new() });

    drop(mux);
    server.join().expect("server thread").expect("serve");

    let handle = store.get("team").expect("session exists");
    let guard = handle.lock().expect("session lock");
    let team_fp = fingerprint(guard.engine());
    let resolutions = guard.team().resolutions().to_vec();
    let events = guard.journal().transcript().to_vec();
    drop(guard);

    serial_replay(twin.engine_mut(), &resolutions);
    match twin.engine_mut().next_work().expect("concluding pull") {
        WorkPlan::Done(_) => {}
        // A budget stop leaves work behind; the team's `finish` closed it.
        _ if budget.is_some() => {
            twin.finish().expect("serial finish");
        }
        other => panic!("serial replay did not conclude: {other:?}"),
    }
    (team_fp, fingerprint(twin.engine()), outcome, events)
}

/// A one-reviewer `ReviewTeam` is *literally* the single-reviewer session:
/// bit-identical to a plain `Client::drive` run of the same instance.
#[test]
fn one_reviewer_team_matches_plain_session_bit_for_bit() {
    let (team_fp, serial_fp, ..) =
        team_run(1, ConflictPolicy::FirstWins, None, ServerConfig::new());
    assert_eq!(
        team_fp, serial_fp,
        "team run diverged from its serial replay"
    );

    let (addr, store, server) = spawn_server(ServerConfig::new().max_connections(Some(1)));
    let (dirty, clean, _rules) = fixture::figure1_instance();
    let mut client =
        Client::connect(TcpStream::connect(addr).expect("connect"), "solo").expect("client");
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
    let oracle = GroundTruthOracle::new(clean);
    client.drive(&oracle, None).expect("drive");
    drop(client);
    server.join().expect("server thread").expect("serve");

    let handle = store.get("solo").expect("session exists");
    let guard = handle.lock().expect("session lock");
    assert_eq!(
        team_fp,
        fingerprint(guard.engine()),
        "one-reviewer team diverged from the plain single-reviewer drive"
    );
}

/// The wire acceptance criterion: 2- and 4-reviewer teams over one pipelined
/// connection land bit-identical to the serial replay of their recorded
/// resolution order, under both quorum policies.
#[test]
fn team_runs_match_serial_replay_at_two_and_four_reviewers() {
    for (n, policy) in [
        (2, ConflictPolicy::Majority { k: 2 }),
        (4, ConflictPolicy::EscalateToNeedsValue),
    ] {
        let (team_fp, serial_fp, ..) = team_run(n, policy, None, ServerConfig::new());
        assert_eq!(
            team_fp, serial_fp,
            "{n}-reviewer team under {policy:?} diverged from its serial replay"
        );
    }
}

/// A budgeted team answers exactly its shared budget, hands back every
/// lease it drew after the budget was spent, and closes the session with
/// `finish`; the result still matches the serial replay.
#[test]
fn budgeted_team_answers_its_budget_and_finishes() {
    for (n, policy) in [
        (1, ConflictPolicy::FirstWins),
        (2, ConflictPolicy::Majority { k: 2 }),
        (4, ConflictPolicy::EscalateToNeedsValue),
    ] {
        let (team_fp, serial_fp, outcome, _) = team_run(n, policy, Some(3), ServerConfig::new());
        let answers: usize = outcome.answers.iter().map(|(_, count)| count).sum();
        assert_eq!(answers, 3, "{n} reviewers under {policy:?}: {outcome:?}");
        assert_eq!(outcome.reason, DoneReason::Finished);
        assert_eq!(
            team_fp, serial_fp,
            "budgeted {n}-reviewer team under {policy:?} diverged from its serial replay"
        );
    }
}

/// A reviewer told to `wait` parks until another reviewer's reply may have
/// freed work, instead of re-leasing at once, and each re-lease that waits
/// again is a journaled clock tick.  In 15 runs of this 8-reviewer
/// `FirstWins` drive, a client that re-leased on every `wait` journaled
/// 141–163 `Waited` records (216–238 events for 25 answers); parking
/// journals 52–54 (102–104 events).  The run still matches its serial
/// replay.
#[test]
fn waiting_reviewers_park_instead_of_re_leasing() {
    let root = TempDir::new("team-waits");
    let durability = DurabilityConfig {
        journal: JournalConfig {
            fsync: FsyncPolicy::Never,
            compact_every: 0,
        },
        ..DurabilityConfig::new(root.path())
    };
    let (team_fp, serial_fp, outcome, events) = team_run(
        8,
        ConflictPolicy::FirstWins,
        None,
        ServerConfig::new().durability(durability),
    );
    assert_eq!(team_fp, serial_fp, "the parked team diverged");
    let answers: usize = outcome.answers.iter().map(|(_, count)| count).sum();
    assert_eq!(answers, 25, "{outcome:?}");
    let waits = events
        .iter()
        .filter(|e| matches!(e, TranscriptEvent::Waited { .. }))
        .count();
    assert!(
        waits < 141,
        "{waits} waits journaled, no fewer than re-leasing at once"
    );
}

/// With one request allowed in flight per connection, the server refuses
/// all but one reviewer's verb as `busy`; the team re-sends each refused
/// verb and still matches its serial replay.
#[test]
fn busy_refusals_are_resent_by_the_team() {
    let (team_fp, serial_fp, ..) = team_run(
        4,
        ConflictPolicy::FirstWins,
        None,
        ServerConfig::new().max_outstanding(1),
    );
    assert_eq!(team_fp, serial_fp, "busy re-sends changed the team run");
}

/// Satellite: `hello` reports the lease capability plus the server's
/// outstanding-request cap and default lease TTL, so clients self-configure.
#[test]
fn hello_advertises_lease_capability_and_limits() {
    let (addr, _store, server) = spawn_server(
        ServerConfig::new()
            .max_outstanding(7)
            .max_connections(Some(1)),
    );
    let mut client =
        Client::connect(TcpStream::connect(addr).expect("connect"), "unused").expect("client");
    let hello = client.hello().expect("hello");
    assert!(hello.leases, "leases capability missing");
    assert_eq!(hello.max_outstanding, 7, "tuned cap not advertised");
    assert_eq!(hello.lease_ttl, TeamConfig::default().lease_ttl);
    drop(client);
    server.join().expect("server thread").expect("serve");
}

/// Regression: a reviewer that disconnects mid-lease stops ticking its own
/// clock, every other reviewer's operation ages the lease out, and the item
/// is re-served — the session still converges, and the ghost's late
/// duplicate answer is absorbed by the stale-work contract.
#[test]
fn abandoned_lease_expires_and_work_is_reserved() {
    let mut spec = figure1_spec(Strategy::GdrNoLearning, true);
    spec.team = TeamConfig {
        policy: ConflictPolicy::FirstWins,
        lease_ttl: 4,
    };
    let oracle = GroundTruthOracle::new(spec.ground_truth.clone().expect("ground truth"));
    let mut session = SessionOptions::new()
        .open(spec.clone())
        .expect("in-memory open");

    // "ghost" takes the top-ranked item and is never heard from again.
    let TeamPlan::Ask {
        id: ghost_id,
        update: ghost_update,
    } = session.lease("ghost").expect("ghost lease")
    else {
        panic!("figure1 must open with a suggestion to lease");
    };
    let ghost_cell = ghost_update.cell();

    // "live" drives the whole session alone.  While the ghost's lease is
    // live its item is unavailable, so live works the rest of the group
    // (or Waits — each Wait ticks the clock) until the TTL reclaims it.
    let mut guard = 0usize;
    loop {
        guard += 1;
        assert!(
            guard < 2_000,
            "session did not converge past the dead lease"
        );
        match session.lease("live").expect("live lease") {
            TeamPlan::Ask { id, update } => {
                let feedback = {
                    let current = session
                        .engine()
                        .state()
                        .table()
                        .cell(update.tuple, update.attr);
                    oracle.feedback(&update, current)
                };
                session.answer_as("live", id, feedback).expect("answer_as");
            }
            TeamPlan::Fix { id, cell, current } => match oracle.correct_value(cell.0, cell.1) {
                Some(value) if value != current => {
                    session.supply_as("live", id, value).expect("supply_as");
                }
                _ => session.skip_as("live", id).expect("skip_as"),
            },
            TeamPlan::Wait => {}
            TeamPlan::Done(_) => break,
        }
    }

    // The ghost's item was reclaimed and resolved, not lost with the lease.
    assert!(
        session
            .team()
            .resolutions()
            .iter()
            .any(|r| matches!(r, Resolution::Answer { cell, .. } if *cell == ghost_cell)),
        "the abandoned item was never re-served: {:?}",
        session.team().resolutions()
    );

    // A late duplicate from the ghost is an absorbed protocol error.
    let digest = team_digest(session.team());
    assert!(
        session
            .answer_as("ghost", ghost_id, Feedback::Confirm)
            .is_err(),
        "expired lease must not be answerable"
    );
    assert_eq!(
        digest,
        team_digest(session.team()),
        "absorbed duplicate must not perturb the session"
    );

    // And the run is still equivalent to its serial order.
    let final_fp = fingerprint(session.engine());
    let resolutions = session.team().resolutions().to_vec();
    let mut twin = SessionJournal::from_events(spec, Vec::new())
        .replay()
        .expect("twin");
    serial_replay(twin.engine_mut(), &resolutions);
    assert!(matches!(
        twin.engine_mut().next_work().expect("concluding pull"),
        WorkPlan::Done(_)
    ));
    assert_eq!(final_fp, fingerprint(twin.engine()));
}

/// Regression: re-delivering an `answer_as` the server already applied is a
/// structured stale-work error on the wire, and the session drives on to
/// completion unharmed.
#[test]
fn duplicate_answer_as_over_the_wire_is_absorbed() {
    let store = SessionStore::new();
    let (dirty, clean, _rules) = fixture::figure1_instance();
    let oracle = GroundTruthOracle::new(clean.clone());
    let opened = dispatch(
        &store,
        Request::Open {
            session: "s".to_string(),
            table_csv: to_csv(&dirty),
            rules: fixture::figure1_rules_text().to_string(),
            strategy: Strategy::GdrNoLearning,
            seed: None,
            ground_truth_csv: Some(to_csv(&clean)),
            policy: None,
            lease_ttl: None,
        },
    );
    assert!(matches!(opened, Response::Opened { .. }), "{opened:?}");

    let leased = dispatch(
        &store,
        Request::Lease {
            session: "s".to_string(),
            reviewer: "a".to_string(),
        },
    );
    let Response::Leased { id, .. } = leased else {
        panic!("expected a lease grant: {leased:?}");
    };
    let duplicate = Request::AnswerAs {
        session: "s".to_string(),
        reviewer: "a".to_string(),
        id,
        feedback: Feedback::Confirm,
    };
    let first = dispatch(&store, duplicate.clone());
    assert!(matches!(first, Response::Answered { .. }), "{first:?}");

    let digest = {
        let handle = store.get("s").expect("session exists");
        let guard = handle.lock().expect("session lock");
        team_digest(guard.team())
    };
    let second = dispatch(&store, duplicate);
    assert!(
        matches!(
            second,
            Response::Error(WireError::NoOutstandingWork { .. } | WireError::StaleWork { .. })
        ),
        "duplicate answer must fail with the stale-work contract: {second:?}"
    );
    assert_eq!(
        digest,
        {
            let handle = store.get("s").expect("session exists");
            let guard = handle.lock().expect("session lock");
            team_digest(guard.team())
        },
        "absorbed duplicate must not perturb the session"
    );

    // The session is still perfectly drivable through the team verbs.
    let mut guard_count = 0usize;
    loop {
        guard_count += 1;
        assert!(guard_count < 2_000, "session did not converge");
        match dispatch(
            &store,
            Request::Lease {
                session: "s".to_string(),
                reviewer: "a".to_string(),
            },
        ) {
            Response::Leased {
                id,
                tuple,
                attr,
                current,
                value,
                score,
            } => {
                let feedback = oracle.feedback(&Update::new(tuple, attr, value, score), &current);
                let answered = dispatch(
                    &store,
                    Request::AnswerAs {
                        session: "s".to_string(),
                        reviewer: "a".to_string(),
                        id,
                        feedback,
                    },
                );
                assert!(
                    matches!(answered, Response::Answered { .. }),
                    "{answered:?}"
                );
            }
            Response::Fix {
                id, tuple, attr, ..
            } => {
                let reply = match oracle.correct_value(tuple, attr) {
                    Some(value) => dispatch(
                        &store,
                        Request::SupplyAs {
                            session: "s".to_string(),
                            reviewer: "a".to_string(),
                            id,
                            value,
                        },
                    ),
                    None => dispatch(
                        &store,
                        Request::SkipAs {
                            session: "s".to_string(),
                            reviewer: "a".to_string(),
                            id,
                        },
                    ),
                };
                assert!(
                    matches!(reply, Response::Supplied { .. } | Response::Skipped),
                    "{reply:?}"
                );
            }
            Response::Wait => {}
            Response::Done { .. } => break,
            other => panic!("unexpected reply: {other:?}"),
        }
    }
}

/// Satellite: the `leases` verb reads the live lease table — who holds
/// what, how old each grant is — without ticking the coordinator clock,
/// expiring anything, or otherwise perturbing the session.
#[test]
fn leases_verb_inspects_without_perturbing() {
    let store = SessionStore::new();
    let (dirty, clean, _rules) = fixture::figure1_instance();
    let opened = dispatch(
        &store,
        Request::Open {
            session: "s".to_string(),
            table_csv: to_csv(&dirty),
            rules: fixture::figure1_rules_text().to_string(),
            strategy: Strategy::GdrNoLearning,
            seed: None,
            ground_truth_csv: Some(to_csv(&clean)),
            policy: Some(ConflictPolicy::Majority { k: 2 }),
            lease_ttl: Some(8),
        },
    );
    assert!(matches!(opened, Response::Opened { .. }), "{opened:?}");

    // An empty table before anyone leases.
    let empty = dispatch(
        &store,
        Request::Leases {
            session: "s".into(),
        },
    );
    assert_eq!(empty, Response::Leases { leases: Vec::new() });

    // Two reviewers take work; the table lists both grants in order.
    let mut granted = Vec::new();
    for reviewer in ["a", "b"] {
        match dispatch(
            &store,
            Request::Lease {
                session: "s".to_string(),
                reviewer: reviewer.to_string(),
            },
        ) {
            Response::Leased {
                id, tuple, attr, ..
            }
            | Response::Fix {
                id, tuple, attr, ..
            } => granted.push((id, reviewer, tuple, attr)),
            other => panic!("{reviewer}: expected a grant, got {other:?}"),
        }
    }
    let digest = {
        let handle = store.get("s").expect("session exists");
        let guard = handle.lock().expect("session lock");
        team_digest(guard.team())
    };
    let listed = dispatch(
        &store,
        Request::Leases {
            session: "s".into(),
        },
    );
    let Response::Leases { leases } = listed else {
        panic!("expected a leases reply: {listed:?}");
    };
    assert_eq!(leases.len(), granted.len(), "{leases:?}");
    for (lease, &(id, reviewer, tuple, attr)) in leases.iter().zip(&granted) {
        assert_eq!(lease.id, id);
        assert_eq!(lease.reviewer, reviewer);
        assert_eq!((lease.tuple, lease.attr), (tuple, attr));
        assert!(lease.age < 8, "a fresh grant within the TTL: {lease:?}");
    }

    // Read-only: repeated inspection returns the same ages (no clock tick,
    // so nothing creeps toward expiry) and an identical coordinator digest.
    let again = dispatch(
        &store,
        Request::Leases {
            session: "s".into(),
        },
    );
    assert_eq!(again, Response::Leases { leases });
    assert_eq!(digest, {
        let handle = store.get("s").expect("session exists");
        let guard = handle.lock().expect("session lock");
        team_digest(guard.team())
    });

    // An unknown session is the usual structured store error.
    let missing = dispatch(
        &store,
        Request::Leases {
            session: "nope".into(),
        },
    );
    assert!(
        matches!(missing, Response::Error(WireError::UnknownSession { .. })),
        "{missing:?}"
    );
}

/// `Client::leases` reads the same table over a real connection.
#[test]
fn leases_verb_round_trips_through_the_client() {
    let (addr, _store, server) = spawn_server(ServerConfig::new().max_connections(Some(1)));
    let (dirty, clean, _rules) = fixture::figure1_instance();
    let mut client =
        Client::connect(TcpStream::connect(addr).expect("connect"), "s").expect("client");
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
    let leases = Request::Leases {
        session: "s".to_string(),
    };
    assert_eq!(
        client.call(&leases).expect("empty table"),
        Response::Leases { leases: Vec::new() }
    );
    let granted = client
        .call(&Request::Lease {
            session: "s".to_string(),
            reviewer: "a".to_string(),
        })
        .expect("lease");
    assert!(
        matches!(granted, Response::Leased { .. } | Response::Fix { .. }),
        "{granted:?}"
    );
    let Response::Leases { leases } = client.call(&leases).expect("leases") else {
        panic!("expected a leases reply");
    };
    assert_eq!(leases.len(), 1, "{leases:?}");
    assert_eq!(leases[0].reviewer, "a");
    drop(client);
    server.join().expect("server thread").expect("serve");
}

// ---- durable restore of team events ---------------------------------------

fn journal_config() -> JournalConfig {
    JournalConfig {
        fsync: FsyncPolicy::EveryRecord,
        compact_every: 7,
    }
}

/// A supplied value that appears nowhere in the table or the ground truth.
fn novel_string() -> Value {
    Value::from("Team \"Novel\\ City\t—")
}

/// Drives a durable escalation-policy session through a script guaranteed to
/// journal **every** team [`TranscriptEvent`] kind: two leases on the same
/// item, extra reviewers leasing until one `Wait`s, an explicit release, a
/// Confirm/Reject disagreement escalated to a typed value, then a
/// reject-everything close that forces the supply sweep (one novel supply,
/// skips for the rest).
fn record_team_session(session: &mut Session) {
    let TeamPlan::Ask {
        id: alice_id,
        update: alice_update,
    } = session.lease("alice").expect("alice lease")
    else {
        panic!("expected an initial suggestion");
    };
    let TeamPlan::Ask {
        id: bob_id,
        update: bob_update,
    } = session.lease("bob").expect("bob lease")
    else {
        panic!("expected a second lease on the escalation quorum");
    };
    assert_eq!(
        alice_update, bob_update,
        "EscalateToNeedsValue serves the same item to two reviewers"
    );

    // Extra reviewers drain the leasable pool until one has to Wait.
    let mut extras: Vec<(String, gdr_core::step::WorkId)> = Vec::new();
    for i in 0..50 {
        let reviewer = format!("w{i}");
        match session.lease(&reviewer).expect("extra lease") {
            TeamPlan::Ask { id, .. } | TeamPlan::Fix { id, .. } => extras.push((reviewer, id)),
            TeamPlan::Wait => break,
            TeamPlan::Done(reason) => panic!("premature conclusion: {reason:?}"),
        }
    }

    // Give one lease back explicitly; abandon the rest to the TTL.
    if let Some((reviewer, id)) = extras.first() {
        assert!(
            session.release_lease(reviewer, *id).expect("release"),
            "a freshly granted lease must still be held"
        );
    }

    // Disagreement on the shared item escalates it to a typed value...
    session
        .answer_as("alice", alice_id, Feedback::Confirm)
        .expect("alice answers");
    session
        .answer_as("bob", bob_id, Feedback::Reject)
        .expect("bob answers");
    let TeamPlan::Fix { id: fix_id, .. } = session.lease("alice").expect("escalated fix") else {
        panic!("a Confirm/Reject disagreement must escalate to a fix");
    };
    // ...and the typed suggestion value resolves it as a Confirm.
    session
        .supply_as("alice", fix_id, alice_update.value.clone())
        .expect("escalation supply");

    // Close by rejecting everything (forcing the supply sweep), supplying
    // one novel value, and skipping the rest.
    let mut supplied = 0usize;
    let mut guard = 0usize;
    'close: loop {
        for reviewer in ["alice", "bob"] {
            guard += 1;
            assert!(guard < 4_000, "close script did not terminate");
            match session.lease(reviewer).expect("close lease") {
                TeamPlan::Ask { id, .. } => {
                    session
                        .answer_as(reviewer, id, Feedback::Reject)
                        .expect("close reject");
                }
                TeamPlan::Fix { id, .. } => {
                    if supplied == 0 {
                        session
                            .supply_as(reviewer, id, novel_string())
                            .expect("sweep supply");
                    } else {
                        session.skip_as(reviewer, id).expect("sweep skip");
                    }
                    supplied += 1;
                }
                TeamPlan::Wait => {}
                TeamPlan::Done(_) => break 'close,
            }
        }
    }
    session.finish().expect("finish");
}

/// The durability acceptance criterion: a session journaling every team
/// event kind, cut at **every** record boundary, rehydrates from disk
/// bit-identically to the in-memory replay of the same prefix — and
/// compacting the rehydrated session then restoring from its snapshot
/// changes nothing.
#[test]
fn team_events_rehydrate_bit_identically_at_every_boundary() {
    let recorded = TempDir::new("team-durable-ref");
    let mut spec = figure1_spec(Strategy::GdrNoLearning, true);
    spec.team = TeamConfig {
        policy: ConflictPolicy::EscalateToNeedsValue,
        lease_ttl: 32,
    };
    let mut live = SessionOptions::new()
        .journal(journal_config())
        .durable(recorded.path())
        .open(spec)
        .expect("open durable");
    record_team_session(&mut live);
    let final_digest = team_digest(live.team());
    drop(live);

    let spec_bytes = fs::read(recorded.join("spec.gdrj")).expect("read spec");
    let stream = fs::read(recorded.join("seg-000000.gdrj")).expect("read log");
    let loaded = DiskJournal::load(recorded.path()).expect("load");
    assert!(loaded.recovery.clean(), "{:?}", loaded.recovery);
    let events = loaded.events;

    // The script really did journal every team event kind.
    for (name, seen) in [
        (
            "Leased",
            events
                .iter()
                .any(|e| matches!(e, TranscriptEvent::Leased { .. })),
        ),
        (
            "Waited",
            events
                .iter()
                .any(|e| matches!(e, TranscriptEvent::Waited { .. })),
        ),
        (
            "AnsweredAs",
            events
                .iter()
                .any(|e| matches!(e, TranscriptEvent::AnsweredAs { .. })),
        ),
        (
            "SuppliedAs",
            events
                .iter()
                .any(|e| matches!(e, TranscriptEvent::SuppliedAs { .. })),
        ),
        (
            "SkippedAs",
            events
                .iter()
                .any(|e| matches!(e, TranscriptEvent::SkippedAs { .. })),
        ),
        (
            "Released",
            events
                .iter()
                .any(|e| matches!(e, TranscriptEvent::Released { .. })),
        ),
        (
            "resolution-carrying *_as",
            events.iter().any(|e| match e {
                TranscriptEvent::AnsweredAs { resolved, .. }
                | TranscriptEvent::SuppliedAs { resolved, .. }
                | TranscriptEvent::SkippedAs { resolved, .. } => !resolved.is_empty(),
                _ => false,
            }),
        ),
    ] {
        assert!(seen, "script never journaled a {name} event");
    }
    assert_eq!(
        events.last(),
        Some(&TranscriptEvent::Finished { pulled: true })
    );

    // Byte offset just past each record, from the events' framed lengths.
    let record_ends = record_ends(&events);
    assert_eq!(record_ends.last().copied(), Some(stream.len()));

    for boundary in 0..=events.len() {
        let cut = if boundary == 0 {
            0
        } else {
            record_ends[boundary - 1]
        };
        let dir = TempDir::new("team-durable-boundary");
        fs::write(dir.join("spec.gdrj"), &spec_bytes).expect("write spec");
        fs::write(dir.join("seg-000000.gdrj"), &stream[..cut]).expect("write segment");

        let (mut session, recovery) =
            Session::rehydrate(dir.path(), journal_config()).expect("rehydrate");
        assert!(recovery.clean(), "boundary {boundary}: {recovery:?}");
        assert_eq!(session.journal().transcript(), &events[..boundary]);

        // Disk rehydration equals the in-memory replay of the same prefix,
        // coordinator state included.
        let twin = SessionJournal::from_events(
            DiskJournal::load(dir.path()).expect("load").spec,
            events[..boundary].to_vec(),
        )
        .replay()
        .expect("in-memory replay");
        let rehydrated = team_digest(session.team());
        assert_eq!(
            rehydrated,
            team_digest(&twin),
            "boundary {boundary}: disk and in-memory replay diverged"
        );

        // Compaction then snapshot restore is invisible at every boundary.
        session.compact().expect("compact");
        assert!(session.journal().transcript().is_empty());
        session.restore().expect("restore from snapshot");
        assert_eq!(
            team_digest(session.team()),
            rehydrated,
            "boundary {boundary}: compacted restore diverged"
        );
    }

    // Rehydrating the untouched recording lands on the live final state.
    let (full, recovery) =
        Session::rehydrate(recorded.path(), journal_config()).expect("rehydrate full");
    assert!(recovery.clean(), "{recovery:?}");
    assert_eq!(team_digest(full.team()), final_digest);
}
