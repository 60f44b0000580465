//! Recovery throughput: journal events replayed per second when a session is
//! rebuilt from its transcript.
//!
//! A durable Figure-1 session is recorded once through the multi-reviewer
//! verbs (every answer journals a `Leased` and an `AnsweredAs` record, the
//! latter carrying the resolutions it committed, so the transcript is about
//! twice the answer count), with auto-compaction disabled so every rebuild
//! replays the full stream.  Three paths are timed:
//!
//! * `live_rehydrate/full` — [`Session::restore`]: the in-memory journal
//!   replays onto a fresh engine (the `restore` verb / compaction
//!   validation path).
//! * `cold_restore/full` — [`Session::rehydrate`]: the session's one event
//!   log is read back from disk, decoded, and replayed (the crash-recovery
//!   path).
//! * `cold_restore/checkpointed` — the same recovery after one
//!   [`Session::compact`] persisted a `snap-NNNNNN.gdrs` checkpoint:
//!   rehydrate decodes the serialised session and replays only the journal
//!   tail (empty here, since the compact covered the whole transcript).
//!
//! `median_ns` is ns per full rebuild; events replayed/sec is printed.
//! Written as `BENCH_recovery.json` in the criterion-shim schema and gated
//! by `ci/compare_bench.py` like every other suite.

use std::fs;
use std::net::{SocketAddr, TcpListener};
use std::path::PathBuf;
use std::time::Instant;

use gdr_core::config::GdrConfig;
use gdr_core::fixture;
use gdr_core::oracle::{GroundTruthOracle, UserOracle};
use gdr_core::strategy::Strategy;
use gdr_core::team::{ConflictPolicy, TeamConfig, TeamPlan};
use gdr_serve::journal::{FsyncPolicy, JournalConfig};
use gdr_serve::store::{OpenSpec, Session, SessionOptions};

const REPS: usize = 20;

struct Row {
    id: String,
    median_ns: f64,
    mean_ns: f64,
    samples: usize,
}

fn median(samples: &mut [f64]) -> f64 {
    samples.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    samples[samples.len() / 2]
}

fn mean(samples: &[f64]) -> f64 {
    samples.iter().sum::<f64>() / samples.len() as f64
}

fn row(id: &str, mut samples: Vec<f64>) -> Row {
    let med = median(&mut samples);
    println!(
        "recovery/{id:<20} median {:.3} ms ({} samples)",
        med / 1e6,
        samples.len()
    );
    Row {
        id: id.to_string(),
        median_ns: med,
        mean_ns: mean(&samples),
        samples: samples.len(),
    }
}

fn journal_config() -> JournalConfig {
    JournalConfig {
        // Never fsync: this bench times replay, not the disk controller.
        fsync: FsyncPolicy::Never,
        // No auto-compaction: every rebuild replays the full transcript.
        // The one explicit compaction validates by replay, outside the
        // timed loops.
        compact_every: 0,
    }
}

fn figure1_spec() -> OpenSpec {
    let (dirty, clean, rules) = fixture::figure1_instance();
    let mut spec = OpenSpec::new(dirty, rules);
    spec.strategy = Strategy::GdrNoLearning;
    spec.config = GdrConfig::fast();
    spec.ground_truth = Some(clean);
    spec.team = TeamConfig {
        policy: ConflictPolicy::FirstWins,
        lease_ttl: 32,
    };
    spec
}

/// A unique scratch directory (no tempfile crate in this workspace).
fn scratch_dir() -> PathBuf {
    // A bound socket's ephemeral port is as good a uniquifier as a clock.
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr: SocketAddr = listener.local_addr().expect("addr");
    let dir = std::env::temp_dir().join(format!(
        "gdr-recovery-bench-{}-{}",
        std::process::id(),
        addr.port()
    ));
    if dir.exists() {
        fs::remove_dir_all(&dir).expect("clear scratch dir");
    }
    dir
}

/// Records the reference session: two reviewers drive Figure 1 to
/// completion through the team verbs with ground-truth answers.
fn record_session(session: &mut Session) {
    let oracle = GroundTruthOracle::new(figure1_spec().ground_truth.expect("truth"));
    let mut guard = 0usize;
    'drive: loop {
        for reviewer in ["a", "b"] {
            guard += 1;
            assert!(guard < 4_000, "recording did not converge");
            match session.lease(reviewer).expect("lease") {
                TeamPlan::Ask { id, update } => {
                    let feedback = {
                        let current = session
                            .engine()
                            .state()
                            .table()
                            .cell(update.tuple, update.attr);
                        oracle.feedback(&update, current)
                    };
                    session.answer_as(reviewer, id, feedback).expect("answer");
                }
                TeamPlan::Fix { id, cell, current } => match oracle.correct_value(cell.0, cell.1) {
                    Some(value) if value != current => {
                        session.supply_as(reviewer, id, value).expect("supply");
                    }
                    _ => session.skip_as(reviewer, id).expect("skip"),
                },
                TeamPlan::Wait => {}
                TeamPlan::Done(_) => break 'drive,
            }
        }
    }
    session.finish().expect("finish");
}

fn write_json(rows: &[Row]) {
    let mut json = String::from("{\n  \"group\": \"recovery\",\n  \"benchmarks\": [\n");
    for (i, r) in rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"id\": \"{}\", \"median_ns\": {:.1}, \"mean_ns\": {:.1}, \"samples\": {}, \"iters_per_sample\": 1}}{}\n",
            r.id,
            r.median_ns,
            r.mean_ns,
            r.samples,
            if i + 1 == rows.len() { "" } else { "," }
        ));
    }
    json.push_str("  ]\n}\n");
    let dir = PathBuf::from(std::env::var("BENCH_OUT_DIR").unwrap_or_else(|_| ".".to_string()));
    fs::create_dir_all(&dir).expect("create BENCH_OUT_DIR");
    let path = dir.join("BENCH_recovery.json");
    fs::write(&path, json).expect("write bench json");
    println!("wrote {}", path.display());
}

fn main() {
    let dir = scratch_dir();
    let mut live = SessionOptions::new()
        .journal(journal_config())
        .durable(&dir)
        .open(figure1_spec())
        .expect("open durable");
    record_session(&mut live);
    let events = live.journal().transcript().len();
    println!("recorded transcript: {events} events");

    // Live rehydration: in-memory journal replayed onto a fresh engine.
    let live_samples: Vec<f64> = (0..REPS)
        .map(|_| {
            let start = Instant::now();
            live.restore().expect("restore");
            start.elapsed().as_secs_f64() * 1e9
        })
        .collect();
    drop(live);

    // Cold restore: read the log back from disk and replay.
    let cold_samples: Vec<f64> = (0..REPS)
        .map(|_| {
            let start = Instant::now();
            let (session, recovery) =
                Session::rehydrate(&dir, journal_config()).expect("rehydrate");
            let elapsed = start.elapsed().as_secs_f64() * 1e9;
            assert!(recovery.clean(), "{recovery:?}");
            assert_eq!(session.journal().transcript().len(), events);
            elapsed
        })
        .collect();

    // Checkpointed cold restore: one compaction persists the serialised
    // session as a `snap-NNNNNN.gdrs` checkpoint covering the whole
    // transcript, so recovery decodes it instead of replaying.
    {
        let (mut session, recovery) =
            Session::rehydrate(&dir, journal_config()).expect("rehydrate for compact");
        assert!(recovery.clean(), "{recovery:?}");
        session.compact().expect("compact");
        assert_eq!(session.journal().snapshot_events(), events);
    }
    let ckpt_samples: Vec<f64> = (0..REPS)
        .map(|_| {
            let start = Instant::now();
            let (session, recovery) =
                Session::rehydrate(&dir, journal_config()).expect("rehydrate");
            let elapsed = start.elapsed().as_secs_f64() * 1e9;
            assert!(recovery.clean(), "{recovery:?}");
            assert_eq!(session.journal().snapshot_events(), events);
            assert_eq!(session.journal().events_total(), events);
            elapsed
        })
        .collect();
    fs::remove_dir_all(&dir).expect("remove scratch dir");

    for (label, samples) in [
        ("live", &live_samples),
        ("cold", &cold_samples),
        ("cold checkpointed", &ckpt_samples),
    ] {
        let med = {
            let mut m = samples.clone();
            median(&mut m)
        };
        println!(
            "{label} replay: {:.0} events/sec",
            events as f64 * 1e9 / med
        );
    }
    let rows = vec![
        row("live_rehydrate/full", live_samples),
        row("cold_restore/full", cold_samples),
        row("cold_restore/checkpointed", ckpt_samples),
    ];
    write_json(&rows);
}
