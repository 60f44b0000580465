//! The traced run: one loopback cycle's request stream, replayed through
//! successively lower public entry points, each call timed.
//!
//! | level | entry points | gives |
//! |---|---|---|
//! | client | the loopback exchange (`Conn`) | round trip, client codec |
//! | wire | `wire::decode_request_frame`, `server::dispatch_with`, `wire::encode_response_frame` on an in-process durable store | server codec, dispatch |
//! | store | `SessionStore::{open, get}` and the `store::Session` verbs | shard lookup, rehydration, verb |
//! | engine | `GdrEngine` / `TeamSession` verbs (the correctness twin) | engine phases |
//! | journal | `DiskJournal::{create, append, load}`, `decode_spec`, `TeamSession::{to,from}_snapshot_bytes` | disk |
//!
//! A layer's self time is its level's time minus the next level's, per
//! exchange: transport = round trip − client codec − server codec −
//! dispatch; server = dispatch − parse − store; store = store − engine −
//! journal.  The self times of an exchange therefore add up to its round
//! trip.  A set-up, a wait or a recovery is explained by its exchanges'
//! self times plus what the client timed outside them (connects, the gaps
//! between requests) and, for a recovery, the server's start-up; whatever
//! the cycle's figure holds beyond that sum is reported as `unexplained`.
//!
//! The loopback cycle is measured before any replay runs and carries no
//! more instrumentation than an untraced run's, so tracing adds nothing to
//! the figures it explains; `trace.replay_s` is what the replay costs.

use std::fs;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use gdr_cfd::{parser::parse_rules, RuleSet, ViolationEngine};
use gdr_core::step::WorkId;
use gdr_core::team::TeamSession;
use gdr_relation::csv::parse_csv;
use gdr_repair::RepairState;
use gdr_serve::journal::{decode_event, decode_spec, scan_records, JournalConfig};
use gdr_serve::server::{dispatch_with, ServerLimits};
use gdr_serve::store::{
    DurabilityConfig, OpenSpec, Session, SessionJournal, SessionStore, TranscriptEvent,
};
use gdr_serve::wire::{
    decode_request_frame, encode_request_frame, encode_response_frame, Request, Response,
};
use gdr_serve::DiskJournal;

use crate::drive::{key, Exchange, Lane, Phase};
use crate::metrics::{max, median, ms, quantile, secs, us, Metrics};
use crate::server::server_config;
use crate::twin::{plan_reply, team_reply, BuildTimes, Twin};
use crate::CycleRecord;

/// The layers an exchange's round trip is split into, top to bottom.
pub const LAYERS: [&str; 8] = [
    "client",
    "transport",
    "wire",
    "server",
    "parse",
    "store",
    "engine",
    "journal",
];

/// Sessions the lower levels replay: all of `solo_review` and
/// `cold_restart`, a sample of `team_fleet` (whose every session does the
/// same work), which keeps a traced run well inside its time limit.
const TRACED_LANES: usize = 8;

/// Engine calls at least this long count as stalls.
const STALL: Duration = Duration::from_millis(100);

/// Per-exchange timings from every level.
#[derive(Debug, Clone, Copy, Default)]
struct Times {
    decode: Duration,
    dispatch: Duration,
    encode: Duration,
    frame_bytes: usize,
    parse: Duration,
    get: Duration,
    verb: Duration,
    events: usize,
    compacted: bool,
    rehydrated: bool,
    engine: Duration,
    journal: Duration,
}

impl Times {
    /// Self time per layer (seconds), in `LAYERS` order; they add up to
    /// `rtt`.
    fn self_times(&self, rtt: Duration, client_codec: Duration) -> [f64; 8] {
        let s = secs;
        let store = s(self.get + self.verb);
        [
            s(client_codec),
            s(rtt) - s(client_codec) - s(self.decode + self.encode) - s(self.dispatch),
            s(self.decode + self.encode),
            s(self.dispatch) - s(self.parse) - store,
            s(self.parse),
            store - s(self.engine) - s(self.journal),
            s(self.engine),
            s(self.journal),
        ]
    }
}

fn verb(request: &Request) -> &'static str {
    match request {
        Request::Hello { .. } => "hello",
        Request::Open { .. } => "open",
        Request::Next { .. } => "next",
        Request::Answer { .. } => "answer",
        Request::Supply { .. } => "supply",
        Request::Skip { .. } => "skip",
        Request::Finish { .. } => "finish",
        Request::Report { .. } => "report",
        Request::Restore { .. } => "restore",
        Request::Compact { .. } => "compact",
        Request::Lease { .. } => "lease",
        Request::AnswerAs { .. } => "answer_as",
        Request::SupplyAs { .. } => "supply_as",
        Request::SkipAs { .. } => "skip_as",
        Request::Release { .. } => "release",
        Request::Leases { .. } => "leases",
    }
}

fn session_of(request: &Request) -> &str {
    match request {
        Request::Hello { .. } => "",
        Request::Open { session, .. }
        | Request::Next { session }
        | Request::Answer { session, .. }
        | Request::Supply { session, .. }
        | Request::Skip { session, .. }
        | Request::Finish { session }
        | Request::Report { session }
        | Request::Restore { session }
        | Request::Compact { session }
        | Request::Lease { session, .. }
        | Request::AnswerAs { session, .. }
        | Request::SupplyAs { session, .. }
        | Request::SkipAs { session, .. }
        | Request::Release { session, .. }
        | Request::Leases { session } => session,
    }
}

/// Exchanges of every lane, grouped by server lifetime (restart epoch), in
/// the order each lane sent them.
fn by_epoch(lanes: &[Lane]) -> Vec<Vec<(usize, usize)>> {
    let epochs = lanes
        .iter()
        .flat_map(|l| l.log.iter().map(|e| e.restarts as usize))
        .max()
        .map_or(0, |m| m + 1);
    let mut out = vec![Vec::new(); epochs];
    for (li, lane) in lanes.iter().enumerate() {
        for (i, exchange) in lane.log.iter().enumerate() {
            out[exchange.restarts as usize].push((li, i));
        }
    }
    out
}

fn mismatch(lane: &Lane, index: usize, level: &str, got: &Response) -> String {
    format!(
        "{} exchange {index}: {level} replay replied {}, server {}",
        lane.input.id,
        key(got),
        key(&lane.log[index].response)
    )
}

/// Level wire: frames through the codec and `dispatch_with`.
fn level_wire(lanes: &[Lane], root: &Path, times: &mut [Vec<Times>]) -> Result<(), String> {
    let config = server_config(root);
    let limits = ServerLimits::default();
    for exchanges in by_epoch(lanes) {
        // A new store per server lifetime: sessions rehydrate from disk.
        let store = config.build_store().map_err(|e| format!("{e:?}"))?;
        for (li, i) in exchanges {
            let exchange = &lanes[li].log[i];
            let line = encode_request_frame(&exchange.request, None);
            let started = Instant::now();
            let (seq, decoded) = decode_request_frame(&line);
            let decode = started.elapsed();
            let request = decoded?;
            let started = Instant::now();
            let response = dispatch_with(&store, request, &limits);
            let dispatch = started.elapsed();
            let started = Instant::now();
            black_box(encode_response_frame(&response, seq));
            let encode = started.elapsed();
            if key(&response) != key(&exchange.response) {
                return Err(mismatch(&lanes[li], i, "wire", &response));
            }
            let t = &mut times[li][i];
            t.decode = decode;
            t.dispatch = dispatch;
            t.encode = encode;
            t.frame_bytes = line.len();
        }
    }
    Ok(())
}

/// Runs one verb on a store session, as the server's dispatch does.
fn session_verb(session: &mut Session, request: &Request) -> Result<Response, String> {
    let err = |e| format!("{e:?}");
    Ok(match request {
        Request::Next { .. } => {
            let plan = session.next().map_err(err)?;
            plan_reply(session.engine(), plan)
        }
        Request::Answer { id, feedback, .. } => Response::Answered {
            verifications: session
                .answer(WorkId::from_raw(*id), *feedback)
                .map_err(err)?,
        },
        Request::Supply {
            tuple, attr, value, ..
        } => Response::Supplied {
            verifications: session
                .supply((*tuple, *attr), value.clone())
                .map_err(err)?,
        },
        Request::Skip { tuple, attr, .. } => {
            session.skip((*tuple, *attr)).map_err(err)?;
            Response::Skipped
        }
        Request::Report { .. } => {
            let engine = session.engine();
            Response::Report {
                verifications: engine.verifications(),
                learner_decisions: engine.learner_decisions(),
                dirty_tuples: engine.state().dirty_tuples().len(),
                eval: None,
            }
        }
        Request::Lease { reviewer, .. } => {
            let plan = session.lease(reviewer).map_err(err)?;
            team_reply(session.engine(), plan)
        }
        Request::AnswerAs {
            reviewer,
            id,
            feedback,
            ..
        } => Response::Answered {
            verifications: session
                .answer_as(reviewer, WorkId::from_raw(*id), *feedback)
                .map_err(err)?,
        },
        Request::SupplyAs {
            reviewer,
            id,
            value,
            ..
        } => Response::Supplied {
            verifications: session
                .supply_as(reviewer, WorkId::from_raw(*id), value.clone())
                .map_err(err)?,
        },
        Request::SkipAs { reviewer, id, .. } => {
            session
                .skip_as(reviewer, WorkId::from_raw(*id))
                .map_err(err)?;
            Response::Skipped
        }
        other => return Err(format!("no store replay for {other:?}")),
    })
}

/// The `OpenSpec` an `open` request builds, as the server's dispatch
/// builds it.
fn open_spec(request: &Request) -> Result<OpenSpec, String> {
    let Request::Open {
        table_csv,
        rules,
        strategy,
        policy,
        ..
    } = request
    else {
        return Err(format!("not an open request: {request:?}"));
    };
    let dirty = parse_csv("dirty", table_csv).map_err(|e| e.to_string())?;
    let rules = parse_rules(dirty.schema(), rules).map_err(|e| e.to_string())?;
    let mut spec = OpenSpec::new(dirty, RuleSet::new(rules));
    spec.strategy = *strategy;
    if let Some(policy) = policy {
        spec.team.policy = *policy;
    }
    Ok(spec)
}

/// Every event a journal directory holds, in order: its segments scanned
/// and decoded (the spec record is not read).
fn journal_events(dir: &Path) -> Result<Vec<TranscriptEvent>, String> {
    let mut segments: Vec<PathBuf> = fs::read_dir(dir)
        .map_err(|e| e.to_string())?
        .filter_map(Result::ok)
        .map(|entry| entry.path())
        .filter(|path| {
            path.file_name()
                .and_then(|name| name.to_str())
                .is_some_and(|name| name.starts_with("seg-") && name.ends_with(".gdrj"))
        })
        .collect();
    segments.sort();
    let mut events = Vec::new();
    for path in segments {
        let bytes = fs::read(&path).map_err(|e| e.to_string())?;
        for payload in scan_records(&bytes).payloads {
            events.push(decode_event(&payload)?);
        }
    }
    Ok(events)
}

/// What the store level learns about recovery, per restarted session.
#[derive(Debug, Default)]
struct Recovery {
    load: Vec<f64>,
    decode_spec: Vec<f64>,
    replayed: usize,
    rehydrate: Vec<f64>,
    replay_time: f64,
}

/// Sessions whose `decode_spec` is timed on its own (it is also inside
/// every `load`, and it is the slowest step of recovery).
const DECODE_SPEC_SAMPLES: usize = 4;

/// Times `decode_spec` on a journal directory's spec record.
fn time_decode_spec(dir: &Path) -> Result<Duration, String> {
    let bytes = fs::read(dir.join("spec.gdrj")).map_err(|e| e.to_string())?;
    let scan = scan_records(&bytes);
    let payload = scan.payloads.first().ok_or("empty spec record")?;
    let started = Instant::now();
    black_box(decode_spec(payload)?);
    Ok(started.elapsed())
}

/// Level store: `SessionStore` and `store::Session` verbs, no wire.
fn level_store(
    lanes: &[Lane],
    root: &Path,
    times: &mut [Vec<Times>],
    dirs: &mut [PathBuf],
    recovery: &mut Recovery,
) -> Result<(), String> {
    let durability = DurabilityConfig::new(root);
    for (epoch, exchanges) in by_epoch(lanes).into_iter().enumerate() {
        let mut loads = vec![Duration::ZERO; lanes.len()];
        if epoch > 0 {
            for (li, dir) in dirs.iter().enumerate() {
                let started = Instant::now();
                let loaded = DiskJournal::load(dir).map_err(|e| format!("{e:?}"))?;
                loads[li] = started.elapsed();
                recovery.load.push(secs(loads[li]));
                if li < DECODE_SPEC_SAMPLES {
                    recovery.decode_spec.push(secs(time_decode_spec(dir)?));
                }
                let (journal, covered) = match loaded.checkpoint {
                    Some((covered, team)) => (
                        SessionJournal::from_checkpoint(loaded.spec, team, covered, &loaded.events),
                        covered,
                    ),
                    None => (
                        SessionJournal::from_events(loaded.spec, loaded.events.clone()),
                        0,
                    ),
                };
                let started = Instant::now();
                black_box(journal.replay().map_err(|e| format!("{e:?}"))?);
                recovery.replay_time += secs(started.elapsed());
                recovery.replayed += loaded.events.len() - covered;
            }
        }
        let store = SessionStore::durable(durability.clone()).map_err(|e| format!("{e:?}"))?;
        let mut fresh = vec![epoch > 0; lanes.len()];
        for (li, i) in exchanges {
            let lane = &lanes[li];
            let exchange = &lane.log[i];
            let t = &mut times[li][i];
            if let Request::Open { session, .. } = &exchange.request {
                let started = Instant::now();
                let spec = open_spec(&exchange.request)?;
                t.parse = started.elapsed();
                let started = Instant::now();
                let handle = store.open(session, spec).map_err(|e| format!("{e:?}"))?;
                t.verb = started.elapsed();
                let guard = handle.lock().expect("no replay thread panicked");
                dirs[li] = guard
                    .disk_dir()
                    .ok_or("store session is not durable")?
                    .to_path_buf();
                continue;
            }
            let started = Instant::now();
            let handle = store
                .get(session_of(&exchange.request))
                .map_err(|e| format!("{e:?}"))?;
            t.get = started.elapsed();
            if fresh[li] {
                fresh[li] = false;
                t.rehydrated = true;
                t.journal = loads[li];
                recovery.rehydrate.push(secs(t.get));
            }
            let mut session = handle.lock().expect("no replay thread panicked");
            let (events, snapshot) = (
                session.journal().events_total(),
                session.journal().snapshot_events(),
            );
            let started = Instant::now();
            let response = session_verb(&mut session, &exchange.request)?;
            t.verb = started.elapsed();
            t.events = session.journal().events_total() - events;
            t.compacted = session.journal().snapshot_events() != snapshot;
            if key(&response) != key(&exchange.response) {
                return Err(mismatch(lane, i, "store", &response));
            }
        }
    }
    Ok(())
}

/// Level engine: the twin, timed.  Returns each lane's final twin and
/// build times.
fn level_engine(
    lanes: &[Lane],
    times: &mut [Vec<Times>],
) -> Result<Vec<(Twin, BuildTimes)>, String> {
    let mut twins = Vec::new();
    for (li, lane) in lanes.iter().enumerate() {
        let (mut twin, build) = Twin::open(&lane.input)?;
        for (i, exchange) in lane.log.iter().enumerate() {
            let started = Instant::now();
            let response = twin
                .apply(&exchange.request)
                .map_err(|e| format!("{}: {e}", lane.input.id))?;
            times[li][i].engine = if matches!(exchange.request, Request::Open { .. }) {
                build.build
            } else {
                started.elapsed()
            };
            if key(&response) != key(&exchange.response) {
                return Err(mismatch(lane, i, "engine", &response));
            }
        }
        twins.push((twin, build));
    }
    Ok(twins)
}

/// Level journal: each session's events re-appended to a fresh journal,
/// one timed `append` each.  Returns every append time and the fsyncs.
fn level_journal(
    lanes: &[Lane],
    dirs: &[PathBuf],
    root: &Path,
    times: &mut [Vec<Times>],
) -> Result<(Vec<f64>, u64), String> {
    let mut appends = Vec::new();
    let mut fsyncs = 0;
    for (li, dir) in dirs.iter().enumerate() {
        let events = journal_events(dir)?;
        let open = lanes[li].log.first().ok_or("a lane opens first")?;
        let spec = open_spec(&open.request)?;
        let started = Instant::now();
        let mut journal =
            DiskJournal::create(root.join(format!("{li}")), &spec, JournalConfig::default())
                .map_err(|e| format!("{e:?}"))?;
        let create = started.elapsed();
        let mut event_times = Vec::with_capacity(events.len());
        for event in &events {
            let started = Instant::now();
            journal.append(event).map_err(|e| format!("{e:?}"))?;
            event_times.push(started.elapsed());
        }
        fsyncs += journal.syncs();
        appends.extend(event_times.iter().map(|d| us(*d)));
        let typical = Duration::from_secs_f64(median(&appends) / 1e6);
        let mut cursor = 0;
        for (i, exchange) in lanes[li].log.iter().enumerate() {
            let t = &mut times[li][i];
            if matches!(exchange.request, Request::Open { .. }) {
                t.journal = create;
                continue;
            }
            let spent: Duration = (cursor..cursor + t.events)
                .map(|e| event_times.get(e).copied().unwrap_or(typical))
                .sum();
            cursor += t.events;
            t.journal += spent;
        }
    }
    Ok((appends, fsyncs))
}

/// Median of `f` over the exchanges whose request satisfies `pick`.
fn median_of(
    lanes: &[Lane],
    times: &[Vec<Times>],
    pick: impl Fn(&Request, &Times) -> bool,
    f: impl Fn(&Times) -> f64,
) -> f64 {
    let values: Vec<f64> = exchanges(lanes, times)
        .filter(|(e, t)| pick(&e.request, t))
        .map(|(_, t)| f(t))
        .collect();
    median(&values)
}

fn exchanges<'a>(
    lanes: &'a [Lane],
    times: &'a [Vec<Times>],
) -> impl Iterator<Item = (&'a Exchange, &'a Times)> {
    lanes
        .iter()
        .zip(times)
        .flat_map(|(lane, t)| lane.log.iter().zip(t.iter()))
}

/// Sums self times over a set of exchanges.
fn layer_sum<'a>(items: impl Iterator<Item = (&'a Exchange, &'a Times)>) -> ([f64; 8], f64) {
    let mut sum = [0.0; 8];
    let mut rtt = 0.0;
    for (exchange, t) in items {
        for (s, v) in sum
            .iter_mut()
            .zip(t.self_times(exchange.rtt, exchange.client_codec))
        {
            *s += v;
        }
        rtt += secs(exchange.rtt);
    }
    (sum, rtt)
}

/// Scales the sampled lanes' self times of the exchanges `pick` selects up
/// to every lane, in proportion to round-trip time; returns every lane's
/// round-trip total.
fn scale_to_all(
    layers: &mut [f64; 8],
    sampled_rtt: f64,
    all: &[Lane],
    pick: &dyn Fn(&Exchange) -> bool,
) -> f64 {
    let all_rtt: f64 = all
        .iter()
        .flat_map(|lane| lane.log.iter())
        .filter(|e| pick(e))
        .map(|e| secs(e.rtt))
        .sum();
    if sampled_rtt > 0.0 {
        for layer in layers.iter_mut() {
            *layer *= all_rtt / sampled_rtt;
        }
    }
    all_rtt
}

/// Client time before the exchanges `pick` selects, over every lane.
fn gaps(all: &[Lane], pick: &dyn Fn(&Exchange) -> bool) -> f64 {
    all.iter()
        .flat_map(|lane| lane.log.iter())
        .filter(|e| pick(e))
        .map(|e| secs(e.gap))
        .sum()
}

/// Books a breakdown of the cycle's `untraced` figure (seconds) into
/// `layers`, scaled to `unit`, and what the layers leave unexplained.
fn book(
    out: &mut Metrics,
    metric: &str,
    layers: &[(&str, f64)],
    untraced: f64,
    scale: f64,
    unit: &'static str,
) {
    for (name, value) in layers {
        out.set(format!("trace.{metric}.{name}"), value * scale, unit);
    }
    let sum: f64 = layers.iter().map(|(_, value)| value).sum();
    out.set(format!("trace.{metric}.layers_sum"), sum * scale, unit);
    out.set(format!("trace.{metric}.untraced"), untraced * scale, unit);
    out.set(
        format!("trace.{metric}.unexplained"),
        (untraced - sum) * scale,
        unit,
    );
}

/// `LAYERS` named, in order.
fn named(layers: [f64; 8]) -> Vec<(&'static str, f64)> {
    LAYERS.iter().copied().zip(layers).collect()
}

/// Replays `record`, books every per-layer metric, and writes the spans.
/// `untraced` holds the cycle's end-to-end figures.
pub fn run(
    record: &CycleRecord,
    dir: &Path,
    untraced: &Metrics,
    spans_path: &Path,
) -> Result<Metrics, String> {
    let replay = Instant::now();
    let all = &record.lanes;
    let lanes = &all[..all.len().min(TRACED_LANES)];
    let mut times: Vec<Vec<Times>> = lanes
        .iter()
        .map(|l| vec![Times::default(); l.log.len()])
        .collect();
    let mut dirs = vec![PathBuf::new(); lanes.len()];
    let mut recovery = Recovery::default();
    let started = Instant::now();
    level_wire(lanes, &dir.join("wire"), &mut times)?;
    eprintln!("trace: wire level {:.1} s", secs(started.elapsed()));
    let started = Instant::now();
    level_store(
        lanes,
        &dir.join("store"),
        &mut times,
        &mut dirs,
        &mut recovery,
    )?;
    eprintln!("trace: store level {:.1} s", secs(started.elapsed()));
    let started = Instant::now();
    let twins = level_engine(lanes, &mut times)?;
    let (appends, fsyncs) = level_journal(lanes, &dirs, &dir.join("journal"), &mut times)?;
    eprintln!(
        "trace: engine and journal levels {:.1} s",
        secs(started.elapsed())
    );
    let mut out = Metrics::default();

    // serve::wire / json
    let is_open = |r: &Request, _: &Times| matches!(r, Request::Open { .. });
    let not_open = |r: &Request, _: &Times| !matches!(r, Request::Open { .. });
    out.set(
        "serve.wire.decode_open_ms",
        median_of(lanes, &times, is_open, |t| ms(t.decode)),
        "ms",
    );
    out.set(
        "serve.wire.open_frame_bytes",
        median_of(lanes, &times, is_open, |t| t.frame_bytes as f64),
        "bytes",
    );
    out.set(
        "serve.wire.decode_us",
        median_of(lanes, &times, not_open, |t| us(t.decode)),
        "us",
    );
    out.set(
        "serve.wire.encode_us",
        median_of(lanes, &times, |_, _| true, |t| us(t.encode)),
        "us",
    );

    // serve::server
    let review: Vec<f64> = exchanges(lanes, &times)
        .filter(|(e, _)| e.phase == Phase::Review)
        .map(|(e, t)| t.self_times(e.rtt, e.client_codec)[1] * 1e6)
        .collect();
    out.set(
        "serve.server.transport_us.p50",
        quantile(&review, 0.5),
        "us",
    );
    out.set(
        "serve.server.transport_us.p99",
        quantile(&review, 0.99),
        "us",
    );
    for name in [
        "open",
        "next",
        "answer",
        "skip",
        "lease",
        "answer_as",
        "report",
    ] {
        out.set(
            format!("serve.server.dispatch_us.{name}"),
            median_of(lanes, &times, |r, _| verb(r) == name, |t| us(t.dispatch)),
            "us",
        );
    }

    // serve::store
    out.set(
        "serve.store.open_ms",
        median_of(lanes, &times, is_open, |t| ms(t.verb)),
        "ms",
    );
    out.set(
        "serve.store.get_us",
        median_of(
            lanes,
            &times,
            |r, t| !matches!(r, Request::Open { .. }) && !t.rehydrated,
            |t| us(t.get),
        ),
        "us",
    );
    for name in ["next", "answer", "skip", "lease", "answer_as"] {
        out.set(
            format!("serve.store.session_us.{name}"),
            median_of(lanes, &times, |r, _| verb(r) == name, |t| us(t.verb)),
            "us",
        );
    }
    out.set(
        "serve.store.rehydrate_ms",
        median(&recovery.rehydrate) * 1e3,
        "ms",
    );

    // serve::journal, write side
    let answers: usize = lanes.iter().map(|l| l.answers).sum();
    let events: usize = times.iter().flatten().map(|t| t.events).sum();
    let compactions: Vec<f64> = exchanges(lanes, &times)
        .filter(|(_, t)| t.compacted)
        .map(|(e, t)| t.self_times(e.rtt, e.client_codec)[5] * 1e3)
        .collect();
    out.set("serve.journal.append_us.p50", quantile(&appends, 0.5), "us");
    out.set(
        "serve.journal.append_us.p99",
        quantile(&appends, 0.99),
        "us",
    );
    out.set("serve.journal.appends", appends.len() as f64, "count");
    out.set("serve.journal.fsyncs", fsyncs as f64, "count");
    out.set(
        "serve.journal.events_per_answer",
        events as f64 / answers.max(1) as f64,
        "ratio",
    );
    out.set(
        "serve.journal.compactions",
        compactions.len() as f64,
        "count",
    );
    out.set("serve.journal.compact_ms.p50", median(&compactions), "ms");
    out.set("serve.journal.compact_ms.max", max(&compactions), "ms");

    // serve::journal, read side
    out.set("serve.journal.load_ms", median(&recovery.load) * 1e3, "ms");
    out.set(
        "serve.journal.decode_spec_ms",
        median(&recovery.decode_spec) * 1e3,
        "ms",
    );
    out.set(
        "serve.journal.replayed_events",
        recovery.replayed as f64,
        "count",
    );
    out.set(
        "serve.journal.replay_events_per_s",
        recovery.replayed as f64 / recovery.replay_time.max(1e-9),
        "1/s",
    );

    // gdr::step and gdr::team
    let solo_verb = |names: &'static [&'static str]| move |r: &Request| names.contains(&verb(r));
    let engine_ms = |pick: &dyn Fn(&Request) -> bool| -> Vec<f64> {
        exchanges(lanes, &times)
            .filter(|(e, _)| e.phase != Phase::Setup && pick(&e.request))
            .map(|(_, t)| ms(t.engine))
            .collect()
    };
    let nexts = engine_ms(&solo_verb(&["next"]));
    let answers_ms = engine_ms(&solo_verb(&["answer", "supply", "skip"]));
    let builds: Vec<f64> = twins.iter().map(|(_, b)| ms(b.build)).collect();
    let first_pulls: Vec<f64> = lanes
        .iter()
        .zip(&times)
        .filter_map(|(lane, t)| {
            lane.log
                .iter()
                .position(|e| matches!(e.request, Request::Next { .. } | Request::Lease { .. }))
                .map(|i| ms(t[i].engine))
        })
        .collect();
    out.set("core.step.build_ms", median(&builds), "ms");
    out.set("core.step.first_next_ms", median(&first_pulls), "ms");
    out.set("core.step.next_work_ms.p50", quantile(&nexts, 0.5), "ms");
    out.set("core.step.next_work_ms.p99", quantile(&nexts, 0.99), "ms");
    out.set("core.step.next_work_ms.max", max(&nexts), "ms");
    out.set("core.step.answer_ms.p50", quantile(&answers_ms, 0.5), "ms");
    out.set("core.step.answer_ms.p99", quantile(&answers_ms, 0.99), "ms");
    out.set("core.step.answer_ms.max", max(&answers_ms), "ms");
    out.set(
        "core.step.stalls",
        times.iter().flatten().filter(|t| t.engine >= STALL).count() as f64,
        "count",
    );
    out.set(
        "core.step.learner_decisions",
        twins
            .iter()
            .map(|(t, _)| t.team.engine().learner_decisions())
            .sum::<usize>() as f64,
        "count",
    );
    let leases: Vec<&Exchange> = lanes
        .iter()
        .flat_map(|l| l.log.iter())
        .filter(|e| matches!(e.request, Request::Lease { .. }))
        .collect();
    let waits = leases
        .iter()
        .filter(|e| matches!(e.response, Response::Wait))
        .count();
    out.set(
        "core.team.lease_us",
        median_of(lanes, &times, |r, _| verb(r) == "lease", |t| us(t.engine)),
        "us",
    );
    out.set(
        "core.team.answer_as_us",
        median_of(
            lanes,
            &times,
            |r, _| verb(r) == "answer_as",
            |t| us(t.engine),
        ),
        "us",
    );
    out.set(
        "core.team.wait_ratio",
        waits as f64 / leases.len().max(1) as f64,
        "ratio",
    );
    out.set(
        "core.team.resolutions",
        twins
            .iter()
            .map(|(t, _)| t.team.resolutions().len())
            .sum::<usize>() as f64,
        "count",
    );

    // relation::codec
    let mut encode = Vec::new();
    let mut decode = Vec::new();
    let mut bytes = Vec::new();
    for (twin, _) in &twins {
        let started = Instant::now();
        let snapshot = twin.team.to_snapshot_bytes();
        encode.push(ms(started.elapsed()));
        let started = Instant::now();
        black_box(TeamSession::from_snapshot_bytes(&snapshot).map_err(|e| format!("{e:?}"))?);
        decode.push(ms(started.elapsed()));
        bytes.push(snapshot.len() as f64);
    }
    out.set("relation.codec.snapshot_encode_ms", median(&encode), "ms");
    out.set("relation.codec.snapshot_decode_ms", median(&decode), "ms");
    out.set("serve.journal.snapshot_bytes", median(&bytes), "bytes");

    // relation::csv, cfd, repair: the build steps of `open`
    let mut engine_build = Vec::new();
    let mut state_new = Vec::new();
    for lane in lanes {
        let table = parse_csv("dirty", &lane.input.table_csv).map_err(|e| e.to_string())?;
        let rules = RuleSet::new(
            parse_rules(table.schema(), &lane.input.rules).map_err(|e| e.to_string())?,
        );
        let started = Instant::now();
        black_box(ViolationEngine::build(&table, &rules));
        engine_build.push(ms(started.elapsed()));
        let started = Instant::now();
        black_box(RepairState::new(table, &rules));
        state_new.push(ms(started.elapsed()));
    }
    out.set(
        "relation.csv.parse_ms",
        median(
            &twins
                .iter()
                .map(|(_, b)| ms(b.parse_csv))
                .collect::<Vec<_>>(),
        ),
        "ms",
    );
    out.set(
        "cfd.parse_rules_ms",
        median(
            &twins
                .iter()
                .map(|(_, b)| ms(b.parse_rules))
                .collect::<Vec<_>>(),
        ),
        "ms",
    );
    out.set("cfd.engine_build_ms", median(&engine_build), "ms");
    out.set("repair.state_new_ms", median(&state_new), "ms");

    // Breakdowns of the three explained end-to-end figures.
    let get = |name: &str| untraced.get(name).unwrap_or(0.0);
    let setup = |e: &Exchange| e.phase == Phase::Setup;
    let (mut setup_layers, setup_rtt) =
        layer_sum(exchanges(lanes, &times).filter(|(e, _)| setup(e)));
    let setup_all = scale_to_all(&mut setup_layers, setup_rtt, all, &setup);
    setup_layers[0] += secs(record.connect) + gaps(all, &setup);
    book(
        &mut out,
        "setup_s",
        &named(setup_layers),
        get("setup_s"),
        1.0,
        "s",
    );

    // The median band of waits (40th–60th percentile) of the measured
    // review — the last server lifetime that reviewed — explains the p50.
    // A wait's first exchange starts it, so that exchange's gap lies
    // outside it.
    let reviewed = |e: &Exchange| e.phase == Phase::Review;
    let epoch = lanes
        .iter()
        .flat_map(|l| l.log.iter().filter(|e| reviewed(e)).map(|e| e.restarts))
        .max()
        .unwrap_or(0);
    let mut band = Vec::new();
    for (lane, t) in lanes.iter().zip(&times) {
        for (wait, &(first, last)) in lane.waits.iter().zip(&lane.wait_spans) {
            if lane
                .log
                .get(first)
                .is_some_and(|e| reviewed(e) && e.restarts == epoch)
            {
                band.push((secs(*wait), lane, t, first, last));
            }
        }
    }
    let band_waits: Vec<f64> = band.iter().map(|b| b.0).collect();
    let (lo, hi) = (quantile(&band_waits, 0.4), quantile(&band_waits, 0.6));
    band.retain(|b| b.0 >= lo && b.0 <= hi);
    let mut wait_layers = [0.0; 8];
    for (_, lane, t, first, last) in &band {
        let (mut layers, _) = layer_sum((*first..=*last).map(|i| (&lane.log[i], &t[i])));
        layers[0] += lane.log[first + 1..=*last]
            .iter()
            .map(|e| secs(e.gap))
            .sum::<f64>();
        for (w, l) in wait_layers.iter_mut().zip(layers) {
            *w += l / band.len() as f64;
        }
    }
    let wait_p50 = get("wait_p50_ms") / 1e3;
    book(
        &mut out,
        "wait_p50_ms",
        &named(wait_layers),
        wait_p50,
        1e3,
        "ms",
    );
    out.set(
        "trace.share.wait_p50_ms.transport",
        wait_layers[1] / wait_p50.max(1e-12),
        "ratio",
    );

    // The record's recovery is the last restart's; the cycle's `recovery_s`
    // averages several restarts, so the breakdown is held to that one.
    let last = all
        .iter()
        .flat_map(|l| l.log.iter().map(|e| e.restarts))
        .max()
        .unwrap_or(0);
    let reserve = |e: &Exchange| e.phase == Phase::Reserve && e.restarts == last;
    let (mut recovery_layers, recovery_rtt) =
        layer_sum(exchanges(lanes, &times).filter(|(e, _)| reserve(e)));
    scale_to_all(&mut recovery_layers, recovery_rtt, all, &reserve);
    recovery_layers[0] += secs(record.reconnect) + gaps(all, &reserve);
    let mut recovery_named = vec![("process", secs(record.startup))];
    recovery_named.extend(named(recovery_layers));
    book(
        &mut out,
        "recovery_s",
        &recovery_named,
        secs(record.recovery),
        1.0,
        "s",
    );
    let decode_open: f64 = exchanges(lanes, &times)
        .filter(|(e, _)| e.phase == Phase::Setup && matches!(e.request, Request::Open { .. }))
        .map(|(_, t)| secs(t.decode))
        .sum();
    out.set(
        "trace.share.setup_s.decode_open",
        decode_open * setup_all / setup_rtt.max(1e-12) / get("setup_s").max(1e-12),
        "ratio",
    );
    out.set("trace.replay_s", secs(replay.elapsed()), "s");

    write_spans(lanes, &times, spans_path);
    Ok(out)
}

/// Writes every exchange's self times, one row per (exchange, layer).
fn write_spans(lanes: &[Lane], times: &[Vec<Times>], path: &Path) {
    let mut text = String::from("session\texchange\tverb\tphase\tlayer\tself_us\n");
    for (lane, t) in lanes.iter().zip(times) {
        for (i, (exchange, times)) in lane.log.iter().zip(t).enumerate() {
            for (layer, value) in LAYERS
                .iter()
                .zip(times.self_times(exchange.rtt, exchange.client_codec))
            {
                text.push_str(&format!(
                    "{}\t{i}\t{}\t{:?}\t{layer}\t{:.1}\n",
                    lane.input.id,
                    verb(&exchange.request),
                    exchange.phase,
                    value * 1e6
                ));
            }
        }
    }
    if let Some(parent) = path.parent() {
        let _ = fs::create_dir_all(parent);
    }
    let _ = fs::write(path, text);
}
