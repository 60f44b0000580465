//! End-to-end benchmark of the GDR repair server.
//!
//! ```text
//! perfbench --workload <solo_review|team_fleet|cold_restart> --seed <n>
//!           --seconds <s> --trace <0|1> [--tiny]
//! ```
//!
//! Generates the workload's tables from the seed, runs the real server as a
//! child process (`perfbench serve --root <dir>`, shipped defaults on a
//! durable root), drives it over loopback TCP the way reviewers do, checks
//! every reply against an in-process twin, and prints one JSON line last:
//! `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}`.  With
//! `--trace 0` the metrics are the end-to-end ones; with `--trace 1` the
//! run measures one cycle, then replays its request stream through the
//! lower layers and reports per-layer metrics (see `README.md`).  Scratch data lives under
//! `.bench_run/` and is removed at exit; trace spans and the environment
//! record are written under `.bench_out/`.

mod conn;
mod drive;
mod inputs;
mod metrics;
mod server;
mod trace;
mod twin;

use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

use gdr_serve::json::Json;

use crate::conn::Conn;
use crate::drive::Lane;
use crate::inputs::{plan, Plan, SessionInput, Workload};
use crate::metrics::{median, ms, quantile, secs, trimmed_mean, Metrics};
use crate::server::{copy_tree, dir_bytes, server_config, ServerProcess};

/// Parsed command line.
#[derive(Debug, Clone)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    tiny: bool,
}

const USAGE: &str = "usage: perfbench --workload <solo_review|team_fleet|cold_restart> \
                     --seed <n> --seconds <s> --trace <0|1> [--tiny]\n       \
                     perfbench serve --root <dir>";

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1;
    let mut seconds = 10;
    let mut trace = false;
    let mut tiny = false;
    let mut iter = args.iter();
    while let Some(flag) = iter.next() {
        let mut value = || iter.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(Workload::parse(name).ok_or(format!("unknown workload {name}"))?);
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => trace = value()? == "1",
            "--tiny" => tiny = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        tiny,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("serve") {
        let root = match args.get(1..3) {
            Some([flag, root]) if flag == "--root" => PathBuf::from(root),
            _ => {
                eprintln!("{USAGE}");
                return ExitCode::from(2);
            }
        };
        return match server::serve_main(&root) {
            Ok(()) => ExitCode::SUCCESS,
            Err(err) => {
                eprintln!("serve: {err}");
                ExitCode::FAILURE
            }
        };
    }
    let args = match parse_args(&args) {
        Ok(args) => args,
        Err(err) => {
            eprintln!("{err}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let dir = PathBuf::from(".bench_run").join(format!(
        "{}-{}-{}",
        args.workload.name(),
        args.seed,
        std::process::id()
    ));
    let outcome = run(&args, &dir);
    let _ = fs::remove_dir_all(&dir);
    match outcome {
        Ok(result) => {
            println!("{}", result.encode());
            ExitCode::SUCCESS
        }
        Err(err) => {
            eprintln!("perfbench: {err}");
            ExitCode::FAILURE
        }
    }
}

/// What the measured cycles of a run gathered.
#[derive(Default)]
struct Tally {
    setup: Vec<f64>,
    recovery: Vec<f64>,
    /// Per session and review phase: the sum of its waits, in s.
    review_sums: Vec<f64>,
    /// Per review phase: median wait (ms), answers per second, server CPU
    /// ms per answer, disk bytes per answer, 99th-percentile wait (ms).
    phases: Vec<[f64; 5]>,
    rss_mb: Vec<f64>,
    /// Lanes whose logs the correctness gate replays.
    checked: Vec<Lane>,
    /// The last cycle's record, for the traced replay.
    last: Option<CycleRecord>,
}

/// Timings of one cycle the traced replay explains.
#[derive(Clone)]
pub struct CycleRecord {
    /// The cycle's lanes, logs included.
    pub lanes: Vec<Lane>,
    /// Connect → every reviewer holds its first question.
    pub setup: Duration,
    /// Time the set-up's connects took.
    pub connect: Duration,
    /// Spawn of the restarted server → every question re-served.
    pub recovery: Duration,
    /// Spawn → listening, of the restarted server.
    pub startup: Duration,
    /// Time the restart's connect took.
    pub reconnect: Duration,
    /// The durable root the cycle's server journaled to.
    pub root: PathBuf,
}

fn run(args: &Args, dir: &Path) -> Result<Json, String> {
    // Write back whatever a preceding build left dirty, so the server's
    // fsyncs do not pay for it; a system without `sync` just skips this.
    let _ = std::process::Command::new("sync").status();
    let started = Instant::now();
    fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    // A traced run measures one cycle and replays it through the lower
    // layers once the cycle is over.  `team_fleet` always measures its two
    // cycles: a third would lengthen each run by about half.
    let (budget, min_cycles) = if args.trace {
        (Duration::ZERO, 1)
    } else if args.workload == Workload::TeamFleet {
        (Duration::ZERO, args.workload.min_cycles(args.tiny))
    } else {
        (
            Duration::from_secs(args.seconds),
            args.workload.min_cycles(args.tiny),
        )
    };
    let untraced = measure(args, dir, budget, min_cycles).map_err(|e| format!("measuring: {e}"))?;
    let mut metrics = end_to_end(&untraced);
    let record = untraced.last.clone();
    if args.trace {
        let record = record.as_ref().ok_or("the cycle recorded nothing")?;
        let spans_path = PathBuf::from(".bench_out").join(format!(
            "trace-{}-seed{}.tsv",
            args.workload.name(),
            args.seed
        ));
        let p99 = wait_p99_ms(&untraced);
        metrics = trace::run(record, &dir.join("replay"), &metrics, &spans_path)?;
        metrics.set("trace.wait_p99_ms", p99, "ms");
    }
    let lanes = &untraced.checked;
    let mut correct = true;
    for lane in lanes {
        if let Err(err) = twin::check(lane) {
            eprintln!("correctness: {err}");
            correct = false;
        }
    }
    let attempted: usize = lanes.iter().map(|l| l.attempted).sum();
    let failed: usize = lanes.iter().map(|l| l.failed).sum();
    let env = environment(args, record.as_ref(), &untraced, started.elapsed());
    write_record(args, &env, &metrics);
    println!("{}", env.encode());
    Ok(Json::Object(vec![
        ("correct".to_string(), Json::Bool(correct)),
        ("attempted".to_string(), Json::Int(attempted.max(1) as i64)),
        ("failed".to_string(), Json::Int(failed as i64)),
        ("metrics".to_string(), metrics.to_json()),
    ]))
}

/// Runs cycles until `budget` is spent and at least `min_cycles` are done;
/// cycle `c` reviews dataset variant `c`.
fn measure(args: &Args, dir: &Path, budget: Duration, min_cycles: usize) -> io::Result<Tally> {
    let started = Instant::now();
    let mut tally = Tally::default();
    let more = |cycle: usize| cycle < min_cycles || started.elapsed() < budget;
    let variant = |v: usize| plan(args.workload, args.seed, v as u64, args.tiny);
    match args.workload {
        Workload::SoloReview | Workload::TeamFleet => {
            let mut cycle = 0;
            while more(cycle) {
                let recoveries = match args.workload {
                    Workload::TeamFleet => FLEET_RECOVERIES,
                    _ => SOLO_RECOVERIES,
                };
                let dir = dir.join(format!("cycle-{cycle}"));
                fresh_cycle(&variant(cycle), &dir, recoveries, &mut tally)?;
                cycle += 1;
            }
        }
        Workload::ColdRestart => {
            // Two recorded roots (set-up time is a median over them); the
            // restarts alternate between them.
            let records = if min_cycles > 1 { 2 } else { 1 };
            let mut roots = Vec::new();
            for r in 0..records {
                let dir = dir.join(format!("record-{r}"));
                roots.push(record_root(&variant(r), &dir, &mut tally)?);
            }
            let mut cycle = 0;
            while more(cycle) {
                let recorded = &roots[cycle % records];
                let dir = dir.join(format!("cycle-{cycle}"));
                restart_cycle(recorded, &dir, &mut tally)?;
                cycle += 1;
            }
        }
    }
    Ok(tally)
}

fn lanes_for(plan: &Plan) -> Vec<Lane> {
    plan.sessions
        .iter()
        .map(|input| Lane::new(Arc::new(input.clone())))
        .collect()
}

/// Spawns a server on `root`, connects and opens every session; returns
/// the server, the connections and the set-up time.
fn open_sessions(
    plan: &Plan,
    root: &Path,
    lanes: &mut [Lane],
) -> io::Result<(ServerProcess, Vec<Conn>, Duration)> {
    let server = ServerProcess::spawn(root)?;
    let started = Instant::now();
    let mut conns = drive::connect(server.addr, plan.connections, lanes.len())?;
    drive::setup(&mut conns[0], lanes)?;
    Ok((server, conns, started.elapsed()))
}

/// Time the connects of `conns` took.
fn connect_time(conns: &[Conn]) -> Duration {
    conns.iter().map(|conn| conn.connect).sum()
}

/// Reviews every lane to its budget and books the phase; then reads the
/// reports and the server's peak RSS.
fn review_phase(
    server: &ServerProcess,
    conns: &mut [Conn],
    lanes: &mut [Lane],
    root: &Path,
    tally: &mut Tally,
) -> io::Result<()> {
    let waits_before: Vec<usize> = lanes.iter().map(|l| l.waits.len()).collect();
    let answers_before: usize = lanes.iter().map(|l| l.answers).sum();
    let cpu = server.cpu();
    let bytes = dir_bytes(root);
    let wall = drive::review(conns, lanes)?;
    let cpu = server.cpu().saturating_sub(cpu);
    let bytes = dir_bytes(root).saturating_sub(bytes);
    let answers = lanes.iter().map(|l| l.answers).sum::<usize>() - answers_before;
    let mut waits = Vec::new();
    for (lane, before) in lanes.iter().zip(waits_before) {
        let lane_waits: Vec<f64> = lane.waits[before..].iter().map(|w| ms(*w)).collect();
        if !lane_waits.is_empty() {
            tally.review_sums.push(lane_waits.iter().sum::<f64>() / 1e3);
        }
        waits.extend(lane_waits);
    }
    let per_answer = |x: f64| x / answers.max(1) as f64;
    tally.phases.push([
        median(&waits),
        answers as f64 / secs(wall).max(1e-9),
        per_answer(ms(cpu)),
        per_answer(bytes as f64),
        quantile(&waits, 0.99),
    ]);
    drive::report(&mut conns[0], lanes)?;
    tally.rss_mb.push(server.peak_rss_mb());
    Ok(())
}

/// A server restarted on a killed server's root.
struct Restarted {
    server: ServerProcess,
    /// Spawn → every question re-served.
    recovery: Duration,
    /// Time the re-serving connection's connect took.
    connect: Duration,
}

/// Kills nothing: spawns a fresh server on `root` and has every reviewer
/// pull its outstanding question again.
fn recover(root: &Path, lanes: &mut [Lane]) -> io::Result<Restarted> {
    // Outside the timed window: write back what the killed server left
    // dirty, so the restart does not compete with that writeback.
    let _ = std::process::Command::new("sync").status();
    let started = Instant::now();
    let server = ServerProcess::spawn(root)?;
    for lane in lanes.iter_mut() {
        lane.restarted();
    }
    let mut conn = Conn::connect(server.addr, false)?;
    drive::reserve(&mut conn, lanes)?;
    Ok(Restarted {
        server,
        recovery: started.elapsed(),
        connect: conn.connect,
    })
}

/// Restarts per solo cycle.  A solo recovery decodes one big journaled
/// `open` spec on one core, so its time follows the host's speed of the
/// moment, which on a shared host flips between a fast and a slow level
/// every few seconds.  Back-to-back restarts share that level, so a run
/// gains more from many short cycles (the run's `--seconds` decide how
/// many) than from many restarts in one.
const SOLO_RECOVERIES: usize = 2;

/// Restarts per fleet cycle.  Each recovers all 32 sessions and takes
/// seconds; one in each of the two cycles samples two host speeds.
const FLEET_RECOVERIES: usize = 1;

/// `solo_review` / `team_fleet`: set up on a fresh root, review, SIGKILL,
/// then `recoveries` times restart, re-serve and SIGKILL again.
fn fresh_cycle(plan: &Plan, dir: &Path, recoveries: usize, tally: &mut Tally) -> io::Result<()> {
    let root = dir.join("root");
    let mut lanes = lanes_for(plan);
    let (server, mut conns, setup) = open_sessions(plan, &root, &mut lanes)?;
    tally.setup.push(secs(setup));
    let connect = connect_time(&conns);
    review_phase(&server, &mut conns, &mut lanes, &root, tally)?;
    drop(conns);
    server.kill();
    let (mut recovery, mut startup, mut reconnect) =
        (Duration::ZERO, Duration::ZERO, Duration::ZERO);
    for _ in 0..recoveries {
        let restarted = recover(&root, &mut lanes)?;
        (recovery, startup, reconnect) = (
            restarted.recovery,
            restarted.server.startup,
            restarted.connect,
        );
        restarted.server.kill();
        tally.recovery.push(secs(recovery));
    }
    tally.last = Some(CycleRecord {
        lanes: lanes.clone(),
        setup,
        connect,
        recovery,
        startup,
        reconnect,
        root,
    });
    tally.checked.extend(lanes);
    Ok(())
}

/// `cold_restart` set-up: sessions with checkpoints and journal tails, each
/// reviewer holding a question when the server is SIGKILLed.
fn record_root(plan: &Plan, dir: &Path, tally: &mut Tally) -> io::Result<Recorded> {
    let root = dir.join("root");
    let mut lanes = lanes_for(plan);
    let (server, mut conns, setup) = open_sessions(plan, &root, &mut lanes)?;
    tally.setup.push(secs(setup));
    let connect = connect_time(&conns);
    drive::review(&mut conns, &mut lanes)?;
    drive::report(&mut conns[0], &mut lanes)?;
    drop(conns);
    server.kill();
    tally.checked.extend(lanes.iter().cloned());
    Ok(Recorded {
        plan: plan.clone(),
        root,
        lanes,
        setup,
        connect,
    })
}

/// A `cold_restart` root as the SIGKILLed server left it.
struct Recorded {
    plan: Plan,
    root: PathBuf,
    /// The lanes at the kill, logs included.
    lanes: Vec<Lane>,
    setup: Duration,
    connect: Duration,
}

/// `cold_restart` cycle: a pristine copy of the recorded root, recovered,
/// then reviewed a little further.
fn restart_cycle(recorded: &Recorded, dir: &Path, tally: &mut Tally) -> io::Result<()> {
    let root = dir.join("root");
    copy_tree(&recorded.root, &root)?;
    let mut lanes = recorded.lanes.clone();
    for lane in lanes.iter_mut().filter(|lane| lane.input.team) {
        lane.budget = lane.answers + recorded.plan.post_budget;
    }
    let restarted = recover(&root, &mut lanes)?;
    tally.recovery.push(secs(restarted.recovery));
    let server = &restarted.server;
    let mut conns = drive::connect(server.addr, 1, lanes.len())?;
    review_phase(server, &mut conns, &mut lanes, &root, tally)?;
    drop(conns);
    tally.last = Some(CycleRecord {
        lanes: lanes.clone(),
        setup: recorded.setup,
        connect: recorded.connect,
        recovery: restarted.recovery,
        startup: server.startup,
        reconnect: restarted.connect,
        root,
    });
    restarted.server.kill();
    tally.checked.extend(lanes);
    Ok(())
}

/// The 99th-percentile wait (median over review phases), in ms.  It is
/// reported with the traced run, not bounded: compaction sets it, and on a
/// noisy host it spreads wider than any bound a run could be held to.
fn wait_p99_ms(tally: &Tally) -> f64 {
    median(&tally.phases.iter().map(|p| p[4]).collect::<Vec<_>>())
}

/// The end-to-end metrics of a tally.
fn end_to_end(tally: &Tally) -> Metrics {
    let phase = |i: usize| median(&tally.phases.iter().map(|p| p[i]).collect::<Vec<_>>());
    let mut m = Metrics::default();
    m.set("setup_s", median(&tally.setup), "s");
    m.set("wait_p50_ms", phase(0), "ms");
    m.set("review_s", median(&tally.review_sums), "s");
    m.set("answers_per_s", phase(1), "1/s");
    m.set("recovery_s", trimmed_mean(&tally.recovery, 0.2), "s");
    m.set("server_cpu_ms_per_answer", phase(2), "ms");
    m.set("server_rss_mb", median(&tally.rss_mb), "MiB");
    m.set("disk_bytes_per_answer", phase(3), "bytes");
    m
}

/// The environment every result is recorded with.
fn environment(
    args: &Args,
    record: Option<&CycleRecord>,
    tally: &Tally,
    elapsed: Duration,
) -> Json {
    let inputs: Vec<&SessionInput> = record.map_or_else(Vec::new, |r| {
        r.lanes.iter().map(|lane| lane.input.as_ref()).collect()
    });
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let rows: Vec<Json> = inputs.iter().map(|s| Json::Int(s.rows as i64)).collect();
    let open_bytes: Vec<Json> = inputs
        .iter()
        .map(|s| {
            let frame = gdr_serve::wire::encode_request_frame(&s.open_request(), None);
            Json::Int(frame.len() as i64)
        })
        .collect();
    let root = record.map_or_else(|| PathBuf::from("root"), |r| r.root.clone());
    Json::Object(vec![
        ("env".to_string(), Json::Bool(true)),
        ("workload".to_string(), Json::str(args.workload.name())),
        ("seed".to_string(), Json::Int(args.seed as i64)),
        ("seconds".to_string(), Json::Int(args.seconds as i64)),
        ("trace".to_string(), Json::Bool(args.trace)),
        ("tiny".to_string(), Json::Bool(args.tiny)),
        ("nproc".to_string(), Json::Int(nproc as i64)),
        ("git_revision".to_string(), Json::str(git_revision())),
        (
            "server_config".to_string(),
            Json::str(format!("{:?}", server_config(&root))),
        ),
        (
            "fsync".to_string(),
            Json::str(format!("{:?}", gdr_serve::JournalConfig::default().fsync)),
        ),
        ("sessions".to_string(), Json::Int(inputs.len() as i64)),
        ("rows".to_string(), Json::Array(rows)),
        ("open_frame_bytes".to_string(), Json::Array(open_bytes)),
        ("setup_samples_s".to_string(), floats(&tally.setup)),
        ("recovery_samples_s".to_string(), floats(&tally.recovery)),
        (
            "phase_samples".to_string(),
            Json::Array(tally.phases.iter().map(|p| floats(&p[..4])).collect()),
        ),
        ("wall_s".to_string(), Json::Float(secs(elapsed))),
    ])
}

fn floats(values: &[f64]) -> Json {
    Json::Array(values.iter().map(|v| Json::Float(*v)).collect())
}

/// `git rev-parse HEAD`, or `unknown` (a checkout without git metadata).
fn git_revision() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map(|rev| rev.trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Keeps the environment and metrics of the run under `.bench_out/`.
fn write_record(args: &Args, env: &Json, metrics: &Metrics) {
    let dir = PathBuf::from(".bench_out");
    let name = format!(
        "{}-seed{}-trace{}.json",
        args.workload.name(),
        args.seed,
        u8::from(args.trace)
    );
    let record = Json::Object(vec![
        ("environment".to_string(), env.clone()),
        ("metrics".to_string(), metrics.to_json()),
    ]);
    if fs::create_dir_all(&dir).is_ok() {
        let _ = fs::write(dir.join(name), record.encode() + "\n");
    }
}
