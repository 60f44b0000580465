//! Decoder robustness: no byte sequence on disk or on the wire can panic a
//! decoder.
//!
//! On disk: arbitrary bytes, every truncation and every single-bit flip of
//! a recorded segment, spec and checkpoint — and of the event and spec
//! payloads inside them — go to `scan_records`, `decode_event`,
//! `decode_spec`, `decode_checkpoint` and `DiskJournal::load`.  Each must return a valid
//! prefix, `Ok` or `Err`, and never panic; a frame whose length field claims
//! far more bytes than follow it is rejected without allocating for it.
//!
//! On the wire: arbitrary bytes (read as lossy UTF-8, as a connection reads
//! a line), and every truncation and single-byte substitution of a golden
//! frame of every protocol message, go to `Json::parse`,
//! `decode_request_frame` and `decode_response_frame`.  Each must return
//! `Ok` or `Err`, never panic.
mod common;

use std::fs;
use std::path::Path;
use std::sync::OnceLock;

use common::{drive_one, figure1_spec, TempDir};
use gdr_cfd::{Cfd, RuleSet};
use gdr_core::oracle::GroundTruthOracle;
use gdr_core::step::DoneReason;
use gdr_core::strategy::Strategy as GdrStrategy;
use gdr_core::team::{ConflictPolicy, TeamSession};
use gdr_relation::codec::{self, fnv1a64, Enc};
use gdr_relation::Value;
use gdr_repair::Feedback;
use gdr_serve::journal::{
    decode_checkpoint, decode_event, decode_spec, scan_records, DiskJournal, FsyncPolicy,
    JournalConfig,
};
use gdr_serve::json::Json;
use gdr_serve::store::SessionOptions;
use gdr_serve::wire::{
    decode_request_frame, decode_response_frame, encode_request_frame, encode_response_frame,
    Request, Response, WireError, WireEval, WireGroup, WireLease, WireTarget,
};
use proptest::prelude::*;

/// The files of one recorded durable session.
struct Recorded {
    spec: Vec<u8>,
    segment: Vec<u8>,
    checkpoint: Vec<u8>,
    /// The checkpoint's file name, which says how many events it covers.
    checkpoint_name: String,
}

fn recorded() -> &'static Recorded {
    static RECORDED: OnceLock<Recorded> = OnceLock::new();
    RECORDED.get_or_init(|| {
        let dir = TempDir::new("robust-ref");
        let spec = figure1_spec(GdrStrategy::GdrNoLearning, true);
        let oracle = GroundTruthOracle::new(spec.ground_truth.clone().expect("truth"));
        let mut session = SessionOptions::new()
            .journal(JournalConfig {
                fsync: FsyncPolicy::Never,
                segment_max_bytes: 1 << 20,
                compact_every: 8,
                validate_compaction: true,
            })
            .durable(dir.path())
            .open(spec)
            .expect("open durable");
        while drive_one(&mut session, &oracle) {}
        session.finish().expect("finish");
        drop(session);
        let checkpoint_name = fs::read_dir(dir.path())
            .expect("read_dir")
            .map(|entry| {
                entry
                    .expect("entry")
                    .file_name()
                    .into_string()
                    .expect("utf8")
            })
            .filter(|name| name.ends_with(".gdrs"))
            .max()
            .expect("a checkpoint was recorded");
        Recorded {
            spec: fs::read(dir.join("spec.gdrj")).expect("read spec"),
            segment: fs::read(dir.join("seg-000000.gdrj")).expect("read segment"),
            checkpoint: fs::read(dir.join(&checkpoint_name)).expect("read checkpoint"),
            checkpoint_name,
        }
    })
}

/// Feeds `bytes` to every pure decoder.  The scan must return a prefix that
/// re-scans cleanly; the decoders may return anything but a panic.
fn decode_everything(bytes: &[u8]) {
    let scan = scan_records(bytes);
    assert!(scan.valid_len <= bytes.len());
    assert_eq!(scan.corruption.is_none(), scan.valid_len == bytes.len());
    let again = scan_records(&bytes[..scan.valid_len]);
    assert!(again.corruption.is_none());
    assert_eq!(again.payloads, scan.payloads);
    for payload in &scan.payloads {
        let _ = decode_event(payload);
        let _ = decode_spec(payload);
    }
    let _ = decode_event(bytes);
    let _ = decode_spec(bytes);
    let _ = decode_checkpoint(bytes);
}

/// Every truncation and every single-bit flip of `bytes`, each handed to
/// `check`.
fn every_cut_and_flip(bytes: &[u8], mut check: impl FnMut(&[u8])) {
    for cut in 0..bytes.len() {
        check(&bytes[..cut]);
    }
    let mut damaged = bytes.to_vec();
    for at in 0..bytes.len() {
        for bit in 0..8 {
            damaged[at] ^= 1 << bit;
            check(&damaged);
            damaged[at] ^= 1 << bit;
        }
    }
}

/// Loads a journal directory holding `spec`, `segment` and, when given, a
/// checkpoint: `Ok` or `Err`, never a panic — and `Ok` whenever the spec is
/// the recorded one, because only the spec is fatal.
fn load_dir(spec: &[u8], segment: &[u8], checkpoint: Option<&[u8]>) {
    let dir = TempDir::new("robust-load");
    fs::write(dir.join("spec.gdrj"), spec).expect("write spec");
    fs::write(dir.join("seg-000000.gdrj"), segment).expect("write segment");
    if let Some(checkpoint) = checkpoint {
        fs::write(dir.join(&recorded().checkpoint_name), checkpoint).expect("write checkpoint");
    }
    let loaded = DiskJournal::load(dir.path());
    if spec == recorded().spec {
        let loaded = loaded.expect("a journal with an intact spec loads");
        assert!(loaded.events.len() <= scan_records(segment).payloads.len());
    }
    assert_loads_again_clean(dir.path());
}

/// The repair [`DiskJournal::load`] writes back is idempotent.
fn assert_loads_again_clean(dir: &Path) {
    if let Ok(loaded) = DiskJournal::load(dir) {
        assert!(loaded.recovery.clean(), "{:?}", loaded.recovery);
    }
}

#[test]
fn every_cut_and_flip_of_the_recorded_files_decodes_or_errs() {
    let recorded = recorded();
    for file in [&recorded.spec, &recorded.segment, &recorded.checkpoint] {
        every_cut_and_flip(file, decode_everything);
    }
}

#[test]
fn every_cut_and_flip_of_the_recorded_payloads_decodes_or_errs() {
    let recorded = recorded();
    let spec = codec::unframe(&recorded.spec).expect("recorded spec frame");
    every_cut_and_flip(spec, |payload| {
        let _ = decode_spec(payload);
    });
    for event in scan_records(&recorded.segment).payloads {
        every_cut_and_flip(event, |payload| {
            let _ = decode_event(payload);
        });
    }
}

#[test]
fn a_length_field_claiming_more_than_follows_is_rejected() {
    let recorded = recorded();
    for claimed in [u64::MAX, usize::MAX as u64 / 2, 1 << 40] {
        let bogus = format!("S1 {claimed} {:016x} tiny", fnv1a64(b"tiny")).into_bytes();
        assert!(codec::read_frame(&bogus).is_err());
        decode_everything(&bogus);
        let mut stream = recorded.segment.clone();
        stream.extend_from_slice(&bogus);
        let scan = scan_records(&stream);
        assert_eq!(scan.valid_len, recorded.segment.len());
        assert!(scan.corruption.is_some());
        load_dir(&recorded.spec, &stream, Some(&bogus));
        load_dir(&bogus, &recorded.segment, None);
    }
}

/// A checkpoint payload behind a valid checksum that names a rule attribute
/// past the table's arity is rejected, not trusted: the violation engine's
/// decoder must return `Err` where resolving the rule would index out of
/// bounds.
#[test]
fn a_checkpoint_rule_past_the_table_arity_is_rejected() {
    let spec = figure1_spec(GdrStrategy::GdrNoLearning, true);
    let arity = spec.dirty.schema().arity();
    let session = SessionOptions::new().open(spec.clone()).expect("open");
    let payload = codec::unframe(&session.team().to_snapshot_bytes())
        .expect("snapshot frame")
        .to_vec();
    let encode = |rules: &RuleSet| {
        let mut enc = Enc::new();
        rules.encode_state(&mut enc);
        enc.into_bytes()
    };
    let mut rules: Vec<Cfd> = spec.rules.iter().map(|(_, rule)| rule.clone()).collect();
    rules[0] = Cfd::new(
        rules[0].name(),
        rules[0].lhs().to_vec(),
        rules[0].lhs_pattern().to_vec(),
        arity,
        rules[0].rhs_pattern().clone(),
    )
    .expect("well-formed apart from the arity");
    let (valid, pushed) = (encode(&spec.rules), encode(&RuleSet::new(rules)));
    assert_eq!(valid.len(), pushed.len());
    let at = payload
        .windows(valid.len())
        .position(|window| window == valid)
        .expect("the engine's rules are in the checkpoint");
    let mut damaged = payload;
    damaged[at..at + valid.len()].copy_from_slice(&pushed);
    assert!(TeamSession::from_snapshot_bytes(&codec::frame(&damaged)).is_err());
}

/// Which recorded file a proptest case damages.
#[derive(Debug, Clone, Copy)]
enum Target {
    Spec,
    Segment,
    Checkpoint,
}

fn damaged(target: Target, cut: usize, flip: Option<(usize, u8)>) -> (Vec<u8>, Vec<u8>, Vec<u8>) {
    let recorded = recorded();
    let mut files = (
        recorded.spec.clone(),
        recorded.segment.clone(),
        recorded.checkpoint.clone(),
    );
    let file = match target {
        Target::Spec => &mut files.0,
        Target::Segment => &mut files.1,
        Target::Checkpoint => &mut files.2,
    };
    match flip {
        Some((at, bit)) => {
            let at = at % file.len();
            file[at] ^= 1 << bit;
        }
        None => file.truncate(cut % (file.len() + 1)),
    }
    files
}

fn target_strategy() -> impl Strategy<Value = Target> {
    prop_oneof![
        Just(Target::Spec),
        Just(Target::Segment),
        Just(Target::Checkpoint)
    ]
}

/// One frame of every request, response and error message, most of them
/// `seq`-tagged, with optional members both present and absent.
fn golden_frames() -> &'static [String] {
    static FRAMES: OnceLock<Vec<String>> = OnceLock::new();
    FRAMES.get_or_init(|| {
        let s = || "s".to_string();
        let requests = [
            Request::Hello { version: 2 },
            Request::Open {
                session: s(),
                table_csv: "A,B\n\"x, y\",1\n".into(),
                rules: "A -> B : x || 1\n".into(),
                strategy: GdrStrategy::GdrNoLearning,
                seed: Some(u64::MAX),
                ground_truth_csv: Some("A,B\nx,2\n".into()),
                policy: Some(ConflictPolicy::Majority { k: 2 }),
                lease_ttl: Some(16),
            },
            Request::Open {
                session: s(),
                table_csv: "A\n1\n".into(),
                rules: String::new(),
                strategy: GdrStrategy::Gdr,
                seed: None,
                ground_truth_csv: None,
                policy: None,
                lease_ttl: None,
            },
            Request::Next { session: s() },
            Request::Answer {
                session: s(),
                id: 7,
                feedback: Feedback::Confirm,
            },
            Request::Supply {
                session: s(),
                tuple: 3,
                attr: 1,
                value: Value::from("Michigan City"),
            },
            Request::Skip {
                session: s(),
                tuple: 2,
                attr: 5,
            },
            Request::Finish { session: s() },
            Request::Report { session: s() },
            Request::Restore { session: s() },
            Request::Compact { session: s() },
            Request::Lease {
                session: s(),
                reviewer: "alice".into(),
            },
            Request::AnswerAs {
                session: s(),
                reviewer: "bob".into(),
                id: u64::MAX,
                feedback: Feedback::Reject,
            },
            Request::SupplyAs {
                session: s(),
                reviewer: "carol".into(),
                id: 4,
                value: Value::Int(-3),
            },
            Request::SkipAs {
                session: s(),
                reviewer: "dave".into(),
                id: 3,
            },
            Request::Release {
                session: s(),
                reviewer: "alice".into(),
                id: 2,
            },
            Request::Leases { session: s() },
        ];
        let responses = [
            Response::Hello {
                version: 2,
                pipelining: true,
                compact: true,
                leases: true,
                max_outstanding: 64,
                lease_ttl: 32,
            },
            Response::Opened {
                session: s(),
                dirty_tuples: 4,
            },
            Response::Ask {
                id: 9,
                tuple: 3,
                attr: 1,
                current: Value::Null,
                value: Value::from("Michigan City"),
                score: 0.25,
                uncertainty: 1.0,
                group: Some(WireGroup {
                    attr: 1,
                    value: Value::Int(46360),
                    benefit: 0.0625,
                    size: 3,
                    quota: 2,
                    asked: 1,
                }),
            },
            Response::NeedValue {
                tuple: 6,
                attr: 2,
                current: Value::from("Colfax"),
            },
            Response::Done {
                reason: DoneReason::AutomaticComplete,
            },
            Response::Answered { verifications: 11 },
            Response::Supplied { verifications: 12 },
            Response::Skipped,
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
            Response::Restored { replayed: 17 },
            Response::Compacted {
                events: 64,
                tail: 3,
            },
            Response::Leased {
                id: 9,
                tuple: 3,
                attr: 1,
                current: Value::from("Michigan Cty"),
                value: Value::from("Michigan City"),
                score: 0.25,
            },
            Response::Fix {
                id: 10,
                tuple: 6,
                attr: 2,
                current: Value::Null,
            },
            Response::Wait,
            Response::Released { held: true },
            Response::Leases {
                leases: vec![WireLease {
                    id: u64::MAX,
                    reviewer: "bob".into(),
                    tuple: 0,
                    attr: 3,
                    age: 5,
                }],
            },
            Response::Error(WireError::StaleWork {
                got: 8,
                outstanding: 7,
            }),
            Response::Error(WireError::WorkMismatch {
                verb: "supply_value".into(),
                got: WireTarget::Value(3, 1),
                outstanding: WireTarget::Ask(7),
            }),
            Response::Error(WireError::NoOutstandingWork {
                verb: "answer".into(),
            }),
            Response::Error(WireError::UnknownSession { session: s() }),
            Response::Error(WireError::DuplicateSession { session: s() }),
            Response::Error(WireError::BadRequest {
                detail: "unknown op `frob`".into(),
            }),
            Response::Error(WireError::Busy {
                max_outstanding: 64,
            }),
            Response::Error(WireError::Engine {
                detail: "unknown rule id 9".into(),
            }),
            Response::Error(WireError::Journal {
                detail: "disk full".into(),
            }),
        ];
        let mut frames = Vec::new();
        for (i, request) in requests.iter().enumerate() {
            let line = encode_request_frame(request, (i % 2 == 0).then_some(i as u64));
            assert_eq!(decode_request_frame(&line).1.as_ref(), Ok(request));
            frames.push(line);
        }
        for (i, response) in responses.iter().enumerate() {
            let line = encode_response_frame(response, (i % 2 == 0).then_some(u64::MAX - i as u64));
            assert_eq!(
                decode_response_frame(&line).map(|(_, r)| r).as_ref(),
                Ok(response)
            );
            frames.push(line);
        }
        frames
    })
}

/// Feeds `bytes`, read as lossy UTF-8 like a connection reads a line, to
/// every wire decoder.  Any result but a panic passes.
fn decode_wire(bytes: &[u8]) {
    let line = String::from_utf8_lossy(bytes);
    let _ = Json::parse(&line);
    let _ = decode_request_frame(&line);
    let _ = decode_response_frame(&line);
}

#[test]
fn every_cut_and_substitution_of_a_golden_wire_frame_decodes_or_errs() {
    for frame in golden_frames() {
        let bytes = frame.as_bytes();
        for cut in 0..bytes.len() {
            decode_wire(&bytes[..cut]);
        }
        let mut damaged = bytes.to_vec();
        for at in 0..bytes.len() {
            for byte in 0..=u8::MAX {
                damaged[at] = byte;
                decode_wire(&damaged);
            }
            damaged[at] = bytes[at];
        }
    }
}

proptest! {
    #[test]
    fn arbitrary_bytes_never_panic_a_wire_decoder(
        bytes in proptest::collection::vec(0u8..=255, 0..512),
    ) {
        decode_wire(&bytes);
    }

    #[test]
    fn arbitrary_bytes_never_panic_a_decoder_or_the_loader(
        bytes in proptest::collection::vec(0u8..=255, 0..2048),
    ) {
        decode_everything(&bytes);
        let recorded = recorded();
        load_dir(&bytes, &recorded.segment, None);
        load_dir(&recorded.spec, &bytes, None);
        load_dir(&recorded.spec, &recorded.segment, Some(&bytes));
    }

    #[test]
    fn damaged_recorded_files_load_or_err(
        target in target_strategy(),
        cut in 0usize..1 << 20,
        flip in proptest::option::of((0usize..1 << 20, 0u8..8)),
    ) {
        let (spec, segment, checkpoint) = damaged(target, cut, flip);
        load_dir(&spec, &segment, Some(&checkpoint));
    }
}
