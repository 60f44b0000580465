//! Print a durable session's on-disk journal as text.
//!
//! ```text
//! cargo run --example journal_dump -- <session-dir>
//! ```
//!
//! A session directory holds `spec.gdrj` (the build inputs), the event log
//! `seg-000000.gdrj` and `snap-NNNNNN.gdrs` checkpoints, all binary `S2`
//! frames.  This prints the spec summary, every event with its index, every
//! checkpoint with the events it covers, its byte count and whether it
//! re-encodes to its own payload (recovery's usability test), and any
//! corruption found on the way, including a `seg-*` file beside the log,
//! which recovery refuses.  It only reads: it scans and decodes
//! the files itself instead of calling `DiskJournal::load`, which truncates
//! corrupt tails on disk.

use std::fs;
use std::path::Path;
use std::process::ExitCode;

use gdr_relation::codec;
use gdr_serve::journal::{decode_checkpoint, decode_event, decode_spec, scan_records};

/// The numbered files `<prefix>NNNNNN<suffix>` in `dir`, by number.
fn numbered_files(dir: &Path, prefix: &str, suffix: &str) -> Vec<(u64, String)> {
    let mut files: Vec<(u64, String)> = fs::read_dir(dir)
        .into_iter()
        .flatten()
        .flatten()
        .filter_map(|entry| {
            let name = entry.file_name().into_string().ok()?;
            let number = name
                .strip_prefix(prefix)?
                .strip_suffix(suffix)?
                .parse()
                .ok()?;
            Some((number, name))
        })
        .collect();
    files.sort();
    files
}

fn dump_spec(dir: &Path) {
    let spec = fs::read(dir.join("spec.gdrj"))
        .map_err(|e| e.to_string())
        .and_then(|bytes| decode_spec(codec::unframe(&bytes).map_err(|e| e.detail)?));
    match spec {
        Ok(spec) => {
            println!(
                "spec: table `{}`, {} rows x {} columns, {} rules, strategy {:?}",
                spec.dirty.name(),
                spec.dirty.len(),
                spec.dirty.schema().arity(),
                spec.rules.len(),
                spec.strategy
            );
            println!(
                "      seed {}, team {:?}, ground truth {}",
                spec.config.seed,
                spec.team,
                if spec.ground_truth.is_some() {
                    "yes"
                } else {
                    "no"
                }
            );
        }
        Err(detail) => println!("spec: UNREADABLE: {detail}"),
    }
}

/// Prints every event of the log.  Stops where recovery would: at the first
/// corrupt record.
fn dump_events(dir: &Path) {
    const LOG: &str = "seg-000000.gdrj";
    for (_, name) in numbered_files(dir, "seg-", ".gdrj") {
        if name != LOG {
            println!("{name}: not the log; recovery refuses the directory");
        }
    }
    let bytes = match fs::read(dir.join(LOG)) {
        Ok(bytes) => bytes,
        Err(err) => {
            println!("{LOG}: UNREADABLE: {err}");
            return;
        }
    };
    let scan = scan_records(&bytes);
    println!(
        "{LOG}: {} records, {} bytes",
        scan.payloads.len(),
        bytes.len()
    );
    for (index, payload) in scan.payloads.iter().enumerate() {
        match decode_event(payload) {
            Ok(event) => println!("  {index:>6}  {event:?}"),
            Err(detail) => println!("  {index:>6}  UNDECODABLE: {detail}"),
        }
    }
    if let Some(detail) = scan.corruption {
        println!(
            "  CORRUPTION: {detail}; recovery would cut {} bytes",
            bytes.len() - scan.valid_len
        );
    }
    println!("{} events in the valid prefix", scan.payloads.len());
}

fn dump_checkpoints(dir: &Path) {
    for (covered, name) in numbered_files(dir, "snap-", ".gdrs") {
        let bytes = match fs::read(dir.join(&name)) {
            Ok(bytes) => bytes,
            Err(err) => {
                println!("{name}: covers {covered} events, UNREADABLE: {err}");
                continue;
            }
        };
        let verdict = match decode_checkpoint(&bytes) {
            Ok(_) => "re-encodes to its own payload".to_string(),
            Err(detail) => format!("UNUSABLE, recovery would skip it: {detail}"),
        };
        println!(
            "{name}: covers {covered} events, {} bytes, {verdict}",
            bytes.len()
        );
    }
}

fn main() -> ExitCode {
    let Some(dir) = std::env::args_os().nth(1) else {
        eprintln!("usage: journal_dump <session-dir>");
        return ExitCode::from(2);
    };
    let dir = Path::new(&dir);
    dump_spec(dir);
    dump_events(dir);
    dump_checkpoints(dir);
    ExitCode::SUCCESS
}
