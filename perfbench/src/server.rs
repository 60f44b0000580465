//! The server under test, as a child process: the benchmark binary re-runs
//! itself with `serve`, which serves a durable store with shipped defaults.
//! Owning a real process lets the benchmark read the server's CPU time and
//! peak RSS from `/proc` and kill it with SIGKILL.

use std::fs;
use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use gdr_serve::server::ServerConfig;
use gdr_serve::store::DurabilityConfig;

/// The configuration the server runs with: every default, journaled under
/// `root` with `DurabilityConfig::new`.
pub fn server_config(root: &Path) -> ServerConfig {
    ServerConfig::new().durability(DurabilityConfig::new(root))
}

/// Entry point of the `serve` subcommand: binds a loopback port, prints it
/// on the first stdout line, and serves until killed.
pub fn serve_main(root: &Path) -> io::Result<()> {
    let config = server_config(root);
    let store = config
        .build_store()
        .map_err(|err| io::Error::other(format!("{err:?}")))?;
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let mut stdout = io::stdout().lock();
    writeln!(stdout, "listening {}", listener.local_addr()?)?;
    stdout.flush()?;
    drop(stdout);
    config.serve(listener, store)
}

/// A running server child.  Dropping it kills the process and reaps it.
pub struct ServerProcess {
    child: Child,
    /// Where it listens.
    pub addr: SocketAddr,
    /// Spawn → listening line read.
    pub startup: Duration,
}

impl ServerProcess {
    /// Starts a server journaling under `root` and waits until it listens.
    pub fn spawn(root: &Path) -> io::Result<ServerProcess> {
        let started = Instant::now();
        let mut child = Command::new(std::env::current_exe()?)
            .arg("serve")
            .arg("--root")
            .arg(root)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()?;
        let stdout = child.stdout.take().expect("stdout is piped");
        let mut line = String::new();
        let read = BufReader::new(stdout).read_line(&mut line);
        let addr = read.ok().and_then(|_| {
            line.trim()
                .strip_prefix("listening ")
                .and_then(|a| a.parse().ok())
        });
        let Some(addr) = addr else {
            let _ = child.kill();
            let _ = child.wait();
            return Err(io::Error::other(format!(
                "server did not report its address: {line:?}"
            )));
        };
        Ok(ServerProcess {
            child,
            addr,
            startup: started.elapsed(),
        })
    }

    /// User plus system CPU time the server has used so far, all threads.
    pub fn cpu(&self) -> Duration {
        let stat =
            fs::read_to_string(format!("/proc/{}/stat", self.child.id())).unwrap_or_default();
        // Fields after the parenthesised command name: state is the first,
        // utime the 12th and stime the 13th (clock ticks, 100 per second).
        let fields: Vec<&str> = stat
            .rsplit_once(')')
            .map(|(_, rest)| rest.split_whitespace().collect())
            .unwrap_or_default();
        let ticks: u64 = [11, 12]
            .iter()
            .filter_map(|&i| fields.get(i).and_then(|f| f.parse::<u64>().ok()))
            .sum();
        Duration::from_millis(ticks * 10)
    }

    /// Peak resident set size so far, in MiB (`VmHWM`).
    pub fn peak_rss_mb(&self) -> f64 {
        let status =
            fs::read_to_string(format!("/proc/{}/status", self.child.id())).unwrap_or_default();
        status
            .lines()
            .find_map(|line| line.strip_prefix("VmHWM:"))
            .and_then(|rest| {
                rest.trim()
                    .trim_end_matches("kB")
                    .trim()
                    .parse::<f64>()
                    .ok()
            })
            .map_or(0.0, |kb| kb / 1024.0)
    }

    /// SIGKILLs the server and waits until it is gone.
    pub fn kill(mut self) {
        self.reap();
    }

    fn reap(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for ServerProcess {
    fn drop(&mut self) {
        self.reap();
    }
}

/// Total bytes of every file under `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = fs::read_dir(dir) else {
        return 0;
    };
    entries
        .filter_map(Result::ok)
        .map(|entry| match entry.file_type() {
            Ok(kind) if kind.is_dir() => dir_bytes(&entry.path()),
            _ => entry.metadata().map_or(0, |m| m.len()),
        })
        .sum()
}

/// Copies the directory tree `from` to `to` (files only, no links).
pub fn copy_tree(from: &Path, to: &Path) -> io::Result<()> {
    fs::create_dir_all(to)?;
    for entry in fs::read_dir(from)? {
        let entry = entry?;
        let target: PathBuf = to.join(entry.file_name());
        if entry.file_type()?.is_dir() {
            copy_tree(&entry.path(), &target)?;
        } else {
            fs::copy(entry.path(), target)?;
        }
    }
    Ok(())
}
