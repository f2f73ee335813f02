//! The `sppl-serve` daemon as a child process.

use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};

use crate::stats::peak_rss_mib;

/// A running daemon; killed and reaped on [`Daemon::stop`] or drop.
pub struct Daemon {
    child: Child,
    /// Held open so the daemon never writes into a closed pipe.
    _stdout: BufReader<ChildStdout>,
    pub addr: SocketAddr,
}

impl Daemon {
    /// Starts `sppl-serve` from `exe_dir` with `args` and waits for its
    /// `listening on ADDR` line.
    pub fn spawn(exe_dir: &Path, args: &[&str]) -> Result<Daemon, String> {
        let exe = exe_dir.join("sppl-serve");
        let mut child = Command::new(&exe)
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawning {}: {e}", exe.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        let read = stdout.read_line(&mut line);
        let addr = line
            .trim()
            .strip_prefix("listening on ")
            .and_then(|a| a.parse().ok());
        match (read, addr) {
            (Ok(_), Some(addr)) => Ok(Daemon {
                child,
                _stdout: stdout,
                addr,
            }),
            _ => {
                let _ = child.kill();
                let _ = child.wait();
                Err(format!(
                    "sppl-serve did not report its address (got {line:?})"
                ))
            }
        }
    }

    /// The daemon's peak resident set so far, in MiB.
    pub fn peak_rss_mib(&self) -> f64 {
        peak_rss_mib(&self.child.id().to_string()).unwrap_or(0.0)
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}
