//! The `kronpriv-serve` child process: spawned with its stdout and stderr redirected to files
//! in the run directory (the server writes one access-log line per request, so an undrained
//! pipe would stall it), its bound address read from the first stdout line, and killed and
//! reaped when the handle drops.

use std::fs::{self, File};
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// A running server child.
pub struct Server {
    child: Child,
    /// The address the server reported on its first stdout line.
    pub addr: SocketAddr,
}

impl Server {
    /// Spawns `bin` on an ephemeral localhost port (durable on `data_dir` when given) and
    /// waits until it reports its address. `tag` names the log files in `run_dir`.
    pub fn spawn(
        bin: &Path,
        run_dir: &Path,
        tag: &str,
        data_dir: Option<&Path>,
    ) -> Result<Server, String> {
        let stdout_path = run_dir.join(format!("{tag}.stdout"));
        let stdout = File::create(&stdout_path).map_err(|e| format!("create log: {e}"))?;
        let stderr = File::create(run_dir.join(format!("{tag}.stderr")))
            .map_err(|e| format!("create log: {e}"))?;
        let mut command = Command::new(bin);
        command.args(["--addr", "127.0.0.1:0"]);
        if let Some(dir) = data_dir {
            command.arg("--data-dir").arg(dir);
        }
        let child = command
            .stdin(Stdio::null())
            .stdout(stdout)
            .stderr(stderr)
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        // From here on the handle owns the child: every error path kills and reaps it.
        let mut server = Server { child, addr: SocketAddr::from(([127, 0, 0, 1], 0)) };
        let deadline = Instant::now() + Duration::from_secs(60);
        loop {
            let text = fs::read_to_string(&stdout_path).unwrap_or_default();
            if let Some(line) = text.lines().next().filter(|_| text.contains('\n')) {
                let addr = line
                    .strip_prefix("listening on http://")
                    .and_then(|a| a.trim().parse().ok())
                    .ok_or_else(|| format!("unexpected first server line {line:?}"))?;
                server.addr = addr;
                return Ok(server);
            }
            if let Ok(Some(status)) = server.child.try_wait() {
                return Err(format!("server exited during start-up ({status})"));
            }
            if Instant::now() > deadline {
                return Err("server did not report its address within 60 s".to_string());
            }
            std::thread::sleep(Duration::from_micros(100));
        }
    }

    /// The child's peak resident set size (`VmHWM`), in MiB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        let status = fs::read_to_string(format!("/proc/{}/status", self.child.id()))
            .map_err(|e| format!("read server /proc status: {e}"))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.split_whitespace().next()?.parse::<f64>().ok())
            .map(|kib| kib / 1024.0)
            .ok_or_else(|| "no VmHWM line in the server's /proc status".to_string())
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}
