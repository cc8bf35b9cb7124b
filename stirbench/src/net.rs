//! Talking to stird: the process guard that owns a spawned daemon and its
//! data directory, the line-protocol client, and the client self-test.

use crate::stats::median;
use crate::work_dir;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::unix::process::CommandExt;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

extern "C" {
    fn prctl(option: i32, ...) -> i32;
}

const PR_SET_PDEATHSIG: i32 = 1;
const SIGKILL: u64 = 9;

/// The stird binary, built next to the benchmark by `run.sh`.
pub fn stird_binary() -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| ".bench_build".into());
    PathBuf::from(target).join("release").join("stird")
}

/// The file listing the pids of stird processes this benchmark spawned.
fn pid_file() -> PathBuf {
    work_dir().join("stird.pids")
}

fn recorded_pids() -> Vec<u32> {
    std::fs::read_to_string(pid_file())
        .unwrap_or_default()
        .lines()
        .filter_map(|l| l.trim().parse().ok())
        .collect()
}

fn write_pids(pids: &[u32]) {
    let text: String = pids.iter().map(|p| format!("{p}\n")).collect();
    let _ = std::fs::write(pid_file(), text);
}

fn is_live_stird(pid: u32) -> bool {
    std::fs::read(format!("/proc/{pid}/cmdline"))
        .map(|c| String::from_utf8_lossy(&c).contains("stird"))
        .unwrap_or(false)
}

/// Refuses to start while a stird spawned by an earlier run is alive:
/// two cores cannot absorb leaked daemons across many runs.
///
/// # Errors
///
/// Names the live pid.
pub fn check_no_leftover_stird() -> Result<(), String> {
    let pids = recorded_pids();
    if let Some(pid) = pids.iter().find(|&&p| is_live_stird(p)) {
        return Err(format!(
            "a stird from an earlier run (pid {pid}) is still alive; stop it first"
        ));
    }
    write_pids(&[]);
    Ok(())
}

/// A spawned stird. Dropping the guard — on success, failure or panic —
/// kills the process with SIGKILL, waits for it, and removes its data
/// directory.
pub struct Stird {
    child: Child,
    /// Held open so stird never writes into a closed pipe.
    _stdout: BufReader<ChildStdout>,
    /// The listening address.
    pub addr: SocketAddr,
    /// The data directory (removed on drop).
    pub data_dir: PathBuf,
    /// Spawn until the `listening on` banner.
    pub startup: Duration,
}

impl Stird {
    /// Spawns stird with `args` (the data directory must already be in
    /// them) and waits for its banner.
    ///
    /// # Errors
    ///
    /// Fails when stird cannot start or exits before listening.
    pub fn spawn(
        args: &[String],
        data_dir: &Path,
        env: &[(&str, String)],
        log: &Path,
    ) -> Result<Stird, String> {
        let stderr = std::fs::File::create(log).map_err(|e| format!("stird log: {e}"))?;
        let mut cmd = Command::new(stird_binary());
        cmd.args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(stderr);
        for var in [
            "STIR_FAULT",
            "STIR_JOBS",
            "STIR_STORAGE",
            "STIR_DURABILITY",
            "STIR_MORSEL_SIZE",
            "STIR_PAGE_CACHE",
        ] {
            cmd.env_remove(var);
        }
        for (k, v) in env {
            cmd.env(k, v);
        }
        // A benchmark killed from outside (a timeout) must not leave its
        // daemon behind: the kernel SIGKILLs stird when its parent dies.
        // SAFETY: the closure runs in the forked child before exec and
        // only calls prctl, which is async-signal-safe and reads no memory
        // of the parent.
        unsafe {
            cmd.pre_exec(|| {
                if prctl(PR_SET_PDEATHSIG, SIGKILL) == 0 {
                    Ok(())
                } else {
                    Err(std::io::Error::last_os_error())
                }
            });
        }
        let started = Instant::now();
        let mut child = cmd
            .spawn()
            .map_err(|e| format!("spawning {}: {e}", stird_binary().display()))?;
        let mut pids = recorded_pids();
        pids.push(child.id());
        write_pids(&pids);
        let stdout = child.stdout.take().expect("stdout is piped");
        let mut guard = Stird {
            child,
            _stdout: BufReader::new(stdout),
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            data_dir: data_dir.to_path_buf(),
            startup: Duration::ZERO,
        };
        let mut line = String::new();
        guard
            ._stdout
            .read_line(&mut line)
            .map_err(|e| format!("reading stird banner: {e}"))?;
        guard.startup = started.elapsed();
        let addr = line
            .trim()
            .strip_prefix("stird: listening on ")
            .ok_or_else(|| {
                let log = std::fs::read_to_string(log).unwrap_or_default();
                format!("stird did not start (banner {line:?}); log:\n{log}")
            })?;
        guard.addr = addr
            .parse()
            .map_err(|e| format!("bad stird address {addr:?}: {e}"))?;
        Ok(guard)
    }

    /// The process id.
    pub fn pid(&self) -> u32 {
        self.child.id()
    }
}

impl Drop for Stird {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        let pid = self.child.id();
        write_pids(
            &recorded_pids()
                .into_iter()
                .filter(|&p| p != pid)
                .collect::<Vec<_>>(),
        );
        let _ = std::fs::remove_dir_all(&self.data_dir);
    }
}

/// A reply: the data lines and the final `ok …`/`err …` status line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Reply {
    pub rows: Vec<String>,
    pub status: String,
}

impl Reply {
    /// Whether the status line is an `ok`.
    pub fn ok(&self) -> bool {
        self.status.starts_with("ok")
    }
}

/// One line-protocol connection. `TCP_NODELAY` is set and each request
/// goes out in a single `write`, so any stall is the server's.
pub struct Client {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
    buf: Vec<u8>,
}

impl Client {
    /// Connects to `addr`.
    ///
    /// # Errors
    ///
    /// Propagates socket errors.
    pub fn connect(addr: SocketAddr) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(60)))?;
        Ok(Client {
            reader: BufReader::new(stream.try_clone()?),
            stream,
            buf: Vec::with_capacity(128),
        })
    }

    fn send(&mut self, line: &str) -> std::io::Result<()> {
        self.buf.clear();
        self.buf.extend_from_slice(line.as_bytes());
        self.buf.push(b'\n');
        self.stream.write_all(&self.buf)
    }

    fn read_line(&mut self) -> std::io::Result<String> {
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        line.truncate(line.trim_end_matches(['\r', '\n']).len());
        Ok(line)
    }

    /// Sends one request and reads its reply up to the status line.
    ///
    /// # Errors
    ///
    /// Propagates socket errors.
    pub fn request(&mut self, line: &str) -> std::io::Result<Reply> {
        self.send(line)?;
        let mut rows = Vec::new();
        loop {
            let l = self.read_line()?;
            if l.starts_with("ok") || l.starts_with("err") {
                return Ok(Reply { rows, status: l });
            }
            rows.push(l);
        }
    }

    /// `.stats json`: one JSON line, no status line.
    ///
    /// # Errors
    ///
    /// Propagates socket errors.
    pub fn stats_json(&mut self) -> std::io::Result<String> {
        self.send(".stats json")?;
        self.read_line()
    }
}

/// Times the client against an in-process responder that answers each
/// line with one `write`; returns the median round trip in µs. A client
/// whose own round trip is tens of µs cannot explain a millisecond stall.
///
/// # Errors
///
/// Propagates socket errors.
pub fn client_self_test(requests: usize) -> Result<f64, String> {
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| e.to_string())?;
    let addr = listener.local_addr().map_err(|e| e.to_string())?;
    let responder = std::thread::spawn(move || -> std::io::Result<()> {
        let (mut stream, _) = listener.accept()?;
        stream.set_nodelay(true)?;
        let mut buf = [0u8; 256];
        let mut pending = 0usize;
        loop {
            let n = stream.read(&mut buf)?;
            if n == 0 {
                return Ok(());
            }
            pending += buf[..n].iter().filter(|&&b| b == b'\n').count();
            while pending > 0 {
                stream.write_all(b"ok 0 rows\n")?;
                pending -= 1;
            }
        }
    });
    let rtts = (|| -> std::io::Result<Vec<f64>> {
        let mut client = Client::connect(addr)?;
        let mut rtts = Vec::with_capacity(requests);
        for _ in 0..requests {
            let t = Instant::now();
            client.request("?x(1)")?;
            rtts.push(t.elapsed().as_secs_f64() * 1e6);
        }
        Ok(rtts)
    })();
    let joined = responder.join();
    let rtts = rtts.map_err(|e| format!("self-test client: {e}"))?;
    joined
        .map_err(|_| "self-test responder panicked".to_owned())?
        .map_err(|e| format!("self-test responder: {e}"))?;
    Ok(median(&rtts))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn client_round_trip_is_fast_against_a_one_write_responder() {
        let us = client_self_test(200).expect("self-test runs");
        assert!(us > 0.0 && us < 1000.0, "loopback round trip {us} µs");
    }
}
