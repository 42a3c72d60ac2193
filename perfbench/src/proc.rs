//! What the benchmark owns outside its own process: the `privpath`
//! build, the server child, its `/proc` counters, and scratch
//! directories. Every child is waited for and every scratch directory
//! removed, on success and on failure alike (both through `Drop`).

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

pub type Result<T> = std::result::Result<T, String>;

/// The repository root: the directory above this package.
pub fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark package sits inside the repository")
        .to_path_buf()
}

/// Builds the `privpath` CLI from the repository's sources and returns
/// the binary's path. Cargo's messages go to stderr; stdout stays clean
/// for the result line.
pub fn build_privpath(root: &Path) -> Result<PathBuf> {
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let status = Command::new(cargo)
        .args([
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--bin",
            "privpath",
        ])
        .current_dir(root)
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building privpath failed ({status})"));
    }
    // A relative CARGO_TARGET_DIR is relative to the directory cargo ran
    // in, which is `root`.
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| root.join("target"), |t| root.join(t));
    let bin = target.join("release").join("privpath");
    if !bin.is_file() {
        return Err(format!("built binary missing at {}", bin.display()));
    }
    Ok(bin)
}

/// Runs `bin args...` to completion, its stdout discarded (this
/// process's stdout carries only the result).
pub fn run(bin: &Path, args: &[&str]) -> Result<()> {
    let status = Command::new(bin)
        .args(args)
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cannot run {}: {e}", bin.display()))?;
    if !status.success() {
        return Err(format!("`privpath {}` failed ({status})", args.join(" ")));
    }
    Ok(())
}

/// A running `privpath serve` child. Dropping it kills and reaps the
/// process; [`Server::shutdown`] stops it gracefully first.
pub struct Server {
    child: Option<Child>,
    // Held open so the server's shutdown summary never meets a closed
    // pipe.
    _stdout: Option<BufReader<ChildStdout>>,
    addr: String,
    pid: u32,
}

impl Server {
    /// Starts `privpath serve --store DIR --port 0 --threads N` and
    /// returns once it prints its listening address.
    pub fn start(bin: &Path, store: &Path, threads: usize) -> Result<Server> {
        let mut child = Command::new(bin)
            .arg("serve")
            .arg("--store")
            .arg(store)
            .args(["--port", "0", "--threads", &threads.to_string()])
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("cannot start server: {e}"))?;
        let stdout = child.stdout.take();
        let pid = child.id();
        let mut server = Server {
            child: Some(child),
            _stdout: None,
            addr: String::new(),
            pid,
        };
        let mut reader = BufReader::new(stdout.ok_or("server stdout not captured")?);
        let mut line = String::new();
        loop {
            line.clear();
            let n = reader.read_line(&mut line).map_err(|e| e.to_string())?;
            if n == 0 {
                return Err("server exited before listening".into());
            }
            if let Some(addr) = line.trim().strip_prefix("listening on ") {
                server.addr = addr.to_string();
                break;
            }
        }
        server._stdout = Some(reader);
        Ok(server)
    }

    pub fn addr(&self) -> &str {
        &self.addr
    }

    pub fn pid(&self) -> u32 {
        self.pid
    }

    /// Sends the `shutdown` line and waits for the process to exit.
    pub fn shutdown(mut self) -> Result<()> {
        let mut stream = TcpStream::connect(&self.addr).map_err(|e| e.to_string())?;
        stream.write_all(b"shutdown\n").map_err(|e| e.to_string())?;
        let mut ack = String::new();
        let _ = BufReader::new(&stream).read_line(&mut ack);
        let mut child = self.child.take().ok_or("server already stopped")?;
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            match child.try_wait().map_err(|e| e.to_string())? {
                Some(status) if status.success() => return Ok(()),
                Some(status) => return Err(format!("server exited with {status}")),
                None if Instant::now() > deadline => {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err("server ignored shutdown".into());
                }
                None => std::thread::sleep(Duration::from_millis(5)),
            }
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

fn proc_file(pid: u32, name: &str) -> Result<String> {
    std::fs::read_to_string(format!("/proc/{pid}/{name}"))
        .map_err(|e| format!("/proc/{pid}/{name}: {e}"))
}

/// User plus system CPU time of every thread of `pid`, in seconds
/// (`/proc/<pid>/stat` fields 14 and 15, in 1/100 s ticks).
pub fn cpu_seconds(pid: u32) -> Result<f64> {
    let stat = proc_file(pid, "stat")?;
    // Fields after the parenthesised command name start at field 3.
    let rest = stat.rsplit_once(')').ok_or("malformed stat")?.1;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| -> Result<f64> {
        fields
            .get(i - 3)
            .and_then(|f| f.parse::<f64>().ok())
            .ok_or_else(|| format!("malformed stat field {i}"))
    };
    Ok((tick(14)? + tick(15)?) / 100.0)
}

/// Peak resident set (`VmHWM`) of `pid`, in MiB.
pub fn peak_rss_mib(pid: u32) -> Result<f64> {
    let status = proc_file(pid, "status")?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in status")?;
    Ok(kib / 1024.0)
}

/// Bytes `pid` has passed to `write` and friends (`/proc/<pid>/io`
/// `wchar`): files and sockets alike.
pub fn written_bytes(pid: u32) -> Result<u64> {
    proc_file(pid, "io")?
        .lines()
        .find_map(|l| l.strip_prefix("wchar:"))
        .and_then(|v| v.trim().parse().ok())
        .ok_or_else(|| "no wchar in io".to_string())
}

/// A scratch directory, removed (with everything in it) on drop.
pub struct ScratchDir(PathBuf);

impl ScratchDir {
    pub fn create(path: PathBuf) -> Result<ScratchDir> {
        if path.exists() {
            std::fs::remove_dir_all(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        }
        std::fs::create_dir_all(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        Ok(ScratchDir(path))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The filesystem type and mount point holding `path`, from
/// `/proc/self/mountinfo` (longest mount point that contains it).
pub fn filesystem_of(path: &Path) -> String {
    let Ok(path) = path.canonicalize() else {
        return "unknown".into();
    };
    let Ok(info) = std::fs::read_to_string("/proc/self/mountinfo") else {
        return "unknown".into();
    };
    info.lines()
        .filter_map(|line| {
            let (pre, post) = line.split_once(" - ")?;
            let mount = pre.split(' ').nth(4)?;
            let fstype = post.split(' ').next()?;
            path.starts_with(mount)
                .then(|| (mount.len(), format!("{fstype} on {mount}")))
        })
        .max_by_key(|(len, _)| *len)
        .map_or_else(|| "unknown".into(), |(_, fs)| fs)
}

/// The checked-out commit, or `unknown` outside a git work tree (git
/// is not asked to look above `root`).
pub fn git_rev(root: &Path) -> String {
    Command::new("git")
        .args(["rev-parse", "HEAD"])
        .current_dir(root)
        .env("GIT_CEILING_DIRECTORIES", root.parent().unwrap_or(root))
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".into(), |s| s.trim().to_string())
}
