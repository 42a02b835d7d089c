//! Child processes under hard deadlines, scratch directories that clean
//! up after themselves, and the `/proc` readings (CPU time, peak RSS)
//! the end-to-end metrics are built from.
//!
//! Every child is owned by a guard whose `Drop` kills and reaps it, so a
//! failed check, an early `?` return or a panic never leaves a daemon
//! behind. Every wait has a deadline: a hang becomes an error carrying
//! the tail of the child's log.

use std::fs::{self, File};
use std::io;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, ExitStatus, Stdio};
use std::time::{Duration, Instant};

/// Clock ticks per second of the `/proc/<pid>/stat` time fields
/// (`USER_HZ`, fixed at 100 by the Linux ABI on every mainstream
/// architecture).
pub const USER_HZ: f64 = 100.0;

/// User and system CPU of a process and of its reaped children, in
/// clock ticks (fields 14–17 of `/proc/<pid>/stat`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CpuTicks {
    /// `utime + stime` of the process (all its threads).
    pub own: u64,
    /// `cutime + cstime`: children the process has waited for.
    pub children: u64,
}

/// Parses the text of `/proc/<pid>/stat`. The command name (field 2) may
/// contain spaces and parentheses, so fields are counted from the last
/// `)`.
pub fn parse_stat(text: &str) -> Option<CpuTicks> {
    let rest = &text[text.rfind(')')? + 1..];
    let f: Vec<&str> = rest.split_whitespace().collect();
    // `rest` starts at field 3 (state): field k is f[k - 3].
    let num = |k: usize| f.get(k - 3)?.parse::<u64>().ok();
    Some(CpuTicks {
        own: num(14)? + num(15)?,
        children: num(16)? + num(17)?,
    })
}

/// CPU ticks of `pid` (`"self"` for this process).
pub fn cpu_ticks(pid: &str) -> Option<CpuTicks> {
    parse_stat(&fs::read_to_string(format!("/proc/{pid}/stat")).ok()?)
}

/// Parses the `VmHWM` (peak resident set) line of `/proc/<pid>/status`,
/// in KiB.
pub fn parse_vm_hwm_kb(status: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

/// Peak resident set of a live process, in KiB.
pub fn vm_hwm_kb(pid: u32) -> Option<u64> {
    parse_vm_hwm_kb(&fs::read_to_string(format!("/proc/{pid}/status")).ok()?)
}

/// The last `n` lines of a log file, for diagnostics.
pub fn log_tail(path: &Path, n: usize) -> String {
    let text = fs::read_to_string(path).unwrap_or_default();
    let lines: Vec<&str> = text.lines().collect();
    lines[lines.len().saturating_sub(n)..].join("\n")
}

/// A directory removed (recursively) when the guard drops.
pub struct TempDir(PathBuf);

impl TempDir {
    /// Creates a fresh directory `parent/name`, replacing any leftover.
    pub fn new(parent: &Path, name: &str) -> io::Result<TempDir> {
        let path = parent.join(name);
        let _ = fs::remove_dir_all(&path);
        fs::create_dir_all(&path)?;
        Ok(TempDir(path))
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

/// A child process with stdout and stderr captured to files. It is
/// killed and reaped on drop unless it already exited.
pub struct Proc {
    name: String,
    child: Child,
    /// Where stderr goes: the log diagnostics quote.
    log: PathBuf,
}

impl Proc {
    /// Starts `program args...` with stdout written to `stdout` and
    /// stderr to `log` (which may be the same file).
    pub fn spawn(
        name: &str,
        program: &Path,
        args: &[String],
        stdout: &Path,
        log: &Path,
    ) -> Result<Proc, String> {
        let create =
            |p: &Path| File::create(p).map_err(|e| format!("{name}: {}: {e}", p.display()));
        let out = create(stdout)?;
        let err = if stdout == log {
            out.try_clone().map_err(|e| format!("{name}: {e}"))?
        } else {
            create(log)?
        };
        let child = Command::new(program)
            .args(args)
            .stdin(Stdio::null())
            .stdout(out)
            .stderr(err)
            .spawn()
            .map_err(|e| format!("{name}: cannot start {}: {e}", program.display()))?;
        Ok(Proc {
            name: name.to_string(),
            child,
            log: log.to_path_buf(),
        })
    }

    /// The child's process id.
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Diagnostic suffix: the last lines the child printed.
    pub fn diagnostic(&self) -> String {
        format!(
            "{} log {}:\n{}",
            self.name,
            self.log.display(),
            log_tail(&self.log, 20)
        )
    }

    /// Polls until the child exits, calling `tick` between polls; kills
    /// it and fails once `timeout` passes. The poll interval is 1% of the
    /// time waited so far (10 µs to 5 ms), so the exit is seen within
    /// 1% of the child's run time, however short.
    pub fn wait_with(
        &mut self,
        timeout: Duration,
        mut tick: impl FnMut(u32),
    ) -> Result<ExitStatus, String> {
        let start = Instant::now();
        let deadline = start + timeout;
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) => return Ok(status),
                Ok(None) => {}
                Err(e) => return Err(format!("{}: wait failed: {e}", self.name)),
            }
            if Instant::now() >= deadline {
                self.kill();
                return Err(format!(
                    "{} still running after {:.0} s; killed. {}",
                    self.name,
                    timeout.as_secs_f64(),
                    self.diagnostic()
                ));
            }
            tick(self.child.id());
            let poll =
                (start.elapsed() / 100).clamp(Duration::from_micros(10), Duration::from_millis(5));
            std::thread::sleep(poll);
        }
    }

    /// Waits up to `timeout` for the child to exit, requiring success.
    pub fn wait_ok(&mut self, timeout: Duration) -> Result<(), String> {
        let status = self.wait_with(timeout, |_| {})?;
        if status.success() {
            Ok(())
        } else {
            Err(format!(
                "{} exited with {status}. {}",
                self.name,
                self.diagnostic()
            ))
        }
    }

    fn kill(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

impl Drop for Proc {
    fn drop(&mut self) {
        self.kill();
    }
}

/// A daemon that announced `listening on ADDR` on its stdout.
pub struct Daemon {
    /// The process.
    pub proc: Proc,
    /// The address it bound.
    pub addr: SocketAddr,
}

impl Daemon {
    /// Starts a daemon and waits (at most `timeout`) for its
    /// `listening on` line.
    pub fn start(
        name: &str,
        program: &Path,
        args: &[String],
        log: &Path,
        timeout: Duration,
    ) -> Result<Daemon, String> {
        let mut proc = Proc::spawn(name, program, args, log, log)?;
        let deadline = Instant::now() + timeout;
        loop {
            let text = fs::read_to_string(log).unwrap_or_default();
            if let Some(addr) = text.lines().find_map(|l| l.strip_prefix("listening on ")) {
                let addr = addr
                    .trim()
                    .parse()
                    .map_err(|e| format!("{name}: bad listen address `{addr}`: {e}"))?;
                return Ok(Daemon { proc, addr });
            }
            if let Ok(Some(status)) = proc.child.try_wait() {
                return Err(format!(
                    "{name} exited with {status} before listening. {}",
                    proc.diagnostic()
                ));
            }
            if Instant::now() >= deadline {
                return Err(format!(
                    "{name} did not listen within {:.0} s. {}",
                    timeout.as_secs_f64(),
                    proc.diagnostic()
                ));
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    /// CPU seconds (user + system, all threads) the daemon used so far.
    pub fn cpu_s(&self) -> Result<f64, String> {
        cpu_ticks(&self.proc.pid().to_string())
            .map(|t| t.own as f64 / USER_HZ)
            .ok_or_else(|| format!("cannot read /proc/{}/stat", self.proc.pid()))
    }

    /// The daemon's peak resident set, in MiB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        vm_hwm_kb(self.proc.pid())
            .map(|kb| kb as f64 / 1024.0)
            .ok_or_else(|| format!("cannot read /proc/{}/status", self.proc.pid()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_fields_are_counted_after_the_command_name() {
        // A command name with spaces and a closing parenthesis must not
        // shift the fields.
        let line = "4242 (strided (x) y) S 1 4242 4242 0 -1 4194560 1234 0 0 0 \
                    250 75 12 3 20 0 6 0 12345 1000000 300 18446744073709551615";
        assert_eq!(
            parse_stat(line),
            Some(CpuTicks {
                own: 325,
                children: 15
            })
        );
        assert_eq!(parse_stat("garbage"), None);
        assert_eq!(parse_stat("1 (x) S 1 2"), None);
    }

    #[test]
    fn vm_hwm_is_read_in_kib() {
        let status =
            "Name:\tstrided\nVmPeak:\t  120000 kB\nVmHWM:\t   51234 kB\nVmRSS:\t 4000 kB\n";
        assert_eq!(parse_vm_hwm_kb(status), Some(51234));
        assert_eq!(parse_vm_hwm_kb("Name:\tzombie\n"), None);
    }

    #[test]
    fn this_process_has_readable_cpu_and_rss() {
        assert!(cpu_ticks("self").is_some());
        assert!(vm_hwm_kb(std::process::id()).unwrap() > 0);
    }

    #[test]
    fn a_hung_child_is_killed_at_its_deadline() {
        let out = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
        let dir = TempDir::new(&out, "hang-test").unwrap();
        let log = dir.path().join("sleep.log");
        let mut p = Proc::spawn(
            "sleeper",
            Path::new("sleep"),
            &["30".to_string()],
            &log,
            &log,
        )
        .unwrap();
        let err = p.wait_ok(Duration::from_millis(100)).unwrap_err();
        assert!(err.contains("killed"), "{err}");
        assert!(matches!(p.child.try_wait(), Ok(Some(_))), "child reaped");
    }
}
