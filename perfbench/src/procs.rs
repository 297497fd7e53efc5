//! Child processes: exit status with peak resident memory, and the
//! resident-memory high-water mark of a live process. Linux only.

use std::fs;
use std::io;
use std::process::Child;
use std::thread;
use std::time::{Duration, Instant};

extern "C" {
    /// `pid_t wait4(pid_t, int *status, int options, struct rusage *)`.
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut [i64; 18]) -> i32;
}

const WNOHANG: i32 = 1;
/// `ru_maxrss` (KiB) follows the two `struct timeval`s of `struct rusage`.
const RU_MAXRSS: usize = 4;

/// How a waited-for child ended.
pub struct Exit {
    /// Exited normally with status 0.
    pub success: bool,
    /// Peak resident set size in MiB.
    pub peak_rss_mb: f64,
}

/// Reaps `child`, killing it first if it is still running after
/// `limit`, and returns its exit status and peak resident memory.
pub fn wait_rusage(child: &mut Child, limit: Duration) -> io::Result<Exit> {
    let pid = i32::try_from(child.id()).map_err(|_| io::Error::other("pid out of range"))?;
    let deadline = Instant::now() + limit;
    let mut killed = false;
    loop {
        let mut status = 0i32;
        let mut usage = [0i64; 18];
        // SAFETY: `status` and `usage` are live, writable locals; `usage`
        // is 144 bytes, the size of `struct rusage` on 64-bit Linux, and
        // wait4 writes nothing else. `pid` is this process's own child,
        // not yet reaped (std's `Child` never waited on it).
        let got = unsafe { wait4(pid, &mut status, WNOHANG, &mut usage) };
        if got == pid {
            // WIFEXITED && WEXITSTATUS == 0
            let success = !killed && status & 0x7f == 0 && (status >> 8) & 0xff == 0;
            return Ok(Exit {
                success,
                peak_rss_mb: usage[RU_MAXRSS] as f64 / 1024.0,
            });
        }
        if got < 0 {
            return Err(io::Error::last_os_error());
        }
        if !killed && Instant::now() > deadline {
            child.kill()?;
            killed = true;
        }
        thread::sleep(Duration::from_millis(2));
    }
}

/// Resident-memory high-water mark (`VmHWM`) of a live process in MiB.
pub fn vm_hwm_mb(pid: &str) -> Option<f64> {
    let status = fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}
