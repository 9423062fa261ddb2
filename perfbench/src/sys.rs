//! Process resource usage through `getrusage(2)` and `wait4(2)`, and a
//! polling pipe reader through `fcntl(2)`, which the standard library does
//! not expose. Linux only: `ru_maxrss` is read as KiB.

use std::io::{self, Read};
use std::os::fd::AsRawFd;
use std::process::{Child, ChildStdout};

#[repr(C)]
#[derive(Default)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` on 64-bit Linux: two timevals, then fourteen longs.
#[repr(C)]
#[derive(Default)]
struct RawUsage {
    utime: Timeval,
    stime: Timeval,
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut RawUsage) -> i32;
    fn wait4(pid: i32, status: *mut i32, options: i32, usage: *mut RawUsage) -> i32;
    fn fcntl(fd: i32, cmd: i32, ...) -> i32;
}

const F_GETFL: i32 = 3;
const F_SETFL: i32 = 4;
const O_NONBLOCK: i32 = 0o4000;

const RUSAGE_SELF: i32 = 0;
const EINTR: i32 = 4;

/// Peak resident set and CPU time of one process.
#[derive(Debug, Clone, Copy)]
pub struct Usage {
    pub peak_rss_mib: f64,
    pub user_s: f64,
    pub sys_s: f64,
}

impl From<&RawUsage> for Usage {
    fn from(raw: &RawUsage) -> Self {
        let secs = |t: &Timeval| t.sec as f64 + t.usec as f64 * 1e-6;
        Usage {
            peak_rss_mib: raw.maxrss as f64 / 1024.0,
            user_s: secs(&raw.utime),
            sys_s: secs(&raw.stime),
        }
    }
}

/// Resource usage of the calling process so far.
pub fn self_usage() -> io::Result<Usage> {
    let mut raw = RawUsage::default();
    // SAFETY: `raw` is a live, writable `struct rusage` with the kernel's
    // 64-bit Linux layout; getrusage writes at most that many bytes.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut raw) };
    if rc != 0 {
        return Err(io::Error::last_os_error());
    }
    Ok(Usage::from(&raw))
}

/// Reaps `child` and returns its exit code (`None` if a signal ended it)
/// and its own resource usage. The child's pipes must already be taken.
pub fn wait_with_usage(child: Child) -> io::Result<(Option<i32>, Usage)> {
    let pid = i32::try_from(child.id()).map_err(|_| io::Error::other("pid out of range"))?;
    let mut raw = RawUsage::default();
    let mut status = 0i32;
    loop {
        // SAFETY: `status` and `raw` are live, writable locals of the
        // types wait4 expects; `pid` is our own unreaped child.
        let rc = unsafe { wait4(pid, &mut status, 0, &mut raw) };
        if rc == pid {
            break;
        }
        let err = io::Error::last_os_error();
        if err.raw_os_error() != Some(EINTR) {
            return Err(err);
        }
    }
    // `Child` never waited, so dropping it only closes handles.
    drop(child);
    let code = (status & 0x7f == 0).then_some((status >> 8) & 0xff);
    Ok((code, Usage::from(&raw)))
}

/// Reads a child's stdout without ever sleeping in the kernel: the pipe
/// is non-blocking and an empty read yields and retries. A reader blocked
/// on the pipe must be woken on every frame the child writes, and on a
/// virtual machine each such cross-CPU wake-up costs the writer a
/// host-load-dependent exit; polling keeps that cost out of the child.
pub struct PollingReader {
    pipe: ChildStdout,
}

impl PollingReader {
    pub fn new(pipe: ChildStdout) -> io::Result<Self> {
        let fd = pipe.as_raw_fd();
        // SAFETY: `fd` is the open pipe `pipe` owns; F_GETFL/F_SETFL only
        // read and set its status flags.
        let flags = unsafe { fcntl(fd, F_GETFL) };
        // SAFETY: as above.
        if flags < 0 || unsafe { fcntl(fd, F_SETFL, flags | O_NONBLOCK) } < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(PollingReader { pipe })
    }
}

impl Read for PollingReader {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        loop {
            match self.pipe.read(buf) {
                Err(err) if err.kind() == io::ErrorKind::WouldBlock => std::thread::yield_now(),
                other => return other,
            }
        }
    }
}
