//! What the harness reads from the operating system: CPU time, peak
//! memory, and a description of the machine. Linux `/proc` only — the
//! workspace builds offline and has no `libc` crate to call `getrusage`.

use std::fs;
use std::path::Path;
use std::process::Command;

/// `USER_HZ`, the unit of `/proc/<pid>/stat` times. Fixed at 100 on every
/// Linux architecture this workspace builds for.
const TICKS_PER_SEC: f64 = 100.0;

/// User + system CPU seconds of the whole process, threads that already
/// exited included. 10 ms resolution — a measured phase burns seconds.
pub fn process_cpu_secs() -> f64 {
    let stat = fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name (field 2) may contain spaces; fields are counted
    // from the closing parenthesis.
    let after = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let mut fields = after.split_whitespace();
    let utime: f64 = fields.nth(11).and_then(|v| v.parse().ok()).unwrap_or(0.0);
    let stime: f64 = fields.next().and_then(|v| v.parse().ok()).unwrap_or(0.0);
    (utime + stime) / TICKS_PER_SEC
}

/// CPU seconds of the calling thread (the load generator), from the
/// scheduler's nanosecond accounting.
pub fn thread_cpu_secs() -> f64 {
    let s = fs::read_to_string("/proc/thread-self/schedstat").unwrap_or_default();
    s.split_whitespace().next().and_then(|v| v.parse::<f64>().ok()).unwrap_or(0.0) / 1e9
}

/// Peak resident set size of the process so far, in MB (`VmHWM`).
pub fn rss_peak_mb() -> f64 {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Filesystem type of the mount `path` lives on (longest mount-point
/// prefix in `/proc/self/mounts`).
pub fn filesystem_of(path: &Path) -> String {
    let path = fs::canonicalize(path).unwrap_or_else(|_| path.to_path_buf());
    let mounts = fs::read_to_string("/proc/self/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (_, at, fstype) = (f.next()?, f.next()?, f.next()?);
            path.starts_with(at).then(|| (at.len(), fstype.to_string()))
        })
        .max_by_key(|(len, _)| *len)
        .map_or_else(|| "unknown".to_string(), |(_, fstype)| fstype)
}

fn first_line_of(cmd: &str, args: &[&str]) -> String {
    Command::new(cmd)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

/// The environment block printed with every run: `(key, value)` pairs.
pub fn environment(wal_dir: &Path) -> Vec<(&'static str, String)> {
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    let kernel = fs::read_to_string("/proc/sys/kernel/osrelease")
        .map_or_else(|_| "unknown".to_string(), |s| s.trim().to_string());
    vec![
        ("nproc", nproc.to_string()),
        ("kernel", kernel),
        ("rustc", first_line_of("rustc", &["--version"])),
        ("wal_filesystem", filesystem_of(wal_dir)),
        // "unknown" in a checkout that is not a git repository.
        ("git_commit", first_line_of("git", &["rev-parse", "HEAD"])),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_clocks_advance_with_work() {
        let (p0, t0) = (process_cpu_secs(), thread_cpu_secs());
        let mut x = 1u64;
        while thread_cpu_secs() - t0 < 0.05 {
            for i in 0..100_000u64 {
                x = std::hint::black_box(x.wrapping_mul(6364136223846793005).wrapping_add(i));
            }
        }
        assert!(process_cpu_secs() - p0 >= 0.03, "process clock follows the thread clock");
        assert!(rss_peak_mb() > 0.0);
    }

    #[test]
    fn finds_a_filesystem_for_the_working_directory() {
        assert_ne!(filesystem_of(Path::new(".")), "unknown");
    }
}
