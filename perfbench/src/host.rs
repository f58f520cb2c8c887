//! Observing processes and the host from outside: `/proc` reads, the
//! host stamp, and timer-slack control for the load generator.

use std::path::Path;

extern "C" {
    fn sysconf(name: i32) -> i64;
    fn prctl(option: i32, ...) -> i32;
}

const SC_CLK_TCK: i32 = 2;
const PR_SET_TIMERSLACK: i32 = 29;

/// Cuts the calling thread's timer slack to 1 ns so `thread::sleep`
/// wakes within microseconds of the schedule instead of the default
/// 50 µs late. Best effort: a refusal only makes sends later, and the
/// lag is reported either way.
pub fn tight_timer_slack() {
    // SAFETY: PR_SET_TIMERSLACK takes a plain integer and touches only the
    // calling thread's scheduling attributes.
    unsafe {
        prctl(PR_SET_TIMERSLACK, 1 as std::ffi::c_ulong);
    }
}

/// User + system CPU seconds `pid` has used so far (all its threads),
/// from fields 14 and 15 of `/proc/<pid>/stat`.
pub fn cpu_seconds(pid: u32) -> std::io::Result<f64> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat"))?;
    // The command name may contain spaces; fields resume after its ')'.
    let rest = stat
        .rsplit_once(')')
        .map(|(_, rest)| rest)
        .ok_or_else(|| std::io::Error::other("malformed /proc stat"))?;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // `rest` starts at field 3 (state), so utime (14) is index 11.
    let ticks = |i: usize| -> std::io::Result<f64> {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .map(|t| t as f64)
            .ok_or_else(|| std::io::Error::other("malformed /proc stat"))
    };
    // SAFETY: sysconf only reads a process-wide constant.
    let hz = unsafe { sysconf(SC_CLK_TCK) }.max(1) as f64;
    Ok((ticks(11)? + ticks(12)?) / hz)
}

/// Peak resident set (`VmHWM`) of `pid` in MiB.
pub fn peak_rss_mib(pid: u32) -> std::io::Result<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| std::io::Error::other("no VmHWM in /proc status"))
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

/// The filesystem type holding `dir` (longest matching mount point).
fn filesystem(dir: &Path) -> String {
    let dir = std::fs::canonicalize(dir).unwrap_or_else(|_| dir.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|l| {
            let mut parts = l.split_whitespace();
            let (_dev, point, fstype) = (parts.next()?, parts.next()?, parts.next()?);
            dir.starts_with(point)
                .then(|| (point.len(), fstype.to_owned()))
        })
        .max_by_key(|(len, _)| *len)
        .map_or_else(|| "unknown".to_owned(), |(_, fs)| fs)
}

/// The commit under test: `git rev-parse HEAD` when the checkout is a git
/// repository, otherwise an FNV-1a fingerprint of the program sources
/// (`crates/` and `vendor/`), which identifies the tree just as well.
fn commit() -> String {
    if let Ok(out) = std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
    {
        if out.status.success() {
            return String::from_utf8_lossy(&out.stdout).trim().to_owned();
        }
    }
    let mut files = Vec::new();
    for root in ["crates", "vendor"] {
        collect_files(Path::new(root), &mut files);
    }
    files.sort();
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for file in &files {
        let bytes = std::fs::read(file).unwrap_or_default();
        for b in file.to_string_lossy().bytes().chain(bytes) {
            hash = (hash ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    format!(
        "tree-fnv64:{hash:016x} ({} files; not a git checkout)",
        files.len()
    )
}

fn collect_files(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            collect_files(&path, out);
        } else {
            out.push(path);
        }
    }
}

/// One line describing where and on what the numbers were measured.
pub fn stamp() -> String {
    format!(
        "host: nproc={} cpu=\"{}\" fs={} commit={}",
        nproc(),
        cpu_model(),
        filesystem(Path::new(".")),
        commit()
    )
}
