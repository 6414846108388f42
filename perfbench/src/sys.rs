//! What the benchmark reads about the process and the machine: CPU
//! time, peak memory, and the configuration every result is recorded
//! with. All of it comes from `/proc` and `/sys` (Linux); a missing
//! file reads as "unknown" rather than failing the run.

use std::fs;
use std::path::Path;

/// Kernel clock ticks per second of the `utime`/`stime` fields of
/// `/proc/self/stat` (`USER_HZ`, fixed at 100 on Linux).
const USER_HZ: f64 = 100.0;

/// User + system CPU seconds consumed so far by the whole process
/// (exited threads included), at 10 ms resolution.
pub fn cpu_seconds() -> f64 {
    let stat = fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name (field 2) may hold spaces; fields after the
    // closing parenthesis are space-separated, utime and stime being
    // the 12th and 13th of them.
    let rest = stat.rsplit_once(')').map(|(_, r)| r).unwrap_or("");
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (tick(11) + tick(12)) / USER_HZ
}

/// Peak resident set size of the process since start or the last
/// [`reset_peak_rss`], in MiB.
pub fn peak_rss_mb() -> f64 {
    status_field("VmHWM:")
        .and_then(|v| v.trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Resets the peak-RSS high-water mark to the current RSS (`clear_refs`
/// code 5). Where the kernel refuses, the mark keeps counting from
/// process start.
pub fn reset_peak_rss() {
    let _ = fs::write("/proc/self/clear_refs", "5");
}

fn status_field(key: &str) -> Option<String> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(key))?;
    Some(line[key.len()..].trim().to_string())
}

/// CPUs this process may run on (`nproc`): the size of its affinity
/// mask, from `Cpus_allowed_list` (e.g. `0-1,4`).
pub fn nproc() -> usize {
    let Some(list) = status_field("Cpus_allowed_list:") else {
        return 0;
    };
    list.split(',')
        .map(|part| match part.split_once('-') {
            Some((a, b)) => match (a.parse::<usize>(), b.parse::<usize>()) {
                (Ok(a), Ok(b)) if b >= a => b - a + 1,
                _ => 0,
            },
            None => usize::from(part.parse::<usize>().is_ok()),
        })
        .sum()
}

/// The cgroup CPU quota: `cpu.max` (cgroup v2) or the v1
/// `cfs_quota_us cfs_period_us` pair, or `"absent"`.
pub fn cgroup_cpu_max() -> String {
    let read = |p: &str| fs::read_to_string(p).ok().map(|s| s.trim().to_string());
    if let Some(v) = read("/sys/fs/cgroup/cpu.max") {
        return v;
    }
    match (
        read("/sys/fs/cgroup/cpu/cpu.cfs_quota_us"),
        read("/sys/fs/cgroup/cpu/cpu.cfs_period_us"),
    ) {
        (Some(q), Some(p)) => format!("{q} {p}"),
        _ => "absent".into(),
    }
}

/// The commit the benchmark was built from, read from the `.git`
/// directory beside the benchmark package; `"unknown"` in a checkout
/// without one.
pub fn git_commit() -> String {
    let git = Path::new(env!("CARGO_MANIFEST_DIR")).join("../.git");
    let read = |p: &Path| fs::read_to_string(p).ok().map(|s| s.trim().to_string());
    let Some(head) = read(&git.join("HEAD")) else {
        return "unknown".into();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Some(hash) = read(&git.join(reference)) {
        return hash;
    }
    read(&git.join("packed-refs"))
        .and_then(|packed| {
            packed.lines().find_map(|l| {
                l.split_once(' ')
                    .filter(|(_, r)| *r == reference)
                    .map(|(h, _)| h.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The machine and configuration a result was measured under, as one
/// JSON object.
pub fn config_json(workload: &str, seed: u64, seconds: u64, trace: bool, clients: usize) -> String {
    let env = |k: &str| std::env::var(k).map_or("null".into(), |v| json_str(&v));
    let available = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        concat!(
            "{{\"workload\":{},\"seed\":{},\"seconds\":{},\"trace\":{},\"clients\":{},",
            "\"nproc\":{},\"available_parallelism\":{},\"cgroup_cpu_max\":{},",
            "\"jobs\":{},\"CNTFET_JOBS\":{},\"CNTFET_NO_CACHE\":{},",
            "\"git_commit\":{},\"rustc\":{}}}"
        ),
        json_str(workload),
        seed,
        seconds,
        trace,
        clients,
        nproc(),
        available,
        json_str(&cgroup_cpu_max()),
        threadpool::Jobs::get(),
        env("CNTFET_JOBS"),
        env("CNTFET_NO_CACHE"),
        json_str(&git_commit()),
        json_str(env!("PERFBENCH_RUSTC")),
    )
}

/// `s` as a JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}
