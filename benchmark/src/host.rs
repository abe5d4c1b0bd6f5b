//! The host block every result carries, so a flat line can be told apart
//! from a small machine and two runs can prove they measured the same
//! inputs on comparable hosts.

use std::path::Path;

use crate::json::{num, obj, str, Json};

fn read(path: &str) -> Option<String> {
    std::fs::read_to_string(path).ok()
}

/// CPUs the kernel lists, whatever this process may use of them.
fn nproc() -> usize {
    read("/proc/cpuinfo")
        .map(|info| info.lines().filter(|l| l.starts_with("processor")).count())
        .unwrap_or(0)
}

/// The cgroup CPU quota in cores, if one is set (v2 `cpu.max`, else v1).
fn cgroup_cpu_quota() -> Option<f64> {
    if let Some(max) = read("/sys/fs/cgroup/cpu.max") {
        let mut fields = max.split_whitespace();
        let quota: f64 = fields.next()?.parse().ok()?;
        let period: f64 = fields.next()?.parse().ok()?;
        return Some(quota / period);
    }
    let quota: f64 = read("/sys/fs/cgroup/cpu/cpu.cfs_quota_us")?
        .trim()
        .parse()
        .ok()?;
    let period: f64 = read("/sys/fs/cgroup/cpu/cpu.cfs_period_us")?
        .trim()
        .parse()
        .ok()?;
    (quota > 0.0).then_some(quota / period)
}

/// The filesystem type `path` lives on: the longest mount point in
/// `/proc/self/mountinfo` that is a prefix of it.
fn filesystem_of(path: &Path) -> String {
    let path = path.canonicalize().unwrap_or_else(|_| path.to_path_buf());
    let mounts = read("/proc/self/mountinfo").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|line| {
            let (left, right) = line.split_once(" - ")?;
            let mount_point = left.split_whitespace().nth(4)?;
            let fs_type = right.split_whitespace().next()?;
            path.starts_with(mount_point)
                .then(|| (mount_point.len(), fs_type.to_string()))
        })
        .max()
        .map_or("unknown".into(), |(_, fs_type)| fs_type)
}

/// Peak resident set size (`VmHWM`) of this process so far, in MiB.
pub fn peak_rss_mib() -> f64 {
    read("/proc/self/status")
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

pub fn block(out_dir: &Path) -> Json {
    let parallelism = std::thread::available_parallelism().map_or(0, usize::from);
    obj([
        ("nproc", num(nproc() as f64)),
        ("available_parallelism", num(parallelism as f64)),
        (
            "cgroup_cpu_quota",
            cgroup_cpu_quota().map_or(Json::Null, num),
        ),
        ("out_dir_filesystem", str(filesystem_of(out_dir))),
        (
            "build_profile",
            str(if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }),
        ),
    ])
}
