//! Host fingerprint recorded in every result, and process memory readings.

use crate::report::Value;
use std::path::Path;

/// What a result needs to be compared against another host's.
#[derive(Debug, Clone)]
pub struct Host {
    /// Hardware threads available to the process.
    pub nproc: usize,
    pub cpu_model: String,
    /// Size of the highest-level cache in bytes (`None` when unreadable).
    pub llc_bytes: Option<u64>,
    pub rustc: String,
    pub git_commit: String,
}

impl Host {
    /// Probes the host. `repo_root` is searched for `.git` to name the
    /// commit; outside a git checkout the commit reads `unknown`.
    pub fn probe(repo_root: &Path) -> Host {
        Host {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu_model: cpu_model().unwrap_or_else(|| "unknown".into()),
            llc_bytes: llc_bytes(),
            rustc: env!("SPMVBENCH_RUSTC_VERSION").into(),
            git_commit: git_commit(repo_root).unwrap_or_else(|| "unknown".into()),
        }
    }

    pub fn to_value(&self) -> Value {
        Value::Obj(vec![
            ("nproc".into(), Value::Num(self.nproc as f64)),
            ("cpu_model".into(), Value::str(&self.cpu_model)),
            (
                "llc_bytes".into(),
                self.llc_bytes.map_or(Value::Null, |b| Value::Num(b as f64)),
            ),
            ("rustc".into(), Value::str(&self.rustc)),
            ("git_commit".into(), Value::str(&self.git_commit)),
        ])
    }
}

fn cpu_model() -> Option<String> {
    let info = std::fs::read_to_string("/proc/cpuinfo").ok()?;
    info.lines()
        .find(|l| l.starts_with("model name"))
        .and_then(|l| l.split_once(':'))
        .map(|(_, v)| v.trim().to_string())
}

/// The size of the highest cache level CPU 0 reports through sysfs.
pub fn llc_bytes() -> Option<u64> {
    let dir = Path::new("/sys/devices/system/cpu/cpu0/cache");
    let mut best: Option<(u32, u64)> = None;
    for entry in std::fs::read_dir(dir).ok()?.flatten() {
        let p = entry.path();
        let read = |f: &str| std::fs::read_to_string(p.join(f)).ok();
        let (Some(level), Some(size)) = (read("level"), read("size")) else {
            continue;
        };
        let Ok(level) = level.trim().parse::<u32>() else {
            continue;
        };
        let Some(bytes) = parse_size(size.trim()) else {
            continue;
        };
        if best.is_none_or(|(l, _)| level > l) {
            best = Some((level, bytes));
        }
    }
    best.map(|(_, b)| b)
}

/// Parses a sysfs cache size such as `307200K` or `4M`.
pub fn parse_size(s: &str) -> Option<u64> {
    let (digits, mult) = match s.as_bytes().last()? {
        b'K' => (&s[..s.len() - 1], 1 << 10),
        b'M' => (&s[..s.len() - 1], 1 << 20),
        b'G' => (&s[..s.len() - 1], 1 << 30),
        _ => (s, 1),
    };
    digits.parse::<u64>().ok().map(|d| d * mult)
}

/// Reads the checked-out commit from `.git` without running git.
fn git_commit(root: &Path) -> Option<String> {
    let git = root.join(".git");
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(id) = std::fs::read_to_string(git.join(reference)) {
        return Some(id.trim().to_string());
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    packed
        .lines()
        .find(|l| l.ends_with(reference))
        .and_then(|l| l.split_whitespace().next())
        .map(str::to_string)
}

/// Seconds of CPU time the hypervisor gave to other guests, summed over
/// all CPUs since boot (`steal` in `/proc/stat`, in 1/100 s ticks).
pub fn steal_s() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let cpu = stat.lines().find(|l| l.starts_with("cpu "))?;
    let ticks: u64 = cpu.split_whitespace().nth(8)?.parse().ok()?;
    Some(ticks as f64 / 100.0)
}

/// Resident set size of this process in bytes (`VmRSS`).
pub fn rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find(|l| l.starts_with("VmRSS:"))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|kb| kb.parse::<u64>().ok())
        .map(|kb| kb * 1024)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cache_sizes_parse() {
        assert_eq!(parse_size("307200K"), Some(300 << 20));
        assert_eq!(parse_size("4M"), Some(4 << 20));
        assert_eq!(parse_size("512"), Some(512));
        assert_eq!(parse_size("x"), None);
    }

    #[test]
    fn rss_is_readable_and_positive() {
        assert!(rss_bytes().is_some_and(|b| b > 0));
    }
}
