//! Small shared pieces: scratch directories inside the output directory,
//! order statistics, and the machine facts echoed with every result.

use std::io::Write;
use std::path::{Path, PathBuf};
use std::time::Instant;

use crate::json::Json;

/// A scratch directory under the run's output directory, removed on drop.
/// The benchmark writes nowhere else.
pub struct Scratch(pub PathBuf);

impl Scratch {
    /// Creates `<out>/scratch/<pid>-<tag>`, replacing any leftover.
    pub fn new(out: &Path, tag: &str) -> Scratch {
        let p = out.join("scratch").join(format!("{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&p);
        std::fs::create_dir_all(&p).expect("creating a scratch directory under the output dir");
        Scratch(p)
    }

    /// A path inside the directory.
    pub fn join(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The `q`-quantile (nearest rank) of unsorted samples; 0 when empty.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((v.len() as f64) * q).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// The median of unsorted samples; 0 when empty.
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// First quartile, median and third quartile as Python's
/// `statistics.quantiles(values, n=4)` computes them (the exclusive
/// method), which is what the driver uses for spreads.
pub fn quartiles(samples: &[f64]) -> (f64, f64, f64) {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return (x, x, x);
    }
    let at = |k: usize| {
        let pos = (k * (n + 1)) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        v[j - 1] + frac * (v[j] - v[j - 1])
    };
    (at(1), at(2), at(3))
}

/// Microseconds elapsed since `t`.
pub fn us_since(t: Instant) -> f64 {
    t.elapsed().as_nanos() as f64 / 1000.0
}

/// Times `f` `n` times and returns the per-call durations in µs.
pub fn time_calls(n: usize, mut f: impl FnMut(usize)) -> Vec<f64> {
    (0..n)
        .map(|i| {
            let t = Instant::now();
            f(i);
            us_since(t)
        })
        .collect()
}

/// Peak resident set of this process in MB (`VmHWM`).
pub fn rss_peak_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// `fsync` latencies (µs) of 256-byte appends to a scratch file.
pub fn fsync_probe(dir: &Path, n: usize) -> Vec<f64> {
    let path = dir.join("fsync-probe");
    let mut f = std::fs::File::create(&path).expect("creating the fsync probe file");
    let out = time_calls(n, |_| {
        f.write_all(&[0x5a; 256]).expect("fsync probe write");
        f.sync_data().expect("fsync probe sync");
    });
    let _ = std::fs::remove_file(&path);
    out
}

fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// The filesystem type and device holding `dir`, from `/proc/mounts`
/// (longest mount-point prefix wins).
fn filesystem_of(dir: &Path) -> String {
    let dir = std::fs::canonicalize(dir).unwrap_or_else(|_| dir.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|l| {
            let mut it = l.split_whitespace();
            let (dev, mount, fstype) = (it.next()?, it.next()?, it.next()?);
            dir.starts_with(mount).then(|| (mount.len(), format!("{fstype} on {dev}")))
        })
        .max_by_key(|(len, _)| *len)
        .map_or_else(|| "unknown".to_string(), |(_, s)| s)
}

/// Machine facts echoed in every result: a number only means something
/// next to the cores, the medium and the toolchain it was measured on.
pub fn machine_facts(out: &Path) -> Json {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let fsync = fsync_probe(out, 200);
    let mut m = Json::obj();
    m.set("cores", cores)
        .set("filesystem", filesystem_of(out))
        .set("fsync_p50_us", median(&fsync))
        .set("fsync_p95_us", quantile(&fsync, 0.95))
        .set("rustc", command_line("rustc", &["--version"]))
        .set("git_commit", command_line("git", &["rev-parse", "HEAD"]))
        .set("os", command_line("uname", &["-sr"]));
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
    }

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(median(&v), 50.0);
        assert_eq!(quantile(&v, 0.95), 95.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }
}
