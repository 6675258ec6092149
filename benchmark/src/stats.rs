//! Small measurement helpers: order statistics, the output digest, and
//! the host facts every result is stamped with.

use std::time::{Duration, Instant};

/// The `q`-quantile (type 7, as `numpy` and `sim_common` compute it) of
/// unsorted samples; 0 for an empty slice.
#[must_use]
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    sim_common::quantile_sorted(&sorted, q)
}

/// The median of unsorted samples.
#[must_use]
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// Median wall time of `reps` calls of `f`, in seconds, after one
/// untimed call that pays first-touch costs.
pub fn median_secs(reps: usize, mut f: impl FnMut()) -> f64 {
    f();
    let times: Vec<f64> = (0..reps)
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed().as_secs_f64()
        })
        .collect();
    median(&times)
}

/// Nanoseconds per item of a timed loop.
#[must_use]
pub fn ns_per(elapsed: Duration, items: u64) -> f64 {
    elapsed.as_nanos() as f64 / items.max(1) as f64
}

/// FNV-1a64 over a stream of typed fields — the correctness digest of a
/// workload's outputs. Floats enter by their bit patterns, so any change
/// to a simulated or scored value changes the digest.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Folds raw bytes into the digest.
    pub fn bytes(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self
    }

    /// Folds an integer.
    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.bytes(&v.to_le_bytes())
    }

    /// Folds a float by its bit pattern.
    pub fn f64(&mut self, v: f64) -> &mut Self {
        self.u64(v.to_bits())
    }

    /// Folds a string, length-prefixed so field boundaries stay
    /// unambiguous.
    pub fn str(&mut self, s: &str) -> &mut Self {
        self.u64(s.len() as u64).bytes(s.as_bytes())
    }

    /// The digest value.
    #[must_use]
    pub fn value(&self) -> u64 {
        self.0
    }
}

/// Peak resident set size of this process (`VmHWM`), in MB.
#[must_use]
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Logical CPUs available to this process.
#[must_use]
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// The CPU model string from `/proc/cpuinfo`.
#[must_use]
pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

/// The commit of the enclosing git checkout, read from `.git` without
/// running git; `unknown` outside a repository.
#[must_use]
pub fn git_commit() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok();
    let Some(head) = read(".git/HEAD") else {
        return "unknown".to_owned();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_owned();
    };
    if let Some(commit) = read(&format!(".git/{reference}")) {
        return commit.trim().to_owned();
    }
    read(".git/packed-refs")
        .and_then(|packed| {
            packed.lines().find_map(|l| {
                let (commit, name) = l.split_once(' ')?;
                (name == reference).then(|| commit.to_owned())
            })
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

/// `rustc -V` of the toolchain on `PATH`.
#[must_use]
pub fn rustc_version() -> String {
    std::process::Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_owned(), |v| v.trim().to_owned())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_like_type_7() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&xs), 2.5);
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 4.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn digest_separates_fields_and_matches_fnv() {
        let mut a = Digest::default();
        a.bytes(b"ramp");
        assert_eq!(a.value(), drm::fnv1a64(b"ramp"));
        let mut ab = Digest::default();
        ab.str("ab").str("c");
        let mut a_bc = Digest::default();
        a_bc.str("a").str("bc");
        assert_ne!(ab.value(), a_bc.value());
    }
}
