//! Small shared helpers: a seeded generator, order statistics, and the
//! process counters read from `/proc/self`.

use hmmm_core::order::cmp_f64;
use std::time::Duration;

/// splitmix64 stream: the benchmark's only source of randomness, so one
/// seed fixes every draw.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A child stream, independent of this one's later draws.
    pub fn fork(&mut self, salt: u64) -> Rng {
        Rng::new(self.next_u64() ^ salt.wrapping_mul(0xA24B_AED4_963E_E407))
    }
}

/// Nearest-rank percentile (`q` in `[0, 1]`) of an unsorted sample; `0.0`
/// when empty.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| cmp_f64(*a, *b));
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| cmp_f64(*a, *b));
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

pub fn ns_to_ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// User + system CPU time of the whole process (every thread, live or
/// exited), from `/proc/self/stat`. The kernel reports it in clock ticks of
/// `USER_HZ`, which Linux fixes at 100 for user space.
pub fn process_cpu() -> Duration {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the full line, i.e. 12 and 13 after it.
    let rest = stat.rsplit_once(')').map(|(_, r)| r).unwrap_or("");
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| fields.get(i).and_then(|f| f.parse::<u64>().ok()).unwrap_or(0);
    Duration::from_millis((ticks(11) + ticks(12)) * 10)
}

/// Host-wide CPU time in clock ticks (`/proc/stat`): everything, and the
/// part stolen by other guests of the hypervisor.
#[derive(Debug, Clone, Copy, Default)]
pub struct HostCpu {
    pub total: u64,
    pub steal: u64,
}

impl HostCpu {
    pub fn steal_pct(self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.steal as f64 / self.total as f64 * 100.0
        }
    }
}

impl std::ops::Sub for HostCpu {
    type Output = HostCpu;
    fn sub(self, earlier: HostCpu) -> HostCpu {
        HostCpu {
            total: self.total.saturating_sub(earlier.total),
            steal: self.steal.saturating_sub(earlier.steal),
        }
    }
}

impl std::ops::AddAssign for HostCpu {
    fn add_assign(&mut self, other: HostCpu) {
        self.total += other.total;
        self.steal += other.steal;
    }
}

/// Reads the aggregate `cpu` line of `/proc/stat` (user, nice, system,
/// idle, iowait, irq, softirq, steal, …).
pub fn host_cpu() -> HostCpu {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let ticks: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or("")
        .split_whitespace()
        .skip(1)
        .take(8)
        .filter_map(|f| f.parse().ok())
        .collect();
    HostCpu {
        total: ticks.iter().sum(),
        steal: ticks.get(7).copied().unwrap_or(0),
    }
}

/// Process high-water resident set size (`VmHWM`), MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .unwrap_or(0.0)
}

/// FNV-1a over a byte slice: the fixture cache's content fingerprint.
pub fn fnv1a(data: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in data {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x1000_0000_01b3);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(median(&[3.0, 1.0, 2.0, 4.0]), 2.5);
    }

    #[test]
    fn rng_is_deterministic() {
        let a: Vec<u64> = (0..4).scan(Rng::new(9), |r, _| Some(r.next_u64())).collect();
        let b: Vec<u64> = (0..4).scan(Rng::new(9), |r, _| Some(r.next_u64())).collect();
        assert_eq!(a, b);
    }
}
