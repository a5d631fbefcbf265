//! Small measurement helpers: order statistics, the seeded input
//! generator, the host-speed canary and process CPU clocks.

use std::time::Instant;

/// Median of `xs` (mean of the two middle values for an even count); `NaN`
/// for an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// The highest percentile of `xs` that still has at least ten samples
/// above it, as `(percentile, value)`; `None` with fewer than eleven
/// samples. The value is the `(n - 10)`-th smallest sample, which is the
/// `100 * (n - 10) / n` percentile.
pub fn tail(xs: &[f64]) -> Option<(f64, f64)> {
    let n = xs.len();
    if n < 11 {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    Some((100.0 * (n - 10) as f64 / n as f64, v[n - 11]))
}

/// How many samples of a `total` spread evenly over a `seconds` window are
/// due after `elapsed` seconds, with `taken` done and at most `burst` more
/// back to back. A zero window makes all of them due, a burst at a time.
pub fn due(total: usize, burst: usize, taken: usize, elapsed: f64, seconds: f64) -> usize {
    let by_time = if seconds > 0.0 { (total as f64 * elapsed / seconds).ceil() as usize } else { total };
    by_time.min(total).min(taken + burst)
}

/// The workload-seed input generator (splitmix64). The benchmark derives
/// every generated input from it; the program under test never sees the
/// seed itself.
#[derive(Debug, Clone)]
pub struct SeedRng(u64);

impl SeedRng {
    /// A generator for `seed`, decorrelated per `stream` so different
    /// input kinds drawn from one seed do not share a sequence.
    pub fn new(seed: u64, stream: u64) -> Self {
        SeedRng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.unit() * n as f64) as usize % n.max(1)
    }
}

/// A fixed pure-Rust integer loop, timed in milliseconds. It touches no
/// code of the program under test, so a change in its time between runs is
/// a change in host speed, not in the program.
pub fn canary_ms() -> f64 {
    let start = Instant::now();
    let mut x = 0x1234_5678_9ABC_DEF0u64;
    let mut acc = 0u64;
    for i in 0..12_000_000u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        acc = acc.wrapping_add(x.rotate_left((i & 63) as u32));
    }
    std::hint::black_box(acc);
    start.elapsed().as_secs_f64() * 1e3
}

/// CPU seconds (user + system) from a `/proc/.../stat` file, whose clock
/// fields are in the fixed `USER_HZ` = 100 ticks per second of the Linux
/// ABI. `None` where the file is unavailable.
fn proc_cpu_s(path: &str) -> Option<f64> {
    let text = std::fs::read_to_string(path).ok()?;
    // the command name may contain spaces; fields resume after its ')'
    let rest = &text[text.rfind(')')? + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let utime: f64 = fields.get(11)?.parse().ok()?;
    let stime: f64 = fields.get(12)?.parse().ok()?;
    Some((utime + stime) / 100.0)
}

/// CPU seconds used by the whole process so far, exited threads included.
pub fn process_cpu_s() -> Option<f64> {
    proc_cpu_s("/proc/self/stat")
}

/// CPU seconds used by the calling thread so far.
pub fn thread_cpu_s() -> Option<f64> {
    proc_cpu_s("/proc/thread-self/stat")
}

/// Milliseconds since `t`.
pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_tail_follow_their_definitions() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(tail(&[1.0; 10]).is_none());
        let xs: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(tail(&xs), Some((50.0, 10.0)));
    }

    #[test]
    fn due_spreads_samples_over_the_window() {
        assert_eq!(due(60, 10, 0, 1.5, 15.0), 6);
        assert_eq!(due(60, 10, 0, 9.0, 15.0), 10, "bursts are capped");
        assert_eq!(due(60, 10, 55, 20.0, 15.0), 60, "never past the total");
        assert_eq!(due(60, 10, 20, 0.0, 0.0), 30, "a zero window takes a burst at a time");
    }

    #[test]
    fn seeded_inputs_repeat() {
        let a: Vec<u64> = (0..4)
            .map({
                let mut r = SeedRng::new(7, 1);
                move |_| r.next_u64()
            })
            .collect();
        let mut r = SeedRng::new(7, 1);
        assert!(a.iter().all(|&x| x == r.next_u64()));
        assert_ne!(SeedRng::new(7, 2).next_u64(), a[0]);
    }
}
