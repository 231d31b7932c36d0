//! Measurement plumbing shared by every workload: process resource
//! readings, order statistics, output digests, the machine fingerprint,
//! and the result line.

use std::fmt::Write as _;
use std::time::Instant;

/// Peak resident set size of this process so far, MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    status_kb("VmHWM:").map_or(0.0, |kb| kb as f64 / 1024.0)
}

fn status_kb(key: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(key))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Kernel clock ticks per second of `/proc/self/stat` CPU fields
/// (`USER_HZ`, fixed at 100 by the Linux ABI on every architecture the
/// toolchain targets).
const USER_HZ: f64 = 100.0;

/// CPU time this process (all threads, live and exited) has used,
/// seconds, from the kernel's own accounting in `/proc/self/stat`.
pub fn process_cpu_s() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the full line, i.e. 12 and 13 after it.
    let Some(rest) = stat.rfind(')').and_then(|i| stat.get(i + 1..)) else {
        return 0.0;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .unwrap_or(0)
    };
    (ticks(11) + ticks(12)) as f64 / USER_HZ
}

/// Wall and CPU time of one timed region.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub wall_s: f64,
    pub cpu_s: f64,
}

/// Run `f`, returning its result with the wall and process-CPU time it
/// took.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, Span) {
    let cpu0 = process_cpu_s();
    let t0 = Instant::now();
    let r = f();
    let wall_s = t0.elapsed().as_secs_f64();
    (
        r,
        Span {
            wall_s,
            cpu_s: process_cpu_s() - cpu0,
        },
    )
}

/// Median of `xs` (mean of the middle pair for even lengths; 0 when
/// empty).
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nearest-rank quantile of `xs` (0 when empty).
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    devtools::sketch::percentile_nearest_rank(&v, q)
}

/// FNV-1a accumulator for deterministic output digests.
pub struct Digest(u64);

impl Digest {
    pub fn new() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    pub fn bytes(&mut self, bytes: &[u8]) -> &mut Digest {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
        self
    }

    pub fn u64(&mut self, x: u64) -> &mut Digest {
        self.bytes(&x.to_le_bytes())
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Worker count for every workload: two, or fewer on a smaller machine.
pub fn jobs() -> usize {
    nproc().min(2)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Time of a fixed single-threaded integer loop, ms. Printed with every
/// result set so that a figure that moved because the machine is
/// faster or slower can be told apart from one that moved because the
/// code changed: compare the ratio of the two runs' figures with the
/// ratio of their calibration times.
pub fn calibration_ms() -> f64 {
    let t0 = Instant::now();
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut acc = 0u64;
    for _ in 0..50_000_000u32 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        acc = acc.wrapping_add(x);
    }
    std::hint::black_box(acc);
    t0.elapsed().as_secs_f64() * 1e3
}

/// Constructions timed before the runs, for `setup_s`.
pub const SETUP_SAMPLES: usize = 25;

/// Wall time of [`SETUP_SAMPLES`] constructions by `build`, seconds
/// each; every result is dropped before the next is built.
pub fn setup_samples<R>(build: impl Fn() -> R) -> Vec<f64> {
    (0..SETUP_SAMPLES).map(|_| timed(&build).1.wall_s).collect()
}

/// One timed repeat of a workload.
pub struct Rep {
    /// Set-up time of this repeat, seconds.
    pub setup_s: f64,
    /// The run itself, set-up excluded.
    pub run: Span,
    /// Work done: client-ticks or records.
    pub items: f64,
    /// Output digest; every repeat must match the first.
    pub digest: u64,
}

/// The repeats of one measured run.
pub struct Runs {
    pub setups: Vec<f64>,
    pub throughput: Vec<f64>,
    pub cpu: Vec<f64>,
    pub digest: u64,
}

/// Repeat `rep` until `seconds` have passed, and at least three times.
/// `setups` seeds the set-up samples.
pub fn repeat(
    seconds: f64,
    setups: Vec<f64>,
    checks: &mut Checks,
    mut rep: impl FnMut(&mut Checks) -> Rep,
) -> Runs {
    let mut runs = Runs {
        setups,
        throughput: Vec::new(),
        cpu: Vec::new(),
        digest: 0,
    };
    let start = Instant::now();
    while runs.throughput.len() < 3 || start.elapsed().as_secs_f64() < seconds {
        let r = rep(checks);
        if runs.throughput.is_empty() {
            runs.digest = r.digest;
        }
        let first = runs.digest;
        checks.check(r.digest == first, || {
            format!(
                "output digest {:016x} != first repeat's {first:016x}",
                r.digest
            )
        });
        runs.setups.push(r.setup_s);
        runs.throughput.push(r.items / r.run.wall_s);
        runs.cpu.push(r.run.cpu_s);
    }
    runs
}

impl Runs {
    /// The end-to-end metrics: medians over the repeats, peak RSS so
    /// far, and the workload's fidelity figure.
    pub fn metrics(&self, fidelity_p99_ms: f64) -> Metrics {
        let mut m = Metrics::default();
        m.put("throughput", median(&self.throughput), "items/s");
        m.put("setup_s", median(&self.setups), "s");
        m.put("cpu_s", median(&self.cpu), "s");
        m.put("peak_rss_mb", peak_rss_mb(), "MB");
        m.put("fidelity_p99_ms", fidelity_p99_ms, "ms");
        m
    }
}

/// Tally of output checks; feeds `attempted`, `failed` and `fail_share`.
#[derive(Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: Vec<String>,
}

impl Checks {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed.push(what());
        }
    }
}

/// One named metric of the result line.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// Metric list under construction.
#[derive(Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    pub fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.0.push(Metric { name, value, unit });
    }
}

/// Print the machine fingerprint: `nproc`, the worker count, and the
/// calibration loop's time.
pub fn fingerprint() {
    println!(
        "machine nproc={} jobs={} calibration_ms={:.3}",
        nproc(),
        jobs(),
        calibration_ms()
    );
}

/// Print the metrics and checks, then the result line (always last).
pub fn emit(metrics: &Metrics, checks: &Checks) {
    for m in &metrics.0 {
        println!("  {:<40} {:>16.6} {}", m.name, m.value, m.unit);
    }
    let failed = checks.failed.len() as u64;
    println!(
        "  {:<40} {:>16.6} share ({failed} of {} checks failed)",
        "fail_share",
        failed as f64 / checks.attempted.max(1) as f64,
        checks.attempted
    );
    for f in &checks.failed {
        println!("  FAILED: {f}");
    }
    let mut line = String::new();
    let _ = write!(
        line,
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{",
        failed == 0 && checks.attempted > 0,
        checks.attempted.max(1)
    );
    for (i, m) in metrics.0.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        // Non-finite values have no JSON form; report them as 0.
        let v = if m.value.is_finite() { m.value } else { 0.0 };
        let _ = write!(
            line,
            "{sep}\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
            m.name, m.unit
        );
    }
    line.push_str("}}");
    println!("{line}");
}
