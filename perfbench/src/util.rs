//! Small helpers shared by every workload: the seeded generator, sample
//! statistics, the result report, peak memory, and the code-size ledger.

use std::fmt::Write as _;
use std::path::Path;
use std::time::Duration;

/// Seeded splitmix64: the benchmark's only source of randomness, so one
/// seed always produces the same inputs.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5eed_ba5e_f00d_1eaf)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

/// Linear-interpolated quantile `q` in `0..=1` of `v` (0 when empty).
pub fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

pub fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

pub fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// One reported metric.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
    samples: usize,
}

/// A run's result: named metrics with units and sample counts, the
/// attempted/failed tally, and the verdict of every output check.
#[derive(Default)]
pub struct Report {
    metrics: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    problems: Vec<String>,
}

impl Report {
    /// Record a metric measured over `samples` samples.
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str, samples: usize) {
        let value = if value.is_finite() { value } else { 0.0 };
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
            samples,
        });
    }

    /// Record a failed check; the run ends incorrect and exits nonzero.
    pub fn problem(&mut self, what: impl Into<String>) {
        let what = what.into();
        eprintln!("perfbench: check failed: {what}");
        self.problems.push(what);
    }

    pub fn correct(&self) -> bool {
        self.problems.is_empty() && self.failed == 0
    }

    /// Print the human-readable table, then the one-line JSON result as
    /// the last line of standard output.
    pub fn emit(&self) {
        for m in &self.metrics {
            println!(
                "metric {:<28} {:>16.6} {:<6} samples={}",
                m.name, m.value, m.unit, m.samples
            );
        }
        let rate = if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        };
        println!(
            "error_rate {rate} ({} failed of {} attempted)",
            self.failed, self.attempted
        );
        let mut json = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted.max(1),
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                json,
                "{sep}\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            );
        }
        json.push_str("}}");
        println!("{json}");
    }
}

/// A numeric field of `/proc/self/status` (its unit dropped).
fn status_field(name: &str) -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let v = status
        .lines()
        .find_map(|l| l.strip_prefix(name)?.strip_prefix(':'))?;
    v.trim().trim_end_matches("kB").trim().parse().ok()
}

/// Peak resident set size of this process so far, in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    status_field("VmHWM").map_or(0.0, |kb| kb / 1024.0)
}

/// Threads of this process now (0 when unknown).
pub fn threads() -> usize {
    status_field("Threads").map_or(0, |n| n as usize)
}

/// Wait (at most a second) until this process is down to `n` threads.
/// `MeasureRequest::run` returns once its worker thread's work is done,
/// which can be before that thread has exited and handed its malloc
/// arena back; the worker of a request started in that window gets
/// another arena, and whether that happened moved `peak_rss_mb` on
/// `cells-sampled` between ~246 and ~328 MiB from run to run.
pub fn await_threads(n: usize) {
    let give_up = std::time::Instant::now() + Duration::from_secs(1);
    while threads() > n && std::time::Instant::now() < give_up {
        std::thread::sleep(Duration::from_micros(100));
    }
}

/// FNV-1a hash of the sources the benchmark builds: the root manifests,
/// every file under `crates/`, `src/` and `perfbench/src/`, and
/// `perfbench/Cargo.toml`, by path and content in path order. Two
/// checkouts with the same hash run the same program.
pub fn source_hash(root: &Path) -> u64 {
    let mut files: Vec<std::path::PathBuf> = ["Cargo.toml", "Cargo.lock", "perfbench/Cargo.toml"]
        .iter()
        .map(|f| root.join(f))
        .collect();
    for dir in ["crates", "src", "perfbench/src"] {
        collect_files(&root.join(dir), &mut files);
    }
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    };
    for f in &files {
        eat(f
            .strip_prefix(root)
            .unwrap_or(f)
            .to_string_lossy()
            .as_bytes());
        eat(&std::fs::read(f).unwrap_or_default());
    }
    h
}

/// Every regular file under `dir`, skipping hidden and `target` directories.
fn collect_files(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for e in entries.flatten() {
        let p = e.path();
        let name = e.file_name();
        let name = name.to_string_lossy();
        if p.is_dir() {
            if !name.starts_with('.') && name != "target" {
                collect_files(&p, out);
            }
        } else if p.is_file() {
            out.push(p);
        }
    }
}

/// Crates whose size the code-size ledger tracks (`loc.<name>`), plus
/// `root` for the root package's `src/`.
pub const LOC_CRATES: [&str; 15] = [
    "bench",
    "cluster",
    "core",
    "driver",
    "fuzz",
    "ir",
    "lang",
    "mach",
    "opt",
    "sched",
    "serve",
    "sim",
    "trace",
    "workloads",
    "root",
];

/// Non-test Rust lines under `dir`: every `.rs` file, skipping blank
/// lines, `//` comment lines and each `#[cfg(test)]` item.
pub fn rust_loc(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    let mut total = 0;
    for e in entries.flatten() {
        let p = e.path();
        if p.is_dir() {
            total += rust_loc(&p);
        } else if p.extension().is_some_and(|x| x == "rs") {
            total += std::fs::read_to_string(&p).map_or(0, |s| loc_of(&s));
        }
    }
    total
}

fn loc_of(src: &str) -> u64 {
    let mut n = 0;
    let mut skipping = false;
    let mut depth = 0i64;
    let mut opened = false;
    for line in src.lines() {
        let t = line.trim();
        if skipping {
            depth += t.matches('{').count() as i64 - t.matches('}').count() as i64;
            opened |= t.contains('{');
            if (opened && depth <= 0) || (!opened && t.ends_with(';')) {
                skipping = false;
            }
            continue;
        }
        if t.starts_with("#[cfg(test)]") {
            (skipping, depth, opened) = (true, 0, false);
            continue;
        }
        if !t.is_empty() && !t.starts_with("//") {
            n += 1;
        }
    }
    n
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn loc_skips_tests_comments_and_blanks() {
        let src =
            "// c\nfn a() {}\n\n#[cfg(test)]\nmod tests {\n    fn t() {\n    }\n}\nfn b() {}\n";
        assert_eq!(loc_of(src), 2);
    }

    #[test]
    fn rng_is_seeded() {
        let (mut a, mut b) = (Rng::new(7), Rng::new(7));
        assert_eq!(a.next_u64(), b.next_u64());
        assert_ne!(Rng::new(8).next_u64(), Rng::new(7).next_u64());
    }
}
