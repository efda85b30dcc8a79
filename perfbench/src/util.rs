//! Shared plumbing: run context, metric map, check accounting, pins,
//! order statistics and a seeded PRNG.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Input sizes: `full` is what the benchmark measures, `toy` is the
/// self-test's seconds-long variant of every workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    Toy,
}

impl Scale {
    pub fn label(self) -> &'static str {
        match self {
            Scale::Full => "full",
            Scale::Toy => "toy",
        }
    }

    /// `full` or `toy` size, whichever this scale names.
    pub fn pick(self, full: usize, toy: usize) -> usize {
        match self {
            Scale::Full => full,
            Scale::Toy => toy,
        }
    }
}

/// Everything a workload needs from the command line.
pub struct Ctx {
    pub workload: String,
    pub seed: u64,
    pub window: Duration,
    pub trace: bool,
    pub scale: Scale,
    /// Directory the generated workload files are written to.
    pub work: PathBuf,
    pub pins: Vec<Pin>,
}

impl Ctx {
    /// A workload file path inside the work directory, unique to this
    /// run's workload and seed.
    pub fn file(&self, stem: &str) -> PathBuf {
        self.work
            .join(format!("{}-{}-{stem}.json", self.workload, self.seed))
    }

    /// The pinned value of `key` for this workload, scale and seed.
    pub fn pin(&self, key: &str) -> Option<u64> {
        self.pins
            .iter()
            .find(|p| {
                p.workload == self.workload
                    && p.scale == self.scale.label()
                    && p.seed == self.seed
                    && p.key == key
            })
            .map(|p| p.value)
    }
}

/// One pinned output value (`perfbench/pins.json`).
#[derive(Debug, Clone, serde::Deserialize)]
pub struct Pin {
    pub workload: String,
    pub scale: String,
    pub seed: u64,
    pub key: String,
    pub value: u64,
}

/// Reads a pins file.
pub fn load_pins(path: &Path) -> Result<Vec<Pin>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Metric values by name; units come from [`crate::spec`].
pub type Metrics = BTreeMap<&'static str, f64>;

/// Operations attempted and failed, plus the reason for every failure.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    pub notes: Vec<String>,
}

impl Checks {
    /// Counts one operation or output check; `ok == false` is a failure
    /// explained by `what` on standard error.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.notes.push(what());
        }
    }

    /// Checks `actual` against the pin for `key`, when one exists.
    pub fn pin(&mut self, ctx: &Ctx, key: &str, actual: u64) {
        if let Some(expected) = ctx.pin(key) {
            self.check(actual == expected, || {
                format!("pin {key}: expected {expected}, got {actual}")
            });
        }
    }
}

/// What one workload run produced.
pub struct Outcome {
    pub e2e: Metrics,
    pub layers: Metrics,
    pub checks: Checks,
}

/// Seconds as `f64`.
pub fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// Runs `f` once and returns its result with the wall time it took.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let started = Instant::now();
    let out = f();
    (out, started.elapsed())
}

/// The `q`-quantile of `values` by nearest rank (`q = 0.5` is the
/// median, `q = 0.99` of fewer than 100 samples is the maximum).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The median of `values` (upper median for an even count).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Runs `setup` `reps` times and returns the median wall time in
/// seconds together with the last repetition's result.
pub fn repeat_setup<T>(reps: usize, mut setup: impl FnMut() -> T) -> (f64, T) {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps.max(1) {
        let (out, took) = timed(&mut setup);
        times.push(secs(took));
        last = Some(out);
    }
    (median(&times), last.expect("at least one repetition"))
}

/// Runs `op` back to back until `window` has passed (at least once) and
/// returns each call's latency in seconds. `inspect` sees every result
/// outside the timed call, so output checks never count as latency.
pub fn closed_loop<T>(
    window: Duration,
    mut op: impl FnMut() -> T,
    mut inspect: impl FnMut(T),
) -> Vec<f64> {
    let started = Instant::now();
    let mut latencies = Vec::new();
    while latencies.is_empty() || started.elapsed() < window {
        let (out, took) = timed(&mut op);
        latencies.push(secs(took));
        inspect(out);
    }
    latencies
}

/// Builds an argv from string slices.
pub fn argv(parts: &[&str]) -> Vec<String> {
    parts.iter().map(|s| (*s).to_owned()).collect()
}

/// The integer after `marker` in `text` (e.g. `fanout=` or
/// `"delta_resumes": `), ignoring a trailing unit such as `cy`.
pub fn number_after(text: &str, marker: &str) -> Option<u64> {
    let rest = &text[text.find(marker)? + marker.len()..];
    let digits: String = rest
        .trim_start()
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().ok()
}

/// SplitMix64: a tiny seeded generator for the request mix.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n.max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_use_nearest_rank() {
        let v = [5.0, 1.0, 3.0, 2.0, 4.0];
        assert_eq!(median(&v), 3.0);
        assert_eq!(quantile(&v, 0.99), 5.0);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn numbers_are_read_after_markers() {
        assert_eq!(
            number_after("makespan: 8554634cy   x", "makespan:"),
            Some(8_554_634)
        );
        assert_eq!(
            number_after("fanout=7675   inline=1", "fanout="),
            Some(7675)
        );
        assert_eq!(
            number_after("\"delta_resumes\": 282,", "\"delta_resumes\":"),
            Some(282)
        );
        assert_eq!(number_after("nothing", "fanout="), None);
    }
}
