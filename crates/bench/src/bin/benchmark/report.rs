//! What one workload run produces and how it is printed: the human-readable
//! lines, the one-line JSON result the driver reads, and the host record
//! that makes a number reproducible (core count, CPU model, git revision,
//! build profile).

use crate::spec;
use std::collections::BTreeMap;
use std::path::PathBuf;

/// The result of running one workload once.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (requests, repetitions, decisions, checks).
    pub attempted: u64,
    /// Operations that failed: an `ERR` reply, a shed reply, a wrong answer
    /// or a failed oracle check.
    pub failed: u64,
    /// Descriptions of the first few failures, for the human reader.
    pub failures: Vec<String>,
    /// Measured metrics, by name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Free-form context lines: sample counts, frozen sizes, breakdowns.
    pub notes: Vec<String>,
}

/// At most this many failure descriptions are kept per run.
const MAX_FAILURE_NOTES: usize = 8;

impl Outcome {
    /// Counts one attempted operation; `check` says whether it succeeded.
    pub fn check(&mut self, ok: bool, describe: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(describe());
        }
    }

    /// Counts one failed operation (already counted as attempted).
    pub fn fail(&mut self, description: String) {
        self.failed += 1;
        if self.failures.len() < MAX_FAILURE_NOTES {
            self.failures.push(description);
        }
    }

    /// Adds the books of a client thread: operations it attempted, how many
    /// failed, and its descriptions of the first few failures.
    pub fn absorb(&mut self, attempted: u64, failed: u64, failures: Vec<String>) {
        self.attempted += attempted;
        self.failed += failed;
        let room = MAX_FAILURE_NOTES.saturating_sub(self.failures.len());
        self.failures.extend(failures.into_iter().take(room));
    }

    /// Records a metric value.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Adds a context line.
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// `true` iff every operation and every oracle check succeeded.
    pub fn correct(&self) -> bool {
        self.failed == 0
    }
}

/// Formats a value with all the digits it was measured with: `Display` for
/// `f64` prints the shortest plain decimal that reads back as the same value.
fn number(value: f64) -> String {
    assert!(value.is_finite(), "metric values are finite numbers");
    format!("{value}")
}

/// Renders the one-line JSON result for the given metric set (the driver's
/// contract: exactly the keys `correct`, `attempted`, `failed`, `metrics`).
pub fn render_result(outcome: &Outcome, metrics: &[(&'static str, &'static str)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, unit)| {
            let value = outcome.metrics.get(name).copied().unwrap_or(0.0);
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                number(value)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.correct(),
        outcome.attempted.max(1),
        outcome.failed,
        body.join(", ")
    )
}

/// A result line read back from a child process.
#[derive(Debug, PartialEq)]
pub struct ParsedResult {
    /// The child's `correct` flag.
    pub correct: bool,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
    /// Metric values by name.
    pub metrics: BTreeMap<String, f64>,
}

/// Parses a line produced by [`render_result`]. This is not a JSON parser:
/// it reads back exactly the shape this program writes.
pub fn parse_result(line: &str) -> Option<ParsedResult> {
    let field = |key: &str| -> Option<&str> {
        let at = line.find(&format!("\"{key}\": "))? + key.len() + 4;
        let rest = &line[at..];
        Some(rest[..rest.find([',', '}'])?].trim())
    };
    let correct = field("correct")?.parse().ok()?;
    let attempted = field("attempted")?.parse().ok()?;
    let failed = field("failed")?.parse().ok()?;
    let mut metrics = BTreeMap::new();
    let mut rest = &line[line.find("\"metrics\": {")? + "\"metrics\": {".len()..];
    while let Some(open) = rest.find('"') {
        let after = &rest[open + 1..];
        let name = &after[..after.find('"')?];
        let value_at = after.find("{\"value\": ")? + "{\"value\": ".len();
        let value_text = &after[value_at..];
        let value = value_text[..value_text.find(',')?].parse().ok()?;
        metrics.insert(name.to_string(), value);
        rest = &value_text[value_text.find('}')? + 1..];
    }
    Some(ParsedResult {
        correct,
        attempted,
        failed,
        metrics,
    })
}

/// Prints a run's metrics and context for the human reader, before the
/// JSON line.
pub fn print_outcome(workload: &str, outcome: &Outcome, metrics: &[(&'static str, &'static str)]) {
    for line in &outcome.notes {
        println!("  {line}");
    }
    let mut bypassed = 0;
    for (name, unit) in metrics {
        match outcome.metrics.get(name) {
            Some(value) => {
                // Counts are read from a layer's own statistics and must
                // repeat exactly for a given seed.
                let kind = spec::per_layer(name).map_or(String::new(), |metric| {
                    let count = if metric.count { "count, " } else { "" };
                    format!("  ({count}{} is better)", metric.better.as_str())
                });
                println!("  {workload:<15} {name:<38} {value:>16.4} {unit}{kind}");
            }
            None => bypassed += 1,
        }
    }
    if bypassed > 0 {
        println!("  {workload:<15} {bypassed} metrics of layers this workload never calls read 0");
    }
    println!(
        "  {workload:<15} operations attempted {} failed {}",
        outcome.attempted, outcome.failed
    );
    for failure in &outcome.failures {
        println!("  FAILED: {failure}");
    }
}

/// Peak resident set size of this process so far (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The directory the benchmark may write in: `<target dir>/benchmark`, next
/// to the directory the running executable was built into. Span files and
/// the durable workload's per-run directories live here, so a run touches
/// nothing outside its checkout's (git-ignored) build directory.
pub fn scratch_root() -> PathBuf {
    std::env::current_exe()
        .ok()
        .and_then(|exe| {
            // Cargo puts executables in `<target dir>/<profile>/`.
            let profile_dir = exe.parent()?;
            let in_cargo_layout = profile_dir
                .file_name()
                .is_some_and(|name| name == "release" || name == "debug" || name == "deps");
            in_cargo_layout.then(|| profile_dir.parent().map(|t| t.join("benchmark")))?
        })
        .unwrap_or_else(|| PathBuf::from("target/benchmark"))
}

/// A per-run directory under [`scratch_root`], removed when dropped — on
/// success and on failure (including a panic unwinding through the owner).
pub struct RunDir {
    path: PathBuf,
}

impl RunDir {
    /// Creates `<scratch root>/<label>-<pid>-<n>`, empty.
    pub fn create(label: &str) -> std::io::Result<RunDir> {
        use std::sync::atomic::{AtomicU64, Ordering};
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let path = scratch_root().join(format!(
            "{label}-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path)?;
        Ok(RunDir { path })
    }

    /// The directory.
    pub fn path(&self) -> &std::path::Path {
        &self.path
    }
}

impl Drop for RunDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

/// One line describing where and what was measured.
pub fn host_line(seed: u64, seconds: u64) -> String {
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find_map(|line| line.strip_prefix("model name"))
                .map(|rest| rest.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let revision = std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    format!(
        "seed={seed} seconds={seconds} (frozen size: {}) nproc={cores} cpu=\"{cpu}\" \
         git={revision} profile={profile}",
        spec::RUN_SECONDS
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_lines_round_trip() {
        let mut outcome = Outcome::default();
        outcome.check(true, String::new);
        outcome.check(true, String::new);
        outcome.set("wall_s", 1.2034);
        outcome.set("setup_s", 0.000_000_812_7);
        let metrics = [("wall_s", "s"), ("setup_s", "s"), ("absent", "count")];
        let line = render_result(&outcome, &metrics);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 2, \"failed\": 0, \"metrics\": {\
             \"wall_s\": {\"value\": 1.2034, \"unit\": \"s\"}, \
             \"setup_s\": {\"value\": 0.0000008127, \"unit\": \"s\"}, \
             \"absent\": {\"value\": 0, \"unit\": \"count\"}}}"
        );
        let parsed = parse_result(&line).expect("own output parses");
        assert!(parsed.correct);
        assert_eq!((parsed.attempted, parsed.failed), (2, 0));
        assert_eq!(parsed.metrics["wall_s"], 1.2034);
        assert_eq!(parsed.metrics["absent"], 0.0);
        assert_eq!(parsed.metrics.len(), 3);
    }

    #[test]
    fn failed_checks_make_the_run_incorrect() {
        let mut outcome = Outcome::default();
        outcome.check(true, String::new);
        outcome.check(false, || "wrong answer".into());
        assert!(!outcome.correct());
        assert_eq!((outcome.attempted, outcome.failed), (2, 1));
        assert_eq!(outcome.failures, ["wrong answer"]);
        let line = render_result(&outcome, &[]);
        assert!(line.starts_with("{\"correct\": false, \"attempted\": 2, \"failed\": 1,"));
        assert_eq!(parse_result(&line).unwrap().failed, 1);
        assert_eq!(parse_result("not a result"), None);
    }

    #[test]
    fn run_directories_are_removed_on_drop() {
        let dir = RunDir::create("unit-test").expect("create run dir");
        let path = dir.path().to_path_buf();
        std::fs::write(path.join("file"), b"x").unwrap();
        assert!(path.is_dir());
        drop(dir);
        assert!(!path.exists());
    }

    #[test]
    fn peak_rss_is_read_from_proc() {
        assert!(peak_rss_mb() > 0.0);
    }
}
