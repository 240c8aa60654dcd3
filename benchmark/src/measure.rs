//! End-to-end measurement: statement outcomes, the latency percentile
//! rule, and the machine-readable result line.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

use csq_common::CsqError;

/// What one statement did, as the client saw it.
#[derive(Debug)]
pub enum Outcome {
    /// Answered, and the answer matched the independent expectation.
    Ok,
    /// Answered with rows that differ from the expectation.
    Wrong(String),
    /// Refused by load shedding (a retryable `limit` error).
    Shed(CsqError),
    /// Any other error.
    Failed(CsqError),
}

impl Outcome {
    pub fn from_error(e: CsqError) -> Outcome {
        if matches!(e, CsqError::Limit(_)) {
            Outcome::Shed(e)
        } else {
            Outcome::Failed(e)
        }
    }

    /// `Ok` when `got == want`, else a wrong-answer outcome naming `what`.
    pub fn check<T: PartialEq + std::fmt::Debug>(what: &str, got: T, want: T) -> Outcome {
        if got == want {
            Outcome::Ok
        } else {
            Outcome::Wrong(format!("{what}: got {got:?}, want {want:?}"))
        }
    }
}

/// Per-client tally of a closed loop.
#[derive(Debug, Default)]
pub struct Tally {
    /// Latencies of answered statements, milliseconds.
    pub latencies_ms: Vec<f64>,
    /// When each answered statement completed.
    pub finished: Vec<Instant>,
    pub attempted: u64,
    pub wrong: u64,
    pub shed: u64,
    pub failed: u64,
    /// The first problem seen, for the report.
    pub first_problem: Option<String>,
}

impl Tally {
    pub fn record(&mut self, latency: Duration, outcome: Outcome) {
        self.attempted += 1;
        let problem = match outcome {
            Outcome::Ok => {
                self.latencies_ms.push(latency.as_secs_f64() * 1e3);
                self.finished.push(Instant::now());
                return;
            }
            Outcome::Wrong(msg) => {
                self.wrong += 1;
                format!("wrong answer: {msg}")
            }
            Outcome::Shed(e) => {
                self.shed += 1;
                format!("shed: {e}")
            }
            Outcome::Failed(e) => {
                self.failed += 1;
                format!("failed: {e}")
            }
        };
        self.first_problem.get_or_insert(problem);
    }

    pub fn merge(&mut self, other: Tally) {
        self.latencies_ms.extend(other.latencies_ms);
        self.finished.extend(other.finished);
        self.attempted += other.attempted;
        self.wrong += other.wrong;
        self.shed += other.shed;
        self.failed += other.failed;
        if self.first_problem.is_none() {
            self.first_problem = other.first_problem;
        }
    }

    /// Statements that failed, were shed, or answered wrongly. A shed
    /// statement counts as missing every latency limit, so it is an error.
    pub fn errors(&self) -> u64 {
        self.wrong + self.shed + self.failed
    }

    pub fn error_rate(&self) -> f64 {
        self.errors() as f64 / self.attempted.max(1) as f64
    }
}

/// 1-based nearest rank of percentile `permille` among `n` samples
/// (integer arithmetic, so p99 of 1000 samples is exactly rank 990).
fn rank(n: usize, permille: usize) -> usize {
    (permille * n).div_ceil(1000).clamp(1, n)
}

/// Nearest-rank percentile `permille` (990 is p99) of ascending `sorted`.
pub fn percentile(sorted: &[f64], permille: usize) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank(sorted.len(), permille) - 1]
}

/// Percentiles a tail is reported at, highest first, per mille.
const TAIL_LADDER: [usize; 6] = [999, 990, 950, 900, 750, 500];

/// The highest percentile of the ladder (per mille) that leaves at least
/// ten samples beyond it among `n`; a tail read off fewer samples is one
/// outlier.
pub fn tail_percentile(n: usize) -> Option<usize> {
    TAIL_LADDER
        .into_iter()
        .find(|&p| n > 0 && n - rank(n, p) >= 10)
}

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n > 0, "median of no values");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Peak resident set of this process (`VmHWM`), MiB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// One named metric of the result line.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// The result line: `correct`, `attempted`, `failed` and the metrics.
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        // JSON has no NaN or infinity; a metric that cannot be computed is
        // a broken run, reported as 0 next to `correct: false`.
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        let _ = write!(
            out,
            "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            m.name, m.unit
        );
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        assert_eq!(tail_percentile(10_000), Some(999));
        assert_eq!(tail_percentile(9_999), Some(990));
        assert_eq!(tail_percentile(1_000), Some(990));
        assert_eq!(tail_percentile(999), Some(950));
        assert_eq!(tail_percentile(200), Some(950));
        assert_eq!(tail_percentile(100), Some(900));
        assert_eq!(tail_percentile(20), Some(500));
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(0), None);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&v, 500), 500.0);
        assert_eq!(percentile(&v, 990), 990.0);
        // Exactly ten samples lie beyond the p99 of 1000.
        assert_eq!(v.iter().filter(|&&x| x > percentile(&v, 990)).count(), 10);
        assert_eq!(percentile(&v, 0), 1.0);
        assert_eq!(percentile(&v, 1000), 1000.0);
        assert_eq!(percentile(&[7.0], 990), 7.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn errors_and_sheds_count_against_attempted() {
        let mut a = Tally::default();
        a.record(Duration::from_millis(2), Outcome::Ok);
        a.record(
            Duration::ZERO,
            Outcome::from_error(CsqError::Limit("queue full".into())),
        );
        let mut b = Tally::default();
        b.record(Duration::from_millis(1), Outcome::check("rows", 3, 4));
        b.record(
            Duration::ZERO,
            Outcome::from_error(CsqError::Net("reset".into())),
        );
        b.record(Duration::from_millis(1), Outcome::check("rows", 4, 4));
        a.merge(b);
        assert_eq!(a.attempted, 5);
        assert_eq!((a.shed, a.wrong, a.failed), (1, 1, 1));
        assert_eq!(a.errors(), 3);
        assert!((a.error_rate() - 0.6).abs() < 1e-12);
        // Only answered-and-correct statements carry a latency sample.
        assert_eq!(a.latencies_ms, vec![2.0, 1.0]);
        assert!(a.first_problem.as_deref().unwrap().starts_with("shed"));
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let line = result_json(
            true,
            12,
            0,
            &[
                Metric {
                    name: "qps",
                    value: 1.5,
                    unit: "1/s",
                },
                Metric {
                    name: "p50_ms",
                    value: f64::NAN,
                    unit: "ms",
                },
            ],
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 12, \"failed\": 0, \"metrics\": {\"qps\": \
             {\"value\": 1.5, \"unit\": \"1/s\"}, \"p50_ms\": {\"value\": 0, \"unit\": \"ms\"}}}"
        );
    }
}
