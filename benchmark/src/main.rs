//! The csq repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` it loads the workload through the served ingest path
//! (several times, reporting the median set-up time), drives it in a closed
//! loop for `--seconds`, checks every answer, and prints the end-to-end
//! metrics. With `--trace 1` it replays a fixed prefix of client 0's
//! statement stream twice on fresh loads, once untraced and once timing
//! each layer's public calls as spans, prints the per-layer metrics and
//! writes the spans to a file. The last line of standard output is always
//! one JSON object. See `benchmark/README.md`.

mod adhoc;
mod gen;
mod measure;
mod oltp;
mod served;
mod sharded;
mod trace;
mod udf;

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

use csq_common::{CsqError, Result};

use measure::{median, peak_rss_mb, percentile, result_json, tail_percentile, Metric, Tally};
use served::{closed_loop, replay, timed, Size, Workload};
use trace::Trace;

const WORKLOADS: [&str; 4] = [
    "oltp_prepared",
    "adhoc_writes",
    "udf_analytic",
    "sharded_scatter",
];

/// The seed used when none is given (README.md names the held-out seed).
const DEFAULT_SEED: u64 = 1;

/// Set-ups per untraced run: at least `MIN_SETUPS`, and more while they add
/// up to less than `SETUP_BUDGET_S`, so a cheap set-up is timed often
/// enough to be steady; `setup_s` is their median.
const MIN_SETUPS: usize = 5;
const MAX_SETUPS: usize = 60;
const SETUP_BUDGET_S: f64 = 2.0;

const USAGE: &str = "usage: csq-repobench --workload <oltp_prepared|adhoc_writes|udf_analytic|\
sharded_scatter> [--seed <n>] [--seconds <s>] [--trace <0|1>] [--spans <file>]";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    spans: Option<PathBuf>,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> std::result::Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        spans: None,
    };
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got '{value}'");
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => args.workload = value,
            "--workload" => return Err(bad("unknown workload")),
            "--seed" => args.seed = value.parse().map_err(|_| bad("not an integer"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad("not a number"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err(bad("must be in (0, 600]"));
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("must be 0 or 1")),
                }
            }
            "--spans" => args.spans = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(args)
}

fn setup(name: &str, seed: u64, size: Size) -> Result<Box<dyn Workload>> {
    Ok(match name {
        "oltp_prepared" => Box::new(oltp::Oltp::setup(seed, size)?),
        "adhoc_writes" => Box::new(adhoc::Adhoc::setup(seed, size)?),
        "udf_analytic" => Box::new(udf::Udf::setup(seed, size)?),
        "sharded_scatter" => Box::new(sharded::Sharded::setup(seed, size)?),
        other => return Err(CsqError::Config(format!("unknown workload {other}"))),
    })
}

/// What a run prints: human-readable lines, then the result line.
struct Report {
    lines: Vec<String>,
    tally: Tally,
    metrics: Vec<Metric>,
}

impl Report {
    fn correct(&self) -> bool {
        self.tally.attempted > 0 && self.tally.errors() == 0
    }
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let run = if args.trace { run_traced } else { run_untraced };
    match run(&args) {
        Ok(report) => {
            for line in &report.lines {
                println!("{line}");
            }
            for m in &report.metrics {
                println!("{:<36} {:>14.4} {}", m.name, m.value, m.unit);
            }
            if let Some(p) = &report.tally.first_problem {
                println!("first problem: {p}");
            }
            let t = &report.tally;
            println!(
                "{}",
                result_json(report.correct(), t.attempted, t.errors(), &report.metrics)
            );
            if !report.correct() {
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("benchmark failed: {e}");
            std::process::exit(1);
        }
    }
}

/// End-to-end metrics, tracing off.
fn run_untraced(args: &Args) -> Result<Report> {
    let (w, took) = timed(|| setup(&args.workload, args.seed, Size::Full));
    let mut w = w?;
    let mut setup_s = vec![took.as_secs_f64()];
    w.prepare_offline()?;
    let (tally, started, elapsed) = closed_loop(&*w, args.seconds)?;
    // Read before the link simulation and the repeated set-ups, so the peak
    // is one load plus the run.
    let peak_rss = peak_rss_mb().unwrap_or(f64::NAN);
    let sim_ms = w.sim_link_ms()?;
    let clients = w.clients();
    w.shutdown();
    while setup_s.len() < MIN_SETUPS
        || (setup_s.len() < MAX_SETUPS && setup_s.iter().sum::<f64>() < SETUP_BUDGET_S)
    {
        let (w, took) = timed(|| setup(&args.workload, args.seed, Size::Full));
        setup_s.push(took.as_secs_f64());
        w?.shutdown();
    }

    let mut lat = tally.latencies_ms.clone();
    lat.sort_by(f64::total_cmp);
    let n = lat.len();
    let pick = |permille| {
        if n == 0 {
            f64::NAN
        } else {
            percentile(&lat, permille)
        }
    };
    let tail = tail_percentile(n);
    let lines = vec![
        format!(
            "workload {} seed {}: {clients} closed-loop client(s), {:.2} s measured, \
             {n} statements answered",
            args.workload,
            args.seed,
            elapsed.as_secs_f64()
        ),
        format!(
            "error_rate {:.6} ({} wrong, {} shed, {} failed of {} attempted)",
            tally.error_rate(),
            tally.wrong,
            tally.shed,
            tally.failed,
            tally.attempted
        ),
        match tail {
            Some(p) => format!(
                "tail: p{} = {:.4} ms (the highest percentile with >= 10 of {n} samples beyond; \
                 p99 = {:.4} ms)",
                p as f64 / 10.0,
                pick(p),
                pick(990)
            ),
            None => format!("tail: fewer than 20 samples ({n})"),
        },
        format!(
            "sim_link_ms_per_stmt {sim_ms:.4} ms (Database::execute_simulated over the \
             workload's SELECT texts)"
        ),
        format!("setup_s runs: {setup_s:?}"),
        format!("per-second completions: {:?}", per_second(&tally, started)),
    ];
    let metrics = vec![
        Metric {
            name: "qps",
            value: n as f64 / elapsed.as_secs_f64(),
            unit: "1/s",
        },
        Metric {
            name: "p50_ms",
            value: pick(500),
            unit: "ms",
        },
        Metric {
            name: "setup_s",
            value: median(&setup_s),
            unit: "s",
        },
        Metric {
            name: "peak_rss_mb",
            value: peak_rss,
            unit: "MiB",
        },
    ];
    Ok(Report {
        lines,
        tally,
        metrics,
    })
}

/// Statements completed in each whole second of the loop.
fn per_second(tally: &Tally, started: std::time::Instant) -> Vec<usize> {
    let mut counts = Vec::new();
    for t in &tally.finished {
        let i = t.duration_since(started).as_secs() as usize;
        if counts.len() <= i {
            counts.resize(i + 1, 0);
        }
        counts[i] += 1;
    }
    counts
}

/// Per-layer metrics from a traced replay, with an untraced replay of the
/// same statements for the tracing overhead.
fn run_traced(args: &Args) -> Result<Report> {
    let mut w = setup(&args.workload, args.seed, Size::Full)?;
    w.prepare_offline()?;
    let n = w.replay_len();
    let (mut tally, untraced_us) = replay(&*w, n, None)?;
    let (queued, shed_per_stmt, concurrent) = queue_gauges(&*w, args.seconds / 2.0)?;
    tally.merge(concurrent);
    w.shutdown();

    let mut w = setup(&args.workload, args.seed, Size::Full)?;
    w.prepare_offline()?;
    // Build the simulation database before the replay is timed.
    w.sim_db()?;
    let mut trace = Trace::new();
    let (traced, traced_us) = replay(&*w, n, Some(&mut trace))?;
    tally.merge(traced);
    trace.root("finish", n as u64, |t| w.finish_trace(t))?;
    let sim_ms = w.sim_link_ms()?;
    w.shutdown();

    let path = args.spans.clone().unwrap_or_else(|| {
        PathBuf::from(format!(
            ".bench_out/spans-{}-seed{}.jsonl",
            args.workload, args.seed
        ))
    });
    trace
        .dump(&path)
        .map_err(|e| CsqError::Exec(format!("write spans to {}: {e}", path.display())))?;

    let mut lines = vec![format!(
        "workload {} seed {}: traced replay of {n} statements from one client; \
         {} spans written to {}",
        args.workload,
        args.seed,
        trace.spans().len(),
        path.display()
    )];
    lines.push(format!(
        "{:<20} {:>8} {:>14} {:>16}   counts measured at the same boundary",
        "layer span", "spans", "self ms total", "self us / stmt"
    ));
    let self_times = trace.self_times();
    for (name, (us, spans)) in &self_times {
        lines.push(format!(
            "{name:<20} {spans:>8} {:>14.3} {:>16.3}   {}",
            us / 1e3,
            us / n as f64,
            counts_beside(name, &trace, n)
        ));
    }
    lines.push(format!(
        "tracing overhead: traced replay {traced_us:.1} us/stmt - untraced replay \
         {untraced_us:.1} us/stmt = {:.1} us/stmt",
        traced_us - untraced_us
    ));
    let mut metrics = layer_metrics(&trace, n, queued, shed_per_stmt, traced_us - untraced_us);
    metrics.push(Metric {
        name: "ship.sim_link_ms_per_stmt",
        value: sim_ms,
        unit: "ms",
    });
    Ok(Report {
        lines,
        tally,
        metrics,
    })
}

/// The counts that explain a span's time, printed next to it.
fn counts_beside(span: &str, t: &Trace, n: usize) -> String {
    let per = |c: &str| t.counter(c) / n as f64;
    match span {
        "core.service" => format!(
            "{:.1} wire bytes, {:.2} frames / stmt",
            per("net.bytes"),
            per("net.frames")
        ),
        "storage.scan" => format!(
            "{:.2} segments, {:.1} tail rows scanned / stmt",
            per("storage.segments"),
            per("storage.tail_rows")
        ),
        "storage.insert" => format!("{} rows inserted", t.counter("storage.inserted_rows")),
        "ship.simulate" => format!(
            "{:.1} B down / {:.1} B up, {:.2} / {:.2} msgs per stmt",
            per("ship.down_bytes"),
            per("ship.up_bytes"),
            per("ship.down_msgs"),
            per("ship.up_msgs")
        ),
        "client.udf" => format!(
            "{:.4} UDF calls per input row",
            ratio(t.counter("udf.calls"), t.counter("udf.input_rows"))
        ),
        "core.coord.execute" => format!(
            "{:.2} shard stmts, {:.2} pruned / query",
            per("coord.shard_stmts"),
            per("coord.pruned")
        ),
        "opt.plan" => format!(
            "plan-cache hit ratio {:.3}",
            1.0 - ratio(
                t.counter("plancache.planned"),
                t.counter("plancache.selects")
            )
        ),
        _ => String::new(),
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Mean queued statements (sampled every millisecond) and shed statements
/// per attempted statement, under the workload's full client count.
fn queue_gauges(w: &dyn Workload, seconds: f64) -> Result<(f64, f64, Tally)> {
    let services = w.services();
    let gauges: Vec<_> = services
        .iter()
        .map(|s| s.scheduler_stats().clone())
        .collect();
    let shed_before: u64 = services
        .iter()
        .map(|s| s.stats().shed.load(Ordering::Relaxed))
        .sum();
    let stop = AtomicBool::new(false);
    let (samples, run) = std::thread::scope(|s| {
        let sampler = s.spawn(|| {
            let mut sum = 0usize;
            let mut count = 0usize;
            while !stop.load(Ordering::Relaxed) {
                sum += gauges
                    .iter()
                    .map(|g| g.queued_statements.load(Ordering::Relaxed))
                    .sum::<usize>();
                count += 1;
                std::thread::sleep(Duration::from_millis(1));
            }
            sum as f64 / count.max(1) as f64
        });
        let run = closed_loop(w, seconds);
        stop.store(true, Ordering::Relaxed);
        (sampler.join().expect("the queue sampler panicked"), run)
    });
    let (tally, _, _) = run?;
    let shed_after: u64 = services
        .iter()
        .map(|s| s.stats().shed.load(Ordering::Relaxed))
        .sum();
    let shed = ratio((shed_after - shed_before) as f64, tally.attempted as f64);
    Ok((samples, shed, tally))
}

fn layer_metrics(t: &Trace, n: usize, queued: f64, shed: f64, overhead_us: f64) -> Vec<Metric> {
    let selfs = t.self_times();
    let self_us = |name: &str| selfs.get(name).map_or(0.0, |v| v.0);
    let per_stmt = |name: &str| self_us(name) / n as f64;
    let count = |name: &str| t.counter(name) / n as f64;
    // What the served call costs beyond the server's own planning and
    // execution of the same statement.
    let service_overhead = if selfs.contains_key("core.service") {
        per_stmt("core.service")
            - [
                "exec.execute",
                "sql.parse",
                "opt.plan",
                "opt.stats",
                "opt.optimize",
            ]
            .iter()
            .map(|s| per_stmt(s))
            .sum::<f64>()
    } else {
        0.0
    };
    let m = |name, value, unit| Metric { name, value, unit };
    vec![
        m("sql.parse_us", per_stmt("sql.parse"), "us"),
        m(
            "core.plancache.hit_ratio",
            if t.counter("plancache.selects") > 0.0 {
                1.0 - ratio(
                    t.counter("plancache.planned"),
                    t.counter("plancache.selects"),
                )
            } else {
                0.0
            },
            "ratio",
        ),
        m(
            "core.plancache.stale_replans",
            count("plancache.stale_replans"),
            "1/stmt",
        ),
        m("opt.stats_us", per_stmt("opt.stats"), "us"),
        m("opt.optimize_us", per_stmt("opt.optimize"), "us"),
        m("exec.execute_us", per_stmt("exec.execute"), "us"),
        m("storage.scan_us", per_stmt("storage.scan"), "us"),
        m(
            "storage.segments_scanned",
            count("storage.segments"),
            "1/stmt",
        ),
        m(
            "storage.tail_rows_scanned",
            count("storage.tail_rows"),
            "rows/stmt",
        ),
        m(
            "storage.insert_us",
            1e3 * ratio(
                self_us("storage.insert"),
                t.counter("storage.inserted_rows"),
            ),
            "us/krow",
        ),
        m("ship.down_bytes", count("ship.down_bytes"), "B/stmt"),
        m("ship.up_bytes", count("ship.up_bytes"), "B/stmt"),
        m("ship.down_msgs", count("ship.down_msgs"), "1/stmt"),
        m("ship.up_msgs", count("ship.up_msgs"), "1/stmt"),
        m(
            "client.udf_calls_per_row",
            ratio(t.counter("udf.calls"), t.counter("udf.input_rows")),
            "ratio",
        ),
        m("client.udf_us", per_stmt("client.udf"), "us"),
        m("core.service.overhead_us", service_overhead, "us"),
        m("net.wire_bytes_per_stmt", count("net.bytes"), "B/stmt"),
        m("net.frames_per_stmt", count("net.frames"), "1/stmt"),
        m("core.service.queued", queued, "stmts"),
        m("core.service.shed", shed, "ratio"),
        m(
            "core.coord.execute_us",
            per_stmt("core.coord.execute"),
            "us",
        ),
        m(
            "core.coord.plan_cache_hit_ratio",
            ratio(t.counter("coord.cache_hits"), t.counter("coord.queries")),
            "ratio",
        ),
        m(
            "core.coord.shard_stmts_per_query",
            ratio(t.counter("coord.shard_stmts"), t.counter("coord.queries")),
            "1/query",
        ),
        m(
            "core.coord.shards_pruned_per_query",
            ratio(t.counter("coord.pruned"), t.counter("coord.queries")),
            "1/query",
        ),
        m("trace.overhead_us", overhead_us, "us"),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> std::result::Result<Args, String> {
        parse_args(list.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_the_command_line() {
        let a = args(&[
            "--workload",
            "udf_analytic",
            "--seed",
            "9",
            "--seconds",
            "10",
            "--trace",
            "1",
        ])
        .expect("valid arguments");
        assert_eq!(
            (a.workload.as_str(), a.seed, a.trace),
            ("udf_analytic", 9, true)
        );
        assert_eq!(a.seconds, 10.0);
        assert!(args(&["--seed", "1"]).is_err(), "workload is required");
        assert!(args(&["--workload", "nope"]).is_err());
        assert!(args(&["--workload", "oltp_prepared", "--trace", "2"]).is_err());
        assert!(args(&["--workload", "oltp_prepared", "--seconds", "0"]).is_err());
        assert!(args(&["--workload", "oltp_prepared", "--seed"]).is_err());
    }

    /// Count metrics of a traced tiny replay: these must repeat exactly
    /// for a seed.
    fn traced_counts(name: &str, seed: u64) -> Vec<(&'static str, f64)> {
        let mut w = setup(name, seed, Size::Tiny).expect("tiny set-up");
        w.prepare_offline().expect("offline preparation");
        let mut trace = Trace::new();
        let (tally, _) = replay(&*w, w.replay_len(), Some(&mut trace)).expect("traced replay");
        w.shutdown();
        assert_eq!(tally.errors(), 0, "{name}: {:?}", tally.first_problem);
        assert_eq!(tally.attempted as usize, tally.latencies_ms.len());
        assert!(trace.spans().iter().any(|s| s.name == "stmt"));
        layer_metrics(&trace, tally.attempted as usize, 0.0, 0.0, 0.0)
            .into_iter()
            .filter(|m| !m.unit.starts_with("us"))
            .map(|m| (m.name, m.value))
            .collect()
    }

    #[test]
    fn every_workload_runs_and_checks_its_answers_at_tiny_size() {
        for name in WORKLOADS {
            let mut w = setup(name, 3, Size::Tiny).expect("tiny set-up");
            w.prepare_offline().expect("offline preparation");
            let (tally, _, elapsed) = closed_loop(&*w, 0.2).expect("closed loop");
            assert!(w.sim_link_ms().expect("simulation") > 0.0, "{name}");
            w.shutdown();
            assert!(tally.attempted > 0, "{name}");
            assert_eq!(tally.errors(), 0, "{name}: {:?}", tally.first_problem);
            assert!(elapsed.as_secs_f64() >= 0.2);
        }
    }

    fn counts_repeat(name: &str) {
        let first = traced_counts(name, 3);
        assert_eq!(first, traced_counts(name, 3), "{name}: counts must repeat");
        let value = |k: &str| first.iter().find(|m| m.0 == k).map(|m| m.1);
        assert!(value("net.wire_bytes_per_stmt").unwrap() > 0.0, "{name}");
    }

    #[test]
    fn oltp_prepared_counts_repeat_for_a_seed() {
        counts_repeat("oltp_prepared");
    }

    #[test]
    fn adhoc_writes_counts_repeat_for_a_seed() {
        counts_repeat("adhoc_writes");
    }

    /// Fails in some processes: the optimizer breaks equal-cost ties in
    /// hash order, so `execute_simulated` may ship differently for the same
    /// statement (README.md, "Known finding").
    #[test]
    fn udf_analytic_counts_repeat_for_a_seed() {
        counts_repeat("udf_analytic");
    }

    #[test]
    fn sharded_scatter_counts_repeat_for_a_seed() {
        counts_repeat("sharded_scatter");
    }
}
