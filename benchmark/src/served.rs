//! What every workload shares: the workload interface, the in-process
//! services on loopback TCP, the closed loop, and the traced server path.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use csq_client::ServiceConn;
use csq_common::{CsqError, Result, Row, Value};
use csq_core::{service, Database, ServiceConfig, ServiceHandle};
use csq_opt::{OptContext, UdfMeta};
use csq_storage::{CmpOp, ColPred, FilterSpec, ScanSource, Table};

use crate::measure::{Outcome, Tally};
use crate::trace::Trace;

/// Data sizes: `Full` is what the benchmark measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Full,
    /// The smoke tests' sizes.
    #[cfg_attr(not(test), allow(dead_code))]
    Tiny,
}

impl Size {
    pub fn pick(self, full: usize, tiny: usize) -> usize {
        match self {
            Size::Full => full,
            Size::Tiny => tiny,
        }
    }
}

/// One closed-loop client: it sends the next statement of its seeded
/// stream only after the previous answer arrived.
pub trait Client: Send {
    /// Send the next statement, wait for the whole answer and check it.
    /// Returns the latency from send to last row decoded. With a trace, the
    /// client also replays the server's path through each layer in-process
    /// and records spans and counts.
    fn step(&mut self, trace: Option<&mut Trace>) -> (Duration, Outcome);
}

/// A loaded, running workload.
pub trait Workload: Sync {
    /// Closed-loop client connections.
    fn clients(&self) -> usize;
    /// Connect client `idx` (its stream is seeded by the run seed and `idx`).
    fn client(&self, idx: usize) -> Result<Box<dyn Client + '_>>;
    /// Statements in the traced replay: fixed, so counts repeat exactly.
    fn replay_len(&self) -> usize;
    /// The workload's SELECT texts.
    fn select_texts(&self) -> Vec<String>;
    /// The single-node database the paper's link simulation runs on.
    fn sim_db(&self) -> Result<&Database>;
    /// Mean `Database::execute_simulated` completion time over the
    /// workload's SELECT texts, milliseconds (the paper's measure).
    fn sim_link_ms(&self) -> Result<f64> {
        let db = self.sim_db()?;
        let texts = self.select_texts();
        let mut total_us = 0;
        for sql in &texts {
            total_us += db.execute_simulated(sql)?.1.elapsed_us;
        }
        Ok(total_us as f64 / 1e3 / texts.len() as f64)
    }
    /// The query services the load lands on.
    fn services(&self) -> Vec<&ServiceHandle>;
    /// Work done once per traced run after the replay (e.g. timing the
    /// storage insert path on the workload's ingest batches).
    fn finish_trace(&self, _trace: &mut Trace) -> Result<()> {
        Ok(())
    }
    /// Work the benchmark needs before the loop that is not part of the
    /// system's set-up, such as answers to check against; not in `setup_s`.
    fn prepare_offline(&mut self) -> Result<()> {
        Ok(())
    }
    fn shutdown(self: Box<Self>);
}

/// Start a query service over `db` on an ephemeral loopback port, with
/// one statement worker per hardware thread.
pub fn start_service(db: Arc<Database>) -> Result<ServiceHandle> {
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    service::start(
        db,
        ServiceConfig {
            workers,
            ..ServiceConfig::default()
        },
    )
}

/// Close a set-up connection and wait until the service has read its
/// `Close` frame, so the frame cannot land inside a later measurement.
pub fn close_settled(conn: ServiceConn, service: &ServiceHandle) {
    let seen = service.net_stats().up_messages();
    conn.close();
    let deadline = Instant::now() + Duration::from_secs(5);
    while service.net_stats().up_messages() == seen && Instant::now() < deadline {
        std::thread::sleep(Duration::from_micros(100));
    }
}

/// Send SQL statements (DDL and `INSERT` batches) over the service.
pub fn run_sql(conn: &mut ServiceConn, statements: &[String]) -> Result<u64> {
    let mut affected = 0;
    for sql in statements {
        affected += conn.query(sql)?.affected;
    }
    Ok(affected)
}

/// Run every client of `w` in a closed loop for `seconds`; returns the
/// merged tally, when the loop started and its wall time.
pub fn closed_loop(w: &dyn Workload, seconds: f64) -> Result<(Tally, Instant, Duration)> {
    let clients = (0..w.clients())
        .map(|i| w.client(i))
        .collect::<Result<Vec<_>>>()?;
    let barrier = Barrier::new(clients.len() + 1);
    let stop = AtomicBool::new(false);
    let (tally, started, elapsed) = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .into_iter()
            .map(|mut c| {
                let (barrier, stop) = (&barrier, &stop);
                s.spawn(move || {
                    let mut tally = Tally::default();
                    barrier.wait();
                    while !stop.load(Ordering::Relaxed) {
                        let (latency, outcome) = c.step(None);
                        tally.record(latency, outcome);
                    }
                    tally
                })
            })
            .collect();
        barrier.wait();
        let started = Instant::now();
        std::thread::sleep(Duration::from_secs_f64(seconds));
        stop.store(true, Ordering::Relaxed);
        let mut tally = Tally::default();
        for h in handles {
            tally.merge(h.join().expect("a benchmark client panicked"));
        }
        (tally, started, started.elapsed())
    });
    Ok((tally, started, elapsed))
}

/// Replay client 0's first `n` statements one at a time; returns the tally
/// and the mean wall time per statement, µs.
pub fn replay(w: &dyn Workload, n: usize, mut trace: Option<&mut Trace>) -> Result<(Tally, f64)> {
    let mut client = w.client(0)?;
    let mut tally = Tally::default();
    let started = Instant::now();
    for i in 0..n {
        let (latency, outcome) = match trace.as_deref_mut() {
            Some(t) => t.root("stmt", i as u64, |t| client.step(Some(t))),
            None => client.step(None),
        };
        tally.record(latency, outcome);
    }
    Ok((
        tally,
        started.elapsed().as_secs_f64() * 1e6 / n.max(1) as f64,
    ))
}

/// Service-side counters around one statement sent over TCP.
pub struct ServiceProbe {
    net: [u64; 4],
    cache: csq_core::PlanCacheStats,
    udf_calls: u64,
}

impl ServiceProbe {
    pub fn before(handle: &ServiceHandle, db: &Database) -> ServiceProbe {
        let n = handle.net_stats();
        ServiceProbe {
            net: [
                n.down_bytes(),
                n.up_bytes(),
                n.down_messages(),
                n.up_messages(),
            ],
            cache: db.plan_cache_stats(),
            udf_calls: db.client_runtime().invocations(),
        }
    }

    /// Add the deltas since `before` to the trace; returns whether the
    /// server planned the statement (a plan-cache miss or a stale replan).
    pub fn after(self, handle: &ServiceHandle, db: &Database, t: &mut Trace) -> bool {
        let n = handle.net_stats();
        let net = [
            n.down_bytes(),
            n.up_bytes(),
            n.down_messages(),
            n.up_messages(),
        ];
        t.count(
            "net.bytes",
            (net[0] + net[1] - self.net[0] - self.net[1]) as f64,
        );
        t.count(
            "net.frames",
            (net[2] + net[3] - self.net[2] - self.net[3]) as f64,
        );
        let cache = db.plan_cache_stats();
        let stale = cache.stale_replans - self.cache.stale_replans;
        t.count("plancache.stale_replans", stale as f64);
        t.count(
            "udf.calls",
            (db.client_runtime().invocations() - self.udf_calls) as f64,
        );
        cache.misses > self.cache.misses || stale > 0
    }
}

/// Count a SELECT for the plan-cache hit ratio: it hit unless the server
/// had to plan it.
pub fn count_select(t: &mut Trace, planned: bool) {
    t.count("plancache.selects", 1.0);
    if planned {
        t.count("plancache.planned", 1.0);
    }
}

/// Send one statement over `conn` inside a `core.service` span, with the
/// service-side counters around it. Returns the answer, its latency, and
/// whether the server planned it.
pub fn traced_call<T>(
    t: &mut Trace,
    handle: &ServiceHandle,
    db: &Database,
    call: impl FnOnce() -> Result<T>,
) -> (Result<T>, Duration, bool) {
    let probe = ServiceProbe::before(handle, db);
    let (out, latency) = t.span("core.service", |_| timed(call));
    let planned = probe.after(handle, db, t);
    (out, latency, planned)
}

pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let started = Instant::now();
    let out = f();
    (out, started.elapsed())
}

/// The UDF metadata the server plans with, as `Database::register_udf`
/// derives it from the implementation's hints.
pub fn udf_meta(udf: &dyn csq_client::ScalarUdf) -> UdfMeta {
    let sig = udf.signature();
    UdfMeta {
        name: sig.name.clone(),
        arg_types: sig.arg_types.clone(),
        return_type: sig.return_type,
        result_bytes: udf.result_size_hint().unwrap_or(64) as f64,
        selectivity: udf.selectivity_hint().unwrap_or(1.0 / 3.0),
        client_site: true,
    }
}

/// The path a SELECT takes inside the server, replayed in-process one
/// public call at a time: when it must plan, the server parses, builds
/// statistics for every catalog table and optimizes; then it executes.
/// The scans name the base tables the statement reads and the zone-map
/// filter its pushed predicates compile to.
pub fn trace_select(
    t: &mut Trace,
    db: &Database,
    sql: &str,
    planned: bool,
    udfs: &[UdfMeta],
    scans: &[(Arc<Table>, Option<FilterSpec>)],
) -> Result<()> {
    if planned {
        let stmt = t.span("sql.parse", |_| csq_sql::parse_statement(sql))?;
        let csq_sql::Statement::Select(sel) = stmt else {
            return Err(CsqError::Plan(format!("not a SELECT: {sql}")));
        };
        t.span("opt.plan", |t| -> Result<()> {
            let mut ctx = OptContext::new(db.network());
            for name in db.catalog().table_names() {
                let table = db.catalog().get(&name)?;
                let stats = t.span("opt.stats", |_| csq_opt::context::stats_from_table(&table));
                ctx.add_table(&name, stats);
            }
            for m in udfs {
                ctx.add_udf(m.clone());
            }
            t.span("opt.optimize", |_| -> Result<()> {
                let graph = csq_opt::query::extract(&sel, &ctx)?;
                std::hint::black_box(csq_opt::optimize(&graph, &ctx)?);
                Ok(())
            })
        })?;
    }
    // The plan the service just cached: a hit, so this adds no planning.
    let (plan, _) = db.prepare(sql)?;
    t.span("exec.execute", |_| db.execute_planned(&plan))?;
    for (table, spec) in scans {
        trace_scan(t, table, spec.as_ref());
    }
    Ok(())
}

/// Drain a zone-map-pruned scan of `table` inside a `storage.scan` span.
pub fn trace_scan(t: &mut Trace, table: &Table, spec: Option<&FilterSpec>) {
    let stats = table.prune_stats(spec);
    t.count("storage.segments", stats.segments_scanned() as f64);
    t.count("storage.tail_rows", stats.tail_rows as f64);
    t.span("storage.scan", |_| {
        let mut scan = table.scan(spec);
        while let Some(batch) = scan.next_batch() {
            std::hint::black_box(batch);
        }
    });
}

/// Time `Table::insert_all` on `batches` into a fresh table with `like`'s
/// schema, inside `storage.insert` spans.
pub fn trace_inserts(
    t: &mut Trace,
    like: &Table,
    batches: impl IntoIterator<Item = Vec<Row>>,
) -> Result<()> {
    let scratch = Table::new(format!("{}_scratch", like.name()), like.schema().clone())?;
    for batch in batches {
        t.count("storage.inserted_rows", batch.len() as f64);
        t.span("storage.insert", |_| scratch.insert_all(batch))?;
    }
    Ok(())
}

/// Answer rows as integer tuples, the form every check compares: blobs
/// become a digest of their bytes, booleans 0 or 1, NULL `i64::MIN`.
pub fn ints(rows: &[Row]) -> std::result::Result<Vec<Vec<i64>>, String> {
    rows.iter()
        .map(|r| r.values().iter().map(int_of).collect())
        .collect()
}

fn int_of(v: &Value) -> std::result::Result<i64, String> {
    match v {
        Value::Int(i) => Ok(*i),
        Value::Bool(b) => Ok(i64::from(*b)),
        Value::Blob(b) => Ok(digest(b.as_bytes())),
        Value::Null => Ok(i64::MIN),
        other => Err(format!("unexpected value {other} in an answer")),
    }
}

/// FNV-1a of `bytes`, as a signed integer.
pub fn digest(bytes: &[u8]) -> i64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h as i64
}

/// Multiset equality of two answers, ignoring row order.
pub fn same_rows(mut got: Vec<Vec<i64>>, mut want: Vec<Vec<i64>>) -> Outcome {
    got.sort_unstable();
    want.sort_unstable();
    if got == want {
        Outcome::Ok
    } else {
        let n = got.len().min(want.len());
        let first = (0..n).find(|&i| got[i] != want[i]).unwrap_or(n);
        Outcome::Wrong(format!(
            "{} rows, want {}; first difference at sorted row {first}: {:?} vs {:?}",
            got.len(),
            want.len(),
            got.get(first),
            want.get(first)
        ))
    }
}

/// Fold an answer (or its error) into an outcome via `check`.
pub fn judge<T>(answer: Result<T>, check: impl FnOnce(T) -> Outcome) -> Outcome {
    match answer {
        Ok(v) => check(v),
        Err(e) => Outcome::from_error(e),
    }
}

/// The zone-map filter of integer conjuncts `column <op> literal`;
/// `complete` when they are the statement's whole predicate.
pub fn int_spec(preds: &[(usize, CmpOp, i64)], complete: bool) -> FilterSpec {
    FilterSpec {
        preds: preds
            .iter()
            .map(|&(col, op, lit)| ColPred {
                col,
                op,
                lit: Value::Int(lit),
            })
            .collect(),
        complete,
    }
}

/// Run `sql` on the virtual-time engine inside a `ship.simulate` span and
/// count the bytes and messages it ships per link.
pub fn trace_sim(t: &mut Trace, db: &Database, sql: &str) -> Result<()> {
    let (_, sim) = t.span("ship.simulate", |_| db.execute_simulated(sql))?;
    t.count("ship.down_bytes", sim.down_bytes as f64);
    t.count("ship.up_bytes", sim.up_bytes as f64);
    t.count("ship.down_msgs", sim.down_messages as f64);
    t.count("ship.up_msgs", sim.up_messages as f64);
    Ok(())
}
