//! `udf_analytic`: two clients run prepared statements of four kinds that
//! call client-site UDFs over seeded `Id` ranges of `Stocks`, whose 1 KiB `Quotes` objects repeat
//! (about one distinct object per 40 rows), under the paper's asymmetric
//! cable network. The optimizer places each UDF as a naive call, a
//! semi-join or a client-site join, so execution, shipping and the client
//! runtime do the work; planning and the service cost little.

use std::sync::Arc;
use std::time::Duration;

use csq_client::synthetic::{ObjectUdf, PredicateUdf};
use csq_client::vm::{assemble, VmUdf};
use csq_client::{ClientRuntime, ScalarUdf, ServiceConn, StatementHandle};
use csq_common::{Blob, DataType, Result, Row, Value};
use csq_core::{Database, NetworkSpec, ServiceHandle};
use csq_opt::UdfMeta;
use csq_storage::{CmpOp, FilterSpec, Table};

use crate::gen::{self, Rng, INGEST_BATCH};
use crate::measure::Outcome;
use crate::served::{
    self, count_select, digest, int_spec, ints, judge, same_rows, timed, trace_inserts,
    trace_select, trace_sim, traced_call, Client, Size, Workload,
};
use crate::trace::Trace;

const QUOTE_BYTES: usize = 1024;
const VOLATILE_SEL: f64 = 0.5;
const TRENDING_SEL: f64 = 0.3;
const ROWS_PER_DISTINCT_QUOTE: usize = 40;
const WATCH_ROWS: usize = 16;
const GROUPS: i64 = 16;
/// Statement kinds: an `ObjectUdf` projection, a `PredicateUdf` filter
/// under `GROUP BY`, a `PredicateUdf` beside a server filter, and the
/// `Stocks ⋈ Watch` join with the sandboxed `Rising`.
const KINDS: usize = 4;
/// Texts per kind, each over its own seeded `Id` range and planned once.
/// The optimizer breaks ties between equal-cost plans in hash order
/// (README.md, "Known finding"), so each planning draws one of the tied
/// plans; with many texts a run holds a mix of the draws instead of one.
const VARIANTS: usize = 32;
/// Each draw of a client's stream picks a kind from this list, then one of
/// its texts: the grouped filter is half the stream, so the median latency
/// falls inside one kind's latencies, not in the gap between two of them.
const MIX: [usize; 8] = [0, 0, 1, 1, 1, 1, 2, 3];

/// `Rising(quotes)`: the first quote byte is below 128. Runs in the
/// client's sandboxed VM.
const RISING_VM: &str = "load_arg 0\npush_int 0\nblob_byte\npush_int 128\nlt\nret";

pub struct Udf {
    seed: u64,
    db: Arc<Database>,
    service: ServiceHandle,
    stocks: Arc<Table>,
    watch: Arc<Table>,
    /// `(Id, Grp, Quotes)` of every stock, in `Id` order.
    rows: Vec<(i64, i64, Blob)>,
    watch_ids: Vec<i64>,
    /// The `Id` range of each statement text.
    ranges: Vec<(i64, i64)>,
    /// A client runtime of its own, for timing UDF calls without touching
    /// the served database's invocation counters.
    runtime: ClientRuntime,
    metas: Vec<UdfMeta>,
    stmts: Vec<Statement>,
    replay_len: usize,
}

fn udfs() -> Result<Vec<Arc<dyn ScalarUdf>>> {
    Ok(vec![
        Arc::new(ObjectUdf::sized("Summarize", 64)),
        Arc::new(PredicateUdf::new("Volatile", VOLATILE_SEL)),
        Arc::new(PredicateUdf::new("Trending", TRENDING_SEL)),
        Arc::new(VmUdf::new(
            "Rising",
            vec![DataType::Blob],
            DataType::Bool,
            assemble(RISING_VM)?,
        )),
    ])
}

/// One statement: its text, the UDF it calls, the base tables it scans,
/// and the rows of its range the UDF is called on.
struct Statement {
    sql: String,
    udf: &'static str,
    want: Vec<Vec<i64>>,
    scans: Vec<(Arc<Table>, Option<FilterSpec>)>,
    udf_input: Vec<Value>,
}

impl Udf {
    pub fn setup(seed: u64, size: Size) -> Result<Udf> {
        let n = size.pick(2_000, 200);
        let mut rng = Rng::new(seed, 1);
        let quotes = distinct_quotes(&mut rng, (n / ROWS_PER_DISTINCT_QUOTE).max(1));
        // Every object backs the same number of rows, in a seeded order.
        let mut slots: Vec<usize> = (0..n).map(|i| i % quotes.len()).collect();
        for i in (1..n).rev() {
            slots.swap(i, rng.below(i as u64 + 1) as usize);
        }
        let rows: Vec<(i64, i64, Blob)> = slots
            .iter()
            .enumerate()
            .map(|(id, &q)| {
                (
                    id as i64,
                    rng.below(GROUPS as u64) as i64,
                    quotes[q].clone(),
                )
            })
            .collect();
        let mut watch_ids = Vec::new();
        while watch_ids.len() < WATCH_ROWS.min(n) {
            let id = rng.below(n as u64) as i64;
            if !watch_ids.contains(&id) {
                watch_ids.push(id);
            }
        }

        let ranges = ranges(&mut rng, n);

        let db = Arc::new(Database::new(NetworkSpec::cable_asymmetric()));
        let runtime = ClientRuntime::new();
        let mut metas = Vec::new();
        for udf in udfs()? {
            db.register_udf(udf.clone())?;
            metas.push(served::udf_meta(&*udf));
            runtime.register(udf)?;
        }
        let service = served::start_service(db.clone())?;
        let mut conn = ServiceConn::connect(service.local_addr())?;
        let watch_rows: Vec<Vec<i64>> = watch_ids.iter().map(|&id| vec![id, id % 7]).collect();
        served::run_sql(
            &mut conn,
            &[
                "CREATE TABLE Stocks (Id INT, Grp INT, Quotes BLOB)".to_string(),
                "CREATE TABLE Watch (Id INT, Weight INT)".to_string(),
                gen::insert_sql("Watch", &watch_rows),
            ],
        )?;
        // SQL has no BLOB literal, so the objects go in through the
        // storage layer's public batch insert.
        let stocks = db.catalog().get("Stocks")?;
        for batch in rows.chunks(INGEST_BATCH) {
            stocks.insert_all(stock_rows(batch))?;
        }
        let w = Udf {
            seed,
            watch: db.catalog().get("Watch")?,
            stocks,
            rows,
            watch_ids,
            ranges,
            runtime,
            metas,
            stmts: Vec::new(),
            replay_len: size.pick(200, 8),
            db,
            service,
        };
        // Warm up: plan every statement once, so preparing hits the cache.
        for sql in w.texts() {
            conn.prepare(&sql)?;
        }
        served::close_settled(conn, &w.service);
        Ok(w)
    }

    /// The statement texts: `VARIANTS` of each kind, kind-major, each over
    /// a seeded `Id` range (`[lo, hi)`).
    fn texts(&self) -> Vec<String> {
        self.ranges
            .iter()
            .enumerate()
            .map(|(i, &(lo, hi))| {
                let range = format!("S.Id >= {lo} AND S.Id < {hi}");
                match i / VARIANTS {
                    0 => format!("SELECT S.Id, Summarize(S.Quotes) FROM Stocks S WHERE {range}"),
                    1 => format!(
                        "SELECT S.Grp, count(*) FROM Stocks S WHERE {range} AND Volatile(S.Quotes) \
                         GROUP BY S.Grp"
                    ),
                    2 => format!("SELECT S.Id FROM Stocks S WHERE {range} AND Trending(S.Quotes)"),
                    _ => format!(
                        "SELECT S.Id, W.Weight FROM Stocks S, Watch W \
                         WHERE S.Id = W.Id AND {range} AND Rising(S.Quotes)"
                    ),
                }
            })
            .collect()
    }

    /// The statements with their answers, computed by calling the UDF
    /// implementations directly on the generated rows.
    fn statements(&self) -> Vec<Statement> {
        let summarize = ObjectUdf::sized("Summarize", 64);
        let summarized: Vec<i64> = self
            .rows
            .iter()
            .map(|(_, _, q)| {
                let out = summarize
                    .invoke(&[Value::Blob(q.clone())])
                    .expect("Summarize accepts any blob");
                let Value::Blob(b) = out else {
                    unreachable!("Summarize returns a blob")
                };
                digest(b.as_bytes())
            })
            .collect();
        self.texts()
            .into_iter()
            .zip(&self.ranges)
            .enumerate()
            .map(|(i, (sql, &(lo, hi)))| {
                let rows = &self.rows[lo as usize..hi as usize];
                let udf_input = rows.iter().map(|r| Value::Blob(r.2.clone())).collect();
                let ranged = vec![(
                    self.stocks.clone(),
                    Some(int_spec(&[(0, CmpOp::GtEq, lo), (0, CmpOp::Lt, hi)], false)),
                )];
                let (udf, want, scans) = match i / VARIANTS {
                    0 => (
                        "Summarize",
                        rows.iter()
                            .map(|(id, _, _)| vec![*id, summarized[*id as usize]])
                            .collect(),
                        ranged,
                    ),
                    1 => {
                        let mut groups = std::collections::BTreeMap::<i64, i64>::new();
                        for (_, g, _) in rows.iter().filter(|r| volatile(&r.2)) {
                            *groups.entry(*g).or_default() += 1;
                        }
                        let want = groups.into_iter().map(|(g, c)| vec![g, c]).collect();
                        ("Volatile", want, ranged)
                    }
                    2 => (
                        "Trending",
                        rows.iter()
                            .filter(|r| trending(&r.2))
                            .map(|(id, _, _)| vec![*id])
                            .collect(),
                        ranged,
                    ),
                    _ => (
                        "Rising",
                        self.watch_ids
                            .iter()
                            .filter(|&&id| {
                                (lo..hi).contains(&id) && rising(&self.rows[id as usize].2)
                            })
                            .map(|&id| vec![id, id % 7])
                            .collect(),
                        // The range filters the join's output, not a scan.
                        vec![(self.stocks.clone(), None), (self.watch.clone(), None)],
                    ),
                };
                Statement {
                    sql,
                    udf,
                    want,
                    scans,
                    udf_input,
                }
            })
            .collect()
    }
}

/// `VARIANTS` seeded `[lo, hi)` ranges of `Id` per statement kind, half the
/// table wide (a quarter for the server-filtered predicate), their starts
/// stratified so every seed does the same work.
fn ranges(rng: &mut Rng, n: usize) -> Vec<(i64, i64)> {
    let mut out = Vec::with_capacity(KINDS * VARIANTS);
    for kind in 0..KINDS {
        let width = if kind == 2 { n / 4 } else { n / 2 };
        let slack = (n - width) as u64;
        for v in 0..VARIANTS as u64 {
            let lo = ((slack * v + rng.below(slack.max(1))) / VARIANTS as u64) as i64;
            out.push((lo, lo + width as i64));
        }
    }
    out
}

fn volatile(b: &Blob) -> bool {
    pass(&PredicateUdf::new("Volatile", VOLATILE_SEL), b)
}

fn trending(b: &Blob) -> bool {
    pass(&PredicateUdf::new("Trending", TRENDING_SEL), b)
}

fn rising(b: &Blob) -> bool {
    b.as_bytes()[0] < 128
}

/// `distinct` quote objects drawn from the seed, each kept only while its
/// class (whether it passes `Volatile`, whether it passes `Rising`) is under
/// a quarter of the objects. Every seed then has those two predicates'
/// exact selectivities, as in the paper's controlled-selectivity
/// experiments, and about the same work. (`Trending` passes a subset of
/// what `Volatile` passes: both threshold one hash of the object.)
fn distinct_quotes(rng: &mut Rng, distinct: usize) -> Vec<Blob> {
    let mut quota: Vec<usize> = (0..4).map(|c| (distinct + 3 - c) / 4).collect();
    let mut out = Vec::with_capacity(distinct);
    while out.len() < distinct {
        let candidate = Blob::synthetic(QUOTE_BYTES, rng.next_u64());
        let class = usize::from(volatile(&candidate)) | usize::from(rising(&candidate)) << 1;
        if quota[class] > 0 {
            quota[class] -= 1;
            out.push(candidate);
        }
    }
    out
}

fn pass(udf: &PredicateUdf, b: &Blob) -> bool {
    matches!(udf.invoke(&[Value::Blob(b.clone())]), Ok(Value::Bool(true)))
}

fn stock_rows(rows: &[(i64, i64, Blob)]) -> Vec<Row> {
    rows.iter()
        .map(|(id, g, q)| {
            Row::new(vec![
                Value::Int(*id),
                Value::Int(*g),
                Value::Blob(q.clone()),
            ])
        })
        .collect()
}

impl Workload for Udf {
    fn clients(&self) -> usize {
        2
    }

    fn client(&self, idx: usize) -> Result<Box<dyn Client + '_>> {
        let mut conn = ServiceConn::connect(self.service.local_addr())?;
        let mut stmts = Vec::new();
        for s in &self.stmts {
            stmts.push((conn.prepare(&s.sql)?.0, s));
        }
        Ok(Box::new(UdfClient {
            w: self,
            conn,
            stmts,
            rng: Rng::new(self.seed, 200 + idx as u64),
        }))
    }

    fn replay_len(&self) -> usize {
        self.replay_len
    }

    fn select_texts(&self) -> Vec<String> {
        self.texts()
    }

    fn sim_db(&self) -> Result<&Database> {
        Ok(&self.db)
    }

    fn services(&self) -> Vec<&ServiceHandle> {
        vec![&self.service]
    }

    fn prepare_offline(&mut self) -> Result<()> {
        self.stmts = self.statements();
        Ok(())
    }

    fn finish_trace(&self, t: &mut Trace) -> Result<()> {
        trace_inserts(
            t,
            &self.stocks,
            self.rows.chunks(INGEST_BATCH).map(stock_rows),
        )
    }

    fn shutdown(self: Box<Self>) {
        self.service.shutdown();
    }
}

struct UdfClient<'a> {
    w: &'a Udf,
    conn: ServiceConn,
    stmts: Vec<(StatementHandle, &'a Statement)>,
    rng: Rng,
}

impl Client for UdfClient<'_> {
    fn step(&mut self, trace: Option<&mut Trace>) -> (Duration, Outcome) {
        let w = self.w;
        let kind = MIX[self.rng.below(MIX.len() as u64) as usize];
        let (handle, s) = &self.stmts[kind * VARIANTS + self.rng.below(VARIANTS as u64) as usize];
        let conn = &mut self.conn;
        let (answer, latency) = match trace {
            None => timed(|| conn.execute(*handle)),
            Some(t) => {
                let (answer, latency, planned) =
                    traced_call(t, &w.service, &w.db, || conn.execute(*handle));
                count_select(t, planned);
                t.count("udf.input_rows", s.udf_input.len() as f64);
                let layers = trace_select(t, &w.db, &s.sql, planned, &w.metas, &s.scans)
                    .and_then(|()| {
                        let args: Vec<&[Value]> =
                            s.udf_input.iter().map(std::slice::from_ref).collect();
                        t.span("client.udf", |_| w.runtime.invoke_batch(s.udf, &args))
                    })
                    .and_then(|_| trace_sim(t, &w.db, &s.sql));
                if let Err(e) = layers {
                    return (latency, Outcome::from_error(e));
                }
                (answer, latency)
            }
        };
        let outcome = judge(answer, |r| match ints(&r.rows) {
            Ok(got) => same_rows(got, s.want.clone()),
            Err(e) => Outcome::Wrong(e),
        });
        (latency, outcome)
    }
}
