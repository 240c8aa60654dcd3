//! `adhoc_writes`: two clients send unprepared SQL. Nine in ten statements
//! are reads drawn from 32 fixed texts over `T` and the append table `Ev`;
//! one in ten is an 8-row `INSERT` into `Ev`. A large `Hist` table sits in
//! the catalog and no statement reads it. Every insert bumps the plan
//! epoch, so the next reads replan: the work lands in parsing, catalog
//! statistics, optimization and the plan cache's miss path.

use std::sync::{Arc, Mutex};
use std::time::Duration;

use csq_client::ServiceConn;
use csq_common::Result;
use csq_core::{Database, NetworkSpec, ServiceHandle};
use csq_storage::{CmpOp, FilterSpec, Table};

use crate::gen::{self, IntTable, Rng, INGEST_BATCH};
use crate::measure::Outcome;
use crate::served::{
    self, count_select, int_spec, ints, judge, same_rows, timed, trace_inserts, trace_select,
    traced_call, Client, Size, Workload,
};
use crate::trace::Trace;

const CLIENTS: usize = 2;
const INSERT_SHARE: f64 = 0.1;
const INSERT_ROWS: usize = 8;
/// Read texts over `T`, shared by both clients; each client also reads its
/// own rows of `Ev` through `EV_READS` texts, for 32 texts in all.
const POINTS: usize = 10;
const RANGE_AGGS: usize = 8;
const GROUPED: usize = 8;
const EV_READS: usize = 3;

const CREATE_HIST: &str = "CREATE TABLE Hist (Id INT, Grp INT, Val INT)";
const CREATE_EV: &str = "CREATE TABLE Ev (Client INT, Seq INT, Amt INT)";

pub struct Adhoc {
    seed: u64,
    db: Arc<Database>,
    service: ServiceHandle,
    t: Arc<Table>,
    ev: Arc<Table>,
    /// The `T` read texts with their answers and zone-map filters.
    reads: Vec<Read>,
    /// What each client has put in `Ev` so far; a client reads only its
    /// own rows, so its expectation is exact under concurrency.
    ev_state: Vec<Mutex<EvState>>,
    /// The generated `T` and `Hist` data and the initial `Ev` rows, kept
    /// to time the storage insert path on the same batches.
    t_data: IntTable,
    hist_data: IntTable,
    ev_init: Vec<Vec<i64>>,
    replay_len: usize,
}

struct Read {
    sql: String,
    want: Vec<Vec<i64>>,
    spec: FilterSpec,
}

#[derive(Debug, Clone, Default)]
struct EvState {
    rows: i64,
    amt_sum: i64,
    amt_over_500: i64,
    max_seq: i64,
}

impl EvState {
    fn add(&mut self, seq: i64, amt: i64) {
        self.rows += 1;
        self.amt_sum += amt;
        self.amt_over_500 += i64::from(amt > 500);
        self.max_seq = self.max_seq.max(seq);
    }
}

impl Adhoc {
    pub fn setup(seed: u64, size: Size) -> Result<Adhoc> {
        let t_rows = size.pick(50_000, 1_000);
        let hist_rows = size.pick(50_000, 1_000);
        let ev_rows = size.pick(500, 20);
        let t_data = IntTable::generate(seed, 1, t_rows);
        let hist_data = IntTable::generate(seed, 2, hist_rows);
        let mut rng = Rng::new(seed, 3);
        let mut ev_state = vec![EvState::default(); CLIENTS];
        let mut ev_init = Vec::new();
        for (c, state) in ev_state.iter_mut().enumerate() {
            for seq in 0..ev_rows as i64 {
                let amt = rng.below(1000) as i64;
                state.add(seq, amt);
                ev_init.push(vec![c as i64, seq, amt]);
            }
        }

        let db = Arc::new(Database::new(NetworkSpec::lan()));
        let service = served::start_service(db.clone())?;
        let mut conn = ServiceConn::connect(service.local_addr())?;
        let ddl = [IntTable::CREATE, CREATE_HIST, CREATE_EV].map(String::from);
        served::run_sql(&mut conn, &ddl)?;
        for (name, data) in [("T", &t_data), ("Hist", &hist_data)] {
            for batch in data.batches() {
                conn.query(&gen::insert_sql(name, &batch))?;
            }
        }
        for batch in ev_init.chunks(INGEST_BATCH) {
            conn.query(&gen::insert_sql("Ev", batch))?;
        }
        let w = Adhoc {
            seed,
            t: db.catalog().get("T")?,
            ev: db.catalog().get("Ev")?,
            reads: reads(&t_data, seed),
            ev_state: ev_state.into_iter().map(Mutex::new).collect(),
            t_data,
            hist_data,
            ev_init,
            replay_len: size.pick(400, 20),
            db,
            service,
        };
        // Warm up: run every read text once.
        for sql in w.select_texts() {
            conn.query(&sql)?;
        }
        served::close_settled(conn, &w.service);
        Ok(w)
    }
}

/// The 26 `T` read texts: point lookups, range aggregates and grouped range
/// aggregates, with answers computed from the generated data.
fn reads(d: &IntTable, seed: u64) -> Vec<Read> {
    let n = d.len();
    let mut rng = Rng::new(seed, 10);
    let mut out = Vec::new();
    for _ in 0..POINTS {
        let k = rng.below(n as u64) as usize;
        out.push(Read {
            sql: format!("SELECT T.Id, T.Grp, T.Val FROM T T WHERE T.Id = {k}"),
            want: vec![d.row(k)],
            spec: int_spec(&[(0, CmpOp::Eq, k as i64)], true),
        });
    }
    for i in 0..RANGE_AGGS + GROUPED {
        let width = (n / 25).max(1);
        let a = rng.below((n - width) as u64) as usize;
        let b = a + width;
        let spec = int_spec(
            &[(0, CmpOp::GtEq, a as i64), (0, CmpOp::Lt, b as i64)],
            true,
        );
        let range = a..b;
        if i < RANGE_AGGS {
            let sum: i64 = range.clone().map(|id| d.val[id]).sum();
            out.push(Read {
                sql: format!(
                    "SELECT count(*), sum(T.Val) FROM T T WHERE T.Id >= {a} AND T.Id < {b}"
                ),
                want: vec![vec![width as i64, sum]],
                spec,
            });
        } else {
            let mut groups = std::collections::BTreeMap::<i64, (i64, i64)>::new();
            for id in range {
                let g = groups.entry(d.grp[id]).or_default();
                g.0 += 1;
                g.1 += d.val[id];
            }
            out.push(Read {
                sql: format!(
                    "SELECT T.Grp, count(*), sum(T.Val) FROM T T \
                     WHERE T.Id >= {a} AND T.Id < {b} GROUP BY T.Grp"
                ),
                want: groups
                    .into_iter()
                    .map(|(g, (c, s))| vec![g, c, s])
                    .collect(),
                spec,
            });
        }
    }
    out
}

/// Client `c`'s `k`th read of its own `Ev` rows, and its answer.
fn ev_read(c: usize, k: usize) -> (String, fn(&EvState) -> Vec<i64>) {
    match k {
        0 => (
            format!("SELECT count(*), sum(Ev.Amt) FROM Ev Ev WHERE Ev.Client = {c}"),
            |s| vec![s.rows, s.amt_sum],
        ),
        1 => (
            format!("SELECT count(*) FROM Ev Ev WHERE Ev.Client = {c} AND Ev.Amt > 500"),
            |s| vec![s.amt_over_500],
        ),
        _ => (
            format!("SELECT max(Ev.Seq) FROM Ev Ev WHERE Ev.Client = {c}"),
            |s| vec![s.max_seq],
        ),
    }
}

impl Workload for Adhoc {
    fn clients(&self) -> usize {
        CLIENTS
    }

    fn client(&self, idx: usize) -> Result<Box<dyn Client + '_>> {
        Ok(Box::new(AdhocClient {
            w: self,
            idx,
            conn: ServiceConn::connect(self.service.local_addr())?,
            rng: Rng::new(self.seed, 200 + idx as u64),
        }))
    }

    fn replay_len(&self) -> usize {
        self.replay_len
    }

    fn select_texts(&self) -> Vec<String> {
        let mut texts: Vec<String> = self.reads.iter().map(|r| r.sql.clone()).collect();
        for c in 0..CLIENTS {
            texts.extend((0..EV_READS).map(|k| ev_read(c, k).0));
        }
        texts
    }

    fn sim_db(&self) -> Result<&Database> {
        Ok(&self.db)
    }

    fn services(&self) -> Vec<&ServiceHandle> {
        vec![&self.service]
    }

    fn finish_trace(&self, t: &mut Trace) -> Result<()> {
        let hist = self.db.catalog().get("Hist")?;
        for (table, data) in [(&self.t, &self.t_data), (&hist, &self.hist_data)] {
            trace_inserts(t, table, data.batches().map(|b| gen::int_rows(&b)))?;
        }
        trace_inserts(
            t,
            &self.ev,
            self.ev_init.chunks(INGEST_BATCH).map(gen::int_rows),
        )
    }

    fn shutdown(self: Box<Self>) {
        self.service.shutdown();
    }
}

struct AdhocClient<'a> {
    w: &'a Adhoc,
    idx: usize,
    conn: ServiceConn,
    rng: Rng,
}

impl AdhocClient<'_> {
    fn insert(&mut self, trace: Option<&mut Trace>) -> (Duration, Outcome) {
        let w = self.w;
        let mut state = w.ev_state[self.idx]
            .lock()
            .expect("a client panicked while holding its Ev state");
        let mut next = state.clone();
        let rows: Vec<Vec<i64>> = (0..INSERT_ROWS)
            .map(|i| {
                let seq = state.max_seq + 1 + i as i64;
                let amt = self.rng.below(1000) as i64;
                next.add(seq, amt);
                vec![self.idx as i64, seq, amt]
            })
            .collect();
        let sql = gen::insert_sql("Ev", &rows);
        let conn = &mut self.conn;
        let (answer, latency) = match trace {
            None => timed(|| conn.query(&sql)),
            Some(t) => {
                let (answer, latency, _) = traced_call(t, &w.service, &w.db, || conn.query(&sql));
                // The server parses every INSERT, then appends the rows.
                let parsed = t.span("sql.parse", |_| csq_sql::parse_statement(&sql));
                let stored = trace_inserts(t, &w.ev, vec![gen::int_rows(&rows)]);
                if let Err(e) = parsed.and(stored) {
                    return (latency, Outcome::from_error(e));
                }
                (answer, latency)
            }
        };
        let outcome = judge(answer, |r| {
            Outcome::check("rows inserted", r.affected, INSERT_ROWS as u64)
        });
        if matches!(outcome, Outcome::Ok) {
            *state = next;
        }
        (latency, outcome)
    }

    fn read(&mut self, trace: Option<&mut Trace>) -> (Duration, Outcome) {
        let w = self.w;
        let pick = self.rng.below((w.reads.len() + EV_READS) as u64) as usize;
        let state = w.ev_state[self.idx]
            .lock()
            .expect("a client panicked while holding its Ev state");
        let (sql, want, scan) = match w.reads.get(pick) {
            Some(r) => (r.sql.clone(), r.want.clone(), (w.t.clone(), r.spec.clone())),
            None => {
                let k = pick - w.reads.len();
                let (sql, answer) = ev_read(self.idx, k);
                // Only the second Ev read has a predicate beyond `Client`.
                let spec = int_spec(&[(0, CmpOp::Eq, self.idx as i64)], k != 1);
                (sql, vec![answer(&state)], (w.ev.clone(), spec))
            }
        };
        drop(state);
        let conn = &mut self.conn;
        let (answer, latency) = match trace {
            None => timed(|| conn.query(&sql)),
            Some(t) => {
                let (answer, latency, planned) =
                    traced_call(t, &w.service, &w.db, || conn.query(&sql));
                count_select(t, planned);
                let scans = [(scan.0, Some(scan.1))];
                if let Err(e) = trace_select(t, &w.db, &sql, planned, &[], &scans) {
                    return (latency, Outcome::from_error(e));
                }
                (answer, latency)
            }
        };
        let outcome = judge(answer, |r| match ints(&r.rows) {
            Ok(got) => same_rows(got, want),
            Err(e) => Outcome::Wrong(e),
        });
        (latency, outcome)
    }
}

impl Client for AdhocClient<'_> {
    fn step(&mut self, trace: Option<&mut Trace>) -> (Duration, Outcome) {
        if self.rng.chance(INSERT_SHARE) {
            self.insert(trace)
        } else {
            self.read(trace)
        }
    }
}
