//! `oltp_prepared`: two clients, each with 16 prepared statements (12 point
//! lookups and 4 fifty-row ranges on `Id`) over `T(Id, Grp, Val)`. Every
//! execution reuses its prepared plan, so the SQL and optimizer layers are
//! bypassed and the service, the wire and the scan set-up do the work.

use std::sync::Arc;
use std::time::Duration;

use csq_client::{ServiceConn, StatementHandle};
use csq_common::Result;
use csq_core::{Database, NetworkSpec, ServiceHandle};
use csq_storage::{CmpOp, FilterSpec, Table};

use crate::gen::{self, IntTable, Rng};
use crate::measure::Outcome;
use crate::served::{
    self, count_select, int_spec, ints, judge, same_rows, timed, trace_inserts, trace_select,
    traced_call, Client, Size, Workload,
};
use crate::trace::Trace;

const CLIENTS: usize = 2;
const POINTS: usize = 12;
const RANGES: usize = 4;
const RANGE_ROWS: usize = 50;

pub struct Oltp {
    seed: u64,
    data: IntTable,
    db: Arc<Database>,
    service: ServiceHandle,
    table: Arc<Table>,
    replay_len: usize,
}

/// One prepared statement: its text, the rows it must return and the
/// zone-map filter its predicate compiles to.
struct Prepared {
    sql: String,
    want: Vec<Vec<i64>>,
    spec: FilterSpec,
}

impl Oltp {
    pub fn setup(seed: u64, size: Size) -> Result<Oltp> {
        let rows = size.pick(200_000, 2_000);
        let data = IntTable::generate(seed, 1, rows);
        let db = Arc::new(Database::new(NetworkSpec::lan()));
        let service = served::start_service(db.clone())?;
        let mut conn = ServiceConn::connect(service.local_addr())?;
        served::run_sql(&mut conn, &[IntTable::CREATE.to_string()])?;
        for batch in data.batches() {
            conn.query(&gen::insert_sql("T", &batch))?;
        }
        let table = db.catalog().get("T")?;
        let w = Oltp {
            seed,
            data,
            db,
            service,
            table,
            replay_len: size.pick(2_000, 20),
        };
        // Warm up: plan every statement once, so preparing hits the cache.
        for c in 0..CLIENTS {
            for p in w.statements(c) {
                conn.query(&p.sql)?;
            }
        }
        served::close_settled(conn, &w.service);
        Ok(w)
    }

    /// Client `client`'s 16 statements, drawn from the seed.
    fn statements(&self, client: usize) -> Vec<Prepared> {
        let n = self.data.len();
        let mut rng = Rng::new(self.seed, 100 + client as u64);
        let mut out = Vec::with_capacity(POINTS + RANGES);
        for i in 0..POINTS + RANGES {
            let (lo, hi) = if i < POINTS {
                let k = rng.below(n as u64) as usize;
                (k, k + 1)
            } else {
                let a = rng.below((n - RANGE_ROWS) as u64) as usize;
                (a, a + RANGE_ROWS)
            };
            let (sql, spec) = if i < POINTS {
                (
                    format!("SELECT T.Id, T.Grp, T.Val FROM T T WHERE T.Id = {lo}"),
                    int_spec(&[(0, CmpOp::Eq, lo as i64)], true),
                )
            } else {
                (
                    format!(
                        "SELECT T.Id, T.Grp, T.Val FROM T T WHERE T.Id >= {lo} AND T.Id < {hi}"
                    ),
                    int_spec(
                        &[(0, CmpOp::GtEq, lo as i64), (0, CmpOp::Lt, hi as i64)],
                        true,
                    ),
                )
            };
            out.push(Prepared {
                sql,
                want: (lo..hi).map(|id| self.data.row(id)).collect(),
                spec,
            });
        }
        out
    }
}

impl Workload for Oltp {
    fn clients(&self) -> usize {
        CLIENTS
    }

    fn client(&self, idx: usize) -> Result<Box<dyn Client + '_>> {
        let mut conn = ServiceConn::connect(self.service.local_addr())?;
        let mut stmts = Vec::new();
        for p in self.statements(idx) {
            let (handle, _) = conn.prepare(&p.sql)?;
            stmts.push((handle, p));
        }
        Ok(Box::new(OltpClient {
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
        (0..CLIENTS)
            .flat_map(|c| self.statements(c))
            .map(|p| p.sql)
            .collect()
    }

    fn sim_db(&self) -> Result<&Database> {
        Ok(&self.db)
    }

    fn services(&self) -> Vec<&ServiceHandle> {
        vec![&self.service]
    }

    fn finish_trace(&self, t: &mut Trace) -> Result<()> {
        trace_inserts(
            t,
            &self.table,
            self.data.batches().map(|b| gen::int_rows(&b)),
        )
    }

    fn shutdown(self: Box<Self>) {
        self.service.shutdown();
    }
}

struct OltpClient<'a> {
    w: &'a Oltp,
    conn: ServiceConn,
    stmts: Vec<(StatementHandle, Prepared)>,
    rng: Rng,
}

impl Client for OltpClient<'_> {
    fn step(&mut self, trace: Option<&mut Trace>) -> (Duration, Outcome) {
        let (handle, p) = &self.stmts[self.rng.below(self.stmts.len() as u64) as usize];
        let conn = &mut self.conn;
        let (answer, latency) = match trace {
            None => timed(|| conn.execute(*handle)),
            Some(t) => {
                let (answer, latency, planned) =
                    traced_call(t, &self.w.service, &self.w.db, || conn.execute(*handle));
                count_select(t, planned);
                let scans = [(self.w.table.clone(), Some(p.spec.clone()))];
                if let Err(e) = trace_select(t, &self.w.db, &p.sql, planned, &[], &scans) {
                    return (latency, Outcome::from_error(e));
                }
                (answer, latency)
            }
        };
        let outcome = judge(answer, |r| match ints(&r.rows) {
            Ok(got) => same_rows(got, p.want.clone()),
            Err(e) => Outcome::Wrong(e),
        });
        (latency, outcome)
    }
}
