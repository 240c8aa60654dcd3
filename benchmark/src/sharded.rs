//! `sharded_scatter`: two clients send SQL to a `Coordinator` in front of
//! two shard services holding `T` hash-sharded on `Id`. A third of the 96
//! texts are shard-key lookups (pruned to one shard), a third are grouped
//! aggregates (per-shard partial aggregation, merged), and a third are
//! filters on other columns (fanned out). 96 texts exceed the
//! coordinator's 64-entry plan cache, so routing, fan-out, merge and the
//! cache's overflow all show.

use std::sync::atomic::Ordering;
use std::sync::{Arc, OnceLock};
use std::time::Duration;

use csq_common::{CsqError, Result};
use csq_core::{Coordinator, CoordinatorConfig, Database, NetworkSpec, ServiceHandle};

use crate::gen::{self, IntTable, Rng};
use crate::measure::Outcome;
use crate::served::{self, ints, judge, same_rows, timed, trace_sim, Client, Size, Workload};
use crate::trace::Trace;

const SHARDS: usize = 2;
const TEXTS_PER_KIND: usize = 32;

pub struct Sharded {
    seed: u64,
    data: IntTable,
    shards: Vec<(Arc<Database>, ServiceHandle)>,
    coord: Coordinator,
    texts: Vec<(String, Vec<Vec<i64>>)>,
    /// A single-node database holding the same rows, where the paper's
    /// link simulation runs. Built on first use, which an untraced run
    /// makes only after it has read its peak memory.
    reference: OnceLock<Database>,
    replay_len: usize,
}

impl Sharded {
    pub fn setup(seed: u64, size: Size) -> Result<Sharded> {
        let rows = size.pick(50_000, 1_000);
        let data = IntTable::generate(seed, 1, rows);
        let mut shards = Vec::new();
        for _ in 0..SHARDS {
            let db = Arc::new(Database::new(NetworkSpec::lan()));
            let service = served::start_service(db.clone())?;
            shards.push((db, service));
        }
        let addrs: Vec<_> = shards.iter().map(|(_, s)| s.local_addr()).collect();
        let coord = Coordinator::connect(&addrs, CoordinatorConfig::default())?;
        coord.create_table(IntTable::CREATE, "Id")?;
        for batch in data.batches() {
            coord.execute(&gen::insert_sql("T", &batch))?;
        }
        let texts = texts(&data, seed);
        // Warm up: run every text once.
        for (sql, _) in &texts {
            coord.execute(sql)?;
        }
        Ok(Sharded {
            seed,
            data,
            shards,
            coord,
            texts,
            reference: OnceLock::new(),
            replay_len: size.pick(500, 20),
        })
    }

    /// The single-node reference, loaded on first use and checked against
    /// the generated answers, so the two oracles vouch for each other.
    fn reference(&self) -> Result<&Database> {
        if let Some(db) = self.reference.get() {
            return Ok(db);
        }
        let db = Database::new(NetworkSpec::lan());
        db.execute(IntTable::CREATE)?;
        for batch in self.data.batches() {
            db.execute(&gen::insert_sql("T", &batch))?;
        }
        for (sql, want) in &self.texts {
            let got = ints(&db.execute(sql)?.rows).map_err(CsqError::Exec)?;
            if let Outcome::Wrong(e) = same_rows(got, want.clone()) {
                return Err(CsqError::Exec(format!("reference disagrees on {sql}: {e}")));
            }
        }
        Ok(self.reference.get_or_init(|| db))
    }
}

/// The 96 texts with answers computed from the generated data.
fn texts(d: &IntTable, seed: u64) -> Vec<(String, Vec<Vec<i64>>)> {
    let n = d.len();
    let mut rng = Rng::new(seed, 20);
    let mut out = Vec::new();
    for _ in 0..TEXTS_PER_KIND {
        let k = rng.below(n as u64) as usize;
        out.push((
            format!("SELECT T.Id, T.Grp, T.Val FROM T T WHERE T.Id = {k}"),
            vec![d.row(k)],
        ));
    }
    // Thresholds are stratified, so every seed gets the same spread of
    // selectivities and the same total work.
    let stratum = |rng: &mut Rng, i: usize, lo: i64, width: i64| {
        lo + (width * i as i64 + rng.below(width as u64) as i64) / TEXTS_PER_KIND as i64
    };
    for i in 0..TEXTS_PER_KIND {
        let v = stratum(&mut rng, i, 100, 900);
        let mut groups = std::collections::BTreeMap::<i64, (i64, i64)>::new();
        for id in (0..n).filter(|&id| d.val[id] < v) {
            let g = groups.entry(d.grp[id]).or_default();
            g.0 += 1;
            g.1 += d.val[id];
        }
        out.push((
            format!("SELECT T.Grp, count(*), sum(T.Val) FROM T T WHERE T.Val < {v} GROUP BY T.Grp"),
            groups
                .into_iter()
                .map(|(g, (c, s))| vec![g, c, s])
                .collect(),
        ));
    }
    for i in 0..TEXTS_PER_KIND {
        let g = rng.below(64) as i64;
        let v = stratum(&mut rng, i, 900, 90);
        out.push((
            format!("SELECT T.Id, T.Val FROM T T WHERE T.Grp = {g} AND T.Val > {v}"),
            (0..n)
                .filter(|&id| d.grp[id] == g && d.val[id] > v)
                .map(|id| vec![id as i64, d.val[id]])
                .collect(),
        ));
    }
    out
}

impl Workload for Sharded {
    fn clients(&self) -> usize {
        2
    }

    fn client(&self, idx: usize) -> Result<Box<dyn Client + '_>> {
        Ok(Box::new(ShardedClient {
            w: self,
            rng: Rng::new(self.seed, 200 + idx as u64),
        }))
    }

    fn replay_len(&self) -> usize {
        self.replay_len
    }

    fn select_texts(&self) -> Vec<String> {
        self.texts.iter().map(|(sql, _)| sql.clone()).collect()
    }

    fn sim_db(&self) -> Result<&Database> {
        self.reference()
    }

    fn services(&self) -> Vec<&ServiceHandle> {
        self.shards.iter().map(|(_, s)| s).collect()
    }

    fn finish_trace(&self, t: &mut Trace) -> Result<()> {
        let (db, _) = &self.shards[0];
        let batches = self.data.batches().map(|b| gen::int_rows(&b));
        served::trace_inserts(t, &*db.catalog().get("T")?, batches)
    }

    fn shutdown(self: Box<Self>) {
        let Sharded { coord, shards, .. } = *self;
        drop(coord);
        for (_, service) in shards {
            service.shutdown();
        }
    }
}

struct ShardedClient<'a> {
    w: &'a Sharded,
    rng: Rng,
}

/// Coordinator counters, and the shard services' wire and plan-cache
/// counters, around one statement.
fn coord_counters(w: &Sharded) -> [u64; 8] {
    let s = w.coord.stats();
    let mut out = [
        s.queries.load(Ordering::Relaxed),
        s.plan_cache_hits.load(Ordering::Relaxed),
        s.shard_statements.load(Ordering::Relaxed),
        s.shards_pruned.load(Ordering::Relaxed),
        0,
        0,
        0,
        0,
    ];
    for (db, service) in &w.shards {
        let n = service.net_stats();
        out[4] += n.down_bytes() + n.up_bytes();
        out[5] += n.down_messages() + n.up_messages();
        let cache = db.plan_cache_stats();
        out[6] += cache.hits;
        out[7] += cache.misses + cache.stale_replans;
    }
    out
}

impl Client for ShardedClient<'_> {
    fn step(&mut self, trace: Option<&mut Trace>) -> (Duration, Outcome) {
        let w = self.w;
        let (sql, want) = &w.texts[self.rng.below(w.texts.len() as u64) as usize];
        let (answer, latency) = match trace {
            None => timed(|| w.coord.execute(sql)),
            Some(t) => {
                let before = coord_counters(w);
                let out = t.span("core.coord.execute", |_| timed(|| w.coord.execute(sql)));
                let after = coord_counters(w);
                let d: Vec<f64> = after
                    .iter()
                    .zip(before)
                    .map(|(a, b)| (a - b) as f64)
                    .collect();
                for (name, v) in [
                    ("coord.queries", d[0]),
                    ("coord.cache_hits", d[1]),
                    ("coord.shard_stmts", d[2]),
                    ("coord.pruned", d[3]),
                    ("net.bytes", d[4]),
                    ("net.frames", d[5]),
                    // Each shard statement is a SELECT its shard looks up
                    // in its own plan cache.
                    ("plancache.selects", d[6] + d[7]),
                    ("plancache.planned", d[7]),
                ] {
                    t.count(name, v);
                }
                // The coordinator parses what its plan cache does not hold.
                if d[1] == 0.0 {
                    if let Err(e) = t.span("sql.parse", |_| csq_sql::parse_statement(sql)) {
                        return (out.1, Outcome::from_error(e));
                    }
                }
                if let Err(e) = w.reference().and_then(|db| trace_sim(t, db, sql)) {
                    return (out.1, Outcome::from_error(e));
                }
                out
            }
        };
        let outcome = judge(answer, |r| match ints(&r.rows) {
            Ok(got) => same_rows(got, want.clone()),
            Err(e) => Outcome::Wrong(e),
        });
        (latency, outcome)
    }
}
