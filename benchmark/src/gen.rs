//! Seeded generation: every table and statement stream of a run derives
//! from the one `--seed`, so the same seed replays the same inputs.

use csq_common::{Row, Value};

/// Rows per `INSERT` batch when a workload loads a table.
pub const INGEST_BATCH: usize = 1000;

/// SplitMix64: tiny, fast, and stable across platforms and toolchains.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for one purpose (`stream`) under the run's seed; distinct
    /// purposes draw independent sequences from the same seed.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// True with probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64 <= p
    }
}

/// The integer table `T(Id, Grp, Val)` used by three workloads: `Id` is
/// `0..rows` in insertion order (so zone maps on `Id` prune), `Grp` and
/// `Val` are seeded.
#[derive(Debug, Clone)]
pub struct IntTable {
    pub grp: Vec<i64>,
    pub val: Vec<i64>,
}

impl IntTable {
    pub const CREATE: &'static str = "CREATE TABLE T (Id INT, Grp INT, Val INT)";

    pub fn generate(seed: u64, stream: u64, rows: usize) -> IntTable {
        let mut rng = Rng::new(seed, stream);
        let mut grp = Vec::with_capacity(rows);
        let mut val = Vec::with_capacity(rows);
        for _ in 0..rows {
            grp.push(rng.below(64) as i64);
            val.push(rng.below(1000) as i64);
        }
        IntTable { grp, val }
    }

    pub fn len(&self) -> usize {
        self.grp.len()
    }

    pub fn row(&self, id: usize) -> Vec<i64> {
        vec![id as i64, self.grp[id], self.val[id]]
    }

    /// The rows in `Id` order, `INGEST_BATCH` at a time, each batch made
    /// only when it is loaded.
    pub fn batches(&self) -> impl Iterator<Item = Vec<Vec<i64>>> + '_ {
        (0..self.len()).step_by(INGEST_BATCH).map(|lo| {
            (lo..(lo + INGEST_BATCH).min(self.len()))
                .map(|i| self.row(i))
                .collect()
        })
    }
}

/// `INSERT INTO <table> VALUES (...), ...`: the SQL ingest path every
/// integer table is loaded through.
pub fn insert_sql(table: &str, rows: &[Vec<i64>]) -> String {
    let mut sql = format!("INSERT INTO {table} VALUES ");
    for (i, r) in rows.iter().enumerate() {
        if i > 0 {
            sql.push_str(", ");
        }
        sql.push('(');
        for (j, v) in r.iter().enumerate() {
            if j > 0 {
                sql.push_str(", ");
            }
            sql.push_str(&v.to_string());
        }
        sql.push(')');
    }
    sql
}

/// Integer rows as engine rows (for re-inserting into a scratch table when
/// the storage layer is timed on its own).
pub fn int_rows(rows: &[Vec<i64>]) -> Vec<Row> {
    rows.iter()
        .map(|r| Row::new(r.iter().map(|&v| Value::Int(v)).collect()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_data_other_seed_other_data() {
        let a = IntTable::generate(7, 1, 100);
        let b = IntTable::generate(7, 1, 100);
        let c = IntTable::generate(8, 1, 100);
        assert_eq!(a.val, b.val);
        assert_ne!(a.val, c.val);
        assert_ne!(IntTable::generate(7, 2, 100).val, a.val);
    }

    #[test]
    fn insert_text_lists_every_row() {
        let sql = insert_sql("T", &[vec![1, 2, 3], vec![4, 5, 6]]);
        assert_eq!(sql, "INSERT INTO T VALUES (1, 2, 3), (4, 5, 6)");
        let parsed = csq_sql::parse_statement(&sql).expect("generated INSERT parses");
        assert!(matches!(parsed, csq_sql::Statement::Insert { .. }));
    }

    #[test]
    fn batches_cover_every_row_in_order() {
        let d = IntTable::generate(7, 1, 2 * INGEST_BATCH + 5);
        let sizes: Vec<usize> = d.batches().map(|b| b.len()).collect();
        assert_eq!(sizes, [INGEST_BATCH, INGEST_BATCH, 5]);
        let ids: Vec<i64> = d.batches().flatten().map(|r| r[0]).collect();
        assert_eq!(ids, (0..d.len() as i64).collect::<Vec<_>>());
    }
}
