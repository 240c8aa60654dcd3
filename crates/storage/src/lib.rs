//! # csq-storage — columnar segment storage and the server catalog
//!
//! Tables are stored as **columnar segments**: inserts land in a
//! row-oriented tail buffer, and every [`Table::segment_rows`] rows the tail
//! is sealed into an immutable [`Segment`] — typed column lanes with null
//! bitmaps, dictionary-encoded strings, and per-column min/max [`ZoneMap`]s.
//! Scans go through [`Table::scan`], which takes a compiled [`FilterSpec`]
//! and prunes whole segments against the zone maps before touching any
//! column data (DESIGN.md §11); [`ScanStats`] reports the
//! pruned/scanned split for EXPLAIN.
//!
//! Optimizer statistics come from [`Table::wire_profile`]: the per-column
//! wire-byte sums each segment records when sealed, plus a walk of the
//! unsealed tail. The row-vector view [`Table::snapshot`] reconstructs the
//! inserted rows exactly; it is the differential oracle that holds the
//! columnar scan and the statistics honest.
//!
//! Tables are snapshot-scanned: a scan observes the segments and tail
//! present when it started, never a torn state, which keeps the threaded
//! shipping strategies race-free without operator-level locking.

mod scan;
mod segment;

pub use scan::{CmpOp, ColPred, FilterSpec, ScanSource, ScanStats, TableScan};
pub use segment::{ColumnSeg, NullBitmap, Segment, SegmentZones, ZoneMap, DEFAULT_SEGMENT_ROWS};

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::RwLock;

use csq_common::{CsqError, DataType, Field, Result, Row, Schema, Value};

#[derive(Debug, Default)]
struct TableInner {
    sealed: Vec<Arc<Segment>>,
    tail: Vec<Row>,
}

impl TableInner {
    fn len(&self) -> usize {
        self.sealed.iter().map(|s| s.len()).sum::<usize>() + self.tail.len()
    }
}

/// A named, typed relation stored as sealed columnar segments plus a
/// row-oriented insert tail.
#[derive(Debug)]
pub struct Table {
    name: String,
    schema: Schema,
    shared_schema: Arc<Schema>,
    segment_rows: usize,
    inner: RwLock<TableInner>,
}

impl Table {
    /// Create an empty table with the default segment size. Field names
    /// must be non-empty and unique (case-insensitive).
    pub fn new(name: impl Into<String>, schema: Schema) -> Result<Table> {
        Table::with_segment_rows(name, schema, DEFAULT_SEGMENT_ROWS)
    }

    /// Create an empty table sealing a segment every `segment_rows` rows
    /// (tests and benches use small segments to exercise pruning on small
    /// tables).
    pub fn with_segment_rows(
        name: impl Into<String>,
        schema: Schema,
        segment_rows: usize,
    ) -> Result<Table> {
        let name = name.into();
        if name.is_empty() {
            return Err(CsqError::Catalog("table name must be non-empty".into()));
        }
        if segment_rows == 0 {
            return Err(CsqError::Catalog(format!(
                "table '{name}': segment size must be at least 1 row"
            )));
        }
        let mut seen = HashMap::new();
        for f in schema.fields() {
            if f.name.is_empty() {
                return Err(CsqError::Catalog(format!(
                    "table '{name}': column names must be non-empty"
                )));
            }
            if seen.insert(f.name.to_ascii_lowercase(), ()).is_some() {
                return Err(CsqError::Catalog(format!(
                    "table '{name}': duplicate column '{}'",
                    f.name
                )));
            }
        }
        let shared_schema = Arc::new(schema.clone());
        Ok(Table {
            name,
            schema,
            shared_schema,
            segment_rows,
            inner: RwLock::new(TableInner::default()),
        })
    }

    /// Table name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The table's schema (fields are unqualified; scans qualify them with
    /// the table alias).
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Rows per sealed segment.
    pub fn segment_rows(&self) -> usize {
        self.segment_rows
    }

    /// Insert a row, checking arity and types (NULL fits any column).
    pub fn insert(&self, row: Row) -> Result<()> {
        self.typecheck(&row)?;
        let mut inner = self.inner.write();
        inner.tail.push(row);
        self.seal_full_tail(&mut inner);
        Ok(())
    }

    /// Insert many rows; all-or-nothing on type errors.
    pub fn insert_all(&self, rows: Vec<Row>) -> Result<()> {
        for r in &rows {
            self.typecheck(r)?;
        }
        let mut inner = self.inner.write();
        inner.tail.extend(rows);
        self.seal_full_tail(&mut inner);
        Ok(())
    }

    fn seal_full_tail(&self, inner: &mut TableInner) {
        while inner.tail.len() >= self.segment_rows {
            let rest = inner.tail.split_off(self.segment_rows);
            let seg = Segment::seal(&self.schema, &inner.tail);
            inner.tail = rest;
            inner.sealed.push(Arc::new(seg));
        }
    }

    /// Seal the unsealed tail into a (possibly short) segment, so zone maps
    /// cover every row. Benches and tests call this after bulk loads;
    /// regular operation seals automatically at `segment_rows`.
    pub fn seal_tail(&self) {
        let mut inner = self.inner.write();
        if !inner.tail.is_empty() {
            let rows = std::mem::take(&mut inner.tail);
            let seg = Segment::seal(&self.schema, &rows);
            inner.sealed.push(Arc::new(seg));
        }
    }

    fn typecheck(&self, row: &Row) -> Result<()> {
        if row.len() != self.schema.len() {
            return Err(CsqError::Type(format!(
                "table '{}': expected {} columns, got {}",
                self.name,
                self.schema.len(),
                row.len()
            )));
        }
        for (i, v) in row.values().iter().enumerate() {
            if let Some(dt) = v.data_type() {
                let expected = self.schema.field(i).dtype;
                if !expected.accepts(dt) {
                    return Err(CsqError::Type(format!(
                        "table '{}', column '{}': expected {}, got {}",
                        self.name,
                        self.schema.field(i).name,
                        expected,
                        dt
                    )));
                }
            }
        }
        Ok(())
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.inner.read().len()
    }

    /// True when the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of sealed segments.
    pub fn segment_count(&self) -> usize {
        self.inner.read().sealed.len()
    }

    /// A consistent snapshot of all rows, reconstructed exactly as inserted
    /// (values are refcounted, so this is cheap relative to the data). This
    /// is the row-vector oracle path: the columnar scan must agree with it.
    pub fn snapshot(&self) -> Vec<Row> {
        let inner = self.inner.read();
        let mut out = Vec::with_capacity(inner.len());
        for seg in &inner.sealed {
            seg.materialize_into(0..seg.len(), &mut out);
        }
        out.extend(inner.tail.iter().cloned());
        out
    }

    /// A pruning scan over the current segments: segments whose zone maps
    /// disprove `spec` are skipped before any column data is touched. The
    /// batches carry `schema` (the caller qualifies it with the scan alias);
    /// its width must match the table's.
    pub fn scan_as(&self, schema: Arc<Schema>, spec: Option<&FilterSpec>) -> Result<TableScan> {
        if schema.len() != self.schema.len() {
            return Err(CsqError::Exec(format!(
                "table '{}': scan schema width {} != table width {}",
                self.name,
                schema.len(),
                self.schema.len()
            )));
        }
        let inner = self.inner.read();
        Ok(TableScan::new(
            schema,
            inner.sealed.clone(),
            inner.tail.clone(),
            spec,
        ))
    }

    /// [`scan_as`](Self::scan_as) with the table's own (unqualified) schema.
    pub fn scan(&self, spec: Option<&FilterSpec>) -> TableScan {
        let inner = self.inner.read();
        TableScan::new(
            self.shared_schema.clone(),
            inner.sealed.clone(),
            inner.tail.clone(),
            spec,
        )
    }

    /// Evaluate `spec` against the current zone maps without scanning: the
    /// pruned/scanned split EXPLAIN renders on scan nodes.
    pub fn prune_stats(&self, spec: Option<&FilterSpec>) -> ScanStats {
        let inner = self.inner.read();
        let pruned = match spec {
            Some(s) => inner.sealed.iter().filter(|seg| s.prunes(seg)).count(),
            None => 0,
        };
        ScanStats {
            segments_total: inner.sealed.len(),
            segments_pruned: pruned,
            tail_rows: inner.tail.len(),
        }
    }

    /// Zone-map profile of every sealed segment (for optimizer statistics).
    pub fn zone_profile(&self) -> Vec<SegmentZones> {
        let inner = self.inner.read();
        inner
            .sealed
            .iter()
            .map(|s| SegmentZones {
                rows: s.len(),
                zones: s.zones(),
            })
            .collect()
    }

    /// Row count and per-column wire bytes (sums of `Value::wire_size`,
    /// schema order) — the inputs of the optimizer's record size `I` and
    /// column shares `A`. Sealed segments answer from the byte sums their
    /// columns recorded when sealed; only the unsealed tail is walked.
    pub fn wire_profile(&self) -> (usize, Vec<u64>) {
        let inner = self.inner.read();
        let mut cols = vec![0u64; self.schema.len()];
        for seg in &inner.sealed {
            for (sum, col) in cols.iter_mut().zip(seg.columns()) {
                *sum += col.wire_bytes();
            }
        }
        for row in &inner.tail {
            for (sum, v) in cols.iter_mut().zip(row.values()) {
                *sum += v.wire_size() as u64;
            }
        }
        (inner.len(), cols)
    }

    /// Average wire size of a row, in bytes — the paper's `I` for this table.
    /// Returns 0.0 for an empty table.
    pub fn avg_row_wire_size(&self) -> f64 {
        let (rows, cols) = self.wire_profile();
        if rows == 0 {
            return 0.0;
        }
        cols.iter().sum::<u64>() as f64 / rows as f64
    }
}

/// Convenience builder used by tests and workload generators.
pub struct TableBuilder {
    name: String,
    fields: Vec<Field>,
    rows: Vec<Row>,
    segment_rows: usize,
}

impl TableBuilder {
    /// Start a builder for table `name`.
    pub fn new(name: impl Into<String>) -> TableBuilder {
        TableBuilder {
            name: name.into(),
            fields: Vec::new(),
            rows: Vec::new(),
            segment_rows: DEFAULT_SEGMENT_ROWS,
        }
    }

    /// Add a column.
    pub fn column(mut self, name: &str, dtype: DataType) -> TableBuilder {
        self.fields.push(Field::new(name, dtype));
        self
    }

    /// Add a row of values.
    pub fn row(mut self, values: Vec<Value>) -> TableBuilder {
        self.rows.push(Row::new(values));
        self
    }

    /// Override the segment size (small segments exercise pruning on small
    /// tables).
    pub fn segment_rows(mut self, rows: usize) -> TableBuilder {
        self.segment_rows = rows;
        self
    }

    /// Build the table, inserting all rows.
    pub fn build(self) -> Result<Table> {
        let t = Table::with_segment_rows(self.name, Schema::new(self.fields), self.segment_rows)?;
        t.insert_all(self.rows)?;
        Ok(t)
    }
}

/// The server catalog: case-insensitive table name → table.
#[derive(Debug, Default)]
pub struct Catalog {
    tables: RwLock<HashMap<String, Arc<Table>>>,
}

impl Catalog {
    /// An empty catalog.
    pub fn new() -> Catalog {
        Catalog::default()
    }

    /// Register a table; errors if a table with the same name exists.
    pub fn register(&self, table: Table) -> Result<Arc<Table>> {
        let key = table.name().to_ascii_lowercase();
        let arc = Arc::new(table);
        let mut tables = self.tables.write();
        if tables.contains_key(&key) {
            return Err(CsqError::Catalog(format!(
                "table '{}' already exists",
                arc.name()
            )));
        }
        tables.insert(key, arc.clone());
        Ok(arc)
    }

    /// Look up a table by (case-insensitive) name.
    pub fn get(&self, name: &str) -> Result<Arc<Table>> {
        self.tables
            .read()
            .get(&name.to_ascii_lowercase())
            .cloned()
            .ok_or_else(|| CsqError::Catalog(format!("unknown table '{name}'")))
    }

    /// Drop a table.
    pub fn drop_table(&self, name: &str) -> Result<()> {
        self.tables
            .write()
            .remove(&name.to_ascii_lowercase())
            .map(|_| ())
            .ok_or_else(|| CsqError::Catalog(format!("unknown table '{name}'")))
    }

    /// Names of all registered tables (sorted).
    pub fn table_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self
            .tables
            .read()
            .values()
            .map(|t| t.name().to_string())
            .collect();
        names.sort();
        names
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use csq_common::Blob;

    fn stock_table() -> Table {
        TableBuilder::new("StockQuotes")
            .column("Name", DataType::Str)
            .column("Close", DataType::Float)
            .column("Quotes", DataType::Blob)
            .row(vec![
                Value::from("acme"),
                Value::Float(100.0),
                Value::Blob(Blob::synthetic(50, 1)),
            ])
            .row(vec![
                Value::from("globex"),
                Value::Float(42.0),
                Value::Blob(Blob::synthetic(50, 2)),
            ])
            .build()
            .unwrap()
    }

    #[test]
    fn build_and_snapshot() {
        let t = stock_table();
        assert_eq!(t.len(), 2);
        let snap = t.snapshot();
        assert_eq!(snap.len(), 2);
        assert_eq!(snap[0].value(0), &Value::from("acme"));
    }

    #[test]
    fn insert_typechecks_arity_and_types() {
        let t = stock_table();
        let short = Row::new(vec![Value::from("x")]);
        assert_eq!(t.insert(short).unwrap_err().kind(), "type");
        let wrong = Row::new(vec![Value::Int(1), Value::Float(1.0), Value::Int(2)]);
        assert_eq!(t.insert(wrong).unwrap_err().kind(), "type");
        assert_eq!(t.len(), 2, "failed inserts must not mutate");
    }

    #[test]
    fn int_widens_to_float_on_insert() {
        let t = stock_table();
        t.insert(Row::new(vec![
            Value::from("initech"),
            Value::Int(7),
            Value::Blob(Blob::synthetic(10, 3)),
        ]))
        .unwrap();
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn null_fits_any_column() {
        let t = stock_table();
        t.insert(Row::new(vec![Value::Null, Value::Null, Value::Null]))
            .unwrap();
    }

    #[test]
    fn duplicate_column_rejected() {
        let r = TableBuilder::new("t")
            .column("a", DataType::Int)
            .column("A", DataType::Int)
            .build();
        assert_eq!(r.unwrap_err().kind(), "catalog");
    }

    #[test]
    fn avg_row_wire_size() {
        let t = TableBuilder::new("t")
            .column("x", DataType::Blob)
            .row(vec![Value::Blob(Blob::synthetic(95, 1))])
            .row(vec![Value::Blob(Blob::synthetic(195, 2))])
            .build()
            .unwrap();
        // Blob wire size = 5 + len → 100 and 200.
        assert!((t.avg_row_wire_size() - 150.0).abs() < 1e-9);
    }

    #[test]
    fn catalog_register_lookup_case_insensitive() {
        let c = Catalog::new();
        c.register(stock_table()).unwrap();
        assert!(c.get("stockquotes").is_ok());
        assert!(c.get("STOCKQUOTES").is_ok());
        assert_eq!(c.get("nope").unwrap_err().kind(), "catalog");
        assert_eq!(c.register(stock_table()).unwrap_err().kind(), "catalog");
        assert_eq!(c.table_names(), vec!["StockQuotes".to_string()]);
        c.drop_table("StockQuotes").unwrap();
        assert!(c.get("StockQuotes").is_err());
    }

    // ---- columnar segment behavior ----------------------------------------

    /// A table of `n` ints 0..n in column `a`, nulls every `null_every`-th
    /// row in column `b`, sealed every 8 rows.
    fn seg_table(n: usize, null_every: usize) -> Table {
        let t = Table::with_segment_rows(
            "seg",
            Schema::new(vec![
                Field::new("a", DataType::Int),
                Field::new("b", DataType::Int),
            ]),
            8,
        )
        .unwrap();
        for i in 0..n {
            let b = if null_every > 0 && i % null_every == 0 {
                Value::Null
            } else {
                Value::Int((i % 3) as i64)
            };
            t.insert(Row::new(vec![Value::Int(i as i64), b])).unwrap();
        }
        t
    }

    fn pred(col: usize, op: CmpOp, lit: Value) -> FilterSpec {
        FilterSpec {
            preds: vec![ColPred { col, op, lit }],
            complete: true,
        }
    }

    #[test]
    fn inserts_seal_segments_and_snapshot_reconstructs() {
        let t = seg_table(20, 3);
        assert_eq!(t.segment_count(), 2, "20 rows at 8/segment → 2 sealed");
        assert_eq!(t.len(), 20);
        let snap = t.snapshot();
        assert_eq!(snap.len(), 20);
        for (i, r) in snap.iter().enumerate() {
            assert_eq!(r.value(0), &Value::Int(i as i64));
        }
        assert_eq!(snap[0].value(1), &Value::Null);
    }

    #[test]
    fn zone_maps_prune_disjoint_segments() {
        let t = seg_table(32, 0);
        t.seal_tail();
        assert_eq!(t.segment_count(), 4);
        // a > 23: only the last segment (24..32) can match.
        let spec = pred(0, CmpOp::Gt, Value::Int(23));
        let stats = t.prune_stats(Some(&spec));
        assert_eq!(stats.segments_total, 4);
        assert_eq!(stats.segments_pruned, 3);
        // The scan returns exactly the surviving segment's rows.
        let mut scan = t.scan(Some(&spec));
        let mut rows = Vec::new();
        while let Some(b) = scan.next_batch() {
            rows.extend(b.into_rows());
        }
        assert_eq!(rows.len(), 8);
        assert_eq!(rows[0].value(0), &Value::Int(24));
        assert_eq!(scan.stats().segments_pruned, 3);
    }

    #[test]
    fn pruned_scan_equals_oracle_filter() {
        let t = seg_table(40, 3);
        t.seal_tail();
        let spec = pred(0, CmpOp::LtEq, Value::Int(10));
        let mut scan = t.scan(Some(&spec));
        let mut scanned = Vec::new();
        while let Some(b) = scan.next_batch() {
            scanned.extend(b.into_rows());
        }
        // The scan may over-deliver (pruning is conservative) but never
        // under-deliver: every oracle row satisfying the pred must be there.
        let oracle: Vec<Row> = t
            .snapshot()
            .into_iter()
            .filter(|r| matches!(r.value(0), Value::Int(v) if *v <= 10))
            .collect();
        for r in &oracle {
            assert!(scanned.iter().any(|s| s == r), "missing row {r:?}");
        }
    }

    #[test]
    fn all_null_segment_prunes_comparisons() {
        let t = Table::with_segment_rows(
            "nulls",
            Schema::new(vec![Field::new("a", DataType::Int)]),
            4,
        )
        .unwrap();
        for _ in 0..4 {
            t.insert(Row::new(vec![Value::Null])).unwrap();
        }
        assert_eq!(t.segment_count(), 1);
        let stats = t.prune_stats(Some(&pred(0, CmpOp::Eq, Value::Int(1))));
        assert_eq!(
            stats.segments_pruned, 1,
            "all-NULL comparisons are unknown → no row passes"
        );
    }

    #[test]
    fn constant_column_prunes_not_equal() {
        let t = Table::with_segment_rows(
            "konst",
            Schema::new(vec![Field::new("a", DataType::Int)]),
            4,
        )
        .unwrap();
        for _ in 0..4 {
            t.insert(Row::new(vec![Value::Int(7)])).unwrap();
        }
        let stats = t.prune_stats(Some(&pred(0, CmpOp::NotEq, Value::Int(7))));
        assert_eq!(stats.segments_pruned, 1);
        let stats = t.prune_stats(Some(&pred(0, CmpOp::Eq, Value::Int(7))));
        assert_eq!(stats.segments_pruned, 0);
    }

    #[test]
    fn cross_type_literal_never_prunes() {
        let t = seg_table(8, 0);
        t.seal_tail();
        // Comparing an INT column to a STR literal errors at filter time;
        // pruning must not hide that.
        let stats = t.prune_stats(Some(&pred(0, CmpOp::Gt, Value::from("x"))));
        assert_eq!(stats.segments_pruned, 0);
    }

    #[test]
    fn string_dictionary_roundtrips_and_prunes() {
        let t =
            Table::with_segment_rows("s", Schema::new(vec![Field::new("name", DataType::Str)]), 4)
                .unwrap();
        for name in ["aa", "aa", "bb", "bb", "yy", "yy", "zz", "zz"] {
            t.insert(Row::new(vec![Value::from(name)])).unwrap();
        }
        assert_eq!(t.segment_count(), 2);
        {
            let inner = t.inner.read();
            assert_eq!(inner.sealed[0].columns()[0].dict_len(), Some(2));
        }
        let stats = t.prune_stats(Some(&pred(0, CmpOp::GtEq, Value::from("yy"))));
        assert_eq!(stats.segments_pruned, 1, "first segment maxes at 'bb'");
        let snap = t.snapshot();
        assert_eq!(snap[2].value(0), &Value::from("bb"));
    }

    #[test]
    fn tail_is_always_scanned() {
        let t = seg_table(10, 0); // 8 sealed + 2 tail
        assert_eq!(t.segment_count(), 1);
        let spec = pred(0, CmpOp::Gt, Value::Int(100));
        let mut scan = t.scan(Some(&spec));
        let stats = scan.stats();
        assert_eq!(stats.segments_pruned, 1);
        assert_eq!(stats.tail_rows, 2);
        let mut rows = Vec::new();
        while let Some(b) = scan.next_batch() {
            rows.extend(b.into_rows());
        }
        assert_eq!(rows.len(), 2, "tail rows survive; the filter decides");
    }

    #[test]
    fn incomplete_spec_does_not_prune_on_unknowns() {
        // Column b has NULLs; `b < 0` is disproved for non-null values but
        // rows with NULL b evaluate later conjuncts, which an incomplete
        // spec cannot certify error-free.
        let t = seg_table(8, 2);
        t.seal_tail();
        let mut spec = pred(1, CmpOp::Lt, Value::Int(0));
        spec.complete = false;
        assert_eq!(t.prune_stats(Some(&spec)).segments_pruned, 0);
        spec.complete = true;
        assert_eq!(t.prune_stats(Some(&spec)).segments_pruned, 1);
    }
}
