//! Core operators: sources, filter, project, sort, distinct, limit.
//!
//! Since the vectorized-engine rework, every operator here is *batch
//! native*: it implements [`Operator::next_batch`] by processing a whole
//! [`RowBatch`] at a time (amortizing dynamic dispatch and allocation), and
//! the row-at-a-time [`Operator::next`] is a thin compatibility adapter that
//! hands out rows from an internal carry buffer. See DESIGN.md §2.

use std::cmp::Ordering;
use std::sync::Arc;

use csq_common::{CsqError, Field, Result, Row, RowBatch, Schema, Value, DEFAULT_BATCH_SIZE};
use csq_expr::{BinaryOp, PhysExpr};
use csq_storage::{FilterSpec, ScanSource, ScanStats, Table, TableScan};

/// A pull operator. The engine-facing interface is [`Operator::next_batch`];
/// `next` exists so row-at-a-time callers (and operators that are inherently
/// row-oriented, like the threaded shipping receivers) keep working.
pub trait Operator {
    /// Output schema.
    fn schema(&self) -> &Schema;

    /// Produce the next row, or `None` when exhausted.
    fn next(&mut self) -> Result<Option<Row>>;

    /// Produce the next batch of rows, or `None` when exhausted. Returned
    /// batches are never empty. The default adapter accumulates up to
    /// [`DEFAULT_BATCH_SIZE`] rows via [`Operator::next`]; batch-native
    /// operators override it.
    fn next_batch(&mut self) -> Result<Option<RowBatch>> {
        let mut rows = Vec::new();
        while rows.len() < DEFAULT_BATCH_SIZE {
            match self.next()? {
                Some(r) => rows.push(r),
                None => break,
            }
        }
        if rows.is_empty() {
            return Ok(None);
        }
        Ok(Some(RowBatch::from_rows(
            Arc::new(self.schema().clone()),
            rows,
        )))
    }

    /// An upper bound on the rows this operator still expects to produce,
    /// when cheaply known (exact for sources and count-preserving
    /// operators). Used by [`collect`] and batch accumulators as a
    /// capacity hint; `None` when nothing useful is known.
    fn size_hint(&self) -> Option<usize> {
        None
    }
}

/// Cap on rows preallocated from a size hint: hints are upper bounds (a
/// selective filter forwards its input's), so an uncapped
/// `with_capacity(hint)` could transiently allocate input-sized buffers
/// for tiny outputs. Past the cap, `Vec` doubling amortizes fine.
const MAX_HINTED_CAPACITY: usize = 64 * DEFAULT_BATCH_SIZE;

/// Drain an operator into a vector, preallocating from its size hint.
pub fn collect(op: &mut dyn Operator) -> Result<Vec<Row>> {
    let hint = op.size_hint().unwrap_or(0).min(MAX_HINTED_CAPACITY);
    let mut out = Vec::with_capacity(hint);
    while let Some(batch) = op.next_batch()? {
        out.extend(batch.into_rows());
    }
    Ok(out)
}

/// Cooperative-cancellation checkpoint: forwards its input unchanged but
/// consults a [`CancelToken`](csq_common::CancelToken) once per pulled batch, surfacing a typed
/// `Cancelled`/`Timeout` error the moment the token trips. Lowering inserts
/// one of these above every source (and the plan root), so a pull anywhere
/// in the tree observes cancellation within one batch of work — the
/// granularity DESIGN.md §10 promises. Zero-cost when the token never
/// fires: one relaxed atomic load per ~1024 rows.
pub struct CancelCheck {
    inner: Box<dyn Operator + Send>,
    token: csq_common::CancelToken,
}

impl CancelCheck {
    /// Wrap `inner`, checking `token` at every batch boundary.
    pub fn new(inner: Box<dyn Operator + Send>, token: csq_common::CancelToken) -> CancelCheck {
        CancelCheck { inner, token }
    }
}

impl Operator for CancelCheck {
    fn schema(&self) -> &Schema {
        self.inner.schema()
    }

    fn next(&mut self) -> Result<Option<Row>> {
        if self.token.should_stop() {
            self.token.check()?;
        }
        self.inner.next()
    }

    fn next_batch(&mut self) -> Result<Option<RowBatch>> {
        self.token.check()?;
        self.inner.next_batch()
    }

    fn size_hint(&self) -> Option<usize> {
        self.inner.size_hint()
    }
}

/// Carry buffer behind the row-compat [`Operator::next`] of batch-native
/// operators: holds the remainder of the last produced batch.
#[derive(Default)]
pub(crate) struct RowCarry {
    rows: std::vec::IntoIter<Row>,
}

impl RowCarry {
    pub(crate) fn pop(&mut self) -> Option<Row> {
        self.rows.next()
    }

    pub(crate) fn refill(&mut self, batch: RowBatch) {
        self.rows = batch.into_rows().into_iter();
    }

    pub(crate) fn len(&self) -> usize {
        self.rows.len()
    }

    /// Hand the buffered remainder back out as a batch (used when a caller
    /// mixes `next` and `next_batch`).
    pub(crate) fn drain(&mut self, schema: &Arc<Schema>) -> Option<RowBatch> {
        if self.rows.len() == 0 {
            return None;
        }
        let rest: Vec<Row> = std::mem::take(&mut self.rows).collect();
        Some(RowBatch::from_rows(schema.clone(), rest))
    }
}

/// Implements [`Operator`] for a batch-native operator type with fields
/// `schema: Arc<Schema>` and `carry: RowCarry` and an inherent method
/// `fn produce(&mut self) -> Result<Option<RowBatch>>` that never returns
/// an empty batch.
macro_rules! batch_operator {
    ($ty:ty) => {
        batch_operator!($ty, hint: |_s: &$ty| None);
    };
    ($ty:ty, hint: $hint:expr) => {
        impl Operator for $ty {
            fn schema(&self) -> &Schema {
                &self.schema
            }

            fn next(&mut self) -> Result<Option<Row>> {
                loop {
                    if let Some(r) = self.carry.pop() {
                        return Ok(Some(r));
                    }
                    match self.produce()? {
                        Some(b) => self.carry.refill(b),
                        None => return Ok(None),
                    }
                }
            }

            fn next_batch(&mut self) -> Result<Option<RowBatch>> {
                if let Some(b) = self.carry.drain(&self.schema) {
                    return Ok(Some(b));
                }
                self.produce()
            }

            fn size_hint(&self) -> Option<usize> {
                #[allow(clippy::redundant_closure_call)]
                ($hint)(self).map(|n: usize| n + self.carry.len())
            }
        }
    };
}
pub(crate) use batch_operator;

/// Batch-native scan over a table's columnar segments with zone-map pruning
/// (DESIGN.md §11): the compiled [`FilterSpec`] — the pushable prefix of the
/// filter above this scan — skips whole segments before any column data is
/// touched. The filter operator above remains authoritative for row-level
/// semantics; pruning only removes segments it would have rejected
/// wholesale. [`RowsOp`] over `Table::snapshot` is the row-vector oracle
/// this scan is differentially tested against.
pub struct ColumnarScan {
    schema: Arc<Schema>,
    scan: TableScan,
    carry: RowCarry,
}

impl ColumnarScan {
    /// Open a pruning scan over `table`, columns qualified with `alias`.
    pub fn new(table: &Arc<Table>, alias: &str, spec: Option<&FilterSpec>) -> Result<ColumnarScan> {
        let schema = Arc::new(table.schema().qualify(alias));
        let scan = table.scan_as(schema.clone(), spec)?;
        Ok(ColumnarScan {
            schema,
            scan,
            carry: RowCarry::default(),
        })
    }

    /// Pruning accounting (segments pruned/scanned, tail rows).
    pub fn scan_stats(&self) -> ScanStats {
        self.scan.stats()
    }

    fn produce(&mut self) -> Result<Option<RowBatch>> {
        Ok(self.scan.next_batch())
    }
}

batch_operator!(ColumnarScan, hint: |s: &ColumnarScan| Some(s.scan.remaining_rows()));

/// Move up to one batch worth of rows out of a materialized iterator.
pub(crate) fn produce_chunk(
    rows: &mut std::vec::IntoIter<Row>,
    schema: &Arc<Schema>,
) -> Result<Option<RowBatch>> {
    let n = rows.len().min(DEFAULT_BATCH_SIZE);
    if n == 0 {
        return Ok(None);
    }
    let chunk: Vec<Row> = rows.by_ref().take(n).collect();
    Ok(Some(RowBatch::from_rows(schema.clone(), chunk)))
}

/// An in-memory row source with an explicit schema (used by shipping
/// operators and tests).
pub struct RowsOp {
    schema: Arc<Schema>,
    rows: std::vec::IntoIter<Row>,
    carry: RowCarry,
}

impl RowsOp {
    /// Wrap rows with their schema.
    pub fn new(schema: Schema, rows: Vec<Row>) -> RowsOp {
        RowsOp {
            schema: Arc::new(schema),
            rows: rows.into_iter(),
            carry: RowCarry::default(),
        }
    }

    fn produce(&mut self) -> Result<Option<RowBatch>> {
        produce_chunk(&mut self.rows, &self.schema)
    }
}

batch_operator!(RowsOp, hint: |s: &RowsOp| Some(s.rows.len()));

/// Pre-resolved literal of a compiled comparison: the typed lanes avoid
/// re-matching the literal's `Value` discriminant on every row.
#[derive(Clone)]
enum CmpLit {
    Float(f64),
    Int(i64),
    Other,
}

/// One compiled `column <cmp> literal` comparison of the batch filter's
/// fast path.
#[derive(Clone)]
pub(crate) struct CmpSpec {
    col: usize,
    op: BinaryOp,
    kind: CmpLit,
    lit: Value,
}

impl CmpSpec {
    fn new(col: usize, op: BinaryOp, lit: Value) -> CmpSpec {
        let kind = match &lit {
            Value::Float(f) => CmpLit::Float(*f),
            Value::Int(i) => CmpLit::Int(*i),
            _ => CmpLit::Other,
        };
        CmpSpec { col, op, kind, lit }
    }

    /// SQL three-valued comparison: `None` is unknown (NULL operand or NaN
    /// ordering); type errors surface exactly like the general evaluator.
    #[inline]
    fn tristate(&self, row: &Row) -> Result<Option<bool>> {
        let v = row.values().get(self.col).ok_or_else(|| {
            CsqError::Exec(format!(
                "column ordinal {} out of bounds for row of width {}",
                self.col,
                row.len()
            ))
        })?;
        // Typed fast lanes for the common scan predicates; everything else
        // (including cross-type and error cases) falls back to sql_cmp,
        // whose NULL/widening/error semantics are authoritative.
        let ord = match (&self.kind, v) {
            (CmpLit::Float(b), Value::Float(a)) => a.partial_cmp(b),
            (CmpLit::Float(b), Value::Int(a)) => (*a as f64).partial_cmp(b),
            (CmpLit::Int(b), Value::Int(a)) => Some(a.cmp(b)),
            _ => v.sql_cmp(&self.lit)?,
        };
        Ok(ord.map(|o| ordering_matches(self.op, o)))
    }
}

/// Specialized predicate forms the batch filter recognizes to skip the
/// expression-tree walk (and its per-row `Value` clones) on the hot path.
/// Cloneable so the parallel engine can hand each worker its own compiled
/// copy without re-analyzing the predicate per worker.
#[derive(Clone)]
pub(crate) enum PredPath {
    /// A conjunction of `column <cmp> literal` comparisons (a single
    /// comparison is a one-element conjunction), evaluated left to right
    /// with short-circuiting — exactly the general evaluator's order.
    Conjunction(Vec<CmpSpec>),
    /// Anything else: full expression evaluation.
    General,
}

impl PredPath {
    pub(crate) fn analyze(pred: &PhysExpr) -> PredPath {
        fn flatten(e: &PhysExpr, out: &mut Vec<CmpSpec>) -> bool {
            match e {
                PhysExpr::Binary { left, op, right } if *op == BinaryOp::And => {
                    flatten(left, out) && flatten(right, out)
                }
                PhysExpr::Binary { left, op, right } if op.is_comparison() => {
                    if let (PhysExpr::Column(col), PhysExpr::Literal(lit)) = (&**left, &**right) {
                        out.push(CmpSpec::new(*col, *op, lit.clone()));
                        true
                    } else {
                        false
                    }
                }
                _ => false,
            }
        }
        let mut specs = Vec::new();
        if flatten(pred, &mut specs) && !specs.is_empty() {
            PredPath::Conjunction(specs)
        } else {
            PredPath::General
        }
    }
}

fn ordering_matches(op: BinaryOp, o: Ordering) -> bool {
    match op {
        BinaryOp::Eq => o == Ordering::Equal,
        BinaryOp::NotEq => o != Ordering::Equal,
        BinaryOp::Lt => o == Ordering::Less,
        BinaryOp::LtEq => o != Ordering::Greater,
        BinaryOp::Gt => o == Ordering::Greater,
        BinaryOp::GtEq => o != Ordering::Less,
        _ => unreachable!("ordering_matches on non-comparison"),
    }
}

/// Filter rows by a bound predicate. Batch-native: each input batch is
/// compacted in place (kept rows are moved, never cloned).
pub struct Filter {
    input: Box<dyn Operator + Send>,
    predicate: PhysExpr,
    path: PredPath,
    schema: Arc<Schema>,
    carry: RowCarry,
}

impl Filter {
    /// Wrap `input` with `predicate`.
    pub fn new(input: Box<dyn Operator + Send>, predicate: PhysExpr) -> Filter {
        let schema = Arc::new(input.schema().clone());
        let path = PredPath::analyze(&predicate);
        Filter {
            input,
            predicate,
            path,
            schema,
            carry: RowCarry::default(),
        }
    }

    fn produce(&mut self) -> Result<Option<RowBatch>> {
        loop {
            let Some(batch) = self.input.next_batch()? else {
                return Ok(None);
            };
            let (schema, mut rows) = batch.into_parts();
            filter_rows(&self.path, &self.predicate, &mut rows)?;
            if !rows.is_empty() {
                return Ok(Some(RowBatch::from_rows(schema, rows)));
            }
        }
    }
}

/// The batch filter kernel, shared by the serial [`Filter`] operator and the
/// parallel engine's per-worker filter stage: compacts `rows` in place (kept
/// rows are moved, never cloned).
///
/// SQL AND over three-valued conjuncts, evaluated in the same order as the
/// expression tree: a definite false short-circuits; unknown does not (later
/// conjuncts may still error, and `unknown AND false` is false).
pub(crate) fn filter_rows(
    path: &PredPath,
    predicate: &PhysExpr,
    rows: &mut Vec<Row>,
) -> Result<()> {
    let mut err = None;
    // Hoist the predicate-path dispatch out of the per-row loop.
    match path {
        PredPath::Conjunction(specs) => rows.retain(|r| {
            if err.is_some() {
                return false;
            }
            let mut unknown = false;
            for spec in specs {
                match spec.tristate(r) {
                    Ok(Some(false)) => return false,
                    Ok(Some(true)) => {}
                    Ok(None) => unknown = true,
                    Err(e) => {
                        err = Some(e);
                        return false;
                    }
                }
            }
            !unknown
        }),
        PredPath::General => rows.retain(|r| {
            if err.is_some() {
                return false;
            }
            match predicate.eval_predicate(r) {
                Ok(b) => b,
                Err(e) => {
                    err = Some(e);
                    false
                }
            }
        }),
    }
    match err {
        Some(e) => Err(e),
        None => Ok(()),
    }
}

// The input's hint is an upper bound for a filter — still useful as a
// preallocation ceiling for `collect`.
batch_operator!(Filter, hint: |s: &Filter| s.input.size_hint());

/// How the batch projection computes its output rows. Cloneable so the
/// parallel engine can hand each worker its own compiled copy.
#[derive(Clone)]
pub(crate) enum ProjPath {
    /// Strictly increasing bare columns: each row is projected *in place*,
    /// reusing its own allocation — no clone, no per-row `Vec`.
    InPlace(Vec<usize>),
    /// Distinct bare columns in arbitrary order: values are moved out of
    /// the consumed row into a fresh vector (no clones).
    Move(Vec<usize>),
    /// General expression evaluation.
    Eval,
}

impl ProjPath {
    pub(crate) fn analyze(exprs: &[PhysExpr]) -> ProjPath {
        let cols: Option<Vec<usize>> = exprs
            .iter()
            .map(|e| match e {
                PhysExpr::Column(i) => Some(*i),
                _ => None,
            })
            .collect();
        let Some(cols) = cols else {
            return ProjPath::Eval;
        };
        if cols.windows(2).all(|w| w[0] < w[1]) {
            return ProjPath::InPlace(cols);
        }
        // Moving a value out of the input row is only sound when no other
        // output column reads the same ordinal.
        let mut sorted = cols.clone();
        sorted.sort_unstable();
        if sorted.windows(2).all(|w| w[0] != w[1]) {
            ProjPath::Move(cols)
        } else {
            ProjPath::Eval
        }
    }
}

/// Evaluate a list of expressions per row, producing a new schema.
/// Batch-native; pure-column projections move (or retitle in place) the
/// values of the consumed input rows instead of cloning them.
pub struct Project {
    input: Box<dyn Operator + Send>,
    exprs: Vec<PhysExpr>,
    path: ProjPath,
    schema: Arc<Schema>,
    carry: RowCarry,
}

impl Project {
    /// `exprs` paired with their output fields.
    pub fn new(input: Box<dyn Operator + Send>, exprs: Vec<(PhysExpr, Field)>) -> Project {
        let (exprs, fields): (Vec<_>, Vec<_>) = exprs.into_iter().unzip();
        let path = ProjPath::analyze(&exprs);
        Project {
            input,
            exprs,
            path,
            schema: Arc::new(Schema::new(fields)),
            carry: RowCarry::default(),
        }
    }

    fn produce(&mut self) -> Result<Option<RowBatch>> {
        let Some(batch) = self.input.next_batch()? else {
            return Ok(None);
        };
        let rows = project_rows(&self.path, &self.exprs, batch.into_rows())?;
        Ok(Some(RowBatch::from_rows(self.schema.clone(), rows)))
    }
}

/// The batch projection kernel, shared by the serial [`Project`] operator
/// and the parallel engine's per-worker project stage. Pure-column
/// projections move (or retitle in place) the values of the consumed rows
/// instead of cloning them.
pub(crate) fn project_rows(
    path: &ProjPath,
    exprs: &[PhysExpr],
    mut rows: Vec<Row>,
) -> Result<Vec<Row>> {
    match path {
        ProjPath::InPlace(cols) => {
            for row in &mut rows {
                row.project_in_place(cols)?;
            }
            Ok(rows)
        }
        ProjPath::Move(cols) => {
            let mut out = Vec::with_capacity(rows.len());
            for row in rows {
                let width = row.len();
                let mut vals = row.into_values();
                let mut picked = Vec::with_capacity(cols.len());
                for &i in cols {
                    let slot = vals.get_mut(i).ok_or_else(|| {
                        CsqError::Exec(format!(
                            "column ordinal {i} out of bounds for row of width {width}"
                        ))
                    })?;
                    picked.push(std::mem::replace(slot, Value::Null));
                }
                out.push(Row::new(picked));
            }
            Ok(out)
        }
        ProjPath::Eval => {
            let mut out = Vec::with_capacity(rows.len());
            for row in &rows {
                let mut vals = Vec::with_capacity(exprs.len());
                for e in exprs {
                    vals.push(e.eval(row)?);
                }
                out.push(Row::new(vals));
            }
            Ok(out)
        }
    }
}

batch_operator!(Project, hint: |s: &Project| s.input.size_hint());

/// Compare two rows on the given key columns with SQL ordering; NULLs sort
/// first, cross-type comparisons are exec errors surfaced at sort time.
pub fn compare_on(a: &Row, b: &Row, key: &[usize]) -> Result<Ordering> {
    compare_on_keys(a, key, b, key)
}

/// Like [`compare_on`] but with separate key-column lists per side (the
/// merge join compares left rows against right rows without materializing
/// projected key rows).
pub fn compare_on_keys(a: &Row, a_key: &[usize], b: &Row, b_key: &[usize]) -> Result<Ordering> {
    debug_assert_eq!(a_key.len(), b_key.len());
    for (&ka, &kb) in a_key.iter().zip(b_key) {
        let ord = compare_values(a.value(ka), b.value(kb))?;
        if ord != Ordering::Equal {
            return Ok(ord);
        }
    }
    Ok(Ordering::Equal)
}

/// SQL ordering of two values with NULLs first; incomparable pairs (NaN
/// against another float, cross-type) are exec errors rather than panics.
/// This is the key-validation primitive shared by [`Sort`]'s fallible
/// comparator and [`crate::HashAggregate`]'s MIN/MAX accumulators, so
/// `ORDER BY` over NaN-bearing aggregate output errors the same way a sort
/// over a NaN-bearing base column does.
pub fn compare_values(va: &Value, vb: &Value) -> Result<Ordering> {
    match (va.is_null(), vb.is_null()) {
        (true, true) => Ok(Ordering::Equal),
        (true, false) => Ok(Ordering::Less),
        (false, true) => Ok(Ordering::Greater),
        (false, false) => va
            .sql_cmp(vb)?
            .ok_or_else(|| CsqError::Exec("incomparable values in sort key".into())),
    }
}

/// Materializing sort on key columns (ascending). The input is drained
/// batch-wise into one buffer (sized from the input's hint), sorted once,
/// and re-emitted in batches.
pub struct Sort {
    input: Option<Box<dyn Operator + Send>>,
    key: Vec<usize>,
    schema: Arc<Schema>,
    sorted: Option<std::vec::IntoIter<Row>>,
    carry: RowCarry,
}

impl Sort {
    /// Sort `input` rows on `key` column ordinals.
    pub fn new(input: Box<dyn Operator + Send>, key: Vec<usize>) -> Sort {
        let schema = Arc::new(input.schema().clone());
        Sort {
            input: Some(input),
            key,
            schema,
            sorted: None,
            carry: RowCarry::default(),
        }
    }

    fn produce(&mut self) -> Result<Option<RowBatch>> {
        if self.sorted.is_none() {
            let mut input = self.input.take().expect("sort input consumed twice");
            let mut rows = collect(input.as_mut())?;
            sort_rows_fallible(&mut rows, &self.key)?;
            self.sorted = Some(rows.into_iter());
        }
        produce_chunk(self.sorted.as_mut().unwrap(), &self.schema)
    }
}

/// Stable bottom-up merge sort that *propagates* comparison errors.
///
/// `slice::sort_by` cannot host a fallible comparator: smuggling errors out
/// as fake `Equal`s makes the relation violate total order, which modern
/// std detects and punishes with a panic. This sort surfaces the first
/// incomparable pair it actually compares as an `Err` — the same
/// lazy-error semantics the engine has always had (a key column whose
/// incomparable values are never reached by any comparison still sorts).
/// On error the contents of `rows` are unspecified (the caller discards).
fn sort_rows_fallible(rows: &mut [Row], key: &[usize]) -> Result<()> {
    let n = rows.len();
    if n < 2 {
        return Ok(());
    }
    let mut src: Vec<Row> = rows.iter_mut().map(std::mem::take).collect();
    let mut dst: Vec<Row> = std::iter::repeat_with(Row::default).take(n).collect();
    let mut width = 1;
    while width < n {
        let mut start = 0;
        while start < n {
            let mid = (start + width).min(n);
            let end = (start + 2 * width).min(n);
            let (mut i, mut j, mut k) = (start, mid, start);
            while i < mid && j < end {
                // Stable: the left run wins ties.
                if compare_on(&src[i], &src[j], key)? != Ordering::Greater {
                    dst[k] = std::mem::take(&mut src[i]);
                    i += 1;
                } else {
                    dst[k] = std::mem::take(&mut src[j]);
                    j += 1;
                }
                k += 1;
            }
            while i < mid {
                dst[k] = std::mem::take(&mut src[i]);
                i += 1;
                k += 1;
            }
            while j < end {
                dst[k] = std::mem::take(&mut src[j]);
                j += 1;
                k += 1;
            }
            start = end;
        }
        std::mem::swap(&mut src, &mut dst);
        width *= 2;
    }
    for (slot, row) in rows.iter_mut().zip(src) {
        *slot = row;
    }
    Ok(())
}

batch_operator!(Sort, hint: |s: &Sort| {
    match &s.sorted {
        Some(it) => Some(it.len()),
        None => s.input.as_ref().and_then(|i| i.size_hint()),
    }
});

/// Hash-based duplicate elimination on the given key columns (or the whole
/// row when `key` is `None`). This is the paper's "Step 0: eliminate
/// duplicates" of the semi-join pipeline. Batch-native; duplicate rows are
/// dropped without cloning anything (only first occurrences enter the seen
/// set).
pub struct Distinct {
    input: Box<dyn Operator + Send>,
    key: Option<Vec<usize>>,
    seen: std::collections::HashSet<Row>,
    schema: Arc<Schema>,
    carry: RowCarry,
}

impl Distinct {
    /// Distinct on all columns.
    pub fn all(input: Box<dyn Operator + Send>) -> Distinct {
        let schema = Arc::new(input.schema().clone());
        Distinct {
            input,
            key: None,
            seen: Default::default(),
            schema,
            carry: RowCarry::default(),
        }
    }

    /// Distinct on a subset of columns (first occurrence wins).
    pub fn on(input: Box<dyn Operator + Send>, key: Vec<usize>) -> Distinct {
        let schema = Arc::new(input.schema().clone());
        Distinct {
            input,
            key: Some(key),
            seen: Default::default(),
            schema,
            carry: RowCarry::default(),
        }
    }

    fn produce(&mut self) -> Result<Option<RowBatch>> {
        loop {
            let Some(batch) = self.input.next_batch()? else {
                return Ok(None);
            };
            let (schema, mut rows) = batch.into_parts();
            rows.retain(|row| match &self.key {
                Some(key) => self.seen.insert(row.project(key)),
                None => {
                    if self.seen.contains(row) {
                        false
                    } else {
                        self.seen.insert(row.clone());
                        true
                    }
                }
            });
            if !rows.is_empty() {
                return Ok(Some(RowBatch::from_rows(schema, rows)));
            }
        }
    }
}

batch_operator!(Distinct, hint: |s: &Distinct| s.input.size_hint());

/// Stop after `n` rows.
pub struct Limit {
    input: Box<dyn Operator + Send>,
    remaining: usize,
    schema: Arc<Schema>,
    carry: RowCarry,
}

impl Limit {
    /// Pass through at most `n` rows.
    pub fn new(input: Box<dyn Operator + Send>, n: usize) -> Limit {
        let schema = Arc::new(input.schema().clone());
        Limit {
            input,
            remaining: n,
            schema,
            carry: RowCarry::default(),
        }
    }

    fn produce(&mut self) -> Result<Option<RowBatch>> {
        if self.remaining == 0 {
            return Ok(None);
        }
        let Some(batch) = self.input.next_batch()? else {
            return Ok(None);
        };
        let (schema, mut rows) = batch.into_parts();
        if rows.len() > self.remaining {
            rows.truncate(self.remaining);
        }
        self.remaining -= rows.len();
        Ok(Some(RowBatch::from_rows(schema, rows)))
    }
}

batch_operator!(Limit, hint: |s: &Limit| {
    s.input.size_hint().map(|n| n.min(s.remaining))
});

#[cfg(test)]
mod tests {
    use super::*;
    use csq_common::{DataType, Value};
    use csq_expr::{bind, Expr};
    use csq_storage::TableBuilder;

    fn int_rows(vals: &[(i64, i64)]) -> (Schema, Vec<Row>) {
        let schema = Schema::new(vec![
            Field::new("a", DataType::Int),
            Field::new("b", DataType::Int),
        ]);
        let rows = vals
            .iter()
            .map(|&(a, b)| Row::new(vec![Value::Int(a), Value::Int(b)]))
            .collect();
        (schema, rows)
    }

    #[test]
    fn scan_qualifies_alias() {
        let t = Arc::new(
            TableBuilder::new("t")
                .column("x", DataType::Int)
                .row(vec![Value::Int(1)])
                .row(vec![Value::Int(2)])
                .build()
                .unwrap(),
        );
        let mut scan = ColumnarScan::new(&t, "T1", None).unwrap();
        assert_eq!(scan.schema().field(0).qualifier.as_deref(), Some("T1"));
        assert_eq!(scan.size_hint(), Some(2));
        assert_eq!(collect(&mut scan).unwrap().len(), 2);
    }

    #[test]
    fn filter_applies_predicate() {
        let (schema, rows) = int_rows(&[(1, 10), (2, 20), (3, 30)]);
        let pred = bind(
            &Expr::binary(
                Expr::col_bare("a"),
                csq_expr::BinaryOp::GtEq,
                Expr::lit(2i64),
            ),
            &schema,
        )
        .unwrap();
        let mut f = Filter::new(Box::new(RowsOp::new(schema, rows)), pred);
        let out = collect(&mut f).unwrap();
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].value(0), &Value::Int(2));
    }

    #[test]
    fn filter_fast_path_matches_general_eval() {
        // Same predicate written as col-cmp-lit (fast path) and wrapped so
        // it falls back to general evaluation; both must agree, including
        // NULL handling.
        let schema = Schema::new(vec![Field::new("a", DataType::Int)]);
        let rows: Vec<Row> = [
            Value::Int(1),
            Value::Null,
            Value::Int(5),
            Value::Int(3),
            Value::Int(-2),
        ]
        .into_iter()
        .map(|v| Row::new(vec![v]))
        .collect();
        let fast = bind(
            &Expr::binary(Expr::col_bare("a"), csq_expr::BinaryOp::Gt, Expr::lit(2i64)),
            &schema,
        )
        .unwrap();
        // `lit < col` is not recognized by the fast path.
        let general = bind(
            &Expr::binary(Expr::lit(2i64), csq_expr::BinaryOp::Lt, Expr::col_bare("a")),
            &schema,
        )
        .unwrap();
        let mut f1 = Filter::new(Box::new(RowsOp::new(schema.clone(), rows.clone())), fast);
        let mut f2 = Filter::new(Box::new(RowsOp::new(schema, rows)), general);
        assert_eq!(collect(&mut f1).unwrap(), collect(&mut f2).unwrap());
    }

    #[test]
    fn project_computes_expressions() {
        let (schema, rows) = int_rows(&[(1, 10), (2, 20)]);
        let sum = bind(
            &Expr::binary(
                Expr::col_bare("a"),
                csq_expr::BinaryOp::Add,
                Expr::col_bare("b"),
            ),
            &schema,
        )
        .unwrap();
        let mut p = Project::new(
            Box::new(RowsOp::new(schema, rows)),
            vec![(sum, Field::new("sum", DataType::Int))],
        );
        assert_eq!(p.schema().field(0).name, "sum");
        let out = collect(&mut p).unwrap();
        assert_eq!(out[0], Row::new(vec![Value::Int(11)]));
        assert_eq!(out[1], Row::new(vec![Value::Int(22)]));
    }

    #[test]
    fn project_move_path_reorders_and_duplicates_fall_back() {
        let (schema, rows) = int_rows(&[(1, 10), (2, 20)]);
        // (b, a): pure distinct columns — exercised by the move fast path.
        let mut p = Project::new(
            Box::new(RowsOp::new(schema.clone(), rows.clone())),
            vec![
                (PhysExpr::Column(1), Field::new("b", DataType::Int)),
                (PhysExpr::Column(0), Field::new("a", DataType::Int)),
            ],
        );
        let out = collect(&mut p).unwrap();
        assert_eq!(out[0], Row::new(vec![Value::Int(10), Value::Int(1)]));
        // (a, a): duplicate ordinal must clone, not move.
        let mut p = Project::new(
            Box::new(RowsOp::new(schema, rows)),
            vec![
                (PhysExpr::Column(0), Field::new("a1", DataType::Int)),
                (PhysExpr::Column(0), Field::new("a2", DataType::Int)),
            ],
        );
        let out = collect(&mut p).unwrap();
        assert_eq!(out[1], Row::new(vec![Value::Int(2), Value::Int(2)]));
    }

    #[test]
    fn sort_orders_with_nulls_first() {
        let schema = Schema::new(vec![Field::new("a", DataType::Int)]);
        let rows = vec![
            Row::new(vec![Value::Int(3)]),
            Row::new(vec![Value::Null]),
            Row::new(vec![Value::Int(1)]),
        ];
        let mut s = Sort::new(Box::new(RowsOp::new(schema, rows)), vec![0]);
        let out = collect(&mut s).unwrap();
        assert_eq!(out[0].value(0), &Value::Null);
        assert_eq!(out[1].value(0), &Value::Int(1));
        assert_eq!(out[2].value(0), &Value::Int(3));
    }

    #[test]
    fn sort_is_stable_on_equal_keys() {
        let (schema, rows) = int_rows(&[(1, 100), (1, 200), (0, 300)]);
        let mut s = Sort::new(Box::new(RowsOp::new(schema, rows)), vec![0]);
        let out = collect(&mut s).unwrap();
        assert_eq!(out[1].value(1), &Value::Int(100));
        assert_eq!(out[2].value(1), &Value::Int(200));
    }

    #[test]
    fn sort_incomparable_errors_instead_of_panicking() {
        // Mixed Int/Str key column: a type error, not a sort_by panic.
        let schema = Schema::new(vec![Field::new("a", DataType::Int)]);
        let rows = vec![
            Row::new(vec![Value::Int(1)]),
            Row::new(vec![Value::from("x")]),
            Row::new(vec![Value::Int(2)]),
        ];
        let mut s = Sort::new(Box::new(RowsOp::new(schema.clone(), rows)), vec![0]);
        assert_eq!(collect(&mut s).unwrap_err().kind(), "type");
        // NaN alongside another float: exec error.
        let rows = vec![
            Row::new(vec![Value::Float(f64::NAN)]),
            Row::new(vec![Value::Float(1.0)]),
        ];
        let mut s = Sort::new(Box::new(RowsOp::new(schema, rows)), vec![0]);
        assert_eq!(collect(&mut s).unwrap_err().kind(), "exec");
    }

    #[test]
    fn sort_handles_large_inputs_stably() {
        // Exercise several merge levels of the fallible sort.
        let schema = Schema::new(vec![
            Field::new("k", DataType::Int),
            Field::new("seq", DataType::Int),
        ]);
        let rows: Vec<Row> = (0..3000)
            .map(|i| Row::new(vec![Value::Int((i * 7 % 13) as i64), Value::Int(i as i64)]))
            .collect();
        let mut s = Sort::new(Box::new(RowsOp::new(schema, rows)), vec![0]);
        let out = collect(&mut s).unwrap();
        assert_eq!(out.len(), 3000);
        for w in out.windows(2) {
            let (a, b) = (
                w[0].value(0).as_i64().unwrap(),
                w[1].value(0).as_i64().unwrap(),
            );
            assert!(a <= b);
            if a == b {
                // Stability: original sequence order preserved within keys.
                assert!(w[0].value(1).as_i64().unwrap() < w[1].value(1).as_i64().unwrap());
            }
        }
    }

    #[test]
    fn project_in_place_rejects_non_monotonic() {
        let mut r = Row::new(vec![Value::Int(1), Value::Int(2)]);
        assert_eq!(r.project_in_place(&[1, 0]).unwrap_err().kind(), "exec");
        let mut r = Row::new(vec![Value::Int(1), Value::Int(2)]);
        assert_eq!(r.project_in_place(&[0, 0]).unwrap_err().kind(), "exec");
    }

    #[test]
    fn distinct_on_key_keeps_first() {
        let (schema, rows) = int_rows(&[(1, 10), (1, 20), (2, 30), (2, 30)]);
        let mut d = Distinct::on(Box::new(RowsOp::new(schema.clone(), rows.clone())), vec![0]);
        let out = collect(&mut d).unwrap();
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].value(1), &Value::Int(10));

        let mut d = Distinct::all(Box::new(RowsOp::new(schema, rows)));
        assert_eq!(collect(&mut d).unwrap().len(), 3);
    }

    #[test]
    fn limit_truncates() {
        let (schema, rows) = int_rows(&[(1, 1), (2, 2), (3, 3)]);
        let mut l = Limit::new(Box::new(RowsOp::new(schema, rows)), 2);
        assert_eq!(l.size_hint(), Some(2));
        assert_eq!(collect(&mut l).unwrap().len(), 2);
        assert!(l.next().unwrap().is_none());
    }

    #[test]
    fn row_and_batch_pulls_can_interleave() {
        let (schema, rows) = int_rows(&[(1, 1), (2, 2), (3, 3), (4, 4)]);
        let mut op = RowsOp::new(schema, rows);
        // One row via the compat adapter...
        assert_eq!(op.next().unwrap().unwrap().value(0), &Value::Int(1));
        // ...then the rest as a batch (drained from the carry + source).
        let mut rest = Vec::new();
        while let Some(b) = op.next_batch().unwrap() {
            rest.extend(b.into_rows());
        }
        assert_eq!(rest.len(), 3);
        assert_eq!(rest[0].value(0), &Value::Int(2));
    }

    #[test]
    fn compare_on_errors_for_incomparable() {
        // Bool vs Int is a type error from Value::sql_cmp.
        let a = Row::new(vec![Value::Bool(true)]);
        let b = Row::new(vec![Value::Int(1)]);
        assert_eq!(compare_on(&a, &b, &[0]).unwrap_err().kind(), "type");
        // NaN vs Float compares (bit order not defined by partial_cmp → exec).
        let a = Row::new(vec![Value::Float(f64::NAN)]);
        let b = Row::new(vec![Value::Float(1.0)]);
        assert_eq!(compare_on(&a, &b, &[0]).unwrap_err().kind(), "exec");
    }
}
