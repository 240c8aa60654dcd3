//! Sealed columnar segments: typed column lanes, null bitmaps, dictionary
//! encoding, and per-column min/max zone maps.
//!
//! A [`Segment`] is an immutable horizontal slice of a table. Inserts
//! accumulate in the table's row-oriented tail; once the tail reaches the
//! table's segment size it is *sealed* into a segment: each column is
//! classified into the narrowest lane that represents its non-null values
//! exactly (`i64`, `f64`, `bool`, a string dictionary, or a fallback lane of
//! raw [`Value`]s), nulls move into a per-column bitmap, and a [`ZoneMap`]
//! records the min/max over non-null values so scans can skip the whole
//! segment when a filter disproves it (see the `scan` module).
//!
//! Sealing is lossless by construction: `Segment::row` reconstructs exactly
//! the values that were inserted (an `INT 7` stored in a FLOAT column comes
//! back as `Value::Int(7)`, not `7.0`), which is what lets the row-vector
//! snapshot path serve as a differential oracle for the columnar scan.

use std::cmp::Ordering;

use csq_common::{Row, Schema, Str, Value};

/// Default number of rows per sealed segment.
pub const DEFAULT_SEGMENT_ROWS: usize = 4096;

/// Fixed-width null bitmap (one bit per row in the segment).
#[derive(Debug, Clone)]
pub struct NullBitmap {
    words: Vec<u64>,
    ones: usize,
}

impl NullBitmap {
    /// An all-zero bitmap covering `len` rows.
    pub fn new(len: usize) -> NullBitmap {
        NullBitmap {
            words: vec![0; len.div_ceil(64)],
            ones: 0,
        }
    }

    /// Mark row `i` as NULL.
    pub fn set(&mut self, i: usize) {
        let (w, b) = (i / 64, i % 64);
        if self.words[w] & (1 << b) == 0 {
            self.words[w] |= 1 << b;
            self.ones += 1;
        }
    }

    /// True when row `i` is NULL.
    pub fn get(&self, i: usize) -> bool {
        let (w, b) = (i / 64, i % 64);
        self.words.get(w).is_some_and(|word| word & (1 << b) != 0)
    }

    /// Number of NULL rows.
    pub fn count_ones(&self) -> usize {
        self.ones
    }
}

/// Per-column min/max statistics over one segment, used for pruning.
///
/// `bounds` covers the **non-null** values only. It is `None` either because
/// the column has no non-null values in this segment (`null_count == rows`)
/// or because no total order could be established over them (mixed
/// incomparable types, NaN) — `unordered` distinguishes the two, because an
/// all-NULL column *can* disprove a comparison (every comparison with NULL is
/// unknown) while an unordered one never prunes.
#[derive(Debug, Clone)]
pub struct ZoneMap {
    /// (min, max) over non-null values, when a total order exists.
    pub bounds: Option<(Value, Value)>,
    /// NULL rows in this segment's column.
    pub null_count: usize,
    /// Total rows in the segment.
    pub rows: usize,
    /// True when `bounds` is `None` despite non-null values being present.
    pub unordered: bool,
}

impl ZoneMap {
    /// True when every row of this column is NULL.
    pub fn all_null(&self) -> bool {
        self.null_count == self.rows
    }

    fn build(values: impl Iterator<Item = Value>, rows: usize) -> ZoneMap {
        let mut bounds: Option<(Value, Value)> = None;
        let mut null_count = 0usize;
        let mut unordered = false;
        for v in values {
            if v.is_null() {
                null_count += 1;
                continue;
            }
            if unordered {
                continue;
            }
            match &mut bounds {
                None => bounds = Some((v.clone(), v)),
                Some((min, max)) => {
                    match v.sql_cmp(min) {
                        Ok(Some(Ordering::Less)) => *min = v.clone(),
                        Ok(Some(_)) => {}
                        // NaN or a cross-type value: no total order, no map.
                        Ok(None) | Err(_) => {
                            unordered = true;
                            continue;
                        }
                    }
                    match v.sql_cmp(max) {
                        Ok(Some(Ordering::Greater)) => *max = v,
                        Ok(Some(_)) => {}
                        Ok(None) | Err(_) => unordered = true,
                    }
                }
            }
        }
        if unordered {
            bounds = None;
        }
        ZoneMap {
            bounds,
            null_count,
            rows,
            unordered,
        }
    }
}

/// Column storage lane: the narrowest representation that keeps the
/// original values reconstructible bit-for-bit.
#[derive(Debug)]
enum ColData {
    /// All non-null values are INT.
    Int { values: Vec<i64>, nulls: NullBitmap },
    /// All non-null values are FLOAT.
    Float { values: Vec<f64>, nulls: NullBitmap },
    /// All non-null values are BOOL.
    Bool {
        values: Vec<bool>,
        nulls: NullBitmap,
    },
    /// All non-null values are STR: dictionary-encoded, `u32::MAX` = NULL.
    StrDict { dict: Vec<Str>, codes: Vec<u32> },
    /// Mixed or non-encodable values (e.g. INT widened into a FLOAT column,
    /// BLOBs): stored as-is. Nulls live inline as `Value::Null`.
    Values(Vec<Value>),
}

/// One sealed column: its lane plus the zone map and wire-byte accounting.
#[derive(Debug)]
pub struct ColumnSeg {
    data: ColData,
    zone: ZoneMap,
    /// Sum of `Value::wire_size` over the column (feeds table statistics
    /// without re-materializing rows).
    wire_bytes: u64,
}

impl ColumnSeg {
    fn build(rows: &[Row], col: usize) -> ColumnSeg {
        let n = rows.len();
        let zone = ZoneMap::build(rows.iter().map(|r| r.value(col).clone()), n);
        let wire_bytes: u64 = rows.iter().map(|r| r.value(col).wire_size() as u64).sum();

        // Classify: a lane is only usable when *every* non-null value is of
        // that exact variant, so reconstruction is lossless.
        let (mut ints, mut floats, mut bools, mut strs, mut others) = (0, 0, 0, 0, 0);
        for r in rows {
            match r.value(col) {
                Value::Null => {}
                Value::Int(_) => ints += 1,
                Value::Float(_) => floats += 1,
                Value::Bool(_) => bools += 1,
                Value::Str(_) => strs += 1,
                _ => others += 1,
            }
        }
        let non_null = ints + floats + bools + strs + others;
        let data = if non_null == ints && ints > 0 {
            let mut values = Vec::with_capacity(n);
            let mut nulls = NullBitmap::new(n);
            for (i, r) in rows.iter().enumerate() {
                match r.value(col) {
                    Value::Int(v) => values.push(*v),
                    _ => {
                        nulls.set(i);
                        values.push(0);
                    }
                }
            }
            ColData::Int { values, nulls }
        } else if non_null == floats && floats > 0 {
            let mut values = Vec::with_capacity(n);
            let mut nulls = NullBitmap::new(n);
            for (i, r) in rows.iter().enumerate() {
                match r.value(col) {
                    Value::Float(v) => values.push(*v),
                    _ => {
                        nulls.set(i);
                        values.push(0.0);
                    }
                }
            }
            ColData::Float { values, nulls }
        } else if non_null == bools && bools > 0 {
            let mut values = Vec::with_capacity(n);
            let mut nulls = NullBitmap::new(n);
            for (i, r) in rows.iter().enumerate() {
                match r.value(col) {
                    Value::Bool(v) => values.push(*v),
                    _ => {
                        nulls.set(i);
                        values.push(false);
                    }
                }
            }
            ColData::Bool { values, nulls }
        } else if non_null == strs && strs > 0 {
            let mut dict: Vec<Str> = Vec::new();
            let mut index: std::collections::HashMap<Str, u32> = std::collections::HashMap::new();
            let mut codes = Vec::with_capacity(n);
            for r in rows {
                match r.value(col) {
                    Value::Str(s) => {
                        let code = *index.entry(s.clone()).or_insert_with(|| {
                            dict.push(s.clone());
                            (dict.len() - 1) as u32
                        });
                        codes.push(code);
                    }
                    _ => codes.push(u32::MAX),
                }
            }
            ColData::StrDict { dict, codes }
        } else {
            ColData::Values(rows.iter().map(|r| r.value(col).clone()).collect())
        };

        ColumnSeg {
            data,
            zone,
            wire_bytes,
        }
    }

    /// The exact value at row `i` (reconstructed from the lane).
    pub fn value(&self, i: usize) -> Value {
        match &self.data {
            ColData::Int { values, nulls } => {
                if nulls.get(i) {
                    Value::Null
                } else {
                    Value::Int(values[i])
                }
            }
            ColData::Float { values, nulls } => {
                if nulls.get(i) {
                    Value::Null
                } else {
                    Value::Float(values[i])
                }
            }
            ColData::Bool { values, nulls } => {
                if nulls.get(i) {
                    Value::Null
                } else {
                    Value::Bool(values[i])
                }
            }
            ColData::StrDict { dict, codes } => match codes[i] {
                u32::MAX => Value::Null,
                c => Value::Str(dict[c as usize].clone()),
            },
            ColData::Values(values) => values[i].clone(),
        }
    }

    /// The column's zone map.
    pub fn zone(&self) -> &ZoneMap {
        &self.zone
    }

    /// Distinct dictionary entries, when dictionary-encoded.
    pub fn dict_len(&self) -> Option<usize> {
        match &self.data {
            ColData::StrDict { dict, .. } => Some(dict.len()),
            _ => None,
        }
    }

    /// NULL rows in this column.
    pub fn null_count(&self) -> usize {
        self.zone.null_count
    }

    /// Sum of `Value::wire_size` over the column, recorded when sealed.
    pub fn wire_bytes(&self) -> u64 {
        self.wire_bytes
    }
}

/// An immutable columnar slice of a table.
#[derive(Debug)]
pub struct Segment {
    rows: usize,
    cols: Vec<ColumnSeg>,
}

impl Segment {
    /// Seal `rows` (all matching `schema` width) into a segment.
    pub fn seal(schema: &Schema, rows: &[Row]) -> Segment {
        let cols: Vec<ColumnSeg> = (0..schema.len())
            .map(|c| ColumnSeg::build(rows, c))
            .collect();
        Segment {
            rows: rows.len(),
            cols,
        }
    }

    /// Rows in this segment.
    pub fn len(&self) -> usize {
        self.rows
    }

    /// True when the segment has no rows (sealing is only invoked on
    /// non-empty tails, so this is `false` in practice).
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// The sealed columns.
    pub fn columns(&self) -> &[ColumnSeg] {
        &self.cols
    }

    /// Reconstruct row `i` exactly as inserted.
    pub fn row(&self, i: usize) -> Row {
        Row::new(self.cols.iter().map(|c| c.value(i)).collect())
    }

    /// Append reconstructed rows `range` into `out`.
    pub fn materialize_into(&self, range: std::ops::Range<usize>, out: &mut Vec<Row>) {
        for i in range {
            out.push(self.row(i));
        }
    }

    /// Per-column zone maps (cloned — cheap, values are refcounted), for
    /// optimizer statistics.
    pub fn zones(&self) -> Vec<ZoneMap> {
        self.cols.iter().map(|c| c.zone.clone()).collect()
    }
}

/// Zone-map profile of one sealed segment, exported to the optimizer via
/// table statistics (so costing can estimate pruning without holding the
/// table lock at plan time).
#[derive(Debug, Clone)]
pub struct SegmentZones {
    /// Rows in the segment.
    pub rows: usize,
    /// One zone map per column.
    pub zones: Vec<ZoneMap>,
}
