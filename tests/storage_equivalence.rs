//! Differential oracle for the columnar storage layer (DESIGN.md §11):
//! zone-map pruning and operator spilling are *performance* features, so
//! every path here is checked against an independent reference that never
//! prunes and never spills.
//!
//! * Pruned columnar scans ([`ColumnarScan`] compiled from a [`FilterSpec`])
//!   must return exactly what a row-at-a-time [`Filter`] over the table's
//!   row-vector [`Table::snapshot`] returns — including all-NULL columns,
//!   constant columns, NULL literals, and predicates on unordered (mixed
//!   lane) columns.
//! * Optimizer statistics ([`stats_from_table`], built from the segments'
//!   seal-time byte sums plus the unsealed tail) must equal a row-by-row
//!   recount over the snapshot bit for bit, so plans cannot depend on how
//!   a table is split into segments.
//! * [`HashAggregate`] and [`HashJoin`] under a deliberately tiny
//!   [`MemoryTracker`] budget (forcing partition spills on nearly every
//!   batch) must produce the same row multisets as the unbudgeted in-memory
//!   operators.
//!
//! Failing seeds persist under `proptest-regressions/` via the vendored
//! proptest shim and replay on every `cargo test`.

use std::sync::Arc;

use proptest::prelude::*;

use csq_common::{Blob, DataType, Field, Row, Schema, Value};
use csq_exec::ops::{ColumnarScan, Filter, RowsOp};
use csq_exec::{collect, AggSpec, HashAggregate, HashJoin, MemoryTracker};
use csq_expr::{AggFunc, BinaryOp, PhysExpr};
use csq_opt::context::{stats_from_table, TableStats};
use csq_storage::{FilterSpec, Table};

fn col(i: usize) -> PhysExpr {
    PhysExpr::Column(i)
}

fn lit(v: Value) -> PhysExpr {
    PhysExpr::Literal(v)
}

fn bin(left: PhysExpr, op: BinaryOp, right: PhysExpr) -> PhysExpr {
    PhysExpr::Binary {
        left: Box::new(left),
        op,
        right: Box::new(right),
    }
}

fn scan_schema() -> Schema {
    Schema::new(vec![
        Field::new("i", DataType::Int),
        Field::new("f", DataType::Float),
        Field::new("s", DataType::Str),
        Field::new("b", DataType::Bool),
    ])
}

/// Values skewed toward zone-map edge cases: heavy NULL rates, narrow
/// ranges (so whole segments go constant), and the occasional stray Int in
/// the float column to force the `Values` fallback lane + unordered zones.
fn arb_scan_row() -> impl Strategy<Value = Row> {
    (
        prop_oneof![
            (-20i64..20).prop_map(Value::Int),
            (-20i64..20).prop_map(Value::Int),
            Just(Value::Int(7)),
            Just(Value::Null),
            Just(Value::Null),
        ],
        prop_oneof![
            (-8i64..8).prop_map(|i| Value::Float(i as f64 * 0.5)),
            (-8i64..8).prop_map(|i| Value::Float(i as f64 * 0.5)),
            Just(Value::Int(3)),
            Just(Value::Null),
        ],
        prop_oneof![
            (0usize..4).prop_map(|k| Value::from(["a", "bb", "ccc", "dd"][k])),
            (0usize..4).prop_map(|k| Value::from(["a", "bb", "ccc", "dd"][k])),
            Just(Value::Null),
        ],
        prop_oneof![
            any::<bool>().prop_map(Value::Bool),
            any::<bool>().prop_map(Value::Bool),
            Just(Value::Null),
        ],
    )
        .prop_map(|(a, b, c, d)| Row::new(vec![a, b, c, d]))
}

/// One pushable conjunct: `column <cmp> literal`, sometimes with a NULL or
/// cross-type literal to exercise the opaque/unknown classifications.
fn arb_conjunct() -> impl Strategy<Value = PhysExpr> {
    let cmp = prop_oneof![
        Just(BinaryOp::Eq),
        Just(BinaryOp::NotEq),
        Just(BinaryOp::Lt),
        Just(BinaryOp::LtEq),
        Just(BinaryOp::Gt),
        Just(BinaryOp::GtEq),
    ];
    let literal = prop_oneof![
        (-20i64..20).prop_map(Value::Int),
        (-20i64..20).prop_map(Value::Int),
        (-20i64..20).prop_map(Value::Int),
        (-8i64..8).prop_map(|i| Value::Float(i as f64 * 0.5)),
        (0usize..4).prop_map(|k| Value::from(["a", "bb", "ccc", "dd"][k])),
        Just(Value::Null),
    ];
    (0usize..4, cmp, literal).prop_map(|(c, op, v)| bin(col(c), op, lit(v)))
}

fn and_chain(mut conjuncts: Vec<PhysExpr>) -> PhysExpr {
    let mut e = conjuncts.pop().expect("nonempty");
    while let Some(c) = conjuncts.pop() {
        e = bin(c, BinaryOp::And, e);
    }
    e
}

fn build_table(rows: &[Row], segment_rows: usize) -> Arc<Table> {
    let t = Table::with_segment_rows("t", scan_schema(), segment_rows).unwrap();
    t.insert_all(rows.to_vec()).unwrap();
    Arc::new(t)
}

/// The differential: pruned columnar scan + residual filter versus a
/// row-at-a-time filter over the row-vector snapshot. Errors must agree in
/// kind (cross-type comparisons are type errors on both paths); successes
/// must agree on the exact row sequence, not just the multiset.
fn assert_scan_equivalent(rows: &[Row], segment_rows: usize, pred: &PhysExpr) {
    let table = build_table(rows, segment_rows);
    let spec = FilterSpec::from_phys(pred);

    let scan = ColumnarScan::new(&table, "t", spec.as_ref()).unwrap();
    let columnar = collect(&mut Filter::new(Box::new(scan), pred.clone()));

    let oracle_src = RowsOp::new(scan_schema().qualify("t"), table.snapshot());
    let oracle = collect(&mut Filter::new(Box::new(oracle_src), pred.clone()));

    match (columnar, oracle) {
        (Ok(c), Ok(o)) => assert_eq!(c, o, "pruned scan diverged from snapshot oracle"),
        (Err(c), Err(o)) => assert_eq!(c.kind(), o.kind(), "error kinds diverged"),
        (c, o) => panic!("one path errored, the other did not: {c:?} vs {o:?}"),
    }
}

fn stats_schema() -> Schema {
    let mut fields = scan_schema().fields().to_vec();
    fields.push(Field::new("o", DataType::Blob));
    Schema::new(fields)
}

/// [`arb_scan_row`] plus a BLOB column (NULL or 0–40 bytes).
fn arb_stats_row() -> impl Strategy<Value = Row> {
    let blob = prop_oneof![
        (0usize..40, any::<u64>()).prop_map(|(n, seed)| Value::Blob(Blob::synthetic(n, seed))),
        Just(Value::Null),
    ];
    (arb_scan_row(), blob).prop_map(|(r, b)| {
        let mut values = r.values().to_vec();
        values.push(b);
        Row::new(values)
    })
}

/// The statistics recounted row by row over the snapshot.
fn reference_stats(table: &Table) -> TableStats {
    let rows = table.snapshot();
    let n = rows.len().max(1) as f64;
    let mut col_bytes = vec![0.0; table.schema().len()];
    let mut total = 0.0;
    for r in &rows {
        for (i, v) in r.values().iter().enumerate() {
            col_bytes[i] += v.wire_size() as f64;
        }
        total += r.wire_size() as f64;
    }
    TableStats {
        schema: table.schema().clone(),
        rows: rows.len() as f64,
        row_bytes: total / n,
        col_bytes: col_bytes.iter().map(|c| c / n).collect(),
        segments: table.zone_profile(),
    }
}

fn assert_stats_exact(table: &Table) {
    let got = stats_from_table(table);
    let want = reference_stats(table);
    assert_eq!(got.schema, want.schema);
    assert_eq!(got.rows.to_bits(), want.rows.to_bits(), "rows");
    assert_eq!(
        got.row_bytes.to_bits(),
        want.row_bytes.to_bits(),
        "row_bytes"
    );
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&got.col_bytes), bits(&want.col_bytes), "col_bytes");
    assert_eq!(
        format!("{:?}", got.segments),
        format!("{:?}", want.segments),
        "segments"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn table_stats_match_snapshot_recount(
        batches in prop::collection::vec(prop::collection::vec(arb_stats_row(), 0..60), 0..5),
        segment_rows in prop_oneof![Just(1usize), Just(7), Just(32)],
        seal_tail in any::<bool>(),
    ) {
        let table = Table::with_segment_rows("t", stats_schema(), segment_rows).unwrap();
        assert_stats_exact(&table);
        for batch in batches {
            table.insert_all(batch).unwrap();
            assert_stats_exact(&table);
        }
        if seal_tail {
            table.seal_tail();
            assert_stats_exact(&table);
        }
    }

    #[test]
    fn pruned_scan_matches_row_oracle(
        rows in prop::collection::vec(arb_scan_row(), 0..300),
        segment_rows in prop_oneof![Just(7usize), Just(32), Just(64)],
        conjuncts in prop::collection::vec(arb_conjunct(), 1..4),
    ) {
        assert_scan_equivalent(&rows, segment_rows, &and_chain(conjuncts));
    }

    #[test]
    fn spilling_aggregate_matches_in_memory_aggregate(
        rows in prop::collection::vec(arb_scan_row(), 0..200),
    ) {
        let schema = scan_schema();
        let aggs = || vec![
            AggSpec::new(AggFunc::Count, None, "n"),
            AggSpec::new(AggFunc::Sum, Some(col(0)), "si"),
            AggSpec::new(AggFunc::Min, Some(col(2)), "ms"),
        ];
        let src = || Box::new(RowsOp::new(schema.clone(), rows.clone()));

        let mut plain = HashAggregate::new(src(), vec![2, 3], aggs());
        let reference = collect(&mut plain);

        let tracker = MemoryTracker::new(0); // spill on every batch boundary
        let mut spilling =
            HashAggregate::new(src(), vec![2, 3], aggs()).with_memory(tracker);
        let spilled = collect(&mut spilling);

        match (reference, spilled) {
            (Ok(a), Ok(b)) => {
                let mut a: Vec<String> = a.iter().map(|r| format!("{r}")).collect();
                let mut b: Vec<String> = b.iter().map(|r| format!("{r}")).collect();
                a.sort();
                b.sort();
                prop_assert_eq!(a, b);
                if !rows.is_empty() {
                    prop_assert!(spilling.spill_events() > 0, "budget 0 must force a spill");
                }
            }
            (Err(a), Err(b)) => prop_assert_eq!(a.kind(), b.kind()),
            (a, b) => panic!("one engine errored, the other did not: {a:?} vs {b:?}"),
        }
    }

    #[test]
    fn grace_join_matches_in_memory_join(
        left in prop::collection::vec(arb_scan_row(), 0..150),
        right in prop::collection::vec(arb_scan_row(), 0..150),
    ) {
        let schema = scan_schema();
        let mk = |rows: &[Row]| Box::new(RowsOp::new(schema.clone(), rows.to_vec()));

        let mut plain = HashJoin::new(mk(&left), mk(&right), vec![0], vec![0]);
        let reference = collect(&mut plain).unwrap();

        let tracker = MemoryTracker::new(0);
        let mut grace =
            HashJoin::new(mk(&left), mk(&right), vec![0], vec![0]).with_memory(tracker);
        let spilled = collect(&mut grace).unwrap();

        let mut a: Vec<String> = reference.iter().map(|r| format!("{r}")).collect();
        let mut b: Vec<String> = spilled.iter().map(|r| format!("{r}")).collect();
        a.sort();
        b.sort();
        prop_assert_eq!(a, b);
        if !right.is_empty() {
            prop_assert!(grace.spill_events() > 0, "budget 0 must force a grace spill");
        }
    }
}

/// Deterministic edge cases the strategies only hit probabilistically.
mod pinned {
    use super::*;

    #[test]
    fn table_stats_exact_over_every_lane_with_sealed_segments_and_tail() {
        let table = Table::with_segment_rows("t", stats_schema(), 4).unwrap();
        assert_stats_exact(&table); // empty
        let rows: Vec<Row> = (0..10i64)
            .map(|i| {
                Row::new(vec![
                    if i % 3 == 0 {
                        Value::Null
                    } else {
                        Value::Int(i)
                    },
                    // INT widened into the FLOAT column: a mixed `Values` lane.
                    if i % 2 == 0 {
                        Value::Int(i)
                    } else {
                        Value::Float(i as f64 / 4.0)
                    },
                    Value::from(["a", "bb", "ccc"][i as usize % 3]),
                    if i == 5 {
                        Value::Null
                    } else {
                        Value::Bool(i % 2 == 0)
                    },
                    if i % 4 == 1 {
                        Value::Null
                    } else {
                        Value::Blob(Blob::synthetic(i as usize * 7, i as u64))
                    },
                ])
            })
            .collect();
        table.insert_all(rows).unwrap();
        assert_eq!(table.segment_count(), 2);
        assert_eq!(table.prune_stats(None).tail_rows, 2);
        assert_stats_exact(&table);
        let stats = stats_from_table(&table);
        assert_eq!(stats.rows, 10.0);
        assert_eq!(stats.segments.len(), 2);
    }

    #[test]
    fn all_null_column_prunes_comparisons_but_survives_not_null_filters() {
        let rows: Vec<Row> = (0..64)
            .map(|i| {
                Row::new(vec![
                    Value::Null,
                    Value::Float(i as f64),
                    Value::Null,
                    Value::Null,
                ])
            })
            .collect();
        // `i > 5` is UNKNOWN on every row of an all-NULL column: zero rows
        // either way, and with the complete-spec rule every segment prunes.
        let pred = bin(col(0), BinaryOp::Gt, lit(Value::Int(5)));
        assert_scan_equivalent(&rows, 16, &pred);

        let table = build_table(&rows, 16);
        let spec = FilterSpec::from_phys(&pred).unwrap();
        let stats = table.prune_stats(Some(&spec));
        assert_eq!(
            stats.segments_pruned, stats.segments_total,
            "all-NULL column must prune every sealed segment"
        );
    }

    #[test]
    fn constant_column_prunes_inequality_and_keeps_equality() {
        let rows: Vec<Row> = (0..64)
            .map(|i| {
                Row::new(vec![
                    Value::Int(42),
                    Value::Float(i as f64),
                    Value::Null,
                    Value::Null,
                ])
            })
            .collect();
        for (pred, expect_rows) in [
            (bin(col(0), BinaryOp::NotEq, lit(Value::Int(42))), 0usize),
            (bin(col(0), BinaryOp::Eq, lit(Value::Int(42))), 64),
            (bin(col(0), BinaryOp::Eq, lit(Value::Int(41))), 0),
        ] {
            assert_scan_equivalent(&rows, 16, &pred);
            let table = build_table(&rows, 16);
            let spec = FilterSpec::from_phys(&pred);
            let scan = ColumnarScan::new(&table, "t", spec.as_ref()).unwrap();
            let got = collect(&mut Filter::new(Box::new(scan), pred.clone())).unwrap();
            assert_eq!(got.len(), expect_rows);
        }
    }

    /// The acceptance workload: an aggregation whose state exceeds a 64 MiB
    /// budget must complete by spilling and still match an independently
    /// computed answer exactly.
    #[test]
    fn forced_spill_aggregate_at_64mib_budget_is_oracle_exact() {
        const GROUPS: usize = 70_000;
        let schema = Schema::new(vec![
            Field::new("k", DataType::Str),
            Field::new("v", DataType::Int),
        ]);
        // ~1 KiB keys x 70k distinct groups ≈ 76 MB of tracked state.
        let rows: Vec<Row> = (0..GROUPS)
            .map(|i| {
                Row::new(vec![
                    Value::from(format!("{i:0>1024}")),
                    Value::Int(i as i64),
                ])
            })
            .collect();

        let tracker = MemoryTracker::new(64 * 1024 * 1024);
        let mut agg = HashAggregate::new(
            Box::new(RowsOp::new(schema, rows)),
            vec![0],
            vec![
                AggSpec::new(AggFunc::Sum, Some(col(1)), "s"),
                AggSpec::new(AggFunc::Count, None, "n"),
            ],
        )
        .with_memory(tracker.clone());
        let out = collect(&mut agg).unwrap();

        assert!(
            agg.spill_events() > 0,
            "workload must exceed the 64 MiB budget"
        );
        assert!(tracker.spill_count() > 0);
        assert_eq!(out.len(), GROUPS);
        for r in &out {
            let Value::Str(k) = r.value(0) else {
                panic!("key column must be a string")
            };
            let i: i64 = k.as_str().trim_start_matches('0').parse().unwrap_or(0);
            assert_eq!(r.value(1), &Value::Int(i), "SUM for group {i}");
            assert_eq!(r.value(2), &Value::Int(1), "COUNT for group {i}");
        }
    }
}
