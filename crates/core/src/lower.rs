//! Plan lowering: optimizer [`PlanNode`] trees → execution.
//!
//! Two backends share this module:
//!
//! * **Threaded** ([`execute_threaded`]): each `ApplyUdf` node gets its own
//!   in-memory duplex and client thread; joins/filters run as iterator
//!   operators; the final projection is evaluated on the caller's thread.
//! * **Simulated** ([`execute_simulated`]): operators materialize rows
//!   bottom-up; each `ApplyUdf` runs the virtual-time executor and its
//!   timing/bytes accumulate into a [`SimSummary`] (phases are sequential —
//!   a conservative approximation of the pipelined reality, documented in
//!   DESIGN.md).
//!
//! Execution-semantics notes: `leave-on-client` and `merged-with-final`
//! strategies differ from plain variants only in *cost* (what crosses the
//! uplink when); row semantics are identical, so both backends execute them
//! as their plain counterparts and the savings show up in the optimizer's
//! estimates and the cost-model benches.

use csq_client::spawn_client_with_token;
use csq_common::{codec, CancelToken, CsqError, Field, Result, Row, Schema};
use csq_exec::{
    collect, AggSpec, CancelCheck, ColumnarScan, Filter, HashAggregate, NestedLoopJoin, Operator,
    RowsOp,
};
use csq_expr::{analysis, bind, PhysExpr};
use csq_net::in_memory_duplex;
use csq_opt::{AggPlacement, AggregateSpec, PlanNode, QueryGraph, UdfStrategy, Unit};
use csq_ship::{
    simulate_client_join, simulate_semijoin, ClientJoinSpec, PartialAggSpec, SemiJoinSpec,
    UdfApplication,
};
use csq_storage::{FilterSpec, ScanSource};

use crate::result::QueryResult;
use crate::Database;

/// Default pipeline concurrency factor for the threaded engine (the
/// simulated engine sweeps this; for the unthrottled correctness path any
/// reasonable value works).
const DEFAULT_CONCURRENCY: usize = 16;

/// Aggregated virtual-time accounting for one query.
#[derive(Debug, Clone, Default)]
pub struct SimSummary {
    /// Total virtual time, µs (client-site phases + final delivery;
    /// server-site operators are free per the paper's assumption).
    pub elapsed_us: u64,
    /// Total downlink bytes.
    pub down_bytes: u64,
    /// Total uplink bytes.
    pub up_bytes: u64,
    /// Total client CPU, µs.
    pub client_cpu_us: u64,
    /// Downlink messages.
    pub down_messages: u64,
    /// Uplink messages.
    pub up_messages: u64,
    /// Number of client-site execution phases (ApplyUdf nodes).
    pub phases: usize,
}

impl SimSummary {
    fn absorb(&mut self, run: &csq_ship::SimRun) {
        self.elapsed_us += run.elapsed_us;
        self.down_bytes += run.down_bytes;
        self.up_bytes += run.up_bytes;
        self.client_cpu_us += run.client_cpu_us;
        self.down_messages += run.down_messages;
        self.up_messages += run.up_messages;
        self.phases += 1;
    }

    /// Elapsed time in seconds.
    pub fn elapsed_secs(&self) -> f64 {
        self.elapsed_us as f64 / 1e6
    }
}

/// Field describing a UDF unit's appended result column.
fn result_field(graph: &QueryGraph, unit: usize) -> Field {
    match &graph.units[unit] {
        Unit::Udf {
            result_col, meta, ..
        } => Field::new(result_col.clone(), meta.return_type),
        Unit::Rel { .. } => unreachable!("result_field on relation unit"),
    }
}

/// Resolve a UDF unit's argument columns against the current schema.
fn resolve_args(graph: &QueryGraph, unit: usize, schema: &Schema) -> Result<Vec<usize>> {
    let Unit::Udf { args, .. } = &graph.units[unit] else {
        unreachable!()
    };
    args.iter()
        .map(|c| schema.index_of(c.qualifier.as_deref(), &c.name))
        .collect()
}

/// Bind the conjunction of predicate indices against a schema.
pub(crate) fn bind_preds(
    graph: &QueryGraph,
    preds: &[usize],
    schema: &Schema,
) -> Result<Option<PhysExpr>> {
    let exprs: Vec<_> = preds
        .iter()
        .map(|&p| graph.predicates[p].expr.clone())
        .collect();
    match analysis::conjoin(exprs) {
        Some(e) => Ok(Some(bind(&e, schema)?)),
        None => Ok(None),
    }
}

/// Bind a grouped-aggregation spec against the inner plan's schema: group
/// key ordinals plus one bound [`AggSpec`] per call.
fn bind_aggregate(spec: &AggregateSpec, schema: &Schema) -> Result<(Vec<usize>, Vec<AggSpec>)> {
    let key: Vec<usize> = spec
        .group_by
        .iter()
        .map(|c| schema.index_of(c.qualifier.as_deref(), &c.name))
        .collect::<Result<_>>()?;
    let aggs: Vec<AggSpec> = spec
        .calls
        .iter()
        .map(|call| {
            let arg = call.arg.as_ref().map(|e| bind(e, schema)).transpose()?;
            Ok(AggSpec::new(call.func, arg, call.result_col.clone()))
        })
        .collect::<Result<Vec<_>>>()?;
    Ok((key, aggs))
}

/// Execute the aggregation layer over materialized rows (shared by the
/// simulated backend and tests). `placement` picks the decomposition:
/// client-only runs one single-phase pass; server-partial runs the partial
/// phase, round-trips the decomposed state through the wire codec (the
/// bytes a networked deployment would ship), and finishes from the decoded
/// states. Row semantics are identical by construction — the differential
/// suite holds both against a naive reference.
fn apply_aggregate(
    spec: &AggregateSpec,
    placement: AggPlacement,
    schema: &Schema,
    rows: Vec<Row>,
) -> Result<(Schema, Vec<Row>)> {
    let (key, aggs) = bind_aggregate(spec, schema)?;
    let input: csq_exec::BoxOp = Box::new(RowsOp::new(schema.clone(), rows));
    let (out_schema, out_rows) = match placement {
        AggPlacement::ClientOnly => {
            let mut agg = HashAggregate::new(input, key, aggs);
            let s = agg.schema().clone();
            (s, collect(&mut agg)?)
        }
        AggPlacement::ServerPartial => {
            let pspec = PartialAggSpec::new(key, aggs);
            let (s, r, _wire_bytes) = pspec.ship_through_wire(input)?;
            (s, r)
        }
        // Shard-partial plans belong to the coordinator (csq_core::coord),
        // which merges per-shard states itself; a single-node executor has
        // no shards to scatter over.
        AggPlacement::ShardPartial => {
            return Err(CsqError::Plan(
                "shard-partial aggregation requires a coordinator".into(),
            ))
        }
    };
    match &spec.having {
        Some(h) => {
            let pred = bind(h, &out_schema)?;
            let mut kept = Vec::with_capacity(out_rows.len());
            for r in out_rows {
                if pred.eval_predicate(&r)? {
                    kept.push(r);
                }
            }
            Ok((out_schema, kept))
        }
        None => Ok((out_schema, out_rows)),
    }
}

/// Build a scan leaf: a columnar [`ColumnarScan`] over the unit's table,
/// with the prunable prefix of `preds` compiled to a [`FilterSpec`] so zone
/// maps can skip whole segments, wrapped in the per-leaf cancellation
/// checkpoint.
fn scan_leaf(
    db: &Database,
    graph: &QueryGraph,
    unit: usize,
    preds: Option<(&[usize], &QueryGraph)>,
    token: &CancelToken,
) -> Result<Box<dyn Operator + Send>> {
    let Unit::Rel { alias, table, .. } = &graph.units[unit] else {
        return Err(CsqError::Plan("scan of non-relation unit".into()));
    };
    let t = db.catalog().get(table)?;
    let spec = match preds {
        Some((ps, g)) => {
            let schema = t.schema().qualify(alias);
            bind_preds(g, ps, &schema)?.and_then(|p| FilterSpec::from_phys(&p))
        }
        None => None,
    };
    // The scan is where a long plan spends its pull loop, so the
    // cancellation checkpoint lives right above every leaf: each batch
    // boundary observes the token.
    Ok(Box::new(CancelCheck::new(
        Box::new(ColumnarScan::new(&t, alias, spec.as_ref())?),
        token.clone(),
    )))
}

fn udf_application(graph: &QueryGraph, unit: usize, schema: &Schema) -> Result<UdfApplication> {
    let Unit::Udf { name, .. } = &graph.units[unit] else {
        unreachable!()
    };
    Ok(UdfApplication::new(
        name,
        resolve_args(graph, unit, schema)?,
        result_field(graph, unit),
    ))
}

// ---- threaded backend ------------------------------------------------------

fn build_threaded(
    db: &Database,
    graph: &QueryGraph,
    node: &PlanNode,
    token: &CancelToken,
) -> Result<Box<dyn Operator + Send>> {
    match node {
        PlanNode::Scan { unit } => scan_leaf(db, graph, *unit, None, token),
        PlanNode::Join { left, right } => {
            let l = build_threaded(db, graph, left, token)?;
            let r = build_threaded(db, graph, right, token)?;
            Ok(Box::new(NestedLoopJoin::new(l, r, None)))
        }
        PlanNode::Filter { input, preds } => {
            // A filter directly over a scan pushes its prunable prefix down
            // as a FilterSpec: whole segments disproved by zone maps are
            // skipped before any row is materialized. The full predicate is
            // still applied above — the spec only rules segments out.
            if let PlanNode::Scan { unit } = input.as_ref() {
                let child = scan_leaf(db, graph, *unit, Some((preds, graph)), token)?;
                let pred = bind_preds(graph, preds, child.schema())?
                    .ok_or_else(|| CsqError::Plan("empty filter".into()))?;
                return Ok(Box::new(Filter::new(child, pred)));
            }
            let child = build_threaded(db, graph, input, token)?;
            let pred = bind_preds(graph, preds, child.schema())?
                .ok_or_else(|| CsqError::Plan("empty filter".into()))?;
            Ok(Box::new(Filter::new(child, pred)))
        }
        PlanNode::ReturnToServer { input } => build_threaded(db, graph, input, token),
        // Scatter/gather belong to the coordinator (csq_core::coord), which
        // never lowers them — it generates per-shard SQL instead.
        PlanNode::Scatter { .. } | PlanNode::Gather { .. } => Err(CsqError::Plan(
            "scatter/gather plan reached a single-node executor".into(),
        )),
        PlanNode::Aggregate {
            input, placement, ..
        } => {
            let child = build_threaded(db, graph, input, token)?;
            let spec = graph
                .aggregate
                .as_ref()
                .ok_or_else(|| CsqError::Plan("Aggregate node without an aggregate spec".into()))?;
            let schema = child.schema().clone();
            let (key, aggs) = bind_aggregate(spec, &schema)?;
            let mut op: Box<dyn Operator + Send> = match placement {
                AggPlacement::ClientOnly => {
                    Box::new(HashAggregate::new(child, key, aggs).with_memory(db.memory_tracker()))
                }
                AggPlacement::ServerPartial => {
                    // The server-side partial phase reduces rows to groups,
                    // the decomposed state crosses the wire through the
                    // partial-aggregate codec, and the client finishes from
                    // the decoded states.
                    let pspec = PartialAggSpec::new(key, aggs);
                    let (out_schema, rows, _wire_bytes) = pspec.ship_through_wire(child)?;
                    Box::new(RowsOp::new(out_schema, rows))
                }
                AggPlacement::ShardPartial => {
                    return Err(CsqError::Plan(
                        "shard-partial aggregation requires a coordinator".into(),
                    ))
                }
            };
            if let Some(h) = &spec.having {
                let pred = bind(h, op.schema())?;
                op = Box::new(Filter::new(op, pred));
            }
            Ok(op)
        }
        PlanNode::Final {
            input,
            pushed_preds,
            ..
        } => {
            // Like Filter: predicates landing directly on a scan also prune.
            let child = if let (PlanNode::Scan { unit }, false) =
                (input.as_ref(), pushed_preds.is_empty())
            {
                scan_leaf(db, graph, *unit, Some((pushed_preds, graph)), token)?
            } else {
                build_threaded(db, graph, input, token)?
            };
            match bind_preds(graph, pushed_preds, child.schema())? {
                Some(pred) => Ok(Box::new(Filter::new(child, pred))),
                None => Ok(child),
            }
        }
        PlanNode::ApplyUdf {
            input,
            unit,
            strategy,
        } => {
            let child = build_threaded(db, graph, input, token)?;
            let schema = child.schema().clone();
            let app = udf_application(graph, *unit, &schema)?;
            let (server_end, client_end, _stats) = in_memory_duplex();
            // Client thread per client-site operator; detached — it exits
            // when the operator closes the connection *or* the query's
            // cancel token trips (checked at every received batch).
            let _client =
                spawn_client_with_token(db.client_runtime().clone(), client_end, token.clone())?;
            match strategy {
                UdfStrategy::SemiJoin { .. } => {
                    let spec = SemiJoinSpec::new(vec![app], DEFAULT_CONCURRENCY);
                    Ok(Box::new(csq_ship::ThreadedSemiJoin::new(
                        child, spec, server_end,
                    )?))
                }
                UdfStrategy::ClientJoin { pushed_preds, .. } => {
                    let extended = schema.with_field(result_field(graph, *unit));
                    let mut spec = ClientJoinSpec::new(vec![app]);
                    spec.pushed_predicate = bind_preds(graph, pushed_preds, &extended)?;
                    Ok(Box::new(csq_ship::ThreadedClientJoin::new(
                        child, spec, server_end,
                    )?))
                }
            }
        }
    }
}

/// Project the final operator output onto the query's SELECT list, using
/// the vectorized `Project` operator (pure-column outputs move values out
/// of the intermediate rows instead of cloning them).
pub(crate) fn project_output(
    graph: &QueryGraph,
    schema: &Schema,
    rows: Vec<Row>,
) -> Result<QueryResult> {
    let out = graph.final_output();
    let mut exprs = Vec::with_capacity(out.len());
    for (e, name) in out {
        let pe = bind(e, schema)?;
        let dtype = pe.infer_type(schema).unwrap_or(csq_common::DataType::Str);
        exprs.push((pe, Field::new(name.clone(), dtype)));
    }
    let mut project = csq_exec::Project::new(Box::new(RowsOp::new(schema.clone(), rows)), exprs);
    let out_rows = collect(&mut project)?;
    Ok(QueryResult {
        schema: project.schema().clone(),
        rows: out_rows,
        affected: 0,
    })
}

/// Execute an optimized SELECT on the threaded engine.
pub fn execute_threaded(
    db: &Database,
    graph: &QueryGraph,
    plan: &csq_opt::OptimizedPlan,
) -> Result<QueryResult> {
    execute_threaded_with(db, graph, plan, &CancelToken::new())
}

/// Execute an optimized SELECT on the threaded engine under a cancellation
/// token (deadline expiry or an explicit `cancel()` surfaces as a typed
/// `timeout`/`cancelled` error at the next operator batch boundary).
pub fn execute_threaded_with(
    db: &Database,
    graph: &QueryGraph,
    plan: &csq_opt::OptimizedPlan,
    token: &CancelToken,
) -> Result<QueryResult> {
    let op = build_threaded(db, graph, &plan.root, token)?;
    // A second checkpoint above the root catches plans whose leaves run
    // inside feeder threads (exchange, shipping operators).
    let mut op = CancelCheck::new(op, token.clone());
    let rows = collect(&mut op)?;
    let schema = op.schema().clone();
    drop(op);
    token.check()?;
    project_output(graph, &schema, rows)
}

// ---- simulated backend -----------------------------------------------------

fn run_simulated(
    db: &Database,
    graph: &QueryGraph,
    node: &PlanNode,
    summary: &mut SimSummary,
) -> Result<(Schema, Vec<Row>)> {
    match node {
        PlanNode::Scan { unit } => {
            let Unit::Rel { alias, table, .. } = &graph.units[*unit] else {
                return Err(CsqError::Plan("scan of non-relation unit".into()));
            };
            let t = db.catalog().get(table)?;
            let mut scan = t.scan(None);
            let mut rows = Vec::with_capacity(scan.remaining_rows());
            while let Some(batch) = scan.next_batch() {
                rows.extend(batch.into_rows());
            }
            Ok((t.schema().qualify(alias), rows))
        }
        PlanNode::Join { left, right } => {
            let (ls, lr) = run_simulated(db, graph, left, summary)?;
            let (rs, rr) = run_simulated(db, graph, right, summary)?;
            let mut j = NestedLoopJoin::new(
                Box::new(RowsOp::new(ls, lr)),
                Box::new(RowsOp::new(rs, rr)),
                None,
            );
            let rows = collect(&mut j)?;
            Ok((j.schema().clone(), rows))
        }
        PlanNode::Filter { input, preds }
        | PlanNode::Final {
            input,
            pushed_preds: preds,
            ..
        } => {
            let (schema, rows) = run_simulated(db, graph, input, summary)?;
            match bind_preds(graph, preds, &schema)? {
                Some(pred) => {
                    let mut kept = Vec::with_capacity(rows.len());
                    for r in rows {
                        if pred.eval_predicate(&r)? {
                            kept.push(r);
                        }
                    }
                    Ok((schema, kept))
                }
                None => Ok((schema, rows)),
            }
        }
        PlanNode::ReturnToServer { input } => run_simulated(db, graph, input, summary),
        PlanNode::Scatter { .. } | PlanNode::Gather { .. } => Err(CsqError::Plan(
            "scatter/gather plan reached a single-node executor".into(),
        )),
        PlanNode::Aggregate {
            input, placement, ..
        } => {
            let (schema, rows) = run_simulated(db, graph, input, summary)?;
            let spec = graph
                .aggregate
                .as_ref()
                .ok_or_else(|| CsqError::Plan("Aggregate node without an aggregate spec".into()))?;
            // Placement changes what crosses the wire, not the rows; like
            // leave-on-client/merged-final, the byte savings live in the
            // optimizer's estimates (see module docs), so both placements
            // execute the same decomposition here.
            apply_aggregate(spec, *placement, &schema, rows)
        }
        PlanNode::ApplyUdf {
            input,
            unit,
            strategy,
        } => {
            let (schema, rows) = run_simulated(db, graph, input, summary)?;
            let app = udf_application(graph, *unit, &schema)?;
            let net = db.network();
            match strategy {
                UdfStrategy::SemiJoin { .. } => {
                    let spec = SemiJoinSpec::new(vec![app], DEFAULT_CONCURRENCY);
                    let run =
                        simulate_semijoin(&schema, rows, &spec, db.client_runtime().clone(), &net)?;
                    summary.absorb(&run);
                    Ok((schema.with_field(result_field(graph, *unit)), run.rows))
                }
                UdfStrategy::ClientJoin { pushed_preds, .. } => {
                    let extended = schema.with_field(result_field(graph, *unit));
                    let mut spec = ClientJoinSpec::new(vec![app]);
                    spec.pushed_predicate = bind_preds(graph, pushed_preds, &extended)?;
                    let run = simulate_client_join(
                        &schema,
                        rows,
                        &spec,
                        db.client_runtime().clone(),
                        &net,
                    )?;
                    summary.absorb(&run);
                    Ok((extended, run.rows))
                }
            }
        }
    }
}

/// Execute an optimized SELECT on the virtual-time engine.
pub fn execute_simulated(
    db: &Database,
    graph: &QueryGraph,
    plan: &csq_opt::OptimizedPlan,
) -> Result<(QueryResult, SimSummary)> {
    let mut summary = SimSummary::default();
    let (schema, rows) = run_simulated(db, graph, &plan.root, &mut summary)?;
    let result = project_output(graph, &schema, rows)?;
    // Final delivery: ship the projected output to the client over the
    // downlink (the plain Final operator; merged-final savings are an
    // optimizer-estimate concern, see module docs).
    let net = db.network();
    let mut payload = Vec::new();
    codec::encode_rows(&result.rows, &mut payload);
    let mut down = net.make_downlink();
    let (_, arrival) = down.transmit(0, net.downlink_bytes(payload.len()));
    summary.elapsed_us += arrival;
    summary.down_bytes += down.bytes_sent();
    summary.down_messages += 1;
    Ok((result, summary))
}
