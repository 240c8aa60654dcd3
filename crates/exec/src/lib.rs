//! # csq-exec — the vectorized, morsel-parallel batch execution engine
//!
//! Operators follow the Volcano pull model (§2.1 of the paper shows the
//! pseudo-code), but pull a whole [`csq_common::RowBatch`] per call via
//! [`Operator::next_batch`] — dynamic dispatch, predicate setup, and buffer
//! allocation are paid once per ~1024 rows instead of once per row (the
//! local-engine analogue of the paper's batching-beats-per-tuple thesis).
//! [`Operator::next`] remains as a row-at-a-time compatibility adapter, so
//! inherently row-oriented operators (the threaded shipping receivers in
//! `csq-ship`) compose into the same plans. See DESIGN.md §2.
//!
//! Serial operators provided here: scan, filter, project, sort, distinct,
//! hash join, merge join, nested-loop join, limit, and in-memory row
//! sources.
//!
//! On top of them sits the morsel-driven parallel layer (DESIGN.md §4): a
//! [`WorkerPool`] plus [`ParallelPipeline`] run filter/project/UDF stages
//! over source morsels with order-preserving gather, and [`Exchange`]
//! hash-partitions the input so key-based operators (hash join, distinct,
//! and other aggregation-style operators) run one private instance per
//! worker and merge at the sink.

pub mod aggregate;
pub mod exchange;
pub mod join;
pub mod ops;
pub mod parallel;
pub mod pool;
pub mod spill;

pub use aggregate::{aggregate_output_schema, aggregate_state_schema, AggSpec, HashAggregate};
pub use exchange::{Exchange, PartitionBuilder};
pub use join::{HashJoin, MergeJoin, NestedLoopJoin};
pub use ops::{
    collect, compare_values, CancelCheck, ColumnarScan, Distinct, Filter, Limit, Operator, Project,
    RowsOp, Sort,
};
pub use parallel::{
    BatchStage, ClosureFactory, FilterStageFactory, ParallelOpts, ParallelPipeline,
    ProjectStageFactory, StageFactory,
};
pub use pool::WorkerPool;
pub use spill::MemoryTracker;

/// A boxed operator, the unit of plan composition.
pub type BoxOp = Box<dyn Operator + Send>;
