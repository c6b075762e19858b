//! Fleet-scale experiment sweeps: one base [`Scenario`] × axis grids,
//! executed on a multi-threaded runner, streamed as JSONL.
//!
//! The paper's contribution is empirical — its claims live in ablations
//! over policy × load × topology grids — and the [`Scenario`] API made
//! *one* such run declarative. This module makes *thousands* cheap: a
//! [`ScenarioSweep`] takes a base scenario plus one-or-more [`Axis`]es
//! (each a named field mutator over a value grid), expands the cross
//! product into labeled scenarios, and executes them on a worker pool
//! ([`ScenarioSweep::run`]) that claims runs from a shared queue so
//! stragglers never serialize the tail. Results stream to a
//! [`SweepSink`] as they complete — a [`JsonlSink`] for durable output, an
//! [`FnSink`] for inline checks — and tabulate into a [`SweepSummary`]
//! (per-axis-value means/min/max), which subsumes the hand-rolled
//! ablation loops the figure harness used to carry.
//!
//! Parallel execution is **deterministic in content**: every run carries
//! the stable index of its grid cell, the simulator substrate is
//! deterministic, and runs share nothing, so the *set* of records is
//! identical for any worker count — JSONL output canonicalizes by
//! sorting lines. The JSON encoding is hand-rolled (serde-free, like the
//! criterion shim's) and write-only: strings are escaped and non-finite
//! floats are guarded to `null`.
//!
//! This is the batch-runner shape of dslab-dag's `experiment.rs` /
//! `run_stats.rs` layer, and the bulk what-if evaluation Lifflander et
//! al. (arXiv:2404.16793) motivate for communication/memory-aware
//! balancing: the simulator becomes a planning service, not a script.

use super::{RunReport, Scenario, Substrate};
use std::fmt;
use std::io::Write;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::Arc;

/// A scenario transformation shared by every run of one axis value.
type Mutator = Arc<dyn Fn(Scenario) -> Scenario + Send + Sync>;

/// One point on an [`Axis`]: a display `label`, a numeric position `x`
/// (for plotting and summaries), and the scenario mutation it applies.
pub struct AxisValue {
    /// Display label (`"0.5"`, `"tree λ=1"`, `"paper-baseline"`).
    pub label: String,
    /// Numeric position on the axis (the value itself for numeric axes,
    /// the value's ordinal for categorical ones).
    pub x: f64,
    mutate: Mutator,
}

impl fmt::Debug for AxisValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("AxisValue")
            .field("label", &self.label)
            .field("x", &self.x)
            .finish_non_exhaustive()
    }
}

/// One named sweep dimension: a field mutator over a value grid.
///
/// ```
/// use nlheat_core::scenario::sweep::Axis;
/// use nlheat_core::balance::{LbSchedule, LbSpec};
///
/// let lambda = Axis::numeric("lambda", &[0.0, 0.5, 1.0], |sc, l| {
///     sc.with_lb(LbSchedule::every(4).with_spec(LbSpec::tree(l)))
/// });
/// assert_eq!(lambda.len(), 3);
/// ```
#[derive(Debug)]
pub struct Axis {
    /// The axis name records and summaries group by.
    pub name: String,
    values: Vec<AxisValue>,
}

impl Axis {
    /// An empty axis to chain [`Axis::value`] onto.
    pub fn new(name: impl Into<String>) -> Self {
        Axis {
            name: name.into(),
            values: Vec::new(),
        }
    }

    /// Append one value: `label` + numeric position `x` + the mutation it
    /// applies (chainable).
    pub fn value(
        mut self,
        label: impl Into<String>,
        x: f64,
        mutate: impl Fn(Scenario) -> Scenario + Send + Sync + 'static,
    ) -> Self {
        self.values.push(AxisValue {
            label: label.into(),
            x,
            mutate: Arc::new(mutate),
        });
        self
    }

    /// A numeric grid: one value per entry of `grid`, labeled by its
    /// display form, all applying the same two-argument mutator.
    pub fn numeric(
        name: impl Into<String>,
        grid: &[f64],
        mutate: impl Fn(Scenario, f64) -> Scenario + Send + Sync + 'static,
    ) -> Self {
        let mutate = Arc::new(mutate);
        let mut axis = Axis::new(name);
        for &v in grid {
            let m = mutate.clone();
            axis.values.push(AxisValue {
                label: format!("{v}"),
                x: v,
                mutate: Arc::new(move |sc| m(sc, v)),
            });
        }
        axis
    }

    /// A categorical axis over whole scenarios (each value *replaces* the
    /// base — the shape the named scenario library sweeps with). `x` is
    /// the entry's ordinal.
    pub fn scenarios(name: impl Into<String>, entries: Vec<(impl Into<String>, Scenario)>) -> Self {
        let mut axis = Axis::new(name);
        for (i, (label, scenario)) in entries.into_iter().enumerate() {
            axis.values.push(AxisValue {
                label: label.into(),
                x: i as f64,
                mutate: Arc::new(move |_| scenario.clone()),
            });
        }
        axis
    }

    /// Number of values on this axis.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True when the axis has no values (rejected by
    /// [`ScenarioSweep::validate`]).
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }
}

/// One realized axis coordinate of a run: which axis, which value.
#[derive(Debug, Clone, PartialEq)]
pub struct AxisPoint {
    /// The axis name.
    pub axis: String,
    /// The value's display label.
    pub label: String,
    /// The value's numeric position.
    pub x: f64,
}

/// One expanded grid cell: a stable index, its axis coordinates, and the
/// fully mutated scenario.
#[derive(Debug, Clone)]
pub struct SweepRun {
    /// Row-major cell index (first axis slowest) — the stable identity
    /// records carry so parallel output canonicalizes by sort.
    pub index: usize,
    /// The axis coordinates of this cell, in axis order.
    pub axes: Vec<AxisPoint>,
    /// The scenario this cell executes.
    pub scenario: Scenario,
}

/// A base [`Scenario`] crossed with one-or-more [`Axis`]es and a
/// `parallelism` knob, executed by [`ScenarioSweep::run`].
pub struct ScenarioSweep {
    /// The scenario every axis mutation starts from.
    pub base: Scenario,
    axes: Vec<Axis>,
    parallelism: usize,
}

impl ScenarioSweep {
    /// A sweep of `base` with no axes yet (a single run) and
    /// `parallelism = 1`.
    pub fn new(base: Scenario) -> Self {
        ScenarioSweep {
            base,
            axes: Vec::new(),
            parallelism: 1,
        }
    }

    /// Add one sweep dimension (chainable). Axes apply in insertion
    /// order; the last axis varies fastest in the expansion.
    pub fn axis(mut self, axis: Axis) -> Self {
        self.axes.push(axis);
        self
    }

    /// Set the worker-pool ceiling of [`ScenarioSweep::run`]. The
    /// effective pool is capped at the host's cores and the grid size;
    /// the result *content* never depends on the worker count.
    pub fn with_parallelism(mut self, parallelism: usize) -> Self {
        self.parallelism = parallelism;
        self
    }

    /// The configured worker count.
    pub fn parallelism(&self) -> usize {
        self.parallelism
    }

    /// Total grid cells (product of axis sizes; 1 with no axes).
    pub fn runs(&self) -> usize {
        self.axes.iter().map(Axis::len).product()
    }

    /// Reject a malformed sweep at build time, before any worker spawns —
    /// mirroring the `LbSpec::validate` / `WorkModel::validate`
    /// conventions.
    ///
    /// # Panics
    /// Panics on zero parallelism, an axis with no values, or two axes
    /// sharing a name (records and summaries group by axis name, so a
    /// duplicate would silently merge two dimensions).
    pub fn validate(&self) {
        assert!(
            self.parallelism >= 1,
            "sweep parallelism must be at least 1 worker"
        );
        for (i, axis) in self.axes.iter().enumerate() {
            assert!(
                !axis.is_empty(),
                "sweep axis {i} ('{}') has no values — an empty axis makes \
                 the whole cross product empty",
                axis.name
            );
            for other in &self.axes[..i] {
                assert!(
                    other.name != axis.name,
                    "duplicate sweep axis name '{}' — records group by axis \
                     name, so every axis needs a distinct one",
                    axis.name
                );
            }
        }
    }

    /// Expand the cross product into labeled runs, in stable row-major
    /// order (first axis slowest, last axis fastest). The returned
    /// scenarios are *not* yet validated — [`ScenarioSweep::run`] does
    /// that up front on the caller's thread.
    ///
    /// # Panics
    /// Panics on a malformed sweep — see [`ScenarioSweep::validate`].
    pub fn expand(&self) -> Vec<SweepRun> {
        self.validate();
        let total = self.runs();
        let mut out = Vec::with_capacity(total);
        for index in 0..total {
            // decode the row-major index into per-axis ordinals
            let mut rest = index;
            let mut ordinals = vec![0usize; self.axes.len()];
            for (slot, axis) in self.axes.iter().enumerate().rev() {
                ordinals[slot] = rest % axis.len();
                rest /= axis.len();
            }
            let mut scenario = self.base.clone();
            let mut axes = Vec::with_capacity(self.axes.len());
            for (axis, &ord) in self.axes.iter().zip(&ordinals) {
                let value = &axis.values[ord];
                scenario = (value.mutate)(scenario);
                axes.push(AxisPoint {
                    axis: axis.name.clone(),
                    label: value.label.clone(),
                    x: value.x,
                });
            }
            out.push(SweepRun {
                index,
                axes,
                scenario,
            });
        }
        out
    }

    /// Execute every grid cell on `substrate` with the configured worker
    /// pool, streaming a [`RunRecord`] (plus the full [`RunReport`]) to
    /// `sink` as each run completes. Workers claim cells from a shared
    /// atomic queue, so a straggler cell never serializes the tail; the
    /// sink runs on the caller's thread, so it needs no synchronization.
    ///
    /// The record *set* is deterministic for a deterministic substrate
    /// (the simulator): only completion order varies with `parallelism`.
    ///
    /// # Panics
    /// Panics on a malformed sweep or an invalid expanded scenario (both
    /// detected on the caller's thread before any worker spawns), and
    /// propagates any panic raised inside a worker's run.
    pub fn run(&self, substrate: &(dyn Substrate + Sync), sink: &mut dyn SweepSink) {
        let runs = self.expand();
        // surface scenario errors here, descriptively, not from a worker
        for run in &runs {
            run.scenario.validate();
        }
        // The knob is an upper bound on concurrency, not a thread quota:
        // cap at the host's cores (oversubscribing a core only adds
        // context switches — on a 1-CPU box a 4-worker sweep would run
        // ~20% *slower* than serial) and at the number of cells.
        let hw = std::thread::available_parallelism().map_or(1, |n| n.get());
        let workers = self.parallelism.min(runs.len()).min(hw).max(1);
        let next = AtomicUsize::new(0);
        let (tx, rx) = mpsc::channel::<(RunRecord, RunReport)>();
        std::thread::scope(|scope| {
            for _ in 0..workers {
                let tx = tx.clone();
                let next = &next;
                let runs = &runs;
                scope.spawn(move || loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(run) = runs.get(i) else { break };
                    let report = substrate.run(&run.scenario);
                    let record = RunRecord::project(run, &report);
                    if tx.send((record, report)).is_err() {
                        break;
                    }
                });
            }
            drop(tx);
            // drain on the caller's thread until every worker is done
            while let Ok((record, report)) = rx.recv() {
                sink.record(&record, &report);
            }
        });
    }

    /// Run and collect the records in grid order — the ergonomic path for
    /// summaries and figure tabulation.
    pub fn run_collect(&self, substrate: &(dyn Substrate + Sync)) -> Vec<RunRecord> {
        let mut records = Vec::with_capacity(self.runs());
        self.run(
            substrate,
            &mut FnSink(|record: &RunRecord, _: &RunReport| records.push(record.clone())),
        );
        records.sort_by_key(|r| r.index);
        records
    }
}

// ---------------------------------------------------------------------
// Records
// ---------------------------------------------------------------------

/// The flattened, JSONL-ready projection of one run: axis coordinates
/// plus the planner-grade measurements of the unified [`RunReport`].
#[derive(Debug, Clone, PartialEq)]
pub struct RunRecord {
    /// Stable grid-cell index ([`SweepRun::index`]).
    pub index: usize,
    /// Which substrate produced the run (`"dist"` or `"sim"`).
    pub substrate: String,
    /// Axis coordinates, in axis order.
    pub axes: Vec<AxisPoint>,
    /// Seconds from step 0 to the last node finishing.
    pub makespan: f64,
    /// Per-node busy seconds.
    pub busy: Vec<f64>,
    /// Total SDs migrated by load balancing.
    pub migrations: usize,
    /// Planner-grade migration payload bytes.
    pub migration_bytes: u64,
    /// The inter-rack share of `migration_bytes`.
    pub inter_rack_migration_bytes: u64,
    /// Planner-grade ghost-exchange bytes between nodes over the run.
    pub ghost_bytes: u64,
    /// The inter-rack share of `ghost_bytes`.
    pub inter_rack_ghost_bytes: u64,
    /// Realized balancing epochs.
    pub epochs: usize,
    /// The recurring ghost cut (bytes/step) the final realized epoch left
    /// behind; `None` when no epoch realized (or no graph was attached).
    pub final_cut_bytes: Option<u64>,
    /// The inter-rack share of `final_cut_bytes`.
    pub final_inter_rack_cut_bytes: Option<u64>,
    /// Epochs where a drift monitor re-invoked the partitioner
    /// ([`crate::balance::EpochTrace::replan`]); 0 without
    /// [`crate::balance::LbSpec::repartition`].
    pub replans: usize,
    /// Peak live/fresh cut ratio ([`crate::balance::EpochTrace::cut_drift`])
    /// seen across the run's epochs; 0.0 when no drift monitor ran.
    pub max_cut_drift: f64,
}

impl RunRecord {
    /// Flatten one completed run.
    pub fn project(run: &SweepRun, report: &RunReport) -> Self {
        let last = report.epoch_traces.last();
        RunRecord {
            index: run.index,
            substrate: report.substrate.to_string(),
            axes: run.axes.clone(),
            makespan: report.makespan,
            busy: report.busy.clone(),
            migrations: report.migrations,
            migration_bytes: report.migration_bytes,
            inter_rack_migration_bytes: report.inter_rack_migration_bytes,
            ghost_bytes: report.ghost_bytes,
            inter_rack_ghost_bytes: report.inter_rack_ghost_bytes,
            epochs: report.epoch_traces.len(),
            final_cut_bytes: last.map(|t| t.ghost_bytes_after),
            final_inter_rack_cut_bytes: last.map(|t| t.inter_rack_ghost_bytes_after),
            replans: report.epoch_traces.iter().filter(|t| t.replan).count(),
            max_cut_drift: report
                .epoch_traces
                .iter()
                .map(|t| t.cut_drift)
                .fold(0.0, f64::max),
        }
    }

    /// The label of the named axis, if this record has it.
    pub fn axis_label(&self, axis: &str) -> Option<&str> {
        self.axes
            .iter()
            .find(|p| p.axis == axis)
            .map(|p| p.label.as_str())
    }

    /// The numeric position on the named axis, if this record has it.
    pub fn axis_x(&self, axis: &str) -> Option<f64> {
        self.axes.iter().find(|p| p.axis == axis).map(|p| p.x)
    }

    /// Encode as one JSON line (no trailing newline): hand-rolled,
    /// serde-free, with escaped strings and non-finite floats guarded to
    /// `null` (JSON has no NaN/∞).
    pub fn to_json_line(&self) -> String {
        let mut s = String::with_capacity(256);
        s.push('{');
        json_uint(&mut s, "run", self.index as u64);
        s.push(',');
        json_str(&mut s, "substrate", &self.substrate);
        s.push_str(",\"axes\":[");
        for (i, p) in self.axes.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push('{');
            json_str(&mut s, "axis", &p.axis);
            s.push(',');
            json_str(&mut s, "label", &p.label);
            s.push(',');
            json_f64(&mut s, "x", p.x);
            s.push('}');
        }
        s.push_str("],");
        json_f64(&mut s, "makespan", self.makespan);
        s.push_str(",\"busy\":[");
        for (i, &b) in self.busy.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            push_f64(&mut s, b);
        }
        s.push_str("],");
        json_uint(&mut s, "migrations", self.migrations as u64);
        s.push(',');
        json_uint(&mut s, "migration_bytes", self.migration_bytes);
        s.push(',');
        json_uint(
            &mut s,
            "inter_rack_migration_bytes",
            self.inter_rack_migration_bytes,
        );
        s.push(',');
        json_uint(&mut s, "ghost_bytes", self.ghost_bytes);
        s.push(',');
        json_uint(
            &mut s,
            "inter_rack_ghost_bytes",
            self.inter_rack_ghost_bytes,
        );
        s.push(',');
        json_uint(&mut s, "epochs", self.epochs as u64);
        s.push(',');
        json_opt_uint(&mut s, "final_cut_bytes", self.final_cut_bytes);
        s.push(',');
        json_opt_uint(
            &mut s,
            "final_inter_rack_cut_bytes",
            self.final_inter_rack_cut_bytes,
        );
        s.push(',');
        json_uint(&mut s, "replans", self.replans as u64);
        s.push(',');
        json_f64(&mut s, "max_cut_drift", self.max_cut_drift);
        s.push('}');
        s
    }
}

/// Append `"key":<uint>`.
fn json_uint(s: &mut String, key: &str, v: u64) {
    s.push('"');
    s.push_str(key);
    s.push_str("\":");
    s.push_str(&v.to_string());
}

/// Append `"key":<uint|null>`.
fn json_opt_uint(s: &mut String, key: &str, v: Option<u64>) {
    match v {
        Some(v) => json_uint(s, key, v),
        None => {
            s.push('"');
            s.push_str(key);
            s.push_str("\":null");
        }
    }
}

/// Append `"key":<float|null>` with the non-finite guard.
fn json_f64(s: &mut String, key: &str, v: f64) {
    s.push('"');
    s.push_str(key);
    s.push_str("\":");
    push_f64(s, v);
}

/// Append a float literal, guarding non-finite values to `null` (JSON has
/// no NaN/∞). Rust's shortest-round-trip `Display` keeps the value exact.
fn push_f64(s: &mut String, v: f64) {
    if v.is_finite() {
        s.push_str(&format!("{v}"));
    } else {
        s.push_str("null");
    }
}

/// Append `"key":"escaped"`.
fn json_str(s: &mut String, key: &str, v: &str) {
    s.push('"');
    s.push_str(key);
    s.push_str("\":");
    push_json_string(s, v);
}

/// Append a JSON string literal with full escaping.
fn push_json_string(s: &mut String, v: &str) {
    s.push('"');
    for c in v.chars() {
        match c {
            '"' => s.push_str("\\\""),
            '\\' => s.push_str("\\\\"),
            '\n' => s.push_str("\\n"),
            '\r' => s.push_str("\\r"),
            '\t' => s.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                s.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => s.push(c),
        }
    }
    s.push('"');
}

// ---------------------------------------------------------------------
// Sinks
// ---------------------------------------------------------------------

/// Consumes results as the runner streams them, on the caller's thread.
pub trait SweepSink {
    /// One completed run: the flattened record plus the full report (for
    /// invariant checks and substrate-specific extras).
    fn record(&mut self, record: &RunRecord, report: &RunReport);
}

/// Streams one JSON line per completed run to any [`Write`] target.
/// Completion order varies with the worker count; the `run` index makes
/// the output canonicalizable by sorting lines.
pub struct JsonlSink<W: Write> {
    writer: W,
    rows: usize,
}

impl<W: Write> JsonlSink<W> {
    pub fn new(writer: W) -> Self {
        JsonlSink { writer, rows: 0 }
    }

    /// Rows written so far.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Flush and hand the writer back.
    ///
    /// # Panics
    /// Panics when the underlying writer fails to flush.
    pub fn into_inner(mut self) -> W {
        self.writer.flush().expect("sweep JSONL flush failed");
        self.writer
    }
}

impl<W: Write> SweepSink for JsonlSink<W> {
    fn record(&mut self, record: &RunRecord, _report: &RunReport) {
        let mut line = record.to_json_line();
        line.push('\n');
        self.writer
            .write_all(line.as_bytes())
            .expect("sweep JSONL write failed");
        self.rows += 1;
    }
}

/// Adapts a closure into a [`SweepSink`] — for inline invariant checks.
pub struct FnSink<F: FnMut(&RunRecord, &RunReport)>(pub F);

impl<F: FnMut(&RunRecord, &RunReport)> SweepSink for FnSink<F> {
    fn record(&mut self, record: &RunRecord, report: &RunReport) {
        (self.0)(record, report);
    }
}

// ---------------------------------------------------------------------
// Summary
// ---------------------------------------------------------------------

/// Aggregates for all runs sharing one axis value.
#[derive(Debug, Clone, PartialEq)]
pub struct GroupStat {
    /// The axis this group belongs to.
    pub axis: String,
    /// The axis value's label.
    pub label: String,
    /// The axis value's numeric position.
    pub x: f64,
    /// Runs in the group.
    pub runs: usize,
    /// Mean makespan seconds across the group.
    pub makespan_mean: f64,
    /// Fastest run in the group.
    pub makespan_min: f64,
    /// Slowest run in the group.
    pub makespan_max: f64,
    /// Mean migrated-SD count.
    pub migrations_mean: f64,
    /// Mean migration payload bytes.
    pub migration_bytes_mean: f64,
    /// Mean inter-rack migration bytes.
    pub inter_rack_migration_bytes_mean: f64,
    /// Mean ghost-exchange bytes.
    pub ghost_bytes_mean: f64,
    /// Mean inter-rack ghost bytes.
    pub inter_rack_ghost_bytes_mean: f64,
}

/// Per-axis-value aggregate table over a record set — the tabulator that
/// subsumes hand-rolled ablation loops: group means/min/max for every
/// value of every axis.
#[derive(Debug, Clone, Default)]
pub struct SweepSummary {
    /// Records summarized.
    pub total_runs: usize,
    /// One entry per (axis, value) pair, whole axes together; values
    /// keep first-seen (grid) order within their axis.
    pub groups: Vec<GroupStat>,
}

impl SweepSummary {
    /// Tabulate a record set (order-insensitive: grouping follows axis
    /// order within the records, not record order).
    pub fn from_records(records: &[RunRecord]) -> Self {
        let mut sorted: Vec<&RunRecord> = records.iter().collect();
        sorted.sort_by_key(|r| r.index);
        let mut groups: Vec<GroupStat> = Vec::new();
        for record in &sorted {
            for point in &record.axes {
                let slot = groups
                    .iter()
                    .position(|g| g.axis == point.axis && g.label == point.label);
                let group = match slot {
                    Some(i) => &mut groups[i],
                    None => {
                        groups.push(GroupStat {
                            axis: point.axis.clone(),
                            label: point.label.clone(),
                            x: point.x,
                            runs: 0,
                            makespan_mean: 0.0,
                            makespan_min: f64::INFINITY,
                            makespan_max: f64::NEG_INFINITY,
                            migrations_mean: 0.0,
                            migration_bytes_mean: 0.0,
                            inter_rack_migration_bytes_mean: 0.0,
                            ghost_bytes_mean: 0.0,
                            inter_rack_ghost_bytes_mean: 0.0,
                        });
                        groups.last_mut().unwrap()
                    }
                };
                group.runs += 1;
                group.makespan_mean += record.makespan;
                group.makespan_min = group.makespan_min.min(record.makespan);
                group.makespan_max = group.makespan_max.max(record.makespan);
                group.migrations_mean += record.migrations as f64;
                group.migration_bytes_mean += record.migration_bytes as f64;
                group.inter_rack_migration_bytes_mean += record.inter_rack_migration_bytes as f64;
                group.ghost_bytes_mean += record.ghost_bytes as f64;
                group.inter_rack_ghost_bytes_mean += record.inter_rack_ghost_bytes as f64;
            }
        }
        // present whole axes together (values stay in first-seen order)
        let mut axis_order: Vec<String> = Vec::new();
        for g in &groups {
            if !axis_order.contains(&g.axis) {
                axis_order.push(g.axis.clone());
            }
        }
        groups.sort_by_key(|g| axis_order.iter().position(|a| *a == g.axis));
        // every group holds at least the run that created it
        for g in &mut groups {
            let n = g.runs as f64;
            g.makespan_mean /= n;
            g.migrations_mean /= n;
            g.migration_bytes_mean /= n;
            g.inter_rack_migration_bytes_mean /= n;
            g.ghost_bytes_mean /= n;
            g.inter_rack_ghost_bytes_mean /= n;
        }
        SweepSummary {
            total_runs: records.len(),
            groups,
        }
    }

    /// The aggregate for one (axis, label) pair.
    pub fn group(&self, axis: &str, label: &str) -> Option<&GroupStat> {
        self.groups
            .iter()
            .find(|g| g.axis == axis && g.label == label)
    }

    /// Every group of one axis, in first-seen (grid) order.
    pub fn axis_groups(&self, axis: &str) -> Vec<&GroupStat> {
        self.groups.iter().filter(|g| g.axis == axis).collect()
    }

    /// Render as a GitHub-flavoured markdown table.
    pub fn to_markdown(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("sweep summary over {} runs\n\n", self.total_runs));
        out.push_str(
            "| axis | value | runs | makespan mean (ms) | min | max | migrations | \
             migration KB | ghost KB |\n",
        );
        out.push_str("|---|---|---|---|---|---|---|---|---|\n");
        for g in &self.groups {
            out.push_str(&format!(
                "| {} | {} | {} | {:.3} | {:.3} | {:.3} | {:.1} | {:.1} | {:.1} |\n",
                g.axis,
                g.label,
                g.runs,
                g.makespan_mean * 1e3,
                g.makespan_min * 1e3,
                g.makespan_max * 1e3,
                g.migrations_mean,
                g.migration_bytes_mean / 1e3,
                g.ghost_bytes_mean / 1e3,
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::balance::{LbSchedule, LbSpec};
    use crate::scenario::{ClusterSpec, DistSubstrate};
    use nlheat_netmodel::NetSpec;

    fn tiny_base() -> Scenario {
        Scenario::square(16, 2.0, 4, 3)
            .on(ClusterSpec::uniform(2, 1))
            .with_net(NetSpec::Instant)
    }

    fn steps_axis() -> Axis {
        Axis::new("steps")
            .value("3", 3.0, |sc: Scenario| sc)
            .value("4", 4.0, |mut sc: Scenario| {
                sc.steps = 4;
                sc
            })
    }

    #[test]
    fn expansion_is_row_major_and_stable() {
        let sweep = ScenarioSweep::new(tiny_base())
            .axis(Axis::numeric("a", &[1.0, 2.0], |sc, _| sc))
            .axis(Axis::numeric("b", &[10.0, 20.0, 30.0], |sc, _| sc));
        assert_eq!(sweep.runs(), 6);
        let runs = sweep.expand();
        assert_eq!(runs.len(), 6);
        // last axis fastest: (a=1,b=10), (a=1,b=20), (a=1,b=30), (a=2,...)
        let coords: Vec<(f64, f64)> = runs.iter().map(|r| (r.axes[0].x, r.axes[1].x)).collect();
        assert_eq!(
            coords,
            vec![
                (1.0, 10.0),
                (1.0, 20.0),
                (1.0, 30.0),
                (2.0, 10.0),
                (2.0, 20.0),
                (2.0, 30.0)
            ]
        );
        for (i, run) in runs.iter().enumerate() {
            assert_eq!(run.index, i);
        }
    }

    #[test]
    fn axis_mutations_compose_in_axis_order() {
        let sweep = ScenarioSweep::new(tiny_base())
            .axis(Axis::new("steps").value("5", 5.0, |mut sc: Scenario| {
                sc.steps = 5;
                sc
            }))
            .axis(
                Axis::new("double-steps").value("x2", 0.0, |mut sc: Scenario| {
                    sc.steps *= 2;
                    sc
                }),
            );
        let runs = sweep.expand();
        assert_eq!(
            runs[0].scenario.steps, 10,
            "second axis sees the first's edit"
        );
    }

    #[test]
    #[should_panic(expected = "has no values")]
    fn empty_axis_rejected() {
        ScenarioSweep::new(tiny_base())
            .axis(Axis::new("empty"))
            .validate();
    }

    #[test]
    #[should_panic(expected = "parallelism must be at least 1")]
    fn zero_parallelism_rejected() {
        ScenarioSweep::new(tiny_base())
            .with_parallelism(0)
            .validate();
    }

    #[test]
    #[should_panic(expected = "duplicate sweep axis name 'a'")]
    fn duplicate_axis_names_rejected() {
        ScenarioSweep::new(tiny_base())
            .axis(Axis::numeric("a", &[1.0], |sc, _| sc))
            .axis(Axis::numeric("a", &[2.0], |sc, _| sc))
            .validate();
    }

    #[test]
    fn no_axes_is_a_single_run() {
        let sweep = ScenarioSweep::new(tiny_base());
        sweep.validate();
        assert_eq!(sweep.runs(), 1);
        let records = sweep.run_collect(&DistSubstrate);
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].index, 0);
        assert!(records[0].axes.is_empty());
    }

    #[test]
    fn runner_streams_every_cell_with_stable_indices() {
        let sweep = ScenarioSweep::new(tiny_base())
            .axis(steps_axis())
            .axis(Axis::new("lb").value("off", 0.0, |sc: Scenario| sc).value(
                "on",
                1.0,
                |sc: Scenario| sc.with_lb(LbSchedule::every(2).with_spec(LbSpec::greedy_steal(1))),
            ))
            .with_parallelism(3);
        let records = sweep.run_collect(&DistSubstrate);
        assert_eq!(records.len(), 4);
        for (i, r) in records.iter().enumerate() {
            assert_eq!(r.index, i);
            assert_eq!(r.substrate, "dist");
            assert_eq!(r.busy.len(), 2);
            assert!(r.makespan > 0.0);
        }
        assert_eq!(records[0].axis_label("lb"), Some("off"));
        assert_eq!(records[1].axis_label("lb"), Some("on"));
        assert_eq!(records[3].axis_x("steps"), Some(4.0));
    }

    #[test]
    fn jsonl_line_pins_escapes_non_finite_floats_and_zeros() {
        // The format, byte for byte: escaped `"`, `\`, `\n`, `\t` and
        // control characters, raw non-ASCII, NaN/±∞/`None` as `null`,
        // 64-bit counters as exact integers, shortest-round-trip floats.
        let record = RunRecord {
            index: 7,
            substrate: "sim".into(),
            axes: vec![AxisPoint {
                axis: "policy \"q\"\\path".into(),
                label: "tree λ=1\n\tπ — ∞ \u{0001}".into(),
                x: 0.5,
            }],
            makespan: f64::NAN,
            busy: vec![1.5e-3, f64::INFINITY, 0.25],
            migrations: 3,
            migration_bytes: u64::MAX,
            inter_rack_migration_bytes: 0,
            ghost_bytes: 1 << 60,
            inter_rack_ghost_bytes: 42,
            epochs: 1,
            final_cut_bytes: Some(99),
            final_inter_rack_cut_bytes: None,
            replans: 2,
            max_cut_drift: f64::INFINITY,
        };
        assert_eq!(
            record.to_json_line(),
            r#"{"run":7,"substrate":"sim","axes":[{"axis":"policy \"q\"\\path","label":"tree λ=1\n\tπ — ∞ \u0001","x":0.5}],"makespan":null,"busy":[0.0015,null,0.25],"migrations":3,"migration_bytes":18446744073709551615,"inter_rack_migration_bytes":0,"ghost_bytes":1152921504606846976,"inter_rack_ghost_bytes":42,"epochs":1,"final_cut_bytes":99,"final_inter_rack_cut_bytes":null,"replans":2,"max_cut_drift":null}"#
        );
        // signed zeros print as `0` and `-0`, never `0.0`
        let zeros = RunRecord {
            index: 0,
            substrate: "dist".into(),
            axes: vec![AxisPoint {
                axis: "x".into(),
                label: "-0".into(),
                x: -0.0,
            }],
            makespan: 0.0,
            busy: vec![-0.0, 0.0],
            migrations: 0,
            migration_bytes: 0,
            inter_rack_migration_bytes: 0,
            ghost_bytes: 0,
            inter_rack_ghost_bytes: 0,
            epochs: 0,
            final_cut_bytes: None,
            final_inter_rack_cut_bytes: Some(0),
            replans: 0,
            max_cut_drift: -0.0,
        };
        assert_eq!(
            zeros.to_json_line(),
            r#"{"run":0,"substrate":"dist","axes":[{"axis":"x","label":"-0","x":-0}],"makespan":0,"busy":[-0,0],"migrations":0,"migration_bytes":0,"inter_rack_migration_bytes":0,"ghost_bytes":0,"inter_rack_ghost_bytes":0,"epochs":0,"final_cut_bytes":null,"final_inter_rack_cut_bytes":0,"replans":0,"max_cut_drift":-0}"#
        );
    }

    /// The real runtime with its wall-clock fields zeroed, so two runs of
    /// one sweep report identical records.
    struct Unclocked;

    impl Substrate for Unclocked {
        fn name(&self) -> &'static str {
            "dist"
        }

        fn run(&self, scenario: &Scenario) -> RunReport {
            let mut report = DistSubstrate.run(scenario);
            report.makespan = 0.0;
            report.busy.fill(0.0);
            report
        }
    }

    #[test]
    fn jsonl_sink_writes_one_line_per_run() {
        let sweep = ScenarioSweep::new(tiny_base()).axis(steps_axis());
        let mut sink = JsonlSink::new(Vec::<u8>::new());
        sweep.run(&Unclocked, &mut sink);
        assert_eq!(sink.rows(), 2);
        let text = String::from_utf8(sink.into_inner()).unwrap();
        let mut lines: Vec<&str> = text.lines().collect();
        lines.sort_unstable();
        let records = sweep.run_collect(&Unclocked);
        let expected: Vec<String> = records.iter().map(RunRecord::to_json_line).collect();
        assert_eq!(lines, expected);
    }

    #[test]
    fn summary_groups_by_axis_value() {
        let mk = |index, label: &str, x, makespan, migrations| RunRecord {
            index,
            substrate: "sim".into(),
            axes: vec![AxisPoint {
                axis: "lambda".into(),
                label: label.into(),
                x,
            }],
            makespan,
            busy: vec![makespan],
            migrations,
            migration_bytes: 1000 * migrations as u64,
            inter_rack_migration_bytes: 0,
            ghost_bytes: 0,
            inter_rack_ghost_bytes: 0,
            epochs: 0,
            final_cut_bytes: None,
            final_inter_rack_cut_bytes: None,
            replans: 0,
            max_cut_drift: 0.0,
        };
        let records = vec![
            mk(0, "0", 0.0, 1.0, 2),
            mk(1, "0", 0.0, 3.0, 4),
            mk(2, "1", 1.0, 5.0, 0),
        ];
        let summary = SweepSummary::from_records(&records);
        assert_eq!(summary.total_runs, 3);
        let g0 = summary.group("lambda", "0").expect("group 0");
        assert_eq!(g0.runs, 2);
        assert!((g0.makespan_mean - 2.0).abs() < 1e-12);
        assert_eq!(g0.makespan_min, 1.0);
        assert_eq!(g0.makespan_max, 3.0);
        assert!((g0.migrations_mean - 3.0).abs() < 1e-12);
        assert!((g0.migration_bytes_mean - 3000.0).abs() < 1e-9);
        let g1 = summary.group("lambda", "1").expect("group 1");
        assert_eq!(g1.runs, 1);
        assert_eq!(summary.axis_groups("lambda").len(), 2);
        let md = summary.to_markdown();
        assert!(md.contains("| lambda | 0 | 2 |"), "{md}");
    }

    #[test]
    fn scenario_axis_replaces_the_base() {
        let sweep = ScenarioSweep::new(tiny_base()).axis(Axis::scenarios(
            "scenario",
            vec![
                ("tiny", tiny_base()),
                (
                    "bigger",
                    Scenario::square(24, 2.0, 4, 2).on(ClusterSpec::uniform(2, 1)),
                ),
            ],
        ));
        let runs = sweep.expand();
        assert_eq!(runs[0].scenario.problem.n, 16);
        assert_eq!(runs[1].scenario.problem.n, 24);
        assert_eq!(runs[1].axes[0].label, "bigger");
        assert_eq!(runs[1].axes[0].x, 1.0);
    }
}
