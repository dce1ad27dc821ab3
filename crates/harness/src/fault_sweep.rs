//! Deterministic fault-schedule sweeps: §4.4's failure injection taken
//! systematic.
//!
//! The random alphabets inject transient failures at random points
//! ([`KvOp::FailDiskOnce`]); this module instead *enumerates* fault
//! schedules — the cross product of target extent, operation index, and
//! fault kind (a counted transient burst, or a permanent extent death) —
//! and replays each schedule against generated operation sequences.
//!
//! Every run checks three properties:
//!
//! - **Conformance under faults** (§4.4's relaxation): operations may
//!   fail and keys touched by failed operations become uncertain, but no
//!   read ever returns bytes that were never written, and no *untouched*
//!   key is silently lost.
//! - **Durability under quarantine**: a key whose put was acknowledged
//!   (its dependency reported persistent) must afterwards read back as an
//!   acknowledged-or-later value for that key, or fail with a
//!   *distinguishable* degraded error once its extent is quarantined —
//!   never `None`, and never wrong bytes.
//! - **No lost acks**: a dependency that has reported persistent must
//!   never revert. Retry and quarantine bookkeeping in the scheduler must
//!   not un-acknowledge a durable write.

use std::collections::BTreeMap;
use std::fmt;

use shardstore_core::StoreConfig;
use shardstore_faults::FaultConfig;
use shardstore_vdisk::{ExtentId, Geometry};

use crate::conformance::{check_invariants, Policy, RunCtx};
use crate::detect::sample_sequences;
use crate::gen::{kv_ops, GenConfig};
use crate::ops::KvOp;

/// The kind of fault a schedule injects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The next `n` IOs to the extent fail with a *transient* error.
    /// `n` at or below the scheduler's retry budget is absorbed
    /// invisibly; above it, the error surfaces and the write requeues.
    Transient(u32),
    /// Every IO to the extent fails permanently: the extent is expected
    /// to be quarantined on first contact.
    Permanent,
}

/// One point in the fault-schedule space.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultSchedule {
    /// Target extent. Extent 0 (the superblock) is never enumerated: a
    /// dead superblock extent is node death, not degraded mode.
    pub extent: ExtentId,
    /// The fault is armed immediately before this operation index.
    pub op_index: usize,
    /// What kind of fault fires.
    pub kind: FaultKind,
}

impl fmt::Display for FaultSchedule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.kind {
            FaultKind::Transient(n) => {
                write!(f, "transient×{n} on extent {} before op {}", self.extent.0, self.op_index)
            }
            FaultKind::Permanent => {
                write!(f, "permanent fault on extent {} before op {}", self.extent.0, self.op_index)
            }
        }
    }
}

/// Sweep configuration.
#[derive(Debug, Clone)]
pub struct SweepConfig {
    /// Disk geometry for the stores under test.
    pub geometry: Geometry,
    /// Store configuration.
    pub store: StoreConfig,
    /// Run the stores with the background writeback engine.
    pub background_writeback: bool,
    /// Base seed for sequence generation (sweeps are deterministic).
    pub seed: u64,
    /// Number of generated operation sequences to sweep.
    pub sequences: u64,
    /// Enumerate every `extent_stride`-th extent starting at 1.
    pub extent_stride: u32,
    /// Enumerate every `op_stride`-th operation index starting at 0.
    pub op_stride: usize,
}

impl Default for SweepConfig {
    fn default() -> Self {
        Self {
            geometry: Geometry::small(),
            store: StoreConfig::small(),
            background_writeback: false,
            seed: 0xFA17,
            sequences: 4,
            extent_stride: 3,
            op_stride: 7,
        }
    }
}

impl SweepConfig {
    /// Enables the background writeback engine for every store.
    pub fn background(mut self) -> Self {
        self.background_writeback = true;
        self
    }

    /// The fault schedules enumerated for a sequence of `seq_len` ops.
    pub fn schedules(&self, seq_len: usize) -> Vec<FaultSchedule> {
        let kinds = [
            FaultKind::Transient(1),
            FaultKind::Transient(shardstore_dependency::DEFAULT_RETRY_BUDGET + 1),
            FaultKind::Permanent,
        ];
        let mut out = Vec::new();
        let mut extent = 1u32;
        while extent < self.geometry.extent_count {
            let mut op_index = 0usize;
            while op_index < seq_len {
                for kind in kinds {
                    out.push(FaultSchedule { extent: ExtentId(extent), op_index, kind });
                }
                op_index += self.op_stride.max(1);
            }
            extent += self.extent_stride.max(1);
        }
        out
    }
}

/// A property violation found by the sweep.
#[derive(Debug, Clone)]
pub struct SweepViolation {
    /// The schedule that exposed it.
    pub schedule: FaultSchedule,
    /// Index of the sequence (within the sweep) it fired on.
    pub sequence: u64,
    /// Index of the operation at which the violation was observed.
    pub op_index: usize,
    /// Which property failed and how.
    pub detail: String,
    /// Per-op trace timeline from the failing run (tail of the trace
    /// log), rendered for the minimized counterexample report.
    pub timeline: String,
}

impl fmt::Display for SweepViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "sweep violation (seq {}, {}) at op {}: {}",
            self.sequence, self.schedule, self.op_index, self.detail
        )?;
        if !self.timeline.is_empty() {
            write!(f, "\n--- trace timeline (tail) ---\n{}", self.timeline)?;
        }
        Ok(())
    }
}

impl std::error::Error for SweepViolation {}

/// Aggregate statistics from a completed sweep.
#[derive(Debug, Clone, Copy, Default)]
pub struct SweepReport {
    /// Sequences swept.
    pub sequences: u64,
    /// Fault schedules executed in total.
    pub schedules: u64,
    /// Runs in which the scheduler absorbed the fault via in-call retry.
    pub retried_runs: u64,
    /// Runs that ended with at least one quarantined extent.
    pub quarantined_runs: u64,
    /// Degraded read errors observed (and tolerated) across all runs.
    pub degraded_reads: u64,
    /// Acknowledged dependencies tracked across all runs.
    pub acks_tracked: u64,
}

/// Polls every tracked dependency, promoting to acked and enforcing the
/// no-lost-ack property.
fn poll_acks(ctx: &mut RunCtx, at: usize) -> Result<(), String> {
    let obs = ctx.store.obs();
    for t in &mut ctx.acks {
        let persistent = t.dep.is_persistent();
        if t.acked && !persistent {
            return Err(format!(
                "no-lost-ack violated at op {at}: key {} was acknowledged durable and reverted",
                t.key
            ));
        }
        if persistent && !t.acked {
            t.acked = true;
            // Record the acknowledgement in the trace so the
            // acked-durability trace oracle can check that every write
            // the op announced had persisted by this point.
            if let Some(n) = t.dep.trace_node() {
                obs.trace().event(shardstore_obs::TraceEvent::Acked { dep: n });
            }
            if t.hist_idx.is_none() {
                ctx.deleted_after_ack.insert(t.key);
            }
        }
    }
    Ok(())
}

/// The latest acknowledged *write* per key (deletes supersede).
fn acked_values(ctx: &RunCtx) -> BTreeMap<u128, usize> {
    let mut out = BTreeMap::new();
    for t in ctx.acks.iter().filter(|t| t.acked) {
        match t.hist_idx {
            Some(idx) => {
                out.insert(t.key, idx);
            }
            None => {
                out.remove(&t.key);
            }
        }
    }
    out
}

/// The fault-sweep world: a store under one enumerated fault schedule,
/// interpreted event by event through the deterministic simulator. The
/// sweep has no network, so there is nothing to deliver — `apply`
/// executes the operation directly, and the enumerated fault arms via
/// the simulator's `ArmFault` event "immediately before" the scheduled
/// operation, exactly where the historical loop armed it.
struct SweepWorld<'a> {
    ops: &'a [KvOp],
    cfg: &'a SweepConfig,
    ctx: RunCtx,
    obs: shardstore_obs::Obs,
    schedule: FaultSchedule,
}

impl SweepWorld<'_> {
    fn violation(&self, i: usize, detail: String) -> SweepViolation {
        let trace = self.obs.trace();
        let records = trace.snapshot();
        let mut timeline = shardstore_obs::oracle::render_timeline_tail(&records, 60);
        // The causal timeline of the most recent request: one request's
        // admission→IO→ack (or failure) path, reconstructed by ReqId.
        let causal =
            shardstore_obs::oracle::render_last_req_timeline(&records, trace.dropped());
        if !causal.is_empty() {
            timeline.push_str("--- causal timeline (last request) ---\n");
            timeline.push_str(&causal);
        }
        SweepViolation { schedule: self.schedule, sequence: 0, op_index: i, detail, timeline }
    }
}

impl shardstore_sim::World for SweepWorld<'_> {
    type Error = SweepViolation;

    fn apply(
        &mut self,
        _ctx: &mut shardstore_sim::SimCtx<'_>,
        i: usize,
    ) -> Result<(), SweepViolation> {
        let op = &self.ops[i];
        shardstore_faults::coverage::hit(crate::simulate::kv_probe(op));
        self.ctx
            .step(op)
            .and_then(|()| poll_acks(&mut self.ctx, i))
            .and_then(|()| check_invariants(&self.ctx))
            .map_err(|d| self.violation(i, d))
    }

    fn arm_fault(&mut self, f: &shardstore_sim::FaultPoint) -> Result<bool, SweepViolation> {
        crate::simulate::arm_store_fault(&self.ctx.store, f, self.cfg.geometry.extent_count);
        self.ctx.has_failed = true;
        Ok(true)
    }

    fn settle(&mut self) -> Result<(), SweepViolation> {
        // Settle: drive all remaining IO (absorbing leftover transient
        // counts), then check acked durability one final time.
        let n = self.ops.len();
        for _ in 0..4 {
            if self.ctx.store.pump().is_ok() {
                break;
            }
        }
        poll_acks(&mut self.ctx, n).map_err(|d| self.violation(n, d))?;
        check_acked_durability(&mut self.ctx).map_err(|d| self.violation(n, d))?;
        // Trace-based oracles: re-derive the causal properties from the
        // run's event log alone. A wrapped (truncated) trace cannot be
        // certified and is skipped — never treated as a pass or a failure.
        if let Ok(records) = shardstore_obs::oracle::certify(self.obs.trace()) {
            let budget = shardstore_dependency::DEFAULT_RETRY_BUDGET;
            let mut checks: Vec<(&str, Result<(), shardstore_obs::oracle::OracleViolation>)> = vec![
                ("span-wellformed", shardstore_obs::oracle::check_span_wellformed(&records)),
                ("acked-durability", shardstore_obs::oracle::check_acked_durability(&records)),
                ("retry-budget", shardstore_obs::oracle::check_retry_budget(&records, budget)),
                ("cache-coherence", shardstore_obs::oracle::check_cache_coherence(&records)),
                (
                    "compaction-discipline",
                    shardstore_obs::oracle::check_compaction_discipline(&records),
                ),
            ];
            // Under background writeback the quarantine event (emitted by
            // the writeback thread) and a concurrent cache hit on the main
            // thread have no defined trace order, so the isolation oracle
            // only holds in deterministic mode.
            if !self.cfg.background_writeback {
                checks.push((
                    "quarantine-isolation",
                    shardstore_obs::oracle::check_quarantine_isolation(&records),
                ));
            }
            for (name, res) in checks {
                if let Err(e) = res {
                    return Err(self.violation(n, format!("trace oracle {name} failed: {e}")));
                }
            }
        }
        Ok(())
    }
}

/// Runs one operation sequence under one fault schedule, checking all
/// three sweep properties. Returns per-run observations on success.
///
/// A thin frontend over the deterministic simulator: the enumerated
/// [`FaultSchedule`] becomes a one-point [`shardstore_sim::SimSchedule`]
/// and [`SweepWorld`] carries the checker state.
pub fn run_schedule(
    ops: &[KvOp],
    schedule: FaultSchedule,
    cfg: &SweepConfig,
    faults: &FaultConfig,
) -> Result<(bool, bool, u64, u64), SweepViolation> {
    let ctx = RunCtx::format(
        cfg.geometry,
        &cfg.store,
        faults,
        cfg.background_writeback,
        Policy::AckPrecise,
    );
    let obs = ctx.store.obs();
    let retries_before = ctx.store.scheduler().counter("sched.retries");
    let kind = match schedule.kind {
        FaultKind::Transient(n) => shardstore_sim::SimFaultKind::Transient(n),
        FaultKind::Permanent => shardstore_sim::SimFaultKind::Permanent,
    };
    // The raw extent is offset by one so the world's wrap into live
    // geometry (`1 + raw % (extent_count - 1)`) lands exactly on the
    // enumerated extent (schedules never target the superblock extent 0).
    let sim_schedule = shardstore_sim::SimSchedule {
        faults: vec![shardstore_sim::FaultPoint {
            at_op: schedule.op_index,
            extent: schedule.extent.0.saturating_sub(1),
            kind,
        }],
        ..shardstore_sim::SimSchedule::clean()
    };
    let mut world = SweepWorld { ops, cfg, ctx, obs, schedule };
    shardstore_sim::Simulator::run(&mut world, ops.len(), &sim_schedule)?;
    // A permanent schedule on an extent the run never touched simply never
    // quarantines: an uninteresting schedule, not a violation.
    let retried = world.ctx.store.scheduler().counter("sched.retries") > retries_before;
    let quarantined = !world.ctx.store.quarantined_extents().is_empty();
    let acks = world.ctx.acks.iter().filter(|t| t.acked).count() as u64;
    Ok((retried, quarantined, world.ctx.degraded_reads, acks))
}

/// The durability-under-quarantine property, checked after the sequence
/// settles: every key with an acknowledged write reads back as its acked
/// value or a later-written one, or fails *degraded* — never `None`
/// (unless deleted after the ack), and never unwritten bytes.
fn check_acked_durability(ctx: &mut RunCtx) -> Result<(), String> {
    let acked = acked_values(ctx);
    for (key, acked_idx) in acked {
        if ctx.deleted_after_ack.contains(&key) {
            continue;
        }
        // A later (possibly unacked) delete makes absence legal; only
        // keys the model still holds carry the strict obligation.
        if ctx.model.current(key).is_none() {
            continue;
        }
        // Tolerate leftover transient counts: retry the read a couple of
        // times before judging.
        let mut last = ctx.store.get(key);
        for _ in 0..2 {
            if last.is_ok() {
                break;
            }
            last = ctx.store.get(key);
        }
        match last {
            Ok(Some(got)) => {
                let hist = ctx.history.get(&key).expect("acked key has history");
                let ok = hist[acked_idx..].iter().any(|v| ***v == *got);
                if !ok {
                    return Err(format!(
                        "durability violated: acked key {key} read back bytes older than (or \
                         foreign to) its acknowledged write"
                    ));
                }
            }
            Ok(None) => {
                return Err(format!(
                    "durability violated: acked key {key} is silently missing (no delete, no \
                     degraded error)"
                ));
            }
            Err(e) if e.is_degraded() => {
                ctx.degraded_reads += 1;
            }
            Err(e) => {
                // At quiescence the only legitimate read failure for an
                // acknowledged key is a *distinguishable* degraded error
                // (its extent quarantined). Anything else — e.g. a
                // NotFound because some maintenance pass forgot the chunk
                // — is silent loss of acknowledged data.
                return Err(format!(
                    "durability violated: acked key {key} unreadable with a non-degraded \
                     error: {e}"
                ));
            }
        }
    }
    Ok(())
}

/// Sweeps every enumerated fault schedule over `cfg.sequences` generated
/// operation sequences. Returns aggregate statistics, or the first
/// property violation found.
pub fn run_sweep(cfg: &SweepConfig, faults: &FaultConfig) -> Result<SweepReport, SweepViolation> {
    let mut report = SweepReport::default();
    let sequences: Vec<Vec<KvOp>> =
        sample_sequences(kv_ops(GenConfig::conformance()), cfg.seed, cfg.sequences).collect();
    for (seq_idx, ops) in sequences.iter().enumerate() {
        report.sequences += 1;
        for schedule in cfg.schedules(ops.len()) {
            report.schedules += 1;
            match run_schedule(ops, schedule, cfg, faults) {
                Ok((retried, quarantined, degraded, acks)) => {
                    if retried {
                        report.retried_runs += 1;
                    }
                    if quarantined {
                        report.quarantined_runs += 1;
                    }
                    report.degraded_reads += degraded;
                    report.acks_tracked += acks;
                }
                Err(mut v) => {
                    v.sequence = seq_idx as u64;
                    return Err(v);
                }
            }
        }
    }
    Ok(report)
}
