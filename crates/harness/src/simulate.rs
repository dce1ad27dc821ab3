//! Deterministic whole-system simulation (a VOPR-style event loop).
//!
//! This module binds the [`shardstore_sim`] substrate — one seeded event
//! loop owning logical time and a unified queue of timer ticks, message
//! deliveries, disk-fault armings, and whole-node crash-restarts — to the
//! concrete harness runners. Each *world* wraps one system under test
//! plus its reference model:
//!
//! - [`run_conformance_sim`] — a [`shardstore_core::Store`] against the
//!   reference model under the strict policy (§4, the crash-free
//!   refinement);
//! - [`run_crash_sim`] — the same interpreter under the crash policy
//!   (§5), the only world that honors crash-restart schedule points;
//! - [`run_node_sim_on`] — a multi-disk [`Node`] control plane against
//!   the KV model, requests dispatched directly;
//! - [`run_rpc_sim`] — the same control-plane checker driven through
//!   the request plane: a manual-mode [`Engine`] whose executors only
//!   make progress when the event loop delivers, with every request
//!   round-tripped through the wire codec.
//!
//! Operations double as messages: `Apply(i)` *sends* operation `i`
//! (consulting the schedule's drop/delay tables), and `Deliver(i)`
//! executes it against both implementation and model. Because the model
//! updates at delivery order, drops, delays, and reorders are naturally
//! consistent — a clean schedule delivers each message immediately after
//! its send, reproducing the historical straight-line runner loops event
//! for event, so every seeded-bug seed keeps failing through this entry
//! point.

use std::collections::{BTreeMap, BTreeSet};

use shardstore_core::rpc::{Request, Response};
use shardstore_core::{Engine, EngineConfig, Node, RpcClient, Store};
use shardstore_faults::coverage;
use shardstore_sim::{CrashPoint, SimCtx, SimReport, SimSchedule, Simulator, World};
use shardstore_vdisk::ExtentId;

use crate::conformance::{
    check_invariants, ConformanceConfig, Divergence, Policy, RunCtx, RunReport,
};
use crate::node_conformance::{with_node_timeline, NodeChecker, NodeTransport};
use crate::ops::{KvOp, NodeOp, RebootType};

/// Per-run options orthogonal to the schedule.
#[derive(Debug, Clone, Copy, Default)]
pub struct SimOptions {
    /// Compute a byte-stable run fingerprint (obs trace timeline plus a
    /// final-state dump) for determinism regression checks. Off by
    /// default: detection loops run thousands of executions and never
    /// read it.
    pub fingerprint: bool,
}

/// The result of one simulated execution that did not diverge.
#[derive(Debug, Clone)]
pub struct SimOutcome {
    /// The historical runner report (op counts, §4.4 skips).
    pub report: RunReport,
    /// Event-loop statistics (events, deliveries, simulated end time).
    pub sim: SimReport,
    /// Run fingerprint, when [`SimOptions::fingerprint`] was set.
    pub fingerprint: Option<String>,
    /// End-of-run metrics snapshot (merged across disks for node
    /// worlds): counters, gauges, and the logical-latency histograms.
    pub metrics: shardstore_obs::metrics::MetricsSnapshot,
}

/// The delivery plan a world consults when *sending* a message: drops
/// erase the message entirely (the op never executes anywhere), delays
/// push its delivery past later sends (reordering).
struct NetPlan {
    drops: BTreeSet<usize>,
    delays: BTreeMap<usize, u64>,
}

impl NetPlan {
    fn new(schedule: &SimSchedule) -> Self {
        Self {
            drops: schedule.drops.iter().copied().collect(),
            delays: schedule.delays.iter().copied().collect(),
        }
    }

    /// Sends message `m`: schedules its delivery (or drops it). A clean
    /// schedule delivers at `now + 1`, before the next op's send.
    fn send(&self, ctx: &mut SimCtx<'_>, m: usize) {
        if self.drops.contains(&m) {
            coverage::hit("sim.perturb.drop");
            return;
        }
        let delay = self.delays.get(&m).copied().unwrap_or(0);
        if delay > 0 {
            coverage::hit("sim.perturb.delay");
        }
        ctx.schedule_delivery(ctx.now + 1 + delay, m);
    }
}

/// Coverage probe name for a KV-alphabet operation kind.
pub(crate) fn kv_probe(op: &KvOp) -> &'static str {
    match op {
        KvOp::Get(_) => "sim.op.get",
        KvOp::Put(..) => "sim.op.put",
        KvOp::PutBatch(_) => "sim.op.put_batch",
        KvOp::Delete(_) => "sim.op.delete",
        KvOp::Scan(..) => "sim.op.scan",
        KvOp::IndexFlush => "sim.op.index_flush",
        KvOp::Compact => "sim.op.compact",
        KvOp::Reclaim(_) => "sim.op.reclaim",
        KvOp::CacheDrop => "sim.op.cache_drop",
        KvOp::Pump(_) => "sim.op.pump",
        KvOp::Reboot => "sim.op.reboot",
        KvOp::DirtyReboot(_) => "sim.op.dirty_reboot",
        KvOp::FailDiskOnce(_) => "sim.op.fail_disk",
    }
}

/// Coverage probe name for a node-alphabet operation kind.
fn node_probe(op: &NodeOp) -> &'static str {
    match op {
        NodeOp::Get(_) => "sim.op.get",
        NodeOp::Put(..) => "sim.op.put",
        NodeOp::Delete(_) => "sim.op.delete",
        NodeOp::List => "sim.op.list",
        NodeOp::RemoveDisk(_) => "sim.op.remove_disk",
        NodeOp::ReturnDisk(_) => "sim.op.return_disk",
        NodeOp::BulkCreate(_) => "sim.op.bulk_create",
        NodeOp::BulkRemove(_) => "sim.op.bulk_remove",
        NodeOp::Migrate(..) => "sim.op.migrate",
    }
}

/// Arms a schedule fault point on a store's disk. The raw extent wraps
/// into the live data extents (skipping the superblock extent 0, whose
/// loss is unrecoverable by design and would drown every run in
/// uncertifiable recoveries).
pub(crate) fn arm_store_fault(store: &Store, f: &shardstore_sim::FaultPoint, extent_count: u32) {
    let live = extent_count.saturating_sub(1).max(1);
    let target = ExtentId(1 + f.extent % live);
    let disk = store.scheduler().disk().clone();
    match f.kind {
        shardstore_sim::SimFaultKind::Transient(n) => disk.inject_fail_times(target, n),
        shardstore_sim::SimFaultKind::Permanent => disk.inject_fail_always(target),
    }
}

fn fnv(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in bytes {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// A byte-stable fingerprint of a store after a run: the full obs trace
/// timeline plus the final key-value mapping (length + content hash per
/// key). Two deterministic runs of the same `(ops, schedule)` must
/// produce equal fingerprints.
fn store_fingerprint(store: &Store) -> String {
    let mut out = String::new();
    let records = store.obs().trace().snapshot();
    out.push_str(&shardstore_obs::oracle::render_timeline(&records));
    out.push_str("\n--- final state ---\n");
    match store.list() {
        Ok(keys) => {
            for key in keys {
                match store.get(key) {
                    Ok(Some(v)) => {
                        out.push_str(&format!("{key}: {} bytes fnv {:016x}\n", v.len(), fnv(&v)));
                    }
                    Ok(None) => out.push_str(&format!("{key}: absent\n")),
                    Err(e) => out.push_str(&format!("{key}: error {e}\n")),
                }
            }
        }
        Err(e) => out.push_str(&format!("list error: {e}\n")),
    }
    out
}

/// Merges every in-service disk's metrics snapshot into one node-wide
/// view (same-bounds histograms add bucket-wise).
fn node_metrics(node: &Node) -> shardstore_obs::metrics::MetricsSnapshot {
    let mut out = shardstore_obs::metrics::MetricsSnapshot::default();
    for d in 0..node.disk_count() {
        if let Some(obs) = node.disk_obs(d) {
            out.merge(&obs.snapshot());
        }
    }
    out
}

/// Per-disk [`store_fingerprint`] over a whole node.
fn node_fingerprint(node: &Node) -> String {
    let mut out = String::new();
    for d in 0..node.disk_count() {
        match node.store(d) {
            Some(store) => {
                out.push_str(&format!("=== disk {d} ===\n"));
                out.push_str(&store_fingerprint(&store));
            }
            None => out.push_str(&format!("=== disk {d}: out of service ===\n")),
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Store worlds (KV alphabet)
// ---------------------------------------------------------------------------

/// A store world: [`RunCtx::step`] per delivery under the world's oracle
/// policy. The conformance world ([`Policy::Strict`]) also checks the
/// §4.1 invariant after each delivery and ignores crash-restart points
/// (its model is not consulted for persistence); the crash world
/// ([`Policy::Crash`]) honors them as real whole-node crash-restarts (a
/// dirty reboot with the point's block-survival mask, checked by the §5
/// persistence property). Disk-fault points engage the §4.4 relaxation
/// exactly like an in-alphabet `FailDiskOnce`.
struct KvWorld<'a> {
    ops: &'a [KvOp],
    ctx: RunCtx,
    net: NetPlan,
}

impl KvWorld<'_> {
    /// The conformance world attaches the trace timeline; the crash
    /// world's messages stay timeline-free, because simulator
    /// minimization compares whole messages by failure class.
    fn diverge(&self, i: usize, op: &KvOp, detail: String) -> Divergence {
        let d = Divergence::new(i, op, detail);
        if self.ctx.policy == Policy::Strict {
            d.with_timeline(&self.ctx.store)
        } else {
            d
        }
    }
}

impl World for KvWorld<'_> {
    type Error = Divergence;

    fn apply(&mut self, ctx: &mut SimCtx<'_>, i: usize) -> Result<(), Divergence> {
        self.net.send(ctx, i);
        Ok(())
    }

    fn deliver(&mut self, _ctx: &mut SimCtx<'_>, m: usize) -> Result<(), Divergence> {
        let op = &self.ops[m];
        coverage::hit(kv_probe(op));
        let mut res = self.ctx.step(op);
        if self.ctx.policy == Policy::Strict {
            res = res.and_then(|()| check_invariants(&self.ctx));
        }
        res.map_err(|d| self.diverge(m, op, d))
    }

    fn tick(&mut self, _ctx: &mut SimCtx<'_>) -> Result<(), Divergence> {
        // A timer tick pumps background IO, exactly like an in-alphabet
        // pump at a synthetic index past the sequence.
        let op = KvOp::Pump(4);
        self.ctx.step(&op).map_err(|d| self.diverge(self.ops.len(), &op, d))
    }

    fn arm_fault(&mut self, f: &shardstore_sim::FaultPoint) -> Result<bool, Divergence> {
        arm_store_fault(&self.ctx.store, f, self.ctx.geometry.extent_count);
        self.ctx.has_failed = true;
        Ok(true)
    }

    fn crash_restart(&mut self, c: &CrashPoint) -> Result<bool, Divergence> {
        if self.ctx.policy != Policy::Crash {
            return Ok(false);
        }
        let rt = RebootType { flush_index: false, issue_ios: 0, keep_mask: c.keep_mask };
        crate::crash::dirty_reboot(&mut self.ctx, &rt)
            .map_err(|d| self.diverge(c.at_op, &KvOp::DirtyReboot(rt), d))?;
        Ok(true)
    }
}

fn run_kv_sim(
    ops: &[KvOp],
    cfg: &ConformanceConfig,
    schedule: &SimSchedule,
    opts: &SimOptions,
    policy: Policy,
) -> Result<SimOutcome, Divergence> {
    let mut world = KvWorld { ops, ctx: RunCtx::new(cfg, policy), net: NetPlan::new(schedule) };
    let sim = Simulator::run(&mut world, ops.len(), schedule)?;
    let store = &world.ctx.store;
    Ok(SimOutcome {
        report: world.ctx.report(ops.len()),
        sim,
        fingerprint: opts.fingerprint.then(|| store_fingerprint(store)),
        metrics: store.obs().snapshot(),
    })
}

/// Runs the crash-free conformance checker under the simulator.
pub fn run_conformance_sim(
    ops: &[KvOp],
    cfg: &ConformanceConfig,
    schedule: &SimSchedule,
    opts: &SimOptions,
) -> Result<SimOutcome, Divergence> {
    run_kv_sim(ops, cfg, schedule, opts, Policy::Strict)
}

/// Runs the crash-consistency checker under the simulator.
pub fn run_crash_sim(
    ops: &[KvOp],
    cfg: &ConformanceConfig,
    schedule: &SimSchedule,
    opts: &SimOptions,
) -> Result<SimOutcome, Divergence> {
    run_kv_sim(ops, cfg, schedule, opts, Policy::Crash)
}

// ---------------------------------------------------------------------------
// Node worlds (control-plane alphabet)
// ---------------------------------------------------------------------------

/// Tolerantly pumps every in-service disk's IO scheduler (a node-world
/// timer tick; errors surface through the per-op oracles, not here).
fn pump_node(node: &Node) {
    for d in 0..node.disk_count() {
        if let Some(store) = node.store(d) {
            let sched = store.scheduler();
            let _ = sched.issue_ready(4).and_then(|_| sched.flush_issued());
        }
    }
}

/// Direct transport: each request runs in the caller through
/// [`shardstore_core::rpc::dispatch`].
impl NodeTransport for &Node {
    fn node(&self) -> &Node {
        self
    }

    fn call(&self, request: Request) -> Result<Response, String> {
        Ok(shardstore_core::rpc::dispatch(self, request))
    }
}

/// The control-plane conformance world: [`NodeChecker::step`] per
/// delivery over direct dispatch. Fault and crash points are ignored —
/// the node checker's oracles are not failure-relaxed, so arming faults
/// would flag honest unavailability as divergence. Network perturbations
/// (drop/delay/reorder) apply.
struct NodeWorld<'a> {
    ops: &'a [NodeOp],
    node: &'a Node,
    checker: NodeChecker,
    net: NetPlan,
}

impl World for NodeWorld<'_> {
    type Error = Divergence;

    fn apply(&mut self, ctx: &mut SimCtx<'_>, i: usize) -> Result<(), Divergence> {
        self.net.send(ctx, i);
        Ok(())
    }

    fn deliver(&mut self, _ctx: &mut SimCtx<'_>, m: usize) -> Result<(), Divergence> {
        let op = &self.ops[m];
        coverage::hit(node_probe(op));
        self.checker.step(&self.node, m, op)
    }

    fn tick(&mut self, _ctx: &mut SimCtx<'_>) -> Result<(), Divergence> {
        pump_node(self.node);
        Ok(())
    }
}

/// Runs the control-plane conformance checker under the simulator
/// against a freshly-built node with `num_disks` disks.
pub fn run_node_sim(
    ops: &[NodeOp],
    cfg: &ConformanceConfig,
    num_disks: usize,
    schedule: &SimSchedule,
    opts: &SimOptions,
) -> Result<SimOutcome, Divergence> {
    let node = Node::new(num_disks, cfg.geometry, cfg.store.clone(), cfg.faults.clone());
    if cfg.background_writeback {
        for disk in 0..num_disks {
            if let Some(store) = node.store(disk) {
                store.scheduler().set_writeback_mode(
                    shardstore_dependency::WritebackMode::Background(
                        shardstore_dependency::WritebackConfig::default(),
                    ),
                );
            }
        }
    }
    run_node_sim_on(ops, cfg, &node, schedule, opts)
}

fn node_outcome(
    node: &Node,
    checker: &NodeChecker,
    ops: usize,
    sim: SimReport,
    opts: &SimOptions,
) -> SimOutcome {
    SimOutcome {
        report: RunReport { ops, skipped_no_space: checker.skipped, has_failed: false },
        sim,
        fingerprint: opts.fingerprint.then(|| node_fingerprint(node)),
        metrics: node_metrics(node),
    }
}

/// Runs the control-plane conformance checker under the simulator
/// against a caller-provided node.
pub fn run_node_sim_on(
    ops: &[NodeOp],
    cfg: &ConformanceConfig,
    node: &Node,
    schedule: &SimSchedule,
    opts: &SimOptions,
) -> Result<SimOutcome, Divergence> {
    let mut world =
        NodeWorld { ops, node, checker: NodeChecker::new(node, cfg), net: NetPlan::new(schedule) };
    let sim = Simulator::run(&mut world, ops.len(), schedule)?;
    Ok(node_outcome(node, &world.checker, ops.len(), sim, opts))
}

// ---------------------------------------------------------------------------
// RPC world (request plane under simulated time)
// ---------------------------------------------------------------------------

/// Wire transport: every request round-trips through the codec (encode,
/// decode — the codec must be canonical — re-encode) and a manual-mode
/// [`Engine`] whose per-disk executors only make progress when drained.
struct WireTransport {
    engine: Engine,
    client: RpcClient,
}

impl NodeTransport for WireTransport {
    fn node(&self) -> &Node {
        self.engine.node()
    }

    fn call(&self, request: Request) -> Result<Response, String> {
        let frame = request.encode();
        let decoded =
            Request::decode(&frame).map_err(|e| format!("wire roundtrip failed: {e}"))?;
        if decoded.encode() != frame {
            return Err("wire re-encode is not canonical".to_string());
        }
        let reply = self.client.call_nowait(decoded);
        self.engine.drain();
        reply.poll().ok_or_else(|| "no response after engine drain".to_string())
    }
}

/// The request-plane world: the node alphabet drives a manual-mode
/// [`Engine`] whose per-disk executors only make progress when the event
/// loop says so, checked by the same [`NodeChecker`] as [`NodeWorld`].
/// Fault and crash points are ignored for the same reason as
/// [`NodeWorld`].
struct RpcWorld<'a> {
    ops: &'a [NodeOp],
    wire: WireTransport,
    checker: NodeChecker,
    net: NetPlan,
}

impl World for RpcWorld<'_> {
    type Error = Divergence;

    fn apply(&mut self, ctx: &mut SimCtx<'_>, i: usize) -> Result<(), Divergence> {
        self.net.send(ctx, i);
        Ok(())
    }

    fn deliver(&mut self, _ctx: &mut SimCtx<'_>, m: usize) -> Result<(), Divergence> {
        let op = &self.ops[m];
        coverage::hit(node_probe(op));
        self.checker.step(&self.wire, m, op)
    }

    fn tick(&mut self, _ctx: &mut SimCtx<'_>) -> Result<(), Divergence> {
        self.wire.engine.drain();
        pump_node(self.wire.node());
        Ok(())
    }

    fn settle(&mut self) -> Result<(), Divergence> {
        self.wire.engine.drain();
        self.wire.engine.shutdown();
        let node = self.wire.node();
        node.check_catalog_consistent().map_err(|detail| {
            with_node_timeline(node, Divergence::new(self.ops.len(), &format_args!("settle"), detail))
        })
    }
}

/// Runs the node alphabet through the request plane under the simulator:
/// a manual-mode engine (no worker threads — the event loop is the only
/// source of executor progress), wire-codec round-trips on every
/// request, and model conformance checks on every response.
pub fn run_rpc_sim(
    ops: &[NodeOp],
    cfg: &ConformanceConfig,
    num_disks: usize,
    schedule: &SimSchedule,
    opts: &SimOptions,
) -> Result<SimOutcome, Divergence> {
    let node = Node::new(num_disks, cfg.geometry, cfg.store.clone(), cfg.faults.clone());
    let engine = Engine::start_manual(node.clone(), EngineConfig::default());
    let wire = WireTransport { client: engine.client(), engine };
    let checker = NodeChecker::new(&node, cfg);
    let mut world = RpcWorld { ops, wire, checker, net: NetPlan::new(schedule) };
    let sim = Simulator::run(&mut world, ops.len(), schedule)?;
    Ok(node_outcome(&node, &world.checker, ops.len(), sim, opts))
}
