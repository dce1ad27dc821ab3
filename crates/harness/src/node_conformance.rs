//! Conformance checking for the multi-disk node's control plane.
//!
//! Same refinement idea as [`crate::conformance`], but over [`NodeOp`]
//! sequences against the API-level [`KvModel`]. Disk removal and return
//! are modelled explicitly: while a disk is out of service, its shards
//! are unavailable (requests error), but *returning* the disk must bring
//! every shard back — the property issue #4 violated.

use std::sync::Arc;

use shardstore_core::rpc::{ErrorCode, Request, Response};
use shardstore_core::Node;
use shardstore_model::KvModel;

use crate::conformance::{ConformanceConfig, Divergence};
use crate::ops::NodeOp;

/// Runs a node-level operation sequence against the KV model.
///
/// The model is oblivious to disks; the runner tracks which disks are out
/// of service and expects `OutOfService` errors for shards routed to
/// them, while keeping the model unchanged (the data still exists, it is
/// just unavailable — and must be *available again* after `ReturnDisk`).
pub fn run_node_conformance(
    ops: &[NodeOp],
    cfg: &ConformanceConfig,
    num_disks: usize,
) -> Result<(), Divergence> {
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
    run_node_conformance_on(ops, cfg, &node)
}

/// Like [`run_node_conformance`] but against a caller-provided node.
///
/// A thin frontend over the deterministic simulator (clean schedule =
/// the historical loop).
pub fn run_node_conformance_on(
    ops: &[NodeOp],
    cfg: &ConformanceConfig,
    node: &Node,
) -> Result<(), Divergence> {
    crate::simulate::run_node_sim_on(
        ops,
        cfg,
        node,
        &shardstore_sim::SimSchedule::clean(),
        &crate::simulate::SimOptions::default(),
    )
    .map(|_| ())
}

/// How a node world delivers a request to the node: directly through
/// [`shardstore_core::rpc::dispatch`], or through the wire codec and the
/// request engine. Both issue the same [`Node`] calls; transport is the
/// only difference.
pub(crate) trait NodeTransport {
    /// The node under test.
    fn node(&self) -> &Node;
    /// Issues one request and returns its reply (`Err` = the transport
    /// itself failed).
    fn call(&self, request: Request) -> Result<Response, String>;
}

/// The one checker for the [`NodeOp`] alphabet: replies are compared
/// against [`KvModel`], with disk removal modelled explicitly.
pub(crate) struct NodeChecker {
    pub model: KvModel,
    pub puts_so_far: Vec<u128>,
    pub removed: Vec<bool>,
    pub skipped: usize,
    page_size: usize,
}

impl NodeChecker {
    pub fn new(node: &Node, cfg: &ConformanceConfig) -> Self {
        Self {
            model: KvModel::new(),
            puts_so_far: Vec::new(),
            removed: vec![false; node.disk_count()],
            skipped: 0,
            page_size: cfg.geometry.page_size,
        }
    }

    /// One control-plane conformance step: the operation's oracle, then
    /// the always-on catalog/index consistency invariant. Failures carry
    /// each disk's causal timeline of its most recent request.
    pub fn step(
        &mut self,
        t: &impl NodeTransport,
        i: usize,
        op: &NodeOp,
    ) -> Result<(), Divergence> {
        self.check_op(t, op)
            .and_then(|()| t.node().check_catalog_consistent())
            .map_err(|detail| with_node_timeline(t.node(), Divergence::new(i, op, detail)))
    }

    /// Records a no-space reply (resource exhaustion is out of scope,
    /// §4.4), or reports any other reply as a failure of `what`.
    fn no_space(&mut self, what: &str, reply: Response) -> Result<(), String> {
        match reply {
            Response::Error(e) if e.code == ErrorCode::NoSpace => {
                self.skipped += 1;
                Ok(())
            }
            other => Err(format!("{what} failed: {other:?}")),
        }
    }

    fn check_op(&mut self, t: &impl NodeTransport, op: &NodeOp) -> Result<(), String> {
        let node = t.node();
        let out_of_service =
            |r: &Response| matches!(r, Response::Error(e) if e.code == ErrorCode::OutOfService);
        match op {
            NodeOp::Get(kr) => {
                let key = kr.resolve(&self.puts_so_far);
                let disk = node.route(key);
                let got = match t.call(Request::Get { shard: key })? {
                    r if out_of_service(&r) && self.removed[disk] => return Ok(()),
                    Response::Error(e) if e.code == ErrorCode::NoSpace => return Ok(()),
                    Response::Data(v) => Some(v.to_vec()),
                    Response::NotFound => None,
                    other => return Err(format!("get failed: {other:?}")),
                };
                if self.removed[disk] {
                    return Err("get served from a removed disk".to_string());
                }
                let expected = self.model.get(key);
                if got.as_ref() != expected.as_deref() {
                    return Err(format!(
                        "get({key}) mismatch: impl {:?} vs model {:?} bytes",
                        got.map(|v| v.len()),
                        expected.map(|v| v.len())
                    ));
                }
            }
            NodeOp::Put(kr, spec) => {
                let key = kr.resolve(&self.puts_so_far);
                let disk = node.route(key);
                let value = Arc::new(spec.materialize(key, self.page_size));
                match t.call(Request::Put { shard: key, data: value.to_vec() })? {
                    Response::Ok if self.removed[disk] => {
                        return Err("put accepted by a removed disk".to_string());
                    }
                    Response::Ok => {
                        self.model.put(key, &value);
                        self.puts_so_far.push(key);
                    }
                    r if out_of_service(&r) && self.removed[disk] => {}
                    other => self.no_space("put", other)?,
                }
            }
            NodeOp::Delete(kr) => {
                let key = kr.resolve(&self.puts_so_far);
                let disk = node.route(key);
                match t.call(Request::Delete { shard: key })? {
                    Response::Ok => {
                        self.model.delete(key);
                    }
                    r if out_of_service(&r) && self.removed[disk] => {}
                    other => self.no_space("delete", other)?,
                }
            }
            NodeOp::List => {
                // The listing must cover every model key on an in-service
                // disk, and nothing the model does not have.
                let listed = match t.call(Request::List)? {
                    Response::Shards(shards) => shards,
                    other => return Err(format!("list failed: {other:?}")),
                };
                if let Some(key) = listed.iter().find(|k| self.model.get(**k).is_none()) {
                    return Err(format!("listed phantom shard {key}"));
                }
                for key in self.model.list() {
                    if !self.removed[node.route(key)] && !listed.contains(&key) {
                        return Err(format!("listing missed shard {key}"));
                    }
                }
            }
            NodeOp::RemoveDisk(d) => {
                let disk = *d as usize % node.disk_count();
                match t.call(Request::RemoveDisk { disk: disk as u32 })? {
                    Response::Ok => self.removed[disk] = true,
                    r if out_of_service(&r) && self.removed[disk] => {}
                    other => self.no_space("remove_disk", other)?,
                }
            }
            NodeOp::ReturnDisk(d) => {
                let disk = *d as usize % node.disk_count();
                match t.call(Request::ReturnDisk { disk: disk as u32 })? {
                    Response::Ok => {
                        self.removed[disk] = false;
                        // The core durability property of disk return:
                        // every model shard on this disk is available
                        // again with its data intact.
                        for key in self.model.list() {
                            if node.route(key) != disk {
                                continue;
                            }
                            let expected = self.model.get(key).expect("listed key");
                            match t.call(Request::Get { shard: key })? {
                                Response::Data(got) if got == *expected => {}
                                other => {
                                    return Err(format!(
                                        "shard {key} lost across disk removal/return: {other:?}"
                                    ));
                                }
                            }
                        }
                    }
                    other => self.no_space("return_disk", other)?,
                }
            }
            NodeOp::BulkCreate(batch) => {
                let resolved: Vec<(u128, Vec<u8>)> = batch
                    .iter()
                    .map(|(kr, spec)| {
                        let key = kr.resolve(&self.puts_so_far);
                        (key, spec.materialize(key, self.page_size))
                    })
                    .collect();
                // Skip batches touching removed disks (the control plane
                // would not target them).
                if resolved.iter().any(|(k, _)| self.removed[node.route(*k)]) {
                    return Ok(());
                }
                match t.call(Request::BulkCreate { shards: resolved.clone() })? {
                    Response::Ok => {
                        for (key, value) in resolved {
                            self.model.put(key, &value);
                            self.puts_so_far.push(key);
                        }
                    }
                    other => self.no_space("bulk create", other)?,
                }
            }
            NodeOp::BulkRemove(batch) => {
                let resolved: Vec<u128> =
                    batch.iter().map(|kr| kr.resolve(&self.puts_so_far)).collect();
                if resolved.iter().any(|k| self.removed[node.route(*k)]) {
                    return Ok(());
                }
                match t.call(Request::BulkRemove { shards: resolved.clone() })? {
                    Response::Ok => {
                        for key in resolved {
                            self.model.delete(key);
                        }
                    }
                    other => self.no_space("bulk remove", other)?,
                }
            }
            NodeOp::Migrate(kr, d) => {
                let key = kr.resolve(&self.puts_so_far);
                let to_disk = *d as usize % node.disk_count();
                let from_disk = node.route(key);
                let request = Request::Migrate { shard: key, to_disk: to_disk as u32 };
                if self.removed[from_disk] || self.removed[to_disk] {
                    return match t.call(request)? {
                        r if out_of_service(&r) => Ok(()),
                        r @ Response::Error(_) => self.no_space("migrate", r),
                        _ => Ok(()),
                    };
                }
                match t.call(request)? {
                    Response::Ok => {
                        // Migration must preserve the data exactly.
                        let expected = self.model.get(key);
                        let got = match t.call(Request::Get { shard: key })? {
                            Response::Data(v) => Some(v.to_vec()),
                            Response::NotFound => None,
                            other => return Err(format!("post-migrate get failed: {other:?}")),
                        };
                        if got.as_ref() != expected.as_deref() {
                            return Err(format!("shard {key} changed across migration"));
                        }
                        // Placement flips only for shards that exist; a
                        // missing shard's migrate is a no-op.
                        if expected.is_some() && node.route(key) != to_disk {
                            return Err("placement not updated".to_string());
                        }
                    }
                    other => self.no_space("migrate", other)?,
                }
            }
        }
        Ok(())
    }
}

/// Attaches each disk's causal timeline of its most recent request, so a
/// minimized control-plane repro shows the failing request's
/// admission→IO→ack (or failure) path.
pub(crate) fn with_node_timeline(node: &Node, mut d: Divergence) -> Divergence {
    let mut out = String::new();
    for disk in 0..node.disk_count() {
        if let Some(obs) = node.disk_obs(disk) {
            let trace = obs.trace();
            let records = trace.snapshot();
            let dropped = trace.dropped();
            d.dropped_events = d.dropped_events.max(dropped);
            let causal = shardstore_obs::oracle::render_last_req_timeline(&records, dropped);
            if !causal.is_empty() {
                out.push_str(&format!(
                    "=== disk {disk}: causal timeline (last request) ===\n{causal}"
                ));
            }
        }
    }
    if !out.is_empty() {
        d.timeline = out;
    }
    d
}
