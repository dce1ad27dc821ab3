//! The crash-restart durability check run at the end of a workload.

use std::time::Instant;

use shardstore_core::{Node, Store};
use shardstore_vdisk::CrashPlan;

use crate::client::{check_value, Model, Ver};
use crate::workload::key_of;

/// Crash-restarts timed per run; `recovery_s` is their median.
const RECOVERIES: usize = 5;

pub struct CrashReport {
    /// Wall time to recover every disk after a crash (median), and every
    /// timing it is the median of.
    pub recovery_s: f64,
    pub recovery_runs: Vec<f64>,
    pub keys_checked: u64,
    pub violations: u64,
    pub errors: Vec<String>,
}

/// Crashes every disk keeping only fenced bytes (`CrashPlan::LoseAll`),
/// recovers it, and reads back every key each client ever wrote. A key
/// whose last write a barrier covered must read back exactly; a key with
/// uncovered writes may show its durable state or any uncovered one.
/// The engine must be shut down first.
pub fn check(node: &Node, models: &[&Model]) -> Result<CrashReport, String> {
    let mut stores: Vec<Store> = (0..node.disk_count())
        .map(|d| {
            node.store(d)
                .ok_or_else(|| format!("disk {d} out of service"))
        })
        .collect::<Result<_, _>>()?;
    let mut times = Vec::new();
    // The first crash loses whatever was not fenced; the later ones
    // recover that same fenced state again, to time recovery more than
    // once. The check reads back the last recovered stores.
    for _ in 0..RECOVERIES {
        let t = Instant::now();
        for (d, store) in stores.iter_mut().enumerate() {
            *store = store
                .dirty_reboot(&CrashPlan::LoseAll)
                .map_err(|e| format!("recovery of disk {d} failed: {e}"))?;
        }
        times.push(t.elapsed().as_secs_f64());
    }
    let mut sorted = times.clone();
    sorted.sort_by(f64::total_cmp);
    let mut report = CrashReport {
        recovery_s: sorted[sorted.len() / 2],
        recovery_runs: times,
        keys_checked: 0,
        violations: 0,
        errors: Vec::new(),
    };
    for (client, model) in models.iter().enumerate() {
        for idx in 0..model.high {
            if model.uncertain.contains(&idx) {
                continue;
            }
            let key = key_of(client, idx);
            let got = match stores[node.route(key)].get(key) {
                Ok(v) => v,
                Err(e) => {
                    report.violation(format!("client {client} key {idx}: read failed: {e}"));
                    continue;
                }
            };
            report.keys_checked += 1;
            let mut allowed: Vec<Option<Ver>> = vec![model.durable.get(&idx).copied()];
            if let Some(list) = model.uncovered.get(&idx) {
                allowed.extend(list.iter().map(|(_, state)| *state));
            }
            let segs: Option<[&[u8]; 1]> = got.as_deref().map(|v| [v]);
            let results: Vec<Result<(), String>> = allowed
                .iter()
                .map(|want| check_value(client, idx, *want, segs.as_ref().map(|s| &s[..])))
                .collect();
            if !results.iter().any(Result::is_ok) {
                let first = results
                    .into_iter()
                    .find_map(Result::err)
                    .unwrap_or_default();
                report.violation(format!("after crash: {first}"));
            }
        }
    }
    Ok(report)
}

impl CrashReport {
    fn violation(&mut self, msg: String) {
        self.violations += 1;
        if self.errors.len() < 8 {
            self.errors.push(msg);
        }
    }
}
