//! Crash-consistency checking (§5 of the paper).
//!
//! The alphabet extends the conformance alphabet with
//! `DirtyReboot(RebootType)`: the reboot type decides which volatile
//! component state is flushed or issued before the crash, and which
//! disk-cache pages survive it (coarse per-component choices plus
//! block-level page subsets — both granularities from §5).
//!
//! Two properties are checked, verbatim from the paper:
//!
//! 1. **Persistence** — if a dependency says an operation persisted
//!    before a crash, it is readable after the crash (unless superseded
//!    by a later persisted operation), and anything read back must be a
//!    value that was actually written (no corruption).
//! 2. **Forward progress** — after a non-crashing shutdown, every
//!    operation's dependency reports persistent.
//!
//! The operations themselves run through the shared interpreter
//! ([`RunCtx::step`] under the crash policy); this module holds only the
//! crash-specific checks.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use shardstore_faults::coverage;
use shardstore_vdisk::CrashPlan;

use crate::conformance::{ConformanceConfig, Divergence, RunCtx, RunReport};
use crate::ops::{KvOp, RebootType};

/// Runs a sequence that may include dirty reboots, checking the §5
/// persistence and forward-progress properties at every crash and clean
/// shutdown.
///
/// A thin frontend over the deterministic simulator (clean schedule =
/// the historical loop); perturbed schedules go through
/// [`crate::simulate::run_crash_sim`].
pub fn run_crash_consistency(
    ops: &[KvOp],
    cfg: &ConformanceConfig,
) -> Result<RunReport, Divergence> {
    let outcome = crate::simulate::run_crash_sim(
        ops,
        cfg,
        &shardstore_sim::SimSchedule::clean(),
        &crate::simulate::SimOptions::default(),
    )?;
    Ok(outcome.report)
}

/// The §5 forward-progress check, run after a non-crashing shutdown:
/// every recorded mutation's dependency must report persistent.
pub(crate) fn check_forward_progress(ctx: &RunCtx) -> Result<(), String> {
    ctx.model.check_forward_progress().map_err(|key| {
        coverage::hit("crashcheck.forward_progress_violation");
        format!("forward progress: dependency for key {key} not persistent after clean shutdown")
    })
}

/// Crashes the store with `rt`'s volatile-state treatment, recovers, and
/// checks the §5 persistence property for every tracked key.
pub(crate) fn dirty_reboot(ctx: &mut RunCtx, rt: &RebootType) -> Result<(), String> {
    coverage::hit("crashcheck.dirty_reboot");
    // Pre-crash volatile-state treatment (§5's RebootType).
    if rt.flush_index {
        let _ = ctx.store.flush_index();
    }
    let sched = ctx.store.scheduler();
    if rt.issue_ios > 0 {
        let _ = sched.issue_ready(rt.issue_ios as usize);
    }
    // Block-level survival: choose a page subset via the mask.
    let pages = sched.disk().volatile_pages();
    let keep: BTreeSet<_> = pages
        .into_iter()
        .enumerate()
        .filter(|(idx, _)| rt.keep_mask & (1u64 << (idx % 64)) != 0)
        .map(|(_, p)| p)
        .collect();
    let plan = if keep.is_empty() { CrashPlan::LoseAll } else { CrashPlan::Keep(keep) };
    // Crash + recover. Dependency persistence is frozen by the crash
    // (pending/issued writes become permanently lost), so polling the
    // model's expectations *after* the crash sees exactly the pre-crash
    // persistence.
    let recovered = match ctx.store.dirty_reboot(&plan) {
        Ok(s) => s,
        Err(e) => {
            if ctx.has_failed {
                ctx.store.scheduler().disk().clear_failures();
                ctx.store
                    .dirty_reboot(&CrashPlan::LoseAll)
                    .map_err(|e| format!("recovery failed twice: {e}"))?
            } else {
                return Err(format!("recovery failed: {e}"));
            }
        }
    };
    ctx.store = recovered;
    // The §5 persistence check, one key at a time, collecting the
    // observed post-recovery state to resynchronize the model.
    let mut observations: BTreeMap<u128, Option<Arc<Vec<u8>>>> = BTreeMap::new();
    for key in ctx.model.tracked_keys() {
        let exp = ctx.model.expectation(key);
        let observed = match ctx.store.get(key) {
            Ok(v) => v.map(Arc::new),
            Err(e) => {
                if ctx.has_failed {
                    continue;
                }
                return Err(format!("post-crash get({key}) failed: {e}"));
            }
        };
        observations.insert(key, observed.clone());
        // The §5 persistence property is exactly the allowed-set check:
        // the set contains the last persisted mutation's value plus every
        // later (possibly surviving) unpersisted mutation — so a persisted
        // value can only be "missing" if nothing in the set matches.
        if exp.persisted.is_some() && !exp.permits(&observed) && !ctx.has_failed {
            coverage::hit("crashcheck.persistence_violation");
            return Err(format!(
                "persistence violation for key {key}: persisted {:?} bytes, observed {:?} bytes",
                exp.persisted.as_ref().and_then(|v| v.as_ref()).map(|v| v.len()),
                observed.as_ref().map(|v| v.len())
            ));
        }
        if !exp.permits(&observed) {
            // Corruption (bytes never written) is never allowed, failure
            // or not.
            let corrupt = observed
                .as_ref()
                .map(|o| !ctx.was_written(key, o))
                .unwrap_or(false);
            if corrupt || !ctx.has_failed {
                coverage::hit("crashcheck.consistency_violation");
                return Err(format!(
                    "consistency violation for key {key}: observed {:?} bytes not in allowed set",
                    observed.as_ref().map(|v| v.len())
                ));
            }
        }
    }
    ctx.model.crash_with_observations(&observations);
    Ok(())
}
