//! Determinism regression tests for the whole-system simulator (ISSUE 8
//! satellite): the same seed and configuration must produce a
//! byte-identical observability trace and final state across two runs —
//! for a clean schedule *and* for one with message drops and a mid-run
//! node crash-restart. Any divergence here means wall-clock time, map
//! iteration order, or an unseeded RNG leaked into an execution, which
//! would break seed replay and auto-minimization.

use shardstore_harness::conformance::ConformanceConfig;
use shardstore_harness::detect::sample_sequences;
use shardstore_harness::gen::{kv_ops, node_ops, GenConfig};
use shardstore_harness::ops::{KvOp, NodeOp};
use shardstore_harness::simulate::{
    run_conformance_sim, run_crash_sim, run_rpc_sim, SimOptions, SimOutcome,
};
use shardstore_sim::{CrashPoint, FaultPoint, PerturbProfile, SimFaultKind, SimSchedule};

fn kv_sequence(seed: u64, cfg: GenConfig) -> Vec<KvOp> {
    sample_sequences(kv_ops(cfg), seed, 1).next().expect("one sequence")
}

fn node_sequence(seed: u64) -> Vec<NodeOp> {
    sample_sequences(node_ops(GenConfig::conformance()), seed, 1).next().expect("one sequence")
}

fn fingerprints_of(outcome: &SimOutcome) -> &str {
    outcome.fingerprint.as_deref().expect("fingerprint requested")
}

/// A schedule with message drops and a mid-run whole-node crash-restart
/// (plus timer ticks), the perturbation shape the satellite task names.
fn drops_and_crash(n_ops: usize) -> SimSchedule {
    SimSchedule {
        crashes: vec![CrashPoint { at_op: n_ops / 2, keep_mask: 0xDEAD_BEEF_0BAD_F00D }],
        tick_every: 4,
        drops: vec![n_ops / 5, n_ops / 3, (2 * n_ops) / 3],
        delays: vec![(n_ops / 4, 24), (n_ops / 2 + 1, 40)],
        ..SimSchedule::clean()
    }
}

#[test]
fn crash_world_clean_schedule_is_deterministic() {
    let cfg = ConformanceConfig::default();
    let opts = SimOptions { fingerprint: true };
    let ops = kv_sequence(0xDE7E_0001, GenConfig::crash());
    let schedule = SimSchedule::clean();
    let a = run_crash_sim(&ops, &cfg, &schedule, &opts).expect("clean run passes");
    let b = run_crash_sim(&ops, &cfg, &schedule, &opts).expect("clean run passes");
    assert_eq!(a.sim, b.sim, "event accounting diverged between identical runs");
    assert_eq!(
        fingerprints_of(&a),
        fingerprints_of(&b),
        "obs trace + final state diverged on a clean schedule"
    );
}

#[test]
fn crash_world_drops_and_crash_restart_are_deterministic() {
    let cfg = ConformanceConfig::default();
    let opts = SimOptions { fingerprint: true };
    let ops = kv_sequence(0xDE7E_0002, GenConfig::crash());
    let schedule = drops_and_crash(ops.len());
    let a = run_crash_sim(&ops, &cfg, &schedule, &opts).expect("perturbed run passes");
    let b = run_crash_sim(&ops, &cfg, &schedule, &opts).expect("perturbed run passes");
    assert_eq!(a.sim, b.sim, "event accounting diverged between identical runs");
    assert!(a.sim.crashes >= 1, "schedule's crash-restart never fired");
    assert!(a.sim.deliveries < a.sim.ops, "drops should suppress some deliveries");
    assert_eq!(
        fingerprints_of(&a),
        fingerprints_of(&b),
        "obs trace + final state diverged under drops + crash-restart"
    );
}

#[test]
fn conformance_world_perturbed_schedule_is_deterministic() {
    let cfg = ConformanceConfig::default();
    let opts = SimOptions { fingerprint: true };
    let ops = kv_sequence(0xDE7E_0003, GenConfig::conformance());
    // Delivery perturbations only (the conformance oracles are not
    // crash-aware); same seed ⇒ same schedule ⇒ same execution.
    let schedule = SimSchedule {
        tick_every: 3,
        drops: vec![ops.len() / 4],
        delays: vec![(ops.len() / 2, 33)],
        ..SimSchedule::clean()
    };
    let a = run_conformance_sim(&ops, &cfg, &schedule, &opts).expect("run passes");
    let b = run_conformance_sim(&ops, &cfg, &schedule, &opts).expect("run passes");
    assert_eq!(a.sim, b.sim);
    assert_eq!(fingerprints_of(&a), fingerprints_of(&b));
}

#[test]
fn rpc_world_perturbed_schedule_is_deterministic() {
    let cfg = ConformanceConfig::default();
    let opts = SimOptions { fingerprint: true };
    let ops = node_sequence(0xDE7E_0004);
    let schedule = SimSchedule {
        tick_every: 5,
        drops: vec![ops.len() / 3],
        delays: vec![(ops.len() / 2, 20)],
        faults: vec![FaultPoint { at_op: 1, extent: 3, kind: SimFaultKind::Permanent }],
        crashes: vec![CrashPoint { at_op: ops.len() / 2, keep_mask: 0 }],
    };
    let a = run_rpc_sim(&ops, &cfg, 3, &schedule, &opts).expect("run passes");
    let b = run_rpc_sim(&ops, &cfg, 3, &schedule, &opts).expect("run passes");
    assert_eq!(a.sim, b.sim);
    assert_eq!(fingerprints_of(&a), fingerprints_of(&b));
    // The request-plane world ignores fault and crash points, so the
    // simulator must not report them as executed.
    assert_eq!(a.sim.crashes, 0, "ignored crash point counted as run");
    assert_eq!(a.sim.faults_armed, 0, "ignored fault point counted as armed");
}

#[test]
fn perturbed_schedules_replay_identically_from_their_seed() {
    // The swarm contract: a failing seed is reproducible because the
    // schedule derivation itself is a pure function of the seed.
    let cfg = ConformanceConfig::default();
    let opts = SimOptions { fingerprint: true };
    let profile = PerturbProfile::default();
    for seed in [0xD5EE_D001u64, 0xD5EE_D002, 0xD5EE_D003, 0xD5EE_D004] {
        let ops = kv_sequence(seed, GenConfig::crash());
        let s1 = SimSchedule::perturbed(seed, ops.len(), &profile);
        let s2 = SimSchedule::perturbed(seed, ops.len(), &profile);
        assert_eq!(s1, s2, "schedule derivation is not seed-pure");
        let a = run_crash_sim(&ops, &cfg, &s1, &opts).expect("seeded run passes");
        let b = run_crash_sim(&ops, &cfg, &s2, &opts).expect("seeded run passes");
        assert_eq!(a.sim, b.sim, "seed {seed:#x} diverged");
        assert_eq!(fingerprints_of(&a), fingerprints_of(&b), "seed {seed:#x} diverged");
    }
}
