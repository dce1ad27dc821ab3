//! Regressions found by the simulator swarm and the background-writeback
//! matrix. Each test is a minimized `(ops, schedule)` repro pinned
//! verbatim, so the bug it found stays found.

use shardstore_core::Store;
use shardstore_faults::{coverage, FaultConfig};
use shardstore_harness::conformance::ConformanceConfig;
use shardstore_harness::ops::{KeyRef, KvOp, RebootType, ValueSpec};
use shardstore_harness::run_crash_consistency;
use shardstore_harness::simulate::{run_crash_sim, SimOptions};
use shardstore_sim::{FaultPoint, SimFaultKind, SimSchedule};
use shardstore_vdisk::{CrashPlan, ExtentId};

/// Coverage counts are process-global: tests that assert on them
/// serialize here so a parallel test's recording cannot reset them.
static COVERAGE_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// Swarm seed 0x5f2b (crash world): a permanent extent fault armed
/// before any operation, one batched put, one reboot. The flush during
/// shutdown placed the SSTable chunk on the failing extent; quarantine
/// marked that write `Lost`, doomed-edge pruning (correctly) let the
/// metadata record persist with the dangling table reference — and
/// recovery then died on the unreadable table, turning one dead extent
/// into node death. Recovery must instead drop the unreadable table
/// (its entries were never acknowledged — their promises wait on the
/// lost write forever) and keep the node alive.
fn seed_0x5f2b_ops() -> Vec<KvOp> {
    vec![
        KvOp::PutBatch(vec![
            (KeyRef::Literal(2), ValueSpec::Small(28)),
            (KeyRef::Recent(126), ValueSpec::FrameSpill(2)),
            (KeyRef::Literal(132), ValueSpec::Small(4)),
            (KeyRef::Recent(39), ValueSpec::Small(10)),
            (KeyRef::Recent(147), ValueSpec::FrameSpill(22)),
        ]),
        KvOp::Reboot,
    ]
}

#[test]
fn swarm_seed_0x5f2b_recovery_survives_table_lost_to_quarantine() {
    let cfg = ConformanceConfig::default();
    let schedule = SimSchedule {
        faults: vec![FaultPoint { at_op: 0, extent: 46, kind: SimFaultKind::Permanent }],
        ..SimSchedule::clean()
    };
    let outcome = run_crash_sim(&seed_0x5f2b_ops(), &cfg, &schedule, &SimOptions::default())
        .expect("recovery must survive a table chunk lost to extent quarantine");
    assert!(outcome.report.has_failed, "the schedule's fault should have armed");
}

#[test]
fn recovery_drops_unreadable_table_and_keeps_the_node_alive() {
    // The same failure, driven by hand at the store API so the repair is
    // pinned independent of the harness relaxations. A batch of many
    // small entries keeps the data chunks on healthy extent 2 while the
    // flush's (larger) table chunk spills onto failing extent 4 — so
    // exactly the table is lost, and its metadata reference dangles.
    let _serial = COVERAGE_LOCK.lock().unwrap();
    let _rec = coverage::Recording::start();
    let cfg = ConformanceConfig::default();
    let store = Store::format(cfg.geometry, cfg.store, FaultConfig::none());
    // A key made durable before the fault arms, with its data and table
    // chunks on healthy extents: it must survive everything below.
    store.put(500, b"durable before the fault").unwrap();
    store.flush_index().unwrap();
    store.pump().unwrap();
    // Permanent death of extent 4; the shutdown flush's SSTable chunk
    // lands on it and is lost to quarantine, while the metadata record
    // (with its dangling table reference) persists via doomed-edge
    // pruning.
    store.scheduler().disk().inject_fail_always(ExtentId(4));
    let page = cfg.geometry.page_size;
    let batch: Vec<(u128, Vec<u8>)> =
        (0..16u128).map(|k| (k, ValueSpec::Small(4).materialize(k, page))).collect();
    let deps = store.put_batch(&batch).unwrap();
    store.clean_shutdown().unwrap();
    assert_eq!(store.quarantined_extents(), vec![ExtentId(4)]);
    // The batch's entries seal over the lost table write: even though
    // their data chunks landed on a healthy extent, none may ever
    // acknowledge.
    for dep in &deps {
        assert!(!dep.is_persistent(), "a write lost to quarantine must never acknowledge");
    }
    // Recovery drops the unreadable table instead of dying.
    let recovered = store
        .dirty_reboot(&CrashPlan::LoseAll)
        .expect("one dead extent must not be node death");
    assert!(
        coverage::count("lsm.recover.dropped_unreadable_table") > 0,
        "recovery should have dropped the dangling table reference"
    );
    // The never-acknowledged batch may be gone; the acknowledged key
    // must not be.
    assert_eq!(
        recovered.get(500).unwrap().as_deref(),
        Some(b"durable before the fault".as_slice())
    );
    // And the recovered store keeps serving.
    recovered.put(501, b"written after recovery").unwrap();
    assert_eq!(
        recovered.get(501).unwrap().as_deref(),
        Some(b"written after recovery".as_slice())
    );
}

/// Root cause of the background-writeback false positive ("persistence
/// violation at a DirtyReboot racing the pump"), minimized in
/// deterministic mode. The second index flush's metadata record reaches
/// the disk but the superblock pointer covering it does not, so the
/// first recovery (correctly) ignores the record as residue and serves
/// key 1's older value — while positioning the append pointer past the
/// residue. The next superblock write persisted that pointer, so the
/// recovery after the next crash trusted the residue: the dead record,
/// holding the highest sequence number, won and rolled key 1 forward to
/// the value the first recovery had discarded. Recovery now wipes
/// metadata residue durably before extending the pointer over it.
fn discarded_metadata_record_ops() -> Vec<KvOp> {
    let crash = KvOp::DirtyReboot(RebootType { flush_index: false, issue_ios: 0, keep_mask: 0 });
    vec![
        KvOp::Put(KeyRef::Literal(1), ValueSpec::Small(2)),
        KvOp::Reboot,
        KvOp::Put(KeyRef::Literal(1), ValueSpec::Small(9)),
        KvOp::IndexFlush,
        KvOp::Pump(1),
        KvOp::Pump(1),
        KvOp::Pump(1),
        crash.clone(),
        KvOp::Put(KeyRef::Literal(2), ValueSpec::Small(1)),
        KvOp::Pump(255),
        KvOp::Pump(255),
        crash,
    ]
}

#[test]
fn recovery_never_resurrects_a_discarded_metadata_record() {
    let _serial = COVERAGE_LOCK.lock().unwrap();
    let _rec = coverage::Recording::start();
    run_crash_consistency(&discarded_metadata_record_ops(), &ConformanceConfig::default())
        .unwrap_or_else(|d| panic!("a discarded metadata record came back: {d}"));
    assert!(
        coverage::count("chunk.recover.residue_wiped") > 0,
        "recovery should have wiped the metadata residue past the pointer"
    );
}
