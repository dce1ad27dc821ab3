//! Executable reference models — the specifications ShardStore is checked
//! against (§3.2 of the paper).
//!
//! Each model provides the same interface as a real component but with a
//! radically simpler implementation: the index model is an ordered map
//! instead of a persistent LSM tree; the chunk-store model is a map from
//! counter-derived locators to byte strings. Models define the *allowed
//! sequential, crash-free behaviours*; the crash-aware extension
//! ([`CrashAwareKvModel`]) additionally defines which recent mutations a
//! soft-updates crash is allowed to lose (§5).
//!
//! Models deliberately omit implementation failures (IO errors, resource
//! exhaustion): the conformance harness relaxes its checks after injected
//! failures instead (§4.4's "has failed" flag).
//!
//! Because the models live in the implementation language, they double as
//! **mocks** in unit tests (see [`ChunkStoreModel`], used exactly the way
//! Fig. 4 mocks out persistent chunk storage), which is what keeps them
//! up to date as the system evolves (§8.4).
//!
//! Two of the paper's sixteen issues were bugs in the *models* rather
//! than the implementation, and both are reproducible here:
//! [`BugId::B15ModelLocatorReuse`] (the chunk-store model re-used
//! locators) and [`BugId::B9ModelCrashReclamation`] (the crash-aware
//! model mishandled reclamation across a crash).

pub mod verify;

use std::collections::BTreeMap;
use std::sync::Arc;

use shardstore_chunk::Locator;
use shardstore_conc::sync::Mutex;
use shardstore_dependency::Dependency;
use shardstore_faults::{BugId, FaultConfig};
use shardstore_vdisk::ExtentId;

// ---------------------------------------------------------------------------
// Index model
// ---------------------------------------------------------------------------

/// Reference model for the LSM index: a plain ordered map (the paper's
/// "simple hash table"; ordered here so iteration is deterministic, per
/// §4.3's determinism-by-design principle).
///
/// Background operations (`flush`, `compact`, `reclaim`) are no-ops: they
/// must not change the key-value mapping, and running them against the
/// implementation validates exactly that (Fig. 3).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct IndexModel {
    map: BTreeMap<u128, Vec<Locator>>,
}

impl IndexModel {
    /// Creates an empty model.
    pub fn new() -> Self {
        Self::default()
    }

    /// Inserts or overwrites a key.
    pub fn put(&mut self, key: u128, locators: Vec<Locator>) {
        self.map.insert(key, locators);
    }

    /// Looks up a key.
    pub fn get(&self, key: u128) -> Option<Vec<Locator>> {
        self.map.get(&key).cloned()
    }

    /// Deletes a key.
    pub fn delete(&mut self, key: u128) {
        self.map.remove(&key);
    }

    /// All present keys, in order.
    pub fn keys(&self) -> Vec<u128> {
        self.map.keys().copied().collect()
    }

    /// Flush is a no-op in the model.
    pub fn flush(&mut self) {}

    /// Compaction is a no-op in the model.
    pub fn compact(&mut self) {}

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

// ---------------------------------------------------------------------------
// Chunk store model
// ---------------------------------------------------------------------------

/// Reference model for the chunk store, also usable as a mock (Fig. 4's
/// `MockChunkStore`): locators are synthesized from a counter and payloads
/// kept in a map.
///
/// With [`BugId::B15ModelLocatorReuse`] seeded, locators are derived from
/// the current map size instead of a monotonic counter, so a put after a
/// delete re-issues an existing locator — the paper's issue #15, a model
/// bug that other code's uniqueness assumptions exposed.
#[derive(Debug)]
pub struct ChunkStoreModel {
    inner: Mutex<ChunkModelState>,
    faults: FaultConfig,
}

#[derive(Debug, Default)]
struct ChunkModelState {
    chunks: BTreeMap<Locator, Arc<Vec<u8>>>,
    next_id: u64,
}

impl ChunkStoreModel {
    /// Creates an empty model.
    pub fn new(faults: FaultConfig) -> Self {
        Self { inner: Mutex::new(ChunkModelState::default()), faults }
    }

    fn synth_locator(id: u64, len: usize) -> Locator {
        // A synthetic but structurally valid locator; the extent encodes
        // the model id so locators stay unique and recognizable.
        Locator {
            extent: ExtentId((id >> 16) as u32),
            offset: (id & 0xFFFF) as u32,
            len: len as u32,
            uuid: 0xA10D_E100u128 + id as u128,
        }
    }

    /// Stores a payload, returning its locator.
    pub fn put(&self, payload: &[u8]) -> Locator {
        let mut st = self.inner.lock();
        let id = if self.faults.is(BugId::B15ModelLocatorReuse) {
            // BUG B15 (seeded): "fresh" ids derived from the current
            // population re-use locators after deletions.
            st.chunks.len() as u64
        } else {
            let id = st.next_id;
            st.next_id += 1;
            id
        };
        let locator = Self::synth_locator(id, payload.len());
        st.chunks.insert(locator, Arc::new(payload.to_vec()));
        locator
    }

    /// Reads a chunk back.
    pub fn get(&self, locator: &Locator) -> Option<Arc<Vec<u8>>> {
        self.inner.lock().chunks.get(locator).cloned()
    }

    /// Deletes a chunk.
    pub fn delete(&self, locator: &Locator) -> bool {
        self.inner.lock().chunks.remove(locator).is_some()
    }

    /// Reclamation is a no-op in the model (it must not change any
    /// observable mapping).
    pub fn reclaim(&self) {}

    /// Number of stored chunks.
    pub fn len(&self) -> usize {
        self.inner.lock().chunks.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.inner.lock().chunks.is_empty()
    }
}

// ---------------------------------------------------------------------------
// API-level KV model
// ---------------------------------------------------------------------------

/// Reference model for the whole storage node API: shard id → bytes.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct KvModel {
    map: BTreeMap<u128, Arc<Vec<u8>>>,
}

impl KvModel {
    /// Creates an empty model.
    pub fn new() -> Self {
        Self::default()
    }

    /// Stores a shard.
    pub fn put(&mut self, shard: u128, data: &[u8]) {
        self.map.insert(shard, Arc::new(data.to_vec()));
    }

    /// Reads a shard.
    pub fn get(&self, shard: u128) -> Option<Arc<Vec<u8>>> {
        self.map.get(&shard).cloned()
    }

    /// Deletes a shard. Returns whether it existed.
    pub fn delete(&mut self, shard: u128) -> bool {
        self.map.remove(&shard).is_some()
    }

    /// All shard ids, in order.
    pub fn list(&self) -> Vec<u128> {
        self.map.keys().copied().collect()
    }

    /// Range scan: every `(shard, value)` with `start <= shard <= end`,
    /// ascending. The specification for [`Store::scan`]-style range
    /// reads — the ordered map *is* the semantics.
    ///
    /// [`Store::scan`]: ../shardstore_core/store/struct.Store.html
    pub fn scan(&self, start: u128, end: u128) -> Vec<(u128, Arc<Vec<u8>>)> {
        if start > end {
            return Vec::new();
        }
        self.map.range(start..=end).map(|(k, v)| (*k, Arc::clone(v))).collect()
    }

    /// Number of shards.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

// ---------------------------------------------------------------------------
// Crash-aware KV model (§5)
// ---------------------------------------------------------------------------

/// What the crash-aware model allows for one key after a crash.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CrashExpectation {
    /// The value of the last mutation whose dependency had persisted
    /// before the crash (`Some(None)` = a persisted delete; `None` = no
    /// mutation ever persisted for this key).
    pub persisted: Option<Option<Arc<Vec<u8>>>>,
    /// Every value the implementation may legitimately return: the
    /// persisted value plus any later, unpersisted mutations (soft
    /// updates allow losing any suffix of unpersisted work, and an
    /// in-flight mutation may or may not have survived).
    pub allowed: Vec<Option<Arc<Vec<u8>>>>,
}

impl CrashExpectation {
    /// True if the implementation's observed value is allowed.
    pub fn permits(&self, observed: &Option<Arc<Vec<u8>>>) -> bool {
        self.allowed.iter().any(|a| match (a, observed) {
            (None, None) => true,
            (Some(x), Some(y)) => x == y,
            _ => false,
        })
    }
}

#[derive(Debug, Clone)]
struct Mutation {
    /// `Some(bytes)` for a put, `None` for a delete.
    value: Option<Arc<Vec<u8>>>,
    /// The mutation's durability dependency; `None` means the mutation is
    /// already durable (used for post-crash resynchronization, where the
    /// observed recovered state is durable by construction).
    dep: Option<Dependency>,
}

impl Mutation {
    fn is_persistent(&self) -> bool {
        self.dep.as_ref().map(|d| d.is_persistent()).unwrap_or(true)
    }
}

/// The §5 crash-aware extension of [`KvModel`]: every mutation is recorded
/// with its [`Dependency`], and [`CrashAwareKvModel::crash`] collapses
/// each key's history using the dependencies' persistence at crash time —
/// defining exactly which data soft updates allow a crash to lose.
///
/// With [`BugId::B9ModelCrashReclamation`] seeded, the model reproduces
/// the paper's issue #9: after a crash that interrupted a reclamation it
/// fails to re-widen its expectations, insisting that *unpersisted*
/// mutations survive — a bug in the specification that the conformance
/// checker surfaces as a model/implementation divergence.
#[derive(Debug, Default)]
pub struct CrashAwareKvModel {
    history: BTreeMap<u128, Vec<Mutation>>,
    faults: FaultConfig,
    reclaim_since_crash: bool,
}

impl CrashAwareKvModel {
    /// Creates an empty crash-aware model.
    pub fn new(faults: FaultConfig) -> Self {
        Self { history: BTreeMap::new(), faults, reclaim_since_crash: false }
    }

    /// Records a put with its dependency.
    pub fn put(&mut self, shard: u128, data: &[u8], dep: Dependency) {
        self.history
            .entry(shard)
            .or_default()
            .push(Mutation { value: Some(Arc::new(data.to_vec())), dep: Some(dep) });
    }

    /// Records a delete with its dependency.
    pub fn delete(&mut self, shard: u128, dep: Dependency) {
        self.history.entry(shard).or_default().push(Mutation { value: None, dep: Some(dep) });
    }

    /// Records that a reclamation pass ran (drives the seeded bug B9).
    pub fn note_reclaim(&mut self) {
        self.reclaim_since_crash = true;
    }

    /// The crash-free expected value (the latest mutation).
    pub fn current(&self, shard: u128) -> Option<Arc<Vec<u8>>> {
        self.history.get(&shard).and_then(|h| h.last()).and_then(|m| m.value.clone())
    }

    /// All shards whose latest mutation is a put.
    pub fn list(&self) -> Vec<u128> {
        self.history
            .iter()
            .filter(|(_, h)| h.last().map(|m| m.value.is_some()).unwrap_or(false))
            .map(|(k, _)| *k)
            .collect()
    }

    /// The crash-free range scan: every `(shard, latest value)` with
    /// `start <= shard <= end`, ascending (the [`KvModel::scan`]
    /// semantics over the latest mutations).
    pub fn scan(&self, start: u128, end: u128) -> Vec<(u128, Arc<Vec<u8>>)> {
        if start > end {
            return Vec::new();
        }
        self.history
            .range(start..=end)
            .filter_map(|(k, h)| h.last().and_then(|m| m.value.clone()).map(|v| (*k, v)))
            .collect()
    }

    /// Adopts an observed value as the key's durable state, discarding
    /// its history (`None` = observed absent).
    pub fn resync(&mut self, shard: u128, observed: Option<Arc<Vec<u8>>>) {
        match observed {
            Some(v) => {
                self.history.insert(shard, vec![Mutation { value: Some(v), dep: None }]);
            }
            None => {
                self.history.remove(&shard);
            }
        }
    }

    /// The §5 persistence check for one key, evaluated with dependency
    /// persistence *as of now* (call at the crash point, before recovery).
    pub fn expectation(&self, shard: u128) -> CrashExpectation {
        let Some(history) = self.history.get(&shard) else {
            return CrashExpectation { persisted: None, allowed: vec![None] };
        };
        let last_persisted = history.iter().rposition(|m| m.is_persistent());
        let persisted = last_persisted.map(|i| history[i].value.clone());
        let mut allowed: Vec<Option<Arc<Vec<u8>>>> = Vec::new();
        if self.faults.is(BugId::B9ModelCrashReclamation) && self.reclaim_since_crash {
            // BUG B9 (seeded): after a reclamation the model "knows" the
            // data was rewritten recently and (incorrectly) expects the
            // latest value regardless of persistence.
            allowed.push(history.last().and_then(|m| m.value.clone()));
            return CrashExpectation { persisted, allowed };
        }
        match last_persisted {
            Some(i) => {
                // The persisted value, or any later unpersisted mutation
                // that happened to survive.
                for m in &history[i..] {
                    let v = m.value.clone();
                    if !allowed.contains(&v) {
                        allowed.push(v);
                    }
                }
            }
            None => {
                // Nothing persisted: the key may be absent, or any of the
                // unpersisted mutations may have survived.
                allowed.push(None);
                for m in history {
                    let v = m.value.clone();
                    if !allowed.contains(&v) {
                        allowed.push(v);
                    }
                }
            }
        }
        CrashExpectation { persisted, allowed }
    }

    /// Applies a crash: collapse each key's history to the last persisted
    /// mutation (evaluated now) and clear unpersisted work. Call after the
    /// checks, before continuing the workload against the recovered store.
    pub fn crash(&mut self) {
        self.crash_with_observations(&BTreeMap::new());
    }

    /// Applies a crash, resynchronizing with the implementation's observed
    /// post-recovery values. Soft updates allow an *unpersisted* mutation
    /// to either survive or vanish; whichever way the crash broke, the
    /// model must adopt it (after the checker has verified the observation
    /// is in the allowed set) — otherwise later reads of legitimately
    /// surviving data would be flagged as divergences.
    pub fn crash_with_observations(
        &mut self,
        observed: &BTreeMap<u128, Option<Arc<Vec<u8>>>>,
    ) {
        let keys: Vec<u128> = self.history.keys().copied().collect();
        for key in keys {
            if let Some(obs) = observed.get(&key) {
                // Observed state is durable after recovery.
                self.resync(key, obs.clone());
                continue;
            }
            let history = self.history.get_mut(&key).expect("key listed");
            let last_persisted = history.iter().rposition(|m| m.is_persistent());
            match last_persisted {
                Some(i) => {
                    let kept = history[i].clone();
                    history.clear();
                    history.push(kept);
                }
                None => {
                    self.history.remove(&key);
                }
            }
        }
        self.reclaim_since_crash = false;
    }

    /// Every key with any recorded history (for iteration in checks).
    pub fn tracked_keys(&self) -> Vec<u128> {
        self.history.keys().copied().collect()
    }

    /// The §5 forward-progress check: after a non-crashing shutdown every
    /// recorded mutation's dependency must report persistent. Returns the
    /// first offending key, if any.
    pub fn check_forward_progress(&self) -> Result<(), u128> {
        for (key, history) in &self.history {
            for m in history {
                if !m.is_persistent() {
                    return Err(*key);
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use shardstore_dependency::IoScheduler;
    use shardstore_vdisk::{CrashPlan, Disk, Geometry};

    fn sched() -> IoScheduler {
        IoScheduler::new(Disk::new(Geometry::small()))
    }

    #[test]
    fn index_model_basics() {
        let mut m = IndexModel::new();
        assert!(m.is_empty());
        let l = Locator { extent: ExtentId(1), offset: 0, len: 4, uuid: 9 };
        m.put(5, vec![l]);
        assert_eq!(m.get(5), Some(vec![l]));
        m.flush();
        m.compact();
        assert_eq!(m.get(5), Some(vec![l]), "background ops must not change the mapping");
        m.delete(5);
        assert_eq!(m.get(5), None);
    }

    #[test]
    fn chunk_model_roundtrip_and_unique_locators() {
        let m = ChunkStoreModel::new(FaultConfig::none());
        let a = m.put(b"aaa");
        let b = m.put(b"bbb");
        assert_ne!(a, b);
        assert_eq!(*m.get(&a).unwrap(), b"aaa");
        assert!(m.delete(&a));
        assert!(m.get(&a).is_none());
        // Fixed model: locators never repeat even after deletion.
        let c = m.put(b"ccc");
        assert_ne!(c, a);
        assert_ne!(c, b);
    }

    #[test]
    fn b15_seeded_chunk_model_reuses_locators() {
        let m = ChunkStoreModel::new(FaultConfig::seed(BugId::B15ModelLocatorReuse));
        let a = m.put(b"aaa");
        m.delete(&a);
        let b = m.put(b"bbb");
        // The buggy model reissues the same locator with the same length.
        assert_eq!(a.extent, b.extent);
        assert_eq!(a.offset, b.offset);
    }

    #[test]
    fn kv_model_basics() {
        let mut m = KvModel::new();
        m.put(1, b"one");
        m.put(2, b"two");
        assert_eq!(m.list(), vec![1, 2]);
        assert!(m.delete(1));
        assert!(!m.delete(1));
        assert_eq!(m.get(1), None);
        assert_eq!(*m.get(2).unwrap(), b"two");
    }

    #[test]
    fn kv_model_scan_is_the_ordered_range() {
        let mut m = KvModel::new();
        for k in [5u128, 1, 9, 3] {
            m.put(k, &k.to_le_bytes());
        }
        let hits: Vec<u128> = m.scan(2, 8).iter().map(|(k, _)| *k).collect();
        assert_eq!(hits, vec![3, 5]);
        assert_eq!(m.scan(0, u128::MAX).len(), 4);
        assert!(m.scan(6, 8).is_empty());
        assert!(m.scan(8, 2).is_empty(), "inverted range is empty");
        assert_eq!(*m.scan(3, 3)[0].1, 3u128.to_le_bytes().to_vec());
    }

    #[test]
    fn crash_aware_model_keeps_persisted_data() {
        let s = sched();
        let mut m = CrashAwareKvModel::new(FaultConfig::none());
        let dep = s.submit_write(ExtentId(1), 0, b"v1".to_vec(), &s.none());
        m.put(7, b"v1", dep);
        s.pump().unwrap();
        let exp = m.expectation(7);
        assert_eq!(exp.persisted, Some(Some(Arc::new(b"v1".to_vec()))));
        assert!(exp.permits(&Some(Arc::new(b"v1".to_vec()))));
        assert!(!exp.permits(&None), "persisted data must not be lost");
        assert!(!exp.permits(&Some(Arc::new(b"other".to_vec()))));
    }

    #[test]
    fn crash_aware_model_allows_losing_unpersisted_data() {
        let s = sched();
        let mut m = CrashAwareKvModel::new(FaultConfig::none());
        let dep = s.submit_write(ExtentId(1), 0, b"v1".to_vec(), &s.none());
        m.put(7, b"v1", dep);
        // Not pumped: nothing persisted.
        let exp = m.expectation(7);
        assert_eq!(exp.persisted, None);
        assert!(exp.permits(&None));
        assert!(exp.permits(&Some(Arc::new(b"v1".to_vec()))));
        assert!(!exp.permits(&Some(Arc::new(b"junk".to_vec()))), "corruption is never allowed");
    }

    #[test]
    fn crash_aware_model_handles_persisted_then_unpersisted_overwrite() {
        let s = sched();
        let mut m = CrashAwareKvModel::new(FaultConfig::none());
        let d1 = s.submit_write(ExtentId(1), 0, b"v1".to_vec(), &s.none());
        m.put(7, b"v1", d1);
        s.pump().unwrap();
        let d2 = s.submit_write(ExtentId(1), 10, b"v2".to_vec(), &s.none());
        m.put(7, b"v2", d2);
        let exp = m.expectation(7);
        assert!(exp.permits(&Some(Arc::new(b"v1".to_vec()))));
        assert!(exp.permits(&Some(Arc::new(b"v2".to_vec()))));
        assert!(!exp.permits(&None), "the key cannot vanish: v1 persisted");
    }

    #[test]
    fn crash_collapses_history() {
        let s = sched();
        let mut m = CrashAwareKvModel::new(FaultConfig::none());
        let d1 = s.submit_write(ExtentId(1), 0, b"v1".to_vec(), &s.none());
        m.put(7, b"v1", d1);
        s.pump().unwrap();
        let d2 = s.submit_write(ExtentId(1), 10, b"v2".to_vec(), &s.none());
        m.put(7, b"v2", d2);
        s.crash(&CrashPlan::LoseAll);
        m.crash();
        assert_eq!(m.current(7), Some(Arc::new(b"v1".to_vec())));
        // Unpersisted-only keys vanish entirely.
        let d3 = s.submit_write(ExtentId(2), 0, b"x".to_vec(), &s.none());
        m.put(9, b"x", d3);
        s.crash(&CrashPlan::LoseAll);
        m.crash();
        assert_eq!(m.current(9), None);
        assert!(!m.tracked_keys().contains(&9));
    }

    #[test]
    fn persisted_delete_wins_over_earlier_put() {
        let s = sched();
        let mut m = CrashAwareKvModel::new(FaultConfig::none());
        let d1 = s.submit_write(ExtentId(1), 0, b"v1".to_vec(), &s.none());
        m.put(7, b"v1", d1);
        let d2 = s.submit_write(ExtentId(1), 10, b"tomb".to_vec(), &s.none());
        m.delete(7, d2);
        s.pump().unwrap();
        let exp = m.expectation(7);
        assert_eq!(exp.persisted, Some(None));
        assert!(exp.permits(&None));
        assert!(!exp.permits(&Some(Arc::new(b"v1".to_vec()))), "deleted data must stay deleted");
    }

    #[test]
    fn b9_seeded_model_overconstrains_after_reclaim_crash() {
        let s = sched();
        let mut m = CrashAwareKvModel::new(FaultConfig::seed(BugId::B9ModelCrashReclamation));
        let dep = s.submit_write(ExtentId(1), 0, b"v1".to_vec(), &s.none());
        m.put(7, b"v1", dep);
        m.note_reclaim();
        // Nothing persisted, yet the buggy model insists v1 survives.
        let exp = m.expectation(7);
        assert!(!exp.permits(&None), "the buggy model rejects legitimate data loss");
        assert!(exp.permits(&Some(Arc::new(b"v1".to_vec()))));
    }

    #[test]
    fn expectation_for_untouched_key_is_absent() {
        let m = CrashAwareKvModel::new(FaultConfig::none());
        let exp = m.expectation(42);
        assert_eq!(exp.persisted, None);
        assert!(exp.permits(&None));
        assert!(!exp.permits(&Some(Arc::new(b"ghost".to_vec()))));
    }
}
