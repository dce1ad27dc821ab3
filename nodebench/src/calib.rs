//! Host-speed calibration. On a shared virtual machine the same code can
//! run a third slower for tens of minutes, because of what its neighbours
//! do. A fixed kernel, copies, checksums and ordered-map updates over a
//! pool larger than the CPU caches (the kind of work the node does per
//! request), is timed in a short burst in every slice of the measured
//! phase, and CPU times are reported scaled by [`REFERENCE_REP_S`] over
//! its median time: a slower or faster host moves them less than it
//! moves the raw figures.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use crate::workload::mix64;

/// Median seconds of one kernel rep on the reference host (a 2-vCPU
/// x86-64 virtual machine, rustc release build, timed under the
/// benchmark's own load).
pub const REFERENCE_REP_S: f64 = 0.000_140;
/// Reps in a burst.
const BURST: usize = 40;
/// Pool size: larger than the caches, as the node's working set is.
const POOL_WORDS: usize = 1 << 20;
/// Block copies per rep.
const BLOCKS: usize = 96;
const BLOCK_WORDS: usize = 512;
/// Ordered-map entries kept live across reps.
const MAP_ENTRIES: usize = 4096;

/// The kernel's state: its pool and map live across bursts, so every
/// burst times the same steady work.
pub struct Calibration {
    pool: Vec<u64>,
    map: BTreeMap<u64, u64>,
    scratch: Vec<u64>,
    step: u64,
}

impl Calibration {
    pub fn new() -> Self {
        Self {
            pool: (0..POOL_WORDS as u64).map(mix64).collect(),
            map: BTreeMap::new(),
            scratch: vec![0; BLOCK_WORDS],
            step: 0,
        }
    }

    /// Times a burst of reps and returns its median seconds per rep.
    pub fn burst(&mut self) -> f64 {
        let mut v: Vec<f64> = (0..BURST)
            .map(|_| {
                let t = Instant::now();
                self.rep();
                t.elapsed().as_secs_f64()
            })
            .collect();
        v.sort_by(f64::total_cmp);
        v[v.len() / 2]
    }

    fn rep(&mut self) {
        for _ in 0..BLOCKS {
            self.step += 1;
            let at = (mix64(self.step) as usize) % (POOL_WORDS - BLOCK_WORDS);
            self.scratch
                .copy_from_slice(&self.pool[at..at + BLOCK_WORDS]);
            let sum = self
                .scratch
                .iter()
                .fold(self.step, |h, w| (h ^ w).wrapping_mul(0x1000_0000_01B3));
            self.map.insert(black_box(sum), self.step);
            if self.map.len() > MAP_ENTRIES {
                self.map.pop_first();
            }
        }
    }
}
