//! The three named workloads, the seeded operation generator, and the
//! self-describing payload format every output check relies on.

use std::sync::OnceLock;

/// One workload's parameters. Everything the node sees is generated from
/// these plus the run seed; the node never learns the workload name.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    /// Why this workload is in the benchmark (one line).
    pub why: &'static str,
    /// Inclusive value-size range in bytes, drawn uniformly.
    pub value_min: usize,
    pub value_max: usize,
    /// Keys each client loads during set-up (indices `0..preload`).
    pub preload: u64,
    /// Operation mix in percent: get, put, delete, scan page.
    pub mix: [u32; 4],
    /// Ingest puts create fresh keys; every other put overwrites a key
    /// of the bounded keyspace `0..preload`.
    pub fresh_puts: bool,
    /// Skew: `hot_pct` percent of gets go to the first `hot_keys` keys.
    pub hot_keys: u64,
    pub hot_pct: u32,
    /// Operations each client runs before the measured phase.
    pub warmup_ops: u64,
}

/// Concurrent client threads: one closed-loop front-end connection each.
pub const CLIENTS: usize = 2;
/// Requests each client keeps in flight. A put holds its slot until a
/// barrier made it durable.
pub const WINDOW: usize = 8;
/// Entries per scan page.
pub const SCAN_LIMIT: u32 = 32;
/// Keys a scan range spans (about twice a page, so pages truncate and
/// return a continuation).
pub const SCAN_SPAN: u64 = 64;
/// Bytes of the payload header: key (16), generation (8), checksum (8).
pub const HEADER: usize = 32;

pub const WORKLOADS: [&str; 3] = ["ingest", "read_cold", "mixed_churn"];

pub fn spec(name: &str) -> Option<Spec> {
    Some(match name {
        "ingest" => Spec {
            name: "ingest",
            why: "durable puts of new multi-chunk values: the write path (batching, chunk encode, \
                  scheduler, fdatasync fences, LSM flush and compaction) with no reads or garbage",
            value_min: 1024,
            value_max: 16 * 1024,
            preload: 4096,
            mix: [0, 100, 0, 0],
            fresh_puts: true,
            hot_keys: 0,
            hot_pct: 0,
            warmup_ops: 512,
        },
        "read_cold" => Spec {
            name: "read_cold",
            why: "uniform point gets over a flushed, compacted set 64x the per-disk buffer cache: \
                  engine round trip, LSM lookup and the cache-miss chunk read, no fences",
            value_min: 4096,
            value_max: 4096,
            preload: 16 * 1024,
            mix: [100, 0, 0, 0],
            fresh_puts: false,
            hot_keys: 0,
            hot_pct: 0,
            warmup_ops: 2048,
        },
        "mixed_churn" => Spec {
            name: "mixed_churn",
            why:
                "skewed gets, durable overwrites, deletes and paged scans over a bounded keyspace \
                  whose hot set fits the cache: cache hits, scan fan-out, garbage, and compaction \
                  against foreground tails",
            value_min: 256,
            value_max: 4096,
            preload: 4096,
            mix: [50, 30, 5, 15],
            fresh_puts: false,
            hot_keys: 128,
            hot_pct: 90,
            warmup_ops: 2048,
        },
        _ => return None,
    })
}

/// splitmix64: small, fast, and good enough to drive a workload.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix64(self.0)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + self.below((hi - lo + 1) as u64) as usize
    }
}

pub fn mix64(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// The node key of a client's key index. The client id sits in the high
/// half, so clients own disjoint ranges; routing is `key % disks`, so
/// consecutive indices alternate between the two disks and a scan range
/// fans out across both.
pub fn key_of(client: usize, idx: u64) -> u128 {
    ((client as u128 + 1) << 64) | idx as u128
}

/// A generated operation on a client's own key indices.
#[derive(Debug, Clone, Copy)]
pub enum Op {
    Get { idx: u64 },
    Put { idx: u64, len: usize },
    Delete { idx: u64 },
    Scan { lo: u64 },
}

/// One client's seeded operation stream.
pub struct OpGen {
    spec: Spec,
    rng: Rng,
    /// Next fresh key index for ingest puts.
    next_fresh: u64,
}

impl OpGen {
    pub fn new(spec: &Spec, seed: u64, client: usize) -> Self {
        Self {
            spec: *spec,
            rng: Rng::new(mix64(seed ^ mix64(0xC11E_0000 + client as u64))),
            next_fresh: spec.preload,
        }
    }

    pub fn value_len(&mut self) -> usize {
        self.rng.range(self.spec.value_min, self.spec.value_max)
    }

    pub fn next_op(&mut self) -> Op {
        let s = self.spec;
        let roll = self.rng.below(100) as u32;
        let [get, put, delete, _] = s.mix;
        if roll < get {
            let idx = if s.hot_keys > 0 && (self.rng.below(100) as u32) < s.hot_pct {
                self.rng.below(s.hot_keys)
            } else {
                self.rng.below(s.preload)
            };
            Op::Get { idx }
        } else if roll < get + put {
            let len = self.value_len();
            let idx = if s.fresh_puts {
                self.next_fresh += 1;
                self.next_fresh - 1
            } else {
                self.rng.below(s.preload)
            };
            Op::Put { idx, len }
        } else if roll < get + put + delete {
            Op::Delete {
                idx: self.rng.below(s.preload),
            }
        } else {
            Op::Scan {
                lo: self.rng.below(s.preload.saturating_sub(SCAN_SPAN).max(1)),
            }
        }
    }
}

/// Largest value any workload puts.
pub const MAX_VALUE: usize = 16 * 1024;
/// Offsets a value body can start at in the shared body pool.
const POOL_OFFSETS: usize = 256 * 1024;

/// Fixed pseudo-random bytes every value body is cut from, so building a
/// value costs a copy rather than a generator pass.
fn pool() -> &'static [u8] {
    static POOL: OnceLock<Vec<u8>> = OnceLock::new();
    POOL.get_or_init(|| {
        (0..(POOL_OFFSETS + MAX_VALUE) as u64 / 8)
            .flat_map(|i| mix64(i ^ 0x00B0_D1E5).to_le_bytes())
            .collect()
    })
}

/// The body of `key`'s value at generation `gen`: `len - HEADER` bytes
/// of the pool at an offset derived from `(key, gen)`.
pub fn body(key: u128, gen: u64, len: usize) -> &'static [u8] {
    let at = mix64(key as u64 ^ (key >> 64) as u64 ^ gen.rotate_left(32)) % POOL_OFFSETS as u64;
    &pool()[at as usize..at as usize + len - HEADER]
}

/// The value header: key, generation, checksum of the body.
pub fn header(key: u128, gen: u64, sum: u64) -> [u8; HEADER] {
    let mut h = [0u8; HEADER];
    h[..16].copy_from_slice(&key.to_le_bytes());
    h[16..24].copy_from_slice(&gen.to_le_bytes());
    h[24..32].copy_from_slice(&sum.to_le_bytes());
    h
}

/// Parses a header into `(key, generation, checksum)`.
pub fn parse_header(h: &[u8; HEADER]) -> (u128, u64, u64) {
    let word = |r: std::ops::Range<usize>| u64::from_le_bytes(h[r].try_into().expect("8 bytes"));
    let key = u128::from_le_bytes(h[..16].try_into().expect("16 bytes"));
    (key, word(16..24), word(24..32))
}

/// Builds the self-describing value of `key` at generation `gen` and
/// returns it with its body checksum.
pub fn make_value(key: u128, gen: u64, len: usize) -> (Vec<u8>, u64) {
    debug_assert!((HEADER..=MAX_VALUE).contains(&len));
    let body = body(key, gen, len);
    let sum = checksum(body);
    let mut v = Vec::with_capacity(len);
    v.extend_from_slice(&header(key, gen, sum));
    v.extend_from_slice(body);
    (v, sum)
}

/// A 64-bit checksum of a value body.
pub fn checksum(body: &[u8]) -> u64 {
    let step = |h: u64, w: u64| (h ^ w).wrapping_mul(0x1000_0000_01B3).rotate_left(23);
    let words = body.chunks_exact(8);
    let rest = words.remainder();
    let mut h = words.fold(0xCBF2_9CE4_8422_2325 ^ body.len() as u64, |h, w| {
        step(h, u64::from_le_bytes(w.try_into().expect("8 bytes")))
    });
    if !rest.is_empty() {
        let mut b = [0u8; 8];
        b[..rest.len()].copy_from_slice(rest);
        h = step(h, u64::from_le_bytes(b));
    }
    h
}

/// Whether two byte strings, each given as a list of segments, are equal.
pub fn segments_eq(a: &[&[u8]], b: &[&[u8]]) -> bool {
    let (mut a, mut b) = (a.iter().copied(), b.iter().copied());
    let (mut x, mut y): (&[u8], &[u8]) = (&[], &[]);
    loop {
        while x.is_empty() {
            match a.next() {
                Some(s) => x = s,
                None => return y.is_empty() && b.all(<[u8]>::is_empty),
            }
        }
        while y.is_empty() {
            match b.next() {
                Some(s) => y = s,
                None => return false,
            }
        }
        let n = x.len().min(y.len());
        if x[..n] != y[..n] {
            return false;
        }
        (x, y) = (&x[n..], &y[n..]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn values_describe_themselves() {
        let key = key_of(1, 77);
        let (v, sum) = make_value(key, 5, 4099);
        let h: [u8; HEADER] = v[..HEADER].try_into().unwrap();
        assert_eq!(parse_header(&h), (key, 5, sum));
        assert_eq!(checksum(&v[HEADER..]), sum);
        assert_ne!(make_value(key, 6, 4099).0[HEADER..], v[HEADER..]);
    }

    #[test]
    fn segmented_comparison_ignores_segment_boundaries() {
        let v: Vec<u8> = (0..100).collect();
        let (a, b) = v.split_at(37);
        assert!(segments_eq(&[&v], &[a, &[], b]));
        assert!(!segments_eq(&[&v], &[a]));
        assert!(!segments_eq(&[a], &[&v]));
        let mut w = v.clone();
        w[50] ^= 1;
        assert!(!segments_eq(&[&w], &[a, b]));
    }

    #[test]
    fn op_stream_is_a_function_of_the_seed() {
        let spec = spec("mixed_churn").unwrap();
        let ops = |seed| {
            let mut g = OpGen::new(&spec, seed, 0);
            (0..64)
                .map(|_| format!("{:?}", g.next_op()))
                .collect::<Vec<_>>()
        };
        assert_eq!(ops(3), ops(3));
        assert_ne!(ops(3), ops(4));
    }

    #[test]
    fn clients_own_disjoint_keys_spread_over_both_disks() {
        assert_ne!(key_of(0, 5), key_of(1, 5));
        assert_eq!(key_of(0, 4) % 2, 0);
        assert_eq!(key_of(0, 5) % 2, 1);
    }
}
