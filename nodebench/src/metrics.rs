//! Set-up, the measured run, the traced direct-drive pass, and the
//! metrics computed from them.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::{Barrier, OnceLock};
use std::time::{Duration, Instant};

use shardstore_core::config::BackendKind;
use shardstore_core::{Engine, EngineConfig, Node, NodeConfig, Store, StoreConfig};
use shardstore_obs::MetricsSnapshot;
use shardstore_vdisk::{DiskStats, Geometry};

use crate::calib::{self, Calibration};
use crate::client::{check_value, Client, ClientOut, Kind, Model, Phases, Ver};
use crate::trace::{self, id_of, Tracer};
use crate::workload::{
    key_of, make_value, Op, OpGen, Spec, CLIENTS, SCAN_LIMIT, SCAN_SPAN, WINDOW,
};

/// Disks in the node.
const DISKS: usize = 2;
/// Per disk: extents of 256 pages of 4 KiB (1 MiB each) in a sparse
/// volume file of [`VOLUME_HEADER`] bytes plus the extents. Writing a
/// file past the process's file-size limit (`RLIMIT_FSIZE`) kills the
/// process, so a volume has [`MAX_EXTENTS`] extents (the file stays under
/// 256 MiB), or as many as the limit allows if it is lower, but no fewer
/// than [`MIN_EXTENTS`] (`read_cold`'s preload fills half of that).
const PAGES_PER_EXTENT: u32 = 256;
const PAGE_SIZE: usize = 4096;
const MAX_EXTENTS: u32 = 255;
const MIN_EXTENTS: u32 = 128;
/// Bytes the file backend writes before the first extent.
const VOLUME_HEADER: u64 = 4096;
/// Nothing reclaims space (see the maintenance policy), so a run that
/// writes fills its volumes. The measured phase therefore runs in rounds:
/// a round ends at the first slice boundary where a disk's extents are
/// this full (by write pointer), and the next one runs on a node set up
/// afresh (untimed) with the clients' streams carried on. Smoke runs end
/// a round at every slice boundary, so a short run crosses a round too.
const ROLL_AT: f64 = 0.5;
/// Set-ups per run; `setup_s` is their median and the last one is used.
const SETUP_REPS: usize = 3;
/// Keys per `put_batch` while preloading, and batches between pumps.
const PRELOAD_BATCH: usize = 64;
const PRELOAD_PUMP_EVERY: usize = 16;
/// The preload is compacted down to at most this many tables per disk.
const PRELOAD_TABLES: usize = 2;
/// Slice length, in seconds: per-slice figures are reported as their
/// median over the slices of the measured phase, so one stalled or bursty
/// second moves a figure no more than any other second.
const SLICE: f64 = 1.0;
/// Trace mode alternates untraced and traced windows of this length.
const TRACE_WINDOW: Duration = Duration::from_millis(500);
/// Operations of client 0's stream the traced run drives straight into
/// the routed stores.
const DIRECT_OPS: u64 = 2048;

/// End-to-end metrics (`--trace 0`), with units.
///
/// On a shared virtual machine, wall-clock throughput and latency of the
/// durable workloads follow the host's fdatasync speed, which swings
/// several fold within seconds; disk bytes per operation on `mixed_churn`
/// follow the LSM's table sizes at the moment of each cache miss; and
/// with reclamation held back, `space_amp` there grows with the run's
/// overwrites. Those figures are reported (with sample counts and bases)
/// but not gated. CPU speed itself drifts by up to a third over tens of
/// minutes, so the gated CPU times are scaled by the run's host-speed
/// calibration (see `calib`):
/// - `cpu_us_per_op`: user-space CPU of the process per completed
///   operation, median over 1 s slices, scaled;
/// - `write_amp`: disk bytes written per user byte put;
/// - `setup_s`: CPU time of one set-up (format, preload, flush,
///   compaction, pump; waits on the device excluded), median of
///   [`SETUP_REPS`], scaled.
pub const END_TO_END: [(&str, &str); 3] = [
    ("cpu_us_per_op", "us"),
    ("write_amp", "ratio"),
    ("setup_s", "s"),
];

/// Spans recorded in the traced run; each gets a `self_us.<name>.p50`.
const SPANS: [&str; 15] = [
    "op",
    "engine.call",
    "barrier",
    "lsm.flush",
    "sched.issue",
    "sched.fence",
    "store.pump",
    "maintenance",
    "lsm.compact",
    "store.get",
    "lsm.get",
    "cache.get",
    "chunk.read",
    "store.put",
    "store.scan",
];

/// Per-layer metrics (`--trace 1`) besides the self times, with units.
pub const PER_LAYER: [(&str, &str); 41] = [
    ("engine.call_us.p50", "us"),
    ("engine.call_us.p99", "us"),
    ("engine.self_us.p50", "us"),
    ("engine.puts_per_batch", "ratio"),
    ("engine.overloaded_frac", "ratio"),
    ("barrier_us.p50", "us"),
    ("barrier_us.p99", "us"),
    ("puts_per_barrier", "ratio"),
    ("store.put_us.p50", "us"),
    ("store.get_us.p50", "us"),
    ("store.scan_us.p50", "us"),
    ("lsm.flush_us.p50", "us"),
    ("lsm.flush_us.p99", "us"),
    ("lsm.entries_per_flush", "ratio"),
    ("lsm.compaction_bytes_per_user_byte", "ratio"),
    ("lsm.compact_us.p99", "us"),
    ("lsm.get_us.p50", "us"),
    ("lsm.tables_per_get", "ratio"),
    ("lsm.blocks_decoded_per_get", "ratio"),
    ("lsm.bytes_decoded_per_get", "B"),
    ("lsm.tables_pruned_per_scan", "ratio"),
    ("cache.hit_ratio", "ratio"),
    ("cache.hit_us.p50", "us"),
    ("cache.evictions_per_get", "ratio"),
    ("chunk.read_us.p50", "us"),
    ("extent.allocations_per_kput", "ratio"),
    ("sched.issue_us.p50", "us"),
    ("sched.ios_per_put", "ratio"),
    ("sched.fence_us.p50", "us"),
    ("sched.fence_us.p99", "us"),
    ("sched.fences_per_put", "ratio"),
    ("sched.coalesced_frac", "ratio"),
    ("disk.fsyncs_per_put", "ratio"),
    ("disk.bytes_synced_per_put", "B"),
    ("disk.writes_per_put", "ratio"),
    ("disk.reads_per_get", "ratio"),
    ("disk.bytes_read_per_get", "B"),
    ("trace.untraced_ops_per_s", "ops/s"),
    ("trace.traced_ops_per_s", "ops/s"),
    ("trace.overhead_ops_per_s", "ops/s"),
    ("trace.spans", "count"),
];

/// The result of one workload run.
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(String, f64, &'static str)>,
    pub report: Vec<String>,
    trace: bool,
}

impl Outcome {
    /// Smoke check: exactly the metrics of this mode, every one finite,
    /// every end-to-end one positive.
    pub fn check_complete(&self) -> Result<(), String> {
        let want: Vec<String> = if self.trace {
            PER_LAYER
                .iter()
                .map(|(n, _)| n.to_string())
                .chain(SPANS.iter().map(|s| format!("self_us.{s}.p50")))
                .collect()
        } else {
            END_TO_END.iter().map(|(n, _)| n.to_string()).collect()
        };
        let got: Vec<String> = self.metrics.iter().map(|(n, _, _)| n.clone()).collect();
        if got != want {
            return Err(format!("emitted metrics {got:?}, want {want:?}"));
        }
        for (name, value, _) in &self.metrics {
            if !value.is_finite() || (!self.trace && *value <= 0.0) {
                return Err(format!("metric {name} = {value}"));
            }
        }
        Ok(())
    }
}

/// A short variant of a workload for the benchmark's own tests.
fn smoke_spec(spec: &Spec) -> Spec {
    let mut s = *spec;
    s.preload = (s.preload / 16).max(SCAN_SPAN * 2);
    s.hot_keys = s.hot_keys.min(s.preload / 4);
    s.warmup_ops = (s.warmup_ops / 8).max(WINDOW as u64);
    s
}

struct Setup {
    node: Node,
    models: Vec<Model>,
    gens: Vec<OpGen>,
    bytes_put: u64,
    /// Seconds spent putting, pumping (writing and fencing), and
    /// flushing and compacting the index.
    put_s: f64,
    pump_s: f64,
    index_s: f64,
}

/// Formats the volumes, preloads every client's keys through the node,
/// and settles: flushed, compacted to at most `PRELOAD_TABLES` tables,
/// pumped, and caches dropped.
fn setup(spec: &Spec, seed: u64, vol_dir: &Path, geometry: Geometry) -> Result<Setup, String> {
    let store = StoreConfig::builder()
        .backend(BackendKind::File {
            dir: vol_dir.to_path_buf(),
            preallocate: false,
        })
        .build()
        .map_err(|e| e.to_string())?;
    let config = NodeConfig::builder()
        .disks(DISKS)
        .geometry(geometry)
        .store(store)
        .build()
        .map_err(|e| e.to_string())?;
    let node = Node::from_config(&config);
    let mut models = Vec::new();
    let mut gens = Vec::new();
    let mut bytes_put = 0u64;
    let (mut put_s, mut pump_s, mut index_s) = (0.0, 0.0, 0.0);
    let timed = |acc: &mut f64, t: Instant| *acc += t.elapsed().as_secs_f64();
    for c in 0..CLIENTS {
        let mut gen = OpGen::new(spec, seed, c);
        let mut model = Model::default();
        let mut batch = Vec::with_capacity(PRELOAD_BATCH);
        for idx in 0..spec.preload {
            let len = gen.value_len();
            let g = model.new_gen();
            let key = key_of(c, idx);
            let (value, sum) = make_value(key, g, len);
            model.preloaded(
                idx,
                Ver {
                    gen: g,
                    len: len as u32,
                    sum,
                },
            );
            batch.push((key, value));
            bytes_put += len as u64;
            if batch.len() == PRELOAD_BATCH || idx + 1 == spec.preload {
                let t = Instant::now();
                node.put_batch(&batch)
                    .map_err(|e| format!("preload: {e}"))?;
                timed(&mut put_s, t);
                batch.clear();
                if (idx as usize / PRELOAD_BATCH).is_multiple_of(PRELOAD_PUMP_EVERY) {
                    let t = Instant::now();
                    node.pump_all().map_err(|e| format!("preload pump: {e}"))?;
                    timed(&mut pump_s, t);
                }
            }
        }
        models.push(model);
        gens.push(gen);
    }
    for d in 0..DISKS {
        let store = node.store(d).ok_or("disk out of service")?;
        let t = Instant::now();
        store
            .flush_index()
            .map_err(|e| format!("preload flush: {e}"))?;
        for _ in 0..64 {
            if store.index().table_count() <= PRELOAD_TABLES {
                break;
            }
            store
                .compact_index()
                .map_err(|e| format!("preload compaction: {e}"))?;
        }
        timed(&mut index_s, t);
        let t = Instant::now();
        store.pump().map_err(|e| format!("preload pump: {e}"))?;
        timed(&mut pump_s, t);
        store.drop_caches();
    }
    Ok(Setup {
        node,
        models,
        gens,
        bytes_put,
        put_s,
        pump_s,
        index_s,
    })
}

/// The volume geometry: [`MAX_EXTENTS`] extents, fewer if the process's
/// file-size limit is lower, and an error below [`MIN_EXTENTS`].
fn geometry() -> Result<Geometry, String> {
    let extent = PAGES_PER_EXTENT as u64 * PAGE_SIZE as u64;
    let limits = std::fs::read_to_string("/proc/self/limits").unwrap_or_default();
    let limit = file_size_limit(&limits)?;
    let fit = limit.map_or(u64::MAX, |l| l.saturating_sub(VOLUME_HEADER) / extent);
    let extents = fit.min(MAX_EXTENTS as u64) as u32;
    if extents < MIN_EXTENTS {
        return Err(format!(
            "the file size limit ({} B) leaves room for {extents} extents of {extent} B per \
             volume file; the benchmark needs {MIN_EXTENTS}",
            limit.unwrap_or(0)
        ));
    }
    Ok(Geometry::new(extents, PAGES_PER_EXTENT, PAGE_SIZE))
}

/// The soft file-size limit in bytes from the text of `/proc/self/limits`
/// (`None`: unlimited, or no such line).
fn file_size_limit(limits: &str) -> Result<Option<u64>, String> {
    let Some(soft) = limits
        .lines()
        .find_map(|l| l.strip_prefix("Max file size"))
        .and_then(|rest| rest.split_whitespace().next())
    else {
        return Ok(None);
    };
    if soft == "unlimited" {
        return Ok(None);
    }
    soft.parse()
        .map(Some)
        .map_err(|_| format!("unreadable file size limit {soft:?} in /proc/self/limits"))
}

/// Bytes written to a disk's extents, by write pointer: what recovery
/// scans.
fn written_bytes(store: &Store) -> u64 {
    let em = store.cache().chunk_store().extent_manager();
    (0..em.extent_count())
        .map(|e| em.write_pointer(shardstore_vdisk::ExtentId(e)) as u64)
        .sum()
}

/// The fullest disk's written share of its extents.
fn fullest_disk(node: &Node) -> f64 {
    (0..node.disk_count())
        .filter_map(|d| node.store(d))
        .map(|store| {
            let em = store.cache().chunk_store().extent_manager();
            let capacity = em.extent_count() as u64 * em.extent_size() as u64;
            ratio(written_bytes(&store) as f64, capacity as f64)
        })
        .fold(0.0, f64::max)
}

/// Registry counters and disk statistics, summed over the disks.
struct Snap {
    reg: MetricsSnapshot,
    disk: DiskStats,
}

/// CPU time of the calling thread so far, in seconds: the scheduler's
/// `se.sum_exec_runtime` (ms, µs resolution) from `/proc/thread-self/sched`,
/// else user plus system ticks from `/proc/thread-self/stat`.
fn thread_cpu_s() -> f64 {
    if let Ok(sched) = std::fs::read_to_string("/proc/thread-self/sched") {
        let ms = sched.lines().find_map(|l| {
            let (name, v) = l.split_once(':')?;
            (name.trim() == "se.sum_exec_runtime").then(|| v.trim().parse::<f64>().ok())?
        });
        if let Some(ms) = ms {
            return ms / 1e3;
        }
    }
    let ticks = std::fs::read_to_string("/proc/thread-self/stat")
        .ok()
        .and_then(|stat| {
            let rest = stat.rsplit_once(')')?.1.to_string();
            let mut f = rest.split_whitespace().skip(11);
            Some(f.next()?.parse::<u64>().ok()? + f.next()?.parse::<u64>().ok()?)
        });
    ticks.unwrap_or(0) as f64 / 100.0
}

/// User-space CPU time of the whole process so far, in ns, from
/// `/proc/self/stat` (counted in USER_HZ = 100 ticks per second), so
/// threads that already exited still count. Kernel time is left out: on
/// a shared virtual disk it grows per operation as `fdatasync` slows.
fn user_cpu_ns() -> u64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0;
    };
    let utime = stat
        .rsplit_once(')')
        .and_then(|(_, rest)| rest.split_whitespace().nth(11)?.parse::<u64>().ok());
    utime.unwrap_or(0) * 10_000_000
}

fn snapshot(node: &Node) -> Snap {
    let mut reg = MetricsSnapshot::default();
    let mut disk = DiskStats::default();
    for d in 0..node.disk_count() {
        if let Some(obs) = node.disk_obs(d) {
            reg.merge(&obs.snapshot());
        }
        if let Some((_, s)) = node.disk_stats(d) {
            disk.writes += s.writes;
            disk.reads += s.reads;
            disk.bytes_written += s.bytes_written;
            disk.bytes_read += s.bytes_read;
            disk.fsyncs += s.fsyncs;
            disk.bytes_synced += s.bytes_synced;
        }
    }
    Snap { reg, disk }
}

/// Disk bytes written plus read so far, over every disk.
fn io_bytes(node: &Node) -> u64 {
    (0..node.disk_count())
        .filter_map(|d| node.disk_stats(d))
        .map(|(_, s)| s.bytes_written + s.bytes_read)
        .sum()
}

/// Whole slices in the measured phase (at least one).
fn slices(seconds: f64) -> usize {
    ((seconds / SLICE).floor() as usize).max(1)
}

/// Nearest-rank quantile of unsorted samples (0 when empty).
fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Peak resident memory of this process, from `/proc/self/status`.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// One round of the measured phase on one node.
struct Round {
    outs: Vec<ClientOut>,
    before: Snap,
    after: Snap,
    /// (user CPU ns, disk bytes moved) in each slice.
    slice_deltas: Vec<(u64, u64)>,
    /// Calibration rep time at the start of each slice.
    slice_cal: Vec<f64>,
    /// Measured seconds: whole slices when cut, else the full length.
    seconds: f64,
    cut: bool,
}

/// Runs the clients against `node` served by `engine`: warm-up, then a
/// measured phase of `length` seconds, cut at the first slice boundary
/// where a disk is `roll_at` full.
#[allow(clippy::too_many_arguments)]
fn run_round(
    spec: &Spec,
    node: &Node,
    engine: &Engine,
    models: Vec<Model>,
    gens: Vec<OpGen>,
    length: f64,
    roll_at: f64,
    trace: bool,
    epoch: Instant,
    cal: &mut Calibration,
) -> Round {
    let n = slices(length);
    let sync = Barrier::new(CLIENTS + 1);
    let phases: OnceLock<Phases> = OnceLock::new();
    let mut before = None;
    // (user CPU ns, disk bytes moved) at every slice boundary.
    let mut marks: Vec<(u64, u64)> = Vec::new();
    // Host-speed calibration, timed at the start of every slice while the
    // node runs.
    let mut slice_cal: Vec<f64> = Vec::new();
    let mut cut = None;
    let outs: Vec<ClientOut> = std::thread::scope(|s| {
        let handles: Vec<_> = models
            .into_iter()
            .zip(gens)
            .enumerate()
            .map(|(c, (model, gen))| {
                let (rpc, node, sync, phases) = (engine.client(), node.clone(), &sync, &phases);
                s.spawn(move || {
                    // A panic inside the node would leave the other
                    // threads waiting at a sync point: end the process.
                    let run = std::panic::AssertUnwindSafe(|| {
                        let mut client = Client::new(c, rpc, node, gen, model, epoch);
                        client.warm_up(spec.warmup_ops);
                        sync.wait();
                        sync.wait();
                        client.measure(phases.get().expect("phases set before the second sync"));
                        client.finish()
                    });
                    std::panic::catch_unwind(run).unwrap_or_else(|_| {
                        eprintln!("nodebench: client {c} panicked");
                        std::process::exit(1)
                    })
                })
            })
            .collect();
        sync.wait();
        before = Some(snapshot(node));
        let start = Instant::now();
        let phases = phases.get_or_init(|| {
            Phases::new(
                start,
                Duration::from_secs_f64(length),
                trace.then_some(TRACE_WINDOW),
            )
        });
        sync.wait();
        // The bursts' own CPU is taken out of the process's.
        let mut burst_ns = 0u64;
        let mark = |burst_ns: u64| (user_cpu_ns().saturating_sub(burst_ns), io_bytes(node));
        marks.push(mark(burst_ns));
        for k in 1..=n {
            let t = Instant::now();
            slice_cal.push(cal.burst());
            burst_ns += t.elapsed().as_nanos() as u64;
            let at = Duration::from_secs_f64(k as f64 * SLICE);
            std::thread::sleep((start + at).saturating_duration_since(Instant::now()));
            marks.push(mark(burst_ns));
            if k < n && fullest_disk(node) >= roll_at {
                phases.cut(at);
                cut = Some(k);
                break;
            }
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    Round {
        outs,
        before: before.expect("snapshot taken"),
        after: snapshot(node),
        slice_deltas: marks
            .windows(2)
            .map(|w| (w[1].0 - w[0].0, w[1].1 - w[0].1))
            .collect(),
        slice_cal,
        seconds: cut.map_or(length, |k| k as f64 * SLICE),
        cut: cut.is_some(),
    }
}

pub fn run(
    spec: &Spec,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
) -> Result<Outcome, String> {
    let spec = if smoke { smoke_spec(spec) } else { *spec };
    let geometry = geometry()?;
    let root = std::env::current_dir()
        .map_err(|e| e.to_string())?
        .join(".nodebench");
    let vol_dir = root.join(format!("vol-{}", std::process::id()));

    let (mut setup_wall, mut setup_cpu) = (Vec::new(), Vec::new());
    let mut built = None;
    for _ in 0..SETUP_REPS {
        drop(built.take());
        let (t, cpu) = (Instant::now(), thread_cpu_s());
        built = Some(setup(&spec, seed, &vol_dir, geometry)?);
        setup_cpu.push(thread_cpu_s() - cpu);
        setup_wall.push(t.elapsed().as_secs_f64());
    }
    let mut next = built.expect("at least one set-up");
    let (preload_bytes, put_s, pump_s, index_s) =
        (next.bytes_put, next.put_s, next.pump_s, next.index_s);
    let loaded_bytes_written = snapshot(&next.node).disk.bytes_written;

    let epoch = Instant::now();
    let mut cal = Calibration::new();
    let mut outs: Vec<ClientOut> = (0..CLIENTS).map(|_| ClientOut::default()).collect();
    let mut snaps: Vec<(Snap, Snap)> = Vec::new();
    let (mut slice_deltas, mut slice_cal, mut round_s) = (Vec::new(), Vec::new(), Vec::new());
    let mut crashes = Vec::new();
    let mut carried: Option<Vec<OpGen>> = None;
    let (node, engine) = loop {
        let Setup {
            node, models, gens, ..
        } = next;
        let gens = carried.take().unwrap_or(gens);
        let engine = Engine::start(node.clone(), EngineConfig::default());
        let measured: f64 = round_s.iter().sum();
        let r = run_round(
            &spec,
            &node,
            &engine,
            models,
            gens,
            seconds - measured,
            if smoke { 0.0 } else { ROLL_AT },
            trace,
            epoch,
            &mut cal,
        );
        for (acc, o) in outs.iter_mut().zip(r.outs) {
            acc.absorb(o, measured, r.seconds);
        }
        snaps.push((r.before, r.after));
        slice_deltas.extend(r.slice_deltas);
        slice_cal.extend(r.slice_cal);
        round_s.push(r.seconds);
        if !r.cut {
            break (node, engine);
        }
        engine.shutdown();
        let models: Vec<&Model> = outs.iter().map(|o| &o.model).collect();
        crashes.push(crate::crash::check(&node, &models)?);
        carried = Some(
            outs.iter_mut()
                .map(|o| o.gen.take().expect("client returns its generator"))
                .collect(),
        );
        // The volume files are unlinked when the last handle to their
        // disks goes, before the next round's are made.
        drop(engine);
        drop(node);
        next = setup(&spec, seed, &vol_dir, geometry)?;
    };

    let mut spans: Vec<trace::Span> = outs
        .iter_mut()
        .flat_map(|o| std::mem::take(&mut o.spans))
        .collect();
    let mut direct = Direct::default();
    if trace {
        let mut tracer = Tracer::new(CLIENTS as u64, epoch);
        tracer.on = true;
        let out = &mut outs[0];
        let gen = out.gen.as_mut().expect("client returns its generator");
        let n = if smoke { DIRECT_OPS / 16 } else { DIRECT_OPS };
        direct = direct_pass(&node, gen, &mut out.model, &mut tracer, n);
        spans.append(&mut tracer.spans);
        std::fs::create_dir_all(&root).map_err(|e| e.to_string())?;
        let path = root.join(format!("spans-{}.jsonl", spec.name));
        trace::write_jsonl(&path, &spans).map_err(|e| format!("{}: {e}", path.display()))?;
    }

    // Space: every extent's write pointer against the live user bytes,
    // on the last round's node.
    let mut written_space = 0u64;
    for d in 0..node.disk_count() {
        written_space += written_bytes(&node.store(d).ok_or("disk out of service")?);
    }
    let live_bytes: u64 = outs
        .iter()
        .flat_map(|o| o.model.cur.values())
        .map(|v| v.len as u64)
        .sum();
    // Over the measured phase; a workload that puts nothing there
    // (read_cold) reports the amplification of its load instead.
    let measured_put: u64 = outs.iter().map(|o| o.user_bytes_put).sum();
    let (amp_disk, amp_user) = if measured_put > 0 {
        (
            snaps
                .iter()
                .map(|(b, a)| a.disk.bytes_written - b.disk.bytes_written)
                .sum(),
            measured_put,
        )
    } else {
        (loaded_bytes_written, preload_bytes)
    };

    engine.shutdown();
    let models: Vec<&Model> = outs.iter().map(|o| &o.model).collect();
    crashes.push(crate::crash::check(&node, &models)?);
    drop(engine);
    drop(node);
    let _ = std::fs::remove_dir(&vol_dir);
    let crash = crashes.last().expect("the last round's check");
    let violations: u64 = crashes.iter().map(|c| c.violations).sum();
    let keys_checked: u64 = crashes.iter().map(|c| c.keys_checked).sum();

    let attempted: u64 = outs.iter().map(|o| o.attempted).sum::<u64>() + direct.attempted;
    let failed: u64 =
        outs.iter().map(|o| o.failed).sum::<u64>() + direct.failed.len() as u64 + violations;
    let errors: Vec<&String> = outs
        .iter()
        .flat_map(|o| &o.errors)
        .chain(&direct.failed)
        .chain(crashes.iter().flat_map(|c| &c.errors))
        .collect();

    let m = Measured {
        spec: &spec,
        seconds: round_s.iter().sum(),
        slice_deltas: &slice_deltas,
        outs: &outs,
        snaps: &snaps,
        spans: &spans,
    };
    let mut report = vec![describe(&spec, seed, seconds, trace, geometry)];
    let scale = calib::REFERENCE_REP_S / quantile(&slice_cal, 0.5);
    let figures = Figures {
        write_amp: ratio(amp_disk as f64, amp_user as f64),
        space_amp: ratio(written_space as f64, live_bytes as f64),
        recovery_s: crash.recovery_s,
        volume_bytes: written_space,
        setup_s: quantile(&setup_cpu, 0.5) * scale,
        setup_wall_s: quantile(&setup_wall, 0.5),
        scale,
        peak_rss_mb: peak_rss_mb()?,
        failed,
        attempted,
        violations,
        keys_checked,
    };
    let (e2e, lines) = m.end_to_end(&figures);
    report.extend(lines);
    report.push(format!(
        "  rounds: {} (measured s per round {round_s:?}); space_amp and recovery_s are the last \
         round's",
        round_s.len()
    ));
    report.push(format!(
        "  write_amp base: {amp_disk} disk bytes / {amp_user} user bytes; \
         space_amp base: {written_space} written extent bytes / {live_bytes} live bytes; \
         set-up CPU s: {setup_cpu:.3?}, wall s: {setup_wall:.3?} (last: put {put_s:.3} s, pump {pump_s:.3} s, \
         index flush+compaction {index_s:.3} s); recovery_s runs: {:.3?}",
        crash.recovery_runs
    ));
    report.push(format!(
        "  calibration: {:.1} us per rep (median of {} slices; reference {:.1} us), scale {scale:.4}",
        quantile(&slice_cal, 0.5) * 1e6,
        slice_cal.len(),
        calib::REFERENCE_REP_S * 1e6,
    ));
    let metrics = if trace {
        let (layer, lines) = m.per_layer();
        report.extend(lines);
        layer
    } else {
        e2e
    };
    for e in errors.iter().take(8) {
        report.push(format!("  FAILED: {e}"));
    }
    Ok(Outcome {
        correct: failed == 0,
        attempted: attempted.max(1),
        failed,
        metrics,
        report,
        trace,
    })
}

fn describe(spec: &Spec, seed: u64, seconds: f64, trace: bool, geometry: Geometry) -> String {
    format!(
        "workload {} (seed {seed}, {seconds} s measured, trace {}): {}\n  \
         values {}..={} B; mix get/put/delete/scan {:?}%; {} keys preloaded per client{}; \
         gets {}; hot set {} B per client against cache_capacity {} B per disk; \
         {} clients x {} in flight (closed loop)\n  \
         barrier: flush_index, then issue_ready/flush_issued until idle, then pump, on each disk \
         the client wrote; a write is durable when the first barrier started after its ack ends\n  \
         maintenance: after a barrier, one compact_index round per disk at >= \
         compaction_trigger_tables; no reclamation (held back: Store::reclaim racing engine \
         traffic loses barrier-covered writes)\n  \
         node: {DISKS} disks x {} extents x {} pages x {} B, file volumes under .nodebench/; \
         the measured phase runs in rounds, each on a node set up afresh (untimed) once a disk \
         is {ROLL_AT} full at a slice boundary",
        spec.name,
        trace as u8,
        spec.why,
        spec.value_min,
        spec.value_max,
        spec.mix,
        spec.preload,
        if spec.fresh_puts {
            ", puts create new keys"
        } else {
            ", puts overwrite them"
        },
        if spec.hot_keys > 0 {
            format!(
                "{}% to a hot set of {} keys per client",
                spec.hot_pct, spec.hot_keys
            )
        } else {
            "uniform".to_string()
        },
        spec.hot_keys * (spec.value_min + spec.value_max) as u64 / 2,
        StoreConfig::default().cache_capacity,
        CLIENTS,
        WINDOW,
        geometry.extent_count,
        geometry.pages_per_extent,
        geometry.page_size,
    )
}

/// Figures measured outside the client threads.
struct Figures {
    write_amp: f64,
    space_amp: f64,
    recovery_s: f64,
    /// Σ extent write pointers: what recovery scans.
    volume_bytes: u64,
    setup_s: f64,
    setup_wall_s: f64,
    /// Host-speed calibration factor applied to the CPU figures.
    scale: f64,
    peak_rss_mb: f64,
    failed: u64,
    attempted: u64,
    violations: u64,
    keys_checked: u64,
}

struct Measured<'a> {
    spec: &'a Spec,
    seconds: f64,
    /// (user CPU ns, disk bytes moved) in each slice, rounds in order.
    slice_deltas: &'a [(u64, u64)],
    outs: &'a [ClientOut],
    /// Registry and disk snapshots before and after each round.
    snaps: &'a [(Snap, Snap)],
    spans: &'a [trace::Span],
}

impl Measured<'_> {
    fn latencies(&self, kinds: &[Kind]) -> Vec<f64> {
        self.outs
            .iter()
            .flat_map(|o| {
                kinds
                    .iter()
                    .flat_map(move |k| o.latency[*k as usize].iter().map(|(_, l)| *l))
            })
            .collect()
    }

    /// Completed operations' latencies, per slice of the measured phase.
    fn by_slice(&self) -> Vec<Vec<f64>> {
        let n = self.slice_deltas.len();
        let mut out: Vec<Vec<f64>> = vec![Vec::new(); n];
        for o in self.outs {
            for (at, lat) in o.latency.iter().flatten() {
                out[((at / SLICE) as usize).min(n - 1)].push(*lat);
            }
        }
        out
    }

    /// Median over the slices of each slice's `q` latency quantile.
    fn windowed(&self, q: f64) -> f64 {
        let per: Vec<f64> = self
            .by_slice()
            .iter()
            .filter(|s| !s.is_empty())
            .map(|s| quantile(s, q))
            .collect();
        quantile(&per, 0.5)
    }

    /// Median over the slices of (user CPU µs, disk bytes) per operation
    /// completed in the slice.
    fn per_op_by_slice(&self) -> (f64, f64) {
        let (mut cpu, mut io) = (Vec::new(), Vec::new());
        for ((cpu_ns, bytes), ops) in self.slice_deltas.iter().zip(self.by_slice()) {
            if ops.is_empty() {
                continue;
            }
            let n = ops.len() as f64;
            cpu.push(*cpu_ns as f64 / 1e3 / n);
            io.push(*bytes as f64 / n);
        }
        (quantile(&cpu, 0.5), quantile(&io, 0.5))
    }

    fn completed(&self, kind: Kind) -> u64 {
        self.outs.iter().map(|o| o.completed[kind as usize]).sum()
    }

    fn counter(&self, name: &str) -> f64 {
        self.snaps
            .iter()
            .map(|(b, a)| (a.reg.counter(name) - b.reg.counter(name)) as f64)
            .sum()
    }

    /// Every figure of the run: the gated end-to-end metrics first, then
    /// the report's table of the workload record's fourteen metrics, each
    /// marked n/a where the workload has no such operation.
    fn end_to_end(&self, f: &Figures) -> (Vec<(String, f64, &'static str)>, Vec<String>) {
        let ops = self
            .latencies(&[Kind::Get, Kind::Put, Kind::Delete, Kind::Scan])
            .len() as f64;
        let (cpu_per_op, io_per_op) = self.per_op_by_slice();
        let client_us: f64 = self.outs.iter().map(|o| o.client_ns as f64 / 1e3).sum();
        let values = [cpu_per_op * f.scale, f.write_amp, f.setup_s];
        let gated: Vec<_> = END_TO_END
            .iter()
            .zip(values)
            .map(|((n, u), v)| (n.to_string(), v, *u))
            .collect();

        let mut lines = Vec::new();
        let mut pair = |name: &str, kinds: &[Kind]| {
            let l = self.latencies(kinds);
            for (q, tag) in [(0.5, "p50"), (0.99, "p99")] {
                if l.is_empty() {
                    lines.push(format!("  {name}_{tag}_us  n/a (no such operations)"));
                } else {
                    lines.push(format!(
                        "  {name}_{tag}_us  {:.1} us  (n={})",
                        quantile(&l, q),
                        l.len()
                    ));
                }
            }
        };
        pair("put_durable", &[Kind::Put]);
        pair("get", &[Kind::Get]);
        pair("scan_page", &[Kind::Scan]);
        lines.push(format!(
            "  ops_per_s  {:.1} ops/s  ({ops} ops / {} s)",
            ops / self.seconds,
            self.seconds
        ));
        lines.push(format!(
            "  op_p50_us  {:.1} us; op_p99_us {:.1} us  (all kinds; median over {SLICE} s slices)",
            self.windowed(0.5),
            self.windowed(0.99)
        ));
        lines.push(format!(
            "  io_bytes_per_op  {io_per_op:.1} B  (disk bytes written + read per operation; median over {SLICE} s slices)"
        ));
        lines.push(format!("  write_amp  {:.3} ratio", f.write_amp));
        lines.push(format!("  space_amp  {:.3} ratio", f.space_amp));
        lines.push(format!(
            "  failed_frac  {:.6} ratio  ({} / {})",
            ratio(f.failed as f64, f.attempted as f64),
            f.failed,
            f.attempted
        ));
        lines.push(format!(
            "  durability_violations  {} count  ({} keys read back)",
            f.violations, f.keys_checked
        ));
        lines.push(format!(
            "  recovery_s  {:.4} s  ({:.3} s per GiB of the {} extent bytes it scans)",
            f.recovery_s,
            ratio(f.recovery_s, f.volume_bytes as f64 / (1u64 << 30) as f64),
            f.volume_bytes
        ));
        lines.push(format!(
            "  user CPU  {cpu_per_op:.1} us per op unscaled, of which the clients' value \
             building and reply checking {:.1} us",
            ratio(client_us, ops),
        ));
        lines.push(format!(
            "  set-up  {:.4} s CPU unscaled, {:.4} s wall (medians of {SETUP_REPS})",
            f.setup_s / f.scale,
            f.setup_wall_s
        ));
        lines.push(format!("  peak_rss_mb  {:.1} MiB", f.peak_rss_mb));
        lines.push("  gated (BENCHMARK.json):".to_string());
        for (n, v, u) in &gated {
            lines.push(format!("    {n}  {v:.4} {u}"));
        }
        (gated, lines)
    }

    fn span_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end - s.start) as f64 / 1e3)
            .collect()
    }

    /// Per-layer metrics: registry and disk-stat deltas over the measured
    /// phase, span durations and self times. Each ratio's base goes into
    /// the report.
    fn per_layer(&self) -> (Vec<(String, f64, &'static str)>, Vec<String>) {
        let puts = self.completed(Kind::Put) as f64;
        let gets = self.completed(Kind::Get) as f64;
        let attempted: f64 = self.outs.iter().map(|o| o.attempted as f64).sum();
        let user_bytes: f64 = self.outs.iter().map(|o| o.user_bytes_put as f64).sum();
        let barriers: f64 = self.outs.iter().map(|o| o.barriers as f64).sum();
        let covered: f64 = self.outs.iter().map(|o| o.writes_covered as f64).sum();
        let call: Vec<f64> = self
            .outs
            .iter()
            .flat_map(|o| o.call_us.iter().flatten().copied())
            .collect();
        let (main_kind, direct) = if self.spec.mix[0] > 0 {
            (Kind::Get, "store.get")
        } else {
            (Kind::Put, "store.put")
        };
        let main_call: Vec<f64> = self
            .outs
            .iter()
            .flat_map(|o| o.call_us[main_kind as usize].iter().copied())
            .collect();
        let c = |n: &str| self.counter(n);
        let disk = |f: fn(&DiskStats) -> u64| {
            self.snaps
                .iter()
                .map(|(b, a)| (f(&a.disk) - f(&b.disk)) as f64)
                .sum::<f64>()
        };
        let half = self.seconds / 2.0;
        let traced: f64 = self
            .outs
            .iter()
            .map(|o| o.completed_traced as f64)
            .sum::<f64>()
            / half;
        let untraced: f64 = self
            .outs
            .iter()
            .map(|o| o.completed_untraced as f64)
            .sum::<f64>()
            / half;

        let mut bases: BTreeMap<&str, String> = BTreeMap::new();
        let mut base = |name: &'static str, num: f64, nl: &str, den: f64, dl: &str| {
            bases.insert(name, format!("{num} {nl} / {den} {dl}"));
            ratio(num, den)
        };
        let values: Vec<f64> = vec![
            quantile(&call, 0.5),
            quantile(&call, 0.99),
            quantile(&main_call, 0.5) - quantile(&self.span_us(direct), 0.5),
            base(
                "engine.puts_per_batch",
                puts,
                "puts",
                c("rpc.batches"),
                "rpc.batches (runs of >= 2 puts)",
            ),
            base(
                "engine.overloaded_frac",
                c("rpc.overloaded"),
                "rpc.overloaded",
                attempted,
                "requests",
            ),
            quantile(&self.span_us("barrier"), 0.5),
            quantile(&self.span_us("barrier"), 0.99),
            base(
                "puts_per_barrier",
                covered,
                "writes covered",
                barriers,
                "barriers",
            ),
            quantile(&self.span_us("store.put"), 0.5),
            quantile(&self.span_us("store.get"), 0.5),
            quantile(&self.span_us("store.scan"), 0.5),
            quantile(&self.span_us("lsm.flush"), 0.5),
            quantile(&self.span_us("lsm.flush"), 0.99),
            base(
                "lsm.entries_per_flush",
                c("lsm.mutations"),
                "lsm.mutations",
                c("lsm.flushes"),
                "lsm.flushes",
            ),
            base(
                "lsm.compaction_bytes_per_user_byte",
                c("lsm.compaction.bytes_out"),
                "lsm.compaction.bytes_out",
                user_bytes,
                "user bytes put",
            ),
            quantile(&self.span_us("lsm.compact"), 0.99),
            quantile(&self.span_us("lsm.get"), 0.5),
            base(
                "lsm.tables_per_get",
                c("lsm.get.tables_consulted"),
                "tables consulted",
                c("lsm.gets"),
                "lsm.gets",
            ),
            base(
                "lsm.blocks_decoded_per_get",
                c("lsm.block_decodes"),
                "block decodes",
                c("lsm.gets"),
                "lsm.gets",
            ),
            base(
                "lsm.bytes_decoded_per_get",
                c("lsm.bytes_decoded"),
                "bytes decoded",
                c("lsm.gets"),
                "lsm.gets",
            ),
            base(
                "lsm.tables_pruned_per_scan",
                c("lsm.scan.tables_pruned"),
                "tables pruned",
                c("lsm.scans"),
                "lsm.scans",
            ),
            base(
                "cache.hit_ratio",
                c("cache.hits"),
                "cache.hits",
                c("cache.hits") + c("cache.misses"),
                "cache lookups",
            ),
            quantile(&self.span_us("cache.get"), 0.5),
            base(
                "cache.evictions_per_get",
                c("cache.evictions"),
                "cache.evictions",
                gets,
                "gets",
            ),
            quantile(&self.span_us("chunk.read"), 0.5),
            base(
                "extent.allocations_per_kput",
                1000.0 * c("extent.allocations"),
                "1000 x extent.allocations",
                puts,
                "puts",
            ),
            quantile(&self.span_us("sched.issue"), 0.5),
            base(
                "sched.ios_per_put",
                c("sched.ios_issued"),
                "sched.ios_issued",
                puts,
                "puts",
            ),
            quantile(&self.span_us("sched.fence"), 0.5),
            quantile(&self.span_us("sched.fence"), 0.99),
            base(
                "sched.fences_per_put",
                c("sched.extents_fenced"),
                "sched.extents_fenced",
                puts,
                "puts",
            ),
            base(
                "sched.coalesced_frac",
                c("sched.writes_coalesced"),
                "writes coalesced",
                c("sched.writes_coalesced") + c("sched.ios_issued"),
                "writes issued",
            ),
            base(
                "disk.fsyncs_per_put",
                disk(|s| s.fsyncs),
                "fsyncs",
                puts,
                "puts",
            ),
            base(
                "disk.bytes_synced_per_put",
                disk(|s| s.bytes_synced),
                "bytes synced",
                puts,
                "puts",
            ),
            base(
                "disk.writes_per_put",
                disk(|s| s.writes),
                "disk writes",
                puts,
                "puts",
            ),
            base(
                "disk.reads_per_get",
                disk(|s| s.reads),
                "disk reads",
                gets,
                "gets",
            ),
            base(
                "disk.bytes_read_per_get",
                disk(|s| s.bytes_read),
                "bytes read",
                gets,
                "gets",
            ),
            untraced,
            traced,
            untraced - traced,
            self.spans.len() as f64,
        ];
        let mut metrics: Vec<(String, f64, &'static str)> = PER_LAYER
            .iter()
            .zip(values)
            .map(|((n, u), v)| (n.to_string(), v, *u))
            .collect();
        let mut self_us: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
        for (name, ns) in trace::self_times(self.spans) {
            self_us.entry(name).or_default().push(ns as f64 / 1e3);
        }
        for name in SPANS {
            let v = self_us.get(name).map_or(0.0, |s| quantile(s, 0.5));
            metrics.push((format!("self_us.{name}.p50"), v, "us"));
        }
        let mut lines =
            vec!["  per-layer (measured-phase deltas; spans from the traced run):".to_string()];
        for (name, value, unit) in &metrics {
            let n = name.as_str();
            let count = n
                .strip_prefix("self_us.")
                .and_then(|s| s.strip_suffix(".p50"))
                .or_else(|| n.rsplit_once("_us.").map(|(s, _)| s))
                .map(|s| self.spans.iter().filter(|sp| sp.name == s).count());
            let extra = match (bases.get(n), count) {
                (Some(b), _) => format!("  ({b})"),
                (None, Some(c)) if c > 0 => format!("  (n={c})"),
                _ => String::new(),
            };
            lines.push(format!("    {name}  {value:.3} {unit}{extra}"));
        }
        (metrics, lines)
    }
}

/// What the direct-drive pass did.
#[derive(Default)]
struct Direct {
    attempted: u64,
    failed: Vec<String>,
}

/// The direct-drive pass: the next `n` operations of a client's stream
/// run straight on the routed stores, with spans around each layer's
/// public calls. Deletes are skipped.
fn direct_pass(node: &Node, gen: &mut OpGen, model: &mut Model, t: &mut Tracer, n: u64) -> Direct {
    let mut out = Direct::default();
    let failures = &mut out.failed;
    let fail =
        |msg: String, failures: &mut Vec<String>| failures.push(format!("direct pass: {msg}"));
    for i in 0..n {
        let op_id = ((CLIENTS as u64 + 1) << 48) | i;
        let op = gen.next_op();
        if !matches!(op, Op::Delete { .. }) {
            out.attempted += 1;
        }
        match op {
            Op::Get { idx } => {
                let key = key_of(0, idx);
                let Some(store) = node.store(node.route(key)) else {
                    continue;
                };
                let g = t.open("store.get", 0, op_id);
                let gid = id_of(&g);
                let value = match t.span("lsm.get", gid, op_id, || store.index().get(key)) {
                    Ok(Some(locators)) => {
                        let mut v = Vec::with_capacity(locators.len());
                        for loc in &locators {
                            let name = if store.cache().cached(loc).is_some() {
                                "cache.get"
                            } else {
                                "chunk.read"
                            };
                            match t.span(name, gid, op_id, || store.cache().get(loc)) {
                                Ok(seg) => v.push(seg),
                                Err(e) => fail(format!("chunk read of key {idx}: {e}"), failures),
                            }
                        }
                        Some(v)
                    }
                    Ok(None) => None,
                    Err(e) => {
                        fail(format!("index get of key {idx}: {e}"), failures);
                        None
                    }
                };
                t.close(g);
                let segs = value
                    .as_ref()
                    .map(|v| v.iter().map(|s| s.as_slice()).collect::<Vec<_>>());
                if let Err(e) = check_value(0, idx, model.cur.get(&idx).copied(), segs.as_deref()) {
                    fail(e, failures);
                }
            }
            Op::Put { idx, len } => {
                let key = key_of(0, idx);
                let Some(store) = node.store(node.route(key)) else {
                    continue;
                };
                let g = model.new_gen();
                let (value, sum) = make_value(key, g, len);
                match t.span("store.put", 0, op_id, || store.put(key, &value)) {
                    Ok(_) => {
                        model.write(
                            idx,
                            Some(Ver {
                                gen: g,
                                len: len as u32,
                                sum,
                            }),
                        );
                    }
                    Err(e) => {
                        model.uncertain.insert(idx);
                        fail(format!("put of key {idx}: {e}"), failures);
                    }
                }
            }
            Op::Delete { .. } => {}
            Op::Scan { lo } => {
                let (start, end) = (key_of(0, lo), key_of(0, lo + SCAN_SPAN - 1));
                let mut merged = Vec::new();
                for d in 0..node.disk_count() {
                    let Some(store) = node.store(d) else { continue };
                    match t.span("store.scan", 0, op_id, || store.scan(start, end)) {
                        Ok(mut entries) => {
                            entries.truncate(SCAN_LIMIT as usize);
                            merged.extend(entries);
                        }
                        Err(e) => fail(format!("scan at {lo}: {e}"), failures),
                    }
                }
                merged.sort_by_key(|(k, _)| *k);
                merged.truncate(SCAN_LIMIT as usize);
                let (want, _) = model.expected_page(lo);
                if merged.len() != want.len() {
                    fail(
                        format!(
                            "scan at {lo}: {} entries, want {}",
                            merged.len(),
                            want.len()
                        ),
                        failures,
                    );
                    continue;
                }
                for ((key, value), (idx, ver)) in merged.iter().zip(&want) {
                    let res = if *key == key_of(0, *idx) {
                        check_value(
                            0,
                            *idx,
                            Some(*ver),
                            Some(&value.segments().collect::<Vec<_>>()),
                        )
                    } else {
                        Err(format!("scan returned key {key:#x} for {idx}"))
                    };
                    if let Err(e) = res {
                        fail(e, failures);
                    }
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn file_size_limit_reads_the_soft_limit() {
        let limits = "Limit                     Soft Limit           Hard Limit           Units     \n\
                      Max cpu time              unlimited            unlimited            seconds   \n\
                      Max file size             1073741824           unlimited            bytes     \n";
        assert_eq!(file_size_limit(limits), Ok(Some(1 << 30)));
        let open = limits.replace("1073741824", "unlimited");
        assert_eq!(file_size_limit(&open), Ok(None));
        assert_eq!(file_size_limit(""), Ok(None));
        assert!(file_size_limit(&limits.replace("1073741824", "lots")).is_err());
    }
}
