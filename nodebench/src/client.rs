//! One closed-loop front-end connection: it keeps up to [`WINDOW`]
//! requests in flight through the engine, makes its own acked writes
//! durable with group-commit barriers, plays the maintenance policy, and
//! checks every reply against its model of its own key partition.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use shardstore_core::rpc::{Request, Response};
use shardstore_core::{Node, PendingReply, RpcClient, Store};

use crate::trace::{id_of, Open, Tracer};
use crate::workload::{
    body, header, key_of, make_value, parse_header, segments_eq, Op, OpGen, HEADER, SCAN_LIMIT,
    SCAN_SPAN, WINDOW,
};

/// A stored version of a key: generation, value length and body checksum.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ver {
    pub gen: u64,
    pub len: u32,
    pub sum: u64,
}

/// What a client knows about its own keys.
#[derive(Debug, Default)]
pub struct Model {
    /// Latest submitted state of every present key. Requests to one disk
    /// execute in submission order, so a read is checked against the
    /// model as it stood when the read was submitted.
    pub cur: BTreeMap<u64, Ver>,
    /// State as of the last barrier that covered a write of the key
    /// (absent = deleted or never written).
    pub durable: BTreeMap<u64, Ver>,
    /// Writes no barrier has covered yet, by key: `(seq, state)`. After a
    /// crash such a key may show any of these states or its durable one.
    pub uncovered: BTreeMap<u64, Vec<(u64, Option<Ver>)>>,
    /// Keys whose last write failed: their state is unknown.
    pub uncertain: BTreeSet<u64>,
    /// One past the highest key index ever written.
    pub high: u64,
    next_gen: u64,
    next_seq: u64,
}

impl Model {
    /// Records a preloaded, already durable key.
    pub fn preloaded(&mut self, idx: u64, v: Ver) {
        self.cur.insert(idx, v);
        self.durable.insert(idx, v);
        self.high = self.high.max(idx + 1);
    }

    /// Records a submitted write; returns its sequence number.
    pub fn write(&mut self, idx: u64, state: Option<Ver>) -> u64 {
        self.next_seq += 1;
        self.high = self.high.max(idx + 1);
        match state {
            Some(v) => self.cur.insert(idx, v),
            None => self.cur.remove(&idx),
        };
        self.uncovered
            .entry(idx)
            .or_default()
            .push((self.next_seq, state));
        self.next_seq
    }

    pub fn new_gen(&mut self) -> u64 {
        self.next_gen += 1;
        self.next_gen
    }

    /// A barrier made the write `seq` of `idx` durable.
    fn cover(&mut self, idx: u64, seq: u64) {
        let Some(list) = self.uncovered.get_mut(&idx) else {
            return;
        };
        let Some(pos) = list.iter().position(|(s, _)| *s == seq) else {
            return;
        };
        match list[pos].1 {
            Some(v) => self.durable.insert(idx, v),
            None => self.durable.remove(&idx),
        };
        list.drain(..=pos);
        if list.is_empty() {
            self.uncovered.remove(&idx);
        }
    }

    /// The page a scan of `[lo, lo + SCAN_SPAN)` must return, and whether
    /// a continuation must come with it.
    pub fn expected_page(&self, lo: u64) -> (Vec<(u64, Ver)>, bool) {
        let mut it = self.cur.range(lo..lo + SCAN_SPAN).map(|(k, v)| (*k, *v));
        let page: Vec<_> = it.by_ref().take(SCAN_LIMIT as usize).collect();
        let more = it.next().is_some();
        (page, more)
    }
}

/// Operation kinds, for per-kind samples.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Get = 0,
    Put = 1,
    Delete = 2,
    Scan = 3,
}

/// Latency samples of one kind: `(completion time in s since the measured
/// phase began, latency in µs)`.
pub type Samples = Vec<(f64, f64)>;

/// Everything a client measured and checked.
#[derive(Default)]
pub struct ClientOut {
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    /// Front-end latency per kind: writes until durable, reads until the
    /// reply.
    pub latency: [Samples; 4],
    /// Engine call (submit → reply observed) per kind, in µs.
    pub call_us: [Vec<f64>; 4],
    /// Operations completed inside the measured window, per kind.
    pub completed: [u64; 4],
    /// Completed in traced / untraced trace windows.
    pub completed_traced: u64,
    pub completed_untraced: u64,
    /// Nanoseconds this client spent in the measured phase building
    /// values and checking replies: the benchmark's own share of the
    /// process's CPU.
    pub client_ns: u64,
    /// User bytes put in the measured phase.
    pub user_bytes_put: u64,
    pub barriers: u64,
    pub writes_covered: u64,
    pub model: Model,
    pub gen: Option<OpGen>,
    pub spans: Vec<crate::trace::Span>,
}

impl ClientOut {
    pub fn fail(&mut self, msg: String) {
        self.failed += 1;
        if self.errors.len() < 8 {
            self.errors.push(msg);
        }
    }

    /// Folds in the next round's output, whose measured phase began
    /// `offset` seconds of measured time after this one's and lasted
    /// `seconds`: samples completed after its end (while the clients saw
    /// the cut) are dropped, and the model and generator are the next
    /// round's.
    pub fn absorb(&mut self, next: ClientOut, offset: f64, seconds: f64) {
        self.attempted += next.attempted;
        self.failed += next.failed;
        let room = 8usize.saturating_sub(self.errors.len());
        self.errors.extend(next.errors.into_iter().take(room));
        for (k, samples) in next.latency.into_iter().enumerate() {
            let before = self.latency[k].len();
            self.latency[k].extend(
                samples
                    .into_iter()
                    .filter(|(at, _)| *at <= seconds)
                    .map(|(at, l)| (at + offset, l)),
            );
            self.completed[k] += (self.latency[k].len() - before) as u64;
        }
        for (mine, theirs) in self.call_us.iter_mut().zip(next.call_us) {
            mine.extend(theirs);
        }
        self.completed_traced += next.completed_traced;
        self.completed_untraced += next.completed_untraced;
        self.client_ns += next.client_ns;
        self.user_bytes_put += next.user_bytes_put;
        self.barriers += next.barriers;
        self.writes_covered += next.writes_covered;
        self.model = next.model;
        self.gen = next.gen;
        self.spans.extend(next.spans);
    }
}

enum Expect {
    Value(u64, Option<Ver>),
    Page(Vec<(u64, Ver)>, bool),
    Write { idx: u64, seq: u64 },
    Unchecked,
}

struct InFlight {
    kind: Kind,
    submit: Instant,
    expect: Expect,
    op_span: Option<Open>,
    call_span: Option<Open>,
}

struct Acked {
    kind: Kind,
    idx: u64,
    seq: u64,
    submit: Instant,
    op_span: Option<Open>,
}

/// Phase boundaries of a client run.
pub struct Phases {
    /// When the measured phase started (set after warm-up).
    pub start: Instant,
    /// Length of the measured phase in ns after `start`. The run may cut
    /// it short at a slice boundary (see [`Phases::cut`]).
    end_ns: AtomicU64,
    /// Trace mode: spans are recorded in odd windows of this length, so
    /// traced and untraced throughput are measured side by side.
    pub trace_window: Option<Duration>,
}

impl Phases {
    pub fn new(start: Instant, length: Duration, trace_window: Option<Duration>) -> Self {
        Self {
            start,
            end_ns: AtomicU64::new(length.as_nanos() as u64),
            trace_window,
        }
    }

    pub fn deadline(&self) -> Instant {
        self.start + Duration::from_nanos(self.end_ns.load(Ordering::Relaxed))
    }

    /// Ends the measured phase `at` after its start (already passed):
    /// clients stop at their next step and drain.
    pub fn cut(&self, at: Duration) {
        self.end_ns.store(at.as_nanos() as u64, Ordering::Relaxed);
    }
}

pub struct Client {
    id: usize,
    rpc: RpcClient,
    node: Node,
    gen: OpGen,
    out: ClientOut,
    tracer: Tracer,
    in_flight: VecDeque<(PendingReply, InFlight)>,
    acked: Vec<Acked>,
    touched: BTreeSet<usize>,
    next_op: u64,
    measuring: Option<(Instant, Instant)>,
}

impl Client {
    pub fn new(
        id: usize,
        rpc: RpcClient,
        node: Node,
        gen: OpGen,
        model: Model,
        epoch: Instant,
    ) -> Self {
        let out = ClientOut {
            model,
            ..ClientOut::default()
        };
        Self {
            id,
            rpc,
            node,
            gen,
            out,
            tracer: Tracer::new(id as u64, epoch),
            in_flight: VecDeque::new(),
            acked: Vec::new(),
            touched: BTreeSet::new(),
            next_op: 0,
            measuring: None,
        }
    }

    /// Runs `ops` operations, then drains and makes every acked write
    /// durable, so the measured phase starts from a clean window.
    pub fn warm_up(&mut self, ops: u64) {
        let target = self.next_op + ops;
        while self.next_op < target || !self.in_flight.is_empty() || !self.acked.is_empty() {
            if self.next_op < target {
                self.fill();
            }
            self.step();
        }
    }

    /// Runs the measured phase until the deadline, then drains the
    /// in-flight requests. Acked writes left without a barrier stay
    /// uncovered on purpose: the crash check must accept either state.
    pub fn measure(&mut self, phases: &Phases) {
        loop {
            let deadline = phases.deadline();
            self.measuring = Some((phases.start, deadline));
            let now = Instant::now();
            if now >= deadline {
                break;
            }
            if let Some(w) = phases.trace_window {
                let k = now.duration_since(phases.start).as_nanos() / w.as_nanos();
                self.tracer.on = k % 2 == 1;
            }
            self.fill();
            self.step();
        }
        self.tracer.on = false;
        while let Some((reply, f)) = self.in_flight.pop_front() {
            self.complete(f, reply.wait());
        }
        self.measuring = None;
    }

    pub fn finish(mut self) -> ClientOut {
        self.out.spans = std::mem::take(&mut self.tracer.spans);
        self.out.gen = Some(self.gen);
        self.out
    }

    fn slots_used(&self) -> usize {
        self.in_flight.len() + self.acked.len()
    }

    fn fill(&mut self) {
        while self.slots_used() < WINDOW {
            let op = self.gen.next_op();
            self.submit(op);
        }
    }

    /// Waits for the oldest outstanding reply and collects every other
    /// ready one; with nothing outstanding, the window is full of acked
    /// writes and a barrier makes them durable.
    fn step(&mut self) {
        if let Some((reply, f)) = self.in_flight.pop_front() {
            self.complete(f, reply.wait());
            let mut i = 0;
            while i < self.in_flight.len() {
                if let Some(resp) = self.in_flight[i].0.poll() {
                    let (_, f) = self.in_flight.remove(i).expect("index in range");
                    self.complete(f, resp);
                } else {
                    i += 1;
                }
            }
        } else if !self.acked.is_empty() {
            self.barrier();
            self.compact_if_due();
        }
    }

    fn submit(&mut self, op: Op) {
        self.next_op += 1;
        self.out.attempted += 1;
        let op_id = ((self.id as u64 + 1) << 48) | self.next_op;
        let op_span = self.tracer.open("op", 0, op_id);
        let call_span = self.tracer.open("engine.call", id_of(&op_span), op_id);
        let m = &mut self.out.model;
        let (kind, request, expect) = match op {
            Op::Get { idx } => {
                let expect = if m.uncertain.contains(&idx) {
                    Expect::Unchecked
                } else {
                    Expect::Value(idx, m.cur.get(&idx).copied())
                };
                (
                    Kind::Get,
                    Request::Get {
                        shard: key_of(self.id, idx),
                    },
                    expect,
                )
            }
            Op::Put { idx, len } => {
                let gen = m.new_gen();
                let key = key_of(self.id, idx);
                let t = Instant::now();
                let (data, sum) = make_value(key, gen, len);
                if self.measuring.is_some() {
                    self.out.client_ns += t.elapsed().as_nanos() as u64;
                }
                let seq = m.write(
                    idx,
                    Some(Ver {
                        gen,
                        len: len as u32,
                        sum,
                    }),
                );
                self.touched.insert(self.node.route(key));
                (
                    Kind::Put,
                    Request::Put { shard: key, data },
                    Expect::Write { idx, seq },
                )
            }
            Op::Delete { idx } => {
                let seq = m.write(idx, None);
                let key = key_of(self.id, idx);
                self.touched.insert(self.node.route(key));
                (
                    Kind::Delete,
                    Request::Delete { shard: key },
                    Expect::Write { idx, seq },
                )
            }
            Op::Scan { lo } => {
                let hi = lo + SCAN_SPAN - 1;
                let expect = if m.uncertain.range(lo..=hi).next().is_some() {
                    Expect::Unchecked
                } else {
                    let (page, more) = m.expected_page(lo);
                    Expect::Page(page, more)
                };
                let request = Request::Scan {
                    start: key_of(self.id, lo),
                    end: key_of(self.id, hi),
                    limit: SCAN_LIMIT,
                    continuation: None,
                };
                (Kind::Scan, request, expect)
            }
        };
        if let (Request::Put { data, .. }, Some(_)) = (&request, self.measuring) {
            self.out.user_bytes_put += data.len() as u64;
        }
        let submit = Instant::now();
        let reply = self.rpc.call_nowait(request);
        self.in_flight.push_back((
            reply,
            InFlight {
                kind,
                submit,
                expect,
                op_span,
                call_span,
            },
        ));
    }

    fn complete(&mut self, f: InFlight, resp: Response) {
        let now = Instant::now();
        self.tracer.close(f.call_span);
        let call_us = now.duration_since(f.submit).as_secs_f64() * 1e6;
        if self.in_window(now) {
            self.out.call_us[f.kind as usize].push(call_us);
        }
        match f.expect {
            Expect::Write { idx, seq } => match resp {
                Response::Ok => self.acked.push(Acked {
                    kind: f.kind,
                    idx,
                    seq,
                    submit: f.submit,
                    op_span: f.op_span,
                }),
                other => {
                    self.out.model.uncertain.insert(idx);
                    self.out.fail(format!(
                        "client {} write of key {idx}: {}",
                        self.id,
                        summary(&other)
                    ));
                }
            },
            expect => {
                let checked = check_read(self.id, &expect, resp);
                if self.measuring.is_some() {
                    self.out.client_ns += now.elapsed().as_nanos() as u64;
                }
                if let Err(e) = checked {
                    self.out.fail(e);
                }
                self.tracer.close(f.op_span);
                self.record(f.kind, f.submit, now);
            }
        }
    }

    fn in_window(&self, t: Instant) -> bool {
        matches!(self.measuring, Some((start, deadline)) if t >= start && t <= deadline)
    }

    fn record(&mut self, kind: Kind, submit: Instant, done: Instant) {
        let Some((start, _)) = self.measuring else {
            return;
        };
        if !self.in_window(done) {
            return;
        }
        let at = done.duration_since(start).as_secs_f64();
        let lat = done.duration_since(submit).as_secs_f64() * 1e6;
        self.out.latency[kind as usize].push((at, lat));
        self.out.completed[kind as usize] += 1;
        if self.tracer.on {
            self.out.completed_traced += 1;
        } else {
            self.out.completed_untraced += 1;
        }
    }

    /// The group-commit barrier: flush the index and drive the IO of
    /// every disk this client wrote since its last barrier. A write is
    /// durable once the first barrier that started after its ack ends.
    fn barrier(&mut self) {
        let covered = std::mem::take(&mut self.acked);
        let touched = std::mem::take(&mut self.touched);
        let t = &mut self.tracer;
        let b = t.open("barrier", 0, 0);
        let bid = id_of(&b);
        let mut err = None;
        let stores: Vec<Store> = touched.iter().filter_map(|&d| self.node.store(d)).collect();
        for store in &stores {
            if let Err(e) = t.span("lsm.flush", bid, 0, || store.flush_index()) {
                err.get_or_insert(format!("flush: {e}"));
            }
        }
        for store in &stores {
            let sched = store.scheduler();
            loop {
                let o = t.open("sched.issue", bid, 0);
                let issued = match sched.issue_ready(usize::MAX) {
                    Ok(n) => n,
                    Err(e) => {
                        err.get_or_insert(format!("issue: {e}"));
                        break;
                    }
                };
                if issued > 0 {
                    t.close(o);
                }
                let had_issued = sched.issued_count() > 0;
                if had_issued {
                    if let Err(e) = t.span("sched.fence", bid, 0, || sched.flush_issued()) {
                        err.get_or_insert(format!("fence: {e}"));
                        break;
                    }
                }
                if issued == 0 && !had_issued {
                    break;
                }
            }
        }
        for store in &stores {
            if let Err(e) = t.span("store.pump", bid, 0, || store.pump()) {
                err.get_or_insert(format!("pump: {e}"));
            }
        }
        t.close(b);
        let end = Instant::now();
        let span_end = t.now();
        if let Some(e) = err {
            self.out.fail(format!("client {} barrier: {e}", self.id));
            return;
        }
        if self.in_window(end) {
            self.out.barriers += 1;
            self.out.writes_covered += covered.len() as u64;
        }
        for a in covered {
            self.out.model.cover(a.idx, a.seq);
            self.tracer.close_at(a.op_span, span_end);
            self.record(a.kind, a.submit, end);
        }
    }

    /// Compaction: the node has no maintenance loop, so after a barrier
    /// flush the client runs one compaction round on any disk past the
    /// table-count trigger (mirroring the store's own trigger
    /// after a threshold flush; explicit flushes never compact).
    fn compact_if_due(&mut self) {
        for d in 0..self.node.disk_count() {
            let Some(store) = self.node.store(d) else {
                continue;
            };
            let trigger = store.config().compaction_trigger_tables.max(2);
            if store.index().table_count() < trigger {
                continue;
            }
            let t = &mut self.tracer;
            let m = t.open("maintenance", 0, 0);
            let res = t.span("lsm.compact", id_of(&m), 0, || store.compact_index());
            t.close(m);
            if let Err(e) = res {
                self.out
                    .fail(format!("client {} compaction on disk {d}: {e}", self.id));
            }
        }
    }
}

/// Checks a value, given as its segments, against the expected version
/// of `idx`: header fields first, then every byte.
pub fn check_value(
    client: usize,
    idx: u64,
    want: Option<Ver>,
    got: Option<&[&[u8]]>,
) -> Result<(), String> {
    let key = key_of(client, idx);
    match (want, got) {
        (None, None) => Ok(()),
        (Some(w), Some(segs)) => {
            let len: usize = segs.iter().map(|s| s.len()).sum();
            let mut h = [0u8; HEADER];
            let mut at = 0;
            for s in segs {
                let n = s.len().min(HEADER - at);
                h[at..at + n].copy_from_slice(&s[..n]);
                at += n;
            }
            let (k, gen, sum) = parse_header(&h);
            if at < HEADER || (k, gen, sum, len) != (key, w.gen, w.sum, w.len as usize) {
                return Err(format!(
                    "client {client} key {idx}: got key {k:#x} gen {gen} checksum {sum:#x} len \
                     {len}, want gen {} checksum {:#x} len {}",
                    w.gen, w.sum, w.len
                ));
            }
            let want_bytes = [&header(key, w.gen, w.sum)[..], body(key, w.gen, len)];
            if !segments_eq(segs, &want_bytes) {
                return Err(format!(
                    "client {client} key {idx}: body of gen {gen} differs from what was put"
                ));
            }
            Ok(())
        }
        (w, g) => Err(format!(
            "client {client} key {idx}: want {}, got {}",
            if w.is_some() { "a value" } else { "absent" },
            if g.is_some() { "a value" } else { "absent" }
        )),
    }
}

fn check_read(client: usize, expect: &Expect, resp: Response) -> Result<(), String> {
    match (expect, resp) {
        (Expect::Unchecked, Response::Error(e)) => Err(format!("client {client}: {e}")),
        (Expect::Unchecked, _) => Ok(()),
        (Expect::Value(idx, want), Response::Data(v)) => {
            check_value(client, *idx, *want, Some(&v.segments().collect::<Vec<_>>()))
        }
        (Expect::Value(idx, want), Response::NotFound) => check_value(client, *idx, *want, None),
        (Expect::Page(want, more), Response::ScanPage { entries, next }) => {
            if entries.len() != want.len() {
                return Err(format!(
                    "client {client}: scan page has {} entries, want {}",
                    entries.len(),
                    want.len()
                ));
            }
            for ((key, value), (idx, ver)) in entries.iter().zip(want) {
                if *key != key_of(client, *idx) {
                    return Err(format!(
                        "client {client}: scan returned key {key:#x} for {idx}"
                    ));
                }
                let segs: Vec<&[u8]> = value.segments().collect();
                check_value(client, *idx, Some(*ver), Some(&segs))?;
            }
            let want_next = if *more {
                want.last().map(|(i, _)| key_of(client, *i))
            } else {
                None
            };
            if next != want_next {
                return Err(format!(
                    "client {client}: scan continuation {next:?}, want {want_next:?}"
                ));
            }
            Ok(())
        }
        (_, other) => Err(format!(
            "client {client}: unexpected reply {}",
            summary(&other)
        )),
    }
}

/// A reply summary for error messages (never the payload bytes).
fn summary(resp: &Response) -> String {
    match resp {
        Response::Ok => "ok".into(),
        Response::Data(v) => format!("data ({} bytes)", v.len()),
        Response::NotFound => "not found".into(),
        Response::ScanPage { entries, next } => {
            format!("scan page ({} entries, next {next:?})", entries.len())
        }
        Response::Error(e) => format!("error {e}"),
        _ => "another reply kind".into(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn value_check_reads_every_byte_across_segments() {
        let (idx, gen, len) = (9, 4, 5000);
        let (v, sum) = make_value(key_of(1, idx), gen, len);
        let ver = Ver {
            gen,
            len: len as u32,
            sum,
        };
        let want = Some(ver);
        let (a, b) = v.split_at(20);
        assert_eq!(check_value(1, idx, want, Some(&[a, b])), Ok(()));
        let mut bad = v.clone();
        bad[4000] ^= 1;
        assert!(check_value(1, idx, want, Some(&[&bad])).is_err());
        let stale = Some(Ver { gen: 3, ..ver });
        assert!(check_value(1, idx, stale, Some(&[&v])).is_err());
        assert!(check_value(1, idx, want, Some(&[&v[..4999]])).is_err());
        assert!(check_value(1, idx, want, None).is_err());
        assert!(check_value(0, idx, want, Some(&[&v])).is_err());
    }
}
