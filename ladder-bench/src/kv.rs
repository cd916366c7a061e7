//! The served workloads `kv-mem` and `kv-fsync`: an in-process
//! `jiffy-server` driven over loopback by one open-loop driver thread
//! on two connections.
//!
//! Requests fall due on a fixed schedule and are timed from the moment
//! they were due, so a stall is charged to every request it delays.
//! Each connection owns the keys congruent to its index modulo the
//! connection count and keeps an exact model of them. Single-key
//! requests are pipelined; a `Txn` or `Scan` is sent only when nothing
//! else is in flight on its connection, and nothing follows it until it
//! is answered: the server queues a `Txn` on the worker of its first key
//! and a `Scan` on the worker of `lo`, so either could otherwise pass an
//! earlier pipelined put to another of its keys.

use std::collections::{HashMap, VecDeque};
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use index_api::{Batch, BatchOp, OrderedIndex};
use jiffy::JiffyConfig;
use jiffy_server::protocol::{decode_response, encode_request, FrameDecoder, MAX_SCAN};
use jiffy_server::{
    serve, Client, Durability, Request, Response, ServerConfig, ServerHandle, StatsSnapshot,
};

use crate::check::{self, ScanModel};
use crate::hist::{Hist, Windows};
use crate::lib_wl::{BATCH, GET, SCAN, WRITE};
use crate::rng::{mix, Rng};
use crate::store;
use crate::trace::Tracer;

pub const CONNS: u64 = 2;
const ABSENT: u64 = u64::MAX;
/// Keys are drawn from `[0, KEY_END)`; about half are in the store.
const KEY_END: u64 = 1 << 21;

/// Per-mille share of get, put, txn and scan.
const MIX: [u64; 4] = [450, 350, 100, 100];
const TXN_LEN: usize = 4;
const SCAN_LEN: u32 = 100;
/// Share of a run the reference phase takes; the saturation phase takes
/// the rest.
const REFERENCE_SHARE: f64 = 0.6;
/// Requests queued or in flight per connection in the saturation phase,
/// which measures the most the server completes per second.
const WINDOW: usize = 16;
/// Failed checks whose message is kept; all are counted.
const KEPT_ERRORS: usize = 5;

pub struct KvSpec {
    pub name: &'static str,
    pub durability: Durability,
    /// Offered rate of the reference phase (requests per second), well
    /// below what the server can take: per-class latencies come from it.
    pub reference_rate: f64,
    /// Latency window of the reference phase: long enough that every
    /// class has a p99 with ten samples beyond it in each window.
    pub reference_window_secs: f64,
    /// A second thread checkpoints the durable store this often.
    pub checkpoint_every: Option<Duration>,
}

pub fn kv_mem() -> KvSpec {
    KvSpec {
        name: "kv-mem",
        durability: Durability::None,
        reference_rate: 8000.0,
        reference_window_secs: 2.0,
        checkpoint_every: None,
    }
}

pub fn kv_fsync() -> KvSpec {
    KvSpec {
        name: "kv-fsync",
        durability: Durability::Fsync,
        reference_rate: 1000.0,
        reference_window_secs: 12.0,
        checkpoint_every: Some(Duration::from_secs(2)),
    }
}

impl KvSpec {
    pub fn initial_entries(&self, seed: u64) -> Vec<(u64, u64)> {
        (0..KEY_END).filter(|&k| mix(seed, k) & 1 == 0).map(|k| (k, k << 32)).collect()
    }

    pub fn config(&self, dir: Option<&Path>) -> ServerConfig {
        ServerConfig {
            durability: self.durability,
            data_dir: dir.map(Path::to_path_buf),
            ..ServerConfig::default()
        }
    }
}

/// Start a server over a fresh elastic map holding `entries`. Without
/// durability the map is loaded before it is served; with it, the keys
/// go in through the server's durable store.
pub fn start(
    spec: &KvSpec,
    entries: &[(u64, u64)],
    dir: Option<&Path>,
) -> io::Result<ServerHandle> {
    let map = Arc::new(store::elastic(KEY_END, JiffyConfig::default()));
    if spec.durability == Durability::None && !store::load(&*map, entries) {
        return Err(io::Error::other("initial load failed"));
    }
    let h = serve(map, "127.0.0.1:0", spec.config(dir))?;
    if let Some(d) = h.durable() {
        for c in entries.chunks(1024) {
            d.batch_update(Batch::new(c.iter().map(|&(k, v)| BatchOp::Put(k, v)).collect()))?;
        }
    }
    Ok(h)
}

/// One request as drawn, before it is sent.
enum Draw {
    Get(u64),
    Put(u64),
    Txn(Vec<u64>),
    Scan(u64),
}

struct Due {
    at: u64,
    phase: usize,
    draw: Draw,
}

enum Expect {
    Get(u64, Option<u64>),
    Ack,
    Scan(u64, u32),
}

struct Sent {
    due: u64,
    phase: usize,
    class: usize,
    expect: Expect,
    encode: (u64, u64),
}

/// One connection: socket, buffers, the requests waiting on it and
/// its model of the keys it owns.
struct Conn {
    c: u64,
    stream: TcpStream,
    out: Vec<u8>,
    out_at: usize,
    dec: FrameDecoder,
    queue: VecDeque<Due>,
    inflight: HashMap<u64, Sent>,
    fenced: bool,
    model: Vec<u64>,
    next_id: u64,
    ctr: u64,
}

impl ScanModel for Conn {
    fn key_end(&self) -> u64 {
        KEY_END
    }
    fn owns(&self, key: u64) -> bool {
        key < KEY_END && key % CONNS == self.c
    }
    fn value(&self, key: u64) -> Option<u64> {
        let v = self.model[(key / CONNS) as usize];
        (v != ABSENT).then_some(v)
    }
    fn plausible(&self, key: u64, val: u64) -> bool {
        val >> 32 == key
    }
}

impl Conn {
    fn set(&mut self, k: u64, v: u64) {
        self.model[(k / CONNS) as usize] = v;
    }

    fn value_for(&mut self, k: u64) -> u64 {
        self.ctr += 1;
        k << 32 | (self.ctr & 0xffff_ffff)
    }

    fn backlog(&self) -> usize {
        self.queue.len() + self.inflight.len()
    }
}

/// What one phase of the driver measured.
pub struct PhaseOut {
    /// Latency from due time per class, in windows by time answered.
    pub windows: Windows,
    pub start: u64,
}

impl PhaseOut {
    /// A phase not yet run; its windows are set when it starts.
    fn new() -> PhaseOut {
        PhaseOut { windows: Windows::new(1.0, 0.0), start: 0 }
    }
}

const SATURATION_WINDOW_SECS: f64 = 1.0;

const REFERENCE: usize = 0;
const SATURATION: usize = 1;

pub struct KvOut {
    /// The reference phase, then the saturation phase.
    pub phases: [PhaseOut; 2],
    pub attempted: u64,
    pub failed: u64,
    /// Answers that failed a check; the first few are in `errors`.
    pub wrong: u64,
    pub errors: Vec<String>,
    pub gen_lag: Hist,
    pub backlog_max: usize,
    pub checkpoint_s: Vec<f64>,
    pub stats: StatsSnapshot,
}

impl KvOut {
    fn new() -> KvOut {
        KvOut {
            phases: [PhaseOut::new(), PhaseOut::new()],
            attempted: 0,
            failed: 0,
            wrong: 0,
            errors: Vec::new(),
            gen_lag: Hist::new(),
            backlog_max: 0,
            checkpoint_s: Vec::new(),
            stats: StatsSnapshot::default(),
        }
    }

    /// Count a failed check, keeping the first few messages.
    fn wrong(&mut self, e: String) {
        self.wrong += 1;
        if self.errors.len() < KEPT_ERRORS {
            self.errors.push(e);
        }
    }

    pub fn reference(&self) -> &PhaseOut {
        &self.phases[REFERENCE]
    }

    /// The most requests per second the server answered: the median
    /// over the saturation phase's windows.
    pub fn ops_per_s(&self) -> f64 {
        self.phases[SATURATION].windows.rate()
    }
}

struct Driver<'a> {
    spec: &'a KvSpec,
    conns: Vec<Conn>,
    rng: Rng,
    epoch: Instant,
    rbuf: Vec<u8>,
    out: KvOut,
    tracer: Option<&'a mut Tracer>,
}

impl<'a> Driver<'a> {
    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Draw the next request for connection `c`. Gets, puts and
    /// transactions go to keys the connection owns, scans start anywhere.
    fn draw(&mut self, c: u64) -> Draw {
        let rng = &mut self.rng;
        let m = MIX;
        let r = rng.below(1000);
        let mut own = || (rng.below(KEY_END) & !(CONNS - 1)) | c;
        if r < m[GET] {
            Draw::Get(own())
        } else if r < m[GET] + m[WRITE] {
            Draw::Put(own())
        } else if r < m[GET] + m[WRITE] + m[BATCH] {
            Draw::Txn((0..TXN_LEN).map(|_| own()).collect())
        } else {
            Draw::Scan(self.rng.below(KEY_END))
        }
    }

    /// Send what may be sent on every connection, then write.
    fn send(&mut self) -> io::Result<bool> {
        let mut progressed = false;
        for conn in &mut self.conns {
            while let Some(front) = conn.queue.front() {
                let fence = matches!(front.draw, Draw::Txn(_) | Draw::Scan(_));
                if conn.fenced || (fence && !conn.inflight.is_empty()) {
                    break;
                }
                let due = conn.queue.pop_front().expect("front exists");
                let id = conn.next_id;
                conn.next_id += 1;
                let (req, class, expect) = match due.draw {
                    Draw::Get(k) => {
                        (Request::Get { id, key: k }, GET, Expect::Get(k, conn.value(k)))
                    }
                    Draw::Put(k) => {
                        let v = conn.value_for(k);
                        conn.set(k, v);
                        (Request::Put { id, key: k, val: v }, WRITE, Expect::Ack)
                    }
                    Draw::Txn(keys) => {
                        let ops: Vec<(u64, Option<u64>)> = keys
                            .into_iter()
                            .map(|k| {
                                let v = conn.value_for(k);
                                conn.set(k, v);
                                (k, Some(v))
                            })
                            .collect();
                        (Request::Txn { id, ops }, BATCH, Expect::Ack)
                    }
                    Draw::Scan(lo) => {
                        let n = SCAN_LEN;
                        (Request::Scan { id, lo, limit: n }, SCAN, Expect::Scan(lo, n))
                    }
                };
                let e0 = self.epoch.elapsed().as_nanos() as u64;
                encode_request(&mut conn.out, &req);
                let e1 = self.epoch.elapsed().as_nanos() as u64;
                conn.inflight.insert(
                    id,
                    Sent { due: due.at, phase: due.phase, class, expect, encode: (e0, e1) },
                );
                conn.fenced = fence;
                progressed = true;
            }
            while conn.out_at < conn.out.len() {
                match conn.stream.write(&conn.out[conn.out_at..]) {
                    Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                    Ok(n) => conn.out_at += n,
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                    Err(e) => return Err(e),
                }
            }
            if conn.out_at == conn.out.len() {
                conn.out.clear();
                conn.out_at = 0;
            }
        }
        Ok(progressed)
    }

    /// Read and check every response that has arrived.
    fn receive(&mut self) -> io::Result<bool> {
        let mut progressed = false;
        for ci in 0..self.conns.len() {
            match self.conns[ci].stream.read(&mut self.rbuf) {
                Ok(0) => return Err(io::ErrorKind::UnexpectedEof.into()),
                Ok(n) => self.conns[ci].dec.extend(&self.rbuf[..n]),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => continue,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
            while let Some(frame) = self.conns[ci].dec.next_frame().map_err(io::Error::other)? {
                let d0 = self.now();
                let resp = decode_response(&frame).map_err(io::Error::other)?;
                let d1 = self.now();
                self.complete(ci, resp, (d0, d1));
                progressed = true;
            }
        }
        Ok(progressed)
    }

    fn complete(&mut self, ci: usize, resp: Response, decode: (u64, u64)) {
        let conn = &mut self.conns[ci];
        let Some(sent) = conn.inflight.remove(&resp.id()) else {
            self.out.wrong(format!("conn {ci}: response to unknown id {}", resp.id()));
            return;
        };
        if matches!(sent.expect, Expect::Scan(..)) || sent.class == BATCH {
            conn.fenced = false;
        }
        let verdict = match (&sent.expect, &resp) {
            (_, Response::Error { id }) => {
                self.out.failed += 1;
                Err(format!("conn {ci}: request {id} rejected"))
            }
            (Expect::Get(k, e), Response::Get { val, .. }) => check::get(*k, *e, *val),
            (Expect::Ack, Response::Put { .. } | Response::Txn { .. }) => Ok(()),
            (Expect::Scan(lo, n), Response::Scan { entries, .. }) => {
                check::scan(*lo, *n as usize, entries, &*conn)
            }
            (_, other) => Err(format!("conn {ci}: unexpected response {other:?}")),
        };
        if let Err(e) = verdict {
            self.out.wrong(e);
        }
        let done = self.now();
        let lat = done.saturating_sub(sent.due);
        let phase = &mut self.out.phases[sent.phase];
        phase.windows.record(sent.class, done.saturating_sub(phase.start), lat);
        if let Some(tr) = self.tracer.as_deref_mut() {
            let children = [
                ("jiffy-server.protocol.encode", sent.encode.0, sent.encode.1),
                ("wire", sent.encode.1, decode.0),
                ("jiffy-server.protocol.decode", decode.0, decode.1),
            ];
            tr.record(("kv.request", sent.due, done), &children, resp.id());
        }
    }

    fn backlog(&self) -> usize {
        self.conns.iter().map(Conn::backlog).sum()
    }

    fn pump(&mut self) -> io::Result<()> {
        let sent = self.send()?;
        let got = self.receive()?;
        if !sent && !got {
            std::thread::yield_now();
        }
        Ok(())
    }

    /// Queue a new request on connection `c`, due at `at`.
    fn generate(&mut self, c: u64, at: u64, phase: usize) {
        let draw = self.draw(c);
        self.conns[c as usize].queue.push_back(Due { at, phase, draw });
        self.out.attempted += 1;
    }

    /// Offer `rate` requests per second for `secs`, alternating between
    /// the connections, then wait for every one to be answered.
    fn open_loop(&mut self, rate: f64, secs: f64) -> io::Result<()> {
        let start = self.now();
        let total = (rate * secs).round() as u64;
        let period = 1e9 / rate;
        let p = &mut self.out.phases[REFERENCE];
        p.start = start;
        p.windows = Windows::new(self.spec.reference_window_secs, secs);
        let mut i = 0u64;
        while i < total {
            let now = self.now();
            while i < total {
                let at = start + (i as f64 * period) as u64;
                if at > now {
                    break;
                }
                self.out.gen_lag.record(now - at);
                self.generate(i % CONNS, at, REFERENCE);
                i += 1;
            }
            self.out.backlog_max = self.out.backlog_max.max(self.backlog());
            self.pump()?;
        }
        self.drain(Duration::from_secs(10))
    }

    /// Keep `window` requests queued or in flight on every connection
    /// for `secs`: the most the server completes per second with this
    /// mix. Each request is due when it is made.
    fn saturate(&mut self, window: usize, secs: f64) -> io::Result<()> {
        let start = self.now();
        let end = start + (secs * 1e9) as u64;
        let p = &mut self.out.phases[SATURATION];
        p.start = start;
        p.windows = Windows::new(SATURATION_WINDOW_SECS, secs);
        loop {
            let now = self.now();
            if now >= end {
                break;
            }
            for c in 0..CONNS {
                while self.conns[c as usize].backlog() < window {
                    self.generate(c, now, SATURATION);
                }
            }
            self.pump()?;
        }
        self.drain(Duration::from_secs(10))
    }

    fn drain(&mut self, limit: Duration) -> io::Result<()> {
        let until = Instant::now() + limit;
        while self.backlog() > 0 {
            if Instant::now() > until {
                return Err(io::Error::new(io::ErrorKind::TimedOut, "requests still unanswered"));
            }
            self.pump()?;
        }
        Ok(())
    }
}

/// Drive a live server: the open-loop reference phase, then the
/// saturation phase. Returns the measurements and each connection's
/// model after the last answer.
pub fn drive(
    spec: &KvSpec,
    h: &ServerHandle,
    seed: u64,
    models: Vec<Vec<u64>>,
    secs: f64,
    tracer: Option<&mut Tracer>,
    epoch: Instant,
) -> io::Result<(KvOut, Vec<Vec<u64>>)> {
    let mut conns = Vec::new();
    for (c, model) in (0..CONNS).zip(models) {
        let sock = TcpStream::connect(h.addr())?;
        sock.set_nodelay(true)?;
        sock.set_nonblocking(true)?;
        conns.push(Conn {
            c,
            stream: sock,
            out: Vec::new(),
            out_at: 0,
            dec: FrameDecoder::new(),
            queue: VecDeque::new(),
            inflight: HashMap::new(),
            fenced: false,
            model,
            next_id: 1,
            ctr: 0,
        });
    }
    let before = h.stats().snapshot();
    let stop = &AtomicBool::new(false);
    let mut d = Driver {
        spec,
        conns,
        rng: Rng::new(seed, 7),
        epoch,
        rbuf: vec![0; 256 << 10],
        out: KvOut::new(),
        tracer,
    };
    let mut ckpt = Vec::new();
    let res = std::thread::scope(|s| {
        let checkpointer = match (spec.checkpoint_every, h.durable()) {
            (Some(every), Some(dur)) => Some(s.spawn(move || {
                let mut times = Vec::new();
                let mut next = Instant::now() + every;
                while !stop.load(Ordering::Relaxed) {
                    if Instant::now() < next {
                        std::thread::sleep(Duration::from_millis(5));
                        continue;
                    }
                    let t0 = Instant::now();
                    dur.checkpoint()?;
                    times.push(t0.elapsed().as_secs_f64());
                    next = Instant::now() + every;
                }
                Ok::<_, io::Error>(times)
            })),
            _ => None,
        };
        let share = REFERENCE_SHARE;
        let mut res = d
            .open_loop(spec.reference_rate, share * secs)
            .and_then(|()| d.saturate(WINDOW, (1.0 - share) * secs));
        stop.store(true, Ordering::Relaxed);
        if let Some(c) = checkpointer {
            match c.join().expect("checkpoint thread panicked") {
                Ok(t) => ckpt = t,
                Err(e) => res = res.and(Err(e)),
            }
        }
        res
    });
    let mut out = d.out;
    out.checkpoint_s = ckpt;
    let after = h.stats().snapshot();
    out.stats = StatsSnapshot {
        installed_batches: after.installed_batches - before.installed_batches,
        coalesced_puts: after.coalesced_puts - before.coalesced_puts,
        direct_ops: after.direct_ops - before.direct_ops,
        txns: after.txns - before.txns,
    };
    if let Err(e) = res {
        out.wrong(format!("driver: {e}"));
    }
    let models = d.conns.into_iter().map(|c| c.model).collect();
    Ok((out, models))
}

/// Each connection's model of the keys it owns, from the store's
/// starting contents.
pub fn models(entries: &[(u64, u64)]) -> Vec<Vec<u64>> {
    let mut models = vec![vec![ABSENT; (KEY_END / CONNS) as usize]; CONNS as usize];
    for &(k, v) in entries {
        models[(k % CONNS) as usize][(k / CONNS) as usize] = v;
    }
    models
}

/// Read every key back through a client and compare with the models.
pub fn read_back(addr: std::net::SocketAddr, models: &[Vec<u64>]) -> check::Verdict {
    let mut client = Client::connect(addr).map_err(|e| format!("read-back connect: {e}"))?;
    let mut all = Vec::new();
    let mut lo = 0u64;
    loop {
        let page = client.scan(lo, MAX_SCAN).map_err(|e| format!("read-back scan: {e}"))?;
        let done = page.len() < MAX_SCAN as usize;
        lo = page.last().map_or(lo, |e| e.0 + 1);
        all.extend(page);
        if done {
            break;
        }
    }
    check::whole_state(&all, KEY_END, &|k| {
        let v = models[(k % CONNS) as usize][(k / CONNS) as usize];
        (v != ABSENT).then_some(v)
    })
}

/// Mean nanoseconds of `calls` gets straight on the served map, with
/// keys drawn as the driver draws them: what the map itself adds to a
/// served get.
pub fn map_get_ns(h: &ServerHandle, seed: u64, calls: u64) -> f64 {
    let map = h.map();
    let mut rng = Rng::new(seed, 8);
    let mut hits = 0u64;
    let t0 = Instant::now();
    for _ in 0..calls {
        hits += OrderedIndex::get(&**map, &rng.below(KEY_END)).is_some() as u64;
    }
    let ns = t0.elapsed().as_nanos() as f64 / calls as f64;
    std::hint::black_box(hits);
    ns
}

/// Shut `h` down and serve its data directory again. Returns the new
/// server and the seconds from `serve` until it answers a request.
pub fn restart(spec: &KvSpec, h: ServerHandle, dir: &Path) -> io::Result<(ServerHandle, f64)> {
    h.shutdown();
    let t0 = Instant::now();
    let h2 = serve(
        Arc::new(store::elastic(KEY_END, JiffyConfig::default())),
        "127.0.0.1:0",
        spec.config(Some(dir)),
    )?;
    let mut c = Client::connect(h2.addr()).map_err(io::Error::other)?;
    c.get(0).map_err(io::Error::other)?;
    Ok((h2, t0.elapsed().as_secs_f64()))
}

/// A fresh directory for a durability root inside `base`.
pub fn fresh_dir(base: &Path, tag: &str) -> io::Result<PathBuf> {
    let dir = base.join(format!("{tag}-{}", std::process::id()));
    if dir.exists() {
        std::fs::remove_dir_all(&dir)?;
    }
    std::fs::create_dir_all(&dir)?;
    Ok(dir)
}
