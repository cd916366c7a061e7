//! The in-process workloads `lib-read` and `lib-write`: two threads
//! call a store directly, each the only writer of the keys it owns, so
//! each keeps an exact model of them.

use std::time::{Duration, Instant};

use index_api::BatchOp;
use jiffy::JiffyConfig;
use workload::Zipfian;

use crate::check::{self, ScanModel};
use crate::hist::Windows;
use crate::rng::{mix, Rng};
use crate::store::Store;
use crate::trace::Tracer;

/// Operation classes, in the order their metrics are reported.
pub const CLASSES: [&str; 4] = ["get", "write", "batch", "scan"];
pub const GET: usize = 0;
pub const WRITE: usize = 1;
pub const BATCH: usize = 2;
pub const SCAN: usize = 3;

/// Model value of a key the store must not hold.
const ABSENT: u64 = u64::MAX;

/// Account keys of `lib-write` sit at this offset in every block of
/// `ACCOUNT_STRIDE` keys, so they spread over every shard.
const ACCOUNT_STRIDE: u64 = 1024;
const ACCOUNT_OFFSET: u64 = 512;
const OPENING_BALANCE: u64 = 1_000_000_000;
const AUDIT_EVERY: Duration = Duration::from_millis(200);

const SCAN_LEN: usize = 100;
/// Operations per batch (keys, or accounts of a transfer).
const BATCH_LEN: usize = 16;
/// Failed checks a thread keeps the message of; it counts them all.
const KEPT_ERRORS: usize = 5;

pub const THREADS: usize = 2;

pub struct LibSpec {
    pub name: &'static str,
    /// Keys are drawn from `[0, key_end)`.
    pub key_end: u64,
    /// Skewed key choice; uniform when `None`.
    pub zipf: Option<Zipfian>,
    /// Per-mille share of get, write, batch and scan.
    pub mix: [u64; 4],
    /// Half of all writes (single-key or in a batch) remove their key,
    /// so the store keeps its size while keys come and go.
    pub removes: bool,
    /// Batches are transfers among account keys, and each thread reads
    /// every key in one scan every `AUDIT_EVERY` to check the total.
    pub accounts: bool,
    /// Whether key `k` is in the store at the start (given the seed).
    pub initial: fn(u64, u64) -> bool,
    /// A fixed revision size for every map of the workload; the
    /// adaptive policy of the default `JiffyConfig` when `None`.
    pub revision_size: Option<usize>,
}

pub fn lib_read() -> LibSpec {
    LibSpec {
        name: "lib-read",
        key_end: 1 << 21,
        zipf: None,
        mix: [700, 80, 20, 200],
        removes: true,
        accounts: false,
        initial: |seed, k| mix(seed, k) & 1 == 0,
        revision_size: Some(300),
    }
}

pub fn lib_write() -> LibSpec {
    LibSpec {
        name: "lib-write",
        key_end: 1 << 16,
        zipf: Some(Zipfian::new(1 << 16)),
        mix: [100, 350, 500, 50],
        removes: false,
        accounts: true,
        initial: |_, _| true,
        revision_size: None,
    }
}

impl LibSpec {
    pub fn config(&self) -> JiffyConfig {
        self.revision_size.map_or_else(JiffyConfig::default, JiffyConfig::fixed)
    }

    pub fn is_account(&self, k: u64) -> bool {
        self.accounts && k % ACCOUNT_STRIDE == ACCOUNT_OFFSET
    }

    pub fn owner(&self, k: u64) -> u64 {
        if self.is_account(k) {
            (k / ACCOUNT_STRIDE) % THREADS as u64
        } else {
            k % THREADS as u64
        }
    }

    fn value(k: u64, ctr: u64) -> u64 {
        k << 32 | (ctr & 0xffff_ffff)
    }

    /// The store's starting contents, ascending.
    pub fn initial_entries(&self, seed: u64) -> Vec<(u64, u64)> {
        (0..self.key_end)
            .filter(|&k| (self.initial)(seed, k))
            .map(|k| (k, if self.is_account(k) { OPENING_BALANCE } else { LibSpec::value(k, 0) }))
            .collect()
    }

    /// What every account together holds, always.
    pub fn conserved_total(&self) -> u64 {
        (0..self.key_end).filter(|&k| self.is_account(k)).count() as u64 * OPENING_BALANCE
    }
}

pub enum Op {
    Get(u64),
    Put(u64, u64),
    /// Remove a key; whether the model held it.
    Remove(u64, bool),
    Scan(u64, usize),
    Batch(Vec<BatchOp<u64, u64>>),
}

impl Op {
    pub fn class(&self) -> usize {
        match self {
            Op::Get(_) => GET,
            Op::Put(..) | Op::Remove(..) => WRITE,
            Op::Batch(_) => BATCH,
            Op::Scan(..) => SCAN,
        }
    }
}

/// Span names `<layer>.<class>` for one rung.
pub fn span_names(layer: &str) -> [&'static str; 4] {
    CLASSES.map(|c| &*Box::leak(format!("{layer}.{c}").into_boxed_str()))
}

/// One load thread: its seeded op stream and its exact model of the
/// keys it owns.
pub struct LibThread<'s> {
    spec: &'s LibSpec,
    t: u64,
    rng: Rng,
    model: Vec<u64>,
    accounts: Vec<u64>,
    ctr: u64,
}

impl<'s> LibThread<'s> {
    pub fn new(spec: &'s LibSpec, seed: u64, t: u64, initial: &[(u64, u64)]) -> LibThread<'s> {
        let mut model = vec![ABSENT; spec.key_end as usize];
        for &(k, v) in initial {
            if spec.owner(k) == t {
                model[k as usize] = v;
            }
        }
        let accounts =
            (0..spec.key_end).filter(|&k| spec.is_account(k) && spec.owner(k) == t).collect();
        LibThread { spec, t, rng: Rng::new(seed, 100 + t), model, accounts, ctr: 0 }
    }

    fn any_key(&mut self) -> u64 {
        match &self.spec.zipf {
            Some(z) => z.sample(self.rng.next()),
            None => self.rng.below(self.spec.key_end),
        }
    }

    /// A key this thread owns that is not an account.
    fn own_key(&mut self) -> u64 {
        let mut k = (self.any_key() & !1) | self.t;
        if self.spec.is_account(k) {
            k += THREADS as u64;
        }
        k
    }

    /// A write of `k`, applied to the model: a put, or half the time
    /// where the workload removes keys, a remove.
    fn write(&mut self, k: u64) -> BatchOp<u64, u64> {
        if self.spec.removes && self.rng.below(2) == 0 {
            self.model[k as usize] = ABSENT;
            BatchOp::Remove(k)
        } else {
            self.ctr += 1;
            let v = LibSpec::value(k, self.ctr);
            self.model[k as usize] = v;
            BatchOp::Put(k, v)
        }
    }

    /// Draw the next operation and apply it to the model (this thread
    /// is the only writer of its keys, so the model is exact once the
    /// operation returns).
    pub fn next_op(&mut self) -> Op {
        let r = self.rng.below(1000);
        let m = self.spec.mix;
        if r < m[GET] {
            Op::Get(self.own_key())
        } else if r < m[GET] + m[WRITE] {
            let k = self.own_key();
            let had = self.value(k).is_some();
            match self.write(k) {
                BatchOp::Put(k, v) => Op::Put(k, v),
                BatchOp::Remove(k) => Op::Remove(k, had),
            }
        } else if r < m[GET] + m[WRITE] + m[BATCH] {
            Op::Batch(if self.spec.accounts { self.transfer() } else { self.key_batch() })
        } else {
            Op::Scan(self.any_key(), SCAN_LEN)
        }
    }

    /// Writes of `BATCH_LEN` consecutive keys of this thread from a
    /// uniform start, so a batch lands in one or two nodes. A batch
    /// over 16 random keys copies 16 revisions of about 500 entries
    /// (about 300 us), and the p99 of so long an operation doubled
    /// in runs where the host slowed everything by a sixth.
    fn key_batch(&mut self) -> Vec<BatchOp<u64, u64>> {
        let start = self.own_key();
        (0..BATCH_LEN as u64)
            .map(|i| self.write((start + i * THREADS as u64) % self.spec.key_end))
            .collect()
    }

    /// Move amounts among `BATCH_LEN` of this thread's accounts; the
    /// amounts sum to zero.
    fn transfer(&mut self) -> Vec<BatchOp<u64, u64>> {
        let n = BATCH_LEN.min(self.accounts.len());
        for i in 0..n {
            let j = i + self.rng.below((self.accounts.len() - i) as u64) as usize;
            self.accounts.swap(i, j);
        }
        let mut net = 0i64;
        (0..n)
            .map(|i| {
                let k = self.accounts[i];
                let d = if i + 1 == n { -net } else { self.rng.below(201) as i64 - 100 };
                net += d;
                let b = self.model[k as usize].wrapping_add(d as u64);
                self.model[k as usize] = b;
                BatchOp::Put(k, b)
            })
            .collect()
    }
}

impl ScanModel for LibThread<'_> {
    fn key_end(&self) -> u64 {
        self.spec.key_end
    }
    fn owns(&self, key: u64) -> bool {
        key < self.spec.key_end && self.spec.owner(key) == self.t
    }
    fn value(&self, key: u64) -> Option<u64> {
        let v = self.model[key as usize];
        (v != ABSENT).then_some(v)
    }
    fn plausible(&self, key: u64, val: u64) -> bool {
        self.spec.is_account(key) || val >> 32 == key
    }
}

/// Latency windows of the in-process workloads, in seconds.
const WINDOW_SECS: f64 = 1.0;

/// What one run of the load threads measured.
pub struct LibOut {
    /// Latency per class, in windows of the run.
    pub windows: Windows,
    pub ops: u64,
    /// Single-key writes and batches issued.
    pub writes: u64,
    pub attempted: u64,
    pub failed: u64,
    /// Answers that failed a check; the first few are in `errors`.
    pub wrong: u64,
    pub errors: Vec<String>,
    pub batches: u64,
    pub cross_shard_batches: u64,
    pub audits: u64,
    pub secs: f64,
}

impl LibOut {
    fn new(secs: f64) -> LibOut {
        LibOut {
            windows: Windows::new(WINDOW_SECS, secs),
            ops: 0,
            writes: 0,
            attempted: 0,
            failed: 0,
            wrong: 0,
            errors: Vec::new(),
            batches: 0,
            cross_shard_batches: 0,
            audits: 0,
            secs,
        }
    }

    fn absorb(&mut self, o: LibOut) {
        self.windows.merge(&o.windows);
        self.ops += o.ops;
        self.writes += o.writes;
        self.attempted += o.attempted;
        self.failed += o.failed;
        self.wrong += o.wrong;
        self.errors.extend(o.errors);
        self.batches += o.batches;
        self.cross_shard_batches += o.cross_shard_batches;
        self.audits += o.audits;
    }

    /// Count a failed check, keeping the first few messages.
    fn wrong(&mut self, e: String) {
        self.wrong += 1;
        if self.errors.len() < KEPT_ERRORS {
            self.errors.push(e);
        }
    }

    /// Median over the run's windows of operations per second.
    pub fn ops_per_s(&self) -> f64 {
        self.windows.rate()
    }
}

/// Run every thread against `store` for `secs` seconds. With tracers,
/// each operation gets a root span and a child span around the store
/// call. Where the store is range-sharded, batches are classified by
/// the shards they touch.
pub fn run(
    store: &dyn Store,
    spec: &LibSpec,
    threads: &mut [LibThread<'_>],
    secs: f64,
    tracers: Option<&mut [Tracer]>,
) -> LibOut {
    let shared =
        Shared { store, spec, start: Instant::now(), secs, names: span_names(store.layer()) };
    let mut outs: Vec<LibOut> = Vec::new();
    std::thread::scope(|s| {
        let mut handles = Vec::new();
        let trs: Vec<Option<&mut Tracer>> = match tracers {
            Some(t) => t.iter_mut().map(Some).collect(),
            None => threads.iter().map(|_| None).collect(),
        };
        for (th, tr) in threads.iter_mut().zip(trs) {
            let shared = &shared;
            handles.push(s.spawn(move || one_thread(shared, th, tr)));
        }
        for h in handles {
            outs.push(h.join().expect("load thread panicked"));
        }
    });
    let mut out = LibOut::new(secs);
    for o in outs {
        out.absorb(o);
    }
    out
}

/// What every load thread of one run shares.
struct Shared<'a> {
    store: &'a dyn Store,
    spec: &'a LibSpec,
    start: Instant,
    secs: f64,
    /// Span names of the store's layer, per class.
    names: [&'static str; 4],
}

fn one_thread(sh: &Shared<'_>, th: &mut LibThread<'_>, mut tr: Option<&mut Tracer>) -> LibOut {
    let Shared { store, spec, start, secs, names } = *sh;
    let mut out = LibOut::new(secs);
    let deadline = start + Duration::from_secs_f64(secs);
    let mut buf: Vec<(u64, u64)> = Vec::with_capacity(SCAN_LEN);
    let mut next_audit = Instant::now() + AUDIT_EVERY;
    let mut seq = th.t << 56;
    loop {
        let begin = Instant::now();
        if begin >= deadline {
            break;
        }
        if spec.accounts && begin >= next_audit {
            out.audits += 1;
            if let Err(e) = audit(store, spec, th, &mut buf) {
                out.wrong(e);
            }
            next_audit = Instant::now() + AUDIT_EVERY;
        }
        seq += 1;
        let op = th.next_op();
        let class = op.class();
        if let Op::Batch(ops) = &op {
            let first = store.shard_of(*ops[0].key());
            if first.is_some() {
                out.batches += 1;
                if ops.iter().any(|o| store.shard_of(*o.key()) != first) {
                    out.cross_shard_batches += 1;
                }
            }
        }
        let t0 = Instant::now();
        let (ok, pending) = match op {
            Op::Get(k) => (true, Pending::Get(k, store.get(k))),
            Op::Put(k, v) => (store.put(k, v), Pending::None),
            Op::Remove(k, had) => match store.remove(k) {
                Some(got) => (true, Pending::Remove(k, had, got)),
                None => (false, Pending::None),
            },
            Op::Batch(ops) => (store.batch(ops), Pending::None),
            Op::Scan(lo, n) => {
                store.scan(lo, n, &mut buf);
                (true, Pending::Scan(lo, n))
            }
        };
        let t1 = Instant::now();
        out.windows.record(class, (t1 - start).as_nanos() as u64, (t1 - t0).as_nanos() as u64);
        out.attempted += 1;
        out.ops += 1;
        if class == WRITE || class == BATCH {
            out.writes += 1;
        }
        if !ok {
            out.failed += 1;
        }
        let verdict = match pending {
            Pending::Get(k, got) => check::get(k, th.value(k), got),
            Pending::Remove(k, had, got) => check::remove(k, had, got),
            Pending::Scan(lo, n) => check::scan(lo, n, &buf, th),
            Pending::None => Ok(()),
        };
        if let Some(tr) = tr.as_deref_mut() {
            let end = tr.at(Instant::now());
            tr.record(("op", tr.at(begin), end), &[(names[class], tr.at(t0), tr.at(t1))], seq);
        }
        if let Err(e) = verdict {
            out.wrong(e);
        }
    }
    out
}

/// A check that runs once the timed call has returned.
enum Pending {
    None,
    Get(u64, Option<u64>),
    /// Key, whether the model held it, whether the store said it did.
    Remove(u64, bool, bool),
    Scan(u64, usize),
}

/// Read every key in one scan: the accounts must hold the conserved
/// total, and this thread's keys must match its model.
fn audit(
    store: &dyn Store,
    spec: &LibSpec,
    th: &LibThread<'_>,
    buf: &mut Vec<(u64, u64)>,
) -> check::Verdict {
    store.scan(0, usize::MAX, buf);
    check::scan(0, usize::MAX, buf, th)?;
    let accounts: Vec<(u64, u64)> = buf.iter().copied().filter(|e| spec.is_account(e.0)).collect();
    check::conserved(&accounts, spec.conserved_total())
}

/// The store's final contents equal the threads' models together.
pub fn check_final(store: &dyn Store, spec: &LibSpec, threads: &[LibThread<'_>]) -> check::Verdict {
    let all = crate::store::contents(store);
    check::whole_state(&all, spec.key_end, &|k| threads[spec.owner(k) as usize].value(k))
}
