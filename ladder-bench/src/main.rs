//! ladder-bench: one benchmark for the whole Jiffy stack.
//!
//! ```text
//! ladder-bench --workload <lib-read|lib-write|kv-mem|kv-fsync>
//!              --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` it measures the end-to-end metrics of one workload;
//! with `--trace 1` it replays the workload through each rung of the
//! ladder with spans around every call and prints the per-layer
//! metrics. Either way every answer is checked against the workload's
//! own model, and the last line of standard output is one JSON object
//! with `correct`, `attempted`, `failed` and `metrics`. A readable
//! summary, with the sample count behind every percentile, goes to
//! standard error. See the README for the workloads and metrics.

mod check;
mod echo;
mod hist;
mod kv;
mod lib_wl;
mod rng;
mod store;
mod trace;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use index_api::OrderedIndex;
use jiffy_clock::{DefaultClock, VersionClock};
use jiffy_dur::Durability;
use jiffy_obs::ObsSnapshot;

use hist::{median, Hist, Windows};
use kv::KvSpec;
use lib_wl::{LibSpec, LibThread, CLASSES, THREADS};
use store::Store;
use trace::{mean_self, Tracer};

/// A run sets its store up at least `MIN_SETUPS` times, and again
/// until the set-ups took `SETUP_BUDGET_S`; `setup_s` is their median.
const MIN_SETUPS: usize = 3;
const SETUP_BUDGET_S: f64 = 1.0;

/// Set up with `make` as often as the rule above asks, disposing of all
/// but the last. Returns the last and the median set-up time.
fn set_up<T>(
    mut make: impl FnMut(usize) -> Result<T, String>,
    mut dispose: impl FnMut(T),
) -> Result<(T, f64), String> {
    let mut times: Vec<f64> = Vec::new();
    let mut last = None;
    while times.len() < MIN_SETUPS || times.iter().sum::<f64>() < SETUP_BUDGET_S {
        if let Some(t) = last.take() {
            dispose(t);
        }
        let t0 = Instant::now();
        last = Some(make(times.len())?);
        times.push(t0.elapsed().as_secs_f64());
    }
    Ok((last.expect("set up at least once"), median(&mut times)))
}

/// Where traces and durability roots go, relative to the working
/// directory.
const OUT_DIR: &str = ".bench_out";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(val),
            "--seed" => seed = Some(val.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = val.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
                if !(1.0..=600.0).contains(&s) {
                    return Err("--seconds must lie in [1, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// What one run prints.
#[derive(Default)]
struct Report {
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
    metrics: Vec<(String, f64, &'static str)>,
    /// Readable lines for standard error.
    notes: Vec<String>,
}

impl Report {
    fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let value = if value.is_finite() { value } else { 0.0 };
        self.metrics.push((name.into(), value, unit));
    }

    /// Record a failed check, and say so at once: a run that stops on
    /// an error later still shows why its checks failed.
    fn error(&mut self, e: String) {
        eprintln!("CHECK FAILED: {e}");
        self.errors.push(e);
    }

    fn verdict(&mut self, what: &str, v: check::Verdict) {
        if let Err(e) = v {
            self.error(format!("{what}: {e}"));
        }
    }

    /// p50 and p99 of each class in µs: medians over the run's windows
    /// of each window's percentile, with the samples behind them.
    fn latencies(&mut self, w: &Windows, scope: &str) -> Result<(), String> {
        for (c, class) in CLASSES.iter().enumerate() {
            let n = w.total(c).count();
            let (p50, _) = w.quantile(c, 0.5).ok_or_else(|| format!("no {class} samples"))?;
            let (p99, wins) = w.quantile(c, 0.99).ok_or_else(|| {
                format!("{class}: {n} samples leave no window with 10 beyond p99")
            })?;
            self.notes.push(format!(
                "{class:>6} {scope}: n={n} p50={:.2}us p99={:.2}us (median of {wins} windows with >= {} samples beyond p99)",
                p50 / 1e3,
                p99 / 1e3,
                hist::MIN_TAIL
            ));
            self.metric(format!("{class}_p50_us"), p50 / 1e3, "us");
            self.metric(format!("{class}_p99_us"), p99 / 1e3, "us");
        }
        Ok(())
    }

    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(n, v, u)| format!("\"{n}\": {{\"value\": {v}, \"unit\": \"{u}\"}}"))
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.errors.is_empty(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn threads<'s>(spec: &'s LibSpec, seed: u64, entries: &[(u64, u64)]) -> Vec<LibThread<'s>> {
    (0..THREADS as u64).map(|t| LibThread::new(spec, seed, t, entries)).collect()
}

/// Skip-list nodes of all the store's shards (each node holds one
/// revision list; node splits and merges change the count).
fn nodes(store: &dyn Store) -> u64 {
    store.elastic().and_then(OrderedIndex::revision_stats).map_or(0, |s| s.nodes)
}

fn lib_e2e(spec: &LibSpec, a: &Args) -> Result<Report, String> {
    let mut r = Report::default();
    let entries = spec.initial_entries(a.seed);
    let (store, setup_s) =
        set_up(|_| loaded(store::elastic(spec.key_end, spec.config()), &entries), drop)?;
    let store: &dyn Store = &store;
    let mut ths = threads(spec, a.seed, &entries);

    let nodes_before = nodes(store);
    let out = lib_wl::run(store, spec, &mut ths, a.seconds, None);
    r.attempted = out.attempted;
    r.failed = out.failed;
    out.errors.iter().for_each(|e| r.error(e.clone()));
    r.verdict("final state", lib_wl::check_final(store, spec, &ths));
    r.notes.push(format!(
        "{}: {} ops in {:.2}s, {} audits, {} answers failed a check",
        spec.name, out.ops, out.secs, out.audits, out.wrong
    ));
    r.notes.push(format!(
        "skip-list nodes: {nodes_before} after the load, {} after the run",
        nodes(store)
    ));
    r.metric("setup_s", setup_s, "s");
    r.metric("ops_per_s", out.ops_per_s(), "ops/s");
    r.latencies(&out.windows, "all")?;
    r.metric("peak_rss_mib", peak_rss_mib(), "MiB");
    Ok(r)
}

fn io_err(what: &str) -> impl Fn(std::io::Error) -> String + '_ {
    move |e| format!("{what}: {e}")
}

fn kv_e2e(spec: &KvSpec, a: &Args) -> Result<Report, String> {
    let mut r = Report::default();
    let entries = spec.initial_entries(a.seed);
    let ((h, dir), setup_s) = set_up(
        |i| {
            let dir = durable_dir(spec, Path::new(OUT_DIR), i)?;
            let h = kv::start(spec, &entries, dir.as_deref()).map_err(io_err("start server"))?;
            Ok((h, dir))
        },
        |(h, dir)| {
            h.shutdown();
            remove_dir(dir);
        },
    )?;
    let epoch = Instant::now();
    let (out, models) = kv::drive(spec, &h, a.seed, kv::models(&entries), a.seconds, None, epoch)
        .map_err(io_err("driver"))?;
    r.attempted = out.attempted;
    r.failed = out.failed;
    out.errors.iter().for_each(|e| r.error(e.clone()));
    finish_kv(spec, &mut r, h, dir, &models)?;
    r.notes.push(format!("{}: {} answers failed a check", spec.name, out.wrong));
    phase_notes(&mut r, &out);
    r.metric("setup_s", setup_s, "s");
    r.metric("ops_per_s", out.ops_per_s(), "ops/s");
    r.latencies(&out.reference().windows, "reference phase")?;
    r.metric("peak_rss_mib", peak_rss_mib(), "MiB");
    Ok(r)
}

fn phase_notes(r: &mut Report, out: &kv::KvOut) {
    for (name, p) in ["reference", "saturation"].iter().zip(&out.phases) {
        let mut all = Hist::new();
        (0..CLASSES.len()).for_each(|c| all.merge(&p.windows.total(c)));
        r.notes.push(format!(
            "{name} phase: answered {:.0}/s (window median), n={} p50={:.0}us p90={:.0}us p99={:.0}us",
            p.windows.rate(),
            all.count(),
            all.quantile(0.5).unwrap_or(f64::NAN) / 1e3,
            all.quantile(0.9).unwrap_or(f64::NAN) / 1e3,
            all.quantile(0.99).unwrap_or(f64::NAN) / 1e3,
        ));
    }
    let mut ck = out.checkpoint_s.clone();
    if !ck.is_empty() {
        r.notes.push(format!("{} checkpoints, median {:.3}s", ck.len(), median(&mut ck)));
    }
}

fn durable_dir(spec: &KvSpec, base: &Path, i: usize) -> Result<Option<PathBuf>, String> {
    if spec.durability == Durability::None {
        return Ok(None);
    }
    kv::fresh_dir(base, &format!("{}-{i}", spec.name)).map(Some).map_err(io_err("data dir"))
}

fn remove_dir(dir: Option<PathBuf>) {
    if let Some(d) = dir {
        let _ = std::fs::remove_dir_all(d);
    }
}

/// Read every key back (after a restart on the same directory when the
/// server is durable) and stop the server. Returns the restart's
/// seconds (0 without a restart).
fn finish_kv(
    spec: &KvSpec,
    r: &mut Report,
    h: jiffy_server::ServerHandle,
    dir: Option<PathBuf>,
    models: &[Vec<u64>],
) -> Result<f64, String> {
    let (h, restart) = match &dir {
        Some(d) => kv::restart(spec, h, d).map_err(io_err("restart"))?,
        None => (h, 0.0),
    };
    r.verdict("read-back", kv::read_back(h.addr(), models));
    h.shutdown();
    remove_dir(dir);
    Ok(restart)
}

/// Bytes of write-ahead log under a durability root.
fn wal_bytes(dir: &Path) -> u64 {
    fn walk(p: &Path) -> u64 {
        std::fs::read_dir(p).map_or(0, |rd| {
            rd.flatten()
                .map(|e| match e.metadata() {
                    Ok(m) if m.is_dir() => walk(&e.path()),
                    Ok(m) => m.len(),
                    Err(_) => 0,
                })
                .sum()
        })
    }
    walk(&dir.join("wal"))
}

/// `(syncs, p50 ns)` of a durable store's WAL fsyncs so far.
fn syncs(d: &store::Durable) -> (u64, u64) {
    let mut snap = ObsSnapshot::default();
    d.attach_obs(&mut snap);
    snap.histograms
        .iter()
        .find(|(n, _)| n == "dur.sync_nanos")
        .map_or((0, 0), |(_, h)| (h.count, h.p50))
}

/// Load the workload's starting keys into a fresh store.
fn loaded<S: Store>(s: S, entries: &[(u64, u64)]) -> Result<S, String> {
    if store::load(&s, entries) {
        Ok(s)
    } else {
        Err(format!("{}: initial load failed", s.layer()))
    }
}

/// The traced replay of one workload's op stream through the rungs.
struct Replay<'a> {
    spec: &'a LibSpec,
    seed: u64,
    entries: Vec<(u64, u64)>,
    /// Seconds each rung runs.
    slice: f64,
    epoch: Instant,
}

impl Replay<'_> {
    /// One rung: both threads on `store`, which holds the workload's
    /// starting keys, for a slice; then the final-state check.
    fn rung(
        &self,
        store: &dyn Store,
        traced: bool,
        r: &mut Report,
        tracers: &mut Vec<Tracer>,
    ) -> lib_wl::LibOut {
        let spec = self.spec;
        let mut ths = threads(spec, self.seed, &self.entries);
        let mut trs: Vec<Tracer> = (0..THREADS)
            .map(|t| Tracer::new(format!("{}.t{t}", store.layer()), self.epoch))
            .collect();
        let out = lib_wl::run(store, spec, &mut ths, self.slice, traced.then_some(&mut trs[..]));
        r.attempted += out.attempted;
        r.failed += out.failed;
        out.errors.iter().for_each(|e| r.error(format!("{}: {e}", store.layer())));
        r.verdict(
            &format!("{} final state", store.layer()),
            lib_wl::check_final(store, spec, &ths),
        );
        r.notes.push(format!(
            "rung {:<20} {:>10.0} ops/s{}",
            store.layer(),
            out.ops_per_s(),
            if traced { " (traced)" } else { "" }
        ));
        if traced {
            tracers.extend(trs);
        }
        out
    }
}

/// Mean self time of each op class on `layer`; single-key writes are
/// reported as `put`.
fn layer_times(r: &mut Report, tracers: &[Tracer], layer: &str) {
    for (class, op) in [("get", "get"), ("scan", "scan"), ("write", "put"), ("batch", "batch")] {
        r.metric(format!("{layer}.{op}_ns"), mean_self(tracers, &format!("{layer}.{class}")), "ns");
    }
}

/// The per-layer ladder: replay `spec`'s op stream through every rung.
fn ladder(
    spec: &LibSpec,
    seed: u64,
    secs: f64,
    r: &mut Report,
    tracers: &mut Vec<Tracer>,
    epoch: Instant,
) -> Result<f64, String> {
    let rp = Replay { spec, seed, entries: spec.initial_entries(seed), slice: secs / 6.0, epoch };
    let entries = &rp.entries;

    let j = loaded(store::jiffy(spec.config()), entries)?;
    rp.rung(&j, true, r, tracers);
    let rev = OrderedIndex::revision_stats(&j).map_or(0.0, |s| s.mean_revision_size());
    drop(j);

    let s = loaded(store::sharded(spec.key_end, spec.config()), entries)?;
    let so = rp.rung(&s, true, r, tracers);
    drop(s);

    let e = loaded(store::elastic(spec.key_end, spec.config()), entries)?;
    let untraced = rp.rung(&e, false, r, tracers).ops_per_s();
    drop(e);
    let e = loaded(store::elastic(spec.key_end, spec.config()), entries)?;
    let eo = rp.rung(&e, true, r, tracers);

    // One split of the middle of shard 0 and the merge that undoes it,
    // on the state the replay left; the contents must not change.
    let before = store::contents(&e);
    let t0 = Instant::now();
    e.split_at(spec.key_end / 8).map_err(|e| format!("split: {e}"))?;
    let split_ms = t0.elapsed().as_secs_f64() * 1e3;
    let t0 = Instant::now();
    e.merge_at(0).map_err(|e| format!("merge: {e}"))?;
    let merge_ms = t0.elapsed().as_secs_f64() * 1e3;
    r.attempted += 2;
    if store::contents(&e) != before {
        r.error("split and merge of shard 0 changed the contents".into());
    }
    drop(e);

    let dir = kv::fresh_dir(Path::new(OUT_DIR), &format!("{}-rung", spec.name))
        .map_err(io_err("rung dir"))?;
    let d = loaded(store::durable(spec.key_end, spec.config(), &dir).0, entries)?;
    d.sync().map_err(io_err("sync"))?;
    let (syncs0, _) = syncs(&d);
    let bytes0 = wal_bytes(&dir);
    let dout = rp.rung(&d, true, r, tracers);
    d.sync().map_err(io_err("sync"))?;
    let (syncs1, sync_p50) = syncs(&d);
    let writes = dout.writes;
    let wal = wal_bytes(&dir).saturating_sub(bytes0);
    drop(d);
    let t0 = Instant::now();
    let (d, rep) = store::durable(spec.key_end, spec.config(), &dir);
    let recovery_s = t0.elapsed().as_secs_f64();
    let t0 = Instant::now();
    d.checkpoint().map_err(io_err("checkpoint"))?;
    let checkpoint_s = t0.elapsed().as_secs_f64();
    drop(d);
    remove_dir(Some(dir));

    // The version clock every shard of a sharded rung shares.
    let clock = DefaultClock::default();
    let calls = 1_000_000u64;
    let t0 = Instant::now();
    let mut x = 0u64;
    for _ in 0..calls {
        x ^= std::hint::black_box(clock.now());
    }
    std::hint::black_box(x);
    let now_ns = t0.elapsed().as_nanos() as f64 / calls as f64;

    layer_times(r, tracers, "jiffy");
    r.metric("jiffy.revision_mean_size", rev, "entries");
    r.metric("jiffy-clock.now_ns", now_ns, "ns");
    layer_times(r, tracers, "jiffy-shard");
    r.metric("jiffy-shard.cross_shard_batches", so.cross_shard_batches as f64, "count");
    r.metric("jiffy-shard.batches", so.batches as f64, "count");
    layer_times(r, tracers, "jiffy-shard.elastic");
    r.metric("jiffy-shard.elastic.split_ms", split_ms, "ms");
    r.metric("jiffy-shard.elastic.merge_ms", merge_ms, "ms");
    r.metric("jiffy-dur.put_ns", mean_self(tracers, "jiffy-dur.write"), "ns");
    r.metric("jiffy-dur.batch_ns", mean_self(tracers, "jiffy-dur.batch"), "ns");
    let syncs = syncs1 - syncs0;
    r.metric("jiffy-dur.syncs", syncs as f64, "count");
    r.metric("jiffy-dur.writes_per_sync", writes as f64 / syncs.max(1) as f64, "writes");
    r.metric("jiffy-dur.sync_p50_us", sync_p50 as f64 / 1e3, "us");
    r.metric("jiffy-dur.checkpoint_s", checkpoint_s, "s");
    r.metric("jiffy-dur.wal_bytes_per_write", wal as f64 / writes.max(1) as f64, "B");
    r.metric("jiffy-dur.replayed", rep.replayed as f64, "count");
    r.metric("jiffy-dur.recovery_s", recovery_s, "s");
    Ok(eo.ops_per_s() / untraced)
}

fn write_trace(name: &str, tracers: &[Tracer], r: &mut Report) {
    let path = Path::new(OUT_DIR).join(format!("trace-{name}.json"));
    match trace::write_json(&path, name, tracers) {
        Ok(()) => r.notes.push(format!("spans written to {}", path.display())),
        Err(e) => r.notes.push(format!("spans not written: {e}")),
    }
}

/// Gets timed on the served map before it is driven, for the map's share
/// of a served get.
const MAP_GETS: u64 = 200_000;

/// The traced run: `lib`'s op stream through every in-process rung,
/// then `kv`'s traffic through a live server with spans around the
/// driver's calls, then the echo floor.
fn traced(lib: &LibSpec, kv: &KvSpec, a: &Args) -> Result<Report, String> {
    let mut r = Report::default();
    let epoch = Instant::now();
    let mut tracers = Vec::new();
    let overhead = ladder(lib, a.seed, a.seconds * 0.6, &mut r, &mut tracers, epoch)?;

    let entries = kv.initial_entries(a.seed);
    let dir = durable_dir(kv, Path::new(OUT_DIR), 0)?;
    let h = kv::start(kv, &entries, dir.as_deref()).map_err(io_err("start server"))?;
    let map_get = kv::map_get_ns(&h, a.seed, MAP_GETS);
    let mut tr = Tracer::new("kv-driver", epoch);
    let (out, models) =
        kv::drive(kv, &h, a.seed, kv::models(&entries), a.seconds * 0.3, Some(&mut tr), epoch)
            .map_err(io_err("driver"))?;
    tracers.push(tr);
    r.attempted += out.attempted;
    r.failed += out.failed;
    out.errors.iter().for_each(|e| r.error(e.clone()));
    phase_notes(&mut r, &out);
    let recovery_s = finish_kv(kv, &mut r, h, dir, &models)?;
    let echo = echo::floor(kv.reference_rate, 1.0).map_err(io_err("echo"))?;

    let st = out.stats;
    r.metric("jiffy-server.installed_batches", st.installed_batches as f64, "count");
    r.metric("jiffy-server.puts_per_batch", st.ops_per_batch(), "puts");
    r.metric("jiffy-server.direct_ops", st.direct_ops as f64, "count");
    r.metric("jiffy-server.txns", st.txns as f64, "count");
    r.metric("jiffy-server.recovery_s", recovery_s, "s");
    let enc = mean_self(&tracers, "jiffy-server.protocol.encode");
    let dec = mean_self(&tracers, "jiffy-server.protocol.decode");
    r.metric("jiffy-server.protocol.encode_ns", enc, "ns");
    r.metric("jiffy-server.protocol.decode_ns", dec, "ns");
    let get_p50 = out.reference().windows.quantile(lib_wl::GET, 0.5).map_or(0.0, |q| q.0);
    let floor = echo.quantile(0.5).unwrap_or(0.0);
    r.metric("jiffy-server.plumbing_p50_us", (get_p50 - floor - map_get - enc - dec) / 1e3, "us");
    let p99 = echo.quantile(0.99).unwrap_or(0.0);
    r.notes.push(format!(
        "echo floor: n={} p50={:.2}us p99={:.2}us",
        echo.count(),
        floor / 1e3,
        p99 / 1e3
    ));
    r.metric("wire.echo_p50_us", floor / 1e3, "us");
    r.metric("wire.echo_p99_us", p99 / 1e3, "us");
    r.metric("driver.gen_lag_p99_us", out.gen_lag.quantile(0.99).unwrap_or(0.0) / 1e3, "us");
    r.metric("driver.backlog_max", out.backlog_max as f64, "count");
    r.metric("trace.overhead", overhead, "ratio");
    write_trace(lib.name, &tracers, &mut r);
    Ok(r)
}

fn run(a: &Args) -> Result<Report, String> {
    use kv::{kv_fsync, kv_mem};
    use lib_wl::{lib_read, lib_write};
    match (a.workload.as_str(), a.trace) {
        ("lib-read", false) => lib_e2e(&lib_read(), a),
        ("lib-read", true) => traced(&lib_read(), &kv_mem(), a),
        ("lib-write", false) => lib_e2e(&lib_write(), a),
        ("lib-write", true) => traced(&lib_write(), &kv_fsync(), a),
        // Served end to end only: the README says why these two are not
        // gated workloads. Their traffic is traced in the lib-* traced
        // runs.
        ("kv-mem", false) => kv_e2e(&kv_mem(), a),
        ("kv-fsync", false) => kv_e2e(&kv_fsync(), a),
        ("kv-mem" | "kv-fsync", true) => Err("kv-mem and kv-fsync have no traced run".into()),
        (other, _) => {
            Err(format!("unknown workload {other:?} (lib-read, lib-write, kv-mem, kv-fsync)"))
        }
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("ladder-bench: {e}");
            eprintln!("usage: ladder-bench --workload <lib-read|lib-write|kv-mem|kv-fsync> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    let t0 = Instant::now();
    match run(&args) {
        Ok(r) => {
            for n in &r.notes {
                eprintln!("{n}");
            }
            for (n, v, u) in &r.metrics {
                eprintln!("{n:>40} = {v:.4} {u}");
            }
            eprintln!("{}: {:.1}s wall", args.workload, t0.elapsed().as_secs_f64());
            println!("{}", r.json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("ladder-bench: {}: {e}", args.workload);
            ExitCode::from(1)
        }
    }
}
