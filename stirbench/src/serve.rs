//! The serving workloads: stird as a child process running the VPC
//! program on medium facts, driven by two closed-loop clients (one
//! thread and one connection each; every stird connection is
//! request→reply, so a client sends its next request only after the
//! reply). Queries are point lookups on `conn`/`exposed`/`violation`.
//! Writes toggle facts of per-client pools of `acl_allow`, `listens` and
//! `trusted` (insert when absent, retract when present); the pools are
//! disjoint from the inputs, and `trusted` exercises the negation
//! full-stratum fallback. `route` writes are left out: retracting a route
//! falls back to a full recompute, hundreds of times a typical write,
//! which would turn a serving workload into a second `batch`.
//!
//! * `serve_read` — the default deployment: memory storage, `batch`
//!   durability (WAL appends without fsync) and periodic snapshots, 80%
//!   queries. Engine work per request is µs-scale, so the network,
//!   serving and lock layers dominate.
//! * `serve_durable` — what `serve_read` bypasses: a cold start over a v2
//!   snapshot plus a long WAL suffix (replay dominates `setup_s`), disk
//!   storage with a page cache of an eighth of the snapshot, `always`
//!   durability (fsync barrier, group commit), 80% writes.
//!
//! The oracle: after an untimed drain returns every pool fact to absent,
//! the served output relations must equal a from-scratch `Engine::run`
//! over the inputs (plus, for `serve_durable`, the facts the preparation
//! left present), and every write reply must match the client's toggle
//! state.

use crate::batch::{mix, peak_rss_mb, perturb};
use crate::net::{client_self_test, Client, Stird};
use crate::oracle::{compare, rows_of, write_facts, Rows};
use crate::stats::{median, percentile};
use crate::trace::{self, Tracer};
use crate::{json_list, json_str, speed, work_dir, Args, Outcome};
use std::collections::{BTreeMap, HashSet};
use std::path::{Path, PathBuf};
use std::sync::{Arc, PoisonError, RwLock};
use std::time::{Duration, Instant};
use stir::core::{Durability, PersistOptions};
use stir::serve::{handle_request, RequestCtx, SessionConfig, WriteAdmission};
use stir::workloads::rng::SmallRng;
use stir::workloads::spec::{instances as registry, Scale, Suite};
use stir::workloads::vpc;
use stir::{Engine, InputData, InterpreterConfig, Json, ResidentEngine, StorageBackend, Value};

/// Client threads and connections (the host has two cores).
const CLIENTS: usize = 2;
/// Pool facts per client and relation.
const POOL_PER_REL: usize = 20;
/// The client's own loopback round trip must stay below this (µs).
const CLIENT_RTT_LIMIT_US: f64 = 100.0;
/// The relations writes toggle.
const WRITE_RELS: [&str; 3] = ["acl_allow", "listens", "trusted"];
/// The relations queries look up.
const QUERY_RELS: [(&str, usize); 3] = [("conn", 3), ("exposed", 2), ("violation", 3)];
/// The VPC program's output relations and arities.
const OUTPUT_RELS: [(&str, usize); 5] = [
    ("conn", 3),
    ("exposed", 2),
    ("violation", 3),
    ("cross_vpc_conn", 3),
    ("exposure_count", 1),
];

/// A serving workload.
#[derive(Debug)]
pub struct Spec {
    pub name: &'static str,
    pub storage: StorageBackend,
    pub durability: Durability,
    pub snapshot_interval: Option<u64>,
    /// Share of requests that are writes.
    pub write_share: f64,
    /// Facts the preparation inserts (half are retracted again); 0 means
    /// no preparation and a cold evaluation from the facts.
    pub prep_facts: usize,
    /// stird spawns per run; `setup_s` is their median. A short start-up
    /// is noisier, so it gets more spawns.
    pub setup_spawns: usize,
}

/// Read-mostly traffic on the default deployment.
pub const READ: Spec = Spec {
    name: "serve_read",
    storage: StorageBackend::Mem,
    durability: Durability::Batch,
    snapshot_interval: Some(25),
    write_share: 0.2,
    prep_facts: 0,
    setup_spawns: 9,
};

/// Write-heavy traffic over a cold-started, fsynced, disk-backed store.
pub const DURABLE: Spec = Spec {
    name: "serve_durable",
    storage: StorageBackend::Disk,
    durability: Durability::Always,
    snapshot_interval: None,
    write_share: 0.8,
    prep_facts: 1000,
    setup_spawns: 5,
};

impl Spec {
    fn flags(&self, data_dir: &Path) -> Vec<String> {
        let mut f = vec![
            "--storage".to_owned(),
            match self.storage {
                StorageBackend::Mem => "mem",
                StorageBackend::Disk => "disk",
            }
            .to_owned(),
            "--durability".to_owned(),
            match self.durability {
                Durability::None => "none",
                Durability::Batch => "batch",
                Durability::Always => "always",
            }
            .to_owned(),
            "-D".to_owned(),
            data_dir.display().to_string(),
        ];
        if let Some(n) = self.snapshot_interval {
            f.extend(["--snapshot-interval".to_owned(), n.to_string()]);
        }
        f
    }

    fn config(&self) -> InterpreterConfig {
        InterpreterConfig::optimized()
            .with_jobs(1)
            .with_storage(self.storage)
    }
}

/// An input fact of the VPC program (all columns are numbers).
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Fact {
    pub rel: &'static str,
    pub args: Vec<i32>,
}

impl Fact {
    fn line(&self, sign: char) -> String {
        let args: Vec<String> = self.args.iter().map(i32::to_string).collect();
        format!("{sign}{}({}).", self.rel, args.join(", "))
    }

    fn row(&self) -> Vec<Value> {
        self.args.iter().map(|&a| Value::Number(a)).collect()
    }
}

/// The served instance and the write pools, all from the seed.
pub struct Data {
    pub inputs: InputData,
    pub instances: i32,
    /// One disjoint pool per client.
    pub pools: Vec<Vec<Fact>>,
    /// Facts the durable preparation toggles (disjoint from the pools).
    pub prep: Vec<Fact>,
}

/// The served VPC instance (the suite's first registry instance with the
/// seed's rows dropped, as in `batch`) and the write pools.
pub fn data(seed: u64, scale: Scale, prep_facts: usize) -> Data {
    let mut w = registry(Suite::Vpc, scale).swap_remove(0);
    perturb(&mut w.inputs, mix(seed, 1));
    let count = |rel: &str| w.inputs.get(rel).map_or(0, Vec::len) as i32;
    let (subnets, instances) = (count("subnet"), count("instance"));
    let mut taken: HashSet<Fact> = HashSet::new();
    for rel in WRITE_RELS {
        for row in w.inputs.get(rel).into_iter().flatten() {
            let args = row
                .iter()
                .map(|v| match v {
                    Value::Number(n) => *n,
                    other => panic!("VPC inputs are numbers, got {other:?}"),
                })
                .collect();
            taken.insert(Fact { rel, args });
        }
    }
    let ports = [22, 80, 443, 5432, 6379, 8080];
    let mut rng = SmallRng::seed_from_u64(mix(seed, 2));
    let mut fresh = |rel: &'static str| -> Fact {
        for _ in 0..100_000 {
            let args = match rel {
                "acl_allow" => vec![
                    rng.gen_range(0..subnets),
                    rng.gen_range(0..subnets),
                    ports[rng.gen_range(0..ports.len())],
                ],
                "listens" => vec![
                    rng.gen_range(0..instances),
                    ports[rng.gen_range(0..ports.len())],
                ],
                _ => vec![rng.gen_range(0..instances)],
            };
            let f = Fact { rel, args };
            if taken.insert(f.clone()) {
                return f;
            }
        }
        panic!("no fresh `{rel}` fact left to draw")
    };
    let pools = (0..CLIENTS)
        .map(|_| {
            WRITE_RELS
                .iter()
                .flat_map(|&rel| (0..POOL_PER_REL).map(|_| fresh(rel)).collect::<Vec<_>>())
                .collect()
        })
        .collect();
    // Untrusted instances are few; the preparation leaves them to the
    // client pools.
    let prep = (0..prep_facts).map(|i| fresh(WRITE_RELS[i % 2])).collect();
    Data {
        inputs: w.inputs,
        instances,
        pools,
        prep,
    }
}

/// The facts the preparation leaves present: every other prep fact.
fn prep_survivors(prep: &[Fact]) -> Vec<Fact> {
    prep.iter().skip(1).step_by(2).cloned().collect()
}

/// Builds the durable data directory through public `ResidentEngine`
/// calls: evaluate, write a `.compact` v2 snapshot, then leave a WAL
/// suffix (insert every prep fact, retract every other one) that the
/// next open must replay. Returns the snapshot's size in bytes.
fn prepare(dir: &Path, d: &Data, spec: &Spec) -> Result<u64, String> {
    let engine = Engine::from_source(vpc::PROGRAM).map_err(|e| e.to_string())?;
    let opts = PersistOptions {
        durability: Durability::Batch,
        snapshot_interval: None,
    };
    let (mut r, _) = ResidentEngine::open(engine, spec.config(), &d.inputs, dir, opts, None)
        .map_err(|e| e.to_string())?;
    r.compact(None).map_err(|e| e.to_string())?;
    for f in &d.prep {
        r.insert_facts(f.rel, &[f.row()], None)
            .map_err(|e| e.to_string())?;
    }
    for f in d.prep.iter().step_by(2) {
        r.retract_facts(f.rel, &[f.row()], None)
            .map_err(|e| e.to_string())?;
    }
    r.flush_wal().map_err(|e| e.to_string())?;
    drop(r);
    std::fs::metadata(dir.join(stir::core::resident::SNAPSHOT_FILE))
        .map(|m| m.len())
        .map_err(|e| format!("prepared snapshot: {e}"))
}

fn copy_dir(from: &Path, to: &Path) -> Result<(), String> {
    std::fs::create_dir_all(to).map_err(|e| e.to_string())?;
    let Ok(entries) = std::fs::read_dir(from) else {
        return Ok(());
    };
    for e in entries {
        let e = e.map_err(|e| e.to_string())?;
        if e.file_type().map_err(|e| e.to_string())?.is_file() {
            std::fs::copy(e.path(), to.join(e.file_name())).map_err(|e| e.to_string())?;
        }
    }
    Ok(())
}

/// Removes a directory tree when dropped.
struct TempDir(PathBuf);

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Request kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Query,
    Write,
}

/// One request chosen by a client.
enum Op {
    Query(String),
    /// Pool index; the client's toggle state decides insert or retract.
    Write(usize),
}

/// A client's request stream and toggle state.
struct Traffic {
    rng: SmallRng,
    pool: Vec<Fact>,
    present: Vec<bool>,
    write_share: f64,
    instances: i32,
}

impl Traffic {
    fn new(seed: u64, client: usize, phase: u64, pool: Vec<Fact>, spec: &Spec, d: &Data) -> Self {
        Traffic {
            rng: SmallRng::seed_from_u64(mix(seed, 1000 + 10 * phase + client as u64)),
            present: vec![false; pool.len()],
            pool,
            write_share: spec.write_share,
            instances: d.instances,
        }
    }

    fn next(&mut self) -> Op {
        if self.rng.gen_bool(self.write_share) {
            return Op::Write(self.rng.gen_range(0..self.pool.len()));
        }
        let (rel, arity) = QUERY_RELS[self.rng.gen_range(0..QUERY_RELS.len())];
        let mut terms = vec![self.rng.gen_range(0..self.instances).to_string()];
        terms.resize(arity, "_".to_owned());
        Op::Query(format!("?{rel}({})", terms.join(", ")))
    }

    /// The protocol line and expected reply of a write, flipping state.
    fn toggle(&mut self, i: usize) -> (String, &'static str, bool) {
        let inserting = !self.present[i];
        self.present[i] = inserting;
        if inserting {
            (self.pool[i].line('+'), "ok 1 inserted", true)
        } else {
            (self.pool[i].line('-'), "ok 1 retracted", false)
        }
    }
}

/// One measured request.
#[derive(Debug, Clone, Copy)]
struct Sample {
    kind: Kind,
    ms: f64,
    ok: bool,
    traced: bool,
}

/// What the clients of one window saw.
#[derive(Default)]
struct Window {
    samples: Vec<Sample>,
    mismatches: Vec<String>,
    elapsed: f64,
}

impl Window {
    fn ms(&self, kind: Option<Kind>, traced: bool) -> Vec<f64> {
        self.samples
            .iter()
            .filter(|s| s.ok && s.traced == traced && kind.is_none_or(|k| s.kind == k))
            .map(|s| s.ms)
            .collect()
    }

    fn failed(&self) -> u64 {
        self.samples.iter().filter(|s| !s.ok).count() as u64
    }
}

/// Closed-loop TCP clients against stird for `seconds`. With a tracer,
/// every other request runs inside a client span, so the traced run can
/// report what tracing itself costs.
fn tcp_window(stird: &Stird, traffic: &mut [Traffic], seconds: f64, tracer: &Tracer) -> Window {
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let started = Instant::now();
    let results: Vec<(Vec<Sample>, Vec<String>)> = std::thread::scope(|s| {
        let handles: Vec<_> = traffic
            .iter_mut()
            .map(|t| {
                s.spawn(move || {
                    let mut samples = Vec::new();
                    let mut bad = Vec::new();
                    let mut client = match Client::connect(stird.addr) {
                        Ok(c) => c,
                        Err(e) => return (samples, vec![format!("connect: {e}")]),
                    };
                    let mut n = 0u64;
                    while Instant::now() < deadline {
                        let traced = tracer.enabled() && n % 2 == 1;
                        n += 1;
                        let (kind, line, expect) = match t.next() {
                            Op::Query(q) => (Kind::Query, q, None),
                            Op::Write(i) => {
                                let (line, expect, _) = t.toggle(i);
                                (Kind::Write, line, Some(expect))
                            }
                        };
                        let t0 = Instant::now();
                        let reply = {
                            let _s = traced.then(|| tracer.span("net.request", None));
                            client.request(&line)
                        };
                        let ms = t0.elapsed().as_secs_f64() * 1e3;
                        let ok = match reply {
                            Ok(r) => {
                                if let Some(e) = expect.filter(|e| r.status != *e) {
                                    bad.push(format!("{line}: expected `{e}`, got `{}`", r.status));
                                }
                                r.ok()
                            }
                            Err(e) => {
                                bad.push(format!("{line}: {e}"));
                                false
                            }
                        };
                        if !ok {
                            bad.push(format!("{line}: request failed"));
                        }
                        samples.push(Sample {
                            kind,
                            ms,
                            ok,
                            traced,
                        });
                    }
                    (samples, bad)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let mut w = Window {
        elapsed: started.elapsed().as_secs_f64(),
        ..Window::default()
    };
    for (samples, bad) in results {
        w.samples.extend(samples);
        w.mismatches.extend(bad);
    }
    w
}

/// Retracts every pool fact a client left present, over TCP.
fn drain_tcp(stird: &Stird, traffic: &mut [Traffic]) -> Result<Vec<String>, String> {
    let mut client = Client::connect(stird.addr).map_err(|e| e.to_string())?;
    let mut bad = Vec::new();
    for t in traffic.iter_mut() {
        for i in 0..t.pool.len() {
            if t.present[i] {
                let (line, expect, _) = t.toggle(i);
                let r = client.request(&line).map_err(|e| e.to_string())?;
                if r.status != expect {
                    bad.push(format!("drain {line}: got `{}`", r.status));
                }
            }
        }
    }
    Ok(bad)
}

fn served_outputs(stird: &Stird) -> Result<Rows, String> {
    let mut client = Client::connect(stird.addr).map_err(|e| e.to_string())?;
    let mut out = Rows::new();
    for (rel, arity) in OUTPUT_RELS {
        let q = format!("?{rel}({})", vec!["_"; arity].join(", "));
        let r = client.request(&q).map_err(|e| e.to_string())?;
        if !r.ok() {
            return Err(format!("{q}: {}", r.status));
        }
        let mut rows: Vec<Vec<String>> = r
            .rows
            .iter()
            .map(|l| l.split('\t').map(str::to_owned).collect())
            .collect();
        rows.sort();
        out.insert(rel.to_owned(), rows);
    }
    Ok(out)
}

/// A from-scratch evaluation over the inputs, the facts the preparation
/// left present, and the pool facts the clients left present.
fn expected(engine: &Engine, d: &Data, traffic: &[Traffic]) -> Result<Rows, String> {
    let mut inputs = d.inputs.clone();
    let present = traffic.iter().flat_map(|t| {
        t.pool
            .iter()
            .zip(&t.present)
            .filter(|(_, &on)| on)
            .map(|(f, _)| f.clone())
    });
    for f in prep_survivors(&d.prep).into_iter().chain(present) {
        inputs.entry(f.rel.to_owned()).or_default().push(f.row());
    }
    let outcome = engine
        .run(InterpreterConfig::optimized().with_jobs(1), &inputs)
        .map_err(|e| e.to_string())?;
    Ok(rows_of(outcome.outputs))
}

/// Every counter of a `.stats json` document, flattened to dotted paths.
pub fn flatten(doc: &Json) -> BTreeMap<String, f64> {
    fn walk(prefix: &str, j: &Json, out: &mut BTreeMap<String, f64>) {
        if let Some(entries) = j.entries() {
            for (k, v) in entries {
                let key = if prefix.is_empty() {
                    k.clone()
                } else {
                    format!("{prefix}.{k}")
                };
                walk(&key, v, out);
            }
        } else if let Some(x) = j.as_f64() {
            out.insert(prefix.to_owned(), x);
        }
    }
    let mut out = BTreeMap::new();
    walk("", doc, &mut out);
    out
}

/// Counter deltas between two `.stats json` replies (absent keys read 0).
pub struct StatsDelta {
    before: BTreeMap<String, f64>,
    after: BTreeMap<String, f64>,
}

impl StatsDelta {
    /// Parses both replies.
    ///
    /// # Errors
    ///
    /// Names the reply that is not JSON.
    pub fn parse(before: &str, after: &str) -> Result<StatsDelta, String> {
        let p = |s: &str| {
            Json::parse(s)
                .map(|j| flatten(&j))
                .map_err(|e| format!("{e}: {s}"))
        };
        Ok(StatsDelta {
            before: p(before)?,
            after: p(after)?,
        })
    }

    /// `after - before` of one counter.
    pub fn delta(&self, key: &str) -> f64 {
        self.end(key) - self.before.get(key).copied().unwrap_or(0.0)
    }

    /// The value at the end of the window.
    pub fn end(&self, key: &str) -> f64 {
        self.after.get(key).copied().unwrap_or(0.0)
    }
}

fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// Runs a serving workload.
///
/// # Errors
///
/// Fails when stird or the engine cannot start or the socket breaks.
pub fn run(args: &Args, spec: &Spec) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let run_dir = TempDir(work_dir().join(format!("{}-{}", spec.name, std::process::id())));
    let _ = std::fs::remove_dir_all(&run_dir.0);
    let d = data(args.seed, Scale::Medium, spec.prep_facts);

    // Program and facts files for stird.
    let facts = run_dir.0.join("facts");
    write_facts(&facts, &d.inputs)?;
    let program = run_dir.0.join("vpc.dl");
    std::fs::write(&program, vpc::PROGRAM).map_err(|e| e.to_string())?;

    // The durable preparation (untimed).
    let prepared = run_dir.0.join("prepared");
    let mut env = Vec::new();
    let mut budget = None;
    if spec.prep_facts > 0 {
        let snapshot_bytes = prepare(&prepared, &d, spec)?;
        let b = (snapshot_bytes / 8).max(4096);
        env.push(("STIR_PAGE_CACHE", b.to_string()));
        budget = Some(b);
        out.context("snapshot_bytes", snapshot_bytes.to_string());
        out.context(
            "wal_suffix_records",
            (d.prep.len() + d.prep.len().div_ceil(2)).to_string(),
        );
    }
    out.context("scale", "\"medium\"");
    out.context(
        "page_cache_budget_bytes",
        budget.map_or("null".to_owned(), |b| b.to_string()),
    );
    out.context("clients", CLIENTS.to_string());
    out.context("write_share", spec.write_share.to_string());

    // Set-up: spawn to listening, several times, each scaled to the
    // reference host speed (start-up is CPU-bound: evaluation or replay);
    // the last one serves. Earlier spawns die by SIGKILL, so no
    // graceful-shutdown snapshot folds the WAL suffix away.
    let (mut startups, mut raw_startups) = (Vec::new(), Vec::new());
    let mut stird = None;
    for i in 0..spec.setup_spawns {
        let dir = run_dir.0.join(format!("data-{i}"));
        copy_dir(&prepared, &dir)?;
        let mut argv = vec![
            program.display().to_string(),
            "-F".to_owned(),
            facts.display().to_string(),
            "--port".to_owned(),
            "0".to_owned(),
        ];
        argv.extend(spec.flags(&dir));
        if i == 0 {
            let shown = argv[5..].join(" ");
            out.context("stird_flags", json_str(&shown));
        }
        let log = run_dir.0.join(format!("stird-{i}.log"));
        let before = speed::probe_ms();
        let s = Stird::spawn(&argv, &dir, &env, &log)?;
        let f = speed::bracketed(before, speed::probe_ms());
        raw_startups.push(s.startup.as_secs_f64());
        startups.push(s.startup.as_secs_f64() * f);
        stird = Some(s);
    }
    let stird = stird.expect("at least one spawn");
    out.context(
        "stird_peak_rss_mb_at_listen",
        format!("{:.3}", peak_rss_mb(&stird.pid().to_string())?),
    );

    let rtt_us = client_self_test(200)?;
    out.context("client_rtt_us", format!("{rtt_us:.1}"));
    if rtt_us > CLIENT_RTT_LIMIT_US {
        return Err(format!(
            "client self-test: loopback round trip {rtt_us:.0} µs exceeds {CLIENT_RTT_LIMIT_US} µs"
        ));
    }

    let mut traffic: Vec<Traffic> = d
        .pools
        .iter()
        .enumerate()
        .map(|(c, pool)| Traffic::new(args.seed, c, 0, pool.clone(), spec, &d))
        .collect();
    let tcp_seconds = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let mut control = Client::connect(stird.addr).map_err(|e| e.to_string())?;
    let before = control.stats_json().map_err(|e| e.to_string())?;
    let tracer = Tracer::new(args.trace);
    let window = tcp_window(&stird, &mut traffic, tcp_seconds, &tracer);
    let after = control.stats_json().map_err(|e| e.to_string())?;
    let stats = StatsDelta::parse(&before, &after)?;
    let peak = peak_rss_mb(&stird.pid().to_string())?;

    // Oracle (untimed): the served outputs must equal a from-scratch run
    // as the window left them and again after the drain.
    let mut mismatches = window.mismatches.clone();
    let engine = Engine::from_source(vpc::PROGRAM).map_err(|e| e.to_string())?;
    let before_drain = expected(&engine, &d, &traffic)?;
    mismatches.extend(compare(
        "stird before the drain",
        &served_outputs(&stird)?,
        &before_drain,
    ));
    mismatches.extend(drain_tcp(&stird, &mut traffic)?);
    let want = expected(&engine, &d, &[])?;
    mismatches.extend(compare(
        "stird after the drain",
        &served_outputs(&stird)?,
        &want,
    ));
    drop(control);
    drop(stird);

    let all = window.ms(None, false);
    let p90 = percentile(&all, 0.9).ok_or("no request completed")?;
    let ok_count = all.len() + window.ms(None, true).len();
    out.attempted = window.samples.len() as u64;
    out.failed = window.failed();
    out.metric("setup_s", median(&startups));
    out.context("raw_setup_s", json_list(&raw_startups));
    out.metric("peak_rss_mb", peak);
    out.metric("ops_per_s", ok_count as f64 / window.elapsed);
    out.metric("latency_ms.p50", median(&all));
    out.metric("latency_ms.p90", p90.value);
    out.context("latency_samples", p90.samples.to_string());
    out.context("latency_p90_beyond", p90.beyond.to_string());
    out.context("latency_p90_reportable", p90.reportable().to_string());
    for (kind, name) in [(Kind::Query, "query"), (Kind::Write, "write")] {
        let ms = window.ms(Some(kind), false);
        if let Some(p) = percentile(&ms, 0.9) {
            out.context(&format!("{name}_samples"), p.samples.to_string());
            out.context(&format!("{name}_p90_beyond"), p.beyond.to_string());
            out.context(
                &format!("{name}_p90_reportable"),
                p.reportable().to_string(),
            );
        }
    }

    if args.trace {
        layer_metrics(&mut out, &window, &stats, spec);
        mismatches.extend(inprocess(
            args, spec, &d, &prepared, budget, &want, &window, &mut out,
        )?);
    }
    for m in &mismatches {
        eprintln!("stirbench: {}: {m}", spec.name);
    }
    out.correct = mismatches.is_empty();
    Ok(out)
}

/// Per-layer numbers of the TCP window: per-kind latencies, the tracing
/// overhead, and stird's own counters over the window.
fn layer_metrics(out: &mut Outcome, w: &Window, stats: &StatsDelta, spec: &Spec) {
    for (kind, name) in [(Kind::Query, "query"), (Kind::Write, "write")] {
        let ms = w.ms(Some(kind), false);
        out.metric(format!("{name}_ms.p50"), median(&ms));
        out.metric(
            format!("{name}_ms.p90"),
            percentile(&ms, 0.9).map_or(0.0, |p| p.value),
        );
        out.metric(
            format!("trace.overhead_ms.{name}"),
            median(&w.ms(Some(kind), true)) - median(&ms),
        );
    }
    out.metric(
        "error_rate",
        ratio(w.failed() as f64, w.samples.len() as f64),
    );
    let writes = w.samples.iter().filter(|s| s.kind == Kind::Write).count() as f64;
    let (rerun, fallbacks) = (
        stats.delta("server.strata_rerun"),
        stats.delta("server.full_fallbacks"),
    );
    out.metric("resident.strata_rerun", rerun);
    out.metric("resident.full_fallbacks", fallbacks);
    out.metric(
        "resident.fallback_share",
        ratio(fallbacks, rerun + fallbacks),
    );
    out.metric("resident.rederived", stats.delta("server.rederived"));
    out.metric("resident.bytes", stats.end("db.resident_bytes"));
    let appends = stats.delta("wal.appends");
    out.metric("wal.appends", appends);
    out.metric(
        "wal.bytes_per_write",
        ratio(stats.delta("wal.bytes"), appends),
    );
    let gc_fsyncs = stats.delta("group_commit.fsyncs");
    out.metric("wal.fsyncs", stats.delta("wal.fsyncs") + gc_fsyncs);
    out.metric(
        "wal.commits_per_fsync",
        ratio(stats.delta("group_commit.commits"), gc_fsyncs),
    );
    out.metric("snapshot.writes", stats.delta("snapshot.writes"));
    let (hits, misses) = (
        stats.delta("page_cache.hits"),
        stats.delta("page_cache.misses"),
    );
    out.metric("disk.page_hits", hits);
    out.metric("disk.page_misses", misses);
    out.metric("disk.hit_rate", ratio(hits, hits + misses));
    out.metric("disk.evictions", stats.delta("page_cache.evictions"));
    out.context("window_writes", writes.to_string());
    if spec.storage == StorageBackend::Disk {
        out.context(
            "page_cache_resident_bytes",
            stats.end("page_cache.resident_bytes").to_string(),
        );
    }
}

#[allow(clippy::too_many_arguments)]
/// The in-process half of a traced run: the same traffic against a
/// `ResidentEngine` opened like stird's, each request either through
/// `serve::handle_request` (the serving layer as a whole) or through
/// direct engine calls with spans around the lock wait, the engine call
/// and the group-commit barrier. Each client paces itself to one request
/// per TCP median latency, so lock contention matches the served run
/// rather than a tight loop's. Returns oracle mismatches.
fn inprocess(
    args: &Args,
    spec: &Spec,
    d: &Data,
    prepared: &Path,
    budget: Option<u64>,
    want: &Rows,
    tcp: &Window,
    out: &mut Outcome,
) -> Result<Vec<String>, String> {
    let dir = TempDir(work_dir().join(format!("{}-inproc-{}", spec.name, std::process::id())));
    let _ = std::fs::remove_dir_all(&dir.0);
    copy_dir(prepared, &dir.0)?;
    if let Some(b) = budget {
        // The page-cache budget is read from the environment at open.
        std::env::set_var("STIR_PAGE_CACHE", b.to_string());
    }
    let tracer = Tracer::new(true);
    let engine = Engine::from_source(vpc::PROGRAM).map_err(|e| e.to_string())?;
    let opts = PersistOptions {
        durability: spec.durability,
        snapshot_interval: spec.snapshot_interval,
    };
    let (mut resident, report) = {
        let _s = tracer.span("resident.open", None);
        ResidentEngine::open(engine, spec.config(), &d.inputs, &dir.0, opts, None)
            .map_err(|e| e.to_string())?
    };
    resident.enable_group_commit();
    out.metric(
        "recovery.open_ms",
        trace::total_self_ms(&tracer.spans(), "resident.open"),
    );
    out.metric("recovery.replay_ms", report.replay_ms as f64);
    out.metric("recovery.replayed_batches", report.replayed_batches as f64);

    let lock = RwLock::new(resident);
    let ctx = RequestCtx {
        admission: Some(Arc::new(WriteAdmission::new(64))),
        ..RequestCtx::default()
    };
    let mut traffic: Vec<Traffic> = d
        .pools
        .iter()
        .enumerate()
        .map(|(c, pool)| Traffic::new(args.seed, c, 1, pool.clone(), spec, d))
        .collect();
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds / 2.0);
    let pace = Duration::from_secs_f64(median(&tcp.ms(None, false)) / 1e3);
    let bad: Vec<String> = std::thread::scope(|s| {
        let handles: Vec<_> = traffic
            .iter_mut()
            .map(|t| {
                let (lock, ctx, tracer) = (&lock, &ctx, &tracer);
                s.spawn(move || {
                    let mut bad = Vec::new();
                    let mut n = 0u64;
                    while Instant::now() < deadline {
                        let direct = n % 2 == 1;
                        n += 1;
                        let started = Instant::now();
                        let r = match t.next() {
                            Op::Query(q) => {
                                if direct {
                                    direct_query(lock, &q, tracer)
                                } else {
                                    via_handler(lock, ctx, &q, None, "serve.handle.query", tracer)
                                }
                            }
                            Op::Write(i) => {
                                let fact = t.pool[i].clone();
                                let (line, expect, inserting) = t.toggle(i);
                                if direct {
                                    direct_write(lock, &fact, inserting, tracer)
                                } else {
                                    via_handler(
                                        lock,
                                        ctx,
                                        &line,
                                        Some(expect),
                                        "serve.handle.write",
                                        tracer,
                                    )
                                }
                            }
                        };
                        if let Err(e) = r {
                            bad.push(e);
                        }
                        if let Some(idle) = pace.checked_sub(started.elapsed()) {
                            std::thread::sleep(idle);
                        }
                    }
                    bad
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("in-process client thread"))
            .collect()
    });

    // Check the in-process engine against the oracle too, before and
    // after its drain.
    let mut bad = bad;
    let mut resident = lock.into_inner().unwrap_or_else(PoisonError::into_inner);
    let oracle_engine = Engine::from_source(vpc::PROGRAM).map_err(|e| e.to_string())?;
    bad.extend(compare(
        "in-process engine before the drain",
        &rows_of(resident.outputs()),
        &expected(&oracle_engine, d, &traffic)?,
    ));
    for t in &mut traffic {
        for i in 0..t.pool.len() {
            if t.present[i] {
                let fact = t.pool[i].clone();
                t.toggle(i);
                let r = resident
                    .retract_facts(fact.rel, &[fact.row()], None)
                    .map_err(|e| e.to_string())?;
                if r.retracted != 1 {
                    bad.push(format!("in-process drain {}: not present", fact.line('-')));
                }
            }
        }
    }
    bad.extend(compare(
        "in-process engine after the drain",
        &rows_of(resident.outputs()),
        want,
    ));
    drop(resident);

    let spans = tracer.spans();
    attribute(out, tcp, &spans);
    Ok(bad)
}

fn via_handler(
    lock: &RwLock<ResidentEngine>,
    ctx: &RequestCtx,
    line: &str,
    expect: Option<&str>,
    span: &'static str,
    tracer: &Tracer,
) -> Result<(), String> {
    let mut reply = Vec::with_capacity(256);
    {
        let _s = tracer.span(span, None);
        handle_request(lock, line, &SessionConfig::default(), ctx, None, &mut reply)
            .map_err(|e| format!("{line}: {e}"))?;
    }
    let text = String::from_utf8_lossy(&reply);
    let status = text.lines().last().unwrap_or_default();
    match expect {
        Some(e) if status != e => Err(format!("in-process {line}: expected `{e}`, got `{status}`")),
        None if !status.starts_with("ok") => Err(format!("in-process {line}: `{status}`")),
        _ => Ok(()),
    }
}

fn direct_query(lock: &RwLock<ResidentEngine>, q: &str, tracer: &Tracer) -> Result<(), String> {
    let inner = &q[1..q.len() - 1];
    let (rel, terms) = inner.split_once('(').ok_or("query shape")?;
    let pattern: Vec<Option<Value>> = terms
        .split(',')
        .map(|t| t.trim().parse::<i32>().ok().map(Value::Number))
        .collect();
    let root = tracer.span("request.query", None);
    let engine = {
        let _s = tracer.span("resident.lock_wait.query", root.id());
        lock.read().unwrap_or_else(PoisonError::into_inner)
    };
    let _s = tracer.span("resident.query", root.id());
    engine
        .query(rel, &pattern, None)
        .map(drop)
        .map_err(|e| format!("in-process {q}: {e}"))
}

fn direct_write(
    lock: &RwLock<ResidentEngine>,
    fact: &Fact,
    inserting: bool,
    tracer: &Tracer,
) -> Result<(), String> {
    let root = tracer.span("request.write", None);
    let mut engine = {
        let _s = tracer.span("resident.lock_wait.write", root.id());
        lock.write().unwrap_or_else(PoisonError::into_inner)
    };
    let changed = if inserting {
        let _s = tracer.span("resident.insert", root.id());
        engine
            .insert_facts_deadline(fact.rel, &[fact.row()], None, None)
            .map(|r| r.inserted)
    } else {
        let _s = tracer.span("resident.retract", root.id());
        engine
            .retract_facts_deadline(fact.rel, &[fact.row()], None, None)
            .map(|r| r.retracted)
    }
    .map_err(|e| {
        format!(
            "in-process {}: {e}",
            fact.line(if inserting { '+' } else { '-' })
        )
    })?;
    let ticket = engine.take_commit_ticket();
    drop(engine);
    if let Some(ticket) = ticket {
        let _s = tracer.span("wal.commit_wait", root.id());
        ticket.wait().map_err(|e| e.to_string())?;
    }
    if changed != 1 {
        return Err(format!(
            "in-process {}: changed {changed} tuples",
            fact.line('±')
        ));
    }
    Ok(())
}

/// Splits the TCP p50 of each kind into layer self times:
/// `net` = TCP − in-process `handle_request`; `serve` = `handle_request`
/// − the direct engine path; then the lock wait, the engine call and the
/// fsync barrier; the remainder of the direct path is unattributed
/// (medians of different samples need not add up).
fn attribute(out: &mut Outcome, tcp: &Window, spans: &[trace::Span]) {
    let p50 = |name: &str| median(&trace::self_ms(spans, name));
    let total = |name: &str| -> Vec<f64> {
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end - s.start) as f64 / 1e6)
            .collect()
    };
    let mut resident_write = trace::self_ms(spans, "resident.insert");
    resident_write.extend(trace::self_ms(spans, "resident.retract"));
    let handle_q = median(&total("serve.handle.query"));
    let handle_w = median(&total("serve.handle.write"));
    out.metric("serve.handle_ms.query.p50", handle_q);
    out.metric("serve.handle_ms.write.p50", handle_w);
    out.metric("resident.query_ms.p50", p50("resident.query"));
    out.metric("resident.lock_wait_ms.p50", p50("resident.lock_wait.write"));
    out.metric("resident.insert_ms.p50", p50("resident.insert"));
    out.metric("resident.retract_ms.p50", p50("resident.retract"));
    let commit = trace::self_ms(spans, "wal.commit_wait");
    out.metric("wal.commit_wait_ms.p50", median(&commit));
    for (kind, name, handle, lock, engine, wal) in [
        (
            Kind::Query,
            "query",
            handle_q,
            p50("resident.lock_wait.query"),
            p50("resident.query"),
            0.0,
        ),
        (
            Kind::Write,
            "write",
            handle_w,
            p50("resident.lock_wait.write"),
            median(&resident_write),
            median(&commit),
        ),
    ] {
        let tcp_p50 = median(&tcp.ms(Some(kind), false));
        let direct = median(&total(if kind == Kind::Query {
            "request.query"
        } else {
            "request.write"
        }));
        out.metric(format!("net.{name}_ms.p50"), tcp_p50 - handle);
        let split = [
            ("net", tcp_p50 - handle),
            ("serve", handle - direct),
            ("lock_wait", lock),
            ("resident", engine),
            ("wal", wal),
            ("unattributed", direct - lock - engine - wal),
        ];
        for (layer, ms) in split {
            out.metric(format!("attr.{name}_ms.{layer}"), ms);
        }
        let top = split
            .iter()
            .max_by(|a, b| a.1.total_cmp(&b.1))
            .map_or("none", |l| l.0);
        out.context(&format!("{name}_ms_p50_top_layer"), json_str(top));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_json_deltas() {
        let before = r#"{"server":{"requests":10,"strata_rerun":4},"wal":{"appends":3,"bytes":300},"histograms":{}}"#;
        let after = r#"{"server":{"requests":25,"strata_rerun":9},"wal":{"appends":8,"bytes":800},"page_cache":{"hits":7},"db":{"resident_bytes":4096}}"#;
        let d = StatsDelta::parse(before, after).expect("parses");
        assert_eq!(d.delta("server.requests"), 15.0);
        assert_eq!(d.delta("server.strata_rerun"), 5.0);
        assert_eq!(d.delta("wal.bytes") / d.delta("wal.appends"), 100.0);
        assert_eq!(d.delta("page_cache.hits"), 7.0, "absent before reads 0");
        assert_eq!(d.delta("group_commit.fsyncs"), 0.0, "absent on both sides");
        assert_eq!(d.end("db.resident_bytes"), 4096.0);
        assert!(StatsDelta::parse("not json", after).is_err());
    }

    #[test]
    fn pools_are_disjoint_from_inputs_and_each_other() {
        let d = data(3, Scale::Small, 12);
        let mut seen = HashSet::new();
        for f in d.pools.iter().flatten().chain(&d.prep) {
            assert!(seen.insert(f.clone()), "{f:?} appears twice");
            let row = f.row();
            assert!(!d.inputs[f.rel].contains(&row), "{f:?} is an input");
        }
        assert_eq!(d.pools.len(), CLIENTS);
    }

    /// The same seed's write sequence yields the same per-operation
    /// engine counts on two fresh engines.
    #[test]
    fn resident_counts_repeat_for_a_seed() {
        let d = data(5, Scale::Small, 0);
        let run = || -> Vec<(u64, u64, u64, u64)> {
            let mut r = ResidentEngine::from_source(vpc::PROGRAM, READ.config(), &d.inputs, None)
                .expect("starts");
            let mut t = Traffic::new(5, 0, 0, d.pools[0].clone(), &READ, &d);
            let mut counts = Vec::new();
            for _ in 0..120 {
                if let Op::Write(i) = t.next() {
                    let fact = t.pool[i].clone();
                    let (_, _, inserting) = t.toggle(i);
                    counts.push(if inserting {
                        let u = r
                            .insert_facts(fact.rel, &[fact.row()], None)
                            .expect("inserts");
                        (u.inserted, u.strata_rerun, u.full_fallbacks, 0)
                    } else {
                        let u = r
                            .retract_facts(fact.rel, &[fact.row()], None)
                            .expect("retracts");
                        (u.retracted, u.strata_rerun, u.full_fallbacks, u.rederived)
                    });
                }
            }
            counts
        };
        let (a, b) = (run(), run());
        assert_eq!(a, b);
        assert!(a.iter().all(|c| c.0 == 1), "every toggle changes one fact");
        assert!(
            a.iter().any(|c| c.2 > 0),
            "trusted writes take the fallback"
        );
    }
}
