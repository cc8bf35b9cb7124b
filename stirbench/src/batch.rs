//! The `batch` workload: every instance of the three suites at medium
//! scale, generated from the seed, evaluated by the optimized STI with one
//! job on memory storage and timed from ITree build to fixpoint (paper
//! §5). `interp` and `der` do nearly all the work; no serving layer runs.
//! DDisasm's arithmetic filter chains exercise conditions that VPC and
//! DOOP barely use, so a change to condition evaluation should move one
//! suite's numbers and not the others'.
//!
//! The oracle is the `stir_synth` compiled baseline, which shares no
//! evaluator code with the STI; it runs after the timed region.

use crate::oracle::{compare, rows_of, write_facts, Rows};
use crate::stats::{median, percentile};
use crate::trace::{self, Tracer};
use crate::{json_list, speed, work_dir, Args, Outcome};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use stir::core::database::{DataMode, Database};
use stir::core::{itree, Interpreter};
use stir::ram::RamProgram;
use stir::workloads::all_suites;
use stir::workloads::rng::SmallRng;
use stir::workloads::spec::{instances as registry, Scale, Suite, Workload};
use stir::{InputData, InterpreterConfig, ProfileReport, StorageBackend, Value};

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 7;

/// A seed derived from the run seed and a per-instance salt (splitmix64).
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Share of a large input relation's rows a seed drops.
const DROP_SHARE: f64 = 0.002;
/// Relations with fewer rows (topology skeletons such as VPC peerings)
/// stay whole: dropping one of their rows changes a whole instance.
const DROP_MIN_ROWS: usize = 100;

/// The suite instances for a seed: the registry's instances (the ones
/// the paper-figure benches run), perturbed per seed so that the inputs
/// change but the work barely does. Regenerating instances from fresh
/// generator seeds instead changes a VPC instance's reachability, or a
/// DOOP instance's points-to closure, so much that the work per seed
/// swings by ±10–15%, which would drown a regression.
///
/// * VPC and DDisasm drop a seed-chosen 0.2% of the rows of every large
///   input relation, which moves their dispatch counts by about 1%.
/// * DOOP's points-to closure turns the same drop into a swing of up to
///   28%, so its instances are relabeled instead: every number is
///   XORed with a seed-chosen mask below 256. DOOP compares numbers only
///   for (in)equality, so the relabeled instance is isomorphic to the
///   registry's and does exactly the same work on differently ordered
///   keys.
pub fn instances(seed: u64, scale: Scale) -> Vec<Workload> {
    let mut out: Vec<Workload> = all_suites()
        .into_iter()
        .flat_map(|suite| registry(suite, scale))
        .collect();
    for (i, w) in out.iter_mut().enumerate() {
        let salt = mix(seed, i as u64);
        if w.suite == Suite::Doop {
            relabel(&mut w.inputs, 1 + salt % RELABEL_MASKS);
        } else {
            perturb(&mut w.inputs, salt);
        }
    }
    out
}

/// Drops a seed-chosen [`DROP_SHARE`] of every input relation of at
/// least [`DROP_MIN_ROWS`] rows.
pub fn perturb(inputs: &mut InputData, seed: u64) {
    for (rel, rows) in inputs.iter_mut() {
        if rows.len() < DROP_MIN_ROWS {
            continue;
        }
        let salt = rel.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
        });
        let mut rng = SmallRng::seed_from_u64(mix(seed, salt));
        rows.retain(|_| !rng.gen_bool(DROP_SHARE));
    }
}

/// Nonzero relabeling masks a seed chooses among.
const RELABEL_MASKS: u64 = 255;

/// XORs every non-negative number of every input row with `mask`: a
/// bijection on the non-negative numbers below 2^31, so equal values stay
/// equal and distinct ones distinct.
pub fn relabel(inputs: &mut InputData, mask: u64) {
    let mask = i32::try_from(mask).expect("masks stay below 256");
    for row in inputs.values_mut().flatten() {
        for v in row {
            if let Value::Number(n) = v {
                if *n >= 0 {
                    *n ^= mask;
                }
            }
        }
    }
}

/// The configuration every batch evaluation uses.
pub fn config(profile: bool) -> InterpreterConfig {
    let c = InterpreterConfig::optimized()
        .with_jobs(1)
        .with_storage(StorageBackend::Mem);
    if profile {
        c.with_profile()
    } else {
        c
    }
}

/// Frontend and RAM translation of one program.
///
/// # Errors
///
/// Propagates frontend and translation errors.
pub fn compile(program: &str, tracer: &Tracer) -> Result<RamProgram, String> {
    let checked = {
        let _s = tracer.span("frontend.parse", None);
        stir::frontend::parse_and_check(program).map_err(|e| e.to_string())?
    };
    let _s = tracer.span("ram.translate", None);
    stir::ram::translate::translate(&checked).map_err(|e| e.to_string())
}

/// A fresh database holding an instance's inputs.
///
/// # Errors
///
/// Propagates input-loading errors.
pub fn load(ram: &RamProgram, w: &Workload, tracer: &Tracer) -> Result<Database, String> {
    let _s = tracer.span("database.load", None);
    let db = Database::new_with_storage(ram, DataMode::Specialized, false, StorageBackend::Mem);
    db.load_inputs(ram, &w.inputs).map_err(|e| e.to_string())?;
    Ok(db)
}

/// ITree build to fixpoint; returns the elapsed time and the profile.
///
/// # Errors
///
/// Propagates evaluation errors.
pub fn fixpoint(
    ram: &RamProgram,
    db: &Database,
    cfg: InterpreterConfig,
    tracer: &Tracer,
) -> Result<(Duration, Option<ProfileReport>), String> {
    let started = Instant::now();
    let root = tracer.span("fixpoint", None);
    let tree = {
        let _s = tracer.span("itree.build", root.id());
        itree::build(ram, &cfg)
    };
    let mut interp = Interpreter::new(ram, db, cfg);
    {
        let _s = tracer.span("interp.run", root.id());
        interp.run(&tree).map_err(|e| e.to_string())?;
    }
    drop(root);
    Ok((started.elapsed(), interp.profile_report()))
}

/// Work counts of one evaluated instance, all deterministic per seed.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Counts {
    pub dispatches: u64,
    pub iterations: u64,
    pub super_hits: u64,
    pub inserts: u64,
    pub exists_checks: u64,
    pub range_queries: u64,
    pub output_tuples: u64,
}

/// Counts from a profile plus the database's output sizes.
pub fn counts(ram: &RamProgram, db: &Database, p: &ProfileReport) -> Counts {
    Counts {
        dispatches: p.dispatches,
        iterations: p.iterations,
        super_hits: p.super_hits,
        inserts: p.relations.iter().map(|r| r.inserts).sum(),
        exists_checks: p.relations.iter().map(|r| r.exists_checks).sum(),
        range_queries: p.relations.iter().map(|r| r.range_queries).sum(),
        output_tuples: ram.outputs().map(|r| db.rd(r.id).len() as u64).sum(),
    }
}

/// Estimated heap bytes of every index of every relation.
fn db_bytes(ram: &RamProgram, db: &Database) -> u64 {
    ram.relations
        .iter()
        .flat_map(|r| db.rd(r.id).index_stats())
        .map(|s| s.bytes as u64)
        .sum()
}

/// Peak resident set of a process (`VmHWM`) in MB.
pub fn peak_rss_mb(pid: &str) -> Result<f64, String> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status"))
        .map_err(|e| format!("reading /proc/{pid}/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line".to_owned())
}

struct Prepared {
    suite: &'static str,
    w: Workload,
    ram: RamProgram,
}

/// Runs the `batch` workload.
///
/// # Errors
///
/// Fails on evaluation errors and when the oracle cannot run.
pub fn run(args: &Args) -> Result<Outcome, String> {
    let scale = Scale::Medium;
    let workloads = instances(args.seed, scale);
    let mut out = Outcome::default();
    out.context("scale", "\"medium\"");
    out.context("instances", workloads.len().to_string());
    out.context("config", "\"optimized STI, jobs=1, storage=mem\"");

    // Set-up: compile and load every instance, several times.
    let quiet = Tracer::new(false);
    let setup_tracer = Tracer::new(args.trace);
    let mut setups = Vec::new();
    let mut prepared = Vec::new();
    let mut index_selection_ns = 0u64;
    let mut setup_raw = Vec::new();
    for rep in 0..if args.trace { 1 } else { SETUP_REPS } {
        let before = speed::probe_ms();
        let started = Instant::now();
        let mut this = Vec::new();
        for w in &workloads {
            let ram = compile(&w.program, &setup_tracer)?;
            drop(load(&ram, w, &setup_tracer)?);
            if rep == 0 {
                index_selection_ns += ram.stats.index_selection_ns;
            }
            this.push(ram);
        }
        let raw = started.elapsed().as_secs_f64();
        setup_raw.push(raw);
        setups.push(raw * speed::bracketed(before, speed::probe_ms()));
        prepared = this;
    }
    let prepared: Vec<Prepared> = workloads
        .into_iter()
        .zip(prepared)
        .map(|(w, ram)| Prepared {
            suite: w.suite.name(),
            w,
            ram,
        })
        .collect();

    // Timed passes until the window is used up, then the oracle on the
    // outputs of the first pass. Each fixpoint is scaled to the reference
    // host speed by the probes run right before and after it. A traced run
    // follows each untraced fixpoint with a traced one of the same
    // instance, so the two see the same host speed and their difference is
    // the tracing cost.
    let window = args.seconds;
    let started = Instant::now();
    let mut times: Vec<Vec<f64>> = vec![Vec::new(); prepared.len()];
    let mut raw_passes: Vec<f64> = Vec::new();
    let mut factors: Vec<f64> = Vec::new();
    let mut first_outputs: Vec<Rows> = Vec::new();
    let traced = Tracer::new(args.trace);
    let mut overhead_s = 0.0;
    let mut traced_counts: Vec<(Counts, u64, f64)> = Vec::new();
    let mut last_pass = 0.0;
    let mut probe = speed::probe_ms();
    while raw_passes.is_empty() || started.elapsed().as_secs_f64() + last_pass <= window {
        let pass_started = Instant::now();
        let mut raw_total = 0.0;
        for (i, p) in prepared.iter().enumerate() {
            let db = load(&p.ram, &p.w, &quiet)?;
            let (elapsed, _) = fixpoint(&p.ram, &db, config(false), &quiet)?;
            let after = speed::probe_ms();
            let f = speed::bracketed(probe, after);
            probe = after;
            raw_total += elapsed.as_secs_f64();
            times[i].push(elapsed.as_secs_f64() * f);
            factors.push(f);
            if raw_passes.is_empty() {
                first_outputs.push(rows_of(db.extract_outputs(&p.ram)));
            }
            if !args.trace || traced_counts.len() == prepared.len() {
                continue;
            }
            let db = load(&p.ram, &p.w, &quiet)?;
            let (traced_elapsed, profile) = fixpoint(&p.ram, &db, config(true), &traced)?;
            overhead_s += traced_elapsed.as_secs_f64() - elapsed.as_secs_f64();
            let profile = profile.ok_or("a profiled run returns its profile")?;
            let top = profile
                .by_rule()
                .iter()
                .map(|q| q.time.as_secs_f64())
                .fold(0.0, f64::max);
            let all: f64 = profile.queries.iter().map(|q| q.time.as_secs_f64()).sum();
            traced_counts.push((
                counts(&p.ram, &db, &profile),
                db_bytes(&p.ram, &db),
                if all > 0.0 { top / all } else { 0.0 },
            ));
            probe = speed::probe_ms();
        }
        raw_passes.push(raw_total);
        last_pass = pass_started.elapsed().as_secs_f64();
    }
    let peak = peak_rss_mb("self")?;

    let oracle_started = Instant::now();
    let mismatches = oracle(&prepared, &first_outputs)?;
    eprintln!(
        "stirbench: batch oracle checked {} instances in {:.1}s",
        prepared.len(),
        oracle_started.elapsed().as_secs_f64()
    );
    for m in &mismatches {
        eprintln!("stirbench: oracle mismatch: {m}");
    }
    // An instance's time is its median over passes; a pass's is their sum.
    let medians: Vec<f64> = times.iter().map(|t| median(t)).collect();
    let suite_s = |suite: &str| -> f64 {
        (0..prepared.len())
            .filter(|&i| prepared[i].suite == suite)
            .map(|i| medians[i])
            .sum()
    };
    // One operation is one instance's fixpoint, timed as its median over
    // passes: raw samples would let a slow stretch of the shared host
    // decide which instance sits at a percentile's rank.
    let op_ms: Vec<f64> = medians.iter().map(|s| s * 1e3).collect();
    out.correct = mismatches.is_empty();
    out.attempted = times.iter().map(|t| t.len() as u64).sum();
    out.failed = 0;
    out.context("passes", raw_passes.len().to_string());
    out.context("raw_pass_s", json_list(&raw_passes));
    out.context("raw_setup_s", json_list(&setup_raw));
    out.context("instance_ms", json_list(&op_ms));
    out.context("host_speed_factor", format!("{:.4}", median(&factors)));
    let p90 = percentile(&op_ms, 0.9).ok_or("no fixpoint measured")?;
    out.context("latency_samples", p90.samples.to_string());
    out.context("latency_p90_beyond", p90.beyond.to_string());
    out.context("latency_p90_reportable", p90.reportable().to_string());

    // End-to-end.
    let fixpoint_s: f64 = medians.iter().sum();
    out.metric("setup_s", median(&setups));
    out.metric("peak_rss_mb", peak);
    out.metric("ops_per_s", medians.len() as f64 / fixpoint_s);
    out.metric("latency_ms.p50", median(&op_ms));
    out.metric("latency_ms.p90", p90.value);

    if args.trace {
        out.metric("fixpoint_s", fixpoint_s);
        let setup_spans = setup_tracer.spans();
        out.metric(
            "frontend.parse_ms",
            trace::total_self_ms(&setup_spans, "frontend.parse"),
        );
        out.metric(
            "ram.translate_ms",
            trace::total_self_ms(&setup_spans, "ram.translate"),
        );
        out.metric("ram.index_selection_ms", index_selection_ns as f64 / 1e6);
        out.metric(
            "database.load_ms",
            trace::total_self_ms(&setup_spans, "database.load"),
        );
        out.metric(
            "ram.indexes",
            prepared
                .iter()
                .flat_map(|p| &p.ram.relations)
                .map(|r| r.orders.len() as f64)
                .sum(),
        );
        let spans = traced.spans();
        let itree_ms = trace::total_self_ms(&spans, "itree.build");
        let interp_ms = trace::total_self_ms(&spans, "interp.run");
        out.metric("itree.build_ms", itree_ms);
        out.metric("attr.fixpoint_ms.itree", itree_ms);
        out.metric("attr.fixpoint_ms.interp", interp_ms);
        out.metric(
            "attr.fixpoint_ms.unattributed",
            trace::total_self_ms(&spans, "fixpoint"),
        );
        out.metric("trace.overhead_ms.fixpoint", overhead_s * 1e3);
        let interp_self = trace::self_ms(&spans, "interp.run");
        for suite in crate::catalog::SUITES {
            let of_suite = |i: &usize| prepared[*i].suite == suite;
            let idx: Vec<usize> = (0..prepared.len()).filter(of_suite).collect();
            let sum = |f: &dyn Fn(&Counts) -> u64| -> f64 {
                idx.iter().map(|&i| f(&traced_counts[i].0) as f64).sum()
            };
            out.metric(format!("fixpoint_s.{suite}"), suite_s(suite));
            out.metric(
                format!("interp.eval_ms.{suite}"),
                idx.iter().map(|&i| interp_self[i]).sum::<f64>(),
            );
            out.metric(format!("interp.dispatches.{suite}"), sum(&|c| c.dispatches));
            out.metric(format!("interp.iterations.{suite}"), sum(&|c| c.iterations));
            out.metric(format!("interp.super_hits.{suite}"), sum(&|c| c.super_hits));
            out.metric(
                format!("interp.top_rule_share.{suite}"),
                idx.iter().map(|&i| traced_counts[i].2).fold(0.0, f64::max),
            );
            out.metric(format!("der.inserts.{suite}"), sum(&|c| c.inserts));
            out.metric(
                format!("der.exists_checks.{suite}"),
                sum(&|c| c.exists_checks),
            );
            out.metric(
                format!("der.range_queries.{suite}"),
                sum(&|c| c.range_queries),
            );
            out.metric(
                format!("der.output_tuples.{suite}"),
                sum(&|c| c.output_tuples),
            );
            out.metric(
                format!("der.bytes.{suite}"),
                idx.iter().map(|&i| traced_counts[i].1 as f64).sum(),
            );
        }
    }
    Ok(out)
}

/// Compares every instance's STI outputs with the synthesized program's;
/// returns one line per mismatching relation.
fn oracle(prepared: &[Prepared], sti: &[Rows]) -> Result<Vec<String>, String> {
    let scratch = work_dir().join(format!("batch-{}", std::process::id()));
    let result = (|| {
        let mut programs: HashMap<&str, PathBuf> = HashMap::new();
        let mut mismatches = Vec::new();
        for (p, sti_rows) in prepared.iter().zip(sti) {
            if !programs.contains_key(p.suite) {
                programs.insert(p.suite, synth_binary(p.suite, &p.ram)?);
            }
            let key = p.w.name.replace('/', "_");
            let facts = scratch.join("facts").join(&key);
            let outdir = scratch.join("out").join(&key);
            write_facts(&facts, &p.w.inputs)?;
            let program = stir::synth::compile::CompiledProgram {
                source_path: PathBuf::new(),
                binary_path: programs[p.suite].clone(),
                compile_time: Duration::ZERO,
            };
            let synth = stir::synth::compile::run(&program, &facts, &outdir)
                .map_err(|e| format!("{}: {e}", p.w.name))?;
            mismatches.extend(compare(&p.w.name, sti_rows, &synth.outputs));
            let _ = std::fs::remove_dir_all(&facts);
            let _ = std::fs::remove_dir_all(&outdir);
        }
        Ok(mismatches)
    })();
    let _ = std::fs::remove_dir_all(&scratch);
    result
}

/// The synthesized binary for a suite's program, compiled once and cached
/// in the work directory under a hash of its source.
fn synth_binary(suite: &str, ram: &RamProgram) -> Result<PathBuf, String> {
    let source = stir::synth::generate(ram);
    let hash = source.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
    });
    let dir = work_dir()
        .join("synth")
        .join(format!("{suite}-{hash:016x}"));
    let binary = dir.join("prog");
    if binary.exists() {
        return Ok(binary);
    }
    // Compile next to the cache entry, then rename, so an interrupted
    // compile never leaves a half-written binary behind.
    let tmp = work_dir()
        .join("synth")
        .join(format!("tmp-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&tmp);
    let started = Instant::now();
    stir::synth::compile::compile(&source, &tmp).map_err(|e| e.to_string())?;
    rename_dir(&tmp, &dir)?;
    eprintln!(
        "stirbench: compiled the synthesized {suite} oracle in {:.1}s",
        started.elapsed().as_secs_f64()
    );
    Ok(binary)
}

fn rename_dir(from: &Path, to: &Path) -> Result<(), String> {
    let _ = std::fs::remove_dir_all(to);
    std::fs::rename(from, to).map_err(|e| format!("caching {}: {e}", to.display()))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Traced work counts repeat exactly across two runs of one seed.
    #[test]
    fn traced_counts_repeat_for_a_seed() {
        let quiet = Tracer::new(false);
        let run = || -> Vec<Counts> {
            instances(7, Scale::Tiny)
                .iter()
                .map(|w| {
                    let ram = compile(&w.program, &quiet).expect("compiles");
                    let db = load(&ram, w, &quiet).expect("loads");
                    let (_, p) = fixpoint(&ram, &db, config(true), &quiet).expect("evaluates");
                    counts(&ram, &db, &p.expect("profile on"))
                })
                .collect()
        };
        let (a, b) = (run(), run());
        assert_eq!(a, b);
        assert!(a.iter().all(|c| c.dispatches > 0 && c.inserts > 0));
        assert!(a.iter().any(|c| c.output_tuples > 0));
    }

    /// DOOP's relabeled instances do exactly the registry's work.
    #[test]
    fn doop_work_is_the_same_for_every_seed() {
        let quiet = Tracer::new(false);
        let doop = |seed: u64| -> Vec<(Vec<Vec<Value>>, Counts)> {
            instances(seed, Scale::Small)
                .into_iter()
                .filter(|w| w.suite == Suite::Doop)
                .map(|w| {
                    let ram = compile(&w.program, &quiet).expect("compiles");
                    let db = load(&ram, &w, &quiet).expect("loads");
                    let (_, p) = fixpoint(&ram, &db, config(true), &quiet).expect("evaluates");
                    (
                        w.inputs["vcall"].clone(),
                        counts(&ram, &db, &p.expect("profile on")),
                    )
                })
                .collect()
        };
        let (a, b) = (doop(1), doop(2));
        assert!(!a.is_empty());
        for ((rows_a, counts_a), (rows_b, counts_b)) in a.iter().zip(&b) {
            assert_ne!(rows_a, rows_b, "the seed relabels the inputs");
            assert_eq!(counts_a, counts_b, "but the work stays the same");
        }
    }

    #[test]
    fn relabeling_is_a_bijection() {
        let row = |a: i32, b: i32| vec![Value::Number(a), Value::Number(b)];
        let mut inputs = InputData::new();
        inputs.insert("r".into(), vec![row(0, 1), row(255, 256), row(-1, 7)]);
        relabel(&mut inputs, 3);
        assert_eq!(inputs["r"], vec![row(3, 2), row(252, 259), row(-1, 4)]);
        relabel(&mut inputs, 3);
        assert_eq!(inputs["r"], vec![row(0, 1), row(255, 256), row(-1, 7)]);
    }

    #[test]
    fn seeds_change_inputs_but_not_programs() {
        let a = instances(1, Scale::Small);
        let b = instances(2, Scale::Small);
        assert_eq!(a.len(), 16);
        assert!(a.iter().zip(&b).all(|(x, y)| x.program == y.program));
        assert!(a.iter().zip(&b).any(|(x, y)| x.inputs != y.inputs));
    }
}
