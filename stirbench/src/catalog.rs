//! The metric catalog: every name the benchmark prints, with its unit.
//! `BENCHMARK.json` at the repository root lists the same names (a test
//! keeps the two in step).
//!
//! End-to-end metrics are defined on every workload, so each workload
//! reports all of them:
//!
//! * `setup_s` — `batch`: parse, translate and load every instance;
//!   serve: stird spawn until it listens. Median of several set-ups.
//! * `peak_rss_mb` — `batch`: the benchmark process; serve: stird.
//! * `ops_per_s` — successful operations per second: instance fixpoints
//!   (`batch`, ITree build to fixpoint as in the paper §5, each instance
//!   timed as its median over passes, so this is the instance count over
//!   `fixpoint_s`) or requests (serve).
//! * `latency_ms.p50`, `latency_ms.p90` — one operation: an instance
//!   fixpoint (its median over passes) or a request of either kind.
//!
//! CPU-bound times (every `setup_s`, and `batch`'s fixpoints) are scaled
//! to a reference host speed measured by probes right before and after
//! each of them (see `speed.rs`); serve latencies, dominated by sockets
//! and timers, are not.
//!
//! `fixpoint_s`, its per-suite split and the per-kind request latencies
//! are not defined on every workload, so they live in the per-layer set,
//! measured by the traced run next to the spans that explain them.

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 3] = ["batch", "serve_read", "serve_durable"];

/// The batch suites.
pub const SUITES: [&str; 3] = ["vpc", "ddisasm", "doop"];

/// End-to-end metrics (`--trace 0`).
pub fn end_to_end() -> Vec<(String, &'static str)> {
    [
        ("setup_s", "s"),
        ("peak_rss_mb", "MB"),
        ("ops_per_s", "1/s"),
        ("latency_ms.p50", "ms"),
        ("latency_ms.p90", "ms"),
    ]
    .iter()
    .map(|&(n, u)| (n.to_owned(), u))
    .collect()
}

/// Per-layer metrics (`--trace 1`).
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> = [
        // batch: the fixpoint, set-up layers (→ setup_s) and the
        // fixpoint split.
        ("fixpoint_s", "s"),
        ("frontend.parse_ms", "ms"),
        ("ram.translate_ms", "ms"),
        ("ram.index_selection_ms", "ms"),
        ("database.load_ms", "ms"),
        ("ram.indexes", "count"),
        ("itree.build_ms", "ms"),
        ("attr.fixpoint_ms.itree", "ms"),
        ("attr.fixpoint_ms.interp", "ms"),
        ("attr.fixpoint_ms.unattributed", "ms"),
        ("trace.overhead_ms.fixpoint", "ms"),
    ]
    .iter()
    .map(|&(n, u)| (n.to_owned(), u))
    .collect();
    for suite in SUITES {
        for (m, unit) in [
            ("fixpoint_s", "s"),
            ("interp.eval_ms", "ms"),
            ("interp.dispatches", "count"),
            ("interp.iterations", "count"),
            ("interp.super_hits", "count"),
            ("interp.top_rule_share", "ratio"),
            ("der.inserts", "count"),
            ("der.exists_checks", "count"),
            ("der.range_queries", "count"),
            ("der.output_tuples", "count"),
            ("der.bytes", "bytes"),
        ] {
            out.push((format!("{m}.{suite}"), unit));
        }
    }
    out.extend(
        [
            // serve: the per-kind end-to-end split, untraced requests.
            ("query_ms.p50", "ms"),
            ("query_ms.p90", "ms"),
            ("write_ms.p50", "ms"),
            ("write_ms.p90", "ms"),
            ("error_rate", "ratio"),
            // serve: layers along a request.
            ("net.query_ms.p50", "ms"),
            ("net.write_ms.p50", "ms"),
            ("serve.handle_ms.query.p50", "ms"),
            ("serve.handle_ms.write.p50", "ms"),
            ("resident.query_ms.p50", "ms"),
            ("resident.lock_wait_ms.p50", "ms"),
            ("resident.insert_ms.p50", "ms"),
            ("resident.retract_ms.p50", "ms"),
            ("resident.strata_rerun", "count"),
            ("resident.full_fallbacks", "count"),
            ("resident.fallback_share", "ratio"),
            ("resident.rederived", "count"),
            ("resident.bytes", "bytes"),
            ("wal.appends", "count"),
            ("wal.bytes_per_write", "bytes"),
            ("wal.fsyncs", "count"),
            ("wal.commits_per_fsync", "ratio"),
            ("wal.commit_wait_ms.p50", "ms"),
            ("snapshot.writes", "count"),
            ("disk.page_hits", "count"),
            ("disk.page_misses", "count"),
            ("disk.hit_rate", "ratio"),
            ("disk.evictions", "count"),
            ("recovery.open_ms", "ms"),
            ("recovery.replay_ms", "ms"),
            ("recovery.replayed_batches", "count"),
            ("trace.overhead_ms.query", "ms"),
            ("trace.overhead_ms.write", "ms"),
        ]
        .iter()
        .map(|&(n, u)| (n.to_owned(), u)),
    );
    // serve: query_ms.p50 / write_ms.p50 as a sum of layer self times.
    for kind in ["query", "write"] {
        for layer in [
            "net",
            "serve",
            "lock_wait",
            "resident",
            "wal",
            "unattributed",
        ] {
            out.push((format!("attr.{kind}_ms.{layer}"), "ms"));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use stir::Json;

    fn listed(doc: &Json, key: &str) -> Vec<(String, String)> {
        doc.get(key)
            .and_then(Json::items)
            .expect("BENCHMARK.json lists metrics")
            .iter()
            .map(|m| {
                let field = |k| {
                    m.get(k)
                        .and_then(Json::as_str)
                        .expect("name/unit")
                        .to_owned()
                };
                (field("name"), field("unit"))
            })
            .collect()
    }

    #[test]
    fn benchmark_json_matches_the_catalog() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json exists"))
            .expect("BENCHMARK.json parses");
        let own = |v: Vec<(String, &str)>| -> Vec<(String, String)> {
            v.into_iter().map(|(n, u)| (n, u.to_owned())).collect()
        };
        assert_eq!(listed(&doc, "end_to_end"), own(end_to_end()));
        assert_eq!(listed(&doc, "per_layer"), own(per_layer()));
        let workloads: Vec<&str> = doc
            .get("workloads")
            .and_then(Json::items)
            .expect("workloads")
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).expect("name"))
            .collect();
        assert_eq!(workloads, WORKLOADS);
    }

    #[test]
    fn names_are_unique_and_within_limits() {
        let mut all: Vec<String> = end_to_end().into_iter().map(|m| m.0).collect();
        all.extend(per_layer().into_iter().map(|m| m.0));
        assert!(per_layer().len() <= 128);
        let n = all.len();
        all.sort();
        all.dedup();
        assert_eq!(all.len(), n, "metric names are unique");
        for name in &all {
            assert!(name.len() <= 64 && name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-'));
        }
    }
}
