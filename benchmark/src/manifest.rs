//! The benchmark's names: workloads, end-to-end metrics with their bounds,
//! per-layer metrics. `BENCHMARK.json` is rendered from these tables
//! (`benchmark --print-manifest`) and a test holds the committed file to
//! them, so a metric cannot be reported under a name the manifest lacks.

use crate::json::Json;

/// How long one run measures, seconds (`run_seconds` in `BENCHMARK.json`).
pub const RUN_SECONDS: u32 = 30;

/// `(name, why)` of each workload the driver runs.
///
/// The other two workloads the harness implements are not among them. A
/// metric has one bound for all workloads, so a workload whose own noise is
/// several times the others' would set every bound; the rule (README,
/// "Calibration") is that such a workload is run, smoke-tested, traced and
/// calibrated, but does not gate:
///
/// * `open_mixed` (open loop, fixed-rate Poisson over 64 sessions, latency
///   from the due time): its `qcm_p50_us` is one wake-up of an idle
///   front-end worker and nothing else, which on a virtual machine is the
///   hypervisor's latency, not the program's — a quartile spread of 19 % in
///   the quietest calibration, six times `cold_compose`'s.
/// * `cluster_wire` (closed loop over the cluster edge to two shard
///   processes): every request is five such wake-ups per shard hop —
///   10–13 % on throughput and both latencies in the quietest calibration,
///   three times the single-box workloads'.
pub const WORKLOADS: &[(&str, &str)] = &[
    (
        "cold_compose",
        "closed loop, 2 clients, every Run misses the response cache: the model does the work and every cache is written",
    ),
    (
        "warm_compose",
        "closed loop, 8 clients, Zipf over a cached 512-cycle head: the serving tiers do the work, the model none",
    ),
];

/// One metric of the manifest.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// End-to-end metrics only: the share of the parent's median by which
    /// the metric may get worse. Taken from the calibration tables committed
    /// in the README ("Calibration"): three times the worst quartile spread
    /// seen on a gating workload, as the contract asks, which for every
    /// timing metric is more than the contract's cap of 0.25 — so those
    /// take the cap. `setup_s` takes the largest bound by contract.
    pub bound: f64,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    bound: f64,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: 0.0,
    }
}

/// What a user of the system would see, the same seven for every workload.
///
/// `correct_share` and `failed_share` of the issue are not here: the
/// result line's `correct`, `attempted` and `failed` carry them (a metric
/// that must be 0 cannot be an end-to-end metric), and the traced run
/// reports both as `harness.*`.
pub const END_TO_END: &[MetricDef] = &[
    e2e("setup_s", "s", "lower", 0.25),
    e2e("throughput_rps", "1/s", "higher", 0.25),
    e2e("qcm_p50_us", "us", "lower", 0.25),
    e2e("qsm_p50_us", "us", "lower", 0.25),
    e2e("cpu_us_per_req", "us", "lower", 0.25),
    e2e("rss_peak_mb", "MB", "lower", 0.12),
    e2e("snapshot_bytes_per_triple", "B", "lower", 0.01),
];

/// Single layers, `<crate>.<metric>`, from the `--trace 1` run.
pub const PER_LAYER: &[MetricDef] = &[
    layer("datagen.generate_ms", "ms", "lower"),
    layer("rdf.scan_s_us", "us", "lower"),
    layer("rdf.scan_po_us", "us", "lower"),
    layer("rdf.scan_p_us", "us", "lower"),
    layer("rdf.scan_o_us", "us", "lower"),
    layer("rdf.rows_per_scan", "count", "lower"),
    layer("rdf.partition_ms", "ms", "lower"),
    layer("rdf.snapshot_encode_ms", "ms", "lower"),
    layer("rdf.snapshot_decode_ms", "ms", "lower"),
    layer("rdf.snapshot_bytes", "B", "lower"),
    layer("suffix.build_ms", "ms", "lower"),
    layer("suffix.find_p50_ns", "ns", "lower"),
    layer("text.jaro_winkler_ns", "ns", "lower"),
    layer("sparql.parse_us", "us", "lower"),
    layer("sparql.eval_p50_us", "us", "lower"),
    layer("sparql.eval_p90_us", "us", "lower"),
    layer("sparql.work_units_per_query", "count", "lower"),
    layer("endpoint.queries_per_run", "count", "lower"),
    layer("endpoint.work_units_per_run", "count", "lower"),
    layer("core.init_ms", "ms", "lower"),
    layer("core.init_queries", "count", "lower"),
    layer("core.tree_lookup_p50_ns", "ns", "lower"),
    layer("core.tree_hit_share", "ratio", "higher"),
    layer("core.residual_lookup_p50_us", "us", "lower"),
    layer("core.qcm_complete_p50_us", "us", "lower"),
    layer("core.qcm_complete_p90_us", "us", "lower"),
    layer("core.qsm_suggest_p50_us", "us", "lower"),
    layer("core.qsm_suggest_p90_us", "us", "lower"),
    layer("core.literal_alternatives_p50_us", "us", "lower"),
    layer("core.relax_p50_us", "us", "lower"),
    layer("core.relax_mean_us", "us", "lower"),
    layer("core.relax_queries_per_run", "count", "lower"),
    layer("core.neighborhood_hit_share", "ratio", "higher"),
    layer("core.alt_cache_hit_share", "ratio", "higher"),
    layer("core.exec_submit_to_start_p50_us", "us", "lower"),
    layer("core.exec_inline_share", "ratio", "lower"),
    layer("server.frontend_queue_p50_us", "us", "lower"),
    layer("server.frontend_queue_p90_us", "us", "lower"),
    layer("server.frontend_queue_mean_us", "us", "lower"),
    layer("server.admission_wait_p90_us", "us", "lower"),
    layer("server.coalesce_wait_p90_us", "us", "lower"),
    layer("server.admission_grant_ns", "ns", "lower"),
    layer("server.coalesce_join_ns", "ns", "lower"),
    layer("server.cache_get_ns", "ns", "lower"),
    layer("server.cache_insert_ns", "ns", "lower"),
    layer("server.session_ops_ns", "ns", "lower"),
    layer("server.completion_cache_hit_share", "ratio", "higher"),
    layer("server.run_cache_hit_share", "ratio", "higher"),
    layer("server.coalesced_share", "ratio", "higher"),
    layer("cluster.build_ms", "ms", "lower"),
    layer("cluster.shard_rtt_p50_us", "us", "lower"),
    layer("cluster.shard_rtt_p90_us", "us", "lower"),
    layer("cluster.shard_rtt_mean_us", "us", "lower"),
    layer("cluster.edge_merge_p50_us", "us", "lower"),
    layer("cluster.merge_completions_ns", "ns", "lower"),
    layer("cluster.merge_solutions_us", "us", "lower"),
    layer("cluster.fanout_per_req", "count", "lower"),
    layer("cluster.hedges", "count", "lower"),
    layer("cluster.retries", "count", "lower"),
    layer("cluster.edge_cache_hit_share", "ratio", "higher"),
    layer("wire.encode_request_ns", "ns", "lower"),
    layer("wire.decode_request_ns", "ns", "lower"),
    layer("wire.encode_reply_ns", "ns", "lower"),
    layer("wire.decode_reply_us", "us", "lower"),
    layer("wire.bytes_per_req", "B", "lower"),
    layer("wire.echo_rtt_p50_us", "us", "lower"),
    layer("wire.pipelined_rtt_p90_us", "us", "lower"),
    layer("wire.reconnects", "count", "lower"),
    layer("wire.io_errors", "count", "lower"),
    layer("obs.record_ns", "ns", "lower"),
    layer("obs.trace_overhead_share", "ratio", "lower"),
    layer("harness.calib_ms_min", "ms", "lower"),
    layer("harness.calib_ms_max", "ms", "lower"),
    layer("harness.pass_spread", "ratio", "lower"),
    layer("harness.sys_cpu_share", "ratio", "lower"),
    layer("harness.steal_share", "ratio", "lower"),
    layer("harness.late_p99_us", "us", "lower"),
    layer("harness.qcm_p90_us", "us", "lower"),
    layer("harness.qsm_p90_us", "us", "lower"),
    layer("harness.unattributed_share", "ratio", "lower"),
    layer("harness.model_self_share", "ratio", "higher"),
    layer("harness.shard_rtt_share", "ratio", "higher"),
    layer("harness.correct_share", "ratio", "higher"),
    layer("harness.failed_share", "ratio", "lower"),
    layer("harness.pool_hash", "count", "lower"),
];

/// The whole of `BENCHMARK.json`.
pub fn manifest() -> Json {
    let metric = |m: &MetricDef, with_bound: bool| {
        let mut fields = vec![
            ("name", Json::str(m.name)),
            ("unit", Json::str(m.unit)),
            ("better", Json::str(m.better)),
        ];
        if with_bound {
            fields.push(("bound", Json::Num(m.bound)));
        }
        Json::obj(fields)
    };
    Json::obj([
        (
            "command",
            Json::Arr(
                [
                    "cargo",
                    "run",
                    "--release",
                    "--quiet",
                    "--offline",
                    "--manifest-path",
                    "benchmark/Cargo.toml",
                    "--",
                ]
                .into_iter()
                .map(Json::str)
                .collect(),
            ),
        ),
        ("paths", Json::Arr(vec![Json::str("benchmark")])),
        ("run_seconds", Json::num(RUN_SECONDS)),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|(name, why)| {
                        Json::obj([("name", Json::str(*name)), ("why", Json::str(*why))])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(END_TO_END.iter().map(|m| metric(m, true)).collect()),
        ),
        (
            "per_layer",
            Json::Arr(PER_LAYER.iter().map(|m| metric(m, false)).collect()),
        ),
    ])
}

/// `manifest()` laid out one entry per line, as committed.
pub fn manifest_text() -> String {
    let doc = manifest();
    let mut out = String::from("{\n");
    let fields = doc.fields();
    for (i, (key, value)) in fields.iter().enumerate() {
        let last = i + 1 == fields.len();
        match value {
            Json::Arr(items) if items.iter().all(|v| matches!(v, Json::Obj(_))) => {
                out.push_str(&format!("  \"{key}\": [\n"));
                for (j, item) in items.iter().enumerate() {
                    let comma = if j + 1 == items.len() { "" } else { "," };
                    out.push_str(&format!("    {}{comma}\n", item.render()));
                }
                out.push_str("  ]");
            }
            other => out.push_str(&format!("  \"{key}\": {}", other.render())),
        }
        out.push_str(if last { "\n" } else { ",\n" });
    }
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut seen = std::collections::BTreeSet::new();
        let names = WORKLOADS
            .iter()
            .map(|w| w.0)
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.name));
        for name in names {
            assert!(seen.insert(name), "{name} used twice");
            assert!(name.len() <= 64);
            assert!(name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        assert!((2..=8).contains(&WORKLOADS.len()));
        for (name, _) in WORKLOADS {
            assert!(
                crate::run::Workload::named(name).is_some(),
                "{name} is not runnable"
            );
        }
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        assert!(WORKLOADS
            .iter()
            .all(|w| w.1.len() <= 200 && !w.1.contains('\n')));
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(m.unit.len() <= 16, "{}", m.unit);
            assert!(matches!(m.better, "lower" | "higher"));
        }
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", "lower"));
        for m in END_TO_END {
            assert!(m.bound <= setup.bound, "setup_s takes the largest bound");
            assert!(m.bound <= 0.25, "the contract's cap");
        }
    }

    #[test]
    fn committed_manifest_is_what_the_tables_say() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert!(committed.len() <= 64 * 1024);
        assert_eq!(
            json::parse(&committed).expect("BENCHMARK.json parses"),
            manifest(),
            "regenerate with `benchmark --print-manifest > BENCHMARK.json`"
        );
        assert_eq!(json::parse(&manifest_text()).unwrap(), manifest());
    }
}
