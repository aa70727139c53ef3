//! The metrics `BENCHMARK.json` declares, with their units. Every workload
//! reports all of them: the end-to-end set on an untraced run, the
//! per-layer set on a traced one. A layer a workload does not exercise
//! (the server in a simulation workload, an application kind that is not
//! in its figures) reads 0.

/// Untraced runs: what a user of the simulator or the server sees.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("regen_s", "s"),
    ("warm_p50_ms", "ms"),
    ("warm_p90_ms", "ms"),
    ("warm_cpu_ms", "ms"),
];

/// Traced runs: each layer's share, seen from the benchmark's calls.
pub const PER_LAYER: [(&str, &str); 56] = [
    ("figures.spec_ms", "ms"),
    ("sweep.prepare_ms", "ms"),
    ("cache.open_ms", "ms"),
    ("cache.lookups", "count"),
    ("cache.hit_ratio", "ratio"),
    ("cache.load_ms", "ms"),
    ("cache.stores", "count"),
    ("cache.store_ms", "ms"),
    ("cache.store_kb", "KB"),
    ("report.assemble_ms", "ms"),
    ("serde.serialize_ms", "ms"),
    ("serde.out_kb", "KB"),
    ("apps.jobs", "count"),
    ("apps.job_s", "s"),
    ("apps.job_max_s", "s"),
    ("apps.cam.job_s", "s"),
    ("apps.cam.ns_per_span", "ns/span"),
    ("apps.cam_best.job_s", "s"),
    ("apps.cam_best.ns_per_span", "ns/span"),
    ("apps.pop.job_s", "s"),
    ("apps.pop.ns_per_span", "ns/span"),
    ("apps.aorsa.job_s", "s"),
    ("apps.aorsa.ns_per_span", "ns/span"),
    ("net.flow_spans", "count"),
    ("mpi.p2p_spans", "count"),
    ("mpi.collective_spans", "count"),
    ("mpi.compute_spans", "count"),
    ("serve.http.post_ms", "ms"),
    ("serve.http.poll_ms", "ms"),
    ("serve.polls_per_run", "polls/run"),
    ("serve.poll_waste_ratio", "ratio"),
    ("serve.queue.wait_p50_ms", "ms"),
    ("serve.queue.wait_p99_ms", "ms"),
    ("serve.exec_ms", "ms"),
    ("sweep.wall_ms", "ms"),
    ("serve.exec_overhead_ms", "ms"),
    ("serve.warm_p99_ms", "ms"),
    ("serve.read_p50_ms", "ms"),
    ("serve.read_p90_ms", "ms"),
    ("serve.http.stats_ms", "ms"),
    ("serve.http.runs_ms", "ms"),
    ("serve.http.metrics_ms", "ms"),
    ("serve.runs_kb", "KB"),
    ("serve.registry_kb", "KB"),
    ("serve.rss_kb_per_run", "KB"),
    ("cache.mem_hit_ratio", "ratio"),
    ("serve.busy_ms.post_runs", "ms"),
    ("serve.busy_ms.get_runs_id_result", "ms"),
    ("serve.busy_ms.get_stats", "ms"),
    ("serve.busy_ms.get_runs", "ms"),
    ("serve.busy_ms.get_metrics", "ms"),
    ("serve.busy_ms.get_root", "ms"),
    ("serve.cold.computed_jobs", "count"),
    ("serve.cold.exec_s", "s"),
    ("serve.errors", "ratio"),
    ("bench.trace_overhead_pct", "%"),
];

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Value;

    /// The manifest at the repository root declares exactly these metrics,
    /// in this order, with these units.
    #[test]
    fn tables_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
        let v: Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
        let declared = |key: &str| -> Vec<(String, String)> {
            v.as_object().unwrap()[key]
                .as_array()
                .unwrap()
                .iter()
                .map(|m| {
                    let m = m.as_object().unwrap();
                    let s = |k: &str| m[k].as_str().unwrap().to_string();
                    (s("name"), s("unit"))
                })
                .collect()
        };
        let own = |t: &[(&str, &str)]| -> Vec<(String, String)> {
            t.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(declared("end_to_end"), own(&END_TO_END));
        assert_eq!(declared("per_layer"), own(&PER_LAYER));
    }
}
