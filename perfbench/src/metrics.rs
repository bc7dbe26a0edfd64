//! The names, units and direction of every metric the benchmark prints.
//! `BENCHMARK.json` lists the same names; `tests/bench_smoke.rs` holds
//! the two together.

/// `(name, unit, better)`.
pub type MetricDef = (&'static str, &'static str, &'static str);

/// What a user of the system sees. Measured with tracing off.
pub const END_TO_END: &[MetricDef] = &[
    ("setup_s", "s", "lower"),
    ("oneshot_s", "s", "lower"),
    ("refresh_p50_ms", "ms", "lower"),
    ("refresh_p90_ms", "ms", "lower"),
    ("refresh_edges_per_s", "1/s", "higher"),
    ("store_mb", "MiB", "lower"),
];

/// One layer each. Times are means per timed batch unless the name says
/// otherwise; counts and bytes are totals over the timed batches of one
/// replay. A metric a workload does not exercise reads 0.
pub const PER_LAYER: &[MetricDef] = &[
    ("lnga.frontend_us", "us", "lower"),
    ("compiler.compile_us", "us", "lower"),
    ("compiler.delta_subqueries", "count", "lower"),
    ("engine.session.build_ms", "ms", "lower"),
    ("engine.transport.bootstrap_bytes", "B", "lower"),
    ("engine.session.apply_ms", "ms", "lower"),
    ("store.edge.commit_us", "us", "lower"),
    ("engine.session.run_inc_ms", "ms", "lower"),
    ("engine.session.supersteps", "count", "lower"),
    ("engine.session.schedule_ms", "ms", "lower"),
    ("engine.session.setup_ms", "ms", "lower"),
    ("engine.session.pruning_ms", "ms", "lower"),
    ("engine.session.refresh_drift", "ratio", "lower"),
    ("store.edge.delta_segments", "count", "lower"),
    ("store.edge.neighbors_ns", "ns", "lower"),
    ("engine.walker.traverse_ms", "ms", "lower"),
    ("engine.walker.seek_ms", "ms", "lower"),
    ("engine.walker.join_ms", "ms", "lower"),
    ("engine.walker.action_ms", "ms", "lower"),
    ("engine.walker.walks", "count", "lower"),
    ("engine.walker.starts", "count", "lower"),
    ("engine.walker.ns_per_walk", "ns", "lower"),
    ("engine.walker.action_ns_per_walk", "ns", "lower"),
    ("engine.vexec.update_ms", "ms", "lower"),
    ("engine.accum.accumulate_ms", "ms", "lower"),
    ("engine.accum.recompute_ms", "ms", "lower"),
    ("engine.accum.recomputed_vertices", "count", "lower"),
    ("engine.accum.recompute_triggers", "count", "lower"),
    ("engine.accum.wcc_stale_labels", "count", "lower"),
    ("store.vertex.attr_load_ms", "ms", "lower"),
    ("store.vertex.attr_record_ms", "ms", "lower"),
    ("store.vertex.merge_ms", "ms", "lower"),
    ("store.vertex.advance_ms", "ms", "lower"),
    ("store.vertex.cache_hit_rate", "ratio", "higher"),
    ("store.vertex.cache_evictions", "count", "lower"),
    ("store.pager.page_reads", "count", "lower"),
    ("store.pager.hit_rate", "ratio", "higher"),
    ("store.pager.disk_read_bytes", "B", "lower"),
    ("store.pager.disk_write_bytes", "B", "lower"),
    ("engine.transport.exchange_ms", "ms", "lower"),
    ("engine.transport.barrier_wait_ms", "ms", "lower"),
    ("engine.transport.net_bytes", "B", "lower"),
    ("engine.transport.messages", "count", "lower"),
    ("engine.wire.encode_ns_per_kb", "ns/KiB", "lower"),
    ("engine.wire.decode_ns_per_kb", "ns/KiB", "lower"),
    ("store.wal.append_us", "us", "lower"),
    ("store.wal.fsyncs", "count", "lower"),
    ("store.wal.rotations", "count", "lower"),
    ("store.wal.bytes", "B", "lower"),
    ("engine.durability.checkpoint_p50_ms", "ms", "lower"),
    ("engine.durability.recover_ms", "ms", "lower"),
    ("engine.durability.replayed_records", "count", "lower"),
    ("engine.durability.state_image_ms", "ms", "lower"),
    ("store.durable_bytes_per_mutation", "B", "lower"),
    ("store.delta.encode_ms", "ms", "lower"),
    ("store.delta.apply_ms", "ms", "lower"),
    ("store.snapshot.full_bytes", "B", "lower"),
    ("store.snapshot.delta_ratio", "ratio", "lower"),
    ("obs.overhead_ratio", "ratio", "lower"),
    ("obs.coverage", "ratio", "higher"),
    ("baselines.graphbolt_refresh_ms", "ms", "lower"),
    ("baselines.dd_tc_refresh_ms", "ms", "lower"),
    ("baselines.gap_ratio", "ratio", "lower"),
    ("process.peak_rss_mb", "MiB", "lower"),
];

/// Per-layer metrics that are exact counts: they must repeat bit for bit
/// between runs of one commit on one seed.
pub const EXACT: &[&str] = &[
    "compiler.delta_subqueries",
    "engine.transport.bootstrap_bytes",
    "engine.session.supersteps",
    "store.edge.delta_segments",
    "engine.walker.walks",
    "engine.walker.starts",
    "engine.accum.recomputed_vertices",
    "engine.accum.wcc_stale_labels",
    "store.vertex.cache_evictions",
    "store.pager.page_reads",
    "store.pager.disk_read_bytes",
    "store.pager.disk_write_bytes",
    "engine.transport.net_bytes",
    "engine.durability.replayed_records",
    "store.snapshot.full_bytes",
];

/// Measured values in the order of one of the tables above.
#[derive(Debug, Clone, Default)]
pub struct Metrics(Vec<(&'static str, f64)>);

impl Metrics {
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            !self.0.iter().any(|(n, _)| *n == name),
            "metric {name} set twice"
        );
        // A ratio over an empty layer is 0, not NaN: JSON has no NaN.
        self.0
            .push((name, if value.is_finite() { value } else { 0.0 }));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| *n == name).map(|(_, v)| *v)
    }

    /// The values in table order; a name the run did not set is a bug.
    pub fn in_order(&self, table: &'static [MetricDef]) -> Vec<(MetricDef, f64)> {
        assert_eq!(
            self.0.len(),
            table.len(),
            "every metric is set exactly once"
        );
        table
            .iter()
            .map(|def| {
                let v = self
                    .get(def.0)
                    .unwrap_or_else(|| panic!("metric {} was not set", def.0));
                (*def, v)
            })
            .collect()
    }
}

/// `{"name": {"value": v, "unit": "u"}, …}` on one line.
pub fn metrics_json(values: &[(MetricDef, f64)]) -> String {
    let body: Vec<String> = values
        .iter()
        .map(|((name, unit, _), v)| format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"))
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// The middle sample, or the mean of the two middle ones; 0 for none.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// The `q`-quantile by nearest rank; 0 for no samples.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[((sorted.len() - 1) as f64 * q).round() as usize]
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}
