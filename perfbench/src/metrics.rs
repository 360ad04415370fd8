//! Metric names and units, and the printed result.

/// A metric's name and unit.
pub type MetricDef = (&'static str, &'static str);

/// End-to-end metrics: reported by every untraced run (`--trace 0`).
pub const END_TO_END: [MetricDef; 6] = [
    ("host_s", "s"),
    ("sim_instrs_per_s", "1/s"),
    ("sim_cycles_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("sim_ipc", "instr/cycle"),
];

/// End-to-end figures printed by name but not part of the result
/// object: `paper_err` exists for one workload only, and `cells_failed`
/// is the result's `failed` field (and must be 0).
pub const END_TO_END_EXTRA: [MetricDef; 2] = [("paper_err", "ratio"), ("cells_failed", "count")];

/// Per-layer metrics: reported by every traced run (`--trace 1`).
/// Layers absent from a workload report 0.
pub const PER_LAYER: [MetricDef; 52] = [
    ("multiscalar.self_ns_per_sim_cycle", "ns"),
    ("multiscalar.self_frac", "ratio"),
    ("multiscalar.squashes", "count"),
    ("multiscalar.useful_frac", "ratio"),
    ("workloads.task_ns", "ns"),
    ("workloads.task_calls", "count"),
    ("workloads.self_frac", "ratio"),
    ("svc.load_ns", "ns"),
    ("svc.load_calls", "count"),
    ("svc.store_ns", "ns"),
    ("svc.store_calls", "count"),
    ("svc.commit_ns", "ns"),
    ("svc.commit_calls", "count"),
    ("svc.squash_ns", "ns"),
    ("svc.squash_calls", "count"),
    ("svc.assign_ns", "ns"),
    ("svc.assign_calls", "count"),
    ("svc.self_frac", "ratio"),
    ("svc.transfers", "count"),
    ("svc.snarfs", "count"),
    ("svc.writebacks", "count"),
    ("svc.miss_ratio", "ratio"),
    ("arb.load_ns", "ns"),
    ("arb.store_ns", "ns"),
    ("arb.commit_ns", "ns"),
    ("arb.squash_ns", "ns"),
    ("arb.self_frac", "ratio"),
    ("arb.miss_ratio", "ratio"),
    ("mem.bus_transactions", "count"),
    ("mem.bus_utilization", "ratio"),
    ("mem.bus_wait_cycles", "count"),
    ("mem.fills", "count"),
    ("mem.mshr_combines", "count"),
    ("mem.wb_stall_cycles", "count"),
    ("svc.watchdog.sweep_ns", "ns"),
    ("svc.watchdog.sweeps", "count"),
    ("svc.watchdog.post_squash_ns", "ns"),
    ("arb.watchdog.sweep_ns", "ns"),
    ("watchdog.self_frac", "ratio"),
    ("sim.trace.records", "count"),
    ("sim.trace.dropped", "count"),
    ("sim.trace.render_ns", "ns"),
    ("sim.profile.gauges_ns", "ns"),
    ("sim.profile.report_ns", "ns"),
    ("sim.checkpoint.save_ns", "ns"),
    ("sim.checkpoint.restore_ns", "ns"),
    ("sim.checkpoint.bytes", "count"),
    ("sim.self_frac", "ratio"),
    ("sim.hooks_frac", "ratio"),
    ("bench.probe_ns", "ns"),
    ("bench.probe_overhead_frac", "ratio"),
    ("bench.probe_model_err", "ratio"),
];

/// Whether `name` is a valid metric or workload name: it starts with a
/// letter or digit and has at most 64 letters, digits, `_`, `.`, `-`.
pub fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Whether `unit` is a valid unit: at most 16 letters, digits, `_`, `/`,
/// `%`, `.`, `-`.
pub fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

/// Measured values by metric name, in insertion order.
#[derive(Debug, Clone, Default)]
pub struct Values(Vec<(String, f64)>);

impl Values {
    /// Records `name = value`, replacing an earlier value.
    pub fn set(&mut self, name: &str, value: f64) {
        match self.0.iter_mut().find(|(n, _)| n == name) {
            Some(slot) => slot.1 = value,
            None => self.0.push((name.to_string(), value)),
        }
    }

    /// The value of `name`, if recorded.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }
}

/// `(name, unit, value)` for every definition in `defs` that `values`
/// holds, the name prefixed with `prefix`.
pub fn select(defs: &[MetricDef], values: &Values, prefix: &str) -> Vec<(String, String, f64)> {
    defs.iter()
        .filter_map(|&(name, unit)| {
            values
                .get(name)
                .map(|v| (format!("{prefix}{name}"), unit.to_string(), v))
        })
        .collect()
}

/// Prints one `metric <name> <value> <unit>` line per metric.
pub fn print_lines(metrics: &[(String, String, f64)]) {
    for (name, unit, v) in metrics {
        println!("metric {name:<48} {v:>22} {unit}");
    }
}

/// The result object: the last line the benchmark prints. A non-finite
/// value is an error.
pub fn result_json(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(String, String, f64)],
) -> Result<String, String> {
    let mut fields = Vec::new();
    for (name, unit, v) in metrics {
        if !v.is_finite() {
            return Err(format!("metric {name} is not finite: {v}"));
        }
        fields.push(format!(
            "\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
        ));
    }
    Ok(format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        fields.join(", ")
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_and_units_are_valid_and_unique() {
        let all: Vec<MetricDef> = END_TO_END
            .iter()
            .chain(&END_TO_END_EXTRA)
            .chain(&PER_LAYER)
            .copied()
            .collect();
        for (i, (name, unit)) in all.iter().enumerate() {
            assert!(valid_name(name), "{name}");
            assert!(valid_unit(unit), "{unit}");
            assert!(all[..i].iter().all(|(n, _)| n != name), "duplicate {name}");
        }
        assert!(!valid_name(".x") && !valid_name("a b") && !valid_name(&"a".repeat(65)));
        assert!(!valid_unit("") && !valid_unit("m s"));
    }

    #[test]
    fn result_json_renders_and_rejects_non_finite() {
        let mut v = Values::default();
        v.set("host_s", 1.5);
        let defs = [("host_s", "s"), ("setup_s", "s")];
        let picked = select(&defs, &v, "");
        assert_eq!(picked.len(), 1, "unmeasured metrics are not selected");
        assert_eq!(
            result_json(true, 3, 0, &picked).unwrap(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"host_s\": {\"value\": 1.5, \"unit\": \"s\"}}}"
        );
        v.set("host_s", f64::NAN);
        assert!(result_json(true, 3, 0, &select(&defs, &v, "")).is_err());
    }
}
