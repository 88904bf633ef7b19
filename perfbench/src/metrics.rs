//! The benchmark's metric catalogue (mirrored by `BENCHMARK.json`, which
//! a test checks) and the result line it prints.

use std::collections::BTreeMap;

/// End-to-end metrics: `(name, unit)`. Reported by every workload.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("throughput", "1/s"),
    ("p50_ms", "ms"),
    ("tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("code_bytes", "bytes"),
];

/// Per-layer metrics of the traced run: `(name, unit)`. A layer the
/// workload never calls reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("frontend.parse_ms", "ms"),
    ("frontend.lower_ms", "ms"),
    ("frontend.listing_ms", "ms"),
    ("frontend.lines", "count"),
    ("ag.implicit_ms", "ms"),
    ("ag.circularity_ms", "ms"),
    ("ag.dataflow_ms", "ms"),
    ("ag.passes_ms", "ms"),
    ("ag.lifetimes_ms", "ms"),
    ("ag.subsumption_ms", "ms"),
    ("ag.plan_ms", "ms"),
    ("ag.lint_ms", "ms"),
    ("ag.passes", "count"),
    ("ag.copies_subsumed", "count"),
    ("ag.folded", "count"),
    ("ag.eliminated", "count"),
    ("ag.collapsed", "count"),
    ("codegen.emit_ms", "ms"),
    ("codegen.rustgen_ms", "ms"),
    ("codegen.emit_bytes", "bytes"),
    ("lalr.tables_ms", "ms"),
    ("lalr.states", "count"),
    ("lexgen.build_ms", "ms"),
    ("lexgen.scan_ms", "ms"),
    ("lexgen.tokens", "count"),
    ("frontend.intrinsics_ms", "ms"),
    ("lalr.parse_ms", "ms"),
    ("eval.nodes", "count"),
    ("eval.evaluate_ms", "ms"),
    ("eval.us_per_node", "us"),
    ("eval.pass_ms", "ms"),
    ("eval.passes", "count"),
    ("eval.records_written", "count"),
    ("eval.apt_bytes", "bytes"),
    ("eval.rules", "count"),
    ("eval.globals_checked", "count"),
    ("eval.max_depth", "count"),
    ("engine.prepare_ms", "ms"),
    ("engine.evaluate_ms", "ms"),
    ("engine.raw_ms", "ms"),
    ("engine.abi_ms", "ms"),
    ("engine.fallback_share", "ratio"),
    ("serve.rtt_ms", "ms"),
    ("serve.job_ms", "ms"),
    ("serve.queue_ms", "ms"),
    ("serve.transport_ms", "ms"),
    ("serve.router_hop_ms", "ms"),
    ("support.json_ms", "ms"),
    ("serve.load_compile_ms", "ms"),
    ("serve.store_hit_ratio", "ratio"),
    ("serve.store_evictions", "count"),
    ("serve.pool_rejected", "count"),
    ("serve.router_attempts_per_request", "ratio"),
    ("serve.router_failovers", "count"),
    ("serve.gen_lateness_ms", "ms"),
    ("trace.overhead_ms", "ms"),
    ("trace.overhead_share", "ratio"),
    ("trace.uncovered_share", "ratio"),
];

/// One measured value with the sample count behind it.
#[derive(Clone, Debug)]
pub struct Value {
    pub value: f64,
    pub samples: usize,
    pub note: String,
}

/// What a workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (warm-up included).
    pub attempted: u64,
    /// Operations that failed or gave a wrong output.
    pub failed: u64,
    /// The first few failure descriptions.
    pub failures: Vec<String>,
    /// Metric values by name.
    pub values: BTreeMap<String, Value>,
}

impl Outcome {
    /// Record a metric.
    pub fn put(&mut self, name: &str, value: f64, samples: usize, note: impl Into<String>) {
        self.values.insert(
            name.to_string(),
            Value {
                value,
                samples,
                note: note.into(),
            },
        );
    }

    /// Count one operation, failed if `err` is set.
    pub fn record(&mut self, err: Option<String>) {
        self.attempted += 1;
        if let Some(e) = err {
            self.fail(e);
        }
    }

    /// Count a failure against an operation already attempted.
    pub fn fail(&mut self, e: String) {
        self.failed += 1;
        if self.failures.len() < 8 {
            self.failures.push(e);
        }
    }
}

/// Print the human-readable report and the final JSON result line for
/// `catalogue`. Returns whether the run was correct. A metric in the
/// catalogue that the workload did not produce is an error unless
/// `zero_if_absent` (per-layer metrics of layers off the workload's
/// path); a produced metric outside the catalogue is always an error.
pub fn emit(
    workload: &str,
    out: &Outcome,
    catalogue: &[(&str, &str)],
    zero_if_absent: bool,
) -> Result<bool, String> {
    for name in out.values.keys() {
        if !catalogue.iter().any(|(n, _)| n == name) {
            return Err(format!("metric `{name}` is not in the catalogue"));
        }
    }
    let failed_share = out.failed as f64 / out.attempted.max(1) as f64;
    println!("workload {workload}");
    let mut json = String::from("{");
    for (i, (name, unit)) in catalogue.iter().enumerate() {
        let v = match out.values.get(*name) {
            Some(v) => v.clone(),
            None if zero_if_absent => Value {
                value: 0.0,
                samples: 0,
                note: "layer not on this workload's path".into(),
            },
            None => return Err(format!("workload produced no `{name}`")),
        };
        if !v.value.is_finite() {
            return Err(format!("metric `{name}` is not finite"));
        }
        println!(
            "  {name:<36} {:>14.6} {unit:<6} n={:<7} {}",
            v.value, v.samples, v.note
        );
        if i > 0 {
            json.push_str(", ");
        }
        json.push_str(&format!(
            "\"{name}\": {{\"value\": {:?}, \"unit\": \"{unit}\"}}",
            v.value
        ));
    }
    json.push('}');
    println!(
        "  {:<36} {:>14.6} {:<6} n={:<7} failed {} of {} attempted",
        "failed_share", failed_share, "ratio", out.attempted, out.failed, out.attempted
    );
    for f in &out.failures {
        println!("  FAILED: {f}");
    }
    let correct = out.failed == 0 && out.attempted > 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {json}}}",
        out.attempted, out.failed
    );
    Ok(correct)
}

/// Peak resident set (VmHWM) of process `pid`, in MiB.
pub fn peak_rss_mb(pid: u32) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use linguist_support::json::Json;

    #[test]
    fn catalogue_matches_benchmark_json() {
        let doc = Json::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json");
        let names = |key: &str| -> Vec<(String, String)> {
            doc.get(key)
                .and_then(Json::as_arr)
                .expect(key)
                .iter()
                .map(|m| {
                    (
                        m.get("name").and_then(Json::as_str).unwrap().to_string(),
                        m.get("unit").and_then(Json::as_str).unwrap().to_string(),
                    )
                })
                .collect()
        };
        let own = |c: &[(&str, &str)]| -> Vec<(String, String)> {
            c.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(names("end_to_end"), own(END_TO_END));
        assert_eq!(names("per_layer"), own(PER_LAYER));
    }

    #[test]
    fn rss_of_self_is_positive() {
        assert!(peak_rss_mb(std::process::id()).unwrap() > 0.0);
    }
}
