//! Metric records, the result line the driver reads, and the check of
//! emitted names and units against `BENCHMARK.json`.

use serde::Value;

/// Metrics in emission order: name, value, unit.
#[derive(Default)]
pub struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let name = name.into();
        assert!(
            self.0.iter().all(|(n, _, _)| *n != name),
            "metric {name} emitted twice"
        );
        self.0.push((name, value, unit));
    }

    pub fn iter(&self) -> impl Iterator<Item = &(String, f64, &'static str)> {
        self.0.iter()
    }

    /// `{name: {"value": v, "unit": u}}`, the shape of the result line.
    pub fn to_value(&self) -> Value {
        Value::Object(
            self.0
                .iter()
                .map(|(name, value, unit)| {
                    (
                        name.clone(),
                        Value::Object(vec![
                            ("value".into(), Value::F64(*value)),
                            ("unit".into(), Value::Str((*unit).into())),
                        ]),
                    )
                })
                .collect(),
        )
    }
}

/// What one mode of one workload produced.
pub struct Report {
    pub metrics: Metrics,
    /// Everything that explains a disagreeing pair of runs but is not a
    /// metric: repetition counts, per-step median/p90, pass wall-clocks.
    pub diagnostics: Value,
    /// The benchmark-owned span list of a traced run.
    pub spans: Option<Value>,
}

/// Which list of `BENCHMARK.json` a mode must emit.
pub fn metric_list(trace: bool) -> &'static str {
    if trace {
        "per_layer"
    } else {
        "end_to_end"
    }
}

/// The string field `key` of every entry of `BENCHMARK.json`'s `list`.
pub fn declared_field(
    benchmark_json: &Value,
    list: &str,
    key: &str,
) -> Result<Vec<String>, String> {
    let lookup = |object: &Value, key: &str| {
        object
            .as_object()
            .and_then(|o| o.iter().find(|(k, _)| k == key))
            .map(|(_, v)| v.clone())
    };
    let entries = lookup(benchmark_json, list)
        .and_then(|v| v.as_array().map(<[Value]>::to_vec))
        .ok_or_else(|| format!("BENCHMARK.json has no `{list}` array"))?;
    entries
        .iter()
        .map(|entry| {
            lookup(entry, key)
                .and_then(|v| v.as_str().map(str::to_string))
                .ok_or_else(|| format!("`{list}` entry without `{key}`"))
        })
        .collect()
}

/// Names and units `BENCHMARK.json` declares under `list`.
pub fn declared(benchmark_json: &Value, list: &str) -> Result<Vec<(String, String)>, String> {
    let names = declared_field(benchmark_json, list, "name")?;
    let units = declared_field(benchmark_json, list, "unit")?;
    Ok(names.into_iter().zip(units).collect())
}

/// Every mismatch between emitted and declared metrics: missing, extra, or
/// declared with another unit.
pub fn schema_mismatches(metrics: &Metrics, declared: &[(String, String)]) -> Vec<String> {
    let mut problems = Vec::new();
    for (name, unit) in declared {
        match metrics.iter().find(|(n, _, _)| n == name) {
            None => problems.push(format!("{name}: declared but not emitted")),
            Some((_, _, emitted)) if emitted != unit => {
                problems.push(format!("{name}: unit {emitted} emitted, {unit} declared"));
            }
            Some(_) => {}
        }
    }
    for (name, _, _) in metrics.iter() {
        if !declared.iter().any(|(n, _)| n == name) {
            problems.push(format!("{name}: emitted but not declared"));
        }
    }
    problems
}
