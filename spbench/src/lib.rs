//! The SP-cache store benchmark.
//!
//! Three workloads — `zipf_read`, `write_mix` and `fail_heal` — run
//! against the real store through its public API from one process with
//! at most two client threads, check every byte they read, and report
//! end-to-end metrics (untraced run) or per-layer metrics (traced run).
//! See `spbench/README.md` for what each workload loads and why.

pub mod common;
pub mod corpus;
pub mod fail_heal;
pub mod trace;
pub mod write_mix;
pub mod zipf_read;

use std::path::PathBuf;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;

use common::{E2e, Env, LayerAcc, Measured, Options, Tally};
use corpus::Corpus;
use trace::Tracer;

/// The workloads, in the order the benchmark lists them.
pub const WORKLOADS: [&str; 3] = ["zipf_read", "write_mix", "fail_heal"];

/// The per-layer metrics a traced run reports: `(name, unit)`.
pub const LAYER_METRICS: &[(&str, &str)] = &[
    ("client.read_self_ms", "ms"),
    ("client.join_ms", "ms"),
    ("client.heals_per_read", "count"),
    ("master.locate_us", "us"),
    ("master.register_us", "us"),
    ("metalog.records_per_write", "count"),
    ("metalog.bytes_per_write", "B"),
    ("net.get_rtt_us", "us"),
    ("net.encode_mb_s", "MB/s"),
    ("net.decode_mb_s", "MB/s"),
    ("worker.get_us", "us"),
    ("worker.puts_per_write", "count"),
    ("worker.evictions_per_op", "count"),
    ("worker.spilled_mb", "MB"),
    ("worker.reloaded_mb", "MB"),
    ("throttle.fg_busy_max", "ratio"),
    ("throttle.fg_busy_mean", "ratio"),
    ("throttle.bg_utilization", "ratio"),
    ("integrity.sum_mb_s", "MB/s"),
    ("integrity.write_share", "ratio"),
    ("integrity.verify_share", "ratio"),
    ("ec.build_us", "us"),
    ("ec.encode_mb_s", "MB/s"),
    ("ec.decode_ms", "ms"),
    ("ec.decoded_share", "ratio"),
    ("supervisor.probe_ms", "ms"),
    ("supervisor.sweep_s", "s"),
    ("supervisor.healed_files", "count"),
    ("supervisor.healed_mb", "MB"),
    ("core.plan_ms", "ms"),
    ("core.repartition_s", "s"),
    ("core.moved_fraction", "ratio"),
    ("core.max_k", "count"),
];

/// Layers whose self time the traced run reports (`<layer>.self_ms`:
/// the layer's self time over the whole traced run, set-up included,
/// per measured operation).
pub const SELF_TIME_LAYERS: &[&str] = &[
    "client",
    "master",
    "net",
    "worker",
    "supervisor",
    "core",
    "integrity",
    "ec",
];

/// The outcome of one benchmark invocation.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// No read returned wrong bytes.
    pub correct: bool,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed or returned wrong bytes.
    pub failed: u64,
    /// `(name, value, unit)` of every reported metric.
    pub metrics: Vec<(String, f64, String)>,
}

impl Outcome {
    /// The one-line JSON result.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(n, v, u)| {
                format!(
                    "\"{n}\": {{\"value\": {}, \"unit\": \"{u}\"}}",
                    json_num(*v)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}

fn run_workload(env: &Env) -> Measured {
    match env.opts.workload.as_str() {
        "zipf_read" => zipf_read::run(env),
        "write_mix" => write_mix::run(env),
        "fail_heal" => fail_heal::run(env),
        other => unreachable!("workload {other} was validated by the caller"),
    }
}

fn env(opts: &Options, tracer: Option<Arc<Tracer>>, seconds: f64) -> Env {
    Env {
        opts: opts.clone(),
        tracer,
        corpus: Corpus::generate(opts.seed, opts.corpus_scale()),
        tally: Tally::default(),
        plant: AtomicBool::new(opts.plant_wrong_byte),
        seconds,
        layers: LayerAcc::default(),
    }
}

/// Where a traced run writes its spans: `out/` beside this package's
/// manifest.
pub fn spans_path(opts: &Options) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("spans-{}-{}.jsonl", opts.workload, opts.seed))
}

/// Runs one invocation. Untraced: the workload once, reporting its
/// end-to-end metrics. Traced: the workload untraced then traced, each
/// for half the time, reporting the per-layer metrics of the traced
/// half, its self time per layer, and the tracing overhead (traced −
/// untraced) of every end-to-end metric.
///
/// # Errors
///
/// An unknown workload name.
pub fn run(opts: &Options) -> Result<Outcome, String> {
    if !WORKLOADS.contains(&opts.workload.as_str()) {
        return Err(format!(
            "unknown workload {:?} (expected one of {WORKLOADS:?})",
            opts.workload
        ));
    }
    // Every workload runs under the allocator tuning the program's TCP
    // endpoints apply at start-up (`zipf_read` would trigger it anyway),
    // so all three see the same process-wide allocator behaviour.
    spcache_net::poll::tune_allocator_once();
    if !opts.trace {
        let env = env(opts, None, opts.seconds);
        let m = run_workload(&env);
        let metrics = m
            .e2e
            .metrics()
            .into_iter()
            .map(|(n, v, u)| (n.to_string(), v, u.to_string()))
            .collect();
        return Ok(outcome(&[&env], metrics));
    }
    let half = opts.seconds / 2.0;
    let plain = env(opts, None, half);
    let base = run_workload(&plain);
    let tracer = Arc::new(Tracer::new());
    let traced_env = env(opts, Some(tracer.clone()), half);
    let traced = run_workload(&traced_env);
    let path = spans_path(opts);
    if let Err(e) = tracer.write_jsonl(&path) {
        eprintln!("spbench: could not write spans to {}: {e}", path.display());
    }
    let metrics = layer_metrics(&traced_env, &tracer, &traced, &base.e2e);
    Ok(outcome(&[&plain, &traced_env], metrics))
}

fn outcome(envs: &[&Env], metrics: Vec<(String, f64, String)>) -> Outcome {
    let (mut attempted, mut failed, mut mismatched) = (0, 0, 0);
    for e in envs {
        let run = if e.tracer.is_some() {
            "traced"
        } else {
            "untraced"
        };
        eprintln!(
            "spbench: {} ({run}): {}",
            e.opts.workload,
            e.tally.summary()
        );
        let (a, f, m) = e.tally.counts();
        attempted += a;
        failed += f;
        mismatched += m;
    }
    Outcome {
        correct: mismatched == 0,
        attempted: attempted.max(1),
        failed,
        metrics,
    }
}

/// Mean duration in µs of the spans named `name`.
fn span_mean_us(spans: &[trace::Span], name: &str) -> f64 {
    let d: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.end_ns.saturating_sub(s.start_ns) as f64 / 1e3)
        .collect();
    if d.is_empty() {
        0.0
    } else {
        d.iter().sum::<f64>() / d.len() as f64
    }
}

fn mb_s(acc: &LayerAcc, bytes: &'static str, secs: &'static str) -> f64 {
    let s = acc.sum(secs);
    if s > 0.0 {
        acc.sum(bytes) / 1e6 / s
    } else {
        0.0
    }
}

fn layer_metrics(
    env: &Env,
    tracer: &Tracer,
    m: &Measured,
    base: &E2e,
) -> Vec<(String, f64, String)> {
    let spans = tracer.spans();
    let acc = &env.layers;
    let mut v = m.layer.clone();
    v.insert("client.read_self_ms", acc.mean("read_self_ms"));
    v.insert("client.join_ms", acc.mean("join_ms"));
    v.insert("master.locate_us", span_mean_us(&spans, "master.locate"));
    v.insert(
        "master.register_us",
        span_mean_us(&spans, "master.register"),
    );
    v.insert("net.get_rtt_us", acc.mean("get_rtt_us"));
    v.insert(
        "net.encode_mb_s",
        mb_s(acc, "net_encode_bytes", "net_encode_s"),
    );
    v.insert(
        "net.decode_mb_s",
        mb_s(acc, "net_decode_bytes", "net_decode_s"),
    );
    v.insert("worker.get_us", acc.mean("worker_get_us"));
    v.insert("integrity.sum_mb_s", mb_s(acc, "sum_bytes", "sum_s"));
    v.insert(
        "integrity.write_share",
        acc.ratio("sum_s", "replayed_write_s"),
    );
    v.insert(
        "integrity.verify_share",
        acc.ratio("verify_s", "verified_read_s"),
    );
    v.insert("ec.build_us", acc.mean("ec_build_us"));
    v.insert(
        "ec.encode_mb_s",
        mb_s(acc, "ec_encode_bytes", "ec_encode_s"),
    );
    v.insert("ec.decode_ms", acc.mean("ec_decode_ms"));
    let mut out: Vec<(String, f64, String)> = LAYER_METRICS
        .iter()
        .map(|&(name, unit)| {
            (
                name.to_string(),
                v.get(name).copied().unwrap_or(0.0),
                unit.to_string(),
            )
        })
        .collect();
    let (by_layer, ops) = trace::self_time_by_layer(&spans);
    for layer in SELF_TIME_LAYERS {
        let total = by_layer.get(layer).copied().unwrap_or(0.0);
        out.push((
            format!("{layer}.self_ms"),
            total * 1e3 / ops.max(1) as f64,
            "ms".to_string(),
        ));
    }
    for ((name, traced, unit), (_, untraced, _)) in m.e2e.metrics().into_iter().zip(base.metrics())
    {
        out.push((
            format!("overhead.{name}"),
            traced - untraced,
            unit.to_string(),
        ));
    }
    out
}
