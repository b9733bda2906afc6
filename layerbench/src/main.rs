//! The repository's benchmark harness.
//!
//! ```text
//! cargo run --release --offline --manifest-path layerbench/Cargo.toml -- \
//!     --workload table|compile|serve --seed N --seconds S --trace 0|1
//! ```
//!
//! One process, no children. With `--trace 0` it times the workload with
//! tracing off and prints the end-to-end metrics; with `--trace 1` it
//! times half the window untraced and half traced, and prints the
//! per-layer metrics. Every op's output is checked against a reference
//! that does not come from the timed path; any mismatch fails the run.
//! The last stdout line is the result object; the line before it is the
//! run's provenance. README.md maps each metric to its layer.

mod compile;
mod measure;
mod serve;
mod table;
mod trace;

use std::fmt::Write as _;
use std::path::PathBuf;

use bsched_bench::table2_rows;
use bsched_cpusim::ProcessorModel;
use bsched_pipeline::{try_evaluate_serial, EvalConfig, Pipeline, SchedulerChoice};
use bsched_verify::ValidationLevel;
use bsched_workload::perfect_club;

use measure::{median, Latencies, Phase};
use trace::Tracer;

/// Setups per run; `setup_s` is their median.
const SETUPS: usize = 9;
/// Spans written to the run's span file (all of them stay in memory
/// for the metrics; a long traced run records millions).
const SPAN_FILE_LIMIT: usize = 200_000;
/// `attribution.error_pct` above this fails a traced run.
pub const ATTRIBUTION_TOLERANCE_PCT: f64 = 15.0;
/// The `sched_cycles` guard's fixed conditions.
const GUARD_ROW: &str = "N(3,5) @ 3";
const GUARD_RUNS: u32 = 30;
const GUARD_SEED: u64 = 0x5EED;

/// The compile pipeline every workload uses, with nothing read from the
/// environment.
pub fn pinned_pipeline() -> Pipeline {
    Pipeline {
        validation: ValidationLevel::Off,
        analysis: bsched_pipeline::pipeline::AnalysisGate::Off,
        ..Pipeline::default()
    }
}

#[derive(Debug, Clone)]
pub struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
    samples: usize,
}

/// What a workload run produced.
pub struct Outcome {
    workload: &'static str,
    threads: usize,
    setup_s: Vec<f64>,
    attempted: u64,
    failed: u64,
    end_to_end: Vec<Metric>,
    layers: Vec<Metric>,
    errors: Vec<String>,
    /// Extra provenance facts, as JSON values.
    notes: Vec<(&'static str, String)>,
    tracer: Option<Tracer>,
}

impl Outcome {
    pub fn new(workload: &'static str, threads: usize, setup_s: Vec<f64>) -> Self {
        Outcome {
            workload,
            threads,
            setup_s,
            attempted: 0,
            failed: 0,
            end_to_end: Vec::new(),
            layers: Vec::new(),
            errors: Vec::new(),
            notes: Vec::new(),
            tracer: None,
        }
    }

    fn e2e(&mut self, name: &str, value: f64, unit: &'static str, samples: usize) {
        self.end_to_end.push(Metric {
            name: name.to_owned(),
            value,
            unit,
            samples,
        });
    }

    /// Records a per-layer metric.
    pub fn layer(&mut self, name: &str, value: f64, unit: &'static str) {
        self.layers.push(Metric {
            name: name.to_owned(),
            value,
            unit,
            samples: 0,
        });
    }

    /// Records a fact in the run's provenance.
    pub fn note(&mut self, key: &'static str, json_value: String) {
        self.notes.push((key, json_value));
    }

    pub fn fail(&mut self, error: String) {
        self.errors.push(error);
    }

    /// Adds a phase's attempted and failed ops to the run's counts.
    pub fn count(&mut self, phase: &Phase) {
        self.attempted += phase.attempted;
        self.failed += phase.attempted - phase.correct;
    }

    /// Counts ops whose output failed a check made after the window.
    pub fn fail_ops(&mut self, n: u64) {
        self.failed += n;
    }

    /// Counts an untraced phase and takes the timing metrics every
    /// workload reports from it: its throughput, the p50 of `p50_of` and
    /// the p99 of `p99_of` (the phase's own latencies, except on `serve`).
    pub fn absorb(&mut self, phase: &Phase, p50_of: &Latencies, p99_of: &Latencies) {
        self.count(phase);
        self.e2e(
            "throughput_ops_s",
            phase.throughput(),
            "1/s",
            phase.lat.len(),
        );
        for (name, lat, p) in [
            ("latency_p50_ms", p50_of, 0.50),
            ("latency_p99_ms", p99_of, 0.99),
        ] {
            match lat.percentile(p) {
                Ok(v) => self.e2e(name, v, "ms", lat.len()),
                Err(e) => self.fail(e),
            }
        }
    }

    /// Correct ops over attempted ops.
    fn ok_ratio(&self) -> f64 {
        (self.attempted - self.failed.min(self.attempted)) as f64 / self.attempted.max(1) as f64
    }

    /// `trace.overhead_pct` and `attribution.error_pct`: the traced
    /// throughput against the untraced one, and the op time the layer
    /// spans account for (`attributed_ms` per op) against the untraced
    /// op time.
    pub fn trace_summary(&mut self, plain: &Phase, traced: &Phase, attributed_ms: f64) {
        let overhead = (plain.throughput() - traced.throughput()) / plain.throughput() * 100.0;
        self.layer("trace.overhead_pct", overhead, "%");
        let measured = plain.lat.mean_ms();
        let error = (attributed_ms - measured).abs() / measured * 100.0;
        self.layer("attribution.error_pct", error, "%");
        if error > ATTRIBUTION_TOLERANCE_PCT {
            self.fail(format!(
                "attribution error {error:.1}% exceeds {ATTRIBUTION_TOLERANCE_PCT}% \
                 (layers {attributed_ms:.4} ms/op, measured {measured:.4} ms/op)"
            ));
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    Table,
    Compile,
    Serve,
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, false);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(match value.as_str() {
                    "table" => Workload::Table,
                    "compile" => Workload::Compile,
                    "serve" => Workload::Serve,
                    other => {
                        return Err(format!("unknown workload {other:?} (table|compile|serve)"))
                    }
                });
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 60.0) {
                    return Err("--seconds must be in (0, 60]".to_owned());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
                };
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
    })
}

/// Every environment variable the library's `Default`s read, pinned
/// per workload before any library code runs.
fn pinned_env(w: Workload, seed: u64) -> Vec<(&'static str, String)> {
    let threads = match w {
        // The table's evaluation fans out over at most two threads.
        Workload::Table => nproc().min(2),
        Workload::Compile | Workload::Serve => 1,
    };
    // The table's protocol seed comes from the benchmark seed (it picks
    // latency draws, never how many runs are simulated).
    let protocol_seed = match w {
        Workload::Table => bsched_stats::SplitMix64::new(seed).next_u64() >> 1,
        Workload::Compile | Workload::Serve => GUARD_SEED,
    };
    vec![
        ("BSCHED_VALIDATE", "off".to_owned()),
        ("BSCHED_ANALYZE", "off".to_owned()),
        (
            "BSCHED_CYCLE_BUDGET",
            bsched_pipeline::DEFAULT_CYCLE_BUDGET.to_string(),
        ),
        ("BSCHED_FAULTS", String::new()),
        ("BSCHED_THREADS", threads.to_string()),
        ("BSCHED_RUNS", "30".to_owned()),
        ("BSCHED_SEED", protocol_seed.to_string()),
    ]
}

/// CPUs the process may run on (after pinning, the pinned ones).
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// The schedule-quality guard: the balanced program's mean simulated
/// runtime summed over the eight stand-ins, under one fixed Table 2
/// row, run count and protocol seed. It does not depend on the
/// benchmark seed and must repeat exactly.
fn sched_cycles() -> Result<f64, String> {
    let row = table2_rows()
        .into_iter()
        .find(|r| r.label() == GUARD_ROW)
        .ok_or_else(|| format!("no Table 2 row {GUARD_ROW:?}"))?;
    let cfg = EvalConfig {
        runs: GUARD_RUNS,
        resamples: 100,
        processor: ProcessorModel::Unlimited,
        issue_width: 1,
        seed: GUARD_SEED,
        validation: ValidationLevel::Off,
        cycle_budget: Some(bsched_pipeline::DEFAULT_CYCLE_BUDGET),
    };
    let p = pinned_pipeline();
    let mut total = 0.0;
    for bench in perfect_club() {
        let prog = p
            .compile(bench.function(), &SchedulerChoice::balanced())
            .map_err(|e| e.to_string())?;
        total += try_evaluate_serial(&prog, &row.system, &cfg)
            .map_err(|e| e.to_string())?
            .mean_runtime;
    }
    Ok(total)
}

fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_owned()
    }
}

fn metrics_json(metrics: &[Metric]) -> String {
    let mut s = String::from("{");
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(
            s,
            "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
            m.name,
            json_f64(m.value),
            m.unit
        );
    }
    s.push('}');
    s
}

/// The commit of the checkout, read from `.git` without spawning git;
/// `None` outside a git checkout.
fn commit(root: &std::path::Path) -> Option<String> {
    let git = root.join(".git");
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_owned());
    };
    if let Ok(hash) = std::fs::read_to_string(git.join(reference)) {
        return Some(hash.trim().to_owned());
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    packed
        .lines()
        .find_map(|l| l.strip_suffix(reference).map(|h| h.trim().to_owned()))
}

/// FNV-1a over the library sources, so a run from a checkout without
/// `.git` still names the code it measured.
fn source_digest(root: &std::path::Path) -> String {
    fn walk(dir: &std::path::Path, files: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let path = e.path();
            if path.is_dir() {
                walk(&path, files);
            } else if path.extension().is_some_and(|x| x == "rs" || x == "toml") {
                files.push(path);
            }
        }
    }
    let mut files = Vec::new();
    walk(&root.join("crates"), &mut files);
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in &files {
        for b in std::fs::read(f).unwrap_or_default() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    format!("{h:016x}")
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines().find_map(|l| {
                l.strip_prefix("model name")
                    .map(|v| v.trim_start_matches([' ', '\t', ':']).to_owned())
            })
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

fn provenance(
    args: &Args,
    nproc: usize,
    out: &Outcome,
    env: &[(&'static str, String)],
    root: &std::path::Path,
) -> String {
    let env_json: Vec<String> = env
        .iter()
        .map(|(k, v)| format!("\"{k}\":{}", bsched_analyze::json::string(v)))
        .collect();
    let notes: String = out
        .notes
        .iter()
        .map(|(k, v)| format!(",\"{k}\":{v}"))
        .collect();
    let samples: Vec<String> = out
        .end_to_end
        .iter()
        .map(|m| format!("\"{}\":{}", m.name, m.samples))
        .collect();
    format!(
        "{{\"provenance\":{{\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{},\
         \"commit\":{},\"source_digest\":\"{}\",\"rustc\":{},\"cpu\":{},\"nproc\":{},\
         \"threads\":{},\"setups\":{},\"env\":{{{}}},\"samples\":{{{}}},\
         \"attribution_tolerance_pct\":{ATTRIBUTION_TOLERANCE_PCT}{notes}}}}}",
        out.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        commit(root).map_or_else(|| "null".to_owned(), |c| bsched_analyze::json::string(&c)),
        source_digest(root),
        bsched_analyze::json::string(env!("LAYERBENCH_RUSTC")),
        bsched_analyze::json::string(&cpu_model()),
        nproc,
        out.threads,
        out.setup_s.len(),
        env_json.join(","),
        samples.join(","),
    )
}

fn run(args: &Args) -> Result<Outcome, String> {
    let seconds = args.seconds;
    let mut out = match args.workload {
        Workload::Table => table::run(args.seed, seconds, args.trace, SETUPS)?,
        Workload::Compile => compile::run(args.seed, seconds, args.trace, SETUPS)?,
        Workload::Serve => serve::run(args.seed, seconds, args.trace, SETUPS)?,
    };
    if args.trace {
        // Every traced run reports every layer; a layer the workload
        // bypasses reads 0.
        for (name, unit) in LAYER_METRICS {
            if !out.layers.iter().any(|m| m.name == *name) {
                out.layer(name, 0.0, unit);
            }
        }
        out.layers.sort_by(|a, b| a.name.cmp(&b.name));
    } else {
        let n = out.setup_s.len();
        let setup = median(&out.setup_s);
        out.e2e("setup_s", setup, "s", n);
        let attempted = usize::try_from(out.attempted).unwrap_or(usize::MAX);
        out.e2e("ok_ratio", out.ok_ratio(), "ratio", attempted);
        out.e2e("sched_cycles", sched_cycles()?, "cycles", 8);
        out.e2e("peak_rss_mb", measure::peak_rss_mb(), "MiB", 1);
    }
    Ok(out)
}

/// Every per-layer metric, as BENCHMARK.json lists them.
const LAYER_METRICS: &[(&str, &str)] = &[
    ("dag.build1_us", "us"),
    ("dag.build2_us", "us"),
    ("dag.edges", "count"),
    ("core.weights1_us", "us"),
    ("core.weights2_us", "us"),
    ("core.list1_us", "us"),
    ("core.list2_us", "us"),
    ("regalloc.alloc_us", "us"),
    ("regalloc.spills", "count"),
    ("pipeline.compile_us", "us"),
    ("pipeline.unattributed_us", "us"),
    ("cpusim.simulate_us", "us"),
    ("cpusim.runs", "count"),
    ("stats.bootstrap_us", "us"),
    ("stats.compare_us", "us"),
    ("par.busy_us", "us"),
    ("par.wall_us", "us"),
    ("par.utilization", "ratio"),
    ("bench.cell_us", "us"),
    ("workload.parse_us", "us"),
    ("workload.lower_us", "us"),
    ("serve.prepare_hit_us", "us"),
    ("serve.prepare_miss_us", "us"),
    ("serve.evaluate_us", "us"),
    ("serve.service_hit_us", "us"),
    ("serve.service_miss_us", "us"),
    ("serve.overhead_hit_us", "us"),
    ("serve.overhead_miss_us", "us"),
    ("serve.parse_us", "us"),
    ("serve.transport_us", "us"),
    ("serve.handoff_us", "us"),
    ("serve.hit_latency_p50_ms", "ms"),
    ("serve.hit_latency_p99_ms", "ms"),
    ("serve.miss_latency_p50_ms", "ms"),
    ("serve.miss_latency_p99_ms", "ms"),
    ("serve.cache_hit_ratio", "ratio"),
    ("serve.parks_per_op", "count"),
    ("serve.steals", "count"),
    ("trace.overhead_pct", "%"),
    ("attribution.error_pct", "%"),
];

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("layerbench: {e}");
            std::process::exit(2);
        }
    };
    let env = pinned_env(args.workload, args.seed);
    for (k, v) in &env {
        std::env::set_var(k, v);
    }
    let here = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let root = here
        .parent()
        .map_or_else(|| here.clone(), std::path::Path::to_path_buf);

    // Read before pinning, which narrows what the process may use.
    let cpus = nproc();
    let pinned = measure::pin_to_one_cpu();
    let ticks = measure::cpu_ticks();
    let out = match run(&args) {
        Ok(mut out) => {
            out.note(
                "pinned_cpu",
                pinned.map_or_else(|| "null".to_owned(), |c| c.to_string()),
            );
            let now = measure::cpu_ticks();
            let steal = (now.0 - ticks.0) as f64 / (now.1 - ticks.1).max(1) as f64 * 100.0;
            out.note("steal_pct", format!("{steal:.2}"));
            out
        }
        Err(e) => {
            eprintln!("layerbench: {e}");
            std::process::exit(1);
        }
    };
    let prov = provenance(&args, cpus, &out, &env, &root);
    let metrics = if args.trace {
        &out.layers
    } else {
        &out.end_to_end
    };
    let correct = out.failed == 0 && out.errors.is_empty();
    let result = format!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
        out.attempted,
        out.failed,
        metrics_json(metrics)
    );

    let dir = here.join("out");
    let stem = format!(
        "{}-seed{}-trace{}",
        out.workload,
        args.seed,
        u8::from(args.trace)
    );
    let saved = std::fs::create_dir_all(&dir).and_then(|()| {
        std::fs::write(
            dir.join(format!("{stem}.json")),
            format!("{prov}\n{result}\n"),
        )?;
        if let Some(t) = &out.tracer {
            let written = t.write(&dir.join(format!("{stem}.spans.jsonl")), SPAN_FILE_LIMIT)?;
            eprintln!("layerbench: wrote {written} spans to out/{stem}.spans.jsonl");
        }
        Ok(())
    });
    if let Err(e) = saved {
        eprintln!("layerbench: could not save the run record: {e}");
    }

    for e in &out.errors {
        eprintln!("layerbench: {e}");
    }
    println!("{prov}");
    println!("{result}");
    if !correct {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_listed_layer_metric_is_unique_and_in_benchmark_json() {
        let manifest = std::fs::read_to_string(
            PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json"),
        )
        .expect("BENCHMARK.json at the repository root");
        let v = bsched_analyze::json::parse(&manifest).expect("valid JSON");
        let listed: Vec<&str> = v
            .get("per_layer")
            .and_then(|p| p.as_array())
            .expect("per_layer list")
            .iter()
            .map(|m| m.get("name").and_then(|n| n.as_str()).expect("name"))
            .collect();
        let ours: Vec<&str> = LAYER_METRICS.iter().map(|(n, _)| *n).collect();
        assert_eq!(listed, ours);
    }

    #[test]
    fn args_are_checked() {
        let ok: Vec<String> = [
            "--workload",
            "serve",
            "--seed",
            "3",
            "--seconds",
            "10",
            "--trace",
            "1",
        ]
        .iter()
        .map(ToString::to_string)
        .collect();
        let a = parse_args(&ok).expect("parses");
        assert_eq!(a.workload, Workload::Serve);
        assert!(a.trace);
        let bad: Vec<String> = ["--workload", "tune", "--seed", "3", "--seconds", "10"]
            .iter()
            .map(ToString::to_string)
            .collect();
        assert!(parse_args(&bad).is_err());
    }
}
