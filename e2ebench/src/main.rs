//! End-to-end private-release benchmark for `kronpriv-serve`.
//!
//! ```sh
//! e2ebench --server PATH --workload dataset_k16|inline_small|durable_mixed \
//!          --seed N --seconds S --trace 0|1
//! ```
//!
//! With `--trace 0` it starts the server binary as a child process, drives it closed-loop over
//! real sockets and prints the end-to-end metrics. With `--trace 1` it runs the same server
//! phase, then replays the exact request sequence in-process with a span around each layer
//! call, writes the spans to `spans.jsonl` in the run directory and prints the per-layer
//! metrics. Either way the last stdout line is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`, and a failed correctness check makes the
//! exit code non-zero. See `README.md` beside this crate for the workloads and metrics.

mod child;
mod client;
mod drive;
mod plan;
mod prom;
mod replay;
mod stats;

use drive::ServerRun;
use kronpriv_json::Json;
use plan::{Kind, Plan, Workload};
use prom::{delta, mean_ms};
use replay::{Span, Traced, SIDE};
use stats::{median, quantile};
use std::collections::BTreeMap;
use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

struct Args {
    server: PathBuf,
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut flags = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        flags.insert(flag, value);
    }
    let get = |name: &str| flags.get(name).ok_or_else(|| format!("missing {name}"));
    let workload = get("--workload")?;
    Ok(Args {
        server: PathBuf::from(get("--server")?),
        workload: Workload::parse(workload)
            .ok_or_else(|| format!("unknown workload {workload}"))?,
        seed: get("--seed")?.parse().map_err(|_| "--seed: expected an integer")?,
        seconds: get("--seconds")?.parse().map_err(|_| "--seconds: expected a number")?,
        trace: match get("--trace")?.as_str() {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace: expected 0 or 1, got {other}")),
        },
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok((result, correct)) => {
            println!("{}", kronpriv_json::to_string(&result));
            if correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("e2ebench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &Args) -> Result<(Json, bool), String> {
    let target = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "target".to_string());
    let name = format!("{:?}-trace{}", args.workload, u8::from(args.trace));
    let run_dir = Path::new(&target).join("e2ebench-runs").join(name);
    let _ = fs::remove_dir_all(&run_dir);
    fs::create_dir_all(&run_dir).map_err(|e| format!("create {}: {e}", run_dir.display()))?;

    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let clients = args.workload.clients();
    if clients > nproc {
        return Err(format!("{clients} load threads exceed the {nproc} hardware threads"));
    }
    let plan = Plan::new(args.workload, args.seed);
    let server = drive::run(&args.server, &run_dir, &plan, args.seconds)?;
    let mut errors = server.errors.clone();
    if client::peak_connections() > nproc {
        errors.push(format!(
            "{} connections were open at once, more than the {nproc} hardware threads",
            client::peak_connections()
        ));
    }

    // The inline results are checked byte for byte against the in-process replay, so that
    // workload replays even when untraced.
    let traced = if args.trace || args.workload == Workload::InlineSmall {
        let booted = server.booted_dir.as_deref();
        let traced = replay::replay(&plan, &server.records, booted, &run_dir, args.trace)?;
        errors.extend(traced.errors.iter().cloned());
        Some(traced)
    } else {
        None
    };

    let metrics = match (&traced, args.trace) {
        (Some(traced), true) => {
            let path = run_dir.join("spans.jsonl");
            write_spans(&path, &traced.spans)?;
            eprintln!("e2ebench: spans written to {}", path.display());
            per_layer(args.workload, &server, traced)
        }
        _ => end_to_end(&plan, &server),
    };
    // The data dirs are large and only needed while the run lasts.
    let _ = fs::remove_dir_all(run_dir.join("data"));

    let attempted = server.records.len();
    let failed = server.records.iter().filter(|r| !r.ok).count();
    if attempted == 0 {
        errors.push("no operation completed in the timed phase".to_string());
    }
    for e in errors.iter().take(20) {
        eprintln!("e2ebench: check failed: {e}");
    }
    let correct = errors.is_empty() && failed == 0;
    let metrics = metrics
        .into_iter()
        .map(|(name, value, unit)| {
            let doc = Json::Object(vec![
                ("value".to_string(), Json::Number(value)),
                ("unit".to_string(), Json::String(unit.to_string())),
            ]);
            (name.to_string(), doc)
        })
        .collect();
    let result = Json::Object(vec![
        ("correct".to_string(), Json::Bool(correct)),
        ("attempted".to_string(), Json::Number(attempted as f64)),
        ("failed".to_string(), Json::Number(failed as f64)),
        ("metrics".to_string(), Json::Object(metrics)),
    ]);
    Ok((result, correct))
}

type Metric = (&'static str, f64, &'static str);

fn ms(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// The timed operations of `kind` that succeeded.
fn ok_records(server: &ServerRun, kind: Kind) -> impl Iterator<Item = &drive::Record> {
    server.records.iter().filter(move |r| r.kind == kind && r.ok)
}

/// Latencies (ms) of the timed releases that succeeded.
fn release_ms(server: &ServerRun) -> Vec<f64> {
    ok_records(server, Kind::Release).map(|r| ms(r.latency)).collect()
}

fn end_to_end(plan: &Plan, server: &ServerRun) -> Vec<Metric> {
    let releases = release_ms(server);
    // The inline route uploads its edge list with every estimate request.
    let uploads: Vec<f64> = if plan.workload == Workload::InlineSmall {
        ok_records(server, Kind::Release).map(|r| ms(r.admit)).collect()
    } else {
        ok_records(server, Kind::Upload).map(|r| ms(r.latency)).collect()
    };
    let attempted = server.records.len().max(1) as f64;
    let ok = server.records.iter().filter(|r| r.ok).count() as f64;
    vec![
        ("release_p50_ms", median(&releases), "ms"),
        ("release_p90_ms", quantile(&releases, 0.9), "ms"),
        ("releases_per_s", releases.len() as f64 / server.elapsed_s, "1/s"),
        ("upload_p50_ms", median(&uploads), "ms"),
        ("ops_ok_frac", ok / attempted, "frac"),
        ("setup_s", server.setup_s, "s"),
        ("server_peak_rss_mb", server.peak_rss_mb, "MiB"),
    ]
}

/// Per timed release: the summed duration (ns) of each span name, and each count.
struct PerRelease {
    durations: BTreeMap<&'static str, Vec<f64>>,
    counts: BTreeMap<&'static str, Vec<f64>>,
}

impl PerRelease {
    fn new(traced: &Traced) -> PerRelease {
        let is_release = |id: u64| traced.kinds.get(&id) == Some(&Kind::Release);
        let mut sums: BTreeMap<(&'static str, u64), f64> = BTreeMap::new();
        for span in traced.spans.iter().filter(|s| s.release == SIDE || is_release(s.release)) {
            // Side measurements stand alone, one sample per span.
            let key = if span.release == SIDE { span.id } else { span.release };
            *sums.entry((span.name, key)).or_default() += span.dur_ns() as f64;
        }
        let mut durations: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for ((name, _), ns) in sums {
            durations.entry(name).or_default().push(ns);
        }
        let mut counts: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for &(release, name, value) in &traced.counts {
            if release == SIDE || is_release(release) {
                counts.entry(name).or_default().push(value);
            }
        }
        PerRelease { durations, counts }
    }

    /// Median per-release time of span `name`, in units of `scale` ns.
    fn time(&self, name: &str, scale: f64) -> f64 {
        self.durations.get(name).map_or(0.0, |v| median(v) / scale)
    }

    fn count_median(&self, name: &str) -> f64 {
        self.counts.get(name).map_or(0.0, |v| median(v))
    }
}

/// Share of the release wall time no span accounts for: for each timed release, its wall time
/// minus the summed self times of its spans, totalled over releases, over the total wall time.
fn unaccounted_frac(traced: &Traced) -> f64 {
    let mut by_release: BTreeMap<u64, Vec<&Span>> = BTreeMap::new();
    for span in &traced.spans {
        if traced.kinds.get(&span.release) == Some(&Kind::Release) {
            by_release.entry(span.release).or_default().push(span);
        }
    }
    let (mut wall, mut accounted) = (0.0, 0.0);
    for (release, spans) in by_release {
        let Some(root) = spans.iter().find(|s| s.id == release) else { continue };
        wall += root.dur_ns() as f64;
        for span in spans.iter().filter(|s| s.id != release) {
            let children: Vec<(u64, u64)> = spans
                .iter()
                .filter(|c| c.parent == span.id)
                .map(|c| (c.start_ns.max(span.start_ns), c.end_ns.min(span.end_ns)))
                .collect();
            accounted += (span.dur_ns() - covered(children)) as f64;
        }
    }
    if wall > 0.0 {
        (wall - accounted) / wall
    } else {
        0.0
    }
}

/// Total length of the union of intervals.
fn covered(mut intervals: Vec<(u64, u64)>) -> u64 {
    intervals.retain(|(s, e)| e > s);
    intervals.sort_unstable();
    let (mut total, mut reach) = (0u64, 0u64);
    for (start, end) in intervals {
        let start = start.max(reach);
        if end > start {
            total += end - start;
            reach = end;
        }
    }
    total
}

fn per_layer(workload: Workload, server: &ServerRun, traced: &Traced) -> Vec<Metric> {
    let per = PerRelease::new(traced);
    let (b, a) = (&server.before, &server.after);
    let releases = release_ms(server);
    let released = releases.len().max(1) as f64;
    let trace_p50 = per.time("op", 1e6);
    let route = match workload {
        Workload::InlineSmall => "path=\"/api/v1/estimate\"",
        _ => "path=\"/api/v1/datasets/{name}/estimate\"",
    };
    let admits: Vec<f64> = ok_records(server, Kind::Release).map(|r| ms(r.admit)).collect();
    let responses: Vec<f64> =
        ok_records(server, Kind::Release).map(|r| r.response_bytes as f64).collect();
    let par_calls = delta(b, a, "kronpriv_par_calls_total", "");
    let stage = |s: &str| mean_ms(b, a, "kronpriv_stage_ns", &format!("stage=\"{s}\""));
    vec![
        ("graph.parse_ms", per.time("graph.parse", 1e6), "ms"),
        ("graph.edges", per.count_median("graph.edges"), "count"),
        ("datasets.edge_text_ms", per.time("datasets.edge_text", 1e6), "ms"),
        ("datasets.edge_text_bytes", per.count_median("datasets.edge_text_bytes"), "bytes"),
        ("ledger.debit_us", per.time("ledger.debit", 1e3), "us"),
        (
            "ledger.debits",
            per.durations.get("ledger.debit").map_or(0.0, |v| v.len() as f64),
            "count",
        ),
        ("dp.degree_release_ms", per.time("dp.degree_release", 1e6), "ms"),
        ("dp.triangle_release_ms", per.time("dp.triangle_release", 1e6), "ms"),
        ("dp.degree_laplace_ms", stage("degree_laplace"), "ms"),
        ("dp.isotonic_ms", stage("isotonic"), "ms"),
        ("dp.smooth_sensitivity_ms", stage("smooth_sensitivity"), "ms"),
        ("dp.triangle_count_ms", stage("triangle_count"), "ms"),
        ("estimate.fit_ms", per.time("estimate.fit", 1e6), "ms"),
        ("estimate.fit_evaluations", per.count_median("estimate.fit_evaluations"), "count"),
        ("http.read_request_us", per.time("http.read_request", 1e3), "us"),
        ("http.request_bytes", per.count_median("http.request_bytes"), "bytes"),
        ("http.response_bytes", median(&responses), "bytes"),
        ("http.server_request_ms", mean_ms(b, a, "kronpriv_http_request_ns", route), "ms"),
        ("api.admit_ms", median(&admits), "ms"),
        ("api.decode_us", per.time("api.decode", 1e3), "us"),
        ("api.encode_us", per.time("api.encode", 1e3) + per.time("api.respond", 1e3), "us"),
        ("api.result_bytes", per.count_median("api.result_bytes"), "bytes"),
        ("jobs.queue_wait_ms", per.time("jobs.queue_wait", 1e6), "ms"),
        ("jobs.completed", delta(b, a, "kronpriv_jobs_completed_total", ""), "count"),
        ("store.append_us", per.time("store.append", 1e3), "us"),
        ("store.records", traced.store.records as f64, "count"),
        ("store.snapshots", traced.store.snapshots as f64, "count"),
        ("store.bytes_written", traced.store.bytes as f64, "bytes"),
        ("store.replay_ms", traced.replay_ms, "ms"),
        ("par.calls", par_calls / released, "count"),
        (
            "par.helpers_engaged_frac",
            delta(b, a, "kronpriv_par_helpers_engaged_total", "") / par_calls.max(1.0),
            "frac",
        ),
        (
            "par.queue_wait_ms",
            delta(b, a, "kronpriv_par_queue_wait_ns_sum", "") / 1e6 / released,
            "ms",
        ),
        (
            "par.worker_busy_ms",
            delta(b, a, "kronpriv_par_worker_busy_ns_total", "") / 1e6 / released,
            "ms",
        ),
        ("trace.release_p50_ms", trace_p50, "ms"),
        ("trace.unaccounted_frac", unaccounted_frac(traced), "frac"),
        ("trace.server_overhead_ms", median(&releases) - trace_p50, "ms"),
    ]
}

fn write_spans(path: &Path, spans: &[Span]) -> Result<(), String> {
    let mut out = String::new();
    for s in spans {
        let doc = Json::Object(vec![
            ("release".to_string(), Json::Number(s.release as f64)),
            ("id".to_string(), Json::Number(s.id as f64)),
            ("parent".to_string(), Json::Number(s.parent as f64)),
            ("name".to_string(), Json::String(s.name.to_string())),
            ("start_us".to_string(), Json::Number(s.start_ns as f64 / 1e3)),
            ("end_us".to_string(), Json::Number(s.end_ns as f64 / 1e3)),
        ]);
        out.push_str(&kronpriv_json::to_string(&doc));
        out.push('\n');
    }
    let mut file = fs::File::create(path).map_err(|e| format!("create {}: {e}", path.display()))?;
    file.write_all(out.as_bytes()).map_err(|e| format!("write {}: {e}", path.display()))
}
