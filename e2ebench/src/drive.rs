//! The server phase: set-ups, then the closed-loop timed phase against a `kronpriv-serve`
//! child, with the correctness checks that need only the client's own view.

use crate::child::Server;
use crate::client::{exchange, request_bytes, Reply};
use crate::plan::{Kind, Op, Plan, Workload, CYCLE_OPS, PREFIX_CYCLES};
use crate::prom::{delta, Scrape};
use crate::stats::median;
use kronpriv_json::Json;
use std::collections::BTreeMap;
use std::fs;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// The outcome of one timed operation.
pub struct Record {
    /// The client that ran it.
    pub client: usize,
    /// Its index in that client's operation sequence.
    pub index: u64,
    /// What it was.
    pub kind: Kind,
    /// Every answer was the expected 2xx and every job finished `Done`.
    pub ok: bool,
    /// When the operation started, from the start of the timed phase.
    pub start: Duration,
    /// Client-observed time of the whole operation.
    pub latency: Duration,
    /// Releases: the `POST …/estimate` round trip.
    pub admit: Duration,
    /// Bytes received over all of the operation's responses.
    pub response_bytes: usize,
    /// Releases: the server's job id.
    pub job_id: u64,
    /// Releases: the `GET /api/v1/jobs/{id}` body.
    pub job_body: String,
}

/// Everything the server phase measured.
pub struct ServerRun {
    /// Set-up seconds: median of the workload's set-ups (plus the prefix on `durable_mixed`).
    pub setup_s: f64,
    /// The timed operations, per client in sequence order.
    pub records: Vec<Record>,
    /// Wall seconds of the timed phase, until the last client stopped.
    pub elapsed_s: f64,
    /// The server's `VmHWM` at the end of the run, MiB.
    pub peak_rss_mb: f64,
    /// `/metrics` right before the timed phase.
    pub before: Scrape,
    /// `/metrics` right after it.
    pub after: Scrape,
    /// `durable_mixed`: a copy of the data dir as the timed server booted from it.
    pub booted_dir: Option<PathBuf>,
    /// Failed correctness checks.
    pub errors: Vec<String>,
}

/// Per-dataset sums of the draws this client had admitted, in admission order.
type Draws = BTreeMap<String, (f64, f64)>;

/// Runs one operation. Returns the record (without client/index) and any check failures.
fn execute(addr: SocketAddr, op: &Op, draws: &mut Draws, errors: &mut Vec<String>) -> Record {
    let bytes = op.bytes();
    let mut record = Record {
        client: 0,
        index: 0,
        kind: op.kind,
        ok: false,
        start: Duration::ZERO,
        latency: Duration::ZERO,
        admit: Duration::ZERO,
        response_bytes: 0,
        job_id: 0,
        job_body: String::new(),
    };
    let started = Instant::now();
    let result = match op.kind {
        Kind::Release => release(addr, op, &bytes, &mut record, draws),
        Kind::Upload => expect(addr, &bytes, 201, &mut record.response_bytes).map(|_| ()),
        Kind::Budget => {
            let name = op.dataset.as_deref().unwrap_or_default();
            expect(addr, &bytes, 200, &mut record.response_bytes)
                .and_then(|reply| check_budget(name, &reply.body, draws))
        }
        Kind::Delete => expect(addr, &bytes, 200, &mut record.response_bytes).map(|_| ()),
    };
    record.latency = started.elapsed();
    match result {
        Ok(()) => record.ok = true,
        Err(e) => errors.push(format!("{:?} {} {}: {e}", op.kind, op.method, op.path)),
    }
    record
}

fn expect(
    addr: SocketAddr,
    bytes: &[u8],
    status: u16,
    received: &mut usize,
) -> Result<Reply, String> {
    let reply = exchange(addr, bytes).map_err(|e| format!("request failed: {e}"))?;
    *received += reply.received;
    if reply.status != status {
        return Err(format!("answered {} (want {status}): {}", reply.status, reply.body));
    }
    Ok(reply)
}

fn release(
    addr: SocketAddr,
    op: &Op,
    bytes: &[u8],
    record: &mut Record,
    draws: &mut Draws,
) -> Result<(), String> {
    let started = Instant::now();
    let submitted = expect(addr, bytes, 202, &mut record.response_bytes)?;
    record.admit = started.elapsed();
    if let Some(name) = &op.dataset {
        let spent = draws.entry(name.clone()).or_insert((0.0, 0.0));
        spent.0 += op.draw.0;
        spent.1 += op.draw.1;
    }
    let doc = Json::parse(&submitted.body).map_err(|e| format!("submit body: {e}"))?;
    let id = number(&doc, "job_id").ok_or("submit body has no job_id")? as u64;
    record.job_id = id;
    // Wait by following the event stream to its terminal event: no poll interval.
    let events = expect(
        addr,
        &request_bytes("GET", &format!("/api/v1/jobs/{id}/events"), ""),
        200,
        &mut record.response_bytes,
    )?;
    let last = events.body.lines().last().unwrap_or_default();
    if !last.contains(r#""event":"done""#) {
        return Err(format!("job {id} did not end with a done event: {last}"));
    }
    let job = expect(
        addr,
        &request_bytes("GET", &format!("/api/v1/jobs/{id}"), ""),
        200,
        &mut record.response_bytes,
    )?;
    let doc = Json::parse(&job.body).map_err(|e| format!("job body: {e}"))?;
    if !matches!(doc.get("status"), Some(Json::String(s)) if s == "Done") {
        return Err(format!("job {id} is not Done: {}", job.body));
    }
    let result = doc.get("result").ok_or("Done job has no result")?;
    if result.get("theta").is_none() || result.get("private_statistics").is_none() {
        return Err(format!("job {id} result lacks theta or private_statistics"));
    }
    record.job_body = job.body;
    Ok(())
}

fn number(doc: &Json, key: &str) -> Option<f64> {
    match doc.get(key)? {
        Json::Number(n) => Some(*n),
        _ => None,
    }
}

/// Checks a budget document against the sum of the draws the client had admitted.
fn check_budget(name: &str, body: &str, draws: &Draws) -> Result<(), String> {
    let doc = Json::parse(body).map_err(|e| format!("budget body: {e}"))?;
    let want = draws.get(name).copied().unwrap_or((0.0, 0.0));
    let got = (
        number(&doc, "epsilon_spent").ok_or("no epsilon_spent")?,
        number(&doc, "delta_spent").ok_or("no delta_spent")?,
    );
    if got != want {
        return Err(format!(
            "dataset {name} spent {got:?}, but the admitted draws sum to {want:?}"
        ));
    }
    Ok(())
}

/// One set-up: spawn, upload, warm up. Returns the server and the draws it admitted.
fn setup_once(
    bin: &Path,
    run_dir: &Path,
    plan: &Plan,
    tag: &str,
    data_dir: Option<&Path>,
    errors: &mut Vec<String>,
) -> Result<(Server, Draws), String> {
    let server = Server::spawn(bin, run_dir, tag, data_dir)?;
    let mut draws = Draws::new();
    if plan.workload == Workload::DatasetK16 {
        execute(server.addr, &plan.k16_upload(), &mut draws, errors);
    }
    for client in 0..plan.workload.clients() {
        for index in 0..plan.workload.warmup_ops() {
            execute(server.addr, &plan.op(client, index), &mut draws, errors);
        }
    }
    Ok((server, draws))
}

/// Runs the set-ups and the timed phase of `seconds`.
pub fn run(bin: &Path, run_dir: &Path, plan: &Plan, seconds: f64) -> Result<ServerRun, String> {
    let workload = plan.workload;
    let mut errors = Vec::new();

    // durable_mixed: build the data dir once, then boot every set-up from a copy of it.
    let mut prefix_s = 0.0;
    let prepared = run_dir.join("data").join("prepared");
    if workload == Workload::DurableMixed {
        let started = Instant::now();
        let server = Server::spawn(bin, run_dir, "prefix", Some(&prepared))?;
        let mut draws = Draws::new();
        for index in 0..PREFIX_CYCLES * CYCLE_OPS {
            if let Some(op) = plan.prefix_op(index) {
                execute(server.addr, &op, &mut draws, &mut errors);
            }
        }
        drop(server);
        prefix_s = started.elapsed().as_secs_f64();
    }

    let mut setups = Vec::new();
    let mut live = None;
    for i in 0..workload.setups() {
        let data_dir = run_dir.join("data").join(format!("boot{i}"));
        if workload == Workload::DurableMixed {
            copy_dir(&prepared, &data_dir)?;
        }
        let dir = (workload == Workload::DurableMixed).then_some(data_dir.as_path());
        drop(live.take()); // the previous set-up's server is killed before the next one starts
        let started = Instant::now();
        let tag = format!("server{i}");
        let up = setup_once(bin, run_dir, plan, &tag, dir, &mut errors)?;
        setups.push(started.elapsed().as_secs_f64());
        live = Some(up);
    }
    let (server, draws) = live.ok_or("no set-up ran")?;
    let setup_s = prefix_s + median(&setups);
    let booted_dir = (workload == Workload::DurableMixed).then_some(prepared);

    let before = Scrape::take(server.addr)?;
    let started = Instant::now();
    let deadline = started + Duration::from_secs_f64(seconds);
    let addr = server.addr;
    let per_client: Vec<(Vec<Record>, Vec<String>, Draws)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workload.clients())
            .map(|client| {
                let mut draws = if client == 0 { draws.clone() } else { Draws::new() };
                scope.spawn(move || {
                    let mut records = Vec::new();
                    let mut errors = Vec::new();
                    let mut index = workload.warmup_ops();
                    while Instant::now() < deadline {
                        let op = plan.op(client, index);
                        let start = started.elapsed();
                        let mut record = execute(addr, &op, &mut draws, &mut errors);
                        record.start = start;
                        record.client = client;
                        record.index = index;
                        records.push(record);
                        index += 1;
                    }
                    (records, errors, draws)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect()
    });
    let elapsed_s = started.elapsed().as_secs_f64();
    let after = Scrape::take(addr)?;

    let mut records = Vec::new();
    let mut final_draws = Draws::new();
    for (client_records, client_errors, client_draws) in per_client {
        records.extend(client_records);
        errors.extend(client_errors);
        final_draws.extend(client_draws);
    }

    // The ledger of the long-lived dataset must equal the client's own sum of draws.
    if workload == Workload::DatasetK16 {
        let reply = exchange(addr, &request_bytes("GET", "/api/v1/datasets/k16/budget", ""))
            .map_err(|e| format!("budget request: {e}"))?;
        if let Err(e) = check_budget("k16", &reply.body, &final_draws) {
            errors.push(e);
        }
    }
    // The server's own counters must agree with what the client saw.
    let releases_ok = records.iter().filter(|r| r.kind == Kind::Release && r.ok).count() as f64;
    let completed = delta(&before, &after, "kronpriv_jobs_completed_total", "");
    if completed != releases_ok {
        errors.push(format!("jobs_completed grew by {completed}, client completed {releases_ok}"));
    }
    if workload != Workload::InlineSmall {
        let admitted = records.iter().filter(|r| r.kind == Kind::Release && r.job_id > 0).count();
        let debits = delta(&before, &after, "kronpriv_ledger_debits_total", "");
        if debits != admitted as f64 {
            errors.push(format!("ledger_debits grew by {debits}, client was admitted {admitted}"));
        }
    }
    let peak_rss_mb = server.peak_rss_mb()?;
    write_records(&run_dir.join("ops.tsv"), &records)?;
    drop(server);
    Ok(ServerRun { setup_s, records, elapsed_s, peak_rss_mb, before, after, booted_dir, errors })
}

/// Copies the regular files of a data dir.
pub fn copy_dir(from: &Path, to: &Path) -> Result<(), String> {
    fs::create_dir_all(to).map_err(|e| format!("create {}: {e}", to.display()))?;
    let entries = fs::read_dir(from).map_err(|e| format!("read {}: {e}", from.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| format!("read {}: {e}", from.display()))?;
        fs::copy(entry.path(), to.join(entry.file_name()))
            .map_err(|e| format!("copy {}: {e}", entry.path().display()))?;
    }
    Ok(())
}

/// Writes one line per timed operation, for looking at a run over time.
fn write_records(path: &Path, records: &[Record]) -> Result<(), String> {
    let mut out = String::from("client\tindex\tkind\tok\tstart_ms\tlatency_ms\tadmit_ms\n");
    for r in records {
        out.push_str(&format!(
            "{}\t{}\t{:?}\t{}\t{:.3}\t{:.3}\t{:.3}\n",
            r.client,
            r.index,
            r.kind,
            r.ok,
            r.start.as_secs_f64() * 1e3,
            r.latency.as_secs_f64() * 1e3,
            r.admit.as_secs_f64() * 1e3
        ));
    }
    fs::write(path, out).map_err(|e| format!("write {}: {e}", path.display()))
}
