//! The traced run: replays a workload's exact request sequence in-process (same bytes, seeds,
//! client count and pool sizes) through the public functions the router calls, and records a
//! span around each call. Spans live in memory until the run ends.
//!
//! Algorithm 1's stages are timed by a benchmark-owned [`ProgressSink`] that stamps each
//! `StageStarted` / `StageFinished` and forwards the event to the job's own sink, so the
//! pipeline runs exactly as it does in the server.

use crate::drive::Record;
use crate::plan::{Kind, Op, Plan, Workload};
use kronpriv::kronpriv_estimate::PrivateEstimatorOptions;
use kronpriv::kronpriv_graph::io::parse_edge_list_reader;
use kronpriv::kronpriv_obs::{ProgressEvent, ProgressSink};
use kronpriv::pipeline::{try_private_estimate_observed, validate_estimator_inputs};
use kronpriv_json::{from_str, to_string, Json, ToJson};
use kronpriv_server::api::{
    BudgetDoc, DatasetCreateRequest, DatasetDeleteResponse, DatasetDoc, DatasetEstimateRequest,
    EstimateRequest, EstimateResult, JobResponse, JobSpec,
};
use kronpriv_server::datasets::{valid_name, DatasetStore};
use kronpriv_server::http::read_request;
use kronpriv_server::jobs::{JobEventSink, JobImager, JobStatus};
use kronpriv_server::ledger::BudgetLedger;
use kronpriv_server::router::{replay_pending, AppState};
use kronpriv_server::store::{state_image, Persistence};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::fs;
use std::hint::black_box;
use std::io::{BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

/// The release id of measurements taken off the request path (side logs and ledgers).
pub const SIDE: u64 = u64::MAX;
/// Releases whose records the side log of an in-memory workload appends.
const SIDE_LOG_RELEASES: usize = 256;
/// Debits per side dataset: a dataset's δ limit is below 1, and releases draw δ = 0.01.
const SIDE_DEBITS_PER_DATASET: usize = 90;
/// Job-store and compute-pool sizes of a `kronpriv-serve` started with its defaults.
const JOB_WORKERS: usize = 2;
const COMPUTE_THREADS: usize = 0;
const MAX_ORDER: u32 = 16;
const SNAPSHOT_EVERY: u64 = 64;

/// One timed call.
#[derive(Clone, Debug)]
pub struct Span {
    /// Unique id.
    pub id: u64,
    /// The enclosing span (0 for a root).
    pub parent: u64,
    /// The operation the span belongs to (its root's id, or [`SIDE`]).
    pub release: u64,
    /// Layer-qualified name, e.g. `graph.parse`.
    pub name: &'static str,
    /// Start, ns since the tracer was created.
    pub start_ns: u64,
    /// End, ns since the tracer was created.
    pub end_ns: u64,
}

impl Span {
    /// Duration in ns.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// In-memory span and count store.
pub struct Tracer {
    origin: Instant,
    next: AtomicU64,
    spans: Mutex<Vec<Span>>,
    counts: Mutex<Vec<(u64, &'static str, f64)>>,
}

impl Tracer {
    fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            next: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
            counts: Mutex::new(Vec::new()),
        }
    }

    fn id(&self) -> u64 {
        self.next.fetch_add(1, Ordering::Relaxed)
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    fn push(&self, id: u64, parent: u64, release: u64, name: &'static str, s: Instant, e: Instant) {
        let span = Span { id, parent, release, name, start_ns: self.ns(s), end_ns: self.ns(e) };
        self.spans.lock().expect("span store poisoned").push(span);
    }

    fn time<T>(&self, parent: u64, release: u64, name: &'static str, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.push(self.id(), parent, release, name, start, Instant::now());
        out
    }

    fn count(&self, release: u64, name: &'static str, value: f64) {
        self.counts.lock().expect("count store poisoned").push((release, name, value));
    }

    fn clear(&self) {
        self.spans.lock().expect("span store poisoned").clear();
        self.counts.lock().expect("count store poisoned").clear();
    }
}

/// What the replay produced.
pub struct Traced {
    /// Every span of the timed operations and of the side measurements.
    pub spans: Vec<Span>,
    /// Per-operation counts: `(release, name, value)`.
    pub counts: Vec<(u64, &'static str, f64)>,
    /// Root span id → the operation kind it replayed.
    pub kinds: BTreeMap<u64, Kind>,
    /// `Persistence::open` of the data the timed phase started from (or of the side log).
    pub replay_ms: f64,
    /// Store appends, compactions and bytes written, on the request path or the side log.
    pub store: StoreCounts,
    /// Failed checks.
    pub errors: Vec<String>,
}

/// Store work counted by [`StoreProbe`].
#[derive(Clone, Copy, Default, Debug)]
pub struct StoreCounts {
    /// Records appended.
    pub records: u64,
    /// Snapshot compactions.
    pub snapshots: u64,
    /// Bytes written to the log and to snapshots.
    pub bytes: u64,
}

/// Times `Persistence::record` and counts what it wrote.
struct StoreProbe {
    persist: Arc<Persistence>,
    dir: PathBuf,
    datasets: DatasetStore,
    imager: JobImager,
    tracer: Arc<Tracer>,
    counts: Mutex<StoreCounts>,
}

impl StoreProbe {
    fn append(&self, parent: u64, release: u64, kind: &str, fields: Vec<(&str, Json)>) {
        // One append at a time, so the file sizes around it belong to it alone.
        let mut counts = self.counts.lock().expect("store counts poisoned");
        let log = self.dir.join("records.log");
        let before = fs::metadata(&log).map(|m| m.len()).unwrap_or(0);
        self.tracer.time(parent, release, "store.append", || {
            self.persist.record(kind, fields, || state_image(&self.datasets, &self.imager))
        });
        let after = fs::metadata(&log).map(|m| m.len()).unwrap_or(0);
        counts.records += 1;
        if after < before {
            counts.snapshots += 1;
            counts.bytes += fs::metadata(self.dir.join("snapshot.json")).map_or(0, |m| m.len());
        } else {
            counts.bytes += after - before;
        }
    }
}

/// Feeds recorded request bytes to `http::read_request` over a loopback connection: a helper
/// thread connects and writes, so large bodies never block on a full socket buffer.
struct Feeder {
    listener: TcpListener,
    tx: Option<mpsc::Sender<Vec<u8>>>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl Feeder {
    fn new() -> Result<Feeder, String> {
        let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
        let addr = listener.local_addr().map_err(|e| format!("local_addr: {e}"))?;
        let (tx, rx) = mpsc::channel::<Vec<u8>>();
        let thread = std::thread::spawn(move || {
            for bytes in rx {
                if let Ok(mut stream) = TcpStream::connect(addr) {
                    let _ = stream.write_all(&bytes);
                }
            }
        });
        Ok(Feeder { listener, tx: Some(tx), thread: Some(thread) })
    }

    fn read(
        &self,
        tracer: &Tracer,
        root: u64,
        bytes: Vec<u8>,
    ) -> Result<kronpriv_server::http::Request, String> {
        tracer.count(root, "http.request_bytes", bytes.len() as f64);
        let (stream, _) = tracer.time(root, root, "http.accept", || {
            self.tx.as_ref().expect("feeder is open").send(bytes).map_err(|e| e.to_string())?;
            self.listener.accept().map_err(|e| format!("accept: {e}"))
        })?;
        let mut reader = BufReader::new(stream);
        let deadline = Instant::now() + Duration::from_secs(30);
        tracer
            .time(root, root, "http.read_request", || read_request(&mut reader, deadline))
            .map_err(|e| format!("read_request: {e}"))
    }
}

impl Drop for Feeder {
    fn drop(&mut self) {
        self.tx.take();
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

/// Stamps Algorithm 1's stage events as spans and forwards them to the job's sink.
struct StageSink<'a> {
    inner: &'a JobEventSink,
    tracer: &'a Tracer,
    parent: u64,
    release: u64,
    open: Mutex<Vec<(&'static str, Instant)>>,
}

impl ProgressSink for StageSink<'_> {
    fn emit(&self, event: &ProgressEvent) {
        let now = Instant::now();
        match event {
            ProgressEvent::StageStarted { stage } => {
                self.open.lock().expect("stage stack poisoned").push((stage, now));
            }
            ProgressEvent::StageFinished { stage } => {
                let mut open = self.open.lock().expect("stage stack poisoned");
                if let Some(pos) = open.iter().rposition(|(s, _)| s == stage) {
                    let (_, start) = open.remove(pos);
                    let name = match *stage {
                        "degree_release" => "dp.degree_release",
                        "triangle_release" => "dp.triangle_release",
                        "fit" => "estimate.fit",
                        _ => "estimate.other_stage",
                    };
                    self.tracer.push(self.tracer.id(), self.parent, self.release, name, start, now);
                }
            }
            _ => {}
        }
        self.inner.emit(event);
    }

    fn wants_chain_likelihood(&self) -> bool {
        self.inner.wants_chain_likelihood()
    }
}

/// What the side log of an in-memory workload appends for one release.
struct SideRecord {
    dataset: Option<String>,
    draw: (f64, f64),
    job_id: u64,
    spec: Json,
    result: Json,
}

/// The replay state: the server's own [`AppState`], plus the tracer.
struct Replayer<'a> {
    plan: &'a Plan,
    state: AppState,
    tracer: Arc<Tracer>,
    store: Option<Arc<StoreProbe>>,
    /// Job id → the root span of its release, for the completion hook.
    jobs: Arc<Mutex<BTreeMap<u64, u64>>>,
    kinds: Mutex<BTreeMap<u64, Kind>>,
    side: Mutex<Vec<SideRecord>>,
}

/// Per-client replay context.
struct ClientCtx {
    feeder: Feeder,
    /// Per-dataset sums of the draws admitted so far, for the budget checks.
    draws: BTreeMap<String, (f64, f64)>,
    errors: Vec<String>,
}

impl Replayer<'_> {
    fn store_append(&self, parent: u64, release: u64, kind: &str, fields: Vec<(&str, Json)>) {
        if let Some(store) = &self.store {
            store.append(parent, release, kind, fields);
        }
    }

    /// Replays one operation. Releases return their result document.
    fn op(&self, ctx: &mut ClientCtx, op: &Op) -> Result<Option<Json>, String> {
        let root = self.tracer.id();
        let started = Instant::now();
        self.kinds.lock().expect("kinds poisoned").insert(root, op.kind);
        let request = ctx.feeder.read(&self.tracer, root, op.bytes())?;
        let out = match op.kind {
            Kind::Release => self.release(ctx, op, root, &request).map(Some),
            Kind::Upload => self.upload(root, &request).map(|()| None),
            Kind::Budget => self.budget(ctx, op, root).map(|()| None),
            Kind::Delete => self.delete(op, root).map(|()| None),
        };
        self.tracer.push(root, 0, root, "op", started, Instant::now());
        out
    }

    fn release(
        &self,
        ctx: &mut ClientCtx,
        op: &Op,
        root: u64,
        request: &kronpriv_server::http::Request,
    ) -> Result<Json, String> {
        let t = &*self.tracer;
        let (spec, params, options) = t.time(root, root, "api.decode", || {
            let text = std::str::from_utf8(&request.body).map_err(|e| e.to_string())?;
            let spec = match &op.dataset {
                Some(name) => JobSpec::from_dataset_request(
                    name,
                    from_str::<DatasetEstimateRequest>(text).map_err(|e| e.to_string())?,
                ),
                None => JobSpec::from_estimate_request(
                    from_str::<EstimateRequest>(text).map_err(|e| e.to_string())?,
                ),
            };
            let params = spec.params.ok_or("no params")?.validate().map_err(|e| e.to_string())?;
            let options: PrivateEstimatorOptions = spec.options.unwrap_or_default();
            validate_estimator_inputs(params, &options).map_err(|e| e.to_string())?;
            Ok::<_, String>((spec, params, options))
        })?;
        let text = t
            .time(root, root, "datasets.edge_text", || match &spec.dataset {
                Some(name) => self.state.datasets.edge_text(name),
                None => spec.edge_list.clone(),
            })
            .ok_or("no edge list")?;
        t.count(root, "datasets.edge_text_bytes", text.len() as f64);
        if let Some(name) = &spec.dataset {
            t.time(root, root, "ledger.debit", || {
                self.state.datasets.try_debit(name, params.epsilon, params.delta)
            })
            .map_err(|e| format!("debit refused: {e:?}"))?;
            let spent = ctx.draws.entry(name.clone()).or_insert((0.0, 0.0));
            spent.0 += params.epsilon;
            spent.1 += params.delta;
            self.store_append(
                root,
                root,
                "debit",
                vec![
                    ("name", Json::String(name.clone())),
                    ("epsilon", Json::Number(params.epsilon)),
                    ("delta", Json::Number(params.delta)),
                ],
            );
        }
        let spec_json = spec.to_json();
        let id = t.time(root, root, "jobs.create", || {
            self.state.jobs.create(None, Vec::new(), Some(spec_json.clone()))
        });
        self.jobs.lock().expect("job map poisoned").insert(id, root);
        self.store_append(
            root,
            root,
            "job_submitted",
            vec![
                ("job_id", Json::Number(id as f64)),
                ("warnings", Json::Array(Vec::new())),
                ("spec", spec_json.clone()),
            ],
        );

        let tracer = Arc::clone(&self.tracer);
        let exec = Arc::clone(&self.state.executor);
        let (seed, include) = (spec.seed, spec.include_degree_sequence.unwrap_or(false));
        let submitted = Instant::now();
        self.state.jobs.run(id, move |sink: &JobEventSink| {
            let start = Instant::now();
            tracer.push(tracer.id(), root, root, "jobs.queue_wait", submitted, start);
            let run = tracer.id();
            let t = &*tracer;
            let out = (|| {
                let mut rng = StdRng::seed_from_u64(seed);
                let graph = t
                    .time(run, root, "graph.parse", || parse_edge_list_reader(text.as_bytes()))
                    .map_err(|e| format!("edge list rejected: {e}"))?;
                t.count(root, "graph.edges", graph.edge_count() as f64);
                let stages = StageSink {
                    inner: sink,
                    tracer: t,
                    parent: run,
                    release: root,
                    open: Mutex::new(Vec::new()),
                };
                let estimate = try_private_estimate_observed(
                    &graph, params, &options, &mut rng, &exec, &stages,
                )
                .map_err(|e| format!("estimation rejected: {e}"))?;
                Ok(t.time(run, root, "api.encode", || {
                    let result = EstimateResult::from_estimate(&estimate, seed, include);
                    t.count(root, "estimate.fit_evaluations", result.evaluations as f64);
                    result.to_json()
                }))
            })();
            tracer.push(run, root, root, "jobs.run", start, Instant::now());
            out
        });

        let mut cursor = 0;
        loop {
            let (events, terminal) = self
                .state
                .jobs
                .wait_events(id, cursor, Duration::from_secs(60))
                .ok_or("replayed job vanished")?;
            cursor += events.len();
            if terminal {
                break;
            }
        }
        let snapshot = t.time(root, root, "api.respond", || {
            let snapshot = self.state.jobs.get(id);
            if let Some(s) = &snapshot {
                let body = to_string(&JobResponse {
                    job_id: s.id,
                    status: s.status,
                    result: s.result.clone(),
                    error: s.error.clone(),
                    warnings: None,
                });
                t.count(root, "api.result_bytes", black_box(body).len() as f64);
            }
            snapshot
        });
        let snapshot = snapshot.ok_or("replayed job vanished")?;
        let result = match (snapshot.status, snapshot.result) {
            (JobStatus::Done, Some(result)) => result,
            (status, _) => {
                return Err(format!("replayed job ended {status:?}: {:?}", snapshot.error))
            }
        };
        if self.store.is_none() {
            let mut side = self.side.lock().expect("side records poisoned");
            if side.len() < SIDE_LOG_RELEASES {
                side.push(SideRecord {
                    dataset: spec.dataset.clone(),
                    draw: (params.epsilon, params.delta),
                    job_id: id,
                    spec: spec_json,
                    result: result.clone(),
                });
            }
        }
        Ok(result)
    }

    fn upload(&self, root: u64, request: &kronpriv_server::http::Request) -> Result<(), String> {
        let t = &*self.tracer;
        let (req, budget) = t.time(root, root, "api.decode", || {
            let text = std::str::from_utf8(&request.body).map_err(|e| e.to_string())?;
            let req: DatasetCreateRequest = from_str(text).map_err(|e| e.to_string())?;
            if !valid_name(&req.name) {
                return Err(format!("invalid dataset name {:?}", req.name));
            }
            let budget = req.budget.validate().map_err(|e| e.to_string())?;
            Ok((req, budget))
        })?;
        let graph = t
            .time(root, root, "graph.parse", || parse_edge_list_reader(req.edge_list.as_bytes()))
            .map_err(|e| format!("edge list rejected: {e}"))?;
        let (nodes, edges) = (graph.node_count() as u64, graph.edge_count() as u64);
        let ledger = BudgetLedger::new(budget.epsilon, budget.delta);
        t.time(root, root, "datasets.create", || {
            self.state.datasets.create(&req.name, req.edge_list.clone(), nodes, edges, ledger)
        })
        .map_err(|e| format!("create refused: {e:?}"))?;
        self.store_append(
            root,
            root,
            "dataset_put",
            vec![
                ("name", Json::String(req.name.clone())),
                ("edge_list", Json::String(req.edge_list.clone())),
                ("nodes", Json::Number(nodes as f64)),
                ("edges", Json::Number(edges as f64)),
                ("epsilon_limit", Json::Number(ledger.epsilon_limit)),
                ("delta_limit", Json::Number(ledger.delta_limit)),
            ],
        );
        t.time(root, root, "api.respond", || {
            let meta = self.state.datasets.meta(&req.name).ok_or("dataset vanished")?;
            Ok::<_, String>(black_box(to_string(&DatasetDoc::of(&meta))))
        })?;
        Ok(())
    }

    fn budget(&self, ctx: &mut ClientCtx, op: &Op, root: u64) -> Result<(), String> {
        let name = op.dataset.as_deref().unwrap_or_default();
        let doc = self
            .tracer
            .time(root, root, "api.respond", || {
                let doc = BudgetDoc::of(name, &self.state.datasets.meta(name)?.ledger);
                black_box(to_string(&doc));
                Some(doc)
            })
            .ok_or("no such dataset")?;
        let want = ctx.draws.get(name).copied().unwrap_or((0.0, 0.0));
        if (doc.epsilon_spent, doc.delta_spent) != want {
            return Err(format!(
                "replayed ledger of {name} spent {:?}, draws sum to {want:?}",
                (doc.epsilon_spent, doc.delta_spent)
            ));
        }
        Ok(())
    }

    fn delete(&self, op: &Op, root: u64) -> Result<(), String> {
        let name = op.dataset.clone().unwrap_or_default();
        if !self.tracer.time(root, root, "datasets.remove", || self.state.datasets.remove(&name)) {
            return Err(format!("no such dataset {name}"));
        }
        self.store_append(root, root, "dataset_delete", vec![("name", Json::String(name.clone()))]);
        self.tracer.time(root, root, "api.respond", || {
            black_box(to_string(&DatasetDeleteResponse { deleted: name }))
        });
        Ok(())
    }
}

/// Replays the run's set-up warm-up and then every timed operation, per client in the same
/// order and with the same client count as the server phase. `records` are the server-phase
/// operations; on `inline_small` each replayed result must be byte-identical to the server's
/// job document. `booted_dir` is the data dir the durable server booted from; the replay
/// opens a copy of it under `run_dir`. Only a `traced` replay adds the side measurements.
pub fn replay(
    plan: &Plan,
    records: &[Record],
    booted_dir: Option<&Path>,
    run_dir: &Path,
    traced: bool,
) -> Result<Traced, String> {
    let tracer = Arc::new(Tracer::new());
    let mut replay_ms = 0.0;
    let (state, store) = match booted_dir {
        Some(booted) => {
            let dir = run_dir.join("data").join("replay");
            let _ = fs::remove_dir_all(&dir);
            crate::drive::copy_dir(booted, &dir)?;
            let started = Instant::now();
            drop(Persistence::open(&dir, SNAPSHOT_EVERY).map_err(|e| format!("open: {e}"))?);
            replay_ms = started.elapsed().as_secs_f64() * 1e3;
            let (state, pending) = AppState::with_persistence(
                JOB_WORKERS,
                MAX_ORDER,
                COMPUTE_THREADS,
                &dir,
                SNAPSHOT_EVERY,
            )
            .map_err(|e| format!("boot replay state: {e}"))?;
            // As at boot: a job whose completion record the killed prefix server had not yet
            // appended re-runs, or is restored as failed if its dataset is gone.
            replay_pending(&state, pending);
            let persist = Arc::clone(state.persist.as_ref().ok_or("no persistence")?);
            let probe = Arc::new(StoreProbe {
                persist,
                dir,
                datasets: state.datasets.clone(),
                imager: state.jobs.imager(),
                tracer: Arc::clone(&tracer),
                counts: Mutex::new(StoreCounts::default()),
            });
            (state, Some(probe))
        }
        None => (AppState::new(JOB_WORKERS, MAX_ORDER, COMPUTE_THREADS), None),
    };
    let jobs: Arc<Mutex<BTreeMap<u64, u64>>> = Arc::default();
    if let Some(probe) = &store {
        // The server's completion hook, timed: the `job_finished` write-behind.
        let (probe, jobs) = (Arc::clone(probe), Arc::clone(&jobs));
        state.jobs.set_completion_hook(Arc::new(move |id, outcome| {
            let root = jobs.lock().expect("job map poisoned").get(&id).copied().unwrap_or(SIDE);
            let mut fields = vec![("job_id", Json::Number(id as f64))];
            match outcome {
                Ok(result) => fields.push(("result", result.clone())),
                Err(message) => fields.push(("error", Json::String(message.clone()))),
            }
            probe.append(root, root, "job_finished", fields);
        }));
    }
    let replayer = Replayer {
        plan,
        state,
        tracer: Arc::clone(&tracer),
        store: store.clone(),
        jobs,
        kinds: Mutex::new(BTreeMap::new()),
        side: Mutex::new(Vec::new()),
    };

    let workload = plan.workload;
    let clients = workload.clients();
    let mut ctxs = Vec::new();
    for _ in 0..clients {
        ctxs.push(ClientCtx { feeder: Feeder::new()?, draws: BTreeMap::new(), errors: Vec::new() });
    }
    // The set-up: the upload and the warm-up, untraced.
    if workload == Workload::DatasetK16 {
        replayer.op(&mut ctxs[0], &plan.k16_upload())?;
    }
    for (client, ctx) in ctxs.iter_mut().enumerate() {
        for index in 0..workload.warmup_ops() {
            replayer.op(ctx, &plan.op(client, index))?;
        }
    }
    tracer.clear();
    replayer.kinds.lock().expect("kinds poisoned").clear();
    if let Some(probe) = &store {
        *probe.counts.lock().expect("store counts poisoned") = StoreCounts::default();
    }

    let shared = &replayer;
    let mut errors: Vec<String> = std::thread::scope(|scope| {
        let handles: Vec<_> = ctxs
            .into_iter()
            .enumerate()
            .map(|(client, mut ctx)| {
                scope.spawn(move || {
                    for record in records.iter().filter(|r| r.client == client) {
                        let op = shared.plan.op(client, record.index);
                        match shared.op(&mut ctx, &op) {
                            Ok(Some(result)) if workload == Workload::InlineSmall => {
                                let expected = to_string(&JobResponse {
                                    job_id: record.job_id,
                                    status: JobStatus::Done,
                                    result: Some(result),
                                    error: None,
                                    warnings: None,
                                });
                                if expected != record.job_body {
                                    ctx.errors.push(format!(
                                        "client {client} op {}: server result differs from the \
                                         in-process document",
                                        record.index
                                    ));
                                }
                            }
                            Ok(_) => {}
                            Err(e) => ctx.errors.push(format!("replay op {}: {e}", record.index)),
                        }
                    }
                    ctx.errors
                })
            })
            .collect();
        handles.into_iter().flat_map(|h| h.join().expect("replay client panicked")).collect()
    });

    // Off the request path: what the ledger and the durable store would cost where the
    // workload does not exercise them.
    let mut counts = store
        .as_ref()
        .map(|p| *p.counts.lock().expect("store counts poisoned"))
        .unwrap_or_default();
    if traced && workload == Workload::InlineSmall {
        side_ledger(&tracer, records);
    }
    if traced && store.is_none() {
        let side = std::mem::take(&mut *replayer.side.lock().expect("side records poisoned"));
        let (side_counts, side_ms) = side_log(&replayer, &side, run_dir)?;
        counts = side_counts;
        replay_ms = side_ms;
    }
    drop(store);
    let kinds = std::mem::take(&mut *replayer.kinds.lock().expect("kinds poisoned"));
    // Dropping the state drains the job pool, so no job thread can still be writing spans.
    drop(replayer);
    errors.truncate(20);
    let spans = std::mem::take(&mut *tracer.spans.lock().expect("span store poisoned"));
    let counts_list = std::mem::take(&mut *tracer.counts.lock().expect("count store poisoned"));
    Ok(Traced { spans, counts: counts_list, kinds, replay_ms, store: counts, errors })
}

/// Debits one side ledger per replayed release (`inline_small` releases debit nothing).
fn side_ledger(tracer: &Tracer, records: &[Record]) {
    let side = DatasetStore::new();
    let releases = records.iter().filter(|r| r.kind == Kind::Release).count();
    for i in 0..releases {
        let name = format!("side{}", i / SIDE_DEBITS_PER_DATASET);
        if i % SIDE_DEBITS_PER_DATASET == 0 {
            let _ = side.create(&name, String::new(), 0, 0, BudgetLedger::new(1e9, 0.999));
        }
        let _ = tracer.time(0, SIDE, "ledger.debit", || side.try_debit(&name, 0.2, 0.01));
    }
}

/// Appends the records a durable server would have written for the first replayed releases
/// to a fresh log, then times opening it.
fn side_log(
    replayer: &Replayer<'_>,
    side: &[SideRecord],
    run_dir: &Path,
) -> Result<(StoreCounts, f64), String> {
    let dir = run_dir.join("data").join("side-store");
    let _ = fs::remove_dir_all(&dir);
    let (persist, _) = Persistence::open(&dir, SNAPSHOT_EVERY).map_err(|e| format!("open: {e}"))?;
    let probe = StoreProbe {
        persist: Arc::new(persist),
        dir: dir.clone(),
        datasets: replayer.state.datasets.clone(),
        imager: replayer.state.jobs.imager(),
        tracer: Arc::clone(&replayer.tracer),
        counts: Mutex::new(StoreCounts::default()),
    };
    for record in side {
        if let Some(name) = &record.dataset {
            probe.append(
                0,
                SIDE,
                "debit",
                vec![
                    ("name", Json::String(name.clone())),
                    ("epsilon", Json::Number(record.draw.0)),
                    ("delta", Json::Number(record.draw.1)),
                ],
            );
        }
        let id = Json::Number(record.job_id as f64);
        probe.append(
            0,
            SIDE,
            "job_submitted",
            vec![
                ("job_id", id.clone()),
                ("warnings", Json::Array(Vec::new())),
                ("spec", record.spec.clone()),
            ],
        );
        probe.append(
            0,
            SIDE,
            "job_finished",
            vec![("job_id", id), ("result", record.result.clone())],
        );
    }
    let counts = *probe.counts.lock().expect("store counts poisoned");
    drop(probe);
    let started = Instant::now();
    drop(Persistence::open(&dir, SNAPSHOT_EVERY).map_err(|e| format!("open: {e}"))?);
    let replay_ms = started.elapsed().as_secs_f64() * 1e3;
    let _ = fs::remove_dir_all(&dir);
    Ok((counts, replay_ms))
}
