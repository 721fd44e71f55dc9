//! The in-memory job store: submit → poll → fetch result, with a streaming event log.
//!
//! A private-release estimation can take seconds on a large graph, so `/api/estimate` must not
//! hold its connection open while Algorithm 1 runs. Instead the router submits a closure here
//! and immediately returns a job id; the closure runs on a dedicated estimation pool (separate
//! from the HTTP worker pool, so slow estimations never starve `/healthz` or job polling), and
//! clients poll `/api/jobs/{id}` until the record flips to `Done` or `Failed`.
//!
//! Every job additionally carries an append-only **event log** of typed JSON documents:
//! `queued` and `running` lifecycle markers, the pipeline's stage/chain progress (the closure
//! receives a [`JobEventSink`], which implements [`kronpriv_obs::ProgressSink`]), and a
//! terminal `done`/`failed` document carrying the same result/error the poll endpoint serves.
//! Streamers follow the log with [`JobStore::wait_events`], which blocks on a condvar instead
//! of polling.

use crate::pool::ThreadPool;
use kronpriv_json::{impl_json_enum, Json};
use kronpriv_obs::{ProgressEvent, ProgressSink, Registry};
use std::collections::{BTreeMap, VecDeque};
use std::panic::{self, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// A callback the store runs after a job reaches `Done`/`Failed` — the persistence layer's
/// write-behind for `job_finished` records. Invoked outside the table lock.
pub type CompletionHook = Arc<dyn Fn(u64, &Result<Json, String>) + Send + Sync>;

/// Default number of finished (`Done`/`Failed`) job records retained for polling. Older
/// finished records are evicted oldest-first so a long-running server cannot grow without
/// bound; queued and running jobs are never evicted.
pub const DEFAULT_RETAINED_JOBS: usize = 1024;

/// Lifecycle state of a job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobStatus {
    /// Submitted, not yet picked up by an estimation worker.
    Queued,
    /// An estimation worker is executing it.
    Running,
    /// Finished successfully; the result document is available.
    Done,
    /// Finished with an error; the error message is available.
    Failed,
}

impl_json_enum!(JobStatus { Queued, Running, Done, Failed });

/// A point-in-time copy of one job record, as returned to pollers.
#[derive(Debug, Clone)]
pub struct JobSnapshot {
    /// The job id assigned at submission.
    pub id: u64,
    /// Current lifecycle state.
    pub status: JobStatus,
    /// The result document (present exactly when `status == Done`).
    pub result: Option<Json>,
    /// The failure message (present exactly when `status == Failed`).
    pub error: Option<String>,
    /// Warnings recorded at submission. Live submissions record none; jobs restored from a
    /// data dir written by an older server keep the ones it persisted.
    pub warnings: Vec<String>,
}

/// Monotonic job counters since startup, reported by `/healthz`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JobCounts {
    /// Jobs currently waiting for an estimation worker.
    pub queued: u64,
    /// Jobs currently executing.
    pub running: u64,
    /// Jobs finished successfully since startup (eviction does not decrement this).
    pub done: u64,
    /// Jobs finished with an error since startup (eviction does not decrement this).
    pub failed: u64,
}

#[derive(Debug)]
struct JobRecord {
    status: JobStatus,
    result: Option<Json>,
    error: Option<String>,
    warnings: Vec<String>,
    /// The persisted request spec (durable mode only): what the snapshot stores so a pending
    /// job can be re-run after a restart. Never served to clients.
    spec: Option<Json>,
    /// Append-only typed progress log; see the module docs for the document shapes. The
    /// terminal `done`/`failed` document is not stored here: [`JobRecord::events_from`] builds
    /// it from `result`/`error` when it is served, so a finished result is held once.
    events: Vec<Json>,
}

impl JobRecord {
    fn finished(&self) -> bool {
        matches!(self.status, JobStatus::Done | JobStatus::Failed)
    }

    /// The event log from index `from` onward, ending in the terminal document once the job
    /// has finished (the terminal document sits at index `events.len()`).
    fn events_from(&self, from: usize) -> Vec<Json> {
        let mut events = self.events.get(from..).unwrap_or_default().to_vec();
        if from <= self.events.len() {
            match self.status {
                JobStatus::Done => events.push(event_doc(
                    "done",
                    vec![("result", self.result.clone().unwrap_or(Json::Null))],
                )),
                JobStatus::Failed => events.push(event_doc(
                    "failed",
                    vec![("error", Json::String(self.error.clone().unwrap_or_default()))],
                )),
                JobStatus::Queued | JobStatus::Running => {}
            }
        }
        events
    }
}

/// The job map is id-ordered (`BTreeMap`) so snapshot images and any future listings are
/// deterministic without sorting.
#[derive(Debug)]
struct JobTable {
    next_id: u64,
    jobs: BTreeMap<u64, JobRecord>,
    /// Finished job ids in completion order, for oldest-first eviction.
    finished: VecDeque<u64>,
    max_finished: usize,
    completed_done: u64,
    completed_failed: u64,
}

/// The table plus the condvar event streamers block on. One condvar covers all jobs: event
/// traffic is a handful of documents per job, so spurious wakeups are irrelevant.
struct Shared {
    table: Mutex<JobTable>,
    events: Condvar,
    hook: Mutex<Option<CompletionHook>>,
}

impl JobTable {
    fn complete(&mut self, id: u64, outcome: Result<Json, String>) {
        if let Some(record) = self.jobs.get_mut(&id) {
            let registry = Registry::global();
            match outcome {
                Ok(result) => {
                    record.status = JobStatus::Done;
                    record.result = Some(result);
                    self.completed_done += 1;
                    registry.counter("kronpriv_jobs_completed_total", &[("outcome", "done")]).inc();
                }
                Err(message) => {
                    record.status = JobStatus::Failed;
                    record.error = Some(message);
                    self.completed_failed += 1;
                    registry
                        .counter("kronpriv_jobs_completed_total", &[("outcome", "failed")])
                        .inc();
                }
            }
            self.finished.push_back(id);
            while self.finished.len() > self.max_finished {
                if let Some(oldest) = self.finished.pop_front() {
                    self.jobs.remove(&oldest);
                }
            }
        }
    }
}

/// Builds one typed event document: `{"event": kind, ...fields}`.
fn event_doc(kind: &str, fields: Vec<(&str, Json)>) -> Json {
    let mut pairs = vec![("event".to_string(), Json::String(kind.to_string()))];
    pairs.extend(fields.into_iter().map(|(k, v)| (k.to_string(), v)));
    Json::Object(pairs)
}

/// The progress sink one running job emits into: appends typed JSON documents to the job's
/// event log and wakes any streamer blocked in [`JobStore::wait_events`].
///
/// Implements [`ProgressSink`], so it plugs directly into the pipeline entry points. It opts into per-step chain log-likelihoods (`wants_chain_likelihood`) because the
/// streamed `chain_step` documents carry them — an extra likelihood evaluation per step that
/// consumes no randomness, so results stay byte-identical (the `kronpriv-obs` no-feedback
/// invariant).
pub struct JobEventSink {
    shared: Arc<Shared>,
    id: u64,
}

impl JobEventSink {
    /// Appends one event document to the job's log and wakes streamers. Events for an evicted
    /// job are silently dropped.
    pub fn push(&self, event: Json) {
        let mut table = self.shared.table.lock().expect("job table poisoned");
        if let Some(record) = table.jobs.get_mut(&self.id) {
            record.events.push(event);
            self.shared.events.notify_all();
        }
    }
}

impl ProgressSink for JobEventSink {
    fn emit(&self, event: &ProgressEvent) {
        let doc = match event {
            ProgressEvent::StageStarted { stage } => {
                event_doc("stage_started", vec![("stage", Json::String(stage.to_string()))])
            }
            ProgressEvent::StageFinished { stage } => {
                event_doc("stage_finished", vec![("stage", Json::String(stage.to_string()))])
            }
            ProgressEvent::ChainStep { chain, step, total_steps, log_likelihood } => event_doc(
                "chain_step",
                vec![
                    ("chain", Json::Number(*chain as f64)),
                    ("step", Json::Number(*step as f64)),
                    ("total_steps", Json::Number(*total_steps as f64)),
                    // JSON has no NaN; an unevaluated likelihood becomes null.
                    (
                        "log_likelihood",
                        if log_likelihood.is_finite() {
                            Json::Number(*log_likelihood)
                        } else {
                            Json::Null
                        },
                    ),
                ],
            ),
        };
        self.push(doc);
    }

    fn wants_chain_likelihood(&self) -> bool {
        true
    }
}

/// The store: a job table plus the worker pool that executes submitted jobs.
///
/// Dropping the store waits for in-flight jobs to finish (via the pool's graceful shutdown).
pub struct JobStore {
    shared: Arc<Shared>,
    pool: ThreadPool,
}

impl JobStore {
    /// Creates a store whose jobs run on `workers` dedicated threads, retaining the
    /// [`DEFAULT_RETAINED_JOBS`] most recent finished records.
    pub fn new(workers: usize) -> Self {
        Self::with_retention(workers, DEFAULT_RETAINED_JOBS)
    }

    /// Like [`JobStore::new`] with an explicit cap on retained finished records.
    ///
    /// # Panics
    /// Panics if `max_finished == 0` (a finished job must be pollable at least once).
    pub fn with_retention(workers: usize, max_finished: usize) -> Self {
        assert!(max_finished > 0, "must retain at least one finished job");
        JobStore {
            shared: Arc::new(Shared {
                table: Mutex::new(JobTable {
                    next_id: 0,
                    jobs: BTreeMap::new(),
                    finished: VecDeque::new(),
                    max_finished,
                    completed_done: 0,
                    completed_failed: 0,
                }),
                events: Condvar::new(),
                hook: Mutex::new(None),
            }),
            pool: ThreadPool::new(workers, "kronpriv-job"),
        }
    }

    /// Installs the completion hook run after every job finishes (outside the table lock) —
    /// the persistence layer's `job_finished` write-behind. Replaces any previous hook.
    pub fn set_completion_hook(&self, hook: CompletionHook) {
        *self.shared.hook.lock().expect("job hook poisoned") = Some(hook);
    }

    /// A lightweight imaging handle onto the same job table, for the persistence snapshot
    /// hook (which must not capture the whole `AppState`).
    pub fn imager(&self) -> JobImager {
        JobImager { shared: Arc::clone(&self.shared) }
    }

    /// Creates a `Queued` job record and returns its id, without scheduling any work yet.
    /// `id` is `Some` only on boot replay, to re-create a job under its persisted id (the
    /// counter advances past it so fresh ids never collide). `spec` is the persisted request
    /// spec in durable mode, `None` in-memory.
    pub fn create(&self, id: Option<u64>, warnings: Vec<String>, spec: Option<Json>) -> u64 {
        let id = {
            let mut table = self.shared.table.lock().expect("job table poisoned");
            let id = match id {
                Some(id) => {
                    table.next_id = table.next_id.max(id);
                    id
                }
                None => {
                    table.next_id += 1;
                    table.next_id
                }
            };
            table.jobs.insert(
                id,
                JobRecord {
                    status: JobStatus::Queued,
                    result: None,
                    error: None,
                    warnings,
                    spec,
                    events: vec![event_doc("queued", vec![("job_id", Json::Number(id as f64))])],
                },
            );
            id
        };
        Registry::global().counter("kronpriv_jobs_submitted_total", &[]).inc();
        self.shared.events.notify_all();
        id
    }

    /// Schedules the work of an already-created job on the estimation pool. The closure's `Ok`
    /// document becomes the job result; `Err` (or a panic, which is caught) marks the job
    /// `Failed`. The closure receives the job's [`JobEventSink`] for progress reporting.
    pub fn run(
        &self,
        id: u64,
        work: impl FnOnce(&JobEventSink) -> Result<Json, String> + Send + 'static,
    ) {
        let shared = Arc::clone(&self.shared);
        self.pool.execute(move || {
            let sink = JobEventSink { shared: Arc::clone(&shared), id };
            set_status(&shared, id, JobStatus::Running);
            sink.push(event_doc("running", Vec::new()));
            let outcome = panic::catch_unwind(AssertUnwindSafe(|| work(&sink)))
                .unwrap_or_else(|_| Err("job panicked".to_string()));
            let hook = shared.hook.lock().expect("job hook poisoned").clone();
            shared.table.lock().expect("job table poisoned").complete(id, outcome.clone());
            shared.events.notify_all();
            if let Some(hook) = hook {
                hook(id, &outcome);
            }
        });
    }

    /// Submits a job and returns its id immediately: [`JobStore::create`] followed by
    /// [`JobStore::run`]. `warnings` are recorded on the job verbatim.
    pub fn submit(
        &self,
        warnings: Vec<String>,
        work: impl FnOnce(&JobEventSink) -> Result<Json, String> + Send + 'static,
    ) -> u64 {
        let id = self.create(None, warnings, None);
        self.run(id, work);
        id
    }

    /// Restores an already-finished job verbatim (boot replay): the record appears `Done` or
    /// `Failed` with a synthesized two-event log (`queued`, then the terminal document), counts
    /// towards the `/healthz` completion tallies, but does not re-run and does not touch the
    /// traffic metrics or the hook.
    pub fn restore_finished(&self, id: u64, outcome: Result<Json, String>, warnings: Vec<String>) {
        let mut table = self.shared.table.lock().expect("job table poisoned");
        table.next_id = table.next_id.max(id);
        let (status, result, error) = match outcome {
            Ok(result) => {
                table.completed_done += 1;
                (JobStatus::Done, Some(result), None)
            }
            Err(message) => {
                table.completed_failed += 1;
                (JobStatus::Failed, None, Some(message))
            }
        };
        let events = vec![event_doc("queued", vec![("job_id", Json::Number(id as f64))])];
        table.jobs.insert(id, JobRecord { status, result, error, warnings, spec: None, events });
        table.finished.push_back(id);
        while table.finished.len() > table.max_finished {
            if let Some(oldest) = table.finished.pop_front() {
                table.jobs.remove(&oldest);
            }
        }
    }

    /// A snapshot of the job, or `None` for an unknown id.
    pub fn get(&self, id: u64) -> Option<JobSnapshot> {
        let table = self.shared.table.lock().expect("job table poisoned");
        table.jobs.get(&id).map(|record| JobSnapshot {
            id,
            status: record.status,
            result: record.result.clone(),
            error: record.error.clone(),
            warnings: record.warnings.clone(),
        })
    }

    /// The job's event documents from index `from` onward, blocking up to `timeout` for new
    /// ones. Returns `(events, terminal)` where `terminal` says the returned slice reaches the
    /// end of a finished job's log — the stream is complete. `None` for an unknown (or
    /// evicted) id.
    ///
    /// A timeout with no fresh events returns `(vec![], false)` so streamers can keep the
    /// connection alive and re-wait.
    pub fn wait_events(
        &self,
        id: u64,
        from: usize,
        timeout: Duration,
    ) -> Option<(Vec<Json>, bool)> {
        let deadline = Instant::now() + timeout;
        let mut table = self.shared.table.lock().expect("job table poisoned");
        loop {
            let record = table.jobs.get(&id)?;
            if record.events.len() > from || record.finished() {
                return Some((record.events_from(from), record.finished()));
            }
            let remaining = deadline.saturating_duration_since(Instant::now());
            if remaining.is_zero() {
                return Some((Vec::new(), false));
            }
            let (guard, wait) =
                self.shared.events.wait_timeout(table, remaining).expect("job table poisoned");
            table = guard;
            if wait.timed_out() {
                let record = table.jobs.get(&id)?;
                return Some((record.events_from(from), record.finished()));
            }
        }
    }

    /// Raises the id counter to at least `floor` (boot replay: fresh ids must never collide
    /// with ids the previous process handed out, even ones whose records were compacted away).
    pub fn seed_next_id(&self, floor: u64) {
        let mut table = self.shared.table.lock().expect("job table poisoned");
        table.next_id = table.next_id.max(floor);
    }

    /// Total number of jobs ever submitted (reported by `/healthz`).
    pub fn submitted(&self) -> u64 {
        self.shared.table.lock().expect("job table poisoned").next_id
    }

    /// Current and cumulative lifecycle counts (reported by `/healthz`).
    pub fn counts(&self) -> JobCounts {
        let table = self.shared.table.lock().expect("job table poisoned");
        let mut queued = 0;
        let mut running = 0;
        for record in table.jobs.values() {
            match record.status {
                JobStatus::Queued => queued += 1,
                JobStatus::Running => running += 1,
                _ => {}
            }
        }
        JobCounts { queued, running, done: table.completed_done, failed: table.completed_failed }
    }
}

/// A handle that images the job table for persistence snapshots without owning the pool (so
/// the snapshot hook can live inside the store's own completion callback without a cycle).
#[derive(Clone)]
pub struct JobImager {
    shared: Arc<Shared>,
}

impl JobImager {
    /// `(next_job_id, job documents)` in id order. Finished jobs persist their outcome;
    /// queued/running jobs persist their spec (to be re-run on boot); pending jobs without a
    /// spec (in-memory submissions) are skipped — they cannot be replayed.
    pub fn image_docs(&self) -> (u64, Vec<Json>) {
        let table = self.shared.table.lock().expect("job table poisoned");
        let mut docs = Vec::new();
        for (id, record) in table.jobs.iter() {
            let mut pairs = vec![("job_id".to_string(), Json::Number(*id as f64))];
            match record.status {
                JobStatus::Done => {
                    pairs.push(("status".to_string(), Json::String("done".to_string())));
                    if let Some(result) = &record.result {
                        pairs.push(("result".to_string(), result.clone()));
                    }
                }
                JobStatus::Failed => {
                    pairs.push(("status".to_string(), Json::String("failed".to_string())));
                    pairs.push((
                        "error".to_string(),
                        Json::String(record.error.clone().unwrap_or_default()),
                    ));
                }
                JobStatus::Queued | JobStatus::Running => match &record.spec {
                    Some(spec) => {
                        pairs.push(("status".to_string(), Json::String("pending".to_string())));
                        pairs.push(("spec".to_string(), spec.clone()));
                    }
                    None => continue,
                },
            }
            pairs.push((
                "warnings".to_string(),
                Json::Array(record.warnings.iter().map(|w| Json::String(w.clone())).collect()),
            ));
            docs.push(Json::Object(pairs));
        }
        (table.next_id, docs)
    }
}

fn set_status(shared: &Shared, id: u64, status: JobStatus) {
    if let Some(record) = shared.table.lock().expect("job table poisoned").jobs.get_mut(&id) {
        record.status = status;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wait_done(store: &JobStore, id: u64) -> JobSnapshot {
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            let snap = store.get(id).expect("job vanished");
            if matches!(snap.status, JobStatus::Done | JobStatus::Failed) {
                return snap;
            }
            assert!(Instant::now() < deadline, "job {id} never finished");
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    fn event_kind(event: &Json) -> String {
        event.get("event").and_then(|e| e.as_str().map(str::to_string)).expect("untyped event")
    }

    #[test]
    fn submit_poll_fetch_lifecycle() {
        let store = JobStore::new(2);
        let id = store.submit(Vec::new(), |_| Ok(Json::Number(42.0)));
        let snap = wait_done(&store, id);
        assert_eq!(snap.status, JobStatus::Done);
        assert_eq!(snap.result, Some(Json::Number(42.0)));
        assert_eq!(snap.error, None);
        assert!(snap.warnings.is_empty());
        assert_eq!(store.submitted(), 1);
        let counts = store.counts();
        assert_eq!((counts.queued, counts.running, counts.done, counts.failed), (0, 0, 1, 0));
    }

    #[test]
    fn failures_and_panics_are_recorded_not_fatal() {
        let store = JobStore::new(1);
        let failing = store.submit(Vec::new(), |_| Err("bad input".to_string()));
        let panicking = store.submit(Vec::new(), |_| panic!("boom"));
        let ok = store.submit(Vec::new(), |_| Ok(Json::Bool(true)));
        assert_eq!(wait_done(&store, failing).error.as_deref(), Some("bad input"));
        assert_eq!(wait_done(&store, panicking).error.as_deref(), Some("job panicked"));
        assert_eq!(wait_done(&store, ok).status, JobStatus::Done);
        assert_eq!(store.counts().failed, 2);
    }

    #[test]
    fn finished_jobs_are_evicted_oldest_first_beyond_the_retention_cap() {
        let store = JobStore::with_retention(1, 2);
        let first = store.submit(Vec::new(), |_| Ok(Json::Number(1.0)));
        wait_done(&store, first);
        let second = store.submit(Vec::new(), |_| Ok(Json::Number(2.0)));
        wait_done(&store, second);
        let third = store.submit(Vec::new(), |_| Ok(Json::Number(3.0)));
        wait_done(&store, third);
        assert!(store.get(first).is_none(), "oldest finished job must be evicted");
        assert!(store.get(second).is_some());
        assert!(store.get(third).is_some());
        // The submission counter is unaffected by eviction.
        assert_eq!(store.submitted(), 3);
        // An evicted job's event stream reports unknown, not empty.
        assert!(store.wait_events(first, 0, Duration::from_millis(1)).is_none());
    }

    #[test]
    fn ids_are_unique_and_unknown_ids_are_none() {
        let store = JobStore::new(2);
        let a = store.submit(Vec::new(), |_| Ok(Json::Null));
        let b = store.submit(Vec::new(), |_| Ok(Json::Null));
        assert_ne!(a, b);
        assert!(store.get(u64::MAX).is_none());
        assert!(store.wait_events(u64::MAX, 0, Duration::from_millis(1)).is_none());
    }

    #[test]
    fn warnings_are_echoed_on_the_snapshot() {
        let store = JobStore::new(1);
        let id = store.submit(vec!["heads up".to_string()], |_| Ok(Json::Null));
        assert_eq!(wait_done(&store, id).warnings, vec!["heads up".to_string()]);
    }

    #[test]
    fn event_log_runs_queued_to_terminal_in_order() {
        let store = JobStore::new(1);
        let id = store.submit(Vec::new(), |sink| {
            sink.emit(&ProgressEvent::StageStarted { stage: "fit" });
            sink.emit(&ProgressEvent::ChainStep {
                chain: 0,
                step: 1,
                total_steps: 4,
                log_likelihood: f64::NAN,
            });
            sink.emit(&ProgressEvent::StageFinished { stage: "fit" });
            Ok(Json::Number(7.0))
        });
        wait_done(&store, id);
        let (events, terminal) = store.wait_events(id, 0, Duration::from_secs(5)).unwrap();
        assert!(terminal);
        let kinds: Vec<String> = events.iter().map(event_kind).collect();
        assert_eq!(
            kinds,
            ["queued", "running", "stage_started", "chain_step", "stage_finished", "done"]
        );
        // The terminal event embeds the same result the poll endpoint serves.
        assert_eq!(events.last().unwrap().get("result"), Some(&Json::Number(7.0)));
        // NaN log-likelihoods cross the wire as null.
        assert_eq!(events[3].get("log_likelihood"), Some(&Json::Null));
        // A cursor past the queued/running prefix sees only the tail.
        let (tail, terminal) = store.wait_events(id, 4, Duration::from_secs(5)).unwrap();
        assert!(terminal);
        assert_eq!(tail.iter().map(event_kind).collect::<Vec<_>>(), ["stage_finished", "done"]);
    }

    #[test]
    fn wait_events_blocks_until_events_arrive() {
        let store = JobStore::new(1);
        let (release_tx, release_rx) = std::sync::mpsc::channel::<()>();
        let id = store.submit(Vec::new(), move |sink| {
            release_rx.recv().unwrap();
            sink.push(Json::String("late".to_string()));
            Ok(Json::Null)
        });
        // Nothing beyond queued/running yet: a short wait times out empty and non-terminal.
        let (events, _) = store.wait_events(id, 2, Duration::from_millis(30)).unwrap();
        assert!(events.is_empty());
        release_tx.send(()).unwrap();
        // Now the blocked wait must be woken by the push/completion, well before its timeout.
        let started = Instant::now();
        let (events, _) = store.wait_events(id, 2, Duration::from_secs(10)).unwrap();
        assert!(!events.is_empty());
        assert!(started.elapsed() < Duration::from_secs(5), "condvar wake, not timeout");
    }

    #[test]
    fn dropping_the_store_waits_for_running_jobs() {
        let shared;
        {
            let store = JobStore::new(1);
            shared = Arc::clone(&store.shared);
            for _ in 0..8 {
                store.submit(Vec::new(), |_| {
                    std::thread::sleep(Duration::from_millis(2));
                    Ok(Json::Null)
                });
            }
        }
        let table = shared.table.lock().unwrap();
        assert!(table.jobs.values().all(|r| r.status == JobStatus::Done));
    }
}
