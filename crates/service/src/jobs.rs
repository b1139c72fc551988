//! The asynchronous job queue: `POST /jobs` lands here.
//!
//! A bounded `sync_channel` feeds a small pool of executor threads —
//! heavy sweeps don't occupy HTTP workers, and a full job queue is a
//! visible `503`, not an invisible backlog. Each job carries a
//! cooperative cancellation flag (`Arc<AtomicBool>`) that the simulation
//! path checks between replica batches (see
//! `popgame_runner::run_replicas_cancellable`), so orphaned jobs can be
//! aborted mid-flight via `DELETE /jobs/{id}`.
//!
//! Results are stored as encoded JSON bodies; a finished job's payload is
//! also inserted into the shared result cache by the executor closure, so
//! a later synchronous request for the same canonical work is a cache
//! hit.
//!
//! Each job also carries a [`JobProgress`]: a handful of relaxed atomics
//! the executor bumps at replica-task granularity, read lock-free by
//! `GET /jobs/{id}` to report live completion, busy time, and an ETA.
//! Progress is strictly out-of-band — it never feeds results, cache
//! keys, or the RNG.

use popgame_obs::metrics::{registry, Counter};
use popgame_obs::trace::{self, Family};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, SyncSender, TrySendError};
use std::sync::{Arc, Mutex, OnceLock, PoisonError, Weak};
use std::thread::JoinHandle;

/// Process-global lifecycle counter `popgame_jobs_total{state=...}`,
/// incremented at each transition: `submitted` on accepted enqueue,
/// `rejected` on queue-full, then exactly one of `done` / `failed` /
/// `cancelled` per job at retirement. Strictly out-of-band: job results
/// and wire bodies never read these.
fn lifecycle_counter(state: &'static str) -> &'static Arc<Counter> {
    static HANDLES: OnceLock<[Arc<Counter>; 5]> = OnceLock::new();
    let handles = HANDLES.get_or_init(|| {
        ["submitted", "rejected", "done", "failed", "cancelled"].map(|s| {
            registry().counter(
                "popgame_jobs_total",
                "Asynchronous job lifecycle transitions by terminal/entry state",
                &[("state", s)],
            )
        })
    });
    let index = match state {
        "submitted" => 0,
        "rejected" => 1,
        "done" => 2,
        "failed" => 3,
        _ => 4,
    };
    &handles[index]
}

/// How many *finished* (done/failed/cancelled) jobs stay queryable; older
/// ones are forgotten oldest-first so the registry cannot grow without
/// bound on a long-lived daemon.
const DEFAULT_RETAINED_JOBS: usize = 1024;

/// Lifecycle of a job.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobState {
    /// Accepted, waiting for an executor.
    Queued,
    /// An executor is working on it.
    Running,
    /// Finished; the encoded response body.
    Done(Arc<String>),
    /// The executor failed; the error message.
    Failed(String),
    /// Cancelled before or during execution.
    Cancelled,
}

impl JobState {
    /// The stable lowercase status label used on the wire.
    pub fn label(&self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done(_) => "done",
            JobState::Failed(_) => "failed",
            JobState::Cancelled => "cancelled",
        }
    }
}

/// Live execution progress of one job, updated by the executor at
/// replica-task granularity and read lock-free by `GET /jobs/{id}`.
///
/// Every field is a relaxed atomic; cross-field reads may be torn, but
/// each field is individually monotonic, so the reported completion
/// fraction never decreases.
#[derive(Debug, Default)]
pub struct JobProgress {
    tasks_done: AtomicU64,
    tasks_total: AtomicU64,
    busy_ns: AtomicU64,
    /// Wall-clock start, `trace::now_ns()`-based; `0` = not started.
    start_ns: AtomicU64,
    /// Wall-clock finish; `0` = still running (or never started).
    end_ns: AtomicU64,
}

/// A point-in-time read of a [`JobProgress`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProgressSnapshot {
    /// Tasks (replicas) finished so far.
    pub tasks_done: u64,
    /// Total tasks declared by the executor (`0` until it begins).
    pub tasks_total: u64,
    /// Cumulative executor-thread busy time across finished tasks.
    pub busy_ns: u64,
    /// Wall-clock time since the executor began (frozen at retirement).
    pub elapsed_ns: u64,
}

impl ProgressSnapshot {
    /// Completion fraction in `[0, 1]`; `0` before the shape is known.
    pub fn fraction(&self) -> f64 {
        if self.tasks_total == 0 {
            0.0
        } else {
            self.tasks_done as f64 / self.tasks_total as f64
        }
    }

    /// Naive remaining-time estimate (elapsed-per-task × tasks left), or
    /// `None` before the first task finishes / after the last one does.
    pub fn eta_ns(&self) -> Option<u64> {
        if self.tasks_done == 0 || self.tasks_done >= self.tasks_total {
            return None;
        }
        let per_task = self.elapsed_ns / self.tasks_done;
        Some(per_task.saturating_mul(self.tasks_total - self.tasks_done))
    }
}

impl JobProgress {
    /// A fresh, not-yet-started progress record.
    pub fn new() -> Self {
        Self::default()
    }

    /// Declares the task count and stamps the start time; called once by
    /// the executor when the work shape is known.
    pub fn begin(&self, total: u64) {
        self.tasks_total.store(total, Ordering::Relaxed);
        self.start_ns.store(trace::now_ns().max(1), Ordering::Relaxed);
    }

    /// Records one finished task and the executor time it consumed.
    pub fn task_done(&self, busy_ns: u64) {
        self.tasks_done.fetch_add(1, Ordering::Relaxed);
        self.busy_ns.fetch_add(busy_ns, Ordering::Relaxed);
    }

    /// Freezes the elapsed clock (the job retired).
    pub fn finish(&self) {
        self.end_ns.store(trace::now_ns().max(1), Ordering::Relaxed);
    }

    /// A consistent-enough point-in-time read.
    pub fn snapshot(&self) -> ProgressSnapshot {
        let start = self.start_ns.load(Ordering::Relaxed);
        let end = self.end_ns.load(Ordering::Relaxed);
        let elapsed_ns = if start == 0 {
            0
        } else {
            let now = if end != 0 { end } else { trace::now_ns() };
            now.saturating_sub(start)
        };
        ProgressSnapshot {
            tasks_done: self.tasks_done.load(Ordering::Relaxed),
            tasks_total: self.tasks_total.load(Ordering::Relaxed),
            busy_ns: self.busy_ns.load(Ordering::Relaxed),
            elapsed_ns,
        }
    }
}

/// One submitted job.
pub struct Job {
    /// Monotonic id (the `{id}` of `GET /jobs/{id}`).
    pub id: u64,
    /// The canonical request string (also the cache key).
    pub canonical: String,
    state: Mutex<JobState>,
    /// Cooperative stop flag checked by the executor between batches.
    pub cancel: Arc<AtomicBool>,
    /// Live progress, updated by the executor.
    pub progress: Arc<JobProgress>,
    /// Trace id of the submitting request (`0` = untraced).
    trace_id: u64,
    /// Span id of the submitting request's HTTP span (`0` = none), so
    /// the executor's `job:` span links back across threads.
    parent_span: u64,
}

impl Job {
    /// Snapshot of the current state.
    pub fn state(&self) -> JobState {
        self.state.lock().unwrap_or_else(PoisonError::into_inner).clone()
    }

    fn set_state(&self, next: JobState) {
        *self.state.lock().unwrap_or_else(PoisonError::into_inner) = next;
    }
}

/// Worker-side retirement through the weak back-reference.
fn retire(store: &Weak<JobStore>, id: u64) {
    if let Some(store) = store.upgrade() {
        store.retire_finished(id);
    }
}

/// The executor callback: canonical request + cancel flag + live
/// progress sink → encoded response body.
pub type Executor = Arc<
    dyn Fn(&str, &AtomicBool, &JobProgress) -> Result<Arc<String>, String> + Send + Sync,
>;

/// The job queue was full (or shutting down) — the caller's 503.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueueFull;

/// The bounded job queue and registry.
pub struct JobStore {
    jobs: Mutex<HashMap<u64, Arc<Job>>>,
    /// Finished job ids, oldest first; trimmed to the retention cap.
    finished: Mutex<VecDeque<u64>>,
    retained: usize,
    tx: Mutex<Option<SyncSender<Arc<Job>>>>,
    next_id: AtomicU64,
    workers: Mutex<Vec<JoinHandle<()>>>,
}

impl JobStore {
    /// Spawns `workers` executor threads over a queue of depth
    /// `queue_depth`, retaining the default number of finished jobs.
    pub fn new(workers: usize, queue_depth: usize, executor: Executor) -> Arc<Self> {
        Self::with_retention(workers, queue_depth, executor, DEFAULT_RETAINED_JOBS)
    }

    /// [`JobStore::new`] with an explicit finished-job retention cap.
    pub fn with_retention(
        workers: usize,
        queue_depth: usize,
        executor: Executor,
        retained: usize,
    ) -> Arc<Self> {
        let (tx, rx) = mpsc::sync_channel::<Arc<Job>>(queue_depth.max(1));
        let rx = Arc::new(Mutex::new(rx));
        let store = Arc::new(JobStore {
            jobs: Mutex::new(HashMap::new()),
            finished: Mutex::new(VecDeque::new()),
            retained: retained.max(1),
            tx: Mutex::new(Some(tx)),
            next_id: AtomicU64::new(1),
            workers: Mutex::new(Vec::new()),
        });
        let handles: Vec<JoinHandle<()>> = (0..workers.max(1))
            .map(|_| {
                let rx = Arc::clone(&rx);
                let executor = Arc::clone(&executor);
                // Weak: the store owns the worker handles, so a strong
                // reference here would be a leak-cycle.
                let store = Arc::downgrade(&store);
                std::thread::spawn(move || loop {
                    let job = {
                        let guard = rx.lock().unwrap_or_else(PoisonError::into_inner);
                        guard.recv()
                    };
                    let Ok(job) = job else { break };
                    if job.cancel.load(Ordering::Relaxed) {
                        job.set_state(JobState::Cancelled);
                        lifecycle_counter("cancelled").inc();
                        retire(&store, job.id);
                        continue;
                    }
                    job.set_state(JobState::Running);
                    // The job span parents on the submitting request's
                    // HTTP span and shares its trace id, stitching the
                    // async hop into one timeline.
                    let job_span = trace::is_enabled().then(|| {
                        trace::set_thread_trace_id(job.trace_id);
                        trace::span_with_parent(
                            Family::Service,
                            &format!("job:{}", job.id),
                            job.parent_span,
                            job.trace_id,
                        )
                    });
                    let outcome = executor(&job.canonical, &job.cancel, &job.progress);
                    if job_span.is_some() {
                        drop(job_span);
                        trace::set_thread_trace_id(0);
                    }
                    job.progress.finish();
                    // Cancellation observed at any point wins: partial
                    // results are discarded, never reported or cached.
                    if job.cancel.load(Ordering::Relaxed) {
                        job.set_state(JobState::Cancelled);
                        lifecycle_counter("cancelled").inc();
                    } else {
                        match outcome {
                            Ok(body) => {
                                job.set_state(JobState::Done(body));
                                lifecycle_counter("done").inc();
                            }
                            Err(message) => {
                                job.set_state(JobState::Failed(message));
                                lifecycle_counter("failed").inc();
                            }
                        }
                    }
                    retire(&store, job.id);
                })
            })
            .collect();
        *store.workers.lock().unwrap_or_else(PoisonError::into_inner) = handles;
        store
    }

    /// Records a finished job and forgets the oldest beyond the cap.
    fn retire_finished(&self, id: u64) {
        let mut finished = self.finished.lock().unwrap_or_else(PoisonError::into_inner);
        finished.push_back(id);
        while finished.len() > self.retained {
            if let Some(oldest) = finished.pop_front() {
                self.jobs.lock().unwrap_or_else(PoisonError::into_inner).remove(&oldest);
            }
        }
    }

    /// Enqueues a job for the canonical request.
    ///
    /// # Errors
    ///
    /// [`QueueFull`] when the bounded queue has no room (the caller turns
    /// this into a 503) or the store is shutting down.
    pub fn submit(&self, canonical: String) -> Result<Arc<Job>, QueueFull> {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let job = Arc::new(Job {
            id,
            canonical,
            state: Mutex::new(JobState::Queued),
            cancel: Arc::new(AtomicBool::new(false)),
            progress: Arc::new(JobProgress::new()),
            // Captured from the submitting thread: the HTTP request span
            // (if tracing) becomes the job span's parent.
            trace_id: trace::thread_trace_id(),
            parent_span: trace::current_span_id(),
        });
        let guard = self.tx.lock().unwrap_or_else(PoisonError::into_inner);
        let Some(tx) = guard.as_ref() else {
            lifecycle_counter("rejected").inc();
            return Err(QueueFull); // shutting down
        };
        match tx.try_send(Arc::clone(&job)) {
            Ok(()) => {
                self.jobs
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .insert(id, Arc::clone(&job));
                lifecycle_counter("submitted").inc();
                Ok(job)
            }
            Err(TrySendError::Full(_) | TrySendError::Disconnected(_)) => {
                lifecycle_counter("rejected").inc();
                Err(QueueFull)
            }
        }
    }

    /// Looks a job up by id.
    pub fn get(&self, id: u64) -> Option<Arc<Job>> {
        self.jobs.lock().unwrap_or_else(PoisonError::into_inner).get(&id).cloned()
    }

    /// Requests cancellation: raises the flag (the executor aborts at the
    /// next batch boundary) and immediately marks still-queued jobs
    /// cancelled. Returns the job, or `None` for unknown ids.
    pub fn cancel(&self, id: u64) -> Option<Arc<Job>> {
        let job = self.get(id)?;
        job.cancel.store(true, Ordering::Relaxed);
        if job.state() == JobState::Queued {
            job.set_state(JobState::Cancelled);
        }
        Some(job)
    }

    /// `(queued, running, done, failed, cancelled)` counts.
    pub fn counts(&self) -> (usize, usize, usize, usize, usize) {
        let jobs = self.jobs.lock().unwrap_or_else(PoisonError::into_inner);
        let mut out = (0, 0, 0, 0, 0);
        for job in jobs.values() {
            match job.state() {
                JobState::Queued => out.0 += 1,
                JobState::Running => out.1 += 1,
                JobState::Done(_) => out.2 += 1,
                JobState::Failed(_) => out.3 += 1,
                JobState::Cancelled => out.4 += 1,
            }
        }
        out
    }

    /// Graceful shutdown: cancel everything outstanding, close the queue,
    /// join the executors. Idempotent.
    pub fn shutdown(&self) {
        {
            let jobs = self.jobs.lock().unwrap_or_else(PoisonError::into_inner);
            for job in jobs.values() {
                job.cancel.store(true, Ordering::Relaxed);
            }
        }
        // Dropping the sender ends the worker loops once the queue drains.
        self.tx.lock().unwrap_or_else(PoisonError::into_inner).take();
        let handles: Vec<JoinHandle<()>> =
            self.workers.lock().unwrap_or_else(PoisonError::into_inner).drain(..).collect();
        for handle in handles {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn wait_for<F: Fn() -> bool>(predicate: F) {
        for _ in 0..500 {
            if predicate() {
                return;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        panic!("condition not reached within 1s");
    }

    #[test]
    fn jobs_run_to_done_and_report_results() {
        let executor: Executor =
            Arc::new(|canonical, _cancel, _progress| Ok(Arc::new(format!("result:{canonical}"))));
        let store = JobStore::new(1, 4, executor);
        let job = store.submit("alpha".to_string()).unwrap();
        assert_eq!(job.id, 1);
        wait_for(|| matches!(store.get(1).unwrap().state(), JobState::Done(_)));
        let JobState::Done(body) = store.get(1).unwrap().state() else {
            panic!("expected done");
        };
        assert_eq!(*body, "result:alpha");
        assert_eq!(store.counts().2, 1);
        store.shutdown();
        store.shutdown(); // idempotent
    }

    #[test]
    fn failures_are_reported() {
        let executor: Executor = Arc::new(|_c, _f, _p| Err("boom".to_string()));
        let store = JobStore::new(1, 4, executor);
        store.submit("x".to_string()).unwrap();
        wait_for(|| matches!(store.get(1).unwrap().state(), JobState::Failed(_)));
        let JobState::Failed(message) = store.get(1).unwrap().state() else {
            panic!("expected failed");
        };
        assert_eq!(message, "boom");
        store.shutdown();
    }

    #[test]
    fn queue_overflow_is_reported_to_the_caller() {
        // A blocking first job pins the single worker; depth-1 queue holds
        // one more; the third submit must fail.
        let gate = Arc::new(AtomicBool::new(false));
        let gate_exec = Arc::clone(&gate);
        let executor: Executor = Arc::new(move |_c, cancel, _p| {
            while !gate_exec.load(Ordering::Relaxed) && !cancel.load(Ordering::Relaxed) {
                std::thread::sleep(Duration::from_millis(1));
            }
            Ok(Arc::new("done".to_string()))
        });
        let store = JobStore::new(1, 1, executor);
        store.submit("a".to_string()).unwrap();
        wait_for(|| store.get(1).unwrap().state() == JobState::Running);
        store.submit("b".to_string()).unwrap();
        assert!(store.submit("c".to_string()).is_err(), "queue must be full");
        gate.store(true, Ordering::Relaxed);
        wait_for(|| matches!(store.get(2).unwrap().state(), JobState::Done(_)));
        store.shutdown();
    }

    #[test]
    fn a_poisoned_jobs_lock_still_admits_and_reports_jobs() {
        let executor: Executor = Arc::new(|c, _f, _p| Ok(Arc::new(c.to_string())));
        let store = JobStore::new(1, 4, executor);
        let held = Arc::clone(&store);
        let poisoner = std::thread::spawn(move || {
            let _jobs = held.jobs.lock().unwrap_or_else(PoisonError::into_inner);
            panic!("panic while holding the jobs lock");
        });
        assert!(poisoner.join().is_err());
        assert!(store.jobs.is_poisoned());
        let job = store.submit("after".to_string()).unwrap();
        wait_for(|| matches!(store.get(job.id).unwrap().state(), JobState::Done(_)));
        assert_eq!(store.counts().2, 1);
        store.shutdown();
    }

    #[test]
    fn finished_jobs_are_forgotten_beyond_the_retention_cap() {
        let executor: Executor = Arc::new(|c, _f, _p| Ok(Arc::new(c.to_string())));
        let store = JobStore::with_retention(1, 8, executor, 2);
        for i in 0..6 {
            store.submit(format!("job-{i}")).unwrap();
        }
        // All six finish; only the two newest stay queryable.
        wait_for(|| {
            store.get(6).is_some_and(|j| matches!(j.state(), JobState::Done(_)))
                && store.jobs.lock().unwrap().len() <= 2
        });
        assert!(store.get(1).is_none(), "oldest finished job must be forgotten");
        assert!(store.get(6).is_some());
        store.shutdown();
    }

    #[test]
    fn progress_counts_tasks_monotonically_and_freezes_on_retirement() {
        let executor: Executor = Arc::new(|_c, _f, progress| {
            progress.begin(4);
            for _ in 0..4 {
                std::thread::sleep(Duration::from_millis(2));
                progress.task_done(2_000_000);
            }
            Ok(Arc::new("done".to_string()))
        });
        let store = JobStore::new(1, 4, executor);
        let job = store.submit("p".to_string()).unwrap();
        // Fractions sampled while running never decrease.
        let mut last = 0.0f64;
        while !matches!(job.state(), JobState::Done(_)) {
            let snap = job.progress.snapshot();
            assert!(snap.fraction() >= last, "{} < {last}", snap.fraction());
            last = snap.fraction();
            std::thread::sleep(Duration::from_millis(1));
        }
        let done = job.progress.snapshot();
        assert_eq!((done.tasks_done, done.tasks_total), (4, 4));
        assert!((done.fraction() - 1.0).abs() < 1e-12);
        assert!(done.busy_ns >= 8_000_000, "busy {}", done.busy_ns);
        assert!(done.elapsed_ns > 0);
        assert_eq!(done.eta_ns(), None, "no ETA once complete");
        // The elapsed clock froze when the job retired.
        let later = job.progress.snapshot();
        assert_eq!(done.elapsed_ns, later.elapsed_ns);
        // Mid-flight snapshots do estimate.
        let mid = ProgressSnapshot {
            tasks_done: 2,
            tasks_total: 4,
            busy_ns: 0,
            elapsed_ns: 1_000,
        };
        assert_eq!(mid.eta_ns(), Some(1_000));
        store.shutdown();
    }

    #[test]
    fn cancellation_discards_partial_work() {
        let executor: Executor = Arc::new(|_c, cancel, _p| {
            // A cooperative loop that notices the flag.
            for _ in 0..1_000 {
                if cancel.load(Ordering::Relaxed) {
                    return Err("interrupted".to_string());
                }
                std::thread::sleep(Duration::from_millis(1));
            }
            Ok(Arc::new("finished".to_string()))
        });
        let store = JobStore::new(1, 4, executor);
        store.submit("long".to_string()).unwrap();
        wait_for(|| store.get(1).unwrap().state() == JobState::Running);
        let job = store.cancel(1).unwrap();
        assert!(job.cancel.load(Ordering::Relaxed));
        wait_for(|| store.get(1).unwrap().state() == JobState::Cancelled);
        // Cancelling a queued job flips it immediately; unknown ids say so.
        assert!(store.cancel(99).is_none());
        store.shutdown();
    }
}
