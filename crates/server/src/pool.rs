//! Bounded admission: the worker pool's job queue.
//!
//! Queries no longer execute on their connection thread. Each connection
//! submits a `Job` into a bounded `AdmissionQueue` and blocks on its
//! private reply channel; a fixed pool of worker threads pops jobs and runs
//! them. Overload therefore has three typed, *bounded* outcomes instead of
//! unbounded thread growth:
//!
//! - **queue full** — the incoming request (the newest work in the system)
//!   is shed immediately with an `overloaded` error and a `retry_after_ms`
//!   hint; nothing already queued is disturbed.
//! - **deadline shed** — a job that waited in the queue longer than
//!   [`ServerConfig::queue_deadline`](crate::ServerConfig::queue_deadline)
//!   is answered `overloaded` without executing: by the time a worker got to
//!   it, the client is assumed to have given up or retried.
//! - **draining** — after a graceful shutdown begins, new queries are
//!   refused while queued and in-flight ones run to completion.
//!
//! Workers execute each job inside `catch_unwind`, so a panicking handler
//! costs one typed `internal` error, not a worker thread.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

use crate::json::Value;
use crate::{run_query, srv_metrics, Failure, Payload, Shared};

/// One queued query: the parsed request plus everything needed to answer it.
pub(crate) struct Job {
    /// The parsed request object (the full line, `op: "query"`).
    pub(crate) req: Value,
    /// The submitting session's id (for the slow-query log).
    pub(crate) session: u64,
    /// When the job entered the queue — the shed deadline counts from here.
    pub(crate) enqueued: Instant,
    /// Where the connection thread waits for the answer.
    pub(crate) reply: mpsc::Sender<QueryReply>,
}

/// A worker's answer to one [`Job`].
pub(crate) struct QueryReply {
    /// The op payload or its typed failure.
    pub(crate) outcome: Result<Payload, Failure>,
    /// Rows produced, for the session's running counter.
    pub(crate) rows: u64,
}

/// The admission verdict for a submitted job.
pub(crate) enum Admission {
    /// Accepted; the reply channel will receive exactly one [`QueryReply`].
    Queued,
    /// Shed: the queue is at capacity. Newest-shed-first — the incoming
    /// request is refused, queued work is untouched.
    QueueFull,
    /// Refused: the server is draining (graceful shutdown) or stopped.
    Draining,
}

struct QueueState {
    jobs: VecDeque<Job>,
    /// New submissions are refused; workers keep draining `jobs`.
    draining: bool,
    /// Workers exit once `jobs` is empty.
    closed: bool,
}

/// A bounded MPMC queue of [`Job`]s with explicit drain/discard shutdown.
pub(crate) struct AdmissionQueue {
    state: Mutex<QueueState>,
    cond: Condvar,
    capacity: usize,
}

impl AdmissionQueue {
    pub(crate) fn new(capacity: usize) -> Self {
        AdmissionQueue {
            state: Mutex::new(QueueState {
                jobs: VecDeque::new(),
                draining: false,
                closed: false,
            }),
            cond: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    /// Submits a job, never blocking: over-capacity and draining states are
    /// reported immediately so the caller can shed with a typed error.
    pub(crate) fn submit(&self, job: Job) -> Admission {
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        if state.draining {
            return Admission::Draining;
        }
        if state.jobs.len() >= self.capacity {
            return Admission::QueueFull;
        }
        state.jobs.push_back(job);
        srv_metrics::queue_depth().set(state.jobs.len() as i64);
        self.cond.notify_one();
        Admission::Queued
    }

    /// Blocks for the next job; `None` once the queue is closed **and**
    /// empty, so a graceful close drains every accepted job first.
    pub(crate) fn pop(&self) -> Option<Job> {
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if let Some(job) = state.jobs.pop_front() {
                srv_metrics::queue_depth().set(state.jobs.len() as i64);
                return Some(job);
            }
            if state.closed {
                return None;
            }
            state = self.cond.wait(state).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Graceful close: refuse new submissions, let workers drain the rest.
    pub(crate) fn close(&self) {
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        state.draining = true;
        state.closed = true;
        self.cond.notify_all();
    }

    /// Abrupt close: refuse new submissions **and** discard queued jobs
    /// (their reply channels drop, surfacing as an `internal` error or a
    /// dead connection — exactly what a crashed server looks like).
    pub(crate) fn discard(&self) {
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        state.draining = true;
        state.closed = true;
        state.jobs.clear();
        srv_metrics::queue_depth().set(0);
        self.cond.notify_all();
    }

    /// Jobs currently waiting (for the `stats` op).
    pub(crate) fn depth(&self) -> usize {
        self.state
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .jobs
            .len()
    }
}

/// One worker thread: pops jobs until the queue closes, shedding stale ones
/// and executing the rest under `catch_unwind`.
pub(crate) fn worker_loop(shared: Arc<Shared>) {
    while let Some(job) = shared.queue.pop() {
        let waited = job.enqueued.elapsed();
        if waited > shared.config.queue_deadline {
            srv_metrics::shed_deadline().inc();
            let _ = job.reply.send(QueryReply {
                outcome: Err(Failure::overloaded(
                    format!(
                        "queue deadline exceeded ({}ms waiting, {}ms allowed)",
                        waited.as_millis(),
                        shared.config.queue_deadline.as_millis()
                    ),
                    shared.retry_hint_ms(),
                )),
                rows: 0,
            });
            continue;
        }

        srv_metrics::queries_inflight().add(1);
        if let Some(share) = shared.query_share {
            srv_metrics::bytes_inflight().add(share as i64);
        }
        let started = Instant::now();
        let result = catch_unwind(AssertUnwindSafe(|| {
            run_query(&shared, job.session, &job.req)
        }));
        shared.record_service(started.elapsed());
        if let Some(share) = shared.query_share {
            srv_metrics::bytes_inflight().add(-(share as i64));
        }
        srv_metrics::queries_inflight().add(-1);

        let reply = match result {
            Ok((outcome, rows)) => {
                if matches!(&outcome, Err(f) if f.kind == "memory_budget") {
                    srv_metrics::budget_kills().inc();
                }
                QueryReply { outcome, rows }
            }
            Err(_) => {
                srv_metrics::handler_panics().inc();
                QueryReply {
                    outcome: Err(Failure::internal("query handler panicked")),
                    rows: 0,
                }
            }
        };
        // a dropped receiver just means the client went away mid-query
        let _ = job.reply.send(reply);
    }
}
