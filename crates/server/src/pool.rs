//! The bounded job queue and worker pool.
//!
//! Connections submit parsed requests as [`Job`]s into a bounded queue: a
//! `VecDeque` under a `Mutex`, with a `Condvar` that wakes one idle worker
//! per job. A full queue refuses the job at once (the `overloaded`
//! protocol error) instead of growing. Workers share the engine through
//! an `Arc`, take the lock only to pop a job, and each job carries its own
//! reply channel back to the submitting connection.
//!
//! The queue is not a `std::sync::mpsc::sync_channel`: its single receiver
//! would have to sit behind a mutex that one worker holds while it blocks
//! in `recv`, so every job would also wake the worker parked on that mutex.
//! On the daemon's query mix that hand-off cost throughput and tail
//! latency (EXPERIMENTS.md, "Concurrency on `std` alone").
//!
//! Shutdown is graceful by construction: closing the queue wakes every
//! worker, and a worker takes every already-queued job before it sees the
//! queue closed, so in-flight work drains before workers exit.

use crate::protocol::Request;
use std::collections::VecDeque;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

/// One queued request plus everything needed to answer it.
pub struct Job {
    /// The parsed request.
    pub request: Request,
    /// When the connection enqueued it (deadline bookkeeping).
    pub enqueued: Instant,
    /// Where the serialized response line goes.
    pub reply: Sender<String>,
}

impl Job {
    /// Creates a job stamped `now`, returning it with the paired receiver
    /// the submitter waits on.
    pub fn new(request: Request) -> (Self, Receiver<String>) {
        let (tx, rx) = channel();
        (
            Self {
                request,
                enqueued: Instant::now(),
                reply: tx,
            },
            rx,
        )
    }
}

/// Why a submission was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitError {
    /// The bounded queue is full — the typed backpressure signal.
    Overloaded,
    /// The pool is shutting down.
    ShuttingDown,
}

/// Jobs waiting for a worker.
struct Queue {
    jobs: VecDeque<Job>,
    /// Cleared by [`WorkerPool::shutdown`]; no job is accepted after.
    open: bool,
}

/// The queue and the condition variable its workers wait on.
struct Shared {
    queue: Mutex<Queue>,
    /// Signalled once per submitted job, and to every worker on shutdown.
    ready: Condvar,
}

impl Shared {
    fn lock(&self) -> MutexGuard<'_, Queue> {
        self.queue.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Blocks until a job is queued and returns it, or returns `None` once
    /// the queue is closed and empty. The lock is released on return, so
    /// it is never held while a job runs.
    fn next_job(&self) -> Option<Job> {
        self.ready
            .wait_while(self.lock(), |q| q.open && q.jobs.is_empty())
            .unwrap_or_else(PoisonError::into_inner)
            .jobs
            .pop_front()
    }
}

/// A fixed set of worker threads draining the bounded queue.
pub struct WorkerPool {
    shared: Arc<Shared>,
    workers: Mutex<Vec<std::thread::JoinHandle<()>>>,
    capacity: usize,
}

impl WorkerPool {
    /// Spawns `threads` workers over a queue of `capacity` slots; each job
    /// is passed to `handler`.
    pub fn new<F>(threads: usize, capacity: usize, handler: Arc<F>) -> Self
    where
        F: Fn(Job) + Send + Sync + 'static,
    {
        let capacity = capacity.max(1);
        let queue = Queue {
            jobs: VecDeque::with_capacity(capacity),
            open: true,
        };
        let shared = Arc::new(Shared {
            queue: Mutex::new(queue),
            ready: Condvar::new(),
        });
        // A worker that fails to spawn (thread exhaustion) is dropped; the
        // pool serves with however many threads came up, and submitters
        // time out rather than the server aborting.
        let workers = (0..threads.max(1))
            .filter_map(|i| {
                let shared = Arc::clone(&shared);
                let handler = Arc::clone(&handler);
                std::thread::Builder::new()
                    .name(format!("nsigma-worker-{i}"))
                    .spawn(move || {
                        while let Some(job) = shared.next_job() {
                            handler(job);
                        }
                    })
                    .ok()
            })
            .collect();
        Self {
            shared,
            workers: Mutex::new(workers),
            capacity,
        }
    }

    /// Queue capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Jobs currently waiting in the queue.
    pub fn queued(&self) -> usize {
        self.shared.lock().jobs.len()
    }

    /// Non-blocking submission.
    ///
    /// # Errors
    ///
    /// [`SubmitError::Overloaded`] when the queue is full,
    /// [`SubmitError::ShuttingDown`] after [`WorkerPool::shutdown`].
    pub fn submit(&self, job: Job) -> Result<(), SubmitError> {
        let mut queue = self.shared.lock();
        if !queue.open {
            return Err(SubmitError::ShuttingDown);
        }
        if queue.jobs.len() >= self.capacity {
            return Err(SubmitError::Overloaded);
        }
        queue.jobs.push_back(job);
        drop(queue);
        self.shared.ready.notify_one();
        Ok(())
    }

    /// Stops accepting jobs, drains everything already queued, and joins
    /// the workers.
    pub fn shutdown(&self) {
        self.shared.lock().open = false;
        self.shared.ready.notify_all();
        let workers: Vec<_> = self
            .workers
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .drain(..)
            .collect();
        for w in workers {
            let _ = w.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::Request;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::time::Duration;

    fn echo_handler() -> Arc<impl Fn(Job) + Send + Sync> {
        Arc::new(|job: Job| {
            let _ = job.reply.send(format!("done:{}", job.request.endpoint()));
        })
    }

    #[test]
    fn round_trips_a_job() {
        let pool = WorkerPool::new(2, 4, echo_handler());
        let (job, rx) = Job::new(Request::Stats);
        pool.submit(job).unwrap();
        assert_eq!(
            rx.recv_timeout(Duration::from_secs(5)).unwrap(),
            "done:stats"
        );
        pool.shutdown();
    }

    #[test]
    fn backpressure_when_full() {
        // One slow worker, capacity 1: the first job occupies the worker,
        // the second fills the queue, the third must be rejected.
        let gate = Arc::new(AtomicUsize::new(0));
        let g = Arc::clone(&gate);
        let handler = Arc::new(move |job: Job| {
            while g.load(Ordering::SeqCst) == 0 {
                std::thread::sleep(Duration::from_millis(1));
            }
            let _ = job.reply.send("ok".into());
        });
        let pool = WorkerPool::new(1, 1, handler);
        let (j1, r1) = Job::new(Request::Stats);
        let (j2, r2) = Job::new(Request::Stats);
        pool.submit(j1).unwrap();
        // Give the worker a moment to pick up j1 so j2 lands in the queue.
        std::thread::sleep(Duration::from_millis(50));
        pool.submit(j2).unwrap();
        let mut saw_overload = false;
        for _ in 0..3 {
            let (j3, _r3) = Job::new(Request::Stats);
            if pool.submit(j3) == Err(SubmitError::Overloaded) {
                saw_overload = true;
                break;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        assert!(saw_overload, "full queue must reject with Overloaded");
        assert_eq!(pool.queued(), 1, "j2 waits behind the blocked worker");
        gate.store(1, Ordering::SeqCst);
        assert_eq!(r1.recv_timeout(Duration::from_secs(5)).unwrap(), "ok");
        assert_eq!(r2.recv_timeout(Duration::from_secs(5)).unwrap(), "ok");
        assert_eq!(pool.queued(), 0);
        pool.shutdown();
    }

    #[test]
    fn workers_serve_jobs_concurrently() {
        // Each job waits for the other to start: both finish "together"
        // only if two workers run jobs at the same time.
        let started = AtomicUsize::new(0);
        let handler = Arc::new(move |job: Job| {
            started.fetch_add(1, Ordering::SeqCst);
            let deadline = Instant::now() + Duration::from_secs(2);
            while started.load(Ordering::SeqCst) < 2 && Instant::now() < deadline {
                std::thread::sleep(Duration::from_millis(1));
            }
            let met = started.load(Ordering::SeqCst) >= 2;
            let _ = job
                .reply
                .send(if met { "together" } else { "alone" }.into());
        });
        let pool = WorkerPool::new(2, 4, handler);
        let (j1, r1) = Job::new(Request::Stats);
        let (j2, r2) = Job::new(Request::Stats);
        pool.submit(j1).unwrap();
        pool.submit(j2).unwrap();
        for rx in [r1, r2] {
            assert_eq!(
                rx.recv_timeout(Duration::from_secs(10)).unwrap(),
                "together"
            );
        }
        pool.shutdown();
    }

    #[test]
    fn shutdown_drains_queued_jobs() {
        let served = Arc::new(AtomicUsize::new(0));
        let s = Arc::clone(&served);
        let handler = Arc::new(move |job: Job| {
            std::thread::sleep(Duration::from_millis(5));
            s.fetch_add(1, Ordering::SeqCst);
            let _ = job.reply.send("ok".into());
        });
        let pool = WorkerPool::new(2, 16, handler);
        let mut receivers = Vec::new();
        for _ in 0..10 {
            let (job, rx) = Job::new(Request::Stats);
            pool.submit(job).unwrap();
            receivers.push(rx);
        }
        pool.shutdown();
        assert_eq!(served.load(Ordering::SeqCst), 10, "shutdown must drain");
        for rx in receivers {
            assert!(rx.try_recv().is_ok());
        }
        assert_eq!(
            pool.submit(Job::new(Request::Stats).0),
            Err(SubmitError::ShuttingDown)
        );
    }
}
