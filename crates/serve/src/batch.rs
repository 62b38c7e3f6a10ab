//! The micro-batching queue: coalesce concurrent requests into one
//! batched execution per flush window.
//!
//! Worker threads [`Batcher::submit`] requests and block on a per-request
//! reply channel; a single flusher thread runs [`Batcher::serve_loop`],
//! draining up to `max_batch` requests per flush (waiting at most
//! `max_wait` after the first pending request for stragglers) and
//! executing them with one callback. The executor is created *inside*
//! the flusher thread, so it may own non-`Send` state — mg-serve's
//! `FrozenModel` lives there.
//!
//! ## Determinism
//!
//! The batcher never merges, reorders or splits the *contents* of
//! requests; a flush hands the executor the pending requests in
//! submission order and returns one result per request. With mg-serve's
//! executor — pure gathers from an output table computed once at load —
//! any interleaving of requests across flush windows yields bitwise the
//! results of executing them one at a time (the `batch_prop` suite and
//! the e2e test pin this).
//!
//! ## Fail-closed backpressure
//!
//! The queue is bounded: a submit against a full queue returns
//! [`ServeError::Overloaded`] immediately instead of buffering without
//! limit, and a submit after [`Batcher::close`] returns
//! [`ServeError::ShuttingDown`]. Close drains: requests accepted before
//! the close are still executed and answered.
//!
//! A flush whose executor panics answers each of its requests
//! [`ServeError::Internal`] and the loop keeps serving, so no submitter
//! waits forever; sound for mg-serve, whose executor state is immutable.

use crate::error::ServeError;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc;
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

/// Batching knobs (see `ServeConfig` for the env mapping).
#[derive(Clone, Copy, Debug)]
pub struct BatchCfg {
    /// Most requests coalesced into one flush.
    pub max_batch: usize,
    /// Longest a flush waits for stragglers after its first request.
    pub max_wait: Duration,
    /// Most requests pending before submits are rejected.
    pub max_queue: usize,
}

/// How a request's flush treated it, for telemetry.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BatchMeta {
    /// Requests in the flush this one rode in.
    pub batch_size: usize,
    /// Time spent queued before the flush started, ns.
    pub queue_ns: u64,
    /// Wall time of the flush's execution, ns (shared by the batch).
    pub forward_ns: u64,
}

/// What a submitter receives back.
pub type Reply<Resp> = (Result<Resp, ServeError>, BatchMeta);

struct Pending<Req, Resp> {
    req: Req,
    queued: Instant,
    reply: mpsc::Sender<Reply<Resp>>,
}

struct Inner<Req, Resp> {
    queue: VecDeque<Pending<Req, Resp>>,
    closed: bool,
}

/// The shared queue. `Req`/`Resp` cross from worker threads to the
/// flusher thread and back, so both must be `Send`; the executor state
/// need not be.
pub struct Batcher<Req, Resp> {
    cfg: BatchCfg,
    inner: Mutex<Inner<Req, Resp>>,
    nonempty: Condvar,
}

impl<Req: Send, Resp: Send> Batcher<Req, Resp> {
    pub fn new(cfg: BatchCfg) -> Batcher<Req, Resp> {
        assert!(cfg.max_batch >= 1, "max_batch must be at least 1");
        assert!(cfg.max_queue >= 1, "max_queue must be at least 1");
        Batcher {
            cfg,
            inner: Mutex::new(Inner {
                queue: VecDeque::new(),
                closed: false,
            }),
            nonempty: Condvar::new(),
        }
    }

    pub fn cfg(&self) -> &BatchCfg {
        &self.cfg
    }

    /// Requests currently pending (statsz).
    pub fn depth(&self) -> usize {
        self.inner.lock().unwrap().queue.len()
    }

    /// Enqueue one request. Returns the channel its reply will arrive
    /// on, or a typed rejection if the queue is full or draining.
    pub fn submit(&self, req: Req) -> Result<mpsc::Receiver<Reply<Resp>>, ServeError> {
        let mut inner = self.inner.lock().unwrap();
        if inner.closed {
            return Err(ServeError::ShuttingDown);
        }
        if inner.queue.len() >= self.cfg.max_queue {
            return Err(ServeError::Overloaded {
                depth: inner.queue.len(),
            });
        }
        let (tx, rx) = mpsc::channel();
        inner.queue.push_back(Pending {
            req,
            queued: Instant::now(),
            reply: tx,
        });
        drop(inner);
        self.nonempty.notify_all();
        Ok(rx)
    }

    /// Stop accepting new requests and wake the flusher so it can drain
    /// what was already accepted and exit.
    pub fn close(&self) {
        self.inner.lock().unwrap().closed = true;
        self.nonempty.notify_all();
    }

    /// Collect the next batch: blocks until at least one request is
    /// pending, gives stragglers `max_wait` to pile on (or until the
    /// batch is full), then drains up to `max_batch` requests. Returns
    /// `None` once the batcher is closed and fully drained.
    fn next_batch(&self) -> Option<Vec<Pending<Req, Resp>>> {
        let mut inner = self.inner.lock().unwrap();
        while inner.queue.is_empty() {
            if inner.closed {
                return None;
            }
            inner = self.nonempty.wait(inner).unwrap();
        }
        let deadline = Instant::now() + self.cfg.max_wait;
        while inner.queue.len() < self.cfg.max_batch && !inner.closed {
            let now = Instant::now();
            if now >= deadline {
                break;
            }
            let (guard, timeout) = self.nonempty.wait_timeout(inner, deadline - now).unwrap();
            inner = guard;
            if timeout.timed_out() {
                break;
            }
        }
        let take = inner.queue.len().min(self.cfg.max_batch);
        Some(inner.queue.drain(..take).collect())
    }

    /// The flusher loop. `exec` receives each flush's requests in
    /// submission order and must return one result per request plus the
    /// execution's wall time in ns; results are delivered to the
    /// matching submitters. A flush whose `exec` panics or answers the
    /// wrong number of requests answers each of them
    /// [`ServeError::Internal`]. Runs until [`Batcher::close`] and the
    /// queue is drained.
    pub fn serve_loop<F>(&self, mut exec: F)
    where
        F: FnMut(Vec<Req>) -> (Vec<Result<Resp, ServeError>>, u64),
    {
        while let Some(batch) = self.next_batch() {
            let flushed = Instant::now();
            let batch_size = batch.len();
            type Waiter<Resp> = (Instant, mpsc::Sender<Reply<Resp>>);
            let (reqs, waiters): (Vec<Req>, Vec<Waiter<Resp>>) = batch
                .into_iter()
                .map(|p| (p.req, (p.queued, p.reply)))
                .unzip();
            let (results, forward_ns) = match catch_unwind(AssertUnwindSafe(|| exec(reqs))) {
                Ok(out) if out.0.len() == batch_size => out,
                _ => {
                    let detail = "the flush panicked or left requests unanswered";
                    let failed = (0..batch_size).map(|_| {
                        Err(ServeError::Internal {
                            detail: detail.into(),
                        })
                    });
                    (failed.collect(), flushed.elapsed().as_nanos() as u64)
                }
            };
            for (result, (queued, reply)) in results.into_iter().zip(waiters) {
                let meta = BatchMeta {
                    batch_size,
                    queue_ns: flushed.duration_since(queued).as_nanos() as u64,
                    forward_ns,
                };
                // a submitter that gave up (hung up) is not an error
                let _ = reply.send((result, meta));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn cfg(max_batch: usize, wait_us: u64, max_queue: usize) -> BatchCfg {
        BatchCfg {
            max_batch,
            max_wait: Duration::from_micros(wait_us),
            max_queue,
        }
    }

    #[test]
    fn backpressure_rejects_when_full_and_recovers_after_drain() {
        let b: Batcher<u32, u32> = Batcher::new(cfg(4, 100, 2));
        let r1 = b.submit(1).unwrap();
        let _r2 = b.submit(2).unwrap();
        match b.submit(3) {
            Err(ServeError::Overloaded { depth: 2 }) => {}
            other => panic!("expected Overloaded, got {other:?}"),
        }
        // no flusher running: drain manually through next_batch
        let batch = b.next_batch().unwrap();
        assert_eq!(batch.len(), 2);
        for p in batch {
            let _ = p.reply.send((Ok(p.req * 10), BatchMeta::default()));
        }
        assert_eq!(r1.recv().unwrap().0.unwrap(), 10);
        // space freed: submits work again
        b.submit(4).expect("queue has space after the drain");
    }

    #[test]
    fn close_drains_accepted_requests_then_stops() {
        let b: Arc<Batcher<u32, u32>> = Arc::new(Batcher::new(cfg(3, 50, 64)));
        let receivers: Vec<_> = (0..7).map(|i| b.submit(i).unwrap()).collect();
        b.close();
        match b.submit(99) {
            Err(ServeError::ShuttingDown) => {}
            other => panic!("submit after close must fail, got {other:?}"),
        }
        let flusher = {
            let b = Arc::clone(&b);
            std::thread::spawn(move || {
                let mut batches = 0u32;
                b.serve_loop(|reqs| {
                    batches += 1;
                    let out = reqs.into_iter().map(|r| Ok(r + 100)).collect();
                    (out, 5)
                });
                batches
            })
        };
        for (i, rx) in receivers.into_iter().enumerate() {
            let (result, meta) = rx.recv().expect("drained before exit");
            assert_eq!(result.unwrap(), i as u32 + 100);
            assert!(meta.batch_size >= 1 && meta.batch_size <= 3);
            assert_eq!(meta.forward_ns, 5);
        }
        // 7 requests at max_batch 3 need at least 3 flushes
        assert!(flusher.join().unwrap() >= 3);
    }

    #[test]
    fn a_panicking_flush_answers_internal_and_keeps_serving() {
        let b: Arc<Batcher<u32, u32>> = Arc::new(Batcher::new(cfg(1, 0, 64)));
        // the poisoned request is queued between two good ones, so one
        // request waits behind the panicking flush
        let queued: Vec<_> = [1, 13, 2].iter().map(|&r| b.submit(r).unwrap()).collect();
        let flusher = {
            let b = Arc::clone(&b);
            std::thread::spawn(move || {
                b.serve_loop(|reqs| {
                    let out = reqs
                        .into_iter()
                        .map(|r| {
                            assert_ne!(r, 13, "poisoned request");
                            Ok(r + 100)
                        })
                        .collect();
                    (out, 1)
                })
            })
        };
        // a timeout, not a hang, if a reply never comes
        let reply = |rx: mpsc::Receiver<Reply<u32>>| {
            rx.recv_timeout(Duration::from_secs(10))
                .expect("every submitter gets a reply")
                .0
        };
        let got: Vec<_> = queued.into_iter().map(reply).collect();
        assert_eq!(got[0], Ok(101));
        assert!(
            matches!(got[1], Err(ServeError::Internal { .. })),
            "{:?}",
            got[1]
        );
        assert_eq!(got[2], Ok(102));
        // the loop keeps serving after the panic ...
        assert_eq!(reply(b.submit(3).unwrap()), Ok(103));
        // ... and close still drains what was accepted
        let last = b.submit(4).unwrap();
        b.close();
        flusher.join().expect("the flusher survives the panic");
        assert_eq!(reply(last), Ok(104));
    }

    #[test]
    fn batch_size_never_exceeds_cap() {
        let b: Arc<Batcher<u64, u64>> = Arc::new(Batcher::new(cfg(2, 200, 1024)));
        let receivers: Vec<_> = (0..20).map(|i| b.submit(i).unwrap()).collect();
        b.close();
        let flusher = {
            let b = Arc::clone(&b);
            std::thread::spawn(move || {
                b.serve_loop(|reqs| {
                    assert!(reqs.len() <= 2);
                    (reqs.into_iter().map(Ok).collect(), 0)
                })
            })
        };
        for rx in receivers {
            rx.recv().unwrap().0.unwrap();
        }
        flusher.join().unwrap();
    }
}
