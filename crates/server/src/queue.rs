//! A bounded MPMC queue built on `Mutex` + `Condvar`.
//!
//! This is the admission-control point of the server: connection threads
//! `try_push` — they never block — and a full queue is reported to the
//! caller so it can answer `busy` instead of stalling the client. Drain
//! workers block in `pop_timeout` with a short timeout so they can
//! observe shutdown promptly even when no traffic arrives.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

/// Why a `try_push` was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PushError {
    /// The queue is at capacity — shed the request.
    Full,
    /// The queue was closed for shutdown.
    Closed,
}

struct Inner<T> {
    items: VecDeque<T>,
    closed: bool,
}

/// A bounded multi-producer multi-consumer queue.
pub struct BoundedQueue<T> {
    inner: Mutex<Inner<T>>,
    ready: Condvar,
    capacity: usize,
}

impl<T> BoundedQueue<T> {
    /// A queue holding at most `capacity` items (`capacity ≥ 1`).
    #[must_use]
    pub fn new(capacity: usize) -> BoundedQueue<T> {
        assert!(capacity >= 1, "queue capacity must be at least 1");
        BoundedQueue {
            inner: Mutex::new(Inner {
                items: VecDeque::with_capacity(capacity),
                closed: false,
            }),
            ready: Condvar::new(),
            capacity,
        }
    }

    /// The queue state. Every operation leaves it consistent (one push,
    /// pop or flag write), so a lock poisoned by a thread that panicked
    /// while holding it is recovered, not propagated.
    fn inner(&self) -> MutexGuard<'_, Inner<T>> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Enqueues without blocking.
    ///
    /// # Errors
    ///
    /// [`PushError::Full`] at capacity, [`PushError::Closed`] after
    /// [`close`](Self::close). The item rides back in the error so the
    /// caller can answer the client.
    pub fn try_push(&self, item: T) -> Result<(), (PushError, T)> {
        let mut inner = self.inner();
        if inner.closed {
            return Err((PushError::Closed, item));
        }
        if inner.items.len() >= self.capacity {
            return Err((PushError::Full, item));
        }
        inner.items.push_back(item);
        drop(inner);
        self.ready.notify_one();
        Ok(())
    }

    /// Dequeues, blocking up to `timeout`. `None` means the timeout
    /// elapsed (or the queue closed) with nothing available.
    pub fn pop_timeout(&self, timeout: Duration) -> Option<T> {
        let mut inner = self.inner();
        loop {
            if let Some(item) = inner.items.pop_front() {
                return Some(item);
            }
            if inner.closed {
                return None;
            }
            let (next, wait) = self
                .ready
                .wait_timeout(inner, timeout)
                .unwrap_or_else(PoisonError::into_inner);
            inner = next;
            if wait.timed_out() {
                return inner.items.pop_front();
            }
        }
    }

    /// Dequeues without blocking.
    pub fn try_pop(&self) -> Option<T> {
        self.inner().items.pop_front()
    }

    /// Closes the queue: pushes fail from now on; already-queued items
    /// remain poppable so shutdown can drain in-flight work.
    pub fn close(&self) {
        self.inner().closed = true;
        self.ready.notify_all();
    }

    /// True once [`close`](Self::close) has been called.
    #[must_use]
    pub fn is_closed(&self) -> bool {
        self.inner().closed
    }

    /// Current occupancy.
    #[must_use]
    pub fn len(&self) -> usize {
        self.inner().items.len()
    }

    /// True when nothing is queued.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The configured bound.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Instant;

    #[test]
    fn full_queue_sheds_instead_of_blocking() {
        let q = BoundedQueue::new(2);
        q.try_push(1).unwrap();
        q.try_push(2).unwrap();
        let started = Instant::now();
        let (err, item) = q.try_push(3).unwrap_err();
        assert_eq!(err, PushError::Full);
        assert_eq!(item, 3);
        assert!(started.elapsed() < Duration::from_millis(100));
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn close_rejects_pushes_but_drains_existing_items() {
        let q = BoundedQueue::new(4);
        q.try_push(1).unwrap();
        q.close();
        assert!(q.is_closed());
        let (err, _) = q.try_push(2).unwrap_err();
        assert_eq!(err, PushError::Closed);
        assert_eq!(q.pop_timeout(Duration::from_millis(10)), Some(1));
        assert_eq!(q.pop_timeout(Duration::from_millis(10)), None);
    }

    #[test]
    fn pop_timeout_returns_none_on_an_idle_queue() {
        let q: BoundedQueue<u32> = BoundedQueue::new(1);
        let started = Instant::now();
        assert_eq!(q.pop_timeout(Duration::from_millis(20)), None);
        assert!(started.elapsed() >= Duration::from_millis(15));
    }

    #[test]
    fn a_panic_while_holding_the_lock_leaves_the_queue_usable() {
        let q = Arc::new(BoundedQueue::new(4));
        q.try_push(1).unwrap();
        let poisoner = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || {
                let _guard = q.inner.lock().unwrap();
                panic!("worker panics while holding the queue lock");
            })
        };
        assert!(poisoner.join().is_err());
        assert!(q.inner.is_poisoned());
        q.try_push(2).unwrap();
        assert_eq!(q.len(), 2);
        assert_eq!(q.pop_timeout(Duration::from_millis(10)), Some(1));
        assert_eq!(q.try_pop(), Some(2));
        assert_eq!(q.pop_timeout(Duration::from_millis(10)), None);
        q.close();
        assert!(q.is_closed());
    }

    #[test]
    fn items_cross_threads() {
        let q = Arc::new(BoundedQueue::new(64));
        let consumer = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || {
                let mut sum = 0_u64;
                let mut seen = 0;
                while seen < 100 {
                    if let Some(v) = q.pop_timeout(Duration::from_millis(50)) {
                        sum += v;
                        seen += 1;
                    }
                }
                sum
            })
        };
        for v in 1..=100_u64 {
            loop {
                match q.try_push(v) {
                    Ok(()) => break,
                    Err(_) => std::thread::yield_now(),
                }
            }
        }
        assert_eq!(consumer.join().unwrap(), 5050);
    }
}
