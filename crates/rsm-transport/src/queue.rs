//! A bounded, blocking MPSC queue with a lock-free depth gauge.
//!
//! Outbound link queues need real backpressure: a sender that outruns a
//! peer's socket must stall, never drop, because every protocol here
//! assumes gap-free FIFO links. `std::sync::mpsc::sync_channel` would
//! block too, but its length cannot be read from outside, and admission
//! control and the metrics registry both sample it. This queue is the
//! minimal mutex + two-condvar implementation of exactly that.

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex};

use rsm_obs::Gauge;

struct Shared<T> {
    inner: Mutex<Inner<T>>,
    not_empty: Condvar,
    not_full: Condvar,
    /// Lock-free mirror of `buf.len()`, readable from outside the
    /// queue's threads (admission control samples it, and the runtime
    /// registers it as a metrics-registry gauge when observing).
    depth: Gauge,
}

struct Inner<T> {
    buf: VecDeque<T>,
    cap: usize,
    senders: usize,
    rx_alive: bool,
}

pub(crate) fn bounded<T>(cap: usize) -> (QueueSender<T>, QueueReceiver<T>) {
    assert!(cap > 0, "queue capacity must be positive");
    let shared = Arc::new(Shared {
        inner: Mutex::new(Inner {
            buf: VecDeque::new(),
            cap,
            senders: 1,
            rx_alive: true,
        }),
        not_empty: Condvar::new(),
        not_full: Condvar::new(),
        depth: Gauge::default(),
    });
    (
        QueueSender {
            shared: Arc::clone(&shared),
        },
        QueueReceiver { shared },
    )
}

pub(crate) struct QueueSender<T> {
    shared: Arc<Shared<T>>,
}

impl<T> QueueSender<T> {
    /// A lock-free handle on the current queue depth (admission
    /// control samples it without touching the queue mutex).
    pub(crate) fn depth_gauge(&self) -> Gauge {
        self.shared.depth.clone()
    }

    /// Enqueues `value`, blocking while the queue is full. Fails (giving
    /// the value back) only if the receiver is gone.
    pub(crate) fn send(&self, value: T) -> Result<(), T> {
        let mut inner = self.shared.inner.lock().unwrap();
        loop {
            if !inner.rx_alive {
                return Err(value);
            }
            if inner.buf.len() < inner.cap {
                inner.buf.push_back(value);
                self.shared.depth.set(inner.buf.len() as i64);
                self.shared.not_empty.notify_one();
                return Ok(());
            }
            inner = self.shared.not_full.wait(inner).unwrap();
        }
    }
}

impl<T> Clone for QueueSender<T> {
    fn clone(&self) -> Self {
        self.shared.inner.lock().unwrap().senders += 1;
        QueueSender {
            shared: Arc::clone(&self.shared),
        }
    }
}

impl<T> Drop for QueueSender<T> {
    fn drop(&mut self) {
        let mut inner = self.shared.inner.lock().unwrap();
        inner.senders -= 1;
        if inner.senders == 0 {
            drop(inner);
            self.shared.not_empty.notify_all();
        }
    }
}

pub(crate) struct QueueReceiver<T> {
    shared: Arc<Shared<T>>,
}

impl<T> QueueReceiver<T> {
    /// Dequeues the next value, blocking while the queue is empty.
    /// Returns `None` once the queue is empty **and** every sender is
    /// gone.
    pub(crate) fn recv(&self) -> Option<T> {
        let mut inner = self.shared.inner.lock().unwrap();
        loop {
            if let Some(v) = inner.buf.pop_front() {
                self.shared.depth.set(inner.buf.len() as i64);
                self.shared.not_full.notify_one();
                return Some(v);
            }
            if inner.senders == 0 {
                return None;
            }
            inner = self.shared.not_empty.wait(inner).unwrap();
        }
    }

    /// Non-blocking dequeue; `None` when currently empty.
    pub(crate) fn try_recv(&self) -> Option<T> {
        let mut inner = self.shared.inner.lock().unwrap();
        let v = inner.buf.pop_front();
        if v.is_some() {
            self.shared.depth.set(inner.buf.len() as i64);
            self.shared.not_full.notify_one();
        }
        v
    }

    /// True once every sender has been dropped (the owning hub is
    /// shutting down); used to stop redialing an unreachable peer.
    pub(crate) fn senders_gone(&self) -> bool {
        self.shared.inner.lock().unwrap().senders == 0
    }
}

impl<T> Drop for QueueReceiver<T> {
    fn drop(&mut self) {
        let mut inner = self.shared.inner.lock().unwrap();
        inner.rx_alive = false;
        drop(inner);
        self.shared.not_full.notify_all();
    }
}
