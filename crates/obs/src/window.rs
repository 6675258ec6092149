//! Windowed time-series over the metric registry: a fixed-capacity ring
//! of periodic cumulative snapshots, sampled by a background [`Ticker`].
//!
//! The hot path is untouched — recording still lands in the lock-free
//! per-thread shards of [`crate::metrics`]. The ticker thread calls
//! [`crate::metrics::snapshot`] (one registry lock, off every hot path)
//! at a fixed interval and pushes the cumulative result into the ring;
//! the oldest slot is dropped once the ring is full, so memory is
//! constant: `capacity × |metrics|` cells, regardless of uptime.
//!
//! Derived views subtract snapshots instead of resetting counters:
//!
//! * counter delta over the window → a rate (`delta / window seconds`);
//! * histogram delta ([`crate::Histogram::delta_from`]) → sliding-window
//!   p50/p99/p999 per stage and per server verb;
//! * gauges → the latest sampled value.
//!
//! Because snapshots are cumulative, a reader that misses ticks loses
//! resolution, never events.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

use crate::metrics::{self, Histogram, Metric, MetricValue};

/// One periodic cumulative snapshot of every registered metric.
#[derive(Debug, Clone)]
pub struct TickSnapshot {
    /// Monotone tick number (1-based, first tick = 1).
    pub seq: u64,
    /// Monotonic nanoseconds since process epoch at capture.
    pub at_ns: u64,
    /// The cumulative snapshot, alphabetically ordered (see
    /// [`crate::metrics::snapshot`]).
    pub metrics: Vec<Metric>,
}

impl TickSnapshot {
    fn find(&self, name: &str) -> Option<&MetricValue> {
        self.metrics
            .binary_search_by(|m| m.name.as_str().cmp(name))
            .ok()
            .map(|i| &self.metrics[i].value)
    }
}

/// A fixed-capacity ring of [`TickSnapshot`]s.
///
/// Thread-safe: the ticker pushes, any number of readers take windows.
/// All methods are constant-time in uptime (memory and work bounded by
/// `capacity`).
#[derive(Debug)]
pub struct WindowRing {
    capacity: usize,
    seq: AtomicU64,
    slots: Mutex<VecDeque<Arc<TickSnapshot>>>,
}

impl WindowRing {
    /// A ring holding up to `capacity` snapshots (at least 2, so a
    /// window — a pair of snapshots — always fits once warmed up).
    #[must_use]
    pub fn new(capacity: usize) -> WindowRing {
        let capacity = capacity.max(2);
        WindowRing {
            capacity,
            seq: AtomicU64::new(0),
            slots: Mutex::new(VecDeque::with_capacity(capacity)),
        }
    }

    /// Maximum number of retained snapshots.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of snapshots currently retained.
    #[must_use]
    pub fn len(&self) -> usize {
        self.slots
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .len()
    }

    /// True before the first tick.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Captures one cumulative snapshot now and pushes it, evicting the
    /// oldest slot when full. Returns the new snapshot's `seq`.
    pub fn tick(&self) -> u64 {
        let snap = Arc::new(TickSnapshot {
            seq: self.seq.fetch_add(1, Ordering::Relaxed) + 1,
            at_ns: crate::since_epoch_ns(),
            metrics: metrics::snapshot(),
        });
        let seq = snap.seq;
        let mut slots = self.slots.lock().unwrap_or_else(PoisonError::into_inner);
        if slots.len() == self.capacity {
            slots.pop_front();
        }
        slots.push_back(snap);
        seq
    }

    /// The most recent snapshot, if any.
    #[must_use]
    pub fn latest(&self) -> Option<Arc<TickSnapshot>> {
        self.slots
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .back()
            .cloned()
    }

    /// The sliding window over the whole ring: oldest vs newest retained
    /// snapshot. `None` until two ticks have landed.
    #[must_use]
    pub fn window(&self) -> Option<WindowDelta> {
        self.window_over(self.capacity)
    }

    /// A window over (at most) the last `ticks` snapshots. `None` until
    /// two ticks have landed.
    #[must_use]
    pub fn window_over(&self, ticks: usize) -> Option<WindowDelta> {
        let slots = self.slots.lock().unwrap_or_else(PoisonError::into_inner);
        if slots.len() < 2 {
            return None;
        }
        let last = slots.back().expect("non-empty ring").clone();
        let span = ticks.clamp(2, slots.len());
        let first = slots[slots.len() - span].clone();
        drop(slots);
        Some(WindowDelta::between(&first, &last))
    }
}

/// The difference between two cumulative snapshots: counter deltas (and
/// rates), gauge latest values, and delta histograms for sliding-window
/// quantiles.
#[derive(Debug, Clone)]
pub struct WindowDelta {
    /// `seq` of the older snapshot.
    pub first_seq: u64,
    /// `seq` of the newer snapshot.
    pub last_seq: u64,
    /// Wall span of the window in nanoseconds.
    pub span_ns: u64,
    counters: Vec<(String, u64)>,
    gauges: Vec<(String, f64)>,
    hists: Vec<(String, Histogram)>,
}

impl WindowDelta {
    /// Computes the delta `late − early`. Metrics that first appear
    /// inside the window delta against zero/empty.
    #[must_use]
    pub fn between(early: &TickSnapshot, late: &TickSnapshot) -> WindowDelta {
        let mut counters = Vec::new();
        let mut gauges = Vec::new();
        let mut hists = Vec::new();
        for m in &late.metrics {
            match &m.value {
                MetricValue::Counter(v) => {
                    let base = match early.find(&m.name) {
                        Some(MetricValue::Counter(b)) => *b,
                        _ => 0,
                    };
                    counters.push((m.name.clone(), v.saturating_sub(base)));
                }
                MetricValue::Gauge(v) => gauges.push((m.name.clone(), *v)),
                MetricValue::Histogram(h) => {
                    let delta = match early.find(&m.name) {
                        Some(MetricValue::Histogram(b)) => h.delta_from(b),
                        _ => (**h).clone(),
                    };
                    hists.push((m.name.clone(), delta));
                }
            }
        }
        WindowDelta {
            first_seq: early.seq,
            last_seq: late.seq,
            span_ns: late.at_ns.saturating_sub(early.at_ns),
            counters,
            gauges,
            hists,
        }
    }

    /// Window span in seconds.
    #[must_use]
    pub fn span_seconds(&self) -> f64 {
        self.span_ns as f64 / 1e9
    }

    /// How much a counter advanced inside the window.
    #[must_use]
    pub fn counter_delta(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    }

    /// A counter's rate over the window, events per second.
    #[must_use]
    pub fn rate(&self, name: &str) -> Option<f64> {
        let delta = self.counter_delta(name)?;
        let s = self.span_seconds();
        if s > 0.0 {
            Some(delta as f64 / s)
        } else {
            Some(0.0)
        }
    }

    /// The latest sampled value of a gauge.
    #[must_use]
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    /// The delta histogram (only the window's samples) under `name`.
    #[must_use]
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.hists.iter().find(|(n, _)| n == name).map(|(_, h)| h)
    }

    /// A sliding-window quantile of one histogram metric; `None` when the
    /// metric is absent or recorded no samples inside the window.
    #[must_use]
    pub fn quantile(&self, name: &str, q: f64) -> Option<f64> {
        let h = self.histogram(name)?;
        if h.count() == 0 {
            return None;
        }
        Some(h.quantile(q))
    }

    /// Iterates `(name, delta)` over every counter in the window.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> + '_ {
        self.counters.iter().map(|(n, v)| (n.as_str(), *v))
    }

    /// Iterates `(name, value)` over every gauge in the window.
    pub fn gauges(&self) -> impl Iterator<Item = (&str, f64)> + '_ {
        self.gauges.iter().map(|(n, v)| (n.as_str(), *v))
    }

    /// Iterates `(name, delta histogram)` over every histogram.
    pub fn histograms(&self) -> impl Iterator<Item = (&str, &Histogram)> + '_ {
        self.hists.iter().map(|(n, h)| (n.as_str(), h))
    }
}

/// The background sampling thread: calls [`WindowRing::tick`] every
/// `interval`, then hands the ring to an optional per-tick callback
/// (e.g. the SLO evaluator). Stops promptly — the sleep is a condvar
/// wait, woken by [`Ticker::stop`] or drop.
#[derive(Debug)]
pub struct Ticker {
    shared: Arc<(Mutex<bool>, Condvar)>,
    handle: Option<JoinHandle<()>>,
}

impl Ticker {
    /// Starts sampling `ring` every `interval`, running `on_tick` after
    /// each capture. The thread is named `obs-ticker`.
    pub fn start(
        ring: Arc<WindowRing>,
        interval: Duration,
        on_tick: impl Fn(&WindowRing) + Send + 'static,
    ) -> Ticker {
        let shared = Arc::new((Mutex::new(false), Condvar::new()));
        let thread_shared = Arc::clone(&shared);
        let handle = std::thread::Builder::new()
            .name("obs-ticker".to_owned())
            .spawn(move || {
                let (stop, cv) = &*thread_shared;
                let mut stopped = stop.lock().unwrap_or_else(PoisonError::into_inner);
                loop {
                    let (guard, timeout) = cv
                        .wait_timeout(stopped, interval)
                        .unwrap_or_else(PoisonError::into_inner);
                    stopped = guard;
                    if *stopped {
                        return;
                    }
                    if timeout.timed_out() {
                        drop(stopped);
                        ring.tick();
                        on_tick(&ring);
                        stopped = stop.lock().unwrap_or_else(PoisonError::into_inner);
                    }
                }
            })
            .expect("spawn obs-ticker");
        Ticker {
            shared,
            handle: Some(handle),
        }
    }

    /// Stops the ticker and joins its thread.
    pub fn stop(mut self) {
        self.halt();
    }

    fn halt(&mut self) {
        let (stop, cv) = &*self.shared;
        *stop.lock().unwrap_or_else(PoisonError::into_inner) = true;
        cv.notify_all();
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for Ticker {
    fn drop(&mut self) {
        self.halt();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_lock;

    #[test]
    fn ring_evicts_oldest_and_windows_deltas() {
        let _guard = test_lock::hold();
        crate::reset_for_tests();
        let ring = WindowRing::new(3);
        assert!(ring.is_empty());
        assert!(ring.window().is_none());

        metrics::counter_add("w.test.requests", 5);
        metrics::hist_record("w.test.latency_ms", 4.0);
        ring.tick();
        assert!(ring.window().is_none(), "one snapshot is not a window");

        metrics::counter_add("w.test.requests", 7);
        metrics::hist_record("w.test.latency_ms", 16.0);
        metrics::gauge_set("w.test.depth", 3.0);
        ring.tick();

        let w = ring.window().expect("two snapshots");
        assert_eq!(w.counter_delta("w.test.requests"), Some(7));
        assert_eq!(w.gauge("w.test.depth"), Some(3.0));
        let h = w.histogram("w.test.latency_ms").expect("delta hist");
        assert_eq!(h.count(), 1, "only the second sample is in the window");
        assert!(w.quantile("w.test.latency_ms", 0.99).unwrap() >= 16.0);
        assert!(w.rate("w.test.requests").unwrap() >= 0.0);

        // Fill past capacity: the ring keeps the newest 3.
        for _ in 0..5 {
            ring.tick();
        }
        assert_eq!(ring.len(), 3);
        let w = ring.window().expect("full ring");
        // The window no longer reaches back to the first tick, so the
        // counter delta inside it is zero.
        assert_eq!(w.counter_delta("w.test.requests"), Some(0));
        assert!(w.last_seq > w.first_seq);
        crate::reset_for_tests();
    }

    #[test]
    fn window_over_narrows_the_span() {
        let _guard = test_lock::hold();
        crate::reset_for_tests();
        let ring = WindowRing::new(8);
        metrics::counter_add("w.test.narrow", 1);
        ring.tick();
        metrics::counter_add("w.test.narrow", 10);
        ring.tick();
        metrics::counter_add("w.test.narrow", 100);
        ring.tick();
        let last_two = ring.window_over(2).expect("window");
        assert_eq!(last_two.counter_delta("w.test.narrow"), Some(100));
        let all = ring.window_over(99).expect("window");
        assert_eq!(all.counter_delta("w.test.narrow"), Some(110));
        crate::reset_for_tests();
    }

    #[test]
    fn ticker_samples_in_the_background_and_stops() {
        let _guard = test_lock::hold();
        crate::reset_for_tests();
        let ring = Arc::new(WindowRing::new(16));
        let ticks = Arc::new(AtomicU64::new(0));
        let observed = Arc::clone(&ticks);
        let ticker = Ticker::start(Arc::clone(&ring), Duration::from_millis(5), move |_ring| {
            observed.fetch_add(1, Ordering::Relaxed);
        });
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while ring.len() < 3 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        ticker.stop();
        let n = ring.len();
        assert!(n >= 3, "ticker produced only {n} snapshots");
        assert!(ticks.load(Ordering::Relaxed) >= n as u64);
        // Stopped: no further ticks land.
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(ring.len(), n);
        crate::reset_for_tests();
    }
}
