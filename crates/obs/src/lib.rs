//! # itg-obs — structured observability for the iTurboGraph stack
//!
//! A vendored, zero-dependency `tracing`-style core (the crates.io registry
//! is unreachable in this build environment, matching the `vendor/`
//! pattern) providing the three instrument kinds the paper's evaluation
//! (§6) reports per phase:
//!
//! - **Spans** — aggregated wall-clock timers keyed by a hierarchical
//!   `/`-separated path (e.g. `run/traverse/seek`) and an optional
//!   [`OpId`] joining the measurement back to a compiled plan operator.
//! - **Counters** — monotonically increasing `u64`s (Δ-stream tuple
//!   cardinalities, recomputation triggers), also `OpId`-keyed.
//! - **Histograms** — log₂-bucketed distributions for store IO sizes and
//!   latencies, with quantile estimation.
//!
//! The central type is [`Recorder`]. A **disabled** recorder (the default)
//! is a handle around `None`: every instrument resolves to a no-op whose
//! hot-path cost is one branch — no clock reads, no atomics, no locks —
//! which is what keeps instrumented code within the <2% overhead budget
//! (see `cargo bench` group `obs_overhead`). An **enabled** recorder
//! aggregates lock-free: callers resolve a [`SpanHandle`] /
//! [`CounterHandle`] / [`HistHandle`] once (one mutex acquisition to
//! intern the key) and the per-event cost is then a pair of relaxed atomic
//! adds.
//!
//! Snapshots are taken with [`Recorder::profile`], producing a [`Profile`]
//! that supports interval arithmetic ([`Profile::since`]), merging
//! ([`Profile::merge`]), JSON export ([`Profile::to_json`] — schema pinned
//! by a golden-file test), and human-readable per-operator breakdown
//! tables ([`render_breakdown`]).
//!
//! ```
//! use itg_obs::Recorder;
//!
//! let rec = Recorder::enabled();
//! let span = rec.span("run/traverse");
//! {
//!     let _guard = span.start(); // timed until dropped
//! }
//! rec.counter_op("delta/starts", 17).add(3);
//!
//! let profile = rec.profile();
//! assert_eq!(profile.counter_total("delta/starts"), 3);
//! assert!(profile.to_json().contains("\"version\": 1"));
//! ```

mod hist;
mod profile;

pub use hist::{HistCell, HistStat};
pub use profile::{render_breakdown, CounterStat, Profile, SpanStat, SCHEMA_VERSION};

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Stable operator identifier carried by compiled plan nodes, joining a
/// span or counter back to the algebra operator that produced it.
pub type OpId = u32;

/// Instrument key: a static hierarchical path plus an optional operator id.
type Key = (&'static str, Option<OpId>);

/// Aggregated timer state for one span key.
#[derive(Debug, Default)]
struct SpanCell {
    count: AtomicU64,
    total_ns: AtomicU64,
}

#[derive(Debug, Default)]
struct Inner {
    spans: Mutex<BTreeMap<Key, Arc<SpanCell>>>,
    counters: Mutex<BTreeMap<Key, Arc<AtomicU64>>>,
    hists: Mutex<BTreeMap<&'static str, Arc<HistCell>>>,
}

/// The observability recorder: either disabled (all instruments no-op) or
/// an [`Arc`]'d aggregation table shared by everything it is cloned into.
///
/// Cloning is cheap and clones share state, exactly like `itg-store`'s
/// IO counters — the engine clones one recorder into its stores, walkers,
/// and worker threads.
#[derive(Clone, Default)]
pub struct Recorder {
    inner: Option<Arc<Inner>>,
}

impl std::fmt::Debug for Recorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(if self.inner.is_some() {
            "Recorder(enabled)"
        } else {
            "Recorder(disabled)"
        })
    }
}

impl Recorder {
    /// A disabled recorder: every handle it hands out is a no-op.
    pub fn disabled() -> Recorder {
        Recorder { inner: None }
    }

    /// An enabled recorder with empty aggregation tables.
    pub fn enabled() -> Recorder {
        Recorder {
            inner: Some(Arc::new(Inner::default())),
        }
    }

    /// Whether instruments resolved from this recorder record anything.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Resolve the span timer at `path` (no operator id).
    pub fn span(&self, path: &'static str) -> SpanHandle {
        self.span_keyed(path, None)
    }

    /// Resolve the span timer at `path` for plan operator `op`.
    pub fn span_op(&self, path: &'static str, op: OpId) -> SpanHandle {
        self.span_keyed(path, Some(op))
    }

    fn span_keyed(&self, path: &'static str, op: Option<OpId>) -> SpanHandle {
        SpanHandle(self.inner.as_ref().map(|inner| {
            Arc::clone(
                inner
                    .spans
                    .lock()
                    .unwrap()
                    .entry((path, op))
                    .or_default(),
            )
        }))
    }

    /// Resolve the counter at `path` (no operator id).
    pub fn counter(&self, path: &'static str) -> CounterHandle {
        self.counter_keyed(path, None)
    }

    /// Resolve the counter at `path` for plan operator `op`.
    pub fn counter_op(&self, path: &'static str, op: OpId) -> CounterHandle {
        self.counter_keyed(path, Some(op))
    }

    fn counter_keyed(&self, path: &'static str, op: Option<OpId>) -> CounterHandle {
        CounterHandle(self.inner.as_ref().map(|inner| {
            Arc::clone(
                inner
                    .counters
                    .lock()
                    .unwrap()
                    .entry((path, op))
                    .or_default(),
            )
        }))
    }

    /// Resolve the histogram at `path`.
    pub fn hist(&self, path: &'static str) -> HistHandle {
        HistHandle(self.inner.as_ref().map(|inner| {
            Arc::clone(inner.hists.lock().unwrap().entry(path).or_default())
        }))
    }

    /// Snapshot every instrument into a [`Profile`]. Disabled recorders
    /// return an empty profile.
    pub fn profile(&self) -> Profile {
        let Some(inner) = &self.inner else {
            return Profile::default();
        };
        let spans = inner
            .spans
            .lock()
            .unwrap()
            .iter()
            .map(|(&(path, op), cell)| SpanStat {
                path: path.to_string(),
                op,
                count: cell.count.load(Ordering::Relaxed),
                total_ns: cell.total_ns.load(Ordering::Relaxed),
            })
            .collect();
        let counters = inner
            .counters
            .lock()
            .unwrap()
            .iter()
            .map(|(&(path, op), cell)| CounterStat {
                path: path.to_string(),
                op,
                value: cell.load(Ordering::Relaxed),
            })
            .collect();
        let hists = inner
            .hists
            .lock()
            .unwrap()
            .iter()
            .map(|(&path, cell)| cell.snapshot(path))
            .collect();
        Profile {
            spans,
            counters,
            hists,
        }
    }
}

/// A resolved span timer. Cheap to clone; clones aggregate into the same
/// cell. Disabled handles never read the clock.
#[derive(Clone, Debug, Default)]
pub struct SpanHandle(Option<Arc<SpanCell>>);

impl SpanHandle {
    /// Start timing; the elapsed interval is recorded when the guard drops.
    #[inline]
    #[must_use = "the span measures until the guard is dropped"]
    pub fn start(&self) -> SpanGuard<'_> {
        SpanGuard {
            cell: self.0.as_deref().map(|cell| (cell, Instant::now())),
        }
    }

    /// Record a pre-measured interval (bulk flush from thread-local
    /// aggregation).
    #[inline]
    pub fn record(&self, count: u64, total_ns: u64) {
        if let Some(cell) = &self.0 {
            cell.count.fetch_add(count, Ordering::Relaxed);
            cell.total_ns.fetch_add(total_ns, Ordering::Relaxed);
        }
    }

    /// Whether this handle records anywhere.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }
}

/// Live span measurement; records into its cell on drop.
pub struct SpanGuard<'a> {
    cell: Option<(&'a SpanCell, Instant)>,
}

impl Drop for SpanGuard<'_> {
    #[inline]
    fn drop(&mut self) {
        if let Some((cell, started)) = self.cell.take() {
            cell.count.fetch_add(1, Ordering::Relaxed);
            cell.total_ns
                .fetch_add(started.elapsed().as_nanos() as u64, Ordering::Relaxed);
        }
    }
}

/// A resolved counter. Cheap to clone; clones share the cell.
#[derive(Clone, Debug, Default)]
pub struct CounterHandle(Option<Arc<AtomicU64>>);

impl CounterHandle {
    /// Add `n` to the counter (no-op when disabled).
    #[inline]
    pub fn add(&self, n: u64) {
        if let Some(cell) = &self.0 {
            cell.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Whether this handle records anywhere.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }
}

/// A resolved histogram. Cheap to clone; clones share the cell.
#[derive(Clone, Debug, Default)]
pub struct HistHandle(Option<Arc<HistCell>>);

impl HistHandle {
    /// Record one observation (bytes, nanoseconds, …).
    #[inline]
    pub fn observe(&self, value: u64) {
        if let Some(cell) = &self.0 {
            cell.observe(value);
        }
    }

    /// Whether this handle records anywhere.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }
}

static GLOBAL: OnceLock<Recorder> = OnceLock::new();

/// The process-global recorder.
///
/// Initialized on first use: enabled when the `ITG_PROFILE` environment
/// variable is set to anything but `0` or the empty string, disabled
/// otherwise. [`init_global`] can force the decision before first use
/// (the `expt --profile` path). `EngineConfig::default()` clones this
/// recorder, so setting `ITG_PROFILE=1` profiles any session that does
/// not override `EngineConfig::obs` explicitly.
pub fn global() -> &'static Recorder {
    GLOBAL.get_or_init(|| {
        let on = std::env::var("ITG_PROFILE")
            .map(|v| !v.is_empty() && v != "0")
            .unwrap_or(false);
        if on {
            Recorder::enabled()
        } else {
            Recorder::disabled()
        }
    })
}

/// Force the global recorder's state before anything reads it. Returns
/// `false` (leaving the existing recorder in place) when the global was
/// already initialized — callers that need profiling on should call this
/// first thing in `main`.
pub fn init_global(enabled: bool) -> bool {
    GLOBAL
        .set(if enabled {
            Recorder::enabled()
        } else {
            Recorder::disabled()
        })
        .is_ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_is_inert() {
        let rec = Recorder::disabled();
        assert!(!rec.is_enabled());
        let span = rec.span("a/b");
        assert!(!span.is_enabled());
        drop(span.start());
        rec.counter("c").add(5);
        rec.hist("h").observe(10);
        assert_eq!(rec.profile(), Profile::default());
    }

    #[test]
    fn spans_aggregate_counts_and_time() {
        let rec = Recorder::enabled();
        let span = rec.span("run/traverse");
        for _ in 0..3 {
            let _g = span.start();
        }
        span.record(2, 1000);
        let p = rec.profile();
        let s = &p.spans[0];
        assert_eq!(s.path, "run/traverse");
        assert_eq!(s.op, None);
        assert_eq!(s.count, 5);
        assert!(s.total_ns >= 1000);
    }

    #[test]
    fn op_keys_are_distinct() {
        let rec = Recorder::enabled();
        rec.counter_op("delta/starts", 17).add(2);
        rec.counter_op("delta/starts", 18).add(3);
        rec.counter("delta/starts").add(1);
        let p = rec.profile();
        assert_eq!(p.counters.len(), 3);
        assert_eq!(p.counter_total("delta/starts"), 6);
    }

    #[test]
    fn clones_share_cells() {
        let rec = Recorder::enabled();
        let c1 = rec.counter("x");
        let c2 = c1.clone();
        c1.add(1);
        c2.add(1);
        rec.counter("x").add(1);
        assert_eq!(rec.profile().counter_total("x"), 3);
    }

    #[test]
    fn threads_aggregate_into_one_cell() {
        let rec = Recorder::enabled();
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let c = rec.counter("t");
                let s = rec.span("s");
                std::thread::spawn(move || {
                    for _ in 0..100 {
                        c.add(1);
                        s.record(1, 10);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let p = rec.profile();
        assert_eq!(p.counter_total("t"), 400);
        assert_eq!(p.span_total_ns("s"), 4000);
    }
}
