//! Spans recorded from outside the program: each is a wrapped call into
//! one layer (crate) of the attack, timed by the benchmark.
//!
//! Spans stay in memory and are summarised when the run ends. Top-level
//! spans (no parent) partition the measured wall; whatever part of the
//! wall no top-level span covers is reported as `unattributed_s`.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// One timed call.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer metric name, such as `core.train`.
    pub name: &'static str,
    /// Offset of the start from the tracer's origin, in seconds.
    pub start_s: f64,
    /// Duration in seconds.
    pub dur_s: f64,
    /// Name of the enclosing span, `None` for a top-level span.
    pub parent: Option<&'static str>,
}

/// Span recorder. A disabled tracer records nothing, so untraced runs
/// pay only for the `Instant` reads their own metrics need.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer whose offsets count from now.
    #[must_use]
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// The instant span offsets count from.
    #[must_use]
    pub fn origin(&self) -> Instant {
        self.origin
    }

    /// Runs `f` as a top-level span named `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.record(name, start, start.elapsed(), None);
        out
    }

    /// Records a span measured elsewhere.
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        dur: Duration,
        parent: Option<&'static str>,
    ) {
        if self.enabled {
            self.spans.push(Span {
                name,
                start_s: start.saturating_duration_since(self.origin).as_secs_f64(),
                dur_s: dur.as_secs_f64(),
                parent,
            });
        }
    }

    /// Every recorded span, in recording order.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total seconds recorded under `name`.
    #[must_use]
    pub fn total(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .fold(0.0, |acc, s| acc + s.dur_s)
    }

    /// Every duration recorded under `name`, in seconds.
    #[must_use]
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_s)
            .collect()
    }

    /// `(count, total seconds)` per span name.
    #[must_use]
    pub fn totals(&self) -> BTreeMap<&'static str, (usize, f64)> {
        let mut out = BTreeMap::new();
        for s in &self.spans {
            let e = out.entry(s.name).or_insert((0, 0.0));
            e.0 += 1;
            e.1 += s.dur_s;
        }
        out
    }

    /// Seconds of the window `[window_start, window_start + wall_s]`
    /// (offsets from the origin) that no top-level span covers.
    ///
    /// Overlapping spans are merged and clipped to the window first, so
    /// the result lies in `[0, wall_s]` whatever was recorded.
    #[must_use]
    pub fn unattributed(&self, window_start_s: f64, wall_s: f64) -> f64 {
        let end = window_start_s + wall_s;
        let mut iv: Vec<(f64, f64)> = self
            .spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(|s| {
                (
                    s.start_s.max(window_start_s),
                    (s.start_s + s.dur_s).min(end),
                )
            })
            .filter(|(a, b)| b > a)
            .collect();
        iv.sort_by(|x, y| x.0.total_cmp(&y.0));
        let mut covered = 0.0;
        let mut cur: Option<(f64, f64)> = None;
        for (a, b) in iv {
            cur = match cur {
                Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
                Some((ca, cb)) => {
                    covered += cb - ca;
                    Some((a, b))
                }
                None => Some((a, b)),
            };
        }
        if let Some((ca, cb)) = cur {
            covered += cb - ca;
        }
        (wall_s - covered).max(0.0)
    }
}
