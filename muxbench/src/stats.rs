//! Sample summaries: medians and tail percentiles with an explicit
//! sample-count rule.
//!
//! A tail percentile is only reported when at least [`MIN_BEYOND`]
//! samples lie beyond it, so a p90 needs 100 samples and a p99 needs
//! 1000. Every summary carries its sample count.

use std::fmt;

/// Samples that must lie strictly beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// Why a percentile could not be reported.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PercentileError {
    /// No samples at all.
    Empty,
    /// `p` outside `[0, 1]` or not a number.
    BadFraction,
    /// Fewer than [`MIN_BEYOND`] samples lie beyond the percentile.
    TooFewBeyond {
        /// Samples taken.
        n: usize,
        /// Samples beyond the requested percentile.
        beyond: usize,
    },
}

impl fmt::Display for PercentileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Empty => write!(f, "no samples"),
            Self::BadFraction => write!(f, "percentile fraction must lie in [0, 1]"),
            Self::TooFewBeyond { n, beyond } => write!(
                f,
                "{n} samples leave only {beyond} beyond the percentile (need {MIN_BEYOND})"
            ),
        }
    }
}

/// Median of `samples` (mean of the two middle values for an even
/// count).
///
/// # Errors
///
/// [`PercentileError::Empty`] when there are no samples.
pub fn median(samples: &[f64]) -> Result<f64, PercentileError> {
    if samples.is_empty() {
        return Err(PercentileError::Empty);
    }
    let s = sorted(samples);
    let n = s.len();
    Ok(if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    })
}

/// Nearest-rank tail percentile `p` (for example `0.9`), refused unless
/// at least [`MIN_BEYOND`] samples lie beyond it.
///
/// # Errors
///
/// [`PercentileError`] for an empty sample, a fraction outside `[0, 1]`
/// or too few samples beyond the percentile.
pub fn percentile(samples: &[f64], p: f64) -> Result<f64, PercentileError> {
    if samples.is_empty() {
        return Err(PercentileError::Empty);
    }
    if !(0.0..=1.0).contains(&p) {
        return Err(PercentileError::BadFraction);
    }
    let n = samples.len();
    // Nearest rank: the smallest value with at least p·n samples at or
    // below it.
    let rank = ((p * n as f64).ceil() as usize).clamp(1, n);
    let beyond = n - rank;
    if beyond < MIN_BEYOND {
        return Err(PercentileError::TooFewBeyond { n, beyond });
    }
    Ok(sorted(samples)[rank - 1])
}

/// Median plus p90 (when the sample count allows it) of one latency
/// series.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Samples taken.
    pub n: usize,
    /// Median.
    pub p50: f64,
    /// 90th percentile, `None` with fewer than 100 samples.
    pub p90: Option<f64>,
}

impl Summary {
    /// Summarises `samples`; `None` when there are none.
    #[must_use]
    pub fn of(samples: &[f64]) -> Option<Self> {
        Some(Self {
            n: samples.len(),
            p50: median(samples).ok()?,
            p90: percentile(samples, 0.9).ok(),
        })
    }
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    s
}
