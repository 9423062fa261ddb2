//! Spans of the traced pass, kept in memory and summarised when the pass
//! ends. Spans are chained: each lap closes the interval since the
//! previous lap and charges it to one layer, so the layers of a pass
//! cover its whole loop and their shares add up to the traced time.

use std::time::{Duration, Instant};

/// Every timed call into one layer.
#[derive(Debug, Default, Clone)]
pub struct Layer {
    spans_ns: Vec<u64>,
}

impl Layer {
    pub fn push(&mut self, span: Duration) {
        self.spans_ns
            .push(u64::try_from(span.as_nanos()).unwrap_or(u64::MAX));
    }

    pub fn calls(&self) -> u64 {
        self.spans_ns.len() as u64
    }

    pub fn total_ns(&self) -> f64 {
        self.spans_ns.iter().fold(0.0, |sum, &ns| sum + ns as f64)
    }

    /// Mean span, or 0 for a layer that was never called.
    pub fn mean_ns(&self) -> f64 {
        if self.spans_ns.is_empty() {
            0.0
        } else {
            self.total_ns() / self.spans_ns.len() as f64
        }
    }

    /// The `q`-quantile span (nearest rank), or 0 for an unused layer.
    pub fn quantile_ns(&self, q: f64) -> f64 {
        if self.spans_ns.is_empty() {
            return 0.0;
        }
        let mut sorted = self.spans_ns.clone();
        sorted.sort_unstable();
        let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        sorted[rank - 1] as f64
    }

    pub fn last(&self) -> Option<Duration> {
        self.spans_ns.last().map(|&ns| Duration::from_nanos(ns))
    }
}

/// A chain of laps over a fixed set of layers. With `ON = false` every
/// call compiles to nothing, which gives the untraced twin of a pass.
pub struct Laps<const ON: bool> {
    last: Instant,
    pub layers: Vec<Layer>,
}

impl<const ON: bool> Laps<ON> {
    pub fn new(layers: usize) -> Self {
        Laps {
            last: Instant::now(),
            layers: vec![Layer::default(); layers],
        }
    }

    /// Starts the chain (the next lap measures from here).
    #[inline]
    pub fn start(&mut self) {
        if ON {
            self.last = Instant::now();
        }
    }

    /// Charges the time since the previous lap to `layer`.
    #[inline]
    pub fn lap(&mut self, layer: usize) {
        if ON {
            let now = Instant::now();
            self.layers[layer].push(now.duration_since(self.last));
            self.last = now;
        }
    }
}
