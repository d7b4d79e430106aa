//! Sliding-window monitors: windowed statistics over metric
//! observations.
//!
//! mARGOt monitors observe "functional and extra-functional properties"
//! during execution (paper §VI-C); the autotuner uses them to correct
//! its design-time expectations online. They live here — in the shared
//! telemetry registry — so every component reads the same windows
//! instead of keeping private copies.

use std::collections::VecDeque;

/// A sliding-window monitor over one metric.
#[derive(Debug, Clone)]
pub struct Monitor {
    window: usize,
    values: VecDeque<f64>,
}

impl Monitor {
    /// Creates a monitor keeping the last `window` observations.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero.
    pub fn new(window: usize) -> Monitor {
        assert!(window > 0, "monitor window must be positive");
        Monitor {
            window,
            values: VecDeque::new(),
        }
    }

    /// Records an observation.
    pub fn observe(&mut self, value: f64) {
        if self.values.len() == self.window {
            self.values.pop_front();
        }
        self.values.push_back(value);
    }

    /// Number of observations currently in the window.
    pub fn count(&self) -> usize {
        self.values.len()
    }

    /// The configured window size.
    pub fn window(&self) -> usize {
        self.window
    }

    /// Windowed mean (`None` when empty).
    pub fn mean(&self) -> Option<f64> {
        if self.values.is_empty() {
            None
        } else {
            Some(self.values.iter().sum::<f64>() / self.values.len() as f64)
        }
    }

    /// Most recent observation.
    pub fn last(&self) -> Option<f64> {
        self.values.back().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn statistics_over_window() {
        let mut m = Monitor::new(3);
        assert_eq!(m.mean(), None);
        m.observe(1.0);
        m.observe(2.0);
        m.observe(3.0);
        assert_eq!(m.mean(), Some(2.0));
        // window slides: 1.0 evicted
        m.observe(5.0);
        assert_eq!(m.count(), 3);
        assert!((m.mean().unwrap() - 10.0 / 3.0).abs() < 1e-12);
        assert_eq!(m.last(), Some(5.0));
    }

    #[test]
    #[should_panic(expected = "window must be positive")]
    fn zero_window_panics() {
        let _ = Monitor::new(0);
    }
}
