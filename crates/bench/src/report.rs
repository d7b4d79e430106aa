//! What an experiment writes into.
//!
//! A [`Report`] is two texts. The **pinned** one is a pure function of
//! the experiment's seeds — cycles, simulated microseconds, counts, F1,
//! MAE, a "deterministic: yes" column — and is compared byte for byte
//! with `ci/experiments/eNN.txt`. The **host-time** one holds every
//! figure read from [`Instant`]: it is shown below the pinned text and
//! never compared. A table row that would mix the two is two rows, one
//! in each text.

use std::fmt;
use std::time::Instant;

/// How often [`Report::time`] runs its routine. Wall-clock noise is
/// additive — contention and stalls only ever slow a run down — so the
/// fastest repeat is the estimate closest to the routine's cost, and
/// the first repeat doubles as the warm-up.
pub(crate) const REPEATS: usize = 10;

/// The two texts of one experiment.
#[derive(Debug, Default)]
pub struct Report {
    pinned: String,
    host: String,
}

impl Report {
    /// Adds model-derived text; every line of it is compared.
    pub fn pin(&mut self, text: impl AsRef<str>) {
        self.pinned.push_str(text.as_ref());
        self.pinned.push('\n');
    }

    /// Adds text holding a wall-clock figure; shown, never compared.
    pub fn host(&mut self, text: impl AsRef<str>) {
        self.host.push_str(text.as_ref());
        self.host.push('\n');
    }

    /// Pins the experiment banner.
    pub(crate) fn banner(&mut self, id: &str, anchor: &str, title: &str) {
        self.pin("=".repeat(64));
        self.pin(format!("{id} [{anchor}] {title}"));
        self.pin("=".repeat(64));
    }

    /// Runs `routine` a fixed number of times and shows the fastest
    /// run as a host-time line. One clock read brackets one call, so a
    /// sub-microsecond routine reads a few tens of nanoseconds high.
    pub fn time<O>(&mut self, label: &str, mut routine: impl FnMut() -> O) {
        let fastest = (0..REPEATS)
            .map(|_| {
                let start = Instant::now();
                std::hint::black_box(routine());
                start.elapsed()
            })
            .min()
            .expect("REPEATS is positive");
        self.host(format!(
            "{label:<48} fastest of {REPEATS}: {}",
            format_seconds(fastest.as_secs_f64())
        ));
    }

    /// The pinned text: the contents of `ci/experiments/eNN.txt`.
    pub fn pinned_text(&self) -> &str {
        &self.pinned
    }
}

/// The pinned text, then the host-time text under its own heading.
impl fmt::Display for Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}\nhost time (this run; shown, never compared):\n{}",
            self.pinned, self.host
        )
    }
}

/// A table rule of `width` dashes.
pub(crate) fn rule(width: usize) -> String {
    "-".repeat(width)
}

pub(crate) fn format_seconds(secs: f64) -> String {
    if secs >= 1.0 {
        format!("{secs:.3} s")
    } else if secs >= 1e-3 {
        format!("{:.3} ms", secs * 1e3)
    } else if secs >= 1e-6 {
        format!("{:.3} µs", secs * 1e6)
    } else {
        format!("{:.1} ns", secs * 1e9)
    }
}
