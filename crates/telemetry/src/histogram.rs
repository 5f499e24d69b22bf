//! Log-bucketed duration histograms per [`Phase`].
//!
//! Span durations within one phase routinely spread over several
//! decades (a cold first iteration, warm steady-state ones, a
//! straggler blocked on the wire), so a mean hides exactly what the
//! Fig-10 analysis needs. [`DurationHistogram`] buckets durations by
//! power of two — bucket *i* holds durations in `[2^(i-1), 2^i)` ns —
//! which is cheap (a `leading_zeros`), allocation-free, and never
//! needs rescaling.

use crate::{fmt_ns, Json, Phase, TelemetrySnapshot};

/// Number of log2 buckets: one for 0 ns plus one per bit of `u64`.
const BUCKETS: usize = 65;

/// A fixed-size power-of-two duration histogram.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DurationHistogram {
    counts: [u64; BUCKETS],
    count: u64,
    min_ns: u64,
    max_ns: u64,
    sum_ns: u64,
}

impl Default for DurationHistogram {
    fn default() -> Self {
        DurationHistogram {
            counts: [0; BUCKETS],
            count: 0,
            min_ns: u64::MAX,
            max_ns: 0,
            sum_ns: 0,
        }
    }
}

/// Bucket index for a duration: 0 holds exactly 0 ns, bucket `i >= 1`
/// holds `[2^(i-1), 2^i)`.
fn bucket_of(ns: u64) -> usize {
    if ns == 0 {
        0
    } else {
        64 - ns.leading_zeros() as usize
    }
}

impl DurationHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one duration.
    pub fn record(&mut self, ns: u64) {
        self.counts[bucket_of(ns)] += 1;
        self.count += 1;
        self.min_ns = self.min_ns.min(ns);
        self.max_ns = self.max_ns.max(ns);
        self.sum_ns = self.sum_ns.saturating_add(ns);
    }

    /// Adds every duration `other` recorded, bucket by bucket.
    pub(crate) fn merge(&mut self, other: &DurationHistogram) {
        for (count, more) in self.counts.iter_mut().zip(&other.counts) {
            *count += more;
        }
        self.count += other.count;
        self.min_ns = self.min_ns.min(other.min_ns);
        self.max_ns = self.max_ns.max(other.max_ns);
        self.sum_ns = self.sum_ns.saturating_add(other.sum_ns);
    }

    /// Number of recorded durations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Smallest recorded duration (0 when empty).
    pub fn min_ns(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min_ns
        }
    }

    /// Largest recorded duration.
    pub fn max_ns(&self) -> u64 {
        self.max_ns
    }

    /// Sum of all recorded durations.
    pub fn sum_ns(&self) -> u64 {
        self.sum_ns
    }

    /// The one JSON form of a histogram: the metric it measures, count,
    /// extremes, sum and the non-empty buckets.
    pub(crate) fn to_json(&self, metric: &str) -> Json {
        let bucket = |(lo, hi, count): (u64, u64, u64)| {
            Json::object(vec![
                ("lo_ns", Json::from(lo)),
                ("hi_ns", Json::from(hi)),
                ("count", Json::from(count)),
            ])
        };
        Json::object(vec![
            ("metric", Json::from(metric)),
            ("count", Json::from(self.count())),
            ("min_ns", Json::from(self.min_ns())),
            ("max_ns", Json::from(self.max_ns())),
            ("sum_ns", Json::from(self.sum_ns())),
            (
                "buckets",
                Json::Arr(self.buckets().into_iter().map(bucket).collect()),
            ),
        ])
    }

    /// Decodes [`DurationHistogram::to_json`]'s form (the metric name is
    /// the caller's). A bucket is named by its lower bound, 0 or a power
    /// of two; the bucket counts must sum to the count.
    pub(crate) fn from_json(json: &Json) -> Result<DurationHistogram, String> {
        let mut hist = DurationHistogram::new();
        for bucket in json.array_at("buckets")? {
            // Bounds pass 2^53, so they are read as numbers, not counts.
            let lo = bucket.f64_at("lo_ns")?;
            let slot = match lo.log2() {
                _ if lo == 0.0 => Some(0),
                e if e.fract() == 0.0 && (0.0..64.0).contains(&e) => Some(e as usize + 1),
                _ => None,
            };
            let slot = slot.ok_or_else(|| format!("bucket lower bound {lo} is not 0 or 2^k"))?;
            hist.counts[slot] = bucket.u64_at("count")?;
        }
        hist.count = json.u64_at("count")?;
        if hist
            .counts
            .iter()
            .try_fold(0u64, |sum, &c| sum.checked_add(c))
            != Some(hist.count)
        {
            return Err("field \"count\" is not the sum of the buckets".to_owned());
        }
        hist.max_ns = json.u64_at("max_ns")?;
        hist.sum_ns = json.u64_at("sum_ns")?;
        if hist.count > 0 {
            hist.min_ns = json.u64_at("min_ns")?;
        }
        Ok(hist)
    }

    /// Non-empty buckets as `(lo_ns, hi_ns, count)` ranges, low first.
    /// `hi_ns` is exclusive; the 0-bucket reports `(0, 1, n)`.
    pub fn buckets(&self) -> Vec<(u64, u64, u64)> {
        self.counts
            .iter()
            .enumerate()
            .filter(|&(_, &c)| c > 0)
            .map(|(i, &c)| {
                if i == 0 {
                    (0, 1, c)
                } else {
                    (1u64 << (i - 1), (1u64 << (i - 1)).saturating_mul(2), c)
                }
            })
            .collect()
    }
}

/// One histogram per [`Phase`] present in a snapshot, ordered by total
/// time descending (the phases that matter first).
#[derive(Clone, Debug, Default)]
pub struct PhaseHistograms {
    /// `(phase, histogram)` pairs, largest total time first.
    pub phases: Vec<(Phase, DurationHistogram)>,
}

impl PhaseHistograms {
    /// Buckets every span duration in the snapshot under its phase.
    pub fn from_snapshot(snap: &TelemetrySnapshot) -> PhaseHistograms {
        let mut phases: Vec<(Phase, DurationHistogram)> = Vec::new();
        for span in &snap.spans {
            match phases.iter_mut().find(|(p, _)| *p == span.phase) {
                Some((_, hist)) => hist.record(span.duration_ns()),
                None => {
                    let mut hist = DurationHistogram::new();
                    hist.record(span.duration_ns());
                    phases.push((span.phase, hist));
                }
            }
        }
        phases.sort_by_key(|(_, h)| std::cmp::Reverse(h.sum_ns()));
        PhaseHistograms { phases }
    }

    /// A compact per-phase table with one hash-bar line per non-empty
    /// log2 bucket.
    pub fn render_table(&self) -> String {
        const BAR: usize = 32;
        let mut out = String::from("phase duration histograms (log2 buckets)\n");
        for (phase, hist) in &self.phases {
            out.push_str(&format!(
                "{:<22} n={:<6} min {} · max {}\n",
                phase.as_str(),
                hist.count(),
                fmt_ns(hist.min_ns()).trim_start(),
                fmt_ns(hist.max_ns()).trim_start()
            ));
            let peak = hist.buckets().iter().map(|&(_, _, c)| c).max().unwrap_or(1);
            for (lo, hi, count) in hist.buckets() {
                let bar = (count as usize * BAR).div_ceil(peak as usize);
                out.push_str(&format!(
                    "  [{}, {}) {:>6} {}\n",
                    fmt_ns(lo),
                    fmt_ns(hi),
                    count,
                    "#".repeat(bar.min(BAR))
                ));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Clock, ManualClock, Telemetry};
    use std::sync::Arc;

    #[test]
    fn buckets_are_powers_of_two() {
        let mut hist = DurationHistogram::new();
        for ns in [0, 1, 2, 3, 4, 1023, 1024, u64::MAX] {
            hist.record(ns);
        }
        assert_eq!(hist.count(), 8);
        assert_eq!(hist.min_ns(), 0);
        assert_eq!(hist.max_ns(), u64::MAX);
        let buckets = hist.buckets();
        // 0 → [0,1); 1 → [1,2); 2,3 → [2,4); 4 → [4,8);
        // 1023 → [512,1024); 1024 → [1024,2048); u64::MAX → top bucket.
        assert_eq!(buckets[0], (0, 1, 1));
        assert_eq!(buckets[1], (1, 2, 1));
        assert_eq!(buckets[2], (2, 4, 2));
        assert_eq!(buckets[3], (4, 8, 1));
        assert_eq!(buckets[4], (512, 1024, 1));
        assert_eq!(buckets[5], (1024, 2048, 1));
        assert_eq!(buckets[6].2, 1);
        assert_eq!(buckets[6].0, 1u64 << 63);
    }

    #[test]
    fn empty_histogram_reports_zero_min() {
        let hist = DurationHistogram::new();
        assert_eq!(hist.count(), 0);
        assert_eq!(hist.min_ns(), 0);
        assert_eq!(hist.max_ns(), 0);
        assert!(hist.buckets().is_empty());
    }

    #[test]
    fn phase_histograms_split_by_phase_and_sort_by_total() {
        let clock = ManualClock::new();
        let tele = Telemetry::with_clock(Arc::new(clock.clone()));
        for dur in [10u64, 12, 1000] {
            let start = clock.now_ns();
            let g = tele.span(Phase::SpmmForward);
            clock.set(start + dur);
            drop(g);
        }
        {
            let g = tele.span(Phase::Io);
            clock.advance(5);
            drop(g);
        }
        let hists = PhaseHistograms::from_snapshot(&tele.snapshot());
        assert_eq!(hists.phases.len(), 2);
        assert_eq!(hists.phases[0].0, Phase::SpmmForward);
        assert_eq!(hists.phases[0].1.count(), 3);
        assert_eq!(hists.phases[0].1.sum_ns(), 1022);
        assert_eq!(hists.phases[1].0, Phase::Io);
        let table = hists.render_table();
        assert!(table.contains("spmm.forward"), "{table}");
        assert!(table.contains('#'), "{table}");
    }
}
