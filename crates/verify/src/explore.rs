//! Deterministic schedule exploration for the in-process comm runtime.
//!
//! Static checks prove properties of the *plan*; schedule exploration
//! probes the *implementation* executing it. The runtime's chaos hook
//! ([`xct_comm::ChaosSchedule`]) derives message-delivery delays and
//! rank start staggers as pure functions of a seed, so any interleaving
//! it produces is exactly reproducible from that seed alone.
//! [`explore`] runs a rank body under a baseline schedule plus, per
//! seed, a jitter schedule (many small perturbations) and a
//! delay-one-message schedule (DPOR-lite: hold back a single targeted
//! message long enough to flip every race it participates in), and
//! evaluates an oracle over each run's outputs. A failure names the
//! schedule that produced it — rerunning that one schedule reproduces
//! the bug deterministically.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Duration;
use xct_comm::{run_ranks_with, ChaosSchedule, Communicator, RankOptions};
use xct_plan::{RunDocument, RunHeader};
use xct_telemetry::Telemetry;

/// The outcome of one schedule.
#[derive(Debug, Clone)]
pub struct SeedOutcome {
    /// Which schedule ran — `"baseline"`, `"jitter seed=S"`, or
    /// `"delay-one seed=S"`. Feed the seed back into
    /// [`ChaosSchedule::jitter`] / [`ChaosSchedule::delay_one`] to
    /// reproduce.
    pub label: String,
    /// `None` when the run completed and the oracle accepted its
    /// outputs; otherwise the oracle's complaint or the panic payload.
    pub failure: Option<String>,
    /// A post-mortem run document (`xct_plan::RunDocument`) of the
    /// failure: the failing chaos schedule re-run (deterministically,
    /// from its seed) traced, keeping every rank's last spans, events
    /// and matches, and its metrics as they stood. `None` for passing
    /// schedules and for baseline (chaos-free) failures.
    pub flight_dump: Option<String>,
}

/// The outcome of a full exploration.
#[derive(Debug, Clone, Default)]
pub struct ExploreReport {
    /// One entry per schedule executed, in execution order.
    pub outcomes: Vec<SeedOutcome>,
}

impl ExploreReport {
    /// True when every schedule passed.
    pub fn ok(&self) -> bool {
        self.outcomes.iter().all(|o| o.failure.is_none())
    }

    /// The first failing schedule, if any.
    pub fn first_failure(&self) -> Option<&SeedOutcome> {
        self.outcomes.iter().find(|o| o.failure.is_some())
    }
}

fn run_one<T, F>(
    label: &str,
    n: usize,
    timeout: Duration,
    chaos: Option<ChaosSchedule>,
    body: &F,
    oracle: &dyn Fn(&[T]) -> Option<String>,
) -> SeedOutcome
where
    T: Send + 'static,
    F: Fn(&Communicator) -> T + Sync,
{
    let mut opts = RankOptions {
        timeout,
        chaos,
        ..RankOptions::default()
    };
    let ran = catch_unwind(AssertUnwindSafe(|| run_ranks_with(n, &opts, body)));
    let failure = match ran {
        Ok(results) => oracle(&results),
        Err(payload) => {
            let msg = payload
                .downcast_ref::<&str>()
                .map(|s| (*s).to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string panic payload".to_string());
            Some(format!("panicked: {msg}"))
        }
    };
    // Chaos schedules are pure functions of their seed, so a failing one
    // can be re-run traced to capture a post-mortem of the exact same
    // interleaving.
    let flight_dump = match (&failure, chaos) {
        (Some(reason), Some(_)) => {
            opts.telemetry = Telemetry::enabled();
            let _ = catch_unwind(AssertUnwindSafe(|| run_ranks_with(n, &opts, body)));
            let header = RunHeader::new("explore", vec![("schedule".to_owned(), label.to_owned())]);
            let reason = Some(format!("{label}: {reason}"));
            let doc = RunDocument::capture(header, &opts.telemetry, reason);
            Some(doc.to_json().to_string())
        }
        _ => None,
    };
    SeedOutcome {
        label: label.to_string(),
        failure,
        flight_dump,
    }
}

/// Runs `body` on `n` ranks under the baseline schedule, then under a
/// jitter and a delay-one chaos schedule for each seed, checking every
/// run's outputs with `oracle` (`None` = accept). Panics inside any run
/// are caught and reported as failures of that schedule.
pub fn explore<T, F>(
    n: usize,
    timeout: Duration,
    seeds: &[u64],
    body: F,
    oracle: impl Fn(&[T]) -> Option<String>,
) -> ExploreReport
where
    T: Send + 'static,
    F: Fn(&Communicator) -> T + Sync,
{
    let mut outcomes = Vec::with_capacity(1 + 2 * seeds.len());
    outcomes.push(run_one("baseline", n, timeout, None, &body, &oracle));
    for &seed in seeds {
        outcomes.push(run_one(
            &format!("jitter seed={seed:#x}"),
            n,
            timeout,
            Some(ChaosSchedule::jitter(seed)),
            &body,
            &oracle,
        ));
        outcomes.push(run_one(
            &format!("delay-one seed={seed:#x}"),
            n,
            timeout,
            Some(ChaosSchedule::delay_one(seed, n)),
            &body,
            &oracle,
        ));
    }
    ExploreReport { outcomes }
}
