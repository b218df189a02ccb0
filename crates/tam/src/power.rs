//! Power-constrained SI test scheduling — an extension of Algorithm 1.
//!
//! Simultaneous wrapper shifting across many rails can exceed the chip's
//! test power envelope (the classic constraint of Chou/Saluja/Agrawal and
//! of power-constrained SOC scheduling). This module extends the paper's
//! Algorithm 1 with a peak-power budget: an SI test may start only when
//! its rails are free **and** the sum of the power ratings of all running
//! tests stays within the budget.
//!
//! Power ratings are abstract units (commonly mW or a normalized toggle
//! count); only their sums are compared against the budget.

use crate::evaluator::SiGroupTime;
use crate::schedule::{list_schedule, SiSchedule};

/// An SI test group annotated with its peak power rating.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PoweredSiTest {
    /// The group's timing (rails + duration), as produced by the
    /// evaluator's `CalculateSITestTime`.
    pub timing: SiGroupTime,
    /// Peak power drawn while the test runs.
    pub power: u64,
}

/// Error returned when a single test alone exceeds the power budget (it
/// could never be scheduled).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ExceedsPowerBudget {
    /// Index of the offending test.
    pub group: usize,
    /// Its power rating.
    pub power: u64,
    /// The budget it exceeds.
    pub budget: u64,
}

impl std::fmt::Display for ExceedsPowerBudget {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "si test group {} draws {} power units, over the budget of {}",
            self.group, self.power, self.budget
        )
    }
}

impl std::error::Error for ExceedsPowerBudget {}

/// Algorithm 1 with a peak-power budget: first-fit over the input order,
/// starting a test only when its rails are free and the running power sum
/// plus its rating stays within `budget`.
///
/// With every rating 0, or any ratings whose sum fits in `u64`, under
/// `budget = u64::MAX` this is plain Algorithm 1: the same loop runs
/// both.
///
/// # Errors
///
/// [`ExceedsPowerBudget`] if any single test's rating exceeds the budget.
///
/// # Example
///
/// ```
/// use soctam_tam::power::{schedule_si_tests_power, PoweredSiTest};
/// use soctam_tam::SiGroupTime;
///
/// let tests = vec![
///     PoweredSiTest {
///         timing: SiGroupTime { time: 10, rails: vec![0], bottleneck_rail: 0 },
///         power: 6,
///     },
///     PoweredSiTest {
///         timing: SiGroupTime { time: 10, rails: vec![1], bottleneck_rail: 1 },
///         power: 6,
///     },
/// ];
/// // Rail-disjoint, but 6 + 6 exceeds a budget of 10: they serialize.
/// let schedule = schedule_si_tests_power(&tests, 10)?;
/// assert_eq!(schedule.makespan(), 20);
/// # Ok::<(), soctam_tam::power::ExceedsPowerBudget>(())
/// ```
pub fn schedule_si_tests_power(
    tests: &[PoweredSiTest],
    budget: u64,
) -> Result<SiSchedule, ExceedsPowerBudget> {
    for (group, test) in tests.iter().enumerate() {
        if test.power > budget {
            return Err(ExceedsPowerBudget {
                group,
                power: test.power,
                budget,
            });
        }
    }
    Ok(list_schedule(
        tests.iter().map(|test| (&test.timing, test.power)),
        budget,
    ))
}

/// `true` when no instant of the schedule draws more than `budget` power
/// (verification helper for tests and reports). A draw too large for a
/// `u64` exceeds every budget.
pub fn respects_power_budget(schedule: &SiSchedule, tests: &[PoweredSiTest], budget: u64) -> bool {
    let mut events: Vec<u64> = schedule
        .tests()
        .iter()
        .flat_map(|t| [t.begin, t.end])
        .collect();
    events.sort_unstable();
    events.dedup();
    events.into_iter().all(|instant| {
        schedule
            .tests()
            .iter()
            .filter(|t| t.begin <= instant && instant < t.end)
            .try_fold(0u64, |draw, t| draw.checked_add(tests[t.group].power))
            .is_some_and(|draw| draw <= budget)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::ScheduledSiTest;

    fn t(time: u64, rails: &[usize], power: u64) -> PoweredSiTest {
        PoweredSiTest {
            timing: SiGroupTime {
                time,
                rails: rails.to_vec(),
                bottleneck_rail: rails.first().copied().unwrap_or(usize::MAX),
            },
            power,
        }
    }

    #[test]
    fn power_budget_serializes_disjoint_tests() {
        let tests = vec![t(10, &[0], 6), t(10, &[1], 6)];
        let s = schedule_si_tests_power(&tests, 10).expect("fits");
        assert_eq!(s.makespan(), 20);
        assert!(respects_power_budget(&s, &tests, 10));
        let relaxed = schedule_si_tests_power(&tests, 12).expect("fits");
        assert_eq!(relaxed.makespan(), 10);
    }

    #[test]
    fn partial_parallelism_under_budget() {
        // Three rail-disjoint tests of power 4 under a budget of 8: two at
        // a time.
        let tests = vec![t(10, &[0], 4), t(10, &[1], 4), t(10, &[2], 4)];
        let s = schedule_si_tests_power(&tests, 8).expect("fits");
        assert_eq!(s.makespan(), 20);
        assert!(respects_power_budget(&s, &tests, 8));
        assert!(!respects_power_budget(&s, &tests, 7));
    }

    #[test]
    fn oversized_test_is_rejected() {
        let tests = vec![t(5, &[0], 20)];
        let err = schedule_si_tests_power(&tests, 10).unwrap_err();
        assert_eq!(err.group, 0);
        assert!(err.to_string().contains("budget"));
    }

    #[test]
    fn rail_conflicts_still_apply() {
        let tests = vec![t(10, &[0], 1), t(10, &[0], 1)];
        let s = schedule_si_tests_power(&tests, 100).expect("fits");
        assert_eq!(s.makespan(), 20);
    }

    #[test]
    fn zero_power_tests_always_fit() {
        let tests = vec![t(4, &[0], 0), t(4, &[1], 0), t(4, &[2], 0)];
        let s = schedule_si_tests_power(&tests, 0).expect("fits");
        assert_eq!(s.makespan(), 4);
    }

    #[test]
    fn ratings_whose_sum_overflows_serialize() {
        // Each rating fits u64::MAX alone, but their sum does not.
        let half = u64::MAX / 2 + 1;
        let tests = vec![t(10, &[0], half), t(10, &[1], half)];
        let s = schedule_si_tests_power(&tests, u64::MAX).expect("fits");
        assert_eq!(s.makespan(), 20);
        assert!(respects_power_budget(&s, &tests, u64::MAX));
        let window = |group, rails: &[usize]| ScheduledSiTest {
            group,
            begin: 0,
            end: 10,
            rails: rails.to_vec(),
        };
        let parallel = SiSchedule::from_serial(vec![window(0, &[0]), window(1, &[1])], 10);
        assert!(!respects_power_budget(&parallel, &tests, u64::MAX));
    }
}
