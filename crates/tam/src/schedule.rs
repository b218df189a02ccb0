//! `ScheduleSITest` — Algorithm 1 of the paper (Fig. 5).

use soctam_exec::fault;
use soctam_model::{Diagnostic, Diagnostics};

use crate::evaluator::SiGroupTime;

/// One SI test group with its schedule window filled in (`begin(s)`,
/// `end(s)` of the Fig. 4 data structure).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ScheduledSiTest {
    /// Index of the group in the evaluator's group list.
    pub group: usize,
    /// Schedule begin time.
    pub begin: u64,
    /// Schedule end time (`begin + time`).
    pub end: u64,
    /// The rails the test occupies while running.
    pub rails: Vec<usize>,
}

/// The output of Algorithm 1: a conflict-free SI test schedule.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SiSchedule {
    tests: Vec<ScheduledSiTest>,
    makespan: u64,
}

impl SiSchedule {
    /// Builds a schedule from an explicit serial test list (used by the
    /// Test Bus evaluator, whose tests never overlap by construction).
    pub(crate) fn from_serial(tests: Vec<ScheduledSiTest>, makespan: u64) -> Self {
        SiSchedule { tests, makespan }
    }

    /// The scheduled tests, in scheduling order.
    pub fn tests(&self) -> &[ScheduledSiTest] {
        &self.tests
    }

    /// `T_soc^si`: the end time of the last SI test.
    pub fn makespan(&self) -> u64 {
        self.makespan
    }

    /// Checks the schedule's structural invariants and returns every
    /// violation as a [`Diagnostic`] (empty = valid).
    ///
    /// Codes: `SCH-V01` inverted time window, `SCH-V02` two tests occupy
    /// a shared rail at overlapping times, `SCH-V03` a group scheduled
    /// more than once, `SCH-V04` makespan disagrees with the latest end
    /// time. The scheduler guarantees all four by construction; this is
    /// the independent check degraded (budget-cut) runs are held to.
    pub fn validate(&self) -> Diagnostics {
        const SITE: &str = "schedule.validate";
        let mut diags = Diagnostics::new();
        let mut seen = std::collections::BTreeSet::new();
        for t in &self.tests {
            if t.end < t.begin {
                diags.push(Diagnostic::new(
                    "SCH-V01",
                    SITE,
                    format!(
                        "group {} has inverted window {}..{}",
                        t.group, t.begin, t.end
                    ),
                    "schedule windows must satisfy begin <= end",
                ));
            }
            if !seen.insert(t.group) {
                diags.push(Diagnostic::new(
                    "SCH-V03",
                    SITE,
                    format!("group {} is scheduled more than once", t.group),
                    "each SI group must appear exactly once in the schedule",
                ));
            }
        }
        for (i, a) in self.tests.iter().enumerate() {
            for b in &self.tests[i + 1..] {
                let overlap_time = a.begin < b.end && b.begin < a.end;
                let share_rail = a.rails.iter().any(|r| b.rails.contains(r));
                if overlap_time && share_rail && a.end != a.begin && b.end != b.begin {
                    diags.push(Diagnostic::new(
                        "SCH-V02",
                        SITE,
                        format!(
                            "groups {} and {} overlap on a shared rail",
                            a.group, b.group
                        ),
                        "tests sharing a rail must be serialized",
                    ));
                }
            }
        }
        let latest = self.tests.iter().map(|t| t.end).max().unwrap_or(0);
        if self.makespan != latest {
            diags.push(Diagnostic::new(
                "SCH-V04",
                SITE,
                format!(
                    "makespan {} does not match the latest end time {latest}",
                    self.makespan
                ),
                "recompute the makespan as the maximum test end time",
            ));
        }
        diags
    }
}

/// Schedules the SI test groups on the TestRail architecture they were
/// timed for — the paper's **Algorithm 1**.
///
/// Groups whose rail sets are disjoint run in parallel; conflicting groups
/// wait until the first running test that frees rails finishes. The input
/// order is the priority order (first-fit), matching the paper's
/// `find s* ∈ unSchedSI`.
///
/// # Example
///
/// ```
/// use soctam_tam::{schedule_si_tests, SiGroupTime};
///
/// let groups = vec![
///     SiGroupTime { time: 10, rails: vec![0, 1], bottleneck_rail: 0 },
///     SiGroupTime { time: 4, rails: vec![2], bottleneck_rail: 2 },
///     SiGroupTime { time: 7, rails: vec![1, 2], bottleneck_rail: 1 },
/// ];
/// let schedule = schedule_si_tests(&groups);
/// // Groups 0 and 1 start together; group 2 waits for both.
/// assert_eq!(schedule.makespan(), 17);
/// ```
pub fn schedule_si_tests(groups: &[SiGroupTime]) -> SiSchedule {
    fault::hit("tam.schedule");
    list_schedule(groups.iter().map(|row| (row, 0)), u64::MAX)
}

/// The makespan [`schedule_si_tests`] reports for `rows`, without
/// building the schedule: the hot path of speculative candidate
/// costing, where only the number is compared and `rows` reads the
/// patched group times through their substitution.
pub(crate) fn makespan<'g>(rows: impl IntoIterator<Item = &'g SiGroupTime>) -> u64 {
    fault::hit("tam.schedule");
    let tests = rows.into_iter().map(|row| (row, 0));
    first_fit(tests, u64::MAX, |_, _, _, _| {})
}

/// The schedule [`first_fit`] lays out, every window kept, in
/// scheduling order.
pub(crate) fn list_schedule<'g>(
    tests: impl IntoIterator<Item = (&'g SiGroupTime, u64)>,
    budget: u64,
) -> SiSchedule {
    let mut placed = Vec::new();
    let makespan = first_fit(tests, budget, |group, begin, end, rails| {
        placed.push(ScheduledSiTest {
            group,
            begin,
            end,
            rails: rails.to_vec(),
        });
    });
    placed.sort_by_key(|t| (t.begin, t.group));
    SiSchedule {
        tests: placed,
        makespan,
    }
}

/// The one greedy first-fit list-scheduling loop of Algorithm 1, behind
/// [`schedule_si_tests`], the probe makespan and
/// [`schedule_si_tests_power`](crate::power::schedule_si_tests_power).
/// Its resources are the rails and a power budget (power-constrained
/// test scheduling, as in arXiv 1008.4448). `tests` yields each group's
/// timing and power rating in priority order. At the current time the
/// loop starts the first waiting test whose rails are all free and
/// whose rating fits in what the running tests leave of `budget`, and
/// reports its window as `place(group, begin, end, rails)`; when none
/// can start, it advances to the earliest end of a running test. Plain
/// Algorithm 1 rates every test 0 under `u64::MAX`. Returns the
/// makespan.
///
/// Every rating must fit `budget` on its own, or the test never starts.
fn first_fit<'g>(
    tests: impl IntoIterator<Item = (&'g SiGroupTime, u64)>,
    budget: u64,
    mut place: impl FnMut(usize, u64, u64, &'g [usize]),
) -> u64 {
    // (group, rails, time, power) of every test still waiting.
    let mut waiting: Vec<(usize, &[usize], u64, u64)> = tests
        .into_iter()
        .enumerate()
        .map(|(g, (row, power))| (g, row.rails.as_slice(), row.time, power))
        .collect();
    // (end, rails, power) of every running test.
    let mut running: Vec<(u64, &[usize], u64)> = Vec::new();
    let (mut now, mut makespan) = (0u64, 0u64);
    while !waiting.is_empty() {
        // A test ending exactly at `now` frees its rails and power.
        running.retain(|&(end, _, _)| end > now);
        // Never overflows: each test started only while the sum fit.
        let used: u64 = running.iter().map(|&(_, _, power)| power).sum();
        let free = waiting.iter().position(|&(_, rails, _, power)| {
            used.checked_add(power).is_some_and(|draw| draw <= budget)
                && rails
                    .iter()
                    .all(|r| running.iter().all(|(_, busy, _)| !busy.contains(r)))
        });
        match free {
            Some(pos) => {
                let (g, rails, time, power) = waiting.remove(pos);
                let end = now.saturating_add(time);
                makespan = makespan.max(end);
                place(g, now, end, rails);
                running.push((end, rails, power));
            }
            None => {
                // A blocked test implies a running one (every rating
                // fits the budget alone), and every running test ends
                // after `now` (finished ones were retired).
                #[allow(clippy::expect_used)]
                let earliest = running
                    .iter()
                    .map(|&(end, _, _)| end)
                    .min()
                    .expect("a blocked test implies a running test");
                now = earliest;
            }
        }
    }
    makespan
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evaluator::patched_rows;
    use crate::power::{respects_power_budget, schedule_si_tests_power, PoweredSiTest};
    use soctam_exec::check::{cases, forall, Gen};

    fn g(time: u64, rails: &[usize]) -> SiGroupTime {
        SiGroupTime {
            time,
            rails: rails.to_vec(),
            bottleneck_rail: rails.first().copied().unwrap_or(usize::MAX),
        }
    }

    #[test]
    fn empty_input_has_zero_makespan() {
        let s = schedule_si_tests(&[]);
        assert_eq!(s.makespan(), 0);
        assert!(s.tests().is_empty());
    }

    #[test]
    fn disjoint_tests_run_in_parallel() {
        let s = schedule_si_tests(&[g(10, &[0]), g(8, &[1]), g(6, &[2])]);
        assert_eq!(s.makespan(), 10);
        assert!(s.tests().iter().all(|t| t.begin == 0));
    }

    #[test]
    fn conflicting_tests_serialize() {
        let s = schedule_si_tests(&[g(10, &[0]), g(8, &[0]), g(6, &[0])]);
        assert_eq!(s.makespan(), 24);
        assert!(s.validate().is_ok());
    }

    #[test]
    fn mixed_conflicts_schedule_greedily() {
        // Group 2 conflicts with both 0 and 1; 0 and 1 are disjoint.
        let s = schedule_si_tests(&[g(10, &[0, 1]), g(4, &[2]), g(7, &[1, 2])]);
        assert_eq!(s.makespan(), 17);
        let t2 = s.tests().iter().find(|t| t.group == 2).expect("scheduled");
        assert_eq!(t2.begin, 10);
        assert!(s.validate().is_ok());
    }

    #[test]
    fn later_test_backfills_freed_rails() {
        // 0 occupies rails {0,1} for 10; 1 occupies {0} for 3 after it;
        // 2 occupies {1} and can start as soon as 0 finishes, in parallel
        // with 1.
        let s = schedule_si_tests(&[g(10, &[0, 1]), g(3, &[0]), g(3, &[1])]);
        assert_eq!(s.makespan(), 13);
        let t1 = s.tests().iter().find(|t| t.group == 1).expect("scheduled");
        let t2 = s.tests().iter().find(|t| t.group == 2).expect("scheduled");
        assert_eq!(t1.begin, 10);
        assert_eq!(t2.begin, 10);
    }

    #[test]
    fn zero_duration_tests_do_not_block() {
        let s = schedule_si_tests(&[g(0, &[0]), g(5, &[0])]);
        assert_eq!(s.makespan(), 5);
        assert!(s.validate().is_ok());
    }

    #[test]
    fn rail_less_tests_always_start_immediately() {
        let s = schedule_si_tests(&[g(10, &[0]), g(3, &[])]);
        let t1 = s.tests().iter().find(|t| t.group == 1).expect("scheduled");
        assert_eq!(t1.begin, 0);
    }

    #[test]
    fn validate_accepts_every_scheduler_output() {
        let cases: Vec<Vec<SiGroupTime>> = vec![
            vec![],
            vec![g(10, &[0]), g(8, &[1]), g(6, &[2])],
            vec![g(10, &[0]), g(8, &[0]), g(6, &[0])],
            vec![g(10, &[0, 1]), g(3, &[0]), g(3, &[1])],
            vec![g(0, &[0]), g(5, &[0])],
        ];
        for groups in cases {
            let s = schedule_si_tests(&groups);
            assert!(s.validate().is_ok(), "{:?}", s.validate());
        }
    }

    #[test]
    fn validate_flags_every_hand_built_violation() {
        let t = |group, begin, end, rails: &[usize]| ScheduledSiTest {
            group,
            begin,
            end,
            rails: rails.to_vec(),
        };
        // Inverted window, duplicate group, rail conflict and a makespan
        // that matches none of it.
        let broken = SiSchedule::from_serial(
            vec![t(0, 5, 2, &[0]), t(0, 0, 9, &[1]), t(1, 3, 8, &[1])],
            99,
        );
        let diags = broken.validate();
        let codes: Vec<&str> = diags.items().iter().map(|d| d.code()).collect();
        assert!(codes.contains(&"SCH-V01"), "{codes:?}");
        assert!(codes.contains(&"SCH-V02"), "{codes:?}");
        assert!(codes.contains(&"SCH-V03"), "{codes:?}");
        assert!(codes.contains(&"SCH-V04"), "{codes:?}");
        assert!(broken.validate().into_result().is_err());
    }

    #[test]
    fn order_is_first_fit() {
        // Both fit at t=0 on disjoint rails, but 0 is considered first.
        let s = schedule_si_tests(&[g(2, &[0]), g(2, &[0])]);
        let begins: Vec<u64> = s.tests().iter().map(|t| t.begin).collect();
        assert_eq!(begins, vec![0, 2]);
    }

    /// What the one loop's three callers promise on one instance: the
    /// power schedule at `u64::MAX` is Algorithm 1's test for test,
    /// every schedule is valid and keeps the budget it was built for,
    /// and the probe makespan read through the sorted substitution
    /// `changed` is Algorithm 1's on the patched vector.
    fn check_instance(tests: &[PoweredSiTest], budget: u64, changed: &[(usize, SiGroupTime)]) {
        let groups: Vec<SiGroupTime> = tests.iter().map(|t| t.timing.clone()).collect();
        let plain = schedule_si_tests(&groups);
        let unlimited = schedule_si_tests_power(tests, u64::MAX).expect("every rating fits");
        assert_eq!(unlimited, plain, "{tests:?}");
        let capped = schedule_si_tests_power(tests, budget).expect("every rating fits");
        for (s, budget) in [(&plain, u64::MAX), (&capped, budget)] {
            assert!(s.validate().is_ok(), "{tests:?}: {:?}", s.validate());
            assert!(
                respects_power_budget(s, tests, budget),
                "{tests:?} at {budget}"
            );
        }
        let mut patched = groups.clone();
        for (i, row) in changed {
            patched[*i] = row.clone();
        }
        assert_eq!(
            makespan(patched_rows(&groups, changed)),
            schedule_si_tests(&patched).makespan(),
            "{groups:?} with {changed:?}"
        );
    }

    /// `rails` of `0..5` kept with probability 0.4 (so sometimes none),
    /// and a time that is 0 one time in five.
    fn random_row(gen: &mut Gen) -> SiGroupTime {
        let rails: Vec<usize> = (0..5).filter(|_| gen.bool_with(0.4)).collect();
        let time = if gen.bool_with(0.2) {
            0
        } else {
            gen.u64_in(1, 50)
        };
        g(time, &rails)
    }

    #[test]
    fn one_loop_serves_every_caller() {
        // Seeds: hand-picked shapes (disjoint, serial, backfill, zero
        // times, rail-less), the last one rated under a tight budget.
        let seeds: Vec<Vec<SiGroupTime>> = vec![
            vec![],
            vec![g(10, &[0]), g(8, &[1]), g(6, &[2])],
            vec![g(10, &[0]), g(8, &[0]), g(6, &[0])],
            vec![g(10, &[0, 1]), g(3, &[0]), g(3, &[1])],
            vec![g(0, &[0]), g(5, &[0])],
            vec![g(10, &[0, 1]), g(4, &[2]), g(7, &[1, 2])],
            vec![g(4, &[0, 1]), g(6, &[1, 2]), g(2, &[0, 2]), g(5, &[1])],
            vec![g(10, &[0]), g(3, &[])],
            vec![g(10, &[0]), g(8, &[1]), g(6, &[0, 1])],
        ];
        for groups in seeds {
            let tests: Vec<PoweredSiTest> = groups
                .into_iter()
                .map(|timing| PoweredSiTest { timing, power: 5 })
                .collect();
            check_instance(&tests, 5, &[]);
        }
        forall("one_loop_serves_every_caller", cases(256), |gen| {
            let tests = gen.vec_of(1, 9, |gen| PoweredSiTest {
                timing: random_row(gen),
                power: gen.u64_in(0, 100),
            });
            let top = tests.iter().map(|t| t.power).max().unwrap_or(0);
            let budget = gen.u64_in(top, 3 * top + 1);
            let mut changed = Vec::new();
            for i in 0..tests.len() {
                if gen.bool_with(0.3) {
                    changed.push((i, random_row(gen)));
                }
            }
            check_instance(&tests, budget, &changed);
        });
    }
}
