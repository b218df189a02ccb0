//! Test Bus architecture evaluation — the comparison point that motivates
//! the paper's choice of TestRail.
//!
//! In the Test Bus architecture (Varma & Bhatia, ITC 1998) the cores on a
//! bus are *multiplexed*: one core at a time owns the full bus width. For
//! InTest this yields the same serial per-bus schedule as a TestRail. For
//! core-external SI test, however, a vector pair must launch
//! **simultaneously** at every involved core boundary; a multiplexed bus
//! cannot stream several wrappers as one shift chain, so
//!
//! * within one SI test, the per-bus loads serialize **across buses** as
//!   well (`Σ` instead of the TestRail's `max`), and
//! * SI tests cannot overlap at all (no Algorithm-1 parallelism).
//!
//! [`TestBusEvaluator`] scores a core/width assignment under these rules,
//! making the TestRail advantage measurable (see the `architecture_compare`
//! ablation in `soctam-bench`).

use std::sync::Arc;

use soctam_exec::fx_fingerprint128;
use soctam_model::Soc;
use soctam_wrapper::TimeTable;

use crate::evaluator::{check_context, RailEval, SiGroupTime};
use crate::schedule::{ScheduledSiTest, SiSchedule};
use crate::{Evaluation, SiGroupSpec, TamError, TestRailArchitecture};

/// Evaluates a core/width assignment under **Test Bus** semantics.
///
/// The same [`TestRailArchitecture`] type describes the assignment (a
/// "rail" is read as a bus). InTest times match the TestRail evaluator;
/// SI times are pessimized per the module docs.
///
/// # Example
///
/// ```
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// use soctam_model::Benchmark;
/// use soctam_tam::{Evaluator, SiGroupSpec, TestBusEvaluator, TestRailArchitecture};
///
/// let soc = Benchmark::D695.soc();
/// let groups = vec![SiGroupSpec::new(soc.core_ids().collect(), 100)];
/// let arch = TestRailArchitecture::single_rail(&soc, 16)?;
/// let rail = Evaluator::new(&soc, 16, groups.clone())?.evaluate(&arch);
/// let bus = TestBusEvaluator::new(&soc, 16, groups)?.evaluate(&arch);
/// // With one bus/rail the two coincide; the gap opens with parallelism.
/// assert_eq!(rail.t_in, bus.t_in);
/// assert!(bus.t_si >= rail.t_si);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct TestBusEvaluator<'a> {
    soc: &'a Soc,
    table: TimeTable,
    groups: Vec<SiGroupSpec>,
}

impl<'a> TestBusEvaluator<'a> {
    /// Builds an evaluator for assignments with bus widths up to
    /// `max_width`.
    ///
    /// # Errors
    ///
    /// Same contract as [`Evaluator::new`](crate::Evaluator::new).
    pub fn new(soc: &'a Soc, max_width: u32, groups: Vec<SiGroupSpec>) -> Result<Self, TamError> {
        check_context(soc, max_width, &groups)?;
        Ok(TestBusEvaluator {
            soc,
            table: TimeTable::new(soc, max_width),
            groups,
        })
    }

    /// Evaluates `arch` under Test Bus semantics.
    ///
    /// # Panics
    ///
    /// Panics if a bus is wider than the evaluator's budget or hosts a
    /// core outside the SOC.
    pub fn evaluate(&self, arch: &TestRailArchitecture) -> Evaluation {
        let num_buses = arch.num_rails();
        let mut rail_time_in = vec![0u64; num_buses];
        for (i, bus) in arch.rails().iter().enumerate() {
            rail_time_in[i] = bus
                .cores()
                .iter()
                .map(|&c| self.table.intest(c, bus.width()))
                .sum();
        }
        let t_in = rail_time_in.iter().copied().max().unwrap_or(0);

        let core_bus = arch.core_to_rail(self.soc.num_cores());
        let mut rail_time_si = vec![0u64; num_buses];
        let mut group_times = Vec::with_capacity(self.groups.len());
        // Per-bus sparse group shifts, collected so the result carries
        // the same per-rail components a TestRail evaluation would.
        let mut bus_group_shift: Vec<Vec<(u32, u64)>> = vec![Vec::new(); num_buses];
        for (g, group) in self.groups.iter().enumerate() {
            let mut touched: Vec<usize> = Vec::new();
            let mut total = 0u64;
            let mut bottleneck = (usize::MAX, 0u64);
            let mut per_bus = vec![0u64; num_buses];
            for &core in group.cores() {
                let bus = core_bus[core.index()];
                let width = arch.rails()[bus].width();
                let cycles = group
                    .patterns()
                    .saturating_mul(self.table.si_shift(core, width));
                if cycles > 0 {
                    if per_bus[bus] == 0 {
                        touched.push(bus);
                    }
                    per_bus[bus] = per_bus[bus].saturating_add(cycles);
                }
            }
            touched.sort_unstable();
            for &bus in &touched {
                rail_time_si[bus] += per_bus[bus];
                total += per_bus[bus];
                if per_bus[bus] > bottleneck.1 {
                    bottleneck = (bus, per_bus[bus]);
                }
                // soctam-analyze: allow(ARITH-01) -- g enumerates SI groups, whose ids are u32 by construction
                bus_group_shift[bus].push((g as u32, per_bus[bus]));
            }
            group_times.push(SiGroupTime {
                time: total, // buses serialize within one SI test
                rails: touched,
                bottleneck_rail: bottleneck.0,
            });
        }

        // No parallel ExTest: tests run back to back regardless of buses.
        let mut tests = Vec::with_capacity(group_times.len());
        let mut clock = 0u64;
        for (g, group) in group_times.iter().enumerate() {
            tests.push(ScheduledSiTest {
                group: g,
                begin: clock,
                end: clock + group.time,
                rails: group.rails.clone(),
            });
            clock += group.time;
        }
        let schedule = SiSchedule::from_serial(tests, clock);

        let rail_evals = arch
            .rails()
            .iter()
            .zip(rail_time_in.iter().zip(bus_group_shift))
            .map(|(bus, (&t_in, group_shift))| {
                let group_shift: Vec<(u32, u64)> = group_shift;
                let si_sum = group_shift
                    .iter()
                    .fold(0u64, |acc, &(_, cycles)| acc.saturating_add(cycles));
                Arc::new(RailEval {
                    t_in,
                    width: bus.width(),
                    cores_fp: fx_fingerprint128(&bus.cores()),
                    group_shift,
                    si_sum,
                })
            })
            .collect();
        Evaluation {
            rail_time_in,
            rail_time_si,
            group_times,
            schedule,
            t_in,
            t_si: clock,
            rail_evals,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Evaluator, TestRail};
    use soctam_model::{Benchmark, CoreId};

    fn c(i: u32) -> CoreId {
        CoreId::new(i)
    }

    fn two_rail_arch(soc: &Soc) -> TestRailArchitecture {
        TestRailArchitecture::new(
            soc,
            vec![
                TestRail::new((0..5).map(c).collect(), 8).expect("valid"),
                TestRail::new((5..10).map(c).collect(), 8).expect("valid"),
            ],
        )
        .expect("valid")
    }

    #[test]
    fn intest_matches_testrail_semantics() {
        let soc = Benchmark::D695.soc();
        let arch = two_rail_arch(&soc);
        let groups = vec![SiGroupSpec::new(soc.core_ids().collect(), 50)];
        let rail = Evaluator::new(&soc, 16, groups.clone())
            .expect("valid")
            .evaluate(&arch);
        let bus = TestBusEvaluator::new(&soc, 16, groups)
            .expect("valid")
            .evaluate(&arch);
        assert_eq!(rail.t_in, bus.t_in);
        assert_eq!(rail.rail_time_in, bus.rail_time_in);
    }

    #[test]
    fn si_group_time_sums_across_buses() {
        let soc = Benchmark::D695.soc();
        let arch = two_rail_arch(&soc);
        let groups = vec![SiGroupSpec::new(soc.core_ids().collect(), 50)];
        let rail = Evaluator::new(&soc, 16, groups.clone())
            .expect("valid")
            .evaluate(&arch);
        let bus = TestBusEvaluator::new(&soc, 16, groups)
            .expect("valid")
            .evaluate(&arch);
        // TestRail takes the max across rails, Test Bus the sum.
        assert_eq!(
            bus.group_times[0].time,
            rail.rail_time_si.iter().sum::<u64>()
        );
        assert!(bus.group_times[0].time > rail.group_times[0].time);
    }

    #[test]
    fn si_tests_never_overlap_on_a_test_bus() {
        let soc = Benchmark::D695.soc();
        let arch = two_rail_arch(&soc);
        // Two groups on disjoint buses would parallelize on TestRails.
        let groups = vec![
            SiGroupSpec::new((0..5).map(c).collect(), 40),
            SiGroupSpec::new((5..10).map(c).collect(), 40),
        ];
        let rail = Evaluator::new(&soc, 16, groups.clone())
            .expect("valid")
            .evaluate(&arch);
        let bus = TestBusEvaluator::new(&soc, 16, groups)
            .expect("valid")
            .evaluate(&arch);
        assert!(
            rail.t_si < bus.t_si,
            "rail {} !< bus {}",
            rail.t_si,
            bus.t_si
        );
        let serial: u64 = bus.group_times.iter().map(|g| g.time).sum();
        assert_eq!(bus.t_si, serial);
        assert!(bus.schedule.validate().is_ok());
    }

    #[test]
    fn validation_matches_testrail_evaluator() {
        let soc = Benchmark::D695.soc();
        assert!(TestBusEvaluator::new(&soc, 0, vec![]).is_err());
        let bogus = vec![SiGroupSpec::new(vec![c(10)], 1)];
        assert!(TestBusEvaluator::new(&soc, 8, bogus).is_err());
    }
}
