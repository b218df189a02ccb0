//! Reproduction of Example 1 / Figure 3 of the paper as a test: the same
//! SI tests under two TAM designs produce the documented bottleneck-rail
//! times and parallelism.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use soctam::{CoreId, CoreSpec, Evaluator, SiGroupSpec, Soc, TestRail, TestRailArchitecture};

fn example_soc() -> Soc {
    let cores = (1..=5)
        .map(|i| {
            CoreSpec::new(format!("core{i}"), 16, 16, 0, vec![64, 64], 50).expect("valid core")
        })
        .collect();
    Soc::new("example1", cores).expect("valid soc")
}

fn groups() -> Vec<SiGroupSpec> {
    let c = CoreId::new;
    vec![
        SiGroupSpec::new(vec![c(0), c(1), c(2), c(3), c(4)], 40), // SI1
        SiGroupSpec::new(vec![c(0), c(3), c(4)], 30),             // SI2
        SiGroupSpec::new(vec![c(1), c(2)], 25),                   // SI3
    ]
}

#[test]
fn figure3a_times_match_formulas() {
    let soc = example_soc();
    let c = CoreId::new;
    let evaluator = Evaluator::new(&soc, 12, groups()).expect("valid");
    let arch = TestRailArchitecture::new(
        &soc,
        vec![
            TestRail::new(vec![c(0), c(1)], 4).expect("valid"),
            TestRail::new(vec![c(2), c(3)], 4).expect("valid"),
            TestRail::new(vec![c(4)], 4).expect("valid"),
        ],
    )
    .expect("valid");
    let eval = evaluator.evaluate(&arch);

    let shift = evaluator.time_table().si_shift(c(0), 4);
    // T_si1 = max(T1+T2, T3+T4, T5): identical cores => 2, 2 and 1 shares.
    assert_eq!(eval.group_times[0].time, 2 * 40 * shift);
    // SI2 spans all three rails: rail 0 holds core1 only, rail 1 core4,
    // rail 2 core5 => bottleneck time is a single core's contribution.
    assert_eq!(eval.group_times[1].time, 30 * shift);
    assert_eq!(eval.group_times[1].rails, vec![0, 1, 2]);
    // SI3 = cores 2,3 on rails 0 and 1.
    assert_eq!(eval.group_times[2].time, 25 * shift);
    assert_eq!(eval.group_times[2].rails, vec![0, 1]);

    // All three SI tests share rails => strictly serial schedule.
    assert_eq!(
        eval.t_si,
        eval.group_times.iter().map(|g| g.time).sum::<u64>()
    );
}

#[test]
fn figure3b_times_match_formulas_and_parallelize() {
    let soc = example_soc();
    let c = CoreId::new;
    let evaluator = Evaluator::new(&soc, 12, groups()).expect("valid");
    let arch = TestRailArchitecture::new(
        &soc,
        vec![
            TestRail::new(vec![c(0), c(3), c(4)], 6).expect("valid"),
            TestRail::new(vec![c(1), c(2)], 6).expect("valid"),
        ],
    )
    .expect("valid");
    let eval = evaluator.evaluate(&arch);

    let shift = evaluator.time_table().si_shift(c(0), 6);
    // T_si1 = max(T1+T4+T5, T2+T3) = 3 cores on rail 0.
    assert_eq!(eval.group_times[0].time, 3 * 40 * shift);
    assert_eq!(eval.group_times[0].bottleneck_rail, 0);
    // SI2 lives entirely on rail 0, SI3 entirely on rail 1.
    assert_eq!(eval.group_times[1].rails, vec![0]);
    assert_eq!(eval.group_times[2].rails, vec![1]);

    // SI2 and SI3 overlap in time.
    let t2 = eval
        .schedule
        .tests()
        .iter()
        .find(|t| t.group == 1)
        .expect("scheduled");
    let t3 = eval
        .schedule
        .tests()
        .iter()
        .find(|t| t.group == 2)
        .expect("scheduled");
    assert_eq!(t2.begin, t3.begin);
    assert!(eval.schedule.validate().is_ok());
    // Makespan < fully serial sum thanks to the parallel tail.
    let serial: u64 = eval.group_times.iter().map(|g| g.time).sum();
    assert!(eval.t_si < serial);
}

#[test]
fn same_si_tests_different_architectures_different_times() {
    // The observation Example 1 is making: time_si(s) depends on the TAM
    // design even when the SI test set is identical.
    let soc = example_soc();
    let c = CoreId::new;
    let evaluator = Evaluator::new(&soc, 12, groups()).expect("valid");
    let arch_a = TestRailArchitecture::new(
        &soc,
        vec![
            TestRail::new(vec![c(0), c(1)], 4).expect("valid"),
            TestRail::new(vec![c(2), c(3)], 4).expect("valid"),
            TestRail::new(vec![c(4)], 4).expect("valid"),
        ],
    )
    .expect("valid");
    let arch_b = TestRailArchitecture::new(
        &soc,
        vec![
            TestRail::new(vec![c(0), c(3), c(4)], 6).expect("valid"),
            TestRail::new(vec![c(1), c(2)], 6).expect("valid"),
        ],
    )
    .expect("valid");
    let si1_a = evaluator.evaluate(&arch_a).group_times[0].time;
    let si1_b = evaluator.evaluate(&arch_b).group_times[0].time;
    assert_ne!(si1_a, si1_b);
}
