//! Property-based tests of the TAM optimizer and its lower bounds over
//! randomly generated SOCs and SI workloads.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use soctam::model::synth::{synth_soc, SynthConfig};
use soctam::tam::bounds::{intest_lower_bound, si_lower_bound};
use soctam::{CoreId, Objective, SiGroupSpec, Soc, TamOptimizer};
use soctam_exec::check::{cases, forall};

fn small_soc(cores: usize, seed: u64) -> Soc {
    synth_soc(
        &SynthConfig {
            inputs: (2, 32),
            outputs: (2, 32),
            scan_chain_count: (1, 6),
            scan_chain_len: (4, 120),
            patterns: (5, 120),
            ..SynthConfig::new(cores)
        }
        .with_seed(seed),
    )
    .expect("synth soc is valid")
}

fn random_groups(soc: &Soc, group_seed: u64, count: usize) -> Vec<SiGroupSpec> {
    // Deterministic pseudo-random group construction without an RNG dep:
    // splitmix-style hashing of (seed, group, core).
    let mix = |a: u64, b: u64, c: u64| -> u64 {
        let mut x = a
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add(b)
            .wrapping_mul(0xbf58_476d_1ce4_e5b9)
            .wrapping_add(c);
        x ^= x >> 31;
        x.wrapping_mul(0x94d0_49bb_1331_11eb)
    };
    (0..count)
        .map(|g| {
            let cores: Vec<CoreId> = soc
                .core_ids()
                .filter(|c| mix(group_seed, g as u64, u64::from(c.raw())) % 3 != 0)
                .collect();
            let cores = if cores.is_empty() {
                vec![CoreId::new(0)]
            } else {
                cores
            };
            SiGroupSpec::new(cores, 1 + mix(group_seed, g as u64, 999) % 400)
        })
        .collect()
}

/// The optimizer always returns a valid architecture within budget,
/// hosting every core exactly once, and never beats the lower bounds.
#[test]
fn optimizer_output_is_valid_and_bounded() {
    forall("optimizer_output_is_valid_and_bounded", cases(24), |g| {
        let cores = g.usize_in(2, 10);
        let soc_seed = g.u64_in(0, 200);
        let group_seed = g.u64_in(0, 200);
        let group_count = g.usize_in(0, 4);
        let w_max = g.u32_in(2, 20);
        let soc = small_soc(cores, soc_seed);
        let groups = random_groups(&soc, group_seed, group_count);
        let result = TamOptimizer::new(&soc, w_max, groups.clone())
            .expect("valid inputs")
            .optimize()
            .expect("optimizes");
        assert!(result.architecture().total_width() <= w_max);
        let hosted: usize = result
            .architecture()
            .rails()
            .iter()
            .map(|r| r.cores().len())
            .sum();
        assert_eq!(hosted, soc.num_cores());
        for core in soc.core_ids() {
            assert!(result.architecture().rail_of(core).is_some());
        }
        let eval = result.evaluation();
        assert!(eval.t_in >= intest_lower_bound(&soc, w_max).expect("valid"));
        assert!(eval.t_si >= si_lower_bound(&soc, &groups, w_max).expect("valid"));
        assert!(eval.schedule.validate().is_ok());
    });
}

/// The SI-aware objective never loses to the single-rail trivial
/// architecture it could always fall back to.
#[test]
fn optimizer_beats_trivial_single_rail() {
    forall("optimizer_beats_trivial_single_rail", cases(24), |g| {
        let cores = g.usize_in(2, 9);
        let soc_seed = g.u64_in(0, 100);
        let w_max = g.u32_in(2, 16);
        let soc = small_soc(cores, soc_seed);
        let groups = vec![SiGroupSpec::new(soc.core_ids().collect(), 100)];
        let optimized = TamOptimizer::new(&soc, w_max, groups.clone())
            .expect("valid")
            .optimize()
            .expect("optimizes");
        let trivial = soctam::TestRailArchitecture::single_rail(&soc, w_max).expect("valid");
        let trivial_eval = soctam::Evaluator::new(&soc, w_max, groups)
            .expect("valid")
            .evaluate(&trivial);
        assert!(
            optimized.evaluation().t_total() <= trivial_eval.t_total(),
            "optimized {} > single-rail {}",
            optimized.evaluation().t_total(),
            trivial_eval.t_total()
        );
    });
}

/// The InTest-only baseline never ends above the trivial single-rail
/// architecture on its own objective (guaranteed by the optimizer's
/// fallback). Note that it may legitimately end above the *SI-aware*
/// run's t_in: both are greedy heuristics in different landscapes, and
/// either can luck into the better basin.
#[test]
fn baseline_never_loses_to_single_rail_on_t_in() {
    forall(
        "baseline_never_loses_to_single_rail_on_t_in",
        cases(24),
        |g| {
            let cores = g.usize_in(2, 8);
            let soc_seed = g.u64_in(0, 60);
            let group_seed = g.u64_in(0, 60);
            let w_max = g.u32_in(2, 12);
            let soc = small_soc(cores, soc_seed);
            let groups = random_groups(&soc, group_seed, 2);
            let baseline = TamOptimizer::new(&soc, w_max, groups.clone())
                .expect("valid")
                .objective(Objective::InTestOnly)
                .optimize()
                .expect("optimizes");
            let trivial = soctam::TestRailArchitecture::single_rail(&soc, w_max).expect("valid");
            let trivial_eval = soctam::Evaluator::new(&soc, w_max, groups)
                .expect("valid")
                .evaluate(&trivial);
            assert!(
                baseline.evaluation().t_in <= trivial_eval.t_in,
                "baseline t_in {} > single-rail t_in {}",
                baseline.evaluation().t_in,
                trivial_eval.t_in
            );
            let _ = Objective::Total; // keep the import used in all cfgs
        },
    );
}
