//! Property-based tests over the whole stack: random SOCs, random pattern
//! sets, random architectures.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use soctam::compaction::{compact_greedy, compact_two_dimensional, CompactionConfig};
use soctam::model::synth::{synth_soc, SynthConfig};
use soctam::patterns::generator::generate_random;
use soctam::{
    Evaluator, RandomPatternConfig, SiGroupSpec, SiPatternSet, Soc, TestRail, TestRailArchitecture,
};
use soctam_exec::check::{cases, forall};

fn small_soc(cores: usize, seed: u64) -> Soc {
    synth_soc(
        &SynthConfig {
            inputs: (2, 24),
            outputs: (4, 24),
            scan_chain_count: (1, 4),
            scan_chain_len: (4, 64),
            patterns: (5, 60),
            ..SynthConfig::new(cores)
        }
        .with_seed(seed),
    )
    .expect("synth soc is valid")
}

/// Every raw pattern is covered by some compacted pattern, and the
/// compacted set is never larger than the input.
#[test]
fn compaction_covers_input() {
    forall("compaction_covers_input", cases(48), |g| {
        let cores = g.usize_in(2, 8);
        let soc_seed = g.u64_in(0, 500);
        let n = g.usize_in(1, 120);
        let pat_seed = g.u64_in(0, 500);
        let soc = small_soc(cores, soc_seed);
        let raw = generate_random(&soc, &RandomPatternConfig::new(n).with_seed(pat_seed))
            .expect("generation succeeds");
        let compacted = compact_greedy(&soc, &raw);
        assert!(compacted.len() <= raw.len());
        for pattern in &raw {
            let covered = compacted.iter().any(|c| {
                pattern
                    .care_bits()
                    .iter()
                    .all(|&(t, s)| c.symbol_at(t) == Some(s))
                    && pattern
                        .bus_lines()
                        .iter()
                        .all(|&(l, d)| c.bus_lines().binary_search(&(l, d)).is_ok())
            });
            assert!(covered, "raw pattern not represented in the compacted set");
        }
    });
}

/// Compacted patterns are pairwise incompatible under the greedy
/// first-fit order (otherwise the cover would not be maximal for the
/// leading pattern).
#[test]
fn greedy_cliques_are_maximal_for_leader() {
    forall("greedy_cliques_are_maximal_for_leader", cases(48), |g| {
        let cores = g.usize_in(2, 6);
        let soc_seed = g.u64_in(0, 200);
        let n = g.usize_in(2, 80);
        let soc = small_soc(cores, soc_seed);
        let raw = generate_random(&soc, &RandomPatternConfig::new(n).with_seed(7))
            .expect("generation succeeds");
        let compacted = compact_greedy(&soc, &raw);
        for (i, a) in compacted.iter().enumerate() {
            for b in &compacted[i + 1..] {
                assert!(
                    !a.is_compatible(b),
                    "two compacted patterns are still compatible — greedy missed a merge"
                );
            }
        }
    });
}

/// The 2-D pipeline conserves patterns: group pattern counts track the
/// stats and never exceed the raw count.
#[test]
fn pipeline_counts_are_consistent() {
    forall("pipeline_counts_are_consistent", cases(48), |g| {
        let cores = g.usize_in(2, 8);
        let n = g.usize_in(1, 150);
        let parts = g.u32_in(1, 4);
        let soc = small_soc(cores, 3);
        if parts as usize > soc.num_cores() {
            return;
        }
        let raw = SiPatternSet::random(&soc, &RandomPatternConfig::new(n).with_seed(1))
            .expect("generation succeeds");
        let out = compact_two_dimensional(&soc, &raw, &CompactionConfig::new(parts))
            .expect("compaction succeeds");
        assert!(out.total_patterns() <= n as u64);
        let stats = out.stats();
        assert_eq!(stats.raw_patterns, n);
        let counted: u64 =
            stats.group_patterns.iter().sum::<usize>() as u64 + stats.remainder_patterns as u64;
        assert_eq!(out.total_patterns(), counted);
    });
}

/// The packed kernel is a faithful model of the sparse reference:
/// pack → unpack is lossless, `is_compatible` agrees pairwise, and
/// `merged` produces the same pattern (or fails exactly when the sparse
/// merge would).
#[test]
fn packed_kernel_matches_sparse_reference() {
    use soctam::patterns::PackedPattern;
    forall("packed_kernel_matches_sparse_reference", cases(48), |g| {
        let cores = g.usize_in(2, 8);
        let soc_seed = g.u64_in(0, 500);
        let n = g.usize_in(2, 40);
        let pat_seed = g.u64_in(0, 500);
        let soc = small_soc(cores, soc_seed);
        let raw = generate_random(&soc, &RandomPatternConfig::new(n).with_seed(pat_seed))
            .expect("generation succeeds");
        let packed: Vec<PackedPattern> = raw.iter().map(PackedPattern::from).collect();
        for (sparse, p) in raw.iter().zip(&packed) {
            assert_eq!(&p.to_sparse(), sparse, "pack/unpack round-trip drifted");
        }
        for i in 0..raw.len() {
            for j in i + 1..raw.len() {
                let compatible = raw[i].is_compatible(&raw[j]);
                assert_eq!(
                    packed[i].is_compatible(&packed[j]),
                    compatible,
                    "packed is_compatible disagrees with the sparse reference"
                );
                match packed[i].merged(&packed[j]) {
                    Ok(m) => {
                        assert!(
                            compatible,
                            "packed merge succeeded on incompatible patterns"
                        );
                        let reference = raw[i].merged(&raw[j]).expect("sparse merge succeeds");
                        assert_eq!(m.to_sparse(), reference, "packed merge result drifted");
                    }
                    Err(_) => assert!(!compatible, "packed merge failed on compatible patterns"),
                }
            }
        }
    });
}

/// Any valid architecture evaluates with consistent invariants: t_in is
/// the rail max, the SI schedule is conflict-free and the makespan is
/// at most the serial sum of group times.
#[test]
fn evaluation_invariants_hold() {
    forall("evaluation_invariants_hold", cases(48), |g| {
        let cores = g.usize_in(2, 8);
        let soc_seed = g.u64_in(0, 300);
        let split = g.usize_in(1, 7);
        let w0 = g.u32_in(1, 6);
        let w1 = g.u32_in(1, 6);
        let patterns = g.u64_in(1, 200);
        let soc = small_soc(cores, soc_seed);
        let split = split.min(soc.num_cores() - 1);
        let ids: Vec<_> = soc.core_ids().collect();
        let rails = vec![
            TestRail::new(ids[..split].to_vec(), w0).expect("valid"),
            TestRail::new(ids[split..].to_vec(), w1).expect("valid"),
        ];
        let arch = TestRailArchitecture::new(&soc, rails).expect("valid");
        let groups = vec![
            SiGroupSpec::new(ids.clone(), patterns),
            SiGroupSpec::new(ids[..split].to_vec(), patterns / 2),
        ];
        let evaluator = Evaluator::new(&soc, 8, groups).expect("valid");
        let eval = evaluator.evaluate(&arch);
        assert_eq!(eval.t_in, *eval.rail_time_in.iter().max().unwrap());
        assert!(eval.schedule.validate().is_ok());
        let serial: u64 = eval.group_times.iter().map(|g| g.time).sum();
        assert!(eval.t_si <= serial);
        assert!(eval.t_si >= eval.group_times.iter().map(|g| g.time).max().unwrap_or(0));
    });
}

/// Wrapper InTest time is monotonically non-increasing in TAM width.
#[test]
fn wrapper_time_monotone() {
    forall("wrapper_time_monotone", cases(48), |g| {
        let inputs = g.u32_in(0, 64);
        let outputs = g.u32_in(0, 64);
        let chains = g.vec_of(0, 5, |g| g.u32_in(1, 200));
        let patterns = g.u64_in(1, 500);
        let core =
            soctam::CoreSpec::new("p", inputs, outputs, 0, chains, patterns).expect("valid core");
        let mut last = u64::MAX;
        for width in 1..=12 {
            let t = soctam::intest_time(&core, width).expect("valid width");
            assert!(t <= last);
            last = t;
        }
    });
}
