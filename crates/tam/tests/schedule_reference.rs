//! Exhaustive reference for Algorithm 1 on tiny instances: the true
//! optimal SI schedule can be found by trying every priority permutation
//! (list scheduling is dominant for this conflict model when tests cannot
//! be split), giving a quality yardstick for the first-fit heuristic.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use soctam_tam::{schedule_si_tests, SiGroupTime};

fn permutations<T: Clone>(items: &[T]) -> Vec<Vec<T>> {
    if items.is_empty() {
        return vec![Vec::new()];
    }
    let mut all = Vec::new();
    for i in 0..items.len() {
        let mut rest = items.to_vec();
        let head = rest.remove(i);
        for mut tail in permutations(&rest) {
            tail.insert(0, head.clone());
            all.push(tail);
        }
    }
    all
}

/// The best makespan reachable by list scheduling under any priority
/// order.
fn best_over_permutations(groups: &[SiGroupTime]) -> u64 {
    let indices: Vec<usize> = (0..groups.len()).collect();
    permutations(&indices)
        .into_iter()
        .map(|perm| {
            let reordered: Vec<SiGroupTime> = perm.iter().map(|&i| groups[i].clone()).collect();
            schedule_si_tests(&reordered).makespan()
        })
        .min()
        .expect("at least one permutation")
}

/// `groups` in longest-first priority order, the classical makespan
/// heuristic; the stable sort keeps ties in input order.
fn longest_first(groups: &[SiGroupTime]) -> Vec<SiGroupTime> {
    let mut sorted = groups.to_vec();
    sorted.sort_by_key(|g| std::cmp::Reverse(g.time));
    sorted
}

fn g(time: u64, rails: &[usize]) -> SiGroupTime {
    SiGroupTime {
        time,
        rails: rails.to_vec(),
        bottleneck_rail: rails.first().copied().unwrap_or(usize::MAX),
    }
}

/// Deterministic pseudo-random tiny instances.
fn instance(seed: u64) -> Vec<SiGroupTime> {
    let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(7);
    let mut next = |m: u64| {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state % m
    };
    let count = 3 + (next(4) as usize);
    (0..count)
        .map(|_| {
            let span = 1 + next(3) as usize;
            let mut rails: Vec<usize> = (0..span).map(|_| next(4) as usize).collect();
            rails.sort_unstable();
            rails.dedup();
            g(1 + next(50), &rails)
        })
        .collect()
}

#[test]
fn first_fit_is_close_to_best_permutation() {
    let mut total_ff = 0u64;
    let mut total_best = 0u64;
    for seed in 0..40u64 {
        let groups = instance(seed);
        let ff = schedule_si_tests(&groups).makespan();
        let lpt = schedule_si_tests(&longest_first(&groups)).makespan();
        let best = best_over_permutations(&groups);
        assert!(
            ff >= best,
            "seed {seed}: first-fit beat the permutation optimum"
        );
        assert!(lpt >= best, "seed {seed}: LPT beat the permutation optimum");
        // List scheduling with any order is a 2-approximation of the
        // permutation optimum for this conflict model; check a generous
        // per-instance bound and a tight aggregate one.
        assert!(ff <= best * 2, "seed {seed}: first-fit {ff} vs best {best}");
        total_ff += ff;
        total_best += best;
    }
    assert!(
        total_ff * 100 <= total_best * 115,
        "aggregate first-fit {total_ff} more than 15% over permutation optimum {total_best}"
    );
}

#[test]
fn longest_first_never_loses_in_aggregate() {
    let mut total_ff = 0u64;
    let mut total_lpt = 0u64;
    for seed in 0..60u64 {
        let groups = instance(seed);
        total_ff += schedule_si_tests(&groups).makespan();
        total_lpt += schedule_si_tests(&longest_first(&groups)).makespan();
    }
    assert!(
        total_lpt <= total_ff,
        "LPT aggregate {total_lpt} worse than input order {total_ff}"
    );
}
