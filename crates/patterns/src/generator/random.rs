//! The randomized SI pattern recipe of the paper's experiments (Section 5).

use soctam_exec::{Pool, Rng};

use soctam_model::{BusLineId, CoreId, Soc, TerminalId};

use crate::packed::{check_packable, BLOCK};
use crate::{PackedSet, PatternError, SiPattern, Symbol};

/// Configuration for [`generate_random`] /
/// [`SiPatternSet::random`](crate::SiPatternSet::random) and the arena
/// generator [`generate_random_packed`].
///
/// Defaults reproduce the paper's setup: `N_a ∈ [2, 6]` aggressors per
/// pattern, at most two aggressors outside the victim core boundary, a
/// 32-bit shared bus used by 50 % of the patterns with `1..=N_a` occupied
/// postfix bits. Internal aggressors are drawn from a ±4-terminal locality
/// window around the victim (crosstalk couples neighbouring interconnects;
/// the paper's reduced-MT discussion uses `k = 3`).
///
/// # Example
///
/// ```
/// use soctam_patterns::RandomPatternConfig;
///
/// let config = RandomPatternConfig::new(10_000).with_seed(42);
/// assert_eq!(config.count, 10_000);
/// assert_eq!(config.bus_lines, 32);
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct RandomPatternConfig {
    /// Number of patterns to generate (the paper's `N_r`).
    pub count: usize,
    /// RNG seed; equal seeds over equal SOCs produce equal sets.
    pub seed: u64,
    /// Minimum aggressors per pattern (inclusive).
    pub min_aggressors: u32,
    /// Maximum aggressors per pattern (inclusive).
    pub max_aggressors: u32,
    /// At most this many aggressors outside the victim core boundary.
    pub max_external_aggressors: u32,
    /// Locality window for aggressors inside the victim core: internal
    /// aggressors are drawn from the terminals within this distance of the
    /// victim (crosstalk couples neighbouring lines; compare the reduced-MT
    /// locality factor `k`). `None` draws them uniformly from the whole
    /// core boundary.
    pub locality: Option<u32>,
    /// Width of the shared functional bus (0 disables the bus postfix).
    pub bus_lines: u8,
    /// Probability that a pattern occupies bus lines.
    pub bus_probability: f64,
}

impl RandomPatternConfig {
    /// Creates the paper's default configuration for `count` patterns.
    pub fn new(count: usize) -> Self {
        RandomPatternConfig {
            count,
            seed: 0,
            min_aggressors: 2,
            max_aggressors: 6,
            max_external_aggressors: 2,
            locality: Some(4),
            bus_lines: 32,
            bus_probability: 0.5,
        }
    }

    /// Sets the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    fn validate(&self, soc: &Soc) -> Result<(), PatternError> {
        if self.min_aggressors == 0 || self.min_aggressors > self.max_aggressors {
            return Err(PatternError::InvalidConfig {
                message: format!(
                    "aggressor range {}..={} is empty or starts at zero",
                    self.min_aggressors, self.max_aggressors
                ),
            });
        }
        if !(0.0..=1.0).contains(&self.bus_probability) {
            return Err(PatternError::InvalidConfig {
                message: format!("bus probability {} outside [0, 1]", self.bus_probability),
            });
        }
        // Need a victim plus at least min_aggressors distinct terminals.
        let required = 1 + self.min_aggressors;
        if soc.total_wocs() < required {
            return Err(PatternError::NotEnoughTerminals {
                required,
                available: soc.total_wocs(),
            });
        }
        Ok(())
    }
}

/// Generates `config.count` random SI patterns over `soc`'s terminal space.
///
/// Each pattern has one victim terminal (any of the four symbols) and
/// `N_a` aggressor terminals (transitions), with at most
/// `config.max_external_aggressors` aggressors outside the victim core
/// boundary — if the victim core has too few terminals, the pattern may
/// end up with fewer aggressors than drawn, but the external bound is
/// never exceeded. With probability `config.bus_probability` the pattern
/// additionally occupies `1..=N_a` random bus lines, driven from the
/// victim core's boundary.
///
/// # Errors
///
/// Returns [`PatternError::InvalidConfig`] for inconsistent configurations
/// and [`PatternError::NotEnoughTerminals`] when the SOC's terminal space
/// cannot host a victim plus the minimum aggressors.
pub fn generate_random(
    soc: &Soc,
    config: &RandomPatternConfig,
) -> Result<Vec<SiPattern>, PatternError> {
    soctam_exec::fault::check("patterns.generate.random")?;
    config.validate(soc)?;
    Ok((0..config.count)
        .map(|i| generate_one(soc, config, i as u64))
        .collect())
}

/// As [`generate_random`], generating patterns in parallel on `pool`.
///
/// Pattern `i` is produced from its own PRNG stream derived from
/// `(config.seed, i)`, so the output is **bit-identical** to the serial
/// [`generate_random`] for any pool size.
///
/// # Errors
///
/// Same as [`generate_random`].
pub fn generate_random_with(
    soc: &Soc,
    config: &RandomPatternConfig,
    pool: &Pool,
) -> Result<Vec<SiPattern>, PatternError> {
    soctam_exec::fault::check("patterns.generate.random")?;
    config.validate(soc)?;
    Ok(pool.par_map_index(config.count, |i| generate_one(soc, config, i as u64)))
}

/// Care words and bus lines reserved per pattern of a generated block.
/// The default recipe packs 1.6–2.1 care words and 1.25 bus lines per
/// pattern on the embedded benchmarks, and at most 2.14 and 1.40 in any
/// block of their 100 000-pattern sets, so its blocks never regrow.
const WORDS_PER_PATTERN: usize = 3;
const LINES_PER_PATTERN: usize = 2;

/// As [`generate_random_with`], writing the patterns straight into a
/// packed arena: no sparse [`SiPattern`] is built.
///
/// The pool fans out over the arena's blocks of 1 024 consecutive
/// patterns, one item per block; each block draws its patterns into two
/// reused buffers and packs them into a block reserved for them, and
/// the blocks move into the set in order, uncopied. The result
/// therefore equals `PackedSet::build(&generate_random(soc, config)?)`
/// for any pool size, summary included.
///
/// # Errors
///
/// Same as [`generate_random`], plus [`PatternError::TooManyCores`] when
/// `soc` has more cores than packed patterns can name as bus drivers.
pub fn generate_random_packed(
    soc: &Soc,
    config: &RandomPatternConfig,
    pool: &Pool,
) -> Result<PackedSet, PatternError> {
    soctam_exec::fault::check("patterns.generate.random")?;
    config.validate(soc)?;
    check_packable(soc)?;
    let blocks = pool.par_map_index(config.count.div_ceil(BLOCK), |block| {
        let indices = block * BLOCK..((block + 1) * BLOCK).min(config.count);
        let (mut care, mut bus) = (Vec::new(), Vec::new());
        let mut arena = PackedSet::default();
        arena.reserve_block(
            indices.len(),
            indices.len() * WORDS_PER_PATTERN,
            indices.len() * LINES_PER_PATTERN,
        );
        for index in indices {
            draw_one(soc, config, index as u64, &mut care, &mut bus);
            care.sort_unstable_by_key(|&(terminal, _)| terminal);
            bus.sort_unstable_by_key(|&(line, _)| line);
            arena.push_sorted(&care, &bus);
        }
        arena
    });
    Ok(PackedSet::concat(blocks))
}

/// Generates pattern `index` of the set as a sparse pattern.
// Invariant: `draw_one` deduplicates its draws, so construction cannot conflict.
#[allow(clippy::expect_used)]
fn generate_one(soc: &Soc, config: &RandomPatternConfig, index: u64) -> SiPattern {
    let (mut care, mut bus) = (Vec::new(), Vec::new());
    draw_one(soc, config, index, &mut care, &mut bus);
    SiPattern::new(care, bus).expect("draws are distinct")
}

/// Draws pattern `index` of the set into `care` and `bus`, which are
/// cleared first: one victim plus aggressors and an optional bus
/// postfix, all drawn from the stream derived from `(config.seed,
/// index)`. Entries are distinct and in draw order, not sorted.
// Invariant: the victim is drawn from the terminal space, so it has an owner.
#[allow(clippy::expect_used)]
fn draw_one(
    soc: &Soc,
    config: &RandomPatternConfig,
    index: u64,
    care: &mut Vec<(TerminalId, Symbol)>,
    bus: &mut Vec<(BusLineId, CoreId)>,
) {
    let mut rng = Rng::derive(config.seed, index);
    let total = soc.total_wocs();

    let victim = TerminalId::new(rng.range_u32(0, total));
    let victim_core = soc.owner(victim).expect("victim in range");
    let victim_range = soc.terminal_range(victim_core);
    // Internal aggressors come from the locality window around the
    // victim, clipped to the victim core's boundary.
    let window = match config.locality {
        Some(k) => {
            victim.raw().saturating_sub(k).max(victim_range.start)
                ..(victim.raw() + k + 1).min(victim_range.end)
        }
        None => victim_range.clone(),
    };
    let internal_pool = (window.end - window.start - 1) as usize;
    let external_pool = (total - (victim_range.end - victim_range.start)) as usize;

    let na = rng.range_u32_inclusive(config.min_aggressors, config.max_aggressors) as usize;
    let max_ext = (config.max_external_aggressors as usize).min(external_pool);
    // Draw the external share, then force enough externals to cover
    // whatever the victim core cannot host internally.
    let drawn_ext = rng.range_usize_inclusive(0, max_ext.min(na));
    let needed_ext = na.saturating_sub(internal_pool).min(max_ext);
    let n_ext = drawn_ext.max(needed_ext);
    let n_int = (na - n_ext).min(internal_pool);

    care.clear();
    care.reserve(1 + n_int + n_ext);
    care.push((victim, Symbol::ALL[rng.index(4)]));

    // Each aggressor share draws all its terminals, then their
    // transitions; the symbol placeholder is overwritten by the latter.
    let internal = care.len();
    sample_distinct(&mut rng, care, n_int, |r| {
        let t = r.range_u32(window.start, window.end);
        (t != victim.raw()).then_some((TerminalId::new(t), Symbol::Rise))
    });
    draw_transitions(&mut rng, &mut care[internal..]);

    let external = care.len();
    sample_distinct(&mut rng, care, n_ext, |r| {
        let t = r.range_u32(0, total);
        (!(victim_range.start..victim_range.end).contains(&t))
            .then_some((TerminalId::new(t), Symbol::Rise))
    });
    draw_transitions(&mut rng, &mut care[external..]);

    bus.clear();
    if config.bus_lines > 0 && rng.chance(config.bus_probability) {
        let occupied = rng
            .range_usize_inclusive(1, na.max(1))
            .min(config.bus_lines as usize);
        bus.reserve(occupied);
        sample_distinct(&mut rng, bus, occupied, |r| {
            let line = r.range_u32(0, u32::from(config.bus_lines));
            Some((BusLineId::new(line as u8), victim_core))
        });
    }
}

/// Draws the transition of each aggressor in `aggressors`, in order.
fn draw_transitions(rng: &mut Rng, aggressors: &mut [(TerminalId, Symbol)]) {
    for (_, symbol) in aggressors {
        *symbol = Symbol::TRANSITIONS[rng.index(2)];
    }
}

/// Appends `count` distinct draws to `out` via rejection sampling: a
/// draw equal to one this call already appended is drawn again, and
/// `draw` may return `None` to veto a candidate (used to exclude the
/// victim / core range).
fn sample_distinct<T: PartialEq>(
    rng: &mut Rng,
    out: &mut Vec<T>,
    count: usize,
    mut draw: impl FnMut(&mut Rng) -> Option<T>,
) {
    let start = out.len();
    let mut attempts = 0usize;
    while out.len() - start < count {
        attempts += 1;
        // The pools are always large relative to the <=6 samples needed, so
        // rejection converges fast; the cap guards against misuse.
        assert!(
            attempts < 10_000,
            "rejection sampling failed to find {count} distinct values"
        );
        if let Some(v) = draw(rng) {
            if !out[start..].contains(&v) {
                out.push(v);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use soctam_model::{Benchmark, CoreSpec};

    fn soc() -> Soc {
        Benchmark::D695.soc()
    }

    #[test]
    fn generates_requested_count() {
        let set = generate_random(&soc(), &RandomPatternConfig::new(500)).expect("valid");
        assert_eq!(set.len(), 500);
    }

    #[test]
    fn deterministic_per_seed() {
        let cfg = RandomPatternConfig::new(200).with_seed(11);
        let a = generate_random(&soc(), &cfg).expect("valid");
        let b = generate_random(&soc(), &cfg).expect("valid");
        assert_eq!(a, b);
        let c =
            generate_random(&soc(), &RandomPatternConfig::new(200).with_seed(12)).expect("valid");
        assert_ne!(a, c);
    }

    #[test]
    fn external_aggressor_bound_holds() {
        let soc = soc();
        let cfg = RandomPatternConfig::new(2_000).with_seed(3);
        for p in generate_random(&soc, &cfg).expect("valid") {
            // The victim is the first care bit pushed, but care bits are
            // sorted afterwards; recover the victim as... any core: count
            // care cores other than the most frequent one.
            let mut per_core = std::collections::HashMap::new();
            for &(t, _) in p.care_bits() {
                *per_core
                    .entry(soc.owner(t).expect("in range"))
                    .or_insert(0u32) += 1;
            }
            let max_in_one_core = per_core.values().copied().max().unwrap_or(0);
            let total: u32 = per_core.values().sum();
            assert!(
                total - max_in_one_core <= cfg.max_external_aggressors,
                "more than {} aggressors outside the dominant core",
                cfg.max_external_aggressors
            );
        }
    }

    #[test]
    fn aggressor_count_in_range() {
        let cfg = RandomPatternConfig::new(1_000).with_seed(5);
        for p in generate_random(&soc(), &cfg).expect("valid") {
            let n = p.care_bits().len() - 1;
            assert!(n <= cfg.max_aggressors as usize);
            assert!(n >= 1, "at least one aggressor survives clamping");
        }
    }

    #[test]
    fn bus_usage_frequency_near_half() {
        let cfg = RandomPatternConfig::new(4_000).with_seed(9);
        let patterns = generate_random(&soc(), &cfg).expect("valid");
        let with_bus = patterns
            .iter()
            .filter(|p| !p.bus_lines().is_empty())
            .count();
        let frac = with_bus as f64 / patterns.len() as f64;
        assert!((0.45..0.55).contains(&frac), "bus fraction {frac}");
    }

    #[test]
    fn bus_lines_respect_width_and_driver() {
        let soc = soc();
        let cfg = RandomPatternConfig {
            bus_lines: 4,
            ..RandomPatternConfig::new(1_000).with_seed(1)
        };
        for p in generate_random(&soc, &cfg).expect("valid") {
            for &(line, driver) in p.bus_lines() {
                assert!(line.raw() < 4);
                assert!(driver.index() < soc.num_cores());
            }
        }
    }

    #[test]
    fn internal_aggressors_respect_locality_window() {
        let soc = soc();
        let cfg = RandomPatternConfig {
            locality: Some(3),
            max_external_aggressors: 0,
            ..RandomPatternConfig::new(1_000).with_seed(13)
        };
        for p in generate_random(&soc, &cfg).expect("valid") {
            let terms: Vec<u32> = p.care_bits().iter().map(|&(t, _)| t.raw()).collect();
            let spread = terms.iter().max().unwrap() - terms.iter().min().unwrap();
            assert!(spread <= 6, "care bits span {spread} > 2 * locality");
        }
    }

    #[test]
    fn no_locality_spreads_over_whole_core() {
        let soc = soc();
        let cfg = RandomPatternConfig {
            locality: None,
            max_external_aggressors: 0,
            ..RandomPatternConfig::new(2_000).with_seed(13)
        };
        let wide = generate_random(&soc, &cfg)
            .expect("valid")
            .iter()
            .filter(|p| {
                let terms: Vec<u32> = p.care_bits().iter().map(|&(t, _)| t.raw()).collect();
                terms.iter().max().unwrap() - terms.iter().min().unwrap() > 8
            })
            .count();
        assert!(wide > 0, "uniform draws should sometimes span widely");
    }

    #[test]
    fn zero_bus_probability_disables_postfix() {
        let cfg = RandomPatternConfig {
            bus_probability: 0.0,
            ..RandomPatternConfig::new(300)
        };
        for p in generate_random(&soc(), &cfg).expect("valid") {
            assert!(p.bus_lines().is_empty());
        }
    }

    #[test]
    fn tiny_soc_rejected() {
        let tiny = Soc::new(
            "tiny",
            vec![CoreSpec::new("a", 1, 1, 0, vec![], 1).expect("valid")],
        )
        .expect("valid soc");
        assert!(matches!(
            generate_random(&tiny, &RandomPatternConfig::new(1)),
            Err(PatternError::NotEnoughTerminals { .. })
        ));
    }

    #[test]
    fn invalid_aggressor_range_rejected() {
        let cfg = RandomPatternConfig {
            min_aggressors: 5,
            max_aggressors: 2,
            ..RandomPatternConfig::new(1)
        };
        assert!(matches!(
            generate_random(&soc(), &cfg),
            Err(PatternError::InvalidConfig { .. })
        ));
    }

    #[test]
    fn parallel_generation_matches_serial() {
        let soc = soc();
        let cfg = RandomPatternConfig::new(777).with_seed(21);
        let serial = generate_random(&soc, &cfg).expect("valid");
        for jobs in [1, 2, 4, 8] {
            let pool = Pool::new(jobs);
            let parallel = generate_random_with(&soc, &cfg, &pool).expect("valid");
            assert_eq!(parallel, serial, "jobs={jobs}");
        }
    }

    /// Checks `packed` against `reference` span by span, then their
    /// summaries and layouts.
    fn assert_same_arena(packed: &PackedSet, reference: &PackedSet, what: &str) {
        assert_eq!(packed.len(), reference.len(), "{what}: pattern count");
        for i in 0..reference.len() {
            let (got, want) = (packed.get(i), reference.get(i));
            assert_eq!(got.words, want.words, "{what}: words of pattern {i}");
            assert_eq!(got.bus, want.bus, "{what}: bus lines of pattern {i}");
        }
        assert_eq!(packed.max_terminal(), reference.max_terminal(), "{what}");
        assert_eq!(packed.max_driver(), reference.max_driver(), "{what}");
        assert_eq!(
            packed.empty_patterns(),
            reference.empty_patterns(),
            "{what}"
        );
        assert_eq!(packed, reference, "{what}: arena layout");
    }

    #[test]
    fn arena_generator_reproduces_the_sparse_stream() {
        use soctam_model::synth::{synth_soc, SynthConfig};
        let pools: Vec<Pool> = [1, 2, 4, 8].into_iter().map(Pool::new).collect();
        let mut socs: Vec<Soc> = Benchmark::ALL.iter().map(|b| b.soc()).collect();
        for cores in [100, 300] {
            socs.push(synth_soc(&SynthConfig::new(cores).with_seed(5)).expect("valid soc"));
        }
        let check = |soc: &Soc, config: &RandomPatternConfig, what: &str| {
            let reference = PackedSet::build(&generate_random(soc, config).expect("valid"));
            for pool in &pools {
                let packed = generate_random_packed(soc, config, pool).expect("valid");
                assert_same_arena(
                    &packed,
                    &reference,
                    &format!("{what}, jobs={}", pool.jobs()),
                );
            }
        };
        let counts = [0, 1, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 7];
        let edits: [fn(&mut RandomPatternConfig); 5] = [
            |c| c.locality = None,
            |c| c.bus_lines = 0,
            |c| c.bus_probability = 0.0,
            |c| c.bus_probability = 1.0,
            // Far more care bits than any small buffer holds.
            |c| c.max_aggressors = 40,
        ];
        for soc in &socs {
            for seed in [1, 2, 2007] {
                for count in counts {
                    let config = RandomPatternConfig::new(count).with_seed(seed);
                    check(
                        soc,
                        &config,
                        &format!("{} seed={seed} n={count}", soc.name()),
                    );
                }
            }
            for (edit_index, edit) in edits.iter().enumerate() {
                let mut config = RandomPatternConfig::new(3 * BLOCK + 7).with_seed(3);
                edit(&mut config);
                check(soc, &config, &format!("{} edit {edit_index}", soc.name()));
            }
        }
    }

    #[test]
    fn arena_generator_checks_like_the_sparse_one() {
        let pool = Pool::new(2);
        let tiny = Soc::new(
            "tiny",
            vec![CoreSpec::new("a", 1, 1, 0, vec![], 1).expect("valid")],
        )
        .expect("valid soc");
        let bad_range = RandomPatternConfig {
            min_aggressors: 5,
            max_aggressors: 2,
            ..RandomPatternConfig::new(1)
        };
        for (soc, config) in [(&tiny, RandomPatternConfig::new(1)), (&soc(), bad_range)] {
            assert_eq!(
                generate_random_packed(soc, &config, &pool).expect_err("rejected"),
                generate_random(soc, &config).expect_err("rejected")
            );
        }
    }

    #[test]
    fn works_on_all_benchmarks() {
        for bench in Benchmark::ALL {
            let soc = bench.soc();
            let set =
                generate_random(&soc, &RandomPatternConfig::new(100).with_seed(2)).expect("valid");
            for p in &set {
                p.validate_for(&soc).expect("terminals in range");
            }
        }
    }
}
