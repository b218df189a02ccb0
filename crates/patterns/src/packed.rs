//! The dense, bit-packed pattern kernel.
//!
//! [`SiPattern`] stores care bits sparsely — ideal for construction and
//! IO, but pairwise compatibility then costs a per-symbol merge-join.
//! This module packs a pattern into **bit-planes over `u64` words** so
//! the clique-cover inner loop becomes a handful of AND/XOR/OR ops per
//! 64 terminals:
//!
//! * one *care* plane (bit set ⇔ the terminal is not `x`), and
//! * two *symbol* planes `lo`/`hi` holding the first/second cycle logic
//!   values of [`Symbol::vector_pair`], masked by the care plane. The
//!   2-bit code covers the whole alphabet: `Zero = 00`, `One = 11`,
//!   `Rise = 01`, `Fall = 10` (as `(lo, hi)` pairs).
//!
//! Two patterns conflict on a word exactly where
//! `care_a & care_b & ((lo_a ^ lo_b) | (hi_a ^ hi_b))` is non-zero, and
//! merging compatible patterns is a word-wise OR.
//!
//! Since SI patterns are overwhelmingly `x`, packed patterns stay
//! *sparse at word granularity*: only words with at least one care bit
//! are stored, each tagged with its word index. That per-pattern word
//! index doubles as the first-conflict skip index — patterns that do not
//! overlap a clique are rejected after `O(own words)` comparisons.
//!
//! The bus postfix packs into two bytes per occupied line
//! ([`PackedBusLine`]); the clique accumulator keys a dense occupancy
//! plane by driver core (one `driver + 1` entry per line, `0` = free),
//! so "no shared line is driven from two different core boundaries" is
//! one table probe per occupied line. On random SI sets most
//! incompatibilities are bus-driver conflicts, so the accumulator checks
//! the bus *first* and the common reject path never touches the symbol
//! planes — this prefilter is what [`KernelStats::fast_rejects`] counts.
//!
//! The conversion to and from [`SiPattern`] is lossless;
//! [`PackedPattern::to_sparse`] ∘ [`PackedPattern::from_sparse`] is the
//! identity (pinned by the `proptest` differential suite).

use soctam_model::{BusLineId, CoreId, Soc, TerminalId};

use crate::{PatternError, SiPattern, Symbol};

/// Exclusive upper bound on driver core ids representable in the packed
/// bus postfix (driver ids are stored as one byte per line).
pub const MAX_PACKED_DRIVERS: u32 = 256;

/// Number of `u64` words spanning the 256-line bus space.
const BUS_WORDS: usize = 4;

/// Number of bus lines addressable by the packed postfix.
const BUS_LINES: usize = BUS_WORDS * 64;

/// Number of `u64` words needed to cover `terminals` terminal ids.
#[must_use]
pub fn words_for_terminals(terminals: usize) -> usize {
    terminals.div_ceil(64)
}

/// One 64-terminal slice of a packed pattern: the care plane and the two
/// symbol planes, tagged with its word index (`terminal / 64`).
///
/// `lo`/`hi` hold the first/second cycle logic values of
/// [`Symbol::vector_pair`] and are always masked by `care`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub struct PackedWord {
    /// Word index into the terminal space (`terminal / 64`).
    pub index: u32,
    /// Care plane: bit `b` set ⇔ terminal `index*64 + b` is not `x`.
    pub care: u64,
    /// First-cycle logic values, masked by `care`.
    pub lo: u64,
    /// Second-cycle logic values, masked by `care`.
    pub hi: u64,
}

/// One occupied bus line of a packed pattern: the line index and the
/// core from whose boundary it is driven, in two bytes.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub struct PackedBusLine {
    /// The occupied bus line.
    pub line: u8,
    /// The driver core id (must be < [`MAX_PACKED_DRIVERS`]).
    pub driver: u8,
}

/// Conflict mask of two aligned care/symbol word triples: a bit is set
/// where both patterns care and their symbols disagree.
///
/// This is the **single source of the terminal-compatibility
/// semantics** — the greedy clique accumulator, the pairwise
/// [`PackedPattern`] operations and (through them) the exact
/// branch-and-bound cover all call it.
#[inline]
#[must_use]
fn conflict_planes(care_a: u64, lo_a: u64, hi_a: u64, care_b: u64, lo_b: u64, hi_b: u64) -> u64 {
    care_a & care_b & ((lo_a ^ lo_b) | (hi_a ^ hi_b))
}

/// Conflict mask of two [`PackedWord`]s with the same word index.
#[inline]
#[must_use]
pub fn symbol_conflict(a: &PackedWord, b: &PackedWord) -> u64 {
    debug_assert_eq!(a.index, b.index, "symbol_conflict needs aligned words");
    conflict_planes(a.care, a.lo, a.hi, b.care, b.lo, b.hi)
}

/// A dense, bit-packed SI test pattern: word-sparse care/symbol planes
/// plus the packed bus postfix. Lossless companion of [`SiPattern`].
///
/// # Example
///
/// ```
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// use soctam_model::TerminalId;
/// use soctam_patterns::{PackedPattern, SiPattern, Symbol};
///
/// let a = SiPattern::new(vec![(TerminalId::new(3), Symbol::Rise)], vec![])?;
/// let b = SiPattern::new(vec![(TerminalId::new(3), Symbol::Fall)], vec![])?;
/// let (pa, pb) = (PackedPattern::from_sparse(&a), PackedPattern::from_sparse(&b));
/// assert!(!pa.is_compatible(&pb));
/// assert_eq!(pa.to_sparse(), a);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq, Hash)]
pub struct PackedPattern {
    words: Vec<PackedWord>,
    bus: Vec<PackedBusLine>,
}

/// A borrowed view of one packed pattern (either a standalone
/// [`PackedPattern`] or a slice of a [`PackedSet`] arena). Two views are
/// equal exactly when the sparse patterns they pack are equal.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PackedRef<'a> {
    /// Care/symbol words, ascending by word index.
    pub words: &'a [PackedWord],
    /// Occupied bus lines, ascending by line.
    pub bus: &'a [PackedBusLine],
}

impl PackedRef<'_> {
    /// Total care bits (the sparse pattern's `care_bits().len()`).
    #[must_use]
    #[inline]
    pub fn care_count(&self) -> usize {
        self.words
            .iter()
            .map(|w| w.care.count_ones() as usize)
            .sum()
    }

    /// Total occupied bus lines (the sparse pattern's
    /// `bus_lines().len()`).
    #[must_use]
    #[inline]
    pub fn bus_count(&self) -> usize {
        self.bus.len()
    }
}

fn pack_care(care: &[(TerminalId, Symbol)], out: &mut Vec<PackedWord>) {
    let mut current = PackedWord::default();
    let mut open = false;
    for &(t, s) in care {
        let index = t.raw() / 64;
        let bit = t.raw() % 64;
        if !open || current.index != index {
            if open {
                out.push(current);
            }
            current = PackedWord {
                index,
                ..PackedWord::default()
            };
            open = true;
        }
        let (first, second) = s.vector_pair();
        current.care |= 1 << bit;
        current.lo |= u64::from(first) << bit;
        current.hi |= u64::from(second) << bit;
    }
    if open {
        out.push(current);
    }
}

fn pack_bus(bus: &[(BusLineId, CoreId)], out: &mut Vec<PackedBusLine>) {
    for &(l, d) in bus {
        assert!(
            d.raw() < MAX_PACKED_DRIVERS,
            "bus driver {d} exceeds the packed driver-id limit ({MAX_PACKED_DRIVERS})"
        );
        out.push(PackedBusLine {
            line: l.raw(),
            driver: d.raw() as u8,
        });
    }
}

fn unpack_care(words: &[PackedWord], out: &mut Vec<(TerminalId, Symbol)>) {
    for w in words {
        let mut mask = w.care;
        while mask != 0 {
            let bit = mask.trailing_zeros();
            let terminal = TerminalId::new(w.index * 64 + bit);
            let symbol = Symbol::from_vector_pair((w.lo >> bit) & 1 != 0, (w.hi >> bit) & 1 != 0);
            out.push((terminal, symbol));
            mask &= mask - 1;
        }
    }
}

fn unpack_bus(bus: &[PackedBusLine], out: &mut Vec<(BusLineId, CoreId)>) {
    out.extend(
        bus.iter()
            .map(|&pl| (BusLineId::new(pl.line), CoreId::new(u32::from(pl.driver)))),
    );
}

/// `true` when the sorted word lists never conflict (merge-join with
/// early exit).
fn words_agree(a: &[PackedWord], b: &[PackedWord]) -> bool {
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].index.cmp(&b[j].index) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                if symbol_conflict(&a[i], &b[j]) != 0 {
                    return false;
                }
                i += 1;
                j += 1;
            }
        }
    }
    true
}

/// `true` when the sorted bus line lists never occupy a shared line from
/// two different core boundaries.
fn bus_agrees(a: &[PackedBusLine], b: &[PackedBusLine]) -> bool {
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].line.cmp(&b[j].line) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                if a[i].driver != b[j].driver {
                    return false;
                }
                i += 1;
                j += 1;
            }
        }
    }
    true
}

impl PackedPattern {
    /// Packs a sparse pattern. Lossless: [`PackedPattern::to_sparse`]
    /// recovers the input.
    ///
    /// # Panics
    ///
    /// Panics when a bus driver core id is ≥ [`MAX_PACKED_DRIVERS`]
    /// (driver ids are stored as one byte per line).
    #[must_use]
    pub fn from_sparse(pattern: &SiPattern) -> Self {
        let mut words = Vec::new();
        let mut bus = Vec::new();
        pack_care(pattern.care_bits(), &mut words);
        pack_bus(pattern.bus_lines(), &mut bus);
        PackedPattern { words, bus }
    }

    /// Unpacks back to the sparse representation.
    #[must_use]
    // Invariant: a packed pattern stores each terminal in exactly one plane, so the sparse rebuild cannot conflict.
    #[allow(clippy::expect_used)]
    pub fn to_sparse(&self) -> SiPattern {
        let mut care = Vec::with_capacity(self.as_packed_ref().care_count());
        let mut bus = Vec::with_capacity(self.bus.len());
        unpack_care(&self.words, &mut care);
        unpack_bus(&self.bus, &mut bus);
        SiPattern::new(care, bus).expect("packed planes cannot self-conflict")
    }

    /// The care/symbol words, ascending by word index.
    #[must_use]
    pub fn words(&self) -> &[PackedWord] {
        &self.words
    }

    /// The occupied bus lines, ascending by line.
    #[must_use]
    pub fn bus(&self) -> &[PackedBusLine] {
        &self.bus
    }

    /// A borrowed view usable with [`PackedAccumulator`].
    #[must_use]
    pub fn as_packed_ref(&self) -> PackedRef<'_> {
        PackedRef {
            words: &self.words,
            bus: &self.bus,
        }
    }

    /// `true` when the pattern has no care bits and no occupied lines.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.words.is_empty() && self.bus.is_empty()
    }

    /// Word-parallel equivalent of [`SiPattern::is_compatible`].
    #[must_use]
    pub fn is_compatible(&self, other: &PackedPattern) -> bool {
        words_agree(&self.words, &other.words) && bus_agrees(&self.bus, &other.bus)
    }

    /// Word-parallel equivalent of [`SiPattern::merged`]: the word-wise
    /// OR of both patterns.
    ///
    /// # Errors
    ///
    /// Exactly as the sparse version: the *lowest* conflicting terminal
    /// as [`PatternError::ConflictingCareBit`], or — when the care planes
    /// agree — the lowest conflicting bus line as
    /// [`PatternError::ConflictingBusLine`].
    pub fn merged(&self, other: &PackedPattern) -> Result<PackedPattern, PatternError> {
        let mut words = Vec::with_capacity(self.words.len() + other.words.len());
        let (mut i, mut j) = (0, 0);
        while i < self.words.len() && j < other.words.len() {
            let (a, b) = (&self.words[i], &other.words[j]);
            match a.index.cmp(&b.index) {
                std::cmp::Ordering::Less => {
                    words.push(*a);
                    i += 1;
                }
                std::cmp::Ordering::Greater => {
                    words.push(*b);
                    j += 1;
                }
                std::cmp::Ordering::Equal => {
                    let conflict = symbol_conflict(a, b);
                    if conflict != 0 {
                        let terminal = TerminalId::new(a.index * 64 + conflict.trailing_zeros());
                        return Err(PatternError::ConflictingCareBit { terminal });
                    }
                    words.push(PackedWord {
                        index: a.index,
                        care: a.care | b.care,
                        lo: a.lo | b.lo,
                        hi: a.hi | b.hi,
                    });
                    i += 1;
                    j += 1;
                }
            }
        }
        words.extend_from_slice(&self.words[i..]);
        words.extend_from_slice(&other.words[j..]);

        let mut bus = Vec::with_capacity(self.bus.len() + other.bus.len());
        let (mut i, mut j) = (0, 0);
        while i < self.bus.len() && j < other.bus.len() {
            let (a, b) = (self.bus[i], other.bus[j]);
            match a.line.cmp(&b.line) {
                std::cmp::Ordering::Less => {
                    bus.push(a);
                    i += 1;
                }
                std::cmp::Ordering::Greater => {
                    bus.push(b);
                    j += 1;
                }
                std::cmp::Ordering::Equal => {
                    if a.driver != b.driver {
                        return Err(PatternError::ConflictingBusLine { line: a.line });
                    }
                    bus.push(a);
                    i += 1;
                    j += 1;
                }
            }
        }
        bus.extend_from_slice(&self.bus[i..]);
        bus.extend_from_slice(&other.bus[j..]);

        Ok(PackedPattern { words, bus })
    }
}

impl From<&SiPattern> for PackedPattern {
    fn from(pattern: &SiPattern) -> Self {
        PackedPattern::from_sparse(pattern)
    }
}

/// Packed arena over a whole pattern set: every pattern's words live in
/// two shared flat buffers, addressed by per-pattern spans. Packing once
/// per input set avoids one small allocation pair per pattern in the
/// compaction hot path, and the clique-cover scan streams the arena
/// sequentially.
#[derive(Clone, Debug, Default)]
pub struct PackedSet {
    words: Vec<PackedWord>,
    bus: Vec<PackedBusLine>,
    spans: Vec<PackedSpan>,
    max_terminal: Option<u32>,
    max_driver: Option<u8>,
}

#[derive(Clone, Copy, Debug)]
struct PackedSpan {
    word_off: u32,
    word_len: u32,
    bus_off: u32,
    bus_len: u32,
}

impl PackedSet {
    /// Packs `patterns` (in order) into one arena.
    ///
    /// # Panics
    ///
    /// Panics when a bus driver core id is ≥ [`MAX_PACKED_DRIVERS`].
    #[must_use]
    pub fn build(patterns: &[SiPattern]) -> Self {
        let total_bus: usize = patterns.iter().map(|p| p.bus_lines().len()).sum();
        // One care bit occupies at most one word: a safe upper bound that
        // avoids regrowing the arena mid-pack.
        let total_care: usize = patterns.iter().map(|p| p.care_bits().len()).sum();
        let mut set = PackedSet {
            words: Vec::with_capacity(total_care),
            bus: Vec::with_capacity(total_bus),
            spans: Vec::with_capacity(patterns.len()),
            max_terminal: None,
            max_driver: None,
        };
        for pattern in patterns {
            let word_off = set.words.len() as u32;
            let bus_off = set.bus.len() as u32;
            pack_care(pattern.care_bits(), &mut set.words);
            pack_bus(pattern.bus_lines(), &mut set.bus);
            set.spans.push(PackedSpan {
                word_off,
                word_len: set.words.len() as u32 - word_off,
                bus_off,
                bus_len: set.bus.len() as u32 - bus_off,
            });
            if let Some(&(t, _)) = pattern.care_bits().last() {
                set.max_terminal = Some(set.max_terminal.map_or(t.raw(), |m| m.max(t.raw())));
            }
            for line in &set.bus[bus_off as usize..] {
                set.max_driver = Some(set.max_driver.map_or(line.driver, |m| m.max(line.driver)));
            }
        }
        set
    }

    /// Number of packed patterns.
    #[must_use]
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// `true` when the set holds no patterns.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Borrows pattern `i`.
    ///
    /// # Panics
    ///
    /// Panics when `i` is out of range.
    #[must_use]
    #[inline]
    pub fn get(&self, i: usize) -> PackedRef<'_> {
        let span = self.spans[i];
        PackedRef {
            words: &self.words[span.word_off as usize..(span.word_off + span.word_len) as usize],
            bus: &self.bus[span.bus_off as usize..(span.bus_off + span.bus_len) as usize],
        }
    }

    /// The largest care terminal id in the set, `None` when no pattern
    /// has care bits. Used to size accumulators and validate against a
    /// SOC's terminal space.
    #[must_use]
    pub fn max_terminal(&self) -> Option<u32> {
        self.max_terminal
    }

    /// The largest bus driver core id in the set, `None` when no pattern
    /// occupies a bus line. Used to validate against a SOC's core count.
    #[must_use]
    pub fn max_driver(&self) -> Option<u8> {
        self.max_driver
    }

    /// Number of `u64` words needed to cover every care terminal in the
    /// set.
    #[must_use]
    pub fn terminal_words(&self) -> usize {
        self.max_terminal
            .map_or(0, |t| words_for_terminals(t as usize + 1))
    }
}

/// Counters of the packed compatibility kernel, surfaced through
/// `soctam-exec` metrics and the CLI `--stats` flag.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct KernelStats {
    /// Care/symbol words compared across all compatibility checks.
    pub words_compared: u64,
    /// Checks rejected by the bus-driver prefilter before any
    /// care/symbol word was compared.
    pub fast_rejects: u64,
}

impl KernelStats {
    /// Adds `other`'s counters into `self`.
    pub fn merge(&mut self, other: KernelStats) {
        self.words_compared += other.words_compared;
        self.fast_rejects += other.fast_rejects;
    }
}

#[derive(Clone, Copy, Debug, Default)]
struct Plane {
    care: u64,
    lo: u64,
    hi: u64,
}

/// Dense clique accumulator for the greedy cover: full care/symbol
/// planes over the SOC's terminal words, a bus-occupancy plane and a
/// dense per-line driver table (`driver + 1`, `0` = free).
///
/// Between cliques only the *touched* terminal words are cleared, so a
/// pass over `N` patterns costs `O(Σ pattern words)` regardless of the
/// SOC size.
///
/// # Example
///
/// ```
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// use soctam_model::TerminalId;
/// use soctam_patterns::{PackedAccumulator, PackedPattern, SiPattern, Symbol};
///
/// let a = PackedPattern::from_sparse(&SiPattern::new(
///     vec![(TerminalId::new(0), Symbol::Rise)], vec![])?);
/// let b = PackedPattern::from_sparse(&SiPattern::new(
///     vec![(TerminalId::new(0), Symbol::Fall)], vec![])?);
/// let mut acc = PackedAccumulator::new(1);
/// acc.begin_clique();
/// acc.absorb(a.as_packed_ref());
/// assert!(!acc.is_compatible(b.as_packed_ref()));
/// assert_eq!(acc.extract().to_sparse(), a.to_sparse());
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug)]
pub struct PackedAccumulator {
    planes: Vec<Plane>,
    touched: Vec<u32>,
    bus_occupied: [u64; BUS_WORDS],
    line_driver: [u16; BUS_LINES],
    stats: KernelStats,
}

impl PackedAccumulator {
    /// Creates an accumulator covering `terminal_words` words (use
    /// [`words_for_terminals`] of the SOC's terminal count).
    #[must_use]
    pub fn new(terminal_words: usize) -> Self {
        PackedAccumulator {
            planes: vec![Plane::default(); terminal_words],
            touched: Vec::new(),
            bus_occupied: [0; BUS_WORDS],
            line_driver: [0; BUS_LINES],
            stats: KernelStats::default(),
        }
    }

    /// Clears the accumulated clique (touched words only).
    pub fn begin_clique(&mut self) {
        for &index in &self.touched {
            self.planes[index as usize] = Plane::default();
        }
        self.touched.clear();
        if self.bus_occupied != [0; BUS_WORDS] {
            self.bus_occupied = [0; BUS_WORDS];
            self.line_driver = [0; BUS_LINES];
        }
    }

    /// `true` when `p` is compatible with the accumulated clique.
    ///
    /// The bus postfix is checked *first*: on random SI sets most
    /// incompatibilities are driver conflicts, so the common reject path
    /// never touches the care planes ([`KernelStats::fast_rejects`]).
    ///
    /// # Panics
    ///
    /// Panics when `p` references a word beyond the accumulator's
    /// terminal space.
    #[must_use]
    #[inline]
    pub fn is_compatible(&mut self, p: PackedRef<'_>) -> bool {
        for pl in p.bus {
            let stored = self.line_driver[pl.line as usize];
            if stored != 0 && stored != u16::from(pl.driver) + 1 {
                self.stats.fast_rejects += 1;
                return false;
            }
        }
        let mut compared = 0u64;
        for w in p.words {
            compared += 1;
            let plane = self.planes[w.index as usize];
            if conflict_planes(w.care, w.lo, w.hi, plane.care, plane.lo, plane.hi) != 0 {
                self.stats.words_compared += compared;
                return false;
            }
        }
        self.stats.words_compared += compared;
        true
    }

    /// Merges `p` into the clique (word-wise OR). The caller must have
    /// established compatibility.
    ///
    /// # Panics
    ///
    /// Panics when `p` references a word beyond the accumulator's
    /// terminal space.
    #[inline]
    pub fn absorb(&mut self, p: PackedRef<'_>) {
        for w in p.words {
            let plane = &mut self.planes[w.index as usize];
            if plane.care == 0 {
                self.touched.push(w.index);
            }
            plane.care |= w.care;
            plane.lo |= w.lo;
            plane.hi |= w.hi;
        }
        for pl in p.bus {
            self.bus_occupied[pl.line as usize / 64] |= 1 << (pl.line % 64);
            self.line_driver[pl.line as usize] = u16::from(pl.driver) + 1;
        }
    }

    /// Snapshots the accumulated clique as a standalone pattern.
    pub fn extract(&mut self) -> PackedPattern {
        self.touched.sort_unstable();
        let words = self
            .touched
            .iter()
            .map(|&index| {
                let plane = self.planes[index as usize];
                PackedWord {
                    index,
                    care: plane.care,
                    lo: plane.lo,
                    hi: plane.hi,
                }
            })
            .collect();
        let mut bus = Vec::new();
        for (word, &occupied) in self.bus_occupied.iter().enumerate() {
            let mut mask = occupied;
            while mask != 0 {
                let line = word as u32 * 64 + mask.trailing_zeros();
                bus.push(PackedBusLine {
                    line: line as u8,
                    driver: (self.line_driver[line as usize] - 1) as u8,
                });
                mask &= mask - 1;
            }
        }
        PackedPattern { words, bus }
    }

    /// The kernel counters accumulated so far.
    #[must_use]
    pub fn stats(&self) -> KernelStats {
        self.stats
    }

    /// Returns and resets the kernel counters.
    pub fn take_stats(&mut self) -> KernelStats {
        std::mem::take(&mut self.stats)
    }
}

/// Number of driver-code bit-planes carried per pattern during bus
/// recoding. Driver ids fit one byte, so a line can see at most 256
/// distinct drivers and eight planes always suffice.
const MAX_CODE_PLANES: usize = 8;

/// The per-line driver recoding of a visited subset: every pattern's
/// bus postfix as flattened `(slot, code)` pairs, plus the inverse maps
/// (`slot → line`, `(slot, code) → driver`) used to decode cliques.
struct RecodedBus {
    /// `(slot, code)` pairs of all visited patterns, concatenated.
    pairs: Vec<(u8, u8)>,
    /// Pair range of the `k`-th visited pattern:
    /// `pairs[offsets[k]..offsets[k + 1]]`.
    offsets: Vec<u32>,
    line_of_slot: Vec<u8>,
    driver_of_code: Vec<Vec<u8>>,
    /// Bit width of the largest driver code (≥ 1).
    plane_bits: usize,
}

/// Recodes the bus postfixes of `visit` for the plane-based cover.
///
/// Each distinct line gets a *slot* (dense index, first-encounter
/// order), and each line's drivers get dense codes in first-encounter
/// order. The map is injective per line, so "same line, different
/// driver" is exactly "same slot, different code" and driver equality
/// against a whole clique population can be tested with XORs over
/// per-slot code bit-planes.
///
/// Returns `None` when the subset occupies more than 64 distinct lines
/// (the caller falls back to the accumulator cover).
fn recode_bus(set: &PackedSet, visit: &[u32]) -> Option<RecodedBus> {
    let mut line_slot = [u8::MAX; BUS_LINES];
    let mut rec = RecodedBus {
        pairs: Vec::new(),
        offsets: Vec::with_capacity(visit.len() + 1),
        line_of_slot: Vec::new(),
        driver_of_code: Vec::new(),
        plane_bits: 1,
    };
    let mut max_codes = 1usize;
    rec.offsets.push(0);
    for &i in visit {
        for pl in set.get(i as usize).bus {
            let mut slot = line_slot[pl.line as usize];
            if slot == u8::MAX {
                if rec.line_of_slot.len() == 64 {
                    return None;
                }
                slot = rec.line_of_slot.len() as u8;
                line_slot[pl.line as usize] = slot;
                rec.line_of_slot.push(pl.line);
                rec.driver_of_code.push(Vec::new());
            }
            let codes = &mut rec.driver_of_code[slot as usize];
            let code = match codes.iter().position(|&d| d == pl.driver) {
                Some(code) => code,
                None => {
                    codes.push(pl.driver);
                    max_codes = max_codes.max(codes.len());
                    codes.len() - 1
                }
            };
            rec.pairs.push((slot, code as u8));
        }
        rec.offsets.push(rec.pairs.len() as u32);
    }
    rec.plane_bits = (usize::BITS as usize - (max_codes - 1).leading_zeros() as usize).max(1);
    Some(rec)
}

/// Greedy first-fit clique cover over `visit` (indices into `set`,
/// already in the desired visit order): each pattern joins the
/// lowest-index compatible clique or opens a new one. `terminal_words`
/// sizes the per-clique planes and must cover every care terminal of
/// the set (use [`words_for_terminals`] of the SOC's terminal count).
///
/// This single-pass formulation is *provably identical* to the epoch
/// formulation ("each round, sweep the survivors and absorb whatever is
/// compatible with the accumulated clique"): when pattern `p` is tested
/// against clique `j`, the clique holds exactly the patterns before `p`
/// in visit order that were assigned to `j` — precisely the accumulated
/// state the epoch formulation tests in its `j`-th round. Assignments,
/// check counts and the resulting cliques coincide; what changes is
/// memory behaviour. Instead of re-streaming the whole pattern arena
/// once per clique, each pattern scans a compact clique-state array
/// that stays cache-resident, which is worth ~5× on 10^4-pattern sets.
///
/// The bus prefilter runs on per-line driver-code planes built by the
/// internal bus recoding; subsets spanning more than 64 distinct bus lines
/// take the [`PackedAccumulator`] path instead (identical output, per
/// the same equivalence argument).
///
/// # Panics
///
/// Panics when a pattern references a care word at or beyond
/// `terminal_words`.
#[must_use]
pub fn first_fit_cover(
    set: &PackedSet,
    visit: &[u32],
    terminal_words: usize,
) -> (Vec<PackedPattern>, KernelStats) {
    match recode_bus(set, visit) {
        Some(rec) => match rec.plane_bits {
            1 => cover_with_planes::<1>(set, visit, &rec, terminal_words),
            2 => cover_with_planes::<2>(set, visit, &rec, terminal_words),
            3 => cover_with_planes::<3>(set, visit, &rec, terminal_words),
            4 => cover_with_planes::<4>(set, visit, &rec, terminal_words),
            5 => cover_with_planes::<5>(set, visit, &rec, terminal_words),
            6 => cover_with_planes::<6>(set, visit, &rec, terminal_words),
            _ => cover_with_planes::<MAX_CODE_PLANES>(set, visit, &rec, terminal_words),
        },
        None => cover_with_accumulator(set, visit, terminal_words),
    }
}

/// The fast path of [`first_fit_cover`], monomorphized over the driver
/// code width `P`.
///
/// Clique bus state is kept *transposed*: for every line slot, one
/// bitmask over cliques marking who occupies the line (`occ`) plus `P`
/// bitmasks holding each occupant's driver-code bits. Screening a
/// pattern against **all** cliques at once then costs
/// `O(bus lines × clique words)` — `conflict = occ & (code_plane XOR
/// broadcast(code bit))` accumulated over the pattern's pairs — instead
/// of one probe per clique, and the candidate cliques surviving the
/// bus prefilter are walked in index order for the care/symbol word
/// check. Clique care/symbol planes live in one flat buffer with stride
/// `terminal_words`.
fn cover_with_planes<const P: usize>(
    set: &PackedSet,
    visit: &[u32],
    rec: &RecodedBus,
    terminal_words: usize,
) -> (Vec<PackedPattern>, KernelStats) {
    let nslots = rec.line_of_slot.len();
    // Capacity of the clique bitmasks, in 64-clique words; doubled (with
    // a re-layout) whenever the clique count hits the ceiling.
    let mut cap = 4usize;
    let mut occ_cliques = vec![0u64; nslots * cap];
    let mut code_cliques = vec![0u64; nslots * P * cap];
    let mut conflict = vec![0u64; cap];
    let mut ncliques = 0usize;
    let mut cplanes: Vec<Plane> = Vec::new();
    let mut stats = KernelStats::default();

    for (k, &i) in visit.iter().enumerate() {
        let words = set.get(i as usize).words;
        let pairs = &rec.pairs[rec.offsets[k] as usize..rec.offsets[k + 1] as usize];
        let used = ncliques.div_ceil(64);

        // Bus prefilter: one conflict bit per existing clique.
        conflict[..used].fill(0);
        for &(slot, code) in pairs {
            let occ_base = slot as usize * cap;
            let code_base = slot as usize * P * cap;
            for (w, out) in conflict[..used].iter_mut().enumerate() {
                let mut diff = 0u64;
                for bit in 0..P {
                    let broadcast = 0u64.wrapping_sub(u64::from((code >> bit) & 1));
                    diff |= code_cliques[code_base + bit * cap + w] ^ broadcast;
                }
                *out |= occ_cliques[occ_base + w] & diff;
            }
        }

        // Walk the bus-compatible cliques in index order; first fit wins.
        let mut placed = None;
        let mut rejects = 0u64;
        'scan: for (w, &conflict_word) in conflict[..used].iter().enumerate() {
            let valid = if (w + 1) * 64 <= ncliques {
                u64::MAX
            } else {
                (1u64 << (ncliques - w * 64)) - 1
            };
            let mut candidates = !conflict_word & valid;
            while candidates != 0 {
                let bit = candidates.trailing_zeros();
                let j = w * 64 + bit as usize;
                let base = j * terminal_words;
                let mut compared = 0u64;
                let mut compatible = true;
                for pw in words {
                    compared += 1;
                    let plane = cplanes[base + pw.index as usize];
                    if conflict_planes(pw.care, pw.lo, pw.hi, plane.care, plane.lo, plane.hi) != 0 {
                        compatible = false;
                        break;
                    }
                }
                stats.words_compared += compared;
                if compatible {
                    rejects += u64::from((conflict_word & ((1u64 << bit) - 1)).count_ones());
                    placed = Some(j);
                    break 'scan;
                }
                candidates &= candidates - 1;
            }
            rejects += u64::from(conflict_word.count_ones());
        }
        stats.fast_rejects += rejects;

        let j = match placed {
            Some(j) => {
                absorb_words(
                    &mut cplanes[j * terminal_words..(j + 1) * terminal_words],
                    words,
                );
                j
            }
            None => {
                let j = ncliques;
                if j == cap * 64 {
                    // Double the clique-word capacity, re-laying out the
                    // per-slot rows.
                    let new_cap = cap * 2;
                    let mut new_occ = vec![0u64; nslots * new_cap];
                    let mut new_code = vec![0u64; nslots * P * new_cap];
                    for s in 0..nslots {
                        new_occ[s * new_cap..s * new_cap + cap]
                            .copy_from_slice(&occ_cliques[s * cap..(s + 1) * cap]);
                    }
                    for row in 0..nslots * P {
                        new_code[row * new_cap..row * new_cap + cap]
                            .copy_from_slice(&code_cliques[row * cap..(row + 1) * cap]);
                    }
                    occ_cliques = new_occ;
                    code_cliques = new_code;
                    conflict = vec![0u64; new_cap];
                    cap = new_cap;
                }
                ncliques += 1;
                let base = cplanes.len();
                cplanes.resize(base + terminal_words, Plane::default());
                absorb_words(&mut cplanes[base..], words);
                j
            }
        };
        // Record the pattern's bus pairs against clique `j`. Re-setting
        // bits a clique already holds is idempotent — compatibility
        // guarantees the codes agree.
        let (word, mask) = (j / 64, 1u64 << (j % 64));
        for &(slot, code) in pairs {
            occ_cliques[slot as usize * cap + word] |= mask;
            for bit in 0..P {
                if (code >> bit) & 1 != 0 {
                    code_cliques[(slot as usize * P + bit) * cap + word] |= mask;
                }
            }
        }
    }

    let patterns = (0..ncliques)
        .map(|j| {
            let base = j * terminal_words;
            let words = cplanes[base..base + terminal_words]
                .iter()
                .enumerate()
                .filter(|(_, plane)| plane.care != 0)
                .map(|(index, plane)| PackedWord {
                    index: index as u32,
                    care: plane.care,
                    lo: plane.lo,
                    hi: plane.hi,
                })
                .collect();
            let (word, mask) = (j / 64, 1u64 << (j % 64));
            let mut bus = Vec::new();
            for slot in 0..nslots {
                if occ_cliques[slot * cap + word] & mask == 0 {
                    continue;
                }
                let mut code = 0usize;
                for bit in 0..P {
                    if code_cliques[(slot * P + bit) * cap + word] & mask != 0 {
                        code |= 1 << bit;
                    }
                }
                bus.push(PackedBusLine {
                    line: rec.line_of_slot[slot],
                    driver: rec.driver_of_code[slot][code],
                });
            }
            bus.sort_unstable_by_key(|pl| pl.line);
            PackedPattern { words, bus }
        })
        .collect();
    (patterns, stats)
}

/// ORs `words` into a clique's care/symbol planes.
#[inline]
fn absorb_words(planes: &mut [Plane], words: &[PackedWord]) {
    for w in words {
        let plane = &mut planes[w.index as usize];
        plane.care |= w.care;
        plane.lo |= w.lo;
        plane.hi |= w.hi;
    }
}

/// The general-case path of [`first_fit_cover`] (more than 64 distinct
/// bus lines in the subset): the epoch-based sweep over a
/// [`PackedAccumulator`], whose dense per-line driver table handles the
/// full 256-line space.
// Invariant: the loop only runs while `alive` is non-empty, so the seed draw always succeeds.
#[allow(clippy::expect_used)]
fn cover_with_accumulator(
    set: &PackedSet,
    visit: &[u32],
    terminal_words: usize,
) -> (Vec<PackedPattern>, KernelStats) {
    let mut alive = visit.to_vec();
    let mut accumulator = PackedAccumulator::new(terminal_words);
    let mut rejected: Vec<u32> = Vec::new();
    let mut result = Vec::new();
    while !alive.is_empty() {
        accumulator.begin_clique();
        let mut iter = alive.iter();
        let &seed = iter.next().expect("alive is non-empty");
        accumulator.absorb(set.get(seed as usize));
        for &i in iter {
            let p = set.get(i as usize);
            if accumulator.is_compatible(p) {
                accumulator.absorb(p);
            } else {
                rejected.push(i);
            }
        }
        result.push(accumulator.extract());
        std::mem::swap(&mut alive, &mut rejected);
        rejected.clear();
    }
    (result, accumulator.take_stats())
}

/// Word-aligned ownership map of a SOC's terminal space: for every
/// terminal word, the cores owning bits of that word and their in-word
/// masks. Built once per SOC, it turns care-core extraction (hypergraph
/// construction, pattern bucketing) into a few AND ops per pattern word
/// plus one bit per bus line, written into a care-core *bitset* of
/// [`PackedLayout::core_words`] words.
#[derive(Clone, Debug)]
pub struct PackedLayout {
    /// `owners[word_start[w]..word_start[w + 1]]` are the `(core, mask)`
    /// pairs of terminal word `w`, ascending by core.
    owners: Vec<(u32, u64)>,
    word_start: Vec<u32>,
    /// Union of the masks of each terminal word: the bits any core owns.
    word_mask: Vec<u64>,
    cores: usize,
}

impl PackedLayout {
    /// Builds the layout for `soc`.
    #[must_use]
    pub fn new(soc: &Soc) -> Self {
        let words = words_for_terminals(soc.total_wocs() as usize);
        let mut word_owners: Vec<Vec<(u32, u64)>> = vec![Vec::new(); words];
        for core in soc.core_ids() {
            let range = soc.terminal_range(core);
            let mut t = range.start;
            while t < range.end {
                let upto = ((t / 64 + 1) * 64).min(range.end);
                let len = upto - t;
                let mask = if len == 64 {
                    u64::MAX
                } else {
                    ((1u64 << len) - 1) << (t % 64)
                };
                word_owners[(t / 64) as usize].push((core.raw(), mask));
                t = upto;
            }
        }
        let mut layout = PackedLayout {
            owners: Vec::new(),
            word_start: Vec::with_capacity(words + 1),
            word_mask: Vec::with_capacity(words),
            cores: soc.num_cores(),
        };
        for owners in word_owners {
            layout.word_start.push(layout.owners.len() as u32);
            layout
                .word_mask
                .push(owners.iter().fold(0, |acc, &(_, mask)| acc | mask));
            layout.owners.extend(owners);
        }
        layout.word_start.push(layout.owners.len() as u32);
        layout
    }

    /// Words per care-core bitset: ⌈cores / 64⌉. One word covers every
    /// embedded benchmark; larger SOCs take more words through the same
    /// code path.
    #[must_use]
    pub fn core_words(&self) -> usize {
        self.cores.div_ceil(64)
    }

    /// Writes the *care cores* of `p` into `bits` as a bitset (bit
    /// `c % 64` of word `c / 64` set ⇔ core `c` is a care core): owners
    /// of all care terminals plus all bus driver cores — exactly the set
    /// [`SiPattern::care_cores`] lists. `bits` is overwritten.
    ///
    /// # Panics
    ///
    /// Panics if `bits` is not [`PackedLayout::core_words`] long, or if
    /// `p` has a care bit outside the SOC's terminal space or a bus
    /// driver outside its cores.
    // Invariant: out-of-range terminals and drivers are a documented `# Panics` contract of this method.
    #[allow(clippy::expect_used)]
    pub fn care_core_bits(&self, p: PackedRef<'_>, bits: &mut [u64]) {
        assert_eq!(
            bits.len(),
            self.core_words(),
            "one bitset word per 64 cores"
        );
        bits.fill(0);
        for w in p.words {
            let word = w.index as usize;
            let in_range = self.word_mask.get(word).expect("care terminal in range");
            assert!(w.care & !in_range == 0, "care terminal in range");
            let owners =
                &self.owners[self.word_start[word] as usize..self.word_start[word + 1] as usize];
            for &(core, mask) in owners {
                if w.care & mask != 0 {
                    bits[(core / 64) as usize] |= 1 << (core % 64);
                }
            }
        }
        for pl in p.bus {
            let driver = usize::from(pl.driver);
            // Checked before the shift: a driver past the last core would
            // otherwise set the bit of a core the SOC does not have.
            assert!(driver < self.cores, "bus driver in range");
            bits[driver / 64] |= 1 << (driver % 64);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(i: u32) -> TerminalId {
        TerminalId::new(i)
    }

    fn sparse(care: &[(u32, Symbol)], bus: &[(u8, u32)]) -> SiPattern {
        SiPattern::new(
            care.iter().map(|&(i, s)| (t(i), s)).collect(),
            bus.iter()
                .map(|&(l, d)| (BusLineId::new(l), CoreId::new(d)))
                .collect(),
        )
        .expect("valid pattern")
    }

    #[test]
    fn roundtrip_is_lossless() {
        let p = sparse(
            &[
                (0, Symbol::Rise),
                (63, Symbol::Zero),
                (64, Symbol::Fall),
                (200, Symbol::One),
            ],
            &[(0, 3), (31, 17), (64, 255)],
        );
        assert_eq!(PackedPattern::from_sparse(&p).to_sparse(), p);
        assert_eq!(
            PackedPattern::from_sparse(&SiPattern::default()).to_sparse(),
            SiPattern::default()
        );
    }

    #[test]
    fn packing_is_word_sparse() {
        let p = sparse(&[(0, Symbol::Rise), (640, Symbol::Fall)], &[]);
        let packed = PackedPattern::from_sparse(&p);
        assert_eq!(packed.words().len(), 2);
        assert_eq!(packed.words()[0].index, 0);
        assert_eq!(packed.words()[1].index, 10);
    }

    #[test]
    fn compatibility_matches_sparse() {
        let cases = [
            (
                sparse(&[(5, Symbol::Rise)], &[]),
                sparse(&[(5, Symbol::Rise)], &[]),
            ),
            (
                sparse(&[(5, Symbol::Rise)], &[]),
                sparse(&[(5, Symbol::Fall)], &[]),
            ),
            (
                sparse(&[(5, Symbol::Zero)], &[]),
                sparse(&[(6, Symbol::One)], &[]),
            ),
            (sparse(&[], &[(3, 1)]), sparse(&[], &[(3, 1)])),
            (sparse(&[], &[(3, 1)]), sparse(&[], &[(3, 2)])),
            (
                sparse(&[(70, Symbol::One)], &[(3, 9)]),
                sparse(&[(70, Symbol::Rise)], &[(3, 9)]),
            ),
        ];
        for (a, b) in &cases {
            let (pa, pb) = (PackedPattern::from_sparse(a), PackedPattern::from_sparse(b));
            assert_eq!(pa.is_compatible(&pb), a.is_compatible(b), "{a:?} vs {b:?}");
            assert_eq!(pb.is_compatible(&pa), a.is_compatible(b));
        }
    }

    #[test]
    fn merged_matches_sparse_including_error() {
        let a = sparse(&[(1, Symbol::Rise), (100, Symbol::Zero)], &[(2, 4)]);
        let b = sparse(&[(2, Symbol::Fall)], &[(7, 1)]);
        let merged = PackedPattern::from_sparse(&a)
            .merged(&PackedPattern::from_sparse(&b))
            .expect("compatible");
        assert_eq!(merged.to_sparse(), a.merged(&b).expect("compatible"));

        let c = sparse(&[(1, Symbol::Fall), (100, Symbol::One)], &[]);
        let sparse_err = a.merged(&c).unwrap_err();
        let packed_err = PackedPattern::from_sparse(&a)
            .merged(&PackedPattern::from_sparse(&c))
            .unwrap_err();
        assert_eq!(format!("{packed_err:?}"), format!("{sparse_err:?}"));

        let d = sparse(&[], &[(2, 5)]);
        let sparse_err = a.merged(&d).unwrap_err();
        let packed_err = PackedPattern::from_sparse(&a)
            .merged(&PackedPattern::from_sparse(&d))
            .unwrap_err();
        assert_eq!(format!("{packed_err:?}"), format!("{sparse_err:?}"));
    }

    #[test]
    fn set_arena_matches_standalone_packing() {
        let patterns = vec![
            sparse(&[(0, Symbol::Rise)], &[(0, 1)]),
            sparse(&[], &[]),
            sparse(&[(64, Symbol::Fall), (65, Symbol::One)], &[]),
        ];
        let set = PackedSet::build(&patterns);
        assert_eq!(set.len(), 3);
        assert_eq!(set.max_terminal(), Some(65));
        assert_eq!(set.terminal_words(), 2);
        assert_eq!(set.max_driver(), Some(1));
        assert_eq!(PackedSet::build(&patterns[1..]).max_driver(), None);
        for (i, p) in patterns.iter().enumerate() {
            let packed = PackedPattern::from_sparse(p);
            assert_eq!(set.get(i).words, packed.words());
            assert_eq!(set.get(i).bus, packed.bus());
            assert_eq!(set.get(i), packed.as_packed_ref());
        }
        assert_ne!(set.get(0), set.get(2));
    }

    #[test]
    fn accumulator_agrees_with_pairwise_merge() {
        let a = sparse(&[(3, Symbol::Rise), (90, Symbol::Zero)], &[(1, 2)]);
        let b = sparse(&[(4, Symbol::Fall)], &[(1, 2), (5, 3)]);
        let c = sparse(&[(3, Symbol::Fall)], &[]); // symbol conflict with a
        let d = sparse(&[], &[(5, 4)]); // driver conflict with b

        let mut acc = PackedAccumulator::new(2);
        acc.begin_clique();
        acc.absorb(PackedPattern::from_sparse(&a).as_packed_ref());
        assert!(acc.is_compatible(PackedPattern::from_sparse(&b).as_packed_ref()));
        acc.absorb(PackedPattern::from_sparse(&b).as_packed_ref());
        assert!(!acc.is_compatible(PackedPattern::from_sparse(&c).as_packed_ref()));
        assert!(!acc.is_compatible(PackedPattern::from_sparse(&d).as_packed_ref()));

        let clique = acc.extract().to_sparse();
        assert_eq!(clique, a.merged(&b).expect("compatible"));

        let stats = acc.take_stats();
        assert!(stats.words_compared > 0);
        assert_eq!(stats.fast_rejects, 1); // only d rejects at the bus stage
        assert_eq!(acc.stats(), KernelStats::default());
    }

    #[test]
    fn accumulator_reset_clears_state() {
        let a = sparse(&[(3, Symbol::Rise)], &[(1, 2)]);
        let conflicting = sparse(&[(3, Symbol::Fall)], &[(1, 3)]);
        let mut acc = PackedAccumulator::new(1);
        acc.begin_clique();
        acc.absorb(PackedPattern::from_sparse(&a).as_packed_ref());
        assert!(!acc.is_compatible(PackedPattern::from_sparse(&conflicting).as_packed_ref()));
        acc.begin_clique();
        assert!(acc.is_compatible(PackedPattern::from_sparse(&conflicting).as_packed_ref()));
    }

    #[test]
    #[should_panic(expected = "packed driver-id limit")]
    fn oversized_driver_id_panics() {
        let p = SiPattern::new(vec![], vec![(BusLineId::new(0), CoreId::new(256))])
            .expect("valid pattern");
        let _ = PackedPattern::from_sparse(&p);
    }

    /// The cores a care-core bitset holds, ascending.
    fn bitset_cores(bits: &[u64]) -> Vec<CoreId> {
        (0..bits.len() * 64)
            .filter(|&c| bits[c / 64] >> (c % 64) & 1 != 0)
            .map(|c| CoreId::new(c as u32))
            .collect()
    }

    fn assert_bitsets_match_sparse(soc: &Soc, patterns: &[SiPattern]) {
        let layout = PackedLayout::new(soc);
        let set = PackedSet::build(patterns);
        let mut bits = vec![0; layout.core_words()];
        for (i, p) in patterns.iter().enumerate() {
            layout.care_core_bits(set.get(i), &mut bits);
            assert_eq!(
                bitset_cores(&bits),
                p.care_cores(soc),
                "{} pattern {i}",
                soc.name()
            );
        }
    }

    #[test]
    fn layout_care_cores_match_sparse() {
        use soctam_model::CoreSpec;
        let soc = Soc::new(
            "t",
            vec![
                CoreSpec::new("a", 1, 70, 0, vec![], 1).expect("valid"),
                CoreSpec::new("b", 1, 3, 0, vec![], 1).expect("valid"),
            ],
        )
        .expect("valid soc");
        let p = sparse(&[(69, Symbol::Rise), (70, Symbol::Fall)], &[(2, 0)]);
        assert_bitsets_match_sparse(&soc, &[p, sparse(&[], &[]), sparse(&[], &[(9, 1)])]);
    }

    #[test]
    fn care_core_bitsets_match_sparse_on_every_benchmark() {
        use crate::{RandomPatternConfig, SiPatternSet};
        for bench in soctam_model::Benchmark::ALL {
            let soc = bench.soc();
            let raw = SiPatternSet::random(&soc, &RandomPatternConfig::new(500).with_seed(5))
                .expect("valid set");
            assert_bitsets_match_sparse(&soc, raw.as_slice());
        }
    }

    #[test]
    fn care_core_bitsets_span_words_above_64_cores() {
        use crate::{RandomPatternConfig, SiPatternSet};
        use soctam_model::synth::{synth_soc, SynthConfig};
        let soc = synth_soc(&SynthConfig::new(100).with_seed(3)).expect("valid soc");
        assert_eq!(PackedLayout::new(&soc).core_words(), 2);
        let raw = SiPatternSet::random(&soc, &RandomPatternConfig::new(2_000).with_seed(8))
            .expect("valid set");
        assert!(raw
            .iter()
            .any(|p| p.care_cores(&soc).iter().any(|c| c.index() >= 64)));
        assert_bitsets_match_sparse(&soc, raw.as_slice());
    }

    #[test]
    #[should_panic(expected = "bus driver in range")]
    fn care_core_bits_reject_a_driver_past_the_last_core() {
        let soc = soctam_model::Benchmark::D695.soc();
        let layout = PackedLayout::new(&soc);
        let p = PackedPattern::from_sparse(&sparse(&[], &[(1, 40)]));
        layout.care_core_bits(p.as_packed_ref(), &mut [0]);
    }

    /// First-fit cover built from pairwise [`PackedPattern::merged`]
    /// calls only — the semantic reference both cover paths must match.
    fn reference_cover(set: &PackedSet, visit: &[u32]) -> Vec<PackedPattern> {
        let mut cliques: Vec<PackedPattern> = Vec::new();
        for &i in visit {
            let p = set.get(i as usize);
            let p = PackedPattern {
                words: p.words.to_vec(),
                bus: p.bus.to_vec(),
            };
            let mut placed = false;
            for clique in cliques.iter_mut() {
                if let Ok(merged) = clique.merged(&p) {
                    *clique = merged;
                    placed = true;
                    break;
                }
            }
            if !placed {
                cliques.push(p);
            }
        }
        cliques
    }

    #[test]
    fn first_fit_cover_matches_pairwise_reference() {
        use crate::{RandomPatternConfig, SiPatternSet};
        let soc = soctam_model::Benchmark::D695.soc();
        let raw = SiPatternSet::random(&soc, &RandomPatternConfig::new(400).with_seed(11))
            .expect("valid set");
        let set = PackedSet::build(raw.as_slice());
        let visit: Vec<u32> = (0..raw.len() as u32).collect();
        let words = words_for_terminals(soc.total_wocs() as usize);
        let (cover, stats) = first_fit_cover(&set, &visit, words);
        assert_eq!(cover, reference_cover(&set, &visit));
        assert!(cover.len() < raw.len());
        assert!(stats.words_compared > 0);
        assert!(stats.fast_rejects > 0);
    }

    #[test]
    fn first_fit_cover_falls_back_beyond_64_lines() {
        // 70 distinct lines force the accumulator path; its output must
        // still match the pairwise reference.
        let patterns: Vec<SiPattern> = (0..140u32)
            .map(|i| {
                let symbol = if i % 2 == 0 {
                    Symbol::Rise
                } else {
                    Symbol::Fall
                };
                sparse(&[(i % 40, symbol)], &[((i % 70) as u8, i / 70)])
            })
            .collect();
        let set = PackedSet::build(&patterns);
        let visit: Vec<u32> = (0..patterns.len() as u32).collect();
        let (cover, _) = first_fit_cover(&set, &visit, 1);
        assert_eq!(cover, reference_cover(&set, &visit));
        assert!(cover.len() > 1);
    }

    #[test]
    fn first_fit_cover_handles_empty_and_busless_sets() {
        let (cover, stats) = first_fit_cover(&PackedSet::default(), &[], 4);
        assert!(cover.is_empty());
        assert_eq!(stats, KernelStats::default());

        // No bus lines at all: the prefilter planes are degenerate and
        // every check falls through to the care/symbol words.
        let patterns = vec![
            sparse(&[(0, Symbol::Rise)], &[]),
            sparse(&[(0, Symbol::Fall)], &[]),
            sparse(&[(1, Symbol::One)], &[]),
        ];
        let set = PackedSet::build(&patterns);
        let (cover, _) = first_fit_cover(&set, &[0, 1, 2], 1);
        assert_eq!(cover, reference_cover(&set, &[0, 1, 2]));
        assert_eq!(cover.len(), 2);
    }

    #[test]
    fn kernel_stats_merge_adds() {
        let mut a = KernelStats {
            words_compared: 3,
            fast_rejects: 1,
        };
        a.merge(KernelStats {
            words_compared: 4,
            fast_rejects: 2,
        });
        assert_eq!(
            a,
            KernelStats {
                words_compared: 7,
                fast_rejects: 3,
            }
        );
    }
}
