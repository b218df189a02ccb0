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
//! The bus postfix packs into a line byte and a 16-bit driver core id
//! per occupied line ([`PackedBusLine`]). On random SI sets most
//! incompatibilities are bus-driver conflicts ("a shared line driven
//! from two different core boundaries"), so the greedy cover
//! ([`first_fit_cover`]) checks the bus *first*, against every open
//! clique at once, and the common reject path never touches the symbol
//! planes — this prefilter is what [`KernelStats::fast_rejects`]
//! counts.
//!
//! The conversion to and from [`SiPattern`] is lossless;
//! [`PackedPattern::to_sparse`] ∘ [`PackedPattern::from_sparse`] is the
//! identity (pinned by the `proptest` differential suite).

use soctam_model::{BusLineId, CoreId, Diagnostics, Soc, TerminalId};

use crate::{PatternError, SiPattern, SiPatternSet, Symbol};

/// Exclusive upper bound on driver core ids representable in the packed
/// bus postfix (driver ids are stored as two bytes per line).
pub const MAX_PACKED_DRIVERS: u32 = 1 << 16;

/// Checks that every core of `soc` fits the packed driver-id space, so
/// that any pattern valid for `soc` packs.
///
/// # Errors
///
/// [`PatternError::TooManyCores`] when `soc` has more than
/// [`MAX_PACKED_DRIVERS`] cores.
pub fn check_packable(soc: &Soc) -> Result<(), PatternError> {
    if soc.num_cores() > MAX_PACKED_DRIVERS as usize {
        return Err(PatternError::TooManyCores {
            cores: soc.num_cores(),
            limit: MAX_PACKED_DRIVERS,
        });
    }
    Ok(())
}

/// Number of bus lines addressable by the packed postfix.
const BUS_LINES: usize = 256;

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
/// core from whose boundary it is driven.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub struct PackedBusLine {
    /// The occupied bus line.
    pub line: u8,
    /// The driver core id (must be < [`MAX_PACKED_DRIVERS`]).
    pub driver: u16,
}

/// Conflict mask of two aligned care/symbol word triples: a bit is set
/// where both patterns care and their symbols disagree.
///
/// This is the **single source of the terminal-compatibility
/// semantics** — the greedy clique cover, the pairwise
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
    /// Unpacks back to the sparse representation.
    #[must_use]
    // Invariant: a packed pattern stores each terminal in exactly one plane, so the sparse rebuild cannot conflict.
    #[allow(clippy::expect_used)]
    pub(crate) fn to_sparse(self) -> SiPattern {
        let mut care = Vec::with_capacity(self.care_count());
        let mut bus = Vec::with_capacity(self.bus.len());
        unpack_care(self.words, &mut care);
        unpack_bus(self.bus, &mut bus);
        SiPattern::new(care, bus).expect("packed planes cannot self-conflict")
    }

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
            driver: d.raw() as u16,
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
    /// (driver ids are stored as two bytes per line).
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
    pub fn to_sparse(&self) -> SiPattern {
        self.as_packed_ref().to_sparse()
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

    /// A borrowed view of the pattern, the form [`PackedSet::get`] returns.
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

/// Patterns per block of a [`PackedSet`], and per pool item of the
/// arena generator: enough that claiming an item costs nothing next to
/// drawing it, few enough that two workers still balance on a few
/// thousand patterns.
pub(crate) const BLOCK: usize = 1024;

/// Packed arena over a whole pattern set, in blocks of 1 024
/// consecutive patterns: each block holds its patterns' words and bus
/// lines in two flat buffers, addressed by block-local spans, and
/// pattern `i` lives in block `i / 1024`. Packing once per input set
/// avoids one small allocation pair per pattern in the compaction hot
/// path, and a generator that packs its blocks in parallel moves them
/// into the set without copying a word.
///
/// Every block but the last holds exactly 1 024 patterns, so sets that
/// hold the same patterns compare equal however they were put together.
/// The arena keeps a summary of what it holds (the largest care
/// terminal, the largest bus driver and the number of empty patterns),
/// so a set that fits a SOC validates in O(1).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PackedSet {
    blocks: Vec<PackedBlock>,
    max_terminal: Option<u32>,
    max_driver: Option<u16>,
    empty: usize,
}

/// Up to [`BLOCK`] consecutive patterns of a [`PackedSet`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
struct PackedBlock {
    words: Vec<PackedWord>,
    bus: Vec<PackedBusLine>,
    spans: Vec<PackedSpan>,
}

/// Where one pattern's words and bus lines sit in its block.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct PackedSpan {
    word_off: u32,
    word_len: u32,
    bus_off: u32,
    bus_len: u32,
}

impl PackedBlock {
    /// Borrows the block's `k`-th pattern.
    #[inline]
    fn get(&self, k: usize) -> PackedRef<'_> {
        let span = self.spans[k];
        PackedRef {
            words: &self.words[span.word_off as usize..(span.word_off + span.word_len) as usize],
            bus: &self.bus[span.bus_off as usize..(span.bus_off + span.bus_len) as usize],
        }
    }

    /// Appends one pattern, whose words and bus lines `fill` appends to
    /// the block's buffers.
    fn push(&mut self, fill: impl FnOnce(&mut Vec<PackedWord>, &mut Vec<PackedBusLine>)) {
        let word_off = self.words.len() as u32;
        let bus_off = self.bus.len() as u32;
        fill(&mut self.words, &mut self.bus);
        self.spans.push(PackedSpan {
            word_off,
            word_len: self.words.len() as u32 - word_off,
            bus_off,
            bus_len: self.bus.len() as u32 - bus_off,
        });
    }
}

impl PackedSet {
    /// Packs `patterns` (in order) into one arena.
    ///
    /// # Panics
    ///
    /// Panics when a bus driver core id is ≥ [`MAX_PACKED_DRIVERS`].
    #[must_use]
    pub fn build(patterns: &[SiPattern]) -> Self {
        let mut set = PackedSet {
            blocks: Vec::with_capacity(patterns.len().div_ceil(BLOCK)),
            ..PackedSet::default()
        };
        for chunk in patterns.chunks(BLOCK) {
            // One care bit occupies at most one word: a safe upper bound
            // that avoids regrowing a block mid-pack.
            let care = chunk.iter().map(|p| p.care_bits().len()).sum();
            let bus = chunk.iter().map(|p| p.bus_lines().len()).sum();
            set.reserve_block(chunk.len(), care, bus);
            for pattern in chunk {
                set.push_sorted(pattern.care_bits(), pattern.bus_lines());
            }
        }
        set
    }

    /// Reserves room in the block the next pattern goes to for
    /// `patterns` more patterns holding `words` words and `bus` bus lines
    /// in all. Callers push those patterns next, so no block stays empty.
    pub(crate) fn reserve_block(&mut self, patterns: usize, words: usize, bus: usize) {
        let block = self.open_block();
        block.words.reserve(words);
        block.bus.reserve(bus);
        block.spans.reserve(patterns);
    }

    /// The block the next pattern goes to: the last one while it has
    /// room, else a new one.
    fn open_block(&mut self) -> &mut PackedBlock {
        if self.blocks.last().map_or(true, |b| b.spans.len() == BLOCK) {
            self.blocks.push(PackedBlock::default());
        }
        let last = self.blocks.len() - 1;
        &mut self.blocks[last]
    }

    /// Appends one pattern, given as care bits sorted by terminal and bus
    /// lines sorted by line, each listed once (the form [`SiPattern`]
    /// stores), and updates the summary.
    ///
    /// # Panics
    ///
    /// Panics when a bus driver core id is ≥ [`MAX_PACKED_DRIVERS`].
    pub(crate) fn push_sorted(
        &mut self,
        care: &[(TerminalId, Symbol)],
        bus: &[(BusLineId, CoreId)],
    ) {
        let block = self.open_block();
        let bus_off = block.bus.len();
        block.push(|words, lines| {
            pack_care(care, words);
            pack_bus(bus, lines);
        });
        let max_driver = block.bus[bus_off..].iter().map(|line| line.driver).max();
        self.max_driver = self.max_driver.max(max_driver);
        if let Some(&(t, _)) = care.last() {
            self.max_terminal = self.max_terminal.max(Some(t.raw()));
        }
        if care.is_empty() && bus.is_empty() {
            self.empty += 1;
        }
    }

    /// Concatenates arenas in order: the result holds the patterns of
    /// `parts[0]`, then those of `parts[1]`, and so on, exactly as if
    /// they had been appended to one arena. A part that starts on a
    /// block edge of the result hands over its blocks without a copy;
    /// any other part is appended pattern by pattern.
    pub(crate) fn concat(parts: Vec<PackedSet>) -> PackedSet {
        let total: usize = parts.iter().map(PackedSet::len).sum();
        let mut set = PackedSet {
            blocks: Vec::with_capacity(total.div_ceil(BLOCK)),
            ..PackedSet::default()
        };
        for part in parts {
            set.max_terminal = set.max_terminal.max(part.max_terminal);
            set.max_driver = set.max_driver.max(part.max_driver);
            set.empty += part.empty;
            if set.len() % BLOCK == 0 {
                set.blocks.extend(part.blocks);
                continue;
            }
            for block in &part.blocks {
                for k in 0..block.spans.len() {
                    let p = block.get(k);
                    set.open_block().push(|words, bus| {
                        words.extend_from_slice(p.words);
                        bus.extend_from_slice(p.bus);
                    });
                }
            }
        }
        set
    }

    /// Number of packed patterns.
    #[must_use]
    pub fn len(&self) -> usize {
        self.blocks
            .last()
            .map_or(0, |last| (self.blocks.len() - 1) * BLOCK + last.spans.len())
    }

    /// `true` when the set holds no patterns.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Borrows pattern `i`.
    ///
    /// # Panics
    ///
    /// Panics when `i` is out of range.
    #[must_use]
    #[inline]
    pub fn get(&self, i: usize) -> PackedRef<'_> {
        self.blocks[i / BLOCK].get(i % BLOCK)
    }

    /// The largest care terminal id in the set, `None` when no pattern
    /// has care bits. Used to size the cover's clique planes and to
    /// validate against a SOC's terminal space.
    #[must_use]
    pub fn max_terminal(&self) -> Option<u32> {
        self.max_terminal
    }

    /// The largest bus driver core id in the set, `None` when no pattern
    /// occupies a bus line. Used to validate against a SOC's core count.
    #[must_use]
    pub fn max_driver(&self) -> Option<u16> {
        self.max_driver
    }

    /// Number of empty patterns (no care bits, no bus lines) in the set.
    #[must_use]
    pub fn empty_patterns(&self) -> usize {
        self.empty
    }

    /// Unpacks every pattern, in order.
    #[must_use]
    pub(crate) fn to_sparse(&self) -> SiPatternSet {
        (0..self.len()).map(|i| self.get(i).to_sparse()).collect()
    }

    /// [`SiPatternSet::validate_for`] of the unpacked set. A set whose
    /// largest terminal and largest driver fit `soc` passes in O(1);
    /// only a failing set is unpacked, so the error is the sparse one.
    ///
    /// # Errors
    ///
    /// As [`SiPatternSet::validate_for`].
    pub fn validate_for(&self, soc: &Soc) -> Result<(), PatternError> {
        if self.fits(soc) {
            return Ok(());
        }
        self.to_sparse().validate_for(soc)
    }

    /// [`SiPatternSet::validate`] of the unpacked set: `PAT-V01`, `PAT-V02`
    /// and `PAT-V03`, in the same order. A set that fits `soc` and holds
    /// no empty pattern passes in O(1); only a failing set is unpacked.
    #[must_use]
    pub fn validate(&self, soc: &Soc) -> Diagnostics {
        if self.fits(soc) && self.empty == 0 {
            return Diagnostics::new();
        }
        self.to_sparse().validate(soc)
    }

    /// `true` when every care terminal and every bus driver of the set
    /// exists in `soc`.
    fn fits(&self, soc: &Soc) -> bool {
        self.max_terminal.map_or(true, |t| t < soc.total_wocs())
            && self
                .max_driver
                .map_or(true, |d| usize::from(d) < soc.num_cores())
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

/// Number of driver-code bit-planes carried per pattern during bus
/// recoding: a line carries at most [`MAX_PACKED_DRIVERS`] distinct
/// drivers, so sixteen planes code every packable set.
const MAX_CODE_PLANES: usize = 16;

/// The per-line driver recoding of a visited subset: every pattern's
/// bus postfix as flattened `(slot, code)` pairs, plus the inverse maps
/// (`slot → line`, `(slot, code) → driver`) used to decode cliques.
struct RecodedBus {
    /// `(slot, code)` pairs of all visited patterns, concatenated.
    pairs: Vec<(u8, u16)>,
    /// Pair range of the `k`-th visited pattern:
    /// `pairs[offsets[k]..offsets[k + 1]]`.
    offsets: Vec<u32>,
    line_of_slot: Vec<u8>,
    driver_of_code: Vec<Vec<u16>>,
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
/// per-slot code bit-planes. Every line of the bus space fits a slot
/// and every driver id a code, so any packed set recodes.
fn recode_bus(set: &PackedSet, visit: &[u32]) -> RecodedBus {
    let drivers = set.max_driver().map_or(0, |d| usize::from(d) + 1);
    let mut slot_of_line: [Option<u8>; BUS_LINES] = [None; BUS_LINES];
    // Per slot, indexed by driver id: the driver's code plus one, or 0
    // while the driver has no code on that line.
    let mut code_of: Vec<Vec<u32>> = Vec::new();
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
            let slot = *slot_of_line[pl.line as usize].get_or_insert_with(|| {
                rec.line_of_slot.push(pl.line);
                rec.driver_of_code.push(Vec::new());
                code_of.push(vec![0; drivers]);
                (rec.line_of_slot.len() - 1) as u8
            });
            let code = &mut code_of[slot as usize][usize::from(pl.driver)];
            if *code == 0 {
                let codes = &mut rec.driver_of_code[slot as usize];
                codes.push(pl.driver);
                max_codes = max_codes.max(codes.len());
                *code = codes.len() as u32;
            }
            rec.pairs.push((slot, (*code - 1) as u16));
        }
        rec.offsets.push(rec.pairs.len() as u32);
    }
    rec.plane_bits = (usize::BITS as usize - (max_codes - 1).leading_zeros() as usize).max(1);
    rec
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
/// internal bus recoding, which covers every packed set: all 256 bus
/// lines and up to [`MAX_PACKED_DRIVERS`] drivers on one line.
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
    let rec = recode_bus(set, visit);
    match rec.plane_bits {
        1 => cover_with_planes::<1>(set, visit, &rec, terminal_words),
        2 => cover_with_planes::<2>(set, visit, &rec, terminal_words),
        3 => cover_with_planes::<3>(set, visit, &rec, terminal_words),
        4 => cover_with_planes::<4>(set, visit, &rec, terminal_words),
        5 => cover_with_planes::<5>(set, visit, &rec, terminal_words),
        6 => cover_with_planes::<6>(set, visit, &rec, terminal_words),
        7 => cover_with_planes::<7>(set, visit, &rec, terminal_words),
        8 => cover_with_planes::<8>(set, visit, &rec, terminal_words),
        9 => cover_with_planes::<9>(set, visit, &rec, terminal_words),
        10 => cover_with_planes::<10>(set, visit, &rec, terminal_words),
        _ => cover_with_planes::<MAX_CODE_PLANES>(set, visit, &rec, terminal_words),
    }
}

/// The body of [`first_fit_cover`], monomorphized over the driver code
/// width `P`.
///
/// Clique bus state is kept *transposed*: for every line slot, one
/// bitmask over cliques marking who occupies the line (`occ`) plus `P`
/// bitmasks holding each occupant's driver-code bits. Screening a
/// pattern against **all** cliques at once then costs
/// `O(bus lines × clique words)` — `conflict = occ & (code_plane XOR
/// broadcast(code bit))` accumulated over the pattern's pairs — instead
/// of one probe per clique, and the candidate cliques surviving the
/// bus prefilter are walked in index order for the care/symbol word
/// check. Each clique owns its `terminal_words` care/symbol planes, so
/// opening a clique allocates one slice and copies no other clique's.
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
    let mut cplanes: Vec<Box<[Plane]>> = Vec::new();
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
                let planes = &cplanes[j];
                let mut compared = 0u64;
                let mut compatible = true;
                for pw in words {
                    compared += 1;
                    let plane = planes[pw.index as usize];
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
                absorb_words(&mut cplanes[j], words);
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
                let mut planes = vec![Plane::default(); terminal_words].into_boxed_slice();
                absorb_words(&mut planes, words);
                cplanes.push(planes);
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

    let patterns = cplanes
        .iter()
        .enumerate()
        .map(|(j, planes)| {
            let words = planes
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
    use soctam_exec::check::{cases, forall, Gen};

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
        assert_eq!(set.empty_patterns(), 1);
        assert_eq!(PackedSet::build(&patterns[1..]).max_driver(), None);
        assert_eq!(set.to_sparse().as_slice(), &patterns[..]);
        // Concatenated arenas equal the arena of the concatenated list.
        let parts = vec![
            PackedSet::build(&patterns[..1]),
            PackedSet::default(),
            PackedSet::build(&patterns[1..]),
        ];
        assert_eq!(PackedSet::concat(parts), set);
        for (i, p) in patterns.iter().enumerate() {
            let packed = PackedPattern::from_sparse(p);
            assert_eq!(set.get(i).words, packed.words());
            assert_eq!(set.get(i).bus, packed.bus());
            assert_eq!(set.get(i), packed.as_packed_ref());
        }
        assert_ne!(set.get(0), set.get(2));
    }

    /// Packs `patterns` as uneven parts and concatenates them: empty
    /// parts, parts that end off a block edge (appended pattern by
    /// pattern) and parts that start on one (moved whole).
    fn concat_unevenly(patterns: &[SiPattern]) -> PackedSet {
        let mut parts = vec![PackedSet::default()];
        let mut rest = patterns;
        for &size in [1, BLOCK - 1, 0, BLOCK + 1, 5, BLOCK, 2 * BLOCK]
            .iter()
            .cycle()
        {
            if rest.is_empty() {
                break;
            }
            let (part, tail) = rest.split_at(size.min(rest.len()));
            parts.push(PackedSet::build(part));
            rest = tail;
        }
        parts.push(PackedSet::default());
        PackedSet::concat(parts)
    }

    /// Checks `set` against the sparse patterns it packs: every index,
    /// the length, the summary and both validations, on a SOC the set
    /// fits and on one it does not.
    fn assert_packs(set: &PackedSet, patterns: &[SiPattern], what: &str) {
        assert_eq!(set.len(), patterns.len(), "{what}");
        assert_eq!(set.is_empty(), patterns.is_empty(), "{what}");
        for (i, p) in patterns.iter().enumerate() {
            let packed = PackedPattern::from_sparse(p);
            assert_eq!(set.get(i), packed.as_packed_ref(), "{what}: pattern {i}");
            assert_eq!(&set.get(i).to_sparse(), p, "{what}: pattern {i}");
        }
        let max_terminal = patterns
            .iter()
            .filter_map(|p| p.care_bits().last().map(|&(t, _)| t.raw()))
            .max();
        let max_driver = patterns
            .iter()
            .flat_map(|p| p.bus_lines().iter().map(|&(_, d)| d.raw() as u16))
            .max();
        let empty = patterns
            .iter()
            .filter(|p| p.care_bits().is_empty() && p.bus_lines().is_empty())
            .count();
        assert_eq!(set.max_terminal(), max_terminal, "{what}");
        assert_eq!(set.max_driver(), max_driver, "{what}");
        assert_eq!(set.empty_patterns(), empty, "{what}");
        let sparse = SiPatternSet::from_patterns(patterns.to_vec());
        for soc in [soctam_model::Benchmark::D695, soctam_model::Benchmark::U226] {
            let soc = soc.soc();
            assert_eq!(set.validate(&soc), sparse.validate(&soc), "{what}");
            assert_eq!(set.validate_for(&soc), sparse.validate_for(&soc), "{what}");
        }
    }

    #[test]
    fn arenas_agree_at_every_block_edge() {
        use crate::{generate_random_packed, RandomPatternConfig};
        use soctam_exec::Pool;
        let soc = soctam_model::Benchmark::D695.soc();
        let pools: Vec<Pool> = [1, 2, 4, 8].into_iter().map(Pool::new).collect();
        for count in [0, 1, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 7] {
            let config = RandomPatternConfig::new(count).with_seed(31);
            let patterns = SiPatternSet::random(&soc, &config)
                .expect("valid")
                .into_vec();
            let built = PackedSet::build(&patterns);
            assert_packs(&built, &patterns, &format!("build of {count}"));
            assert_eq!(concat_unevenly(&patterns), built, "concat of {count}");
            for pool in &pools {
                let generated = generate_random_packed(&soc, &config, pool).expect("valid");
                assert_eq!(generated, built, "{count} generated, jobs {}", pool.jobs());
            }
            // Empty patterns across the edges, for the summary's count.
            let mut with_empty = patterns;
            for at in (0..=with_empty.len()).rev().step_by(BLOCK / 3) {
                with_empty.insert(at, SiPattern::default());
            }
            let built = PackedSet::build(&with_empty);
            assert_packs(&built, &with_empty, &format!("{count} with empties"));
            assert_eq!(concat_unevenly(&with_empty), built, "{count} with empties");
        }
    }

    #[test]
    fn driver_ids_below_the_limit_roundtrip() {
        let largest = MAX_PACKED_DRIVERS - 1;
        let p = sparse(&[], &[(0, 256), (1, largest)]);
        assert_eq!(PackedPattern::from_sparse(&p).to_sparse(), p);
        let set = PackedSet::build(&[p]);
        assert_eq!(set.max_driver(), Some(largest as u16));
    }

    #[test]
    #[should_panic(expected = "packed driver-id limit")]
    fn driver_id_at_the_limit_panics() {
        let p = sparse(&[], &[(0, MAX_PACKED_DRIVERS)]);
        let _ = PackedPattern::from_sparse(&p);
    }

    #[test]
    fn socs_beyond_the_driver_limit_are_rejected() {
        use soctam_model::CoreSpec;
        let core = CoreSpec::new("c", 1, 1, 0, vec![], 1).expect("valid");
        let at_limit =
            Soc::new("at", vec![core.clone(); MAX_PACKED_DRIVERS as usize]).expect("valid soc");
        assert_eq!(check_packable(&at_limit), Ok(()));
        let beyond =
            Soc::new("beyond", vec![core; MAX_PACKED_DRIVERS as usize + 1]).expect("valid soc");
        assert_eq!(
            check_packable(&beyond),
            Err(PatternError::TooManyCores {
                cores: MAX_PACKED_DRIVERS as usize + 1,
                limit: MAX_PACKED_DRIVERS,
            })
        );
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
    /// calls only — the semantic reference the cover must match.
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
    fn first_fit_cover_matches_the_reference_beyond_64_lines() {
        // More than 64 distinct lines (70), each recoded to its own slot.
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

    /// 700 patterns on two bus lines whose drivers all differ, so each
    /// line carries `drivers_per_line` distinct drivers (cycled).
    fn many_driver_set(drivers_per_line: u32) -> PackedSet {
        let patterns: Vec<SiPattern> = (0..700u32)
            .map(|i| {
                let symbol = if i % 3 == 0 {
                    Symbol::Rise
                } else {
                    Symbol::Fall
                };
                sparse(
                    &[(i % 40, symbol)],
                    &[((i % 2) as u8, (i / 2) % drivers_per_line + 300)],
                )
            })
            .collect();
        PackedSet::build(&patterns)
    }

    #[test]
    fn first_fit_cover_matches_the_reference_with_many_drivers_per_line() {
        // 256 drivers per line fill eight code planes; 350 take nine.
        // Both must match the pairwise reference.
        for drivers_per_line in [256, 350] {
            let set = many_driver_set(drivers_per_line);
            let visit: Vec<u32> = (0..set.len() as u32).collect();
            let (cover, _) = first_fit_cover(&set, &visit, 1);
            assert_eq!(
                cover,
                reference_cover(&set, &visit),
                "{drivers_per_line} drivers per line"
            );
            assert!(cover.len() > 1);
        }
    }

    /// A random arena for the cover property. Each case draws the width
    /// of its driver codes (1 to 10 bit-planes), a driver count per line
    /// that needs that width (up to 600) and as many bus lines (up to
    /// 256) as about 1 200 patterns fill. Pattern `k` is driven by core
    /// `k / lines % drivers` on line `k % lines`, often on a second
    /// random line too, and has up to three care bits on two terminal
    /// words.
    fn random_arena(g: &mut Gen) -> PackedSet {
        let planes = g.u32_in(1, 11);
        let drivers = g.u32_in((1 << planes) / 2 + 1, (1 << planes).min(600) + 1);
        let lines = g.u32_in(1, (1_200 / drivers).clamp(1, 256) + 1);
        let patterns: Vec<SiPattern> = (0..lines * drivers)
            .map(|k| {
                let first = g.u32_in(0, 126);
                let care: Vec<(u32, Symbol)> = (first..first + g.u32_in(0, 4))
                    .map(|t| (t, Symbol::ALL[g.usize_in(0, 4)]))
                    .collect();
                let driver = k / lines % drivers;
                let mut bus = vec![((k % lines) as u8, driver)];
                if g.bool_with(0.3) {
                    bus.push((g.u32_in(0, lines) as u8, driver));
                }
                sparse(&care, &bus)
            })
            .collect();
        PackedSet::build(&patterns)
    }

    #[test]
    fn first_fit_cover_matches_the_reference_on_random_arenas() {
        forall("first_fit_cover_matches_reference", cases(16), |g| {
            let set = random_arena(g);
            let mut visit: Vec<u32> = (0..set.len() as u32).collect();
            g.rng().shuffle(&mut visit);
            let (cover, _) = first_fit_cover(&set, &visit, 2);
            assert_eq!(cover, reference_cover(&set, &visit));
        });
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
