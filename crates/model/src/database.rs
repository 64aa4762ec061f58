//! Databases and instances (Section 2 of the paper), stored **columnar**.
//!
//! # Storage layout
//!
//! An [`Instance`] is a finite set of atoms over constants and labelled
//! nulls. Internally it is a map from predicate to [`Relation`], and each
//! relation is a single flat, dense table of **packed 4-byte terms**
//! ([`PackedTerm`]: 2 tag bits + a 30-bit symbol/null dictionary index):
//!
//! ```text
//! Relation "edge" (arity 2)
//!   terms: [ a, b,   a, c,   b, c ]      row-major Vec<PackedTerm>,
//!   row 0 ──┘        │        └── row 2  row i = terms[i*arity .. (i+1)*arity]
//!                  row 1
//! ```
//!
//! * **Packed storage.** Every stored term is a `u32`, a quarter the width
//!   of the `Term` enum, so a relation's cache footprint shrinks 4× and row
//!   hashing, dedup probes, column-index lookups and the join kernel's slot
//!   comparisons are integer operations on dense u32 data. The public
//!   [`crate::term::Term`] API survives at the edges: insert paths pack
//!   (rejecting terms past the 30-bit dictionary with
//!   [`ModelError::PackOverflow`]), and the `Atom`-returning convenience
//!   methods unpack lazily — both O(1) per term, no interner access.
//!
//! * **Row ids.** Rows are append-only and never removed, so the index of a
//!   row within its relation (a `u32` [`RowId`]) is a stable, compact
//!   identifier for the fact. Consumers that need to remember sets of facts
//!   (e.g. the oblivious chase's fired-trigger set) store row-id tuples
//!   instead of cloned atoms.
//! * **Deduplication** is row-level: an open-addressed, linear-probing table
//!   maps the hash of a row's terms to its row id (one flat slot array, no
//!   per-key bucket allocation; rows with colliding 64-bit hashes simply
//!   occupy nearby slots and are told apart by exact term comparison).
//!   Inserting a duplicate is detected without materialising an `Atom`.
//! * **Key indexes** (single-column *and* composite). A relation can carry a
//!   hash index over any set of 1–3 columns ([`ColSet`]), keyed on the
//!   **fused u64** of the packed terms ([`fuse_key`]): one packed column is
//!   its raw 31-bit encoding, two fuse losslessly into the u64 halves, and a
//!   third folds in by hashing (candidates are always verified against the
//!   full row, so a fold collision costs a wasted candidate, never a wrong
//!   match). Indexes are built **lazily**, on the first probe of a column
//!   set; sets that are never used as a join key cost nothing.
//!
//!   **CSR storage.** A fresh index is one open-addressed slot table
//!   (`key → (offset, len)`, linear probing, power-of-two capacity, no
//!   tombstones — relations are append-only) whose buckets are slices of a
//!   single shared row-id arena, grouped by key and ascending within each
//!   bucket. A probe is one fused-key hash plus typically one slot read —
//!   one cache line — and hands out a borrowed slice; no per-key `Vec`
//!   exists anywhere. Because regrouping the arena on every append would be
//!   quadratic over a fixpoint's rounds, appended rows first land in a small
//!   per-key **overflow map**; once the unmerged tail would dominate (it
//!   reaches the CSR's size), the whole index is rebuilt in three linear
//!   passes, so the total rebuild work stays O(rows) amortised. CSR ids all
//!   precede overflow ids, keeping candidate enumeration globally ascending
//!   — the order the deterministic merge phases rely on.
//!
//!   **Fingerprint filters.** Each built index carries a power-of-two bit
//!   array with one fingerprint bit per key (≈ 1/16 false-positive rate,
//!   from a full-avalanche mix independent of the slot hash — see
//!   [`crate::fasthash::mix_u64`]). Probes consult it first:
//!   a clear bit proves the key absent without touching the table — the
//!   common case in semi-naive delta rounds, where most probe keys miss.
//!   The skip is observable as the kernel's `misses_filtered` counter
//!   ([`crate::homomorphism::JoinStats`]) and never changes any result (a
//!   filtered key has no candidates either way).
//!
//!   Laziness uses interior mutability (an `RwLock` per single column, plus
//!   a lock-guarded list of composite indexes created on first demand);
//!   probes take `&self`, while inserts take `&mut self`. The locks make
//!   the whole instance [`Sync`]: the sharded parallel evaluator
//!   ([`crate::parallel`]) shares `&Instance` across scoped worker threads,
//!   each probing (and, on first use, building) key indexes concurrently.
//!
//!   Lock-order safety: rows only grow under `&mut self`, so during any probe
//!   session the row count is frozen, long-lived read guards are only
//!   acquired on indexes observed *fresh* under that same guard, and index
//!   builders never block-wait for a write lock (they `try_write` and
//!   re-check, see `Relation::ensure_key_index`) — therefore no writer can
//!   queue behind a held read guard, and re-entrant reads (the join kernel
//!   probes an index while enumerating another probe of the same index
//!   higher up the search tree) cannot deadlock. The composite-index list
//!   follows the same discipline (its writers also only `try_write`), and
//!   probes additionally clone the per-index `Arc` and drop the list guard
//!   before locking the index itself, so no thread ever sleeps holding the
//!   list lock.
//!
//! The join kernel in [`crate::homomorphism`] works directly on row ids and
//! borrowed term slices; the `Atom`-returning methods here materialise atoms
//! lazily and exist for the convenience of analysis code, provenance and
//! tests.
//!
//! A [`Database`] is an instance whose atoms are all ground (facts).

use crate::atom::{Atom, Predicate};
use crate::error::ModelError;
use crate::fasthash::{hash_u64, mix_u64, FxHashMap, FxHasher};
use crate::symbols::Symbol;
use crate::term::{NullId, PackedTerm, Term};
use std::collections::BTreeSet;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::mem::size_of;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

/// Stable identifier of a row within its [`Relation`].
pub type RowId = u32;

/// Converts a row count to the id of the next row, reporting a typed
/// capacity error for relations that have exhausted the 32-bit id space
/// instead of silently truncating (4 billion rows of arity 2 are ~64 GiB of
/// terms, so the bound is reachable on big hosts). The top id `RowId::MAX`
/// is reserved — it is the [`crate::homomorphism::PREMATCHED_ROW`] sentinel,
/// and rejecting it keeps the row *count* itself representable as a
/// [`RowId`] (see [`Relation::row_count`]).
fn checked_row_id(len: usize, predicate: Predicate) -> Result<RowId, ModelError> {
    if len >= RowId::MAX as usize {
        return Err(ModelError::CapacityExceeded {
            predicate: predicate.name().to_string(),
            rows: len,
        });
    }
    Ok(len as RowId)
}

/// Hashes one packed row for the dedup table (also the shard key of the
/// parallel evaluator's delta partitioning). Packed rows are dense u32
/// slices, so this is a handful of integer mixes per row.
pub(crate) fn row_hash(row: &[PackedTerm]) -> u64 {
    let mut hasher = FxHasher::default();
    row.hash(&mut hasher);
    hasher.finish()
}

/// Packs a ground-term slice into `out`, reporting the typed error for
/// variables and dictionary overflow. `out` is cleared first.
fn pack_row_into(
    predicate: Predicate,
    terms: &[Term],
    out: &mut Vec<PackedTerm>,
) -> Result<(), ModelError> {
    out.clear();
    out.reserve(terms.len());
    for t in terms {
        match PackedTerm::pack(*t) {
            Some(p) => out.push(p),
            None if t.is_var() => {
                return Err(ModelError::NonGroundFact(
                    Atom {
                        predicate,
                        terms: terms.to_vec(),
                    }
                    .to_string(),
                ))
            }
            None => {
                return Err(ModelError::PackOverflow {
                    term: t.to_string(),
                })
            }
        }
    }
    Ok(())
}

/// Sentinel marking an empty slot of the [`DedupTable`]: `RowId::MAX` is the
/// reserved [`crate::homomorphism::PREMATCHED_ROW`] id that the insert paths
/// reject, so it can never denote a stored row.
const DEDUP_EMPTY: RowId = RowId::MAX;

/// One slot of the open-addressed row-dedup table.
#[derive(Clone, Copy, Debug)]
struct DedupSlot {
    hash: u64,
    row: RowId,
}

/// Row-level dedup as one flat, linear-probing open-addressed slot array:
/// `row hash → row id`, no per-key bucket allocation. Genuine 64-bit hash
/// collisions are handled by the probe loop itself — the colliding rows
/// occupy nearby slots and are told apart by the caller's exact row
/// comparison — so the table replaces the former hashmap-of-bucket layout
/// with at most a few cache lines per lookup.
///
/// The table is plain owned data: lookups take `&self` (the lock-free probe
/// the parallel workers' pre-dedup uses) and inserts `&mut self`, mirroring
/// the relation's own mutability discipline.
#[derive(Clone, Debug, Default)]
struct DedupTable {
    /// Power-of-two slot array; empty slots hold [`DEDUP_EMPTY`] in `row`.
    slots: Vec<DedupSlot>,
    len: usize,
}

impl DedupTable {
    /// Number of stored entries (= stored rows).
    fn len(&self) -> usize {
        self.len
    }

    /// The first row whose stored hash equals `hash` and which `eq` accepts,
    /// probing linearly from the hash's home slot. `hash` is already a
    /// full-width row hash, so its low bits index the table directly (the
    /// same convention the former hashmap layout used).
    #[inline]
    fn find(&self, hash: u64, eq: impl Fn(RowId) -> bool) -> Option<RowId> {
        if self.slots.is_empty() {
            return None;
        }
        let mask = self.slots.len() - 1;
        let mut i = hash as usize & mask;
        loop {
            let slot = self.slots[i];
            if slot.row == DEDUP_EMPTY {
                return None;
            }
            if slot.hash == hash && eq(slot.row) {
                return Some(slot.row);
            }
            i = (i + 1) & mask;
        }
    }

    /// Records a new row (the caller has already established via
    /// [`DedupTable::find`] that it is not present).
    fn insert(&mut self, hash: u64, row: RowId) {
        debug_assert_ne!(row, DEDUP_EMPTY, "the top row id is reserved");
        // Grow at 5/8 load: linear probing (no SIMD group scan) needs the
        // headroom to keep *miss* chains — the common case for the workers'
        // pre-dedup probes — down to a few slots.
        if (self.len + 1) * 8 >= self.slots.len() * 5 {
            self.grow();
        }
        Self::insert_raw(&mut self.slots, hash, row);
        self.len += 1;
    }

    fn insert_raw(slots: &mut [DedupSlot], hash: u64, row: RowId) {
        let mask = slots.len() - 1;
        let mut i = hash as usize & mask;
        while slots[i].row != DEDUP_EMPTY {
            i = (i + 1) & mask;
        }
        slots[i] = DedupSlot { hash, row };
    }

    fn grow(&mut self) {
        let cap = (self.slots.len() * 2).max(16);
        let mut slots = vec![
            DedupSlot {
                hash: 0,
                row: DEDUP_EMPTY,
            };
            cap
        ];
        for slot in self.slots.iter().filter(|s| s.row != DEDUP_EMPTY) {
            Self::insert_raw(&mut slots, slot.hash, slot.row);
        }
        self.slots = slots;
    }

    /// Heap bytes of the slot array.
    fn heap_bytes(&self) -> usize {
        self.slots.len() * size_of::<DedupSlot>()
    }
}

/// A set of 1–3 column positions probed together, stored in ascending
/// position order — the identity of a (composite) key index over a relation
/// and the unit the join planner scores multi-column bound sets in.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct ColSet {
    cols: [u16; Self::MAX_COLS],
    len: u8,
}

impl ColSet {
    /// Largest number of columns a key index fuses. Two packed columns fuse
    /// losslessly into a u64; a third folds in by hashing (see [`fuse_key`]).
    pub const MAX_COLS: usize = 3;

    /// The singleton set of one column (constructed directly — this sits on
    /// the per-probe hot path of the single-column wrappers).
    #[inline]
    pub fn single(col: usize) -> ColSet {
        ColSet {
            cols: [
                u16::try_from(col).expect("column position fits u16 (arity < 65536)"),
                0,
                0,
            ],
            len: 1,
        }
    }

    /// Builds a set from distinct column positions (given in any order, at
    /// most [`ColSet::MAX_COLS`] of them, each below 65536 — far beyond any
    /// storable arity, since every row spends 4 bytes per column).
    pub fn new(cols: &[usize]) -> ColSet {
        assert!(
            (1..=Self::MAX_COLS).contains(&cols.len()),
            "a key index covers 1..=3 columns"
        );
        let mut sorted = [0u16; Self::MAX_COLS];
        for (slot, &col) in sorted.iter_mut().zip(cols) {
            *slot = u16::try_from(col).expect("column position fits u16 (arity < 65536)");
        }
        sorted[..cols.len()].sort_unstable();
        assert!(
            sorted[..cols.len()].windows(2).all(|w| w[0] < w[1]),
            "column positions must be distinct"
        );
        ColSet {
            cols: sorted,
            len: cols.len() as u8,
        }
    }

    /// Number of columns in the set (1–3).
    #[inline]
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// Always `false`: a key index covers at least one column.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The column positions, in ascending order.
    #[inline]
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.cols[..self.len()].iter().map(|&c| c as usize)
    }
}

impl fmt::Display for ColSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let cols: Vec<String> = self.iter().map(|c| c.to_string()).collect();
        write!(f, "({})", cols.join(","))
    }
}

/// Fuses 1–3 packed terms — one per column of a [`ColSet`], in ascending
/// column order — into the u64 probe key of a key index.
///
/// Stored packed terms only carry the constant/null tags, so their raw
/// encoding fits 31 bits: one column is the raw value itself and two columns
/// fuse **losslessly** into the two u64 halves — equal keys mean equal
/// column values, nothing left to re-check. Three columns exceed 64 bits and
/// are folded with [`hash_u64`]; a fold collision surfaces as an extra
/// candidate row that the kernel's full-row comparison rejects, exactly like
/// a fingerprint false positive (wasted work, never a wrong match).
#[inline]
pub fn fuse_key(vals: &[PackedTerm]) -> u64 {
    match vals {
        [a] => u64::from(a.raw()),
        [a, b] => (u64::from(a.raw()) << 32) | u64::from(b.raw()),
        [a, b, c] => {
            let ab = (u64::from(a.raw()) << 32) | u64::from(b.raw());
            hash_u64(ab) ^ u64::from(c.raw()).rotate_left(31)
        }
        _ => unreachable!("key indexes cover 1..=3 columns"),
    }
}

/// One slot of a key index's open-addressed table: a fused key and its
/// bucket as an `(offset, len)` slice of the shared row-id arena. Empty
/// slots have `len == 0` (every present key owns at least one row).
#[derive(Clone, Copy, Debug)]
struct IndexSlot {
    key: u64,
    offset: u32,
    len: u32,
}

const EMPTY_SLOT: IndexSlot = IndexSlot {
    key: 0,
    offset: 0,
    len: 0,
};

/// Rows required before the first CSR build; below this the overflow map
/// alone serves probes, so tiny relations never pay for a rebuild.
const CSR_BUILD_MIN_ROWS: usize = 16;

/// Fingerprint-filter bits **initially** provisioned per distinct key (one
/// set bit per key, so the false-positive rate starts at ≈ 1/16). The
/// provisioning is adaptive: an index whose *measured* false-positive rate
/// exceeds twice the provisioned target doubles its per-key bits (up to
/// [`FILTER_MAX_BITS_PER_KEY`]) at the next index update — see
/// [`KeyIndex::maybe_grow_filter`].
const FILTER_BITS_PER_KEY: usize = 16;

/// Upper bound of the adaptive per-key filter provisioning. 256 bits/key is
/// a ≈ 1/256 false-positive target at 32 bytes per key — past that the
/// filter would rival the slot table itself and growing further cannot pay.
const FILTER_MAX_BITS_PER_KEY: usize = 256;

/// Misses (filter skips + false positives) that must be observed before an
/// adaptive resize decision is made. Below this the measured rate is noise;
/// each decision consumes the window so a persistent rate re-triggers on
/// fresh evidence only.
const FILTER_RESIZE_MIN_MISSES: u64 = 512;

/// Smallest slot-table capacity that gets a fingerprint filter. A filter's
/// only payoff is sparing the slot probe on a miss; when the table fits
/// comfortably in cache that probe costs the same handful of cycles the
/// filter check does, so small indexes skip the filter entirely and only
/// genuinely large tables — where a miss probe is a likely cache miss —
/// carry one.
const FILTER_MIN_SLOTS: usize = 1 << 12;

/// A lazily-built hash index over a [`ColSet`] of a relation's columns,
/// keyed on the fused u64 of the packed terms (see the module docs for the
/// CSR memory layout and the rebuild policy).
#[derive(Debug)]
struct KeyIndex {
    /// Open-addressed slot table over the CSR arena (power-of-two capacity,
    /// linear probing, no tombstones — relations are append-only).
    slots: Vec<IndexSlot>,
    /// Shared row-id arena: the bucket of a slot `s` is
    /// `arena[s.offset .. s.offset + s.len]`, ascending.
    arena: Vec<RowId>,
    /// Rows `0..csr_rows` are grouped in the CSR arena.
    csr_rows: RowId,
    /// Rows `csr_rows..rows_indexed`, per key, appended since the last
    /// rebuild (ids ascending within each entry, and all of them larger
    /// than every CSR id).
    overflow: FxHashMap<u64, Vec<RowId>>,
    /// Rows indexed so far (CSR + overflow) — the freshness watermark.
    rows_indexed: RowId,
    /// Distinct keys across CSR and overflow. Maintained incrementally, so
    /// the planner's (memoised) distinct-count probes are O(1) once the
    /// index is fresh.
    distinct: usize,
    /// One fingerprint bit per indexed key (power-of-two bit count; empty
    /// until the first CSR build, which disables filtering).
    filter: Vec<u64>,
    /// Current adaptive per-key filter provisioning (starts at
    /// [`FILTER_BITS_PER_KEY`], doubles when the measured false-positive
    /// rate exceeds twice the provisioned target).
    filter_bits_per_key: usize,
    /// Miss probes the filter proved absent without touching the slot table.
    /// Atomic because probes run under the index's **read** lock (possibly
    /// from many worker threads at once); consumed, together with
    /// `filter_false_positives`, by the adaptive resize decision, which runs
    /// only under the write lock at index-update points.
    filter_skips: AtomicU64,
    /// Miss probes the filter let through (the bit was set but the probed
    /// key had no candidates) — the numerator of the measured
    /// false-positive rate.
    filter_false_positives: AtomicU64,
}

impl Default for KeyIndex {
    fn default() -> KeyIndex {
        KeyIndex {
            slots: Vec::new(),
            arena: Vec::new(),
            csr_rows: 0,
            overflow: FxHashMap::default(),
            rows_indexed: 0,
            distinct: 0,
            filter: Vec::new(),
            filter_bits_per_key: FILTER_BITS_PER_KEY,
            filter_skips: AtomicU64::new(0),
            filter_false_positives: AtomicU64::new(0),
        }
    }
}

impl Clone for KeyIndex {
    fn clone(&self) -> KeyIndex {
        KeyIndex {
            slots: self.slots.clone(),
            arena: self.arena.clone(),
            csr_rows: self.csr_rows,
            overflow: self.overflow.clone(),
            rows_indexed: self.rows_indexed,
            distinct: self.distinct,
            filter: self.filter.clone(),
            filter_bits_per_key: self.filter_bits_per_key,
            filter_skips: AtomicU64::new(self.filter_skips.load(Ordering::Relaxed)),
            filter_false_positives: AtomicU64::new(
                self.filter_false_positives.load(Ordering::Relaxed),
            ),
        }
    }
}

impl KeyIndex {
    /// The fused key of `row` over the index's column set.
    fn key_of(terms: &[PackedTerm], arity: usize, cols: ColSet, row: RowId) -> u64 {
        let base = row as usize * arity;
        let mut vals = [PackedTerm::UNMATCHABLE; ColSet::MAX_COLS];
        let mut n = 0;
        for col in cols.iter() {
            vals[n] = terms[base + col];
            n += 1;
        }
        fuse_key(&vals[..n])
    }

    /// The slot index of `key` in an open-addressed table, linear-probing
    /// from its home position; the returned slot is empty (`len == 0`) when
    /// the key is absent.
    fn slot_index(slots: &[IndexSlot], key: u64) -> usize {
        Self::slot_index_hashed(slots, key, hash_u64(key))
    }

    /// [`KeyIndex::slot_index`] with the key's hash already computed (the
    /// probe hot path shares one hash between the filter and the table).
    /// The home slot comes from the hash's **top** bits — the only bits a
    /// single-multiply mix fully avalanches (see [`hash_u64`]).
    #[inline]
    fn slot_index_hashed(slots: &[IndexSlot], key: u64, hash: u64) -> usize {
        let mask = slots.len() - 1;
        let mut i = (hash >> (64 - slots.len().trailing_zeros())) as usize;
        while slots[i].len != 0 && slots[i].key != key {
            i = (i + 1) & mask;
        }
        i
    }

    /// The fingerprint bit of `key`, drawn from a **full-avalanche** mix
    /// ([`mix_u64`]) — independent of the slot hash, and immune to the
    /// progression aliasing a bare multiply would inherit from sequentially
    /// interned symbol ids.
    fn filter_bit(filter_words: usize, key: u64) -> (usize, u64) {
        let bits = filter_words * 64;
        let bit = mix_u64(key) as usize & (bits - 1);
        (bit / 64, 1u64 << (bit % 64))
    }

    /// Brings the index up to date with rows `0..rows`: appended rows land
    /// in the overflow map, and once the unmerged tail reaches the CSR's
    /// size the whole index is rebuilt (geometric threshold, so total
    /// rebuild work stays O(rows) amortised).
    fn ensure(&mut self, terms: &[PackedTerm], arity: usize, cols: ColSet, rows: RowId) {
        if self.rows_indexed == rows {
            return;
        }
        // Index-update points are where the adaptive filter provisioning is
        // re-examined: the probes against the previous index version have
        // all completed (rows only grow under `&mut Instance`, so no probe
        // is in flight), which makes the miss counters a deterministic
        // function of the data — independent of thread count and probe
        // interleaving — and keeps the cross-thread bit-identity of the
        // `misses_filtered` counters intact.
        self.maybe_grow_filter();
        let unmerged = (rows - self.csr_rows) as usize;
        if unmerged >= (self.csr_rows as usize).max(CSR_BUILD_MIN_ROWS) {
            self.rebuild(terms, arity, cols, rows);
        } else {
            self.extend(terms, arity, cols, rows);
        }
    }

    /// Rebuilds the CSR over rows `0..rows` in three linear passes: fuse all
    /// keys, count per key into the slot table (then prefix-sum the bucket
    /// offsets), scatter the row ids. Ascending scatter order keeps every
    /// bucket ascending. The overflow map and the fingerprint filter are
    /// reset to match.
    fn rebuild(&mut self, terms: &[PackedTerm], arity: usize, cols: ColSet, rows: RowId) {
        let n = rows as usize;
        let keys: Vec<u64> = (0..rows)
            .map(|row| Self::key_of(terms, arity, cols, row))
            .collect();
        // Count per key, in a table sized for the worst case (all distinct).
        let mut slots = vec![EMPTY_SLOT; (n * 2).max(8).next_power_of_two()];
        let mut distinct = 0usize;
        for &key in &keys {
            let i = Self::slot_index(&slots, key);
            if slots[i].len == 0 {
                slots[i].key = key;
                distinct += 1;
            }
            slots[i].len += 1;
        }
        // Tighten the table to the actual key count (low-cardinality columns
        // would otherwise pay 2×rows slots forever).
        let tight_cap = (distinct * 2).max(8).next_power_of_two();
        if tight_cap < slots.len() {
            let mut tight = vec![EMPTY_SLOT; tight_cap];
            for slot in slots.iter().filter(|s| s.len != 0) {
                let i = Self::slot_index(&tight, slot.key);
                tight[i] = *slot;
            }
            slots = tight;
        }
        // Prefix-sum the offsets. `len` must stay intact — `slot_index`
        // reads it as the occupancy flag — so the scatter cursor lives in a
        // parallel array instead.
        let mut offset = 0u32;
        for slot in slots.iter_mut().filter(|s| s.len != 0) {
            slot.offset = offset;
            offset += slot.len;
        }
        // Scatter the rows in ascending id order.
        let mut cursor = vec![0u32; slots.len()];
        self.arena.clear();
        self.arena.resize(n, 0);
        for (row, &key) in keys.iter().enumerate() {
            let i = Self::slot_index(&slots, key);
            self.arena[(slots[i].offset + cursor[i]) as usize] = row as RowId;
            cursor[i] += 1;
        }
        // Fingerprints of the (now complete) key set — only once the slot
        // table is big enough that skipping a miss probe pays (see
        // [`FILTER_MIN_SLOTS`]). The filter is provisioned at the current
        // adaptive per-key width, and the miss window restarts with it.
        self.filter.clear();
        if slots.len() >= FILTER_MIN_SLOTS {
            let words = (distinct * self.filter_bits_per_key)
                .max(64)
                .next_power_of_two()
                / 64;
            self.filter.resize(words, 0);
            for slot in slots.iter().filter(|s| s.len != 0) {
                let (word, mask) = Self::filter_bit(words, slot.key);
                self.filter[word] |= mask;
            }
        }
        *self.filter_skips.get_mut() = 0;
        *self.filter_false_positives.get_mut() = 0;
        self.slots = slots;
        self.overflow.clear();
        self.csr_rows = rows;
        self.rows_indexed = rows;
        self.distinct = distinct;
    }

    /// Appends rows `rows_indexed..rows` to the overflow map, keeping the
    /// distinct count and the fingerprint filter in sync.
    fn extend(&mut self, terms: &[PackedTerm], arity: usize, cols: ColSet, rows: RowId) {
        for row in self.rows_indexed..rows {
            let key = Self::key_of(terms, arity, cols, row);
            let slots = &self.slots;
            match self.overflow.entry(key) {
                std::collections::hash_map::Entry::Vacant(slot) => {
                    // Only a key new to the overflow can be new overall —
                    // the CSR probe is not worth running otherwise.
                    let in_csr = !slots.is_empty() && slots[Self::slot_index(slots, key)].len != 0;
                    if !in_csr {
                        self.distinct += 1;
                    }
                    slot.insert(vec![row]);
                }
                std::collections::hash_map::Entry::Occupied(mut slot) => slot.get_mut().push(row),
            }
            if !self.filter.is_empty() {
                let (word, mask) = Self::filter_bit(self.filter.len(), key);
                self.filter[word] |= mask;
            }
        }
        self.rows_indexed = rows;
    }

    /// Adaptive filter sizing from the **observed** miss rates: when the
    /// measured false-positive rate of the fingerprint filter — misses that
    /// passed the filter, over all misses — exceeds **twice** the
    /// provisioned target rate of `1 / filter_bits_per_key`, the per-key
    /// provisioning doubles (up to [`FILTER_MAX_BITS_PER_KEY`]) and the
    /// filter alone is rebuilt. Sustained degradation (e.g. a long overflow
    /// tail crowding the bit array, or adversarial key mixes) therefore
    /// self-corrects, while a healthy filter never pays a rebuild.
    ///
    /// Every decision consumes the miss window (the counters reset), so a
    /// resize is only ever triggered by evidence gathered against the
    /// *current* provisioning. Runs under `&mut self` only — see the call
    /// site in [`KeyIndex::ensure`] for why that keeps results and counters
    /// deterministic across thread counts.
    fn maybe_grow_filter(&mut self) {
        if self.filter.is_empty() {
            return;
        }
        let skips = *self.filter_skips.get_mut();
        let false_positives = *self.filter_false_positives.get_mut();
        let misses = skips + false_positives;
        if misses < FILTER_RESIZE_MIN_MISSES {
            return;
        }
        *self.filter_skips.get_mut() = 0;
        *self.filter_false_positives.get_mut() = 0;
        // rate > 2 / bits  ⟺  fp * bits > 2 * misses (integer-exact).
        let degraded = false_positives * self.filter_bits_per_key as u64 > 2 * misses;
        if !degraded || self.filter_bits_per_key >= FILTER_MAX_BITS_PER_KEY {
            return;
        }
        self.filter_bits_per_key *= 2;
        self.rebuild_filter();
    }

    /// Rebuilds the fingerprint filter alone — slot table, arena and
    /// overflow map untouched — at the current per-key provisioning, from
    /// the CSR keys plus the unmerged overflow keys.
    fn rebuild_filter(&mut self) {
        let words = (self.distinct * self.filter_bits_per_key)
            .max(64)
            .next_power_of_two()
            / 64;
        self.filter.clear();
        self.filter.resize(words, 0);
        for slot in self.slots.iter().filter(|s| s.len != 0) {
            let (word, mask) = Self::filter_bit(words, slot.key);
            self.filter[word] |= mask;
        }
        for &key in self.overflow.keys() {
            let (word, mask) = Self::filter_bit(words, key);
            self.filter[word] |= mask;
        }
    }

    /// The candidate rows of `key`: the CSR bucket plus the overflow bucket
    /// (globally ascending). The fingerprint filter is consulted first — a
    /// clear bit proves the key absent without touching the table, reported
    /// via [`Candidates::skipped_by_filter`]. The slot position comes from
    /// the cheap multiplicative [`hash_u64`]; the filter bit (only computed
    /// for large, filtered tables) from the avalanched [`mix_u64`]. The
    /// overflow map is only consulted while unmerged appends exist.
    #[inline]
    fn lookup(&self, key: u64) -> Candidates<'_> {
        if !self.filter.is_empty() {
            let (word, mask) = Self::filter_bit(self.filter.len(), key);
            if self.filter[word] & mask == 0 {
                // A proven miss: evidence that the filter is earning its
                // keep (the denominator of the measured FP rate).
                self.filter_skips.fetch_add(1, Ordering::Relaxed);
                return Candidates {
                    csr: &[],
                    overflow: &[],
                    filtered: true,
                };
            }
        }
        let hash = hash_u64(key);
        let csr = if self.slots.is_empty() {
            &[][..]
        } else {
            let slot = &self.slots[Self::slot_index_hashed(&self.slots, key, hash)];
            if slot.len == 0 {
                &[]
            } else {
                &self.arena[slot.offset as usize..(slot.offset + slot.len) as usize]
            }
        };
        let overflow = if self.overflow.is_empty() {
            &[][..]
        } else {
            self.overflow.get(&key).map(Vec::as_slice).unwrap_or(&[])
        };
        if !self.filter.is_empty() && csr.is_empty() && overflow.is_empty() {
            // The filter passed a key that has no rows: a false positive.
            // Counted on the miss path only, so hits stay untouched.
            self.filter_false_positives.fetch_add(1, Ordering::Relaxed);
        }
        Candidates {
            csr,
            overflow,
            filtered: false,
        }
    }

    /// Heap bytes of the slot table, arena, filter and overflow buffers.
    fn heap_bytes(&self) -> usize {
        self.slots.len() * size_of::<IndexSlot>()
            + self.arena.len() * size_of::<RowId>()
            + self.filter.len() * size_of::<u64>()
            + self
                .overflow
                .values()
                .map(|v| v.len() * size_of::<RowId>() + size_of::<(u64, Vec<RowId>)>())
                .sum::<usize>()
    }
}

/// Borrowed view of one probe's candidate rows: the CSR slice plus the
/// overflow slice of the probed bucket. All CSR ids precede all overflow ids
/// and each part is ascending, so [`Candidates::iter`] enumerates globally
/// ascending row ids — the order the deterministic merge phases rely on.
pub struct Candidates<'a> {
    csr: &'a [RowId],
    overflow: &'a [RowId],
    filtered: bool,
}

impl Candidates<'_> {
    /// Number of candidate rows.
    #[inline]
    pub fn len(&self) -> usize {
        self.csr.len() + self.overflow.len()
    }

    /// `true` iff the probed key has no rows.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.csr.is_empty() && self.overflow.is_empty()
    }

    /// The candidate row ids, in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = RowId> + '_ {
        self.csr.iter().chain(self.overflow.iter()).copied()
    }

    /// The CSR part of the candidates (rows merged into the arena). All of
    /// these precede every [`Candidates::appended`] id; the kernel's inner
    /// loops consume the two parts as plain slices so the per-candidate
    /// iteration stays branch-free.
    #[inline]
    pub fn merged(&self) -> &[RowId] {
        self.csr
    }

    /// The overflow part of the candidates (rows appended since the last
    /// CSR rebuild), ascending, all larger than every merged id.
    #[inline]
    pub fn appended(&self) -> &[RowId] {
        self.overflow
    }

    /// `true` iff the fingerprint filter proved the key absent before the
    /// slot table was even probed (the skip the `misses_filtered` counters
    /// report). The candidate list is empty either way, so filtering never
    /// changes a result.
    #[inline]
    pub fn skipped_by_filter(&self) -> bool {
        self.filtered
    }
}

/// One relation of an instance: a flat, dense, append-only table of packed
/// rows.
#[derive(Debug)]
pub struct Relation {
    predicate: Predicate,
    arity: usize,
    /// Row-major packed storage: row `i` is `terms[i*arity .. (i+1)*arity]`.
    terms: Vec<PackedTerm>,
    /// Row-level dedup: open-addressed `row hash → row id` slots.
    dedup: DedupTable,
    /// Per-column lazy key indexes (an `RwLock` each, so probes can build
    /// them on demand behind `&self` — including concurrently from the
    /// parallel evaluator's worker threads).
    columns: Vec<RwLock<KeyIndex>>,
    /// Composite key indexes, created on first demand per column set. The
    /// outer lock only guards the listing; probes clone the per-index `Arc`
    /// and drop the list guard before locking the index itself (see the
    /// module docs for why that keeps re-entrant probes deadlock-free).
    composites: RwLock<Vec<(ColSet, Arc<RwLock<KeyIndex>>)>>,
}

impl Clone for Relation {
    fn clone(&self) -> Relation {
        Relation {
            predicate: self.predicate,
            arity: self.arity,
            terms: self.terms.clone(),
            dedup: self.dedup.clone(),
            columns: self
                .columns
                .iter()
                .map(|c| RwLock::new(c.read().expect("key index lock poisoned").clone()))
                .collect(),
            // Deep-clone the composite indexes so the clone shares no state
            // with the original (matching the per-column behaviour).
            composites: RwLock::new(
                self.composites
                    .read()
                    .expect("composite index list lock poisoned")
                    .iter()
                    .map(|(cols, index)| {
                        (
                            *cols,
                            Arc::new(RwLock::new(
                                index.read().expect("key index lock poisoned").clone(),
                            )),
                        )
                    })
                    .collect(),
            ),
        }
    }
}

impl Relation {
    fn new(predicate: Predicate, arity: usize) -> Relation {
        Relation {
            predicate,
            arity,
            terms: Vec::new(),
            dedup: DedupTable::default(),
            columns: (0..arity).map(|_| RwLock::default()).collect(),
            composites: RwLock::default(),
        }
    }

    /// The relation's predicate.
    pub fn predicate(&self) -> Predicate {
        self.predicate
    }

    /// The arity all rows share.
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        // A 0-ary relation holds at most one (empty) row; track via dedup.
        self.terms
            .len()
            .checked_div(self.arity)
            .unwrap_or(self.dedup.len())
    }

    /// `true` iff the relation holds no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of rows as a [`RowId`] — also the id the next inserted row
    /// would receive, i.e. the relation's current **watermark**. Inserts
    /// enforce the u32 capacity bound (see [`ModelError::CapacityExceeded`]),
    /// so the count of *stored* rows always fits.
    pub fn row_count(&self) -> RowId {
        RowId::try_from(self.len()).expect("insert enforces the u32 row-id capacity bound")
    }

    /// Shard of row `id` under content hashing: the row's dedup hash reduced
    /// modulo `shards`. Used by the parallel evaluator to hash-partition a
    /// delta row range by join key so the partition depends only on the data,
    /// never on the thread count.
    pub fn row_shard(&self, id: RowId, shards: usize) -> usize {
        (row_hash(self.row(id)) % shards.max(1) as u64) as usize
    }

    /// The packed terms of row `id`.
    pub fn row(&self, id: RowId) -> &[PackedTerm] {
        let start = id as usize * self.arity;
        &self.terms[start..start + self.arity]
    }

    /// The terms of row `id`, unpacked into a fresh vector. Convenience for
    /// non-hot paths; the kernel works on [`Relation::row`] directly.
    pub fn row_terms(&self, id: RowId) -> Vec<Term> {
        self.row(id).iter().map(|p| p.unpack()).collect()
    }

    /// Iterates over all rows as packed slices.
    pub fn rows(&self) -> impl Iterator<Item = &[PackedTerm]> {
        // `chunks_exact(0)` panics, so special-case arity 0 (rows are empty).
        let arity = self.arity.max(1);
        self.terms
            .chunks_exact(arity)
            .take(self.len())
            .chain(std::iter::repeat_n(
                &[][..],
                if self.arity == 0 { self.len() } else { 0 },
            ))
    }

    /// Materialises row `id` as an [`Atom`].
    pub fn atom(&self, id: RowId) -> Atom {
        Atom {
            predicate: self.predicate,
            terms: self.row_terms(id),
        }
    }

    /// Finds the row id of an exact packed row, if present.
    pub fn find_packed_row(&self, row: &[PackedTerm]) -> Option<RowId> {
        if row.len() != self.arity {
            return None;
        }
        self.dedup.find(row_hash(row), |id| self.row(id) == row)
    }

    /// Finds the row id of an exact row of terms, if present. Terms that
    /// cannot be packed (variables, dictionary overflow) occur in no
    /// relation, so the answer for them is `None`.
    pub fn find_row(&self, row: &[Term]) -> Option<RowId> {
        if row.len() != self.arity {
            return None;
        }
        let mut packed = Vec::with_capacity(row.len());
        for t in row {
            packed.push(PackedTerm::pack(*t)?);
        }
        self.find_packed_row(&packed)
    }

    /// `true` iff the exact row is present.
    pub fn contains_row(&self, row: &[Term]) -> bool {
        self.find_row(row).is_some()
    }

    /// `true` iff the exact packed row is present. Lock-free probe of the
    /// dedup table — this is what the parallel evaluator's workers use to
    /// pre-dedup their derivation batches against the frozen instance.
    pub fn contains_packed_row(&self, row: &[PackedTerm]) -> bool {
        self.find_packed_row(row).is_some()
    }

    /// Appends a row if it is not already present; returns the row id and
    /// whether it was newly inserted. Fails with
    /// [`ModelError::CapacityExceeded`] once the u32 row-id space is full.
    fn insert_row(&mut self, row: &[PackedTerm]) -> Result<(RowId, bool), ModelError> {
        debug_assert_eq!(row.len(), self.arity);
        let hash = row_hash(row);
        if let Some(id) = self.dedup.find(hash, |id| self.row(id) == row) {
            return Ok((id, false));
        }
        let id = checked_row_id(self.len(), self.predicate)?;
        self.terms.extend_from_slice(row);
        self.dedup.insert(hash, id);
        Ok((id, true))
    }

    /// Brings the key index behind `lock` up to date with the current rows.
    ///
    /// Deadlock-freedom: rows grow only under `&mut self`, so within a probe
    /// session (`&self`) an index goes stale→fresh at most once, and a
    /// long-lived read guard ([`Relation::with_key_matching_rows`] holds one
    /// across its callback, which may recursively probe the same index) is
    /// only ever acquired on an index that was *fresh* under that same
    /// guard. The remaining hazard would be a thread that saw the index
    /// stale, lost the race to another builder, and then **block-waited**
    /// on the write lock of the now-fresh index: on writer-preferring
    /// `RwLock` implementations the queued writer would make a re-entrant
    /// read block behind it — deadlock. Hence builders never block-wait:
    /// they `try_write`, and on contention re-check freshness and yield.
    /// A failed `try_write` means either another builder is finishing (the
    /// re-check will see fresh) or transient check-guards are draining, so
    /// the loop terminates; no writer ever queues behind a held read guard.
    fn ensure_key_index(&self, lock: &RwLock<KeyIndex>, cols: ColSet) {
        let rows = self.row_count();
        loop {
            if lock.read().expect("key index lock poisoned").rows_indexed == rows {
                return;
            }
            match lock.try_write() {
                Ok(mut index) => {
                    index.ensure(&self.terms, self.arity, cols, rows);
                    return;
                }
                Err(std::sync::TryLockError::WouldBlock) => std::thread::yield_now(),
                Err(std::sync::TryLockError::Poisoned(_)) => {
                    panic!("key index lock poisoned")
                }
            }
        }
    }

    /// The composite index of `cols`, created empty on first demand. Only
    /// the (short-lived) listing guard is taken here; the caller locks the
    /// returned index itself. List writers follow the same never-block-wait
    /// discipline as the index builders.
    fn composite_index(&self, cols: ColSet) -> Arc<RwLock<KeyIndex>> {
        loop {
            {
                let entries = self
                    .composites
                    .read()
                    .expect("composite index list lock poisoned");
                if let Some((_, index)) = entries.iter().find(|(c, _)| *c == cols) {
                    return Arc::clone(index);
                }
            }
            match self.composites.try_write() {
                Ok(mut entries) => {
                    if !entries.iter().any(|(c, _)| *c == cols) {
                        entries.push((cols, Arc::default()));
                    }
                }
                Err(std::sync::TryLockError::WouldBlock) => std::thread::yield_now(),
                Err(std::sync::TryLockError::Poisoned(_)) => {
                    panic!("composite index list lock poisoned")
                }
            }
        }
    }

    /// Probe core shared by the single-column and composite entry points:
    /// fast-path read when the index is fresh, build/extend otherwise, then
    /// hand the candidates to `f` under the index's read lock (which `f` may
    /// hold across recursive probes — see [`Relation::ensure_key_index`]).
    #[inline]
    fn with_index_lookup<R>(
        &self,
        lock: &RwLock<KeyIndex>,
        cols: ColSet,
        key: u64,
        f: impl FnOnce(Candidates<'_>) -> R,
    ) -> R {
        let rows = self.row_count();
        {
            // Fast path: one uncontended read lock when the index is fresh.
            let index = lock.read().expect("key index lock poisoned");
            if index.rows_indexed == rows {
                return f(index.lookup(key));
            }
        }
        self.ensure_key_index(lock, cols);
        let index = lock.read().expect("key index lock poisoned");
        f(index.lookup(key))
    }

    /// Calls `f` with the candidate rows whose `col`-th packed term equals
    /// `key` (no allocation; the column's key index is built or extended on
    /// first use). The index's read lock is held for the duration of `f`,
    /// which may recursively probe this or other indexes (see
    /// `Relation::ensure_key_index` for why that cannot deadlock).
    #[inline]
    pub fn with_matching_rows<R>(
        &self,
        col: usize,
        key: PackedTerm,
        f: impl FnOnce(Candidates<'_>) -> R,
    ) -> R {
        assert!(col < self.arity, "column out of bounds");
        // The single-column fused key is just the raw packed value.
        self.with_index_lookup(
            &self.columns[col],
            ColSet::single(col),
            u64::from(key.raw()),
            f,
        )
    }

    /// Calls `f` with the candidate rows whose columns at `cols` fuse to
    /// `key` (see [`fuse_key`]; `key` must be fused from the packed terms in
    /// ascending column order). Single-column sets route to the per-column
    /// index slot; larger sets use the lazily-created composite index. This
    /// is the probe entry point of the kernel's composite plan steps.
    #[inline]
    pub fn with_key_matching_rows<R>(
        &self,
        cols: ColSet,
        key: u64,
        f: impl FnOnce(Candidates<'_>) -> R,
    ) -> R {
        let mut iter = cols.iter();
        let first = iter.next().expect("column sets are non-empty");
        if cols.len() == 1 {
            assert!(first < self.arity, "column out of bounds");
            return self.with_index_lookup(&self.columns[first], cols, key, f);
        }
        assert!(
            iter.all(|c| c < self.arity) && first < self.arity,
            "column out of bounds"
        );
        let index = self.composite_index(cols);
        self.with_index_lookup(&index, cols, key, f)
    }

    /// Number of rows whose `col`-th term equals `term` (selectivity probes
    /// outside the kernel; builds the column's key index on demand).
    /// Unpackable terms match no stored row.
    pub fn matching_count(&self, col: usize, term: Term) -> usize {
        match PackedTerm::pack(term) {
            Some(key) => self.matching_count_packed(col, key),
            None => 0,
        }
    }

    /// Number of rows whose `col`-th packed term equals `key` (the join
    /// kernel's selectivity probe).
    pub fn matching_count_packed(&self, col: usize, key: PackedTerm) -> usize {
        self.with_matching_rows(col, key, |ids| ids.len())
    }

    /// Number of rows whose columns at `cols` fuse to `key` (the planner's
    /// exact-count probe for all-rigid composite bound sets).
    pub fn key_matching_count(&self, cols: ColSet, key: u64) -> usize {
        self.with_key_matching_rows(cols, key, |ids| ids.len())
    }

    /// Number of distinct packed keys in `col` (builds the column's key
    /// index on demand). `len / distinct_count` is the average probe
    /// fan-out the join planner uses to estimate build/probe selectivity
    /// before any binding is known. The count is **memoised** in the index
    /// — maintained incrementally as appends are indexed and invalidated by
    /// the append watermark — so repeated planner invocations over a frozen
    /// instance pay one lock acquisition, not a recount.
    pub fn distinct_count(&self, col: usize) -> usize {
        assert!(col < self.arity, "column out of bounds");
        self.key_distinct_count(ColSet::single(col))
    }

    /// Number of distinct fused keys over `cols` (builds the key index on
    /// demand; memoised exactly like [`Relation::distinct_count`]). This is
    /// what the planner scores multi-column bound sets with.
    pub fn key_distinct_count(&self, cols: ColSet) -> usize {
        let mut iter = cols.iter();
        let first = iter.next().expect("column sets are non-empty");
        assert!(
            iter.all(|c| c < self.arity) && first < self.arity,
            "column out of bounds"
        );
        if cols.len() == 1 {
            self.ensure_key_index(&self.columns[first], cols);
            return self.columns[first]
                .read()
                .expect("key index lock poisoned")
                .distinct;
        }
        let index = self.composite_index(cols);
        self.ensure_key_index(&index, cols);
        let distinct = index.read().expect("key index lock poisoned").distinct;
        distinct
    }

    /// Heap bytes currently held by this relation's key indexes (column and
    /// composite), fingerprint filters and dedup table — the per-workload
    /// `index_bytes` the benchmark harness reports.
    pub fn index_bytes(&self) -> usize {
        let mut bytes = self.dedup.heap_bytes();
        for column in &self.columns {
            bytes += column.read().expect("key index lock poisoned").heap_bytes();
        }
        let composites = self
            .composites
            .read()
            .expect("composite index list lock poisoned");
        for (_, index) in composites.iter() {
            bytes += index.read().expect("key index lock poisoned").heap_bytes();
        }
        bytes
    }
}

/// A finite set of atoms over constants and labelled nulls, stored as one
/// columnar [`Relation`] per predicate.
#[derive(Clone, Default)]
pub struct Instance {
    relations: FxHashMap<Predicate, Relation>,
    len: usize,
    /// Reusable pack buffer for the term-level insert path, so repeated
    /// `insert` / `insert_terms` calls (the chase and executor apply phases)
    /// do not allocate per fact.
    pack_scratch: Vec<PackedTerm>,
}

impl Instance {
    /// Creates an empty instance.
    pub fn new() -> Instance {
        Instance::default()
    }

    /// Number of atoms.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` iff the instance has no atoms.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The relation of a predicate, if it occurs in the instance.
    pub fn relation(&self, p: Predicate) -> Option<&Relation> {
        self.relations.get(&p)
    }

    /// Inserts an atom; returns `true` if it was not already present.
    /// Returns an error if the atom contains a variable or if its arity
    /// conflicts with earlier atoms over the same predicate.
    pub fn insert(&mut self, atom: Atom) -> Result<bool, ModelError> {
        self.insert_terms(atom.predicate, &atom.terms)
    }

    /// Inserts a fact given as a predicate and a term slice, without
    /// requiring a materialised [`Atom`]. Returns `true` if newly inserted.
    pub fn insert_terms(
        &mut self,
        predicate: Predicate,
        terms: &[Term],
    ) -> Result<bool, ModelError> {
        let mut scratch = std::mem::take(&mut self.pack_scratch);
        let result = pack_row_into(predicate, terms, &mut scratch)
            .and_then(|()| self.insert_packed(predicate, &scratch));
        self.pack_scratch = scratch;
        result
    }

    /// Inserts one already-packed row. Returns `true` if newly inserted.
    pub fn insert_packed(
        &mut self,
        predicate: Predicate,
        row: &[PackedTerm],
    ) -> Result<bool, ModelError> {
        let rel = self
            .relations
            .entry(predicate)
            .or_insert_with(|| Relation::new(predicate, row.len()));
        if rel.arity != row.len() {
            return Err(ModelError::ArityMismatch {
                predicate: predicate.name().to_string(),
                expected: rel.arity,
                found: row.len(),
            });
        }
        let (_, inserted) = rel.insert_row(row)?;
        if inserted {
            self.len += 1;
        }
        Ok(inserted)
    }

    /// Batched insert: adds `rows` (a row-major packed slice holding a
    /// multiple of `arity` terms) to `predicate`'s relation through the
    /// row-level dedup, returning the number of rows that were newly
    /// inserted.
    ///
    /// The relation lookup and arity check are done once for the whole batch
    /// (packed rows are ground by construction), and insertion order follows
    /// slice order, so the parallel evaluator's merge step assigns the same
    /// row ids a sequential run would. `arity` must be positive; 0-ary facts
    /// go through [`Instance::insert_terms`].
    pub fn insert_batch(
        &mut self,
        predicate: Predicate,
        arity: usize,
        rows: &[PackedTerm],
    ) -> Result<usize, ModelError> {
        assert!(arity > 0, "insert_batch requires positive arity");
        assert_eq!(rows.len() % arity, 0, "rows must hold whole rows");
        let rel = self
            .relations
            .entry(predicate)
            .or_insert_with(|| Relation::new(predicate, arity));
        if rel.arity != arity {
            return Err(ModelError::ArityMismatch {
                predicate: predicate.name().to_string(),
                expected: rel.arity,
                found: arity,
            });
        }
        let mut inserted = 0;
        for row in rows.chunks_exact(arity) {
            // Count each row as it lands so `self.len` stays consistent with
            // the relation even if a later row fails (e.g. on capacity).
            if rel.insert_row(row)?.1 {
                inserted += 1;
                self.len += 1;
            }
        }
        Ok(inserted)
    }

    /// A new instance holding deep copies of the relations of exactly the
    /// requested predicates (absent predicates are skipped). Cloned
    /// relations keep their row ids, indexes and fingerprint filters, so a
    /// projection of a served snapshot is immediately probe-ready.
    ///
    /// This is the scratch-instance primitive of the demand-driven query
    /// path: a magic-sets evaluation copies only the extensional relations
    /// its rewritten program reads out of the (immutable, `Arc`-shared)
    /// snapshot and derives into the copy, so concurrent queries never
    /// contend on shared state.
    pub fn project(&self, predicates: impl IntoIterator<Item = Predicate>) -> Instance {
        let mut projected = Instance::new();
        for p in predicates {
            if let Some(rel) = self.relations.get(&p) {
                if projected.relations.contains_key(&p) {
                    continue;
                }
                projected.len += rel.len();
                projected.relations.insert(p, rel.clone());
            }
        }
        projected
    }

    /// `true` iff the atom is present.
    pub fn contains(&self, atom: &Atom) -> bool {
        self.relations
            .get(&atom.predicate)
            .is_some_and(|rel| rel.contains_row(&atom.terms))
    }

    /// All atoms with the given predicate, materialised lazily.
    pub fn atoms_with_predicate(&self, p: Predicate) -> impl Iterator<Item = Atom> + '_ {
        self.relations.get(&p).into_iter().flat_map(|rel| {
            rel.rows().map(move |row| Atom {
                predicate: rel.predicate,
                terms: row.iter().map(|t| t.unpack()).collect(),
            })
        })
    }

    /// Atoms with predicate `p` whose argument at `position` equals `term`.
    ///
    /// Convenience wrapper over the column's key index that materialises the
    /// matching atoms while the borrowed candidate view is live — no
    /// intermediate row-id vector is cloned; the join kernel and other hot
    /// paths use [`Relation::with_matching_rows`] directly and never
    /// materialise atoms at all.
    pub fn atoms_matching(
        &self,
        p: Predicate,
        position: usize,
        term: Term,
    ) -> impl Iterator<Item = Atom> + '_ {
        let rel = self.relations.get(&p).filter(|rel| position < rel.arity());
        let atoms: Vec<Atom> = match (rel, PackedTerm::pack(term)) {
            (Some(rel), Some(key)) => rel.with_matching_rows(position, key, |ids| {
                ids.iter().map(|id| rel.atom(id)).collect()
            }),
            _ => Vec::new(),
        };
        atoms.into_iter()
    }

    /// Iterates over all atoms (materialised lazily).
    pub fn iter(&self) -> impl Iterator<Item = Atom> + '_ {
        self.relations.values().flat_map(|rel| {
            rel.rows().map(move |row| Atom {
                predicate: rel.predicate,
                terms: row.iter().map(|t| t.unpack()).collect(),
            })
        })
    }

    /// The predicates present in the instance.
    pub fn predicates(&self) -> impl Iterator<Item = Predicate> + '_ {
        self.relations.keys().copied()
    }

    /// The relations of the instance.
    pub fn relations(&self) -> impl Iterator<Item = &Relation> {
        self.relations.values()
    }

    /// The arity of a predicate, if it occurs in the instance.
    pub fn arity_of(&self, p: Predicate) -> Option<usize> {
        self.relations.get(&p).map(Relation::arity)
    }

    /// The active domain: all constants and nulls occurring in the instance.
    pub fn active_domain(&self) -> BTreeSet<Term> {
        self.relations
            .values()
            .flat_map(|rel| rel.terms.iter().map(|t| t.unpack()))
            .collect()
    }

    /// All constants occurring in the instance.
    pub fn constants(&self) -> BTreeSet<Symbol> {
        self.relations
            .values()
            .flat_map(|rel| rel.terms.iter().filter_map(|t| t.as_const()))
            .collect()
    }

    /// All labelled nulls occurring in the instance.
    pub fn nulls(&self) -> BTreeSet<NullId> {
        self.relations
            .values()
            .flat_map(|rel| rel.terms.iter().filter_map(|t| t.as_null()))
            .collect()
    }

    /// Number of atoms per predicate, useful for join-order heuristics.
    pub fn relation_size(&self, p: Predicate) -> usize {
        self.relations.get(&p).map(Relation::len).unwrap_or(0)
    }

    /// Heap bytes currently held by all relations' key indexes, fingerprint
    /// filters and dedup tables (see [`Relation::index_bytes`]).
    pub fn index_bytes(&self) -> usize {
        self.relations.values().map(Relation::index_bytes).sum()
    }

    /// A canonical serialisation of the per-relation row layout: for each
    /// predicate (sorted by name) the debug-printed rows **in row-id
    /// order**. Two instances with equal layouts are bit-identical up to the
    /// relation map's iteration order — the property the parallel
    /// evaluator's determinism tests assert between thread counts.
    pub fn row_layout(&self) -> Vec<(String, Vec<String>)> {
        let mut layout: Vec<(String, Vec<String>)> = self
            .relations
            .values()
            .map(|rel| {
                (
                    rel.predicate.name().to_string(),
                    rel.rows().map(|row| format!("{row:?}")).collect(),
                )
            })
            .collect();
        layout.sort();
        layout
    }

    /// [`Instance::row_layout`] with each relation's rows additionally
    /// sorted: equal sorted layouts mean the same per-relation row **sets**,
    /// regardless of row-id order. This is the comparison between
    /// materialisations whose row ids legitimately differ — e.g. an
    /// incrementally maintained instance (ids encode arrival order) against
    /// a from-scratch evaluation of the same facts.
    pub fn sorted_row_layout(&self) -> Vec<(String, Vec<String>)> {
        let mut layout = self.row_layout();
        for (_, rows) in layout.iter_mut() {
            rows.sort();
        }
        layout
    }
}

impl FromIterator<Atom> for Instance {
    /// Builds an instance, panicking on invalid atoms; use [`Instance::insert`]
    /// for fallible construction.
    fn from_iter<I: IntoIterator<Item = Atom>>(iter: I) -> Self {
        let mut inst = Instance::new();
        for a in iter {
            inst.insert(a)
                .expect("invalid atom while building instance");
        }
        inst
    }
}

impl fmt::Debug for Instance {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut atoms: Vec<String> = self.iter().map(|a| a.to_string()).collect();
        atoms.sort();
        write!(f, "Instance{{{}}}", atoms.join(", "))
    }
}

/// A database: an instance containing only ground facts.
#[derive(Clone, Default, Debug)]
pub struct Database {
    instance: Instance,
}

impl Database {
    /// Creates an empty database.
    pub fn new() -> Database {
        Database::default()
    }

    /// Inserts a fact. Fails if the atom is not ground or the arity conflicts.
    pub fn insert(&mut self, fact: Atom) -> Result<bool, ModelError> {
        if !fact.is_ground() {
            return Err(ModelError::NonGroundFact(fact.to_string()));
        }
        self.instance.insert(fact)
    }

    /// Convenience constructor from `(predicate, constants)` tuples.
    pub fn from_facts<'a>(
        facts: impl IntoIterator<Item = (&'a str, Vec<&'a str>)>,
    ) -> Result<Database, ModelError> {
        let mut db = Database::new();
        for (p, args) in facts {
            db.insert(Atom::fact(p, &args))?;
        }
        Ok(db)
    }

    /// The underlying instance view of the database.
    pub fn as_instance(&self) -> &Instance {
        &self.instance
    }

    /// Converts the database into an instance (for chasing).
    pub fn into_instance(self) -> Instance {
        self.instance
    }

    /// Number of facts.
    pub fn len(&self) -> usize {
        self.instance.len()
    }

    /// `true` iff the database is empty.
    pub fn is_empty(&self) -> bool {
        self.instance.is_empty()
    }

    /// `true` iff the fact is present.
    pub fn contains(&self, fact: &Atom) -> bool {
        self.instance.contains(fact)
    }

    /// Iterates over all facts (materialised lazily).
    pub fn iter(&self) -> impl Iterator<Item = Atom> + '_ {
        self.instance.iter()
    }

    /// All facts with the given predicate (materialised lazily).
    pub fn facts_with_predicate(&self, p: Predicate) -> impl Iterator<Item = Atom> + '_ {
        self.instance.atoms_with_predicate(p)
    }

    /// The constants of the active domain `dom(D)`.
    pub fn domain(&self) -> BTreeSet<Symbol> {
        self.instance.constants()
    }
}

impl FromIterator<Atom> for Database {
    fn from_iter<I: IntoIterator<Item = Atom>>(iter: I) -> Self {
        let mut db = Database::new();
        for a in iter {
            db.insert(a).expect("invalid fact while building database");
        }
        db
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::term::Variable;

    #[test]
    fn insert_deduplicates() {
        let mut db = Database::new();
        assert!(db.insert(Atom::fact("edge", &["a", "b"])).unwrap());
        assert!(!db.insert(Atom::fact("edge", &["a", "b"])).unwrap());
        assert_eq!(db.len(), 1);
    }

    #[test]
    fn non_ground_facts_are_rejected() {
        let mut db = Database::new();
        let bad = Atom::new("edge", vec![Term::constant("a"), Term::variable("X")]);
        assert!(matches!(db.insert(bad), Err(ModelError::NonGroundFact(_))));
    }

    #[test]
    fn arity_conflicts_are_rejected() {
        let mut db = Database::new();
        db.insert(Atom::fact("p", &["a"])).unwrap();
        assert!(matches!(
            db.insert(Atom::fact("p", &["a", "b"])),
            Err(ModelError::ArityMismatch { .. })
        ));
    }

    #[test]
    fn instances_accept_nulls_but_not_variables() {
        let mut inst = Instance::new();
        inst.insert(Atom::new(
            "r",
            vec![Term::constant("a"), Term::Null(NullId(0))],
        ))
        .unwrap();
        assert_eq!(inst.len(), 1);
        assert_eq!(inst.nulls().len(), 1);

        let bad = Atom::new(
            "r",
            vec![Term::Var(Variable::new("X")), Term::constant("a")],
        );
        assert!(inst.insert(bad).is_err());
    }

    #[test]
    fn position_index_finds_matching_atoms() {
        let mut db = Database::new();
        db.insert(Atom::fact("edge", &["a", "b"])).unwrap();
        db.insert(Atom::fact("edge", &["a", "c"])).unwrap();
        db.insert(Atom::fact("edge", &["b", "c"])).unwrap();
        let inst = db.as_instance();
        let from_a: Vec<Atom> = inst
            .atoms_matching(Predicate::new("edge"), 0, Term::constant("a"))
            .collect();
        assert_eq!(from_a.len(), 2);
        let to_c = inst
            .atoms_matching(Predicate::new("edge"), 1, Term::constant("c"))
            .count();
        assert_eq!(to_c, 2);
        assert_eq!(
            inst.atoms_matching(Predicate::new("edge"), 0, Term::constant("z"))
                .count(),
            0
        );
    }

    #[test]
    fn column_indexes_are_extended_after_later_inserts() {
        let mut inst = Instance::new();
        inst.insert(Atom::fact("edge", &["a", "b"])).unwrap();
        // First probe builds the column-0 index.
        assert_eq!(
            inst.relation(Predicate::new("edge"))
                .unwrap()
                .matching_count(0, Term::constant("a")),
            1
        );
        // Later inserts must be visible to subsequent probes.
        inst.insert(Atom::fact("edge", &["a", "c"])).unwrap();
        assert_eq!(
            inst.relation(Predicate::new("edge"))
                .unwrap()
                .matching_count(0, Term::constant("a")),
            2
        );
    }

    #[test]
    fn row_ids_are_stable_and_dense() {
        let mut inst = Instance::new();
        inst.insert(Atom::fact("edge", &["a", "b"])).unwrap();
        inst.insert(Atom::fact("edge", &["b", "c"])).unwrap();
        inst.insert(Atom::fact("edge", &["a", "b"])).unwrap(); // duplicate
        let rel = inst.relation(Predicate::new("edge")).unwrap();
        assert_eq!(rel.len(), 2);
        assert_eq!(
            rel.find_row(&[Term::constant("a"), Term::constant("b")]),
            Some(0)
        );
        assert_eq!(
            rel.find_row(&[Term::constant("b"), Term::constant("c")]),
            Some(1)
        );
        assert_eq!(rel.atom(1), Atom::fact("edge", &["b", "c"]));
    }

    #[test]
    fn checked_row_ids_report_capacity_instead_of_truncating() {
        // 2^32 rows cannot be materialised in a test, so exercise the helper
        // the insert path uses directly.
        let p = Predicate::new("big");
        assert_eq!(checked_row_id(7, p), Ok(7));
        // The top id is reserved (PREMATCHED_ROW sentinel, and the row count
        // itself must stay representable), so the last valid id is MAX - 1.
        assert_eq!(checked_row_id(u32::MAX as usize - 1, p), Ok(u32::MAX - 1));
        let err = checked_row_id(u32::MAX as usize, p).unwrap_err();
        assert!(
            matches!(err, ModelError::CapacityExceeded { rows, .. } if rows == u32::MAX as usize)
        );
        assert!(err.to_string().contains("big"));
    }

    fn pk(t: Term) -> PackedTerm {
        PackedTerm::pack(t).expect("ground term packs")
    }

    #[test]
    fn insert_batch_dedups_and_counts_new_rows() {
        let mut inst = Instance::new();
        inst.insert(Atom::fact("edge", &["a", "b"])).unwrap();
        let p = Predicate::new("edge");
        let rows = vec![
            pk(Term::constant("a")),
            pk(Term::constant("b")), // duplicate of the existing row
            pk(Term::constant("b")),
            pk(Term::constant("c")),
            pk(Term::constant("b")),
            pk(Term::constant("c")), // duplicate within the batch
        ];
        assert_eq!(inst.insert_batch(p, 2, &rows).unwrap(), 1);
        assert_eq!(inst.len(), 2);
        let rel = inst.relation(p).unwrap();
        assert_eq!(
            rel.find_row(&[Term::constant("b"), Term::constant("c")]),
            Some(1)
        );
    }

    #[test]
    fn insert_batch_rejects_arity_conflicts() {
        let mut inst = Instance::new();
        inst.insert(Atom::fact("p", &["a"])).unwrap();
        let bad_arity = inst.insert_batch(
            Predicate::new("p"),
            2,
            &[pk(Term::constant("a")), pk(Term::constant("b"))],
        );
        assert!(matches!(bad_arity, Err(ModelError::ArityMismatch { .. })));
    }

    #[test]
    fn unpackable_terms_are_reported_not_stored() {
        let mut inst = Instance::new();
        // A null id past the 30-bit dictionary cannot be packed.
        let overflowing = Term::Null(NullId(1 << 40));
        let err = inst
            .insert(Atom::new("r", vec![Term::constant("a"), overflowing]))
            .unwrap_err();
        assert!(matches!(err, ModelError::PackOverflow { .. }));
        assert_eq!(inst.len(), 0);
        // Variables still report the groundness error, not overflow.
        let bad = inst
            .insert_terms(Predicate::new("r"), &[Term::variable("X")])
            .unwrap_err();
        assert!(matches!(bad, ModelError::NonGroundFact(_)));
        // Lookups with unpackable terms are simply misses.
        inst.insert(Atom::fact("r", &["a", "b"])).unwrap();
        let rel = inst.relation(Predicate::new("r")).unwrap();
        assert_eq!(rel.find_row(&[Term::constant("a"), overflowing]), None);
        assert_eq!(rel.matching_count(1, overflowing), 0);
    }

    #[test]
    fn distinct_count_reports_column_cardinality() {
        let db = Database::from_facts([
            ("edge", vec!["a", "b"]),
            ("edge", vec!["a", "c"]),
            ("edge", vec!["b", "c"]),
        ])
        .unwrap();
        let rel = db.as_instance().relation(Predicate::new("edge")).unwrap();
        assert_eq!(rel.distinct_count(0), 2); // a, b
        assert_eq!(rel.distinct_count(1), 2); // b, c
    }

    #[test]
    fn instances_are_shareable_across_threads() {
        let mut inst = Instance::new();
        inst.insert(Atom::fact("edge", &["a", "b"])).unwrap();
        inst.insert(Atom::fact("edge", &["a", "c"])).unwrap();
        let shared = &inst;
        let counts: Vec<usize> = std::thread::scope(|scope| {
            (0..4)
                .map(|_| {
                    scope.spawn(|| {
                        // Concurrent probes build the lazy index under the lock.
                        shared
                            .relation(Predicate::new("edge"))
                            .unwrap()
                            .matching_count(0, Term::constant("a"))
                    })
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().unwrap())
                .collect()
        });
        assert_eq!(counts, vec![2; 4]);
    }

    #[test]
    fn colsets_canonicalise_and_fuse_losslessly() {
        assert_eq!(ColSet::new(&[2, 0]), ColSet::new(&[0, 2]));
        assert_eq!(ColSet::single(1).len(), 1);
        assert_eq!(
            ColSet::new(&[2, 0, 1]).iter().collect::<Vec<_>>(),
            vec![0, 1, 2]
        );
        // Two-column fusion is injective: distinct pairs → distinct keys,
        // and order matters (fuse(a,b) ≠ fuse(b,a) for a ≠ b).
        let a = pk(Term::constant("fuse_a"));
        let b = pk(Term::constant("fuse_b"));
        assert_ne!(fuse_key(&[a, b]), fuse_key(&[b, a]));
        assert_ne!(fuse_key(&[a, b]), fuse_key(&[a, a]));
        assert_eq!(fuse_key(&[a, b]), fuse_key(&[a, b]));
        assert_eq!(fuse_key(&[a]), u64::from(a.raw()));
    }

    /// Inserts `edge(prefix_i, suffix_{i % spread})` rows.
    fn spread_relation(n: usize, spread: usize) -> Instance {
        let mut inst = Instance::new();
        for i in 0..n {
            inst.insert(Atom::fact(
                "edge",
                &[
                    format!("s{}", i % spread).as_str(),
                    format!("o{i}").as_str(),
                ],
            ))
            .unwrap();
        }
        inst
    }

    #[test]
    fn composite_probes_return_exactly_the_fused_matches() {
        let mut inst = Instance::new();
        for (a, b, c) in [
            ("x", "y", "1"),
            ("x", "y", "2"),
            ("x", "z", "3"),
            ("w", "y", "4"),
        ] {
            inst.insert(Atom::fact("r", &[a, b, c])).unwrap();
        }
        let rel = inst.relation(Predicate::new("r")).unwrap();
        let cols = ColSet::new(&[0, 1]);
        let key = fuse_key(&[pk(Term::constant("x")), pk(Term::constant("y"))]);
        let rows: Vec<RowId> = rel.with_key_matching_rows(cols, key, |c| c.iter().collect());
        assert_eq!(rows, vec![0, 1]);
        assert_eq!(rel.key_matching_count(cols, key), 2);
        assert_eq!(rel.key_distinct_count(cols), 3); // (x,y), (x,z), (w,y)
                                                     // Absent composite keys probe empty.
        let miss = fuse_key(&[pk(Term::constant("w")), pk(Term::constant("z"))]);
        assert_eq!(rel.key_matching_count(cols, miss), 0);
        // A 3-column set is exact on this data too (the fold is verified by
        // callers, but distinct triples here do not collide).
        let cols3 = ColSet::new(&[0, 1, 2]);
        let key3 = fuse_key(&[
            pk(Term::constant("x")),
            pk(Term::constant("y")),
            pk(Term::constant("2")),
        ]);
        let rows3: Vec<RowId> = rel.with_key_matching_rows(cols3, key3, |c| c.iter().collect());
        assert_eq!(rows3, vec![1]);
        assert_eq!(rel.key_distinct_count(cols3), 4);
    }

    #[test]
    fn composite_indexes_see_rows_appended_after_the_first_probe() {
        let mut inst = Instance::new();
        inst.insert(Atom::fact("r", &["a", "b", "1"])).unwrap();
        let cols = ColSet::new(&[0, 1]);
        let key = fuse_key(&[pk(Term::constant("a")), pk(Term::constant("b"))]);
        assert_eq!(
            inst.relation(Predicate::new("r"))
                .unwrap()
                .key_matching_count(cols, key),
            1
        );
        // Appends after the first probe extend the index (overflow path).
        inst.insert(Atom::fact("r", &["a", "b", "2"])).unwrap();
        let rel = inst.relation(Predicate::new("r")).unwrap();
        assert_eq!(rel.key_matching_count(cols, key), 2);
        let rows: Vec<RowId> = rel.with_key_matching_rows(cols, key, |c| c.iter().collect());
        assert_eq!(
            rows,
            vec![0, 1],
            "candidates stay ascending across CSR + overflow"
        );
    }

    #[test]
    fn csr_rebuild_after_appends_preserves_candidates_and_counts() {
        // Build the index early, then append enough rows to cross the
        // geometric rebuild threshold several times; every probe in between
        // must see exactly the rows inserted so far, in ascending order.
        let mut inst = Instance::new();
        let p = Predicate::new("edge");
        let spread = 7usize;
        for i in 0..400 {
            inst.insert(Atom::fact(
                "edge",
                &[
                    format!("s{}", i % spread).as_str(),
                    format!("o{i}").as_str(),
                ],
            ))
            .unwrap();
            if i % 13 == 0 {
                // Probe mid-growth: forces alternating extend/rebuild.
                let rel = inst.relation(p).unwrap();
                for s in 0..spread {
                    let key = pk(Term::constant(&format!("s{s}")));
                    let expected: Vec<RowId> = (0..=i as RowId)
                        .filter(|&r| r as usize % spread == s)
                        .collect();
                    let got: Vec<RowId> = rel.with_matching_rows(0, key, |c| c.iter().collect());
                    assert_eq!(got, expected, "column 0 = s{s} after {i} inserts");
                }
                assert_eq!(rel.distinct_count(0), spread.min(i + 1));
            }
        }
        // The unique column has one key per row.
        assert_eq!(inst.relation(p).unwrap().distinct_count(1), 400);
    }

    #[test]
    fn fingerprint_filters_never_change_results() {
        // Small index: below the size gate, no filter — misses still probe
        // the slot table and correctly find nothing.
        let small = spread_relation(200, 5);
        let rel = small.relation(Predicate::new("edge")).unwrap();
        assert_eq!(rel.distinct_count(0), 5);
        let (len, skipped) = rel.with_matching_rows(0, pk(Term::constant("absent")), |c| {
            (c.len(), c.skipped_by_filter())
        });
        assert_eq!((len, skipped), (0, false), "small indexes carry no filter");

        // Large index (enough distinct keys to cross the size gate): misses
        // are mostly filter-skipped, and never with a result change.
        let inst = spread_relation(5000, 2500);
        let rel = inst.relation(Predicate::new("edge")).unwrap();
        assert_eq!(rel.distinct_count(0), 2500);
        let mut filtered = 0usize;
        for i in 0..500 {
            let key = pk(Term::constant(&format!("absent_{i}")));
            let (len, skipped) =
                rel.with_matching_rows(0, key, |c| (c.len(), c.skipped_by_filter()));
            assert_eq!(len, 0, "absent key absent_{i} must have no candidates");
            filtered += usize::from(skipped);
        }
        assert!(filtered > 350, "only {filtered}/500 misses were filtered");
        // Present keys are never filtered away.
        let hit = rel.with_matching_rows(0, pk(Term::constant("s3")), |c| c.len());
        assert_eq!(hit, 2);
    }

    /// Plants a synthetic miss window in the column-0 filter counters, as if
    /// `skips + false_positives` miss probes had been observed against the
    /// current filter.
    fn plant_filter_window(inst: &mut Instance, skips: u64, false_positives: u64) {
        let rel = inst
            .relations
            .get_mut(&Predicate::new("edge"))
            .expect("edge relation exists");
        let mut index = rel.columns[0].write().unwrap();
        *index.filter_skips.get_mut() = skips;
        *index.filter_false_positives.get_mut() = false_positives;
    }

    fn filter_shape(inst: &Instance) -> (usize, usize) {
        let rel = inst.relation(Predicate::new("edge")).unwrap();
        let index = rel.columns[0].read().unwrap();
        (index.filter.len(), index.filter_bits_per_key)
    }

    #[test]
    fn adaptive_filter_grows_when_the_measured_fp_rate_degrades() {
        // 2500 distinct keys → the slot table crosses the filter size gate.
        let mut inst = spread_relation(5000, 2500);
        assert_eq!(
            inst.relation(Predicate::new("edge"))
                .unwrap()
                .distinct_count(0),
            2500
        );
        let (words_before, bits_before) = filter_shape(&inst);
        assert!(words_before > 0, "large index carries a filter");
        assert_eq!(bits_before, FILTER_BITS_PER_KEY);

        // A degraded window: half of all observed misses passed the filter
        // (measured FP rate 1/2 ≫ the 2/16 trigger threshold).
        plant_filter_window(&mut inst, 600, 600);
        // The next index update re-examines the window and resizes before
        // indexing the appended row.
        inst.insert(Atom::fact("edge", &["s0", "fresh"])).unwrap();
        let rel = inst.relation(Predicate::new("edge")).unwrap();
        assert_eq!(rel.matching_count(0, Term::constant("s0")), 3);
        let (words_after, bits_after) = filter_shape(&inst);
        assert_eq!(bits_after, 2 * FILTER_BITS_PER_KEY, "provisioning doubles");
        assert!(words_after > words_before, "the bit array actually grew");

        // Behaviour is preserved across the resize: present keys are found,
        // absent keys have no candidates and are (mostly) still skipped.
        let rel = inst.relation(Predicate::new("edge")).unwrap();
        assert_eq!(rel.matching_count(0, Term::constant("s7")), 2);
        let mut filtered = 0usize;
        for i in 0..200 {
            let key = pk(Term::constant(&format!("resized_absent_{i}")));
            let (len, skipped) =
                rel.with_matching_rows(0, key, |c| (c.len(), c.skipped_by_filter()));
            assert_eq!(len, 0);
            filtered += usize::from(skipped);
        }
        assert!(
            filtered > 150,
            "only {filtered}/200 misses were filtered after the resize"
        );
    }

    #[test]
    fn adaptive_filter_leaves_healthy_windows_alone() {
        let mut inst = spread_relation(5000, 2500);
        assert_eq!(
            inst.relation(Predicate::new("edge"))
                .unwrap()
                .distinct_count(0),
            2500
        );
        let before = filter_shape(&inst);

        // A healthy window: rate 1/20, under the 2/16 trigger — consumed
        // without a resize.
        plant_filter_window(&mut inst, 1140, 60);
        inst.insert(Atom::fact("edge", &["s0", "healthy"])).unwrap();
        let rel = inst.relation(Predicate::new("edge")).unwrap();
        assert_eq!(rel.matching_count(0, Term::constant("s0")), 3);
        assert_eq!(filter_shape(&inst), before, "healthy rates never resize");
        {
            let index = rel.columns[0].read().unwrap();
            assert_eq!(
                index.filter_skips.load(Ordering::Relaxed)
                    + index.filter_false_positives.load(Ordering::Relaxed),
                0,
                "a decided window is consumed"
            );
        }

        // Too small a window (even at a terrible rate): no decision at all,
        // the evidence keeps accumulating.
        plant_filter_window(&mut inst, 8, 8);
        inst.insert(Atom::fact("edge", &["s0", "tiny_window"]))
            .unwrap();
        let rel = inst.relation(Predicate::new("edge")).unwrap();
        assert_eq!(rel.matching_count(0, Term::constant("s0")), 4);
        assert_eq!(filter_shape(&inst), before);
        {
            let index = rel.columns[0].read().unwrap();
            assert!(
                index.filter_skips.load(Ordering::Relaxed) >= 8,
                "an undecided window is retained"
            );
        }
    }

    #[test]
    fn adaptive_filter_growth_is_capped() {
        let mut inst = spread_relation(5000, 2500);
        assert_eq!(
            inst.relation(Predicate::new("edge"))
                .unwrap()
                .distinct_count(0),
            2500
        );
        {
            let rel = inst.relations.get_mut(&Predicate::new("edge")).unwrap();
            let mut index = rel.columns[0].write().unwrap();
            index.filter_bits_per_key = FILTER_MAX_BITS_PER_KEY;
            index.rebuild_filter();
        }
        let before = filter_shape(&inst);
        plant_filter_window(&mut inst, 0, 1000); // catastrophic rate
        inst.insert(Atom::fact("edge", &["s0", "capped"])).unwrap();
        let rel = inst.relation(Predicate::new("edge")).unwrap();
        assert_eq!(rel.matching_count(0, Term::constant("s0")), 3);
        assert_eq!(
            filter_shape(&inst),
            before,
            "provisioning never grows past the cap"
        );
    }

    #[test]
    fn csr_tables_resolve_home_slot_collisions() {
        // Enough distinct keys that several must share open-addressing home
        // slots (1500 keys in a ≤4096-slot table): every bucket has to
        // resolve through the probe chain, in and after a rebuild. This is
        // the regression guard for treating the slot `len` as both the
        // occupancy flag and a scratch cursor.
        let mut inst = Instance::new();
        let p = Predicate::new("wide");
        for i in 0..1500 {
            inst.insert(Atom::fact(
                "wide",
                &[format!("k{i}").as_str(), format!("g{}", i % 3).as_str()],
            ))
            .unwrap();
        }
        let rel = inst.relation(p).unwrap();
        assert_eq!(rel.distinct_count(0), 1500);
        for i in 0..1500 {
            let key = pk(Term::constant(&format!("k{i}")));
            let got: Vec<RowId> = rel.with_matching_rows(0, key, |c| c.iter().collect());
            assert_eq!(got, vec![i as RowId], "bucket of k{i}");
        }
        // The composite (0, 1) pair is unique per row too.
        let cols = ColSet::new(&[0, 1]);
        assert_eq!(rel.key_distinct_count(cols), 1500);
        for i in (0..1500).step_by(97) {
            let key = fuse_key(&[
                pk(Term::constant(&format!("k{i}"))),
                pk(Term::constant(&format!("g{}", i % 3))),
            ]);
            assert_eq!(rel.key_matching_count(cols, key), 1, "pair of k{i}");
        }
    }

    #[test]
    fn dedup_table_survives_growth_and_collocates_colliding_hashes() {
        let mut inst = Instance::new();
        let p = Predicate::new("n");
        for i in 0..300 {
            assert!(inst
                .insert(Atom::fact("n", &[format!("v{i}").as_str()]))
                .unwrap());
        }
        // Every row findable, every duplicate rejected, ids dense.
        for i in 0..300 {
            let row = [Term::constant(&format!("v{i}"))];
            assert_eq!(inst.relation(p).unwrap().find_row(&row), Some(i as RowId));
            assert!(!inst
                .insert(Atom::fact("n", &[format!("v{i}").as_str()]))
                .unwrap());
        }
        assert_eq!(inst.len(), 300);
    }

    #[test]
    fn index_bytes_reports_live_index_memory() {
        let inst = spread_relation(100, 4);
        let before = inst.index_bytes();
        assert!(before > 0, "the dedup table alone occupies heap");
        let rel = inst.relation(Predicate::new("edge")).unwrap();
        rel.distinct_count(0);
        rel.key_distinct_count(ColSet::new(&[0, 1]));
        assert!(
            inst.index_bytes() > before,
            "built indexes must be accounted"
        );
    }

    #[test]
    fn domain_collects_constants() {
        let db = Database::from_facts([("edge", vec!["a", "b"]), ("node", vec!["c"])]).unwrap();
        let dom = db.domain();
        assert_eq!(dom.len(), 3);
        assert!(dom.contains(&Symbol::new("a")));
        assert!(dom.contains(&Symbol::new("c")));
    }

    #[test]
    fn relation_size_reports_per_predicate_counts() {
        let db = Database::from_facts([
            ("edge", vec!["a", "b"]),
            ("edge", vec!["b", "c"]),
            ("node", vec!["a"]),
        ])
        .unwrap();
        assert_eq!(db.as_instance().relation_size(Predicate::new("edge")), 2);
        assert_eq!(db.as_instance().relation_size(Predicate::new("node")), 1);
        assert_eq!(db.as_instance().relation_size(Predicate::new("zzz")), 0);
    }
}
