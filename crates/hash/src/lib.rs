//! # msc-hash — customized hash functions for multiway branch encoding
//!
//! §3.2.3 of the paper: "each possible 'pc' value is assigned a bit; thus,
//! a `globalor` of the 'pc' values from all processors determines the
//! aggregate", and the resulting aggregate keys an N-way branch. The
//! aggregate values are sparse bitmasks, so a naive jump table over them
//! would need 2^S entries. The companion report \[Die92a\] ("Coding Multiway
//! Branches Using Customized Hash Functions") instead searches for a tiny
//! *perfect* hash that maps exactly the case values that can occur onto a
//! dense range, so the compiler emits a jump table — visible in the paper's
//! Listing 5 as switches like
//!
//! ```c
//! switch (((-apc) >> 5) & 3) { ... }
//! switch ((((apc >> 6) ^ apc) & 15)) { ... }
//! ```
//!
//! [`find_hash`] reproduces that search: it tries, in increasing order of
//! evaluation cost and table size, the hash families observed in the
//! generated code (shift-mask of `x` or `-x`, shift-xor-mask,
//! shift-add-mask, multiply-shift-mask) and returns the first expression
//! that is injective on the key set. [`HashExpr::eval`] lets the SIMD
//! simulator execute the dispatch; [`HashExpr::render`] prints the C-like
//! form for MPL-style output.

use std::fmt;

/// A candidate hash expression over a `u64` key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HashExpr {
    /// `((±x) >> shift) & mask` — the `((-apc) >> 5) & 3` family.
    ShiftMask {
        /// Negate (two's complement) before shifting.
        neg: bool,
        /// Right shift amount.
        shift: u32,
        /// Final mask (table size − 1).
        mask: u64,
    },
    /// `((x >> shift) ^ x) & mask` — the `((apc >> 6) ^ apc) & 15` family.
    XorFold {
        /// Right shift amount.
        shift: u32,
        /// Final mask.
        mask: u64,
    },
    /// `((x >> shift) + x) & mask`.
    AddFold {
        /// Right shift amount.
        shift: u32,
        /// Final mask.
        mask: u64,
    },
    /// `((x * mul) >> shift) & mask` — multiplicative hashing fallback.
    MulShift {
        /// Odd multiplier.
        mul: u64,
        /// Right shift amount.
        shift: u32,
        /// Final mask.
        mask: u64,
    },
}

impl HashExpr {
    /// Evaluate the hash on a key.
    #[inline]
    pub fn eval(&self, x: u64) -> u64 {
        match *self {
            HashExpr::ShiftMask { neg, shift, mask } => {
                let v = if neg { x.wrapping_neg() } else { x };
                (v >> shift) & mask
            }
            HashExpr::XorFold { shift, mask } => ((x >> shift) ^ x) & mask,
            HashExpr::AddFold { shift, mask } => ((x >> shift).wrapping_add(x)) & mask,
            HashExpr::MulShift { mul, shift, mask } => (x.wrapping_mul(mul) >> shift) & mask,
        }
    }

    /// The final mask (table size − 1).
    fn mask(&self) -> u64 {
        match *self {
            HashExpr::ShiftMask { mask, .. }
            | HashExpr::XorFold { mask, .. }
            | HashExpr::AddFold { mask, .. }
            | HashExpr::MulShift { mask, .. } => mask,
        }
    }

    /// Size of the jump table this hash indexes (mask + 1).
    pub fn table_size(&self) -> usize {
        self.mask() as usize + 1
    }

    /// Number of ALU operations needed to evaluate the hash (the cost the
    /// search minimizes after table size).
    pub fn op_count(&self) -> u32 {
        match *self {
            HashExpr::ShiftMask { neg, shift, .. } => {
                1 + neg as u32 + (shift > 0) as u32 // mask + optional neg + optional shift
            }
            HashExpr::XorFold { shift, .. } | HashExpr::AddFold { shift, .. } => {
                2 + (shift > 0) as u32
            }
            HashExpr::MulShift { shift, .. } => 2 + (shift > 0) as u32,
        }
    }

    /// Render as a C-like expression over the variable name `var`
    /// (matching the style of the paper's Listing 5).
    pub fn render(&self, var: &str) -> String {
        match *self {
            HashExpr::ShiftMask { neg, shift, mask } => {
                let v = if neg {
                    format!("(-{var})")
                } else {
                    var.to_string()
                };
                if shift > 0 {
                    format!("(({v} >> {shift}) & {mask})")
                } else {
                    format!("({v} & {mask})")
                }
            }
            HashExpr::XorFold { shift, mask } => {
                format!("((({var} >> {shift}) ^ {var}) & {mask})")
            }
            HashExpr::AddFold { shift, mask } => {
                format!("((({var} >> {shift}) + {var}) & {mask})")
            }
            HashExpr::MulShift { mul, shift, mask } => {
                format!("((({var} * {mul}u) >> {shift}) & {mask})")
            }
        }
    }
}

impl fmt::Display for HashExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.render("x"))
    }
}

/// A perfect hash for a specific key set: the expression plus the dense
/// dispatch table mapping hash values back to key indices.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PerfectHash {
    /// The hash expression.
    pub expr: HashExpr,
    /// `table[expr.eval(keys[i])] == Some(i)`; slots no key maps to are
    /// `None` (unreachable `switch` cases).
    pub table: Vec<Option<u32>>,
    /// The key set the hash was built for, in input order.
    pub keys: Vec<u64>,
}

impl PerfectHash {
    /// Build the dispatch table of `expr` over `keys` (in input order).
    /// Returns `None` when two keys hash to the same slot, or when the
    /// table would exceed 2^[`MAX_TABLE_BITS`] entries.
    pub fn build(keys: &[u64], expr: HashExpr) -> Option<PerfectHash> {
        if expr.mask() >> MAX_TABLE_BITS != 0 {
            return None;
        }
        let mut table = vec![None; expr.table_size()];
        for (i, &k) in keys.iter().enumerate() {
            let slot = &mut table[expr.eval(k) as usize];
            if slot.is_some() {
                return None;
            }
            *slot = Some(i as u32);
        }
        Some(PerfectHash {
            expr,
            table,
            keys: keys.to_vec(),
        })
    }

    /// Look up which key index `key` maps to. Returns `None` for a value
    /// outside the construction set (dispatching on such a value is a
    /// program bug the simulator reports rather than mis-jumping on).
    pub fn lookup(&self, key: u64) -> Option<u32> {
        let h = self.expr.eval(key) as usize;
        let i = self.table.get(h).copied().flatten()?;
        // Guard against aliasing by values outside the key set.
        (self.keys[i as usize] == key).then_some(i)
    }

    /// Fraction of table slots actually used.
    pub fn load_factor(&self) -> f64 {
        if self.table.is_empty() {
            return 0.0;
        }
        self.table.iter().filter(|e| e.is_some()).count() as f64 / self.table.len() as f64
    }
}

/// Why no hash could be produced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HashError {
    /// The key set was empty.
    NoKeys,
    /// Two identical keys were supplied.
    DuplicateKey(u64),
    /// No tried family/parameter combination was injective within
    /// [`SearchOptions::max_table_bits`].
    NotFound,
    /// [`SearchOptions::max_table_bits`] exceeds [`MAX_TABLE_BITS`].
    TableBitsTooLarge(u32),
}

impl fmt::Display for HashError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HashError::NoKeys => write!(f, "cannot hash an empty key set"),
            HashError::DuplicateKey(k) => write!(f, "duplicate key {k:#x}"),
            HashError::NotFound => write!(f, "no perfect hash found within the search bounds"),
            HashError::TableBitsTooLarge(bits) => write!(
                f,
                "max_table_bits {bits} exceeds the cap of {MAX_TABLE_BITS}"
            ),
        }
    }
}

impl std::error::Error for HashError {}

/// Cap on [`SearchOptions::max_table_bits`]: a 2^24-entry table is
/// already far beyond any dispatch the code generator emits, and the cap
/// bounds both the search's occupancy bitmap and the jump table.
pub const MAX_TABLE_BITS: u32 = 24;

/// Search parameters for [`find_hash_with`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SearchOptions {
    /// Largest table considered, as a power of two (table ≤ 2^max_table_bits).
    /// At most [`MAX_TABLE_BITS`]; larger values are rejected with
    /// [`HashError::TableBitsTooLarge`].
    pub max_table_bits: u32,
    /// Allow the multiplicative family (more ops, but succeeds on
    /// adversarial key sets the folding families miss).
    pub allow_mul: bool,
}

impl Default for SearchOptions {
    fn default() -> Self {
        SearchOptions {
            max_table_bits: 16,
            allow_mul: true,
        }
    }
}

/// Fixed odd multipliers tried by the multiplicative family: the 64-bit
/// golden-ratio constant and a few splitmix64-style mixers. Deterministic
/// so generated code is reproducible.
const MULTIPLIERS: [u64; 6] = [
    0x9e37_79b9_7f4a_7c15,
    0xbf58_476d_1ce4_e5b9,
    0x94d0_49bb_1331_11eb,
    0xff51_afd7_ed55_8ccd,
    0xc4ce_b9fe_1a85_ec53,
    0x2545_f491_4f6c_dd1d,
];

/// Find a minimal perfect hash for `keys` with default search options.
pub fn find_hash(keys: &[u64]) -> Result<PerfectHash, HashError> {
    find_hash_with(keys, SearchOptions::default())
}

/// Find a perfect hash for `keys`: smallest table size first, then fewest
/// ALU ops, mirroring \[Die92a\]'s goal of "mak\[ing\] the case values
/// contiguous so that the compiler will use a jump table".
///
/// Candidates are enumerated lazily in that fixed order and each is
/// tested for injectivity against one reusable occupancy bitmap, so only
/// the winning expression's jump table is ever allocated.
pub fn find_hash_with(keys: &[u64], opts: SearchOptions) -> Result<PerfectHash, HashError> {
    if opts.max_table_bits > MAX_TABLE_BITS {
        return Err(HashError::TableBitsTooLarge(opts.max_table_bits));
    }
    if keys.is_empty() {
        return Err(HashError::NoKeys);
    }
    {
        let mut sorted = keys.to_vec();
        sorted.sort_unstable();
        for w in sorted.windows(2) {
            if w[0] == w[1] {
                return Err(HashError::DuplicateKey(w[0]));
            }
        }
    }
    let min_bits = if keys.len() == 1 {
        0
    } else {
        usize::BITS - (keys.len() - 1).leading_zeros()
    };
    let mut occupied: Vec<u64> = Vec::new();
    for bits in min_bits..=opts.max_table_bits {
        let mask = (1u64 << bits) - 1;
        occupied.resize((1usize << bits).div_ceil(64), 0);
        for expr in candidates(mask, opts.allow_mul) {
            if injective(keys, expr, &mut occupied) {
                return Ok(PerfectHash::build(keys, expr)
                    .expect("an expression injective on the keys builds its table"));
            }
        }
    }
    Err(HashError::NotFound)
}

/// The candidate expressions for one table size, in increasing op-count
/// order: shift-mask of `x`, then of `-x`, shift-xor, shift-add, and
/// (when allowed) multiply-shift for each of [`MULTIPLIERS`].
fn candidates(mask: u64, allow_mul: bool) -> impl Iterator<Item = HashExpr> {
    let shift_mask = |neg| (0..64).map(move |shift| HashExpr::ShiftMask { neg, shift, mask });
    let muls: &[u64] = if allow_mul { &MULTIPLIERS } else { &[] };
    shift_mask(false)
        .chain(shift_mask(true))
        .chain((1..64).map(move |shift| HashExpr::XorFold { shift, mask }))
        .chain((1..64).map(move |shift| HashExpr::AddFold { shift, mask }))
        .chain(muls.iter().flat_map(move |&mul| {
            (0..64)
                .rev()
                .map(move |shift| HashExpr::MulShift { mul, shift, mask })
        }))
}

/// Is `expr` injective on `keys`? `occupied` is an all-zero bitmap of at
/// least `expr.table_size()` bits, and is all-zero again on return: the
/// words this call set bits in are cleared through the keys it inserted.
fn injective(keys: &[u64], expr: HashExpr, occupied: &mut [u64]) -> bool {
    let mut inserted = keys.len();
    for (i, &k) in keys.iter().enumerate() {
        let h = expr.eval(k) as usize;
        let (word, bit) = (h / 64, 1u64 << (h % 64));
        if occupied[word] & bit != 0 {
            inserted = i;
            break;
        }
        occupied[word] |= bit;
    }
    for &k in &keys[..inserted] {
        occupied[expr.eval(k) as usize / 64] = 0;
    }
    inserted == keys.len()
}

/// The search as it was before the occupancy bitmap: one candidate `Vec`
/// per table size and one freshly allocated table per candidate. Kept as
/// the oracle the bitmap search must agree with exactly.
#[cfg(test)]
mod reference {
    use super::*;

    pub fn find_hash_with(keys: &[u64], opts: SearchOptions) -> Result<PerfectHash, HashError> {
        if keys.is_empty() {
            return Err(HashError::NoKeys);
        }
        {
            let mut sorted = keys.to_vec();
            sorted.sort_unstable();
            for w in sorted.windows(2) {
                if w[0] == w[1] {
                    return Err(HashError::DuplicateKey(w[0]));
                }
            }
        }
        let min_bits = if keys.len() == 1 {
            0
        } else {
            usize::BITS - (keys.len() - 1).leading_zeros()
        };
        for bits in min_bits..=opts.max_table_bits {
            let mask = if bits == 0 { 0 } else { (1u64 << bits) - 1 };
            let mut candidates: Vec<HashExpr> = Vec::new();
            for shift in 0..64 {
                candidates.push(HashExpr::ShiftMask {
                    neg: false,
                    shift,
                    mask,
                });
            }
            for shift in 0..64 {
                candidates.push(HashExpr::ShiftMask {
                    neg: true,
                    shift,
                    mask,
                });
            }
            for shift in 1..64 {
                candidates.push(HashExpr::XorFold { shift, mask });
            }
            for shift in 1..64 {
                candidates.push(HashExpr::AddFold { shift, mask });
            }
            if opts.allow_mul {
                for &mul in &MULTIPLIERS {
                    for shift in (0..64).rev() {
                        candidates.push(HashExpr::MulShift { mul, shift, mask });
                    }
                }
            }
            for expr in candidates {
                if let Some(table) = try_build(keys, &expr) {
                    return Ok(PerfectHash {
                        expr,
                        table,
                        keys: keys.to_vec(),
                    });
                }
            }
        }
        Err(HashError::NotFound)
    }

    fn try_build(keys: &[u64], expr: &HashExpr) -> Option<Vec<Option<u32>>> {
        let mut table = vec![None; expr.table_size()];
        for (i, &k) in keys.iter().enumerate() {
            let h = expr.eval(k) as usize;
            if table[h].is_some() {
                return None;
            }
            table[h] = Some(i as u32);
        }
        Some(table)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The aggregate-pc case values at the end of the paper's `ms_0`:
    /// BIT(2)|BIT(6), BIT(6), BIT(2).
    #[test]
    fn listing5_ms0_cases() {
        let keys = [(1u64 << 2) | (1 << 6), 1 << 6, 1 << 2];
        let ph = find_hash(&keys).unwrap();
        assert!(ph.table.len() <= 4, "minimal power-of-two table for 3 keys");
        for (i, &k) in keys.iter().enumerate() {
            assert_eq!(ph.lookup(k), Some(i as u32));
        }
    }

    /// The five-way dispatch at the end of `ms_2_6` / `ms_2_6_9`:
    /// {2,6}, {9}, {6,9}, {2,9}, {2,6,9} as bitmasks.
    #[test]
    fn listing5_five_way_dispatch() {
        let b = |s: &[u32]| s.iter().fold(0u64, |m, &x| m | (1 << x));
        let keys = [b(&[2, 6]), b(&[9]), b(&[6, 9]), b(&[2, 9]), b(&[2, 6, 9])];
        let ph = find_hash(&keys).unwrap();
        assert!(
            ph.table.len() <= 16,
            "paper's generated mask was 15 (table 16)"
        );
        for (i, &k) in keys.iter().enumerate() {
            assert_eq!(ph.lookup(k), Some(i as u32));
        }
    }

    #[test]
    fn single_key_gets_trivial_hash() {
        let ph = find_hash(&[0xdead_beef]).unwrap();
        assert_eq!(ph.table.len(), 1);
        assert_eq!(ph.lookup(0xdead_beef), Some(0));
    }

    #[test]
    fn lookup_rejects_aliasing_foreign_keys() {
        let keys = [1u64 << 2, 1 << 6];
        let ph = find_hash(&keys).unwrap();
        // Some value that is not a key must not silently map to one.
        for foreign in [0u64, 3, (1 << 2) | (1 << 6), u64::MAX] {
            if !keys.contains(&foreign) {
                assert_eq!(ph.lookup(foreign), None, "foreign {foreign:#x} aliased");
            }
        }
    }

    #[test]
    fn table_bits_above_the_cap_are_rejected() {
        for bits in [MAX_TABLE_BITS + 1, 63, 64, u32::MAX] {
            let opts = SearchOptions {
                max_table_bits: bits,
                allow_mul: true,
            };
            assert_eq!(
                find_hash_with(&[1, 2, 3], opts),
                Err(HashError::TableBitsTooLarge(bits))
            );
        }
        let at_cap = SearchOptions {
            max_table_bits: MAX_TABLE_BITS,
            allow_mul: true,
        };
        assert!(find_hash_with(&[1, 2, 3], at_cap).is_ok());
    }

    #[test]
    fn build_rejects_collisions_and_oversized_tables() {
        let expr = HashExpr::ShiftMask {
            neg: false,
            shift: 0,
            mask: 3,
        };
        let ph = PerfectHash::build(&[2, 1], expr).unwrap();
        assert_eq!(ph.table, vec![None, Some(1), Some(0), None]);
        assert_eq!(ph.keys, vec![2, 1]);
        assert_eq!(PerfectHash::build(&[1, 5], expr), None, "1 and 5 collide");
        let huge = HashExpr::ShiftMask {
            neg: false,
            shift: 0,
            mask: u64::MAX,
        };
        assert_eq!(PerfectHash::build(&[1], huge), None);
    }

    /// The bitmap search agrees with the reference search on seeded
    /// random key sets, and the sample reaches the cases the lazy
    /// enumeration must order correctly: a win past the first table
    /// size, and a win in the multiplicative family.
    #[test]
    fn search_matches_reference_across_levels_and_families() {
        let mut rng = proptest::test_runner::TestRng::deterministic("hash-oracle");
        let (mut second_level, mut mul_wins) = (0, 0);
        for case in 0..300 {
            let n = 2 + (rng.next_u64() % 40) as usize;
            // Alternate full-width keys with small dense ones.
            let span = if case % 2 == 0 {
                u64::MAX
            } else {
                4 * n as u64
            };
            let mut keys: Vec<u64> = (0..n).map(|_| rng.next_u64() % span).collect();
            keys.sort_unstable();
            keys.dedup();
            let opts = SearchOptions::default();
            let got = find_hash_with(&keys, opts);
            assert_eq!(got, reference::find_hash_with(&keys, opts), "keys {keys:?}");
            let ph = got.unwrap();
            second_level += usize::from(ph.table.len() >= 2 * keys.len().next_power_of_two());
            mul_wins += usize::from(matches!(ph.expr, HashExpr::MulShift { .. }));
        }
        assert!(
            second_level > 0 && mul_wins > 0,
            "{second_level} {mul_wins}"
        );
    }

    #[test]
    fn empty_and_duplicate_keys_error() {
        assert_eq!(find_hash(&[]), Err(HashError::NoKeys));
        assert_eq!(find_hash(&[5, 5]), Err(HashError::DuplicateKey(5)));
    }

    #[test]
    fn dense_small_keys_hash_identity_like() {
        let keys: Vec<u64> = (0..8).collect();
        let ph = find_hash(&keys).unwrap();
        assert_eq!(ph.table.len(), 8);
        assert_eq!(
            ph.expr.op_count(),
            1,
            "identity-with-mask should win: {}",
            ph.expr
        );
    }

    #[test]
    fn sparse_bitmask_keys_always_succeed() {
        // Every aggregate of up to 3 bits from a 12-bit pc space.
        let mut keys = vec![];
        for a in 0..12u32 {
            for b in a..12 {
                for c in b..12 {
                    keys.push((1u64 << a) | (1 << b) | (1 << c));
                }
            }
        }
        keys.sort_unstable();
        keys.dedup();
        let ph = find_hash(&keys).unwrap();
        for (i, &k) in keys.iter().enumerate() {
            assert_eq!(ph.lookup(k), Some(i as u32));
        }
    }

    #[test]
    fn render_matches_listing5_style() {
        let e = HashExpr::ShiftMask {
            neg: true,
            shift: 5,
            mask: 3,
        };
        assert_eq!(e.render("apc"), "(((-apc) >> 5) & 3)");
        let e = HashExpr::XorFold { shift: 6, mask: 15 };
        assert_eq!(e.render("apc"), "(((apc >> 6) ^ apc) & 15)");
    }

    #[test]
    fn load_factor_counts_used_slots() {
        let keys = [1u64 << 2, 1 << 6, (1 << 2) | (1 << 6)];
        let ph = find_hash(&keys).unwrap();
        let used = ph.table.iter().filter(|e| e.is_some()).count();
        assert_eq!(used, 3);
        assert!((ph.load_factor() - 3.0 / ph.table.len() as f64).abs() < 1e-12);
    }

    #[test]
    fn op_count_ordering() {
        assert!(
            HashExpr::ShiftMask {
                neg: false,
                shift: 0,
                mask: 7
            }
            .op_count()
                < HashExpr::XorFold { shift: 3, mask: 7 }.op_count()
        );
    }

    #[test]
    fn search_without_mul_family_still_works_on_bitmasks() {
        let keys = [1u64 << 3, 1 << 7, (1 << 3) | (1 << 7), 1 << 11];
        let ph = find_hash_with(
            &keys,
            SearchOptions {
                max_table_bits: 8,
                allow_mul: false,
            },
        )
        .unwrap();
        for (i, &k) in keys.iter().enumerate() {
            assert_eq!(ph.lookup(k), Some(i as u32));
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Any set of distinct keys gets a correct perfect hash: every key
        /// maps to its own index, and the table size is a power of two no
        /// smaller than the key count.
        #[test]
        fn perfect_on_arbitrary_distinct_keys(
            mut keys in prop::collection::hash_set(any::<u64>(), 1..48)
                .prop_map(|s| s.into_iter().collect::<Vec<u64>>())
        ) {
            keys.sort_unstable();
            let ph = find_hash(&keys).unwrap();
            prop_assert!(ph.table.len().is_power_of_two());
            prop_assert!(ph.table.len() >= keys.len());
            for (i, &k) in keys.iter().enumerate() {
                prop_assert_eq!(ph.lookup(k), Some(i as u32));
            }
        }

        /// The bitmap search returns exactly what the reference search
        /// returns (expression, table and keys, or the same error) for any
        /// key set and search bounds.
        #[test]
        fn search_matches_reference(
            keys in prop::collection::vec(any::<u64>(), 1..48),
            dense in any::<bool>(),
            max_table_bits in 0u32..=12,
            allow_mul in any::<bool>(),
        ) {
            // Dense keys crowd a small range, so the smallest table size
            // usually fails and the search climbs levels.
            let keys: Vec<u64> = if dense {
                let span = 2 * keys.len() as u64;
                let mut seen = std::collections::HashSet::new();
                keys.iter().map(|k| k % span).filter(|&k| seen.insert(k)).collect()
            } else {
                keys
            };
            let opts = SearchOptions { max_table_bits, allow_mul };
            prop_assert_eq!(
                find_hash_with(&keys, opts),
                reference::find_hash_with(&keys, opts)
            );
        }

        /// Evaluation is deterministic and within the table bounds.
        #[test]
        fn eval_in_bounds(
            keys in prop::collection::hash_set(any::<u64>(), 2..32)
                .prop_map(|s| s.into_iter().collect::<Vec<u64>>()),
            probe in any::<u64>(),
        ) {
            let ph = find_hash(&keys).unwrap();
            let h = ph.expr.eval(probe);
            prop_assert!((h as usize) < ph.table.len());
            prop_assert_eq!(ph.expr.eval(probe), h);
        }

        /// Sparse bitmask keys (the real meta-dispatch workload) always
        /// hash, even with the multiplicative family disabled growth room.
        #[test]
        fn bitmask_keys_hash(bit_sets in prop::collection::hash_set(
            prop::collection::vec(0u32..20, 1..4), 1..24)
        ) {
            let mut keys: Vec<u64> = bit_sets
                .into_iter()
                .map(|bits| bits.into_iter().fold(0u64, |m, b| m | (1 << b)))
                .collect();
            keys.sort_unstable();
            keys.dedup();
            let ph = find_hash(&keys).unwrap();
            for (i, &k) in keys.iter().enumerate() {
                prop_assert_eq!(ph.lookup(k), Some(i as u32));
            }
        }
    }
}
