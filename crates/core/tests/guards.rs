//! Guard-boundary tests.
//!
//! The explosion guards (`max_successor_sets`, `max_multi_arity`) must
//! fire at *exactly* the configured limit: a limit equal to the true
//! workload passes, a limit one below it errors. A `Multi` terminator of
//! arity k expanded from the singleton start meta state yields exactly
//! 2^k − 1 candidate successor sets in base mode, which makes the boundary
//! computable in closed form.

use msc_core::{convert, ConvertError, ConvertMode, ConvertOptions, StateSet};
use msc_ir::{MimdGraph, MimdState, StateId, Terminator};
use proptest::prelude::*;

/// Start state with a k-ary `Multi` over k distinct halt states.
fn fan_graph(k: u32) -> MimdGraph {
    let mut g = MimdGraph::new();
    let start = g.add(MimdState::new(vec![], Terminator::Halt));
    let targets: Vec<StateId> = (0..k)
        .map(|_| g.add(MimdState::new(vec![], Terminator::Halt)))
        .collect();
    g.state_mut(start).term = Terminator::Multi(targets);
    g.start = start;
    g
}

proptest! {
    #[test]
    fn successor_set_guard_fires_exactly_at_limit(k in 2u32..=6) {
        let g = fan_graph(k);
        let exact = (1usize << k) - 1; // all non-empty subsets of k targets

        let mut opts = ConvertOptions::base();
        opts.max_successor_sets = exact;
        prop_assert!(convert(&g, &opts).is_ok());

        opts.max_successor_sets = exact - 1;
        let err = convert(&g, &opts).unwrap_err();
        prop_assert_eq!(
            err,
            ConvertError::TooManySuccessorSets {
                meta: StateSet::singleton(g.start),
                limit: exact - 1,
            }
        );
    }

    #[test]
    fn multi_arity_guard_fires_exactly_at_limit(k in 2u32..=8) {
        let g = fan_graph(k);

        let mut opts = ConvertOptions::base();
        opts.max_multi_arity = k as usize;
        prop_assert!(convert(&g, &opts).is_ok());

        opts.max_multi_arity = k as usize - 1;
        let err = convert(&g, &opts).unwrap_err();
        prop_assert_eq!(
            err,
            ConvertError::MultiTooWide { state: g.start, arity: k as usize }
        );
    }

    #[test]
    fn mode_matches(_ in proptest::strategy::Just(())) {
        // Sanity pin: base() and compressed() guard defaults are the
        // documented powers of two.
        let b = ConvertOptions::base();
        prop_assert_eq!(b.max_meta_states, 1 << 20);
        prop_assert_eq!(b.max_successor_sets, 1 << 16);
        prop_assert!(matches!(ConvertOptions::compressed().mode, ConvertMode::Compressed));
    }
}
