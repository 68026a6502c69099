//! # msc-codegen — SIMD coding of the meta-state automaton (§3)
//!
//! "Given a MIMD program that has been converted into a meta-state graph,
//! it is not trivial to find an efficient coding of the meta-state
//! automaton for a SIMD architecture."
//!
//! [`generate`] turns a [`MetaAutomaton`] into an executable
//! [`SimdProgram`]:
//!
//! * each meta state's member bodies become **threads** fed to common
//!   subexpression induction (§3.1, `msc-csi`), producing one guarded
//!   instruction stream in which work shared between members issues once;
//! * member terminators become guarded control instructions (`JumpF`,
//!   `SetPc`, `Halt`, `RetMulti`, `Spawn`), merged when identical;
//! * each multi-successor meta state gets a **hashed multiway dispatch**
//!   (§3.2.3, `msc-hash`) over the `globalor` aggregate of `pc` bits, with
//!   the §3.2.4 barrier adjustment; single-successor states dispatch
//!   directly (§3.2.2), and the compressed-with-barrier pattern becomes a
//!   two-way direct/barrier check;
//! * [`render_mpl`](render::render_mpl) prints the whole program in the
//!   MPL-like style of the paper's Listing 5.

pub mod render;

use msc_core::{MetaAutomaton, MetaId};
use msc_csi::{CsiError, CsiOptions};
use msc_hash::{HashError, HashExpr, PerfectHash, SearchOptions};
use msc_ir::{CostModel, Op, StateId, Terminator};
use msc_simd::{BlockId, Dispatch, GuardedInstr, MetaBlock, SimdInstr, SimdProgram};
use std::collections::HashMap;
use std::fmt;

/// Options controlling code generation.
#[derive(Debug, Clone)]
pub struct GenOptions {
    /// Run common subexpression induction on meta-state bodies (§3.1).
    /// When false, member threads are serialized — the no-CSI baseline the
    /// experiments compare against.
    pub csi: bool,
    /// Cycle cost model (drives CSI's schedule costing and is embedded in
    /// the program for the simulator).
    pub costs: CostModel,
    /// Perfect-hash search bounds for the multiway dispatches.
    pub hash_search: SearchOptions,
}

impl Default for GenOptions {
    fn default() -> Self {
        GenOptions {
            csi: true,
            costs: CostModel::default(),
            hash_search: SearchOptions::default(),
        }
    }
}

impl GenOptions {
    /// Options priced by a machine profile: CSI scheduling and dispatch
    /// accounting use the profile's per-class costs, so the generated
    /// program is costed for the machine it will run on (`mscc sweep`).
    pub fn for_profile(profile: &msc_simd::MachineProfile) -> Self {
        GenOptions {
            costs: profile.costs.clone(),
            ..GenOptions::default()
        }
    }
}

/// Code-generation failures.
#[derive(Debug, Clone, PartialEq)]
pub enum GenError {
    /// A dispatch needed aggregate bits for more than 64 distinct states.
    TooManyDispatchStates {
        /// The meta state.
        meta: MetaId,
        /// Distinct states needing bits.
        states: usize,
    },
    /// The perfect-hash search failed for a dispatch.
    Hash(HashError),
    /// CSI failed (more than 64 members in one meta state).
    Csi(CsiError),
}

impl fmt::Display for GenError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GenError::TooManyDispatchStates { meta, states } => {
                write!(
                    f,
                    "dispatch at {meta} needs {states} aggregate bits (max 64)"
                )
            }
            GenError::Hash(e) => write!(f, "multiway branch encoding failed: {e}"),
            GenError::Csi(e) => write!(f, "common subexpression induction failed: {e}"),
        }
    }
}

impl std::error::Error for GenError {}

impl From<HashError> for GenError {
    fn from(e: HashError) -> Self {
        GenError::Hash(e)
    }
}

impl From<CsiError> for GenError {
    fn from(e: CsiError) -> Self {
        GenError::Csi(e)
    }
}

/// Listing-5-style meta state name: `ms_2_6_9` for members {2,6,9}.
pub fn meta_name(members: &[StateId]) -> String {
    let mut s = String::from("ms");
    for m in members {
        s.push('_');
        s.push_str(&m.0.to_string());
    }
    s
}

/// Generate an executable SIMD program from a converted automaton.
///
/// `poly_words`/`mono_words` give the memory image sizes (from the front
/// end's `msc_lang::Layout` when compiling MIMDC, or whatever the
/// caller allocated for hand-built graphs).
pub fn generate(
    auto: &MetaAutomaton,
    poly_words: u32,
    mono_words: u32,
    opts: &GenOptions,
) -> Result<SimdProgram, GenError> {
    let graph = &auto.graph;
    let mut blocks = Vec::with_capacity(auto.len());
    let barriers: Vec<StateId> = graph.ids().filter(|&s| graph.state(s).barrier).collect();
    let mut hashes = HashMap::new();
    let csi_opts = CsiOptions {
        costs: opts.costs.clone(),
        ..Default::default()
    };

    for (mi, set) in auto.sets.iter().enumerate() {
        let meta = MetaId(mi as u32);
        let members: Vec<StateId> = set.iter().collect();

        // §3.1: the member bodies are the threads of a CSI problem.
        let threads: Vec<&[Op]> = members
            .iter()
            .map(|&m| graph.state(m).ops.as_slice())
            .collect();
        let mut body: Vec<GuardedInstr> = Vec::new();
        if opts.csi {
            let schedule = msc_csi::induce_with(&threads, &csi_opts)?;
            for slot in schedule.slots {
                let guard: Vec<StateId> = members
                    .iter()
                    .enumerate()
                    .filter(|(t, _)| slot.active & (1 << t) != 0)
                    .map(|(_, &m)| m)
                    .collect();
                body.push(GuardedInstr {
                    guard,
                    instr: SimdInstr::Op(slot.op),
                });
            }
        } else {
            for (t, thread) in threads.iter().enumerate() {
                for op in *thread {
                    body.push(GuardedInstr {
                        guard: vec![members[t]],
                        instr: SimdInstr::Op(op.clone()),
                    });
                }
            }
        }

        // Member terminators, merged when identical (e.g. several members
        // halting share one guarded Halt).
        let mut term_instrs: Vec<(SimdInstr, Vec<StateId>)> = Vec::new();
        for &m in &members {
            let instr = match &graph.state(m).term {
                Terminator::Halt => SimdInstr::Halt,
                Terminator::Jump(b) => SimdInstr::SetPc(*b),
                Terminator::Branch { t, f } => SimdInstr::JumpF { t: *t, f: *f },
                Terminator::Multi(v) => SimdInstr::RetMulti(v.clone()),
                Terminator::Spawn { child, next } => SimdInstr::Spawn {
                    child: *child,
                    next: *next,
                },
            };
            if let Some(entry) = term_instrs.iter_mut().find(|(i, _)| *i == instr) {
                entry.1.push(m);
            } else {
                term_instrs.push((instr, vec![m]));
            }
        }
        for (instr, mut guard) in term_instrs {
            guard.sort_unstable();
            body.push(GuardedInstr { guard, instr });
        }

        let dispatch = build_dispatch(auto, meta, &barriers, &mut hashes, opts)?;
        blocks.push(MetaBlock {
            members: members.clone(),
            name: meta_name(&members),
            body,
            dispatch,
        });
    }

    let program = SimdProgram {
        blocks,
        start: BlockId(auto.start.0),
        start_state: graph.start,
        poly_words,
        mono_words,
        costs: opts.costs.clone(),
    };
    debug_assert_eq!(program.validate(), Ok(()));
    Ok(program)
}

/// Build the §3.2 exit encoding for one meta state.
///
/// `barriers` lists every barrier state of the graph; `hashes` memoizes
/// the hash search across the dispatches of one [`generate`] call.
fn build_dispatch(
    auto: &MetaAutomaton,
    meta: MetaId,
    barriers: &[StateId],
    hashes: &mut HashMap<Vec<u64>, HashExpr>,
    opts: &GenOptions,
) -> Result<Dispatch, GenError> {
    let succs = auto.successors(meta);
    let graph = &auto.graph;
    match succs.len() {
        // §3.2.1: terminal.
        0 => Ok(Dispatch::End),
        // §3.2.2: unconditional goto ("all entries to compressed meta
        // states fall into this category").
        1 => Ok(Dispatch::Direct(BlockId(succs[0].0))),
        _ => {
            // Compressed-with-barrier special case (§3.2.4 applied to a
            // §2.5 transition): exactly one all-barrier successor, and the
            // other successor covers every possible non-barrier next state.
            if succs.len() == 2 {
                let is_barrier_set =
                    |m: MetaId| auto.members(m).iter().all(|s| graph.state(s).barrier);
                let (b, c) = (is_barrier_set(succs[0]), is_barrier_set(succs[1]));
                if b != c {
                    let (barrier, cont) = if b {
                        (succs[0], succs[1])
                    } else {
                        (succs[1], succs[0])
                    };
                    // All non-barrier successor states of members:
                    let mut covered = true;
                    for m in auto.members(meta).iter() {
                        for s in graph.state(m).term.successors() {
                            if !graph.state(s).barrier && !auto.members(cont).contains(s) {
                                covered = false;
                            }
                        }
                    }
                    if covered {
                        return Ok(Dispatch::DirectWithBarrier {
                            cont: BlockId(cont.0),
                            barrier: BlockId(barrier.0),
                        });
                    }
                }
            }

            // §3.2.3: hashed multiway branch over the globalor aggregate.
            // Possible pc values at this dispatch: every member's graph
            // successors, every successor meta's members, and any barrier
            // state (lingering waiters keep their pc).
            let mut possible: Vec<StateId> = auto
                .members(meta)
                .iter()
                .flat_map(|m| graph.state(m).term.successors())
                .chain(succs.iter().flat_map(|&sm| auto.members(sm).iter()))
                .chain(barriers.iter().copied())
                .collect();
            possible.sort_unstable();
            possible.dedup();
            if possible.len() > 64 {
                return Err(GenError::TooManyDispatchStates {
                    meta,
                    states: possible.len(),
                });
            }
            // When the whole graph fits in 64 states, use the paper's
            // BIT(state) coding so rendered output matches Listing 5;
            // otherwise a state's bit is its rank among the possible values.
            let small = graph.len() <= 64;
            let bit = |s: StateId| -> u32 {
                if small {
                    s.0
                } else {
                    possible
                        .binary_search(&s)
                        .expect("every aggregated state is a possible pc value")
                        as u32
                }
            };
            let bit_of: Vec<(StateId, u32)> = possible.iter().map(|&s| (s, bit(s))).collect();
            let barrier_mask: u64 = possible
                .iter()
                .filter(|&&s| graph.state(s).barrier)
                .fold(0, |m, &s| m | (1u64 << bit(s)));
            let keys: Vec<u64> = succs
                .iter()
                .map(|&sm| {
                    auto.members(sm)
                        .iter()
                        .fold(0u64, |k, s| k | (1u64 << bit(s)))
                })
                .collect();
            let hash = find_hash_memoized(hashes, &keys, opts.hash_search)?;
            let targets: Vec<BlockId> = succs.iter().map(|&s| BlockId(s.0)).collect();
            Ok(Dispatch::Hashed {
                bit_of,
                barrier_mask,
                hash,
                targets,
            })
        }
    }
}

/// [`msc_hash::find_hash_with`], memoized in `hashes` by key set. The
/// search result depends only on the set of keys (injectivity ignores
/// their order), so a repeated set reuses its expression and only the
/// jump table is rebuilt, in this dispatch's key order.
fn find_hash_memoized(
    hashes: &mut HashMap<Vec<u64>, HashExpr>,
    keys: &[u64],
    search: SearchOptions,
) -> Result<PerfectHash, HashError> {
    let mut sorted = keys.to_vec();
    sorted.sort_unstable();
    if let Some(&expr) = hashes.get(&sorted) {
        return Ok(PerfectHash::build(keys, expr)
            .expect("an expression injective on a key set is injective in any key order"));
    }
    let hash = msc_hash::find_hash_with(keys, search)?;
    hashes.insert(sorted, hash.expr);
    Ok(hash)
}

#[cfg(test)]
mod tests {
    use super::*;
    use msc_core::{convert, ConvertOptions};
    use msc_lang::compile;
    use msc_simd::{MachineConfig, SimdMachine};

    /// The paper's Listing 4.
    const LISTING4: &str = r#"
        main() {
            poly int x;
            if (x) { do { x = 1; } while (x); }
            else   { do { x = 2; } while (x); }
            return(x);
        }
    "#;

    fn build(src: &str, copts: &ConvertOptions, gopts: &GenOptions) -> SimdProgram {
        let p = compile(src).unwrap();
        let auto = convert(&p.graph, copts).unwrap();
        generate(&auto, p.layout.poly_words, p.layout.mono_words, gopts).unwrap()
    }

    #[test]
    fn listing4_base_program_has_eight_blocks() {
        let prog = build(LISTING4, &ConvertOptions::base(), &GenOptions::default());
        assert_eq!(prog.blocks.len(), 8, "Listing 5 has eight ms_ labels");
        prog.validate().unwrap();
        // Exactly one terminal block (the all-halt meta state).
        let ends = prog
            .blocks
            .iter()
            .filter(|b| matches!(b.dispatch, Dispatch::End))
            .count();
        assert_eq!(ends, 1);
    }

    #[test]
    fn listing4_executes_and_matches_semantics() {
        // x starts 0 on every PE: the else path runs, x=2, loop exits when
        // x... wait — `do { x = 2; } while (x)` loops forever on nonzero x!
        // The paper's Listing 4 is deliberately non-terminating for half
        // its paths; use a terminating variant driven by pe_id parity.
        let src = r#"
            main() {
                poly int x, n;
                x = pe_id() % 2;
                n = 0;
                if (x) { do { n += 1; x = x - 1; } while (x); }
                else   { do { n += 10; } while (x); }
                return(n);
            }
        "#;
        let prog = build(src, &ConvertOptions::base(), &GenOptions::default());
        let cfg = MachineConfig::spmd(6);
        let mut m = SimdMachine::new(&prog, &cfg);
        m.run(&prog, &cfg).unwrap();
        let p = compile(src).unwrap();
        let ret = p.layout.main_ret.unwrap();
        for pe in 0..6 {
            let expect = if pe % 2 == 1 { 1 } else { 10 };
            assert_eq!(m.poly_at(pe, ret), expect, "PE {pe}");
        }
    }

    #[test]
    fn compressed_program_is_direct_dispatched() {
        let mut copts = ConvertOptions::compressed();
        copts.subsumption = true;
        let prog = build(LISTING4, &copts, &GenOptions::default());
        assert_eq!(prog.blocks.len(), 2, "Figure 5");
        for b in &prog.blocks {
            assert!(
                matches!(b.dispatch, Dispatch::Direct(_) | Dispatch::End),
                "compressed transitions are unconditional (§2.5): {:?}",
                b.dispatch
            );
        }
    }

    #[test]
    fn csi_shares_work_across_members() {
        let with = build(LISTING4, &ConvertOptions::base(), &GenOptions::default());
        let without = build(
            LISTING4,
            &ConvertOptions::base(),
            &GenOptions {
                csi: false,
                ..Default::default()
            },
        );
        let issues = |p: &SimdProgram| p.control_unit_instrs();
        assert!(
            issues(&with) < issues(&without),
            "CSI must shrink the program: {} vs {}",
            issues(&with),
            issues(&without)
        );
        // The wide meta state ms_2_6_9-equivalent must contain an op
        // guarded by more than one member.
        let shared = with
            .blocks
            .iter()
            .flat_map(|b| &b.body)
            .any(|gi| gi.guard.len() > 1 && matches!(gi.instr, SimdInstr::Op(_)));
        assert!(shared);
    }

    /// A memo hit reuses the expression but lays the table out in the
    /// current dispatch's key order, exactly as a fresh search would.
    #[test]
    fn hash_memo_rebuilds_the_table_in_key_order() {
        let search = SearchOptions::default();
        let mut hashes = HashMap::new();
        let first =
            find_hash_memoized(&mut hashes, &[0b0100, 0b0100_0000, 0b0100_0100], search).unwrap();
        let keys = [0b0100_0100, 0b0100, 0b0100_0000];
        let hit = find_hash_memoized(&mut hashes, &keys, search).unwrap();
        assert_eq!(hashes.len(), 1, "the second call is a memo hit");
        assert_eq!(hit.expr, first.expr);
        assert_ne!(hit.table, first.table);
        assert_eq!(hit, msc_hash::find_hash_with(&keys, search).unwrap());
    }

    #[test]
    fn meta_names_match_listing5_style() {
        assert_eq!(meta_name(&[StateId(0)]), "ms_0");
        assert_eq!(meta_name(&[StateId(2), StateId(6), StateId(9)]), "ms_2_6_9");
    }

    #[test]
    fn barrier_program_round_trips() {
        let src = r#"
            main() {
                poly int x, n;
                x = pe_id() % 3;
                n = 0;
                if (x) { do { n += 1; x -= 1; } while (x); }
                else   { n = 100; }
                wait;
                n += 1000;
                return(n);
            }
        "#;
        let prog = build(src, &ConvertOptions::base(), &GenOptions::default());
        let cfg = MachineConfig::spmd(9);
        let mut m = SimdMachine::new(&prog, &cfg);
        m.run(&prog, &cfg).unwrap();
        let p = compile(src).unwrap();
        let ret = p.layout.main_ret.unwrap();
        for pe in 0..9 {
            let expect = match pe % 3 {
                0 => 1100,
                k => 1000 + k as i64,
            };
            assert_eq!(m.poly_at(pe, ret), expect, "PE {pe}");
        }
    }

    #[test]
    fn hashed_dispatch_uses_state_id_bits_for_small_graphs() {
        let prog = build(LISTING4, &ConvertOptions::base(), &GenOptions::default());
        for b in &prog.blocks {
            if let Dispatch::Hashed { bit_of, .. } = &b.dispatch {
                for (s, bit) in bit_of {
                    assert_eq!(s.0, *bit, "BIT(state) coding for ≤64 states");
                }
            }
        }
    }
}
