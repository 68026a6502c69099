//! The meta-state automaton produced by conversion.

use crate::stateset::StateSet;
use msc_ir::{CostModel, MimdGraph};
use std::fmt::Write as _;

/// Identifier of a meta state within a [`MetaAutomaton`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct MetaId(pub u32);

impl MetaId {
    /// The index as a usize.
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for MetaId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ms_{}", self.0)
    }
}

/// A MIMD program converted into a single finite automaton over meta states
/// (§1.2: "Once a program has been converted into a single finite automaton
/// based on Meta States, only a single program counter is needed").
#[derive(Debug, Clone)]
pub struct MetaAutomaton {
    /// The MIMD state graph the automaton was built from. This is the
    /// *converted* graph: if time splitting (§2.4) fired, it contains the
    /// split states, so member ids in [`sets`](Self::sets) resolve here.
    pub graph: MimdGraph,
    /// Membership of each meta state.
    pub sets: Vec<StateSet>,
    /// The start meta state (the set of MIMD start states; for SPMD, a
    /// singleton).
    pub start: MetaId,
    /// Deduplicated successor lists, indexed by meta state. An empty list
    /// means the meta state is terminal (§3.2.1: "a return to the
    /// operating system").
    pub succs: Vec<Vec<MetaId>>,
}

impl MetaAutomaton {
    /// Number of meta states.
    pub fn len(&self) -> usize {
        self.sets.len()
    }

    /// True when the automaton has no meta states.
    pub fn is_empty(&self) -> bool {
        self.sets.is_empty()
    }

    /// Members of one meta state.
    pub fn members(&self, id: MetaId) -> &StateSet {
        &self.sets[id.idx()]
    }

    /// Successors of one meta state.
    pub fn successors(&self, id: MetaId) -> &[MetaId] {
        &self.succs[id.idx()]
    }

    /// Find the meta state with exactly these members.
    pub fn find(&self, set: &StateSet) -> Option<MetaId> {
        self.sets
            .iter()
            .position(|s| s == set)
            .map(|i| MetaId(i as u32))
    }

    /// Average meta-state width (member count). §2.5 trades state count
    /// against width: "the average meta-state is wider, which implies that
    /// the SIMD implementation will be less efficient."
    pub fn avg_width(&self) -> f64 {
        if self.sets.is_empty() {
            return 0.0;
        }
        self.sets.iter().map(|s| s.len()).sum::<usize>() as f64 / self.sets.len() as f64
    }

    /// Widest meta state.
    pub fn max_width(&self) -> usize {
        self.sets.iter().map(|s| s.len()).max().unwrap_or(0)
    }

    /// True when every meta state has at most one successor — the property
    /// compression (§2.5) buys: "meta-state transitions into compressed
    /// portions of the graph are unconditional; i.e., there is no need to
    /// use a globalor".
    pub fn is_deterministic(&self) -> bool {
        self.succs.iter().all(|s| s.len() <= 1)
    }

    /// The worst-case time imbalance inside a meta state: for each meta
    /// state, (max member cost − min member cost) over non-zero-cost
    /// members; returns the maximum over all meta states. Zero means
    /// perfectly balanced (what time splitting drives toward).
    pub fn max_imbalance(&self, costs: &CostModel) -> u64 {
        self.sets
            .iter()
            .map(|set| {
                let times: Vec<u64> = set
                    .iter()
                    .map(|s| self.graph.state_cost(s, costs))
                    .filter(|&t| t > 0)
                    .collect();
                match (times.iter().min(), times.iter().max()) {
                    (Some(&mn), Some(&mx)) => mx - mn,
                    _ => 0,
                }
            })
            .max()
            .unwrap_or(0)
    }

    /// Renumber meta states into deterministic breadth-first order from
    /// the start state (successor lists visited in stored order). Two
    /// automatons with the same reachable structure — regardless of the
    /// discovery order that built them — become bit-identical, which is
    /// how the engine puts its output into a normal form. Unreachable meta
    /// states (possible after external surgery) are appended in their
    /// original relative order.
    pub fn canonicalize(&mut self) {
        let n = self.sets.len();
        if n == 0 {
            return;
        }
        let mut new_of_old: Vec<Option<u32>> = vec![None; n];
        let mut order: Vec<usize> = Vec::with_capacity(n);
        let mut queue = std::collections::VecDeque::new();
        new_of_old[self.start.idx()] = Some(0);
        order.push(self.start.idx());
        queue.push_back(self.start.idx());
        while let Some(o) = queue.pop_front() {
            for s in &self.succs[o] {
                if new_of_old[s.idx()].is_none() {
                    new_of_old[s.idx()] = Some(order.len() as u32);
                    order.push(s.idx());
                    queue.push_back(s.idx());
                }
            }
        }
        for (o, slot) in new_of_old.iter_mut().enumerate() {
            if slot.is_none() {
                *slot = Some(order.len() as u32);
                order.push(o);
            }
        }
        self.sets = order
            .iter()
            .map(|&o| std::mem::take(&mut self.sets[o]))
            .collect();
        self.succs = order
            .iter()
            .map(|&o| {
                self.succs[o]
                    .iter()
                    .map(|s| MetaId(new_of_old[s.idx()].expect("every meta state numbered")))
                    .collect()
            })
            .collect();
        self.start = MetaId(0);
    }

    /// Remove meta states not reachable from the start state, keeping the
    /// survivors in their original relative order with dense ids. Returns
    /// the number of states removed. Parallel construction can intern
    /// states from expansions that were later invalidated by latent
    /// widening, and subsumption folds can strand states behind folded
    /// arcs; both are cleaned up here.
    pub fn prune_unreachable(&mut self) -> usize {
        let n = self.sets.len();
        if n == 0 {
            return 0;
        }
        let mut seen = vec![false; n];
        let mut stack = vec![self.start];
        seen[self.start.idx()] = true;
        while let Some(m) = stack.pop() {
            for &s in &self.succs[m.idx()] {
                if !seen[s.idx()] {
                    seen[s.idx()] = true;
                    stack.push(s);
                }
            }
        }
        if seen.iter().all(|&b| b) {
            return 0;
        }
        let mut new_id = vec![None; n];
        let mut kept = Vec::new();
        for i in 0..n {
            if seen[i] {
                new_id[i] = Some(MetaId(kept.len() as u32));
                kept.push(i);
            }
        }
        let mut sets = Vec::with_capacity(kept.len());
        let mut succs = Vec::with_capacity(kept.len());
        for &i in &kept {
            sets.push(std::mem::take(&mut self.sets[i]));
            succs.push(
                self.succs[i]
                    .iter()
                    .map(|s| new_id[s.idx()].expect("successors of reachable states are reachable"))
                    .collect(),
            );
        }
        self.start = new_id[self.start.idx()].expect("start is always reachable");
        self.sets = sets;
        self.succs = succs;
        n - kept.len()
    }

    /// Render the automaton as text, one meta state per line:
    ///
    /// ```text
    /// ms_0 {0} -> {2},{6},{2,6}   <- start
    /// ```
    pub fn text(&self) -> String {
        // Each set is rendered once, however often it is a successor.
        let names: Vec<String> = self.sets.iter().map(StateSet::to_string).collect();
        let mut out = String::new();
        for (i, name) in names.iter().enumerate() {
            let id = MetaId(i as u32);
            let _ = write!(out, "{id} {name} ->");
            if self.succs[i].is_empty() {
                out.push_str(" end");
            } else {
                for (k, s) in self.succs[i].iter().enumerate() {
                    out.push_str(if k == 0 { " " } else { "," });
                    out.push_str(&names[s.idx()]);
                }
            }
            if id == self.start {
                let _ = write!(out, "  <- start");
            }
            out.push('\n');
        }
        out
    }

    /// Render as Graphviz `dot`.
    pub fn dot(&self) -> String {
        let mut out = String::from("digraph meta {\n  rankdir=TB;\n  node [shape=ellipse];\n");
        for (i, set) in self.sets.iter().enumerate() {
            let pen = if MetaId(i as u32) == self.start {
                " penwidth=2"
            } else {
                ""
            };
            let _ = writeln!(out, "  {i} [label=\"{set}\"{pen}];");
        }
        for (i, succs) in self.succs.iter().enumerate() {
            for s in succs {
                let _ = writeln!(out, "  {i} -> {};", s.idx());
            }
        }
        out.push_str("}\n");
        out
    }

    /// Basic consistency checks: start in range, successors in range, all
    /// member ids resolve in the graph, member sets distinct.
    pub fn validate(&self) -> Result<(), String> {
        if self.start.idx() >= self.sets.len() {
            return Err(format!("start {} out of range", self.start));
        }
        if self.succs.len() != self.sets.len() {
            return Err("succs/sets length mismatch".into());
        }
        for (i, succs) in self.succs.iter().enumerate() {
            for s in succs {
                if s.idx() >= self.sets.len() {
                    return Err(format!("ms_{i} has out-of-range successor {s}"));
                }
            }
        }
        for set in &self.sets {
            for m in set.iter() {
                if m.idx() >= self.graph.len() {
                    return Err(format!("member {m} not in graph"));
                }
            }
        }
        let mut seen = std::collections::HashSet::new();
        for set in &self.sets {
            if !seen.insert(set) {
                return Err(format!("duplicate meta state {set}"));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use msc_ir::{MimdState, StateId, Terminator};

    fn tiny() -> MetaAutomaton {
        let mut graph = MimdGraph::new();
        let a = graph.add(MimdState::new(vec![], Terminator::Halt));
        let b = graph.add(MimdState::new(vec![], Terminator::Halt));
        graph.state_mut(a).term = Terminator::Jump(b);
        graph.start = a;
        MetaAutomaton {
            graph,
            sets: vec![StateSet::singleton(a), StateSet::singleton(b)],
            start: MetaId(0),
            succs: vec![vec![MetaId(1)], vec![]],
        }
    }

    #[test]
    fn validate_ok_and_text() {
        let a = tiny();
        assert_eq!(a.validate(), Ok(()));
        let t = a.text();
        assert!(t.contains("ms_0 {0} -> {1}  <- start"));
        assert!(t.contains("ms_1 {1} -> end"));
    }

    /// `text()` of the paper's Listing 4 in base mode, pinned byte for
    /// byte: engine artifacts and the disk cache store this text.
    #[test]
    fn listing4_base_text_is_pinned() {
        let src = r#"
            main() {
                poly int x;
                if (x) { do { x = 1; } while (x); }
                else   { do { x = 2; } while (x); }
                return(x);
            }
        "#;
        let p = msc_lang::compile(src).unwrap();
        let a = crate::convert(&p.graph, &crate::ConvertOptions::base()).unwrap();
        assert_eq!(
            a.text(),
            "ms_0 {0} -> {2},{3},{2,3}  <- start\n\
             ms_1 {2} -> {2},{1},{1,2}\n\
             ms_2 {3} -> {3},{1},{1,3}\n\
             ms_3 {2,3} -> {2,3},{1,2},{1,2,3},{1,3},{1}\n\
             ms_4 {1} -> end\n\
             ms_5 {1,2} -> {2},{1},{1,2}\n\
             ms_6 {1,3} -> {3},{1},{1,3}\n\
             ms_7 {1,2,3} -> {2,3},{1,2},{1,2,3},{1,3},{1}\n"
        );
    }

    #[test]
    fn width_stats() {
        let a = tiny();
        assert_eq!(a.avg_width(), 1.0);
        assert_eq!(a.max_width(), 1);
        assert!(a.is_deterministic());
    }

    #[test]
    fn validate_catches_bad_successor() {
        let mut a = tiny();
        a.succs[1].push(MetaId(9));
        assert!(a.validate().is_err());
    }

    #[test]
    fn validate_catches_duplicate_sets() {
        let mut a = tiny();
        a.sets[1] = a.sets[0].clone();
        assert!(a.validate().is_err());
    }

    #[test]
    fn find_by_members() {
        let a = tiny();
        assert_eq!(a.find(&StateSet::singleton(StateId(1))), Some(MetaId(1)));
        assert_eq!(a.find(&StateSet::from_iter([StateId(0), StateId(1)])), None);
    }

    #[test]
    fn canonicalize_renumbers_bfs_from_start() {
        // Same structure as `tiny` but with ids permuted: start is ms_1.
        let mut graph = MimdGraph::new();
        let a = graph.add(MimdState::new(vec![], Terminator::Halt));
        let b = graph.add(MimdState::new(vec![], Terminator::Halt));
        graph.state_mut(a).term = Terminator::Jump(b);
        graph.start = a;
        let mut auto = MetaAutomaton {
            graph,
            sets: vec![StateSet::singleton(b), StateSet::singleton(a)],
            start: MetaId(1),
            succs: vec![vec![], vec![MetaId(0)]],
        };
        auto.canonicalize();
        assert_eq!(auto.start, MetaId(0));
        assert_eq!(auto.sets[0], StateSet::singleton(a));
        assert_eq!(auto.sets[1], StateSet::singleton(b));
        assert_eq!(auto.succs, vec![vec![MetaId(1)], vec![]]);
        assert_eq!(auto.validate(), Ok(()));
    }

    #[test]
    fn canonicalize_is_idempotent_and_keeps_unreachable() {
        let mut graph = MimdGraph::new();
        let a = graph.add(MimdState::new(vec![], Terminator::Halt));
        let b = graph.add(MimdState::new(vec![], Terminator::Halt));
        let c = graph.add(MimdState::new(vec![], Terminator::Halt));
        graph.start = a;
        let mut auto = MetaAutomaton {
            graph,
            sets: vec![
                StateSet::singleton(c), // unreachable
                StateSet::singleton(a), // start
                StateSet::singleton(b),
            ],
            start: MetaId(1),
            succs: vec![vec![], vec![MetaId(2)], vec![]],
        };
        auto.canonicalize();
        let once = (auto.sets.clone(), auto.succs.clone(), auto.start);
        auto.canonicalize();
        assert_eq!((auto.sets.clone(), auto.succs.clone(), auto.start), once);
        assert_eq!(auto.len(), 3, "unreachable states are kept");
        assert_eq!(auto.sets[2], StateSet::singleton(c));
    }

    #[test]
    fn prune_unreachable_drops_and_remaps() {
        let mut graph = MimdGraph::new();
        let a = graph.add(MimdState::new(vec![], Terminator::Halt));
        let b = graph.add(MimdState::new(vec![], Terminator::Halt));
        let c = graph.add(MimdState::new(vec![], Terminator::Halt));
        graph.start = a;
        let mut auto = MetaAutomaton {
            graph,
            sets: vec![
                StateSet::singleton(c), // unreachable
                StateSet::singleton(a), // start
                StateSet::singleton(b),
            ],
            start: MetaId(1),
            succs: vec![vec![MetaId(2)], vec![MetaId(2)], vec![]],
        };
        assert_eq!(auto.prune_unreachable(), 1);
        assert_eq!(auto.len(), 2);
        assert_eq!(auto.start, MetaId(0));
        assert_eq!(
            auto.sets,
            vec![StateSet::singleton(a), StateSet::singleton(b)]
        );
        assert_eq!(auto.succs, vec![vec![MetaId(1)], vec![]]);
        assert_eq!(auto.validate(), Ok(()));
        assert_eq!(auto.prune_unreachable(), 0, "idempotent on reachable-only");
    }
}
