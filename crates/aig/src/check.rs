//! Structural invariant checking for [`Aig`] and [`CutArena`] — the
//! AIG analogue of ABC's `Abc_NtkCheck`.
//!
//! The in-place editing substrate (strash, refcounts, fanout lists,
//! replacement forwarding) and the arena-backed cut lists carry
//! implicit contracts that every engine in the workspace assumes.
//! [`Aig::check`] and [`CutArena::check`] turn those contracts into
//! executable specifications: each violation is reported as a named
//! [`CheckError`] variant carrying the offending node, so a corrupted
//! graph fails loudly at the seam that corrupted it instead of
//! miscompiling three passes later. Under the `paranoid` cargo
//! feature the checkers run automatically at the hot seams
//! ([`Aig::end_edit`], after every synthesis pass, after solver
//! reductions, after every mapping round).

use crate::cuts::CutArena;
use crate::graph::{Aig, NodeId};
use std::fmt;

/// A violated structural invariant, naming the offending node(s).
///
/// Variants are grouped by subsystem: graph structure, structural
/// hashing, edit-session bookkeeping, and cut-arena integrity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CheckError {
    /// The node array does not start with the constant node.
    ConstMissing,
    /// A live AND references a node index outside the node array.
    FaninOutOfRange {
        /// The AND node holding the bad fanin slot.
        node: u32,
        /// The out-of-range fanin node index.
        fanin: u32,
    },
    /// A live AND (or a primary output) references a dead node.
    FaninDead {
        /// The AND node holding the dead fanin.
        node: u32,
        /// The dead fanin node.
        fanin: u32,
    },
    /// A live AND kept a trivial fanin pair (a constant fanin, or both
    /// slots on one node) that construction should have collapsed.
    FaninTrivial {
        /// The offending AND node.
        node: u32,
    },
    /// A live AND's fanins are not stored in ascending literal order.
    FaninOrder {
        /// The offending AND node.
        node: u32,
    },
    /// The AND structure is cyclic.
    Cycle {
        /// A node on the cycle.
        node: u32,
    },
    /// A live AND does not structurally hash to itself.
    StrashMiss {
        /// The unhashed (or mis-hashed) AND node.
        node: u32,
    },
    /// A strash entry points at a dead/non-AND node or disagrees with
    /// the node's stored fanins.
    StrashStale {
        /// The node the stale entry points at.
        node: u32,
    },
    /// A primary output references a node outside the node array.
    PoOutOfRange {
        /// Index of the output.
        po: usize,
    },
    /// A primary output references a dead node.
    PoDead {
        /// Index of the output.
        po: usize,
        /// The dead node it points at.
        node: u32,
    },
    /// `edited` is false but ascending id order is not topological
    /// (or a dead node exists) — traversals would silently skip the
    /// DFS path they need.
    EditedFlagClear {
        /// The node proving the order (or liveness) violation.
        node: u32,
    },
    /// The edit-session vectors disagree with the node array in length.
    EditStateSize {
        /// Expected length (the node count).
        expected: usize,
        /// Actual `refs` length.
        refs: usize,
    },
    /// A session refcount disagrees with the actual fanin + PO edges.
    RefCountMismatch {
        /// The miscounted node.
        node: u32,
        /// The session's stored count.
        stored: u32,
        /// The count recomputed from the graph.
        actual: u32,
    },
    /// A live AND is missing from the fanout list of one of its fanins
    /// (stale *extra* entries are permitted; missing ones are not).
    FanoutMissing {
        /// The fanin node whose list is incomplete.
        node: u32,
        /// The fanout that should be listed.
        fanout: u32,
    },
    /// Replacement forwarding does not terminate.
    ForwardCycle {
        /// The node whose chain cycles.
        node: u32,
    },
    /// A live node forwards somewhere other than itself (only
    /// replaced — hence dead — nodes redirect; a chain may land on a
    /// node that died later, which `resolve` callers re-home).
    ForwardFromLive {
        /// The live-yet-redirected node.
        node: u32,
    },
    /// The cut arena's span table does not cover the graph.
    CutArenaSize {
        /// Expected span count (the node count).
        expected: usize,
        /// Actual span count.
        actual: usize,
    },
    /// A node's cut span lies outside the cut array.
    CutSpanBounds {
        /// The node with the bad span.
        node: u32,
    },
    /// A cut's leaf slice lies outside the leaf buffer.
    CutLeafBounds {
        /// The node owning the cut.
        node: u32,
    },
    /// A cut is wider than the enumeration bound `k`.
    CutWidth {
        /// The node owning the cut.
        node: u32,
        /// The cut's leaf count.
        len: usize,
    },
    /// A cut's leaves are not strictly ascending (sorted + deduped).
    CutLeavesUnsorted {
        /// The node owning the cut.
        node: u32,
    },
    /// A cut of a live node references a dead leaf.
    CutLeafDead {
        /// The node owning the cut.
        node: u32,
        /// The dead leaf.
        leaf: u32,
    },
    /// A cut's stored bloom signature disagrees with its leaves.
    CutSignature {
        /// The node owning the cut.
        node: u32,
    },
    /// A live node's first cut is not its unit cut.
    CutUnitMissing {
        /// The offending node.
        node: u32,
    },
    /// An AND node lost its guaranteed fanin-pair cut (no kept cut
    /// equals or refines `{f0, f1}`), so mapping could run out of
    /// candidates.
    CutFaninPairMissing {
        /// The offending AND node.
        node: u32,
    },
}

impl fmt::Display for CheckError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            CheckError::ConstMissing => write!(f, "node 0 is not the constant node"),
            CheckError::FaninOutOfRange { node, fanin } => {
                write!(f, "node {node}: fanin {fanin} out of range")
            }
            CheckError::FaninDead { node, fanin } => {
                write!(f, "node {node}: fanin {fanin} is dead")
            }
            CheckError::FaninTrivial { node } => {
                write!(f, "node {node}: trivial fanin pair survived construction")
            }
            CheckError::FaninOrder { node } => {
                write!(f, "node {node}: fanins not in ascending literal order")
            }
            CheckError::Cycle { node } => write!(f, "node {node}: AND structure is cyclic"),
            CheckError::StrashMiss { node } => {
                write!(f, "node {node}: live AND does not hash to itself")
            }
            CheckError::StrashStale { node } => {
                write!(f, "strash entry for node {node} is stale")
            }
            CheckError::PoOutOfRange { po } => write!(f, "output {po}: node out of range"),
            CheckError::PoDead { po, node } => {
                write!(f, "output {po}: references dead node {node}")
            }
            CheckError::EditedFlagClear { node } => {
                write!(f, "node {node}: breaks id-order topology but `edited` is false")
            }
            CheckError::EditStateSize { expected, refs } => {
                write!(f, "edit state sized {refs}, graph has {expected} nodes")
            }
            CheckError::RefCountMismatch { node, stored, actual } => {
                write!(f, "node {node}: refcount {stored} stored, {actual} actual")
            }
            CheckError::FanoutMissing { node, fanout } => {
                write!(f, "node {node}: fanout list misses consumer {fanout}")
            }
            CheckError::ForwardCycle { node } => {
                write!(f, "node {node}: replacement forwarding cycles")
            }
            CheckError::ForwardFromLive { node } => {
                write!(f, "node {node}: live but redirected by forwarding")
            }
            CheckError::CutArenaSize { expected, actual } => {
                write!(f, "cut arena spans {actual} nodes, graph has {expected}")
            }
            CheckError::CutSpanBounds { node } => {
                write!(f, "node {node}: cut span outside the cut array")
            }
            CheckError::CutLeafBounds { node } => {
                write!(f, "node {node}: cut leaves outside the leaf buffer")
            }
            CheckError::CutWidth { node, len } => {
                write!(f, "node {node}: cut of {len} leaves exceeds k")
            }
            CheckError::CutLeavesUnsorted { node } => {
                write!(f, "node {node}: cut leaves not strictly ascending")
            }
            CheckError::CutLeafDead { node, leaf } => {
                write!(f, "node {node}: cut references dead leaf {leaf}")
            }
            CheckError::CutSignature { node } => {
                write!(f, "node {node}: cut signature disagrees with leaves")
            }
            CheckError::CutUnitMissing { node } => {
                write!(f, "node {node}: first cut is not the unit cut")
            }
            CheckError::CutFaninPairMissing { node } => {
                write!(f, "node {node}: guaranteed fanin-pair cut lost")
            }
        }
    }
}

impl std::error::Error for CheckError {}

impl Aig {
    /// Validates every structural invariant of the graph: acyclicity,
    /// strash consistency (every live AND hashes to itself and every
    /// entry is live and exact), dead-node hygiene (nothing live
    /// reaches a dead node), primary-output validity, the `edited`
    /// flag, and — while an editing session is active — refcount /
    /// fanout-list agreement and replacement-forwarding sanity.
    ///
    /// Returns the first violation found as a named [`CheckError`];
    /// a healthy graph returns `Ok(())`. The check is read-only and
    /// runs in `O(nodes + strash entries + outputs)`.
    ///
    /// # Examples
    ///
    /// ```
    /// use cntfet_aig::Aig;
    ///
    /// let mut g = Aig::new("t");
    /// let p = g.add_pis(2);
    /// let x = g.xor(p[0], p[1]);
    /// g.add_po(x);
    /// assert!(g.check().is_ok());
    ///
    /// // The bookkeeping of an in-place editing session is covered
    /// // too — including after node replacement and reclamation.
    /// g.begin_edit();
    /// let y = g.and(p[0], p[1]);
    /// g.replace_node(y.node(), p[0]); // y := p0·p1 ⇒ replace by p0 is wrong
    /// // (functionally wrong replacements are the *caller's* contract;
    /// // the structural invariants still hold and check() stays green)
    /// assert!(g.check().is_ok());
    /// g.end_edit();
    /// assert!(g.check().is_ok());
    /// ```
    pub fn check(&self) -> Result<(), CheckError> {
        let n = self.nodes.len();
        if n == 0 || self.nodes[0].is_and() || self.nodes[0].is_dead() {
            return Err(CheckError::ConstMissing);
        }

        // Per-node fanin structure.
        for (i, node) in self.nodes.iter().enumerate() {
            if !node.is_and() {
                continue;
            }
            let id = i as u32;
            for fl in [node.f0, node.f1] {
                let fi = fl.node().index();
                if fi >= n {
                    return Err(CheckError::FaninOutOfRange { node: id, fanin: fi as u32 });
                }
                if self.nodes[fi].is_dead() {
                    return Err(CheckError::FaninDead { node: id, fanin: fi as u32 });
                }
            }
            if node.f0.is_const() || node.f1.is_const() || node.f0.node() == node.f1.node() {
                return Err(CheckError::FaninTrivial { node: id });
            }
            if node.f0.code() >= node.f1.code() {
                return Err(CheckError::FaninOrder { node: id });
            }
        }

        self.check_acyclic()?;

        // Strash, both directions: every live AND hashes to itself…
        for (i, node) in self.nodes.iter().enumerate() {
            if !node.is_and() {
                continue;
            }
            let key = (node.f0.code(), node.f1.code());
            if self.strash.get(&key) != Some(&NodeId::from_index(i)) {
                return Err(CheckError::StrashMiss { node: i as u32 });
            }
        }
        // …and every entry points at a live AND whose fanins match.
        for (&key, &id) in &self.strash {
            let stale = id.index() >= n || {
                let node = &self.nodes[id.index()];
                !node.is_and() || (node.f0.code(), node.f1.code()) != key
            };
            if stale {
                return Err(CheckError::StrashStale { node: id.index() as u32 });
            }
        }

        // Primary outputs.
        for (po, l) in self.pos.iter().enumerate() {
            let i = l.node().index();
            if i >= n {
                return Err(CheckError::PoOutOfRange { po });
            }
            if self.nodes[i].is_dead() {
                return Err(CheckError::PoDead { po, node: i as u32 });
            }
        }

        // `edited == false` asserts ascending ids are topological and
        // the graph holds no dead nodes (only replacement makes either
        // false, and replacement sets the flag).
        if !self.edited {
            for (i, node) in self.nodes.iter().enumerate() {
                if node.is_dead() {
                    return Err(CheckError::EditedFlagClear { node: i as u32 });
                }
                if node.is_and()
                    && (node.f0.node().index() >= i || node.f1.node().index() >= i)
                {
                    return Err(CheckError::EditedFlagClear { node: i as u32 });
                }
            }
        }

        if let Some(edit) = &self.edit {
            if edit.refs.len() != n || edit.fanouts.len() != n || edit.fwd.len() != n {
                return Err(CheckError::EditStateSize { expected: n, refs: edit.refs.len() });
            }
            // Forwarding: only replaced (dead) nodes redirect, and
            // chains terminate. A chain may end on a node that died
            // after the replacement — `resolve` callers re-home that
            // case, so target liveness is deliberately unchecked.
            for i in 0..n {
                if edit.fwd[i].node().index() == i {
                    continue;
                }
                if !self.nodes[i].is_dead() {
                    return Err(CheckError::ForwardFromLive { node: i as u32 });
                }
                let mut cur = edit.fwd[i];
                let mut steps = 0usize;
                while edit.fwd[cur.node().index()].node() != cur.node() {
                    cur = edit.fwd[cur.node().index()];
                    steps += 1;
                    if steps > n {
                        return Err(CheckError::ForwardCycle { node: i as u32 });
                    }
                }
            }
            // Refcounts must equal the actual edge counts exactly.
            let actual = self.fanout_counts();
            for (i, &count) in actual.iter().enumerate().take(n) {
                if edit.refs[i] != count {
                    return Err(CheckError::RefCountMismatch {
                        node: i as u32,
                        stored: edit.refs[i],
                        actual: count,
                    });
                }
            }
            // Fanout lists may carry stale extras but must contain
            // every actual consumer.
            for (i, node) in self.nodes.iter().enumerate() {
                if !node.is_and() {
                    continue;
                }
                let id = NodeId::from_index(i);
                for fl in [node.f0, node.f1] {
                    if !edit.fanouts[fl.node().index()].contains(&id) {
                        return Err(CheckError::FanoutMissing {
                            node: fl.node().index() as u32,
                            fanout: i as u32,
                        });
                    }
                }
            }
        }
        Ok(())
    }

    /// Cycle detection over the AND structure (iterative three-color
    /// DFS; the graph may be id-order-scrambled after editing).
    fn check_acyclic(&self) -> Result<(), CheckError> {
        const WHITE: u8 = 0;
        const GRAY: u8 = 1;
        const BLACK: u8 = 2;
        let n = self.nodes.len();
        let mut color = vec![WHITE; n];
        let mut stack: Vec<(u32, bool)> = Vec::new();
        for root in 0..n {
            if color[root] != WHITE || !self.nodes[root].is_and() {
                continue;
            }
            stack.push((root as u32, false));
            while let Some(&(x, expanded)) = stack.last() {
                let xi = x as usize;
                if expanded {
                    color[xi] = BLACK;
                    stack.pop();
                    continue;
                }
                if color[xi] == BLACK {
                    stack.pop();
                    continue;
                }
                color[xi] = GRAY;
                stack.last_mut().expect("just peeked").1 = true;
                let node = &self.nodes[xi];
                for f in [node.f0.node(), node.f1.node()] {
                    let fi = f.index();
                    if fi < n && self.nodes[fi].is_and() {
                        match color[fi] {
                            GRAY => return Err(CheckError::Cycle { node: f.index() as u32 }),
                            WHITE => stack.push((fi as u32, false)),
                            _ => {}
                        }
                    }
                }
            }
        }
        Ok(())
    }
}

impl CutArena {
    /// Validates the arena against the graph it was enumerated from:
    /// span and leaf-slice bounds, per-cut width (`≤ k`), strictly
    /// ascending (sorted + deduped) live leaves, bloom-signature
    /// agreement, the unit cut leading every live node's list, and the
    /// guaranteed fanin-pair cut of every AND (kept verbatim or
    /// refined by a kept subset cut).
    ///
    /// Returns the first violation as a named [`CheckError`].
    pub fn check(&self, aig: &Aig) -> Result<(), CheckError> {
        let n = aig.num_nodes();
        if self.spans.len() != n {
            return Err(CheckError::CutArenaSize { expected: n, actual: self.spans.len() });
        }
        for i in 0..n {
            let id = NodeId::from_index(i);
            let (s, e) = self.spans[i];
            if s > e || e as usize > self.cuts.len() {
                return Err(CheckError::CutSpanBounds { node: i as u32 });
            }
            if aig.is_dead(id) {
                // Dead nodes may carry leftover spans; their cuts are
                // never consumed, so only the bounds above matter.
                continue;
            }
            if s == e {
                return Err(CheckError::CutUnitMissing { node: i as u32 });
            }
            for (ci, c) in self.cuts[s as usize..e as usize].iter().enumerate() {
                let lo = c.off as usize;
                let hi = lo + c.len as usize;
                if hi > self.leaves.len() {
                    return Err(CheckError::CutLeafBounds { node: i as u32 });
                }
                let leaves = &self.leaves[lo..hi];
                if c.len as usize > self.k.max(1) {
                    return Err(CheckError::CutWidth { node: i as u32, len: c.len as usize });
                }
                if leaves.windows(2).any(|w| w[0] >= w[1]) {
                    return Err(CheckError::CutLeavesUnsorted { node: i as u32 });
                }
                let mut sig = 0u64;
                for &l in leaves {
                    if l.index() >= n {
                        return Err(CheckError::CutLeafBounds { node: i as u32 });
                    }
                    if aig.is_dead(l) {
                        return Err(CheckError::CutLeafDead {
                            node: i as u32,
                            leaf: l.index() as u32,
                        });
                    }
                    sig |= 1 << (l.index() % 64);
                }
                if sig != c.sig {
                    return Err(CheckError::CutSignature { node: i as u32 });
                }
                if ci == 0 && leaves != [id] {
                    return Err(CheckError::CutUnitMissing { node: i as u32 });
                }
            }
            // The always-kept fanin-pair cut: present verbatim, or
            // legitimately displaced by a kept subset of it (one fanin
            // inside the other's cone).
            if aig.is_and(id) {
                let (f0, f1) = aig.fanins(id);
                let mut pair = [f0.node(), f1.node()];
                pair.sort();
                let covered = self.cuts[s as usize..e as usize].iter().skip(1).any(|c| {
                    let leaves =
                        &self.leaves[c.off as usize..c.off as usize + c.len as usize];
                    leaves.iter().all(|l| pair.contains(l))
                });
                if !covered {
                    return Err(CheckError::CutFaninPairMissing { node: i as u32 });
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cuts::{enumerate_cuts_with, CutParams, CutRank};
    use crate::graph::{Lit, Node};

    /// A small graph with sharing, an edit session, and real dead
    /// nodes from a replacement.
    fn edited_graph() -> Aig {
        let mut g = Aig::new("t");
        let p = g.add_pis(3);
        let x = g.and(p[0], p[1]);
        let y = g.and(x, p[2]);
        let z = g.or(y, p[0]);
        g.add_po(z);
        g.begin_edit();
        g.replace_node(x.node(), Lit::FALSE); // y dies, z collapses to p0
        g
    }

    fn dead_lit() -> Lit {
        crate::graph::LIT_DEAD
    }

    #[test]
    fn healthy_graphs_pass() {
        let mut g = Aig::new("t");
        let p = g.add_pis(4);
        let x = g.xor(p[0], p[1]);
        let y = g.xor(p[2], p[3]);
        let z = g.and(x, y);
        g.add_po(z);
        assert_eq!(g.check(), Ok(()));
        g.begin_edit();
        assert_eq!(g.check(), Ok(()));
        let g2 = edited_graph();
        assert_eq!(g2.check(), Ok(()));
    }

    #[test]
    fn detects_dead_fanin() {
        let mut g = Aig::new("t");
        let p = g.add_pis(3);
        let x = g.and(p[0], p[1]);
        let y = g.and(x, p[2]);
        g.add_po(y);
        g.edited = true; // keep the flag check out of the way
        let key = {
            let n = g.nodes[x.node().index()];
            (n.f0.code(), n.f1.code())
        };
        g.strash.remove(&key);
        g.nodes[x.node().index()] = Node { f0: dead_lit(), f1: dead_lit() };
        assert!(matches!(g.check(), Err(CheckError::FaninDead { .. })));
    }

    #[test]
    fn detects_cycle() {
        let mut g = Aig::new("t");
        let p = g.add_pis(2);
        let x = g.and(p[0], p[1]);
        let y = g.and(x, p[0].negate());
        g.add_po(y);
        g.edited = true;
        // Point x's second fanin back at y: x → y → x.
        let xn = g.nodes[x.node().index()];
        let key = (xn.f0.code(), xn.f1.code());
        g.strash.remove(&key);
        let f0 = xn.f0.min(y);
        let f1 = xn.f0.max(y);
        g.nodes[x.node().index()] = Node { f0, f1 };
        g.strash.insert((f0.code(), f1.code()), x.node());
        assert!(matches!(g.check(), Err(CheckError::Cycle { .. })));
    }

    #[test]
    fn detects_strash_miss_and_stale() {
        let mut g = Aig::new("t");
        let p = g.add_pis(2);
        let x = g.and(p[0], p[1]);
        g.add_po(x);
        let key = {
            let n = g.nodes[x.node().index()];
            (n.f0.code(), n.f1.code())
        };
        let mut miss = g.clone();
        miss.strash.remove(&key);
        assert_eq!(miss.check(), Err(CheckError::StrashMiss { node: x.node().index() as u32 }));

        let mut stale = g.clone();
        stale.strash.insert((p[0].code(), p[0].negate().code()), x.node());
        assert!(matches!(stale.check(), Err(CheckError::StrashStale { .. })));
    }

    #[test]
    fn detects_trivial_and_misordered_fanins() {
        let mut g = Aig::new("t");
        let p = g.add_pis(2);
        let x = g.and(p[0], p[1]);
        g.add_po(x);
        let n = g.nodes[x.node().index()];
        let key = (n.f0.code(), n.f1.code());

        let mut swapped = g.clone();
        swapped.strash.remove(&key);
        swapped.nodes[x.node().index()] = Node { f0: n.f1, f1: n.f0 };
        swapped.strash.insert((n.f1.code(), n.f0.code()), x.node());
        assert_eq!(swapped.check(), Err(CheckError::FaninOrder { node: x.node().index() as u32 }));

        let mut trivial = g.clone();
        trivial.strash.remove(&key);
        trivial.nodes[x.node().index()] = Node { f0: n.f0, f1: n.f0.negate() };
        trivial.strash.insert((n.f0.code(), n.f0.negate().code()), x.node());
        assert_eq!(
            trivial.check(),
            Err(CheckError::FaninTrivial { node: x.node().index() as u32 })
        );
    }

    #[test]
    fn detects_dead_po_and_edited_flag() {
        let mut g = edited_graph();
        g.end_edit();
        // Point the PO at a node the replacement killed.
        let dead = g
            .node_ids()
            .find(|&id| g.is_dead(id))
            .expect("replacement left dead nodes");
        g.pos[0] = dead.lit();
        assert!(matches!(g.check(), Err(CheckError::PoDead { po: 0, .. })));

        let mut h = edited_graph();
        h.end_edit();
        h.pos[0] = Lit::FALSE; // make the graph otherwise healthy
        h.edited = false; // lie: dead nodes exist
        assert!(matches!(h.check(), Err(CheckError::EditedFlagClear { .. })));
    }

    #[test]
    fn detects_refcount_and_fanout_corruption() {
        let mut g = Aig::new("t");
        let p = g.add_pis(2);
        let x = g.and(p[0], p[1]);
        g.add_po(x);
        g.begin_edit();
        assert_eq!(g.check(), Ok(()));
        {
            let edit = g.edit.as_mut().expect("session active");
            edit.refs[p[0].node().index()] += 1;
        }
        assert!(matches!(g.check(), Err(CheckError::RefCountMismatch { stored: 2, actual: 1, .. })));
        {
            let edit = g.edit.as_mut().expect("session active");
            edit.refs[p[0].node().index()] -= 1;
            edit.fanouts[p[0].node().index()].clear();
        }
        assert!(matches!(g.check(), Err(CheckError::FanoutMissing { .. })));
    }

    #[test]
    fn detects_forwarding_corruption() {
        // Replace the root of a two-AND cone: the interior AND is
        // reclaimed by the MFFC recursion without ever being a
        // replacement target, so it stays dead *and* self-forwarding.
        let mut g = Aig::new("t");
        let p = g.add_pis(3);
        let a = g.and(p[0], p[1]);
        let b = g.and(a, p[2]);
        g.add_po(b);
        g.begin_edit();
        g.replace_node(b.node(), Lit::FALSE);
        let dead = {
            let edit = g.edit.as_ref().expect("session active");
            g.node_ids()
                .find(|&id| g.is_dead(id) && edit.fwd[id.index()].node() == id)
                .expect("interior dead node")
        };
        let live = g.pis()[2];
        {
            let edit = g.edit.as_mut().expect("session active");
            edit.fwd[live.index()] = dead.lit();
        }
        assert!(matches!(g.check(), Err(CheckError::ForwardFromLive { .. })));

        // A forwarding cycle between two dead nodes.
        let mut h = Aig::new("t");
        let q = h.add_pis(3);
        let u = h.and(q[0], q[1]);
        let w = h.and(u, q[2]);
        h.add_po(w);
        h.begin_edit();
        h.replace_node(w.node(), Lit::FALSE); // u and w both die
        let deads: Vec<_> = h.node_ids().filter(|&id| h.is_dead(id)).collect();
        assert!(deads.len() >= 2);
        {
            let edit = h.edit.as_mut().expect("session active");
            edit.fwd[deads[0].index()] = deads[1].lit();
            edit.fwd[deads[1].index()] = deads[0].lit();
        }
        assert!(matches!(h.check(), Err(CheckError::ForwardCycle { .. })));
    }

    #[test]
    fn detects_edit_state_size_mismatch() {
        let mut g = Aig::new("t");
        let p = g.add_pis(2);
        let x = g.and(p[0], p[1]);
        g.add_po(x);
        g.begin_edit();
        g.edit.as_mut().expect("session active").refs.pop();
        assert!(matches!(g.check(), Err(CheckError::EditStateSize { .. })));
    }

    fn cut_sample() -> (Aig, CutArena) {
        let mut g = Aig::new("t");
        let p = g.add_pis(4);
        let x = g.xor(p[0], p[1]);
        let y = g.and(p[2], p[3]);
        let z = g.or(x, y);
        g.add_po(z);
        let cuts = enumerate_cuts_with(&g, CutParams { k: 4, max_cuts: 8, rank: CutRank::Size });
        (g, cuts)
    }

    #[test]
    fn healthy_arena_passes() {
        let (g, cuts) = cut_sample();
        assert_eq!(cuts.check(&g), Ok(()));
    }

    #[test]
    fn detects_cut_signature_and_order_corruption() {
        let (g, mut cuts) = cut_sample();
        let victim = cuts.cuts.iter().position(|c| c.len >= 2).expect("non-unit cut");
        let good_sig = cuts.cuts[victim].sig;
        cuts.cuts[victim].sig ^= 1 << 63;
        assert!(matches!(cuts.check(&g), Err(CheckError::CutSignature { .. })));
        cuts.cuts[victim].sig = good_sig;

        let off = cuts.cuts[victim].off as usize;
        cuts.leaves.swap(off, off + 1);
        assert!(matches!(cuts.check(&g), Err(CheckError::CutLeavesUnsorted { .. })));
    }

    #[test]
    fn detects_cut_bounds_and_unit_corruption() {
        let (g, cuts) = cut_sample();

        let mut wide = CutArena { spans: cuts.spans[..2].to_vec(), ..clone_arena(&cuts) };
        assert!(matches!(wide.check(&g), Err(CheckError::CutArenaSize { .. })));
        wide.spans = cuts.spans.clone();
        wide.spans.last_mut().expect("nonempty").1 = u32::MAX;
        assert!(matches!(wide.check(&g), Err(CheckError::CutSpanBounds { .. })));

        let mut oob = clone_arena(&cuts);
        let victim = oob.cuts.len() - 1;
        oob.cuts[victim].off = oob.leaves.len() as u32;
        oob.cuts[victim].len = 2;
        assert!(matches!(oob.check(&g), Err(CheckError::CutLeafBounds { .. })));

        let mut nounit = clone_arena(&cuts);
        let root = g.pos()[0].node();
        let (s, _) = nounit.spans[root.index()];
        nounit.spans[root.index()].0 = s + 1; // drop the unit cut
        assert!(matches!(nounit.check(&g), Err(CheckError::CutUnitMissing { .. })));
    }

    #[test]
    fn detects_lost_fanin_pair_cut() {
        let (g, mut cuts) = cut_sample();
        let root = g.pos()[0].node();
        let (s, e) = cuts.spans[root.index()];
        // Keep only the unit cut: the fanin-pair guarantee is gone.
        assert!(e > s + 1);
        cuts.spans[root.index()] = (s, s + 1);
        assert!(matches!(cuts.check(&g), Err(CheckError::CutFaninPairMissing { .. })));
    }

    #[test]
    fn detects_dead_cut_leaf() {
        let (mut g, mut cuts) = cut_sample();
        // Kill an AND the cuts reference as a leaf (surgically: strash
        // entry out, node dead, graph marked edited) and patch the
        // graph so only the cut check can complain.
        let x = g.pos()[0].node();
        let (f0, _) = g.fanins(x);
        let victim = f0.node();
        let vn = g.nodes[victim.index()];
        g.strash.remove(&(vn.f0.code(), vn.f1.code()));
        // Also retire every AND above the victim so no live node holds
        // a dead fanin.
        for id in g.node_ids().collect::<Vec<_>>() {
            if g.is_and(id) && (id == victim || id == x) {
                let n = g.nodes[id.index()];
                g.strash.remove(&(n.f0.code(), n.f1.code()));
                g.nodes[id.index()] = Node { f0: dead_lit(), f1: dead_lit() };
            }
        }
        g.pos[0] = Lit::FALSE;
        g.edited = true;
        assert_eq!(g.check(), Ok(()));
        // The victim's unit cut still lists the now-dead node, but as
        // a *dead node's* span it is skipped; corrupt a live node's
        // cut to reference the dead victim instead.
        let live = g.node_ids().find(|&id| g.is_and(id)).expect("a live AND remains");
        let (s, _) = cuts.spans[live.index()];
        let off = cuts.cuts[s as usize].off as usize;
        cuts.leaves[off] = victim;
        cuts.cuts[s as usize].sig = 1 << (victim.index() % 64);
        let r = cuts.check(&g);
        assert!(
            matches!(r, Err(CheckError::CutLeafDead { .. } | CheckError::CutUnitMissing { .. })),
            "{r:?}"
        );
    }

    #[test]
    fn detects_overwide_cut() {
        let (g, mut cuts) = cut_sample();
        cuts.k = 1; // pretend the bound was tighter than the cuts are
        assert!(matches!(cuts.check(&g), Err(CheckError::CutWidth { .. })));
    }

    #[test]
    fn errors_display_and_propagate() {
        let e = CheckError::StrashMiss { node: 7 };
        assert!(e.to_string().contains("node 7"));
        let boxed: Box<dyn std::error::Error> = Box::new(e);
        assert!(boxed.to_string().contains("hash"));
    }

    /// Manual clone (CutData is Copy; CutArena itself is not Clone to
    /// keep the public surface minimal).
    fn clone_arena(a: &CutArena) -> CutArena {
        CutArena {
            k: a.k,
            has_tts: a.has_tts,
            leaves: a.leaves.clone(),
            cuts: a.cuts.clone(),
            spans: a.spans.clone(),
        }
    }
}
