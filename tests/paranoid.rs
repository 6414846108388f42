//! Property-based exercise of the structural invariant checkers:
//! random edit sequences on random graphs, full synthesis scripts,
//! cut enumeration, and SAT solving with forced clause-database
//! reductions — each step followed by the corresponding `check()`.
//!
//! These tests run the checkers *explicitly*, so they validate the
//! invariants on every build; under `--features paranoid` the same
//! checks additionally fire inside the engines' own hot seams.

use cntfet_aig::{enumerate_cuts_with, Aig, CutParams, CutRank, Lit};
use cntfet_sat::{SolveResult, Solver, Var};
use proptest::prelude::*;

/// Builds a random DAG from a script of (op, operand indices) choices.
fn random_aig(num_pis: usize, script: &[(u8, u16, u16)]) -> Aig {
    let mut g = Aig::new("paranoid");
    let pis = g.add_pis(num_pis);
    let mut pool: Vec<Lit> = pis;
    for &(op, ai, bi) in script {
        let a = pool[ai as usize % pool.len()];
        let b = pool[bi as usize % pool.len()];
        let l = match op % 5 {
            0 => g.and(a, b),
            1 => g.or(a, b),
            2 => g.xor(a, b),
            3 => g.and(a.negate(), b),
            _ => g.or(a, b.negate()),
        };
        pool.push(l);
    }
    for i in 0..3.min(pool.len()) {
        g.add_po(pool[pool.len() - 1 - i]);
    }
    g
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// A random interleaving of `replace_node`, `mffc_deref`/`mffc_ref`
    /// probes, and resolve calls keeps every graph invariant intact —
    /// checked after each step, inside and outside the edit session.
    #[test]
    fn prop_random_edit_sequences_stay_checked(
        script in proptest::collection::vec((0u8..5, 0u16..500, 0u16..500), 8..60),
        edits in proptest::collection::vec((0u16..500, 0u16..500, any::<bool>()), 1..12),
    ) {
        let mut g = random_aig(5, &script);
        prop_assert!(g.check().is_ok(), "fresh graph: {:?}", g.check());

        g.begin_edit();
        prop_assert!(g.check().is_ok(), "after begin_edit: {:?}", g.check());
        for &(oi, ni, probe) in &edits {
            let ands: Vec<_> = g.and_ids().filter(|&id| !g.is_dead(id)).collect();
            if ands.is_empty() {
                break;
            }
            let old = ands[oi as usize % ands.len()];
            if probe {
                // Non-mutating MFFC probe (deref + symmetric re-ref).
                let size = g.mffc_size(old);
                prop_assert!(size >= 1);
            } else {
                // Replace with the resolved literal of another node or
                // a PI — resolve() guards against dangling targets,
                // replace_node() guards against cycles internally by
                // construction (new is an existing literal).
                let ids: Vec<_> = g.node_ids().filter(|&id| !g.is_dead(id)).collect();
                let new = g.resolve(ids[ni as usize % ids.len()].lit());
                if new.node() == old || g.is_dead(new.node()) {
                    continue;
                }
                // Skip replacements that would create a cycle: `new`
                // must not be in `old`'s fanout cone. Cheap proxy: only
                // replace with strictly smaller ids (topological order
                // holds for never-compacted fresh graphs).
                if new.node().index() >= old.index() {
                    continue;
                }
                g.replace_node(old, new);
            }
            prop_assert!(g.check().is_ok(), "mid-edit: {:?}", g.check());
        }
        g.end_edit();
        prop_assert!(g.check().is_ok(), "after end_edit: {:?}", g.check());

        let compacted = g.compact();
        prop_assert!(compacted.check().is_ok(), "after compact: {:?}", compacted.check());
    }

    /// Cut enumeration over random graphs yields a checked arena, and
    /// the full resyn2rs script leaves a checked graph.
    #[test]
    fn prop_synthesis_and_cuts_stay_checked(
        script in proptest::collection::vec((0u8..5, 0u16..500, 0u16..500), 10..80),
    ) {
        let g = random_aig(6, &script);
        let cuts = enumerate_cuts_with(&g, CutParams { k: 4, max_cuts: 8, rank: CutRank::Size });
        prop_assert!(cuts.check(&g).is_ok(), "cut arena: {:?}", cuts.check(&g));

        let o = cntfet_synth::resyn2rs(&g);
        prop_assert!(o.check().is_ok(), "after resyn2rs: {:?}", o.check());
        let ocuts =
            enumerate_cuts_with(&o, CutParams { k: 6, max_cuts: 12, rank: CutRank::Size });
        prop_assert!(ocuts.check(&o).is_ok(), "cut arena after synth: {:?}", ocuts.check(&o));
    }

    /// Random CNF instances solved with a conflict budget, with the
    /// learnt database forcibly reduced (triggering arena GC) between
    /// rounds, keep the solver's invariants intact.
    #[test]
    fn prop_solver_survives_forced_reductions(
        clauses in proptest::collection::vec(
            proptest::collection::vec((0u8..16, any::<bool>()), 2..5), 20..80),
        rounds in 1usize..4,
    ) {
        let mut s = Solver::new();
        let vars: Vec<Var> = (0..16).map(|_| s.new_var()).collect();
        for c in &clauses {
            let lits: Vec<Lit2> = c.iter().map(|&(v, pos)| vars[v as usize % 16].lit(pos)).collect();
            s.add_clause(&lits);
        }
        prop_assert!(s.check().is_ok(), "after load: {:?}", s.check());
        for _ in 0..rounds {
            let r = s.solve_limited(&[], 200);
            prop_assert!(s.check().is_ok(), "after solve: {:?}", s.check());
            s.reduce_learnts();
            prop_assert!(s.check().is_ok(), "after reduce: {:?}", s.check());
            if r == Some(SolveResult::Unsat) {
                break;
            }
        }
    }
}

type Lit2 = cntfet_sat::Lit;
