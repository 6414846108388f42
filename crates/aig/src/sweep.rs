//! SAT sweeping (fraig-style) combinational equivalence checking.
//!
//! Plain miter-SAT struggles on arithmetic circuits (the classic
//! multiplier-miter problem). Sweeping exploits the structural
//! similarity of the two networks: candidate-equivalent internal node
//! pairs are detected by random simulation over a flat
//! structure-of-arrays signature matrix and proven one by one with
//! conflict-budgeted assumption solves in topological order. The SAT
//! side stays local to the cones being compared:
//!
//! * a node's variable and Tseitin clauses enter the solver the first
//!   time a proof or an output miter reaches it;
//! * a proven node is merged into its class representative, and cones
//!   are encoded through representatives, so a merged node never
//!   enters a later cone (later proofs ride on earlier ones, and the
//!   final output miters become trivial);
//! * once the solver has outgrown the cones it is replaced by an empty
//!   one; the merges survive, only learnt clauses are dropped.
//!
//! Narrow-input circuits (≤ 16 PIs) skip SAT entirely: exhaustive
//! simulation is a complete check there. This is the workspace's only
//! CEC engine; `SweepOptions { node_budget: 0, .. }` reduces it to a
//! plain per-output miter.

use crate::cec::{exhaustive_cec, CecReport, CecResult};
use crate::graph::{Aig, Lit, NodeId};
use crate::sim::{exhaustive_feasible, SimMatrix, EXHAUSTIVE_MAX_PIS};
use cntfet_sat::{Lit as SatLit, SolveResult, Solver, SolverStats, Var};
use std::collections::HashMap;

/// Tuning knobs of [`check_equivalence_sweeping_with`]. The defaults
/// reproduce the library's standard behavior; tests and benches can
/// stress specific paths (e.g. `node_budget: 0` disables internal
/// sweeping entirely, forcing the pure output-miter fallback).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SweepOptions {
    /// Conflict budget per internal equivalence proof; `0` skips the
    /// internal sweep and solves only the output miters.
    pub node_budget: u64,
    /// Initial simulation words (64 patterns each) for candidate
    /// detection.
    pub sim_words: usize,
    /// Seed of the candidate-detection pattern generator.
    pub seed: u64,
    /// PI counts up to this bound are decided by exhaustive simulation
    /// without SAT; `0` disables the shortcut.
    pub exhaustive_pis: u32,
}

impl Default for SweepOptions {
    fn default() -> Self {
        SweepOptions {
            node_budget: 2_000,
            sim_words: 4,
            seed: 0x1357_9BDF_2468_ACE0,
            exhaustive_pis: EXHAUSTIVE_MAX_PIS,
        }
    }
}

/// Checks equivalence of two AIGs with identical interfaces using SAT
/// sweeping under default [`SweepOptions`] — the engine behind
/// [`crate::check_equivalence`].
///
/// # Panics
///
/// Panics if the PI/PO counts differ.
pub fn check_equivalence_sweeping(a: &Aig, b: &Aig) -> CecResult {
    check_equivalence_sweeping_with(a, b, &SweepOptions::default())
}

/// [`check_equivalence_sweeping`] with explicit options.
///
/// # Panics
///
/// Panics if the PI/PO counts differ.
pub fn check_equivalence_sweeping_with(a: &Aig, b: &Aig, opts: &SweepOptions) -> CecResult {
    check_equivalence_sweeping_report(a, b, opts).result
}

/// The process-wide CEC result cache: verdicts (full [`CecReport`]s)
/// keyed by both graphs' structural fingerprints and the sweep
/// options. The sweeping engine is deterministic in that key,
/// so a hit returns exactly what a recomputation would.
fn cec_cache() -> &'static crate::ResultCache<(u128, u128, SweepOptions), CecReport> {
    static CACHE: std::sync::OnceLock<crate::ResultCache<(u128, u128, SweepOptions), CecReport>> =
        std::sync::OnceLock::new();
    CACHE.get_or_init(|| crate::ResultCache::new(1024))
}

/// Hit/miss counters of the process-wide CEC result cache.
pub fn cec_cache_stats() -> cntfet_boolfn::CacheStats {
    cec_cache().stats()
}

/// Drops every entry of the process-wide CEC result cache (counters
/// keep accumulating) — used by benchmarks to measure cold runs.
pub fn clear_cec_cache() {
    cec_cache().clear();
}

/// [`check_equivalence_sweeping`] returning the full [`CecReport`]
/// (solver statistics, internal proof and refinement counts).
///
/// Results are memoized process-wide under the two graphs' structural
/// fingerprints and the options ([`cec_cache_stats`] reads
/// the counters; `CNTFET_NO_CACHE=1` disables the memo).
///
/// # Panics
///
/// Panics if the PI/PO counts differ.
pub fn check_equivalence_sweeping_report(a: &Aig, b: &Aig, opts: &SweepOptions) -> CecReport {
    assert_eq!(a.num_pis(), b.num_pis(), "PI count mismatch");
    assert_eq!(a.num_pos(), b.num_pos(), "PO count mismatch");
    cec_cache().get_or_insert_with((a.fingerprint(), b.fingerprint(), *opts), || {
        sweeping_report_uncached(a, b, opts)
    })
}

fn sweeping_report_uncached(a: &Aig, b: &Aig, opts: &SweepOptions) -> CecReport {
    // Narrow interface: complete simulation decides without SAT (as
    // long as the matrices fit the memory budget).
    if opts.exhaustive_pis > 0
        && exhaustive_feasible(a, opts.exhaustive_pis)
        && exhaustive_feasible(b, opts.exhaustive_pis)
    {
        return CecReport {
            result: exhaustive_cec(a, b),
            sat_stats: SolverStats::default(),
            internal_proofs: 0,
            refinements: 0,
            exhaustive: true,
        };
    }

    // ---- joint network (shared PIs, shared structure via strash) ----
    let mut joint = Aig::new("joint");
    let pis = joint.add_pis(a.num_pis());
    let pos_a = append(a, &mut joint, &pis);
    let pos_b = append(b, &mut joint, &pis);
    let n = joint.num_nodes();

    // Union-find with complement phases: node -> (repr, phase).
    let mut repr: Vec<(u32, bool)> = (0..n as u32).map(|i| (i, false)).collect();
    // CNF enters the solver only as proofs reach it.
    let mut cones = ConeSolver::new(n);

    let (internal_proofs, refinements) = if opts.node_budget > 0 {
        sweep(&joint, &mut cones, &mut repr, opts)
    } else {
        (0, 0)
    };

    // ---- output miters (trivial when sweeping did its job) ----
    let mut result = CecResult::Equivalent;
    'outputs: for (o, (&la, &lb)) in pos_a.iter().zip(pos_b.iter()).enumerate() {
        if la == lb {
            continue; // strash merged them (includes equal constants)
        }
        if la.is_const() && lb.is_const() {
            // Differing constants: every assignment distinguishes.
            result = CecResult::Counterexample {
                inputs: vec![false; a.num_pis()],
                output: o,
            };
            break;
        }
        // Same proven equivalence class with matching phase?
        let (root_a, ph_a) = find(&mut repr, la.node().index() as u32);
        let (root_b, ph_b) = find(&mut repr, lb.node().index() as u32);
        if root_a == root_b && ph_a ^ la.is_complement() == ph_b ^ lb.is_complement() {
            continue;
        }
        let (sa, sb) = cones.pair(&joint, &mut repr, la, lb);
        for assumptions in [[sa, sb.negate()], [sa.negate(), sb]] {
            if cones.solver.solve(&assumptions) == SolveResult::Sat {
                result = CecResult::Counterexample {
                    inputs: cones.model_inputs(&joint),
                    output: o,
                };
                break 'outputs;
            }
        }
    }
    CecReport {
        result,
        sat_stats: cones.stats(),
        internal_proofs,
        refinements,
        exhaustive: false,
    }
}

/// The solver is replaced once it holds more than this many variables
/// and at least [`RECYCLE_PROOFS`] proofs have run on it. Past this
/// size it mostly carries the cones of earlier proofs, which later
/// proofs no longer reach but its decisions and models still cover.
const RECYCLE_VARS: usize = 500;

/// Proofs a solver must have run before it may be replaced: a fresh
/// solver for every proof costs more than the search it saves.
const RECYCLE_PROOFS: u32 = 50;

/// The sweep's SAT side: one incremental solver holding CNF only for
/// the cones that proofs and output miters have reached. Nodes are
/// encoded through their proven class representatives, so a merged
/// node never enters a later cone. Once the solver outgrows the cones
/// it is replaced by an empty one: proven merges live in the
/// union-find, so only learnt clauses are lost.
struct ConeSolver {
    solver: Solver,
    /// SAT variable of each loaded class representative.
    vars: Vec<Option<Var>>,
    /// Counters of the solvers replaced so far.
    retired: SolverStats,
    /// Proofs run on the current solver.
    proofs: u32,
    /// Pending nodes of the loading walk (kept to avoid reallocating).
    stack: Vec<u32>,
}

impl ConeSolver {
    fn new(num_nodes: usize) -> Self {
        ConeSolver {
            solver: Solver::new(),
            vars: vec![None; num_nodes],
            retired: SolverStats::default(),
            proofs: 0,
            stack: Vec::new(),
        }
    }

    /// SAT literals of two AIG literals about to be compared, loading
    /// their cones; replaces the solver first if it has outgrown them.
    fn pair(&mut self, joint: &Aig, repr: &mut [(u32, bool)], a: Lit, b: Lit) -> (SatLit, SatLit) {
        if self.proofs >= RECYCLE_PROOFS && self.solver.num_vars() > RECYCLE_VARS {
            self.retired.absorb(&self.solver.stats());
            self.solver = Solver::new();
            self.vars.fill(None);
            self.proofs = 0;
        }
        self.proofs += 1;
        (self.lit(joint, repr, a), self.lit(joint, repr, b))
    }

    /// SAT literal of an AIG literal: its class representative's
    /// variable, complemented by the class phase.
    fn lit(&mut self, joint: &Aig, repr: &mut [(u32, bool)], l: Lit) -> SatLit {
        let (root, phase) = find(repr, l.node().index() as u32);
        self.load(joint, repr, root).lit(phase == l.is_complement())
    }

    /// Variable of class representative `root`, loading every node of
    /// its cone that has none yet (an iterative post-order walk). An
    /// AND's fanins are read through their representatives; the
    /// constant gets a unit clause, a PI no clause.
    fn load(&mut self, joint: &Aig, repr: &mut [(u32, bool)], root: u32) -> Var {
        let mut x = root;
        loop {
            if let Some(v) = self.vars[x as usize] {
                match self.stack.pop() {
                    Some(waiting) => {
                        x = waiting;
                        continue;
                    }
                    None => return v,
                }
            }
            let id = NodeId::from_index(x as usize);
            let fanins = if joint.is_and(id) {
                let (f0, f1) = joint.fanins(id);
                let (r0, p0) = find(repr, f0.node().index() as u32);
                let (r1, p1) = find(repr, f1.node().index() as u32);
                match (self.vars[r0 as usize], self.vars[r1 as usize]) {
                    (Some(v0), Some(v1)) => {
                        Some((v0.lit(p0 == f0.is_complement()), v1.lit(p1 == f1.is_complement())))
                    }
                    (None, _) => {
                        self.stack.push(x);
                        x = r0;
                        continue;
                    }
                    (_, None) => {
                        self.stack.push(x);
                        x = r1;
                        continue;
                    }
                }
            } else {
                None
            };
            let v = self.solver.new_var();
            if let Some((la, lb)) = fanins {
                // v ↔ la ∧ lb
                let c = v.pos();
                self.solver.add_clause(&[c.negate(), la]);
                self.solver.add_clause(&[c.negate(), lb]);
                self.solver.add_clause(&[c, la.negate(), lb.negate()]);
            } else if id == NodeId::CONST {
                self.solver.add_clause(&[v.neg()]);
            }
            self.vars[x as usize] = Some(v);
        }
    }

    /// PI values of the last model; a PI outside every loaded cone
    /// reads as `false`.
    fn model_inputs(&self, joint: &Aig) -> Vec<bool> {
        joint
            .pis()
            .iter()
            .map(|pi| self.vars[pi.index()].and_then(|v| self.solver.value(v)).unwrap_or(false))
            .collect()
    }

    /// Counters of every solver run so far.
    fn stats(&self) -> SolverStats {
        let mut total = self.retired;
        total.absorb(&self.solver.stats());
        total
    }
}

/// The sweeping loop: candidate pairs proven in topological order,
/// each proven node merged into its representative's class in the
/// union-find (so cones loaded afterwards read the representative in
/// its place), with bucket rebuilds after every refinement. Returns
/// (internal proofs, refinements).
fn sweep(
    joint: &Aig,
    cones: &mut ConeSolver,
    repr: &mut [(u32, bool)],
    opts: &SweepOptions,
) -> (u64, u64) {
    let ids: Vec<NodeId> = joint.and_ids().collect();
    let mut internal_proofs = 0u64;
    let mut refinements = 0u64;
    // Flat simulation signatures (only needed for candidate
    // detection, so the pure-miter fallback skips the pass).
    let mut sim = SimMatrix::random(joint, opts.sim_words, opts.seed);
    let mut buckets = Buckets::new(joint.num_nodes());
    buckets.find_or_insert(&sim, NodeId::CONST.index());
    let mut i = 0usize;
    while i < ids.len() {
        let id = ids[i];
        let Some(r) = buckets.find_or_insert(&sim, id.index()) else {
            i += 1;
            continue;
        };
        // Candidate: id == r ^ want_phase.
        let want_phase = norm_mask(sim.sig(id.index())) != norm_mask(sim.sig(r as usize));
        // Already known?
        let (root_n, ph_n) = find(repr, id.index() as u32);
        let (root_r, ph_r) = find(repr, r);
        if root_n == root_r {
            i += 1;
            continue;
        }
        // Prove id ≡ r by refuting both disagreement phases under
        // assumptions — no miter variables or clauses enter the
        // solver.
        let r_lit = Lit::new(NodeId::from_index(r as usize), want_phase);
        let (ln, lr) = cones.pair(joint, repr, id.lit(), r_lit);
        match prove_equal(&mut cones.solver, ln, lr, opts.node_budget) {
            Proof::Equal => {
                // Proven: merge. Cones loaded from now on read id
                // through its representative; no loaded clause names
                // id's fanouts yet, since they come later in
                // topological order.
                internal_proofs += 1;
                repr[root_n as usize] = (root_r, ph_n ^ ph_r ^ want_phase);
                i += 1;
            }
            Proof::Differ => {
                // Counterexample: refine every signature with a fresh
                // word seeded by it, rebuild the buckets, and retry
                // this node.
                refinements += 1;
                sim.refine(joint, &cones.model_inputs(joint));
                buckets.clear();
                buckets.find_or_insert(&sim, NodeId::CONST.index());
                for &prev in ids.iter().take(i) {
                    buckets.find_or_insert(&sim, prev.index());
                }
            }
            Proof::Unknown => {
                // Budget exhausted: treat as distinct.
                i += 1;
            }
        }
    }
    (internal_proofs, refinements)
}

enum Proof {
    Equal,
    Differ,
    Unknown,
}

/// Budgeted equivalence proof of two SAT literals: `la ≡ lb` iff both
/// disagreement phases are unsatisfiable. On `Differ` the solver holds
/// the distinguishing model.
fn prove_equal(solver: &mut Solver, la: SatLit, lb: SatLit, budget: u64) -> Proof {
    for assumptions in [[la, lb.negate()], [la.negate(), lb]] {
        match solver.solve_limited(&assumptions, budget) {
            Some(SolveResult::Unsat) => {}
            Some(SolveResult::Sat) => return Proof::Differ,
            None => return Proof::Unknown,
        }
    }
    Proof::Equal
}

/// End of a [`Buckets`] chain.
const NIL: u32 = u32::MAX;

/// Candidate buckets: the first node seen with each simulation
/// signature under [`norm_mask`], so a node and its complement share a
/// bucket. Signatures are looked up by a 64-bit hash and compared in
/// place, chained on collision, so no lookup allocates.
struct Buckets {
    /// Signature hash -> the node inserted last under it.
    heads: HashMap<u64, u32>,
    /// Node -> the node inserted before it under the same hash.
    next: Vec<u32>,
}

impl Buckets {
    fn new(num_nodes: usize) -> Self {
        Buckets { heads: HashMap::new(), next: vec![NIL; num_nodes] }
    }

    fn clear(&mut self) {
        self.heads.clear();
    }

    /// The bucket's node if `node`'s normalized signature already has
    /// one; otherwise `node` becomes that node and `None` is returned.
    fn find_or_insert(&mut self, sim: &SimMatrix, node: usize) -> Option<u32> {
        let sig = sim.sig(node);
        let flip = norm_mask(sig);
        let hash = sig.iter().fold(0u64, |h, &w| {
            (h.rotate_left(5) ^ w ^ flip).wrapping_mul(0x9E37_79B9_7F4A_7C15)
        });
        let mut c = self.heads.get(&hash).copied().unwrap_or(NIL);
        while c != NIL {
            let other = sim.sig(c as usize);
            let other_flip = norm_mask(other);
            if sig.iter().zip(other).all(|(&w, &o)| w ^ flip == o ^ other_flip) {
                return Some(c);
            }
            c = self.next[c as usize];
        }
        self.next[node] = self.heads.insert(hash, node as u32).unwrap_or(NIL);
        None
    }
}

/// The word mask that complement-normalizes a signature: all ones
/// when bit 0 of word 0 is set (the signature's phase), else zero.
fn norm_mask(sig: &[u64]) -> u64 {
    (sig[0] & 1).wrapping_neg()
}

/// Union-find lookup with path compression; returns the class root and
/// the phase of `x` relative to it.
fn find(repr: &mut [(u32, bool)], x: u32) -> (u32, bool) {
    let (p, ph) = repr[x as usize];
    if p == x {
        return (x, false);
    }
    let (root, root_ph) = find(repr, p);
    let total = ph ^ root_ph;
    repr[x as usize] = (root, total);
    (root, total)
}

/// Imports `src` into `dst` reusing the shared PIs; returns the PO
/// literals in `dst`.
fn append(src: &Aig, dst: &mut Aig, pis: &[Lit]) -> Vec<Lit> {
    let mut map: Vec<Lit> = vec![Lit::FALSE; src.num_nodes()];
    for (i, &pi) in src.pis().iter().enumerate() {
        map[pi.index()] = pis[i];
    }
    for id in src.and_ids() {
        let (f0, f1) = src.fanins(id);
        let a = map[f0.node().index()].negate_if(f0.is_complement());
        let b = map[f1.node().index()].negate_if(f1.is_complement());
        map[id.index()] = dst.and(a, b);
    }
    src.pos()
        .iter()
        .map(|po| map[po.node().index()].negate_if(po.is_complement()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_decides_xor_structures() {
        let mut a = Aig::new("a");
        let p = a.add_pis(6);
        let x = a.xor_many(&p);
        a.add_po(x);
        let mut b = Aig::new("b");
        let q = b.add_pis(6);
        let mut acc = q[0];
        for &l in &q[1..] {
            acc = b.xor(acc, l);
        }
        b.add_po(acc);
        assert_eq!(check_equivalence_sweeping(&a, &b), CecResult::Equivalent);

        // Break it.
        let po = b.pos()[0];
        b.set_po(0, po.negate());
        match check_equivalence_sweeping(&a, &b) {
            CecResult::Counterexample { inputs, output } => {
                assert_ne!(a.eval(&inputs)[output], b.eval(&inputs)[output]);
            }
            CecResult::Equivalent => panic!("inequivalent pair reported equivalent"),
        }
    }

    #[test]
    fn sweep_handles_small_multipliers() {
        // Two structurally different 6-bit multipliers; 12 PIs, so the
        // exhaustive path decides.
        let m1 = cntfet_circuits_multiplier_columns(6);
        let m2 = cntfet_circuits_multiplier_shift_add(6);
        let r = check_equivalence_sweeping_report(&m1, &m2, &SweepOptions::default());
        assert_eq!(r.result, CecResult::Equivalent);
        assert!(r.exhaustive);
    }

    #[test]
    fn sweep_proper_runs_past_the_exhaustive_bound() {
        // Force the SAT-sweeping machinery even on a narrow circuit.
        let m1 = cntfet_circuits_multiplier_columns(5);
        let m2 = cntfet_circuits_multiplier_shift_add(5);
        let opts = SweepOptions { exhaustive_pis: 0, ..Default::default() };
        let r = check_equivalence_sweeping_report(&m1, &m2, &opts);
        assert_eq!(r.result, CecResult::Equivalent);
        assert!(!r.exhaustive);
        assert!(r.sat_stats.propagations > 0, "SAT must have run");
        // Run-to-run determinism: a cold recomputation (no result
        // cache) reproduces the whole report, solver counters included.
        let again = sweeping_report_uncached(&m1, &m2, &opts);
        assert_eq!(format!("{r:?}"), format!("{again:?}"));

        // And an inequivalent pair through the same machinery.
        let mut broken = cntfet_circuits_multiplier_shift_add(5);
        let po = broken.pos()[3];
        broken.set_po(3, po.negate());
        match check_equivalence_sweeping_with(&m1, &broken, &opts) {
            CecResult::Counterexample { inputs, output } => {
                assert_ne!(m1.eval(&inputs)[output], broken.eval(&inputs)[output]);
            }
            CecResult::Equivalent => panic!("broken multiplier reported equivalent"),
        }
    }

    #[test]
    fn solver_replacement_keeps_verdicts_and_reports() {
        // Two 64-bit ripple adders built with different XOR and carry
        // structures: 128 PIs, 1 140 joint ANDs. The sweep proves 253
        // pairs, about four per bit, and the representative of bit i's
        // carry reads the whole carry chain below it, so loaded cones
        // grow with i. A solver is replaced once it holds more than
        // RECYCLE_VARS = 500 variables after at least
        // RECYCLE_PROOFS = 50 proofs: as measured, the first solver
        // reaches 503 variables at proof 100, and 253 proofs replace
        // the solver three times.
        let m1 = ripple_adder(64, false);
        let m2 = ripple_adder(64, true);
        let opts = SweepOptions { exhaustive_pis: 0, ..Default::default() };

        // The replacement path runs: some solver was retired.
        let mut joint = Aig::new("joint");
        let pis = joint.add_pis(m1.num_pis());
        append(&m1, &mut joint, &pis);
        append(&m2, &mut joint, &pis);
        let n = joint.num_nodes();
        let mut repr: Vec<(u32, bool)> = (0..n as u32).map(|i| (i, false)).collect();
        let mut cones = ConeSolver::new(n);
        let (proofs, _) = sweep(&joint, &mut cones, &mut repr, &opts);
        assert!(proofs > 2 * u64::from(RECYCLE_PROOFS), "only {proofs} proofs");
        assert!(cones.retired.propagations > 0, "no solver was replaced");

        let r = check_equivalence_sweeping_report(&m1, &m2, &opts);
        assert_eq!(r.result, CecResult::Equivalent);
        assert!(!r.exhaustive);
        assert_eq!(r.internal_proofs, proofs);
        // A cold recomputation reproduces the whole report, solver
        // counters summed over the replaced solvers included.
        let again = sweeping_report_uncached(&m1, &m2, &opts);
        assert_eq!(format!("{r:?}"), format!("{again:?}"));

        // A complemented sum bit past the replacements: the output
        // miter's counterexample comes from the current solver.
        let mut broken = ripple_adder(64, true);
        let po = broken.pos()[40];
        broken.set_po(40, po.negate());
        match check_equivalence_sweeping_with(&m1, &broken, &opts) {
            CecResult::Counterexample { inputs, output } => {
                assert_eq!(output, 40);
                assert_ne!(m1.eval(&inputs)[output], broken.eval(&inputs)[output]);
            }
            CecResult::Equivalent => panic!("broken adder reported equivalent"),
        }
    }

    #[test]
    fn zero_node_budget_forces_pure_miter_fallback() {
        let m1 = cntfet_circuits_multiplier_columns(4);
        let m2 = cntfet_circuits_multiplier_shift_add(4);
        let opts = SweepOptions { node_budget: 0, exhaustive_pis: 0, ..Default::default() };
        let r = check_equivalence_sweeping_report(&m1, &m2, &opts);
        assert_eq!(r.result, CecResult::Equivalent);
        assert_eq!(r.internal_proofs, 0, "budget 0 must skip internal sweeping");
        assert_eq!(r.refinements, 0);
        assert!(!r.exhaustive);
    }

    /// An `n`-bit ripple-carry adder; `alt` builds every XOR and carry
    /// in a second structure that strash does not merge with the first.
    fn ripple_adder(n: usize, alt: bool) -> Aig {
        let mut g = Aig::new("add");
        let a = g.add_pis(n);
        let b = g.add_pis(n);
        let mut carry = Lit::FALSE;
        for i in 0..n {
            let (x, y) = (a[i], b[i]);
            let (sum, next) = if alt {
                let xor2 = |g: &mut Aig, p: Lit, q: Lit| {
                    let either = g.or(p, q);
                    let both = g.and(p, q);
                    g.and(either, both.negate())
                };
                let p = xor2(&mut g, x, y);
                let sum = xor2(&mut g, p, carry);
                let xy = g.and(x, y);
                let xc = g.and(x, carry);
                let yc = g.and(y, carry);
                let xy_xc = g.or(xy, xc);
                (sum, g.or(xy_xc, yc))
            } else {
                let p = g.xor(x, y);
                let sum = g.xor(p, carry);
                let xy = g.and(x, y);
                let pc = g.and(p, carry);
                (sum, g.or(xy, pc))
            };
            g.add_po(sum);
            carry = next;
        }
        g.add_po(carry);
        g
    }

    fn cntfet_circuits_multiplier_columns(n: usize) -> Aig {
        // Use the same column algorithm as cntfet-circuits (inlined to
        // avoid a dev-dependency cycle).
        use std::collections::VecDeque;
        let mut g = Aig::new("m1");
        let a = g.add_pis(n);
        let b = g.add_pis(n);
        let mut cols: Vec<VecDeque<Lit>> = vec![VecDeque::new(); 2 * n];
        for i in 0..n {
            for j in 0..n {
                let pp = g.and(a[i], b[j]);
                cols[i + j].push_back(pp);
            }
        }
        let mut out = Vec::new();
        for c in 0..(2 * n) {
            while cols[c].len() > 1 {
                let x = cols[c].pop_front().unwrap();
                let y = cols[c].pop_front().unwrap();
                let z = cols[c].pop_front().unwrap_or(Lit::FALSE);
                let xy = g.xor(x, y);
                let s = g.xor(xy, z);
                let c1 = g.and(x, y);
                let c2 = g.and(xy, z);
                let carry = g.or(c1, c2);
                cols[c].push_back(s);
                if c + 1 < 2 * n {
                    cols[c + 1].push_back(carry);
                }
            }
            out.push(cols[c].front().copied().unwrap_or(Lit::FALSE));
        }
        for o in out {
            g.add_po(o);
        }
        g
    }

    fn cntfet_circuits_multiplier_shift_add(n: usize) -> Aig {
        let mut g = Aig::new("m2");
        let a = g.add_pis(n);
        let b = g.add_pis(n);
        // acc += (a & b[j]) << j, ripple adder per row.
        let mut acc: Vec<Lit> = vec![Lit::FALSE; 2 * n];
        for (j, &bj) in b.iter().enumerate() {
            let row: Vec<Lit> = a.iter().map(|&ai| g.and(ai, bj)).collect();
            let mut carry = Lit::FALSE;
            for i in 0..=n {
                let idx = i + j;
                let addend = row.get(i).copied().unwrap_or(Lit::FALSE);
                let x = g.xor(acc[idx], addend);
                let s = g.xor(x, carry);
                let c1 = g.and(acc[idx], addend);
                let c2 = g.and(x, carry);
                carry = g.or(c1, c2);
                acc[idx] = s;
            }
        }
        for o in acc {
            g.add_po(o);
        }
        g
    }
}
