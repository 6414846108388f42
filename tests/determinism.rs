//! Workspace determinism tests: the worker count must not change any
//! result — same mapped covers, same synthesized graphs, same suite
//! reports with their SAT counters. Inside one circuit only the
//! mapper's cut enumeration on graphs of at least [`PAR_MIN_ANDS`]
//! ANDs runs on several workers, so the cover case includes a graph
//! above that cutoff; the suite fans circuits out across workers.
//! Result caches are cleared between runs, since their keys hold no
//! worker count.

use cntfet_aig::{equivalent, Aig, CecReport, CecResult, PAR_MIN_ANDS};
use cntfet_bench::{clear_result_caches, run_suite_with};
use cntfet_circuits::{array_multiplier, des_like, random_logic};
use cntfet_core::{Library, LogicFamily};
use cntfet_synth::{resyn2rs, Script};
use cntfet_techmap::{map, verify_mapping_report, MapOptions, Objective};
use proptest::prelude::*;

/// Builds a random DAG from a script of (op, operand indices) choices.
fn random_aig(num_pis: usize, script: &[(u8, u16, u16)]) -> Aig {
    let mut g = Aig::new("det");
    let pis = g.add_pis(num_pis);
    let mut pool: Vec<cntfet_aig::Lit> = pis;
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
    for i in 0..4.min(pool.len()) {
        g.add_po(pool[pool.len() - 1 - i]);
    }
    g
}

/// The benchmark suite (a verified subset, to keep the test fast)
/// produces the same report — stats, verdicts, SAT counters — whether
/// the workers run one benchmark at a time or all at once.
#[test]
fn suite_report_identical_across_worker_counts() {
    let run = |jobs: usize| {
        clear_result_caches();
        threadpool::Jobs::set(jobs);
        let rows = run_suite_with(true, Some(&["add-16", "C1355"]), MapOptions::default());
        threadpool::Jobs::set(0);
        assert!(rows.iter().all(|r| r.verified), "suite failed verification at jobs={jobs}");
        format!("{rows:?}")
    };
    let sequential = run(1);
    for jobs in [2, 4] {
        assert_eq!(sequential, run(jobs), "suite report diverged at jobs={jobs}");
    }
}

/// A deterministic pseudo-random op script for the larger determinism
/// fixtures.
fn big_script(len: usize, mut seed: u64) -> Vec<(u8, u16, u16)> {
    (0..len)
        .map(|_| {
            seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((seed >> 60) as u8, (seed >> 16) as u16, (seed >> 32) as u16)
        })
        .collect()
}

/// The synthesized graph is bit-identical (stats + structural
/// fingerprint) at every worker count, and stays equivalent to its
/// source. Drives the `Script` runner directly so no result cache can
/// short-circuit the comparison.
#[test]
fn synth_identical_across_worker_counts() {
    for seed in [0x5EED_0001u64, 0x5EED_0002] {
        let g = random_aig(8, &big_script(400, seed));
        let run = |jobs: usize| {
            threadpool::Jobs::set(jobs);
            let mut o = g.clone();
            let mut script = Script::resyn2rs();
            script.run(&mut o);
            script.run(&mut o); // second round reuses the persistent arenas
            threadpool::Jobs::set(0);
            o
        };
        let seq = run(1);
        assert!(equivalent(&g, &seq), "sequential synthesis broke equivalence");
        for jobs in [2usize, 4] {
            let par = run(jobs);
            assert_eq!(
                (seq.num_ands(), seq.depth()),
                (par.num_ands(), par.depth()),
                "synth stats diverged at jobs={jobs}"
            );
            assert_eq!(
                seq.fingerprint(),
                par.fingerprint(),
                "synth result not bit-identical at jobs={jobs}"
            );
        }
    }
}

/// Mapping selects the same cover, gate for gate, at every worker
/// count. The 16-bit multiplier (2336 ANDs, every node in an output
/// cone) is above the parallel cut-enumeration cutoff; the random
/// graphs cover every objective and family (the CMOS case drives
/// phase tracking).
#[test]
fn cover_identical_across_worker_counts() {
    let mult = array_multiplier(16);
    assert!(mult.num_ands() >= PAR_MIN_ANDS, "multiplier below the parallel cutoff");
    let cases = [
        (LogicFamily::TgStatic, Objective::Area, random_aig(8, &big_script(500, 0xC0FE_0001))),
        (LogicFamily::TgStatic, Objective::Delay, random_aig(8, &big_script(500, 0xC0FE_0002))),
        (LogicFamily::TgPseudo, Objective::Area, random_aig(8, &big_script(500, 0xC0FE_0003))),
        (
            LogicFamily::CmosStatic,
            Objective::Balanced,
            random_aig(8, &big_script(500, 0xC0FE_0004)),
        ),
        (LogicFamily::TgStatic, Objective::Balanced, mult),
    ];
    for (family, objective, g) in cases {
        let lib = Library::new(family);
        let opts = MapOptions { objective, jobs: 1, ..MapOptions::default() };
        clear_result_caches();
        let seq = map(&g, &lib, opts);
        assert_eq!(
            verify_mapping_report(&g, &seq, &lib).result,
            CecResult::Equivalent,
            "{family:?}/{objective:?} sequential cover broke equivalence"
        );
        for jobs in [2usize, 4] {
            clear_result_caches();
            let par = map(&g, &lib, MapOptions { jobs, ..opts });
            assert_eq!(
                format!("{:?} {:?}", seq.gates, seq.pos),
                format!("{:?} {:?}", par.gates, par.pos),
                "{family:?}/{objective:?} cover diverged at jobs={jobs}"
            );
            assert_eq!(
                format!("{:?}", seq.stats),
                format!("{:?}", par.stats),
                "{family:?}/{objective:?} stats diverged at jobs={jobs}"
            );
        }
    }
}

/// The `resyn2rs`/`quick_opt` result cache keys on the graph
/// fingerprint and options but *not* on the worker count — justified
/// exactly because synthesis is deterministic across worker counts.
/// This asserts that justification directly: cold runs (cache cleared
/// in between) at different worker counts produce identical
/// fingerprints, so a jobs-free key can never serve a wrong result.
#[test]
fn synth_result_cache_jobs_free_key_is_sound() {
    let g = random_aig(7, &big_script(250, 0xCAFE_F00D));
    let run = |jobs: usize| {
        cntfet_synth::clear_synth_cache();
        threadpool::Jobs::set(jobs);
        let o = resyn2rs(&g);
        threadpool::Jobs::set(0);
        o.fingerprint()
    };
    let seq = run(1);
    for jobs in [2usize, 4] {
        assert_eq!(seq, run(jobs), "cached synthesis diverged at jobs={jobs}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Technology mapping selects the same cover at jobs 1 and 3 on
    /// arbitrary random networks — and that cover is SAT-equivalent to
    /// its source.
    #[test]
    fn prop_parallel_mapping_matches_sequential(
        script in proptest::collection::vec((0u8..5, 0u16..300, 0u16..300), 20..90),
        delay in 0u8..2,
    ) {
        let g = random_aig(6, &script);
        let lib = Library::new(LogicFamily::TgStatic);
        let objective = if delay == 1 { Objective::Delay } else { Objective::Balanced };
        let opts = MapOptions { objective, jobs: 1, ..MapOptions::default() };
        clear_result_caches();
        let seq = map(&g, &lib, opts);
        clear_result_caches();
        let par = map(&g, &lib, MapOptions { jobs: 3, ..opts });
        prop_assert_eq!(
            format!("{:?} {:?} {:?}", seq.gates, seq.pos, seq.stats),
            format!("{:?} {:?} {:?}", par.gates, par.pos, par.stats)
        );
        let report = verify_mapping_report(&g, &par, &lib);
        prop_assert_eq!(report.result, CecResult::Equivalent);
    }

}

/// SAT sweeping must not blow up with the worker count. Verifying the
/// TG-static mapping of the synthesized 16-bit multiplier (the
/// suite's C6288) at two workers stays within about twice the
/// conflicts a one-worker run needed (CONFLICTS_AT_ONE_WORKER,
/// measured; 3 073 since the sweep's SAT search became cone-local);
/// a sweep that proves candidate pairs before the equalities of their
/// fanin cones are merged needs over a hundred times more.
#[test]
fn c6288_sweep_conflicts_bounded_at_two_workers() {
    const CONFLICTS_AT_ONE_WORKER: u64 = 4312;
    let g = array_multiplier(16);
    let lib = Library::new(LogicFamily::TgStatic);
    threadpool::Jobs::set(2);
    let optimized = resyn2rs(&g);
    let m = map(&optimized, &lib, MapOptions::default());
    cntfet_aig::clear_cec_cache();
    let report = verify_mapping_report(&optimized, &m, &lib);
    threadpool::Jobs::set(0);
    assert_eq!(report.result, CecResult::Equivalent);
    assert!(
        report.sat_stats.conflicts <= 2 * CONFLICTS_AT_ONE_WORKER,
        "sweep needed {} conflicts at two workers",
        report.sat_stats.conflicts
    );
}

/// Verifies the TG-static mapping of the synthesized `g` from a cold
/// CEC result cache.
fn verify_synthesized_tg_static(g: &Aig) -> CecReport {
    let lib = Library::new(LogicFamily::TgStatic);
    let optimized = resyn2rs(g);
    let m = map(&optimized, &lib, MapOptions::default());
    cntfet_aig::clear_cec_cache();
    verify_mapping_report(&optimized, &m, &lib)
}

/// The 9-bit array multiplier's TG-static mapping (18 PIs, under
/// 2000 ANDs together with its source) is verified by SAT sweeping
/// like every other mapping. A per-output miter without sweeping
/// needs 88 606 conflicts on it; the sweep needed MEASURED_CONFLICTS
/// (measured, identical at 1, 2 and 4 workers), and 867 since its SAT
/// search became cone-local.
#[test]
fn mul9_verification_sweeps_with_bounded_conflicts() {
    const MEASURED_CONFLICTS: u64 = 1017;
    let report = verify_synthesized_tg_static(&array_multiplier(9));
    assert_eq!(report.result, CecResult::Equivalent);
    assert!(!report.exhaustive, "18 PIs are past the exhaustive tier");
    assert!(report.internal_proofs > 0, "the sweep must prove internal pairs");
    assert!(
        report.sat_stats.conflicts <= 2 * MEASURED_CONFLICTS,
        "mul-9 verification needed {} conflicts",
        report.sat_stats.conflicts
    );
}

/// SAT search in the sweep stays inside the cones being compared.
/// The suite's des verifies with PROOFS internal proofs. Loading the
/// CNF of the whole joint network up front, the search took 2 911 127
/// propagations; loaded cone by cone through proven representatives
/// on a solver replaced once it outgrows the cones, it takes
/// MEASURED_PROPAGATIONS (identical at 1, 2 and 4 workers).
#[test]
fn des_verification_search_stays_cone_local() {
    const PROOFS: u64 = 5173;
    const MEASURED_PROPAGATIONS: u64 = 304_211;
    let report = verify_synthesized_tg_static(&des_like());
    assert_eq!(report.result, CecResult::Equivalent);
    assert_eq!(report.internal_proofs, PROOFS);
    assert!(
        report.sat_stats.propagations <= 2 * MEASURED_PROPAGATIONS,
        "des verification needed {} propagations",
        report.sat_stats.propagations
    );
}

/// The suite's i10 (random logic, 257 PIs): PROOFS internal proofs;
/// 3 319 091 propagations with the whole joint network loaded up
/// front, MEASURED_PROPAGATIONS cone by cone (identical at 1, 2 and 4
/// workers).
#[test]
fn i10_verification_search_stays_cone_local() {
    const PROOFS: u64 = 3406;
    const MEASURED_PROPAGATIONS: u64 = 506_297;
    let report = verify_synthesized_tg_static(&random_logic("i10", 257, 224, 0x1010));
    assert_eq!(report.result, CecResult::Equivalent);
    assert_eq!(report.internal_proofs, PROOFS);
    assert!(
        report.sat_stats.propagations <= 2 * MEASURED_PROPAGATIONS,
        "i10 verification needed {} propagations",
        report.sat_stats.propagations
    );
}
