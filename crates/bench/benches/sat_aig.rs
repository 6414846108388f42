//! Criterion benchmarks of the verification substrate: SAT solving and
//! AIG equivalence checking.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

fn pigeonhole(n: usize, m: usize) -> cntfet_sat::Solver {
    let mut s = cntfet_sat::Solver::new();
    let p: Vec<Vec<cntfet_sat::Var>> =
        (0..n).map(|_| (0..m).map(|_| s.new_var()).collect()).collect();
    for row in &p {
        let c: Vec<cntfet_sat::Lit> = row.iter().map(|v| v.pos()).collect();
        s.add_clause(&c);
    }
    for hole in 0..m {
        for (i, pi) in p.iter().enumerate() {
            for pj in &p[i + 1..] {
                s.add_clause(&[pi[hole].neg(), pj[hole].neg()]);
            }
        }
    }
    s
}

fn bench_sat(c: &mut Criterion) {
    c.bench_function("sat/pigeonhole_7_6", |b| {
        b.iter(|| {
            let mut s = pigeonhole(7, 6);
            black_box(s.solve(&[]))
        })
    });
    let ripple = cntfet_circuits::ripple_adder(16);
    let cla = cntfet_circuits::cla_adder(16);
    c.bench_function("cec/default/ripple_vs_cla_16", |b| {
        b.iter(|| {
            cntfet_aig::clear_cec_cache();
            cntfet_aig::check_equivalence(black_box(&ripple), black_box(&cla))
        })
    });
    let mult = cntfet_circuits::array_multiplier(8);
    c.bench_function("aig/simulate_words/mul8", |b| {
        let inputs: Vec<u64> = (0..16).map(|i| 0x9E37_79B9u64.wrapping_mul(i + 1)).collect();
        b.iter(|| mult.simulate_words(black_box(&inputs)))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(10)
        .warm_up_time(std::time::Duration::from_millis(300))
        .measurement_time(std::time::Duration::from_secs(2));
    targets = bench_sat
}
criterion_main!(benches);
