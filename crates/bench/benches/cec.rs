//! Criterion benchmarks of the CEC / SAT-sweeping verification path —
//! the acceptance gauge for the flat-arena solver core. The headline
//! case is the multiplier-class miter (8-bit shift-add vs carry-save
//! columns), where CDCL throughput dominates wall-time. Every
//! iteration clears the CEC result cache, so each row times a full
//! check rather than a cache hit.

use cntfet_aig::SweepOptions;
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

fn bench_cec(c: &mut Criterion) {
    let columns = cntfet_circuits::array_multiplier(8);
    let shift_add = cntfet_circuits::shift_add_multiplier(8);
    c.bench_function("cec/sweep/mult8_shift_add_vs_columns", |b| {
        b.iter(|| {
            cntfet_aig::clear_cec_cache();
            cntfet_aig::check_equivalence_sweeping(black_box(&shift_add), black_box(&columns))
        })
    });

    let columns6 = cntfet_circuits::array_multiplier(6);
    let shift_add6 = cntfet_circuits::shift_add_multiplier(6);
    // The pure output miter: no exhaustive tier, no internal sweeping.
    let miter = SweepOptions { exhaustive_pis: 0, node_budget: 0, ..Default::default() };
    c.bench_function("cec/miter/mult6_shift_add_vs_columns", |b| {
        b.iter(|| {
            cntfet_aig::clear_cec_cache();
            cntfet_aig::check_equivalence_sweeping_with(
                black_box(&shift_add6),
                black_box(&columns6),
                &miter,
            )
        })
    });

    let ripple = cntfet_circuits::ripple_adder(32);
    let cla = cntfet_circuits::cla_adder(32);
    c.bench_function("cec/sweep/ripple_vs_cla_32", |b| {
        b.iter(|| {
            cntfet_aig::clear_cec_cache();
            cntfet_aig::check_equivalence_sweeping(black_box(&ripple), black_box(&cla))
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(10)
        .warm_up_time(std::time::Duration::from_millis(300))
        .measurement_time(std::time::Duration::from_secs(3));
    targets = bench_cec
}
criterion_main!(benches);
