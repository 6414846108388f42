//! Criterion benchmarks of the in-place DAG-aware synthesis engine:
//! `resyn2rs` on the circuits the acceptance targets name (mult8 /
//! C1908 class), the suite's largest member and two small suite
//! circuits, plus the individual passes. Every `resyn2rs` iteration
//! clears the synthesis result cache, so each row times a full run
//! rather than a cache hit; nothing else timed here is memoized.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use cntfet_synth::{
    balance_inplace, clear_synth_cache, refactor_inplace, resyn2rs, rewrite_inplace,
};

fn bench_synth(c: &mut Criterion) {
    // Warm the per-process rewrite library so its one-time build does
    // not land inside a sample.
    let _ = cntfet_boolfn::RwrLibrary::global();

    for (name, g) in [
        ("mult8", cntfet_circuits::array_multiplier(8)),
        ("c1908", cntfet_circuits::c1908_like()),
        ("des", cntfet_circuits::des_like()),
    ] {
        c.bench_function(&format!("resyn2rs_inplace/{name}"), |b| {
            b.iter(|| {
                clear_synth_cache();
                resyn2rs(black_box(&g))
            })
        });
    }

    let add16 = cntfet_circuits::ripple_adder(16);
    let c1355 = cntfet_circuits::c1355_like();
    for (name, g) in [("add16", &add16), ("c1355", &c1355)] {
        c.bench_function(&format!("resyn2rs/{name}"), |b| {
            b.iter(|| {
                clear_synth_cache();
                resyn2rs(black_box(g))
            })
        });
    }
    c.bench_function("balance/add16", |b| {
        b.iter(|| cntfet_synth::balance(black_box(&add16)))
    });
    c.bench_function("rewrite/add16", |b| {
        b.iter(|| cntfet_synth::rewrite(black_box(&add16), false))
    });
    c.bench_function("generator/c6288_multiplier", |b| {
        b.iter(|| cntfet_circuits::array_multiplier(black_box(16)))
    });

    // Individual in-place passes on the multiplier.
    let mult8 = cntfet_circuits::array_multiplier(8).compact();
    c.bench_function("pass_rewrite/mult8", |b| {
        b.iter(|| {
            let mut g = mult8.clone();
            rewrite_inplace(black_box(&mut g), false)
        })
    });
    c.bench_function("pass_refactor8/mult8", |b| {
        b.iter(|| {
            let mut g = mult8.clone();
            refactor_inplace(black_box(&mut g), 8, false)
        })
    });
    c.bench_function("pass_balance/mult8", |b| {
        b.iter(|| {
            let mut g = mult8.clone();
            balance_inplace(black_box(&mut g))
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(10)
        .warm_up_time(std::time::Duration::from_millis(300))
        .measurement_time(std::time::Duration::from_secs(2));
    targets = bench_synth
}
criterion_main!(benches);
