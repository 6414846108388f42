//! Criterion benchmarks of technology mapping (the Table 3 engine) on
//! representative benchmarks and libraries, covering both corners of
//! the multi-objective coverer. Every `map` iteration clears the
//! mapping result cache and every verification iteration the CEC
//! result cache, so each row times a full run rather than a cache hit.

use cntfet_aig::{CutParams, CutRank};
use cntfet_techmap::{clear_map_cache, map, MapOptions, Objective};
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

fn bench_mapping(c: &mut Criterion) {
    let add16 = cntfet_synth::resyn2rs(&cntfet_circuits::ripple_adder(16));
    let mult8 = cntfet_synth::resyn2rs(&cntfet_circuits::array_multiplier(8));
    let c1908 = cntfet_synth::resyn2rs(&cntfet_circuits::c1908_like());
    let tg = cntfet_core::Library::new(cntfet_core::LogicFamily::TgStatic);
    let cmos = cntfet_core::Library::new(cntfet_core::LogicFamily::CmosStatic);
    let with = |objective| MapOptions { objective, ..Default::default() };

    let rows = [
        ("map/add16/tg_static", &add16, &tg, MapOptions::default()),
        ("map/add16/tg_static/area", &add16, &tg, with(Objective::Area)),
        ("map/add16/tg_static/delay", &add16, &tg, with(Objective::Delay)),
        ("map/add16/cmos", &add16, &cmos, MapOptions::default()),
        ("map/mult8/tg_static/area", &mult8, &tg, with(Objective::Area)),
        ("map/mult8/tg_static/delay", &mult8, &tg, with(Objective::Delay)),
        // The arrival-aware iterated delay mapper vs its own round-0
        // baseline: the cost of re-enumerating cuts under mapped
        // arrivals.
        (
            "map/mult8/tg_static/delay_single_enum",
            &mult8,
            &tg,
            MapOptions { delay_rounds: 0, ..with(Objective::Delay) },
        ),
        ("map/c1908/tg_static/delay_arrival_rounds", &c1908, &tg, with(Objective::Delay)),
        ("map/c1908/tg_static", &c1908, &tg, MapOptions::default()),
    ];
    for (name, aig, lib, opts) in rows {
        c.bench_function(name, |b| {
            b.iter(|| {
                clear_map_cache();
                map(black_box(aig), lib, opts)
            })
        });
    }
    c.bench_function("cuts/enumerate/mult8/k6", |b| {
        let params = CutParams { k: 6, max_cuts: 10, rank: CutRank::Size };
        b.iter(|| cntfet_aig::enumerate_cuts_with(black_box(&mult8), params))
    });
    c.bench_function("verify_mapping/add16/tg_static", |b| {
        let m = map(&add16, &tg, MapOptions::default());
        b.iter(|| {
            cntfet_aig::clear_cec_cache();
            cntfet_techmap::verify_mapping(black_box(&add16), &m, &tg)
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(10)
        .warm_up_time(std::time::Duration::from_millis(300))
        .measurement_time(std::time::Duration::from_secs(2));
    targets = bench_mapping
}
criterion_main!(benches);
