//! Criterion bench: end-to-end co-simulation throughput (simulated
//! seconds per wall-clock second) under the power-neutral governor and
//! under the powersave baseline, for both supply models — the
//! `power_neutral_10s_constant_sun` vs `…_interpolated` pair is the
//! headline exact-vs-fast-path comparison.

use criterion::{criterion_group, criterion_main, Criterion};
use pn_sim::scenario;
use pn_sim::supply::SupplyModel;
use pn_units::{Seconds, WattsPerSquareMeter};
use std::hint::black_box;

fn bench_engine(c: &mut Criterion) {
    let mut group = c.benchmark_group("sim_engine");
    group.sample_size(10);
    group.bench_function("power_neutral_10s_constant_sun", |b| {
        b.iter(|| {
            let report =
                scenario::constant_sun(WattsPerSquareMeter::new(560.0), Seconds::new(10.0))
                    .run_power_neutral()
                    .unwrap();
            black_box(report.transitions())
        })
    });
    // Same scenario on the interpolated supply fast path. Build the
    // shared surface outside the timed region: campaigns pay it once
    // per process, not once per cell.
    let interpolated = |duration: f64| {
        let sun = scenario::constant_sun(WattsPerSquareMeter::new(560.0), Seconds::new(duration));
        let options = sun.options().with_supply_model(SupplyModel::interpolated());
        sun.with_options(options)
    };
    let _ = interpolated(0.5).run_power_neutral().unwrap();
    group.bench_function("power_neutral_10s_constant_sun_interpolated", |b| {
        b.iter(|| {
            let report = interpolated(10.0).run_power_neutral().unwrap();
            black_box(report.transitions())
        })
    });
    group.bench_function("powersave_10s_constant_sun", |b| {
        b.iter(|| {
            let report =
                scenario::constant_sun(WattsPerSquareMeter::new(560.0), Seconds::new(10.0))
                    .run_powersave()
                    .unwrap();
            black_box(report.survived())
        })
    });
    group.bench_function("shadowing_8s", |b| {
        b.iter(|| {
            let report = scenario::shadowing(Seconds::new(2.0), Seconds::new(8.0))
                .run_power_neutral()
                .unwrap();
            black_box(report.survived())
        })
    });
    group.finish();
}

criterion_group!(benches, bench_engine);
criterion_main!(benches);
