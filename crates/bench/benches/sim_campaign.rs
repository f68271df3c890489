//! Criterion bench: campaign throughput versus executor width, and
//! the exact versus interpolated supply model.
//!
//! Runs the same fixed 12-cell matrix on 1, 2 and 4 worker threads.
//! The cells are independent simulations, so wall time should fall
//! near-linearly with thread count until the machine runs out of
//! cores; comparing the three lines makes scaling regressions in the
//! executor (or accidental serialisation in the campaign layer)
//! visible. The 5 s windows of the 6 distinct (weather, seed) days come
//! from the process-wide day memo (`DayProfile::build_shared`), so
//! after the first iteration every line times the simulations
//! themselves.
//!
//! The `supply_model` group compares the same 12-cell matrix with
//! warm days (steady-state campaign throughput, simulation-dominated)
//! under the exact model versus the interpolated supply fast path.

use criterion::{criterion_group, criterion_main, Criterion};
use pn_sim::campaign::{run_campaign, CampaignSpec, GovernorSpec};
use pn_sim::executor::Executor;
use pn_sim::supply::SupplyModel;
use pn_units::Seconds;
use std::hint::black_box;

fn matrix() -> CampaignSpec {
    CampaignSpec::new()
        .expect("paper preset valid")
        .with_weathers(vec![
            pn_harvest::weather::Weather::FullSun,
            pn_harvest::weather::Weather::PartialSun,
            pn_harvest::weather::Weather::Cloudy,
        ])
        .with_seeds(vec![1, 2])
        .with_governors(vec![GovernorSpec::PowerNeutral, GovernorSpec::Powersave])
        .with_duration(Seconds::new(5.0))
}

fn bench_campaign(c: &mut Criterion) {
    let spec = matrix();
    assert_eq!(spec.cell_count(), 12);
    let mut group = c.benchmark_group("sim_campaign");
    group.sample_size(10);
    for threads in [1usize, 2, 4] {
        let executor = Executor::new(threads);
        group.bench_function(&format!("12_cells_{threads}_threads"), |b| {
            b.iter(|| {
                let report = run_campaign(&spec, &executor).unwrap();
                black_box(report.brownout_count())
            })
        });
    }
    group.finish();
}

fn bench_supply_model(c: &mut Criterion) {
    let exact = matrix();
    let interp = matrix().with_supply_model(SupplyModel::interpolated());
    let executor = Executor::new(2);
    // Pre-warm: render the 6 distinct day windows into the day memo and
    // build the interpolation surface, so both lines time the
    // simulations themselves.
    run_campaign(&exact, &executor).unwrap();
    run_campaign(&interp, &executor).unwrap();
    let mut group = c.benchmark_group("supply_model");
    group.sample_size(10);
    group.bench_function("12_cells_exact", |b| {
        b.iter(|| {
            let report = run_campaign(&exact, &executor).unwrap();
            black_box(report.brownout_count())
        })
    });
    group.bench_function("12_cells_interpolated", |b| {
        b.iter(|| {
            let report = run_campaign(&interp, &executor).unwrap();
            black_box(report.brownout_count())
        })
    });
    group.finish();
}

criterion_group!(benches, bench_campaign, bench_supply_model);
criterion_main!(benches);
