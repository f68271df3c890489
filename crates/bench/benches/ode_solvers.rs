//! Criterion bench: throughput of the adaptive RK23 the co-simulation
//! uses, integrating a one-second decay.

use criterion::{criterion_group, criterion_main, Criterion};
use pn_circuit::ode::{AdaptiveOptions, Rk23};
use std::hint::black_box;

fn decay(_t: f64, y: &[f64; 1]) -> [f64; 1] {
    [-0.8 * y[0]]
}

fn bench_solvers(c: &mut Criterion) {
    let mut group = c.benchmark_group("ode_integrate_1s");
    group.bench_function("rk23_adaptive", |b| {
        b.iter(|| {
            let mut solver = Rk23::new(AdaptiveOptions::new().with_max_step(0.05));
            solver.integrate(&mut decay, 0.0, [black_box(1.0)], 1.0).unwrap()
        })
    });
    group.finish();
}

criterion_group!(benches, bench_solvers);
criterion_main!(benches);
