//! Sample&Collide benches — regenerates Figs 1, 2, 9, 10, 11 and 18, and
//! times single estimations at both `l` operating points.

#![deny(unsafe_code)]

use criterion::{criterion_group, criterion_main, Criterion};
use p2p_bench::{bench_scale, criterion_config, emit_figure, BENCH_SEED};
use p2p_estimation::{SampleCollide, SizeEstimator};
use p2p_experiments::figures;
use p2p_overlay::builder::{GraphBuilder, HeterogeneousRandom};
use p2p_sim::rng::small_rng;
use p2p_sim::MessageCounter;
use std::hint::black_box;

fn regenerate_figures(c: &mut Criterion) {
    let scale = bench_scale();
    for n in [1u32, 2, 9, 10, 11, 18] {
        let fig = figures::by_number(n, &scale, BENCH_SEED).expect("known figure");
        emit_figure(&fig);
    }
    // Keep criterion happy with at least one timed body in this group:
    // figure 18's primitive, the cheap l=10 estimation.
    let mut rng = small_rng(BENCH_SEED);
    let graph = HeterogeneousRandom::paper(10_000).build(&mut rng);
    c.bench_function("fig18/sample_collide_l10_estimate_10k", |b| {
        let mut sc = SampleCollide::cheap();
        let mut msgs = MessageCounter::new();
        b.iter(|| {
            let est = sc.estimate(black_box(&graph), &mut rng, &mut msgs);
            black_box(est)
        });
    });
}

fn estimation_cost(c: &mut Criterion) {
    let mut rng = small_rng(BENCH_SEED);
    let graph = HeterogeneousRandom::paper(10_000).build(&mut rng);
    let mut group = c.benchmark_group("sample_collide");
    for l in [10u32, 200] {
        group.bench_function(format!("estimate_l{l}_10k"), |b| {
            let mut sc = SampleCollide::with_config(
                p2p_estimation::sample_collide::SampleCollideConfig::paper().with_l(l),
            );
            let mut msgs = MessageCounter::new();
            b.iter(|| black_box(sc.estimate(&graph, &mut rng, &mut msgs)));
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = criterion_config();
    targets = regenerate_figures, estimation_cost
}
criterion_main!(benches);
