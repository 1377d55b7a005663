//! Aggregation benches — regenerates Figs 5, 6, 15, 16, 17, and times
//! single push-pull rounds and whole 50-round estimations.

#![deny(unsafe_code)]

use criterion::{criterion_group, criterion_main, Criterion};
use p2p_bench::{bench_scale, criterion_config, emit_figure, BENCH_SEED};
use p2p_estimation::aggregation::{Aggregation, AveragingRun};
use p2p_experiments::figures;
use p2p_overlay::builder::{GraphBuilder, HeterogeneousRandom};
use p2p_sim::rng::small_rng;
use p2p_sim::MessageCounter;
use std::hint::black_box;

fn regenerate_figures(c: &mut Criterion) {
    let scale = bench_scale();
    for n in [5u32, 6, 15, 16, 17] {
        let fig = figures::by_number(n, &scale, BENCH_SEED).expect("known figure");
        emit_figure(&fig);
    }
    let mut rng = small_rng(BENCH_SEED);
    let graph = HeterogeneousRandom::paper(2_000).build(&mut rng);
    c.bench_function("fig05/aggregation_estimate_50rounds_2k", |b| {
        let agg = Aggregation::paper();
        let mut msgs = MessageCounter::new();
        b.iter(|| {
            let init = graph.random_alive(&mut rng).unwrap();
            black_box(agg.estimate_from(&graph, init, &mut rng, &mut msgs))
        });
    });
}

fn round_cost(c: &mut Criterion) {
    let mut rng = small_rng(BENCH_SEED);
    let graph = HeterogeneousRandom::paper(10_000).build(&mut rng);
    c.bench_function("aggregation/push_pull_round_10k", |b| {
        let init = graph.random_alive(&mut rng).unwrap();
        let mut run = AveragingRun::new(&graph, init);
        let mut msgs = MessageCounter::new();
        b.iter(|| {
            run.run_round(&graph, &mut rng, &mut msgs);
            black_box(run.rounds_run())
        });
    });
}

criterion_group! {
    name = benches;
    config = criterion_config();
    targets = regenerate_figures, round_cost
}
criterion_main!(benches);
