//! HopsSampling benches — regenerates Figs 3, 4, 12, 13, 14, and times the
//! spread and full estimation primitives.

#![deny(unsafe_code)]

use criterion::{criterion_group, criterion_main, Criterion};
use p2p_bench::{bench_scale, criterion_config, emit_figure, BENCH_SEED};
use p2p_estimation::hops_sampling::{gossip_spread, HopsSamplingConfig};
use p2p_estimation::{HopsSampling, SizeEstimator};
use p2p_experiments::figures;
use p2p_overlay::builder::{GraphBuilder, HeterogeneousRandom};
use p2p_sim::rng::small_rng;
use p2p_sim::MessageCounter;
use std::hint::black_box;

fn regenerate_figures(c: &mut Criterion) {
    let scale = bench_scale();
    for n in [3u32, 4, 12, 13, 14] {
        let fig = figures::by_number(n, &scale, BENCH_SEED).expect("known figure");
        emit_figure(&fig);
    }
    let mut rng = small_rng(BENCH_SEED);
    let graph = HeterogeneousRandom::paper(10_000).build(&mut rng);
    c.bench_function("fig03/hops_sampling_estimate_10k", |b| {
        let mut hs = HopsSampling::paper();
        let mut msgs = MessageCounter::new();
        b.iter(|| black_box(hs.estimate(&graph, &mut rng, &mut msgs)));
    });
}

fn spread_cost(c: &mut Criterion) {
    let mut rng = small_rng(BENCH_SEED);
    let graph = HeterogeneousRandom::paper(10_000).build(&mut rng);
    let cfg = HopsSamplingConfig::paper();
    c.bench_function("hops_sampling/spread_only_10k", |b| {
        let mut msgs = MessageCounter::new();
        b.iter(|| {
            let init = graph.random_alive(&mut rng).unwrap();
            black_box(gossip_spread(&graph, init, &cfg, &mut rng, &mut msgs))
        });
    });
}

criterion_group! {
    name = benches;
    config = criterion_config();
    targets = regenerate_figures, spread_cost
}
criterion_main!(benches);
