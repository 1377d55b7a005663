//! Scale-free topology benches — regenerates Figs 7 and 8, and times the
//! Barabási–Albert construction.

#![deny(unsafe_code)]

use criterion::{criterion_group, criterion_main, Criterion};
use p2p_bench::{bench_scale, criterion_config, emit_figure, BENCH_SEED};
use p2p_estimation::{SampleCollide, SizeEstimator};
use p2p_overlay::builder::{BarabasiAlbert, GraphBuilder};
use p2p_sim::rng::small_rng;
use p2p_sim::MessageCounter;
use std::hint::black_box;

fn regenerate_figures(c: &mut Criterion) {
    let scale = bench_scale();
    for n in [7u32, 8] {
        let fig = p2p_experiments::figures::by_number(n, &scale, BENCH_SEED).expect("known figure");
        emit_figure(&fig);
    }
    let mut rng = small_rng(BENCH_SEED);
    let graph = BarabasiAlbert::paper(10_000).build(&mut rng);
    c.bench_function("fig08/sample_collide_on_scale_free_10k", |b| {
        let mut sc = SampleCollide::paper();
        let mut msgs = MessageCounter::new();
        b.iter(|| black_box(sc.estimate(&graph, &mut rng, &mut msgs)));
    });
}

fn build_cost(c: &mut Criterion) {
    c.bench_function("scale_free/barabasi_albert_build_10k", |b| {
        let mut rng = small_rng(BENCH_SEED);
        b.iter(|| black_box(BarabasiAlbert::paper(10_000).build(&mut rng)));
    });
}

criterion_group! {
    name = benches;
    config = criterion_config();
    targets = regenerate_figures, build_cost
}
criterion_main!(benches);
