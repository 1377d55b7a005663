//! Unified-driver benches — times the protocol-generic `run_scenario` for
//! all three algorithm classes on the same dynamic scenario, the parallel
//! replication sweep, and the message-level DES path under a nonzero-latency
//! lossy network, so regressions in the shared drivers (not just in the
//! per-algorithm primitives) show up in `cargo bench`.

#![deny(unsafe_code)]

use criterion::{criterion_group, criterion_main, Criterion};
use p2p_bench::{criterion_config, BENCH_SEED};
use p2p_estimation::aggregation::{AggregationConfig, EpochedAggregation};
use p2p_estimation::{
    AsyncAggregation, AsyncHopsSampling, AsyncSampleCollide, Heuristic, HopsSampling, SampleCollide,
};
use p2p_experiments::runner::{run_replications, run_scenario, run_scenario_des};
use p2p_experiments::Scenario;
use p2p_sim::{HopLatency, NetworkModel};
use std::hint::black_box;

fn scenario_driver(c: &mut Criterion) {
    let mut group = c.benchmark_group("run_scenario");
    group.bench_function("sample_collide_catastrophic_2k_x20", |b| {
        let scenario = Scenario::catastrophic(2_000, 20);
        b.iter(|| {
            let mut sc = SampleCollide::cheap();
            black_box(run_scenario(
                &mut sc,
                &scenario,
                Heuristic::OneShot,
                BENCH_SEED,
                "sc",
            ))
        });
    });
    group.bench_function("hops_sampling_catastrophic_2k_x20", |b| {
        let scenario = Scenario::catastrophic(2_000, 20);
        b.iter(|| {
            let mut hs = HopsSampling::paper();
            black_box(run_scenario(
                &mut hs,
                &scenario,
                Heuristic::last10(),
                BENCH_SEED,
                "hs",
            ))
        });
    });
    group.bench_function("epoched_aggregation_catastrophic_2k_x100", |b| {
        let scenario = Scenario::catastrophic(2_000, 100);
        b.iter(|| {
            let mut agg = EpochedAggregation::new(AggregationConfig::paper());
            black_box(run_scenario(
                &mut agg,
                &scenario,
                Heuristic::OneShot,
                BENCH_SEED,
                "agg",
            ))
        });
    });
    group.finish();
}

fn replication_sweep(c: &mut Criterion) {
    c.bench_function("run_replications/sample_collide_8x_static_2k", |b| {
        let scenario = Scenario::static_network(2_000, 10);
        b.iter(|| {
            black_box(run_replications(
                |_| SampleCollide::cheap(),
                &scenario,
                Heuristic::OneShot,
                BENCH_SEED,
                8,
            ))
        });
    });
}

/// The message-level path under real latency, heterogeneity and loss — the
/// configuration CI's bench smoke exercises so the DES path cannot rot.
fn des_network_driver(c: &mut Criterion) {
    let model = NetworkModel::ideal()
        .with_latency(HopLatency::Uniform { lo: 5.0, hi: 60.0 })
        .with_link_spread(0.25)
        .with_drop_rate(0.01)
        .with_step_ticks(1_000);
    let mut group = c.benchmark_group("run_scenario_des");
    group.bench_function("async_sample_collide_wan_1k_x10", |b| {
        let scenario = Scenario::growing(1_000, 10, 0.5).with_network(model);
        b.iter(|| {
            let mut p = AsyncSampleCollide::cheap().with_timeout(50);
            black_box(run_scenario_des(
                &mut p,
                &scenario,
                Heuristic::OneShot,
                BENCH_SEED,
                "sc",
            ))
        });
    });
    group.bench_function("async_hops_sampling_wan_1k_x10", |b| {
        let scenario = Scenario::growing(1_000, 10, 0.5).with_network(model);
        b.iter(|| {
            let mut p = AsyncHopsSampling::paper();
            black_box(run_scenario_des(
                &mut p,
                &scenario,
                Heuristic::last10(),
                BENCH_SEED,
                "hs",
            ))
        });
    });
    group.bench_function("async_aggregation_wan_1k_x50", |b| {
        let scenario = Scenario::growing(1_000, 50, 0.5).with_network(model);
        b.iter(|| {
            let mut p = AsyncAggregation::new(AggregationConfig {
                rounds_per_estimate: 25,
            });
            black_box(run_scenario_des(
                &mut p,
                &scenario,
                Heuristic::OneShot,
                BENCH_SEED,
                "agg",
            ))
        });
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = criterion_config();
    targets = scenario_driver, replication_sweep, des_network_driver
}
criterion_main!(benches);
