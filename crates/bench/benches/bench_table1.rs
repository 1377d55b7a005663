//! Table I bench — regenerates the overhead/accuracy table and times one
//! estimation per configuration (wall-clock analogue of the message counts).

#![deny(unsafe_code)]

use criterion::{criterion_group, criterion_main, Criterion};
use p2p_bench::{bench_scale, criterion_config, figures_dir, BENCH_SEED};
use p2p_estimation::aggregation::Aggregation;
use p2p_estimation::{HopsSampling, SampleCollide, SizeEstimator};
use p2p_experiments::table::table1;
use p2p_overlay::builder::{GraphBuilder, HeterogeneousRandom};
use p2p_sim::rng::small_rng;
use p2p_sim::MessageCounter;
use std::hint::black_box;

fn regenerate_table(c: &mut Criterion) {
    let scale = bench_scale();
    let runs = if scale.large >= 100_000 { 10 } else { 20 };
    let t = table1(scale.large, runs, BENCH_SEED);
    println!("{t}");
    let dir = figures_dir();
    if std::fs::create_dir_all(&dir).is_ok() {
        let path = dir.join("table1.csv");
        if std::fs::write(&path, t.to_csv()).is_ok() {
            println!("[table] table1 -> {}", path.display());
        }
    }

    // Nominal checks the paper derives in closed form (§IV-E), printed so a
    // bench run doubles as a sanity report:
    //   Aggregation overhead = N × 50 × 2.
    let agg = &t.rows[3];
    println!(
        "[check] aggregation overhead {} vs closed form {}",
        agg.overhead_messages,
        scale.large * 50 * 2
    );

    let mut rng = small_rng(BENCH_SEED);
    let graph = HeterogeneousRandom::paper(5_000).build(&mut rng);
    c.bench_function("table1/sample_collide_one_estimation_5k", |b| {
        let mut sc = SampleCollide::paper();
        let mut msgs = MessageCounter::new();
        b.iter(|| black_box(sc.estimate(&graph, &mut rng, &mut msgs)));
    });
}

fn per_algorithm_cost(c: &mut Criterion) {
    let mut rng = small_rng(BENCH_SEED);
    let graph = HeterogeneousRandom::paper(5_000).build(&mut rng);
    let mut group = c.benchmark_group("table1");
    group.bench_function("hops_sampling_one_estimation_5k", |b| {
        let mut hs = HopsSampling::paper();
        let mut msgs = MessageCounter::new();
        b.iter(|| black_box(hs.estimate(&graph, &mut rng, &mut msgs)));
    });
    group.bench_function("aggregation_one_estimation_5k", |b| {
        let mut agg = Aggregation::paper();
        let mut msgs = MessageCounter::new();
        b.iter(|| black_box(agg.estimate(&graph, &mut rng, &mut msgs)));
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = criterion_config();
    targets = regenerate_table, per_algorithm_cost
}
criterion_main!(benches);
