//! Baseline benches — re-validates the paper's three rejections:
//! Random Tour (§II), the biased inverted birthday paradox (§II/\[2\]), and
//! the `gossipSample` reply heuristic (§III-B).

#![deny(unsafe_code)]

use criterion::{criterion_group, criterion_main, Criterion};
use p2p_bench::{criterion_config, BENCH_SEED};
use p2p_estimation::baselines::{GossipSampleHops, InvertedBirthdayParadox, RandomTour};
use p2p_estimation::sampling::{FixedHopSampler, RandomWalkSampler};
use p2p_estimation::{HopsSampling, SampleCollide, SizeEstimator};
use p2p_overlay::builder::{BarabasiAlbert, GraphBuilder, HeterogeneousRandom};
use p2p_overlay::Graph;
use p2p_sim::rng::{derive_seed, small_rng};
use p2p_sim::MessageCounter;
use std::hint::black_box;

fn stats_of<E: SizeEstimator>(
    est: &mut E,
    graph: &Graph,
    runs: usize,
    seed: u64,
) -> (f64, f64, f64) {
    let mut rng = small_rng(seed);
    let mut msgs = MessageCounter::new();
    let truth = graph.alive_count() as f64;
    let mut vals = Vec::with_capacity(runs);
    for _ in 0..runs {
        if let Some(e) = est.estimate(graph, &mut rng, &mut msgs) {
            vals.push(e);
        }
    }
    let mean = vals.iter().sum::<f64>() / vals.len() as f64;
    let err = vals.iter().map(|v| (v - truth).abs() / truth).sum::<f64>() / vals.len() as f64;
    (
        100.0 * mean / truth,
        100.0 * err,
        msgs.total() as f64 / vals.len() as f64,
    )
}

/// §II: Sample&Collide was chosen over Random Tour for its better
/// accuracy/overhead trade-off — measure both on the same overlay.
fn random_tour(c: &mut Criterion) {
    let mut rng = small_rng(derive_seed(BENCH_SEED, 1));
    let graph = HeterogeneousRandom::paper(5_000).build(&mut rng);
    println!("\n[baseline] Random Tour vs Sample&Collide (5k nodes, 15 runs)");
    println!(
        "{:<18} {:>10} {:>10} {:>14}",
        "algorithm", "quality%", "|err|%", "msgs/est"
    );
    let mut rt = RandomTour::default();
    let (q, e_rt, m_rt) = stats_of(&mut rt, &graph, 15, derive_seed(BENCH_SEED, 11));
    println!("{:<18} {q:>10.1} {e_rt:>10.1} {m_rt:>14.0}", "RandomTour");
    let mut sc = SampleCollide::paper();
    let (q, e_sc, m_sc) = stats_of(&mut sc, &graph, 15, derive_seed(BENCH_SEED, 12));
    println!(
        "{:<18} {q:>10.1} {e_sc:>10.1} {m_sc:>14.0}",
        "Sample&Collide"
    );
    // A single tour is cheap but wildly noisy; the fair comparison is cost
    // at equal accuracy. Error averages down as 1/√runs, so Random Tour
    // needs (e_rt/e_sc)² tours to match one S&C estimation.
    let tours_needed = (e_rt / e_sc).powi(2);
    println!(
        "  -> equal-accuracy cost: RandomTour ≈ {:.0} msgs ({tours_needed:.0} tours) vs S&C {m_sc:.0}",
        m_rt * tours_needed
    );

    c.bench_function("baseline_random_tour/one_tour_5k", |b| {
        let mut msgs = MessageCounter::new();
        let rt = RandomTour::default();
        b.iter(|| {
            let init = graph.random_alive(&mut rng).unwrap();
            black_box(rt.estimate_from(&graph, init, &mut rng, &mut msgs))
        });
    });
}

/// §III-B: the `gossipSample` reply heuristic is noisier than
/// `minHopsReporting` — the reason the paper switched after reproducing both.
fn gossip_sample(c: &mut Criterion) {
    let mut rng = small_rng(derive_seed(BENCH_SEED, 2));
    let graph = HeterogeneousRandom::paper(10_000).build(&mut rng);
    println!("\n[baseline] gossipSample vs minHopsReporting (10k nodes, 25 runs)");
    println!("{:<18} {:>10} {:>10}", "reply rule", "quality%", "|err|%");
    let mut gs = GossipSampleHops::paper();
    let (q, e, _) = stats_of(&mut gs, &graph, 25, derive_seed(BENCH_SEED, 21));
    println!("{:<18} {q:>10.1} {e:>10.1}", "gossipSample");
    let mut mh = HopsSampling::paper();
    let (q, e, _) = stats_of(&mut mh, &graph, 25, derive_seed(BENCH_SEED, 22));
    println!("{:<18} {q:>10.1} {e:>10.1}", "minHopsReporting");

    c.bench_function("baseline_gossip_sample/estimate_10k", |b| {
        let mut gs = GossipSampleHops::paper();
        let mut msgs = MessageCounter::new();
        b.iter(|| black_box(gs.estimate(&graph, &mut rng, &mut msgs)));
    });
}

/// §II/\[2\]: the original inverted birthday paradox under a degree-biased
/// sampler systematically underestimates on scale-free overlays, while the
/// CTRW sampler does not — the core argument for Sample&Collide's sampler.
fn biased_birthday(c: &mut Criterion) {
    let mut rng = small_rng(derive_seed(BENCH_SEED, 3));
    let graph = BarabasiAlbert::paper(5_000).build(&mut rng);
    println!("\n[baseline] inverted birthday paradox on a 5k scale-free overlay (200 runs)");
    println!("{:<22} {:>10}", "sampler", "quality%");
    let mut biased = InvertedBirthdayParadox::new(FixedHopSampler::new(25));
    let (q, _, _) = stats_of(&mut biased, &graph, 200, derive_seed(BENCH_SEED, 31));
    println!("{:<22} {q:>10.1}", "fixed-hop (biased)");
    let mut fair = InvertedBirthdayParadox::new(RandomWalkSampler::paper());
    let (q, _, _) = stats_of(&mut fair, &graph, 200, derive_seed(BENCH_SEED, 32));
    println!("{:<22} {q:>10.1}", "ctrw (unbiased)");

    c.bench_function("baseline_birthday/ctrw_first_collision_5k", |b| {
        let mut est = InvertedBirthdayParadox::new(RandomWalkSampler::paper());
        let mut msgs = MessageCounter::new();
        b.iter(|| black_box(est.estimate(&graph, &mut rng, &mut msgs)));
    });
}

criterion_group! {
    name = benches;
    config = criterion_config();
    targets = random_tour, gossip_sample, biased_birthday
}
criterion_main!(benches);
