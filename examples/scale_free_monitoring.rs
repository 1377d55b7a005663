//! The three candidates on a scale-free (Barabási–Albert) overlay.
//!
//! ```text
//! cargo run --release --example scale_free_monitoring
//! ```
//!
//! Reproduces the paper's §IV-C(g) observation in miniature: heavy-tailed
//! degrees do not bias Sample&Collide (its sampler is degree-corrected) nor
//! Aggregation, but they *amplify* HopsSampling's underestimation.

#![deny(unsafe_code)]

use p2p_size_estimation::estimation::aggregation::Aggregation;
use p2p_size_estimation::estimation::{HopsSampling, SampleCollide, SizeEstimator};
use p2p_size_estimation::overlay::builder::{BarabasiAlbert, GraphBuilder};
use p2p_size_estimation::overlay::metrics::{degree_histogram, degree_stats};
use p2p_size_estimation::sim::rng::small_rng;
use p2p_size_estimation::sim::MessageCounter;
use p2p_size_estimation::stats::RunningStats;

fn main() {
    let n = 10_000;
    let mut rng = small_rng(2006);
    let graph = BarabasiAlbert::paper(n).build(&mut rng); // m = 3, like Fig 7

    let stats = degree_stats(&graph);
    println!(
        "scale-free overlay: {n} nodes, min degree {}, max degree {}, average {:.1}",
        stats.min, stats.max, stats.mean
    );
    let hist = degree_histogram(&graph);
    println!(
        "degree histogram head: {:?} ... (power-law tail, Fig 7)",
        &hist[..4.min(hist.len())]
    );

    let runs = 10;
    println!(
        "\n{:<16} {:>12} {:>10}",
        "algorithm", "mean est.", "quality%"
    );
    let mut report = |name: &str, est: &mut dyn SizeEstimator| {
        let mut msgs = MessageCounter::new();
        let mut acc = RunningStats::new();
        for _ in 0..runs {
            if let Some(e) = est.estimate(&graph, &mut rng, &mut msgs) {
                acc.push(e);
            }
        }
        println!(
            "{:<16} {:>12.0} {:>10.1}",
            name,
            acc.mean(),
            100.0 * acc.mean() / n as f64
        );
    };
    report("Sample&Collide", &mut SampleCollide::paper());
    report("Aggregation", &mut Aggregation::paper());
    report("HopsSampling", &mut HopsSampling::paper());

    println!(
        "\nExpected (paper Fig 8): Sample&Collide and Aggregation near 100%,\n\
         HopsSampling clearly below — hubs distort its gossip distance field."
    );
}
