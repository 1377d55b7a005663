//! Byte pins for the sharded DES at K = 2, 3 and 4.
//!
//! Each case runs one small scenario through `run_scenario_des_sharded`
//! with telemetry on and hashes (FNV-1a) the trace and the metrics JSONL.
//! The pinned digests were recorded on the tick-barrier engine, which met
//! at a barrier on every occupied tick; the lookahead-window engine must
//! reproduce every one of them. Left out of the hash are only quantities
//! that describe how the engine stores and synchronizes, not what the run
//! computed, plus the metrics the tick-barrier engine did not emit:
//!
//! * the storage gauges `engine.peak_depth`, `engine.bytes`,
//!   `engine.pool_hits`, `engine.pool_allocs` and `pool.bytes` (and the
//!   matching fields of the trace's `EngineStats`): events staged for a
//!   later window wait outside the wheel, and remote payloads enter the
//!   destination's pool at a different moment, so the pool's slab and
//!   free list grow differently;
//! * `shard.windows` and `shard.imbalance`, which measure the barrier
//!   schedule itself, and `proto.arena_bytes`, a storage gauge.

use p2p_size_estimation::estimation::net_protocol::{
    AsyncAggregation, AsyncHopsSampling, AsyncSampleCollide,
};
use p2p_size_estimation::estimation::{
    AsyncProtocol, Deployment, Heuristic, NodeProtocol, ProtocolSpec, ShardView,
};
use p2p_size_estimation::experiments::runner::{TelemetryOpts, Trace};
use p2p_size_estimation::experiments::{run_scenario_des_sharded, Scenario, ShardOpts};
use p2p_size_estimation::sim::{HopLatency, NetworkModel};
use p2p_size_estimation::workload::{WorkloadSource, WorkloadSpec};

/// Metrics left out of the digest (see the module docs).
const UNPINNED: [&str; 8] = [
    "engine.peak_depth",
    "engine.bytes",
    "engine.pool_hits",
    "engine.pool_allocs",
    "pool.bytes",
    "shard.windows",
    "shard.imbalance",
    "proto.arena_bytes",
];

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325_u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Runs one sharded case and returns the digest of its pinned bytes.
fn digest<P, F>(make: F, scenario: &Scenario, k: u32, seed: u64) -> u64
where
    P: NodeProtocol + Send,
    P::Msg: Send,
    F: Fn(u32, ShardView) -> P,
{
    let (trace, snaps) = run_scenario_des_sharded(
        make,
        scenario,
        Heuristic::OneShot,
        seed,
        "pin",
        ShardOpts {
            shards: k,
            workers: None,
        },
        Some(TelemetryOpts { every: 7, eps: 0.1 }),
    );
    let Trace {
        estimates,
        real_size,
        messages,
        completed,
        net,
        engine,
        ..
    } = &trace;
    let mut text = format!(
        "{estimates:?}\n{real_size:?}\n{messages:?}\n{completed}\n{net:?}\n{}\n",
        engine.dispatched
    );
    assert!(!snaps.is_empty(), "telemetry was requested");
    for mut snap in snaps {
        snap.counters
            .retain(|(n, _)| !UNPINNED.contains(&n.as_str()));
        snap.gauges.retain(|(n, _)| !UNPINNED.contains(&n.as_str()));
        text.push_str(&snap.to_jsonl());
        text.push('\n');
    }
    fnv1a(text.as_bytes())
}

fn wan(n: usize, steps: u64) -> Scenario {
    Scenario::static_network(n, steps).with_network(NetworkModel::wan())
}

fn aggregation(view: ShardView) -> AsyncAggregation {
    match ProtocolSpec::parse("aggregation:rounds=10")
        .unwrap()
        .build_async()
    {
        AsyncProtocol::Aggregation(mut p) => {
            p.deployment = Deployment::Shard(view);
            p
        }
        _ => unreachable!(),
    }
}

fn sample_collide(view: ShardView) -> AsyncSampleCollide {
    match ProtocolSpec::parse("sample-collide:l=20,t=3")
        .unwrap()
        .build_async()
    {
        AsyncProtocol::SampleCollide(mut p) => {
            p.deployment = Deployment::Shard(view);
            p
        }
        _ => unreachable!(),
    }
}

fn hops_sampling(view: ShardView) -> AsyncHopsSampling {
    match ProtocolSpec::parse("hops-sampling").unwrap().build_async() {
        AsyncProtocol::HopsSampling(mut p) => {
            p.deployment = Deployment::Shard(view);
            p
        }
        _ => unreachable!(),
    }
}

fn steady_churn(s: Scenario) -> Scenario {
    let spec = WorkloadSpec::parse("steady:join=4,leave=4").unwrap();
    s.with_workload(WorkloadSource::Model(spec))
        .with_slot_reuse()
}

/// Digests indexed `[case][k - 2]`, recorded on the tick-barrier engine.
const PINNED: [(&str, [u64; 3]); 5] = [
    (
        "aggregation, wan, 5% drop",
        [0xc413a352aad864a2, 0x3bf4c26a7ea2c6d5, 0x073328c04dcbc6de],
    ),
    (
        "aggregation, wan, steady churn",
        [0x463177fa65ae319a, 0xd023b2ba0ab81cc2, 0x1362925957f6ec19],
    ),
    (
        "aggregation, short uniform hops",
        [0x570d7ad16a179c2e, 0x8786e76386fb5db9, 0xe1602b529afe1c1d],
    ),
    (
        "sample-collide, wan",
        [0x895998f046b952e8, 0x4b77a2438e1f7860, 0x1df8f80d74b3bdcf],
    ),
    (
        "hops-sampling, wan, steady churn",
        [0x9adc03a3a0fddf4b, 0xfc25e25e3ff2230d, 0xf869631b26212a09],
    ),
];

#[test]
fn sharded_bytes_match_the_tick_barrier_engine() {
    let mut got = Vec::new();
    for k in 2..=4u32 {
        let drop = wan(1_200, 40).with_network(NetworkModel::wan().with_drop_rate(0.05));
        let churn = steady_churn(wan(1_200, 40));
        // Uniform 4–30 ms hops at spread 0.5: a two-tick minimum hop.
        let short = wan(1_200, 40).with_network(
            NetworkModel::wan()
                .with_latency(HopLatency::Uniform { lo: 4.0, hi: 30.0 })
                .with_link_spread(0.5)
                .with_step_ticks(60),
        );
        got.push([
            digest(|_, v| aggregation(v), &drop, k, 11),
            digest(|_, v| aggregation(v), &churn, k, 12),
            digest(|_, v| aggregation(v), &short, k, 13),
            digest(|_, v| sample_collide(v), &wan(800, 40), k, 14),
            digest(|_, v| hops_sampling(v), &steady_churn(wan(800, 16)), k, 15),
        ]);
    }
    let mut report = String::new();
    let mut ok = true;
    for (case, (name, pinned)) in PINNED.iter().enumerate() {
        let row: Vec<u64> = got.iter().map(|per_k| per_k[case]).collect();
        ok &= row == pinned;
        report.push_str(&format!(
            "    (\"{name}\", [{:#018x}, {:#018x}, {:#018x}]),\n",
            row[0], row[1], row[2]
        ));
    }
    assert!(ok, "sharded bytes moved; digests now:\n{report}");
}
