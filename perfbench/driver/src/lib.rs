//! Shared plumbing of the benchmark's in-process drivers
//! (`perfbench-driver` and `perfbench-traced`): option parsing, scenario
//! and seed resolution identical to `repro run`, and one-line JSON output.

use std::collections::HashMap;
use std::time::Duration;

use p2p_estimation::{AsyncAggregation, AsyncProtocol, ProtocolSpec};
use p2p_experiments::runner::Trace;
use p2p_experiments::spec::{NetworkSpec, ScenarioSpec};
use p2p_experiments::Scenario;
use p2p_sim::rng::derive_seed;
use p2p_sim::{MessageCounter, MessageKind};
use p2p_stats::Series;

/// Series name of a one-protocol, one-replication `repro run`.
pub const SERIES: &str = "Estimation #1";

/// The protocol every DES workload runs: one epoch of 50 rounds, which
/// converges at 1M nodes on `wan`.
const DES_PROTOCOL: &str = "aggregation:rounds=50";

/// The event-driven protocol [`DES_PROTOCOL`] builds.
pub fn des_protocol() -> Result<AsyncAggregation, String> {
    let spec = ProtocolSpec::parse(DES_PROTOCOL).map_err(|e| e.to_string())?;
    let AsyncProtocol::Aggregation(p) = spec.build_async() else {
        return Err(format!("{spec} is not an aggregation protocol"));
    };
    Ok(p)
}

/// `--key value` pairs after the subcommand.
pub struct Opts(pub HashMap<String, String>);

impl Opts {
    pub fn parse(args: &[String]) -> Result<Self, String> {
        let mut map = HashMap::new();
        let mut it = args.iter();
        while let Some(key) = it.next() {
            let name = key
                .strip_prefix("--")
                .ok_or_else(|| format!("expected --flag, got {key}"))?;
            let value = it.next().ok_or_else(|| format!("{key} needs a value"))?;
            map.insert(name.to_string(), value.clone());
        }
        Ok(Opts(map))
    }

    pub fn str(&self, key: &str, default: &str) -> String {
        self.0
            .get(key)
            .cloned()
            .unwrap_or_else(|| default.to_string())
    }

    pub fn req(&self, key: &str) -> Result<String, String> {
        self.0
            .get(key)
            .cloned()
            .ok_or_else(|| format!("--{key} is required"))
    }

    pub fn num<T: std::str::FromStr>(&self, key: &str, default: Option<T>) -> Result<T, String> {
        match self.0.get(key) {
            Some(v) => v.parse().map_err(|_| format!("bad --{key} {v}")),
            None => default.ok_or_else(|| format!("--{key} is required")),
        }
    }

    /// The scenario `repro run --scenario static --network NET --size N
    /// --steps S` resolves to, slot reuse included.
    pub fn scenario(&self) -> Result<Scenario, String> {
        self.scenario_steps(self.num("steps", None)?)
    }

    /// [`Opts::scenario`] with the step count overridden.
    pub fn scenario_steps(&self, steps: u64) -> Result<Scenario, String> {
        let size: usize = self.num("size", None)?;
        let network = NetworkSpec::parse(&self.str("network", "wan")).map_err(|e| e.to_string())?;
        let mut scenario = ScenarioSpec::parse("static")
            .map_err(|e| e.to_string())?
            .resolve(size, steps)
            .with_network(network.0);
        if size >= 200_000 {
            scenario = scenario.with_slot_reuse();
        }
        Ok(scenario)
    }

    /// The seed replication 0 of a one-entry `repro run --seed X` runs on.
    pub fn run_seed(&self) -> Result<u64, String> {
        Ok(derive_seed(self.num("seed", None)?, 0))
    }
}

/// A flat JSON object, written field by field.
pub struct Json(String);

impl Default for Json {
    fn default() -> Self {
        Self::new()
    }
}

impl Json {
    pub fn new() -> Self {
        Json(String::from("{"))
    }

    fn key(&mut self, k: &str) {
        if self.0.len() > 1 {
            self.0.push_str(", ");
        }
        self.0.push_str(&format!("\"{k}\": "));
    }

    pub fn num(&mut self, k: &str, v: f64) -> &mut Self {
        self.key(k);
        if v.is_finite() {
            self.0.push_str(&format!("{v:?}"));
        } else {
            self.0.push_str("null");
        }
        self
    }

    pub fn int(&mut self, k: &str, v: u64) -> &mut Self {
        self.key(k);
        self.0.push_str(&v.to_string());
        self
    }

    pub fn str(&mut self, k: &str, v: &str) -> &mut Self {
        self.key(k);
        self.0.push_str(&format!("{v:?}"));
        self
    }

    pub fn list(&mut self, k: &str, v: &[f64]) -> &mut Self {
        self.key(k);
        let items: Vec<String> = v.iter().map(|x| format!("{x:?}")).collect();
        self.0.push_str(&format!("[{}]", items.join(", ")));
        self
    }

    pub fn print(&mut self) {
        self.0.push('}');
        println!("{}", self.0);
    }
}

pub fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

pub fn last_y(series: &Series) -> f64 {
    series.points.last().map_or(f64::NAN, |&(_, y)| y)
}

/// Writes the fields every DES run reports: events, the final estimate
/// (with its exact bits), truth, and engine/traffic accounting.
pub fn des_fields(
    out: &mut Json,
    events: u64,
    estimates: &Series,
    real_size: &Series,
    peak_queue: usize,
    pool_hit_rate: f64,
    messages: &MessageCounter,
) {
    let est = last_y(estimates);
    out.int("events", events)
        .num("final", est)
        .str("final_bits", &format!("{:016x}", est.to_bits()))
        .num("truth", last_y(real_size))
        .int("reports", estimates.len() as u64)
        .int("peak_queue", peak_queue as u64)
        .num("pool_hit_rate", pool_hit_rate);
    for kind in MessageKind::ALL {
        let n = messages.get(kind);
        if n > 0 {
            out.int(&format!("msgs.{kind}"), n);
        }
    }
}

pub fn trace_fields(out: &mut Json, trace: &Trace) {
    des_fields(
        out,
        trace.engine.dispatched,
        &trace.estimates,
        &trace.real_size,
        trace.engine.peak_depth,
        trace.engine.pool_hit_rate(),
        &trace.messages,
    );
}
