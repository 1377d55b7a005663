//! Shared plumbing for the criterion benches.
//!
//! Every bench target does two jobs:
//!
//! 1. **Regenerate its figures/table** via `p2p-experiments` at
//!    [`ExperimentScale::from_env`] (set `P2P_PAPER_SCALE=1` for the full
//!    100k/1M sizes) and drop the CSVs under `target/figures/`;
//! 2. **Time the underlying primitive** (one estimation, one round, one
//!    spread…) with criterion at a fixed reduced size, so `cargo bench`
//!    also tracks implementation performance over time.

#![deny(unsafe_code)]

use p2p_experiments::ExperimentScale;
use p2p_stats::series::Figure;
use std::path::PathBuf;
use std::time::Duration;

/// The workspace `target/figures` directory, robust to the bench cwd being
/// the package directory.
pub fn figures_dir() -> PathBuf {
    if let Ok(dir) = std::env::var("CARGO_TARGET_DIR") {
        return PathBuf::from(dir).join("figures");
    }
    // crates/bench -> workspace root/target
    PathBuf::from("../../target/figures")
}

/// Saves a figure CSV and prints a one-line summary per series.
pub fn emit_figure(fig: &Figure) {
    match fig.save_csv(&figures_dir()) {
        Ok(path) => println!("[figure] {} -> {}", fig.id, path.display()),
        Err(e) => eprintln!("[figure] {}: CSV write failed: {e}", fig.id),
    }
    for s in &fig.series {
        let (lo, hi) = s.y_range().unwrap_or((f64::NAN, f64::NAN));
        println!(
            "  {:<24} {:>5} points, y in [{:.1}, {:.1}]",
            s.name,
            s.len(),
            lo,
            hi
        );
    }
}

/// The scale used for figure regeneration inside benches.
pub fn bench_scale() -> ExperimentScale {
    ExperimentScale::from_env()
}

/// Criterion settings shared by all targets: small samples, short windows —
/// the timed bodies are macroscopic simulations, not nano-kernels.
pub fn criterion_config() -> criterion::Criterion {
    criterion::Criterion::default()
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(2))
        .configure_from_args()
}

/// Master seed for all bench-generated data.
pub const BENCH_SEED: u64 = 20060619;

/// Where the hot-path benchmark snapshot lands: `target/BENCH_5.json`
/// (sibling of `target/figures`). CI uploads it as an artifact; the copy
/// committed at the repo root is the reference measurement.
pub fn bench5_path() -> PathBuf {
    figures_dir()
        .parent()
        .map(|p| p.join("BENCH_5.json"))
        .unwrap_or_else(|| PathBuf::from("BENCH_5.json"))
}

/// Writes the hot-path snapshot as a JSON object of `key → entry` (entries
/// are pre-rendered JSON values; the writer is hand-rolled like every
/// serializer in this workspace).
pub fn write_bench5(entries: &[(String, String)]) {
    write_snapshot("bench5", &bench5_path(), entries);
}

/// Where the memory-scale snapshot lands: `target/BENCH_6.json`, the
/// nodes × peak-RSS × events/s curve from the `engine-memory` ablation.
/// Same convention as [`bench5_path`]: CI uploads the fresh copy, the one
/// committed at the repo root is the reference measurement.
pub fn bench6_path() -> PathBuf {
    figures_dir()
        .parent()
        .map(|p| p.join("BENCH_6.json"))
        .unwrap_or_else(|| PathBuf::from("BENCH_6.json"))
}

/// Writes the memory-scale snapshot (see [`write_bench5`] for the format).
pub fn write_bench6(entries: &[(String, String)]) {
    write_snapshot("bench6", &bench6_path(), entries);
}

/// Where the telemetry-overhead snapshot lands: `target/BENCH_7.json`,
/// events/s with and without interval metrics capture on the 1M-node
/// `engine-memory` configuration. Same convention as [`bench5_path`].
pub fn bench7_path() -> PathBuf {
    figures_dir()
        .parent()
        .map(|p| p.join("BENCH_7.json"))
        .unwrap_or_else(|| PathBuf::from("BENCH_7.json"))
}

/// Writes the telemetry-overhead snapshot (see [`write_bench5`] for the
/// format).
pub fn write_bench7(entries: &[(String, String)]) {
    write_snapshot("bench7", &bench7_path(), entries);
}

/// Where the shard-scaling snapshot lands: `target/BENCH_8.json`,
/// shards × events/s × peak RSS from the `shard_scaling` ablation (the
/// lookahead-window parallel engine vs the sequential wheel on the same
/// scenario). Same convention as [`bench5_path`].
pub fn bench8_path() -> PathBuf {
    figures_dir()
        .parent()
        .map(|p| p.join("BENCH_8.json"))
        .unwrap_or_else(|| PathBuf::from("BENCH_8.json"))
}

/// Writes the shard-scaling snapshot (see [`write_bench5`] for the format).
pub fn write_bench8(entries: &[(String, String)]) {
    write_snapshot("bench8", &bench8_path(), entries);
}

fn write_snapshot(tag: &str, path: &std::path::Path, entries: &[(String, String)]) {
    let mut out = String::from("{\n");
    for (i, (key, value)) in entries.iter().enumerate() {
        out.push_str(&format!("  \"{key}\": {value}"));
        out.push_str(if i + 1 < entries.len() { ",\n" } else { "\n" });
    }
    out.push_str("}\n");
    if let Some(dir) = path.parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    match std::fs::write(path, out) {
        Ok(()) => println!("[{tag}] snapshot -> {}", path.display()),
        Err(e) => eprintln!("[{tag}] {}: write failed: {e}", path.display()),
    }
}
