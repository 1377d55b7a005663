//! Determinism & safety auditor: a hand-rolled static-analysis pass that
//! enforces the reproducibility contract the golden figures rest on.
//!
//! Every claim this reproduction makes — the golden figure CSVs, the
//! DES-vs-cluster envelopes, bit-for-bit trace replay — requires that
//! sim-path code never reads wall clocks, never iterates order-unstable
//! maps into output, and never draws from unseeded RNG. This crate makes
//! that contract *checkable* instead of remembered:
//!
//! * [`lexer`] — a small Rust lexer that tokenizes correctly through
//!   comments, string/char literals, and raw strings, so rules never fire
//!   on quoted or commented-out text;
//! * [`mod@rules`] — the rule set (14 rules) with per-crate/path scoping and
//!   `#[cfg(test)]` exemptions;
//! * [`engine`] — the workspace walker, `audit:allow` resolution, and
//!   text/JSONL reporting.
//!
//! Run it as `repro audit` (see `crates/experiments/src/bin/repro.rs`);
//! CI runs the tier-1 test `tests/audit_clean.rs`, which fails on any
//! violation not covered by a reasoned `// audit:allow(rule): why` line.

#![deny(unsafe_code)]

pub mod engine;
pub mod lexer;
pub mod rules;

pub use engine::{
    audit_files, audit_workspace, file_meta, list_rules, walk_workspace, AuditReport, SourceFile,
    Violation,
};
pub use lexer::{lex, Lexed};
pub use rules::{rules, FileMeta, Rule};
