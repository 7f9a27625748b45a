//! One repeatable benchmark of the operand-isolation workspace.
//!
//! Four workloads, each built from a seed given on the command line:
//!
//! * [`isolate`] — parse → `optimize_with_memo` → emit (simulator and
//!   optimizer loop).
//! * [`prove`] — `verify_isolation_plan` per (design, style) job (many
//!   small BDD managers, no simulation).
//! * [`analyze`] — `analyze_activity_with_plan` and `lint_netlist` as
//!   separate jobs (one large BDD manager per call, no simulation).
//! * [`serve`] — an open-loop, then closed-loop, request stream against
//!   one in-process daemon over loopback (http, json, cache and store
//!   layers).
//!
//! An untraced run prints the end-to-end metrics; a traced run prints the
//! per-layer metrics of [`layers::PER_LAYER`], timed by spans around the
//! benchmark's own calls into each crate.

pub mod analyze;
pub mod corpus;
pub mod isolate;
pub mod layers;
pub mod prove;
pub mod report;
pub mod runner;
pub mod serve;
pub mod trace;

use layers::{per_layer, LayerInput};
use report::Metrics;
use runner::SerialRun;

/// The seed whose outputs are pinned (`perfbench/pinned/*.txt`).
pub const CANONICAL_SEED: u64 = 1;

/// A seed kept out of all tuning, for confirming a later claim.
pub const HELD_OUT_SEED: u64 = 20_260_417;

/// The workload names, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 4] = ["isolate", "prove", "analyze", "serve"];

/// What one invocation measures.
#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    /// Workload seed; every design and stimulus seed derives from it.
    pub seed: u64,
    /// Measured run length.
    pub seconds: f64,
    /// Per-layer (traced) run instead of the end-to-end one.
    pub trace: bool,
}

/// The result of one run.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Jobs or requests attempted.
    pub attempted: u64,
    /// Check failures, one line each.
    pub failures: Vec<String>,
    /// The metrics to print.
    pub metrics: Metrics,
    /// Human-readable record lines.
    pub notes: Vec<String>,
    /// `(job, digest)` of the first pass, for re-pinning.
    pub digests: Vec<(String, u64)>,
}

impl Outcome {
    /// Jobs that failed, never more than were attempted.
    pub fn failed(&self) -> u64 {
        (self.failures.len() as u64).min(self.attempted)
    }

    /// The outcome of a serial workload run.
    pub fn from_serial(run: &SerialRun, cfg: &RunConfig, mut notes: Vec<String>) -> Outcome {
        notes.splice(0..0, run.notes());
        let metrics = if cfg.trace {
            per_layer(&LayerInput {
                trace: &run.trace,
                stats: &run.stats,
                passes: run.passes as f64,
                untraced_ms: run.untraced_ms,
                traced_ms: run.traced_ms,
            })
        } else {
            let mut m = Metrics::default();
            run.end_to_end(&mut m);
            m
        };
        Outcome {
            attempted: run.attempted,
            failures: run.failures.clone(),
            metrics,
            notes,
            digests: run.digests.clone(),
        }
    }
}

/// Runs workload `name`, or `None` for an unknown name.
pub fn run_workload(name: &str, cfg: &RunConfig) -> Option<Outcome> {
    Some(match name {
        "isolate" => isolate::run(cfg),
        "prove" => prove::run(cfg),
        "analyze" => analyze::run(cfg),
        "serve" => serve::run(cfg),
        _ => return None,
    })
}
