//! `analyze`: `analyze_activity_with_plan` and `lint_netlist` as separate
//! jobs on every design. Each call builds one whole-netlist BDD manager;
//! nothing is simulated.

use crate::corpus;
use crate::runner::{digest_of, run_serial, Job, Serial};
use crate::trace::Trace;
use crate::{Outcome, RunConfig};
use oiso_activity::{analyze_activity_with_plan, ActivityOptions, ActivityReport};
use oiso_designs::Design;
use oiso_lint::{lint_netlist, LintOptions, LintReport};

/// Operator counts of the seeded random designs (width 8). Wider or
/// larger random designs take seconds per call and would leave a run with
/// too few samples.
const RANDOM_OPS: [usize; 4] = [4, 8, 12, 16];

/// A job: one static pass over one design.
pub enum Pass {
    /// Switching activity under the design's stimulus plan.
    Activity(Design),
    /// The lint rule set.
    Lint(Design),
}

/// A job's report.
pub enum Report {
    /// From [`Pass::Activity`].
    Activity(ActivityReport),
    /// From [`Pass::Lint`].
    Lint(LintReport),
}

struct AnalyzeWorkload;

fn activity(design: &Design) -> ActivityReport {
    analyze_activity_with_plan(
        &design.netlist,
        &design.stimuli,
        &ActivityOptions::default(),
    )
}

fn lint(design: &Design) -> LintReport {
    lint_netlist(&design.netlist, &LintOptions::default())
}

impl Serial for AnalyzeWorkload {
    type Input = Pass;
    type Output = Report;

    fn setup(&self, seed: u64) -> Vec<Job<Pass>> {
        let mut jobs = Vec::new();
        for e in corpus::corpus(seed, "analyze", &RANDOM_OPS, 8) {
            jobs.push(Job {
                name: format!("{}/lint", e.name),
                input: Pass::Lint(e.design.clone()),
                reference: e.reference,
            });
            jobs.push(Job {
                name: format!("{}/activity", e.name),
                input: Pass::Activity(e.design),
                reference: e.reference,
            });
        }
        jobs
    }

    fn run(&self, pass: &Pass) -> Result<Report, String> {
        Ok(match pass {
            Pass::Activity(d) => Report::Activity(activity(d)),
            Pass::Lint(d) => Report::Lint(lint(d)),
        })
    }

    fn check(&self, pass: &Pass, out: &Report, stats: &mut Trace) -> Result<u64, String> {
        stats.count("jobs", 1.0);
        match (pass, out) {
            (Pass::Activity(d), Report::Activity(r)) => {
                let words = d
                    .netlist
                    .nets()
                    .flat_map(|(id, _)| [r.prob(id).to_bits(), r.density(id).to_bits()]);
                Ok(digest_of(
                    words.chain([r.exact_nets as u64, u64::from(r.budget_blown)]),
                ))
            }
            (Pass::Lint(_), Report::Lint(r)) => {
                let codes = r
                    .diagnostics
                    .iter()
                    .map(|d| d.code.bytes().fold(0u64, |acc, b| acc << 8 | u64::from(b)));
                Ok(digest_of(codes.chain([r.proved as u64, r.sampled as u64])))
            }
            _ => Err("report kind does not match the job".into()),
        }
    }

    fn traced(&self, pass: &Pass, t: &mut Trace) -> Result<Report, String> {
        Ok(match pass {
            Pass::Activity(d) => {
                let r = t.span("activity", || activity(d));
                t.count("activity.nets", d.netlist.num_nets() as f64);
                t.count("activity.exact_nets", r.exact_nets as f64);
                t.count("activity.bdd_nodes", r.bdd_nodes as f64);
                t.count("activity.budget_blown", f64::from(u8::from(r.budget_blown)));
                Report::Activity(r)
            }
            Pass::Lint(d) => {
                let r = t.span("lint", || lint(d));
                t.count("lint.proved", r.proved as f64);
                t.count("lint.sampled", r.sampled as f64);
                t.count("lint.diagnostics", r.diagnostics.len() as f64);
                Report::Lint(r)
            }
        })
    }
}

/// Digests of the canonical seed's outcomes.
const PINNED: &str = include_str!("../../pinned/analyze.txt");

/// Runs the workload.
pub fn run(cfg: &RunConfig) -> Outcome {
    let run = run_serial(&AnalyzeWorkload, cfg, PINNED);
    Outcome::from_serial(&run, cfg, Vec::new())
}
