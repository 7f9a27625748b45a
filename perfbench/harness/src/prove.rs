//! `prove`: `verify_isolation_plan` once per (design, style) job, with
//! the plan `verifybench` builds (every arithmetic candidate, activations
//! from `derive_activation_functions`) and its checker settings.
//!
//! The traced run replays the plan loop so that spans split the isolation
//! transform from the equivalence check of each candidate.

use crate::corpus;
use crate::runner::{digest_of, run_serial, Job, Serial, SerialRun};
use crate::trace::Trace;
use crate::{Outcome, RunConfig};
use oiso_boolex::BoolExpr;
use oiso_core::{
    derive_activation_functions, isolate_with_cache, ActivationConfig, IsolationStyle,
};
use oiso_netlist::{CellId, Netlist};
use oiso_verify::{
    activation_closes_cycle, verify_isolation_plan, verify_with_stats, CheckStats, Proof,
    VerifyConfig, VerifyOutcome,
};
use std::collections::HashMap;

/// Operator counts of the seeded random designs (width 8).
const RANDOM_OPS: [usize; 5] = [8, 10, 12, 14, 16];

/// One job: a design and its whole isolation plan in one style.
pub struct PlanJob {
    netlist: Netlist,
    plan: Vec<(CellId, BoolExpr, IsolationStyle)>,
}

/// What the checker concluded, step by step.
pub struct Proved {
    fingerprint: u64,
    steps: Vec<(VerifyOutcome, CheckStats)>,
}

struct ProveWorkload {
    config: VerifyConfig,
}

/// Tally of one job's step outcomes: `[proved, sampled, skipped, violations]`.
fn tally(steps: &[(VerifyOutcome, CheckStats)]) -> [usize; 4] {
    let mut t = [0; 4];
    for (outcome, _) in steps {
        t[match outcome {
            VerifyOutcome::Verified(Proof::Bdd { .. }) => 0,
            VerifyOutcome::Verified(Proof::Sampled { .. }) => 1,
            VerifyOutcome::Skipped { .. } => 2,
            VerifyOutcome::Violation { .. } => 3,
        }] += 1;
    }
    t
}

impl Serial for ProveWorkload {
    type Input = PlanJob;
    type Output = Proved;

    fn setup(&self, seed: u64) -> Vec<Job<PlanJob>> {
        let mut jobs = Vec::new();
        for entry in corpus::corpus(seed, "prove", &RANDOM_OPS, 8) {
            let netlist = entry.design.netlist;
            let acts = derive_activation_functions(&netlist, &ActivationConfig::default());
            for style in IsolationStyle::ALL_WITH_BDD {
                let plan = netlist
                    .arithmetic_cells()
                    .filter_map(|cid| acts.get(&cid).map(|a| (cid, a.clone(), style)))
                    .collect();
                jobs.push(Job {
                    name: format!("{}/{style}", entry.name),
                    input: PlanJob {
                        netlist: netlist.clone(),
                        plan,
                    },
                    reference: entry.reference,
                });
            }
        }
        jobs
    }

    fn run(&self, job: &PlanJob) -> Result<Proved, String> {
        let (work, checks) = verify_isolation_plan(&job.netlist, &job.plan, &self.config)
            .map_err(|e| e.to_string())?;
        Ok(Proved {
            fingerprint: work.fingerprint(),
            steps: checks.into_iter().map(|c| (c.outcome, c.stats)).collect(),
        })
    }

    fn check(&self, job: &PlanJob, out: &Proved, stats: &mut Trace) -> Result<u64, String> {
        let [proved, sampled, skipped, violations] = tally(&out.steps);
        stats.count("jobs", 1.0);
        stats.count("checked", (proved + sampled + violations) as f64);
        stats.count("proved", proved as f64);
        stats.count("skipped", skipped as f64);
        if out.steps.len() != job.plan.len() {
            return Err(format!(
                "{} checks for a plan of {}",
                out.steps.len(),
                job.plan.len()
            ));
        }
        if violations > 0 {
            return Err(format!("{violations} equivalence violation(s)"));
        }
        Ok(digest_of(
            std::iter::once(out.fingerprint).chain([proved, sampled, skipped].map(|n| n as u64)),
        ))
    }

    fn describe(&self, _: &PlanJob, out: &Proved) -> String {
        let [proved, sampled, skipped, violations] = tally(&out.steps);
        format!(
            "checked {} (proved {proved}, sampled {sampled}, violations {violations}), skipped {skipped}",
            proved + sampled + violations
        )
    }

    fn traced(&self, job: &PlanJob, t: &mut Trace) -> Result<Proved, String> {
        let mut work = job.netlist.clone();
        let mut cache = HashMap::new();
        let mut steps = Vec::with_capacity(job.plan.len());
        for (cid, activation, style) in &job.plan {
            let skip = t.span("verify.transform", || {
                activation.is_const(true) || activation_closes_cycle(&work, *cid, activation)
            });
            if skip {
                t.count("verify.skipped", 1.0);
                let reason = "not applied".to_string();
                steps.push((VerifyOutcome::Skipped { reason }, CheckStats::default()));
                continue;
            }
            let before = t.span("verify.transform", || {
                let before = work.clone();
                isolate_with_cache(&mut work, *cid, activation, *style, &mut cache).map(|_| before)
            });
            let before = before.map_err(|e| e.to_string())?;
            let (outcome, stats) = t.span("verify.check", || {
                verify_with_stats(&before, &work, &self.config)
            });
            t.count("verify.checked", 1.0);
            t.count(
                match &outcome {
                    VerifyOutcome::Verified(Proof::Bdd { .. }) => "verify.proved",
                    VerifyOutcome::Verified(Proof::Sampled { .. }) => "verify.sampled",
                    _ => "verify.violations",
                },
                1.0,
            );
            t.count("bdd.reorders", stats.reordered as f64);
            t.high_water("bdd.peak_nodes", stats.peak_nodes as f64);
            steps.push((outcome, stats));
        }
        Ok(Proved {
            fingerprint: work.fingerprint(),
            steps,
        })
    }
}

/// Digests of the canonical seed's outcomes.
const PINNED: &str = include_str!("../../pinned/prove.txt");

/// Runs the workload.
pub fn run(cfg: &RunConfig) -> Outcome {
    let w = ProveWorkload {
        // The shipped checker settings, as `oiso verify` runs them: one
        // thread, a 200k-node budget and no sifting. `verifybench` uses a
        // 4M budget and sifts from 100k nodes; with that sifting, one
        // seeded 16-op design whose miters outgrow the budget took 20–45 s
        // per style before falling back to sampling, against 5 s without.
        config: VerifyConfig::default(),
    };
    let run = run_serial(&w, cfg, PINNED);
    outcome(&run, cfg)
}

fn outcome(run: &SerialRun, cfg: &RunConfig) -> Outcome {
    let (checked, proved, skipped) = (
        run.stats.get("checked"),
        run.stats.get("proved"),
        run.stats.get("skipped"),
    );
    let ratio = if checked > 0.0 { proved / checked } else { 0.0 };
    let note = format!(
        "proved_ratio {ratio:.4} ({proved} proved of {checked} checked; {skipped} skipped, never counted as proved)"
    );
    Outcome::from_serial(run, cfg, vec![note])
}
