//! `isolate`: parse → `optimize_with_memo` → emit on every design.
//!
//! The traced run replays Algorithm 1's loop through the public calls
//! `optimize_with_memo` makes, one span per call, and must reach the same
//! netlist and `power_after` as the untraced run.

use crate::corpus;
use crate::runner::{digest_of, run_serial, Job, Serial, SerialRun};
use crate::trace::{cpu_ms, Trace};
use crate::{Outcome, RunConfig};
use oiso_bdd::NodeBudget;
use oiso_boolex::BoolExpr;
use oiso_core::candidates::CandidateFilter;
use oiso_core::{
    identify_candidates, isolate_with_cache, optimize_with_memo, precheck_candidate_with_budget,
    Candidate, CostModel, IsolationConfig, SavingsEstimator, DEFAULT_PRECHECK_NODE_BUDGET,
};
use oiso_designs::{textfmt, Design};
use oiso_netlist::{CellId, Netlist};
use oiso_power::{total_area, PowerEstimator};
use oiso_sim::{SimMemo, SimReport, StimulusPlan, Testbench};
use oiso_techlib::{Power, Time};
use oiso_timing::analyze;
use std::collections::HashMap;
use std::sync::Arc;

/// Operator counts of the seeded random designs (width 16).
const RANDOM_OPS: [usize; 8] = [8, 16, 24, 32, 40, 48, 56, 64];

/// What a job leaves behind: the transformed netlist and its measured
/// power, plus the emitted text.
pub struct Isolated {
    netlist: Netlist,
    power_before: Power,
    power_after: Power,
    isolated: usize,
    evaluated: usize,
    text: String,
}

struct IsolateWorkload {
    config: IsolationConfig,
}

impl Serial for IsolateWorkload {
    type Input = String;
    type Output = Isolated;

    /// A bundled design optimizes in 1–15 ms, so one burst of host noise
    /// covers many samples; the median of five runs is one sample.
    const REPEATS: usize = 5;

    fn setup(&self, seed: u64) -> Vec<Job<String>> {
        corpus::corpus(seed, "isolate", &RANDOM_OPS, 16)
            .into_iter()
            .map(|e| Job {
                name: e.name,
                input: textfmt::emit(&e.design),
                reference: e.reference,
            })
            .collect()
    }

    fn run(&self, text: &String) -> Result<Isolated, String> {
        let design = textfmt::parse(text).map_err(|e| e.to_string())?;
        let outcome = optimize_with_memo(
            &design.netlist,
            &design.stimuli,
            &self.config,
            &SimMemo::new(),
        )
        .map_err(|e| e.to_string())?;
        let (power_before, power_after) = (outcome.power_before, outcome.power_after);
        let (isolated, evaluated) = (outcome.num_isolated(), outcome.evaluated);
        let done = Design {
            netlist: outcome.netlist,
            stimuli: design.stimuli,
        };
        let text = textfmt::emit(&done);
        Ok(Isolated {
            netlist: done.netlist,
            power_before,
            power_after,
            isolated,
            evaluated,
            text,
        })
    }

    fn check(&self, _: &String, out: &Isolated, stats: &mut Trace) -> Result<u64, String> {
        out.netlist
            .validate()
            .map_err(|e| format!("outcome netlist invalid: {e}"))?;
        let back = textfmt::parse(&out.text).map_err(|e| format!("emitted text: {e}"))?;
        let fp = out.netlist.fingerprint();
        if back.netlist.fingerprint() != fp {
            return Err("emit → parse changed the netlist fingerprint".into());
        }
        let before = out.power_before.as_mw();
        stats.count("jobs", 1.0);
        stats.count(
            "power_reduction_pct",
            (before - out.power_after.as_mw()) / before * 100.0,
        );
        stats.count("isolated", out.isolated as f64);
        stats.count("evaluated", out.evaluated as f64);
        Ok(digest_of([fp, out.power_after.as_mw().to_bits()]))
    }

    fn traced(&self, text: &String, t: &mut Trace) -> Result<Isolated, String> {
        let design = t
            .span("designs.parse", || textfmt::parse(text))
            .map_err(|e| e.to_string())?;
        let mut r = replay(&design.netlist, &design.stimuli, &self.config, t)?;
        let done = Design {
            netlist: r.netlist,
            stimuli: design.stimuli,
        };
        r.text = t.span("designs.emit", || textfmt::emit(&done));
        r.netlist = done.netlist;
        Ok(r)
    }
}

/// A simulation through the memo, as `optimize_with_memo` runs its
/// unmonitored baseline and final measurements: a miss counts as `sim`,
/// the lookup itself as `sim.memo`.
fn memo_run(
    memo: &SimMemo,
    work: &Netlist,
    plan: &StimulusPlan,
    config: &IsolationConfig,
    t: &mut Trace,
) -> Result<Arc<SimReport>, String> {
    let mut sim_ms = 0.0;
    let start = cpu_ms();
    let report = memo.get_or_insert_with(work, plan, config.sim_cycles, || {
        let sim_start = cpu_ms();
        let report = Testbench::from_plan(work, plan)
            .and_then(|mut tb| tb.run_with_engine(config.sim_cycles, config.engine));
        sim_ms = cpu_ms() - sim_start;
        report
    });
    t.add_ms("sim.memo", cpu_ms() - start - sim_ms);
    if sim_ms > 0.0 {
        t.add_ms("sim", sim_ms);
        count_sim(t, work, config.sim_cycles);
    }
    report.map_err(|e| e.to_string())
}

/// Counts one simulation run of `work`.
fn count_sim(t: &mut Trace, work: &Netlist, cycles: u64) {
    t.count("sim.runs", 1.0);
    t.count("sim.cycles", cycles as f64);
    t.count("sim.cell_cycles", (cycles * work.num_cells() as u64) as f64);
}

/// Algorithm 1 as `optimize_with_memo` runs it under the default
/// configuration (no journal, unlimited budget, precheck on, ranking off,
/// one thread), with a span around every call into another layer.
fn replay(
    netlist: &Netlist,
    plan: &StimulusPlan,
    config: &IsolationConfig,
    t: &mut Trace,
) -> Result<Isolated, String> {
    let lib = &config.library;
    let cond = config.conditions;
    let clock_period = cond.clock_period();
    let pe = PowerEstimator::new(lib, cond);
    let memo = SimMemo::new();
    let mut work = netlist.clone();

    // `optimize_with_memo` measures power, area and slack before and
    // after; the replay makes the same calls so its spans cover them.
    let report0 = memo_run(&memo, &work, plan, config, t)?;
    let power_before = t.span("power.estimate", || {
        total_area(lib, &work);
        pe.estimate(&work, &report0).total
    });
    t.span("timing.sta", || analyze(lib, &work, clock_period));

    let mut isolated_acts: HashMap<CellId, BoolExpr> = HashMap::new();
    let mut pre_excluded: std::collections::HashSet<CellId> = Default::default();
    let mut synth_cache = HashMap::new();
    let mut evaluated = 0usize;
    for _ in 1..=config.max_iterations {
        let timing = t.span("timing.sta", || analyze(lib, &work, clock_period));
        let filter = CandidateFilter {
            min_width: config.min_width,
            slack_threshold: config
                .slack_threshold
                .unwrap_or(Time::from_ns(f64::NEG_INFINITY)),
            bank: config.style.bank_kind(),
        };
        let mut candidates: Vec<Candidate> = t
            .span("core.candidates", || {
                identify_candidates(&work, lib, &timing, &config.activation, &filter)
            })
            .into_iter()
            .filter(|c| !isolated_acts.contains_key(&c.cell) && !pre_excluded.contains(&c.cell))
            .collect();
        t.span("boolex.minimize", || {
            for cand in &mut candidates {
                cand.activation = oiso_boolex::minimize(&cand.activation);
            }
        });
        let rejected: Vec<CellId> = t.span("core.precheck", || {
            candidates
                .iter()
                .filter(|cand| {
                    let budget = NodeBudget::new(DEFAULT_PRECHECK_NODE_BUDGET);
                    precheck_candidate_with_budget(&work, cand.cell, &cand.activation, &budget)
                        .is_some()
                })
                .map(|cand| cand.cell)
                .collect()
        });
        t.count("core.precheck_rejects", rejected.len() as f64);
        candidates.retain(|c| !rejected.contains(&c.cell));
        pre_excluded.extend(rejected);
        if candidates.is_empty() {
            break;
        }

        let mut tb = t
            .span("sim", || Testbench::from_plan(&work, plan))
            .map_err(|e| e.to_string())?;
        let estimator = t.span("core.estimator", || {
            let estimator =
                SavingsEstimator::new(&work, config.estimator, &candidates, &isolated_acts);
            estimator.register_monitors(&mut tb);
            estimator
        });
        let report = t
            .span("sim", || {
                tb.run_with_engine(config.sim_cycles, config.engine)
            })
            .map_err(|e| e.to_string())?;
        count_sim(t, &work, config.sim_cycles);
        let report = Arc::new(report);
        t.span("sim.memo", || {
            memo.deposit(&work, plan, config.sim_cycles, &report)
        });
        let (breakdown, area_now) = t.span("power.estimate", || {
            (pe.estimate(&work, &report), total_area(lib, &work))
        });

        evaluated += candidates.len();
        t.count("core.evaluated", candidates.len() as f64);
        let scores: Vec<(f64, f64)> = t.span("core.score", || {
            let cost_model = CostModel::new(lib, cond, config.weights).with_h_min(config.h_min);
            candidates
                .iter()
                .map(|cand| {
                    let savings = estimator.estimate(&work, &pe, &report, cand.cell);
                    let as_rate = estimator.activation_toggle_rate(&report, cand.cell);
                    let cost = cost_model.isolation_cost(
                        &work,
                        &report,
                        &pe,
                        cand.cell,
                        &cand.activation,
                        config.style,
                        as_rate,
                    );
                    let h = cost_model.h(&savings, &cost, breakdown.total, area_now);
                    (h, savings.total().as_mw())
                })
                .collect()
        });

        // The best candidate per combinational block, ties broken on
        // cell identity, blocks in ascending order.
        let mut by_block: HashMap<usize, Vec<(&Candidate, f64)>> = HashMap::new();
        for (cand, &(h, _)) in candidates.iter().zip(&scores) {
            by_block.entry(cand.block).or_default().push((cand, h));
        }
        let mut blocks: Vec<_> = by_block.into_iter().collect();
        blocks.sort_by_key(|(block, _)| *block);
        let mut winners: Vec<(CellId, BoolExpr)> = Vec::new();
        for (_, mut scored) in blocks {
            scored.sort_by(|a, b| {
                b.1.partial_cmp(&a.1)
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then_with(|| a.0.cell.index().cmp(&b.0.cell.index()))
            });
            let (best, h) = scored[0];
            if h >= config.h_min {
                winners.push((best.cell, best.activation.clone()));
            }
        }
        if winners.is_empty() {
            break;
        }
        t.count("core.accepted", winners.len() as f64);
        for (cell, activation) in winners {
            t.span("core.transform", || {
                isolate_with_cache(&mut work, cell, &activation, config.style, &mut synth_cache)
            })
            .map_err(|e| e.to_string())?;
            isolated_acts.insert(cell, activation);
        }
    }

    let report_final = memo_run(&memo, &work, plan, config, t)?;
    let power_after = t.span("power.estimate", || {
        total_area(lib, &work);
        pe.estimate(&work, &report_final).total
    });
    t.span("timing.sta", || analyze(lib, &work, clock_period));
    Ok(Isolated {
        netlist: work,
        power_before,
        power_after,
        isolated: isolated_acts.len(),
        evaluated,
        text: String::new(),
    })
}

/// Digests of the canonical seed's outcomes.
const PINNED: &str = include_str!("../../pinned/isolate.txt");

/// Runs the workload.
pub fn run(cfg: &RunConfig) -> Outcome {
    let w = IsolateWorkload {
        config: IsolationConfig::default().with_threads(1),
    };
    let run = run_serial(&w, cfg, PINNED);
    outcome(&run, cfg)
}

fn outcome(run: &SerialRun, cfg: &RunConfig) -> Outcome {
    let jobs = run.stats.get("jobs").max(1.0);
    let note = format!(
        "power_reduction_pct {:.4} (mean over {jobs} jobs); isolated {} of {} evaluated",
        run.stats.get("power_reduction_pct") / jobs,
        run.stats.get("isolated"),
        run.stats.get("evaluated")
    );
    Outcome::from_serial(run, cfg, vec![note])
}
