//! The serial job loop shared by the `isolate`, `prove` and `analyze`
//! workloads: whole passes over a fixed job list until the run length is
//! spent, every output checked outside the timed region.
//!
//! Latencies and set-up times are on-CPU time of the one thread that runs
//! them ([`cpu_ms`]); the run length is wall clock.

use crate::report::{median, peak_rss_mb, Digest, Latency, Metrics};
use crate::trace::{cpu_ms, Trace};
use crate::RunConfig;
use std::collections::HashMap;
use std::time::Instant;

/// How many times set-up runs; `setup_s` is the median.
pub const SETUP_REPEATS: usize = 15;

/// One named unit of work.
pub struct Job<T> {
    /// Stable name (the key of pinned digests).
    pub name: String,
    /// Its input.
    pub input: T,
    /// Whether its latency enters the end-to-end metrics. Jobs on the
    /// bundled designs do; jobs on seeded random designs are run and
    /// checked in every pass, but their cost changes with the seed by
    /// more than any bound, so their latencies are only recorded.
    pub reference: bool,
}

/// What a serial workload supplies to [`run_serial`].
pub trait Serial {
    /// A job's input.
    type Input;
    /// A job's output.
    type Output;

    /// Builds the job list from the workload seed.
    fn setup(&self, seed: u64) -> Vec<Job<Self::Input>>;

    /// Runs one job untraced; this call is what the latency measures.
    fn run(&self, input: &Self::Input) -> Result<Self::Output, String>;

    /// Checks one output and returns its digest. `stats` gathers the
    /// workload's own result counters (first pass only).
    fn check(
        &self,
        input: &Self::Input,
        out: &Self::Output,
        stats: &mut Trace,
    ) -> Result<u64, String>;

    /// Runs one job again through spans around each layer's public
    /// calls; its output must check to the same digest as [`Serial::run`].
    fn traced(&self, input: &Self::Input, trace: &mut Trace) -> Result<Self::Output, String>;

    /// Back-to-back runs that make one latency sample of a reference job
    /// (their median). More than one filters bursts of host noise shorter
    /// than a job out of a workload of short jobs.
    const REPEATS: usize = 1;

    /// A short per-job record of a first-pass output.
    fn describe(&self, _input: &Self::Input, _out: &Self::Output) -> String {
        String::new()
    }
}

/// Everything one serial run measured.
pub struct SerialRun {
    /// Jobs attempted (every pass).
    pub attempted: u64,
    /// Jobs that errored or failed a check.
    pub failures: Vec<String>,
    /// Untraced on-CPU latencies in ms, per reference job.
    pub reference_ms: Vec<Vec<f64>>,
    /// Names of the reference jobs, in the order of `reference_ms`.
    pub reference_names: Vec<String>,
    /// Untraced first-pass latencies of the seeded random jobs in ms.
    pub random_ms: Vec<f64>,
    /// Passes over the reference jobs.
    pub passes: usize,
    /// On-CPU set-up times in s.
    pub setup_s: Vec<f64>,
    /// Peak RSS after set-up and the first pass over the reference jobs.
    pub rss_mb: f64,
    /// First-pass digest per job name.
    pub digests: Vec<(String, u64)>,
    /// Result counters of the first pass.
    pub stats: Trace,
    /// Spans and counters of the traced replays (traced runs only).
    pub trace: Trace,
    /// Sum of untraced job times in ms paired with the traced replays.
    pub untraced_ms: f64,
    /// Sum of traced replay times in ms.
    pub traced_ms: f64,
}

impl SerialRun {
    /// The end-to-end metrics of a serial workload.
    ///
    /// `p50_ms` is the geometric mean over the reference jobs of each
    /// job's median latency: a median pooled over a handful of designs of
    /// very different cost would sit on the boundary between two designs
    /// and jump between them from run to run. The pooled tail is a record
    /// line, not a metric (see `perfbench/README.md`).
    pub fn end_to_end(&self, metrics: &mut Metrics) {
        let medians: Vec<f64> = self.reference_ms.iter().map(|s| median(s)).collect();
        let log_mean = medians.iter().map(|m| m.ln()).sum::<f64>() / medians.len() as f64;
        metrics.set("p50_ms", log_mean.exp(), "ms");
        metrics.set(
            "jobs_per_s",
            medians.len() as f64 * 1e3 / medians.iter().sum::<f64>(),
            "1/s",
        );
        metrics.set(
            "ok_ratio",
            1.0 - self.failures.len().min(self.attempted as usize) as f64 / self.attempted as f64,
            "ratio",
        );
        metrics.set("setup_s", median(&self.setup_s), "s");
        metrics.set("peak_rss_mb", self.rss_mb, "MiB");
    }

    /// Human-readable record lines.
    pub fn notes(&self) -> Vec<String> {
        let lat = Latency::of(&self.reference_ms.concat());
        let mut notes = vec![format!(
            "reference jobs: {} x {} passes = {} samples; pooled p50 {:.3} ms; tail p{} {:.3} ms",
            self.reference_ms.len(),
            self.passes,
            lat.samples,
            lat.p50,
            lat.tail_pct,
            lat.tail
        )];
        let per_job: Vec<String> = self
            .reference_names
            .iter()
            .zip(&self.reference_ms)
            .map(|(name, ms)| format!("{name} {:.3}", median(ms)))
            .collect();
        notes.push(format!(
            "reference job medians (ms): {}",
            per_job.join(", ")
        ));
        if !self.random_ms.is_empty() {
            let r = Latency::of(&self.random_ms);
            notes.push(format!(
                "seeded random jobs (first pass, recorded only): {} samples; p50 {:.3} ms; max {:.3} ms",
                r.samples,
                r.p50,
                self.random_ms.iter().copied().fold(0.0, f64::max)
            ));
        }
        notes
    }
}

/// A run keeps passing over the reference jobs until it has measured for
/// the run length and holds at least this many reference samples, so the
/// tail is never taken from fewer than 64 samples (p75 or higher). Only
/// `analyze`, whose 16 reference jobs take about 6 s a pass, reaches the
/// run length with fewer.
pub const MIN_REFERENCE_SAMPLES: usize = 64;

/// Runs passes over the workload's jobs until `cfg.seconds` have elapsed
/// and [`MIN_REFERENCE_SAMPLES`] reference latencies are in. The first
/// pass runs every job, reference jobs first; later passes of an
/// untraced run repeat only the reference jobs, while a traced run
/// replays every job of every pass through [`Serial::traced`] right after
/// its untraced run. Every output is checked; reference outputs against
/// their first-pass digest, and against `pinned` (`name digest-hex`
/// lines) on every seed, seeded random outputs against `pinned` on the
/// canonical seed.
pub fn run_serial<W: Serial>(w: &W, cfg: &RunConfig, pinned: &str) -> SerialRun {
    let mut setup_times = Vec::with_capacity(SETUP_REPEATS);
    let mut jobs = Vec::new();
    for _ in 0..SETUP_REPEATS {
        let start = cpu_ms();
        jobs = std::hint::black_box(w.setup(cfg.seed));
        setup_times.push((cpu_ms() - start) / 1e3);
    }
    let reference: Vec<usize> = (0..jobs.len()).filter(|&i| jobs[i].reference).collect();
    let random: Vec<usize> = (0..jobs.len()).filter(|&i| !jobs[i].reference).collect();
    let slot: HashMap<usize, usize> = reference.iter().enumerate().map(|(k, &i)| (i, k)).collect();

    let mut run = SerialRun {
        attempted: 0,
        failures: Vec::new(),
        reference_ms: vec![Vec::new(); reference.len()],
        reference_names: reference.iter().map(|&i| jobs[i].name.clone()).collect(),
        random_ms: Vec::new(),
        passes: 0,
        setup_s: setup_times,
        rss_mb: 0.0,
        digests: Vec::new(),
        stats: Trace::default(),
        trace: Trace::default(),
        untraced_ms: 0.0,
        traced_ms: 0.0,
    };
    let mut first: HashMap<usize, u64> = HashMap::new();
    let mut order = shuffled(&reference, cfg.seed);
    let reference_per_pass = order.len();
    order.extend(shuffled(&random, cfg.seed ^ 1));
    let start = Instant::now();
    while run.passes == 0
        || start.elapsed().as_secs_f64() < cfg.seconds
        || (!cfg.trace && run.passes * reference_per_pass < MIN_REFERENCE_SAMPLES)
    {
        let first_pass = run.passes == 0;
        let mut scratch = Trace::default();
        let todo = if first_pass || cfg.trace {
            &order[..]
        } else {
            &order[..reference_per_pass]
        };
        for (n, &i) in todo.iter().enumerate() {
            if first_pass && n == reference_per_pass {
                run.rss_mb = peak_rss_mb();
            }
            let job = &jobs[i];
            run.attempted += 1;
            let repeats = if job.reference && !cfg.trace {
                W::REPEATS
            } else {
                1
            };
            let mut times = Vec::with_capacity(repeats);
            let mut out = Err(String::new());
            for _ in 0..repeats {
                let t0 = cpu_ms();
                out = w.run(&job.input);
                times.push(cpu_ms() - t0);
            }
            let ms = median(&times);
            match slot.get(&i) {
                Some(&k) => run.reference_ms[k].push(ms),
                None => run.random_ms.push(ms),
            }
            let stats = if first_pass {
                &mut run.stats
            } else {
                &mut scratch
            };
            if first_pass {
                let what = match &out {
                    Ok(o) => w.describe(&job.input, o),
                    Err(e) => format!("error: {e}"),
                };
                println!("# job {} {ms:.3} ms {what}", job.name);
            }
            let digest = match out.and_then(|o| w.check(&job.input, &o, stats)) {
                Ok(d) => d,
                Err(e) => {
                    run.failures.push(format!("{}: {e}", job.name));
                    continue;
                }
            };
            match first.get(&i) {
                None => {
                    first.insert(i, digest);
                }
                Some(&d) if d != digest => {
                    run.failures
                        .push(format!("{}: output differs between passes", job.name));
                    continue;
                }
                Some(_) => {}
            }
            if cfg.trace {
                run.untraced_ms += ms;
                let t1 = cpu_ms();
                let replay = w.traced(&job.input, &mut run.trace);
                run.traced_ms += cpu_ms() - t1;
                match replay.and_then(|o| w.check(&job.input, &o, &mut scratch)) {
                    Ok(d) if d == digest => {}
                    Ok(_) => run.failures.push(format!(
                        "{}: traced replay differs from the untraced run",
                        job.name
                    )),
                    Err(e) => run.failures.push(format!("{} (traced): {e}", job.name)),
                }
            }
        }
        if first_pass && random.is_empty() {
            run.rss_mb = peak_rss_mb();
        }
        run.passes += 1;
    }

    let pins: HashMap<&str, &str> = pinned.lines().filter_map(|l| l.split_once(' ')).collect();
    for (i, job) in jobs.iter().enumerate() {
        let Some(&digest) = first.get(&i) else {
            continue;
        };
        run.digests.push((job.name.clone(), digest));
        if job.reference || cfg.seed == crate::CANONICAL_SEED {
            let want = pins.get(job.name.as_str()).copied();
            if want != Some(format!("{digest:016x}").as_str()) {
                run.failures.push(format!(
                    "{}: digest {digest:016x} differs from the pinned {}",
                    job.name,
                    want.unwrap_or("(none)")
                ));
            }
        }
    }
    run
}

/// A seeded shuffle of `items`.
fn shuffled(items: &[usize], seed: u64) -> Vec<usize> {
    let mut order = items.to_vec();
    let mut state = seed ^ 0x9E37_79B9_7F4A_7C15;
    for i in (1..order.len()).rev() {
        state = crate::corpus::splitmix(state);
        order.swap(i, (state % (i as u64 + 1)) as usize);
    }
    order
}

/// The digest of a job's named numbers.
pub fn digest_of(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut d = Digest::default();
    for w in words {
        d.eat(w);
    }
    d.0
}
