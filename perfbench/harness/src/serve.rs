//! `serve`: one in-process daemon over loopback, first driven open-loop at
//! a fixed rate, then closed-loop.
//!
//! Requests are `simulate`, `isolate` and `verify` calls on the bundled
//! designs. Keys repeat with a Zipf skew over a key set much larger than
//! the daemon's result cache, so hits, misses and evictions all occur;
//! the durable store sits under the cache. The daemon runs its shipped
//! defaults (`ServeConfig::default()`) except for two deployment settings:
//! the worker count and the store directory.
//!
//! The open-loop phase gives the latency: each request is timed from the
//! moment it was due, so a stall also charges the requests queued behind
//! it. The closed-loop phase gives the throughput: both connections send
//! their next request as soon as the last one is answered, so it measures
//! what the daemon can handle rather than the offered rate. Every
//! response of both phases must be 2xx and byte-identical to the body the
//! in-process handler (`ApiRequest::execute`) gives for the same request.

use crate::corpus::derive;
use crate::layers::{per_layer, LayerInput};
use crate::report::{median, Latency, Metrics};
use crate::runner::SETUP_REPEATS;
use crate::trace::Trace;
use crate::{Outcome, RunConfig};
use oiso_designs::BUNDLED_NAMES;
use oiso_serve::api::{ApiRequest, Endpoint};
use oiso_serve::http::Request;
use oiso_serve::testing::{raw_request, Client};
use oiso_serve::{ServeConfig, Server, ServerHandle};
use oiso_sim::SimMemo;
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Requests per second the open-loop generator schedules. An assumption,
/// not a measured production rate: the daemon is busy part of the time,
/// and a request due while both connections are still busy waits on the
/// client side without a backlog building up.
pub const RATE_PER_S: f64 = 40.0;
/// Client connections in flight at once (the box has two cores).
pub const CONNECTIONS: usize = 2;
/// Daemon worker threads: `nproc` on the two-core box the benchmark was
/// sized on. With as many workers as connections no request waits in the
/// queue and nothing is shed (`serve.shed` reads 0); each request still
/// passes through the bounded connection queue.
pub const SERVER_THREADS: usize = 2;
/// Share of the run spent in the open-loop phase; the rest is closed-loop.
const OPEN_SHARE: f64 = 0.4;
/// Requests per second the closed-loop phase is sized for: about what the
/// daemon answers on two cores, so that the phase lasts about its share of
/// the run. The phase sends a fixed number of requests, so a faster daemon
/// finishes it sooner.
const CLOSED_PER_S: f64 = 180.0;
/// Distinct requests: ten rounds of the 96 (endpoint, design, style)
/// combinations, 7.5 times the default 128-entry result cache.
const KEYS: usize = 960;
/// Zipf exponent of key popularity. An assumption, not taken from any
/// measured traffic: a mild skew under which the hot keys hit and the
/// cold tail misses and evicts.
const ZIPF_S: f64 = 1.1;
/// Simulated cycles per request: `loadgen`'s default.
const CYCLES: u64 = 150;
/// Isolation styles an isolate or verify key may ask for.
const STYLES: [&str; 4] = ["and", "or", "latch", "bdd"];
/// Endpoints in the mix.
const PATHS: [(&str, Endpoint); 3] = [
    ("/v1/simulate", Endpoint::Simulate),
    ("/v1/isolate", Endpoint::Isolate),
    ("/v1/verify", Endpoint::Verify),
];

/// The load settings, as fields of the record line.
pub fn load_record() -> String {
    format!(
        "\"serve_rate_per_s\": {RATE_PER_S}, \"serve_connections\": {CONNECTIONS}, \
         \"serve_threads\": {SERVER_THREADS}, \"serial_threads\": 1"
    )
}

/// One distinct request.
struct Key {
    path: &'static str,
    endpoint: Endpoint,
    body: String,
}

/// Where the durable store lives: inside the benchmark's own directory.
fn store_dir() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../.work"))
        .join(format!("serve-store-{}", std::process::id()))
}

struct Setup {
    server: ServerHandle,
    keys: Vec<Key>,
    /// Key ranks of the open-loop requests, in sending order.
    open: Vec<usize>,
    /// Key ranks of the closed-loop requests, in sending order.
    closed: Vec<usize>,
}

/// Spawns a daemon on a fresh store and draws the key set and the
/// requests of both phases.
fn setup(cfg: &RunConfig) -> Setup {
    let dir = store_dir();
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create the store directory");
    let server = Server::spawn(ServeConfig {
        threads: SERVER_THREADS,
        store: Some(dir),
        ..ServeConfig::default()
    })
    .expect("bind a loopback port");
    let health = Client::new(server.addr()).get("/healthz");
    assert_eq!(health.status, 200, "daemon not healthy");

    // Popularity rank r asks endpoint r mod 3 on design (r div 3) mod 8 in
    // style (r div 24) mod 4, so every 96 consecutive ranks hold every
    // (endpoint, design, style) once and every seed offers the same mix at
    // every popularity level; the stimulus seed is drawn per key from the
    // workload seed.
    let keys: Vec<Key> = (0..KEYS)
        .map(|rank| {
            let (path, endpoint) = PATHS[rank % PATHS.len()];
            let design = BUNDLED_NAMES[rank / PATHS.len() % BUNDLED_NAMES.len()];
            let style = STYLES[rank / (PATHS.len() * BUNDLED_NAMES.len()) % STYLES.len()];
            let stimulus = derive(cfg.seed, "serve-key", rank as u64) % 1_000_000;
            let style = match endpoint {
                Endpoint::Simulate => String::new(),
                _ => format!(",\"style\":\"{style}\""),
            };
            Key {
                path,
                endpoint,
                body: format!(
                    "{{\"design\":\"{design}\",\"seed\":{stimulus},\"cycles\":{CYCLES}{style}}}"
                ),
            }
        })
        .collect();
    let weights: Vec<f64> = (1..=KEYS).map(|r| (r as f64).powf(-ZIPF_S)).collect();
    let open_n = (RATE_PER_S * cfg.seconds * OPEN_SHARE).ceil().max(1.0) as usize;
    let closed_n = (CLOSED_PER_S * cfg.seconds * (1.0 - OPEN_SHARE))
        .ceil()
        .max(1.0) as usize;
    Setup {
        server,
        keys,
        open: requests(&weights, open_n, cfg.seed, "serve-open"),
        closed: requests(&weights, closed_n, cfg.seed, "serve-closed"),
    }
}

/// `n` requests over the key ranks in proportion to their popularity
/// `weights`, rounded by largest remainder, in an order shuffled by the
/// seed.
///
/// The multiset of requests is the same on every seed; only the order and
/// the stimulus seeds change. Independent draws let the number of costly
/// cold keys a run happened to draw (`verify` on `soc` takes 200–490 ms,
/// most requests under 5 ms) decide its throughput.
fn requests(weights: &[f64], n: usize, seed: u64, tag: &str) -> Vec<usize> {
    let total: f64 = weights.iter().sum();
    let exact: Vec<f64> = weights.iter().map(|w| w / total * n as f64).collect();
    let mut counts: Vec<usize> = exact.iter().map(|e| e.floor() as usize).collect();
    let short = n.saturating_sub(counts.iter().sum());
    let mut by_remainder: Vec<usize> = (0..weights.len()).collect();
    by_remainder.sort_by(|&a, &b| {
        exact[b]
            .fract()
            .total_cmp(&exact[a].fract())
            .then(a.cmp(&b))
    });
    for &rank in by_remainder.iter().take(short) {
        counts[rank] += 1;
    }
    let mut out: Vec<usize> = counts
        .iter()
        .enumerate()
        .flat_map(|(rank, &c)| std::iter::repeat_n(rank, c))
        .collect();
    for i in (1..out.len()).rev() {
        out.swap(i, (derive(seed, tag, i as u64) % (i as u64 + 1)) as usize);
    }
    out
}

/// One answered request.
struct Sample {
    key: usize,
    latency_ms: f64,
    late_ms: f64,
    status: u16,
    hit: bool,
    body: Result<Vec<u8>, String>,
}

/// Sends `schedule` (key ranks) over [`CONNECTIONS`] connections:
/// open-loop, request `i` due `i / RATE_PER_S` s after the start, or
/// closed-loop, each connection sending its next request as soon as the
/// last one is answered. Returns the samples and the phase's length in s
/// (to the last answer).
fn drive(
    server: &ServerHandle,
    raws: &[Vec<u8>],
    schedule: &[usize],
    open_loop: bool,
) -> (Vec<Sample>, f64) {
    let client = Client::new(server.addr());
    let next = AtomicUsize::new(0);
    let t0 = Instant::now() + Duration::from_millis(20);
    let interval = Duration::from_secs_f64(1.0 / RATE_PER_S);
    let samples: Vec<(Sample, Instant)> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..CONNECTIONS)
            .map(|_| {
                s.spawn(|| {
                    let mut out = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::SeqCst);
                        let Some(&key) = schedule.get(i) else { break };
                        let due = if open_loop {
                            t0 + interval * i as u32
                        } else {
                            Instant::now().max(t0)
                        };
                        if let Some(wait) = due.checked_duration_since(Instant::now()) {
                            std::thread::sleep(wait);
                        }
                        let sent = Instant::now();
                        let resp = client.try_send_raw(&raws[key]);
                        let done = Instant::now();
                        let (status, hit, body) = match resp {
                            Ok(r) => (
                                r.status,
                                r.header("x-oiso-cache") == Some("hit"),
                                Ok(r.body),
                            ),
                            Err(e) => (0, false, Err(e.to_string())),
                        };
                        let sample = Sample {
                            key,
                            latency_ms: (done - due).as_secs_f64() * 1e3,
                            late_ms: (sent - due).as_secs_f64() * 1e3,
                            status,
                            hit,
                            body,
                        };
                        out.push((sample, done));
                    }
                    out
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("client thread"))
            .collect()
    });
    let end = samples.iter().map(|&(_, done)| done).max().unwrap_or(t0);
    let length = end.saturating_duration_since(t0).as_secs_f64();
    (samples.into_iter().map(|(s, _)| s).collect(), length)
}

/// A counter from the metrics page.
fn scrape(page: &str, name: &str) -> f64 {
    page.lines()
        .find_map(|l| l.strip_prefix(name)?.strip_prefix(' ')?.trim().parse().ok())
        .unwrap_or(0.0)
}

/// The in-process handler's answer to `key`, and how long it took.
fn handler(key: &Key) -> (Result<Vec<u8>, String>, f64) {
    let request = Request {
        method: "POST".into(),
        path: key.path.into(),
        headers: Vec::new(),
        body: key.body.clone().into_bytes(),
    };
    let start = Instant::now();
    let out = ApiRequest::parse(key.endpoint, &request)
        .map(|api| api.execute(&SimMemo::new()))
        .map_err(|e| format!("{e:?}"));
    let ms = start.elapsed().as_secs_f64() * 1e3;
    (out.map(|resp| resp.body), ms)
}

/// Runs the workload.
pub fn run(cfg: &RunConfig) -> Outcome {
    let mut setup_times = Vec::with_capacity(SETUP_REPEATS);
    let mut ready = None;
    for i in 0..SETUP_REPEATS {
        let start = Instant::now();
        let s = setup(cfg);
        setup_times.push(start.elapsed().as_secs_f64());
        if i + 1 < SETUP_REPEATS {
            s.server.shutdown();
        } else {
            ready = Some(s);
        }
    }
    let Setup {
        server,
        keys,
        open: open_schedule,
        closed: closed_schedule,
    } = ready.expect("at least one set-up");

    let raws: Vec<Vec<u8>> = keys
        .iter()
        .map(|k| raw_request("POST", k.path, &[], k.body.as_bytes()))
        .collect();
    let (open, _) = drive(&server, &raws, &open_schedule, true);
    let (closed, closed_s) = drive(&server, &raws, &closed_schedule, false);
    let page = Client::new(server.addr())
        .get("/metrics")
        .text()
        .to_string();
    server.shutdown();
    let dir = store_dir();
    let _ = std::fs::remove_dir_all(&dir);
    if let Some(parent) = dir.parent() {
        let _ = std::fs::remove_dir(parent);
    }

    // Check every response against the in-process handler.
    let mut expected: HashMap<usize, (Result<Vec<u8>, String>, f64)> = HashMap::new();
    let mut failures = Vec::new();
    let mut trace = Trace::default();
    let (mut overhead, mut late, mut handler_ms) = (Vec::new(), Vec::new(), Vec::new());
    let mut closed_failed = 0;
    for (n, s) in open.iter().chain(&closed).enumerate() {
        let (want, ms) = expected
            .entry(s.key)
            .or_insert_with(|| handler(&keys[s.key]));
        let key = &keys[s.key];
        if n < open.len() {
            late.push(s.late_ms);
            let handled = if s.hit { 0.0 } else { *ms };
            if !s.hit {
                handler_ms.push(*ms);
                trace.add_ms("serve.handler", *ms);
            }
            overhead.push(s.latency_ms - handled);
        }
        let failure = match (&s.body, &*want) {
            (Err(e), _) => format!("transport: {e}"),
            _ if !(200..300).contains(&s.status) => format!("status {}", s.status),
            (Ok(got), Ok(want)) if got == want => continue,
            _ => "body differs from the in-process handler".to_string(),
        };
        failures.push(format!("{} {}: {failure}", key.path, key.body));
        closed_failed += usize::from(n >= open.len());
    }

    let latencies: Vec<f64> = open.iter().map(|s| s.latency_ms).collect();
    let lat = Latency::of(&latencies);
    let total_ms: f64 = latencies.iter().sum();
    let attempted = open.len() + closed.len();
    let hits = open.iter().chain(&closed).filter(|s| s.hit).count();
    let notes = vec![
        format!(
            "{attempted} requests ({} open-loop at {RATE_PER_S}/s, {} closed-loop over \
             {CONNECTIONS} connections) over {} distinct of {KEYS} keys; {hits} answered \
             from cache or store",
            open.len(),
            closed.len(),
            expected.len(),
        ),
        format!(
            "open-loop latency from due time: p50 {:.3} ms; tail p{} {:.3} ms; \
             generator late p50 {:.3} ms",
            lat.p50,
            lat.tail_pct,
            lat.tail,
            median(&late)
        ),
    ];

    let metrics = if cfg.trace {
        let cache_hits = scrape(&page, "oiso_cache_hits_total");
        let memo_hits = scrape(&page, "oiso_memo_hits_total");
        trace.count("serve.handler_ms", median(&handler_ms));
        trace.count("serve.overhead_ms", median(&overhead));
        trace.count("serve.late_ms", median(&late));
        trace.count("serve.cache_hits", cache_hits);
        trace.count(
            "serve.cache_lookups",
            cache_hits + scrape(&page, "oiso_cache_misses_total"),
        );
        trace.count("serve.memo_hits", memo_hits);
        trace.count(
            "serve.memo_lookups",
            memo_hits + scrape(&page, "oiso_memo_misses_total"),
        );
        trace.count("serve.shed", scrape(&page, "oiso_shed_total"));
        per_layer(&LayerInput {
            trace: &trace,
            stats: &Trace::default(),
            passes: 1.0,
            untraced_ms: total_ms,
            traced_ms: total_ms,
        })
    } else {
        let mut m = Metrics::default();
        m.set("p50_ms", lat.p50, "ms");
        m.set(
            "jobs_per_s",
            (closed.len() - closed_failed) as f64 / closed_s,
            "1/s",
        );
        m.set(
            "ok_ratio",
            1.0 - failures.len() as f64 / attempted as f64,
            "ratio",
        );
        m.set("setup_s", median(&setup_times), "s");
        m.set("peak_rss_mb", crate::report::peak_rss_mb(), "MiB");
        m
    };
    Outcome {
        attempted: attempted as u64,
        failures,
        metrics,
        notes,
        digests: Vec::new(),
    }
}
