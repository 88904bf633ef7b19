//! The `serve` workload: the shipped `linguist router` in front of two
//! `linguist serve --workers 1` shards on loopback TCP.
//!
//! Traffic is open-loop at a fixed offered rate over two connections.
//! Each request is timed from its scheduled send, so a stall also counts
//! against the requests queued behind it; how late the generator sent is
//! reported. Half the requests translate by handle (store reads); the
//! other half load a fresh grammar variant (a store write that compiles,
//! and evicts once the variants outnumber the cache). Each connection
//! alternates the two kinds.

use crate::inproc::{check_outputs, cli_config, latency, source_and_scanner};
use crate::inputs::{self, Case, Rng, CASES_PER_CLASS};
use crate::metrics::{peak_rss_mb, Outcome};
use crate::stats;
use crate::trace::{self, Tracer};
use linguist_serve::client::Client;
use linguist_support::json::Json;
use std::io::{BufRead, BufReader};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Offered load, requests per second over both connections: about half
/// of what two connections sustain at today's round trip through the
/// router (about 90 ms).
const RATE: f64 = 11.0;
/// Connections the generator uses.
const CONNECTIONS: usize = 2;
/// Latency limit for goodput.
const LIMIT_MS: f64 = 250.0;
/// Distinct grammar variants the loads cycle through; more than a
/// shard's 16-entry cache holds.
const VARIANTS: usize = 48;
/// Tier start-ups timed for `setup_s`.
const SETUPS: usize = 5;
/// Round trips per grammar in the traced router-hop probe.
const HOP_PAIRS: usize = 6;

fn request(fields: Vec<(&str, Json)>) -> Json {
    Json::Obj(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// One `linguist` process and the address it listens on.
struct Proc {
    child: Child,
    addr: String,
    drain: Option<JoinHandle<()>>,
}

impl Proc {
    /// Spawn `linguist <args> --tcp 127.0.0.1:0` and read the bound
    /// address from its log, waiting at most ten seconds.
    fn spawn(linguist: &Path, args: &[&str]) -> Result<Proc, String> {
        let mut child = Command::new(linguist)
            .args(args)
            .args(["--tcp", "127.0.0.1:0"])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", linguist.display()))?;
        let stderr = child.stderr.take().expect("piped stderr");
        let (tx, rx) = std::sync::mpsc::channel();
        // Read the log to its end, so the process never blocks on the
        // pipe; the first address line goes back to the caller.
        let drain = std::thread::spawn(move || {
            for line in BufReader::new(stderr).lines().map_while(Result::ok) {
                if let Some(a) = line.split("listening on tcp ").nth(1) {
                    let _ = tx.send(a.trim().to_string());
                }
            }
        });
        let mut proc = Proc {
            child,
            addr: String::new(),
            drain: Some(drain),
        };
        match rx.recv_timeout(Duration::from_secs(10)) {
            Ok(addr) => {
                proc.addr = addr;
                Ok(proc)
            }
            // Dropping `proc` kills and reaps the process.
            Err(_) => Err(format!("linguist {} never reported its address", args[0])),
        }
    }

    fn client(&self) -> Result<Client, String> {
        let mut c =
            Client::connect_tcp(&self.addr).map_err(|e| format!("connect {}: {e}", self.addr))?;
        c.set_timeouts(Some(Duration::from_secs(20)))
            .map_err(|e| e.to_string())?;
        Ok(c)
    }

    /// Ask the process to shut down and wait for it; kill it if it does
    /// not exit within five seconds.
    fn stop(mut self) {
        if let Ok(mut c) = self.client() {
            let _ = c.shutdown();
        }
        let until = Instant::now() + Duration::from_secs(5);
        while Instant::now() < until {
            if let Ok(Some(_)) = self.child.try_wait() {
                break;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        self.reap();
    }

    fn reap(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
        if let Some(d) = self.drain.take() {
            let _ = d.join();
        }
    }
}

impl Drop for Proc {
    fn drop(&mut self) {
        self.reap();
    }
}

/// Two shards and a router, with the four grammars preloaded.
struct Tier {
    shards: Vec<Proc>,
    router: Proc,
    handles: Vec<String>,
}

impl Tier {
    /// Start the tier, wait until every process answers, preload the
    /// grammars and warm each with one translation.
    fn start(linguist: &Path, cases: &[(&str, Vec<Case>)]) -> Result<Tier, String> {
        let shards = (0..2)
            .map(|_| Proc::spawn(linguist, &["serve", "--workers", "1"]))
            .collect::<Result<Vec<_>, _>>()?;
        let mut args = vec!["router".to_string()];
        for s in &shards {
            args.push("--shard".into());
            args.push(format!("tcp:{}", s.addr));
        }
        let args: Vec<&str> = args.iter().map(String::as_str).collect();
        let router = Proc::spawn(linguist, &args)?;
        for p in shards.iter().chain([&router]) {
            let reply = p.client()?.ping().map_err(|e| e.to_string())?;
            if !ok(&reply) {
                return Err(format!("{} did not answer ping: {reply}", p.addr));
            }
        }
        let mut c = router.client()?;
        let mut handles = Vec::new();
        for (name, cases) in cases {
            let (source, _) = source_and_scanner(name);
            let reply = c
                .load_grammar(source, Some(name), Some(name))
                .map_err(|e| e.to_string())?;
            let handle = reply
                .get("grammar")
                .and_then(Json::as_str)
                .ok_or(format!("load {name}: {reply}"))?
                .to_string();
            let reply = c
                .translate_input(&handle, &cases[0].text, None)
                .map_err(|e| e.to_string())?;
            if !ok(&reply) {
                return Err(format!("warm-up translate {name}: {reply}"));
            }
            handles.push(handle);
        }
        Ok(Tier {
            shards,
            router,
            handles,
        })
    }

    fn stop(self) {
        let Tier { shards, router, .. } = self;
        router.stop();
        for s in shards {
            s.stop();
        }
    }

    fn peak_rss_mb(&self) -> f64 {
        self.shards
            .iter()
            .chain([&self.router])
            .filter_map(|p| peak_rss_mb(p.child.id()))
            .sum()
    }
}

fn ok(reply: &Json) -> bool {
    reply.get("ok").and_then(Json::as_bool) == Some(true)
}

fn num(reply: &Json, key: &str) -> f64 {
    reply.get(key).and_then(Json::as_f64).unwrap_or(0.0)
}

/// What the schedule asks for at one slot.
enum Work {
    Translate { lang: usize, case: usize },
    Load { variant: usize },
}

fn schedule(n: usize, langs: usize) -> Vec<Work> {
    let (mut t, mut l) = (0usize, 0usize);
    (0..n)
        .map(|i| {
            if (i / CONNECTIONS) % 2 == 1 {
                l += 1;
                Work::Load {
                    variant: (l - 1) % VARIANTS,
                }
            } else {
                t += 1;
                Work::Translate {
                    lang: (t - 1) % langs,
                    case: (t - 1) / langs,
                }
            }
        })
        .collect()
}

/// In the traced run, slots alternate in blocks of four (two of each
/// kind) between traced and untraced; the untraced ones are the
/// baseline for the tracing overhead.
fn traced_slot(slot: usize) -> bool {
    (slot / (2 * CONNECTIONS)).is_multiple_of(2)
}

/// One finished request.
struct Sample {
    slot: usize,
    sent: Duration,
    done: Duration,
    reply: Result<Json, String>,
}

fn stat_i(j: &Json, path: &[&str]) -> f64 {
    let mut cur = j;
    for k in path {
        match cur.get(k) {
            Some(v) => cur = v,
            None => return 0.0,
        }
    }
    cur.as_f64().unwrap_or(0.0)
}

/// Store, pool and routing counters summed over the tier.
#[derive(Default, Clone, Copy)]
struct TierCounters {
    hits: f64,
    misses: f64,
    evictions: f64,
    rejected: f64,
    routed: f64,
    attempts: f64,
    failovers: f64,
}

fn counters(tier: &Tier) -> Result<TierCounters, String> {
    let mut c = TierCounters::default();
    for s in &tier.shards {
        let st = s.client()?.stats().map_err(|e| e.to_string())?;
        c.hits += stat_i(&st, &["cache", "hits"]);
        c.misses += stat_i(&st, &["cache", "misses"]);
        c.evictions += stat_i(&st, &["cache", "evictions"]);
        c.rejected += stat_i(&st, &["queue", "rejected"]);
    }
    let st = tier.router.client()?.stats().map_err(|e| e.to_string())?;
    c.routed = stat_i(&st, &["requests", "routed"]);
    c.failovers = stat_i(&st, &["requests", "failovers"]);
    c.attempts = st
        .get("shards")
        .and_then(Json::as_arr)
        .map_or(0.0, |a| a.iter().map(|s| stat_i(s, &["requests"])).sum());
    Ok(c)
}

pub fn run(
    linguist: &Path,
    seed: u64,
    seconds: f64,
    traced: bool,
    out: &mut Outcome,
) -> Result<(), String> {
    let cases = inputs::translate_cases(seed, CASES_PER_CLASS, &inputs::SERVE);
    let mut rng = Rng::new(seed, 20);
    let variants: Vec<String> = (0..VARIANTS)
        .map(|k| {
            let attrs = rng.range(3, 6);
            let prods = rng.range(4, 10);
            inputs::synth_source(
                &format!("V{k}"),
                inputs::synth_params(&mut rng, attrs, prods),
            )
        })
        .collect();

    let mut setups = Vec::new();
    let mut tier = None;
    for _ in 0..if traced { 1 } else { SETUPS } {
        let t = Instant::now();
        let started = Tier::start(linguist, &cases)?;
        setups.push(t.elapsed().as_secs_f64());
        if let Some(old) = tier.replace(started) {
            Tier::stop(old);
        }
    }
    let tier = tier.expect("at least one start-up");

    let before = counters(&tier)?;
    let slots = schedule((seconds * RATE).floor() as usize, cases.len());
    let (mut samples, tracer) = drive(&tier, &slots, &cases, &variants, traced)?;
    samples.sort_by_key(|s| s.slot);
    let after = counters(&tier)?;

    // Check every reply and split latencies by class.
    let mut lat: [Vec<f64>; 2] = [Vec::new(), Vec::new()];
    let (mut good, mut last_done) = (0usize, Duration::ZERO);
    let (mut rtt, mut job, mut queue, mut compile, mut late) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for s in &samples {
        let due = Duration::from_secs_f64(s.slot as f64 / RATE);
        let latency_ms = (s.done.saturating_sub(due)).as_secs_f64() * 1e3;
        late.push(s.sent.saturating_sub(due).as_secs_f64() * 1e3);
        last_done = last_done.max(s.done);
        let class = matches!(slots[s.slot], Work::Load { .. }) as usize;
        lat[class].push(latency_ms);
        let verdict = match (&s.reply, &slots[s.slot]) {
            (Err(e), _) => Err(e.clone()),
            (Ok(r), _) if !ok(r) => Err(format!("error reply {r}")),
            (Ok(r), Work::Translate { lang, case }) => {
                rtt.push((s.done - s.sent).as_secs_f64() * 1e3);
                let q = num(r, "queue_ms");
                queue.push(q);
                job.push(num(r, "wall_ms") - q);
                let cs = &cases[*lang].1;
                check_outputs(&cs[case % cs.len()].expect, |name| {
                    r.get("outputs")?.get(name)?.as_str().map(str::to_string)
                })
            }
            (Ok(r), Work::Load { .. }) => {
                compile.push(num(r, "compile_ms"));
                match r.get("grammar").and_then(Json::as_str) {
                    Some(h) if !h.is_empty() => Ok(()),
                    _ => Err(format!("load reply has no handle: {r}")),
                }
            }
        };
        match verdict {
            Ok(()) if latency_ms <= LIMIT_MS => {
                good += 1;
                out.record(None);
            }
            Ok(()) => out.record(None),
            Err(e) => out.record(Some(format!("request {}: {e}", s.slot))),
        }
    }

    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    if traced {
        let hop = router_hop(&tier, &cases)?;
        out.put(
            "serve.router_hop_ms",
            hop.0,
            hop.1,
            "median via router minus median direct to the owning shard",
        );
        let by = trace::self_time_by_name(tracer.spans());
        let per = |name: &str| {
            by.get(name)
                .map_or((0.0, 0), |(ns, n)| (*ns as f64 / 1e6, *n as usize))
        };
        let traced_reqs = per("request").1;
        let (json_ms, _) = per("support.json");
        out.put(
            "support.json_ms",
            json_ms / traced_reqs.max(1) as f64,
            traced_reqs,
            "request encode plus reply parse, per request",
        );
        let (rtt_m, job_m, queue_m) = (mean(&rtt), mean(&job), mean(&queue));
        out.put(
            "serve.rtt_ms",
            rtt_m,
            rtt.len(),
            "translate round trip, send to reply, mean",
        );
        out.put(
            "serve.job_ms",
            job_m,
            job.len(),
            "reply wall_ms minus queue_ms, mean",
        );
        out.put(
            "serve.queue_ms",
            queue_m,
            queue.len(),
            "reply queue_ms, mean",
        );
        out.put(
            "serve.transport_ms",
            rtt_m - job_m - queue_m,
            rtt.len(),
            "rtt minus job minus queue",
        );
        out.put(
            "serve.load_compile_ms",
            mean(&compile),
            compile.len(),
            "load_grammar reply compile_ms, mean",
        );
        let d = |f: fn(&TierCounters) -> f64| f(&after) - f(&before);
        let (hits, misses) = (d(|c| c.hits), d(|c| c.misses));
        out.put(
            "serve.store_hit_ratio",
            hits / (hits + misses).max(1.0),
            (hits + misses) as usize,
            "shard store hits over lookups",
        );
        out.put(
            "serve.store_evictions",
            d(|c| c.evictions),
            samples.len(),
            "shard store evictions during the run",
        );
        out.put(
            "serve.pool_rejected",
            d(|c| c.rejected),
            samples.len(),
            "jobs the shard pools refused",
        );
        out.put(
            "serve.router_attempts_per_request",
            d(|c| c.attempts) / d(|c| c.routed).max(1.0),
            d(|c| c.routed) as usize,
            "shard attempts per routed request",
        );
        out.put(
            "serve.router_failovers",
            d(|c| c.failovers),
            samples.len(),
            "router failovers during the run",
        );
        out.put(
            "serve.gen_lateness_ms",
            mean(&late),
            late.len(),
            "send time minus scheduled time, mean",
        );
        // Traced requests against the untraced ones between them.
        let (mut tr, mut un) = (Vec::new(), Vec::new());
        for s in &samples {
            let d = (s.done - s.sent).as_secs_f64() * 1e3;
            if traced_slot(s.slot) {
                tr.push(d)
            } else {
                un.push(d)
            }
        }
        let (t, u) = (mean(&tr), mean(&un));
        out.put(
            "trace.overhead_ms",
            t - u,
            tr.len(),
            format!("traced {t:.4} ms minus untraced {u:.4} ms per request"),
        );
        out.put(
            "trace.overhead_share",
            (t - u) / u,
            tr.len(),
            "of the untraced request",
        );
        out.put(
            "trace.uncovered_share",
            trace::uncovered_share(tracer.spans(), "request"),
            traced_reqs,
            "request wall time no layer span covers",
        );
    } else {
        out.put(
            "setup_s",
            stats::median(&setups),
            setups.len(),
            "median tier start-up: spawn, ready, preload, warm",
        );
        // The schedule fixes the sample count, so no design size applies.
        let n = latency(out, &["translate", "load"], &lat, usize::MAX);
        let span_s = last_done.as_secs_f64().max(1e-9);
        out.put(
            "throughput",
            good as f64 / span_s,
            n,
            format!("ok replies within {LIMIT_MS} ms per second, offered {RATE} rps"),
        );
        out.put(
            "peak_rss_mb",
            tier.peak_rss_mb(),
            3,
            "VmHWM summed over two shards and the router",
        );
        let code: usize = cases
            .iter()
            .map(|(n, _)| {
                let a = linguist_frontend::analyze(source_and_scanner(n).0, &cli_config())
                    .expect("bundled grammar compiles");
                linguist_codegen::rustgen::rust_source(&a).len()
            })
            .sum();
        out.put(
            "code_bytes",
            code as f64,
            cases.len(),
            "rust_source bytes for the preloaded grammars",
        );
        let lateness = stats::median(&late);
        println!(
            "  generator lateness: median {lateness:.4} ms over {} sends",
            late.len()
        );
    }
    tier.stop();
    Ok(())
}

/// Send every slot of the schedule through the router on `CONNECTIONS`
/// connections, each request at its due time (or as soon as its
/// connection is free). In the traced run every other block of requests
/// is traced.
fn drive(
    tier: &Tier,
    slots: &[Work],
    cases: &[(&str, Vec<Case>)],
    variants: &[String],
    traced: bool,
) -> Result<(Vec<Sample>, Tracer), String> {
    let t0 = Instant::now() + Duration::from_millis(20);
    let request_for = |slot: usize| -> Json {
        match slots[slot] {
            Work::Translate { lang, case } => {
                let cs = &cases[lang].1;
                request(vec![
                    ("op", Json::str("translate")),
                    ("grammar", Json::str(&tier.handles[lang])),
                    ("input", Json::str(&cs[case % cs.len()].text)),
                ])
            }
            Work::Load { variant } => request(vec![
                ("op", Json::str("load_grammar")),
                ("source", Json::str(&variants[variant])),
                ("name", Json::str(&format!("V{variant}"))),
            ]),
        }
    };
    let results: Vec<Result<(Vec<Sample>, Tracer), String>> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..CONNECTIONS)
            .map(|c| {
                let request_for = &request_for;
                s.spawn(move || -> Result<(Vec<Sample>, Tracer), String> {
                    let mut client = tier.router.client()?;
                    let mut tracer = Tracer::new();
                    let mut samples = Vec::new();
                    for slot in (c..slots.len()).step_by(CONNECTIONS) {
                        let due = t0 + Duration::from_secs_f64(slot as f64 / RATE);
                        if let Some(wait) = due.checked_duration_since(Instant::now()) {
                            std::thread::sleep(wait);
                        }
                        let req = request_for(slot);
                        let sent = t0.elapsed();
                        let reply = if traced && traced_slot(slot) {
                            tracer.span("request", slot as u64, |t| {
                                let line = t.span("support.json", slot as u64, |_| req.to_string());
                                let reply =
                                    t.span("serve.rtt", slot as u64, |_| client.roundtrip(&req));
                                if let Ok(r) = &reply {
                                    let text = r.to_string();
                                    let parsed =
                                        t.span("support.json", slot as u64, |_| Json::parse(&text));
                                    std::hint::black_box((line, parsed.is_ok()));
                                }
                                reply
                            })
                        } else {
                            client.roundtrip(&req)
                        };
                        samples.push(Sample {
                            slot,
                            sent,
                            done: t0.elapsed(),
                            reply: reply.map_err(|e| e.to_string()),
                        });
                    }
                    Ok((samples, tracer))
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| {
                w.join()
                    .unwrap_or_else(|_| Err("generator thread panicked".into()))
            })
            .collect()
    });
    let mut samples = Vec::new();
    let mut tracer = Tracer::new();
    for r in results {
        let (s, t) = r?;
        samples.extend(s);
        tracer.merge(t);
    }
    Ok((samples, tracer))
}

/// Median round trip through the router minus median round trip sent
/// straight to the shard that owns the grammar, over the same requests.
fn router_hop(tier: &Tier, cases: &[(&str, Vec<Case>)]) -> Result<(f64, usize), String> {
    let mut via = tier.router.client()?;
    let mut direct: Vec<Client> = tier
        .shards
        .iter()
        .map(Proc::client)
        .collect::<Result<_, _>>()?;
    let (mut r, mut d) = (Vec::new(), Vec::new());
    for (lang, handle) in tier.handles.iter().enumerate() {
        let input = &cases[lang].1[0].text;
        let owner = (0..direct.len())
            .find(|&k| {
                direct[k]
                    .translate_input(handle, input, None)
                    .is_ok_and(|j| ok(&j))
            })
            .ok_or(format!("no shard holds {handle}"))?;
        for _ in 0..HOP_PAIRS {
            let t = Instant::now();
            via.translate_input(handle, input, None)
                .map_err(|e| e.to_string())?;
            r.push(t.elapsed().as_secs_f64() * 1e3);
            let t = Instant::now();
            direct[owner]
                .translate_input(handle, input, None)
                .map_err(|e| e.to_string())?;
            d.push(t.elapsed().as_secs_f64() * 1e3);
        }
    }
    Ok((stats::median(&r) - stats::median(&d), r.len()))
}
