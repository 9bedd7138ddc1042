//! End-to-end LotusX benchmark.
//!
//! ```text
//! lotusx-perfbench --workload complete|twig|keyword --seed N --seconds S
//!                  --trace 0|1 --server PATH --work-dir DIR
//! ```
//!
//! Writes the two corpora to XML, starts `lotusx-serve --routes` on them
//! as a child process, drives one workload over keep-alive connections
//! from one client thread, checks every response byte for byte against
//! an in-process oracle, and prints a report whose last line is one JSON
//! object. `--trace 0` reports the end-to-end metrics; `--trace 1` runs
//! the server with its access log and replays the stream in process with
//! spans, reporting the per-layer metrics. `run.sh` builds both binaries
//! and supplies `--server` and `--work-dir`. See README.md for the
//! workloads and every metric.

mod gen;
mod net;
mod oracle;
mod replay;
mod server;
mod stats;

use gen::{Op, Request, Stream, Workload, DBLP, TENANTS};
use lotusx::{CorpusSource, LotusX};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Server boots per untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 9;
/// Repetitions of the in-process set-up layers; each reports its median.
const SETUP_LAYER_REPS: usize = 3;
/// Closed-loop streams hold this many requests per second of run, far
/// more than the server completes.
const CLOSED_LOOP_PER_SECOND: usize = 5000;
/// Answers a closed-loop run collects at least, so p99 has ten samples
/// beyond it.
const MIN_TAIL_SAMPLES: usize = 1000;
/// `/metrics` scrapes timed after a closed-loop run.
const CLOSED_LOOP_SCRAPES: usize = 5;
/// Stated bounds of the traced run's reconciliation checks.
const CORE_RESIDUAL_BOUND: f64 = 0.25;
const SERVE_OVERLAP_BOUND: f64 = 0.02;
const OVERHEAD_NS_PER_SPAN_BOUND: f64 = 1000.0;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    server: PathBuf,
    work_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut server = None;
    let mut work_dir = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload =
                    Some(Workload::parse(&name).ok_or(format!("unknown workload {name:?}"))?);
            }
            "--seed" => seed = Some(value()?.parse().map_err(|_| "bad --seed")?),
            "--seconds" => seconds = Some(value()?.parse().map_err(|_| "bad --seconds")?),
            "--trace" => trace = value()? == "1",
            "--server" => server = Some(PathBuf::from(value()?)),
            "--work-dir" => work_dir = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds
            .filter(|&s| s > 0)
            .ok_or("--seconds must be positive")?,
        trace,
        server: server.ok_or("--server is required")?,
        work_dir: work_dir.ok_or("--work-dir is required")?,
    })
}

/// Metrics in report order: name → (value, unit).
#[derive(Default)]
struct Metrics(BTreeMap<&'static str, (f64, &'static str)>);

impl Metrics {
    fn set(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.0.insert(name, (value, unit));
    }

    fn json(&self) -> String {
        let items: Vec<String> = self
            .0
            .iter()
            .map(|(name, (v, unit))| {
                let v = if v.is_finite() { *v } else { 0.0 };
                format!("\"{name}\":{{\"value\":{v},\"unit\":\"{unit}\"}}")
            })
            .collect();
        format!("{{{}}}", items.join(","))
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

struct Corpus {
    name: String,
    xml_path: PathBuf,
}

/// Writes each corpus to an XML file (not timed).
fn write_corpora(dir: &Path) -> Result<Vec<Corpus>, String> {
    TENANTS
        .iter()
        .map(|&(name, dataset, scale)| {
            let xml = lotusx_datagen::generate(dataset, scale, gen::CORPUS_SEED).to_xml();
            let xml_path = dir.join(format!("{name}.xml"));
            std::fs::write(&xml_path, xml).map_err(|e| format!("writing {name}.xml: {e}"))?;
            Ok(Corpus {
                name: name.to_string(),
                xml_path,
            })
        })
        .collect()
}

fn open_engines(corpora: &[Corpus]) -> Result<Vec<LotusX>, String> {
    corpora
        .iter()
        .map(|c| {
            LotusX::open(&CorpusSource::XmlFile(c.xml_path.clone()))
                .map_err(|e| format!("opening {}: {e}", c.name))
        })
        .collect()
}

fn make_stream(
    workload: Workload,
    facts: &gen::CorpusFacts,
    seed: u64,
    seconds: u64,
    conns: usize,
) -> Stream {
    let closed_len = CLOSED_LOOP_PER_SECOND * seconds as usize;
    match workload {
        Workload::Complete => gen::complete_stream(facts, seed, seconds, conns),
        Workload::Twig => gen::twig_stream(facts, seed, closed_len),
        Workload::Keyword => gen::keyword_stream(facts, seed, closed_len),
    }
}

/// Everything the timed phase produced.
struct Served {
    outcome: net::Outcome,
    setups: Vec<f64>,
    rss_mb: f64,
    /// `/stats` bodies bracketing the timed phase.
    stats_before: Vec<u8>,
    stats_after: Vec<u8>,
    /// Client-seen `/metrics` scrapes: (latency µs, body bytes).
    scrapes: Vec<(f64, f64)>,
}

fn serve(
    args: &Args,
    routes: &Path,
    stream: &Stream,
    threads: usize,
    conns: usize,
    access_log: Option<&Path>,
) -> Result<Served, String> {
    let reps = if args.trace { 1 } else { SETUP_REPS };
    let mut setups = Vec::with_capacity(reps);
    let mut server = None;
    for i in 0..reps {
        let s = server::Server::start(&args.server, routes, threads, access_log)?;
        setups.push(s.setup.as_secs_f64());
        if i + 1 < reps {
            s.stop()?;
        } else {
            server = Some(s);
        }
    }
    let server = server.expect("at least one boot");
    let (_, stats_before) = server::http_get(server.addr, "/stats")?;
    let streams = net::connect(server.addr, conns).map_err(|e| format!("connecting: {e}"))?;
    let mode = match &stream.schedule {
        Some(schedule) => net::Mode::Open(schedule),
        None => net::Mode::Closed {
            seconds: args.seconds,
            min_answered: MIN_TAIL_SAMPLES,
        },
    };
    let outcome = net::drive(streams, &stream.requests, mode);
    let (_, stats_after) = server::http_get(server.addr, "/stats")?;
    let rss_mb = server.rss_mb()?;
    let mut scrapes = Vec::new();
    if stream.schedule.is_none() {
        for _ in 0..CLOSED_LOOP_SCRAPES {
            let t = Instant::now();
            let (status, body) = server::http_get(server.addr, "/metrics")?;
            if status != 200 {
                return Err(format!("/metrics answered {status}"));
            }
            scrapes.push((t.elapsed().as_secs_f64() * 1e6, body.len() as f64));
        }
    }
    server.stop()?;
    Ok(Served {
        outcome,
        setups,
        rss_mb,
        stats_before,
        stats_after,
        scrapes,
    })
}

fn run(args: &Args) -> Result<(), String> {
    let host_cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let threads = host_cpus;
    let conns = host_cpus.clamp(1, 2);
    std::fs::create_dir_all(&args.work_dir)
        .map_err(|e| format!("creating {}: {e}", args.work_dir.display()))?;
    let corpora = write_corpora(&args.work_dir)?;
    let oracle_engines = open_engines(&corpora)?;
    let facts = gen::CorpusFacts::collect(&oracle_engines[DBLP], &oracle_engines[gen::TREEBANK]);
    let stream = make_stream(args.workload, &facts, args.seed, args.seconds, conns);
    println!(
        "workload {} seed {} seconds {} host_cpus {host_cpus} server_threads {threads} \
         connections {conns}",
        args.workload.name(),
        args.seed,
        args.seconds
    );
    println!(
        "request stream: {} requests, population {}, hash {:016x}",
        stream.requests.len(),
        stream.population,
        stream.hash()
    );
    let routes = server::write_routes(
        &args.work_dir,
        &corpora
            .iter()
            .map(|c| (c.name.clone(), c.xml_path.clone()))
            .collect::<Vec<_>>(),
    )?;
    // One file per workload, overwritten by its next traced run, so
    // repeated runs do not fill the disk.
    let access_log = args.trace.then(|| {
        args.work_dir
            .join(format!("access-{}.jsonl", args.workload.name()))
    });
    let served = serve(
        args,
        &routes,
        &stream,
        threads,
        conns,
        access_log.as_deref(),
    )?;
    let records = &served.outcome.records;

    // A traced run times the set-up layers, then replays the stream on
    // the oracle's engines, which nothing has queried yet.
    let mut metrics = Metrics::default();
    let mut problems: Vec<String> = Vec::new();
    let replay = if args.trace {
        setup_layers(&mut metrics, &corpora, &args.work_dir)?;
        let mut replay = replay::Replay::new(&oracle_engines);
        replay_stream(&mut replay, args, &stream, records, &facts, conns);
        Some(replay)
    } else {
        None
    };

    // The correctness check, outside the timed phase.
    let mismatched = oracle::check(&oracle_engines, &served.outcome.bodies.first, threads);
    let mut failed = served.outcome.bodies.repeat_mismatches;
    for r in records {
        let req = &stream.requests[r.req];
        if !r.ok() || (!req.is_scrape() && mismatched.contains(&(req.tenant, req.body.clone()))) {
            failed += 1;
        }
    }
    if !mismatched.is_empty() {
        problems.push(format!(
            "{} distinct requests answered with wrong bytes, e.g. {:?}",
            mismatched.len(),
            mismatched.iter().next()
        ));
    }
    if served.outcome.bodies.repeat_mismatches > 0 {
        problems.push(format!(
            "{} responses differ from an earlier response to the same request",
            served.outcome.bodies.repeat_mismatches
        ));
    }
    if stream.schedule.is_some() {
        problems.extend(net::open_loop_violations(records, &served.outcome.backlog));
        let late = stats::summarize(
            &records
                .iter()
                .map(|r| r.send_ns.saturating_sub(r.due_ns) as f64 / 1e3)
                .collect::<Vec<_>>(),
        );
        println!(
            "generator lateness: p50 {:.1} us, p99 {:.1} us, max {:.1} us; \
             most outstanding {}",
            late.median(),
            late.p(99.0),
            late.p(100.0),
            served.outcome.backlog.iter().max().unwrap_or(&0)
        );
    }

    let work: Vec<&net::Record> = records
        .iter()
        .filter(|r| r.ok() && !stream.requests[r.req].is_scrape())
        .collect();
    let latency = stats::summarize(
        &work
            .iter()
            .map(|r| r.latency_ns() as f64 / 1e3)
            .collect::<Vec<_>>(),
    );
    if !latency.supports(99.0) {
        problems.push(format!(
            "{} latency samples cannot support p99 (needs 1000)",
            latency.len()
        ));
    }
    // p99 does not repeat from run to run on a shared host, so it is
    // reported here and in the traced run, not as an end-to-end metric.
    let top = stats::highest_supported_percentile(latency.len()).unwrap_or(50.0);
    println!(
        "attempted {} failed {failed}; latency samples {}, p99 {:.1} us, \
         p{top} (highest with ten samples beyond) {:.1} us",
        records.len(),
        latency.len(),
        latency.p(99.0),
        latency.p(top)
    );
    let p50 = latency.median();
    let qps = work.len() as f64 / (served.outcome.elapsed_ns as f64 / 1e9);

    if let Some(replay) = replay.as_ref() {
        // Beside the untraced run's p50 these give the access log's cost.
        metrics.set("client.p50_us", p50, "us");
        metrics.set("client.p99_us", latency.p(99.0), "us");
        problems.extend(per_layer(
            &mut metrics,
            replay,
            &served,
            &stream,
            conns,
            access_log.as_deref().expect("traced runs log"),
        )?);
        let spans = args
            .work_dir
            .join(format!("spans-{}.jsonl", args.workload.name()));
        replay
            .traced
            .write_jsonl(&spans)
            .map_err(|e| format!("writing spans: {e}"))?;
        println!(
            "spans: {} written to {}",
            replay.traced.spans.len(),
            spans.display()
        );
    } else {
        metrics.set("setup_s", stats::median(&served.setups), "s");
        metrics.set("rss_mb", served.rss_mb, "MB");
        metrics.set("qps", qps, "1/s");
        metrics.set("p50_us", p50, "us");
    }
    for (name, (v, unit)) in &metrics.0 {
        println!("  {name:<28} {v:>14.3} {unit}");
    }
    for p in &problems {
        println!("problem: {p}");
    }
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{failed},\"metrics\":{}}}",
        problems.is_empty() && failed == 0,
        records.len(),
        metrics.json()
    );
    Ok(())
}

/// Times the set-up layers in process on both corpora.
fn setup_layers(m: &mut Metrics, corpora: &[Corpus], dir: &Path) -> Result<(), String> {
    let mut parse = Vec::new();
    let mut build = Vec::new();
    let mut precompute = Vec::new();
    let mut open = Vec::new();
    let mut bytes = 0u64;
    for _ in 0..SETUP_LAYER_REPS {
        let (mut p, mut b, mut a, mut o) = (0.0, 0.0, 0.0, 0.0);
        bytes = 0;
        for c in corpora {
            let xml = std::fs::read_to_string(&c.xml_path)
                .map_err(|e| format!("reading {}: {e}", c.xml_path.display()))?;
            let t = Instant::now();
            let doc = lotusx_xml::Document::parse_str(&xml).map_err(|e| e.to_string())?;
            p += t.elapsed().as_secs_f64();
            let t = Instant::now();
            let idx = lotusx_index::IndexedDocument::build_with(
                doc,
                &lotusx_index::BuildOptions::default(),
            );
            b += t.elapsed().as_secs_f64();
            let t = Instant::now();
            let engine = LotusX::from_indexed(idx);
            a += t.elapsed().as_secs_f64();
            let snap = dir.join(format!("{}.ltsx", c.name));
            engine
                .save_snapshot(&snap)
                .map_err(|e| format!("saving snapshot: {e}"))?;
            let t = Instant::now();
            LotusX::open_snapshot(&snap).map_err(|e| format!("opening snapshot: {e}"))?;
            o += t.elapsed().as_secs_f64();
            bytes += std::fs::metadata(&snap).map_or(0, |m| m.len());
        }
        parse.push(p * 1e3);
        build.push(b * 1e3);
        precompute.push(a * 1e3);
        open.push(o * 1e3);
    }
    m.set("xml.parse_ms", stats::median(&parse), "ms");
    m.set("index.build_ms", stats::median(&build), "ms");
    m.set(
        "autocomplete.precompute_ms",
        stats::median(&precompute),
        "ms",
    );
    m.set("storage.snapshot_open_ms", stats::median(&open), "ms");
    m.set("storage.snapshot_bytes", bytes as f64, "bytes");
    Ok(())
}

/// Replays the requests the server answered, in send order, then short
/// slices of the other workloads for layers this one never reaches.
fn replay_stream(
    replay: &mut replay::Replay<'_>,
    args: &Args,
    stream: &Stream,
    records: &[net::Record],
    facts: &gen::CorpusFacts,
    conns: usize,
) {
    let sent: Vec<Request> = records
        .iter()
        .map(|r| stream.requests[r.req].clone())
        .collect();
    replay.run(&sent, Duration::from_secs(args.seconds));
    let has = |op: Op| sent.iter().any(|r| r.op == op);
    if !has(Op::Twig) {
        let twig = gen::twig_stream(facts, args.seed, 400);
        replay.run(&twig.requests, Duration::from_secs(3));
    }
    if !has(Op::Keyword) {
        let keyword = gen::keyword_stream(facts, args.seed, 300);
        replay.run(&keyword.requests, Duration::from_secs(2));
    }
    if !has(Op::TagComplete) {
        let complete = gen::complete_stream(facts, args.seed, 1, conns);
        replay.run(&complete.requests, Duration::from_secs(2));
    }
}

/// Fills the per-layer metrics of a traced run; returns reconciliation
/// failures.
fn per_layer(
    m: &mut Metrics,
    replay: &replay::Replay<'_>,
    served: &Served,
    stream: &Stream,
    conns: usize,
    access_log: &Path,
) -> Result<Vec<String>, String> {
    let mut problems = Vec::new();
    let tr = &replay.traced;
    let durations = |name: &str| -> Vec<f64> {
        tr.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.ns() as f64 / 1e3)
            .collect()
    };
    let p50 = |name: &str| stats::summarize(&durations(name)).median();
    let p99 = |name: &str| stats::summarize(&durations(name)).p(99.0);
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };

    // Access-log join: server stages per answered request.
    let records = &served.outcome.records;
    let text = std::fs::read_to_string(access_log).map_err(|e| format!("access log: {e}"))?;
    let lines = server::parse_access_log(&text)?;
    let joined = server::join_access_log(records, conns, &lines)?;
    let pick = |f: &dyn Fn(&net::Record, &server::LogLine) -> f64| -> stats::Summary {
        stats::summarize(
            &records
                .iter()
                .zip(&joined)
                .filter(|(r, _)| !stream.requests[r.req].is_scrape())
                .map(|(r, l)| f(r, l))
                .collect::<Vec<_>>(),
        )
    };
    m.set(
        "serve.parse_us",
        pick(&|_, l| l.parse_ns as f64 / 1e3).median(),
        "us",
    );
    m.set(
        "serve.queue_us",
        pick(&|_, l| l.queue_ns as f64 / 1e3).median(),
        "us",
    );
    m.set(
        "serve.compute_us",
        pick(&|_, l| l.compute_ns as f64 / 1e3).median(),
        "us",
    );
    m.set(
        "serve.flush_us",
        pick(&|_, l| l.flush_ns as f64 / 1e3).median(),
        "us",
    );
    let residual = pick(&|r, l| (r.service_ns() as f64 - l.stages_ns() as f64) / 1e3);
    m.set("serve.residual_us", residual.median(), "us");
    // The log's flush time ends when the loop thread gets round to
    // logging, which on a busy host can be after the client already has
    // the bytes; so single requests may overshoot, but in sum the stages
    // must fit inside what the client saw.
    let negative = pick(&|r, l| f64::from(u8::from(r.service_ns() < l.stages_ns()))).mean();
    m.set("recon.serve_negative_share", negative, "ratio");
    let service = pick(&|r, _| r.service_ns() as f64).mean();
    let residual_share = residual.mean() * 1e3 / service.max(1.0);
    m.set("recon.serve_residual_share", residual_share, "ratio");
    if residual_share < -SERVE_OVERLAP_BOUND {
        problems.push(format!(
            "server stages add up to {:.1}% more than the client latency (bound {:.0}%)",
            -residual_share * 100.0,
            SERVE_OVERLAP_BOUND * 100.0
        ));
    }
    m.set(
        "serve.loop_lag_us",
        server::stage_mean_us(&served.stats_before, &served.stats_after, "http_loop_lag")
            .unwrap_or(0.0),
        "us",
    );
    let scrapes: Vec<(f64, f64)> = if served.scrapes.is_empty() {
        records
            .iter()
            .filter(|r| r.ok() && stream.requests[r.req].op == Op::Metrics)
            .map(|r| (r.latency_ns() as f64 / 1e3, r.body_len as f64))
            .collect()
    } else {
        served.scrapes.clone()
    };
    m.set(
        "serve.scrape_us",
        stats::summarize(&scrapes.iter().map(|s| s.0).collect::<Vec<_>>()).median(),
        "us",
    );
    m.set(
        "serve.scrape_bytes",
        stats::summarize(&scrapes.iter().map(|s| s.1).collect::<Vec<_>>()).median(),
        "bytes",
    );
    m.set(
        "gen.late_us",
        generator_late_us(records, stream.schedule.is_some()),
        "us",
    );

    // Wire and engine layers from the replay's spans.
    m.set("wire.decode_us", p50("wire.decode"), "us");
    m.set("wire.encode_us", p50("wire.encode"), "us");
    m.set(
        "wire.response_bytes",
        ratio(replay.counts.response_bytes, replay.counts.responses),
        "bytes",
    );
    let core = stats::summarize(
        &replay
            .core_ns
            .iter()
            .map(|&n| n as f64 / 1e3)
            .collect::<Vec<_>>(),
    );
    m.set("core.query_p50_us", core.median(), "us");
    m.set("core.query_p99_us", core.p(99.0), "us");
    let c = &replay.counts;
    m.set("core.cache_lookups", c.cache_lookups as f64, "count");
    m.set(
        "core.cache_hit_ratio",
        ratio(c.cache_hits, c.cache_lookups),
        "ratio",
    );
    for (stage, lo, hi) in [
        ("twig.parse", "twig.parse_p50_us", "twig.parse_p99_us"),
        ("twig.choose", "twig.choose_p50_us", "twig.choose_p99_us"),
        ("twig.match", "twig.match_p50_us", "twig.match_p99_us"),
    ] {
        m.set(lo, p50(stage), "us");
        m.set(hi, p99(stage), "us");
    }
    m.set("twig.matches", ratio(c.matches, c.twig_executions), "count");
    m.set("rewrite.us", p50("rewrite"), "us");
    let rewrite_ns: u64 = tr
        .spans
        .iter()
        .filter(|s| s.name == "rewrite")
        .map(|s| s.ns())
        .sum();
    m.set("rewrite.share", ratio(rewrite_ns, c.twig_ns), "ratio");
    m.set(
        "rewrite.accept_ratio",
        ratio(c.rewrites_accepted, c.rewrites),
        "ratio",
    );
    m.set("rank.us", p50("rank"), "us");
    m.set("rank.kept_ratio", ratio(c.kept, c.matches), "ratio");
    m.set("xml.serialize_us", p50("xml.serialize"), "us");
    m.set("keyword.slca_us", p50("keyword.slca"), "us");
    m.set("keyword.search_us", p50("keyword.search"), "us");
    let slca: BTreeMap<usize, u64> = tr
        .spans
        .iter()
        .filter(|s| s.name == "keyword.slca")
        .map(|s| (s.request, s.ns()))
        .collect();
    let score: Vec<f64> = tr
        .spans
        .iter()
        .filter(|s| s.name == "keyword.search")
        .map(|s| (s.ns() as f64 - slca.get(&s.request).copied().unwrap_or(0) as f64) / 1e3)
        .collect();
    m.set("keyword.score_us", stats::summarize(&score).median(), "us");
    m.set(
        "keyword.hits",
        ratio(c.keyword_hits, c.keyword_queries),
        "count",
    );
    m.set(
        "keyword.kept_ratio",
        ratio(c.keyword_kept, c.keyword_hits),
        "ratio",
    );
    m.set("autocomplete.tag_us", p50("autocomplete.tag"), "us");
    m.set("autocomplete.value_us", p50("autocomplete.value"), "us");
    let tries = replay.engines[DBLP].value_trie_shard_stats();
    let (hits, misses) = tries
        .iter()
        .fold((0, 0), |(h, m), s| (h + s.hits, m + s.misses));
    m.set(
        "autocomplete.trie_hit_ratio",
        ratio(hits, hits + misses),
        "ratio",
    );

    // Reconciliation and tracing overhead.
    if c.result_mismatches > 0 {
        problems.push(format!(
            "{} replayed answers differ from LotusX::query",
            c.result_mismatches
        ));
    }
    let core_sum: u64 = replay.reconcile.core_ns.iter().sum();
    let layer_sum: u64 = replay.reconcile.layers_ns.iter().sum();
    let residual_share = (core_sum as f64 - layer_sum as f64) / core_sum.max(1) as f64;
    m.set("recon.core_residual_share", residual_share, "ratio");
    if residual_share.abs() > CORE_RESIDUAL_BOUND {
        problems.push(format!(
            "layer self times miss LotusX::query by {:.1}% (bound {:.0}%)",
            residual_share * 100.0,
            CORE_RESIDUAL_BOUND * 100.0
        ));
    }
    let overhead = stats::median(&replay.overhead_ns_per_span);
    m.set("trace.overhead_ns_per_span", overhead, "ns");
    if overhead > OVERHEAD_NS_PER_SPAN_BOUND {
        problems.push(format!(
            "tracing costs {overhead:.0} ns per span (bound {OVERHEAD_NS_PER_SPAN_BOUND:.0})"
        ));
    }
    Ok(problems)
}

/// How late the generator ran: open loop, the median send delay past
/// the schedule; closed loop, the median gap between a response and the
/// next send on its connection.
fn generator_late_us(records: &[net::Record], open: bool) -> f64 {
    let gaps: Vec<f64> = if open {
        records
            .iter()
            .map(|r| r.send_ns.saturating_sub(r.due_ns) as f64 / 1e3)
            .collect()
    } else {
        let mut last_recv: BTreeMap<usize, u64> = BTreeMap::new();
        let mut gaps = Vec::new();
        for r in records {
            if let Some(prev) = last_recv.insert(r.conn, r.recv_ns) {
                gaps.push(r.send_ns.saturating_sub(prev) as f64 / 1e3);
            }
        }
        gaps
    };
    stats::summarize(&gaps).median()
}
