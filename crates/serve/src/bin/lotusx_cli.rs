//! LotusX command-line demo — the textual stand-in for the original web
//! GUI at `datasearch.ruc.edu.cn:8080/LotusX`.
//!
//! Run with `cargo run -p lotusx-serve --bin lotusx-cli [file.xml]` and
//! type `help` for the command list. Everything the GUI demonstrates is
//! reachable: incremental canvas construction with per-keystroke
//! position-aware candidates, one-shot textual queries, algorithm
//! switching, ranked results, automatic rewriting of empty queries, the
//! observability surface (`profile`, `explain`, `stats`), and `serve
//! <port>` to expose the loaded document over HTTP.

use lotusx::{Algorithm, Axis, Budget, CanvasNodeId, CorpusSource, LotusX, QueryRequest, Session};
use std::io::{BufRead, Write};
use std::time::Duration;

const SAMPLE: &str = r#"<bib>
  <book year="1999"><title>Data on the Web</title><author>Abiteboul</author><author>Buneman</author><publisher>Morgan Kaufmann</publisher></book>
  <book year="2003"><title>XML Handbook</title><author>Goldfarb</author><publisher>Prentice Hall</publisher></book>
  <article year="2002"><title>Holistic Twig Joins</title><author>Bruno</author><journal>SIGMOD</journal></article>
  <article year="2005"><title>TJFast Extended Dewey</title><author>Lu</author><journal>VLDB</journal></article>
</bib>"#;

fn main() {
    let stdin = std::io::stdin();
    let mut out = std::io::stdout();

    // `lotusx-cli top --remote HOST:PORT [frames]` works straight from
    // argv — watching a running server needs no corpus and no REPL.
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("top") {
        let rest = argv[1..].join(" ");
        std::process::exit(if run_top(&rest) { 0 } else { 1 });
    }

    let arg = argv.first().cloned();
    let system = match &arg {
        // Any corpus source works: `@dataset[:scale[:seed]]` for a seeded
        // synthetic corpus (e.g. `@treebank:2:7`), a `.ltsx` snapshot for
        // a millisecond cold boot, or an XML file.
        Some(text) => {
            let source = match text.parse::<CorpusSource>() {
                Ok(source) => source,
                Err(e) => {
                    eprintln!("{e}");
                    std::process::exit(1);
                }
            };
            match LotusX::open(&source) {
                Ok(s) => {
                    println!(
                        "opened {source} ({} elements)",
                        s.index().stats().element_count
                    );
                    s
                }
                Err(e) => {
                    eprintln!("failed to open {source}: {e}");
                    std::process::exit(1);
                }
            }
        }
        None => {
            println!("no file given; loaded the built-in sample bibliography");
            LotusX::load_str(SAMPLE).expect("sample is well-formed")
        }
    };

    let mut session = Session::new(&system);
    let mut nodes: Vec<CanvasNodeId> = Vec::new();
    // Per-request join-algorithm override ("algo <name>"); the session
    // borrows the engine, so reconfiguration happens per request here.
    let mut algo_override: Option<Algorithm> = None;
    // Per-request budget knobs ("timeout <ms>", "budget <nodes>"; 0 = off).
    let mut timeout_ms: Option<u64> = None;
    let mut node_budget: Option<u64> = None;

    println!("LotusX demo CLI — type 'help' for commands");
    loop {
        print!("lotusx> ");
        let _ = out.flush();
        let mut line = String::new();
        if stdin.lock().read_line(&mut line).unwrap_or(0) == 0 {
            break;
        }
        let line = line.trim();
        let (cmd, rest) = line.split_once(' ').unwrap_or((line, ""));
        match cmd {
            "" => {}
            "help" => print_help(),
            "quit" | "exit" => break,
            "stats" => {
                if rest == "json" {
                    println!("{}", lotusx_obs::metrics().snapshot().to_json());
                } else {
                    print_stats(&system);
                }
            }
            "profile" => match rest {
                "on" => {
                    lotusx_obs::set_enabled(true);
                    println!("profiling on: global metrics recorded, queries print their profile");
                }
                "off" => {
                    lotusx_obs::set_enabled(false);
                    println!("profiling off");
                }
                _ => println!(
                    "usage: profile on|off (currently {})",
                    if lotusx_obs::enabled() { "on" } else { "off" }
                ),
            },
            "explain" => {
                // Honor the session's `algo` override (notably `auto`, so
                // the chooser's decision shows up in the stage tree).
                let mut request = QueryRequest::twig(rest).profiled(true);
                request.algorithm = algo_override;
                match system.query(&request) {
                    Ok(response) => {
                        let profile = response.profile.expect("profiled request");
                        print!("{}", profile.render());
                    }
                    Err(e) => println!("error: {e}"),
                }
            }
            "top" => {
                run_top(rest);
            }
            "trace" => {
                let (sub, arg) = rest.split_once(' ').unwrap_or((rest, ""));
                match sub {
                    "on" => {
                        lotusx_obs::set_tracing(true);
                        println!(
                            "tracing on: queries emit events into the ring buffer \
                             ('trace export <file>' for a Perfetto-loadable trace)"
                        );
                    }
                    "off" => {
                        lotusx_obs::set_tracing(false);
                        println!("tracing off (buffered events are kept until exported)");
                    }
                    "export" if !arg.is_empty() => {
                        let events = lotusx_obs::drain_events();
                        match std::fs::write(arg, lotusx_obs::chrome_trace_json(&events)) {
                            Ok(()) => {
                                let c = lotusx_obs::trace_counters();
                                println!(
                                    "wrote {} events to {arg} ({} dropped) — load at ui.perfetto.dev",
                                    events.len(),
                                    c.dropped
                                );
                            }
                            Err(e) => println!("error: {e}"),
                        }
                    }
                    "log" if !arg.is_empty() => {
                        let events = lotusx_obs::drain_events();
                        match std::fs::write(arg, lotusx_obs::jsonl_log(&events)) {
                            Ok(()) => println!("wrote {} events to {arg} (JSONL)", events.len()),
                            Err(e) => println!("error: {e}"),
                        }
                    }
                    _ => println!(
                        "usage: trace on|off|export <file>|log <file> (currently {})",
                        if lotusx_obs::tracing() { "on" } else { "off" }
                    ),
                }
            }
            "serve" => serve_command(&system, rest),
            "save" | "snapshot" => match system.save_snapshot(rest) {
                Ok(()) => {
                    let size = std::fs::metadata(rest).map(|m| m.len()).unwrap_or(0);
                    println!("full-index snapshot written to {rest} ({size} bytes)");
                }
                Err(e) => println!("error: {e}"),
            },
            "keyword" => {
                let request = QueryRequest::keyword(rest)
                    .budget(build_budget(timeout_ms, node_budget))
                    .profiled(lotusx_obs::enabled());
                match system.query(&request) {
                    Ok(response) => {
                        if let Some(reason) = response.completeness.truncation_reason() {
                            println!("(truncated: {reason} — partial results)");
                        }
                        println!("{} answers", response.total_matches);
                        for (i, h) in response.matches.iter().take(10).enumerate() {
                            println!(
                                "  {:>2}. [{:.3}] {}",
                                i + 1,
                                h.score,
                                truncate(&h.snippet, 90)
                            );
                        }
                        if let Some(profile) = &response.profile {
                            print!("{}", profile.render());
                        }
                    }
                    Err(e) => println!("error: {e}"),
                }
            }
            "query" => {
                let mut request = QueryRequest::twig(rest)
                    .budget(build_budget(timeout_ms, node_budget))
                    .profiled(lotusx_obs::enabled());
                request.algorithm = algo_override;
                match system.query(&request) {
                    Ok(response) => {
                        if let Some(reason) = response.completeness.truncation_reason() {
                            println!("(truncated: {reason} — partial results)");
                        }
                        if let Some(rw) = &response.rewrite {
                            println!(
                                "(no results for the original query — rewritten to {} [penalty {:.1}])",
                                rw.pattern, rw.cost
                            );
                        }
                        println!("{} matches", response.total_matches);
                        for (i, r) in response.matches.iter().take(10).enumerate() {
                            println!(
                                "  {:>2}. [{:.3}] {}",
                                i + 1,
                                r.score,
                                truncate(&r.snippet, 90)
                            );
                        }
                        if let Some(profile) = &response.profile {
                            print!("{}", profile.render());
                        }
                    }
                    Err(e) => println!("error: {e}"),
                }
            }
            "timeout" => match rest.parse::<u64>() {
                Ok(0) => {
                    timeout_ms = None;
                    println!("query timeout off");
                }
                Ok(ms) => {
                    timeout_ms = Some(ms);
                    println!("queries now time out after {ms} ms (partial results are marked)");
                }
                Err(_) => println!(
                    "usage: timeout <ms> (0 = off; currently {})",
                    timeout_ms.map_or("off".to_string(), |ms| format!("{ms} ms"))
                ),
            },
            "budget" => match rest.parse::<u64>() {
                Ok(0) => {
                    node_budget = None;
                    println!("node budget off");
                }
                Ok(n) => {
                    node_budget = Some(n);
                    println!("queries now stop after visiting ~{n} nodes");
                }
                Err(_) => println!(
                    "usage: budget <nodes> (0 = off; currently {})",
                    node_budget.map_or("off".to_string(), |n| format!("{n} nodes"))
                ),
            },
            "algo" => match parse_algorithm(rest) {
                Some(Algorithm::Auto) => {
                    algo_override = Some(Algorithm::Auto);
                    println!("queries now pick an algorithm per query (cost-model chooser)");
                }
                Some(a) => {
                    algo_override = Some(a);
                    println!("queries now run with {a}");
                }
                None if rest == "config" => {
                    algo_override = None;
                    println!("queries now use the engine's configuration");
                }
                None => println!(
                    "algorithms: naive structural-join pathstack twigstack tjfast twigstack-guided auto config (current: {})",
                    algo_override.map(|a| a.name()).unwrap_or("config")
                ),
            },
            "root" => match session.canvas_mut().add_root() {
                Ok(id) => {
                    nodes.push(id);
                    println!("node {} added as root (untyped)", nodes.len() - 1);
                }
                Err(e) => println!("error: {e}"),
            },
            "node" => {
                let mut parts = rest.split_whitespace();
                let parent: Option<usize> = parts.next().and_then(|p| p.parse().ok());
                let axis = match parts.next() {
                    Some("/") | None => Axis::Child,
                    _ => Axis::Descendant,
                };
                match parent.and_then(|p| nodes.get(p).copied()) {
                    Some(p) => match session.canvas_mut().add_node(p, axis) {
                        Ok(id) => {
                            nodes.push(id);
                            println!("node {} added", nodes.len() - 1);
                        }
                        Err(e) => println!("error: {e}"),
                    },
                    None => println!("usage: node <parent-index> [/ or //]"),
                }
            }
            "focus" => match rest
                .parse::<usize>()
                .ok()
                .and_then(|i| nodes.get(i).copied())
            {
                Some(id) => match session.focus(id) {
                    Ok(cands) => print_candidates(&cands),
                    Err(e) => println!("error: {e}"),
                },
                None => println!("usage: focus <node-index>"),
            },
            "type" => {
                for ch in rest.chars() {
                    match session.keystroke(ch) {
                        Ok(cands) => {
                            println!("typed {:?}:", session.typed());
                            print_candidates(&cands);
                        }
                        Err(e) => {
                            println!("error: {e}");
                            break;
                        }
                    }
                }
            }
            "accept" => match session.accept_top() {
                Ok(()) => {
                    if let Some(id) = session.focused() {
                        if let Ok(Some(tag)) = session.canvas().tag(id) {
                            println!("accepted {tag}");
                        }
                    }
                }
                Err(e) => println!("error: {e}"),
            },
            "tag" => {
                let mut parts = rest.split_whitespace();
                let idx: Option<usize> = parts.next().and_then(|p| p.parse().ok());
                let tag = parts.next().unwrap_or("");
                match idx.and_then(|i| nodes.get(i).copied()) {
                    Some(id) if !tag.is_empty() => match session.canvas_mut().set_tag(id, tag) {
                        Ok(()) => println!("node tagged {tag}"),
                        Err(e) => println!("error: {e}"),
                    },
                    _ => println!("usage: tag <node-index> <name>"),
                }
            }
            "values" => match session.value_suggestions(rest) {
                Ok(suggestions) => {
                    for v in suggestions {
                        println!("  {} ({})", v.term, v.count);
                    }
                }
                Err(e) => println!("error: {e}"),
            },
            "show" => match session.canvas().to_pattern() {
                Ok(p) => println!("{p}"),
                Err(e) => println!("error: {e}"),
            },
            "run" => match session.run() {
                Ok(outcome) => {
                    println!("{} matches", outcome.total_matches);
                    for (i, r) in outcome.results.iter().take(10).enumerate() {
                        println!(
                            "  {:>2}. [{:.3}] {}",
                            i + 1,
                            r.score,
                            truncate(&r.snippet, 90)
                        );
                    }
                }
                Err(e) => println!("error: {e}"),
            },
            other => println!("unknown command {other:?} — type 'help'"),
        }
    }
}

fn parse_algorithm(name: &str) -> Option<Algorithm> {
    Algorithm::ALL
        .into_iter()
        .chain([Algorithm::Auto])
        .find(|a| a.name() == name)
}

fn build_budget(timeout_ms: Option<u64>, node_budget: Option<u64>) -> Budget {
    let mut budget = Budget::default();
    if let Some(ms) = timeout_ms {
        budget = budget.with_deadline(Duration::from_millis(ms));
    }
    if let Some(nodes) = node_budget {
        budget = budget.with_node_quota(nodes);
    }
    budget
}

/// Serves the loaded document over HTTP on `127.0.0.1:<port>` until the
/// user presses Enter (blocking the REPL while serving).
fn serve_command(system: &LotusX, rest: &str) {
    let Ok(port) = rest.trim().parse::<u16>() else {
        println!("usage: serve <port> (e.g. serve 8080; port 0 picks one)");
        return;
    };
    let config = lotusx_serve::ServeConfig {
        addr: format!("127.0.0.1:{port}"),
        ..lotusx_serve::ServeConfig::default()
    };
    let server = match lotusx_serve::Server::bind(config) {
        Ok(server) => server,
        Err(e) => {
            println!("error: bind failed: {e}");
            return;
        }
    };
    let handle = server.handle();
    println!(
        "serving on {} (POST /query, POST /complete, GET /stats, GET /healthz) — press Enter to stop",
        server.local_addr()
    );
    std::thread::scope(|scope| {
        scope.spawn(|| server.run(system));
        let mut line = String::new();
        let _ = std::io::stdin().lock().read_line(&mut line);
        handle.shutdown();
    });
    let stats = handle.stats();
    println!(
        "stopped: {} requests ({} rejected, {} panics)",
        stats.requests, stats.rejected, stats.panics
    );
}

fn print_stats(system: &LotusX) {
    let s = system.index().stats();
    println!(
        "elements: {}  distinct tags: {}  max depth: {}  index bytes: {}",
        s.element_count,
        s.distinct_tags,
        s.max_depth,
        system.index().index_size_bytes()
    );
    let qc = system.query_cache_stats();
    println!(
        "query cache: {} hits, {} misses, {}/{} entries  value tries cached: {}",
        qc.hits,
        qc.misses,
        qc.entries,
        qc.capacity,
        system.value_trie_cache_len(),
    );
    if qc.hits + qc.misses > 0 {
        let per_shard: Vec<String> = system
            .query_cache_shard_stats()
            .iter()
            .enumerate()
            .map(|(i, s)| format!("{i}:{}h/{}m", s.hits, s.misses))
            .collect();
        println!("  query-cache shards: {}", per_shard.join("  "));
    }
    let vt = system.value_trie_shard_stats();
    if vt.iter().any(|s| s.hits + s.misses > 0) {
        let per_shard: Vec<String> = vt
            .iter()
            .enumerate()
            .filter(|(_, s)| s.hits + s.misses > 0 || s.entries > 0)
            .map(|(i, s)| format!("{i}:{}h/{}m/{}e", s.hits, s.misses, s.entries))
            .collect();
        println!("  value-trie shards: {}", per_shard.join("  "));
    }
    if !lotusx_obs::enabled() {
        println!("profiling off — `profile on` to record stage latencies ('stats json' for the raw snapshot)");
        return;
    }
    let snapshot = lotusx_obs::metrics().snapshot();
    println!("stage latencies (count / p50 / p95 / p99 / max):");
    for (name, h) in &snapshot.stages {
        if h.count == 0 {
            continue;
        }
        println!(
            "  {:<14} {:>6}  {:>9}  {:>9}  {:>9}  {:>9}",
            name,
            h.count,
            lotusx_obs::fmt_ns(h.p50_ns),
            lotusx_obs::fmt_ns(h.p95_ns),
            lotusx_obs::fmt_ns(h.p99_ns),
            lotusx_obs::fmt_ns(h.max_ns),
        );
    }
    if !snapshot.counters.is_empty() {
        let rendered: Vec<String> = snapshot
            .counters
            .iter()
            .map(|(n, v)| format!("{n}={v}"))
            .collect();
        println!("counters: {}", rendered.join("  "));
    }
    let counter = |name: &str| {
        snapshot
            .counters
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0, |(_, v)| *v)
    };
    let queries = counter("queries");
    let degraded = counter("degraded_responses");
    if queries > 0 && (degraded > 0 || counter("worker_panics") > 0) {
        println!(
            "degradation: {degraded}/{queries} responses truncated ({:.1}%), \
             {} past deadline, {} worker panics isolated",
            100.0 * degraded as f64 / queries as f64,
            counter("queries_deadline_exceeded"),
            counter("worker_panics"),
        );
        if let Some((_, h)) = snapshot
            .histograms
            .iter()
            .find(|(n, _)| n == "deadline_overshoot")
        {
            println!(
                "deadline overshoot: p50 {}  p99 {}  max {}",
                lotusx_obs::fmt_ns(h.p50_ns),
                lotusx_obs::fmt_ns(h.p99_ns),
                lotusx_obs::fmt_ns(h.max_ns),
            );
        }
    }
    if !snapshot.slow_queries.is_empty() {
        println!("slow queries (threshold {}):", {
            lotusx_obs::fmt_ns(lotusx_obs::metrics().slow_queries().threshold_ns())
        });
        for sq in &snapshot.slow_queries {
            println!("  {}  {}", lotusx_obs::fmt_ns(sq.total_ns), sq.query);
        }
    }
}

/// The `top` command: `top [frames]` for the in-process windows,
/// `top --remote HOST:PORT [frames]` to poll a running server's
/// `GET /stats` once per frame. Returns false on a usage or poll error.
fn run_top(rest: &str) -> bool {
    let mut remote: Option<std::net::SocketAddr> = None;
    let mut frames: u64 = 1;
    let mut words = rest.split_whitespace();
    while let Some(word) = words.next() {
        match word {
            "--remote" => {
                let Some(addr) = words.next().and_then(|a| a.parse().ok()) else {
                    println!("usage: top [--remote HOST:PORT] [frames]");
                    return false;
                };
                remote = Some(addr);
            }
            n => {
                let Ok(parsed) = n.parse() else {
                    println!("usage: top [--remote HOST:PORT] [frames]");
                    return false;
                };
                frames = parsed;
            }
        }
    }
    for frame in 0..frames.max(1) {
        if frame > 0 {
            std::thread::sleep(Duration::from_secs(1));
        }
        match remote {
            Some(addr) => {
                if !print_top_remote(addr) {
                    return false;
                }
            }
            None => print_top(),
        }
    }
    true
}

/// One frame of a remote server's health, from one `GET /stats` poll:
/// the server-side connection/loop counters plus the same windowed
/// QPS / tail-latency table `print_top` shows locally.
fn print_top_remote(addr: std::net::SocketAddr) -> bool {
    let body = match lotusx_serve::client::get(addr, "/stats") {
        Ok(r) if r.status == 200 => r.body_text(),
        Ok(r) => {
            println!("top: {addr} answered {}", r.status);
            return false;
        }
        Err(e) => {
            println!("top: polling {addr} failed: {e}");
            return false;
        }
    };
    let parsed = match lotusx_obs::parse_json(&body) {
        Ok(v) => v,
        Err(e) => {
            println!("top: /stats body is not valid JSON: {e}");
            return false;
        }
    };
    let int = |v: Option<&lotusx_obs::JsonValue>| v.and_then(|v| v.as_f64()).unwrap_or(0.0) as u64;
    if let Some(server) = parsed.get("server") {
        println!(
            "server {addr}: {} reqs ({} rejected)  conns {} open / {} active  \
             keepalive reuses {}  queue {} (max {})",
            int(server.get("requests")),
            int(server.get("rejected")),
            int(server.get("connections_open")),
            int(server.get("connections_active")),
            int(server.get("keepalive_reuses")),
            int(server.get("queue_depth")),
            int(server.get("max_queue_depth")),
        );
        let dropped = int(server.get("access_log_dropped"));
        if dropped > 0 {
            println!("  access log: {dropped} lines dropped");
        }
    }
    let Some(windows) = parsed.get("metrics").and_then(|m| m.get("windows")) else {
        println!("top: /stats body has no metrics.windows section");
        return false;
    };
    println!("window   queries      qps   hit%  trunc%   p50(total)   p95(total)   p99(total)");
    for label in ["1s", "10s", "60s"] {
        let Some(w) = windows.get(label) else {
            continue;
        };
        let f = |key: &str| w.get(key).and_then(|v| v.as_f64()).unwrap_or(0.0);
        let total = w.get("stages").and_then(|s| s.get("total"));
        let t = |key: &str| {
            total
                .and_then(|t| t.get(key))
                .and_then(|v| v.as_f64())
                .unwrap_or(0.0) as u64
        };
        println!(
            "{:>5}s  {:>8}  {:>7.1}  {:>5.1}  {:>6.1}  {:>11}  {:>11}  {:>11}",
            label.trim_end_matches('s'),
            f("queries") as u64,
            f("qps"),
            100.0 * f("hit_ratio"),
            100.0 * f("truncation_rate"),
            lotusx_obs::fmt_ns(t("p50_ns")),
            lotusx_obs::fmt_ns(t("p95_ns")),
            lotusx_obs::fmt_ns(t("p99_ns")),
        );
    }
    true
}

/// One frame of live telemetry: windowed QPS / tail latency / cache and
/// truncation rates, plus the retained worst-case exemplars.
fn print_top() {
    let m = lotusx_obs::metrics();
    if !lotusx_obs::enabled() {
        println!("profiling off — `profile on` to feed the live windows");
        return;
    }
    println!("window   queries      qps   hit%  trunc%   p50(total)   p95(total)   p99(total)");
    for w in m.windows().aggregate_all() {
        let total = &w.stages[lotusx_obs::Stage::Total as usize].1;
        println!(
            "{:>5}s  {:>8}  {:>7.1}  {:>5.1}  {:>6.1}  {:>11}  {:>11}  {:>11}",
            w.window_secs,
            w.queries,
            w.qps,
            100.0 * w.hit_ratio,
            100.0 * w.truncation_rate,
            lotusx_obs::fmt_ns(total.p50_ns),
            lotusx_obs::fmt_ns(total.p95_ns),
            lotusx_obs::fmt_ns(total.p99_ns),
        );
    }
    // Busiest stages over the last 10 seconds.
    let ten = &m.windows().aggregate_all()[1];
    let mut active: Vec<_> = ten.stages.iter().filter(|(_, h)| h.count > 0).collect();
    active.sort_by_key(|s| std::cmp::Reverse(s.1.sum_ns));
    if !active.is_empty() {
        println!("stages (10s, by time):");
        for (name, h) in active.iter().take(5) {
            println!(
                "  {:<14} {:>6}  p50 {:>9}  p99 {:>9}",
                name,
                h.count,
                lotusx_obs::fmt_ns(h.p50_ns),
                lotusx_obs::fmt_ns(h.p99_ns),
            );
        }
    }
    // Adaptive-chooser decisions since startup (algo_chosen_* counters,
    // plus mispicks recorded by the join benchmark's regression gate).
    let snapshot = m.snapshot();
    let chooser: Vec<String> = snapshot
        .counters
        .iter()
        .filter(|(n, _)| n.starts_with("algo_chosen_") || n == "chooser_mispicks")
        .map(|(n, v)| {
            format!(
                "{}={v}",
                n.strip_prefix("algo_chosen_").unwrap_or(n.as_str())
            )
        })
        .collect();
    if !chooser.is_empty() {
        println!("chooser: {}", chooser.join("  "));
    }
    let exemplars = m.exemplars().snapshot();
    if !exemplars.is_empty() {
        println!("slowest sampled queries (by dominant stage):");
        for e in exemplars.iter().take(8) {
            println!(
                "  {:<10} {:>9}  {}",
                e.stage,
                lotusx_obs::fmt_ns(e.total_ns),
                truncate(&e.profile.query, 60)
            );
        }
    }
}

fn print_candidates(cands: &[lotusx::TagCandidate]) {
    if cands.is_empty() {
        println!("  (no candidates at this position)");
    }
    for c in cands {
        println!("  {} ({})", c.name, c.count);
    }
}

fn truncate(s: &str, n: usize) -> String {
    if s.len() <= n {
        s.to_string()
    } else {
        let mut end = n;
        while !s.is_char_boundary(end) {
            end -= 1;
        }
        format!("{}…", &s[..end])
    }
}

fn print_help() {
    println!(
        "\
one-shot queries:
  query <xpath>      run a query, e.g.  query //book[@year >= 2000]/title
  keyword <terms>    keyword search (ranked smallest covering subtrees)
  snapshot <p.ltsx>  write a full-index snapshot; reopening it (lotusx-cli
                     <p.ltsx>) cold-boots in milliseconds without a rebuild
                     ('save' is an alias)
observability:
  profile on|off     toggle metrics recording + per-query profiles
  explain <xpath>    run one query and print its stage-timing tree
  stats              document, cache and latency statistics
  stats json         the metrics snapshot as JSON (metrics.json format)
  top [frames]       live windowed telemetry (QPS, tail latency, exemplars)
  top --remote HOST:PORT [frames]
                     poll a running server's GET /stats once per frame
                     (also works from argv: lotusx-cli top --remote ...)
  trace on|off       toggle structured event tracing into the ring buffer
  trace export <f>   drain the ring to a Chrome/Perfetto trace JSON file
  trace log <f>      drain the ring to a JSONL event log
canvas (the GUI surrogate):
  root               drop the root node
  node <i> [/ | //]  add a node under node i
  focus <i>          focus node i (shows position-aware candidates)
  type <text>        type into the focused node, one keystroke at a time
  accept             accept the typed text as the tag
  tag <i> <name>     set a node's tag directly
  values <prefix>    value suggestions for the focused node's tag
  show               print the canvas as a query
  run                execute the canvas (untyped nodes are wildcards)
other:
  serve <port>       serve this document over HTTP on 127.0.0.1:<port>
                     (POST /query, POST /complete, GET /stats, GET /healthz;
                     Enter stops the server and returns to the REPL)
  algo [name|auto]   per-request join algorithm override ('auto' = per-query
                     cost-model chooser, 'config' = engine configuration)
  timeout <ms>       wall-clock budget per query, 0 = off (partial results are marked)
  budget <nodes>     node-visit budget per query, 0 = off
  help, quit

start with '@dblp', '@xmark' or '@treebank[:scale[:seed]]' instead of a
file to load a seeded synthetic corpus."
    );
}
