//! The traced in-process replay: the served request stream run again on
//! a fresh engine, calling each layer's public functions in the engine's
//! own order and recording a span around every call.
//!
//! Twig: decode → parse → choose → match → (rewrite → choose → match when
//! empty) → rank → serialize → encode. Keyword: decode → SLCA → search →
//! serialize → encode. Completion: decode → complete → encode.
//!
//! Each twig or keyword request also runs once through `LotusX::query`
//! (untraced), which gives `core.query_us`, the cache-hit ratio, and the
//! answer the replayed pipeline must reproduce exactly. A twig request
//! the engine answered from its cache has no pipeline to replay.

use crate::gen::{Op, Request};
use lotusx::engine::RewriteInfo;
use lotusx::{Completeness, LotusX, QueryGuard, QueryResponse, SearchResult};
use lotusx_serve::wire;
use lotusx_xml::SerializeOptions;
use std::io::Write;
use std::time::Instant;

/// One recorded call.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    pub request: usize,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records spans in memory; a disabled tracer records nothing, which is
/// the bare pipeline the tracing overhead is measured against.
pub struct Tracer {
    t0: Instant,
    pub spans: Vec<Span>,
    enabled: bool,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            t0: Instant::now(),
            spans: Vec::new(),
            enabled,
        }
    }

    fn begin(&mut self, name: &'static str, parent: Option<usize>, request: usize) -> usize {
        if !self.enabled {
            return 0;
        }
        let start_ns = self.t0.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            request,
        });
        self.spans.len() - 1
    }

    fn end(&mut self, id: usize) {
        if self.enabled {
            self.spans[id].end_ns = self.t0.elapsed().as_nanos() as u64;
        }
    }

    /// Runs `f` inside a span named `name`.
    fn span<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        request: usize,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.begin(name, parent, request);
        let out = f();
        self.end(id);
        out
    }

    /// A span's duration minus the part its children cover.
    pub fn self_ns(&self, id: usize) -> u64 {
        // Children are recorded after their parent, within its request.
        let request = self.spans[id].request;
        let covered: u64 = self.spans[id + 1..]
            .iter()
            .take_while(|s| s.request == request)
            .filter(|s| s.parent == Some(id))
            .map(Span::ns)
            .sum();
        self.spans[id].ns().saturating_sub(covered)
    }

    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            writeln!(
                out,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"request\":{}}}",
                s.name,
                s.start_ns,
                s.end_ns,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.request
            )?;
        }
        out.flush()
    }
}

/// Spans on the engine's own path, whose self times must add up to
/// `LotusX::query`. The standalone SLCA probe and the wire spans are not
/// on that path.
pub const ENGINE_PATH: [&str; 7] = [
    "twig.parse",
    "twig.choose",
    "twig.match",
    "rewrite",
    "rank",
    "xml.serialize",
    "keyword.search",
];

/// Counts gathered beside the spans.
#[derive(Default, Debug)]
pub struct Counts {
    /// Twig requests looked up in the engine's query cache, and hits.
    pub cache_lookups: u64,
    pub cache_hits: u64,
    pub twig_executions: u64,
    /// Matches of the executed (possibly rewritten) query, all ranked.
    pub matches: u64,
    pub kept: u64,
    pub rewrites: u64,
    pub rewrites_accepted: u64,
    pub keyword_queries: u64,
    pub keyword_hits: u64,
    pub keyword_kept: u64,
    /// Wall time of the traced twig pipelines.
    pub twig_ns: u64,
    pub response_bytes: u64,
    pub responses: u64,
    /// Replayed answers that differ from `LotusX::query`.
    pub result_mismatches: u64,
}

/// Per replayed engine-path request: `LotusX::query` time and the sum
/// of the pipeline's engine-path self times.
#[derive(Default, Debug)]
pub struct Reconcile {
    pub core_ns: Vec<u64>,
    pub layers_ns: Vec<u64>,
}

pub struct Replay<'a> {
    pub engines: &'a [LotusX],
    pub traced: Tracer,
    pub bare: Tracer,
    /// Per replayed request: tracing's extra wall time over the bare
    /// pipeline, divided by the spans it recorded.
    pub overhead_ns_per_span: Vec<f64>,
    pub counts: Counts,
    pub reconcile: Reconcile,
    /// `LotusX::query` latencies of twig and keyword requests (hits too).
    pub core_ns: Vec<u64>,
    pub replayed: usize,
}

impl<'a> Replay<'a> {
    pub fn new(engines: &'a [LotusX]) -> Replay<'a> {
        Replay {
            engines,
            traced: Tracer::new(true),
            bare: Tracer::new(false),
            overhead_ns_per_span: Vec::new(),
            counts: Counts::default(),
            reconcile: Reconcile::default(),
            core_ns: Vec::new(),
            replayed: 0,
        }
    }

    /// Replays `requests` in order until `budget` runs out; returns how
    /// many were replayed.
    pub fn run(&mut self, requests: &[Request], budget: std::time::Duration) -> usize {
        let started = Instant::now();
        let mut n = 0;
        for r in requests.iter().filter(|r| !r.is_scrape()) {
            if started.elapsed() > budget {
                break;
            }
            self.one(r);
            n += 1;
        }
        n
    }

    fn one(&mut self, r: &Request) {
        let id = self.replayed;
        self.replayed += 1;
        let engine = &self.engines[r.tenant];
        let core = matches!(r.op, Op::Twig | Op::Keyword).then(|| {
            let v = lotusx_obs::parse_json(&r.body).expect("generated bodies are JSON");
            let request = wire::decode_query(&v).expect("generated queries decode");
            let before = engine.query_cache_stats();
            let t = Instant::now();
            let response = engine.query(&request).expect("generated queries run");
            let ns = t.elapsed().as_nanos() as u64;
            self.core_ns.push(ns);
            let hit = engine.query_cache_stats().hits > before.hits;
            (response, ns, hit)
        });
        if r.op == Op::Twig {
            let hit = matches!(core, Some((_, _, true)));
            self.counts.cache_lookups += 1;
            self.counts.cache_hits += u64::from(hit);
            if hit {
                return;
            }
        }
        // Alternate which mode runs first, so neither always finds warm
        // caches.
        let spans_before = self.traced.spans.len();
        let (traced, bare) = if id.is_multiple_of(2) {
            let t = self.timed(true, r, id);
            (t, self.timed(false, r, id))
        } else {
            let b = self.timed(false, r, id);
            (self.timed(true, r, id), b)
        };
        let spans = (self.traced.spans.len() - spans_before).max(1) as f64;
        self.overhead_ns_per_span
            .push((traced.1 as f64 - bare.1 as f64) / spans);
        if r.op == Op::Twig {
            self.counts.twig_ns += traced.1;
        }
        self.counts.response_bytes += traced.0.len() as u64;
        self.counts.responses += 1;
        if traced.0 != bare.0 {
            self.counts.result_mismatches += 1;
        }
        if let Some((response, core_ns, _)) = core {
            if wire::encode_response(&response) != traced.0 {
                self.counts.result_mismatches += 1;
            }
            let layers: u64 = (spans_before..self.traced.spans.len())
                .filter(|&i| ENGINE_PATH.contains(&self.traced.spans[i].name))
                .map(|i| self.traced.self_ns(i))
                .sum();
            self.reconcile.core_ns.push(core_ns);
            self.reconcile.layers_ns.push(layers);
        }
    }

    /// Runs one request through the pipeline with the traced or the bare
    /// tracer; returns the encoded answer and the wall time.
    fn timed(&mut self, traced: bool, r: &Request, id: usize) -> (String, u64) {
        let mut tracer = std::mem::replace(
            if traced {
                &mut self.traced
            } else {
                &mut self.bare
            },
            Tracer::new(false),
        );
        let t = Instant::now();
        let out = pipeline(
            &self.engines[r.tenant],
            r,
            id,
            &mut tracer,
            if traced { Some(&mut self.counts) } else { None },
        );
        let ns = t.elapsed().as_nanos() as u64;
        *if traced {
            &mut self.traced
        } else {
            &mut self.bare
        } = tracer;
        (out, ns)
    }
}

/// The layer-by-layer pipeline for one request, returning the encoded
/// answer. `counts` is updated when given (once per request).
fn pipeline(
    engine: &LotusX,
    r: &Request,
    id: usize,
    tr: &mut Tracer,
    counts: Option<&mut Counts>,
) -> String {
    let root = tr.begin("request", None, id);
    let p = Some(root);
    let decoded = tr.span("wire.decode", p, id, || {
        let v = lotusx_obs::parse_json(&r.body).expect("generated bodies are JSON");
        if matches!(r.op, Op::Twig | Op::Keyword) {
            Ok(wire::decode_query(&v).expect("generated queries decode"))
        } else {
            Err(wire::decode_complete(&v).expect("generated completions decode"))
        }
    });
    let out = match (r.op, decoded) {
        (Op::Twig, Ok(q)) => twig(engine, &q.text, q.top_k, id, p, tr, counts),
        (Op::Keyword, Ok(q)) => keyword(engine, &q.text, q.top_k, id, p, tr, counts),
        (_, Err(request)) => {
            let completion = engine.completion_engine();
            match request {
                wire::CompleteRequest::Tag { context, prefix, k } => {
                    let c = tr.span("autocomplete.tag", p, id, || {
                        completion.complete_tag(&context, &prefix, k)
                    });
                    tr.span("wire.encode", p, id, || wire::encode_tag_candidates(&c))
                }
                wire::CompleteRequest::Value { tag, prefix, k } => {
                    let c = tr.span("autocomplete.value", p, id, || {
                        completion.complete_value(&tag, &prefix, k)
                    });
                    tr.span("wire.encode", p, id, || wire::encode_value_candidates(&c))
                }
            }
        }
        (_, Ok(_)) => unreachable!("only queries decode as queries"),
    };
    tr.end(root);
    out
}

fn snippet(engine: &LotusX, node: Option<&lotusx::NodeId>) -> String {
    node.map(|&n| {
        engine
            .index()
            .document()
            .serialize(n, SerializeOptions::default())
    })
    .unwrap_or_default()
}

fn twig(
    engine: &LotusX,
    text: &str,
    top_k: Option<usize>,
    id: usize,
    p: Option<usize>,
    tr: &mut Tracer,
    counts: Option<&mut Counts>,
) -> String {
    let idx = engine.index();
    let config = engine.config();
    let threads = config.threads_value();
    let limit = top_k.unwrap_or(config.result_limit_value());
    let guard = QueryGuard::unlimited();
    let pattern = tr.span("twig.parse", p, id, || {
        lotusx_twig::parse_query(text).expect("generated queries parse")
    });
    let run = |tr: &mut Tracer, pattern: &lotusx::TwigPattern| {
        let algorithm = tr.span("twig.choose", p, id, || {
            lotusx_twig::choose_algorithm(idx, pattern).algorithm
        });
        let matches = tr.span("twig.match", p, id, || {
            lotusx_twig::execute_budgeted(idx, pattern, algorithm, threads, None, &guard)
        });
        (algorithm, matches)
    };
    let (mut algorithm, mut matches) = run(tr, &pattern);
    let mut executions = 1;
    let mut rewrite = None;
    let mut rewrites = (0, 0);
    if matches.is_empty() && config.auto_rewrite_enabled() {
        let candidates = tr.span("rewrite", p, id, || {
            lotusx_rewrite::Rewriter::with(
                idx,
                lotusx_rewrite::SynonymTable::default_table(),
                config.rewriter_config(),
            )
            .rewrite(&pattern)
        });
        rewrites.0 = 1;
        if let Some(best) = candidates.into_iter().next() {
            rewrites.1 = 1;
            (algorithm, matches) = run(tr, &best.pattern);
            executions += 1;
            rewrite = Some(RewriteInfo {
                pattern: best.pattern,
                cost: best.cost,
                ops: best.ops,
            });
        }
    }
    let used = rewrite.as_ref().map_or(&pattern, |info| &info.pattern);
    let total = matches.len();
    let ranked = tr.span("rank", p, id, || {
        lotusx_rank::Ranker::with_weights(idx, config.weights())
            .rank_top_k(used, matches, limit, threads)
    });
    let kept = ranked.len();
    let results: Vec<SearchResult> = tr.span("xml.serialize", p, id, || {
        ranked
            .into_iter()
            .map(|sm| {
                let output = sm.m.project(used);
                SearchResult {
                    snippet: snippet(engine, output.first()),
                    score: sm.score,
                    bindings: sm.m.bindings,
                    output,
                }
            })
            .collect()
    });
    if let Some(c) = counts {
        c.twig_executions += executions;
        c.matches += total as u64;
        c.kept += kept as u64;
        c.rewrites += rewrites.0;
        c.rewrites_accepted += rewrites.1;
    }
    let response = QueryResponse {
        matches: results,
        total_matches: total,
        rewrite,
        completeness: Completeness::Complete,
        algorithm: Some(algorithm),
        profile: None,
    };
    tr.span("wire.encode", p, id, || wire::encode_response(&response))
}

fn keyword(
    engine: &LotusX,
    text: &str,
    top_k: Option<usize>,
    id: usize,
    p: Option<usize>,
    tr: &mut Tracer,
    counts: Option<&mut Counts>,
) -> String {
    let idx = engine.index();
    let limit = top_k.unwrap_or(engine.config().result_limit_value());
    let k = lotusx_keyword::KeywordEngine::new(idx);
    let slca = tr.span("keyword.slca", p, id, || {
        let terms = lotusx_index::tokenize(text);
        let refs: Vec<&str> = terms.iter().map(String::as_str).collect();
        k.slca(&refs).len()
    });
    let hits = tr.span("keyword.search", p, id, || k.search(text));
    let total = hits.len();
    debug_assert_eq!(slca, total);
    let results: Vec<SearchResult> = tr.span("xml.serialize", p, id, || {
        hits.into_iter()
            .take(limit)
            .map(|h| SearchResult {
                score: h.score,
                bindings: vec![h.node],
                output: vec![h.node],
                snippet: snippet(engine, Some(&h.node)),
            })
            .collect()
    });
    if let Some(c) = counts {
        c.keyword_queries += 1;
        c.keyword_hits += total as u64;
        c.keyword_kept += results.len() as u64;
    }
    let response = QueryResponse {
        matches: results,
        total_matches: total,
        rewrite: None,
        completeness: Completeness::Complete,
        algorithm: None,
        profile: None,
    };
    tr.span("wire.encode", p, id, || wire::encode_response(&response))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_and_disabled_records_nothing() {
        let mut tr = Tracer::new(true);
        let root = tr.begin("request", None, 0);
        tr.span("child", Some(root), 0, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        tr.end(root);
        assert_eq!(tr.spans.len(), 2);
        assert!(tr.self_ns(root) < tr.spans[root].ns());
        assert_eq!(tr.self_ns(root) + tr.spans[1].ns(), tr.spans[root].ns());
        let mut bare = Tracer::new(false);
        bare.span("x", None, 0, || ());
        assert!(bare.spans.is_empty());
    }

    #[test]
    fn replay_reproduces_the_engine_for_every_request_kind() {
        let xml = "<dblp><article key=\"a/1\"><author>lee</author><title>xml data</title>\
                   <year>2001</year></article><book><author>kim</author>\
                   <title>xml trees</title><publisher>acm</publisher></book></dblp>";
        let engines = [LotusX::load_str(xml).unwrap()];
        let post = |op, body: &str| Request {
            op,
            tenant: 0,
            body: body.to_string(),
            wire: Vec::new(),
        };
        let requests = [
            post(
                Op::Twig,
                r#"{"text":"//article/title","top_k":10,"algorithm":"auto"}"#,
            ),
            post(
                Op::Twig,
                r#"{"text":"//article/title","top_k":10,"algorithm":"auto"}"#,
            ),
            post(
                Op::Twig,
                r#"{"text":"//artcle/title","top_k":10,"algorithm":"auto"}"#,
            ),
            post(Op::Keyword, r#"{"text":"xml","kind":"keyword","top_k":10}"#),
            post(Op::TagComplete, r#"{"kind":"tag","prefix":"t","k":10}"#),
            post(
                Op::ValueComplete,
                r#"{"kind":"value","tag":"title","prefix":"x","k":10}"#,
            ),
        ];
        let mut replay = Replay::new(&engines);
        assert_eq!(replay.run(&requests, std::time::Duration::from_secs(60)), 6);
        assert_eq!(replay.counts.result_mismatches, 0);
        // The repeated twig query is a cache hit: timed, not replayed.
        assert_eq!(replay.core_ns.len(), 4);
        assert_eq!(
            (replay.counts.cache_hits, replay.counts.cache_lookups),
            (1, 3)
        );
        assert_eq!(replay.reconcile.core_ns.len(), 3);
        assert_eq!(replay.counts.rewrites, 1);
        assert_eq!(replay.counts.rewrites_accepted, 1);
        assert_eq!(replay.counts.keyword_queries, 1);
        let names: Vec<&str> = replay.traced.spans.iter().map(|s| s.name).collect();
        for name in [
            "twig.parse",
            "twig.choose",
            "twig.match",
            "rewrite",
            "rank",
            "xml.serialize",
            "keyword.slca",
            "keyword.search",
            "autocomplete.tag",
            "autocomplete.value",
            "wire.decode",
            "wire.encode",
        ] {
            assert!(names.contains(&name), "no {name} span");
        }
        assert!(replay.bare.spans.is_empty());
        let roots = replay.traced.spans.iter().filter(|s| s.parent.is_none());
        assert_eq!(roots.count(), 5);
    }
}
