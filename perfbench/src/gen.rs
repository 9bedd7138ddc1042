//! Seeded workload generation: the PRNG, the Zipf sampler, the request
//! populations drawn from the corpora, and the request streams of the
//! three workloads.
//!
//! Everything here is a pure function of the corpora and the seed, so the
//! same seed always yields a byte-identical stream (checked by
//! [`Stream::hash`]). The benchmark owns its PRNG and sampler instead of
//! borrowing the corpus generator's, so a change to the program cannot
//! silently change the traffic it is measured with.

use lotusx::LotusX;
use lotusx_datagen::{queries, Dataset};

/// splitmix64: small, fast, and fully specified by its seed.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)` with 53 bits of precision.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.unit() * n as f64) as usize % n
    }
}

/// Zipf over ranks `0..n`: rank `r` has weight `1 / (r + 1)^s`. Sampling
/// inverts the cumulative weights by binary search.
#[derive(Clone, Debug)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Zipf {
        assert!(n > 0, "Zipf over an empty population");
        let mut total = 0.0;
        let mut cdf = Vec::with_capacity(n);
        for r in 0..n {
            total += 1.0 / ((r + 1) as f64).powf(s);
            cdf.push(total);
        }
        for c in &mut cdf {
            *c /= total;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }

    /// Probability mass of rank `r`.
    #[cfg(test)]
    pub fn mass(&self, r: usize) -> f64 {
        self.cdf[r] - if r == 0 { 0.0 } else { self.cdf[r - 1] }
    }
}

/// Deterministic Fisher–Yates shuffle.
fn shuffle<T>(items: &mut [T], rng: &mut Rng) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.below(i + 1));
    }
}

/// 64-bit FNV-1a.
pub fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

pub const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;

/// The two tenants the server hosts.
pub const TENANTS: [(&str, Dataset, u32); 2] = [
    ("dblp", Dataset::DblpLike, 16),
    ("treebank", Dataset::TreebankLike, 4),
];
pub const DBLP: usize = 0;
pub const TREEBANK: usize = 1;

/// Seed of the generated corpora. The corpora are fixed; the workload
/// seed varies only the traffic.
pub const CORPUS_SEED: u64 = 42;

/// Seed of the fixed popularity order of the twig populations, so the
/// hot set is the same for every workload seed and cache behaviour is
/// comparable between runs.
const POPULATION_ORDER_SEED: u64 = 0x0107_05C5;

// --- workload parameters (the reasons are in README.md) ---

/// `complete`: keystrokes per second over all connections.
pub const KEYSTROKE_RATE: u64 = 5000;
/// `complete`: one `/metrics` and one `/stats` scrape per period.
pub const SCRAPE_PERIOD_MS: u64 = 100;
/// `complete`: share of typing sessions that are value completions.
pub const VALUE_SESSION_SHARE: f64 = 0.5;
/// `complete`: tags whose values are typed; `publisher` and `isbn` are
/// too rare to be among the 8 value tries built at load time.
pub const VALUE_TAGS: [&str; 6] = [
    "author",
    "title",
    "journal",
    "booktitle",
    "publisher",
    "isbn",
];
/// `complete`: Zipf exponent over a tag's values, most frequent first.
pub const VALUE_ZIPF_S: f64 = 1.0;
/// `complete`: longest prefix typed for one value.
pub const MAX_TYPED: usize = 8;
/// `twig`: treebank phrase tags whose terminal children carry predicates.
const TREEBANK_PHRASES: [&str; 4] = ["np", "vp", "pp", "adjp"];
/// `twig`: corpus terms kept per (phrase, terminal) pair.
const TREEBANK_TERMS_PER_PAIR: usize = 24;
/// `twig`: share of requests routed to the dblp tenant.
pub const TWIG_DBLP_SHARE: f64 = 0.75;
/// `twig`: Zipf exponent over each tenant's twig population.
pub const TWIG_ZIPF_S: f64 = 0.8;
/// `twig`: share of requests that are broken queries needing a rewrite.
pub const TWIG_BROKEN_SHARE: f64 = 0.03;
/// `keyword`: Zipf exponent over the dblp vocabulary, by document
/// frequency.
pub const KEYWORD_ZIPF_S: f64 = 0.8;
/// `twig` and `keyword`: results asked for.
pub const TOP_K: usize = 10;
/// `complete`: candidates asked for.
pub const COMPLETE_K: usize = 10;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    Complete,
    Twig,
    Keyword,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "complete" => Some(Workload::Complete),
            "twig" => Some(Workload::Twig),
            "keyword" => Some(Workload::Keyword),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::Complete => "complete",
            Workload::Twig => "twig",
            Workload::Keyword => "keyword",
        }
    }
}

/// What one request asks for; decides how it is checked and replayed.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Op {
    TagComplete,
    ValueComplete,
    Twig,
    Keyword,
    Metrics,
    Stats,
}

/// One generated request.
#[derive(Clone, Debug)]
pub struct Request {
    pub op: Op,
    pub tenant: usize,
    /// The JSON body (empty for scrapes).
    pub body: String,
    /// The full HTTP/1.1 request as sent.
    pub wire: Vec<u8>,
}

impl Request {
    fn post(op: Op, tenant: usize, endpoint: &str, body: String) -> Request {
        let path = format!("/t/{}/{endpoint}", TENANTS[tenant].0);
        let wire = format!(
            "POST {path} HTTP/1.1\r\nHost: lotusx\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        )
        .into_bytes();
        Request {
            op,
            tenant,
            body,
            wire,
        }
    }

    fn scrape(op: Op) -> Request {
        let path = if op == Op::Metrics {
            "/metrics"
        } else {
            "/stats"
        };
        Request {
            op,
            tenant: DBLP,
            body: String::new(),
            wire: format!("GET {path} HTTP/1.1\r\nHost: lotusx\r\n\r\n").into_bytes(),
        }
    }

    pub fn is_scrape(&self) -> bool {
        matches!(self.op, Op::Metrics | Op::Stats)
    }
}

/// A request with its place in an open-loop schedule.
#[derive(Clone, Copy, Debug)]
pub struct Slot {
    pub due_ns: u64,
    pub conn: usize,
    pub req: usize,
}

/// A generated request stream.
pub struct Stream {
    pub requests: Vec<Request>,
    /// Open loop only: when and on which connection each request goes,
    /// in due order.
    pub schedule: Option<Vec<Slot>>,
    /// Number of distinct requests the stream draws from (0 = not
    /// population-based).
    pub population: usize,
}

impl Stream {
    /// FNV-1a over every request's bytes and, for an open loop, its
    /// schedule slot.
    pub fn hash(&self) -> u64 {
        let mut h = FNV_OFFSET;
        for r in &self.requests {
            h = fnv1a(h, &r.wire);
        }
        for s in self.schedule.iter().flatten() {
            h = fnv1a(h, &s.due_ns.to_le_bytes());
            h = fnv1a(h, &(s.conn as u64).to_le_bytes());
            h = fnv1a(h, &(s.req as u64).to_le_bytes());
        }
        h
    }
}

/// What the generators need to know about the corpora.
pub struct CorpusFacts {
    /// dblp vocabulary, most frequent first (ties by term).
    pub dblp_vocabulary: Vec<String>,
    /// Per [`VALUE_TAGS`] entry: the tag's value terms, most frequent first.
    pub value_terms: Vec<Vec<String>>,
    /// treebank: `(phrase, terminal, terms)` for every terminal tag seen
    /// directly under a phrase tag, with the [`TREEBANK_TERMS_PER_PAIR`]
    /// most frequent terms of such terminals. A predicate built from one
    /// of these terms is satisfied somewhere in the corpus.
    pub treebank_pairs: Vec<(String, String, Vec<String>)>,
}

impl CorpusFacts {
    pub fn collect(dblp: &LotusX, treebank: &LotusX) -> CorpusFacts {
        let idx = dblp.index();
        let mut vocab: Vec<(&str, usize)> = idx.values().terms().collect();
        vocab.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(b.0)));
        let doc = idx.document();
        let value_terms = VALUE_TAGS
            .iter()
            .map(|tag| {
                let mut counts = std::collections::BTreeMap::<String, u64>::new();
                if let Some(sym) = doc.symbols().get(tag) {
                    for entry in idx.tags().stream(sym) {
                        for term in lotusx_index::tokenize(&doc.direct_text(entry.node)) {
                            *counts.entry(term).or_insert(0) += 1;
                        }
                    }
                }
                let mut terms: Vec<(String, u64)> = counts.into_iter().collect();
                terms.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
                terms.into_iter().map(|(t, _)| t).collect::<Vec<_>>()
            })
            .collect::<Vec<_>>();
        for (tag, terms) in VALUE_TAGS.iter().zip(&value_terms) {
            assert!(!terms.is_empty(), "dblp has no values under <{tag}>");
        }
        CorpusFacts {
            dblp_vocabulary: vocab.into_iter().map(|(t, _)| t.to_string()).collect(),
            value_terms,
            treebank_pairs: treebank_pairs(treebank.index().document()),
        }
    }
}

fn treebank_pairs(doc: &lotusx_xml::Document) -> Vec<(String, String, Vec<String>)> {
    use std::collections::BTreeMap;
    let mut pairs: BTreeMap<(&str, &str), BTreeMap<String, u64>> = BTreeMap::new();
    for node in doc.all_nodes() {
        let (Some(tag), Some(parent)) = (doc.tag_name(node), doc.parent(node)) else {
            continue;
        };
        let Some(ptag) = doc.tag_name(parent) else {
            continue;
        };
        if !TREEBANK_PHRASES.contains(&ptag) {
            continue;
        }
        for term in lotusx_index::tokenize(&doc.direct_text(node)) {
            *pairs
                .entry((ptag, tag))
                .or_default()
                .entry(term)
                .or_insert(0) += 1;
        }
    }
    pairs
        .into_iter()
        .map(|((p, c), counts)| {
            let mut terms: Vec<(String, u64)> = counts.into_iter().collect();
            terms.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
            terms.truncate(TREEBANK_TERMS_PER_PAIR);
            (
                p.to_string(),
                c.to_string(),
                terms.into_iter().map(|(t, _)| t).collect(),
            )
        })
        .collect()
}

fn json_str(s: &str) -> String {
    lotusx_obs::json_string(s)
}

/// `complete`: per-keystroke typing on `conns` connections at
/// [`KEYSTROKE_RATE`], plus one `/metrics` and one `/stats` scrape every
/// [`SCRAPE_PERIOD_MS`], all on a fixed schedule of `seconds`.
pub fn complete_stream(facts: &CorpusFacts, seed: u64, seconds: u64, conns: usize) -> Stream {
    let traces = queries::completion_traces(Dataset::DblpLike);
    let value_zipfs: Vec<Zipf> = facts
        .value_terms
        .iter()
        .map(|t| Zipf::new(t.len(), VALUE_ZIPF_S))
        .collect();
    // Each connection is one typist working through its own sessions.
    let mut typists: Vec<(Rng, std::collections::VecDeque<Request>)> = (0..conns)
        .map(|c| {
            (
                Rng::new(seed ^ (0xC0FF_EE00 + c as u64)),
                Default::default(),
            )
        })
        .collect();
    let mut next_keystroke = |c: usize| -> Request {
        let (rng, pending) = &mut typists[c];
        if pending.is_empty() {
            if rng.unit() < VALUE_SESSION_SHARE {
                let t = rng.below(VALUE_TAGS.len());
                let term = &facts.value_terms[t][value_zipfs[t].sample(rng)];
                let typed: Vec<char> = term.chars().take(MAX_TYPED).collect();
                for n in 1..=typed.len() {
                    let prefix: String = typed[..n].iter().collect();
                    let body = format!(
                        "{{\"kind\":\"value\",\"tag\":{},\"prefix\":{},\"k\":{COMPLETE_K}}}",
                        json_str(VALUE_TAGS[t]),
                        json_str(&prefix)
                    );
                    pending.push_back(Request::post(Op::ValueComplete, DBLP, "complete", body));
                }
            } else {
                let trace = &traces[rng.below(traces.len())];
                let steps: Vec<String> = trace
                    .context_path
                    .iter()
                    .map(|tag| format!("{{\"tag\":{},\"axis\":\"child\"}}", json_str(tag)))
                    .collect();
                for n in 1..=trace.intended.len() {
                    let body = format!(
                        "{{\"kind\":\"tag\",\"prefix\":{},\"k\":{COMPLETE_K},\
                         \"context\":{{\"steps\":[{}],\"axis\":\"child\"}}}}",
                        json_str(&trace.intended[..n]),
                        steps.join(",")
                    );
                    pending.push_back(Request::post(Op::TagComplete, DBLP, "complete", body));
                }
            }
        }
        pending
            .pop_front()
            .expect("a session has at least one keystroke")
    };

    let mut requests = Vec::new();
    let mut schedule = Vec::new();
    let scrape_ns = SCRAPE_PERIOD_MS * 1_000_000;
    let mut next_scrape = scrape_ns / 2;
    let mut scrape_tick = 0usize;
    for i in 0..seconds * KEYSTROKE_RATE {
        let due = i * 1_000_000_000 / KEYSTROKE_RATE;
        while next_scrape <= due {
            for (op, conn) in [
                (Op::Metrics, scrape_tick % conns),
                (Op::Stats, (scrape_tick + 1) % conns),
            ] {
                schedule.push(Slot {
                    due_ns: next_scrape,
                    conn,
                    req: requests.len(),
                });
                requests.push(Request::scrape(op));
            }
            scrape_tick += 1;
            next_scrape += scrape_ns;
        }
        let conn = i as usize % conns;
        schedule.push(Slot {
            due_ns: due,
            conn,
            req: requests.len(),
        });
        requests.push(next_keystroke(conn));
    }
    Stream {
        requests,
        schedule: Some(schedule),
        population: 0,
    }
}

/// The twig population of one tenant: D/T-style templates with value
/// predicates drawn from the corpus vocabulary, in a fixed popularity
/// order; and its broken, rewrite-triggering variants.
pub fn twig_population(facts: &CorpusFacts, tenant: usize) -> (Vec<String>, Vec<String>) {
    use lotusx_datagen::words::{NAMES, WORDS};
    let mut live = Vec::new();
    let mut broken = Vec::new();
    let dataset = TENANTS[tenant].1;
    live.extend(queries::queries(dataset).iter().map(|q| q.text.to_string()));
    broken.extend(
        queries::broken_queries(dataset)
            .iter()
            .map(|q| q.text.to_string()),
    );
    if tenant == DBLP {
        for n in NAMES {
            live.push(format!("//article[author ~ \"{n}\"]/title"));
            live.push(format!("//inproceedings[author ~ \"{n}\"]/booktitle"));
            broken.push(format!("//artcle[author ~ \"{n}\"]/title"));
            broken.push(format!("//article[writer ~ \"{n}\"]/year"));
            for y in [1975, 1985, 1995, 2005, 2015] {
                live.push(format!("//article[author ~ \"{n}\"][year >= {y}]/title"));
            }
        }
        for w in WORDS {
            live.push(format!("//article[title ~ \"{w}\"]/author"));
            live.push(format!("//inproceedings[title ~ \"{w}\"]/title"));
            live.push(format!("//book[title ~ \"{w}\"]/publisher"));
            for y in [1980, 1990, 2000, 2010] {
                live.push(format!("//article[journal ~ \"{w}\"][year >= {y}]/title"));
                live.push(format!(
                    "//inproceedings[booktitle ~ \"{w}\"][year <= {y}]/title"
                ));
            }
            for y in [1975, 1985, 1995, 2005, 2015] {
                live.push(format!("//article[year >= {y}][title ~ \"{w}\"]/author"));
                live.push(format!(
                    "//inproceedings[year <= {}][title ~ \"{w}\"]/booktitle",
                    y + 5
                ));
            }
        }
        for y in 1975..2020 {
            live.push(format!("//article[year >= {y}][author]/title"));
        }
    } else {
        for (phrase, terminal, terms) in &facts.treebank_pairs {
            for w in terms {
                live.push(format!("//{phrase}[{terminal} ~ \"{w}\"]"));
                live.push(format!("//s//{phrase}[{terminal} ~ \"{w}\"]"));
                broken.push(format!("//sentence//{phrase}[{terminal} ~ \"{w}\"]"));
            }
        }
    }
    // The canonical queries are the most popular; the rest follow in a
    // fixed shuffled order.
    let canonical = queries::queries(dataset).len();
    let mut order = Rng::new(POPULATION_ORDER_SEED ^ tenant as u64);
    shuffle(&mut live[canonical..], &mut order);
    shuffle(&mut broken, &mut order);
    (live, broken)
}

fn query_body(text: &str, kind: &str) -> String {
    if kind == "twig" {
        // The cost-model chooser is the engine's own join pick; a request
        // without it runs the pinned default algorithm instead.
        format!(
            "{{\"text\":{},\"top_k\":{TOP_K},\"algorithm\":\"auto\"}}",
            json_str(text)
        )
    } else {
        format!(
            "{{\"text\":{},\"kind\":\"keyword\",\"top_k\":{TOP_K}}}",
            json_str(text)
        )
    }
}

/// `twig`: closed-loop stream of `len` requests, [`TWIG_DBLP_SHARE`] of
/// them to dblp, each drawn by Zipf from its tenant's population, with
/// [`TWIG_BROKEN_SHARE`] broken queries mixed in.
pub fn twig_stream(facts: &CorpusFacts, seed: u64, len: usize) -> Stream {
    let pops: Vec<(Vec<String>, Vec<String>)> = (0..TENANTS.len())
        .map(|t| twig_population(facts, t))
        .collect();
    let zipfs: Vec<(Zipf, Zipf)> = pops
        .iter()
        .map(|(live, broken)| {
            (
                Zipf::new(live.len(), TWIG_ZIPF_S),
                Zipf::new(broken.len(), TWIG_ZIPF_S),
            )
        })
        .collect();
    let mut rng = Rng::new(seed ^ 0x7716_0000);
    let requests = (0..len)
        .map(|_| {
            let tenant = if rng.unit() < TWIG_DBLP_SHARE {
                DBLP
            } else {
                TREEBANK
            };
            let (live, broken) = &pops[tenant];
            let text = if rng.unit() < TWIG_BROKEN_SHARE {
                &broken[zipfs[tenant].1.sample(&mut rng)]
            } else {
                &live[zipfs[tenant].0.sample(&mut rng)]
            };
            Request::post(Op::Twig, tenant, "query", query_body(text, "twig"))
        })
        .collect();
    Stream {
        requests,
        schedule: None,
        population: pops.iter().map(|(l, b)| l.len() + b.len()).sum(),
    }
}

/// `keyword`: closed-loop stream of `len` dblp keyword queries of 1–3
/// distinct terms, each drawn by Zipf over the vocabulary.
pub fn keyword_stream(facts: &CorpusFacts, seed: u64, len: usize) -> Stream {
    let vocab = &facts.dblp_vocabulary;
    let zipf = Zipf::new(vocab.len(), KEYWORD_ZIPF_S);
    let mut rng = Rng::new(seed ^ 0x4B57_0000);
    let requests = (0..len)
        .map(|_| {
            let n = 1 + rng.below(3);
            let mut terms: Vec<&str> = Vec::with_capacity(n);
            while terms.len() < n {
                let t = vocab[zipf.sample(&mut rng)].as_str();
                if !terms.contains(&t) {
                    terms.push(t);
                }
            }
            Request::post(
                Op::Keyword,
                DBLP,
                "query",
                query_body(&terms.join(" "), "keyword"),
            )
        })
        .collect();
    Stream {
        requests,
        schedule: None,
        population: vocab.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_matches_its_distribution() {
        let zipf = Zipf::new(50, 1.0);
        let mut rng = Rng::new(7);
        let draws = 200_000;
        let mut counts = [0usize; 50];
        for _ in 0..draws {
            counts[zipf.sample(&mut rng)] += 1;
        }
        for r in [0, 1, 4, 49] {
            let expected = zipf.mass(r) * draws as f64;
            let got = counts[r] as f64;
            assert!(
                (got - expected).abs() < 5.0 * expected.sqrt() + 1.0,
                "rank {r}: expected {expected:.0}, got {got}"
            );
        }
        assert!(counts[0] > counts[1] && counts[1] > counts[4] && counts[4] > counts[49]);
    }

    #[test]
    fn zipf_exponent_zero_is_uniform_and_bounds_hold() {
        let zipf = Zipf::new(4, 0.0);
        for r in 0..4 {
            assert!((zipf.mass(r) - 0.25).abs() < 1e-12);
        }
        let one = Zipf::new(1, 1.2);
        let mut rng = Rng::new(1);
        assert!((0..100).all(|_| one.sample(&mut rng) == 0));
    }

    fn facts() -> CorpusFacts {
        CorpusFacts {
            dblp_vocabulary: ["data", "xml", "query", "smith", "tree"]
                .map(String::from)
                .to_vec(),
            value_terms: VALUE_TAGS
                .iter()
                .map(|t| vec![format!("{t}a"), format!("{t}bc")])
                .collect(),
            treebank_pairs: vec![
                ("np".into(), "nn".into(), vec!["data".into(), "tree".into()]),
                ("vp".into(), "vb".into(), vec!["join".into()]),
            ],
        }
    }

    #[test]
    fn same_seed_same_stream_other_seed_other_stream() {
        let f = facts();
        for make in [
            |f: &CorpusFacts, s| complete_stream(f, s, 2, 2),
            |f: &CorpusFacts, s| twig_stream(f, s, 500),
            |f: &CorpusFacts, s| keyword_stream(f, s, 500),
        ] {
            let (a, b, c) = (make(&f, 3), make(&f, 3), make(&f, 4));
            assert_eq!(a.hash(), b.hash());
            assert!(a
                .requests
                .iter()
                .zip(&b.requests)
                .all(|(x, y)| x.wire == y.wire));
            assert_ne!(a.hash(), c.hash());
        }
    }

    #[test]
    fn complete_schedule_is_ordered_and_paced() {
        let s = complete_stream(&facts(), 9, 2, 2);
        let schedule = s.schedule.as_ref().unwrap();
        assert!(schedule.windows(2).all(|w| w[0].due_ns <= w[1].due_ns));
        assert_eq!(schedule.len(), s.requests.len());
        let typed = s.requests.iter().filter(|r| !r.is_scrape()).count() as u64;
        assert_eq!(typed, 2 * KEYSTROKE_RATE);
        let scrapes = s.requests.iter().filter(|r| r.is_scrape()).count() as u64;
        assert_eq!(scrapes, 2 * 2 * 1000 / SCRAPE_PERIOD_MS);
        // Keystrokes alternate between the connections.
        let conns: Vec<usize> = schedule
            .iter()
            .filter(|slot| !s.requests[slot.req].is_scrape())
            .map(|slot| slot.conn)
            .take(4)
            .collect();
        assert_eq!(conns, vec![0, 1, 0, 1]);
    }

    #[test]
    fn twig_mix_follows_the_tenant_split_and_population_is_large() {
        let s = twig_stream(&facts(), 11, 20_000);
        let dblp = s.requests.iter().filter(|r| r.tenant == DBLP).count() as f64;
        assert!((dblp / 20_000.0 - TWIG_DBLP_SHARE).abs() < 0.02);
        assert!(s.population > 10 * 128, "population {}", s.population);
        for r in &s.requests {
            let v = lotusx_obs::parse_json(&r.body).unwrap();
            let text = v.get("text").and_then(|t| t.as_str()).unwrap();
            lotusx_twig::parse_query(text).unwrap_or_else(|e| panic!("{text}: {e}"));
        }
    }
}
