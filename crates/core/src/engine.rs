//! The LotusX engine: load, search, rank, rewrite.
//!
//! The engine is driven through one typed request/response pair:
//! [`QueryRequest`] (twig or keyword text plus per-request overrides, an
//! optional execution [`Budget`], and an opt-in profiling flag) and
//! [`QueryResponse`] (ranked matches, a [`Completeness`] marker, plus an
//! optional [`QueryProfile`] with the stage-timing tree). Configuration
//! travels as a validated [`EngineConfig`] value applied atomically with
//! [`LotusX::reconfigure`].
//!
//! Budgeted queries degrade gracefully: when a deadline or quota trips
//! mid-query the engine stops at the next cooperative checkpoint and
//! returns the best results found so far, marked
//! [`Completeness::Truncated`] — never an error, and never silently
//! passed off as a complete answer. Truncated outcomes are not cached.

use lotusx_autocomplete::{CompletionEngine, ValueTrieCache};
use lotusx_guard::{Budget, Completeness, QueryGuard, TruncationReason};
use lotusx_index::IndexedDocument;
use lotusx_obs::{EventKind, QueryId, QueryProfile, Span, Stage};
use lotusx_par::{CacheStats, ShardLoad, ShardedLru};
use lotusx_rank::{OrderedTopK, RankWeights, Ranker};
use lotusx_rewrite::{Rewriter, RewriterConfig};
use lotusx_twig::exec::{execute_budgeted, Algorithm};
use lotusx_twig::matcher::TwigMatch;
use lotusx_twig::pattern::TwigPattern;
use lotusx_twig::xpath::{parse_query, ParseError};
use lotusx_xml::{Document, NodeId, SerializeOptions};
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;

/// Errors surfaced by the engine.
#[derive(Debug)]
#[non_exhaustive]
pub enum LotusError {
    /// The XML input failed to parse.
    Xml(lotusx_xml::Error),
    /// The query text failed to parse (the message carries the byte
    /// offset and a caret snippet of the offending input).
    Query(ParseError),
    /// The file could not be read.
    Io(std::io::Error),
    /// A binary snapshot could not be read or written. Carries the
    /// structured [`lotusx_storage::StorageError`] so callers can
    /// distinguish corruption from version skew from I/O failure.
    Storage(lotusx_storage::StorageError),
    /// An [`EngineConfig`] failed validation.
    Config(String),
    /// This query panicked while running in a batch. Only the panicking
    /// slot fails; sibling queries in the same [`LotusX::query_batch`]
    /// call still return their results.
    WorkerPanic(WorkerPanic),
}

impl fmt::Display for LotusError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LotusError::Xml(e) => write!(f, "XML error: {e}"),
            LotusError::Query(e) => write!(f, "query error: {e}"),
            LotusError::Io(e) => write!(f, "I/O error: {e}"),
            LotusError::Storage(e) => write!(f, "snapshot error: {e}"),
            LotusError::Config(e) => write!(f, "configuration error: {e}"),
            LotusError::WorkerPanic(e) => write!(f, "worker panic: {e}"),
        }
    }
}

impl std::error::Error for LotusError {}

impl From<lotusx_xml::Error> for LotusError {
    fn from(e: lotusx_xml::Error) -> Self {
        LotusError::Xml(e)
    }
}
impl From<ParseError> for LotusError {
    fn from(e: ParseError) -> Self {
        LotusError::Query(e)
    }
}
impl From<std::io::Error> for LotusError {
    fn from(e: std::io::Error) -> Self {
        LotusError::Io(e)
    }
}
impl From<WorkerPanic> for LotusError {
    fn from(e: WorkerPanic) -> Self {
        LotusError::WorkerPanic(e)
    }
}
impl From<lotusx_storage::StorageError> for LotusError {
    fn from(e: lotusx_storage::StorageError) -> Self {
        LotusError::Storage(e)
    }
}

/// A panic caught while running one request of a
/// [`LotusX::query_batch`] call: which request died and its panic
/// message. The payload is dropped at the catch site, so the rest of the
/// batch still runs and the caller gets a structured error instead of an
/// unwinding thread.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WorkerPanic {
    /// Position of the panicking request in the batch.
    pub index: usize,
    /// The panic message, when it was a `&str` or `String` payload.
    pub message: String,
}

impl fmt::Display for WorkerPanic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "request {} panicked: {}", self.index, self.message)
    }
}

impl std::error::Error for WorkerPanic {}

/// Renders a panic payload as text (`&str` / `String` payloads; anything
/// else becomes a placeholder).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Runs `run` on each item in order, catching a panic per item: a
/// panicking item becomes [`LotusError::WorkerPanic`] in its slot (and
/// bumps the `worker_panics` counter) while the others run normally.
fn run_isolated<T, U>(
    items: &[T],
    run: impl Fn(&T) -> Result<U, LotusError>,
) -> Vec<Result<U, LotusError>> {
    items
        .iter()
        .enumerate()
        .map(|(index, item)| {
            catch_unwind(AssertUnwindSafe(|| run(item))).unwrap_or_else(|payload| {
                lotusx_obs::metrics().incr("worker_panics", 1);
                Err(LotusError::WorkerPanic(WorkerPanic {
                    index,
                    message: panic_message(payload.as_ref()),
                }))
            })
        })
        .collect()
}

/// The engine's full configuration as one validated value.
///
/// Build one with the fluent setters and apply it atomically with
/// [`LotusX::reconfigure`]; read the active one back with
/// [`LotusX::config`]:
///
/// ```
/// use lotusx::{engine::EngineConfig, Algorithm, LotusX};
///
/// let mut system = LotusX::load_str("<a><b/></a>").unwrap();
/// let config = system
///     .config()
///     .clone()
///     .algorithm(Algorithm::TJFast)
///     .result_limit(10);
/// system.reconfigure(config).unwrap();
/// ```
#[derive(Clone, Debug)]
pub struct EngineConfig {
    algorithm: Option<Algorithm>,
    weights: RankWeights,
    rewriter: RewriterConfig,
    auto_rewrite: bool,
    result_limit: usize,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            algorithm: Some(Algorithm::TwigStack),
            weights: RankWeights::default(),
            rewriter: RewriterConfig::default(),
            auto_rewrite: true,
            result_limit: 100,
        }
    }
}

impl EngineConfig {
    /// The default configuration (TwigStack pinned, auto-rewrite on,
    /// 100 results).
    pub fn new() -> Self {
        Self::default()
    }

    /// Pins the join algorithm.
    pub fn algorithm(mut self, algorithm: Algorithm) -> Self {
        self.algorithm = Some(algorithm);
        self
    }

    /// Lets the engine pick an algorithm per query from its shape and the
    /// streams' selectivity (see `lotusx_twig::select_algorithm`).
    pub fn auto_algorithm(mut self) -> Self {
        self.algorithm = None;
        self
    }

    /// Sets the ranking weights.
    pub fn rank_weights(mut self, weights: RankWeights) -> Self {
        self.weights = weights;
        self
    }

    /// Sets the empty-result rewriter's search budget.
    pub fn rewriter(mut self, config: RewriterConfig) -> Self {
        self.rewriter = config;
        self
    }

    /// Enables/disables automatic rewriting of empty-result queries.
    pub fn auto_rewrite(mut self, on: bool) -> Self {
        self.auto_rewrite = on;
        self
    }

    /// Sets how many ranked results a search returns.
    pub fn result_limit(mut self, limit: usize) -> Self {
        self.result_limit = limit;
        self
    }

    /// The pinned algorithm (`None` = per-query auto-selection).
    pub fn pinned_algorithm(&self) -> Option<Algorithm> {
        self.algorithm
    }

    /// The ranking weights.
    pub fn weights(&self) -> RankWeights {
        self.weights
    }

    /// The rewriter budget.
    pub fn rewriter_config(&self) -> RewriterConfig {
        self.rewriter
    }

    /// Whether empty-result queries are rewritten automatically.
    pub fn auto_rewrite_enabled(&self) -> bool {
        self.auto_rewrite
    }

    /// The ranked-result limit.
    pub fn result_limit_value(&self) -> usize {
        self.result_limit
    }

    /// Always 1: every query runs on its caller's thread. Kept only for
    /// the end-to-end benchmark harness, which reads it.
    pub fn threads_value(&self) -> usize {
        1
    }

    /// Checks the configuration for nonsensical values.
    pub fn validate(&self) -> Result<(), LotusError> {
        for (name, w) in [
            ("structure", self.weights.structure),
            ("content", self.weights.content),
            ("specificity", self.weights.specificity),
        ] {
            if !w.is_finite() || w < 0.0 {
                return Err(LotusError::Config(format!(
                    "rank weight `{name}` must be finite and non-negative, got {w}"
                )));
            }
        }
        if !self.rewriter.max_cost.is_finite() || self.rewriter.max_cost < 0.0 {
            return Err(LotusError::Config(format!(
                "rewriter max_cost must be finite and non-negative, got {}",
                self.rewriter.max_cost
            )));
        }
        Ok(())
    }

    /// Whether `self` and `other` can produce different query outcomes
    /// (everything except the thread count, which never changes results).
    fn affects_results_differently(&self, other: &EngineConfig) -> bool {
        let w = |x: RankWeights| {
            (
                x.structure.to_bits(),
                x.content.to_bits(),
                x.specificity.to_bits(),
            )
        };
        let r = |x: RewriterConfig| {
            (
                x.max_rewrites,
                x.max_expansions,
                x.max_cost.to_bits(),
                x.spell_distance,
                x.guide_pruning,
            )
        };
        self.algorithm != other.algorithm
            || w(self.weights) != w(other.weights)
            || r(self.rewriter) != r(other.rewriter)
            || self.auto_rewrite != other.auto_rewrite
            || self.result_limit != other.result_limit
    }
}

/// What a [`QueryRequest`] asks the engine to run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum QueryKind {
    /// A twig (XPath-like) pattern, parsed from the request text.
    Twig,
    /// Free-text keyword (SLCA) search.
    Keyword,
}

/// One query as the engine runs it: the text, what kind of search it is,
/// per-request overrides, and whether to profile the execution.
#[derive(Clone, Debug)]
pub struct QueryRequest {
    /// The query text (twig syntax or whitespace-separated keywords).
    pub text: String,
    /// Twig pattern or keyword search.
    pub kind: QueryKind,
    /// Per-request result limit (`None` = the engine's configured limit).
    pub top_k: Option<usize>,
    /// Per-request join algorithm (`None` = the engine's configuration;
    /// ignored by keyword searches).
    pub algorithm: Option<Algorithm>,
    /// Execution budget: wall-clock deadline, work quotas and/or a
    /// cancellation token. The default is unlimited. When a limit trips
    /// the response carries the best results found so far and is marked
    /// [`Completeness::Truncated`].
    pub budget: Budget,
    /// Ask for a [`QueryProfile`] in the response. Profiling never
    /// changes the computed matches.
    pub profile: bool,
}

impl QueryRequest {
    /// A twig query over `text` with engine-default settings.
    pub fn twig(text: impl Into<String>) -> Self {
        QueryRequest {
            text: text.into(),
            kind: QueryKind::Twig,
            top_k: None,
            algorithm: None,
            budget: Budget::unlimited(),
            profile: false,
        }
    }

    /// A keyword (SLCA) query over `text`.
    pub fn keyword(text: impl Into<String>) -> Self {
        QueryRequest {
            kind: QueryKind::Keyword,
            ..Self::twig(text)
        }
    }

    /// Limits this request to the best `k` results.
    pub fn top_k(mut self, k: usize) -> Self {
        self.top_k = Some(k);
        self
    }

    /// Pins the join algorithm for this request only.
    pub fn algorithm(mut self, algorithm: Algorithm) -> Self {
        self.algorithm = Some(algorithm);
        self
    }

    /// Caps this request's execution with `budget`.
    pub fn budget(mut self, budget: Budget) -> Self {
        self.budget = budget;
        self
    }

    /// Shorthand: caps this request at a wall-clock deadline of `ms`
    /// milliseconds.
    pub fn deadline_ms(self, ms: u64) -> Self {
        let budget = self
            .budget
            .clone()
            .with_deadline(std::time::Duration::from_millis(ms));
        self.budget(budget)
    }

    /// Asks for (or suppresses) a per-query profile.
    pub fn profiled(mut self, on: bool) -> Self {
        self.profile = on;
        self
    }
}

/// The engine's answer to one [`QueryRequest`].
#[derive(Clone, Debug)]
pub struct QueryResponse {
    /// Ranked results (best first), truncated to the effective limit.
    pub matches: Vec<SearchResult>,
    /// Total number of matches before truncation.
    pub total_matches: usize,
    /// If the original query was empty and a rewrite produced these
    /// results: the rewritten query and what was changed.
    pub rewrite: Option<RewriteInfo>,
    /// Whether the query ran to completion or was cut short by its
    /// [`Budget`]. Truncated responses still hold valid matches — every
    /// result returned is a true answer — but the set may be a prefix of
    /// what an unbudgeted run would find.
    pub completeness: Completeness,
    /// The join algorithm that produced these matches — the chooser's
    /// pick when the configuration or request said [`Algorithm::Auto`].
    /// Cache hits report the algorithm of the original execution;
    /// keyword searches report `None`. Not part of the wire encoding:
    /// identical answers stay byte-identical regardless of which
    /// algorithm produced them.
    pub algorithm: Option<Algorithm>,
    /// The execution profile, present iff the request asked for one.
    pub profile: Option<QueryProfile>,
}

/// One ranked search result.
#[derive(Clone, Debug)]
pub struct SearchResult {
    /// The LotusScore (higher = better).
    pub score: f64,
    /// The full binding vector (query node index → element).
    pub bindings: Vec<NodeId>,
    /// Bindings of the pattern's output nodes.
    pub output: Vec<NodeId>,
    /// Serialized subtree of the first output node.
    pub snippet: String,
}

/// The outcome of one search: ranked results plus rewrite provenance.
#[derive(Clone, Debug)]
pub struct SearchOutcome {
    /// Ranked results (best first), truncated to the configured limit.
    pub results: Vec<SearchResult>,
    /// Total number of matches before truncation.
    pub total_matches: usize,
    /// If the original query was empty and a rewrite produced these
    /// results: the rewritten query and what was changed.
    pub rewrite: Option<RewriteInfo>,
    /// Whether the search ran to completion or was cut short by a budget.
    pub completeness: Completeness,
    /// The join algorithm that produced these results (`None` when no
    /// join ran, e.g. an exhausted budget). Memoized with the outcome, so
    /// a cache hit reports the algorithm of the original execution.
    pub algorithm: Option<Algorithm>,
}

/// Provenance of an automatic rewrite.
#[derive(Clone, Debug)]
pub struct RewriteInfo {
    /// The query that was actually executed.
    pub pattern: TwigPattern,
    /// Total relaxation penalty.
    pub cost: f64,
    /// Human-readable descriptions of the applied operators.
    pub ops: Vec<String>,
}

/// Number of hottest tags whose value-completion tries are prebuilt at
/// load time.
const HOT_TAG_TRIES: usize = 8;

/// Capacity of the query-result LRU cache.
const QUERY_CACHE_CAPACITY: usize = 128;

/// Shard count of the query-result LRU cache: enough that concurrent
/// queries rarely contend on one shard mutex, few enough that per-shard
/// stats stay readable.
const QUERY_CACHE_SHARDS: usize = 8;

/// Runs one pipeline stage: `f` gets a child span when the query is
/// profiled, the stage's wall time lands in the global histogram when
/// recording is on, and stage begin/end events tagged with `qid` go to
/// the trace ring when tracing is on. With all three off this is the
/// bare call.
fn run_stage<T>(
    span: Option<&Span>,
    stage: Stage,
    recording: bool,
    qid: QueryId,
    f: impl FnOnce(Option<&Span>) -> T,
) -> T {
    lotusx_obs::emit(
        qid,
        EventKind::StageBegin {
            stage: stage.name(),
        },
    );
    let started = recording.then(Instant::now);
    let out = match span {
        Some(parent) => {
            let child = parent.child(stage.name());
            f(Some(&child))
        }
        None => f(None),
    };
    if let Some(t0) = started {
        lotusx_obs::metrics().record_stage(stage, t0.elapsed().as_nanos() as u64);
    }
    lotusx_obs::emit(
        qid,
        EventKind::StageEnd {
            stage: stage.name(),
        },
    );
    out
}

/// Stable counter name for one chooser decision (`algo_chosen_*` in the
/// metrics snapshot, `stats`, and the `top` live view).
fn chosen_counter(algorithm: Algorithm) -> &'static str {
    match algorithm {
        Algorithm::Naive => "algo_chosen_naive",
        Algorithm::StructuralJoin => "algo_chosen_structural_join",
        Algorithm::PathStack => "algo_chosen_pathstack",
        Algorithm::TwigStack => "algo_chosen_twigstack",
        Algorithm::TJFast => "algo_chosen_tjfast",
        Algorithm::TwigStackGuided => "algo_chosen_twigstack_guided",
        Algorithm::Auto => "algo_chosen_auto",
    }
}

/// Records degradation metrics (degraded-response and deadline counters,
/// the deadline-overshoot histogram) for a truncated outcome. A no-op for
/// complete outcomes or when recording is off.
fn note_degradation(recording: bool, guard: &QueryGuard, completeness: Completeness) {
    let Some(reason) = completeness.truncation_reason() else {
        return;
    };
    if !recording {
        return;
    }
    let m = lotusx_obs::metrics();
    m.incr("degraded_responses", 1);
    if reason == TruncationReason::DeadlineExceeded {
        m.incr("queries_deadline_exceeded", 1);
        if let Some(overshoot) = guard.deadline_overshoot() {
            m.record_named("deadline_overshoot", overshoot.as_nanos() as u64);
        }
    }
}

/// The LotusX system over one loaded document.
///
/// `LotusX` is `Send + Sync`: searches and completions take `&self` and
/// may run concurrently from many threads. The two internal caches (query
/// results, per-tag value tries) are thread-safe and shared across all
/// callers.
pub struct LotusX {
    idx: IndexedDocument,
    config: EngineConfig,
    /// Per-tag value-completion tries, shared with every engine handed
    /// out by [`Self::completion_engine`].
    value_cache: Arc<ValueTrieCache>,
    /// Memoized outcomes keyed by normalized pattern + effective limit +
    /// per-request algorithm + config generation. Sharded so concurrent
    /// queries on different keys never contend on one mutex.
    query_cache: ShardedLru<String, SearchOutcome>,
    /// Bumped by every result-affecting reconfiguration; stale cache keys
    /// never match again and age out of the LRU.
    config_generation: u64,
}

impl LotusX {
    /// Parses and indexes an XML string.
    pub fn load_str(xml: &str) -> Result<Self, LotusError> {
        Ok(Self::load_document(Document::parse_str(xml)?))
    }

    /// Reads, parses and indexes an XML file. Files with the `.ltsx`
    /// extension are opened as LotusX binary snapshots instead.
    ///
    /// This is a thin shim over [`Self::open`] with
    /// [`CorpusSource::from_path`].
    pub fn load_file(path: impl AsRef<std::path::Path>) -> Result<Self, LotusError> {
        Self::open(&crate::source::CorpusSource::from_path(path.as_ref()))
    }

    /// Opens any corpus source — XML file, `.ltsx` snapshot, generated
    /// dataset spec or inline XML — through one entry point. See
    /// [`CorpusSource`](crate::source::CorpusSource) for the accepted
    /// forms.
    pub fn open(source: &crate::source::CorpusSource) -> Result<Self, LotusError> {
        use crate::source::CorpusSource;
        match source {
            CorpusSource::XmlFile(path) => {
                let xml = std::fs::read_to_string(path)?;
                Self::load_str(&xml)
            }
            CorpusSource::Snapshot(path) => Self::open_snapshot(path),
            CorpusSource::Spec {
                dataset,
                scale,
                seed,
            } => Ok(Self::load_document(lotusx_datagen::generate(
                *dataset, *scale, *seed,
            ))),
            CorpusSource::Inline(xml) => Self::load_str(xml),
        }
    }

    /// Saves the **entire index set** — document tree, labels, tag/value
    /// indexes, completion tries, DataGuide and statistics tables — as a
    /// sectioned, checksummed binary snapshot that [`Self::open_snapshot`]
    /// reopens with bulk reads instead of a rebuild. The write is atomic:
    /// the snapshot is staged in a temp file beside the target, fsynced
    /// and renamed into place, so a crash never leaves a torn file.
    pub fn save_snapshot(&self, path: impl AsRef<std::path::Path>) -> Result<(), LotusError> {
        let mut sections = lotusx_index::snapshot::encode_sections(&self.idx);
        // The warm value-trie cache rides along so a reopened snapshot
        // starts with the same hot completion set instead of rebuilding it.
        sections.push(lotusx_storage::Section {
            id: lotusx_storage::snapshot::section::VALUE_TRIES,
            bytes: self.value_cache.encode(),
        });
        lotusx_storage::write_snapshot_file(path, &sections)?;
        Ok(())
    }

    /// Opens a binary snapshot written by [`Self::save_snapshot`].
    ///
    /// Version negotiation: v2 snapshots deserialize every index
    /// structure directly into place (no re-parsing, re-labeling or stats
    /// re-walks); legacy v1 document-only snapshots still open by
    /// decoding the tree and rebuilding the indexes.
    pub fn open_snapshot(path: impl AsRef<std::path::Path>) -> Result<Self, LotusError> {
        let snapshot = lotusx_storage::read_snapshot_file(path)?;
        if snapshot.version == 1 {
            let payload = snapshot
                .section(lotusx_storage::snapshot::section::DOCUMENT)
                .ok_or(LotusError::Storage(lotusx_storage::StorageError::Corrupt(
                    "v1 snapshot without document payload",
                )))?;
            let doc = lotusx_storage::decode_document_payload(payload)?;
            return Ok(Self::load_document(doc));
        }
        let idx = lotusx_index::snapshot::decode_sections(&snapshot.sections)?;
        // Restore the shipped value-trie cache when present (duplicates
        // are corruption); snapshots without one rebuild the hot set.
        let mut vtries = snapshot
            .sections
            .iter()
            .filter(|s| s.id == lotusx_storage::snapshot::section::VALUE_TRIES);
        match (vtries.next(), vtries.next()) {
            (Some(s), None) => {
                let cache = ValueTrieCache::decode(&s.bytes, idx.document().symbols().len())?;
                Ok(Self::assemble(idx, cache))
            }
            (None, None) => Ok(Self::from_indexed(idx)),
            _ => Err(LotusError::Storage(lotusx_storage::StorageError::Corrupt(
                "duplicate snapshot section",
            ))),
        }
    }

    /// Wraps an already-indexed document in a fresh engine (new caches,
    /// default configuration), pre-building the value tries of the
    /// hottest tags exactly as [`Self::load_document`] does.
    pub fn from_indexed(idx: IndexedDocument) -> Self {
        let value_cache = ValueTrieCache::new();
        value_cache.precompute_hottest(&idx, HOT_TAG_TRIES);
        Self::assemble(idx, value_cache)
    }

    /// Pairs an index with an already-warm value-trie cache (the snapshot
    /// fast path: no trie rebuilds at all).
    fn assemble(idx: IndexedDocument, value_cache: ValueTrieCache) -> Self {
        LotusX {
            idx,
            config: EngineConfig::default(),
            value_cache: Arc::new(value_cache),
            query_cache: ShardedLru::new(QUERY_CACHE_CAPACITY, QUERY_CACHE_SHARDS),
            config_generation: 0,
        }
    }

    /// Consumes the engine, returning the indexed document.
    pub fn into_index(self) -> IndexedDocument {
        self.idx
    }

    /// Indexes an already-parsed document and pre-builds the value tries
    /// of the hottest tags.
    pub fn load_document(doc: Document) -> Self {
        Self::from_indexed(IndexedDocument::build(doc))
    }

    /// The underlying indexed document.
    pub fn index(&self) -> &IndexedDocument {
        &self.idx
    }

    /// The active configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Validates and applies `config` atomically. The query cache is
    /// invalidated iff a result-affecting knob changed (everything except
    /// the thread count). On error nothing changes.
    pub fn reconfigure(&mut self, config: EngineConfig) -> Result<(), LotusError> {
        config.validate()?;
        if self.config.affects_results_differently(&config) {
            self.config_generation += 1;
        }
        self.config = config;
        Ok(())
    }

    /// The pinned join algorithm (the default when auto-selection is on).
    pub fn algorithm(&self) -> Algorithm {
        self.config.algorithm.unwrap_or(Algorithm::TwigStack)
    }

    /// Resolves the effective join algorithm for one execution. A pinned
    /// concrete algorithm passes through; `Algorithm::Auto` (per request
    /// or configuration) and an unset configuration run the cost-model
    /// chooser, recording the decision as an `algo_chosen_*` counter and
    /// an [`EventKind::AlgoChosen`] trace event.
    fn algorithm_for(
        &self,
        pattern: &TwigPattern,
        request_override: Option<Algorithm>,
        recording: bool,
        qid: QueryId,
    ) -> Algorithm {
        match request_override.or(self.config.algorithm) {
            Some(Algorithm::Auto) | None => {
                let choice = lotusx_twig::choose_algorithm(&self.idx, pattern);
                if recording {
                    lotusx_obs::metrics().incr(chosen_counter(choice.algorithm), 1);
                }
                lotusx_obs::emit(
                    qid,
                    EventKind::AlgoChosen {
                        algorithm: choice.algorithm.name(),
                    },
                );
                choice.algorithm
            }
            Some(pinned) => pinned,
        }
    }

    /// Aggregate hit/miss statistics of the query-result cache.
    pub fn query_cache_stats(&self) -> CacheStats {
        self.query_cache.stats()
    }

    /// Per-shard hit/miss statistics of the query-result cache, in shard
    /// order — a hot query hammering one shard shows up as an outlier.
    pub fn query_cache_shard_stats(&self) -> Vec<CacheStats> {
        self.query_cache.per_shard_stats()
    }

    /// Number of per-tag value-completion tries currently cached.
    pub fn value_trie_cache_len(&self) -> usize {
        self.value_cache.len()
    }

    /// Per-shard hit/miss/occupancy counters of the value-trie cache.
    pub fn value_trie_shard_stats(&self) -> Vec<ShardLoad> {
        self.value_cache.shard_stats()
    }

    /// Runs one [`QueryRequest`].
    ///
    /// Twig outcomes are memoized in a thread-safe LRU keyed by the
    /// normalized pattern text plus the request's effective limit and
    /// algorithm override, so repeating a query (even spelled differently,
    /// e.g. with extra whitespace) is a cache hit until a result-affecting
    /// reconfiguration invalidates the cache. Keyword searches are not
    /// cached. Profiling ([`QueryRequest::profile`]) never changes the
    /// matches — responses are identical with it on or off.
    pub fn query(&self, request: &QueryRequest) -> Result<QueryResponse, LotusError> {
        match request.kind {
            QueryKind::Twig => self.query_twig(request),
            QueryKind::Keyword => Ok(self.query_keyword(request)),
        }
    }

    /// Runs many requests in order on the calling thread. The result at
    /// position `i` is exactly `self.query(&requests[i])`.
    ///
    /// Panics are isolated per request: a panic while running one
    /// request surfaces as [`LotusError::WorkerPanic`] in that slot while
    /// every other request still completes normally.
    pub fn query_batch(&self, requests: &[QueryRequest]) -> Vec<Result<QueryResponse, LotusError>> {
        run_isolated(requests, |r| self.query(r))
    }

    /// Profiles one twig query: shorthand for a profiled [`Self::query`],
    /// returning just the [`QueryProfile`] the CLI renders as `explain`.
    pub fn explain(&self, query: &str) -> Result<QueryProfile, LotusError> {
        let request = QueryRequest::twig(query).profiled(true);
        let response = self.query(&request)?;
        Ok(response
            .profile
            .expect("profiled requests always carry a profile"))
    }

    fn query_twig(&self, request: &QueryRequest) -> Result<QueryResponse, LotusError> {
        let recording = lotusx_obs::enabled();
        let tracing = lotusx_obs::tracing();
        let qid = if tracing {
            lotusx_obs::next_query_id()
        } else {
            QueryId::NONE
        };
        lotusx_obs::emit(qid, EventKind::QueryBegin);
        let started = recording.then(Instant::now);
        // Sampled always-on profiling: 1-in-N queries build the full span
        // tree even without `request.profile`, feeding the exemplar store.
        // The profile is attached to the response only when asked for, so
        // sampling never changes what the caller sees.
        let sampled = request.profile || lotusx_obs::sampler().should_sample();
        let root = sampled.then(|| Span::new("query"));
        let span = root.as_ref();
        let guard = QueryGuard::new(&request.budget);
        guard.set_trace_id(qid.0);

        let parsed = run_stage(span, Stage::Parse, recording, qid, |_| {
            parse_query(&request.text)
        });
        let pattern = match parsed {
            Ok(p) => p,
            Err(e) => {
                if recording {
                    lotusx_obs::metrics().incr("query_errors", 1);
                }
                lotusx_obs::emit(
                    qid,
                    EventKind::QueryEnd {
                        cache_hit: false,
                        truncated: false,
                        results: 0,
                    },
                );
                return Err(e.into());
            }
        };

        let limit = request.top_k.unwrap_or(self.config.result_limit);
        let key = format!(
            "g{}|k{}|a{}|{}",
            self.config_generation,
            limit,
            request.algorithm.map(|a| a.name()).unwrap_or("-"),
            pattern
        );

        let cached = self.query_cache.get(&key);
        let hit = cached.is_some();
        if recording {
            let m = lotusx_obs::metrics();
            m.incr("queries", 1);
            m.incr(if hit { "cache_hit" } else { "cache_miss" }, 1);
        }
        if tracing {
            lotusx_obs::emit(
                qid,
                EventKind::CacheAccess {
                    shard: self.query_cache.shard_for(&key) as u32,
                    hit,
                },
            );
        }

        let (outcome, executed_algorithm) = match cached {
            // Cache hits are always complete answers (truncated outcomes
            // are never inserted), so they satisfy any budget as-is.
            Some(outcome) => ((*outcome).clone(), None),
            // Exhausted before any work ran (zero budget, pre-cancelled
            // token, or the deadline already passed): nothing but the
            // truncation marker.
            None if guard.checkpoint() => (
                SearchOutcome {
                    results: Vec::new(),
                    total_matches: 0,
                    rewrite: None,
                    completeness: guard.completeness(),
                    algorithm: None,
                },
                None,
            ),
            None => {
                let (outcome, algorithm) = self.run_pattern(
                    &pattern,
                    limit,
                    request.algorithm,
                    span,
                    recording,
                    qid,
                    &guard,
                );
                if outcome.completeness.is_complete() {
                    self.query_cache.insert(key, outcome.clone());
                }
                (outcome, Some(algorithm))
            }
        };
        note_degradation(recording, &guard, outcome.completeness);

        if let Some(t0) = started {
            let total_ns = t0.elapsed().as_nanos() as u64;
            let m = lotusx_obs::metrics();
            m.record_stage(Stage::Total, total_ns);
            m.slow_queries().record(&request.text, total_ns);
        }

        let profile = root.map(|r| {
            r.annotate("cache", if hit { "hit" } else { "miss" });
            if let Some(reason) = outcome.completeness.truncation_reason() {
                r.annotate("truncated", reason.name());
            }
            QueryProfile {
                query: request.text.clone(),
                executed: pattern.to_string(),
                algorithm: executed_algorithm.map(|a| a.name().to_string()),
                cache_hit: hit,
                candidates: outcome.total_matches,
                results: outcome.results.len(),
                rewritten: outcome.rewrite.as_ref().map(|i| i.pattern.to_string()),
                span: r.finish(),
            }
        });
        if let Some(p) = profile.as_ref() {
            lotusx_obs::metrics().exemplars().observe(p);
        }

        lotusx_obs::emit(
            qid,
            EventKind::QueryEnd {
                cache_hit: hit,
                truncated: !outcome.completeness.is_complete(),
                results: outcome.results.len() as u32,
            },
        );

        Ok(QueryResponse {
            algorithm: outcome.algorithm,
            matches: outcome.results,
            total_matches: outcome.total_matches,
            rewrite: outcome.rewrite,
            completeness: outcome.completeness,
            profile: if request.profile { profile } else { None },
        })
    }

    fn query_keyword(&self, request: &QueryRequest) -> QueryResponse {
        let recording = lotusx_obs::enabled();
        let tracing = lotusx_obs::tracing();
        let qid = if tracing {
            lotusx_obs::next_query_id()
        } else {
            QueryId::NONE
        };
        lotusx_obs::emit(qid, EventKind::QueryBegin);
        let started = recording.then(Instant::now);
        let sampled = request.profile || lotusx_obs::sampler().should_sample();
        let root = sampled.then(|| Span::new("query"));
        let limit = request.top_k.unwrap_or(self.config.result_limit);
        // The guard is charged through the SLCA scan and the scoring
        // sweep; a trip keeps the best answers scored so far, marked
        // truncated. An exhausted budget never starts the search.
        let guard = QueryGuard::new(&request.budget);
        guard.set_trace_id(qid.0);
        let exhausted = guard.checkpoint();

        let (results, total_matches) = if exhausted {
            (Vec::new(), 0)
        } else {
            run_stage(root.as_ref(), Stage::Keyword, recording, qid, |span| {
                let engine = lotusx_keyword::KeywordEngine::new(&self.idx);
                let doc = self.idx.document();
                // Rank through a bounded heap: same order as sorting every
                // hit (score descending, then node id), and only the kept
                // hits are serialized.
                let mut top = OrderedTopK::new(limit);
                let mut ticker = guard.ticker();
                let total = engine.search_each(
                    &request.text,
                    |steps| ticker.tick(steps),
                    |node, score| top.push(score, node),
                );
                if let Some(s) = span {
                    s.annotate("hits", total);
                }
                let results: Vec<SearchResult> = top
                    .into_sorted()
                    .into_iter()
                    .map(|(score, node)| SearchResult {
                        score,
                        bindings: vec![node],
                        output: vec![node],
                        snippet: doc.serialize(node, SerializeOptions::default()),
                    })
                    .collect();
                (results, total)
            })
        };
        note_degradation(recording, &guard, guard.completeness());

        if let Some(t0) = started {
            let total_ns = t0.elapsed().as_nanos() as u64;
            let m = lotusx_obs::metrics();
            m.incr("queries", 1);
            m.incr("keyword_queries", 1);
            m.record_stage(Stage::Total, total_ns);
            m.slow_queries().record(&request.text, total_ns);
        }

        let profile = root.map(|r| QueryProfile {
            query: request.text.clone(),
            executed: request.text.clone(),
            algorithm: None,
            cache_hit: false,
            candidates: total_matches,
            results: results.len(),
            rewritten: None,
            span: r.finish(),
        });
        if let Some(p) = profile.as_ref() {
            lotusx_obs::metrics().exemplars().observe(p);
        }

        let completeness = guard.completeness();
        lotusx_obs::emit(
            qid,
            EventKind::QueryEnd {
                cache_hit: false,
                truncated: !completeness.is_complete(),
                results: results.len() as u32,
            },
        );

        QueryResponse {
            matches: results,
            total_matches,
            rewrite: None,
            completeness,
            algorithm: None,
            profile: if request.profile { profile } else { None },
        }
    }

    /// Runs a twig pattern: execute → (rewrite if empty) → rank. This is
    /// the canvas-level entry (no query text, no cache) used by
    /// `Session::run`.
    pub fn search_pattern(&self, pattern: &TwigPattern) -> SearchOutcome {
        let recording = lotusx_obs::enabled();
        self.run_pattern(
            pattern,
            self.config.result_limit,
            None,
            None,
            recording,
            QueryId::NONE,
            &QueryGuard::unlimited(),
        )
        .0
    }

    /// Executes, possibly rewrites, ranks and serializes one pattern.
    /// Returns the outcome and the join algorithm of the last execution.
    #[allow(clippy::too_many_arguments)]
    fn run_pattern(
        &self,
        pattern: &TwigPattern,
        limit: usize,
        algorithm_override: Option<Algorithm>,
        span: Option<&Span>,
        recording: bool,
        qid: QueryId,
        guard: &QueryGuard,
    ) -> (SearchOutcome, Algorithm) {
        let algorithm = self.algorithm_for(pattern, algorithm_override, recording, qid);
        let matches = run_stage(span, Stage::Match, recording, qid, |s| {
            execute_budgeted(&self.idx, pattern, algorithm, 1, s, guard)
        });
        // A tripped guard suppresses rewriting: a truncated empty run says
        // nothing about whether the query is truly empty, and the budget
        // is spent anyway.
        if !matches.is_empty() || !self.config.auto_rewrite || guard.is_tripped() {
            let mut outcome =
                self.finish(pattern, matches, None, limit, span, recording, qid, guard);
            outcome.algorithm = Some(algorithm);
            return (outcome, algorithm);
        }
        // Empty: try rewriting.
        let rewrites = run_stage(span, Stage::Rewrite, recording, qid, |s| {
            let rewriter = Rewriter::with(
                &self.idx,
                lotusx_rewrite::SynonymTable::default_table(),
                self.config.rewriter,
            );
            rewriter.rewrite_spanned(pattern, s)
        });
        match rewrites.into_iter().next() {
            Some(best) => {
                lotusx_obs::emit(qid, EventKind::Rewrite { accepted: true });
                let algorithm =
                    self.algorithm_for(&best.pattern, algorithm_override, recording, qid);
                let matches = run_stage(span, Stage::Match, recording, qid, |s| {
                    execute_budgeted(&self.idx, &best.pattern, algorithm, 1, s, guard)
                });
                let info = RewriteInfo {
                    pattern: best.pattern.clone(),
                    cost: best.cost,
                    ops: best.ops,
                };
                let mut outcome = self.finish(
                    &best.pattern,
                    matches,
                    Some(info),
                    limit,
                    span,
                    recording,
                    qid,
                    guard,
                );
                outcome.algorithm = Some(algorithm);
                (outcome, algorithm)
            }
            None => {
                lotusx_obs::emit(qid, EventKind::Rewrite { accepted: false });
                let mut outcome = self.finish(
                    pattern,
                    Vec::new(),
                    None,
                    limit,
                    span,
                    recording,
                    qid,
                    guard,
                );
                outcome.algorithm = Some(algorithm);
                (outcome, algorithm)
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn finish(
        &self,
        pattern: &TwigPattern,
        matches: Vec<TwigMatch>,
        rewrite: Option<RewriteInfo>,
        limit: usize,
        span: Option<&Span>,
        recording: bool,
        qid: QueryId,
        guard: &QueryGuard,
    ) -> SearchOutcome {
        let total_matches = matches.len();
        let ranked = run_stage(span, Stage::Rank, recording, qid, |s| {
            let ranker = Ranker::with_weights(&self.idx, self.config.weights);
            ranker.rank_top_k_budgeted(pattern, matches, limit, s, guard)
        });
        let results = run_stage(span, Stage::Serialize, recording, qid, |s| {
            let doc = self.idx.document();
            if let Some(s) = s {
                s.annotate("snippets", ranked.len());
            }
            ranked
                .into_iter()
                .map(|sm| {
                    let output = sm.m.project(pattern);
                    let snippet = output
                        .first()
                        .map(|&n| doc.serialize(n, SerializeOptions::default()))
                        .unwrap_or_default();
                    SearchResult {
                        score: sm.score,
                        bindings: sm.m.bindings,
                        output,
                        snippet,
                    }
                })
                .collect()
        });
        SearchOutcome {
            results,
            total_matches,
            rewrite,
            completeness: guard.completeness(),
            algorithm: None,
        }
    }

    /// A position-aware completion engine over this document. All engines
    /// share one value-trie cache, so a trie built while serving one
    /// completion request is reused by every later engine.
    pub fn completion_engine(&self) -> CompletionEngine<'_> {
        CompletionEngine::with_cache(&self.idx, Arc::clone(&self.value_cache))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const BIB: &str = "<bib>\
        <book><title>Data on the Web</title><author>Abiteboul</author><year>1999</year></book>\
        <book><title>XML Handbook</title><author>Goldfarb</author><year>2003</year></book>\
        <article><title>TwigStack</title><author>Bruno</author><year>2002</year></article>\
    </bib>";

    fn twig(text: &str) -> QueryRequest {
        QueryRequest::twig(text)
    }

    #[test]
    fn query_returns_ranked_results_with_snippets() {
        let system = LotusX::load_str(BIB).unwrap();
        let response = system.query(&twig("//book/title")).unwrap();
        assert_eq!(response.total_matches, 2);
        assert_eq!(response.matches.len(), 2);
        assert!(response.rewrite.is_none());
        assert!(response.profile.is_none(), "not requested");
        assert!(response.matches[0].snippet.starts_with("<title>"));
        assert!(response.matches[0].score >= response.matches[1].score);
    }

    #[test]
    fn empty_query_triggers_auto_rewrite() {
        let system = LotusX::load_str(BIB).unwrap();
        // "writer" is a synonym of "author".
        let response = system.query(&twig("//book/writer")).unwrap();
        assert!(response.total_matches > 0);
        let info = response.rewrite.expect("rewrite applied");
        assert!(info.pattern.to_string().contains("author"));
        assert!(info.cost > 0.0);
        assert!(!info.ops.is_empty());
    }

    #[test]
    fn auto_rewrite_can_be_disabled() {
        let mut system = LotusX::load_str(BIB).unwrap();
        let config = system.config().clone().auto_rewrite(false);
        system.reconfigure(config).unwrap();
        let response = system.query(&twig("//book/writer")).unwrap();
        assert_eq!(response.total_matches, 0);
        assert!(response.rewrite.is_none());
    }

    #[test]
    fn result_limit_truncates_but_total_is_kept() {
        let mut system = LotusX::load_str(BIB).unwrap();
        let config = system.config().clone().result_limit(1);
        system.reconfigure(config).unwrap();
        let response = system.query(&twig("//author")).unwrap();
        assert_eq!(response.total_matches, 3);
        assert_eq!(response.matches.len(), 1);
    }

    #[test]
    fn per_request_top_k_overrides_the_limit() {
        let system = LotusX::load_str(BIB).unwrap();
        let all = system.query(&twig("//author")).unwrap();
        assert_eq!(all.matches.len(), 3);
        let one = system.query(&twig("//author").top_k(1)).unwrap();
        assert_eq!(one.matches.len(), 1);
        assert_eq!(one.total_matches, 3);
        assert_eq!(one.matches[0].bindings, all.matches[0].bindings);
        // Different top_k values key the cache separately: asking for all
        // again is not poisoned by the k=1 entry.
        assert_eq!(system.query(&twig("//author")).unwrap().matches.len(), 3);
    }

    #[test]
    fn algorithms_are_switchable_per_request() {
        let system = LotusX::load_str(BIB).unwrap();
        let reference = system
            .query(&twig("//book[author]/title"))
            .unwrap()
            .total_matches;
        for algo in Algorithm::ALL {
            let response = system
                .query(&twig("//book[author]/title").algorithm(algo))
                .unwrap();
            assert_eq!(response.total_matches, reference, "{algo}");
        }
    }

    #[test]
    fn reconfigure_validates() {
        let mut system = LotusX::load_str(BIB).unwrap();
        let bad = system.config().clone().rank_weights(RankWeights {
            structure: f64::NAN,
            ..RankWeights::default()
        });
        assert!(matches!(
            system.reconfigure(bad),
            Err(LotusError::Config(_))
        ));
        assert_eq!(
            system.config().weights().structure,
            RankWeights::default().structure,
            "unchanged on error"
        );
    }

    #[test]
    fn bad_inputs_surface_errors() {
        assert!(matches!(
            LotusX::load_str("<a><b></a>"),
            Err(LotusError::Xml(_))
        ));
        let system = LotusX::load_str(BIB).unwrap();
        let err = system.query(&twig("//book[")).unwrap_err();
        assert!(matches!(err, LotusError::Query(_)));
        let rendered = err.to_string();
        assert!(
            rendered.contains('^'),
            "caret snippet in context: {rendered}"
        );
        assert!(matches!(
            LotusX::load_file("/nonexistent/path.xml"),
            Err(LotusError::Io(_))
        ));
    }

    #[test]
    fn output_marker_projects_results() {
        let system = LotusX::load_str(BIB).unwrap();
        let response = system.query(&twig("//book[author!]/title")).unwrap();
        assert!(response.matches[0].snippet.starts_with("<author>"));
    }

    #[test]
    fn responses_report_the_executed_algorithm() {
        let mut system = LotusX::load_str(BIB).unwrap();
        // Pinned configuration: the pin is reported.
        let response = system.query(&twig("//book[title][author]")).unwrap();
        assert_eq!(response.algorithm, Some(Algorithm::TwigStack));
        // Cache hits report the algorithm of the original execution.
        let hit = system.query(&twig("//book[title][author]")).unwrap();
        assert_eq!(hit.algorithm, Some(Algorithm::TwigStack));
        // Auto (via configuration) resolves to a concrete algorithm.
        let config = system.config().clone().auto_algorithm();
        system.reconfigure(config).unwrap();
        let auto = system.query(&twig("//book[title][author]")).unwrap();
        let resolved = auto.algorithm.expect("a join ran");
        assert_ne!(resolved, Algorithm::Auto, "always resolved");
        // Auto as a per-request override resolves too.
        let fresh = LotusX::load_str(BIB).unwrap();
        let via_request = fresh
            .query(&twig("//book/title").algorithm(Algorithm::Auto))
            .unwrap();
        assert!(via_request.algorithm.is_some());
        assert_ne!(via_request.algorithm, Some(Algorithm::Auto));
        // Keyword searches never run a join.
        let keyword = fresh.query(&QueryRequest::keyword("handbook")).unwrap();
        assert!(keyword.algorithm.is_none());
    }

    #[test]
    fn auto_algorithm_matches_pinned_results() {
        let mut system = LotusX::load_str(BIB).unwrap();
        let pinned = system
            .query(&twig("//book[title][author]"))
            .unwrap()
            .total_matches;
        let config = system.config().clone().auto_algorithm();
        system.reconfigure(config).unwrap();
        assert_eq!(
            system
                .query(&twig("//book[title][author]"))
                .unwrap()
                .total_matches,
            pinned
        );
        assert_eq!(system.algorithm(), Algorithm::TwigStack, "reported default");
    }

    #[test]
    fn snapshot_save_and_reopen() {
        let system = LotusX::load_str(BIB).unwrap();
        let dir = std::env::temp_dir().join("lotusx-engine-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bib.ltsx");
        system.save_snapshot(&path).unwrap();
        let reopened = LotusX::load_file(&path).unwrap();
        assert_eq!(
            reopened.query(&twig("//book/title")).unwrap().total_matches,
            system.query(&twig("//book/title")).unwrap().total_matches
        );
        std::fs::remove_file(&path).unwrap();
        assert!(matches!(
            LotusX::open_snapshot("/nonexistent.ltsx"),
            Err(LotusError::Storage(_))
        ));
    }

    #[test]
    fn keyword_search_through_query() {
        let system = LotusX::load_str(BIB).unwrap();
        let response = system
            .query(&QueryRequest::keyword("twigstack bruno"))
            .unwrap();
        assert_eq!(response.matches.len(), 1);
        assert!(response.matches[0].snippet.starts_with("<article>"));
        assert!(response.rewrite.is_none());
        let empty = system.query(&QueryRequest::keyword("")).unwrap();
        assert!(empty.matches.is_empty());
        // Per-request top_k applies; total is kept.
        let limited = system
            .query(&QueryRequest::keyword("title").top_k(1))
            .unwrap();
        assert!(limited.matches.len() <= 1);
        assert!(limited.total_matches >= limited.matches.len());
        // An unbounded top_k keeps every hit.
        let all = system
            .query(&QueryRequest::keyword("xml").top_k(usize::MAX))
            .unwrap();
        assert_eq!(all.total_matches, 1);
        assert_eq!(all.matches.len(), 1);
    }

    #[test]
    fn ordered_query_through_engine() {
        let system = LotusX::load_str(BIB).unwrap();
        let unordered = system.query(&twig("//book[title][year]")).unwrap();
        let ordered = system.query(&twig("ordered //book[title][year]")).unwrap();
        assert!(ordered.total_matches <= unordered.total_matches);
    }

    #[test]
    fn engine_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<LotusX>();
    }

    #[test]
    fn repeated_queries_hit_the_cache() {
        let system = LotusX::load_str(BIB).unwrap();
        let first = system.query(&twig("//book/title")).unwrap();
        assert_eq!(system.query_cache_stats().hits, 0);
        // Same pattern, different spelling: still one normalized key.
        let second = system.query(&twig("  //book/title ")).unwrap();
        let stats = system.query_cache_stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.entries, 1);
        assert_eq!(second.total_matches, first.total_matches);
        assert_eq!(second.matches.len(), first.matches.len());
    }

    #[test]
    fn profiles_report_cache_hits() {
        let system = LotusX::load_str(BIB).unwrap();
        let miss = system.query(&twig("//book/title").profiled(true)).unwrap();
        let p = miss.profile.expect("requested");
        assert!(!p.cache_hit);
        assert_eq!(p.algorithm.as_deref(), Some("twigstack"));
        assert_eq!(p.candidates, 2);
        assert_eq!(p.results, 2);
        assert!(p.stage_ns("match") > 0);
        assert!(p.stages_ns() <= p.total_ns());
        let hit = system.query(&twig("//book/title").profiled(true)).unwrap();
        let p = hit.profile.expect("requested");
        assert!(p.cache_hit);
        assert!(p.algorithm.is_none(), "cache hits never reach the join");
        assert!(p.render().contains("cache: hit"));
    }

    #[test]
    fn profiling_does_not_change_results() {
        let system = LotusX::load_str(BIB).unwrap();
        for q in ["//book/title", "//book[author]/title", "//book/writer"] {
            let plain = system.query(&twig(q)).unwrap();
            let fresh = LotusX::load_str(BIB).unwrap();
            let profiled = fresh.query(&twig(q).profiled(true)).unwrap();
            assert_eq!(plain.total_matches, profiled.total_matches, "{q}");
            assert_eq!(plain.matches.len(), profiled.matches.len(), "{q}");
            for (a, b) in plain.matches.iter().zip(&profiled.matches) {
                assert_eq!(a.bindings, b.bindings, "{q}");
                assert_eq!(a.score.to_bits(), b.score.to_bits(), "{q}");
                assert_eq!(a.snippet, b.snippet, "{q}");
            }
        }
    }

    #[test]
    fn explain_renders_a_stage_tree() {
        let system = LotusX::load_str(BIB).unwrap();
        let profile = system.explain("//book[author]/title").unwrap();
        let text = profile.render();
        assert!(text.contains("query: //book[author]/title"));
        assert!(text.contains("parse"));
        assert!(text.contains("match"));
        assert!(text.contains("rank"));
        assert!(text.contains("serialize"));
        assert!(text.contains("total:"));
        // Rewritten queries say so.
        let rewritten = system.explain("//book/writer").unwrap();
        assert!(rewritten.rewritten.is_some());
        assert!(rewritten.render().contains("rewritten to:"));
        assert!(rewritten.stage_ns("rewrite") > 0);
    }

    #[test]
    fn configuration_changes_invalidate_the_cache() {
        let mut system = LotusX::load_str(BIB).unwrap();
        assert_eq!(system.query(&twig("//author")).unwrap().matches.len(), 3);
        let config = system.config().clone().result_limit(1);
        system.reconfigure(config).unwrap();
        // A stale cached outcome would still hold 3 results.
        let response = system.query(&twig("//author")).unwrap();
        assert_eq!(response.matches.len(), 1);
        assert_eq!(response.total_matches, 3);
        assert_eq!(system.query_cache_stats().hits, 0);
    }

    #[test]
    fn batch_query_matches_individual_queries() {
        let system = LotusX::load_str(BIB).unwrap();
        let requests: Vec<QueryRequest> = [
            "//book/title",
            "//author",
            "//book[",
            "//book[year >= 2000]",
        ]
        .iter()
        .map(|q| QueryRequest::twig(*q))
        .collect();
        let batch = system.query_batch(&requests);
        assert_eq!(batch.len(), requests.len());
        for (request, response) in requests.iter().zip(&batch) {
            match response {
                Ok(got) => {
                    let expect = system.query(request).unwrap();
                    let q = &request.text;
                    assert_eq!(got.total_matches, expect.total_matches, "{q}");
                    assert_eq!(got.matches.len(), expect.matches.len(), "{q}");
                }
                Err(e) => assert!(matches!(e, LotusError::Query(_))),
            }
        }
        assert!(batch[2].is_err(), "malformed query surfaces its error");
    }

    #[test]
    fn batch_panics_fail_only_their_own_slot() {
        let outcomes = run_isolated(&[1, 2, 3, 4], |&n| {
            if n % 2 == 0 {
                panic!("poisoned item {n}");
            }
            Ok(n * 10)
        });
        assert_eq!(outcomes.len(), 4);
        assert_eq!(outcomes[0].as_ref().unwrap(), &10);
        assert_eq!(outcomes[2].as_ref().unwrap(), &30);
        for (index, slot) in [(1, &outcomes[1]), (3, &outcomes[3])] {
            match slot {
                Err(LotusError::WorkerPanic(p)) => {
                    assert_eq!(p.index, index);
                    assert_eq!(p.message, format!("poisoned item {}", index + 1));
                    assert_eq!(
                        p.to_string(),
                        format!("request {index} panicked: poisoned item {}", index + 1)
                    );
                }
                other => panic!("slot {index}: expected a WorkerPanic, got {other:?}"),
            }
        }
    }

    #[test]
    fn value_trie_cache_is_precomputed_and_shared() {
        let system = LotusX::load_str(BIB).unwrap();
        // BIB has 5 distinct tags; all fit under the hot-tag budget.
        assert!(system.value_trie_cache_len() > 0);
        let before = system.value_trie_cache_len();
        let engine = system.completion_engine();
        let hits = engine.complete_value("title", "xm", 10);
        assert!(hits.iter().any(|c| c.term.starts_with("xm")));
        assert_eq!(
            system.value_trie_cache_len(),
            before,
            "served from shared cache"
        );
    }

    #[test]
    fn unbudgeted_queries_are_complete() {
        let system = LotusX::load_str(BIB).unwrap();
        let response = system.query(&twig("//book/title")).unwrap();
        assert!(response.completeness.is_complete());
        let keyword = system.query(&QueryRequest::keyword("twigstack")).unwrap();
        assert!(keyword.completeness.is_complete());
    }

    #[test]
    fn zero_budget_truncates_immediately() {
        use lotusx_guard::Budget;
        let system = LotusX::load_str(BIB).unwrap();
        let budget = Budget::default().with_node_quota(0);
        let response = system.query(&twig("//book/title").budget(budget)).unwrap();
        assert!(!response.completeness.is_complete());
        assert!(response.matches.is_empty());
        assert_eq!(response.total_matches, 0);
        // A zero deadline behaves the same, on both query kinds.
        let response = system.query(&twig("//author").deadline_ms(0)).unwrap();
        assert_eq!(
            response.completeness.truncation_reason(),
            Some(TruncationReason::DeadlineExceeded)
        );
        let keyword = system
            .query(&QueryRequest::keyword("twigstack").deadline_ms(0))
            .unwrap();
        assert!(!keyword.completeness.is_complete());
        assert!(keyword.matches.is_empty());
    }

    #[test]
    fn keyword_node_quota_truncates_mid_search() {
        use lotusx_guard::Budget;
        let system = LotusX::load_document(lotusx_datagen::generate(
            lotusx_datagen::Dataset::DblpLike,
            1,
            42,
        ));
        let full = system.query(&QueryRequest::keyword("data")).unwrap();
        assert!(full.completeness.is_complete());
        assert!(full.total_matches > 100);
        let every_hit = lotusx_keyword::KeywordEngine::new(system.index()).search("data");
        // The posting list fits the quota; scanning and scoring it does not.
        let quota = system.index().values().df("data") as u64 + 64;
        let budget = Budget::default().with_node_quota(quota);
        let cut = system
            .query(&QueryRequest::keyword("data").budget(budget.clone()))
            .unwrap();
        assert_eq!(
            cut.completeness.truncation_reason(),
            Some(TruncationReason::NodeQuotaExceeded)
        );
        assert!(!cut.matches.is_empty());
        // Every kept answer is a true SLCA with its exact score.
        for m in &cut.matches {
            let exact = every_hit
                .iter()
                .find(|h| m.output == [h.node])
                .expect("a true SLCA");
            assert_eq!(exact.score.to_bits(), m.score.to_bits());
        }
        // Deterministic: the same quota cuts at the same step.
        let again = system
            .query(&QueryRequest::keyword("data").budget(budget))
            .unwrap();
        assert_eq!(again.total_matches, cut.total_matches);
        let outputs = |r: &QueryResponse| {
            r.matches
                .iter()
                .map(|m| m.output.clone())
                .collect::<Vec<_>>()
        };
        assert_eq!(outputs(&again), outputs(&cut));
    }

    #[test]
    fn cancelled_token_truncates() {
        use lotusx_guard::{Budget, CancelToken};
        let system = LotusX::load_str(BIB).unwrap();
        let token = CancelToken::new();
        token.cancel();
        let budget = Budget::default().with_cancel(token);
        let response = system.query(&twig("//author").budget(budget)).unwrap();
        assert_eq!(
            response.completeness.truncation_reason(),
            Some(TruncationReason::Cancelled)
        );
    }

    #[test]
    fn generous_budget_matches_unbudgeted_run() {
        use lotusx_guard::Budget;
        let system = LotusX::load_str(BIB).unwrap();
        let plain = system.query(&twig("//book[author]/title")).unwrap();
        let fresh = LotusX::load_str(BIB).unwrap();
        let budget = Budget::default()
            .with_deadline(std::time::Duration::from_secs(60))
            .with_node_quota(1_000_000);
        let budgeted = fresh
            .query(&twig("//book[author]/title").budget(budget))
            .unwrap();
        assert!(budgeted.completeness.is_complete());
        assert_eq!(budgeted.total_matches, plain.total_matches);
        for (a, b) in plain.matches.iter().zip(&budgeted.matches) {
            assert_eq!(a.bindings, b.bindings);
            assert_eq!(a.score.to_bits(), b.score.to_bits());
        }
    }

    #[test]
    fn truncated_outcomes_are_not_cached() {
        use lotusx_guard::Budget;
        let system = LotusX::load_str(BIB).unwrap();
        let starved = Budget::default().with_node_quota(0);
        let first = system.query(&twig("//book/title").budget(starved)).unwrap();
        assert!(!first.completeness.is_complete());
        // The full-budget rerun must not be served the truncated outcome.
        let second = system.query(&twig("//book/title")).unwrap();
        assert!(second.completeness.is_complete());
        assert_eq!(second.total_matches, 2);
        let stats = system.query_cache_stats();
        assert_eq!(stats.hits, 0, "nothing to hit: truncation never cached");
        // And a cached complete answer satisfies a starved rerun.
        let starved = Budget::default().with_node_quota(0);
        let third = system.query(&twig("//book/title").budget(starved)).unwrap();
        assert!(third.completeness.is_complete(), "served from cache");
        assert_eq!(third.total_matches, 2);
    }

    #[test]
    fn truncated_profile_reports_the_reason() {
        use lotusx_guard::Budget;
        let system = LotusX::load_str(BIB).unwrap();
        let budget = Budget::default().with_node_quota(0);
        let response = system
            .query(&twig("//book/title").budget(budget).profiled(true))
            .unwrap();
        let profile = response.profile.expect("requested");
        assert!(
            profile.render().contains("truncated=node_quota_exceeded"),
            "{}",
            profile.render()
        );
    }
}
