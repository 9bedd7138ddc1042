//! # lotusx-obs
//!
//! The observability substrate of the LotusX query pipeline: lightweight
//! nestable timing spans, log2-bucketed latency histograms with
//! p50/p95/p99, named counters, per-query [`QueryProfile`]s, a bounded
//! slow-query log, and a `metrics.json`-able snapshot — all on `std`
//! only (the metric registry reuses `lotusx-par`'s sharded map).
//!
//! Two recording paths:
//!
//! * **Global metrics** — one process-wide [`Metrics`] registry behind an
//!   [`enabled`] flag. Instrumented code guards every recording with
//!   `obs::enabled()`, so the *entire* cost of the subsystem while
//!   disabled is a few relaxed atomic loads.
//! * **Per-query profiles** — a [`Span`] tree threaded through the
//!   pipeline when one request opts in (`QueryRequest::profile`),
//!   finished into a [`QueryProfile`] the caller can inspect or render
//!   as the CLI `explain` tree. A process-wide [`sampler`] also profiles
//!   1-in-N queries *without* opting in, feeding the worst-K
//!   [`ExemplarStore`] so tail latencies come with attribution.
//! * **Structured event tracing** — typed [`TraceEvent`]s pushed into a
//!   lock-free bounded ring ([`EventRing`]) behind the [`tracing`] flag,
//!   exportable as Chrome trace-event JSON ([`chrome_trace_json`],
//!   loadable in Perfetto with one lane per worker thread) or a JSONL
//!   log. The [`WindowedStats`] ring adds rolling 1s/10s/60s live
//!   aggregates (QPS, per-stage p50/p95/p99, cache hit ratio,
//!   truncation rate) behind the same [`enabled`] flag.
//!
//! ```
//! use lotusx_obs::{Span, QueryProfile};
//!
//! let root = Span::new("query");
//! root.time("parse", |_| { /* … */ });
//! root.time("match", |s| s.annotate("algorithm", "twigstack"));
//! let profile = QueryProfile {
//!     query: "//book/title".into(),
//!     span: root.finish(),
//!     ..Default::default()
//! };
//! assert!(profile.stages_ns() <= profile.total_ns());
//! assert!(profile.render().contains("├─ parse"));
//! ```

#![warn(missing_docs)]

pub mod event;
pub mod export;
pub mod histogram;
pub mod json;
pub mod profile;
pub mod prom;
pub mod registry;
pub mod ring;
pub mod sampler;
pub mod span;
pub mod window;

pub use event::{
    conn_lane, drain_events, emit, emit_on_lane, next_query_id, set_tracing, trace_counters,
    tracing, CloseReason, ConnPhase, DeadlineKind, EventKind, QueryId, TraceEvent, CONN_LANE_BASE,
};
pub use export::{chrome_trace_json, chrome_trace_json_with, jsonl_log};
pub use histogram::{fmt_ns, HistogramAccumulator, HistogramSnapshot, LatencyHistogram};
pub use json::{json_string, json_string_into, parse_json, JsonValue};
pub use profile::QueryProfile;
pub use prom::{escape_label_value, sanitize_metric_name, PromWriter};
pub use registry::{
    enabled, metrics, set_enabled, time_stage, Metrics, MetricsSnapshot, SlowQuery, SlowQueryLog,
    Stage,
};
pub use ring::{EventRing, RingCounters};
pub use sampler::{sampler, Exemplar, ExemplarStore, Sampler, DEFAULT_SAMPLE_RATE};
pub use span::{Span, SpanGuard, SpanRecord};
pub use window::{WindowCounter, WindowSnapshot, WindowedStats};
