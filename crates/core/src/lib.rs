//! # LotusX
//!
//! A position-aware XML search system with auto-completion — the engine of
//! the ICDE 2012 demo, as a library. LotusX lets users who know neither
//! XQuery nor the document's schema build tree-shaped (twig) queries
//! incrementally, with the system suggesting what can exist at every
//! position, ranking the results, and rewriting queries that come back
//! empty.
//!
//! The three layers mirror the demo's architecture:
//!
//! * [`engine::LotusX`] — load & index a document, execute twig queries
//!   (five interchangeable join algorithms), rank matches, rewrite
//!   empty-result queries;
//! * [`canvas::QueryCanvas`] — the graphical canvas as an API: add nodes,
//!   connect edges, type into nodes, mark outputs;
//! * [`session::Session`] — an interactive session combining both with
//!   per-keystroke position-aware completion.
//!
//! ```
//! use lotusx::{LotusX, QueryRequest};
//!
//! let system = LotusX::load_str(
//!     "<bib><book><title>Data on the Web</title><year>1999</year></book></bib>").unwrap();
//! let response = system.query(&QueryRequest::twig("//book[year <= 2000]/title")).unwrap();
//! assert_eq!(response.matches.len(), 1);
//! assert!(response.matches[0].snippet.contains("Data on the Web"));
//! ```

#![warn(missing_docs)]

pub mod canvas;
pub mod corpus;
pub mod engine;
pub mod registry;
pub mod routing;
pub mod session;
pub mod source;

pub use canvas::{CanvasError, CanvasNodeId, QueryCanvas};
pub use corpus::{Corpus, CorpusResult};
pub use engine::{
    EngineConfig, LotusError, LotusX, QueryKind, QueryRequest, QueryResponse, SearchOutcome,
    SearchResult, WorkerPanic,
};
pub use registry::{EngineRegistry, Tenant};
pub use routing::{
    parse_rules, valid_tenant_name, RegistryConfig, RouteError, RouteErrorKind, RouteMatch,
    RoutePredicate, RouteRule, RouteTable, TenantSelector, TenantSpec,
};
pub use session::Session;
pub use source::CorpusSource;

// Re-export the vocabulary types callers need.
pub use lotusx_autocomplete::{
    CompletionEngine, CompletionState, ContextStep, PositionContext, TagCandidate, ValueCandidate,
};
pub use lotusx_guard::{
    Budget, CancelToken, Completeness, QueryGuard, TenantLimits, TruncationReason,
};
pub use lotusx_index::IndexedDocument;
pub use lotusx_obs::QueryProfile;
pub use lotusx_rank::RankWeights;
pub use lotusx_rewrite::{RankedRewrite, RewriterConfig};
pub use lotusx_twig::{Algorithm, Axis, NodeTest, TwigPattern, ValuePredicate};
pub use lotusx_xml::{Document, NodeId};
