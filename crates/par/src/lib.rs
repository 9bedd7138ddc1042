//! # lotusx-par
//!
//! The concurrent caches the LotusX engine shares across the serving
//! layer's worker threads, on `std` only. Requests run concurrently on
//! the server's worker pool; each request runs on its caller's thread,
//! so this crate holds no executor — only the state those threads share:
//!
//! * [`sharded`] — [`ShardedMap`], a fixed-shard `RwLock<HashMap>` used
//!   as a build-once-read-many cache (per-tag value tries).
//! * [`lru`] — [`ShardedLru`] over [`ConcurrentLru`] shards,
//!   mutex-protected LRUs with atomic hit/miss counters (the engine's
//!   query-result cache).

#![warn(missing_docs)]

pub mod lru;
pub mod sharded;

pub use lru::{CacheStats, ConcurrentLru, ShardedLru};
pub use sharded::{ShardLoad, ShardedMap};
