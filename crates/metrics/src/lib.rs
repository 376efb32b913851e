//! Metrics: a small counter/gauge registry with Prometheus text-format
//! exposition and a minimal HTTP scrape endpoint.
//!
//! The workspace is fully offline, so this is a hand-rolled substitute for
//! the `prometheus` + `hyper` stack: enough of the [text exposition
//! format](https://prometheus.io/docs/instrumenting/exposition_formats/)
//! for a real Prometheus server to scrape (`# HELP`/`# TYPE` headers,
//! label sets, one sample per line), served over a thread that speaks just
//! enough HTTP/1.1 for `GET /metrics`.
//!
//! Two registration styles:
//!
//! - [`Registry::counter`] / [`Registry::gauge`]: shared atomic cells the
//!   instrumented code bumps directly (lock-free on the hot path).
//! - [`Registry::collector`]: a closure sampled at scrape time — the bridge
//!   for counters that already exist elsewhere (`EngineStats`,
//!   `AuditStats`) and should not be double-maintained.

#![forbid(unsafe_code)]

pub mod http;
pub mod registry;

pub use http::{http_get, MetricsServer};
pub use registry::{Counter, Gauge, Registry, Sample};
