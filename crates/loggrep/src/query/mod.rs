//! Query planning and execution (§5).

pub mod agg;
pub mod cache;
pub mod exec;
pub mod explain;
pub mod lang;
pub mod plan;
mod render;
pub mod session;

pub use agg::{AggQueryResult, AggResult};
pub use exec::QueryResult;
