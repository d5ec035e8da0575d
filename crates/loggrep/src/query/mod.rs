//! Query planning and execution (§5).

pub mod agg;
pub(crate) mod cache;
pub mod exec;
pub mod explain;
pub mod lang;
mod locate;
pub mod plan;
mod render;

pub use agg::{AggQueryResult, AggResult};
pub use exec::QueryResult;
