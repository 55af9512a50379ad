//! Extended-SQL front end.
//!
//! The paper's queries extend SQL in three ways, all supported here:
//!
//! * **Probability-threshold comparisons** — `Delay > 50 PROB 0.66` is the
//!   textual form of the paper's `Delay >_{2/3} 50` (Example 1).
//! * **Significance predicates** — `MTEST(x, '>', 97, 0.05)`,
//!   `MDTEST(x, y, '>', 0, 0.05)`, `PTEST(x > 100, 0.5, 0.05)` as
//!   `HAVING`-style clauses; a second α argument switches to
//!   `COUPLED-TESTS` with both error rates bounded.
//! * **Sliding windows and accuracy modes** — `WINDOW AVG(x) SIZE 1000`
//!   (count-based) or `WINDOW AVG(x) RANGE 60 MIN 4` (time-based), and
//!   `WITH ACCURACY {NONE | ANALYTICAL | BOOTSTRAP} [LEVEL c]
//!   [SAMPLES m]`.
//! * **Relational completeness** — `JOIN … ON key`, `GROUP BY key` with
//!   `AVG`/`SUM`/`COUNT`, `ORDER BY col [DESC]`, `LIMIT n`.
//!
//! Pipeline: [`lexer`] → [`parser`] (AST in [`ast`]) → [`planner`]
//! (producing an [`ausdb_engine::query::Query`]).
//!
//! Plan introspection: [`parse_statement`] additionally accepts
//! `EXPLAIN <select>` (render the plan without executing) and
//! `EXPLAIN ANALYZE <select>` (execute, then annotate each plan line with
//! the observed per-operator counters, timing, and accuracy attributes);
//! [`run_statement`] executes either form against a session.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod ast;
pub mod error;
pub mod lexer;
pub mod parser;
pub mod planner;

pub use ast::Statement;
pub use error::SqlError;
pub use parser::{parse, parse_statement};
pub use planner::{
    plan, run_sql, run_statement, run_statement_with_stats, PlannedQuery, SqlOutput,
};
