//! # atom-bench
//!
//! The reproduction harness for every table and figure in the evaluation
//! section of *Atom: Horizontally Scaling Strong Anonymity* (SOSP 2017).
//!
//! Each experiment is exposed both as a library function (returning the rows
//! it would print, so integration tests can sanity-check the shapes) and as a
//! small binary (`cargo run --release -p atom-bench --bin fig5`, etc.). The
//! Criterion microbenchmarks in `benches/` cover the primitive-level numbers.
//!
//! Absolute numbers will differ from the paper (different curve, different
//! hardware, one machine instead of 1,024); the quantities that must
//! reproduce are the *shapes*: what grows linearly, who is faster than whom
//! and by roughly what factor. `EXPERIMENTS.md` records both.

#![forbid(unsafe_code)]

pub mod experiments;
pub mod fixtures;
pub mod ingress;
pub mod netbench;
pub mod recovery;
pub mod scale;
pub mod workload;

pub use experiments::*;
