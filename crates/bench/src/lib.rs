//! Shared experiment harness for the per-figure binaries.
//!
//! Every binary in `src/bin/` regenerates one table or figure of the
//! paper; each binary's file name names its figure or table
//! (`fig9_detection`, `table5_topics`, ...). They share the dataset
//! presets, cross-validation loops, negative samplers and method
//! dispatch implemented here.
//!
//! All binaries take an optional scale argument
//! (`tiny` | `small` | `medium`, default `small`) and print the
//! regenerated rows/series to stdout.

pub mod harness;
pub mod methods;

pub use harness::*;
pub use methods::*;
