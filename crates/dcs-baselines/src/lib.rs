//! # dcs-baselines
//!
//! The external comparator the density-contrast-subgraph algorithms are evaluated
//! against:
//!
//! * [`egoscan`] — a substitute for the EgoScan algorithm of Cadena et al. (ICDM 2016),
//!   the closest related work the paper compares against in Tables VIII/IX.  EgoScan
//!   maximises the **total** weight `W_D(S)` of a subgraph of the signed difference
//!   graph.  The original uses a semidefinite-programming rounding inside every ego net;
//!   we substitute an ego-net seeded greedy local search with the same objective, which
//!   reproduces the qualitative behaviour the paper reports (EgoScan returns much larger
//!   subgraphs with higher total weight but far lower density than the DCS algorithms).
//!   The [`egoscan`] module docs describe the substitution; it is a stateless solver
//!   with fixed seed and sweep limits.
//!
//! The brute-force oracles the property tests check the solvers against (the optimal
//! DCSAD subset, the Motzkin–Straus optimum) live in those tests.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod egoscan;

pub use egoscan::{EgoScan, EgoScanResult};
