//! Same-host wall-clock benchmark of the simulator.
//!
//! `simbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//! runs one workload, checks that every simulation it timed is the
//! correct one, and prints its metrics, ending with one JSON result line.
//! See `README.md` in this directory for the workloads, the metrics and
//! what each layer metric should move.

pub mod host;
pub mod layers;
pub mod measure;
pub mod pins;
pub mod report;
pub mod workload;

pub use layers::Wrappers;
pub use report::Report;
pub use workload::Workload;
