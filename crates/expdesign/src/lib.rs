//! # mpquic-expdesign — the paper's experimental design
//!
//! The evaluation does not cherry-pick network conditions: "we use an
//! experimental design approach similar to the one used for MPTCP \[37\]
//! and cover a wide range of parameters ... Our experimental design \[37\]
//! selects the values of these parameters using the WSP algorithm \[45\]
//! over the ranges listed on Tab. 1."
//!
//! * [`wsp`] — the WSP (Wootton, Sergent, Phan-Tan-Luu) space-filling
//!   point-selection algorithm;
//! * [`table1`] — the Table 1 factor ranges (low-BDP and high-BDP), the
//!   four experiment classes, and scenario enumeration: 253 two-path
//!   scenarios per class, each run with the connection starting on the
//!   best and on the worst path (506 simulations per figure).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod table1;
pub mod wsp;

pub use table1::{ExperimentClass, Scenario, StartMode, Table1Ranges, SCENARIOS_PER_CLASS};
pub use wsp::wsp_select;
