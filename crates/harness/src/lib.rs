//! # mpquic-harness — the evaluation harness
//!
//! Glues the protocol stacks (`mpquic-core`, `mpquic-tcp`) to the network
//! simulator (`mpquic-netsim`) and the experimental design
//! (`mpquic-expdesign`), and computes the paper's metrics. Two binaries
//! in `src/bin/` regenerate the paper's data:
//!
//! | binary | paper artefact |
//! |---|---|
//! | `figures` | Table 1, Figs. 3–10 and the Fig. 11 handover; `--figure table1`, `--figure fig3` … pick some |
//! | `ablations` | the design-choice ablations and the shared-bottleneck fairness runs |
//!
//! [`figures::FIGURES`] is the one table of Figs. 3–10. `figures` scales
//! with `--scenarios --size --repeats --threads --cap`; defaults follow
//! the paper.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod app;
pub mod experiments;
pub mod fairness;
pub mod figures;
pub mod metrics;
pub mod protocol;
pub mod report;
pub mod runner;
pub mod transport;

pub use app::App;
pub use experiments::{run_class_sweep, ClassResults, SweepConfig};
pub use fairness::{run_shared_bottleneck, FairnessOutcome};
pub use metrics::aggregation_benefit;
pub use protocol::{build_pair, Overrides, ProtoEndpoint, Protocol};
pub use runner::{
    run_file_transfer, run_file_transfer_median, run_handover, run_handover_instrumented,
    HandoverConfig, TransferOutcome, REQUEST_SIZE,
};
pub use transport::{AnyTransport, QuicTransport, TcpTransport, Transport};
