//! `kronpriv` — differentially private estimation for the stochastic Kronecker graph model.
//!
//! This crate is the public facade of the `kronpriv` workspace, a from-scratch Rust
//! reproduction of Mir & Wright, *"A Differentially Private Estimator for the Stochastic
//! Kronecker Graph Model"* (PAIS @ EDBT 2012). The headline workflow is:
//!
//! 1. observe a sensitive graph `G`,
//! 2. run [`PrivateEstimator`](kronpriv_estimate::PrivateEstimator) (the paper's Algorithm 1) to
//!    obtain an `(ε, δ)`-differentially private initiator estimate `Θ̃`,
//! 3. publish `Θ̃` and sample synthetic graphs from it; the synthetic graphs mimic the degree
//!    distribution, hop plot, spectrum, and clustering behaviour of `G` without exposing any
//!    individual edge.
//!
//! ```
//! use kronpriv::prelude::*;
//! use rand::SeedableRng;
//!
//! // A small sensitive graph (here: a synthetic Kronecker graph plays the part).
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//! let secret = sample_fast(&Initiator2::new(0.95, 0.55, 0.2), 9, &SamplerOptions::default(), &mut rng);
//!
//! // Release an (ε, δ)-private estimate and a synthetic graph sampled from it, on one thread
//! // and observing nothing (pass a pool and a sink to parallelise and watch the stages).
//! let release = try_release_synthetic_graph(
//!     &secret,
//!     PrivacyParams::new(1.0, 0.01),
//!     &PrivateEstimatorOptions::default(),
//!     &mut rng,
//!     &Executor::sequential(),
//!     &NullSink,
//! )?;
//! assert_eq!(release.synthetic.node_count(), 512);
//! assert!(release.estimate.fit.theta.a <= 1.0);
//! # Ok::<(), PipelineError>(())
//! ```
//!
//! The heavy lifting lives in the subsystem crates, all re-exported here:
//!
//! * [`kronpriv_graph`] — graph substrate (counts, traversal, generators, I/O),
//! * [`kronpriv_skg`] — the stochastic Kronecker model (initiators, moments, samplers),
//! * [`kronpriv_dp`] — the differential-privacy toolkit (Laplace, degree sequences, smooth
//!   sensitivity),
//! * [`kronpriv_estimate`] — KronFit, KronMom and the private estimator,
//! * [`kronpriv_stats`] — the evaluation statistics of the paper's figures,
//! * [`kronpriv_datasets`] — the evaluation datasets (as documented stand-ins),
//! * [`kronpriv_optim`], [`kronpriv_linalg`] — numerical substrates.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiment;
pub mod pipeline;

pub use kronpriv_datasets;
pub use kronpriv_dp;
pub use kronpriv_estimate;
pub use kronpriv_graph;
pub use kronpriv_linalg;
pub use kronpriv_obs;
pub use kronpriv_optim;
pub use kronpriv_par;
pub use kronpriv_skg;
pub use kronpriv_stats;

pub use pipeline::{
    estimate_with_all_estimators, try_kronfit_estimate, try_kronmom_estimate, try_private_estimate,
    try_release_synthetic_graph, validate_estimator_inputs, EstimatorSuite, PipelineError,
    SyntheticRelease,
};

/// The most commonly used items, importable with `use kronpriv::prelude::*`.
pub mod prelude {
    pub use crate::pipeline::{
        estimate_with_all_estimators, try_kronfit_estimate, try_kronmom_estimate,
        try_private_estimate, try_release_synthetic_graph, validate_estimator_inputs,
        EstimatorSuite, PipelineError, SyntheticRelease,
    };
    pub use kronpriv_datasets::{Dataset, DatasetMetadata};
    pub use kronpriv_dp::{PrivacyParams, PrivateDegreeSequence, PrivateTriangleCount};
    pub use kronpriv_estimate::{
        FittedInitiator, KronFitEstimator, KronFitOptions, KronMomEstimator, KronMomOptions,
        PrivateEstimate, PrivateEstimator, PrivateEstimatorOptions,
    };
    pub use kronpriv_graph::{Graph, GraphBuilder, MatchingStatistics};
    pub use kronpriv_obs::{
        CollectingSink, NullSink, ProgressEvent, ProgressSink, Registry as MetricsRegistry,
    };
    pub use kronpriv_par::{Executor, Work};
    pub use kronpriv_skg::{
        sample::{sample_exact, sample_fast, SamplerOptions},
        ExpectedMoments, Initiator2,
    };
    pub use kronpriv_stats::{GraphProfile, ProfileComparison, ProfileOptions};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn prelude_exposes_the_main_types() {
        // A compile-time smoke test that the re-exports fit together.
        let theta = Initiator2::new(0.9, 0.5, 0.2);
        let moments = ExpectedMoments::of(&theta, 4);
        assert!(moments.edges > 0.0);
        let params = PrivacyParams::paper_default();
        assert_eq!(params.epsilon, 0.2);
        let _ = KronMomEstimator::default();
        let _ = KronFitEstimator::default();
        let _ = PrivateEstimator::default();
    }
}
