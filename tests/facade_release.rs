//! The cross-crate facade test required by the offline-build milestone: drive the
//! `try_release_synthetic_graph` pipeline end-to-end through `kronpriv::prelude` on a small seeded
//! graph, then check the released artifacts — node/edge counts, the `[0, 1]` parameter box, and
//! that the release serializes through the in-workspace JSON layer (the path the bench harness
//! uses for every experiment record).

use kronpriv::prelude::*;
use kronpriv_json::ToJson;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn release(secret: &Graph, params: PrivacyParams, rng: &mut StdRng) -> SyntheticRelease {
    let (options, exec) = (PrivateEstimatorOptions::default(), Executor::sequential());
    try_release_synthetic_graph(secret, params, &options, rng, &exec, &NullSink)
        .expect("a non-empty graph with delta > 0 is a valid release")
}

#[test]
fn release_synthetic_graph_end_to_end_on_a_small_seeded_graph() {
    // A small sensitive graph: a 512-node SKG realization (k = 9) plays the part.
    let truth = Initiator2::new(0.95, 0.55, 0.2);
    let mut rng = StdRng::seed_from_u64(7);
    let secret = sample_fast(&truth, 9, &SamplerOptions::default(), &mut rng);
    assert_eq!(secret.node_count(), 512);
    assert!(secret.edge_count() > 0);

    let release = release(&secret, PrivacyParams::new(1.0, 0.01), &mut rng);

    // Node count: the synthetic graph lives on the same padded 2^k node set.
    assert_eq!(release.synthetic.node_count(), 512);
    // Edge count: same order of magnitude as the sensitive graph (the private degree release
    // pins down the expected edge count).
    let ratio = release.synthetic.edge_count() as f64 / secret.edge_count() as f64;
    assert!((0.3..=3.0).contains(&ratio), "edge ratio {ratio}");

    // Every released initiator entry stays in [0, 1] and the estimate is canonical.
    let theta = release.estimate.fit.theta;
    for p in theta.as_array() {
        assert!((0.0..=1.0).contains(&p), "theta entry {p} outside [0, 1]");
    }
    assert!(theta.a >= theta.c);

    // The private intermediates the estimate publishes are finite.
    for v in release.estimate.private_statistics {
        assert!(v.is_finite());
    }

    // The whole release record serializes through the JSON layer used by the experiment
    // bookkeeping, and the document round-trips structurally.
    let doc = release.estimate.to_json();
    let text = doc.to_pretty_string();
    // The privacy boundary, at the outermost serialization point: no deny-listed field (the
    // exact triangle count, the raw noisy degree sequence) may appear as a key anywhere in
    // the serialized release, under any nesting. The list is the single shared const that
    // kronpriv-lint also enforces statically.
    for ident in kronpriv_lint::SENSITIVE_IDENTS {
        assert!(
            !text.contains(&format!("\"{ident}\"")),
            "sensitive field `{ident}` leaked into the release JSON"
        );
    }
    let reparsed = kronpriv_json::Json::parse(&text).expect("release JSON reparses");
    let a = reparsed
        .get("fit")
        .and_then(|fit| fit.get("theta"))
        .and_then(|t| t.get("a"))
        .and_then(|v| v.as_f64())
        .expect("fit.theta.a present");
    assert!((a - theta.a).abs() < 1e-15);
}

#[test]
fn release_is_reproducible_from_the_seed() {
    // Same seed, same release — the determinism the paper's experiment scripts rely on.
    let run = |seed: u64| {
        let mut rng = StdRng::seed_from_u64(seed);
        let secret =
            sample_fast(&Initiator2::new(0.9, 0.5, 0.2), 9, &SamplerOptions::default(), &mut rng);
        let release = release(&secret, PrivacyParams::new(0.5, 0.01), &mut rng);
        (release.estimate.fit.theta, release.synthetic.edge_count())
    };
    assert_eq!(run(42), run(42));
    assert_ne!(run(42), run(43));
}
