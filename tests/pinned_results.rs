//! Pinned result fingerprints: the six baseline runs and a HEAP Cyclon
//! continuous-churn run at test scale must keep producing exactly these
//! `ExperimentResult`s.
//!
//! The values were recorded before the capability aggregator, the serve-dedup
//! sets and the retransmit tracker moved to incremental state and
//! integer-keyed maps. A change meant to be behaviour-preserving must leave
//! every fingerprint here untouched; a deliberate behaviour change updates
//! the table and says why.

use heap::streaming::StreamConfig;
use heap::workloads::experiments::StandardRuns;
use heap::workloads::{
    run_scenario, BandwidthDistribution, ChurnSpec, MembershipChoice, ProtocolChoice, Scale,
    Scenario,
};

/// `(key, fingerprint)` of `StandardRuns::compute_sequential(Scale::test())`.
const STANDARD_RUNS: [(&str, u64); 6] = [
    ("ref-691/standard", 1840537071884976349),
    ("ref-691/heap", 12070383072147125197),
    ("ref-724/standard", 9956573198173645629),
    ("ref-724/heap", 6194491606373785894),
    ("ms-691/standard", 17637918603941390586),
    ("ms-691/heap", 3376950087766461147),
];

/// Fingerprint of [`cyclon_continuous_churn`] at `Scale::test()`.
const CYCLON_CONTINUOUS_CHURN: u64 = 797211974478725606;

/// The Cyclon half of `partial_view::run_continuous`, built the same way:
/// HEAP on ref-691, 15 % standby pool, join/leave rates scaled so ~12 % of
/// the population joins and ~8 % leaves over the stream.
fn cyclon_continuous_churn(scale: Scale) -> Scenario {
    let stream_minutes = StreamConfig::paper(scale.n_windows)
        .stream_duration()
        .as_secs_f64()
        / 60.0;
    let n = scale.n_nodes as f64;
    let churn = ChurnSpec::Continuous {
        standby_fraction: 0.15,
        joins_per_min: (0.12 * n / stream_minutes).max(1.0),
        leaves_per_min: (0.08 * n / stream_minutes).max(1.0),
        detection_secs: 10,
    };
    Scenario::new(
        "partial-view/continuous/cyclon",
        scale,
        BandwidthDistribution::ref_691(),
        ProtocolChoice::Heap { fanout: 7.0 },
    )
    .with_churn(churn)
    .with_membership(MembershipChoice::cyclon())
}

#[test]
fn standard_runs_match_pinned_fingerprints() {
    let runs = StandardRuns::compute_sequential(Scale::test());
    let got: Vec<(&str, u64)> = runs.iter().map(|(k, r)| (k, r.fingerprint())).collect();
    assert_eq!(got, STANDARD_RUNS);
}

#[test]
fn cyclon_continuous_churn_matches_pinned_fingerprint() {
    let result = run_scenario(&cyclon_continuous_churn(Scale::test()));
    // The pin only covers the membership-writing paths if the run really
    // churns, shuffles and aggregates.
    assert!(result.crashed_count > 0, "no receiver left");
    assert!(result.nodes.iter().any(|n| n.joined_at.is_some()));
    assert!(result
        .nodes
        .iter()
        .any(|n| n.protocol_stats.shuffles_sent > 0));
    assert!(result
        .nodes
        .iter()
        .any(|n| n.protocol_stats.aggregation_sent > 0));
    assert_eq!(result.fingerprint(), CYCLON_CONTINUOUS_CHURN);
}
