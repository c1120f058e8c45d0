//! The detector zoo's two standing invariants, over every empirical
//! detector (heartbeat, φ-accrual, gossip) at 2 trials per arm and
//! horizon 200:
//!
//! * on clean reliable channels no detector ever suspects a live
//!   process — one that does is mistuned;
//! * in every in-model regime (all but the R5-violating severed link)
//!   every crash arm detects the crash, with worst-case latency within
//!   [`LATENCY_BOUND_TICKS`].

use ktudc_fd::{classify_detector, ClassifySpec, DetectorKind, FaultRegime};

/// Gossip's 60-tick fail timeout plus an 18–25-tick loss or delay window
/// before the suspicion propagates, with slack for the staggered report
/// cadence.
const LATENCY_BOUND_TICKS: u64 = 120;

fn spec(detector: DetectorKind, regime: FaultRegime) -> ClassifySpec {
    ClassifySpec::new(detector, regime).trials(2).horizon(200)
}

#[test]
fn clean_channels_raise_zero_false_suspicions() {
    for detector in DetectorKind::ALL {
        let verdict = classify_detector(&spec(detector, FaultRegime::Clean));
        assert_eq!(verdict.false_suspicion_events, 0, "{detector}: {verdict:?}");
    }
}

#[test]
fn in_model_regimes_detect_the_crash_within_the_latency_bound() {
    for regime in FaultRegime::ALL.into_iter().filter(|r| r.in_model()) {
        for detector in DetectorKind::ALL {
            let verdict = classify_detector(&spec(detector, regime));
            assert!(
                verdict.strong_completeness,
                "{detector} / {regime}: a crash arm missed the crash: {verdict:?}"
            );
            let latency = verdict
                .detection_latency
                .unwrap_or_else(|| panic!("{detector} / {regime}: no latency sample"));
            assert!(
                latency.max <= LATENCY_BOUND_TICKS,
                "{detector} / {regime}: worst-case latency {} ticks",
                latency.max
            );
        }
    }
}
