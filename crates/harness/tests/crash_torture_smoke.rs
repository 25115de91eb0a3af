//! Tier-1 smoke: a small seeded crash-torture sweep must report zero
//! violations. The full 60-points-per-workload run is the CI
//! `crash-torture` job; this keeps a representative slice (all three
//! flavors, both workloads, both policies) in `cargo test`.

use sli_harness::Knobs;

#[test]
fn crash_torture_smoke_has_no_violations() {
    let knobs = Knobs {
        torture_points: 6,
        ..Knobs::smoke()
    };
    let total = sli_harness::torture::crash_torture(&knobs);
    assert_eq!(total.points, 12, "6 points x 2 workloads");
    assert_eq!(total.violations, 0, "crash-torture found violations");
    assert!(total.acked > 0, "agents must commit work");
    assert!(total.undone > 0, "some crash points must catch losers");
}
