//! The probes must not change what they measure: a seeded simulator run
//! of each protocol wrapped in `Probe` (and its state machines in
//! `ProbeSm`) commits the same histories and ends in the same snapshots
//! as the bare run.

use perfbench::sim::{transparency_pair, Proto};

#[test]
fn wrapped_protocols_commit_what_bare_ones_commit() {
    for proto in Proto::ALL {
        for seed in [3, 11] {
            let (bare, wrapped) = transparency_pair(proto, seed);
            assert!(
                bare.iter().all(|(commits, _)| *commits > 100),
                "{proto:?} seed {seed}: the run committed too little to compare"
            );
            assert_eq!(
                bare, wrapped,
                "{proto:?} seed {seed}: the probes changed the run"
            );
        }
    }
}
