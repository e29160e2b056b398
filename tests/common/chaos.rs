//! The full chaos-plan strategy shared by the fault and cluster property
//! tests (`#[path = "common/chaos.rs"] mod chaos;`).

use proptest::prelude::*;
use react::faults::{BurstPlan, DropoutPlan, FaultPlan, StragglerPlan};

/// Strategy: an arbitrary well-formed [`FaultPlan`] mixing every fault
/// kind at bounded rates.
pub fn arb_plan() -> impl Strategy<Value = FaultPlan> {
    (
        proptest::option::of((0.0f64..=1.0, 5.0f64..40.0, 10.0f64..30.0)),
        proptest::option::of((0.0f64..=1.0, 1.6f64..4.0)),
        0.0f64..0.4,
        0.0f64..0.4,
        0.0f64..0.6,
        proptest::option::of((1u32..3, 1u32..8)),
    )
        .prop_map(|(dropout, straggler, abandon, loss, dup, bursts)| {
            let plan = FaultPlan {
                dropout: dropout.map(|(probability, start, span)| DropoutPlan {
                    probability,
                    window: (start, start + span),
                    offline_range: Some((10.0, 40.0)),
                }),
                straggler: straggler.map(|(fraction, hi)| StragglerPlan {
                    fraction,
                    factor_range: (1.5, hi),
                }),
                abandon_probability: abandon,
                loss_probability: loss,
                duplication_probability: dup,
                bursts: bursts.map(|(count, size)| BurstPlan {
                    count,
                    size,
                    window: (10.0, 50.0),
                }),
            };
            plan.validate().expect("strategy emits only valid plans");
            plan
        })
}
