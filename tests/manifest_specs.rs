//! The sweep-manifest spec grammar, held by table.
//!
//! A manifest reaches a run's fault plan and cluster policy through two
//! strings, `faults = "…"` and `policy = "…"`, which
//! `react_experiments::scenario::{fault_plan, cluster_policy}` decode.
//! Every accepted spec below must decode to exactly the value in its
//! row, and every rejected spec must be an error. A repeated key or
//! component and a zero split threshold (which would subdivide cells
//! forever) are errors; the other rows pin the grammar as the two
//! parsers it replaced accepted it.

use rand::rngs::SmallRng;
use rand::SeedableRng;
use react::cluster::{AdmissionPolicy, Cluster, ClusterPolicy, HandoffPolicy, RebalancePolicy};
use react::core::{Config, CoreError};
use react::faults::{BurstPlan, DropoutPlan, FaultPlan, StragglerPlan};
use react::geo::{BoundingBox, GeoPoint, RegionGrid};
use react::obs::null_observer;
use react_experiments::scenario::{cluster_policy, fault_plan};
use react_experiments::{ExpandCtx, Experiment, Manifest, ScenarioSweep};

// ---- fault plans -------------------------------------------------------

/// A plan from its parts; `[abandon, loss, dup]` are the three
/// per-message probabilities.
fn plan(
    dropout: Option<DropoutPlan>,
    straggler: Option<StragglerPlan>,
    [abandon, loss, dup]: [f64; 3],
    bursts: Option<BurstPlan>,
) -> FaultPlan {
    FaultPlan {
        dropout,
        straggler,
        abandon_probability: abandon,
        loss_probability: loss,
        duplication_probability: dup,
        bursts,
    }
}

fn dropout(
    probability: f64,
    window: (f64, f64),
    offline: Option<(f64, f64)>,
) -> Option<DropoutPlan> {
    Some(DropoutPlan {
        probability,
        window,
        offline_range: offline,
    })
}

fn straggler(fraction: f64, factor_range: (f64, f64)) -> Option<StragglerPlan> {
    Some(StragglerPlan {
        fraction,
        factor_range,
    })
}

fn bursts(count: u32, size: u32, window: (f64, f64)) -> Option<BurstPlan> {
    Some(BurstPlan {
        count,
        size,
        window,
    })
}

const QUIET: [f64; 3] = [0.0; 3];

fn none() -> FaultPlan {
    plan(None, None, QUIET, None)
}

/// The preset dropout: 5–60 s window, back after 30–90 s.
fn preset_dropout(p: f64) -> Option<DropoutPlan> {
    dropout(p, (5.0, 60.0), Some((30.0, 90.0)))
}

/// `chaos(1)`, and `chaos(I)` for any `I >= 1`.
fn full_chaos() -> FaultPlan {
    plan(
        preset_dropout(0.5),
        straggler(0.33, (2.0, 6.0)),
        [0.1, 0.08, 0.05],
        bursts(2, 12, (10.0, 50.0)),
    )
}

/// Every accepted fault spec and the plan it decodes to.
fn accepted_fault_specs() -> Vec<(&'static str, FaultPlan)> {
    vec![
        // Presets and a two-part compound.
        ("none", none()),
        ("  ", none()),
        ("", none()),
        (
            "chaos(0.5)",
            plan(
                preset_dropout(0.25),
                straggler(0.165, (2.0, 6.0)),
                [0.05, 0.04, 0.025],
                bursts(2, 12, (10.0, 50.0)),
            ),
        ),
        ("dropout(0.6)", plan(preset_dropout(0.6), None, QUIET, None)),
        (
            "abandon(0.1)+loss(0.05)",
            plan(None, None, [0.1, 0.05, 0.0], None),
        ),
        // The canonical compound form of `chaos(0.3)`, `chaos(0.75)`,
        // `chaos(1.0)`, `dropout_only(0.6)` and a plan using every
        // family without `offline`.
        (
            "dropout(p=0.15,window=5..60,offline=30..90)+straggler(f=0.099,factor=2..6)\
             +abandon(0.03)+loss(0.024)+dup(0.015)",
            plan(
                preset_dropout(0.15),
                straggler(0.099, (2.0, 6.0)),
                [0.03, 0.024, 0.015],
                None,
            ),
        ),
        (
            "dropout(p=0.375,window=5..60,offline=30..90)+straggler(f=0.2475,factor=2..6)\
             +abandon(0.07500000000000001)+loss(0.06)+dup(0.037500000000000006)\
             +bursts(n=2,size=12,window=10..50)",
            plan(
                preset_dropout(0.375),
                straggler(0.2475, (2.0, 6.0)),
                [0.07500000000000001, 0.06, 0.037500000000000006],
                bursts(2, 12, (10.0, 50.0)),
            ),
        ),
        (
            "dropout(p=0.5,window=5..60,offline=30..90)+straggler(f=0.33,factor=2..6)\
             +abandon(0.1)+loss(0.08)+dup(0.05)+bursts(n=2,size=12,window=10..50)",
            full_chaos(),
        ),
        (
            "dropout(p=0.6,window=5..60,offline=30..90)",
            plan(preset_dropout(0.6), None, QUIET, None),
        ),
        (
            "dropout(p=0.25,window=2.5..17)+straggler(f=0.125,factor=1.5..3.25)\
             +abandon(0.0625)+loss(0.03125)+dup(0.015625)+bursts(n=3,size=7,window=0..42.5)",
            plan(
                dropout(0.25, (2.5, 17.0), None),
                straggler(0.125, (1.5, 3.25)),
                [0.0625, 0.03125, 0.015625],
                bursts(3, 7, (0.0, 42.5)),
            ),
        ),
        // examples/sweep_specs.toml's compound.
        (
            "dropout(p=0.3,window=5..40,offline=10..30)+straggler(f=0.25,factor=1.5..3)\
             +abandon(0.05)+loss(0.04)+dup(0.03)+bursts(n=2,size=8,window=10..30)",
            plan(
                dropout(0.3, (5.0, 40.0), Some((10.0, 30.0))),
                straggler(0.25, (1.5, 3.0)),
                [0.05, 0.04, 0.03],
                bursts(2, 8, (10.0, 30.0)),
            ),
        ),
        // Whitespace around names, values and range ends.
        (
            " abandon ( 0.1 ) + loss(0.05) ",
            plan(None, None, [0.1, 0.05, 0.0], None),
        ),
        (
            "dropout( p = 0.5 , window = 1 .. 2 )",
            plan(dropout(0.5, (1.0, 2.0), None), None, QUIET, None),
        ),
        // The chaos intensity is clamped into [0, 1].
        ("chaos(0)", none()),
        ("chaos(-1)", none()),
        ("chaos(2)", full_chaos()),
        // Edges that validate.
        (
            "dropout(p=0.5,window=1..2)",
            plan(dropout(0.5, (1.0, 2.0), None), None, QUIET, None),
        ),
        (
            "bursts(n=0,size=0,window=1..2)",
            plan(None, None, QUIET, bursts(0, 0, (1.0, 2.0))),
        ),
        ("loss(1e-2)", plan(None, None, [0.0, 0.01, 0.0], None)),
        (
            "straggler(f=0.5,factor=2..2)",
            plan(None, straggler(0.5, (2.0, 2.0)), QUIET, None),
        ),
        ("abandon(0)", none()),
    ]
}

/// Every rejected fault spec.
const REJECTED_FAULT_SPECS: &[&str] = &[
    "chaotic(0.5)",                            // unknown component
    "Abandon(0.1)",                            // names are case-sensitive
    "dropout",                                 // missing (…)
    "none+abandon(0.1)",                       // `none` is not a component
    "single-tier",                             // a policy, not a plan
    "dropout(p=0.5",                           // missing )
    "abandon(+0.1)",                           // `+` joins components
    "abandon(0.1)+",                           // empty component
    "straggler(f=0.5)",                        // missing factor range
    "dropout(p=0.5)",                          // missing window
    "dropout(q=0.5,window=1..2)",              // unknown key
    "dropout(0.5,window=1..2)",                // a bare value among key=value pairs
    "dropout(p=0.5,window=1..2,)",             // empty pair
    "dropout()",                               // no value
    "abandon(lots)",                           // not a number
    "abandon((0.1))",                          // not a number
    "bursts(n=-1,size=1,window=1..2)",         // not a u32
    "bursts(n=4294967296,size=1,window=1..2)", // u32 overflow
    "dropout(p=0.5,window=1-2)",               // not a range
    "dropout(p=0.5,window=1..2..3)",           // not a range
    "chaos(0.5)+abandon(0.1)",                 // preset + component
    "straggler(f=0.5,factor=6..2)",            // validate: lo > hi
    "bursts(n=2,size=0,window=1..2)",          // validate: size 0
    "dropout(p=1.5,window=1..2)",              // validate: probability
    "dropout(p=0.5,window=-1..2)",             // validate: negative window
    "dropout(p=0.5,window=0..inf)",            // validate: infinite window
    "abandon(inf)",                            // validate: probability
    "chaos(NaN)",                              // validate: NaN probabilities
    // A key or component given twice (the first key, or the last
    // component, used to win silently).
    "dropout(p=0.1,p=0.9,window=1..2)",
    "abandon(0.1)+abandon(0.2)",
    "dropout(0.6)+dropout(p=0.1,window=1..2)",
];

#[test]
fn every_accepted_fault_spec_decodes_to_its_plan() {
    for (spec, want) in accepted_fault_specs() {
        assert_eq!(fault_plan(spec), Ok(want), "fault spec {spec:?}");
    }
}

#[test]
fn every_rejected_fault_spec_is_an_error() {
    for spec in REJECTED_FAULT_SPECS {
        let got = fault_plan(spec);
        assert!(got.is_err(), "fault spec {spec:?} decoded to {got:?}");
    }
}

// ---- cluster policies --------------------------------------------------

fn policy(
    split_threshold: u64,
    handoff: Option<(usize, usize)>,
    rebalance: Option<(u64, usize, usize)>,
    admission: Option<usize>,
) -> ClusterPolicy {
    ClusterPolicy {
        split_threshold,
        handoff: handoff.map(|(pool_floor, max_per_tick)| HandoffPolicy {
            pool_floor,
            max_per_tick,
        }),
        rebalance: rebalance.map(|(period_ticks, min_idle, max_moves)| RebalancePolicy {
            period_ticks,
            min_idle,
            max_moves,
        }),
        admission: admission.map(|max_open_tasks| AdmissionPolicy { max_open_tasks }),
    }
}

const NO_SPLIT: u64 = u64::MAX;

/// Every accepted policy spec and the policy it decodes to.
fn accepted_policy_specs() -> Vec<(&'static str, ClusterPolicy)> {
    let single_tier = policy(NO_SPLIT, None, None, None);
    let coupled = policy(NO_SPLIT, Some((3, 8)), Some((5, 2, 4)), Some(512));
    vec![
        // Named presets and a one-part compound.
        ("single-tier", single_tier),
        ("single_tier", single_tier),
        ("coupled", coupled),
        (" coupled ", coupled),
        ("admission(128)", policy(NO_SPLIT, None, None, Some(128))),
        // The canonical compound form of `coupled()` and of two
        // hand-built policies.
        (
            "handoff(floor=3,max=8)+rebalance(period=5,min_idle=2,max_moves=4)+admission(512)",
            coupled,
        ),
        (
            "split(1000)+handoff(floor=5,max=16)+admission(4096)",
            policy(1000, Some((5, 16)), None, Some(4096)),
        ),
        (
            "rebalance(period=7,min_idle=1,max_moves=9)",
            policy(NO_SPLIT, None, Some((7, 1, 9)), None),
        ),
        // examples/sweep_specs.toml's compound.
        (
            "split(6)+handoff(floor=2,max=4)+rebalance(period=3,min_idle=1,max_moves=2)\
             +admission(30)",
            policy(6, Some((2, 4)), Some((3, 1, 2)), Some(30)),
        ),
        // Keys in any order, whitespace anywhere.
        (
            "handoff(max=8,floor=3)",
            policy(NO_SPLIT, Some((3, 8)), None, None),
        ),
        (
            " handoff( floor = 3 , max = 8 ) ",
            policy(NO_SPLIT, Some((3, 8)), None, None),
        ),
        // Edges that validate.
        ("split(1)", policy(1, None, None, None)),
        ("split(18446744073709551615)", single_tier),
        (
            "rebalance(period=0,min_idle=0,max_moves=0)",
            policy(NO_SPLIT, None, Some((0, 0, 0)), None),
        ),
        ("admission(0)", policy(NO_SPLIT, None, None, Some(0))),
    ]
}

/// Every rejected policy spec.
const REJECTED_POLICY_SPECS: &[&str] = &[
    "",                                           // empty
    "  ",                                         // empty
    "bogus(1)",                                   // unknown component
    "chaos(0.5)",                                 // a fault plan, not a policy
    "none",                                       // missing (…)
    "single-tier+admission(5)",                   // presets do not combine
    "coupled+admission(5)",                       // presets do not combine
    "handoff(floor=3,max=8",                      // missing )
    "admission(+5)",                              // `+` joins components
    "handoff(floor=3)",                           // missing max
    "handoff(floor=3,max=8,extra=1)",             // unknown key
    "handoff(3)",                                 // not key=value
    "handoff()",                                  // not key=value
    "rebalance(period=x,min_idle=1,max_moves=2)", // not a number
    "admission(-5)",                              // not a usize
    "admission(1.5)",                             // not a usize
    "split(lots)",                                // not a number
    "split(18446744073709551616)",                // u64 overflow
    // A zero split threshold never stops splitting.
    "split(0)",
    "split(0)+admission(5)",
    // A key or component given twice (the first key, or the last
    // component, used to win silently).
    "handoff(floor=1,floor=2,max=3)",
    "admission(5)+admission(7)",
];

#[test]
fn every_accepted_policy_spec_decodes_to_its_policy() {
    for (spec, want) in accepted_policy_specs() {
        assert_eq!(cluster_policy(spec), Ok(want), "policy spec {spec:?}");
    }
}

#[test]
fn every_rejected_policy_spec_is_an_error() {
    for spec in REJECTED_POLICY_SPECS {
        let got = cluster_policy(spec);
        assert!(got.is_err(), "policy spec {spec:?} decoded to {got:?}");
    }
}

#[test]
fn a_repeat_is_named_in_the_error() {
    for (got, words) in [
        (
            fault_plan("dropout(p=0.1,p=0.9,window=1..2)").map(drop),
            ["dropout", "'p'", "twice"].as_slice(),
        ),
        (
            fault_plan("abandon(0.1)+abandon(0.2)").map(drop),
            &["abandon", "twice"],
        ),
        (
            cluster_policy("handoff(floor=1,floor=2,max=3)").map(drop),
            &["handoff", "'floor'", "twice"],
        ),
        (
            cluster_policy("admission(5)+admission(7)").map(drop),
            &["admission", "twice"],
        ),
    ] {
        let err = got.unwrap_err();
        assert!(words.iter().all(|w| err.contains(w)), "{err}");
    }
}

// ---- the zero split threshold -------------------------------------------

#[test]
fn cluster_new_rejects_a_zero_split_threshold() {
    let area = BoundingBox::new(0.0, 1.0, 0.0, 1.0).unwrap();
    let grid = RegionGrid::new(area, 2, 2).unwrap();
    let points = [GeoPoint::new(0.5, 0.5)];
    let build = |split_threshold| {
        let policy = ClusterPolicy {
            split_threshold,
            ..ClusterPolicy::single_tier()
        };
        let mut config = Config::paper_defaults();
        config.charge_matching_time = false;
        let rng = SmallRng::seed_from_u64(1);
        Cluster::new(&grid, config, 7, policy, null_observer(), rng, &points)
    };
    match build(0) {
        Err(CoreError::InvalidConfig { reason }) => {
            assert!(reason.contains("split_threshold"), "{reason}")
        }
        Err(other) => panic!("wrong error {other}"),
        Ok(_) => panic!("split threshold 0 was accepted"),
    }
    // The smallest valid threshold splits the one loaded cell once.
    assert_eq!(build(1).expect("threshold 1").server_ids().len(), 7);
}

fn expand(manifest: &str) -> Result<usize, String> {
    let m = Manifest::parse(manifest).map_err(|e| e.to_string())?;
    let ctx = ExpandCtx {
        quick: true,
        seed: m.seed,
        manifest: Some(&m),
    };
    ScenarioSweep.expand(&ctx).map(|specs| specs.len())
}

#[test]
fn a_sweep_with_a_zero_split_threshold_fails_before_its_first_run() {
    let err = expand(
        "[sweep]\nname = \"split0\"\nsuites = [\"scenario\"]\n\
         [axes]\nshards = [4]\npolicy = [\"coupled\", \"split(0)\"]\n",
    )
    .unwrap_err();
    assert!(err.contains("split_threshold"), "{err}");
}

#[test]
fn the_checked_in_scenario_manifests_expand() {
    for (path, runs) in [
        ("examples/sweep_quick.toml", 24),
        ("examples/sweep_specs.toml", 24),
    ] {
        let text = std::fs::read_to_string(path).expect(path);
        assert_eq!(expand(&text), Ok(runs), "{path}");
    }
}
