//! The Stage-1 optimizer's input contract and its scratch discipline.
//! Malformed inputs — wrong-arity capacities or catalogs, invalid
//! configs — are typed errors, never panics; the boundary cases of Eq. 9
//! (an infeasible uncensored search, a censored scale-up past the top of
//! the ladder) answer as documented; and the per-worker buffers
//! ([`Stage1Scratch`], a reused [`TraceColumns`]) never leak state from
//! one trace into the next.

use lorentz::core::{ProvisioningVerdict, Rightsizer, RightsizerConfig, Stage1Scratch};
use lorentz::telemetry::{RegularSeries, TraceColumns, UsageTrace};
use lorentz::types::{Capacity, LorentzError, ResourceSpace, ServerOffering, SkuCatalog};
use proptest::prelude::*;

fn sizer() -> Rightsizer {
    Rightsizer::new(&RightsizerConfig::default()).unwrap()
}

fn gp() -> SkuCatalog {
    SkuCatalog::azure_postgres(ServerOffering::GeneralPurpose)
}

fn gp_with_memory() -> SkuCatalog {
    SkuCatalog::azure_postgres_with_memory(ServerOffering::GeneralPurpose)
}

fn single(values: Vec<f64>) -> UsageTrace {
    UsageTrace::single(RegularSeries::new(300.0, values).unwrap())
}

fn two_dim(vcores: Vec<f64>, memory: Vec<f64>) -> UsageTrace {
    UsageTrace::new(
        ResourceSpace::vcores_memory(),
        vec![
            RegularSeries::new(300.0, vcores).unwrap(),
            RegularSeries::new(300.0, memory).unwrap(),
        ],
    )
    .unwrap()
}

/// Both entry points on one trace: the per-trace wrapper and the columnar
/// optimizer over a one-trace pack.
fn both(
    trace: &UsageTrace,
    user: &Capacity,
    catalog: &SkuCatalog,
) -> [Result<lorentz::core::RightsizeOutcome, LorentzError>; 2] {
    let sizer = sizer();
    let columns = TraceColumns::from_traces(std::slice::from_ref(trace));
    [
        sizer.rightsize(trace, user, catalog),
        sizer.rightsize_columns(
            columns.trace(0),
            user,
            catalog,
            &mut Stage1Scratch::default(),
        ),
    ]
}

fn is_dimension_mismatch(result: &Result<lorentz::core::RightsizeOutcome, LorentzError>) -> bool {
    matches!(result, Err(LorentzError::DimensionMismatch { .. }))
}

#[test]
fn user_capacity_of_the_wrong_arity_is_a_dimension_mismatch() {
    let one = single(vec![2.0; 12]);
    let two = two_dim(vec![2.0; 12], vec![8.0; 12]);
    let pair = Capacity::new(vec![4.0, 16.0]).unwrap();
    for result in both(&one, &pair, &gp()) {
        assert!(is_dimension_mismatch(&result), "{result:?}");
    }
    for result in both(&two, &Capacity::scalar(4.0), &gp_with_memory()) {
        assert!(is_dimension_mismatch(&result), "{result:?}");
    }
}

#[test]
fn catalog_of_the_wrong_arity_is_a_dimension_mismatch() {
    let one = single(vec![2.0; 12]);
    for result in both(&one, &Capacity::scalar(16.0), &gp_with_memory()) {
        assert!(is_dimension_mismatch(&result), "{result:?}");
    }
    let two = two_dim(vec![2.0; 12], vec![8.0; 12]);
    let user = Capacity::new(vec![16.0, 64.0]).unwrap();
    for result in both(&two, &user, &gp()) {
        assert!(is_dimension_mismatch(&result), "{result:?}");
    }
}

#[test]
fn censored_workload_against_a_higher_arity_catalog_is_a_typed_error() {
    // Throttled at its 2-vCore user capacity, so the censored branch runs
    // and must still check every candidate's arity before reading it.
    let throttled = single(vec![3.0; 12]);
    for result in both(&throttled, &Capacity::scalar(2.0), &gp_with_memory()) {
        assert!(is_dimension_mismatch(&result), "{result:?}");
    }
}

#[test]
fn off_catalog_user_capacity_can_leave_no_feasible_candidate() {
    // 200 vCores of steady demand is not throttled at a 1000-vCore user
    // capacity, but every catalog SKU (at most 128) throttles it.
    let huge = single(vec![200.0; 12]);
    for result in both(&huge, &Capacity::scalar(1000.0), &gp()) {
        match result {
            Err(LorentzError::Infeasible(why)) => assert!(why.contains("τ"), "{why}"),
            other => panic!("expected Infeasible, got {other:?}"),
        }
    }
}

#[test]
fn censored_scale_up_past_the_ladder_saturates_at_the_top() {
    // Throttled at 128 vCores: Eq. 8 asks for at least 256, which no SKU
    // offers, so the largest SKU is chosen and its slack still reported.
    let saturating = single(vec![128.0; 10]);
    for result in both(&saturating, &Capacity::scalar(128.0), &gp()) {
        let outcome = result.unwrap();
        assert!(outcome.censored);
        assert_eq!(outcome.sku_index, gp().len() - 1);
        assert_eq!(outcome.capacity.primary(), 128.0);
        assert_eq!(outcome.throttling_at_user, 1.0);
        assert_eq!(outcome.slack_at_chosen, vec![0.0]);
        assert_eq!(outcome.verdict, ProvisioningVerdict::WellProvisioned);
    }
}

#[test]
fn censored_scale_up_doubles_the_user_capacity() {
    let throttled = single(vec![8.0; 10]);
    for result in both(&throttled, &Capacity::scalar(8.0), &gp()) {
        let outcome = result.unwrap();
        assert!(outcome.censored);
        assert!(outcome.capacity.primary() >= 16.0, "{outcome:?}");
        assert_eq!(outcome.verdict, ProvisioningVerdict::UnderProvisioned);
    }
}

#[test]
fn invalid_configs_are_rejected() {
    let default = RightsizerConfig::default();
    let bad = [
        RightsizerConfig {
            bin_seconds: 0.0,
            ..default.clone()
        },
        RightsizerConfig {
            bin_seconds: f64::NAN,
            ..default.clone()
        },
        RightsizerConfig {
            eta: Vec::new(),
            ..default.clone()
        },
        RightsizerConfig {
            eta: vec![0.0],
            ..default.clone()
        },
        RightsizerConfig {
            eta: vec![1.5],
            ..default.clone()
        },
        RightsizerConfig {
            slack_target: Vec::new(),
            ..default.clone()
        },
        RightsizerConfig {
            slack_target: vec![1.0],
            ..default.clone()
        },
        RightsizerConfig {
            slack_target: vec![-0.1],
            ..default.clone()
        },
        RightsizerConfig {
            tau: -0.01,
            ..default.clone()
        },
        RightsizerConfig {
            tau: 1.5,
            ..default.clone()
        },
        RightsizerConfig {
            tau: f64::INFINITY,
            ..default
        },
    ];
    for config in bad {
        let err = Rightsizer::new(&config).unwrap_err();
        assert!(
            matches!(err, LorentzError::InvalidConfig(_)),
            "{config:?}: {err:?}"
        );
    }
}

/// Arbitrary single- or two-dimension workload with a matching user
/// capacity, on or off the catalog ladder.
fn sized_workload() -> impl Strategy<Value = (UsageTrace, Capacity)> {
    prop_oneof![
        (collection::vec(0.0f64..140.0, 1..48), 0.5f64..140.0)
            .prop_map(|(v, u)| (single(v), Capacity::scalar(u))),
        (
            collection::vec((0.0f64..140.0, 0.0f64..512.0), 1..24),
            0.5f64..140.0
        )
            .prop_map(|(pairs, u)| {
                let (v, m): (Vec<f64>, Vec<f64>) = pairs.into_iter().unzip();
                (two_dim(v, m), Capacity::new(vec![u, u * 4.0]).unwrap())
            }),
    ]
}

fn catalog_for(trace: &UsageTrace) -> SkuCatalog {
    if trace.dims() == 1 {
        gp()
    } else {
        gp_with_memory()
    }
}

proptest! {
    /// One scratch reused across a mixed fleet, in any order, answers
    /// exactly what a fresh scratch per trace answers.
    #[test]
    fn a_reused_scratch_answers_like_a_fresh_one(
        fleet in collection::vec(sized_workload(), 1..10),
    ) {
        let sizer = sizer();
        let traces: Vec<UsageTrace> = fleet.iter().map(|(t, _)| t.clone()).collect();
        let columns = TraceColumns::from_traces(&traces);
        let mut scratch = Stage1Scratch::default();
        for pass in 0..2 {
            for step in 0..fleet.len() {
                // Second pass walks the fleet backwards.
                let i = if pass == 0 { step } else { fleet.len() - 1 - step };
                let (trace, user) = &fleet[i];
                let catalog = catalog_for(trace);
                let reused = sizer.rightsize_columns(columns.trace(i), user, &catalog, &mut scratch);
                let fresh = sizer.rightsize(trace, user, &catalog);
                prop_assert_eq!(format!("{reused:?}"), format!("{fresh:?}"));
            }
        }
    }

    /// `pack_one` into a reused buffer holds exactly the one trace, with
    /// nothing left over from a larger trace packed before it.
    #[test]
    fn pack_one_into_a_reused_buffer_matches_a_fresh_pack(
        fleet in collection::vec(sized_workload(), 1..10),
    ) {
        let mut reused = TraceColumns::from_traces(&[]);
        for (trace, _) in &fleet {
            reused.pack_one(trace);
            let fresh = TraceColumns::from_traces(std::slice::from_ref(trace));
            prop_assert_eq!(reused.len(), 1);
            prop_assert_eq!(reused.total_values(), trace.dims() * trace.bins());
            prop_assert_eq!(&reused.to_trace(0).unwrap(), trace);
            let (a, b) = (reused.trace(0), fresh.trace(0));
            prop_assert_eq!(a.bins(), b.bins());
            prop_assert_eq!(a.dims(), b.dims());
            prop_assert_eq!(a.bin_seconds(), b.bin_seconds());
            for r in 0..a.dims() {
                prop_assert_eq!(a.dim(r), b.dim(r));
            }
        }
    }

    /// The verdict is the primary-dimension comparison of the user's
    /// capacity with the chosen one, and the choice is a catalog SKU.
    #[test]
    fn the_verdict_compares_user_and_chosen_capacity(workload in sized_workload()) {
        let (trace, user) = workload;
        let catalog = catalog_for(&trace);
        let Ok(outcome) = sizer().rightsize(&trace, &user, &catalog) else {
            return Ok(());
        };
        prop_assert_eq!(&catalog.get(outcome.sku_index).capacity, &outcome.capacity);
        prop_assert_eq!(outcome.slack_at_chosen.len(), trace.dims());
        let (u, c) = (user.primary(), outcome.capacity.primary());
        let expected = if (u - c).abs() < 1e-9 {
            ProvisioningVerdict::WellProvisioned
        } else if u > c {
            ProvisioningVerdict::OverProvisioned
        } else {
            ProvisioningVerdict::UnderProvisioned
        };
        prop_assert_eq!(outcome.verdict, expected);
    }
}
