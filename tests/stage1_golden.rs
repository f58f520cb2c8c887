//! Stage-1 golden outcomes: the rightsizer's answers on fixed fleets,
//! pinned bit for bit.
//!
//! `tests/data/stage1_golden.txt` was generated by the original row-loop
//! optimizer (one scan per catalog candidate), before it was folded into
//! the columnar one. Every line is one `(case, outcome)` pair: the chosen
//! SKU index, the censoring flag, the `to_bits` of the throttling
//! probability and of every slack entry, and the verdict — or the error
//! message. Both public entry points must reproduce every line: the
//! per-trace [`Rightsizer::rightsize`] and [`Rightsizer::rightsize_columns`]
//! over one packed fleet with a shared scratch.
//!
//! The fleets come from `tests/columnar_props.rs`'s generator at fixed
//! seeds, plus hand-picked traces. Each trace is sized under three configs
//! and, under the default one, against a catalog and a user capacity of the
//! wrong arity.
//!
//! The row loop panicked (an out-of-bounds capacity index) when a censored
//! workload met a catalog of higher arity than its user capacity; those
//! cases are pinned as `panic` lines, and the optimizer must now answer
//! them with a typed dimension-mismatch error instead.

use lorentz::core::{RightsizeOutcome, Rightsizer, RightsizerConfig, Stage1Scratch};
use lorentz::telemetry::{RegularSeries, TraceColumns, UsageTrace};
use lorentz::types::{Capacity, LorentzError, ResourceSpace, ServerOffering, SkuCatalog};
use proptest::prelude::*;

const GOLDEN: &str = include_str!("data/stage1_golden.txt");

/// Number of generator seeds pinned in the golden file.
const SEEDS: u64 = 12;

/// Arbitrary single-dimension workload: 1–64 bins of usage in [0, 140).
fn workload() -> impl Strategy<Value = UsageTrace> {
    proptest::collection::vec(0.0f64..140.0, 1..64)
        .prop_map(|values| UsageTrace::single(RegularSeries::new(300.0, values).unwrap()))
}

/// Arbitrary two-dimension workload (vcores + memory), equal bin counts.
fn workload_2d() -> impl Strategy<Value = UsageTrace> {
    proptest::collection::vec((0.0f64..140.0, 0.0f64..512.0), 1..32).prop_map(|pairs| {
        let (v, m): (Vec<f64>, Vec<f64>) = pairs.into_iter().unzip();
        two_dim(v, m)
    })
}

/// A mixed fleet of single- and two-dimension traces.
fn fleet() -> impl Strategy<Value = Vec<UsageTrace>> {
    proptest::collection::vec(prop_oneof![workload(), workload_2d()], 1..12)
}

/// User capacities on and off the catalog ladder.
fn user_primary() -> impl Strategy<Value = f64> {
    prop_oneof![
        Just(1.0),
        Just(2.0),
        Just(4.0),
        Just(16.0),
        Just(64.0),
        Just(128.0),
        0.5f64..140.0,
    ]
}

fn single(values: &[f64]) -> UsageTrace {
    UsageTrace::single(RegularSeries::new(300.0, values.to_vec()).unwrap())
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

/// Steady, spiky, censored, idle, saturate-at-top, single-bin, all-zero
/// (every candidate ties on slack) and two-dimension workloads, each with
/// a user primary capacity.
fn fixed_fleet() -> (Vec<UsageTrace>, Vec<f64>) {
    let mut spiky = vec![1.0; 19];
    spiky.push(3.9);
    let traces = vec![
        single(&[2.0; 20]),
        single(&spiky),
        single(&[4.0; 10]),
        single(&[0.05; 50]),
        single(&[128.0; 10]),
        single(&[7.3]),
        single(&[130.0, 1.0, 1.0]),
        single(&[0.0; 8]),
        two_dim(vec![1.0, 1.0, 2.5], vec![1.0, 7.9, 3.0]),
        two_dim(vec![120.0; 4], vec![600.0; 4]),
    ];
    let users = vec![16.0, 16.0, 4.0, 32.0, 128.0, 8.0, 140.0, 4.0, 2.5, 128.0];
    (traces, users)
}

/// The three configs every trace is sized under: Table 2's defaults, a
/// looser throttling bound with a steeper censored scale-up, and per-
/// dimension thresholds and targets.
fn configs() -> Vec<Rightsizer> {
    let default = RightsizerConfig::default();
    [
        default.clone(),
        RightsizerConfig {
            tau: 0.05,
            k: 2,
            ..default.clone()
        },
        RightsizerConfig {
            eta: vec![0.9, 0.8],
            slack_target: vec![0.5, 0.3],
            ..default
        },
    ]
    .iter()
    .map(|c| Rightsizer::new(c).unwrap())
    .collect()
}

fn catalog(dims: usize) -> SkuCatalog {
    if dims == 1 {
        SkuCatalog::azure_postgres(ServerOffering::GeneralPurpose)
    } else {
        SkuCatalog::azure_postgres_with_memory(ServerOffering::GeneralPurpose)
    }
}

fn user(dims: usize, primary: f64) -> Capacity {
    if dims == 1 {
        Capacity::scalar(primary)
    } else {
        Capacity::new(vec![primary, primary * 4.0]).unwrap()
    }
}

/// One rightsizing call of the golden set.
struct Case {
    id: String,
    trace: usize,
    sizer: usize,
    user: Capacity,
    catalog: SkuCatalog,
}

/// A user capacity with 2x headroom over the trace's peak, so the
/// uncensored branch is as well covered as the censored one.
fn headroom(trace: &UsageTrace) -> Capacity {
    Capacity::new(trace.peak().iter().map(|&v| (v * 2.0).max(1.0)).collect()).unwrap()
}

/// Every case for one fleet: each trace under each config with matching
/// arities (at the fleet's user capacity and at 2x headroom), then under
/// the default config against the wrong-arity catalog and the wrong-arity
/// user capacity.
fn cases(tag: &str, traces: &[UsageTrace], primaries: &[f64]) -> Vec<Case> {
    let mut out = Vec::new();
    for (i, t) in traces.iter().enumerate() {
        let (dims, other) = (t.dims(), 3 - t.dims());
        let p = primaries[i];
        for sizer in 0..3 {
            out.push(Case {
                id: format!("{tag}/{i}/cfg{sizer}"),
                trace: i,
                sizer,
                user: user(dims, p),
                catalog: catalog(dims),
            });
            out.push(Case {
                id: format!("{tag}/{i}/cfg{sizer}/headroom"),
                trace: i,
                sizer,
                user: headroom(t),
                catalog: catalog(dims),
            });
        }
        out.push(Case {
            id: format!("{tag}/{i}/catalog-arity"),
            trace: i,
            sizer: 0,
            user: user(dims, p),
            catalog: catalog(other),
        });
        out.push(Case {
            id: format!("{tag}/{i}/user-arity"),
            trace: i,
            sizer: 0,
            user: user(other, p),
            catalog: catalog(dims),
        });
    }
    out
}

/// All fleets of the golden set: the generator at seeds `0..SEEDS`, then
/// the hand-picked one.
fn fleets() -> Vec<(String, Vec<UsageTrace>, Vec<f64>)> {
    let mut out: Vec<_> = (0..SEEDS)
        .map(|seed| {
            let mut rng = TestRng::new(seed);
            let traces = fleet().sample(&mut rng);
            let primary = user_primary().sample(&mut rng);
            let primaries = vec![primary; traces.len()];
            (format!("seed{seed}"), traces, primaries)
        })
        .collect();
    let (traces, users) = fixed_fleet();
    out.push(("fixed".to_string(), traces, users));
    out
}

/// The golden line for one outcome.
fn describe(id: &str, result: &Result<RightsizeOutcome, LorentzError>) -> String {
    match result {
        Ok(o) => {
            let slack: Vec<String> = o
                .slack_at_chosen
                .iter()
                .map(|s| format!("{:016x}", s.to_bits()))
                .collect();
            format!(
                "{id} ok sku={} censored={} thr={:016x} slack={} verdict={:?}",
                o.sku_index,
                o.censored,
                o.throttling_at_user.to_bits(),
                slack.join(","),
                o.verdict
            )
        }
        Err(e) => format!("{id} err {e}"),
    }
}

/// The golden lines produced by `rightsize` (`columnar == false`) or by
/// `rightsize_columns` over each packed fleet with one shared scratch.
fn lines(columnar: bool) -> Vec<String> {
    let sizers = configs();
    let mut out = Vec::new();
    for (tag, traces, primaries) in fleets() {
        let cols = TraceColumns::from_traces(&traces);
        let mut scratch = Stage1Scratch::default();
        for case in cases(&tag, &traces, &primaries) {
            let s = &sizers[case.sizer];
            let result = if columnar {
                s.rightsize_columns(
                    cols.trace(case.trace),
                    &case.user,
                    &case.catalog,
                    &mut scratch,
                )
            } else {
                s.rightsize(&traces[case.trace], &case.user, &case.catalog)
            };
            out.push(describe(&case.id, &result));
        }
    }
    out
}

fn assert_matches_golden(actual: &[String]) {
    let golden: Vec<&str> = GOLDEN.lines().collect();
    assert_eq!(actual.len(), golden.len(), "case count changed");
    for (a, g) in actual.iter().zip(&golden) {
        match g.strip_suffix(" panic") {
            Some(id) => assert!(
                a.starts_with(&format!("{id} err dimension mismatch")),
                "{a}"
            ),
            None => assert_eq!(a, g),
        }
    }
}

#[test]
fn rightsize_matches_row_path_goldens() {
    assert_matches_golden(&lines(false));
}

#[test]
fn rightsize_columns_matches_row_path_goldens() {
    assert_matches_golden(&lines(true));
}

/// The golden set exercises every branch of Eq. 9 and both error kinds.
#[test]
fn goldens_cover_every_branch() {
    let count = |pat: &str| GOLDEN.lines().filter(|l| l.contains(pat)).count();
    assert!(count("censored=false") > 0);
    assert!(count("censored=true") > 0);
    assert!(count("verdict=OverProvisioned") > 0);
    assert!(count("verdict=WellProvisioned") > 0);
    assert!(count("verdict=UnderProvisioned") > 0);
    assert!(count("err rightsizing infeasible") > 0);
    assert!(count("err dimension mismatch") > 0);
    let top = catalog(1).len() - 1;
    assert!(count(&format!("sku={top} censored=true")) > 0);
}
