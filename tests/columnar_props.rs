//! Property-based tests of the columnar training fast path: the SoA
//! telemetry layout must round-trip row traces losslessly, and the
//! parallel target-encoder fit must be independent of its thread cap. The
//! Stage-1 optimizer's answers on this file's fleet generator are pinned
//! in `tests/stage1_golden.rs`.

use lorentz::ml::{MissingPolicy, TargetEncoder, TargetStatistic};
use lorentz::telemetry::{RegularSeries, TraceColumns, UsageTrace};
use lorentz::types::{ProfileSchema, ProfileTable};
use proptest::prelude::*;

/// Arbitrary single-dimension workload: 1–64 bins of usage in [0, 140).
fn workload() -> impl Strategy<Value = UsageTrace> {
    proptest::collection::vec(0.0f64..140.0, 1..64)
        .prop_map(|values| UsageTrace::single(RegularSeries::new(300.0, values).unwrap()))
}

/// Arbitrary two-dimension workload (vcores + memory), equal bin counts.
fn workload_2d() -> impl Strategy<Value = UsageTrace> {
    proptest::collection::vec((0.0f64..140.0, 0.0f64..512.0), 1..32).prop_map(|pairs| {
        let (v, m): (Vec<f64>, Vec<f64>) = pairs.into_iter().unzip();
        UsageTrace::new(
            lorentz::types::ResourceSpace::vcores_memory(),
            vec![
                RegularSeries::new(300.0, v).unwrap(),
                RegularSeries::new(300.0, m).unwrap(),
            ],
        )
        .unwrap()
    })
}

/// A mixed fleet of single- and two-dimension traces.
fn fleet() -> impl Strategy<Value = Vec<UsageTrace>> {
    proptest::collection::vec(prop_oneof![workload(), workload_2d()], 1..12)
}

proptest! {
    /// `TraceColumns` packs and unpacks arbitrary mixed fleets without
    /// losing a value, a space, or a bin width.
    #[test]
    fn trace_columns_round_trip(traces in fleet()) {
        let cols = TraceColumns::from_traces(&traces);
        prop_assert_eq!(cols.len(), traces.len());
        let total: usize = traces.iter().map(|t| t.bins() * t.dims()).sum();
        prop_assert_eq!(cols.total_values(), total);
        for (i, t) in traces.iter().enumerate() {
            prop_assert_eq!(&cols.to_trace(i).unwrap(), t);
            let view = cols.trace(i);
            prop_assert_eq!(view.bins(), t.bins());
            prop_assert_eq!(view.dims(), t.dims());
            for r in 0..t.dims() {
                prop_assert_eq!(view.dim(r), t.resource(r).values());
            }
        }
    }

    /// The parallel target-encoder fit is exactly the serial fit at every
    /// thread cap, for arbitrary tables and labels.
    #[test]
    fn parallel_target_encoding_matches_serial(
        rows in proptest::collection::vec(
            (0u8..6, 0u8..10, 0u8..4, any::<bool>(), 0.5f64..128.0),
            1..40,
        ),
        smoothing in prop_oneof![Just(0.0), 0.1f64..20.0],
    ) {
        let schema = ProfileSchema::new(vec!["segment", "customer", "region"]).unwrap();
        let mut table = ProfileTable::new(schema);
        let mut labels = Vec::with_capacity(rows.len());
        for (seg, cust, reg, missing, label) in rows {
            let seg = format!("s{seg}");
            let cust = format!("c{cust}");
            let reg = format!("r{reg}");
            let seg_cell = if missing { None } else { Some(seg.as_str()) };
            table
                .push_row(&[seg_cell, Some(cust.as_str()), Some(reg.as_str())])
                .unwrap();
            labels.push(label);
        }
        let serial = TargetEncoder::fit_with_threads(
            &table,
            &labels,
            TargetStatistic::Percentile(50.0),
            MissingPolicy::GlobalMean,
            smoothing,
            1,
        )
        .unwrap();
        for threads in [0, 2, 8] {
            let parallel = TargetEncoder::fit_with_threads(
                &table,
                &labels,
                TargetStatistic::Percentile(50.0),
                MissingPolicy::GlobalMean,
                smoothing,
                threads,
            )
            .unwrap();
            prop_assert_eq!(&parallel, &serial);
        }
    }
}
