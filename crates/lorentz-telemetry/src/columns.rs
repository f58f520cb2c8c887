//! Columnar (structure-of-arrays) telemetry for the training fast path.
//!
//! The row layout — one [`UsageTrace`] holding one `Vec<f64>` per resource
//! dimension — is what serving and the public API speak, but the Stage-1
//! kernels read each trace's dimensions as contiguous slices. This module
//! packs every dimension of one or many traces into one contiguous `f64`
//! buffer with per-trace offsets, so those kernels read straight-line
//! memory and reuse scratch across candidates.
//!
//! Layout: trace `i` owns `values[trace_offsets[i] .. trace_offsets[i+1]]`,
//! laid out dimension-major — dimension `r` of trace `i` is the slice
//! `values[trace_offsets[i] + r·bins(i) .. trace_offsets[i] + (r+1)·bins(i)]`.
//! Round-tripping through [`TraceColumns::from_traces`] and
//! [`TraceColumns::to_trace`] is lossless (proptested in the workspace root
//! suite).

use crate::series::RegularSeries;
use crate::trace::UsageTrace;
use lorentz_types::{LorentzError, ResourceSpace};

/// The fleet's usage signal in structure-of-arrays form.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceColumns {
    /// Every value of every trace, trace-major then dimension-major.
    values: Vec<f64>,
    /// `len + 1` offsets into `values`; trace `i` spans
    /// `trace_offsets[i]..trace_offsets[i+1]`.
    trace_offsets: Vec<usize>,
    /// Per-trace resource space.
    spaces: Vec<ResourceSpace>,
    /// Per-trace bin width in seconds.
    bin_seconds: Vec<f64>,
    /// Per-trace bin count.
    bins: Vec<usize>,
}

/// A borrowed view of one trace inside a [`TraceColumns`].
#[derive(Debug, Clone, Copy)]
pub struct TraceView<'a> {
    values: &'a [f64],
    space: &'a ResourceSpace,
    bin_seconds: f64,
    bins: usize,
}

impl TraceColumns {
    /// Packs row-oriented traces into the columnar layout.
    pub fn from_traces(traces: &[UsageTrace]) -> Self {
        let total: usize = traces.iter().map(|t| t.dims() * t.bins()).sum();
        let mut columns = Self {
            values: Vec::with_capacity(total),
            trace_offsets: Vec::with_capacity(traces.len() + 1),
            spaces: Vec::with_capacity(traces.len()),
            bin_seconds: Vec::with_capacity(traces.len()),
            bins: Vec::with_capacity(traces.len()),
        };
        columns.trace_offsets.push(0);
        for t in traces {
            columns.push(t);
        }
        columns
    }

    /// Replaces the contents with the one trace `trace`, reusing the
    /// buffers: a sweep that sizes traces one at a time packs each without
    /// allocating for its values.
    pub fn pack_one(&mut self, trace: &UsageTrace) {
        self.values.clear();
        self.trace_offsets.clear();
        self.spaces.clear();
        self.bin_seconds.clear();
        self.bins.clear();
        self.trace_offsets.push(0);
        self.push(trace);
    }

    /// Appends one trace after the packed ones.
    fn push(&mut self, t: &UsageTrace) {
        for r in 0..t.dims() {
            self.values.extend_from_slice(t.resource(r).values());
        }
        self.trace_offsets.push(self.values.len());
        self.spaces.push(t.space().clone());
        self.bin_seconds.push(t.bin_seconds());
        self.bins.push(t.bins());
    }

    /// Builds columns from raw parts: one `(space, bin_seconds, columns)`
    /// record per trace, where `columns` holds one equally-long value slice
    /// per dimension of `space`.
    ///
    /// # Errors
    /// Returns [`LorentzError::DimensionMismatch`] when a record's column
    /// count disagrees with its space, and
    /// [`LorentzError::InvalidTelemetry`] for empty traces, ragged columns,
    /// non-positive bin widths, or non-finite / negative / NaN samples —
    /// the same contract [`RegularSeries::new`] enforces on the row path.
    pub fn from_parts(
        records: &[(ResourceSpace, f64, Vec<Vec<f64>>)],
    ) -> Result<Self, LorentzError> {
        let mut values = Vec::new();
        let mut trace_offsets = vec![0usize];
        let mut spaces = Vec::with_capacity(records.len());
        let mut bin_seconds = Vec::with_capacity(records.len());
        let mut bins = Vec::with_capacity(records.len());
        for (space, bin, columns) in records {
            if columns.len() != space.len() {
                return Err(LorentzError::DimensionMismatch {
                    expected: space.len(),
                    got: columns.len(),
                });
            }
            if !bin.is_finite() || *bin <= 0.0 {
                return Err(LorentzError::InvalidTelemetry(format!(
                    "invalid bin width {bin}"
                )));
            }
            let n = columns[0].len();
            if n == 0 {
                return Err(LorentzError::InvalidTelemetry(
                    "empty trace: a columnar trace needs at least one bin".into(),
                ));
            }
            for col in columns {
                if col.len() != n {
                    return Err(LorentzError::InvalidTelemetry(format!(
                        "ragged trace: column lengths {n} vs {}",
                        col.len()
                    )));
                }
                for &v in col {
                    if v.is_nan() {
                        return Err(LorentzError::InvalidTelemetry(
                            "NaN sample in columnar telemetry".into(),
                        ));
                    }
                    if !v.is_finite() || v < 0.0 {
                        return Err(LorentzError::InvalidTelemetry(format!(
                            "utilization samples must be finite and non-negative, got {v}"
                        )));
                    }
                }
                values.extend_from_slice(col);
            }
            trace_offsets.push(values.len());
            spaces.push(space.clone());
            bin_seconds.push(*bin);
            bins.push(n);
        }
        Ok(Self {
            values,
            trace_offsets,
            spaces,
            bin_seconds,
            bins,
        })
    }

    /// Number of traces.
    pub fn len(&self) -> usize {
        self.spaces.len()
    }

    /// Whether the collection is empty.
    pub fn is_empty(&self) -> bool {
        self.spaces.is_empty()
    }

    /// Total packed values across all traces and dimensions.
    pub fn total_values(&self) -> usize {
        self.values.len()
    }

    /// A borrowed view of trace `i`.
    ///
    /// # Panics
    /// Panics if `i` is out of range.
    pub fn trace(&self, i: usize) -> TraceView<'_> {
        TraceView {
            values: &self.values[self.trace_offsets[i]..self.trace_offsets[i + 1]],
            space: &self.spaces[i],
            bin_seconds: self.bin_seconds[i],
            bins: self.bins[i],
        }
    }

    /// Reconstructs trace `i` as a row-oriented [`UsageTrace`].
    ///
    /// # Errors
    /// Propagates [`RegularSeries::new`] validation (cannot fail for columns
    /// built by [`Self::from_traces`]).
    pub fn to_trace(&self, i: usize) -> Result<UsageTrace, LorentzError> {
        let view = self.trace(i);
        let series = (0..view.dims())
            .map(|r| RegularSeries::new(view.bin_seconds(), view.dim(r).to_vec()))
            .collect::<Result<Vec<_>, _>>()?;
        UsageTrace::new(view.space().clone(), series)
    }
}

impl<'a> TraceView<'a> {
    /// The resource space.
    pub fn space(&self) -> &'a ResourceSpace {
        self.space
    }

    /// Number of resource dimensions.
    pub fn dims(&self) -> usize {
        self.space.len()
    }

    /// Number of time bins.
    pub fn bins(&self) -> usize {
        self.bins
    }

    /// Bin width in seconds.
    pub fn bin_seconds(&self) -> f64 {
        self.bin_seconds
    }

    /// The contiguous value column of dimension `r`.
    ///
    /// # Panics
    /// Panics if `r` is out of range.
    pub fn dim(&self, r: usize) -> &'a [f64] {
        &self.values[r * self.bins..(r + 1) * self.bins]
    }
}

/// One-pass kernels over columnar value slices. Each kernel preserves the
/// exact floating-point evaluation order of its row-path counterpart, so a
/// columnar sweep is byte-identical to per-trace row iteration.
pub mod kernels {
    use lorentz_types::LorentzError;

    /// Number of values strictly above `threshold` — the per-dimension
    /// throttling count of Eq. 3–4. Integer-valued, hence order-independent.
    pub fn count_above(values: &[f64], threshold: f64) -> usize {
        values.iter().filter(|&&v| v > threshold).count()
    }

    /// Number of sorted values strictly above `threshold`, by binary search
    /// (`O(log n)` per candidate once a dimension is sorted into scratch).
    /// Identical to [`count_above`] on the same multiset of values.
    pub fn count_above_sorted(sorted: &[f64], threshold: f64) -> usize {
        sorted.len() - sorted.partition_point(|&v| v <= threshold)
    }

    /// ORs `values[n] > threshold` into `mask[n]` — the any-dimension union
    /// of Eq. 4 for multi-dimensional traces.
    ///
    /// # Panics
    /// Panics in debug builds if lengths differ.
    pub fn or_above(values: &[f64], threshold: f64, mask: &mut [bool]) {
        debug_assert_eq!(values.len(), mask.len());
        for (m, &v) in mask.iter_mut().zip(values) {
            *m |= v > threshold;
        }
    }

    /// Mean slack ratio `(1/N) Σ (c − w[n]) / c` (Eq. 5–6).
    ///
    /// This is THE slack expression of the workspace: the row-path
    /// `Rightsizer::slack_ratio` and the columnar optimizer both call it,
    /// so the two are bit-identical by construction. The fold order is part
    /// of the contract — four independent lane accumulators over
    /// `chunks_exact(4)` (lane `k` sums bins `k, k+4, k+8, …`), combined as
    /// `(l0 + l1) + (l2 + l3)`, then the remainder tail in bin order. The
    /// lane split keeps the reduction deterministic while letting the
    /// divisions and lane adds vectorize instead of serializing on one
    /// accumulator's add latency.
    pub fn slack_ratio(values: &[f64], capacity: f64) -> f64 {
        let mut lanes = [0.0f64; 4];
        let chunks = values.chunks_exact(4);
        let remainder = chunks.remainder();
        for chunk in chunks {
            for (lane, &w) in lanes.iter_mut().zip(chunk) {
                *lane += (capacity - w) / capacity;
            }
        }
        let mut tail = 0.0f64;
        for &w in remainder {
            tail += (capacity - w) / capacity;
        }
        (((lanes[0] + lanes[1]) + (lanes[2] + lanes[3])) + tail) / values.len() as f64
    }

    /// [`slack_ratio`] with typed-error validation — the Stage-1 statistics
    /// contract: an empty column, an invalid capacity, or NaN samples are
    /// [`LorentzError::InvalidTelemetry`] instead of a silent NaN ratio. A
    /// single-sample column is a valid one-bin trace.
    ///
    /// # Errors
    /// Returns [`LorentzError::InvalidTelemetry`] per the above.
    pub fn checked_slack_ratio(values: &[f64], capacity: f64) -> Result<f64, LorentzError> {
        if values.is_empty() {
            return Err(LorentzError::InvalidTelemetry(
                "empty trace: cannot compute slack over zero bins".into(),
            ));
        }
        if !capacity.is_finite() || capacity <= 0.0 {
            return Err(LorentzError::InvalidTelemetry(format!(
                "invalid capacity {capacity} in slack computation"
            )));
        }
        let s = slack_ratio(values, capacity);
        if s.is_nan() {
            return Err(LorentzError::InvalidTelemetry(
                "NaN sample in slack computation".into(),
            ));
        }
        Ok(s)
    }

    /// Reusable buffers for [`count_above_many`].
    #[derive(Debug, Default)]
    pub struct MultiCountScratch {
        /// Threshold indices sorted by threshold value.
        order: Vec<usize>,
        /// Thresholds in sorted order.
        sorted: Vec<f64>,
        /// `hist[j]`: how many values have exactly `j` thresholds below
        /// them.
        hist: Vec<usize>,
    }

    /// [`count_above`] for every threshold at once: one histogram pass over
    /// the column instead of one scan per threshold. For each value the
    /// number of thresholds strictly below it is found by binary search
    /// (`O(log C)`); suffix sums of that histogram are exactly the per-
    /// threshold strictly-above counts, so `counts[k] ==
    /// count_above(values, thresholds[k])` for every `k` — integers, hence
    /// bit-identical to the per-threshold scans. Non-finite thresholds
    /// (e.g. `NaN`/`∞` placeholders for candidates that will error out
    /// before their count is read) simply count zero.
    pub fn count_above_many(
        values: &[f64],
        thresholds: &[f64],
        scratch: &mut MultiCountScratch,
        counts: &mut Vec<usize>,
    ) {
        let c = thresholds.len();
        scratch.order.clear();
        scratch.order.extend(0..c);
        scratch
            .order
            .sort_unstable_by(|&a, &b| thresholds[a].total_cmp(&thresholds[b]));
        scratch.sorted.clear();
        scratch
            .sorted
            .extend(scratch.order.iter().map(|&k| thresholds[k]));
        scratch.hist.clear();
        scratch.hist.resize(c + 1, 0);
        // `j` must be the number of thresholds strictly below `v`. For the
        // small candidate ladders of Stage-1 a branchless linear count over
        // the sorted thresholds beats binary search: no data-dependent
        // branches to mispredict and the compare+sum vectorizes. Both forms
        // produce the same integer (`t < v` is false for NaN on either
        // side), so the counts stay bit-identical either way.
        if c <= 64 {
            for &v in values {
                let mut j = 0usize;
                for &t in &scratch.sorted {
                    j += usize::from(t < v);
                }
                scratch.hist[j] += 1;
            }
        } else {
            for &v in values {
                let j = scratch.sorted.partition_point(|&t| t < v);
                scratch.hist[j] += 1;
            }
        }
        counts.clear();
        counts.resize(c, 0);
        let mut above = 0usize;
        for pos in (0..c).rev() {
            above += scratch.hist[pos + 1];
            counts[scratch.order[pos]] = above;
        }
    }

    /// [`slack_ratio`] for several candidate capacities: entry `k` equals
    /// `slack_ratio(values, capacities[k])` bit-for-bit. Delegates per
    /// capacity so the lane-accumulator fold of [`slack_ratio`] stays the
    /// single source of truth for the reduction order.
    pub fn slack_ratio_multi(values: &[f64], capacities: &[f64], out: &mut Vec<f64>) {
        out.clear();
        out.extend(capacities.iter().map(|&c| slack_ratio(values, c)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lorentz_types::ResourceSpace;

    fn reg(values: &[f64]) -> RegularSeries {
        RegularSeries::new(300.0, values.to_vec()).unwrap()
    }

    fn two_dim() -> UsageTrace {
        UsageTrace::new(
            ResourceSpace::vcores_memory(),
            vec![reg(&[1.0, 3.0, 2.0]), reg(&[8.0, 4.0, 6.0])],
        )
        .unwrap()
    }

    #[test]
    fn pack_one_reuses_the_buffer_for_one_trace() {
        let a = UsageTrace::single(RegularSeries::new(300.0, vec![1.0, 2.0, 3.0]).unwrap());
        let b = UsageTrace::single(RegularSeries::new(60.0, vec![4.0]).unwrap());
        let mut one = TraceColumns::from_traces(&[]);
        for t in [&a, &b, &a] {
            one.pack_one(t);
            assert_eq!(one, TraceColumns::from_traces(std::slice::from_ref(t)));
        }
    }

    #[test]
    fn round_trips_row_traces() {
        let traces = vec![UsageTrace::single(reg(&[2.0, 5.0])), two_dim()];
        let cols = TraceColumns::from_traces(&traces);
        assert_eq!(cols.len(), 2);
        assert_eq!(cols.total_values(), 2 + 6);
        for (i, t) in traces.iter().enumerate() {
            assert_eq!(&cols.to_trace(i).unwrap(), t);
        }
    }

    #[test]
    fn views_expose_contiguous_dims() {
        let cols = TraceColumns::from_traces(&[two_dim()]);
        let v = cols.trace(0);
        assert_eq!(v.dims(), 2);
        assert_eq!(v.bins(), 3);
        assert_eq!(v.bin_seconds(), 300.0);
        assert_eq!(v.dim(0), &[1.0, 3.0, 2.0]);
        assert_eq!(v.dim(1), &[8.0, 4.0, 6.0]);
    }

    #[test]
    fn from_parts_validates_arity() {
        let space = ResourceSpace::vcores_memory();
        let err = TraceColumns::from_parts(&[(space, 300.0, vec![vec![1.0]])]).unwrap_err();
        assert!(matches!(err, LorentzError::DimensionMismatch { .. }));
    }

    #[test]
    fn from_parts_rejects_empty_trace() {
        let space = ResourceSpace::vcores_only();
        let err = TraceColumns::from_parts(&[(space, 300.0, vec![vec![]])]).unwrap_err();
        assert!(matches!(err, LorentzError::InvalidTelemetry(m) if m.contains("empty trace")));
    }

    #[test]
    fn from_parts_rejects_nan_samples() {
        let space = ResourceSpace::vcores_only();
        let err =
            TraceColumns::from_parts(&[(space, 300.0, vec![vec![1.0, f64::NAN]])]).unwrap_err();
        assert!(matches!(err, LorentzError::InvalidTelemetry(m) if m.contains("NaN")));
    }

    #[test]
    fn from_parts_rejects_ragged_and_bad_bins() {
        let space = ResourceSpace::vcores_memory();
        let ragged =
            TraceColumns::from_parts(&[(space.clone(), 300.0, vec![vec![1.0, 2.0], vec![1.0]])]);
        assert!(matches!(
            ragged.unwrap_err(),
            LorentzError::InvalidTelemetry(m) if m.contains("ragged")
        ));
        let bad_bin =
            TraceColumns::from_parts(&[(ResourceSpace::vcores_only(), 0.0, vec![vec![1.0]])]);
        assert!(bad_bin.is_err());
    }

    #[test]
    fn single_sample_trace_is_valid() {
        let space = ResourceSpace::vcores_only();
        let cols = TraceColumns::from_parts(&[(space, 300.0, vec![vec![2.5]])]).unwrap();
        assert_eq!(cols.trace(0).dim(0), &[2.5]);
        assert_eq!(cols.to_trace(0).unwrap().bins(), 1);
    }

    #[test]
    fn checked_slack_ratio_typed_errors_per_branch() {
        // Empty trace.
        assert!(matches!(
            kernels::checked_slack_ratio(&[], 4.0).unwrap_err(),
            LorentzError::InvalidTelemetry(m) if m.contains("empty trace")
        ));
        // Invalid capacities (zero, negative, non-finite) instead of ±inf/NaN ratios.
        for cap in [0.0, -2.0, f64::NAN, f64::INFINITY] {
            assert!(matches!(
                kernels::checked_slack_ratio(&[1.0], cap).unwrap_err(),
                LorentzError::InvalidTelemetry(m) if m.contains("invalid capacity")
            ));
        }
        // NaN samples.
        assert!(matches!(
            kernels::checked_slack_ratio(&[1.0, f64::NAN], 4.0).unwrap_err(),
            LorentzError::InvalidTelemetry(m) if m.contains("NaN sample")
        ));
        // Single-sample traces are fine.
        assert_eq!(kernels::checked_slack_ratio(&[1.0], 4.0).unwrap(), 0.75);
    }

    #[test]
    fn kernels_match_naive_forms() {
        let vals = [1.0, 3.5, 2.0, 3.5, 0.5];
        assert_eq!(kernels::count_above(&vals, 2.0), 2);
        let mut sorted = vals.to_vec();
        sorted.sort_unstable_by(|a, b| a.partial_cmp(b).unwrap());
        for thr in [-1.0, 0.5, 2.0, 3.5, 9.0] {
            assert_eq!(
                kernels::count_above_sorted(&sorted, thr),
                kernels::count_above(&vals, thr),
                "thr={thr}"
            );
        }
        let mut mask = vec![false; vals.len()];
        kernels::or_above(&vals, 3.0, &mut mask);
        assert_eq!(mask, vec![false, true, false, true, false]);

        // Reference fold mirroring the documented lane contract: lane k
        // sums bins k, k+4, k+8, …, lanes combine pairwise, tail in order.
        let term = |w: f64| (4.0 - w) / 4.0;
        let lanes = [term(vals[0]), term(vals[1]), term(vals[2]), term(vals[3])];
        let reference =
            (((lanes[0] + lanes[1]) + (lanes[2] + lanes[3])) + term(vals[4])) / vals.len() as f64;
        assert_eq!(kernels::slack_ratio(&vals, 4.0), reference);
        // And it is within float tolerance of the plain sequential mean.
        let naive = vals.iter().map(|&w| term(w)).sum::<f64>() / vals.len() as f64;
        assert!((kernels::slack_ratio(&vals, 4.0) - naive).abs() < 1e-12);
        let mut multi = Vec::new();
        kernels::slack_ratio_multi(&vals, &[2.0, 4.0, 8.0], &mut multi);
        assert_eq!(multi[1], kernels::slack_ratio(&vals, 4.0));
        assert_eq!(multi[0], kernels::slack_ratio(&vals, 2.0));
        assert_eq!(multi[2], kernels::slack_ratio(&vals, 8.0));
    }

    #[test]
    fn count_above_many_matches_per_threshold_scans() {
        let vals = [1.0, 3.5, 2.0, 3.5, 0.5, 2.0, 7.25];
        // Unsorted thresholds with duplicates, extremes, exact-value hits,
        // and non-finite placeholders.
        let thresholds = [2.0, -1.0, 3.5, 3.5, 9.0, 0.5, f64::INFINITY, f64::NAN, 7.25];
        let mut scratch = kernels::MultiCountScratch::default();
        let mut counts = Vec::new();
        // Twice through the same scratch: buffers must reset correctly.
        for _ in 0..2 {
            kernels::count_above_many(&vals, &thresholds, &mut scratch, &mut counts);
            let naive: Vec<usize> = thresholds
                .iter()
                .map(|&t| kernels::count_above(&vals, t))
                .collect();
            assert_eq!(counts, naive);
        }
    }
}
