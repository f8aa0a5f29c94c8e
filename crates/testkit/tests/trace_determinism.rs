//! Trace determinism (sim invariant 6): for seeded runs, `explain()` on a
//! degradation transition returns a complete causal chain that is
//! bit-identical across thread-pool widths 1 and 4, and the sim's traced
//! stream is byte-stable across widths and reruns. The index-build lineage
//! of the §7.6 controller is checked beside the controller, in `qb-bench`.

use std::sync::Arc;

use qb5000::EventKind;
use qb_forecast::{DegradationLevel, ForecastError, Forecaster, LinearRegression, WindowSpec};
use qb_testkit::sim::{run, Features, ModelFactory, SimCase};
use qb_workloads::Workload;

/// Tracing on, every other feature off.
fn traced() -> Features {
    Features { trace: true, ..Features::default() }
}

/// Sim stream + fit lineage + dumps are byte-identical at widths 1 and 4,
/// on both a clean and a heavily-faulted case.
#[test]
fn traced_stream_bit_identical_across_widths() {
    for intensity in [0.0, 1.0] {
        let case = SimCase {
            horizons: vec![1, 12],
            ..SimCase::new(Workload::Admissions, intensity, 0x5EED_CAFE)
        };
        let fps = run(&case, traced(), &[1, 4]).unwrap_or_else(|f| panic!("{f}"));
        assert_eq!(fps.len(), 2);
        let first = fps[0].trace.as_ref().expect("traced");
        assert!(first.stream.contains("ModelFit"), "no fit in stream:\n{}", first.stream);
        assert!(
            first.fit_lineage.contains("ClustersUpdated"),
            "fit lineage misses the cluster snapshot:\n{}",
            first.fit_lineage
        );
    }
}

/// Same seed, same case, two independent runs: `explain()` and the
/// deterministic stream are byte-stable across runs.
#[test]
fn explain_is_byte_stable_across_runs_with_same_seed() {
    let case = SimCase { horizons: vec![1], ..SimCase::new(Workload::Mooc, 0.5, 0xB5EED) };
    let a = run(&case, traced(), &[2]).unwrap_or_else(|f| panic!("{f}"));
    let b = run(&case, traced(), &[2]).unwrap_or_else(|f| panic!("{f}"));
    let (a, b) = (a[0].trace.as_ref().expect("traced"), b[0].trace.as_ref().expect("traced"));
    assert_eq!(a.stream, b.stream, "stream not byte-stable across runs");
    assert_eq!(a.fit_lineage, b.fit_lineage, "explain() not byte-stable across runs");
}

/// A model that fits fine but reports the degradation level a shared
/// switch dictates — deterministically trips a downgrade transition.
struct ReportsSingle(LinearRegression);

impl Forecaster for ReportsSingle {
    fn name(&self) -> &'static str {
        "SINGLE"
    }
    fn degradation(&self) -> DegradationLevel {
        DegradationLevel::Single
    }
    fn fit(&mut self, series: &[Vec<f64>], spec: WindowSpec) -> Result<(), ForecastError> {
        self.0.fit(series, spec)
    }
    fn predict(&self, recent: &[Vec<f64>]) -> Vec<f64> {
        self.0.predict(recent)
    }
}

/// A degradation transition's lineage is complete and bit-identical
/// across widths, and the downgrade snapshots a "degraded" dump.
#[test]
fn degradation_lineage_bit_identical_across_widths() {
    let case = SimCase {
        horizons: vec![1],
        model: ModelFactory(Arc::new(|| Box::new(ReportsSingle(LinearRegression::default())))),
        ..SimCase::new(Workload::BusTracker, 0.0, 0xD00DAD)
    };
    let fps = run(&case, traced(), &[1, 4]).unwrap_or_else(|f| panic!("{f}"));

    let mut lineages = Vec::new();
    for fp in &fps {
        let out = fp.trace.as_ref().expect("traced");
        let transition = out
            .view
            .latest(EventKind::DegradationTransition)
            .unwrap_or_else(|| panic!("no transition at width {}:\n{}", fp.width, out.stream));
        let lineage = out.view.explain(transition.id);
        for needed in ["DegradationTransition", "ModelFit", "ClustersUpdated"] {
            assert!(lineage.contains(needed), "{needed} missing from lineage:\n{lineage}");
        }
        assert!(
            out.dumps.iter().any(|d| d.reason == "degraded"),
            "downgrade did not snapshot a dump at width {}",
            fp.width
        );
        lineages.push(lineage);
    }
    assert_eq!(lineages[0], lineages[1], "degradation lineage diverged across widths");
}
