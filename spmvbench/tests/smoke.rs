//! Tiny-input smoke runs of every workload, untraced and traced, plus the
//! check that `BENCHMARK.json` names exactly the metrics a run reports.

use spmvbench::layers::PER_LAYER;
use spmvbench::{run, Args, Report, Size, Value, END_TO_END, NAMES};

fn tiny(workload: &str, trace: bool) -> Report {
    let report = run(&Args {
        workload: workload.into(),
        seed: 3,
        seconds: 0.3,
        trace,
        size: Size::Tiny,
    })
    .expect("known workload");
    assert!(report.correct, "{workload}: {:?}", report.context);
    assert_eq!(report.failed, 0);
    assert!(report.attempted > 0);
    report
}

fn names(r: &Report) -> Vec<&str> {
    r.metrics.iter().map(|m| m.name.as_str()).collect()
}

#[test]
fn every_workload_runs_untraced_on_tiny_inputs() {
    for w in NAMES {
        let r = tiny(w, false);
        let want: Vec<&str> = END_TO_END.iter().map(|m| m.0).collect();
        assert_eq!(names(&r), want, "{w}");
        for m in &r.metrics {
            // the tests share one process, so another test's allocations
            // can hide a tiny engine's RSS growth
            let positive = m.value > 0.0 || m.name == "engine_mb";
            assert!(
                m.value.is_finite() && positive,
                "{w}: {} = {}",
                m.name,
                m.value
            );
        }
        assert_eq!(r.value("cg_iters").map(f64::fract), Some(0.0));
    }
}

#[test]
fn every_workload_runs_traced_on_tiny_inputs() {
    for w in NAMES {
        let r = tiny(w, true);
        let want: Vec<&str> = PER_LAYER.iter().map(|m| m.0).collect();
        assert_eq!(names(&r), want, "{w}");
        assert!(r.metrics.iter().all(|m| m.value.is_finite()), "{w}");
        assert_eq!(r.value("failed_frac"), Some(0.0));
        let eff = r
            .value("trace.overlap_eff.vector_no_overlap")
            .expect("reported");
        assert_eq!(eff, 0.0, "{w}: vector mode without overlap hides nothing");
    }
}

#[test]
fn result_document_round_trips_from_a_real_run() {
    let r = tiny("hmep-small-hybrid", false);
    let text = r.to_value().render();
    let back = Report::from_value(&Value::parse(&text).expect("parses")).expect("reads");
    assert_eq!(back, r);
}

#[test]
fn unknown_workload_is_an_error() {
    let err = run(&Args {
        workload: "nope".into(),
        seed: 1,
        seconds: 1.0,
        trace: false,
        size: Size::Tiny,
    });
    assert!(err.is_err());
}

#[test]
fn benchmark_json_names_what_the_runs_report() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let doc = Value::parse(&text).expect("valid JSON");
    let list = |key: &str| -> Vec<(String, String, String)> {
        let Some(Value::Arr(items)) = doc.get(key) else {
            panic!("`{key}` is not a list")
        };
        items
            .iter()
            .map(|m| {
                let s = |k: &str| match m.get(k) {
                    Some(Value::Str(s)) => s.clone(),
                    _ => panic!("`{key}` entry lacks `{k}`"),
                };
                (s("name"), s("unit"), s("better"))
            })
            .collect()
    };
    let own = |l: &[(&str, &str, &str)]| -> Vec<(String, String, String)> {
        l.iter()
            .map(|(n, u, b)| (n.to_string(), u.to_string(), b.to_string()))
            .collect()
    };
    assert_eq!(list("end_to_end"), own(&END_TO_END));
    assert_eq!(list("per_layer"), own(&PER_LAYER));
    let Some(Value::Arr(workloads)) = doc.get("workloads") else {
        panic!("`workloads` is not a list")
    };
    let listed: Vec<&Value> = workloads.iter().filter_map(|w| w.get("name")).collect();
    let want: Vec<Value> = NAMES.iter().map(|n| Value::str(*n)).collect();
    assert_eq!(listed, want.iter().collect::<Vec<_>>());
}
