//! Self-tests of the benchmark at smoke scale.

use hybridmem::json::{self, Json};
use hybridmem_benchmark::{
    expected, result_json, run, spans, Options, DEFAULT_SEED, END_TO_END, PER_LAYER, WORKLOADS,
};
use std::time::Instant;

fn smoke(workload: &str) -> Options {
    Options {
        workload: workload.into(),
        seed: DEFAULT_SEED,
        seconds: 0.0,
        trace: true,
        smoke: true,
    }
}

fn blessed(opts: &Options) -> Vec<u64> {
    expected::load(&expected::default_dir(), &opts.workload, "smoke")
        .expect("expected file parses")
        .expect("smoke digests are blessed")
}

/// Every workload at smoke scale, in one test because the sweep and
/// advisor workloads share the process-wide classify cache.
#[test]
fn smoke_runs_pass_their_checks_with_a_valid_span_tree() {
    let start = Instant::now();
    for w in WORKLOADS {
        let opts = smoke(w);
        let out = run(&opts, Some(&blessed(&opts))).expect("runs");
        assert!(out.attempted > 0, "{w}");
        assert_eq!(
            out.failed, 0,
            "{w}: {} of {} ops failed",
            out.failed, out.attempted
        );
        spans::check_tree(&out.spans).unwrap_or_else(|e| panic!("{w}: {e}"));
        let summary = hybridmem::check_chrome_trace(&out.trace_jsonl).expect("export validates");
        assert!(summary.span_names.iter().any(|n| n == "pass"), "{w}");
        let coverage = out.per_layer["trace.coverage"];
        assert!(coverage >= 0.95, "{w}: coverage {coverage}");
        // Every declared metric is reported, and nothing else.
        let mut reported: Vec<&str> = out
            .end_to_end
            .keys()
            .chain(out.per_layer.keys())
            .copied()
            .collect();
        let mut declared: Vec<&str> = END_TO_END.iter().chain(&PER_LAYER).map(|d| d.0).collect();
        reported.sort_unstable();
        declared.sort_unstable();
        assert_eq!(reported, declared, "{w}");
    }
    let secs = start.elapsed().as_secs_f64();
    assert!(secs < 30.0, "smoke run took {secs:.1} s");
}

#[test]
fn a_corrupted_expected_digest_fails_the_run() {
    let opts = Options {
        trace: false,
        ..smoke("replay_stream")
    };
    let mut digests = blessed(&opts);
    digests[1] ^= 1;
    let out = run(&opts, Some(&digests)).expect("runs");
    assert_eq!(out.failed, out.passes as u64, "one op fails per pass");
    let line = result_json(&out, &END_TO_END, &out.end_to_end);
    assert!(line.contains("\"correct\": false"), "{line}");
}

#[test]
fn printed_metrics_match_the_declaration_in_benchmark_json() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let doc = json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).expect("parses");
    let declared = |key: &str| -> Vec<(String, String)> {
        doc.arr_field(key)
            .expect(key)
            .iter()
            .map(|m| (m.str_field("name").unwrap(), m.str_field("unit").unwrap()))
            .collect()
    };
    let ours = |list: &[(&str, &str)]| -> Vec<(String, String)> {
        list.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(declared("end_to_end"), ours(&END_TO_END));
    assert_eq!(declared("per_layer"), ours(&PER_LAYER));
    let workloads: Vec<String> = doc
        .arr_field("workloads")
        .unwrap()
        .iter()
        .map(|w| w.str_field("name").unwrap())
        .collect();
    assert_eq!(workloads, WORKLOADS);

    // The result line carries exactly the declared names, with units.
    let out = hybridmem_benchmark::Outcome {
        attempted: 1,
        ..Default::default()
    };
    let line = json::parse(&result_json(&out, &PER_LAYER, &out.per_layer)).expect("result parses");
    let Some(Json::Obj(metrics)) = line.get("metrics") else {
        panic!("metrics object");
    };
    assert_eq!(metrics.len(), PER_LAYER.len());
    for (name, unit) in PER_LAYER {
        assert_eq!(metrics[name].str_field("unit").unwrap(), unit);
    }
}
