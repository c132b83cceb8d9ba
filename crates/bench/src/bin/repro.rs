//! `repro` — regenerate the paper's tables and figures.
//!
//! ```text
//! repro all              # every table and figure, as text
//! repro fig2 [--csv]     # one figure (fig2, fig3, fig4a..e, fig5, fig6a..d)
//! repro table1|table2    # the tables
//! repro latency          # the §IV-A idle-latency point values
//! repro validate         # run every shape check against the paper
//! repro gate [NAME]      # run the CI bench gates (bench::gate::table),
//!                        # or one row of it, each up to 3 attempts;
//!                        # exit 1 when a timing bound misses on every
//!                        # attempt (structural asserts panic at once)
//! repro profile [config] [--out PATH] [--metrics PATH]
//!               [--timeseries PATH]
//!                        # streaming replay with telemetry on; write a
//!                        # Chrome trace_event JSONL (about:tracing /
//!                        # Perfetto) and optionally the metrics JSON
//!                        # and the in-replay timeseries/v1 JSONL.
//!                        # config is a replay label, default
//!                        # stream_64x50000
//! repro profile-check <trace.jsonl> [--metrics PATH] [--timeseries PATH]
//!                        # validate a profile: JSONL parses, spans are
//!                        # monotonic and cover every replay phase, and
//!                        # at least 5 device metric series are present;
//!                        # --timeseries additionally validates a
//!                        # timeseries/v1 document (rejects malformed
//!                        # or empty window arrays)
//! repro report <trace.jsonl> [--timeseries PATH]
//!                        # text dashboard from a profile: per-phase
//!                        # span table, top-k stalls, final counters,
//!                        # and (with --timeseries) one sparkline
//!                        # timeline per sampled series
//! repro serve [--flush-every N] [--interval N] [--timeseries PATH]
//!             [--full]
//!                        # long-running advisor service: JSON-lines
//!                        # queries on stdin, one response per query on
//!                        # stdout with a causal id and a per-query
//!                        # span, periodic cache flush events, and a
//!                        # drain event at EOF; --timeseries writes the
//!                        # deterministic per-query sampler's export
//! repro serve-check <transcript.jsonl> [--queries N] [--timeseries PATH]
//!                        # validate a serve transcript: causal ids,
//!                        # one span per response, drain totals; and
//!                        # optionally the timeseries export
//! repro queries [--bundled smoke|full] [--out PATH]
//!                        # emit the bundled advisor query batch as
//!                        # JSON lines (the serve/advise-batch input
//!                        # format)
//! repro migrate [--golden]
//!                        # run the Cori-style migration T-sweep
//!                        # (statics vs migrated, crossover verdict)
//! repro advise <workload> [--budget-kib K] [--threads T] [--seed S]
//!              [--period P] [--json]
//!                        # one placement-advice query through the
//!                        # batch engine (workload label like
//!                        # stream_8x2000); --json prints a validated
//!                        # advisor_advice/v1 document
//! repro advise-batch [file.jsonl|-] [--bundled smoke|full]
//!                    [--rounds N] [--out PATH]
//!                        # answer a JSON-lines query batch through
//!                        # the advisor service (dedup + result cache
//!                        # + worker pool); --rounds N re-runs the
//!                        # batch asserting bit-identical answers and
//!                        # a warm cache; --out writes one advice
//!                        # document per query
//! repro trace [cores] [per_core] [--metrics PATH]
//!                        # replay the paper workloads; optionally dump
//!                        # the merged telemetry registry as JSON
//! ```

use hybridmem::figures;
use hybridmem::report::{render_figure, series_csv};
use hybridmem::validate::{render_checks, validate_all};
use std::io::{self, Write};

/// Value of `--name <value>`, if present.
fn flag_value<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

/// Positional arguments after the subcommand; flags taking a value
/// consume the following argument.
fn positionals(args: &[String]) -> Vec<&str> {
    const VALUE_FLAGS: [&str; 12] = [
        "--out",
        "--metrics",
        "--budget-kib",
        "--threads",
        "--seed",
        "--period",
        "--rounds",
        "--bundled",
        "--timeseries",
        "--flush-every",
        "--interval",
        "--queries",
    ];
    let mut out = Vec::new();
    let mut iter = args.iter().skip(1);
    while let Some(a) = iter.next() {
        if VALUE_FLAGS.contains(&a.as_str()) {
            iter.next();
        } else if !a.starts_with("--") {
            out.push(a.as_str());
        }
    }
    out
}

fn figure_by_id(id: &str) -> Option<hybridmem::FigureData> {
    Some(match id {
        "table1" => figures::table1(),
        "table2" => figures::table2(),
        "fig2" => figures::fig2(),
        "fig3" => figures::fig3(),
        "fig4a" => figures::fig4a(),
        "fig4b" => figures::fig4b(),
        "fig4c" => figures::fig4c(),
        "fig4d" => figures::fig4d(),
        "fig4e" => figures::fig4e(),
        "fig5" => figures::fig5(),
        "fig6a" => figures::fig6a(),
        "fig6b" => figures::fig6b(),
        "fig6c" => figures::fig6c(),
        "fig6d" => figures::fig6d(),
        "ext-hybrid" => hybridmem::extensions::ext_hybrid_stream(),
        "ext-interleave" => hybridmem::extensions::ext_interleaved_stream(),
        "ext-energy" => hybridmem::extensions::ext_energy_stream(),
        "ext-migrate" => hybridmem::ext_migration(),
        _ => return None,
    })
}

fn latency_report() -> String {
    let ddr = memdev::ddr4_knl();
    let hbm = memdev::mcdram_knl();
    format!(
        "Idle pointer-chase latency (paper §IV-A):\n  DRAM: {:.1} ns (paper: 130.4 ns)\n  HBM : {:.1} ns (paper: 154.0 ns)\n  HBM penalty: {:.1}% (paper: ~18%)\n",
        ddr.idle_latency.as_ns(),
        hbm.idle_latency.as_ns(),
        (hbm.idle_latency.as_ns() / ddr.idle_latency.as_ns() - 1.0) * 100.0
    )
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let stdout = std::io::stdout();
    match run(&args, &mut stdout.lock()) {
        Ok(()) => {}
        // A reader that stopped early (`repro | head`) has all it
        // wanted: stop quietly.
        Err(e) if e.kind() == io::ErrorKind::BrokenPipe => {}
        Err(e) => {
            eprintln!("repro: writing output: {e}");
            std::process::exit(1);
        }
    }
}

/// Run the subcommand in `args`, writing its output to `out`.
fn run(args: &[String], out: &mut impl Write) -> io::Result<()> {
    let cmd = args.first().map(String::as_str).unwrap_or("all");
    let csv = args.iter().any(|a| a == "--csv");
    match cmd {
        "all" => {
            for fig in figures::all_figures() {
                writeln!(out, "{}", render_figure(&fig))?;
            }
            writeln!(out, "{}", latency_report())?;
        }
        "validate" => {
            let checks = validate_all();
            write!(out, "{}", render_checks(&checks))?;
            if checks.iter().any(|c| !c.pass) {
                std::process::exit(1);
            }
        }
        "latency" => write!(out, "{}", latency_report())?,
        "trace" => {
            // repro trace [cores] [accesses_per_core] [--metrics PATH]
            let pos = positionals(args);
            let cores: u32 = pos.first().and_then(|a| a.parse().ok()).unwrap_or(16);
            let per_core: u64 = pos.get(1).and_then(|a| a.parse().ok()).unwrap_or(2_000);
            let sweep = hybridmem::TraceSweep::paper(cores, per_core, 0xC0FFEE);
            let rows = if let Some(path) = flag_value(args, "--metrics") {
                let (rows, registry) = sweep.run_with_metrics();
                let doc = hybridmem::metrics_to_json(&registry);
                hybridmem::check_metrics(&doc).expect("fresh metrics dump validates");
                std::fs::write(path, doc.to_pretty()).expect("write metrics");
                writeln!(out, "wrote {path}")?;
                rows
            } else {
                sweep.run()
            };
            write!(out, "{}", hybridmem::render_trace_replays(&rows))?;
            writeln!(
                out,
                "(replayed with {} worker thread(s))",
                simfabric::par::num_threads()
            )?;
        }
        "profile" => {
            // repro profile [config-label] [--out PATH] [--metrics PATH]
            let label = positionals(args)
                .first()
                .copied()
                .unwrap_or(bench::replay::DEFAULT_PROFILE_LABEL)
                .to_string();
            let cfg = bench::replay::ReplayConfig::parse_label(&label).unwrap_or_else(|e| {
                eprintln!("{e}");
                std::process::exit(2);
            });
            let out_path = flag_value(args, "--out")
                .map(String::from)
                .unwrap_or_else(|| format!("profile_{label}.jsonl"));
            let run = bench::replay::profile_config(&cfg);
            let trace =
                hybridmem::check_chrome_trace(&run.chrome_jsonl).expect("fresh profile validates");
            hybridmem::check_metrics(&run.metrics).expect("fresh metrics dump validates");
            let ts = hybridmem::check_timeseries(&run.timeseries_jsonl)
                .expect("fresh timeseries validates");
            std::fs::write(&out_path, &run.chrome_jsonl).expect("write profile");
            writeln!(
                out,
                "{label}: {} accesses in {:.3} s ({:.2} Macc/s with telemetry on)",
                run.accesses,
                run.seconds,
                run.accesses as f64 / run.seconds / 1e6
            )?;
            writeln!(
                out,
                "wrote {out_path} ({} events: spans [{}], {} metric series) — load in about:tracing or ui.perfetto.dev",
                trace.events,
                trace.span_names.join(", "),
                trace.counter_series
            )?;
            if let Some(path) = flag_value(args, "--metrics") {
                std::fs::write(path, run.metrics.to_pretty()).expect("write metrics");
                writeln!(out, "wrote {path}")?;
            }
            if let Some(path) = flag_value(args, "--timeseries") {
                std::fs::write(path, &run.timeseries_jsonl).expect("write timeseries");
                writeln!(
                    out,
                    "wrote {path} ({} series x {} windows, {} accesses/window)",
                    ts.series.len(),
                    ts.windows,
                    ts.interval
                )?;
            }
        }
        "profile-check" => {
            // repro profile-check <trace.jsonl> [--metrics PATH]
            let path = positionals(args)
                .first()
                .copied()
                .unwrap_or_else(|| {
                    eprintln!("usage: repro profile-check <trace.jsonl> [--metrics PATH]");
                    std::process::exit(2);
                })
                .to_string();
            let text = std::fs::read_to_string(&path).expect("read profile");
            let trace = hybridmem::check_chrome_trace(&text).unwrap_or_else(|e| {
                eprintln!("{path}: {e}");
                std::process::exit(1);
            });
            for phase in ["generate", "classify", "merge", "finish"] {
                if !trace.span_names.iter().any(|n| n == phase) {
                    eprintln!(
                        "{path}: missing replay phase span {phase:?} (have: {})",
                        trace.span_names.join(", ")
                    );
                    std::process::exit(1);
                }
            }
            if trace.counter_series < 5 {
                eprintln!(
                    "{path}: only {} metric series (expected >= 5)",
                    trace.counter_series
                );
                std::process::exit(1);
            }
            writeln!(
                out,
                "{path}: ok ({} events, spans [{}], {} metric series)",
                trace.events,
                trace.span_names.join(", "),
                trace.counter_series
            )?;
            if let Some(mpath) = flag_value(args, "--metrics") {
                let mtext = std::fs::read_to_string(mpath).expect("read metrics");
                let doc = hybridmem::json::parse(&mtext).unwrap_or_else(|e| {
                    eprintln!("{mpath}: invalid JSON: {e}");
                    std::process::exit(1);
                });
                match hybridmem::check_metrics(&doc) {
                    Ok(s) => writeln!(
                        out,
                        "{mpath}: ok ({} counters, {} gauges, {} histograms)",
                        s.counters, s.gauges, s.histograms
                    )?,
                    Err(e) => {
                        eprintln!("{mpath}: {e}");
                        std::process::exit(1);
                    }
                }
            }
            if let Some(tpath) = flag_value(args, "--timeseries") {
                let ttext = std::fs::read_to_string(tpath).expect("read timeseries");
                match hybridmem::check_timeseries(&ttext) {
                    Ok(s) => writeln!(
                        out,
                        "{tpath}: ok ({} series [{}], {} windows, {} ticks, {} dropped)",
                        s.series.len(),
                        s.series.join(", "),
                        s.windows,
                        s.ticks,
                        s.dropped
                    )?,
                    Err(e) => {
                        eprintln!("{tpath}: {e}");
                        std::process::exit(1);
                    }
                }
            }
        }
        "compare" => {
            let cmp = hybridmem::compare_with_model();
            write!(out, "{}", hybridmem::paper::render_comparison(&cmp))?;
        }
        "sensitivity" => {
            write!(
                out,
                "{}",
                hybridmem::sensitivity::render_scans(&hybridmem::all_scans())
            )?;
        }
        "export" => {
            // repro export <path.json>
            let path = args.get(1).map(String::as_str).unwrap_or("results.json");
            let archive = hybridmem::Archive::capture(
                "knl-hybrid-memory reproduction (Xeon Phi 7210 model)",
                figures::all_figures(),
            );
            std::fs::write(path, archive.to_json()).expect("write archive");
            writeln!(out, "wrote {path}")?;
        }
        "diff" => {
            // repro diff <baseline.json> <candidate.json> [tolerance]
            let base = args.get(1).expect("baseline path");
            let cand = args.get(2).expect("candidate path");
            let tol: f64 = args.get(3).and_then(|a| a.parse().ok()).unwrap_or(0.02);
            let base = hybridmem::Archive::from_json(
                &std::fs::read_to_string(base).expect("read baseline"),
            )
            .expect("parse baseline");
            let cand = hybridmem::Archive::from_json(
                &std::fs::read_to_string(cand).expect("read candidate"),
            )
            .expect("parse candidate");
            let divs = hybridmem::diff(&base, &cand, tol);
            write!(out, "{}", hybridmem::archive::render_diff(&divs))?;
            if !divs.is_empty() {
                std::process::exit(1);
            }
        }
        "gate" => {
            // repro gate [NAME]
            let gates = bench::gate::table();
            let selected: Vec<_> = match args.get(1) {
                Some(name) => gates.iter().filter(|g| g.name == name).collect(),
                None => gates.iter().collect(),
            };
            if selected.is_empty() {
                let names: Vec<_> = gates.iter().map(|g| g.name).collect();
                eprintln!("unknown gate {:?}; try: {}", args[1], names.join(", "));
                std::process::exit(2);
            }
            let mut failed = Vec::new();
            for g in selected {
                if let Err(e) = bench::gate::run_gate(g, out)? {
                    failed.push(e);
                }
            }
            for e in &failed {
                eprintln!("{e}");
            }
            if !failed.is_empty() {
                std::process::exit(1);
            }
        }
        "migrate" => {
            // repro migrate [--golden]
            let golden = args.iter().any(|a| a == "--golden");
            let cfg = if golden {
                hybridmem::MigrationSweepConfig::golden()
            } else {
                hybridmem::MigrationSweepConfig::cori()
            };
            let sweep = hybridmem::run_migration_sweep(&cfg);
            write!(out, "{}", hybridmem::render_migration_sweep(&sweep))?;
            let speedup = sweep.crossover_speedup();
            if speedup > 1.0 {
                writeln!(
                    out,
                    "crossover: migration beats every static placement that fits the \
                     {}-page budget",
                    cfg.budget_pages
                )?;
            } else {
                writeln!(
                    out,
                    "no crossover at this scale (best migrated {speedup:.3}x of best static)"
                )?;
                // The golden configuration is deliberately tiny and
                // latency-bound; only the repro-scale sweep gates.
                if !golden {
                    std::process::exit(1);
                }
            }
        }
        "advise" => {
            // repro advise <workload> [--budget-kib K] [--threads T]
            //              [--seed S] [--period P] [--json]
            let pos = positionals(args);
            let workload = pos.first().copied().unwrap_or_else(|| {
                eprintln!(
                    "usage: repro advise <workload> [--budget-kib K] [--threads T] [--seed S] [--period P] [--json]"
                );
                std::process::exit(2);
            });
            let budget_kib: u64 = flag_value(args, "--budget-kib")
                .and_then(|a| a.parse().ok())
                .unwrap_or(256);
            let mut query =
                hybridmem::AdvisorQuery::over(workload, simfabric::ByteSize::kib(budget_kib))
                    .unwrap_or_else(|e| {
                        eprintln!("{e}");
                        std::process::exit(2);
                    });
            if let Some(t) = flag_value(args, "--threads").and_then(|a| a.parse().ok()) {
                query.threads = t;
            }
            if let Some(s) = flag_value(args, "--seed").and_then(|a| a.parse().ok()) {
                query.seed = s;
            }
            if let Some(p) = flag_value(args, "--period").and_then(|a| a.parse().ok()) {
                query.migrate_period = p;
            }
            let key = hybridmem::canonicalize(&query);
            let service = hybridmem::AdvisorService::with_defaults();
            let advice = service.advise(&query);
            if args.iter().any(|a| a == "--json") {
                let doc = hybridmem::advice_to_json(&key, &advice);
                hybridmem::check_advice(&doc).expect("fresh advice validates");
                writeln!(out, "{}", doc.to_pretty())?;
            } else {
                writeln!(
                    out,
                    "{} (canonical: {})",
                    query.workload_label(),
                    key.canonical()
                )?;
                writeln!(
                    out,
                    "{:<28} {:>6} {:>14} {:>10}",
                    "candidate", "fits", "makespan_us", "bw_GBs"
                )?;
                for c in &advice.candidates {
                    writeln!(
                        out,
                        "{:<28} {:>6} {:>14.3} {:>10.3}",
                        c.label,
                        if c.fits_budget { "yes" } else { "no" },
                        c.report.makespan.as_ns() / 1e3,
                        c.report.bandwidth_gbs
                    )?;
                }
                writeln!(
                    out,
                    "recommended: {} ({:.2}x vs all-DDR)",
                    advice.recommended().label,
                    advice.speedup_vs_ddr
                )?;
            }
        }
        "advise-batch" => {
            // repro advise-batch [file.jsonl|-] [--bundled smoke|full]
            //                    [--rounds N] [--out PATH]
            let rounds: usize = flag_value(args, "--rounds")
                .and_then(|a| a.parse().ok())
                .unwrap_or(1)
                .max(1);
            let queries: Vec<hybridmem::AdvisorQuery> = if let Some(which) =
                flag_value(args, "--bundled")
            {
                let cfg = match which {
                    "smoke" => bench::advisor::smoke_advisor_config(),
                    "full" => bench::advisor::standard_advisor_config(),
                    other => {
                        eprintln!("unknown bundled batch {other:?} (want smoke or full)");
                        std::process::exit(2);
                    }
                };
                cfg.batch()
            } else {
                let path = positionals(args).first().copied().unwrap_or_else(|| {
                        eprintln!(
                            "usage: repro advise-batch <file.jsonl|-> | --bundled smoke|full [--rounds N] [--out PATH]"
                        );
                        std::process::exit(2);
                    });
                let text = if path == "-" {
                    use std::io::Read as _;
                    let mut buf = String::new();
                    std::io::stdin()
                        .read_to_string(&mut buf)
                        .expect("read stdin");
                    buf
                } else {
                    std::fs::read_to_string(path).expect("read query batch")
                };
                text.lines()
                    .map(str::trim)
                    .filter(|l| !l.is_empty())
                    .enumerate()
                    .map(|(i, line)| {
                        let doc = hybridmem::json::parse(line).unwrap_or_else(|e| {
                            eprintln!("query line {}: invalid JSON: {e}", i + 1);
                            std::process::exit(1);
                        });
                        hybridmem::AdvisorQuery::from_json(&doc).unwrap_or_else(|e| {
                            eprintln!("query line {}: {e}", i + 1);
                            std::process::exit(1);
                        })
                    })
                    .collect()
            };
            if queries.is_empty() {
                eprintln!("empty query batch");
                std::process::exit(1);
            }
            let service = hybridmem::AdvisorService::with_defaults();
            let mut first: Option<Vec<std::sync::Arc<hybridmem::ReplayedAdvice>>> = None;
            let mut last_hits = 0;
            for round in 1..=rounds {
                let (answers, stats) = service.advise_batch(&queries);
                writeln!(
                    out,
                    "round {round}: {} queries -> {} distinct, {} cache hits, {} shared, {} computed",
                    stats.queries, stats.distinct, stats.cache_hits, stats.shared, stats.computed
                )?;
                last_hits = stats.cache_hits;
                match &first {
                    Some(cold) => {
                        for (i, (a, b)) in cold.iter().zip(&answers).enumerate() {
                            assert_eq!(
                                **a, **b,
                                "round {round} diverged from round 1 at query {i}"
                            );
                        }
                    }
                    None => first = Some(answers),
                }
            }
            if rounds > 1 && last_hits == 0 {
                eprintln!("warm round served no cache hits — the result cache is not retaining");
                std::process::exit(1);
            }
            let reg = service.cache().metrics_registry();
            for name in [
                "advisor.cache.hits",
                "advisor.cache.misses",
                "advisor.cache.inserts",
                "advisor.cache.bytes",
            ] {
                if let Some(v) = reg.get(name) {
                    writeln!(out, "{name}: {v:?}")?;
                }
            }
            if let Some(path) = flag_value(args, "--out") {
                let answers = first.expect("at least one round ran");
                let lines: Vec<String> = queries
                    .iter()
                    .zip(&answers)
                    .map(|(q, advice)| {
                        let doc = hybridmem::advice_to_json(&hybridmem::canonicalize(q), advice);
                        hybridmem::check_advice(&doc).expect("fresh advice validates");
                        doc.to_compact()
                    })
                    .collect();
                std::fs::write(path, lines.join("\n") + "\n").expect("write advice batch");
                writeln!(out, "wrote {path} ({} advice documents)", lines.len())?;
            }
        }
        "report" => {
            // repro report <trace.jsonl> [--timeseries PATH]
            let path = positionals(args)
                .first()
                .copied()
                .unwrap_or_else(|| {
                    eprintln!("usage: repro report <trace.jsonl> [--timeseries PATH]");
                    std::process::exit(2);
                })
                .to_string();
            let trace_text = std::fs::read_to_string(&path).expect("read profile");
            let ts_text = flag_value(args, "--timeseries")
                .map(|p| std::fs::read_to_string(p).expect("read timeseries"));
            match hybridmem::render_report(&trace_text, ts_text.as_deref()) {
                Ok(rendered) => write!(out, "{rendered}")?,
                Err(e) => {
                    eprintln!("{path}: {e}");
                    std::process::exit(1);
                }
            }
        }
        "serve" => {
            // repro serve [--flush-every N] [--interval N] [--timeseries PATH]
            //             [--full]
            let mut opts = bench::serve::ServeOptions::default();
            if let Some(f) = flag_value(args, "--flush-every").and_then(|a| a.parse().ok()) {
                opts.flush_every = f;
            }
            if let Some(i) = flag_value(args, "--interval").and_then(|a| a.parse().ok()) {
                opts.ts_interval = i;
            }
            opts.full_advice = args.iter().any(|a| a == "--full");
            let stdin = std::io::stdin();
            let summary =
                bench::serve::serve_loop(stdin.lock(), &mut *out, &opts).unwrap_or_else(|e| {
                    eprintln!("serve: {e}");
                    std::process::exit(1);
                });
            // The transcript owns stdout; the human-facing summary
            // goes to stderr.
            eprintln!(
                "served {} queries ({} cache hits, {} shared, {} computed, {} errors)",
                summary.queries, summary.hits, summary.shared, summary.computed, summary.errors
            );
            if let Some(path) = flag_value(args, "--timeseries") {
                let ts = hybridmem::check_timeseries(&summary.timeseries_jsonl)
                    .expect("fresh serve timeseries validates");
                std::fs::write(path, &summary.timeseries_jsonl).expect("write timeseries");
                eprintln!(
                    "wrote {path} ({} series x {} windows, {} queries/window)",
                    ts.series.len(),
                    ts.windows,
                    ts.interval
                );
            }
        }
        "serve-check" => {
            // repro serve-check <transcript.jsonl> [--queries N] [--timeseries PATH]
            let path = positionals(args)
                .first()
                .copied()
                .unwrap_or_else(|| {
                    eprintln!(
                        "usage: repro serve-check <transcript.jsonl> [--queries N] [--timeseries PATH]"
                    );
                    std::process::exit(2);
                })
                .to_string();
            let text = std::fs::read_to_string(&path).expect("read transcript");
            let expect = flag_value(args, "--queries").and_then(|a| a.parse().ok());
            match bench::serve::check_serve_output(&text, expect) {
                Ok(c) => writeln!(
                    out,
                    "{path}: ok ({} responses, {} cache hits, {} shared, {} errors, {} flush events)",
                    c.responses, c.hits, c.shared, c.errors, c.flushes
                )?,
                Err(e) => {
                    eprintln!("{path}: {e}");
                    std::process::exit(1);
                }
            }
            if let Some(tpath) = flag_value(args, "--timeseries") {
                let ttext = std::fs::read_to_string(tpath).expect("read timeseries");
                match hybridmem::check_timeseries(&ttext) {
                    Ok(s) => writeln!(
                        out,
                        "{tpath}: ok ({} series, {} windows, {} ticks)",
                        s.series.len(),
                        s.windows,
                        s.ticks
                    )?,
                    Err(e) => {
                        eprintln!("{tpath}: {e}");
                        std::process::exit(1);
                    }
                }
            }
        }
        "queries" => {
            // repro queries [--bundled smoke|full] [--out PATH]
            let cfg = match flag_value(args, "--bundled").unwrap_or("full") {
                "smoke" => bench::advisor::smoke_advisor_config(),
                "full" => bench::advisor::standard_advisor_config(),
                other => {
                    eprintln!("unknown bundled batch {other:?} (want smoke or full)");
                    std::process::exit(2);
                }
            };
            let lines: Vec<String> = cfg
                .batch()
                .iter()
                .map(|q| q.to_json().to_compact())
                .collect();
            match flag_value(args, "--out") {
                Some(path) => {
                    std::fs::write(path, lines.join("\n") + "\n").expect("write queries");
                    writeln!(out, "wrote {path} ({} queries)", lines.len())?;
                }
                None => {
                    for line in &lines {
                        writeln!(out, "{line}")?;
                    }
                }
            }
        }
        "decompose" => {
            // repro decompose <GB> [sequential|random] [max_nodes]
            let gb: f64 = args.get(1).and_then(|a| a.parse().ok()).unwrap_or(140.0);
            let pattern = match args.get(2).map(String::as_str) {
                Some("random") => workloads::AccessClass::Random,
                _ => workloads::AccessClass::Sequential,
            };
            let max_nodes: u32 = args.get(3).and_then(|a| a.parse().ok()).unwrap_or(64);
            let plan = hybridmem::decompose(simfabric::ByteSize::gib_f(gb), pattern, max_nodes);
            writeln!(
                out,
                "{} problem, {:?} access:\n  {} node(s) x {} each, {} per node\n  predicted per-node speedup vs single node: {:.2}x\n  {}",
                plan.total, pattern, plan.nodes, plan.per_node, plan.setup.label(),
                plan.speedup_vs_single_node, plan.rationale
            )?;
        }
        id => match figure_by_id(id) {
            Some(fig) => {
                if csv {
                    write!(out, "{}", series_csv(&fig.series))?;
                } else {
                    writeln!(out, "{}", render_figure(&fig))?;
                }
            }
            None => {
                eprintln!(
                    "unknown target {id:?}; try: all, validate, latency, trace, compare, sensitivity, export, diff, decompose, migrate, gate, advise, advise-batch, serve, serve-check, queries, profile, profile-check, report, table1, table2, fig2, fig3, fig4a-e, fig5, fig6a-d, ext-hybrid, ext-interleave, ext-energy, ext-migrate"
                );
                std::process::exit(2);
            }
        },
    }
    Ok(())
}
