//! `hmbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//! [--smoke] [--bless] [--rev REV]`
//!
//! Prints one `workload metric value unit` line per metric computed,
//! then, as the last line, the result object: `correct`, `attempted`,
//! `failed` and `metrics` (the end-to-end metrics with `--trace 0`,
//! the per-layer metrics with `--trace 1`).

use hybridmem_benchmark::{
    expected, gang_host, result_json, run, Options, DEFAULT_SEED, END_TO_END, GANG_WORKERS, KNOBS,
    PER_LAYER, WORKERS,
};
use std::path::Path;
use std::process::ExitCode;

fn parse_seed(s: &str) -> Result<u64, String> {
    match s.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => s.parse(),
    }
    .map_err(|e| format!("bad --seed {s:?}: {e}"))
}

struct Args {
    opts: Options,
    bless: bool,
    rev: String,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        opts: Options {
            workload: String::new(),
            seed: DEFAULT_SEED,
            seconds: 25.0,
            trace: false,
            smoke: false,
        },
        bless: false,
        rev: "unknown".into(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.opts.workload = value()?,
            "--seed" => args.opts.seed = parse_seed(&value()?)?,
            "--seconds" => {
                let v = value()?;
                args.opts.seconds = v
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| format!("bad --seconds {v:?}"))?;
            }
            "--trace" => {
                args.opts.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("bad --trace {other:?} (0 or 1)")),
                }
            }
            "--smoke" => args.opts.smoke = true,
            "--bless" => args.bless = true,
            "--rev" => args.rev = value()?,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if args.opts.workload.is_empty() {
        return Err("--workload is required".into());
    }
    if args.bless && args.opts.seed != DEFAULT_SEED {
        return Err("--bless records the default seed only".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    if let Some(knob) = KNOBS.iter().find(|k| std::env::var_os(k).is_some()) {
        eprintln!(
            "hmbench: {knob} is set; unset it (the benchmark sets workers and timing \
             mode through the API, and an inherited knob would change what is measured)"
        );
        return ExitCode::from(2);
    }
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let Args { opts, bless, rev } = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("hmbench: {e}");
            return ExitCode::from(2);
        }
    };
    let dir = expected::default_dir();
    let expected = if opts.checks_expected() && !bless {
        match expected::load(&dir, &opts.workload, opts.scale()) {
            Ok(Some(list)) => Some(list),
            Ok(None) => {
                eprintln!(
                    "hmbench: no expected digests for {} ({}); every op counts as failed",
                    opts.workload,
                    opts.scale()
                );
                Some(Vec::new())
            }
            Err(e) => {
                eprintln!("hmbench: {e}");
                return ExitCode::from(2);
            }
        }
    } else {
        None
    };
    let out = match run(&opts, expected.as_deref()) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("hmbench: {e}");
            return ExitCode::from(2);
        }
    };
    if bless {
        if let Err(e) = expected::bless(&dir, &opts.workload, opts.scale(), &out.digests) {
            eprintln!("hmbench: {e}");
            return ExitCode::from(2);
        }
    }
    if opts.trace {
        let target = Path::new(env!("CARGO_MANIFEST_DIR")).join("../target/benchmark");
        let path = target.join(format!("trace_{}.jsonl", opts.workload));
        if let Err(e) =
            std::fs::create_dir_all(&target).and_then(|()| std::fs::write(&path, &out.trace_jsonl))
        {
            eprintln!("hmbench: {}: {e}", path.display());
            return ExitCode::from(2);
        }
    }
    println!(
        "# workload={} seed={:#x} workers={WORKERS} gang_workers={} nproc={nproc} passes={} \
         computed_ops={} scale={} rev={rev}",
        opts.workload,
        opts.seed,
        if gang_host() { GANG_WORKERS } else { 0 },
        out.passes,
        out.computed_ops,
        opts.scale()
    );
    for (declared, values) in [
        (&END_TO_END[..], &out.end_to_end),
        (&PER_LAYER[..], &out.per_layer),
    ] {
        for (name, unit) in declared {
            if let Some(v) = values.get(name) {
                println!("{} {name} {v} {unit}", opts.workload);
            }
        }
    }
    let (declared, values) = if opts.trace {
        (&PER_LAYER[..], &out.per_layer)
    } else {
        (&END_TO_END[..], &out.end_to_end)
    };
    println!("{}", result_json(&out, declared, values));
    ExitCode::SUCCESS
}
