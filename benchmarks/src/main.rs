//! `qb_e2e` — the forecasting loop measured end to end on four workloads.
//!
//! ```text
//! qb_e2e run --workload <name> --seed <n> --seconds <s> --trace <0|1> --out <dir>
//!            [--baseline <dir>/<name>.untraced.txt]     (required with --trace 1)
//! qb_e2e calibrate --lines <file> --seconds <s>         (prints BENCHMARK.json)
//! ```
//!
//! `run` is one process per (workload, mode); `benchmarks/run.sh` builds
//! this binary and orchestrates the processes.

mod api;
mod probes;
mod record;
mod replay;
mod speed;
mod stats;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

const DEFAULT_SEED: u64 = 11;

/// `--flag value` pairs after the subcommand.
struct Args(Vec<String>);

impl Args {
    fn get(&self, flag: &str) -> Option<&str> {
        self.0
            .chunks(2)
            .find(|pair| pair[0] == flag)
            .and_then(|pair| pair.get(1))
            .map(String::as_str)
    }

    fn parsed<T: std::str::FromStr>(&self, flag: &str, default: Option<T>) -> Result<T, String> {
        match self.get(flag) {
            Some(raw) => raw.parse().map_err(|_| format!("{flag}: cannot read {raw:?}")),
            None => default.ok_or_else(|| format!("{flag} is required")),
        }
    }
}

fn run(args: &Args) -> Result<bool, String> {
    let name: String = args.parsed("--workload", None)?;
    let workload = workloads::find(&name).ok_or_else(|| {
        let known: Vec<&str> = workloads::WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload {name:?}; one of {known:?}")
    })?;
    let seconds: f64 = args.parsed("--seconds", None)?;
    if !(seconds > 0.0 && seconds <= 60.0) {
        return Err(format!("--seconds {seconds}: must be in (0, 60]"));
    }
    let traced = match args.get("--trace") {
        Some("0") | None => false,
        Some("1") => true,
        Some(other) => return Err(format!("--trace {other}: must be 0 or 1")),
    };
    let out_dir = PathBuf::from(args.parsed::<String>("--out", None)?);
    std::fs::create_dir_all(&out_dir).map_err(|e| format!("{}: {e}", out_dir.display()))?;
    let baseline = match (traced, args.get("--baseline")) {
        (true, Some(path)) => {
            let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
            Some(record::parse_baseline(&text))
        }
        (true, None) => {
            return Err("--trace 1 needs --baseline from the paired untraced run".into())
        }
        (false, _) => None,
    };
    let opts = replay::Options {
        workload,
        seed: args.parsed("--seed", Some(DEFAULT_SEED))?,
        seconds,
        traced,
        out_dir,
        baseline,
    };
    let record = replay::run(&opts)?;

    let stem = format!("{}.{}", workload.name, if traced { "traced" } else { "untraced" });
    let write = |ext: &str, body: String| {
        let path = opts.out_dir.join(format!("{stem}.{ext}"));
        std::fs::write(&path, body).map_err(|e| format!("{}: {e}", path.display()))
    };
    write("json", record.to_json() + "\n")?;
    write("txt", record.baseline_text())?;
    print!("{}", record.metric_lines());
    println!(
        "{} state_digest {:016x} rounds {} statements {} weighted_arrivals {}",
        workload.name,
        record.state_digest,
        record.rounds,
        record.statements,
        record.weighted_arrivals
    );
    for failure in &record.check_failures {
        eprintln!("{}: CHECK FAILED: {failure}", workload.name);
    }
    println!("{}", record.result_line());
    Ok(record.correct())
}

fn calibrate(args: &Args) -> Result<bool, String> {
    let path: String = args.parsed("--lines", None)?;
    let run_seconds: u32 = args.parsed("--seconds", None)?;
    let lines = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
    let noise = record::measure_noise(&lines);
    let mut complete = true;
    for def in &record::END_TO_END {
        match noise.get(def.name) {
            Some(n) => eprintln!(
                "{:<20} runs {:>2}  quartile spread {:>6.2} %  largest gap {:>6.2} %  bound {:>5.1} %",
                def.name,
                n.runs,
                100.0 * n.iqr_share,
                100.0 * n.max_gap_share,
                100.0 * n.bound(def.name)
            ),
            None => {
                eprintln!("{:<20} no runs in {path}", def.name);
                complete = false;
            }
        }
    }
    if !complete {
        return Err("calibration needs at least two runs of every end-to-end metric".into());
    }
    print!("{}", record::manifest(run_seconds, |name| noise[name].bound(name)));
    Ok(true)
}

fn main() -> ExitCode {
    let mut argv: Vec<String> = std::env::args().skip(1).collect();
    let command = if argv.is_empty() { String::new() } else { argv.remove(0) };
    let args = Args(argv);
    let outcome = match command.as_str() {
        "run" => run(&args),
        "calibrate" => calibrate(&args),
        _ => Err("usage: qb_e2e run|calibrate --flag value ... (see benchmarks/README.md)".into()),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("qb_e2e: {message}");
            ExitCode::from(2)
        }
    }
}
