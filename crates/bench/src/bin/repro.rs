//! `repro` — regenerates every table and figure of the QB5000 paper.
//!
//! ```text
//! repro [--full] [--seeds N] <artifact>...
//! repro --full all
//! ```
//!
//! Artifacts: `table1 table2 table3 table4 fig1 fig3 fig5 fig6 fig7 fig8
//! fig9 fig10 fig11 fig12 fig13 fig15 fig16 fig17 all`
//! (`fig13` also prints Figure 14; `fig9` also prints Figure 16.)
//!
//! Default effort is quick (shrunk traces / epochs, minutes of runtime);
//! `--full` uses paper-faithful settings.
//!
//! `--seeds N` runs `fig11`/`fig12` on seed `0x1D7` and seeds 1 … N−1; the
//! process exits 1 when AUTO's median realised cost exceeds STATIC's, or
//! AUTO-LOGICAL's is not above AUTO's.

#![forbid(unsafe_code)]

use qb_bench::{exp_ablations, exp_clustering, exp_forecast, exp_index, exp_tables, Effort};

const ARTIFACTS: &[&str] = &[
    "table1", "table2", "table3", "table4", "fig1", "fig3", "fig5", "fig6", "fig7", "fig8",
    "fig9", "fig10", "fig11", "fig12", "fig13", "fig15", "fig17", "ablations",
];

/// The artifact's report and whether its gate held (`fig11`, `fig12`).
fn run(artifact: &str, effort: Effort, seeds: usize) -> Option<(String, bool)> {
    let out = match artifact {
        "table1" => exp_tables::table1(effort),
        "table2" => exp_tables::table2(effort),
        "table3" => exp_tables::table3(),
        "table4" => exp_tables::table4(effort),
        "fig1" => exp_clustering::fig1(effort),
        "fig3" => exp_clustering::fig3(effort),
        "fig5" => exp_clustering::fig5(effort),
        "fig6" => exp_clustering::fig6(effort),
        "fig7" => exp_forecast::fig7(effort),
        "fig8" => exp_forecast::fig8(effort),
        "fig9" | "fig16" => exp_forecast::fig9_16(effort),
        "fig10" => exp_forecast::fig10(effort),
        "fig11" => return Some(exp_index::fig11(effort, seeds)),
        "fig12" => return Some(exp_index::fig12(effort, seeds)),
        "fig13" | "fig14" => exp_clustering::fig13_14(effort),
        "fig15" => exp_forecast::fig15(effort),
        "fig17" => exp_forecast::fig17(effort),
        "ablations" => exp_ablations::ablations(effort),
        _ => return None,
    };
    Some((out, true))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut effort = Effort::Quick;
    let mut seeds = 1usize;
    let mut targets: Vec<String> = Vec::new();
    let mut args = args.iter();
    while let Some(a) = args.next() {
        match a.as_str() {
            "--full" => effort = Effort::Full,
            "--quick" => effort = Effort::Quick,
            "--seeds" => match args.next().and_then(|n| n.parse().ok()).filter(|&n| n > 0) {
                Some(n) => seeds = n,
                None => {
                    eprintln!("--seeds takes a positive seed count");
                    std::process::exit(2);
                }
            },
            "all" => targets.extend(ARTIFACTS.iter().map(|s| s.to_string())),
            other => targets.push(other.to_string()),
        }
    }
    if targets.is_empty() {
        eprintln!("usage: repro [--full] [--seeds N] <artifact>... | all");
        eprintln!("artifacts: {}", ARTIFACTS.join(" "));
        std::process::exit(2);
    }
    let mut failed = false;
    for t in targets {
        let t0 = std::time::Instant::now();
        match run(&t, effort, seeds) {
            Some((out, passed)) => {
                failed |= !passed;
                // Write via the fallible API: a closed pipe (`repro ... |
                // head`) ends the program quietly instead of panicking.
                use std::io::Write;
                let mut stdout = std::io::stdout();
                if writeln!(stdout, "{out}\n  [{t} completed in {:.1?}]\n", t0.elapsed())
                    .is_err()
                {
                    std::process::exit(0);
                }
            }
            None => {
                eprintln!("unknown artifact `{t}`; known: {}", ARTIFACTS.join(" "));
                std::process::exit(2);
            }
        }
    }
    if failed {
        std::process::exit(1);
    }
}
