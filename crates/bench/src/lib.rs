//! # qb-bench
//!
//! The experiment harness that regenerates **every table and figure** of
//! the QB5000 paper's evaluation (§7 + appendices). The `repro` binary
//! dispatches one subcommand per artifact; the Criterion benches measure
//! the performance-sensitive components (Table 4, Figure 10b).
//!
//! Absolute numbers differ from the paper (synthetic traces, a simulated
//! DBMS, CPU-only models — see DESIGN.md), but each experiment reproduces
//! the paper's *shape*: which model wins at which horizon, how coverage
//! scales with cluster count, where AUTO overtakes STATIC, and so on.
//! EXPERIMENTS.md records paper-vs-measured values side by side.
//!
//! [`controller`] is the §7.6 closed loop: a planner outside the
//! forecasting framework that reads `qb5000`'s forecasts and builds
//! indexes in the `qb-dbsim` engine. The inputs that only the paper's
//! comparisons read live here too: the §7.7 [`logical`] clustering
//! feature, Table 3's baseline models ([`arma`], [`fnn`], [`psrnn`])
//! with their [`properties`], §6.1's rejected validation-[`weighted`]
//! ensemble, and the [`pca`] (with its Jacobi [`eigen`] solver) that
//! draws Appendix B's Figure 15 and reduces PSRNN's state.

#![forbid(unsafe_code)]

pub mod arma;
pub mod controller;
pub mod eigen;
pub mod eval;
pub mod exp_ablations;
pub mod exp_clustering;
pub mod exp_forecast;
pub mod exp_index;
pub mod exp_tables;
pub mod fnn;
pub mod logical;
pub mod pca;
pub mod pipeline_run;
pub mod properties;
pub mod psrnn;
pub mod weighted;
pub mod zoo;

/// Effort level: `Quick` shrinks traces and training epochs so the full
/// suite finishes in minutes; `Full` uses the paper-faithful settings.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Effort {
    Quick,
    Full,
}

impl Effort {
    pub fn is_quick(self) -> bool {
        matches!(self, Effort::Quick)
    }
}

/// Formats a table row with fixed-width columns for terminal output.
pub fn row(cells: &[String], widths: &[usize]) -> String {
    cells
        .iter()
        .zip(widths)
        .map(|(c, w)| format!("{c:>w$}", w = w))
        .collect::<Vec<_>>()
        .join("  ")
}

/// Writes a CSV file under `crates/bench/results/`, creating the directory
/// if needed; returns the path written. Errors are surfaced to the caller
/// (the repro binary prints-and-continues).
pub fn write_csv(name: &str, header: &str, rows: &[String]) -> std::io::Result<String> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("results");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(name);
    let mut body = String::with_capacity(rows.len() * 32 + header.len() + 1);
    body.push_str(header);
    body.push('\n');
    for r in rows {
        body.push_str(r);
        body.push('\n');
    }
    std::fs::write(&path, body)?;
    Ok(path.display().to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn row_formatting() {
        let r = row(&["a".into(), "bb".into()], &[3, 4]);
        assert_eq!(r, "  a    bb");
    }
}
