//! The preset table: one [`Preset`] entry per experiment, the single
//! source of its command name, help line, `fairswap all` membership,
//! fixed arguments, printed summary and output file names.

use fairswap_simcore::Executor;
use serde::Serialize;

use crate::csv::CsvTable;
use crate::error::CoreError;
use crate::experiments::{
    cache_churn, churn, durability, extensions, fuzzed, large_scale, paper, routing, scenarios,
    sweeps, ExperimentScale,
};
use crate::obs::GridObservation;

/// What a preset reads from the command line.
#[derive(Debug, Clone)]
pub struct PresetArgs {
    /// Network size, files and master seed.
    pub scale: ExperimentScale,
    /// Whether the scale's node count was given explicitly (`large-scale`
    /// runs its 10⁵-node default otherwise).
    pub nodes_set: bool,
    /// Whether the scale's file count was given explicitly.
    pub files_set: bool,
    /// Address-space width for `large-scale`.
    pub bits: u32,
    /// Restricts `scenarios` to one of [`scenarios::SCENARIO_NAMES`].
    pub scenario: Option<String>,
}

/// What a preset run produced: its tables and a human-readable summary.
#[derive(Debug, Clone)]
pub struct PresetOutput {
    /// Every table as `(file name, table)`, in writing order.
    pub files: Vec<(&'static str, CsvTable)>,
    /// Summary lines for the terminal, without indentation.
    pub summary: Vec<String>,
}

/// One experiment preset: its help line and how to run it.
pub struct Preset {
    /// The command name (`fairswap <name>`).
    pub name: &'static str,
    /// Paper anchor ("Table I", "§V", ...) shown in the help text.
    pub section: &'static str,
    /// One-line description shown in the help text.
    pub blurb: &'static str,
    /// Whether `fairswap all` runs it (the very large presets opt out).
    pub in_all: bool,
    /// Runs the preset's grid with its fixed arguments.
    pub run: fn(&PresetArgs, &Executor, &mut GridObservation) -> Result<PresetOutput, CoreError>,
}

/// Every preset, in help order. `fairswap all` runs the `in_all` ones in
/// this order, and a trace numbers its grids by it.
pub const PRESETS: &[Preset] = &[
    Preset {
        name: "paper",
        section: "§IV",
        blurb: "Table I, Figs. 4-6 and the Gini ablation from one k x originators grid",
        in_all: true,
        run: run_paper,
    },
    Preset {
        name: "sweep-files",
        section: "§IV-B",
        blurb: "Gini convergence over file count",
        in_all: true,
        run: run_sweep_files,
    },
    Preset {
        name: "overhead",
        section: "§V",
        blurb: "connections & settlements vs k",
        in_all: true,
        run: run_overhead,
    },
    Preset {
        name: "bucket0",
        section: "§V",
        blurb: "bucket-zero-only k increase",
        in_all: true,
        run: run_bucket0,
    },
    Preset {
        name: "freeride",
        section: "§V",
        blurb: "free-riding fraction sweep",
        in_all: true,
        run: run_freeride,
    },
    Preset {
        name: "caching",
        section: "§V",
        blurb: "popularity + caching",
        in_all: true,
        run: run_caching,
    },
    Preset {
        name: "mechanisms",
        section: "§I/§II",
        blurb: "baseline mechanism comparison",
        in_all: true,
        run: run_mechanisms,
    },
    Preset {
        name: "churn",
        section: "§V f.w.",
        blurb: "F1/F2 fairness vs churn rate, k in {4, 20}",
        in_all: true,
        run: run_churn,
    },
    Preset {
        name: "durability",
        section: "§V f.w.",
        blurb: "repair mode x churn rate x k durability study",
        in_all: true,
        run: run_durability,
    },
    Preset {
        name: "scenarios",
        section: "shocks",
        blurb: "targeted departures, flash crowds, outages, heterogeneity",
        in_all: true,
        run: run_scenarios,
    },
    Preset {
        name: "routing",
        section: "policy",
        blurb: "drop vs capacity-detour routing under heterogeneity",
        in_all: true,
        run: run_routing,
    },
    Preset {
        name: "cache-churn",
        section: "policy",
        blurb: "cache policy x churn rate grid",
        in_all: true,
        run: run_cache_churn,
    },
    Preset {
        name: "fuzzed",
        section: "fuzzing",
        blurb: "replay the committed gallery of machine-found scenarios",
        in_all: false,
        run: run_fuzzed,
    },
    Preset {
        name: "large-scale",
        section: "scaling",
        blurb: "fairness at 10^5 nodes, 20-24-bit space",
        in_all: false,
        run: run_large_scale,
    },
];

/// What a preset's `run` returns.
type PresetResult = Result<PresetOutput, CoreError>;

/// `rows` as the table `name`, summarised one `line` per row.
fn rows<T: Serialize>(name: &'static str, rows: &[T], line: impl Fn(&T) -> String) -> PresetOutput {
    PresetOutput {
        files: vec![(name, CsvTable::from_rows(rows))],
        summary: rows.iter().map(line).collect(),
    }
}

fn run_paper(args: &PresetArgs, exec: &Executor, obs: &mut GridObservation) -> PresetResult {
    let grid = paper::run(args.scale, exec, obs)?;
    let mut summary: Vec<String> = grid
        .cells
        .iter()
        .map(|c| {
            format!(
                "k={:<2} originators={:>4}%  mean_forwarded={:>10.1}  F2 gini={:.4}  F1 gini={:.4} (paid nodes: {})",
                c.k,
                c.originator_fraction * 100.0,
                c.mean_forwarded,
                c.f2_gini,
                c.f1_gini,
                c.paid_nodes
            )
        })
        .collect();
    for fraction in [0.2, 1.0] {
        if let Some(ratio) = grid.area_ratio(fraction) {
            summary.push(format!(
                "originators={:>4}%  area(k=4)/area(k=20) = {ratio:.2}",
                fraction * 100.0
            ));
        }
    }
    summary.push(format!(
        "theil, atkinson(0.5) and hoover agree with gini on the k=4 vs k=20 ordering: {}",
        grid.all_indices_agree()
    ));
    Ok(PresetOutput {
        files: grid.csvs().into(),
        summary,
    })
}

fn run_sweep_files(args: &PresetArgs, exec: &Executor, obs: &mut GridObservation) -> PresetResult {
    let results = sweeps::files_convergence(args.scale, &[(4, 1.0)], exec, obs)?;
    let result = &results[0];
    Ok(PresetOutput {
        files: vec![("sweep_files.csv", result.to_csv())],
        summary: result
            .trajectory
            .iter()
            .map(|s| format!("files={:<6} F2 gini={:.4}", s.timestep, s.f2_gini))
            .collect(),
    })
}

fn run_overhead(args: &PresetArgs, exec: &Executor, obs: &mut GridObservation) -> PresetResult {
    let ks = [4, 8, 12, 16, 20, 32];
    let sweep = sweeps::overhead_vs_k(args.scale, &ks, 1.0, 2, exec, obs)?;
    Ok(rows("overhead.csv", &sweep.rows, |r| {
        format!(
            "k={:<2} connections/node={:>6.1} settlements={:>8} mean_payment={:>7.2}",
            r.k, r.mean_connections, r.settlements, r.mean_payment
        )
    }))
}

fn run_bucket0(args: &PresetArgs, exec: &Executor, obs: &mut GridObservation) -> PresetResult {
    let result = extensions::bucket_zero(args.scale, 0.2, exec, obs)?;
    Ok(rows("bucket0.csv", &result.rows, |r| {
        format!(
            "{:<16} connections/node={:>6.1} F2={:.4} F1={:.4}",
            r.sizing, r.mean_connections, r.f2_gini, r.f1_gini
        )
    }))
}

fn run_freeride(args: &PresetArgs, exec: &Executor, obs: &mut GridObservation) -> PresetResult {
    let fractions = [0.0, 0.1, 0.2, 0.3, 0.4, 0.5];
    let result = extensions::free_riding(args.scale, 4, &fractions, exec, obs)?;
    Ok(rows("freeride.csv", &result.rows, |r| {
        format!(
            "free-riders={:>4}%  F2={:.4} F1={:.4} income={:.0}",
            r.free_rider_fraction * 100.0,
            r.f2_gini,
            r.f1_gini,
            r.total_income
        )
    }))
}

fn run_caching(args: &PresetArgs, exec: &Executor, obs: &mut GridObservation) -> PresetResult {
    let result = extensions::caching(args.scale, 4, 1024, exec, obs)?;
    Ok(rows("caching.csv", &result.rows, |r| {
        format!(
            "workload={:<8} cache={:<5} mean_forwarded={:>9.1} hits={:>8}",
            r.workload, r.cache, r.mean_forwarded, r.cache_hits
        )
    }))
}

fn run_mechanisms(args: &PresetArgs, exec: &Executor, obs: &mut GridObservation) -> PresetResult {
    let result = extensions::mechanisms(args.scale, 4, 1.0, exec, obs)?;
    Ok(rows("mechanisms.csv", &result.rows, |r| {
        format!(
            "{:<20} F2={:.4} F1(income)={:.4} earning={:>5.1}%",
            r.mechanism,
            r.f2_gini,
            r.f1_income_gini,
            r.earning_fraction * 100.0
        )
    }))
}

fn run_churn(args: &PresetArgs, exec: &Executor, obs: &mut GridObservation) -> PresetResult {
    let result = churn::run(args.scale, &churn::DEFAULT_RATES, exec, obs)?;
    let mut output = rows("churn.csv", &result.rows, |r| {
        format!(
            "k={:<2} churn={:>4.0}%  F1={:.4} F2={:.4} leaves={:>5} live={:>4} stuck={:>6}",
            r.k,
            r.churn_rate * 100.0,
            r.f1_gini,
            r.f2_gini,
            r.leaves,
            r.final_live,
            r.stuck_requests
        )
    });
    output
        .files
        .push(("churn_timeline.csv", CsvTable::from_rows(&result.timeline)));
    Ok(output)
}

fn run_durability(args: &PresetArgs, exec: &Executor, obs: &mut GridObservation) -> PresetResult {
    let result = durability::run(args.scale, &durability::DEFAULT_RATES, exec, obs)?;
    let mut output = rows("durability.csv", &result.rows, |r| {
        format!(
            "{:<14} k={:<2} churn={:>4.0}%  repaired={:>5} ttr={:>5.1} unreachable={:>4} recovered={:>5} F2={:.4}",
            r.mode,
            r.k,
            r.churn_rate * 100.0,
            r.repair_delivered,
            r.mean_time_to_repair,
            r.final_unreachable,
            r.recovered,
            r.f2_gini
        )
    });
    let timeline = CsvTable::from_rows(&result.timeline);
    output.files.push(("durability_timeline.csv", timeline));
    Ok(output)
}

fn run_scenarios(args: &PresetArgs, exec: &Executor, obs: &mut GridObservation) -> PresetResult {
    let names: Vec<&str> = match &args.scenario {
        Some(name) => vec![name.as_str()],
        None => scenarios::SCENARIO_NAMES.to_vec(),
    };
    let result = scenarios::run(args.scale, &names, exec, obs)?;
    let mut output = rows("scenarios.csv", &result.rows, |r| {
        format!(
            "{:<18} k={:<2} F2={:.4} (pre-shock {:.4}) F1={:.4} leaves={:>5} targeted={:>3} blocked={:>6} live={:>4}",
            r.scenario,
            r.k,
            r.f2_gini,
            r.f2_pre_shock,
            r.f1_gini,
            r.leaves,
            r.targeted_removals,
            r.capacity_blocked,
            r.final_live
        )
    });
    let timeline = CsvTable::from_rows(&result.timeline);
    output.files.push(("scenarios_timeline.csv", timeline));
    for &name in &names {
        for k in [4, 20] {
            let shocked = result.row(name, k).is_some_and(|r| r.shock_step > 0);
            if let Some(reduction) = result.shock_gini_reduction(name, k).filter(|_| shocked) {
                output.summary.push(format!(
                    "{name} k={k}: shock changed F2 gini by {:+.1}%",
                    -reduction * 100.0
                ));
            }
        }
    }
    Ok(output)
}

fn run_routing(args: &PresetArgs, exec: &Executor, obs: &mut GridObservation) -> PresetResult {
    let result = routing::run(args.scale, exec, obs)?;
    let mut output = rows("routing.csv", &result.rows, |r| {
        format!(
            "{:<16} k={:<2} delivered={:>5.1}% blocked={:>6} detoured={:>6} hops={:.2} F2={:.4}",
            r.route,
            r.k,
            r.delivery_rate * 100.0,
            r.capacity_blocked,
            r.detoured,
            r.mean_hops,
            r.f2_gini
        )
    });
    for k in [4, 20] {
        if let Some(reduction) = result.drop_reduction(k) {
            output.summary.push(format!(
                "k={k}: detour recovers {:.1}% of greedy's capacity drops",
                reduction * 100.0
            ));
        }
    }
    Ok(output)
}

fn run_cache_churn(args: &PresetArgs, exec: &Executor, obs: &mut GridObservation) -> PresetResult {
    let result = cache_churn::run(args.scale, &cache_churn::DEFAULT_RATES, exec, obs)?;
    Ok(rows("cache_churn.csv", &result.rows, |r| {
        format!(
            "cache={:<5} churn={:>4.0}%  served={:>7} hits={:>7} mean_forwarded={:>9.1} F2={:.4}",
            r.cache,
            r.churn_rate * 100.0,
            r.cache_served,
            r.cache_hits,
            r.mean_forwarded,
            r.f2_gini
        )
    }))
}

fn run_fuzzed(_: &PresetArgs, exec: &Executor, obs: &mut GridObservation) -> PresetResult {
    let result = fuzzed::run(exec, obs)?;
    Ok(rows("fuzzed.csv", &result.rows, |r| {
        format!(
            "{:<22} {:<18} gini_k4={:.4} gini_k20={:.4} inversion={:+.4} drop={:.3} hops={:.2}",
            r.name, r.mechanism, r.gini_k4, r.gini_k20, r.inversion, r.drop_rate, r.mean_hops
        )
    }))
}

fn run_large_scale(args: &PresetArgs, exec: &Executor, obs: &mut GridObservation) -> PresetResult {
    // Unless explicitly sized, run the 10^5-node headline scale rather
    // than the 1000-node paper scale.
    let mut big = large_scale::default_scale().with_seed(args.scale.seed);
    if args.nodes_set {
        big.nodes = args.scale.nodes;
    }
    if args.files_set {
        big.files = args.scale.files;
    }
    let result = large_scale::run(big, args.bits, &[4, 20], exec, obs)?;
    let mut output = rows("large_scale.csv", &result.rows, |r| {
        format!(
            "k={:<2} F2={:.4} F1={:.4} mean_forwarded={:>9.1} hops={:.2} conn/node={:>6.1} stuck={}",
            r.k,
            r.f2_gini,
            r.f1_gini,
            r.mean_forwarded,
            r.mean_hops,
            r.mean_connections,
            r.stuck_requests
        )
    });
    let (nodes, files, bits) = (big.nodes, big.files, args.bits);
    let scaling = format!("scaling to nodes={nodes}, files={files}, bits={bits}");
    output.summary.insert(0, scaling);
    if let Some(reduction) = result.f2_reduction() {
        output.summary.push(format!(
            "F2 gini reduction k=4 -> k=20 at {nodes} nodes: {:.1}%",
            reduction * 100.0
        ));
    }
    Ok(output)
}
