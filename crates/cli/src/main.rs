//! `fairswap` — command-line runner for the reproduction experiments.
//!
//! One subcommand per experiment preset (`fairswap` with no arguments
//! prints the full list — it is derived from the same dispatch table that
//! executes commands, so the help text can never drift from reality).
//! See `docs/EXPERIMENTS.md` for every preset's invocation, runtime,
//! output schema and headline finding.
//!
//! Sweeps are embarrassingly parallel across their grid cells:
//! `--threads T` fans the cells out over `T` workers (`--threads 0` = one
//! per CPU core) with **bit-identical output** to a serial run — every
//! cell derives all of its randomness from its own seed, so scheduling
//! cannot leak into results. Progress for the whole grid is rendered as
//! one live line on stderr (terminal only; `--no-progress` forces it off).
//!
//! Observability rides on the same determinism: `--trace FILE` writes the
//! merged JSONL event trace, `--metrics FILE` the per-epoch metrics CSV —
//! both byte-identical for any `--threads N` — and `--profile` prints a
//! wall-time phase breakdown. See `docs/OBSERVABILITY.md`.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use fairswap_core::experiments::{
    cache_churn, churn, durability, extensions, fuzzed, large_scale, paper, routing, scenarios,
    sweeps, ExperimentScale,
};
use fairswap_core::{
    validate_jsonl, CsvTable, Executor, GridObservation, ObsOptions, Phase, SimSpec,
};
use fairswap_fuzz::{minimize_corpus, run_campaign, Corpus, FuzzConfig};

/// One dispatchable experiment command: the single source of truth behind
/// both `usage()` and the `all` meta-command, so the help text and the
/// dispatch table cannot drift apart (`run_command` rejects names not
/// listed here before dispatching).
struct CommandSpec {
    name: &'static str,
    /// Paper anchor ("Table I", "§V", ...) shown in the help text.
    section: &'static str,
    blurb: &'static str,
    /// Whether `fairswap all` includes it (the very large presets opt
    /// out).
    in_all: bool,
}

const COMMANDS: &[CommandSpec] = &[
    CommandSpec {
        name: "paper",
        section: "§IV",
        blurb: "Table I, Figs. 4-6 and the Gini ablation from one k x originators grid",
        in_all: true,
    },
    CommandSpec {
        name: "sweep-files",
        section: "§IV-B",
        blurb: "Gini convergence over file count",
        in_all: true,
    },
    CommandSpec {
        name: "overhead",
        section: "§V",
        blurb: "connections & settlements vs k",
        in_all: true,
    },
    CommandSpec {
        name: "bucket0",
        section: "§V",
        blurb: "bucket-zero-only k increase",
        in_all: true,
    },
    CommandSpec {
        name: "freeride",
        section: "§V",
        blurb: "free-riding fraction sweep",
        in_all: true,
    },
    CommandSpec {
        name: "caching",
        section: "§V",
        blurb: "popularity + caching",
        in_all: true,
    },
    CommandSpec {
        name: "mechanisms",
        section: "§I/§II",
        blurb: "baseline mechanism comparison",
        in_all: true,
    },
    CommandSpec {
        name: "churn",
        section: "§V f.w.",
        blurb: "F1/F2 fairness vs churn rate, k in {4, 20}",
        in_all: true,
    },
    CommandSpec {
        name: "durability",
        section: "§V f.w.",
        blurb: "repair mode x churn rate x k durability study",
        in_all: true,
    },
    CommandSpec {
        name: "scenarios",
        section: "shocks",
        blurb: "targeted departures, flash crowds, outages, heterogeneity",
        in_all: true,
    },
    CommandSpec {
        name: "routing",
        section: "policy",
        blurb: "drop vs capacity-detour routing under heterogeneity",
        in_all: true,
    },
    CommandSpec {
        name: "cache-churn",
        section: "policy",
        blurb: "cache policy x churn rate grid",
        in_all: true,
    },
    CommandSpec {
        name: "run",
        section: "spec",
        blurb: "execute a SimSpec JSON file (--config FILE)",
        in_all: false,
    },
    CommandSpec {
        name: "serve",
        section: "service",
        blurb: "long-lived HTTP daemon scheduling SimSpec jobs (--addr HOST:PORT)",
        in_all: false,
    },
    CommandSpec {
        name: "fuzz",
        section: "fuzzing",
        blurb: "coverage-guided spec fuzzing with invariant oracles",
        in_all: false,
    },
    CommandSpec {
        name: "fuzzed",
        section: "fuzzing",
        blurb: "replay the committed gallery of machine-found scenarios",
        in_all: false,
    },
    CommandSpec {
        name: "large-scale",
        section: "scaling",
        blurb: "fairness at 10^5 nodes, 20-24-bit space",
        in_all: false,
    },
    CommandSpec {
        name: "trace-check",
        section: "obs",
        blurb: "validate a JSONL trace file (--trace FILE)",
        in_all: false,
    },
];

/// Commands that run no preset grid and so have nothing for `--trace` /
/// `--metrics` / `--profile` to observe; asking to observe them is rejected
/// up front rather than silently producing empty artifacts.
const UNOBSERVED: &[&str] = &["serve", "fuzz", "trace-check"];

struct Options {
    command: String,
    scale: ExperimentScale,
    /// Whether --nodes / --files were given explicitly (large-scale picks
    /// bigger defaults than the paper scale when they were not).
    nodes_set: bool,
    files_set: bool,
    bits: u32,
    threads: usize,
    /// Restricts the `scenarios` command to one named scenario.
    scenario: Option<String>,
    /// `run`: the SimSpec JSON file to execute.
    config: Option<PathBuf>,
    /// Write the merged JSONL event trace here (`trace-check` reads it
    /// instead).
    trace: Option<PathBuf>,
    /// Write the per-epoch metrics CSV here.
    metrics: Option<PathBuf>,
    /// Print a wall-time phase breakdown after the command.
    profile: bool,
    /// Suppress the live progress line even on a terminal.
    no_progress: bool,
    /// `run`: make unknown SimSpec fields fatal instead of warnings.
    strict: bool,
    /// `fuzz`: mutation iterations after the seed-corpus priming pass.
    iters: u64,
    /// `fuzz`: corpus directory (default `<out>/corpus`).
    corpus: Option<PathBuf>,
    /// `fuzz`: minimize the existing corpus instead of mutating.
    minimize: bool,
    /// `fuzz`: wall-clock cutoff in seconds (trades away bit-for-bit
    /// reproducibility; seed+iters campaigns are the reproducible ones).
    time_budget: Option<u64>,
    /// `serve`: listen address (`host:port`; port 0 picks a free port).
    addr: String,
    /// `serve`: executor threads per scheduled batch (0 = all cores).
    workers: usize,
    /// `serve`: finished jobs kept addressable (clamped to at least 1).
    cache_cap: usize,
    /// `serve`: bounded submit-queue capacity.
    queue_cap: usize,
    out: PathBuf,
}

fn usage() -> String {
    let names: Vec<&str> = COMMANDS.iter().map(|c| c.name).collect();
    let mut text = format!("usage: fairswap <{}|all>\n", names.join("|"));
    text.push_str(
        "       [--nodes N] [--files N] [--seed S] [--out DIR] [--quick] [--threads T]\n\
         \x20      [--bits B] [--scenario NAME] [--config FILE]\n\
         \x20      [--iters N] [--corpus DIR] [--minimize] [--time-budget SECS]\n\
         \x20      [--addr HOST:PORT] [--workers N] [--cache-cap N] [--queue-cap N]\n\
         \x20      [--trace FILE] [--metrics FILE] [--profile] [--no-progress] [--strict]\n\
         \nCommands:\n",
    );
    for command in COMMANDS {
        text.push_str(&format!(
            "  {:<18} {:<9} — {}\n",
            command.name, command.section, command.blurb
        ));
    }
    let all_count = COMMANDS.iter().filter(|c| c.in_all).count();
    text.push_str(&format!(
        "  {:<18} {:<9} — run the {all_count} standard presets above\n",
        "all", ""
    ));
    text.push_str(
        "\n\
         --quick     use the reduced test scale (300 nodes, 200 files)\n\
         --threads   worker threads for sweep cells (default 1; 0 = all cores);\n\
         \x20           output is bit-identical for any thread count\n\
         --bits      address-space width for large-scale (default 22)\n\
         --scenario  restrict `scenarios` to one of: ",
    );
    text.push_str(&scenarios::SCENARIO_NAMES.join(", "));
    text.push_str(
        "\n\
         --config    run: the SimSpec JSON file to execute (see docs/EXPERIMENTS.md)\n\
         --iters     fuzz: mutation iterations (default 256); same --seed + --iters\n\
         \x20           reproduces the same corpus and findings bit for bit\n\
         --corpus    fuzz: corpus directory (default <out>/corpus; see docs/FUZZING.md)\n\
         --minimize  fuzz: replay the corpus and drop entries whose behavior cells\n\
         \x20           earlier entries already cover (rewrites the corpus in place)\n\
         --time-budget  fuzz: stop mutating after SECS seconds (breaks reproducibility)\n\
         --addr      serve: listen address (default 127.0.0.1:7440; port 0 = any free port)\n\
         --workers   serve: executor threads per scheduled batch (default 2; 0 = all cores);\n\
         \x20           results are byte-identical for any worker count\n\
         --cache-cap serve: finished jobs kept for /result and /stream, least recently\n\
         \x20           used evicted first (default 64; at least 1)\n\
         --queue-cap serve: bounded submit-queue capacity (default 256)\n\
         --trace     write the merged event trace as JSONL (trace-check: the file to read)\n\
         --metrics   write per-epoch metrics as CSV\n\
         --profile   print a phase timing breakdown (topology/steps/settlement/...)\n\
         --no-progress  suppress the live progress line\n\
         --strict    run: unknown SimSpec fields become errors instead of warnings\n\
         defaults: paper scale (1000 nodes, 10000 files), out = ./results;\n\
         large-scale defaults to 100000 nodes, 2000 files",
    );
    text
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut command = None;
    let mut scale = ExperimentScale::paper();
    let mut nodes_set = false;
    let mut files_set = false;
    let mut bits = large_scale::DEFAULT_BITS;
    let mut threads = 1usize;
    let mut scenario = None;
    let mut config = None;
    let mut trace = None;
    let mut metrics = None;
    let mut profile = false;
    let mut no_progress = false;
    let mut strict = false;
    let mut quick = false;
    let mut iters = 256u64;
    let mut corpus = None;
    let mut minimize = false;
    let mut time_budget = None;
    let serve_defaults = fairswap_serve::ServeOptions::default();
    let mut addr = serve_defaults.addr;
    let mut workers = serve_defaults.workers;
    let mut cache_cap = serve_defaults.cache_cap;
    let mut queue_cap = serve_defaults.queue_cap;
    let mut out = PathBuf::from("results");
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--quick" => quick = true,
            "--minimize" => minimize = true,
            "--profile" => profile = true,
            "--no-progress" => no_progress = true,
            "--strict" => strict = true,
            "--nodes" | "--files" | "--seed" | "--out" | "--threads" | "--bits" | "--scenario"
            | "--config" | "--trace" | "--metrics" | "--iters" | "--corpus" | "--time-budget"
            | "--addr" | "--workers" | "--cache-cap" | "--queue-cap" => {
                let flag = args[i].clone();
                i += 1;
                let value = args
                    .get(i)
                    .ok_or_else(|| format!("missing value for {flag}"))?;
                match flag.as_str() {
                    "--nodes" => {
                        scale.nodes = value
                            .parse()
                            .map_err(|_| format!("invalid --nodes value: {value}"))?;
                        nodes_set = true;
                    }
                    "--files" => {
                        scale.files = value
                            .parse()
                            .map_err(|_| format!("invalid --files value: {value}"))?;
                        files_set = true;
                    }
                    "--seed" => {
                        scale.seed = value
                            .parse()
                            .map_err(|_| format!("invalid --seed value: {value}"))?;
                    }
                    "--threads" => {
                        threads = value
                            .parse()
                            .map_err(|_| format!("invalid --threads value: {value}"))?;
                    }
                    "--bits" => {
                        bits = value
                            .parse()
                            .map_err(|_| format!("invalid --bits value: {value}"))?;
                    }
                    "--scenario" => {
                        if !scenarios::SCENARIO_NAMES.contains(&value.as_str()) {
                            return Err(format!(
                                "invalid --scenario value: {value} (expected one of {})",
                                scenarios::SCENARIO_NAMES.join(", ")
                            ));
                        }
                        scenario = Some(value.clone());
                    }
                    "--config" => config = Some(PathBuf::from(value)),
                    "--trace" => trace = Some(PathBuf::from(value)),
                    "--metrics" => metrics = Some(PathBuf::from(value)),
                    "--iters" => {
                        iters = value
                            .parse()
                            .map_err(|_| format!("invalid --iters value: {value}"))?;
                    }
                    "--corpus" => corpus = Some(PathBuf::from(value)),
                    "--time-budget" => {
                        time_budget = Some(
                            value
                                .parse()
                                .map_err(|_| format!("invalid --time-budget value: {value}"))?,
                        );
                    }
                    "--addr" => addr = value.clone(),
                    "--workers" => {
                        workers = value
                            .parse()
                            .map_err(|_| format!("invalid --workers value: {value}"))?;
                    }
                    "--cache-cap" => {
                        cache_cap = value
                            .parse()
                            .map_err(|_| format!("invalid --cache-cap value: {value}"))?;
                    }
                    "--queue-cap" => {
                        queue_cap = value
                            .parse()
                            .map_err(|_| format!("invalid --queue-cap value: {value}"))?;
                    }
                    "--out" => out = PathBuf::from(value),
                    _ => unreachable!(),
                }
            }
            flag if flag.starts_with("--") => return Err(format!("unknown flag: {flag}")),
            cmd if command.is_none() => command = Some(cmd.to_string()),
            extra => return Err(format!("unexpected argument: {extra}")),
        }
        i += 1;
    }
    if quick {
        // Quick supplies the reduced dimensions only where the user gave
        // none — an explicit --nodes/--files wins regardless of flag
        // order. Either way the sizing is now an explicit choice, so
        // large-scale must honor it instead of its 10^5-node default.
        let reduced = ExperimentScale::quick();
        if !nodes_set {
            scale.nodes = reduced.nodes;
        }
        if !files_set {
            scale.files = reduced.files;
        }
        nodes_set = true;
        files_set = true;
    }
    Ok(Options {
        command: command.ok_or_else(|| "missing command".to_string())?,
        scale,
        nodes_set,
        files_set,
        bits,
        threads,
        scenario,
        config,
        trace,
        metrics,
        profile,
        no_progress,
        strict,
        iters,
        corpus,
        minimize,
        time_budget,
        addr,
        workers,
        cache_cap,
        queue_cap,
        out,
    })
}

/// Writes one CSV artifact, timed under [`Phase::CsvEmit`] so `--profile`
/// accounts for emission alongside the simulation phases.
fn write_csv(
    obs: &mut GridObservation,
    out: &Path,
    name: &str,
    csv: &CsvTable,
) -> Result<(), String> {
    obs.time_phase(Phase::CsvEmit, || {
        std::fs::create_dir_all(out).map_err(|e| format!("creating {}: {e}", out.display()))?;
        let path = out.join(name);
        csv.write_to(&path)
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        println!("wrote {}", path.display());
        Ok(())
    })
}

/// Writes an observability artifact (trace JSONL, metrics CSV) to an
/// explicit file path, creating parent directories as needed.
fn write_text(path: &Path, text: &str) -> Result<(), String> {
    if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
        std::fs::create_dir_all(parent)
            .map_err(|e| format!("creating {}: {e}", parent.display()))?;
    }
    std::fs::write(path, text).map_err(|e| format!("writing {}: {e}", path.display()))?;
    println!("wrote {}", path.display());
    Ok(())
}

fn run_command(opts: &Options) -> Result<(), String> {
    let scale = opts.scale;
    let out = &opts.out;
    // `Executor::new(0)` resolves to one worker per available core.
    let executor = Executor::new(opts.threads);
    let err = |e: fairswap_core::CoreError| e.to_string();

    // `trace-check` consumes --trace as its input; everywhere else it
    // names the trace output file.
    let trace_out = if opts.command == "trace-check" {
        None
    } else {
        opts.trace.clone()
    };
    let observing = trace_out.is_some() || opts.metrics.is_some() || opts.profile;
    if observing && UNOBSERVED.contains(&opts.command.as_str()) {
        return Err(format!(
            "--trace/--metrics/--profile are not supported for: {}",
            UNOBSERVED.join(", ")
        ));
    }
    let mut obs = GridObservation::new(ObsOptions {
        trace: trace_out.is_some(),
        metrics: opts.metrics.is_some(),
        profile: opts.profile,
        progress: !opts.no_progress,
        ..ObsOptions::default()
    });

    let commands: Vec<&str> = if opts.command == "all" {
        COMMANDS
            .iter()
            .filter(|c| c.in_all)
            .map(|c| c.name)
            .collect()
    } else {
        // Reject unknown names against the same table that generates the
        // help text, so dispatch and usage cannot drift.
        if !COMMANDS.iter().any(|c| c.name == opts.command) {
            return Err(format!("unknown command: {}\n{}", opts.command, usage()));
        }
        vec![opts.command.as_str()]
    };

    for command in commands {
        println!(
            "== {command} (nodes={}, files={}, seed={:#x}, threads={})",
            scale.nodes,
            scale.files,
            scale.seed,
            executor.threads()
        );
        match command {
            "paper" => {
                let grid = paper::run(scale, &executor, &mut obs).map_err(err)?;
                for c in &grid.cells {
                    println!(
                        "  k={:<2} originators={:>4}%  mean_forwarded={:>10.1}  F2 gini={:.4}  F1 gini={:.4} (paid nodes: {})",
                        c.k,
                        c.originator_fraction * 100.0,
                        c.mean_forwarded,
                        c.f2_gini,
                        c.f1_gini,
                        c.paid_nodes
                    );
                }
                for fraction in [0.2, 1.0] {
                    if let Some(ratio) = grid.area_ratio(fraction) {
                        println!(
                            "  originators={:>4}%  area(k=4)/area(k=20) = {ratio:.2}",
                            fraction * 100.0
                        );
                    }
                }
                println!(
                    "  theil, atkinson(0.5) and hoover agree with gini on the k=4 vs k=20 ordering: {}",
                    grid.all_indices_agree()
                );
                for (name, csv) in grid.csvs() {
                    write_csv(&mut obs, out, name, &csv)?;
                }
            }
            "sweep-files" => {
                let results = sweeps::files_convergence(scale, &[(4, 1.0)], &executor, &mut obs)
                    .map_err(err)?;
                let result = &results[0];
                for s in &result.trajectory {
                    println!("  files={:<6} F2 gini={:.4}", s.timestep, s.f2_gini);
                }
                write_csv(&mut obs, out, "sweep_files.csv", &result.to_csv())?;
            }
            "overhead" => {
                let ks = [4, 8, 12, 16, 20, 32];
                let sweep =
                    sweeps::overhead_vs_k(scale, &ks, 1.0, 2, &executor, &mut obs).map_err(err)?;
                for r in &sweep.rows {
                    println!(
                        "  k={:<2} connections/node={:>6.1} settlements={:>8} mean_payment={:>7.2}",
                        r.k, r.mean_connections, r.settlements, r.mean_payment
                    );
                }
                let csv = CsvTable::from_rows(&sweep.rows);
                write_csv(&mut obs, out, "overhead.csv", &csv)?;
            }
            "bucket0" => {
                let result =
                    extensions::bucket_zero(scale, 0.2, &executor, &mut obs).map_err(err)?;
                for r in &result.rows {
                    println!(
                        "  {:<16} connections/node={:>6.1} F2={:.4} F1={:.4}",
                        r.sizing, r.mean_connections, r.f2_gini, r.f1_gini
                    );
                }
                let csv = CsvTable::from_rows(&result.rows);
                write_csv(&mut obs, out, "bucket0.csv", &csv)?;
            }
            "freeride" => {
                let result = extensions::free_riding(
                    scale,
                    4,
                    &[0.0, 0.1, 0.2, 0.3, 0.4, 0.5],
                    &executor,
                    &mut obs,
                )
                .map_err(err)?;
                for r in &result.rows {
                    println!(
                        "  free-riders={:>4}%  F2={:.4} F1={:.4} income={:.0}",
                        r.free_rider_fraction * 100.0,
                        r.f2_gini,
                        r.f1_gini,
                        r.total_income
                    );
                }
                let csv = CsvTable::from_rows(&result.rows);
                write_csv(&mut obs, out, "freeride.csv", &csv)?;
            }
            "caching" => {
                let result =
                    extensions::caching(scale, 4, 1024, &executor, &mut obs).map_err(err)?;
                for r in &result.rows {
                    println!(
                        "  workload={:<8} cache={:<5} mean_forwarded={:>9.1} hits={:>8}",
                        r.workload, r.cache, r.mean_forwarded, r.cache_hits
                    );
                }
                let csv = CsvTable::from_rows(&result.rows);
                write_csv(&mut obs, out, "caching.csv", &csv)?;
            }
            "mechanisms" => {
                let result =
                    extensions::mechanisms(scale, 4, 1.0, &executor, &mut obs).map_err(err)?;
                for r in &result.rows {
                    println!(
                        "  {:<20} F2={:.4} F1(income)={:.4} earning={:>5.1}%",
                        r.mechanism,
                        r.f2_gini,
                        r.f1_income_gini,
                        r.earning_fraction * 100.0
                    );
                }
                let csv = CsvTable::from_rows(&result.rows);
                write_csv(&mut obs, out, "mechanisms.csv", &csv)?;
            }
            "scenarios" => {
                let names: Vec<&str> = match &opts.scenario {
                    Some(name) => vec![name.as_str()],
                    None => scenarios::SCENARIO_NAMES.to_vec(),
                };
                let result = scenarios::run(scale, &names, &executor, &mut obs).map_err(err)?;
                for r in &result.rows {
                    println!(
                        "  {:<18} k={:<2} F2={:.4} (pre-shock {:.4}) F1={:.4} leaves={:>5} targeted={:>3} blocked={:>6} live={:>4}",
                        r.scenario,
                        r.k,
                        r.f2_gini,
                        r.f2_pre_shock,
                        r.f1_gini,
                        r.leaves,
                        r.targeted_removals,
                        r.capacity_blocked,
                        r.final_live
                    );
                }
                for &name in &names {
                    for k in [4, 20] {
                        if let Some(reduction) = result.shock_gini_reduction(name, k) {
                            if result.row(name, k).is_some_and(|r| r.shock_step > 0) {
                                println!(
                                    "  {name} k={k}: shock changed F2 gini by {:+.1}%",
                                    -reduction * 100.0
                                );
                            }
                        }
                    }
                }
                let csv = CsvTable::from_rows(&result.rows);
                write_csv(&mut obs, out, "scenarios.csv", &csv)?;
                write_csv(
                    &mut obs,
                    out,
                    "scenarios_timeline.csv",
                    &result.timeline_csv(),
                )?;
            }
            "routing" => {
                let result = routing::run(scale, &executor, &mut obs).map_err(err)?;
                for r in &result.rows {
                    println!(
                        "  {:<16} k={:<2} delivered={:>5.1}% blocked={:>6} detoured={:>6} hops={:.2} F2={:.4}",
                        r.route,
                        r.k,
                        r.delivery_rate * 100.0,
                        r.capacity_blocked,
                        r.detoured,
                        r.mean_hops,
                        r.f2_gini
                    );
                }
                for k in [4, 20] {
                    if let Some(reduction) = result.drop_reduction(k) {
                        println!(
                            "  k={k}: detour recovers {:.1}% of greedy's capacity drops",
                            reduction * 100.0
                        );
                    }
                }
                let csv = CsvTable::from_rows(&result.rows);
                write_csv(&mut obs, out, "routing.csv", &csv)?;
            }
            "cache-churn" => {
                let result =
                    cache_churn::run(scale, &cache_churn::DEFAULT_RATES, &executor, &mut obs)
                        .map_err(err)?;
                for r in &result.rows {
                    println!(
                        "  cache={:<5} churn={:>4.0}%  served={:>7} hits={:>7} mean_forwarded={:>9.1} F2={:.4}",
                        r.cache,
                        r.churn_rate * 100.0,
                        r.cache_served,
                        r.cache_hits,
                        r.mean_forwarded,
                        r.f2_gini
                    );
                }
                let csv = CsvTable::from_rows(&result.rows);
                write_csv(&mut obs, out, "cache_churn.csv", &csv)?;
            }
            "run" => {
                let path = opts.config.as_ref().ok_or_else(|| {
                    "run requires --config FILE (a SimSpec JSON document)".to_string()
                })?;
                let text = std::fs::read_to_string(path)
                    .map_err(|e| format!("reading {}: {e}", path.display()))?;
                let (spec, unknown) = SimSpec::from_json_checked(&text).map_err(err)?;
                if !unknown.is_empty() && opts.strict {
                    return Err(format!(
                        "{}: unknown field(s) in spec: {} (--strict)",
                        path.display(),
                        unknown.join(", ")
                    ));
                }
                for field in &unknown {
                    obs.warn(&format!(
                        "{}: unknown field `{field}` in spec (ignored; --strict makes this fatal)",
                        path.display()
                    ));
                }
                println!(
                    "  spec: nodes={} bits={} k={} files={} seed={:#x} mechanism={} route={} cache={} repair={}",
                    spec.topology.nodes,
                    spec.topology.bits,
                    spec.topology.bucket_sizing.default_k(),
                    spec.workload.files,
                    spec.seed,
                    spec.economics.mechanism.id(),
                    spec.policies.route.id(),
                    spec.policies.cache.id(),
                    spec.policies.repair.id()
                );
                let reports = fairswap_core::run_jobs_observed(&executor, vec![spec], &mut obs)
                    .map_err(err)?;
                let report = &reports[0];
                let requests: u64 = report.traffic().requests_issued().iter().sum();
                println!(
                    "  delivered {} of {} requests  mean_forwarded={:.1} hops={:.2} F1={:.4} F2={:.4}",
                    requests - report.traffic().stuck_requests(),
                    requests,
                    report.mean_forwarded(),
                    report.hops().mean().unwrap_or(0.0),
                    report.f1_contribution_gini(),
                    report.f2_income_gini()
                );
                // The exact serializer `fairswap serve` answers `/result`
                // with — keeping the batch and HTTP paths `cmp`-equal.
                let csv = fairswap_core::run_summary_csv(report.config(), report);
                write_csv(&mut obs, out, "run.csv", &csv)?;
            }
            "serve" => {
                let serve_opts = fairswap_serve::ServeOptions {
                    addr: opts.addr.clone(),
                    workers: opts.workers,
                    cache_cap: opts.cache_cap,
                    queue_cap: opts.queue_cap,
                };
                let server = fairswap_serve::Server::bind(&serve_opts)
                    .map_err(|e| format!("binding {}: {e}", serve_opts.addr))?;
                let bound = server
                    .local_addr()
                    .map_err(|e| format!("resolving listen address: {e}"))?;
                println!(
                    "  listening on http://{bound} (workers={}, cache-cap={}, queue-cap={})",
                    serve_opts.workers, serve_opts.cache_cap, serve_opts.queue_cap
                );
                println!(
                    "  POST /submit | GET /status/<job> /result/<job> /stream/<job> /health | POST /shutdown"
                );
                let summary = server.run().map_err(|e| format!("serve: {e}"))?;
                println!(
                    "  drained: {} jobs ({} completed, {} failed, {} rejected), cache hits={} misses={} evictions={}",
                    summary.jobs,
                    summary.completed,
                    summary.failed,
                    summary.rejected,
                    summary.cache.hits,
                    summary.cache.misses,
                    summary.cache.evictions
                );
            }
            "fuzz" => {
                if opts.minimize {
                    let corpus_dir = opts.corpus.clone().unwrap_or_else(|| out.join("corpus"));
                    let corpus = Corpus::load(&corpus_dir).map_err(|e| e.to_string())?;
                    let outcome = {
                        let meter = obs.meter();
                        minimize_corpus(&executor, &corpus, &mut |done, total| {
                            meter.notify(done, total)
                        })
                    }
                    .map_err(|e| e.to_string())?;
                    for name in &outcome.dropped {
                        let path = corpus_dir.join(format!("{name}.json"));
                        std::fs::remove_file(&path)
                            .map_err(|e| format!("removing {}: {e}", path.display()))?;
                        println!("  dropped {name} (behavior cell already covered)");
                    }
                    // Rewrite the survivors so the directory is exactly the
                    // minimized corpus in canonical form.
                    outcome
                        .corpus
                        .write_to(&corpus_dir)
                        .map_err(|e| e.to_string())?;
                    println!(
                        "  minimized {} -> {} specs ({} simulations, {} behavior cells)",
                        corpus.len(),
                        outcome.corpus.len(),
                        outcome.runs,
                        outcome.cells
                    );
                    println!("wrote {}", corpus_dir.display());
                    continue;
                }
                let cfg = FuzzConfig {
                    seed: scale.seed,
                    iters: opts.iters,
                    time_budget: opts.time_budget.map(std::time::Duration::from_secs),
                };
                let corpus_dir = opts.corpus.clone().unwrap_or_else(|| out.join("corpus"));
                // The campaign drives the shared progress meter directly:
                // one tick per evaluated spec (seeds, then iterations).
                let outcome = {
                    let meter = obs.meter();
                    run_campaign(&executor, &cfg, &mut |done, total| {
                        meter.notify(done, total)
                    })
                }
                .map_err(|e| e.to_string())?;
                println!(
                    "  {} iterations ({} simulations with fairness twins), {} behavior cells",
                    outcome.iterations, outcome.runs, outcome.cells
                );
                println!(
                    "  corpus: {} specs, findings: {}",
                    outcome.corpus.len(),
                    outcome.findings.len()
                );
                for f in &outcome.findings {
                    println!(
                        "  [{}] iter {} {} — {}",
                        f.violation.oracle, f.iteration, f.entry, f.violation.detail
                    );
                }
                outcome
                    .corpus
                    .write_to(&corpus_dir)
                    .map_err(|e| e.to_string())?;
                println!(
                    "wrote {} ({} replayable specs)",
                    corpus_dir.display(),
                    outcome.corpus.len()
                );
                let findings = outcome.findings_json().map_err(|e| e.to_string())?;
                write_text(&out.join("findings.json"), &(findings + "\n"))?;
                let mut csv = CsvTable::new(["iteration", "entry", "oracle", "detail"]);
                for f in &outcome.findings {
                    csv.push_row([
                        f.iteration.to_string(),
                        f.entry.clone(),
                        f.violation.oracle.clone(),
                        f.violation.detail.clone(),
                    ]);
                }
                write_csv(&mut obs, out, "fuzz.csv", &csv)?;
            }
            "fuzzed" => {
                let result = fuzzed::run(&executor, &mut obs).map_err(err)?;
                for r in &result.rows {
                    println!(
                        "  {:<22} {:<18} gini_k4={:.4} gini_k20={:.4} inversion={:+.4} drop={:.3} hops={:.2}",
                        r.name,
                        r.mechanism,
                        r.gini_k4,
                        r.gini_k20,
                        r.inversion,
                        r.drop_rate,
                        r.mean_hops
                    );
                }
                let csv = CsvTable::from_rows(&result.rows);
                write_csv(&mut obs, out, "fuzzed.csv", &csv)?;
            }
            "churn" => {
                let result =
                    churn::run(scale, &churn::DEFAULT_RATES, &executor, &mut obs).map_err(err)?;
                for r in &result.rows {
                    println!(
                        "  k={:<2} churn={:>4.0}%  F1={:.4} F2={:.4} leaves={:>5} live={:>4} stuck={:>6}",
                        r.k,
                        r.churn_rate * 100.0,
                        r.f1_gini,
                        r.f2_gini,
                        r.leaves,
                        r.final_live,
                        r.stuck_requests
                    );
                }
                let csv = CsvTable::from_rows(&result.rows);
                write_csv(&mut obs, out, "churn.csv", &csv)?;
                write_csv(&mut obs, out, "churn_timeline.csv", &result.timeline_csv())?;
            }
            "durability" => {
                let result =
                    durability::run(scale, &durability::DEFAULT_RATES, &executor, &mut obs)
                        .map_err(err)?;
                for r in &result.rows {
                    println!(
                        "  {:<14} k={:<2} churn={:>4.0}%  repaired={:>5} ttr={:>5.1} unreachable={:>4} recovered={:>5} F2={:.4}",
                        r.mode,
                        r.k,
                        r.churn_rate * 100.0,
                        r.repair_delivered,
                        r.mean_time_to_repair,
                        r.final_unreachable,
                        r.recovered,
                        r.f2_gini
                    );
                }
                let csv = CsvTable::from_rows(&result.rows);
                write_csv(&mut obs, out, "durability.csv", &csv)?;
                write_csv(
                    &mut obs,
                    out,
                    "durability_timeline.csv",
                    &result.timeline_csv(),
                )?;
            }
            "large-scale" => {
                // Unless explicitly sized, run the 10^5-node headline scale
                // rather than the 1000-node paper scale.
                let mut big = large_scale::default_scale().with_seed(scale.seed);
                if opts.nodes_set {
                    big.nodes = scale.nodes;
                }
                if opts.files_set {
                    big.files = scale.files;
                }
                println!(
                    "  scaling to nodes={}, files={}, bits={}",
                    big.nodes, big.files, opts.bits
                );
                let result =
                    large_scale::run(big, opts.bits, &[4, 20], &executor, &mut obs).map_err(err)?;
                for r in &result.rows {
                    println!(
                        "  k={:<2} F2={:.4} F1={:.4} mean_forwarded={:>9.1} hops={:.2} conn/node={:>6.1} stuck={}",
                        r.k,
                        r.f2_gini,
                        r.f1_gini,
                        r.mean_forwarded,
                        r.mean_hops,
                        r.mean_connections,
                        r.stuck_requests
                    );
                }
                if let Some(reduction) = result.f2_reduction() {
                    println!(
                        "  F2 gini reduction k=4 -> k=20 at {} nodes: {:.1}%",
                        big.nodes,
                        reduction * 100.0
                    );
                }
                let csv = CsvTable::from_rows(&result.rows);
                write_csv(&mut obs, out, "large_scale.csv", &csv)?;
            }
            "trace-check" => {
                let path = opts.trace.as_ref().ok_or_else(|| {
                    "trace-check requires --trace FILE (the JSONL trace to validate)".to_string()
                })?;
                let text = std::fs::read_to_string(path)
                    .map_err(|e| format!("reading {}: {e}", path.display()))?;
                let stats =
                    validate_jsonl(&text).map_err(|e| format!("{}: {e}", path.display()))?;
                println!(
                    "  {} ok: {} lines, {} events across {} jobs ({} dropped)",
                    path.display(),
                    stats.lines,
                    stats.events,
                    stats.jobs,
                    stats.dropped
                );
            }
            other => return Err(format!("unknown command: {other}\n{}", usage())),
        }
    }
    if let Some(path) = &trace_out {
        write_text(path, &obs.trace_jsonl())?;
    }
    if let Some(path) = &opts.metrics {
        write_text(path, &obs.metrics_csv())?;
    }
    if opts.profile {
        // With --threads N the per-phase sums are CPU time across workers
        // and can exceed the end-to-end wall clock.
        print!("phase profile:\n{}", obs.phase_times().render());
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("error: {e}\n{}", usage());
            return ExitCode::FAILURE;
        }
    };
    match run_command(&opts) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The five files `paper` writes.
    const PAPER_CSVS: [&str; 5] = [
        "table1.csv",
        "fig4.csv",
        "fig5.csv",
        "fig6.csv",
        "metric_robustness.csv",
    ];

    fn s(v: &[&str]) -> Vec<String> {
        v.iter().map(|x| x.to_string()).collect()
    }

    fn quick_opts(command: &str, nodes: usize, files: u64, out: PathBuf) -> Options {
        Options {
            command: command.into(),
            scale: ExperimentScale {
                nodes,
                files,
                seed: 1,
            },
            nodes_set: true,
            files_set: true,
            bits: large_scale::DEFAULT_BITS,
            threads: 1,
            scenario: None,
            config: None,
            trace: None,
            metrics: None,
            profile: false,
            no_progress: false,
            strict: false,
            iters: 2,
            corpus: None,
            minimize: false,
            time_budget: None,
            addr: "127.0.0.1:0".into(),
            workers: 1,
            cache_cap: 4,
            queue_cap: 16,
            out,
        }
    }

    #[test]
    fn parses_command_and_flags() {
        let opts = parse_args(&s(&[
            "paper",
            "--nodes",
            "100",
            "--files",
            "50",
            "--seed",
            "9",
            "--out",
            "/tmp/x",
            "--threads",
            "4",
            "--bits",
            "20",
        ]))
        .unwrap();
        assert_eq!(opts.command, "paper");
        assert_eq!(opts.scale.nodes, 100);
        assert_eq!(opts.scale.files, 50);
        assert_eq!(opts.scale.seed, 9);
        assert_eq!(opts.threads, 4);
        assert_eq!(opts.bits, 20);
        assert!(opts.nodes_set && opts.files_set);
        assert_eq!(opts.out, PathBuf::from("/tmp/x"));
    }

    #[test]
    fn defaults_are_serial_paper_scale() {
        let opts = parse_args(&s(&["paper"])).unwrap();
        assert_eq!(opts.threads, 1);
        assert_eq!(opts.bits, large_scale::DEFAULT_BITS);
        assert!(!opts.nodes_set && !opts.files_set);
    }

    #[test]
    fn quick_flag_shrinks_scale() {
        let opts = parse_args(&s(&["paper", "--quick"])).unwrap();
        assert_eq!(opts.scale.nodes, ExperimentScale::quick().nodes);
        // Quick is explicit sizing: large-scale must not override it with
        // its 10^5-node default.
        assert!(opts.nodes_set && opts.files_set);
    }

    #[test]
    fn explicit_dimensions_beat_quick_in_any_order() {
        for order in [
            ["paper", "--nodes", "500", "--quick"],
            ["paper", "--quick", "--nodes", "500"],
        ] {
            let opts = parse_args(&s(&order)).unwrap();
            assert_eq!(opts.scale.nodes, 500, "order {order:?}");
            assert_eq!(opts.scale.files, ExperimentScale::quick().files);
            assert!(opts.nodes_set && opts.files_set);
        }
    }

    #[test]
    fn rejects_bad_input() {
        assert!(parse_args(&s(&[])).is_err());
        assert!(parse_args(&s(&["paper", "--nodes"])).is_err());
        assert!(parse_args(&s(&["paper", "--nodes", "abc"])).is_err());
        assert!(parse_args(&s(&["paper", "--threads", "x"])).is_err());
        assert!(parse_args(&s(&["paper", "--bits", "x"])).is_err());
        assert!(parse_args(&s(&["paper", "--bogus"])).is_err());
        assert!(parse_args(&s(&["paper", "extra"])).is_err());
    }

    #[test]
    fn runs_a_tiny_experiment_end_to_end() {
        let dir = std::env::temp_dir().join("fairswap_cli_test");
        let opts = quick_opts("paper", 60, 10, dir.clone());
        run_command(&opts).unwrap();
        for csv in PAPER_CSVS {
            assert!(dir.join(csv).exists(), "{csv}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn threaded_run_matches_serial_run() {
        let dir_a = std::env::temp_dir().join("fairswap_cli_serial");
        let dir_b = std::env::temp_dir().join("fairswap_cli_threaded");
        let mut serial = quick_opts("paper", 80, 16, dir_a.clone());
        let mut threaded = quick_opts("paper", 80, 16, dir_b.clone());
        serial.threads = 1;
        threaded.threads = 4;
        run_command(&serial).unwrap();
        run_command(&threaded).unwrap();
        for csv in PAPER_CSVS {
            let a = std::fs::read(dir_a.join(csv)).unwrap();
            let b = std::fs::read(dir_b.join(csv)).unwrap();
            assert_eq!(a, b, "{csv}: threaded CSV must be byte-identical to serial");
        }
        let _ = std::fs::remove_dir_all(&dir_a);
        let _ = std::fs::remove_dir_all(&dir_b);
    }

    #[test]
    fn churn_command_writes_both_csvs() {
        let dir = std::env::temp_dir().join("fairswap_cli_churn_test");
        let opts = quick_opts("churn", 80, 20, dir.clone());
        run_command(&opts).unwrap();
        assert!(dir.join("churn.csv").exists());
        assert!(dir.join("churn_timeline.csv").exists());
        let csv = std::fs::read_to_string(dir.join("churn.csv")).unwrap();
        assert!(csv.starts_with("k,churn_rate,f1_gini,f2_gini,"));
        // Two k values × five default rates, plus the header.
        assert_eq!(csv.lines().count(), 1 + 2 * 5);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn large_scale_command_at_test_size() {
        let dir = std::env::temp_dir().join("fairswap_cli_large_scale_test");
        let mut opts = quick_opts("large-scale", 2000, 20, dir.clone());
        opts.bits = 18;
        opts.threads = 2;
        run_command(&opts).unwrap();
        let csv = std::fs::read_to_string(dir.join("large_scale.csv")).unwrap();
        assert!(csv.starts_with("nodes,bits,k,"));
        assert_eq!(csv.lines().count(), 3);
        assert!(csv.contains("2000,18,4"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unknown_command_errors() {
        let opts = quick_opts("nope", 60, 10, PathBuf::from("/tmp"));
        let err = run_command(&opts).unwrap_err();
        // The rejection cites the derived usage text.
        assert!(err.contains("unknown command"));
        assert!(err.contains("scenarios"));
    }

    #[test]
    fn usage_lists_every_dispatchable_command_and_only_those() {
        let text = usage();
        for command in COMMANDS {
            assert!(text.contains(command.name), "usage misses {}", command.name);
        }
        assert!(text.contains("all"));
        // Every table entry actually dispatches: run each one at a tiny
        // scale and require an artifact, so a table/dispatch drift fails
        // loudly here rather than at a user's prompt.
        let dir = std::env::temp_dir().join("fairswap_cli_dispatch_test");
        let _ = std::fs::remove_dir_all(&dir);
        // `run` executes a SimSpec document; give it a tiny one.
        let spec_file = dir.join("dispatch_spec.json");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(
            &spec_file,
            r#"{ "topology": { "nodes": 80 }, "workload": { "files": 8 } }"#,
        )
        .unwrap();
        // `trace-check` (last in the table) validates the trace that the
        // first command, `paper`, writes — exercising the full
        // produce-then-validate loop.
        let trace_file = dir.join("dispatch_trace.jsonl");
        for command in COMMANDS {
            // `serve` blocks until an HTTP shutdown; its dispatch is
            // covered end to end by `crates/serve/tests/` and the CI
            // serve-smoke job.
            if command.name == "serve" {
                continue;
            }
            let mut opts = quick_opts(command.name, 80, 8, dir.clone());
            opts.bits = 17;
            if command.name == "run" {
                opts.config = Some(spec_file.clone());
            }
            if command.name == "paper" || command.name == "trace-check" {
                opts.trace = Some(trace_file.clone());
            }
            run_command(&opts).unwrap_or_else(|e| panic!("{} failed: {e}", command.name));
        }
        for csv in PAPER_CSVS {
            assert!(dir.join(csv).exists(), "{csv}");
        }
        assert!(dir.join("scenarios.csv").exists());
        assert!(dir.join("durability.csv").exists());
        assert!(dir.join("durability_timeline.csv").exists());
        assert!(dir.join("routing.csv").exists());
        assert!(dir.join("cache_churn.csv").exists());
        assert!(dir.join("run.csv").exists());
        // The fuzz campaign wrote its replayable corpus and findings
        // report; the gallery replay wrote its comparison table.
        assert!(dir.join("fuzz.csv").exists());
        assert!(dir.join("findings.json").exists());
        assert!(dir.join("corpus").join("seed-00-paper-quick.json").exists());
        assert!(dir.join("fuzzed.csv").exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn fuzz_flags_parse() {
        let opts = parse_args(&s(&[
            "fuzz",
            "--iters",
            "12",
            "--corpus",
            "/tmp/c",
            "--time-budget",
            "30",
        ]))
        .unwrap();
        assert_eq!(opts.iters, 12);
        assert_eq!(opts.corpus, Some(PathBuf::from("/tmp/c")));
        assert_eq!(opts.time_budget, Some(30));
        assert!(parse_args(&s(&["fuzz", "--iters", "x"])).is_err());
        assert!(parse_args(&s(&["fuzz", "--time-budget", "x"])).is_err());
        // Defaults: a reproducible 256-iteration campaign into <out>/corpus.
        let opts = parse_args(&s(&["fuzz"])).unwrap();
        assert_eq!(opts.iters, 256);
        assert!(opts.corpus.is_none() && opts.time_budget.is_none());
        assert!(!opts.minimize);
        let opts = parse_args(&s(&["fuzz", "--minimize"])).unwrap();
        assert!(opts.minimize);
    }

    #[test]
    fn fuzz_minimize_rewrites_the_corpus_in_place() {
        let dir = std::env::temp_dir().join("fairswap_cli_minimize_test");
        let _ = std::fs::remove_dir_all(&dir);
        let corpus_dir = dir.join("corpus");
        // Seed the directory with the standard corpus plus a byte-for-byte
        // duplicate of the first entry; only the duplicate is redundant.
        let mut corpus = Corpus::seeded();
        let dup = corpus.entries()[0].spec.clone();
        corpus.push("zz-duplicate".into(), dup);
        corpus.write_to(&corpus_dir).unwrap();
        let before = corpus.len();
        let mut opts = quick_opts("fuzz", 80, 8, dir.clone());
        opts.minimize = true;
        opts.corpus = Some(corpus_dir.clone());
        run_command(&opts).unwrap();
        assert!(!corpus_dir.join("zz-duplicate.json").exists());
        let after = Corpus::load(&corpus_dir).unwrap();
        assert!(after.len() < before, "the duplicate must be dropped");
        assert!(corpus_dir
            .join(format!("{}.json", after.entries()[0].name))
            .exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn durability_command_writes_both_csvs() {
        let dir = std::env::temp_dir().join("fairswap_cli_durability_test");
        let opts = quick_opts("durability", 80, 12, dir.clone());
        run_command(&opts).unwrap();
        let csv = std::fs::read_to_string(dir.join("durability.csv")).unwrap();
        assert!(csv.starts_with("mode,k,churn_rate,f1_gini,f2_gini,"));
        // Five modes × two k values × three default rates, plus the header.
        assert_eq!(csv.lines().count(), 1 + 5 * 2 * 3);
        assert!(dir.join("durability_timeline.csv").exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn run_command_requires_and_executes_a_spec() {
        let dir = std::env::temp_dir().join("fairswap_cli_run_test");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        // Missing --config is a clear error.
        let opts = quick_opts("run", 80, 8, dir.clone());
        assert!(run_command(&opts).unwrap_err().contains("--config"));
        // A malformed spec is rejected with the parse error.
        let bad = dir.join("bad.json");
        std::fs::write(&bad, "{ nope").unwrap();
        let mut opts = quick_opts("run", 80, 8, dir.clone());
        opts.config = Some(bad);
        assert!(run_command(&opts).unwrap_err().contains("parsing spec"));
        // A valid spec runs end to end and writes the summary CSV.
        let good = dir.join("good.json");
        std::fs::write(
            &good,
            r#"{
                "seed": 11,
                "topology": { "nodes": 100 },
                "workload": { "files": 10 },
                "dynamics": { "scenario": { "Heterogeneity": {
                    "slow_fraction": 0.3, "slow_budget": 4, "fast_budget": 64 } } },
                "policies": { "route": { "CapacityDetour": { "max_detours": 3 } } }
            }"#,
        )
        .unwrap();
        let mut opts = quick_opts("run", 80, 8, dir.clone());
        opts.config = Some(good);
        run_command(&opts).unwrap();
        let csv = std::fs::read_to_string(dir.join("run.csv")).unwrap();
        assert!(csv.starts_with("nodes,bits,k,files,seed,mechanism,route,"));
        assert!(csv.contains("capacity-detour"));
        assert!(csv.contains("100,16,4,10,11"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn routing_and_cache_churn_commands_write_csvs() {
        let dir = std::env::temp_dir().join("fairswap_cli_policy_test");
        let _ = std::fs::remove_dir_all(&dir);
        let opts = quick_opts("routing", 100, 16, dir.clone());
        run_command(&opts).unwrap();
        let csv = std::fs::read_to_string(dir.join("routing.csv")).unwrap();
        assert!(csv.starts_with("route,k,requests,"));
        // Two policies × two k values, plus the header.
        assert_eq!(csv.lines().count(), 5);
        let opts = quick_opts("cache-churn", 100, 16, dir.clone());
        run_command(&opts).unwrap();
        let csv = std::fs::read_to_string(dir.join("cache_churn.csv")).unwrap();
        assert!(csv.starts_with("cache,churn_rate,"));
        // Four policies × four rates, plus the header.
        assert_eq!(csv.lines().count(), 17);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn scenario_flag_parses_and_validates() {
        let opts = parse_args(&s(&["scenarios", "--scenario", "flash-crowd"])).unwrap();
        assert_eq!(opts.scenario.as_deref(), Some("flash-crowd"));
        assert!(parse_args(&s(&["scenarios", "--scenario", "bogus"])).is_err());
        assert!(parse_args(&s(&["scenarios", "--scenario"])).is_err());
    }

    #[test]
    fn observability_flags_parse() {
        let opts = parse_args(&s(&[
            "paper",
            "--trace",
            "/tmp/t.jsonl",
            "--metrics",
            "/tmp/m.csv",
            "--profile",
            "--no-progress",
            "--strict",
        ]))
        .unwrap();
        assert_eq!(opts.trace, Some(PathBuf::from("/tmp/t.jsonl")));
        assert_eq!(opts.metrics, Some(PathBuf::from("/tmp/m.csv")));
        assert!(opts.profile && opts.no_progress && opts.strict);
        assert!(parse_args(&s(&["paper", "--trace"])).is_err());
        assert!(parse_args(&s(&["paper", "--metrics"])).is_err());
    }

    #[test]
    fn observability_flags_work_on_every_preset() {
        let dir = std::env::temp_dir().join("fairswap_cli_observe_every_preset");
        let _ = std::fs::remove_dir_all(&dir);
        for (command, csvs) in [
            ("paper", &PAPER_CSVS[..]),
            ("sweep-files", &["sweep_files.csv"]),
            ("overhead", &["overhead.csv"]),
            ("bucket0", &["bucket0.csv"]),
            ("freeride", &["freeride.csv"]),
            ("caching", &["caching.csv"]),
            ("mechanisms", &["mechanisms.csv"]),
        ] {
            let plain_dir = dir.join(command).join("plain");
            let traced_dir = dir.join(command).join("traced");
            let trace = dir.join(command).join("trace.jsonl");
            run_command(&quick_opts(command, 60, 10, plain_dir.clone())).unwrap();
            let mut opts = quick_opts(command, 60, 10, traced_dir.clone());
            opts.trace = Some(trace.clone());
            opts.metrics = Some(dir.join(command).join("metrics.csv"));
            run_command(&opts).unwrap();
            for csv in csvs {
                let plain = std::fs::read(plain_dir.join(csv)).unwrap();
                let traced = std::fs::read(traced_dir.join(csv)).unwrap();
                assert_eq!(plain, traced, "{command}: tracing must not perturb {csv}");
            }
            let mut check = quick_opts("trace-check", 60, 10, dir.clone());
            check.trace = Some(trace);
            run_command(&check).unwrap_or_else(|e| panic!("{command}: {e}"));
        }
        // Commands that run no preset grid still refuse the flags.
        for command in ["serve", "fuzz"] {
            let mut opts = quick_opts(command, 60, 10, dir.clone());
            opts.profile = true;
            let e = run_command(&opts).unwrap_err();
            assert!(e.contains("not supported for"), "{command}: {e}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn traced_run_keeps_csv_identical_and_writes_valid_artifacts() {
        let dir = std::env::temp_dir().join("fairswap_cli_trace_test");
        let _ = std::fs::remove_dir_all(&dir);
        let plain_dir = dir.join("plain");
        let traced_dir = dir.join("traced");
        run_command(&quick_opts("paper", 80, 16, plain_dir.clone())).unwrap();
        let mut opts = quick_opts("paper", 80, 16, traced_dir.clone());
        opts.trace = Some(dir.join("paper.jsonl"));
        opts.metrics = Some(dir.join("paper_metrics.csv"));
        opts.profile = true;
        run_command(&opts).unwrap();
        for csv in PAPER_CSVS {
            let plain = std::fs::read(plain_dir.join(csv)).unwrap();
            let traced = std::fs::read(traced_dir.join(csv)).unwrap();
            assert_eq!(plain, traced, "tracing must not perturb {csv}");
        }
        let trace = std::fs::read_to_string(dir.join("paper.jsonl")).unwrap();
        let stats = validate_jsonl(&trace).unwrap();
        // The paper grid has four cells, each closed by a summary line.
        assert_eq!(stats.jobs, 4);
        assert!(stats.events > 0);
        let metrics = std::fs::read_to_string(dir.join("paper_metrics.csv")).unwrap();
        assert!(metrics.starts_with("grid,job,epoch,step,metric,value\n"));
        assert!(metrics.lines().count() > 6);
        // `trace-check` accepts the file the run just wrote, and demands
        // `--trace` when it is missing.
        let mut check = quick_opts("trace-check", 80, 16, dir.clone());
        check.trace = Some(dir.join("paper.jsonl"));
        run_command(&check).unwrap();
        check.trace = None;
        assert!(run_command(&check).unwrap_err().contains("--trace"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn strict_run_rejects_unknown_spec_fields() {
        let dir = std::env::temp_dir().join("fairswap_cli_strict_test");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let spec = dir.join("spec.json");
        std::fs::write(
            &spec,
            r#"{ "topology": { "nodes": 80, "node_count": 80 }, "workload": { "files": 8 } }"#,
        )
        .unwrap();
        let mut opts = quick_opts("run", 80, 8, dir.clone());
        opts.config = Some(spec);
        // Default: the typo is a warning and the run completes.
        run_command(&opts).unwrap();
        assert!(dir.join("run.csv").exists());
        // --strict: the same document is rejected, naming the field.
        opts.strict = true;
        let e = run_command(&opts).unwrap_err();
        assert!(e.contains("topology.node_count"), "{e}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn scenarios_command_writes_both_csvs() {
        let dir = std::env::temp_dir().join("fairswap_cli_scenarios_test");
        let mut opts = quick_opts("scenarios", 100, 20, dir.clone());
        opts.scenario = Some("targeted-departure".into());
        run_command(&opts).unwrap();
        let csv = std::fs::read_to_string(dir.join("scenarios.csv")).unwrap();
        assert!(csv.starts_with("scenario,k,shock_step,"));
        // One scenario × two k values, plus the header.
        assert_eq!(csv.lines().count(), 3);
        assert!(dir.join("scenarios_timeline.csv").exists());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
