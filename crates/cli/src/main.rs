//! `fairswap` — command-line runner for the reproduction experiments.
//!
//! One subcommand per experiment preset, one entry each of
//! [`fairswap_core::experiments::PRESETS`], plus the four commands of
//! [`TOOLS`]. `fairswap` with no arguments prints the full list; it is
//! derived from the same two tables that dispatch commands, so the help
//! text can never drift from reality. See `docs/EXPERIMENTS.md` for every
//! preset's invocation, runtime, output schema and headline finding.
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
use std::str::FromStr;

use fairswap_core::experiments::{
    large_scale, scenarios, ExperimentScale, Preset, PresetArgs, PRESETS,
};
use fairswap_core::{
    validate_jsonl, CsvTable, Executor, GridObservation, ObsOptions, Phase, SimSpec,
    RUN_SUMMARY_FILE,
};
use fairswap_fuzz::{minimize_corpus, run_campaign, Corpus, FuzzConfig};

/// A command that runs no preset: its help line and its handler.
struct Tool {
    name: &'static str,
    /// Shown in the help text's section column.
    section: &'static str,
    blurb: &'static str,
    /// Whether `--trace` / `--metrics` / `--profile` apply. The others
    /// run no preset grid, so asking to observe them is rejected up front
    /// rather than silently producing empty artifacts.
    observed: bool,
    run: fn(&Options, &Executor, &mut GridObservation) -> Result<(), String>,
}

const TOOLS: &[Tool] = &[
    Tool {
        name: "run",
        section: "spec",
        blurb: "execute a SimSpec JSON file (--config FILE)",
        observed: true,
        run: run_spec,
    },
    Tool {
        name: "serve",
        section: "service",
        blurb: "long-lived HTTP daemon scheduling SimSpec jobs (--addr HOST:PORT)",
        observed: false,
        run: serve,
    },
    Tool {
        name: "fuzz",
        section: "fuzzing",
        blurb: "coverage-guided spec fuzzing with invariant oracles",
        observed: false,
        run: fuzz,
    },
    Tool {
        name: "trace-check",
        section: "obs",
        blurb: "validate a JSONL trace file (--trace FILE)",
        observed: false,
        run: trace_check,
    },
];

struct Options {
    command: String,
    /// What a preset reads: the scale, whether it was sized explicitly,
    /// `--bits` and `--scenario`.
    preset: PresetArgs,
    threads: usize,
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
    /// `serve`: listen address, workers, cache and queue capacity.
    serve: fairswap_serve::ServeOptions,
    out: PathBuf,
}

fn usage() -> String {
    let commands: Vec<(&str, &str, &str)> = PRESETS
        .iter()
        .map(|p| (p.name, p.section, p.blurb))
        .chain(TOOLS.iter().map(|t| (t.name, t.section, t.blurb)))
        .collect();
    let names: Vec<&str> = commands.iter().map(|c| c.0).collect();
    let mut text = format!("usage: fairswap <{}|all>\n", names.join("|"));
    text.push_str(
        "       [--nodes N] [--files N] [--seed S] [--out DIR] [--quick] [--threads T]\n\
         \x20      [--bits B] [--scenario NAME] [--config FILE]\n\
         \x20      [--iters N] [--corpus DIR] [--minimize] [--time-budget SECS]\n\
         \x20      [--addr HOST:PORT] [--workers N] [--cache-cap N] [--queue-cap N]\n\
         \x20      [--trace FILE] [--metrics FILE] [--profile] [--no-progress] [--strict]\n\
         \nCommands:\n",
    );
    for (name, section, blurb) in commands {
        text.push_str(&format!("  {name:<18} {section:<9} — {blurb}\n"));
    }
    let all_count = PRESETS.iter().filter(|p| p.in_all).count();
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
         --workers   serve: worker threads, the most jobs that run at once (default 2;\n\
         \x20           0 = all cores); results are byte-identical for any worker count\n\
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

/// Parses `arg` as the value of `flag`.
fn value<T: FromStr>(flag: &str, arg: &str) -> Result<T, String> {
    arg.parse()
        .map_err(|_| format!("invalid {flag} value: {arg}"))
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        command: String::new(),
        preset: PresetArgs {
            scale: ExperimentScale::paper(),
            nodes_set: false,
            files_set: false,
            bits: large_scale::DEFAULT_BITS,
            scenario: None,
        },
        threads: 1,
        config: None,
        trace: None,
        metrics: None,
        profile: false,
        no_progress: false,
        strict: false,
        iters: 256,
        corpus: None,
        minimize: false,
        time_budget: None,
        serve: fairswap_serve::ServeOptions::default(),
        out: PathBuf::from("results"),
    };
    let preset = &mut opts.preset;
    let serve = &mut opts.serve;
    let mut command = None;
    let mut quick = false;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--quick" => quick = true,
            "--minimize" => opts.minimize = true,
            "--profile" => opts.profile = true,
            "--no-progress" => opts.no_progress = true,
            "--strict" => opts.strict = true,
            "--nodes" | "--files" | "--seed" | "--out" | "--threads" | "--bits" | "--scenario"
            | "--config" | "--trace" | "--metrics" | "--iters" | "--corpus" | "--time-budget"
            | "--addr" | "--workers" | "--cache-cap" | "--queue-cap" => {
                let flag = args[i].as_str();
                i += 1;
                let arg = args
                    .get(i)
                    .ok_or_else(|| format!("missing value for {flag}"))?;
                match flag {
                    "--nodes" => {
                        preset.scale.nodes = value(flag, arg)?;
                        preset.nodes_set = true;
                    }
                    "--files" => {
                        preset.scale.files = value(flag, arg)?;
                        preset.files_set = true;
                    }
                    "--seed" => preset.scale.seed = value(flag, arg)?,
                    "--threads" => opts.threads = value(flag, arg)?,
                    "--bits" => preset.bits = value(flag, arg)?,
                    "--scenario" => {
                        if !scenarios::SCENARIO_NAMES.contains(&arg.as_str()) {
                            return Err(format!(
                                "invalid --scenario value: {arg} (expected one of {})",
                                scenarios::SCENARIO_NAMES.join(", ")
                            ));
                        }
                        preset.scenario = Some(arg.clone());
                    }
                    "--config" => opts.config = Some(PathBuf::from(arg)),
                    "--trace" => opts.trace = Some(PathBuf::from(arg)),
                    "--metrics" => opts.metrics = Some(PathBuf::from(arg)),
                    "--iters" => opts.iters = value(flag, arg)?,
                    "--corpus" => opts.corpus = Some(PathBuf::from(arg)),
                    "--time-budget" => opts.time_budget = Some(value(flag, arg)?),
                    "--addr" => serve.addr = arg.clone(),
                    "--workers" => serve.scheduler.workers = value(flag, arg)?,
                    "--cache-cap" => serve.scheduler.cache_cap = value(flag, arg)?,
                    "--queue-cap" => serve.scheduler.queue_cap = value(flag, arg)?,
                    "--out" => opts.out = PathBuf::from(arg),
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
        if !preset.nodes_set {
            preset.scale.nodes = reduced.nodes;
        }
        if !preset.files_set {
            preset.scale.files = reduced.files;
        }
        preset.nodes_set = true;
        preset.files_set = true;
    }
    opts.command = command.ok_or_else(|| "missing command".to_string())?;
    Ok(opts)
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
        write_text(&out.join(name), &csv.to_csv_string())
    })
}

/// Writes an artifact (a CSV table, the trace JSONL, the metrics CSV) to
/// an explicit file path, creating parent directories as needed.
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
    // `Executor::new(0)` resolves to one worker per available core.
    let executor = Executor::new(opts.threads);
    let tool = TOOLS.iter().find(|t| t.name == opts.command);
    let presets: Vec<&Preset> = PRESETS
        .iter()
        .filter(|p| p.name == opts.command || (opts.command == "all" && p.in_all))
        .collect();
    if tool.is_none() && presets.is_empty() {
        return Err(format!("unknown command: {}\n{}", opts.command, usage()));
    }

    // `trace-check` consumes --trace as its input; everywhere else it
    // names the trace output file.
    let trace_out = opts
        .trace
        .as_ref()
        .filter(|_| opts.command != "trace-check");
    let observing = trace_out.is_some() || opts.metrics.is_some() || opts.profile;
    if observing && tool.is_some_and(|t| !t.observed) {
        let unobserved: Vec<&str> = TOOLS
            .iter()
            .filter(|t| !t.observed)
            .map(|t| t.name)
            .collect();
        return Err(format!(
            "--trace/--metrics/--profile are not supported for: {}",
            unobserved.join(", ")
        ));
    }
    let mut obs = GridObservation::new(ObsOptions {
        trace: trace_out.is_some(),
        metrics: opts.metrics.is_some(),
        profile: opts.profile,
        progress: !opts.no_progress,
        ..ObsOptions::default()
    });

    if let Some(tool) = tool {
        // A tool takes no preset scale, so its banner names none.
        println!("== {}", tool.name);
        (tool.run)(opts, &executor, &mut obs)?;
    }
    let scale = opts.preset.scale;
    for preset in presets {
        println!(
            "== {} (nodes={}, files={}, seed={:#x}, threads={})",
            preset.name,
            scale.nodes,
            scale.files,
            scale.seed,
            executor.threads()
        );
        let output = (preset.run)(&opts.preset, &executor, &mut obs).map_err(|e| e.to_string())?;
        for line in &output.summary {
            println!("  {line}");
        }
        for (name, csv) in &output.files {
            write_csv(&mut obs, &opts.out, name, csv)?;
        }
    }
    if let Some(path) = trace_out {
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

/// `run`: executes one `SimSpec` JSON document.
fn run_spec(opts: &Options, executor: &Executor, obs: &mut GridObservation) -> Result<(), String> {
    let err = |e: fairswap_core::CoreError| e.to_string();
    let path = opts
        .config
        .as_ref()
        .ok_or_else(|| "run requires --config FILE (a SimSpec JSON document)".to_string())?;
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("reading {}: {e}", path.display()))?;
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
    let reports = fairswap_core::run_jobs_observed(executor, vec![spec], obs).map_err(err)?;
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
    // The exact serializer `fairswap serve` answers `/result` with —
    // keeping the batch and HTTP paths `cmp`-equal.
    let csv = fairswap_core::run_summary_csv(report.config(), report);
    write_csv(obs, &opts.out, RUN_SUMMARY_FILE, &csv)
}

/// `serve`: the HTTP daemon, until a client posts `/shutdown`.
fn serve(opts: &Options, _: &Executor, _: &mut GridObservation) -> Result<(), String> {
    let server = fairswap_serve::Server::bind(&opts.serve)
        .map_err(|e| format!("binding {}: {e}", opts.serve.addr))?;
    let bound = server
        .local_addr()
        .map_err(|e| format!("resolving listen address: {e}"))?;
    let sizing = &opts.serve.scheduler;
    println!(
        "  listening on http://{bound} (workers={}, cache-cap={}, queue-cap={})",
        sizing.workers, sizing.cache_cap, sizing.queue_cap
    );
    for endpoint in fairswap_serve::ENDPOINTS {
        println!(
            "  {:<4} {:<13}  {}",
            endpoint.method, endpoint.path, endpoint.doc
        );
    }
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
    Ok(())
}

/// `fuzz`: a seeded campaign, or with `--minimize` a corpus minimization.
fn fuzz(opts: &Options, executor: &Executor, obs: &mut GridObservation) -> Result<(), String> {
    let corpus_dir = opts
        .corpus
        .clone()
        .unwrap_or_else(|| opts.out.join("corpus"));
    if opts.minimize {
        let corpus = Corpus::load(&corpus_dir).map_err(|e| e.to_string())?;
        let outcome = {
            let meter = obs.meter();
            minimize_corpus(executor, &corpus, &mut |done, total| {
                meter.notify(done, total)
            })
        }
        .map_err(|e| e.to_string())?;
        for name in &outcome.dropped {
            let path = corpus_dir.join(format!("{name}.json"));
            std::fs::remove_file(&path).map_err(|e| format!("removing {}: {e}", path.display()))?;
            println!("  dropped {name} (behavior cell already covered)");
        }
        // Rewrite the survivors so the directory is exactly the minimized
        // corpus in canonical form.
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
        return Ok(());
    }
    let cfg = FuzzConfig {
        seed: opts.preset.scale.seed,
        iters: opts.iters,
        time_budget: opts.time_budget.map(std::time::Duration::from_secs),
    };
    // The campaign drives the shared progress meter directly: one tick
    // per evaluated spec (seeds, then iterations).
    let outcome = {
        let meter = obs.meter();
        run_campaign(executor, &cfg, &mut |done, total| meter.notify(done, total))
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
    write_text(&opts.out.join("findings.json"), &(findings + "\n"))?;
    let (name, csv) = outcome.findings_csv();
    write_csv(obs, &opts.out, name, &csv)
}

/// `trace-check`: validates the JSONL trace named by `--trace`.
fn trace_check(opts: &Options, _: &Executor, _: &mut GridObservation) -> Result<(), String> {
    let path = opts.trace.as_ref().ok_or_else(|| {
        "trace-check requires --trace FILE (the JSONL trace to validate)".to_string()
    })?;
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    let stats = validate_jsonl(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    println!(
        "  {} ok: {} lines, {} events across {} jobs ({} dropped)",
        path.display(),
        stats.lines,
        stats.events,
        stats.jobs,
        stats.dropped
    );
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

    fn s(v: &[&str]) -> Vec<String> {
        v.iter().map(|x| x.to_string()).collect()
    }

    fn quick_opts(command: &str, nodes: usize, files: u64, out: PathBuf) -> Options {
        Options {
            command: command.into(),
            preset: PresetArgs {
                scale: ExperimentScale {
                    nodes,
                    files,
                    seed: 1,
                },
                nodes_set: true,
                files_set: true,
                bits: large_scale::DEFAULT_BITS,
                scenario: None,
            },
            threads: 1,
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
            serve: fairswap_serve::ServeOptions {
                addr: "127.0.0.1:0".into(),
                scheduler: fairswap_serve::SchedulerOptions {
                    workers: 1,
                    cache_cap: 4,
                    queue_cap: 16,
                },
            },
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
        assert_eq!(opts.preset.scale.nodes, 100);
        assert_eq!(opts.preset.scale.files, 50);
        assert_eq!(opts.preset.scale.seed, 9);
        assert_eq!(opts.threads, 4);
        assert_eq!(opts.preset.bits, 20);
        assert!(opts.preset.nodes_set && opts.preset.files_set);
        assert_eq!(opts.out, PathBuf::from("/tmp/x"));
    }

    #[test]
    fn parses_serve_flags() {
        let opts = parse_args(&s(&[
            "serve",
            "--addr",
            "127.0.0.1:0",
            "--workers",
            "3",
            "--cache-cap",
            "5",
            "--queue-cap",
            "7",
        ]))
        .unwrap();
        let want = fairswap_serve::ServeOptions {
            addr: "127.0.0.1:0".into(),
            scheduler: fairswap_serve::SchedulerOptions {
                workers: 3,
                cache_cap: 5,
                queue_cap: 7,
            },
        };
        assert_eq!(opts.serve, want);
    }

    #[test]
    fn defaults_are_serial_paper_scale() {
        let opts = parse_args(&s(&["paper"])).unwrap();
        assert_eq!(opts.threads, 1);
        assert_eq!(opts.preset.bits, large_scale::DEFAULT_BITS);
        assert!(!opts.preset.nodes_set && !opts.preset.files_set);
    }

    #[test]
    fn quick_flag_shrinks_scale() {
        let opts = parse_args(&s(&["paper", "--quick"])).unwrap();
        assert_eq!(opts.preset.scale.nodes, ExperimentScale::quick().nodes);
        // Quick is explicit sizing: large-scale must not override it with
        // its 10^5-node default.
        assert!(opts.preset.nodes_set && opts.preset.files_set);
    }

    #[test]
    fn explicit_dimensions_beat_quick_in_any_order() {
        for order in [
            ["paper", "--nodes", "500", "--quick"],
            ["paper", "--quick", "--nodes", "500"],
        ] {
            let opts = parse_args(&s(&order)).unwrap();
            assert_eq!(opts.preset.scale.nodes, 500, "order {order:?}");
            assert_eq!(opts.preset.scale.files, ExperimentScale::quick().files);
            assert!(opts.preset.nodes_set && opts.preset.files_set);
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

    /// The names of the files in `dir`, sorted.
    fn names_in(dir: &Path) -> Vec<String> {
        files_in(dir)
            .into_iter()
            .map(|(name, _)| name.to_string_lossy().into_owned())
            .collect()
    }

    #[test]
    fn runs_a_tiny_experiment_end_to_end() {
        let dir = std::env::temp_dir().join("fairswap_cli_test");
        let _ = std::fs::remove_dir_all(&dir);
        run_command(&quick_opts("paper", 60, 10, dir.clone())).unwrap();
        assert_eq!(
            names_in(&dir),
            [
                "fig4.csv",
                "fig5.csv",
                "fig6.csv",
                "metric_robustness.csv",
                "table1.csv"
            ]
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn threaded_run_matches_serial_run() {
        let dir_a = std::env::temp_dir().join("fairswap_cli_serial");
        let dir_b = std::env::temp_dir().join("fairswap_cli_threaded");
        let serial = quick_opts("paper", 80, 16, dir_a.clone());
        let mut threaded = quick_opts("paper", 80, 16, dir_b.clone());
        threaded.threads = 4;
        run_command(&serial).unwrap();
        run_command(&threaded).unwrap();
        assert_eq!(
            files_in(&dir_a),
            files_in(&dir_b),
            "threaded CSVs must be byte-identical to serial"
        );
        let _ = std::fs::remove_dir_all(&dir_a);
        let _ = std::fs::remove_dir_all(&dir_b);
    }

    #[test]
    fn churn_command_writes_both_csvs() {
        let dir = std::env::temp_dir().join("fairswap_cli_churn_test");
        let _ = std::fs::remove_dir_all(&dir);
        run_command(&quick_opts("churn", 80, 20, dir.clone())).unwrap();
        assert_eq!(names_in(&dir), ["churn.csv", "churn_timeline.csv"]);
        let csv = std::fs::read_to_string(dir.join("churn.csv")).unwrap();
        assert!(csv.starts_with("k,churn_rate,f1_gini,f2_gini,"));
        // Two k values × five default rates, plus the header.
        assert_eq!(csv.lines().count(), 1 + 2 * 5);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn durability_command_writes_both_csvs() {
        let dir = std::env::temp_dir().join("fairswap_cli_durability_test");
        let _ = std::fs::remove_dir_all(&dir);
        run_command(&quick_opts("durability", 80, 12, dir.clone())).unwrap();
        assert_eq!(
            names_in(&dir),
            ["durability.csv", "durability_timeline.csv"]
        );
        let csv = std::fs::read_to_string(dir.join("durability.csv")).unwrap();
        assert!(csv.starts_with("mode,k,churn_rate,f1_gini,f2_gini,"));
        // Five modes × two k values × three default rates, plus the header.
        assert_eq!(csv.lines().count(), 1 + 5 * 2 * 3);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn routing_and_cache_churn_commands_write_csvs() {
        let dir = std::env::temp_dir().join("fairswap_cli_policy_test");
        let _ = std::fs::remove_dir_all(&dir);
        run_command(&quick_opts("routing", 100, 16, dir.clone())).unwrap();
        let csv = std::fs::read_to_string(dir.join("routing.csv")).unwrap();
        assert!(csv.starts_with("route,k,requests,"));
        // Two policies × two k values, plus the header.
        assert_eq!(csv.lines().count(), 5);
        run_command(&quick_opts("cache-churn", 100, 16, dir.clone())).unwrap();
        let csv = std::fs::read_to_string(dir.join("cache_churn.csv")).unwrap();
        assert!(csv.starts_with("cache,churn_rate,"));
        // Four policies × four rates, plus the header.
        assert_eq!(csv.lines().count(), 17);
        assert_eq!(names_in(&dir), ["cache_churn.csv", "routing.csv"]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn large_scale_command_at_test_size() {
        let dir = std::env::temp_dir().join("fairswap_cli_large_scale_test");
        let mut opts = quick_opts("large-scale", 2000, 20, dir.clone());
        opts.preset.bits = 18;
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
        for name in PRESETS
            .iter()
            .map(|p| p.name)
            .chain(TOOLS.iter().map(|t| t.name))
        {
            assert!(text.contains(name), "usage misses {name}");
        }
        assert!(text.contains("all"));
        // Presets dispatch by looping over their table; every tool but
        // `serve` runs here at a tiny scale and must leave its artifact.
        // `serve` blocks until an HTTP shutdown; its dispatch is covered
        // end to end by `crates/serve/tests/` and the CI serve-smoke job.
        let dir = std::env::temp_dir().join("fairswap_cli_dispatch_test");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let spec_file = dir.join("dispatch_spec.json");
        std::fs::write(
            &spec_file,
            r#"{ "topology": { "nodes": 80 }, "workload": { "files": 8 } }"#,
        )
        .unwrap();
        // `trace-check` (last in the table) validates the trace that the
        // first tool, `run`, writes — the full produce-then-validate loop.
        let trace_file = dir.join("dispatch_trace.jsonl");
        for tool in TOOLS.iter().filter(|t| t.name != "serve") {
            let mut opts = quick_opts(tool.name, 80, 8, dir.clone());
            opts.config = Some(spec_file.clone());
            if tool.name == "run" || tool.name == "trace-check" {
                opts.trace = Some(trace_file.clone());
            }
            run_command(&opts).unwrap_or_else(|e| panic!("{} failed: {e}", tool.name));
        }
        assert!(dir.join("run.csv").exists());
        // The fuzz campaign wrote its replayable corpus and findings
        // report.
        assert!(dir.join("fuzz.csv").exists());
        assert!(dir.join("findings.json").exists());
        assert!(dir.join("corpus").join("seed-00-paper-quick.json").exists());
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
    fn scenario_flag_parses_and_validates() {
        let opts = parse_args(&s(&["scenarios", "--scenario", "flash-crowd"])).unwrap();
        assert_eq!(opts.preset.scenario.as_deref(), Some("flash-crowd"));
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

    /// Every file in `dir`, by name.
    fn files_in(dir: &Path) -> Vec<(PathBuf, Vec<u8>)> {
        let mut files: Vec<_> = std::fs::read_dir(dir)
            .unwrap()
            .map(|entry| {
                let path = entry.unwrap().path();
                (
                    path.file_name().unwrap().into(),
                    std::fs::read(&path).unwrap(),
                )
            })
            .collect();
        files.sort();
        files
    }

    #[test]
    fn observability_flags_work_on_every_preset() {
        // `all` runs every `in_all` preset through the one dispatch loop,
        // so one plain and one traced run cover each of them end to end:
        // same files byte for byte, and a trace `trace-check` accepts.
        let dir = std::env::temp_dir().join("fairswap_cli_observe_every_preset");
        let _ = std::fs::remove_dir_all(&dir);
        let plain_dir = dir.join("plain");
        let traced_dir = dir.join("traced");
        let trace = dir.join("trace.jsonl");
        run_command(&quick_opts("all", 60, 10, plain_dir.clone())).unwrap();
        let mut opts = quick_opts("all", 60, 10, traced_dir.clone());
        opts.trace = Some(trace.clone());
        opts.metrics = Some(dir.join("metrics.csv"));
        run_command(&opts).unwrap();
        let plain = files_in(&plain_dir);
        let written = PRESETS.iter().filter(|p| p.in_all).count();
        assert!(plain.len() >= written, "one file or more per preset");
        assert_eq!(plain, files_in(&traced_dir), "tracing perturbs a CSV");
        let mut check = quick_opts("trace-check", 60, 10, dir.clone());
        check.trace = Some(trace);
        run_command(&check).unwrap();
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
        assert_eq!(
            files_in(&plain_dir),
            files_in(&traced_dir),
            "tracing must not perturb the CSVs"
        );
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
        // Commands that run no preset grid refuse the flags.
        for tool in TOOLS.iter().filter(|t| !t.observed) {
            let mut opts = quick_opts(tool.name, 60, 10, dir.clone());
            opts.profile = true;
            let e = run_command(&opts).unwrap_err();
            assert!(e.contains("not supported for"), "{}: {e}", tool.name);
        }
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
        opts.preset.scenario = Some("targeted-departure".into());
        run_command(&opts).unwrap();
        let csv = std::fs::read_to_string(dir.join("scenarios.csv")).unwrap();
        assert!(csv.starts_with("scenario,k,shock_step,"));
        // One scenario × two k values, plus the header.
        assert_eq!(csv.lines().count(), 3);
        assert!(dir.join("scenarios_timeline.csv").exists());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
