//! `loopml-serve` — a long-lived unroll-factor prediction daemon.
//!
//! Loads one versioned model artifact (written by `repro train`) and
//! answers batched prediction requests over stdin/stdout until EOF or
//! a `{"control": "shutdown"}` drain sentinel. Hardened for hostile
//! input: admission limits, panic isolation, and deterministic fault
//! injection are configured from the environment (see DESIGN §14).
//! See `crates/serve` and DESIGN §11 for the protocol.

use std::io::Write;
use std::path::PathBuf;
use std::process::ExitCode;

use loopml_serve::{serve_lines_with, serve_stats_to_json, ServeModel, ServeOptions};

const USAGE: &str = "\
loopml-serve — unroll-factor prediction daemon (loopml/model/v1)

USAGE:
    loopml-serve --artifact <path> [--stats-out <path>]

OPTIONS:
    --artifact <path>   Model artifact JSON written by `repro train`
    --stats-out <path>  Write the loopml/serve-stats/v1 document here on exit
    --help              Print this message

PROTOCOL (one JSON request per line):
    {\"id\": 1, \"features\": [[...], ...]}   -> {\"id\": 1, \"factors\": [...]}
    {\"id\": 2, \"loops\": [{...}, ...]}      -> {\"id\": 2, \"factors\": [...]}
    {\"control\": \"ping\"|\"stats\"|\"shutdown\"}  control plane / graceful drain

ENVIRONMENT:
    LOOPML_SERVE_MAX_LINE    request line cap in bytes (default 1 MiB)
    LOOPML_SERVE_MAX_BATCH   rows per batch cap (default 4096)
    LOOPML_SERVE_RETRIES     in-daemon retries for injected faults (default 3)
    LOOPML_FAULTS            deterministic chaos: <seed>:<rate>[:<site>]

Exit codes: 0 clean EOF or drain, 1 runtime failure, 2 usage error.";

struct Args {
    artifact: PathBuf,
    stats_out: Option<PathBuf>,
}

fn parse_args(argv: &[String]) -> Result<Option<Args>, String> {
    let mut artifact = None;
    let mut stats_out = None;
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--help" | "-h" => return Ok(None),
            "--artifact" => {
                artifact = Some(PathBuf::from(
                    it.next().ok_or("--artifact requires a path")?,
                ));
            }
            "--stats-out" => {
                stats_out = Some(PathBuf::from(
                    it.next().ok_or("--stats-out requires a path")?,
                ));
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    match artifact {
        Some(artifact) => Ok(Some(Args {
            artifact,
            stats_out,
        })),
        None => Err("--artifact <path> is required".into()),
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(Some(args)) => args,
        Ok(None) => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Err(e) => {
            eprintln!("loopml-serve: {e}\n\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let model = match ServeModel::load(&args.artifact) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("loopml-serve: {e}");
            return ExitCode::FAILURE;
        }
    };
    let opts = ServeOptions::from_env();
    eprintln!(
        "loopml-serve: serving {} ({}) from {}",
        model.name(),
        model.artifact().kind(),
        args.artifact.display()
    );
    if opts.faults.is_active() {
        eprintln!("loopml-serve: fault plane active: {:?}", opts.faults);
    }
    let stdin = std::io::stdin().lock();
    let stdout = std::io::stdout().lock();
    match serve_lines_with(&model, &opts, stdin, stdout) {
        Ok(stats) => {
            if let Some(path) = &args.stats_out {
                let doc = serve_stats_to_json(&model, &stats);
                if let Err(e) = std::fs::write(path, format!("{doc}\n")) {
                    eprintln!("loopml-serve: write {}: {e}", path.display());
                    return ExitCode::FAILURE;
                }
            }
            eprintln!(
                "loopml-serve: answered {} predictions in {} batches \
                 ({} errors, {} retries, {} control requests{})",
                stats.predictions,
                stats.batches,
                stats.errors,
                stats.retries,
                stats.controls,
                if stats.drained { ", drained" } else { "" }
            );
            let _ = std::io::stderr().flush();
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("loopml-serve: {e}");
            ExitCode::FAILURE
        }
    }
}
