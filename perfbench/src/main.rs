//! `perfbench`: the repository benchmark.
//!
//! ```text
//! perfbench run --workload W --seed N --seconds S --trace 0|1 --server PATH --out DIR [--rev REV]
//! perfbench layers --workload W --seed N --out DIR
//! ```
//!
//! `run` starts the `elm-server` binary at `PATH`, drives workload `W`
//! over TCP (see [`wire`]), checks every output against a synchronous
//! replay (see [`oracle`]) and prints one JSON line: with `--trace 0` the
//! end-to-end metrics, with `--trace 1` the per-layer metrics, which add
//! the in-process replay of `layers` (run as a child process, so the
//! generator itself never drives from more than two threads). It exits 1
//! when any output differs from the replay. A provenance record goes to
//! `DIR` and to standard error.

mod alloc;
mod layers;
mod oracle;
mod stats;
mod sys;
mod wire;
mod workload;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use serde_json::Value as Json;
use stats::Metrics;

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// A seed reserved for confirming claims: not used while tuning.
const HELD_OUT_SEED: u64 = 424_242;

struct Args {
    mode: String,
    spec: workload::Spec,
    seed: u64,
    seconds: f64,
    trace: bool,
    server: PathBuf,
    out: PathBuf,
    rev: String,
}

fn parse_args() -> Result<Args, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opt = |name: &str| -> Option<String> {
        args.windows(2).find(|w| w[0] == name).map(|w| w[1].clone())
    };
    let need = |name: &str| opt(name).ok_or_else(|| format!("missing {name}"));
    let workload = need("--workload")?;
    let spec = workload::spec(&workload)
        .ok_or_else(|| format!("unknown workload {workload} (one of {:?})", workload::NAMES))?;
    let number = |name: &str, default: &str| -> Result<f64, String> {
        opt(name)
            .unwrap_or_else(|| default.to_string())
            .parse()
            .map_err(|_| format!("{name} needs a number"))
    };
    let seed: u64 = need("--seed")?
        .parse()
        .map_err(|_| "--seed needs an unsigned integer".to_string())?;
    let seconds = number("--seconds", "10")?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".to_string());
    }
    Ok(Args {
        mode: args.first().cloned().unwrap_or_default(),
        spec,
        seed,
        seconds,
        trace: number("--trace", "0")? != 0.0,
        server: opt("--server").map(PathBuf::from).unwrap_or_default(),
        out: PathBuf::from(need("--out")?),
        rev: opt("--rev").unwrap_or_else(|| "unknown".to_string()),
    })
}

fn main() -> ExitCode {
    match real_main() {
        Ok(code) => code,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}

fn real_main() -> Result<ExitCode, String> {
    let args = parse_args()?;
    std::fs::create_dir_all(&args.out)
        .map_err(|e| format!("cannot create {}: {e}", args.out.display()))?;
    match args.mode.as_str() {
        "run" => run(&args),
        "layers" => {
            let metrics = layers::run(&args.spec, args.seed, &args.out)?;
            println!("{}", metrics.to_json());
            Ok(ExitCode::SUCCESS)
        }
        other => Err(format!("unknown mode {other:?} (run | layers)")),
    }
}

/// Runs the in-process replay in a child process and returns its metrics.
fn replay_layers(args: &Args) -> Result<Metrics, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find myself: {e}"))?;
    let out = Command::new(exe)
        .args(["layers", "--workload", args.spec.name, "--seed"])
        .arg(args.seed.to_string())
        .arg("--out")
        .arg(&args.out)
        .output()
        .map_err(|e| format!("cannot run the replay: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    if !out.status.success() {
        return Err(format!(
            "replay failed: {}",
            String::from_utf8_lossy(&out.stderr).trim()
        ));
    }
    Metrics::from_json(stdout.lines().last().unwrap_or(""))
}

fn run(args: &Args) -> Result<ExitCode, String> {
    if !args.server.is_file() {
        return Err(format!("no server binary at {}", args.server.display()));
    }
    let spec = &args.spec;
    let mut wire = wire::run(
        spec,
        args.seed,
        args.seconds,
        &args.server,
        &args.out,
        args.trace,
    )?;
    let metrics = if args.trace {
        let mut m = wire.layers.clone();
        match replay_layers(args) {
            Ok(layers) => m.extend(layers),
            Err(e) => {
                wire.failed += 1;
                wire.errors.push(e);
            }
        }
        // The traced run's own end-to-end figures: their difference from
        // an untraced run's is the tracing overhead (see
        // `tracing_overhead`).
        for (name, unit) in [
            ("applied_events_per_s", "events/s"),
            ("update_latency_p50_ms", "ms"),
        ] {
            let value = wire.end_to_end.get(name).unwrap_or(0.0);
            m.push(&format!("trace.{name}"), value, unit);
        }
        m
    } else {
        wire.end_to_end.clone()
    };
    let correct = wire.failed == 0;
    let overhead = if args.trace {
        tracing_overhead(&args.out, spec.name, args.seed, &wire.end_to_end)
    } else {
        "null".to_string()
    };

    let notes: Vec<String> = wire
        .notes
        .iter()
        .map(|(k, v)| format!("\"{k}\":{}", serde_json::to_string(v).unwrap_or_default()))
        .collect();
    let provenance = format!(
        "{{\"workload\":\"{}\",\"seed\":{},\"held_out_seed\":{HELD_OUT_SEED},\"seconds\":{},\"trace\":{},\
         \"rev\":{},\"host_cores\":{},\"server_flags\":{},\"lateness_bound_ms\":{},\"valid\":{},\
         \"correct\":{correct},\"errors\":{},\"notes\":{{{}}},\"end_to_end\":{},\"per_layer\":{},\
         \"tracing_overhead\":{overhead}}}",
        spec.name,
        args.seed,
        args.seconds,
        args.trace,
        serde_json::to_string(&args.rev).unwrap_or_default(),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        serde_json::to_string(&wire.flags).unwrap_or_default(),
        wire::LATE_BOUND_MS,
        wire.valid,
        serde_json::to_string(&wire.errors).unwrap_or_default(),
        notes.join(","),
        wire.end_to_end.to_json(),
        if args.trace { metrics.to_json() } else { "null".to_string() },
    );
    eprintln!("{provenance}");
    let record = args.out.join(format!(
        "result-{}-{}-trace{}.json",
        spec.name,
        args.seed,
        u8::from(args.trace)
    ));
    std::fs::write(&record, format!("{provenance}\n"))
        .map_err(|e| format!("cannot write {}: {e}", record.display()))?;

    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        wire.attempted.max(1),
        wire.failed,
        metrics.to_json()
    );
    Ok(if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// The untraced end-to-end figures a traced run is weighed against: the
/// correct untraced record of the same workload and seed in `out` when
/// there is one, else the median over every correct untraced record of
/// the workload there. Returns the figures and how many records they
/// come from.
fn untraced_baseline(out: &Path, workload: &str, seed: u64) -> Option<(Metrics, usize)> {
    let same = out.join(format!("result-{workload}-{seed}-trace0.json"));
    let prefix = format!("result-{workload}-");
    let paths: Vec<PathBuf> = if same.is_file() {
        vec![same]
    } else {
        std::fs::read_dir(out)
            .ok()?
            .filter_map(|e| Some(e.ok()?.path()))
            .filter(|p| {
                p.file_name()
                    .and_then(|n| n.to_str())
                    .is_some_and(|n| n.starts_with(&prefix) && n.ends_with("-trace0.json"))
            })
            .collect()
    };
    let records: Vec<Metrics> = paths
        .iter()
        .filter_map(|p| {
            let json: Json = serde_json::from_str(std::fs::read_to_string(p).ok()?.trim()).ok()?;
            if json.get("correct") != Some(&Json::Bool(true)) {
                return None;
            }
            Metrics::from_json(&serde_json::to_string(json.get("end_to_end")?).ok()?).ok()
        })
        .collect();
    (!records.is_empty()).then(|| (stats::median_of(records.iter()), records.len()))
}

/// Tracing overhead as a JSON object: per end-to-end metric, the traced
/// run's value, the untraced baseline's, and their relative difference.
/// `null` (with a note on stderr) when `out` holds no untraced record of
/// the workload to compare with.
fn tracing_overhead(out: &Path, workload: &str, seed: u64, traced: &Metrics) -> String {
    let Some((untraced, records)) = untraced_baseline(out, workload, seed) else {
        eprintln!(
            "perfbench: no untraced record of {workload} in {}: run with --trace 0 first to get the tracing overhead",
            out.display()
        );
        return "null".to_string();
    };
    let mut fields = vec![format!("\"untraced_records\":{records}")];
    let mut summary = Vec::new();
    for name in [
        "applied_events_per_s",
        "update_latency_p50_ms",
        "cpu_us_per_event",
    ] {
        let (Some(t), Some(u)) = (traced.get(name), untraced.get(name)) else {
            continue;
        };
        let change = if u != 0.0 { (t - u) / u } else { 0.0 };
        fields.push(format!(
            "\"{name}\":{{\"traced\":{t},\"untraced\":{u},\"change\":{change}}}"
        ));
        summary.push(format!("{name} {:+.1}%", change * 100.0));
    }
    eprintln!(
        "perfbench: tracing overhead against {records} untraced record(s): {}",
        summary.join(", ")
    );
    format!("{{{}}}", fields.join(","))
}
