//! The repository benchmark: three workloads on real compute, each
//! checked for correct output, printing end-to-end metrics (untraced) or
//! per-layer metrics (traced) as the last line of stdout.
//!
//! ```text
//! perfbench --workload <microblog_trap|dialing_nizk_tcp|ingress_open>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `perfbench/run.py` builds this binary and runs it; see
//! `perfbench/README.md` for the metrics and what each one should move.

mod ingress;
mod layers;
mod mix;
mod trace;
mod util;

use std::path::PathBuf;
use std::time::Instant;

use util::{json_num, json_str, Metrics};

/// Set-up repetitions per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 31;

/// End-to-end metrics, printed by every untraced run.
const END_TO_END: [&str; 8] = [
    "msgs_per_s",
    "round_p50_ms",
    "cpu_ms_per_msg",
    "setup_s",
    "peak_rss_mb",
    "ok_ratio",
    "admit_p50_ms",
    "admit_p95_ms",
];

/// Per-layer metrics, printed by every traced run.
const PER_LAYER: [&str; 37] = [
    "fail_ratio",
    "admit_p99_ms",
    "proc.cpu_util",
    "ladder.residual_pct",
    "trace_overhead_pct",
    "engine.setup_latency_ms",
    "engine.intake_span_ms",
    "engine.mix_envelopes_per_msg",
    "engine.mix_bytes_per_msg",
    "net.send_calls",
    "net.send_busy_ms",
    "net.send_p50_us",
    "net.drain_calls",
    "net.drain_useful_ratio",
    "net.pending_max",
    "net.threads_max",
    "wire.encode_mix_us",
    "wire.decode_mix_us",
    "wire.decode_submit_us",
    "directory.derive_group_ms",
    "directory.derive_setup_ms",
    "group.step_us_per_msg.trap",
    "group.step_us_per_msg.nizk",
    "crypto.reencrypt_message_us",
    "crypto.shuffle_us_per_msg",
    "crypto.fixed_base_table_us",
    "crypto.verify_encryption_batch_us",
    "crypto.prove_shuffle_us",
    "crypto.verify_shuffle_batch_us",
    "ingress.offered",
    "ingress.admitted",
    "ingress.shed_rate",
    "ingress.shed_queue",
    "ingress.malformed",
    "ingress.queue_depth_max",
    "ingress.source_ms",
    "ingress.gen_lag_p99_ms",
];

/// What a workload run produced.
pub struct Outcome {
    pub attempted: usize,
    pub failed: usize,
    pub metrics: Metrics,
    /// Extra `(key, value)` facts for the record (repetitions, sizes).
    pub notes: Vec<(String, String)>,
}

/// Logical cores available to this process.
pub fn cores() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    coordinator: Option<String>,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut parsed = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        coordinator: None,
    };
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => parsed.workload = value()?,
            "--seed" => parsed.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                parsed.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => parsed.trace = value()? == "1",
            "--coordinator" => parsed.coordinator = Some(value()?),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(parsed)
}

/// Busy threads a workload keeps: processes × engine workers + generator.
fn busy_threads(workload: &str) -> Option<usize> {
    match workload {
        "microblog_trap" => {
            let s = mix::microblog_trap();
            Some(s.processes * s.workers)
        }
        "dialing_nizk_tcp" => {
            let s = mix::dialing_nizk_tcp();
            Some(s.processes * s.workers)
        }
        // The ingress thread plus the open-loop generator.
        "ingress_open" => Some(1 + 1),
        _ => None,
    }
}

fn out_dir() -> PathBuf {
    let dir = std::env::var_os("PERFBENCH_OUT")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(".bench_build/perfbench"));
    let _ = std::fs::create_dir_all(&dir);
    dir
}

fn main() {
    let mut argv = std::env::args().skip(1).peekable();
    let member = argv.peek().map(String::as_str) == Some("member");
    if member {
        argv.next();
    }
    let args = match parse_args(argv) {
        Ok(args) => args,
        Err(error) => {
            eprintln!("perfbench: {error}");
            std::process::exit(2);
        }
    };
    if member {
        let shape = mix::dialing_nizk_tcp();
        let coordinator = args.coordinator.as_deref().unwrap_or_default();
        if let Err(error) = mix::member_main(&shape, args.seed, coordinator) {
            eprintln!("perfbench member: {error}");
            std::process::exit(1);
        }
        return;
    }

    let Some(busy) = busy_threads(&args.workload) else {
        eprintln!("perfbench: unknown workload `{}`", args.workload);
        std::process::exit(2);
    };
    if busy > cores() {
        eprintln!(
            "perfbench: refusing `{}`: {busy} busy threads exceed {} logical cores",
            args.workload,
            cores()
        );
        std::process::exit(3);
    }

    let started = Instant::now();
    let outcome = match args.workload.as_str() {
        "microblog_trap" => mix::run(
            &args.workload,
            &mix::microblog_trap(),
            args.seed,
            args.seconds,
            args.trace,
        ),
        "dialing_nizk_tcp" => mix::run(
            &args.workload,
            &mix::dialing_nizk_tcp(),
            args.seed,
            args.seconds,
            args.trace,
        ),
        _ => ingress::run(args.seed, args.seconds, args.trace),
    };
    let outcome = match outcome {
        Ok(outcome) => outcome,
        Err(error) => {
            eprintln!("perfbench: {} failed: {error}", args.workload);
            std::process::exit(1);
        }
    };
    let names: &[&str] = if args.trace { &PER_LAYER } else { &END_TO_END };
    for name in names {
        assert!(
            outcome.metrics.map.contains_key(*name),
            "metric {name} was not measured"
        );
    }
    let correct = outcome.failed == 0;

    // The record: host header, repetitions and every metric's median and
    // quartiles.
    let env = |key: &str| std::env::var(key).unwrap_or_else(|_| "unknown".to_string());
    let mut header = vec![
        ("workload", json_str(&args.workload)),
        ("seed", args.seed.to_string()),
        ("seconds", json_num(args.seconds)),
        ("trace", (args.trace as u8).to_string()),
        ("logical_cores", cores().to_string()),
        ("busy_threads", busy.to_string()),
        ("source_rev", json_str(&env("PERFBENCH_REV"))),
        ("rustc", json_str(&env("PERFBENCH_RUSTC"))),
        (
            "build_profile",
            json_str(if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }),
        ),
        ("setup_repetitions", SETUP_REPS.to_string()),
        (
            "client_work",
            json_str("all submissions and submit frames built before the timed region"),
        ),
        (
            "compute",
            json_str("real; no emulated delays, stragglers or sleeps in the system"),
        ),
        ("wall_s", json_num(started.elapsed().as_secs_f64())),
    ];
    let notes_json: Vec<String> = outcome
        .notes
        .iter()
        .map(|(k, v)| format!("{}: {}", json_str(k), json_str(v)))
        .collect();
    header.push(("repetitions", format!("{{{}}}", notes_json.join(", "))));
    let header_json: Vec<String> = header
        .iter()
        .map(|(k, v)| format!("{}: {v}", json_str(k)))
        .collect();
    let header_json = format!("{{{}}}", header_json.join(", "));
    let record = format!(
        "{{\"header\": {header_json}, \"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}\n",
        outcome.attempted,
        outcome.failed,
        outcome.metrics.record_json()
    );
    let dir = out_dir();
    let stem = format!(
        "{}-seed{}-trace{}",
        args.workload, args.seed, args.trace as u8
    );
    let path = dir.join(format!("{stem}.json"));
    if let Err(error) = std::fs::write(&path, &record) {
        eprintln!("perfbench: writing {}: {error}", path.display());
    }
    if args.trace {
        let path = dir.join(format!("{stem}.perfetto.json"));
        if let Err(error) = trace::write_trace(&path) {
            eprintln!("perfbench: writing {}: {error}", path.display());
        }
    }
    println!(
        "{{\"header\": {header_json}, \"metrics\": {}}}",
        outcome.metrics.record_json()
    );
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        outcome.attempted,
        outcome.failed,
        outcome.metrics.result_json(names)
    );
    if !correct {
        std::process::exit(1);
    }
}
