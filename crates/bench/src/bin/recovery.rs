//! The recovery experiment: measures how fast a self-healing fleet gets
//! back to delivering rounds after losing a member.
//!
//! Runs a three-OS-process fleet (coordinator in this process, two
//! `--member` children — this binary re-executed),
//! SIGKILLs member 2 after round `--kill-at` completes, restarts it with
//! the rejoin handshake after round `--restart-at`, and records:
//!
//! * **detection → first healed round** — the wall-clock gap between the
//!   coordinator convicting the dead process and the first round completed
//!   afterwards (the paper-facing recovery latency), and
//! * **healed throughput** — messages/sec over the rounds completed after
//!   the detection, next to the whole run's rate.
//!
//! With `--out PATH` the measurement is written as `BENCH_recovery.json`
//! (schema: [`atom_bench::recovery`], rendered by the `fig_recovery` bin).
//!
//! Usage: `cargo run --release -p atom-bench --bin recovery --
//! [--rounds N] [--messages M] [--kill-at R] [--restart-at R]
//! [--batch B] [--honest H] [--out PATH]`

use std::process::Command;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use atom_bench::netbench::{self, NetSpec, ProcessFleet};
use atom_bench::recovery::RecoveryBaseline;
use atom_runtime::RoundCompleteHook;

const PROCESSES: usize = 3;
const GROUPS: usize = 3;

struct Args {
    spec: NetSpec,
    batch: usize,
    workers: usize,
    kill_at: usize,
    restart_at: usize,
    out: Option<String>,
    /// Internal: run as one member of the fleet.
    member: Option<(usize, Vec<String>, bool)>,
}

fn parse_args() -> Args {
    let mut args = Args {
        spec: NetSpec {
            groups: GROUPS,
            rounds: 8,
            messages: 12,
            iterations: 2,
            seed: 0x4EA1_BEAC,
            delay: Duration::from_millis(25),
            sharded: false,
            stall_timeout: Duration::from_secs(2),
            trace: false,
            honest: 2,
            ..NetSpec::default()
        },
        batch: 1,
        workers: 2,
        kill_at: 1,
        restart_at: 3,
        out: None,
        member: None,
    };
    let (mut is_member, mut index, mut addrs, mut rejoin) = (false, 0usize, Vec::new(), false);
    let mut iter = std::env::args().skip(1);
    while let Some(flag) = iter.next() {
        let mut grab = |name: &str| -> String {
            iter.next()
                .unwrap_or_else(|| panic!("{name} needs an argument"))
        };
        let num = |name: &str, value: String| -> u64 {
            value
                .parse::<u64>()
                .unwrap_or_else(|_| panic!("{name} needs a numeric argument"))
        };
        match flag.as_str() {
            "--rounds" => args.spec.rounds = num("--rounds", grab("--rounds")) as usize,
            "--messages" => args.spec.messages = num("--messages", grab("--messages")) as usize,
            "--iterations" => {
                args.spec.iterations = num("--iterations", grab("--iterations")) as usize
            }
            "--seed" => args.spec.seed = num("--seed", grab("--seed")),
            "--delay-ms" => {
                args.spec.delay = Duration::from_millis(num("--delay-ms", grab("--delay-ms")))
            }
            "--stall-timeout-ms" => {
                args.spec.stall_timeout =
                    Duration::from_millis(num("--stall-timeout-ms", grab("--stall-timeout-ms")))
            }
            "--honest" => args.spec.honest = num("--honest", grab("--honest")) as usize,
            "--batch" => args.batch = num("--batch", grab("--batch")) as usize,
            "--workers" => args.workers = num("--workers", grab("--workers")) as usize,
            "--kill-at" => args.kill_at = num("--kill-at", grab("--kill-at")) as usize,
            "--restart-at" => args.restart_at = num("--restart-at", grab("--restart-at")) as usize,
            "--out" => args.out = Some(grab("--out")),
            "--member" => is_member = true,
            "--index" => index = num("--index", grab("--index")) as usize,
            "--addrs" => addrs = grab("--addrs").split(',').map(str::to_string).collect(),
            "--rejoin" => rejoin = true,
            other => panic!("unknown flag {other}"),
        }
    }
    assert!(
        args.kill_at < args.restart_at && args.restart_at + 2 < args.spec.rounds,
        "need kill-at < restart-at and at least two rounds after the restart \
         for the readmission to land"
    );
    if is_member {
        args.member = Some((index, addrs, rejoin));
    }
    args
}

/// The `--member` command hosting process `index` of this deployment.
fn member_command(args: &Args, addrs: &[String], index: usize, rejoin: bool) -> Command {
    let mut command = Command::new(std::env::current_exe().expect("own binary path"));
    command
        .arg("--member")
        .arg("--index")
        .arg(index.to_string())
        .arg("--addrs")
        .arg(addrs.join(","))
        .arg("--rounds")
        .arg(args.spec.rounds.to_string())
        .arg("--messages")
        .arg(args.spec.messages.to_string())
        .arg("--iterations")
        .arg(args.spec.iterations.to_string())
        .arg("--seed")
        .arg(args.spec.seed.to_string())
        .arg("--delay-ms")
        .arg(args.spec.delay.as_millis().to_string())
        .arg("--stall-timeout-ms")
        .arg(args.spec.stall_timeout.as_millis().to_string())
        .arg("--honest")
        .arg(args.spec.honest.to_string())
        .arg("--batch")
        .arg(args.batch.to_string())
        .arg("--workers")
        .arg(args.workers.to_string());
    if rejoin {
        command.arg("--rejoin");
    }
    command
}

fn main() {
    let args = parse_args();
    if let Some((index, addrs, rejoin)) = &args.member {
        let result =
            netbench::connect_member(&args.spec, args.batch, addrs.clone(), *index, *rejoin)
                .and_then(|member| {
                    use std::io::Write;
                    println!("{}", netbench::READY_LINE);
                    std::io::stdout().flush().expect("flush readiness signal");
                    member.run(netbench::engine_options(&args.spec, args.workers, *index))
                });
        if let Err(error) = result {
            eprintln!("recovery member {index}: {error}");
            std::process::exit(1);
        }
        return;
    }

    let addrs = netbench::free_addrs(PROCESSES);
    let fleet = Arc::new(Mutex::new(Some(ProcessFleet::spawn(vec![
        member_command(&args, &addrs, 1, false),
        member_command(&args, &addrs, 2, false),
    ]))));
    println!(
        "recovery: {GROUPS}-group healing deployment over {PROCESSES} processes, \
         {} rounds x {} messages (batch {}, h = {}); killing process 2 after \
         round {}, restarting after round {}",
        args.spec.rounds,
        args.spec.messages,
        args.batch,
        args.spec.honest,
        args.kill_at,
        args.restart_at
    );

    let hook: RoundCompleteHook = {
        let fleet = fleet.clone();
        let restart_command = member_command(&args, &addrs, 2, true);
        let restart_command = Arc::new(Mutex::new(Some(restart_command)));
        let (kill_at, restart_at) = (args.kill_at, args.restart_at);
        Arc::new(move |round| {
            let mut guard = fleet.lock().unwrap();
            let fleet = guard.as_mut().expect("fleet alive during the run");
            if round == kill_at {
                fleet.kill_member(2);
            }
            if round == restart_at {
                let command = restart_command
                    .lock()
                    .unwrap()
                    .take()
                    .expect("restart fires once");
                fleet
                    .restart_member(2, command)
                    .expect("restart the killed member");
            }
        })
    };

    let mut options = netbench::engine_options(&args.spec, args.workers, 0);
    options.on_round_complete = Some(hook);
    let outcome = netbench::connect_coordinator(&args.spec, args.batch, addrs)
        .and_then(|coordinator| coordinator.run(options))
        .unwrap_or_else(|error| {
            if let Some(fleet) = fleet.lock().unwrap().as_mut() {
                fleet.kill_all();
            }
            panic!("recovery run failed: {error}");
        });
    fleet
        .lock()
        .unwrap()
        .take()
        .expect("fleet still owned")
        .finish(Duration::from_secs(120))
        .unwrap_or_else(|error| panic!("fleet teardown: {error}"));

    let delivered: usize = outcome
        .reports
        .iter()
        .map(|r| r.output.plaintexts.len())
        .sum();
    assert_eq!(
        delivered,
        args.spec.rounds * args.spec.messages,
        "the healed run may not lose messages"
    );
    let detected_at = outcome
        .detected_at
        .expect("the kill must be detected for the experiment to mean anything");
    let healed_latency = outcome
        .healed_latency
        .expect("at least one round must complete after the detection");
    let healed_window = outcome.wall.saturating_sub(detected_at);
    let healed_delivered = outcome.healed_rounds.len() * args.spec.messages;

    let baseline = RecoveryBaseline {
        processes: PROCESSES,
        groups: GROUPS,
        rounds: args.spec.rounds,
        messages: args.spec.messages,
        iterations: args.spec.iterations,
        batch: args.batch,
        honest: args.spec.honest,
        evictions: outcome.evictions.len(),
        rejoins: outcome.rejoins.len(),
        epochs: outcome.epochs,
        detection_to_healed_ms: healed_latency.as_secs_f64() * 1e3,
        msgs_per_sec: delivered as f64 / outcome.wall.as_secs_f64(),
        healed_msgs_per_sec: healed_delivered as f64 / healed_window.as_secs_f64(),
        wall_ms: outcome.wall.as_secs_f64() * 1e3,
    };
    println!(
        "recovery: {} eviction(s), {} rejoin(s) over {} epoch(s); detection -> \
         first healed round {:.1} ms; {:.1} msgs/sec overall, {:.1} msgs/sec healed",
        baseline.evictions,
        baseline.rejoins,
        baseline.epochs,
        baseline.detection_to_healed_ms,
        baseline.msgs_per_sec,
        baseline.healed_msgs_per_sec
    );
    if let Some(path) = &args.out {
        std::fs::write(path, baseline.to_json()).expect("write BENCH_recovery.json");
        println!("wrote {path}");
    }
}
