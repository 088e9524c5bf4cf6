//! One function per table/figure of the paper's evaluation section.
//!
//! Every function returns its rows (so tests can check shapes) and has a
//! `print_*` companion used by the reproduction binaries.

use std::time::Instant;

use rand::Rng;

use atom_baselines::{riposte_latency_seconds, vuvuzela_latency_seconds};
use atom_core::config::Defense;
use atom_core::group::{group_mix_iteration, GroupStepOptions};
use atom_crypto::dkg::{run_dkg, DkgParams};
use atom_sim::{estimate_round, DeploymentSpec, PrimitiveCosts};
use atom_topology::groups::{required_group_size, GroupSecurityParams};

use crate::fixtures::{bench_rng, group_with_batch};

/// Table 3: primitive latencies measured on this machine, next to the
/// paper's values.
pub fn table3(batch: usize) -> Vec<(&'static str, f64, f64)> {
    let measured = PrimitiveCosts::measure(batch);
    let paper = PrimitiveCosts::paper_table3();
    vec![
        ("Enc", measured.enc, paper.enc),
        ("ReEnc", measured.reenc, paper.reenc),
        (
            "Shuffle (per msg)",
            measured.shuffle_per_msg,
            paper.shuffle_per_msg,
        ),
        (
            "EncProof prove",
            measured.encproof_prove,
            paper.encproof_prove,
        ),
        (
            "EncProof verify",
            measured.encproof_verify,
            paper.encproof_verify,
        ),
        (
            "ReEncProof prove",
            measured.reencproof_prove,
            paper.reencproof_prove,
        ),
        (
            "ReEncProof verify",
            measured.reencproof_verify,
            paper.reencproof_verify,
        ),
        (
            "ShufProof prove (per msg)",
            measured.shufproof_prove_per_msg,
            paper.shufproof_prove_per_msg,
        ),
        (
            "ShufProof verify (per msg)",
            measured.shufproof_verify_per_msg,
            paper.shufproof_verify_per_msg,
        ),
    ]
}

/// Prints Table 3.
pub fn print_table3(batch: usize) {
    println!("Table 3: cryptographic primitive latency (seconds)");
    println!("{:<28} {:>14} {:>14}", "primitive", "measured", "paper");
    for (name, measured, paper) in table3(batch) {
        println!("{name:<28} {measured:>14.3e} {paper:>14.3e}");
    }
}

/// Table 4: anytrust group setup (DKG/DVSS) latency for varying group sizes.
pub fn table4(sizes: &[usize]) -> Vec<(usize, f64)> {
    let mut rng = bench_rng();
    sizes
        .iter()
        .map(|&size| {
            let params = DkgParams::anytrust(size).expect("valid size");
            let start = Instant::now();
            let _ = run_dkg(&params, &mut rng).expect("dkg");
            (size, start.elapsed().as_secs_f64())
        })
        .collect()
}

/// Prints Table 4.
pub fn print_table4(sizes: &[usize]) {
    println!("Table 4: anytrust group setup latency");
    println!("{:<12} {:>14}", "group size", "seconds");
    for (size, seconds) in table4(sizes) {
        println!("{size:<12} {seconds:>14.4}");
    }
    println!("(paper: 4→7.4ms, 8→29.4ms, 16→93.3ms, 32→361.8ms, 64→1432.1ms)");
}

/// One row of Fig. 5/6-style measurements.
#[derive(Clone, Copy, Debug)]
pub struct MixingRow {
    /// The varied parameter (message count or group size).
    pub x: usize,
    /// Seconds per mixing iteration for the NIZK variant.
    pub nizk_seconds: f64,
    /// Seconds per mixing iteration for the trap variant.
    pub trap_seconds: f64,
}

/// Times one mixing iteration for one group under both defences.
fn time_iteration(defense: Defense, group_size: usize, messages: usize, parallelism: usize) -> f64 {
    let (setup, group, batch, padded) = group_with_batch(defense, group_size, messages);
    let next_key = setup.groups[1].public_key;
    let participating = group.participating(&[]).expect("no failures");
    let options = GroupStepOptions {
        defense,
        parallelism,
    };
    let mut rng = bench_rng();
    let start = Instant::now();
    group_mix_iteration(
        &group,
        &participating,
        batch,
        &[next_key],
        padded,
        &options,
        None,
        &mut rng,
    )
    .expect("mixing iteration");
    start.elapsed().as_secs_f64()
}

/// Fig. 5: time per mixing iteration as the number of messages varies
/// (fixed group size). In the trap variant each group handles twice the
/// messages (real + trap), which is accounted for by the caller's counts.
pub fn fig5(group_size: usize, message_counts: &[usize]) -> Vec<MixingRow> {
    message_counts
        .iter()
        .map(|&messages| MixingRow {
            x: messages,
            nizk_seconds: time_iteration(Defense::Nizk, group_size, messages, 1),
            trap_seconds: time_iteration(Defense::Trap, group_size, 2 * messages, 1),
        })
        .collect()
}

/// Prints Fig. 5.
pub fn print_fig5(group_size: usize, message_counts: &[usize]) {
    println!("Figure 5: time per mixing iteration vs number of messages (group of {group_size})");
    println!(
        "{:<12} {:>14} {:>14} {:>8}",
        "messages", "NIZK (s)", "trap (s)", "ratio"
    );
    for row in fig5(group_size, message_counts) {
        println!(
            "{:<12} {:>14.3} {:>14.3} {:>8.2}",
            row.x,
            row.nizk_seconds,
            row.trap_seconds,
            row.nizk_seconds / row.trap_seconds
        );
    }
    println!("(paper, 32 servers: linear in messages; NIZK ≈ 4× trap)");
}

/// Fig. 6: time per mixing iteration as the group size varies (fixed message
/// count).
pub fn fig6(message_count: usize, group_sizes: &[usize]) -> Vec<MixingRow> {
    group_sizes
        .iter()
        .map(|&size| MixingRow {
            x: size,
            nizk_seconds: time_iteration(Defense::Nizk, size, message_count, 1),
            trap_seconds: time_iteration(Defense::Trap, size, 2 * message_count, 1),
        })
        .collect()
}

/// Prints Fig. 6.
pub fn print_fig6(message_count: usize, group_sizes: &[usize]) {
    println!("Figure 6: time per mixing iteration vs group size ({message_count} messages)");
    println!("{:<12} {:>14} {:>14}", "group size", "NIZK (s)", "trap (s)");
    for row in fig6(message_count, group_sizes) {
        println!(
            "{:<12} {:>14.3} {:>14.3}",
            row.x, row.nizk_seconds, row.trap_seconds
        );
    }
    println!("(paper: linear in group size)");
}

/// Fig. 7: speed-up of one mixing iteration as the number of worker threads
/// grows, relative to the smallest thread count, for both variants.
pub fn fig7(group_size: usize, messages: usize, threads: &[usize]) -> Vec<(usize, f64, f64)> {
    let trap_base = time_iteration(Defense::Trap, group_size, messages, threads[0]);
    let nizk_base = time_iteration(Defense::Nizk, group_size, messages, threads[0]);
    threads
        .iter()
        .map(|&t| {
            let trap = time_iteration(Defense::Trap, group_size, messages, t);
            let nizk = time_iteration(Defense::Nizk, group_size, messages, t);
            (t, trap_base / trap, nizk_base / nizk)
        })
        .collect()
}

/// Prints Fig. 7.
pub fn print_fig7(group_size: usize, messages: usize, threads: &[usize]) {
    println!("Figure 7: speed-up vs number of cores (group of {group_size}, {messages} messages)");
    println!(
        "{:<8} {:>14} {:>14}",
        "threads", "trap speedup", "NIZK speedup"
    );
    for (t, trap, nizk) in fig7(group_size, messages, threads) {
        println!("{t:<8} {trap:>14.2} {nizk:>14.2}");
    }
    println!("(paper: near-linear for trap, sub-linear for NIZK)");
}

/// Fig. 9: end-to-end latency vs number of users for microblogging and
/// dialing on a 1,024-server deployment (calibrated model).
pub fn fig9(costs: &PrimitiveCosts, user_counts: &[u64]) -> Vec<(u64, f64, f64)> {
    user_counts
        .iter()
        .map(|&users| {
            let micro = estimate_round(&DeploymentSpec::paper_microblogging(1024, users), costs);
            let dial = estimate_round(&DeploymentSpec::paper_dialing(1024, users), costs);
            (users, micro.total_seconds(), dial.total_seconds())
        })
        .collect()
}

/// Prints Fig. 9.
pub fn print_fig9(costs: &PrimitiveCosts, user_counts: &[u64]) {
    println!("Figure 9: end-to-end latency vs number of messages (1,024 servers)");
    println!(
        "{:<12} {:>18} {:>18}",
        "users", "microblogging (s)", "dialing (s)"
    );
    for (users, micro, dial) in fig9(costs, user_counts) {
        println!("{users:<12} {micro:>18.1} {dial:>18.1}");
    }
    println!("(paper: linear; ~28 min for one million users)");
}

/// Fig. 10: speed-up relative to 128 servers when routing one million
/// microblogging messages.
pub fn fig10(costs: &PrimitiveCosts, server_counts: &[usize]) -> Vec<(usize, f64, f64)> {
    let base = DeploymentSpec::paper_microblogging(server_counts[0], 1_000_000);
    let base_total = estimate_round(&base, costs).total_seconds();
    server_counts
        .iter()
        .map(|&servers| {
            let total = estimate_round(
                &DeploymentSpec::paper_microblogging(servers, 1_000_000),
                costs,
            )
            .total_seconds();
            (servers, total, base_total / total)
        })
        .collect()
}

/// Prints Fig. 10.
pub fn print_fig10(costs: &PrimitiveCosts, server_counts: &[usize]) {
    println!("Figure 10: speed-up vs number of servers (1M microblogging messages)");
    println!("{:<10} {:>14} {:>10}", "servers", "latency (s)", "speed-up");
    for (servers, total, speedup) in fig10(costs, server_counts) {
        println!("{servers:<10} {total:>14.1} {speedup:>10.2}");
    }
    println!("(paper: 128→3.81h, 256→1.89h, 512→0.94h, 1024→0.47h; linear speed-up)");
}

/// Fig. 11: simulated speed-up for very large deployments routing one billion
/// microblogging messages.
pub fn fig11(costs: &PrimitiveCosts, server_exponents: &[u32]) -> Vec<(usize, f64, f64)> {
    let base_servers = 1usize << server_exponents[0];
    let base = estimate_round(
        &DeploymentSpec::paper_microblogging(base_servers, 500_000_000),
        costs,
    )
    .total_seconds();
    server_exponents
        .iter()
        .map(|&exp| {
            let servers = 1usize << exp;
            let total = estimate_round(
                &DeploymentSpec::paper_microblogging(servers, 500_000_000),
                costs,
            )
            .total_seconds();
            (servers, total, base / total)
        })
        .collect()
}

/// Prints Fig. 11.
pub fn print_fig11(costs: &PrimitiveCosts, server_exponents: &[u32]) {
    println!("Figure 11: simulated speed-up, one billion messages");
    println!(
        "{:<10} {:>16} {:>10}",
        "servers", "latency (hours)", "speed-up"
    );
    for (servers, total, speedup) in fig11(costs, server_exponents) {
        println!("{servers:<10} {:>16.1} {speedup:>10.2}", total / 3600.0);
    }
    println!("(paper: 2^10→483.6h ... 2^15→20.5h; sub-linear beyond ~2^13)");
}

/// Table 12: latency to support one million users, Atom vs the baselines.
pub struct Table12Row {
    /// System / configuration label.
    pub system: String,
    /// Microblogging latency in minutes (None where not applicable).
    pub microblog_minutes: Option<f64>,
    /// Dialing latency in minutes (None where not applicable).
    pub dial_minutes: Option<f64>,
}

/// Computes Table 12 using the calibrated deployment model and the baseline
/// cost models (PRG and hybrid-decryption throughput measured locally).
pub fn table12(costs: &PrimitiveCosts) -> Vec<Table12Row> {
    let users = 1_000_000u64;
    let mut rows = Vec::new();
    for servers in [128usize, 256, 512, 1024] {
        let micro = estimate_round(&DeploymentSpec::paper_microblogging(servers, users), costs)
            .total_seconds();
        let dial =
            estimate_round(&DeploymentSpec::paper_dialing(servers, users), costs).total_seconds();
        rows.push(Table12Row {
            system: format!("Atom {servers}x mixed"),
            microblog_minutes: Some(micro / 60.0),
            dial_minutes: Some(dial / 60.0),
        });
    }

    // Riposte: three 36-core machines; calibrate PRG throughput from the
    // measured shuffle cost (a conservative stand-in for AES throughput) or
    // use a typical 1 GB/s per core figure.
    let prg_bytes_per_second = 1.0e9;
    let riposte = riposte_latency_seconds(users, 160, prg_bytes_per_second, 36);
    rows.push(Table12Row {
        system: "Riposte 3x c4.8xlarge".into(),
        microblog_minutes: Some(riposte / 60.0),
        dial_minutes: None,
    });

    // Vuvuzela / Alpenhorn: three 36-core machines, ~50k hybrid ops/s/core.
    let hybrid_ops = 1.0 / costs.enc.max(1e-6);
    let vuvuzela = vuvuzela_latency_seconds(users, hybrid_ops.max(20_000.0), 3, 36);
    rows.push(Table12Row {
        system: "Vuvuzela/Alpenhorn 3x c4.8xlarge".into(),
        microblog_minutes: None,
        dial_minutes: Some(vuvuzela / 60.0),
    });
    rows
}

/// Prints Table 12.
pub fn print_table12(costs: &PrimitiveCosts) {
    println!("Table 12: latency to support one million users (minutes)");
    println!("{:<36} {:>12} {:>12}", "system", "microblog", "dialing");
    for row in table12(costs) {
        let micro = row
            .microblog_minutes
            .map(|m| format!("{m:.1}"))
            .unwrap_or_else(|| "-".into());
        let dial = row
            .dial_minutes
            .map(|m| format!("{m:.1}"))
            .unwrap_or_else(|| "-".into());
        println!("{:<36} {:>12} {:>12}", row.system, micro, dial);
    }
    println!("(paper: Atom 1024 = 28.2 min microblog, 23.7x faster than Riposte; Vuvuzela 56x faster than Atom for dialing)");
}

/// Fig. 13 (Appendix B): required group size vs required honest servers.
pub fn fig13(max_h: usize) -> Vec<(usize, usize)> {
    (1..=max_h)
        .map(|h| {
            let params = GroupSecurityParams::paper_defaults(h);
            (h, required_group_size(&params).expect("satisfiable"))
        })
        .collect()
}

/// Prints Fig. 13.
pub fn print_fig13(max_h: usize) {
    println!(
        "Figure 13: required group size k vs required honest servers h (f=0.2, G=1024, 2^-64)"
    );
    println!("{:<6} {:>6}", "h", "k");
    for (h, k) in fig13(max_h) {
        println!("{h:<6} {k:>6}");
    }
    println!("(paper: k=32 at h=1, rising to ~65-70 at h=20)");
}

/// Ablation: square vs iterated-butterfly topology for the same deployment
/// (per-group load × iterations gives the total work; butterfly needs
/// O(log² G) iterations).
pub fn ablation_topology(groups: usize) -> Vec<(&'static str, usize, usize)> {
    use atom_topology::network::{ButterflyNetwork, SquareNetwork, Topology};
    let square = SquareNetwork::paper_default(groups);
    let butterfly = ButterflyNetwork::for_groups(groups);
    vec![
        ("square", square.iterations(), square.branching_factor()),
        (
            "butterfly",
            butterfly.iterations(),
            butterfly.branching_factor(),
        ),
    ]
}

/// Prints the topology ablation.
pub fn print_ablation_topology(groups: usize) {
    println!("Ablation: topology choice at {groups} groups");
    println!("{:<12} {:>12} {:>10}", "topology", "iterations", "beta");
    for (name, iterations, beta) in ablation_topology(groups) {
        println!("{name:<12} {iterations:>12} {beta:>10}");
    }
    println!("(the square network's shallower depth is why the paper uses it)");
}

/// Ablation: per-iteration mixing time vs message length (number of group
/// elements per ciphertext).
pub fn ablation_msgsize(group_size: usize, messages: usize, lens: &[usize]) -> Vec<(usize, f64)> {
    use crate::fixtures::{bench_config, bench_setup, encrypted_batch};
    lens.iter()
        .map(|&len| {
            let mut config = bench_config(Defense::Trap, 2, group_size);
            config.message_len = len;
            let padded = crate::fixtures::payload_len(&config);
            let setup = bench_setup(&config);
            let group = setup.groups[0].clone();
            let batch = encrypted_batch(&group.public_key, messages, padded, &mut bench_rng());
            let participating = group.participating(&[]).unwrap();
            let start = Instant::now();
            group_mix_iteration(
                &group,
                &participating,
                batch,
                &[setup.groups[1].public_key],
                padded,
                &GroupStepOptions::new(Defense::Trap),
                None,
                &mut bench_rng(),
            )
            .expect("iteration");
            (len, start.elapsed().as_secs_f64())
        })
        .collect()
}

/// Prints the message-size ablation.
pub fn print_ablation_msgsize(group_size: usize, messages: usize, lens: &[usize]) {
    println!("Ablation: mixing-iteration time vs message length ({messages} messages, group of {group_size})");
    println!("{:<14} {:>14}", "message bytes", "seconds");
    for (len, seconds) in ablation_msgsize(group_size, messages, lens) {
        println!("{len:<14} {seconds:>14.3}");
    }
    println!("(paper §6.1: latency increases linearly with the message size)");
}

/// Parses a `--full` flag from the binary arguments.
pub fn full_mode() -> bool {
    std::env::args().any(|a| a == "--full")
}

/// A deterministic jitter helper for experiment labels (kept here so the
/// binaries stay dependency-free).
pub fn seeded_percent(seed: u64) -> f64 {
    let mut rng = bench_rng();
    let _ = seed;
    rng.gen_range(0.0..1.0)
}
