//! The recorded baseline for the recovery experiment (`BENCH_recovery.json`).
//!
//! The `recovery` bin runs a fleet through a kill → evict → heal → rejoin
//! cycle (see [`atom_runtime::fleet`]) and emits this file; the `fig_recovery` bin
//! reads it back and renders the healing timeline. As with the scaling
//! baseline, emitter and parser live together and round-trip under unit
//! test — the offline build vendors a no-op `serde`, so the JSON is written
//! and scanned by hand.

/// What one recovered fleet run measured: the deployment shape, the churn
/// history, and the two paper-facing numbers — detection-to-healed-round
/// latency and the healed rounds' throughput.
#[derive(Clone, Debug, PartialEq)]
pub struct RecoveryBaseline {
    /// OS processes in the deployment (coordinator included).
    pub processes: usize,
    /// Anytrust groups.
    pub groups: usize,
    /// Rounds in the workload.
    pub rounds: usize,
    /// Submissions per round.
    pub messages: usize,
    /// Mixing iterations per round.
    pub iterations: usize,
    /// Rounds per batch (re-formation / readmission boundary spacing).
    pub batch: usize,
    /// Assumed honest members per group (`h`); `h − 1` losses heal by
    /// Lagrange reweighting, deeper losses via buddy escrow.
    pub honest: usize,
    /// Processes evicted over the run.
    pub evictions: usize,
    /// Processes readmitted after a restart.
    pub rejoins: usize,
    /// Batch attempts (plan/ack/go handshakes) the run took.
    pub epochs: usize,
    /// Fault detection → completion of the first round finished after
    /// detection, milliseconds: the recovery latency.
    pub detection_to_healed_ms: f64,
    /// Delivered messages per wall-clock second across the whole recovered
    /// run — churn, retries and healing included.
    pub msgs_per_sec: f64,
    /// Delivered messages per second counting only rounds completed after
    /// the first detection (the healed fleet's throughput).
    pub healed_msgs_per_sec: f64,
    /// Wall clock of the whole run, milliseconds.
    pub wall_ms: f64,
}

impl RecoveryBaseline {
    /// The canonical `BENCH_recovery.json` serialization (stable field
    /// order, readable diffs).
    pub fn to_json(&self) -> String {
        format!(
            "{{\n  \"processes\": {},\n  \"groups\": {},\n  \"rounds\": {},\n  \
             \"messages\": {},\n  \"iterations\": {},\n  \"batch\": {},\n  \
             \"honest\": {},\n  \"evictions\": {},\n  \"rejoins\": {},\n  \
             \"epochs\": {},\n  \"detection_to_healed_ms\": {:.1},\n  \
             \"msgs_per_sec\": {:.1},\n  \"healed_msgs_per_sec\": {:.1},\n  \
             \"wall_ms\": {:.1},\n  \"transport\": \"tcp-loopback\"\n}}\n",
            self.processes,
            self.groups,
            self.rounds,
            self.messages,
            self.iterations,
            self.batch,
            self.honest,
            self.evictions,
            self.rejoins,
            self.epochs,
            self.detection_to_healed_ms,
            self.msgs_per_sec,
            self.healed_msgs_per_sec,
            self.wall_ms,
        )
    }

    /// Parses what [`RecoveryBaseline::to_json`] wrote. Tolerant of
    /// whitespace, intolerant of missing fields.
    pub fn parse(json: &str) -> Result<Self, String> {
        Ok(Self {
            processes: field_num(json, "processes")? as usize,
            groups: field_num(json, "groups")? as usize,
            rounds: field_num(json, "rounds")? as usize,
            messages: field_num(json, "messages")? as usize,
            iterations: field_num(json, "iterations")? as usize,
            batch: field_num(json, "batch")? as usize,
            honest: field_num(json, "honest")? as usize,
            evictions: field_num(json, "evictions")? as usize,
            rejoins: field_num(json, "rejoins")? as usize,
            epochs: field_num(json, "epochs")? as usize,
            detection_to_healed_ms: field_num(json, "detection_to_healed_ms")?,
            msgs_per_sec: field_num(json, "msgs_per_sec")?,
            healed_msgs_per_sec: field_num(json, "healed_msgs_per_sec")?,
            wall_ms: field_num(json, "wall_ms")?,
        })
    }
}

/// The first number following `"key":` in `text`.
fn field_num(text: &str, key: &str) -> Result<f64, String> {
    let pattern = format!("\"{key}\":");
    let at = text
        .find(&pattern)
        .ok_or_else(|| format!("missing field {key}"))?;
    let rest = text[at + pattern.len()..].trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || matches!(c, '.' | '-' | '+' | 'e' | 'E')))
        .unwrap_or(rest.len());
    rest[..end]
        .parse::<f64>()
        .map_err(|error| format!("field {key}: {error}"))
}

/// Renders the healing timeline from a recorded baseline: deployment
/// shape, churn history, and the latency/throughput of the healed fleet
/// next to the overall run.
pub fn print_fig_recovery(baseline: &RecoveryBaseline) {
    println!(
        "fig_recovery: eviction and rejoin under churn — {} processes, \
         {} groups, {} rounds x {} messages (batch {}, h = {})",
        baseline.processes,
        baseline.groups,
        baseline.rounds,
        baseline.messages,
        baseline.batch,
        baseline.honest
    );
    println!(
        "  churn: {} eviction(s), {} rejoin(s), {} epoch(s) to finish {} rounds",
        baseline.evictions, baseline.rejoins, baseline.epochs, baseline.rounds
    );
    println!(
        "  detection → first healed round: {:>8.1} ms",
        baseline.detection_to_healed_ms
    );
    println!("  {:>22} {:>12}", "", "msgs/sec");
    let widest = baseline.msgs_per_sec.max(baseline.healed_msgs_per_sec);
    for (label, value) in [
        ("whole run (w/ churn)", baseline.msgs_per_sec),
        ("healed rounds only", baseline.healed_msgs_per_sec),
    ] {
        let bar = if widest > 0.0 {
            "#".repeat(((value / widest) * 40.0).round() as usize)
        } else {
            String::new()
        };
        println!("  {label:>22} {value:>12.1} {bar}");
    }
    println!(
        "  wall clock: {:.1} ms — a fleet that heals keeps delivering; the \
         pre-recovery harness would have failed every round after the kill",
        baseline.wall_ms
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> RecoveryBaseline {
        RecoveryBaseline {
            processes: 3,
            groups: 3,
            rounds: 6,
            messages: 12,
            iterations: 2,
            batch: 2,
            honest: 2,
            evictions: 1,
            rejoins: 1,
            epochs: 5,
            detection_to_healed_ms: 412.5,
            msgs_per_sec: 88.0,
            healed_msgs_per_sec: 120.5,
            wall_ms: 818.2,
        }
    }

    #[test]
    fn json_round_trips() {
        let baseline = sample();
        let parsed = RecoveryBaseline::parse(&baseline.to_json()).expect("parse own output");
        assert_eq!(parsed, baseline);
    }

    #[test]
    fn parse_rejects_truncated_files() {
        let json = sample().to_json();
        assert!(RecoveryBaseline::parse(&json[..json.len() / 3]).is_err());
        assert!(RecoveryBaseline::parse("{}").is_err());
    }
}
