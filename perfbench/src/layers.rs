//! The traced run's per-layer rungs: timed calls into each layer's public
//! functions at the workload's shape, the transport wrapper's counters,
//! and the ledger that checks the rungs add up to the measured cost.

use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;

use atom_core::config::Defense;
use atom_core::directory::{derive_group, derive_setup, RoundSetup};
use atom_core::group::{group_mix_iteration, GroupStepOptions};
use atom_core::message::{nizk_payload_len, trap_payload_len};
use atom_crypto::batch::{
    fixed_base_table, verify_encryption_batch, verify_shuffle_batch, EncVerification,
    ShuffleVerification,
};
use atom_crypto::elgamal::{encrypt_message, reencrypt_message, shuffle};
use atom_crypto::encoding::encode_message_padded;
use atom_crypto::nizk::shuffle::prove_shuffle;
use atom_crypto::MessageCiphertext;
use atom_runtime::wire::{self, ClientSubmission, Frame, SubmitFrame};

use crate::mix::Shape;
use crate::trace::{self, NetStats, PrebuiltSubs};
use crate::util::{median, Metrics};

/// The workload shape the rungs are measured at.
pub struct LayerShape<'a> {
    /// The workload's directory (round 0).
    pub setup: RoundSetup,
    /// Ciphertexts one group mixes per iteration.
    pub batch: usize,
    /// Submissions as the workload's clients built them.
    pub sample: &'a PrebuiltSubs,
    /// A mix frame of the median size the workload sent, if one was seen.
    pub mix_frame: Option<Vec<u8>>,
}

/// Calls `f` until it ran at least `min_reps` times and for `budget`, at
/// most `max_reps` times; returns each call's time in µs. Each call is a
/// span named `name`.
fn bench<R>(
    name: &'static str,
    min_reps: usize,
    max_reps: usize,
    budget: Duration,
    mut f: impl FnMut() -> R,
) -> Vec<f64> {
    let parent = trace::new_id();
    let started = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < max_reps && (samples.len() < min_reps || started.elapsed() < budget) {
        let (value, took) = trace::timed(name, parent, &mut f);
        std::hint::black_box(value);
        samples.push(took.as_secs_f64() * 1e6);
    }
    trace::record(
        format!("{name} x{}", samples.len()),
        parent,
        0,
        started,
        Instant::now(),
    );
    samples
}

fn padded_len(defense: Defense, message_len: usize) -> usize {
    match defense {
        Defense::Trap => trap_payload_len(message_len),
        Defense::Nizk => nizk_payload_len(message_len),
    }
}

/// Fresh ciphertexts under `setup`'s group 0, shaped like the workload's.
fn fresh_batch(setup: &RoundSetup, n: usize, rng: &mut StdRng) -> Vec<MessageCiphertext> {
    let config = &setup.config;
    let len = padded_len(config.defense, config.message_len);
    let pk = &setup.groups[0].public_key;
    (0..n)
        .map(|i| {
            let payload = format!("layer rung {i}").into_bytes();
            let points = encode_message_padded(&payload, len).expect("encode payload");
            encrypt_message(pk, &points, rng).0
        })
        .collect()
}

/// Measures every rung at the workload's shape, recording spans.
pub fn measure(layer: &mut Metrics, shape: &LayerShape<'_>) {
    trace::set_tracing(true);
    let setup = &shape.setup;
    let config = &setup.config;
    let mut rng = StdRng::seed_from_u64(config.beacon_seed ^ 0x1A7E);
    let budget = Duration::from_millis(250);

    // core.directory
    let group_samples: Vec<f64> = (0..config.num_groups)
        .flat_map(|gid| {
            bench("directory.derive_group", 2, 20, budget / 4, || {
                derive_group(config, gid).expect("derive group")
            })
        })
        .collect();
    layer.put(
        "directory.derive_group_ms",
        "ms",
        "call",
        ms_of(group_samples),
    );
    let setup_samples = bench("directory.derive_setup", 3, 20, budget, || {
        derive_setup(config).expect("derive setup")
    });
    layer.put(
        "directory.derive_setup_ms",
        "ms",
        "call",
        ms_of(setup_samples),
    );

    // core.group, at the workload's k, batch and component count under
    // either defence.
    let group = &setup.groups[0];
    let participating = group.participating(&[]).expect("participating members");
    let next_keys: Vec<_> = config
        .topology()
        .neighbors(0, 0)
        .into_iter()
        .map(|g| setup.groups[g].public_key)
        .collect();
    let batch = fresh_batch(setup, shape.batch.max(2), &mut rng);
    let len = padded_len(config.defense, config.message_len);
    for (defense, name) in [
        (Defense::Trap, "group.step_us_per_msg.trap"),
        (Defense::Nizk, "group.step_us_per_msg.nizk"),
    ] {
        let options = GroupStepOptions::new(defense);
        let samples = bench("group.step", 2, 10, budget, || {
            group_mix_iteration(
                group,
                &participating,
                batch.clone(),
                &next_keys,
                len,
                &options,
                None,
                &mut rng,
            )
            .expect("group step")
        });
        let per_msg = samples.iter().map(|s| s / batch.len() as f64).collect();
        layer.put(name, "us", "call", per_msg);
    }

    // crypto
    let peel = group.shares[0].secret_share;
    let next = next_keys[0];
    let samples = bench("crypto.reencrypt_message", 20, 400, budget, || {
        reencrypt_message(&peel, Some(&next), &batch[0], &mut rng)
    });
    layer.put("crypto.reencrypt_message_us", "us", "call", samples);
    let pk = group.public_key;
    let samples = bench("crypto.shuffle", 3, 50, budget, || {
        shuffle(&pk, &batch, &mut rng).expect("shuffle")
    });
    layer.put(
        "crypto.shuffle_us_per_msg",
        "us",
        "call",
        samples.iter().map(|s| s / batch.len() as f64).collect(),
    );
    let _ = fixed_base_table(&pk.0);
    const LOOKUPS: usize = 1000;
    let samples = bench("crypto.fixed_base_table x1000", 10, 100, budget / 4, || {
        for _ in 0..LOOKUPS {
            std::hint::black_box(fixed_base_table(&pk.0));
        }
    });
    layer.put(
        "crypto.fixed_base_table_us",
        "us",
        "call",
        samples.iter().map(|s| s / LOOKUPS as f64).collect(),
    );
    let items = enc_items(setup, shape.sample);
    let samples = bench("crypto.verify_encryption_batch", 3, 50, budget, || {
        verify_encryption_batch(&items).expect("submissions verify")
    });
    layer.put("crypto.verify_encryption_batch_us", "us", "call", samples);
    layer.one(
        "crypto.verify_encryption_batch_items",
        "count",
        items.len() as f64,
    );
    let (outputs, witness) = shuffle(&pk, &batch, &mut rng).expect("shuffle");
    let samples = bench("crypto.prove_shuffle", 2, 20, budget, || {
        prove_shuffle(&pk, &batch, &outputs, &witness, &mut rng).expect("prove shuffle")
    });
    layer.put("crypto.prove_shuffle_us", "us", "call", samples);
    let mut stages = vec![batch.clone()];
    let mut proofs = Vec::new();
    for _ in 0..participating.len() {
        let inputs = stages.last().expect("seeded");
        let (out, witness) = shuffle(&pk, inputs, &mut rng).expect("shuffle");
        proofs.push(prove_shuffle(&pk, inputs, &out, &witness, &mut rng).expect("prove"));
        stages.push(out);
    }
    let chain: Vec<ShuffleVerification<'_>> = proofs
        .iter()
        .enumerate()
        .map(|(m, proof)| ShuffleVerification {
            pk: &pk,
            inputs: &stages[m],
            outputs: &stages[m + 1],
            proof,
        })
        .collect();
    let samples = bench("crypto.verify_shuffle_batch", 2, 20, budget, || {
        verify_shuffle_batch(&chain).expect("shuffle chain verifies")
    });
    layer.put("crypto.verify_shuffle_batch_us", "us", "call", samples);

    // runtime.wire, at the workload's median mix frame and its submission.
    let frame = shape.mix_frame.clone().unwrap_or_else(|| {
        let n = (shape.batch / config.num_groups).clamp(1, batch.len());
        wire::encode_mix(0, 1, 0, Duration::ZERO, &batch[..n])
    });
    let Ok(Frame::Mix(envelope)) = wire::decode(&frame) else {
        panic!("median mix frame does not decode");
    };
    let samples = bench("wire.encode_mix", 20, 2000, budget / 2, || {
        wire::encode_mix(
            envelope.round,
            envelope.iteration,
            envelope.from,
            envelope.sent_virtual,
            &envelope.batch,
        )
    });
    layer.put("wire.encode_mix_us", "us", "call", samples);
    let samples = bench("wire.decode_mix", 20, 2000, budget / 2, || {
        wire::decode(&frame).expect("decode mix")
    });
    layer.put("wire.decode_mix_us", "us", "call", samples);
    layer.one(
        "wire.mix_frame_ciphertexts",
        "count",
        envelope.batch.len() as f64,
    );
    let submit = wire::encode_submit(&SubmitFrame {
        round: 0,
        client: 0,
        app: 0,
        submission: match shape.sample {
            PrebuiltSubs::Nizk(v) => ClientSubmission::Nizk(v[0].clone()),
            PrebuiltSubs::Trap(v) => ClientSubmission::Trap(v[0].clone()),
        },
    });
    let samples = bench("wire.decode_submit", 20, 2000, budget / 2, || {
        wire::decode(&submit).expect("decode submit")
    });
    layer.put("wire.decode_submit_us", "us", "call", samples);
    trace::set_tracing(false);
}

fn ms_of(us: Vec<f64>) -> Vec<f64> {
    us.into_iter().map(|v| v / 1e3).collect()
}

/// The intake's proof checks for up to 64 of the workload's submissions.
fn enc_items<'a>(setup: &'a RoundSetup, sample: &'a PrebuiltSubs) -> Vec<EncVerification<'a>> {
    let item = |gid: usize, ciphertext, proof| EncVerification {
        pk: &setup.groups[gid].public_key,
        group_id: gid as u64,
        ciphertext,
        proof,
    };
    match sample {
        PrebuiltSubs::Nizk(v) => v
            .iter()
            .take(64)
            .map(|s| item(s.entry_group, &s.ciphertext, &s.proof))
            .collect(),
        PrebuiltSubs::Trap(v) => v
            .iter()
            .take(64)
            .flat_map(|s| (0..2).map(move |j| item(s.entry_group, &s.ciphertexts[j], &s.proofs[j])))
            .collect(),
    }
}

/// Proof checks intake runs per submission.
fn proofs_per_submission(defense: Defense) -> f64 {
    match defense {
        Defense::Trap => 2.0,
        Defense::Nizk => 1.0,
    }
}

/// The transport wrapper's counters as `net.*` metrics.
pub fn net_metrics(layer: &mut Metrics, net: &NetStats) {
    let sends = net.send_calls.load(Ordering::Relaxed);
    let drains = net.drain_calls.load(Ordering::Relaxed);
    layer.one("net.send_calls", "count", sends as f64);
    layer.one(
        "net.send_busy_ms",
        "ms",
        net.send_busy_ns.load(Ordering::Relaxed) as f64 / 1e6,
    );
    let send_us: Vec<f64> = net
        .send_ns
        .lock()
        .expect("send sample lock")
        .iter()
        .map(|&ns| ns as f64 / 1e3)
        .collect();
    layer.one("net.send_p50_us", "us", median(&send_us));
    layer.one("net.drain_calls", "count", drains as f64);
    layer.one(
        "net.drain_useful_ratio",
        "ratio",
        net.useful_drains.load(Ordering::Relaxed) as f64 / drains.max(1) as f64,
    );
    layer.one(
        "net.pending_max",
        "count",
        net.pending_max.load(Ordering::Relaxed) as f64,
    );
    layer.one(
        "net.threads_max",
        "count",
        net.threads_max.load(Ordering::Relaxed) as f64,
    );
}

/// The sampled mix frame of median length, if any was sampled.
pub fn median_mix_frame(net: &NetStats) -> Option<Vec<u8>> {
    let mut frames = net.mix_frames.lock().expect("frame sample lock").clone();
    frames.sort_by_key(Vec::len);
    frames.get(frames.len() / 2).cloned()
}

/// `ladder.residual_pct` for a mixing workload: the share of the measured
/// CPU per delivered message the rungs do not explain. Predicted per
/// message: intake proof checks + T group steps per routed ciphertext +
/// encode/decode of each mix frame + (sharded) the round's directory.
pub fn ladder_mixing(layer: &mut Metrics, shape: &Shape, measured_us: f64, ciphertexts: usize) {
    let verify_item = layer.value("crypto.verify_encryption_batch_us")
        / layer.value("crypto.verify_encryption_batch_items");
    let step = match shape.defense {
        Defense::Trap => layer.value("group.step_us_per_msg.trap"),
        Defense::Nizk => layer.value("group.step_us_per_msg.nizk"),
    };
    let frames = layer.value("engine.mix_envelopes_per_msg");
    let wire = layer.value("wire.encode_mix_us") + layer.value("wire.decode_mix_us");
    let directory = if shape.sharded {
        layer.value("directory.derive_setup_ms") * 1e3 / shape.per_round as f64
    } else {
        0.0
    };
    let predicted = proofs_per_submission(shape.defense) * verify_item
        + (shape.iterations * ciphertexts) as f64 * step
        + frames * wire
        + directory;
    layer.one("ladder.predicted_us_per_msg", "us", predicted);
    layer.one(
        "ladder.residual_pct",
        "%",
        100.0 * (1.0 - predicted / measured_us),
    );
}

/// Ingress metrics of a workload without an ingress tier.
pub fn zero_ingress(layer: &mut Metrics) {
    for (name, unit) in [
        ("ingress.offered", "count"),
        ("ingress.admitted", "count"),
        ("ingress.shed_rate", "count"),
        ("ingress.shed_queue", "count"),
        ("ingress.malformed", "count"),
        ("ingress.queue_depth_max", "count"),
        ("ingress.source_ms", "ms"),
        ("ingress.gen_lag_p99_ms", "ms"),
    ] {
        layer.one(name, unit, 0.0);
    }
}
