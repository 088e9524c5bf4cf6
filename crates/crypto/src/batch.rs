//! The batched public-key engine: fixed-base tables, multi-exponentiation
//! and random-linear-combination (RLC) batch proof verification.
//!
//! Modular exponentiation dominates Atom's cost model — every submission
//! carries NIZK proofs and every mixing hop re-encrypts — so this module
//! concentrates the three amortization layers the hot paths share:
//!
//! * **Fixed-base tables** ([`fixed_base_table`] / [`mul_fixed`]): 4-bit
//!   windows of `base^(j·16^i)` precomputed once per base, so a fixed-base
//!   exponentiation is at most 64 multiplies and *no squarings*. The group
//!   generator uses the process-wide
//!   [`RISTRETTO_BASEPOINT_TABLE`](curve25519_dalek::constants); other
//!   heavily reused bases (each round's DKG group public keys, the Pedersen
//!   blinding generator) go through a small keyed cache here. A table costs
//!   ~15·64 multiplies to build and pays for itself after three or four
//!   uses; round keys are reused thousands of times.
//!
//! * **Multi-exponentiation** ([`multiscalar_mul`]): the two-term checks of
//!   `ReEncProof`/`ShufProof` verification and the big RLC combinations
//!   below share a single squaring chain across all terms. Small products
//!   use Straus/Shamir interleaving (4-bit windows); past the backend's
//!   `PIPPENGER_CUTOFF` the vendored `multi_pow` switches to the Pippenger
//!   bucket method, whose per-term cost keeps shrinking as the combined
//!   shuffle-chain products grow into the thousands of terms. Subtractions
//!   are folded in as negated scalar coefficients, which also eliminates
//!   the per-`Sub` Fermat inversion of the vendored group (`a − b` costs a
//!   full inverse exponentiation there).
//!
//! * **RLC batch verification** ([`verify_encryption_batch`],
//!   [`verify_reencryption_batch`], [`verify_shuffle_batch`]): N
//!   Schnorr-style proof equations `LHS_e = RHS_e` collapse into the single
//!   check `Σ_e ρ_e·LHS_e = Σ_e ρ_e·RHS_e`, evaluated as one fixed-base
//!   multiplication plus one multi-exponentiation. For shuffle proofs the
//!   combination spans *all* equations of *all* proofs of a group step's
//!   shuffle chain (~5n per proof), so the multi-exponentiation routinely
//!   exceeds the Pippenger crossover of the backend's `multi_pow`.
//!
//! ## Soundness of the RLC combination
//!
//! The coefficients `ρ_e` are derived from a SHAKE256 Fiat-Shamir
//! transcript that absorbs every per-proof challenge and response before
//! the first coefficient is squeezed, so a prover must commit to all
//! equations before learning any `ρ_e`. If some equation has error
//! `Δ_e = LHS_e − RHS_e ≠ 0`, the combined check passes only when
//! `Σ_e ρ_e·Δ_e = 0`; with the coefficients uniform 128-bit values
//! (modelling the sponge as a random oracle) that event has probability
//! `2^-128` per batch — the standard small-exponent batching trade-off,
//! which halves the multi-exponentiation window walks for the `ρ_e`-only
//! terms. Batch acceptance therefore implies per-proof acceptance except
//! with negligible probability, and batch **rejection** automatically falls
//! back to per-proof verification, so callers always receive the *same*
//! verdict — including which proof (and hence which server, for blame
//! assignment in `atom-core`) failed — as the sequential verifier.
//!
//! ## Algorithm choices
//!
//! * Window size 4: with 254-bit exponents, w = 4 minimizes
//!   `16·2^w + 256/w·(1 + 2^w⁻¹/2^w)`-style cost for both the one-shot and
//!   precomputed cases, and keeps tables at 512 bytes per base row.
//! * The moduli have the special form `2^k − c`, so field multiplication
//!   reduces by folding (`2^256 ≡ c`): ~20 word multiplies, against the
//!   ~36 of Montgomery REDC.
//! * Leading zero windows are skipped (`U256::bits`), so short exponents
//!   (Lagrange indices, Feldman evaluation points) cost proportionally
//!   less.

use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

use atom_obs::Counter;
use curve25519_dalek::constants::RISTRETTO_BASEPOINT_TABLE;
use curve25519_dalek::ristretto::{RistrettoBasepointTable, RistrettoPoint};
use curve25519_dalek::scalar::Scalar;
use parking_lot::Mutex;

use crate::elgamal::{MessageCiphertext, PublicKey};
use crate::error::{CryptoError, CryptoResult};
use crate::nizk::enc::{self, EncProof};
use crate::nizk::reenc::{self, ReEncProof, ReEncStatement};
use crate::nizk::shuffle::{self, ShuffleProof};
use crate::transcript::Transcript;

/// Entries kept in the fixed-base table cache before it is flushed. Keys are
/// per-round, so steady state holds one table per live group key; the cap
/// only bounds pathological key churn (e.g. key-per-message tests).
const TABLE_CACHE_CAP: usize = 64;

/// Table-cache lookups that found an existing window table.
static TABLE_CACHE_HITS: Counter = Counter::new("crypto.table_cache.hits");
/// Table-cache lookups that had to build a fresh window table.
static TABLE_CACHE_MISSES: Counter = Counter::new("crypto.table_cache.misses");
/// Fixed-base scalar multiplications served through [`mul_fixed`].
static FIXED_BASE_CALLS: Counter = Counter::new("crypto.fixed_base.calls");
/// Multi-exponentiation invocations ([`multiscalar_mul`]).
static MULTIEXP_CALLS: Counter = Counter::new("crypto.multiexp.calls");
/// Total terms fed into multi-exponentiations (pre-coalescing).
static MULTIEXP_TERMS: Counter = Counter::new("crypto.multiexp.terms");
/// RLC-batched `EncProof` verification calls.
static VERIFY_ENC_BATCHES: Counter = Counter::new("crypto.verify_enc.batches");
/// Individual `EncProof`s covered by batched verification calls.
static VERIFY_ENC_ITEMS: Counter = Counter::new("crypto.verify_enc.items");
/// `EncProof` batches whose RLC check missed and fell back per-proof.
static VERIFY_ENC_FALLBACKS: Counter = Counter::new("crypto.verify_enc.fallbacks");
/// RLC-batched `ReEncProof` verification calls.
static VERIFY_REENC_BATCHES: Counter = Counter::new("crypto.verify_reenc.batches");
/// Individual `ReEncProof`s covered by batched verification calls.
static VERIFY_REENC_ITEMS: Counter = Counter::new("crypto.verify_reenc.items");
/// `ReEncProof` batches whose RLC check missed and fell back per-proof.
static VERIFY_REENC_FALLBACKS: Counter = Counter::new("crypto.verify_reenc.fallbacks");
/// RLC-batched `ShuffleProof` verification calls.
static VERIFY_SHUF_BATCHES: Counter = Counter::new("crypto.verify_shuffle.batches");
/// Individual `ShuffleProof`s covered by batched verification calls.
static VERIFY_SHUF_ITEMS: Counter = Counter::new("crypto.verify_shuffle.items");
/// `ShuffleProof` batches whose RLC check missed and fell back per-proof.
static VERIFY_SHUF_FALLBACKS: Counter = Counter::new("crypto.verify_shuffle.fallbacks");

fn table_cache() -> &'static Mutex<HashMap<[u8; 32], Arc<RistrettoBasepointTable>>> {
    static CACHE: OnceLock<Mutex<HashMap<[u8; 32], Arc<RistrettoBasepointTable>>>> =
        OnceLock::new();
    CACHE.get_or_init(|| Mutex::new(HashMap::new()))
}

/// The shared precomputed window table for `point`, building and caching it
/// on first use. The window build itself happens lazily outside the cache
/// lock, so concurrent callers never serialize on table construction.
pub fn fixed_base_table(point: &RistrettoPoint) -> Arc<RistrettoBasepointTable> {
    let key = point.compress().to_bytes();
    let mut cache = table_cache().lock();
    if let Some(table) = cache.get(&key) {
        TABLE_CACHE_HITS.add(1);
        return table.clone();
    }
    TABLE_CACHE_MISSES.add(1);
    if cache.len() >= TABLE_CACHE_CAP {
        // Evict a single arbitrary entry rather than flushing the map: with
        // more live bases than the cap, a full flush would degenerate into
        // a table build per use — worse than no cache at all.
        if let Some(evict) = cache.keys().next().copied() {
            cache.remove(&evict);
        }
    }
    let table = Arc::new(RistrettoBasepointTable::create(point));
    cache.insert(key, table.clone());
    table
}

/// Fixed-base scalar multiplication `scalar · point` through the cached
/// window table for `point`.
pub fn mul_fixed(point: &RistrettoPoint, scalar: &Scalar) -> RistrettoPoint {
    FIXED_BASE_CALLS.add(1);
    fixed_base_table(point).mul_scalar(scalar)
}

/// `Σ scalars[k] · points[k]` by Straus/Shamir interleaving (one shared
/// doubling chain). Duplicate points are coalesced by summing their
/// coefficients first, which matters for batches whose statements share
/// bases (every re-encryption proof of a sub-batch names the same peeling
/// key and next-group key).
pub fn multiscalar_mul(scalars: &[Scalar], points: &[RistrettoPoint]) -> RistrettoPoint {
    debug_assert_eq!(scalars.len(), points.len());
    MULTIEXP_CALLS.add(1);
    MULTIEXP_TERMS.add(scalars.len() as u64);
    let mut index: HashMap<RistrettoPoint, usize> = HashMap::with_capacity(points.len());
    let mut unique_points: Vec<RistrettoPoint> = Vec::with_capacity(points.len());
    let mut coefficients: Vec<Scalar> = Vec::with_capacity(points.len());
    for (scalar, point) in scalars.iter().zip(points.iter()) {
        match index.get(point) {
            Some(&slot) => coefficients[slot] += scalar,
            None => {
                index.insert(*point, unique_points.len());
                unique_points.push(*point);
                coefficients.push(*scalar);
            }
        }
    }
    RistrettoPoint::multiscalar_mul(&coefficients, &unique_points)
}

/// Batched scalar inversion (Montgomery's trick): one Fermat exponentiation
/// for the whole slice. Panics on zero, like `Scalar::invert`.
pub fn batch_invert(scalars: &[Scalar]) -> Vec<Scalar> {
    Scalar::batch_invert(scalars)
}

/// Draws a 128-bit RLC coefficient from the transcript (see the module docs
/// for the soundness trade-off).
pub(crate) fn rlc_coefficient(transcript: &mut Transcript, label: &'static [u8]) -> Scalar {
    let mut bytes = [0u8; 32];
    transcript.challenge_bytes(label, &mut bytes[..16]);
    Scalar::from_bytes_mod_order(bytes)
}

/// One `EncProof` verification instance for [`verify_encryption_batch`].
pub struct EncVerification<'a> {
    /// The entry group's public key the proof is bound to.
    pub pk: &'a PublicKey,
    /// The entry group id the proof is bound to.
    pub group_id: u64,
    /// The submitted ciphertext.
    pub ciphertext: &'a MessageCiphertext,
    /// The proof of knowledge of the encryption randomness.
    pub proof: &'a EncProof,
}

/// Verifies a batch of `EncProof`s with one RLC check, falling back to
/// per-proof verification when the combined check rejects. `Err((i, e))`
/// identifies the first item (in slice order) that fails individually —
/// exactly the verdict the sequential verifier would produce.
pub fn verify_encryption_batch(items: &[EncVerification<'_>]) -> Result<(), (usize, CryptoError)> {
    VERIFY_ENC_BATCHES.add(1);
    VERIFY_ENC_ITEMS.add(items.len() as u64);
    if items.len() > 1 && try_verify_encryption_rlc(items).is_ok() {
        return Ok(());
    }
    if items.len() > 1 {
        VERIFY_ENC_FALLBACKS.add(1);
    }
    // Single item, structural oddity, or combined-check rejection: decide
    // per proof so error identity matches the sequential path.
    for (i, item) in items.iter().enumerate() {
        enc::verify_encryption(item.pk, item.group_id, item.ciphertext, item.proof)
            .map_err(|e| (i, e))?;
    }
    Ok(())
}

/// The RLC fast path for `EncProof` batches: checks
/// `Σ ρ_{i,l}·u_{i,l} · B  ==  Σ ρ_{i,l}·A_{i,l} + Σ ρ_{i,l}·t_i·R_{i,l}`.
fn try_verify_encryption_rlc(items: &[EncVerification<'_>]) -> CryptoResult<()> {
    let mut rlc = Transcript::new(b"atom-batch-enc");
    let mut challenges = Vec::with_capacity(items.len());
    for item in items {
        let components = item.ciphertext.components.len();
        if item.proof.announcements.len() != components || item.proof.responses.len() != components
        {
            return Err(CryptoError::ProofInvalid("batch shape mismatch".into()));
        }
        if item.ciphertext.components.iter().any(|c| c.y.is_some()) {
            return Err(CryptoError::ProofInvalid(
                "batch contains a non-fresh ciphertext".into(),
            ));
        }
        // The per-proof Fiat-Shamir challenge already binds the statement
        // and announcements; absorbing it plus the responses commits the
        // whole equation before any ρ is squeezed.
        let challenge = enc::batch_challenge(item.pk, item.group_id, item.ciphertext, item.proof);
        rlc.append_scalar(b"challenge", &challenge);
        for response in &item.proof.responses {
            rlc.append_scalar(b"response", response);
        }
        challenges.push(challenge);
    }

    let mut basepoint_coeff = Scalar::ZERO;
    let mut scalars = Vec::new();
    let mut points = Vec::new();
    for (item, challenge) in items.iter().zip(challenges.iter()) {
        for ((component, announcement), response) in item
            .ciphertext
            .components
            .iter()
            .zip(item.proof.announcements.iter())
            .zip(item.proof.responses.iter())
        {
            let rho = rlc_coefficient(&mut rlc, b"rho");
            basepoint_coeff += rho * response;
            scalars.push(rho);
            points.push(*announcement);
            scalars.push(rho * challenge);
            points.push(component.r);
        }
    }

    let lhs = RISTRETTO_BASEPOINT_TABLE.mul_scalar(&basepoint_coeff);
    if lhs == multiscalar_mul(&scalars, &points) {
        Ok(())
    } else {
        Err(CryptoError::ProofInvalid(
            "batched EncProof check failed".into(),
        ))
    }
}

/// Verifies a batch of `ReEncProof`s with one RLC check, falling back to
/// per-proof verification when the combined check rejects. `Err((i, e))`
/// identifies the first statement/proof pair (in slice order) that fails
/// individually, so blame assignment localizes the same faulty server as
/// the sequential verifier.
pub fn verify_reencryption_batch(
    statements: &[ReEncStatement<'_>],
    proofs: &[ReEncProof],
) -> Result<(), (usize, CryptoError)> {
    assert_eq!(
        statements.len(),
        proofs.len(),
        "one proof per re-encryption statement"
    );
    VERIFY_REENC_BATCHES.add(1);
    VERIFY_REENC_ITEMS.add(statements.len() as u64);
    if statements.len() > 1 && try_verify_reencryption_rlc(statements, proofs).is_ok() {
        return Ok(());
    }
    if statements.len() > 1 {
        VERIFY_REENC_FALLBACKS.add(1);
    }
    for (i, (stmt, proof)) in statements.iter().zip(proofs.iter()).enumerate() {
        reenc::verify_reencryption(stmt, proof).map_err(|e| (i, e))?;
    }
    Ok(())
}

/// The RLC fast path for `ReEncProof` batches. Every per-proof relation is
/// rewritten with all terms on the multi-exponentiation side except the
/// basepoint contribution:
///
/// ```text
///   key:      ρ·rk · B = ρ·K + ρt·P
///   fresh:    ρ·rf · B = ρ·F + ρt·R' − ρt·R₀            (skipped when X' = ⊥)
///   payload:  0 · B     = ρ·Pay + ρt·c − ρt·c' − ρ·rk·Y₀ [+ ρ·rf·X']
/// ```
fn try_verify_reencryption_rlc(
    statements: &[ReEncStatement<'_>],
    proofs: &[ReEncProof],
) -> CryptoResult<()> {
    let mut rlc = Transcript::new(b"atom-batch-reenc");
    let mut prepared = Vec::with_capacity(statements.len());
    for (stmt, proof) in statements.iter().zip(proofs.iter()) {
        let views = reenc::check_structure(stmt)?;
        if proof.components.len() != stmt.input.components.len() {
            return Err(CryptoError::ProofInvalid("batch shape mismatch".into()));
        }
        let challenge = reenc::batch_challenge(stmt, proof);
        rlc.append_scalar(b"challenge", &challenge);
        rlc.append_scalar(b"response-key", &proof.response_key);
        for comp in &proof.components {
            rlc.append_scalar(b"response-fresh", &comp.response_fresh);
        }
        prepared.push((views, challenge));
    }

    let mut basepoint_coeff = Scalar::ZERO;
    let mut scalars = Vec::new();
    let mut points = Vec::new();
    for ((stmt, proof), (views, challenge)) in
        statements.iter().zip(proofs.iter()).zip(prepared.iter())
    {
        // Peeling-key relation.
        let rho = rlc_coefficient(&mut rlc, b"rho-key");
        basepoint_coeff += rho * proof.response_key;
        scalars.push(rho);
        points.push(proof.announce_key);
        scalars.push(rho * challenge);
        points.push(*stmt.peel_public);

        for (((inp, out), (r0, y0)), comp) in stmt
            .input
            .components
            .iter()
            .zip(stmt.output.components.iter())
            .zip(views.iter())
            .zip(proof.components.iter())
        {
            if let Some(next) = stmt.next_pk {
                // Fresh-randomness relation.
                let rho = rlc_coefficient(&mut rlc, b"rho-fresh");
                basepoint_coeff += rho * comp.response_fresh;
                scalars.push(rho);
                points.push(comp.announce_fresh);
                scalars.push(rho * challenge);
                points.push(out.r);
                scalars.push(-(rho * challenge));
                points.push(*r0);

                // Payload relation (with the X' term).
                let rho = rlc_coefficient(&mut rlc, b"rho-payload");
                scalars.push(rho);
                points.push(comp.announce_payload);
                scalars.push(rho * challenge);
                points.push(inp.c);
                scalars.push(-(rho * challenge));
                points.push(out.c);
                scalars.push(-(rho * proof.response_key));
                points.push(*y0);
                scalars.push(rho * comp.response_fresh);
                points.push(next.0);
            } else {
                // Payload relation for final decryption (X' = ⊥).
                let rho = rlc_coefficient(&mut rlc, b"rho-payload");
                scalars.push(rho);
                points.push(comp.announce_payload);
                scalars.push(rho * challenge);
                points.push(inp.c);
                scalars.push(-(rho * challenge));
                points.push(out.c);
                scalars.push(-(rho * proof.response_key));
                points.push(*y0);
            }
        }
    }

    let lhs = RISTRETTO_BASEPOINT_TABLE.mul_scalar(&basepoint_coeff);
    if lhs == multiscalar_mul(&scalars, &points) {
        Ok(())
    } else {
        Err(CryptoError::ProofInvalid(
            "batched ReEncProof check failed".into(),
        ))
    }
}

/// One `ShuffleProof` verification instance for [`verify_shuffle_batch`]:
/// the statement (group key, input batch, output batch) plus the proof.
pub struct ShuffleVerification<'a> {
    /// The group public key the shuffle rerandomizes under.
    pub pk: &'a PublicKey,
    /// The batch entering this member's shuffle.
    pub inputs: &'a [MessageCiphertext],
    /// The batch leaving it.
    pub outputs: &'a [MessageCiphertext],
    /// The member's shuffle proof.
    pub proof: &'a ShuffleProof,
}

/// Verifies a batch of `ShuffleProof`s — typically one per member of a
/// group's shuffle chain — with one combined RLC check, falling back to
/// per-proof verification when the combined check rejects. `Err((i, e))`
/// identifies the first item (in slice order) that fails individually, so
/// blame assignment localizes the same faulty server as verifying each
/// member's proof inline.
pub fn verify_shuffle_batch(items: &[ShuffleVerification<'_>]) -> Result<(), (usize, CryptoError)> {
    VERIFY_SHUF_BATCHES.add(1);
    VERIFY_SHUF_ITEMS.add(items.len() as u64);
    if items.len() > 1 && try_verify_shuffle_rlc(items).is_ok() {
        return Ok(());
    }
    if items.len() > 1 {
        VERIFY_SHUF_FALLBACKS.add(1);
    }
    // Single item, structural oddity, or combined-check rejection: decide
    // per proof so error identity matches the sequential path. (The single
    // item still takes its own intra-proof RLC fast path.)
    for (i, item) in items.iter().enumerate() {
        shuffle::verify_shuffle(item.pk, item.inputs, item.outputs, item.proof)
            .map_err(|e| (i, e))?;
    }
    Ok(())
}

/// The RLC fast path for `ShuffleProof` batches: every equation of every
/// proof joins one [`shuffle::RlcAccumulator`] combination, settled by a
/// single multiscalar multiplication across the whole chain. All challenges
/// and responses are absorbed before the first coefficient is squeezed.
fn try_verify_shuffle_rlc(items: &[ShuffleVerification<'_>]) -> CryptoResult<()> {
    let mut rlc = Transcript::new(shuffle::RLC_DOMAIN);
    rlc.append_u64(b"count", items.len() as u64);
    let mut challenges = Vec::with_capacity(items.len());
    for item in items {
        let ch = shuffle::replay_challenges(item.pk, item.inputs, item.outputs, item.proof)?;
        shuffle::absorb_proof(&mut rlc, &ch, item.proof);
        challenges.push(ch);
    }
    let mut acc = shuffle::RlcAccumulator::new();
    for (item, ch) in items.iter().zip(challenges.iter()) {
        acc.accumulate(&mut rlc, item.pk, item.inputs, item.outputs, item.proof, ch);
    }
    if acc.check() {
        Ok(())
    } else {
        Err(CryptoError::ProofInvalid(
            "batched ShuffleProof check failed".into(),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::elgamal::{encrypt_message, reencrypt_message, KeyPair};
    use crate::encoding::encode_message;
    use crate::nizk::enc::prove_encryption;
    use crate::nizk::reenc::prove_reencryption;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn fixed_base_cache_matches_direct_multiplication() {
        let mut rng = StdRng::seed_from_u64(1);
        let point = RistrettoPoint::random(&mut rng);
        for _ in 0..3 {
            let s = Scalar::random(&mut rng);
            assert_eq!(mul_fixed(&point, &s), s * point);
        }
    }

    #[test]
    fn counters_record_only_while_recording_is_enabled() {
        let mut rng = StdRng::seed_from_u64(77);
        let point = RistrettoPoint::random(&mut rng);
        let s = Scalar::random(&mut rng);

        // Disabled (the default): no counter movement at all.
        atom_obs::set_enabled(false);
        let before = FIXED_BASE_CALLS.get();
        mul_fixed(&point, &s);
        assert_eq!(FIXED_BASE_CALLS.get(), before);

        // Enabled: the same call is counted. Other tests in this binary may
        // run concurrently and also bump the counters, so assert growth
        // rather than exact deltas.
        atom_obs::set_enabled(true);
        let calls = FIXED_BASE_CALLS.get();
        let terms = MULTIEXP_TERMS.get();
        mul_fixed(&point, &s);
        multiscalar_mul(&[s, s], &[point, point]);
        assert!(FIXED_BASE_CALLS.get() > calls);
        assert!(MULTIEXP_TERMS.get() >= terms + 2);
        atom_obs::set_enabled(false);
    }

    #[test]
    fn coalescing_multiscalar_matches_naive_sum() {
        let mut rng = StdRng::seed_from_u64(2);
        let a = RistrettoPoint::random(&mut rng);
        let b = RistrettoPoint::random(&mut rng);
        let (s1, s2, s3) = (
            Scalar::random(&mut rng),
            Scalar::random(&mut rng),
            Scalar::random(&mut rng),
        );
        // `a` appears twice: coefficients must be summed, not dropped.
        let got = multiscalar_mul(&[s1, s2, s3], &[a, b, a]);
        assert_eq!(got, s1 * a + s2 * b + s3 * a);
    }

    fn enc_fixture(count: usize, seed: u64) -> (KeyPair, Vec<(MessageCiphertext, EncProof)>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let kp = KeyPair::generate(&mut rng);
        let items = (0..count)
            .map(|i| {
                let points = encode_message(format!("submission {i}").as_bytes()).unwrap();
                let (ct, randomness) = encrypt_message(&kp.public, &points, &mut rng);
                let proof = prove_encryption(&kp.public, 7, &ct, &randomness, &mut rng).unwrap();
                (ct, proof)
            })
            .collect();
        (kp, items)
    }

    #[test]
    fn enc_batch_accepts_iff_every_proof_accepts() {
        for seed in 0..4u64 {
            let (kp, items) = enc_fixture(5, 100 + seed);
            let refs: Vec<EncVerification<'_>> = items
                .iter()
                .map(|(ct, proof)| EncVerification {
                    pk: &kp.public,
                    group_id: 7,
                    ciphertext: ct,
                    proof,
                })
                .collect();
            let individually_ok = refs.iter().all(|item| {
                enc::verify_encryption(item.pk, item.group_id, item.ciphertext, item.proof).is_ok()
            });
            assert!(individually_ok);
            assert!(verify_encryption_batch(&refs).is_ok());
        }
    }

    #[test]
    fn enc_batch_with_one_corrupted_proof_names_its_index() {
        for corrupt in 0..5usize {
            let (kp, mut items) = enc_fixture(5, 42);
            items[corrupt].1.responses[0] += Scalar::ONE;
            let refs: Vec<EncVerification<'_>> = items
                .iter()
                .map(|(ct, proof)| EncVerification {
                    pk: &kp.public,
                    group_id: 7,
                    ciphertext: ct,
                    proof,
                })
                .collect();
            let (index, error) = verify_encryption_batch(&refs).unwrap_err();
            assert_eq!(index, corrupt);
            assert!(matches!(error, CryptoError::ProofInvalid(_)));
        }
    }

    #[test]
    fn enc_batch_rejects_wrong_group_id_binding() {
        let (kp, items) = enc_fixture(3, 43);
        let refs: Vec<EncVerification<'_>> = items
            .iter()
            .map(|(ct, proof)| EncVerification {
                pk: &kp.public,
                group_id: 8, // proved for 7
                ciphertext: ct,
                proof,
            })
            .collect();
        let (index, _) = verify_encryption_batch(&refs).unwrap_err();
        assert_eq!(index, 0);
    }

    struct ReEncFixture {
        server: KeyPair,
        next_pk: PublicKey,
        pairs: Vec<(MessageCiphertext, MessageCiphertext, ReEncProof)>,
    }

    fn reenc_fixture(count: usize, seed: u64, exit_layer: bool) -> ReEncFixture {
        let mut rng = StdRng::seed_from_u64(seed);
        let server = KeyPair::generate(&mut rng);
        let next = KeyPair::generate(&mut rng);
        let next_pk = next.public;
        let pairs = (0..count)
            .map(|i| {
                let points = encode_message(format!("hop {i}").as_bytes()).unwrap();
                let (input, _) = encrypt_message(&server.public, &points, &mut rng);
                let next_key = (!exit_layer).then_some(&next_pk);
                let (output, witnesses) =
                    reencrypt_message(&server.secret.0, next_key, &input, &mut rng);
                let stmt = ReEncStatement {
                    peel_public: &server.public.0,
                    next_pk: next_key,
                    input: &input,
                    output: &output,
                };
                let proof = prove_reencryption(&stmt, &witnesses, &mut rng).unwrap();
                (input, output, proof)
            })
            .collect();
        ReEncFixture {
            server,
            next_pk,
            pairs,
        }
    }

    fn statements<'a>(
        fixture: &'a ReEncFixture,
        exit_layer: bool,
    ) -> (Vec<ReEncStatement<'a>>, Vec<ReEncProof>) {
        let stmts = fixture
            .pairs
            .iter()
            .map(|(input, output, _)| ReEncStatement {
                peel_public: &fixture.server.public.0,
                next_pk: (!exit_layer).then_some(&fixture.next_pk),
                input,
                output,
            })
            .collect();
        let proofs = fixture.pairs.iter().map(|(_, _, p)| p.clone()).collect();
        (stmts, proofs)
    }

    #[test]
    fn reenc_batch_accepts_iff_every_proof_accepts() {
        for (seed, exit_layer) in [(7u64, false), (8, true)] {
            let fixture = reenc_fixture(4, seed, exit_layer);
            let (stmts, proofs) = statements(&fixture, exit_layer);
            for (stmt, proof) in stmts.iter().zip(proofs.iter()) {
                assert!(reenc::verify_reencryption(stmt, proof).is_ok());
            }
            assert!(verify_reencryption_batch(&stmts, &proofs).is_ok());
        }
    }

    #[test]
    fn reenc_batch_with_one_corrupted_proof_names_its_index() {
        for corrupt in 0..4usize {
            let fixture = reenc_fixture(4, 9, false);
            let (stmts, mut proofs) = statements(&fixture, false);
            proofs[corrupt].response_key += Scalar::ONE;
            let (index, error) = verify_reencryption_batch(&stmts, &proofs).unwrap_err();
            assert_eq!(index, corrupt);
            assert!(matches!(error, CryptoError::ProofInvalid(_)));
            // Per-proof agreement: the same index is the unique failure.
            for (i, (stmt, proof)) in stmts.iter().zip(proofs.iter()).enumerate() {
                assert_eq!(
                    reenc::verify_reencryption(stmt, proof).is_ok(),
                    i != corrupt
                );
            }
        }
    }

    #[test]
    fn reenc_batch_detects_tampered_component_announcement() {
        let mut rng = StdRng::seed_from_u64(10);
        let fixture = reenc_fixture(3, 11, false);
        let (stmts, mut proofs) = statements(&fixture, false);
        proofs[1].components[0].announce_payload = RistrettoPoint::random(&mut rng);
        let (index, _) = verify_reencryption_batch(&stmts, &proofs).unwrap_err();
        assert_eq!(index, 1);
    }

    #[test]
    fn property_batch_agrees_with_per_proof_over_random_corruptions() {
        // Randomized agreement sweep: corrupt a random proof field (or
        // nothing) and require batch verdict == sequential verdict.
        for seed in 0..12u64 {
            let mut rng = StdRng::seed_from_u64(900 + seed);
            let fixture = reenc_fixture(3, 300 + seed, seed % 2 == 0);
            let (stmts, mut proofs) = statements(&fixture, seed % 2 == 0);
            let corrupt = (seed as usize) % 4;
            if corrupt < 3 {
                match seed % 3 {
                    0 => proofs[corrupt].response_key += Scalar::ONE,
                    1 => {
                        proofs[corrupt].components[0].response_fresh += Scalar::ONE;
                    }
                    _ => {
                        proofs[corrupt].announce_key = RistrettoPoint::random(&mut rng);
                    }
                }
            }
            let sequential: Result<(), (usize, CryptoError)> = stmts
                .iter()
                .zip(proofs.iter())
                .enumerate()
                .try_for_each(|(i, (stmt, proof))| {
                    reenc::verify_reencryption(stmt, proof).map_err(|e| (i, e))
                });
            let batched = verify_reencryption_batch(&stmts, &proofs);
            match (&sequential, &batched) {
                (Ok(()), Ok(())) => {}
                (Err((i, _)), Err((j, _))) => assert_eq!(i, j, "seed {seed}"),
                other => panic!("verdicts diverge at seed {seed}: {other:?}"),
            }
        }
    }

    /// A `members`-stage shuffle chain (the shape `verify_shuffle_batch` is
    /// built for): stage `m` feeds member `m`'s shuffle, whose output is
    /// stage `m + 1`.
    fn shuffle_chain(
        rng: &mut StdRng,
        kp: &KeyPair,
        members: usize,
        count: usize,
    ) -> (Vec<Vec<MessageCiphertext>>, Vec<ShuffleProof>) {
        let initial: Vec<MessageCiphertext> = (0..count)
            .map(|i| {
                let points = encode_message(&[i as u8 + 1; 24]).unwrap();
                encrypt_message(&kp.public, &points, rng).0
            })
            .collect();
        let mut stages = vec![initial];
        let mut proofs = Vec::with_capacity(members);
        for _ in 0..members {
            let inputs = stages.last().unwrap();
            let (outputs, witness) = crate::elgamal::shuffle(&kp.public, inputs, rng).unwrap();
            let proof =
                shuffle::prove_shuffle(&kp.public, inputs, &outputs, &witness, rng).unwrap();
            stages.push(outputs);
            proofs.push(proof);
        }
        (stages, proofs)
    }

    fn chain_items<'a>(
        pk: &'a PublicKey,
        stages: &'a [Vec<MessageCiphertext>],
        proofs: &'a [ShuffleProof],
    ) -> Vec<ShuffleVerification<'a>> {
        proofs
            .iter()
            .enumerate()
            .map(|(m, proof)| ShuffleVerification {
                pk,
                inputs: &stages[m],
                outputs: &stages[m + 1],
                proof,
            })
            .collect()
    }

    fn sequential_shuffle_verdict(
        items: &[ShuffleVerification<'_>],
    ) -> Result<(), (usize, CryptoError)> {
        items.iter().enumerate().try_for_each(|(i, item)| {
            shuffle::verify_shuffle_sequential(item.pk, item.inputs, item.outputs, item.proof)
                .map_err(|e| (i, e))
        })
    }

    #[test]
    fn shuffle_batch_accepts_honest_chain_via_combined_rlc() {
        let mut rng = StdRng::seed_from_u64(50);
        let kp = KeyPair::generate(&mut rng);
        let (stages, proofs) = shuffle_chain(&mut rng, &kp, 3, 6);
        let items = chain_items(&kp.public, &stages, &proofs);
        // The combined check itself must accept — no hiding behind the
        // per-proof fallback.
        assert!(try_verify_shuffle_rlc(&items).is_ok());
        assert!(verify_shuffle_batch(&items).is_ok());
        // Degenerate batch sizes.
        assert!(verify_shuffle_batch(&[]).is_ok());
        assert!(verify_shuffle_batch(&items[..1]).is_ok());
    }

    #[test]
    fn shuffle_batch_with_one_tampered_proof_names_its_member() {
        for corrupt in 0..3usize {
            let mut rng = StdRng::seed_from_u64(51);
            let kp = KeyPair::generate(&mut rng);
            let (stages, mut proofs) = shuffle_chain(&mut rng, &kp, 3, 5);
            proofs[corrupt].response_final += Scalar::ONE;
            let items = chain_items(&kp.public, &stages, &proofs);
            let (index, error) = verify_shuffle_batch(&items).unwrap_err();
            assert_eq!(index, corrupt);
            assert!(matches!(error, CryptoError::ProofInvalid(_)));
            // Verdict-identical to the sequential path, message included.
            let (seq_index, seq_error) = sequential_shuffle_verdict(&items).unwrap_err();
            assert_eq!(index, seq_index);
            assert_eq!(format!("{error:?}"), format!("{seq_error:?}"));
        }
    }

    #[test]
    fn shuffle_batch_with_tampered_stage_blames_first_affected_member() {
        let mut rng = StdRng::seed_from_u64(52);
        let kp = KeyPair::generate(&mut rng);
        let (mut stages, proofs) = shuffle_chain(&mut rng, &kp, 3, 5);
        // Mauling stage 2 invalidates member 1's outputs (and member 2's
        // inputs); the first failing item in slice order is member 1 —
        // the verdict inline verification would reach.
        let g = crate::pedersen::CommitmentKey::atom().g;
        stages[2][3].components[0].c += g;
        let items = chain_items(&kp.public, &stages, &proofs);
        let (index, error) = verify_shuffle_batch(&items).unwrap_err();
        assert_eq!(index, 1);
        let (seq_index, seq_error) = sequential_shuffle_verdict(&items).unwrap_err();
        assert_eq!(index, seq_index);
        assert_eq!(format!("{error:?}"), format!("{seq_error:?}"));
    }

    #[test]
    fn shuffle_batch_rejects_wrong_shapes_and_duplicate_proofs() {
        let mut rng = StdRng::seed_from_u64(53);
        let kp = KeyPair::generate(&mut rng);
        let (stages, proofs) = shuffle_chain(&mut rng, &kp, 3, 5);

        // Truncated inputs: shape error, attributed to the malformed item.
        let mut items = chain_items(&kp.public, &stages, &proofs);
        items[1].inputs = &stages[1][..3];
        let (index, error) = verify_shuffle_batch(&items).unwrap_err();
        assert_eq!(index, 1);
        assert!(matches!(error, CryptoError::Parameter(_)));

        // A proof replayed for the wrong link of the chain.
        let mut items = chain_items(&kp.public, &stages, &proofs);
        items[2].proof = &proofs[0];
        let (index, _) = verify_shuffle_batch(&items).unwrap_err();
        assert_eq!(index, 2);

        // The same (valid) proof presented twice for the same link still
        // verifies per item; duplicating the *item* must not confuse blame
        // when one copy is broken.
        let mut dup_proofs = [proofs[0].clone(), proofs[0].clone()];
        dup_proofs[1].response_final += Scalar::ONE;
        let dup_items: Vec<ShuffleVerification<'_>> = dup_proofs
            .iter()
            .map(|proof| ShuffleVerification {
                pk: &kp.public,
                inputs: &stages[0],
                outputs: &stages[1],
                proof,
            })
            .collect();
        let (index, _) = verify_shuffle_batch(&dup_items).unwrap_err();
        assert_eq!(index, 1);
    }

    #[test]
    fn property_shuffle_batch_agrees_with_per_proof_over_random_corruptions() {
        for seed in 0..10u64 {
            let mut rng = StdRng::seed_from_u64(700 + seed);
            let kp = KeyPair::generate(&mut rng);
            let (mut stages, mut proofs) = shuffle_chain(&mut rng, &kp, 3, 4);
            let corrupt = (seed as usize) % 4;
            if corrupt < 3 {
                match seed % 3 {
                    0 => proofs[corrupt].response_powers[0] += Scalar::ONE,
                    1 => {
                        proofs[corrupt].announce_rand[0] = RistrettoPoint::random(&mut rng);
                    }
                    _ => {
                        let g = crate::pedersen::CommitmentKey::atom().g;
                        stages[corrupt + 1][0].components[0].r += g;
                    }
                }
            }
            let items = chain_items(&kp.public, &stages, &proofs);
            let sequential = sequential_shuffle_verdict(&items);
            let batched = verify_shuffle_batch(&items);
            match (&sequential, &batched) {
                (Ok(()), Ok(())) => {}
                (Err((i, ei)), Err((j, ej))) => {
                    assert_eq!(i, j, "seed {seed}");
                    assert_eq!(format!("{ei:?}"), format!("{ej:?}"), "seed {seed}");
                }
                other => panic!("verdicts diverge at seed {seed}: {other:?}"),
            }
        }
    }
}
