#ifndef ORION_SRC_CORE_EXECUTOR_H_
#define ORION_SRC_CORE_EXECUTOR_H_

/**
 * @file
 * Execution backends for compiled networks.
 *
 * SimExecutor runs the instruction stream functionally (cleartext values,
 * polynomial activation approximations, injected bootstrap noise) while
 * charging the analytic cost model and tracking levels exactly - this is
 * how ImageNet-scale rows of Table 2 are produced. CkksExecutor runs the
 * same instruction stream under real RNS-CKKS encryption end to end.
 *
 * CkksExecutor has two key modes. Both run the same instruction walk, and
 * bootstrap instructions always run as the public-key circuit under the
 * bound evaluation keys:
 *  - self-keyed: the executor generates its own secret, so it can also
 *    encrypt inputs and decrypt outputs. This is the single-party mode
 *    used by tests, benches, and the paper's tables.
 *  - external-key (serving): the executor holds only a client's evaluation
 *    keys (relinearization + Galois). It can run run_encrypted() -
 *    ciphertexts in, ciphertexts out - but never sees a secret key.
 * The expensive key-independent preparation (encoded diagonals, bias
 * plaintexts, resolved scales, bootstrap circuits) lives in a shared
 * PreparedProgram so a pool of executors amortizes it across sessions.
 */

#include <memory>
#include <optional>

#include "src/ckks/ckks.h"
#include "src/core/compiler.h"
#include "src/core/config.h"

namespace orion::core {

/**
 * Wall-clock attribution of one network layer: consecutive program
 * instructions with the same Instruction::layer_id merge into one entry
 * (execution order is preserved), so the vector reads as the paper's
 * Table-4-style per-layer breakdown. layer_id -1 is compiler glue
 * (scales, residual adds) outside any frontend layer.
 */
struct LayerTiming {
    int layer_id = -1;
    double seconds = 0.0;
};

/** Outcome of one inference. */
struct ExecutionResult {
    std::vector<double> output;    ///< logical network output (de-normalized)
    double modeled_latency = 0.0;  ///< cost-model seconds
    double wall_seconds = 0.0;     ///< measured wall-clock seconds
    u64 bootstraps = 0;
    u64 rotations = 0;
    u64 pmults = 0;
    std::vector<LayerTiming> layer_times;
};

/** Outcome of one encrypted-domain inference (serving path). */
struct EncryptedResult {
    std::vector<ckks::Ciphertext> outputs;  ///< still encrypted
    double wall_seconds = 0.0;
    u64 bootstraps = 0;
    u64 rotations = 0;
    u64 pmults = 0;
    std::vector<LayerTiming> layer_times;
};

/**
 * Optional per-instruction observer: receives the instruction and the
 * (logical/decrypted) slot values it produced. Used by integration tests
 * to localize divergence between backends.
 */
using InspectFn =
    std::function<void(const Instruction&, const std::vector<double>&)>;

/** Functional simulation backend. */
class SimExecutor {
  public:
    explicit SimExecutor(const CompiledNetwork& cn,
                         double bootstrap_noise_std = 1e-6, u64 seed = 5);

    ExecutionResult run(const std::vector<double>& input);

    InspectFn inspect;  ///< optional per-instruction observer

  private:
    const CompiledNetwork* cn_;
    double noise_std_;
    ckks::Sampler noise_;
};

/**
 * Key-independent prepared payloads of a compiled program: every linear
 * layer's matrix diagonals encoded at their assigned levels and repair
 * scales (Figure 7), bias plaintexts, the symbolic scale resolution, and
 * — when the program bootstraps — the public-key bootstrap circuit
 * (ckks::BootstrapCircuit), one encoded variant per distinct symbolic
 * input scale. Immutable after construction and safe to share
 * (read-only) across any number of concurrently running executors; the
 * program must have been compiled with matrices (structural_only =
 * false). Construction fails (see bootstrap_plan_for) when the program
 * bootstraps on a chain too short for the circuit, so every executor
 * and server built on it can run every instruction.
 */
class PreparedProgram {
  public:
    PreparedProgram(const CompiledNetwork& cn, const ckks::Context& ctx);

    const CompiledNetwork& network() const { return *cn_; }
    const ckks::Context& context() const { return *ctx_; }

    /**
     * Rotation-key requirements of the whole program: the linear layers'
     * level-pruned steps plus (when bootstrapping) the circuit's steps.
     * With needs_conjugation()/conjugation_level(), exactly the bundle a
     * client must provide — nothing more is ever generated.
     */
    std::vector<ckks::GaloisKeyRequest> galois_requests() const;
    bool needs_conjugation() const { return cn_->num_bootstraps > 0; }
    int conjugation_level() const;

  private:
    friend class CkksExecutor;

    /** The prepared circuit for bootstrap instruction idx. */
    const ckks::BootstrapCircuit* circuit_for(std::size_t idx) const;

    const CompiledNetwork* cn_;
    const ckks::Context* ctx_;
    // Prepared payloads, indexed like cn_->program.
    std::vector<std::shared_ptr<lin::HeBlockedMatrix>> prepared_;
    std::vector<std::vector<ckks::Plaintext>> bias_;
    std::vector<double> in_scale_;    ///< per-instruction input scale
    std::vector<double> act_target_;  ///< per-activation target scale
    // Bootstrap support (empty / null for bootstrap-free programs). The
    // plan is the process-wide memoized one (BootstrapPlan::cached);
    // circuit variants share it rather than copying its stage matrices.
    std::shared_ptr<const ckks::BootstrapPlan> boot_plan_;
    std::vector<std::unique_ptr<const ckks::BootstrapCircuit>>
        boot_circuits_;               ///< one per distinct input scale
    std::vector<int> boot_circuit_of_;  ///< per-instruction index, or -1
};

/**
 * The bootstrap circuit plan a compiled program runs on a context: null
 * for bootstrap-free programs, otherwise the process-wide memoized
 * ckks::BootstrapPlan. Throws when the chain is too short for the
 * circuit (it needs l_eff + l_boot levels), naming the first bootstrap
 * instruction, l_eff, l_boot and the chain's max level. The one check
 * behind Session::compile, PreparedProgram and required_galois.
 */
std::shared_ptr<const ckks::BootstrapPlan> bootstrap_plan_for(
    const CompiledNetwork& cn, const ckks::Context& ctx);

/**
 * The Galois-key requirements of serving a compiled program on a given
 * context: the program's level-pruned rotation steps plus, for
 * bootstrap-bearing programs, the bootstrap circuit's steps and
 * conjugation. A pure function of (cn, ctx.params), so a client and a
 * server derive identical sets independently — and keygen generates
 * *only* this union, nothing speculative.
 */
struct GaloisRequirements {
    std::vector<ckks::GaloisKeyRequest> requests;
    bool conjugation = false;
    int conjugation_level = -1;
};
GaloisRequirements required_galois(const CompiledNetwork& cn,
                                   const ckks::Context& ctx);

/**
 * Packs up to CompiledNetwork::batch samples into their slot lanes and
 * encrypts them exactly as the program's kInput instruction expects
 * (normalization, layout packing, level, scale). The program executes
 * once for the whole batch; one sample is the batch of one. Shared by
 * CkksExecutor and the serving client.
 */
std::vector<ckks::Ciphertext> encrypt_network_input(
    const CompiledNetwork& cn, const ckks::Context& ctx,
    const ckks::Encoder& encoder, ckks::Encryptor& encryptor,
    const std::vector<std::vector<double>>& inputs);

/**
 * Decrypts, unpacks, and de-normalizes program outputs exactly as the
 * kOutput instruction does: the first batch_count lanes, one logical
 * output per sample.
 */
std::vector<std::vector<double>> decrypt_network_output(
    const CompiledNetwork& cn, const ckks::Encoder& encoder,
    const ckks::Decryptor& decryptor,
    const std::vector<ckks::Ciphertext>& outputs, int batch_count);

/*
 * CkksExecutor honors OrionConfig::num_threads: run() installs a
 * thread-local pool override for its duration, so the executor knob
 * controls every parallel kernel underneath it without touching global
 * state (concurrent executors with different budgets are safe).
 * num_threads = 1 is bit-identical to any other setting; it simply runs
 * the kernels serially. SimExecutor is pure cleartext simulation and has
 * no parallel kernels today.
 */

/** Real-FHE backend over the from-scratch CKKS substrate. */
class CkksExecutor {
  public:
    /**
     * Self-keyed mode: generates keys for every required rotation step and
     * prepares the program (or reuses `prepared` when given). Requires the
     * program to have been compiled with matrices (structural_only =
     * false) and with l_eff < the context's max level.
     */
    /**
     * When `cfg` is given, run() pins its kernels to cfg.num_threads via a
     * thread-local pool override. Without it, the executor follows the
     * ambient setting at run() time (core::set_num_threads or a caller's
     * ScopedPoolOverride), so late thread-count changes take effect.
     */
    CkksExecutor(const CompiledNetwork& cn, const ckks::Context& ctx,
                 u64 seed = 7,
                 std::optional<OrionConfig> cfg = std::nullopt,
                 std::shared_ptr<const PreparedProgram> prepared = nullptr);

    /**
     * External-key (serving) mode: no key material of its own; callers
     * bind a session's evaluation keys before each run_encrypted().
     */
    CkksExecutor(const CompiledNetwork& cn, const ckks::Context& ctx,
                 std::shared_ptr<const PreparedProgram> prepared,
                 std::optional<OrionConfig> cfg = std::nullopt);

    /**
     * Binds per-session evaluation keys (external-key mode, or to override
     * the self-generated keys). The pointed-to keys must outlive every
     * subsequent run_encrypted() call.
     */
    void bind_session_keys(const ckks::KswitchKey* relin,
                           const ckks::GaloisKeys* galois);

    /**
     * Full inference: encrypt, execute, decrypt. Self-keyed mode only.
     * Safe to call repeatedly on one instance: all per-run state (values,
     * levels, stats) is local to the call.
     */
    ExecutionResult run(const std::vector<double>& input);

    /**
     * Encrypted-domain inference: validates the input ciphertexts against
     * the program's kInput contract (count, level, scale), executes, and
     * returns the still-encrypted outputs. Works in both modes; the
     * serving path never touches a secret key. Reported rotation /
     * bootstrap / pmult counts are the program's deterministic operation
     * counts with SimExecutor's accounting (race-free when many executors
     * share one Context): rotations equal the measured kernel counts
     * (asserted against Context counters by the compiler integration
     * test); pmults cover linear layers and explicit scales but not the
     * plaintext products inside polynomial activation evaluation.
     */
    EncryptedResult run_encrypted(const std::vector<ckks::Ciphertext>& input);

    /**
     * Encrypts up to CompiledNetwork::batch samples into slot lanes
     * (self-keyed mode).
     */
    std::vector<ckks::Ciphertext> encrypt_input(
        const std::vector<std::vector<double>>& inputs);
    /**
     * Decrypts the first batch_count lanes as per-sample outputs
     * (self-keyed mode).
     */
    std::vector<std::vector<double>> decrypt_output(
        const std::vector<ckks::Ciphertext>& outputs, int batch_count) const;

    /** The pinned config, or the current global one when not pinned. */
    OrionConfig exec_config() const { return cfg_ ? *cfg_ : config(); }
    void set_exec_config(const OrionConfig& cfg) { cfg_ = cfg; }

    bool self_keyed() const { return keygen_.has_value(); }

    InspectFn inspect;  ///< optional observer (decrypts intermediates!)

    const ckks::SecretKey& secret_key() const
    {
        ORION_CHECK(keygen_.has_value(),
                    "external-key executor holds no secret key");
        return keygen_->secret_key();
    }
    std::size_t galois_key_bytes() const
    {
        return galois_ ? galois_->byte_size() : 0;
    }

  private:
    std::vector<ckks::Ciphertext> drop_all(
        const std::vector<ckks::Ciphertext>& in, int level) const;
    /** The shared instruction walk behind run() and run_encrypted(). */
    EncryptedResult execute_program(
        const std::vector<ckks::Ciphertext>& input);

    const CompiledNetwork* cn_;
    const ckks::Context* ctx_;
    std::optional<OrionConfig> cfg_;
    ckks::Encoder encoder_;
    std::shared_ptr<const PreparedProgram> prep_;
    // Self-key material; absent in external-key (serving) mode.
    std::optional<ckks::KeyGenerator> keygen_;
    std::optional<ckks::PublicKey> pk_;
    std::optional<ckks::KswitchKey> own_relin_;
    std::optional<ckks::GaloisKeys> own_galois_;
    std::optional<ckks::Encryptor> encryptor_;
    std::optional<ckks::Decryptor> decryptor_;
    // Bound evaluation keys (own keys, or a session's external keys).
    const ckks::KswitchKey* relin_ = nullptr;
    const ckks::GaloisKeys* galois_ = nullptr;
    ckks::Evaluator eval_;
};

}  // namespace orion::core

#endif  // ORION_SRC_CORE_EXECUTOR_H_
