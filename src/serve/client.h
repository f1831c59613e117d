#ifndef ORION_SRC_SERVE_CLIENT_H_
#define ORION_SRC_SERVE_CLIENT_H_

/**
 * @file
 * The data owner's side of the serving protocol: generates its own key
 * material (the secret never leaves this object), exports an evaluation
 * KeyBundle for the server, encrypts inputs into serialized Requests, and
 * decrypts serialized Responses back to logits.
 */

#include "src/core/executor.h"
#include "src/serve/wire.h"

namespace orion::serve {

/** Encrypt -> serialize -> (transport) -> deserialize -> decrypt helper. */
class ServeClient {
  public:
    /**
     * Generates fresh keys for the compiled network's rotation steps.
     * Distinct seeds give distinct secrets, so two clients' sessions are
     * cryptographically isolated.
     */
    ServeClient(const core::CompiledNetwork& cn, const ckks::Context& ctx,
                u64 seed = 21);

    /** The serialized evaluation-key bundle to register with a server. */
    ckks::serial::Bytes key_bundle() const;

    /** Stores the server-assigned session id used by make_request. */
    void set_session_id(u64 id) { session_id_ = id; }
    u64 session_id() const { return session_id_; }

    /**
     * Packs `inputs.size()` samples into the program's batch lanes,
     * encrypts, and serializes one inference request (request ids are
     * assigned sequentially). The sample count must not exceed the
     * compiled network's batch capacity.
     */
    ckks::serial::Bytes make_request(
        const std::vector<std::vector<double>>& inputs);
    /** One sample: the batch of one. */
    ckks::serial::Bytes make_request(const std::vector<double>& input);

    /**
     * Decrypts the first `batch_count` lanes of a serialized Response to
     * logical network outputs, one per sample.
     */
    std::vector<std::vector<double>> decrypt_response(
        std::span<const u8> response, int batch_count);
    /** Lane 0 only: the output of a one-sample request. */
    std::vector<double> decrypt_response(std::span<const u8> response);

    /** Decodes a Response without decrypting (stats inspection). */
    Response parse_response(std::span<const u8> response) const;

  private:
    const core::CompiledNetwork* cn_;
    const ckks::Context* ctx_;
    ckks::Encoder encoder_;
    ckks::KeyGenerator keygen_;
    ckks::PublicKey pk_;
    ckks::KswitchKey relin_;
    ckks::GaloisKeys galois_;
    ckks::Encryptor encryptor_;
    ckks::Decryptor decryptor_;
    u64 session_id_ = 0;
    u64 next_request_id_ = 1;
};

}  // namespace orion::serve

#endif  // ORION_SRC_SERVE_CLIENT_H_
