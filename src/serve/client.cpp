#include "src/serve/client.h"

namespace orion::serve {

namespace {

/**
 * Exactly the Galois keys serving this program needs — the program's
 * level-pruned rotation steps plus the bootstrap circuit's (and its
 * conjugation) when the program bootstraps. The server validates the
 * registered bundle against the same derivation.
 */
ckks::GaloisKeys
make_serving_galois(ckks::KeyGenerator& keygen,
                    const core::CompiledNetwork& cn,
                    const ckks::Context& ctx)
{
    const core::GaloisRequirements req = core::required_galois(cn, ctx);
    return keygen.make_galois_keys(
        std::span<const ckks::GaloisKeyRequest>(req.requests),
        req.conjugation, req.conjugation_level);
}

}  // namespace

ServeClient::ServeClient(const core::CompiledNetwork& cn,
                         const ckks::Context& ctx, u64 seed)
    : cn_(&cn), ctx_(&ctx), encoder_(ctx), keygen_(ctx, seed),
      pk_(keygen_.make_public_key()), relin_(keygen_.make_relin_key()),
      galois_(make_serving_galois(keygen_, cn, ctx)),
      encryptor_(ctx, pk_), decryptor_(ctx, keygen_.secret_key())
{
}

ckks::serial::Bytes
ServeClient::key_bundle() const
{
    // Serialize straight from the members: a KeyBundle temporary would
    // deep-copy the (potentially hundreds of MB of) Galois keys.
    ckks::serial::ByteWriter w;
    ckks::serial::write_params(w, ctx_->params());
    ckks::serial::write_kswitch_key(w, relin_);
    ckks::serial::write_galois_keys(w, galois_);
    return finish_record(ckks::serial::RecordKind::kKeyBundle,
                         std::move(w));
}

ckks::serial::Bytes
ServeClient::make_request(const std::vector<std::vector<double>>& inputs)
{
    ORION_CHECK(session_id_ != 0,
                "no session id: register the key bundle and call "
                "set_session_id first");
    Request req;
    req.session_id = session_id_;
    req.request_id = next_request_id_++;
    req.batch_count = inputs.size();
    req.inputs =
        core::encrypt_network_input(*cn_, *ctx_, encoder_, encryptor_, inputs);
    return encode_request(req);
}

ckks::serial::Bytes
ServeClient::make_request(const std::vector<double>& input)
{
    return make_request(std::vector<std::vector<double>>{input});
}

std::vector<std::vector<double>>
ServeClient::decrypt_response(std::span<const u8> response, int batch_count)
{
    const Response resp = decode_response(response, *ctx_);
    return core::decrypt_network_output(*cn_, encoder_, decryptor_,
                                        resp.outputs, batch_count);
}

std::vector<double>
ServeClient::decrypt_response(std::span<const u8> response)
{
    return std::move(decrypt_response(response, 1).front());
}

Response
ServeClient::parse_response(std::span<const u8> response) const
{
    return decode_response(response, *ctx_);
}

}  // namespace orion::serve
