#ifndef ORION_SRC_CKKS_ENCODER_H_
#define ORION_SRC_CKKS_ENCODER_H_

/**
 * @file
 * CKKS encoding (Section 2.2): cleartext vectors of N/2 complex (or real)
 * numbers <-> plaintext polynomials, via the canonical embedding restricted
 * to the orbit of 5 modulo 2N ("rot-group" ordering). Under this ordering a
 * cyclic rotation of the slots corresponds to the automorphism X -> X^{5^k}
 * and complex conjugation to X -> X^{2N-1}.
 */

#include <complex>
#include <span>
#include <vector>

#include "src/ckks/ciphertext.h"
#include "src/ckks/context.h"
#include "src/ckks/special_fft.h"

namespace orion::ckks {

/** Converts cleartext vectors to plaintext polynomials and back. */
class Encoder {
  public:
    explicit Encoder(const Context& ctx);

    u64 slot_count() const { return slots_; }

    /**
     * Encodes up to slot_count() real values (zero-padded) into a plaintext
     * at the given level and scale.
     */
    Plaintext encode(std::span<const double> values, int level,
                     double scale) const;

    /** Complex-valued variant of encode(). */
    Plaintext encode_complex(std::span<const std::complex<double>> values,
                             int level, double scale) const;

    /**
     * Encodes the same real constant into every slot. The constant
     * polynomial evaluates to itself at every root of unity, so its NTT
     * form holds constant_residues() in every slot: no FFT, no NTT.
     */
    Plaintext encode_constant(double value, int level, double scale) const;

    /**
     * round(value * scale) reduced modulo q_0..q_level: the per-limb
     * scalars that add or multiply a constant without a plaintext.
     */
    std::vector<u64> constant_residues(double value, int level,
                                       double scale) const;

    /** Decodes the real parts of all slots. */
    std::vector<double> decode(const Plaintext& pt) const;

    /** Decodes all slots as complex numbers. */
    std::vector<std::complex<double>> decode_complex(const Plaintext& pt) const;

    /**
     * The shared special-FFT stage machinery. The bootstrap circuit builds
     * its CoeffToSlot/SlotToCoeff matrices from the same stages the
     * encoder's cleartext butterflies run, so the two paths cannot drift.
     */
    const SpecialFft& fft() const { return fft_; }

  private:
    /** Builds a plaintext from scaled slot values. */
    Plaintext from_slots(std::vector<std::complex<double>> slots, int level,
                         double scale) const;
    /** CRT-composes centered coefficients (up to two limbs) for decode. */
    std::vector<double> to_coefficients(const Plaintext& pt) const;

    const Context* ctx_;
    u64 slots_;
    SpecialFft fft_;
};

}  // namespace orion::ckks

#endif  // ORION_SRC_CKKS_ENCODER_H_
