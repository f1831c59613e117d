#ifndef ORION_SRC_CKKS_KEYSWITCH_H_
#define ORION_SRC_CKKS_KEYSWITCH_H_

/**
 * @file
 * Hybrid RNS key switching (Han-Ki / Bossuat et al. style).
 *
 * A key switch of polynomial c from secret s_old to s_new proceeds in three
 * stages, which are exposed separately because hoisting (Section 3.3 of the
 * paper) reuses stage 1 across many rotations:
 *
 *   1. decompose (ModUp): split c into digits of alpha limbs each and
 *      fast-base-convert every digit to the full basis {q_0..q_l, p_0..p_k}.
 *   2. inner product: multiply-accumulate the digits against the
 *      key-switching key, producing an extended-basis pair.
 *   3. mod down: divide by P and drop the special limbs.
 */

#include "src/ckks/keys.h"

namespace orion::ckks {

/** Stateless engine implementing the three key-switching stages. */
class KeySwitcher {
  public:
    explicit KeySwitcher(const Context& ctx) : ctx_(&ctx) {}

    /**
     * Stage 1 (the hoistable part): digit-decomposes a coefficient-limb
     * polynomial (either form) and extends each digit to the full basis.
     * The digits come back in NTT form.
     */
    std::vector<RnsPoly> decompose(const RnsPoly& c) const;

    /**
     * Stage 2: accumulates digits x ksk into (acc0, acc1), both extended
     * polynomials at the digits' level. Accumulators may carry previous
     * partial sums (double-hoisting defers stage 3 across many calls).
     */
    void inner_product(const std::vector<RnsPoly>& digits,
                       const KswitchKey& ksk, RnsPoly* acc0,
                       RnsPoly* acc1) const;

    /** Stages 1-3 fused: returns the switched pair at c's level. */
    void apply(const RnsPoly& c, const KswitchKey& ksk, RnsPoly* out0,
               RnsPoly* out1) const;

  private:
    const Context* ctx_;
};

}  // namespace orion::ckks

#endif  // ORION_SRC_CKKS_KEYSWITCH_H_
