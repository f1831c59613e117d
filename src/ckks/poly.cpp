#include "src/ckks/poly.h"

#include <algorithm>

#include "src/ckks/kernels.h"
#include "src/core/thread_pool.h"

namespace orion::ckks {

void
RnsPoly::count_acquire(core::ArenaAcquire how) const
{
    // Capacity reuse touches no allocator at all, so it counts as neither
    // an allocation nor a pool hit.
    if (how == core::ArenaAcquire::kReused) return;
    ctx_->counters().poly_alloc += 1;
    if (how == core::ArenaAcquire::kPool) {
        ctx_->counters().poly_arena_hit += 1;
    }
}

RnsPoly::RnsPoly(const Context& ctx, int level, bool extended, bool ntt_form)
    : RnsPoly(ctx, level, extended, ntt_form, Fill::kZero)
{
}

RnsPoly::RnsPoly(const Context& ctx, int level, bool extended, bool ntt_form,
                 Fill fill)
    : ctx_(&ctx), level_(level), ntt_(ntt_form),
      special_limbs_(extended ? ctx.special_count() : 0)
{
    ORION_CHECK(level >= 0 && level <= ctx.max_level(),
                "level out of range: " << level);
    const std::size_t size =
        static_cast<std::size_t>(num_limbs()) * ctx.degree();
    count_acquire(fill == Fill::kZero ? data_.acquire_zero(size)
                                      : data_.acquire(size));
}

RnsPoly
RnsPoly::uninitialized(const Context& ctx, int level, bool extended,
                       bool ntt_form)
{
    return RnsPoly(ctx, level, extended, ntt_form, Fill::kNone);
}

RnsPoly::RnsPoly(const RnsPoly& o)
    : ctx_(o.ctx_), level_(o.level_), ntt_(o.ntt_),
      special_limbs_(o.special_limbs_)
{
    if (o.data_.empty()) return;  // invalid/default polys own no storage
    count_acquire(data_.copy_from(o.data_));
}

RnsPoly&
RnsPoly::operator=(const RnsPoly& o)
{
    if (this == &o) return *this;
    ctx_ = o.ctx_;
    level_ = o.level_;
    ntt_ = o.ntt_;
    special_limbs_ = o.special_limbs_;
    if (o.data_.empty()) {
        data_.release();
    } else {
        count_acquire(data_.copy_from(o.data_));
    }
    return *this;
}

void
RnsPoly::add_inplace(const RnsPoly& other)
{
    ORION_ASSERT(ctx_ == other.ctx_ && level_ == other.level_ &&
                 special_limbs_ == other.special_limbs_ &&
                 ntt_ == other.ntt_);
    const u64 n = degree();
    const kernels::KernelTable& k = kernels::active();
    for (int i = 0; i < num_limbs(); ++i) {
        k.add_mod_n(limb(i), other.limb(i), n, limb_modulus(i));
    }
}

void
RnsPoly::sub_inplace(const RnsPoly& other)
{
    ORION_ASSERT(ctx_ == other.ctx_ && level_ == other.level_ &&
                 special_limbs_ == other.special_limbs_ &&
                 ntt_ == other.ntt_);
    const u64 n = degree();
    const kernels::KernelTable& k = kernels::active();
    for (int i = 0; i < num_limbs(); ++i) {
        k.sub_mod_n(limb(i), other.limb(i), n, limb_modulus(i));
    }
}

void
RnsPoly::negate_inplace()
{
    const u64 n = degree();
    for (int i = 0; i < num_limbs(); ++i) {
        const Modulus& q = limb_modulus(i);
        u64* a = limb(i);
        for (u64 j = 0; j < n; ++j) a[j] = neg_mod(a[j], q);
    }
}

void
RnsPoly::mul_pointwise_inplace(const RnsPoly& other)
{
    ORION_ASSERT(ntt_ && other.ntt_);
    ORION_ASSERT(ctx_ == other.ctx_ && level_ == other.level_ &&
                 special_limbs_ == other.special_limbs_);
    const u64 n = degree();
    const kernels::KernelTable& k = kernels::active();
    for (int i = 0; i < num_limbs(); ++i) {
        k.mul_mod_n(limb(i), other.limb(i), n, limb_modulus(i));
    }
}

void
RnsPoly::add_product_inplace(const RnsPoly& b, const RnsPoly& c)
{
    ORION_ASSERT(ntt_ && b.ntt_ && c.ntt_);
    ORION_ASSERT(level_ == b.level_ && level_ == c.level_ &&
                 special_limbs_ == b.special_limbs_ &&
                 special_limbs_ == c.special_limbs_);
    const u64 n = degree();
    const kernels::KernelTable& k = kernels::active();
    for (int i = 0; i < num_limbs(); ++i) {
        k.add_product_n(limb(i), b.limb(i), c.limb(i), n, limb_modulus(i));
    }
}

void
RnsPoly::add_scalar_inplace(const std::vector<u64>& scalar_per_limb)
{
    ORION_ASSERT(ntt_);
    ORION_ASSERT(scalar_per_limb.size() >=
                 static_cast<std::size_t>(num_limbs()));
    const u64 n = degree();
    for (int i = 0; i < num_limbs(); ++i) {
        const Modulus& q = limb_modulus(i);
        const u64 s = scalar_per_limb[static_cast<std::size_t>(i)];
        u64* a = limb(i);
        for (u64 j = 0; j < n; ++j) a[j] = add_mod(a[j], s, q);
    }
}

void
RnsPoly::mul_scalar_inplace(const std::vector<u64>& scalar_per_limb)
{
    ORION_ASSERT(scalar_per_limb.size() >=
                 static_cast<std::size_t>(num_limbs()));
    const u64 n = degree();
    const kernels::KernelTable& k = kernels::active();
    for (int i = 0; i < num_limbs(); ++i) {
        const Modulus& q = limb_modulus(i);
        const u64 s = scalar_per_limb[static_cast<std::size_t>(i)];
        k.mul_scalar_shoup_n(limb(i), limb(i), n, s, shoup_precompute(s, q),
                             q);
    }
}

void
RnsPoly::mul_small_scalar_inplace(u64 scalar)
{
    std::vector<u64> per_limb(static_cast<std::size_t>(num_limbs()));
    for (int i = 0; i < num_limbs(); ++i) {
        per_limb[static_cast<std::size_t>(i)] =
            limb_modulus(i).reduce(scalar);
    }
    mul_scalar_inplace(per_limb);
}

void
RnsPoly::to_ntt()
{
    ORION_ASSERT(!ntt_);
    core::parallel_for(0, num_limbs(), [this](i64 i) {
        const int limb_idx = static_cast<int>(i);
        limb_tables(limb_idx).forward(limb(limb_idx));
    });
    ctx_->counters().ntt += static_cast<u64>(num_limbs());
    ntt_ = true;
}

void
RnsPoly::to_coeff()
{
    ORION_ASSERT(ntt_);
    core::parallel_for(0, num_limbs(), [this](i64 i) {
        const int limb_idx = static_cast<int>(i);
        limb_tables(limb_idx).inverse(limb(limb_idx));
    });
    ctx_->counters().ntt += static_cast<u64>(num_limbs());
    ntt_ = false;
}

std::vector<u32>
make_galois_ntt_permutation(const Context& ctx, u64 elt)
{
    // In NTT form, slot i stores the evaluation at psi^{2*rev(i)+1}. The
    // automorphism X -> X^elt maps the evaluation at root r to the
    // evaluation at r^elt, which is a pure permutation of the N points.
    const u64 n = ctx.degree();
    const int log_n = ctx.log_degree();
    const u64 m_mask = 2 * n - 1;
    std::vector<u32> perm(n);
    for (u64 i = 0; i < n; ++i) {
        const u64 rev = reverse_bits(static_cast<u32>(i), log_n);
        const u64 index_raw = (elt * (2 * rev + 1)) & m_mask;
        const u64 index =
            reverse_bits(static_cast<u32>((index_raw - 1) >> 1), log_n);
        perm[i] = static_cast<u32>(index);
    }
    return perm;
}

RnsPoly
RnsPoly::galois_with_permutation(const std::vector<u32>& perm) const
{
    ORION_ASSERT(ntt_);
    const u64 n = degree();
    RnsPoly out = uninitialized(*ctx_, level_, extended(), /*ntt_form=*/true);
    core::parallel_for(0, num_limbs(), [&](i64 i) {
        const u64* src = limb(static_cast<int>(i));
        u64* dst = out.limb(static_cast<int>(i));
        for (u64 j = 0; j < n; ++j) dst[j] = src[perm[j]];
    });
    return out;
}

RnsPoly
RnsPoly::galois(u64 elt) const
{
    const u64 n = degree();
    if (ntt_) {
        return galois_with_permutation(ctx_->galois_permutation(elt));
    }
    RnsPoly out(*ctx_, level_, extended(), /*ntt_form=*/false);
    const u64 m_mask = 2 * n - 1;
    for (int i = 0; i < num_limbs(); ++i) {
        const Modulus& q = limb_modulus(i);
        const u64* src = limb(i);
        u64* dst = out.limb(i);
        for (u64 j = 0; j < n; ++j) {
            // X^j -> X^{j*elt} = (+/-) X^{j*elt mod N}.
            const u64 raw = (j * elt) & m_mask;
            if (raw < n) {
                dst[raw] = src[j];
            } else {
                dst[raw - n] = neg_mod(src[j], q);
            }
        }
    }
    return out;
}

void
RnsPoly::divide_and_drop_tail(int count)
{
    // Unrolled, the step-by-step division (see poly.h) subtracts
    // t_s = u_s - b_s * m_s from the survivors, where u_s in [0, m_s) is
    // tail limb s as that step sees it and b_s = [u_s > m_s / 2] (the
    // centering), weighted by W_s = prod_{s' > s} m_{s'}, and multiplies
    // by the inverse of the whole product:
    //   x' = (x - sum_s (u_s * W_s + b_s * (-m_s * W_s))) * (prod m)^{-1}.
    // So one pass suffices: derive the (u_s, b_s) on the tail limbs alone,
    // then give each survivor one 2*count-term base conversion, one NTT,
    // a subtraction and a scalar multiply. All of it is exact modular
    // arithmetic, so the result is the step-by-step one bit for bit.
    ORION_ASSERT(count >= 1 && 2 * count <= 32 && count < num_limbs());
    const u64 n = degree();
    const int keep = num_limbs() - count;
    const kernels::KernelTable& k = kernels::active();

    // The tail limbs are dropped at the end, so they are worked in place.
    if (ntt_) {
        core::parallel_for(keep, num_limbs(), [this](i64 i) {
            const int limb_idx = static_cast<int>(i);
            limb_tables(limb_idx).inverse(limb(limb_idx));
        });
        ctx_->counters().ntt += static_cast<u64>(count);
    }

    // Last limb first, as the step-by-step division goes: record b_s,
    // then apply step s to the tail limbs below it,
    //   (x - u_s + b_s * m_s) * m_s^{-1} = x * m_s^{-1} - u_s * m_s^{-1} + b_s
    // modulo each of them.
    core::ScratchVec<u64> carries(static_cast<std::size_t>(count) * n);
    const u64* rows[32];
    for (int s = count - 1; s >= 0; --s) {
        const int ls = keep + s;
        const u64 half = limb_modulus(ls).value() / 2;
        const u64* u = limb(ls);
        u64* b = carries.data() + static_cast<std::size_t>(s) * n;
        for (u64 j = 0; j < n; ++j) b[j] = u[j] > half ? 1 : 0;
        rows[s] = u;
        rows[count + s] = b;
        for (int r = 0; r < s; ++r) {
            const int lr = keep + r;
            const Modulus& m = limb_modulus(lr);
            const u64 inv = ctx_->inv_mod_global(limb_global_index(ls),
                                                 limb_global_index(lr));
            const u64* step_rows[3] = {limb(lr), u, b};
            const u64 step_weights[3] = {inv, neg_mod(inv, m), 1};
            k.base_conv_acc(limb(lr), step_rows, step_weights, 3, n, m);
        }
    }

    core::parallel_for(0, keep, [&](i64 li) {
        const int i = static_cast<int>(li);
        const Modulus& q = limb_modulus(i);
        const int gi = limb_global_index(i);
        u64 weights[32];
        u64 prefix = 1;  // W_s mod q
        u64 inv = 1;     // (prod m)^{-1} mod q
        for (int s = count - 1; s >= 0; --s) {
            const int ls = keep + s;
            const u64 m = q.reduce(limb_modulus(ls).value());
            weights[s] = prefix;
            weights[count + s] = neg_mod(mul_mod(m, prefix, q), q);
            prefix = mul_mod(prefix, m, q);
            const u64 m_inv = ctx_->inv_mod_global(limb_global_index(ls), gi);
            inv = mul_mod(inv, m_inv, q);
        }
        core::ScratchVec<u64> tmp(n);
        k.base_conv_acc(tmp.data(), rows, weights, 2 * count, n, q);
        if (ntt_) limb_tables(i).forward(tmp.data());
        u64* a = limb(i);
        k.sub_mod_n(a, tmp.data(), n, q);
        k.mul_scalar_shoup_n(a, a, n, inv, shoup_precompute(inv, q), q);
    });
    if (ntt_) ctx_->counters().ntt += static_cast<u64>(keep);

    data_.resize_down(static_cast<std::size_t>(keep) * n);
    if (special_limbs_ > 0) {
        ORION_ASSERT(count == special_limbs_);
        special_limbs_ = 0;
    } else {
        level_ -= count;
    }
}

void
RnsPoly::rescale_drop_last()
{
    ORION_CHECK(!extended(), "cannot rescale an extended polynomial");
    ORION_CHECK(level_ >= 1, "cannot rescale at level 0");
    divide_and_drop_tail(1);
}

void
RnsPoly::mod_down_special()
{
    ORION_CHECK(extended(), "mod_down_special requires special limbs");
    divide_and_drop_tail(special_limbs_);
}

void
RnsPoly::drop_to_level(int new_level)
{
    ORION_CHECK(!extended(), "cannot drop levels on an extended polynomial");
    ORION_CHECK(new_level >= 0 && new_level <= level_,
                "invalid target level " << new_level << " from " << level_);
    data_.resize_down(static_cast<std::size_t>(new_level + 1) * degree());
    level_ = new_level;
}

RnsPoly
RnsPoly::mod_raise(int new_level) const
{
    ORION_CHECK(!extended(), "cannot mod-raise an extended polynomial");
    ORION_CHECK(level_ == 0,
                "mod_raise expects a level-0 polynomial (drop first), got "
                    << level_);
    ORION_CHECK(new_level >= 1 && new_level <= ctx_->max_level(),
                "invalid mod-raise target level " << new_level);
    const u64 n = degree();

    RnsPoly base = *this;
    if (base.is_ntt()) base.to_coeff();
    const Modulus& q0 = ctx_->q(0);
    core::ScratchVec<i64> centered(n);
    const u64* src = base.limb(0);
    for (u64 j = 0; j < n; ++j) centered[j] = to_centered(src[j], q0);

    RnsPoly out = uninitialized(*ctx_, new_level, /*extended=*/false,
                                /*ntt_form=*/false);
    // Each target limb is an independent signed reduction of the centered
    // coefficients; fan them out across the pool (bit-identical at any
    // thread count: no cross-limb reads).
    core::parallel_for(0, out.num_limbs(), [&](i64 li) {
        const int i = static_cast<int>(li);
        const Modulus& q = out.limb_modulus(i);
        u64* dst = out.limb(i);
        for (u64 j = 0; j < n; ++j) dst[j] = reduce_signed(centered[j], q);
    });
    if (is_ntt()) out.to_ntt();
    return out;
}

bool
RnsPoly::is_zero() const
{
    const u64* p = data_.data();
    return std::all_of(p, p + data_.size(), [](u64 v) { return v == 0; });
}

}  // namespace orion::ckks
