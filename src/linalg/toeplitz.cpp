#include "src/linalg/toeplitz.h"

#include <algorithm>

#include "src/core/thread_pool.h"

namespace orion::lin {

TensorLayout
conv_output_layout(const Conv2dSpec& spec, const TensorLayout& in)
{
    spec.validate();
    ORION_CHECK(in.channels == spec.in_channels,
                "layout/spec channel mismatch: " << in.channels << " vs "
                                                 << spec.in_channels);
    const TensorLayout out(spec.out_channels, spec.out_h(in.height),
                           spec.out_w(in.width), in.gap * spec.stride);
    if (in.batch > 1) return out.batched(in.batch, in.batch_stride);
    return out;
}

BlockedMatrix
build_conv_matrix(const Conv2dSpec& spec, const std::vector<double>& weights,
                  const TensorLayout& in, const TensorLayout& out,
                  u64 block_dim, const std::vector<double>& channel_scale)
{
    spec.validate();
    ORION_CHECK(weights.size() == spec.weight_count(),
                "weight count mismatch: " << weights.size() << " vs "
                                          << spec.weight_count());
    ORION_CHECK(channel_scale.empty() ||
                    channel_scale.size() ==
                        static_cast<std::size_t>(spec.out_channels),
                "channel_scale must have one entry per output channel");

    ORION_CHECK(in.batch == out.batch && in.batch_stride == out.batch_stride,
                "conv input/output batch mismatch");

    const int ci_per_group = spec.in_channels / spec.groups;
    const int co_per_group = spec.out_channels / spec.groups;
    const u64 rows = out.total_slots();
    const u64 cols = in.total_slots();
    BlockedMatrix m(std::max(rows, u64(1)), std::max(cols, u64(1)),
                    block_dim);

    // One matrix row per output element (Figure 3a): walk every filter
    // placement and scatter the taps into (row, col) positions under the
    // multiplexed layouts. Batch lanes shift row and column by the same
    // b * batch_stride, so they land on the same generalized diagonals
    // (block-diagonal weights: one BSGS product serves all lanes).
    const int nb = std::max(1, in.batch);
    for (int b = 0; b < nb; ++b) {
        for (int o = 0; o < spec.out_channels; ++o) {
            const int group = o / co_per_group;
            const double oscale =
                channel_scale.empty()
                    ? 1.0
                    : channel_scale[static_cast<std::size_t>(o)];
            for (int oy = 0; oy < out.height; ++oy) {
                for (int ox = 0; ox < out.width; ++ox) {
                    const u64 row = out.slot_of(b, o, oy, ox);
                    for (int ci = 0; ci < ci_per_group; ++ci) {
                        const int c = group * ci_per_group + ci;
                        for (int ky = 0; ky < spec.kernel_h; ++ky) {
                            const int iy = oy * spec.stride - spec.pad +
                                           ky * spec.dilation;
                            if (iy < 0 || iy >= in.height) continue;
                            for (int kx = 0; kx < spec.kernel_w; ++kx) {
                                const int ix = ox * spec.stride - spec.pad +
                                               kx * spec.dilation;
                                if (ix < 0 || ix >= in.width) continue;
                                const u64 col = in.slot_of(b, c, iy, ix);
                                const u64 widx =
                                    ((static_cast<u64>(o) * ci_per_group +
                                      ci) *
                                         spec.kernel_h +
                                     ky) *
                                        spec.kernel_w +
                                    kx;
                                m.add(row, col, oscale * weights[widx]);
                            }
                        }
                    }
                }
            }
        }
    }
    return m;
}

BlockedMatrix
build_linear_matrix(int out_features, int in_features,
                    const std::vector<double>& weights,
                    const TensorLayout& in, u64 block_dim,
                    const std::vector<double>& out_scale)
{
    ORION_CHECK(weights.size() == static_cast<std::size_t>(out_features) *
                                      static_cast<std::size_t>(in_features),
                "weight count mismatch");
    ORION_CHECK(static_cast<u64>(in_features) == in.logical_size(),
                "in_features must match the layout's logical size: "
                    << in_features << " vs " << in.logical_size());
    ORION_CHECK(out_scale.empty() ||
                    out_scale.size() ==
                        static_cast<std::size_t>(out_features),
                "out_scale must have one entry per output feature");

    // Column of logical feature f under the input layout.
    std::vector<u64> col_of(static_cast<std::size_t>(in_features));
    u64 f = 0;
    for (int c = 0; c < in.channels; ++c) {
        for (int y = 0; y < in.height; ++y) {
            for (int x = 0; x < in.width; ++x) {
                col_of[f++] = in.slot_of(c, y, x);
            }
        }
    }

    // Output lanes reuse the input's batch stride; lane b's block of rows
    // starts at b * batch_stride, mirroring the shifted input columns.
    const int nb = std::max(1, in.batch);
    const u64 rows = nb > 1 ? static_cast<u64>(nb - 1) * in.batch_stride +
                                  static_cast<u64>(out_features)
                            : static_cast<u64>(out_features);
    BlockedMatrix m(rows, in.total_slots(), block_dim);
    for (int b = 0; b < nb; ++b) {
        const u64 lane = static_cast<u64>(b) * in.batch_stride;
        for (int r = 0; r < out_features; ++r) {
            const double s = out_scale.empty()
                                 ? 1.0
                                 : out_scale[static_cast<std::size_t>(r)];
            for (int cf = 0; cf < in_features; ++cf) {
                const double w = weights[static_cast<std::size_t>(r) *
                                             static_cast<std::size_t>(
                                                 in_features) +
                                         static_cast<std::size_t>(cf)];
                if (w != 0.0) {
                    m.add(lane + static_cast<u64>(r),
                          lane + col_of[static_cast<std::size_t>(cf)],
                          s * w);
                }
            }
        }
    }
    return m;
}

TensorLayout
avgpool_output_layout(int kernel, int stride, const TensorLayout& in, int pad)
{
    Conv2dSpec spec;
    spec.in_channels = spec.out_channels = in.channels;
    spec.kernel_h = spec.kernel_w = kernel;
    spec.stride = stride;
    spec.pad = pad;
    spec.groups = in.channels;
    return conv_output_layout(spec, in);
}

BlockedMatrix
build_avgpool_matrix(int kernel, int stride, const TensorLayout& in,
                     const TensorLayout& out, u64 block_dim, int pad)
{
    Conv2dSpec spec;
    spec.in_channels = spec.out_channels = in.channels;
    spec.kernel_h = spec.kernel_w = kernel;
    spec.stride = stride;
    spec.pad = pad;
    spec.groups = in.channels;
    const std::vector<double> weights(
        spec.weight_count(), 1.0 / (static_cast<double>(kernel) * kernel));
    return build_conv_matrix(spec, weights, in, out, block_dim);
}

std::vector<double>
conv2d_reference(const Conv2dSpec& spec, const std::vector<double>& weights,
                 const std::vector<double>& input, int in_h, int in_w)
{
    spec.validate();
    ORION_CHECK(input.size() == static_cast<std::size_t>(spec.in_channels) *
                                    in_h * in_w,
                "input size mismatch");
    const int oh = spec.out_h(in_h);
    const int ow = spec.out_w(in_w);
    const int ci_per_group = spec.in_channels / spec.groups;
    const int co_per_group = spec.out_channels / spec.groups;
    std::vector<double> out(
        static_cast<std::size_t>(spec.out_channels) * oh * ow, 0.0);

    // Blocked + parallel: the output is tiled into (channel, row-band)
    // blocks that fan out across the thread pool — rows of one band reuse
    // the same input rows while they are cache-hot. Each output element's
    // accumulation runs in the original serial tap order, so results are
    // bitwise identical to the untiled single-threaded loop. This is the
    // reference path behind fig8_yolo's full mode (three 448x448x3
    // forwards), which was untenably slow untiled on small hosts.
    const int row_block = 16;
    const int bands = (oh + row_block - 1) / row_block;
    const i64 num_tiles = static_cast<i64>(spec.out_channels) * bands;
    core::parallel_for(0, num_tiles, [&](i64 tile) {
        const int o = static_cast<int>(tile / bands);
        const int band = static_cast<int>(tile % bands);
        const int oy_end = std::min((band + 1) * row_block, oh);
        const int group = o / co_per_group;
        const double* w_base =
            weights.data() +
            static_cast<std::size_t>(o) * ci_per_group * spec.kernel_h *
                spec.kernel_w;
        for (int oy = band * row_block; oy < oy_end; ++oy) {
            for (int ox = 0; ox < ow; ++ox) {
                double acc = 0.0;
                for (int ci = 0; ci < ci_per_group; ++ci) {
                    const int c = group * ci_per_group + ci;
                    const double* w_ci =
                        w_base + static_cast<std::size_t>(ci) *
                                     spec.kernel_h * spec.kernel_w;
                    const double* in_c =
                        input.data() +
                        static_cast<std::size_t>(c) * in_h * in_w;
                    for (int ky = 0; ky < spec.kernel_h; ++ky) {
                        const int iy =
                            oy * spec.stride - spec.pad + ky * spec.dilation;
                        if (iy < 0 || iy >= in_h) continue;
                        const double* w_ky = w_ci + ky * spec.kernel_w;
                        const double* in_row = in_c + static_cast<std::size_t>(
                                                          iy) * in_w;
                        for (int kx = 0; kx < spec.kernel_w; ++kx) {
                            const int ix = ox * spec.stride - spec.pad +
                                           kx * spec.dilation;
                            if (ix < 0 || ix >= in_w) continue;
                            acc += w_ky[kx] * in_row[ix];
                        }
                    }
                }
                out[(static_cast<std::size_t>(o) * oh + oy) * ow + ox] = acc;
            }
        }
    });
    return out;
}

}  // namespace orion::lin

namespace {

using orion::u64;

/** Per-(block pair) bitmask collector of nonzero diagonal indices. */
class StructureSink {
  public:
    StructureSink(u64 rows, u64 cols, u64 block_dim)
    {
        s_.rows = rows;
        s_.cols = cols;
        s_.block_dim = block_dim;
    }

    void
    add(u64 r, u64 c)
    {
        const std::pair<u64, u64> key{r / s_.block_dim, c / s_.block_dim};
        std::vector<bool>& bits = bitsets_[key];
        if (bits.empty()) bits.assign(s_.block_dim, false);
        const u64 rr = r % s_.block_dim;
        const u64 cc = c % s_.block_dim;
        bits[(cc + s_.block_dim - rr) % s_.block_dim] = true;
    }

    orion::lin::BlockedStructure
    finish()
    {
        for (auto& [key, bits] : bitsets_) {
            std::vector<u64>& out = s_.blocks[key];
            for (u64 k = 0; k < s_.block_dim; ++k) {
                if (bits[k]) out.push_back(k);
            }
        }
        return std::move(s_);
    }

  private:
    orion::lin::BlockedStructure s_;
    std::map<std::pair<u64, u64>, std::vector<bool>> bitsets_;
};

}  // namespace

namespace orion::lin {

u64
BlockedStructure::num_diagonals() const
{
    u64 total = 0;
    for (const auto& [key, diags] : blocks) {
        (void)key;
        total += diags.size();
    }
    return total;
}

BlockedStructure
build_conv_structure(const Conv2dSpec& spec, const TensorLayout& in,
                     const TensorLayout& out, u64 block_dim)
{
    spec.validate();
    ORION_CHECK(in.batch == out.batch && in.batch_stride == out.batch_stride,
                "conv input/output batch mismatch");
    const int ci_per_group = spec.in_channels / spec.groups;
    const int co_per_group = spec.out_channels / spec.groups;
    StructureSink sink(out.total_slots(), in.total_slots(), block_dim);
    const int nb = std::max(1, in.batch);
    for (int b = 0; b < nb; ++b) {
        for (int o = 0; o < spec.out_channels; ++o) {
            const int group = o / co_per_group;
            for (int oy = 0; oy < out.height; ++oy) {
                for (int ox = 0; ox < out.width; ++ox) {
                    const u64 row = out.slot_of(b, o, oy, ox);
                    for (int ci = 0; ci < ci_per_group; ++ci) {
                        const int c = group * ci_per_group + ci;
                        for (int ky = 0; ky < spec.kernel_h; ++ky) {
                            const int iy = oy * spec.stride - spec.pad +
                                           ky * spec.dilation;
                            if (iy < 0 || iy >= in.height) continue;
                            for (int kx = 0; kx < spec.kernel_w; ++kx) {
                                const int ix = ox * spec.stride - spec.pad +
                                               kx * spec.dilation;
                                if (ix < 0 || ix >= in.width) continue;
                                sink.add(row, in.slot_of(b, c, iy, ix));
                            }
                        }
                    }
                }
            }
        }
    }
    return sink.finish();
}

BlockedStructure
build_linear_structure(int out_features, const TensorLayout& in,
                       u64 block_dim)
{
    const int nb = std::max(1, in.batch);
    const u64 rows = nb > 1 ? static_cast<u64>(nb - 1) * in.batch_stride +
                                  static_cast<u64>(out_features)
                            : static_cast<u64>(out_features);
    StructureSink sink(rows, in.total_slots(), block_dim);
    for (int b = 0; b < nb; ++b) {
        const u64 lane = static_cast<u64>(b) * in.batch_stride;
        for (int r = 0; r < out_features; ++r) {
            for (int c = 0; c < in.channels; ++c) {
                for (int y = 0; y < in.height; ++y) {
                    for (int x = 0; x < in.width; ++x) {
                        sink.add(lane + static_cast<u64>(r),
                                 lane + in.slot_of(c, y, x));
                    }
                }
            }
        }
    }
    return sink.finish();
}

BlockedStructure
build_avgpool_structure(int kernel, int stride, const TensorLayout& in,
                        const TensorLayout& out, u64 block_dim, int pad)
{
    Conv2dSpec spec;
    spec.in_channels = spec.out_channels = in.channels;
    spec.kernel_h = spec.kernel_w = kernel;
    spec.stride = stride;
    spec.pad = pad;
    spec.groups = in.channels;
    return build_conv_structure(spec, in, out, block_dim);
}

BlockedStructure
structure_of(const BlockedMatrix& m)
{
    BlockedStructure s;
    s.rows = m.rows();
    s.cols = m.cols();
    s.block_dim = m.block_dim();
    for (u64 br = 0; br < m.row_blocks(); ++br) {
        for (u64 bc = 0; bc < m.col_blocks(); ++bc) {
            const DiagonalMatrix* block = m.block(br, bc);
            if (block == nullptr) continue;
            s.blocks[{br, bc}] = block->diagonal_indices();
        }
    }
    return s;
}

}  // namespace orion::lin
