#include "tensor/ops.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#if defined(__AVX512F__)
#include <immintrin.h>
#if defined(__AVX512VNNI__)
#define APM_Q8_VNNI 1
#endif
#endif

#include "support/check.hpp"

namespace apm {
namespace {

// GEMM blocking. The micro-kernel computes an MR x NR tile of C with the
// accumulators held in registers across the whole K loop; the packing
// blocks are sized so one B panel (KC x NR floats = 16 KB) lives in L1 and
// one packed A block (MC x KC = 64 KB) in L2. The fp32 tile height is a
// build-time ISA choice: 8 rows of one 16-lane zmm accumulator each with
// AVX-512 (8 of its 32 registers), else 4 rows — two ymm per row on AVX2.
#if defined(__AVX512F__)
constexpr int kMR = 8;
#else
constexpr int kMR = 4;
#endif
constexpr int kNR = 16;
constexpr int kQ8MR = 4;   // int8 tile rows: one vpdpbusd broadcast per row
constexpr int kMC = 64;    // rows of C per packed-A block
constexpr int kKC = 256;   // K depth per packing pass
constexpr int kNC = 1024;  // columns of C per packed-B block

// Per-thread packing buffers (sized once, reused across calls).
template <typename Vec>
auto* pack_buffer(Vec& buf, std::size_t n) {
  if (buf.size() < n) buf.resize(n);
  return buf.data();
}
thread_local PanelVector<float> tl_apack;
thread_local PanelVector<float> tl_bpack;

// Packs an mc x kc block of A into kMR-row panels: panel ip holds rows
// [ip*MR, ip*MR+MR) transposed to ap[p*MR + r]. A trailing panel of
// rows < kMR rows is packed just as wide (ap[p*rows + r]), the layout the
// tail kernel reads, so no row is padded: the block is exactly mc*kc floats.
void pack_a(const float* a, int lda, int mc, int kc, float* dst) {
  for (int i0 = 0; i0 < mc; i0 += kMR) {
    const int rows = std::min(kMR, mc - i0);
    const float* src = a + static_cast<std::size_t>(i0) * lda;
    float* d = dst + static_cast<std::size_t>(i0) * kc;
    for (int p = 0; p < kc; ++p)
      for (int r = 0; r < rows; ++r)
        d[p * rows + r] = src[static_cast<std::size_t>(r) * lda + p];
  }
}

// Same panels from an A stored transposed ([K, M] row-major): rows of the
// logical A block are contiguous in the source, so this is a strided copy.
void pack_a_t(const float* at, int ldat, int mc, int kc, float* dst) {
  for (int i0 = 0; i0 < mc; i0 += kMR) {
    const int rows = std::min(kMR, mc - i0);
    float* d = dst + static_cast<std::size_t>(i0) * kc;
    for (int p = 0; p < kc; ++p) {
      const float* srow = at + static_cast<std::size_t>(p) * ldat + i0;
      for (int r = 0; r < rows; ++r) d[p * rows + r] = srow[r];
    }
  }
}

// Packs a kc x nc block of B into kNR-column panels bp[p*NR + j],
// zero-padded past nc.
void pack_b(const float* b, int ldb, int kc, int nc, float* dst) {
  const int panels = (nc + kNR - 1) / kNR;
  for (int jp = 0; jp < panels; ++jp) {
    const int cols = std::min(kNR, nc - jp * kNR);
    const float* src = b + static_cast<std::size_t>(jp) * kNR;
    float* d = dst + static_cast<std::size_t>(jp) * kc * kNR;
    if (cols == kNR) {
      // A whole panel row is one fixed-size copy. With only the
      // variable-width loop below, the 1x1 head convs ran ~35% slower once
      // pack_b was compiled out of line.
      for (int p = 0; p < kc; ++p) {
        std::memcpy(d + p * kNR, src + static_cast<std::size_t>(p) * ldb,
                    sizeof(float) * kNR);
      }
      continue;
    }
    for (int p = 0; p < kc; ++p) {
      const float* srow = src + static_cast<std::size_t>(p) * ldb;
      for (int j = 0; j < cols; ++j) d[p * kNR + j] = srow[j];
      for (int j = cols; j < kNR; ++j) d[p * kNR + j] = 0.0f;
    }
  }
}

// Same panels from a B stored transposed ([N, K] row-major): column j of
// the logical block is source row j.
void pack_b_t(const float* bt, int ldbt, int kc, int nc, float* dst) {
  const int panels = (nc + kNR - 1) / kNR;
  for (int jp = 0; jp < panels; ++jp) {
    const int cols = std::min(kNR, nc - jp * kNR);
    const float* src = bt + static_cast<std::size_t>(jp) * kNR * ldbt;
    float* d = dst + static_cast<std::size_t>(jp) * kc * kNR;
    for (int j = 0; j < cols; ++j) {
      const float* srow = src + static_cast<std::size_t>(j) * ldbt;
      for (int p = 0; p < kc; ++p) d[p * kNR + j] = srow[p];
    }
    for (int j = cols; j < kNR; ++j)
      for (int p = 0; p < kc; ++p) d[p * kNR + j] = 0.0f;
  }
}

// Calls run(b, l, j, len) for each run of columns [j0, j0 + n) that lies
// in one sample of hw columns: lanes [l, l + len) are columns [j, j + len)
// of sample b. Shared by the conv B pack and the conv output store.
template <typename Run>
void sample_runs(int j0, int n, int hw, Run run) {
  for (int j = j0; j < j0 + n;) {
    const int b = j / hw;
    const int end = std::min(j0 + n, (b + 1) * hw);
    run(b, j - j0, j, end - j);
    j = end;
  }
}

// Packs rows [kc0, kc0 + kc) x columns [jc, jc + nc) of the lowered
// convolution input (see ConvPlan) into kNR-column panels bp[p*kNR + j],
// zero past the batch's last column: bitwise the panels pack_b builds from
// im2col. Each panel row is one masked 16-lane load per sample the panel
// covers; the masks zero the taps that fall off the board.
void pack_b_conv(const ConvInput& in, int kc0, int kc, int jc, int nc,
                 float* dst) {
  const ConvPlan& plan = *in.plan;
  const int hw = plan.height * plan.width;
  const int taps = plan.ksize * plan.ksize;
  const std::ptrdiff_t sample = static_cast<std::ptrdiff_t>(in.channels) * hw;
  const int panels = (nc + kNR - 1) / kNR;
  for (int jp = 0; jp < panels; ++jp) {
    // The panel's runs in one sample: where lane 0 of the run would read
    // channel 0 at tap offset 0, its first lane, and its tap-0 lane masks.
    std::ptrdiff_t run_off[kNR];
    int run_lane[kNR];
    const std::uint16_t* run_mask[kNR];
    int nruns = 0;
    sample_runs(jc + jp * kNR, std::min(kNR, nc - jp * kNR), hw,
                [&](int b, int l, int j, int) {
                  const int q0 = j - b * hw;
                  run_off[nruns] = b * sample + q0 - l;
                  run_lane[nruns] = l;
                  run_mask[nruns] = plan.masks.data() + q0;
                  ++nruns;
                });
    float* d = dst + static_cast<std::size_t>(jp) * kc * kNR;
    int c = kc0 / taps, t = kc0 % taps;
    for (int p = 0; p < kc; ++p) {
      const std::ptrdiff_t row =
          static_cast<std::ptrdiff_t>(c) * hw + plan.tap_off[t];
      const std::ptrdiff_t tap_masks = static_cast<std::ptrdiff_t>(t) * hw;
#if defined(__AVX512F__)
      // Masked-off lanes are neither read nor faulted on.
      __m512 v = _mm512_setzero_ps();
      for (int s = 0; s < nruns; ++s) {
        const auto mask =
            static_cast<__mmask16>(run_mask[s][tap_masks] << run_lane[s]);
        v = _mm512_mask_loadu_ps(v, mask, in.x + run_off[s] + row);
      }
      _mm512_storeu_ps(d + p * kNR, v);
#else
      float* dr = d + p * kNR;
      for (int l = 0; l < kNR; ++l) dr[l] = 0.0f;
      for (int s = 0; s < nruns; ++s) {
        const unsigned mask =
            static_cast<std::uint16_t>(run_mask[s][tap_masks] << run_lane[s]);
        const std::ptrdiff_t base = run_off[s] + row;
        for (int l = 0; l < kNR; ++l) {
          if ((mask >> l) & 1u) dr[l] = in.x[base + l];
        }
      }
#endif
      if (++t == taps) {
        t = 0;
        ++c;
      }
    }
  }
}

// The fp32 micro-kernel: R rows of an A panel (ap[p*R + r]) against P
// consecutive 16-lane B panels (panel_stride floats apart), one 16-lane
// accumulator per (row, panel) held in registers across the whole K loop.
// acc receives P [R][kNR] tiles back to back. The vectors are spelled out
// with the GCC/Clang vector extension because the auto-vectoriser rejects
// this shape; a 16-lane op lowers to one zmm op with AVX-512, two ymm ops
// with AVX2, four xmm ops on baseline x86-64. Every lane runs the same
// chain c += a * b over k whatever R and P are (contracted to one fused
// multiply-add where the target has FMA), so a row of C is bitwise the
// same computed in a full tile, in a tail tile or alone. There is no
// zero-skip branch (it defeats unrolling and costs more than it saves on
// dense panels).
using v16f = float __attribute__((vector_size(64), aligned(4)));

template <int R, int P>
void micro_kernel(const float* __restrict ap, const float* __restrict bp,
                  std::size_t panel_stride, int kc, float* __restrict acc) {
  v16f c[P][R] = {};
  for (int p = 0; p < kc; ++p) {
    // memcpy loads read the float panels without type punning and avoid
    // passing vector types across function boundaries (-Wpsabi on non-AVX
    // builds).
    const float* bk = bp + static_cast<std::size_t>(p) * kNR;
    v16f b[P];
    for (int q = 0; q < P; ++q) {
      std::memcpy(&b[q], bk + q * panel_stride, sizeof(v16f));
    }
    for (int r = 0; r < R; ++r) {
      const float a = ap[p * R + r];
      for (int q = 0; q < P; ++q) c[q][r] += a * b[q];
    }
  }
  std::memcpy(acc, c, sizeof c);
}

// Writes one micro-tile into C. `first` selects store vs accumulate for the
// leading K block; `last` applies the fused bias/ReLU epilogue once the full
// K extent has been reduced.
void store_tile(float* c, int ldc, const float* acc, int i0, int j0, int mr,
                int nr, bool first, bool last, bool accumulate,
                const float* row_bias, const float* col_bias, bool relu) {
  for (int i = 0; i < mr; ++i) {
    float* crow = c + static_cast<std::size_t>(i0 + i) * ldc + j0;
    const float* arow = acc + static_cast<std::size_t>(i) * kNR;
    if (first && !accumulate) {
      for (int j = 0; j < nr; ++j) crow[j] = arow[j];
    } else {
      for (int j = 0; j < nr; ++j) crow[j] += arow[j];
    }
    if (last) {
      if (row_bias != nullptr) {
        const float bi = row_bias[i0 + i];
        for (int j = 0; j < nr; ++j) crow[j] += bi;
      }
      if (col_bias != nullptr) {
        for (int j = 0; j < nr; ++j) crow[j] += col_bias[j0 + j];
      }
      if (relu) {
        for (int j = 0; j < nr; ++j) crow[j] = std::max(crow[j], 0.0f);
      }
    }
  }
}

// Where C lives. A matrix GEMM writes row-major C[M, N]; a convolution
// writes y[B, M, hw], column j = b*hw + q of row i landing at y[b][i][q].
// One view covers both: `hw` columns per sample (N for a matrix, so every
// tile lies in sample 0) and `sample` floats from one sample to the next.
struct OutView {
  float* c;
  int hw;
  std::size_t sample;

  // Calls store(cb, s, j, len) for each run of a tile's columns
  // [j0, j0 + nr) that lies in one sample: tile lanes [s, s + len) are
  // columns [j, j + len), and cb addresses that sample's output as a
  // [M, hw] matrix indexed by the global column j.
  template <typename Store>
  void split(int j0, int nr, Store store) const {
    sample_runs(j0, nr, hw, [&](int b, int s, int j, int len) {
      store(c + b * (sample - hw), s, j, len);
    });
  }
};

// The destination and epilogue of every micro-tile of one K block.
struct TileStore {
  OutView out;
  bool first;
  bool last;
  bool accumulate;
  const float* row_bias;
  const float* col_bias;
  bool relu;

  void operator()(const float* acc, int i0, int j0, int mr, int nr) const {
    out.split(j0, nr, [&](float* cb, int s, int j, int len) {
      store_tile(cb, out.hw, acc + s, i0, j, mr, len, first, last,
                 accumulate, row_bias, col_bias, relu);
    });
  }
};

// The P-wide kernel call, narrowed to the np <= P panels left.
template <int R, int P>
void micro_kernel_upto(int np, const float* ap, const float* bp,
                       std::size_t panel_stride, int kc, float* acc) {
  if constexpr (P > 1) {
    if (np < P) {
      return micro_kernel_upto<R, P - 1>(np, ap, bp, panel_stride, kc, acc);
    }
  }
  micro_kernel<R, P>(ap, bp, panel_stride, kc, acc);
}

// The `rows` < kMR trailing rows of an m-block, dispatched down from R =
// kMR - 1. A short tile keeps the FMA pipes full by taking P = min(4,
// kMR / R) B panels per call (R * P accumulators, never more than a full
// tile's kMR), and the panels left over run as one narrower call.
template <int R>
void tail_tiles(int rows, const float* ap, const float* bpack, int kc, int nc,
                int i0, int jc, const TileStore& store) {
  if constexpr (R > 1) {
    if (rows < R) {
      return tail_tiles<R - 1>(rows, ap, bpack, kc, nc, i0, jc, store);
    }
  }
  constexpr int P = std::min(4, kMR / R);
  const int n_panels = (nc + kNR - 1) / kNR;
  const std::size_t stride = static_cast<std::size_t>(kc) * kNR;
  float acc[P * R * kNR];
  for (int jp = 0; jp < n_panels; jp += P) {
    const int np = std::min(P, n_panels - jp);
    micro_kernel_upto<R, P>(np, ap, bpack + jp * stride, stride, kc, acc);
    for (int q = 0; q < np; ++q) {
      const int j = (jp + q) * kNR;
      store(acc + q * R * kNR, i0, jc + j, R, std::min(kNR, nc - j));
    }
  }
}

// Every micro-tile of one (m-block, column range, K block): whole kMR-row
// panels on the full tile, B panel outermost so it stays in L1, then the
// trailing partial panel on the tail kernel.
void compute_block(const float* apack, const float* bpack, int kc, int mc,
                   int nc, int i0, int jc, const TileStore& store) {
  const int n_panels = (nc + kNR - 1) / kNR;
  const int full = mc / kMR;
  float acc[kMR * kNR];
  for (int jp = 0; jp < n_panels; ++jp) {
    const float* bp = bpack + static_cast<std::size_t>(jp) * kc * kNR;
    const int nr = std::min(kNR, nc - jp * kNR);
    for (int ip = 0; ip < full; ++ip) {
      micro_kernel<kMR, 1>(apack + static_cast<std::size_t>(ip) * kc * kMR,
                           bp, 0, kc, acc);
      store(acc, i0 + ip * kMR, jc + jp * kNR, kMR, nr);
    }
  }
  if (const int rows = mc - full * kMR; rows > 0) {
    tail_tiles<kMR - 1>(rows, apack + static_cast<std::size_t>(full) * kc * kMR,
                        bpack, kc, nc, i0 + full * kMR, jc, store);
  }
}

// A degenerate (K = 0) product into row-major C[M, N]: C (+)= the epilogue
// of an empty sum.
void empty_sum(float* c, int m, int n, bool accumulate, const float* row_bias,
               const float* col_bias, bool relu) {
  for (int i = 0; i < m; ++i) {
    float* crow = c + static_cast<std::size_t>(i) * n;
    if (!accumulate) std::memset(crow, 0, static_cast<std::size_t>(n) * 4);
    if (row_bias) for (int j = 0; j < n; ++j) crow[j] += row_bias[i];
    if (col_bias) for (int j = 0; j < n; ++j) crow[j] += col_bias[j];
    if (relu) for (int j = 0; j < n; ++j) crow[j] = std::max(crow[j], 0.0f);
  }
}

// One GEMM operand as the driver consumes it: a row-major matrix packed
// into panels by every call (`trans`: A stored [K, M], B stored [N, K]),
// weights whose panels pack_weights built once (`panels` non-null; a K
// block's panels lie back to back, blocks in K order), or — B only — a
// convolution input gathered into panels by every call (`conv` non-null),
// which also makes C the convolution's [B, M, H*W] output.
struct Operand {
  const float* data = nullptr;
  bool trans = false;
  const float* panels = nullptr;
  const ConvInput* conv = nullptr;
};

OutView output_view(const Operand& b, float* c, int m, int n) {
  const int hw =
      b.conv != nullptr ? b.conv->plan->height * b.conv->plan->width : n;
  return {c, hw, static_cast<std::size_t>(m) * hw};
}

// One (column block, K block) of B as kNR-column panels: pre-packed weights
// in place, otherwise packed into the calling thread's buffer from the
// matrix, its transpose or the convolution input.
const float* b_panels(const Operand& b, int n, int k, int kc0, int kc,
                      int jc, int nc) {
  if (b.panels != nullptr) {
    // Columns of one K block of pre-packed B, padded to whole panels.
    const auto b_cols = static_cast<std::size_t>((n + kNR - 1) / kNR * kNR);
    return b.panels + kc0 * b_cols + static_cast<std::size_t>(jc) * kc;
  }
  const int n_panels = (nc + kNR - 1) / kNR;
  float* buf =
      pack_buffer(tl_bpack, static_cast<std::size_t>(n_panels) * kc * kNR);
  if (b.conv != nullptr) {
    pack_b_conv(*b.conv, kc0, kc, jc, nc, buf);
  } else if (b.trans) {
    pack_b_t(b.data + static_cast<std::size_t>(jc) * k + kc0, k, kc, nc, buf);
  } else {
    pack_b(b.data + static_cast<std::size_t>(kc0) * n + jc, n, kc, nc, buf);
  }
  return buf;
}

// Every m-block of C for one (column block, K block): packs A per block
// unless it is pre-packed, then runs the micro-tiles against bpack. Kept
// out of line: inlined into gemm_driver, the batch-1 linear layers (one
// packed A row) ran ~25% slower.
[[gnu::noinline]] void row_blocks(const Operand& a, const float* bpack, int m,
                                  int k, int kc0, int kc, int nc, int jc,
                                  const TileStore& store) {
  for (int i0 = 0; i0 < m; i0 += kMC) {
    const int mc = std::min(kMC, m - i0);
    const float* apack;
    if (a.panels != nullptr) {
      // A pre-packed K block holds all m rows (the tail panel as wide as
      // its rows, no padding).
      apack = a.panels + static_cast<std::size_t>(kc0) * m +
              static_cast<std::size_t>(i0) * kc;
    } else {
      float* buf = pack_buffer(tl_apack, static_cast<std::size_t>(mc) * kc);
      if (a.trans) {
        pack_a_t(a.data + static_cast<std::size_t>(kc0) * m + i0, m, mc, kc,
                 buf);
      } else {
        pack_a(a.data + static_cast<std::size_t>(i0) * k + kc0, k, mc, kc,
               buf);
      }
      apack = buf;
    }
    compute_block(apack, bpack, kc, mc, nc, i0, jc, store);
  }
}

// Shared GEMM driver: packs the per-call operands into the calling
// thread's buffers and runs the kNC / kKC / m-block / micro-kernel loops.
// Bias epilogues require accumulate == false.
void gemm_driver(const Operand& a, const Operand& b, const float* row_bias,
                 const float* col_bias, float* c, int m, int n, int k,
                 bool accumulate, bool relu) {
  APM_DCHECK(m >= 0 && n >= 0 && k >= 0);
  APM_DCHECK(!(accumulate && (row_bias || col_bias || relu)));
  if (m == 0 || n == 0) return;
  if (k == 0) {
    empty_sum(c, m, n, accumulate, row_bias, col_bias, relu);
    return;
  }

  const OutView out = output_view(b, c, m, n);
  for (int jc = 0; jc < n; jc += kNC) {
    const int nc = std::min(kNC, n - jc);
    for (int kc0 = 0; kc0 < k; kc0 += kKC) {
      const int kc = std::min(kKC, k - kc0);
      const float* bpack = b_panels(b, n, k, kc0, kc, jc, nc);
      const TileStore store{out,        kc0 == 0, kc0 + kc == k, accumulate,
                            row_bias,   col_bias, relu};
      row_blocks(a, bpack, m, k, kc0, kc, nc, jc, store);
    }
  }
}

// --- int8 quantized GEMM ----------------------------------------------------
// Same blocking skeleton as the fp32 driver (kMC/kKC/kNC, kQ8MR x kNR tiles),
// but the panels hold 8-bit integers grouped in K-quads of 4 — the shape
// vpdpbusd consumes: one 64-byte panel vector is 16 lanes x 4 consecutive
// K steps. The weight side is pre-quantized signed int8 with a per-row
// (output-channel) scale ws; the activation side is quantized during the
// pack with an asymmetric per-(K-block, lane) min/scale,
//
//     x ~= lo + q * as,   q in [0, 255]  (lo <= 0 <= hi widens the range
//                                         so 0 is always representable),
//
// so a K-block's exact integer product dequantizes as
//
//     sum_p w x  ~=  ws * as * sum_p(wq * q)  +  ws * lo * sum_p(wq),
//
// with sum_p(wq) (per row, per K-block) computed once, when pack_weights_q8
// builds the layer's weight panels.
// Zero padding is exact on the weight side (wq = 0 annihilates whatever the
// padded activation byte holds), so the kernels never branch on remainders.
// Accumulators span one K-block: |sum| <= kKC * 255 * 127 ~= 8.3e6, far
// from int32 overflow. C accumulates across K-blocks in float in a fixed
// block order, so — with exact integer tiles and a fixed per-element
// dequant — results are bitwise identical for the SIMD vs scalar kernels.

thread_local std::vector<std::uint8_t> tl_q8_apack;
thread_local std::vector<std::uint8_t> tl_q8_bpack;
thread_local std::vector<float> tl_q8_a_scale;
thread_local std::vector<float> tl_q8_a_corr;
thread_local std::vector<float> tl_q8_b_scale;
thread_local std::vector<float> tl_q8_b_corr;

// Quantizes one K block of kNR-lane fp32 panels bp[jp][p*kNR + j] (from
// b_panels, the same gather the fp32 GEMM packs; padding lanes hold 0)
// into K-quad panels dst[jp][(p/4)*kNR*4 + j*4 + p%4], writing the per-lane
// dequant scale and offset (lane j of panel jp at index jp*kNR + j;
// padding lanes get scale 0). A panel row is one 16-lane vector, so the
// min/max and the quantization run lane-parallel, and the four rows of a
// K-quad interleave into one 64-byte store.
void quantize_panels_q8(const float* bp, int kc, int panels, int kq,
                        std::uint8_t* dst, float* scale, float* off) {
  using v16i = std::int32_t __attribute__((vector_size(64), aligned(4)));
  for (int jp = 0; jp < panels; ++jp) {
    const float* src = bp + static_cast<std::size_t>(jp) * kc * kNR;
    v16f lo = {}, hi = {};  // 0 in range: padding-exact
    for (int p = 0; p < kc; ++p) {
      v16f row;
      std::memcpy(&row, src + static_cast<std::size_t>(p) * kNR, sizeof row);
      lo = row < lo ? row : lo;  // std::min(lo, row), lane by lane
      hi = hi < row ? row : hi;  // std::max(hi, row)
    }
    const v16f range = hi - lo;
    const v16f zero = {};
    const v16f inv = range > zero ? 255.0f / range : zero;
    const v16f step = range / 255.0f;
    std::memcpy(scale + jp * kNR, &step, sizeof step);
    std::memcpy(off + jp * kNR, &lo, sizeof lo);
    std::uint8_t* d = dst + static_cast<std::size_t>(jp) * kq * kNR * 4;
    for (int q = 0; q < kq; ++q) {
      v16i quad = {};
      for (int t = 0; t < 4 && q * 4 + t < kc; ++t) {
        v16f row;
        std::memcpy(&row, src + static_cast<std::size_t>(q * 4 + t) * kNR,
                    sizeof row);
        // (x - lo) * inv >= 0, so +0.5f-truncate is round-half-up —
        // branch-free, identical on every host; the byte is its low 8 bits.
        const v16i u = __builtin_convertvector((row - lo) * inv + 0.5f, v16i);
        quad |= (u & 0xFF) << (8 * t);
      }
      std::memcpy(d + static_cast<std::size_t>(q) * kNR * 4, &quad,
                  sizeof quad);
    }
  }
}

// Activation rows (the linear A side, contiguous in K): kQ8MR-row K-quad
// panels dst[ip][(p/4)*kQ8MR*4 + r*4 + p%4] with per-row scale/offset.
void pack_act_rows_q8(const float* a, int lda, int mc, int kc, int kq,
                      std::uint8_t* dst, float* scale, float* off) {
  const int panels = (mc + kQ8MR - 1) / kQ8MR;
  for (int ip = 0; ip < panels; ++ip) {
    std::uint8_t* d = dst + static_cast<std::size_t>(ip) * kq * kQ8MR * 4;
    for (int r = 0; r < kQ8MR; ++r) {
      const int rr = ip * kQ8MR + r;
      const int lane = ip * kQ8MR + r;
      if (rr >= mc) {
        for (int q = 0; q < kq; ++q)
          for (int t = 0; t < 4; ++t) d[(q * kQ8MR + r) * 4 + t] = 0;
        scale[lane] = 0.0f;
        off[lane] = 0.0f;
        continue;
      }
      const float* src = a + static_cast<std::size_t>(rr) * lda;
      float lo = 0.0f, hi = 0.0f;
      for (int p = 0; p < kc; ++p) {
        lo = std::min(lo, src[p]);
        hi = std::max(hi, src[p]);
      }
      const float range = hi - lo;
      const float inv = range > 0.0f ? 255.0f / range : 0.0f;
      scale[lane] = range / 255.0f;
      off[lane] = lo;
      for (int p = 0; p < kc; ++p) {
        d[(p >> 2) * kQ8MR * 4 + r * 4 + (p & 3)] = static_cast<std::uint8_t>(
            static_cast<int>((src[p] - lo) * inv + 0.5f));
      }
      for (int p = kc; p < kq * 4; ++p) {
        d[(p >> 2) * kQ8MR * 4 + r * 4 + (p & 3)] = 0;
      }
    }
  }
}

// One K block of pre-quantized weight rows Wq[rows, K] as K-quad panels
// `width` lanes wide (the conv A side: kQ8MR rows, lane = row; the linear
// abt B side: kNR lanes, lane = weight row) plus the per-lane block sum of
// wq (the dequant correction term). Padding lanes are zero.
void pack_wq_rows(const std::int8_t* wq, int ldw, int rows, int kc, int kq,
                  int width, std::uint8_t* dst, std::int32_t* wqsum) {
  const int panels = (rows + width - 1) / width;
  for (int ip = 0; ip < panels; ++ip) {
    std::uint8_t* d = dst + static_cast<std::size_t>(ip) * kq * width * 4;
    for (int r = 0; r < width; ++r) {
      const int rr = ip * width + r;
      std::int32_t s = 0;
      for (int p = 0; p < kq * 4; ++p) {
        const std::int8_t v =
            rr < rows && p < kc ? wq[static_cast<std::size_t>(rr) * ldw + p]
                                : 0;
        s += v;
        d[(p >> 2) * width * 4 + r * 4 + (p & 3)] =
            static_cast<std::uint8_t>(v);
      }
      wqsum[rr] = s;
    }
  }
}

// 4x16 int8 micro-kernel over kq K-quads: acc[4][16] (int32) = sum of
// u8 x s8 byte products. kPanelUnsigned selects which operand holds the
// unsigned activation bytes: true = the kNR-lane panel (conv), false = the
// kQ8MR-row broadcast side (linear). Both kernels produce exact integer sums,
// so they are interchangeable bit-for-bit.
#if defined(APM_Q8_VNNI)
template <bool kPanelUnsigned>
void micro_kernel_q8_4x16(const std::uint8_t* __restrict ap,
                          const std::uint8_t* __restrict bp, int kq,
                          std::int32_t* __restrict acc) {
  __m512i c0 = _mm512_setzero_si512();
  __m512i c1 = _mm512_setzero_si512();
  __m512i c2 = _mm512_setzero_si512();
  __m512i c3 = _mm512_setzero_si512();
  for (int q = 0; q < kq; ++q) {
    const __m512i bv =
        _mm512_loadu_si512(bp + static_cast<std::size_t>(q) * kNR * 4);
    std::int32_t aq[kQ8MR];
    std::memcpy(aq, ap + static_cast<std::size_t>(q) * kQ8MR * 4, sizeof aq);
    const __m512i a0 = _mm512_set1_epi32(aq[0]);
    const __m512i a1 = _mm512_set1_epi32(aq[1]);
    const __m512i a2 = _mm512_set1_epi32(aq[2]);
    const __m512i a3 = _mm512_set1_epi32(aq[3]);
    if constexpr (kPanelUnsigned) {
      // vpdpbusd: first multiplicand unsigned, second signed.
      c0 = _mm512_dpbusd_epi32(c0, bv, a0);
      c1 = _mm512_dpbusd_epi32(c1, bv, a1);
      c2 = _mm512_dpbusd_epi32(c2, bv, a2);
      c3 = _mm512_dpbusd_epi32(c3, bv, a3);
    } else {
      c0 = _mm512_dpbusd_epi32(c0, a0, bv);
      c1 = _mm512_dpbusd_epi32(c1, a1, bv);
      c2 = _mm512_dpbusd_epi32(c2, a2, bv);
      c3 = _mm512_dpbusd_epi32(c3, a3, bv);
    }
  }
  _mm512_storeu_si512(acc + 0 * kNR, c0);
  _mm512_storeu_si512(acc + 1 * kNR, c1);
  _mm512_storeu_si512(acc + 2 * kNR, c2);
  _mm512_storeu_si512(acc + 3 * kNR, c3);
}
#else
template <bool kPanelUnsigned>
void micro_kernel_q8_4x16(const std::uint8_t* __restrict ap,
                          const std::uint8_t* __restrict bp, int kq,
                          std::int32_t* __restrict acc) {
  std::int32_t c[kQ8MR][kNR] = {};
  for (int q = 0; q < kq; ++q) {
    const std::uint8_t* aq = ap + static_cast<std::size_t>(q) * kQ8MR * 4;
    const std::uint8_t* bq = bp + static_cast<std::size_t>(q) * kNR * 4;
    for (int r = 0; r < kQ8MR; ++r) {
      for (int t = 0; t < 4; ++t) {
        const int av = kPanelUnsigned
                           ? static_cast<int>(
                                 static_cast<std::int8_t>(aq[r * 4 + t]))
                           : static_cast<int>(aq[r * 4 + t]);
        if (av == 0) continue;  // zero padding and sparse weights
        for (int j = 0; j < kNR; ++j) {
          const int bv = kPanelUnsigned
                             ? static_cast<int>(bq[j * 4 + t])
                             : static_cast<int>(
                                   static_cast<std::int8_t>(bq[j * 4 + t]));
          c[r][j] += av * bv;
        }
      }
    }
  }
  std::memcpy(acc, c, sizeof c);
}
#endif

// Dequantizing store: C (+)= rs[i]*cs[j]*acc[i][j] + rc[i]*cc[j], the fused
// bias/ReLU epilogue on the last K block. The four per-lane arrays are
// tile-local views: conv maps (rs, rc) = (ws, ws*wqsum) on rows and
// (cs, cc) = (act scale, act min) on columns; linear swaps the roles.
void store_tile_q8(float* c, int ldc, const std::int32_t* acc, int i0,
                   int j0, int mr, int nr, const float* rs, const float* cs,
                   const float* rc, const float* cc, bool first, bool last,
                   const float* row_bias, const float* col_bias, bool relu) {
  for (int i = 0; i < mr; ++i) {
    float* crow = c + static_cast<std::size_t>(i0 + i) * ldc + j0;
    const std::int32_t* arow = acc + static_cast<std::size_t>(i) * kNR;
    const float rsi = rs[i];
    const float rci = rc[i];
    if (first) {
      for (int j = 0; j < nr; ++j) {
        crow[j] = rsi * cs[j] * static_cast<float>(arow[j]) + rci * cc[j];
      }
    } else {
      for (int j = 0; j < nr; ++j) {
        crow[j] += rsi * cs[j] * static_cast<float>(arow[j]) + rci * cc[j];
      }
    }
    if (last) {
      if (row_bias != nullptr) {
        const float bi = row_bias[i0 + i];
        for (int j = 0; j < nr; ++j) crow[j] += bi;
      }
      if (col_bias != nullptr) {
        for (int j = 0; j < nr; ++j) crow[j] += col_bias[j0 + j];
      }
      if (relu) {
        for (int j = 0; j < nr; ++j) crow[j] = std::max(crow[j], 0.0f);
      }
    }
  }
}

// Every m-block of C for one (column block, K block) of the int8 GEMM:
// quantizes and packs the activation rows per block in the linear shape,
// then runs the tiles against the B-side panels bpack with per-lane
// dequant terms cs/cc. Kept out of line: inlined into gemm_q8_driver, the
// int8 convs ran up to 20% slower.
[[gnu::noinline]] void q8_row_blocks(const PackedWeightsQ8& w,
                                     const float* act, const float* bias,
                                     const OutView& out, int m, int k,
                                     int kc0, int nc, int jc,
                                     const std::uint8_t* bpack,
                                     const float* cs, const float* cc,
                                     bool relu) {
  const bool weights_a = w.role == WeightRole::kA;
  const float* row_bias = weights_a ? bias : nullptr;
  const float* col_bias = weights_a ? nullptr : bias;
  const int kc = std::min(kKC, k - kc0);
  const int kq = (kc + 3) / 4;
  const bool first = kc0 == 0;
  const bool last = kc0 + kc == k;
  const int n_panels = (nc + kNR - 1) / kNR;
  const std::size_t w_rows = w.scale.size();  // whole panels
  const std::uint8_t* wblock = w.panels.data() + kc0 * w_rows;
  const float* wcorr = w.corr.data() + kc0 / kKC * w_rows;
  for (int i0 = 0; i0 < m; i0 += kMC) {
    const int mc = std::min(kMC, m - i0);
    const int m_panels = (mc + kQ8MR - 1) / kQ8MR;
    const std::uint8_t* apack;
    const float* rs;
    const float* rc;
    if (weights_a) {
      apack = wblock + static_cast<std::size_t>(i0) * kq * 4;
      rs = w.scale.data() + i0;
      rc = wcorr + i0;
    } else {
      std::uint8_t* buf = pack_buffer(
          tl_q8_apack,
          static_cast<std::size_t>(m_panels) * kq * kQ8MR * 4);
      float* scale = pack_buffer(
          tl_q8_a_scale, static_cast<std::size_t>(m_panels) * kQ8MR);
      float* off = pack_buffer(
          tl_q8_a_corr, static_cast<std::size_t>(m_panels) * kQ8MR);
      pack_act_rows_q8(act + static_cast<std::size_t>(i0) * k + kc0, k,
                       mc, kc, kq, buf, scale, off);
      apack = buf;
      rs = scale;
      rc = off;
    }
    std::int32_t acc[kQ8MR * kNR];
    for (int jp = 0; jp < n_panels; ++jp) {
      const std::uint8_t* bp =
          bpack + static_cast<std::size_t>(jp) * kq * kNR * 4;
      const int nr = std::min(kNR, nc - jp * kNR);
      for (int ip = 0; ip < m_panels; ++ip) {
        const std::uint8_t* ap =
            apack + static_cast<std::size_t>(ip) * kq * kQ8MR * 4;
        const int mr = std::min(kQ8MR, mc - ip * kQ8MR);
        if (weights_a) {
          micro_kernel_q8_4x16<true>(ap, bp, kq, acc);
        } else {
          micro_kernel_q8_4x16<false>(ap, bp, kq, acc);
        }
        out.split(jc + jp * kNR, nr, [&](float* cb, int s, int j, int len) {
          store_tile_q8(cb, out.hw, acc + s, i0 + ip * kQ8MR, j, mr, len,
                        rs + ip * kQ8MR, cs + jp * kNR + s, rc + ip * kQ8MR,
                        cc + jp * kNR + s, first, last, row_bias, col_bias,
                        relu);
        });
      }
    }
  }
}

// Int8 GEMM driver: the q8 counterpart of gemm_driver. The weights' role
// selects the conv shape (A = packed Wq[M,K], B = fp32 activations —
// the matrix `act` or the convolution input `conv` — packed into fp32
// panels and quantized from them) vs the linear-abt shape (A = fp32
// activation rows `act`, B = packed Wq[N,K]).
void gemm_q8_driver(const PackedWeightsQ8& w, const float* act,
                    const ConvInput* conv, const float* bias, float* c, int m,
                    int n, int k, bool relu) {
  APM_DCHECK(m >= 0 && n >= 0 && k >= 0);
  const bool weights_a = w.role == WeightRole::kA;
  const float* row_bias = weights_a ? bias : nullptr;
  const float* col_bias = weights_a ? nullptr : bias;
  if (m == 0 || n == 0) return;
  if (k == 0) {
    empty_sum(c, m, n, false, row_bias, col_bias, relu);
    return;
  }

  const std::size_t w_rows = w.scale.size();  // whole panels
  const Operand b{act, false, nullptr, conv};
  const OutView out = output_view(b, c, m, n);
  for (int jc = 0; jc < n; jc += kNC) {
    const int nc = std::min(kNC, n - jc);
    const int n_panels = (nc + kNR - 1) / kNR;
    for (int kc0 = 0; kc0 < k; kc0 += kKC) {
      const int kc = std::min(kKC, k - kc0);
      const int kq = (kc + 3) / 4;
      // Every K block but the last is kKC deep (a whole number of quads),
      // so block kc0 of the weight panels starts kc0 * w_rows bytes in.
      const std::uint8_t* wblock = w.panels.data() + kc0 * w_rows;
      const float* wcorr = w.corr.data() + kc0 / kKC * w_rows;
      const std::uint8_t* bpack;
      const float* cs;
      const float* cc;
      if (weights_a) {
        std::uint8_t* buf = pack_buffer(
            tl_q8_bpack, static_cast<std::size_t>(n_panels) * kq * kNR * 4);
        float* scale = pack_buffer(tl_q8_b_scale,
                                   static_cast<std::size_t>(n_panels) * kNR);
        float* off = pack_buffer(tl_q8_b_corr,
                                 static_cast<std::size_t>(n_panels) * kNR);
        quantize_panels_q8(b_panels(b, n, k, kc0, kc, jc, nc), kc, n_panels,
                           kq, buf, scale, off);
        bpack = buf;
        cs = scale;
        cc = off;
      } else {
        bpack = wblock + static_cast<std::size_t>(jc) * kq * 4;
        cs = w.scale.data() + jc;
        cc = wcorr + jc;
      }
      q8_row_blocks(w, act, bias, out, m, k, kc0, nc, jc, bpack, cs, cc,
                    relu);
    }
  }
}

}  // namespace

void gemm(const float* a, const float* b, float* c, int m, int n, int k,
          bool accumulate) {
  gemm_driver(Operand{a}, Operand{b}, nullptr, nullptr, c, m, n, k,
              accumulate, false);
}

void gemm_bias_relu(const float* a, const float* b, const float* bias,
                    float* c, int m, int n, int k, bool relu) {
  gemm_driver(Operand{a}, Operand{b}, bias, nullptr, c, m, n, k, false, relu);
}

void gemm_atb(const float* a, const float* b, float* c, int m, int n, int k,
              bool accumulate) {
  gemm_driver(Operand{a, true}, Operand{b}, nullptr, nullptr, c, m, n, k,
              accumulate, false);
}

void gemm_abt(const float* a, const float* b, float* c, int m, int n, int k,
              bool accumulate) {
  gemm_driver(Operand{a}, Operand{b, true}, nullptr, nullptr, c, m, n, k,
              accumulate, false);
}

void gemm_abt_bias_relu(const float* a, const float* b, const float* bias,
                        float* c, int m, int n, int k, bool relu) {
  gemm_driver(Operand{a}, Operand{b, true}, nullptr, bias, c, m, n, k, false,
              relu);
}

void pack_weights(const float* w, int rows, int k, WeightRole role,
                  PackedWeights& out) {
  APM_CHECK(rows >= 0 && k >= 0);
  // A panels pack exactly `rows` rows per K block; B panels pad to kNR.
  const std::size_t padded =
      role == WeightRole::kA
          ? static_cast<std::size_t>(rows)
          : static_cast<std::size_t>((rows + kNR - 1) / kNR) * kNR;
  out.role = role;
  out.rows = rows;
  out.k = k;
  out.panels.resize(padded * k);
  for (int kc0 = 0; kc0 < k; kc0 += kKC) {
    const int kc = std::min(kKC, k - kc0);
    float* dst = out.panels.data() + kc0 * padded;
    if (role == WeightRole::kA) {
      pack_a(w + kc0, k, rows, kc, dst);
    } else {
      pack_b_t(w + kc0, k, kc, rows, dst);
    }
  }
}

void gemm_packed_bias_relu(const PackedWeights& w, const float* b,
                           const float* bias, float* c, int n, bool relu) {
  APM_CHECK(w.role == WeightRole::kA);
  gemm_driver(Operand{nullptr, false, w.panels.data()}, Operand{b}, bias,
              nullptr, c, w.rows, n, w.k, false, relu);
}

void gemm_abt_packed_bias_relu(const float* a, const PackedWeights& w,
                               const float* bias, float* c, int m, bool relu) {
  APM_CHECK(w.role == WeightRole::kBt);
  gemm_driver(Operand{a}, Operand{nullptr, true, w.panels.data()}, nullptr,
              bias, c, m, w.rows, w.k, false, relu);
}

void quantize_rows_int8(const float* w, int rows, int k, std::int8_t* wq,
                        float* scales) {
  for (int r = 0; r < rows; ++r) {
    const float* src = w + static_cast<std::size_t>(r) * k;
    float maxabs = 0.0f;
    for (int p = 0; p < k; ++p) maxabs = std::max(maxabs, std::fabs(src[p]));
    const float s = maxabs > 0.0f ? maxabs / 127.0f : 1.0f;
    const float inv = 1.0f / s;
    std::int8_t* dst = wq + static_cast<std::size_t>(r) * k;
    for (int p = 0; p < k; ++p) {
      const long q = std::lrintf(src[p] * inv);
      dst[p] = static_cast<std::int8_t>(std::min(127l, std::max(-127l, q)));
    }
    scales[r] = s;
  }
}

void pack_weights_q8(const std::int8_t* wq, const float* wscales, int rows,
                     int k, WeightRole role, PackedWeightsQ8& out) {
  APM_CHECK(rows >= 0 && k >= 0);
  const int width = role == WeightRole::kA ? kQ8MR : kNR;
  const std::size_t padded =
      static_cast<std::size_t>((rows + width - 1) / width) * width;
  const int blocks = (k + kKC - 1) / kKC;
  out.role = role;
  out.rows = rows;
  out.k = k;
  // Each K block is stored in whole quads: k rounded up to a multiple of 4.
  out.panels.resize(padded * static_cast<std::size_t>((k + 3) / 4 * 4));
  out.scale.assign(padded, 0.0f);
  std::copy(wscales, wscales + rows, out.scale.begin());
  out.corr.resize(static_cast<std::size_t>(blocks) * padded);
  std::vector<std::int32_t> wsum(padded);
  for (int kc0 = 0; kc0 < k; kc0 += kKC) {
    const int kc = std::min(kKC, k - kc0);
    const int kq = (kc + 3) / 4;
    std::uint8_t* dst = out.panels.data() + kc0 * padded;
    pack_wq_rows(wq + kc0, k, rows, kc, kq, width, dst, wsum.data());
    float* corr = out.corr.data() + kc0 / kKC * padded;
    for (std::size_t r = 0; r < padded; ++r) {
      corr[r] = out.scale[r] * static_cast<float>(wsum[r]);
    }
  }
}

void gemm_q8_packed_bias_relu(const PackedWeightsQ8& w, const float* b,
                              const float* bias, float* c, int n, bool relu) {
  APM_CHECK(w.role == WeightRole::kA);
  gemm_q8_driver(w, b, nullptr, bias, c, w.rows, n, w.k, relu);
}

void gemm_q8_abt_packed_bias_relu(const float* a, const PackedWeightsQ8& w,
                                  const float* bias, float* c, int m,
                                  bool relu) {
  APM_CHECK(w.role == WeightRole::kBt);
  gemm_q8_driver(w, a, nullptr, bias, c, m, w.rows, w.k, relu);
}

void gemm_q8_bias_relu(const std::int8_t* wq, const float* wscales,
                       const float* b, const float* bias, float* c, int m,
                       int n, int k, bool relu) {
  PackedWeightsQ8 w;
  pack_weights_q8(wq, wscales, m, k, WeightRole::kA, w);
  gemm_q8_packed_bias_relu(w, b, bias, c, n, relu);
}

void gemm_q8_abt_bias_relu(const float* a, const std::int8_t* wq,
                           const float* wscales, const float* bias, float* c,
                           int m, int n, int k, bool relu) {
  PackedWeightsQ8 w;
  pack_weights_q8(wq, wscales, n, k, WeightRole::kBt, w);
  gemm_q8_abt_packed_bias_relu(a, w, bias, c, m, relu);
}

bool gemm_q8_simd_enabled() {
#if defined(APM_Q8_VNNI)
  return true;
#else
  return false;
#endif
}

void build_conv_plan(int height, int width, int ksize, ConvPlan& plan) {
  APM_CHECK(height > 0 && width > 0 && ksize > 0 && ksize % 2 == 1);
  const int hw = height * width;
  const int pad = ksize / 2;
  plan.height = height;
  plan.width = width;
  plan.ksize = ksize;
  plan.tap_off.clear();
  plan.masks.clear();
  for (int t = 0; t < ksize * ksize; ++t) {
    const int dy = t / ksize - pad, dx = t % ksize - pad;
    plan.tap_off.push_back(dy * width + dx);
    for (int q0 = 0; q0 < hw; ++q0) {
      unsigned mask = 0;
      for (int i = 0; i < kNR && q0 + i < hw; ++i) {
        const int iy = (q0 + i) / width + dy, ix = (q0 + i) % width + dx;
        if (iy >= 0 && iy < height && ix >= 0 && ix < width) mask |= 1u << i;
      }
      plan.masks.push_back(static_cast<std::uint16_t>(mask));
    }
  }
}

namespace {

// Columns of the lowered input, after checking that the weights' K is the
// input's C*k*k.
int conv_columns(int wk, const ConvInput& in) {
  APM_CHECK(in.plan != nullptr && in.batch >= 0 && in.channels > 0);
  APM_CHECK(wk == in.channels * in.plan->ksize * in.plan->ksize);
  return in.batch * in.plan->height * in.plan->width;
}

}  // namespace

void conv_packed_bias_relu(const PackedWeights& w, const ConvInput& in,
                           const float* bias, float* y, bool relu) {
  APM_CHECK(w.role == WeightRole::kA);
  gemm_driver(Operand{nullptr, false, w.panels.data()},
              Operand{nullptr, false, nullptr, &in}, bias, nullptr, y, w.rows,
              conv_columns(w.k, in), w.k, false, relu);
}

void conv_q8_packed_bias_relu(const PackedWeightsQ8& w, const ConvInput& in,
                              const float* bias, float* y, bool relu) {
  APM_CHECK(w.role == WeightRole::kA);
  gemm_q8_driver(w, nullptr, &in, bias, y, w.rows, conv_columns(w.k, in),
                 w.k, relu);
}

void im2col(const float* x, int channels, int height, int width, int ksize,
            int pad, float* col) {
  const std::size_t hw = static_cast<std::size_t>(height) * width;
  for (int c = 0; c < channels; ++c) {
    const float* xc = x + static_cast<std::size_t>(c) * hw;
    for (int ky = 0; ky < ksize; ++ky) {
      for (int kx = 0; kx < ksize; ++kx) {
        const std::size_t row = (static_cast<std::size_t>(c) * ksize + ky) *
                                    ksize + kx;
        for (int oy = 0; oy < height; ++oy) {
          const int iy = oy + ky - pad;
          float* drow = col + row * hw + static_cast<std::size_t>(oy) * width;
          if (iy < 0 || iy >= height) {
            std::memset(drow, 0, static_cast<std::size_t>(width) * 4);
            continue;
          }
          const float* xrow = xc + static_cast<std::size_t>(iy) * width;
          const int x0 = std::max(0, pad - kx);              // first ox in range
          const int x1 = std::min(width, width + pad - kx);  // one past last
          for (int ox = 0; ox < x0; ++ox) drow[ox] = 0.0f;
          if (x1 > x0) {
            std::memcpy(drow + x0, xrow + x0 + kx - pad,
                        static_cast<std::size_t>(x1 - x0) * 4);
          }
          for (int ox = std::max(x0, x1); ox < width; ++ox) drow[ox] = 0.0f;
        }
      }
    }
  }
}

void col2im(const float* col, int channels, int height, int width, int ksize,
            int pad, float* dx) {
  const int out_h = height;
  const int out_w = width;
  std::size_t idx = 0;
  for (int c = 0; c < channels; ++c) {
    float* xc = dx + static_cast<std::size_t>(c) * height * width;
    for (int ky = 0; ky < ksize; ++ky) {
      for (int kx = 0; kx < ksize; ++kx) {
        for (int oy = 0; oy < out_h; ++oy) {
          const int iy = oy + ky - pad;
          if (iy < 0 || iy >= height) {
            idx += static_cast<std::size_t>(out_w);
            continue;
          }
          float* xrow = xc + static_cast<std::size_t>(iy) * width;
          for (int ox = 0; ox < out_w; ++ox) {
            const int ix = ox + kx - pad;
            if (ix >= 0 && ix < width) xrow[ix] += col[idx];
            ++idx;
          }
        }
      }
    }
  }
}

void relu_forward(const float* x, float* y, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) y[i] = x[i] > 0.0f ? x[i] : 0.0f;
}

void relu_backward(const float* x, const float* dy, float* dx, std::size_t n,
                   bool accumulate) {
  if (accumulate) {
    for (std::size_t i = 0; i < n; ++i)
      dx[i] += x[i] > 0.0f ? dy[i] : 0.0f;
  } else {
    for (std::size_t i = 0; i < n; ++i) dx[i] = x[i] > 0.0f ? dy[i] : 0.0f;
  }
}

void tanh_forward(const float* x, float* y, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) y[i] = std::tanh(x[i]);
}

void tanh_backward(const float* y, const float* dy, float* dx,
                   std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) dx[i] = dy[i] * (1.0f - y[i] * y[i]);
}

void softmax_rows(const float* x, float* y, int rows, int cols) {
  for (int r = 0; r < rows; ++r) {
    const float* xr = x + static_cast<std::size_t>(r) * cols;
    float* yr = y + static_cast<std::size_t>(r) * cols;
    float mx = xr[0];
    for (int c = 1; c < cols; ++c) mx = std::max(mx, xr[c]);
    float denom = 0.0f;
    for (int c = 0; c < cols; ++c) {
      yr[c] = std::exp(xr[c] - mx);
      denom += yr[c];
    }
    const float inv = 1.0f / denom;
    for (int c = 0; c < cols; ++c) yr[c] *= inv;
  }
}

void log_softmax_rows(const float* x, float* y, int rows, int cols) {
  for (int r = 0; r < rows; ++r) {
    const float* xr = x + static_cast<std::size_t>(r) * cols;
    float* yr = y + static_cast<std::size_t>(r) * cols;
    float mx = xr[0];
    for (int c = 1; c < cols; ++c) mx = std::max(mx, xr[c]);
    float denom = 0.0f;
    for (int c = 0; c < cols; ++c) denom += std::exp(xr[c] - mx);
    const float log_denom = std::log(denom) + mx;
    for (int c = 0; c < cols; ++c) yr[c] = xr[c] - log_denom;
  }
}

float sum(const float* x, std::size_t n) {
  double acc = 0.0;
  for (std::size_t i = 0; i < n; ++i) acc += x[i];
  return static_cast<float>(acc);
}

float dot(const float* a, const float* b, std::size_t n) {
  double acc = 0.0;
  for (std::size_t i = 0; i < n; ++i) acc += static_cast<double>(a[i]) * b[i];
  return static_cast<float>(acc);
}

float max_abs_diff(const Tensor& a, const Tensor& b) {
  APM_CHECK(a.numel() == b.numel());
  float mx = 0.0f;
  for (std::size_t i = 0; i < a.numel(); ++i)
    mx = std::max(mx, std::fabs(a[i] - b[i]));
  return mx;
}

}  // namespace apm
