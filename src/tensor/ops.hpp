#pragma once
// Tensor kernels: packed register-blocked GEMM, implicit-GEMM convolution,
// im2col/col2im, activations, softmax.
//
// Layout contracts (all row-major):
//   gemm        : C[M,N] (+)= A[M,K] * B[K,N]
//   gemm_atb    : C[M,N] (+)= A[K,M]^T * B[K,N]
//   gemm_abt    : C[M,N] (+)= A[M,K] * B[N,K]^T
// These three cover forward, weight-gradient and input-gradient passes of
// Linear, and the training passes of Conv2d over its im2col columns,
// without materialising transposes. Conv forward is an implicit GEMM
// (conv_packed_bias_relu): its B panels are gathered straight from the
// [B, C, H, W] input and its tiles stored straight into [B, Cout, H, W].
//
// The gemm/gemm_atb family runs on one shared driver: A and B are packed
// into L1-resident panels and consumed by one register-blocked micro-kernel
// template that computes R rows x P 16-lane B panels with one 16-lane
// accumulator per (row, panel), held across the whole K loop with no
// per-element branches. The full tile is kMR x 16: kMR = 8 when the build
// targets AVX-512 (8 zmm accumulators), 4 otherwise (8 ymm on AVX2) — a
// build-time ISA choice, not an option. The driver optionally fuses a
// per-row bias broadcast and a ReLU into the store epilogue (one pass over
// C instead of GEMM + bias pass + ReLU pass). Every GEMM runs on the
// calling thread.
//
// Tail rule. The R < kMR rows left below the last whole tile run the same
// kernel with P = min(4, kMR / R) B panels per call, so a batch-1 linear
// layer or a 1-2 channel head conv keeps as many FMAs in flight as a full
// tile instead of running one with dead rows; the panels left over run as
// one narrower multi-panel call. A tail's A panel is packed only as wide
// as its live rows, so no A row is ever zero-filled.
//
// Weight-stationary operands. Inference weights are constant between
// writes, so a layer packs them once (pack_weights / pack_weights_q8) and
// the *_packed_* entry points consume those panels directly: conv weights
// arrive as the kMR-row A panels, linear weights ([Out, In]) as the
// kNR-column B panels, each laid out per kKC block exactly as the per-call
// pack would produce them. Only activations — and the operands of the
// backward GEMMs — are packed per call.
//
// Accumulation-order invariant: every C element is reduced the same way
// on every path — a sequential multiply-add chain over k inside each kKC
// block (one fused multiply-add per step where the target has FMA), blocks
// added to C in order, bias and ReLU after the last block. The tile height,
// the tail's R and P and pre-packed vs per-call panels change only which
// instructions run, never that chain, so their results are bitwise equal —
// and a kernel change that keeps the chain keeps every inference output,
// and so every game, bitwise the same.
//
// The gemm_q8 family is the int8 inference path hosted by the same driver
// skeleton: weights arrive pre-quantized (symmetric per-output-channel
// int8, quantize_rows_int8) and pre-packed into K-quad panels together
// with their per-block weight sums, activations are quantized to unsigned
// 8-bit during the pack step with an asymmetric per-(K-block, lane)
// min/scale, a 4x16 int8 micro-kernel (its own 4-row K-quad panels,
// whatever the fp32 tile height) widen-accumulates u8 x s8 products into
// int32 (AVX-512 VNNI vpdpbusd when available, exact scalar otherwise),
// and the dequantization — plus the same fused bias/ReLU — happens in the
// store epilogue. Integer accumulation is exact and the per-element
// dequant order is fixed, so int8 results are bitwise identical across the
// SIMD/scalar kernels.

#include <cstddef>
#include <cstdint>
#include <new>
#include <vector>

#include "tensor/tensor.hpp"

namespace apm {

// --- GEMM family -----------------------------------------------------------

// C[M,N] op= A[M,K]*B[K,N]; op is += when accumulate, = otherwise.
void gemm(const float* a, const float* b, float* c, int m, int n, int k,
          bool accumulate);

// Fused epilogue: C[M,N] = A[M,K]*B[K,N] + bias[i] (broadcast along the
// row), then ReLU when `relu`. `bias` may be nullptr (no bias). This is the
// convolution forward shape, where row i is output channel i; Conv2d runs
// it on weights packed once (gemm_packed_bias_relu), and this per-call
// form packs both operands on every call.
void gemm_bias_relu(const float* a, const float* b, const float* bias,
                    float* c, int m, int n, int k, bool relu);

// C[M,N] op= A[K,M]^T * B[K,N].
void gemm_atb(const float* a, const float* b, float* c, int m, int n, int k,
              bool accumulate);

// C[M,N] op= A[M,K] * B[N,K]^T.
void gemm_abt(const float* a, const float* b, float* c, int m, int n, int k,
              bool accumulate);

// Fused linear-layer forward: C[M,N] = A[M,K]*B[N,K]^T + bias[j] (broadcast
// down the column, i.e. per output feature), then ReLU when `relu`. `bias`
// may be nullptr. Packs B on every call; Linear uses the pack-once form,
// gemm_abt_packed_bias_relu.
void gemm_abt_bias_relu(const float* a, const float* b, const float* bias,
                        float* c, int m, int n, int k, bool relu);

// --- weight-stationary (pack-once) operands ----------------------------------

// Storage for fp32 GEMM panels, 64-byte aligned: a 16-float panel row is
// then exactly one cache line, so no 16-lane load of it splits two lines
// (malloc's 16-byte alignment splits every one).
template <typename T>
struct PanelAllocator {
  using value_type = T;
  static constexpr std::align_val_t kAlign{64};
  PanelAllocator() = default;
  template <typename U>
  PanelAllocator(const PanelAllocator<U>&) {}
  T* allocate(std::size_t n) {
    return static_cast<T*>(::operator new(n * sizeof(T), kAlign));
  }
  void deallocate(T* p, std::size_t) { ::operator delete(p, kAlign); }
  friend bool operator==(PanelAllocator, PanelAllocator) { return true; }
};
template <typename T>
using PanelVector = std::vector<T, PanelAllocator<T>>;

// Which GEMM operand a packed weight matrix W[rows, k] feeds.
enum class WeightRole {
  kA,   // conv forward: C[rows, N] = W * B; kMR-row A panels
  kBt,  // linear forward: C[M, rows] = A * W^T; kNR-column B panels
};

// W[rows, k] in the driver's panel layout for `role`: kA packs exactly
// `rows` rows per K block (a trailing panel as wide as its rows), kBt
// zero-pads to whole kNR-column panels. Built by pack_weights; consumed by
// the *_packed_* GEMMs.
struct PackedWeights {
  WeightRole role = WeightRole::kA;
  int rows = 0;
  int k = 0;
  PanelVector<float> panels;
};

// Packs W[rows, k] (row-major) into `out`, reusing its storage.
void pack_weights(const float* w, int rows, int k, WeightRole role,
                  PackedWeights& out);

// gemm_bias_relu with a pre-packed A (role kA): C[M,N] = W*B[K,N] + bias[i],
// then ReLU when `relu`; M = w.rows, K = w.k. Bitwise equal to
// gemm_bias_relu on the unpacked weights.
void gemm_packed_bias_relu(const PackedWeights& w, const float* b,
                           const float* bias, float* c, int n, bool relu);

// gemm_abt_bias_relu with a pre-packed B (role kBt): C[M,N] = A[M,K]*W^T +
// bias[j], then ReLU when `relu`; N = w.rows, K = w.k. Bitwise equal to
// gemm_abt_bias_relu on the unpacked weights.
void gemm_abt_packed_bias_relu(const float* a, const PackedWeights& w,
                               const float* bias, float* c, int m, bool relu);

// --- int8 quantized GEMM family ---------------------------------------------

// Symmetric per-row int8 weight quantization: wq[r][p] = round(w[r][p] /
// scales[r]) with scales[r] = max|w[r]| / 127 (rows of all zeros get scale
// 1). Row r is an output channel in both conv ([Cout, Cin*k*k]) and linear
// ([Out, In]) weight layouts, so this is the per-output-channel pass the
// fp32 -> int8 net conversion runs once per layer.
void quantize_rows_int8(const float* w, int rows, int k, std::int8_t* wq,
                        float* scales);

// Int8 weights Wq[rows, k] with per-row scales, packed once for `role`:
// K-quad panels (4 consecutive k per byte lane group, the vpdpbusd shape)
// per kKC block, plus the dequant terms the epilogue needs.
struct PackedWeightsQ8 {
  WeightRole role = WeightRole::kA;
  int rows = 0;
  int k = 0;
  std::vector<std::uint8_t> panels;
  std::vector<float> scale;  // [padded rows]: per-row scale, 0 on padding
  std::vector<float> corr;   // [k blocks][padded rows]: scale * block sum(wq)
};

// Packs Wq[rows, k] (row-major, from quantize_rows_int8) and its per-row
// scales into `out`, reusing its storage.
void pack_weights_q8(const std::int8_t* wq, const float* wscales, int rows,
                     int k, WeightRole role, PackedWeightsQ8& out);

// Int8 GEMM on pre-packed weights (role kA), the matrix form of
// conv_q8_packed_bias_relu:
// C[M,N] = dequant(Wq * q8(B[K,N])) + bias[row i], then ReLU when `relu`.
// B is packed into fp32 panels and quantized on the fly from them.
// `bias` may be nullptr.
void gemm_q8_packed_bias_relu(const PackedWeightsQ8& w, const float* b,
                              const float* bias, float* c, int n, bool relu);

// Quantized linear forward on pre-packed weights (role kBt):
// C[M,N] = dequant(q8(A[M,K]) * Wq^T) + bias[col j], then ReLU when `relu`.
void gemm_q8_abt_packed_bias_relu(const float* a, const PackedWeightsQ8& w,
                                  const float* bias, float* c, int m,
                                  bool relu);

// One-shot forms of the two above for callers without a layer to own the
// pack (tests, benches): pack_weights_q8 into a temporary, then the packed
// GEMM. Wq/wscales from quantize_rows_int8.
void gemm_q8_bias_relu(const std::int8_t* wq, const float* wscales,
                       const float* b, const float* bias, float* c, int m,
                       int n, int k, bool relu);

void gemm_q8_abt_bias_relu(const float* a, const std::int8_t* wq,
                           const float* wscales, const float* bias, float* c,
                           int m, int n, int k, bool relu);

// True when the AVX-512 VNNI micro-kernel is compiled in (the scalar
// fallback computes bit-identical results, only slower).
bool gemm_q8_simd_enabled();

// --- implicit-GEMM convolution ---------------------------------------------
// A stride-1, same-padded k×k convolution of x[B, C, H, W] is the GEMM
// y = W[Cout, C·k·k] · X[C·k·k, B·H·W] over the lowered input X, whose row
// p = (c·k + ky)·k + kx and column j = b·H·W + oy·W + ox hold
// x[b, c, oy+ky−pad, ox+kx−pad] (0 off the board). The convolution GEMMs
// never build X: their B pack reads each 16-lane panel row straight from
// x — one masked 16-float load per sample the panel covers — and their
// epilogue stores each tile into y[b, oc, oy·W + ox], split where a tile
// straddles two samples. The panels are bitwise those im2col + the matrix
// pack would build, so outputs equal the lowered GEMM's bit for bit.

// Where the lanes of every B panel read, for one (H, W, ksize). A panel's
// lanes split into runs, one per sample they cover; lane l of a run that
// starts at h·w index q0 reads x at (its sample's channel plane) + q0 + l +
// tap offset. masks[tap][q0] has bit i set when index q0 + i is on this
// sample and its tap lands on the board, so a run's lane mask is that
// entry shifted to the run's first lane. One plan serves every batch size
// and channel count.
struct ConvPlan {
  int height = 0;
  int width = 0;
  int ksize = 0;
  std::vector<int> tap_off;          // [k·k]: (ky − pad)·W + (kx − pad)
  std::vector<std::uint16_t> masks;  // [k·k][H·W]: 16 lanes from q0
};

// Builds `plan` for an H×W input and a ksize×ksize kernel (odd ksize, pad
// ksize/2), reusing its storage.
void build_conv_plan(int height, int width, int ksize, ConvPlan& plan);

// A convolution input x[batch, channels, plan.height, plan.width] as the
// implicit GEMM's B operand.
struct ConvInput {
  const float* x = nullptr;
  int batch = 0;
  int channels = 0;
  const ConvPlan* plan = nullptr;
};

// Convolution forward on pre-packed weights (role kA, w.k == C·k·k):
// y[B, Cout, H, W] = W * X + bias[oc], then ReLU when `relu`. Bitwise equal
// to gemm_packed_bias_relu over each sample's im2col columns.
void conv_packed_bias_relu(const PackedWeights& w, const ConvInput& in,
                           const float* bias, float* y, bool relu);

// The int8 form: bitwise equal to gemm_q8_packed_bias_relu over each
// sample's im2col columns (activations quantize per K block and column).
void conv_q8_packed_bias_relu(const PackedWeightsQ8& w, const ConvInput& in,
                              const float* bias, float* y, bool relu);

// --- convolution lowering (training) ----------------------------------------

// Lowers one image x[C,H,W] to columns col[C*k*k, H*W] for a k×k
// convolution with `pad` zero padding and stride 1 (output spatial size
// equals input spatial size when pad == k/2, which is all this library
// uses). Conv2d's training forward keeps these columns for backward.
void im2col(const float* x, int channels, int height, int width, int ksize,
            int pad, float* col);

// Adjoint of im2col: accumulates columns back into dx[C,H,W]. dx must be
// zeroed by the caller.
void col2im(const float* col, int channels, int height, int width, int ksize,
            int pad, float* dx);

// --- element-wise -----------------------------------------------------------

void relu_forward(const float* x, float* y, std::size_t n);
// dx = dy where x > 0 else 0 (accumulates into dx when accumulate).
void relu_backward(const float* x, const float* dy, float* dx, std::size_t n,
                   bool accumulate);

void tanh_forward(const float* x, float* y, std::size_t n);
// dx = dy * (1 - y^2).
void tanh_backward(const float* y, const float* dy, float* dx, std::size_t n);

// --- softmax ----------------------------------------------------------------

// Row-wise softmax: x[rows, cols] -> y[rows, cols]. Numerically stable.
void softmax_rows(const float* x, float* y, int rows, int cols);

// Row-wise log-softmax.
void log_softmax_rows(const float* x, float* y, int rows, int cols);

// --- reductions --------------------------------------------------------------

float sum(const float* x, std::size_t n);
float dot(const float* a, const float* b, std::size_t n);
float max_abs_diff(const Tensor& a, const Tensor& b);

}  // namespace apm
