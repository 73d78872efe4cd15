#include "nn/ensemble_forward.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "util/check.h"
#include "util/simd.h"

// Batch-axis SIMD for the packed Linear op. Offline scoring passes hand
// InferBatch dozens of states at once; states are completely independent,
// so four of them can ride the four lanes of an AVX2 vector while every
// output element keeps its own scalar accumulation chain (k-ascending
// multiply THEN add - the target below deliberately omits FMA, whose
// fused rounding would change results). That makes the batched path
// bit-identical to the single-state kernel yet ~several times faster,
// which the single-state online path structurally cannot match (one
// state has no batch axis to vectorize over). Guarded by a runtime CPU
// check; non-x86 or pre-AVX2 hosts just use the scalar loop.
#if defined(__x86_64__) && defined(__GNUC__)
#define OSAP_ENSEMBLE_BATCH_SIMD 1
#endif

namespace osap::nn {

#ifdef OSAP_ENSEMBLE_BATCH_SIMD
namespace {

using V4 = double __attribute__((vector_size(32)));

/// One member's Linear layer over four states (x0..x3 -> y0..y3), output
/// columns tiled 8 wide so the 4x2 vector accumulators stay in registers
/// across the whole k loop. Each y element receives one addition per k,
/// ascending, then one bias addition - the exact chain of the scalar
/// kernel (whose 4-way k unroll is order-preserving), so results match
/// bit for bit.
__attribute__((target("avx2"))) void LinearBatch4Avx2(
    const double* x0, const double* x1, const double* x2, const double* x3,
    const double* w, const double* bias, std::size_t in, std::size_t out,
    bool fused_relu, double* y0, double* y1, double* y2, double* y3) {
  std::size_t j = 0;
  for (; j + 8 <= out; j += 8) {
    V4 acc00{}, acc01{}, acc10{}, acc11{};
    V4 acc20{}, acc21{}, acc30{}, acc31{};
    const double* wj = w + j;
    for (std::size_t k = 0; k < in; ++k) {
      V4 w0;
      V4 w1;
      std::memcpy(&w0, wj + k * out, sizeof(V4));
      std::memcpy(&w1, wj + k * out + 4, sizeof(V4));
      const double a0 = x0[k];
      const double a1 = x1[k];
      const double a2 = x2[k];
      const double a3 = x3[k];
      acc00 = acc00 + w0 * a0;
      acc01 = acc01 + w1 * a0;
      acc10 = acc10 + w0 * a1;
      acc11 = acc11 + w1 * a1;
      acc20 = acc20 + w0 * a2;
      acc21 = acc21 + w1 * a2;
      acc30 = acc30 + w0 * a3;
      acc31 = acc31 + w1 * a3;
    }
    V4 b0;
    V4 b1;
    std::memcpy(&b0, bias + j, sizeof(V4));
    std::memcpy(&b1, bias + j + 4, sizeof(V4));
    V4 lo[4] = {acc00 + b0, acc10 + b0, acc20 + b0, acc30 + b0};
    V4 hi[4] = {acc01 + b1, acc11 + b1, acc21 + b1, acc31 + b1};
    if (fused_relu) {
      for (V4& v : lo) v = (v > 0.0) ? v : V4{};
      for (V4& v : hi) v = (v > 0.0) ? v : V4{};
    }
    double* const ys[4] = {y0, y1, y2, y3};
    for (int s = 0; s < 4; ++s) {
      std::memcpy(ys[s] + j, &lo[s], sizeof(V4));
      std::memcpy(ys[s] + j + 4, &hi[s], sizeof(V4));
    }
  }
  // Remaining output columns: scalar, still one k-ascending addition per
  // element plus the final bias addition (loop nesting does not affect
  // any element's chain).
  for (; j < out; ++j) {
    const double* xs[4] = {x0, x1, x2, x3};
    double* const ys[4] = {y0, y1, y2, y3};
    for (int s = 0; s < 4; ++s) {
      double acc = 0.0;
      for (std::size_t k = 0; k < in; ++k) acc += xs[s][k] * w[k * out + j];
      acc += bias[j];
      ys[s][j] = fused_relu ? (acc > 0.0 ? acc : 0.0) : acc;
    }
  }
}

}  // namespace
#endif  // OSAP_ENSEMBLE_BATCH_SIMD

BatchedEnsemble::BatchedEnsemble(std::vector<const CompositeNet*> members) {
  OSAP_REQUIRE(!members.empty(), "BatchedEnsemble: empty ensemble");
  for (const CompositeNet* m : members) {
    OSAP_REQUIRE(m != nullptr, "BatchedEnsemble: null member");
  }
  member_count_ = members.size();
  const CompositeNet& first = *members.front();
  for (const CompositeNet* m : members) {
    OSAP_REQUIRE(m->BranchCount() == first.BranchCount() &&
                     m->InputSize() == first.InputSize() &&
                     m->OutputSize() == first.OutputSize(),
                 "BatchedEnsemble: members must share one topology");
  }
  input_size_ = first.InputSize();
  output_size_ = first.OutputSize();

  for (std::size_t b = 0; b < first.BranchCount(); ++b) {
    PackedBranch branch;
    branch.begin = first.BranchBegin(b);
    branch.width = first.BranchWidth(b);
    branch.out_width = first.BranchSeq(b).OutputSize();
    std::vector<const Sequential*> seqs;
    seqs.reserve(members.size());
    for (const CompositeNet* m : members) {
      OSAP_REQUIRE(m->BranchBegin(b) == branch.begin &&
                       m->BranchWidth(b) == branch.width,
                   "BatchedEnsemble: branch column ranges must match");
      seqs.push_back(&m->BranchSeq(b));
    }
    branch.ops = Pack(seqs);
    concat_width_ += branch.out_width;
    branches_.push_back(std::move(branch));
  }

  std::vector<const Sequential*> trunks;
  trunks.reserve(members.size());
  for (const CompositeNet* m : members) trunks.push_back(&m->trunk());
  trunk_ = Pack(trunks);
}

std::vector<BatchedEnsemble::PackedOp> BatchedEnsemble::Pack(
    const std::vector<const Sequential*>& seqs) {
  const Sequential& first = *seqs.front();
  for (const Sequential* s : seqs) {
    OSAP_REQUIRE(s->LayerCount() == first.LayerCount(),
                 "BatchedEnsemble: members must share layer counts");
  }
  const std::size_t k_members = seqs.size();
  std::vector<PackedOp> ops;
  ops.reserve(first.LayerCount());
  for (std::size_t li = 0; li < first.LayerCount(); ++li) {
    const Layer& proto = first.LayerAt(li);
    PackedOp op;
    op.in = proto.InputSize();
    op.out = proto.OutputSize();
    if (dynamic_cast<const Linear*>(&proto) != nullptr) {
      op.kind = PackedOp::Kind::kLinear;
      op.weights.ReshapeUninitialized(k_members * op.in, op.out);
      op.bias.ReshapeUninitialized(k_members, op.out);
      for (std::size_t m = 0; m < k_members; ++m) {
        const auto* member = dynamic_cast<const Linear*>(&seqs[m]->LayerAt(li));
        OSAP_REQUIRE(member != nullptr &&
                         member->InputSize() == op.in &&
                         member->OutputSize() == op.out,
                     "BatchedEnsemble: layer shape mismatch across members");
        std::copy(member->weight().value.values().begin(),
                  member->weight().value.values().end(),
                  op.weights.data() + m * op.in * op.out);
        std::copy(member->bias().value.values().begin(),
                  member->bias().value.values().end(),
                  op.bias.data() + m * op.out);
      }
    } else if (const auto* conv = dynamic_cast<const Conv1D*>(&proto)) {
      op.kind = PackedOp::Kind::kConv1d;
      op.in_channels = conv->in_channels();
      op.out_channels = conv->out_channels();
      op.kernel = conv->kernel();
      op.input_length = conv->input_length();
      const std::size_t w_rows = op.in_channels * op.kernel;
      op.weights.ReshapeUninitialized(k_members * op.out_channels, w_rows);
      op.bias.ReshapeUninitialized(k_members, op.out_channels);
      for (std::size_t m = 0; m < k_members; ++m) {
        const auto* member = dynamic_cast<const Conv1D*>(&seqs[m]->LayerAt(li));
        OSAP_REQUIRE(member != nullptr &&
                         member->in_channels() == op.in_channels &&
                         member->out_channels() == op.out_channels &&
                         member->kernel() == op.kernel &&
                         member->input_length() == op.input_length,
                     "BatchedEnsemble: conv shape mismatch across members");
        // Transpose (w_rows x out_channels) -> (out_channels x w_rows) so
        // the per-(oc, t) MAC loop reads taps contiguously.
        const double* src = member->weight().value.data();
        double* dst = op.weights.data() + m * op.out_channels * w_rows;
        for (std::size_t r = 0; r < w_rows; ++r) {
          for (std::size_t oc = 0; oc < op.out_channels; ++oc) {
            dst[oc * w_rows + r] = src[r * op.out_channels + oc];
          }
        }
        std::copy(member->bias().value.values().begin(),
                  member->bias().value.values().end(),
                  op.bias.data() + m * op.out_channels);
      }
    } else if (dynamic_cast<const ReLU*>(&proto) != nullptr) {
      op.kind = PackedOp::Kind::kRelu;
    } else if (dynamic_cast<const Tanh*>(&proto) != nullptr) {
      op.kind = PackedOp::Kind::kTanh;
    } else {
      OSAP_REQUIRE(false, "BatchedEnsemble: unsupported layer kind");
    }
    if (op.kind == PackedOp::Kind::kRelu ||
        op.kind == PackedOp::Kind::kTanh) {
      for (const Sequential* s : seqs) {
        OSAP_REQUIRE(s->LayerAt(li).Name() == proto.Name() &&
                         s->LayerAt(li).InputSize() == op.in,
                     "BatchedEnsemble: layer kind mismatch across members");
      }
    }
    // Fold a ReLU straight into the preceding weighted op: the clamp
    // happens after that op's final rounded addition either way, so the
    // fused result is bit-identical while skipping one full pass.
    if (op.kind == PackedOp::Kind::kRelu && !ops.empty() &&
        !ops.back().fused_relu &&
        (ops.back().kind == PackedOp::Kind::kLinear ||
         ops.back().kind == PackedOp::Kind::kConv1d)) {
      ops.back().fused_relu = true;
      continue;
    }
    ops.push_back(std::move(op));
  }
  return ops;
}

void BatchedEnsemble::ApplyOp(const PackedOp& op, const double* x,
                              std::size_t x_stride, std::size_t x_batch,
                              double* y, std::size_t y_stride,
                              std::size_t y_batch, std::size_t batch) const {
  const std::size_t k_members = member_count_;
  switch (op.kind) {
    case PackedOp::Kind::kLinear: {
      // Mirrors Linear::Forward: k-ascending accumulation from zero, bias
      // added as one final rounded addition per output. The k loop is
      // unrolled by 4 exactly like Matrix::MatMulInto - four separate
      // ascending-k additions per output element - so the rounding order
      // (and result) is unchanged while each y element stays in a register
      // across four updates. A fused ReLU clamps after the bias addition,
      // exactly where the standalone ReLU pass would have run.
      const std::size_t in = op.in;
      const std::size_t out = op.out;
#ifdef OSAP_ENSEMBLE_BATCH_SIMD
      const bool simd = batch >= 4 && util::UseAvx2();
#endif
      for (std::size_t m = 0; m < k_members; ++m) {
        const double* w = op.weights.data() + m * in * out;
        const double* bias = op.bias.data() + m * out;
        std::size_t b = 0;
#ifdef OSAP_ENSEMBLE_BATCH_SIMD
        if (simd) {
          for (; b + 4 <= batch; b += 4) {
            const double* xr = x + m * x_stride + b * x_batch;
            double* yr = y + m * y_stride + b * y_batch;
            LinearBatch4Avx2(xr, xr + x_batch, xr + 2 * x_batch,
                             xr + 3 * x_batch, w, bias, in, out,
                             op.fused_relu, yr, yr + y_batch,
                             yr + 2 * y_batch, yr + 3 * y_batch);
          }
        }
#endif
        for (; b < batch; ++b) {
          const double* xr = x + m * x_stride + b * x_batch;
          double* yr = y + m * y_stride + b * y_batch;
          std::fill(yr, yr + out, 0.0);
          std::size_t k = 0;
          for (; k + 4 <= in; k += 4) {
            const double a0 = xr[k];
            const double a1 = xr[k + 1];
            const double a2 = xr[k + 2];
            const double a3 = xr[k + 3];
            const double* w0 = w + k * out;
            const double* w1 = w0 + out;
            const double* w2 = w1 + out;
            const double* w3 = w2 + out;
            for (std::size_t j = 0; j < out; ++j) {
              double acc = yr[j];
              acc += a0 * w0[j];
              acc += a1 * w1[j];
              acc += a2 * w2[j];
              acc += a3 * w3[j];
              yr[j] = acc;
            }
          }
          for (; k < in; ++k) {
            const double a = xr[k];
            const double* wr = w + k * out;
            for (std::size_t j = 0; j < out; ++j) yr[j] += a * wr[j];
          }
          if (op.fused_relu) {
            for (std::size_t j = 0; j < out; ++j) {
              const double v = yr[j] + bias[j];
              yr[j] = v > 0.0 ? v : 0.0;
            }
          } else {
            for (std::size_t j = 0; j < out; ++j) yr[j] += bias[j];
          }
        }
      }
      break;
    }
    case PackedOp::Kind::kConv1d: {
      // Mirrors Conv1D::Forward: acc starts at the bias, then ic- and
      // k-ascending multiply-adds per (oc, t) output element. The packed
      // weights are transposed so wk[] walks memory linearly.
      const std::size_t out_len = op.input_length - op.kernel + 1;
      const std::size_t w_rows = op.in_channels * op.kernel;
      for (std::size_t m = 0; m < k_members; ++m) {
        const double* w = op.weights.data() + m * op.out_channels * w_rows;
        const double* bias = op.bias.data() + m * op.out_channels;
        for (std::size_t b = 0; b < batch; ++b) {
          const double* xr = x + m * x_stride + b * x_batch;
          double* yr = y + m * y_stride + b * y_batch;
          for (std::size_t oc = 0; oc < op.out_channels; ++oc) {
            const double bb = bias[oc];
            const double* woc = w + oc * w_rows;
            for (std::size_t t = 0; t < out_len; ++t) {
              double acc = bb;
              for (std::size_t ic = 0; ic < op.in_channels; ++ic) {
                const double* xc = xr + ic * op.input_length + t;
                const double* wk = woc + ic * op.kernel;
                for (std::size_t k = 0; k < op.kernel; ++k) {
                  acc += xc[k] * wk[k];
                }
              }
              yr[oc * out_len + t] =
                  op.fused_relu ? (acc > 0.0 ? acc : 0.0) : acc;
            }
          }
        }
      }
      break;
    }
    case PackedOp::Kind::kRelu: {
      for (std::size_t m = 0; m < k_members; ++m) {
        for (std::size_t b = 0; b < batch; ++b) {
          const double* xr = x + m * x_stride + b * x_batch;
          double* yr = y + m * y_stride + b * y_batch;
          for (std::size_t j = 0; j < op.out; ++j) {
            yr[j] = xr[j] > 0.0 ? xr[j] : 0.0;
          }
        }
      }
      break;
    }
    case PackedOp::Kind::kTanh: {
      for (std::size_t m = 0; m < k_members; ++m) {
        for (std::size_t b = 0; b < batch; ++b) {
          const double* xr = x + m * x_stride + b * x_batch;
          double* yr = y + m * y_stride + b * y_batch;
          for (std::size_t j = 0; j < op.out; ++j) yr[j] = std::tanh(xr[j]);
        }
      }
      break;
    }
  }
}

void BatchedEnsemble::RunOps(const std::vector<PackedOp>& ops,
                             const double* x, std::size_t x_stride,
                             std::size_t x_batch, Matrix& buf_a,
                             Matrix& buf_b, double* out,
                             std::size_t out_stride, std::size_t out_batch,
                             std::size_t batch) const {
  OSAP_CHECK(!ops.empty());
  const double* in = x;
  std::size_t stride = x_stride;
  std::size_t in_batch = x_batch;
  Matrix* buf = &buf_a;
  for (std::size_t i = 0; i + 1 < ops.size(); ++i) {
    buf->ReshapeUninitialized(batch * member_count_, ops[i].out);
    ApplyOp(ops[i], in, stride, in_batch, buf->data(), ops[i].out,
            member_count_ * ops[i].out, batch);
    in = buf->data();
    stride = ops[i].out;
    in_batch = member_count_ * ops[i].out;
    buf = (buf == &buf_a) ? &buf_b : &buf_a;
  }
  ApplyOp(ops.back(), in, stride, in_batch, out, out_stride, out_batch,
          batch);
}

const Matrix& BatchedEnsemble::Infer(std::span<const double> state,
                                     InferScratch& scratch) const {
  OSAP_REQUIRE(state.size() >= input_size_,
               "BatchedEnsemble: state too narrow");
  scratch.concat.ReshapeUninitialized(member_count_, concat_width_);
  std::size_t offset = 0;
  for (const PackedBranch& branch : branches_) {
    // All members read the same state columns, so the branch input is the
    // shared row with member-stride zero; members diverge after the first
    // weighted layer. Each branch's final op writes its member rows
    // directly into the concat columns (stride concat_width_) - no
    // per-branch copy.
    RunOps(branch.ops, state.data() + branch.begin,
           /*x_stride=*/0, /*x_batch=*/0, scratch.a, scratch.b,
           scratch.concat.data() + offset, concat_width_,
           /*out_batch=*/0, /*batch=*/1);
    offset += branch.out_width;
  }
  scratch.slice.ReshapeUninitialized(member_count_, output_size_);
  RunOps(trunk_, scratch.concat.data(), concat_width_, /*x_batch=*/0,
         scratch.a, scratch.b, scratch.slice.data(), output_size_,
         /*out_batch=*/0, /*batch=*/1);
  return scratch.slice;
}

const Matrix& BatchedEnsemble::InferBatch(const Matrix& states,
                                          InferScratch& scratch) const {
  OSAP_REQUIRE(states.cols() >= input_size_,
               "BatchedEnsemble: state rows too narrow");
  const std::size_t batch = states.rows();
  scratch.concat.ReshapeUninitialized(batch * member_count_, concat_width_);
  std::size_t offset = 0;
  for (const PackedBranch& branch : branches_) {
    // As in Infer: member stride zero shares each state's input row
    // across members; the batch stride walks the state rows. Branch
    // outputs land straight in their concat columns, one (batch*K)-row
    // block.
    RunOps(branch.ops, states.data() + branch.begin,
           /*x_stride=*/0, /*x_batch=*/states.cols(), scratch.a, scratch.b,
           scratch.concat.data() + offset, concat_width_,
           member_count_ * concat_width_, batch);
    offset += branch.out_width;
  }
  scratch.slice.ReshapeUninitialized(batch * member_count_, output_size_);
  RunOps(trunk_, scratch.concat.data(), concat_width_,
         member_count_ * concat_width_, scratch.a, scratch.b,
         scratch.slice.data(), output_size_, member_count_ * output_size_,
         batch);
  return scratch.slice;
}

}  // namespace osap::nn
