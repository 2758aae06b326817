// Host-resident tensor with shared, contiguous, row-major storage.
//
// This is the functional-math substrate under both compute engines: TPC
// kernels and the MME read and write these buffers when the simulator runs
// in functional mode.  Copies are shallow (shared storage) as in frameworks;
// `clone()` deep-copies.
#pragma once

#include <cstring>
#include <memory>
#include <span>
#include <vector>

#include "sim/error.hpp"
#include "sim/rng.hpp"
#include "tensor/dtype.hpp"
#include "tensor/shape.hpp"

namespace gaudi::tensor {

class Tensor {
 public:
  Tensor() = default;

  /// Allocates a zero-initialized tensor.
  Tensor(Shape shape, DType dtype)
      : shape_(std::move(shape)),
        dtype_(dtype),
        storage_(std::make_shared<std::vector<std::byte>>(
            static_cast<std::size_t>(shape_.numel()) * dtype_size(dtype))) {}

  [[nodiscard]] static Tensor zeros(Shape shape, DType dtype = DType::F32) {
    return Tensor{std::move(shape), dtype};
  }
  /// Shape/dtype carrier without storage — used by the timing execution
  /// mode, where kernels run with phantom memory and never touch data.
  [[nodiscard]] static Tensor phantom(Shape shape, DType dtype = DType::F32) {
    Tensor t;
    t.shape_ = std::move(shape);
    t.dtype_ = dtype;
    return t;
  }
  [[nodiscard]] static Tensor full(Shape shape, float value, DType dtype = DType::F32);
  [[nodiscard]] static Tensor from_values(Shape shape, std::span<const float> values);
  /// Uniform in [lo, hi) from a counter RNG (deterministic per seed/stream).
  [[nodiscard]] static Tensor uniform(Shape shape, sim::CounterRng rng,
                                      float lo = 0.0f, float hi = 1.0f);
  /// Standard-normal entries scaled by `stddev`.
  [[nodiscard]] static Tensor normal(Shape shape, sim::CounterRng rng,
                                     float stddev = 1.0f);
  /// Integer token ids in [0, vocab) stored as I32.
  [[nodiscard]] static Tensor random_tokens(Shape shape, sim::CounterRng rng,
                                            std::int64_t vocab);

  [[nodiscard]] bool defined() const { return storage_ != nullptr; }
  [[nodiscard]] const Shape& shape() const { return shape_; }
  [[nodiscard]] DType dtype() const { return dtype_; }
  [[nodiscard]] std::int64_t numel() const { return shape_.numel(); }
  [[nodiscard]] std::size_t nbytes() const {
    return static_cast<std::size_t>(numel()) * dtype_size(dtype_);
  }

  /// Typed element access; only valid for the matching dtype.
  [[nodiscard]] std::span<float> f32() {
    GAUDI_CHECK(dtype_ == DType::F32, "tensor is not f32");
    return {reinterpret_cast<float*>(storage_->data()), static_cast<std::size_t>(numel())};
  }
  [[nodiscard]] std::span<const float> f32() const {
    GAUDI_CHECK(dtype_ == DType::F32, "tensor is not f32");
    return {reinterpret_cast<const float*>(storage_->data()),
            static_cast<std::size_t>(numel())};
  }
  [[nodiscard]] std::span<std::int32_t> i32() {
    GAUDI_CHECK(dtype_ == DType::I32, "tensor is not i32");
    return {reinterpret_cast<std::int32_t*>(storage_->data()),
            static_cast<std::size_t>(numel())};
  }
  [[nodiscard]] std::span<const std::int32_t> i32() const {
    GAUDI_CHECK(dtype_ == DType::I32, "tensor is not i32");
    return {reinterpret_cast<const std::int32_t*>(storage_->data()),
            static_cast<std::size_t>(numel())};
  }
  [[nodiscard]] std::span<std::uint16_t> bf16() {
    GAUDI_CHECK(dtype_ == DType::BF16, "tensor is not bf16");
    return {reinterpret_cast<std::uint16_t*>(storage_->data()),
            static_cast<std::size_t>(numel())};
  }
  [[nodiscard]] std::span<const std::uint16_t> bf16() const {
    GAUDI_CHECK(dtype_ == DType::BF16, "tensor is not bf16");
    return {reinterpret_cast<const std::uint16_t*>(storage_->data()),
            static_cast<std::size_t>(numel())};
  }

  /// Mutable access through a const handle: like shared_ptr, constness of
  /// the Tensor handle does not imply constness of the shared buffer.
  [[nodiscard]] std::span<float> f32_mut() const {
    GAUDI_CHECK(dtype_ == DType::F32, "tensor is not f32");
    return {reinterpret_cast<float*>(storage_->data()),
            static_cast<std::size_t>(numel())};
  }
  [[nodiscard]] std::span<std::int32_t> i32_mut() const {
    GAUDI_CHECK(dtype_ == DType::I32, "tensor is not i32");
    return {reinterpret_cast<std::int32_t*>(storage_->data()),
            static_cast<std::size_t>(numel())};
  }

  [[nodiscard]] std::byte* raw() { return storage_->data(); }
  [[nodiscard]] const std::byte* raw() const { return storage_->data(); }

  /// Element read as float regardless of dtype (integers converted).
  [[nodiscard]] float at(std::int64_t linear_index) const;
  void set(std::int64_t linear_index, float value);

  /// Deep copy.
  [[nodiscard]] Tensor clone() const;

  /// Same storage, new shape (element count preserved).
  [[nodiscard]] Tensor reshape(Shape new_shape) const {
    GAUDI_CHECK(new_shape.numel() == numel(), "reshape changes element count");
    Tensor t = *this;
    t.shape_ = std::move(new_shape);
    return t;
  }

  /// Converted copy (f32 <-> bf16 supported; identity otherwise checked).
  [[nodiscard]] Tensor to(DType target) const;

  /// True if storages alias.
  [[nodiscard]] bool aliases(const Tensor& o) const { return storage_ == o.storage_; }

 private:
  Shape shape_{};
  DType dtype_ = DType::F32;
  std::shared_ptr<std::vector<std::byte>> storage_;
};

}  // namespace gaudi::tensor
