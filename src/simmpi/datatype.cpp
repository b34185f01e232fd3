#include "simmpi/datatype.hpp"

#include <algorithm>
#include <cstring>
#include <type_traits>

#include "simbase/assert.hpp"

namespace han::mpi {

const char* op_name(ReduceOp op) {
  switch (op) {
    case ReduceOp::Sum: return "sum";
    case ReduceOp::Prod: return "prod";
    case ReduceOp::Max: return "max";
    case ReduceOp::Min: return "min";
    case ReduceOp::Band: return "band";
    case ReduceOp::Bor: return "bor";
    case ReduceOp::Bxor: return "bxor";
  }
  return "?";
}

bool op_valid_for(ReduceOp op, Datatype t) {
  const bool integral = t == Datatype::Byte || t == Datatype::Int32 ||
                        t == Datatype::Int64;
  switch (op) {
    case ReduceOp::Band:
    case ReduceOp::Bor:
    case ReduceOp::Bxor:
      return integral;
    default:
      return true;
  }
}

namespace {

// Integral Sum/Prod wrap on overflow (MPI leaves overflow undefined; we
// pick two's-complement wraparound so results are deterministic and the
// arithmetic is defined under UBSan). Done in the unsigned type — same
// bits, no signed-overflow UB.
template <typename T>
T wrap_add(T a, T b) {
  if constexpr (std::is_integral_v<T>) {
    using U = std::make_unsigned_t<T>;
    return static_cast<T>(static_cast<U>(a) + static_cast<U>(b));
  } else {
    return a + b;
  }
}

template <typename T>
T wrap_mul(T a, T b) {
  if constexpr (std::is_integral_v<T>) {
    using U = std::make_unsigned_t<T>;
    return static_cast<T>(static_cast<U>(a) * static_cast<U>(b));
  } else {
    return a * b;
  }
}

template <typename T>
void reduce_typed(ReduceOp op, T* acc, const T* in, std::size_t count) {
  switch (op) {
    case ReduceOp::Sum:
      for (std::size_t i = 0; i < count; ++i) acc[i] = wrap_add(acc[i], in[i]);
      break;
    case ReduceOp::Prod:
      for (std::size_t i = 0; i < count; ++i) acc[i] = wrap_mul(acc[i], in[i]);
      break;
    case ReduceOp::Max:
      for (std::size_t i = 0; i < count; ++i) acc[i] = std::max(acc[i], in[i]);
      break;
    case ReduceOp::Min:
      for (std::size_t i = 0; i < count; ++i) acc[i] = std::min(acc[i], in[i]);
      break;
    case ReduceOp::Band:
      if constexpr (std::is_integral_v<T>) {
        for (std::size_t i = 0; i < count; ++i) acc[i] = acc[i] & in[i];
      } else {
        HAN_ASSERT_MSG(false, "bitwise op on floating-point type");
      }
      break;
    case ReduceOp::Bor:
      if constexpr (std::is_integral_v<T>) {
        for (std::size_t i = 0; i < count; ++i) acc[i] = acc[i] | in[i];
      } else {
        HAN_ASSERT_MSG(false, "bitwise op on floating-point type");
      }
      break;
    case ReduceOp::Bxor:
      if constexpr (std::is_integral_v<T>) {
        for (std::size_t i = 0; i < count; ++i) acc[i] = acc[i] ^ in[i];
      } else {
        HAN_ASSERT_MSG(false, "bitwise op on floating-point type");
      }
      break;
  }
}

}  // namespace

void apply_reduce(ReduceOp op, Datatype t, std::byte* acc,
                  const std::byte* in, std::size_t count) {
  HAN_ASSERT(op_valid_for(op, t));
  switch (t) {
    case Datatype::Byte:
      reduce_typed(op, reinterpret_cast<std::uint8_t*>(acc),
                   reinterpret_cast<const std::uint8_t*>(in), count);
      break;
    case Datatype::Int32:
      reduce_typed(op, reinterpret_cast<std::int32_t*>(acc),
                   reinterpret_cast<const std::int32_t*>(in), count);
      break;
    case Datatype::Int64:
      reduce_typed(op, reinterpret_cast<std::int64_t*>(acc),
                   reinterpret_cast<const std::int64_t*>(in), count);
      break;
    case Datatype::Float:
      reduce_typed(op, reinterpret_cast<float*>(acc),
                   reinterpret_cast<const float*>(in), count);
      break;
    case Datatype::Double:
      reduce_typed(op, reinterpret_cast<double*>(acc),
                   reinterpret_cast<const double*>(in), count);
      break;
  }
}

}  // namespace han::mpi
