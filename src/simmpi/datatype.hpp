// MPI-style datatypes and reduction operators.
//
// The simulator carries real payloads in data mode so that every collective
// algorithm's schedule can be verified element-wise in tests; reductions
// are applied with the same (acc = acc OP in) convention Open MPI uses.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

namespace han::mpi {

enum class Datatype : std::uint8_t { Byte, Int32, Int64, Float, Double };

constexpr std::size_t type_size(Datatype t) {
  switch (t) {
    case Datatype::Byte: return 1;
    case Datatype::Int32: return 4;
    case Datatype::Int64: return 8;
    case Datatype::Float: return 4;
    case Datatype::Double: return 8;
  }
  return 1;
}

enum class ReduceOp : std::uint8_t { Sum, Prod, Max, Min, Band, Bor, Bxor };

const char* op_name(ReduceOp op);

/// True if the op is defined for the datatype (bitwise ops require integer
/// types, matching MPI's rules).
bool op_valid_for(ReduceOp op, Datatype t);

/// acc[i] = acc[i] OP in[i] over `count` elements. Buffers must not alias.
void apply_reduce(ReduceOp op, Datatype t, std::byte* acc,
                  const std::byte* in, std::size_t count);

}  // namespace han::mpi
