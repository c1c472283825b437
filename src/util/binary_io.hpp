// Bounds checks for readers of binary on-disk formats.
#pragma once

#include <cstddef>
#include <cstdint>
#include <istream>

namespace razorbus::util {

// Bound a claimed element count by the bytes actually left in the stream,
// so a corrupt header cannot commit a giant resize for a read that is
// guaranteed to fail. Returns false when the claim exceeds the remaining
// payload; an unseekable stream passes (its read fails on its own).
inline bool claim_fits_stream(std::istream& is, std::uint64_t count,
                              std::size_t elem_size) {
  const std::istream::pos_type data_pos = is.tellg();
  if (data_pos == std::istream::pos_type(-1)) return true;
  is.seekg(0, std::ios::end);
  const std::istream::pos_type end_pos = is.tellg();
  is.seekg(data_pos);
  if (!is || end_pos < data_pos) return false;
  const auto remaining = static_cast<std::uint64_t>(end_pos - data_pos);
  return count <= remaining / elem_size;
}

}  // namespace razorbus::util
