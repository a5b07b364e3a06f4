// Padding-free printing of plain parameter structs for value-parameterized tests.
//
// gtest names each instantiated case after its printed parameter, and for a
// struct it cannot format it dumps the raw object bytes ("12-byte object
// <08-00 00-00 ...>"). Padding bytes are part of that dump and are never
// initialised, so the generated test names changed from run to run.
// print_fields_as_bytes() produces the same dump with every padding byte zero.
#pragma once

#include <cstddef>
#include <cstdio>
#include <cstring>
#include <ostream>

namespace hours::testing_support {

template <class T, class... Fields>
void print_fields_as_bytes(const T& value, std::ostream* os, Fields T::*... fields) {
  unsigned char bytes[sizeof(T)] = {};
  const auto* base = reinterpret_cast<const unsigned char*>(&value);
  const auto copy_field = [&](const auto& field) {
    const auto* at = reinterpret_cast<const unsigned char*>(&field);
    std::memcpy(bytes + (at - base), at, sizeof field);
  };
  (copy_field(value.*fields), ...);

  *os << sizeof(T) << "-byte object <";
  for (std::size_t i = 0; i < sizeof(T); ++i) {
    if (i != 0) *os << (i % 2 == 0 ? ' ' : '-');
    char text[3];
    std::snprintf(text, sizeof text, "%02X", bytes[i]);
    *os << text;
  }
  *os << '>';
}

}  // namespace hours::testing_support
