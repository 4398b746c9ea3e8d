//===- support/Table.h - Fixed-width text tables ----------------*- C++ -*-===//
//
// Part of the StrideProf project, a reproduction of Youfeng Wu, "Efficient
// Discovery of Regular Stride Patterns in Irregular Programs and Its Use in
// Compiler Prefetching" (PLDI 2002).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A tiny fixed-width table printer. Every paper figure sprof-repro
/// regenerates prints its rows/series through this class so all
/// experiment output has a uniform, diffable format.
///
//===----------------------------------------------------------------------===//

#ifndef SPROF_SUPPORT_TABLE_H
#define SPROF_SUPPORT_TABLE_H

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

namespace sprof {

/// Accumulates rows of string cells and prints them with column-aligned,
/// right-justified numeric columns. The first added row is treated as a
/// header and is underlined when printed.
class Table {
public:
  explicit Table(std::string Title) : Title(std::move(Title)) {}

  /// Appends a row; the first row added becomes the header.
  Table &row(std::vector<std::string> Cells);

  /// Convenience formatters used by the figure tables.
  static std::string fmt(double Value, int Precision = 2);
  static std::string fmtPercent(double Value, int Precision = 1);
  static std::string fmtInt(uint64_t Value);

  /// Renders the table to \p OS.
  void print(std::ostream &OS) const;

private:
  std::string Title;
  std::vector<std::vector<std::string>> Rows;
};

} // namespace sprof

#endif // SPROF_SUPPORT_TABLE_H
