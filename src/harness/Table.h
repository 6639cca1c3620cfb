//===- harness/Table.h - Aligned table printing -----------------*- C++ -*-===//
//
// Part of the SmartTrack reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Minimal column-aligned table printer for the paper-table renderer
/// (PaperTables.h) and the example programs.
///
//===----------------------------------------------------------------------===//

#ifndef SMARTTRACK_HARNESS_TABLE_H
#define SMARTTRACK_HARNESS_TABLE_H

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

namespace st {

/// Collects rows of strings and prints them with aligned columns.
class TablePrinter {
public:
  explicit TablePrinter(std::vector<std::string> Header)
      : Header(std::move(Header)) {}

  void addRow(std::vector<std::string> Row) { Rows.push_back(std::move(Row)); }

  /// The aligned rows (header, rule, body), one line each.
  std::string str() const {
    std::vector<size_t> Width(Header.size(), 0);
    auto Widen = [&Width](const std::vector<std::string> &Row) {
      for (size_t I = 0; I < Row.size(); ++I) {
        if (I >= Width.size())
          Width.resize(I + 1, 0);
        Width[I] = std::max(Width[I], Row[I].size());
      }
    };
    Widen(Header);
    for (const auto &Row : Rows)
      Widen(Row);

    std::string Out;
    auto PrintRow = [&](const std::vector<std::string> &Row) {
      for (size_t I = 0; I < Width.size(); ++I) {
        const std::string &Cell = I < Row.size() ? Row[I] : std::string();
        Out += I ? "  " : "";
        Out += Cell;
        Out.append(Width[I] - Cell.size(), ' ');
      }
      Out += '\n';
    };
    PrintRow(Header);
    size_t Total = 0;
    for (size_t W : Width)
      Total += W + 2;
    Out.append(Total > 2 ? Total - 2 : 0, '-');
    Out += '\n';
    for (const auto &Row : Rows)
      PrintRow(Row);
    return Out;
  }

  void print(FILE *Out = stdout) const { std::fputs(str().c_str(), Out); }

private:
  std::vector<std::string> Header;
  std::vector<std::vector<std::string>> Rows;
};

} // namespace st

#endif // SMARTTRACK_HARNESS_TABLE_H
