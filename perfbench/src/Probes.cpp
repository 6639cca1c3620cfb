//===- perfbench/src/Probes.cpp - Span log aggregation and output ---------===//
//
// Part of the SmartTrack reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "Probes.h"

#include <cstdio>

namespace perfbench {

std::map<std::pair<std::string, uint32_t>, SpanTotals>
SpanLog::totals(size_t From) const {
  std::vector<uint64_t> ChildNs(Spans.size(), 0);
  for (size_t I = From; I < Spans.size(); ++I)
    if (Spans[I].Parent >= static_cast<int64_t>(From))
      ChildNs[static_cast<size_t>(Spans[I].Parent)] +=
          Spans[I].EndNs - Spans[I].StartNs;
  std::map<std::pair<std::string, uint32_t>, SpanTotals> Out;
  for (size_t I = From; I < Spans.size(); ++I) {
    const Span &S = Spans[I];
    uint64_t Dur = S.EndNs - S.StartNs;
    SpanTotals &T = Out[{S.Name, S.Tag}];
    ++T.Count;
    T.TotalNs += Dur;
    T.SelfNs += Dur > ChildNs[I] ? Dur - ChildNs[I] : 0;
  }
  return Out;
}

std::map<std::string, uint64_t> SpanLog::selfNsByName() const {
  std::map<std::string, uint64_t> Out;
  for (const auto &[Key, T] : totals())
    Out[Key.first] += T.SelfNs;
  return Out;
}

bool SpanLog::write(const std::string &Path) const {
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  std::fputs("[\n", F);
  for (size_t I = 0; I != Spans.size(); ++I) {
    const Span &S = Spans[I];
    std::fprintf(F,
                 "{\"name\":\"%s\",\"start_ns\":%llu,\"end_ns\":%llu,"
                 "\"parent\":%lld,\"tag\":%u",
                 S.Name, static_cast<unsigned long long>(S.StartNs),
                 static_cast<unsigned long long>(S.EndNs),
                 static_cast<long long>(S.Parent), S.Tag);
    if (S.Request != NoRequest)
      std::fprintf(F, ",\"request\":%llu",
                   static_cast<unsigned long long>(S.Request));
    std::fputs(I + 1 == Spans.size() ? "}\n" : "},\n", F);
  }
  std::fputs("]\n", F);
  return std::fclose(F) == 0;
}

} // namespace perfbench
