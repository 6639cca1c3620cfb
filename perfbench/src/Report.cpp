//===- perfbench/src/Report.cpp - Metrics, checks, and JSON output --------===//
//
// Part of the SmartTrack reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "Report.h"

#include "report/RaceSink.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace perfbench {

namespace {

std::string number(double V) {
  if (!std::isfinite(V))
    return "null";
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.17g", V);
  return Buf;
}

constexpr size_t MaxFailureMessages = 20;

} // namespace

void Report::metric(const std::string &Name, double Value, const char *Unit) {
  Metrics.push_back({Name, Value, Unit});
}

void Report::races(const std::string &Key, uint64_t Dynamic,
                   uint64_t Static) {
  Races.push_back({Key, Dynamic, Static});
}

void Report::note(const std::string &Key, const std::string &Value) {
  Notes.emplace_back(Key, Value);
}

void Report::check(bool Ok, const std::string &What) {
  ++Attempted;
  if (Ok)
    return;
  ++Failed;
  if (Failures.size() < MaxFailureMessages)
    Failures.push_back(What);
}

std::string Report::json() const {
  std::string Out = "{\"attempted\":" + std::to_string(Attempted) +
                    ",\"failed\":" + std::to_string(Failed) +
                    ",\"failures\":[";
  for (size_t I = 0; I != Failures.size(); ++I) {
    if (I)
      Out += ',';
    st::jsonAppendEscaped(Out, Failures[I]);
  }
  Out += "],\"notes\":{";
  for (size_t I = 0; I != Notes.size(); ++I) {
    if (I)
      Out += ',';
    st::jsonAppendEscaped(Out, Notes[I].first);
    Out += ':';
    st::jsonAppendEscaped(Out, Notes[I].second);
  }
  Out += "},\"races\":{";
  for (size_t I = 0; I != Races.size(); ++I) {
    if (I)
      Out += ',';
    st::jsonAppendEscaped(Out, Races[I].Key);
    Out += ":[" + std::to_string(Races[I].Dynamic) + ',' +
           std::to_string(Races[I].Static) + ']';
  }
  Out += "},\"metrics\":{";
  for (size_t I = 0; I != Metrics.size(); ++I) {
    if (I)
      Out += ',';
    st::jsonAppendEscaped(Out, Metrics[I].Name);
    Out += ":{\"value\":" + number(Metrics[I].Value) + ",\"unit\":";
    st::jsonAppendEscaped(Out, Metrics[I].Unit);
    Out += '}';
  }
  Out += "}}";
  return Out;
}

double median(std::vector<double> V) { return quantile(std::move(V), 0.5); }

double quantile(std::vector<double> V, double Q) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  double Rank = std::ceil(Q * static_cast<double>(V.size()));
  size_t Idx = Rank < 1 ? 0 : static_cast<size_t>(Rank) - 1;
  return V[std::min(Idx, V.size() - 1)];
}

} // namespace perfbench
