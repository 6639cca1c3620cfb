//===- lint/Lint.h - Streaming trace diagnostics engine ---------*- C++ -*-===//
//
// Part of the SmartTrack reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The streaming static-analysis pass over event traces: a LintEngine owns
/// a registry of StreamRules and feeds them events one at a time or batch
/// at a time (the engine layer's chunk size), collecting LintDiagnostics
/// without ever latching — every violation in the input is reported, not
/// just the first. Rules are pluggable; the built-in set spans the hard
/// well-formedness contract the analyses are sound under (paper §2.1) and
/// soft trace pathologies that degrade prediction quality. The engine is
/// the single validation path: WellFormedChecker (trace/Trace.h), the
/// streaming sources, Session's Off/Warn/Strict validation modes, and the
/// st-lint CLI all sit on it.
///
//===----------------------------------------------------------------------===//

#ifndef SMARTTRACK_LINT_LINT_H
#define SMARTTRACK_LINT_LINT_H

#include "lint/Diagnostics.h"
#include "trace/Event.h"

#include <functional>
#include <memory>
#include <vector>

namespace st {

class LintEngine;
class Trace;

/// Advisory id-space sizes declared by the input (the STB header); all
/// zero when the input declares nothing. Rules that check declarations
/// (SiteOutOfTable) only fire on nonzero fields.
struct LintDeclared {
  uint64_t Threads = 0;
  uint64_t Vars = 0;
  uint64_t Locks = 0;
  uint64_t Volatiles = 0;
  uint64_t Sites = 0;
  uint64_t Events = 0;
};

/// One pluggable streaming lint rule. Rules see every event in stream
/// order and report through the engine; onEnd runs once when the stream
/// finishes cleanly (end-of-trace lints). When a rule reports an
/// error-severity diagnostic the engine skips the remaining rules for
/// that event (the event is poisoned; later rules may rely on earlier
/// ones, e.g. the hard rule's id-range check guards dense indexing).
class StreamRule {
public:
  virtual ~StreamRule() = default;

  /// Stable rule name ("well-formedness", ...), for listings and docs.
  virtual const char *name() const = 0;

  virtual void onEvent(const Event &E, LintEngine &Eng) = 0;

  /// End-of-stream hook; default none.
  virtual void onEnd(LintEngine &Eng) { (void)Eng; }
};

/// Engine tuning knobs.
struct LintOptions {
  /// Cap on retained diagnostics; severity counters keep counting past
  /// it (droppedDiagnostics() tells how many were not stored).
  size_t MaxStoredDiagnostics = 1024;
};

/// Streaming diagnostics engine: registry of rules + bounded diagnostic
/// store + severity accounting. Non-latching: processing continues past
/// any violation. O(id-space) memory, independent of stream length.
class LintEngine {
public:
  /// Largest accepted dense id + 1, for every id space. Ids are dense by
  /// construction (Types.h), so anything near this bound is a corrupt or
  /// hostile input; the cap keeps per-id state (here and in the analysis
  /// cores downstream) from being sized off untrusted bytes.
  static constexpr uint32_t MaxCheckableIds = 1u << 22;

  explicit LintEngine(LintOptions Opts = LintOptions());

  /// Appends \p R to the registry; rules run in registration order.
  void addRule(std::unique_ptr<StreamRule> R);

  size_t ruleCount() const { return Rules.size(); }
  const StreamRule &rule(size_t I) const { return *Rules[I]; }

  /// Id-space sizes the input declared (STB header); advisory.
  void setDeclared(const LintDeclared &D) { Declared = D; }
  const LintDeclared &declared() const { return Declared; }

  /// Provenance attached to diagnostics for subsequently processed
  /// events: the decoder's current source line (text) and byte offset
  /// (binary). Zero means unknown.
  void setProvenance(uint32_t Line, uint64_t Byte) {
    CurLine = Line;
    CurByte = Byte;
  }

  /// Invoked once per retained diagnostic, at report time — lets a CLI
  /// stream findings out in O(1) memory while the store stays bounded.
  void setDiagnosticCallback(
      std::function<void(const LintDiagnostic &)> Fn) {
    Callback = std::move(Fn);
  }

  /// Feeds one event through every rule.
  void processEvent(const Event &E);

  /// Feeds a contiguous chunk — the batch-at-a-time entry point matching
  /// the engine layer's EventSource chunks.
  void processBatch(const Event *Events, size_t N);

  /// Counts one event that the caller has already found clean through
  /// HardRules::step, without running the rules, so the event indexes of
  /// later diagnostics stay exact. Valid only when the engine's rules are
  /// the hard set alone (WellFormedChecker).
  void countCleanEvent() { ++Events; }

  /// Runs every rule's end-of-stream hook. Idempotent.
  void finish();
  bool finished() const { return Finished; }

  /// Reports a diagnostic about the event currently being processed (or
  /// a stream-level one when no event is current) at \p Code's default
  /// severity. Rules call this; CLIs use it for decode failures.
  void report(LintCode Code, std::string Message);

  /// As report(), with an explicit severity override.
  void reportAs(LintCode Code, LintSeverity Severity, std::string Message);

  const std::vector<LintDiagnostic> &diagnostics() const { return Diags; }
  uint64_t droppedDiagnostics() const { return Dropped; }

  uint64_t errorCount() const { return Errors; }
  uint64_t warningCount() const { return Warnings; }
  uint64_t noteCount() const { return Notes; }
  bool hasErrors() const { return Errors != 0; }

  /// Events fed so far (the stream index assigned to the next event).
  uint64_t eventsProcessed() const { return Events; }

  /// First retained error-severity diagnostic, or null.
  const LintDiagnostic *firstError() const;

  /// Aggregated one-line rendering of the retained diagnostics: the
  /// first \p MaxListed joined by "; ", plus a trailing "... and N more"
  /// when the store holds more. Empty when there are none.
  std::string summaryString(size_t MaxListed = 4) const;

private:
  LintOptions Opts;
  std::vector<std::unique_ptr<StreamRule>> Rules;
  std::vector<LintDiagnostic> Diags;
  std::function<void(const LintDiagnostic &)> Callback;
  LintDeclared Declared;
  const Event *CurEvent = nullptr;
  uint64_t Events = 0;
  uint32_t CurLine = 0;
  uint64_t CurByte = 0;
  uint64_t Errors = 0, Warnings = 0, Notes = 0, Dropped = 0;
  bool EventPoisoned = false;
  bool Finished = false;
};

/// The hard well-formedness contract (STL001-STL007) as one rule: ids
/// stay under the dense cap, a thread only acquires a free lock and only
/// releases a lock it holds, forked threads are fresh, joined threads run
/// no further events, and no thread forks or joins itself. State is a
/// dense lock-holder table and one flag byte per thread.
///
/// Two entry points share that state. step() is the inline fast path for
/// clean events; onEvent() is the diagnostic path, reporting in a fixed
/// order (id range, lock discipline, thread lifecycle) and ending the
/// event at its first error, with the same recovery as a clean event
/// where one exists (a double acquire hands the lock to the acquirer).
class HardRules final : public StreamRule {
public:
  const char *name() const override { return "well-formedness"; }

  void onEvent(const Event &E, LintEngine &Eng) override;

  /// Applies \p E and returns true when no hard rule fires on it.
  /// Otherwise — and for ids the tables are not sized for yet — returns
  /// false with no state changed; onEvent() then handles the event.
  bool step(const Event &E) {
    const ThreadId T = E.Tid;
    if (T >= Flags.size()) // Flags never grows past the id cap
      return false;
    const uint8_t Self = Flags[T];
    if (Self & Joined)
      return false;
    const uint32_t Target = E.Target;
    switch (E.Kind) {
    case EventKind::Read:
    case EventKind::Write:
      if (Target >= LintEngine::MaxCheckableIds ||
          (E.Site >= LintEngine::MaxCheckableIds && E.Site != InvalidId))
        return false;
      break;
    case EventKind::VolRead:
    case EventKind::VolWrite:
      if (Target >= LintEngine::MaxCheckableIds)
        return false;
      break;
    case EventKind::Acquire:
      if (Target >= Holder.size() || Holder[Target] != InvalidId)
        return false;
      Holder[Target] = T;
      break;
    case EventKind::Release:
      if (Target >= Holder.size() || Holder[Target] != T)
        return false;
      Holder[Target] = InvalidId;
      break;
    case EventKind::Fork:
      if (Target >= Flags.size() || Target == T ||
          (Flags[Target] & (Started | Forked)))
        return false;
      Flags[Target] |= Forked;
      break;
    case EventKind::Join:
      if (Target >= Flags.size() || Target == T || (Flags[Target] & Joined))
        return false;
      Flags[Target] |= Joined;
      break;
    }
    Flags[T] = Self | Started;
    return true;
  }

private:
  enum : uint8_t { Started = 1, Joined = 2, Forked = 4 };

  std::vector<ThreadId> Holder; // lock -> holder (InvalidId = free)
  std::vector<uint8_t> Flags;   // thread -> Started | Joined | Forked
};

/// Registers the hard well-formedness rule (errors only) and returns it,
/// so a caller that runs nothing else (WellFormedChecker) can take its
/// step() fast path. This is the set the validating sources run on every
/// event.
HardRules &addHardRules(LintEngine &Eng);

/// Registers the soft lint rules (warnings/notes): held-at-end, unjoined
/// threads, empty critical sections, volatile/data aliasing, declared
/// site-table range, id-space density.
void addSoftRules(LintEngine &Eng);

/// Hard + soft: the full st-lint / Session-validation rule set.
void addAllRules(LintEngine &Eng);

/// Lints a materialized trace with the given rule set and returns every
/// diagnostic (convenience over the streaming API, for tests and the
/// builder).
std::vector<LintDiagnostic> lintTrace(const Trace &Tr, bool SoftRules = true,
                                      LintOptions Opts = LintOptions());

} // namespace st

#endif // SMARTTRACK_LINT_LINT_H
