// The crossing-discipline linter.
//
// The crossing ledger is the project's measurement instrument; if kernels
// record crossings sloppily (a call without its reply, a trap that never
// returns, a misclassified mechanism) every experiment built on the ledger
// inherits the error. The linter consumes the ledger's event stream and
// checks the discipline the taxonomy promises:
//
//  - pairing: synchronous calls and traps must be balanced by their reply /
//    return mechanism per ordered domain pair (mechanisms that are one-way
//    by design are explicitly exempt);
//  - monotonicity: event sequence numbers and simulated timestamps never
//    run backwards;
//  - taxonomy conformance: mechanism names follow the dotted
//    "<stack>.<subsystem>[.<op>...]" scheme with a known stack prefix, and
//    the interned CrossingKind matches what the name's suffix implies.
//
// Violations carry the mechanism name and the simulated-time location so a
// failing test points at the offending crossing, not just at a count.

#ifndef UKVM_SRC_CHECK_LEDGER_LINT_H_
#define UKVM_SRC_CHECK_LEDGER_LINT_H_

#include <cstdint>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/core/crossings.h"
#include "src/core/ids.h"

namespace ucheck {

enum class LintRule : uint8_t {
  kUnmatchedReply,    // reply/return with no outstanding call/trap
  kUnbalancedPair,    // calls/traps still outstanding at a quiescent point
  kNonMonotonicTime,  // event timestamp ran backwards
  kBadMechanismName,  // name violates the dotted taxonomy
  kKindMismatch,      // interned kind contradicts the name's suffix
};

const char* LintRuleName(LintRule rule);

struct LintViolation {
  LintRule rule;
  std::string mechanism;  // offending mechanism name ("" for stream-level)
  uint64_t time = 0;      // simulated time of the offending event
  uint64_t seq = 0;       // event ordinal
  std::string detail;     // human-readable specifics
};

class LedgerLint {
 public:
  explicit LedgerLint(const ukvm::CrossingLedger& ledger);

  // Feeds one event from the ledger's trace stream.
  void Observe(const ukvm::CrossingEvent& event);

  // Quiescent-point check: every call/trap group must have zero
  // outstanding entries. Appends violations for any imbalance found.
  void CheckBalanced();

  const std::vector<LintViolation>& violations() const { return violations_; }
  size_t violation_count() const { return violations_.size(); }
  void ClearViolations() { violations_.clear(); }

  uint64_t events_observed() const { return events_observed_; }

  // Completed call/reply (or trap/return) pairs for a pairing group, summed
  // over all domain pairs. Group names: "ipc", "hypercall", "guest-trap".
  uint64_t CompletedPairs(const std::string& group) const;

  // Registers an additional legal first-segment name ("l4", "xen" and
  // "native" are built in).
  void AllowStackPrefix(const std::string& prefix) { stack_prefixes_.push_back(prefix); }

 private:
  // How a mechanism participates in pairing: it opens a group, closes one,
  // or is exempt (one-way by design, or not a paired kind at all).
  enum class PairRole : uint8_t { kNone, kOpens, kCloses };

  struct MechanismInfo {
    std::string name;
    ukvm::CrossingKind kind = ukvm::CrossingKind::kKindCount;
    PairRole role = PairRole::kNone;
    int group = -1;  // index into groups_ when role != kNone
  };

  struct PairGroup {
    std::string name;
    // Outstanding opens per ordered (from, to) domain pair; a close for the
    // group decrements the reversed pair.
    std::map<std::pair<uint32_t, uint32_t>, int64_t> outstanding;
    uint64_t completed = 0;
  };

  const MechanismInfo& InfoFor(uint32_t id);
  MechanismInfo Classify(uint32_t id) const;
  void CheckName(const MechanismInfo& info, const ukvm::CrossingEvent& event);

  const ukvm::CrossingLedger& ledger_;
  std::vector<std::string> stack_prefixes_;
  std::vector<PairGroup> groups_;
  std::unordered_map<uint32_t, MechanismInfo> mechanisms_;
  std::vector<uint32_t> name_checked_;  // mechanism ids already linted
  std::vector<LintViolation> violations_;
  uint64_t events_observed_ = 0;
  uint64_t last_time_ = 0;
  bool have_last_time_ = false;
};

}  // namespace ucheck

#endif  // UKVM_SRC_CHECK_LEDGER_LINT_H_
