#include "src/check/ledger_lint.h"

#include <cctype>

namespace ucheck {
namespace {

// Splits a dotted mechanism name; empty result means a malformed segment.
std::vector<std::string> SplitName(const std::string& name) {
  std::vector<std::string> segments;
  std::string current;
  for (char c : name) {
    if (c == '.') {
      if (current.empty()) {
        return {};
      }
      segments.push_back(current);
      current.clear();
      continue;
    }
    const bool legal = (std::islower(static_cast<unsigned char>(c)) != 0) ||
                       (std::isdigit(static_cast<unsigned char>(c)) != 0) || c == '_';
    if (!legal) {
      return {};
    }
    current += c;
  }
  if (current.empty()) {
    return {};
  }
  segments.push_back(current);
  return segments;
}

}  // namespace

const char* LintRuleName(LintRule rule) {
  switch (rule) {
    case LintRule::kUnmatchedReply:
      return "unmatched-reply";
    case LintRule::kUnbalancedPair:
      return "unbalanced-pair";
    case LintRule::kNonMonotonicTime:
      return "non-monotonic-time";
    case LintRule::kBadMechanismName:
      return "bad-mechanism-name";
    case LintRule::kKindMismatch:
      return "kind-mismatch";
  }
  return "?";
}

LedgerLint::LedgerLint(const ukvm::CrossingLedger& ledger)
    : ledger_(ledger), stack_prefixes_{"l4", "xen", "native"} {
  groups_.push_back(PairGroup{"ipc", {}, 0});
  groups_.push_back(PairGroup{"hypercall", {}, 0});
  groups_.push_back(PairGroup{"guest-trap", {}, 0});
}

LedgerLint::MechanismInfo LedgerLint::Classify(uint32_t id) const {
  MechanismInfo info;
  info.name = ledger_.MechanismName(id);
  info.kind = ledger_.MechanismKind(id);
  // The pairing table. Mechanisms absent here are exempt: either not a
  // paired kind, or one-way by design (l4.ipc.send has no reply transfer,
  // xen.syscall.fastgate and native.syscall return without a recorded
  // crossing — the return path is the point of those fast paths).
  struct Role {
    const char* name;
    PairRole role;
    int group;
  };
  static constexpr Role kRoles[] = {
      {"l4.ipc.call", PairRole::kOpens, 0},
      {"l4.pf.ipc", PairRole::kOpens, 0},
      {"l4.ipc.reply", PairRole::kCloses, 0},
      // E23: the coalesced reply-and-wait crossing closes the same group a
      // fast Call opened — a fast path that forgets it leaves the pair
      // unbalanced, which is exactly what the mutation test checks.
      {"l4.ipc.replywait", PairRole::kCloses, 0},
      {"xen.hypercall", PairRole::kOpens, 1},
      {"xen.hypercall.return", PairRole::kCloses, 1},
      {"xen.syscall.reflect", PairRole::kOpens, 2},
      {"xen.pf.reflect", PairRole::kOpens, 2},
      {"xen.exc.reflect", PairRole::kOpens, 2},
      {"xen.iret", PairRole::kCloses, 2},
  };
  for (const Role& role : kRoles) {
    if (info.name == role.name) {
      info.role = role.role;
      info.group = role.group;
      break;
    }
  }
  return info;
}

const LedgerLint::MechanismInfo& LedgerLint::InfoFor(uint32_t id) {
  auto it = mechanisms_.find(id);
  if (it != mechanisms_.end()) {
    return it->second;
  }
  return mechanisms_.emplace(id, Classify(id)).first->second;
}

void LedgerLint::CheckName(const MechanismInfo& info, const ukvm::CrossingEvent& event) {
  auto flag = [&](LintRule rule, std::string detail) {
    violations_.push_back(LintViolation{rule, info.name, event.time, event.seq,
                                        std::move(detail)});
  };

  const std::vector<std::string> segments = SplitName(info.name);
  if (segments.size() < 2 || segments.size() > 4) {
    flag(LintRule::kBadMechanismName,
         "name must be 2-4 dot-separated segments of [a-z0-9_]+");
    return;
  }
  bool prefix_ok = false;
  for (const std::string& prefix : stack_prefixes_) {
    if (segments.front() == prefix) {
      prefix_ok = true;
      break;
    }
  }
  if (!prefix_ok) {
    flag(LintRule::kBadMechanismName, "unknown stack prefix '" + segments.front() + "'");
  }

  if (info.kind == ukvm::CrossingKind::kKindCount) {
    flag(LintRule::kKindMismatch, "mechanism interned with the sentinel kind");
    return;
  }
  // The name's last segment implies a kind; the interned kind must agree.
  const std::string& op = segments.back();
  auto expect = [&](ukvm::CrossingKind kind) {
    if (info.kind != kind) {
      flag(LintRule::kKindMismatch, "suffix '" + op + "' implies " +
                                        ukvm::CrossingKindName(kind) + " but interned as " +
                                        ukvm::CrossingKindName(info.kind));
    }
  };
  if (op == "reply" || op == "return") {
    expect(ukvm::CrossingKind::kSyncReply);
  } else if (op == "iret") {
    expect(ukvm::CrossingKind::kTrapReturn);
  } else if (op == "irq" || op == "virq") {
    expect(ukvm::CrossingKind::kInterrupt);
  }
}

void LedgerLint::Observe(const ukvm::CrossingEvent& event) {
  ++events_observed_;

  if (have_last_time_ && event.time < last_time_) {
    violations_.push_back(LintViolation{LintRule::kNonMonotonicTime,
                                        ledger_.MechanismName(event.mechanism), event.time,
                                        event.seq, "time ran backwards"});
  }
  last_time_ = event.time;
  have_last_time_ = true;

  const bool first_sighting = !mechanisms_.contains(event.mechanism);
  const MechanismInfo& info = InfoFor(event.mechanism);
  if (first_sighting) {
    CheckName(info, event);
  }

  if (info.role == PairRole::kNone) {
    return;
  }
  PairGroup& group = groups_[static_cast<size_t>(info.group)];
  const auto from = event.from.value();
  const auto to = event.to.value();
  if (info.role == PairRole::kOpens) {
    ++group.outstanding[{from, to}];
    return;
  }
  // A close travels the reverse direction of the open it matches.
  auto it = group.outstanding.find({to, from});
  if (it == group.outstanding.end() || it->second <= 0) {
    violations_.push_back(LintViolation{LintRule::kUnmatchedReply, info.name, event.time,
                                        event.seq,
                                        "no outstanding " + group.name + " call for this pair"});
    return;
  }
  if (--it->second == 0) {
    group.outstanding.erase(it);
  }
  ++group.completed;
}

void LedgerLint::CheckBalanced() {
  for (const PairGroup& group : groups_) {
    for (const auto& [pair, count] : group.outstanding) {
      if (count != 0) {
        violations_.push_back(LintViolation{
            LintRule::kUnbalancedPair, group.name, last_time_, events_observed_,
            std::to_string(count) + " outstanding between domains " +
                std::to_string(pair.first) + " -> " + std::to_string(pair.second)});
      }
    }
  }
}

uint64_t LedgerLint::CompletedPairs(const std::string& group) const {
  for (const PairGroup& g : groups_) {
    if (g.name == group) {
      return g.completed;
    }
  }
  return 0;
}

}  // namespace ucheck
