// Unit tests for src/core: ids, errors, the crossing ledger, metrics, and
// the TCB inventory.

#include <gtest/gtest.h>

#include <set>
#include <string>

#include "src/core/crossings.h"
#include "src/core/error.h"
#include "src/core/ids.h"
#include "src/core/metrics.h"
#include "src/core/tcb.h"

namespace ukvm {
namespace {

TEST(Ids, DefaultIsInvalid) {
  DomainId id;
  EXPECT_FALSE(id.valid());
  EXPECT_EQ(id, DomainId::Invalid());
}

TEST(Ids, ValueRoundTrip) {
  ThreadId id(42);
  EXPECT_TRUE(id.valid());
  EXPECT_EQ(id.value(), 42u);
}

TEST(Ids, Ordering) {
  EXPECT_LT(DomainId(1), DomainId(2));
  EXPECT_EQ(DomainId(7), DomainId(7));
  EXPECT_NE(DomainId(7), DomainId(8));
}

TEST(Ids, Hashable) {
  std::unordered_map<DomainId, int> map;
  map[DomainId(3)] = 30;
  map[DomainId(4)] = 40;
  EXPECT_EQ(map[DomainId(3)], 30);
  EXPECT_EQ(map[DomainId(4)], 40);
}

TEST(Error, NamesAreStable) {
  EXPECT_STREQ(ErrName(Err::kNone), "OK");
  EXPECT_STREQ(ErrName(Err::kNoMemory), "NO_MEMORY");
  EXPECT_STREQ(ErrName(Err::kDead), "DEAD");
  EXPECT_STREQ(ErrName(Err::kRetryExhausted), "RETRY_EXHAUSTED");
  EXPECT_STREQ(ErrName(Err::kCorrupted), "CORRUPTED");
}

TEST(Error, EveryCodeHasADistinctName) {
  std::set<std::string> seen;
  for (int code = 0; code < kNumErrCodes; ++code) {
    const char* name = ErrName(static_cast<Err>(code));
    ASSERT_NE(name, nullptr) << "code " << code;
    EXPECT_STRNE(name, "") << "code " << code;
    EXPECT_STRNE(name, "UNKNOWN") << "code " << code;
    EXPECT_TRUE(seen.insert(name).second) << "duplicate name " << name << " for code " << code;
  }
}

TEST(Error, ResultHoldsValue) {
  Result<int> r = 7;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 7);
  EXPECT_EQ(r.error(), Err::kNone);
}

TEST(Error, ResultHoldsError) {
  Result<int> r = Err::kNotFound;
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.error(), Err::kNotFound);
  EXPECT_EQ(r.value_or(-1), -1);
}

Err Propagates(bool fail) {
  Result<int> r = fail ? Result<int>(Err::kBusy) : Result<int>(1);
  UKVM_TRY(r);
  return Err::kNone;
}

TEST(Error, TryMacroPropagates) {
  EXPECT_EQ(Propagates(true), Err::kBusy);
  EXPECT_EQ(Propagates(false), Err::kNone);
}

TEST(Crossings, RecordAggregates) {
  CrossingLedger ledger;
  const uint32_t call = ledger.InternMechanism("x.call", CrossingKind::kSyncCall);
  const uint32_t xfer = ledger.InternMechanism("x.xfer", CrossingKind::kDataTransfer);
  ledger.Record(call, DomainId(1), DomainId(2), 100, 0);
  ledger.Record(call, DomainId(1), DomainId(2), 150, 0);
  ledger.Record(xfer, DomainId(2), DomainId(1), 50, 4096);

  EXPECT_EQ(ledger.total_count(), 3u);
  EXPECT_EQ(ledger.total_cycles(), 300u);
  EXPECT_EQ(ledger.CountByKind(CrossingKind::kSyncCall), 2u);
  EXPECT_EQ(ledger.CountByKind(CrossingKind::kDataTransfer), 1u);

  const MechanismStats stats = ledger.StatsFor("x.call");
  EXPECT_EQ(stats.count, 2u);
  EXPECT_EQ(stats.cycles, 250u);
  EXPECT_EQ(ledger.StatsFor("x.xfer").bytes, 4096u);
}

TEST(Crossings, InternIsIdempotent) {
  CrossingLedger ledger;
  const uint32_t a = ledger.InternMechanism("same", CrossingKind::kTrap);
  const uint32_t b = ledger.InternMechanism("same", CrossingKind::kTrap);
  EXPECT_EQ(a, b);
}

TEST(Crossings, UnknownMechanismIsZero) {
  CrossingLedger ledger;
  EXPECT_EQ(ledger.StatsFor("nope").count, 0u);
}

TEST(Crossings, SnapshotDiff) {
  CrossingLedger ledger;
  const uint32_t call = ledger.InternMechanism("m", CrossingKind::kSyncCall);
  ledger.Record(call, DomainId(1), DomainId(2), 10, 0);
  const CrossingSnapshot before = ledger.Snapshot();
  ledger.Record(call, DomainId(1), DomainId(2), 20, 0);
  ledger.Record(call, DomainId(1), DomainId(2), 30, 0);
  const CrossingSnapshot diff = DiffSnapshots(before, ledger.Snapshot());
  EXPECT_EQ(diff.total_count, 2u);
  EXPECT_EQ(diff.total_cycles, 50u);
  ASSERT_EQ(diff.mechanisms.size(), 1u);
  EXPECT_EQ(diff.mechanisms[0].count, 2u);
}

TEST(Crossings, IpcLikeExcludesInterrupts) {
  CrossingLedger ledger;
  const uint32_t irq = ledger.InternMechanism("irq", CrossingKind::kInterrupt);
  const uint32_t call = ledger.InternMechanism("call", CrossingKind::kSyncCall);
  ledger.Record(irq, DomainId(1), DomainId(2), 0, 0);
  ledger.Record(call, DomainId(1), DomainId(2), 0, 0);
  EXPECT_EQ(ledger.Snapshot().IpcLikeCount(), 1u);
}

TEST(Metrics, CpuAccountingShares) {
  CpuAccounting acct;
  acct.Charge(DomainId(1), 300);
  acct.Charge(DomainId(2), 100);
  acct.Charge(DomainId(1), 100);
  EXPECT_EQ(acct.CyclesOf(DomainId(1)), 400u);
  EXPECT_EQ(acct.total_cycles(), 500u);
  EXPECT_DOUBLE_EQ(acct.ShareOf(DomainId(1)), 0.8);
  EXPECT_DOUBLE_EQ(acct.ShareOf(DomainId(3)), 0.0);
  const auto by_domain = acct.ByDomain();
  ASSERT_EQ(by_domain.size(), 2u);
  EXPECT_EQ(by_domain[0].first, DomainId(1));  // sorted by cycles desc
}

TEST(Metrics, EmptyAccountingShareIsZero) {
  CpuAccounting acct;
  EXPECT_DOUBLE_EQ(acct.ShareOf(DomainId(1)), 0.0);
}

TEST(Metrics, Counters) {
  Counters counters;
  const uint32_t id = counters.Intern("flips");
  counters.Add(id, 3);
  counters.AddNamed("flips");
  counters.AddNamed("other", 10);
  EXPECT_EQ(counters.Get("flips"), 4u);
  EXPECT_EQ(counters.Get("other"), 10u);
  EXPECT_EQ(counters.Get("missing"), 0u);
  counters.Reset();
  EXPECT_EQ(counters.Get("flips"), 0u);
}

TEST(Tcb, CountsRealSourceLines) {
  // This very test file must have a healthy number of non-blank lines.
  const uint64_t lines = CountSourceLines("tests/test_core.cc");
  EXPECT_GT(lines, 100u);
}

TEST(Tcb, MissingFileCountsZero) {
  EXPECT_EQ(CountSourceLines("no/such/file.cc"), 0u);
}

TEST(Tcb, ReportAggregatesByTrustClass) {
  std::vector<TcbComponent> components = {
      {"kernel", TrustClass::kPrivileged, {"src/core/tcb.cc"}},
      {"server", TrustClass::kCriticalPath, {"src/core/tcb.h"}},
      {"app", TrustClass::kIsolated, {"src/core/ids.h"}},
  };
  const TcbReport report = BuildTcbReport("test-config", components);
  EXPECT_EQ(report.rows.size(), 3u);
  EXPECT_GT(report.privileged_lines, 0u);
  EXPECT_GT(report.critical_lines, report.privileged_lines);
  EXPECT_GT(report.total_lines, report.critical_lines);
}

}  // namespace
}  // namespace ukvm
