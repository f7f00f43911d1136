#include "src/hw/machine.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "src/core/log.h"

namespace hwsim {

Machine::Machine(Platform platform, uint64_t memory_bytes, uint32_t num_vcpus)
    : platform_(std::move(platform)),
      memory_(memory_bytes, platform_.page_shift),
      irq_controller_(platform_.irq_lines, tracer_),
      ipis_(num_vcpus == 0 ? 1 : num_vcpus) {
  if (num_vcpus == 0) {
    num_vcpus = 1;
  }
  cpus_.reserve(num_vcpus);
  for (uint32_t v = 0; v < num_vcpus; ++v) {
    cpus_.push_back(std::make_unique<Cpu>(*this, platform_.tlb_entries, v));
  }
  ledger_.SetTimeSource([this] { return now_; });
  tracer_.SetTimeSource([this] { return now_; });
  reqtrace_.SetTimeSource([this] { return now_; });
  trace_idle_frame_ = tracer_.profiler().InternFrame("idle");
}

void Machine::EnableTracing(const ukvm::TraceConfig& config) {
  tracer_.Enable(config);
  // The tracer lives in core and cannot see this layer's idle constant.
  tracer_.RegisterDomain(kIdleDomain, "idle");
  tracer_.RegisterDomain(ukvm::kHardwareDomain, "hardware");
  if (!tracing_subscribed_) {
    tracing_subscribed_ = true;
    ledger_.AddTraceSink(
        [this](const ukvm::CrossingEvent& event) { tracer_.OnCrossing(event, ledger_); });
  }
  accounting_.SetObserver(&tracer_.profiler());
}

void Machine::EnableRequestTracing(const ukvm::ReqTraceConfig& config) {
  reqtrace_.Enable(config);
  if (!reqtrace_subscribed_) {
    reqtrace_subscribed_ = true;
    ledger_.AddTraceSink(
        [this](const ukvm::CrossingEvent& event) { reqtrace_.OnCrossing(event, ledger_); });
  }
}

void Machine::Charge(uint64_t cycles) { ChargeTo(cpu().current_domain(), cycles); }

void Machine::ChargeTo(ukvm::DomainId domain, uint64_t cycles) {
  AccountOnly(domain, cycles);
  now_ += cycles;
}

void Machine::AccountOnly(ukvm::DomainId domain, uint64_t cycles) {
  if (cycles == 0) {
    return;
  }
  accounting_.Charge(domain.valid() ? domain : ukvm::kHardwareDomain, cycles);
}

void Machine::ChargeCopy(uint64_t bytes) {
  const uint64_t t0 = now_;
  Charge(costs().CopyCost(bytes));
  reqtrace_.CopyLeaf(cpu().current_domain(), t0, now_, bytes);
}

Machine::EventId Machine::ScheduleAt(uint64_t time, std::function<void()> fn) {
  const EventId id = next_event_id_++;
  events_.push(Event{time < now_ ? now_ : time, id, std::move(fn)});
  return id;
}

Machine::EventId Machine::ScheduleAfter(uint64_t delay, std::function<void()> fn) {
  return ScheduleAt(now_ + delay, std::move(fn));
}

void Machine::CancelEvent(EventId id) { cancelled_.insert(id); }

bool Machine::HasPendingEvents() const { return events_.size() > cancelled_.size(); }

void Machine::AdvanceClockTo(uint64_t time) {
  if (time > now_) {
    ukvm::ProfScope idle(tracer_, trace_idle_frame_);
    accounting_.Charge(kIdleDomain, time - now_);
    now_ = time;
  }
}

void Machine::DropCancelledEvents() {
  while (!events_.empty()) {
    const auto it = cancelled_.find(events_.top().id);
    if (it == cancelled_.end()) {
      return;
    }
    cancelled_.erase(it);
    events_.pop();
  }
}

bool Machine::RunNextEvent() {
  DropCancelledEvents();
  if (events_.empty()) {
    return false;
  }
  Event event = events_.top();
  events_.pop();
  AdvanceClockTo(event.time);
  // Event callbacks run on behalf of devices, not whatever request the
  // interrupted code was serving: clear the ambient request around them
  // so causality never leaks across a scheduling boundary.
  const ukvm::ReqTraceRef ambient = reqtrace_.SwapCurrent(ukvm::ReqTraceRef{});
  event.fn();
  reqtrace_.SwapCurrent(ambient);
  return true;
}

void Machine::RunUntilIdle(uint64_t max_events) {
  for (uint64_t i = 0; i < max_events; ++i) {
    if (!RunNextEvent()) {
      return;
    }
    DeliverPendingInterrupts();
  }
  UKVM_WARN("RunUntilIdle: stopped after %llu events",
            static_cast<unsigned long long>(max_events));
}

void Machine::RunFor(uint64_t cycles) {
  const uint64_t deadline = now_ + cycles;
  while (now_ < deadline) {
    // A cancelled head must not stand in for the next live event: that
    // one may lie past the deadline.
    DropCancelledEvents();
    if (events_.empty() || events_.top().time > deadline) {
      AdvanceClockTo(deadline);
      return;
    }
    RunNextEvent();
    DeliverPendingInterrupts();
  }
}

ukvm::Err Machine::WaitUntil(const std::function<bool()>& pred, uint64_t timeout_cycles) {
  const uint64_t deadline = now_ + timeout_cycles;
  while (!pred()) {
    if (now_ >= deadline) {
      return ukvm::Err::kTimedOut;
    }
    if (!HasPendingEvents()) {
      return ukvm::Err::kWouldBlock;  // nothing can ever satisfy the predicate
    }
    RunNextEvent();
    DeliverPendingInterrupts();
  }
  return ukvm::Err::kNone;
}

uint32_t Machine::SwitchVcpu(uint32_t vcpu) {
  assert(vcpu < num_vcpus());
  const uint32_t previous = current_vcpu_;
  current_vcpu_ = vcpu;
  if (ipis_.Pending(vcpu, IpiVector::kTlbShootdown)) {
    DeliverShootdownIpis(vcpu);
  }
  return previous;
}

uint64_t Machine::BeginTlbShootdown(const PageTable* space, std::span<const Vaddr> vpns,
                                    bool space_dying) {
  const uint64_t salt = Cpu::TlbSaltOf(space);
  ++shootdown_stats_.requests;
  shootdown_stats_.pages_requested += vpns.size();
  if (vpns.empty()) {
    ++shootdown_stats_.full_flushes;
  }

  // Local invalidation. The caller's unmap path usually did this already
  // (and charged for it); repeating it is idempotent and free, and covers
  // direct protocol users.
  Cpu& self = cpu();
  if (vpns.empty()) {
    self.FlushSpaceEntries(space, salt);
  } else {
    for (const Vaddr vpn : vpns) {
      self.InvalidatePageKeyed(salt, vpn);
    }
  }

  const uint64_t id = next_shootdown_id_++;
  if (num_vcpus() == 1) {
    return id;  // nobody else to notify; complete, nothing stored or charged
  }

  ShootdownRequest req;
  req.space = space;
  req.salt = salt;
  req.vpns.assign(vpns.begin(), vpns.end());
  req.space_dying = space_dying;
  req.initiator = current_vcpu_;
  req.pending.assign(num_vcpus(), false);
  for (uint32_t v = 0; v < num_vcpus(); ++v) {
    if (v == current_vcpu_) {
      continue;
    }
    req.pending[v] = true;
    ++req.outstanding;
    ipis_.Post(v, IpiVector::kTlbShootdown);
    ++shootdown_stats_.ipis_sent;
    Charge(costs().ipi_send);
  }
  if (Observer* race = race_observer()) {
    // The IPI posts publish the request's flush list to every target.
    race->Release(cpu().current_domain(), RaceEdgeKey(RaceEdgeKind::kIpi, id));
  }
  shootdowns_.emplace(id, std::move(req));
  return id;
}

void Machine::DeliverShootdownIpis(uint32_t vcpu) {
  ipis_.TakePending(vcpu, IpiVector::kTlbShootdown);
  Cpu& target = *cpus_[vcpu];
  for (auto& [id, req] : shootdowns_) {
    if (!req.pending[vcpu]) {
      continue;
    }
    uint64_t cost = costs().interrupt_dispatch;
    if (req.vpns.empty()) {
      target.FlushSpaceEntries(req.space, req.salt);
      cost += costs().tlb_flush_full;
    } else {
      for (const Vaddr vpn : req.vpns) {
        target.InvalidatePageKeyed(req.salt, vpn);
      }
      cost += costs().tlb_flush_page * req.vpns.size();
    }
    // The handler runs concurrently with the (spinning) initiator, so the
    // clock does not advance; the cycles bill to whatever the target vCPU
    // was running when the IPI hit.
    AccountOnly(target.current_domain(), cost);
    req.pending[vcpu] = false;
    --req.outstanding;
    if (cost > req.max_target_cost) {
      req.max_target_cost = cost;
    }
    ++shootdown_stats_.remote_acks;
    if (Observer* race = race_observer()) {
      // The handler sees the initiator's history (IPI receipt) and its ack
      // publishes its own back to the initiator's spin-wait.
      race->Acquire(target.current_domain(), RaceEdgeKey(RaceEdgeKind::kIpi, id));
      race->Release(target.current_domain(), RaceEdgeKey(RaceEdgeKind::kIpiAck, id));
    }
  }
}

void Machine::WaitTlbShootdown(uint64_t id) {
  auto it = shootdowns_.find(id);
  if (it == shootdowns_.end()) {
    return;
  }
  for (uint32_t v = 0; v < num_vcpus(); ++v) {
    if (it->second.pending[v]) {
      DeliverShootdownIpis(v);
    }
  }
  // The initiator spun until the slowest target acked.
  const uint64_t spin_t0 = now_;
  Charge(it->second.max_target_cost);
  reqtrace_.ShootdownLeaf(cpu().current_domain(), spin_t0, now_);
  if (Observer* race = race_observer()) {
    race->Acquire(cpu().current_domain(), RaceEdgeKey(RaceEdgeKind::kIpiAck, id));
  }
  shootdowns_.erase(it);
}

bool Machine::ShootdownComplete(uint64_t id) const {
  const auto it = shootdowns_.find(id);
  return it == shootdowns_.end() || it->second.outstanding == 0;
}

uint64_t Machine::TlbShootdown(const PageTable* space, std::span<const Vaddr> vpns,
                               bool space_dying) {
  const uint64_t id = BeginTlbShootdown(space, vpns, space_dying);
  WaitTlbShootdown(id);
  return id;
}

void Machine::ShootdownSpaceDeath(const PageTable* space) {
  if (space == nullptr) {
    return;
  }
  // Idempotency is per table *instance*, not per pointer: the allocator can
  // hand a new table a destroyed one's address (and the salt registry its
  // salt id, once quarantine lifts), and that new table's death still needs
  // its own flush round.
  for (const DeadSpace& dead : dead_spaces_) {
    if (dead.instance == space->instance_id()) {
      return;
    }
  }
  const uint64_t salt = Cpu::TlbSaltOf(space);
  dead_spaces_.push_back(DeadSpace{space, salt, space->instance_id(), false});
  const size_t record = dead_spaces_.size() - 1;
  const uint64_t id = BeginTlbShootdown(space, {}, /*space_dying=*/true);
  WaitTlbShootdown(id);
  dead_spaces_[record].flush_acked = true;
  // Every vCPU acked the death flush: the salt id may leave quarantine
  // once the table object itself is gone.
  TlbSaltRegistry::Release(salt >> 32);
}

const Machine::DeadSpace* Machine::FindDeadSpaceBySalt(uint64_t salt) const {
  for (const DeadSpace& dead : dead_spaces_) {
    if (dead.salt == salt) {
      return &dead;
    }
  }
  return nullptr;
}

bool Machine::IsDeadSpace(const PageTable* space) const {
  for (const DeadSpace& dead : dead_spaces_) {
    if (dead.space == space) {
      return true;
    }
  }
  return false;
}

size_t Machine::unacked_shootdowns() const {
  size_t n = 0;
  for (const auto& [id, req] : shootdowns_) {
    if (req.outstanding > 0) {
      ++n;
    }
  }
  return n;
}

void Machine::ForEachUnackedShootdown(
    const std::function<void(uint64_t, uint32_t, uint32_t)>& fn) const {
  // Sorted so the auditor's reports are deterministic.
  std::vector<uint64_t> ids;
  ids.reserve(shootdowns_.size());
  for (const auto& [id, req] : shootdowns_) {
    if (req.outstanding > 0) {
      ids.push_back(id);
    }
  }
  std::sort(ids.begin(), ids.end());
  for (const uint64_t id : ids) {
    const ShootdownRequest& req = shootdowns_.at(id);
    fn(id, req.initiator, req.outstanding);
  }
}

void Machine::RaiseTrap(TrapFrame& frame) {
  assert(trap_handler_ != nullptr && "no privileged software booted");
  Charge(costs().trap_entry);
  trap_handler_->HandleTrap(frame);
  Charge(costs().trap_return);
}

void Machine::NotifyDmaTarget(Paddr target, bool to_memory) {
  if (observer_ != nullptr) {
    observer_->DmaTarget(DmaAccess{memory_.FrameOf(target), to_memory, cpu().current_domain()});
  }
}

void Machine::DeliverPendingInterrupts() {
  if (trap_handler_ == nullptr || !cpu().interrupts_enabled() || in_interrupt_delivery_) {
    return;
  }
  in_interrupt_delivery_ = true;
  const ukvm::ReqTraceRef ambient = reqtrace_.SwapCurrent(ukvm::ReqTraceRef{});
  while (auto line = irq_controller_.TakePending()) {
    Charge(costs().interrupt_dispatch);
    trap_handler_->HandleInterrupt(*line);
  }
  reqtrace_.SwapCurrent(ambient);
  in_interrupt_delivery_ = false;
}

void Machine::PostMortemDump(const char* reason) {
  if (postmortem_dumped_) {
    return;
  }
  postmortem_dumped_ = true;
  const char* dir = std::getenv("UKVM_TRACE_DIR");
  if (dir == nullptr || dir[0] == '\0') {
    return;
  }
  // One file per dumping machine; a process-wide sequence number keeps
  // multi-machine tests from clobbering each other's bundles.
  static int sequence = 0;
  const int seq = sequence++;
  const std::string path =
      std::string(dir) + "/POSTMORTEM_" + std::to_string(seq) + "_" + reason + ".txt";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return;
  }
  std::fprintf(f, "post-mortem bundle: %s\nsim time: %llu cycles\n\n", reason,
               static_cast<unsigned long long>(now_));

  std::fprintf(f, "== histograms ==\n");
  const auto dump_hist = [f](const std::string& name, const ukvm::LogHistogram& h) {
    const ukvm::HistogramSnapshot s = h.Snapshot();
    std::fprintf(f, "%s count=%llu min=%llu p50=%llu p90=%llu p99=%llu max=%llu\n",
                 name.c_str(), static_cast<unsigned long long>(s.count),
                 static_cast<unsigned long long>(s.min), static_cast<unsigned long long>(s.p50),
                 static_cast<unsigned long long>(s.p90), static_cast<unsigned long long>(s.p99),
                 static_cast<unsigned long long>(s.max));
  };
  tracer_.ForEachHistogram(dump_hist);
  reqtrace_.ForEachHistogram(dump_hist);

  std::fprintf(f, "\n== slowest requests ==\n%s", reqtrace_.SlowestReport().c_str());

  std::fprintf(f, "\n== flight recorder (oldest first) ==\n");
  tracer_.ForEachEvent([this, f](const ukvm::TraceEvent& event) {
    std::fprintf(f, "seq=%llu t=%llu type=%u name=%s dom=%s dur=%llu a=%llu b=%llu\n",
                 static_cast<unsigned long long>(event.seq),
                 static_cast<unsigned long long>(event.time),
                 static_cast<unsigned>(event.type), tracer_.Name(event.name).c_str(),
                 tracer_.DomainName(event.domain).c_str(),
                 static_cast<unsigned long long>(event.dur),
                 static_cast<unsigned long long>(event.a),
                 static_cast<unsigned long long>(event.b));
  });
  std::fclose(f);
  UKVM_WARN("post-mortem bundle written: %s", path.c_str());
}

}  // namespace hwsim
