#include "ukbench/workload.h"

#include <algorithm>
#include <cstring>

namespace ukbench {

std::optional<Workload> ParseWorkload(std::string_view name) {
  for (Workload w : {Workload::kLifecycle, Workload::kSyscallCtl, Workload::kSplitIo,
                     Workload::kObserved}) {
    if (name == WorkloadName(w)) {
      return w;
    }
  }
  return std::nullopt;
}

const char* WorkloadName(Workload workload) {
  switch (workload) {
    case Workload::kLifecycle:
      return "lifecycle";
    case Workload::kSyscallCtl:
      return "syscall_ctl";
    case Workload::kSplitIo:
      return "split_io";
    case Workload::kObserved:
      return "observed";
  }
  return "?";
}

const char* KindName(Kind kind) {
  switch (kind) {
    case Kind::kProgram:
      return "program";
    case Kind::kBurst:
      return "burst";
    case Kind::kFileRound:
      return "file";
    case Kind::kSend:
      return "send";
    case Kind::kRecvBurst:
      return "recv";
  }
  return "?";
}

uint64_t SplitMix64(uint64_t& state) {
  uint64_t z = (state += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

Stream::Bag::Bag(uint32_t n) : order_(n), next_(n) {
  for (uint32_t i = 0; i < n; ++i) {
    order_[i] = i;
  }
}

uint32_t Stream::Bag::Draw(uint64_t& rng) {
  if (next_ == order_.size()) {
    // Fisher-Yates with the stream's own generator (std::shuffle's draw
    // sequence is implementation-defined).
    for (size_t i = order_.size(); i > 1; --i) {
      std::swap(order_[i - 1], order_[SplitMix64(rng) % i]);
    }
    next_ = 0;
  }
  return order_[next_++];
}

uint32_t Stream::DrawIn(Bag& bag, uint32_t lo, uint32_t hi) {
  const uint64_t span = uint64_t{hi} - lo + 1;
  const uint64_t strata = 16;  // every Bag passed here has 16 strata
  const uint64_t s = bag.Draw(rng_);
  const uint64_t begin = s * span / strata;
  const uint64_t end = (s + 1) * span / strata;  // exclusive
  return static_cast<uint32_t>(lo + begin + SplitMix64(rng_) % (end - begin));
}

Stream::Stream(Workload workload, uint64_t seed)
    : workload_(workload), rng_(seed ^ (uint64_t{static_cast<uint8_t>(workload)} << 56)) {
  // Observed replays split_io's stream exactly: same seed, same requests.
  if (workload_ == Workload::kObserved) {
    rng_ = seed ^ (uint64_t{static_cast<uint8_t>(Workload::kSplitIo)} << 56);
  }
}

Request Stream::Next() {
  Request r;
  r.id = next_id_++;
  r.data_seed = SplitMix64(rng_);
  switch (workload_) {
    case Workload::kLifecycle: {
      r.kind = Kind::kProgram;
      // n syscalls in all: the file round is six (create, write, seek, read,
      // close, unlink) and the datagram one; the rest are control calls.
      const uint32_t n = DrawIn(program_len_, kProgramMinOps, kProgramMaxOps);
      r.ops.reserve(n - 5);
      for (uint32_t i = 0; i + 7 < n; ++i) {
        r.ops.push_back(static_cast<Op>(program_ops_.Draw(rng_)));  // null/getpid/gettime
      }
      // The file round and the datagram go at seeded positions.
      r.ops.insert(r.ops.begin() + static_cast<ptrdiff_t>(SplitMix64(rng_) % (r.ops.size() + 1)),
                   Op::kFile);
      r.ops.insert(r.ops.begin() + static_cast<ptrdiff_t>(SplitMix64(rng_) % (r.ops.size() + 1)),
                   Op::kSend);
      r.file_bytes = DrawIn(program_file_size_, kProgramFileMin, kProgramFileMax);
      r.dgram_bytes = DrawIn(dgram_size_, kDgramMin, kDgramMax);
      break;
    }
    case Workload::kSyscallCtl: {
      r.kind = Kind::kBurst;
      const uint32_t n = kBurstMinOps + burst_len_.Draw(rng_);
      r.ops.reserve(n);
      for (uint32_t i = 0; i < n; ++i) {
        r.ops.push_back(static_cast<Op>(ctl_ops_.Draw(rng_)));  // null/getpid/gettime/yield
      }
      break;
    }
    case Workload::kSplitIo:
    case Workload::kObserved: {
      const uint32_t slot = mix_.Draw(rng_);
      if (slot < kMixFile) {
        r.kind = Kind::kFileRound;
        r.file_bytes = DrawIn(file_size_, kFileMin, kFileMax);
        r.keep_file = file_rounds_ % kLivePeriod < kLivePeriod / 2;
        ++file_rounds_;
      } else if (slot < kMixFile + kMixSend) {
        r.kind = Kind::kSend;
        r.dgram_bytes = DrawIn(dgram_size_, kDgramMin, kDgramMax);
      } else {
        r.kind = Kind::kRecvBurst;
        r.dgram_bytes = DrawIn(dgram_size_, kDgramMin, kDgramMax);
        r.dgram_count = kRecvMin + recv_count_.Draw(rng_);
      }
      break;
    }
  }
  return r;
}

void AppendEncoding(const Request& request, std::vector<uint8_t>& out) {
  auto put = [&out](uint64_t v, size_t bytes) {
    for (size_t i = 0; i < bytes; ++i) {
      out.push_back(static_cast<uint8_t>(v >> (8 * i)));
    }
  };
  put(request.id, 8);
  put(static_cast<uint8_t>(request.kind), 1);
  put(request.ops.size(), 4);
  for (Op op : request.ops) {
    put(static_cast<uint8_t>(op), 1);
  }
  put(request.file_bytes, 4);
  put(request.dgram_bytes, 4);
  put(request.dgram_count, 4);
  put(request.keep_file ? 1 : 0, 1);
  put(request.data_seed, 8);
}

void FillPayload(uint64_t data_seed, std::vector<uint8_t>& out, size_t len) {
  out.resize(len);
  uint64_t state = data_seed;
  size_t i = 0;
  for (; i + 8 <= len; i += 8) {
    const uint64_t word = SplitMix64(state);
    std::memcpy(out.data() + i, &word, 8);
  }
  if (i < len) {
    const uint64_t word = SplitMix64(state);
    std::memcpy(out.data() + i, &word, len - i);
  }
}

}  // namespace ukbench
