// Seeded request streams for the repository benchmark.
//
// A stream is a pure function of (workload, seed): the stacks only ever see
// the requests generated here. Every random parameter is drawn from a
// stratified "bag" (each stratum of its range once per refill, in a seeded
// order), so the mix of any long prefix sits inside its declared
// proportions and per-request averages barely move from seed to seed. That
// keeps run-to-run spread down without making two seeds' streams alike.

#ifndef UKBENCH_WORKLOAD_H_
#define UKBENCH_WORKLOAD_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string_view>
#include <vector>

namespace ukbench {

enum class Workload : uint8_t { kLifecycle, kSyscallCtl, kSplitIo, kObserved };

std::optional<Workload> ParseWorkload(std::string_view name);
const char* WorkloadName(Workload workload);

// One system call (or syscall group) of a generated program.
enum class Op : uint8_t {
  kNull,
  kGetPid,
  kGetTime,
  kYield,
  kFile,  // lifecycle only: create, write, seek, read back, close, unlink
  kSend,  // lifecycle only: one datagram to the wire host
};

enum class Kind : uint8_t {
  kProgram,    // lifecycle: a 16-64 syscall program run on a freshly booted stack
  kBurst,      // syscall_ctl: 8-64 control syscalls
  kFileRound,  // split_io: create, write, seek, read back, close, unlink
  kSend,       // split_io: one datagram to the wire host
  kRecvBurst,  // split_io: 1-32 datagrams streamed by the wire host
};
inline constexpr size_t kKindCount = 5;
const char* KindName(Kind kind);

struct Request {
  uint64_t id = 0;
  Kind kind = Kind::kBurst;
  std::vector<Op> ops;       // kProgram / kBurst
  uint32_t file_bytes = 0;   // kProgram / kFileRound
  uint32_t dgram_bytes = 0;  // kProgram / kSend / kRecvBurst
  uint32_t dgram_count = 0;  // kRecvBurst
  // kFileRound: the live-file count sweeps 0..47 and back (a triangle over
  // 94 file rounds), so name lookups scan a varying share of MiniFS's
  // 64-inode table. Rising: the round's file stays live. Falling: the round
  // unlinks its own file and the oldest live one.
  bool keep_file = false;
  uint64_t data_seed = 0;  // seeds the payload bytes
};

// Declared request mixes and parameter ranges (the self-test checks every
// generated stream against these).
//
// split_io's mix gives each request kind about a third of the host time of
// the three stacks together, so a change to any one data path moves the
// workload's host figures. Sends are by far the cheapest kind, so they are
// the most frequent (README.md has the figures the mix was set from, and
// every run prints each kind's share of each stack's host time).
inline constexpr uint32_t kMixBlock = 96;  // split_io kinds per shuffled block
inline constexpr uint32_t kMixFile = 1;
inline constexpr uint32_t kMixSend = 92;
inline constexpr uint32_t kMixRecv = 3;
inline constexpr uint32_t kProgramMinOps = 16, kProgramMaxOps = 64;
inline constexpr uint32_t kBurstMinOps = 8, kBurstMaxOps = 64;
inline constexpr uint32_t kProgramFileMin = 512, kProgramFileMax = 2048;
inline constexpr uint32_t kFileMin = 512, kFileMax = 8192;
inline constexpr uint32_t kDgramMin = 64, kDgramMax = 1460;
inline constexpr uint32_t kRecvMin = 1, kRecvMax = 32;
inline constexpr uint32_t kLivePeriod = 94;

class Stream {
 public:
  Stream(Workload workload, uint64_t seed);

  Request Next();

 private:
  // A seeded permutation of `n` strata, reshuffled whenever it runs out.
  class Bag {
   public:
    explicit Bag(uint32_t n);
    uint32_t Draw(uint64_t& rng);

   private:
    std::vector<uint32_t> order_;
    uint32_t next_ = 0;
  };

  // A value in [lo, hi] from the next stratum of `bag`.
  uint32_t DrawIn(Bag& bag, uint32_t lo, uint32_t hi);

  Workload workload_;
  uint64_t rng_;
  uint64_t next_id_ = 0;
  uint64_t file_rounds_ = 0;
  Bag mix_{kMixBlock};
  Bag program_len_{16};
  Bag burst_len_{kBurstMaxOps - kBurstMinOps + 1};
  Bag ctl_ops_{4};
  Bag program_ops_{3};
  Bag file_size_{16};
  Bag program_file_size_{16};
  Bag dgram_size_{16};
  Bag recv_count_{kRecvMax - kRecvMin + 1};
};

uint64_t SplitMix64(uint64_t& state);

// Canonical byte encoding of a request (for stream-identity checks).
void AppendEncoding(const Request& request, std::vector<uint8_t>& out);

// Payload bytes of a file or datagram with the given seed.
void FillPayload(uint64_t data_seed, std::vector<uint8_t>& out, size_t len);

}  // namespace ukbench

#endif  // UKBENCH_WORKLOAD_H_
