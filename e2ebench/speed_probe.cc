#include "speed_probe.h"

#include <sched.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <map>
#include <string>
#include <thread>

namespace pfql {
namespace e2e {

namespace {

/// One chunk of probe work, the same every time: 3,000 inserts of
/// five-digit decimal keys into an ordered map, then a sort of the keys.
uint64_t Chunk() {
  std::map<std::string, int> counts;
  std::vector<std::string> keys;
  keys.reserve(3000);
  uint64_t x = 0x9e3779b97f4a7c15ULL;
  for (int i = 0; i < 3000; ++i) {
    x ^= x >> 31;
    x *= 0xbf58476d1ce4e5b9ULL;
    std::string key = std::to_string(10000 + x % 5000);
    ++counts[key];
    keys.push_back(std::move(key));
  }
  std::sort(keys.begin(), keys.end());
  return counts.size() + keys.front().size() + keys.back().size();
}

double ThreadCpuUs() {
  timespec ts;
  ::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e6 +
         static_cast<double>(ts.tv_nsec) / 1e3;
}

/// Keeps the compiler from dropping the kernel's work.
volatile uint64_t g_sink = 0;

}  // namespace

CpuTicks ReadCpuTicks() {
  // The first line sums every CPU: "cpu user nice system idle iowait irq
  // softirq steal guest guest_nice"; guest time is already in user.
  std::ifstream in("/proc/stat");
  std::string cpu;
  double field[8] = {};
  in >> cpu;
  CpuTicks ticks;
  for (int i = 0; i < 8 && in >> field[i]; ++i) ticks.total += field[i];
  ticks.steal = field[7];
  return ticks;
}

double StealShare(const CpuTicks& from, const CpuTicks& to) {
  const double total = to.total - from.total;
  return total > 0 ? (to.steal - from.steal) / total : 0.0;
}

void ProbeCpus(double seconds, std::vector<double>* chunk_us) {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  std::vector<int> cpus;
  if (::sched_getaffinity(0, sizeof(allowed), &allowed) == 0) {
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &allowed)) cpus.push_back(cpu);
    }
  }
  if (cpus.empty()) cpus.push_back(-1);
  const auto until = std::chrono::steady_clock::now() +
                     std::chrono::duration_cast<std::chrono::nanoseconds>(
                         std::chrono::duration<double>(seconds));
  std::vector<std::vector<double>> per_cpu(cpus.size());
  std::vector<std::thread> threads;
  for (size_t i = 0; i < cpus.size(); ++i) {
    threads.emplace_back([&, i] {
      if (cpus[i] >= 0) {
        cpu_set_t own;
        CPU_ZERO(&own);
        CPU_SET(cpus[i], &own);
        ::sched_setaffinity(0, sizeof(own), &own);
      }
      do {
        const double t0 = ThreadCpuUs();
        g_sink = g_sink + Chunk();
        per_cpu[i].push_back(ThreadCpuUs() - t0);
      } while (std::chrono::steady_clock::now() < until);
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (const std::vector<double>& us : per_cpu) {
    chunk_us->insert(chunk_us->end(), us.begin(), us.end());
  }
}

double Slowdown(std::vector<double> chunk_us) {
  if (chunk_us.empty()) return 1.0;
  const auto mid =
      chunk_us.begin() + static_cast<std::ptrdiff_t>(chunk_us.size() / 2);
  std::nth_element(chunk_us.begin(), mid, chunk_us.end());
  return *mid / kReferenceChunkUs;
}

}  // namespace e2e
}  // namespace pfql
