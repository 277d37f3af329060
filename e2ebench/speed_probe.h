// Machine-speed probe.
//
// The virtual machines this benchmark runs on change speed with the load
// of their neighbours: the same code runs up to 1.5x slower for seconds to
// minutes at a time, with no steal time visible inside the guest. Ten runs
// at different times then spread by 10-30% (interquartile range over
// median) on throughput and latency, which would swamp any change smaller
// than the host's drift.
//
// The probe measures that drift while the benchmark runs. Between slices
// of load, with every client stopped and every request and stream
// answered, it runs a fixed, bench-owned kernel on every CPU the process
// may use (one pinned thread each): ordered-map inserts of short strings
// and a sort of them, which slows down with the host as the servers'
// allocation- and pointer-heavy code does. It times each chunk in thread
// CPU time, so being descheduled in the guest does not count, while a
// slower host does. The kernel is not pfql code and runs while the servers
// are idle, so a change to pfql cannot move it.
//
// Thread CPU time does not count the time the hypervisor takes from the
// guest (steal, which the guest does account), and steal slows the
// servers far more than its share: at 20% steal the routed cache_hot
// workload served a third of its usual requests, since every round trip
// waits for a descheduled vCPU. The benchmark therefore reads the steal
// share of every slice of load and leaves out the slices above
// kMaxStealShare.
#ifndef PFQL_E2EBENCH_SPEED_PROBE_H_
#define PFQL_E2EBENCH_SPEED_PROBE_H_

#include <vector>

namespace pfql {
namespace e2e {

/// Chunk time of the probe kernel at the reference speed, close to its
/// median on an idle 4-vCPU Xeon (Sapphire Rapids) KVM guest, g++ 12 -O3.
constexpr double kReferenceChunkUs = 1500.0;

/// Slices of load in which the hypervisor took more than this share of the
/// CPU time are not measured. Over half an hour of runs, slices with 1-2%
/// steal ran 5-7% slower than the probe explains, those under 1% 1-2%;
/// this cut left out 6% of the slices.
constexpr double kMaxStealShare = 0.01;

/// CPU time summed over every CPU, in clock ticks, from /proc/stat.
struct CpuTicks {
  double steal = 0.0;  ///< taken by the hypervisor
  double total = 0.0;  ///< every state, steal included
};

/// The current CpuTicks; zeros when /proc/stat is unreadable.
CpuTicks ReadCpuTicks();

/// Share of the CPU time between two readings that was stolen, 0 when no
/// tick passed.
double StealShare(const CpuTicks& from, const CpuTicks& to);

/// Runs the probe kernel for about `seconds` on every CPU this process may
/// use, one pinned thread each, and appends the CPU time of every chunk, in
/// microseconds, to `chunk_us`.
void ProbeCpus(double seconds, std::vector<double>* chunk_us);

/// Median of `chunk_us` over kReferenceChunkUs, 1 when empty. A duration
/// measured while the probe read this, divided by it (a rate multiplied by
/// it), reads at the reference speed.
double Slowdown(std::vector<double> chunk_us);

}  // namespace e2e
}  // namespace pfql

#endif  // PFQL_E2EBENCH_SPEED_PROBE_H_
