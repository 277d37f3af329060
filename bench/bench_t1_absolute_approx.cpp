// Experiment T1-R2 (Table 1, rows 1-2, "absolute approximation" column):
// randomized absolute approximation for inflationary queries is PTIME
// (Thm 4.3). Empirical shape: at fixed (epsilon, delta) the sample count is
// a constant and per-sample time grows polynomially with the database size,
// so total time is polynomial — in stark contrast to T1-R1's 2^n. The
// measured error stays within epsilon of the exact value where the exact
// value is computable.
#include <cmath>
#include <cstdio>

#include "bench/bench_util.h"
#include "eval/inflationary.h"
#include "gadgets/graphs.h"
#include "gadgets/sat.h"

using namespace pfql;
using namespace pfql::bench;

int main() {
  eval::ApproxParams params;
  params.epsilon = 0.05;
  params.delta = 0.05;

  std::printf(
      "T1-R2a: Thm 4.3 sampling on the SAT gadget (same workload as T1-R1)\n"
      "(fixed eps=%.2f delta=%.2f => %zu samples; time ~ poly(n))\n\n",
      params.epsilon, params.delta,
      eval::HoeffdingCount(params.epsilon, params.delta).value());
  PrintRow({"n_vars", "time_ms", "estimate", "exact", "abs_err"});
  Rng rng(42);
  for (size_t n = 2; n <= 14; n += 2) {
    gadgets::CnfFormula f = gadgets::RandomCnf(n, n, 3, &rng);
    auto gadget = gadgets::InflationarySatGadgetPC(f);
    if (!gadget.ok()) return 1;
    double exact =
        static_cast<double>(f.CountSatisfying()) / std::pow(2.0, n);
    eval::ApproxResult result;
    double ms = TimeMs([&] {
      auto r = eval::ApproxInflationaryOverPC(gadget->program, gadget->pc,
                                              gadget->certain_edb,
                                              gadget->event, params, &rng);
      if (!r.ok()) std::exit(1);
      result = *r;
    });
    PrintRow({FmtInt(n), Fmt(ms), Fmt(result.estimate, 4), Fmt(exact, 4),
              Fmt(std::fabs(result.estimate - exact), 4)});
  }

  std::printf(
      "\nT1-R2b: reachability workload, database size sweep "
      "(time ~ poly(|D|))\n\n");
  PrintRow({"graph_n", "edges", "time_ms", "ms/sample", "estimate"});
  for (int64_t n : {8, 16, 32, 64, 128}) {
    Rng g_rng(7);
    gadgets::Graph g = gadgets::RandomDigraph(n, 4.0 / n, &g_rng);
    auto gadget = gadgets::ReachabilityProgram(g, 0, n - 1);
    if (!gadget.ok()) return 1;
    eval::ApproxResult result;
    double ms = TimeMs([&] {
      auto r = eval::ApproxInflationary(gadget->program, gadget->edb,
                                        gadget->event, params, &rng);
      if (!r.ok()) std::exit(1);
      result = *r;
    });
    PrintRow({FmtInt(n), FmtInt(g.edges.size()), Fmt(ms),
              Fmt(ms / result.samples, 4), Fmt(result.estimate, 4)});
  }

  std::printf(
      "\nShape check: T1-R1 explodes exponentially in n while this bench "
      "grows polynomially — the Table 1 contrast between exact evaluation "
      "and absolute approximation.\n");
  return 0;
}
