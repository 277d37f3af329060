// Experiment A1 (ablation, paper Sec 5.1): the partitioning optimization.
// Workload: k independent repair-key coins. The monolithic Markov chain has
// 2^k + 1 states (every joint flip combination plus start); the partitioned
// evaluation splits the input into k classes and builds only the event's
// class, a chain of 3 states. Both must return the same exact probability;
// the cost gap grows exponentially with k.
#include <cstdio>

#include "bench/bench_util.h"
#include "datalog/translate.h"
#include "eval/partition.h"

using namespace pfql;
using namespace pfql::bench;

namespace {

Instance CoinsEdb(size_t k) {
  Instance edb;
  Relation opts(Schema({"k", "v"}));
  for (size_t i = 0; i < k; ++i) {
    opts.Insert(Tuple{Value(static_cast<int64_t>(i)), Value(0)});
    opts.Insert(Tuple{Value(static_cast<int64_t>(i)), Value(1)});
  }
  edb.Set("opts", std::move(opts));
  return edb;
}

}  // namespace

int main() {
  auto program = datalog::ParseProgram("flip(<K>, V) :- opts(K, V).");
  if (!program.ok()) return 1;
  QueryEvent event{"flip", Tuple{Value(0), Value(1)}};

  std::printf(
      "A1: Sec 5.1 partitioning vs monolithic exact evaluation\n"
      "(k independent coins; event = coin 0 shows 1; both must give "
      "1/2)\n\n");
  PrintRow({"k", "mono_states", "mono_ms", "classes", "class_states",
            "part_ms", "mono_p", "part_p"});

  for (size_t k = 1; k <= 7; ++k) {
    Instance edb = CoinsEdb(k);

    eval::ExactForeverResult mono;
    StateSpaceOptions options;
    options.max_states = 1 << 15;
    double mono_ms = TimeMs([&] {
      auto tq = datalog::TranslateNonInflationary(*program, edb);
      if (!tq.ok()) std::exit(1);
      auto r = eval::ExactForever({tq->kernel, event}, tq->initial, options);
      if (!r.ok()) {
        std::fprintf(stderr, "monolithic failed at k=%zu: %s\n", k,
                     r.status().ToString().c_str());
        std::exit(1);
      }
      mono = *r;
    });

    eval::PartitionedResult parted;
    double part_ms = TimeMs([&] {
      auto r = eval::PartitionedExactForever(*program, edb, event, options);
      if (!r.ok()) std::exit(1);
      parted = *r;
    });
    PrintRow({FmtInt(k), FmtInt(mono.num_states), Fmt(mono_ms),
              FmtInt(parted.num_classes), FmtInt(parted.num_states),
              Fmt(part_ms), mono.probability.ToString(),
              parted.probability.ToString()});
  }

  std::printf(
      "\nShape check: monolithic states grow ~2^k while the event's class "
      "stays at 3 states; identical exact probabilities. This is the Sec 5.1 "
      "win on independence-heavy databases.\n");
  return 0;
}
