// Random RA + repair-key expressions over two base relations, e(i, j, p)
// and c(i), for property tests of the optimizer and the compiled plans.
// Many draws are type-invalid (a projection onto a renamed-away column,
// say); callers skip or compare those as rejections.
#ifndef PFQL_TESTS_RA_RANDOM_EXPR_H_
#define PFQL_TESTS_RA_RANDOM_EXPR_H_

#include <cstdint>

#include "ra/ra_expr.h"
#include "util/random.h"

namespace pfql {

class RandomExprGen {
 public:
  explicit RandomExprGen(uint64_t seed) : rng_(seed) {}

  RaExpr::Ptr Gen(size_t depth) {
    if (depth == 0 || rng_.NextBernoulli(0.3)) {
      return rng_.NextBernoulli(0.5) ? RaExpr::Base("e") : RaExpr::Base("c");
    }
    switch (rng_.NextIndex(13)) {
      case 0: {
        // A selection over whichever columns the child happens to have;
        // use a predicate on "i" (present in both bases).
        return RaExpr::Select(
            Gen1(depth),
            Predicate::Cmp(CmpOp::kLe, ScalarExpr::Column("i"),
                           ScalarExpr::Const(Value(SmallInt()))));
      }
      case 1:
        return RaExpr::Select(Gen1(depth), Predicate::True());
      case 2:
        return RaExpr::Project(Gen1(depth), {"i"});
      case 3:
        return RaExpr::Rename(RaExpr::Project(Gen1(depth), {"i"}),
                              {{"i", "x"}});
      case 4: {
        auto l = RaExpr::Project(Gen1(depth), {"i"});
        auto r = RaExpr::Project(Gen1(depth), {"i"});
        return RaExpr::Union(l, r);
      }
      case 5: {
        auto l = RaExpr::Project(Gen1(depth), {"i"});
        auto r = RaExpr::Project(Gen1(depth), {"i"});
        return rng_.NextBernoulli(0.5) ? RaExpr::Difference(l, r)
                                       : RaExpr::Intersect(l, r);
      }
      case 6:
        return RaExpr::Join(Gen1(depth), RaExpr::Base("e"));
      case 7: {
        RepairKeySpec spec;
        spec.key_columns = {"i"};
        return RaExpr::RepairKey(RaExpr::Project(Gen1(depth), {"i"}), spec);
      }
      case 8: {
        // Extend by a column, then (sometimes) a reordering projection:
        // the shape of the translator's head assembly.
        auto ext = RaExpr::Extend(RaExpr::Project(Gen1(depth), {"i"}), "k",
                                  ScalarExpr::Column("i"));
        if (rng_.NextBernoulli(0.5)) return ext;
        return RaExpr::Project(ext, {"k", "i"});
      }
      case 9: {
        // A chain of extends by a constant and a column under a projection
        // that drops the source column.
        auto ext = RaExpr::Extend(
            RaExpr::Extend(RaExpr::Project(Gen1(depth), {"i"}), "k",
                           ScalarExpr::Const(Value(SmallInt()))),
            "m", ScalarExpr::Column("i"));
        return RaExpr::Project(ext, rng_.NextBernoulli(0.5)
                                        ? std::vector<std::string>{"m", "k"}
                                        : std::vector<std::string>{"k"});
      }
      case 10: {
        auto l = RaExpr::Project(Gen1(depth), {"i"});
        auto r =
            RaExpr::Rename(RaExpr::Project(Gen1(depth), {"i"}), {{"i", "y"}});
        return RaExpr::Product(l, r);
      }
      case 11: {
        // A key that is not a prefix of the row, with ties: groups come in
        // key order, which is not row order.
        RepairKeySpec spec;
        if (rng_.NextBernoulli(0.5)) {
          spec.key_columns = {"j"};
          spec.weight_column = "p";
        } else {
          spec.key_columns = {"p"};
        }
        return RaExpr::RepairKey(
            RaExpr::Join(RaExpr::Project(Gen1(depth), {"i"}),
                         RaExpr::Base("e")),
            spec);
      }
      default: {
        // A weighted choice of one out-edge per node.
        RepairKeySpec spec;
        spec.key_columns = {"i"};
        spec.weight_column = "p";
        return RaExpr::RepairKey(
            RaExpr::Join(RaExpr::Project(Gen1(depth), {"i"}),
                         RaExpr::Base("e")),
            spec);
      }
    }
  }

 private:
  RaExpr::Ptr Gen1(size_t depth) { return Gen(depth - 1); }
  int64_t SmallInt() { return static_cast<int64_t>(rng_.NextIndex(4)); }

  Rng rng_;
};

}  // namespace pfql

#endif  // PFQL_TESTS_RA_RANDOM_EXPR_H_
