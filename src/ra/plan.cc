#include "ra/plan.h"

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <optional>
#include <utility>

#include "prob/repair_key.h"
#include "util/string_util.h"

namespace pfql {

// One compiled operator. Children are indices into the plan's node vector.
struct RaPlan::Node {
  enum class Op {
    kScan,        ///< a base relation, read in place
    kConst,       ///< a literal relation, read in place
    kSelect,      ///< σ, evaluated by name against `schema`
    kMap,         ///< fused π / extend by a column or a constant
    kJoin,        ///< natural join on resolved key positions
    kProduct,     ///< ×
    kUnion,       ///< ∪
    kDifference,  ///< −
    kIntersect,   ///< ∩
    kRepairKey,   ///< repair-key on resolved key and weight positions
  };
  // One output column of a map: an input position, or a constant.
  struct MapColumn {
    size_t position = 0;
    std::optional<Value> constant;
  };

  Op op = Op::kScan;
  int left = -1;
  int right = -1;
  bool probabilistic = false;
  std::string relation;           // kScan
  Schema schema;                  // kScan: as compiled; kSelect: input
  RaExpr::Ptr source;             // kConst, kSelect: the RaExpr node
  std::vector<MapColumn> map;     // kMap
  std::vector<size_t> left_key;   // kJoin
  std::vector<size_t> right_key;  // kJoin
  std::vector<size_t> right_rest; // kJoin: right columns not in the key
  RepairKeyColumns repair;        // kRepairKey
};

namespace {

using Node = RaPlan::Node;
using Op = Node::Op;

// ---- Compiler ----------------------------------------------------------

// Compiles one expression bottom-up. Each step returns the node that
// produces the expression's rows and the expression's schema; a rename or
// an identity projection returns its child's node under a new schema.
class Compiler {
 public:
  explicit Compiler(const std::map<std::string, Schema>& schemas)
      : schemas_(schemas) {}

  struct Compiled {
    int node;
    Schema schema;
  };

  StatusOr<Compiled> Compile(const RaExpr::Ptr& expr) {
    if (expr == nullptr) return Status::InvalidArgument("null RaExpr");
    const RaExpr& e = *expr;
    switch (e.kind()) {
      case RaExpr::Kind::kBase: {
        auto it = schemas_.find(e.relation_name());
        if (it == schemas_.end()) {
          return Status::NotFound("unknown relation '" + e.relation_name() +
                                  "'");
        }
        Node node;
        node.op = Op::kScan;
        node.relation = e.relation_name();
        node.schema = it->second;
        return Compiled{Add(std::move(node)), it->second};
      }
      case RaExpr::Kind::kConst: {
        Node node;
        node.op = Op::kConst;
        node.source = expr;
        return Compiled{Add(std::move(node)), e.const_relation().schema()};
      }
      case RaExpr::Kind::kSelect: {
        PFQL_ASSIGN_OR_RETURN(Compiled child, Compile(e.left()));
        std::vector<std::string> used;
        e.predicate()->CollectColumns(&used);
        for (const auto& c : used) {
          if (!child.schema.Contains(c)) {
            return Status::NotFound("selection references unknown column '" +
                                    c + "' in " + child.schema.ToString());
          }
        }
        Node node;
        node.op = Op::kSelect;
        node.left = child.node;
        node.schema = child.schema;
        node.source = expr;
        return Compiled{Add(std::move(node)), std::move(child.schema)};
      }
      case RaExpr::Kind::kProject:
        return CompileProject(e);
      case RaExpr::Kind::kRename: {
        PFQL_ASSIGN_OR_RETURN(Compiled child, Compile(e.left()));
        std::vector<std::string> cols = child.schema.columns();
        for (const auto& [from, to] : e.renames()) {
          auto idx = child.schema.IndexOf(from);
          if (!idx) {
            return Status::NotFound("rename source '" + from + "' not in " +
                                    child.schema.ToString());
          }
          cols[*idx] = to;
        }
        Schema out(std::move(cols));
        PFQL_RETURN_NOT_OK(out.Validate());
        return Compiled{child.node, std::move(out)};
      }
      case RaExpr::Kind::kExtend:
        return CompileExtend(e);
      case RaExpr::Kind::kJoin: {
        PFQL_ASSIGN_OR_RETURN(Compiled a, Compile(e.left()));
        PFQL_ASSIGN_OR_RETURN(Compiled b, Compile(e.right()));
        Node node;
        node.op = Op::kJoin;
        for (size_t j = 0; j < b.schema.size(); ++j) {
          auto i = a.schema.IndexOf(b.schema.column(j));
          if (i) {
            node.left_key.push_back(*i);
            node.right_key.push_back(j);
          } else {
            node.right_rest.push_back(j);
          }
        }
        // With no column in common the join is ×.
        if (node.left_key.empty()) node.op = Op::kProduct;
        return Binary(std::move(node), a, b, a.schema.JoinWith(b.schema));
      }
      case RaExpr::Kind::kProduct: {
        PFQL_ASSIGN_OR_RETURN(Compiled a, Compile(e.left()));
        PFQL_ASSIGN_OR_RETURN(Compiled b, Compile(e.right()));
        PFQL_ASSIGN_OR_RETURN(Schema out, a.schema.ConcatDisjoint(b.schema));
        Node node;
        node.op = Op::kProduct;
        return Binary(std::move(node), a, b, std::move(out));
      }
      case RaExpr::Kind::kUnion:
      case RaExpr::Kind::kDifference:
      case RaExpr::Kind::kIntersect: {
        PFQL_ASSIGN_OR_RETURN(Compiled a, Compile(e.left()));
        PFQL_ASSIGN_OR_RETURN(Compiled b, Compile(e.right()));
        if (a.schema.size() != b.schema.size()) {
          return Status::TypeError("set operation on schemas of arity " +
                                   std::to_string(a.schema.size()) + " and " +
                                   std::to_string(b.schema.size()));
        }
        Node node;
        node.op = e.kind() == RaExpr::Kind::kUnion        ? Op::kUnion
                  : e.kind() == RaExpr::Kind::kDifference ? Op::kDifference
                                                          : Op::kIntersect;
        Schema out = a.schema;
        return Binary(std::move(node), a, b, std::move(out));
      }
      case RaExpr::Kind::kRepairKey: {
        PFQL_ASSIGN_OR_RETURN(Compiled child, Compile(e.left()));
        const RepairKeySpec& spec = e.repair_spec();
        Node node;
        node.op = Op::kRepairKey;
        node.left = child.node;
        node.probabilistic = true;
        PFQL_ASSIGN_OR_RETURN(node.repair.key,
                              child.schema.IndicesOf(spec.key_columns));
        if (spec.weight_column) {
          node.repair.weight = child.schema.IndexOf(*spec.weight_column);
          if (!node.repair.weight) {
            return Status::NotFound("repair-key weight column '" +
                                    *spec.weight_column + "' not in " +
                                    child.schema.ToString());
          }
        }
        return Compiled{Add(std::move(node)), std::move(child.schema)};
      }
    }
    return Status::Internal("corrupt RaExpr");
  }

  std::vector<Node> TakeNodes() { return std::move(nodes_); }

 private:
  int Add(Node node) {
    if (node.left >= 0) node.probabilistic |= nodes_[node.left].probabilistic;
    if (node.right >= 0) {
      node.probabilistic |= nodes_[node.right].probabilistic;
    }
    nodes_.push_back(std::move(node));
    return static_cast<int>(nodes_.size()) - 1;
  }

  StatusOr<Compiled> Binary(Node node, const Compiled& a, const Compiled& b,
                            Schema out) {
    node.left = a.node;
    node.right = b.node;
    return Compiled{Add(std::move(node)), std::move(out)};
  }

  // π: an identity projection compiles to nothing, and one over a map
  // composes with it.
  StatusOr<Compiled> CompileProject(const RaExpr& e) {
    PFQL_ASSIGN_OR_RETURN(Compiled child, Compile(e.left()));
    PFQL_ASSIGN_OR_RETURN(std::vector<size_t> idx,
                          child.schema.IndicesOf(e.columns()));
    Schema out(e.columns());
    PFQL_RETURN_NOT_OK(out.Validate());
    bool identity = idx.size() == child.schema.size();
    for (size_t i = 0; identity && i < idx.size(); ++i) identity = idx[i] == i;
    if (identity) return Compiled{child.node, std::move(out)};
    std::vector<Node::MapColumn> map;
    map.reserve(idx.size());
    for (size_t i : idx) map.push_back(SourceOf(child.node, i));
    return Compiled{MapOver(child.node, std::move(map)), std::move(out)};
  }

  // An extend (by a column or a constant) joins the map below it, or
  // starts one.
  StatusOr<Compiled> CompileExtend(const RaExpr& e) {
    PFQL_ASSIGN_OR_RETURN(Compiled child, Compile(e.left()));
    if (child.schema.Contains(e.extend_column())) {
      return Status::AlreadyExists("extend column '" + e.extend_column() +
                                   "' already in " + child.schema.ToString());
    }
    const ScalarExpr& value = *e.extend_expr();
    std::vector<Node::MapColumn> map;
    map.reserve(child.schema.size() + 1);
    for (size_t i = 0; i < child.schema.size(); ++i) {
      map.push_back(SourceOf(child.node, i));
    }
    if (value.kind() == ScalarExpr::Kind::kColumn) {
      auto from = child.schema.IndexOf(value.column_name());
      if (!from) {
        return Status::NotFound("extend references unknown column '" +
                                value.column_name() + "'");
      }
      map.push_back(SourceOf(child.node, *from));
    } else {
      map.push_back({0, value.constant()});
    }
    std::vector<std::string> cols = child.schema.columns();
    cols.push_back(e.extend_column());
    Schema out(std::move(cols));
    return Compiled{MapOver(child.node, std::move(map)), std::move(out)};
  }

  // Output column i of `node`, as a source for a map over it: through the
  // node's own map when it is one (the two maps then fuse).
  Node::MapColumn SourceOf(int node, size_t i) const {
    if (nodes_[node].op == Op::kMap) return nodes_[node].map[i];
    return {i, std::nullopt};
  }

  // A map over `child`, fused into it when the child is a map itself (the
  // map's sources already read through it, see SourceOf).
  int MapOver(int child, std::vector<Node::MapColumn> map) {
    if (nodes_[child].op == Op::kMap) {
      nodes_[child].map = std::move(map);
      return child;
    }
    Node node;
    node.op = Op::kMap;
    node.left = child;
    node.map = std::move(map);
    return Add(std::move(node));
  }

  const std::map<std::string, Schema>& schemas_;
  std::vector<Node> nodes_;
};

// ---- Evaluator -----------------------------------------------------------

// A node's rows, sorted and distinct: borrowed from the instance or a
// constant, or owned.
class Rows {
 public:
  explicit Rows(const std::vector<Tuple>* borrowed) : borrowed_(borrowed) {}
  explicit Rows(std::vector<Tuple> owned) : owned_(std::move(owned)) {}

  const std::vector<Tuple>& get() const {
    return borrowed_ != nullptr ? *borrowed_ : owned_;
  }
  std::vector<Tuple> Take() && {
    return borrowed_ != nullptr ? *borrowed_ : std::move(owned_);
  }

  // The order and equality Distribution<Rows> normalises by: Relation's.
  bool operator<(const Rows& o) const { return get() < o.get(); }
  bool operator==(const Rows& o) const { return get() == o.get(); }

 private:
  const std::vector<Tuple>* borrowed_ = nullptr;
  std::vector<Tuple> owned_;
};

// A node's possible worlds, normalised as every exact node's are.
using Worlds = Distribution<Rows>;

// Relation::Make's canonicalization: sort unless sorted, then dedup.
std::vector<Tuple> Canonical(std::vector<Tuple> rows) {
  if (!std::is_sorted(rows.begin(), rows.end())) {
    std::sort(rows.begin(), rows.end());
  }
  rows.erase(std::unique(rows.begin(), rows.end()), rows.end());
  return rows;
}

// The hash of a row's key columns: equal keys hash equal, as Tuple::Hash.
size_t KeyHash(const Tuple& row, const std::vector<size_t>& key) {
  size_t h = key.size();
  for (size_t k : key) HashCombine(&h, row[k].Hash());
  return h;
}

bool KeysMatch(const Tuple& a, const std::vector<size_t>& a_key,
               const Tuple& b, const std::vector<size_t>& b_key) {
  for (size_t k = 0; k < a_key.size(); ++k) {
    if (a[a_key[k]] != b[b_key[k]]) return false;
  }
  return true;
}

// Joins one left row with one matching right row.
Tuple Joined(const Tuple& l, const Tuple& r, const std::vector<size_t>& rest) {
  std::vector<Value> values;
  values.reserve(l.size() + rest.size());
  values.insert(values.end(), l.values().begin(), l.values().end());
  for (size_t j : rest) values.push_back(r[j]);
  return Tuple(std::move(values));
}

// Rows in, rows out, per operator. Sample and Exact share everything but
// repair-key: Exact runs deterministic subtrees through Sample, and
// applies the same operators to each world of a probabilistic one.
class Evaluator {
 public:
  Evaluator(const std::vector<Node>& nodes, const Instance& instance)
      : nodes_(nodes), instance_(instance) {}

  StatusOr<Rows> Sample(int n, Rng* rng) const {
    const Node& node = nodes_[n];
    switch (node.op) {
      case Op::kScan:
        return Scan(node);
      case Op::kConst:
        return Rows(&node.source->const_relation().tuples());
      case Op::kRepairKey: {
        PFQL_ASSIGN_OR_RETURN(Rows child, Sample(node.left, rng));
        PFQL_ASSIGN_OR_RETURN(std::vector<Tuple> world,
                              RepairKeySample(child.get(), node.repair, rng));
        return Rows(std::move(world));
      }
      default:
        break;
    }
    // The left child draws before the right one.
    PFQL_ASSIGN_OR_RETURN(Rows left, Sample(node.left, rng));
    if (node.right < 0) return Apply(node, left.get(), nullptr);
    PFQL_ASSIGN_OR_RETURN(Rows right, Sample(node.right, rng));
    return Apply(node, left.get(), &right.get());
  }

  StatusOr<Worlds> Exact(int n, const ExactEvalOptions& options) const {
    const Node& node = nodes_[n];
    if (!node.probabilistic) {
      PFQL_ASSIGN_OR_RETURN(Rows rows, Sample(n, nullptr));
      return Worlds::Point(std::move(rows));
    }
    PFQL_ASSIGN_OR_RETURN(Worlds left, Exact(node.left, options));
    Worlds out;
    if (node.op == Op::kRepairKey) {
      PFQL_RETURN_NOT_OK(EnumerateRepairs(node, left, options, &out));
    } else if (node.right < 0) {
      for (const auto& w : left.outcomes()) {
        PFQL_ASSIGN_OR_RETURN(Rows rows, Apply(node, w.value.get(), nullptr));
        out.Add(std::move(rows), w.probability);
      }
    } else {
      PFQL_ASSIGN_OR_RETURN(Worlds right, Exact(node.right, options));
      if (left.size() * right.size() > options.max_worlds) {
        return Status::ResourceExhausted(
            "exact evaluation exceeds max_worlds = " +
            std::to_string(options.max_worlds));
      }
      for (const auto& l : left.outcomes()) {
        for (const auto& r : right.outcomes()) {
          PFQL_ASSIGN_OR_RETURN(Rows rows,
                                Apply(node, l.value.get(), &r.value.get()));
          out.Add(std::move(rows), l.probability * r.probability);
        }
      }
    }
    out.Normalize();
    return out;
  }

 private:
  StatusOr<Rows> Scan(const Node& node) const {
    const Relation* rel = instance_.Find(node.relation);
    if (rel == nullptr) {
      return Status::NotFound("relation '" + node.relation +
                              "' not in instance");
    }
    if (rel->schema() != node.schema) {
      return Status::InvalidArgument(
          "relation '" + node.relation + "' has schema " +
          rel->schema().ToString() + ", but the plan was compiled for " +
          node.schema.ToString());
    }
    return Rows(&rel->tuples());
  }

  // Every repair of every child world, weighted by both.
  Status EnumerateRepairs(const Node& node, const Worlds& child,
                          const ExactEvalOptions& options, Worlds* out) const {
    size_t produced = 0;
    for (const auto& w : child.outcomes()) {
      PFQL_ASSIGN_OR_RETURN(std::vector<RepairKeyGroup> groups,
                            RepairKeyGroups(w.value.get(), node.repair));
      // Distinct choices give distinct worlds, so the world count is the
      // product of the group sizes; check it before enumerating.
      size_t count = 1;
      for (const RepairKeyGroup& g : groups) {
        const size_t n = g.alternatives.size();
        count = count > SIZE_MAX / n ? SIZE_MAX : count * n;
      }
      if (count > options.max_worlds - produced) {
        return Status::ResourceExhausted(
            "repair-key enumeration exceeds max_worlds = " +
            std::to_string(options.max_worlds));
      }
      produced += count;
      std::vector<size_t> chosen(groups.size(), 0);
      for (;;) {
        std::vector<Tuple> world;
        world.reserve(groups.size());
        BigRational p = w.probability;
        for (size_t g = 0; g < groups.size(); ++g) {
          const auto& [row, q] = groups[g].alternatives[chosen[g]];
          world.push_back(row);
          p *= q;
        }
        out->Add(Rows(Canonical(std::move(world))), std::move(p));
        size_t g = groups.size();
        while (g > 0 && ++chosen[g - 1] == groups[g - 1].alternatives.size()) {
          chosen[--g] = 0;
        }
        if (g == 0) break;
      }
    }
    return Status::OK();
  }

  StatusOr<Rows> Apply(const Node& node, const std::vector<Tuple>& in,
                       const std::vector<Tuple>* right) const {
    std::vector<Tuple> out;
    switch (node.op) {
      case Op::kSelect: {
        const Predicate& pred = *node.source->predicate();
        for (const Tuple& row : in) {
          PFQL_ASSIGN_OR_RETURN(bool keep, pred.Eval(node.schema, row));
          if (keep) out.push_back(row);
        }
        return Rows(std::move(out));
      }
      case Op::kMap: {
        out.reserve(in.size());
        for (const Tuple& row : in) {
          std::vector<Value> values;
          values.reserve(node.map.size());
          for (const Node::MapColumn& c : node.map) {
            values.push_back(c.constant ? *c.constant : row[c.position]);
          }
          out.emplace_back(std::move(values));
        }
        return Rows(Canonical(std::move(out)));
      }
      case Op::kJoin:
        return Rows(Join(node, in, *right));
      case Op::kProduct:
        out.reserve(in.size() * right->size());
        for (const Tuple& l : in) {
          for (const Tuple& r : *right) {
            std::vector<Value> values = l.values();
            values.insert(values.end(), r.values().begin(), r.values().end());
            out.emplace_back(std::move(values));
          }
        }
        return Rows(std::move(out));
      case Op::kUnion:
        std::set_union(in.begin(), in.end(), right->begin(), right->end(),
                       std::back_inserter(out));
        return Rows(std::move(out));
      case Op::kDifference:
        std::set_difference(in.begin(), in.end(), right->begin(),
                            right->end(), std::back_inserter(out));
        return Rows(std::move(out));
      case Op::kIntersect:
        std::set_intersection(in.begin(), in.end(), right->begin(),
                              right->end(), std::back_inserter(out));
        return Rows(std::move(out));
      default:
        return Status::Internal("Apply on a leaf or repair-key node");
    }
  }

  // A hash join whose table is one sorted vector of (key hash, right row)
  // pairs: no key tuple is built and nothing is allocated per key, so a
  // join of a few rows costs about what comparing them would. Matches come
  // in left-row order, then right-row order (equal hashes sort by row), and
  // the right rows of one match agree on the key, so the output is already
  // sorted and distinct.
  static std::vector<Tuple> Join(const Node& node,
                                 const std::vector<Tuple>& left,
                                 const std::vector<Tuple>& right) {
    std::vector<std::pair<size_t, size_t>> index;
    index.reserve(right.size());
    for (size_t j = 0; j < right.size(); ++j) {
      index.emplace_back(KeyHash(right[j], node.right_key), j);
    }
    std::sort(index.begin(), index.end());
    std::vector<Tuple> out;
    for (const Tuple& l : left) {
      const size_t h = KeyHash(l, node.left_key);
      for (auto it = std::lower_bound(index.begin(), index.end(),
                                      std::make_pair(h, size_t{0}));
           it != index.end() && it->first == h; ++it) {
        const Tuple& r = right[it->second];
        if (KeysMatch(l, node.left_key, r, node.right_key)) {
          out.push_back(Joined(l, r, node.right_rest));
        }
      }
    }
    assert(std::adjacent_find(out.begin(), out.end(),
                              [](const Tuple& a, const Tuple& b) {
                                return !(a < b);
                              }) == out.end() &&
           "join output not sorted and distinct");
    return out;
  }

  const std::vector<Node>& nodes_;
  const Instance& instance_;
};

}  // namespace

StatusOr<RaPlan> RaPlan::Compile(const RaExpr::Ptr& expr,
                                 const std::map<std::string, Schema>& schemas) {
  Compiler compiler(schemas);
  PFQL_ASSIGN_OR_RETURN(Compiler::Compiled root, compiler.Compile(expr));
  RaPlan plan;
  plan.nodes_ =
      std::make_shared<const std::vector<Node>>(compiler.TakeNodes());
  plan.root_ = root.node;
  plan.schema_ = std::move(root.schema);
  return plan;
}

StatusOr<std::vector<Tuple>> RaPlan::SampleRows(const Instance& instance,
                                                Rng* rng) const {
  Evaluator eval(*nodes_, instance);
  PFQL_ASSIGN_OR_RETURN(Rows rows, eval.Sample(root_, rng));
  return std::move(rows).Take();
}

StatusOr<Relation> RaPlan::Sample(const Instance& instance, Rng* rng) const {
  PFQL_ASSIGN_OR_RETURN(std::vector<Tuple> rows, SampleRows(instance, rng));
  return Relation(schema_, std::move(rows));
}

StatusOr<Distribution<Relation>> RaPlan::Exact(
    const Instance& instance, const ExactEvalOptions& options) const {
  Evaluator eval(*nodes_, instance);
  PFQL_ASSIGN_OR_RETURN(Worlds worlds, eval.Exact(root_, options));
  // The worlds are normalised already: adding them in order keeps the
  // distribution sorted and distinct without a second sort.
  Distribution<Relation> out;
  for (auto& w : worlds.MutableOutcomes()) {
    out.Add(Relation(schema_, std::move(w.value).Take()),
            std::move(w.probability));
  }
  return out;
}

StatusOr<Schema> InferSchema(const RaExpr::Ptr& expr,
                             const std::map<std::string, Schema>& schemas) {
  PFQL_ASSIGN_OR_RETURN(RaPlan plan, RaPlan::Compile(expr, schemas));
  return plan.schema();
}

}  // namespace pfql
