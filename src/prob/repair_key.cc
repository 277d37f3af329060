#include "prob/repair_key.h"

#include <algorithm>
#include <functional>

namespace pfql {

namespace {

// The key groups of canonical rows: `order` lists row indices group by
// group, groups in key order and members in row order, and group g is
// order[bounds[g].first, bounds[g].second). A key that is a prefix of the
// row needs no sort: canonical rows already sit grouped, in key order.
struct Grouping {
  std::vector<size_t> order;
  std::vector<std::pair<size_t, size_t>> bounds;
};

Grouping GroupRows(const std::vector<Tuple>& rows,
                   const std::vector<size_t>& key) {
  Grouping g;
  bool prefix = true;
  for (size_t i = 0; i < key.size(); ++i) prefix = prefix && key[i] == i;
  auto same_key = [&](size_t a, size_t b) {
    for (size_t k : key) {
      if (rows[a][k] != rows[b][k]) return false;
    }
    return true;
  };
  g.order.resize(rows.size());
  if (prefix) {
    for (size_t i = 0; i < rows.size(); ++i) g.order[i] = i;
  } else {
    std::vector<std::pair<Tuple, size_t>> keyed;
    keyed.reserve(rows.size());
    for (size_t i = 0; i < rows.size(); ++i) {
      keyed.emplace_back(rows[i].Project(key), i);
    }
    // Ties on the key fall back to the row index: members stay in row order.
    std::sort(keyed.begin(), keyed.end());
    for (size_t i = 0; i < keyed.size(); ++i) g.order[i] = keyed[i].second;
  }
  for (size_t i = 0; i < g.order.size(); ++i) {
    if (i == 0 || !same_key(g.order[i - 1], g.order[i])) {
      g.bounds.emplace_back(i, i);
    }
    g.bounds.back().second = i + 1;
  }
  return g;
}

std::string KeyString(const std::vector<Tuple>& rows,
                      const RepairKeyColumns& columns, size_t row) {
  return rows[row].Project(columns.key).ToString();
}

// Exact weight of a member row (1 when uniform).
StatusOr<BigRational> MemberWeight(const Tuple& row,
                                   const RepairKeyColumns& columns) {
  if (!columns.weight) return BigRational(1);
  PFQL_ASSIGN_OR_RETURN(BigRational r, row[*columns.weight].ToExactNumeric());
  if (r.IsNegative()) {
    return Status::InvalidArgument("negative repair-key weight " +
                                   r.ToString());
  }
  return r;
}

}  // namespace

StatusOr<RepairKeyColumns> ResolveRepairKey(const Schema& schema,
                                            const RepairKeySpec& spec) {
  RepairKeyColumns columns;
  PFQL_ASSIGN_OR_RETURN(columns.key, schema.IndicesOf(spec.key_columns));
  if (spec.weight_column) {
    auto idx = schema.IndexOf(*spec.weight_column);
    if (!idx) {
      return Status::NotFound("repair-key weight column '" +
                              *spec.weight_column + "' not in schema " +
                              schema.ToString());
    }
    columns.weight = *idx;
  }
  return columns;
}

StatusOr<std::vector<RepairKeyGroup>> RepairKeyGroups(
    const std::vector<Tuple>& rows, const RepairKeyColumns& columns) {
  const Grouping groups = GroupRows(rows, columns.key);
  std::vector<RepairKeyGroup> out;
  out.reserve(groups.bounds.size());
  std::vector<BigRational> weights;
  for (const auto& [first, last] : groups.bounds) {
    RepairKeyGroup group;
    BigRational total;
    weights.clear();
    for (size_t i = first; i < last; ++i) {
      PFQL_ASSIGN_OR_RETURN(BigRational w,
                            MemberWeight(rows[groups.order[i]], columns));
      total += w;
      weights.push_back(std::move(w));
    }
    if (total.IsZero()) {
      return Status::InvalidArgument(
          "repair-key group with key " +
          KeyString(rows, columns, groups.order[first]) +
          " has total weight zero");
    }
    for (size_t i = first; i < last; ++i) {
      const BigRational& w = weights[i - first];
      if (w.IsZero()) continue;  // zero-weight alternatives drop out
      group.alternatives.emplace_back(rows[groups.order[i]], w / total);
    }
    out.push_back(std::move(group));
  }
  return out;
}

StatusOr<std::vector<Tuple>> RepairKeySample(const std::vector<Tuple>& rows,
                                             const RepairKeyColumns& columns,
                                             Rng* rng) {
  const Grouping groups = GroupRows(rows, columns.key);
  std::vector<Tuple> world;
  world.reserve(groups.bounds.size());
  std::vector<double> weights;
  for (const auto& [first, last] : groups.bounds) {
    weights.clear();
    if (columns.weight) {
      for (size_t i = first; i < last; ++i) {
        const Value& w = rows[groups.order[i]][*columns.weight];
        PFQL_ASSIGN_OR_RETURN(double d, w.ToNumeric());
        if (d < 0) {
          return Status::InvalidArgument("negative repair-key weight");
        }
        weights.push_back(d);
      }
    } else {
      weights.assign(last - first, 1.0);
    }
    const size_t pick = rng->NextWeighted(weights);
    if (pick == weights.size()) {
      return Status::InvalidArgument(
          "repair-key group with key " +
          KeyString(rows, columns, groups.order[first]) +
          " has total weight zero");
    }
    world.push_back(rows[groups.order[first + pick]]);
  }
  // Groups come in key order, which is row order when the key is a prefix.
  if (!std::is_sorted(world.begin(), world.end())) {
    std::sort(world.begin(), world.end());
  }
  return world;
}

StatusOr<std::vector<RepairKeyGroup>> RepairKeyGroups(
    const Relation& rel, const RepairKeySpec& spec) {
  PFQL_ASSIGN_OR_RETURN(RepairKeyColumns columns,
                        ResolveRepairKey(rel.schema(), spec));
  return RepairKeyGroups(rel.tuples(), columns);
}

StatusOr<Distribution<Relation>> RepairKeyEnumerate(
    const Relation& rel, const RepairKeySpec& spec) {
  PFQL_ASSIGN_OR_RETURN(std::vector<RepairKeyGroup> groups,
                        RepairKeyGroups(rel, spec));

  // Cartesian product over groups (depth-first); each world is sealed in
  // one canonicalization pass from the chosen alternatives.
  Distribution<Relation> dist;
  std::vector<size_t> chosen(groups.size(), 0);
  std::function<Status(size_t, BigRational)> recurse =
      [&](size_t depth, BigRational prob) -> Status {
    if (depth == groups.size()) {
      RelationBuilder world(rel.schema());
      world.Reserve(groups.size());
      for (size_t gi = 0; gi < groups.size(); ++gi) {
        world.Add(groups[gi].alternatives[chosen[gi]].first);
      }
      PFQL_ASSIGN_OR_RETURN(Relation sealed, world.Seal());
      dist.Add(std::move(sealed), std::move(prob));
      return Status::OK();
    }
    for (size_t c = 0; c < groups[depth].alternatives.size(); ++c) {
      chosen[depth] = c;
      PFQL_RETURN_NOT_OK(
          recurse(depth + 1, prob * groups[depth].alternatives[c].second));
    }
    return Status::OK();
  };
  PFQL_RETURN_NOT_OK(recurse(0, BigRational(1)));
  dist.Normalize();
  return dist;
}

StatusOr<Relation> RepairKeySample(const Relation& rel,
                                   const RepairKeySpec& spec, Rng* rng) {
  PFQL_ASSIGN_OR_RETURN(RepairKeyColumns columns,
                        ResolveRepairKey(rel.schema(), spec));
  PFQL_ASSIGN_OR_RETURN(std::vector<Tuple> world,
                        RepairKeySample(rel.tuples(), columns, rng));
  return Relation::Make(rel.schema(), std::move(world));
}

StatusOr<uint64_t> RepairKeyWorldCount(const Relation& rel,
                                       const RepairKeySpec& spec,
                                       uint64_t cap) {
  PFQL_ASSIGN_OR_RETURN(RepairKeyColumns columns,
                        ResolveRepairKey(rel.schema(), spec));
  uint64_t count = 1;
  for (const auto& [first, last] : GroupRows(rel.tuples(), columns.key).bounds) {
    const uint64_t n = last - first;
    if (n != 0 && count > cap / n) return cap;
    count *= n;
  }
  return count;
}

}  // namespace pfql
