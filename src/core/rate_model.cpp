#include "core/rate_model.hpp"

#include <algorithm>
#include <cmath>
#include <string>

#include "util/check.hpp"

namespace qoslb {

RateModel RateModel::matrix(std::size_t num_users, std::size_t num_resources,
                            std::vector<double> rates) {
  QOSLB_REQUIRE(num_users >= 1, "rate matrix needs at least one user");
  QOSLB_REQUIRE(num_resources >= 1, "rate matrix needs at least one resource");
  QOSLB_REQUIRE(rates.size() == num_users * num_resources,
                "rate matrix must be n×m row-major");
  RateModel model;
  model.kind_ = RateModelKind::kMatrix;
  model.num_users_ = num_users;
  model.num_resources_ = num_resources;
  model.matrix_ = std::move(rates);
  bool any_zero = false;
  for (UserId u = 0; u < num_users; ++u) {
    std::size_t degree = 0;
    for (ResourceId r = 0; r < num_resources; ++r) {
      const double rate = model.matrix_[u * num_resources + r];
      QOSLB_REQUIRE(std::isfinite(rate) && rate >= 0.0,
                    "rates must be finite and non-negative");
      if (rate > 0.0)
        ++degree;
      else
        any_zero = true;
    }
    QOSLB_REQUIRE(degree >= 1, "user " + std::to_string(u) +
                                   " has an empty reachable set (all rates 0)");
  }
  model.restricted_ = any_zero;
  if (model.restricted_) {
    // Materialize the reachable-set CSR so restricted sampling is a plain
    // indexed draw (no per-probe matrix scan).
    model.offsets_.reserve(num_users + 1);
    model.offsets_.push_back(0);
    for (UserId u = 0; u < num_users; ++u) {
      for (ResourceId r = 0; r < num_resources; ++r)
        if (model.matrix_[u * num_resources + r] > 0.0)
          model.targets_.push_back(r);
      model.offsets_.push_back(model.targets_.size());
    }
  }
  return model;
}

RateModel RateModel::bipartite(std::size_t num_users, std::size_t num_resources,
                               std::vector<RateEdge> edges) {
  QOSLB_REQUIRE(num_users >= 1, "access graph needs at least one user");
  QOSLB_REQUIRE(num_resources >= 1, "access graph needs at least one resource");
  // Counting sort by user. offsets[u + 2] counts user u's edges, so after the
  // prefix sum offsets[u + 1] is row u's start and serves as its scatter
  // cursor; once every edge is placed it is row u's end (row u + 1's start).
  std::vector<std::uint64_t> offsets(num_users + 2, 0);
  for (const RateEdge& e : edges) {
    QOSLB_REQUIRE(e.user < num_users, "edge to unknown user");
    ++offsets[std::size_t{e.user} + 2];
  }
  for (std::size_t i = 2; i < offsets.size(); ++i) offsets[i] += offsets[i - 1];
  std::vector<ResourceId> targets(edges.size());
  std::vector<double> rates(edges.size());
  for (const RateEdge& e : edges) {  // stable: each row keeps input order
    const std::uint64_t slot = offsets[std::size_t{e.user} + 1]++;
    targets[slot] = e.resource;
    rates[slot] = e.rate;
  }
  offsets.pop_back();

  // A row that arrived out of resource order is sorted on its own, through
  // the input buffer, which is no longer needed.
  for (std::size_t u = 0; u < num_users; ++u) {
    ResourceId* const row = targets.data() + offsets[u];
    double* const row_rates = rates.data() + offsets[u];
    const std::size_t size = offsets[u + 1] - offsets[u];
    if (std::is_sorted(row, row + size)) continue;
    for (std::size_t i = 0; i < size; ++i)
      edges[i] = {static_cast<UserId>(u), row[i], row_rates[i]};
    std::sort(edges.begin(), edges.begin() + static_cast<std::ptrdiff_t>(size),
              [](const RateEdge& a, const RateEdge& b) {
                return a.resource < b.resource;
              });
    for (std::size_t i = 0; i < size; ++i) {
      row[i] = edges[i].resource;
      row_rates[i] = edges[i].rate;
    }
  }
  return bipartite_rows(num_resources, std::move(offsets), std::move(targets),
                        std::move(rates));
}

RateModel RateModel::bipartite_rows(std::size_t num_resources,
                                    std::vector<std::uint64_t> offsets,
                                    std::vector<ResourceId> targets,
                                    std::vector<double> rates) {
  QOSLB_REQUIRE(offsets.size() >= 2, "access graph needs at least one user");
  QOSLB_REQUIRE(num_resources >= 1, "access graph needs at least one resource");
  QOSLB_REQUIRE(offsets.front() == 0 && rates.size() == targets.size(),
                "rows must start at offset 0 and give every edge a rate");
  const std::size_t num_users = offsets.size() - 1;
  // One walk checks every row and edge. Each row is non-empty and ends within
  // the edges before any of its edges is read.
  for (std::size_t u = 0; u < num_users; ++u) {
    const std::uint64_t begin = offsets[u];
    const std::uint64_t end = offsets[u + 1];
    QOSLB_REQUIRE(begin < end, "user " + std::to_string(u) +
                                   " has an empty reachable set (no edges)");
    QOSLB_REQUIRE(end <= targets.size(), "row offsets past the last edge");
    for (std::uint64_t i = begin; i < end; ++i) {
      QOSLB_REQUIRE(targets[i] < num_resources, "edge to unknown resource");
      QOSLB_REQUIRE(std::isfinite(rates[i]) && rates[i] > 0.0,
                    "edge rates must be finite and positive");
      if (i == begin) continue;
      QOSLB_REQUIRE(targets[i - 1] != targets[i],
                    "duplicate (user, resource) edge");
      QOSLB_REQUIRE(targets[i - 1] < targets[i],
                    "rows must list their resources in ascending order");
    }
  }
  QOSLB_REQUIRE(offsets.back() == targets.size(),
                "row offsets must end at the last edge");
  RateModel model;
  model.kind_ = RateModelKind::kBipartite;
  model.num_users_ = num_users;
  model.num_resources_ = num_resources;
  model.restricted_ = targets.size() < num_users * num_resources;
  model.offsets_ = std::move(offsets);
  model.targets_ = std::move(targets);
  model.edge_rates_ = std::move(rates);
  return model;
}

double RateModel::rate_slow(UserId u, ResourceId r) const {
  QOSLB_REQUIRE(u < num_users_, "user out of range");
  QOSLB_REQUIRE(r < num_resources_, "resource out of range");
  if (kind_ == RateModelKind::kMatrix) return matrix_[u * num_resources_ + r];
  const std::uint64_t e = find_edge(u, r);
  return e == kNoEdge ? 0.0 : edge_rates_[e];
}

const std::vector<double>& RateModel::matrix_rates() const {
  QOSLB_REQUIRE(kind_ == RateModelKind::kMatrix,
                "matrix_rates() needs a matrix model");
  return matrix_;
}

std::vector<RateEdge> RateModel::edges() const {
  QOSLB_REQUIRE(kind_ == RateModelKind::kBipartite,
                "edges() needs a bipartite model");
  std::vector<RateEdge> out;
  out.reserve(targets_.size());
  for (UserId u = 0; u < num_users_; ++u)
    for (std::uint64_t i = offsets_[u]; i < offsets_[u + 1]; ++i)
      out.push_back({u, targets_[i], edge_rates_[i]});
  return out;
}

}  // namespace qoslb
