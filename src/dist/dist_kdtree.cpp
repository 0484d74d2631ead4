// Distributed kd-tree construction: sampled global splits, one
// all-to-all redistribution, then the local three-phase build.
#include "dist/dist_kdtree.hpp"

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/error.hpp"
#include "common/sampling.hpp"
#include "common/timer.hpp"
#include "dist/redistribute.hpp"

namespace panda::dist {

namespace {

struct Group {
  int lo = 0;
  int hi = 0;
};

constexpr std::uint32_t kFinalized = 0xffffffffu;

/// Points each rank contributes to a rank group's split sample: the
/// paper's m = 256 per rank for the global tree.
constexpr std::size_t kSamplesPerRank = 256;

/// Per-group combined sample coordinates, point-major, reconstructed
/// identically on every rank from the allgathered flat payload.
std::vector<std::vector<float>> combine_samples(
    const std::vector<std::uint64_t>& all_counts,
    const std::vector<float>& all_samples,
    const std::vector<std::uint64_t>& rank_float_counts, std::size_t groups,
    std::size_t dims) {
  std::vector<std::vector<float>> combined(groups);
  const std::size_t ranks = rank_float_counts.size();
  std::size_t rank_offset = 0;
  for (std::size_t r = 0; r < ranks; ++r) {
    std::size_t cursor = rank_offset;
    for (std::size_t g = 0; g < groups; ++g) {
      const std::uint64_t count = all_counts[r * groups + g];
      combined[g].insert(combined[g].end(),
                         all_samples.begin() + static_cast<std::ptrdiff_t>(
                                                   cursor),
                         all_samples.begin() +
                             static_cast<std::ptrdiff_t>(cursor +
                                                         count * dims));
      cursor += count * dims;
    }
    rank_offset += rank_float_counts[r];
  }
  return combined;
}

}  // namespace

DistKdTree DistKdTree::build(net::Comm& comm, const data::PointSet& slice,
                             const DistBuildConfig& config,
                             DistBuildBreakdown* breakdown) {
  const std::size_t dims = slice.dims();
  PANDA_CHECK_MSG(dims >= 1, "DistKdTree::build: points need dimensions");
  const int ranks = comm.size();

  DistKdTree tree;
  tree.config_ = config;

  DistBuildBreakdown local_breakdown;
  if (ranks == 1) {
    // Single rank: no global phases at all; their entries stay 0.
    tree.global_tree_ = GlobalTree::from_records(1, dims, {});
    tree.local_points_ = slice;
  } else {
    // Both allreduces must run on every rank before any rank can bail
    // out: short-circuiting between collectives would leave peers
    // blocked mid-collective with only the abort machinery to free
    // them (and a worse diagnostic).
    const std::uint64_t max_dims =
        comm.allreduce<std::uint64_t>(dims, net::ReduceOp::Max);
    const std::uint64_t min_dims =
        comm.allreduce<std::uint64_t>(dims, net::ReduceOp::Min);
    PANDA_CHECK_MSG(max_dims == dims && min_dims == dims,
                    "DistKdTree::build: ranks disagree on dimensionality");

    WallTimer watch;
    const std::size_t n = slice.size();

    // Per-point state: index into the current active-group list, or
    // kFinalized once the destination rank is decided.
    std::vector<std::uint32_t> assign(n, 0);
    std::vector<int> destinations(n, 0);
    std::vector<SplitRecord> records;
    std::vector<Group> active{Group{0, ranks}};

    std::vector<float> point(dims);
    while (!active.empty()) {
      const std::size_t groups = active.size();

      // Bucket this rank's still-moving points by active group.
      std::vector<std::vector<std::uint64_t>> members(groups);
      for (std::size_t i = 0; i < n; ++i) {
        if (assign[i] != kFinalized) members[assign[i]].push_back(i);
      }

      // Strided per-group sample, flattened point-major for the wire.
      std::vector<std::uint64_t> my_counts(groups, 0);
      std::vector<float> my_samples;
      for (std::size_t g = 0; g < groups; ++g) {
        const auto picks =
            strided_indices(members[g].size(), kSamplesPerRank);
        my_counts[g] = picks.size();
        for (const std::uint64_t pick : picks) {
          slice.copy_point(members[g][pick], point.data());
          my_samples.insert(my_samples.end(), point.begin(), point.end());
        }
      }
      const auto all_counts = comm.allgatherv(
          std::span<const std::uint64_t>(my_counts));
      std::vector<std::uint64_t> rank_float_counts;
      const auto all_samples = comm.allgatherv(
          std::span<const float>(my_samples), &rank_float_counts);
      const auto combined = combine_samples(all_counts, all_samples,
                                            rank_float_counts, groups, dims);

      // Choose each group's split from its combined sample; every rank
      // derives the identical decision from the identical payload.
      struct Choice {
        std::uint32_t dim = 0;
        float split = 0.0f;
        bool degenerate_candidate = false;  // zero sample variance
      };
      std::vector<Choice> choices(groups);
      std::vector<std::uint8_t> degenerate_flags(groups, 1);
      // Rank split point of each group: left child takes the ceil half.
      std::vector<int> mids(groups);
      for (std::size_t g = 0; g < groups; ++g) {
        mids[g] = active[g].lo + (active[g].hi - active[g].lo + 1) / 2;
      }
      for (std::size_t g = 0; g < groups; ++g) {
        const std::vector<float>& sample = combined[g];
        const std::size_t m = sample.size() / dims;
        if (m == 0) continue;  // empty group: keep the default choice
        Choice& choice = choices[g];
        double best_variance = -1.0;
        std::vector<float> values(m);
        for (std::size_t d = 0; d < dims; ++d) {
          for (std::size_t i = 0; i < m; ++i) {
            values[i] = sample[i * dims + d];
          }
          const MeanVar mv = mean_variance(values);
          if (mv.variance > best_variance) {
            best_variance = mv.variance;
            choice.dim = static_cast<std::uint32_t>(d);
          }
        }
        choice.degenerate_candidate = best_variance <= 0.0;
        const Group& group = active[g];
        const int mid = mids[g];
        if (choice.degenerate_candidate) {
          choice.split = sample[choice.dim];
        } else {
          for (std::size_t i = 0; i < m; ++i) {
            values[i] = sample[i * dims + choice.dim];
          }
          std::sort(values.begin(), values.end());
          const double fraction = static_cast<double>(mid - group.lo) /
                                  static_cast<double>(group.hi - group.lo);
          const auto idx = std::min<std::size_t>(
              m - 1, static_cast<std::size_t>(fraction *
                                              static_cast<double>(m)));
          choice.split = values[idx];
        }
        // Degeneracy must be confirmed exactly (the sample could have
        // missed variation): every point of the group, on every rank,
        // must equal the first sample in every dimension.
        if (choice.degenerate_candidate) {
          for (const std::uint64_t i : members[g]) {
            slice.copy_point(i, point.data());
            for (std::size_t d = 0; d < dims; ++d) {
              if (point[d] != sample[d]) {
                degenerate_flags[g] = 0;
                break;
              }
            }
            if (degenerate_flags[g] == 0) break;
          }
        }
      }
      comm.allreduce_inplace(std::span<std::uint8_t>(degenerate_flags),
                             net::ReduceOp::Min);

      // Emit the level's records and lay out the next active list.
      std::vector<Group> next;
      struct ChildRef {
        std::uint32_t left = kFinalized;   // next-level group index
        std::uint32_t right = kFinalized;  // (kFinalized => singleton)
      };
      std::vector<ChildRef> child_refs(groups);
      for (std::size_t g = 0; g < groups; ++g) {
        const Group& group = active[g];
        const int mid = mids[g];
        records.push_back(SplitRecord{group.lo, group.hi, mid,
                                      choices[g].dim, choices[g].split});
        if (mid - group.lo >= 2) {
          child_refs[g].left = static_cast<std::uint32_t>(next.size());
          next.push_back(Group{group.lo, mid});
        }
        if (group.hi - mid >= 2) {
          child_refs[g].right = static_cast<std::uint32_t>(next.size());
          next.push_back(Group{mid, group.hi});
        }
      }

      // Reassign points: geometric groups partition by the hyperplane;
      // confirmed-degenerate groups (all points identical — no plane
      // separates them) spread evenly across the group's ranks, which
      // is safe because the points lie exactly on every descendant
      // split plane.
      for (std::size_t g = 0; g < groups; ++g) {
        const Group& group = active[g];
        const int mid = mids[g];
        const bool spread = choices[g].degenerate_candidate &&
                            degenerate_flags[g] != 0 &&
                            !members[g].empty();
        for (std::size_t j = 0; j < members[g].size(); ++j) {
          const std::uint64_t i = members[g][j];
          int target_rank;
          if (spread) {
            target_rank = balanced_destination(j, members[g].size(),
                                               group.lo,
                                               group.hi - group.lo);
          } else {
            slice.copy_point(i, point.data());
            target_rank = point[choices[g].dim] < choices[g].split
                              ? group.lo
                              : mid;
          }
          const std::uint32_t child = target_rank < mid
                                          ? child_refs[g].left
                                          : child_refs[g].right;
          if (child == kFinalized) {
            // Singleton child group: target_rank is its only rank.
            destinations[i] = target_rank;
            assign[i] = kFinalized;
          } else {
            assign[i] = child;
          }
        }
      }
      active = std::move(next);
    }

    tree.global_tree_ = GlobalTree::from_records(ranks, dims, records);
    local_breakdown.global_tree = watch.seconds();

    watch.reset();
    tree.local_points_ = exchange_points(comm, slice, destinations);
    local_breakdown.redistribute = watch.seconds();
  }

  core::BuildBreakdown local_phases;
  tree.local_tree_ = core::KdTree::build(tree.local_points_, config.local,
                                         comm.pool(), &local_phases);
  local_breakdown.local_data_parallel = local_phases.data_parallel;
  local_breakdown.local_thread_parallel = local_phases.thread_parallel;
  local_breakdown.simd_packing = local_phases.simd_packing;
  if (breakdown != nullptr) *breakdown = local_breakdown;
  return tree;
}

}  // namespace panda::dist
