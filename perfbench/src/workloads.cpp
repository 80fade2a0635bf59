#include "workloads.hpp"

#include <algorithm>
#include <utility>

#include "common/rng.hpp"
#include "kernels/reference_spgemm.hpp"
#include "sparse/coo.hpp"
#include "sparse/generators.hpp"

namespace perfbench {

namespace {

using oocgemm::sparse::Coo;
using oocgemm::sparse::Csr;
using oocgemm::sparse::index_t;
using oocgemm::sparse::offset_t;

constexpr int kRmatJobs = 24;
constexpr int kSharedBJobs = 48;

Csr Rmat(int scale, double edge_factor, std::uint64_t seed) {
  oocgemm::sparse::RmatParams p;
  p.scale = scale;
  p.edge_factor = edge_factor;
  p.seed = seed;
  return oocgemm::sparse::GenerateRmat(p);
}

/// Structural union (values summed) of same-shape matrices, with `parts[i]`
/// placed at row/column offset `offsets[i]` of an n x n result.
Csr Union(index_t n, const std::vector<const Csr*>& parts,
          const std::vector<index_t>& offsets) {
  Coo merged;
  merged.rows = merged.cols = n;
  for (std::size_t p = 0; p < parts.size(); ++p) {
    const Csr& m = *parts[p];
    for (index_t r = 0; r < m.rows(); ++r) {
      for (offset_t k = m.row_begin(r); k < m.row_end(r); ++k) {
        merged.Add(offsets[p] + r,
                   offsets[p] + m.col_ids()[static_cast<std::size_t>(k)],
                   m.values()[static_cast<std::size_t>(k)]);
      }
    }
  }
  return oocgemm::sparse::CooToCsr(merged);
}

// The three regular stand-in families of the paper's Table II (stokes,
// uk-2002, nlpkkt200), built the way sparse/datasets.cpp builds them but
// from the workload seed.  Seed 1 gives exactly the registry's matrices.

Csr StokesFamily(int scale, std::uint64_t seed) {
  oocgemm::sparse::BandedParams near;
  near.n = static_cast<index_t>(1) << scale;
  near.half_bandwidth = 7;
  near.seed = seed;
  const Csr a = oocgemm::sparse::GenerateBanded(near);
  oocgemm::sparse::BandedParams far;
  far.n = near.n;
  far.half_bandwidth = 600;
  far.stride = 120;
  far.seed = seed + 3;
  const Csr b = oocgemm::sparse::GenerateBanded(far);
  return Union(near.n, {&a, &b}, {0, 0});
}

Csr WebFamily(int scale, std::uint64_t seed) {
  oocgemm::sparse::VariableBandedParams banded;
  banded.n = static_cast<index_t>(1) << scale;
  banded.segments = {{0.30, 5, 1}, {0.15, 14, 1}, {0.25, 9, 1}, {0.30, 5, 1}};
  banded.seed = seed;
  const Csr local = oocgemm::sparse::GenerateVariableBanded(banded);
  oocgemm::sparse::RmatParams tail;
  tail.scale = scale;
  tail.edge_factor = 0.8;
  tail.a = 0.7;
  tail.b = 0.15;
  tail.c = 0.1;
  tail.permute_ids = false;
  tail.seed = seed + 17;
  const Csr global = oocgemm::sparse::GenerateRmat(tail);
  return Union(banded.n, {&local, &global}, {0, 0});
}

Csr KktFamily(int scale, std::uint64_t seed) {
  const index_t n = static_cast<index_t>(1) << scale;
  oocgemm::sparse::BlockFemParams dense;
  dense.num_blocks = (n / 4) / 6;
  dense.block_size = 6;
  dense.couplings = 4;
  dense.seed = seed;
  const Csr hess = oocgemm::sparse::GenerateBlockFem(dense);
  const index_t remaining = n - hess.rows();
  oocgemm::sparse::BlockFemParams body;
  body.num_blocks = (remaining / 2) / 4;
  body.block_size = 4;
  body.couplings = 3;
  body.seed = seed + 5;
  const Csr body1 = oocgemm::sparse::GenerateBlockFem(body);
  body.num_blocks = (remaining - body1.rows()) / 4;
  body.seed = seed + 9;
  const Csr body2 = oocgemm::sparse::GenerateBlockFem(body);
  return Union(n, {&body1, &hess, &body2},
               {0, body1.rows(), body1.rows() + hess.rows()});
}

Product Square(std::string name, Csr a) {
  Product p;
  p.name = std::move(name);
  p.a = std::make_shared<const Csr>(std::move(a));
  p.b = p.a;
  return p;
}

void ComputeReference(Product& p) {
  p.reference = oocgemm::kernels::ReferenceSpgemm(*p.a, *p.b);
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {"ooc-skewed", "ooc-regular",
                                                 "serve-closed"};
  return names;
}

bool MakeWorkload(const std::string& name, std::uint64_t seed,
                  Workload* out) {
  Workload w;
  oocgemm::SplitMix64 rng(seed);
  if (name == "ooc-skewed") {
    // R-MAT scale 15, edge factor 8: the ROADMAP's rmat-15 input at seed 1.
    w.products.push_back(Square("rmat15", Rmat(15, 8.0, seed)));
  } else if (name == "ooc-regular") {
    const std::uint64_t base = seed * 1000;
    w.products.push_back(Square("stokes14", StokesFamily(14, base + 4)));
    w.products.push_back(Square("web14", WebFamily(14, base + 5)));
    w.products.push_back(Square("kkt14", KktFamily(14, base + 7)));
  } else if (name == "serve-closed") {
    // Every job distinct and served once per pass.  Two thirds of the jobs
    // are alike (A_i * B, fixed costs dominate), so the latency median falls
    // inside that group rather than in the gap between two groups; the
    // R-MAT A^2 jobs are one size and many enough that the 95th percentile
    // falls inside their group, not on one seed's largest hub.
    for (int i = 0; i < kRmatJobs; ++i) {
      w.products.push_back(Square("rmat11sq" + std::to_string(i),
                                  Rmat(11, 8.0, rng.Next())));
    }
    // A_i * B against one shared B: the operand pattern batching and the
    // B-panel cache exist for.
    const auto b = std::make_shared<const Csr>(Rmat(10, 8.0, rng.Next()));
    for (int i = 0; i < kSharedBJobs; ++i) {
      oocgemm::sparse::ErdosRenyiParams p;
      p.rows = p.cols = b->rows();
      p.avg_degree = 4.0;
      p.seed = rng.Next();
      Product prod;
      prod.name = "er" + std::to_string(i) + "xB";
      prod.a = std::make_shared<const Csr>(
          oocgemm::sparse::GenerateErdosRenyi(p));
      prod.b = b;
      w.products.push_back(std::move(prod));
    }
  } else {
    return false;
  }

  // A serve pass submits every product once, in a seeded order.
  for (int i = 0; i < static_cast<int>(w.products.size()); ++i) {
    w.jobs.push_back(i);
  }
  for (std::size_t i = w.jobs.size(); i > 1; --i) {
    std::swap(w.jobs[i - 1], w.jobs[rng.Next() % i]);
  }

  for (Product& p : w.products) ComputeReference(p);
  w.warmup = Square("warmup", Rmat(10, 8.0, rng.Next()));
  ComputeReference(w.warmup);
  *out = std::move(w);
  return true;
}

}  // namespace perfbench
