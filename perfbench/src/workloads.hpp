// Benchmark inputs.  Every matrix comes from the workload seed through the
// library's public generators; the program under test only ever sees the
// generated matrices.  Reference products are computed here, once, outside
// every timing.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "sparse/csr.hpp"

namespace perfbench {

using CsrPtr = std::shared_ptr<const oocgemm::sparse::Csr>;

/// One multiplication C = A * B with its reference product.
struct Product {
  std::string name;
  CsrPtr a;
  CsrPtr b;
  oocgemm::sparse::Csr reference;
};

struct Workload {
  /// Distinct products; one executor pass runs each through every executor.
  std::vector<Product> products;
  /// One serve pass: indices into `products`, in submission order.
  std::vector<int> jobs;
  /// A small product for the untimed warm-up operation after each set-up.
  Product warmup;
};

/// Names accepted by MakeWorkload, in BENCHMARK.json order.
const std::vector<std::string>& WorkloadNames();

/// Builds the named workload from `seed`; false for an unknown name.
bool MakeWorkload(const std::string& name, std::uint64_t seed,
                  Workload* out);

}  // namespace perfbench
